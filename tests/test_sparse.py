"""The sparse exact sum shared by RealPoly, PolyFunction and DiffOperator,
and the polynomial ring of the first two."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import derivative
from qflag.emfield import RealPoly, exponents
from qflag.liealg import DiffOperator, PolyFunction

# one key of each class, a nonzero coefficient and the zero coefficient
CASES = {
    RealPoly: (((0, 1), (2, 2)), Fraction(3, 2), 0),
    PolyFunction: ((((0, 1), 2),), -2, 0),
    DiffOperator: (((((0, 1), 1),), ((1, 0),)), Fraction(1, 3), Fraction(0)),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_zero_coefficients_are_dropped(cls):
    key, c, zero = CASES[cls]
    assert cls({key: zero}).is_zero()
    assert cls({key: zero}).terms == {} == cls().terms
    a = cls({key: c, (): zero})
    assert a.terms == {key: c}
    assert (a - a).is_zero() and (a - a).terms == {}
    assert (a + (-a)).is_zero()
    assert not (a + a).is_zero() and (a + a) - a == a


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_equal_values_hash_alike(cls):
    key, c, zero = CASES[cls]
    a = cls({key: c})
    b = (cls({key: c + c}) - cls({key: c})) + cls({key: zero})
    assert a == b and hash(a) == hash(b)
    assert hash(a - a) == hash(cls())
    assert len({a, b, cls({key: c})}) == 1


def test_equal_terms_of_two_classes_compare_unequal():
    key = ()
    poly = PolyFunction({key: 1})
    op = DiffOperator({key: 1})
    real = RealPoly({key: 1})
    assert poly.terms == op.terms
    assert poly != op and op != poly
    assert poly != real and op != real


@pytest.mark.parametrize("left, right", list(itertools.permutations(CASES, 2)),
                         ids=lambda c: c.__name__)
def test_sums_of_two_classes_raise(left, right):
    a = left({CASES[left][0]: CASES[left][1]})
    b = right({CASES[right][0]: CASES[right][1]})
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a - b
    # a combination checks every pair, whatever its coefficient
    for c in (1, 0):
        with pytest.raises(TypeError):
            left.combination([(1, a), (c, b)])


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_combination_of_ints_keeps_int_coefficients(cls):
    key = CASES[cls][0]
    a = cls({key: 3})
    out = cls.combination(iter([(2, a), (0, a), (-5, a)]))
    assert out.terms == {key: -9} and type(out.terms[key]) is int
    assert cls.combination([]).is_zero() and cls.combination([(0, a)]).is_zero()


# one literal of each layout: a term is its coefficient and its non-empty key
# texts joined by "*"; RealPoly terms print in the order of their exponent
# 4-tuples, the others in their keys' natural order
_x, _z = RealPoly.x, PolyFunction.z
_LAYOUTS = [
    (RealPoly(), "0"),
    (RealPoly.constant(3), "3"),
    (RealPoly.constant(Fraction(-1, 2)), "-1/2"),
    (_x(2) * _x(0) * _x(0) * -3 + _x(1) * Fraction(5, 4) - RealPoly.constant(7),
     "-7 + 5/4*x1 + -3*x0^2*x2"),
    (PolyFunction(), "0"),
    (PolyFunction.constant(-2), "-2"),
    (PolyFunction.constant(Fraction(2, 3)), "2/3"),
    (_z(0, 1) * _z(0, 1) * _z(1, 0) * Fraction(-3, 2) + _z(0, 0)
     + PolyFunction.constant(4), "4 + 1*z[0,0] + -3/2*z[0,1]^2z[1,0]"),
    (DiffOperator(), "0"),
    (DiffOperator({((), ()): Fraction(-5, 3)}), "-5/3"),
    (DiffOperator({((), ((0, 1),)): 1}), "1*d[0,1]"),
    (DiffOperator({((), ((0, 0), (1, 0))): -2}), "-2*d[0,0]d[1,0]"),
    (DiffOperator({((((0, 1), 2),), ()): Fraction(1, 3)}), "1/3*z[0,1]^2"),
    (DiffOperator({((((0, 0), 1), ((1, 1), 3)), ((0, 1), (0, 1))): -1,
                   ((), ()): 5,
                   ((((1, 0), 1),), ((1, 1),)): Fraction(-7, 2)}),
     "5 + -1*z[0,0]z[1,1]^3*d[0,1]d[0,1] + -7/2*z[1,0]*d[1,1]"),
]


def test_each_class_prints_the_one_term_layout():
    for value, text in _LAYOUTS:
        assert repr(value) == text


def dense(poly):
    """The terms of a RealPoly keyed by exponent 4-tuples."""
    return {exponents(m): c for m, c in poly.terms.items()}


def test_numbers_are_coerced_where_they_enter():
    assert dense(RealPoly.constant(0.5)) == {(0, 0, 0, 0): Fraction(1, 2)}
    assert type(dense(RealPoly.constant(3))[0, 0, 0, 0]) is int
    assert dense(RealPoly.x(1) * 0.25) == {(0, 1, 0, 0): Fraction(1, 4)}
    assert PolyFunction.constant(2).terms == {(): 2}
    assert type(PolyFunction.constant(2).terms[()]) is int
    assert PolyFunction.constant(0).is_zero()
    assert (PolyFunction.z(0, 0) * 3).terms == {(((0, 0), 1),): 3}
    assert (PolyFunction.z(0, 0) * 0.25).terms == {(((0, 0), 1),): Fraction(1, 4)}
    assert derivative(0, 0).scaled(0).is_zero()
    assert derivative(0, 0).scaled(0.5).terms == {
        ((), ((0, 0),)): Fraction(1, 2)}
    with pytest.raises(TypeError):
        PolyFunction.constant(1j)
    with pytest.raises(TypeError):
        derivative(0, 0).scaled(0.5j)
    with pytest.raises(TypeError):
        RealPoly.constant(1j)
    # integral values enter as ints, whatever their type
    assert type(RealPoly.constant(Fraction(6, 3)).terms[()]) is int
    assert type(PolyFunction.constant(2.0).terms[()]) is int
    assert type(PolyFunction.constant(np.int64(-4)).terms[()]) is int
    assert type(derivative(0, 0).scaled(Fraction(-4, 2)).terms[
        (), ((0, 0),)]) is int


# polynomials of each class over a few symbols with small coefficients
_SYMBOLS = {RealPoly: st.sampled_from(range(4)),
            PolyFunction: st.sampled_from([(0, 0), (0, 1), (1, 0), (2, 3)])}


def _polynomials(cls):
    monomials = st.dictionaries(_SYMBOLS[cls], st.integers(1, 3), max_size=3)
    monomials = monomials.map(lambda m: tuple(sorted(m.items())))
    coefficients = st.one_of(st.integers(-3, 3),
                             st.fractions(-2, 2, max_denominator=3))
    return st.dictionaries(monomials, coefficients, max_size=4).map(cls)


_OTHER = {RealPoly: PolyFunction.z(0, 1), PolyFunction: RealPoly.x(1)}
_RING_CASES = st.sampled_from([RealPoly, PolyFunction]).flatmap(
    lambda cls: st.tuples(_polynomials(cls), _polynomials(cls), _SYMBOLS[cls]))


@settings(max_examples=80)
@given(_RING_CASES)
def test_ring_laws_hold_on_both_polynomial_classes(case):
    f, g, sym = case
    assert (f * g).diff(sym) == f.diff(sym) * g + f * g.diff(sym)
    assert f * g == g * f
    assert 3 * f == f * 3 == f * type(f).constant(3)
    # a combination is the fold of the products by its coefficients, which
    # it reads from an iterator in one pass; a zero coefficient adds nothing
    third = Fraction(-1, 3)
    assert type(f).combination(iter([(2, f), (0, f * g), (third, g)])) == \
        2 * f + g * third
    if not (f.is_zero() or g.is_zero()):
        assert (f * g).degree() == f.degree() + g.degree()
    # as with sums, the two classes do not mix
    other = _OTHER[type(f)]
    with pytest.raises(TypeError):
        f * other
    with pytest.raises(TypeError):
        other * f


# operators over a few keys with small coefficients, so that sums cancel
# and unequal pairs differ in few terms
_OPERATOR_KEYS = st.sampled_from([
    (m, w) for m in ((), (((0, 0), 1),), (((0, 1), 2),),
                     (((0, 0), 1), ((1, 1), 1)))
    for w in ((), ((0, 0),), ((0, 1), (1, 0)))])
_OPERATORS = st.dictionaries(
    _OPERATOR_KEYS,
    st.one_of(st.integers(-2, 2), st.fractions(-1, 1, max_denominator=3)),
    max_size=4).map(DiffOperator)
# an independent pair, a and the equal value (a + c) - c, or a and a
# multiple of a, which holds the same keys
_OPERATOR_PAIRS = st.one_of(
    st.tuples(_OPERATORS, _OPERATORS),
    st.tuples(_OPERATORS, _OPERATORS).map(lambda ac: (ac[0],
                                                      (ac[0] + ac[1]) - ac[1])),
    st.tuples(_OPERATORS, st.sampled_from([1, -1, 2, Fraction(1, 2)])).map(
        lambda ac: (ac[0], ac[0].scaled(ac[1]))))


def _times(c, op):
    """c x op as the multiplication operator c composed on the left."""
    return DiffOperator.multiplication(PolyFunction.constant(c)).compose(op)


@settings(max_examples=60)
@given(_OPERATOR_PAIRS)
def test_operator_equality_agrees_with_subtraction(pair):
    a, b = pair
    assert (a == b) == (a - b).is_zero()
    assert a - b == a + (-b)
    # a combination is the fold of its scaled operators, and of its
    # operators composed with constants on the left
    third = Fraction(-1, 3)
    assert DiffOperator.combination(iter([(2, a), (0, b), (third, b)])) == \
        a.scaled(2) + b.scaled(third) == _times(2, a) + _times(third, b)
