"""The sparse exact sum shared by RealPoly, PolyFunction and DiffOperator,
and the polynomial ring of the first two."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import derivative, from_tuples
from qflag import cli, emfield, sparse
from qflag.emfield import RealPoly, exponents
from qflag.errors import ExponentOverflow, IndexOutOfRange, QflagError, UsageError
from qflag.liealg import DiffOperator, PolyFunction, commutator
from qflag.sparse import MAX_POWER, MAX_SYMBOLS

# one key of each class, a nonzero coefficient and the zero coefficient
CASES = {
    RealPoly: (RealPoly.monomial(((0, 1), (2, 2))), Fraction(3, 2), 0),
    PolyFunction: (PolyFunction.monomial((((0, 1), 2),)), -2, 0),
    DiffOperator: (DiffOperator.key((((0, 1), 1),), ((1, 0),)), Fraction(1, 3),
                   Fraction(0)),
}
# the key of the constant term of each class
CONSTANT = {RealPoly: RealPoly.monomial(()),
            PolyFunction: PolyFunction.monomial(()),
            DiffOperator: DiffOperator.key()}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_zero_coefficients_are_dropped(cls):
    key, c, zero = CASES[cls]
    assert cls({key: zero}).is_zero()
    assert cls({key: zero}).terms == {} == cls().terms
    a = cls({key: c, CONSTANT[cls]: zero})
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
    key = 0
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
    (from_tuples(DiffOperator, {((), ()): Fraction(-5, 3)}), "-5/3"),
    (from_tuples(DiffOperator, {((), ((0, 1),)): 1}), "1*d[0,1]"),
    (from_tuples(DiffOperator, {((), ((0, 0), (1, 0))): -2}), "-2*d[0,0]d[1,0]"),
    (from_tuples(DiffOperator, {((((0, 1), 2),), ()): Fraction(1, 3)}),
     "1/3*z[0,1]^2"),
    (from_tuples(DiffOperator,
                 {((((0, 0), 1), ((1, 1), 3)), ((0, 1), (0, 1))): -1,
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
    one, z00 = PolyFunction.monomial(()), PolyFunction.monomial((((0, 0), 1),))
    assert PolyFunction.constant(2).terms == {one: 2}
    assert type(PolyFunction.constant(2).terms[one]) is int
    assert PolyFunction.constant(0).is_zero()
    assert (PolyFunction.z(0, 0) * 3).terms == {z00: 3}
    assert (PolyFunction.z(0, 0) * 0.25).terms == {z00: Fraction(1, 4)}
    assert derivative(0, 0).scaled(0).is_zero()
    d00 = DiffOperator.key(word=((0, 0),))
    assert derivative(0, 0).scaled(0.5).terms == {d00: Fraction(1, 2)}
    with pytest.raises(TypeError):
        PolyFunction.constant(1j)
    with pytest.raises(TypeError):
        derivative(0, 0).scaled(0.5j)
    with pytest.raises(TypeError):
        RealPoly.constant(1j)
    # integral values enter as ints, whatever their type
    assert type(RealPoly.constant(Fraction(6, 3)).terms[one]) is int
    assert type(PolyFunction.constant(2.0).terms[one]) is int
    assert type(PolyFunction.constant(np.int64(-4)).terms[one]) is int
    assert type(derivative(0, 0).scaled(Fraction(-4, 2)).terms[d00]) is int


# polynomials of each class over a few symbols with small coefficients
_SYMBOLS = {RealPoly: st.sampled_from(range(4)),
            PolyFunction: st.sampled_from([(0, 0), (0, 1), (1, 0), (2, 3)])}


def _tuple_polynomials(cls, symbols):
    """Polynomials of ``cls`` in tuple form: {(symbol, power) pairs sorted
    by symbol: nonzero coefficient}."""
    monomials = st.dictionaries(symbols, st.integers(1, 3), max_size=3)
    monomials = monomials.map(lambda m: tuple(sorted(m.items())))
    coefficients = st.one_of(st.integers(-3, 3),
                             st.fractions(-2, 2, max_denominator=3))
    return st.dictionaries(monomials, coefficients, max_size=4).map(
        lambda terms: {m: c for m, c in terms.items() if c})


def _polynomials(cls):
    return _tuple_polynomials(cls, _SYMBOLS[cls]).map(
        lambda terms: from_tuples(cls, terms))


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
    max_size=4).map(lambda terms: from_tuples(DiffOperator, terms))
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


# -- the packed monomial codec against a tuple-form reference ----------------

def _ref_product(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            powers = dict(m1)
            for sym, p in m2:
                powers[sym] = powers.get(sym, 0) + p
            m = tuple(sorted(powers.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_diff(f, sym):
    out = {}
    for m, c in f.items():
        powers = dict(m)
        p = powers.pop(sym, 0)
        if p:
            if p > 1:
                powers[sym] = p - 1
            out[tuple(sorted(powers.items()))] = c * p
    return out


def _ref_repr(cls, f):
    """The term layout of the tuple-form monomials: RealPoly terms in the
    order of their exponent 4-tuples, PolyFunction terms in the tuples'
    natural order."""
    if cls is RealPoly:
        def order(m):
            return tuple(dict(m).get(axis, 0) for axis in range(4))

        def texts(m):
            return tuple(f"x{i}" + (f"^{p}" if p > 1 else "") for i, p in m)
    else:
        order = None

        def texts(m):
            return ("".join(f"z[{r},{c}]" + (f"^{p}" if p > 1 else "")
                            for (r, c), p in m),)
    return " + ".join("*".join(t for t in (str(f[m]), *texts(m)) if t)
                      for m in sorted(f, key=order)) or "0"


# symbols whose packed fields lie far apart, beside adjacent ones
_WIDE_SYMBOLS = {RealPoly: st.sampled_from(range(4)),
                 PolyFunction: st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1),
                                                (3, 0), (0, 9), (7, 5)])}
_CODEC_CASES = st.sampled_from([RealPoly, PolyFunction]).flatmap(
    lambda cls: st.tuples(st.just(cls),
                          _tuple_polynomials(cls, _WIDE_SYMBOLS[cls]),
                          _tuple_polynomials(cls, _WIDE_SYMBOLS[cls]),
                          _WIDE_SYMBOLS[cls]))


@settings(max_examples=120)
@given(_CODEC_CASES)
def test_packed_ring_equals_the_tuple_form_reference(case):
    cls, f, g, sym = case
    pf, pg = from_tuples(cls, f), from_tuples(cls, g)

    def tuples(value):
        return {cls.powers(m): c for m, c in value.terms.items()}

    assert tuples(pf) == f
    assert tuples(pf * pg) == _ref_product(f, g)
    assert tuples(pf.diff(sym)) == _ref_diff(f, sym)
    assert pf.degree() == max((sum(p for _, p in m) for m in f), default=0)
    assert repr(pf) == _ref_repr(cls, f)
    assert repr(pf * pg) == _ref_repr(cls, _ref_product(f, g))


# -- powers and symbols past the packed fields ------------------------------

def _squared(value, times, square):
    for _ in range(times):
        value = square(value)
    return value


@pytest.mark.parametrize("base", [PolyFunction.z(0, 0), RealPoly.x(0),
                                  PolyFunction.z(7, 5) * PolyFunction.z(0, 0)],
                         ids=["z00", "x0", "z75z00"])
def test_repeated_squaring_past_the_field_raises(base):
    # squaring doubles the degree; the square whose degree would pass
    # MAX_POWER (2^15 - 1) must raise rather than wrap or carry, and the
    # power MAX_POWER itself still packs
    times = MAX_POWER.bit_length() - base.degree().bit_length()
    top = _squared(base, times, lambda f: f * f)
    assert top.degree() == base.degree() << times <= MAX_POWER
    with pytest.raises(ExponentOverflow):
        top * top
    cls = type(base)
    sym = cls.powers(next(iter(base.terms)))[0][0]
    assert cls({cls.monomial(((sym, MAX_POWER),)): 1}).degree() == MAX_POWER
    with pytest.raises(ExponentOverflow):
        cls.monomial(((sym, MAX_POWER + 1),))
    with pytest.raises(ExponentOverflow):
        cls.monomial(((sym, MAX_POWER), (sym, 1)))
    with pytest.raises(ExponentOverflow):
        cls({cls.monomial(((sym, MAX_POWER),)): 1}) * base


def test_repeated_word_squaring_past_the_field_raises():
    d = _squared(derivative(0, 0), 14, lambda op: op.compose(op))
    assert d.order() == 1 << 14 and len(d.terms) == 1
    with pytest.raises(ExponentOverflow):
        d.compose(d)
    # a coefficient monomial past its field, through compose and through
    # the Leibniz cross terms of a commutator (none cancels here)
    s, t = (0, 0), (1, 1)
    z = DiffOperator.multiplication(_squared(PolyFunction.z(*s), 14,
                                             lambda f: f * f))
    with pytest.raises(ExponentOverflow):
        z.compose(z)
    a = from_tuples(DiffOperator, {(((s, MAX_POWER),), (t,)): 1})
    b = from_tuples(DiffOperator, {(((s, 1), (t, 1)), (s,)): 1})
    with pytest.raises(ExponentOverflow):
        commutator(a, b)
    with pytest.raises(ExponentOverflow):
        DiffOperator.key(word=[s] * (MAX_POWER + 1))


def test_overflow_is_a_domain_error_through_the_cli(monkeypatch, capsys):
    assert issubclass(ExponentOverflow, QflagError)
    assert not issubclass(ExponentOverflow, UsageError)
    # em's degree ceiling keeps its own products far below the field, so a
    # decomposition that squares a high power stands in for one that could
    monkeypatch.setattr(emfield, "decompose",
                        lambda psi: psi.components[1] * psi.components[1])
    monkeypatch.setattr(cli, "parse_field_spec", lambda spec: emfield.QPolyField(
        (RealPoly(), RealPoly({RealPoly.monomial(((1, 1 << 14),)): 1}),
         RealPoly(), RealPoly())))
    assert cli.main(["em", "A1=x1"]) == 3
    assert str(MAX_POWER) in capsys.readouterr().err


def test_symbols_past_the_fields_raise_index_out_of_range():
    sparse.unit(MAX_SYMBOLS - 1)
    for index in (-1, MAX_SYMBOLS, 10 ** 6):
        with pytest.raises(IndexOutOfRange):
            sparse.unit(index)
    # (row, col) packs at its Cantor pairing, which passes the last field
    # at row + col = 90
    PolyFunction.z(0, 89)
    # each case's J image (its block mate) lies outside the fields too
    for row, col in ((0, 91), (91, 0), (46, 46), (-1, 0), (0, -1)):
        with pytest.raises(IndexOutOfRange):
            PolyFunction.z(row, col)
        with pytest.raises(IndexOutOfRange):
            PolyFunction.zbar(row, col)
        with pytest.raises(IndexOutOfRange):
            DiffOperator.dbar(row, col)
    for axis in (-1, 4):
        with pytest.raises(IndexOutOfRange):
            RealPoly.x(axis)
        with pytest.raises(IndexOutOfRange):
            RealPoly.x(0).diff(axis)
