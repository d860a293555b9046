"""The sparse exact sum shared by RealPoly, PolyFunction and DiffOperator."""

from fractions import Fraction

import pytest

from qflag.emfield import RealPoly
from qflag.liealg import ONE, ZERO, CRat, DiffOperator, PolyFunction

# one key of each class, a nonzero coefficient and the zero coefficient
CASES = {
    RealPoly: ((1, 0, 2, 0), Fraction(3, 2), 0),
    PolyFunction: ((((0, 1), 2),), CRat(2, -1), ZERO),
    DiffOperator: (((((0, 1), 1),), ((1, 0),)), CRat(Fraction(1, 3), 1), ZERO),
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
    poly = PolyFunction({key: ONE})
    op = DiffOperator({key: ONE})
    real = RealPoly({key: 1})
    assert poly.terms == op.terms
    assert poly != op and op != poly
    assert poly != real and op != real


def test_numbers_are_coerced_where_they_enter():
    assert RealPoly.constant(0.5).terms == {(0, 0, 0, 0): Fraction(1, 2)}
    assert type(RealPoly.constant(3).terms[0, 0, 0, 0]) is int
    assert (RealPoly.x(1) * 0.25).terms == {(0, 1, 0, 0): Fraction(1, 4)}
    assert PolyFunction.constant(2).terms == {(): CRat(2, 0)}
    assert PolyFunction.constant(0).is_zero()
    assert (PolyFunction.z(0, 0) * 3).terms == {(((0, 0), 1),): CRat(3, 0)}
    assert DiffOperator.d(0, 0).scaled(0).is_zero()
    assert DiffOperator.d(0, 0).scaled(0.5j).terms == {
        ((), ((0, 0),)): CRat(0, Fraction(1, 2))}
