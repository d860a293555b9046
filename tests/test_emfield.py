import itertools

import numpy as np

from conftest import quat_close
from qflag.emfield import (QPolyField, RealPoly, apply_pstar, decompose,
                           exponents, quaternion_product_identity,
                           random_field)
from qflag.quaternion import Quaternion, I, J

rng = np.random.default_rng(606)

X0, X1, X2, X3 = (RealPoly.x(i) for i in range(4))


def test_polynomial_arithmetic():
    p = (X1 + RealPoly.constant(2)) * (X1 - RealPoly.constant(2))
    assert p == X1 * X1 - RealPoly.constant(4)
    assert p.diff(1) == X1 * 2
    assert p.diff(0).is_zero()
    assert (X0 * X3).degree() == 2


def test_pstar_zero_field():
    zero = QPolyField((RealPoly(),) * 4)
    assert apply_pstar(zero) == zero


def test_pstar_hand_cases():
    # psi = x1 i: the only term is i d1 (x1 i) = i i = -e
    out = apply_pstar(QPolyField.from_component(1, X1))
    assert out.components[0] == RealPoly.constant(-1)
    assert all(out.components[i].is_zero() for i in (1, 2, 3))
    # psi = x3 e: k d3 (x3 e) = k
    out = apply_pstar(QPolyField.from_component(0, X3))
    assert out.components[3] == RealPoly.constant(1)
    assert out.components[0].is_zero()


def test_pstar_linearity():
    for _ in range(50):
        a = random_field(rng)
        b = random_field(rng)
        assert apply_pstar(a + b) == apply_pstar(a) + apply_pstar(b)


def test_decompose_constant_field():
    psi = QPolyField((RealPoly.constant(3), RealPoly.constant(-1),
                      RealPoly.constant(2), RealPoly.constant(5)))
    dec = decompose(psi)
    assert dec.scalar.is_zero()
    assert all(p.is_zero() for p in dec.electric)
    assert all(p.is_zero() for p in dec.magnetic)


def test_decompose_curl_example():
    # A = (-x2, x1, 0): B = curl A = (0, 0, 2), E = 0
    psi = QPolyField((RealPoly(), -X2, X1, RealPoly()))
    dec = decompose(psi)
    assert dec.magnetic[2] == RealPoly.constant(2)
    assert dec.magnetic[0].is_zero() and dec.magnetic[1].is_zero()
    assert all(p.is_zero() for p in dec.electric)


def test_decompose_gradient_example():
    # A0 = x0 x3: E = -grad A0 - A,0 = (0, 0, -x0), scalar = A0,0 = x3
    psi = QPolyField.from_component(0, X0 * X3)
    dec = decompose(psi)
    assert dec.scalar == X3
    assert dec.electric[2] == -X0
    assert dec.electric[0].is_zero() and dec.electric[1].is_zero()
    assert all(p.is_zero() for p in dec.magnetic)


def test_decomposition_identity_exact_on_random_fields():
    # scalar = A0,0 - div A and vector = -E + B as exact coefficient equality
    for _ in range(100):
        psi = random_field(rng, max_degree=3)
        dec = decompose(psi)            # asserts the identity internally
        image = apply_pstar(psi)
        assert image.components[0] == dec.scalar
        for axis in range(3):
            assert image.components[axis + 1] == \
                dec.magnetic[axis] - dec.electric[axis]


def test_random_field_support_and_range():
    # exponents of total degree <= 3 (all 35 of them reached), integer
    # coefficients within the range; repeated exponents add up
    r = np.random.default_rng(11)
    cubic = {e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3}
    assert len(cubic) == 35
    seen, coeffs = set(), set()
    for _ in range(100):
        psi = random_field(r, max_degree=3, terms=1)
        for comp in psi.components:
            assert comp.degree() <= 3 and len(comp.terms) <= 1
            seen.update(exponents(m) for m in comp.terms)
            coeffs.update(comp.terms.values())
    assert seen == cubic
    assert coeffs == set(range(-5, 6)) - {0}
    assert all(type(c) is int for c in coeffs)
    for _ in range(50):
        psi = random_field(r, max_degree=2, terms=6)
        for comp in psi.components:
            assert comp.degree() <= 2 and len(comp.terms) <= 6
            assert all(0 < abs(c) <= 6 * 5 for c in comp.terms.values())


def test_random_field_is_keyed_by_the_seed():
    a = random_field(np.random.default_rng(9), max_degree=5, terms=6)
    b = random_field(np.random.default_rng(9), max_degree=5, terms=6)
    assert a == b
    assert a != random_field(np.random.default_rng(10), max_degree=5, terms=6)


def test_scalar_term_is_present_not_zero():
    # the scalar channel is genuinely nonzero for generic potentials
    psi = QPolyField.from_component(0, X0)
    dec = decompose(psi)
    assert dec.scalar == RealPoly.constant(1)


def test_product_identity():
    # pure vectors: i j has scalar -v.w = 0 and cross k
    assert quaternion_product_identity(I.to_array(), J.to_array()) < 1e-15
    v = Quaternion(0, 1.0, 2.0, -1.0)
    assert quaternion_product_identity(v.to_array(), v.to_array()) < 1e-15
    assert quat_close(v * v, Quaternion(-v.norm_sq()))
    pairs = rng.normal(0.0, 1.0, (10_000, 2, 4))
    assert quaternion_product_identity(pairs[:, 0], pairs[:, 1]) < 1e-13
    # the worst residual is numpy's scalar, for one pair and for a batch
    assert type(quaternion_product_identity(v.to_array(),
                                            v.to_array())) is np.float64
    assert type(quaternion_product_identity(pairs[:, 0],
                                            pairs[:, 1])) is np.float64
