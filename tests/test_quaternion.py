import itertools
import math

import numpy as np
import pytest

from conftest import quat_close
from qflag.dynamics import StateVector
from qflag.errors import DimensionMismatch, MalformedM2C, NotUnitQuaternion
from qflag.forms import hodge_star, wedge
from qflag.quaternion import (HURWITZ_UNITS, MUL_TABLE, E, I, J, K,
                              Quaternion, from_m2c, j_conjugate,
                              random_quaternion, random_unit_quaternion,
                              random_unit_quaternions, require_unit,
                              sq_norms, to_m2c)
from qflag.quatmat import QuatMatrix

rng = np.random.default_rng(101)


def test_basis_rules():
    assert quat_close(I * J, K)
    assert quat_close(J * K, I)
    assert quat_close(K * I, J)
    for b in (I, J, K):
        assert quat_close(b * b, -E)


def test_mul_table_matches_the_basis_rules_written_out():
    # independent oracle: the sign list the table was once written as
    expected = np.zeros((4, 4, 4))
    for p in range(4):
        expected[0, p, p] = 1.0
        expected[p, 0, p] = 1.0
    for p, q, sign, r in [
        (1, 1, -1.0, 0), (2, 2, -1.0, 0), (3, 3, -1.0, 0),
        (1, 2, 1.0, 3), (2, 1, -1.0, 3),
        (2, 3, 1.0, 1), (3, 2, -1.0, 1),
        (3, 1, 1.0, 2), (1, 3, -1.0, 2),
    ]:
        expected[p, q, r] = sign
    assert np.array_equal(MUL_TABLE, expected)
    assert not np.signbit(MUL_TABLE[MUL_TABLE == 0.0]).any()


def test_identity_element():
    for _ in range(50):
        q = random_quaternion(rng)
        assert quat_close(E * q, q)
        assert quat_close(q * E, q)


def test_product_against_scalar_vector_formula():
    # independent oracle: vw = (v0 w0 - v.w) + (v0 w + w0 v + v x w)
    for _ in range(500):
        v = random_quaternion(rng)
        w = random_quaternion(rng)
        vv, wv = v.to_array()[1:], w.to_array()[1:]
        scalar = v.w * w.w - float(vv @ wv)
        vector = v.w * wv + w.w * vv + np.cross(vv, wv)
        assert quat_close(v * w, Quaternion(scalar, *vector), 1e-12)
    # the worked example (1+i)(1+j) = 1 + i + j + k
    assert quat_close(((E + I) * (E + J)), E + I + J + K)


def test_conjugation():
    assert quat_close(E.conj(), E)
    q = Quaternion(1.5, -2.0, 0.25, 4.0)
    assert quat_close(q.conj(), Quaternion(1.5, 2.0, -0.25, -4.0))
    # anti-homomorphism via direct multiplication
    assert quat_close((I * J).conj(), J.conj() * I.conj())
    for _ in range(1000):
        a, b = random_quaternion(rng), random_quaternion(rng)
        assert ((a * b).conj() - b.conj() * a.conj()).norm() < 1e-13


def test_norm_properties():
    assert Quaternion().norm_sq() == 0.0
    assert (E + I + J + K).norm_sq() == pytest.approx(4.0)
    for _ in range(1000):
        q = random_quaternion(rng)
        assert quat_close((q * q.conj()), Quaternion(q.norm_sq()), 1e-12)
        assert quat_close((q.conj() * q), Quaternion(q.norm_sq()), 1e-12)
    for _ in range(1000):
        a, b = random_quaternion(rng), random_quaternion(rng)
        lhs = (a * b).norm_sq()
        rhs = a.norm_sq() * b.norm_sq()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_norm_equals_embedding_determinant():
    for _ in range(1000):
        q = random_quaternion(rng)
        det = np.linalg.det(to_m2c(q))
        assert abs(det.real - q.norm_sq()) < 1e-12 * max(1.0, q.norm_sq())
        assert abs(det.imag) < 1e-12


def embed_entries(q):
    """:meth:`QuatMatrix.embed` of a ``(..., 4)`` array read as a stack of
    1x1 matrices: a ``(..., 2, 2)`` array of the entries' images."""
    return QuatMatrix(np.asarray(q)[..., None, None, :]).embed()


def test_m2c_values():
    np.testing.assert_allclose(to_m2c(I), np.array([[0, 1], [-1, 0]]), atol=0)
    np.testing.assert_allclose(to_m2c(E), np.eye(2), atol=0)
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    m = to_m2c(q)
    assert m[0, 0] == 1 + 4j and m[0, 1] == 2 + 3j
    assert m[1, 0] == -(2 - 3j) and m[1, 1] == 1 - 4j
    # a stack of 1x1 matrices: every block holds the same literal entries
    qs = np.array([[1.0, 2.0, 3.0, 4.0], [-1.0, -2.0, -3.0, -4.0]])
    blocks = embed_entries(np.stack([qs, 2.0 * qs, qs]))
    assert blocks.shape == (3, 2, 2, 2)
    for idx in np.ndindex(3, 2):
        s = (2.0 if idx[0] == 1 else 1.0) * (1.0 if idx[1] == 0 else -1.0)
        assert np.array_equal(blocks[idx], s * np.array([[1 + 4j, 2 + 3j],
                                                         [-2 + 3j, 1 - 4j]]))


def _m2c_four_entries(q):
    """Oracle: the image written out entry by entry."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = (q[..., c] for c in range(4))
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = w + 1j * z
    out[..., 0, 1] = x + 1j * y
    out[..., 1, 0] = -x + 1j * y
    out[..., 1, 1] = w - 1j * z
    return out


@pytest.mark.parametrize("shape", [(4,), (1000, 4), (50, 3, 3, 4), (0, 4)])
def test_m2c_blocks_equal_the_four_entry_formula(shape):
    q = rng.normal(size=shape)
    got, expect = embed_entries(q), _m2c_four_entries(q)
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got.view(float)),
                          np.signbit(expect.view(float)))


def test_m2c_homomorphism_and_round_trip():
    for _ in range(1000):
        a, b = random_quaternion(rng), random_quaternion(rng)
        assert np.abs(to_m2c(a * b) - to_m2c(a) @ to_m2c(b)).max() < 1e-12
        assert from_m2c(to_m2c(a)) == a   # bit-exact


def test_from_m2c_rejects_malformed():
    bad = np.array([[1.0 + 0j, 2.0], [3.0, 4.0]])
    with pytest.raises(MalformedM2C):
        from_m2c(bad)
    with pytest.raises(MalformedM2C):
        from_m2c(np.eye(3))


@pytest.mark.parametrize("block", [[[1.0, 0.0], [0.0, np.nan]],
                                   [[np.inf, 0.0], [0.0, 1.0]],
                                   [[np.nan, 0.0], [0.0, np.nan]]])
def test_from_m2c_rejects_non_finite(block):
    # NaN fails every comparison and inf meets an infinite scale, so only a
    # finiteness test refuses all three, as QuatMatrix.project does
    with pytest.raises(MalformedM2C):
        from_m2c(np.array(block, dtype=complex))


def test_from_m2c_is_the_one_block_case_of_project():
    from qflag.quatmat import QuatMatrix

    def projected(m):
        return Quaternion.from_array(QuatMatrix.project(m).a[0, 0])

    local = np.random.default_rng(35)
    for _ in range(200):
        m = to_m2c(random_quaternion(local))
        got = from_m2c(m)
        assert np.array_equal(got.to_array(), projected(m).to_array())
    m = to_m2c(Quaternion(1.0, 2.0, 3.0, 4.0))
    near = m.copy()
    near[1, 1] += 1e-10
    # project averages the two entries that carry w: 1 + 5e-11
    assert from_m2c(near) == projected(near)
    assert quat_close(from_m2c(near), Quaternion(1.0, 2.0, 3.0, 4.0), 1e-10)
    far = m.copy()
    far[1, 1] += 1e-8 * np.abs(m).max()
    with pytest.raises(MalformedM2C):
        from_m2c(far)
    with pytest.raises(MalformedM2C):
        projected(far)


def test_j_conjugate():
    assert np.abs(j_conjugate(to_m2c(E)) - np.eye(2)).max() == 0
    for _ in range(1000):
        m = to_m2c(random_quaternion(rng))
        assert np.abs(j_conjugate(m) - m.conj()).max() < 1e-13
        assert np.abs(j_conjugate(j_conjugate(m)) - m).max() < 1e-13


def test_unit_sampling_and_gate():
    units = []
    for _ in range(200):
        u = random_unit_quaternion(rng)
        assert abs(u.norm_sq() - 1.0) < 1e-12
        units.append(u.to_array())
    units = np.array(units)
    assert np.array_equal(require_unit(units), units)
    assert np.array_equal(sq_norms(units),
                          [Quaternion.from_array(u).norm_sq() for u in units])
    with pytest.raises(NotUnitQuaternion):
        require_unit(Quaternion(2.0).to_array())
    units[17, 2] += 1e-6
    with pytest.raises(NotUnitQuaternion):
        require_unit(units.reshape(20, 10, 4))


@pytest.mark.parametrize("entry, layout", [
    (QuatMatrix, "(..., rows, cols, 4)"),
    (lambda a: StateVector(a, 0), "(..., n, 4)"),
    (lambda a: wedge(a, np.eye(4)), "(..., dim, 4)"),
    (lambda a: wedge(np.eye(4), a), "(..., dim, 4)"),
    (hodge_star, "(..., dim, dim, 4)"),
    (require_unit, "(..., 4)"),
], ids=["QuatMatrix", "StateVector", "wedge-left", "wedge-right",
        "hodge_star", "require_unit"])
@pytest.mark.parametrize("bad", ["last-axis-3", "too-few-axes"])
def test_every_quaternion_array_entry_has_one_shape_gate(entry, layout, bad):
    axes = layout.count(",")
    shape = {"last-axis-3": (2,) * (axes - 1) + (3,),
             "too-few-axes": (4,) * (axes - 1)}[bad]
    with pytest.raises(DimensionMismatch) as info:
        entry(np.zeros(shape))
    assert str(info.value) == f"expected shape {layout}, got {shape}"


def test_unit_sampler_reads_one_block():
    # the batch sampler and the single draw read the same stream
    batch = random_unit_quaternions(np.random.default_rng(12), 50)
    local = np.random.default_rng(12)
    singles = [random_unit_quaternion(local).to_array() for _ in range(50)]
    assert batch.shape == (50, 4)
    assert np.array_equal(batch, singles)
    assert np.abs(sq_norms(batch) - 1.0).max() < 1e-15
    gauss = np.random.default_rng(12).standard_normal((50, 4))
    assert np.array_equal(np.sign(batch), np.sign(gauss))


def _sphere_moment(powers):
    """Haar average of prod_c q_c^(a_c) on S^3, by the Gamma closed form."""
    if any(a % 2 for a in powers):
        return 0.0
    return (1.0 / math.gamma(2.0 + sum(powers) / 2.0)
            * math.prod(math.gamma((a + 1) / 2.0) / math.sqrt(math.pi)
                        for a in powers))


def test_hurwitz_units_form_a_group():
    members = {tuple(u) for u in HURWITZ_UNITS}
    assert HURWITZ_UNITS.shape == (24, 4) and len(members) == 24
    assert np.array_equal(sq_norms(HURWITZ_UNITS), np.ones(24))
    products = np.einsum("ap,bq,pqr->abr", HURWITZ_UNITS, HURWITZ_UNITS,
                         MUL_TABLE)
    assert {tuple(p) for p in products.reshape(-1, 4)} == members


def test_hurwitz_units_are_a_5_design():
    worst = [0.0] * 7
    for powers in itertools.product(range(7), repeat=4):
        degree = sum(powers)
        if degree > 6:
            continue
        mean = np.prod(HURWITZ_UNITS ** np.array(powers), axis=1).mean()
        worst[degree] = max(worst[degree], abs(mean - _sphere_moment(powers)))
    assert max(worst[:6]) < 1e-15     # exact through degree 5
    assert worst[6] > 1e-3            # and not at degree 6
