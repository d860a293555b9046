import math
import warnings

import numpy as np
import pytest

from conftest import mat_close, quat_close, real_matrix, same_bits
from qflag import config
from qflag.errors import (DimensionMismatch, MalformedM2C, NonFiniteMatrix,
                          NonSquare, NotGroupElement, NotHyperHermitian,
                          SingularInvSqrt, SingularMatrix)
from qflag.quaternion import BASIS, I, J, K, Quaternion
from qflag.quatmat import (GroupElement, QuatMatrix, _inverses, block_matrix,
                           eigvals_hyperhermitian, expm, func_hermitian,
                           interleave_to_block_permutation,
                           random_group_element, random_quatmat,
                           random_skew_adjoint, sp2nc_form, to_sp2nc)

rng = np.random.default_rng(202)


def series_exp(m: QuatMatrix, order: int = 36) -> QuatMatrix:
    """Independent oracle: scaled power series at double the library order."""
    norm1 = float(np.linalg.norm(m.embed(), 1))
    squarings = max(0, int(np.ceil(np.log2(max(norm1, 1e-30) / 0.25))))
    scaled = m * (0.5 ** squarings)
    acc = QuatMatrix.identity(m.rows)
    term = QuatMatrix.identity(m.rows)
    for k in range(1, order + 1):
        term = (term @ scaled) * (1.0 / k)
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def test_matmul_identity_and_scalar_case():
    m = random_quatmat(rng, 3, 3)
    assert mat_close(QuatMatrix.identity(3) @ m, m)
    prod = QuatMatrix([[I.to_array()]]) @ QuatMatrix([[J.to_array()]])
    assert quat_close(Quaternion.from_array(prod.a[0, 0]), K)


def test_matmul_against_complex_embedding():
    for _ in range(500):
        a = random_quatmat(rng, 3, 4)
        b = random_quatmat(rng, 4, 2)
        direct = (a @ b).embed()
        oracle = a.embed() @ b.embed()
        assert np.abs(direct - oracle).max() < 1e-11


# the kernel tests draw from their own stream, leaving the draws of the
# tests below as they were
kernel_rng = np.random.default_rng(404)


def assert_matches_embedding(a: QuatMatrix, b: QuatMatrix):
    """The product against the complex-embedding oracle, relative 1e-11."""
    prod = a @ b
    assert prod.a.shape == (a.rows, b.cols, 4)
    oracle = a.embed() @ b.embed()
    scale = max(1.0, float(np.abs(oracle).max())) if oracle.size else 1.0
    assert np.abs(prod.embed() - oracle).max(initial=0.0) <= 1e-11 * scale


def test_matmul_basis_pairs_match_scalar_product():
    for p in BASIS:
        for q in BASIS:
            prod = QuatMatrix([[p.to_array()]]) @ QuatMatrix([[q.to_array()]])
            assert prod.a.shape == (1, 1, 4)
            assert Quaternion.from_array(prod.a[0, 0]) == p * q


def test_matmul_rectangular_and_empty_shapes():
    for rows, inner, cols in ((1, 5, 1), (5, 1, 5), (2, 7, 3), (6, 2, 1),
                              (0, 3, 5), (2, 0, 4), (3, 4, 0), (0, 0, 0)):
        assert_matches_embedding(random_quatmat(kernel_rng, rows, inner),
                                 random_quatmat(kernel_rng, inner, cols))
    # an empty inner dimension sums nothing
    empty_sum = random_quatmat(kernel_rng, 2, 0) @ random_quatmat(kernel_rng, 0, 4)
    assert empty_sum.shape == (2, 4) and not empty_sum.a.any()


def test_max_abs_is_numpys_scalar_over_the_whole_batch():
    m = QuatMatrix(np.arange(24.0).reshape(2, 1, 3, 4) - 20.0)
    for mat, want in ((m, 20.0), (QuatMatrix(m.a[1]), 8.0),
                      (QuatMatrix.zeros(0, 3), 0.0),
                      (QuatMatrix(np.zeros((2, 0, 0, 4))), 0.0)):
        got = mat.max_abs()
        assert type(got) is np.float64 and got == want


def test_matmul_non_contiguous_operands():
    g = random_group_element(kernel_rng, 5)
    a, b, c, d = g.m.blocks(2, 3)
    assert not any(blk.a.flags.c_contiguous for blk in (a, b, c, d))
    for left, right in ((a, b), (b, d), (c, a), (d, c)):
        assert_matches_embedding(left, right)
    m = random_quatmat(kernel_rng, 4, 3)
    transposed = QuatMatrix(m.a.transpose(1, 0, 2))
    assert not transposed.a.flags.c_contiguous
    assert_matches_embedding(transposed, m)
    assert_matches_embedding(m, transposed)
    strided = QuatMatrix(random_quatmat(kernel_rng, 6, 6).a[::2, 1::2])
    assert_matches_embedding(strided, strided)


def test_matmul_large():
    assert_matches_embedding(random_quatmat(kernel_rng, 64, 64),
                             random_quatmat(kernel_rng, 64, 64))


def test_matmul_dimension_gate():
    with pytest.raises(DimensionMismatch):
        random_quatmat(rng, 2, 3) @ random_quatmat(rng, 2, 3)


def test_sum_and_difference_need_one_matrix_shape():
    # a 1x1 operand is not stretched along the matrix axes
    for x, y in ((QuatMatrix.identity(2), QuatMatrix.identity(1)),
                 (QuatMatrix.identity(1), QuatMatrix.identity(2))):
        with pytest.raises(DimensionMismatch):
            x + y
        with pytest.raises(DimensionMismatch):
            x - y
    # batch axes still broadcast, and batches that do not broadcast fail
    batch = QuatMatrix(np.random.default_rng(31).normal(size=(3, 2, 2, 4)))
    single = QuatMatrix.identity(2)
    assert np.array_equal((batch + single).a, batch.a + single.a)
    assert np.array_equal((single - batch).a, single.a - batch.a)
    with pytest.raises(DimensionMismatch):
        batch + QuatMatrix(np.zeros((4, 2, 2, 4)))


def test_scaling_by_an_array_that_does_not_broadcast_fails():
    batch = QuatMatrix(np.zeros((3, 2, 2, 4)))
    assert (batch * np.ones((2, 3))).batch == (2, 3)
    with pytest.raises(DimensionMismatch):
        batch * np.ones(5)
    with pytest.raises(DimensionMismatch):
        batch * np.ones((3, 2))


def test_an_array_on_the_left_reaches_the_matrix_operators():
    m = QuatMatrix(np.random.default_rng(32).normal(size=(3, 2, 2, 4)))
    scale = np.array([1.0, -2.0, 0.5])
    # a conforming array scales the batch, as on the right
    left = scale * m
    assert isinstance(left, QuatMatrix)
    assert np.array_equal(left.a, (m * scale).a)
    assert np.array_equal(left.a, m.a * scale[:, None, None, None])
    with pytest.raises(DimensionMismatch):
        np.ones((2, 5)) * m
    with pytest.raises(TypeError):
        np.ones((3, 2, 2, 4)) + m


def test_adjoint():
    q = Quaternion(1.0, 2.0, -1.0, 0.5)
    single = QuatMatrix([[q.to_array()]])
    assert quat_close(Quaternion.from_array(single.adjoint().a[0, 0]), q.conj())
    assert mat_close(QuatMatrix.identity(4).adjoint(), QuatMatrix.identity(4))
    for _ in range(500):
        a = random_quatmat(rng, 3, 2)
        b = random_quatmat(rng, 2, 4)
        lhs = (a @ b).adjoint()
        rhs = b.adjoint() @ a.adjoint()
        assert (lhs - rhs).max_abs() < 1e-12
        assert mat_close(a.adjoint().adjoint(), a)


def test_embedding_projection_round_trip():
    for _ in range(100):
        a = random_quatmat(rng, 3, 2)
        assert mat_close(QuatMatrix.project(a.embed()), a, 1e-14)
    with pytest.raises(MalformedM2C):
        QuatMatrix.project(np.arange(16.0).reshape(4, 4) + 0j)


def test_embedding_block_almost_complex_structure():
    # J' E J = conj(E) with J = 1 (x) j, blockwise for any shape
    jblock = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for _ in range(100):
        a = random_quatmat(rng, 3, 2)
        emb = a.embed()
        j_left = np.kron(np.eye(3), jblock)
        j_right = np.kron(np.eye(2), jblock)
        assert np.abs(j_left.T @ emb @ j_right - emb.conj()).max() < 1e-14


def test_exp_zero_and_block_trig():
    assert mat_close(expm(QuatMatrix.zeros(2, 2)), QuatMatrix.identity(2))
    t = 1.3
    gen = real_matrix([[0.0, t], [-t, 0.0]])
    got = expm(gen)
    expect = real_matrix([[math.cos(t), math.sin(t)],
                          [-math.sin(t), math.cos(t)]])
    assert (got - expect).max_abs() < 1e-13


def test_exp_inverse_and_oracle():
    for _ in range(200):
        gen = random_skew_adjoint(rng, 3)
        assert (expm(gen) @ expm(-gen)
                - QuatMatrix.identity(3)).max_abs() < 1e-10
        assert (expm(gen) - series_exp(gen)).max_abs() < 1e-12


def test_single_exponential_equals_the_batch_of_one():
    local = np.random.default_rng(32)
    for n in (1, 2, 3, 4, 8):
        gen = random_skew_adjoint(local, n)
        one = expm(QuatMatrix(gen.a[None]))
        assert one.batch == (1,)
        assert np.array_equal(expm(gen).a, one.a[0])


def test_exp_group_membership_across_scales():
    gen = random_skew_adjoint(rng, 3)
    for t in (0.1, 1.0, 10.0):
        GroupElement(expm(gen * t))
    with pytest.raises(NonSquare):
        expm(random_quatmat(rng, 2, 3))


def test_eigvals_identity_and_psd():
    assert np.allclose(eigvals_hyperhermitian(QuatMatrix.identity(3)),
                       [1.0, 1.0, 1.0])
    for _ in range(200):
        q = random_quatmat(rng, 2, 3)
        evs = eigvals_hyperhermitian(q @ q.adjoint())
        assert evs.min() >= -1e-12
        # Rayleigh-quotient oracle for positive semidefiniteness
        emb = (q @ q.adjoint()).embed()
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rayleigh = (v.conj() @ emb @ v).real / (v.conj() @ v).real
        assert rayleigh >= -1e-12
        assert evs.min() - 1e-9 <= rayleigh <= evs.max() + 1e-9


def test_eigvals_pairing_of_embedding():
    for _ in range(100):
        q = random_quatmat(rng, 3, 3)
        p = q @ q.adjoint()
        lam = np.linalg.eigvalsh(p.embed())
        assert np.abs(lam[0::2] - lam[1::2]).max() < 1e-9 * max(1.0, lam.max())


def test_eigvals_rejects_non_hermitian():
    with pytest.raises(NotHyperHermitian):
        eigvals_hyperhermitian(random_quatmat(rng, 3, 3))


def test_eigvals_pairing_gate(monkeypatch):
    from qflag import config
    from qflag.errors import PairingFailure
    q = random_quatmat(rng, 3, 3)
    p = q @ q.adjoint()
    # a zero pairing tolerance trips on the solver's rounding noise
    monkeypatch.setattr(config, "PAIRING_REL", 0.0)
    with pytest.raises(PairingFailure):
        eigvals_hyperhermitian(p)


def test_func_hermitian():
    assert mat_close(func_hermitian(QuatMatrix.zeros(2, 2), "sinc_sqrt"),
                     QuatMatrix.identity(2))
    # scalar case: sinc_sqrt of t^2 gives sin(t)/t
    t = 0.73
    p = real_matrix([[t * t]])
    got = func_hermitian(p, "sinc_sqrt").a[0, 0, 0]
    assert abs(got - math.sin(t) / t) < 1e-14
    # a negative eigenvalue -t^2 gives sinh(t)/t
    for t in (0.5, 3.0):
        want = math.sinh(t) / t
        got = func_hermitian(real_matrix([[-t * t]]), "sinc_sqrt").a[0, 0, 0]
        assert abs(got - want) <= 1e-14 * want
    # near zero, of either sign, it follows the first terms of its series
    for lam in (1e-12, -1e-12, 0.0):
        got = func_hermitian(real_matrix([[lam]]), "sinc_sqrt").a[0, 0, 0]
        assert abs(got - (1 - lam / 6)) <= 1e-15
    for _ in range(200):
        q = random_quatmat(rng, 3, 3)
        p = q @ q.adjoint()
        r = func_hermitian(p, "sqrt")
        assert (r @ r - p).max_abs() < 1e-9 * max(1.0, p.max_abs())
        inv_root = func_hermitian(p + QuatMatrix.identity(3), "invsqrt")
        check = inv_root @ (p + QuatMatrix.identity(3)) @ inv_root
        assert (check - QuatMatrix.identity(3)).max_abs() < 1e-9


def test_func_hermitian_small_argument_series():
    # sinc_sqrt agrees with its truncated power series for small norms
    q = random_quatmat(rng, 2, 2, 0.05)
    p = q @ q.adjoint()
    series = (QuatMatrix.identity(2) - p * (1.0 / 6.0)
              + (p @ p) * (1.0 / 120.0) - (p @ p @ p) * (1.0 / 5040.0))
    assert (func_hermitian(p, "sinc_sqrt") - series).max_abs() < 1e-9


def test_func_hermitian_gates():
    singular = QuatMatrix.zeros(2, 2)
    with pytest.raises(SingularInvSqrt):
        func_hermitian(singular, "invsqrt")
    with pytest.raises(NotHyperHermitian):
        func_hermitian(random_quatmat(rng, 2, 2), "sqrt")
    with pytest.raises(ValueError):
        func_hermitian(QuatMatrix.identity(2), "nope")


def test_group_element_gate_and_inverse():
    g = random_group_element(rng, 3)
    assert mat_close(g.m.adjoint() @ g.m, QuatMatrix.identity(3), 1e-10)
    with pytest.raises(NotGroupElement):
        GroupElement(random_quatmat(rng, 3, 3))


def test_unit_determinant_of_group_embedding():
    for _ in range(100):
        g = random_group_element(rng, 3)
        assert abs(abs(np.linalg.det(g.m.embed())) - 1.0) < 1e-9


def test_permutation_carries_structure():
    n = 3
    perm = interleave_to_block_permutation(n)
    jn = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.abs(perm @ jn @ perm.T - sp2nc_form(n)).max() == 0.0


def test_sp2nc_identity_and_conditions():
    eye = GroupElement(QuatMatrix.identity(2))
    assert np.abs(to_sp2nc(eye) - np.eye(4)).max() == 0.0
    form = sp2nc_form(2)
    for _ in range(200):
        g = random_group_element(rng, 2)
        big = to_sp2nc(g)
        assert np.abs(big.T @ form @ big - form).max() < 1e-10
        assert np.abs(big.conj().T @ big - np.eye(4)).max() < 1e-10


def test_sp2nc_algebra_block_structure():
    n = 3
    perm = interleave_to_block_permutation(n)
    for _ in range(100):
        gen = random_skew_adjoint(rng, n)
        alg = perm @ gen.embed() @ perm.T
        a = alg[:n, :n]
        b = alg[:n, n:]
        assert np.abs(a + a.conj().T).max() < 1e-11       # a* = -a
        assert np.abs(b - b.T).max() < 1e-11              # b' = b
        assert np.abs(alg[n:, :n] + b.conj().T).max() < 1e-11
        assert np.abs(alg[n:, n:] + a.T).max() < 1e-11


def test_block_matrix_assembly():
    a = random_quatmat(rng, 2, 2)
    b = random_quatmat(rng, 2, 3)
    c = random_quatmat(rng, 1, 2)
    d = random_quatmat(rng, 1, 3)
    m = block_matrix([[a, b], [c, d]])
    assert m.shape == (3, 5)
    assert np.array_equal(m.a[0, 0], a.a[0, 0])
    assert np.array_equal(m.a[2, 4], d.a[0, 2])


# -- the one inverse and the block partition ----------------------------------------

def test_inv_rejects_exactly_singular():
    with pytest.raises(SingularMatrix):
        QuatMatrix.zeros(2, 2).inv()


def test_inv_condition_ceiling():
    # the embedding of diag(1, eps) has 1-norm condition number 1/eps
    with pytest.raises(SingularMatrix):
        real_matrix(np.diag([1.0, 1e-13])).inv()
    near = real_matrix(np.diag([1.0, 1e-11]))
    assert mat_close(near @ near.inv(), QuatMatrix.identity(2))


def test_inv_rejects_nan():
    m = QuatMatrix.identity(2)
    m.a[0, 1, 2] = np.nan
    with pytest.raises(SingularMatrix):
        m.inv()


def test_inv_raises_the_callers_error():
    class Custom(SingularMatrix):
        pass

    err = Custom("singular here")
    with pytest.raises(Custom) as caught:
        QuatMatrix.zeros(1, 1).inv(err)
    assert caught.value is err
    with pytest.raises(NonSquare):
        QuatMatrix.zeros(1, 2).inv()


@pytest.mark.parametrize("n, eps", [(2, 1e-8), (4, 1e-8), (8, 1e-10)])
def test_inv_structure_failure_is_a_singular_matrix(n, eps):
    # u diag(1, ..., eps) v is far inside the condition ceiling, yet its
    # solved inverse is off the quaternionic structure by more than the
    # STRUCTURE tolerance allows: the inverse refuses it with its own error
    local = np.random.default_rng(611)
    u, v = (random_group_element(local, n).m for _ in range(2))
    m = u @ real_matrix(np.diag([1.0] * (n - 1) + [eps])) @ v
    with pytest.raises(SingularMatrix, match="quaternionic structure"):
        m.inv()

    class Custom(SingularMatrix):
        pass

    err = Custom("singular here")
    with pytest.raises(Custom) as caught:
        m.inv(err)
    assert caught.value is err
    batch = QuatMatrix(stack([u, m]))
    with pytest.raises(SingularMatrix, match="quaternionic structure"):
        batch.inv()


def test_blocks_partition():
    m = random_quatmat(kernel_rng, 5, 5)
    a, b, c, d = m.blocks(2, 3)
    assert (a.shape, b.shape, c.shape, d.shape) == ((2, 2), (2, 3), (3, 2), (3, 3))
    assert mat_close(block_matrix([[a, b], [c, d]]), m, 0.0)
    for j, k, shape in ((2, 2, (5, 5)), (2, 3, (5, 4))):
        with pytest.raises(DimensionMismatch):
            random_quatmat(kernel_rng, *shape).blocks(j, k)
    # j + k fits, but a negative size would give overlapping slices
    for j, k in ((-1, 3), (3, -1)):
        with pytest.raises(DimensionMismatch):
            random_quatmat(kernel_rng, 2, 2).blocks(j, k)


def positive_like(local, batch: tuple, n: int) -> QuatMatrix:
    """q q* + 1 for a random n x n q of the given batch shape."""
    q = QuatMatrix(local.normal(size=batch + (n, n, 4)))
    return q @ q.adjoint() + QuatMatrix.identity(n)


def test_grouped_inverses_equal_the_separate_inverses():
    class Custom(SingularMatrix):
        pass

    err = Custom("singular here")
    local = np.random.default_rng(612)
    single = positive_like(local, (), 3)
    batch = positive_like(local, (3,), 3)
    other = positive_like(local, (3,), 3)
    got = _inverses([single, batch, other], err)
    assert [m.batch for m in got] == [(3,)] * 3
    for i in range(3):
        assert np.array_equal(got[0].a[i], single.inv(err).a)
        assert np.array_equal(got[1].a[i], QuatMatrix(batch.a[i]).inv(err).a)
        assert np.array_equal(got[2].a[i], QuatMatrix(other.a[i]).inv(err).a)
    (alone,) = _inverses([single], err)
    assert np.array_equal(alone.a, single.inv(err).a)


def test_grouped_inverses_raise_the_loops_error():
    class Custom(SingularMatrix):
        pass

    err = Custom("singular here")
    local = np.random.default_rng(611)
    u, v = (random_group_element(local, 2).m for _ in range(2))
    good = positive_like(local, (3,), 2)
    # past the condition ceiling, and inside it but off the structure on
    # readback (see test_inv_structure_failure_is_a_singular_matrix)
    far = real_matrix(np.diag([1.0, 1e-13]))
    off = u @ real_matrix(np.diag([1.0, 1e-8])) @ v
    for bad in (far, off):
        with pytest.raises(Custom) as loop:
            for m in (good, bad):
                m.inv(err)
        with pytest.raises(Custom) as grouped:
            _inverses([good, bad], err)
        assert grouped.value is loop.value is err
        one_bad = QuatMatrix(good.a.copy())
        one_bad.a[1] = bad.a
        with pytest.raises(Custom) as grouped:
            _inverses([good, one_bad], err)
        assert grouped.value is err


# -- the batch axis: a batch acts as the stack of its single matrices --------------

# the batch tests draw from their own stream, leaving the draws above as they were
batch_rng = np.random.default_rng(606)


def stack(mats) -> np.ndarray:
    return np.stack([m.a for m in mats])


def positive_batch(count: int, n: int):
    qs = [random_quatmat(batch_rng, n, n) for _ in range(count)]
    return [q @ q.adjoint() + QuatMatrix.identity(n) for q in qs]


def test_batch_shape_queries():
    m = QuatMatrix(np.zeros((5, 2, 3, 2, 4)))
    assert m.batch == (5, 2) and m.shape == (3, 2)
    assert (m.rows, m.cols) == (3, 2)
    assert QuatMatrix.identity(2).batch == ()
    with pytest.raises(DimensionMismatch):
        QuatMatrix(np.zeros((2, 3)))


def test_batched_products_and_embedding_equal_the_stacked_singles():
    lefts = [random_quatmat(batch_rng, 3, 4) for _ in range(6)]
    rights = [random_quatmat(batch_rng, 4, 2) for _ in range(6)]
    left, right = QuatMatrix(stack(lefts)), QuatMatrix(stack(rights))
    assert np.array_equal((left @ right).a,
                          stack([a @ b for a, b in zip(lefts, rights)]))
    assert np.array_equal(left.adjoint().a, stack([a.adjoint() for a in lefts]))
    embs = np.stack([a.embed() for a in lefts])
    assert np.array_equal(left.embed(), embs)
    assert np.array_equal(QuatMatrix.project(embs).a,
                          stack([QuatMatrix.project(e) for e in embs]))
    square = QuatMatrix(stack(positive_batch(4, 3)))
    assert np.array_equal(square.trace(), np.stack(
        [QuatMatrix(a).trace().to_array() for a in square.a]))
    parts = square.blocks(1, 2)
    singles = [QuatMatrix(a).blocks(1, 2) for a in square.a]
    for i, part in enumerate(parts):
        assert np.array_equal(part.a, stack([s[i] for s in singles]))


def test_batched_product_broadcasts_against_single_matrices():
    lefts = [random_quatmat(batch_rng, 3, 4) for _ in range(6)]
    rights = [random_quatmat(batch_rng, 4, 2) for _ in range(3)]
    left = QuatMatrix(stack(lefts))
    single_left, single_right = lefts[0], rights[0]
    assert np.array_equal((left @ single_right).a,
                          stack([a @ single_right for a in lefts]))
    right = QuatMatrix(stack(rights))
    assert np.array_equal((single_left @ right).a,
                          stack([single_left @ b for b in rights]))
    # batch shapes (2, 3) and (3,) broadcast to (2, 3)
    grid = QuatMatrix(left.a.reshape(2, 3, 3, 4, 4))
    expect = np.stack([stack([lefts[3 * i + j] @ rights[j] for j in range(3)])
                       for i in range(2)])
    assert np.array_equal((grid @ right).a, expect)


def test_batched_inverse_equals_the_stacked_singles():
    mats = positive_batch(5, 3)
    got = QuatMatrix(stack(mats)).inv()
    assert np.array_equal(got.a, stack([m.inv() for m in mats]))


def test_batched_expm_squares_each_matrix_its_own_number_of_times():
    gen = random_skew_adjoint(batch_rng, 3)
    unit = gen * (1.0 / float(np.linalg.norm(gen.embed(), 1)))
    # embedding 1-norms 0.3, 0.8, 5 and 40: 0, 1, 4 and 7 squarings
    gens = [unit * s for s in (0.3, 0.8, 5.0, 40.0)]
    gens.append(random_skew_adjoint(batch_rng, 3))
    got = expm(QuatMatrix(stack(gens)))
    assert np.array_equal(got.a, stack([expm(g) for g in gens]))
    for g, e in zip(gens, got.a):
        assert (QuatMatrix(e) - series_exp(g)).max_abs() < 1e-12

    # the counts 7, 0, 4, 0, 7, 1, 4 out of order and repeated: the batch is
    # squared sorted by count and comes back in its own order
    mixed = [unit * s for s in (40.0, 0.3, 5.0, 0.3, 40.0, 0.8, 5.0)]
    got = expm(QuatMatrix(stack(mixed)))
    assert np.array_equal(got.a, stack([expm(g) for g in mixed]))

    # at n = 4 a batch runs in blocks of 2**18 // (128 * 16) = 128 matrices;
    # 300 span three blocks, whose largest norms take 7, 4 and 1 squarings,
    # and the counts differ inside each block
    own = np.random.default_rng(435)
    gen = random_skew_adjoint(own, 4)
    unit = gen * (1.0 / float(np.linalg.norm(gen.embed(), 1)))
    scales = ([0.3, 0.8, 5.0, 40.0] * 32 + [0.3, 5.0, 0.8, 2.0] * 32
              + [0.3, 0.8, 0.1, 0.6] * 11)
    gens = [unit * (s * (1.0 + 0.01 * own.random())) for s in scales]
    batch = stack(gens)
    got = expm(QuatMatrix(batch))
    assert np.array_equal(got.a, stack([expm(g) for g in gens]))
    # two batch axes keep their shape and their values
    grid = expm(QuatMatrix(batch.reshape(20, 15, 4, 4, 4)))
    assert grid.a.shape == (20, 15, 4, 4, 4)
    assert np.array_equal(grid.a, got.a.reshape(20, 15, 4, 4, 4))
    # a NaN only in the last block still fails the whole batch
    batch[-1, 2, 3, 1] = np.nan
    with pytest.raises(NonFiniteMatrix):
        expm(QuatMatrix(batch))


@pytest.mark.parametrize("kind", ["sqrt", "invsqrt", "sinc_sqrt"])
def test_batched_func_hermitian_equals_the_stacked_singles(kind):
    mats = positive_batch(4, 3)
    if kind != "invsqrt":
        q = random_quatmat(batch_rng, 3, 3)
        mats += [q + q.adjoint(), QuatMatrix.zeros(3, 3)]   # negative and tiny
    got = func_hermitian(QuatMatrix(stack(mats)), kind)
    assert np.array_equal(got.a, stack([func_hermitian(m, kind) for m in mats]))


def test_batched_eigvals_equal_the_stacked_singles():
    mats = positive_batch(5, 3)
    got = eigvals_hyperhermitian(QuatMatrix(stack(mats)))
    assert got.shape == (5, 3)
    assert np.array_equal(got, np.stack([eigvals_hyperhermitian(m) for m in mats]))


def test_block_matrix_refuses_blocks_that_do_not_conform():
    one, two = QuatMatrix.zeros(1, 1), QuatMatrix.zeros(2, 2)
    for grid in ([[one, two]], [[one], [QuatMatrix.zeros(1, 2)]],
                 [[QuatMatrix(np.zeros((3, 1, 1, 4))),
                   QuatMatrix(np.zeros((5, 1, 1, 4)))]]):
        with pytest.raises(DimensionMismatch):
            block_matrix(grid)


def test_batched_diag_equals_the_stacked_singles():
    entries = np.random.default_rng(33).normal(size=(5, 3, 4))
    got = QuatMatrix.diag(entries)
    assert got.batch == (5,) and got.shape == (3, 3)
    expect = stack([QuatMatrix.diag(e) for e in entries])
    assert np.array_equal(got.a, expect)
    single = QuatMatrix.diag(entries[0])
    for i in range(3):
        for j in range(3):
            assert np.array_equal(single.a[i, j],
                                  entries[0, i] if i == j else np.zeros(4))
    for bad in (np.ones(4), np.ones((2, 3))):
        with pytest.raises(DimensionMismatch):
            QuatMatrix.diag(bad)


def test_failed_membership_check_forms_one_product(monkeypatch):
    products = []
    matmul = QuatMatrix.__matmul__

    def counted(x, y):
        products.append(1)
        return matmul(x, y)

    monkeypatch.setattr(QuatMatrix, "__matmul__", counted)
    with pytest.raises(NotGroupElement, match="unitarity residual"):
        GroupElement(random_quatmat(np.random.default_rng(34), 3, 3))
    assert len(products) == 1


def test_batched_block_matrix_broadcasts_single_blocks():
    tops = [random_quatmat(batch_rng, 2, 2) for _ in range(4)]
    lows = [random_quatmat(batch_rng, 1, 3) for _ in range(4)]
    right, corner = random_quatmat(batch_rng, 2, 3), random_quatmat(batch_rng, 1, 2)
    got = block_matrix([[QuatMatrix(stack(tops)), right],
                        [corner, QuatMatrix(stack(lows))]])
    expect = stack([block_matrix([[t, right], [corner, d]])
                    for t, d in zip(tops, lows)])
    assert np.array_equal(got.a, expect)


def test_empty_batch_passes_through_every_kernel():
    empty = QuatMatrix(np.zeros((0, 2, 2, 4)))
    assert (empty @ QuatMatrix(np.zeros((0, 2, 3, 4)))).a.shape == (0, 2, 3, 4)
    assert (empty @ random_quatmat(batch_rng, 2, 3)).a.shape == (0, 2, 3, 4)
    assert empty.adjoint().a.shape == (0, 2, 2, 4)
    assert empty.embed().shape == (0, 4, 4)
    assert QuatMatrix.project(empty.embed()).a.shape == (0, 2, 2, 4)
    assert empty.inv().a.shape == (0, 2, 2, 4)
    assert expm(empty).a.shape == (0, 2, 2, 4)
    assert expm(QuatMatrix(np.zeros((3, 0, 0, 4)))).a.shape == (3, 0, 0, 4)
    assert func_hermitian(empty, "sqrt").a.shape == (0, 2, 2, 4)
    assert eigvals_hyperhermitian(empty).shape == (0, 2)
    assert empty.trace().shape == (0, 4)
    assert empty.is_hermitian()
    GroupElement(empty)


def test_one_bad_matrix_fails_the_whole_batch():
    good = positive_batch(3, 2)
    singular = stack(good + [QuatMatrix.zeros(2, 2)])
    with pytest.raises(SingularMatrix):
        QuatMatrix(singular).inv()
    err = SingularMatrix("caller's error")
    with pytest.raises(SingularMatrix) as caught:
        QuatMatrix(singular).inv(err)
    assert caught.value is err
    ill = stack(good + [real_matrix(np.diag([1.0, 1e-13]))])
    with pytest.raises(SingularMatrix):
        QuatMatrix(ill).inv()
    nan = stack(good + [QuatMatrix.identity(2)])
    nan[1, 0, 1, 2] = np.nan
    with pytest.raises(SingularMatrix):
        QuatMatrix(nan).inv()
    embs = np.stack([m.embed() for m in good])
    embs[2, 0, 1] += 1.0
    with pytest.raises(MalformedM2C):
        QuatMatrix.project(embs)
    members = [random_group_element(batch_rng, 2) for _ in range(3)]
    with pytest.raises(NotGroupElement):
        GroupElement(QuatMatrix(stack([g.m for g in members] + [good[0]])))
    GroupElement(QuatMatrix(stack([g.m for g in members])))
    skewed = stack(good + [random_quatmat(batch_rng, 2, 2)])
    with pytest.raises(NotHyperHermitian):
        func_hermitian(QuatMatrix(skewed), "sqrt")
    with pytest.raises(NotHyperHermitian):
        eigvals_hyperhermitian(QuatMatrix(skewed))
    with pytest.raises(SingularInvSqrt):
        func_hermitian(QuatMatrix(stack(good + [QuatMatrix.zeros(2, 2)])),
                       "invsqrt")


def test_structure_tolerances_scale_with_each_matrix():
    # a large matrix with a relatively small defect passes on its own scale,
    # while the same absolute defect in a unit-scale matrix fails on its own
    big = random_quatmat(batch_rng, 2, 2) * 1e6
    small = random_quatmat(batch_rng, 2, 2)
    embs = np.stack([big.embed(), small.embed()])
    embs[:, 1, 1] += 1e-5
    QuatMatrix.project(embs[:1])
    with pytest.raises(MalformedM2C):
        QuatMatrix.project(embs[1:])
    with pytest.raises(MalformedM2C):
        QuatMatrix.project(embs)
    herm = positive_batch(2, 2)
    herm = QuatMatrix(stack([herm[0] * 1e6, herm[1]]))
    herm.a[:, 0, 1, 1] += 1e-5
    assert QuatMatrix(herm.a[:1]).is_hermitian()
    assert not QuatMatrix(herm.a[1:]).is_hermitian()
    assert not herm.is_hermitian()


# -- non-finite entries ----------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_and_expm_refuse_non_finite_entries(bad):
    local = np.random.default_rng(608)
    with pytest.raises(MalformedM2C):
        QuatMatrix.project(np.full((2, 2), bad, dtype=complex))
    good = [random_quatmat(local, 2, 2) for _ in range(3)]
    # a bad m12 alone leaves the m22 residual finite
    for pos in ((0, 0), (0, 1), (3, 2)):
        emb = good[0].embed()
        emb[pos] = bad
        with pytest.raises(MalformedM2C):
            QuatMatrix.project(emb)
        embs = np.stack([m.embed() for m in good])
        embs[1][pos] = bad
        with pytest.raises(MalformedM2C):
            QuatMatrix.project(embs)
    gen = random_skew_adjoint(local, 2)
    gen.a[0, 1, 2] = bad
    with pytest.raises(NonFiniteMatrix):
        expm(gen)
    batch = stack([random_skew_adjoint(local, 2) for _ in range(2)] + [gen])
    with pytest.raises(NonFiniteMatrix):
        expm(QuatMatrix(batch))
    expm(QuatMatrix(batch[:2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_fail_quietly_after_the_embedding(bad):
    # 0 * inf in the real map spreads NaN over the block, and the calls that
    # read the embedding refuse it with their own errors, not with a warning
    local = np.random.default_rng(609)
    single = random_skew_adjoint(local, 2)
    single.a[0, 1, 2] = bad
    batch = QuatMatrix(stack([random_skew_adjoint(local, 2), single]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (single, batch):
            emb = m.embed()
            last = emb.reshape(-1, 4, 4)[-1]
            assert np.isnan(last[0:2, 2:4]).all()
            assert np.isfinite(last[0:2, 0:2]).all()
            with pytest.raises(SingularMatrix):
                m.inv()
            with pytest.raises(NonFiniteMatrix):
                expm(m)
            with pytest.raises(MalformedM2C):
                QuatMatrix.project(emb)
            with pytest.raises(NotHyperHermitian):
                func_hermitian(m, "sqrt")
        q = QuatMatrix(local.normal(0.0, 1.0, (2, 2, 2, 4)))
        herm = q @ q.adjoint() + QuatMatrix.identity(2)
        for h in (QuatMatrix(herm.a[1].copy()), herm):
            h.a[..., 0, 1, 2] = bad
            with pytest.raises(NotHyperHermitian):
                func_hermitian(h, "sqrt")
        # on the diagonal, a bad scalar part meets itself in m - m* (inf -
        # inf) and a bad i part in m + m*
        diag = QuatMatrix.identity(2)
        diag.a[0, 0, 0] = bad
        with pytest.raises(NotHyperHermitian):
            func_hermitian(diag, "sqrt")
        with pytest.raises(NotHyperHermitian):
            eigvals_hyperhermitian(diag)
        assert not diag.is_hermitian()
        skew = QuatMatrix.zeros(2, 2)
        skew.a[0, 0, 1] = bad
        assert not skew.is_skew_adjoint()
        # a bad value in any of the 8 reals of a block, (re, im) of m11,
        # m12, m21, m22, reaches every column of the readback map
        good = np.stack([random_quatmat(local, 2, 3).embed()
                         for _ in range(3)])
        for slot in range(8):
            s, t, part = slot // 4, slot // 2 % 2, slot % 2
            embs = good.copy()
            embs.view(float)[:, 2 + s, 2 * (2 + t) + part] = bad
            for emb in (embs[1], embs):
                with pytest.raises(MalformedM2C):
                    QuatMatrix.project(emb)


# -- the readback equals its old formulas bit for bit -----------------------------

def _old_readback(emb):
    """The quaternion of each 2x2 block as the code wrote it before the real
    map: the average of the two entries that carry each component."""
    lead, (r2, c2) = emb.shape[:-2], emb.shape[-2:]
    blocks = emb.reshape(lead + (r2 // 2, 2, c2 // 2, 2)).swapaxes(-3, -2)
    m11, m12 = blocks[..., 0, 0], blocks[..., 0, 1]
    m21, m22 = blocks[..., 1, 0], blocks[..., 1, 1]
    return np.stack([(m11.real + m22.real) / 2.0, (m12.real - m21.real) / 2.0,
                     (m12.imag + m21.imag) / 2.0, (m11.imag - m22.imag) / 2.0],
                    axis=-1)


READBACK_SHAPES = [(1, 1), (3, 3), (5, 2, 2), (64, 64)]


@pytest.mark.parametrize("shape", READBACK_SHAPES)
def test_project_equals_the_old_readback(shape):
    local = np.random.default_rng(613)
    m = QuatMatrix(local.normal(0.0, 1.0, shape + (4,)))
    emb = m.embed()
    # off the structure by rounding-sized amounts, so each average matters
    emb = emb + 1e-13 * (local.normal(0.0, 1.0, emb.shape)
                         + 1j * local.normal(0.0, 1.0, emb.shape))
    got = QuatMatrix.project(emb).a
    assert got.flags.c_contiguous
    assert np.array_equal(got, _old_readback(emb))
    assert np.array_equal(QuatMatrix.project(m.embed()).a, m.a)


@pytest.mark.parametrize("shape", READBACK_SHAPES)
def test_inv_and_func_hermitian_equal_the_old_readback(shape):
    local = np.random.default_rng(614)
    n = shape[-1]
    q = QuatMatrix(local.normal(0.0, 1.0, shape + (4,)))
    p = q @ q.adjoint() + QuatMatrix.identity(n)
    emb = q.embed()
    sol = np.linalg.solve(emb, np.eye(2 * n, dtype=complex))
    assert np.array_equal(q.inv().a, _old_readback(sol))
    herm = p.embed()
    herm = (herm + herm.conj().swapaxes(-1, -2)) / 2.0
    lam, vec = np.linalg.eigh(herm)
    for kind, vals in (("sqrt", np.sqrt(np.maximum(lam, 0.0))),
                       ("invsqrt", 1.0 / np.sqrt(lam))):
        out = (vec * vals[..., None, :]) @ vec.conj().swapaxes(-1, -2)
        assert np.array_equal(func_hermitian(p, kind).a, _old_readback(out))


@pytest.mark.parametrize("shape", READBACK_SHAPES)
def test_adjoint_equals_the_old_formula_with_signed_zeros(shape):
    local = np.random.default_rng(615)
    a = local.normal(0.0, 1.0, shape + (4,))
    a[local.random(a.shape) < 0.3] = 0.0
    a[local.random(a.shape) < 0.3] = -0.0
    old = a.swapaxes(-3, -2).copy()
    old[..., 1:] *= -1.0
    got = QuatMatrix(a).adjoint().a
    assert got.flags.c_contiguous
    assert np.array_equal(got, old)
    assert np.array_equal(np.signbit(got), np.signbit(old))


def test_same_bits_compares_lists_and_tuples_by_bits():
    m = QuatMatrix(np.random.default_rng(616).normal(size=(2, 2, 4)))
    copy = QuatMatrix(m.a.copy())
    changed = QuatMatrix(m.a.copy())
    changed.a[0, 0, 0] = np.nextafter(changed.a[0, 0, 0], np.inf)
    assert same_bits([m], [copy]) and same_bits((m, 1.5), (copy, 1.5))
    assert same_bits({"x": [m, (copy,)]}, {"x": [copy, (m,)]})
    assert not same_bits([m], [changed]) and not same_bits([m], (m,))
    assert not same_bits([m], [m, m]) and not same_bits((1.5,), (1,))


# -- the one LAPACK inverse keeps the bits and errors of solve(E, 1) ----------

def _solved_inverse(m: QuatMatrix) -> QuatMatrix:
    """QuatMatrix.inv as written with np.linalg.solve of the embedding
    against an identity built here."""
    emb = m.embed()
    try:
        sol = np.linalg.solve(emb, np.eye(2 * m.rows, dtype=complex))
        cond = (np.abs(emb).sum(axis=-2).max(axis=-1, initial=0.0)
                * np.abs(sol).sum(axis=-2).max(axis=-1, initial=0.0))
    except np.linalg.LinAlgError:
        cond = np.float64(np.inf)
    worst = cond.max(initial=0.0)
    if worst <= config.COND_LIMIT:
        try:
            return QuatMatrix.project(sol)
        except MalformedM2C as exc:
            reason = f"solution off the quaternionic structure: {exc}"
    else:
        reason = (f"1-norm condition number {worst:.3e} > "
                  f"{config.COND_LIMIT:.0e}")
    raise SingularMatrix(reason)


def _inverse_outcome(inverse, m):
    """``inverse(m)`` with every warning an error, or the class and message
    of the SingularMatrix it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return inverse(m)
        except SingularMatrix as exc:
            return type(exc), str(exc)


def _with_entry(batch, n, value, index=()):
    """A batch of well-conditioned n x n matrices whose entry (n - 1, 0)
    has j-part ``value``, in every matrix or, given ``index``, in that
    one."""
    local = np.random.default_rng(619)
    a = local.normal(0.0, 0.3, batch + (n, n, 4))
    a[..., range(n), range(n), 0] += 2.0
    if n:
        a[(index or (...,)) + (n - 1, 0, 2)] = value
    return QuatMatrix(a)


INV_PIN_CASES = {
    **{f"single n={n}": (lambda n=n: _with_entry((), n, 0.1))
       for n in (0, 1, 2, 3, 16, 64)},
    **{f"batch {b} n={n}": (lambda b=b, n=n: _with_entry(b, n, 0.1))
       for b, n in (((2,), 1), ((500,), 2), ((5, 3), 3), ((3,), 0),
                    ((0,), 2), ((0, 4), 3))},
    "nan single": lambda: _with_entry((), 2, np.nan),
    "nan in a batch": lambda: _with_entry((4,), 3, np.nan, (2,)),
    "inf single": lambda: _with_entry((), 2, np.inf),
    "-inf in a batch": lambda: _with_entry((4,), 3, -np.inf, (2,)),
    "singular single": lambda: QuatMatrix.zeros(2, 2),
    "singular in a batch": lambda: QuatMatrix(np.stack(
        [QuatMatrix.identity(2).a, real_matrix([[1.0, 2.0], [2.0, 4.0]]).a])),
    "past the ceiling": lambda: real_matrix(np.diag([1.0, 1e-13])),
    "past the ceiling in a batch": lambda: real_matrix(
        [np.eye(2), np.diag([1.0, 1e-13])]),
    "off the structure": lambda: (
        random_group_element(np.random.default_rng(611), 2).m
        @ real_matrix(np.diag([1.0, 1e-8]))
        @ random_group_element(np.random.default_rng(612), 2).m),
}


@pytest.mark.parametrize("name", list(INV_PIN_CASES))
def test_inv_keeps_the_bits_and_errors_of_solving_against_the_identity(name):
    m = INV_PIN_CASES[name]()
    want = _inverse_outcome(_solved_inverse, m)
    assert same_bits(_inverse_outcome(QuatMatrix.inv, m), want)
    failing = name.startswith(("nan", "inf", "-inf", "singular", "past",
                               "off"))
    assert isinstance(want, tuple) == failing, want
    if "nan" in name or "inf" in name:
        # a non-finite entry fails the condition test, so it never reaches
        # the inverse's readback, which has no float guard
        assert want == (SingularMatrix,
                        "1-norm condition number nan > 1e+12"), want
