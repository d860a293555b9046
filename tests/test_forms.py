import numpy as np
import pytest

from conftest import fresh_geometry, quat_close, same_bits
from qflag import forms
from qflag.coset import GrassmannPoint, metric_form_hermitian
from qflag.errors import DimensionMismatch
from qflag.forms import (connection_along_path, connection_blocks,
                         curvature_blocks, dY_wedge, hodge_star,
                         maurer_cartan_residual, wedge)
from qflag.quaternion import E, I, J, K, Quaternion, random_quaternion
from qflag.quatmat import QuatMatrix, expm, random_quatmat, random_skew_adjoint

rng = np.random.default_rng(404)

# Reference for the Euclidean star on two-forms, orientation
# dx0^dx1^dx2^dx3: *(dx_r ^ dx_s) = sign dx_p ^ dx_q for
# (r, s): ((p, q), sign).
HODGE_PAIRS = {
    (0, 1): ((2, 3), 1.0),
    (0, 2): ((1, 3), -1.0),
    (0, 3): ((1, 2), 1.0),
    (1, 2): ((0, 3), 1.0),
    (1, 3): ((0, 2), -1.0),
    (2, 3): ((0, 1), 1.0),
}


def random_one_form(dim=4):
    return np.array([random_quaternion(rng).to_array() for _ in range(dim)])


def coefficient(form, r, s):
    return Quaternion.from_array(form[r, s])


def max_abs(form):
    return np.linalg.norm(form, axis=-1).max()


# -- wedge algebra ------------------------------------------------------------

def test_wedge_self_with_commuting_coefficient_vanishes():
    form = np.zeros((4, 4))
    form[0] = E.to_array()
    assert not wedge(form, form).any()


def test_wedge_basic_rule():
    # dx0 e ^ dx1 i = (dx0 ^ dx1) i
    left, right = np.zeros((4, 4)), np.zeros((4, 4))
    left[0], right[1] = E.to_array(), I.to_array()
    out = wedge(left, right)
    assert quat_close(coefficient(out, 0, 1), I)
    assert quat_close(coefficient(out, 1, 0), -I)


def test_wedge_order_reversal_sign():
    a, b = random_one_form(), random_one_form()
    qa, qb = ([Quaternion.from_array(c) for c in f] for f in (a, b))
    # (b ^ a) coefficient is the reversed product with a sign, not -ab
    ba = wedge(b, a)
    for r in range(4):
        for s in range(r + 1, 4):
            expected = -(qb[s] * qa[r] - qb[r] * qa[s])
            assert (coefficient(ba, r, s) - expected).norm() < 1e-12


def test_wedge_bilinearity():
    for _ in range(100):
        a, b, c = random_one_form(), random_one_form(), random_one_form()
        lhs = wedge(a + b, c)
        rhs = wedge(a, c) + wedge(b, c)
        assert max_abs(lhs - rhs) < 1e-12


def test_batched_wedge_equals_the_per_row_wedge():
    local = np.random.default_rng(4043)    # own stream
    a, b = local.standard_normal((2, 6, 5, 4))
    got = wedge(a, b)
    assert got.shape == (6, 5, 5, 4)
    assert np.array_equal(got, np.stack([wedge(x, y) for x, y in zip(a, b)]))
    # one form against a batch broadcasts over the batch axis
    assert np.array_equal(wedge(a[0], b), np.stack([wedge(a[0], y) for y in b]))


def test_dimension_gate():
    with pytest.raises(DimensionMismatch):
        wedge(np.eye(4), np.eye(8, 4))
    with pytest.raises(DimensionMismatch):
        wedge(np.eye(4)[:, :3], np.eye(4)[:, :3])     # trailing axis not 4
    with pytest.raises(DimensionMismatch):
        wedge(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))   # batches differ
    with pytest.raises(DimensionMismatch):
        hodge_star(wedge(np.ones((3, 4)), np.ones((3, 4))))   # dim 3
    with pytest.raises(DimensionMismatch):
        hodge_star(np.zeros((4, 4, 3)))


# -- the self-dual / anti-self-dual split ----------------------------------------

def test_dY_wedge_component_pattern():
    sd, asd = dY_wedge()
    # self-dual side: -2 (dx0^dx1 + dx2^dx3) on i, cyclic analogues on j, k
    assert quat_close(coefficient(sd, 0, 1), Quaternion(0, -2, 0, 0))
    assert quat_close(coefficient(sd, 2, 3), Quaternion(0, -2, 0, 0))
    assert quat_close(coefficient(sd, 0, 2), Quaternion(0, 0, -2, 0))
    assert quat_close(coefficient(sd, 1, 3), Quaternion(0, 0, 2, 0))   # dx3^dx1
    assert quat_close(coefficient(sd, 0, 3), Quaternion(0, 0, 0, -2))
    assert quat_close(coefficient(sd, 1, 2), Quaternion(0, 0, 0, -2))
    # anti-self-dual side: +2 (dx0^dx1 - dx2^dx3) pattern
    assert quat_close(coefficient(asd, 0, 1), Quaternion(0, 2, 0, 0))
    assert quat_close(coefficient(asd, 2, 3), Quaternion(0, -2, 0, 0))


def test_dY_wedge_scalar_parts_vanish():
    # direct expansion: the e-parts of both products cancel
    for form in dY_wedge():
        assert np.abs(form[..., 0]).max() < 1e-15


def test_dY_wedge_against_direct_expansion():
    # independent oracle: expand sum_{r<s} (e_r conj(e_s) - e_s conj(e_r))
    basis = (E, I, J, K)
    sd, _ = dY_wedge()
    for r in range(4):
        for s in range(r + 1, 4):
            expected = basis[r] * basis[s].conj() - basis[s] * basis[r].conj()
            assert (coefficient(sd, r, s) - expected).norm() < 1e-15


def test_hodge_star_involution_and_eigensectors():
    # star is an involution on the six basis two-forms
    for (r, s), (dual, sign) in HODGE_PAIRS.items():
        form = np.zeros((4, 4, 4))
        form[r, s], form[s, r] = E.to_array(), -E.to_array()
        starred = hodge_star(form)
        assert (coefficient(starred, *dual) - E * sign).norm() == 0.0
        twice = hodge_star(starred)
        assert (coefficient(twice, r, s) - E).norm() == 0.0
    # the star acts on each quaternion component on its own
    sd, asd = dY_wedge()
    assert max_abs(hodge_star(sd) - sd) == 0.0      # +1 eigenvector
    assert max_abs(hodge_star(asd) + asd) == 0.0    # -1 eigenvector


def test_hodge_star_is_the_pair_table():
    # the Levi-Civita contraction reproduces every HODGE_PAIRS entry exactly
    local = np.random.default_rng(4044)    # own stream
    form = wedge(*local.standard_normal((2, 4, 4)))
    starred = hodge_star(form)
    for (r, s), ((p, q), sign) in HODGE_PAIRS.items():
        assert np.array_equal(starred[r, s], sign * form[p, q])
        assert np.array_equal(starred[s, r], -sign * form[p, q])
    assert not starred[np.arange(4), np.arange(4)].any()


# -- connection along one-parameter subgroups ---------------------------------------

def test_constant_path_has_zero_connection():
    blocks = connection_blocks(QuatMatrix.zeros(4, 4), 0.2, 2, 2)
    assert max(b.max_abs() for b in blocks) == 0.0


def test_connection_skewness_and_block_pairing():
    for _ in range(20):
        gen = random_skew_adjoint(rng, 4)
        omega = connection_along_path(gen, 0.3)
        assert (omega + omega.adjoint()).max_abs() < 1e-11
        w11, w12, w21, w22 = connection_blocks(gen, 0.3, 2, 2)
        assert (w21 + w12.adjoint()).max_abs() < 1e-11


def test_isotropy_paths_have_no_off_diagonal_connection():
    for _ in range(20):
        gen = random_skew_adjoint(rng, 4)
        gen.a[:2, 2:, :] = 0.0
        gen.a[2:, :2, :] = 0.0
        _, w12, w21, _ = connection_blocks(gen, 0.4, 2, 2)
        assert w12.max_abs() < 1e-11
        assert w21.max_abs() < 1e-11


def test_exact_connection_value():
    # for g(t) = exp(t S), g* dg/dt = S exactly
    gen = random_skew_adjoint(rng, 3)
    omega = connection_along_path(gen, 0.7)
    assert (omega - gen).max_abs() < 1e-12


def test_connection_matches_central_differences_of_expm():
    # oracle: g* (g(t + h) - g(t - h)) / 2h, good to O(h^2)
    local = np.random.default_rng(4041)
    h = 1e-5
    for n, t in ((2, 0.3), (3, -0.8), (4, 1.5)):
        gen = random_skew_adjoint(local, n)
        gdot = (expm(gen * (t + h)) - expm(gen * (t - h))) * (0.5 / h)
        oracle = expm(gen * t).adjoint() @ gdot
        assert (connection_along_path(gen, t) - oracle).max_abs() < 1e-8


# -- Maurer-Cartan -------------------------------------------------------------------

def test_maurer_cartan_vanishes():
    for _ in range(10):
        g1 = random_skew_adjoint(rng, 3)
        g2 = random_skew_adjoint(rng, 3)
        res = maurer_cartan_residual(g1, g2, rng.uniform(-0.3, 0.3),
                                     rng.uniform(-0.3, 0.3))
        assert res < 1e-11


def test_maurer_cartan_isotropy_family():
    # inside the block-diagonal subgroup the diagonal structure equation
    # closes on its own: d w11 + w11 ^ w11 = 0
    g1 = random_skew_adjoint(rng, 4)
    g2 = random_skew_adjoint(rng, 4)
    for gen in (g1, g2):
        gen.a[:2, 2:, :] = 0.0
        gen.a[2:, :2, :] = 0.0
    assert maurer_cartan_residual(g1, g2, 0.15, -0.2) < 1e-11


def test_maurer_cartan_detects_a_wrong_derivative(monkeypatch):
    # a one-sided difference in place of the exact g_t leaves the tangent
    # space of the group by O(h), and the residual shows it
    local = np.random.default_rng(4042)
    a, b = random_skew_adjoint(local, 3), random_skew_adjoint(local, 3)
    exact = maurer_cartan_residual(a, b, 0.1, -0.2)
    real_expm = forms.expm
    h = 1e-3

    def forward_difference_g_t(m):
        out = real_expm(m)
        x, e = QuatMatrix(m.a[:3, :3]), QuatMatrix(m.a[:3, 6:])
        out.a[:3, 6:] = ((real_expm(x + e * h) - real_expm(x)) * (1.0 / h)).a
        return out

    monkeypatch.setattr(forms, "expm", forward_difference_g_t)
    assert exact < 1e-12
    assert maurer_cartan_residual(a, b, 0.1, -0.2) > 1e-3


# -- curvature at a point ---------------------------------------------------------------

def test_curvature_antisymmetry_and_dependent_directions():
    x = GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
    u = random_quatmat(rng, 2, 2)
    v = random_quatmat(rng, 2, 2)
    out = curvature_blocks(x, u, v)
    swapped = curvature_blocks(x, v, u)
    assert (out["omega11"] + swapped["omega11"]).max_abs() < 1e-12
    assert (out["omega22"] + swapped["omega22"]).max_abs() < 1e-12
    # equal directions evaluate to zero
    same = curvature_blocks(x, u, u)
    assert same["omega11"].max_abs() == 0.0
    assert same["r11"].norm() == 0.0


def test_curvature_flat_origin():
    x0 = GrassmannPoint(QuatMatrix.zeros(2, 2))
    u = random_quatmat(rng, 2, 2)
    v = random_quatmat(rng, 2, 2)
    out = curvature_blocks(x0, u, v)
    direct = (u @ v.adjoint() - v @ u.adjoint()).trace()
    assert (out["r11"] - direct).norm() < 1e-12


def test_curvature_trace_forms_match_blocks():
    # Tr Omega11 and R11 agree in their scalar parts (real-trace cyclicity)
    for _ in range(100):
        x = GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
        u = random_quatmat(rng, 2, 2)
        v = random_quatmat(rng, 2, 2)
        out = curvature_blocks(x, u, v)
        assert abs(out["omega11"].trace().w - out["r11"].w) < 1e-10
        assert abs(out["omega22"].trace().w - out["r22"].w) < 1e-10


def test_curvature_pieces_scalar_parts_and_rank_one_magnitude():
    for _ in range(200):
        x = GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
        u = random_quatmat(rng, 2, 2)
        v = random_quatmat(rng, 2, 2)
        out = curvature_blocks(x, u, v)
        # the matrix-trace scalar parts agree in magnitude (both vanish)
        assert abs(abs(out["r11"].w) - abs(out["r22"].w)) < 1e-8
        assert abs(out["r11"].w) < 1e-10
        # the two-particle case carries the full equal-and-opposite content
        x1 = GrassmannPoint(random_quatmat(rng, 1, 1, 0.5))
        u1 = random_quatmat(rng, 1, 1)
        v1 = random_quatmat(rng, 1, 1)
        b1 = curvature_blocks(x1, u1, v1)
        assert abs(b1["r11"].norm() - b1["r22"].norm()) < 1e-8


def test_connection_consistency_with_curvature():
    # Omega11 = -w12 ^ w21 with w21 = -w12*: same sign convention everywhere
    x = GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
    u = random_quatmat(rng, 2, 2)
    v = random_quatmat(rng, 2, 2)
    out = curvature_blocks(x, u, v)
    from qflag.quatmat import func_hermitian
    y = x.x
    astar = func_hermitian(QuatMatrix.identity(2) + y @ y.adjoint(), "invsqrt")
    dmat = func_hermitian(QuatMatrix.identity(2) + y.adjoint() @ y, "invsqrt")
    w_u, w_v = astar @ u @ dmat, astar @ v @ dmat
    w21_u, w21_v = -w_u.adjoint(), -w_v.adjoint()
    minus_w12_w21 = -(w_u @ w21_v - w_v @ w21_u)
    assert (out["omega11"] - minus_w12_w21).max_abs() < 1e-12


def test_batched_curvature_blocks_equal_the_stacked_singles():
    local = np.random.default_rng(606)    # own stream
    draws = [[random_quatmat(local, 2, 2, scale) for scale in (0.5, 1.0, 1.0)]
             for _ in range(5)]

    def stack(i):
        return QuatMatrix(np.stack([d[i].a for d in draws]))

    got = curvature_blocks(GrassmannPoint(stack(0)), stack(1), stack(2))
    singles = [curvature_blocks(GrassmannPoint(x), u, v) for x, u, v in draws]
    for key in ("omega11", "omega22"):
        assert np.array_equal(got[key].a, np.stack([s[key].a for s in singles]))
    for key in ("r11", "r22"):
        assert all(isinstance(s[key], Quaternion) for s in singles)
        assert np.array_equal(got[key],
                              np.stack([s[key].to_array() for s in singles]))


def test_curvature_blocks_at_one_point_take_each_tangent_pair_fresh():
    # the Gram factors shared between calls depend on the point alone
    local = np.random.default_rng(613)
    for batch in ((), (3,)):
        x = QuatMatrix(local.normal(0.0, 0.5, batch + (3, 2, 4)))
        point = GrassmannPoint(x)
        tangents = [QuatMatrix(local.normal(0.0, 1.0, batch + (3, 2, 4)))
                    for _ in range(3)]
        for du, dv in [(0, 1), (1, 2), (2, 0), (0, 1)]:
            du, dv = tangents[du], tangents[dv]
            want = fresh_geometry(x, du, dv)
            assert same_bits(curvature_blocks(point, du, dv),
                             want["curvature_blocks"])
            assert same_bits(metric_form_hermitian(point, dv),
                             fresh_geometry(x, dv, du)["metric_form_hermitian"])
