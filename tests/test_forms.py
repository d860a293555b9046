import numpy as np
import pytest

from qflag.coset import GrassmannPoint
from qflag.errors import DependentDirections, DimensionMismatch
from qflag.forms import (HODGE_PAIRS, QOneForm, QTwoForm, connection_along_path,
                         connection_blocks, coordinate_differential,
                         curvature_blocks, dY_wedge, hodge_star,
                         maurer_cartan_residual, wedge)
from qflag.quaternion import E, I, J, K, Quaternion, random_quaternion
from qflag.quatmat import (GroupElement, QuatMatrix, expm, random_quatmat,
                           random_skew_adjoint)

rng = np.random.default_rng(404)


def random_one_form(dim=4):
    return QOneForm(dim, {i: random_quaternion(rng) for i in range(dim)})


# -- wedge algebra ------------------------------------------------------------

def test_wedge_self_with_commuting_coefficient_vanishes():
    form = QOneForm(4, {0: E})
    assert not form.wedge(form).coeffs


def test_wedge_basic_rule():
    # dx0 e ^ dx1 i = (dx0 ^ dx1) i
    left = QOneForm(4, {0: E})
    right = QOneForm(4, {1: I})
    out = wedge(left, right)
    assert out.coefficient(0, 1).is_close(I)
    assert out.coefficient(1, 0).is_close(-I)


def test_wedge_order_reversal_sign():
    a, b = random_one_form(), random_one_form()
    ab = a.wedge(b)
    # (b ^ a) coefficient is the reversed product with a sign, not -ab
    ba = b.wedge(a)
    for key in ab.coeffs:
        r, s = key
        expected = -(b.coeffs[s] * a.coeffs[r] - b.coeffs[r] * a.coeffs[s])
        assert (ba.coefficient(r, s) - expected).norm() < 1e-12


def test_wedge_bilinearity():
    for _ in range(100):
        a, b, c = random_one_form(), random_one_form(), random_one_form()
        lhs = (a + b).wedge(c)
        rhs = a.wedge(c) + b.wedge(c)
        assert (lhs - rhs).max_abs() < 1e-12


def test_dimension_gate():
    with pytest.raises(DimensionMismatch):
        QOneForm(4, {5: E})
    with pytest.raises(DimensionMismatch):
        QOneForm(4, {0: E}).wedge(QOneForm(8, {0: E}))


# -- the self-dual / anti-self-dual split ----------------------------------------

def test_dY_wedge_component_pattern():
    sd, asd = dY_wedge()
    # self-dual side: -2 (dx0^dx1 + dx2^dx3) on i, cyclic analogues on j, k
    assert sd.coefficient(0, 1).is_close(Quaternion(0, -2, 0, 0))
    assert sd.coefficient(2, 3).is_close(Quaternion(0, -2, 0, 0))
    assert sd.coefficient(0, 2).is_close(Quaternion(0, 0, -2, 0))
    assert sd.coefficient(1, 3).is_close(Quaternion(0, 0, 2, 0))   # dx3^dx1
    assert sd.coefficient(0, 3).is_close(Quaternion(0, 0, 0, -2))
    assert sd.coefficient(1, 2).is_close(Quaternion(0, 0, 0, -2))
    # anti-self-dual side: +2 (dx0^dx1 - dx2^dx3) pattern
    assert asd.coefficient(0, 1).is_close(Quaternion(0, 2, 0, 0))
    assert asd.coefficient(2, 3).is_close(Quaternion(0, -2, 0, 0))


def test_dY_wedge_scalar_parts_vanish():
    # direct expansion: the e-parts of both products cancel
    for form in dY_wedge():
        assert all(abs(c.w) < 1e-15 for c in form.coeffs.values())


def test_dY_wedge_against_direct_expansion():
    # independent oracle: expand sum_{r<s} (e_r conj(e_s) - e_s conj(e_r))
    basis = (E, I, J, K)
    sd, _ = dY_wedge()
    for r in range(4):
        for s in range(r + 1, 4):
            expected = basis[r] * basis[s].conj() - basis[s] * basis[r].conj()
            assert (sd.coefficient(r, s) - expected).norm() < 1e-15


def test_dY_wedge_accepts_custom_differential():
    # a rescaled differential scales both products quadratically
    scaled = QOneForm(4, {r: c * 2.0 for r, c in
                          coordinate_differential().coeffs.items()})
    sd_scaled, asd_scaled = dY_wedge(scaled)
    sd, asd = dY_wedge()
    assert (sd_scaled - sd * 4.0).max_abs() < 1e-14
    assert (asd_scaled - asd * 4.0).max_abs() < 1e-14


def test_hodge_star_involution_and_eigensectors():
    # star is an involution on the six basis two-forms
    for key, (dual, sign) in HODGE_PAIRS.items():
        form = QTwoForm(4, {key: E})
        starred = hodge_star(form)
        assert (starred.coefficient(*dual) - E * sign).norm() == 0.0
        twice = hodge_star(starred)
        assert (twice.coefficient(*key) - E).norm() == 0.0
    sd, asd = dY_wedge()

    def component(form, comp):
        return QTwoForm(4, {k: Quaternion(getattr(c, comp))
                            for k, c in form.coeffs.items()
                            if getattr(c, comp)})

    for comp in "xyz":
        f = component(sd, comp)
        assert (hodge_star(f) - f).max_abs() == 0.0    # +1 eigenvector
        f = component(asd, comp)
        assert (hodge_star(f) + f).max_abs() == 0.0    # -1 eigenvector


# -- connection along paths -------------------------------------------------------

def test_constant_path_has_zero_connection():
    path = lambda t: GroupElement(QuatMatrix.identity(4), check=False)
    blocks = connection_blocks(path, 0.2, 2, 2)
    assert max(b.max_abs() for b in blocks) == 0.0


def test_connection_skewness_and_block_pairing():
    for _ in range(20):
        gen = random_skew_adjoint(rng, 4)
        path = (lambda s: lambda t: GroupElement(expm(s * t), check=False))(gen)
        omega = connection_along_path(path, 0.3)
        assert (omega + omega.adjoint()).max_abs() < 1e-7
        w11, w12, w21, w22 = connection_blocks(path, 0.3, 2, 2)
        assert (w21 + w12.adjoint()).max_abs() < 1e-7


def test_isotropy_paths_have_no_off_diagonal_connection():
    for _ in range(20):
        gen = random_skew_adjoint(rng, 4)
        gen.a[:2, 2:, :] = 0.0
        gen.a[2:, :2, :] = 0.0
        path = (lambda s: lambda t: GroupElement(expm(s * t), check=False))(gen)
        _, w12, w21, _ = connection_blocks(path, 0.4, 2, 2)
        assert w12.max_abs() < 1e-7
        assert w21.max_abs() < 1e-7


def test_exact_connection_value():
    # for g(t) = exp(t S), g* dg/dt = S exactly
    gen = random_skew_adjoint(rng, 3)
    path = lambda t: GroupElement(expm(gen * t), check=False)
    omega = connection_along_path(path, 0.7)
    assert (omega - gen).max_abs() < 1e-8


# -- Maurer-Cartan -------------------------------------------------------------------

def test_maurer_cartan_vanishes():
    for _ in range(10):
        g1 = random_skew_adjoint(rng, 3)
        g2 = random_skew_adjoint(rng, 3)
        fam = (lambda a, b: lambda s, t:
               GroupElement(expm(a * s + b * t), check=False))(g1, g2)
        res = maurer_cartan_residual(fam, rng.uniform(-0.3, 0.3),
                                     rng.uniform(-0.3, 0.3))
        assert res < 1e-4


def test_maurer_cartan_isotropy_family():
    # inside the block-diagonal subgroup the diagonal structure equation
    # closes on its own: d w11 + w11 ^ w11 = 0
    g1 = random_skew_adjoint(rng, 4)
    g2 = random_skew_adjoint(rng, 4)
    for gen in (g1, g2):
        gen.a[:2, 2:, :] = 0.0
        gen.a[2:, :2, :] = 0.0
    fam = lambda s, t: GroupElement(expm(g1 * s + g2 * t), check=False)
    assert maurer_cartan_residual(fam, 0.15, -0.2) < 1e-4


# -- curvature at a point ---------------------------------------------------------------

def test_curvature_antisymmetry_and_dependent_directions():
    x = GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
    u = random_quatmat(rng, 2, 2)
    v = random_quatmat(rng, 2, 2)
    out = curvature_blocks(x, u, v)
    swapped = curvature_blocks(x, v, u)
    assert (out["omega11"] + swapped["omega11"]).max_abs() < 1e-12
    assert (out["omega22"] + swapped["omega22"]).max_abs() < 1e-12
    # equal directions evaluate to zero...
    same = curvature_blocks(x, u, u)
    assert same["omega11"].max_abs() == 0.0
    assert same["r11"].norm() == 0.0
    # ...and are rejected when independence is demanded
    with pytest.raises(DependentDirections):
        curvature_blocks(x, u, u * 2.0, require_independent=True)


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
    # the independence gate holds per tangent pair
    u, v = stack(1), stack(2)
    v.a[3] = 2.0 * u.a[3]
    with pytest.raises(DependentDirections):
        curvature_blocks(GrassmannPoint(stack(0)), u, v, require_independent=True)
    curvature_blocks(GrassmannPoint(stack(0)), u, stack(2),
                     require_independent=True)
