import math
from fractions import Fraction

import numpy as np
import pytest

from qflag.errors import ChartBoundary, TerminationViolated, TooCloseToPole
from qflag.s4lb import (_ricci, angular_jet, angular_metric, einstein_check,
                        fs_jet, fs_metric, lb_radial_residual,
                        lb_radial_residual_scaled, make_f0, make_gl,
                        random_chart_points, weighted_absolute_integral)

rng = np.random.default_rng(505)


def random_rotation():
    m = rng.normal(size=(4, 4))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


# -- metrics ------------------------------------------------------------------

def test_fs_metric_origin_is_identity():
    assert np.allclose(fs_metric(np.zeros(4)), np.eye(4))


@pytest.mark.parametrize("y", [[math.nan, 0.0, 0.0, 0.0],
                               [0.0, math.inf, 0.0, 0.0],
                               [0.0, 0.0, 0.0, -math.inf],
                               [1e200, 0.0, 0.0, 0.0]])
def test_fs_chart_refuses_a_non_finite_point(y):
    # the polar chart refuses NaN the same way (angular_metric); at 1e200,
    # |y|^2 overflows, and the refusal raises no numpy overflow warning
    # (an error under this suite's warning filter)
    for call in (fs_metric, fs_jet):
        with pytest.raises(ChartBoundary, match="finite point"):
            call(y)


def test_fs_metric_positive_definite():
    for _ in range(50):
        y = rng.uniform(-2, 2, 4)
        evs = np.linalg.eigvalsh(fs_metric(y))
        assert evs.min() > 0.0


def test_fs_metric_rotation_covariance():
    for _ in range(50):
        rot = random_rotation()
        y = rng.uniform(-1.5, 1.5, 4)
        lhs = fs_metric(rot @ y)
        rhs = rot @ fs_metric(y) @ rot.T
        assert np.abs(lhs - rhs).max() < 1e-10


def test_homogeneous_coordinate_consistency():
    # y = x / x0 on the unit sphere gives 1 + y y' = 1 / x0^2
    x = rng.normal(size=5)
    x /= np.linalg.norm(x)
    if abs(x[0]) < 0.1:
        x[0] = 0.5
        x /= np.linalg.norm(x)
    y = x[1:] / x[0]
    assert 1.0 + y @ y == pytest.approx(1.0 / x[0] ** 2, rel=1e-12)
    assert 1.0 + y @ y >= 1.0


def test_angular_metric_entries():
    omega, alpha = 1.1, 0.7
    g = angular_metric(omega, alpha)
    s2 = math.sin(omega) ** 2
    assert g[0, 0] == 4.0
    assert g[1, 1] == pytest.approx(s2)
    assert g[2, 3] == pytest.approx(s2 * math.cos(alpha))
    assert g[3, 2] == g[2, 3]
    # alpha = pi/2 diagonalises the beta-gamma block
    g_mid = angular_metric(omega, math.pi / 2)
    assert abs(g_mid[2, 3]) < 1e-16


def test_angular_metric_boundary_gate():
    with pytest.raises(ChartBoundary):
        angular_metric(0.0, 1.0)
    with pytest.raises(ChartBoundary):
        angular_metric(1.0, math.pi)


def _central(f, p, h=1e-3):
    """d_m f(p) for each coordinate m, by the fourth-order central stencil."""
    return np.array([(8 * (f(p + e) - f(p - e)) - (f(p + 2 * e) - f(p - 2 * e)))
                     / (12 * h) for e in np.eye(4) * h])


def test_metric_jets_match_central_differences():
    def polar(p):
        return angular_metric(p[0], p[1])

    points = [(fs_jet, fs_metric, rng.uniform(-1.2, 1.2, 4)) for _ in range(5)]
    points += [(angular_jet, polar, rng.uniform([0.7, 0.7, 0, 0], [2.4, 2.4, 6, 6]))
               for _ in range(5)]
    for jet, metric, p in points:
        g, dg, ddg = jet(p)
        assert np.array_equal(g, metric(p))
        assert np.abs(dg - _central(metric, p)).max() < 1e-8
        assert np.abs(ddg - _central(lambda q: _central(metric, q), p)).max() < 1e-8


# -- Einstein property --------------------------------------------------------------

def test_einstein_y_chart():
    # include an axis point, where the off-diagonal metric entries vanish
    pts = random_chart_points(rng, 19) + [np.array([0.7, 0.0, 0.0, 0.0])]
    rep = einstein_check(pts)
    assert rep["relative_spread"] < 1e-12
    assert rep["max_offdiagonal_ricci"] < 1e-12
    # the y-chart metric is the unit round sphere: Ricci = 3 g
    assert rep["lambda"] == pytest.approx(3.0, abs=1e-12)


def test_einstein_lambda_rotation_consistent():
    y = rng.uniform(-1, 1, 4)
    rot = random_rotation()
    r1 = einstein_check([y])["lambda"]
    r2 = einstein_check([rot @ y])["lambda"]
    assert abs(r1 - r2) < 1e-12


def test_einstein_angular_chart_scale_relation():
    # polar metric = 4 x (unit round); Ricci is invariant under constant
    # rescaling, so its Einstein constant is 3/4
    pts = [np.array([rng.uniform(0.8, 2.3), rng.uniform(0.8, 2.3),
                     rng.uniform(0, 6), rng.uniform(0, 6)]) for _ in range(5)]
    rep = einstein_check(pts, metric_fn=angular_jet)
    assert rep["relative_spread"] < 1e-12
    assert rep["lambda"] == pytest.approx(0.75, abs=1e-12)


def test_einstein_and_integral_values_are_numpys_scalars():
    for rep in (einstein_check(random_chart_points(rng, 3)),
                einstein_check([np.array([1.0, 1.0, 0.5, 0.5])],
                               metric_fn=angular_jet)):
        assert {type(v) for v in rep.values()} == {np.float64}
    assert type(weighted_absolute_integral(make_f0(), 0.1)) is np.float64


def test_ricci_is_symmetric():
    # the Ricci tensor that einstein_check reads off a chart's metric jet
    y = rng.uniform(-1, 1, 4)
    r = _ricci(*fs_jet(y))
    assert np.abs(r - r.T).max() < 1e-12


# -- radial solutions ------------------------------------------------------------------

def test_f0_residual_and_equator():
    f0 = make_f0()
    for w in np.linspace(0.1, math.pi - 0.1, 50):
        assert abs(lb_radial_residual(f0, w)) < 1e-10
    assert abs(f0.value(math.pi / 2)) < 1e-12
    # continuity across the equator
    eps = 1e-6
    assert abs(f0.value(math.pi / 2 + eps)
               - f0.value(math.pi / 2 - eps)) < 1e-5


def test_f0_derivatives_match_finite_differences():
    f0 = make_f0()
    h = 1e-6
    for w in (0.5, 1.2, 2.2):
        _, df, ddf = f0._jet(w)
        fd = (f0.value(w + h) - f0.value(w - h)) / (2 * h)
        assert abs(fd - df) < 1e-7
        fd2 = (f0.value(w + h) - 2 * f0.value(w) + f0.value(w - h)) / h ** 2
        assert abs(fd2 - ddf) < 1e-3


def test_values_near_the_poles_need_no_derivative():
    # value is the closed form alone: its derivatives overflow or divide by
    # zero sooner towards a pole than the profile itself does
    assert math.isfinite(make_f0().value(1e-100))
    assert math.isfinite(make_gl(1, 0).value(1e-60))


@pytest.mark.parametrize("eps", [0.0, -0.1, 2.0, math.pi / 2, math.nan])
def test_weighted_integral_outside_its_range_is_a_chart_boundary(eps):
    # eps <= 0 reaches the poles; eps >= pi/2 leaves an empty or reversed
    # interval
    with pytest.raises(ChartBoundary):
        weighted_absolute_integral(make_f0(), eps)


@pytest.mark.parametrize("omega", [0.0, -0.5, math.pi, 3.2, math.nan, 1e-200])
def test_values_outside_the_chart_are_a_chart_boundary(omega):
    # 1e-200 is interior, but the profile there is past the float range
    for sol in (make_f0(), make_gl(1, 0)):
        with pytest.raises(ChartBoundary):
            sol.value(omega)


def test_gl_residuals():
    for ell, big_n in ((1, 0), (Fraction(3, 2), 0), (2, 0), (2, 1)):
        sol = make_gl(ell, big_n)
        for w in np.linspace(0.3, math.pi - 0.3, 50):
            assert abs(lb_radial_residual(sol, w)) < 1e-8
        # scaled residual is pole-uniform over the default grid
        for w in np.linspace(0.051, math.pi - 0.051, 100):
            assert abs(lb_radial_residual_scaled(sol, w)) < 1e-12


def test_gl_derivatives_match_finite_differences():
    sol = make_gl(2, 1)
    h = 1e-6
    for w in (0.8, 1.5, 2.3):
        fd = (sol.value(w + h) - sol.value(w - h)) / (2 * h)
        assert abs(fd - sol._jet(w)[1]) < 1e-6 * max(1, abs(fd))


def test_theta_values():
    assert make_gl(1, 0).theta == 1.0
    assert make_gl(Fraction(3, 2), 0).theta_sq == 2.5
    assert make_gl(2, 0).theta_sq == 4.5
    assert make_gl(2, 1).theta == 1.0
    for ell, big_n in ((1, 0), (2, 1), (3, 2)):
        expected = (ell + 1 - big_n) * (ell - 0.5 - big_n)
        assert make_gl(ell, big_n).theta_sq == expected


def test_gl_coefficients_values():
    # N = 0: single coefficient (2l)! Gamma(N - 2l - 1/2); here 2! Gamma(-5/2)
    coeffs = make_gl(1, 0).coeffs
    assert len(coeffs) == 1
    assert coeffs[0] == pytest.approx(math.gamma(3) * math.gamma(-2.5),
                                      rel=1e-12)
    # ratio a1/a0 for (2, 1) from the gamma form
    coeffs = make_gl(2, 1).coeffs
    assert coeffs[1] / coeffs[0] == pytest.approx(-7.0 / 8.0, rel=1e-12)


def test_half_integer_admissible():
    sol = make_gl(Fraction(3, 2), 0)
    for w in np.linspace(0.4, math.pi - 0.4, 20):
        assert abs(lb_radial_residual(sol, w)) < 1e-8


def test_termination_gates():
    with pytest.raises(TerminationViolated):
        make_gl(Fraction(1, 2), 0)    # requires N < 0
    with pytest.raises(TerminationViolated):
        make_gl(1, 2)                 # N < l + 1 = 2
    with pytest.raises(TerminationViolated):
        make_gl(Fraction(3, 2), 1)    # N < l - 1/2 = 1
    with pytest.raises(TerminationViolated):
        make_gl(1.3, 0)               # not half-integer
    with pytest.raises(TerminationViolated):
        make_gl(2, -1)


@pytest.mark.parametrize("ell, big_n, message", [
    # N is read as an integer type: a float N, even 1.0, never reaches the
    # coefficient loop
    (1, 1.0, "N must be a nonnegative integer, got 1.0"),
    (1, math.nan, "N must be a nonnegative integer, got nan"),
    (1, math.inf, "N must be a nonnegative integer, got inf"),
    # an l with no exact value is no integer or half-integer
    (math.nan, 0, "l must be integer or half-integer, got nan"),
    (math.inf, 0, "l must be integer or half-integer, got inf"),
])
def test_termination_gate_refuses_what_the_body_cannot_take(ell, big_n,
                                                             message):
    with pytest.raises(TerminationViolated) as err:
        make_gl(ell, big_n)
    assert str(err.value) == message


def test_termination_gate_takes_numpy_integers():
    sol = make_gl(np.int64(2), np.int64(1))
    assert sol.coeffs == make_gl(2, 1).coeffs


def test_pole_exclusion_gate():
    f0 = make_f0()
    with pytest.raises(TooCloseToPole):
        lb_radial_residual(f0, 0.01)
    with pytest.raises(TooCloseToPole):
        lb_radial_residual_scaled(f0, math.pi - 0.001)


def test_integrability_flags_and_numeric_behaviour():
    f0 = make_f0()
    assert f0.integrable
    g1 = make_gl(1, 0)
    assert not g1.integrable
    assert not make_gl(Fraction(3, 2), 0).integrable
    # numeric: the weighted integral of f0 converges monotonically, g1 grows
    eps_values = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
    f0_vals = [weighted_absolute_integral(f0, e) for e in eps_values]
    assert all(b >= a - 1e-9 for a, b in zip(f0_vals, f0_vals[1:]))
    assert f0_vals[-1] - f0_vals[-2] < 0.01          # bounded tail
    g1_vals = [weighted_absolute_integral(g1, e) for e in eps_values]
    assert g1_vals[-1] - g1_vals[-2] > 1.0           # keeps growing


def test_solution_eigen_term_consistency():
    # single-power solutions satisfy the equation only with the doubled
    # frequency; using theta^2 alone leaves a nonzero residual
    sol = make_gl(1, 0)
    w = 1.0
    s = math.sin(w)
    f, df, ddf = sol._jet(w)
    wrong = (ddf + 3 * math.cos(w) / s * df
             - (2 * 1 * (2 * 1 + 2)) / s ** 2 * f + sol.theta_sq * f)
    assert abs(wrong) > 1e-3
    assert abs(lb_radial_residual(sol, w)) < 1e-10
