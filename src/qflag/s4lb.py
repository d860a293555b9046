"""Geometry of the 4-sphere and radial Laplace-Beltrami solutions.

Two charts are provided.  Inhomogeneous coordinates y in R^4 (antipodal
projection of the unit sphere) carry the Fubini-Study line element

    ds^2 = (1 + y y')^{-1} dy (1 + y' y)^{-1} dy',

which is the unit round metric; its Ricci tensor is 3 g, checked here by
finite differences.  Polar coordinates (omega, alpha, beta, gamma) carry

    ds^2 = 4 domega^2 + sin^2(omega) [dalpha^2 + dbeta^2 + dgamma^2
                                      + 2 cos(alpha) dbeta dgamma].

Separating the angular operator out of the Laplacian leaves the radial
equation

    f'' + 3 cot(omega) f' - [2l(2l+2)/sin^2(omega)] f + (2 theta)^2 f = 0

away from the poles, where theta^2 = (l+1-N)(l-1/2-N) and the last term is
absent for the static l = 0 solution

    f0 = -cot(omega)/sin(omega) + log(tan(omega/2)).

The eigenvalue enters the radial equation as (2 theta)^2, not theta^2: this
factor of two is forced by the displayed polynomial solutions, as one sees
by substituting a single power of sin(omega) into the equation, and the
time dependence is exp(2 i theta t) accordingly.  The polynomial family

    g_l = sin(omega)^{-2(l+1)} sum_{n=0}^{N} a_n sin(omega)^{2n},
    a_n = (2l-n)! (N-2l-3/2+n)! / [n! (N-n)!]

terminates when N < l+1 for integer l and N < l-1/2 for half-integer l;
half-integer factorials are evaluated through the gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (ChartBoundary, CoefficientOverflow, TerminationViolated,
                     TooCloseToPole)

POLE_MARGIN = 0.05


def fs_metric(y) -> np.ndarray:
    """Round metric on the y-chart: (I - y y'/(1+|y|^2)) / (1+|y|^2)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (4,):
        raise ChartBoundary(f"expected a point in R^4, got shape {y.shape}")
    s = 1.0 + float(y @ y)
    return (np.eye(4) - np.outer(y, y) / s) / s


def angular_metric(omega: float, alpha: float) -> np.ndarray:
    """Polar-chart metric in coordinate order (omega, alpha, beta, gamma)."""
    if not (0.0 < omega < math.pi) or not (0.0 < alpha < math.pi):
        raise ChartBoundary(f"(omega, alpha) = ({omega}, {alpha}) not interior")
    s2 = math.sin(omega) ** 2
    g = np.zeros((4, 4))
    g[0, 0] = 4.0
    g[1, 1] = s2
    g[2, 2] = s2
    g[3, 3] = s2
    g[2, 3] = g[3, 2] = s2 * math.cos(alpha)
    return g


# -- finite-difference curvature ----------------------------------------------

_STEP = 1e-4            # central-difference step of Christoffel and Ricci
_OFFDIAG_FLOOR = 1e-8   # metric entries this small count as zero


def christoffel(metric_fn, point) -> np.ndarray:
    """Gamma^k_{ij} by central differences of the metric."""
    point = np.asarray(point, dtype=float)
    dim = point.size
    g = metric_fn(point)
    g_inv = np.linalg.inv(g)
    dg = np.empty((dim, dim, dim))
    for m, delta in enumerate(np.eye(dim) * _STEP):
        dg[m] = (metric_fn(point + delta) - metric_fn(point - delta)) / (2 * _STEP)
    # dg[m, i, j] = partial_m g_ij; build sym[i, j, l] =
    # partial_i g_jl + partial_j g_il - partial_l g_ij
    sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", g_inv, sym)


def ricci(metric_fn, point) -> np.ndarray:
    """Ricci tensor by differencing the Christoffel symbols."""
    point = np.asarray(point, dtype=float)
    dim = point.size
    dgamma = np.empty((dim, dim, dim, dim))
    for m, delta in enumerate(np.eye(dim) * _STEP):
        dgamma[m] = (christoffel(metric_fn, point + delta)
                     - christoffel(metric_fn, point - delta)) / (2 * _STEP)
    gamma = christoffel(metric_fn, point)
    # R_ij = d_k Gamma^k_ij - d_j Gamma^k_ik + Gamma^k_kl Gamma^l_ij
    #        - Gamma^k_jl Gamma^l_ik
    term1 = np.einsum("kkij->ij", dgamma)
    term2 = np.einsum("jkik->ij", dgamma)
    term3 = np.einsum("kkl,lij->ij", gamma, gamma)
    term4 = np.einsum("kjl,lik->ij", gamma, gamma)
    r = term1 - term2 + term3 - term4
    return (r + r.T) / 2.0


def einstein_check(points, metric_fn=fs_metric) -> dict:
    """Ratios Ricci_ij / g_ij over sample points.

    For an Einstein metric all ratios collapse onto a single constant; the
    spread is returned together with per-point estimates.  Off-diagonal
    Ricci components are compared against zero wherever the metric entry is
    negligible.
    """
    ratios = []
    per_point = []
    max_offdiag = 0.0
    for p in points:
        g = metric_fn(np.asarray(p, dtype=float))
        r = ricci(metric_fn, p)
        local = []
        for i in range(4):
            for j in range(4):
                if abs(g[i, j]) > _OFFDIAG_FLOOR:
                    local.append(r[i, j] / g[i, j])
                else:
                    max_offdiag = max(max_offdiag, abs(r[i, j]))
        ratios.extend(local)
        per_point.append(float(np.mean(local)))
    ratios = np.array(ratios)
    lam = float(ratios.mean())
    spread = float((ratios.max() - ratios.min()) / max(1e-30, abs(lam)))
    return {"lambda": lam, "relative_spread": spread,
            "per_point": per_point, "max_offdiagonal_ricci": max_offdiag}


def random_chart_points(rng: np.random.Generator, count: int,
                        radius: float = 1.2):
    """Interior sample points for the y-chart."""
    return [rng.uniform(-radius, radius, 4) for _ in range(count)]


# -- radial solutions ------------------------------------------------------------


def _is_half_integer(x: Fraction) -> bool:
    return x.denominator == 2


def _as_fraction(ell) -> Fraction:
    f = Fraction(ell).limit_denominator(2)
    if Fraction(ell) != f or f.denominator not in (1, 2):
        raise TerminationViolated(f"l must be integer or half-integer, got {ell}")
    if f < 0:
        raise TerminationViolated(f"l must be nonnegative, got {ell}")
    return f


def check_termination(ell, big_n: int) -> Fraction:
    f = _as_fraction(ell)
    if big_n < 0 or big_n != int(big_n):
        raise TerminationViolated(f"N must be a nonnegative integer, got {big_n}")
    if _is_half_integer(f):
        if not Fraction(big_n) < f - Fraction(1, 2):
            raise TerminationViolated(
                f"half-integer l = {f} requires N < l - 1/2, got N = {big_n}")
    else:
        if not Fraction(big_n) < f + 1:
            raise TerminationViolated(
                f"integer l = {f} requires N < l + 1, got N = {big_n}")
    return f


def _gamma_fact(x: float) -> float:
    """x! as Gamma(x+1), with poles mapped to infinity for the caller."""
    try:
        return math.gamma(x + 1.0)
    except OverflowError:
        raise CoefficientOverflow(f"({x:g})! overflows a float") from None


def gl_coefficients(ell, big_n: int):
    """The termination coefficients a_n, n = 0..N.

    Factorials of non-integers are evaluated as Gamma(x+1); a pole in one of
    the denominator factorials makes the whole coefficient vanish (the
    reciprocal gamma is entire), which is handled explicitly rather than by
    overflow.  Within the termination condition the numerator factors never
    sit on a pole.
    """
    f = check_termination(ell, big_n)
    two_ell = float(2 * f)
    out = []
    for nn in range(big_n + 1):
        denom_args = (float(nn), float(big_n - nn))
        if any(a < 0 and float(a).is_integer() for a in denom_args):
            out.append(0.0)
            continue
        num = _gamma_fact(two_ell - nn) * _gamma_fact(float(big_n) - two_ell - 1.5 + nn)
        den = _gamma_fact(denom_args[0]) * _gamma_fact(denom_args[1])
        out.append(num / den)
    return out


def theta_squared(ell, big_n: int) -> float:
    f = _as_fraction(ell)
    return float((f + 1 - big_n) * (f - Fraction(1, 2) - big_n))


@dataclass(frozen=True)
class RadialSolution:
    """Closed-form radial profile with exact analytic derivatives."""

    kind: str                      # "f0" or "g_ell"
    ell: Fraction
    big_n: int
    coeffs: tuple = ()
    theta_sq: float = 0.0
    integrable: bool = field(default=False)

    @property
    def theta(self) -> float:
        if self.theta_sq < 0:
            raise TerminationViolated(
                f"theta^2 = {self.theta_sq} < 0 has no real frequency")
        return math.sqrt(self.theta_sq)

    def value(self, omega: float) -> float:
        s = math.sin(omega)
        if self.kind == "f0":
            return -math.cos(omega) / s ** 2 + math.log(math.tan(omega / 2.0))
        return sum(a * s ** (2 * nn - 2 * (float(self.ell) + 1))
                   for nn, a in enumerate(self.coeffs))

    def derivative(self, omega: float) -> float:
        s, c = math.sin(omega), math.cos(omega)
        if self.kind == "f0":
            return 2.0 / s ** 3
        total = 0.0
        for nn, a in enumerate(self.coeffs):
            mu = 2 * nn - 2 * (float(self.ell) + 1)
            total += a * mu * s ** (mu - 1) * c
        return total

    def second_derivative(self, omega: float) -> float:
        s, c = math.sin(omega), math.cos(omega)
        if self.kind == "f0":
            return -6.0 * c / s ** 4
        total = 0.0
        for nn, a in enumerate(self.coeffs):
            mu = 2 * nn - 2 * (float(self.ell) + 1)
            total += a * mu * ((mu - 1) * s ** (mu - 2) * c ** 2 - s ** mu)
        return total


def make_f0() -> RadialSolution:
    return RadialSolution(kind="f0", ell=Fraction(0), big_n=0,
                          theta_sq=0.0, integrable=True)


def make_gl(ell, big_n: int) -> RadialSolution:
    f = check_termination(ell, big_n)
    return RadialSolution(
        kind="g_ell", ell=f, big_n=big_n,
        coeffs=tuple(gl_coefficients(f, big_n)),
        theta_sq=theta_squared(f, big_n),
        integrable=bool(f <= Fraction(1, 2)),
    )


def lb_radial_residual(sol: RadialSolution, omega: float) -> float:
    """Residual of the radial equation at one interior point.

    Uses the exact closed-form derivatives of the stored solution; the
    eigenvalue term is (2 theta)^2 (zero for the static solution).
    """
    if not (POLE_MARGIN < omega < math.pi - POLE_MARGIN):
        raise TooCloseToPole(f"omega = {omega} inside the pole exclusion zone")
    s = math.sin(omega)
    ell = float(sol.ell)
    angular = 2.0 * ell * (2.0 * ell + 2.0) / s ** 2
    return (sol.second_derivative(omega)
            + 3.0 * (math.cos(omega) / s) * sol.derivative(omega)
            - angular * sol.value(omega)
            + 4.0 * sol.theta_sq * sol.value(omega))


def lb_radial_residual_scaled(sol: RadialSolution, omega: float) -> float:
    """Residual relative to the largest term magnitude.

    The individual terms of the equation grow like sin(omega)^{-2l-4}
    towards the poles, so an absolute residual there measures rounding of
    huge cancelling terms rather than correctness; dividing by the term
    scale gives a pole-uniform check.
    """
    if not (POLE_MARGIN < omega < math.pi - POLE_MARGIN):
        raise TooCloseToPole(f"omega = {omega} inside the pole exclusion zone")
    s = math.sin(omega)
    ell = float(sol.ell)
    terms = (
        sol.second_derivative(omega),
        3.0 * (math.cos(omega) / s) * sol.derivative(omega),
        -2.0 * ell * (2.0 * ell + 2.0) / s ** 2 * sol.value(omega),
        4.0 * sol.theta_sq * sol.value(omega),
    )
    scale = max(1.0, max(abs(t) for t in terms))
    return sum(terms) / scale


def weighted_absolute_integral(sol: RadialSolution, eps: float,
                               points: int = 4000) -> float:
    """integral of |f| sin^3(omega) over (eps, pi - eps), trapezoidal.

    Monotone bounded as eps -> 0 exactly when the source profile is
    integrable against the volume weight; the polynomial family with l > 1/2
    diverges.
    """
    xs = np.linspace(eps, math.pi - eps, points)
    ys = np.array([abs(sol.value(x)) * math.sin(x) ** 3 for x in xs])
    return float(np.trapezoid(ys, xs))
