"""Geometry of the 4-sphere and radial Laplace-Beltrami solutions.

Two charts are provided.  Inhomogeneous coordinates y in R^4 (antipodal
projection of the unit sphere) carry the Fubini-Study line element

    ds^2 = (1 + y y')^{-1} dy (1 + y' y)^{-1} dy',

which is the unit round metric; its Ricci tensor is 3 g, checked here from
the closed-form derivatives of the metric.  Polar coordinates (omega, alpha,
beta, gamma) carry

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
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (ChartBoundary, CoefficientOverflow, TerminationViolated,
                     TooCloseToPole)

POLE_MARGIN = 0.05


def fs_metric(y) -> np.ndarray:
    """Round metric on the y-chart: (I - y y'/(1+|y|^2)) / (1+|y|^2)."""
    y = np.asarray(y, dtype=float)
    # a NaN, an infinity or a |y|^2 that overflows leaves s non-finite
    with np.errstate(over="ignore"):
        s = 1.0 + float(y @ y) if y.shape == (4,) else math.nan
    if not math.isfinite(s):
        raise ChartBoundary(f"not a finite point in R^4 of finite |y|^2: {y}")
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


# -- exact curvature ----------------------------------------------------------


def fs_jet(y):
    """(g, dg, ddg) of the y-chart metric: dg[m] = d_m g, ddg[m, n] = d_m d_n g."""
    g = fs_metric(y)
    y = np.asarray(y, dtype=float)
    eye, yy = np.eye(4), np.outer(y, y)
    # g = u 1 - u^2 y y' with u = 1/(1+|y|^2); du and du2 are the derivatives
    # of u and u^2, d_m u = -2 u^2 y_m
    u = 1.0 / (1.0 + float(y @ y))
    du, ddu = -2 * u ** 2 * y, 8 * u ** 3 * yy - 2 * u ** 2 * eye
    du2, ddu2 = -4 * u ** 3 * y, 24 * u ** 4 * yy - 4 * u ** 3 * eye
    # e[m] = d_m (y y') and ee[m, n] = d_m d_n (y y')
    e = np.einsum("mi,j->mij", eye, y) + np.einsum("mj,i->mij", eye, y)
    ee = np.einsum("mi,nj->mnij", eye, eye) + np.einsum("mj,ni->mnij", eye, eye)
    dg = du[:, None, None] * eye - du2[:, None, None] * yy - u ** 2 * e
    ddg = (ddu[:, :, None, None] * eye - ddu2[:, :, None, None] * yy
           - du2[:, None, None, None] * e - du2[None, :, None, None] * e[:, None]
           - u ** 2 * ee)
    return g, dg, ddg


def angular_jet(point):
    """(g, dg, ddg) of the polar metric diag(4, 0, 0, 0) + sin^2(omega) S(alpha)."""
    omega, alpha = point[0], point[1]
    g = angular_metric(omega, alpha)
    # s[d] and big_s[d]: the d-th derivatives of sin^2(omega) and S(alpha)
    s = (math.sin(omega) ** 2, math.sin(2 * omega), 2 * math.cos(2 * omega))
    big_s = np.zeros((3, 4, 4))
    big_s[0, 1:, 1:] = np.eye(3)
    big_s[:, 2, 3] = big_s[:, 3, 2] = (math.cos(alpha), -math.sin(alpha),
                                       -math.cos(alpha))
    dg, ddg = np.zeros((4, 4, 4)), np.zeros((4, 4, 4, 4))
    dg[0], dg[1] = s[1] * big_s[0], s[0] * big_s[1]
    ddg[0, 0], ddg[1, 1] = s[2] * big_s[0], s[0] * big_s[2]
    ddg[0, 1] = ddg[1, 0] = s[1] * big_s[1]
    return g, dg, ddg


def _ricci(g, dg, ddg) -> np.ndarray:
    """Ricci tensor of a metric 2-jet; leading axes are a batch."""
    g_inv = np.linalg.inv(g)
    # sym[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij and its derivatives dsym[m]
    sym, dsym = (d + np.einsum("...jil->...ijl", d) - np.einsum("...lij->...ijl", d)
                 for d in (dg, ddg))
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", g_inv, sym)
    # d_m Gamma^k_ij = 1/2 g^kl d_m sym_ijl - g^ka d_m g_ab Gamma^b_ij
    dgamma = (0.5 * np.einsum("...kl,...mijl->...mkij", g_inv, dsym)
              - np.einsum("...ka,...mab,...bij->...mkij", g_inv, dg, gamma))
    # R_ij = d_k Gamma^k_ij - d_j Gamma^k_ik + Gamma^k_kl Gamma^l_ij
    #        - Gamma^k_jl Gamma^l_ik
    return (np.einsum("...kkij->...ij", dgamma) - np.einsum("...jkik->...ij", dgamma)
            + np.einsum("...kkl,...lij->...ij", gamma, gamma)
            - np.einsum("...kjl,...lik->...ij", gamma, gamma))


def einstein_check(points, metric_fn=fs_jet) -> dict:
    """Einstein constant of a metric jet ``metric_fn`` over sample points.

    ``lambda`` is the mean of tr(g^-1 Ric)/4 and ``relative_spread`` the
    largest |Ric - lambda g| / |lambda|; Ricci is compared against zero
    wherever the metric entry is exactly zero.
    """
    g, dg, ddg = map(np.array, zip(*map(metric_fn, points)))
    ric = _ricci(g, dg, ddg)
    lam = np.trace(np.linalg.solve(g, ric), axis1=1, axis2=2).mean() / 4
    return {"lambda": lam,
            "relative_spread": np.abs(ric - lam * g).max() / abs(lam),
            "max_offdiagonal_ricci": np.abs(ric[g == 0.0]).max(initial=0.0)}


def random_chart_points(rng: np.random.Generator, count: int):
    """Interior sample points for the y-chart, uniform on [-1.2, 1.2]^4."""
    return [rng.uniform(-1.2, 1.2, 4) for _ in range(count)]


# -- radial solutions ------------------------------------------------------------


def check_termination(ell, big_n: int) -> Fraction:
    """``ell`` as a Fraction once it is a nonnegative integer or
    half-integer (a NaN or an infinity is neither) and ``big_n`` a
    nonnegative integer, of an integer type, inside the termination bound."""
    try:
        f = Fraction(ell)
    except (TypeError, ValueError, OverflowError):
        f = None
    if f is None or f.denominator not in (1, 2):
        raise TerminationViolated(f"l must be integer or half-integer, got {ell}")
    if f < 0:
        raise TerminationViolated(f"l must be nonnegative, got {ell}")
    try:
        n = operator.index(big_n)
    except TypeError:               # a float, 1.0 included
        n = -1
    if n < 0:
        raise TerminationViolated(f"N must be a nonnegative integer, got {big_n}")
    kind, bound, rule = (("half-integer", f - Fraction(1, 2), "l - 1/2")
                         if f.denominator == 2 else ("integer", f + 1, "l + 1"))
    if not n < bound:
        raise TerminationViolated(
            f"{kind} l = {f} requires N < {rule}, got N = {big_n}")
    return f


def _gamma_fact(x: float) -> float:
    """x! as Gamma(x+1); a value past the float range raises
    CoefficientOverflow."""
    try:
        return math.gamma(x + 1.0)
    except OverflowError:
        raise CoefficientOverflow(f"({x:g})! overflows a float") from None


def _gl_coefficients(f: Fraction, big_n: int) -> list:
    """The termination coefficients a_n, n = 0..N, of the checked l = ``f``.

    Factorials of non-integers are evaluated as Gamma(x+1).  Within the
    termination condition the numerator factors never sit on a pole.
    """
    try:
        two_ell = float(2 * f)
    except OverflowError:
        raise CoefficientOverflow("2 l overflows a float") from None
    out = []
    for nn in range(big_n + 1):
        num = _gamma_fact(two_ell - nn) * _gamma_fact(float(big_n) - two_ell - 1.5 + nn)
        den = _gamma_fact(float(nn)) * _gamma_fact(float(big_n - nn))
        out.append(num / den)
    return out


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
        """The profile at ``omega`` in (0, pi); a point outside, or so near
        a pole that the powers of sin(omega) leave the float range, raises
        :class:`ChartBoundary`."""
        if not 0.0 < omega < math.pi:
            raise ChartBoundary(f"omega = {omega} outside (0, pi)")
        s = math.sin(omega)
        try:
            if self.kind == "f0":
                return -math.cos(omega) / s ** 2 + math.log(math.tan(omega / 2.0))
            return sum(a * s ** (2 * nn - 2 * (float(self.ell) + 1))
                       for nn, a in enumerate(self.coeffs))
        except (ZeroDivisionError, OverflowError):
            raise ChartBoundary(f"omega = {omega} is too close to a pole "
                                "for a float value") from None

    def _jet(self, omega: float) -> tuple:
        """(f, f', f'') at ``omega``: :meth:`value`, then both derivatives
        in one pass over the coefficients."""
        f = self.value(omega)
        s, c = math.sin(omega), math.cos(omega)
        if self.kind == "f0":
            return f, 2.0 / s ** 3, -6.0 * c / s ** 4
        df = ddf = 0.0
        for nn, a in enumerate(self.coeffs):
            mu = 2 * nn - 2 * (float(self.ell) + 1)
            df += a * mu * s ** (mu - 1) * c
            ddf += a * mu * ((mu - 1) * s ** (mu - 2) * c ** 2 - s ** mu)
        return f, df, ddf


def make_f0() -> RadialSolution:
    return RadialSolution(kind="f0", ell=Fraction(0), big_n=0,
                          theta_sq=0.0, integrable=True)


def make_gl(ell, big_n: int) -> RadialSolution:
    f = check_termination(ell, big_n)
    return RadialSolution(
        kind="g_ell", ell=f, big_n=big_n,
        coeffs=tuple(_gl_coefficients(f, big_n)),
        theta_sq=float((f + 1 - big_n) * (f - Fraction(1, 2) - big_n)),
        integrable=bool(f <= Fraction(1, 2)),
    )


def _radial_terms(sol: RadialSolution, omega: float) -> tuple:
    """The four terms of the radial equation at one interior point, from
    the exact closed-form derivatives of the stored solution: f'',
    3 cot(omega) f', the angular term -2l(2l+2) f / sin^2 and the eigenvalue
    term (2 theta)^2 f (zero for the static solution)."""
    if not (POLE_MARGIN < omega < math.pi - POLE_MARGIN):
        raise TooCloseToPole(f"omega = {omega} inside the pole exclusion zone")
    s = math.sin(omega)
    ell = float(sol.ell)
    f, df, ddf = sol._jet(omega)
    return (ddf,
            3.0 * (math.cos(omega) / s) * df,
            -2.0 * ell * (2.0 * ell + 2.0) / s ** 2 * f,
            4.0 * sol.theta_sq * f)


def lb_radial_residual(sol: RadialSolution, omega: float) -> float:
    """Residual of the radial equation at one interior point."""
    return sum(_radial_terms(sol, omega))


def lb_radial_residual_scaled(sol: RadialSolution, omega: float) -> float:
    """Residual relative to the largest term magnitude.

    The individual terms of the equation grow like sin(omega)^{-2l-4}
    towards the poles, so an absolute residual there measures rounding of
    huge cancelling terms rather than correctness; dividing by the term
    scale gives a pole-uniform check.
    """
    terms = _radial_terms(sol, omega)
    return sum(terms) / max(1.0, max(abs(t) for t in terms))


def weighted_absolute_integral(sol: RadialSolution, eps: float) -> float:
    """integral of |f| sin^3(omega) over (eps, pi - eps), trapezoidal on
    4000 points.

    Monotone bounded as eps -> 0 exactly when the source profile is
    integrable against the volume weight; the polynomial family with l > 1/2
    diverges.  ``eps`` outside (0, pi/2) raises :class:`ChartBoundary`.
    """
    if not 0.0 < eps < math.pi / 2:
        raise ChartBoundary(f"eps = {eps} outside (0, pi/2)")
    xs = np.linspace(eps, math.pi - eps, 4000)
    ys = np.array([abs(sol.value(x)) * math.sin(x) ** 3 for x in xs])
    return np.trapezoid(ys, xs)
