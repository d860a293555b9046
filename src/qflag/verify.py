"""Named invariant suites with machine-readable results.

Each check unit, registered with :func:`_unit` in report order, re-derives
identities its module promises on seeded random draws: it declares its
check names once, draws from the generator keyed by (seed, first name) and
yields one ``(residual, tolerance[, detail])`` per name, which the runner
turns into a :class:`CheckResult`.  A check's suite is its name's prefix.
The CLI renders the results as JSON; tests assert on them directly, and a
rerun with the same configuration is bit-identical.

Draw contract: a numeric check reads its Gaussian inputs as one
standard-normal block of shape (draws, total), one row per draw holding every
position in order (:func:`_draw_batches`), and each uniform input as one
further block.  Only a few single draws and the library samplers behind the
s4 and em checks (``s4lb.random_chart_points``, ``emfield.random_field``)
read the generator draw by draw.  Points on S^3 come from the library's
``random_unit_quaternions``; the 10^6-draw S^3 sampling statistics (the
component means and fourth moments) read them in blocks of ``S3_BLOCK``
rows, so a pass's memory does not grow with its draw counts.  The Haar
checks' fiber averages are exact and draw nothing.

A :class:`~qflag.errors.QflagError` raised inside a unit (say, a broken
kernel making a drawn element non-unitary) replaces its checks with the
failed check ``<first name>.error``, the message as its detail; the other
units still run, and the run writes its report and fails with it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import coset, dynamics, emfield, forms, liealg, roots as roots_mod, s4lb
from .coset import GrassmannPoint
from .errors import QflagError, UnknownSuite, UnknownTolerance
from .quaternion import (Quaternion, from_m2c, j_conjugate,
                         random_unit_quaternion, random_unit_quaternions,
                         sq_norms, to_m2c)
from .quatmat import (GroupElement, QuatMatrix, expm, func_hermitian,
                      random_group_element, random_skew_adjoint, sp2nc_form,
                      to_sp2nc)

SCHEMA_VERSION = 1
# rows per block of the streamed S^3 sampling statistics
S3_BLOCK = 1 << 14


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "residual": float(self.residual),
                "tolerance": float(self.tolerance), "detail": self.detail}


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 0          # 0 means each check's own default
    tol_overrides: dict = field(default_factory=dict)

    def rng(self, check_name: str) -> np.random.Generator:
        return np.random.default_rng(
            (self.seed << 16) ^ zlib.crc32(check_name.encode()))

    def count(self, default: int) -> int:
        return self.trials if self.trials > 0 else default

    def tol(self, name: str, default: float) -> float:
        return float(self.tol_overrides.get(name, default))


def _draw_batches(rng: np.random.Generator, count: int, *specs):
    """``count`` rounds of draws as one QuatMatrix batch per spec
    ``(rows, cols, scale, skew)``, read from ``rng`` as one standard-normal
    block of ``count`` rows.

    Each row holds one round's draws, position by position, as a loop of
    ``random_quatmat(rng, rows, cols, scale)`` calls reads them; a ``skew``
    position is then ``(m - m*) / 2``, as ``random_skew_adjoint`` makes it.
    The batches equal such a loop bit for bit.
    """
    sizes = [rows * cols * 4 for rows, cols, _, _ in specs]
    block = rng.standard_normal((count, sum(sizes)))
    out, start = [], 0
    for (rows, cols, scale, skew), size in zip(specs, sizes):
        m = QuatMatrix(scale * block[:, start:start + size].reshape(
            count, rows, cols, 4))
        out.append((m - m.adjoint()) * 0.5 if skew else m)
        start += size
    return out


def _skew_draw(n: int, scale: float = 1.0):
    """Spec of a skew-adjoint generator; at scale 0.7 it is the generator
    that ``random_group_element(rng, n)`` exponentiates."""
    return (n, n, scale, True)


def _quatmat_draw(rows: int, cols: int, scale: float = 1.0):
    return (rows, cols, scale, False)


def _quat_pairs(rng: np.random.Generator, count: int):
    """``count`` pairs of 1x1 quaternion matrices, read from ``rng`` as
    ``count`` pairs of ``random_quaternion(rng)`` calls read it."""
    return _draw_batches(rng, count, _quatmat_draw(1, 1), _quatmat_draw(1, 1))


def _quat_norm(q: np.ndarray) -> np.ndarray:
    return np.sqrt(sq_norms(q))


def s3_moments(rng: np.random.Generator, draws: int):
    """The ``(4,)`` component means of ``draws`` points of
    ``random_unit_quaternions``, and the mean of ``q_c^4`` over the points
    and their 4 components.

    The points are drawn and summed ``S3_BLOCK`` rows at a time, so memory
    does not grow with ``draws``.  The means' sum runs row by row through
    the blocks, so they equal those of all ``draws`` rows drawn at once,
    normalised by ``np.linalg.norm`` and averaged, bit for bit.  The fourth
    powers, which the report does not pin to that order, are summed pairwise
    per block, several times faster.
    """
    total = np.zeros(4)
    fourth = 0.0
    for start in range(0, draws, S3_BLOCK):
        comp = random_unit_quaternions(rng, min(S3_BLOCK, draws - start))
        power = np.square(comp)
        power *= power
        fourth += float(power.sum())
        comp[0] += total
        total = comp.sum(axis=0)
    return total / draws, fourth / (4 * draws)


# (check names, body) of every check unit, in report order
UNITS = []


def _unit(*names):
    """Register ``body(cfg, rng)`` as the unit of the checks ``names``: it
    reads its draws from ``rng = cfg.rng(names[0])`` and yields one
    ``(residual, tolerance[, detail])`` per name, in order."""
    def register(body):
        UNITS.append((names, body))
        return body
    return register


def _run_unit(names, body, cfg: RunConfig) -> list:
    """A unit's checks under ``cfg``'s tolerances, or, if it raises a
    :class:`QflagError`, the one failed check ``<first name>.error`` (a
    broken kernel fails checks; it does not crash the run)."""
    try:
        rows = list(body(cfg, cfg.rng(names[0])))
    except QflagError as exc:
        return [CheckResult(f"{names[0]}.error", False, 1.0, 0.5,
                            f"{type(exc).__name__}: {exc}; not run: "
                            + ", ".join(names))]
    checks = []
    for name, (residual, tolerance, *detail) in zip(names, rows, strict=True):
        tolerance = cfg.tol(name, tolerance)
        checks.append(CheckResult(name, residual < tolerance, float(residual),
                                  tolerance, *detail))
    return checks


# -- quaternion ---------------------------------------------------------------

@_unit("quaternion.norm_multiplicative")
def _(cfg, rng):
    a, b = _quat_pairs(rng, cfg.count(10_000))
    lhs = sq_norms((a @ b).a)
    rhs = sq_norms(a.a) * sq_norms(b.a)
    worst = float((np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max())
    yield worst, 1e-12


@_unit("quaternion.conj_antihomomorphism")
def _(cfg, rng):
    a, b = _quat_pairs(rng, cfg.count(10_000))
    yield float(_quat_norm(((a @ b).adjoint()
                            - b.adjoint() @ a.adjoint()).a).max()), 1e-13


@_unit("quaternion.m2c_homomorphism", "quaternion.m2c_round_trip")
def _(cfg, rng):
    a, b = _quat_pairs(rng, cfg.count(10_000))
    worst = float(np.abs((a @ b).embed() - a.embed() @ b.embed()).max())
    # spot check on 16 pairs of the scalar API forms still uses
    ps, qs = ([Quaternion.from_array(v) for v in m.a[:16, 0, 0]]
              for m in (a, b))
    worst = max([worst] + [float(np.abs(to_m2c(p * q)
                                        - to_m2c(p) @ to_m2c(q)).max())
                           for p, q in zip(ps, qs)])
    round_trip_exact = (np.array_equal(QuatMatrix.project(a.embed()).a, a.a)
                        and all(from_m2c(to_m2c(p)) == p for p in ps))
    yield worst, 1e-12
    yield (0.0 if round_trip_exact else 1.0, 0.5,
           "bit-exact inverse of the embedding")


@_unit("quaternion.j_conjugation")
def _(cfg, rng):
    (m,) = _draw_batches(rng, cfg.count(1000), _quatmat_draw(1, 1))
    m = m.embed()
    yield (max(float(np.abs(j_conjugate(m) - m.conj()).max()),
               float(np.abs(j_conjugate(j_conjugate(m)) - m).max())), 1e-13,
           "entrywise conjugate and involution")


# -- quatmat -------------------------------------------------------------------

@_unit("quatmat.embedding_faithful")
def _(cfg, rng):
    a, b, c = _draw_batches(rng, cfg.count(500), _quatmat_draw(3, 4),
                            _quatmat_draw(4, 2), _quatmat_draw(3, 4))
    yield max(float(np.abs((a @ b).embed() - a.embed() @ b.embed()).max()),
              float(np.abs(a.adjoint().embed()
                           - a.embed().conj().swapaxes(-1, -2)).max()),
              float(np.abs((a + c).embed()
                           - (a.embed() + c.embed())).max())), 1e-11


@_unit("quatmat.exp_group_membership")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(50), _skew_draw(3))
    g = expm(QuatMatrix(gen.a[:, None]) * np.array([0.1, 1.0, 10.0]))
    yield (g.adjoint() @ g - QuatMatrix.identity(3)).max_abs(), 1e-10


@_unit("quatmat.exp_inverse")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(200), _skew_draw(3))
    yield (expm(gen) @ expm(-gen) - QuatMatrix.identity(3)).max_abs(), 1e-10


@_unit("quatmat.unit_determinant")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(100), _skew_draw(3, 0.7))
    yield float(np.abs(np.abs(np.linalg.det(expm(gen).embed()))
                       - 1.0).max()), 1e-9


@_unit("quatmat.sqrt_remultiplication")
def _(cfg, rng):
    (q,) = _draw_batches(rng, cfg.count(200), _quatmat_draw(3, 3))
    p = q @ q.adjoint()
    r = func_hermitian(p, "sqrt")
    scale = np.maximum(1.0, np.abs(p.a).max(axis=(-3, -2, -1), keepdims=True))
    yield float((np.abs((r @ r - p).a) / scale).max()), 1e-9


@_unit("quatmat.sp2nc_conditions")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(100), _skew_draw(2, 0.7))
    big = to_sp2nc(GroupElement(expm(gen), check=False))
    form = sp2nc_form(2)
    yield (max(float(np.abs(big.swapaxes(-1, -2) @ form @ big - form).max()),
               float(np.abs(big.conj().swapaxes(-1, -2) @ big
                            - np.eye(4)).max())), 1e-10,
           "simultaneously complex symplectic and unitary")


# -- coset ----------------------------------------------------------------------

_HALF, _TANGENT = _quatmat_draw(2, 2, 0.5), _quatmat_draw(2, 2)
_GROUP_GEN = _skew_draw(4, 0.7)


@_unit("coset.exponential_parameterisation")
def _(cfg, rng):
    (xi,) = _draw_batches(rng, cfg.count(200), _HALF)
    yield (coset.coset_element(xi).m
           - expm(coset.coset_generator(xi))).max_abs(), 1e-9


@_unit("coset.lft_two_forms", "coset.lft_group_law")
def _(cfg, rng):
    gen1, gen2, x = _draw_batches(rng, cfg.count(500), _GROUP_GEN,
                                  _GROUP_GEN, _HALF)
    g1, g2 = GroupElement(expm(gen1)), GroupElement(expm(gen2))
    x = GrassmannPoint(x)
    ya = coset.lft_apply(g1, x)
    yb = coset.lft_apply_second_form(g1, x)
    yield (ya.x - yb.x).max_abs(), 1e-9
    comp = coset.lft_apply(g2, ya)
    direct = coset.lft_apply(g2 @ g1, x)
    yield (comp.x - direct.x).max_abs(), 1e-8


@_unit("coset.transport_identities")
def _(cfg, rng):
    gen, xa, xb = _draw_batches(rng, cfg.count(500), _GROUP_GEN, _HALF, _HALF)
    res = coset.transport_identities(GroupElement(expm(gen)),
                                     GrassmannPoint(xa), GrassmannPoint(xb))
    yield max(float(r.max()) for r in res.values()), 1e-9


@_unit("coset.cross_ratio_invariance")
def _(cfg, rng):
    gen, *pts = _draw_batches(rng, cfg.count(500), _GROUP_GEN,
                              _HALF, _HALF, _HALF, _HALF)
    g = GroupElement(expm(gen))
    pts = [GrassmannPoint(p) for p in pts]
    cr = coset.cross_ratio(*pts)
    cr_moved = coset.cross_ratio(*[coset.lft_apply(g, p) for p in pts])
    worst = float((np.abs(cr - cr_moved) / np.maximum(1.0, np.abs(cr))).max())
    yield worst, 1e-8


@_unit("coset.metric_two_versions")
def _(cfg, rng):
    x, dx = _draw_batches(rng, cfg.count(500), _HALF, _TANGENT)
    x = GrassmannPoint(x)
    yield float(np.abs(coset.metric_form(x, dx)
                       - coset.metric_form_expanded(x, dx)).max()), 1e-10


@_unit("coset.metric_pushforward_invariance")
def _(cfg, rng):
    gen, x, dx = _draw_batches(rng, cfg.count(100), _GROUP_GEN,
                               _quatmat_draw(2, 2, 0.4), _TANGENT)
    yield float(coset.metric_invariance_residual(
        GroupElement(expm(gen)), GrassmannPoint(x), dx).max()), 1e-11


@_unit("coset.metric_inversion_invariance")
def _(cfg, rng):
    q, dq = _quat_pairs(rng, cfg.count(200))
    keep = _quat_norm(q.a[:, 0, 0]) >= 0.1
    yield float(coset.inversion_invariance_residual(
        GrassmannPoint(QuatMatrix(q.a[keep])),
        QuatMatrix(dq.a[keep])).max(initial=0.0)), 1e-12


@_unit("coset.curvature_trace_identity")
def _(cfg, rng):
    worst = 0.0
    for n, k in ((3, 1), (5, 2), (6, 3)):
        (q,) = _draw_batches(rng, cfg.count(100), _quatmat_draw(k, n, 0.8))
        lhs, rhs = coset.curvature_trace(q, n, k)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    yield worst, 1e-9


@_unit("coset.curvature_det_consistency")
def _(cfg, rng):
    (q,) = _draw_batches(rng, cfg.count(200), _quatmat_draw(2, 4, 0.7))
    _, gap = coset.curvature_det_gap(q, 4, 2)
    yield (float(gap.max()), 1e-8,
           "eigenvalue product vs embedding determinant root")


@_unit("coset.s3_sampling_uniform", "coset.s3_fourth_moment")
def _(cfg, rng):
    draws = cfg.count(1_000_000)
    means, fourth = s3_moments(rng, draws)
    sigma = 0.5 / math.sqrt(draws)   # per-component std of a unit 3-sphere
    yield (float(np.abs(means).max() / sigma), 4.0,
           "component means in units of the standard error")
    # On S^3, E[q_c^4] = 3/24 = 1/8, E[q_c^8] = 105/1920 and
    # E[q_c^4 q_d^4] = 9/1920, so the mean of q_c^4 over the 4 components has
    # variance 1/640 per draw.  It lies in [1/16, 1/4], so one draw is
    # within sqrt(640)/8 = 3.2 standard errors and a handful of draws
    # rarely reach 4.  A sampler that is not uniform but has zero means
    # moves it.
    sigma = 1.0 / math.sqrt(640.0 * draws)
    yield (abs(fourth - 0.125) / sigma, 4.0,
           "mean fourth moment of the components against 1/8 in units "
           "of the standard error")


@_unit("coset.haar_equivariance", "coset.haar_inner_product")
def _(cfg, rng):
    x = random_group_element(rng, 2)
    xi = [random_unit_quaternion(rng) for _ in range(2)]
    x_xi = GroupElement(x.m @ QuatMatrix.diag([u.to_array() for u in xi]),
                        check=False)

    def alpha(shifted):
        return shifted[:, [0, 1], [0, 1]]     # the entries (0, 0) and (1, 1)

    f_shift = coset.haar_average(alpha, coset.fundamental_action, x_xi)
    f_base = coset.haar_average(alpha, coset.fundamental_action, x)
    xi_conj = np.array([u.conj().to_array() for u in xi])
    moved = coset.fundamental_action(xi_conj, f_base)
    yield (float(_quat_norm(f_shift - moved).max()), 1e-12,
           "exact average over the Hurwitz-unit fiber nodes")
    yield (abs(coset.inner_product(f_shift, f_shift)
               - coset.inner_product(moved, moved)), 1e-12,
           "fiber shift leaves the inner product fixed")


# -- forms -----------------------------------------------------------------------

@_unit("forms.wedge_component_pattern", "forms.hodge_eigensectors")
def _(cfg, rng):
    sd, asd = forms.dY_wedge()
    # the six area elements (0,1), (2,3), (0,2), (1,3), (0,3), (1,2) of sd
    rows, cols = [0, 2, 0, 1, 0, 1], [1, 3, 2, 3, 3, 2]
    expected_sd = 2.0 * np.array([[0, -1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0],
                                  [0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, -1]])
    worst = max(_quat_norm(sd[rows, cols] - expected_sd).max(),
                _quat_norm(sd[0, 1:] + asd[0, 1:]).max(), np.abs(sd[..., 0]).max())
    yield (float(worst), 1e-15,
           "displayed +/- area-element pattern, no scalar part")
    worst = max(_quat_norm(forms.hodge_star(sd) - sd).max(),
                _quat_norm(forms.hodge_star(asd) + asd).max())
    yield float(worst), 1e-15, "+1 on the first product, -1 on the second"


@_unit("forms.wedge_bilinearity")
def _(cfg, rng):
    a, b, c = rng.standard_normal((cfg.count(100), 3, 4, 4)).swapaxes(0, 1)
    diff = forms.wedge(a + b, c) - (forms.wedge(a, c) + forms.wedge(b, c))
    yield float(_quat_norm(diff).max()), 1e-12


@_unit("forms.connection_skewness", "forms.connection_block_pairing",
       "forms.connection_value")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(20), _skew_draw(4))
    _, w12, w21, _ = forms.connection_blocks(gen, 0.3, 2, 2)
    full = forms.connection_along_path(gen, 0.3)
    yield (full + full.adjoint()).max_abs(), 1e-11
    yield (w21 + w12.adjoint()).max_abs(), 1e-11
    yield ((full - gen).max_abs(), 1e-11,
           "g* dg/dt along exp(t gen) equals gen")


@_unit("forms.isotropy_vanishing")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(20), _skew_draw(4))
    gen.a[:, :2, 2:, :] = 0.0
    gen.a[:, 2:, :2, :] = 0.0
    _, w12, w21, _ = forms.connection_blocks(gen, 0.4, 2, 2)
    yield (max(w12.max_abs(), w21.max_abs()), 1e-11,
           "block-diagonal paths carry no off-diagonal connection")


@_unit("forms.maurer_cartan")
def _(cfg, rng):
    g1, g2 = _draw_batches(rng, cfg.count(10), _skew_draw(3), _skew_draw(3))
    s, t = rng.uniform(-0.3, 0.3, (2, cfg.count(10)))
    yield (forms.maurer_cartan_residual(g1, g2, s, t), 1e-11,
           "exact derivatives of exp(s a + t b) from one dual block")


@_unit("forms.curvature_antisymmetry", "forms.curvature_scalar_parts",
       "forms.curvature_rank_one_magnitude")
def _(cfg, rng):
    rng = cfg.rng("forms.curvature_blocks")    # named after the call it feeds
    single = _quatmat_draw(1, 1)
    x, u, v, x1, u1, v1 = _draw_batches(
        rng, cfg.count(200), _HALF, _TANGENT, _TANGENT,
        _quatmat_draw(1, 1, 0.5), single, single)
    x, x1 = GrassmannPoint(x), GrassmannPoint(x1)
    blocks = forms.curvature_blocks(x, u, v)
    swapped = forms.curvature_blocks(x, v, u)
    yield (blocks["omega11"] + swapped["omega11"]).max_abs(), 1e-12
    yield (float(np.abs(np.abs(blocks["r11"][..., 0])
                        - np.abs(blocks["r22"][..., 0])).max()), 1e-8,
           "matrix-trace scalar parts agree (both vanish)")
    b1 = forms.curvature_blocks(x1, u1, v1)
    yield (float(np.abs(_quat_norm(b1["r11"]) - _quat_norm(b1["r22"])).max()),
           1e-8, "the two pieces share magnitude for two particles")


# -- liealg --------------------------------------------------------------------

@_unit("liealg.commutation_table_k1_n2", "liealg.commutation_table_k1_n3")
def _(cfg, rng):
    for k, n in ((1, 2), (1, 3)):
        rep = liealg.verify_commutation_table(k, n)
        failures = sum(e["operator_failures"] for e in rep["families"].values())
        yield float(failures), 0.5, "all seven relations, exact"


@_unit("liealg.generator_skewness")
def _(cfg, rng):
    bad = 0
    for al in range(2):
        for be in range(2):
            if liealg.gen_h(al, be, 1, 2).conjugate() != -liealg.gen_h(be, al, 1, 2):
                bad += 1
            if liealg.gen_H(al, be, 1, 2).conjugate() != -liealg.gen_H(be, al, 1, 2):
                bad += 1
    yield float(bad), 0.5, "h* = -h and H* = -H as operator identities"


@_unit("liealg.p_three_forms")
def _(cfg, rng):
    bad = 0
    for al in range(2):
        for a in range(2):
            p = liealg.gen_p(al, a, 1, 2)
            if p != liealg.gen_p_via_H(al, a, 1, 2):
                bad += 1
            if p != liealg.gen_p_via_h(al, a, 1, 2):
                bad += 1
            if liealg.linear_part(p) != liealg.DiffOperator.dbar(al, a):
                bad += 1
    yield (float(bad), 0.5,
           "all displayed forms of p agree; linear part is dbar")


@_unit("liealg.j_contraction_symmetry")
def _(cfg, rng):
    bad = 0
    for al in range(2):
        for be in range(2):
            if liealg.Jh(al, be, 1, 2) != liealg.Jh(be, al, 1, 2):
                bad += 1
            if liealg.JH(al, be, 1, 2) != liealg.JH(be, al, 1, 2):
                bad += 1
    yield float(bad), 0.5, "(Jh) and (JH) are symmetric"


@_unit("liealg.ladder_shifts")
def _(cfg, rng):
    # ladder_check raises NotEigenvector on a wrong shift, which fails the
    # unit as liealg.ladder_shifts.error
    z = liealg.PolyFunction.z
    for vec in (z(0, 0), z(0, 0) * z(0, 0), z(1, 1)):
        liealg.ladder_check(1, 2, vec)
    yield 0.0, 0.5, "+1 under p, -1 under pbar, exact"


@_unit("liealg.laplace_beltrami")
def _(cfg, rng):
    lap = liealg.laplace_beltrami(1, 2)
    bad = 0
    if not lap.apply(liealg.PolyFunction.constant(1)).is_zero():
        bad += 1
    if lap.conjugate() != lap:
        bad += 1
    # at (1, 2) each of h, H, p and pbar has 2 x 2 index pairs
    for kind in ("h", "H", "p", "pbar"):
        for ij in np.ndindex(2, 2):
            if not liealg.commutator(lap, liealg.generator(kind, ij, 1, 2)).is_zero():
                bad += 1
    yield (float(bad), 0.5,
           "kills constants, J-invariant, commutes with all 16 generators")


# -- s4 ---------------------------------------------------------------------------

@_unit("s4.f0_residual", "s4.f0_equator")
def _(cfg, rng):
    f0 = s4lb.make_f0()
    grid = np.linspace(0.1, math.pi - 0.1, 50)
    yield max(abs(s4lb.lb_radial_residual(f0, w)) for w in grid), 1e-10
    yield (abs(f0.value(math.pi / 2)), 1e-12,
           "continuity across the equator, value zero there")


@_unit("s4.gl_residual", "s4.theta_formula")
def _(cfg, rng):
    grid_gl = np.linspace(0.3, math.pi - 0.3, 50)
    worst = 0.0
    worst_theta = 0.0
    for ell, big_n in ((1, 0), (Fraction(3, 2), 0), (2, 0), (2, 1)):
        sol = s4lb.make_gl(ell, big_n)
        worst = max(worst, max(abs(s4lb.lb_radial_residual(sol, w))
                               for w in grid_gl))
        expected = math.sqrt(float((Fraction(ell) + 1 - big_n)
                                   * (Fraction(ell) - Fraction(1, 2) - big_n)))
        worst_theta = max(worst_theta, abs(sol.theta - expected))
    yield worst, 1e-8
    yield worst_theta, 1e-15, "sqrt((l+1-N)(l-1/2-N)) exactly"


@_unit("s4.integrability_flags")
def _(cfg, rng):
    flags_ok = (s4lb.make_f0().integrable
                and not s4lb.make_gl(1, 0).integrable
                and not s4lb.make_gl(Fraction(3, 2), 0).integrable)
    yield 0.0 if flags_ok else 1.0, 0.5, "integrable exactly for l <= 1/2"


@_unit("s4.einstein_y_chart", "s4.einstein_offdiagonal",
       "s4.einstein_chart_consistency")
def _(cfg, rng):
    pts = s4lb.random_chart_points(rng, cfg.count(20))
    rep = s4lb.einstein_check(pts)
    ang_pts = list(cfg.rng("s4.einstein_angular_chart").uniform(
        [0.7, 0.7, 0.0, 0.0], [2.4, 2.4, 6.0, 6.0], (4, 4)))
    rep_ang = s4lb.einstein_check(ang_pts, metric_fn=s4lb.angular_jet)
    yield rep["relative_spread"], 1e-12, f"lambda = {rep['lambda']:.6f}"
    # a random y-chart point has no zero metric entry; the polar chart's
    # off-diagonal entries are exact zeros
    yield (max(rep["max_offdiagonal_ricci"], rep_ang["max_offdiagonal_ricci"]),
           1e-12, "Ricci where the metric vanishes, both charts")
    # the polar metric is 4x the unit round one; Ricci is scale invariant
    gap = abs(4.0 * rep_ang["lambda"] - rep["lambda"]) / abs(rep["lambda"])
    yield (max(gap, rep_ang["relative_spread"]), 1e-12,
           f"angular lambda = {rep_ang['lambda']:.6f}")


# -- em ---------------------------------------------------------------------------

@_unit("em.decomposition_exact")
def _(cfg, rng):
    bad = 0
    for _ in range(cfg.count(100)):
        try:
            # compares p* psi with its decomposition; raises on a mismatch
            emfield.decompose(emfield.random_field(rng))
        except QflagError:
            bad += 1
    yield (float(bad), 0.5,
           "scalar = A0,0 - div A and vector = -E + B, exact")


@_unit("em.pstar_linearity")
def _(cfg, rng):
    bad = 0
    for _ in range(cfg.count(50)):
        a = emfield.random_field(rng)
        b = emfield.random_field(rng)
        if emfield.apply_pstar(a + b) != (emfield.apply_pstar(a)
                                          + emfield.apply_pstar(b)):
            bad += 1
    yield float(bad), 0.5


@_unit("em.product_identity")
def _(cfg, rng):
    v, w = _quat_pairs(rng, cfg.count(10_000))
    yield (emfield.quaternion_product_identity(v.a[:, 0, 0], w.a[:, 0, 0]),
           1e-13, "scalar/dot/cross assembly matches the product")


# -- dynamics ----------------------------------------------------------------------

@_unit("dynamics.norm_conservation")
def _(cfg, rng):
    gen = random_skew_adjoint(rng, 3)
    psi = dynamics.random_state(rng, 3, 1)
    moved = dynamics.evolve(gen, psi, np.linspace(0.0, 10.0, 100))
    yield float(np.abs(moved.norm_sq() - psi.norm_sq()).max()), 1e-9


@_unit("dynamics.block_diagonal_isolation")
def _(cfg, rng):
    genb = random_skew_adjoint(rng, 3)
    genb.a[:1, 1:, :] = 0.0
    genb.a[1:, :1, :] = 0.0
    psi = dynamics.random_state(rng, 3, 1)
    moved = dynamics.evolve(genb, psi, np.linspace(0.0, 10.0, 40))
    yield (float(np.abs(moved.system_norm_sq() - psi.system_norm_sq()).max()),
           1e-9, "no norm crosses a non-interacting partition")


@_unit("dynamics.cocycle")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(50), _skew_draw(3))
    yield dynamics.cocycle_residual(gen, 2.7, 1.3), 1e-9


@_unit("dynamics.time_reversal")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(50), _skew_draw(3))
    yield dynamics.time_reversal_residual(QuatMatrix(gen.a[:, None]),
                                          np.array([0.1, 1.0, 10.0])), 1e-11


@_unit("dynamics.geodesic_block", "dynamics.geodesic_unitarity")
def _(cfg, rng):
    count = cfg.count(100)
    u = random_unit_quaternions(rng, count)
    omega = rng.uniform(0.1, 3.0, count)
    t = rng.uniform(0.0, 5.0, count)
    blk = dynamics.geodesic_block(u, omega, t).m
    ex = expm(dynamics.geodesic_generator(u) * (omega * t))
    yield (blk - ex).max_abs(), 1e-10
    yield (blk.adjoint() @ blk - QuatMatrix.identity(2)).max_abs(), 1e-12


@_unit("dynamics.transition_split")
def _(cfg, rng):
    gen, psi = _draw_batches(rng, cfg.count(100), _skew_draw(4),
                             _quatmat_draw(4, 1))
    psi = dynamics.StateVector(psi.a[..., 0, :], 2)
    rec = dynamics.transition_split(gen, psi).reconstruction()
    direct = (gen @ QuatMatrix(psi.a[..., None, :])).a[..., 0, :]
    yield float(_quat_norm(rec - direct).max()), 1e-12


# -- roots -------------------------------------------------------------------------

@_unit("roots.counts_and_closure")
def _(cfg, rng):
    bad = 0
    for n in range(1, 7):
        system = roots_mod.generate(n)
        if len(system.roots) != 2 * n * n:
            bad += 1
        if len(set(system.roots)) != len(system.roots):
            bad += 1
        if any(tuple(-c for c in r) not in system for r in system.roots):
            bad += 1
    yield float(bad), 0.5, "2 n^2 roots, negation closed, no duplicates"


@_unit("roots.subalgebra_embedding")
def _(cfg, rng):
    bad = 0
    for m, n in ((1, 2), (2, 3), (3, 5)):
        if not roots_mod.embed_check(m, n):
            bad += 1
    if (1, 1, 1) in roots_mod.generate(3):
        bad += 1
    yield float(bad), 0.5


@_unit("roots.particle_labels")
def _(cfg, rng):
    bad = 0
    lep = roots_mod.particle_label([((2, 0, 0, 0), None)])
    if lep.classification != "lepton":
        bad += 1
    mes = roots_mod.particle_label([((1, 0, 0, 0), None), ((0, 1, 0, 0), None)])
    if mes.label != "ud" or mes.classification != "meson":
        bad += 1
    mes_bar = roots_mod.particle_label([((-1, 0, 0, 0), None),
                                        ((0, 1, 0, 0), None)])
    if mes_bar.label != "u" + roots_mod.BAR + "d":
        bad += 1
    baryon = roots_mod.particle_label([((1, 0, 0, 0), "i"),
                                       ((1, 0, 0, 0), "j"),
                                       ((0, 1, 0, 0), "k")])
    if baryon.label != "uud" or baryon.classification != "baryon":
        bad += 1
    for label in (lep, mes, mes_bar, baryon):
        if roots_mod.parse_label(label.canonical()) != label:
            bad += 1
    yield float(bad), 0.5, "verbatim label examples and round-trip"


@_unit("roots.euler_characteristic")
def _(cfg, rng):
    bad = 0
    for dim in (2, 4, 12):
        if roots_mod.euler_characteristic(dim) != 2:
            bad += 1
    yield float(bad), 0.5


# -- runner -------------------------------------------------------------------

def _suite_runner(suite: str):
    def run(cfg: RunConfig) -> list:
        return [check for names, body in UNITS
                if names[0].split(".", 1)[0] == suite
                for check in _run_unit(names, body, cfg)]
    return run


# suite name -> the runner of its units, in report order
SUITES = {suite: _suite_runner(suite) for suite in
          dict.fromkeys(names[0].split(".", 1)[0] for names, _ in UNITS)}


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run one named suite (or 'all') and assemble the report.

    Every check name is declared up front, so a tolerance override that
    names no check of the run fails before any work.
    """
    if name == "all":
        suites = list(SUITES)
    elif name in SUITES:
        suites = [name]
    else:
        raise UnknownSuite(f"no suite named {name!r}; "
                           f"choose from {', '.join(SUITES)} or all")
    known = {check for names, _ in UNITS for check in names
             if check.split(".", 1)[0] in suites}
    unknown = [k for k in cfg.tol_overrides if k not in known]
    if unknown:
        raise UnknownTolerance(
            f"--tol names no check of this run: {', '.join(unknown)}")
    checks = [check for suite in suites for check in SUITES[suite](cfg)]
    return {
        "spec_version": SCHEMA_VERSION,
        "suite": name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }
