"""Named invariant suites with machine-readable results.

Each suite re-derives the identities its module promises, on seeded random
draws, and reports one :class:`CheckResult` per invariant.  The CLI renders
these as JSON; the test suite asserts on them directly.  Checks draw their
randomness from a generator keyed by (seed, check name), so a rerun with the
same configuration is bit-identical.

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

A :class:`~qflag.errors.QflagError` raised inside a suite (say, a broken
kernel making a drawn element non-unitary) is recorded as the failed check
``<suite>.error`` with the message as its detail; the run still writes its
report and fails with it.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import coset, dynamics, emfield, forms, liealg, roots as roots_mod, s4lb
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


def _suite(body):
    """A suite from a generator of its checks: the checks as a list, ending
    at a :class:`QflagError` raised inside the suite, which becomes the
    failed check ``<suite>.error`` (a broken kernel fails checks; it does
    not crash the run)."""
    name = body.__name__.removeprefix("suite_")

    @functools.wraps(body)
    def run(cfg: RunConfig) -> list:
        checks = []
        try:
            for check in body(cfg):
                checks.append(check)
        except QflagError as exc:
            checks.append(CheckResult(
                f"{name}.error", False, 1.0, 0.5,
                f"{type(exc).__name__}: {exc}; later checks did not run"))
        return checks
    return run


def _check(cfg: RunConfig, name: str, residual: float, tolerance: float,
           detail: str = "") -> CheckResult:
    tolerance = cfg.tol(name, tolerance)
    return CheckResult(name=name, passed=residual < tolerance,
                       residual=float(residual), tolerance=tolerance,
                       detail=detail)


# -- quaternion ---------------------------------------------------------------

@_suite
def suite_quaternion(cfg: RunConfig):
    a, b = _quat_pairs(cfg.rng("quaternion.norm_multiplicative"),
                       cfg.count(10_000))
    lhs = sq_norms((a @ b).a)
    rhs = sq_norms(a.a) * sq_norms(b.a)
    worst = float((np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max())
    yield _check(cfg, "quaternion.norm_multiplicative", worst, 1e-12)

    a, b = _quat_pairs(cfg.rng("quaternion.conj_antihomomorphism"),
                       cfg.count(10_000))
    worst = float(_quat_norm(((a @ b).adjoint()
                              - b.adjoint() @ a.adjoint()).a).max())
    yield _check(cfg, "quaternion.conj_antihomomorphism", worst, 1e-13)

    a, b = _quat_pairs(cfg.rng("quaternion.m2c_homomorphism"),
                       cfg.count(10_000))
    worst = float(np.abs((a @ b).embed() - a.embed() @ b.embed()).max())
    # spot check on 16 pairs of the scalar API forms still uses
    ps, qs = ([Quaternion.from_array(v) for v in m.a[:16, 0, 0]]
              for m in (a, b))
    worst = max([worst] + [float(np.abs(to_m2c(p * q)
                                        - to_m2c(p) @ to_m2c(q)).max())
                           for p, q in zip(ps, qs)])
    round_trip_exact = (np.array_equal(QuatMatrix.project(a.embed()).a, a.a)
                        and all(from_m2c(to_m2c(p)) == p for p in ps))
    yield _check(cfg, "quaternion.m2c_homomorphism", worst, 1e-12)
    yield _check(cfg, "quaternion.m2c_round_trip",
                 0.0 if round_trip_exact else 1.0, 0.5,
                 "bit-exact inverse of the embedding")

    rng = cfg.rng("quaternion.j_conjugation")
    (m,) = _draw_batches(rng, cfg.count(1000), _quatmat_draw(1, 1))
    m = m.embed()
    worst = max(float(np.abs(j_conjugate(m) - m.conj()).max()),
                float(np.abs(j_conjugate(j_conjugate(m)) - m).max()))
    yield _check(cfg, "quaternion.j_conjugation", worst, 1e-13,
                 "entrywise conjugate and involution")


# -- quatmat -------------------------------------------------------------------

@_suite
def suite_quatmat(cfg: RunConfig):
    rng = cfg.rng("quatmat.embedding_faithful")
    a, b, c = _draw_batches(rng, cfg.count(500), _quatmat_draw(3, 4),
                            _quatmat_draw(4, 2), _quatmat_draw(3, 4))
    worst = max(float(np.abs((a @ b).embed() - a.embed() @ b.embed()).max()),
                float(np.abs(a.adjoint().embed()
                             - a.embed().conj().swapaxes(-1, -2)).max()),
                float(np.abs((a + c).embed()
                             - (a.embed() + c.embed())).max()))
    yield _check(cfg, "quatmat.embedding_faithful", worst, 1e-11)

    rng = cfg.rng("quatmat.exp_group_membership")
    (gen,) = _draw_batches(rng, cfg.count(50), _skew_draw(3))
    g = expm(QuatMatrix(gen.a[:, None]) * np.array([0.1, 1.0, 10.0]))
    worst = (g.adjoint() @ g - QuatMatrix.identity(3)).max_abs()
    yield _check(cfg, "quatmat.exp_group_membership", worst, 1e-10)

    rng = cfg.rng("quatmat.exp_inverse")
    (gen,) = _draw_batches(rng, cfg.count(200), _skew_draw(3))
    worst = (expm(gen) @ expm(-gen) - QuatMatrix.identity(3)).max_abs()
    yield _check(cfg, "quatmat.exp_inverse", worst, 1e-10)

    rng = cfg.rng("quatmat.unit_determinant")
    (gen,) = _draw_batches(rng, cfg.count(100), _skew_draw(3, 0.7))
    worst = float(np.abs(np.abs(np.linalg.det(expm(gen).embed())) - 1.0).max())
    yield _check(cfg, "quatmat.unit_determinant", worst, 1e-9)

    rng = cfg.rng("quatmat.sqrt_remultiplication")
    (q,) = _draw_batches(rng, cfg.count(200), _quatmat_draw(3, 3))
    p = q @ q.adjoint()
    r = func_hermitian(p, "sqrt")
    scale = np.maximum(1.0, np.abs(p.a).max(axis=(-3, -2, -1), keepdims=True))
    worst = float((np.abs((r @ r - p).a) / scale).max())
    yield _check(cfg, "quatmat.sqrt_remultiplication", worst, 1e-9)

    rng = cfg.rng("quatmat.sp2nc_conditions")
    (gen,) = _draw_batches(rng, cfg.count(100), _skew_draw(2, 0.7))
    big = to_sp2nc(GroupElement(expm(gen), check=False))
    form = sp2nc_form(2)
    worst = max(float(np.abs(big.swapaxes(-1, -2) @ form @ big - form).max()),
                float(np.abs(big.conj().swapaxes(-1, -2) @ big
                             - np.eye(4)).max()))
    yield _check(cfg, "quatmat.sp2nc_conditions", worst, 1e-10,
                 "simultaneously complex symplectic and unitary")


# -- coset ----------------------------------------------------------------------

@_suite
def suite_coset(cfg: RunConfig):
    point = coset.GrassmannPoint
    half, unit = _quatmat_draw(2, 2, 0.5), _quatmat_draw(2, 2)
    group_gen = _skew_draw(4, 0.7)

    rng = cfg.rng("coset.exponential_parameterisation")
    (xi,) = _draw_batches(rng, cfg.count(200), half)
    worst = (coset.coset_element(xi).m
             - expm(coset.coset_generator(xi))).max_abs()
    yield _check(cfg, "coset.exponential_parameterisation", worst, 1e-9)

    rng = cfg.rng("coset.lft_two_forms")
    gen1, gen2, x = _draw_batches(rng, cfg.count(500), group_gen, group_gen,
                                  half)
    g1, g2, x = GroupElement(expm(gen1)), GroupElement(expm(gen2)), point(x)
    ya = coset.lft_apply(g1, x)
    yb = coset.lft_apply_second_form(g1, x)
    worst_forms = (ya.x - yb.x).max_abs()
    comp = coset.lft_apply(g2, ya)
    direct = coset.lft_apply(g2 @ g1, x)
    worst_law = (comp.x - direct.x).max_abs()
    yield _check(cfg, "coset.lft_two_forms", worst_forms, 1e-9)
    yield _check(cfg, "coset.lft_group_law", worst_law, 1e-8)

    rng = cfg.rng("coset.transport_identities")
    gen, xa, xb = _draw_batches(rng, cfg.count(500), group_gen, half, half)
    res = coset.transport_identities(GroupElement(expm(gen)), point(xa),
                                     point(xb))
    worst = max(float(r.max()) for r in res.values())
    yield _check(cfg, "coset.transport_identities", worst, 1e-9)

    rng = cfg.rng("coset.cross_ratio_invariance")
    gen, *pts = _draw_batches(rng, cfg.count(500), group_gen,
                              half, half, half, half)
    g = GroupElement(expm(gen))
    pts = [point(p) for p in pts]
    cr = coset.cross_ratio(*pts)
    cr_moved = coset.cross_ratio(*[coset.lft_apply(g, p) for p in pts])
    worst = float((np.abs(cr - cr_moved) / np.maximum(1.0, np.abs(cr))).max())
    yield _check(cfg, "coset.cross_ratio_invariance", worst, 1e-8)

    rng = cfg.rng("coset.metric_two_versions")
    x, dx = _draw_batches(rng, cfg.count(500), half, unit)
    worst = float(np.abs(coset.metric_form(point(x), dx)
                         - coset.metric_form_expanded(point(x), dx)).max())
    yield _check(cfg, "coset.metric_two_versions", worst, 1e-10)

    rng = cfg.rng("coset.metric_pushforward_invariance")
    gen, x, dx = _draw_batches(rng, cfg.count(100), group_gen,
                               _quatmat_draw(2, 2, 0.4), unit)
    worst = float(coset.metric_invariance_residual(
        GroupElement(expm(gen)), point(x), dx).max())
    yield _check(cfg, "coset.metric_pushforward_invariance", worst, 1e-11)

    q, dq = _quat_pairs(cfg.rng("coset.metric_inversion_invariance"),
                        cfg.count(200))
    keep = _quat_norm(q.a[:, 0, 0]) >= 0.1
    worst = float(coset.inversion_invariance_residual(
        point(QuatMatrix(q.a[keep])), QuatMatrix(dq.a[keep])).max(initial=0.0))
    yield _check(cfg, "coset.metric_inversion_invariance", worst, 1e-12)

    rng = cfg.rng("coset.curvature_trace_identity")
    worst = 0.0
    for n, k in ((3, 1), (5, 2), (6, 3)):
        (q,) = _draw_batches(rng, cfg.count(100), _quatmat_draw(k, n, 0.8))
        lhs, rhs = coset.curvature_trace(q, n, k)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    yield _check(cfg, "coset.curvature_trace_identity", worst, 1e-9)

    rng = cfg.rng("coset.curvature_det_consistency")
    (q,) = _draw_batches(rng, cfg.count(200), _quatmat_draw(2, 4, 0.7))
    _, gap = coset.curvature_det_gap(q, 4, 2)
    yield _check(cfg, "coset.curvature_det_consistency",
                 float(gap.max()), 1e-8,
                 "eigenvalue product vs embedding determinant root")

    rng = cfg.rng("coset.s3_sampling_uniform")
    draws = cfg.count(1_000_000)
    means, fourth = s3_moments(rng, draws)
    sigma = 0.5 / math.sqrt(draws)   # per-component std of a unit 3-sphere
    worst = float(np.abs(means).max() / sigma)
    yield _check(cfg, "coset.s3_sampling_uniform", worst, 4.0,
                 "component means in units of the standard error")
    # On S^3, E[q_c^4] = 3/24 = 1/8, E[q_c^8] = 105/1920 and
    # E[q_c^4 q_d^4] = 9/1920, so the mean of q_c^4 over the 4 components has
    # variance 1/640 per draw.  It lies in [1/16, 1/4], so one draw is
    # within sqrt(640)/8 = 3.2 standard errors and a handful of draws
    # rarely reach 4.  A sampler that is not uniform but has zero means
    # moves it.
    sigma = 1.0 / math.sqrt(640.0 * draws)
    worst = abs(fourth - 0.125) / sigma
    yield _check(cfg, "coset.s3_fourth_moment", worst, 4.0,
                 "mean fourth moment of the components against 1/8 in units "
                 "of the standard error")

    rng = cfg.rng("coset.haar_equivariance")
    x = random_group_element(rng, 2)
    xi = [random_unit_quaternion(rng) for _ in range(2)]
    x_xi = GroupElement(x.m @ QuatMatrix.diag(xi), check=False)

    def alpha(shifted):
        return shifted[:, [0, 1], [0, 1]]     # the entries (0, 0) and (1, 1)

    f_shift = coset.haar_average(alpha, coset.fundamental_action, x_xi)
    f_base = coset.haar_average(alpha, coset.fundamental_action, x)
    xi_conj = np.array([u.conj().to_array() for u in xi])
    moved = coset.fundamental_action(xi_conj, f_base)
    yield _check(cfg, "coset.haar_equivariance",
                 float(_quat_norm(f_shift - moved).max()), 1e-12,
                 "exact average over the Hurwitz-unit fiber nodes")

    inner_gap = abs(coset.inner_product(f_shift, f_shift)
                    - coset.inner_product(moved, moved))
    yield _check(cfg, "coset.haar_inner_product", inner_gap, 1e-12,
                 "fiber shift leaves the inner product fixed")


# -- forms -----------------------------------------------------------------------

@_suite
def suite_forms(cfg: RunConfig):
    sd, asd = forms.dY_wedge()
    expected_sd = {(0, 1): Quaternion(0, -2, 0, 0), (2, 3): Quaternion(0, -2, 0, 0),
                   (0, 2): Quaternion(0, 0, -2, 0), (1, 3): Quaternion(0, 0, 2, 0),
                   (0, 3): Quaternion(0, 0, 0, -2), (1, 2): Quaternion(0, 0, 0, -2)}
    worst = max((sd.coefficient(*key) - val).norm()
                for key, val in expected_sd.items())
    worst = max(worst, max((sd.coefficient(*k) + asd.coefficient(*k)).norm()
                           for k in ((0, 1), (0, 2), (0, 3))))
    worst = max(worst, max(abs(c.w) for c in sd.coeffs.values()))
    yield _check(cfg, "forms.wedge_component_pattern", worst, 1e-15,
                 "displayed +/- area-element pattern, no scalar part")

    def component(form, comp):
        data = {}
        for key, c in form.coeffs.items():
            v = getattr(c, comp)
            if v:
                data[key] = Quaternion(v)
        return forms.QTwoForm(4, data)

    worst = 0.0
    for compname in "xyz":
        f = component(sd, compname)
        worst = max(worst, (forms.hodge_star(f) - f).max_abs())
        f = component(asd, compname)
        worst = max(worst, (forms.hodge_star(f) + f * 1.0).max_abs())
    yield _check(cfg, "forms.hodge_eigensectors", worst, 1e-15,
                 "+1 on the first product, -1 on the second")

    rng = cfg.rng("forms.wedge_bilinearity")
    worst = 0.0
    for draw in rng.standard_normal((cfg.count(100), 3, 4, 4)):
        a, b, c = (forms.QOneForm(4, {i: Quaternion.from_array(q)
                                      for i, q in enumerate(coeffs)})
                   for coeffs in draw)
        lhs = (a + b).wedge(c)
        rhs = a.wedge(c) + b.wedge(c)
        worst = max(worst, (lhs - rhs).max_abs())
    yield _check(cfg, "forms.wedge_bilinearity", worst, 1e-12)

    rng = cfg.rng("forms.connection_skewness")
    (gen,) = _draw_batches(rng, cfg.count(20), _skew_draw(4))
    _, w12, w21, _ = forms.connection_blocks(gen, 0.3, 2, 2)
    full = forms.connection_along_path(gen, 0.3)
    yield _check(cfg, "forms.connection_skewness",
                 (full + full.adjoint()).max_abs(), 1e-11)
    yield _check(cfg, "forms.connection_block_pairing",
                 (w21 + w12.adjoint()).max_abs(), 1e-11)
    yield _check(cfg, "forms.connection_value", (full - gen).max_abs(),
                 1e-11, "g* dg/dt along exp(t gen) equals gen")

    rng = cfg.rng("forms.isotropy_vanishing")
    (gen,) = _draw_batches(rng, cfg.count(20), _skew_draw(4))
    gen.a[:, :2, 2:, :] = 0.0
    gen.a[:, 2:, :2, :] = 0.0
    _, w12, w21, _ = forms.connection_blocks(gen, 0.4, 2, 2)
    yield _check(cfg, "forms.isotropy_vanishing",
                 max(w12.max_abs(), w21.max_abs()), 1e-11,
                 "block-diagonal paths carry no off-diagonal connection")

    rng = cfg.rng("forms.maurer_cartan")
    g1, g2 = _draw_batches(rng, cfg.count(10), _skew_draw(3), _skew_draw(3))
    s, t = rng.uniform(-0.3, 0.3, (2, cfg.count(10)))
    worst = forms.maurer_cartan_residual(g1, g2, s, t)
    yield _check(cfg, "forms.maurer_cartan", worst, 1e-11,
                 "exact derivatives of exp(s a + t b) from one dual block")

    rng = cfg.rng("forms.curvature_blocks")
    unit, single = _quatmat_draw(2, 2), _quatmat_draw(1, 1)
    x, u, v, x1, u1, v1 = _draw_batches(
        rng, cfg.count(200), _quatmat_draw(2, 2, 0.5), unit, unit,
        _quatmat_draw(1, 1, 0.5), single, single)
    x, x1 = coset.GrassmannPoint(x), coset.GrassmannPoint(x1)
    blocks = forms.curvature_blocks(x, u, v)
    swapped = forms.curvature_blocks(x, v, u)
    worst_anti = (blocks["omega11"] + swapped["omega11"]).max_abs()
    worst_scalar = float(np.abs(np.abs(blocks["r11"][..., 0])
                                - np.abs(blocks["r22"][..., 0])).max())
    b1 = forms.curvature_blocks(x1, u1, v1)
    worst_rank1 = float(np.abs(_quat_norm(b1["r11"])
                               - _quat_norm(b1["r22"])).max())
    yield _check(cfg, "forms.curvature_antisymmetry", worst_anti, 1e-12)
    yield _check(cfg, "forms.curvature_scalar_parts", worst_scalar, 1e-8,
                 "matrix-trace scalar parts agree (both vanish)")
    yield _check(cfg, "forms.curvature_rank_one_magnitude", worst_rank1,
                 1e-8, "the two pieces share magnitude for two particles")


# -- liealg --------------------------------------------------------------------

@_suite
def suite_liealg(cfg: RunConfig):
    for k, n in ((1, 2), (1, 3)):
        rep = liealg.verify_commutation_table(k, n)
        failures = sum(e["operator_failures"] + e["application_failures"]
                       for e in rep["families"].values())
        yield _check(cfg, f"liealg.commutation_table_k{k}_n{n}",
                     float(failures), 0.5,
                     "all seven relations, exact; "
                     + ("no rewrites" if not rep["rewrites"]
                        else str(rep["rewrites"])))

    bad = 0
    for al in range(2):
        for be in range(2):
            if liealg.gen_h(al, be, 1, 2).conjugate() != -liealg.gen_h(be, al, 1, 2):
                bad += 1
            if liealg.gen_H(al, be, 1, 2).conjugate() != -liealg.gen_H(be, al, 1, 2):
                bad += 1
    yield _check(cfg, "liealg.generator_skewness", float(bad), 0.5,
                 "h* = -h and H* = -H as operator identities")

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
    yield _check(cfg, "liealg.p_three_forms", float(bad), 0.5,
                 "all displayed forms of p agree; linear part is dbar")

    bad = 0
    for al in range(2):
        for be in range(2):
            if liealg.Jh(al, be, 1, 2) != liealg.Jh(be, al, 1, 2):
                bad += 1
            if liealg.JH(al, be, 1, 2) != liealg.JH(be, al, 1, 2):
                bad += 1
    yield _check(cfg, "liealg.j_contraction_symmetry", float(bad), 0.5,
                 "(Jh) and (JH) are symmetric")

    bad = 0
    probes = [liealg.PolyFunction.z(0, 0),
              liealg.PolyFunction.z(0, 0) * liealg.PolyFunction.z(0, 0),
              liealg.PolyFunction.z(1, 1)]
    for vec in probes:
        rep = liealg.ladder_check(1, 2, vec, alpha=0, a=0)
        if rep["raised"] is not None and rep["raised"] != rep["H_eigenvalue"] + liealg.ONE:
            bad += 1
        if rep["lowered"] is not None and rep["lowered"] != rep["h_eigenvalue"] - liealg.ONE:
            bad += 1
    yield _check(cfg, "liealg.ladder_shifts", float(bad), 0.5,
                 "+1 under p, -1 under pbar, exact")

    lap = liealg.laplace_beltrami(1, 2)
    bad = 0
    if not lap.apply(liealg.PolyFunction.constant(1)).is_zero():
        bad += 1
    if lap.conjugate() != lap:
        bad += 1
    for al in range(2):
        for cartan in (liealg.cartan_h(al, 1, 2), liealg.cartan_H(al, 1, 2)):
            if not liealg.commutator(lap, cartan).is_zero():
                bad += 1
    yield _check(cfg, "liealg.laplace_beltrami", float(bad), 0.5,
                 "kills constants, J-invariant, commutes with Cartans")


# -- s4 ---------------------------------------------------------------------------

@_suite
def suite_s4(cfg: RunConfig):
    f0 = s4lb.make_f0()
    grid = np.linspace(0.1, math.pi - 0.1, 50)
    worst = max(abs(s4lb.lb_radial_residual(f0, w)) for w in grid)
    yield _check(cfg, "s4.f0_residual", worst, 1e-10)
    yield _check(cfg, "s4.f0_equator", abs(f0.value(math.pi / 2)), 1e-12,
                 "continuity across the equator, value zero there")

    grid_gl = np.linspace(0.3, math.pi - 0.3, 50)
    worst = 0.0
    worst_theta = 0.0
    from fractions import Fraction
    for ell, big_n in ((1, 0), (Fraction(3, 2), 0), (2, 0), (2, 1)):
        sol = s4lb.make_gl(ell, big_n)
        worst = max(worst, max(abs(s4lb.lb_radial_residual(sol, w))
                               for w in grid_gl))
        expected = math.sqrt(float((Fraction(ell) + 1 - big_n)
                                   * (Fraction(ell) - Fraction(1, 2) - big_n)))
        worst_theta = max(worst_theta, abs(sol.theta - expected))
    yield _check(cfg, "s4.gl_residual", worst, 1e-8)
    yield _check(cfg, "s4.theta_formula", worst_theta, 1e-15,
                 "sqrt((l+1-N)(l-1/2-N)) exactly")

    flags_ok = (s4lb.make_f0().integrable
                and not s4lb.make_gl(1, 0).integrable
                and not s4lb.make_gl(Fraction(3, 2), 0).integrable)
    yield _check(cfg, "s4.integrability_flags",
                 0.0 if flags_ok else 1.0, 0.5,
                 "integrable exactly for l <= 1/2")

    rng = cfg.rng("s4.einstein_y_chart")
    pts = s4lb.random_chart_points(rng, cfg.count(20))
    rep = s4lb.einstein_check(pts)
    yield _check(cfg, "s4.einstein_y_chart", rep["relative_spread"], 1e-3,
                 f"lambda = {rep['lambda']:.6f}")
    yield _check(cfg, "s4.einstein_offdiagonal",
                 rep["max_offdiagonal_ricci"], 1e-5)

    rng = cfg.rng("s4.einstein_angular_chart")
    ang_pts = list(rng.uniform([0.7, 0.7, 0.0, 0.0], [2.4, 2.4, 6.0, 6.0],
                               (4, 4)))
    rep_ang = s4lb.einstein_check(
        ang_pts, metric_fn=lambda p: s4lb.angular_metric(p[0], p[1]))
    # the polar metric is 4x the unit round one; Ricci is scale invariant
    gap = abs(4.0 * rep_ang["lambda"] - rep["lambda"]) / abs(rep["lambda"])
    yield _check(cfg, "s4.einstein_chart_consistency",
                 max(gap, rep_ang["relative_spread"]), 1e-3,
                 f"angular lambda = {rep_ang['lambda']:.6f}")


# -- em ---------------------------------------------------------------------------

@_suite
def suite_em(cfg: RunConfig):
    rng = cfg.rng("em.decomposition_exact")
    bad = 0
    for _ in range(cfg.count(100)):
        psi = emfield.random_field(rng)
        try:
            dec = emfield.decompose(psi)   # raises on an internal mismatch
        except QflagError:
            bad += 1
            continue
        if emfield.apply_pstar(psi) != dec.pstar_image():
            bad += 1
    yield _check(cfg, "em.decomposition_exact", float(bad), 0.5,
                 "scalar = A0,0 - div A and vector = -E + B, exact")

    rng = cfg.rng("em.pstar_linearity")
    bad = 0
    for _ in range(cfg.count(50)):
        a = emfield.random_field(rng)
        b = emfield.random_field(rng)
        if emfield.apply_pstar(a + b) != (emfield.apply_pstar(a)
                                          + emfield.apply_pstar(b)):
            bad += 1
    yield _check(cfg, "em.pstar_linearity", float(bad), 0.5)

    v, w = _quat_pairs(cfg.rng("em.product_identity"), cfg.count(10_000))
    worst = emfield.quaternion_product_identity(v.a[:, 0, 0], w.a[:, 0, 0])
    yield _check(cfg, "em.product_identity", worst, 1e-13,
                 "scalar/dot/cross assembly matches the product")


# -- dynamics ----------------------------------------------------------------------

@_suite
def suite_dynamics(cfg: RunConfig):
    rng = cfg.rng("dynamics.norm_conservation")
    gen = random_skew_adjoint(rng, 3)
    psi = dynamics.random_state(rng, 3, 1)
    moved = dynamics.evolve(gen, psi, np.linspace(0.0, 10.0, 100))
    worst = float(np.abs(moved.norm_sq() - psi.norm_sq()).max())
    yield _check(cfg, "dynamics.norm_conservation", worst, 1e-9)

    rng = cfg.rng("dynamics.block_diagonal_isolation")
    genb = random_skew_adjoint(rng, 3)
    genb.a[:1, 1:, :] = 0.0
    genb.a[1:, :1, :] = 0.0
    psi = dynamics.random_state(rng, 3, 1)
    moved = dynamics.evolve(genb, psi, np.linspace(0.0, 10.0, 40))
    worst = float(np.abs(moved.system_norm_sq() - psi.system_norm_sq()).max())
    yield _check(cfg, "dynamics.block_diagonal_isolation", worst, 1e-9,
                 "no norm crosses a non-interacting partition")

    rng = cfg.rng("dynamics.cocycle")
    (gen,) = _draw_batches(rng, cfg.count(50), _skew_draw(3))
    worst = dynamics.cocycle_residual(gen, 2.7, 1.3)
    yield _check(cfg, "dynamics.cocycle", worst, 1e-9)

    rng = cfg.rng("dynamics.time_reversal")
    (gen,) = _draw_batches(rng, cfg.count(50), _skew_draw(3))
    worst = dynamics.time_reversal_residual(QuatMatrix(gen.a[:, None]),
                                            np.array([0.1, 1.0, 10.0]))
    yield _check(cfg, "dynamics.time_reversal", worst, 1e-11)

    rng = cfg.rng("dynamics.geodesic_block")
    count = cfg.count(100)
    u = random_unit_quaternions(rng, count)
    omega = rng.uniform(0.1, 3.0, count)
    t = rng.uniform(0.0, 5.0, count)
    blk = dynamics.geodesic_block(u, omega, t).m
    ex = expm(dynamics.geodesic_generator(u) * (omega * t))
    yield _check(cfg, "dynamics.geodesic_block",
                 (blk - ex).max_abs(), 1e-10)
    yield _check(cfg, "dynamics.geodesic_unitarity",
                 (blk.adjoint() @ blk - QuatMatrix.identity(2)).max_abs(),
                 1e-12)

    rng = cfg.rng("dynamics.transition_split")
    gen, psi = _draw_batches(rng, cfg.count(100), _skew_draw(4),
                             _quatmat_draw(4, 1))
    psi = dynamics.StateVector(psi.a[..., 0, :], 2)
    rec = dynamics.transition_split(gen, psi).reconstruction()
    direct = (gen @ QuatMatrix(psi.a[..., None, :])).a[..., 0, :]
    worst = float(_quat_norm(rec - direct).max())
    yield _check(cfg, "dynamics.transition_split", worst, 1e-12)


# -- roots -------------------------------------------------------------------------

@_suite
def suite_roots(cfg: RunConfig):
    bad = 0
    for n in range(1, 7):
        system = roots_mod.generate(n)
        if len(system.roots) != 2 * n * n:
            bad += 1
        if len(set(system.roots)) != len(system.roots):
            bad += 1
        if any(tuple(-c for c in r) not in system for r in system.roots):
            bad += 1
    yield _check(cfg, "roots.counts_and_closure", float(bad), 0.5,
                 "2 n^2 roots, negation closed, no duplicates")

    bad = 0
    for m, n in ((1, 2), (2, 3), (3, 5)):
        if not roots_mod.embed_check(m, n):
            bad += 1
    if (1, 1, 1) in roots_mod.generate(3):
        bad += 1
    yield _check(cfg, "roots.subalgebra_embedding", float(bad), 0.5)

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
    yield _check(cfg, "roots.particle_labels", float(bad), 0.5,
                 "verbatim label examples and round-trip")

    bad = 0
    for dim in (2, 4, 12):
        if roots_mod.euler_characteristic(dim) != 2:
            bad += 1
    yield _check(cfg, "roots.euler_characteristic", float(bad), 0.5)


SUITES = {
    "quaternion": suite_quaternion,
    "quatmat": suite_quatmat,
    "coset": suite_coset,
    "forms": suite_forms,
    "liealg": suite_liealg,
    "s4": suite_s4,
    "em": suite_em,
    "dynamics": suite_dynamics,
    "roots": suite_roots,
}


def _require_known(unknown) -> None:
    if unknown:
        raise UnknownTolerance(
            f"--tol names no check of this run: {', '.join(unknown)}")


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run one named suite (or 'all') and assemble the report."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise UnknownSuite(f"no suite named {name!r}; "
                           f"choose from {', '.join(SUITES)} or all")
    # check names start with their suite's name: a wrong suite fails before
    # any work, a misspelt check once the suites have named theirs
    _require_known([k for k in cfg.tol_overrides
                    if k.split(".", 1)[0] not in names])
    checks = []
    for suite_name in names:
        checks.extend(SUITES[suite_name](cfg))
    known = {c.name for c in checks}
    aborted = {n.removesuffix(".error") for n in known if n.endswith(".error")}
    _require_known(sorted(k for k in cfg.tol_overrides if k not in known
                          and k.split(".", 1)[0] not in aborted))
    return {
        "spec_version": SCHEMA_VERSION,
        "suite": name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }
