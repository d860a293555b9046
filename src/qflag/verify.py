"""Named invariant suites with machine-readable results.

Each check unit, registered with :func:`_unit` in report order, re-derives
identities its module promises on seeded random draws: it declares its
check names once, draws from the generator keyed by (seed, first name) and
yields one ``(residual, tolerance[, detail])`` per name, which the runner
turns into a report row (:func:`_check`).  A check's suite is its name's
prefix.
A unit yields its residuals unreduced, as a number, an array or a tuple of
numbers and arrays; the row holds their largest entry, and a NaN anywhere
is the worst value, so it fails the check.
An exact check's residual is its failure count (:func:`_failures`), at
tolerance 0.5.
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

Concurrency: :func:`run_suite` runs the units in ``FORKED``, about half of
a serial run, in one forked child process (:func:`_fork`) beside the rest;
each unit draws from its own stream, so the report is the same either way.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import coset, dynamics, emfield, forms, liealg, roots as roots_mod, s4lb
from .coset import GrassmannPoint
from .errors import QflagError, UnknownSuite, UnknownTolerance
from .quaternion import (Quaternion, from_m2c, j_conjugate,
                         random_unit_quaternions, sq_norms, to_m2c)
from .quatmat import (_CONJ, GroupElement, QuatMatrix, expm, func_hermitian,
                      random_group_element, random_skew_adjoint, sp2nc_form,
                      to_sp2nc)

SCHEMA_VERSION = 1
# rows per block of the streamed S^3 sampling statistics
S3_BLOCK = 1 << 14


def _check(name: str, residual, tolerance, detail: str = "") -> dict:
    """One report row, its residual the largest entry of ``residual`` (0.0
    for an empty array) as a plain Python ``float``: the one place a library
    result leaves numpy's types (``np.bool_`` is not JSON-serialisable)."""
    parts = residual if isinstance(residual, tuple) else (residual,)
    worst = float(np.max([np.max(r, initial=0.0) for r in parts]))
    return {"name": name, "passed": bool(worst < tolerance),
            "residual": worst, "tolerance": float(tolerance),
            "detail": detail}


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
        return self.tol_overrides.get(name, default)


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


def _failures(oks) -> int:
    """The residual of an exact check: how many of ``oks`` are false."""
    return sum(not ok for ok in oks)


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


def _run_unit(names, body, cfg: RunConfig, rng: np.random.Generator) -> list:
    """A unit's checks under ``cfg``'s tolerances, drawn from ``rng``, or,
    if it raises a :class:`QflagError`, the one failed check
    ``<first name>.error`` (a broken kernel fails checks; it does not crash
    the run)."""
    try:
        rows = list(body(cfg, rng))
    except QflagError as exc:
        return [_check(f"{names[0]}.error", 1.0, 0.5,
                       f"{type(exc).__name__}: {exc}; not run: "
                       + ", ".join(names))]
    return [_check(name, residual, cfg.tol(name, tolerance), *detail)
            for name, (residual, tolerance, *detail)
            in zip(names, rows, strict=True)]


# -- quaternion ---------------------------------------------------------------

@_unit("quaternion.norm_multiplicative")
def _(cfg, rng):
    a, b = _quat_pairs(rng, cfg.count(10_000))
    lhs = sq_norms((a @ b).a)
    rhs = sq_norms(a.a) * sq_norms(b.a)
    yield np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)), 1e-12


@_unit("quaternion.conj_antihomomorphism")
def _(cfg, rng):
    a, b = _quat_pairs(rng, cfg.count(10_000))
    yield _quat_norm(((a @ b).adjoint() - b.adjoint() @ a.adjoint()).a), 1e-13


@_unit("quaternion.m2c_homomorphism", "quaternion.m2c_round_trip")
def _(cfg, rng):
    a, b = _quat_pairs(rng, cfg.count(10_000))
    # spot check on 16 pairs of the scalar API forms still uses
    ps, qs = ([Quaternion.from_array(v) for v in m.a[:16, 0, 0]]
              for m in (a, b))
    yield ((np.abs((a @ b).embed() - a.embed() @ b.embed()),
            *(np.abs(to_m2c(p * q) - to_m2c(p) @ to_m2c(q))
              for p, q in zip(ps, qs))), 1e-12)
    yield (_failures([np.array_equal(QuatMatrix.project(a.embed()).a, a.a),
                      *(from_m2c(to_m2c(p)) == p for p in ps)]),
           0.5, "bit-exact inverse of the embedding")


@_unit("quaternion.j_conjugation")
def _(cfg, rng):
    (m,) = _draw_batches(rng, cfg.count(1000), _quatmat_draw(1, 1))
    m = m.embed()
    yield ((np.abs(j_conjugate(m) - m.conj()),
            np.abs(j_conjugate(j_conjugate(m)) - m)), 1e-13,
           "entrywise conjugate and involution")


# -- quatmat -------------------------------------------------------------------

@_unit("quatmat.embedding_faithful")
def _(cfg, rng):
    a, b, c = _draw_batches(rng, cfg.count(500), _quatmat_draw(3, 4),
                            _quatmat_draw(4, 2), _quatmat_draw(3, 4))
    yield (np.abs((a @ b).embed() - a.embed() @ b.embed()),
           np.abs(a.adjoint().embed() - a.embed().conj().swapaxes(-1, -2)),
           np.abs((a + c).embed() - (a.embed() + c.embed()))), 1e-11


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
    yield np.abs(np.abs(np.linalg.det(expm(gen).embed())) - 1.0), 1e-9


@_unit("quatmat.sqrt_remultiplication")
def _(cfg, rng):
    (q,) = _draw_batches(rng, cfg.count(200), _quatmat_draw(3, 3))
    p = q @ q.adjoint()
    r = func_hermitian(p, "sqrt")
    scale = np.maximum(1.0, np.abs(p.a).max(axis=(-3, -2, -1), keepdims=True))
    yield np.abs((r @ r - p).a) / scale, 1e-9


@_unit("quatmat.sp2nc_conditions")
def _(cfg, rng):
    (gen,) = _draw_batches(rng, cfg.count(100), _skew_draw(2, 0.7))
    big = to_sp2nc(GroupElement(expm(gen), check=False))
    form = sp2nc_form(2)
    yield ((np.abs(big.swapaxes(-1, -2) @ form @ big - form),
            np.abs(big.conj().swapaxes(-1, -2) @ big - np.eye(4))), 1e-10,
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
    yield tuple(res.values()), 1e-9


@_unit("coset.cross_ratio_invariance", "coset.cross_ratio_value")
def _(cfg, rng):
    gen, *pts = _draw_batches(rng, cfg.count(500), _GROUP_GEN,
                              _HALF, _HALF, _HALF, _HALF)
    g = GroupElement(expm(gen))
    pts = [GrassmannPoint(p) for p in pts]
    cr = coset.cross_ratio(*pts)
    cr_moved = coset.cross_ratio(*[coset.lft_apply(g, p) for p in pts])
    scale = np.maximum(1.0, np.abs(cr))
    yield np.abs(cr - cr_moved) / scale, 1e-8
    a, b, c, d = (p.x for p in pts)
    flipped = (a - b) @ (b - c).inv() @ (c - d) @ (d - a).inv()
    yield (np.abs(flipped.trace()[..., 0] - cr) / scale, 1e-8,
           "both inverted differences negated")


@_unit("coset.metric_two_versions")
def _(cfg, rng):
    x, dx = _draw_batches(rng, cfg.count(500), _HALF, _TANGENT)
    x = GrassmannPoint(x)
    form = coset.metric_form(x, dx)
    yield (np.abs(form - coset.metric_form_expanded(x, dx)),
           np.abs(form - coset.metric_form_hermitian(x, dx))), 1e-10


@_unit("coset.metric_pushforward_invariance")
def _(cfg, rng):
    gen, x, dx = _draw_batches(rng, cfg.count(100), _GROUP_GEN,
                               _quatmat_draw(2, 2, 0.4), _TANGENT)
    yield coset.metric_invariance_residual(
        GroupElement(expm(gen)), GrassmannPoint(x), dx), 1e-11


@_unit("coset.metric_inversion_invariance")
def _(cfg, rng):
    q, dq = _quat_pairs(rng, cfg.count(200))
    keep = _quat_norm(q.a[:, 0, 0]) >= 0.1
    yield coset.inversion_invariance_residual(
        GrassmannPoint(QuatMatrix(q.a[keep])), QuatMatrix(dq.a[keep])), 1e-12


@_unit("coset.curvature_trace_identity")
def _(cfg, rng):
    traces = (coset.curvature_trace(*_draw_batches(
                  rng, cfg.count(100), _quatmat_draw(k, n, 0.8)))
              for n, k in ((3, 1), (5, 2), (6, 3)))
    yield tuple(np.abs(lhs - rhs) for lhs, rhs in traces), 1e-9


@_unit("coset.curvature_det_consistency")
def _(cfg, rng):
    (q,) = _draw_batches(rng, cfg.count(200), _quatmat_draw(2, 4, 0.7))
    _, gap = coset.curvature_det_gap(q)
    yield (gap, 1e-8,
           "eigenvalue product vs embedding determinant root")


@_unit("coset.s3_sampling_uniform", "coset.s3_fourth_moment")
def _(cfg, rng):
    draws = cfg.count(1_000_000)
    means, fourth = s3_moments(rng, draws)
    sigma = 0.5 / math.sqrt(draws)   # per-component std of a unit 3-sphere
    yield (np.abs(means) / sigma, 4.0,
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
    xi = random_unit_quaternions(rng, 2)
    x_xi = GroupElement(x.m @ QuatMatrix.diag(xi), check=False)

    def alpha(shifted):
        return shifted[:, [0, 1], [0, 1]]     # the entries (0, 0) and (1, 1)

    f_shift = coset.haar_average(alpha, coset.fundamental_action, x_xi)
    f_base = coset.haar_average(alpha, coset.fundamental_action, x)
    moved = coset.fundamental_action(xi * _CONJ, f_base)
    yield (_quat_norm(f_shift - moved), 1e-12,
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
    yield ((_quat_norm(sd[rows, cols] - expected_sd),
            _quat_norm(sd[0, 1:] + asd[0, 1:]), np.abs(sd[..., 0])), 1e-15,
           "displayed +/- area-element pattern, no scalar part")
    yield ((_quat_norm(forms.hodge_star(sd) - sd),
            _quat_norm(forms.hodge_star(asd) + asd)), 1e-15,
           "+1 on the first product, -1 on the second")


@_unit("forms.wedge_bilinearity")
def _(cfg, rng):
    a, b, c = rng.standard_normal((cfg.count(100), 3, 4, 4)).swapaxes(0, 1)
    diff = forms.wedge(a + b, c) - (forms.wedge(a, c) + forms.wedge(b, c))
    yield _quat_norm(diff), 1e-12


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
    yield ((w12.max_abs(), w21.max_abs()), 1e-11,
           "block-diagonal paths carry no off-diagonal connection")


@_unit("forms.maurer_cartan")
def _(cfg, rng):
    g1, g2 = _draw_batches(rng, cfg.count(10), _skew_draw(3), _skew_draw(3))
    s, t = rng.uniform(-0.3, 0.3, (2, cfg.count(10)))
    yield (forms.maurer_cartan_residual(g1, g2, s, t), 1e-11,
           "exact derivatives of exp(s a + t b) from one dual block")


@_unit("forms.curvature_antisymmetry", "forms.curvature_scalar_parts",
       "forms.curvature_rank_one_magnitude", "forms.curvature_origin")
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
    yield (np.abs(np.abs(blocks["r11"][..., 0])
                  - np.abs(blocks["r22"][..., 0])), 1e-8,
           "matrix-trace scalar parts agree (both vanish)")
    b1 = forms.curvature_blocks(x1, u1, v1)
    yield (np.abs(_quat_norm(b1["r11"]) - _quat_norm(b1["r22"])), 1e-8,
           "the two pieces share magnitude for two particles")
    origin = forms.curvature_blocks(GrassmannPoint(QuatMatrix.zeros(1, 1)),
                                    u1, v1)
    yield (_quat_norm(origin["r11"] - (u1 @ v1.adjoint()
                                       - v1 @ u1.adjoint()).trace()), 1e-12,
           "R11 = tr(u v* - v u*) at X = 0, which pins the sign")


# -- liealg --------------------------------------------------------------------

@_unit("liealg.commutation_table_k1_n2", "liealg.commutation_table_k1_n3")
def _(cfg, rng):
    for k, n in ((1, 2), (1, 3)):
        rep = liealg.verify_commutation_table(k, n)
        failures = sum(e["operator_failures"] for e in rep["families"].values())
        yield failures, 0.5, "all seven relations, exact"


@_unit("liealg.generator_skewness")
def _(cfg, rng):
    yield (_failures(gen(al, be, 1, 2).conjugate() == -gen(be, al, 1, 2)
                     for al, be in np.ndindex(2, 2)
                     for gen in (liealg.gen_h, liealg.gen_H)),
           0.5, "h* = -h and H* = -H as operator identities")


@_unit("liealg.p_three_forms")
def _(cfg, rng):
    def oks(al, a):
        p = liealg.gen_p(al, a, 1, 2)
        return (p == liealg.gen_p_via_H(al, a, 1, 2),
                p == liealg.gen_p_via_h(al, a, 1, 2),
                liealg.linear_part(p) == liealg.DiffOperator.dbar(al, a))

    yield (_failures(ok for ij in np.ndindex(2, 2) for ok in oks(*ij)), 0.5,
           "all displayed forms of p agree; linear part is dbar")


@_unit("liealg.j_contraction_symmetry")
def _(cfg, rng):
    yield (_failures(j(al, be, 1, 2) == j(be, al, 1, 2)
                     for al, be in np.ndindex(2, 2)
                     for j in (liealg.Jh, liealg.JH)),
           0.5, "(Jh) and (JH) are symmetric")


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
    # at (1, 2) each of h, H, p and pbar has 2 x 2 index pairs
    commutes = (liealg.commutator(lap, gen(*ij, 1, 2)).is_zero()
                for gen in (liealg.gen_h, liealg.gen_H, liealg.gen_p,
                            liealg.gen_pbar)
                for ij in np.ndindex(2, 2))
    yield (_failures((lap.apply(liealg.PolyFunction.constant(1)).is_zero(),
                      lap.conjugate() == lap, *commutes)), 0.5,
           "kills constants, J-invariant, commutes with all 16 generators")


# -- s4 ---------------------------------------------------------------------------

@_unit("s4.f0_residual", "s4.f0_equator")
def _(cfg, rng):
    f0 = s4lb.make_f0()
    grid = np.linspace(0.1, math.pi - 0.1, 50)
    yield np.abs([s4lb.lb_radial_residual(f0, w) for w in grid]), 1e-10
    yield (abs(f0.value(math.pi / 2)), 1e-12,
           "continuity across the equator, value zero there")


@_unit("s4.gl_residual", "s4.theta_formula")
def _(cfg, rng):
    grid_gl = np.linspace(0.3, math.pi - 0.3, 50)
    sols = [s4lb.make_gl(ell, big_n)
            for ell, big_n in ((1, 0), (Fraction(3, 2), 0), (2, 0), (2, 1))]
    yield np.abs([s4lb.lb_radial_residual(sol, w)
                  for sol in sols for w in grid_gl]), 1e-8
    yield (np.abs([s.theta - math.sqrt((s.ell + 1 - s.big_n)
                                       * (s.ell - Fraction(1, 2) - s.big_n))
                   for s in sols]), 1e-15, "sqrt((l+1-N)(l-1/2-N)) exactly")


@_unit("s4.integrability_flags")
def _(cfg, rng):
    yield (_failures([s4lb.make_f0().integrable,
                      not s4lb.make_gl(1, 0).integrable,
                      not s4lb.make_gl(Fraction(3, 2), 0).integrable]),
           0.5, "integrable exactly for l <= 1/2")


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
    yield ((rep["max_offdiagonal_ricci"], rep_ang["max_offdiagonal_ricci"]),
           1e-12, "Ricci where the metric vanishes, both charts")
    # the polar metric is 4x the unit round one; Ricci is scale invariant
    gap = abs(4.0 * rep_ang["lambda"] - rep["lambda"]) / abs(rep["lambda"])
    yield ((gap, rep_ang["relative_spread"]), 1e-12,
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
    yield (bad, 0.5,
           "scalar = A0,0 - div A and vector = -E + B, exact")


@_unit("em.pstar_linearity")
def _(cfg, rng):
    pairs = ((emfield.random_field(rng), emfield.random_field(rng))
             for _ in range(cfg.count(50)))
    pstar = emfield.apply_pstar
    yield _failures(pstar(a + b) == pstar(a) + pstar(b) for a, b in pairs), 0.5


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
    yield np.abs(moved.norm_sq() - psi.norm_sq()), 1e-9


@_unit("dynamics.block_diagonal_isolation")
def _(cfg, rng):
    genb = random_skew_adjoint(rng, 3)
    genb.a[:1, 1:, :] = 0.0
    genb.a[1:, :1, :] = 0.0
    psi = dynamics.random_state(rng, 3, 1)
    moved = dynamics.evolve(genb, psi, np.linspace(0.0, 10.0, 40))
    yield (np.abs(moved.system_norm_sq() - psi.system_norm_sq()), 1e-9,
           "no norm crosses a non-interacting partition")


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
    yield _quat_norm(rec - direct), 1e-12


# -- roots -------------------------------------------------------------------------

@_unit("roots.counts_and_closure")
def _(cfg, rng):
    def oks(n):
        system = roots_mod.generate(n)
        return (len(system.roots) == 2 * n * n,
                len(set(system.roots)) == len(system.roots),
                all(tuple(-c for c in r) in system for r in system.roots))

    yield (_failures(ok for n in range(1, 7) for ok in oks(n)), 0.5,
           "2 n^2 roots, negation closed, no duplicates")


@_unit("roots.subalgebra_embedding")
def _(cfg, rng):
    yield _failures([*(roots_mod.embed_check(m, n)
                       for m, n in ((1, 2), (2, 3), (3, 5))),
                     (1, 1, 1) not in roots_mod.generate(3)]), 0.5


@_unit("roots.particle_labels")
def _(cfg, rng):
    lep = roots_mod.particle_label([((2, 0, 0, 0), None)])
    mes = roots_mod.particle_label([((1, 0, 0, 0), None), ((0, 1, 0, 0), None)])
    mes_bar = roots_mod.particle_label([((-1, 0, 0, 0), None),
                                        ((0, 1, 0, 0), None)])
    baryon = roots_mod.particle_label([((1, 0, 0, 0), "i"),
                                       ((1, 0, 0, 0), "j"),
                                       ((0, 1, 0, 0), "k")])
    round_trips = (roots_mod.parse_label(label.canonical()) == label
                   for label in (lep, mes, mes_bar, baryon))
    yield (_failures([lep.classification == "lepton",
                      mes.label == "ud" and mes.classification == "meson",
                      mes_bar.label == "u" + roots_mod.BAR + "d",
                      baryon.label == "uud" and baryon.classification == "baryon",
                      *round_trips]),
           0.5, "verbatim label examples and round-trip")


@_unit("roots.euler_characteristic")
def _(cfg, rng):
    yield _failures(roots_mod.euler_characteristic(dim) == 2
                    for dim in (2, 4, 12)), 0.5


# -- runner -------------------------------------------------------------------

# first names of the units run_suite runs in a forked child, in report order
FORKED = ("coset.lft_two_forms", "coset.cross_ratio_invariance",
          "coset.s3_sampling_uniform")


def _suite_of(names) -> str:
    return names[0].split(".", 1)[0]


def _suite_runner(suite: str):
    def run(cfg: RunConfig, forked=()) -> list:
        """The suite's checks in report order; a unit in ``forked`` as its
        first name, which run_suite replaces with the unit's rows."""
        return [check for names, body in UNITS if _suite_of(names) == suite
                for check in ([names[0]] if names[0] in forked else
                              _run_unit(names, body, cfg, cfg.rng(names[0])))]
    return run


# suite name -> the runner of its units, in report order
SUITES = {suite: _suite_runner(suite)
          for suite in dict.fromkeys(_suite_of(names) for names, _ in UNITS)}


def _fork(suites: list, cfg: RunConfig):
    """(pid, pipe) of a child that pickles to the pipe the rows of the run's
    units in ``FORKED`` by first name, or a non-QflagError one raised; None
    on one CPU (or none known), beside another thread, or if ``fork`` fails."""
    units = [(names, body) for names, body in UNITS
             if names[0] in FORKED and _suite_of(names) in suites]
    if not (units and hasattr(os, "fork") and threading.active_count() == 1
            and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1):
        return None
    rngs = [cfg.rng(names[0]) for names, _ in units]
    read, write = os.pipe()
    with open(write, "wb") as pipe:     # closed in the parent on return
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            return None
        if pid:
            return pid, open(read, "rb")
        try:
            try:
                out = {names[0]: _run_unit(names, body, cfg, rng)
                       for (names, body), rng in zip(units, rngs)}
            except Exception as exc:
                out = exc
            pipe.write(pickle.dumps(out))
            pipe.close()
        finally:
            os._exit(0)


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run one named suite (or 'all') and assemble the report.

    Every check name is declared up front, so a tolerance override that
    names no check of the run fails before any work.  An exception other
    than a :class:`QflagError`, here or in the child of :func:`_fork`, is
    raised once the child is reaped.
    """
    if name != "all" and name not in SUITES:
        raise UnknownSuite(f"no suite named {name!r}; "
                           f"choose from {', '.join(SUITES)} or all")
    suites = list(SUITES) if name == "all" else [name]
    known = {check for names, _ in UNITS for check in names
             if check.split(".", 1)[0] in suites}
    unknown = [k for k in cfg.tol_overrides if k not in known]
    if unknown:
        raise UnknownTolerance(
            f"--tol names no check of this run: {', '.join(unknown)}")
    child = _fork(suites, cfg)
    try:
        parts = [part for suite in suites
                 for part in SUITES[suite](cfg, FORKED if child else ())]
        sent = child[1].read() if child else pickle.dumps({})
    finally:
        if child:   # a child whose pipe is read to its end only exits
            os.kill(child[0], signal.SIGKILL)
            child[1].close()
            os.waitpid(child[0], 0)
    rows = pickle.loads(sent) if sent else RuntimeError(
        "the forked child sent no rows of " + ", ".join(FORKED))
    if isinstance(rows, Exception):
        raise rows
    checks = [check for part in parts
              for check in (rows[part] if isinstance(part, str) else [part])]
    return {
        "spec_version": SCHEMA_VERSION,
        "suite": name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
