"""Named invariant suites with machine-readable results.

Each suite re-derives the identities its module promises, on seeded random
draws, and reports one :class:`CheckResult` per invariant.  The CLI renders
these as JSON; the test suite asserts on them directly.  Checks draw their
randomness from a generator keyed by (seed, check name), so a rerun with the
same configuration is bit-identical.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import coset, dynamics, emfield, forms, liealg, roots as roots_mod, s4lb
from .errors import UnknownSuite, UnknownTolerance
from .quaternion import (Quaternion, from_m2c, j_conjugate, random_quaternion,
                         random_unit_quaternion, to_m2c)
from .quatmat import (GroupElement, QuatMatrix, expm, func_hermitian,
                      random_group_element, random_quatmat,
                      random_skew_adjoint, sp2nc_form, to_sp2nc)

SCHEMA_VERSION = 1


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


def _draw_batches(rng: np.random.Generator, count: int, *draws):
    """``count`` rounds of draws, each round calling every ``draws[i](rng)``
    in order, stacked into one QuatMatrix batch per position ``i``.

    This keeps the order in which a loop of single draws reads ``rng``.
    """
    rounds = [[draw(rng) for draw in draws] for _ in range(count)]
    return [QuatMatrix(np.stack([r[i].a for r in rounds]))
            for i in range(len(draws))]


def _group_gen(rng):
    """The generator that ``random_group_element(rng, 4)`` exponentiates."""
    return random_skew_adjoint(rng, 4, 0.7)


def _quatmat_draw(rows: int, cols: int, scale: float = 1.0):
    return lambda rng: random_quatmat(rng, rows, cols, scale)


def _quat_norm(q: np.ndarray) -> np.ndarray:
    """Quaternion norms of a (..., 4) array, summed as Quaternion.norm sums."""
    w, x, y, z = (q[..., c] for c in range(4))
    return np.sqrt(w * w + x * x + y * y + z * z)


def _check(cfg: RunConfig, name: str, residual: float, tolerance: float,
           detail: str = "") -> CheckResult:
    tolerance = cfg.tol(name, tolerance)
    return CheckResult(name=name, passed=residual < tolerance,
                       residual=float(residual), tolerance=tolerance,
                       detail=detail)


# -- quaternion ---------------------------------------------------------------

def suite_quaternion(cfg: RunConfig):
    out = []
    rng = cfg.rng("quaternion.norm_multiplicative")
    worst = 0.0
    for _ in range(cfg.count(10_000)):
        a, b = random_quaternion(rng), random_quaternion(rng)
        lhs, rhs = (a * b).norm_sq(), a.norm_sq() * b.norm_sq()
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out.append(_check(cfg, "quaternion.norm_multiplicative", worst, 1e-12))

    rng = cfg.rng("quaternion.conj_antihomomorphism")
    worst = 0.0
    for _ in range(cfg.count(10_000)):
        a, b = random_quaternion(rng), random_quaternion(rng)
        worst = max(worst, ((a * b).conj() - b.conj() * a.conj()).norm())
    out.append(_check(cfg, "quaternion.conj_antihomomorphism", worst, 1e-13))

    rng = cfg.rng("quaternion.m2c_homomorphism")
    worst = 0.0
    round_trip_exact = True
    for _ in range(cfg.count(10_000)):
        a, b = random_quaternion(rng), random_quaternion(rng)
        diff = np.abs(to_m2c(a * b) - to_m2c(a) @ to_m2c(b)).max()
        worst = max(worst, float(diff))
        if from_m2c(to_m2c(a)) != a:
            round_trip_exact = False
    out.append(_check(cfg, "quaternion.m2c_homomorphism", worst, 1e-12))
    out.append(_check(cfg, "quaternion.m2c_round_trip",
                      0.0 if round_trip_exact else 1.0, 0.5,
                      "bit-exact inverse of the embedding"))

    rng = cfg.rng("quaternion.j_conjugation")
    worst = 0.0
    for _ in range(cfg.count(1000)):
        m = to_m2c(random_quaternion(rng))
        worst = max(worst, float(np.abs(j_conjugate(m) - m.conj()).max()))
        worst = max(worst, float(np.abs(j_conjugate(j_conjugate(m)) - m).max()))
    out.append(_check(cfg, "quaternion.j_conjugation", worst, 1e-13,
                      "entrywise conjugate and involution"))
    return out


# -- quatmat -------------------------------------------------------------------

def suite_quatmat(cfg: RunConfig):
    out = []
    rng = cfg.rng("quatmat.embedding_faithful")
    worst = 0.0
    for _ in range(cfg.count(500)):
        a = random_quatmat(rng, 3, 4)
        b = random_quatmat(rng, 4, 2)
        worst = max(worst, float(np.abs((a @ b).embed()
                                        - a.embed() @ b.embed()).max()))
        worst = max(worst, float(np.abs(a.adjoint().embed()
                                        - a.embed().conj().T).max()))
        c = random_quatmat(rng, 3, 4)
        worst = max(worst, float(np.abs((a + c).embed()
                                        - (a.embed() + c.embed())).max()))
    out.append(_check(cfg, "quatmat.embedding_faithful", worst, 1e-11))

    rng = cfg.rng("quatmat.exp_group_membership")
    worst = 0.0
    for _ in range(cfg.count(50)):
        gen = random_skew_adjoint(rng, 3)
        for t in (0.1, 1.0, 10.0):
            g = expm(gen * t)
            worst = max(worst, (g.adjoint() @ g
                                - QuatMatrix.identity(3)).max_abs())
    out.append(_check(cfg, "quatmat.exp_group_membership", worst, 1e-10))

    rng = cfg.rng("quatmat.exp_inverse")
    worst = 0.0
    for _ in range(cfg.count(200)):
        gen = random_skew_adjoint(rng, 3)
        worst = max(worst, (expm(gen) @ expm(-gen)
                            - QuatMatrix.identity(3)).max_abs())
    out.append(_check(cfg, "quatmat.exp_inverse", worst, 1e-10))

    rng = cfg.rng("quatmat.unit_determinant")
    worst = 0.0
    for _ in range(cfg.count(100)):
        g = random_group_element(rng, 3)
        worst = max(worst, abs(abs(np.linalg.det(g.m.embed())) - 1.0))
    out.append(_check(cfg, "quatmat.unit_determinant", worst, 1e-9))

    rng = cfg.rng("quatmat.sqrt_remultiplication")
    worst = 0.0
    for _ in range(cfg.count(200)):
        q = random_quatmat(rng, 3, 3)
        p = q @ q.adjoint()
        r = func_hermitian(p, "sqrt")
        worst = max(worst, (r @ r - p).max_abs() / max(1.0, p.max_abs()))
    out.append(_check(cfg, "quatmat.sqrt_remultiplication", worst, 1e-9))

    rng = cfg.rng("quatmat.sp2nc_conditions")
    worst = 0.0
    for _ in range(cfg.count(100)):
        g = random_group_element(rng, 2)
        big = to_sp2nc(g)
        form = sp2nc_form(2)
        worst = max(worst, float(np.abs(big.T @ form @ big - form).max()))
        worst = max(worst, float(np.abs(big.conj().T @ big - np.eye(4)).max()))
    out.append(_check(cfg, "quatmat.sp2nc_conditions", worst, 1e-10,
                      "simultaneously complex symplectic and unitary"))
    return out


# -- coset ----------------------------------------------------------------------

def suite_coset(cfg: RunConfig):
    out = []
    point = coset.GrassmannPoint
    half, unit = _quatmat_draw(2, 2, 0.5), _quatmat_draw(2, 2)

    rng = cfg.rng("coset.exponential_parameterisation")
    (xi,) = _draw_batches(rng, cfg.count(200), half)
    worst = (coset.coset_element(xi).m
             - expm(coset.coset_generator(xi))).max_abs()
    out.append(_check(cfg, "coset.exponential_parameterisation", worst, 1e-9))

    rng = cfg.rng("coset.lft_two_forms")
    gen1, gen2, x = _draw_batches(rng, cfg.count(500), _group_gen, _group_gen,
                                  half)
    g1, g2, x = GroupElement(expm(gen1)), GroupElement(expm(gen2)), point(x)
    ya = coset.lft_apply(g1, x)
    yb = coset.lft_apply_second_form(g1, x)
    worst_forms = (ya.x - yb.x).max_abs()
    comp = coset.lft_apply(g2, ya)
    direct = coset.lft_apply(g2 @ g1, x)
    worst_law = (comp.x - direct.x).max_abs()
    out.append(_check(cfg, "coset.lft_two_forms", worst_forms, 1e-9))
    out.append(_check(cfg, "coset.lft_group_law", worst_law, 1e-8))

    rng = cfg.rng("coset.transport_identities")
    gen, xa, xb = _draw_batches(rng, cfg.count(500), _group_gen, half, half)
    res = coset.transport_identities(GroupElement(expm(gen)), point(xa),
                                     point(xb))
    worst = max(float(r.max()) for r in res.values())
    out.append(_check(cfg, "coset.transport_identities", worst, 1e-9))

    rng = cfg.rng("coset.cross_ratio_invariance")
    gen, *pts = _draw_batches(rng, cfg.count(500), _group_gen,
                              half, half, half, half)
    g = GroupElement(expm(gen))
    pts = [point(p) for p in pts]
    cr = coset.cross_ratio(*pts)
    cr_moved = coset.cross_ratio(*[coset.lft_apply(g, p) for p in pts])
    worst = float((np.abs(cr - cr_moved) / np.maximum(1.0, np.abs(cr))).max())
    out.append(_check(cfg, "coset.cross_ratio_invariance", worst, 1e-8))

    rng = cfg.rng("coset.metric_two_versions")
    x, dx = _draw_batches(rng, cfg.count(500), half, unit)
    worst = float(np.abs(coset.metric_form(point(x), dx)
                         - coset.metric_form_expanded(point(x), dx)).max())
    out.append(_check(cfg, "coset.metric_two_versions", worst, 1e-10))

    rng = cfg.rng("coset.metric_pushforward_invariance")
    gen, x, dx = _draw_batches(rng, cfg.count(100), _group_gen,
                               _quatmat_draw(2, 2, 0.4), unit)
    worst = float(coset.metric_invariance_residual(
        GroupElement(expm(gen)), point(x), dx).max())
    out.append(_check(cfg, "coset.metric_pushforward_invariance", worst, 1e-11))

    rng = cfg.rng("coset.metric_inversion_invariance")
    worst = 0.0
    for _ in range(cfg.count(200)):
        q = random_quaternion(rng)
        dq = random_quaternion(rng)
        if q.norm() < 0.1:
            continue
        worst = max(worst, coset.inversion_invariance_residual(q, dq))
    out.append(_check(cfg, "coset.metric_inversion_invariance", worst, 1e-6))

    rng = cfg.rng("coset.curvature_trace_identity")
    worst = 0.0
    for n, k in ((3, 1), (5, 2), (6, 3)):
        for _ in range(cfg.count(100)):
            q = random_quatmat(rng, k, n, 0.8)
            lhs, rhs = coset.curvature_trace(q, n, k)
            worst = max(worst, abs(lhs - rhs))
    out.append(_check(cfg, "coset.curvature_trace_identity", worst, 1e-9))

    rng = cfg.rng("coset.curvature_det_consistency")
    worst = 0.0
    for _ in range(cfg.count(200)):
        q = random_quatmat(rng, 2, 4, 0.7)
        coset.curvature_det(q, 4, 2)   # raises on cross-check failure
    out.append(_check(cfg, "coset.curvature_det_consistency", worst, 0.5,
                      "eigenvalue product vs embedding determinant root"))

    rng = cfg.rng("coset.s3_sampling_uniform")
    draws = cfg.count(1_000_000)
    comp = rng.normal(0.0, 1.0, (draws, 4))
    comp /= np.linalg.norm(comp, axis=1, keepdims=True)
    means = comp.mean(axis=0)
    sigma = 0.5 / math.sqrt(draws)   # per-component std of a unit 3-sphere
    worst = float(np.abs(means).max() / sigma)
    out.append(_check(cfg, "coset.s3_sampling_uniform", worst, 4.0,
                      "component means in units of the standard error"))

    rng = cfg.rng("coset.haar_equivariance")
    samples = cfg.count(20_000)
    x = random_group_element(rng, 2)
    xi = [random_unit_quaternion(rng) for _ in range(2)]
    x_xi = GroupElement(x.m @ QuatMatrix.diag(xi), check=False)

    def alpha(shifted):
        return shifted[:, [0, 1], [0, 1]]     # the entries (0, 0) and (1, 1)

    sub_seed = int(rng.integers(0, 2 ** 31))
    f_shift = coset.haar_average(alpha, coset.fundamental_action, x_xi,
                                 samples, seed=sub_seed)
    f_base = coset.haar_average(alpha, coset.fundamental_action, x,
                                samples, seed=sub_seed)
    xi_conj = np.array([u.conj().to_array() for u in xi])
    moved = coset.fundamental_action(xi_conj, f_base)
    diff = float(_quat_norm(f_shift - moved).max())
    stderr = 2.0 / math.sqrt(samples)
    out.append(_check(cfg, "coset.haar_equivariance", diff / stderr, 5.0,
                      "equivariance gap in units of the Monte-Carlo error"))

    inner_gap = abs(coset.inner_product(f_shift, f_shift)
                    - coset.inner_product(moved, moved))
    out.append(_check(cfg, "coset.haar_inner_product", inner_gap / stderr, 5.0,
                      "fiber shift leaves the inner product fixed"))
    return out


# -- forms -----------------------------------------------------------------------

def suite_forms(cfg: RunConfig):
    out = []
    sd, asd = forms.dY_wedge()
    expected_sd = {(0, 1): Quaternion(0, -2, 0, 0), (2, 3): Quaternion(0, -2, 0, 0),
                   (0, 2): Quaternion(0, 0, -2, 0), (1, 3): Quaternion(0, 0, 2, 0),
                   (0, 3): Quaternion(0, 0, 0, -2), (1, 2): Quaternion(0, 0, 0, -2)}
    worst = max((sd.coefficient(*key) - val).norm()
                for key, val in expected_sd.items())
    worst = max(worst, max((sd.coefficient(*k) + asd.coefficient(*k)).norm()
                           for k in ((0, 1), (0, 2), (0, 3))))
    worst = max(worst, max(abs(c.w) for c in sd.coeffs.values()))
    out.append(_check(cfg, "forms.wedge_component_pattern", worst, 1e-15,
                      "displayed +/- area-element pattern, no scalar part"))

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
    out.append(_check(cfg, "forms.hodge_eigensectors", worst, 1e-15,
                      "+1 on the first product, -1 on the second"))

    rng = cfg.rng("forms.wedge_bilinearity")
    worst = 0.0
    for _ in range(cfg.count(100)):
        a = forms.QOneForm(4, {i: random_quaternion(rng) for i in range(4)})
        b = forms.QOneForm(4, {i: random_quaternion(rng) for i in range(4)})
        c = forms.QOneForm(4, {i: random_quaternion(rng) for i in range(4)})
        lhs = (a + b).wedge(c)
        rhs = a.wedge(c) + b.wedge(c)
        worst = max(worst, (lhs - rhs).max_abs())
    out.append(_check(cfg, "forms.wedge_bilinearity", worst, 1e-12))

    rng = cfg.rng("forms.connection_skewness")
    worst_skew = 0.0
    worst_pair = 0.0
    for _ in range(cfg.count(20)):
        gen = random_skew_adjoint(rng, 4)
        w11, w12, w21, w22 = forms.connection_blocks(gen, 0.3, 2, 2)
        full = forms.connection_along_path(gen, 0.3)
        worst_skew = max(worst_skew, (full + full.adjoint()).max_abs())
        worst_pair = max(worst_pair, (w21 + w12.adjoint()).max_abs())
    out.append(_check(cfg, "forms.connection_skewness", worst_skew, 1e-11))
    out.append(_check(cfg, "forms.connection_block_pairing", worst_pair, 1e-11))

    rng = cfg.rng("forms.isotropy_vanishing")
    worst = 0.0
    for _ in range(cfg.count(20)):
        gen = random_skew_adjoint(rng, 4)
        gen.a[:2, 2:, :] = 0.0
        gen.a[2:, :2, :] = 0.0
        _, w12, w21, _ = forms.connection_blocks(gen, 0.4, 2, 2)
        worst = max(worst, w12.max_abs(), w21.max_abs())
    out.append(_check(cfg, "forms.isotropy_vanishing", worst, 1e-11,
                      "block-diagonal paths carry no off-diagonal connection"))

    rng = cfg.rng("forms.maurer_cartan")
    worst = 0.0
    for _ in range(cfg.count(10)):
        g1 = random_skew_adjoint(rng, 3)
        g2 = random_skew_adjoint(rng, 3)
        worst = max(worst, forms.maurer_cartan_residual(
            g1, g2, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
    out.append(_check(cfg, "forms.maurer_cartan", worst, 1e-11,
                      "exact derivatives of exp(s a + t b) from one dual block"))

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
    out.append(_check(cfg, "forms.curvature_antisymmetry", worst_anti, 1e-12))
    out.append(_check(cfg, "forms.curvature_scalar_parts", worst_scalar, 1e-8,
                      "matrix-trace scalar parts agree (both vanish)"))
    out.append(_check(cfg, "forms.curvature_rank_one_magnitude", worst_rank1,
                      1e-8, "the two pieces share magnitude for two particles"))
    return out


# -- liealg --------------------------------------------------------------------

def suite_liealg(cfg: RunConfig):
    out = []
    for k, n in ((1, 2), (1, 3)):
        rep = liealg.verify_commutation_table(k, n)
        failures = sum(e["operator_failures"] + e["application_failures"]
                       for e in rep["families"].values())
        out.append(_check(cfg, f"liealg.commutation_table_k{k}_n{n}",
                          float(failures), 0.5,
                          "all seven relations, exact; "
                          + ("no rewrites" if not rep["rewrites"]
                             else str(rep["rewrites"]))))

    bad = 0
    for al in range(2):
        for be in range(2):
            if liealg.gen_h(al, be, 1, 2).conjugate() != -liealg.gen_h(be, al, 1, 2):
                bad += 1
            if liealg.gen_H(al, be, 1, 2).conjugate() != -liealg.gen_H(be, al, 1, 2):
                bad += 1
    out.append(_check(cfg, "liealg.generator_skewness", float(bad), 0.5,
                      "h* = -h and H* = -H as operator identities"))

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
    out.append(_check(cfg, "liealg.p_three_forms", float(bad), 0.5,
                      "all displayed forms of p agree; linear part is dbar"))

    bad = 0
    for al in range(2):
        for be in range(2):
            if liealg.Jh(al, be, 1, 2) != liealg.Jh(be, al, 1, 2):
                bad += 1
            if liealg.JH(al, be, 1, 2) != liealg.JH(be, al, 1, 2):
                bad += 1
    out.append(_check(cfg, "liealg.j_contraction_symmetry", float(bad), 0.5,
                      "(Jh) and (JH) are symmetric"))

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
    out.append(_check(cfg, "liealg.ladder_shifts", float(bad), 0.5,
                      "+1 under p, -1 under pbar, exact"))

    lap = liealg.laplace_beltrami(1, 2)
    bad = 0
    if not lap.apply(liealg.PolyFunction.constant(1)).is_zero():
        bad += 1
    if lap.conjugate() != lap:
        bad += 1
    for al in range(2):
        if (lap.compose(liealg.cartan_h(al, 1, 2))
                != liealg.cartan_h(al, 1, 2).compose(lap)):
            bad += 1
        if (lap.compose(liealg.cartan_H(al, 1, 2))
                != liealg.cartan_H(al, 1, 2).compose(lap)):
            bad += 1
    out.append(_check(cfg, "liealg.laplace_beltrami", float(bad), 0.5,
                      "kills constants, J-invariant, commutes with Cartans"))
    return out


# -- s4 ---------------------------------------------------------------------------

def suite_s4(cfg: RunConfig):
    out = []
    f0 = s4lb.make_f0()
    grid = np.linspace(0.1, math.pi - 0.1, 50)
    worst = max(abs(s4lb.lb_radial_residual(f0, w)) for w in grid)
    out.append(_check(cfg, "s4.f0_residual", worst, 1e-10))
    out.append(_check(cfg, "s4.f0_equator", abs(f0.value(math.pi / 2)), 1e-12,
                      "continuity across the equator, value zero there"))

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
    out.append(_check(cfg, "s4.gl_residual", worst, 1e-8))
    out.append(_check(cfg, "s4.theta_formula", worst_theta, 1e-15,
                      "sqrt((l+1-N)(l-1/2-N)) exactly"))

    flags_ok = (s4lb.make_f0().integrable
                and not s4lb.make_gl(1, 0).integrable
                and not s4lb.make_gl(Fraction(3, 2), 0).integrable)
    out.append(_check(cfg, "s4.integrability_flags",
                      0.0 if flags_ok else 1.0, 0.5,
                      "integrable exactly for l <= 1/2"))

    rng = cfg.rng("s4.einstein_y_chart")
    pts = s4lb.random_chart_points(rng, cfg.count(20))
    rep = s4lb.einstein_check(pts)
    out.append(_check(cfg, "s4.einstein_y_chart", rep["relative_spread"], 1e-3,
                      f"lambda = {rep['lambda']:.6f}"))
    out.append(_check(cfg, "s4.einstein_offdiagonal",
                      rep["max_offdiagonal_ricci"], 1e-5))

    rng = cfg.rng("s4.einstein_angular_chart")
    ang_pts = [np.array([rng.uniform(0.7, 2.4), rng.uniform(0.7, 2.4),
                         rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)])
               for _ in range(4)]
    rep_ang = s4lb.einstein_check(
        ang_pts, metric_fn=lambda p: s4lb.angular_metric(p[0], p[1]))
    # the polar metric is 4x the unit round one; Ricci is scale invariant
    gap = abs(4.0 * rep_ang["lambda"] - rep["lambda"]) / abs(rep["lambda"])
    out.append(_check(cfg, "s4.einstein_chart_consistency",
                      max(gap, rep_ang["relative_spread"]), 1e-3,
                      f"angular lambda = {rep_ang['lambda']:.6f}"))
    return out


# -- em ---------------------------------------------------------------------------

def suite_em(cfg: RunConfig):
    out = []
    rng = cfg.rng("em.decomposition_exact")
    bad = 0
    for _ in range(cfg.count(100)):
        psi = emfield.random_field(rng)
        dec = emfield.decompose(psi)   # exact internal cross-check
        image = emfield.apply_pstar(psi)
        if image.components[0] != dec.scalar:
            bad += 1
    out.append(_check(cfg, "em.decomposition_exact", float(bad), 0.5,
                      "scalar = A0,0 - div A and vector = -E + B, exact"))

    rng = cfg.rng("em.pstar_linearity")
    bad = 0
    for _ in range(cfg.count(50)):
        a = emfield.random_field(rng)
        b = emfield.random_field(rng)
        if emfield.apply_pstar(a + b) != (emfield.apply_pstar(a)
                                          + emfield.apply_pstar(b)):
            bad += 1
    out.append(_check(cfg, "em.pstar_linearity", float(bad), 0.5))

    rng = cfg.rng("em.product_identity")
    worst = 0.0
    for _ in range(cfg.count(10_000)):
        worst = max(worst, emfield.quaternion_product_identity(
            random_quaternion(rng), random_quaternion(rng)))
    out.append(_check(cfg, "em.product_identity", worst, 1e-13,
                      "scalar/dot/cross assembly matches the product"))
    return out


# -- dynamics ----------------------------------------------------------------------

def suite_dynamics(cfg: RunConfig):
    out = []
    rng = cfg.rng("dynamics.norm_conservation")
    worst = 0.0
    gen = random_skew_adjoint(rng, 3)
    psi = dynamics.random_state(rng, 3, 1)
    for t in np.linspace(0.0, 10.0, 100):
        worst = max(worst, abs(dynamics.evolve(gen, psi, t).norm_sq()
                               - psi.norm_sq()))
    out.append(_check(cfg, "dynamics.norm_conservation", worst, 1e-9))

    rng = cfg.rng("dynamics.block_diagonal_isolation")
    genb = random_skew_adjoint(rng, 3)
    genb.a[:1, 1:, :] = 0.0
    genb.a[1:, :1, :] = 0.0
    psi = dynamics.random_state(rng, 3, 1)
    worst = 0.0
    for t in np.linspace(0.0, 10.0, 40):
        moved = dynamics.evolve(genb, psi, t)
        worst = max(worst, abs(moved.system_norm_sq() - psi.system_norm_sq()))
    out.append(_check(cfg, "dynamics.block_diagonal_isolation", worst, 1e-9,
                      "no norm crosses a non-interacting partition"))

    rng = cfg.rng("dynamics.cocycle")
    worst = 0.0
    for _ in range(cfg.count(50)):
        gen = random_skew_adjoint(rng, 3)
        worst = max(worst, dynamics.cocycle_residual(gen, 2.7, 1.3))
    out.append(_check(cfg, "dynamics.cocycle", worst, 1e-9))

    rng = cfg.rng("dynamics.time_reversal")
    worst = 0.0
    for _ in range(cfg.count(50)):
        gen = random_skew_adjoint(rng, 3)
        for t in (0.1, 1.0, 10.0):
            worst = max(worst, dynamics.time_reversal_residual(gen, t))
    out.append(_check(cfg, "dynamics.time_reversal", worst, 1e-11))

    rng = cfg.rng("dynamics.geodesic_block")
    worst = 0.0
    worst_unitary = 0.0
    for _ in range(cfg.count(100)):
        u = random_unit_quaternion(rng)
        omega = rng.uniform(0.1, 3.0)
        t = rng.uniform(0.0, 5.0)
        blk = dynamics.geodesic_block(u, omega, t)
        ex = expm(dynamics.geodesic_generator(u) * (omega * t))
        worst = max(worst, (blk.m - ex).max_abs())
        worst_unitary = max(worst_unitary,
                            (blk.m.adjoint() @ blk.m
                             - QuatMatrix.identity(2)).max_abs())
    out.append(_check(cfg, "dynamics.geodesic_block", worst, 1e-10))
    out.append(_check(cfg, "dynamics.geodesic_unitarity", worst_unitary, 1e-12))

    rng = cfg.rng("dynamics.transition_split")
    worst = 0.0
    for _ in range(cfg.count(100)):
        gen = random_skew_adjoint(rng, 4)
        psi = dynamics.random_state(rng, 4, 2)
        split = dynamics.transition_split(gen, psi)
        rec = split.reconstruction()
        direct = gen @ psi.as_column()
        worst = max(worst, max((rec[i] - direct.entry(i, 0)).norm()
                               for i in range(4)))
    out.append(_check(cfg, "dynamics.transition_split", worst, 1e-12))
    return out


# -- roots -------------------------------------------------------------------------

def suite_roots(cfg: RunConfig):
    out = []
    bad = 0
    for n in range(1, 7):
        system = roots_mod.generate(n)
        if len(system.roots) != 2 * n * n:
            bad += 1
        if len(set(system.roots)) != len(system.roots):
            bad += 1
        if any(tuple(-c for c in r) not in system for r in system.roots):
            bad += 1
    out.append(_check(cfg, "roots.counts_and_closure", float(bad), 0.5,
                      "2 n^2 roots, negation closed, no duplicates"))

    bad = 0
    for m, n in ((1, 2), (2, 3), (3, 5)):
        if not roots_mod.embed_check(m, n):
            bad += 1
    if (1, 1, 1) in roots_mod.generate(3):
        bad += 1
    out.append(_check(cfg, "roots.subalgebra_embedding", float(bad), 0.5))

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
    out.append(_check(cfg, "roots.particle_labels", float(bad), 0.5,
                      "verbatim label examples and round-trip"))

    bad = 0
    for dim in (2, 4, 12):
        if roots_mod.euler_characteristic(dim) != 2:
            bad += 1
    out.append(_check(cfg, "roots.euler_characteristic", float(bad), 0.5))
    return out


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
    _require_known(sorted(set(cfg.tol_overrides) - {c.name for c in checks}))
    return {
        "spec_version": SCHEMA_VERSION,
        "suite": name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }
