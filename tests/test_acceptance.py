"""Acceptance gate: every criterion at its stated tolerance.

Each test exercises one numbered criterion end to end, records a PASS/FAIL
line for the terminal summary, and asserts.  Stated runtime budgets are
enforced with wall-clock checks.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from conftest import record_criterion

from qflag import cli, coset, dynamics, emfield, forms, liealg, s4lb
from qflag import roots as roots_mod
from qflag.quaternion import (Quaternion, random_quaternion,
                              random_unit_quaternion, to_m2c)
from qflag.quatmat import (QuatMatrix, expm, random_group_element,
                           random_quatmat, random_skew_adjoint)


def test_criterion_01_m2c_homomorphism():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    residuals = []
    for _ in range(10_000):
        a, b = random_quaternion(rng), random_quaternion(rng)
        residuals.append(np.abs(to_m2c(a * b) - to_m2c(a) @ to_m2c(b)))
    # numpy's max, unlike Python's, keeps a NaN that is not the first value
    worst = np.max(residuals)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-12 and elapsed < 1.0
    record_criterion(1, "quaternion/m2c homomorphism on 1e4 pairs", passed,
                     f"worst={worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_lft_forms_and_group_law():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    forms_gaps, law_gaps = [], []
    for _ in range(500):
        g1 = random_group_element(rng, 4)
        g2 = random_group_element(rng, 4)
        x = coset.GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
        y1 = coset.lft_apply(g1, x)
        y2 = coset.lft_apply_second_form(g1, x)
        forms_gaps.append((y1.x - y2.x).max_abs())
        composed = coset.lft_apply(g2, y1)
        direct = coset.lft_apply(g2 @ g1, x)
        law_gaps.append((composed.x - direct.x).max_abs())
    worst_forms, worst_law = np.max(forms_gaps), np.max(law_gaps)
    elapsed = time.perf_counter() - start
    passed = worst_forms < 1e-9 and worst_law < 1e-8 and elapsed < 10.0
    record_criterion(2, "both action forms agree and compose (500 draws)",
                     passed, f"forms={worst_forms:.2e}, law={worst_law:.2e}, "
                             f"{elapsed:.1f}s")
    assert worst_forms < 1e-9
    assert worst_law < 1e-8
    assert elapsed < 10.0


def test_criterion_03_transport_identities():
    rng = np.random.default_rng(1003)
    residuals = []
    for _ in range(500):
        g = random_group_element(rng, 4)
        xa = coset.GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
        xb = coset.GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
        residuals.extend(coset.transport_identities(g, xa, xb).values())
    worst = np.max(residuals)
    passed = worst < 1e-9
    record_criterion(3, "four projective transport identities (500 draws)",
                     passed, f"worst={worst:.2e}")
    assert passed


def test_criterion_04_cross_ratio_invariance():
    rng = np.random.default_rng(1004)
    drifts = []
    for _ in range(500):
        g = random_group_element(rng, 4)
        pts = [coset.GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
               for _ in range(4)]
        before = coset.cross_ratio(*pts)
        after = coset.cross_ratio(*[coset.lft_apply(g, p) for p in pts])
        drifts.append(abs(before - after) / max(1.0, abs(before)))
    worst = np.max(drifts)
    passed = worst < 1e-8
    record_criterion(4, "cross-ratio invariance (500 draws)", passed,
                     f"drift={worst:.2e}")
    assert passed


def test_criterion_05_metric_forms_and_invariance():
    rng = np.random.default_rng(1005)
    versions = []
    for _ in range(500):
        x = coset.GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
        dx = random_quatmat(rng, 2, 2)
        versions.append(abs(coset.metric_form(x, dx)
                            - coset.metric_form_expanded(x, dx)))
    worst_versions = np.max(versions)
    pushes = []
    for _ in range(100):
        g = random_group_element(rng, 4)
        x = coset.GrassmannPoint(random_quatmat(rng, 2, 2, 0.4))
        dx = random_quatmat(rng, 2, 2)
        pushes.append(coset.metric_invariance_residual(g, x, dx))
    worst_push = np.max(pushes)
    points, tangents = [], []
    for _ in range(200):
        q = random_quaternion(rng)
        if q.norm() < 0.1:
            continue
        points.append(q.to_array())
        tangents.append(random_quaternion(rng).to_array())
    worst_inv = float(coset.inversion_invariance_residual(
        coset.GrassmannPoint(QuatMatrix(np.array(points)[:, None, None])),
        QuatMatrix(np.array(tangents)[:, None, None])).max())
    passed = worst_versions < 1e-10 and worst_push < 1e-5 and worst_inv < 1e-6
    record_criterion(5, "metric versions, pushforward and inversion "
                        "invariance", passed,
                     f"versions={worst_versions:.2e}, push={worst_push:.2e}, "
                     f"inv={worst_inv:.2e}")
    assert worst_versions < 1e-10
    assert worst_push < 1e-5
    assert worst_inv < 1e-6


def test_criterion_06_curvature_trace_identity():
    rng = np.random.default_rng(1006)
    gaps = []
    for n, k in ((3, 1), (5, 2), (6, 3)):
        for _ in range(100):
            q = random_quatmat(rng, k, n, 0.8)
            lhs, rhs = coset.curvature_trace(q)
            gaps.append(abs(lhs - rhs))
    worst = np.max(gaps)
    passed = worst < 1e-9
    record_criterion(6, "curvature trace identity, (n,k) in "
                        "{(3,1),(5,2),(6,3)}", passed, f"worst={worst:.2e}")
    assert passed


def test_criterion_07_commutation_relations():
    start = time.perf_counter()
    reports = [liealg.verify_commutation_table(1, 2),
               liealg.verify_commutation_table(1, 3)]
    elapsed = time.perf_counter() - start
    failures = sum(e["operator_failures"]
                   for rep in reports for e in rep["families"].values())
    passed = failures == 0 and elapsed < 60.0
    record_criterion(7, "seven commutation relations exact at (1,2) and "
                        "(1,3)", passed, f"failures={failures}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_08_ladder_shifts():
    z = liealg.PolyFunction.z
    vectors = [z(0, 0), z(0, 0) * z(0, 0), z(1, 1),
               z(0, 0) * z(0, 1), z(0, 0) * z(0, 0) * z(0, 0)]
    bad = 0
    for vec in vectors:
        rep = liealg.ladder_check(1, 2, vec)
        if rep["raised"] is not None and \
                rep["raised"] != rep["H_eigenvalue"] + 1:
            bad += 1
        if rep["lowered"] is not None and \
                rep["lowered"] != rep["h_eigenvalue"] - 1:
            bad += 1
    passed = bad == 0
    record_criterion(8, "ladder shifts +1 under p, -1 under pbar (exact)",
                     passed, f"failures={bad}")
    assert passed


def test_criterion_09_radial_solutions():
    f0 = s4lb.make_f0()
    worst_f0 = np.max(np.abs([s4lb.lb_radial_residual(f0, w)
                              for w in np.linspace(0.1, math.pi - 0.1, 50)]))
    gl_residuals, theta_gaps = [], []
    flags_ok = True
    for ell, big_n in ((1, 0), (Fraction(3, 2), 0), (2, 0), (2, 1)):
        sol = s4lb.make_gl(ell, big_n)
        gl_residuals += [s4lb.lb_radial_residual(sol, w)
                         for w in np.linspace(0.3, math.pi - 0.3, 50)]
        exact = float((Fraction(ell) + 1 - big_n)
                      * (Fraction(ell) - Fraction(1, 2) - big_n))
        theta_gaps += [abs(sol.theta_sq - exact),
                       abs(sol.theta - math.sqrt(exact))]
        if sol.integrable != (Fraction(ell) <= Fraction(1, 2)):
            flags_ok = False
    if not f0.integrable:
        flags_ok = False
    worst_gl, worst_theta = np.max(np.abs(gl_residuals)), np.max(theta_gaps)
    passed = (worst_f0 < 1e-10 and worst_gl < 1e-8 and worst_theta == 0.0
              and flags_ok)
    record_criterion(9, "radial solutions: residuals, theta, integrability",
                     passed, f"f0={worst_f0:.2e}, gl={worst_gl:.2e}")
    assert worst_f0 < 1e-10
    assert worst_gl < 1e-8
    assert worst_theta == 0.0
    assert flags_ok


def test_criterion_10_einstein_property():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    pts = s4lb.random_chart_points(rng, 20)
    rep = s4lb.einstein_check(pts)
    elapsed = time.perf_counter() - start
    passed = rep["relative_spread"] < 1e-12 and elapsed < 30.0
    record_criterion(10, "Ricci = lambda g over 20 points",
                     passed, f"spread={rep['relative_spread']:.2e}, "
                             f"lambda={rep['lambda']:.4f}, {elapsed:.1f}s")
    assert rep["relative_spread"] < 1e-12
    assert elapsed < 30.0


def test_criterion_11_maxwell_decomposition():
    rng = np.random.default_rng(1011)
    bad = 0
    for _ in range(100):
        psi = emfield.random_field(rng, max_degree=3)
        dec = emfield.decompose(psi)
        image = emfield.apply_pstar(psi)
        if image.components[0] != dec.scalar:
            bad += 1
        for axis in range(3):
            if image.components[axis + 1] != \
                    dec.magnetic[axis] - dec.electric[axis]:
                bad += 1
    passed = bad == 0
    record_criterion(11, "Maxwell decomposition exact on 100 random fields",
                     passed, f"failures={bad}")
    assert passed


def test_criterion_12_selfdual_patterns():
    sd, asd = forms.dY_wedge()
    expected = {
        (0, 1): Quaternion(0, -2, 0, 0), (2, 3): Quaternion(0, -2, 0, 0),
        (0, 2): Quaternion(0, 0, -2, 0), (1, 3): Quaternion(0, 0, 2, 0),
        (0, 3): Quaternion(0, 0, 0, -2), (1, 2): Quaternion(0, 0, 0, -2),
    }
    pattern_exact = all((Quaternion.from_array(sd[k]) - v).norm() == 0.0
                        for k, v in expected.items())
    anti_expected = {
        (0, 1): Quaternion(0, 2, 0, 0), (2, 3): Quaternion(0, -2, 0, 0),
        (0, 2): Quaternion(0, 0, 2, 0), (1, 3): Quaternion(0, 0, 2, 0),
        (0, 3): Quaternion(0, 0, 0, 2), (1, 2): Quaternion(0, 0, 0, -2),
    }
    pattern_exact &= all((Quaternion.from_array(asd[k]) - v).norm() == 0.0
                         for k, v in anti_expected.items())
    # the star acts on each quaternion component on its own
    hodge_exact = (not (forms.hodge_star(sd) - sd).any()
                   and not (forms.hodge_star(asd) + asd).any())
    passed = pattern_exact and hodge_exact
    record_criterion(12, "self-dual/anti-self-dual patterns and Hodge "
                         "eigenvalues exact", passed)
    assert pattern_exact
    assert hodge_exact


def test_criterion_13_dynamics():
    rng = np.random.default_rng(1013)
    gen = random_skew_adjoint(rng, 3)
    psi = dynamics.random_state(rng, 3, 1)
    moved = dynamics.evolve(gen, psi, np.linspace(0.0, 10.0, 100))
    worst_norm = float(np.abs(moved.norm_sq() - psi.norm_sq()).max())
    gens = QuatMatrix(np.stack([random_skew_adjoint(rng, 3).a
                                for _ in range(20)]))
    worst_cocycle = dynamics.cocycle_residual(gens, 2.7, 1.3)
    # one generator per time, paired along the batch axis
    worst_reversal = dynamics.time_reversal_residual(
        QuatMatrix(np.stack([random_skew_adjoint(rng, 3).a
                             for _ in range(3)])),
        np.array([0.1, 1.0, 10.0]))
    draws = [(random_unit_quaternion(rng).to_array(), rng.uniform(0.1, 3.0),
              rng.uniform(0.0, 5.0)) for _ in range(100)]
    u, omega, t = (np.array(col) for col in zip(*draws))
    blk = dynamics.geodesic_block(u, omega, t)
    ex = expm(dynamics.geodesic_generator(u) * (omega * t))
    worst_block = (blk.m - ex).max_abs()
    passed = (worst_norm < 1e-9 and worst_cocycle < 1e-9
              and worst_reversal < 1e-11 and worst_block < 1e-10)
    record_criterion(13, "dynamics: norm, cocycle, reversal, geodesic block",
                     passed, f"norm={worst_norm:.2e}, "
                             f"cocycle={worst_cocycle:.2e}, "
                             f"reversal={worst_reversal:.2e}, "
                             f"block={worst_block:.2e}")
    assert worst_norm < 1e-9
    assert worst_cocycle < 1e-9
    assert worst_reversal < 1e-11
    assert worst_block < 1e-10


def test_criterion_14_root_systems():
    counts_ok = all(len(roots_mod.generate(n).roots) == 2 * n * n
                    for n in range(1, 7))
    embed_ok = roots_mod.embed_check(1, 2) and roots_mod.embed_check(2, 3)
    mes = roots_mod.particle_label([((1, 0, 0, 0), None),
                                    ((0, 1, 0, 0), None)])
    mes_bar = roots_mod.particle_label([((-1, 0, 0, 0), None),
                                        ((0, 1, 0, 0), None)])
    lep = roots_mod.particle_label([((2, 0, 0, 0), None)])
    lep_minus = roots_mod.particle_label([((-2, 0, 0, 0), None)])
    baryon = roots_mod.particle_label([((1, 0, 0, 0), "i"),
                                       ((1, 0, 0, 0), "j"),
                                       ((0, 1, 0, 0), "k")])
    labels_ok = (mes.label == "ud" and mes.classification == "meson"
                 and mes_bar.label == "u" + roots_mod.BAR + "d"
                 and lep.classification == "lepton"
                 and lep_minus.classification == "lepton"
                 and baryon.label == "uud"
                 and baryon.classification == "baryon"
                 and tuple(t for _, t in baryon.terms) == ("i", "j", "k"))
    passed = counts_ok and embed_ok and labels_ok
    record_criterion(14, "root counts, embeddings, verbatim particle labels",
                     passed)
    assert counts_ok
    assert embed_ok
    assert labels_ok


def test_criterion_15_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()
    code = cli.main(["verify", "all", "--seed", "42",
                     "--out", str(tmp_path / "run1.json")])
    elapsed = time.perf_counter() - start
    code2 = cli.main(["verify", "all", "--seed", "42",
                      "--out", str(tmp_path / "run2.json")])
    capsys.readouterr()
    bytes1 = (tmp_path / "run1.json").read_bytes()
    bytes2 = (tmp_path / "run2.json").read_bytes()
    identical = bytes1 == bytes2
    report = json.loads(bytes1)
    passed = code == 0 and code2 == 0 and identical and elapsed < 300.0
    record_criterion(15, "verify all --seed 42: exit 0, byte-identical, "
                         "< 5 min", passed,
                     f"{len(report['checks'])} checks, {elapsed:.1f}s")
    assert code == 0
    assert code2 == 0
    assert identical
    assert elapsed < 300.0
