"""A broken kernel must fail named checks, not crash the run.

Each test swaps in one known fault (a wrong quaternion product rule, with
the tables that ``@`` and the exact field products derive from it, a
misplaced block in the exponential that differentiates ``exp``, a biased
S^3 sampler, a wrong commutator cross term, a cross-term binomial read as
1, a generator with a wrong sign or missing terms, a raising generator that
does not raise, a curvature of the wrong sign, a Gram factor's square root
in place of its inverse, the square root in place of the inverse one in
the paper's coset route, or a cross-ratio of swapped points) and runs
``qflag verify``: the run must write its report and exit 1.
"""

import json
import math

import numpy as np
import pytest

from conftest import derivative
from qflag import coset, emfield, forms, liealg, quatmat, s4lb, verify
from qflag.cli import main
from qflag.quaternion import BASIS, MUL_TABLE, Quaternion


def _install(monkeypatch, table):
    """Point the matrix product and the exact field product at ``table``,
    derived as quatmat and emfield derive theirs from MUL_TABLE."""
    monkeypatch.setattr(quatmat, "_RIGHT_TABLE",
                        table.transpose(1, 0, 2).reshape(4, 16))
    monkeypatch.setattr(emfield, "_PRODUCT", [
        [next((c, v) for c, v in enumerate(signs) if v) for signs in row]
        for row in table.astype(int).tolist()])


def _failures(capsys, argv):
    """The failed checks of ``qflag <argv>``, which must write its report
    and exit 1."""
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["passed"] is False
    return {c["name"]: c for c in report["checks"] if not c["passed"]}


def _failed_checks(capsys, trials=20):
    """The failed checks of ``verify all --seed 42``; ``trials=None`` runs
    each check at its own default count."""
    argv = ["verify", "all", "--seed", "42"]
    if trials is not None:
        argv += ["--trials", str(trials)]
    failed = _failures(capsys, argv)
    # the exact suites do not read the quaternion product
    assert not [n for n in failed if n.split(".")[0] in ("liealg", "roots",
                                                        "s4")]
    return failed


def test_flipped_product_sign_fails_checks(monkeypatch, capsys):
    real = Quaternion.__mul__

    def flipped(a, b):
        if not isinstance(b, Quaternion):
            return real(a, b)
        # the i component's a.y b.z term has the wrong sign: j k = -i
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w - a.y * b.z - a.z * b.y,
            a.w * b.y + a.y * b.w + a.z * b.x - a.x * b.z,
            a.w * b.z + a.z * b.w + a.x * b.y - a.y * b.x)

    monkeypatch.setattr(Quaternion, "__mul__", flipped)
    _install(monkeypatch,
             np.array([[(p * q).to_array() for q in BASIS] for p in BASIS]))
    failed = _failed_checks(capsys)
    assert {"quaternion.norm_multiplicative", "quaternion.m2c_homomorphism",
            "quatmat.embedding_faithful", "quatmat.exp_group_membership",
            "quatmat.unit_determinant", "forms.connection_value",
            "em.product_identity", "em.decomposition_exact"} <= set(failed)
    # a drawn generator no longer exponentiates into the group: the unit
    # records the error, and the rest of its suite still runs and is named
    assert "unitarity residual" in failed[
        "dynamics.geodesic_block.error"]["detail"]
    # the inverse square roots come from the spectrum of iG, which reads no
    # product, so the third metric form runs and disagrees with the others
    assert "coset.metric_two_versions" in failed
    assert not {f"{suite}.error" for suite in verify.SUITES} & set(failed)


def test_transposed_product_table_fails_checks(monkeypatch, capsys):
    # e_p e_q read as e_q e_p: the opposite algebra, still associative and
    # normed, so only the checks that compare against the true product fail
    _install(monkeypatch, MUL_TABLE.transpose(1, 0, 2))
    failed = _failed_checks(capsys)
    assert {"quaternion.m2c_homomorphism", "quatmat.embedding_faithful",
            "quatmat.sp2nc_conditions", "coset.lft_two_forms",
            "coset.lft_group_law", "em.product_identity"} <= set(failed)
    assert "quaternion.norm_multiplicative" not in failed
    # coset_element is exp(G) from the spectrum of iG, which reads no
    # product: unitary in the true algebra, so the opposite algebra's g* g
    # refuses it in the two units that build one
    errors = [n for n in failed if n.endswith(".error")]
    assert errors == ["coset.exponential_parameterisation.error",
                      "coset.grassmann_from_coset.error"]
    assert all("NotGroupElement" in failed[n]["detail"] for n in errors)


def test_dual_block_below_the_diagonal_fails_connection_value(monkeypatch,
                                                              capsys):
    # the directions sit below the diagonal of the block matrix, so its top
    # block row reads exp(x) and zeros in place of the derivatives
    def lowered(x, *directions):
        n, size = x.rows, len(directions) + 1
        zero = quatmat.QuatMatrix.zeros(n, n)
        grid = [[x] + [zero] * (size - 1)] + [
            [directions[r - 1]] + [x if c == r else zero
                                   for c in range(1, size)]
            for r in range(1, size)]
        top = quatmat.expm(quatmat.block_matrix(grid)).a[..., :n, :, :]
        return [quatmat.QuatMatrix(top[..., c * n:(c + 1) * n, :])
                for c in range(size)]

    monkeypatch.setattr(forms, "_exp_with_derivatives", lowered)
    # the Maurer-Cartan residual of zero derivatives is zero, so only the
    # connection compared against its generator sees the fault
    assert set(_failed_checks(capsys)) == {"forms.connection_value"}


def test_biased_sampler_fails_s3_sampling_uniform(monkeypatch, capsys):
    # unit quaternions folded onto the w >= 0 half of S^3: still unit, so
    # only the uniformity statistic can see it; 200 draws put the mean of w
    # (about 0.42) some 12 standard errors out
    real = verify.random_unit_quaternions

    def folded(rng, count):
        q = real(rng, count)
        q[:, 0] = np.abs(q[:, 0])
        return q

    monkeypatch.setattr(verify, "random_unit_quaternions", folded)
    assert set(_failed_checks(capsys, trials=200)) == {
        "coset.s3_sampling_uniform"}


def test_cube_sampler_fails_only_s3_fourth_moment(monkeypatch, capsys):
    # a uniform cube projected onto S^3: unit, zero means, and exchangeable
    # components, so the means stay within 4 standard errors at the default
    # 10^6 draws; its E[q_c^4] is about 0.107 against the sphere's 1/8
    def cube(rng, count):
        q = rng.uniform(-1.0, 1.0, (count, 4))
        return q / np.sqrt(np.square(q).sum(axis=1))[:, None]

    monkeypatch.setattr(verify, "random_unit_quaternions", cube)
    failed = _failed_checks(capsys, trials=None)
    assert set(failed) == {"coset.s3_fourth_moment"}
    assert failed["coset.s3_fourth_moment"]["residual"] > 100.0


def test_nan_radial_residuals_fail_the_radial_checks(monkeypatch, capsys):
    # NaN from omega = 1 on: every grid's first points stay finite, so a
    # worst-of that drops a NaN after the first value would pass
    real = s4lb.lb_radial_residual
    monkeypatch.setattr(s4lb, "lb_radial_residual",
                        lambda sol, w: math.nan if w >= 1.0 else real(sol, w))
    failed = _failures(capsys, ["verify", "all", "--seed", "42",
                                "--trials", "20"])
    assert set(failed) == {"s4.f0_residual", "s4.gl_residual"}
    assert all(math.isnan(row["residual"]) for row in failed.values())


def test_nan_in_the_last_transport_identity_fails_its_check(monkeypatch,
                                                           capsys):
    real = coset.transport_identities

    def last_nan(*args):
        res = dict(real(*args))
        last = list(res)[-1]
        res[last] = res[last].copy()
        res[last][-1] = math.nan
        return res

    monkeypatch.setattr(coset, "transport_identities", last_nan)
    failed = _failures(capsys, ["verify", "all", "--seed", "42",
                                "--trials", "20"])
    assert set(failed) == {"coset.transport_identities"}


def test_doubled_cross_terms_fail_the_commutation_tables(monkeypatch, capsys):
    # the a-differentiates-b half of [a, b] counted twice: still first order,
    # so only the exact comparison against the displayed right sides sees it
    real = liealg._leibniz_cross

    def doubled(left, right, sign, out):
        real(left, right, sign, out)
        if sign > 0:
            real(left, right, sign, out)

    monkeypatch.setattr(liealg, "_leibniz_cross", doubled)
    failed = _failures(capsys, ["verify", "liealg", "--seed", "42"])
    assert {"liealg.commutation_table_k1_n2",
            "liealg.commutation_table_k1_n3"} <= set(failed)
    assert failed["liealg.commutation_table_k1_n2"]["residual"] > 0


def test_cross_term_binomial_read_as_one_fails_leibniz_associativity(
        monkeypatch, capsys):
    # C(count, h) read as 1: only a left word that holds one symbol twice
    # sees it, and lap o lap is the one left factor of the liealg suite
    # that holds such a word
    monkeypatch.setattr(math, "comb", lambda n, k: 1)
    failed = _failures(capsys, ["verify", "liealg", "--seed", "42"])
    assert set(failed) == {"liealg.leibniz_associativity"}


def test_raising_by_a_cartan_generator_fails_ladder_shifts(monkeypatch,
                                                           capsys):
    # p_{alpha a} read as H_{aa}: the image keeps its eigenvalue, so
    # ladder_check raises and the unit fails as one named error
    monkeypatch.setattr(liealg, "gen_p",
                        lambda alpha, a, k, n: liealg.cartan_H(a, k, n))
    failed = _failures(capsys, ["verify", "liealg", "--seed", "42"])
    assert "liealg.ladder_shifts" not in failed
    assert failed["liealg.ladder_shifts.error"]["detail"].startswith(
        "NotEigenvector: raising produced eigenvalue")


def test_lowering_by_a_raising_generator_fails_ladder_shifts(monkeypatch,
                                                             capsys):
    # pbar_{alpha a} read as p_{alpha a}: the image's h_{00} eigenvalue rises
    # where it should fall, so the lowering half of ladder_check raises
    monkeypatch.setattr(liealg, "gen_pbar", liealg.gen_p)
    failed = _failures(capsys, ["verify", "liealg", "--seed", "42"])
    assert set(failed) == {"liealg.ladder_shifts.error"}
    assert failed["liealg.ladder_shifts.error"]["detail"].startswith(
        "NotEigenvector: lowering produced eigenvalue 2, expected 0")


def _liealg_failures(capsys):
    """The failed checks of ``verify all --seed 42`` at default trials,
    which must all be in the exact generator suite."""
    failed = _failures(capsys, ["verify", "all", "--seed", "42"])
    assert {name.split(".")[0] for name in failed} == {"liealg"}
    return failed


def test_flipped_conjugate_half_of_the_rotations_fails_liealg(monkeypatch,
                                                              capsys):
    # h and H read as z_s d_t + zbar_t dbar_s: still first order and
    # J-covariant, but no longer skew, and their brackets leave the algebra
    DiffOperator, PolyFunction = liealg.DiffOperator, liealg.PolyFunction

    def flipped(pairs):
        op = DiffOperator()
        for s, t in pairs:
            op = op + DiffOperator.multiplication(PolyFunction.z(*s)).compose(
                derivative(*t))
            op = op + DiffOperator.multiplication(PolyFunction.zbar(*t)).compose(
                DiffOperator.dbar(*s))
        return op

    monkeypatch.setattr(liealg, "_rotation", flipped)
    assert {"liealg.commutation_table_k1_n2",
            "liealg.generator_skewness"} <= set(_liealg_failures(capsys))


def test_p_without_its_quadratic_terms_fails_p_three_forms(monkeypatch,
                                                           capsys):
    # p_{alpha a} read as its linear part dbar_{alpha a}: the composed
    # cross-check forms keep their quadratic terms and disagree
    real = liealg.gen_p
    monkeypatch.setattr(liealg, "gen_p",
                        lambda *args: liealg.linear_part(real(*args)))
    assert "liealg.p_three_forms" in _liealg_failures(capsys)


def test_curvature_at_swapped_tangents_fails_curvature_origin(monkeypatch,
                                                              capsys):
    # evaluated at (dv, du): every curvature piece changes sign, which the
    # antisymmetry, vanishing scalar parts and equal magnitudes all keep
    real = forms.curvature_blocks
    monkeypatch.setattr(forms, "curvature_blocks",
                        lambda point, du, dv: real(point, dv, du))
    assert set(_failed_checks(capsys, trials=None)) == {
        "forms.curvature_origin"}


def test_gram_square_root_in_place_of_its_inverse_fails_metric_two_versions(
        monkeypatch, capsys):
    # the inverse-square-root Gram factors 1 / hypot(1, iG) read as
    # hypot(1, iG), the square roots: the curvature checks read them only
    # through Omega's antisymmetry, which square roots keep, so only the
    # third metric form sees the fault (the library calls np.hypot there
    # alone)
    real = np.hypot
    monkeypatch.setattr(np, "hypot", lambda a, b: 1.0 / real(a, b))
    monkeypatch.setattr(coset, "_GRAM_FACTORS", {})
    assert set(_failed_checks(capsys, trials=None)) == {
        "coset.metric_two_versions"}


def test_invsqrt_read_as_sqrt_fails_grassmann_from_coset(monkeypatch, capsys):
    # func_hermitian's inverse square root read as the square root in the
    # paper's route X = Z (1 - Z* Z)^{-1/2}: only the check against the
    # coset element acting on the origin reads that route
    real = coset.func_hermitian
    monkeypatch.setattr(coset, "func_hermitian", lambda p, kind: real(
        p, "sqrt" if kind == "invsqrt" else kind))
    assert set(_failed_checks(capsys, trials=None)) == {
        "coset.grassmann_from_coset"}


def test_cross_ratio_of_swapped_points_fails_cross_ratio_value(monkeypatch,
                                                               capsys):
    # the first two points swapped: still invariant under the group, so
    # only the value against the negated differences sees it
    real = coset.cross_ratio
    monkeypatch.setattr(coset, "cross_ratio",
                        lambda pa, pb, pc, pd: real(pb, pa, pc, pd))
    assert set(_failed_checks(capsys, trials=None)) == {
        "coset.cross_ratio_value"}
