import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qflag import cli, coset, emfield
from qflag.cli import (MAX_EM_DEGREE, MAX_EM_NESTING, MAX_EVOLVE_N, MAX_EVOLVE_STEPS,
                       MAX_EVOLVE_T, MAX_LB_SAMPLES, MAX_LB_SCALED_RESIDUAL,
                       MAX_ROOTS_RANK, MAX_VERIFY_TRIALS, main,
                       parse_field_spec, parse_polynomial)
from qflag.emfield import RealPoly
from qflag.errors import SingularMatrix, UsageError


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- verify -----------------------------------------------------------------

def test_verify_roots_report(capsys):
    code, out, _ = run_cli(["verify", "roots", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["spec_version"] == 1
    assert doc["suite"] == "roots"
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_at_trials_ceiling(capsys):
    code, out, _ = run_cli(["verify", "quaternion", "--seed", "1",
                            "--trials", str(MAX_VERIFY_TRIALS)], capsys)
    assert code == 0
    assert json.loads(out)["trials"] == MAX_VERIFY_TRIALS


@pytest.mark.parametrize("trials", [MAX_VERIFY_TRIALS + 1, -1])
def test_verify_trials_out_of_range_is_usage_error(trials, monkeypatch,
                                                   capsys):
    # refused before any suite runs
    monkeypatch.setattr(cli, "run_suite",
                        lambda *args: pytest.fail("a suite ran"))
    code, out, err = run_cli(["verify", "all", "--trials", str(trials)],
                             capsys)
    assert code == 2
    assert out == "" and "error:" in err and "--trials" in err


def test_verify_reports_failure_exit_code(capsys):
    # the smallest positive tolerance is accepted, and lies below the
    # residual of the check: a check failure and exit code 1
    code, out, _ = run_cli(["verify", "s4", "--seed", "7",
                            "--tol", "s4.f0_residual=5e-324"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    bad = [c for c in doc["checks"] if not c["passed"]]
    assert [c["name"] for c in bad] == ["s4.f0_residual"]
    assert bad[0]["tolerance"] == 5e-324


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf"])
def test_verify_nonpositive_or_nonfinite_tol_is_usage_error(value, monkeypatch,
                                                            capsys):
    monkeypatch.setattr(cli, "run_suite",
                        lambda *args: pytest.fail("a suite ran"))
    code, out, err = run_cli(["verify", "coset", "--tol",
                              f"coset.lft_two_forms={value}"], capsys)
    assert code == 2
    assert out == "" and "coset.lft_two_forms" in err and "positive" in err


def test_verify_negative_seed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite",
                        lambda *args: pytest.fail("a suite ran"))
    code, out, err = run_cli(["verify", "all", "--seed", "-1"], capsys)
    assert code == 2
    assert out == "" and "--seed" in err and "Traceback" not in err


def test_verify_at_seed_zero(capsys):
    code, out, _ = run_cli(["verify", "roots", "--seed", "0"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 0


def test_verify_out_in_missing_directory_is_usage_error(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setattr(cli, "run_suite",
                        lambda *args: pytest.fail("a suite ran"))
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["verify", "coset", "--out", str(target)],
                             capsys)
    assert code == 2
    assert out == "" and "--out" in err and not target.parent.exists()


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(["roots", "2", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert out == "" and "--out" in err


@pytest.mark.parametrize("argv", [["verify", "roots"], ["lb", "--ell", "1"],
                                  ["roots", "2"], ["em", "A1=x1"],
                                  ["evolve"]])
def test_empty_out_is_usage_error(argv, monkeypatch, capsys):
    # refused before the subcommand runs, not read as "write to stdout"
    for name in ("cmd_verify", "cmd_lb", "cmd_roots", "cmd_em", "cmd_evolve"):
        monkeypatch.setattr(cli, name,
                            lambda args: pytest.fail("a subcommand ran"))
    code, out, err = run_cli(argv + ["--out", ""], capsys)
    assert code == 2
    assert out == "" and "--out" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_write_failure_is_usage_error(capsys):
    code, out, err = run_cli(["roots", "2", "--out", "/dev/full"], capsys)
    assert code == 2
    assert out == "" and "--out" in err and "Traceback" not in err


def test_verify_curvature_det_gap_fails_a_check_not_the_run(monkeypatch,
                                                             capsys):
    # a disagreeing determinant is a failed check (exit 1), not an error
    real = coset.curvature_det_gap

    def widened(q):
        det, gap = real(q)
        return det, gap + 1e-6

    monkeypatch.setattr(coset, "curvature_det_gap", widened)
    code, out, _ = run_cli(["verify", "coset", "--seed", "7"], capsys)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    bad = checks["coset.curvature_det_consistency"]
    assert not bad["passed"] and bad["residual"] >= 1e-6
    assert all(c["passed"] for name, c in checks.items() if c is not bad)


def test_verify_em_decomposition_mismatch_fails_a_check(monkeypatch, capsys):
    # p* psi, as decompose assembles it from the partials, off by one
    # flipped vector component: a failed check (exit 1), not a traceback
    real = emfield._pstar

    def flipped(d):
        comps = list(real(d).components)
        comps[2] = -comps[2]
        return emfield.QPolyField(tuple(comps))

    monkeypatch.setattr(emfield, "_pstar", flipped)
    code, out, _ = run_cli(["verify", "em", "--seed", "7"], capsys)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    bad = checks["em.decomposition_exact"]
    assert not bad["passed"] and bad["residual"] > 0
    assert all(c["passed"] for name, c in checks.items() if c is not bad)


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["foo", "quaternion.norm_multiplicative=abc"])
def test_verify_malformed_tol_is_usage_error(tol, capsys):
    code, out, err = run_cli(["verify", "quaternion", "--tol", tol], capsys)
    assert code == 2
    assert out == "" and "KEY=NUMBER" in err and "Traceback" not in err


@pytest.mark.parametrize("suite, tol", [("all", "nosuch.check=1"),
                                        ("roots", "roots.nosuch=1"),
                                        ("roots", "em.decomposition_exact=1")])
def test_verify_unknown_tol_name_is_usage_error(suite, tol, capsys):
    code, out, err = run_cli(["verify", suite, "--tol", tol], capsys)
    assert code == 2
    assert out == "" and tol.split("=")[0] in err


def test_verify_unknown_tol_name_fails_before_any_unit_runs(monkeypatch,
                                                            capsys):
    # the first coset unit's call would escape as a traceback if it ran
    def ran(*args, **kwargs):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(coset, "coset_element", ran)
    code, out, err = run_cli(["verify", "coset", "--tol", "coset.nosuch=1"],
                             capsys)
    assert code == 2
    assert out == "" and "coset.nosuch" in err


def test_verify_tol_naming_a_check_of_a_raising_unit_is_accepted(monkeypatch,
                                                                 capsys):
    def broken(q):
        raise SingularMatrix("broken on purpose")

    monkeypatch.setattr(coset, "curvature_trace", broken)
    code, out, _ = run_cli(["verify", "coset", "--seed", "2", "--trials", "5",
                            "--tol", "coset.curvature_trace_identity=1"],
                           capsys)
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"]
              if not c["passed"]]
    assert failed == ["coset.curvature_trace_identity.error"]


_TOL_KEYS = st.one_of(st.sampled_from(["roots.counts_and_closure",
                                       "roots.euler_characteristic",
                                       "coset.lft_two_forms", ""]),
                      st.text(max_size=30))
_TOL_VALUES = st.one_of(st.floats().map(repr), st.text(max_size=20))


@settings(max_examples=50)
@given(st.one_of(st.builds("{}={}".format, _TOL_KEYS, _TOL_VALUES),
                 st.text(max_size=40)))
def test_verify_any_tol_text_ends_in_an_exit_code(tol):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["verify", "roots", f"--tol={tol}"])
        except SystemExit as exc:     # argparse refusing the argument
            code = exc.code
    assert code in (0, 1, 2)


def test_verify_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "em", "--seed", "5", "--out", str(a)]) == 0
    assert main(["verify", "em", "--seed", "5", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# -- lb ------------------------------------------------------------------------

def test_lb_csv_table(capsys):
    code, out, _ = run_cli(["lb", "--ell", "1", "--big-n", "0",
                            "--samples", "10"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,value,residual_scaled"
    assert len(lines) == 11
    assert all("." in cell for cell in lines[1].split(",")[:2])


def test_lb_json_metadata(capsys):
    code, out, _ = run_cli(["lb", "--ell", "1", "--big-n", "0",
                            "--samples", "50", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == 1.0
    assert doc["N"] == 0 and doc["ell"] == "1"
    assert doc["max_scaled_residual"] < 1e-8
    assert len(doc["table"]) == 50


def test_lb_f0_table_contains_equator_zero(capsys):
    # odd sample count puts a grid point at the equator where f0 vanishes
    code, out, _ = run_cli(["lb", "--ell", "0", "--big-n", "0",
                            "--samples", "201", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "f0"
    values = [abs(row[1]) for row in doc["table"]]
    assert min(values) < 1e-6


def test_lb_half_integer_and_domain_error(capsys):
    code, out, _ = run_cli(["lb", "--ell", "3/2", "--big-n", "0",
                            "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["theta_squared"] == 2.5
    code, _, err = run_cli(["lb", "--ell", "1/2", "--big-n", "0"], capsys)
    assert code == 3
    assert "error" in err


def test_lb_rejects_non_half_integer(capsys):
    code, _, err = run_cli(["lb", "--ell", "0.3", "--big-n", "0"], capsys)
    assert code == 3
    assert "half-integer" in err


@pytest.mark.parametrize("ell", ["abc", "1/0", ""])
def test_lb_unparseable_ell_is_usage_error(ell, capsys):
    code, out, err = run_cli(["lb", "--ell", ell], capsys)
    assert code == 2
    assert out == "" and "--ell" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_lb_nonpositive_samples_is_usage_error(samples, capsys):
    code, out, err = run_cli(["lb", "--ell", "1", "--samples", samples], capsys)
    assert code == 2
    assert out == "" and "--samples" in err


def test_lb_at_samples_ceiling(capsys):
    code, out, _ = run_cli(["lb", "--ell", "1", "--samples",
                            str(MAX_LB_SAMPLES)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + MAX_LB_SAMPLES


def test_lb_samples_above_ceiling_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(cli.s4lb, "make_gl",
                        lambda *args: pytest.fail("a table was built"))
    code, out, err = run_cli(["lb", "--ell", "1", "--samples",
                              str(MAX_LB_SAMPLES + 1)], capsys)
    assert code == 2
    assert out == "" and "--samples" in err


def test_lb_coefficient_overflow_is_domain_error(capsys):
    code, out, err = run_cli(["lb", "--ell", "100"], capsys)
    assert code == 3
    assert out == "" and "overflows" in err


@pytest.mark.parametrize("ell, big_n, expected", [("2", "1", 0),
                                                   ("20", "20", 1)])
def test_lb_residual_above_its_bound_exits_1(ell, big_n, expected, capsys):
    # at l = N = 20 the scaled residual reads about 0.14: the table is still
    # written, and the exit code says it is not a solution
    code, out, err = run_cli(["lb", "--ell", ell, "--big-n", big_n,
                              "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == expected
    assert (doc["max_scaled_residual"] > MAX_LB_SCALED_RESIDUAL) == bool(code)
    assert len(doc["table"]) == 200
    assert ("max_scaled_residual" in err) == bool(code)


@pytest.mark.parametrize("ell", ["1e400", "5e308", "1e9999"])
def test_lb_ell_past_the_float_range_is_domain_error(ell, capsys):
    code, out, err = run_cli(["lb", "--ell", ell], capsys)
    assert code == 3
    assert out == "" and err.startswith("error:") and "overflows" in err


@pytest.mark.parametrize("ell", ["1e10000", "1e-99999", "1e9_999_999"])
def test_lb_ell_exponent_past_four_digits_is_usage_error(ell, capsys):
    code, out, err = run_cli(["lb", "--ell", ell], capsys)
    assert code == 2
    assert out == "" and "--ell" in err


@settings(max_examples=50)
@given(st.one_of(st.integers().map(str), st.fractions().map(str),
                 st.floats().map(repr),
                 st.text(alphabet="0123456789eE+-./_ ", max_size=10)))
@example("1e400")
@example("1e99999999")
def test_lb_any_ell_text_ends_in_an_exit_code(text):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["lb", f"--ell={text}", "--samples", "1"])
    assert code in (0, 2, 3)


def test_lb_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["lb", "--ell", "2", "--big-n", "1", "--out", str(a)])
    main(["lb", "--ell", "2", "--big-n", "1", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# -- roots ----------------------------------------------------------------------

def test_roots_json(capsys):
    code, out, _ = run_cli(["roots", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 18
    assert len(doc["roots"]) == 18
    assert [2, 0, 0] in doc["roots"]


def test_roots_csv_projection(capsys):
    code, out, _ = run_cli(["roots", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c0,c1"
    assert sorted(lines[1:]) == ["-2,0", "2,0"]


def test_roots_at_rank_ceiling(capsys):
    code, out, _ = run_cli(["roots", str(MAX_ROOTS_RANK), "--format", "csv"],
                           capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2 * MAX_ROOTS_RANK ** 2


def test_roots_above_rank_ceiling_is_usage_error(capsys):
    code, out, err = run_cli(["roots", str(MAX_ROOTS_RANK + 1)], capsys)
    assert code == 2
    assert out == "" and "error:" in err and "rank" in err


def _any_argv(data, command, valid, anything):
    """``command`` with one argument per prefix of ``valid``, each drawn from
    ``valid``, except at most two drawn from ``anything``."""
    broken = data.draw(st.sets(st.sampled_from(sorted(valid)), max_size=2))
    return [command] + [
        prefix + str(data.draw((anything if prefix in broken else valid)[prefix]))
        for prefix in valid]


def _main_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:     # argparse refusing an argument
            return exc.code


@settings(max_examples=50)
@given(st.data())
def test_roots_any_argv_ends_in_an_exit_code(data):
    argv = _any_argv(data, "roots", {
        "": st.integers(1, 6),
        "--projection=": st.sampled_from([2, 3]),
        "--format=": st.sampled_from(["json", "csv"]),
    }, {
        "": st.one_of(st.integers(), st.text(max_size=6)),
        "--projection=": st.one_of(st.integers(), st.text(max_size=4)),
        "--format=": st.text(max_size=6),
    })
    assert _main_code(argv) in (0, 1, 2, 3)


# -- em ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, want", [
    ("x1**2", ["x1", "^", "2"]),
    ("x1 ** 2", ["x1", "^", "2"]),
    ("\tx0 *  x3\t", ["x0", "*", "x3"]),
    (" 1/2/3 ", ["1/2/3"]),
    ("x1+", ["x1", "+"]),
    ("(x2-3)^2", ["(", "x2", "-", "3", ")", "^", "2"]),
    ("", []),
    ("x4", "unexpected character 'x' in polynomial"),
    (".5", "unexpected character '.' in polynomial"),
    ("x1 / 2", "unexpected character '/' in polynomial"),
])
def test_tokens_of_ascii_specs(text, want):
    if isinstance(want, list):
        assert cli._tokenize(text) == want
    else:
        with pytest.raises(UsageError) as info:
            cli._tokenize(text)
        assert str(info.value) == want


@pytest.mark.parametrize("argv, message", [
    (["verify", "all", "--trials", "-1"], "--trials must be 0 to 1000, got -1"),
    (["verify", "all", "--trials", "1001"],
     "--trials must be 0 to 1000, got 1001"),
    (["lb", "--ell", "1", "--samples", "0"],
     "--samples must be 1 to 10000, got 0"),
    (["lb", "--ell", "1", "--samples", "10001"],
     "--samples must be 1 to 10000, got 10001"),
    (["evolve", "--steps", "-1"], "--steps must be 0 to 1000, got -1"),
    (["evolve", "--steps", "1001"], "--steps must be 0 to 1000, got 1001"),
    (["evolve", "--n", "0"], "--n must be 1 to 64, got 0"),
    (["evolve", "--n", "65"], "--n must be 1 to 64, got 65"),
    (["evolve", "--t-max", "-10001"],
     "--t-max must be -10000 to 10000, got -10001.0"),
    (["evolve", "--t-max", "10001"],
     "--t-max must be -10000 to 10000, got 10001.0"),
    (["evolve", "--t-max", "nan"], "--t-max must be -10000 to 10000, got nan"),
    (["evolve", "--split", "-1"], "--split must be 0 to 3, got -1"),
    (["evolve", "--split", "4"], "--split must be 0 to 3, got 4"),
    (["roots", "0"], "rank must be 1 to 64, got 0"),
    (["roots", "65"], "rank must be 1 to 64, got 65"),
])
def test_bounded_flags_refuse_out_of_range_values_in_one_form(argv, message,
                                                              capsys):
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


def test_polynomial_parser():
    assert parse_polynomial("x1") == RealPoly.x(1)
    assert parse_polynomial("x0*x3") == RealPoly.x(0) * RealPoly.x(3)
    two = RealPoly.constant(2)
    assert parse_polynomial("x1^2 - 2") == \
        RealPoly.x(1) * RealPoly.x(1) - two
    assert parse_polynomial("-(x2 + 1) * 3") == \
        -(RealPoly.x(2) + RealPoly.constant(1)) * 3
    assert parse_polynomial("x0**2") == RealPoly.x(0) * RealPoly.x(0)
    assert parse_polynomial("1/2 * x1") == RealPoly.x(1) * 0.5


def test_parsed_coefficients_are_ints_where_integral():
    # ints multiply faster than the equal Fractions and print alike
    kinds = {c: type(c) for c in parse_polynomial("2*x1 + 3").terms.values()}
    assert kinds == {2: int, 3: int}
    kinds = {c: type(c) for c in
             parse_polynomial("4/2*x1 + 0.5 + 1.0*x2").terms.values()}
    assert kinds == {2: int, 0.5: Fraction, 1: int}


def test_field_spec():
    psi = parse_field_spec(["A1=x1", "A0=x0*x3"])
    assert psi.components[1] == RealPoly.x(1)
    assert psi.components[0] == RealPoly.x(0) * RealPoly.x(3)
    assert psi.components[2].is_zero()


def test_em_command(capsys):
    code, out, _ = run_cli(["em", "A1=x1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["scalar"] == [{"coefficient": "-1", "exponents": [0, 0, 0, 0]}]
    assert doc["electric"] == [[], [], []]
    assert doc["magnetic"] == [[], [], []]


def test_em_curl_example(capsys):
    code, out, _ = run_cli(["em", "A1=-x2", "A2=x1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["magnetic"][2] == [{"coefficient": "2",
                                   "exponents": [0, 0, 0, 0]}]
    assert doc["display"]["scalar"] == "0"


def test_em_display_block(capsys):
    code, out, _ = run_cli(["em", "A0=3/2*x1^2*x3 - 0.25*x0", "A2=(x0-x3)^2"],
                           capsys)
    assert code == 0
    assert json.loads(out)["display"] == {
        "scalar": "-1/4",
        "electric": ["-3*x1*x3", "2*x3 + -2*x0", "-3/2*x1^2"],
        "magnetic": ["-2*x3 + 2*x0", "0", "0"],
    }


def test_em_bad_spec(capsys):
    # every unparseable em argument is a usage error, as the degree
    # ceiling on the same argument is
    for spec in ("A7=x1", "A1=x9", "A1=x1+", "A1=x1^99", "A1=x1^1.5",
                 "A1=x1?", "A1"):
        code, _, err = run_cli(["em", spec], capsys)
        assert code == 2, spec
        assert err.startswith("error: "), spec


def test_em_degree_at_the_ceiling(capsys):
    code, out, _ = run_cli(["em", f"A1=x1^{MAX_EM_DEGREE}",
                            f"A2=(x0+1)^{MAX_EM_DEGREE // 2}"
                            f"*(x3-1)^{MAX_EM_DEGREE - MAX_EM_DEGREE // 2}"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["scalar"] == [{"coefficient": str(-MAX_EM_DEGREE),
                              "exponents": [0, MAX_EM_DEGREE - 1, 0, 0]}]


@pytest.mark.parametrize("spec", [
    "A0=x0^100000000",                   # the exponent alone
    f"A0=x0^{MAX_EM_DEGREE + 1}",
    "A0=2^" + "9" * 5000,                # longer than int() parses
    f"A0=(x0*x1)^{MAX_EM_DEGREE // 2 + 1}",  # a power of a product
    "A0=(x0+x1+x2+x3)^64*(x0+x1+x2+x3)^64",
    f"A0=(x0+x1)^{MAX_EM_DEGREE}*x2",    # each factor within, the product not
])
def test_em_degree_above_the_ceiling_is_a_usage_error(spec, capsys):
    code, out, err = run_cli(["em", spec], capsys)
    assert code == 2 and out == ""
    assert str(MAX_EM_DEGREE) in err


@pytest.mark.parametrize("spec", [
    "A0=" + "(" * 300 + "x0" + ")" * 300,
    "A0=" + "-" * 1000 + "x0",
    "A0=" + "(-" * (MAX_EM_NESTING // 2) + "(x0" + ")" * (MAX_EM_NESTING // 2 + 1),
    "A0=x1 - " + "(" * (MAX_EM_NESTING + 1) + "x0" + ")" * (MAX_EM_NESTING + 1),
])
def test_em_nesting_above_the_ceiling_is_a_usage_error(spec, capsys):
    code, out, err = run_cli(["em", spec], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(MAX_EM_NESTING) in err


def test_em_nesting_at_the_ceiling(capsys):
    depth = MAX_EM_NESTING
    for spec in ("A0=" + "(" * depth + "x0" + ")" * depth,
                 "A0=" + "-" * depth + "x0",
                 "A0=" + "(-" * (depth // 2) + "x0" + ")" * (depth // 2)):
        code, out, _ = run_cli(["em", spec], capsys)
        assert code == 0, spec
        assert json.loads(out)["scalar"] == [{"coefficient": "1",
                                              "exponents": [0, 0, 0, 0]}]


@settings(max_examples=50)
@given(st.lists(st.sampled_from(["x0", "x1", "x2", "x3",
                                  *"0123456789+-*/^(). "]),
                max_size=12).map("".join))
def test_em_any_component_text_ends_in_an_exit_code(text):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["em", f"A0={text}"])
    assert code in (0, 2, 3)


# -- evolve ------------------------------------------------------------------------

def test_evolve_table(capsys):
    code, out, _ = run_cli(["evolve", "--n", "2", "--split", "1",
                            "--steps", "5", "--t-max", "2.0",
                            "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,norm_sq,component0_norm")
    assert len(lines) == 6
    norms = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(norms) - min(norms) < 1e-9


def test_evolve_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["evolve", "--seed", "4", "--steps", "10", "--out", str(a)])
    main(["evolve", "--seed", "4", "--steps", "10", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, digest", [
    (["--n", "3", "--split", "1", "--seed", "4", "--steps", "10"],
     "e7fab582e26bf7a7c2785ac171f86a0d989427a50f56d1145de56283da0cafd1"),
    # n > 8: the squared norms of nine rows are summed in row order
    (["--n", "9", "--split", "4", "--seed", "1", "--steps", "7",
      "--t-max", "1e4"],
     "ffab4f6bab5a9c4e2c0a458b7f12036aef21fad0dd8697662cea501f35ce98cb")])
def test_evolve_bytes_are_pinned(argv, digest, capsys):
    # SHA-256 of tables printed by the one-row-at-a-time implementation
    code, out, _ = run_cli(["evolve"] + argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_evolve_negative_seed_is_usage_error(capsys):
    # seed 0, the default, is the boundary the other evolve tests run at
    code, out, err = run_cli(["evolve", "--n", "2", "--split", "1",
                              "--seed", "-1"], capsys)
    assert code == 2
    assert out == "" and "--seed" in err


def test_evolve_negative_steps_is_usage_error(capsys):
    code, out, err = run_cli(["evolve", "--steps", "-1"], capsys)
    assert code == 2
    assert out == "" and "--steps" in err


@pytest.mark.parametrize("argv", [["--n", "-1"], ["--t-max", "nan"],
                                  ["--t-max", "inf"], ["--split", "5"],
                                  ["--split", "-1"]])
def test_evolve_bad_size_or_horizon_is_usage_error(argv, capsys):
    code, out, err = run_cli(["evolve", "--steps", "3"] + argv, capsys)
    assert code == 2
    assert out == "" and "error:" in err and argv[0] in err


@pytest.mark.parametrize("argv", [["--n", str(MAX_EVOLVE_N), "--steps", "2"],
                                  ["--n", "1", "--steps", str(MAX_EVOLVE_STEPS)],
                                  ["--t-max", str(MAX_EVOLVE_T), "--steps", "2"],
                                  ["--t-max", str(-MAX_EVOLVE_T), "--steps", "2"]])
def test_evolve_at_its_ceilings(argv, capsys):
    code, out, _ = run_cli(["evolve"] + argv, capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + int(argv[3])


@pytest.mark.parametrize("argv", [["--n", str(MAX_EVOLVE_N + 1)],
                                  ["--steps", str(MAX_EVOLVE_STEPS + 1)],
                                  ["--t-max", "1.0001e4"]])
def test_evolve_above_its_ceilings_is_usage_error(argv, capsys):
    code, out, err = run_cli(["evolve"] + argv, capsys)
    assert code == 2
    assert out == "" and "error:" in err and argv[0] in err


@settings(max_examples=50)
@given(st.data())
def test_evolve_any_argv_ends_in_an_exit_code(data):
    # --steps stays at 3 or fewer, so that no example builds a long table
    argv = _any_argv(data, "evolve", {
        "--n=": st.integers(1, 6),
        "--split=": st.integers(0, 1),
        "--seed=": st.integers(0),
        "--t-max=": st.floats(-MAX_EVOLVE_T, MAX_EVOLVE_T),
        "--steps=": st.integers(0, 3),
    }, {
        "--n=": st.one_of(st.integers(), st.text(max_size=4)),
        "--split=": st.one_of(st.integers(), st.text(max_size=4)),
        "--seed=": st.one_of(st.integers(), st.text(max_size=4)),
        "--t-max=": st.one_of(st.floats(), st.text(max_size=6)),
        "--steps=": st.one_of(st.integers(max_value=3),
                              st.text(alphabet="abe.+- ", max_size=3)),
    })
    assert _main_code(argv) in (0, 1, 2, 3)


# -- console entry point --------------------------------------------------------------

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qflag.cli", "roots", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 8
