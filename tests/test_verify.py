import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import qflag
from qflag import coset, dynamics, verify
from qflag.errors import SingularMatrix, UnknownSuite
from qflag.quatmat import random_quatmat, random_skew_adjoint
from qflag.verify import (FORKED, S3_BLOCK, SUITES, UNITS, RunConfig,
                          _check, _draw_batches, _quatmat_draw, _run_unit,
                          _skew_draw, run_suite, s3_moments)


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        run_suite("bogus", RunConfig())


def test_suite_registry_names():
    assert set(SUITES) == {"quaternion", "quatmat", "coset", "forms",
                           "liealg", "s4", "em", "dynamics", "roots"}


def test_report_names_are_the_registered_names():
    declared = [name for names, _ in UNITS for name in names]
    rep = run_suite("all", RunConfig(trials=1))
    assert [c["name"] for c in rep["checks"]] == declared
    assert len(set(declared)) == len(declared)
    # a unit's checks share its suite, and each suite's units are adjacent,
    # in the order of SUITES
    suites = [name.split(".", 1)[0] for name in declared]
    assert suites == sorted(suites, key=list(SUITES).index)
    for names, _ in UNITS:
        assert {n.split(".", 1)[0] for n in names} == {
            names[0].split(".", 1)[0]}


def test_units_draw_from_the_streams_of_their_first_names(monkeypatch):
    # the report's draws are keyed by these names; two bodies open one more
    # stream named after the library call it feeds
    keys = []
    real = RunConfig.rng
    monkeypatch.setattr(RunConfig, "rng",
                        lambda cfg, name: keys.append(name) or real(cfg, name))
    run_suite("all", RunConfig(trials=1))
    second = {"forms.curvature_antisymmetry": ["forms.curvature_blocks"],
              "s4.einstein_y_chart": ["s4.einstein_angular_chart"]}
    # the forked units' streams open first, here, before the fork; the rest
    # follow in report order
    started = sorted(UNITS, key=lambda unit: unit[0][0] not in FORKED)
    assert keys[:len(FORKED)] == list(FORKED)
    assert keys == [key for names, _ in started
                    for key in [names[0]] + second.get(names[0], [])]


def test_forked_units_are_coset_units_in_report_order():
    # run_suite opens their streams in this order, and the error for a
    # child that sent nothing names all of them
    declared = [names[0] for names, _ in UNITS]
    assert list(FORKED) == sorted(FORKED, key=declared.index)
    assert {name.split(".", 1)[0] for name in FORKED} == {"coset"}


def serial_checks(cfg):
    return [check for names, body in UNITS
            for check in _run_unit(names, body, cfg, cfg.rng(names[0]))]


FORKS = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) > 1)
needs_fork = pytest.mark.skipif(not FORKS, reason="forks only on 2+ CPUs")


@pytest.fixture
def no_leftovers():
    """Fails the test if run_suite leaves a child process or a thread."""
    threads = threading.active_count()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


@pytest.mark.parametrize("seed", [42, 977])
@pytest.mark.parametrize("trials", [1, 3])
def test_run_suite_equals_a_serial_loop_in_report_order(seed, trials):
    # the forked units run in a child process; their rows and every other
    # row are those of one unit after the other in one process
    cfg = RunConfig(seed=seed, trials=trials)
    assert run_suite("all", cfg)["checks"] == serial_checks(cfg)


@pytest.mark.parametrize("seed, trials", [(42, 1), (977, 3)])
def test_each_suite_alone_equals_its_rows_of_all(seed, trials):
    # a suite run alone draws from the same streams, and forks its coset
    # units by the same rule, as its part of a run of all
    cfg = RunConfig(seed=seed, trials=trials)
    rows = run_suite("all", cfg)["checks"]
    for suite in SUITES:
        assert run_suite(suite, cfg)["checks"] == [
            row for row in rows if row["name"].split(".", 1)[0] == suite]


def refuse_fork():
    pytest.fail("run_suite forked where it should run serially")


@pytest.mark.parametrize("cpus", [{0}, None])
def test_one_cpu_runs_every_unit_here(monkeypatch, no_leftovers, cpus):
    # None: a platform without os.sched_getaffinity, such as macOS
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
    monkeypatch.setattr(os, "fork", refuse_fork, raising=False)
    cfg = RunConfig(seed=42)
    assert run_suite("all", cfg)["checks"] == serial_checks(cfg)


def test_a_second_thread_keeps_every_unit_here(monkeypatch, no_leftovers):
    # a fork copies only the calling thread, so a lock another thread holds
    # would stay held in the child
    monkeypatch.setattr(os, "fork", refuse_fork, raising=False)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        cfg = RunConfig(seed=42)
        assert run_suite("all", cfg)["checks"] == serial_checks(cfg)
    finally:
        stop.set()
        other.join()


def test_a_failed_fork_runs_every_unit_here(monkeypatch, no_leftovers):
    def failed():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", failed, raising=False)
    cfg = RunConfig(seed=977, trials=3)
    assert run_suite("all", cfg)["checks"] == serial_checks(cfg)


@needs_fork
def test_the_s3_statistic_runs_in_another_process(monkeypatch, tmp_path,
                                                  no_leftovers):
    # the overlap that the run's wall time rests on: lost, the report stays
    # the same and only the clock would show it
    real, out = verify.s3_moments, tmp_path / "pid"

    def recorded(rng, draws):
        out.write_text(str(os.getpid()))
        return real(rng, draws)

    monkeypatch.setattr(verify, "s3_moments", recorded)
    run_suite("all", RunConfig(seed=42, trials=1))
    assert int(out.read_text()) != os.getpid()


def test_error_in_the_background_unit_is_its_error_row(monkeypatch,
                                                       no_leftovers):
    def broken(rng, count):
        raise SingularMatrix("broken on purpose")

    monkeypatch.setattr(verify, "random_unit_quaternions", broken)
    rep = run_suite("all", RunConfig(seed=42, trials=1))
    names = [c["name"] for c in rep["checks"]]
    declared = [name for names, _ in UNITS for name in names]
    at = declared.index("coset.s3_sampling_uniform")
    # the later units that draw S^3 points fail too; the rows before are kept
    assert names[:at + 1] == (declared[:at]
                              + ["coset.s3_sampling_uniform.error"])
    assert rep["checks"][at]["detail"] == (
        "SingularMatrix: broken on purpose; not run: "
        "coset.s3_sampling_uniform, coset.s3_fourth_moment")
    assert not rep["passed"]


@needs_fork
def test_an_exception_in_the_child_is_raised_here(monkeypatch, no_leftovers):
    def broken(rng, draws):
        raise RuntimeError(f"broken in process {os.getpid()}")

    monkeypatch.setattr(verify, "s3_moments", broken)
    with pytest.raises(RuntimeError, match="broken in process") as caught:
        run_suite("all", RunConfig(seed=42))
    assert str(os.getpid()) not in str(caught.value)


@needs_fork
def test_an_exception_here_ends_the_child(monkeypatch, no_leftovers):
    # raised by the first quaternion unit while the child is still in its
    # S^3 unit, here made to take a minute: the child is killed, not waited
    # for
    def broken(rng, count):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(verify, "_quat_pairs", broken)
    monkeypatch.setattr(verify, "s3_moments",
                        lambda rng, draws: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="broken on purpose"):
        run_suite("all", RunConfig(seed=42))
    assert time.monotonic() - start < 30


@needs_fork
def test_a_child_that_exits_early_names_the_lost_units(monkeypatch,
                                                      no_leftovers):
    parent = os.getpid()

    def exits(rng, draws):
        assert os.getpid() != parent, "would end the test process"
        os._exit(5)

    monkeypatch.setattr(verify, "s3_moments", exits)
    with pytest.raises(RuntimeError, match="sent no rows") as caught:
        run_suite("all", RunConfig(seed=42, trials=1))
    assert all(name in str(caught.value) for name in FORKED)


def test_single_suite_report_shape():
    rep = run_suite("roots", RunConfig(seed=3))
    assert rep["spec_version"] == 1
    assert rep["suite"] == "roots"
    assert rep["seed"] == 3
    assert rep["passed"] and rep["checks"]
    for check in rep["checks"]:
        assert set(check) == {"name", "passed", "residual", "tolerance",
                              "detail"}


def test_einstein_offdiagonal_compares_ricci_entries():
    # a random y-chart point has no vanishing metric entry, so the residual
    # comes from the exact zeros of the polar chart: nonzero, within tolerance
    rep = run_suite("s4", RunConfig(seed=42))
    row = next(c for c in rep["checks"]
               if c["name"] == "s4.einstein_offdiagonal")
    assert row["passed"] and 0.0 < row["residual"] < 1e-8


def test_trials_override_reduces_work():
    fast = run_suite("quaternion", RunConfig(seed=1, trials=10))
    assert fast["trials"] == 10
    assert fast["passed"]


def test_tolerance_override_flows_through():
    rep = run_suite("quaternion", RunConfig(
        seed=1, trials=10,
        tol_overrides={"quaternion.norm_multiplicative": -1.0}))
    assert not rep["passed"]
    bad = [c for c in rep["checks"]
           if c["name"] == "quaternion.norm_multiplicative"][0]
    assert bad["tolerance"] == -1.0
    assert not bad["passed"]


def test_rng_streams_are_stable_per_check():
    cfg = RunConfig(seed=9)
    a = cfg.rng("some.check").normal(size=4)
    b = RunConfig(seed=9).rng("some.check").normal(size=4)
    c = RunConfig(seed=9).rng("other.check").normal(size=4)
    assert (a == b).all()
    assert (a != c).any()


# -- draws ----------------------------------------------------------------------

LOOP_DRAWS = {
    "quatmat": (_quatmat_draw(3, 4, 0.5),
                lambda rng: random_quatmat(rng, 3, 4, 0.5).a),
    "skew": (_skew_draw(4, 0.7),
             lambda rng: random_skew_adjoint(rng, 4, 0.7).a),
    "state": (_quatmat_draw(4, 1),
              lambda rng: dynamics.random_state(rng, 4, 2).a[:, None, :]),
}


@pytest.mark.parametrize("names", [["quatmat"], ["skew"], ["state"],
                                   ["quatmat", "skew", "state"],
                                   ["skew", "state", "skew"]])
def test_draw_batches_equal_a_loop_of_single_draws(names):
    count = 7
    batches = _draw_batches(np.random.default_rng(3), count,
                            *[LOOP_DRAWS[n][0] for n in names])
    rng = np.random.default_rng(3)
    rounds = [[LOOP_DRAWS[n][1](rng) for n in names] for _ in range(count)]
    assert len(batches) == len(names)
    for batch, column in zip(batches, zip(*rounds)):
        assert np.array_equal(batch.a, np.stack(column))


@pytest.mark.parametrize("draws", [1, S3_BLOCK, 3 * S3_BLOCK + 123])
def test_s3_component_means_equal_the_full_array_mean(draws):
    comp = np.random.default_rng(11).normal(0.0, 1.0, (draws, 4))
    comp /= np.linalg.norm(comp, axis=1, keepdims=True)
    means, fourth = s3_moments(np.random.default_rng(11), draws)
    assert np.array_equal(means, comp.mean(axis=0))
    assert fourth == pytest.approx(np.square(np.square(comp)).mean(),
                                   rel=1e-14)


def test_s3_component_means_memory_is_bounded():
    # 10^6 rows held at once would take 32 MB and more in temporaries
    tracemalloc.start()
    try:
        s3_moments(np.random.default_rng(0), 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_verify_coset_peak_rss_is_bounded():
    # RUSAGE_CHILDREN keeps the largest child ever waited for, so the run is
    # measured from a fresh parent; at the default counts it peaks near 53 MB
    # (120 MB when the S^3 check held its 10^6 draws at once)
    probe = ("import os, resource, subprocess, sys\n"
             "subprocess.run([sys.executable, '-m', 'qflag.cli', 'verify',"
             " 'coset', '--seed', '42', '--out', os.devnull], check=True)\n"
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(qflag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert int(proc.stdout.split()[-1]) / 1024 < 80


# -- failures inside a unit -------------------------------------------------------

def test_error_inside_a_suite_is_a_failed_check(monkeypatch):
    def broken(q):
        raise SingularMatrix("broken on purpose")

    monkeypatch.setattr(coset, "curvature_trace", broken)
    rep = run_suite("coset", RunConfig(seed=2, trials=5))
    names = [c["name"] for c in rep["checks"]]
    declared = [n for unit, _ in UNITS for n in unit
                if n.startswith("coset.")]
    at = declared.index("coset.curvature_trace_identity")
    # the raise fails its own unit only; every later check still runs
    assert names == (declared[:at] + ["coset.curvature_trace_identity.error"]
                     + declared[at + 1:])
    assert names[-1] == "coset.haar_inner_product"
    error = rep["checks"][at]
    assert not rep["passed"] and not error["passed"]
    assert error["detail"].startswith("SingularMatrix: broken on purpose")
    assert all(c["passed"] for c in rep["checks"] if c is not error)
    assert_plain_rows(rep["checks"])


def assert_plain_rows(rows):
    """Every report row holds exactly Python str, bool and float values."""
    want = {"name": str, "passed": bool, "residual": float,
            "tolerance": float, "detail": str}
    for row in rows:
        assert {key: type(value) for key, value in row.items()} == want


def test_report_row_holds_the_largest_entry_and_fails_on_any_nan():
    # a NaN in the second part of a tuple, and one after a finite entry
    for residual in ((np.zeros(3), np.array([1e-3, math.nan])),
                     np.array([1e-3, 2e-3, math.nan])):
        row = _check("suite.check", residual, 0.5)
        assert math.isnan(row["residual"]) and row["passed"] is False
    # a number, a 2-d array and a numpy scalar in one tuple
    row = _check("suite.check", (1e-3, np.array([[4e-3]]), np.float64(2e-3)),
                 0.5)
    assert row["residual"] == 4e-3 and row["passed"] is True
    # no draws survived a filter: an empty array counts as 0.0
    assert _check("suite.check", np.array([]), 1e-12)["residual"] == 0.0
    # an exact check's failure count
    row = _check("suite.check", 3, 0.5)
    assert row["residual"] == 3.0 and row["passed"] is False
    assert_plain_rows([row])


def test_report_rows_hold_plain_python_values():
    rep = run_suite("all", RunConfig(seed=5, trials=3))
    assert rep["passed"] is True
    assert_plain_rows(rep["checks"])
    json.dumps(rep)     # np.bool_ or an array would not serialise
