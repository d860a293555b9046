"""One traced round of each benchmark workload.

The benchmark under ``bench/`` binds package entry points by name and wraps
them from outside.  Running a round of the kernel, geometry, symbolic and
verify-all workloads under its tracer here makes a renamed or removed entry
point fail the test suite rather than a later benchmark run.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        import spans
        import workloads
        yield spans, workloads
    finally:
        sys.path.remove(BENCH)


# spans each workload must reach through the tracer
REACHED = {
    "kernels-large": ("quatmat.inv", "linalg.inv"),
    "geometry-calls": ("quatmat.inv", "linalg.inv"),
    "symbolic": ("liealg.compose", "liealg.apply", "liealg.table.k1n4",
                 "liealg.laplace_beltrami"),
    "verify-all": ("verify.run_suite", "s4lb.einstein_check", "s4lb.metric_evals"),
}


@pytest.mark.parametrize("name", list(REACHED))
def test_traced_round_passes_its_gates(bench, name, tmp_path):
    spans, workloads = bench
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(42, 1, str(tmp_path))[0]
    tracer = spans.Tracer()
    try:
        tracer.install()
        _, outputs = wl.run_round(inputs, tracer)
    finally:
        tracer.remove()
    attempted, failed = wl.check(inputs, outputs)
    assert attempted > 0 and failed == 0
    counts = tracer.call_counts()
    assert all(counts.get(span, 0) > 0 for span in REACHED[name])
    assert "linalg.cond" not in counts


def test_two_traced_geometry_rounds_count_alike(bench, tmp_path):
    # the gate of a traced benchmark run: a result kept between calls must
    # not make the second round of the same inputs do less work
    spans, workloads = bench
    wl = workloads.WORKLOADS["geometry-calls"]
    inputs = wl.prepare(42, 1, str(tmp_path))[0]
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        try:
            tracer.install()
            wl.run_round(inputs, tracer)
        finally:
            tracer.remove()
        counts.append(tracer.call_counts())
    assert counts[0] == counts[1]
    assert counts[0]["linalg.inv"] > 0
