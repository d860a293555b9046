"""qflag benchmark launcher.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times the workload's fixed work with
tracing off and prints the end-to-end metrics: its times are program time
scaled to a fixed reference speed by the interleaved snippet of
``refclock.py`` (the raw times are on the ``notes:`` line).  With
``--trace 1`` it runs one round untraced and the same round twice under the
tracer, requires the two traced call counts to agree exactly, writes the
spans to ``.bench_trace/`` and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 1 when any correctness
gate fails and 2 when the checkout holds no package.

One process, one closed-loop client: each call waits for the previous one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pin_threads():
    """One BLAS/OpenMP thread, set before numpy is first imported.

    On a two-vCPU x86-64 machine, `func_hermitian` at n=16 had a 13 ms p90
    against a 0.54 ms median with OpenBLAS's default two threads, and a
    0.57 ms p90 with one.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


pin_threads()
import refclock  # noqa: E402  -- loads numpy, so only after the pin


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": openblas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def setup_seconds(workload: str) -> list:
    """Fresh-process set-up times: start to `import qflag` plus warm-ups done."""
    out = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else float("nan")


def timed_round(wl, round_inputs, tracer=None):
    """One round: (latencies, outputs, program seconds); outputs None if it raised."""
    start = refclock.now()
    try:
        latencies, outputs = wl.run_round(round_inputs, tracer)
    except Exception:
        traceback.print_exc()
        latencies, outputs = [], None
    return latencies, outputs, refclock.now() - start


def gate(wl, inputs, outputs) -> tuple:
    """(attempted, failed) over every round and the cross-round gate.

    A round that raised, or whose check raised, counts as one failed operation.
    """
    attempted = failed = 0
    for round_inputs, out in zip(inputs, outputs):
        try:
            a, f = wl.check(round_inputs, out) if out is not None else (1, 1)
        except Exception:
            traceback.print_exc()
            a, f = 1, 1
        attempted, failed = attempted + a, failed + f
    if all(out is not None for out in outputs):
        a, f = wl.check_all(inputs, outputs)
        attempted, failed = attempted + a, failed + f
    return attempted, failed


def run_e2e(wl, args, workdir) -> tuple:
    setups = setup_seconds(wl.name)
    inputs = wl.prepare(args.seed, wl.rounds(args.seconds), workdir)
    latencies, outputs, walls, scaled_lat, scaled_walls = [], [], [], [], []
    wall_start = perf_counter()
    with refclock.RefClock(wl.reference, wl.tick_s) as clock:
        for round_inputs in inputs:
            first = len(clock.samples)
            lat, out, wall = timed_round(wl, round_inputs)
            scale = clock.scale(first)
            latencies += lat
            outputs.append(out)
            walls.append(wall)
            scaled_lat += [x * scale for x in lat]
            scaled_walls.append(wall * scale)
    wall_total = perf_counter() - wall_start
    attempted, failed = gate(wl, inputs, outputs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref_s": (sum(scaled_walls), "s"),
        "op_p50_ref_ms": (percentile(scaled_lat, 50) * 1e3, "ms"),
        "op_p90_ref_ms": (percentile(scaled_lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"rounds": len(walls), "requests": len(latencies),
             "program_s": round(sum(walls), 4), "wall_s": round(wall_total, 4),
             "op_p50_ms": round(percentile(latencies, 50) * 1e3, 4),
             "op_p90_ms": round(percentile(latencies, 90) * 1e3, 4),
             "scale": round(clock.scale(), 5), "ticks": len(clock.samples),
             "round_s": [round(w, 4) for w in walls],
             "setup_probes_s": [round(s, 4) for s in setups]}
    return metrics, attempted, failed, notes


def run_traced(wl, args, workdir) -> tuple:
    from layers import layer_metrics
    from spans import Tracer
    inputs = wl.prepare(args.seed, 1, workdir)[0]
    _, plain, untraced = timed_round(wl, inputs)
    outputs, tracers, walls = [plain], [], []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            _, out, wall = timed_round(wl, inputs, tracer)
        tracers.append(tracer)
        outputs.append(out)
        walls.append(wall)
    attempted, failed = gate(wl, [inputs] * len(outputs), outputs)
    counts = [t.call_counts() for t in tracers]
    drift = sorted(k for k in counts[0].keys() | counts[1].keys()
                   if counts[0].get(k) != counts[1].get(k))
    attempted += 1
    failed += bool(drift)
    trace_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(trace_dir, exist_ok=True)
    tracers[0].write(os.path.join(trace_dir, f"{wl.name}-seed{args.seed}.npz"))
    metrics = layer_metrics(tracers[0], untraced, walls[0])
    notes = {"untraced_s": round(untraced, 4), "traced_s": [round(w, 4) for w in walls],
             "spans": len(tracers[0].t0), "count_drift": drift,
             "counts": {k: counts[0][k] for k in sorted(counts[0])}}
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qflag", "__init__.py")):
        print(f"error: no qflag package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    wl.warm_up()
    if args.setup_probe:
        print(repr(perf_counter()))
        return 0

    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as workdir:
        run = run_traced if args.trace else run_e2e
        metrics, attempted, failed, notes = run(wl, args, workdir)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print("notes: " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    print(f"{'error_rate':44s} {failed / attempted:16.6f} failed/attempted "
          f"({failed}/{attempted})")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
