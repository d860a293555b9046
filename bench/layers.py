"""Per-layer metrics derived from one traced round.

Layers a workload does not reach report zero calls and zero time.  The
kernel-size metrics come from the benchmark's own spans around each kernel
call in ``kernels-large``.
"""

from __future__ import annotations

SUITES = ("quaternion", "quatmat", "coset", "forms", "liealg", "s4", "em",
          "dynamics", "roots")
MODULES = ("quatmat", "linalg", "coset", "forms", "liealg", "emfield", "dynamics",
           "s4lb", "verify")
KERNELS = ("matmul", "inv", "func_hermitian", "eigvals", "expm")
COSET_CALLS = ("lft_apply", "transport_identities", "cross_ratio", "metric_form",
               "metric_form_expanded", "metric_form_hermitian", "coset_element")


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict:
    """{metric name: (value, unit)} for every per-layer metric."""
    stats = tracer.summary()
    zero = {"calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0}

    def get(name, key):
        return stats.get(name, zero)[key]

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name, "busy_s") / calls * 1e6 if calls else 0.0

    def mean_ms(span):
        durations = tracer.durations(span)
        return float(durations.mean()) * 1e3 if len(durations) else 0.0

    out = {}
    for kernel in ("matmul", "expm"):
        out[f"quatmat.{kernel}.calls"] = (get(f"quatmat.{kernel}", "calls"), "count")
        out[f"quatmat.{kernel}.busy_s"] = (get(f"quatmat.{kernel}", "busy_s"), "s")
    out["quatmat.matmul.us_per_call"] = (per_call_us("quatmat.matmul"), "us")
    for name in ("embed", "inv", "func_hermitian"):
        out[f"quatmat.{name}.calls"] = (get(f"quatmat.{name}", "calls"), "count")
    for kernel in KERNELS:
        for n in (16, 64):
            out[f"quatmat.{kernel}.n{n}.ms"] = (mean_ms(f"bench.{kernel}.n{n}"), "ms")
    n64 = out["quatmat.matmul.n64.ms"][0]
    out["quatmat.matmul.n64.gflops_computed"] = (
        32 * 64 ** 3 / (n64 * 1e-3) / 1e9 if n64 else 0.0, "GFLOP/s")

    for name in ("solve", "cond", "eigh"):
        out[f"linalg.{name}.calls"] = (get(f"linalg.{name}", "calls"), "count")

    for name in COSET_CALLS:
        out[f"coset.{name}.us_per_call"] = (per_call_us(f"coset.{name}"), "us")
    out["coset.haar_average.busy_s"] = (get("coset.haar_average", "busy_s"), "s")
    coset_names = [n for n in stats if n.startswith("coset.")]
    calls = sum(stats[n]["calls"] for n in coset_names)
    errors = sum(stats[n]["errors"] for n in coset_names)
    out["coset.rejected_ratio"] = (errors / calls if calls else 0.0, "ratio")
    out["coset.lft_apply.m32.ms"] = (mean_ms("bench.lft_apply.m32"), "ms")

    out["forms.curvature_blocks.us_per_call"] = (per_call_us("forms.curvature_blocks"), "us")
    out["forms.maurer_cartan_residual.busy_s"] = (
        get("forms.maurer_cartan_residual", "busy_s"), "s")
    out["forms.connection_blocks.calls"] = (get("forms.connection_blocks", "calls"), "count")

    out["liealg.compose.calls"] = (get("liealg.compose", "calls"), "count")
    out["liealg.compose.busy_s"] = (get("liealg.compose", "busy_s"), "s")
    out["liealg.compose.terms_out"] = (tracer.terms_out, "count")
    out["liealg.apply.calls"] = (get("liealg.apply", "calls"), "count")
    for k, n in ((1, 3), (2, 3), (1, 4)):
        out[f"liealg.table.k{k}n{n}.s"] = (get(f"liealg.table.k{k}n{n}", "busy_s"), "s")
    out["liealg.laplace_beltrami.s"] = (get("liealg.laplace_beltrami", "busy_s"), "s")

    out["emfield.decompose.busy_s"] = (get("emfield.decompose", "busy_s"), "s")
    out["quaternion.mul.calls"] = (get("quaternion.mul", "calls"), "count")
    out["dynamics.evolve.busy_s"] = (get("dynamics.evolve", "busy_s"), "s")
    out["s4lb.metric_evals"] = (get("s4lb.metric_evals", "calls"), "count")
    out["s4lb.einstein_check.busy_s"] = (get("s4lb.einstein_check", "busy_s"), "s")

    for suite in SUITES:
        out[f"verify.{suite}.s"] = (get(f"verify.{suite}", "busy_s"), "s")
    out["cli.overhead_s"] = (get("cli.main", "self_s"), "s")
    for module in MODULES:
        own = sum(s["self_s"] for n, s in stats.items() if n.startswith(module + "."))
        out[f"{module}.self_s"] = (own, "s")
    out["trace.spans"] = (len(tracer.t0), "count")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out
