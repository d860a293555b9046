"""The four benchmark workloads.

Each workload has fixed timed work made of rounds.  ``prepare`` builds the
inputs of every round from the seed (untimed), ``run_round`` makes the calls
and returns one latency per request together with the outputs, and ``check``
gates the outputs after timing.  The number of rounds follows from
``--seconds`` through a constant rate per workload, not from measured time,
so parent and child commits always time the same work.

Timed intervals are taken with ``refclock.now``, which leaves out the
reference ticks interleaved with the work.

Every call reaches the package through a module attribute (``coset.lft_apply``,
never a name imported from it), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

import numpy as np

from qflag import cli, coset, dynamics, emfield, forms, liealg, quatmat, s4lb, verify
from qflag.errors import QflagError
from qflag.quatmat import QuatMatrix
from refclock import now


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(diff).max() / max(1.0, float(np.abs(ref).max())))


def _expm_oracle(gen_embedded: np.ndarray) -> np.ndarray:
    """exp of a skew-Hermitian complex matrix through its eigendecomposition."""
    lam, vec = np.linalg.eigh(1j * gen_embedded)
    return (vec * np.exp(-1j * lam)) @ vec.conj().T


def _group_element(rng, n: int, scale: float) -> quatmat.GroupElement:
    """Element of Sp(n) drawn as `random_group_element` draws it, but with
    the exponential taken in numpy so that input generation stays cheap."""
    gen = quatmat.random_skew_adjoint(rng, n, scale)
    return quatmat.GroupElement(QuatMatrix.project(_expm_oracle(gen.embed())))


def _fixed_norm(gen: QuatMatrix, norm1: float = 1.5) -> QuatMatrix:
    """Rescale so expm always takes the same number of squarings (two)."""
    return gen * (norm1 / float(np.linalg.norm(gen.embed(), 1)))


# -- warm-up: one small call per layer ------------------------------------------

def _warm_quatmat():
    rng = np.random.default_rng(0)
    a = quatmat.random_quatmat(rng, 2, 2)
    p = a @ a.adjoint()
    quatmat.expm(quatmat.random_skew_adjoint(rng, 2))
    quatmat.func_hermitian(p, "sqrt")
    quatmat.eigvals_hyperhermitian(p)
    (p + QuatMatrix.identity(2)).inv()


def _warm_coset():
    rng = np.random.default_rng(0)
    g = quatmat.random_group_element(rng, 2)
    coset.lft_apply(g, coset.GrassmannPoint(quatmat.random_quatmat(rng, 1, 1, 0.5)))


def _warm_forms():
    rng = np.random.default_rng(0)
    x = coset.GrassmannPoint(quatmat.random_quatmat(rng, 1, 1, 0.5))
    forms.curvature_blocks(x, quatmat.random_quatmat(rng, 1, 1),
                           quatmat.random_quatmat(rng, 1, 1))


def _warm_liealg():
    op = liealg.gen_h(0, 1, 1, 2)
    op.compose(op).apply(liealg.PolyFunction.z(0, 0))


def _warm_emfield():
    emfield.decompose(emfield.random_field(np.random.default_rng(0)))


def _warm_s4lb():
    s4lb.lb_radial_residual(s4lb.make_f0(), 1.0)


def _warm_dynamics():
    rng = np.random.default_rng(0)
    dynamics.evolve(quatmat.random_skew_adjoint(rng, 2),
                    dynamics.random_state(rng, 2, 1), 0.5)


def _warm_cli():
    cli.build_parser().parse_args(["verify", "all", "--seed", "0"])
    verify.run_suite("roots", verify.RunConfig())


WARMUPS = {"quatmat": _warm_quatmat, "coset": _warm_coset, "forms": _warm_forms,
           "liealg": _warm_liealg, "emfield": _warm_emfield, "s4lb": _warm_s4lb,
           "dynamics": _warm_dynamics, "cli": _warm_cli}


class Workload:
    name = ""
    layers: tuple = ()
    rounds_per_second = 1.0
    min_rounds = 1
    reference = "mixed"     # refclock snippet that tracks this kind of work
    tick_s = 0.02           # program seconds between reference ticks

    def warm_up(self):
        for layer in self.layers:
            WARMUPS[layer]()

    def rounds(self, seconds: int) -> int:
        return max(self.min_rounds, round(seconds * self.rounds_per_second))

    def prepare(self, seed: int, rounds: int, workdir: str):
        raise NotImplementedError

    def run_round(self, inputs, tracer=None):
        """Timed calls of one round: (request latencies in s, outputs)."""
        raise NotImplementedError

    def check(self, inputs, outputs) -> tuple:
        """(operations attempted, operations failed) for one round's outputs."""
        raise NotImplementedError

    def check_all(self, inputs, outputs) -> tuple:
        """Cross-round gates; none by default."""
        return 0, 0


# -- verify-all ------------------------------------------------------------------

class VerifyAll(Workload):
    """`qflag verify all` at the default trial counts, twice with one seed."""

    name = "verify-all"
    layers = tuple(WARMUPS)
    rounds_per_second = 0.05
    min_rounds = 2

    def prepare(self, seed, rounds, workdir):
        out = os.path.join(workdir, "report.json")
        argv = ["verify", "all", "--seed", str(seed), "--out", out]
        return [(argv, out)] * rounds

    def run_round(self, inputs, tracer=None):
        argv, out = inputs
        start = now()
        with _span(tracer, "bench.verify_all"):
            code = cli.main(argv)
        latency = now() - start
        with open(out, "rb") as fh:
            report = fh.read()
        return [latency], (code, report)

    def check(self, inputs, outputs):
        code, report = outputs
        checks = json.loads(report)["checks"]
        failed = sum(not c["passed"] for c in checks) + (code != 0)
        return len(checks) + 1, failed

    def check_all(self, inputs, outputs):
        """Passes with one seed must write byte-identical reports."""
        digests = {hashlib.sha256(report).hexdigest() for _, report in outputs}
        return len(outputs) - 1, int(len(digests) != 1)


# -- geometry-calls ----------------------------------------------------------------

class GeometryCalls(Workload):
    """Single unbatched draws through the quick-start geometry calls."""

    name = "geometry-calls"
    layers = ("quatmat", "coset", "forms")
    tick_s = 0.01           # about 100 ticks in each one-second round
    rounds_per_second = 1.0
    draws_per_round = 80
    shapes = ((1, 1), (2, 2), (3, 3))

    def prepare(self, seed, rounds, workdir):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(rounds):
            draws = []
            for i in range(self.draws_per_round):
                j, k = self.shapes[i % len(self.shapes)]
                pts = tuple(coset.GrassmannPoint(quatmat.random_quatmat(rng, j, k, 0.5))
                            for _ in range(4))
                draws.append((_group_element(rng, j + k, 0.7), pts,
                              quatmat.random_quatmat(rng, j, k),
                              quatmat.random_quatmat(rng, j, k),
                              quatmat.random_quatmat(rng, j, k, 0.5)))
            out.append(draws)
        return out

    def run_round(self, inputs, tracer=None):
        latencies, outputs = [], []
        for g, pts, du, dv, xi in inputs:
            start = now()
            with _span(tracer, "bench.geometry_request"):
                try:
                    res = self.request(g, pts, du, dv, xi)
                except QflagError:
                    res = None
            latencies.append(now() - start)
            outputs.append(res)
        return latencies, outputs

    @staticmethod
    def request(g, pts, du, dv, xi):
        moved = [coset.lft_apply(g, p) for p in pts]
        return (moved[0],
                coset.lft_apply_second_form(g, pts[0]),
                coset.transport_identities(g, pts[0], pts[1]),
                coset.cross_ratio(*pts),
                coset.cross_ratio(*moved),
                coset.metric_form(pts[0], du),
                coset.metric_form_expanded(pts[0], du),
                coset.metric_form_hermitian(pts[0], du),
                forms.curvature_blocks(pts[0], du, dv),
                coset.coset_element(xi))

    def check(self, inputs, outputs):
        """Residuals at the tolerances of the coset and forms verify suites.

        A draw whose calls raised a QflagError counts as failed.
        """
        failed = 0
        for (*_, xi), res in zip(inputs, outputs):
            if res is None:
                failed += 1
                continue
            y1, y2, transport, cr0, cr1, m1, m2, m3, blocks, elem = res
            om = blocks["omega11"]
            exact = _expm_oracle(coset.coset_generator(xi).embed())
            ok = ((y1.x - y2.x).max_abs() < 1e-9
                  and max(transport.values()) < 1e-9
                  and abs(cr0 - cr1) / max(1.0, abs(cr0)) < 1e-8
                  and abs(m1 - m2) < 1e-10 and abs(m1 - m3) < 1e-10
                  and (om + om.adjoint()).max_abs() < 1e-12
                  and abs(abs(blocks["r11"].w) - abs(blocks["r22"].w)) < 1e-8
                  and float(np.abs(elem.m.embed() - exact).max()) < 1e-9)
            failed += not ok
        return len(outputs), failed


# -- kernels-large -------------------------------------------------------------------

class KernelsLarge(Workload):
    """QuatMatrix kernels and lft_apply at sizes far above the verify suites."""

    name = "kernels-large"
    layers = ("quatmat", "coset")
    reference = "einsum"
    rounds_per_second = 0.4
    sizes = (16, 64)
    lft_blocks = (8, 32)

    def prepare(self, seed, rounds, workdir):
        rng = np.random.default_rng(seed)
        rand = quatmat.random_quatmat
        out = []
        for _ in range(rounds):
            per_size = {}
            for n in self.sizes:
                q = rand(rng, n, n)
                qe = q.embed()
                shifted = rand(rng, n, n) + QuatMatrix.identity(n) * (4.0 * np.sqrt(n))
                per_size[n] = {
                    "a": rand(rng, n, n), "b": rand(rng, n, n), "m": shifted,
                    "p": QuatMatrix.project(qe @ qe.conj().T / n),
                    "gen": _fixed_norm(quatmat.random_skew_adjoint(rng, n))}
            for m in self.lft_blocks:
                per_size[f"m{m}"] = {
                    "g": _group_element(rng, 2 * m, 1.0 / np.sqrt(2 * m)),
                    "x": coset.GrassmannPoint(rand(rng, m, m, 1.0 / np.sqrt(m)))}
            out.append(per_size)
        return out

    def run_round(self, inputs, tracer=None):
        res = {}
        start = now()
        for n in self.sizes:
            d = inputs[n]
            with _span(tracer, f"bench.matmul.n{n}"):
                res["matmul", n] = d["a"] @ d["b"]
            with _span(tracer, f"bench.inv.n{n}"):
                res["inv", n] = d["m"].inv()
            with _span(tracer, f"bench.func_hermitian.n{n}"):
                res["func_hermitian", n] = quatmat.func_hermitian(d["p"], "sqrt")
            with _span(tracer, f"bench.eigvals.n{n}"):
                res["eigvals", n] = quatmat.eigvals_hyperhermitian(d["p"])
            with _span(tracer, f"bench.expm.n{n}"):
                res["expm", n] = quatmat.expm(d["gen"])
        for m in self.lft_blocks:
            d = inputs[f"m{m}"]
            with _span(tracer, f"bench.lft_apply.m{m}"):
                res["lft_apply", m] = coset.lft_apply(d["g"], d["x"])
        return [now() - start], res

    def check(self, inputs, outputs):
        """Every result cross-checked through the complex embedding."""
        failed = 0
        for n in self.sizes:
            d = inputs[n]
            ae, be, me, pe = d["a"].embed(), d["b"].embed(), d["m"].embed(), d["p"].embed()
            prod = ae @ be
            failed += _rel(outputs["matmul", n].embed() - prod, prod) >= 1e-11
            eye = np.eye(2 * n)
            failed += _rel(me @ outputs["inv", n].embed() - eye, eye) >= 1e-10
            root = outputs["func_hermitian", n].embed()
            failed += _rel(root @ root - pe, pe) >= 1e-9
            lam = outputs["eigvals", n]
            ref = np.linalg.eigvalsh(pe)[0::2]
            failed += (_rel(lam - ref, ref) >= 1e-9
                       or abs(lam.sum() - d["p"].trace().w) >= 1e-9 * max(1.0, abs(lam).sum()))
            ex = outputs["expm", n].embed()
            failed += (_rel(ex.conj().T @ ex - eye, eye) >= 1e-10
                       or _rel(ex - _expm_oracle(d["gen"].embed()), ex) >= 1e-10)
        for m in self.lft_blocks:
            d = inputs[f"m{m}"]
            a, b, c, dd = (blk.embed() for blk in d["g"].blocks(m, m))
            xe = d["x"].x.embed()
            y = np.linalg.solve((c @ xe + dd).T, (a @ xe + b).T).T
            failed += _rel(outputs["lft_apply", m].x.embed() - y, y) >= 1e-9
        return 5 * len(self.sizes) + len(self.lft_blocks), int(failed)


# -- symbolic -------------------------------------------------------------------------

class Symbolic(Workload):
    """Exact generator calculus and EM decomposition; no numpy on the timed path."""

    name = "symbolic"
    layers = ("liealg", "emfield")
    reference = "python"
    rounds_per_second = 0.05
    tables = ((1, 3), (2, 3), (1, 4))
    fields_per_round = 100

    def prepare(self, seed, rounds, workdir):
        rng = np.random.default_rng(seed)
        return [[emfield.random_field(rng, max_degree=5, terms=6)
                 for _ in range(self.fields_per_round)] for _ in range(rounds)]

    def run_round(self, inputs, tracer=None):
        start = now()
        tables = [liealg.verify_commutation_table(k, n) for k, n in self.tables]
        lap = liealg.laplace_beltrami(1, 3)
        cartans = ([liealg.cartan_h(al, 1, 3) for al in range(2)]
                   + [liealg.cartan_H(a, 1, 3) for a in range(4)])
        lb = (lap.apply(liealg.PolyFunction.constant(1)).is_zero(),
              lap.conjugate() == lap,
              all(lap.compose(c) == c.compose(lap) for c in cartans))
        decs = [emfield.decompose(psi) for psi in inputs]
        return [now() - start], (tables, lb, decs)

    def check(self, inputs, outputs):
        tables, lb, decs = outputs
        failed = sum(not t["all_passed"] for t in tables) + (not all(lb))
        for psi, dec in zip(inputs, decs):
            image = emfield.apply_pstar(psi).components
            failed += not (image[0] == dec.scalar
                           and all(image[a + 1] == dec.magnetic[a] - dec.electric[a]
                                   for a in range(3)))
        return len(tables) + 1 + len(decs), failed


WORKLOADS = {w.name: w for w in (VerifyAll(), GeometryCalls(), KernelsLarge(), Symbolic())}
