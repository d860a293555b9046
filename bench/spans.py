"""Outside-in tracer for the qflag layers.

The tracer wraps public entry points from the benchmark's side: methods on
their class, and module functions at every place that binds them by name
(module globals, module-level dicts such as ``verify.SUITES``, and default
arguments such as ``einstein_check(metric_fn=fs_metric)``).  Nothing inside
the package is edited.

A span records a name, start, end and parent.  Spans live in flat in-memory
arrays and are written out once at the end.  Very frequent, very cheap calls
(quaternion scalar products, embeddings, metric evaluations) are counted
without a span.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

import numpy as np

# (owner, attribute, span name).  ``owner`` is a dotted module path,
# optionally followed by ``:Class``.
SPAN_TARGETS = [
    ("qflag.quatmat:QuatMatrix", "__matmul__", "quatmat.matmul"),
    ("qflag.quatmat:QuatMatrix", "inv", "quatmat.inv"),
    ("qflag.quatmat", "expm", "quatmat.expm"),
    ("qflag.quatmat", "func_hermitian", "quatmat.func_hermitian"),
    ("qflag.quatmat", "eigvals_hyperhermitian", "quatmat.eigvals"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("numpy.linalg", "cond", "linalg.cond"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "inv", "linalg.inv"),
    ("numpy.linalg", "det", "linalg.det"),
    ("numpy.linalg", "norm", "linalg.norm"),
    ("qflag.coset", "lft_apply", "coset.lft_apply"),
    ("qflag.coset", "lft_apply_second_form", "coset.lft_apply_second_form"),
    ("qflag.coset", "transport_identities", "coset.transport_identities"),
    ("qflag.coset", "cross_ratio", "coset.cross_ratio"),
    ("qflag.coset", "metric_form", "coset.metric_form"),
    ("qflag.coset", "metric_form_expanded", "coset.metric_form_expanded"),
    ("qflag.coset", "metric_form_hermitian", "coset.metric_form_hermitian"),
    ("qflag.coset", "coset_element", "coset.coset_element"),
    ("qflag.coset", "haar_average", "coset.haar_average"),
    ("qflag.forms", "curvature_blocks", "forms.curvature_blocks"),
    ("qflag.forms", "maurer_cartan_residual", "forms.maurer_cartan_residual"),
    ("qflag.forms", "connection_blocks", "forms.connection_blocks"),
    ("qflag.liealg:DiffOperator", "compose", "liealg.compose"),
    ("qflag.liealg:DiffOperator", "apply", "liealg.apply"),
    ("qflag.liealg", "verify_commutation_table",
     lambda args, kwargs: f"liealg.table.k{args[0]}n{args[1]}"),
    ("qflag.liealg", "laplace_beltrami", "liealg.laplace_beltrami"),
    ("qflag.emfield", "decompose", "emfield.decompose"),
    ("qflag.dynamics", "evolve", "dynamics.evolve"),
    ("qflag.s4lb", "einstein_check", "s4lb.einstein_check"),
    ("qflag.verify", "run_suite", "verify.run_suite"),
    ("qflag.cli", "main", "cli.main"),
]

# (owner, attribute, counter name) for calls counted without a span
COUNT_TARGETS = [
    ("qflag.quatmat:QuatMatrix", "embed", "quatmat.embed"),
    ("qflag.quaternion:Quaternion", "__mul__", "quaternion.mul"),
    ("qflag.s4lb", "fs_metric", "s4lb.metric_evals"),
    ("qflag.s4lb", "angular_metric", "s4lb.metric_evals"),
]


def _owner(spec: str):
    mod_name, _, cls_name = spec.partition(":")
    mod = sys.modules[mod_name]
    return getattr(mod, cls_name) if cls_name else mod


def _binding_modules():
    """Modules whose globals may bind a wrapped function.

    The benchmark's own code reaches the package through module attributes,
    so it needs no rebinding.
    """
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qflag" or name.startswith("qflag.")
                                or name == "numpy.linalg"):
            yield mod


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.active: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.terms_out = 0
        self._undo = []

    # -- ids and spans ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.errors.append(0)
            self.active.append(0)
        return nid

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.t0)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_outer.append(self.active[nid] == 0)
        self.t0.append(0.0)
        self.t1.append(0.0)
        self.calls[nid] += 1
        self.active[nid] += 1
        self.stack.append(idx)
        return idx

    def _close(self, nid: int, idx: int, start: float, end: float):
        self.stack.pop()
        self.active[nid] -= 1
        self.t0[idx] = start
        self.t1[idx] = end

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        from qflag.errors import QflagError
        tracer = self
        fixed = None if callable(name) else self.name_id(name)
        terms = name == "liealg.compose"

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
            idx = tracer._open(nid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except QflagError:
                tracer.errors[nid] += 1
                raise
            finally:
                end = perf_counter()
                tracer._close(nid, idx, start, end)
            if terms:
                tracer.terms_out += len(out.terms)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        calls, nid = self.calls, self.name_id(name)

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, fn, wrapper):
        """Replace every binding of ``fn`` that the package holds."""
        for mod in _binding_modules():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, key, wrapper)
                elif isinstance(val, dict) and not key.startswith("__"):
                    for dkey, dval in list(val.items()):
                        if dval is fn:
                            self._setitem(val, dkey, wrapper)
                func = getattr(val, "__wrapped__", val)
                if isinstance(func, types.FunctionType) and func.__defaults__ \
                        and any(d is fn for d in func.__defaults__):
                    new = tuple(wrapper if d is fn else d for d in func.__defaults__)
                    self._set(func, "__defaults__", new)

    def _set(self, obj, attr, value):
        self._undo.append(("attr", obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _setitem(self, dct, key, value):
        self._undo.append(("item", dct, key, dct[key]))
        dct[key] = value

    def install(self):
        """Wrap every target and each verify suite; undone by :meth:`remove`."""
        import qflag.verify as verify
        for targets, make in ((COUNT_TARGETS, self._count_wrapper),
                              (SPAN_TARGETS, self._span_wrapper)):
            for owner_spec, attr, name in targets:
                owner = _owner(owner_spec)
                if isinstance(owner, type):
                    self._set(owner, attr, make(owner.__dict__[attr], name))
                else:
                    fn = getattr(owner, attr)
                    self._rebind(fn, make(fn, name))
        for suite, fn in list(verify.SUITES.items()):
            self._rebind(fn, self._span_wrapper(fn, f"verify.{suite}"))

    def remove(self):
        while self._undo:
            kind, obj, key, old = self._undo.pop()
            if kind == "attr":
                setattr(obj, key, old)
            else:
                obj[key] = old

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results -------------------------------------------------------------------

    def call_counts(self) -> dict:
        counts = {n: c for n, c in zip(self.names, self.calls) if c}
        counts["liealg.compose.terms_out"] = self.terms_out
        return counts

    def summary(self) -> dict:
        """Per span name: calls, errors, busy seconds and self seconds.

        Busy time counts only spans with no open span of the same name around
        them; self time is a span's duration minus that of its direct children.
        """
        n = len(self.t0)
        names = np.asarray(self.span_name, dtype=np.intp)
        parent = np.asarray(self.span_parent, dtype=np.intp)
        outer = np.asarray(self.span_outer, dtype=bool)
        dur = np.asarray(self.t1) - np.asarray(self.t0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child[:n]
        k = len(self.names)
        busy = np.bincount(names[outer], weights=dur[outer], minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {name: {"calls": self.calls[i], "errors": self.errors[i],
                       "busy_s": float(busy[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        """Durations of every span of one name, in opening order."""
        mask = np.asarray(self.span_name) == self._ids.get(name, -1)
        return (np.asarray(self.t1) - np.asarray(self.t0))[mask]

    def write(self, path: str):
        """Dump the spans: name ids, parents, start and end times."""
        np.savez(path, names=np.array(self.names),
                 name=np.asarray(self.span_name), parent=np.asarray(self.span_parent),
                 start=np.asarray(self.t0), end=np.asarray(self.t1))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.nid, self.idx, self.start, perf_counter())
        return False
