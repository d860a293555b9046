"""Reference clock: program time scaled to a fixed host speed.

On a shared virtual machine the speed of one vCPU drifts by 20% and more
over seconds, and no counter the guest can read shows it.  The same fixed
piece of work, run right next to the program, drifts with it.  So while a
workload's timed work runs, a SIGALRM timer interrupts it every
``interval`` seconds of program time and runs a reference snippet: fixed
benchmark code on fixed inputs that calls numpy and the standard library,
never the package.  Each tick runs the snippet twice and times the second
run, so that the timed run finds its code and data in cache whatever the
program did before the tick.

``now()`` is ``perf_counter()`` minus the time spent in ticks, so intervals
taken with it are program time only.  ``RefClock.scale()`` is the factor
``REF_S[kind] / mean snippet time`` over a stretch of ticks; a program time
multiplied by the factor of the ticks taken during it reads as seconds on a
host on which the snippet takes ``REF_S[kind]``.
The constants only fix that unit; they never change, so parent and child
commits are scaled alike.

There is one snippet per kind of work, because contention on a shared core
slows interpreter-bound code more than long contractions inside numpy:
``mixed`` (interpreter plus small numpy calls) for the geometry calls and
``verify all``, ``python`` (dicts, tuples and Fractions) for the
symbolic layer, and ``einsum`` (a quaternion-style contraction) for the
large kernels.  Python handles a signal only between bytecodes, so during a
long call into numpy the tick waits for the call to return.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20111092)
_T = _rng.standard_normal((4, 4, 4))
_A = _rng.standard_normal((3, 3, 4))
_B = _rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
_E = _rng.standard_normal((24, 24, 4))
_spent = 0.0


def _python_part(n: int) -> int:
    acc: dict = {}
    for i in range(n):
        key = (i % 5, i % 3, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11, 7)
    return len(acc) + sum(i * i % 7 for i in range(8 * n))


def _numpy_part(n: int) -> float:
    x = _A
    for _ in range(n):
        x = np.einsum("ilp,ljq,pqr->ijr", x, _A, _T) * 0.1 + _A
        y = np.linalg.solve(_B, np.abs(x).reshape(6, 6))
    return float(y[0, 0])


def _mixed():
    _python_part(60)
    _numpy_part(12)


def _python():
    _python_part(150)


def _einsum():
    np.einsum("ilp,ljq,pqr->ijr", _E, _E, _T, optimize=True)


SNIPPETS = {"mixed": _mixed, "python": _python, "einsum": _einsum}

# Snippet seconds that define the unit of the scaled times: about the median
# in-tick snippet times on a two-vCPU x86-64 VM (Python 3.11, numpy 2.4).
REF_S = {"mixed": 7.0e-4, "python": 7.5e-4, "einsum": 8.0e-3}


def now() -> float:
    """perf_counter() less the time spent in reference ticks."""
    return perf_counter() - _spent


class RefClock:
    """Context manager: interleave reference ticks with the timed work."""

    def __init__(self, kind: str, interval: float):
        self.kind = kind
        self.snippet = SNIPPETS[kind]
        self.interval = interval
        self.samples: list = []

    def _tick(self, signum, frame):
        global _spent
        start = perf_counter()
        self.snippet()
        mid = perf_counter()
        self.snippet()
        end = perf_counter()
        self.samples.append(end - mid)
        _spent += end - start
        # One-shot re-arm: at least `interval` of program time between ticks.
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, first: int = 0) -> float:
        """Scale factor from the ticks since tick number `first` (all if none)."""
        return REF_S[self.kind] / statistics.fmean(self.samples[first:] or self.samples)
