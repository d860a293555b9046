"""One-parameter evolution generated by the skew-adjoint algebra.

States evolve by Psi(t) = exp(t g) Psi(0) with g* = -g, so the squared norm
is conserved for all time and evolution satisfies the cocycle law
g(t) = g(t - t0) g(t0).  Winding-number time reversal combined with
conjugation is the identity, since -t g* = t g.  The generator splits into
block rotations of the system and surroundings plus the two off-diagonal
exchange channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionMismatch
from .quaternion import Quaternion, require_unit
from .quatmat import GroupElement, QuatMatrix, expm, require_skew_adjoint


@dataclass
class StateVector:
    """Column of quaternions with a system/surroundings partition marker."""

    components: tuple
    split: int

    def __post_init__(self):
        self.components = tuple(self.components)
        if not 0 <= self.split <= len(self.components):
            raise PartitionMismatch(
                f"split {self.split} outside 0..{len(self.components)}")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def system(self) -> tuple:
        return self.components[:self.split]

    @property
    def surroundings(self) -> tuple:
        return self.components[self.split:]

    def norm_sq(self) -> float:
        return sum(q.norm_sq() for q in self.components)

    def system_norm_sq(self) -> float:
        return sum(q.norm_sq() for q in self.system)

    def surroundings_norm_sq(self) -> float:
        return sum(q.norm_sq() for q in self.surroundings)

    def as_column(self) -> QuatMatrix:
        return QuatMatrix.from_quaternions([[q] for q in self.components])

    @classmethod
    def from_column(cls, col: QuatMatrix, split: int) -> "StateVector":
        return cls(tuple(col.entry(i, 0) for i in range(col.rows)), split)


def random_state(rng: np.random.Generator, n: int, split: int) -> StateVector:
    from .quaternion import random_quaternion
    return StateVector(tuple(random_quaternion(rng) for _ in range(n)), split)


def evolve(gen: QuatMatrix, psi0: StateVector, t: float) -> StateVector:
    """Psi(t) = exp(t gen) Psi(0); requires a skew-adjoint generator."""
    require_skew_adjoint(gen)
    if gen.rows != psi0.n:
        raise PartitionMismatch(f"generator size {gen.rows} != state size {psi0.n}")
    flow = expm(gen * t)
    return StateVector.from_column(flow @ psi0.as_column(), psi0.split)


def cocycle_residual(gen: QuatMatrix, t: float, t0: float) -> float:
    """|| exp(t g) - exp((t - t0) g) exp(t0 g) ||, zero by the group law."""
    require_skew_adjoint(gen)
    whole = expm(gen * t)
    split = expm(gen * (t - t0)) @ expm(gen * t0)
    return (whole - split).max_abs()


def time_reversal_residual(gen: QuatMatrix, t: float) -> float:
    """|| exp(t g) - exp(-t g*) ||; vanishes identically by skewness."""
    require_skew_adjoint(gen)
    return (expm(gen * t) - expm(gen.adjoint() * (-t))).max_abs()


def geodesic_block(u: Quaternion, omega: float, t: float) -> GroupElement:
    """The 2x2 geodesic [[cos(wt) 1, sin(wt) u], [-sin(wt) u*, cos(wt) 1]].

    Equals exp(wt [[0, u], [-u*, 0]]) for a unit quaternion u, and is
    periodic with period 2 pi / w.
    """
    require_unit(u)
    c, s = np.cos(omega * t), np.sin(omega * t)
    e = Quaternion(1.0)
    m = QuatMatrix.from_quaternions([[c * e, s * u],
                                     [-s * u.conj(), c * e]])
    return GroupElement(m)


def geodesic_generator(u: Quaternion) -> QuatMatrix:
    require_unit(u)
    zero = Quaternion()
    return QuatMatrix.from_quaternions([[zero, u], [-u.conj(), zero]])


@dataclass
class TransitionSplit:
    """The four channels of gen @ psi in the partitioned picture."""

    system_rotation: tuple       # h_v v
    surroundings_rotation: tuple  # h_V V
    exchange_in: tuple           # -p V   (feeds the system block)
    exchange_out: tuple          # p* v   (feeds the surroundings block)

    def reconstruction(self) -> tuple:
        top = tuple(a + b for a, b in
                    zip(self.system_rotation, self.exchange_in))
        bottom = tuple(a + b for a, b in
                       zip(self.exchange_out, self.surroundings_rotation))
        return top + bottom


def transition_split(gen: QuatMatrix, psi: StateVector) -> TransitionSplit:
    """Split gen @ psi into rotation and exchange channels.

    The sum of the four labelled parts reproduces gen @ psi exactly (up to
    rounding); block-diagonal generators have vanishing exchange channels.
    """
    k, n = psi.split, psi.n
    if gen.rows != n or gen.cols != n:
        raise PartitionMismatch(f"generator {gen.shape} does not act on n={n}")
    a, b, c, d = gen.blocks(k, n - k)
    col = psi.as_column().a
    v, big_v = QuatMatrix(col[:k]), QuatMatrix(col[k:])

    def entries(mat):
        return tuple(mat.entry(i, 0) for i in range(mat.rows))

    return TransitionSplit(system_rotation=entries(a @ v),
                           surroundings_rotation=entries(d @ big_v),
                           exchange_in=entries(b @ big_v),
                           exchange_out=entries(c @ v))
