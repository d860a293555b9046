"""One-parameter evolution generated by the skew-adjoint algebra.

States evolve by Psi(t) = exp(t g) Psi(0) with g* = -g, so the squared norm
is conserved for all time and evolution satisfies the cocycle law
g(t) = g(t - t0) g(t0).  Winding-number time reversal combined with
conjugation is the identity, since -t g* = t g.  The generator splits into
block rotations of the system and surroundings plus the two off-diagonal
exchange channels.

States are ``(..., n, 4)`` arrays, generators QuatMatrix batches and times
numbers or arrays; every routine broadcasts their batch shapes and makes one
batched ``expm`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coset import coset_generator
from .errors import PartitionMismatch
from .quaternion import require_quaternions, require_unit, sq_norms
from .quatmat import (GroupElement, QuatMatrix, _stack, _wrap, expm,
                      require_skew_adjoint)


@dataclass
class StateVector:
    """``(..., n, 4)`` quaternion columns; rows ``:split`` are the system."""

    a: np.ndarray
    split: int

    def __post_init__(self):
        self.a = require_quaternions(self.a, "(..., n, 4)")
        if not 0 <= self.split <= self.n:
            raise PartitionMismatch(f"split {self.split} outside 0..{self.n}")

    @property
    def n(self) -> int:
        return self.a.shape[-2]

    def norm_sq(self):
        return column_norm_sq(self.a)

    def system_norm_sq(self):
        return column_norm_sq(self.a[..., :self.split, :])


def column_norm_sq(rows: np.ndarray):
    """Summed squared norm of the ``(..., m, 4)`` rows per batch entry, added
    in row order (numpy's pairwise ``sum`` would reorder the additions)."""
    sq = np.insert(sq_norms(rows), 0, 0.0, axis=-1)   # from 0, as sum starts
    return np.cumsum(sq, axis=-1)[..., -1][()]


def random_state(rng: np.random.Generator, n: int, split: int) -> StateVector:
    """One state, drawn as ``n`` calls of ``random_quaternion(rng)`` draw."""
    return StateVector(rng.normal(0.0, 1.0, (n, 4)), split)


def evolve(gen: QuatMatrix, psi0: StateVector, t) -> StateVector:
    """Psi(t) = exp(t gen) Psi(0) for a skew-adjoint ``gen``; the batch
    shapes of ``gen``, ``t`` and ``psi0`` broadcast."""
    require_skew_adjoint(gen)
    if gen.rows != psi0.n:
        raise PartitionMismatch(f"generator size {gen.rows} != state size {psi0.n}")
    moved = expm(gen * t) @ QuatMatrix(psi0.a[..., None, :])
    return StateVector(moved.a[..., 0, :], psi0.split)


def _expm_each(*ms: QuatMatrix) -> list:
    """exp of each of ``ms``, broadcast to one batch, in one ``expm`` call."""
    return list(map(_wrap, expm(_stack(ms)).a))


def cocycle_residual(gen: QuatMatrix, t, t0) -> float:
    """|| exp(t g) - exp((t - t0) g) exp(t0 g) ||, zero by the group law;
    the worst over the broadcast batch of ``gen``, ``t`` and ``t0``."""
    require_skew_adjoint(gen)
    whole, late, early = _expm_each(gen * t, gen * (t - t0), gen * t0)
    return (whole - late @ early).max_abs()


def time_reversal_residual(gen: QuatMatrix, t) -> float:
    """|| exp(t g) - exp(-t g*) ||, which vanishes identically by skewness;
    the worst over the broadcast batch of ``gen`` and ``t``."""
    require_skew_adjoint(gen)
    forward, backward = _expm_each(gen * t, gen.adjoint() * np.negative(t))
    return (forward - backward).max_abs()


def geodesic_generator(u) -> QuatMatrix:
    """[[0, u], [-u*, 0]] for a ``(..., 4)`` array of unit quaternions."""
    return coset_generator(QuatMatrix(require_unit(u)[..., None, None, :]))


def geodesic_block(u, omega, t) -> GroupElement:
    """The 2x2 geodesic [[cos(wt) 1, sin(wt) u], [-sin(wt) u*, cos(wt) 1]].

    Equals exp(wt [[0, u], [-u*, 0]]) for a unit quaternion u, and is
    periodic with period 2 pi / w.  ``u`` is a ``(..., 4)`` array whose
    batch shape broadcasts against those of ``omega`` and ``t``.
    """
    wt = np.multiply(omega, t)
    return GroupElement(QuatMatrix.identity(2) * np.cos(wt)
                        + geodesic_generator(u) * np.sin(wt))


@dataclass
class TransitionSplit:
    """The four channels of gen @ psi, each a ``(..., rows, 4)`` array."""

    system_rotation: np.ndarray        # h_v v
    surroundings_rotation: np.ndarray  # h_V V
    exchange_in: np.ndarray            # -p V   (feeds the system block)
    exchange_out: np.ndarray           # p* v   (feeds the surroundings block)

    def reconstruction(self) -> np.ndarray:
        """gen @ psi as a ``(..., n, 4)`` array."""
        return np.concatenate([self.system_rotation + self.exchange_in,
                               self.exchange_out + self.surroundings_rotation],
                              axis=-2)


def transition_split(gen: QuatMatrix, psi: StateVector) -> TransitionSplit:
    """Split gen @ psi into rotation and exchange channels.

    The sum of the four labelled parts reproduces gen @ psi exactly (up to
    rounding); block-diagonal generators have vanishing exchange channels.
    The batch shapes of ``gen`` and ``psi`` broadcast.
    """
    k, n = psi.split, psi.n
    if gen.shape != (n, n):
        raise PartitionMismatch(f"generator {gen.shape} does not act on n={n}")
    a, b, c, d = gen.blocks(k, n - k)
    v = QuatMatrix(psi.a[..., :k, None, :])
    big_v = QuatMatrix(psi.a[..., k:, None, :])
    return TransitionSplit(system_rotation=(a @ v).a[..., 0, :],
                           surroundings_rotation=(d @ big_v).a[..., 0, :],
                           exchange_in=(b @ big_v).a[..., 0, :],
                           exchange_out=(c @ v).a[..., 0, :])
