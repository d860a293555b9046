"""Quaternion scalars and their 2x2 complex matrix picture.

A quaternion ``q = w e + x i + y j + z k`` has one commuting basis element
``e`` and three anticommuting ones with ``ij = k``, ``jk = i``, ``ki = j``.
The 2x2 complex image used throughout the library is

    m(q) = [[ w + iz,  x + iy ],
            [ -(x - iy),  w - iz ]]

whose determinant is the squared norm.  ``j_conjugate`` realises the almost
complex structure j' m j, which sends the image to its entrywise complex
conjugate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MalformedM2C, NotUnitQuaternion

@dataclass(frozen=True)
class Quaternion:
    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- ring structure -----------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y + a.y * b.w + a.z * b.x - a.x * b.z,
                a.w * b.z + a.z * b.w + a.x * b.y - a.y * b.x,
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    # reached only for a left operand that is not a Quaternion
    __rmul__ = __mul__

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    __abs__ = norm

    # -- views ---------------------------------------------------------------

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = (float(v) for v in a)
        return cls(w, x, y, z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"


E = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
BASIS = (E, I, J, K)

# MUL_TABLE[p, q, r] is the e_r component of e_p * e_q, basis order (e, i, j, k):
# the product rule of Quaternion.__mul__ on the basis, which every array
# product reads.
MUL_TABLE = np.array([[(p * q).to_array() for q in BASIS] for p in BASIS])

# j block of the almost complex structure, [[0, 1], [-1, 0]]
JBLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


# The 2x2 image as a real map: row c holds (re, im) of m11, m12, m21, m22 of
# e_c.  QuatMatrix.embed is the one product with it.
M2C = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],     # e
                [0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0],    # i
                [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0],     # j
                [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]])   # k

# The 24 Hurwitz units +-1, +-i, +-j, +-k, (+-1 +-i +-j +-k)/2, a group: a
# spherical 5-design on S^3 (Delsarte, Goethals & Seidel, Geom. Dedicata 6,
# 1977), whose mean of a polynomial of degree <= 5 is its Haar average.
HURWITZ_UNITS = np.concatenate([np.eye(4), -np.eye(4), 0.5 * np.array(
    list(itertools.product((1.0, -1.0), repeat=4)))])


def to_m2c(q: Quaternion) -> np.ndarray:
    """2x2 complex image of ``q``; a ring homomorphism."""
    from .quatmat import QuatMatrix        # quatmat imports this module
    return QuatMatrix(q.to_array()[None, None]).embed()


def from_m2c(m) -> Quaternion:
    """Inverse of :func:`to_m2c`: the one-block case of
    :meth:`QuatMatrix.project`, under its structure check (``config.STRUCTURE``
    relative to the block's scale; a NaN or infinite entry fails)."""
    from .quatmat import QuatMatrix        # quatmat imports this module
    if np.shape(m) != (2, 2):
        raise MalformedM2C(f"expected a 2x2 matrix, got shape {np.shape(m)}")
    return Quaternion.from_array(QuatMatrix.project(m).a[0, 0])


def j_conjugate(m) -> np.ndarray:
    """j' m j -- converts a 2x2 image to its entrywise complex conjugate."""
    return JBLOCK.T @ np.asarray(m, dtype=complex) @ JBLOCK


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion.from_array(rng.normal(0.0, 1.0, 4))


def random_unit_quaternions(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform draws on the unit 3-sphere as a ``(count, 4)`` array:
    normalised Gaussians, read from ``rng`` as one standard-normal block."""
    q = rng.standard_normal((count, 4))
    norms = sq_norms(q)
    while (small := norms < 1e-24).any():  # pragma: no cover
        q[small] = rng.standard_normal((int(small.sum()), 4))
        norms = sq_norms(q)
    q /= np.sqrt(norms)[:, None]
    return q


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    """One draw of :func:`random_unit_quaternions`."""
    return Quaternion.from_array(random_unit_quaternions(rng, 1)[0])


def sq_norms(q) -> np.ndarray:
    """Squared norms of ``(..., 4)`` quaternions, summed as Quaternion.norm_sq."""
    w, x, y, z = (q[..., c] for c in range(4))
    return w * w + x * x + y * y + z * z


def require_quaternions(a, layout: str) -> np.ndarray:
    """``a`` as a float array once it has ``layout``'s axes, such as
    ``"(..., n, 4)"``: at least one per comma, the last of length 4."""
    a = np.asarray(a, dtype=float)
    if a.ndim < layout.count(",") or a.shape[-1] != 4:
        raise DimensionMismatch(f"expected shape {layout}, got {a.shape}")
    return a


def require_unit(q) -> np.ndarray:
    """``q`` as a ``(..., 4)`` float array once every squared norm is 1
    within 1e-12."""
    q = require_quaternions(q, "(..., 4)")
    gap = np.abs(sq_norms(q) - 1.0).max(initial=0.0)
    if not gap <= 1e-12:
        raise NotUnitQuaternion(f"|q|^2 differs from 1 by {gap:.3e}")
    return q
