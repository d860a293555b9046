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

import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedM2C, NotUnitQuaternion

# MUL_TABLE[p, q, r] is the e_r component of e_p * e_q, basis order (e, i, j, k).
MUL_TABLE = np.zeros((4, 4, 4))
for _p in range(4):
    MUL_TABLE[0, _p, _p] = 1.0
    MUL_TABLE[_p, 0, _p] = 1.0
for _p, _q, _sign, _r in [
    (1, 1, -1.0, 0), (2, 2, -1.0, 0), (3, 3, -1.0, 0),
    (1, 2, 1.0, 3), (2, 1, -1.0, 3),
    (2, 3, 1.0, 1), (3, 2, -1.0, 1),
    (3, 1, 1.0, 2), (1, 3, -1.0, 2),
]:
    MUL_TABLE[_p, _q, _r] = _sign


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

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    __abs__ = norm

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conj() * (1.0 / n)

    # -- views ---------------------------------------------------------------

    @property
    def scalar(self) -> float:
        return self.w

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = (float(v) for v in a)
        return cls(w, x, y, z)

    def is_close(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self) -> str:
        return f"Quaternion({self.w:g}, {self.x:g}, {self.y:g}, {self.z:g})"


E = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
ZERO = Quaternion()
BASIS = (E, I, J, K)

# j block of the almost complex structure, [[0, 1], [-1, 0]]
JBLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


def to_m2c(q: Quaternion) -> np.ndarray:
    """2x2 complex image of ``q``; a ring homomorphism."""
    r1 = complex(q.w, q.z)
    r2 = complex(q.x, q.y)
    return np.array([[r1, r2], [-r2.conjugate(), r1.conjugate()]])


def from_m2c(m, tol: float = 1e-12) -> Quaternion:
    """Inverse of :func:`to_m2c`.

    Raises :class:`MalformedM2C` when the quaternionic block structure
    (m22 = conj(m11), m21 = -conj(m12)) is violated beyond ``tol``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise MalformedM2C(f"expected a 2x2 matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    res = max(abs(m[1, 1] - m[0, 0].conjugate()),
              abs(m[1, 0] + m[0, 1].conjugate()))
    if res > tol * scale:
        raise MalformedM2C(f"structure residual {res:.3e} exceeds {tol:.1e}")
    return Quaternion(m[0, 0].real, m[0, 1].real, m[0, 1].imag, m[0, 0].imag)


def j_conjugate(m) -> np.ndarray:
    """j' m j -- converts a 2x2 image to its entrywise complex conjugate."""
    return JBLOCK.T @ np.asarray(m, dtype=complex) @ JBLOCK


def random_quaternion(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    return Quaternion.from_array(rng.normal(0.0, scale, 4))


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    """Uniform draw on the unit 3-sphere via a normalised 4d Gaussian."""
    v = rng.normal(0.0, 1.0, 4)
    n = np.linalg.norm(v)
    while n < 1e-12:  # pragma: no cover - probability zero in practice
        v = rng.normal(0.0, 1.0, 4)
        n = np.linalg.norm(v)
    return Quaternion.from_array(v / n)


def require_unit(q: Quaternion, tol: float = 1e-12) -> Quaternion:
    if abs(q.norm_sq() - 1.0) > tol:
        raise NotUnitQuaternion(f"|q|^2 = {q.norm_sq():.15g}")
    return q
