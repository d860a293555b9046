"""Quaternionic first-order operator on polynomial fields.

A field psi = A0 e + A1 i + A2 j + A3 k has polynomial components in the
four real coordinates (x0, x1, x2, x3), with x0 the cyclic time variable.
The conjugated linear operator p* = d0 + grad acts by quaternion
multiplication of the operator against the field,

    p* psi = (A0,0 - div A) - E + B,

with E = -A,0 - grad A0 and B = curl A.  Components are exact polynomials
(rational coefficients), so the decomposition identity is checked as
coefficient equality, not numerically.  The sign convention embeds the
electric field with a minus, exactly as the vector part -E + B.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, QflagError
from .quaternion import MUL_TABLE
from .quatmat import QuatMatrix
from .sparse import Polynomial, power

# e_r * e_s = sign e_c for (c, sign) = _PRODUCT[r][s], read off the product
# table once as plain ints
_PRODUCT = [[next((c, v) for c, v in enumerate(signs) if v) for signs in row]
            for row in MUL_TABLE.astype(int).tolist()]


def exponents(mono) -> tuple:
    """The exponent 4-tuple (e0, e1, e2, e3) of a packed :class:`RealPoly`
    monomial; its lexicographic order is the order in which terms print."""
    return tuple(power(mono, axis) for axis in range(4))


class RealPoly(Polynomial):
    """Exact polynomial in (x0, x1, x2, x3), on the axes 0..3 as symbols,
    each axis its own field of the packed monomial (see :func:`exponents`
    for a monomial's dense exponent 4-tuple).

    Coefficients are ints where integral and Fractions otherwise; an int and
    the equal Fraction compare, hash and print alike.
    """

    __slots__ = ()
    _order = staticmethod(exponents)

    @staticmethod
    def _index(axis: int) -> int:
        if axis not in range(4):
            raise IndexOutOfRange(f"axis {axis} outside 0..3")
        return axis

    @staticmethod
    def _symbol(index: int) -> int:
        return index

    @classmethod
    def x(cls, axis: int) -> "RealPoly":
        return cls({cls.monomial(((axis, 1),)): 1})

    @staticmethod
    def _texts(mono) -> tuple:
        return tuple(f"x{i}" + (f"^{p}" if p > 1 else "")
                     for i, p in enumerate(exponents(mono)) if p)


@dataclass
class QPolyField:
    """psi = A0 e + A1 i + A2 j + A3 k with polynomial components."""

    components: tuple

    def __post_init__(self):
        if len(self.components) != 4:
            raise ValueError("a field has exactly four components")
        self.components = tuple(self.components)

    @classmethod
    def from_component(cls, index: int, poly: RealPoly) -> "QPolyField":
        comps = [RealPoly() for _ in range(4)]
        comps[index] = poly
        return cls(tuple(comps))

    def __add__(self, o: "QPolyField") -> "QPolyField":
        return QPolyField(tuple(a + b for a, b in
                                zip(self.components, o.components)))


@dataclass
class FieldDecomposition:
    """Scalar term A0,0 - div A plus the two field vectors."""

    scalar: RealPoly
    electric: tuple   # E = -A,0 - grad A0
    magnetic: tuple   # B = curl A

    def pstar_image(self) -> "QPolyField":
        """The field (A0,0 - div A) + (-E + B) that p* psi must equal."""
        return QPolyField((self.scalar,) + tuple(
            b - e for b, e in zip(self.magnetic, self.electric)))


def _partials(psi: QPolyField) -> list:
    """The 16 partial derivatives d[r][s] = d_r A_s of the components."""
    return [[a.diff(r) for a in psi.components] for r in range(4)]


def _pstar(d) -> QPolyField:
    """sum over r, s of e_r e_s d[r][s]: p* psi assembled from its partials
    by the quaternion product table."""
    pairs = [[] for _ in range(4)]
    for r, row in enumerate(d):
        for s, part in enumerate(row):
            comp, sign = _PRODUCT[r][s]
            pairs[comp].append((sign, part))
    return QPolyField(tuple(RealPoly.combination(p) for p in pairs))


def apply_pstar(psi: QPolyField) -> QPolyField:
    """(d0 + d1 i + d2 j + d3 k) * psi by exact quaternion differentiation."""
    return _pstar(_partials(psi))


def decompose(psi: QPolyField) -> FieldDecomposition:
    """Componentwise scalar/electric/magnetic split of the potential.

    Cross-validated on every call: the partials are taken once, and their
    product-table assembly p* psi must have the scalar part A0,0 - div A and
    the vector part -E + B, as exact polynomial identities; a mismatch
    raises :class:`QflagError`.
    """
    d = _partials(psi)
    scalar = d[0][0] - (d[1][1] + d[2][2] + d[3][3])
    electric = (-d[0][1] - d[1][0],
                -d[0][2] - d[2][0],
                -d[0][3] - d[3][0])
    magnetic = (d[2][3] - d[3][2],
                d[3][1] - d[1][3],
                d[1][2] - d[2][1])
    dec = FieldDecomposition(scalar=scalar, electric=electric,
                             magnetic=magnetic)
    if _pstar(d) != dec.pstar_image():
        raise QflagError("p* psi differs from its decomposition")
    return dec


def quaternion_product_identity(v, w) -> float:
    """Worst residual of vw = (v0 w0 - v.w) + (v0 w + w0 v + v x w) over
    ``(..., 4)`` arrays of quaternions; vw is the product of the 1x1
    quaternion matrices they form."""
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    direct = (QuatMatrix(v[..., None, None, :])
              @ QuatMatrix(w[..., None, None, :])).a[..., 0, 0, :]
    vv, wv = v[..., 1:], w[..., 1:]
    assembled = np.empty(direct.shape)
    assembled[..., 0] = v[..., 0] * w[..., 0] - (vv * wv).sum(axis=-1)
    assembled[..., 1:] = v[..., :1] * wv + w[..., :1] * vv + np.cross(vv, wv)
    return np.sqrt(((direct - assembled) ** 2).sum(axis=-1)).max()


@functools.lru_cache(maxsize=8)
def _monomials(max_degree: int) -> tuple:
    """The monomials of total degree at most ``max_degree``, in the
    lexicographic order of their exponent 4-tuples; built once per degree,
    so the fields drawn share their monomials."""
    return tuple(RealPoly.monomial(enumerate(expo))
                 for expo in itertools.product(range(max_degree + 1), repeat=4)
                 if sum(expo) <= max_degree)


def random_field(rng, max_degree: int = 3, terms: int = 4) -> QPolyField:
    """Random integer-coefficient field for exactness tests.

    Each component is a sum of ``terms`` monomials c x^e drawn independently:
    x^e uniform over the monomials of total degree at most ``max_degree``
    and c uniform over the integers in [-5, 5].  Monomials that repeat add
    up, so a component has at most ``terms`` nonzero coefficients.  The
    field takes two ``rng.integers`` calls: every monomial index, then
    every coefficient.
    """
    monos = _monomials(max_degree)
    picks = rng.integers(0, len(monos), (4, terms)).tolist()
    coeffs = rng.integers(-5, 6, (4, terms)).tolist()
    comps = []
    for row, cs in zip(picks, coeffs):
        poly = {}
        for i, c in zip(row, cs):
            poly[monos[i]] = poly.get(monos[i], 0) + c
        comps.append(RealPoly(poly))
    return QPolyField(tuple(comps))
