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

from dataclasses import dataclass

import numpy as np

from .errors import QflagError
from .quaternion import MUL_TABLE
from .quatmat import QuatMatrix
from .sparse import SparseSum, exact

# e_r * e_s = sign e_c for (c, sign) = _PRODUCT[r][s], read off the product
# table once as plain ints
_PRODUCT = [[next((c, v) for c, v in enumerate(signs) if v) for signs in row]
            for row in MUL_TABLE.astype(int).tolist()]


class RealPoly(SparseSum):
    """Exact polynomial in (x0, x1, x2, x3): {exponent 4-tuple: coefficient}.

    Coefficients are ints where integral and Fractions otherwise; an int and
    the equal Fraction compare, hash and print alike.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, c) -> "RealPoly":
        return cls({(0, 0, 0, 0): exact(c)})

    @classmethod
    def x(cls, axis: int) -> "RealPoly":
        expo = [0, 0, 0, 0]
        expo[axis] = 1
        return cls({tuple(expo): 1})

    def __mul__(self, o) -> "RealPoly":
        if not isinstance(o, RealPoly):
            o = exact(o)
            return RealPoly({e: c * o for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return RealPoly(out)

    __rmul__ = __mul__

    def diff(self, axis: int) -> "RealPoly":
        out = {}
        for expo, c in self.terms.items():
            p = expo[axis]
            if p == 0:
                continue
            e = list(expo)
            e[axis] = p - 1
            e = tuple(e)
            out[e] = out.get(e, 0) + c * p
        return RealPoly(out)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for expo, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}" + (f"^{p}" if p > 1 else "")
                            for i, p in enumerate(expo) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


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


def apply_pstar(psi: QPolyField) -> QPolyField:
    """(d0 + d1 i + d2 j + d3 k) * psi by exact quaternion differentiation."""
    out = [RealPoly() for _ in range(4)]
    for r in range(4):
        for s in range(4):
            d = psi.components[s].diff(r)
            if d.is_zero():
                continue
            comp, sign = _PRODUCT[r][s]
            out[comp] = out[comp] + (d if sign > 0 else -d)
    return QPolyField(tuple(out))


def decompose(psi: QPolyField) -> FieldDecomposition:
    """Componentwise scalar/electric/magnetic split of the potential.

    Cross-validated on every call: the scalar part of p* psi must equal
    A0,0 - div A and its vector part must equal -E + B, as exact polynomial
    identities; a mismatch raises :class:`QflagError`.
    """
    a0, a1, a2, a3 = psi.components
    scalar = a0.diff(0) - (a1.diff(1) + a2.diff(2) + a3.diff(3))
    electric = (-a1.diff(0) - a0.diff(1),
                -a2.diff(0) - a0.diff(2),
                -a3.diff(0) - a0.diff(3))
    magnetic = (a3.diff(2) - a2.diff(3),
                a1.diff(3) - a3.diff(1),
                a2.diff(1) - a1.diff(2))
    dec = FieldDecomposition(scalar=scalar, electric=electric,
                             magnetic=magnetic)
    if apply_pstar(psi) != dec.pstar_image():
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
    return float(np.sqrt(((direct - assembled) ** 2).sum(axis=-1)).max())


def _exponents(max_degree: int) -> list:
    """The exponent 4-tuples of total degree at most ``max_degree``, in
    lexicographic order."""
    d = max_degree
    return [(a, b, c, r)
            for a in range(d + 1) for b in range(d + 1 - a)
            for c in range(d + 1 - a - b) for r in range(d + 1 - a - b - c)]


def random_field(rng, max_degree: int = 3, terms: int = 4) -> QPolyField:
    """Random integer-coefficient field for exactness tests.

    Each component is a sum of ``terms`` monomials c x^e drawn independently:
    e uniform over the exponent 4-tuples of total degree at most
    ``max_degree`` and c uniform over the integers in [-5, 5].  Monomials
    that share an exponent add up, so a component has at most ``terms``
    nonzero coefficients.  The field takes two ``rng.integers`` calls:
    every exponent index, then every coefficient.
    """
    expos = _exponents(max_degree)
    picks = rng.integers(0, len(expos), (4, terms)).tolist()
    coeffs = rng.integers(-5, 6, (4, terms)).tolist()
    comps = []
    for row, cs in zip(picks, coeffs):
        poly = {}
        for i, c in zip(row, cs):
            poly[expos[i]] = poly.get(expos[i], 0) + c
        comps.append(RealPoly(poly))
    return QPolyField(tuple(comps))
