"""Exterior forms with quaternion coefficients over real base differentials.

One- and two-forms are stored sparsely: a one-form maps a base-differential
index r to a coefficient, a two-form maps an ordered pair (r, s), r < s, to a
coefficient.  Coefficients may be :class:`Quaternion` scalars or, for forms
along matrix-valued coordinates, :class:`QuatMatrix` blocks; the wedge rule
keeps coefficient products in left-to-right order while the base
differentials anticommute:

    (a dx_r) ^ (b dx_s) = (a b) dx_r ^ dx_s = -(a b) dx_s ^ dx_r.

The module also evaluates pulled-back connection and curvature data along
one-parameter subgroups and tangent pairs, which is how the Maurer-Cartan
structure equation and the curvature block identities are checked
pointwise.
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import DependentDirections, DimensionMismatch
from .quaternion import BASIS, Quaternion
from .quatmat import QuatMatrix, block_matrix, expm, func_hermitian


def _mul(a, b):
    if isinstance(a, QuatMatrix) and isinstance(b, QuatMatrix):
        return a @ b
    return a * b


def _coeff_norm(c) -> float:
    if isinstance(c, QuatMatrix):
        return c.max_abs()
    return c.norm()


class QOneForm:
    """Sparse one-form: {base index: quaternion(-matrix) coefficient}."""

    def __init__(self, dim: int, coeffs=None):
        self.dim = dim
        self.coeffs = {}
        for idx, c in (coeffs or {}).items():
            if not 0 <= idx < dim:
                raise DimensionMismatch(f"index {idx} outside 0..{dim - 1}")
            if _coeff_norm(c) != 0.0:
                self.coeffs[idx] = c

    def wedge(self, other: "QOneForm") -> "QTwoForm":
        if self.dim != other.dim:
            raise DimensionMismatch("forms live over different base spaces")
        out = {}
        for r, cr in self.coeffs.items():
            for s, cs in other.coeffs.items():
                if r == s:
                    continue
                key, sign = ((r, s), 1.0) if r < s else ((s, r), -1.0)
                term = _mul(cr, cs) * sign
                out[key] = out[key] + term if key in out else term
        return QTwoForm(self.dim, out)

    def __add__(self, other: "QOneForm") -> "QOneForm":
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out[idx] + c if idx in out else c
        return QOneForm(self.dim, out)

    def __mul__(self, s: float) -> "QOneForm":
        return QOneForm(self.dim, {i: c * s for i, c in self.coeffs.items()})

    __rmul__ = __mul__


class QTwoForm:
    """Sparse two-form over ordered index pairs (r, s) with r < s."""

    def __init__(self, dim: int, coeffs=None):
        self.dim = dim
        self.coeffs = {}
        for (r, s), c in (coeffs or {}).items():
            if not (0 <= r < s < dim):
                raise DimensionMismatch(f"bad ordered pair ({r}, {s})")
            if _coeff_norm(c) > 0.0:
                self.coeffs[(r, s)] = c

    def coefficient(self, r: int, s: int):
        """Coefficient of dx_r ^ dx_s, honouring antisymmetry."""
        if r == s:
            return Quaternion()
        if r < s:
            c = self.coeffs.get((r, s))
            return c if c is not None else Quaternion()
        c = self.coeffs.get((s, r))
        return -c if c is not None else Quaternion()

    def __add__(self, other: "QTwoForm") -> "QTwoForm":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out[key] + c if key in out else c
        return QTwoForm(self.dim, out)

    def __sub__(self, other: "QTwoForm") -> "QTwoForm":
        return self + other * (-1.0)

    def __mul__(self, s: float) -> "QTwoForm":
        return QTwoForm(self.dim, {k: c * s for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return max((_coeff_norm(c) for c in self.coeffs.values()), default=0.0)


def wedge(a: QOneForm, b: QOneForm) -> QTwoForm:
    return a.wedge(b)


def coordinate_differential() -> QOneForm:
    """The canonical quaternion differential dx0 e + dx1 i + dx2 j + dx3 k."""
    return QOneForm(4, {r: BASIS[r] for r in range(4)})


def dY_wedge(dy: QOneForm = None):
    """The pair (dY ^ dY*, dY* ^ dY) for a quaternion differential.

    Defaults to the canonical dx0 e + dx1 i + dx2 j + dx3 k.  The first
    product expands to -2(dy0 ^ dy + dy ^ dy), the self-dual sector; the
    second to +2(dy0 ^ dy - dy ^ dy), the anti-self-dual sector.  Component
    pattern for the self-dual side (basis coefficient of i):

        -2 (dx0 ^ dx1 + dx2 ^ dx3),

    with cyclic analogues for j and k; the anti-self-dual side carries the
    minus sign between the paired area elements.
    """
    if dy is None:
        dy = coordinate_differential()
    dy_star = QOneForm(dy.dim, {r: c.conj() for r, c in dy.coeffs.items()})
    return dy.wedge(dy_star), dy_star.wedge(dy)


# Hodge pairs for the Euclidean star on 2-forms, orientation dx0^dx1^dx2^dx3.
HODGE_PAIRS = {
    (0, 1): ((2, 3), 1.0),
    (0, 2): ((1, 3), -1.0),
    (0, 3): ((1, 2), 1.0),
    (1, 2): ((0, 3), 1.0),
    (1, 3): ((0, 2), -1.0),
    (2, 3): ((0, 1), 1.0),
}


def hodge_star(form: QTwoForm) -> QTwoForm:
    """Euclidean Hodge star on two-forms over four base differentials."""
    if form.dim != 4:
        raise DimensionMismatch("the star operator is defined for dim 4")
    out = {}
    for key, c in form.coeffs.items():
        dual, sign = HODGE_PAIRS[key]
        out[dual] = out.get(dual, Quaternion()) + c * sign
    return QTwoForm(4, out)


# -- pulled-back connection and curvature data --------------------------------

def _exp_with_derivatives(x: QuatMatrix, *directions: QuatMatrix) -> list:
    """[exp(x), D exp(x)[e_1], ..., D exp(x)[e_m]], exactly, from one expm:
    the top block row of exp [[x, e_1, ..., e_m], [0, x, 0, ...], ...,
    [0, ..., 0, x]] (Higham, Functions of Matrices, 2008, Thm 3.6)."""
    n, size = x.rows, len(directions) + 1
    zero = QuatMatrix.zeros(n, n)
    grid = [[x, *directions]] + [[x if c == r else zero for c in range(size)]
                                 for r in range(1, size)]
    top = expm(block_matrix(grid)).a[..., :n, :, :]
    return [QuatMatrix(top[..., c * n:(c + 1) * n, :]) for c in range(size)]


def connection_along_path(gen: QuatMatrix, t: float) -> QuatMatrix:
    """omega = g* dg/dt along g(t) = exp(t gen), with the exact dg/dt; for a
    skew-adjoint ``gen`` it equals ``gen`` up to rounding."""
    g, dg = _exp_with_derivatives(gen * t, gen)
    return g.adjoint() @ dg


def connection_blocks(gen: QuatMatrix, t: float, j: int, k: int):
    """The four blocks (w11, w12, w21, w22) of g* dg along exp(t gen).

    The full form is skew-adjoint, so w21 = -w12*; generators inside the
    block-diagonal subalgebra give vanishing off-diagonal blocks.
    """
    return connection_along_path(gen, t).blocks(j, k)


def _gram_independent(u: QuatMatrix, v: QuatMatrix) -> bool:
    """True when every tangent pair of the batch is linearly independent."""
    def dot(p, q):
        return (p.a * q.a).sum(axis=(-3, -2, -1))
    uu, vv, uv = dot(u, u), dot(v, v), dot(u, v)
    gram = uu * vv - uv * uv
    return bool(np.all(gram > config.IDENTITY * np.maximum(1.0, uu * vv)))


def curvature_blocks(point, du: QuatMatrix, dv: QuatMatrix,
                     require_independent: bool = False) -> dict:
    """Curvature pieces at a Grassmannian point on a pair of tangents.

    Evaluates Omega11 = (w12 ^ w12*)(du, dv) and Omega22 = (w12* ^ w12)(du, dv)
    through the canonical coset representative (w12 = A* dY D), together with
    the trace forms

        R11 = tr[dY (1+Y*Y)^{-1} ^ dY* (1+YY*)^{-1}](du, dv)
        R22 = tr[dY* (1+YY*)^{-1} ^ dY (1+Y*Y)^{-1}](du, dv).

    Both evaluations are antisymmetric in (du, dv); the scalar parts of R11
    and R22 have equal magnitude.  For a batch of points and tangents the
    traces R11 and R22 are ``(..., 4)`` arrays in place of quaternions.
    """
    y = point.x
    if du.shape != y.shape or dv.shape != y.shape:
        raise DimensionMismatch("tangents must match the point shape")
    if require_independent and not _gram_independent(du, dv):
        raise DependentDirections("tangent pair is linearly dependent")
    j, k = y.rows, y.cols
    s1 = QuatMatrix.identity(j) + y @ y.adjoint()
    s2 = QuatMatrix.identity(k) + y.adjoint() @ y
    astar = func_hermitian(s1, "invsqrt")
    dmat = func_hermitian(s2, "invsqrt")
    w_u = astar @ du @ dmat
    w_v = astar @ dv @ dmat
    omega11 = w_u @ w_v.adjoint() - w_v @ w_u.adjoint()
    omega22 = w_u.adjoint() @ w_v - w_v.adjoint() @ w_u

    s1_inv = s1.inv()
    s2_inv = s2.inv()
    r11 = (du @ s2_inv @ dv.adjoint() @ s1_inv
           - dv @ s2_inv @ du.adjoint() @ s1_inv).trace()
    r22 = (du.adjoint() @ s1_inv @ dv @ s2_inv
           - dv.adjoint() @ s1_inv @ du @ s2_inv).trace()
    return {"omega11": omega11, "omega22": omega22, "r11": r11, "r22": r22}


def maurer_cartan_residual(a: QuatMatrix, b: QuatMatrix, s: float,
                           t: float) -> float:
    """Residual of d omega + omega ^ omega = 0 on the family exp(s a + t b).

    With omega_s = g* g_s and omega_t = g* g_t, the structure equation
    evaluated on the coordinate pair reads

        d/ds omega_t - d/dt omega_s + [omega_s, omega_t] = 0,

    where the mixed second derivatives of g cancel from the first two
    terms, leaving g_s* g_t - g_t* g_s with the exact g_s and g_t.
    """
    g, g_s, g_t = _exp_with_derivatives(a * s + b * t, a, b)
    w_s, w_t = g.adjoint() @ g_s, g.adjoint() @ g_t
    residual = g_s.adjoint() @ g_t - g_t.adjoint() @ g_s + w_s @ w_t - w_t @ w_s
    return residual.max_abs()
