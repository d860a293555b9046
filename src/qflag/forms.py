"""Exterior forms with quaternion coefficients over real base differentials.

Forms are plain arrays with the quaternion components (e, i, j, k) on the
last axis, as in :class:`QuatMatrix`:

- a one-form is a ``(..., dim, 4)`` array whose row ``r`` is the
  coefficient of ``dx_r``;
- a two-form is an antisymmetric ``(..., dim, dim, 4)`` array whose entry
  ``[r, s]`` is the coefficient of ``dx_r ^ dx_s``.

Leading axes batch.  The wedge rule keeps coefficient products in
left-to-right order while the base differentials anticommute:

    (a dx_r) ^ (b dx_s) = (a b) dx_r ^ dx_s = -(a b) dx_s ^ dx_r,

so ``wedge(a, b)[r, s] = a_r b_s - a_s b_r``.  The star acts on each
quaternion component on its own.

The module also evaluates pulled-back connection and curvature data along
one-parameter subgroups and tangent pairs, which is how the Maurer-Cartan
structure equation and the curvature block identities are checked
pointwise.
"""

from __future__ import annotations

import itertools

import numpy as np

from .coset import _check_tangents, _gram_factors
from .errors import DimensionMismatch
from .quaternion import MUL_TABLE, require_quaternions
from .quatmat import _CONJ, QuatMatrix, _stack, _wrap, block_matrix, expm


def wedge(a, b) -> np.ndarray:
    """The two-form a ^ b of two one-forms; batch axes broadcast."""
    a, b = (require_quaternions(f, "(..., dim, 4)") for f in (a, b))
    if a.shape[-2] != b.shape[-2]:
        raise DimensionMismatch("forms live over different base spaces")
    try:
        t = np.einsum("...rp,...sq,pqu->...rsu", a, b, MUL_TABLE)
    except ValueError:
        raise DimensionMismatch(f"batch shapes {a.shape}, {b.shape} "
                                "do not broadcast") from None
    return t - t.swapaxes(-3, -2)


def dY_wedge():
    """The pair (dY ^ dY*, dY* ^ dY) for the quaternion differential.

    dY is dx0 e + dx1 i + dx2 j + dx3 k, whose row r is the basis
    quaternion e_r.  The first product expands to
    -2(dy0 ^ dy + dy ^ dy), the self-dual sector; the second to
    +2(dy0 ^ dy - dy ^ dy), the anti-self-dual sector.  Component pattern
    for the self-dual side (basis coefficient of i):

        -2 (dx0 ^ dx1 + dx2 ^ dx3),

    with cyclic analogues for j and k; the anti-self-dual side carries the
    minus sign between the paired area elements.
    """
    dy = np.eye(4)
    dy_star = dy * _CONJ
    return wedge(dy, dy_star), wedge(dy_star, dy)


# LEVI_CIVITA[a, b, c, d] is the sign of the permutation (a, b, c, d) of 0..3.
LEVI_CIVITA = np.zeros((4, 4, 4, 4))
for _p in itertools.permutations(range(4)):
    LEVI_CIVITA[_p] = (-1) ** sum(x > y for x, y in itertools.combinations(_p, 2))


def hodge_star(form) -> np.ndarray:
    """Euclidean Hodge star (*f)_ab = 1/2 eps_abcd f_cd on two-forms over
    four base differentials."""
    form = require_quaternions(form, "(..., dim, dim, 4)")
    if form.shape[-3:-1] != (4, 4):
        raise DimensionMismatch("the star operator is defined for dim 4")
    return 0.5 * np.einsum("abcd,...cdu->...abu", LEVI_CIVITA, form)


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


def curvature_blocks(point, du: QuatMatrix, dv: QuatMatrix) -> dict:
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
    _check_tangents(y, du, dv)
    # each pair of products that differ only by swapping du and dv is one
    # product of the stacked pair [u, v] with [v, u] or its adjoint
    d = _stack([du, dv], y.batch)
    d_adj = d.adjoint()
    astar, dmat = _gram_factors(y, "invsqrt")
    w = astar @ d @ dmat                                # [w_u, w_v]
    w_adj = w.adjoint()
    omega11 = _difference(w @ _swapped(w_adj))
    omega22 = _difference(w_adj @ _swapped(w))

    s1_inv, s2_inv = _gram_factors(y, "inv")
    r11 = _difference(d @ s2_inv @ _swapped(d_adj) @ s1_inv).trace()
    r22 = _difference(d_adj @ s1_inv @ _swapped(d) @ s2_inv).trace()
    return {"omega11": omega11, "omega22": omega22, "r11": r11, "r22": r22}


def _swapped(pair: QuatMatrix) -> QuatMatrix:
    """A stacked pair [u, v] as [v, u]."""
    return _wrap(pair.a[::-1])


def _difference(pair: QuatMatrix) -> QuatMatrix:
    """u - v for a stacked pair [u, v]."""
    return _wrap(pair.a[0] - pair.a[1])


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
