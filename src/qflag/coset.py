"""Coset geometry of the quaternionic Grassmannian.

The quotient of the unitary quaternion group U(j+k, H) by its block-diagonal
subgroup U(j, H) x U(k, H) carries inhomogeneous coordinates X (a j x k
quaternion matrix) on which the full group acts by linear fractional
transformations

    Y = (A X + B)(C X + D)^{-1} = (-X B* + A*)^{-1}(X D* - C*).

This module provides the exponential coset parameterisation, the action and
its projective transport identities, the invariant metric in two equivalent
forms, trace/determinant curvature invariants, and exact averages of
equivariant functions over the internal-motion fibers.

Points and group elements may be batches (see :mod:`qflag.quatmat`).  A
scalar result is what numpy's reduction returns: an ``np.float64`` for a
single point and an array of the batch shape for a batch.

The three metric forms and :func:`qflag.forms.curvature_blocks` share the
Gram factors of the most recent point, read off G = [[0, X], [-X*, 0]]
(:func:`coset_generator`) with no Gram product formed: (1+XX*)^{-1} and
(1+X*X)^{-1} from :meth:`QuatMatrix.inv` of 1 + G, (1+XX*)^{-1/2} and
(1+X*X)^{-1/2} from one ``eigh`` of the Hermitian iG.  A factor is computed
again only when the point's content changes, so successive calls at one
point return the bits that fresh calls would.  :func:`coset_element` is
exp(G) from the spectrum of iG too, so a point takes one ``np.linalg.inv``
and one ``eigh`` at any shape.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateQuadruple, PairingFailure, ShapeMismatch,
                     SingularDenominator, TooManyFibers)
from .quaternion import HURWITZ_UNITS
from .quatmat import (GroupElement, QuatMatrix, _check_partition,
                      _func_skew_adjoint, _inverses, _stack, _wrap,
                      block_matrix, eigvals_hyperhermitian, func_hermitian)


class GrassmannPoint:
    """Inhomogeneous coset coordinates: a j x k quaternion matrix, or a batch."""

    __slots__ = ("x",)

    def __init__(self, x: QuatMatrix):
        self.x = x

    @property
    def j(self) -> int:
        return self.x.rows

    @property
    def k(self) -> int:
        return self.x.cols

    def __repr__(self) -> str:
        return f"GrassmannPoint(j={self.j}, k={self.k})"


def _scalar_trace(m: QuatMatrix):
    """Scalar part of the trace of each square matrix of a batch."""
    return np.add.reduce(m.a[..., 0].diagonal(0, -2, -1), axis=-1)


def _max_abs_each(m: QuatMatrix):
    """Largest component magnitude of each matrix of a batch."""
    return np.maximum.reduce(np.abs(m.a), axis=(-3, -2, -1), initial=0.0)


def coset_generator(xi: QuatMatrix) -> QuatMatrix:
    """The skew block matrix [[0, xi], [-xi*, 0]] itself."""
    j, k = xi.rows, xi.cols
    return block_matrix([[QuatMatrix.zeros(j, j), xi],
                         [-xi.adjoint(), QuatMatrix.zeros(k, k)]])


def coset_element(xi: QuatMatrix) -> GroupElement:
    """Exponential of the off-diagonal generator G = [[0, xi], [-xi*, 0]]:
    exp(G) = exp(-i iG), from one eigendecomposition of the Hermitian iG.
    In block form

        [[cos sqrt(xi xi*),  Z       ],
         [-Z*,               cos sqrt(xi* xi)]]

    with Z = sinc_sqrt(xi xi*) xi = (xi xi*)^{-1/2} sin (xi xi*)^{1/2} xi.
    """
    return GroupElement(_func_skew_adjoint(coset_generator(xi),
                                           lambda t: np.exp(-1j * t)))


def grassmann_from_coset(xi: QuatMatrix) -> GrassmannPoint:
    """X = Z (1 - Z* Z)^{-1/2} for the coset element generated by ``xi``."""
    left = xi @ xi.adjoint()
    z = func_hermitian(left, "sinc_sqrt") @ xi
    gram = QuatMatrix.identity(z.cols) - z.adjoint() @ z
    return GrassmannPoint(z @ func_hermitian(gram, "invsqrt"))


def _action(g: GroupElement, x: QuatMatrix):
    """The blocks A, C of ``g``, the image Y of the point ``x`` and
    (C X + D)^{-1}, with A X + B and C X + D from one product
    [A; C] X + [B; D]."""
    j = x.rows
    _check_partition(g.m, j, x.cols)
    m = g.m.a
    left = m[..., :j, :]                                # [A; C]
    num_den = (_wrap(left) @ x + _wrap(m[..., j:, :])).a
    den_inv = _wrap(num_den[..., j:, :, :]).inv(SingularDenominator(
        "C X + D is singular; the point is mapped to infinity"))
    y = _wrap(num_den[..., :j, :, :]) @ den_inv
    return _wrap(left[..., :j, :, :]), _wrap(left[..., j:, :, :]), y, den_inv


def lft_apply(g: GroupElement, point: GrassmannPoint) -> GrassmannPoint:
    """Linear fractional action Y = (A X + B)(C X + D)^{-1}."""
    return GrassmannPoint(_action(g, point.x)[2])


def lft_apply_second_form(g: GroupElement, point: GrassmannPoint) -> GrassmannPoint:
    """Equivalent left-quotient form Y = (-X B* + A*)^{-1}(X D* - C*).

    g* is [[A*, C*], [B*, D*]], so X B* and X D* come from one product of X
    with its rows [B*, D*]."""
    x, j = point.x, point.j
    _check_partition(g.m, j, point.k)
    adj = g.m.adjoint().a
    xbd = (x @ _wrap(adj[..., j:, :, :])).a               # [X B*, X D*]
    den = -_wrap(xbd[..., :j, :]) + _wrap(adj[..., :j, :j, :])
    den_inv = den.inv(SingularDenominator(
        "A* - X B* is singular; the point is mapped to infinity"))
    return GrassmannPoint(
        den_inv @ (_wrap(xbd[..., j:, :]) - _wrap(adj[..., :j, j:, :])))


def transport_identities(g: GroupElement, pa: GrassmannPoint,
                         pb: GrassmannPoint) -> dict:
    """Residuals of the four projective transport identities.

    With Ya, Yb the images of Xa, Xb the identities factor 1 + Ya Yb*,
    1 + Ya* Yb and (twice, with the roles of the two points exchanged in the
    flanking inverses) Ya - Yb through the group blocks.

    The four inverses take two calls, in this order: C Xa + D and C Xb + D
    as one batch (ra, rb), then A* - Xa B* and A* - Xb B* (la, lb).  The
    other two factors are their adjoints: (A - B Xb*)^{-1} = lb* and
    (Xa* C* + D*)^{-1} = ra*.  A batch raises its error if any of its
    matrices is singular, as four separate calls in this order would.
    """
    if (pa.j, pa.k) != (pb.j, pb.k):
        raise ShapeMismatch("points live on different Grassmannians")
    xa, xb = pa.x, pb.x
    a, b, _, _ = g.m.blocks(pa.j, pa.k)
    both = _stack([xa, xb], g.m.batch)
    _, _, y, r = _action(g, both)
    (ya, yb), (ra, rb) = map(_wrap, y.a), map(_wrap, r.a)
    left = (a.adjoint() - both @ b.adjoint()).inv(
        SingularDenominator("transport factor is singular"))
    la, lb = map(_wrap, left.a)
    eye_j, eye_k = QuatMatrix.identity(pa.j), QuatMatrix.identity(pa.k)

    res = {}
    lhs = eye_j + ya @ yb.adjoint()
    rhs = la @ (eye_j + xa @ xb.adjoint()) @ lb.adjoint()
    res["one_plus_y_ystar"] = _max_abs_each(lhs - rhs)

    lhs = eye_k + ya.adjoint() @ yb
    rhs = ra.adjoint() @ (eye_k + xa.adjoint() @ xb) @ rb
    res["one_plus_ystar_y"] = _max_abs_each(lhs - rhs)

    # both differences from one chain: la (Xa - Xb) rb and lb (Xa - Xb) ra
    rhs = left @ (xa - xb) @ _stack([rb, ra])
    res["difference_a"], res["difference_b"] = _max_abs_each(ya - yb - rhs)
    return res


def cross_ratio(pa: GrassmannPoint, pb: GrassmannPoint,
                pc: GrassmannPoint, pd: GrassmannPoint):
    """Scalar part of tr[(Ya-Yb)(Yc-Yb)^{-1}(Yc-Yd)(Ya-Yd)^{-1}].

    Invariant under simultaneous group action on all four points.  The two
    inverted differences must be nonsingular (one batched inverse); a
    vanishing non-inverted difference simply gives zero.
    """
    err = DegenerateQuadruple("inverted difference of points is singular")
    inv_cb, inv_ad = _inverses([pc.x - pb.x, pa.x - pd.x], err)
    prod = (pa.x - pb.x) @ inv_cb @ (pc.x - pd.x) @ inv_ad
    return _scalar_trace(prod)


# The Gram factors at the most recent point X, one slot per route: "inv"
# holds (1+XX*)^{-1} and (1+X*X)^{-1}, "invsqrt" holds (1+XX*)^{-1/2} and
# (1+X*X)^{-1/2}.  A slot is one (array shape, array bytes, matrices) tuple,
# replaced in one assignment, so a reader never pairs one point's key with
# another point's matrices; keying on the content of X means an in-place
# edit of X misses.  A factorisation that raises is not stored, and stored
# matrices are read-only.
_GRAM_FACTORS = {}


def _stored(name: str, key: tuple, build) -> tuple:
    """Slot ``name``'s matrices if it holds ``key``, else ``build()``'s."""
    slot = _GRAM_FACTORS.get(name)
    if slot is None or slot[:2] != key:
        mats = tuple(build())
        for m in mats:
            m.a.flags.writeable = False
        slot = _GRAM_FACTORS[name] = key + (mats,)
    return slot[2]


def _gram_factors(x: QuatMatrix, route: str) -> list:
    """The inverses (``route`` "inv") or inverse square roots ("invsqrt") of
    1 + XX* and 1 + X*X in that order: the diagonal blocks of (1 + G)^{-1}
    or of 1 / hypot(1, iG) = (1 + G*G)^{-1/2}, for G = :func:`coset_generator`
    (X) and G*G = diag(XX*, X*X), each of condition about |X|."""
    key = x.a.shape, x.a.tobytes()

    def factors():
        gen = coset_generator(x)
        whole = ((QuatMatrix.identity(x.rows + x.cols) + gen).inv()
                 if route == "inv" else
                 _func_skew_adjoint(gen, lambda t: 1.0 / np.hypot(1.0, t)))
        return whole.blocks(x.rows, x.cols)[::3]
    return list(_stored(route, key, factors))


def _check_tangents(x: QuatMatrix, *tangents: QuatMatrix) -> None:
    """Refuse a tangent whose shape is not the point's."""
    for dx in tangents:
        if dx.shape != x.shape:
            raise ShapeMismatch(
                f"tangent shape {dx.shape} != point shape {x.shape}")


def metric_form(point: GrassmannPoint, dx: QuatMatrix):
    """Invariant line element tr[(1+XX*)^{-1} dX (1+X*X)^{-1} dX*].

    The scalar part of the quaternion trace is returned.  Quaternion traces
    are cyclic only in their scalar part, so the vector part of this
    particular product ordering is an artifact; the scalar part coincides
    with the manifestly real form tr(w w*) for w = (1+XX*)^{-1/2} dX
    (1+X*X)^{-1/2} (see :func:`metric_form_hermitian`).
    """
    x = point.x
    _check_tangents(x, dx)
    left, right = _gram_factors(x, "inv")
    return _scalar_trace(left @ dx @ right @ dx.adjoint())


def metric_form_hermitian(point: GrassmannPoint, dx: QuatMatrix):
    """Same line element as tr(w w*) with w = A* dX D, manifestly real.

    Here A* = (1+XX*)^{-1/2} and D = (1+X*X)^{-1/2} are the diagonal blocks
    of the coset representative through X, so w is the off-diagonal block of
    the pulled-back invariant form and tr(w w*) is a sum of squared norms.
    """
    x = point.x
    _check_tangents(x, dx)
    astar, dmat = _gram_factors(x, "invsqrt")
    w = astar @ dx @ dmat
    return (w.a ** 2).reshape(w.batch + (-1,)).sum(axis=-1)


def metric_form_expanded(point: GrassmannPoint, dx: QuatMatrix):
    """Second form of the line element, with (1+X*X)^{-1} eliminated:

    tr[(1+XX*)^{-1} dX dX* - (1+XX*)^{-1} dX X* (1+XX*)^{-1} X dX*].
    Its two terms cancel far out, so its relative error grows as eps |X|^2.
    """
    x = point.x
    _check_tangents(x, dx)
    left = _gram_factors(x, "inv")[0]
    left_dx, dx_adj = left @ dx, dx.adjoint()
    term1 = left_dx @ dx_adj
    term2 = left_dx @ x.adjoint() @ left @ x @ dx_adj
    return _scalar_trace(term1 - term2)


def _transport(g: GroupElement, point: GrassmannPoint, dx: QuatMatrix):
    """The image Y and the transported tangent, from one :func:`_action`."""
    a, c, y, den_inv = _action(g, point.x)
    return y, (a - y @ c) @ dx @ den_inv


def pushforward_tangent(g: GroupElement, point: GrassmannPoint,
                        dx: QuatMatrix) -> QuatMatrix:
    """Exact transport of a tangent: dY = (A - Y C) dX (C X + D)^{-1}."""
    return _transport(g, point, dx)[1]


def metric_invariance_residual(g: GroupElement, point: GrassmannPoint,
                               dx: QuatMatrix):
    """|ds^2 at (X, dX) - ds^2 at (g X, g_* dX)| with the exact g_*."""
    y, dy = _transport(g, point, dx)
    after = metric_form(GrassmannPoint(y), dy)
    return abs(after - metric_form(point, dx))


def inversion_invariance_residual(point: GrassmannPoint, dx: QuatMatrix):
    """|ds^2 at (X, dX) - ds^2 at (X^{-1}, d(X^{-1}))| for square X.

    X -> X^{-1} is the action of the block swap [[0, 1], [1, 0]], so the
    metric is invariant; the rank-one case has 1x1 points.  The inverse is
    :meth:`QuatMatrix.inv` and the tangent transports exactly as
    d(X^{-1}) = -X^{-1} dX X^{-1}.
    """
    x_inv = point.x.inv()
    after = metric_form(GrassmannPoint(x_inv), -(x_inv @ dx @ x_inv))
    return abs(after - metric_form(point, dx))


def curvature_trace(q: QuatMatrix) -> tuple:
    """Both sides of the metric-tensor trace identity.

    For a k x n quaternion matrix Q (k and n are ``q``'s rows and columns),
    with traces taken in the complex embedding so that an m x m quaternion
    identity contributes 2m,

        tr[(1 + Q* Q)^{-1}]  =  2(n - k) + tr[(1 + Q Q*)^{-1}].

    Returns (lhs, rhs).
    """
    k, n = q.shape
    emb = q.embed()
    adj = emb.conj().swapaxes(-1, -2)
    lhs_mat = np.linalg.inv(np.eye(2 * n) + adj @ emb)
    rhs_mat = np.linalg.inv(np.eye(2 * k) + emb @ adj)
    lhs = np.trace(lhs_mat, axis1=-2, axis2=-1).real
    rhs = 2.0 * (n - k) + np.trace(rhs_mat, axis1=-2, axis2=-1).real
    return lhs, rhs


def curvature_det_gap(q: QuatMatrix) -> tuple:
    """The quaternionic determinant |1 + Q Q*| of a k x n matrix Q (k and n
    are ``q``'s rows and columns) and its relative gap to the square root
    of the complex-embedding determinant det(1 + E E*).

    |1 + Q Q*| is the product of the deduplicated real eigenvalues of Q Q*,
    each shifted by one; the embedding determinant is an independent route
    to the same number.
    """
    k = q.rows
    evs = eigvals_hyperhermitian(q @ q.adjoint())
    det_quat = np.prod(1.0 + evs, axis=-1)
    emb = q.embed()
    det_emb = np.linalg.det(np.eye(2 * k)
                            + emb @ emb.conj().swapaxes(-1, -2)).real
    ref = np.sqrt(np.maximum(det_emb, 0.0))
    gap = np.abs(det_quat - ref) / np.maximum(1.0, np.abs(ref))
    return det_quat, gap


def curvature_det(q: QuatMatrix):
    """det of the metric tensor, |1 + Q Q*|^{-(k+n)}, for a k x n matrix Q
    (k and n are ``q``'s rows and columns).

    Raises :class:`PairingFailure` when the two routes of
    :func:`curvature_det_gap` differ by more than 1e-8 relative.
    """
    k, n = q.shape
    det_quat, gap = curvature_det_gap(q)
    if np.any(gap > 1e-8):
        raise PairingFailure(
            f"eigenvalue product and embedding determinant root differ by "
            f"{np.max(gap):.3e} relative")
    return det_quat ** (-(k + n))


# -- Haar averaging over the internal fibers ---------------------------------
# Quaternion vectors are (..., n, 4) arrays and fiber elements eta are
# (..., n, 4) arrays of unit quaternions, one per row of the group element.

def fundamental_action(eta: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Componentwise left multiplication eta_c vec_c: the fundamental
    unit-quaternion action, as diag(eta) on the column ``vec``."""
    column = QuatMatrix(vec[..., None, :])
    return (QuatMatrix.diag(eta) @ column).a[..., 0, :]


def trivial_action(eta: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return vec


MAX_HAAR_FIBERS = 3   # 24^3 = 13,824 nodes, about 40 MB; no caller needs more


def haar_average(alpha, sigma, x: GroupElement) -> np.ndarray:
    """Mean of sigma(eta) alpha(x eta) over the product design
    ``HURWITZ_UNITS^n``, one factor per row of ``x``: all ``24^n`` tuples as
    one ``(24^n, n, 4)`` batch ``etas``.  ``alpha`` maps the products
    ``x @ diag(eta)``, ``(24^n, n, n, 4)``, to ``(24^n, m, 4)`` quaternion
    vectors, and ``sigma(etas, values)`` acts unitarily on those.  The mean
    is the Haar integral over the fiber torus Sp(1)^n, up to rounding, when
    the integrand has degree at most 5 in each ``eta_c`` (2 for
    ``fundamental_action`` on entries of ``x @ diag(eta)``, 0 for
    ``trivial_action``), so the ``(m, 4)`` result f satisfies
    f(x xi) = sigma(xi^{-1}) f(x).  Above ``MAX_HAAR_FIBERS`` fibers it
    raises :class:`TooManyFibers` before any work.
    """
    n = x.n
    if n > MAX_HAAR_FIBERS:
        raise TooManyFibers(f"{n} fibers need {len(HURWITZ_UNITS)}^{n} nodes; "
                            f"at most {MAX_HAAR_FIBERS} fibers are averaged")
    nodes = np.indices((len(HURWITZ_UNITS),) * n).reshape(n, -1).T
    etas = HURWITZ_UNITS[nodes]
    return sigma(etas, alpha((x.m @ QuatMatrix.diag(etas)).a)).mean(axis=0)


def inner_product(u: np.ndarray, v: np.ndarray):
    """Scalar part of sum_i conj(u_i) v_i for (..., m, 4) arrays."""
    return (u * v).sum(axis=(-2, -1))
