"""Rectangular quaternion matrices and the compact symplectic group.

Entries are stored as an ``(..., rows, cols, 4)`` float array in the basis
order (e, i, j, k).  The leading axes are a batch: every operation acts on
each matrix of a batch as it acts on a single matrix, and the batch shapes
of two operands broadcast as numpy broadcasts them.  A single matrix is the
batch shape ``()``; it takes the same code path as a batch.

A product ``A @ B`` of an (i, l) by an (l, j) matrix is one real GEMM:
``B`` is expanded to the real (4l, 4j) matrix whose 4x4 block per entry is
right multiplication by that quaternion (its real regular representation,
Zhang 1997), and ``A``, read as a real (i, 4l) matrix, multiplies it;
``np.matmul`` broadcasts that product over the batch.  Reading contiguous
``A`` and the (i, 4j) result this way needs no copy.

All spectral work routes through the doubled complex embedding: each
quaternion entry is replaced by its 2x2 image, giving a
``(2 rows, 2 cols)`` complex matrix on which standard dense solvers apply.
The embedding is a faithful ring homomorphism, and a hyper-Hermitian
quaternion matrix embeds to a complex Hermitian matrix whose spectrum
consists of doubled real eigenvalues.

Both directions are real linear maps of one block.  :meth:`QuatMatrix.embed`
multiplies each entry by ``quaternion.M2C``; :meth:`QuatMatrix.project`, the
one way back, reads each 2x2 block as 8 reals and multiplies them by the
constant 8x8 ``_READBACK``, whose columns give the quaternion and the block's
residuals against the quaternionic structure, and refuses a block whose
residuals are too large.  ``inv``, ``func_hermitian`` and the functions of
a skew-adjoint matrix (``_func_skew_adjoint``, through one ``eigh`` of the
Hermitian ``1j *`` its embedding) read their complex results back through
that readback and check, so every readback is checked.

A NaN or inf entry makes numpy warn inside a product (0 * inf), so ``embed``,
``project`` and the predicates (on ``inf - inf``) enter ``np.errstate``
first.  Two steps need no guard: ``inv``'s readback, as a finite
``||E||_1 ||E^-1||_1`` leaves no NaN or inf in E^-1, and the eigen-solvers'
embedding, as ``is_hermitian`` (or ``is_skew_adjoint``), passed first,
fails on any NaN or inf.

:meth:`QuatMatrix.inv` is the one inverse: it inverts the embedding E with
one ``np.linalg.inv`` call (LAPACK ``gesv`` against an identity that numpy
builds itself), projects back, and raises (by default
:class:`SingularMatrix`) unless ``||E||_1 ||E^-1||_1 <= config.COND_LIMIT``
and the inverse passes the structure check, a test that also refuses an
exactly singular matrix and any NaN entry.

Every check keeps its meaning per matrix of a batch: tolerances are relative
to each matrix's own scale, and a batch raises the error that a loop over
its matrices would raise if any one of them fails.  :func:`_inverses`
inverts several matrices of one size with one :meth:`QuatMatrix.inv` of
their stack and raises the caller's error if any one fails.

The public constructor ``QuatMatrix(a)`` validates its argument.  Results
that the class builds itself (``+``, ``-``, ``*``, ``@``, ``adjoint``,
``blocks``, ``identity`` and the checked ``project``) have the right shape
and dtype by construction and are wrapped by :func:`_wrap` without
re-validation.
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import (DimensionMismatch, MalformedM2C, NonFiniteMatrix,
                     NonSquare, NotGroupElement, NotHyperHermitian,
                     NotSkewAdjoint, PairingFailure, SingularInvSqrt,
                     SingularMatrix)
from .quaternion import M2C, MUL_TABLE, Quaternion, require_quaternions

# _RIGHT_TABLE[q, 4 p + r] = MUL_TABLE[p, q, r]: one entry's components times
# it give the 4x4 real matrix of right multiplication by that entry.
_RIGHT_TABLE = MUL_TABLE.transpose(1, 0, 2).reshape(4, 16)

# the axes of one quaternion matrix inside a batch
_ENTRY_AXES = (-3, -2, -1)

# conjugation, componentwise
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])

# The readback of one 2x2 block read as the 8 reals (re, im) of m11, m12,
# m21, m22, the columns of M2C.  Columns 0-3 give (e, i, j, k): M2C.T / 2
# averages the two entries that carry each component, exactly, since halving
# is exact.  Columns 4-7 give the structure residuals m22 - conj(m11) and
# m21 + conj(m12) as (re, im), which vanish on the image of M2C.
_READBACK = np.concatenate([M2C.T / 2.0, np.array([
    [-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])], axis=1)


class QuatMatrix:
    """Dense matrix of quaternions, or a batch of them, with value semantics."""

    __slots__ = ("a",)

    # numpy operators defer to this class: ``array * m`` reaches __rmul__
    # rather than an object array of products, and ``array + m`` raises
    # TypeError
    __array_ufunc__ = None

    def __init__(self, a):
        self.a = require_quaternions(a, "(..., rows, cols, 4)")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuatMatrix":
        return cls(np.zeros((rows, cols, 4)))

    @classmethod
    def identity(cls, n: int) -> "QuatMatrix":
        a = np.zeros((n, n, 4))
        a.reshape(-1)[::4 * (n + 1)] = 1.0      # the entries (i, i, 0)
        return _wrap(a)

    @classmethod
    def diag(cls, entries) -> "QuatMatrix":
        """Diagonal matrices from an ``(..., n, 4)`` array of entries."""
        entries = np.asarray(entries, dtype=float)
        m = cls(np.zeros(entries.shape[:-1] + entries.shape[-2:]))
        m.a[..., range(m.rows), range(m.rows), :] = entries
        return m

    # -- basic queries ----------------------------------------------------------

    @property
    def batch(self) -> tuple:
        """Shape of the leading batch axes; ``()`` for a single matrix."""
        return self.a.shape[:-3]

    @property
    def rows(self) -> int:
        return self.a.shape[-3]

    @property
    def cols(self) -> int:
        return self.a.shape[-2]

    @property
    def shape(self):
        return self.a.shape[-3:-1]

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "QuatMatrix") -> "QuatMatrix":
        return _entrywise(np.add, self, other)

    def __sub__(self, other: "QuatMatrix") -> "QuatMatrix":
        return _entrywise(np.subtract, self, other)

    def __neg__(self) -> "QuatMatrix":
        return _wrap(-self.a)

    def __mul__(self, s):
        """Scale by a number, or by an array that broadcasts with the batch."""
        if not isinstance(s, (int, float)):
            s = np.asarray(s, dtype=float)[..., None, None, None]
        try:
            return _wrap(self.a * s)
        except ValueError:
            raise DimensionMismatch(f"cannot scale batch {self.batch} by an "
                                    f"array of shape {s.shape[:-3]}") from None

    __rmul__ = __mul__

    def __matmul__(self, other: "QuatMatrix") -> "QuatMatrix":
        a, b = self.a, other.a
        shape = b.shape
        inner, cols = shape[-3], shape[-2]
        if a.shape[-2] != inner:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        # right[..., l, p, j, r] = sum_q b[..., l, j, q] MUL_TABLE[p, q, r]
        right = (b.reshape(-1, 4) @ _RIGHT_TABLE).reshape(
            shape[:-1] + (4, 4)).swapaxes(-3, -2).reshape(
            shape[:-3] + (4 * inner, 4 * cols))
        try:
            prod = a.reshape(a.shape[:-2] + (4 * inner,)) @ right
        except ValueError:
            raise _nonconforming("multiply", self, other) from None
        return _wrap(prod.reshape(prod.shape[:-1] + (cols, 4)))

    def adjoint(self) -> "QuatMatrix":
        """Conjugate transpose."""
        return _wrap(np.multiply(self.a.swapaxes(-3, -2), _CONJ, order="C"))

    def blocks(self, j: int, k: int):
        """Conforming partition into (A, B, C, D) with A of size j x j."""
        _check_partition(self, j, k)
        a = self.a
        return (_wrap(a[..., :j, :j, :]), _wrap(a[..., :j, j:, :]),
                _wrap(a[..., j:, :j, :]), _wrap(a[..., j:, j:, :]))

    def trace(self):
        """A :class:`Quaternion`; for a batch, a ``(..., 4)`` array."""
        if not self.is_square():
            raise NonSquare("trace of a non-square matrix")
        t = self.a.diagonal(0, -3, -2).sum(axis=-1)
        return Quaternion.from_array(t) if t.ndim == 1 else t

    def max_abs(self) -> float:
        """Largest magnitude over all real components of the whole batch."""
        return np.maximum.reduce(np.abs(self.a), axis=None, initial=0.0)

    # -- complex embedding --------------------------------------------------------

    def embed(self) -> np.ndarray:
        """(..., 2 rows, 2 cols) complex matrix with one 2x2 block per entry."""
        with np.errstate(invalid="ignore"):     # 0 * inf in the zero entries
            return self._embed()

    def _embed(self) -> np.ndarray:
        """:meth:`embed` of finite entries, without the float guard."""
        a = self.a
        blocks = (a @ M2C).view(complex).reshape(a.shape[:-1] + (2, 2))
        return blocks.swapaxes(-3, -2).reshape(
            a.shape[:-3] + (2 * a.shape[-3], 2 * a.shape[-2]))

    @classmethod
    def project(cls, emb) -> "QuatMatrix":
        """Back from a complex embedding through one checked real map.

        Each 2x2 block, read as 8 reals, is multiplied by ``_READBACK``,
        which gives its quaternion and its residuals against the
        quaternionic structure (m22 = conj(m11), m21 = -conj(m12)).  The
        residuals' moduli must stay below ``config.STRUCTURE`` relative to
        the scale of each matrix, or :class:`MalformedM2C` is raised; a NaN
        or infinite entry fails, without a warning.
        """
        emb = np.ascontiguousarray(emb, dtype=complex)
        if emb.ndim < 2 or emb.shape[-2] % 2 or emb.shape[-1] % 2:
            raise MalformedM2C("embedding dimensions must be even")
        with np.errstate(invalid="ignore"):     # 0 * inf: NaN over the block
            return _read_back(emb)

    def inv(self, err: Exception = None) -> "QuatMatrix":
        """Inverse via the complex embedding, one ``np.linalg.inv`` call for
        the whole batch, read back through :meth:`project`'s check;
        raises ``err`` (default :class:`SingularMatrix`) when any matrix is
        past the condition ceiling or its inverse fails the structure
        check."""
        if self.a.shape[-3] != self.a.shape[-2]:
            raise NonSquare("inverse of a non-square matrix")
        emb = self.embed()
        try:
            sol = np.linalg.inv(emb)
            cond = _norm1(emb) * _norm1(sol)
        except np.linalg.LinAlgError:
            cond = np.float64(np.inf)
        # the worst matrix decides (a NaN is the worst)
        worst = np.maximum.reduce(cond, axis=None, initial=0.0)
        if worst <= config.COND_LIMIT:
            # a finite condition number leaves no NaN or inf in sol
            try:
                return _read_back(sol)
            except MalformedM2C as exc:
                reason = f"solution off the quaternionic structure: {exc}"
        else:
            reason = (f"1-norm condition number {worst:.3e} > "
                      f"{config.COND_LIMIT:.0e}")
        raise err if err is not None else SingularMatrix(reason)

    # -- structure predicates ----------------------------------------------------------
    # Each is True when every matrix of the batch has the property.

    def is_hermitian(self) -> bool:
        # within 10 IDENTITY: the eigen-solvers that check it average the
        # embedding with its adjoint, which absorbs that much asymmetry
        with np.errstate(invalid="ignore"):     # inf - inf on the diagonal
            delta = self - self.adjoint()
        return _worst_off_scale(delta.a, self.a, config.IDENTITY * 10) is None

    def is_skew_adjoint(self) -> bool:
        with np.errstate(invalid="ignore"):
            delta = self + self.adjoint()
        return _worst_off_scale(delta.a, self.a, config.IDENTITY) is None

    def __repr__(self) -> str:
        batch = f"batch={self.batch}, " if self.batch else ""
        return f"QuatMatrix({batch}shape={self.shape})"


def _wrap(a: np.ndarray) -> QuatMatrix:
    """A float ``(..., rows, cols, 4)`` array as a :class:`QuatMatrix`,
    without the public constructor's conversion and shape checks."""
    m = object.__new__(QuatMatrix)
    m.a = a
    return m


def _entrywise(op, x: QuatMatrix, y: QuatMatrix) -> QuatMatrix:
    """``op`` of two matrices of one shape whose batch shapes broadcast."""
    if x.a.shape[-3:] == y.a.shape[-3:]:
        try:
            return _wrap(op(x.a, y.a))
        except ValueError:
            pass
    raise _nonconforming(op.__name__, x, y)


def _nonconforming(what: str, x: QuatMatrix, y: QuatMatrix) -> DimensionMismatch:
    """The error for operands whose shapes or batch shapes do not conform."""
    return DimensionMismatch(f"cannot {what} matrices of batch {x.batch}, "
                             f"shape {x.shape} and batch {y.batch}, "
                             f"shape {y.shape}")


def _check_partition(m: QuatMatrix, j: int, k: int) -> None:
    """Raise :class:`DimensionMismatch` unless ``m`` is (j+k) x (j+k) with
    j, k >= 0: the test of :meth:`QuatMatrix.blocks`, for callers that
    slice the blocks themselves."""
    if j < 0 or k < 0 or m.shape != (j + k, j + k):
        raise DimensionMismatch(f"partition {j}+{k} does not fit {m.shape}")


def _inverses(mats, err: Exception = None) -> list:
    """Inverses of square matrices of one size, from one
    :meth:`QuatMatrix.inv` of their :func:`_stack`: each is the matrix's own
    ``inv(err)``, in the common batch shape, and if any matrix fails, ``err``
    is raised as a loop would raise it (without ``err``, SingularMatrix)."""
    return list(map(_wrap, _stack(mats).inv(err).a))


def _stack(mats, batch: tuple = None) -> QuatMatrix:
    """Matrices of one shape on a new leading axis, after :func:`_broadcast`."""
    return _wrap(np.array(_broadcast([m.a for m in mats], batch)))


def _broadcast(arrays: list, batch: tuple = None) -> list:
    """Arrays of matrices broadcast to the common batch shape of theirs and,
    if given, ``batch``; :class:`DimensionMismatch` if there is none."""
    leads = {a.shape[:-3] for a in arrays}
    if batch is not None:
        leads.add(batch)
    if len(leads) < 2:
        return arrays
    try:
        common = np.broadcast_shapes(*leads)
    except ValueError:
        raise DimensionMismatch(f"batch shapes {sorted(leads)} "
                                "do not broadcast") from None
    return [np.broadcast_to(a, common + a.shape[-3:]) for a in arrays]


def _read_back(emb: np.ndarray) -> QuatMatrix:
    """:meth:`QuatMatrix.project` of a finite embedding, unguarded."""
    lead, (r2, c2) = emb.shape[:-2], emb.shape[-2:]
    shape = lead + (r2 // 2, c2 // 2)
    # (..., r, 2, c, 2 x (re, im)) reals to one row of 8 per block
    blocks = emb.view(float).reshape(
        lead + (r2 // 2, 2, c2 // 2, 4)).swapaxes(-3, -2).reshape(-1, 8)
    out = (blocks @ _READBACK).reshape(shape + (8,))
    del blocks                            # free the copy before the residuals
    worst = _worst_off_scale(out[..., 4:].view(complex), emb,
                             config.STRUCTURE, (-2, -1))
    if worst is not None:
        raise MalformedM2C(f"structure residual {worst:.3e} "
                           f"exceeds {config.STRUCTURE:.1e} * scale")
    return _wrap(np.ascontiguousarray(out[..., :4]))


def _worst_off_scale(res: np.ndarray, ref: np.ndarray, tol: float,
                     ref_axes: tuple = _ENTRY_AXES):
    """The worst |res| (matrix axes ``_ENTRY_AXES``) over the matrices where
    it exceeds ``tol * max(1, |ref|)`` (matrix axes ``ref_axes``), or None;
    a NaN or infinite residual fails."""
    res = np.abs(res)
    # every scale is at least 1: a worst residual within the bare tolerance
    # passes without the per-matrix scales (NaN fails both)
    if np.maximum.reduce(res, axis=None, initial=0.0) <= tol:
        return None
    res = res.max(axis=_ENTRY_AXES, initial=0.0)
    scale = np.maximum(1.0, np.abs(ref).max(axis=ref_axes, initial=0.0))
    bad = ~(np.isfinite(res) & (res <= tol * scale))
    return res[bad].max() if bad.any() else None


def _norm1(m: np.ndarray):
    """1-norm of each complex matrix of a batch."""
    return np.maximum.reduce(np.add.reduce(np.abs(m), -2), -1, initial=0.0)


def block_matrix(blocks) -> QuatMatrix:
    """Assemble from a 2d grid of conforming QuatMatrix blocks.

    Blocks of different batch shapes are broadcast to a common one; blocks
    that do not conform raise :class:`DimensionMismatch`.
    """
    arrays = iter(_broadcast([b.a for row in blocks for b in row]))
    try:
        return QuatMatrix(np.concatenate(
            [np.concatenate([next(arrays) for _ in row], axis=-2)
             for row in blocks], axis=-3))
    except ValueError:
        raise DimensionMismatch("blocks do not conform") from None


# A batched ``expm`` runs in blocks whose right regular representations
# (128 n^2 bytes per n x n matrix) stay within this many bytes.  glibc's
# default mmap threshold is 128 KiB; the megabyte temporaries of a whole
# 500-matrix batch at n = 4 were mapped afresh and faulted in again product
# after product (about 23k minor faults per `verify all` pass, against 4.7k
# in blocks, on a 2-vCPU x86-64 VM).
_EXPM_BLOCK_BYTES = 2**18


def expm(m: QuatMatrix) -> QuatMatrix:
    """Matrix exponential by scaling and squaring.

    Each matrix is halved until the 1-norm of its complex embedding drops
    below 0.5, the power series truncated after order 18 is summed with
    quaternion products, and the result is squared back up; in a batch only
    the matrices that were halved more often are squared more often.  A
    batch of n x n matrices is evaluated in blocks of
    ``max(1, 2**18 // (128 n^2))`` matrices, with the same result matrix by
    matrix.  A NaN or infinite entry raises :class:`NonFiniteMatrix`.
    """
    if not m.is_square():
        raise NonSquare("exponential of a non-square matrix")
    rows = m.a.reshape((np.prod(m.batch, dtype=int),) + m.a.shape[-3:])
    step = max(1, _EXPM_BLOCK_BYTES // (128 * max(m.rows, 1) ** 2))
    out = np.empty_like(rows)
    for start in range(0, len(rows), step):
        out[start:start + step] = _expm(_wrap(rows[start:start + step])).a
    return _wrap(out.reshape(m.a.shape))


def _expm(m: QuatMatrix) -> QuatMatrix:
    """:func:`expm` of a batch of square matrices, in one block."""
    n = m.rows
    norm1 = _norm1(m.embed())
    # np.maximum keeps a NaN norm: the worst count is NaN or inf on bad input
    squarings = np.ceil(np.log2(np.maximum(norm1, 0.5) / 0.5))
    count = squarings.max(initial=0.0)
    if not count < np.inf:
        raise NonFiniteMatrix("exponential of a NaN or infinite entry")
    # most squarings first, so that the matrices a squaring step still
    # needs are a prefix of the batch
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order].astype(int)
    scaled = _wrap(m.a[order]) * np.ldexp(1.0, -squarings)   # powers of two
    result = QuatMatrix.identity(n)
    term = QuatMatrix.identity(n)
    for k in range(1, 19):
        term = (term @ scaled) * (1.0 / k)
        result = result + term
    for done in range(int(count)):
        part = _wrap(result.a[:np.count_nonzero(squarings > done)])
        part.a[...] = (part @ part).a
    return _wrap(result.a[np.argsort(order)])


def _hermitian_embedding(p: QuatMatrix, what: str, not_hermitian: str):
    """The complex embedding of ``p`` averaged with its adjoint, once ``p``
    is square and :meth:`QuatMatrix.is_hermitian`."""
    if not p.is_square():
        raise NonSquare(f"{what} of a non-square matrix")
    if not p.is_hermitian():
        raise NotHyperHermitian(not_hermitian)
    emb = p._embed()       # is_hermitian refuses a NaN or infinite entry
    return (emb + emb.conj().swapaxes(-1, -2)) / 2.0


def eigvals_hyperhermitian(p: QuatMatrix) -> np.ndarray:
    """Real eigenvalues of a hyper-Hermitian matrix, ascending, ``(..., n)``.

    The 2n complex-embedding eigenvalues come in equal pairs; each pair is
    collapsed to a single quaternionic eigenvalue.
    """
    emb = _hermitian_embedding(
        p, "eigenvalues", "matrix is not equal to its conjugate transpose")
    lam = np.linalg.eigvalsh(emb)
    even, odd = lam[..., 0::2], lam[..., 1::2]
    gap = np.abs(even - odd)
    scale = np.maximum(1.0, np.abs(even))
    if np.any(gap > config.PAIRING_REL * scale):
        raise PairingFailure(
            f"embedding spectrum does not pair: max gap {gap.max():.3e}")
    return (even + odd) / 2.0


def func_hermitian(p: QuatMatrix, kind: str) -> QuatMatrix:
    """Apply a scalar function to a hyper-Hermitian matrix spectrally.

    ``kind`` is one of ``sqrt``, ``invsqrt``, ``sinc_sqrt``; the last reads
    an eigenvalue t = s^2 as a squared argument and gives sin(s)/s (1 at
    t = 0, sinh(s)/s at t = -s^2, such as a zero eigenvalue's rounding), so
    ``sinc_sqrt(xi xi*) @ xi`` in :func:`qflag.coset.grassmann_from_coset`
    stays finite for rank-deficient arguments.
    """
    emb = _hermitian_embedding(
        p, "matrix function", "matrix function requires a hyper-Hermitian input")
    lam, vec = np.linalg.eigh(emb)
    if kind == "sqrt":
        vals = np.sqrt(np.maximum(lam, 0.0))
    elif kind == "invsqrt":
        if np.any(lam <= config.IDENTITY):
            raise SingularInvSqrt(f"minimum eigenvalue {lam.min():.3e}")
        vals = 1.0 / np.sqrt(lam)
    elif kind == "sinc_sqrt":
        # + 0j: a negative eigenvalue -s^2 takes the root i s, not NaN
        vals = np.sinc(np.sqrt(lam + 0j) / np.pi).real
    else:
        raise ValueError(f"unknown scalar function tag {kind!r}")
    return _from_spectrum(vals, vec)


def _func_skew_adjoint(g: QuatMatrix, f) -> QuatMatrix:
    """f(iG) for a skew-adjoint G, from one ``eigh`` of the Hermitian iG: as
    well conditioned as G; ``conj(f(-t)) = f(t)`` keeps it quaternionic."""
    require_skew_adjoint(g)     # is_skew_adjoint refuses a NaN or inf entry
    lam, vec = np.linalg.eigh(1j * g._embed())
    return _from_spectrum(f(lam), vec)


def _from_spectrum(vals: np.ndarray, vec: np.ndarray) -> QuatMatrix:
    """V diag(vals) V*, read back through :meth:`QuatMatrix.project`."""
    return QuatMatrix.project(
        (vec * vals[..., None, :]) @ vec.conj().swapaxes(-1, -2))


class GroupElement:
    """Member of the unitary quaternion group: square with g* g = 1.

    ``m`` may be a batch; the membership check then covers every matrix.
    """

    __slots__ = ("m",)

    def __init__(self, m: QuatMatrix, check: bool = True):
        if check:
            if not m.is_square():
                raise NotGroupElement("group elements are square matrices")
            res = (m.adjoint() @ m - QuatMatrix.identity(m.rows)).max_abs()
            if not res <= config.IDENTITY:
                raise NotGroupElement(f"unitarity residual {res:.3e}")
        self.m = m

    @property
    def n(self) -> int:
        return self.m.rows

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.m @ other.m, check=False)

    def blocks(self, j: int, k: int):
        """Conforming partition into (A, B, C, D) with A of size j x j.

        Library code calls ``self.m.blocks``; this forwarder stays only
        because ``bench/workloads.py`` partitions group elements with it."""
        return self.m.blocks(j, k)

    def __repr__(self) -> str:
        return f"GroupElement(n={self.n})"


def require_skew_adjoint(m: QuatMatrix) -> QuatMatrix:
    if not m.is_skew_adjoint():
        raise NotSkewAdjoint("generator must satisfy g* = -g")
    return m


def interleave_to_block_permutation(n: int) -> np.ndarray:
    """Permutation matrix sending index 2i+s to s*n+i.

    Conjugation by it carries the block-diagonal almost complex structure
    1_n (x) j into the symplectic form j (x) 1_n.
    """
    return np.eye(2 * n)[[2 * i + s for s in range(2) for i in range(n)]]


def to_sp2nc(g: GroupElement) -> np.ndarray:
    """Complex 2n x 2n form of a group element.

    The result G satisfies both G' J G = J for J = j (x) 1_n and G* G = 1,
    i.e. it is simultaneously complex symplectic and unitary.
    """
    perm = interleave_to_block_permutation(g.n)
    return perm @ g.m.embed() @ perm.T


def sp2nc_form(n: int) -> np.ndarray:
    """The symplectic form j (x) 1_n preserved by :func:`to_sp2nc`."""
    return np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(n))


# -- random draws -------------------------------------------------------------

def random_quatmat(rng: np.random.Generator, rows: int, cols: int,
                   scale: float = 1.0) -> QuatMatrix:
    return QuatMatrix(rng.normal(0.0, scale, (rows, cols, 4)))


def random_skew_adjoint(rng: np.random.Generator, n: int,
                        scale: float = 1.0) -> QuatMatrix:
    m = random_quatmat(rng, n, n, scale)
    return (m - m.adjoint()) * 0.5


def random_group_element(rng: np.random.Generator, n: int) -> GroupElement:
    """``expm`` of :func:`random_skew_adjoint` at scale 0.7: a group element
    near the identity, not a Haar draw (at n = 2, ``E Tr g`` in the complex
    2n-dim representation reads about 0.62, against 0 for Haar)."""
    return GroupElement(expm(random_skew_adjoint(rng, n, 0.7)))
