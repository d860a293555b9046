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

:meth:`QuatMatrix.inv` is the one inverse: it solves the embedding E against
the identity, projects back, and raises (by default :class:`SingularMatrix`)
unless ``||E||_1 ||E^-1||_1 <= config.COND_LIMIT``, a test that also refuses
an exactly singular matrix and any NaN entry.

Every check keeps its meaning per matrix of a batch: tolerances are relative
to each matrix's own scale, and a batch raises the error that a loop over
its matrices would raise if any one of them fails.
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import (DimensionMismatch, MalformedM2C, NonFiniteMatrix,
                     NonSquare, NotGroupElement, NotHyperHermitian,
                     NotSkewAdjoint, PairingFailure, SingularInvSqrt,
                     SingularMatrix)
from .quaternion import MUL_TABLE, Quaternion

# _RIGHT_TABLE[q, 4 p + r] = MUL_TABLE[p, q, r]: one entry's components times
# it give the 4x4 real matrix of right multiplication by that entry.
_RIGHT_TABLE = MUL_TABLE.transpose(1, 0, 2).reshape(4, 16)

# the axes of one quaternion matrix inside a batch
_ENTRY_AXES = (-3, -2, -1)


class QuatMatrix:
    """Dense matrix of quaternions, or a batch of them, with value semantics."""

    __slots__ = ("a",)

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim < 3 or a.shape[-1] != 4:
            raise DimensionMismatch(
                f"expected shape (..., rows, cols, 4), got {a.shape}")
        self.a = a

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuatMatrix":
        return cls(np.zeros((rows, cols, 4)))

    @classmethod
    def identity(cls, n: int) -> "QuatMatrix":
        a = np.zeros((n, n, 4))
        a[np.arange(n), np.arange(n), 0] = 1.0
        return cls(a)

    @classmethod
    def from_quaternions(cls, rows) -> "QuatMatrix":
        """Build from a nested list of :class:`Quaternion`."""
        data = [[q.to_array() for q in row] for row in rows]
        return cls(np.array(data))

    @classmethod
    def from_real(cls, m) -> "QuatMatrix":
        """Real matrix into the e-component."""
        m = np.asarray(m, dtype=float)
        a = np.zeros(m.shape + (4,))
        a[..., 0] = m
        return cls(a)

    @classmethod
    def diag(cls, entries) -> "QuatMatrix":
        n = len(entries)
        a = np.zeros((n, n, 4))
        for i, q in enumerate(entries):
            a[i, i] = q.to_array()
        return cls(a)

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

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_array(self.a[i, j])

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "QuatMatrix") -> "QuatMatrix":
        return QuatMatrix(self.a + other.a)

    def __sub__(self, other: "QuatMatrix") -> "QuatMatrix":
        return QuatMatrix(self.a - other.a)

    def __neg__(self) -> "QuatMatrix":
        return QuatMatrix(-self.a)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return QuatMatrix(self.a * float(s))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "QuatMatrix") -> "QuatMatrix":
        a, b = self.a, other.a
        rows, inner = a.shape[-3:-1]
        cols = b.shape[-2]
        if b.shape[-3] != inner:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        lead = b.shape[:-3]
        # right[..., l, p, j, r] = sum_q b[..., l, j, q] MUL_TABLE[p, q, r]
        right = (b.reshape(-1, 4) @ _RIGHT_TABLE).reshape(
            lead + (inner, cols, 4, 4)).swapaxes(-3, -2).reshape(
            lead + (4 * inner, 4 * cols))
        prod = a.reshape(a.shape[:-3] + (rows, 4 * inner)) @ right
        return QuatMatrix(prod.reshape(prod.shape[:-1] + (cols, 4)))

    def adjoint(self) -> "QuatMatrix":
        """Conjugate transpose."""
        out = self.a.swapaxes(-3, -2).copy()
        out[..., 1:] *= -1.0
        return QuatMatrix(out)

    def blocks(self, j: int, k: int):
        """Conforming partition into (A, B, C, D) with A of size j x j."""
        if self.shape != (j + k, j + k):
            raise DimensionMismatch(f"partition {j}+{k} does not fit {self.shape}")
        a = self.a
        return (QuatMatrix(a[..., :j, :j, :]), QuatMatrix(a[..., :j, j:, :]),
                QuatMatrix(a[..., j:, :j, :]), QuatMatrix(a[..., j:, j:, :]))

    def trace(self):
        """A :class:`Quaternion`; for a batch, a ``(..., 4)`` array."""
        if not self.is_square():
            raise NonSquare("trace of a non-square matrix")
        t = self.a.diagonal(0, -3, -2).sum(axis=-1)
        return Quaternion.from_array(t) if t.ndim == 1 else t

    def max_abs(self) -> float:
        """Largest magnitude over all real components of the whole batch."""
        return float(np.abs(self.a).max()) if self.a.size else 0.0

    def allclose(self, other: "QuatMatrix", tol: float = 1e-12) -> bool:
        return (self - other).max_abs() <= tol

    # -- complex embedding --------------------------------------------------------

    def embed(self) -> np.ndarray:
        """(..., 2 rows, 2 cols) complex matrix with one 2x2 block per entry."""
        a = self.a
        w, x, y, z = (a[..., c] for c in range(4))
        blocks = np.empty(a.shape[:-1] + (2, 2), dtype=complex)
        blocks[..., 0, 0] = w + 1j * z
        blocks[..., 0, 1] = x + 1j * y
        blocks[..., 1, 0] = -x + 1j * y
        blocks[..., 1, 1] = w - 1j * z
        return blocks.swapaxes(-3, -2).reshape(
            a.shape[:-3] + (2 * self.rows, 2 * self.cols))

    @classmethod
    def project(cls, emb) -> "QuatMatrix":
        """Back from a complex embedding, checking the block structure.

        The residual against the quaternionic structure (m22 = conj(m11),
        m21 = -conj(m12) per block) must stay below ``config.STRUCTURE``
        relative to the scale of each matrix; a NaN or infinite entry fails.
        """
        emb = np.asarray(emb, dtype=complex)
        if emb.ndim < 2 or emb.shape[-2] % 2 or emb.shape[-1] % 2:
            raise MalformedM2C("embedding dimensions must be even")
        lead, (r2, c2) = emb.shape[:-2], emb.shape[-2:]
        blocks = emb.reshape(lead + (r2 // 2, 2, c2 // 2, 2)).swapaxes(-3, -2)
        m11, m12 = blocks[..., 0, 0], blocks[..., 0, 1]
        m21, m22 = blocks[..., 1, 0], blocks[..., 1, 1]
        d22 = np.abs(m22 - m11.conj())
        d21 = np.abs(m21 + m12.conj())
        # every scale is at least 1, so a worst residual within the bare
        # tolerance passes without the per-matrix scales (NaN fails both)
        if not (d22.max(initial=0.0) <= config.STRUCTURE
                and d21.max(initial=0.0) <= config.STRUCTURE):
            axes = (-2, -1)
            res = np.maximum(d22.max(axis=axes, initial=0.0),
                             d21.max(axis=axes, initial=0.0))
            scale = np.maximum(1.0, np.abs(emb).max(axis=axes, initial=0.0))
            bad = ~(np.isfinite(res) & (res <= config.STRUCTURE * scale))
            if bad.any():
                raise MalformedM2C(f"structure residual {res[bad].max():.3e} "
                                   f"exceeds {config.STRUCTURE:.1e} * scale")
        a = np.empty(lead + (r2 // 2, c2 // 2, 4))
        a[..., 0] = (m11.real + m22.real) / 2.0
        a[..., 1] = (m12.real - m21.real) / 2.0
        a[..., 2] = (m12.imag + m21.imag) / 2.0
        a[..., 3] = (m11.imag - m22.imag) / 2.0
        return cls(a)

    def inv(self, err: Exception = None) -> "QuatMatrix":
        """Inverse via the complex embedding; raises ``err`` (default
        :class:`SingularMatrix`) when any matrix is past the condition
        ceiling."""
        if not self.is_square():
            raise NonSquare("inverse of a non-square matrix")
        emb = self.embed()
        try:
            sol = np.linalg.solve(emb, np.eye(2 * self.rows, dtype=complex))
            cond = _norm1(emb) * _norm1(sol)
        except np.linalg.LinAlgError:
            cond = np.float64(np.inf)
        # the worst matrix decides (a NaN is the worst); a single matrix
        # skips the reduction, which costs more than the test itself
        worst = cond.max(initial=0.0) if cond.ndim else cond
        if not worst <= config.COND_LIMIT:
            raise err if err is not None else SingularMatrix(
                f"1-norm condition number {worst:.3e} > "
                f"{config.COND_LIMIT:.0e}")
        return QuatMatrix.project(sol)

    # -- structure predicates ----------------------------------------------------------
    # Each is True when every matrix of the batch has the property.

    def is_hermitian(self, tol: float = None) -> bool:
        return _within_scale(self - self.adjoint(), self, tol)

    def is_skew_adjoint(self, tol: float = None) -> bool:
        return _within_scale(self + self.adjoint(), self, tol)

    def is_unitary(self, tol: float = None) -> bool:
        tol = config.IDENTITY if tol is None else tol
        delta = self.adjoint() @ self - QuatMatrix.identity(self.rows)
        return delta.max_abs() <= tol

    def __repr__(self) -> str:
        batch = f"batch={self.batch}, " if self.batch else ""
        return f"QuatMatrix({batch}shape={self.shape})"


def _within_scale(delta: QuatMatrix, ref: QuatMatrix, tol) -> bool:
    """Every |delta| <= tol * max(1, |ref|), matrix by matrix."""
    tol = config.IDENTITY if tol is None else tol
    res = np.abs(delta.a)
    # every scale is at least 1: a worst residual within the bare tolerance
    # passes without the per-matrix scales
    if res.max(initial=0.0) <= tol:
        return True
    res = res.max(axis=_ENTRY_AXES, initial=0.0)
    scale = np.maximum(1.0, np.abs(ref.a).max(axis=_ENTRY_AXES, initial=0.0))
    return bool((res <= tol * scale).all())


def _norm1(m: np.ndarray):
    """1-norm of each complex matrix of a batch."""
    return np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0)


def block_matrix(blocks) -> QuatMatrix:
    """Assemble from a 2d grid of conforming QuatMatrix blocks.

    Blocks of different batch shapes are broadcast to a common one.
    """
    arrays = [[b.a for b in row] for row in blocks]
    batches = {a.shape[:-3] for row in arrays for a in row}
    if len(batches) > 1:
        batch = np.broadcast_shapes(*batches)
        arrays = [[np.broadcast_to(a, batch + a.shape[-3:]) for a in row]
                  for row in arrays]
    rows = [np.concatenate(row, axis=-2) for row in arrays]
    return QuatMatrix(np.concatenate(rows, axis=-3))


def expm(m: QuatMatrix) -> QuatMatrix:
    """Matrix exponential by scaling and squaring.

    Each matrix is halved until the 1-norm of its complex embedding drops
    below 0.5, the power series truncated after order 18 is summed with
    quaternion products, and the result is squared back up; in a batch only
    the matrices that were halved more often are squared more often.  A NaN
    or infinite entry raises :class:`NonFiniteMatrix`.
    """
    if not m.is_square():
        raise NonSquare("exponential of a non-square matrix")
    n = m.rows
    norm1 = (np.linalg.norm(m.embed(), 1, axis=(-2, -1)) if n
             else np.zeros(m.batch))
    # np.maximum keeps a NaN norm: the worst count is NaN or inf on bad input
    squarings = np.ceil(np.log2(np.maximum(norm1, 0.5) / 0.5))
    count = squarings.max(initial=0.0)
    if not count < np.inf:
        raise NonFiniteMatrix("exponential of a NaN or infinite entry")
    squarings = squarings.astype(int)
    scale = np.ldexp(1.0, -squarings)        # exact powers of two
    scaled = QuatMatrix(m.a * scale[..., None, None, None])
    result = QuatMatrix.identity(n)
    term = QuatMatrix.identity(n)
    for k in range(1, 19):
        term = (term @ scaled) * (1.0 / k)
        result = result + term
    for done in range(int(count)):
        need = squarings > done
        if need.all():
            result = result @ result
        else:
            part = QuatMatrix(result.a[need])
            result.a[need] = (part @ part).a
    return result


def eigvals_hyperhermitian(p: QuatMatrix) -> np.ndarray:
    """Real eigenvalues of a hyper-Hermitian matrix, ascending, ``(..., n)``.

    The 2n complex-embedding eigenvalues come in equal pairs; each pair is
    collapsed to a single quaternionic eigenvalue.
    """
    if not p.is_square():
        raise NonSquare("eigenvalues of a non-square matrix")
    if not p.is_hermitian(config.IDENTITY * 10):
        raise NotHyperHermitian("matrix is not equal to its conjugate transpose")
    emb = p.embed()
    emb = (emb + emb.conj().swapaxes(-1, -2)) / 2.0
    lam = np.linalg.eigvalsh(emb)
    even, odd = lam[..., 0::2], lam[..., 1::2]
    gap = np.abs(even - odd)
    scale = np.maximum(1.0, np.abs(even))
    if np.any(gap > config.PAIRING_REL * scale):
        raise PairingFailure(
            f"embedding spectrum does not pair: max gap {gap.max():.3e}")
    return (even + odd) / 2.0


_SMALL = 1e-8


def _sinc_sqrt(lam: np.ndarray) -> np.ndarray:
    """sin(sqrt(t))/sqrt(t), extended as an entire function of t."""
    out = np.empty_like(lam)
    tiny = np.abs(lam) < _SMALL
    out[tiny] = 1.0 - lam[tiny] / 6.0 + lam[tiny] ** 2 / 120.0
    pos = (~tiny) & (lam > 0)
    neg = (~tiny) & (lam < 0)
    out[pos] = np.sin(np.sqrt(lam[pos])) / np.sqrt(lam[pos])
    out[neg] = np.sinh(np.sqrt(-lam[neg])) / np.sqrt(-lam[neg])
    return out


def _cos_sqrt(lam: np.ndarray) -> np.ndarray:
    """cos(sqrt(t)) as an entire function of t."""
    out = np.empty_like(lam)
    pos = lam >= 0
    out[pos] = np.cos(np.sqrt(lam[pos]))
    out[~pos] = np.cosh(np.sqrt(-lam[~pos]))
    return out


def func_hermitian(p: QuatMatrix, kind: str) -> QuatMatrix:
    """Apply a scalar function to a hyper-Hermitian matrix spectrally.

    ``kind`` is one of ``sqrt``, ``invsqrt``, ``cos_sqrt``, ``sin_sqrt``,
    ``sinc_sqrt``; the last three treat the eigenvalue as a squared argument
    (cos_sqrt of P gives cos of the operator square root of P) and are the
    pieces needed for the exponential coset parameterisation, where
    ``sinc_sqrt(x xi*) @ xi`` stays finite for rank-deficient arguments.
    """
    if not p.is_square():
        raise NonSquare("matrix function of a non-square matrix")
    if not p.is_hermitian(config.IDENTITY * 10):
        raise NotHyperHermitian("matrix function requires a hyper-Hermitian input")
    emb = p.embed()
    emb = (emb + emb.conj().swapaxes(-1, -2)) / 2.0
    lam, vec = np.linalg.eigh(emb)
    if kind == "sqrt":
        vals = np.sqrt(np.maximum(lam, 0.0))
    elif kind == "invsqrt":
        if np.any(lam <= config.IDENTITY):
            raise SingularInvSqrt(f"minimum eigenvalue {lam.min():.3e}")
        vals = 1.0 / np.sqrt(lam)
    elif kind == "cos_sqrt":
        vals = _cos_sqrt(lam)
    elif kind == "sin_sqrt":
        vals = np.sin(np.sqrt(np.maximum(lam, 0.0)))
    elif kind == "sinc_sqrt":
        vals = _sinc_sqrt(lam)
    else:
        raise ValueError(f"unknown scalar function tag {kind!r}")
    out = (vec * vals[..., None, :]) @ vec.conj().swapaxes(-1, -2)
    return QuatMatrix.project(out)


class GroupElement:
    """Member of the unitary quaternion group: square with g* g = 1.

    ``m`` may be a batch; the membership check then covers every matrix.
    """

    __slots__ = ("m",)

    def __init__(self, m: QuatMatrix, tol: float = None, check: bool = True):
        if check:
            if not m.is_square():
                raise NotGroupElement("group elements are square matrices")
            if not m.is_unitary(tol):
                res = (m.adjoint() @ m - QuatMatrix.identity(m.rows)).max_abs()
                raise NotGroupElement(f"unitarity residual {res:.3e}")
        self.m = m

    @property
    def n(self) -> int:
        return self.m.rows

    def inverse(self) -> "GroupElement":
        return GroupElement(self.m.adjoint(), check=False)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.m @ other.m, check=False)

    def blocks(self, j: int, k: int):
        """Conforming partition into (A, B, C, D) with A of size j x j."""
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
    perm = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for s in range(2):
            perm[s * n + i, 2 * i + s] = 1.0
    return perm


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


def random_group_element(rng: np.random.Generator, n: int,
                         scale: float = 0.7) -> GroupElement:
    return GroupElement(expm(random_skew_adjoint(rng, n, scale)))
