import numpy as np
from hypothesis import settings

from qflag.coset import coset_generator
from qflag.liealg import DiffOperator
from qflag.quaternion import Quaternion
from qflag.quatmat import QuatMatrix, _func_skew_adjoint

# Every property test replays the same examples, with no deadline and no
# example database; a test sets only its own example count.
settings.register_profile("qflag", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("qflag")

_ACCEPTANCE_RESULTS = []


def quat_close(a, b, tol: float = 1e-12) -> bool:
    """Two quaternions within ``tol`` of each other in norm."""
    return (a - b).norm() <= tol


def mat_close(a, b, tol: float = 1e-12) -> bool:
    """Two quaternion matrices within ``tol`` in every real component."""
    return (a - b).max_abs() <= tol


def real_matrix(m) -> QuatMatrix:
    """A real matrix as the e-component of a quaternion matrix."""
    m = np.asarray(m, dtype=float)
    a = np.zeros(m.shape + (4,))
    a[..., 0] = m
    return QuatMatrix(a)


def derivative(row: int, col: int) -> DiffOperator:
    """The derivative d_{row col}: one single-symbol word with constant
    coefficient 1."""
    return DiffOperator({DiffOperator.key(word=((row, col),)): 1})


def from_tuples(cls, terms: dict):
    """A value of ``cls`` from {key: coefficient} with each key in tuple
    form, packed through the class's codec: (symbol, power) pairs for a
    polynomial, and a pair (such pairs, word of symbols) for an operator."""
    if cls is DiffOperator:
        return cls({cls.key(*key): c for key, c in terms.items()})
    return cls({cls.monomial(key): c for key, c in terms.items()})


def fresh_geometry(x: QuatMatrix, du: QuatMatrix, dv: QuatMatrix) -> dict:
    """The three metric forms at the point ``x`` on ``du`` and its curvature
    blocks on (du, dv), keyed by function name, each from Gram factors of
    its own, computed here anew: the diagonal blocks of (1 + G)^{-1} and of
    1 / hypot(1, iG) = (1 + G*G)^{-1/2} for G = coset_generator(x)."""
    j, k = x.shape
    gen, eye = coset_generator(x), QuatMatrix.identity(j + k)

    def diagonal_blocks(m):
        a, _, _, d = m.blocks(j, k)
        return a, d

    def inverses():
        return diagonal_blocks((eye + gen).inv())

    def inverse_roots():
        return diagonal_blocks(
            _func_skew_adjoint(gen, lambda t: 1.0 / np.hypot(1.0, t)))

    def scalar_trace(m):
        return m.a[..., 0].diagonal(0, -2, -1).sum(axis=-1)

    def curvature_blocks():
        astar, dmat = inverse_roots()
        w_u, w_v = astar @ du @ dmat, astar @ dv @ dmat
        s1_inv, s2_inv = inverses()
        return {"omega11": w_u @ w_v.adjoint() - w_v @ w_u.adjoint(),
                "omega22": w_u.adjoint() @ w_v - w_v.adjoint() @ w_u,
                "r11": (du @ s2_inv @ dv.adjoint() @ s1_inv
                        - dv @ s2_inv @ du.adjoint() @ s1_inv).trace(),
                "r22": (du.adjoint() @ s1_inv @ dv @ s2_inv
                        - dv.adjoint() @ s1_inv @ du @ s2_inv).trace()}

    left, right = inverses()
    astar, dmat = inverse_roots()
    w = astar @ du @ dmat
    hermitian = (w.a ** 2).reshape(w.batch + (-1,)).sum(axis=-1)
    return {
        "metric_form": scalar_trace(left @ du @ right @ du.adjoint()),
        "metric_form_expanded": scalar_trace(
            left @ du @ du.adjoint()
            - left @ du @ x.adjoint() @ left @ x @ du.adjoint()),
        "metric_form_hermitian": hermitian,
        "curvature_blocks": curvature_blocks(),
    }


def same_bits(got, want) -> bool:
    """Equal type and bit-equal values, through dicts, lists and tuples of
    results."""
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same_bits(got[k], want[k])
                                                  for k in want)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(same_bits, got, want))
    if isinstance(want, QuatMatrix):
        return np.array_equal(got.a, want.a)
    if isinstance(want, Quaternion):
        return np.array_equal(got.to_array(), want.to_array())
    return np.array_equal(got, want)


def record_criterion(number: int, title: str, passed: bool, detail: str = ""):
    _ACCEPTANCE_RESULTS.append((number, title, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{status}] {title}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
