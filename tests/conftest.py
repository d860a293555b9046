import numpy as np

from qflag.quatmat import QuatMatrix

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
