"""Numerical tolerance policy.

Every identity implemented by the library is exact in real arithmetic; the
tolerances below state how much floating-point slack each class of check is
allowed.  Routines take an optional ``tol`` argument and fall back to the
module-level default, so a caller can tighten or loosen the whole library in
one place.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    #: algebraic identities evaluated directly (products, adjoints, traces)
    identity: float = 1e-10
    #: relative tolerance for matching doubled eigenvalue pairs
    pairing_rel: float = 1e-8
    #: quaternionic-structure residual allowed when projecting a complex
    #: embedding back to quaternion entries
    structure: float = 1e-9
    #: step for first-order central differences (tangent pushforwards)
    fd_step: float = 1e-6
    #: step and acceptance for doubly-differentiated quantities
    #: (Maurer-Cartan residuals, finite-difference curvature)
    second_diff_step: float = 1e-4
    #: condition-number ceiling before a denominator counts as singular
    cond_limit: float = 1e12

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()
