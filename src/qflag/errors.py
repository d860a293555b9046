"""Exception types raised across the library."""


class QflagError(Exception):
    """Base class for all library-specific errors."""


# -- quaternion / matrix algebra ------------------------------------------

class MalformedM2C(QflagError):
    """2x2 complex matrix does not carry the quaternionic block structure."""


class DimensionMismatch(QflagError):
    """Operands have incompatible matrix dimensions."""


class ShapeMismatch(DimensionMismatch):
    """Point and tangent (or similar pair) differ in shape."""


class NonSquare(QflagError):
    """Operation requires a square matrix."""


class NotHyperHermitian(QflagError):
    """Matrix is not equal to its conjugate transpose within tolerance."""


class PairingFailure(QflagError):
    """Complex-embedding spectrum does not pair up into doubled eigenvalues."""


class SingularInvSqrt(QflagError):
    """Inverse square root requested for a matrix with (near-)zero eigenvalues."""


class NotGroupElement(QflagError):
    """Matrix fails the unitarity test g* g = 1."""


class NotSkewAdjoint(QflagError):
    """Matrix fails the Lie-algebra condition g* = -g."""


class NotUnitQuaternion(QflagError):
    """Quaternion does not have unit norm."""


class SingularMatrix(QflagError):
    """Matrix is singular, or too ill-conditioned to invert."""


class NonFiniteMatrix(QflagError):
    """Matrix has a NaN or infinite entry where a finite one is required."""


# -- coset geometry --------------------------------------------------------

class SingularDenominator(SingularMatrix):
    """Linear fractional transformation maps the point to infinity."""


class DegenerateQuadruple(SingularMatrix):
    """Cross-ratio requested for points with a singular inverted difference."""


class DependentDirections(QflagError):
    """Tangent directions are linearly dependent."""


# -- symbolic operator engine ----------------------------------------------

class IndexOutOfRange(QflagError):
    """Generator index outside the range fixed by the partition dimensions."""


class SecondOrderResidue(QflagError):
    """Commutator of first-order operators failed to reduce to first order."""


class NotEigenvector(QflagError):
    """Ladder check requires an exact eigen-monomial of the Cartan element."""


# -- sphere geometry / radial solutions -------------------------------------

class ChartBoundary(QflagError):
    """Coordinates sit on (or outside) the boundary of the chart."""


class TooCloseToPole(QflagError):
    """Radial ODE evaluated inside the pole exclusion zone."""


class TerminationViolated(QflagError):
    """(l, N) pair violates the polynomial termination condition."""


class CoefficientOverflow(QflagError):
    """A radial-solution coefficient exceeds the floating-point range."""


# -- root systems ------------------------------------------------------------

class InvalidRank(QflagError):
    """Rank must be a positive integer."""


class UnsupportedWeightCount(QflagError):
    """Label scheme covers one, two, or three weight terms only."""


class OddDimension(QflagError):
    """Euler characteristic formula applies to even-dimensional spheres."""


# -- dynamics ----------------------------------------------------------------

class PartitionMismatch(QflagError):
    """Generator blocks do not conform with the state-vector partition."""


# -- verification / CLI -------------------------------------------------------

class UsageError(QflagError):
    """Command-line input is malformed or names nothing that exists."""


class UnknownSuite(UsageError):
    """Requested verification suite does not exist."""


class UnknownTolerance(UsageError):
    """A tolerance override names no check of the suites being run."""
