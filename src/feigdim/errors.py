"""Exception taxonomy for the toolkit.

Every error raised on a contract violation or numerical breakdown derives
from FeigdimError, so callers can catch the whole family at once. The
classes are grouped by the layer that raises them, and each is raised
somewhere in the package.
"""


class FeigdimError(Exception):
    """Base class for all toolkit errors."""


# --- fixed-point solver ---

class UnsupportedCombinatorics(FeigdimError):
    """Combinatorics other than period doubling (p=2, reversing)."""


class NoConvergence(FeigdimError):
    """An iteration (fixed-point Newton or brentq) did not converge; carries
    the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateJacobian(FeigdimError):
    """Newton system singular beyond the conditioning threshold."""


class SchemaMismatch(FeigdimError):
    """Cache file has an unknown or incompatible schema tag."""


class CorruptFile(FeigdimError):
    """Cache file unreadable or fails revalidation."""


class DomainError(FeigdimError):
    """Argument outside the documented domain of an evaluator."""


# --- derived dynamics ---

class NoCriticalPoint(FeigdimError):
    """E has no sign change on (0,1); upstream data is corrupt."""


class OrbitEscaped(FeigdimError):
    """Critical orbit drifted out of [0,1] beyond the slack."""


class InvariantViolation(FeigdimError):
    """A build-time invariant check failed."""


# --- presentation system ---

class BranchNotMonotone(FeigdimError):
    """Sampled derivative of an inverse-branch lap changes sign."""


class IndexOutOfAlphabet(FeigdimError):
    """Letter k outside 1..Kmax, or a truncation K beyond Kmax."""


class NoContraction(FeigdimError):
    """No certified contraction factor < 1 after enlarging J."""


class RatioNotContracting(FeigdimError):
    """Tail levels not yet in the geometric regime."""


# --- dimension engine ---

class PowerIterationStall(FeigdimError):
    """Power iteration failed to reach the requested tolerance."""


class RootNotBracketed(FeigdimError):
    """A root finder's bracket has no sign change (brentq's ends, the
    pressure's probe grid, a bracket bound's or Moran sum's scan)."""


class TailTooFat(FeigdimError):
    """Alphabet escalation exhausted before the tail bound target."""


class EigenvectorSignFailure(FeigdimError):
    """Leading eigenvector not positive; numerical breakdown."""


# --- parabolic diagnostics ---

class LambdaDegenerate(FeigdimError):
    """Multiplier within 1e-12 of 1; treat as parabolic."""
