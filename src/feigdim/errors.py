"""Exception taxonomy for the toolkit.

Every error raised on a contract violation or numerical breakdown derives
from FeigdimError, so callers can catch the whole family at once.
"""


class FeigdimError(Exception):
    """Base class for all toolkit errors."""


# --- fixed-point solver ---

class UnsupportedCombinatorics(FeigdimError):
    """Combinatorics other than period doubling (p=2, reversing)."""


class NoConvergence(FeigdimError):
    """Newton iteration stalled; carries the last residual."""

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


class OutOfNeighborhood(FeigdimError):
    """Point outside the symmetric neighborhood of the involution."""


class InvariantViolation(FeigdimError):
    """A build-time invariant check failed."""


# --- presentation system ---

class BranchNotMonotone(FeigdimError):
    """Sampled derivative of an inverse-branch lap changes sign."""


class OrbitIndexOverflow(FeigdimError):
    """Requested critical-orbit index exceeds the orbit budget."""


class IndexOutOfAlphabet(FeigdimError):
    """Letter (k, m) outside the stored alphabet."""


class NoContraction(FeigdimError):
    """No certified contraction factor < 1 after enlarging J."""


class RatioNotContracting(FeigdimError):
    """Tail levels not yet in the geometric regime."""


# --- dimension engine ---

class PowerIterationStall(FeigdimError):
    """Power iteration failed to reach the requested tolerance."""


class RootNotBracketed(FeigdimError):
    """Pressure does not change sign on the probe interval."""


class TailTooFat(FeigdimError):
    """Alphabet escalation exhausted before the tail bound target."""


class EigenvectorSignFailure(FeigdimError):
    """Leading eigenvector not positive; numerical breakdown."""


# --- parabolic diagnostics ---

class LambdaDegenerate(FeigdimError):
    """Multiplier within 1e-12 of 1; treat as parabolic."""


class BranchCutCrossed(FeigdimError):
    """Parabolic-coordinate trajectory left the right half-plane."""
