"""Exception types raised on contract violations throughout the library."""


class PrivDistError(Exception):
    """Base class for all library errors."""


# -- construction of core values -------------------------------------------

class LengthMismatchError(PrivDistError):
    """A vector does not have the length required by its alphabet or peer."""


class NegativeWeightError(PrivDistError):
    """A weight vector contains a negative entry."""


class ZeroSumError(PrivDistError):
    """A weight vector sums to zero, so it cannot be normalized."""


class EmptyObservationsError(PrivDistError):
    """An operation requires at least one observed report."""


class ObservationOutsideDomainError(PrivDistError):
    """An observed value is not in the mechanism's output domain."""


class ElementOutsideAlphabetError(PrivDistError):
    """A value is not an element of the relevant alphabet."""


class AlphabetMismatchError(PrivDistError):
    """Two values that must share an alphabet do not."""


# -- mechanism construction -------------------------------------------------

class AlphabetTooSmallError(PrivDistError):
    """The mechanism requires a larger input alphabet."""


class NonPositiveEpsilonError(PrivDistError):
    """A privacy parameter that must be strictly positive is not."""


class EmptyRangeError(PrivDistError):
    """An integer range [r1, r2] with r1 >= r2 was requested."""


class GridMismatchError(PrivDistError):
    """Two planar grids are incompatible (cell width or lattice alignment)."""


class NonContiguousAlphabetError(PrivDistError):
    """A linear alphabet is not a contiguous integer range."""


class InvalidMetricError(PrivDistError):
    """A ground metric is not symmetric, non-negative, and zero on the diagonal."""


# -- estimation --------------------------------------------------------------

class ZeroSupportStartError(PrivDistError):
    """The IBU starting distribution does not have full support."""


class DeadColumnError(PrivDistError):
    """An observation has zero likelihood under every alphabet element."""


class SingularMechanismError(PrivDistError):
    """The mechanism matrix is singular or too ill-conditioned to invert."""


class NonSquareMechanismError(PrivDistError):
    """Matrix inversion requires a square mechanism."""


class AllNonPositiveError(PrivDistError):
    """Clipping negatives left no positive mass to normalize."""


class DegeneratePError(PrivDistError):
    """The per-bit keep probability equals 1/2, so debiasing is undefined."""


# -- analysis ----------------------------------------------------------------

class TooFewObservationsError(PrivDistError):
    """The bound requires at least as many reports as alphabet elements."""


class AlphaTooSmallError(PrivDistError):
    """The lower bound requires e^(-eps) > 1/2, i.e. eps < ln 2."""


# -- data loading -------------------------------------------------------------

class EmptyDatasetError(PrivDistError):
    """The loaded or generated dataset contains no usable rows."""


class TooManyMalformedRowsError(PrivDistError):
    """More than the tolerated fraction of rows failed to parse."""


class MalformedInputError(PrivDistError):
    """A mechanism or report file does not have the shape its format needs."""


class BBoxGridMismatchError(PrivDistError):
    """The bounding box extent is inconsistent with the planar grid."""


class InvalidSpecError(PrivDistError):
    """A synthetic-data specification is malformed."""


# -- harness -------------------------------------------------------------------

class IncompatibleEstimatorError(PrivDistError):
    """The requested estimator cannot be applied to this mechanism."""


class SolverNonConvergenceError(PrivDistError):
    """The transport solver failed to certify an optimal solution."""


class ConfigError(PrivDistError):
    """An experiment configuration is invalid."""


class FailureThresholdExceededError(PrivDistError):
    """Too many replications of an experiment failed."""
