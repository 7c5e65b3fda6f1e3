"""Exception types shared across the package."""


class SpatialCoxError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(SpatialCoxError, ValueError):
    """Parameter lies outside the admissible set of the active family."""


class InsufficientResolutionError(SpatialCoxError, ValueError):
    """Sample grid too coarse for the requested operation."""


class ResolutionError(SpatialCoxError, ValueError):
    """Frequency grid too coarse for the requested lag (Nyquist check)."""


class SingularSpectrumError(SpatialCoxError, ArithmeticError):
    """Spectral density vanishes (or its log is non-integrable) on the grid."""

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class StationarityError(SpatialCoxError, ValueError):
    """Autoregressive parameters admit no stationary causal solution."""

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode


class InvalidCovarianceError(SpatialCoxError, ValueError):
    """Covariance input violates positivity requirements."""


class LagUnavailableError(SpatialCoxError, KeyError):
    """A required covariance lag is missing from the supplied map."""


class BoundaryError(SpatialCoxError, IndexError):
    """Lattice rectangle reaches outside the lattice of the field."""


class OverflowGuardError(SpatialCoxError, OverflowError):
    """Exponent exceeds the saturation threshold (default 700)."""

    def __init__(self, message, max_exponent=None):
        super().__init__(message)
        self.max_exponent = max_exponent


class AmbiguousInterpolationError(SpatialCoxError, ValueError):
    """Target node coincides with several sources carrying distinct values."""


class FileFormatError(SpatialCoxError, ValueError):
    """Stored file is truncated, has an inconsistent header, or misses or repeats rows."""


class RankDeficiencyError(SpatialCoxError, ValueError):
    """Least-squares design matrix is rank deficient."""


class DivisionGuardError(SpatialCoxError, ZeroDivisionError):
    """Denominator curve vanishes on the evaluation grid."""


class PipelineStageError(SpatialCoxError, RuntimeError):
    """A pipeline stage failed; carries the stage tag."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
