"""Exception types shared across the package, and the checks that raise one."""

import numbers

import numpy as np


class SpatialCoxError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(SpatialCoxError, ValueError):
    """Parameter lies outside the admissible set of the active family."""


class InsufficientResolutionError(SpatialCoxError, ValueError):
    """Sample grid too coarse for the requested operation."""


class ResolutionError(SpatialCoxError, ValueError):
    """A covariance sweep beyond its cell cap, or a mode with no causal orientation in floats."""


class SingularSpectrumError(SpatialCoxError, ArithmeticError):
    """Spectral density vanishes (or its log is non-integrable) on the grid."""


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


def check_int(value, name: str, minimum: int) -> int:
    """The package's one rule for counts, sizes, lag bounds, indices and seeds: ``value``
    as an int, if it is a real number with an integral value >= ``minimum`` (numpy ints
    and 2.0 pass); 2.5, NaN, inf and non-numbers raise :class:`ParameterDomainError`."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()) or value < minimum:
        raise ParameterDomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_dims(pair, name: str, minimum: int) -> tuple[int, int]:
    """``pair`` as two ints, if it holds exactly two values :func:`check_int` accepts."""
    if np.shape(pair) != (2,):
        raise ParameterDomainError(f"{name} must be two integers >= {minimum}, got {pair!r}")
    return check_int(pair[0], f"{name}[0]", minimum), check_int(pair[1], f"{name}[1]", minimum)


def check_finite(arr: np.ndarray, error: type, message: str) -> None:
    """The package's one finiteness rule: ``error(message)`` unless every entry of ``arr``
    is finite, by one ``min`` and one ``max`` (NaN propagates) and no mask.  A complex
    array is tested on ``.real`` and ``.imag`` apart: numpy orders complex values
    lexicographically, so [1+inf j, 2, 0.5] has min 0.5 and max 2."""
    for part in (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,):
        if part.size and not (np.isfinite(part.min()) and np.isfinite(part.max())):
            raise error(message)
