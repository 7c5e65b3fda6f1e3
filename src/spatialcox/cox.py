"""Moments and predictors of the counting process driven by the log-intensity field.

Conditional on a realized coefficient field, counts over a lattice
rectangle are Poisson with mean equal to the unit-cell sum of
exp(X_z(phi)); unconditionally (zero-mean Gaussian case) intensity, pair
correlation, product densities, and count moments are closed forms of the
covariance functional R_z(phi)(phi).  Spatial integrals over Borel sets
become unit-cell lattice sums throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BoundaryError, InvalidCovarianceError, LagUnavailableError,
                     OverflowGuardError, ParameterDomainError, check_dims, check_int)
from .field import CoeffField
from .spectral import cov_from_spectrum

EXP_GUARD = 700.0
_RECT_SLOTS, _RECT_LAGS = 4, 2**12  # the lag rectangles :func:`_lag_rect` keeps
# numpy's Poisson sampler refuses a mean above int64 max - 10 sqrt(int64 max), about 9.22e18
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Coefficients of the test function phi w.r.t. the orthonormalized basis."""

    coefficients: np.ndarray

    __test__ = False  # keep pytest from collecting the class

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ParameterDomainError("coefficients must be a finite 1-D vector")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)


@dataclass(frozen=True)
class BorelRect:
    """Inclusive lattice rectangle [a1, b1] x [a2, b2] of integer corners >= 0; cell area 1."""

    a1: int
    b1: int
    a2: int
    b2: int

    def __post_init__(self):
        for name in ("a1", "b1", "a2", "b2"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 0))
        if self.b1 < self.a1 or self.b2 < self.a2:
            raise ParameterDomainError("rectangle must be non-empty")

    @property
    def area(self) -> int:
        return (self.b1 - self.a1 + 1) * (self.b2 - self.a2 + 1)

    def check_within(self, dims) -> None:
        if self.b1 >= dims[0] or self.b2 >= dims[1]:
            raise BoundaryError(f"rectangle {self} outside lattice {dims}")


def _check_exponent(mx: float, what: str) -> None:
    # the one overflow rule of the moments: an exponent above EXP_GUARD raises
    if mx > EXP_GUARD:
        raise OverflowGuardError(f"{what} exponent {mx:.1f} exceeds {EXP_GUARD}",
                                 max_exponent=mx)


def _check_variance(cov0) -> None:
    if not 0 <= cov0 < np.inf:  # NaN fails too
        raise InvalidCovarianceError(f"R_0(phi)(phi) must be finite and nonnegative, got {cov0}")


def cox_intensity(cov0: float) -> float:
    """First-order intensity rho_phi = exp(R_0(phi)(phi) / 2); constant over sites.
    An exponent above ``EXP_GUARD`` raises :class:`OverflowGuardError`."""
    _check_variance(cov0)
    _check_exponent(0.5 * cov0, "intensity")
    return float(np.exp(0.5 * cov0))


def pair_correlation(covz: float) -> float:
    """Pair correlation g_phi = exp(R_{z_i - z_j}(phi)(phi)).  An exponent above
    ``EXP_GUARD`` raises :class:`OverflowGuardError`."""
    _check_exponent(covz, "pair-correlation")
    return float(np.exp(covz))


def _lag_rect(l1: int, l2: int):
    """The lags of the rectangle |z1| <= l1, |z2| <= l2, z1-major, centred, so reversing
    them maps z to -z: a read-only (K, 2) integer array and the tuple of their keys.  The
    last 4 rectangles of at most 2^12 lags are kept, about 80 bytes a lag, so at most
    about 1.3 MiB; a larger one is enumerated on every call."""
    small = (2 * l1 + 1) * (2 * l2 + 1) <= _RECT_LAGS
    return (_kept_rect if small else _kept_rect.__wrapped__)(l1, l2)


@lru_cache(maxsize=_RECT_SLOTS)
def _kept_rect(l1: int, l2: int):
    lags = np.mgrid[-l1:l1 + 1, -l2:l2 + 1].reshape(2, -1).T
    lags.setflags(write=False)
    return lags, tuple(itertools.product(range(-l1, l1 + 1), range(-l2, l2 + 1)))


def _lag_values(cov, lags) -> np.ndarray:
    # the values of a list of lags, read in its order, so the first missing lag is named
    try:
        r = np.fromiter(map(cov.__getitem__, lags), float, len(lags))
    except KeyError as exc:
        raise LagUnavailableError(f"covariance lag {exc.args[0]} not supplied") from None
    if not np.all(ok := np.isfinite(r)):  # one array test, naming the first bad lag
        raise InvalidCovarianceError(f"covariance at lag {lags[np.argmin(ok)]} is not finite")
    return r


def product_density_n(points, cov) -> float:
    """n-th order product density rho^n * exp(0.5 * sum_{i != j} R_{z_i - z_j}).

    ``points`` are lattice sites, pairs of integers >= 0.  ``cov`` maps integer
    lags (z1, z2) to R_z(phi)(phi) and must contain every pairwise lag (plus
    (0, 0)).  The i == j terms of the double sum are excluded, which makes the
    n = 1 case reduce to the intensity and the n = 2 case to the
    pair-correlation identity.  The density is exp of (n R_0 + sum) / 2, and
    an exponent above ``EXP_GUARD`` raises :class:`OverflowGuardError`.
    """
    pts = [check_dims(p, "every point", 0) for p in points]
    r0, *r = _lag_values(cov, [(0, 0)] + [(pa[0] - pb[0], pa[1] - pb[1]) for a, pa in
                                          enumerate(pts) for b, pb in enumerate(pts) if a != b])
    _check_variance(r0)
    expo = 0.5 * (len(pts) * r0 + sum(r))
    _check_exponent(expo, "product-density")
    return float(np.exp(expo))


def count_moments(rect: BorelRect, cov) -> tuple[float, float]:
    """Unconditional mean and variance of N(B) over a lattice rectangle.

    mean = rho_phi * |B|;
    var  = mean + exp(R_0) * sum_{z,y in B} expm1((R_{z-y} + R_{y-z}) / 2),
    exp(R_0) sum exp(...) + |B| rho_phi (1 - |B| rho_phi) without its cancellation,
    as the |B|^2 site pairs give (|B| rho_phi)^2 = exp(R_0) |B|^2; integrals are
    unit-cell sums.  The double sum runs over the distinct lags h in B - B, each
    weighted by its (n1 - |h1|)(n2 - |h2|) site pairs of the n1 x n2 rectangle.
    ``cov`` must contain every lag in B - B, with finite values.  A variance term
    exp(R_0 + (R_h + R_-h) / 2) whose exponent exceeds ``EXP_GUARD``, or a mean
    or variance that overflows all the same, raises :class:`OverflowGuardError`.
    """
    n1, n2 = rect.b1 - rect.a1 + 1, rect.b2 - rect.a2 + 1
    h, keys = _lag_rect(n1 - 1, n2 - 1)
    r = _lag_values(cov, keys)
    r0 = r[r.size // 2]  # the centre lag (0, 0)
    rho = cox_intensity(r0)
    # the lags run over a centred rectangle, so reversing them maps h to -h
    expo = 0.5 * (r + r[::-1])
    mx = float(r0 + expo.max())  # at least 2 R_0, from h = 0
    _check_exponent(mx, "count-variance")
    pairs = np.prod([n1, n2] - np.abs(h), axis=1)
    area = rect.area
    with np.errstate(over="ignore"):  # checked below
        mean = rho * area
        var = mean + np.exp(r0) * (pairs @ np.expm1(expo))
    if not (np.isfinite(mean) and np.isfinite(var)):
        raise OverflowGuardError(f"count moments of exponent {mx:.1f} overflow over "
                                 f"{area} cells", max_exponent=mx)
    return float(mean), float(var)


def _check_phi(phi: TestFunction, n_modes: int, owner: str) -> None:
    if phi.coefficients.size != n_modes:
        raise ParameterDomainError(f"phi holds {phi.coefficients.size} coefficients "
                                   f"for a {owner} of {n_modes} modes")


def ls_count_predictor(field: CoeffField, rect: BorelRect, phi: TestFunction) -> float:
    """Least-squares predictor of N(B) given the field: sum_{z in B} exp(X_z(phi)).

    Coincides with the conditional variance (Poisson).  Exponents above 700,
    and a sum that overflows all the same over many cells, raise
    :class:`OverflowGuardError` with the offending maximum.
    """
    rect.check_within(field.dims)
    _check_phi(phi, field.n_modes, "field")
    expo = field.data[rect.a1:rect.b1 + 1, rect.a2:rect.b2 + 1] @ phi.coefficients
    mx = float(expo.max())
    _check_exponent(mx, "log-intensity")
    with np.errstate(over="ignore"):  # checked below
        total = float(np.exp(expo).sum())
    if total == np.inf:
        raise OverflowGuardError(f"predictor of exponent {mx:.1f} overflows over {expo.size} "
                                 "cells", max_exponent=mx)
    return total


def sample_counts(field: CoeffField, rect: BorelRect, phi: TestFunction, seed: int) -> int:
    """Conditional Poisson draw with mean ls_count_predictor(field, rect, phi); seed >= 0.
    A mean above ``POISSON_MEAN_MAX``, which numpy's sampler refuses, raises
    :class:`OverflowGuardError` before the draw."""
    seed = check_int(seed, "seed", 0)
    mean = ls_count_predictor(field, rect, phi)
    if mean > POISSON_MEAN_MAX:
        raise OverflowGuardError(f"Poisson mean {mean:.4g} exceeds the sampler's limit "
                                 f"{POISSON_MEAN_MAX:.4g}", max_exponent=float(np.log(mean)))
    return int(np.random.default_rng(seed).poisson(mean))


def predict_field(field: CoeffField, model, theta_hat) -> CoeffField:
    """One-step quarter-plane plug-in prediction at every interior site.

    Per mode k and site (i, j): l_{k,1} X(i-1, j) + l_{k,2} X(i, j-1) +
    l_{k,3} X(i-1, j-1), with the triples of ``model`` at ``theta_hat``; the
    first row and column, which lack these neighbours, are zero.  A model
    whose mode count is not the field's raises :class:`ParameterDomainError`.
    """
    if model.n_modes != field.n_modes:
        raise ParameterDomainError("model and field mode counts differ")
    triples = model.eig_triples(theta_hat)
    x = field.data
    pred = np.zeros_like(x)
    pred[1:, 1:] = (triples[:, 0] * x[:-1, 1:]
                    + triples[:, 1] * x[1:, :-1]
                    + triples[:, 2] * x[:-1, :-1])
    return CoeffField(pred, field.basis)


def cov_map(model, theta, phi: TestFunction, max_lag, grid_size: int = 512) -> dict:
    """Lag map (z1, z2) -> R_z(phi)(phi) built from the model spectrum.

    For diagonal models R_z(phi)(phi) = sum_k phi_k^2 R_z(phi_k)(phi_k); the
    per-mode covariances come from :func:`spatialcox.spectral.cov_from_spectrum`,
    which checks ``grid_size`` but does not use it.  ``max_lag`` holds two
    non-negative integral bounds; any other raises :class:`ParameterDomainError`.
    """
    l1, l2 = check_dims(max_lag, "max_lag", 0)
    _check_phi(phi, model.n_modes, "model")
    lags, keys = _lag_rect(l1, l2)
    values = cov_from_spectrum(model, theta, lags, grid_size=grid_size)
    return dict(zip(keys, (values @ phi.coefficients**2).tolist()))
