"""Moments and predictors of the counting process driven by the log-intensity field.

Conditional on a realized coefficient field, counts over a lattice
rectangle are Poisson with mean equal to the unit-cell sum of
exp(X_z(phi)); unconditionally (zero-mean Gaussian case) intensity, pair
correlation, product densities, and count moments are closed forms of the
covariance functional R_z(phi)(phi).  Spatial integrals over Borel sets
become unit-cell lattice sums throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryError, InvalidCovarianceError, LagUnavailableError,
                     OverflowGuardError, ParameterDomainError)
from .field import CoeffField
from .spectral import cov_from_spectrum

EXP_GUARD = 700.0


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
    """Inclusive lattice rectangle [a1, b1] x [a2, b2]; unit cell area 1."""

    a1: int
    b1: int
    a2: int
    b2: int

    def __post_init__(self):
        if self.b1 < self.a1 or self.b2 < self.a2:
            raise ParameterDomainError("rectangle must be non-empty")

    @property
    def area(self) -> int:
        return (self.b1 - self.a1 + 1) * (self.b2 - self.a2 + 1)

    def sites(self):
        for i in range(self.a1, self.b1 + 1):
            for j in range(self.a2, self.b2 + 1):
                yield i, j

    def check_within(self, dims) -> None:
        if self.a1 < 0 or self.a2 < 0 or self.b1 >= dims[0] or self.b2 >= dims[1]:
            raise BoundaryError(f"rectangle {self} outside lattice {dims}")


def cox_intensity(cov0: float) -> float:
    """First-order intensity rho_phi = exp(R_0(phi)(phi) / 2); constant over sites."""
    if cov0 < 0:
        raise InvalidCovarianceError("R_0(phi)(phi) must be nonnegative")
    return float(np.exp(0.5 * cov0))


def pair_correlation(covz: float) -> float:
    """Pair correlation g_phi = exp(R_{z_i - z_j}(phi)(phi))."""
    return float(np.exp(covz))


def _lag_lookup(cov, z):
    try:
        return cov[z]
    except KeyError:
        raise LagUnavailableError(f"covariance lag {z} not supplied") from None


def product_density_n(points, cov, include_diagonal: bool = False) -> float:
    """n-th order product density rho^n * exp(0.5 * sum_{i != j} R_{z_i - z_j}).

    ``cov`` maps integer lags (z1, z2) to R_z(phi)(phi) and must contain
    every pairwise lag (plus (0, 0)).  The default excludes the i == j terms
    of the double sum, which makes the n = 1 case reduce to the intensity
    and the n = 2 case to the pair-correlation identity;
    ``include_diagonal=True`` selects the literal double-sum reading.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    rho = cox_intensity(_lag_lookup(cov, (0, 0)))
    acc = 0.0
    for a, pa in enumerate(pts):
        for b, pb in enumerate(pts):
            if a == b and not include_diagonal:
                continue
            acc += _lag_lookup(cov, (pa[0] - pb[0], pa[1] - pb[1]))
    return float(rho ** len(pts) * np.exp(0.5 * acc))


def count_moments(rect: BorelRect, cov) -> tuple[float, float]:
    """Unconditional mean and variance of N(B) over a lattice rectangle.

    mean = rho_phi * |B|;
    var  = exp(R_0) * sum_{z,y in B} exp((R_{z-y} + R_{y-z}) / 2)
           + |B| rho_phi (1 - |B| rho_phi),
    with integrals replaced by unit-cell sums.  The double sum runs over
    the distinct lags h in B - B, each weighted by its (n1 - |h1|)(n2 - |h2|)
    site pairs of the n1 x n2 rectangle.  ``cov`` must contain every lag in
    B - B.
    """
    r0 = _lag_lookup(cov, (0, 0))
    rho = cox_intensity(r0)
    n1, n2 = rect.b1 - rect.a1 + 1, rect.b2 - rect.a2 + 1
    h1, h2 = np.arange(1 - n1, n1), np.arange(1 - n2, n2)
    r = np.array([_lag_lookup(cov, (z1, z2)) for z1 in h1.tolist() for z2 in h2.tolist()])
    # the lags run over a centred rectangle, so reversing them maps h to -h
    pairs = np.outer(n1 - np.abs(h1), n2 - np.abs(h2)).ravel()
    acc = pairs @ np.exp(0.5 * (r + r[::-1]))
    area = rect.area
    var = np.exp(r0) * acc + area * rho * (1.0 - area * rho)
    return float(rho * area), float(var)


def ls_count_predictor(field: CoeffField, rect: BorelRect, phi: TestFunction) -> float:
    """Least-squares predictor of N(B) given the field: sum_{z in B} exp(X_z(phi)).

    Coincides with the conditional variance (Poisson).  Exponents above 700
    raise :class:`OverflowGuardError` with the offending maximum.
    """
    rect.check_within(field.dims)
    if phi.coefficients.size != field.n_modes:
        raise ParameterDomainError(f"phi holds {phi.coefficients.size} coefficients "
                                   f"for a field of {field.n_modes} modes")
    expo = field.data[rect.a1:rect.b1 + 1, rect.a2:rect.b2 + 1] @ phi.coefficients
    mx = float(expo.max())
    if mx > EXP_GUARD:
        raise OverflowGuardError(f"log-intensity exponent {mx:.1f} exceeds {EXP_GUARD}",
                                 max_exponent=mx)
    return float(np.exp(expo).sum())


def sample_counts(field: CoeffField, rect: BorelRect, phi: TestFunction, seed: int) -> int:
    """Conditional Poisson draw with mean ls_count_predictor(field, rect, phi)."""
    mean = ls_count_predictor(field, rect, phi)
    return int(np.random.default_rng(seed).poisson(mean))


def predict_field(field: CoeffField, model, theta_hat) -> CoeffField:
    """One-step quarter-plane plug-in prediction at every interior site.

    Per mode k and site (i, j): l_{k,1} X(i-1, j) + l_{k,2} X(i, j-1) +
    l_{k,3} X(i-1, j-1), with the triples of ``model`` at ``theta_hat``; the
    first row and column, which lack these neighbours, are zero.
    """
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
    per-mode covariances come from :func:`spatialcox.spectral.cov_from_spectrum`.
    """
    l1, l2 = int(max_lag[0]), int(max_lag[1])
    lags = [(z1, z2) for z1 in range(-l1, l1 + 1) for z2 in range(-l2, l2 + 1)]
    values, _ = cov_from_spectrum(model, theta, lags, grid_size=grid_size)
    w = phi.coefficients**2
    return {lag: float(values[i] @ w) for i, lag in enumerate(lags)}
