"""Sine basis on [0, L]: design matrices and quadrature projection.

The working basis is phi_p(t) = sin(pi * p * t / L), p = 1..M, which is
pairwise L2-orthogonal on [0, L] with squared norm L/2.  The package has
one coordinate convention: mode coefficients are coordinates with respect
to the orthonormalized basis sqrt(2/L) * phi_p, which the design matrix
holds and the projection returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientResolutionError, ParameterDomainError, check_finite,
                     check_int)


@dataclass(frozen=True)
class BasisSpec:
    """Sine basis specification.

    Parameters
    ----------
    support_length : float
        Finite length L > 0 of the support interval [0, L] of the basis functions.
    n_modes : int
        Number of modes M retained, an integer >= 1.
    """

    support_length: float
    n_modes: int

    def __post_init__(self):
        if not 0.0 < self.support_length < np.inf:  # inf would give an all-zero basis
            raise ParameterDomainError("support_length must be finite and positive")
        object.__setattr__(self, "n_modes", check_int(self.n_modes, "n_modes", 1))


def design_matrix(spec: BasisSpec, t_grid) -> np.ndarray:
    """Matrix Phi with Phi[p-1, i] = sqrt(2/L) phi_p(t_i), shape (M, len(t_grid)).  A
    time that is not finite raises :class:`ParameterDomainError`."""
    t = np.asarray(t_grid, dtype=float)
    check_finite(t, ParameterDomainError, "t_grid must be finite")
    modes = np.arange(1, spec.n_modes + 1)
    phi = np.sin(np.pi * np.outer(modes, t) / spec.support_length)
    phi *= np.sqrt(2.0 / spec.support_length)
    return phi


def project_samples(t_grid, samples, spec: BasisSpec) -> np.ndarray:
    """Project curves ``samples`` (..., T), sampled on ``t_grid`` (T,), onto the sine
    basis by the trapezoid rule: the (..., M) coordinates a_p = sqrt(2/L) * integral
    of f * phi_p in the orthonormalized basis, so f ~ a @ design_matrix(spec, t).
    ``t_grid`` must cover [0, L] with at least 2M+1 points; leading axes are batch axes.
    Samples that are not finite raise :class:`ParameterDomainError`.
    """
    t = np.asarray(t_grid, dtype=float)
    f = np.asarray(samples, dtype=float)
    if t.ndim != 1 or f.shape[-1] != t.size:
        raise ParameterDomainError("samples last axis must match t_grid length")
    check_finite(f, ParameterDomainError, "samples must be finite")
    if t.size < 2 * spec.n_modes + 1:
        raise InsufficientResolutionError(
            f"need >= {2 * spec.n_modes + 1} sample points for M={spec.n_modes}, got {t.size}"
        )
    tol = 1e-9 * spec.support_length
    if t[0] > tol or t[-1] < spec.support_length - tol:
        raise InsufficientResolutionError("t_grid must cover [0, support_length]")
    return f @ _quadrature_rows(spec, t).T


def _quadrature_rows(spec: BasisSpec, t) -> np.ndarray:
    # the (M, T) design times the trapezoid weights of t: the projection's one sum over t
    dt = np.diff(t)
    return design_matrix(spec, t) * (0.5 * np.r_[dt, 0.0] + 0.5 * np.r_[0.0, dt])
