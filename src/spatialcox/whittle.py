"""Parametric spectral families, C2 normalization, and Whittle-type estimation.

The loss is the truncated sup over modes of the frequency-averaged ratio
periodogram / model density, evaluated on the Fourier grid of the sample.
For the rational SARH(1) densities implemented here the frequency average
reduces exactly to a 5-term cosine-moment contraction of the periodogram
(``trig_moments``), which makes a single loss evaluation O(M); both
``whittle_loss`` and ``estimate`` use that one form.  In the eigenvalue
triple each mode's loss is a PSD quadratic form, so the families whose
triples are affine in theta, the point-spectra model included, are fitted by
one convex solve over the causal tetrahedron (``CAUSAL_FACES``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.stats import qmc

from .errors import ParameterDomainError, SingularSpectrumError
from .sarh import (AFFINE_FAMILIES, CAUSAL_FACES, DEFAULT_PMF_GROUPS, FAMILIES,
                   _has_torus_zero, c2_innovation_var, default_box, family_triples)
from .spectral import Periodogram

TWO_PI_SQ = (2.0 * np.pi) ** 2


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Parametric family of diagonal spectral density operators.

    family : {"example1", "example2", "realdata_pmf", "triple", "custom"}
        "triple" applies one eigenvalue triple theta=(l1,l2,l3) to every
        mode; "custom" expects theta of length 3*M (per-mode triples).
    n_modes : truncation M
    theta_box : per-coordinate closed intervals, shape (q, 2)
    noise_sd : optional fixed per-mode sigma_{eps(phi_k)}; None selects the
        C2-normalizing values (recomputed per theta).
    groups : tuple of tuples of odd mode indices sharing theta_{i,2} in the
        point-spectra model.
    """

    family: str
    n_modes: int
    theta_box: np.ndarray = None
    noise_sd: np.ndarray | None = None
    groups: tuple = DEFAULT_PMF_GROUPS

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterDomainError(f"unknown family {self.family!r}")
        box = self.theta_box
        if box is None:
            box = default_box(self.family, self.n_modes, self.groups)
        box = np.atleast_2d(np.asarray(box, dtype=float))
        object.__setattr__(self, "theta_box", box)
        if self.noise_sd is not None:
            object.__setattr__(self, "noise_sd", np.asarray(self.noise_sd, dtype=float))

    @property
    def n_params(self) -> int:
        return self.theta_box.shape[0]

    def contains(self, theta) -> bool:
        theta = np.atleast_1d(theta)
        return bool(np.all(theta >= self.theta_box[:, 0] - 1e-12)
                    and np.all(theta <= self.theta_box[:, 1] + 1e-12))

    def eig_triples(self, theta) -> np.ndarray:
        """Eigenvalue triples (l1, l2, l3) for every mode, shape (M, 3)."""
        return family_triples(self.family, theta, self.n_modes, self.groups)

    def sigma2(self, theta) -> np.ndarray:
        """Per-mode spectral prefactors sigma^2_{eps(phi_k)} (C2-normalized unless fixed)."""
        if self.noise_sd is not None:
            return self.noise_sd**2
        if self.family == "triple":  # one triple shared by every mode
            return np.full(self.n_modes, c2_innovation_var(theta)[0] / TWO_PI_SQ)
        return c2_innovation_var(self.eig_triples(theta)) / TWO_PI_SQ

    def density(self, theta, omega1, omega2, unit_sigma: bool = False) -> np.ndarray:
        """Spectral density values, shape broadcast(omega) + (M,)."""
        triples = self.eig_triples(theta)
        s2 = np.ones(self.n_modes) if unit_sigma else self.sigma2(theta)
        w1 = np.asarray(omega1, dtype=float)
        w2 = np.asarray(omega2, dtype=float)
        out = np.empty(np.broadcast(w1, w2).shape + (self.n_modes,))
        with np.errstate(divide="ignore"):  # zeros surface as inf, callers guard
            for k in range(self.n_modes):
                out[..., k] = s2[k] / _denom_sq(triples[k], w1, w2)
        return out


def _denom_sq(triple, omega1, omega2):
    l1, l2, l3 = triple
    d = (1.0 - l1 * np.exp(1j * omega1) - l2 * np.exp(1j * omega2)
         - l3 * np.exp(1j * (omega1 + omega2)))
    return np.abs(d) ** 2


def pmf_triple(theta, p: int, groups=DEFAULT_PMF_GROUPS) -> tuple[float, float, float]:
    """Point-spectra model triple of mode p: row p of the "realdata_pmf" family.

    See :func:`spatialcox.sarh.family_triples` for the formula and the theta layout.
    """
    return tuple(family_triples("realdata_pmf", theta, p, groups)[p - 1].tolist())


def sarh1_spectral_density(model: SpectralModel, theta, k: int, omega1, omega2):
    """Rational SARH(1) spectral density F(phi_k)(phi_k) at the given frequencies."""
    if not model.contains(theta):
        raise ParameterDomainError("theta outside the parameter box")
    triple = model.eig_triples(theta)[k - 1]
    d2 = _denom_sq(triple, np.asarray(omega1, float), np.asarray(omega2, float))
    bad = d2 < 1e-14
    if np.any(bad):
        loc = np.argwhere(bad)[0]
        raise SingularSpectrumError("spectral density denominator vanishes",
                                    omega=(omega1, omega2) if np.ndim(omega1) == 0
                                    else tuple(loc))
    s2 = model.sigma2(theta)[k - 1]
    out = s2 / d2
    return float(out) if np.ndim(out) == 0 else out


def realdata_pmf_spectrum(theta, k: int, omega1, omega2, groups=DEFAULT_PMF_GROUPS):
    """Point-spectra model density with L3 free of the composition constraint.

    The resulting triple must not vanish on the unit torus (exact test);
    the C2-normalizing prefactor is applied.
    """
    triple = pmf_triple(theta, k, groups)
    if _has_torus_zero(triple)[0]:
        raise SingularSpectrumError(f"mode {k}: pmf triple {triple} is not stationary")
    s2 = c2_innovation_var(triple)[0] / TWO_PI_SQ
    out = s2 / _denom_sq(triple, np.asarray(omega1, float), np.asarray(omega2, float))
    return float(out) if np.ndim(out) == 0 else out


def normalize_c2(model: SpectralModel, theta, grid_size: int = 512) -> np.ndarray:
    """Per-mode sigma^2 solving the C2 normalization on a 512^2 trapezoid grid.

    Returns sigma2 such that the quadrature of log((2*pi)^2 F) over
    [-pi, pi]^2 vanishes; the trapezoidal rule coincides with the rectangle
    rule by 2*pi-periodicity of the integrand.
    """
    w = -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    dens = model.density(theta, w1, w2, unit_sigma=True)
    if not np.all(np.isfinite(dens)) or np.any(dens <= 0):
        raise SingularSpectrumError("log of the spectral density is not integrable "
                                    "on the quadrature grid")
    mean_log = np.log(dens).mean(axis=(0, 1))
    return np.exp(-mean_log) / TWO_PI_SQ


# ---------------------------------------------------------------------------
# loss


def trig_moments(pgram: Periodogram) -> np.ndarray:
    """Periodogram contractions against (1, cos w1, cos w2, cos(w1+w2), cos(w1-w2)).

    Row k holds the five frequency averages for mode k; together they carry
    everything a rational-denominator loss evaluation needs.
    """
    i_diag = pgram.diag_real()
    w1, w2 = pgram.grid.meshes()
    basis = np.stack([np.ones_like(w1), np.cos(w1), np.cos(w2),
                      np.cos(w1 + w2), np.cos(w1 - w2)])
    return np.einsum("ijk,cij->kc", i_diag, basis) / pgram.grid.size


def _unit_losses(triples: np.ndarray, moments: np.ndarray) -> np.ndarray:
    # per mode, the loss times sigma2: the moments contracted with the
    # coefficients of |1 - l1 e^{iw1} - l2 e^{iw2} - l3 e^{i(w1+w2)}|^2
    l1, l2, l3 = triples[:, 0], triples[:, 1], triples[:, 2]
    coeff = np.stack([1.0 + l1**2 + l2**2 + l3**2,
                      -2.0 * l1 + 2.0 * l2 * l3,
                      -2.0 * l2 + 2.0 * l1 * l3,
                      -2.0 * l3,
                      2.0 * l1 * l2], axis=1)
    return np.einsum("kc,kc->k", moments, coeff)


def _mode_losses_fast(model: SpectralModel, theta, moments: np.ndarray) -> np.ndarray:
    return _unit_losses(model.eig_triples(theta), moments) / model.sigma2(theta)


def whittle_loss(model: SpectralModel, theta, pgram: Periodogram) -> float:
    """max over modes k <= M of the Fourier-grid average of I_w(phi_k)/F_{w,theta}(phi_k)."""
    if model.n_modes != pgram.n_modes:
        raise ParameterDomainError("model and periodogram mode counts differ")
    if not model.contains(theta):
        raise ParameterDomainError("theta outside the parameter box")
    return float(_mode_losses_fast(model, theta, trig_moments(pgram)).max())


# ---------------------------------------------------------------------------
# estimation


@dataclass(frozen=True)
class EstimateOptions:
    """Search controls of :func:`estimate`.

    ``loss_tol`` and ``max_evals`` bound every fit (as SLSQP's ``ftol`` and
    ``maxiter`` for the affine families); ``n_starts``, ``x_tol`` and
    ``seed`` shape the multistart Nelder-Mead search of example1/example2.
    """

    n_starts: int = 5
    loss_tol: float = 1e-6
    x_tol: float = 1e-6
    max_evals: int = 500
    seed: int = 0


# weight of the mean-over-modes term added to the sup loss in the searches:
# among minimizers of the sup loss it picks the one where the remaining modes
# fit best, and it makes the affine-family program strictly convex
TIE_BREAK = 1e-3


@dataclass
class ThetaEstimate:
    theta_hat: np.ndarray
    loss_at_min: float
    n_loss_evals: int
    converged: bool
    multistart_table: list
    family: str = ""
    runtime_s: float = 0.0

    def to_json(self, path=None) -> str:
        payload = {
            "family": self.family,
            "theta_hat": np.asarray(self.theta_hat).tolist(),
            "loss_at_min": self.loss_at_min,
            "n_loss_evals": self.n_loss_evals,
            "converged": self.converged,
            "runtime_s": self.runtime_s,
            "multistart_table": [
                {"start": np.asarray(s).tolist(), "end": np.asarray(e).tolist(), "loss": v}
                for s, e, v in self.multistart_table
            ],
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _starts(model: SpectralModel, opts: EstimateOptions) -> list[np.ndarray]:
    box = model.theta_box
    sampler = qmc.LatinHypercube(d=box.shape[0], seed=opts.seed)
    u = sampler.random(opts.n_starts)
    return [box.mean(axis=1), *(box[:, 0] + u * (box[:, 1] - box[:, 0]))]


def _fit_multistart(model, moments, opts):
    # example1/example2: nonlinear theta -> triples, Nelder-Mead from each start
    box = model.theta_box
    n_evals = 0

    def mode_losses(theta):
        nonlocal n_evals
        n_evals += 1
        return _mode_losses_fast(model, theta, moments)

    def objective(theta):
        v = mode_losses(theta)
        return v.max() + TIE_BREAK * v.mean()

    nm_options = {"fatol": opts.loss_tol, "xatol": opts.x_tol, "maxfev": opts.max_evals}
    table, results = [], []
    for x0 in _starts(model, opts):
        res = minimize(objective, x0, method="Nelder-Mead", bounds=box, options=nm_options)
        theta_end = np.clip(res.x, box[:, 0], box[:, 1])
        pure = float(mode_losses(theta_end).max())
        table.append((np.asarray(x0, float), theta_end, pure))
        results.append((pure, float(res.fun), theta_end, bool(res.success)))

    # among endpoints whose sup losses tie, the smallest search objective wins
    best_pure = min(r[0] for r in results)
    tol = max(1e-10, 1e-10 * abs(best_pure))
    pure, _, theta_hat, success = min((r for r in results if r[0] <= best_pure + tol),
                                      key=lambda r: r[1])
    return theta_hat, pure, n_evals, success, table


def _fit_affine(model, moments, opts):
    # triples = base + theta . lin and loss_k = a' G_k a / sigma2, with
    # a = (1, -triple_k) and G_k the PSD 4x4 form of the five moments.  The
    # search divides by the sigma2 of the closed causal tetrahedron, the
    # model's own there and never above it elsewhere (Jensen), so
    # min t + eta mean_k loss_k s.t. loss_k <= t, CAUSAL_FACES @ triple_k <= 1
    # and the box is a convex program
    box = model.theta_box
    q = model.n_params
    base = model.eig_triples(np.zeros(q))
    lin = np.stack([model.eig_triples(e) for e in np.eye(q)]) - base
    a_ub = (lin @ CAUSAL_FACES.T).reshape(q, -1).T
    b_ub = 1.0 - (base @ CAUSAL_FACES.T).ravel()
    if linprog(np.zeros(q), A_ub=a_ub, b_ub=b_ub, bounds=box).status == 2:
        raise ParameterDomainError("the theta box holds no causal parameter")
    a_ub = np.hstack([a_ub, np.zeros((b_ub.size, 1))])  # x = (theta, t)
    s2 = 1.0 / TWO_PI_SQ if model.noise_sd is None else model.noise_sd**2
    n_evals = 0

    def mode_losses(x):
        nonlocal n_evals
        n_evals += 1
        return _unit_losses(base + np.tensordot(x[:q], lin, 1), moments) / s2

    x0 = np.append(box.mean(axis=1), 0.0)
    x0[q] = mode_losses(x0).max()
    res = minimize(lambda x: x[q] + TIE_BREAK * mode_losses(x).mean(), x0,
                   method="SLSQP", bounds=[*box, (None, None)],
                   constraints=[{"type": "ineq", "fun": lambda x: x[q] - mode_losses(x)},
                                {"type": "ineq", "fun": lambda x: b_ub - a_ub @ x,
                                 "jac": lambda x: -a_ub}],
                   options={"ftol": opts.loss_tol, "maxiter": opts.max_evals})
    theta_hat = np.clip(res.x[:q], box[:, 0], box[:, 1])
    pure = float(_mode_losses_fast(model, theta_hat, moments).max())
    return theta_hat, pure, n_evals + 1, bool(res.success), [(x0[:q], theta_hat, pure)]


def estimate(model: SpectralModel, pgram: Periodogram,
             opts: EstimateOptions | None = None) -> ThetaEstimate:
    """Minimize the Whittle sup loss over the parameter box and the causal set.

    The affine families (``AFFINE_FAMILIES``: triple, custom, realdata_pmf)
    take one convex SLSQP solve from the box centre, constrained to the
    closed causal tetrahedron of every mode; a box holding no causal point
    raises :class:`ParameterDomainError`.  example1/example2 take a
    multistart Nelder-Mead search from the box centre plus a seeded Latin
    hypercube; among endpoints whose sup losses tie within 1e-10 the one
    with the smallest search objective wins.  Both searches add
    ``TIE_BREAK`` times the mean-over-modes loss to the sup loss; the
    reported ``loss_at_min`` is always the pure sup loss.
    """
    if opts is None:
        opts = EstimateOptions()
    if model.n_modes != pgram.n_modes:
        raise ParameterDomainError("model and periodogram mode counts differ")
    box = model.theta_box
    if np.any(box[:, 1] <= box[:, 0]):
        raise ParameterDomainError("theta box is degenerate")
    t0 = time.perf_counter()
    fit = _fit_affine if model.family in AFFINE_FAMILIES else _fit_multistart
    theta_hat, pure, n_evals, success, table = fit(model, trig_moments(pgram), opts)
    return ThetaEstimate(theta_hat=theta_hat, loss_at_min=pure, n_loss_evals=n_evals,
                         converged=success, multistart_table=table, family=model.family,
                         runtime_s=time.perf_counter() - t0)

