"""Whittle-type estimation of the SARH(1) families of :class:`spatialcox.sarh.SpectralModel`.

The loss is the truncated sup over modes of the frequency-averaged ratio
periodogram / model density, evaluated on the Fourier grid of the sample.
For the rational SARH(1) densities implemented here the frequency average
reduces exactly to a 5-term cosine-moment contraction of the periodogram
(``trig_moments``), which makes a single loss evaluation O(M); both
``whittle_loss`` and ``estimate`` use that one form.  In the eigenvalue
triple each mode's loss is a PSD quadratic form, so its gradient is exact
and cheap: every family with two or more parameters is fitted by one SLSQP
solve with exact gradients, convex for the families whose triples are
affine in theta (constrained to the causal tetrahedron ``CAUSAL_FACES``),
and the one-parameter example1 by a grid bracket and bounded Brent.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linprog, minimize, minimize_scalar

from .errors import ParameterDomainError, SingularSpectrumError
from .sarh import AFFINE_FAMILIES, CAUSAL_FACES, TWO_PI_SQ, SpectralModel, family_jacobian
from .spectral import Periodogram

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


# moments[:, _GRAM] is G_k, the PSD 4x4 form of mode k's moments (m0, c1, c2,
# c+, c-) over the AR stencil: the loss times sigma2 is a' G_k a, with
# a = (1, -l1, -l2, -l3), and its gradient in the triple is -2 (G_k a)[1:]
_GRAM = np.array([[0, 1, 2, 3], [1, 0, 4, 2], [2, 4, 0, 1], [3, 2, 1, 0]])


def _unit_losses(triples: np.ndarray, moments: np.ndarray):
    a = np.hstack([np.ones((triples.shape[0], 1)), -triples])
    ga = np.einsum("kij,kj->ki", moments[:, _GRAM], a)
    return np.einsum("ki,ki->k", a, ga), -2.0 * ga[:, 1:]


def _mode_losses_fast(model: SpectralModel, theta, moments: np.ndarray) -> np.ndarray:
    return _unit_losses(model.eig_triples(theta), moments)[0] / model.sigma2(theta)


def _check_fit_inputs(model: SpectralModel, pgram: Periodogram) -> None:
    if model.n_modes != pgram.n_modes:
        raise ParameterDomainError("model and periodogram mode counts differ")
    if model.noise_sd is not None and not np.all(model.noise_sd > 0):
        raise SingularSpectrumError("a zero noise_sd makes that mode's density vanish, "
                                    "so the Whittle ratio I / F is undefined")


def whittle_loss(model: SpectralModel, theta, pgram: Periodogram) -> float:
    """max over modes k <= M of the Fourier-grid average of I_w(phi_k)/F_{w,theta}(phi_k)."""
    _check_fit_inputs(model, pgram)
    if not model.contains(theta):
        raise ParameterDomainError("theta outside the parameter box")
    return float(_mode_losses_fast(model, theta, trig_moments(pgram)).max())


# ---------------------------------------------------------------------------
# estimation


@dataclass(frozen=True)
class EstimateOptions:
    """Stopping rules of :func:`estimate`: SLSQP's ``ftol`` and ``maxiter``,
    the latter also capping the Brent iterations of example1."""

    loss_tol: float = 1e-6
    max_evals: int = 500


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
    family: str = ""
    runtime_s: float = 0.0

    def to_json(self, path=None) -> str:
        text = json.dumps({**asdict(self), "theta_hat": np.asarray(self.theta_hat).tolist()},
                          indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _fit_scalar(model, moments, opts):
    # example1's sigma2 = max(1, |l1|)^2 has a kink at theta = pi, where mode 1
    # leaves the causal set: bracket on a 64-node grid, then bounded Brent
    def objective(theta):
        v = _mode_losses_fast(model, theta, moments)
        return v.max() + TIE_BREAK * v.mean()

    grid = np.linspace(*model.theta_box[0], 64)
    values = [objective(t) for t in grid]
    i = int(np.argmin(values))
    res = minimize_scalar(objective, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, 63)]),
                          options={"xatol": 1e-10, "maxiter": opts.max_evals})
    theta = res.x if res.fun <= values[i] else grid[i]
    return np.array([theta]), grid.size + res.nfev, res.success


def _mode_losses_with_grad(model: SpectralModel, theta, moments: np.ndarray, jac=None,
                           base=None):
    """Per-mode losses at the causal sigma2 ((2 pi)^-2, or ``noise_sd``^2 (2 pi)^-2) and
    their theta-Jacobian (M, q), J_k' (-2 (G_k a)[1:]) / sigma2 with
    J = :func:`family_jacobian`, passed in when constant.  For an affine
    family, ``base`` (the triples at theta = 0) passed with ``jac`` gives the
    triples as base + J theta."""
    if jac is None:
        jac = family_jacobian(model.family, theta, model.n_modes, model.groups)
    triples = model.eig_triples(theta) if base is None else base + jac @ theta
    s2 = np.reshape((1.0 if model.noise_sd is None else model.noise_sd**2) / TWO_PI_SQ, (-1, 1))
    u, du = _unit_losses(triples, moments)
    return u / s2[:, 0], np.einsum("kiq,ki->kq", jac, du) / s2


def _fit_epigraph(model, moments, opts):
    # min t + eta mean_k loss_k s.t. loss_k <= t over the box, from its centre.
    # The causal sigma2 is the model's on example2's box, which is causal; for
    # the affine families, held in the closed tetrahedron, it is the model's
    # there and never above it elsewhere (Jensen), and the program is convex
    box, q = model.theta_box, model.n_params
    constraints, jac, base = [], None, None
    if model.family in AFFINE_FAMILIES:
        jac = family_jacobian(model.family, None, model.n_modes, model.groups)
        base = model.eig_triples(np.zeros(q))
        a_ub = np.einsum("fi,kiq->kfq", CAUSAL_FACES, jac).reshape(-1, q)
        b_ub = 1.0 - (base @ CAUSAL_FACES.T).ravel()
        if linprog(np.zeros(q), A_ub=a_ub, b_ub=b_ub, bounds=box).status == 2:
            raise ParameterDomainError("the theta box holds no causal parameter")
        a_ub = np.hstack([a_ub, np.zeros((b_ub.size, 1))])  # x = (theta, t)
        constraints.append({"type": "ineq", "fun": lambda x: b_ub - a_ub @ x,
                            "jac": lambda x: -a_ub})
    n_evals, last = 0, (None, None, None)

    def losses(x):  # losses and gradients together, evaluated once per theta
        nonlocal n_evals, last
        theta = np.clip(x[:q], box[:, 0], box[:, 1])
        if not np.array_equal(theta, last[0]):
            n_evals += 1
            last = (theta, *_mode_losses_with_grad(model, theta, moments, jac, base))
        return last[1:]

    ones = np.ones((model.n_modes, 1))
    constraints.append({"type": "ineq", "fun": lambda x: x[q] - losses(x)[0],
                        "jac": lambda x: np.hstack([-losses(x)[1], ones])})
    x0 = np.append(box.mean(axis=1), 0.0)
    x0[q] = losses(x0)[0].max()
    res = minimize(lambda x: x[q] + TIE_BREAK * losses(x)[0].mean(), x0, method="SLSQP",
                   jac=lambda x: np.append(TIE_BREAK * losses(x)[1].mean(axis=0), 1.0),
                   bounds=[*box, (None, None)], constraints=constraints,
                   options={"ftol": opts.loss_tol, "maxiter": opts.max_evals})
    return np.clip(res.x[:q], box[:, 0], box[:, 1]), n_evals, res.success


def estimate(model: SpectralModel, pgram: Periodogram,
             opts: EstimateOptions | None = None) -> ThetaEstimate:
    """Minimize the Whittle sup loss over the parameter box and the causal set.

    Families with two or more parameters (example2 and ``AFFINE_FAMILIES``)
    take one SLSQP epigraph solve from the box centre with exact loss
    gradients, the affine ones constrained to the closed causal tetrahedron
    of every mode (a box without a causal point raises
    :class:`ParameterDomainError`).  example1 takes the best node of a
    64-point grid over its box, refined by bounded Brent between the node's
    neighbours.  Both add ``TIE_BREAK`` times the mean-over-modes loss to the
    sup loss; the reported ``loss_at_min`` is the pure sup loss.  A model
    with a zero ``noise_sd`` raises :class:`SingularSpectrumError`.
    """
    opts = opts or EstimateOptions()
    _check_fit_inputs(model, pgram)
    t0 = time.perf_counter()
    moments = trig_moments(pgram)
    fit = _fit_scalar if model.n_params == 1 else _fit_epigraph
    theta_hat, n_evals, success = fit(model, moments, opts)
    pure = float(_mode_losses_fast(model, theta_hat, moments).max())
    return ThetaEstimate(theta_hat=theta_hat, loss_at_min=pure, n_loss_evals=n_evals + 1,
                         converged=bool(success), family=model.family,
                         runtime_s=time.perf_counter() - t0)
