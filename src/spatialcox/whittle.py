"""Whittle-type estimation of the SARH(1) families of :class:`spatialcox.sarh.SpectralModel`.

The loss is the truncated sup over modes of the frequency-averaged ratio
periodogram / model density, evaluated on the Fourier grid of the sample.
For the rational SARH(1) densities implemented here the frequency average
reduces exactly to five cosine moments of the periodogram per mode
(``trig_moments``), which makes a single loss evaluation O(M); both
``whittle_loss`` and ``estimate`` use that one form.  By Parseval the five
moments are the circular lag covariances of the field at (0,0), (1,0),
(0,1), (1,1) and (1,-1) over (2 pi)^2 (Whittle, 1954), so the sample is the
:class:`~spatialcox.field.CoeffField` itself, read by five O(NM) lag
products without forming its periodogram.  In the eigenvalue triple each
mode's loss is a PSD quadratic form, so its gradient is exact and cheap:
every family with two or more parameters is fitted by one SLSQP solve with
exact gradients, convex for the families whose triples are affine in theta
(constrained to the causal tetrahedron ``CAUSAL_FACES``), and the
one-parameter example1 by a grid bracket and bounded Brent.  The one
stopping setting is ``estimate``'s ``loss_tol``, SLSQP's ``ftol``; every
production caller keeps its default 1e-10, and the iteration cap
``MAX_ITER`` is a constant the fits never reach.  ``scipy.optimize`` is
imported inside the two fits, so importing this module loads numpy only.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterDomainError
from .field import CoeffField
from .sarh import (_LAGS, AFFINE_FAMILIES, CAUSAL_FACES, TWO_PI_SQ, SpectralModel, _gram_form,
                   family_jacobian)

# ---------------------------------------------------------------------------
# loss


def trig_moments(sample: CoeffField) -> np.ndarray:
    """Periodogram averages against (1, cos w1, cos w2, cos(w1+w2), cos(w1-w2)).

    Row k holds the five Fourier-grid averages for mode k of the field's
    periodogram; together they carry everything a rational-denominator loss
    evaluation needs.  The average against cos<h, w> is the circular lag sum
    sum_y X_y(phi_k) X_{y+h}(phi_k) over N (2 pi)^2 (Parseval), so the field
    is read directly: one wrap-padded copy and five lag products, no FFT.
    Anything but a :class:`~spatialcox.field.CoeffField` raises ``TypeError``.
    """
    if not isinstance(sample, CoeffField):
        raise TypeError(f"the Whittle sample must be a CoeffField, not {type(sample).__name__}")
    x = sample.data
    n1, n2, _ = x.shape
    padded = np.pad(x, ((0, 1), (1, 1), (0, 0)), mode="wrap")  # x_y at padded[y1, y2 + 1]
    sums = [np.einsum("ijk,ijk->k", x, padded[h1:h1 + n1, 1 + h2:1 + h2 + n2])
            for h1, h2 in _LAGS]
    return np.stack(sums, axis=1) / (n1 * n2 * TWO_PI_SQ)


# the loss of mode k times sigma2_k is the periodogram average of |D_k|^2,
# i.e. sarh._gram_form at mu = trig_moments: a PSD form a' G_k a in
# a = (1, -l1, -l2, -l3), with gradient -2 (G_k a)[1:] in the triple
def _mode_losses_fast(model: SpectralModel, theta, moments: np.ndarray) -> np.ndarray:
    return _gram_form(model.eig_triples(theta), moments)[0] / model.sigma2(theta)


def _sample_moments(model: SpectralModel, sample: CoeffField) -> np.ndarray:
    moments = trig_moments(sample)
    if model.n_modes != moments.shape[0]:
        raise ParameterDomainError("model and sample mode counts differ")
    return moments


def whittle_loss(model: SpectralModel, theta, sample: CoeffField) -> float:
    """max over modes k <= M of the Fourier-grid average of I_w(phi_k)/F_{w,theta}(phi_k),
    with I the periodogram of the field ``sample``, read through :func:`trig_moments`."""
    moments = _sample_moments(model, sample)
    model.eig_triples(theta)  # checks theta's length before the box
    if not model.contains(theta):
        raise ParameterDomainError("theta outside the parameter box")
    return float(_mode_losses_fast(model, theta, moments).max())


# ---------------------------------------------------------------------------
# estimation


# iteration cap of SLSQP and of example1's Brent refinement; the fits stop on
# their tolerances long before it (below 200 loss evaluations)
MAX_ITER = 2000

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


def _fit_scalar(model, moments):
    # example1's sigma2 = max(1, |l1|)^2 has a kink at theta = pi, where mode 1
    # leaves the causal set: bracket on a 64-node grid, then bounded Brent
    from scipy.optimize import minimize_scalar

    def objective(theta):
        v = _mode_losses_fast(model, theta, moments)
        return v.max() + TIE_BREAK * v.mean()

    grid = np.linspace(*model.theta_box[0], 64)
    values = [objective(t) for t in grid]
    i = int(np.argmin(values))
    res = minimize_scalar(objective, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, 63)]),
                          options={"xatol": 1e-10, "maxiter": MAX_ITER})
    theta = res.x if res.fun <= values[i] else grid[i]
    return np.array([theta]), grid.size + res.nfev, res.success


_CAUSAL_SIGMA2 = 1.0 / TWO_PI_SQ  # sigma2 of every causal mode


def _mode_losses_with_grad(model: SpectralModel, theta, moments: np.ndarray, jac=None):
    """Per-mode losses at the causal sigma2 and their theta-Jacobian (M, q),
    J_k' (-2 (G_k a)[1:]) / sigma2 with J = :func:`family_jacobian`.  An
    affine family passes its constant J, and its triples are J theta."""
    triples = model.eig_triples(theta) if jac is None else jac @ theta
    if jac is None:
        jac = family_jacobian(model.family, theta, model.n_modes)
    u, du = _gram_form(triples, moments)
    return u / _CAUSAL_SIGMA2, np.einsum("kiq,ki->kq", jac, du) / _CAUSAL_SIGMA2


def _fit_epigraph(model, moments, loss_tol):
    # min t + eta mean_k loss_k s.t. loss_k <= t over the box, from its centre.
    # The causal sigma2 is the model's on example2's box, which is causal; for
    # the affine families, held in the closed tetrahedron, it is the model's
    # there and never above it elsewhere (Jensen), and the program is convex
    from scipy.optimize import linprog, minimize

    box, q = model.theta_box, model.n_params
    constraints, jac = [], None
    if model.family in AFFINE_FAMILIES:
        jac = family_jacobian(model.family, None, model.n_modes)
        a_ub = np.einsum("fi,kiq->kfq", CAUSAL_FACES, jac).reshape(-1, q)
        if linprog(np.zeros(q), A_ub=a_ub, b_ub=np.ones(len(a_ub)), bounds=box).status == 2:
            raise ParameterDomainError("the theta box holds no causal parameter")
        a_ub = np.hstack([a_ub, np.zeros((len(a_ub), 1))])  # x = (theta, t)
        constraints.append({"type": "ineq", "fun": lambda x: 1.0 - a_ub @ x,
                            "jac": lambda x: -a_ub})
    n_evals, last = 0, (None, None, None)

    def losses(x):  # losses and gradients together, evaluated once per theta
        nonlocal n_evals, last
        theta = np.clip(x[:q], box[:, 0], box[:, 1])
        if not np.array_equal(theta, last[0]):
            n_evals += 1
            last = (theta, *_mode_losses_with_grad(model, theta, moments, jac))
        return last[1:]

    ones = np.ones((model.n_modes, 1))
    constraints.append({"type": "ineq", "fun": lambda x: x[q] - losses(x)[0],
                        "jac": lambda x: np.hstack([-losses(x)[1], ones])})
    x0 = np.append(box.mean(axis=1), 0.0)
    x0[q] = losses(x0)[0].max()
    res = minimize(lambda x: x[q] + TIE_BREAK * losses(x)[0].mean(), x0, method="SLSQP",
                   jac=lambda x: np.append(TIE_BREAK * losses(x)[1].mean(axis=0), 1.0),
                   bounds=[*box, (None, None)], constraints=constraints,
                   options={"ftol": loss_tol, "maxiter": MAX_ITER})
    return np.clip(res.x[:q], box[:, 0], box[:, 1]), n_evals, res.success


def estimate(model: SpectralModel, sample: CoeffField,
             loss_tol: float = 1e-10) -> ThetaEstimate:
    """Minimize the Whittle sup loss over the parameter box and the causal set.

    ``sample`` is the field, read by :func:`trig_moments`.
    Families with two or more parameters (example2 and ``AFFINE_FAMILIES``)
    take one SLSQP epigraph solve from the box centre with exact loss
    gradients, the affine ones constrained to the closed causal tetrahedron
    of every mode (a box without a causal point raises
    :class:`ParameterDomainError`); ``loss_tol`` is that solve's ``ftol``.
    example1 takes the best node of a 64-point grid over its box, refined by
    bounded Brent to 1e-10 in theta between the node's neighbours.  Both
    add ``TIE_BREAK`` times the mean-over-modes loss to the sup loss; the
    reported ``loss_at_min`` is the pure sup loss.  The model's innovation
    variances are the C2 ones, so a field whose innovation sd is a known s_k
    is fitted as ``sample`` divided by s_k.
    """
    t0 = time.perf_counter()
    moments = _sample_moments(model, sample)
    theta_hat, n_evals, success = (_fit_scalar(model, moments) if model.n_params == 1
                                   else _fit_epigraph(model, moments, loss_tol))
    pure = float(_mode_losses_fast(model, theta_hat, moments).max())
    return ThetaEstimate(theta_hat=theta_hat, loss_at_min=pure, n_loss_evals=n_evals + 1,
                         converged=bool(success), family=model.family,
                         runtime_s=time.perf_counter() - t0)
