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
(constrained to the causal tetrahedron ``CAUSAL_FACES``).  The one-parameter
example1 is fitted exactly: in s = theta^2 its losses are ratios of
polynomials, so the minimum is the least of a few candidates, roots of
polynomials of degree <= 8 found by one batched ``eigvals``.  The one
stopping setting is ``estimate``'s ``loss_tol``, SLSQP's ``ftol``; every
production caller keeps its default 1e-10, and SLSQP's iteration cap
``MAX_ITER`` is a constant it never reaches.  ``scipy.optimize`` is
imported inside the SLSQP fit, so importing this module, and fitting
example1, loads numpy only.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterDomainError
from .field import CoeffField
from .sarh import (_GRAM, _LAGS, AFFINE_FAMILIES, CAUSAL_FACES, TWO_PI_SQ, SpectralModel,
                   _gram_form, c2_innovation_var, family_jacobian, family_triples)

# ---------------------------------------------------------------------------
# loss


def trig_moments(sample: CoeffField) -> np.ndarray:
    """Periodogram averages against (1, cos w1, cos w2, cos(w1+w2), cos(w1-w2)).

    Row k holds the five Fourier-grid averages for mode k of the field's
    periodogram; together they carry everything a rational-denominator loss
    evaluation needs.  The average against cos<h, w> is the circular lag sum
    sum_y X_y(phi_k) X_{y+h}(phi_k) over N (2 pi)^2 (Parseval), so the field
    is read directly: one wrap-padded copy and five lag products, no FFT.
    Anything but a :class:`~spatialcox.field.CoeffField` raises ``TypeError``,
    and a field whose moments overflow raises :class:`ParameterDomainError`.
    """
    if not isinstance(sample, CoeffField):
        raise TypeError(f"the Whittle sample must be a CoeffField, not {type(sample).__name__}")
    x = sample.data
    n1, n2, _ = x.shape
    padded = np.pad(x, ((0, 1), (1, 1), (0, 0)), mode="wrap")  # x_y at padded[y1, y2 + 1]
    sums = [np.einsum("ijk,ijk->k", x, padded[h1:h1 + n1, 1 + h2:1 + h2 + n2])
            for h1, h2 in _LAGS]
    moments = np.stack(sums, axis=1) / (n1 * n2 * TWO_PI_SQ)
    if not np.all(np.isfinite(moments)):
        raise ParameterDomainError("the field's periodogram moments are not finite: "
                                   "its values are too large")
    return moments


# the loss of mode k times sigma2_k is the periodogram average of |D_k|^2,
# i.e. sarh._gram_form at mu = trig_moments: a PSD form a' G_k a in
# a = (1, -l1, -l2, -l3), with gradient -2 (G_k a)[1:] in the triple; sigma2_k
# is the C2 one of the triple, the model's
def _mode_losses(triples: np.ndarray, moments: np.ndarray) -> np.ndarray:
    return _gram_form(triples, moments)[0] / (c2_innovation_var(triples) / TWO_PI_SQ)


def _sample_moments(model: SpectralModel, sample: CoeffField) -> np.ndarray:
    moments = trig_moments(sample)
    if model.n_modes != moments.shape[0]:
        raise ParameterDomainError("model and sample mode counts differ")
    return moments


def whittle_loss(model: SpectralModel, theta, sample: CoeffField) -> float:
    """max over modes k <= M of the Fourier-grid average of I_w(phi_k)/F_{w,theta}(phi_k),
    with I the periodogram of the field ``sample``, read through :func:`trig_moments`."""
    moments = _sample_moments(model, sample)
    triples = model.eig_triples(theta)  # checks theta's length before the box
    if not model.contains(theta):
        raise ParameterDomainError("theta outside the parameter box")
    return float(_mode_losses(triples, moments).max())


# ---------------------------------------------------------------------------
# estimation


# iteration cap of SLSQP; the fits stop on their tolerance long before it
# (below 200 loss evaluations)
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
                          indent=2, allow_nan=False)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _example1_pieces(model: SpectralModel):
    """example1 in s = theta^2: the mode constants (c1, c2) of the triples
    (c1 s, c2 s, -c1 c2 s^2), read from the family at theta = 1, and the s-box
    cut at every s = 1/c1_k and 1/c2_k inside it into pieces (edges (P+1,)).
    On a piece the separable C2 variance max(1, l1)^2 max(1, l2)^2 of mode k is
    the monomial coef[p, k] s^power[p, k], power 0, 2 or 4."""
    c1, c2, _ = family_triples("example1", [1.0], model.n_modes).T
    lo, hi = model.theta_box[0] ** 2
    breaks = np.concatenate([1.0 / c1, 1.0 / c2])
    edges = np.unique(np.concatenate([[lo, hi], breaks[(breaks > lo) & (breaks < hi)]]))
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    over1, over2 = c1 * mid > 1.0, c2 * mid > 1.0
    coef = np.where(over1, c1**2, 1.0) * np.where(over2, c2**2, 1.0)
    return (c1, c2), edges, coef, 2 * (over1.astype(int) + over2)


# _COLLECT[3 p + q] is the unit row of s^(p + q), collecting a_p' G a_q into powers
_COLLECT = np.eye(5)[np.add.outer(np.arange(3), np.arange(3)).ravel()]


def _real_roots(polys: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Real roots in [lo, hi], lo > 0, of the rows of ascending coefficients.

    Rows that are identically zero are dropped.  Every other row of degree
    d <= n becomes block-diag(companion, 0) of size n, so one batched
    ``eigvals`` gives all roots; the zero block's eigenvalues are exact zeros,
    below lo.  Roots with |imag| <= 1e-6 |root| count as real: a spurious
    candidate costs one evaluation, a missed one the optimum.
    """
    polys = polys[np.any(polys != 0.0, axis=1)]
    n = polys.shape[1] - 1
    deg = n - np.argmax(polys[:, ::-1] != 0.0, axis=1)
    cols = np.arange(n)
    src = deg[:, None] - 1 - cols  # the top row holds -p_{d-1}, ..., -p_0 over p_d
    lead = np.take_along_axis(polys, deg[:, None], axis=1)
    comp = np.zeros((len(polys), n, n))
    comp[:, 0] = np.where(src >= 0, -np.take_along_axis(polys, np.maximum(src, 0), axis=1)
                          / lead, 0.0)
    comp[:, cols[1:], cols[:-1]] = cols[1:] < deg[:, None]
    roots = np.linalg.eigvals(comp)
    ok = (np.abs(roots.imag) <= 1e-6 * np.abs(roots)) & (roots.real >= lo) & (roots.real <= hi)
    return roots.real[ok]


def _fit_example1(model: SpectralModel, moments: np.ndarray):
    # With s = theta^2 and a = (1, -c1 s, -c2 s, c1 c2 s^2), mode k's loss is
    # (2 pi)^2 N_k(s) / v_k(s): a quartic N_k = a' G_k a over the monomial C2
    # variance of the piece.  Times s^D, D the piece's largest power, every
    # loss is a polynomial P_k of degree <= 4 + D, so the minimum of
    # max_k loss_k + eta mean_k loss_k lies at a piece end, a root of
    # d/ds (P_k + eta mean P) / s^D, i.e. of s Q' - D Q, or a crossing
    # P_i = P_j.  All candidates are evaluated at once; ties take the least theta.
    (c1, c2), edges, coef, power = _example1_pieces(model)
    m = model.n_modes
    basis = np.zeros((m, 3, 4))
    basis[:, 0, 0], basis[:, 1, 1], basis[:, 1, 2], basis[:, 2, 3] = 1.0, -c1, -c2, c1 * c2
    quartic = np.einsum("kpi,kij,kqj->kpq", basis, moments[:, _GRAM], basis).reshape(m, 9)
    quartic = quartic @ _COLLECT
    i, j = np.triu_indices(m, 1)
    roots = []
    for p in range(len(edges) - 1):  # one batched eigvals per piece, of size 4 + D
        top = power[p].max()
        loss = np.zeros((m, 5 + top))
        np.put_along_axis(loss, np.arange(5) + (top - power[p])[:, None],
                          quartic / coef[p][:, None], axis=1)
        q = loss + TIE_BREAK * loss.mean(axis=0)
        polys = np.vstack([(np.arange(5 + top) - top) * q, loss[i] - loss[j]])
        roots.append(_real_roots(polys, edges[p], edges[p + 1]))
    roots = np.concatenate(roots)
    theta = np.sort(np.concatenate([model.theta_box[0], np.sqrt(edges[1:-1]), np.sqrt(roots)]))
    theta = np.clip(theta, *model.theta_box[0])  # sqrt(theta^2) may leave the box by an ulp
    s = theta[:, None] ** 2
    l1, l2 = c1 * s, c2 * s
    triples = np.stack([l1, l2, -l1 * l2], axis=-1).reshape(-1, 3)
    losses = _mode_losses(triples, np.tile(moments, (len(theta), 1))).reshape(len(theta), m)
    best = int(np.argmin(losses.max(axis=1) + TIE_BREAK * losses.mean(axis=1)))
    return theta[best:best + 1], len(theta), True


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

    box, q = model.theta_box, len(model.theta_box)
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
    example1 is minimized exactly, over the candidates of
    :func:`_fit_example1` (the box ends, the points where a mode's C2
    variance changes form, and the stationary points and crossings of the
    mode losses), numpy only; ``n_loss_evals`` is their number plus one for
    the sup loss at the optimum, and the fit always converges.  Both add
    ``TIE_BREAK`` times the mean-over-modes loss to the sup loss, and ties
    go to the least theta; the reported ``loss_at_min`` is the pure sup
    loss.  The model's innovation variances are the C2 ones, so a field
    whose innovation sd is a known s_k is fitted as ``sample`` divided by s_k.
    """
    t0 = time.perf_counter()
    moments = _sample_moments(model, sample)
    theta_hat, n_evals, success = (_fit_example1(model, moments) if model.family == "example1"
                                   else _fit_epigraph(model, moments, loss_tol))
    pure = float(_mode_losses(model.eig_triples(theta_hat), moments).max())
    return ThetaEstimate(theta_hat=theta_hat, loss_at_min=pure, n_loss_evals=n_evals + 1,
                         converged=bool(success), family=model.family,
                         runtime_s=time.perf_counter() - t0)
