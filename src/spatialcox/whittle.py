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
mode's loss is a PSD quadratic form.  For ``AFFINE_FAMILIES`` (triple, custom,
realdata_pmf), whose triples are affine in theta, each loss is then an exact
convex quadratic in theta, and the sup loss over the causal tetrahedron
``CAUSAL_FACES`` is one convex epigraph program, solved to its optimum by a
numpy primal-dual interior-point method (Boyd & Vandenberghe, *Convex
Optimization*, sec. 11.7) with constant tolerances and iteration cap.  The
one-parameter example1 is fitted exactly: in s = theta^2 its losses are
ratios of polynomials, so the minimum is the least of a few candidates,
roots of polynomials of degree <= 8 found by one batched ``eigvals``.  Only
example2, whose triples are not affine, takes an SLSQP solve with exact
gradients; ``estimate``'s ``loss_tol`` is its ``ftol``, and ``scipy.optimize``
is imported inside it, so importing this module and fitting every other
family loads numpy only.
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


# a circular shift y -> y + h mod n along one axis, h in (-1, 0, 1), as (y, y + h) pairs of
# slices: the interior run, then the wrap (which, at n = 1, pairs the one site with itself)
_SHIFT = {0: ((slice(None), slice(None)),),
          1: ((slice(None, -1), slice(1, None)), (slice(-1, None), slice(None, 1))),
          -1: ((slice(1, None), slice(None, -1)), (slice(None, 1), slice(-1, None)))}


def trig_moments(sample: CoeffField) -> np.ndarray:
    """Periodogram averages against (1, cos w1, cos w2, cos(w1+w2), cos(w1-w2)).

    Row k holds the five Fourier-grid averages for mode k of the field's
    periodogram; together they carry everything a rational-denominator loss
    evaluation needs.  The average against cos<h, w> is the circular lag sum
    sum_y X_y(phi_k) X_{y+h}(phi_k) over N (2 pi)^2 (Parseval), so the field
    is read directly, no FFT: each lag sum adds the products of the interior
    slices to those of the wrap column, the wrap row and the corner, read from
    the field at its own strides, so no copy of it is made.  Anything but a
    :class:`~spatialcox.field.CoeffField` raises ``TypeError``, and a field
    whose moments overflow raises :class:`ParameterDomainError`.
    """
    if not isinstance(sample, CoeffField):
        raise TypeError(f"the Whittle sample must be a CoeffField, not {type(sample).__name__}")
    x = sample.data
    n1, n2, _ = x.shape
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        sums = [sum(np.einsum("ijk,ijk->k", x[a1, a2], x[b1, b2])
                    for a1, b1 in _SHIFT[h1] for a2, b2 in _SHIFT[h2]) for h1, h2 in _LAGS]
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


def _mode_losses_with_grad(model: SpectralModel, theta, moments: np.ndarray):
    """Per-mode losses at the causal sigma2 and their theta-Jacobian (M, q),
    J_k' (-2 (G_k a)[1:]) / sigma2 with J = :func:`family_jacobian`."""
    u, du = _gram_form(model.eig_triples(theta), moments)
    jac = family_jacobian(model.family, theta, model.n_modes)
    return u / _CAUSAL_SIGMA2, np.einsum("kiq,ki->kq", jac, du) / _CAUSAL_SIGMA2


def _fit_slsqp(model, moments, loss_tol):
    # example2: min t + eta mean_k loss_k s.t. loss_k <= t over the box, from its
    # centre, by SLSQP; the box is causal, so the causal sigma2 is the model's
    from scipy.optimize import minimize

    box, q = model.theta_box, len(model.theta_box)
    n_evals, last = 0, (None, None, None)

    def losses(x):  # losses and gradients together, evaluated once per theta
        nonlocal n_evals, last
        theta = np.clip(x[:q], box[:, 0], box[:, 1])
        if not np.array_equal(theta, last[0]):
            n_evals += 1
            last = (theta, *_mode_losses_with_grad(model, theta, moments))
        return last[1:]

    ones = np.ones((model.n_modes, 1))
    x0 = np.append(box.mean(axis=1), 0.0)
    x0[q] = losses(x0)[0].max()
    res = minimize(lambda x: x[q] + TIE_BREAK * losses(x)[0].mean(), x0, method="SLSQP",
                   jac=lambda x: np.append(TIE_BREAK * losses(x)[1].mean(axis=0), 1.0),
                   bounds=[*box, (None, None)],
                   constraints=[{"type": "ineq", "fun": lambda x: x[q] - losses(x)[0],
                                 "jac": lambda x: np.hstack([-losses(x)[1], ones])}],
                   options={"ftol": loss_tol, "maxiter": MAX_ITER})
    return np.clip(res.x[:q], box[:, 0], box[:, 1]), n_evals, res.success


# the interior-point fit: its iteration cap, far above the 17-34 iterations
# that seeded fits of every affine family take, its tolerance on the duality
# gap and the dual residual at losses of order one, and the centring factor and
# backtracking constants of Boyd & Vandenberghe, *Convex Optimization*, sec. 11.7
IP_MAX_ITER = 100
_IP_TOL = 1e-13
_IP_MU, _IP_ALPHA, _IP_BETA = 10.0, 0.01, 0.5


def _affine_program(model: SpectralModel, moments: np.ndarray):
    """The affine families' mode losses at the causal sigma2 as exact quadratics
    q_k(theta) = c_k + b_k.theta + theta' P_k theta, returned as (c, b, P), and
    the distinct causal faces A theta <= 1 of the modes, as the rows of A.  With
    the constant J = :func:`family_jacobian` and G_k = mu_k[_GRAM] / sigma2,
    P_k = J_k' G_k[1:, 1:] J_k, b_k = -2 J_k' G_k[1:, 0] and c_k = G_k[0, 0].
    Coordinates no mode reads (zero columns of J) stay out; their mask comes third."""
    jac = family_jacobian(model.family, None, model.n_modes)
    read = jac.any(axis=(0, 1))
    jac = jac[..., read]
    g = moments[:, _GRAM] / _CAUSAL_SIGMA2
    quad = (g[:, 0, 0], -2.0 * np.einsum("kiq,ki->kq", jac, g[:, 1:, 0]),
            np.einsum("kiq,kij,kjr->kqr", jac, g[:, 1:, 1:], jac))
    faces = np.einsum("fi,kiq->kfq", CAUSAL_FACES, jac).reshape(-1, jac.shape[-1])
    return quad, np.unique(faces, axis=0), read  # modes sharing a triple share its faces


def _interior_point(a, ub, x, quad=None):
    """min t + TIE_BREAK mean_k q_k(theta) s.t. a x <= ub and q_k(theta) <= t over
    x = (theta, t), from a strictly feasible x, by the primal-dual interior-point
    method of Boyd & Vandenberghe, *Convex Optimization*, sec. 11.7.

    ``quad`` = (c, b, P) holds the convex quadratics of :func:`_affine_program`,
    scaled to losses of order one; None makes the linear program of a phase I,
    which returns as soon as t < 0 by more than the duality gap.  Each Newton
    step solves the symmetric primal-dual system in (x, lambda): the system
    reduced to x alone would carry the inverse slacks of the binding
    constraints, up to 1e14, into its condition number, and stall short of the
    tolerance.  The method stops once the surrogate duality gap and the norm
    of the dual residual are below ``_IP_TOL``, and returns the point, the
    number of distinct points at which the constraints were evaluated,
    line-search trials included, and whether it so stopped within
    ``IP_MAX_ITER`` iterations.
    """
    n, phase_one = x.size, quad is None
    c0, b, p = quad if quad is not None else (np.zeros(0), np.zeros((0, n - 1)),
                                              np.zeros((0, n - 1, n - 1)))
    k = len(c0)
    weight = TIE_BREAK / k if k else 0.0
    rows = np.vstack([np.zeros((k, n)), a])
    rows[:k, -1] = -1.0
    m = len(rows)

    def evaluate(x):  # constraint values f < 0, their gradients, the cost gradient
        theta, df = x[:-1], rows.copy()
        pt = p @ theta
        df[:k, :-1] = b + 2.0 * pt
        g0 = np.append(weight * df[:k, :-1].sum(axis=0), 1.0)
        return np.concatenate([c0 + (b + pt) @ theta - x[-1], a @ x - ub]), df, g0

    def residual(state, lam, tau):
        f, df, g0 = state
        return np.concatenate([g0 + df.T @ lam, -lam * f - 1.0 / tau])

    state, n_evals = evaluate(x), 1
    lam = 1.0 / -state[0]
    lam /= lam @ -rows[:, -1]  # the t row of the dual residual vanishes
    kkt = np.zeros((n + m, n + m))
    kkt[:n, n:], kkt[n:, :n] = rows.T, rows
    diag = np.arange(n, n + m)
    for _ in range(IP_MAX_ITER):
        f, df, g0 = state
        gap = -f @ lam
        if phase_one and x[-1] + gap <= 0.0:  # within half the least t, or better
            return x, n_evals, True
        if gap <= _IP_TOL and np.linalg.norm(g0 + df.T @ lam) <= _IP_TOL:
            return x, n_evals, True
        tau = _IP_MU * m / gap
        kkt[:n - 1, :n - 1] = 2.0 * np.einsum("k,kqr->qr", weight + lam[:k], p)
        kkt[:n - 1, n:n + k], kkt[n:n + k, :n - 1] = df[:k, :-1].T, df[:k, :-1]
        kkt[diag, diag] = f / lam
        step = np.linalg.solve(kkt, np.concatenate([-(g0 + df.T @ lam),
                                                    -f - 1.0 / (tau * lam)]))
        dx, dlam = step[:n], step[n:]
        shrink = dlam < 0.0
        s = 0.99 * min(1.0, np.min(-lam[shrink] / dlam[shrink], initial=1.0))
        r0 = np.linalg.norm(residual(state, lam, tau))
        for _ in range(50):  # backtracking, to a step of 2^-50
            trial = evaluate(x + s * dx)
            n_evals += 1
            if (np.all(trial[0] < 0.0) and np.linalg.norm(residual(trial, lam + s * dlam, tau))
                    <= (1.0 - _IP_ALPHA * s) * r0):
                break
            s *= _IP_BETA
        else:
            return x, n_evals, False
        x, lam, state = x + s * dx, lam + s * dlam, trial
    return x, n_evals, False


def _fit_affine(model: SpectralModel, moments: np.ndarray, start=None):
    # min t + eta mean_k q_k(theta) s.t. q_k(theta) <= t, the causal faces and
    # the box: convex, since each q_k is, and on the closed tetrahedron the
    # causal sigma2 is the model's.  The start is the box centre, or ``start``,
    # when it is strictly causal, else the point of a phase I.  Coordinates that
    # no mode reads stay at their box midpoint
    (c0, b, p), faces, read = _affine_program(model, moments)
    theta_hat = model.theta_box.mean(axis=1)
    box = model.theta_box[read]
    lin = np.vstack([faces, np.eye(len(box)), -np.eye(len(box))])
    ub = np.concatenate([np.ones(len(faces)), box[:, 1], -box[:, 0]])
    theta = box.mean(axis=1) if start is None else np.asarray(start, dtype=float)[read]
    worst = np.max(faces @ theta)
    if worst >= 1.0:  # phase I: min s s.t. A theta - s <= 1 inside the box
        s_col = np.where(np.arange(len(lin)) < len(faces), -1.0, 0.0)[:, None]
        x, _, _ = _interior_point(np.hstack([lin, s_col]), ub, np.append(theta, worst))
        if x[-1] >= 0.0:
            raise ParameterDomainError("the theta box holds no causal parameter")
        theta = x[:-1]
    scale = c0.max() if c0.max() > 0.0 else 1.0  # the loss at theta = 0 is of order one
    c0, b, p = c0 / scale, b / scale, p / scale
    x, n_evals, converged = _interior_point(
        np.hstack([lin, np.zeros((len(lin), 1))]), ub,
        np.append(theta, (c0 + (b + p @ theta) @ theta).max() + 1.0), (c0, b, p))
    theta_hat[read] = x[:-1]
    return theta_hat, n_evals, converged


def estimate(model: SpectralModel, sample: CoeffField,
             loss_tol: float = 1e-10) -> ThetaEstimate:
    """Minimize the Whittle sup loss over the parameter box and the causal set.

    ``sample`` is the field, read by :func:`trig_moments`.
    ``AFFINE_FAMILIES`` take the interior-point solve of :func:`_fit_affine`
    over the box and the closed causal tetrahedron of every mode, from the
    box centre, or from a phase I point when the centre is not strictly
    causal; a box without a strictly causal point raises
    :class:`ParameterDomainError`.  ``converged`` means that the duality gap
    and the dual residual met their tolerance within ``IP_MAX_ITER``
    iterations, and ``n_loss_evals`` counts the distinct points at which the
    losses were evaluated, line-search trials included.  example2 takes one
    SLSQP epigraph solve from the box centre with exact loss gradients;
    ``loss_tol`` is that solve's ``ftol`` and is read by no other family.
    example1 is minimized exactly, over the candidates of
    :func:`_fit_example1` (the box ends, the points where a mode's C2
    variance changes form, and the stationary points and crossings of the
    mode losses); ``n_loss_evals`` is their number, and the fit always
    converges.  Every family adds ``TIE_BREAK`` times the mean-over-modes
    loss to the sup loss, and example1's ties go to the least theta;
    ``n_loss_evals`` counts one more evaluation for the pure sup loss at the
    optimum, which is the reported ``loss_at_min``.  The model's innovation
    variances are the C2 ones, so a field whose innovation sd is a known s_k
    is fitted as ``sample`` divided by s_k.
    """
    t0 = time.perf_counter()
    moments = _sample_moments(model, sample)
    if model.family == "example1":
        theta_hat, n_evals, success = _fit_example1(model, moments)
    elif model.family in AFFINE_FAMILIES:
        theta_hat, n_evals, success = _fit_affine(model, moments)
    else:
        theta_hat, n_evals, success = _fit_slsqp(model, moments, loss_tol)
    pure = float(_mode_losses(model.eig_triples(theta_hat), moments).max())
    return ThetaEstimate(theta_hat=theta_hat, loss_at_min=pure, n_loss_evals=n_evals + 1,
                         converged=bool(success), family=model.family,
                         runtime_s=time.perf_counter() - t0)
