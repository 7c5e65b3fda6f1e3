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
mode's loss is a PSD quadratic form.  example1 is fitted exactly, over the
real roots of a few polynomials in theta^2.  Every other family takes one
trust-region loop whose steps each solve, by a numpy interior-point method,
the convex program over the exact losses of the triple map linearised at
the step's start; for ``AFFINE_FAMILIES``, whose triples are affine in
theta, that model is the losses and one step final.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterDomainError, check_finite
from .field import CoeffField, _write_json
from .sarh import (_GRAM, _LAGS, AFFINE_FAMILIES, CAUSAL_FACES, TWO_PI_SQ, SpectralModel,
                   _gram_form, _inverse_functional, family_jacobian, family_triples)

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
    check_finite(moments, ParameterDomainError,
                 "the field's periodogram moments are not finite: its values are too large")
    return moments


# the loss of mode k is sarh._inverse_functional at the Gram arrays G_k of the
# periodogram averages: a PSD form a' G_k a in a = (1, -l1, -l2, -l3) over the
# C2 sigma2_k of the triple, the model's; the sample's (M, 4, 4) G_k are expanded here once
def _sample_gram(model: SpectralModel, sample: CoeffField) -> np.ndarray:
    moments = trig_moments(sample)
    if model.n_modes != moments.shape[0]:
        raise ParameterDomainError("model and sample mode counts differ")
    return moments[:, _GRAM]


def whittle_loss(model: SpectralModel, theta, sample: CoeffField) -> float:
    """max over modes k <= M of the Fourier-grid average of I_w(phi_k)/F_{w,theta}(phi_k),
    with I the periodogram of the field ``sample``, read through :func:`trig_moments`."""
    gram = _sample_gram(model, sample)
    triples = model.eig_triples(theta)  # checks theta's length before the box
    if not model.contains(theta):
        raise ParameterDomainError("theta outside the parameter box")
    return float(_inverse_functional(triples, gram).max())


# ---------------------------------------------------------------------------
# estimation


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
        return _write_json(path, {**asdict(self), "theta_hat": np.asarray(self.theta_hat).tolist()})


def _example1_pieces(model: SpectralModel):
    """example1 in s = theta^2: the mode constants (c1, c2) of the triples
    (c1 s, c2 s, -c1 c2 s^2), read from the family at theta = 1, and the s-box
    cut at every s = 1/c1_k and 1/c2_k inside it into pieces (edges (P+1,)).
    On a piece the separable C2 variance max(1, l1)^2 max(1, l2)^2 of mode k is
    the monomial coef[p, k] s^power[p, k], power 0, 2 or 4."""
    c1, c2, _ = family_triples("example1", [1.0], model.n_modes).T
    lo, hi = model.theta_box[0] ** 2
    breaks = np.concatenate([1.0 / c1, 1.0 / c2])
    # return_inverse skips np.unique's masked-array test, whose first call imports numpy.ma
    edges = np.unique(np.concatenate([[lo, hi], breaks[(breaks > lo) & (breaks < hi)]]),
                      return_inverse=True)[0]
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


def _fit_example1(model: SpectralModel, gram: np.ndarray):
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
    quartic = np.einsum("kpi,kij,kqj->kpq", basis, gram, basis).reshape(m, 9)
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
    losses = _inverse_functional(triples, np.tile(gram, (len(theta), 1, 1))).reshape(-1, m)
    best = int(np.argmin(losses.max(axis=1) + TIE_BREAK * losses.mean(axis=1)))
    return theta[best:best + 1], len(theta), True


# the interior-point cap (seeded affine fits take 17-34 iterations), its tolerance at
# losses of order one, the share of a trust-region step's model decrease it may leave
# unsolved, and Boyd & Vandenberghe's centring and line-search constants
IP_MAX_ITER = 100
_IP_TOL, _IP_RATIO = 1e-13, 0.1
# the exact losses are PSD forms, >= 0, so an exact fit with an objective below this is that
# near optimal: on a rank-one sample the gap test stalls (custom at 4 modes: 3e-13)
_IP_ZERO = 1e-12
_IP_MU, _IP_ALPHA, _IP_BETA = 10.0, 0.01, 0.5
# the trust-region cap, step (in box widths) and decrease rules, and the shares of the
# predicted decrease below which a step is refused and the radius shrinks
TR_MAX_ITER = 50
_TR_STEP_TOL, _TR_DECREASE_TOL = 1e-10, 1e-13
_TR_ACCEPT, _TR_SHRINK = 0.1, 0.25


def _local_model(model: SpectralModel, gram: np.ndarray, theta, read):
    """The mode losses times the causal sigma2, 1/(2 pi)^2, as quadratics c_k + b_k.d +
    d' P_k d in the step d of the ``read`` coordinates, (c, b, P), and the faces
    linearised, rows [A, m] of A d <= m.  Each quadratic is the exact loss a' G_k a of the
    linearised triple map l_k + J_k d, a = (1, -(l_k + J_k d)): with g_k = -2 (G_k a)[1:]
    of :func:`_gram_form`, b_k = J_k' g_k and P_k = J_k' G_k[1:, 1:] J_k, PSD as G_k is
    (the Gauss-Newton model; Nocedal & Wright, ch. 10), and for the affine families,
    whose triples are J theta, the losses themselves."""
    triples = model.eig_triples(theta)
    c, grad = _gram_form(triples, gram)
    jac = family_jacobian(model.family, theta, model.n_modes)[..., read]
    p = np.einsum("kiq,kij,kjr->kqr", jac, gram[:, 1:, 1:], jac)
    faces = np.einsum("fi,kiq->kfq", CAUSAL_FACES, jac).reshape(-1, jac.shape[-1])
    # modes sharing a triple share its faces; return_inverse, as in _example1_pieces
    lin = np.unique(np.hstack([faces, (1.0 - triples @ CAUSAL_FACES.T).reshape(-1, 1)]),
                    axis=0, return_inverse=True)[0]
    return (c, np.einsum("kiq,ki->kq", jac, grad), p), lin


def _interior_point(a, ub, x, quad=None, target=None):
    """min t + TIE_BREAK mean_k q_k(theta) s.t. a x <= ub and q_k(theta) <= t over
    x = (theta, t), from a strictly feasible x, by the primal-dual interior-point
    method of Boyd & Vandenberghe, *Convex Optimization*, sec. 11.7.

    ``quad`` = (c, b, P) holds :func:`_local_model`'s quadratics at losses of order one;
    None makes the linear program of a phase I, which returns once t < 0 by more than the
    gap.  Each Newton step solves the symmetric system in (x, lambda), whose x-only form
    carries inverse slacks up to 1e14, and is taken once it cuts the primal-dual residual
    or, given a trust-region step's ``target`` objective, the barrier function by the
    Armijo share: where many constraints bind with nearly parallel gradients the
    multipliers swing, and the residual alone lets steps crawl.  It stops once the gap
    and the dual residual are below ``_IP_TOL`` or ``_IP_RATIO`` times the decrease from
    ``target``, or without one (the exact losses) once the objective is below ``_IP_ZERO``.
    It returns the point, the number of points evaluated and whether it so stopped.
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
        return np.linalg.norm(np.concatenate([g0 + df.T @ lam, -lam * f - 1.0 / tau]))

    def barrier(state, x, tau):  # the cost less the log barrier at 1/tau
        return x[-1] + weight * (state[0][:k] + x[-1]).sum() - np.log(-state[0]).sum() / tau

    state, n_evals = evaluate(x), 1
    lam = 1.0 / -state[0]
    lam /= lam @ -rows[:, -1]  # the t row of the dual residual vanishes
    kkt = np.zeros((n + m, n + m))
    kkt[:n, n:], kkt[n:, :n] = rows.T, rows
    diag = np.arange(n, n + m)
    for _ in range(IP_MAX_ITER):
        f, df, g0 = state
        gap, tol = -f @ lam, _IP_TOL
        if phase_one and x[-1] + gap <= 0.0:  # within half the least t, or better
            return x, n_evals, True
        objective = x[-1] + weight * (f[:k] + x[-1]).sum()  # q_k = f_k + t
        if target is not None:
            tol = max(tol, _IP_RATIO * (target - objective))
        elif not phase_one and objective <= _IP_ZERO:
            return x, n_evals, True
        if gap <= tol and np.linalg.norm(g0 + df.T @ lam) <= tol:
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
        r0 = residual(state, lam, tau)
        for _ in range(30):  # backtracking, to a step of 2^-30
            trial = evaluate(x + s * dx)
            n_evals += 1
            if np.all(trial[0] < 0.0) and (
                    residual(trial, lam + s * dlam, tau) <= (1.0 - _IP_ALPHA * s) * r0
                    or target is not None
                    and barrier(trial, x + s * dx, tau) - barrier(state, x, tau)
                    <= _IP_ALPHA * s * min(0.0, (g0 + df.T @ (1.0 / (tau * -f))) @ dx)):
                break
            s *= _IP_BETA
        else:
            return x, n_evals, False
        x, lam, state = x + s * dx, lam + s * dlam, trial
    return x, n_evals, False


def _fit_trust_region(model: SpectralModel, gram: np.ndarray, start=None):
    # min max_k l_k + eta mean_k l_k over the box and the closed causal set by trust-region
    # steps (Nocedal & Wright, ch. 4, 18), each min t + eta mean_k q_k s.t. q_k <= t in the
    # box, |d| <= radius * width and the linearised faces; an exact model's step is final.  The
    # start: the box centre, ``start`` or a phase I point; unread coordinates keep the midpoint
    def merit(q):
        return q.max() + TIE_BREAK * q.mean()

    def rows(t_coef):  # the faces, then the box, over x = (d, t)
        return np.hstack([np.vstack([lin[:, :-1], fence]),
                          np.r_[np.full(len(lin), t_coef), np.zeros(len(fence))][:, None]])

    box = model.theta_box
    theta = box.mean(axis=1)
    read = family_jacobian(model.family, theta, model.n_modes).any(axis=(0, 1))
    if start is not None:
        theta[read] = np.asarray(start, dtype=float)[read]
    lo, hi = box[read].T
    width, fence = hi - lo, np.vstack([np.eye(read.sum()), -np.eye(read.sum())])
    exact = model.family in AFFINE_FAMILIES  # the model is then the losses themselves
    quad, lin = _local_model(model, gram, theta, read)
    if lin[:, -1].min() <= 0.0:  # phase I: min s s.t. A d - s <= m inside the box
        x, _, _ = _interior_point(rows(-1.0), np.r_[lin[:, -1], hi - theta[read], theta[read] - lo],
                                  np.append(np.zeros(len(width)), 1.0 - lin[:, -1].min()))
        if x[-1] >= 0.0:
            raise ParameterDomainError("the theta box holds no causal parameter")
        theta[read] += x[:-1]
        quad, lin = _local_model(model, gram, theta, read)
    radius, n_evals = 1.0, 0
    for _ in range(TR_MAX_ITER):
        scale = quad[0].max() if quad[0].max() > 0.0 else 1.0  # losses of order one
        c, b, p = (x / scale for x in quad)
        upper, lower = (np.minimum(g, radius * width) for g in (hi - theta[read], theta[read] - lo))
        inset = 0.01 * (upper + lower)  # a start strictly inside the box, if theta is on it
        d = np.clip(0.0, inset - lower, upper - inset)
        d *= np.all(lin[:, :-1] @ d < lin[:, -1])  # unless that leaves a causal face
        x, evals, ok = _interior_point(rows(0.0), np.r_[lin[:, -1], upper, lower],
                                       np.append(d, (c + (b + p @ d) @ d).max() + 1.0),
                                       (c, b, p), None if exact else merit(c))
        n_evals, d = n_evals + evals, x[:-1]
        if exact:
            theta[read] += d
            return theta, n_evals, ok
        trial = theta.copy()
        trial[read] = np.clip(theta[read] + d, lo, hi)
        trial_model = _local_model(model, gram, trial, read)
        n_evals, step = n_evals + 1, np.max(np.abs(d) / width)
        predicted = merit(c) - merit(c + (b + p @ d) @ d)
        actual = merit(c) - merit(trial_model[0][0] / scale)
        if actual > max(_TR_ACCEPT * predicted, 0.0):
            theta, (quad, lin) = trial, trial_model
        radius = _TR_SHRINK * step if actual < _TR_SHRINK * predicted else min(2 * radius, 1.0)
        if predicted <= _TR_DECREASE_TOL or step <= _TR_STEP_TOL:  # the decrease and step rules
            return theta, n_evals, True
    return theta, n_evals, False


def estimate(model: SpectralModel, sample: CoeffField) -> ThetaEstimate:
    """Minimize the Whittle sup loss over the parameter box and the causal set.

    ``sample`` is the field, read by :func:`trig_moments`.  example1 is minimized
    exactly, over the candidates of :func:`_fit_example1` (the box ends, the points
    where a mode's C2 variance changes form, and the stationary points and crossings
    of the mode losses), and always converges.  Every other family takes
    :func:`_fit_trust_region` over the box and the closed causal tetrahedron of every
    mode; a box without a strictly causal point raises :class:`ParameterDomainError`.
    ``converged`` means that its loop met the step or decrease rule within
    ``TR_MAX_ITER`` steps, for the affine families that their one interior-point
    solve met its tolerance.  ``n_loss_evals`` counts the distinct points at which
    the losses or their models were evaluated, and one more for the pure sup loss at
    the optimum, ``loss_at_min``.  Every family adds ``TIE_BREAK`` times the mean
    loss to the sup loss; example1's ties go to the least theta.  The innovation
    variances are the C2 ones: a field of known innovation sd s_k is fitted divided
    by s_k.
    """
    t0 = time.perf_counter()
    gram = _sample_gram(model, sample)
    fit = _fit_example1 if model.family == "example1" else _fit_trust_region
    theta_hat, n_evals, success = fit(model, gram)
    pure = float(_inverse_functional(model.eig_triples(theta_hat), gram).max())
    return ThetaEstimate(theta_hat=theta_hat, loss_at_min=pure, n_loss_evals=n_evals + 1,
                         converged=bool(success), family=model.family,
                         runtime_s=time.perf_counter() - t0)
