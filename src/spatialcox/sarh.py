"""SARH(1) eigenvalue families, causality, C2 normalization and lattice simulation.

Per mode k the coefficient field follows the quarter-plane autoregression

    X_k(i, j) = l1 X_k(i-1, j) + l2 X_k(i, j-1) + l3 X_k(i-1, j-1) + eps_k(i, j)

with Gaussian white innovations, independent across modes and sites.  A
parameter family maps theta to the per-mode triples (l1, l2, l3).  The AR
polynomial D(z1, z2) = 1 - l1 z1 - l2 z2 - l3 z1 z2 is classified in closed
form through c = 1 + l1^2 - l2^2 - l3^2 and d = l1 + l2 l3, because on the
unit circle

    |1 - l1 e^{iw}|^2 - |l2 + l3 e^{iw}|^2 = c - 2 d cos w.

The row recursion is solved with a first-order linear filter along columns,
which is exact and keeps the sweep in compiled code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .basis import BasisSpec
from .errors import ParameterDomainError, StationarityError
from .field import CoeffField

THETA_BOX_EXAMPLE1 = np.array([[0.7, 4.0]])
THETA_BOX_EXAMPLE2 = np.array([[0.7, 1.3], [1.3, 1.9], [1.2, 1.8], [0.9, 1.5]])
TRIPLE_BOX = np.array([[-0.95, 0.95], [-0.95, 0.95], [-0.9, 0.9]])
DEFAULT_PMF_GROUPS = ((1, 3, 5), (7, 9))
FAMILIES = ("example1", "example2", "realdata_pmf", "triple", "custom")

# e^{iw} on the 2048-node rectangle rule over [-pi, pi) of the C2 band quadrature
_C2_NODES = np.exp(1j * (-np.pi + 2.0 * np.pi * np.arange(2048) / 2048))


def _theta_size(family: str, n_modes: int, groups) -> int:
    sizes = {"example1": 1, "example2": 4, "triple": 3, "custom": 3 * n_modes,
             "realdata_pmf": 3 * (1 + len(groups))}
    if family not in sizes:
        raise ParameterDomainError(f"unknown family {family!r}")
    return sizes[family]


def default_box(family: str, n_modes: int, groups=DEFAULT_PMF_GROUPS) -> np.ndarray:
    """Default theta box of a family, one closed interval per coordinate."""
    if family == "example1":
        return THETA_BOX_EXAMPLE1.copy()
    if family == "example2":
        return THETA_BOX_EXAMPLE2.copy()
    if family == "triple":
        return TRIPLE_BOX.copy()
    bound = 0.9 if family == "realdata_pmf" else 0.95
    return np.tile([-bound, bound], (_theta_size(family, n_modes, groups), 1))


def family_triples(family: str, theta, n_modes: int, groups=DEFAULT_PMF_GROUPS) -> np.ndarray:
    """Eigenvalue triples (l1, l2, l3) of the modes k = 1..M, shape (M, 3).

    example1 : l1 = th^2/(pi^2 k^1.1), l2 = th^2/(pi^2 k^1.2), l3 = -l1*l2,
        with th in [0.7, 4].
    example2 : l_q = th_{q,1}/(k + th_{q,2}), l3 = -l1*l2, with theta =
        (th_{1,1}, th_{1,2}, th_{2,1}, th_{2,2}) in ``THETA_BOX_EXAMPLE2``.
    triple : one triple theta shared by every mode.
    custom : per-mode triples, theta of length 3*M.
    realdata_pmf : point-spectra model l_{k,i} = theta_{i,1} +
        |sin(k pi/2)| theta_{i,2}(group(k)).  For each operator i = 1..3,
        theta holds the base theta_{i,1} followed by one theta_{i,2} per
        group (operator-major).  Even k, and odd k outside every group,
        reduce to the base values; the first group holding k wins.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    size = _theta_size(family, n_modes, groups)
    if theta.size != size:
        raise ParameterDomainError(f"{family} theta must have length {size}")
    ks = np.arange(1, n_modes + 1, dtype=float)
    if family in ("example1", "example2"):
        box = THETA_BOX_EXAMPLE1 if family == "example1" else THETA_BOX_EXAMPLE2
        if not all(lo <= v <= hi for v, (lo, hi) in zip(theta.tolist(), box.tolist())):
            raise ParameterDomainError(f"theta={theta} outside the {family} box")
        if family == "example1":
            l1 = theta[0] ** 2 / (np.pi**2 * ks**1.1)
            l2 = theta[0] ** 2 / (np.pi**2 * ks**1.2)
        else:
            l1 = theta[0] / (ks + theta[1])
            l2 = theta[2] / (ks + theta[3])
        return np.stack([l1, l2, -l1 * l2], axis=1)
    if family == "triple":
        return np.tile(theta, (n_modes, 1))
    if family == "custom":
        return theta.reshape(n_modes, 3)
    base_delta = theta.reshape(3, 1 + len(groups))
    delta = np.zeros((n_modes, 3))
    for g in reversed(range(len(groups))):
        delta[np.isin(ks, groups[g])] = base_delta[:, 1 + g]
    return base_delta[:, 0] + np.abs(np.sin(ks * np.pi / 2.0))[:, None] * delta


def _torus_cd(triples):
    # the triples as rows, and c, d of |1 - l1 e^{iw}|^2 - |l2 + l3 e^{iw}|^2 = c - 2 d cos w
    t = np.atleast_2d(np.asarray(triples, dtype=float))
    l1, l2, l3 = t[:, 0], t[:, 1], t[:, 2]
    return t, 1.0 + l1**2 - l2**2 - l3**2, l1 + l2 * l3


def _has_torus_zero(triples) -> np.ndarray:
    """Per row: D vanishes somewhere on the unit torus, i.e. |c| <= 2|d|."""
    _, c, d = _torus_cd(triples)
    return np.abs(c) <= 2.0 * np.abs(d)


def is_causal(triples) -> np.ndarray:
    """Per row: D has no zero on the closed unit bidisk (Basu & Reinsel, 1993).

    For |z1| <= 1 the zero of D in z2 is (1 - l1 z1) / (l2 + l3 z1).  It lies
    outside the closed unit disk for every such z1 iff |l1| < 1, so that the
    ratio has no pole there, and |1 - l1 z1| > |l2 + l3 z1| on |z1| = 1, by
    the maximum principle; the latter reads c > 2|d|.
    """
    t, c, d = _torus_cd(triples)
    return (np.abs(t[:, 0]) < 1.0) & (c > 2.0 * np.abs(d))


def c2_innovation_var(triples) -> np.ndarray:
    """Per-row (2 pi)^2 sigma2 that C2-normalizes the rational spectral density.

    sigma2 = (2 pi)^-2 exp(mean log|D|^2) over the torus.  With A = 1 - l1 e^{iw1}
    and B = l2 + l3 e^{iw1}, the inner w2 mean of log|A - B e^{iw2}|^2 is
    2 log max(|A|, |B|), and |A|^2 - |B|^2 = c - 2 d cos w1.  Where c >= 2|d|
    the maximum is |A| for every w1 and Jensen's formula gives max(1, |l1|)^2;
    where c <= -2|d| it is |B| and gives max(|l2|, |l3|)^2.  Causal and
    separable (l3 = -l1*l2) triples are all of this kind, causal ones giving 1.
    Only inside the band |c| < 2|d|, where D vanishes on the torus, is the w1
    mean a 2048-node rectangle rule.
    """
    t, c, d = _torus_cd(triples)
    d2 = 2.0 * np.abs(d)
    out = np.maximum(1.0, np.abs(t[:, 0])) ** 2
    rest = c < d2
    if rest.any():
        out[rest] = np.maximum(np.abs(t[rest, 1]), np.abs(t[rest, 2])) ** 2
        band = rest & (c > -d2)
        if band.any():
            a = np.abs(1.0 - t[band, :1] * _C2_NODES)
            b = np.abs(t[band, 1:2] + t[band, 2:] * _C2_NODES)
            out[band] = np.exp(np.mean(2.0 * np.log(np.maximum(np.maximum(a, b), 1e-300)),
                                       axis=1))
    return out


def c2_innovation_sd(triples) -> np.ndarray:
    """Innovation standard deviations making the field's spectral family C2-normalized.

    The square root of :func:`c2_innovation_var`; 1 for every causal triple.
    """
    return np.sqrt(c2_innovation_var(triples))


@dataclass(frozen=True)
class Sarh1Params:
    """Parameters of the per-mode SARH(1) recursions.

    family : {"example1", "example2", "custom"}
    theta : parameter vector (length 1, 4, or 3*M for "custom" per-mode triples)
    n_modes : M
    noise_sd : per-mode innovation standard deviations, or None for the
        C2-normalizing defaults from :func:`c2_innovation_sd`.
    """

    family: str
    theta: np.ndarray
    n_modes: int
    noise_sd: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta", np.atleast_1d(np.asarray(self.theta, dtype=float)))
        if self.family not in ("example1", "example2", "custom"):
            raise ParameterDomainError(f"unknown family {self.family!r}")
        if self.family == "custom" and self.theta.size != 3 * self.n_modes:
            raise ParameterDomainError("custom family needs 3*M theta entries")
        if self.noise_sd is not None:
            sd = np.asarray(self.noise_sd, dtype=float)
            if sd.shape != (self.n_modes,) or np.any(sd < 0):
                raise ParameterDomainError("noise_sd must be M nonnegative values")
            object.__setattr__(self, "noise_sd", sd)

    def eig_triples(self) -> np.ndarray:
        """Eigenvalue triples (l1, l2, l3) per mode, shape (M, 3)."""
        return family_triples(self.family, self.theta, self.n_modes)

    def innovation_sd(self) -> np.ndarray:
        if self.noise_sd is not None:
            return self.noise_sd
        return c2_innovation_sd(self.eig_triples())


def simulate_sarh1(params: Sarh1Params, dims, burn_in: int = 100,
                   seed: int = 0, basis: BasisSpec | None = None) -> CoeffField:
    """Generate a stationary zero-mean Gaussian SARH(1) coefficient field.

    A margin of ``burn_in`` rows and columns is generated with zero boundary
    initialization and discarded, leaving the requested ``dims`` block.  The
    output is bit-identical for fixed (params, dims, burn_in, seed).  A mode
    whose triple is not causal (:func:`is_causal`) would make the recursion
    diverge, so it raises :class:`StationarityError` with the first such
    mode index.
    """
    n1, n2 = int(dims[0]), int(dims[1])
    if n1 < 2 or n2 < 2:
        raise ParameterDomainError("dims must be at least (2, 2)")
    if burn_in < 0:
        raise ParameterDomainError("burn_in must be >= 0")
    triples = params.eig_triples()
    bad = np.flatnonzero(~is_causal(triples))
    if bad.size:
        k = int(bad[0])
        raise StationarityError(
            f"mode {k + 1}: AR polynomial of {tuple(triples[k].tolist())} vanishes on "
            "the closed unit bidisk", mode=k + 1)

    sds = params.innovation_sd()
    rng = np.random.default_rng(seed)
    r1, r2 = n1 + burn_in, n2 + burn_in
    out = np.empty((n1, n2, params.n_modes))
    for k in range(params.n_modes):
        l1, l2, l3 = triples[k]
        eps = rng.normal(0.0, sds[k], size=(r1, r2))
        x = np.zeros((r1, r2))
        prev = np.zeros(r2)
        for i in range(r1):
            b = eps[i]
            b += l1 * prev
            b[1:] += l3 * prev[:-1]
            # X(i, j) = l2 X(i, j-1) + b(j): first-order recursion along the row
            x[i] = lfilter([1.0], [1.0, -l2], b)
            prev = x[i]
        out[:, :, k] = x[burn_in:, burn_in:]
    if basis is None:
        basis = BasisSpec(support_length=1.0, n_modes=params.n_modes)
    return CoeffField(out, basis)
