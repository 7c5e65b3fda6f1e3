"""SARH(1) parameter families, causality, C2 normalization and lattice simulation.

Per mode k the coefficient field follows the quarter-plane autoregression

    X_k(i, j) = l1 X_k(i-1, j) + l2 X_k(i, j-1) + l3 X_k(i-1, j-1) + eps_k(i, j)

with Gaussian white innovations, independent across modes and sites.  A
parameter family maps theta to the per-mode triples (l1, l2, l3).  The AR
polynomial D(z1, z2) = 1 - l1 z1 - l2 z2 - l3 z1 z2 is classified in closed
form through c = 1 + l1^2 - l2^2 - l3^2 and d = l1 + l2 l3, because on the
unit circle

    |1 - l1 e^{iw}|^2 - |l2 + l3 e^{iw}|^2 = c - 2 d cos w.

The row recursion is solved with a first-order linear filter along columns,
which is exact and keeps the sweep in compiled code.  :class:`SpectralModel`
is the one model type of the package: simulation, estimation, covariances
and prediction all read families, boxes and innovation variances from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .basis import BasisSpec
from .errors import ParameterDomainError, StationarityError
from .field import CoeffField

TWO_PI_SQ = (2.0 * np.pi) ** 2
THETA_BOX_EXAMPLE1 = np.array([[0.7, 4.0]])
THETA_BOX_EXAMPLE2 = np.array([[0.7, 1.3], [1.3, 1.9], [1.2, 1.8], [0.9, 1.5]])
TRIPLE_BOX = np.array([[-0.95, 0.95], [-0.95, 0.95], [-0.9, 0.9]])
DEFAULT_PMF_GROUPS = ((1, 3, 5), (7, 9))
FAMILIES = ("example1", "example2", "realdata_pmf", "triple", "custom")
# the families whose theta -> triples map is affine
AFFINE_FAMILIES = ("triple", "custom", "realdata_pmf")

# Stationarity: a triple t is causal iff CAUSAL_FACES @ t < 1 row by row, the
# open tetrahedron with vertices (1,1,-1), (1,-1,1), (-1,1,1) and (-1,-1,-1).
# With c and d of the module docstring, c - 2d = (1 - l1)^2 - (l2 + l3)^2 and
# c + 2d = (1 + l1)^2 - (l2 - l3)^2, so |l1| < 1 and c > 2|d| read
# 1 - l1 > |l2 + l3| and 1 + l1 > |l2 - l3|: four faces, which imply |l1| < 1.
CAUSAL_FACES = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                         [-1.0, -1.0, 1.0]])

# e^{iw} on the 2048-node rectangle rule over [-pi, pi) of the C2 band quadrature
_C2_NODES = np.exp(1j * (-np.pi + 2.0 * np.pi * np.arange(2048) / 2048))


def _theta_size(family: str, n_modes: int, groups) -> int:
    sizes = {"example1": 1, "example2": 4, "triple": 3, "custom": 3 * n_modes,
             "realdata_pmf": 3 * (1 + len(groups))}
    if family not in FAMILIES:  # a tuple test, so an unhashable family is unknown too
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


def family_jacobian(family: str, theta, n_modes: int, groups=DEFAULT_PMF_GROUPS) -> np.ndarray:
    """d triple_k / d theta, shape (M, 3, q), of example2 and the affine families
    (constant for these: the triples at the unit vectors less those at 0)."""
    if family in AFFINE_FAMILIES:
        eye = np.eye(_theta_size(family, n_modes, groups))
        return np.stack([family_triples(family, e, n_modes, groups)
                         - family_triples(family, 0 * e, n_modes, groups) for e in eye], axis=-1)
    if family != "example2":
        raise ParameterDomainError(f"no Jacobian for family {family!r}")
    # l_q = th_{q,1} r_q with r_q = 1/(k + th_{q,2}), and l3 = -l1 l2
    l1, l2, _ = family_triples(family, theta, n_modes, groups).T
    r1, r2 = 1.0 / (np.arange(1.0, n_modes + 1) + np.asarray(theta, dtype=float)[[1, 3], None])
    d1, d2 = np.zeros((2, n_modes, 4))
    d1[:, 0], d1[:, 1], d2[:, 2], d2[:, 3] = r1, -l1 * r1, r2, -l2 * r2
    return np.stack([d1, d2, -(d1 * l2[:, None] + l1[:, None] * d2)], axis=1)


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
    the maximum principle; the latter reads c > 2|d|.  Together they are the
    open tetrahedron ``CAUSAL_FACES @ t < 1``.
    """
    t = np.atleast_2d(np.asarray(triples, dtype=float))
    return np.all(t @ CAUSAL_FACES.T < 1.0, axis=1)


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


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """A SARH(1) parameter family: the one place that knows families, theta
    sizes and boxes, innovation variances and spectral densities.

    family : one of ``FAMILIES``; "triple" applies one eigenvalue triple
        theta = (l1, l2, l3) to every mode, "custom" takes theta of length 3*M
        (per-mode triples), see :func:`family_triples`.
    n_modes : truncation M
    theta_box : per-coordinate closed intervals lo < hi, shape (q, 2);
        None selects :func:`default_box`.
    noise_sd : per-mode innovation standard deviations of the recursion,
        shape (M,), finite and >= 0; None selects the C2-normalizing values of
        :func:`c2_innovation_var` at each theta (1 on the causal set).
    groups : tuple of tuples of odd mode indices sharing theta_{i,2} in the
        point-spectra model.

    Mode k has the spectral density sigma2_k / |D_k(e^{iw1}, e^{iw2})|^2 with
    sigma2 = innovation variance / (2 pi)^2, so that a white-noise mode has
    variance R_0 = noise_sd^2.  Bad fields raise :class:`ParameterDomainError`
    at construction.
    """

    family: str
    n_modes: int
    theta_box: np.ndarray = None
    noise_sd: np.ndarray | None = None
    groups: tuple = DEFAULT_PMF_GROUPS

    def __post_init__(self):
        q = _theta_size(self.family, self.n_modes, self.groups)
        box = self.theta_box
        if box is None:
            box = default_box(self.family, self.n_modes, self.groups)
        box = np.atleast_2d(np.asarray(box, dtype=float))
        if box.shape != (q, 2) or not np.all(box[:, 0] < box[:, 1]):
            raise ParameterDomainError(f"{self.family} theta box must be {q} intervals lo < hi")
        object.__setattr__(self, "theta_box", box)
        if self.noise_sd is not None:
            sd = np.asarray(self.noise_sd, dtype=float)
            if sd.shape != (self.n_modes,) or not np.all(np.isfinite(sd) & (sd >= 0)):
                raise ParameterDomainError(f"noise_sd must be {self.n_modes} finite values >= 0")
            object.__setattr__(self, "noise_sd", sd)

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

    def innovation_var(self, theta) -> np.ndarray:
        """Per-mode innovation variances: ``noise_sd``^2, or the C2-normalizing ones."""
        if self.noise_sd is not None:
            return self.noise_sd**2
        return c2_innovation_var(self.eig_triples(theta))

    def sigma2(self, theta) -> np.ndarray:
        """Per-mode spectral prefactors sigma^2_{eps(phi_k)} = innovation variance / (2 pi)^2."""
        return self.innovation_var(theta) / TWO_PI_SQ

    def density(self, theta, omega1, omega2, unit_sigma: bool = False) -> np.ndarray:
        """Spectral density values, shape broadcast(omega) + (M,)."""
        l1, l2, l3 = self.eig_triples(theta).T
        w1 = np.asarray(omega1, dtype=float)[..., None]
        w2 = np.asarray(omega2, dtype=float)[..., None]
        d2 = np.abs(1.0 - l1 * np.exp(1j * w1) - l2 * np.exp(1j * w2)
                    - l3 * np.exp(1j * (w1 + w2))) ** 2
        s2 = 1.0 if unit_sigma else self.sigma2(theta)
        with np.errstate(divide="ignore"):  # zeros surface as inf, callers guard
            return s2 / d2


@dataclass(frozen=True)
class Sarh1Params:
    """A point (model, theta) of a SARH(1) family, as :func:`simulate_sarh1` takes it.

    ``model`` is the :class:`SpectralModel` of (family, n_modes, noise_sd),
    built and checked at construction; theta is its parameter vector.
    """

    family: str
    theta: np.ndarray
    n_modes: int
    noise_sd: np.ndarray | None = None
    model: SpectralModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        model = SpectralModel(self.family, self.n_modes, noise_sd=self.noise_sd)
        object.__setattr__(self, "theta", np.atleast_1d(np.asarray(self.theta, dtype=float)))
        object.__setattr__(self, "noise_sd", model.noise_sd)
        object.__setattr__(self, "model", model)


def simulate_sarh1(params: Sarh1Params, dims, burn_in: int = 100,
                   seed: int = 0, basis: BasisSpec | None = None) -> CoeffField:
    """Generate a stationary zero-mean Gaussian SARH(1) coefficient field.

    Mode k follows the recursion of the module docstring with the triple of
    ``params.model`` at ``params.theta`` and innovations of standard
    deviation sqrt(``params.model.innovation_var(theta)``): ``noise_sd``, or
    exactly 1 on the causal set by default.  A margin of ``burn_in`` rows and
    columns is generated with zero boundary initialization and discarded,
    leaving the requested ``dims`` block.  The output is bit-identical for
    fixed (params, dims, burn_in, seed).  A mode whose triple is not causal
    (:func:`is_causal`) would make the recursion diverge, so it raises
    :class:`StationarityError` with the first such mode index.
    """
    n1, n2 = int(dims[0]), int(dims[1])
    if n1 < 2 or n2 < 2:
        raise ParameterDomainError("dims must be at least (2, 2)")
    if burn_in < 0:
        raise ParameterDomainError("burn_in must be >= 0")
    model = params.model
    triples = model.eig_triples(params.theta)
    bad = np.flatnonzero(~is_causal(triples))
    if bad.size:
        k = int(bad[0])
        raise StationarityError(
            f"mode {k + 1}: AR polynomial of {tuple(triples[k].tolist())} vanishes on "
            "the closed unit bidisk", mode=k + 1)

    sds = np.sqrt(model.innovation_var(params.theta))
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
