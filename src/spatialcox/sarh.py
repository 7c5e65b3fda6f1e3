"""SARH(1) parameter families, causality, C2 normalization and lattice simulation.

Per mode k the coefficient field follows the quarter-plane autoregression

    X_k(i, j) = l1 X_k(i-1, j) + l2 X_k(i, j-1) + l3 X_k(i-1, j-1) + eps_k(i, j)

with Gaussian white innovations, independent across modes and sites.  A
parameter family maps theta to the per-mode triples (l1, l2, l3).  The AR
polynomial D(z1, z2) = 1 - l1 z1 - l2 z2 - l3 z1 z2 is classified in closed
form through c = 1 + l1^2 - l2^2 - l3^2 and d = l1 + l2 l3, because on the
unit circle |1 - l1 e^{iw}|^2 - |l2 + l3 e^{iw}|^2 = c - 2 d cos w; the code
reads c -+ 2d only as products of the face margins of ``CAUSAL_FACES``.

The simulation has two kernels, chosen from the triples, that filter one
mode-major (M, n1, n2) buffer of innovations in place, the layout in which
the random generator fills it; the field is that buffer seen as (n1, n2, M),
a view, not a copy.  When every mode is separable, l3 == -l1*l2 exactly (all
of example1 and example2, and any triple or custom theta that factors),
D = (1 - l1 z1)(1 - l2 z2) and the field is
(1 - l1 B1)^-1 (1 - l2 B2)^-1 eps: one in-place AR(1) pass along j, then one
along i.  Otherwise X(i, j) needs only the anti-diagonals i + j - 1 and
i + j - 2, so the field is swept one anti-diagonal at a time, over all modes
at once; both start from the exact law of row 0 and column 0.  :class:`SpectralModel`
is the one model type of the package: simulation, estimation, covariances and
prediction all read families, boxes and innovation variances from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import BasisSpec
from .errors import (ParameterDomainError, ResolutionError, SingularSpectrumError,
                     StationarityError, check_dims, check_finite, check_int)
from .field import CoeffField

TWO_PI_SQ = (2.0 * np.pi) ** 2
THETA_BOX_EXAMPLE1 = np.array([[0.7, 4.0]])
THETA_BOX_EXAMPLE2 = np.array([[0.7, 1.3], [1.3, 1.9], [1.2, 1.8], [0.9, 1.5]])
TRIPLE_BOX = np.array([[-0.95, 0.95], [-0.95, 0.95], [-0.9, 0.9]])
DEFAULT_PMF_GROUPS = ((1, 3, 5), (7, 9))
FAMILIES = ("example1", "example2", "realdata_pmf", "triple", "custom")
# the families whose theta -> triples map is affine
AFFINE_FAMILIES = ("triple", "custom", "realdata_pmf")

# Stationarity: a triple t is causal iff its face margins m = 1 - CAUSAL_FACES @ t
# are all positive, the open tetrahedron with vertices (1,1,-1), (1,-1,1),
# (-1,1,1) and (-1,-1,-1): c - 2d = (1 - l1)^2 - (l2 + l3)^2 = m0 m1 and
# c + 2d = (1 + l1)^2 - (l2 - l3)^2 = m2 m3, so |l1| < 1 and c > 2|d| read
# 1 - l1 > |l2 + l3| and 1 + l1 > |l2 - l3|: four faces, which imply |l1| < 1.
CAUSAL_FACES = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                         [-1.0, -1.0, 1.0]])
# the orientations c of D, (l1, l2, l3), (1, -l3, -l2) / l1, (-l3, 1, -l1) / l2, (-l2, -l1, 1)
# / l3: signed picks from e = (1, l1, l2, l3) over e[c], reflecting no lag axis, z1, z2 and
# both, so _PARITY[c] is the sign they give z1 z2
_PICK = np.array([[1, 2, 3], [0, 3, 2], [3, 0, 1], [2, 1, 0]])
_PICK_SIGN = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
_PARITY = np.array([1, -1, -1, 1])

# e^{iw} on the 2048-node rectangle rule over [-pi, pi) of the C2 band quadrature
_C2_NODES = np.exp(1j * (-np.pi + 2.0 * np.pi * np.arange(2048) / 2048))


def default_box(family: str, n_modes: int) -> np.ndarray:
    """Default theta box of a family, one closed interval per coordinate: the one
    table of the families, whose length is the theta size.  An unknown family
    raises :class:`ParameterDomainError`."""
    if family == "example1":
        return THETA_BOX_EXAMPLE1.copy()
    if family == "example2":
        return THETA_BOX_EXAMPLE2.copy()
    if family == "triple":
        return TRIPLE_BOX.copy()
    if family == "custom":
        return np.tile([-0.95, 0.95], (3 * n_modes, 1))
    if family == "realdata_pmf":
        return np.tile([-0.9, 0.9], (3 * (1 + len(DEFAULT_PMF_GROUPS)), 1))
    raise ParameterDomainError(f"unknown family {family!r}")


def family_triples(family: str, theta, n_modes: int) -> np.ndarray:
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
        group of ``DEFAULT_PMF_GROUPS`` (operator-major).  Even k, and odd k
        outside every group, reduce to the base values; the first group
        holding k wins.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n_modes = check_int(n_modes, "n_modes", 1)
    box = default_box(family, n_modes)
    if theta.size != len(box) or not np.all(np.isfinite(theta)):
        raise ParameterDomainError(f"{family} theta must be finite, of length {len(box)}")
    ks = np.arange(1, n_modes + 1, dtype=float)
    if family in ("example1", "example2"):
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
    base_delta = theta.reshape(3, 1 + len(DEFAULT_PMF_GROUPS))
    delta = np.zeros((n_modes, 3))
    for g in reversed(range(len(DEFAULT_PMF_GROUPS))):
        delta[np.isin(ks, DEFAULT_PMF_GROUPS[g])] = base_delta[:, 1 + g]
    return base_delta[:, 0] + np.abs(np.sin(ks * np.pi / 2.0))[:, None] * delta


def family_jacobian(family: str, theta, n_modes: int) -> np.ndarray:
    """d triple_k / d theta, shape (M, 3, q), of example2 and the affine families
    (constant for these, and their triples are J @ theta: each maps theta = 0 to the
    zero triple, so J holds the triples at the unit vectors, built once, read-only)."""
    if family in AFFINE_FAMILIES:
        return _affine_jacobian(family, check_int(n_modes, "n_modes", 1))
    if family != "example2":
        raise ParameterDomainError(f"no Jacobian for family {family!r}")
    # l_q = th_{q,1} r_q with r_q = 1/(k + th_{q,2}), and l3 = -l1 l2
    l1, l2, _ = family_triples(family, theta, n_modes).T
    r1, r2 = 1.0 / (np.arange(1.0, n_modes + 1) + np.asarray(theta, dtype=float)[[1, 3], None])
    d1, d2 = np.zeros((2, n_modes, 4))
    d1[:, 0], d1[:, 1], d2[:, 2], d2[:, 3] = r1, -l1 * r1, r2, -l2 * r2
    return np.stack([d1, d2, -(d1 * l2[:, None] + l1[:, None] * d2)], axis=1)


@lru_cache(maxsize=8)
def _affine_jacobian(family, n_modes):
    eye = np.eye(len(default_box(family, n_modes)))
    jac = np.stack([family_triples(family, e, n_modes) for e in eye], axis=-1)
    jac.setflags(write=False)
    return jac


# the lags h of the stencil's five cosines cos<h, w>, the order of _GRAM and trig_moments
_LAGS = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))


def _cosines(w1, w2) -> np.ndarray:
    """The five cosines (1, cos w1, cos w2, cos(w1+w2), cos(w1-w2)) stacked on axis 0."""
    return np.stack([np.cos(h1 * w1 + h2 * w2) for h1, h2 in _LAGS])


# mu[..., _GRAM] is G_k, the 4x4 form of a linear functional mu_k on the five
# cosines over the AR stencil: with a = (1, -l1, -l2, -l3) and e = (1, e^{iw1},
# e^{iw2}, e^{i(w1+w2)}), |D_k|^2 = |a.e|^2 = sum_ij a_i a_j cos(arg e_i - arg e_j),
# so mu_k(|D_k|^2) = a' G_k a; a caller holding the five values expands them once
_GRAM = np.array([[0, 1, 2, 3], [1, 0, 4, 2], [2, 4, 0, 1], [3, 2, 1, 0]])


def _gram_form(triples: np.ndarray, gram: np.ndarray):
    """Per row k, mu_k(|D_k|^2) = a' G_k a and its triple gradient -2 (G_k a)[1:],
    over the (K, 4, 4) Gram arrays G_k of the functionals mu_k, which callers expand once."""
    a = np.hstack([np.ones((triples.shape[0], 1)), -triples])
    ga = np.einsum("kij,kj->ki", gram, a)
    return np.einsum("ki,ki->k", a, ga), -2.0 * ga[:, 1:]


def _inverse_functional(triples: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Per row k, mu_k(1/F_k) = a' G_k a / sigma2_k with the C2 sigma2_k of the triple.
    1/F_k = |D_k|^2 / sigma2_k is a trigonometric polynomial of degree one in each
    frequency, so this one functional gives the Whittle mode losses (mu = periodogram
    averages) and the Fejer-smoothed inverse spectrum (mu = weighted point cosines)."""
    return _gram_form(triples, gram)[0] / (c2_innovation_var(triples) / TWO_PI_SQ)


def _gram_min(gram: np.ndarray) -> np.ndarray:
    """Per row k of (K, 4, 4) Gram arrays, min over all triples of a' G_k a = G_k[0, 0] -
    g' H^+ g, clamped at 0, with g = G_k[1:, 0] and H = G_k[1:, 1:]: the Yule-Walker
    prediction error of the stencil.  G_k is PSD for periodogram averages, so g lies in
    range(H) and the pseudo-inverse is exact for a singular H too; (2 pi)^2 times the
    minimum estimates mode k's innovation variance (Szego-Kolmogorov; Whittle, 1954)."""
    v, h_pinv = gram[:, 1:, 0], np.linalg.pinv(gram[:, 1:, 1:], hermitian=True)
    return np.maximum(gram[:, 0, 0] - np.einsum("ki,kij,kj->k", v, h_pinv, v), 0.0)


def _face_margins(triples):
    # the triples as rows, their face margins m and c - 2d = m0 m1, c + 2d = m2 m3: the
    # one form of every torus question; a causal row (all m > 0) has c -+ 2d > 0, so
    # no torus zero and C2 variance 1.  m = 1 - CAUSAL_FACES @ t is summed with the
    # TwoSum error of each addition (Ogita, Rump & Oishi, 2005), so that a margin near
    # a face is correct to about an ulp of itself, not of |l1| + |l2| + |l3|
    t = np.atleast_2d(np.asarray(triples, dtype=float))
    m, err = np.ones((t.shape[0], 4)), 0.0
    for x in -t.T[:, :, None] * CAUSAL_FACES.T[:, None, :]:  # exact products by +-1
        total = m + x
        back = total - m
        err = err + ((m - (total - back)) + (x - back))
        m = total
    m = m + err
    return t, m, m[:, 0] * m[:, 1], m[:, 2] * m[:, 3]


def _product_form(margins):
    """Per row of (K, 4) face margins: R_0, the lag-one correlations (rho1, rho2) along
    z1 and z2, and the sds sqrt(R_0 (1 - rho^2)) of the AR(1) chains they make.  A causal
    triple has R(i, -j) = R_0 rho1^i rho2^j for i, j >= 0: with s_f = sqrt(|m_f|), R_0 =
    1 / (s0 s1 s2 s3), rho1 = (s2 s3 - s0 s1) / (s2 s3 + s0 s1) and rho2 likewise of s1 s3
    and s0 s2.  The reflection that makes a triple causal divides every margin by -+l_c,
    so rho1, rho2 are those of its causal frame, and R_0 is that frame's over l_c^2."""
    s = np.sqrt(np.abs(margins))
    near = np.stack([s[:, 0] * s[:, 1], s[:, 0] * s[:, 2]], axis=1)  # corners z_j = 1
    far = np.stack([s[:, 2] * s[:, 3], s[:, 1] * s[:, 3]], axis=1)   # corners z_j = -1
    return 1.0 / (near[:, 0] * far[:, 0]), (far - near) / (far + near), 2.0 / (far + near)


def _separable(triples) -> np.ndarray:
    """Per row: l3 == -l1*l2 exactly, so D = (1 - l1 z1)(1 - l2 z2) factors, the field is
    two AR(1) filters and its covariances are R_0 rho1^|z1| rho2^|z2| at every lag."""
    l1, l2, l3 = np.asarray(triples, dtype=float).T
    return l3 == -l1 * l2


def _causal_frame(triples):
    """Per row: the orientation c in which D is causal, that frame's triple, the row's C2
    variance l_c^2 and the face margins of the one pass that all are read from.  Off the torus
    zero one frame is causal (Basu & Reinsel, 1993): frame c > 0 has margins 0 and c over -l_c
    and the other two over l_c, so c > 0 is the face whose margin has margin 0's sign.  A
    non-finite row or a torus zero raises :class:`SingularSpectrumError`; a frame that rounds
    out of the causal set, or an overflowing l_c^2, :class:`ResolutionError`."""
    t, m, lo, hi = _face_margins(triples)  # c -+ 2d of one strict sign: no torus zero
    if not np.all(ok := np.all(np.isfinite(t), axis=1) & (np.sign(lo) * np.sign(hi) > 0)):
        raise SingularSpectrumError(
            f"mode {np.argmin(ok) + 1}: AR polynomial of {tuple(t[np.argmin(ok)].tolist())} "
            "vanishes on the unit torus, so the spectral density is not integrable")
    c = np.where(np.all(m > 0, axis=1), 0, 1 + np.argmax((m[:, 1:] > 0) == (m[:, :1] > 0), axis=1))
    e = np.hstack([np.ones((t.shape[0], 1)), t])
    lc = np.take_along_axis(e, c[:, None], axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused, not warned
        frame = np.take_along_axis(e, _PICK[c], axis=1) * _PICK_SIGN[c] / lc
        if not np.all(found := is_causal(frame) & np.isfinite(scale := lc[:, 0] ** 2)):
            raise ResolutionError(f"mode {np.argmin(found) + 1}: no orientation is causal "
                                  "with a finite scale in floating point")
    return c, frame, scale, m


def is_causal(triples) -> np.ndarray:
    """Per row: D has no zero on the closed unit bidisk (Basu & Reinsel, 1993).

    For |z1| <= 1 the zero of D in z2 is (1 - l1 z1) / (l2 + l3 z1).  It lies
    outside the closed unit disk for every such z1 iff |l1| < 1, so that the
    ratio has no pole there, and |1 - l1 z1| > |l2 + l3 z1| on |z1| = 1, by
    the maximum principle; the latter reads c > 2|d|.  Together they are the
    open tetrahedron where all four face margins are positive.
    """
    return np.all(_face_margins(triples)[1] > 0.0, axis=1)


def c2_innovation_var(triples) -> np.ndarray:
    """Per-row (2 pi)^2 sigma2 that C2-normalizes the rational spectral density.

    sigma2 = (2 pi)^-2 exp(mean log|D|^2) over the torus.  With A = 1 - l1 e^{iw1}
    and B = l2 + l3 e^{iw1}, the inner w2 mean of log|A - B e^{iw2}|^2 is
    2 log max(|A|, |B|), and |A|^2 - |B|^2 = c - 2 d cos w1.  Where c -+ 2d >= 0
    the maximum is |A| for every w1 and Jensen's formula gives max(1, |l1|)^2;
    where c -+ 2d <= 0 it is |B| and gives max(|l2|, |l3|)^2.  Causal and
    separable (l3 = -l1*l2) triples are all of this kind, causal ones giving 1.
    Only inside the band |c| < 2|d|, where D vanishes on the torus, is the w1
    mean a 2048-node rectangle rule.  A triple that is not finite raises
    :class:`ParameterDomainError`.
    """
    check_finite(np.asarray(triples, dtype=float), ParameterDomainError,
                 "eigenvalue triples must be finite")
    t, _, lo, hi = _face_margins(triples)
    out = np.maximum(1.0, np.abs(t[:, 0])) ** 2
    rest = (lo < 0) | (hi < 0)
    if rest.any():
        out[rest] = np.maximum(np.abs(t[rest, 1]), np.abs(t[rest, 2])) ** 2
        band = rest & ((lo > 0) | (hi > 0))
        if band.any():
            a = np.abs(1.0 - t[band, :1] * _C2_NODES)
            b = np.abs(t[band, 1:2] + t[band, 2:] * _C2_NODES)
            out[band] = np.exp(np.mean(2.0 * np.log(np.maximum(np.maximum(a, b), 1e-300)),
                                       axis=1))
    return out


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """A SARH(1) parameter family: the one model type, knowing boxes (and so
    theta sizes), innovation variances and spectral densities.

    family : one of ``FAMILIES``; "triple" applies one eigenvalue triple
        theta = (l1, l2, l3) to every mode, "custom" takes theta of length 3*M
        (per-mode triples), see :func:`family_triples`.
    n_modes : truncation M >= 1
    theta_box : per-coordinate finite closed intervals lo < hi, shape (q, 2);
        None selects :func:`default_box`, whose length is q and which
        example1 and example2 boxes must lie inside.

    Mode k has the spectral density sigma2_k / |D_k(e^{iw1}, e^{iw2})|^2 with
    sigma2 = innovation variance / (2 pi)^2, the variance being the
    C2-normalizing one of :func:`c2_innovation_var` (1 on the causal set).
    Another innovation sd s_k is a factor on the data: that field is the unit
    one times s_k, its covariances are the unit ones times s_k^2, and it is
    fitted as the data divided by s_k, as the pipeline does.  Bad fields
    raise :class:`ParameterDomainError` at construction.
    """

    family: str
    n_modes: int
    theta_box: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "n_modes", check_int(self.n_modes, "n_modes", 1))
        default = default_box(self.family, self.n_modes)
        box = np.atleast_2d(np.asarray(default if self.theta_box is None else self.theta_box,
                                       dtype=float))
        if box.shape != default.shape or not np.all(np.isfinite(box) & (box[:, :1] < box[:, 1:])):
            raise ParameterDomainError(
                f"{self.family} theta box must be {len(default)} finite intervals lo < hi")
        if self.family in ("example1", "example2") and not (
                np.all(box[:, 0] >= default[:, 0]) and np.all(box[:, 1] <= default[:, 1])):
            raise ParameterDomainError(f"{self.family} theta box leaves {default.tolist()}")
        object.__setattr__(self, "theta_box", box)

    def contains(self, theta) -> bool:
        theta = np.atleast_1d(theta)
        return bool(np.all(theta >= self.theta_box[:, 0] - 1e-12)
                    and np.all(theta <= self.theta_box[:, 1] + 1e-12))

    def eig_triples(self, theta) -> np.ndarray:
        """Eigenvalue triples (l1, l2, l3) for every mode, shape (M, 3)."""
        return family_triples(self.family, theta, self.n_modes)

    def sigma2(self, theta) -> np.ndarray:
        """Per-mode spectral prefactors sigma^2_{eps(phi_k)}: the C2-normalizing
        innovation variances over (2 pi)^2."""
        return c2_innovation_var(self.eig_triples(theta)) / TWO_PI_SQ

    def density(self, theta, omega1, omega2) -> np.ndarray:
        """Spectral density values, shape broadcast(omega) + (M,)."""
        l1, l2, l3 = (triples := self.eig_triples(theta)).T
        w1 = np.asarray(omega1, dtype=float)[..., None]
        w2 = np.asarray(omega2, dtype=float)[..., None]
        d2 = np.abs(1.0 - l1 * np.exp(1j * w1) - l2 * np.exp(1j * w2)
                    - l3 * np.exp(1j * (w1 + w2))) ** 2
        with np.errstate(divide="ignore"):  # zeros surface as inf, callers guard
            return c2_innovation_var(triples) / TWO_PI_SQ / d2


@dataclass(frozen=True)
class Sarh1Params:
    """A point (model, theta) of a SARH(1) family, as :func:`simulate_sarh1` takes it.

    ``model`` is the :class:`SpectralModel` of (family, n_modes), built and
    checked at construction; theta is its parameter vector, whose
    length (and, for example1 and example2, box) is checked there too.
    """

    family: str
    theta: np.ndarray
    n_modes: int
    model: SpectralModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "model", SpectralModel(self.family, self.n_modes))
        object.__setattr__(self, "n_modes", self.model.n_modes)
        object.__setattr__(self, "theta", np.atleast_1d(np.asarray(self.theta, dtype=float)))
        self.model.eig_triples(self.theta)  # checks theta's length and box


def _ar1_passes(buf, triples) -> None:
    """The separable field (1 - l1 B1)^-1 (1 - l2 B2)^-1 eps of the innovations in a
    C-ordered mode-major (M, r1, r2) buffer, in place: an AR(1) pass along j, then one
    along i.  Each pass first scales its starting line by (1 - l^2)^-1/2, column 0 by
    l2's and row 0 by l1's, so that it starts from the stationary law of its chain.  The
    j-pass steps along the 1-D columns of the (M r1, r2) rows, the i-pass along the rows
    of the (M, r1, r2) blocks, and each step multiplies by l spread to the line's own
    shape: a broadcast (M, 1) column costs numpy a buffer on every strided line, and the
    1-D columns then need none.  The scale is formed from the M triples, then spread."""
    m, r1, r2 = buf.shape
    for lines, lam, n in ((buf.reshape(m * r1, r2).T, triples[:, 1], r1),
                          (np.moveaxis(buf, 1, 0), triples[:, 0], r2)):
        shape = lines.shape[1:]  # l_k repeated n times is mode k's part of a line
        lines[0] /= np.repeat(np.sqrt((1.0 - lam) * (1.0 + lam)), n).reshape(shape)
        lam, tmp = np.repeat(lam, n).reshape(shape), np.empty(shape)
        for prev, cur in zip(lines[:-1], lines[1:]):
            np.multiply(prev, lam, out=tmp)
            cur += tmp


def _stencil_sweep(buf, triples) -> None:
    """x(i, j) += l1 x(i-1, j) + l3 x(i-1, j-1) + l2 x(i, j-1) at every i, j >= 1 of a
    C-ordered mode-major (M, r1+1, r2+1) buffer, in place: the simulation sweeps
    innovations, and ``cov_from_spectrum`` the covariances, behind the boundary row 0
    and column 0.  The buffer must be C-contiguous, so that its (M, cells) reshape is
    a view and the sweep fills the buffer itself."""
    m, r1, r2 = buf.shape[0], buf.shape[1] - 1, buf.shape[2] - 1
    # cell (i, s - i) of anti-diagonal s is column s + i*r2 of flat: a diagonal is one
    # strided slice per mode, and its up, up-left and left neighbours are that slice
    # shifted back; ((x + l1 up) + l3 up-left) + l2 left is the order of the row recursion
    flat = buf.reshape(m, -1)
    neighbours = ((r2 + 1, triples[:, :1]), (r2 + 2, triples[:, 2:]), (1, triples[:, 1:2]))
    for s in range(2, r1 + r2 + 1):
        a, b = s + max(1, s - r2) * r2, s + min(s - 1, r1) * r2 + 1
        x = flat[:, a:b:r2]
        for back, lam in neighbours:
            x += lam * flat[:, a - back:b - back:r2]


def _sweep(buf, triples) -> None:
    """Any causal field of the innovations in a mode-major (M, r1, r2) buffer, in place:
    the edge chains of :func:`_product_form` on row 0 and column 0, then the
    anti-diagonal sweep."""
    r0, rho, sd = _product_form(_face_margins(triples)[1])
    buf[:, 0, 0] *= np.sqrt(r0)
    for j, edge in enumerate((buf[:, :, 0].T, buf[:, 0].T)):  # column 0 along i, row 0 along j
        for prev, cur in zip(edge[:-1], edge[1:]):
            cur *= sd[:, j]
            cur += rho[:, j] * prev
    _stencil_sweep(buf, triples)


def simulate_sarh1(params: Sarh1Params, dims, burn_in: int = 100,
                   seed: int = 0, basis: BasisSpec | None = None) -> CoeffField:
    """Generate a stationary zero-mean Gaussian SARH(1) coefficient field.

    Mode k follows the recursion of the module docstring with the triple of
    ``params.model`` at ``params.theta`` and unit-variance innovations, the
    C2 ones on the causal set; a field of innovation sd s_k is this one times
    s_k.  The field has the exact stationary law: row 0 and column 0 are the
    AR(1) chains of :func:`_product_form` that leave the corner, and the
    recursion fills the rest.  When every mode's triple has l3 == -l1*l2
    exactly, the field is built by two AR(1) passes; otherwise by the
    anti-diagonal sweep.  Both read mode k's innovations as one (n1, n2) block
    from ``default_rng(seed)``, mode after mode, so the two agree to rounding on
    a separable triple: ``standard_normal`` fills one (M, n1, n2) buffer in
    that order, the kernels filter it in place, and the field's ``data`` is
    its (n1, n2, M) view.  The output is bit-identical for fixed (params, dims,
    seed); ``burn_in`` is checked and unused.  ``dims`` must be two integers
    >= 2 and ``burn_in`` and ``seed`` integers >= 0, else
    :class:`ParameterDomainError`.  A non-causal mode (:func:`is_causal`) has no
    stationary law: :class:`StationarityError` names the first.
    """
    n1, n2 = check_dims(dims, "dims", 2)
    check_int(burn_in, "burn_in", 0)
    seed = check_int(seed, "seed", 0)
    triples = params.model.eig_triples(params.theta)
    if not np.all(ok := is_causal(triples)):
        k = int(np.argmin(ok))
        raise StationarityError(
            f"mode {k + 1}: AR polynomial of {tuple(triples[k].tolist())} vanishes on "
            "the closed unit bidisk", mode=k + 1)

    # one (n1, n2) block per mode, mode after mode: the RNG stream's own order
    buf = np.empty((triples.shape[0], n1, n2))
    np.random.default_rng(seed).standard_normal(out=buf)
    (_ar1_passes if _separable(triples).all() else _sweep)(buf, triples)
    if basis is None:
        basis = BasisSpec(support_length=1.0, n_modes=params.n_modes)
    return CoeffField(np.moveaxis(buf, 0, 2), basis)
