"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately slow and direct: double sums for the
DFT, nested loops for covariances, one BLAS product per lag for the
whole lag rectangle of them, the whole-grid irfft2 of their padded FFT
form, a naive site-by-site sweep for the SARH(1) recursion and its per-mode
scatter draw filtered in the (n1, n2, M) layout, the AR(1) passes over
broadcast (M, 1) columns of the eigenvalues, the
closed-form covariance of the separable (l3 = -l1*l2) autoregression,
the 2-D grid inversion of a spectrum to covariances and the w1
quadrature of its closed-form w2 integral, the forward cosine sum of a
lag rectangle of covariances, the 256^2 quadrature of the Fejer-smoothed
inverse spectrum, the site-pair double sum of the count variance, the
wrap-padded copy that the circular lag moments read, the
dense Fourier-grid Whittle loss, the cosine contraction of a periodogram
and the field that has a given one, the search of D's four orientations for a causal
one, row-by-row CSV writers,
inverse-distance weighting through the dense cdist matrix, the one-shot
synthetic count generator (full-size log-intensity, intensity, increments
and draws at once), the curve-space pipeline (smooth, interpolate and detrend every curve on the
dense time grid), the pipeline's lattice stages on one dense (times,
nodes) array of log curves, the scalar and grid forms of the eigenvalue families,
the stationarity checks and the C2 normalization, a dense grid
refined by zooming for the example1 fit and its candidates scored through the
tiled inverse functional, scipy's ``linprog`` check and
SLSQP solve of the affine families' fit, and its SLSQP solve of example2's.
Implementations under test must agree with these, never share code with them.
"""

import csv
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.interpolate import BSpline, make_lsq_spline
from scipy.spatial.distance import cdist

from spatialcox import BasisSpec, CoeffField, GridSeries, project_samples
from spatialcox.errors import (AmbiguousInterpolationError, ParameterDomainError,
                               ResolutionError, SingularSpectrumError)
from spatialcox.pipeline import (DEFAULT_TRUE_PMF, SYNTHETIC_AMP_DECAY, SYNTHETIC_AMPLITUDE,
                                 SYNTHETIC_TREND, SyntheticTruth)
from spatialcox.sarh import Sarh1Params, _inverse_functional, family_triples, simulate_sarh1


def brute_force_dft(data, z1_list, z2_list):
    """O(N^2) functional DFT of a single-mode array (0-based site index)."""
    n1, n2 = data.shape
    scale = 1.0 / np.sqrt(n1 * n2 * (2.0 * np.pi) ** 2)
    out = np.empty((len(z1_list), len(z2_list)), dtype=complex)
    for i, z1 in enumerate(z1_list):
        for j, z2 in enumerate(z2_list):
            w1 = 2.0 * np.pi * z1 / n1
            w2 = 2.0 * np.pi * z2 / n2
            acc = 0.0 + 0.0j
            for y1 in range(n1):
                for y2 in range(n2):
                    acc += data[y1, y2] * np.exp(-1j * (w1 * y1 + w2 * y2))
            out[i, j] = scale * acc
    return out


def brute_force_cov(data, z1, z2):
    """Nested-loop un-centered covariance (1/N) sum_y x_y x_{y+z} for one mode pair."""
    n1, n2 = data.shape[:2]
    acc = 0.0
    for y1 in range(n1):
        for y2 in range(n2):
            t1, t2 = y1 + z1, y2 + z2
            if 0 <= t1 < n1 and 0 <= t2 < n2:
                acc += data[y1, y2] * data[t1, t2]
    return acc / (n1 * n2)


def brute_force_cov_pair(a, b, z1, z2):
    """Same as brute_force_cov for two distinct mode arrays: (1/N) sum a_y b_{y+z}."""
    n1, n2 = a.shape
    acc = 0.0
    for y1 in range(n1):
        for y2 in range(n2):
            t1, t2 = y1 + z1, y2 + z2
            if 0 <= t1 < n1 and 0 <= t2 < n2:
                acc += a[y1, y2] * b[t1, t2]
    return acc / (n1 * n2)


def lag_by_lag_empirical_cov(data, max_lag):
    """Direct-sum empirical covariances, one BLAS product per lag of the half rectangle.

    ``data`` is (N1, N2, M); returns values[i1, i2, k, l] at lag
    (i1 - L1, i2 - L2) as :func:`spatialcox.empirical_cov` lays them out.
    Each mirror lag is the exact transpose, and C(0) is made exactly
    symmetric the same way.
    """
    l1max, l2max = max_lag
    n1, n2, m = data.shape
    out = np.empty((2 * l1max + 1, 2 * l2max + 1, m, m))
    for z1 in range(l1max + 1):
        for z2 in range(-l2max if z1 else 0, l2max + 1):
            a2, b2 = max(0, -z2), min(n2, n2 - z2)
            base = data[:n1 - z1, a2:b2].reshape(-1, m)
            shifted = data[z1:, a2 + z2:b2 + z2].reshape(-1, m)
            c = (base.T @ shifted) / (n1 * n2)
            if z1 == z2 == 0:
                c = np.triu(c) + np.triu(c, 1).T
            out[l1max + z1, l2max + z2] = c
            out[l1max - z1, l2max - z2] = c.T
    return out


def irfft2_empirical_cov(data, max_lag):
    """Empirical covariances by zero-padded real FFTs, inverted whole: per mode k one
    batched ``irfft2`` of conj(F_k) F_l over l >= k, then the stored lags sliced out.

    ``data`` is (N1, N2, M); each axis is padded to the smallest 2^a 3^b 5^c that
    is >= N_j + L_j.  Returns values[i1, i2, k, l] at lag (i1 - L1, i2 - L2), the
    lower triangle and the diagonal's lags below z = 0 filled as exact mirrors.
    """
    def smooth_size(n):
        size = n
        while True:
            rest = size
            for f in (2, 3, 5):
                while rest % f == 0:
                    rest //= f
            if rest == 1:
                return size
            size += 1

    l1max, l2max = max_lag
    n1, n2, m = data.shape
    lags1, lags2 = np.arange(-l1max, l1max + 1), np.arange(-l2max, l2max + 1)
    p = (smooth_size(n1 + l1max), smooth_size(n2 + l2max))
    f = np.fft.rfft2(np.moveaxis(data, 2, 0), s=p)
    rows, cols = (lags1 % p[0])[:, None], lags2 % p[1]
    out = np.empty((lags1.size, lags2.size, m, m))
    for k in range(m):
        corr = np.fft.irfft2(np.conj(f[k]) * f[k:], s=p)
        out[:, :, k, k:] = np.moveaxis(corr[:, rows, cols], 0, 2) / (n1 * n2)
    flat = out.reshape(-1, m, m)
    upper, diag = np.triu_indices(m, 1), np.arange(m)
    flat[:, upper[1], upper[0]] = flat[::-1, upper[0], upper[1]]
    half = flat.shape[0] // 2
    flat[:half, diag, diag] = flat[:half:-1, diag, diag]
    return out


def exact_face_margins(triple):
    """The four face margins 1 -+ l1 -+ l2 -+ l3 of ``sarh.CAUSAL_FACES``, summed in
    exact rationals from the floats of ``triple`` and rounded once."""
    l1, l2, l3 = (Fraction(float(v)) for v in triple)
    return [float(m) for m in (1 - l1 - l2 - l3, 1 - l1 + l2 + l3, 1 + l1 - l2 + l3,
                               1 + l1 + l2 - l3)]


def searched_causal_orientation(triple):
    """The first orientation c = 0..3 of D in which ``triple`` is causal in floats, and that
    frame's triple, found by trying all four; (None, None) if none is.  Frame c is D over
    1, l1, l2 or l3: the triples (l1, l2, l3), (1/l1, -l3/l1, -l2/l1), (-l3/l2, 1/l2,
    -l1/l2) and (-l2/l3, -l1/l3, 1/l3), with no lag axis, z1, z2 or both reflected.  Each
    is rounded to floats and tested by its exact face margins."""
    l1, l2, l3 = np.asarray(triple, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        frames = [(l1, l2, l3), (1 / l1, -l3 / l1, -l2 / l1), (-l3 / l2, 1 / l2, -l1 / l2),
                  (-l2 / l3, -l1 / l3, 1 / l3)]
    for c, frame in enumerate(frames):
        if np.all(np.isfinite(frame)) and min(exact_face_margins(frame)) > 0:
            return c, tuple(float(v) for v in frame)
    return None, None


def exact_axis_cov(triple, lag):
    """R(0, lag) of a causal triple's unit-innovation field, in 50-digit decimals.

    Along z2 the field is that of the transposed triple (l2, l1, l3) along z1, whose
    covariances are rho^|lag| / sqrt(c^2 - 4 d^2) with c = 1 + l2^2 - l1^2 - l3^2,
    d = l2 + l1 l3 and rho = 2 d / (c + sqrt(c^2 - 4 d^2)) (Whittle, 1954); the
    floats of ``triple`` enter exactly, so only the final rounding is inexact.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        l1, l2, l3 = (Decimal(float(v)) for v in triple)
        c, d = 1 + l2 * l2 - l1 * l1 - l3 * l3, l2 + l1 * l3
        root = (c * c - 4 * d * d).sqrt()
        return float((2 * d / (c + root)) ** abs(lag) / root)


def naive_sarh(triples, dims, seed):
    """Site-by-site SARH(1) sweep with the same unit-innovation stream layout.

    The corner is sqrt(R_0) eps; column 0 and row 0 are the AR(1) chains
    x = rho x_prev + sd eps along i and j, where with s_f = sqrt(m_f) of the
    exact face margins R_0 = 1 / (s0 s1 s2 s3), rho = (far - near) / (far + near)
    and sd = 2 / (far + near), near = s0 s1 | s0 s2 and far = s2 s3 | s1 s3 along
    i | j.  Every other site adds ((eps + l1 up) + l3 up-left) + l2 left, the
    order of the package's anti-diagonal sweep, so the two agree bit for bit;
    against the AR(1) passes that separable triples take they agree to rounding.
    """
    n1, n2 = dims
    rng = np.random.default_rng(seed)
    out = np.empty((n1, n2, len(triples)))
    for k, (l1, l2, l3) in enumerate(triples):
        s0, s1, s2, s3 = np.sqrt(exact_face_margins((l1, l2, l3)))
        r0 = 1.0 / ((s0 * s1) * (s2 * s3))
        (rho1, sd1), (rho2, sd2) = (((far - near) / (far + near), 2.0 / (far + near))
                                    for near, far in ((s0 * s1, s2 * s3), (s0 * s2, s1 * s3)))
        eps = rng.normal(0.0, 1.0, size=(n1, n2))
        x = np.zeros((n1, n2))
        for i in range(n1):
            for j in range(n2):
                if i == 0 and j == 0:
                    x[i, j] = np.sqrt(r0) * eps[i, j]
                elif j == 0:
                    x[i, j] = sd1 * eps[i, j] + rho1 * x[i - 1, j]
                elif i == 0:
                    x[i, j] = sd2 * eps[i, j] + rho2 * x[i, j - 1]
                else:
                    x[i, j] = ((eps[i, j] + l1 * x[i - 1, j]) + l3 * x[i - 1, j - 1]
                               + l2 * x[i, j - 1])
        out[:, :, k] = x
    return out


def scatter_sarh1(triples, dims, seed):
    """The SARH(1) field drawn one (n1, n2) block per mode and scattered into a C-ordered
    (n1, n2, M) array, then filtered in that layout, vectorized over the modes: the AR(1)
    passes along j, then i, when every triple is separable, else the edge chains of
    ``naive_sarh`` and the site-by-site recursion in the same order of terms.  The
    same stream in the same order of operations, so the package's mode-major buffer
    must give this field bit for bit."""
    n1, n2 = dims
    triples = np.asarray(triples, dtype=float)
    rng, x = np.random.default_rng(seed), np.empty((n1, n2, len(triples)))
    for k in range(len(triples)):
        x[:, :, k] = rng.standard_normal((n1, n2))
    l1, l2, l3 = triples.T
    if np.array_equal(l3, -l1 * l2):
        for axis, lam in ((1, l2), (0, l1)):
            lines = np.moveaxis(x, axis, 0)
            lines[0] /= np.sqrt((1.0 - lam) * (1.0 + lam))
            for prev, cur in zip(lines[:-1], lines[1:]):
                cur += prev * lam
        return x
    s0, s1, s2, s3 = np.sqrt(np.array([exact_face_margins(t) for t in triples])).T
    near, far = np.stack([s0 * s1, s0 * s2]), np.stack([s2 * s3, s1 * s3])
    rho, sd = (far - near) / (far + near), 2.0 / (far + near)
    x[0, 0] *= np.sqrt(1.0 / (near[0] * far[0]))
    for j, edge in enumerate((x[:, 0], x[0])):  # column 0 along i, row 0 along j
        for prev, cur in zip(edge[:-1], edge[1:]):
            cur *= sd[j]
            cur += rho[j] * prev
    for i in range(1, n1):
        for j in range(1, n2):
            x[i, j] = ((x[i, j] + l1 * x[i - 1, j]) + l3 * x[i - 1, j - 1]) + l2 * x[i, j - 1]
    return x


def broadcast_ar1_passes(triples, dims, seed):
    """The separable field built as the package first built it: the mode-major (M, n1, n2)
    draw, then the AR(1) passes along j and along i, each stepping over the lines of that
    axis with l as a broadcast (M, 1) column and the starting line divided by
    sqrt((1 - l)(1 + l)) of that column.  The package's passes must give it bit for bit."""
    triples = np.asarray(triples, dtype=float)
    buf = np.empty((len(triples),) + tuple(dims))
    np.random.default_rng(seed).standard_normal(out=buf)
    for axis, lam in ((2, triples[:, 1:2]), (1, triples[:, :1])):
        lines = np.moveaxis(buf, axis, 0)
        lines[0] /= np.sqrt((1.0 - lam) * (1.0 + lam))
        tmp = np.empty_like(lines[0])
        for prev, cur in zip(lines[:-1], lines[1:]):
            np.multiply(prev, lam, out=tmp)
            cur += tmp
    return np.moveaxis(buf, 0, 2)


def separable_cov(l1, l2, z1, z2, innovation_var=1.0):
    """Closed-form covariance of the separable AR: s^2 l1^|z1| l2^|z2| / ((1-l1^2)(1-l2^2))."""
    return (innovation_var * l1 ** abs(z1) * l2 ** abs(z2)
            / ((1.0 - l1**2) * (1.0 - l2**2)))


def rational_density(triple, sigma2, w1, w2):
    """Direct evaluation of sigma^2 / |1 - l1 e^{iw1} - l2 e^{iw2} - l3 e^{i(w1+w2)}|^2."""
    l1, l2, l3 = triple
    d = (1.0 - l1 * np.exp(1j * w1) - l2 * np.exp(1j * w2)
         - l3 * np.exp(1j * (w1 + w2)))
    return sigma2 / np.abs(d) ** 2


def grid_cov_from_spectrum(model, theta, lags, grid_size):
    """Covariances R_z = (2 pi / n)^2 sum_w F_w e^{i<z,w>} by the 2-D rectangle
    rule on the n^2 grid over [-pi, pi)^2, n = grid_size: one ifft2 of each
    mode's rational density, whose value at z carries the (-1)^{z1+z2} phase
    of the -pi offset.  Returns the real parts, shape (len(lags), M)."""
    w = -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size
    out = np.empty((len(lags), model.n_modes))
    for k, (triple, s2) in enumerate(zip(model.eig_triples(theta), model.sigma2(theta))):
        dens = rational_density(triple, s2, w[:, None], w[None, :])
        rhat = np.fft.ifft2(dens) * (2.0 * np.pi) ** 2
        for i, (z1, z2) in enumerate(lags):
            out[i, k] = (rhat[z1 % grid_size, z2 % grid_size] * (-1.0) ** (z1 + z2)).real
    return out


def quadrature_cov_from_spectrum(model, theta, lags, grid_size=512, rtol=1e-13,
                                 max_cells=2**21):
    """Covariances by the w1 quadrature of the closed-form w2 integral.

    With A = 1 - l1 e^{iw1}, B = l2 + l3 e^{iw1} and |A|^2 - |B|^2 = c - 2d cos w1,
    the w2 integral of e^{i z2 w2} |A - B e^{iw2}|^-2 is 2 pi r^{z2} / |c - 2d cos w1|
    by residues, with r = conj(B/A) where c - 2d > 0 and r = A/B where it is < 0,
    and conj(r)^{|z2|} for z2 < 0.  The w1 integral is a rectangle rule of n
    nodes, one inverse FFT giving every z1; n starts at the larger of
    ``grid_size`` and the power of two above 2 max|z1| + 1 and doubles per mode
    until the covariances change by at most ``rtol`` of R_0.  More than
    ``max_cells`` complex values (nodes x (distinct |z2| + 4)) raises
    ResolutionError.  Returns the real parts, shape (len(lags), M).
    """
    lags = np.asarray(lags, dtype=np.int64).reshape(-1, 2)
    start = max(grid_size, 1 << int(2 * np.abs(lags[:, 0]).max(initial=0) + 1).bit_length())
    flip = np.where(lags[:, 1] < 0, -1, 1)
    k2, row = np.unique(np.append(np.abs(lags[:, 1]), 0), return_inverse=True)
    row, z1 = row[:-1], flip * lags[:, 0]
    out = np.empty((lags.shape[0], model.n_modes))
    for k, ((l1, l2, l3), s2) in enumerate(zip(model.eig_triples(theta), model.sigma2(theta))):
        # c -+ 2d as products of face margins, so nothing cancels near the band edge
        lo = (1.0 - l1 - l2 - l3) * (1.0 - l1 + l2 + l3)
        hi = (1.0 + l1 - l2 + l3) * (1.0 + l1 + l2 - l3)
        if lo * hi <= 0:
            raise SingularSpectrumError(f"mode {k + 1} vanishes on the unit torus")
        n, prev = start, None
        while True:
            if n * (k2.size + 4) > max_cells:
                raise ResolutionError(f"mode {k + 1}: quadrature not converged below {n} nodes")
            half = np.pi * np.arange(n) / n
            e = np.exp(2j * half)
            a, b = 1.0 - l1 * e, l2 + l3 * e
            r = np.conj(b / a) if lo > 0 else a / b
            g = np.power(r, k2[:, None]) / np.abs(lo * np.cos(half) ** 2 + hi * np.sin(half) ** 2)
            h = np.fft.ifft(g, axis=1) * (2.0 * np.pi) ** 2
            cur, r0 = h[row, z1 % n], h[0, 0].real
            if prev is not None and np.abs(cur - prev).max(initial=0.0) <= rtol * r0:
                break
            prev, n = cur, 2 * n
        out[:, k] = s2 * cur.real
    return out


def lag_rectangle_cosine_sum(values, w1, w2):
    """sum_z R_z cos(z1 w1 + z2 w2) over the lag rectangle |z_j| <= L_j at every
    node (w1[a], w2[b]): Re(E1 R E2^T) with E_j[a, z] = e^{i w_j[a] z}, where
    ``values`` holds R_z z1-major, shape (2 L1 + 1, 2 L2 + 1)."""
    l1, l2 = (values.shape[0] - 1) // 2, (values.shape[1] - 1) // 2
    e1 = np.exp(1j * np.outer(w1, np.arange(-l1, l1 + 1)))
    e2 = np.exp(1j * np.outer(w2, np.arange(-l2, l2 + 1)))
    return (e1 @ values @ e2.T).real


def quadrature_fejer_inverse(model, theta, k, m_smooth, omega, quad_size=256):
    """Cesaro (Fejer-weighted) partial Fourier sum of 1/F at a frequency.

    Fourier coefficients g(z) of the inverse spectrum are computed by
    quadrature on a ``quad_size``^2 grid, then summed over |z_j| <= M_j - 1
    with triangular weights prod_j (1 - |z_j|/M_j).
    """
    m1, m2 = int(m_smooth[0]), int(m_smooth[1])
    if m1 < 1 or m2 < 1:
        raise ParameterDomainError("smoothing orders must be >= 1")
    if m1 > quad_size // 2 or m2 > quad_size // 2:
        raise ResolutionError("smoothing order exceeds quadrature resolution")
    # periodic trapezoidal rule on [-pi, pi]: endpoints coincide, so the
    # n-point rectangle rule is exact the same quadrature
    w = -np.pi + 2.0 * np.pi * np.arange(quad_size) / quad_size
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    dens = np.asarray(model.density(theta, w1, w2))[:, :, k - 1]
    if np.any(dens <= 0) or not np.all(np.isfinite(dens)):
        raise SingularSpectrumError("model not invertible on the quadrature grid")
    # g(z) = (1/(2pi)^2) integral e^{i z.w} / F = ifft2(1/F) up to the phase
    ghat = np.fft.ifft2(1.0 / dens)
    z1 = np.arange(-(m1 - 1), m1)
    z2 = np.arange(-(m2 - 1), m2)
    phase = (-1.0) ** (np.add.outer(z1, z2))
    g = ghat[np.ix_(z1 % quad_size, z2 % quad_size)] * phase
    wgt = np.outer(1.0 - np.abs(z1) / m1, 1.0 - np.abs(z2) / m2)
    om1, om2 = float(omega[0]), float(omega[1])
    expo = np.exp(-1j * (np.add.outer(z1 * om1, z2 * om2)))
    q = np.sum(wgt * g * expo)
    if abs(q.imag) > 1e-8 * max(abs(q.real), 1e-300):
        raise SingularSpectrumError("Fejer sum has non-negligible imaginary part")
    return float(q.real)


def rect_sites(rect):
    """The lattice sites (i, j) of an inclusive ``BorelRect``, row by row."""
    return [(i, j) for i in range(rect.a1, rect.b1 + 1) for j in range(rect.a2, rect.b2 + 1)]


def double_sum_count_moments(rect, cov):
    """Count mean and variance of a lattice rectangle by the site-pair double sum
    exp(R_0) sum_{z,y in B} exp((R_{z-y} + R_{y-z}) / 2) + |B| rho (1 - |B| rho),
    rho = exp(R_0 / 2); a lag missing from ``cov`` raises KeyError."""
    rho = float(np.exp(0.5 * cov[(0, 0)]))
    sites = rect_sites(rect)
    acc = 0.0
    for za in sites:
        for zb in sites:
            h1, h2 = za[0] - zb[0], za[1] - zb[1]
            acc += np.exp(0.5 * (cov[(h1, h2)] + cov[(-h1, -h2)]))
    area = len(sites)
    return rho * area, float(np.exp(cov[(0, 0)]) * acc + area * rho * (1.0 - area * rho))


def exact_count_variance(rect, cov):
    """The count variance of :func:`double_sum_count_moments` in 50-digit decimals, as
    |B| rho + exp(R_0) sum_h pairs_h (exp((R_h + R_-h) / 2) - 1) over the distinct lags
    h of B - B, pairs_h = (n1 - |h1|)(n2 - |h2|); the floats of ``cov`` enter exactly,
    so only the final rounding is inexact."""
    n1, n2 = rect.b1 - rect.a1 + 1, rect.b2 - rect.a2 + 1
    with localcontext() as ctx:
        ctx.prec = 50
        r = {h: Decimal(float(v)) for h, v in cov.items()}
        acc = sum((n1 - abs(h1)) * (n2 - abs(h2)) * (((r[h1, h2] + r[-h1, -h2]) / 2).exp() - 1)
                  for h1 in range(1 - n1, n1) for h2 in range(1 - n2, n2))
        return float(n1 * n2 * (r[0, 0] / 2).exp() + r[0, 0].exp() * acc)


def periodogram_moments(pgram):
    """Fourier-grid means of the periodogram diagonal against (1, cos w1, cos w2,
    cos(w1 + w2), cos(w1 - w2)), shape (M, 5): the cosine contraction that
    ``trig_moments`` replaces by five lag sums of the field (Parseval)."""
    w1, w2 = pgram.grid.meshes()
    cosines = np.stack([np.ones_like(w1), np.cos(w1), np.cos(w2), np.cos(w1 + w2),
                        np.cos(w1 - w2)])
    return np.einsum("ijk,cij->kc", pgram.values.real, cosines) / pgram.grid.size


def padded_trig_moments(data):
    """The five circular lag sums of ``trig_moments`` over N (2 pi)^2, shape (M, 5),
    read from one wrap-padded copy of the (n1, n2, M) field: x_y at padded[y1, y2 + 1]."""
    n1, n2, _ = data.shape
    padded = np.pad(data, ((0, 1), (1, 1), (0, 0)), mode="wrap")
    sums = [np.einsum("ijk,ijk->k", data, padded[h1:h1 + n1, 1 + h2:1 + h2 + n2])
            for h1, h2 in ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))]
    return np.stack(sums, axis=1) / (n1 * n2 * (2.0 * np.pi) ** 2)


def field_with_periodogram(pgram):
    """A real field whose periodogram is the even part (w <-> -w) of the real
    diagonal of ``pgram``, which must be non-negative: ifft2 of
    sqrt(N (2 pi)^2 E), the square root being real and even.  A model
    spectrum enters the fit as this field."""
    values = pgram.values.real
    n1, n2, m = values.shape
    even = 0.5 * (values + values[(-np.arange(n1)) % n1][:, (-np.arange(n2)) % n2])
    data = np.fft.ifft2(np.sqrt(n1 * n2 * (2.0 * np.pi) ** 2 * even), axes=(0, 1))
    assert np.abs(data.imag).max() <= 1e-12 * max(np.abs(data.real).max(), 1e-300)
    return CoeffField(data.real.copy(), BasisSpec(1.0, m))


def dense_mode_losses(model, theta, pgram):
    """Per-mode Whittle losses evaluated densely: the Fourier-grid mean of
    I_k / F_k, with F_k the rational density of mode k at every frequency."""
    i_diag = pgram.values.real
    w1, w2 = pgram.grid.meshes()
    triples, sigma2 = model.eig_triples(theta), model.sigma2(theta)
    with np.errstate(divide="ignore"):  # a torus zero makes F infinite and I / F zero
        dens = np.stack([rational_density(t, s, w1, w2) for t, s in zip(triples, sigma2)],
                        axis=-1)
    return (i_diag / dens).mean(axis=(0, 1))


def periodogram_csv_loop(pgram, path):
    """Periodogram CSV written row by row from nested grid and mode loops."""
    w1m, w2m = pgram.grid.meshes()
    n1, n2 = pgram.grid.dims
    m = pgram.n_modes
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["w1", "w2", "k", "l", "re", "im"])
        for i in range(n1):
            for j in range(n2):
                if pgram.cross is None:
                    for k in range(m):
                        v = pgram.values[i, j, k]
                        w.writerow([w1m[i, j], w2m[i, j], k + 1, k + 1, v.real, v.imag])
                else:
                    for k in range(m):
                        for l in range(m):
                            v = pgram.cross[i, j, k, l]
                            w.writerow([w1m[i, j], w2m[i, j], k + 1, l + 1, v.real, v.imag])


def field_csv_loop(field, path):
    """Field CSV written row by row from nested site and mode loops."""
    n1, n2 = field.dims
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "k", "value"])
        for i in range(n1):
            for j in range(n2):
                for k in range(field.n_modes):
                    w.writerow([i, j, k + 1, repr(float(field.data[i, j, k]))])


def experiment_csv_loop(table, path):
    """Experiment CSV written row by row from the table's rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "component", "mean", "sd", "mse", "n_failed"])
        for r in table.rows:
            w.writerow([r["N"], r["component"], repr(r["mean"]), repr(r["sd"]),
                        repr(r["mse"]), r["n_failed"]])


def series_csv_loop(series, path):
    """Series CSV written row by row from nested site and time loops."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["site_id", "lon", "lat", "time", "value"])
        for s in range(series.sites.shape[0]):
            lon, lat = series.sites[s]
            for t_idx, t in enumerate(series.times):
                w.writerow([s, float(lon), float(lat), float(t), repr(float(series.values[s, t_idx]))])


def brute_force_idw(sites, values, nodes, power):
    """Per-node inverse-distance weighting: a node within 1e-9 * scale of a
    source copies that source's row (the first, when several coincide);
    every other node takes the weighted row average with weights d^-power."""
    sites = np.asarray(sites, dtype=float)
    values = np.asarray(values, dtype=float)
    d = np.linalg.norm(nodes[:, None, :] - sites[None, :, :], axis=2)
    scale = max(d.max(), 1.0)
    out = np.empty((nodes.shape[0], values.shape[1]))
    for i in range(nodes.shape[0]):
        hit = np.nonzero(d[i] < 1e-9 * scale)[0]
        if hit.size:
            out[i] = values[hit[0]]
        else:
            w = d[i] ** (-power)
            out[i] = (w @ values) / w.sum()
    return out


def cdist_idw(sites, values, target_dims):
    """Inverse-distance weighting onto the lattice over the sites' bounding box, by
    the dense (nodes x sites) ``cdist`` matrix: a node whose squared distance to a
    source is below (1e-9 * max(1, largest distance))^2 copies its first such
    source, after every such source's row is checked ``np.isclose`` to it (else
    ``AmbiguousInterpolationError``); every other node takes the row-normalised
    1 / d^2 weights of the gathered miss rows in one product.
    Returns (nodes, values, the mask of the nodes that copy a source)."""
    sites = np.asarray(sites, dtype=float)
    values = np.asarray(values, dtype=float)
    n1, n2 = target_dims
    xs = np.linspace(sites[:, 0].min(), sites[:, 0].max(), n1)
    ys = np.linspace(sites[:, 1].min(), sites[:, 1].max(), n2)
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    d2 = cdist(nodes, sites, "sqeuclidean")
    hits = d2 < (1e-9 * max(np.sqrt(d2.max()), 1.0)) ** 2
    is_hit = hits.any(axis=1)
    out = np.empty((nodes.shape[0], values.shape[1]))
    hits = hits[is_hit]
    first = hits.argmax(axis=1)
    node_idx, src_idx = np.nonzero(hits)
    same = np.isclose(values[src_idx], values[first[node_idx]], equal_nan=True).all(axis=1)
    if not same.all():
        raise AmbiguousInterpolationError(f"node {nodes[is_hit][node_idx[~same][0]]} "
                                          "coincides with sources holding distinct values")
    out[is_hit] = values[first]
    miss = ~is_hit
    if miss.any():
        w = d2[miss] if is_hit.any() else d2
        w **= -1.0
        out[miss] = (w @ values) / w.sum(axis=1)[:, None]
    return nodes, out, is_hit


def dense_log_intensity(coeff, basis, t):
    """The synthetic log-intensity (n1, n2, len(t)) of every site at once: the cubic
    ``SYNTHETIC_TREND`` in t / L plus coeff @ the orthonormal sine design."""
    t = np.asarray(t, dtype=float)
    u = t / basis.support_length
    trend = sum(c * u**p for p, c in enumerate(SYNTHETIC_TREND))
    modes = np.arange(1, basis.n_modes + 1)
    design = np.sin(np.pi * np.outer(modes, t) / basis.support_length)
    design *= np.sqrt(2.0 / basis.support_length)
    return trend[None, None, :] + coeff @ design


def dense_synthetic_counts(lattice_dims=(40, 40), n_modes=10, n_months=432,
                           support_length=1725.0, seed=0):
    """``make_synthetic_counts`` in one shot: the full-size log-intensity, intensity,
    increments, int64 Poisson draws and their float copy of the whole lattice, all
    at once.  Returns (GridSeries, SyntheticTruth)."""
    n1, n2 = lattice_dims
    lam_true = family_triples("realdata_pmf", DEFAULT_TRUE_PMF, n_modes)
    basis = BasisSpec(support_length=support_length, n_modes=n_modes)
    fld = simulate_sarh1(Sarh1Params("custom", lam_true.ravel(), n_modes), (n1, n2),
                         seed=seed, basis=basis)
    amp = SYNTHETIC_AMPLITUDE / np.arange(1, n_modes + 1) ** SYNTHETIC_AMP_DECAY
    coeff = fld.data * (amp * np.sqrt(support_length / 2.0))
    t_m = np.linspace(0.0, support_length, n_months + 1)[1:]
    lam_curve = np.exp(dense_log_intensity(coeff, basis, t_m))
    inc = np.diff(lam_curve, axis=2, prepend=0.0)
    counts = np.random.default_rng(seed + 1).poisson(np.maximum(inc, 0.0)).astype(float)
    nodes = np.array([[x, y] for x in range(n1) for y in range(n2)], dtype=float)
    return (GridSeries(nodes, t_m, counts.reshape(-1, n_months)),
            SyntheticTruth(DEFAULT_TRUE_PMF.copy(), lam_true, coeff, basis))


def trapezoid_projection(t, samples, support_length, n_modes):
    """Raw-sine coefficients c_p = (2/L) * trapezoid integral of f * sin(pi p t / L),
    formed as the full (..., M, T) product before integrating."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(samples, dtype=float)
    phi = np.sin(np.pi * np.outer(np.arange(1, n_modes + 1), t) / support_length)
    return (2.0 / support_length) * np.trapezoid(f[..., None, :] * phi, t, axis=-1)


def dense_trend(values, times, degree):
    """Per-curve Legendre least squares along the last axis by one SVD of the design:
    the coefficients (degree + 1, curves), U (T, degree + 1) orthonormal on the
    design's span, and the coordinates U^T v (curves, degree + 1)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    design = np.polynomial.legendre.legvander(2.0 * (t - t[0]) / (t[-1] - t[0]) - 1.0, degree)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    utv = u.T @ v.reshape(-1, t.size).T
    return (vt.T / s) @ utv, u, utv.T


def dense_project_curves(knots, coef, t, degree, basis):
    """The pipeline's lattice stages through one dense (times, nodes) array, with the
    arguments and returns of ``pipeline._project_curves``: every curve evaluated on
    ``t`` (clipped to the knot span) by scipy's cubic ``BSpline``, floored at 1 and
    logged in place, the trend of :func:`dense_trend`, and the detrended sine
    coordinates P(log) - (P U)(U^T log) by ``project_samples``, which reads the
    array through its transpose; also the log scale max(1, RMS of the log curves)."""
    log = BSpline(knots, coef, 3)(np.clip(t, knots[0], knots[-1]))
    np.log(np.maximum(log, 1.0, out=log), out=log)
    trend_coef, u, utv = dense_trend(log.T, t, degree)
    coeff = project_samples(t, log.T, basis) - utv @ project_samples(t, u.T, basis)
    return trend_coef, coeff, max(1.0, float(np.sqrt(np.vdot(log, log) / log.size)))


def curve_space_residual(raw, cfg):
    """Residual coefficients (N1, N2, M), orthonormal basis, of the pipeline run in
    curve space: cumulate, smooth every site onto the dense time grid with
    ``make_lsq_spline``, IDW the smoothed curves node by node, log, fit the
    Legendre trend by ``lstsq``, subtract it and project the residual cube.
    Also returns the largest coefficient of the projected log curves, the
    scale at which both this path and the pipeline round."""
    values = np.cumsum(raw.values, axis=1) if cfg.cumulate else raw.values
    t = raw.times
    support = float(t[-1])
    out_times = np.linspace(0.0, support, cfg.n_time_nodes)
    knots = np.r_[[t[0]] * 4, np.linspace(t[0], t[-1], cfg.n_knots + 2)[1:-1], [t[-1]] * 4]
    smoothed = make_lsq_spline(t, values.T, knots, k=3)(np.clip(out_times, t[0], t[-1])).T
    n1, n2 = cfg.lattice_dims
    xs = np.linspace(raw.sites[:, 0].min(), raw.sites[:, 0].max(), n1)
    ys = np.linspace(raw.sites[:, 1].min(), raw.sites[:, 1].max(), n2)
    nodes = np.array([[x, y] for x in xs for y in ys])
    log = np.log(np.maximum(brute_force_idw(raw.sites, smoothed, nodes, 2.0), 1.0))
    design = np.polynomial.legendre.legvander(2.0 * out_times / support - 1.0, cfg.trend_degree)
    residual = log - (design @ np.linalg.lstsq(design, log.T, rcond=None)[0]).T
    raw_sine = trapezoid_projection(out_times, residual, support, cfg.n_modes)
    log_scale = np.abs(trapezoid_projection(out_times, log, support, cfg.n_modes)).max()
    return (np.sqrt(support / 2.0) * raw_sine).reshape(n1, n2, cfg.n_modes), \
        np.sqrt(support / 2.0) * log_scale


# --- eigenvalue families, stationarity and C2 normalisation: the scalar and
# grid forms the package replaced by vectorised and closed-form code


def eigenvalues_example1(theta, k):
    """Example-1 triple of mode k: l1 = th^2/(pi^2 k^1.1), l2 = th^2/(pi^2 k^1.2), l3 = -l1*l2."""
    l1 = theta**2 / (np.pi**2 * k**1.1)
    l2 = theta**2 / (np.pi**2 * k**1.2)
    return l1, l2, -l1 * l2


def eigenvalues_example2(theta, k):
    """Example-2 triple of mode k: l_q = th_{q,1}/(k + th_{q,2}), l3 = -l1*l2."""
    l1 = theta[0] / (k + theta[1])
    l2 = theta[2] / (k + theta[3])
    return l1, l2, -l1 * l2


def pmf_triple_scalar(theta, p, groups=((1, 3, 5), (7, 9))):
    """Point-spectra triple of mode p, one operator at a time."""
    ng = len(groups)
    sin_fac = abs(np.sin(p * np.pi / 2.0))
    gidx = next((g for g, members in enumerate(groups) if p in members), None)
    out = []
    for i in range(3):
        base = theta[i * (1 + ng)]
        delta = theta[i * (1 + ng) + 1 + gidx] if gidx is not None else 0.0
        out.append(base + sin_fac * delta)
    return tuple(out)


def crude_sum_margins(triples):
    """Sufficient stationarity bound per mode: 1 - (|l1| + |l2| + |l3|) > 0."""
    return 1.0 - np.abs(np.asarray(triples, dtype=float)).sum(axis=1)


def torus_min_abs_denominator(triple, n=256):
    """min over the n^2 torus grid |z1| = |z2| = 1 of |1 - l1 z1 - l2 z2 - l3 z1 z2|."""
    l1, l2, l3 = triple
    z = np.exp(2j * np.pi * np.arange(n) / n)
    a = 1.0 - l1 * z[:, None] - l2 * z[None, :] - l3 * z[:, None] * z[None, :]
    return float(np.min(np.abs(a)))


def grid_has_torus_zero(triple, n=256):
    """Torus-grid zero check thresholded by the grid spacing pi (|l1| + |l2| + 2|l3|) / n."""
    l1, l2, l3 = triple
    tol = max(1e-9, np.pi * (abs(l1) + abs(l2) + 2.0 * abs(l3)) / n)
    return torus_min_abs_denominator(triple, n) < tol


def bidisk_min_gap(triple, n_radii=101, n_angles=512):
    """min of |1 - l1 z1| - |l2 + l3 z1| over a polar grid of the closed unit disk.

    For each z1 the zero of 1 - l1 z1 - l2 z2 - l3 z1 z2 in z2 is
    (1 - l1 z1) / (l2 + l3 z1); it lies outside the closed unit disk iff the
    gap is positive.  The gap is 4-Lipschitz in z1 for |l1|, |l3| <= 2 and no
    grid point is farther than 0.008 from a disk point, so a grid minimum
    beyond +-0.05 decides the sign of the true minimum.
    """
    l1, l2, l3 = triple
    z1 = (np.linspace(0.0, 1.0, n_radii)[:, None]
          * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)[None, :])
    return float(np.min(np.abs(1.0 - l1 * z1) - np.abs(l2 + l3 * z1)))


def quadrature_sigma2_c2(l1, l2, l3, n=2048):
    """C2 prefactor sigma^2 = (2 pi)^-2 exp(mean log|D|^2) by an n-node rectangle rule.

    Separable triples (l3 = -l1*l2) take max(1,|l1|)^2 max(1,|l2|)^2 / (2 pi)^2;
    others average 2 log max(|1 - l1 e^{iw}|, |l2 + l3 e^{iw}|) over w.
    """
    if abs(l3 + l1 * l2) < 1e-12:
        return max(1.0, abs(l1)) ** 2 * max(1.0, abs(l2)) ** 2 / (2.0 * np.pi) ** 2
    w = -np.pi + 2.0 * np.pi * np.arange(n) / n
    a = np.abs(1.0 - l1 * np.exp(1j * w))
    b = np.abs(l2 + l3 * np.exp(1j * w))
    mean_log = np.mean(2.0 * np.log(np.maximum(np.maximum(a, b), 1e-300)))
    return float(np.exp(mean_log)) / (2.0 * np.pi) ** 2


def normalize_c2(model, theta, grid_size=512):
    """Per-mode C2 prefactor sigma^2 on the grid_size^2 rectangle grid over [-pi, pi)^2.

    sigma^2 makes the grid mean of log((2 pi)^2 F) vanish, F = sigma^2 / |D|^2
    the rational density of each mode; by 2 pi-periodicity the rectangle rule
    is the trapezoid rule.  A zero of D on the grid raises SingularSpectrumError.
    """
    w = -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    with np.errstate(divide="ignore"):
        dens = np.stack([rational_density(t, 1.0, w1, w2) for t in model.eig_triples(theta)],
                        axis=-1)
    if not np.all(np.isfinite(dens)) or np.any(dens <= 0):
        raise SingularSpectrumError("log of the spectral density is not integrable "
                                    "on the quadrature grid")
    return np.exp(-np.log(dens).mean(axis=(0, 1))) / (2.0 * np.pi) ** 2


def log_denominator_mean(l1, l2, l3, n=4096):
    """(2 pi)^-2 times the torus integral of log|D|^2, by an n-node rectangle rule in w1."""
    w = -np.pi + 2.0 * np.pi * np.arange(n) / n
    a = np.abs(1.0 - l1 * np.exp(1j * w))
    b = np.abs(l2 + l3 * np.exp(1j * w))
    return float(np.mean(2.0 * np.log(np.maximum(np.maximum(a, b), 1e-300))))


def stencil_objective_example1(moments, theta, tie_break):
    """example1's max_k loss_k + tie_break * mean_k loss_k at each theta.

    Each loss is the moment contraction of |D_k|^2 written out term by term,
    (1 + l1^2 + l2^2 + l3^2) m0 + 2 (l2 l3 - l1) m1 + 2 (l1 l3 - l2) m2
    - 2 l3 m3 + 2 l1 l2 m4, over the separable C2 prefactor
    max(1, l1^2) max(1, l2^2) / (2 pi)^2; ``moments`` (M, 5) are the cosine
    moments of ``periodogram_moments``.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))[:, None]
    l1, l2, l3 = eigenvalues_example1(theta, np.arange(1, moments.shape[0] + 1))
    m0, m1, m2, m3, m4 = moments.T
    d2 = ((1.0 + l1**2 + l2**2 + l3**2) * m0 + 2.0 * (l2 * l3 - l1) * m1
          + 2.0 * (l1 * l3 - l2) * m2 - 2.0 * l3 * m3 + 2.0 * l1 * l2 * m4)
    loss = d2 * (2.0 * np.pi) ** 2 / (np.maximum(1.0, l1**2) * np.maximum(1.0, l2**2))
    return loss.max(axis=1) + tie_break * loss.mean(axis=1)


def inverse_functional_example1_scores(model, gram, theta, tie_break):
    """example1 candidates scored as the package first scored them: the triples of every
    theta, against the Gram arrays tiled once per theta, through ``_inverse_functional``
    and so the C2 variance of ``c2_innovation_var``.  Returns the theta of least max +
    tie_break mean over the modes, the first of equals, and the (n, M) mode losses."""
    c1, c2, _ = family_triples("example1", [1.0], model.n_modes).T
    s = np.asarray(theta, dtype=float)[:, None] ** 2
    l1, l2 = c1 * s, c2 * s
    triples = np.stack([l1, l2, -l1 * l2], axis=-1).reshape(-1, 3)
    losses = _inverse_functional(triples, np.tile(gram, (len(theta), 1, 1)))
    losses = losses.reshape(len(theta), -1)
    return theta[np.argmin(losses.max(axis=1) + tie_break * losses.mean(axis=1))], losses


def dense_refine_example1(moments, box, tie_break, n=4001, zoom=201, tol=1e-13):
    """Minimizer and minimum of :func:`stencil_objective_example1` over the theta
    interval ``box``: the best node of an n-point grid, then grids of ``zoom``
    points over the two cells around the best node, until the spacing is below tol."""
    lo, hi = box
    grid = np.linspace(lo, hi, n)
    while True:
        values = stencil_objective_example1(moments, grid, tie_break)
        i = int(np.argmin(values))
        h = grid[1] - grid[0]
        if h < tol:
            return float(grid[i]), float(values[i])
        grid = np.linspace(max(lo, grid[i] - h), min(hi, grid[i] + h), zoom)


def grid_min_triple_loss(i_diag, w1, w2, box, n=31, sigma2=1.0 / (2.0 * np.pi) ** 2):
    """Smallest sup-over-modes Whittle loss of one triple shared by every mode,
    over an n^3 grid of the box cut to the closed causal set.

    The closed set is |l1| <= 1 and c >= 2|d| with c = 1 + l1^2 - l2^2 - l3^2
    and d = l1 + l2 l3; sigma2 is its constant C2 prefactor.  Each loss is the
    Fourier-grid mean of I_k |1 - l1 e^{iw1} - l2 e^{iw2} - l3 e^{i(w1+w2)}|^2
    / sigma2, evaluated densely.
    """
    axes = [np.linspace(lo, hi, n) for lo, hi in np.asarray(box, dtype=float)]
    t = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    l1, l2, l3 = t.T
    c = 1.0 + l1**2 - l2**2 - l3**2
    d = l1 + l2 * l3
    t = t[(np.abs(l1) <= 1.0) & (c >= 2.0 * np.abs(d))]
    e1, e2 = np.exp(1j * w1).ravel(), np.exp(1j * w2).ravel()
    i_flat = i_diag.reshape(-1, i_diag.shape[-1])
    best = np.inf
    for chunk in np.array_split(t, max(1, t.shape[0] // 2000)):
        den = np.abs(1.0 - chunk[:, :1] * e1 - chunk[:, 1:2] * e2
                     - chunk[:, 2:] * e1 * e2) ** 2
        losses = den @ i_flat / (e1.size * sigma2)
        best = min(best, float(losses.max(axis=1).min()))
    return best


def _stencil_losses(triples, jac, moments):
    """Per-mode Whittle losses at the causal C2 prefactor 1 / (2 pi)^2 of the
    triples (M, 3), and their theta-Jacobian (M, q) through the triple Jacobian
    ``jac`` (M, 3, q): each loss is the moment contraction of |D_k|^2 written out
    term by term, as in :func:`stencil_objective_example1`."""
    l1, l2, l3 = triples.T
    m0, m1, m2, m3, m4 = moments.T
    d2 = ((1.0 + l1**2 + l2**2 + l3**2) * m0 + 2.0 * (l2 * l3 - l1) * m1
          + 2.0 * (l1 * l3 - l2) * m2 - 2.0 * l3 * m3 + 2.0 * l1 * l2 * m4)
    dl = 2.0 * np.stack([l1 * m0 - m1 + l3 * m2 + l2 * m4,
                         l2 * m0 + l3 * m1 - m2 + l1 * m4,
                         l3 * m0 + l2 * m1 + l1 * m2 - m3], axis=1)
    scale = (2.0 * np.pi) ** 2
    return scale * d2, scale * np.einsum("ki,kiq->kq", dl, jac)


def affine_mode_losses(model, moments, theta):
    """Per-mode Whittle losses of an affine family (triple, custom, realdata_pmf)
    at the causal C2 prefactor and their theta-Jacobian (M, q); the triple
    Jacobian J is read from the model's triples at the unit vectors, since the
    family maps theta = 0 to zero."""
    theta = np.asarray(theta, dtype=float)
    jac = np.stack([model.eig_triples(e) for e in np.eye(theta.size)], axis=-1)
    return _stencil_losses(jac @ theta, jac, moments)


def example2_mode_losses(moments, theta):
    """example2's per-mode Whittle losses at the causal C2 prefactor, which is
    the model's on its causal box, and their theta-Jacobian (M, 4), from
    dl_q/dth_{q,1} = 1/(k + th_{q,2}), dl_q/dth_{q,2} = -l_q/(k + th_{q,2}) and
    l3 = -l1 l2."""
    k = np.arange(1.0, moments.shape[0] + 1)
    l1, l2, l3 = eigenvalues_example2(theta, k)
    r1, r2, zero = 1.0 / (k + theta[1]), 1.0 / (k + theta[3]), np.zeros_like(k)
    d1 = np.stack([r1, -l1 * r1, zero, zero], axis=1)
    d2 = np.stack([zero, zero, r2, -l2 * r2], axis=1)
    jac = np.stack([d1, d2, -(l2[:, None] * d1 + l1[:, None] * d2)], axis=1)
    return _stencil_losses(np.stack([l1, l2, l3], axis=1), jac, moments)


def affine_objective(model, moments, theta, tie_break):
    """The affine fit's objective max_k loss_k + tie_break * mean_k loss_k."""
    losses = affine_mode_losses(model, moments, theta)[0]
    return float(losses.max() + tie_break * losses.mean())


def example2_objective(moments, theta, tie_break):
    """The example2 fit's objective max_k loss_k + tie_break * mean_k loss_k."""
    losses = example2_mode_losses(moments, np.asarray(theta, dtype=float))[0]
    return float(losses.max() + tie_break * losses.mean())


def _slsqp_epigraph(mode_losses, box, tie_break, ftol, maxiter, constraints=()):
    # min t + tie_break * mean_k loss_k s.t. loss_k <= t, ``constraints`` and the
    # box over x = (theta, t), from the box centre, by SLSQP with exact gradients
    from scipy.optimize import minimize

    q = len(box)

    def losses(x):
        return mode_losses(np.clip(x[:q], box[:, 0], box[:, 1]))

    x0 = np.append(box.mean(axis=1), 0.0)
    x0[q] = losses(x0)[0].max()
    ones = np.ones((len(losses(x0)[0]), 1))
    res = minimize(lambda x: x[q] + tie_break * losses(x)[0].mean(), x0, method="SLSQP",
                   jac=lambda x: np.append(tie_break * losses(x)[1].mean(axis=0), 1.0),
                   bounds=[*box, (None, None)],
                   constraints=[*constraints,
                                {"type": "ineq", "fun": lambda x: x[q] - losses(x)[0],
                                 "jac": lambda x: np.hstack([-losses(x)[1], ones])}],
                   options={"ftol": ftol, "maxiter": maxiter})
    return np.clip(res.x[:q], box[:, 0], box[:, 1]), bool(res.success)


def slsqp_affine_fit(model, moments, tie_break, ftol=1e-10, maxiter=2000):
    """The affine fit by scipy: a ``linprog`` check that the box holds a point of
    the closed causal tetrahedron of every mode, then one SLSQP solve of the
    epigraph program min t + tie_break * mean_k loss_k s.t. loss_k <= t, the
    causal faces and the box, from the box centre.  Returns (theta, success)."""
    from scipy.optimize import linprog

    box, q = model.theta_box, len(model.theta_box)
    jac = np.stack([model.eig_triples(e) for e in np.eye(q)], axis=-1)
    # causal iff 1 - l1 > |l2 + l3| and 1 + l1 > |l2 - l3|: four faces f . l < 1
    faces = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    a_ub = np.einsum("fi,kiq->kfq", faces, jac).reshape(-1, q)
    if linprog(np.zeros(q), A_ub=a_ub, b_ub=np.ones(len(a_ub)), bounds=box).status == 2:
        raise ParameterDomainError("the theta box holds no causal parameter")
    a_ub = np.hstack([a_ub, np.zeros((len(a_ub), 1))])  # x = (theta, t)
    return _slsqp_epigraph(lambda theta: affine_mode_losses(model, moments, theta), box,
                           tie_break, ftol, maxiter,
                           [{"type": "ineq", "fun": lambda x: 1.0 - a_ub @ x,
                             "jac": lambda x: -a_ub}])


def slsqp_example2_fit(model, moments, ftol, tie_break=1e-3, maxiter=2000):
    """The example2 fit by scipy: one SLSQP solve of the epigraph program
    min t + tie_break * mean_k loss_k s.t. loss_k <= t over the box, from its
    centre; the box is causal, so no face enters.  Returns (theta, success)."""
    return _slsqp_epigraph(lambda theta: example2_mode_losses(moments, theta), model.theta_box,
                           tie_break, ftol, maxiter)
