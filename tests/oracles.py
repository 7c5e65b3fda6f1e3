"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately slow and direct: double sums for the DFT,
nested loops for covariances, a naive site-by-site sweep for the SARH(1)
recursion, the closed-form covariance of the separable (l3 = -l1*l2)
autoregression, the 2-D grid inversion of a spectrum to covariances, the
site-pair double sum of the count variance, the dense Fourier-grid Whittle
loss, row-by-row CSV writers, and the scalar and grid forms of the
eigenvalue families, the stationarity checks and the C2 normalization.
Implementations under test must agree with these, never share code with them.
"""

import csv

import numpy as np

from spatialcox.errors import SingularSpectrumError


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


def naive_sarh(triples, sds, dims, burn, seed):
    """Site-by-site SARH(1) sweep with the same innovation stream layout."""
    n1, n2 = dims
    m = len(triples)
    rng = np.random.default_rng(seed)
    r1, r2 = n1 + burn, n2 + burn
    out = np.empty((n1, n2, m))
    for k in range(m):
        l1, l2, l3 = triples[k]
        eps = rng.normal(0.0, sds[k], size=(r1, r2))
        x = np.zeros((r1, r2))
        for i in range(r1):
            for j in range(r2):
                v = eps[i, j]
                if i > 0:
                    v += l1 * x[i - 1, j]
                if j > 0:
                    v += l2 * x[i, j - 1]
                if i > 0 and j > 0:
                    v += l3 * x[i - 1, j - 1]
                x[i, j] = v
        out[:, :, k] = x[burn:, burn:]
    return out


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


def double_sum_count_moments(rect, cov):
    """Count mean and variance of a lattice rectangle by the site-pair double sum
    exp(R_0) sum_{z,y in B} exp((R_{z-y} + R_{y-z}) / 2) + |B| rho (1 - |B| rho),
    rho = exp(R_0 / 2); a lag missing from ``cov`` raises KeyError."""
    rho = float(np.exp(0.5 * cov[(0, 0)]))
    sites = list(rect.sites())
    acc = 0.0
    for za in sites:
        for zb in sites:
            h1, h2 = za[0] - zb[0], za[1] - zb[1]
            acc += np.exp(0.5 * (cov[(h1, h2)] + cov[(-h1, -h2)]))
    area = len(sites)
    return rho * area, float(np.exp(cov[(0, 0)]) * acc + area * rho * (1.0 - area * rho))


def dense_mode_losses(model, theta, pgram):
    """Per-mode Whittle losses evaluated densely: the Fourier-grid mean of
    I_k / F_k, with F_k the rational density of mode k at every frequency."""
    i_diag = pgram.diag_real()
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


def trapezoid_projection(t, samples, support_length, n_modes):
    """Raw-sine coefficients c_p = (2/L) * trapezoid integral of f * sin(pi p t / L),
    formed as the full (..., M, T) product before integrating."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(samples, dtype=float)
    phi = np.sin(np.pi * np.outer(np.arange(1, n_modes + 1), t) / support_length)
    return (2.0 / support_length) * np.trapezoid(f[..., None, :] * phi, t, axis=-1)


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
