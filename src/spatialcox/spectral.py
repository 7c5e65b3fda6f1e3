"""Functional DFT, periodogram operator, empirical covariances, and spectrum inversion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (LagUnavailableError, ParameterDomainError, ResolutionError,
                     SingularSpectrumError)
from .field import CoeffField, FrequencyGrid, _read_binary, _write_csv
from .sarh import CAUSAL_FACES, _has_torus_zero

_HEADER = np.dtype([("n1", "<i8"), ("n2", "<i8"), ("m", "<i8"), ("full", "<i8")])


def functional_dft(field: CoeffField) -> np.ndarray:
    """Functional discrete Fourier transform of the coefficient field.

    For each mode k, returns the 2-D DFT of ``data[:, :, k]`` scaled by
    (N (2*pi)^2)^{-1/2}, laid out on the FFT ordering of
    :class:`FrequencyGrid`; sites are indexed from 0.
    """
    n1, n2, _ = field.data.shape
    scale = 1.0 / np.sqrt(n1 * n2 * (2.0 * np.pi) ** 2)
    return np.fft.fft2(field.data, axes=(0, 1)) * scale


def _reflect(arr: np.ndarray) -> np.ndarray:
    # value at -omega: index z -> (-z) mod N on both spatial axes
    n1, n2 = arr.shape[0], arr.shape[1]
    return arr[(-np.arange(n1)) % n1][:, (-np.arange(n2)) % n2]


@dataclass(frozen=True, eq=False)
class Periodogram:
    """Periodogram operator on the Fourier grid of a sample.

    ``values[w1, w2, k]`` holds the diagonal entries
    Xdft_w(phi_k) * Xdft_{-w}(phi_k); ``cross``, when present, holds the full
    block ``cross[w1, w2, k, l] = Xdft_w(phi_k) * Xdft_{-w}(phi_l)``.
    """

    grid: FrequencyGrid
    values: np.ndarray
    cross: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return self.values.shape[2]

    def diag_real(self, tol: float = 1e-10) -> np.ndarray:
        """Real diagonal entries, |x_w|^2 >= 0 up to rounding.

        Raises :class:`SingularSpectrumError` when the imaginary residue
        exceeds ``tol`` or a real value lies below ``-tol``, both relative to
        the largest real magnitude; values within tolerance are returned as
        their absolute values.
        """
        real = self.values.real
        scale = max(np.abs(real).max(), 1e-300)
        resid = np.abs(self.values.imag).max() / scale
        if resid > tol:
            raise SingularSpectrumError(
                f"periodogram diagonal has imaginary residue {resid:.2e} > {tol:.0e}")
        low = real.min() / scale
        if low < -tol:
            raise SingularSpectrumError(
                f"periodogram diagonal has negative real value {low:.2e} < -{tol:.0e}")
        return np.abs(real)


def periodogram(field: CoeffField, full: bool = False) -> Periodogram:
    """Periodogram operator values[w, k, l] = Xdft_w(phi_k) * Xdft_{-w}(phi_l)."""
    xt = functional_dft(field)
    xr = _reflect(xt)
    values = xt * xr
    cross = None
    if full:  # the same elementwise product, so the diagonal of cross is values bit for bit
        cross = xt[..., :, None] * xr[..., None, :]
    return Periodogram(FrequencyGrid(field.dims), values, cross)


@dataclass(frozen=True, eq=False)
class EmpiricalCov:
    """Un-centered empirical covariances C(z, k, l) = (1/N) sum_y X_y(phi_k) X_{y+z}(phi_l).

    ``values[i1, i2, k, l]`` corresponds to lag (lags1[i1], lags2[i2]); lags
    with |z_j| >= N_j are identically zero and not stored.
    """

    lags1: np.ndarray
    lags2: np.ndarray
    values: np.ndarray

    def at(self, z1: int, z2: int) -> np.ndarray:
        if z1 not in self.lags1 or z2 not in self.lags2:
            raise LagUnavailableError(f"lag ({z1}, {z2}) outside the stored lag rectangle")
        return self.values[np.argmax(self.lags1 == z1), np.argmax(self.lags2 == z2)]


def empirical_cov(field: CoeffField, max_lag) -> EmpiricalCov:
    """Empirical covariances over the lag rectangle |z1| <= L1, |z2| <= L2.

    One BLAS product per lag of the half rectangle z1 > 0, or z1 == 0 and
    z2 >= 0; each mirror lag is filled as the exact transpose, since
    C(-z) = C(z)^T, and C(0) is made exactly symmetric the same way.
    """
    l1max, l2max = int(max_lag[0]), int(max_lag[1])
    n1, n2, m = field.data.shape
    if l1max >= n1 or l2max >= n2:
        raise ParameterDomainError("max_lag must be smaller than the field dims")
    x = field.data
    lags1 = np.arange(-l1max, l1max + 1)
    lags2 = np.arange(-l2max, l2max + 1)
    out = np.empty((lags1.size, lags2.size, m, m))
    norm = 1.0 / (n1 * n2)
    for z1 in range(l1max + 1):
        for z2 in range(-l2max if z1 else 0, l2max + 1):
            a2, b2 = max(0, -z2), min(n2, n2 - z2)
            base = x[:n1 - z1, a2:b2].reshape(-1, m)
            shifted = x[z1:, a2 + z2:b2 + z2].reshape(-1, m)
            c = norm * (base.T @ shifted)
            if z1 == z2 == 0:
                c = np.triu(c) + np.triu(c, 1).T
            out[l1max + z1, l2max + z2] = c
            out[l1max - z1, l2max - z2] = c.T
    return EmpiricalCov(lags1, lags2, out)


# ---------------------------------------------------------------------------
# model-based operations


def _rect_grid(n: int) -> np.ndarray:
    # periodic trapezoidal rule on [-pi, pi]: endpoints coincide, so the
    # n-point rectangle rule is exact the same quadrature
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


# cap on one mode's w1 quadrature, n nodes x (distinct |z2| + 4) complex
# values (32 MiB), and its convergence tolerance relative to R_0
_MAX_QUAD_CELLS = 2**21
_QUAD_RTOL = 1e-13


def _w1_transform(triple, k2, n):
    # (2 pi)^2 / n sum_j e^{i z1 w_j} r_j^{k2} / |c - 2 d cos w_j| over w_j = 2 pi j / n,
    # for every z1 mod n (axis 1) and every |z2| in k2 (axis 0): the w2
    # integral of the unit-sigma density in closed form, then one inverse FFT.
    # c - 2d cos w = (c - 2d) cos^2(w/2) + (c + 2d) sin^2(w/2), and c -+ 2d are
    # products of face margins, so nothing cancels near the band edge
    l1, l2, l3 = triple
    f = 1.0 - CAUSAL_FACES @ triple
    lo, hi = f[0] * f[1], f[2] * f[3]
    half = np.pi * np.arange(n) / n
    e = np.exp(2j * half)
    a, b = 1.0 - l1 * e, l2 + l3 * e
    r = np.conj(b / a) if lo > 0 else a / b  # evaluate only this mode's branch
    g = np.power(r, k2[:, None]) / np.abs(lo * np.cos(half) ** 2 + hi * np.sin(half) ** 2)
    return np.fft.ifft(g, axis=1) * (2.0 * np.pi) ** 2


def cov_from_spectrum(model, theta, lags, grid_size: int = 512):
    """Invert a SARH(1) spectral model to covariances R_z = integral e^{i<z,w>} F_w dw.

    Per mode, with A = 1 - l1 e^{iw1}, B = l2 + l3 e^{iw1} and
    |A|^2 - |B|^2 = c - 2 d cos w1 (see :mod:`spatialcox.sarh`), the w2
    integral is closed form by residues (Brockwell & Davis, section 3.3):

        integral e^{i z2 w2} |A - B e^{iw2}|^-2 dw2 = 2 pi r^{z2} / |c - 2 d cos w1|

    for z2 >= 0, and conj(r)^{|z2|} for z2 < 0, with r = conj(B/A) where
    c > 0 (|A| > |B|) and r = A/B where c < 0 (|B| > |A|).  This covers
    every triple whose AR polynomial has no zero on the unit torus, causal
    or not.  The w1 integrand is smooth and periodic, so a rectangle rule
    converges geometrically; one inverse FFT over its nodes gives every z1.

    Parameters
    ----------
    model : :class:`spatialcox.sarh.SpectralModel`, or any object with
        ``eig_triples(theta) -> (M, 3)`` and ``sigma2(theta) -> (M,)``
    theta : parameter vector
    lags : sequence of integer lag pairs (z1, z2)
    grid_size : starting w1 node count; each mode doubles it until the
        largest change of its covariances is <= 1e-13 of its variance R_0

    Returns
    -------
    values : array, shape (len(lags), M), real
    residue : float, largest imaginary residue removed, relative to R_0

    Raises
    ------
    ResolutionError
        a lag with |z1| or |z2| >= grid_size / 2, or a mode whose quadrature
        would need more than 2^21 complex values (nodes x (distinct |z2| + 4))
        to converge, which happens only very near the torus-zero band.
    SingularSpectrumError
        a mode whose AR polynomial vanishes on the unit torus (|c| <= 2|d|):
        the density is not integrable there and no covariance exists.
    """
    lags = np.array([(int(z1), int(z2)) for z1, z2 in lags], dtype=np.int64).reshape(-1, 2)
    half = grid_size // 2
    if np.any(np.abs(lags) >= half):
        raise ResolutionError(
            f"requested lag exceeds Nyquist range of the {grid_size}-node quadrature")
    triples = np.atleast_2d(np.asarray(model.eig_triples(theta), dtype=float))
    bad = np.flatnonzero(_has_torus_zero(triples) | ~np.all(np.isfinite(triples), axis=1))
    if bad.size:
        k = int(bad[0])
        raise SingularSpectrumError(
            f"mode {k + 1}: AR polynomial of {tuple(triples[k].tolist())} vanishes on the "
            "unit torus, so the spectral density is not integrable")
    sigma2 = np.asarray(model.sigma2(theta), dtype=float)
    # R(z1, z2) = R(-z1, -z2): a lag with z2 < 0 reads row |z2| at -z1
    flip = np.where(lags[:, 1] < 0, -1, 1)
    k2, row = np.unique(np.append(np.abs(lags[:, 1]), 0), return_inverse=True)
    row, z1 = row[:-1], flip * lags[:, 0]
    vals = np.empty((lags.shape[0], triples.shape[0]))
    residue = 0.0
    for k, triple in enumerate(triples):
        n = grid_size
        prev = _w1_transform(triple, k2, n)[row, z1 % n]
        while True:
            if 2 * n * (k2.size + 4) > _MAX_QUAD_CELLS:
                raise ResolutionError(
                    f"mode {k + 1}: covariance quadrature not converged at {n} w1 nodes")
            n *= 2
            h = _w1_transform(triple, k2, n)
            cur, r0 = h[row, z1 % n], h[0, 0].real
            if np.abs(cur - prev).max(initial=0.0) <= _QUAD_RTOL * r0:
                break
            prev = cur
        residue = max(residue, float(np.abs(cur.imag).max(initial=0.0) / r0))
        vals[:, k] = sigma2[k] * cur.real
    return vals, residue


def fejer_smoothed_inverse(model, theta, k: int, m_smooth, omega,
                           quad_size: int = 256) -> float:
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
    w = _rect_grid(quad_size)
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


# ---------------------------------------------------------------------------
# serialization


def save_periodogram_csv(pgram: Periodogram, path) -> None:
    """CSV columns w1, w2, k, l, re, im (diagonal rows have k == l).

    Rows run over the Fourier grid, then over the mode pairs (k, l): the
    diagonal pairs only, or every pair when the cross block is present.
    """
    m, n2 = pgram.n_modes, pgram.grid.dims[1]
    full = pgram.cross is not None
    k, l = np.divmod(np.arange(m * m), m) if full else (np.arange(m),) * 2
    vals = (pgram.cross if full else pgram.values).reshape(pgram.grid.dims[0], -1)
    _write_csv(path, ["w1", "w2", "k", "l", "re", "im"],
               (np.repeat(pgram.grid.omega2, k.size), np.tile(k + 1, n2), np.tile(l + 1, n2)),
               (((w1,), (v.real, v.imag)) for w1, v in zip(pgram.grid.omega1.tolist(), vals)))


def save_periodogram_binary(pgram: Periodogram, path) -> None:
    """Binary layout: header (N1, N2, M, full flag) then interleaved re/im float64."""
    header = np.zeros(1, dtype=_HEADER)
    n1, n2 = pgram.grid.dims
    header["n1"], header["n2"], header["m"] = n1, n2, pgram.n_modes
    header["full"] = 0 if pgram.cross is None else 1
    payload = pgram.values if pgram.cross is None else pgram.cross
    with open(path, "wb") as fh:
        header.tofile(fh)
        payload.astype("<c16").view("<f8").tofile(fh)


def load_periodogram_binary(path) -> Periodogram:
    with open(path, "rb") as fh:
        (n1, n2, m), header, payload = _read_binary(
            fh, _HEADER, "<c16", lambda h: int(h["m"]) ** (2 if h["full"] else 1))
    full = int(header["full"])
    grid = FrequencyGrid((n1, n2))
    if full:
        cross = payload.reshape(n1, n2, m, m)
        diag = np.einsum("ijkk->ijk", cross)
        return Periodogram(grid, diag.copy(), cross)
    return Periodogram(grid, payload.reshape(n1, n2, m))

