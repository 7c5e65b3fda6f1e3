"""Functional DFT, periodogram operator, empirical covariances, and spectrum inversion."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, ResolutionError, SingularSpectrumError
from .field import CoeffField, FrequencyGrid, _read_binary

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
    if full:
        cross = np.einsum("ijk,ijl->ijkl", xt, xr)
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
        i1 = int(np.where(self.lags1 == z1)[0][0])
        i2 = int(np.where(self.lags2 == z2)[0][0])
        return self.values[i1, i2]


def empirical_cov(field: CoeffField, max_lag) -> EmpiricalCov:
    """Empirical covariances over the lag rectangle |z1| <= L1, |z2| <= L2."""
    l1max, l2max = int(max_lag[0]), int(max_lag[1])
    n1, n2, m = field.data.shape
    if l1max >= n1 or l2max >= n2:
        raise ParameterDomainError("max_lag must be smaller than the field dims")
    x = field.data
    lags1 = np.arange(-l1max, l1max + 1)
    lags2 = np.arange(-l2max, l2max + 1)
    out = np.empty((lags1.size, lags2.size, m, m))
    norm = 1.0 / (n1 * n2)
    for i1, z1 in enumerate(lags1):
        a1, b1 = max(0, -z1), min(n1, n1 - z1)
        for i2, z2 in enumerate(lags2):
            a2, b2 = max(0, -z2), min(n2, n2 - z2)
            base = x[a1:b1, a2:b2]
            shifted = x[a1 + z1:b1 + z1, a2 + z2:b2 + z2]
            out[i1, i2] = norm * np.einsum("ijk,ijl->kl", base, shifted)
    return EmpiricalCov(lags1, lags2, out)


# ---------------------------------------------------------------------------
# model-based operations (duck-typed model: .density(theta, W1, W2) -> (..., M))


def _rect_grid(n: int) -> np.ndarray:
    # periodic trapezoidal rule on [-pi, pi]: endpoints coincide, so the
    # n-point rectangle rule is exact the same quadrature
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def cov_from_spectrum(model, theta, lags, grid_size: int = 512):
    """Invert a spectral model to covariances R_z = integral e^{i<z,w>} F_w dw.

    Parameters
    ----------
    model : object with ``density(theta, W1, W2) -> (n, n, M)``
    theta : parameter vector
    lags : sequence of integer lag pairs (z1, z2)
    grid_size : quadrature grid per axis (trapezoidal on [-pi, pi]^2)

    Returns
    -------
    values : array, shape (len(lags), M), real
    residue : float, largest relative imaginary residue removed
    """
    lags = [(int(z1), int(z2)) for z1, z2 in lags]
    half = grid_size // 2
    if any(abs(z1) >= half or abs(z2) >= half for z1, z2 in lags):
        raise ResolutionError(
            f"requested lag exceeds Nyquist range of the {grid_size}^2 quadrature grid")
    w = _rect_grid(grid_size)
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    dens = np.asarray(model.density(theta, w1, w2))
    if not np.all(np.isfinite(dens)):
        raise SingularSpectrumError("spectral density not finite on the quadrature grid")
    # R_z = (2*pi/n)^2 sum F(w) e^{i z.w}; on this grid that is (2*pi)^2 ifft2
    # up to the (-1)^{z1+z2} phase from the -pi offset
    rhat = np.fft.ifft2(dens, axes=(0, 1)) * (2.0 * np.pi) ** 2
    vals = np.empty((len(lags), dens.shape[2]))
    residue = 0.0
    scale = max(np.abs(rhat).max(), 1e-300)
    for i, (z1, z2) in enumerate(lags):
        v = rhat[z1 % grid_size, z2 % grid_size] * (-1.0) ** (z1 + z2)
        residue = max(residue, float(np.abs(v.imag).max() / scale))
        vals[i] = v.real
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
    m = pgram.n_modes
    if pgram.cross is None:
        k = l = np.arange(1, m + 1)
        vals = pgram.values
    else:
        pairs = np.arange(m * m)
        k, l = pairs // m + 1, pairs % m + 1
        vals = pgram.cross
    n1, n2 = pgram.grid.dims
    w1m, w2m = pgram.grid.meshes()
    cols = [c.reshape(n1, -1) for c in (
        np.repeat(w1m, k.size, axis=1), np.repeat(w2m, k.size, axis=1),
        np.tile(k, (n1, n2)), np.tile(l, (n1, n2)), vals.real, vals.imag)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["w1", "w2", "k", "l", "re", "im"])
        for i in range(n1):  # one block per w1 row bounds the Python floats held at once
            w.writerows(zip(*(c[i].tolist() for c in cols)))


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


def save_empirical_cov_csv(cov: EmpiricalCov, path) -> None:
    """CSV columns z1, z2, k, l, re, im (covariances are real; im is 0)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z1", "z2", "k", "l", "re", "im"])
        m = cov.values.shape[2]
        for i1, z1 in enumerate(cov.lags1):
            for i2, z2 in enumerate(cov.lags2):
                for k in range(m):
                    for l in range(m):
                        w.writerow([z1, z2, k + 1, l + 1, repr(float(cov.values[i1, i2, k, l])), 0.0])
