"""Functional DFT, periodogram operator, empirical covariances, and spectrum inversion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FileFormatError, LagUnavailableError, ParameterDomainError,
                     ResolutionError, check_dims, check_int)
from .field import CoeffField, FrequencyGrid, _cells, _read_binary, _write_binary, _write_csv
from . import sarh
from .sarh import (_GRAM, _causal_frame, _cosines, _inverse_functional, _product_form,
                   _separable, _stencil_sweep)

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
    return np.roll(arr[::-1, ::-1], 1, axis=(0, 1))


@dataclass(frozen=True, eq=False)
class Periodogram:
    """Periodogram operator on the Fourier grid of a sample.

    ``values[w1, w2, k]`` holds the diagonal entries
    Xdft_w(phi_k) * Xdft_{-w}(phi_k) = |Xdft_w(phi_k)|^2, complex with an
    imaginary part of exactly 0; ``cross``, when present, holds the full
    block ``cross[w1, w2, k, l] = Xdft_w(phi_k) * Xdft_{-w}(phi_l)``.  Of a
    real field the operator is Hermitian, I_{-w}(phi_k, phi_l) = I_w(phi_l,
    phi_k), and :func:`periodogram` keeps it bit for bit in ``values`` and
    ``cross``.
    """

    grid: FrequencyGrid
    values: np.ndarray
    cross: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return self.values.shape[2]


def periodogram(field: CoeffField, full: bool = False) -> Periodogram:
    """Periodogram operator values[w, k, l] = Xdft_w(phi_k) * Xdft_{-w}(phi_l)."""
    xt = functional_dft(field)
    xr = _reflect(xt)
    # |Xdft_w(phi_k)|^2 is real: drop the product's imaginary rounding residue
    values = (xt * xr).real.astype(complex)
    cross = None
    if full:
        cross = xt[..., :, None] * xr[..., None, :]
        m = values.shape[2]
        diag, (up, low) = np.arange(m), np.triu_indices(m, 1)
        cross[..., diag, diag] = values  # so the diagonal of cross is values bit for bit
        # block -w's product X_{-w}(phi_k) X_w(phi_l) rounds its imaginary part apart from
        # block w's X_w(phi_l) X_{-w}(phi_k): fill it from block w transposed, and a
        # self-mirrored block (w = -w) from its upper triangle, so the whole is Hermitian
        at = np.arange(values.shape[0] * values.shape[1])
        mirror = _reflect(at.reshape(values.shape[:2])).ravel()
        flat, later = cross.reshape(at.size, m, m), at > mirror
        flat[later] = flat[mirror[later]].swapaxes(1, 2)
        for i in np.flatnonzero(at == mirror):
            flat[i, low, up] = flat[i, up, low]
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


def _fft_size(n: int) -> int:
    # smallest 5-smooth size 2^a 3^b 5^c >= n, where pocketfft is fast; the
    # exponents are floats so that 5^a cannot overflow
    e = np.arange(int(n).bit_length() + 1.0)
    sizes = np.multiply.outer(np.multiply.outer(2.0**e, 3.0**e), 5.0**e)
    return int(sizes[sizes >= n].min())


def empirical_cov(field: CoeffField, max_lag) -> EmpiricalCov:
    """Empirical covariances over the lag rectangle |z1| <= L1, |z2| <= L2.

    A zero-padded cross-correlation by real FFTs: each axis is padded to the
    smallest 2^a 3^b 5^c >= N_j + L_j, so no circular wrap reaches a stored
    lag; one ``rfft2`` of the mode-major field, then pair by pair, l >= k, the
    inverse of conj(F_k) F_l in ``irfft2``'s own two steps: an ``ifft`` over
    z1, of which only the 2 L1 + 1 stored rows go on to the ``irfft`` over z2,
    so the result is ``irfft2``'s bit for bit.  Every pair reuses one product
    buffer, so no temporary grows with M, and the sums are divided by N once at
    the end.  Pair (l, k) is filled as the exact mirror, since C(-z) = C(z)^T,
    and the diagonal's lags below z = 0 are copied from those above it, so the
    symmetry holds bit for bit.  A bound that is negative, not integral or not
    below the field dims raises :class:`ParameterDomainError`.
    """
    l1max, l2max = check_dims(max_lag, "max_lag", 0)
    n1, n2, m = field.data.shape
    if l1max >= n1 or l2max >= n2:
        raise ParameterDomainError("max_lag must be smaller than the field dims")
    lags1 = np.arange(-l1max, l1max + 1)
    lags2 = np.arange(-l2max, l2max + 1)
    p = (_fft_size(n1 + l1max), _fft_size(n2 + l2max))
    f = np.fft.rfft2(np.moveaxis(field.data, 2, 0), s=p)
    rows, cols = lags1 % p[0], lags2 % p[1]
    out = np.empty((lags1.size, lags2.size, m, m))
    flat, half = out.reshape(-1, m, m), lags1.size * lags2.size // 2  # flat is a view
    prod = np.empty_like(f[0])  # one pair's spectrum, reused by every pair
    for k in range(m):
        conj_k = np.conj(f[k])
        for l in range(k, m):
            np.multiply(conj_k, f[l], out=prod)
            stored_rows = np.fft.ifft(prod, n=p[0], axis=0)[rows]
            out[:, :, k, l] = np.fft.irfft(stored_rows, n=p[1], axis=1)[:, cols]
            if l > k:
                flat[:, l, k] = flat[::-1, k, l]
            else:
                flat[:half, k, k] = flat[:half:-1, k, k]
    out /= n1 * n2
    return EmpiricalCov(lags1, lags2, out)


# ---------------------------------------------------------------------------
# model-based operations


# cap on the covariance sweep's lag rectangle, rows x columns x modes float64 cells (32 MiB)
_MAX_SWEEP_CELLS = 2**22


def cov_from_spectrum(model, theta, lags, grid_size: int = 512) -> np.ndarray:
    """Covariances R_z = integral e^{i<z,w>} F_w dw of a SARH(1) spectral model, shape (K, M).

    Per mode, the unit-innovation covariances of a causal triple solve the lattice
    Yule-Walker equations (Whittle, 1954; Tjostheim, 1978; Brockwell & Davis, 3.3):
    R(z1, z2) = l1 R(z1-1, z2) + l2 R(z1, z2-1) + l3 R(z1-1, z2-1) for z2 >= 1.  Turned
    by R(-z) = R(z) to z2 >= 0, lags with z1 <= 0 take the product form R_0 rho1^-z1
    rho2^z2 of :func:`spatialcox.sarh._product_form`.  A separable mode
    (:func:`spatialcox.sarh._separable`) has rho1 = l1, rho2 = l2 and takes the product
    form R_0 rho1^|z1| rho2^|z2| at every lag, so it is never swept.  The other modes'
    remaining lags come from one exact sweep of the stencil over those modes, z1 in
    [-1, L1], z2 in [0, L2], that starts from the product form on row z1 = -1 and
    column z2 = 0.  Powers are taken of the distinct |z_j| only.  Off the torus zero a
    triple is causal in one orientation (:func:`spatialcox.sarh._causal_frame`): D / l_c,
    the AR polynomial of (1/l1, -l3/l1, -l2/l1), (-l3/l2, 1/l2, -l1/l2) or (-l2/l3, -l1/l3,
    1/l3) with z1, z2 or both reflected; its C2 variance l_c^2 makes R(z) = R'(reflected z).

    ``model`` needs only ``eig_triples(theta) -> (M, 3)``, called once.
    ``lags`` are checked as one (K, 2) array: the first that is not two integers
    raises :class:`ParameterDomainError`.  ``grid_size``, an integer >= 1, is
    checked and unused.  A mode with |c| <= 2|d| vanishes on the unit torus and has
    no covariance: :class:`SingularSpectrumError`.  A mode with no orientation causal
    in floating point, and a sweep above 2^22 cells (rows x columns x non-separable
    modes), raise :class:`ResolutionError`.
    """
    z = np.asarray(lags, dtype=float).reshape(len(lags), 2)
    # integral and within int64: NaN and inf fail one of the two tests
    if not np.all(ok := np.all((z == np.round(z)) & (np.abs(z) < 2.0**62), axis=1)):
        raise ParameterDomainError(f"lag {tuple(z[np.argmin(ok)].tolist())} is not two integers")
    check_int(grid_size, "grid_size", 1)
    pick, t, scale, margins = _causal_frame(triples := model.eig_triples(theta))
    # in each mode's causal frame, turned by R(-y) = R(y) to y2 >= 0, a lag has |y1| = |z1|
    # and y2 = |z2|, and y1 > 0 < y2 where z1 z2 has the sign of the frame's parity
    a = np.abs(z.astype(np.int64))
    n, k = np.unique(a, return_inverse=True)  # the powers of the distinct |z_j| only
    k = k.reshape(a.shape)
    r0, rho, _ = _product_form(margins)  # the causal frame's, R_0 over l_c^2
    powers = rho.T[:, None, :] ** n[:, None]
    vals = r0 * powers[0][k[:, 0]] * powers[1][k[:, 1]]
    # a separable mode is in product form at every lag, so only the others are swept
    modes = np.flatnonzero(~_separable(triples))
    swept = (np.sign(z[:, :1]) * np.sign(z[:, 1:])) * sarh._PARITY[pick[modes]] > 0
    if (hit := swept.any(axis=1)).any():
        y1, y2 = a[hit, 0], a[hit, 1]
        wide, deep = int(y1.max()), int(y2.max())
        if (wide + 2) * (deep + 1) * modes.size > _MAX_SWEEP_CELLS:
            raise ResolutionError(f"covariance sweep over lags up to ({wide}, {deep}) exceeds "
                                  f"{_MAX_SWEEP_CELLS} cells")
        # row 0 is z1 = -1 and column 0 is z2 = 0, both in product form; the recursion
        # has no innovation term, so the cells it fills start at zero
        r0m, rhom = r0[modes], rho[modes]
        buf = np.zeros((modes.size, wide + 2, deep + 1))  # mode-major, as the sweep takes it
        buf[:, :, 0] = r0m[:, None] * rhom[:, :1] ** np.abs(np.arange(-1, wide + 1))
        buf[:, 0] = (r0m * rhom[:, 0])[:, None] * rhom[:, 1:] ** np.arange(deep + 1)
        _stencil_sweep(buf, t[modes])
        cells = np.ix_(hit, modes)
        vals[cells] = np.where(swept[hit], buf[:, y1 + 1, y2].T, vals[cells])
    return vals * scale


def fejer_smoothed_inverse(model, theta, k: int, m_smooth, omega) -> float:
    """Cesaro (Fejer-weighted) partial Fourier sum of 1/F of mode k at a frequency.

    The Fourier coefficients of 1/F_k = |D_k|^2 / sigma2_k vanish beyond lag 1
    in each direction (Whittle, 1954), so the sum over |z_j| <= M_j - 1 with
    triangular weights prod_j (1 - |z_j|/M_j) is exact and has at most nine
    terms: the cosines of 1/F_k at omega weighted by 1, a1, a2, a1 a2, a1 a2
    with a_j = 1 - 1/M_j, read as one Gram array by the Whittle loss's functional
    :func:`spatialcox.sarh._inverse_functional`.  A mode index or order that is not
    an integer, an order below 1, a mode index outside 1..M or an ``omega`` that is
    not two finite numbers raises :class:`ParameterDomainError`.  sigma2_k is the C2
    one of the triple, positive for every triple, so 1/F_k is defined everywhere.
    """
    m1, m2 = check_dims(m_smooth, "m_smooth", 1)
    k = check_int(k, "mode index k", 1)
    if np.shape(omega) != (2,) or not np.all(np.isfinite(omega)):
        raise ParameterDomainError(f"omega must be two finite numbers, got {omega!r}")
    triples = model.eig_triples(theta)
    if k > triples.shape[0]:
        raise ParameterDomainError(f"mode index {k} outside 1..{triples.shape[0]}")
    a1, a2 = 1.0 - 1.0 / m1, 1.0 - 1.0 / m2
    mu = _cosines(float(omega[0]), float(omega[1])) * [1.0, a1, a2, a1 * a2, a1 * a2]
    return float(_inverse_functional(triples[k - 1:k], mu[None, _GRAM])[0])


# ---------------------------------------------------------------------------
# serialization


def save_periodogram_csv(pgram: Periodogram, path) -> None:
    """CSV columns w1, w2, k, l, re, im (diagonal rows have k == l).

    Rows run over the Fourier grid, then over the mode pairs (k, l): the
    diagonal pairs only, or every pair when the cross block is present.  The
    rows of one w1 form a block.  A block's column whose bits are all zero
    (+0.0, as the diagonal's im) is written as "0.0" without formatting, and
    block -w1 reuses the text of block w1's column wherever its bits equal
    that column's at the mirrored rows (w2, k, l) -> (-w2, l, k), which
    :func:`periodogram` gives ``values`` and the real part of ``cross``; any
    other column is formatted.  So a periodogram costs about one repr per
    distinct value, and the bytes are those of formatting every value.
    """
    m, (n1, n2) = pgram.n_modes, pgram.grid.dims
    full = pgram.cross is not None
    k, l = np.divmod(np.arange(m * m), m) if full else (np.arange(m),) * 2
    vals = np.ascontiguousarray(pgram.cross if full else pgram.values, dtype=complex)
    vals = vals.reshape(n1, -1)
    bits = vals.view(np.int64).reshape(n1, -1, 2)  # (block, row, re or im)
    # row r of block -w1 mirrors row mirror[r] of block w1
    mirror = ((-np.arange(n2) % n2)[:, None] * k.size + (l * m + k if full else k)).ravel()
    at_mirror = mirror.tolist()

    def blocks():
        held = {}  # (block, part): joined text that the block's mirror, still to come, reuses
        for i, w1 in enumerate(pgram.grid.omega1.tolist()):
            j, cols = -i % n1, []
            for part, v in enumerate((vals[i].real, vals[i].imag)):
                b, text = bits[i, :, part], held.pop((j, part), None)
                if not b.any():
                    cells = ["0.0"] * b.size
                elif text is not None:
                    cells = list(map(text.split(",").__getitem__, at_mirror))
                else:
                    cells = _cells(v)
                    if i < j and np.array_equal(bits[j, :, part], b[mirror]):
                        held[i, part] = ",".join(cells)
                cols.append(cells)
            yield (w1,), cols

    _write_csv(path, ["w1", "w2", "k", "l", "re", "im"],
               (np.repeat(pgram.grid.omega2, k.size), np.tile(k + 1, n2), np.tile(l + 1, n2)),
               blocks())


def save_periodogram_binary(pgram: Periodogram, path) -> None:
    """Binary layout: header (N1, N2, M, full flag) then interleaved re/im float64."""
    full = pgram.cross is not None
    _write_binary(path, _HEADER, (*pgram.grid.dims, pgram.n_modes, int(full)),
                  pgram.cross if full else pgram.values, "<c16")


def load_periodogram_binary(path) -> Periodogram:
    """Read a file of :func:`save_periodogram_binary`.

    Its diagonal entries are |Xdft_w(phi_k)|^2: an imaginary residue, or a
    negative real value, above 1e-10 of the largest real magnitude raises
    :class:`FileFormatError`, as do a non-finite value and a header the
    payload does not match.
    """
    (n1, n2, m), header, payload = _read_binary(
        path, _HEADER, "<c16", lambda h: int(h["m"]) ** (2 if h["full"] else 1))
    cross = payload.reshape(n1, n2, m, m) if header["full"] else None
    values = payload.reshape(n1, n2, m) if cross is None else np.einsum("ijkk->ijk", cross).copy()
    scale = max(np.abs(values.real).max(), 1e-300)
    for what, dev in (("imaginary residue", np.abs(values.imag).max()),
                      ("negative real value", -values.real.min())):
        if dev > 1e-10 * scale:
            raise FileFormatError(f"{path}: periodogram diagonal has {what} "
                                  f"{dev / scale:.2e} of its largest value, above 1e-10")
    return Periodogram(FrequencyGrid((n1, n2)), values, cross)
