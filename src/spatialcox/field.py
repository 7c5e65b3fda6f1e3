"""Coefficient fields over a spatial lattice, Fourier frequency grids, and file I/O.

The package's file conventions, each stated once: binary (a little-endian header record,
then one C-ordered block of finite values) in :func:`_write_binary` and :func:`_read_binary`,
strict JSON (no NaN or Infinity) formatted before its file opens, CSV as csv.writer's."""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .basis import BasisSpec
from .errors import FileFormatError, ParameterDomainError, check_dims, check_finite

_HEADER_DTYPE = np.dtype([("n1", "<i8"), ("n2", "<i8"), ("m", "<i8"), ("support", "<f8")])


@dataclass(frozen=True, eq=False)
class CoeffField:
    """Mode-coefficient array over an N1 x N2 lattice.

    ``data[i, j, k]`` is the coefficient of mode k+1 at site (i, j).  The
    stack treats these as coordinates of the field value with respect to the
    orthonormalized basis, so ``data @ design_matrix(basis, t)`` gives the
    curves at times t.  ``data`` may be any strided (N1, N2, M) array, such
    as the mode-major view that :func:`spatialcox.sarh.simulate_sarh1`
    returns; a float array is kept as it lies, without a copy.  Instances
    are immutable.
    """

    data: np.ndarray
    basis: BasisSpec

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 3:
            raise ParameterDomainError("data must have shape (N1, N2, M)")
        if arr.shape[2] != self.basis.n_modes:
            raise ParameterDomainError("third axis must match basis.n_modes")
        check_finite(arr, ParameterDomainError, "field coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]

    @property
    def n_modes(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Fourier frequencies omega_z = 2*pi*z_j/N_j with -N_j/2 < z_j <= floor(N_j/2).

    Frequencies are stored in FFT layout so arrays align with numpy's fft2
    output: the labels are 0..N-1 with those above N // 2 taken minus N, so the
    Nyquist bin of an even axis is +N/2 and every component lies in (-pi, pi].
    """

    dims: tuple[int, int]
    z1: np.ndarray = dc_field(init=False, repr=False)
    z2: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", check_dims(self.dims, "grid dims", 1))
        for name, n in zip(("z1", "z2"), self.dims):
            z = np.arange(n)
            z[z > n // 2] -= n
            z.setflags(write=False)
            object.__setattr__(self, name, z)

    @property
    def omega1(self) -> np.ndarray:
        return 2.0 * np.pi * self.z1 / self.dims[0]

    @property
    def omega2(self) -> np.ndarray:
        return 2.0 * np.pi * self.z2 / self.dims[1]

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.omega1, self.omega2, indexing="ij")

    @property
    def size(self) -> int:
        return self.dims[0] * self.dims[1]


# ---------------------------------------------------------------------------
# serialization: flat little-endian binary (header N1,N2,M,support_length), JSON, CSV


def _write_binary(path, header_dtype, header: tuple, payload, dtype) -> None:
    """Write the ``header_dtype`` record ``header``, then ``payload`` as one C-ordered block
    of ``dtype`` values (no copy if it lies so already): the layout of :func:`_read_binary`."""
    with open(path, "wb") as fh:
        np.array([header], dtype=header_dtype).tofile(fh)
        # one C-ordered block: tofile walks any other layout element by element
        np.ascontiguousarray(payload, dtype=dtype).tofile(fh)


def _read_binary(path, header_dtype, dtype, per_site):
    """One ``header_dtype`` record, then the ``n1 * n2 * per_site(header)`` values of
    ``dtype`` it implies.  Non-positive header dims, a file too short for its header or
    payload, or a non-finite payload value raise :class:`FileFormatError`."""
    with open(path, "rb") as fh:
        raw = np.fromfile(fh, dtype=header_dtype, count=1)
        if raw.size != 1:
            raise FileFormatError("file is shorter than its header")
        header = raw[0]
        n1, n2, m = (int(header[f]) for f in ("n1", "n2", "m"))
        if min(n1, n2, m) < 1:
            raise FileFormatError(f"header dims ({n1}, {n2}, {m}) must be positive")
        count = n1 * n2 * per_site(header)
        available = (os.fstat(fh.fileno()).st_size - fh.tell()) // np.dtype(dtype).itemsize
        if available < count:
            raise FileFormatError(
                f"truncated file: header implies {count} values, found {available}")
        payload = np.fromfile(fh, dtype=dtype, count=count)
    check_finite(payload, FileFormatError, "payload holds a non-finite value")
    return (n1, n2, m), header, payload


def save_field_binary(field: CoeffField, path) -> None:
    _write_binary(path, _HEADER_DTYPE, (*field.dims, field.n_modes, field.basis.support_length),
                  field.data, "<f8")


def load_field_binary(path) -> CoeffField:
    """Read a file of :func:`save_field_binary`; a bad header support is a FileFormatError."""
    dims, header, data = _read_binary(path, _HEADER_DTYPE, "<f8", lambda h: int(h["m"]))
    support = float(header["support"])
    if not 0.0 < support < np.inf:
        raise FileFormatError(f"{path}: header support {support} is not finite and positive")
    return CoeffField(data.reshape(dims), BasisSpec(support_length=support, n_modes=dims[2]))


def _write_json(path, payload) -> str:
    """``payload`` as strict JSON text, indent 2, also written to ``path`` unless it is None.
    A NaN or an infinity raises ValueError before the file opens, so it leaves no file."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _cells(col) -> list:
    """The text of each value of a column: str for ints, repr for floats."""
    return list(map(str, np.asarray(col).tolist()))


def _write_csv(path, header, inner, blocks) -> None:
    """Write ``header`` and each block's rows byte for byte as csv.writer would:
    str for ints, repr for floats (exact round trip, -0.0 kept), CRLF line ends.

    A block is ``(lead, values)``: Python scalars that open each of its rows,
    then equal-length value columns, each an array, formatted here, or a list
    of its cells' text.  The ``inner`` columns (grid indices, mode labels,
    times) sit between the two and repeat in every block, so they are
    formatted once.  Text given as a list lets a caller format a value once
    for several rows: the periodogram of a real field is Hermitian bit for
    bit, so :func:`spatialcox.spectral.save_periodogram_csv` passes block -w1
    the text of block w1 at the mirrored rows (w2, k, l) -> (-w2, l, k).
    """
    inner_text = list(map(",".join, zip(*map(_cells, inner))))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lead, values in blocks:
            head = "".join(f"{v}," for v in lead)
            cols = (c if isinstance(c, list) else _cells(c) for c in values)
            rows = map(",".join, zip(inner_text, *cols))
            fh.write(head + f"\r\n{head}".join(rows) + "\r\n")


def save_field_csv(field: CoeffField, path) -> None:
    """CSV columns i, j, k, value; rows run over i, then j, then the mode k."""
    n2, m = field.data.shape[1:]
    _write_csv(path, ["i", "j", "k", "value"],
               (np.repeat(np.arange(n2), m), np.tile(np.arange(1, m + 1), n2)),
               (((i,), (row.reshape(-1),)) for i, row in enumerate(field.data)))


def _read_numeric_csv(path, skiprows: int = 0) -> np.ndarray:
    """``np.loadtxt`` of a CSV after ``skiprows`` header lines; no data row (checked
    before numpy parses, or warns) or a non-number raises :class:`FileFormatError`."""
    with open(path) as fh:
        body = itertools.islice(fh, skiprows, None)
        if not any(line.split("#", 1)[0].strip() for line in body):
            raise FileFormatError(f"{path} holds no data rows")
    try:
        return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_field_csv(path, support_length: float) -> CoeffField:
    """Read the ``i,j,k,value`` CSV; every (i, j, k) of the grid must appear exactly once."""
    rows = _read_numeric_csv(path, skiprows=1)
    if rows.shape[1] != 4:
        raise FileFormatError("expected rows of i, j, k, value")
    if not np.all(np.isfinite(rows)) or np.any(rows[:, :3] % 1 != 0):
        raise FileFormatError("entries must be finite numbers, with integer i, j and k")
    if np.any(rows[:, :3] < [0, 0, 1]):
        raise FileFormatError("negative site index or mode index below 1")
    n1, n2, m = (int(v) for v in rows[:, :3].max(axis=0) + [1, 1, 0])
    # a grid with more cells than the file has rows misses some: refuse it before
    # allocating, so that a huge index cannot ask for a huge array
    if n1 * n2 * m > rows.shape[0]:
        raise FileFormatError(f"{n1}x{n2}x{m} grid has at least {n1 * n2 * m - rows.shape[0]} "
                              f"missing (i, j, k) rows: the file has {rows.shape[0]}")
    flat = np.ravel_multi_index(tuple((rows[:, :3] - [0, 0, 1]).astype(int).T), (n1, n2, m))
    seen = np.bincount(flat, minlength=n1 * n2 * m)
    if np.any(seen != 1):
        missing, repeated = int(np.sum(seen == 0)), int(np.sum(seen > 1))
        raise FileFormatError(
            f"{n1}x{n2}x{m} grid has {missing} missing and {repeated} repeated (i, j, k) rows")
    data = np.zeros(n1 * n2 * m)
    data[flat] = rows[:, 3]
    return CoeffField(data.reshape(n1, n2, m), BasisSpec(support_length=support_length, n_modes=m))
