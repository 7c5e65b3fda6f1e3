"""Coefficient fields over a spatial lattice, Fourier frequency grids, and file I/O."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .basis import BasisSpec, design_matrix
from .errors import FileFormatError, ParameterDomainError

_HEADER_DTYPE = np.dtype([("n1", "<i8"), ("n2", "<i8"), ("m", "<i8"), ("support", "<f8")])


@dataclass(frozen=True, eq=False)
class CoeffField:
    """Mode-coefficient array over an N1 x N2 lattice.

    ``data[i, j, k]`` is the coefficient of mode k+1 at site (i, j).  The
    stack treats these as coordinates of the field value with respect to the
    orthonormalized basis; :func:`evaluate_field` exposes the raw-sine
    reading through its ``normalized`` flag.  Instances are immutable.
    """

    data: np.ndarray
    basis: BasisSpec

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 3:
            raise ValueError("data must have shape (N1, N2, M)")
        if arr.shape[2] != self.basis.n_modes:
            raise ValueError("third axis must match basis.n_modes")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]

    @property
    def n_modes(self) -> int:
        return self.data.shape[2]


def evaluate_field(field: CoeffField, site, t, normalized: bool = False):
    """Synthesize the curve value at a lattice site: sum_k data[i,j,k] phi_k(t)."""
    i, j = site
    n1, n2 = field.dims
    if not (0 <= i < n1 and 0 <= j < n2):
        raise IndexError(f"site {site} outside lattice {field.dims}")
    phi = design_matrix(field.basis, np.atleast_1d(t), normalized=normalized)
    out = field.data[i, j] @ phi
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Fourier frequencies omega_z = 2*pi*z_j/N_j with -N_j/2 < z_j <= floor(N_j/2).

    Frequencies are stored in FFT layout so arrays align with numpy's fft2
    output; the Nyquist bin of an even axis is labeled +N/2 so that every
    component lies in (-pi, pi].
    """

    dims: tuple[int, int]
    z1: np.ndarray = dc_field(init=False, repr=False)
    z2: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        n1, n2 = self.dims
        if n1 < 1 or n2 < 1:
            raise ParameterDomainError("grid dims must be positive")
        for name, n in (("z1", n1), ("z2", n2)):
            z = np.rint(np.fft.fftfreq(n) * n).astype(int)
            if n % 2 == 0:
                z[z == -n // 2] = n // 2
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
# serialization: flat little-endian binary (header N1,N2,M,support_length) + CSV


def save_field_binary(field: CoeffField, path) -> None:
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    n1, n2 = field.dims
    header["n1"], header["n2"], header["m"] = n1, n2, field.n_modes
    header["support"] = field.basis.support_length
    with open(path, "wb") as fh:
        header.tofile(fh)
        field.data.astype("<f8").tofile(fh)


def _read_binary(fh, header_dtype, dtype, per_site):
    """Read one header record, then the payload of ``dtype`` values it implies.

    The payload holds ``n1 * n2 * per_site(header)`` values.  Non-positive
    header dims, or a file too short for its header or payload, raise
    :class:`FileFormatError`.
    """
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
    return (n1, n2, m), header, np.fromfile(fh, dtype=dtype, count=count)


def load_field_binary(path) -> CoeffField:
    with open(path, "rb") as fh:
        dims, header, data = _read_binary(fh, _HEADER_DTYPE, "<f8", lambda h: int(h["m"]))
    spec = BasisSpec(support_length=float(header["support"]), n_modes=dims[2])
    return CoeffField(data.reshape(dims), spec)


def save_field_csv(field: CoeffField, path) -> None:
    n1, n2 = field.dims
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "k", "value"])
        for i in range(n1):
            for j in range(n2):
                for k in range(field.n_modes):
                    w.writerow([i, j, k + 1, repr(float(field.data[i, j, k]))])


def load_field_csv(path, support_length: float) -> CoeffField:
    """Read the ``i,j,k,value`` CSV; every (i, j, k) of the grid must appear exactly once."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    rows = np.atleast_2d(rows)
    n1 = int(rows[:, 0].max()) + 1
    n2 = int(rows[:, 1].max()) + 1
    m = int(rows[:, 2].max())
    idx = rows[:, :3].astype(int)
    idx[:, 2] -= 1
    if idx.min() < 0:
        raise FileFormatError("negative site index or mode index below 1")
    seen = np.zeros((n1, n2, m), dtype=int)
    np.add.at(seen, tuple(idx.T), 1)
    if np.any(seen != 1):
        missing, repeated = int(np.sum(seen == 0)), int(np.sum(seen > 1))
        raise FileFormatError(
            f"{n1}x{n2}x{m} grid has {missing} missing and {repeated} repeated (i, j, k) rows")
    data = np.zeros((n1, n2, m))
    data[tuple(idx.T)] = rows[:, 3]
    return CoeffField(data, BasisSpec(support_length=support_length, n_modes=m))
