import warnings

import numpy as np
import pytest

from spatialcox import (BasisSpec, CoeffField, FrequencyGrid, evaluate_field,
                        load_field_binary, load_field_csv, save_field_binary,
                        save_field_csv)
from spatialcox.errors import FileFormatError


@pytest.fixture
def small_field():
    rng = np.random.default_rng(11)
    spec = BasisSpec(support_length=1.0, n_modes=3)
    return CoeffField(rng.normal(size=(4, 5, 3)), spec)


def test_evaluate_zero_field():
    spec = BasisSpec(support_length=1.0, n_modes=2)
    fld = CoeffField(np.zeros((3, 3, 2)), spec)
    assert evaluate_field(fld, (1, 2), 0.3) == 0.0


def test_evaluate_unit_mode():
    spec = BasisSpec(support_length=1.0, n_modes=3)
    data = np.zeros((2, 2, 3))
    data[0, 1, 0] = 1.0
    fld = CoeffField(data, spec)
    assert evaluate_field(fld, (0, 1), 0.5) == pytest.approx(1.0)


def test_evaluate_matches_direct_sum(small_field):
    t = 0.37
    direct = sum(small_field.data[2, 3, k - 1] * np.sin(np.pi * k * t)
                 for k in (1, 2, 3))
    assert evaluate_field(small_field, (2, 3), t) == pytest.approx(direct, abs=1e-12)


def test_evaluate_site_out_of_range(small_field):
    with pytest.raises(IndexError):
        evaluate_field(small_field, (4, 0), 0.2)


def test_field_invariants():
    spec = BasisSpec(support_length=1.0, n_modes=2)
    with pytest.raises(ValueError):
        CoeffField(np.full((2, 2, 2), np.nan), spec)
    with pytest.raises(ValueError):
        CoeffField(np.zeros((2, 2, 3)), spec)
    fld = CoeffField(np.zeros((2, 2, 2)), spec)
    with pytest.raises(ValueError):
        fld.data[0, 0, 0] = 1.0  # immutable


def test_binary_roundtrip(tmp_path, small_field):
    path = tmp_path / "f.bin"
    save_field_binary(small_field, path)
    back = load_field_binary(path)
    assert back.dims == small_field.dims
    assert back.basis == small_field.basis
    np.testing.assert_array_equal(back.data, small_field.data)


def test_csv_roundtrip(tmp_path, small_field):
    path = tmp_path / "f.csv"
    save_field_csv(small_field, path)
    back = load_field_csv(path, support_length=1.0)
    np.testing.assert_allclose(back.data, small_field.data, rtol=0, atol=0)


def test_csv_missing_rows_rejected(tmp_path, small_field):
    path = tmp_path / "f.csv"
    save_field_csv(small_field, path)
    lines = path.read_text().splitlines()
    # drop three interior rows: the grid extent stays 4x5x3
    path.write_text("\n".join(lines[:10] + lines[13:]) + "\n")
    with pytest.raises(FileFormatError, match="3 missing"):
        load_field_csv(path, support_length=1.0)


def test_csv_duplicate_rows_rejected(tmp_path, small_field):
    path = tmp_path / "f.csv"
    save_field_csv(small_field, path)
    lines = path.read_text().splitlines()
    i, j, k, _ = lines[5].split(",")
    path.write_text("\n".join(lines + [f"{i},{j},{k},0.0"]) + "\n")
    with pytest.raises(FileFormatError, match="1 repeated"):
        load_field_csv(path, support_length=1.0)


def test_csv_header_only_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("i,j,k,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error comes before any numpy warning
        with pytest.raises(FileFormatError, match="no data rows"):
            load_field_csv(path, support_length=1.0)


def test_binary_truncated_payload_rejected(tmp_path, small_field):
    path = tmp_path / "f.bin"
    save_field_binary(small_field, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FileFormatError, match="truncated"):
        load_field_binary(path)
    assert issubclass(FileFormatError, ValueError)


@pytest.mark.parametrize("dims", [(0, 5, 3), (4, -5, 3), (4, 5, 0)])
def test_binary_nonpositive_header_dims_rejected(tmp_path, small_field, dims):
    path = tmp_path / "f.bin"
    save_field_binary(small_field, path)
    raw = bytearray(path.read_bytes())
    raw[:24] = np.array(dims, dtype="<i8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="must be positive"):
        load_field_binary(path)


def test_binary_short_header_rejected(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"\x01" * 20)
    with pytest.raises(FileFormatError, match="header"):
        load_field_binary(path)


@pytest.mark.parametrize("dims", [(4, 4), (5, 5), (4, 7), (1, 6)])
def test_frequency_grid_ranges(dims):
    grid = FrequencyGrid(dims)
    assert grid.z1.size == dims[0] and grid.z2.size == dims[1]
    assert grid.size == dims[0] * dims[1]
    for z, n in ((grid.z1, dims[0]), (grid.z2, dims[1])):
        assert np.all(z > -n / 2) and np.all(z <= n // 2)
        w = 2 * np.pi * z / n
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        assert len(set(z.tolist())) == n
