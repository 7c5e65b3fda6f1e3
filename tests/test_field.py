import tracemalloc
import warnings

import numpy as np
import pytest

from spatialcox import (BasisSpec, CoeffField, FrequencyGrid, design_matrix,
                        load_field_binary, load_field_csv, save_field_binary,
                        save_field_csv)
from spatialcox.errors import FileFormatError, ParameterDomainError, check_finite


def curve_at(fld, site, t):
    # the field's curve at one lattice site: coordinates on the orthonormal basis
    return float(fld.data[site] @ design_matrix(fld.basis, [t])[:, 0])


@pytest.fixture
def small_field():
    rng = np.random.default_rng(11)
    spec = BasisSpec(support_length=1.0, n_modes=3)
    return CoeffField(rng.normal(size=(4, 5, 3)), spec)


def test_evaluate_zero_field():
    spec = BasisSpec(support_length=1.0, n_modes=2)
    fld = CoeffField(np.zeros((3, 3, 2)), spec)
    assert curve_at(fld, (1, 2), 0.3) == 0.0


def test_evaluate_unit_mode():
    spec = BasisSpec(support_length=1.0, n_modes=3)
    data = np.zeros((2, 2, 3))
    data[0, 1, 0] = 1.0
    fld = CoeffField(data, spec)
    assert curve_at(fld, (0, 1), 0.5) == pytest.approx(np.sqrt(2.0))  # sqrt(2/L) at L = 1


def test_evaluate_matches_direct_sum(small_field):
    t = 0.37
    direct = sum(small_field.data[2, 3, k - 1] * np.sqrt(2.0) * np.sin(np.pi * k * t)
                 for k in (1, 2, 3))
    assert curve_at(small_field, (2, 3), t) == pytest.approx(direct, abs=1e-12)


def test_field_invariants():
    spec = BasisSpec(support_length=1.0, n_modes=2)
    with pytest.raises(ValueError):
        CoeffField(np.full((2, 2, 2), np.nan), spec)
    with pytest.raises(ValueError):
        CoeffField(np.zeros((2, 2, 3)), spec)
    fld = CoeffField(np.zeros((2, 2, 2)), spec)
    with pytest.raises(ValueError):
        fld.data[0, 0, 0] = 1.0  # immutable


@pytest.mark.parametrize("values, finite", [
    ([1.0, 2.0, 0.5], True), ([], True), ([1.0, np.nan, 0.5], False), ([1.0, -np.inf], False),
    ([complex(1.0, np.inf), 2.0, 0.5], False), ([complex(1.0, np.nan), 2.0, 0.5], False),
    ([complex(1.0, -1e300), 2.0, 0.5], True), (np.zeros((0, 3), dtype=complex), True),
], ids=["real", "empty", "nan", "minus_inf", "complex_inf_imag", "complex_nan_imag",
        "complex_finite", "complex_empty"])
def test_check_finite_tests_the_real_and_imaginary_parts(values, finite):
    # numpy orders complex values lexicographically: [1+inf j, 2, 0.5] has min 0.5 and
    # max 2, both finite, so the parts are tested apart
    arr = np.asarray(values)
    if finite:
        check_finite(arr, FileFormatError, "not finite")
    else:
        with pytest.raises(FileFormatError, match="not finite"):
            check_finite(arr, FileFormatError, "not finite")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_field_check_refuses_one_non_finite_value_and_forms_no_mask(value):
    # the check reads the mode-major view that simulate_sarh1 returns without a
    # boolean mask of the field, an eighth of its bytes; one bad value is refused
    buf = np.random.default_rng(3).standard_normal((10, 200, 200))
    spec = BasisSpec(support_length=1.0, n_modes=10)
    CoeffField(np.moveaxis(buf, 0, 2), spec)
    tracemalloc.start()
    try:
        CoeffField(np.moveaxis(buf, 0, 2), spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buf.nbytes / 100, peak
    buf[7, 123, 45] = value
    with pytest.raises(ParameterDomainError, match="must be finite"):
        CoeffField(np.moveaxis(buf, 0, 2), spec)


def test_zero_size_field_accepted():
    fld = CoeffField(np.zeros((0, 3, 2)), BasisSpec(support_length=1.0, n_modes=2))
    assert fld.dims == (0, 3)


def test_field_shape_faults_are_parameter_domain_errors():
    # each used to be a bare ValueError
    spec = BasisSpec(support_length=1.0, n_modes=2)
    for data in (np.zeros((2, 2)), np.zeros((2, 2, 3)), np.full((2, 2, 2), np.nan)):
        with pytest.raises(ParameterDomainError):
            CoeffField(data, spec)


@pytest.mark.parametrize("what, value", [("payload", np.nan), ("payload", -np.inf),
                                         ("support", np.nan), ("support", -1.0),
                                         ("support", np.inf)])
def test_binary_non_finite_payload_or_bad_support_rejected(tmp_path, small_field, what, value):
    # a NaN payload used to end in a bare ValueError from CoeffField, a NaN or
    # negative header support in a ParameterDomainError from BasisSpec, and an
    # infinite one to load as an all-zero basis
    path = tmp_path / "f.bin"
    save_field_binary(small_field, path)
    raw = bytearray(path.read_bytes())
    offset = 24 if what == "support" else 32 + 8 * 5
    raw[offset:offset + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match=what):
        load_field_binary(path)


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


def test_csv_huge_index_rejected_before_allocating(tmp_path):
    # the grid of these indices is more than the address space: numpy used to refuse
    # it with a bare ValueError; a TiB-sized grid would have been allocated instead
    path = tmp_path / "f.csv"
    path.write_text(f"i,j,k,value\n0,0,1,1.0\n{2**31},{2**31},{2**31},2.0\n")
    with pytest.raises(FileFormatError, match="missing"):
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


@pytest.mark.parametrize("rows, match", [
    (["0,0,1", "0,1,1", "1,0,1", "1,1,1"], "expected rows of i, j, k, value"),
    (["0,0,1,1.0", "0,1,1,2.0", "-1,0,1,3.0", "1,1,1,4.0"], "negative site index"),
    (["0,0,1,1.0", "0,1,1,2.0", "1,0,0,3.0", "1,1,1,4.0"], "mode index below 1"),
], ids=["three_columns", "negative_site", "mode_zero"])
def test_csv_wrong_columns_or_index_below_range_rejected(tmp_path, rows, match):
    path = tmp_path / "f.csv"
    path.write_text("\n".join(["i,j,k,value", *rows]) + "\n")
    with pytest.raises(FileFormatError, match=match):
        load_field_csv(path, support_length=1.0)


@pytest.mark.parametrize("rows", [
    ["0,0,1,1.0", "0.5,1,1,2.0", "1,0,1,3.0", "1,1.9,1,4.0"],   # truncate to a full 2x2 grid
    ["0,0,1,1.0", "0,1,1,2.0", "1,0,1,3.0", "1,1,1.5,4.0"],
    ["0,0,1,1.0", "0,1,1,2.0", "1,0,1,3.0", "1,1,1,nan"],
    ["0,0,1,1.0", "0,1,1,2.0", "1,0,1,3.0", "inf,1,1,4.0"],
], ids=["fractional_sites", "fractional_mode", "nan_value", "infinite_index"])
def test_csv_non_integer_index_or_non_finite_entry_rejected(tmp_path, rows):
    path = tmp_path / "f.csv"
    path.write_text("\n".join(["i,j,k,value", *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the typed error comes before any numpy warning
        with pytest.raises(FileFormatError):
            load_field_csv(path, support_length=1.0)
