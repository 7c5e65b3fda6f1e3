"""File-format properties: every CSV writer matches its row-loop oracle byte
for byte, binary and CSV round trips are exact, and Parseval holds in the
periodogram's normalization."""

import csv
import io

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import field_csv_loop, periodogram_csv_loop, series_csv_loop
from spatialcox import (BasisSpec, CoeffField, GridSeries, Periodogram, empirical_cov,
                        load_field_binary, load_field_csv, load_series_csv, periodogram,
                        save_field_binary, save_field_csv, save_periodogram_csv,
                        save_series_csv)
from spatialcox.field import _write_csv
from spatialcox.spectral import load_periodogram_binary, save_periodogram_binary

# signed zeros, subnormals, 1e-300..1e300 and whole numbers, beside arbitrary finite floats
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300, -1e300,
           1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0 ** 53, 1e22, 0.1]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL),
                   st.integers(-10 ** 6, 10 ** 6).map(float))
shapes = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
SETTINGS = settings(deadline=None, max_examples=40)


def signed_zero_column(shape):
    """Array whose flat order puts -0.0 beside 0.0 and runs through SPECIAL."""
    flat = np.resize(np.array(SPECIAL), int(np.prod(shape)))
    return flat.reshape(shape)


def same_bytes(tmp_path, write, oracle, obj):
    write(obj, tmp_path / "block.csv")
    oracle(obj, tmp_path / "loop.csv")
    return (tmp_path / "block.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def fields(elements=finite):
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=elements)).map(
        lambda a: CoeffField(a, BasisSpec(support_length=1.0, n_modes=a.shape[2])))


def test_block_writer_keeps_signed_zeros_in_every_column_kind(tmp_path):
    # lead scalars, inner columns and value columns each hold -0.0 beside 0.0
    inner = (np.array([0.0, -0.0, 5e-324]), np.array([3, -3, 0]))
    blocks = [((0.0, 1), (np.array([-0.0, 0.0, 1e300]),)),
              ((-0.0, 2), (np.array([0.0, -0.0, -1e-300]),))]
    _write_csv(tmp_path / "b.csv", ["a", "b", "c", "d", "e"], inner, blocks)
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(["a", "b", "c", "d", "e"])
    for lead, (values,) in blocks:
        w.writerows([*lead, *row] for row in zip(*inner, values))
    assert (tmp_path / "b.csv").read_bytes() == want.getvalue().encode()


# --- every writer against its oracle ---------------------------------------


@SETTINGS
@given(fields())
@example(CoeffField(signed_zero_column((1, 5, 3)), BasisSpec(1.0, 3)))   # one lattice row
@example(CoeffField(signed_zero_column((3, 2, 4)), BasisSpec(1.0, 4)))
def test_field_csv_matches_row_loop_oracle(tmp_path_factory, fld):
    assert same_bytes(tmp_path_factory.mktemp("f"), save_field_csv, field_csv_loop, fld)


@SETTINGS
@given(shapes, st.booleans(), st.data())
@example((3, 4, 3), True, None)    # the full cross periodogram with special values
@example((1, 3, 2), False, None)
def test_periodogram_csv_matches_row_loop_oracle_any_values(tmp_path_factory, shape, full,
                                                           data):
    n1, n2, m = shape
    vshape = (n1, n2, m, m) if full else (n1, n2, m)
    if data is None:
        re = signed_zero_column(vshape)
        im = -re[::-1].reshape(vshape)
    else:
        re, im = (data.draw(arrays(np.float64, vshape, elements=finite)) for _ in range(2))
    vals = np.empty(vshape, dtype=complex)
    vals.real, vals.imag = re, im   # re + 1j * im would turn a -0.0 real part into 0.0
    grid = periodogram(CoeffField(np.zeros(shape), BasisSpec(1.0, m))).grid
    pg = (Periodogram(grid, np.einsum("ijkk->ijk", vals).copy(), vals) if full
          else Periodogram(grid, vals))
    assert same_bytes(tmp_path_factory.mktemp("p"), save_periodogram_csv,
                      periodogram_csv_loop, pg)


def series_from(sites, times, values):
    times = np.unique(times)  # strictly increasing, as GridSeries requires
    return GridSeries(sites, times, values[:, :times.size])


series = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda s: st.builds(
    series_from, arrays(np.float64, (s[0], 2), elements=finite),
    arrays(np.float64, s[1], elements=finite),
    arrays(np.float64, s, elements=finite)))
SIGNED_ZERO_SERIES = GridSeries([[0.0, -0.0], [-0.0, 0.0], [5e-324, 1e300]],
                                [-1.0, -0.0, 1e-300, 7.0], signed_zero_column((3, 4)))


@SETTINGS
@given(series)
@example(SIGNED_ZERO_SERIES)
def test_series_csv_matches_row_loop_oracle(tmp_path_factory, ser):
    assert same_bytes(tmp_path_factory.mktemp("s"), save_series_csv, series_csv_loop, ser)


# --- round trips -------------------------------------------------------------


@SETTINGS
@given(fields())
@example(CoeffField(signed_zero_column((1, 5, 3)), BasisSpec(1.0, 3)))
def test_field_binary_and_csv_roundtrips_are_bit_exact(tmp_path_factory, fld):
    d = tmp_path_factory.mktemp("rt")
    save_field_binary(fld, d / "f.bin")
    save_field_csv(fld, d / "f.csv")
    for back in (load_field_binary(d / "f.bin"), load_field_csv(d / "f.csv", 1.0)):
        assert back.data.shape == fld.data.shape
        assert back.data.tobytes() == fld.data.tobytes()


@SETTINGS
@given(fields(st.floats(-1e3, 1e3)), st.booleans())
def test_periodogram_binary_roundtrip_is_bit_exact(tmp_path_factory, fld, full):
    pg = periodogram(fld, full=full)
    path = tmp_path_factory.mktemp("pg") / "pg.bin"
    save_periodogram_binary(pg, path)
    back = load_periodogram_binary(path)
    assert back.grid.dims == pg.grid.dims
    assert back.values.tobytes() == pg.values.tobytes()
    assert (back.cross is None) == (not full)
    if full:
        assert back.cross.tobytes() == pg.cross.tobytes()


@SETTINGS
@given(series)
@example(SIGNED_ZERO_SERIES)
def test_series_csv_roundtrip_is_bit_exact(tmp_path_factory, ser):
    path = tmp_path_factory.mktemp("ser") / "s.csv"
    save_series_csv(ser, path)
    back = load_series_csv(path)
    for name in ("sites", "times", "values"):
        assert getattr(back, name).tobytes() == getattr(ser, name).tobytes(), name


# --- Parseval ------------------------------------------------------------------


@SETTINGS
@given(fields(st.floats(-1e3, 1e3)))
def test_parseval_field_and_periodogram(fld):
    # functional_dft scales by (N (2 pi)^2)^(-1/2), so
    # (2 pi)^2 / N * sum_w I_w(phi_k, phi_l) = C(0, k, l) for every mode pair
    pg = periodogram(fld, full=True)
    lhs = (2 * np.pi) ** 2 / pg.grid.size * pg.cross.sum(axis=(0, 1))
    rhs = empirical_cov(fld, (0, 0)).at(0, 0)
    scale = max(float(np.max(fld.data ** 2)), 1e-300)
    np.testing.assert_allclose(lhs.real, rhs, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(lhs.imag, 0.0, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(lhs.real.diagonal(), (fld.data ** 2).mean(axis=(0, 1)),
                               rtol=0, atol=1e-12 * scale)
