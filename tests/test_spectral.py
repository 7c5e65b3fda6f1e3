import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (brute_force_cov, brute_force_cov_pair, brute_force_dft,
                     grid_cov_from_spectrum, periodogram_csv_loop, separable_cov)
from spatialcox import (BasisSpec, CoeffField, Periodogram, Sarh1Params, SpectralModel,
                        TestFunction, cov_from_spectrum, cov_map, empirical_cov,
                        fejer_smoothed_inverse, functional_dft, periodogram,
                        save_periodogram_csv, simulate_sarh1)
from spatialcox.errors import (FileFormatError, LagUnavailableError, ParameterDomainError,
                              ResolutionError, SingularSpectrumError)
from spatialcox.spectral import load_periodogram_binary, save_periodogram_binary


def random_field(dims, modes, seed, support=1.0):
    rng = np.random.default_rng(seed)
    spec = BasisSpec(support_length=support, n_modes=modes)
    return CoeffField(rng.normal(size=dims + (modes,)), spec)


def test_dft_zero_field():
    fld = CoeffField(np.zeros((4, 4, 2)), BasisSpec(1.0, 2))
    assert np.all(functional_dft(fld) == 0)


def test_dft_constant_field():
    data = np.zeros((6, 4, 1))
    c = 2.5
    data[:, :, 0] = c
    fld = CoeffField(data, BasisSpec(1.0, 1))
    xt = functional_dft(fld)[:, :, 0]
    n = 24
    assert xt[0, 0] == pytest.approx(c * np.sqrt(n / (2 * np.pi) ** 2), abs=1e-12)
    off = xt.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-12


@pytest.mark.parametrize("dims", [(4, 4), (5, 5), (4, 5)])
def test_dft_matches_brute_force(dims):
    fld = random_field(dims, 1, seed=dims[0] * 10 + dims[1])
    xt = functional_dft(fld)[:, :, 0]
    grid = periodogram(fld).grid
    brute = brute_force_dft(fld.data[:, :, 0], grid.z1, grid.z2)
    assert np.max(np.abs(xt - brute)) < 1e-10


def test_dft_conjugate_reflection_symmetry():
    fld = random_field((6, 7), 2, seed=3)
    xt = functional_dft(fld)
    n1, n2 = 6, 7
    refl = xt[(-np.arange(n1)) % n1][:, (-np.arange(n2)) % n2]
    assert np.max(np.abs(refl - np.conj(xt))) < 1e-12


def test_periodogram_zero_and_diag():
    fld = CoeffField(np.zeros((4, 4, 1)), BasisSpec(1.0, 1))
    assert np.all(periodogram(fld).values == 0)
    fld = random_field((8, 6), 2, seed=9)
    pg = periodogram(fld)
    xt = functional_dft(fld)
    assert np.max(np.abs(pg.values - np.abs(xt) ** 2)) < 1e-12
    assert np.all(pg.diag_real() >= 0)


def test_periodogram_parseval():
    # (2 pi)^2 / N * sum_w I_w(phi_k)(phi_k) == C(0, k, k)
    for seed in range(5):
        fld = random_field((7, 5), 3, seed=seed)
        pg = periodogram(fld)
        lhs = (2 * np.pi) ** 2 / pg.grid.size * pg.diag_real().sum(axis=(0, 1))
        rhs = (fld.data**2).mean(axis=(0, 1)) * 1.0
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_periodogram_hermitian_symmetry_full():
    fld = random_field((4, 6), 2, seed=21)
    pg = periodogram(fld, full=True)
    n1, n2 = 4, 6
    cross = pg.cross
    refl = cross[(-np.arange(n1)) % n1][:, (-np.arange(n2)) % n2]
    # real fields: reflecting the frequency conjugates every entry, each
    # frequency slice is Hermitian in the mode slots, and the composition
    # gives I_{-w}(phi_k)(phi_l) == I_w(phi_l)(phi_k)
    assert np.max(np.abs(refl - np.conj(cross))) < 1e-12
    assert np.max(np.abs(cross - np.conj(np.swapaxes(cross, 2, 3)))) < 1e-12
    assert np.max(np.abs(refl - np.swapaxes(cross, 2, 3))) < 1e-12
    np.testing.assert_allclose(np.einsum("ijkk->ijk", cross), pg.values, atol=0)


def test_periodogram_is_fourier_series_of_empirical_cov():
    fld = random_field((6, 5), 2, seed=13)
    pg = periodogram(fld)
    cov = empirical_cov(fld, (5, 4))
    w1, w2 = pg.grid.meshes()
    for k in range(2):
        acc = np.zeros_like(w1, dtype=complex)
        for i1, z1 in enumerate(cov.lags1):
            for i2, z2 in enumerate(cov.lags2):
                acc += cov.values[i1, i2, k, k] * np.exp(-1j * (w1 * z1 + w2 * z2))
        acc /= (2 * np.pi) ** 2
        assert np.max(np.abs(acc - pg.values[:, :, k])) < 1e-8


def test_empirical_cov_iid_unit_variance():
    fld = random_field((200, 200), 1, seed=8)
    cov = empirical_cov(fld, (0, 0))
    assert abs(cov.at(0, 0)[0, 0] - 1.0) < 0.05


def test_empirical_cov_symmetry_exact():
    fld = random_field((9, 7), 3, seed=14)
    cov = empirical_cov(fld, (3, 2))
    for z1 in range(-3, 4):
        for z2 in range(-2, 3):
            np.testing.assert_array_equal(cov.at(z1, z2), cov.at(-z1, -z2).T)


def test_empirical_cov_brute_force_oracle():
    fld = random_field((5, 4), 3, seed=4)
    cov = empirical_cov(fld, (4, 3))
    for z1 in range(-4, 5):
        for z2 in range(-3, 4):
            got = cov.at(z1, z2)
            for k in range(3):
                a = fld.data[:, :, k]
                assert got[k, k] == pytest.approx(brute_force_cov(a, z1, z2), abs=1e-12)
                for l in range(3):
                    want = brute_force_cov_pair(a, fld.data[:, :, l], z1, z2)
                    assert got[k, l] == pytest.approx(want, abs=1e-12)


def test_empirical_cov_lag_domain_error():
    fld = random_field((5, 5), 1, seed=1)
    with pytest.raises(ParameterDomainError):
        empirical_cov(fld, (5, 1))


def test_cov_from_spectrum_constant():
    # white noise of innovation sd 0.5: F == 0.25 / (2 pi)^2, so R_0 = 0.25
    model = SpectralModel("custom", n_modes=1, theta_box=[[-1, 1]] * 3,
                          noise_sd=np.array([0.5]))
    vals, residue = cov_from_spectrum(model, np.zeros(3), [(0, 0), (1, 0), (3, 2)])
    assert vals[0, 0] == pytest.approx(0.25, rel=1e-12)
    assert np.max(np.abs(vals[1:])) < 1e-12
    assert residue < 1e-10


def test_cov_from_spectrum_example1_matches_closed_form():
    from spatialcox import family_triples
    model = SpectralModel("example1", n_modes=2)
    lags = [(0, 0), (1, 0), (0, 1), (2, 3), (-4, 1)]
    vals, residue = cov_from_spectrum(model, [1.0], lags)
    assert residue < 1e-10
    for k in (1, 2):
        l1, l2, _ = family_triples("example1", [1.0], 2)[k - 1]
        for i, (z1, z2) in enumerate(lags):
            assert vals[i, k - 1] == pytest.approx(separable_cov(l1, l2, z1, z2), abs=1e-10)
    r0 = vals[0]
    assert np.all(r0 >= np.abs(vals[1:]))  # R_0 dominates


def test_cov_from_spectrum_roundtrip():
    # forward-transform R_z for |z_j| <= 64 back to F, relative L1 under 1e-4
    model = SpectralModel("example1", n_modes=1)
    lags = [(z1, z2) for z1 in range(-64, 65) for z2 in range(-64, 65)]
    vals, _ = cov_from_spectrum(model, [1.0], lags, grid_size=512)
    grid = np.linspace(-np.pi, np.pi, 129)[:-1]
    w1, w2 = np.meshgrid(grid, grid, indexing="ij")
    acc = np.zeros_like(w1)
    for (z1, z2), r in zip(lags, vals[:, 0]):
        acc += r * np.cos(w1 * z1 + w2 * z2)
    acc /= (2 * np.pi) ** 2
    dens = model.density([1.0], w1, w2)[:, :, 0]
    assert np.abs(acc - dens).sum() / dens.sum() < 1e-4


def test_cov_from_spectrum_nyquist_guard():
    model = SpectralModel("example1", n_modes=1)
    with pytest.raises(ResolutionError):
        cov_from_spectrum(model, [1.0], [(300, 0)], grid_size=512)


@pytest.mark.parametrize("triple", [(0.5, 0.6, 0.0), (0.6, 0.5, 0.0)])
def test_cov_from_spectrum_torus_zero_raises(triple):
    # inside the band |c| <= 2|d| the density is not integrable, so no
    # covariance exists; a quadrature grid that misses the zero curve returns
    # finite numbers instead
    model = SpectralModel("triple", n_modes=1)
    with pytest.raises(SingularSpectrumError, match="mode 1"):
        cov_from_spectrum(model, np.array(triple), [(0, 0), (1, 0)])
    with pytest.raises(SingularSpectrumError):
        cov_map(model, np.array(triple), TestFunction([1.0]), (1, 1))


# barycentric weights of the causal tetrahedron's vertices, shrunk by 0.95:
# every face margin 1 - CAUSAL_FACES @ t is then at least 0.05
TETRA_VERTICES = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                           [-1.0, -1.0, -1.0]])
causal_triples = (st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
                  .filter(lambda w: sum(w) > 0)
                  .map(lambda w: tuple(0.95 * np.asarray(w) / sum(w) @ TETRA_VERTICES)))
ORACLE_LAGS = ([(z1, z2) for z1 in range(-5, 6) for z2 in range(-5, 6)]
               + [(20, -13), (0, 40), (-31, 5)])


@settings(deadline=None, max_examples=8)
@given(causal_triples)
@example((0.0, 1.5, 0.0))     # non-causal, no torus zero: |B| > |A| on the torus
@example((0.1, 1.6, 0.2))
@example((0.1, -0.2, 1.7))
@example((1.5, 0.1, 0.0))     # non-causal with |A| > |B|
@example((0.967, 0.005, 0.005))  # c - 2|d| < 1e-3 from the band edge
def test_cov_from_spectrum_matches_2d_grid_oracle(triple):
    model = SpectralModel("triple", n_modes=1)
    got, residue = cov_from_spectrum(model, np.array(triple), ORACLE_LAGS)
    want = grid_cov_from_spectrum(model, np.array(triple), ORACLE_LAGS, 2048)
    r0 = want[ORACLE_LAGS.index((0, 0)), 0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * r0)
    assert residue < 1e-12


def test_cov_from_spectrum_refines_nodes_near_band_edge():
    # c - 2|d| = 1e-3: 512 w1 nodes leave an error near 1e-9, so the node
    # count must double until the covariances settle
    model = SpectralModel("triple", n_modes=1)
    theta = np.array([0.5, 0.499, 0.0])
    lags = [(0, 0), (1, 0), (0, 1), (7, -3), (-40, 25)]
    got, _ = cov_from_spectrum(model, theta, lags)
    fine, _ = cov_from_spectrum(model, theta, lags, grid_size=8192)
    np.testing.assert_allclose(got, fine, rtol=0, atol=1e-13 * fine[0, 0])
    # 1e-10 from the band edge needs millions of nodes: refuse, do not guess
    with pytest.raises(ResolutionError, match="not converged"):
        cov_from_spectrum(model, np.array([0.5, 0.4999999999, 0.0]), [(0, 0)])


def test_fejer_constant_spectrum():
    model = SpectralModel("custom", n_modes=1, theta_box=[[-1, 1]] * 3,
                          noise_sd=np.array([2.0]))
    for m in ((1, 1), (4, 4), (8, 3)):
        q = fejer_smoothed_inverse(model, np.zeros(3), 1, m, (0.3, -1.1))
        assert q == pytest.approx((2 * np.pi) ** 2 / 4.0, rel=1e-12)  # 1/F, F = 4 / (2 pi)^2


def test_fejer_converges_to_inverse_spectrum():
    model = SpectralModel("example1", n_modes=1)
    omegas = [(w1, w2) for w1 in np.linspace(-3, 3, 5) for w2 in np.linspace(-3, 3, 5)]
    sups = []
    for m in (4, 8, 16, 32):
        errs = []
        for om in omegas:
            q = fejer_smoothed_inverse(model, [1.0], 1, (m, m), om)
            direct = 1.0 / model.density([1.0], om[0], om[1])[0]
            errs.append(abs(q - direct))
        sups.append(max(errs))
    assert all(np.diff(sups) < 0), sups
    # Cesaro averaging converges O(1/M); check the decay rate, not magic numbers
    assert sups[-1] < sups[0] / 5


def test_ergodicity_statistic_decreases_with_n():
    # Hilbert-Schmidt distance sum_{k,l} |C(z,k,l) - R_z(k,l)|^2 over a few
    # lags, averaged over seeds, decreases along N in {64^2, 128^2, 256^2}
    from spatialcox import family_triples
    modes = 3
    params = Sarh1Params("example1", [1.0], modes)
    lags = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)]
    target = np.zeros((len(lags), modes, modes))
    for k in range(modes):
        l1, l2, _ = family_triples("example1", [1.0], modes)[k]
        for i, (z1, z2) in enumerate(lags):
            target[i, k, k] = separable_cov(l1, l2, z1, z2)
    dist = []
    for side in (64, 128, 256):
        acc = 0.0
        for seed in range(10):
            fld = simulate_sarh1(params, (side, side), burn_in=50, seed=9_000 + seed)
            cov = empirical_cov(fld, (2, 3))
            d = 0.0
            for i, (z1, z2) in enumerate(lags):
                d += np.sum((cov.at(z1, z2) - target[i]) ** 2)
            acc += d
        dist.append(acc / 10)
    assert dist[0] > dist[1] > dist[2]


def test_periodogram_serialization_roundtrip(tmp_path):
    fld = random_field((4, 3), 2, seed=6)
    for full in (False, True):
        pg = periodogram(fld, full=full)
        path = tmp_path / f"pg_{full}.bin"
        save_periodogram_binary(pg, path)
        back = load_periodogram_binary(path)
        np.testing.assert_allclose(back.values, pg.values, atol=0)
        if full:
            np.testing.assert_allclose(back.cross, pg.cross, atol=0)
        save_periodogram_csv(pg, tmp_path / f"pg_{full}.csv")


@pytest.mark.parametrize("full", [False, True])
def test_periodogram_csv_matches_row_loop_oracle(tmp_path, full):
    # magnitudes from 1e-20 to 1e20 and exact zeros exercise the float repr
    fld = random_field((5, 4), 3, seed=8)
    pg = periodogram(fld, full=full)
    scale = 10.0 ** np.random.default_rng(9).integers(-20, 21, size=pg.values.shape)
    cross = None if pg.cross is None else pg.cross * scale[..., None]
    pg = Periodogram(pg.grid, pg.values * scale, cross)
    save_periodogram_csv(pg, tmp_path / "one_pass.csv")
    periodogram_csv_loop(pg, tmp_path / "loop.csv")
    assert (tmp_path / "one_pass.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("full", [False, True])
def test_periodogram_binary_truncated_payload_rejected(tmp_path, full):
    pg = periodogram(random_field((4, 3), 2, seed=6), full=full)
    path = tmp_path / "pg.bin"
    save_periodogram_binary(pg, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(FileFormatError, match="truncated"):
        load_periodogram_binary(path)


@pytest.mark.parametrize("dims", [(0, 3, 2), (4, 3, -2)])
def test_periodogram_binary_nonpositive_header_dims_rejected(tmp_path, dims):
    pg = periodogram(random_field((4, 3), 2, seed=6))
    path = tmp_path / "pg.bin"
    save_periodogram_binary(pg, path)
    raw = bytearray(path.read_bytes())
    raw[:24] = np.array(dims, dtype="<i8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="must be positive"):
        load_periodogram_binary(path)


def test_periodogram_binary_negative_diagonal_rejected(tmp_path):
    pg = periodogram(random_field((4, 3), 2, seed=6))
    path = tmp_path / "pg.bin"
    save_periodogram_binary(pg, path)
    raw = bytearray(path.read_bytes())
    # first payload value (after the 32-byte header): real part of values[0, 0, 0]
    raw[32:40] = np.array([-0.5 * np.abs(pg.values.real).max()], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    back = load_periodogram_binary(path)
    with pytest.raises(SingularSpectrumError, match="negative"):
        back.diag_real()
    # rounding-level negatives stay within tolerance and come back as |value|
    vals = pg.values.copy()
    vals[0, 0, 0] = -1e-12 * np.abs(vals.real).max()
    out = Periodogram(pg.grid, vals).diag_real()
    np.testing.assert_array_equal(out, np.abs(vals.real))


@pytest.mark.parametrize("lag", [(3, 0), (0, -3), (9, 9)])
def test_empirical_cov_at_outside_rectangle_raises(lag):
    cov = empirical_cov(random_field((6, 6), 1, seed=2), (2, 2))
    with pytest.raises(LagUnavailableError):
        cov.at(*lag)
