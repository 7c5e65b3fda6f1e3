import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (brute_force_cov, brute_force_cov_pair, brute_force_dft, exact_axis_cov,
                     grid_cov_from_spectrum, irfft2_empirical_cov, lag_by_lag_empirical_cov,
                     lag_rectangle_cosine_sum, periodogram_csv_loop, quadrature_cov_from_spectrum,
                     quadrature_fejer_inverse, searched_causal_orientation, separable_cov)
import spatialcox.spectral
from spatialcox import (BasisSpec, CoeffField, Periodogram, Sarh1Params, SpectralModel,
                        TestFunction, c2_innovation_var, cov_from_spectrum, cov_map, empirical_cov,
                        family_triples, fejer_smoothed_inverse, functional_dft, is_causal,
                        periodogram, save_periodogram_csv, simulate_sarh1)
from spatialcox.errors import (FileFormatError, LagUnavailableError, ParameterDomainError,
                              ResolutionError, SingularSpectrumError)
from spatialcox.pipeline import DEFAULT_TRUE_PMF
from spatialcox.sarh import _GRAM, _causal_frame, _face_margins, _gram_form
from spatialcox.spectral import _fft_size, load_periodogram_binary, save_periodogram_binary


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
    assert np.all(pg.values.real >= 0)


def test_periodogram_parseval():
    # (2 pi)^2 / N * sum_w I_w(phi_k)(phi_k) == C(0, k, k)
    for seed in range(5):
        fld = random_field((7, 5), 3, seed=seed)
        pg = periodogram(fld)
        lhs = (2 * np.pi) ** 2 / pg.grid.size * pg.values.real.sum(axis=(0, 1))
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


@pytest.mark.parametrize("dims, modes, max_lag", [
    ((9, 7), 3, (3, 2)),      # odd dims, padded to 12 x 9
    ((8, 10), 4, (5, 0)),     # even dims, L2 = 0: one stored column
    ((16, 16), 2, (0, 6)),    # L1 = 0: one stored row
    ((7, 12), 1, (6, 11)),    # the largest lags
], ids=["odd", "even_l2_zero", "l1_zero", "largest_lags"])
def test_empirical_cov_is_the_irfft2_form_bit_for_bit(dims, modes, max_lag):
    # inverting only the stored rows of the z1 ifft before the z2 irfft is irfft2's
    # own sequence of 1-D transforms, so nothing moves by a single bit
    fld = random_field(dims, modes, seed=sum(dims) + modes)
    np.testing.assert_array_equal(empirical_cov(fld, max_lag).values,
                                  irfft2_empirical_cov(fld.data, max_lag))


def test_empirical_cov_memory_stays_flat_in_the_mode_count():
    # pair by pair, one product buffer serves all 210 pairs of 20 modes: the peak is the
    # output, the rfft2 array and its transient, and a few single-pair spectra.  A batch
    # of the (M - k) pairs of mode k, and its inverse, would pass the bound
    fld = random_field((40, 40), 20, seed=3)
    p = (_fft_size(40 + 12), _fft_size(40 + 12))
    pair_bytes = p[0] * (p[1] // 2 + 1) * 16
    tracemalloc.start()
    try:
        out = empirical_cov(fld, (12, 12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = out.values.nbytes + 2 * 20 * pair_bytes + 8 * pair_bytes
    assert peak < bound, (peak / 2**20, bound / 2**20)


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
    # a negative lag bound is an error, not an empty (0, 1, M, M) array
    for lag in [(-1, 0), (0, -1)]:
        with pytest.raises(ParameterDomainError, match=">= 0"):
            empirical_cov(fld, lag)


def test_empirical_cov_rejects_non_integral_lags():
    # (1.5, 1) used to truncate through int() to (1, 1)
    fld = random_field((5, 5), 1, seed=1)
    with pytest.raises(ParameterDomainError, match=r"max_lag\[0\] must be an integer >= 0"):
        empirical_cov(fld, (1.5, 1))
    assert empirical_cov(fld, (2.0, np.int64(1))).values.shape == (5, 3, 1, 1)


@st.composite
def fields_with_lags(draw):
    n1, n2, m = draw(st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3)))
    # no value so small that every product underflows below max|C|'s precision
    x = draw(arrays(float, (n1, n2, m), elements=st.floats(-1e3, 1e3).filter(
        lambda v: v == 0 or abs(v) > 1e-100)))
    return x, (draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2 - 1)))


@settings(deadline=None, max_examples=60)
@given(fields_with_lags())
@example((np.arange(98.0).reshape(7, 7, 2) - 40.0, (6, 4)))  # padded to 15 x 12, not 13 x 11
def test_empirical_cov_matches_lag_by_lag_oracle(case):
    x, lag = case
    cov = empirical_cov(CoeffField(x, BasisSpec(1.0, x.shape[2])), lag)
    want = lag_by_lag_empirical_cov(x, lag)
    assert cov.values.shape == want.shape
    assert np.abs(cov.values - want).max() <= 1e-13 * np.abs(want).max()
    np.testing.assert_array_equal(cov.values, cov.values[::-1, ::-1].transpose(0, 1, 3, 2))


def test_fft_size_is_the_smallest_5_smooth_size_not_below_n():
    def smooth(n):
        for f in (2, 3, 5):
            while n % f == 0:
                n //= f
        return n == 1

    for n in range(1, 500):
        p = _fft_size(n)
        assert smooth(p) and p >= n and not any(smooth(q) for q in range(n, p))
        assert (p == n) == smooth(n)
    assert _fft_size(83) == 90
    p = _fft_size(2**40 + 1)  # exact at sizes far above any lattice's
    assert smooth(p) and 2**40 < p < 2**41


def test_periodogram_diagonal_is_exactly_real(tmp_path):
    fld = random_field((9, 8), 3, seed=31)
    xt = functional_dft(fld)
    xr = xt[(-np.arange(9)) % 9][:, (-np.arange(8)) % 8]
    want = (xt * xr).real
    for full in (False, True):
        pg = periodogram(fld, full=full)
        assert np.all(pg.values.imag == 0) and not np.any(np.signbit(pg.values.imag))
        np.testing.assert_array_equal(pg.values.real.view(np.uint64), want.view(np.uint64))
        if full:
            np.testing.assert_array_equal(np.einsum("ijkk->ijk", pg.cross).copy().view(np.uint64),
                                          pg.values.view(np.uint64))
        save_periodogram_csv(pg, tmp_path / "pg.csv")
        rows = [r.split(",") for r in (tmp_path / "pg.csv").read_text().splitlines()[1:]]
        diag = [r for r in rows if r[2] == r[3]]
        assert len(diag) == 9 * 8 * 3 and all(r[5] == "0.0" for r in diag)


def test_cov_from_spectrum_constant():
    # white noise of innovation sd 0.5 is the unit one times 0.5: F == 0.25 /
    # (2 pi)^2, so R_0 = 0.25 times the unit R_0
    model = SpectralModel("custom", n_modes=1, theta_box=[[-1, 1]] * 3)
    vals = cov_from_spectrum(model, np.zeros(3), [(0, 0), (1, 0), (3, 2)])
    assert 0.25 * vals[0, 0] == pytest.approx(0.25, rel=1e-12)
    assert np.max(np.abs(0.25 * vals[1:])) < 1e-12


@pytest.mark.parametrize("lags, bad", [
    ([(1.7, 0)], r"\(1.7, 0.0\)"), ([(0, 0), (np.nan, 0)], r"\(nan, 0.0\)"),
    ([(0, 0), (1, 0), (0, np.inf)], r"\(0.0, inf\)"), ([(2.0**63, 0)], r"\(9.2\d*e\+18, 0.0\)"),
], ids=["fraction", "nan", "inf", "beyond_int64"])
def test_cov_from_spectrum_rejects_lags_that_are_not_integers(lags, bad):
    # (1.7, 0) used to truncate to lag (1, 0), and NaN to end in a bare ValueError
    with pytest.raises(ParameterDomainError, match=f"lag {bad} is not two integers"):
        cov_from_spectrum(SpectralModel("example1", 2), [1.0], lags)


def test_cov_from_spectrum_example1_matches_closed_form():
    from spatialcox import family_triples
    model = SpectralModel("example1", n_modes=2)
    lags = [(0, 0), (1, 0), (0, 1), (2, 3), (-4, 1)]
    vals = cov_from_spectrum(model, [1.0], lags)
    for k in (1, 2):
        l1, l2, _ = family_triples("example1", [1.0], 2)[k - 1]
        for i, (z1, z2) in enumerate(lags):
            assert vals[i, k - 1] == pytest.approx(separable_cov(l1, l2, z1, z2), abs=1e-10)
    r0 = vals[0]
    assert np.all(r0 >= np.abs(vals[1:]))  # R_0 dominates


def test_separable_modes_never_sweep(monkeypatch):
    # example1 and example2 are separable, l3 = -l1 l2, so every lag, z1 z2 > 0 too, is
    # the product form R_0 l1^|z1| l2^|z2|: a sweep that raises is never reached
    lags = [(3, 5), (-2, -7), (19, 19), (1, 1), (4, -6), (-8, 3), (0, 0), (11, 0)]

    def no_sweep(buf, triples):
        raise AssertionError("swept a separable mode")

    with monkeypatch.context() as mp:
        mp.setattr(spatialcox.spectral, "_stencil_sweep", no_sweep)
        for family, theta in (("example1", [1.0]), ("example1", [3.1]),
                              ("example2", [1.0, 1.6, 1.5, 1.2])):
            got = cov_from_spectrum(SpectralModel(family, 4), theta, lags)
            for k, (l1, l2, _) in enumerate(family_triples(family, theta, 4)):
                want = [separable_cov(l1, l2, z1, z2) for z1, z2 in lags]
                r0 = separable_cov(l1, l2, 0, 0)
                assert np.max(np.abs(got[:, k] - want)) <= 1e-13 * r0, (family, theta, k)
    # a custom model sweeps its non-separable mode alone, and both match the quadrature
    swept, sweep = [], spatialcox.spectral._stencil_sweep

    def spy(buf, triples):
        swept.append(triples.copy())
        sweep(buf, triples)

    monkeypatch.setattr(spatialcox.spectral, "_stencil_sweep", spy)
    model, theta = SpectralModel("custom", 2), np.array([0.4, 0.3, -0.12, 0.5, 0.3, -0.1])
    assert theta[2] == -theta[0] * theta[1]  # mode 1 is separable in floats
    got = cov_from_spectrum(model, theta, ORACLE_LAGS)
    np.testing.assert_array_equal(np.concatenate(swept), [theta[3:]])
    want = quadrature_cov_from_spectrum(model, theta, ORACLE_LAGS)
    r0 = want[ORACLE_LAGS.index((0, 0))]
    assert np.all(np.abs(got - want) <= 1e-13 * r0)


def test_cov_from_spectrum_roundtrip():
    # forward-transform R_z for |z_j| <= 64 back to F, relative L1 under 1e-4
    model = SpectralModel("example1", n_modes=1)
    lags = [(z1, z2) for z1 in range(-64, 65) for z2 in range(-64, 65)]
    vals = cov_from_spectrum(model, [1.0], lags, grid_size=512)
    grid = np.linspace(-np.pi, np.pi, 129)[:-1]
    acc = lag_rectangle_cosine_sum(vals[:, 0].reshape(129, 129), grid, grid) / (2 * np.pi) ** 2
    dens = model.density([1.0], grid[:, None], grid[None, :])[:, :, 0]
    assert np.abs(acc - dens).sum() / dens.sum() < 1e-4


def test_cov_from_spectrum_wide_lags_match_separable_closed_form():
    # separable modes are closed form at any lag, whatever grid_size says; at
    # theta = 3.1 (l1 ~ 0.97 on mode 1) these lags are far from zero
    from spatialcox import family_triples

    model = SpectralModel("example1", n_modes=2)
    lags = [(300, 0), (0, 300), (10, -400)]
    for theta in (1.0, 3.1):
        vals = cov_from_spectrum(model, [theta], lags, grid_size=512)
        for k, (l1, l2, _) in enumerate(family_triples("example1", [theta], 2)):
            r0 = separable_cov(l1, l2, 0, 0)
            want = [separable_cov(l1, l2, z1, z2) for z1, z2 in lags]
            assert np.max(np.abs(vals[:, k] - want)) <= 1e-12 * r0, (theta, k)


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
# every face margin 1 - CAUSAL_FACES @ t is then at least 0.05.  The weights
# are normalised before the shrink, since 0.95 * 5e-324 rounds back to 5e-324
TETRA_VERTICES = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                           [-1.0, -1.0, -1.0]])


def _shrunk_barycentre(w):
    t = tuple(0.95 * (np.asarray(w) / sum(w)) @ TETRA_VERTICES)
    assert is_causal([t])[0], (w, t)
    return t


causal_triples = (st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
                  .filter(lambda w: sum(w) > 0).map(_shrunk_barycentre))


def test_causal_triples_strategy_stays_inside_at_subnormal_weights():
    # a subnormal weight must still be shrunk: unshrunk, w = (0, 0, 0, 5e-324)
    # is the vertex (-1, -1, -1), whose polynomial vanishes on the torus, so
    # no covariance exists there
    assert _shrunk_barycentre([0.0, 0.0, 0.0, 5e-324]) == (-0.95, -0.95, -0.95)
    with pytest.raises(SingularSpectrumError):
        cov_from_spectrum(SpectralModel("triple", n_modes=1), TETRA_VERTICES[3], [(0, 0)])


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
    got = cov_from_spectrum(model, np.array(triple), ORACLE_LAGS)
    want = grid_cov_from_spectrum(model, np.array(triple), ORACLE_LAGS, 2048)
    r0 = want[ORACLE_LAGS.index((0, 0)), 0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * r0)


def test_cov_from_spectrum_near_band_edge_matches_quadrature():
    # c - 2|d| = 1e-3: rho ~ 0.955, and the quadrature oracle needs thousands of
    # w1 nodes
    model = SpectralModel("triple", n_modes=1)
    theta = np.array([0.5, 0.499, 0.0])
    lags = [(0, 0), (1, 0), (0, 1), (7, -3), (-40, 25)]
    got = cov_from_spectrum(model, theta, lags)
    want = quadrature_cov_from_spectrum(model, theta, lags, grid_size=8192)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want[0, 0])
    # 1e-10 from the band edge the column z2 = 0 is still closed form, R_0 =
    # 1 / sqrt(lo hi) with lo, hi = c -+ 2d as products of face margins ...
    edge = np.array([0.5, 0.4999999999, 0.0])
    l1, l2, l3 = edge
    lo = (1.0 - l1 - l2 - l3) * (1.0 - l1 + l2 + l3)
    hi = (1.0 + l1 - l2 + l3) * (1.0 + l1 + l2 - l3)
    r0, r01 = cov_from_spectrum(model, edge, [(0, 0), (0, 1)])
    assert r0[0] == pytest.approx(1.0 / np.sqrt(lo * hi), rel=1e-14)
    # ... and so is the lag (0, 1), R_0 rho2, which a zero-started sweep refused for
    # the millions of tail rows it needed
    assert r01[0] == pytest.approx(exact_axis_cov(edge, 1), rel=1e-14)


@pytest.mark.parametrize("triple", [
    (2.065932128787307, -0.0751311028099844, 1.1410632315972915),    # ulps off the band
    (1e200, 0.0, 0.0),                                                # overflowing scale
], ids=["ulps_off_the_band", "overflow"])
def test_cov_from_spectrum_refuses_a_mode_with_no_causal_orientation(triple):
    # the first triple is off the torus zero, yet every orientation rounds to a
    # margin <= 0; the huge one has a C2 variance and l_c^2 of inf.  Either would
    # feed a non-causal or NaN triple to the sweep, so both refuse, naming no number
    model = SpectralModel("triple", n_modes=1)
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, lo, hi = _face_margins([triple])  # c -+ 2d of one strict sign: no torus zero
        assert np.sign(lo[0]) * np.sign(hi[0]) > 0
        with pytest.raises(ResolutionError, match="no orientation is causal"):
            cov_from_spectrum(model, np.array(triple), [(0, 0)])


def _reflect_z1(t):
    return (1.0 / t[0], -t[2] / t[0], -t[1] / t[0])


def _reflect_z2(t):
    return (-t[2] / t[1], 1.0 / t[1], -t[0] / t[1])


def _reflect_both(t):
    return (-t[1] / t[2], -t[0] / t[2], 1.0 / t[2])


# each reflection is an involution, so it maps a causal triple whose divisor is
# off zero to a non-causal one causal in that reflection; the causal triples keep
# every face margin >= 0.05, so their images stay off the torus zero
_mixed_modes = st.one_of(
    causal_triples,
    st.tuples(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95)).map(lambda a: (*a, -a[0] * a[1])),
    *(causal_triples.filter(lambda t, c=c: abs(t[c]) >= 0.1).map(f)
      for c, f in enumerate((_reflect_z1, _reflect_z2, _reflect_both))))


@settings(deadline=None, max_examples=300)
@given(_mixed_modes)
@example((0.967, 0.005, 0.005))          # c - 2|d| < 1e-3 from the band edge
@example((0.5, 0.4999999999, 0.0))       # 1e-10 from it
@example((-0.25 + 2**-19, 2.0, -0.75))   # reflected in z2, 2^-20 from a face
@example((0.0, 1.5, 0.0))
@example((1.5, 0.1, 0.0))
@example((0.1, -0.2, 1.7))
@example((2.065932128787307, -0.0751311028099844, 1.1410632315972915))  # no frame survives
def test_causal_frame_picks_the_searched_orientation(triple):
    # the closed-form rule on one pass of the face margins picks the orientation that the
    # search of all four finds, with its frame triple and, as l_c^2, the C2 variance bit
    # for bit; where no frame is causal in floats it refuses
    c, frame = searched_causal_orientation(triple)
    if c is None:
        with pytest.raises(ResolutionError, match="no orientation is causal"):
            _causal_frame([triple])
        return
    got_c, got_frame, scale, _ = _causal_frame([triple])
    assert (got_c[0], tuple(got_frame[0])) == (c, frame)
    assert scale[0] == c2_innovation_var([triple])[0]


class _TriplesOnly:
    """A model that has eig_triples and nothing else."""

    def __init__(self, model):
        self.eig_triples = model.eig_triples


def test_a_model_with_only_eig_triples_gets_the_same_covariances():
    # causal, separable and reflected modes: the C2 scale comes from the triples themselves
    model = SpectralModel("custom", 4)
    theta = [0.4, 0.3, -0.12, 1.5, 0.1, 0.0, 0.1, 1.6, 0.2, 0.1, -0.2, 1.7]
    want = cov_from_spectrum(model, theta, ORACLE_LAGS)
    assert np.array_equal(cov_from_spectrum(_TriplesOnly(model), theta, ORACLE_LAGS), want)
    for k in (1, 2, 3, 4):
        assert (fejer_smoothed_inverse(_TriplesOnly(model), theta, k, (3, 4), (0.3, -1.1))
                == fejer_smoothed_inverse(model, theta, k, (3, 4), (0.3, -1.1)))


@pytest.mark.parametrize("call", [
    lambda m: cov_from_spectrum(m, [1.0, 1.6, 1.5, 1.2], [(0, 0), (2, 3)]),
    lambda m: fejer_smoothed_inverse(m, [1.0, 1.6, 1.5, 1.2], 2, (3, 3), (0.5, 0.5)),
    lambda m: m.density([1.0, 1.6, 1.5, 1.2], 0.5, 0.5),
], ids=["cov_from_spectrum", "fejer_smoothed_inverse", "density"])
def test_each_call_maps_theta_to_the_triples_once(call, monkeypatch):
    calls, triples = [], spatialcox.sarh.family_triples

    def spy(*args):
        calls.append(args[0])
        return triples(*args)

    monkeypatch.setattr(spatialcox.sarh, "family_triples", spy)
    call(SpectralModel("example2", 4))
    assert calls == ["example2"]


@pytest.mark.parametrize("family, theta", [
    ("example2", [1.0, 1.6, 1.5, 1.2]), ("realdata_pmf", DEFAULT_TRUE_PMF),
    ("custom", [0.1, -0.2, 1.7] * 10),
], ids=["separable", "swept", "reflected"])
def test_cov_from_spectrum_reads_the_face_margins_twice(family, theta, monkeypatch):
    # one pass over the triples gives the causal frame, R_0 and rho; the other is the
    # frame triples' causality check
    calls, margins = [], spatialcox.sarh._face_margins

    def spy(triples):
        calls.append(len(triples))
        return margins(triples)

    monkeypatch.setattr(spatialcox.sarh, "_face_margins", spy)
    cov_from_spectrum(SpectralModel(family, 10), theta, [(0, 0), (2, 3), (-4, 5)])
    assert calls == [10, 10]


@settings(deadline=None, max_examples=30)
@given(st.lists(_mixed_modes, min_size=2, max_size=4))
def test_cov_from_spectrum_matches_quadrature_oracle(modes):
    model = SpectralModel("custom", n_modes=len(modes))
    theta = np.ravel(modes)
    got = cov_from_spectrum(model, theta, ORACLE_LAGS)
    want = quadrature_cov_from_spectrum(model, theta, ORACLE_LAGS)
    r0 = want[ORACLE_LAGS.index((0, 0))]
    assert np.all(np.abs(got - want) <= 1e-12 * r0)


@settings(deadline=None, max_examples=30)
@given(causal_triples)
@example((0.5, 0.499, 0.0))       # c - 2|d| = 1e-3 from the band edge
@example((0.9, -0.5, 0.45))       # l3 = -l1 l2: separable
def test_quadrants_two_and_four_factor_through_the_corner(triple):
    # R(i, -j) R_0 = R(i, 0) R(0, -j) for i, j >= 0, checked on the quadrature oracle,
    # which shares no code with the product form the package reads these lags from
    model = SpectralModel("triple", n_modes=1)
    lags = [(i, -j) for i in range(6) for j in range(6)]
    r = quadrature_cov_from_spectrum(model, np.array(triple), lags)[:, 0].reshape(6, 6)
    np.testing.assert_allclose(r * r[0, 0], np.outer(r[:, 0], r[0]), rtol=0,
                               atol=1e-12 * r[0, 0] ** 2)


# 2^-20 from a face: a causal triple and its image under the z2 reflection, whose
# dyadic entries make every face margin exact, so only rho's powers round
@pytest.mark.parametrize("triple", [(0.375, 0.5, 0.125 - 2**-20), (-0.25 + 2**-19, 2.0, -0.75)],
                         ids=["causal", "reflected"])
def test_cov_from_spectrum_column_is_closed_form_near_a_face(triple):
    # R(z1, 0) = (2 pi)^2 sigma2 rho^|z1| / sqrt(lo hi) at any |z1|, rho the root of
    # d x^2 - c x + d inside the unit disk; c < 0 in the reflected triple
    model = SpectralModel("triple", n_modes=1)
    l1, l2, l3 = triple
    lo = (1.0 - l1 - l2 - l3) * (1.0 - l1 + l2 + l3)
    hi = (1.0 + l1 - l2 + l3) * (1.0 + l1 + l2 - l3)
    c, d = 0.5 * (lo + hi), l1 + l2 * l3
    rho = 2.0 * d / (c + np.sign(c) * np.sqrt(lo * hi))
    assert 0.99 < abs(rho) < 1.0
    z1 = np.arange(-300, 301)
    got = cov_from_spectrum(model, np.array(triple), np.stack([z1, 0 * z1], axis=1))
    scale = (2 * np.pi) ** 2 * model.sigma2(np.array(triple))[0] / np.sqrt(lo * hi)
    want = scale * rho ** np.abs(z1)
    np.testing.assert_allclose(got[:, 0], want, rtol=1e-12)


def test_fejer_constant_spectrum():
    # innovation sd 2 is the unit spectrum times 4, so 1/F is the unit 1/F over 4
    model = SpectralModel("custom", n_modes=1, theta_box=[[-1, 1]] * 3)
    for m in ((1, 1), (4, 4), (8, 3)):
        q = fejer_smoothed_inverse(model, np.zeros(3), 1, m, (0.3, -1.1)) / 4.0
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


@settings(deadline=None, max_examples=40)
@given(st.tuples(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95), st.floats(-0.9, 0.9)),
       st.tuples(st.integers(1, 128), st.integers(1, 128)),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)))
def test_fejer_closed_form_matches_quadrature_oracle(triple, m, omega):
    # the triple box holds causal, non-causal and torus-zero triples alike
    model = SpectralModel("triple", n_modes=1)
    got = fejer_smoothed_inverse(model, np.array(triple), 1, m, omega)
    try:
        want = quadrature_fejer_inverse(model, np.array(triple), 1, m, omega)
    except SingularSpectrumError:
        # D vanishes on a node of the oracle's grid, e.g. (0, 0.5, 0.5) at w = 0,
        # where the oracle is undefined; test_fejer_torus_zero_is_exact covers it
        assume(False)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_fejer_picks_mode_k():
    model = SpectralModel("example2", n_modes=4)
    theta = [1.0, 1.5, 1.5, 1.2]
    for k in range(1, 5):
        got = fejer_smoothed_inverse(model, theta, k, (7, 3), (0.3, -1.0))
        want = quadrature_fejer_inverse(model, theta, k, (7, 3), (0.3, -1.0))
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [0, -2, 4])
def test_fejer_mode_index_outside_range_rejected(k):
    # k = 0 and k = -2 used to wrap around to modes 3 and 1, k = 4 hit IndexError
    model = SpectralModel("example1", n_modes=3)
    with pytest.raises(ParameterDomainError, match="mode index"):
        fejer_smoothed_inverse(model, [1.0], k, (4, 4), (0.0, 0.0))


@pytest.mark.parametrize("omega", [(np.nan, 0.0), (0.3, np.inf), (-np.inf, 0.0), (0.3,)],
                         ids=["nan", "inf", "minus_inf", "one_number"])
def test_fejer_omega_not_two_finite_numbers_rejected(omega):
    # a NaN or inf frequency returned nan (inf with a RuntimeWarning), and one number
    # ended in a bare IndexError
    model = SpectralModel("example1", n_modes=3)
    with pytest.raises(ParameterDomainError, match="omega must be two finite numbers"):
        fejer_smoothed_inverse(model, [1.0], 1, (4, 4), omega)


def test_fejer_torus_zero_is_exact():
    # D of (0.5, 0.5, 0) vanishes at omega = 0, a node of any quadrature grid;
    # the Fejer sum of |D|^2 = 1.5 - cos w1 - cos w2 + 0.5 cos(w1 - w2) there
    # is 1.5 - 2a + 0.5 a^2 with a = 1 - 1/M
    model = SpectralModel("triple", n_modes=1)
    theta = np.array([0.5, 0.5, 0.0])
    with pytest.raises(SingularSpectrumError):
        quadrature_fejer_inverse(model, theta, 1, (8, 8), (0.0, 0.0))
    a = 1.0 - 1.0 / 8
    got = fejer_smoothed_inverse(model, theta, 1, (8, 8), (0.0, 0.0))
    assert got == pytest.approx((1.5 - 2 * a + 0.5 * a**2) / model.sigma2(theta)[0], rel=1e-14)


@settings(deadline=None, max_examples=10)
@given(causal_triples)
def test_gram_stencil_inverts_covariances(triple):
    # the Fourier coefficients Q(u) of |D|^2 read off the Gram form at the five
    # unit functionals: Q(0) = b_0 and Q(u) = b_c / 2 at the two lags +-u of
    # cosine c; then sum_u Q(u) R_{z-u} = innovation variance * delta_{z,0}
    b = _gram_form(np.tile(triple, (5, 1)), np.eye(5)[:, _GRAM])[0]
    stencil = {(0, 0): b[0]}
    for c, u in enumerate([(1, 0), (0, 1), (1, 1), (1, -1)], start=1):
        stencil[u] = stencil[(-u[0], -u[1])] = b[c] / 2
    model = SpectralModel("triple", n_modes=1)
    zs = [(z1, z2) for z1 in range(-3, 4) for z2 in range(-3, 4)]
    lags = sorted({(z1 - u1, z2 - u2) for z1, z2 in zs for u1, u2 in stencil})
    cov = cov_from_spectrum(model, np.array(triple), lags)
    r = dict(zip(lags, cov[:, 0]))
    innovation_var = c2_innovation_var([triple])[0]
    for z1, z2 in zs:
        got = sum(q * r[(z1 - u1, z2 - u2)] for (u1, u2), q in stencil.items())
        want = innovation_var if (z1, z2) == (0, 0) else 0.0
        assert abs(got - want) <= 1e-12 * r[(0, 0)]


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
            fld = simulate_sarh1(params, (side, side), seed=9_000 + seed)
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


@pytest.mark.parametrize("full", [False, True])
def test_periodogram_binary_non_finite_payload_rejected(tmp_path, full):
    # every deviation test is False against NaN, so a NaN imaginary part on
    # the diagonal, or anywhere off it, used to load silently
    pg = periodogram(random_field((4, 3), 2, seed=6), full=full)
    path = tmp_path / "pg.bin"
    save_periodogram_binary(pg, path)
    raw = bytearray(path.read_bytes())
    offset = 32 + 16 * full + 8  # im of values[0, 0, 0], or of cross[0, 0, 0, 1]
    raw[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="non-finite"):
        load_periodogram_binary(path)


def test_periodogram_binary_infinite_imaginary_part_rejected(tmp_path):
    # numpy orders complex values lexicographically: an infinite imaginary part at a value
    # whose real part is neither the least nor the largest is in neither min nor max
    pg = periodogram(random_field((4, 3), 2, seed=6))
    path = tmp_path / "pg.bin"
    save_periodogram_binary(pg, path)
    at = np.argsort(pg.values.real, axis=None)[pg.values.size // 2]
    raw = bytearray(path.read_bytes())
    offset = 32 + 16 * at + 8
    raw[offset:offset + 8] = np.array([np.inf], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="non-finite"):
        load_periodogram_binary(path)


def test_cov_from_spectrum_refuses_a_sweep_above_the_cap_before_allocating():
    # one non-separable mode at lag (2100, 2000): 2102 x 2001 cells, above 2^22; the
    # sweep's buffer would take 32 MiB
    model = SpectralModel("triple", n_modes=1)
    tracemalloc.start()
    try:
        with pytest.raises(ResolutionError, match="exceeds 4194304 cells"):
            cov_from_spectrum(model, [0.5, 0.3, -0.1], [(2100, 2000)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


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


@pytest.mark.parametrize("lag", [(3, 0), (0, -3), (9, 9)])
def test_empirical_cov_at_outside_rectangle_raises(lag):
    cov = empirical_cov(random_field((6, 6), 1, seed=2), (2, 2))
    with pytest.raises(LagUnavailableError):
        cov.at(*lag)
