import numpy as np
import pytest
from oracles import trapezoid_projection

from spatialcox import BasisSpec, design_matrix, project_samples
from spatialcox.errors import InsufficientResolutionError, ParameterDomainError
from spatialcox.sarh import c2_innovation_var


def test_sine_eval_known_values():
    # the orthonormal basis sqrt(2/L) sin(pi p t / L)
    spec = BasisSpec(support_length=1.0, n_modes=4)
    phi = design_matrix(spec, [0.5])
    assert phi.shape == (4, 1)
    assert phi[0, 0] == pytest.approx(np.sqrt(2.0))
    assert phi[1, 0] == pytest.approx(0.0, abs=1e-15)
    spec2 = BasisSpec(support_length=2.0, n_modes=4)
    # sqrt(2/2) sin(pi*3*0.4/2) = sin(0.6*pi), frozen from direct evaluation
    assert design_matrix(spec2, [0.4])[2, 0] == pytest.approx(0.9510565162951535, abs=1e-12)


def test_sine_eval_domain_errors():
    with pytest.raises(ParameterDomainError):
        BasisSpec(support_length=-1.0, n_modes=2)
    with pytest.raises(ParameterDomainError):
        BasisSpec(support_length=1.0, n_modes=0)


@pytest.mark.parametrize("support", [np.inf, np.nan, 0.0])
def test_basis_rejects_support_not_finite_and_positive(support):
    # an infinite support used to construct, and its design matrix was all zeros
    with pytest.raises(ParameterDomainError, match="finite and positive"):
        BasisSpec(support_length=support, n_modes=2)


def test_project_samples_shape_fault_is_parameter_domain_error():
    # it used to be a bare ValueError
    with pytest.raises(ParameterDomainError, match="t_grid length"):
        project_samples(np.linspace(0.0, 1.0, 10), np.zeros(9), BasisSpec(1.0, 2))


def test_sine_eval_normalized_flag():
    # the one convention is the normalized one: sqrt(2/L) is 1 at L = 2 and 2 at L = 1/2
    spec = BasisSpec(support_length=2.0, n_modes=1)
    assert design_matrix(spec, [0.7])[0, 0] == pytest.approx(np.sin(0.35 * np.pi), rel=1e-15)
    half = BasisSpec(support_length=0.5, n_modes=3)
    t = np.array([0.1, 0.3])
    raw = np.sin(np.pi * np.outer([1, 2, 3], t) / 0.5)
    np.testing.assert_allclose(design_matrix(half, t), 2.0 * raw, rtol=1e-15)


def test_projection_recovers_single_mode():
    spec = BasisSpec(support_length=1.0, n_modes=3)
    t = np.linspace(0, 1, 200)
    f = np.sin(np.pi * t)  # sqrt(1/2) times the first orthonormal mode
    c = project_samples(t, f, spec)
    assert np.allclose(c, [np.sqrt(0.5), 0.0, 0.0], atol=1e-6)


def test_projection_zero_and_linear_combination():
    spec = BasisSpec(support_length=1.0, n_modes=3)
    t = np.linspace(0, 1, 400)
    assert np.allclose(project_samples(t, np.zeros_like(t), spec), 0.0)
    f = 2.0 * np.sin(np.pi * t) - 3.0 * np.sin(2 * np.pi * t)
    assert np.allclose(project_samples(t, f, spec), np.sqrt(0.5) * np.array([2.0, -3.0, 0.0]),
                       atol=1e-6)


def test_projection_resolution_errors():
    spec = BasisSpec(support_length=1.0, n_modes=5)
    with pytest.raises(InsufficientResolutionError):
        project_samples(np.linspace(0, 1, 10), np.zeros(10), spec)
    with pytest.raises(InsufficientResolutionError):
        project_samples(np.linspace(0, 0.8, 50), np.zeros(50), spec)


def test_project_synthesize_roundtrip_on_span():
    spec = BasisSpec(support_length=3.0, n_modes=6)
    t = np.linspace(0, 3.0, 3000)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=6)
    f = coeffs @ design_matrix(spec, t)
    assert np.allclose(project_samples(t, f, spec), coeffs, atol=1e-8)


def test_discrete_orthogonality_2000_points():
    spec = BasisSpec(support_length=2.5, n_modes=6)
    t = np.linspace(0, 2.5, 2000)
    phi = design_matrix(spec, t)
    gram = np.trapezoid(phi[:, None, :] * phi[None, :, :], t, axis=-1)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-6


def test_normalized_coefficients_scale():
    # the raw sine sin(pi t / L) is sqrt(L/2) times the orthonormal first mode
    spec = BasisSpec(support_length=8.0, n_modes=3)
    t = np.linspace(0, 8.0, 500)
    f = np.sin(np.pi * t / 8.0)
    assert np.allclose(project_samples(t, f, spec), [2.0, 0.0, 0.0], atol=1e-4)


def test_batched_projection():
    spec = BasisSpec(support_length=1.0, n_modes=2)
    t = np.linspace(0, 1, 101)
    batch = np.stack([np.sin(np.pi * t), 4 * np.sin(2 * np.pi * t)])
    c = project_samples(t, batch, spec)
    assert c.shape == (2, 2)
    assert np.allclose(c, np.sqrt(0.5) * np.array([[1, 0], [0, 4]]), atol=1e-4)


@pytest.mark.parametrize("batched", [False, True])
def test_projection_matches_trapezoid_oracle_batched(batched):
    # the whole (4, 5, n) stack in one call, or curve by curve: both match the oracle
    spec = BasisSpec(support_length=1725.0, n_modes=10)
    rng = np.random.default_rng(8)
    t = np.r_[0.0, np.sort(rng.uniform(0.0, 1725.0, size=298)), 1725.0]
    f = rng.normal(size=(4, 5, t.size))
    if batched:
        got = project_samples(t, f, spec)
    else:
        got = np.array([[project_samples(t, f[i, j], spec) for j in range(5)] for i in range(4)])
    # the oracle returns raw-sine coefficients c_p; the coordinates are sqrt(L/2) c_p
    expect = trapezoid_projection(t, f, spec.support_length, spec.n_modes)
    expect = expect * np.sqrt(spec.support_length / 2.0)
    assert got.shape == (4, 5, 10)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())
    np.testing.assert_allclose(project_samples(t, f[2, 3], spec),
                               got[2, 3], rtol=1e-12, atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("call, message", [
    (lambda: design_matrix(BasisSpec(1.0, 3), [0.0, np.nan, 1.0]), "t_grid must be finite"),
    (lambda: project_samples(np.linspace(0.0, 1.0, 9), np.r_[np.zeros(4), np.nan, np.zeros(4)],
                             BasisSpec(1.0, 3)), "samples must be finite"),
    (lambda: c2_innovation_var([[0.5, 0.3, -0.1], [0.5, np.nan, 0.0]]),
     "triples must be finite"),
], ids=["design_matrix_time", "project_samples_sample", "c2_innovation_var_triple"])
def test_nan_input_is_a_parameter_domain_error(call, message):
    # each returned NaN entries without a word
    with pytest.raises(ParameterDomainError, match=message):
        call()
