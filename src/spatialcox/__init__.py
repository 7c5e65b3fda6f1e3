"""Spatial Cox processes driven by Hilbert-valued log-intensity random fields.

Simulation of SARH(1) coefficient fields, spectral-domain Whittle
estimation built on the functional periodogram operator, count-process
moments and predictors, and a space-time ingestion pipeline with a Monte
Carlo experiment runner.
"""

__version__ = "0.1.0"

from .basis import BasisSpec, design_matrix, project_samples, sine_basis_eval, synthesize
from .cox import (BorelRect, TestFunction, cov_map, count_moments, cox_intensity,
                  ls_count_predictor, pair_correlation, predict_field, product_density_n,
                  sample_counts)
from .experiment import ExperimentConfig, ExperimentTable, run_experiment
from .field import (CoeffField, FrequencyGrid, evaluate_field, load_field_binary,
                    load_field_csv, save_field_binary, save_field_csv)
from .pipeline import (GridSeries, PipelineConfig, PipelineResult, cvfare,
                       idw_interpolate, load_series_csv, make_synthetic_counts,
                       polyfit_trend, run_cross_validation, run_pipeline,
                       save_series_csv, spline_smooth)
from .sarh import (Sarh1Params, SpectralModel, c2_innovation_var, family_triples, is_causal,
                   simulate_sarh1)
from .spectral import (EmpiricalCov, Periodogram, cov_from_spectrum, empirical_cov,
                       fejer_smoothed_inverse, functional_dft, periodogram,
                       save_periodogram_binary, save_periodogram_csv)
from .whittle import EstimateOptions, ThetaEstimate, estimate, trig_moments, whittle_loss

__all__ = [name for name in dir() if not name.startswith("_")]
