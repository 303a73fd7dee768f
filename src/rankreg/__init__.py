"""Rank regression from noisy pairwise comparisons.

Synthetic Gaussian features, pairwise labels through a noise link, a
closed-form whitened-average weight estimator, quadrature calibration of
the noise level, and a deterministic experiment harness.
"""

from .calibration import (
    DegenerateModelError,
    LinkNotDifferentiableError,
    ScoreDifferenceLaw,
    estimate_c1,
    estimate_pe,
    solve_alpha_for_pe,
)
from .comparisons import (
    ComparisonDataset,
    CsvFormatError,
    DeterministicLink,
    LinkFunction,
    LogisticLink,
    ModelSpec,
    ProbitLink,
    SampleSet,
    flip_fraction,
    generate_comparisons,
    generate_samples,
    read_comparisons_csv,
    read_samples_csv,
    write_comparisons_csv,
    write_samples_csv,
)
from .estimator import (
    DegreesOfFreedomError,
    angle,
    estimate_beta,
    estimate_covariance,
    norm_error,
    write_estimate_csv,
)
from .harness import (
    AGG_HEADER,
    TRIALS_HEADER,
    ConfigError,
    GridAggregate,
    SweepResult,
    SweepSpec,
    TrialConfig,
    TrialExecutionError,
    TrialFailure,
    TrialResult,
    find_min_n,
    m_from_n,
    read_min_n_config,
    read_sweep_config,
    realize_model,
    run_sweep,
    run_trial,
    simulate,
    trial_stream,
    write_results,
)
from .randomness import (
    RngStream,
    SpdMatrix,
    make_covariance,
    make_orthonormal_basis,
    sample_gaussian,
    sample_ground_truth,
)

__all__ = [
    "DegenerateModelError", "LinkNotDifferentiableError", "ScoreDifferenceLaw", "estimate_c1",
    "estimate_pe", "solve_alpha_for_pe",
    "ComparisonDataset", "CsvFormatError", "DeterministicLink", "LinkFunction", "LogisticLink",
    "ModelSpec", "ProbitLink", "SampleSet", "flip_fraction", "generate_comparisons",
    "generate_samples", "read_comparisons_csv", "read_samples_csv", "write_comparisons_csv",
    "write_samples_csv",
    "DegreesOfFreedomError", "angle", "estimate_beta", "estimate_covariance", "norm_error",
    "write_estimate_csv",
    "AGG_HEADER", "TRIALS_HEADER", "ConfigError", "GridAggregate", "SweepResult", "SweepSpec",
    "TrialConfig", "TrialExecutionError", "TrialFailure", "TrialResult", "find_min_n", "m_from_n",
    "read_min_n_config", "read_sweep_config", "realize_model", "run_sweep", "run_trial", "simulate",
    "trial_stream", "write_results",
    "RngStream", "SpdMatrix", "make_covariance", "make_orthonormal_basis", "sample_gaussian",
    "sample_ground_truth",
]
__version__ = "0.1.0"
