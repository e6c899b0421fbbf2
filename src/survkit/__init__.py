"""survkit: local-DP survey publication, noise-corrected l1 regression,
and credibility testing of fitted linear models."""

__version__ = "0.1.0"

from .core import (
    Dataset,
    ModelBounds,
    RngSpec,
    ValidationReport,
    mean_squared_loss,
    model_distance,
    validate_dataset,
)
from .mechanisms import (
    Accounting,
    NoiseKind,
    NoiseSpec,
    PrivacyParams,
    PrivateDataset,
    l1_sensitivity,
    l2_sensitivity,
    make_noise_spec,
    privatize,
)
from .solver import (
    CorrectedMoments,
    SolveResult,
    SolverConfig,
    SolverDivergenceError,
    corrected_moments,
    moments_from_arrays,
    objective,
    project_l1,
    soft_threshold,
    solve,
    spectral_bound,
)
from .tester import (
    Decision,
    InsufficientValidationError,
    LossBoundForm,
    PooledSource,
    TestConfig,
    ValidationSource,
    Verdict,
    privacy_penalty_gaussian,
    privacy_penalty_laplace,
    survey_loss_bound,
    validation_sample_size,
    verify_private_survey,
    verify_survey,
)
from .bounds import (
    BoundResult,
    LowerREParams,
    empirical_tail_check,
    error_bound_gaussian,
    error_bound_laplace,
    lower_re_params,
    matrix_deviation_bound,
    matrix_deviation_level,
    min_samples_gaussian,
    min_samples_laplace,
    one_sided_bernstein,
    squared_subexp_tail,
    subweibull_right_tail,
)
from .datagen import (
    ClipReport,
    LinearModelSource,
    clip_to_bounds,
    gen_synthetic1,
    gen_synthetic2,
    load_csv,
    load_private,
    save_csv,
    save_private,
    sparse_coefficients,
)
from .sweeps import SweepSpec, run_sweep
