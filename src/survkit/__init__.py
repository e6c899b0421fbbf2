"""survkit: local-DP survey publication, noise-corrected l1 regression,
and credibility testing of fitted linear models.

Every exported name is looked up in ``_EXPORTS`` on first use (PEP 562) and
its module imported then, so ``import survkit`` loads no numpy.  The JSON
file helpers live here, where a command that needs no numpy reaches them.
"""

import importlib
import json
from pathlib import Path

__version__ = "0.1.0"

# Each exported name -> the module that defines it.
_EXPORTS = {name: module for module, names in {
    "core": ("Dataset", "ModelBounds", "RngSpec", "ValidationReport", "ValidationSource",
             "mean_squared_loss", "model_distance", "validate_dataset"),
    "mechanisms": ("Accounting", "NoiseKind", "NoiseSpec", "PrivacyParams", "PrivateDataset",
                   "make_noise_spec", "privatize"),
    "solver": ("CorrectedMoments", "SolveResult", "SolverConfig", "SolverDivergenceError",
               "corrected_moments", "moments_from_arrays", "objective", "project_l1",
               "soft_threshold", "solve", "spectral_bound"),
    "tester": ("Decision", "InsufficientValidationError", "PooledSource", "TestConfig",
               "Verdict", "privacy_penalty_gaussian", "privacy_penalty_laplace",
               "survey_loss_bound", "validation_sample_size", "verify_private_survey",
               "verify_survey"),
    "bounds": ("BoundResult", "LowerREParams", "error_bound_gaussian", "error_bound_laplace",
               "lower_re_params", "matrix_deviation_bound", "matrix_deviation_level",
               "min_samples_gaussian", "min_samples_laplace", "one_sided_bernstein",
               "squared_subexp_tail", "subweibull_right_tail"),
    "datagen": ("ClipReport", "LinearModelSource", "clip_to_bounds", "gen_synthetic1",
                "gen_synthetic2", "load_csv", "load_private", "save_csv", "save_private",
                "sparse_coefficients"),
    "sweeps": ("SweepSpec", "run_sweep"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` the one way every survkit JSON file is written:
    strict JSON (a non-finite number raises ValueError before the file is
    opened), sorted keys, indent 2, a trailing newline."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _read_json_object(path, what: str, error=ValueError) -> dict:
    """The JSON object in the file ``path``; ``error`` naming the ``what`` file otherwise."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise error(f"{what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return obj
