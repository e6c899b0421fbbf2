"""Every scalar domain check of the package, outside ``bounds``, goes through
``survkit._check``: its message names the argument and the domain, checks
run in a fixed order, no NaN or infinity passes any of them, and no float
or bool passes a count, seed or stream.

No bool, numpy bool, string or complex number passes a real domain either.

Each entry of ``_CALLS`` is one valid call of a function or config type:
its fixed (non-scalar) arguments and its scalar arguments, all by keyword.
A scalar given as an int is an integer argument, one given as a float a
real one.  The bounds' own valid calls come from ``test_bounds``.
"""

import enum
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from survkit import (
    CorrectedMoments,
    Dataset,
    LinearModelSource,
    ModelBounds,
    NoiseKind,
    NoiseSpec,
    PrivacyParams,
    RngSpec,
    SolverConfig,
    SweepSpec,
    TestConfig,
    clip_to_bounds,
    gen_synthetic1,
    gen_synthetic2,
    make_noise_spec,
    moments_from_arrays,
    objective,
    privacy_penalty_gaussian,
    privacy_penalty_laplace,
    project_l1,
    soft_threshold,
    sparse_coefficients,
    survey_loss_bound,
    validation_sample_size,
)
from test_bounds import _VALID_CALLS as _BOUND_CALLS

_UNIT = ModelBounds(1.0, 1.0, 1.0)
_MOMENTS = CorrectedMoments(np.eye(2), np.ones(2), 10)
_TRIAL_CAP = 10**6

# Name -> (callable, fixed arguments, scalar arguments) of one valid call.
_CALLS = {
    "ModelBounds": (ModelBounds, {}, dict(zeta=1.0, tau=1.0, radius=1.0)),
    "RngSpec": (RngSpec, {}, dict(seed=0, stream=0)),
    "gen_synthetic1": (gen_synthetic1, dict(rng=RngSpec(0)), dict(d=2, m_survey=10, mu=0.0)),
    "gen_synthetic2": (gen_synthetic2, dict(noise_kind=NoiseKind.LAPLACE, rng=RngSpec(0)),
                       dict(d=2, m=10)),
    "sparse_coefficients": (sparse_coefficients, dict(gen=np.random.default_rng(0)), dict(d=2)),
    "clip_to_bounds": (clip_to_bounds, dict(ds=Dataset([[0.5]], [0.1], _UNIT)),
                       dict(zeta=1.0, tau=1.0)),
    "LinearModelSource": (LinearModelSource, dict(theta=[1.0], covariate="normal"),
                          dict(noise_var=0.1, scale=1.0)),
    "PrivacyParams": (PrivacyParams, {}, dict(alpha=1.0, beta=0.0)),
    "NoiseSpec": (NoiseSpec, dict(kind=NoiseKind.LAPLACE), dict(scale=1.0)),
    "make_noise_spec": (make_noise_spec, dict(params=PrivacyParams(1.0)), dict(zeta=1.0, d=2)),
    "CorrectedMoments": (CorrectedMoments, dict(gamma_mat=np.eye(2), gamma_vec=np.ones(2)),
                         dict(m=10)),
    "moments_from_arrays": (moments_from_arrays, dict(x=np.ones((2, 1)), y=np.ones(2)),
                            dict(noise_variance=0.0)),
    "soft_threshold": (soft_threshold, dict(v=[1.0]), dict(level=0.5)),
    "project_l1": (project_l1, dict(v=[1.0]), dict(radius=1.0)),
    "objective": (objective, dict(moments=_MOMENTS, theta=np.zeros(2)), dict(lambda_n=0.0)),
    "SolverConfig": (SolverConfig, dict(mode="lagrangian"),
                     dict(radius=1.0, lambda_n=0.1, max_iter=10, tol=1e-6)),
    "TestConfig": (TestConfig, dict(bounds=_UNIT), dict(kappa=0.0, tol=0.2, delta=0.1)),
    "validation_sample_size": (validation_sample_size, {}, dict(tau=1.0, delta=0.1, tol=0.2)),
    "survey_loss_bound": (survey_loss_bound, dict(bounds=_UNIT),
                          dict(l_hat=0.1, m=10, d=2, delta=0.1)),
    "privacy_penalty_gaussian": (privacy_penalty_gaussian, dict(bounds=_UNIT),
                                 dict(alpha=1.0, beta=0.1, lambda_min=1.0, m=100, d=10)),
    "privacy_penalty_laplace": (privacy_penalty_laplace, dict(bounds=_UNIT),
                                dict(alpha=1.0, c_eps=1.0, lambda_min=1.0, m=100, d=10)),
    # Its seed is checked by RngSpec, the others by the trials' own checks.
    "SweepSpec": (SweepSpec, dict(experiment="model-distance", output_dir=Path(".")),
                  dict(trials=1, workers=1, seed=0, d=2, m=10, beta=0.0, delta=0.1, kappa=0.0)),
}
_ALL_CALLS = {**_CALLS, **{fn.__name__: (fn, {}, kw) for fn, kw in _BOUND_CALLS.items()}}


def _call(name: str, **changes):
    fn, fixed, scalars = _ALL_CALLS[name]
    return fn(**{**fixed, **scalars, **changes})


@pytest.mark.parametrize("name", list(_ALL_CALLS))
def test_each_valid_call_runs(name):
    _call(name)


# One bad value for each check, and two bad arguments at once where a
# function checks more than one: the first one checked is named.
_DOMAIN_ERRORS = [
    ("ModelBounds", dict(zeta=0.0), "zeta must be positive"),
    ("ModelBounds", dict(tau=-1.0), "tau must be positive"),
    ("ModelBounds", dict(radius=0.0), "radius must be positive"),
    ("ModelBounds", dict(tau=0.0, radius=0.0), "tau must be positive"),
    ("RngSpec", dict(seed=-1), "seed must be an unsigned 64-bit integer"),
    ("RngSpec", dict(seed=2**64), "seed must be an unsigned 64-bit integer"),
    ("RngSpec", dict(stream=-1), "stream must be a non-negative integer"),
    ("RngSpec", dict(seed=2.7, stream=1.5), "seed must be an unsigned 64-bit integer"),
    ("gen_synthetic1", dict(d=0), "d must be an integer >= 1"),
    ("gen_synthetic1", dict(m_survey=0), "m_survey must be an integer >= 1"),
    ("gen_synthetic1", dict(mu=math.inf), "mu must be finite"),
    ("gen_synthetic1", dict(d=0, m_survey=0), "d must be an integer >= 1"),
    ("gen_synthetic1", dict(m_survey=0, mu=math.nan), "m_survey must be an integer >= 1"),
    ("gen_synthetic2", dict(m=0), "m must be an integer >= 1"),
    ("gen_synthetic2", dict(d=0, m=0), "d must be an integer >= 1"),
    ("sparse_coefficients", dict(d=0), "d must be an integer >= 1"),
    ("clip_to_bounds", dict(zeta=0.0), "zeta must be positive"),
    ("clip_to_bounds", dict(tau=-1.0), "tau must be positive"),
    ("clip_to_bounds", dict(zeta=-1.0, tau=0.0), "zeta must be positive"),
    ("LinearModelSource", dict(noise_var=-0.1), "noise_var must be non-negative"),
    ("LinearModelSource", dict(scale=0.0), "scale must be positive"),
    ("LinearModelSource", dict(noise_var=-0.1, scale=0.0), "noise_var must be non-negative"),
    ("LinearModelSource", dict(theta=[[1.0]], noise_var=-0.1), "theta must be 1-dimensional, got shape (1, 1)"),
    ("PrivacyParams", dict(alpha=0.0), "alpha must be positive"),
    ("PrivacyParams", dict(beta=1.0), "beta must be in [0, 1)"),
    ("PrivacyParams", dict(alpha=-1.0, beta=-0.5), "alpha must be positive"),
    ("NoiseSpec", dict(scale=-1.0), "scale must be non-negative"),
    ("make_noise_spec", dict(zeta=0.0), "zeta must be positive"),
    ("make_noise_spec", dict(d=0), "d must be an integer >= 1"),
    ("make_noise_spec", dict(zeta=0.0, d=0), "zeta must be positive"),
    ("CorrectedMoments", dict(m=0), "m must be an integer >= 1"),
    ("CorrectedMoments", dict(gamma_vec=[0.0, math.nan], m=0),
     "gamma_vec must be finite"),
    ("moments_from_arrays", dict(noise_variance=-1.0), "noise_variance must be non-negative"),
    ("moments_from_arrays", dict(x=np.zeros(2), noise_variance=-1.0),
     "x must be 2-dimensional, got shape (2,)"),
    ("soft_threshold", dict(level=-0.5), "level must be non-negative"),
    ("project_l1", dict(radius=0.0), "radius must be positive"),
    ("project_l1", dict(v=[[1.0]], radius=0.0), "radius must be positive"),
    ("objective", dict(lambda_n=-1.0), "lambda_n must be non-negative"),
    ("objective", dict(theta=np.zeros(3), lambda_n=-1.0), "lambda_n must be non-negative"),
    ("SolverConfig", dict(radius=0.0), "radius must be positive"),
    ("SolverConfig", dict(lambda_n=-1.0), "lambda_n must be non-negative"),
    ("SolverConfig", dict(max_iter=0), "max_iter must be an integer >= 1"),
    ("SolverConfig", dict(tol=0.0), "tol must be positive"),
    ("SolverConfig", dict(radius=-1.0, lambda_n=-1.0), "radius must be positive"),
    ("SolverConfig", dict(max_iter=0, tol=0.0), "max_iter must be an integer >= 1"),
    ("SolverConfig", dict(mode="constrained", radius=None, tol=0.0),
     "constrained mode requires a radius"),
    ("TestConfig", dict(kappa=-1.0), "kappa must be non-negative"),
    ("TestConfig", dict(tol=0.0), "tol must be in (0, 1]"),
    ("TestConfig", dict(delta=1.5), "delta must be in (0, 1]"),
    ("TestConfig", dict(kappa=-1.0, tol=0.0), "kappa must be non-negative"),
    ("TestConfig", dict(tol=1.5, delta=0.0), "tol must be in (0, 1]"),
    ("validation_sample_size", dict(tau=0.0), "tau must be positive"),
    ("validation_sample_size", dict(delta=0.0), "delta must be in (0, 1]"),
    ("validation_sample_size", dict(tol=1.5), "tol must be in (0, 1]"),
    ("validation_sample_size", dict(tau=0.0, delta=0.0), "tau must be positive"),
    ("validation_sample_size", dict(delta=0.0, tol=0.0), "delta must be in (0, 1]"),
    ("survey_loss_bound", dict(l_hat=-0.1), "l_hat must be non-negative"),
    ("survey_loss_bound", dict(m=0), "m must be an integer >= 1"),
    ("survey_loss_bound", dict(d=0), "d must be an integer >= 1"),
    ("survey_loss_bound", dict(delta=1.5), "delta must be in (0, 1]"),
    ("survey_loss_bound", dict(l_hat=-0.1, m=0), "l_hat must be non-negative"),
    ("survey_loss_bound", dict(m=0, d=0), "m must be an integer >= 1"),
    ("survey_loss_bound", dict(d=0, delta=0.0), "d must be an integer >= 1"),
    ("privacy_penalty_gaussian", dict(alpha=0.0), "alpha must be positive"),
    ("privacy_penalty_gaussian", dict(beta=1.0), "beta must be in (0, 1)"),
    ("privacy_penalty_gaussian", dict(lambda_min=0.0), "lambda_min must be positive"),
    ("privacy_penalty_gaussian", dict(m=0), "m must be an integer >= 1"),
    ("privacy_penalty_gaussian", dict(d=0), "d must be an integer >= 1"),
    ("privacy_penalty_gaussian", dict(alpha=-1.0, beta=0.0), "alpha must be positive"),
    ("privacy_penalty_gaussian", dict(beta=0.0, lambda_min=0.0), "beta must be in (0, 1)"),
    ("privacy_penalty_gaussian", dict(lambda_min=-1.0, m=0), "lambda_min must be positive"),
    ("privacy_penalty_laplace", dict(alpha=-1.0), "alpha must be positive"),
    ("privacy_penalty_laplace", dict(c_eps=0.0), "c_eps must be positive"),
    ("privacy_penalty_laplace", dict(lambda_min=0.0), "lambda_min must be positive"),
    ("privacy_penalty_laplace", dict(m=0), "m must be an integer >= 1"),
    ("privacy_penalty_laplace", dict(d=0), "d must be an integer >= 1"),
    ("privacy_penalty_laplace", dict(alpha=0.0, c_eps=0.0), "alpha must be positive"),
    ("privacy_penalty_laplace", dict(c_eps=-1.0, lambda_min=0.0), "c_eps must be positive"),
    ("SweepSpec", dict(trials=0), "trials must be an integer >= 1"),
    ("SweepSpec", dict(trials=_TRIAL_CAP + 1), f"trials must be in [1, {_TRIAL_CAP}]"),
    ("SweepSpec", dict(workers=0), "workers must be an integer >= 1"),
    ("SweepSpec", dict(trials=0, workers=0), "trials must be an integer >= 1"),
    ("SweepSpec", dict(trials=_TRIAL_CAP + 1, workers=0), f"trials must be in [1, {_TRIAL_CAP}]"),
    ("SweepSpec", dict(workers=0, d=0), "workers must be an integer >= 1"),
    ("SweepSpec", dict(seed=-1), "seed must be an unsigned 64-bit integer"),
    ("SweepSpec", dict(seed=-1, d=0), "seed must be an unsigned 64-bit integer"),
    ("SweepSpec", dict(d=0), "d must be an integer >= 1"),
    ("SweepSpec", dict(kappa=-1.0, beta=1.0), "beta must be in [0, 1)"),
]


def test_every_check_has_domain_cases():
    assert {name for name, _, _ in _DOMAIN_ERRORS} == set(_CALLS)


@pytest.mark.parametrize("name, bad, message", _DOMAIN_ERRORS, ids=[
    f"{name}-{'-'.join(f'{k}={v}' for k, v in bad.items())}" for name, bad, _ in _DOMAIN_ERRORS])
def test_domain_errors_keep_their_messages_and_order(name, bad, message):
    with pytest.raises(ValueError) as err:
        _call(name, **bad)
    assert str(err.value) == message


_SCALAR_ARGS = [(name, arg) for name, (_, _, scalars) in _ALL_CALLS.items() for arg in scalars]


@pytest.mark.parametrize("name, arg", _SCALAR_ARGS, ids=[f"{n}-{a}" for n, a in _SCALAR_ARGS])
@settings(max_examples=6)
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]),
       box=st.sampled_from([float, np.float64]))
def test_no_scalar_domain_admits_a_non_finite_value(name, arg, value, box):
    with pytest.raises(ValueError) as err:
        _call(name, **{arg: box(value)})
    assert str(err.value).startswith(f"{arg} must be ")


_REAL_ARGS = [(name, arg) for name, (_, _, scalars) in _ALL_CALLS.items()
              for arg, value in scalars.items() if type(value) is float]


@pytest.mark.parametrize("name, arg", _REAL_ARGS, ids=[f"{n}-{a}" for n, a in _REAL_ARGS])
@pytest.mark.parametrize("value", [True, False, np.True_, "1", 1 + 0j],
                         ids=["True", "False", "np.True_", "str", "complex"])
def test_no_bool_string_or_complex_passes_a_real_domain(name, arg, value):
    with pytest.raises(ValueError) as err:
        _call(name, **{arg: value})
    assert str(err.value).startswith(f"{arg} must be ")


_INTEGER_ARGS = [(name, arg) for name, (_, _, scalars) in _ALL_CALLS.items()
                 for arg, value in scalars.items() if type(value) is int]
_SEED_ARGS = [(name, arg) for name, arg in _INTEGER_ARGS if arg == "seed"]
_NOT_AN_INTEGER = st.one_of(
    st.integers(-10, 10**6).map(float),
    st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
).flatmap(lambda v: st.sampled_from([v, np.bool_(v) if isinstance(v, bool) else np.float64(v)]))


def test_every_count_seed_and_stream_is_probed():
    # The bounds' 12 counts and 22 elsewhere, two of them seeds.
    assert len(_INTEGER_ARGS) == 34 and _SEED_ARGS == [("RngSpec", "seed"), ("SweepSpec", "seed")]


@pytest.mark.parametrize("name, arg", _INTEGER_ARGS, ids=[f"{n}-{a}" for n, a in _INTEGER_ARGS])
@settings(max_examples=5, deadline=None)
@given(value=_NOT_AN_INTEGER)
@example(value=2.0).via("an integral float")
@example(value=2.5).via("a fractional float")
@example(value=True).via("a bool")
@example(value=False).via("a bool")
@example(value=math.nan).via("NaN")
@example(value=math.inf).via("infinity")
@example(value=-math.inf).via("infinity")
def test_no_float_or_bool_passes_an_integer_domain(name, arg, value):
    with pytest.raises(ValueError) as err:
        _call(name, **{arg: value})
    assert str(err.value).startswith(f"{arg} must be ")


@pytest.mark.parametrize("name, arg", _SEED_ARGS)
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_is_an_unsigned_64_bit_integer(name, arg, seed):
    with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer$"):
        _call(name, **{arg: seed})
    _call(name, **{arg: 2**64 - 1})


def _same(a, b) -> bool:
    """Bit for bit equal: arrays by dtype and bytes, floats by their bits,
    survkit's own objects field by field and an RngSpec by its draws."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, RngSpec):
        return _same(a.derive(5).random(4), b.derive(5).random(4))
    if type(a).__module__.startswith("survkit.") and not isinstance(a, enum.Enum):
        names = getattr(type(a), "__slots__", None) or sorted(vars(a))
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in names)
    return a == b


@pytest.mark.parametrize("box", [np.int64, np.uint64])
@pytest.mark.parametrize("name, arg", _INTEGER_ARGS, ids=[f"{n}-{a}" for n, a in _INTEGER_ARGS])
def test_a_numpy_integer_gives_what_its_int_gives(name, arg, box):
    fn, fixed, scalars = _ALL_CALLS[name]

    def run(value):
        # A fresh generator for each call, so that both draw alike.
        fresh = {k: np.random.default_rng(0) if k == "gen" else v for k, v in fixed.items()}
        return fn(**fresh, **{**scalars, arg: value})

    assert _same(run(box(scalars[arg])), run(scalars[arg]))


def test_numpy_integers_draw_the_same_survey():
    want = gen_synthetic1(3, 50, 0.0, RngSpec(7))
    assert _same(gen_synthetic1(np.int64(3), np.int64(50), 0.0, RngSpec(np.uint64(7))), want)
