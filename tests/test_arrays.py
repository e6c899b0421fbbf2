"""Every array argument of the package is read by ``core._as_float_array``
under one rule, and its message names the argument.

An array argument must hold integers or floats (no bool, string, object or
complex array, and no ragged list), have the documented number of
dimensions, no size zero and the sizes the other arguments fix, and hold no
NaN or infinity.  A float32 or integer array gives what its float64 copy
gives, bit for bit.

Each entry of ``_CALLS`` is one valid call: its array arguments and its
other arguments, by keyword.  Each array argument comes with the name its
messages use, the axes whose size another argument fixes, and the name a
non-finite entry is reported under: ``mean_squared_loss`` and
``moments_from_arrays`` check no entry of x or y, but reject the
non-finite loss or moments one brings about.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survkit import (
    CorrectedMoments,
    Dataset,
    LinearModelSource,
    ModelBounds,
    NoiseKind,
    NoiseSpec,
    PooledSource,
    PrivateDataset,
    mean_squared_loss,
    model_distance,
    moments_from_arrays,
    objective,
    project_l1,
    spectral_bound,
)
from test_domains import _same

_X = np.array([[0.5, -0.25], [0.75, 0.0], [-1.0, 0.5]])
_Y = np.array([0.25, -0.5, 1.0])
_THETA = np.array([0.5, -1.0])
_GAMMA = np.array([[2.0, 0.5], [0.5, 1.0]])


def _arg(value, name, fixed=(), non_finite=None):
    """An array argument: its valid value, the name its messages use, the
    axes another argument fixes, and the name a non-finite entry gets."""
    return value, name, fixed, non_finite or name


_COVARIATES, _RESPONSES = _arg(_X, "covariates"), _arg(_Y, "responses", (0,))
_CALLS = {
    "Dataset": (Dataset, dict(x=_COVARIATES, y=_RESPONSES),
                dict(bounds=ModelBounds(1.0, 1.0, 1.0))),
    "PrivateDataset": (PrivateDataset, dict(z=_COVARIATES, y=_RESPONSES),
                       dict(noise=NoiseSpec(NoiseKind.LAPLACE, 1.0), privacy=None, rng=None)),
    "PooledSource": (PooledSource, dict(x=_COVARIATES, y=_RESPONSES), {}),
    "mean_squared_loss": (mean_squared_loss, dict(
        theta=_arg(_THETA, "theta", (0,)), x=_arg(_X, "x", (), "x and y"),
        y=_arg(_Y, "y", (0,), "x and y")), {}),
    "model_distance": (model_distance, dict(
        theta_a=_arg(_THETA, "theta_a"), theta_b=_arg(-_THETA, "theta_b", (0,)),
        xs=_arg(_X, "xs", (1,))), {}),
    "CorrectedMoments": (CorrectedMoments, dict(
        gamma_mat=_arg(_GAMMA, "gamma_mat", (0, 1)), gamma_vec=_arg(_THETA, "gamma_vec")),
        dict(m=3)),
    "moments_from_arrays": (moments_from_arrays, dict(
        x=_arg(_X, "x", (), "x and y"), y=_arg(_Y, "y", (0,), "x and y")),
        dict(noise_variance=0.1)),
    "objective": (objective, dict(theta=_arg(_THETA, "theta", (0,))),
                  dict(moments=CorrectedMoments(_GAMMA, _THETA, 3), lambda_n=0.1)),
    "spectral_bound": (spectral_bound, dict(gamma_mat=_arg(_GAMMA, "gamma_mat", (0, 1))), {}),
    "LinearModelSource": (LinearModelSource, dict(theta=_arg(_THETA, "theta")),
                          dict(noise_var=0.1)),
}
_ARGS = [(name, arg) for name, (_, arrays, _) in _CALLS.items() for arg in arrays]
_IDS = [f"{name}-{arg}" for name, arg in _ARGS]


def _call(name: str, **changes):
    fn, arrays, others = _CALLS[name]
    return fn(**{**{arg: spec[0] for arg, spec in arrays.items()}, **others, **changes})


def _ragged(a: np.ndarray) -> list:
    """``a`` as nested lists whose last element is one entry longer."""
    rows = a.tolist()
    rows[-1] = [*rows[-1], 0.0] if a.ndim > 1 else [rows[-1], 0.0]
    return rows


def _longer(a: np.ndarray, axis: int) -> np.ndarray:
    """``a`` with its last slice along ``axis`` repeated once more."""
    return np.concatenate([a, np.take(a, [-1], axis=axis)], axis=axis)


# Each bad form of a valid array, as (id, function of the valid array).
_BAD_FORMS = [
    ("empty-rows", lambda a: a[:0]),
    ("empty-columns", lambda a: a[..., :0]),
    ("extra-dimension", lambda a: a[..., None]),
    ("missing-dimension", lambda a: a[0]),
    ("bool", lambda a: a.astype(bool)),
    ("string", lambda a: a.astype(str)),
    ("string-list", lambda a: a.astype(str).tolist()),
    ("object", lambda a: a.astype(object)),
    ("complex", lambda a: a.astype(complex)),
    ("ragged", _ragged),
]


def _rejects(name: str, arg: str, value, message_name: str) -> None:
    with pytest.raises(ValueError) as err:
        _call(name, **{arg: value})
    assert str(err.value).startswith(f"{message_name} must "), str(err.value)


def test_every_array_argument_is_probed():
    assert len(_ARGS) == 19


@pytest.mark.parametrize("form, bad", _BAD_FORMS, ids=[f for f, _ in _BAD_FORMS])
@pytest.mark.parametrize("name, arg", _ARGS, ids=_IDS)
def test_no_bad_array_passes(name, arg, form, bad):
    value, message_name, _, _ = _CALLS[name][1][arg]
    _rejects(name, arg, bad(value), message_name)


_FIXED = [(name, arg, axis) for name, arg in _ARGS for axis in _CALLS[name][1][arg][2]]


@pytest.mark.parametrize("name, arg, axis", _FIXED,
                         ids=[f"{n}-{a}-axis{k}" for n, a, k in _FIXED])
def test_no_mismatched_size_passes(name, arg, axis):
    value, message_name, _, _ = _CALLS[name][1][arg]
    _rejects(name, arg, _longer(value, axis), message_name)


@pytest.mark.parametrize("name, arg", _ARGS, ids=_IDS)
@settings(max_examples=4)
@given(entry=st.sampled_from([math.nan, math.inf, -math.inf]), where=st.integers(0, 5))
def test_no_nan_or_infinity_passes(name, arg, entry, where):
    value, _, _, message_name = _CALLS[name][1][arg]
    bad = value.copy()
    bad.flat[where % bad.size] = entry
    _rejects(name, arg, bad, message_name)


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int32])
@pytest.mark.parametrize("name, arg", _ARGS, ids=_IDS)
def test_a_float32_or_int_array_gives_what_its_float64_copy_gives(name, arg, dtype):
    value = _CALLS[name][1][arg][0]
    narrow = (value * 4).astype(dtype)  # integral entries, so an int cast keeps them
    assert _same(_call(name, **{arg: narrow}), _call(name, **{arg: narrow.astype(np.float64)}))


@settings(max_examples=10)
@given(entry=st.sampled_from([math.nan, math.inf, -math.inf]), where=st.integers(0, 3),
       radius=st.sampled_from([0.5, 10.0]))
def test_project_l1_rejects_a_non_finite_vector(entry, where, radius):
    # The solver's loop kernel checks only the l1 norm it computes anyway.
    v = np.array([0.5, -1.0, 2.0, 0.0])
    v[where] = entry
    with pytest.raises(ValueError, match="^v must be finite$"):
        project_l1(v, radius)
