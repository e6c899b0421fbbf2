"""Datasets own their arrays: nothing outside a dataset can change it.

The public constructors copy into C order, so the caller's arrays stay the
caller's and every dataset has the layout its moments are computed in.  The
package's producers hand their fresh buffers to the private ``_adopt`` path
instead; every array a produced dataset holds is read-only, and a privatized
survey never shares memory with the clear covariates it was made from.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survkit import (
    Dataset,
    ModelBounds,
    NoiseKind,
    NoiseSpec,
    PrivacyParams,
    PrivateDataset,
    RngSpec,
    clip_to_bounds,
    gen_synthetic1,
    gen_synthetic2,
    load_csv,
    load_private,
    make_noise_spec,
    privatize,
    save_csv,
    save_private,
)

_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 4))
_FINITE = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _matrix(m, d):
    return st.lists(st.lists(_FINITE, min_size=d, max_size=d), min_size=m, max_size=m)


def _held(obj) -> list[np.ndarray]:
    return [obj.x, obj.y] if isinstance(obj, Dataset) else [obj.z, obj.y]


@settings(max_examples=40)
@given(data=st.data(), shape=_SHAPES, fortran=st.booleans())
def test_public_constructors_copy(data, shape, fortran):
    m, d = shape
    x = np.array(data.draw(_matrix(m, d)), order="F" if fortran else "C")
    y = np.array(data.draw(st.lists(_FINITE, min_size=m, max_size=m)))
    ds = Dataset(x, y, ModelBounds(1.0, 1.0, 1.0))
    pds = PrivateDataset(x, y, NoiseSpec(NoiseKind.LAPLACE, 1.0), None, None)
    before = [a.copy() for a in _held(ds) + _held(pds)]
    x += 1.0
    y -= 1.0
    for held, old in zip(_held(ds) + _held(pds), before):
        assert np.array_equal(held, old) and held.flags.c_contiguous
        assert not np.shares_memory(held, x) and not np.shares_memory(held, y)


def _synthetic1(d, m, seed, _tmp):
    return [gen_synthetic1(d, m, 0.5, RngSpec(seed))[0]]


def _synthetic2(d, m, seed, _tmp):
    clean, noisy, _ = gen_synthetic2(d, m, NoiseKind.LAPLACE, RngSpec(seed))
    assert not np.shares_memory(noisy.z, clean.x)
    return [clean, noisy]


def _clipped(d, m, seed, _tmp):
    survey = gen_synthetic1(d, m, 0.5, RngSpec(seed))[0]
    return [clip_to_bounds(survey, 0.5, 0.5)[0]]


def _privatized(d, m, seed, _tmp):
    survey = gen_synthetic1(d, m, 0.5, RngSpec(seed))[0]
    params = PrivacyParams(alpha=1.0)
    pds = privatize(survey, make_noise_spec(params, survey.bounds.zeta, d), params,
                    RngSpec(seed))
    assert not np.shares_memory(pds.z, survey.x)
    return [pds]


def _loaded(d, m, seed, tmp):
    path = tmp / "survey.csv"
    save_csv(gen_synthetic1(d, m, 0.5, RngSpec(seed))[0], path)
    return [load_csv(path)]


def _loaded_private(d, m, seed, tmp):
    path = tmp / "private.csv"
    save_private(_privatized(d, m, seed, tmp)[0], path)
    return [load_private(path)]


@settings(max_examples=40)
@given(
    producer=st.sampled_from(
        [_synthetic1, _synthetic2, _clipped, _privatized, _loaded, _loaded_private]
    ),
    shape=_SHAPES,
    seed=st.integers(0, 2**32),
)
def test_produced_arrays_are_read_only(producer, shape, seed):
    m, d = shape
    with tempfile.TemporaryDirectory() as tmp:
        produced = producer(d, m, seed, Path(tmp))
    for obj in produced:
        for a in _held(obj):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def test_adopt_keeps_its_arrays_and_refuses_other_layouts():
    x, y = np.ones((3, 2)), np.ones(3)
    ds = Dataset._adopt(x, y, ModelBounds(1.0, 1.0, 1.0))
    assert ds.x is x and ds.y is y and not x.flags.writeable
    for bad in (np.ones((3, 4))[:, :2], np.asfortranarray(np.ones((3, 2))),
                np.ones((3, 2), dtype=np.float32)):
        with pytest.raises(ValueError, match="float64 C-contiguous"):
            Dataset._adopt(bad, np.ones(3), ModelBounds(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="float64 C-contiguous"):
            PrivateDataset._adopt(bad, np.ones(3), noise=NoiseSpec(NoiseKind.LAPLACE, 1.0),
                                  privacy=None, rng=None)
