import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from survkit import (
    Dataset,
    ModelBounds,
    NoiseKind,
    NoiseSpec,
    PooledSource,
    PrivateDataset,
    RngSpec,
    ValidationReport,
    mean_squared_loss,
    model_distance,
    validate_dataset,
)
from survkit.core import _rows

UNIT = ModelBounds(1.0, 1.0, 1.0)


def _entries(bound: float):
    """Floats around +-bound, with the edge cases drawn often."""
    edges = [0.0, -0.0, bound, -bound, np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf),
             np.nextafter(bound, 0.0), -np.nextafter(bound, 0.0)]
    return st.one_of(
        st.sampled_from(edges),
        st.floats(-2.0 * bound, 2.0 * bound, allow_nan=False, allow_infinity=False),
    )


class TestValidateDataset:
    def test_within_bounds(self):
        ds = Dataset([[0.5]], [0.2], UNIT)
        rep = validate_dataset(ds)
        assert rep.ok

    def test_covariate_violation_located(self):
        ds = Dataset([[1.5]], [0.2], UNIT)
        rep = validate_dataset(ds)
        assert rep.violations == ((0, 0),)

    def test_response_violation_located(self):
        ds = Dataset([[0.0, 0.0]], [3.0], UNIT)
        rep = validate_dataset(ds)
        assert rep.violations == ((0, 2),)

    def test_idempotent(self):
        ds = Dataset([[0.5]], [0.2], UNIT)
        before = (ds.x, ds.y, ds.bounds)
        r1 = validate_dataset(ds)
        r2 = validate_dataset(ds)
        assert r1 == r2
        # A pure function: the dataset's slots still hold the same objects.
        assert all(a is b for a, b in zip((ds.x, ds.y, ds.bounds), before))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_matches_entry_by_entry_scan(self, data):
        zeta = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
        tau = data.draw(st.sampled_from([0.25, 1.0, 7.0]))
        m = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(1, 3))
        x = data.draw(st.lists(st.lists(_entries(zeta), min_size=d, max_size=d),
                               min_size=m, max_size=m))
        y = data.draw(st.lists(_entries(tau), min_size=m, max_size=m))
        ds = Dataset(x, y, ModelBounds(zeta, tau, 1.0))
        expected = sorted(
            [(i, j) for i in range(m) for j in range(d) if abs(x[i][j]) > zeta]
            + [(i, d) for i in range(m) if abs(y[i]) > tau]
        )
        assert validate_dataset(ds) == ValidationReport(tuple(expected))


class TestDatasetConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 2)), np.empty(0), UNIT)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[np.nan]], [0.0], UNIT)
        with pytest.raises(ValueError):
            Dataset([[0.0]], [np.inf], UNIT)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[0.0], [0.0]], [0.0], UNIT)

    def test_arrays_read_only(self):
        ds = Dataset([[0.5]], [0.2], UNIT)
        with pytest.raises(ValueError):
            ds.x[0, 0] = 9.0

    def test_bounds_must_be_positive(self):
        for bad in [(0.0, 1, 1), (1, -1, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                ModelBounds(*bad)


# Every holder of (x, y) rows, built from arrays it may keep.
_HOLDERS = {
    "Dataset": lambda x, y: Dataset(x, y, UNIT),
    "Dataset._adopt": lambda x, y: Dataset._adopt(x, y, UNIT),
    "PrivateDataset": lambda x, y: PrivateDataset(
        x, y, NoiseSpec(NoiseKind.LAPLACE, 1.0), None, None),
    "PrivateDataset._adopt": lambda x, y: PrivateDataset._adopt(
        x, y, noise=NoiseSpec(NoiseKind.LAPLACE, 1.0), privacy=None, rng=None),
    "PooledSource": PooledSource,
}


def _with(value, at):
    a = np.zeros(3) if at == "y" else np.zeros((3, 2))
    a.flat[1] = value
    return a


@pytest.mark.parametrize("holder", sorted(_HOLDERS))
@pytest.mark.parametrize("x, y", [
    (np.zeros((0, 2)), np.zeros(0)),
    (np.zeros((4, 0)), np.zeros(4)),
    (np.zeros((3, 2)), np.zeros(2)),
    (np.zeros(3), np.zeros(3)),
    (np.zeros((3, 2)), np.zeros((3, 1))),
    *[(_with(v, "x"), np.zeros(3)) for v in (np.nan, np.inf, -np.inf)],
    *[(np.zeros((3, 2)), _with(v, "y")) for v in (np.nan, np.inf, -np.inf)],
], ids=["no-rows", "no-columns", "row-mismatch", "x-1d", "y-2d", "x-nan", "x-inf", "x-neginf",
        "y-nan", "y-inf", "y-neginf"])
def test_every_row_holder_applies_the_row_rule(holder, x, y):
    """An (m, d) matrix with m, d >= 1, m responses, every entry finite."""
    with pytest.raises(ValueError):
        _HOLDERS[holder](x, y)


@pytest.mark.parametrize("x, y, message", [
    (np.zeros((0, 2)), np.zeros(0), r"covariates must be non-empty, got shape \(0, 2\)"),
    (np.zeros((4, 0)), np.zeros(4), r"covariates must be non-empty, got shape \(4, 0\)"),
    (np.zeros((0, 2)), np.zeros(1), r"covariates must be non-empty, got shape \(0, 2\)"),
    (np.zeros((3, 2)), np.zeros(2), r"responses must have shape \(3,\), got \(2,\)"),
    (_with(np.nan, "x"), np.zeros(3), "covariates must be finite"),
    (_with(-np.inf, "x"), np.zeros(3), "covariates must be finite"),
    (np.zeros((3, 2)), _with(np.inf, "y"), "responses must be finite"),
])
def test_row_rule_messages(x, y, message):
    # An empty array fails on its shape before the finiteness check.
    with pytest.raises(ValueError, match=f"^{message}$"):
        _rows(x, y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=12))
def test_finiteness_check_agrees_with_isfinite(values):
    # The min/max reductions reject exactly what an entrywise isfinite does.
    y = np.array(values)
    if np.all(np.isfinite(y)):
        _rows(np.zeros((y.size, 1)), y)
    else:
        with pytest.raises(ValueError, match="^responses must be finite$"):
            _rows(np.zeros((y.size, 1)), y)


def test_row_check_builds_no_m_by_d_temporary():
    # At m = 3e4, d = 10 an m x d boolean mask is 0.3 MB; adopting the
    # arrays needs only the reductions' scalars.
    gen = np.random.default_rng(28)
    peaks = []
    for x, y in [(gen.normal(size=(30_000, 10)), gen.normal(size=30_000)) for _ in range(2)]:
        tracemalloc.start()  # the second call is measured, past first-call caches
        try:
            _rows(x, y, adopt=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 64 * 1024, peaks


class TestEmpiricalLoss:
    def test_exact_fit(self):
        assert mean_squared_loss([1.0], [[1.0], [2.0]], [1.0, 2.0]) == 0.0

    def test_unit_residuals(self):
        assert mean_squared_loss([0.0], [[1.0], [1.0]], [1.0, -1.0]) == 1.0

    def test_single_row(self):
        assert mean_squared_loss([2.0], [[1.0]], [0.0]) == 4.0

    def test_non_negative_and_zero_iff_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=(6, 3))
            theta = rng.normal(size=3)
            assert mean_squared_loss(theta, x, x @ theta) <= 1e-24
            other = theta + 0.1
            assert mean_squared_loss(other, x, x @ theta) > 0

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_loss([1.0], [[1.0], [2.0]], [1.0])


class TestModelDistance:
    def test_identical_models(self):
        assert model_distance([1.0, 2.0], [1.0, 2.0], [[3.0, 4.0]]) == 0.0

    def test_constant_gap(self):
        assert model_distance([1.0], [0.0], [[1.0], [1.0], [1.0]]) == 1.0

    def test_orthogonal_designs(self):
        # residuals are 1 and -1; mean of squares 1, root 1
        assert model_distance([1.0, 0.0], [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]) == 1.0

    def test_empty_design_rejected(self):
        with pytest.raises(ValueError):
            model_distance([1.0], [0.0], np.empty((0, 1)))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(30, 4))
        for _ in range(25):
            a, b, c = rng.normal(size=(3, 4))
            dab = model_distance(a, b, xs)
            assert dab == model_distance(b, a, xs)
            assert dab <= model_distance(a, c, xs) + model_distance(c, b, xs) + 1e-12

    @pytest.mark.parametrize("a, b, xs, message", [
        ([1.0], [1.0, 2.0], [[1.0]], r"theta_b must have shape \(1,\), got \(2,\)"),
        ([1.0, 2.0], [0.0, 0.0], [[1.0]], r"xs must have shape \(1, 2\), got \(1, 1\)"),
    ])
    def test_rejects_mismatched_shapes(self, a, b, xs, message):
        with pytest.raises(ValueError, match=message):
            model_distance(a, b, xs)


class TestRngSpec:
    def test_identical_spec_reproduces_bitwise(self):
        a = RngSpec(123, 4).derive().random(100)
        b = RngSpec(123, 4).derive().random(100)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        a = RngSpec(123, 0).derive().random(10)
        b = RngSpec(123, 1).derive().random(10)
        assert not np.array_equal(a, b)

    def test_derived_children_distinct_and_stable(self):
        s = RngSpec(9, 2)
        a1 = s.derive(0).random(10)
        a2 = s.derive(0).random(10)
        b = s.derive(1).random(10)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(0, -2)
