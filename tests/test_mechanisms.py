import math

import numpy as np
import pytest

from survkit import (
    Accounting,
    Dataset,
    ModelBounds,
    NoiseKind,
    NoiseSpec,
    PrivacyParams,
    RngSpec,
    l1_sensitivity,
    l2_sensitivity,
    make_noise_spec,
    privatize,
    validate_dataset,
)

PC = Accounting.PER_COORDINATE
WR = Accounting.WHOLE_RECORD


def _validated(x, y, bounds):
    ds = Dataset(x, y, bounds)
    assert validate_dataset(ds).ok
    return ds


class TestSensitivity:
    def test_l1_values(self):
        assert l1_sensitivity(1.0, 5, PC) == 2.0
        assert l1_sensitivity(1.0, 5, WR) == 10.0
        assert l1_sensitivity(0.5, 1, PC) == l1_sensitivity(0.5, 1, WR) == 1.0

    def test_l2_values(self):
        assert l2_sensitivity(1.0, 4, WR) == 4.0
        assert l2_sensitivity(1.0, 1, PC) == 2.0
        assert l2_sensitivity(2.0, 9, WR) == 12.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            l1_sensitivity(0.0, 1, PC)
        with pytest.raises(ValueError):
            l2_sensitivity(1.0, 0, PC)


class TestNoiseCalibration:
    def test_laplace_per_coordinate_variance(self):
        # per-coordinate variance must equal 8 zeta^2 / alpha^2
        spec = make_noise_spec(PrivacyParams(alpha=2.0), zeta=1.0, d=5)
        assert spec.kind is NoiseKind.LAPLACE
        assert spec.scale == 1.0
        assert spec.per_coordinate_variance == 2.0 == 8 * 1.0 / 4.0

    def test_gaussian_standard_formula(self):
        # oracle: sigma = 2 * sqrt(2 ln 12.5) = 4.4950894489949865
        spec = make_noise_spec(PrivacyParams(alpha=1.0, beta=0.1), zeta=1.0, d=5)
        assert spec.kind is NoiseKind.GAUSSIAN
        assert spec.scale == pytest.approx(4.4950894489949865, rel=1e-12)
        assert spec.per_coordinate_variance == pytest.approx(20.205829154466045, rel=1e-12)
        assert spec.per_coordinate_variance == pytest.approx(8 * math.log(12.5), rel=1e-12)

    def test_laplace_whole_record(self):
        spec = make_noise_spec(
            PrivacyParams(alpha=1.0, accounting=WR), zeta=1.0, d=3
        )
        assert spec.scale == 6.0
        assert spec.per_coordinate_variance == 72.0

    def test_gaussian_warns_above_alpha_one(self):
        with pytest.warns(RuntimeWarning):
            make_noise_spec(PrivacyParams(alpha=2.0, beta=0.1), zeta=1.0, d=2)

    def test_gaussian_whole_record_scales_with_sqrt_d(self):
        pc = make_noise_spec(PrivacyParams(alpha=0.5, beta=0.1), zeta=1.0, d=9)
        wr = make_noise_spec(
            PrivacyParams(alpha=0.5, beta=0.1, accounting=WR), zeta=1.0, d=9
        )
        assert wr.scale == pytest.approx(3.0 * pc.scale, rel=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(alpha=0.0)
        with pytest.raises(ValueError):
            PrivacyParams(alpha=1.0, beta=1.0)


class TestPrivatize:
    def test_zero_noise_degenerate(self):
        ds = _validated([[0.3, -0.2]], [0.1], ModelBounds(1, 1, 1))
        pds = privatize(ds, NoiseSpec(NoiseKind.LAPLACE, 0.0), None, RngSpec(0))
        assert np.array_equal(pds.z, ds.x)
        assert pds.noise_variance == 0.0

    def test_covariance_bookkeeping(self):
        ds = _validated([[0.0]], [0.5], ModelBounds(1, 1, 1))
        pds = privatize(ds, NoiseSpec(NoiseKind.LAPLACE, 1.0), None, RngSpec(7))
        assert pds.z.shape == (1, 1) and pds.z[0, 0] != 0.0
        assert pds.noise_variance == 2.0

    def test_responses_byte_identical(self):
        ds = _validated([[0.1], [0.2]], [0.5, -0.5], ModelBounds(1, 1, 1))
        pds = privatize(ds, NoiseSpec(NoiseKind.GAUSSIAN, 1.0), None, RngSpec(1))
        assert pds.y.tobytes() == ds.y.tobytes()

    def test_deterministic_under_rng(self):
        ds = _validated(np.full((50, 3), 0.1), np.zeros(50), ModelBounds(1, 1, 1))
        spec = NoiseSpec(NoiseKind.LAPLACE, 0.7)
        a = privatize(ds, spec, None, RngSpec(99, 3))
        b = privatize(ds, spec, None, RngSpec(99, 3))
        assert a.z.tobytes() == b.z.tobytes()
        c = privatize(ds, spec, None, RngSpec(99, 4))
        assert a.z.tobytes() != c.z.tobytes()

    def test_requires_validated_dataset(self):
        ds = Dataset([[0.1]], [0.0], ModelBounds(1, 1, 1))
        with pytest.raises(ValueError):
            privatize(ds, NoiseSpec(NoiseKind.LAPLACE, 1.0), None, RngSpec(0))


class TestNoiseStatistics:
    def test_empirical_variance_laplace_unit_scale(self):
        # Monte-Carlo oracle: sample variance of 1e6 Laplace(0,1) draws has
        # std ~0.0045 around 2; the fixed seed lands inside [1.99, 2.01].
        ds = _validated(np.zeros((1_000_000, 1)), np.zeros(1_000_000), ModelBounds(1, 1, 1))
        pds = privatize(ds, NoiseSpec(NoiseKind.LAPLACE, 1.0), None, RngSpec(2024))
        var = float(np.var(pds.z))
        assert 1.99 <= var <= 2.01

    def test_sample_variance_within_5pct_both_kinds(self):
        ds = _validated(np.zeros((1_000_000, 1)), np.zeros(1_000_000), ModelBounds(1, 1, 1))
        for spec in (NoiseSpec(NoiseKind.LAPLACE, 0.5), NoiseSpec(NoiseKind.GAUSSIAN, 1.3)):
            pds = privatize(ds, spec, None, RngSpec(5))
            var = float(np.var(pds.z))
            assert abs(var - spec.per_coordinate_variance) <= 0.05 * spec.per_coordinate_variance

    def test_noise_mean_concentrates_across_seeds(self):
        # |sample mean| <= 5 sqrt(var/N) must hold in >= 99% of seeds
        n = 100_000
        ds = _validated(np.zeros((n, 1)), np.zeros(n), ModelBounds(1, 1, 1))
        spec = NoiseSpec(NoiseKind.LAPLACE, 1.0)
        cap = 5.0 * math.sqrt(spec.per_coordinate_variance / n)
        hits = sum(
            abs(float(np.mean(privatize(ds, spec, None, RngSpec(seed)).z))) <= cap
            for seed in range(100)
        )
        assert hits >= 99
