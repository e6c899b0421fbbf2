import math
import re
import tracemalloc

import numpy as np
import pytest

from survkit import (
    Accounting,
    Dataset,
    ModelBounds,
    NoiseKind,
    NoiseSpec,
    PrivacyParams,
    PrivateDataset,
    RngSpec,
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


def _delta1(zeta, d, accounting):
    """Delta_1 read off make_noise_spec: the Laplace scale at alpha = 1."""
    return make_noise_spec(PrivacyParams(alpha=1.0, accounting=accounting), zeta, d).scale


def _delta2(zeta, d, accounting):
    """Delta_2 read off make_noise_spec: the Gaussian sigma at alpha = 1,
    over the calibration factor sqrt(2 ln(1.25 / beta)), which is 2 at
    beta = 1.25 / e^2."""
    beta = 1.25 / math.e**2
    spec = make_noise_spec(PrivacyParams(alpha=1.0, beta=beta, accounting=accounting), zeta, d)
    return spec.scale / math.sqrt(2.0 * math.log(1.25 / beta))


class TestSensitivity:
    def test_l1_values(self):
        assert _delta1(1.0, 5, PC) == 2.0
        assert _delta1(1.0, 5, WR) == 10.0
        assert _delta1(0.5, 1, PC) == _delta1(0.5, 1, WR) == 1.0

    def test_l2_values(self):
        assert _delta2(1.0, 4, WR) == pytest.approx(4.0, rel=1e-15)
        assert _delta2(1.0, 1, PC) == pytest.approx(2.0, rel=1e-15)
        assert _delta2(2.0, 9, WR) == pytest.approx(12.0, rel=1e-15)
        assert _delta2(1.0, 9, PC) == pytest.approx(2.0, rel=1e-15)

    def test_preconditions(self):
        for zeta, d, message in [
            (0.0, 1, "zeta must be positive"),
            (math.nan, 1, "zeta must be positive"),
            (1.0, 0, "d must be an integer >= 1"),
        ]:
            for beta in (0.0, 0.1):
                with pytest.raises(ValueError, match=message):
                    make_noise_spec(PrivacyParams(alpha=1.0, beta=beta), zeta, d)


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

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_noise_scale_must_be_finite_and_non_negative(self, scale):
        with pytest.raises(ValueError, match="^scale must be non-negative$"):
            NoiseSpec(NoiseKind.LAPLACE, scale)

    @pytest.mark.parametrize("spec", [NoiseSpec(NoiseKind.LAPLACE, 1.5),
                                      NoiseSpec(NoiseKind.GAUSSIAN, 1.5)])
    def test_bundle_variance_is_its_noise_specs(self, spec):
        pds = PrivateDataset([[0.1]], [0.0], spec, None, None)
        assert pds.noise_variance == spec.per_coordinate_variance
        with pytest.raises(AttributeError):
            pds.noise_variance = 0.0


class TestPrivatize:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_zero_noise_is_the_identity_bit_for_bit(self, kind):
        # -0.0 covariates come out +0.0, as from any sum with a +0.0 draw.
        x = np.array([[0.3, -0.2, -0.0], [0.0, -0.0, 1.0]] * 50)
        ds = _validated(x, np.zeros(100), ModelBounds(1, 1, 1))
        pds = privatize(ds, NoiseSpec(kind, 0.0), None, RngSpec(0))
        assert pds.z.tobytes() == (ds.x + 0.0).tobytes()
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

    def test_checks_zeta_on_every_call(self):
        spec = NoiseSpec(NoiseKind.LAPLACE, 1.0)
        # Within zeta, never passed to validate_dataset, y beyond tau: accepted.
        ds = Dataset([[0.1], [-1.0]], [0.0, 5.0], ModelBounds(1, 1, 1))
        assert privatize(ds, spec, None, RngSpec(0)).size == 2
        with pytest.raises(ValueError, match="covariates exceed zeta = 1;"):
            privatize(Dataset([[0.1], [-1.5]], [0.0, 0.0], ModelBounds(1, 1, 1)),
                      spec, None, RngSpec(0))
        # Attributes can be rebound after validate_dataset ran, so privatize
        # relies on no earlier check.
        ds = Dataset([[0.5]], [0.0], ModelBounds(1, 1, 1))
        assert validate_dataset(ds).ok
        ds.x = np.array([[50.0]])
        with pytest.raises(ValueError, match="covariates exceed zeta = 1;"):
            privatize(ds, spec, None, RngSpec(0))

    @pytest.mark.parametrize("spec, message", [
        (NoiseSpec(NoiseKind.LAPLACE, 0.0), "got laplace noise at scale 0.0"),
        (NoiseSpec(NoiseKind.LAPLACE, 1.0), "got laplace noise at scale 1.0"),
        (NoiseSpec(NoiseKind.GAUSSIAN, 2.0), "got gaussian noise at scale 2.0"),
    ])
    def test_a_budget_its_noise_does_not_meet_is_rejected(self, spec, message):
        ds = Dataset([[0.5]], [0.1], ModelBounds(1, 1, 1))
        with pytest.raises(ValueError, match=re.escape(
                "spec must be the laplace noise at scale 2.0 that params calibrate at zeta = 1 "
                f"and d = 1, {message}")):
            privatize(ds, spec, PrivacyParams(1.0), RngSpec(0))
        # Noise injected directly records no budget, so any spec goes.
        assert privatize(ds, spec, None, RngSpec(0)).noise == spec

    @pytest.mark.parametrize("params", [
        PrivacyParams(1.0), PrivacyParams(0.5, 0.1), PrivacyParams(2.0, 0.0, WR),
        PrivacyParams(0.8, 1e-5, WR),
    ])
    def test_the_calibrated_spec_is_accepted(self, params):
        ds = Dataset(np.full((4, 3), 0.25), np.zeros(4), ModelBounds(0.5, 1, 1))
        pds = privatize(ds, make_noise_spec(params, 0.5, 3), params, RngSpec(3))
        assert (pds.privacy, pds.noise) == (params, make_noise_spec(params, 0.5, 3))

    def test_rejection_holds_no_object_per_cell_outside(self):
        # The message needs a count and five cells: the failed check holds
        # |x|, a mask and the flat indices outside, 17 bytes a cell at most.
        ds = Dataset(np.full((20_000, 10), 2.0), np.zeros(20_000), ModelBounds(1, 1, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    "200000 entries lie outside, the first at (row, col) "
                    "[(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)];")):
                privatize(ds, NoiseSpec(NoiseKind.LAPLACE, 1.0), None, RngSpec(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * ds.size * ds.dim


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
