import json
import math

import numpy as np
import pytest

from survkit import (
    Dataset,
    LinearModelSource,
    ModelBounds,
    NoiseKind,
    RngSpec,
    clip_to_bounds,
    gen_synthetic1,
    gen_synthetic2,
    load_csv,
    load_private,
    model_distance,
    save_csv,
    save_private,
    sparse_coefficients,
)
from survkit.datagen import CsvFormatError, source_from_spec


class TestClipToBounds:
    def test_identity_when_within(self):
        ds = Dataset([[0.5, -0.5]], [0.1], ModelBounds(1, 1, 1))
        out, rep = clip_to_bounds(ds, 1.0, 1.0)
        assert rep.total == 0
        assert np.array_equal(out.x, ds.x) and np.array_equal(out.y, ds.y)
        assert out.validated

    def test_single_clamp_counted(self):
        ds = Dataset([[5.0]], [0.0], ModelBounds(10, 1, 1))
        out, rep = clip_to_bounds(ds, 1.0, 1.0)
        assert out.x[0, 0] == 1.0
        assert rep.covariate_clips == (1,) and rep.response_clips == 0

    def test_four_sigma_clip_fraction(self):
        # oracle: 2 * Phi_bar(4) = 6.334e-5 per cell; 1e5 cells -> Poisson(6.3)
        gen = np.random.default_rng(8)
        x = gen.normal(size=(10_000, 10))
        ds = Dataset(x, np.zeros(10_000), ModelBounds(100, 1, 1))
        _, rep = clip_to_bounds(ds, 4.0, 1.0)
        assert 0 <= sum(rep.covariate_clips) <= 25

    def test_idempotent(self):
        gen = np.random.default_rng(9)
        ds = Dataset(gen.normal(size=(50, 2)) * 3, gen.normal(size=50), ModelBounds(99, 99, 1))
        once, rep1 = clip_to_bounds(ds, 1.0, 1.0)
        twice, rep2 = clip_to_bounds(once, 1.0, 1.0)
        assert rep2.total == 0
        assert np.array_equal(once.x, twice.x)


class TestSparseCoefficients:
    def test_expected_support_size(self):
        gen = np.random.default_rng(10)
        counts = [np.count_nonzero(sparse_coefficients(100, gen)) for _ in range(1000)]
        assert 9.0 <= float(np.mean(counts)) <= 11.0

    def test_values_in_range(self):
        gen = np.random.default_rng(11)
        th = sparse_coefficients(25, gen)
        nz = th[th != 0]
        assert len(nz) >= 1 and np.all((1.0 <= nz) & (nz <= 10.0))


class TestSynthetic1:
    def test_single_row_bookkeeping(self):
        survey, theta_s, theta_star, _ = gen_synthetic1(3, 1, 0.0, RngSpec(0))
        assert survey.size == 1 and survey.dim == 3
        assert theta_s.shape == theta_star.shape == (3,)

    def test_deterministic(self):
        a = gen_synthetic1(5, 100, 0.7, RngSpec(21, 3))
        b = gen_synthetic1(5, 100, 0.7, RngSpec(21, 3))
        assert a[0].x.tobytes() == b[0].x.tobytes()
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    def test_close_regime_distances(self):
        # Monte-Carlo oracle under the variance convention: coefficient gap
        # is sqrt(0.02 chi2_10), so P(dist < 0.75) = P(chi2_10 < 28.1) ~ 0.998.
        probes = np.random.default_rng(0).normal(size=(2000, 10))
        hits = 0
        for seed in range(60):
            _, theta_s, theta_star, _ = gen_synthetic1(10, 1, 0.0, RngSpec(seed))
            hits += model_distance(theta_s, theta_star, probes) < 0.75
        assert hits >= 57  # >= 95%

    def test_far_regime_distance_large(self):
        probes = np.random.default_rng(0).normal(size=(2000, 10))
        for seed in range(10):
            _, theta_s, theta_star, _ = gen_synthetic1(10, 1, 2.0, RngSpec(seed))
            assert model_distance(theta_s, theta_star, probes) > 3.0

    def test_sampler_draws_from_star_model(self):
        _, _, theta_star, sampler = gen_synthetic1(4, 1, 1.0, RngSpec(5))
        x, y = sampler.draw(50_000, np.random.default_rng(0))
        resid = y - x @ theta_star
        assert float(np.var(resid)) == pytest.approx(0.1, rel=0.05)
        assert abs(float(np.mean(x))) < 0.02


class TestSynthetic2:
    def test_noise_variances_match_within_2pct(self):
        m, d = 100_000, 10  # 1e6 noise cells per kind
        clean_g, noisy_g, _ = gen_synthetic2(d, m, NoiseKind.GAUSSIAN, RngSpec(3))
        clean_l, noisy_l, _ = gen_synthetic2(d, m, NoiseKind.LAPLACE, RngSpec(3))
        vg = float(np.var(noisy_g.z - clean_g.x))
        vl = float(np.var(noisy_l.z - clean_l.x))
        assert vg == pytest.approx(1.0, rel=0.02)
        assert vl == pytest.approx(1.0, rel=0.02)
        assert vg == pytest.approx(vl, rel=0.02)

    def test_laplace_scale_matches_unit_variance(self):
        # Laplace(0, 1/sqrt 2) has variance 2 * (1/sqrt 2)^2 = 1
        _, noisy, _ = gen_synthetic2(2, 10, NoiseKind.LAPLACE, RngSpec(0))
        assert noisy.noise.scale == pytest.approx(1 / math.sqrt(2))
        assert noisy.noise.per_coordinate_variance == pytest.approx(1.0)
        assert noisy.noise_variance == 1.0

    def test_clean_data_shared_across_kinds(self):
        clean_g, _, th_g = gen_synthetic2(6, 500, NoiseKind.GAUSSIAN, RngSpec(17))
        clean_l, _, th_l = gen_synthetic2(6, 500, NoiseKind.LAPLACE, RngSpec(17))
        assert clean_g.x.tobytes() == clean_l.x.tobytes()
        assert np.array_equal(th_g, th_l)

    def test_deterministic(self):
        a = gen_synthetic2(4, 50, NoiseKind.LAPLACE, RngSpec(2, 9))
        b = gen_synthetic2(4, 50, NoiseKind.LAPLACE, RngSpec(2, 9))
        assert a[1].z.tobytes() == b[1].z.tobytes()


class TestCsvRoundTrip:
    def test_single_row_exact(self, tmp_path):
        ds = Dataset([[0.1, -2.5e-17]], [math.pi], ModelBounds(1, 4, 1))
        p = tmp_path / "one.csv"
        save_csv(ds, p)
        back = load_csv(p, ds.bounds)
        assert back.x.tobytes() == ds.x.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()

    def test_large_random_round_trip_bitwise(self, tmp_path):
        gen = np.random.default_rng(12)
        ds = Dataset(gen.normal(size=(10_000, 4)), gen.normal(size=10_000),
                     ModelBounds(10, 10, 1))
        p = tmp_path / "big.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert back.x.tobytes() == ds.x.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()

    def test_empty_data_section_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x1,y\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(p)

    def test_ragged_row_located(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("x1,x2,y\n1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError, match="3"):
            load_csv(p)

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,y\n1,2\nfoo,3\n")
        with pytest.raises(CsvFormatError, match="column 1"):
            load_csv(p)

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("x1,x2,y\n1,,3\n")
        with pytest.raises(CsvFormatError, match="column 2"):
            load_csv(p)

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("x1,y\ninf,0\n")
        with pytest.raises(CsvFormatError, match="column 1: non-finite"):
            load_csv(p)


class TestPrivateBundle:
    def test_round_trip(self, tmp_path):
        _, noisy, _ = gen_synthetic2(3, 20, NoiseKind.LAPLACE, RngSpec(4))
        p = tmp_path / "bundle.csv"
        csv_path, side = save_private(noisy, p)
        assert side.name == "bundle.meta.json"
        back = load_private(csv_path)
        assert back.z.tobytes() == noisy.z.tobytes()
        assert back.y.tobytes() == noisy.y.tobytes()
        assert back.noise_variance == noisy.noise_variance
        assert back.noise.kind is NoiseKind.LAPLACE
        meta = json.loads(side.read_text())
        assert meta["sigma_w_diagonal"] == 1.0

    def test_missing_sidecar_rejected(self, tmp_path):
        ds = Dataset([[0.1]], [0.2], ModelBounds(1, 1, 1))
        p = tmp_path / "plain.csv"
        save_csv(ds, p)
        with pytest.raises(CsvFormatError, match="sidecar"):
            load_private(p)


class TestLinearModelSource:
    def test_spec_round_trip(self):
        src = LinearModelSource([1.0, -2.0], 0.25, "uniform", 3.0)
        back = source_from_spec(src.spec_dict())
        x1, y1 = src.draw(10, np.random.default_rng(0))
        x2, y2 = back.draw(10, np.random.default_rng(0))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(ValueError):
            source_from_spec({"type": "nope"})
