import math

import numpy as np
import pytest

from survkit import (
    Accounting,
    Dataset,
    Decision,
    InsufficientValidationError,
    ModelBounds,
    NoiseKind,
    PooledSource,
    PrivacyParams,
    RngSpec,
    SolverConfig,
    TestConfig,
    ValidationSource,
    Verdict,
    corrected_moments,
    gen_synthetic1,
    gen_synthetic2,
    make_noise_spec,
    privacy_penalty_gaussian,
    privacy_penalty_laplace,
    privatize,
    solve,
    survey_loss_bound,
    validate_dataset,
    validation_sample_size,
    verify_private_survey,
    verify_survey,
)


@pytest.mark.parametrize("kappa", [-1.0, math.nan, math.inf])
def test_kappa_must_be_finite_and_non_negative(kappa):
    with pytest.raises(ValueError, match="^kappa must be non-negative$"):
        TestConfig(kappa=kappa, tol=0.2, delta=0.1, bounds=ModelBounds(1.0, 1.0, 1.0))


def test_the_base_validation_source_draws_nothing():
    with pytest.raises(NotImplementedError):
        ValidationSource().draw(1, np.random.default_rng(0))


@pytest.mark.parametrize("decision, margin", [(Decision.REJECT, 0.0), (Decision.ACCEPT, 0.5)])
def test_verdict_decision_must_follow_the_margin(decision, margin):
    with pytest.raises(ValueError, match="decision must be REJECT exactly when margin > 0"):
        Verdict(decision=decision, t_used=1, l_hat=0.0, gamma_s=0.0, gamma_d=0.0, j_hat=0.0,
                theta_hat=np.zeros(1), margin=margin)


class TestValidationSampleSize:
    def test_constructed_exact_log(self):
        # delta = 4/e^2 makes ln(4/delta) exactly 2
        assert validation_sample_size(1.0, 4.0 / math.e**2, 1.0) == 1

    def test_reference_budget(self):
        assert validation_sample_size(1.0, 0.1, 0.1) == 185

    def test_quadratic_in_tau(self):
        # pre-ceiling value is exactly 4x the previous one
        assert validation_sample_size(2.0, 0.1, 0.1) == 738

    def test_range_checks(self):
        with pytest.raises(ValueError):
            validation_sample_size(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            validation_sample_size(1.0, 0.1, 1.5)


class TestSurveyLossBound:
    UNIT = ModelBounds(1.0, 1.0, 1.0)

    def test_frozen_reference_value(self):
        # high-precision oracle: 0.5 + 8*sqrt(2 ln 20)/100 + 3*sqrt(ln 40/20000)
        got = survey_loss_bound(0.5, 10_000, 10, self.UNIT, 0.1)
        assert got == pytest.approx(0.7365627919266840, rel=1e-12)

    def test_limit_is_empirical_loss(self):
        got = survey_loss_bound(0.5, 10**30, 10, self.UNIT, 0.1)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_single_row_value(self):
        # 8 sqrt(2 ln 2) + 3 sqrt(ln 4 / 2) = 11.91694401359689
        got = survey_loss_bound(0.0, 1, 1, self.UNIT, 1.0)
        assert got == pytest.approx(11.91694401359689, rel=1e-12)

    def test_never_below_empirical_loss(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            l_hat = float(rng.uniform(0, 5))
            m = int(rng.integers(1, 10**6))
            d = int(rng.integers(1, 100))
            b = ModelBounds(*rng.uniform(0.1, 4, size=3))
            assert survey_loss_bound(l_hat, m, d, b, 0.1) >= l_hat

    @pytest.mark.parametrize("l_hat, m, d, delta, message", [
        (-0.1, 10, 2, 0.1, "l_hat must be non-negative"),
        (0.1, 0, 2, 0.1, "m must be an integer >= 1"),
        (0.1, 10, 0, 0.1, "d must be an integer >= 1"),
        (0.1, 10, 2, 0.0, r"delta must be in \(0, 1\]"),
        (0.1, 10, 2, 1.5, r"delta must be in \(0, 1\]"),
    ])
    def test_argument_checks(self, l_hat, m, d, delta, message):
        with pytest.raises(ValueError, match=message):
            survey_loss_bound(l_hat, m, d, self.UNIT, delta)


class TestPrivacyPenalties:
    def test_gaussian_frozen_value(self):
        # oracle: (4/3) sqrt(3 ln 3) = 2.420591981223447
        b = ModelBounds(1.0, 1.0, 1.0)
        got = privacy_penalty_gaussian(b, 1.0, 1.0 / math.e, 1.0, 9, 3)
        assert got == pytest.approx(2.420591981223447, rel=1e-12)

    def test_gaussian_vanishes_as_beta_to_one(self):
        b = ModelBounds(1.0, 1.0, 1.0)
        assert privacy_penalty_gaussian(b, 1.0, 1 - 1e-12, 1.0, 9, 3) < 1e-5
        assert privacy_penalty_gaussian(b, 1.0, 0.5, 1.0, 10**18, 3) < 1e-6

    def test_laplace_constructed_radical(self):
        b = ModelBounds(1.0, 1.0, 1.0)
        # 2 / lambda_min * sqrt(d ln d / m) = 2 at m = d = 3, lambda_min = sqrt(ln 3).
        got = privacy_penalty_laplace(b, 0.5, 1.0, math.sqrt(math.log(3)), 3, 3)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_laplace_alpha_saturates(self):
        b = ModelBounds(1.0, 1.0, 1.0)
        hi = privacy_penalty_laplace(b, 10**9, 1.0, 1.0, 100, 3)
        hi2 = privacy_penalty_laplace(b, 10**12, 1.0, 1.0, 100, 3)
        assert hi == pytest.approx(hi2, rel=1e-12)
        assert privacy_penalty_laplace(b, 0.5, 1.0, 1.0, 10**18, 3) < 1e-6

    @pytest.mark.parametrize("lambda_min", [0.0, -1.0, math.nan, math.inf])
    def test_lambda_min_must_be_positive_and_finite(self, lambda_min):
        b = ModelBounds(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^lambda_min must be positive$"):
            privacy_penalty_laplace(b, 1.0, 1.0, lambda_min, 100, 3)
        with pytest.raises(ValueError, match="^lambda_min must be positive$"):
            privacy_penalty_gaussian(b, 1.0, 0.5, lambda_min, 100, 3)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_gaussian_beta_must_lie_in_the_open_unit_interval(self, beta):
        b = ModelBounds(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^beta must be in \(0, 1\)$"):
            privacy_penalty_gaussian(b, 1.0, beta, 1.0, 100, 3)

    @pytest.mark.filterwarnings("error")
    def test_dimension_one_is_zero_with_warning(self):
        # The zero penalty is a verdict note, not a warning.
        b = ModelBounds(1.0, 1.0, 1.0)
        assert privacy_penalty_laplace(b, 1.0, 1.0, 1.0, 10, 1) == 0.0
        assert privacy_penalty_gaussian(b, 1.0, 0.5, 1.0, 10, 1) == 0.0
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=500, d=1)
        for privacy in (PrivacyParams(alpha=2.0), PrivacyParams(alpha=0.5, beta=0.1)):
            pds = _publish(survey, privacy, RngSpec(3))
            v = verify_private_survey(pds, sampler, cfg, RngSpec(3), lambda_min=1.0)
            assert v.j_hat == 0.0
            assert "privacy penalty is 0 at d = 1 because the ln d factor vanishes" in v.notes


def _survey_and_cfg(mu, m=4000, d=8, seed=0, tol=0.2, kappa=0.0, delta=0.1):
    survey, theta_s, theta_star, sampler = gen_synthetic1(d, m, mu, RngSpec(seed))
    cfg = TestConfig(kappa=kappa, tol=tol, delta=delta, bounds=survey.bounds)
    return survey, sampler, cfg, theta_star


def _publish(survey, privacy, rng):
    """``survey`` published as ``survkit publish`` does it: noise calibrated
    to the survey's zeta, drawn from ``rng``."""
    spec = make_noise_spec(privacy, survey.bounds.zeta, survey.dim)
    return privatize(survey, spec, privacy, rng)


class TestVerifySurvey:
    def test_stub_matching_scale_accepts(self):
        survey, _, cfg, _ = _survey_and_cfg(0.0)
        t = validation_sample_size(cfg.bounds.tau, cfg.delta, cfg.tol)
        idx = np.arange(t) % survey.size
        replay = PooledSource(survey.x[idx], survey.y[idx])
        verdict = verify_survey(survey, replay, cfg, RngSpec(1))
        # gamma_d ~= l_hat <= gamma_s, so margin <= -kappa - tol < 0
        assert verdict.decision is Decision.ACCEPT
        assert verdict.margin < 0

    def test_one_sided_small_validation_loss_always_accepts(self):
        survey, _, cfg, _ = _survey_and_cfg(0.0)
        t = validation_sample_size(cfg.bounds.tau, cfg.delta, cfg.tol)
        zeros = PooledSource(np.zeros((t, survey.dim)), np.zeros(t))
        verdict = verify_survey(survey, zeros, cfg, RngSpec(1))
        assert verdict.decision is Decision.ACCEPT

    def test_warnings_point_at_the_caller(self):
        # Every tester diagnostic is a verdict note; the only RuntimeWarning
        # is the Gaussian calibration's, attributed to make_noise_spec's caller:
        # the publication step (_publish here), never the credibility test.
        survey, _, cfg, _ = _survey_and_cfg(0.0)
        t = validation_sample_size(cfg.bounds.tau, cfg.delta, cfg.tol)

        far_pool = PooledSource(np.zeros((t, survey.dim)), np.full(t, 2 * cfg.bounds.tau))

        with pytest.warns(RuntimeWarning) as rec:
            laplace = _publish(survey, PrivacyParams(alpha=2.0), RngSpec(1))
            gaussian = _publish(survey, PrivacyParams(alpha=2.0, beta=0.1), RngSpec(1))
            make_noise_spec(PrivacyParams(alpha=2.0, beta=0.1), zeta=1.0, d=2)
        # Outside the block any warning is an error (pyproject's filterwarnings).
        verdicts = [
            verify_survey(survey, far_pool, cfg, RngSpec(1)),
            verify_private_survey(laplace, far_pool, cfg, RngSpec(1), lambda_min=1.0),
            verify_private_survey(gaussian, far_pool, cfg, RngSpec(1)),
        ]
        for v in verdicts:
            assert any(n.startswith("radius") for n in v.notes)
            assert f"{t} of {t} validation responses exceed tau = {cfg.bounds.tau:g}" in v.notes
        assert not any("lambda_min" in n for n in verdicts[1].notes)
        assert any(n.startswith("lambda_min estimated") for n in verdicts[2].notes)
        assert len(rec) == 2
        assert all(str(w.message).startswith("Gaussian mechanism calibration") for w in rec)
        assert all(w.filename == __file__ for w in rec)

    def test_decision_is_pure_function_of_margin(self):
        survey, sampler, cfg, _ = _survey_and_cfg(1.0, tol=0.1)
        v = verify_survey(survey, sampler, cfg, RngSpec(3))
        expect = math.sqrt(v.gamma_d) - math.sqrt(v.gamma_s) - cfg.kappa - cfg.tol
        assert v.margin == pytest.approx(expect, rel=1e-12)
        assert (v.decision is Decision.REJECT) == (v.margin > 0)

    def test_bit_reproducible(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.5)
        a = verify_survey(survey, sampler, cfg, RngSpec(11))
        b = verify_survey(survey, sampler, cfg, RngSpec(11))
        assert a.gamma_d == b.gamma_d and a.margin == b.margin
        assert np.array_equal(a.theta_hat, b.theta_hat)

    def test_increasing_slack_never_flips_accept_to_reject(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.8, tol=0.1)
        base = verify_survey(survey, sampler, cfg, RngSpec(5))
        for kappa, tol in [(0.5, 0.1), (0.0, 0.5), (1.0, 1.0)]:
            cfg2 = TestConfig(kappa=kappa, tol=tol, delta=cfg.delta, bounds=cfg.bounds)
            v2 = verify_survey(survey, sampler, cfg2, RngSpec(5))
            assert v2.margin < base.margin
            if base.decision is Decision.ACCEPT:
                assert v2.decision is Decision.ACCEPT

    def test_enough_slack_flips_reject_to_accept(self):
        survey, sampler, cfg, _ = _survey_and_cfg(2.0, tol=0.1)
        base = verify_survey(survey, sampler, cfg, RngSpec(6))
        assert base.decision is Decision.REJECT
        # margin is linear in kappa, so adding it as extra slack must flip
        cfg2 = TestConfig(
            kappa=cfg.kappa + base.margin + 0.01, tol=cfg.tol,
            delta=cfg.delta, bounds=cfg.bounds,
        )
        v2 = verify_survey(survey, sampler, cfg2, RngSpec(6))
        assert v2.decision is Decision.ACCEPT

    def test_gamma_s_at_least_l_hat(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.0)
        v = verify_survey(survey, sampler, cfg, RngSpec(2))
        assert v.gamma_s >= v.l_hat
        assert v.j_hat == 0.0

    def test_t_used_matches_budget_formula(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.0)
        v = verify_survey(survey, sampler, cfg, RngSpec(2))
        assert v.t_used == validation_sample_size(cfg.bounds.tau, cfg.delta, cfg.tol)

    @pytest.mark.filterwarnings("error")
    def test_oversized_radius_warns_and_is_noted(self):
        # Noted in the verdict, and not warned.
        survey, sampler, cfg, _ = _survey_and_cfg(0.0)
        cap = cfg.bounds.tau / (cfg.bounds.zeta * math.sqrt(survey.dim + 1))
        assert cfg.bounds.radius > cap
        v = verify_survey(survey, sampler, cfg, RngSpec(2))
        assert v.notes[0] == (
            f"radius {cfg.bounds.radius:g} exceeds tau/(zeta*sqrt(d+1)) = {cap:g}; "
            "predictions may leave [-tau, tau] and the validation-accuracy guarantee degrades"
        )

    def test_exhausted_pool_raises(self):
        survey, _, cfg, _ = _survey_and_cfg(0.0)
        pool = PooledSource(survey.x[:3], survey.y[:3])
        t = validation_sample_size(cfg.bounds.tau, cfg.delta, cfg.tol)
        with pytest.raises(InsufficientValidationError,
                           match=f"^validation pool has 3 rows, need {t}$"):
            verify_survey(survey, pool, cfg, RngSpec(2))

    def test_shared_pool_gives_equal_verdicts(self):
        # Every draw is the pool's first t rows, so runs that share one
        # source see the same validation batch.
        survey, sampler, cfg, _ = _survey_and_cfg(0.5)
        t = validation_sample_size(cfg.bounds.tau, cfg.delta, cfg.tol)
        x, y = sampler.draw(t + 1, np.random.default_rng(4))
        pool = PooledSource(x, y)
        a = verify_survey(survey, pool, cfg, RngSpec(3))
        b = verify_survey(survey, pool, cfg, RngSpec(3))
        assert (a.gamma_d, a.margin, a.decision) == (b.gamma_d, b.margin, b.decision)
        first_t = verify_survey(survey, PooledSource(x[:t], y[:t]), cfg, RngSpec(3))
        assert a.gamma_d == first_t.gamma_d

    def test_out_of_bounds_survey_rejected(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.0)
        tight = TestConfig(
            kappa=0.0, tol=0.2, delta=0.1,
            bounds=ModelBounds(1e-6, cfg.bounds.tau, cfg.bounds.radius),
        )
        message = "survey violates the configured bounds; validate or clip first"
        with pytest.raises(ValueError, match=message):
            verify_survey(survey, sampler, tight, RngSpec(2))
        # A private survey's covariates meet zeta when it is published.
        with pytest.raises(ValueError, match="covariates exceed zeta = 1e-06"):
            _publish(Dataset(survey.x, survey.y, tight.bounds), PrivacyParams(alpha=1.0),
                     RngSpec(2))
        low_tau = TestConfig(kappa=0.0, tol=0.2, delta=0.1, bounds=ModelBounds(
            cfg.bounds.zeta, float(np.abs(survey.y).max()) / 2, cfg.bounds.radius))
        with pytest.raises(ValueError, match=message):
            verify_survey(survey, sampler, low_tau, RngSpec(2))
        pds = _publish(survey, PrivacyParams(alpha=1.0), RngSpec(2))
        with pytest.raises(ValueError, match=message):
            verify_private_survey(pds, sampler, low_tau, RngSpec(2))

    def test_close_models_accept_majority(self):
        hits = 0
        for seed in range(30):
            survey, sampler, cfg, _ = _survey_and_cfg(0.0, seed=seed)
            v = verify_survey(survey, sampler, cfg, RngSpec(seed, 1))
            hits += v.decision is Decision.ACCEPT
        assert hits >= 27

    def test_far_models_reject_majority(self):
        hits = 0
        for seed in range(30):
            survey, sampler, cfg, _ = _survey_and_cfg(2.0, seed=seed)
            v = verify_survey(survey, sampler, cfg, RngSpec(seed, 1))
            hits += v.decision is Decision.REJECT
        assert hits >= 27

    @pytest.mark.filterwarnings("error")
    def test_out_of_range_validation_responses_warn(self):
        # Noted in the verdict, and not warned.
        survey, sampler, cfg, _ = _survey_and_cfg(2.0)
        v = verify_survey(survey, sampler, cfg, RngSpec(0, 1))
        noted = [n for n in v.notes if "validation responses exceed tau" in n]
        assert len(noted) == 1
        over, of_t = noted[0].split(" validation")[0].split(" of ")
        assert 0 < int(over) <= int(of_t) == v.t_used


class TestVerifyPrivateSurvey:
    def test_reduces_to_public_when_noise_and_penalty_vanish(self):
        # At d = 1 the penalty is exactly 0 (the ln d factor vanishes).
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=2000, d=1)
        pub = verify_survey(survey, sampler, cfg, RngSpec(4))
        pds = _publish(survey, PrivacyParams(alpha=1e9), RngSpec(4))
        priv = verify_private_survey(pds, sampler, cfg, RngSpec(4), lambda_min=1.0)
        assert priv.j_hat == 0.0
        assert priv.decision == pub.decision
        assert priv.gamma_s == pytest.approx(pub.gamma_s, rel=1e-4)
        assert priv.gamma_d == pytest.approx(pub.gamma_d, rel=1e-6)

    @pytest.mark.parametrize("lambda_min", [None, 1.0])
    def test_fit_is_the_solver_fit_on_the_privatized_survey(self, lambda_min):
        # The plain constrained fit on the bundle's corrected moments, with
        # the solver's own step: bit for bit.
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=3000)
        assert validate_dataset(survey).ok
        pds = _publish(survey, PrivacyParams(alpha=2.0), RngSpec(4))
        v = verify_private_survey(pds, sampler, cfg, RngSpec(4), lambda_min=lambda_min)
        config = SolverConfig(mode="constrained", radius=cfg.bounds.radius)
        assert np.array_equal(v.theta_hat, solve(corrected_moments(pds), config).theta_hat)

    def test_private_close_accepts_majority(self):
        hits = 0
        for seed in range(10):
            survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=20_000, seed=seed)
            pds = _publish(survey, PrivacyParams(alpha=2.0), RngSpec(seed, 1))
            v = verify_private_survey(pds, sampler, cfg, RngSpec(seed, 1), lambda_min=1.0)
            hits += v.decision is Decision.ACCEPT
        assert hits >= 9

    def test_private_far_rejects_majority(self):
        hits = 0
        for seed in range(10):
            survey, sampler, cfg, _ = _survey_and_cfg(2.0, m=20_000, seed=seed)
            pds = _publish(survey, PrivacyParams(alpha=2.0), RngSpec(seed, 1))
            v = verify_private_survey(pds, sampler, cfg, RngSpec(seed, 1), lambda_min=1.0)
            hits += v.decision is Decision.REJECT
        assert hits >= 9

    def test_gaussian_branch_used_when_beta_positive(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=2000)
        with pytest.warns(RuntimeWarning):  # from the calibration at alpha > 1
            pds = _publish(survey, PrivacyParams(alpha=2.0, beta=0.1), RngSpec(4))
        v = verify_private_survey(pds, sampler, cfg, RngSpec(4), lambda_min=1.0)
        b = cfg.bounds
        expect = privacy_penalty_gaussian(b, 2.0, 0.1, 1.0, survey.size, survey.dim)
        assert v.j_hat == pytest.approx(expect, rel=1e-12)

    def test_lambda_min_estimated_when_not_declared(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=5000)
        pds = _publish(survey, PrivacyParams(alpha=4.0), RngSpec(4))
        v = verify_private_survey(pds, sampler, cfg, RngSpec(4))
        assert any("lambda_min estimated" in n for n in v.notes)
        assert v.j_hat > 0

    def test_loss_bound_dominates_empirical_loss_plus_penalty(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=5000)
        pds = _publish(survey, PrivacyParams(alpha=2.0), RngSpec(4))
        v = verify_private_survey(pds, sampler, cfg, RngSpec(4), lambda_min=1.0)
        assert v.gamma_s >= v.l_hat + v.j_hat
        assert v.t_used == validation_sample_size(cfg.bounds.tau, cfg.delta, cfg.tol)

    def test_survey_without_privacy_parameters_rejected(self):
        # gen_synthetic2 injects its covariate noise directly: no budget, no penalty.
        _, noisy, _ = gen_synthetic2(4, 300, NoiseKind.LAPLACE, RngSpec(5))
        assert noisy.privacy is None
        cfg = TestConfig(kappa=0.0, tol=0.2, delta=0.1, bounds=ModelBounds(10.0, 100.0, 1.0))
        pool = PooledSource(np.zeros((200, 4)), np.zeros(200))
        with pytest.raises(ValueError, match="^private survey has no privacy parameters"):
            verify_private_survey(noisy, pool, cfg, RngSpec(5), lambda_min=1.0)

    def test_clear_survey_rejected(self):
        # Publication happens before the test, never inside it.
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=500)
        with pytest.raises(TypeError, match="^expected a published PrivateDataset, got Dataset$"):
            verify_private_survey(survey, sampler, cfg, RngSpec(4), lambda_min=1.0)

    def test_published_survey_refused_by_the_public_test(self):
        # Each test reads its own survey type: a bundle given to verify_survey
        # would otherwise run the private test under the public name.
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, d=5, m=2000)
        pds = _publish(survey, PrivacyParams(alpha=2.0), RngSpec(3))
        with pytest.raises(TypeError, match="^expected a clear Dataset, got PrivateDataset$"):
            verify_survey(pds, sampler, cfg, RngSpec(4))

    def test_whole_record_bundle_verifies(self):
        # d times the per-coordinate Laplace scale; the penalty reads the
        # bundle's alpha, so j_hat is the per-coordinate bundle's.  Margin and
        # j_hat as the test gave them when it privatized the survey itself.
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=3000)
        whole = PrivacyParams(alpha=2.0, accounting=Accounting.WHOLE_RECORD)
        pds = _publish(survey, whole, RngSpec(4))
        assert pds.noise.scale == 2.0 * cfg.bounds.zeta * survey.dim / 2.0
        v = verify_private_survey(pds, sampler, cfg, RngSpec(4), lambda_min=1.0)
        per_coord = _publish(survey, PrivacyParams(alpha=2.0), RngSpec(4))
        assert v.j_hat == verify_private_survey(
            per_coord, sampler, cfg, RngSpec(4), lambda_min=1.0).j_hat
        assert v.j_hat == pytest.approx(4.765820686155563, rel=1e-12)
        assert v.margin == pytest.approx(-42.510581136415574, rel=1e-9)
        assert v.decision is Decision.ACCEPT

    def test_bundle_response_above_tau_rejected(self):
        survey, sampler, cfg, _ = _survey_and_cfg(0.0, m=1000)
        pds = _publish(survey, PrivacyParams(alpha=2.0), RngSpec(4))
        tau = float(np.abs(pds.y).max())
        at_tau = TestConfig(kappa=0.0, tol=0.2, delta=0.1,
                            bounds=ModelBounds(cfg.bounds.zeta, tau, cfg.bounds.radius))
        verify_private_survey(pds, sampler, at_tau, RngSpec(4), lambda_min=1.0)
        below = TestConfig(kappa=0.0, tol=0.2, delta=0.1,
                           bounds=ModelBounds(cfg.bounds.zeta, tau * 0.999, cfg.bounds.radius))
        with pytest.raises(ValueError, match="survey violates the configured bounds"):
            verify_private_survey(pds, sampler, below, RngSpec(4), lambda_min=1.0)
