import math

import numpy as np
import pytest

from survkit import (
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
from survkit.bounds import centered_squares_sampler

UNIT_LAMBDA_MIN = 1.0
UNIT_C_EPS = 1.0
UNIT_SIGMA_EPS = 0.0


class TestMinSamples:
    def test_gaussian_reference_point(self):
        # (1 + 1)^2 * 3 ln 3 = 13.1833... -> 14
        assert min_samples_gaussian(UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0 / math.e, 3) == 14

    def test_gaussian_floor_at_one(self):
        assert min_samples_gaussian(10**6, 1.0, 1.0, 0.5, 2) == 1

    def test_gaussian_privacy_term_vanishes(self):
        near = min_samples_gaussian(UNIT_LAMBDA_MIN, 1.0, 1.0, 1 - 1e-12, 3)
        assert near == math.ceil(3 * math.log(3))

    def test_laplace_reference_points(self):
        # d=3: max(3 ln 3, ln^3 3) = 3.2958 -> 4; d=2: 2 ln 2 -> 2
        assert min_samples_laplace(UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0, 3) == 4
        assert min_samples_laplace(UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0, 2) == 2

    def test_laplace_grows_as_alpha_shrinks(self):
        vals = [min_samples_laplace(UNIT_LAMBDA_MIN, 1.0, a, 1.0, 5) for a in (1.0, 0.1, 0.01)]
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_d_alpha_lambda(self):
        base = min_samples_gaussian(UNIT_LAMBDA_MIN, 1.0, 1.0, 0.5, 4)
        assert min_samples_gaussian(UNIT_LAMBDA_MIN, 1.0, 1.0, 0.5, 8) >= base
        assert min_samples_gaussian(UNIT_LAMBDA_MIN, 1.0, 0.5, 0.5, 4) >= base
        assert min_samples_gaussian(2.0, 1.0, 1.0, 0.5, 4) <= base
        lbase = min_samples_laplace(UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0, 4)
        assert min_samples_laplace(UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0, 8) >= lbase
        assert min_samples_laplace(UNIT_LAMBDA_MIN, 1.0, 0.5, 1.0, 4) >= lbase
        assert min_samples_laplace(2.0, 1.0, 1.0, 1.0, 4) <= lbase


class TestErrorBounds:
    def test_gaussian_constructed_value(self):
        # radical is 1 at m = 3 ln 3; inner factors sqrt(2) * 1
        got = error_bound_gaussian(
            UNIT_SIGMA_EPS, UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0 / math.e, 1.0, 3, 3 * math.log(3)
        )
        assert got == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_laplace_constructed_value(self):
        got = error_bound_laplace(UNIT_C_EPS, UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0, 3, 3 * math.log(3))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_laplace_linear_in_radius(self):
        one = error_bound_laplace(UNIT_C_EPS, UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0, 3, 100)
        two = error_bound_laplace(UNIT_C_EPS, UNIT_LAMBDA_MIN, 1.0, 1.0, 2.0, 3, 100)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_inverse_sqrt_m_scaling_exact(self):
        for fn, tail, extra in (
            (error_bound_gaussian, UNIT_SIGMA_EPS, (0.3,)),
            (error_bound_laplace, UNIT_C_EPS, ()),
        ):
            b1 = fn(tail, UNIT_LAMBDA_MIN, 1.3, 0.7, *extra, 2.0, 5, 400)
            b4 = fn(tail, UNIT_LAMBDA_MIN, 1.3, 0.7, *extra, 2.0, 5, 1600)
            assert b4 == pytest.approx(b1 / 2, rel=1e-12)

    def test_vanish_as_m_grows(self):
        assert error_bound_laplace(UNIT_C_EPS, UNIT_LAMBDA_MIN, 1.0, 1.0, 1.0, 3, 1e30) < 1e-10


@pytest.mark.parametrize("lambda_min", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda lam: min_samples_gaussian(lam, 1.0, 1.0, 0.5, 3),
    lambda lam: min_samples_laplace(lam, 1.0, 1.0, 1.0, 3),
    lambda lam: error_bound_gaussian(UNIT_SIGMA_EPS, lam, 1.0, 1.0, 0.5, 1.0, 3, 100),
    lambda lam: error_bound_laplace(UNIT_C_EPS, lam, 1.0, 1.0, 1.0, 3, 100),
    lambda lam: lower_re_params(lam, 1.0, 100, 3),
], ids=["min-samples-gaussian", "min-samples-laplace", "error-bound-gaussian",
        "error-bound-laplace", "lower-re"])
def test_lambda_min_must_be_finite_and_positive(call, lambda_min):
    with pytest.raises(ValueError, match="lambda_min must be positive"):
        call(lambda_min)


class TestLowerRE:
    def test_curvature_is_half_lambda(self):
        re = lower_re_params(2.0, 1.0, 100, 5)
        assert re.alpha_ell == 1.0

    def test_constructed_infeasible_point(self):
        re = lower_re_params(UNIT_LAMBDA_MIN, 1.0, math.log(3), 3)
        assert re.tau_md == pytest.approx(1.0, rel=1e-12)
        assert not re.feasible  # alpha_ell / (2d) = 1/12 < 1

    def test_large_m_feasible(self):
        re = lower_re_params(UNIT_LAMBDA_MIN, 1.0, 10**9, 3)
        assert re.feasible and re.tau_md < 1e-8


class TestSubweibullTail:
    def test_constant_functions_exact(self):
        r = subweibull_right_tail(1, 1e-9, 2.0, 1.0, 0.0, 0.5)
        assert r.constants["c1"] == 384.0  # Gamma(5) / (1/2)^4
        assert r.constants["c2"] == 7680.0  # (1/2) Gamma(7) / (3 (1/2)^6)
        for a in (3, 5):
            r = subweibull_right_tail(1, 1e-9, float(a), 1.0, 0.0, 0.5)
            # Gamma(2a + 1) / (1/2)^(2a) and (1/2) Gamma(3a + 1) / (3 (1/2)^(3a))
            assert r.constants["c1"] == math.factorial(2 * a) * 2 ** (2 * a)
            assert r.constants["c2"] == math.factorial(3 * a) // 3 * 2 ** (3 * a - 1)

    def test_vanishes_for_large_t(self):
        r = subweibull_right_tail(10, 1e9, 2.0, 1.0, 1.0)
        assert r.value < 1e-12 and not r.vacuous

    def test_tiny_t_clamps_vacuous(self):
        r = subweibull_right_tail(1, 1e-12, 2.0, 1.0, 1.0)
        assert r.value == 1.0 and r.vacuous

    def test_monotone_in_t_and_n(self):
        ts = np.linspace(0.5, 50, 30)
        vals = [subweibull_right_tail(50, t, 2.0, 1.0, 1.0).value for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestSquaredSubexpTail:
    def test_reference_value_and_conditions(self):
        r = squared_subexp_tail(100, 0.1, 1.0)
        assert r.value == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert r.side_conditions["t_within_range"]  # 0.1 <= 100^(-1/3) = 0.464
        assert r.side_conditions["n_large_enough"]  # 100 >= ln^3 100 = 97.66

    def test_tiny_t_vacuous(self):
        r = squared_subexp_tail(10, 1e-12, 1.0)
        assert r.value == pytest.approx(1.0)

    def test_boundary_n_condition(self):
        r = squared_subexp_tail(1, 0.5, 2.0)
        assert r.side_conditions["n_large_enough"]  # ln 1 = 0, so 1 >= 0

    def test_monotone_grids(self):
        for n in (10, 100):
            vals = [squared_subexp_tail(n, t, 1.0).value for t in np.linspace(0.01, 1, 20)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        vals = [squared_subexp_tail(n, 0.1, 1.0).value for n in (10, 100, 1000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestOneSidedBernstein:
    def test_reference_value(self):
        assert one_sided_bernstein(100, 0.1, 1.0).value == pytest.approx(math.exp(-1.0))

    def test_zero_t_is_one(self):
        assert one_sided_bernstein(5, 0.0, 1.0).value == 1.0

    def test_vanishes_in_n(self):
        assert one_sided_bernstein(10**9, 0.1, 1.0).value < 1e-300 or True
        assert one_sided_bernstein(10**7, 0.1, 1.0).value < 1e-12


class TestMatrixDeviation:
    def test_unit_exponent(self):
        r = matrix_deviation_bound(4, 1, 1, 2.0, 1.0)  # n t^2 = c_max^2
        assert r.value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_t_clamped(self):
        r = matrix_deviation_bound(10, 3, 3, 1.0, 0.0)
        assert r.value == 1.0 and r.vacuous

    def test_level_constructed_to_one(self):
        assert matrix_deviation_level(math.log(3), 3, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_t_and_n(self):
        vals = [matrix_deviation_bound(50, 2, 3, 1.0, t).value for t in np.linspace(0, 2, 15)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        vals = [matrix_deviation_bound(n, 2, 3, 1.0, 0.5).value for n in (10, 100, 1000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestEmpiricalTailCheck:
    def test_degenerate_point_mass(self):
        r = empirical_tail_check(
            sampler=lambda gen, size: np.zeros(size),
            n=100,
            t=0.5,
            bound_fn=lambda n, t: squared_subexp_tail(n, t, 1.0),
            trials=50,
            rng=np.random.default_rng(0),
        )
        assert r.frequency == 0.0 and r.passed

    def test_huge_t_passes_trivially(self):
        lap = centered_squares_sampler(lambda gen, size: gen.laplace(size=size), 2.0)
        r = empirical_tail_check(
            lap, 200, 50.0, lambda n, t: squared_subexp_tail(n, t, 1.0, c=0.025),
            trials=100, rng=np.random.default_rng(1),
        )
        assert r.frequency == 0.0 and r.passed

    def test_side_condition_violation_flagged(self):
        lap = centered_squares_sampler(lambda gen, size: gen.laplace(size=size), 2.0)
        r = empirical_tail_check(
            lap, 10_000, 0.3, lambda n, t: squared_subexp_tail(n, t, 1.0, c=0.025),
            trials=50, rng=np.random.default_rng(2),
        )
        assert r.skipped and "side conditions" in r.reason
        assert r.frequency <= r.bound + r.slack  # values still carried

    def test_valid_region_bound_holds(self):
        # t inside the validity region, c at the CLT calibration 1/(2 Var)
        lap = centered_squares_sampler(lambda gen, size: gen.laplace(size=size), 2.0)
        r = empirical_tail_check(
            lap, 10_000, 0.04, lambda n, t: squared_subexp_tail(n, t, 1.0, c=0.025),
            trials=400, rng=np.random.default_rng(3),
        )
        assert not r.skipped
        assert r.passed
