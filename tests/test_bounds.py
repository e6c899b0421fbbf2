import math

import numpy as np
import pytest

from survkit import (
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
from survkit.bounds import LowerREParams

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


@pytest.mark.parametrize("value", [0.0, -2.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["zeta", "alpha"])
@pytest.mark.parametrize("call", [
    lambda zeta, alpha: min_samples_gaussian(UNIT_LAMBDA_MIN, zeta, alpha, 0.5, 3),
    lambda zeta, alpha: min_samples_laplace(UNIT_LAMBDA_MIN, zeta, alpha, 1.0, 3),
    lambda zeta, alpha: error_bound_gaussian(
        UNIT_SIGMA_EPS, UNIT_LAMBDA_MIN, zeta, alpha, 0.5, 1.0, 3, 100),
    lambda zeta, alpha: error_bound_laplace(
        UNIT_C_EPS, UNIT_LAMBDA_MIN, zeta, alpha, 1.0, 3, 100),
], ids=["min-samples-gaussian", "min-samples-laplace", "error-bound-gaussian",
        "error-bound-laplace"])
def test_zeta_and_alpha_must_be_finite_and_positive(call, name, value):
    args = {"zeta": 1.0, "alpha": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        call(**args)


# A valid call of every bound, by keyword.  Each float argument is one the
# function must check is finite.
_VALID_CALLS = {
    min_samples_gaussian: dict(lambda_min=1.0, zeta=1.0, alpha=1.0, beta=0.5, d=3, c=1.0),
    min_samples_laplace: dict(lambda_min=1.0, zeta=1.0, alpha=1.0, c_eps=1.0, d=3),
    error_bound_gaussian: dict(sigma_eps=0.5, lambda_min=1.0, zeta=1.0, alpha=1.0, beta=0.5,
                               radius=1.0, d=3, m=100.0, c2=1.0),
    error_bound_laplace: dict(c_eps=1.0, lambda_min=1.0, zeta=1.0, alpha=1.0, radius=1.0,
                              d=3, m=100.0, c2=1.0),
    lower_re_params: dict(lambda_min=1.0, c_max=1.0, m=100.0, d=3, c1=1.0),
    subweibull_right_tail: dict(n=10, t=0.5, alpha_shape=2.0, c_alpha=1.0,
                                sigma_minus_sq=1.0, beta_split=0.5),
    squared_subexp_tail: dict(n=10, t=0.5, c_x=1.0, c=1.0),
    one_sided_bernstein: dict(n=10, t=0.5, second_moment=1.0),
    matrix_deviation_bound: dict(n=10, d1=2, d2=2, c_max=1.0, t=0.5, c=1.0),
    matrix_deviation_level: dict(n=10, d=3, c_max=1.0, c1=1.0),
}
_FLOAT_ARGS = [(fn, name) for fn, kwargs in _VALID_CALLS.items()
               for name, value in kwargs.items() if isinstance(value, float)]


@pytest.mark.parametrize("fn", list(_VALID_CALLS), ids=lambda fn: fn.__name__)
def test_valid_calls_give_finite_non_negative_values(fn):
    out = fn(**_VALID_CALLS[fn])
    values = (out.alpha_ell, out.tau_md) if isinstance(out, LowerREParams) else (
        getattr(out, "value", out),)
    assert all(math.isfinite(v) and v >= 0 for v in values)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn, name", _FLOAT_ARGS,
                         ids=[f"{fn.__name__}-{name}" for fn, name in _FLOAT_ARGS])
def test_every_float_argument_must_be_finite(fn, name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        fn(**{**_VALID_CALLS[fn], name: value})


@pytest.mark.parametrize("fn, name, value", [
    (error_bound_gaussian, "radius", 0.0), (error_bound_laplace, "radius", -1.0),
    (error_bound_gaussian, "m", 0.0), (error_bound_laplace, "m", -1.0),
    (lower_re_params, "m", 0.0), (min_samples_laplace, "c_eps", 0.0),
    (min_samples_laplace, "c_eps", -5.0), (min_samples_gaussian, "c", -1.0),
    (squared_subexp_tail, "c", -1.0), (matrix_deviation_bound, "c", -1.0),
    (lower_re_params, "c1", -1.0), (matrix_deviation_level, "c1", -1.0),
    (error_bound_gaussian, "c2", -1.0), (error_bound_laplace, "c2", -1.0),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_scales_and_constants_have_a_sign(fn, name, value):
    kind = "non-negative" if name in ("c", "c1", "c2") else "positive"
    with pytest.raises(ValueError, match=f"{name} must be {kind}"):
        fn(**{**_VALID_CALLS[fn], name: value})


# Bad domain inputs to each bound, with the message each raises.  Checks run
# in a fixed order, so of two bad arguments the first one checked is named.
_DOMAIN_ERRORS = [
    (min_samples_gaussian, dict(d=1), "d must be an integer >= 2"),
    (min_samples_gaussian, dict(beta=0.0), "beta must be in (0, 1)"),
    (min_samples_gaussian, dict(beta=1.0), "beta must be in (0, 1)"),
    (min_samples_gaussian, dict(beta=1.0, d=1), "beta must be in (0, 1)"),
    (min_samples_gaussian, dict(c=-1.0, beta=0.0), "c must be non-negative"),
    (min_samples_laplace, dict(d=1), "d must be an integer >= 2"),
    (min_samples_laplace, dict(c_eps=0.0, d=1), "c_eps must be positive"),
    (error_bound_gaussian, dict(d=1), "d must be an integer >= 2"),
    (error_bound_gaussian, dict(beta=0.0), "beta must be in (0, 1)"),
    (error_bound_gaussian, dict(beta=1.0), "beta must be in (0, 1)"),
    (error_bound_gaussian, dict(beta=0.0, d=1), "beta must be in (0, 1)"),
    (error_bound_gaussian, dict(m=0.0, beta=1.0), "m must be positive"),
    (error_bound_laplace, dict(d=1), "d must be an integer >= 2"),
    (error_bound_laplace, dict(c2=-1.0, d=1), "c2 must be non-negative"),
    (lower_re_params, dict(d=1), "d must be an integer >= 2"),
    (lower_re_params, dict(c_max=math.nan, d=1), "c_max must be finite"),
    (subweibull_right_tail, dict(beta_split=1.0), "beta_split must be in (0, 1)"),
    (subweibull_right_tail, dict(beta_split=0.0), "beta_split must be in (0, 1)"),
    (subweibull_right_tail, dict(alpha_shape=1.0, beta_split=1.0), "alpha_shape must be > 1"),
    (subweibull_right_tail, dict(beta_split=1.0, c_alpha=0.0), "beta_split must be in (0, 1)"),
    (squared_subexp_tail, dict(c_x=0.5), "c_x must be >= 1"),
    (squared_subexp_tail, dict(n=0, c_x=0.5), "n must be an integer >= 1"),
    (squared_subexp_tail, dict(c_x=0.5, c=-1.0), "c must be non-negative"),
    (one_sided_bernstein, dict(n=0), "n must be an integer >= 1"),
    (one_sided_bernstein, dict(n=0, t=math.inf), "n must be an integer >= 1"),
    (matrix_deviation_bound, dict(d1=0), "d1 must be an integer >= 1"),
    (matrix_deviation_bound, dict(d2=0, c=-1.0), "c must be non-negative"),
    (matrix_deviation_level, dict(d=1), "d must be an integer >= 2"),
    (matrix_deviation_level, dict(d=1, c1=-1.0), "c1 must be non-negative"),
]
# The combined checks of the tails, one argument at a time.  n * t > 0 let
# n = t = -1 through, and every combined check let a NaN count through.
_DOMAIN_ERRORS += [
    (subweibull_right_tail, dict(n=0), "n must be an integer >= 1"),
    (subweibull_right_tail, dict(t=0.0), "t must be positive"),
    (subweibull_right_tail, dict(n=-1, t=-1.0), "n must be an integer >= 1"),
    (subweibull_right_tail, dict(t=0.0, sigma_minus_sq=-1.0),
     "sigma_minus_sq must be non-negative"),
    (squared_subexp_tail, dict(t=0.0), "t must be positive"),
    (squared_subexp_tail, dict(n=0, t=0.0), "t must be positive"),
    (one_sided_bernstein, dict(t=-0.5), "t must be non-negative"),
    (one_sided_bernstein, dict(second_moment=0.0), "second_moment must be positive"),
    (one_sided_bernstein, dict(t=-0.5, second_moment=0.0), "t must be non-negative"),
    (matrix_deviation_bound, dict(n=0), "n must be an integer >= 1"),
    (matrix_deviation_bound, dict(d2=0), "d2 must be an integer >= 1"),
    (matrix_deviation_bound, dict(c_max=0.0), "c_max must be positive"),
    (matrix_deviation_bound, dict(t=-0.5), "t must be non-negative"),
    (matrix_deviation_bound, dict(d1=0, t=-0.5), "t must be non-negative"),
    (matrix_deviation_bound, dict(d2=0, c_max=0.0), "d2 must be an integer >= 1"),
    (matrix_deviation_level, dict(n=0), "n must be an integer >= 1"),
    (matrix_deviation_level, dict(c_max=0.0), "c_max must be positive"),
    (matrix_deviation_level, dict(n=0, d=1), "n must be an integer >= 1"),
    (matrix_deviation_level, dict(d=1, c_max=0.0), "d must be an integer >= 2"),
    (one_sided_bernstein, dict(n=math.nan), "n must be an integer >= 1"),
    (matrix_deviation_bound, dict(n=math.nan), "n must be an integer >= 1"),
    (matrix_deviation_level, dict(d=math.nan), "d must be an integer >= 2"),
]
# The CLI parses --d as an int, but a library caller may pass any number.
_DOMAIN_ERRORS += [(fn, dict(d=d), "d must be an integer >= 2") for d in (math.nan, math.inf)
                   for fn in (min_samples_gaussian, min_samples_laplace, error_bound_gaussian,
                              error_bound_laplace, lower_re_params)]


def test_every_bound_has_domain_cases():
    assert {fn for fn, _, _ in _DOMAIN_ERRORS} == set(_VALID_CALLS)


@pytest.mark.parametrize("fn, bad, message", _DOMAIN_ERRORS, ids=[
    f"{fn.__name__}-{'-'.join(f'{k}={v}' for k, v in bad.items())}"
    for fn, bad, _ in _DOMAIN_ERRORS])
def test_domain_errors_keep_their_messages_and_order(fn, bad, message):
    with pytest.raises(ValueError) as err:
        fn(**{**_VALID_CALLS[fn], **bad})
    assert str(err.value) == message


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

    def test_numpy_counts_do_not_wrap(self):
        # d1 d2 = 2^64, past any numpy integer: clamped to 1, not wrapped to 0.
        r = matrix_deviation_bound(1, np.int64(2**32), np.int64(2**32), 1.0, 0.0)
        assert r == matrix_deviation_bound(1, 2**32, 2**32, 1.0, 0.0)
        assert r.value == 1.0 and r.vacuous

    def test_level_constructed_to_one(self):
        # c_max sqrt(ln d / n) = 1 at n = 4, d = 3, c_max = 2 / sqrt(ln 3).
        level = matrix_deviation_level(4, 3, 2.0 / math.sqrt(math.log(3)))
        assert level == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_t_and_n(self):
        vals = [matrix_deviation_bound(50, 2, 3, 1.0, t).value for t in np.linspace(0, 2, 15)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        vals = [matrix_deviation_bound(n, 2, 3, 1.0, 0.5).value for n in (10, 100, 1000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def laplace_square_tail(n: int, t: float, c: float, trials: int, rng) -> tuple:
    """Monte-Carlo frequency of mean(X^2 - 2) > t over n Laplace(0, 1) draws,
    with ``squared_subexp_tail(n, t, 1, c)`` and its 3-sigma binomial slack:
    (frequency, bound, slack).  Trials are drawn in chunks of 200."""
    exceed = 0
    for done in range(0, trials, 200):
        k = min(200, trials - done)
        x = rng.laplace(size=k * n)
        exceed += int(np.count_nonzero((x * x - 2.0).reshape(k, n).mean(axis=1) > t))
    b = squared_subexp_tail(n, t, 1.0, c=c).value
    return exceed / trials, b, 3.0 * math.sqrt(b * (1.0 - b) / trials)


class TestEmpiricalTailCheck:
    def test_huge_t_passes_trivially(self):
        freq, bound, slack = laplace_square_tail(200, 50.0, 0.025, 100, np.random.default_rng(1))
        assert freq == 0.0 and freq <= bound + slack

    def test_valid_region_bound_holds(self):
        # t inside the validity region, c at the CLT calibration 1/(2 Var)
        assert all(squared_subexp_tail(10_000, 0.04, 1.0, c=0.025).side_conditions.values())
        freq, bound, slack = laplace_square_tail(
            10_000, 0.04, 0.025, 400, np.random.default_rng(3)
        )
        assert freq <= bound + slack
