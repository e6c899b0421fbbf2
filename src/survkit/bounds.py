"""Evaluable forms of the sample-size, estimation-error, and tail bounds.

These functions turn the guarantees backing the solver and the tester into
numbers: minimum sample counts for the two privacy regimes, estimation-error
bound curves for plot overlays, the restricted-eigenvalue curvature pair,
and the concentration bounds (sub-Weibull right tail, squared
sub-exponential two-sided tail, one-sided Bernstein, random-matrix
deviation) that drive them.

Every input is a plain number named as its ``survkit bounds`` flag, and
each function checks only the numbers it reads.  Every universal constant
that theory leaves unspecified defaults to 1.0 and is a keyword argument;
each probability-bound result records the constants used, whether the
stated side conditions hold, and whether the value was clamped at 1 (a
probability bound above 1 is vacuous).  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class LowerREParams:
    """Restricted-eigenvalue curvature alpha_ell and tolerance tau_md.

    The estimation guarantees need tau_md <= alpha_ell / (2 d); ``feasible``
    reports whether that holds.
    """

    alpha_ell: float
    tau_md: float
    feasible: bool


@dataclass(frozen=True)
class BoundResult:
    """A probability bound value with its bookkeeping.

    ``value`` is clamped to [0, 1]; ``vacuous`` flags clamping.
    ``side_conditions`` maps named validity conditions to booleans.
    """

    value: float
    vacuous: bool
    side_conditions: dict[str, bool] = field(default_factory=dict)
    constants: dict[str, float] = field(default_factory=dict)

    @property
    def conditions_ok(self) -> bool:
        return all(self.side_conditions.values())


def _clamp(raw: float, side_conditions=None, constants=None) -> BoundResult:
    v = min(max(raw, 0.0), 1.0)
    return BoundResult(
        value=v,
        vacuous=raw > 1.0,
        side_conditions=dict(side_conditions or {}),
        constants=dict(constants or {}),
    )


def _check_lambda_min(lambda_min: float) -> None:
    """lambda_min (smallest clean-covariance eigenvalue) must be finite and > 0."""
    if not (math.isfinite(lambda_min) and lambda_min > 0):
        raise ValueError("lambda_min must be positive")


def min_samples_gaussian(
    lambda_min: float, zeta: float, alpha: float, beta: float, d: int, c: float = 1.0
) -> int:
    """Sample count after which the Gaussian-noise error bound applies.

    ceil of max( c / lambda_min^2 * (zeta^2 + zeta^2 ln(1/beta)/alpha^2)^2
    * d ln d, 1 ).
    """
    _check_lambda_min(lambda_min)
    if not (0 < beta < 1):
        raise ValueError("beta must lie in (0, 1)")
    if d < 2:
        raise ValueError("d must be >= 2")
    inner = zeta * zeta + zeta * zeta * math.log(1.0 / beta) / (alpha * alpha)
    val = c / lambda_min**2 * inner * inner * d * math.log(d)
    return math.ceil(max(val, 1.0))


def min_samples_laplace(
    lambda_min: float, zeta: float, alpha: float, c_eps: float, d: int
) -> int:
    """Sample count after which the Laplace-noise error bound applies.

    With M = max(zeta/alpha, zeta^2, c_eps): ceil of
    max( max(M / lambda_min, 1) * d ln d,  M * ln^3 d ).
    """
    _check_lambda_min(lambda_min)
    if d < 2:
        raise ValueError("d must be >= 2")
    big_m = max(zeta / alpha, zeta * zeta, c_eps)
    ld = math.log(d)
    val = max(max(big_m / lambda_min, 1.0) * d * ld, big_m * ld**3)
    return math.ceil(val)


def error_bound_gaussian(
    sigma_eps: float,
    lambda_min: float,
    zeta: float,
    alpha: float,
    beta: float,
    radius: float,
    d: int,
    m: float,
    c2: float = 1.0,
) -> float:
    """Coefficient-error bound under Gaussian privatization noise.

    c2 * zeta * sqrt(ln(1/beta)/alpha + 1) * (zeta sqrt(ln(1/beta))/alpha
    + sigma_eps) / lambda_min * radius * sqrt(d ln d / m), where sigma_eps is
    the subgaussian regression-noise sd and ``radius`` bounds the true
    coefficient norm.
    """
    if sigma_eps < 0:
        raise ValueError("sigma_eps must be non-negative")
    _check_lambda_min(lambda_min)
    if not (0 < beta < 1):
        raise ValueError("beta must lie in (0, 1)")
    if d < 2 or m <= 0:
        raise ValueError("need d >= 2 and m > 0")
    lb = math.log(1.0 / beta)
    lead = zeta * math.sqrt(lb / alpha + 1.0) * (zeta * math.sqrt(lb) / alpha + sigma_eps)
    return c2 * lead / lambda_min * radius * math.sqrt(d * math.log(d) / m)


def error_bound_laplace(
    c_eps: float,
    lambda_min: float,
    zeta: float,
    alpha: float,
    radius: float,
    d: int,
    m: float,
    c2: float = 1.0,
) -> float:
    """Coefficient-error bound under Laplace privatization noise.

    c2 / lambda_min * max(zeta/alpha, zeta^2, c_eps) * radius
    * sqrt(d ln d / m), where c_eps is the sub-exponential regression-noise
    tail scale.  The covariate and privatization-noise tails need no scale
    of their own: zeta^2 and zeta/alpha in the max express them.
    """
    if c_eps <= 0:
        raise ValueError("c_eps must be positive")
    _check_lambda_min(lambda_min)
    if d < 2 or m <= 0:
        raise ValueError("need d >= 2 and m > 0")
    big_m = max(zeta / alpha, zeta * zeta, c_eps)
    return c2 / lambda_min * big_m * radius * math.sqrt(d * math.log(d) / m)


def lower_re_params(
    lambda_min: float, c_max: float, m: float, d: int, c1: float = 1.0
) -> LowerREParams:
    """Restricted-eigenvalue pair for the corrected Gram matrix.

    alpha_ell = lambda_min / 2 and
    tau_md = c1 * lambda_min * max(c_max^2 / lambda_min^2, 1) * ln d / m,
    feasible iff tau_md <= alpha_ell / (2 d).
    """
    _check_lambda_min(lambda_min)
    if d < 2 or m <= 0:
        raise ValueError("need d >= 2 and m > 0")
    lam = lambda_min
    alpha_ell = lam / 2.0
    tau_md = c1 * lam * max(c_max * c_max / (lam * lam), 1.0) * math.log(d) / m
    return LowerREParams(alpha_ell, tau_md, feasible=tau_md <= alpha_ell / (2 * d))


def subweibull_right_tail(
    n: int,
    t: float,
    alpha_shape: float,
    c_alpha: float,
    sigma_minus_sq: float,
    beta_split: float = 0.5,
) -> BoundResult:
    """Right-tail bound P[S_n > n t] for centered sub-Weibull summands.

    Three-term sum

        exp(-n t^2 / (sigma_-^2 + c1 + (n t)^(1/alpha - 1) c2))
        + exp(-beta c_alpha (n t)^(1/alpha))
        + n exp(-c_alpha (n t)^(1/alpha))

    with c1 = Gamma(2 alpha + 1) / ((1 - beta) c_alpha)^(2 alpha) and
    c2 = beta c_alpha Gamma(3 alpha + 1) / (3 ((1 - beta) c_alpha)^(3 alpha)).
    beta_split is the free split parameter, fixed to 1/2 by default.
    """
    if alpha_shape <= 1:
        raise ValueError("alpha_shape must exceed 1")
    if not (0 < beta_split < 1):
        raise ValueError("beta_split must lie in (0, 1)")
    if c_alpha <= 0 or sigma_minus_sq < 0:
        raise ValueError("c_alpha must be positive, sigma_minus_sq non-negative")
    nt = n * t
    if nt <= 0:
        raise ValueError("n * t must be positive")
    a = alpha_shape
    c1 = math.gamma(2 * a + 1) / ((1 - beta_split) * c_alpha) ** (2 * a)
    c2 = beta_split * c_alpha * math.gamma(3 * a + 1) / (3 * ((1 - beta_split) * c_alpha) ** (3 * a))
    root = nt ** (1.0 / a)
    denom = sigma_minus_sq + c1 + nt ** (1.0 / a - 1.0) * c2
    raw = math.exp(-n * t * t / denom) + math.exp(-beta_split * c_alpha * root) + n * math.exp(
        -c_alpha * root
    )
    return _clamp(
        raw,
        constants={"c1": c1, "c2": c2, "beta_split": beta_split, "c_alpha": c_alpha},
    )


def squared_subexp_tail(n: int, t: float, c_x: float, c: float = 1.0) -> BoundResult:
    """Two-sided tail bound for averaged centered squares of sub-exponential
    draws: exp(-c n t^2 / c_x^2).

    Valid in the moderate-deviation region t <= c_x^(2/3) / n^(1/3) with
    n >= c_x^2 ln^3 n; both conditions are reported, not enforced.
    """
    if n < 1 or t <= 0:
        raise ValueError("need n >= 1 and t > 0")
    if c_x < 1:
        raise ValueError("c_x must be >= 1")
    raw = math.exp(-c * n * t * t / (c_x * c_x))
    conditions = {
        "t_within_range": t <= c_x ** (2.0 / 3.0) / n ** (1.0 / 3.0),
        "n_large_enough": n >= c_x * c_x * math.log(n) ** 3,
    }
    return _clamp(raw, side_conditions=conditions, constants={"c": c})


def one_sided_bernstein(n: int, t: float, second_moment: float) -> BoundResult:
    """Lower-tail bound exp(-n t^2 / E[X^2]) for non-negative summands."""
    if n < 1 or t < 0 or second_moment <= 0:
        raise ValueError("need n >= 1, t >= 0, and a positive second moment")
    return _clamp(math.exp(-n * t * t / second_moment))


def matrix_deviation_bound(
    n: int, d1: int, d2: int, c_max: float, t: float, c: float = 1.0
) -> BoundResult:
    """Entrywise deviation bound for cross-Gram matrices of sub-exponential
    random matrices: min(1, d1 d2 exp(-c n t^2 / c_max^2))."""
    if min(n, d1, d2) < 1 or c_max <= 0 or t < 0:
        raise ValueError("need positive dimensions, c_max > 0, t >= 0")
    raw = d1 * d2 * math.exp(-c * n * t * t / (c_max * c_max))
    return _clamp(raw, constants={"c": c})


def matrix_deviation_level(n: int, d: int, c_max: float, c1: float = 1.0) -> float:
    """High-probability entrywise deviation level c1 c_max sqrt(ln d / n)."""
    if n < 1 or d < 2 or c_max <= 0:
        raise ValueError("need n >= 1, d >= 2, c_max > 0")
    return c1 * c_max * math.sqrt(math.log(d) / n)


@dataclass(frozen=True)
class TailCheckReport:
    """Monte-Carlo exceedance frequency versus an analytic bound.

    ``passed`` is the comparison frequency <= bound + 3 sigma Monte-Carlo
    slack; ``skipped`` flags that the bound's stated side conditions do not
    hold at (n, t), in which case the comparison is reported but carries no
    soundness claim (``reason`` says why).
    """

    frequency: float
    bound: float
    slack: float
    trials: int
    passed: bool
    skipped: bool
    reason: str | None = None
    side_conditions: dict[str, bool] = field(default_factory=dict)


def empirical_tail_check(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    t: float,
    bound_fn: Callable[[int, float], BoundResult],
    trials: int,
    rng: np.random.Generator,
    chunk: int = 200,
) -> TailCheckReport:
    """Estimate P[S_n > n t] by Monte-Carlo and compare to an analytic bound.

    ``sampler(gen, size)`` must return centered draws of the summand; each
    trial sums n of them and the exceedance frequency over ``trials``
    repetitions is compared to ``bound_fn(n, t)`` plus a 3-sigma binomial
    slack term.
    """
    if trials < 1 or n < 1:
        raise ValueError("need trials >= 1 and n >= 1")
    result = bound_fn(n, t)
    exceed = 0
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        draws = sampler(rng, k * n).reshape(k, n)
        exceed += int(np.count_nonzero(draws.mean(axis=1) > t))
        done += k
    freq = exceed / trials
    b = result.value
    slack = 3.0 * math.sqrt(b * (1.0 - b) / trials)
    ok = result.conditions_ok
    reason = None
    if not ok:
        failed = [k for k, v in result.side_conditions.items() if not v]
        reason = "side conditions not satisfied: " + ", ".join(failed)
    return TailCheckReport(
        frequency=freq,
        bound=b,
        slack=slack,
        trials=trials,
        passed=freq <= b + slack,
        skipped=not ok,
        reason=reason,
        side_conditions=dict(result.side_conditions),
    )


def centered_squares_sampler(
    base: Callable[[np.random.Generator, int], np.ndarray], second_moment: float
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Sampler of X^2 - E[X^2] built from a sampler of X."""

    def draw(gen: np.random.Generator, size: int) -> np.ndarray:
        x = base(gen, size)
        return x * x - second_moment

    return draw
