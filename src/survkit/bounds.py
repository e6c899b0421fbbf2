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

``min_samples_*`` at its default constants is not a sample size at which
survkit's noise-corrected Gram matrix is positive definite.  With d = 10
covariates uniform on [-1, 1] (lambda_min = 1/3, zeta = 1) and Laplace
noise at alpha 0.5 per coordinate (variance 32), ``min_samples_laplace``
gives 139, yet the corrected Gram matrix had a negative eigenvalue in 10 of
10 draws at each of m = 1e3, 1e4 and 1e5 (median smallest eigenvalue
-5.33, -1.55 and -0.23; its true value is 1/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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


def _clamp(raw: float, side_conditions=None, constants=None) -> BoundResult:
    v = min(max(raw, 0.0), 1.0)
    return BoundResult(
        value=v,
        vacuous=raw > 1.0,
        side_conditions=dict(side_conditions or {}),
        constants=dict(constants or {}),
    )


def _check(kind: str, **values: float) -> None:
    """Each named value must be finite and, by ``kind``, "positive" (> 0),
    "non-negative" (>= 0), "in (0, 1)", ">= 1", ">= 2" or just "finite"; the
    message names the first value outside and the kind."""
    for name, value in values.items():
        in_kind = {"positive": value > 0, "non-negative": value >= 0, "in (0, 1)": 0 < value < 1,
                   ">= 1": value >= 1, ">= 2": value >= 2, "finite": True}[kind]
        if not (math.isfinite(value) and in_kind):
            raise ValueError(f"{name} must be {kind}")


def min_samples_gaussian(
    lambda_min: float, zeta: float, alpha: float, beta: float, d: int, c: float = 1.0
) -> int:
    """Sample count after which the Gaussian-noise error bound applies.

    ceil of max( c / lambda_min^2 * (zeta^2 + zeta^2 ln(1/beta)/alpha^2)^2
    * d ln d, 1 ).
    """
    _check("positive", lambda_min=lambda_min, zeta=zeta, alpha=alpha)
    _check("non-negative", c=c)
    _check("in (0, 1)", beta=beta)
    _check(">= 2", d=d)
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
    _check("positive", lambda_min=lambda_min, zeta=zeta, alpha=alpha, c_eps=c_eps)
    _check(">= 2", d=d)
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
    _check("non-negative", sigma_eps=sigma_eps, c2=c2)
    _check("positive", lambda_min=lambda_min, zeta=zeta, alpha=alpha, radius=radius, m=m)
    _check("in (0, 1)", beta=beta)
    _check(">= 2", d=d)
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
    _check("positive", c_eps=c_eps, lambda_min=lambda_min, zeta=zeta, alpha=alpha,
           radius=radius, m=m)
    _check("non-negative", c2=c2)
    _check(">= 2", d=d)
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
    _check("positive", lambda_min=lambda_min, m=m)
    _check("non-negative", c1=c1)
    _check("finite", c_max=c_max)
    _check(">= 2", d=d)
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
    _check("finite", t=t, alpha_shape=alpha_shape)
    if alpha_shape <= 1:
        raise ValueError("alpha_shape must exceed 1")
    _check("in (0, 1)", beta_split=beta_split)
    _check("positive", c_alpha=c_alpha)
    _check("non-negative", sigma_minus_sq=sigma_minus_sq)
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
    _check("finite", t=t, c_x=c_x)
    _check("non-negative", c=c)
    if n < 1 or t <= 0:
        raise ValueError("need n >= 1 and t > 0")
    _check(">= 1", c_x=c_x)
    raw = math.exp(-c * n * t * t / (c_x * c_x))
    conditions = {
        "t_within_range": t <= c_x ** (2.0 / 3.0) / n ** (1.0 / 3.0),
        "n_large_enough": n >= c_x * c_x * math.log(n) ** 3,
    }
    return _clamp(raw, side_conditions=conditions, constants={"c": c})


def one_sided_bernstein(n: int, t: float, second_moment: float) -> BoundResult:
    """Lower-tail bound exp(-n t^2 / E[X^2]) for non-negative summands."""
    _check("finite", t=t, second_moment=second_moment)
    if n < 1 or t < 0 or second_moment <= 0:
        raise ValueError("need n >= 1, t >= 0, and a positive second moment")
    return _clamp(math.exp(-n * t * t / second_moment))


def matrix_deviation_bound(
    n: int, d1: int, d2: int, c_max: float, t: float, c: float = 1.0
) -> BoundResult:
    """Entrywise deviation bound for cross-Gram matrices of sub-exponential
    random matrices: min(1, d1 d2 exp(-c n t^2 / c_max^2))."""
    _check("finite", c_max=c_max, t=t)
    _check("non-negative", c=c)
    if min(n, d1, d2) < 1 or c_max <= 0 or t < 0:
        raise ValueError("need positive dimensions, c_max > 0, t >= 0")
    raw = d1 * d2 * math.exp(-c * n * t * t / (c_max * c_max))
    return _clamp(raw, constants={"c": c})


def matrix_deviation_level(n: int, d: int, c_max: float, c1: float = 1.0) -> float:
    """High-probability entrywise deviation level c1 c_max sqrt(ln d / n)."""
    _check("finite", c_max=c_max)
    _check("non-negative", c1=c1)
    if n < 1 or d < 2 or c_max <= 0:
        raise ValueError("need n >= 1, d >= 2, c_max > 0")
    return c1 * c_max * math.sqrt(math.log(d) / n)
