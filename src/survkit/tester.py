"""Credibility test: is a survey's fitted linear model close to optimal?

The test fits the l1-constrained model on the survey, upper-bounds its
population loss from the empirical loss plus explicit concentration terms,
then estimates the same model's loss on a small batch of fresh validation
draws from the reference distribution.  It REJECTS only when the validation
loss exceeds the survey-loss bound by more than kappa + tol in root scale:

    REJECT  iff  sqrt(gamma_d) > sqrt(gamma_s) + kappa + tol

The test is one-sided: it accepts unless it finds a certificate of
distance, so a survey whose validation loss happens to be small is always
accepted regardless of the true model distance.  For privately published
surveys, the coefficient-estimation error induced by the noise is absorbed
into the bound through an additive penalty term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import _RNG_TAGS, Dataset, ModelBounds, RngSpec, _rows, _within, mean_squared_loss
from .core import ValidationSource
# validate_dataset and privatize are not called here; bench/spans.py wraps them at this
# binding site (see test_bench_bindings).
from .core import validate_dataset  # noqa: F401
from .mechanisms import NoiseKind, PrivateDataset, privatize  # noqa: F401
from .solver import SolverConfig, moments_from_arrays, corrected_moments, solve

_LAMBDA_MIN_FLOOR = 1e-6
# The paper's unspecified constants: c2 scales the privacy penalties, c_eps is
# the regression-noise tail scale of the Laplace penalty.  Each verdict
# reports them under ``constants``.
_C2 = 1.0
_C_EPS = 1.0


class InsufficientValidationError(RuntimeError):
    """The validation source cannot supply the required draw count."""


@dataclass(frozen=True)
class TestConfig:
    """Decision parameters of the credibility test.

    kappa is the acceptance slack, tol the rejection tolerance (and the
    additive accuracy of the validation estimate), delta the confidence
    budget.
    """

    kappa: float
    tol: float
    delta: float
    bounds: ModelBounds

    def __post_init__(self):
        if not 0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and non-negative")
        if not (0 < self.tol <= 1):
            raise ValueError("tol must lie in (0, 1]")
        if not (0 < self.delta <= 1):
            raise ValueError("delta must lie in (0, 1]")


class PooledSource(ValidationSource):
    """Validation draws from a fixed pool of rows: every draw of n is the
    pool's first n rows, so repeated runs on one source see equal batches."""

    def __init__(self, x, y):
        self.x, self.y = _rows(x, y)

    def draw(self, n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        rows = self.x.shape[0]
        if n > rows:
            raise InsufficientValidationError(f"validation pool has {rows} rows, need {n}")
        return self.x[:n], self.y[:n]


class Decision(enum.Enum):
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"


@dataclass(frozen=True)
class Verdict:
    """Test outcome with every intermediate quantity, for audit.

    margin = sqrt(gamma_d) - sqrt(gamma_s) - kappa - tol; the decision is
    REJECT exactly when margin > 0.  j_hat is zero in the public case.
    """

    decision: Decision
    t_used: int
    l_hat: float
    gamma_s: float
    gamma_d: float
    j_hat: float
    theta_hat: np.ndarray
    margin: float
    constants: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if (self.decision is Decision.REJECT) != (self.margin > 0):
            raise ValueError("decision must be REJECT exactly when margin > 0")

    @property
    def accepted(self) -> bool:
        return self.decision is Decision.ACCEPT


def validation_sample_size(tau: float, delta: float, tol: float) -> int:
    """Validation draws needed for a tol-accurate root-loss estimate:
    ceil(tau^2 ln(4/delta) / (2 tol^2))."""
    if tau <= 0 or not (0 < delta <= 1) or not (0 < tol <= 1):
        raise ValueError("need tau > 0, delta in (0, 1], tol in (0, 1]")
    return math.ceil(tau * tau * math.log(4.0 / delta) / (2.0 * tol * tol))


def survey_loss_bound(l_hat: float, m: int, d: int, bounds: ModelBounds, delta: float) -> float:
    """Upper confidence bound on the population loss of the survey fit:

    l_hat + 8 tau zeta R^2 sqrt(2 ln(2d)) / sqrt(m) + 3 tau sqrt(ln(4/delta) / (2m))
    """
    if l_hat < 0:
        raise ValueError("l_hat must be non-negative")
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    tau, zeta, r = bounds.tau, bounds.zeta, bounds.radius
    mid = 8.0 * tau * zeta * r * r * math.sqrt(2.0 * math.log(2.0 * d)) / math.sqrt(m)
    conf = 3.0 * tau * math.sqrt(math.log(4.0 / delta) / (2.0 * m))
    return l_hat + mid + conf


def _dimension_factor(lambda_min: float, m: int, d: int) -> float:
    """sqrt(d ln d / m), the last factor of both privacy penalties."""
    if not 0 < lambda_min < math.inf or m < 1 or d < 1:
        raise ValueError("need 0 < lambda_min < inf, m >= 1, d >= 1")
    return math.sqrt(d * math.log(d) / m)


def privacy_penalty_gaussian(
    bounds: ModelBounds, alpha: float, beta: float, lambda_min: float, m: int, d: int
) -> float:
    """Survey-loss penalty for Gaussian-noise publication.

    2 c2 zeta^3 / lambda_min * sqrt(ln(1/beta)) / alpha
    * (ln(1/beta)/alpha + 1) * R * sqrt(d ln d / m), with c2 = 1.
    Degenerates to 0 at d = 1 (ln d = 0); ``verify_private_survey`` notes
    that in the verdict.
    """
    if not (0 < beta < 1):
        raise ValueError("beta must lie in (0, 1)")
    root = _dimension_factor(lambda_min, m, d)
    lb = math.log(1.0 / beta)
    zeta, r = bounds.zeta, bounds.radius
    return 2.0 * _C2 * zeta**3 / lambda_min * math.sqrt(lb) / alpha * (lb / alpha + 1.0) * r * root


def privacy_penalty_laplace(
    bounds: ModelBounds, alpha: float, c_eps: float, lambda_min: float, m: int, d: int
) -> float:
    """Survey-loss penalty for Laplace-noise publication.

    c2 zeta / lambda_min * max(zeta/alpha, zeta^2, c_eps) * R
    * sqrt(d ln d / m), with c2 = 1.  Degenerates to 0 at d = 1;
    ``verify_private_survey`` notes that in the verdict.
    """
    root = _dimension_factor(lambda_min, m, d)
    zeta, r = bounds.zeta, bounds.radius
    big_m = max(zeta / alpha, zeta * zeta, c_eps)
    return _C2 * zeta / lambda_min * big_m * r * root


def _verify(
    survey: Dataset | PrivateDataset,
    source: ValidationSource,
    cfg: TestConfig,
    rng: RngSpec,
    lambda_min: float | None,
) -> Verdict:
    """The credibility test of a clear survey or of a published ``PrivateDataset``."""
    b = cfg.bounds
    private = isinstance(survey, PrivateDataset)
    if private and survey.privacy is None:  # noise injected directly, as by gen_synthetic2
        raise ValueError("private survey has no privacy parameters to compute its penalty from")
    # Published covariates carry noise; zeta bounded them before publication.
    x = survey.z if private else survey.x
    if not (_within(survey.y, b.tau) and (private or _within(x, b.zeta))):
        raise ValueError("survey violates the configured bounds; validate or clip first")
    m, d = survey.size, survey.dim
    notes = []
    cap = b.tau / (b.zeta * math.sqrt(d + 1))
    if b.radius > cap:
        notes.append(
            f"radius {b.radius:g} exceeds tau/(zeta*sqrt(d+1)) = {cap:g}; "
            "predictions may leave [-tau, tau] and the validation-accuracy "
            "guarantee degrades"
        )
    j_hat = 0.0
    if not private:
        moments = moments_from_arrays(x, survey.y)
    else:
        moments = corrected_moments(survey)
        if lambda_min is None:
            # A full eigvalsh at every d: no benchmarked workload runs a private
            # verify above d = 64, so a Lanczos estimate of the smallest
            # eigenvalue waits for one that does.
            lambda_min = max(float(np.linalg.eigvalsh(moments.gamma_mat)[0]), _LAMBDA_MIN_FLOOR)
            notes.append(
                f"lambda_min estimated from corrected moments as {lambda_min:g} "
                f"(floored at {_LAMBDA_MIN_FLOOR:g}); heuristic, not an observed quantity"
            )
        p = survey.privacy
        if survey.noise.kind is NoiseKind.GAUSSIAN:
            j_hat = privacy_penalty_gaussian(b, p.alpha, p.beta, lambda_min, m, d)
        else:
            j_hat = privacy_penalty_laplace(b, p.alpha, _C_EPS, lambda_min, m, d)
        if d == 1:
            notes.append("privacy penalty is 0 at d = 1 because the ln d factor vanishes")
    config = SolverConfig(radius=b.radius)
    theta_hat = solve(moments, config).theta_hat
    l_hat = mean_squared_loss(theta_hat, x, survey.y)
    gamma_s = survey_loss_bound(l_hat, m, d, b, cfg.delta) + j_hat
    t = validation_sample_size(b.tau, cfg.delta, cfg.tol)
    xv, yv = source.draw(t, rng.derive(_RNG_TAGS["validation"]))
    over = int(np.count_nonzero(np.abs(yv) > b.tau))
    if over:
        notes.append(f"{over} of {t} validation responses exceed tau = {b.tau:g}")
    gamma_d = mean_squared_loss(theta_hat, xv, yv)
    margin = math.sqrt(gamma_d) - math.sqrt(gamma_s) - cfg.kappa - cfg.tol
    return Verdict(
        decision=Decision.REJECT if margin > 0 else Decision.ACCEPT,
        t_used=t,
        l_hat=l_hat,
        gamma_s=gamma_s,
        gamma_d=gamma_d,
        j_hat=j_hat,
        theta_hat=theta_hat,
        margin=margin,
        constants={"c2": _C2, "c_eps": _C_EPS},
        notes=tuple(notes),
    )


def verify_survey(
    survey: Dataset, source: ValidationSource, cfg: TestConfig, rng: RngSpec
) -> Verdict:
    """Run the credibility test on a public (noise-free) survey.

    Fits the constrained model on the survey's clean moments, bounds its
    population loss, draws the validation batch, and applies the decision
    rule.  The verdict carries every intermediate quantity.
    """
    return _verify(survey, source, cfg, rng, None)


def verify_private_survey(
    survey: PrivateDataset,
    source: ValidationSource,
    cfg: TestConfig,
    rng: RngSpec,
    lambda_min: float | None = None,
) -> Verdict:
    """Run the credibility test on a survey published under local DP.

    The model is fitted on the bundle's bias-corrected moments and the
    empirical loss computed on its privatized covariates, the only ones
    available after publication.  The loss bound gains the privacy penalty
    of the bundle's noise kind at its ``privacy`` (alpha, beta), which must
    be set, with the constants c2 = c_eps = 1 that the verdict reports.
    Only y is checked, against tau: x met zeta when it was published.

    lambda_min is the smallest eigenvalue of the clean covariate covariance;
    when not declared it is estimated from the corrected Gram matrix,
    floored at 1e-6, and the verdict notes the heuristic, as it notes the
    penalty vanishing at d = 1.
    """
    if not isinstance(survey, PrivateDataset):  # a clear survey would run the public test
        raise TypeError(f"expected a published PrivateDataset, got {type(survey).__name__}")
    return _verify(survey, source, cfg, rng, lambda_min)
