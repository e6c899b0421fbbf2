"""An empirical audit of the privacy that ``privatize``'s output gives.

Each case privatizes two neighbouring records, x = (+zeta, ..., +zeta) and
x' with its first ``differ`` coordinates set to -zeta: one coordinate for
per-coordinate accounting, every coordinate for whole-record accounting.
A record repeated n times privatizes into n independent draws, since the
noise is drawn per cell.  The test statistic T is the log-likelihood ratio
of x against x' under the noise kind.  For each threshold c on a fixed grid,
p = P[T > c | x] gets a lower and q = P[T > c | x'] an upper one-sided
Clopper-Pearson bound at level 1e-9, and the audit's score is the largest
``p_low - e^alpha q_high``.  An (alpha, beta)-private release scores at most
beta (Ding et al. 2018, "Detecting violations of differential privacy";
Jagielski, Ullman & Oprea 2020, "Auditing differentially private machine
learning").

The Laplace statistic is computed as ``2 clip(z, -zeta, zeta) / b`` summed
over the differing coordinates, which is exact at its atoms: the textbook
form ``(|z + zeta| - |z - zeta|) / b`` rounds differently for the two
neighbours' outputs and would score the floating-point leak of the output,
not the calibration.  The two miscalibrated power checks build their
``NoiseSpec`` directly, so no warning is raised.
"""

import math

import numpy as np
import pytest
from scipy.special import betaincinv

from survkit import (
    Accounting, Dataset, ModelBounds, NoiseKind, NoiseSpec, PrivacyParams, RngSpec,
    make_noise_spec, privatize,
)

ZETA = 1.0
LEVEL = 1e-9
THRESHOLDS = 181
CHUNK = 500_000  # rows privatized per call


def _llr(z: np.ndarray, spec: NoiseSpec, differ: int) -> np.ndarray:
    """log p(z | x) - log p(z | x') for each row of z."""
    u = z[:, :differ]
    if spec.kind is NoiseKind.LAPLACE:
        return 2.0 * np.clip(u, -ZETA, ZETA).sum(axis=1) / spec.scale
    return 2.0 * ZETA * u.sum(axis=1) / spec.scale**2


def _counts_above(record, spec, differ, grid, n, seed) -> np.ndarray:
    """How many of n privatized copies of ``record`` have T > c, for each c in grid."""
    hist = np.zeros(grid.size + 1, dtype=np.int64)
    for stream, start in enumerate(range(0, n, CHUNK)):
        rows = min(CHUNK, n - start)
        ds = Dataset(np.broadcast_to(record, (rows, record.size)), np.zeros(rows),
                     ModelBounds(ZETA, 1.0, 1.0))
        z = privatize(ds, spec, None, RngSpec(seed, stream)).z
        below = np.searchsorted(grid, _llr(z, spec, differ))  # grid points below each T
        hist += np.bincount(below, minlength=grid.size + 1)
    return np.cumsum(hist[::-1])[::-1][1:]


def _audit(spec: NoiseSpec, alpha: float, d: int, differ: int, n: int, n_prime: int,
           seed: int) -> float:
    """The largest p_low - e^alpha q_high over the threshold grid."""
    if spec.kind is NoiseKind.LAPLACE:
        top = 2.0 * ZETA * differ / spec.scale  # T lies in [-top, top]
    else:
        mean = 2.0 * ZETA**2 * differ / spec.scale**2  # T ~ N(+-mean, 2 mean)
        top = mean + 6.0 * math.sqrt(2.0 * mean)
    grid = np.linspace(-top, top, THRESHOLDS)
    x = np.full(d, ZETA)
    x_prime = x.copy()
    x_prime[:differ] = -ZETA
    k = _counts_above(x, spec, differ, grid, n, seed)
    k_prime = _counts_above(x_prime, spec, differ, grid, n_prime, seed + 1)
    p_low = np.where(k > 0, betaincinv(np.maximum(k, 1), n - k + 1, LEVEL), 0.0)
    q_high = np.where(k_prime < n_prime,
                      betaincinv(k_prime + 1, np.maximum(n_prime - k_prime, 1), 1.0 - LEVEL),
                      1.0)
    return float(np.max(p_low - math.exp(alpha) * q_high))


def _classical_sigma(alpha: float, beta: float) -> float:
    return 2.0 * ZETA * math.sqrt(2.0 * math.log(1.25 / beta)) / alpha


@pytest.mark.parametrize("privacy, d, differ", [
    pytest.param(PrivacyParams(1.0), 1, 1, id="laplace-per-coord"),
    pytest.param(PrivacyParams(1.0, 0.0, Accounting.WHOLE_RECORD), 3, 3,
                 id="laplace-whole-record-d3"),
    pytest.param(PrivacyParams(1.0, 0.1), 1, 1, id="gaussian-1-0.1"),
    pytest.param(PrivacyParams(0.5, 1e-5), 1, 1, id="gaussian-0.5-1e-5"),
])
def test_calibrated_noise_passes(privacy, d, differ):
    spec = make_noise_spec(privacy, ZETA, d)
    assert _audit(spec, privacy.alpha, d, differ, 500_000, 500_000, seed=11) <= privacy.beta


@pytest.mark.parametrize("spec, alpha, beta, d, differ, n_prime", [
    # Half the calibrated scale gives 2 alpha.
    pytest.param(NoiseSpec(NoiseKind.LAPLACE, ZETA), 1.0, 0.0, 1, 1, 500_000,
                 id="laplace-half-scale"),
    # The classical sigma is not private at alpha > 1: its actual beta at
    # (10, 0.1) is 0.41.  Bounding q at e^10 takes more draws of x'.
    pytest.param(NoiseSpec(NoiseKind.GAUSSIAN, _classical_sigma(10.0, 0.1)), 10.0, 0.1, 1, 1,
                 5_000_000, id="gaussian-classical-10-0.1"),
    # Per-coordinate alpha 1 over 3 coordinates is only 3-private per record.
    pytest.param(make_noise_spec(PrivacyParams(1.0), ZETA, 3), 1.0, 0.0, 3, 3, 500_000,
                 id="laplace-per-coord-record-d3"),
])
def test_miscalibrated_noise_is_flagged(spec, alpha, beta, d, differ, n_prime):
    assert _audit(spec, alpha, d, differ, 500_000, n_prime, seed=11) > beta
