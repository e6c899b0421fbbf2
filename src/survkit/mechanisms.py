"""Local-DP publication of survey covariates via calibrated additive noise.

Each covariate coordinate receives one independent draw of Laplace noise
(pure alpha-LDP, beta = 0) or Gaussian noise (approximate (alpha, beta)-LDP,
beta > 0), calibrated from the declared covariate bound zeta through the
l1/l2 sensitivity of the identity release, accounted per coordinate or per
whole record (see :func:`make_noise_spec`).  Responses are never perturbed.
The published bundle records the exact noise covariance that was added,
which the downstream solver subtracts out of the Gram matrix.

"Pure alpha-LDP" and "(alpha, beta)-LDP" are guarantees of the real-valued
mechanism x + w.  The release is the floating-point sum fl(x + w), whose
low bits depend on x (Mironov 2012, "On significance of the least
significant bits for differential privacy").  At Laplace scale 2 and
zeta 1, the statistic (|z + 1| - |z - 1|) / 2, which is at most 1 in
real arithmetic, exceeds 1 on about 2 % of the outputs of x = +1 and on
none of 2e6 outputs of x = -1.  No e^alpha bounds that ratio, so the
release as computed is not pure alpha-LDP.

Covariates outside [-zeta, zeta] are a hard error, never silently clipped:
silent clipping would invalidate the sensitivity computation without a
trace.  Explicit clipping lives in :mod:`survkit.datagen`.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _RNG_TAGS, Dataset, RngSpec, _rows, _within


class Accounting(enum.Enum):
    """How the sensitivity of the covariate release is accounted."""

    PER_COORDINATE = "per-coord"
    WHOLE_RECORD = "whole-record"


class NoiseKind(enum.Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget alpha > 0 and failure probability beta in [0, 1).

    beta = 0 selects pure alpha-LDP (Laplace noise); beta > 0 selects
    (alpha, beta)-LDP (Gaussian noise).
    """

    alpha: float
    beta: float = 0.0
    accounting: Accounting = Accounting.PER_COORDINATE

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (0 <= self.beta < 1):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")


@dataclass(frozen=True)
class NoiseSpec:
    """A calibrated noise distribution: Laplace(0, scale) or N(0, scale^2).

    ``scale`` is the Laplace scale b or the Gaussian standard deviation
    sigma; the per-coordinate variance is 2 b^2 or sigma^2 respectively.
    A zero scale is permitted as a degenerate test mode.
    """

    kind: NoiseKind
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"noise scale must be non-negative, got {self.scale}")

    @property
    def per_coordinate_variance(self) -> float:
        if self.kind is NoiseKind.LAPLACE:
            return 2.0 * self.scale * self.scale
        return self.scale * self.scale


def make_noise_spec(params: PrivacyParams, zeta: float, d: int) -> NoiseSpec:
    """Calibrate the additive noise for the requested privacy level.

    Releasing a covariate record bounded by zeta moves one coordinate of
    the identity map on [-zeta, zeta] by at most 2*zeta, so per-coordinate
    accounting has sensitivities Delta_1 = Delta_2 = 2*zeta; a whole
    d-coordinate record moves by at most Delta_1 = 2*zeta*d in l1 and
    Delta_2 = 2*zeta*sqrt(d) in l2.

    beta = 0 -> Laplace with scale b = Delta_1 / alpha, so per-coordinate
    accounting gives b = 2*zeta/alpha and variance 8*zeta^2/alpha^2.
    beta > 0 -> Gaussian with sigma = Delta_2 * sqrt(2 ln(1.25/beta)) / alpha,
    the classical Gaussian-mechanism calibration.

    The classical Gaussian calibration is only proven for alpha <= 1;
    outside that region a RuntimeWarning (not an error) is raised at the
    caller, the package's only Python warning.
    """
    spec = _calibrate(params, zeta, d)
    if spec.kind is NoiseKind.GAUSSIAN and params.alpha > 1:
        warnings.warn(
            f"Gaussian mechanism calibration at alpha={params.alpha} > 1 is outside "
            "the classical validity region", RuntimeWarning, stacklevel=2,
        )
    return spec


def _calibrate(params: PrivacyParams, zeta: float, d: int) -> NoiseSpec:
    """:func:`make_noise_spec` without its warning."""
    if not (zeta > 0):
        raise ValueError("zeta must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    # Coordinates per release: Delta_1 = 2*zeta*k and Delta_2 = 2*zeta*sqrt(k).
    k = d if params.accounting is Accounting.WHOLE_RECORD else 1
    if params.beta == 0.0:
        return NoiseSpec(NoiseKind.LAPLACE, 2.0 * zeta * k / params.alpha)
    delta2 = 2.0 * zeta * math.sqrt(k)
    sigma = delta2 * math.sqrt(2.0 * math.log(1.25 / params.beta)) / params.alpha
    return NoiseSpec(NoiseKind.GAUSSIAN, sigma)


class PrivateDataset:
    """A privatized survey: noisy covariates Z, clear responses, and the
    noise that was added.

    ``noise`` fixes the noise covariance, noise_variance * I_d, where
    ``noise_variance`` is its per-coordinate variance.  ``privacy`` is None
    when the noise was injected directly (synthetic benchmarks) rather than
    calibrated from a privacy budget.
    """

    __slots__ = ("z", "y", "noise", "privacy", "rng")

    def __init__(self, z, y, noise: NoiseSpec, privacy: PrivacyParams | None,
                 rng: RngSpec | None):
        self._hold(*_rows(z, y), noise, privacy, rng)

    @classmethod
    def _adopt(cls, z: np.ndarray, y: np.ndarray, **meta) -> PrivateDataset:
        """A PrivateDataset that keeps ``z`` and ``y`` themselves rather
        than copies, after the constructor's checks; ``meta`` holds the
        constructor's other arguments.  See the ownership rule in
        :mod:`survkit.core`."""
        pds = cls.__new__(cls)
        pds._hold(*_rows(z, y, adopt=True), **meta)
        return pds

    def _hold(self, z, y, noise, privacy, rng) -> None:
        self.z = z
        self.y = y
        self.noise = noise
        self.privacy = privacy
        self.rng = rng

    @property
    def noise_variance(self) -> float:
        return self.noise.per_coordinate_variance

    @property
    def size(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]

    def __repr__(self) -> str:
        return (
            f"PrivateDataset(m={self.size}, d={self.dim}, "
            f"noise={self.noise.kind.value}, variance={self.noise_variance})"
        )


def privatize(
    ds: Dataset, spec: NoiseSpec, params: PrivacyParams | None, rng: RngSpec
) -> PrivateDataset:
    """Add one independent noise draw to every covariate coordinate.

    Requires every |x_ij| <= ds.bounds.zeta, since the calibration in
    ``spec`` is only meaningful for bounded covariates; two reductions check
    it on every call, and only a failed check looks for the cells outside,
    to count them and name the first five.  Responses pass through
    unchanged: the result shares the read-only ``ds.y``, and its ``z`` is a
    fresh array.  The noise matrix is filled in a canonical row-major order
    from the (seed, stream) sub-stream tagged "noise", so the output is a
    pure function of (ds, spec, params, rng).

    The privacy of ``spec`` is that of the real-valued sum; the returned
    floating-point sum leaks through its low bits (see the module
    docstring).
    """
    zeta = ds.bounds.zeta
    if not _within(ds.x, zeta):
        out = np.flatnonzero(np.abs(ds.x) > zeta)  # only on failure: 8 bytes a cell outside
        first = list(zip(*(a.tolist() for a in divmod(out[:5], ds.dim))))
        raise ValueError(f"covariates exceed zeta = {zeta:g}; {out.size} entries lie outside, "
                         f"the first at (row, col) {first}; clip explicitly or raise zeta")
    gen = rng.derive(_RNG_TAGS["noise"])
    shape = (ds.size, ds.dim)
    if spec.kind is NoiseKind.LAPLACE:
        w = gen.laplace(loc=0.0, scale=spec.scale, size=shape)
    else:
        w = gen.normal(loc=0.0, scale=spec.scale, size=shape)
    w += ds.x  # in place: the same sums as ds.x + w, one m x d buffer fewer
    return PrivateDataset._adopt(z=w, y=ds.y, noise=spec, privacy=params, rng=rng)
