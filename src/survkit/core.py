"""Domain types and the shared regression primitives.

A survey is an ordered collection of (covariate vector, response) rows with
declared envelope bounds: per-coordinate covariate bound ``zeta``, response
bound ``tau``, and an l1 bound ``radius`` on admissible coefficient vectors.
Everything downstream (noise calibration, the constrained solver, the
credibility test thresholds) is expressed in terms of these three numbers,
so they are checked hard at construction time and non-finite values are
rejected everywhere.

All types here keep no mutable state (arrays are marked read-only) and
are safe to share across workers.  A check of the bounds is never recorded
on a dataset: each consumer that relies on them checks them when called.

Rows and ownership: every holder of (x, y) rows - :class:`Dataset`,
``mechanisms.PrivateDataset`` and ``tester.PooledSource`` - takes its
arrays through :func:`_rows`, the one place where the row rule (an (m, d)
matrix with m, d >= 1, m responses, every entry finite) and the ownership
rule live.  The public constructors copy, since the caller may still hold
and write the arrays.  The private ``_adopt`` classmethods keep the arrays
themselves and only mark them read-only.  Only the package's own producers
call ``_adopt``, with float64 C-contiguous arrays that are either fresh
buffers no one else holds or the read-only arrays of another dataset; each
such caller is listed in ``tests/test_public_surface.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    # NaN and +-inf reach a min or a max; no m x d boolean temporary is built.
    if not (np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0))):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _rows(x, y, adopt: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` checked as an (m, d) covariate matrix with m, d >= 1
    and m responses, every entry finite, and returned read-only: C-order
    copies, or, when ``adopt``, the arrays themselves.  Adopted arrays must
    be float64 and C-contiguous, so that keeping them gives the same bytes
    and the same memory layout as a copy."""
    if adopt and not all(isinstance(a, np.ndarray) and a.dtype == np.float64
                         and a.flags.c_contiguous for a in (x, y)):
        raise ValueError("only float64 C-contiguous arrays are adopted")
    x = _as_float_array(x, "covariates", 2)
    y = _as_float_array(y, "responses", 1)
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"row count mismatch: {x.shape[0]} covariate rows, {y.shape[0]} responses"
        )
    if min(x.shape) < 1:
        raise ValueError(f"need at least one row and one column, got shape {x.shape}")
    if not adopt:
        x, y = x.copy(), y.copy()  # ndarray.copy is C-order
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


@dataclass(frozen=True)
class ModelBounds:
    """Envelope bounds: |x_i| <= zeta, |y| <= tau, ||theta||_1 <= radius."""

    zeta: float
    tau: float
    radius: float

    def __post_init__(self):
        for name in ("zeta", "tau", "radius"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite real, got {v}")


# The sub-stream tag of each consumer of an RngSpec.  A tag fixes its
# consumer's draws, so tags are never renumbered or shared.
_RNG_TAGS = {
    "noise": 0,  # privatization noise (mechanisms.privatize)
    "validation": 1,  # validation draws (tester)
    "data": 2,  # synthetic data (datagen, the error-vs-samples sweep)
    "covariate_noise": 3,  # family-2 covariate noise (datagen)
    "distance": 4,  # model-distance probes (sweeps)
}


@dataclass(frozen=True)
class RngSpec:
    """Deterministic randomness root: a 64-bit seed plus a sub-stream index.

    Identical (seed, stream) pairs reproduce identical draws bit-for-bit
    across runs.  Operations that consume randomness derive child generators
    via :meth:`derive` with the tags of ``_RNG_TAGS``, so independent
    consumers of the same spec never collide.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if int(self.stream) < 0:
            raise ValueError("stream index must be non-negative")

    def derive(self, *indices: int) -> np.random.Generator:
        """Child generator for the sub-stream (seed, stream, *indices)."""
        key = (int(self.stream),) + tuple(int(i) for i in indices)
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.seed), spawn_key=key)
        )


class Dataset:
    """Survey data: an m x d covariate matrix and a length-m response vector.

    Rows are stored row-major with responses in a parallel array.  The
    declared bounds are not checked at construction; :func:`validate_dataset`
    reports the entries outside them.
    """

    __slots__ = ("x", "y", "bounds")

    def __init__(self, x, y, bounds: ModelBounds):
        self._hold(*_rows(x, y), bounds)

    @classmethod
    def _adopt(cls, x: np.ndarray, y: np.ndarray, bounds: ModelBounds) -> Dataset:
        """A Dataset that keeps ``x`` and ``y`` themselves rather than
        copies, after the constructor's checks.  They are fresh buffers the
        caller gives up or another dataset's read-only arrays; they are
        marked read-only, and nothing may write them again."""
        ds = cls.__new__(cls)
        ds._hold(*_rows(x, y, adopt=True), bounds)
        return ds

    def _hold(self, x: np.ndarray, y: np.ndarray, bounds: ModelBounds) -> None:
        self.x = x
        self.y = y
        self.bounds = bounds

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def __repr__(self) -> str:
        return f"Dataset(m={self.size}, d={self.dim}, bounds={self.bounds})"


class ValidationSource:
    """Stateless supplier of i.i.d. draws from the reference distribution.

    ``draw(n, gen)`` returns an (n, d) covariate matrix and a length-n
    response vector, or raises ``tester.InsufficientValidationError`` if the
    source cannot supply n draws.  Randomness comes from the caller's
    generator, so repeated verification runs with equal RngSpec are
    bit-reproducible.  ``datagen.LinearModelSource`` and
    ``tester.PooledSource`` implement it.
    """

    def draw(self, n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


@dataclass(frozen=True)
class ValidationReport:
    """Bound violations found by :func:`validate_dataset`.

    ``violations`` holds (row, column) pairs; columns 0..d-1 are covariate
    coordinates and column d denotes the response.
    """

    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _within(a: np.ndarray, bound: float) -> bool:
    """Whether every |a_i| <= bound, for finite a: two reductions and no
    |a| temporary."""
    return bool(a.max() <= bound and a.min() >= -bound)


def validate_dataset(ds: Dataset) -> ValidationReport:
    """Check every entry of ``ds`` against its declared bounds.

    Lists every (row, column) with |x_ij| > zeta, and every (row, d) with
    |y_i| > tau.  A pure function: ``ds`` is left as it is.  A dataset
    within its bounds is recognised by min/max reductions alone; the
    entry-by-entry scan runs only when some entry is out of bounds.
    """
    b = ds.bounds
    if _within(ds.x, b.zeta) and _within(ds.y, b.tau):
        return ValidationReport(())
    rows, cols = np.nonzero(np.abs(ds.x) > b.zeta)
    bad = [(int(r), int(c)) for r, c in zip(rows, cols)]
    bad += [(int(r), ds.dim) for r in np.nonzero(np.abs(ds.y) > b.tau)[0]]
    bad.sort()
    return ValidationReport(tuple(bad))


def mean_squared_loss(theta, x, y) -> float:
    """Mean of (<theta, x_i> - y_i)^2 over the given rows."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] != y.shape[0] or x.shape[0] < 1:
        raise ValueError("x and y must hold the same positive number of rows")
    r = x @ np.asarray(theta, dtype=np.float64) - y
    return float(np.mean(r * r))


def model_distance(theta_a, theta_b, xs) -> float:
    """Root-mean-square prediction gap between two linear models.

    Empirical estimate, over the covariate rows ``xs``, of the l2 distance
    between the functions <theta_a, .> and <theta_b, .>:
    sqrt(mean_i <theta_a - theta_b, x_i>^2).  It is a norm of the coefficient
    difference pushed through the fixed design, hence symmetric and
    triangle-inequality compliant for fixed xs.
    """
    theta_a = _as_float_array(theta_a, "theta_a", 1)
    theta_b = _as_float_array(theta_b, "theta_b", 1)
    if theta_a.shape != theta_b.shape:
        raise ValueError("coefficient vectors must have equal dimension")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValueError("xs must be a non-empty matrix of covariate rows")
    if xs.shape[1] != theta_a.shape[0]:
        raise ValueError("covariate dimension does not match coefficients")
    g = xs @ (theta_a - theta_b)
    return float(np.sqrt(np.mean(g * g)))
