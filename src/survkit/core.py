"""Domain types and the shared regression primitives.

A survey is an ordered collection of (covariate vector, response) rows with
declared envelope bounds: per-coordinate covariate bound ``zeta``, response
bound ``tau``, and an l1 bound ``radius`` on admissible coefficient vectors.
Everything downstream (noise calibration, the constrained solver, the
credibility test thresholds) is expressed in terms of these three numbers,
so they are checked hard at construction time, by ``survkit._check``: the
one place that rejects non-finite values, for every scalar in the package.
Every array argument of the package is read by :func:`_as_float_array`,
which states the one array rule.

All types here keep no mutable state (arrays are marked read-only) and
are safe to share across workers.  A check of the bounds is never recorded
on a dataset: each consumer that relies on them checks them when called.

Rows and ownership: every holder of (x, y) rows - :class:`Dataset`,
``mechanisms.PrivateDataset`` and ``tester.PooledSource`` - takes its
arrays through :func:`_rows`, which states the row rule and the ownership
rule.  The public constructors copy, since the caller may still hold and
write the arrays.  The private ``_adopt`` classmethods keep the arrays
themselves and only mark them read-only.  Only the package's own producers
call ``_adopt``, with float64 C-contiguous arrays that are either fresh
buffers no one else holds or the read-only arrays of another dataset; each
such caller is listed in ``tests/test_public_surface.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _check


def _as_float_array(values, name: str, shape: tuple, finite: bool = True) -> np.ndarray:
    """``values`` as a float64 array, by the array rule: an integer or float
    dtype, not a ragged list, and ``len(shape)`` dimensions, each of the size
    ``shape`` fixes, or of any size >= 1 where it holds None; if ``finite``,
    no NaN or infinity.  Else ValueError "<name> must ...".  A float64 array
    is returned itself, not a copy."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy's error for a ragged list
        raise ValueError(f"{name} must be a rectangular array") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold integers or floats, got dtype {arr.dtype}")
    if arr.ndim != len(shape):
        raise ValueError(f"{name} must be {len(shape)}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    want = tuple(size if fixed is None else fixed for size, fixed in zip(arr.shape, shape))
    if arr.shape != want:
        raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
    arr = np.asarray(arr, dtype=np.float64)
    # NaN and +-inf reach a min or a max; no boolean temporary is built.
    if finite and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} must be finite")
    return arr


def _rows(x, y, adopt: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The row rule: ``x`` and ``y`` checked as an (m, d) ``covariates``
    matrix and m ``responses`` by the array rule, and returned read-only:
    C-order copies, or, when ``adopt``, the arrays themselves.  Adopted
    arrays must be float64 and C-contiguous, so that keeping them gives the
    same bytes and the same memory layout as a copy."""
    if adopt and not all(isinstance(a, np.ndarray) and a.dtype == np.float64
                         and a.flags.c_contiguous for a in (x, y)):
        raise ValueError("only float64 C-contiguous arrays are adopted")
    x = _as_float_array(x, "covariates", (None, None))
    y = _as_float_array(y, "responses", x.shape[:1])
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
        _check("positive", zeta=self.zeta, tau=self.tau, radius=self.radius)


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
        _check("an unsigned 64-bit integer", seed=self.seed)
        _check("a non-negative integer", stream=self.stream)

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
    """Mean of (<theta, x_i> - y_i)^2 over the given rows.  A NaN or infinity
    in x or y shows as a non-finite loss, which raises ValueError."""
    x = _as_float_array(x, "x", (None, None), finite=False)
    y = _as_float_array(y, "y", x.shape[:1], finite=False)
    theta = _as_float_array(theta, "theta", x.shape[1:])
    with np.errstate(invalid="ignore", over="ignore"):
        r = x @ theta - y
        loss = float(np.mean(r * r))
    if not math.isfinite(loss):
        raise ValueError(f"x and y must give a finite loss, got {loss}")
    return loss


def model_distance(theta_a, theta_b, xs) -> float:
    """Root-mean-square prediction gap between two linear models.

    Empirical estimate, over the covariate rows ``xs``, of the l2 distance
    between the functions <theta_a, .> and <theta_b, .>:
    sqrt(mean_i <theta_a - theta_b, x_i>^2).  It is a norm of the coefficient
    difference pushed through the fixed design, hence symmetric and
    triangle-inequality compliant for fixed xs.
    """
    theta_a = _as_float_array(theta_a, "theta_a", (None,))
    theta_b = _as_float_array(theta_b, "theta_b", theta_a.shape)
    xs = _as_float_array(xs, "xs", (None, theta_a.shape[0]))
    g = xs @ (theta_a - theta_b)
    return float(np.sqrt(np.mean(g * g)))
