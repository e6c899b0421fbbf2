"""Synthetic benchmark generators, CSV round-tripping, and bound clipping.

Two synthetic families drive the benchmark harness:

* family 1 - standard-normal covariates with near-zero dense coefficients
  for the survey and mean-mu coefficients for the reference population;
  sweeping mu moves the model distance between the two fits.
* family 2 - sparse coefficients (drawn from Unif(1, 10) with probability
  1/sqrt(d), else 0) with covariate noise of matched variance injected from
  either a Gaussian or a Laplace distribution, for light-vs-heavy-tail
  comparisons.  Both kinds transform the uniforms of one sub-stream, so runs
  with equal RngSpec are paired across kinds.

Distribution parameters follow the convention that the second argument of a
normal law is its VARIANCE.  Generated data is clipped to a 4-sigma
envelope, so the declared bounds hold honestly before any privatization.
Data inside the envelope is left untouched; the clip counts, taken only
from the cells outside it, are logged.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import _RNG_TAGS, Dataset, ModelBounds, RngSpec, _rows, _within
# Not called here; bench/spans.py wraps it at this binding site (see test_bench_bindings).
from .core import validate_dataset  # noqa: F401
from .mechanisms import (
    NoiseKind, NoiseSpec, PrivacyParams, Accounting, PrivateDataset, _calibrate,
)
from .tester import ValidationSource

log = logging.getLogger(__name__)

# Family-1 distribution parameters (second argument = variance).
_REG_NOISE_VAR_1 = 0.1
_COEFF_VAR_1 = 0.01
# Family-2 parameters: unit-variance regression and covariate noise.
_REG_NOISE_VAR_2 = 1.0
_ENVELOPE_SIGMAS = 4.0
_U_EPS = 2.0**-53


class CsvFormatError(ValueError):
    """Malformed dataset file; the message carries the row/column location."""


@dataclass(frozen=True)
class ClipReport:
    covariate_clips: tuple[int, ...]
    response_clips: int

    @property
    def total(self) -> int:
        return sum(self.covariate_clips) + self.response_clips


class LinearModelSource(ValidationSource):
    """Fresh draws (x, <theta, x> + noise) from a fixed linear model.

    Covariates are standard normal ("normal") or uniform on
    [-scale, scale] ("uniform"); the regression noise is centered normal
    with the given variance.
    """

    def __init__(self, theta, noise_var: float, covariate: str = "normal", scale: float = 1.0):
        self.theta = np.array(theta, dtype=np.float64)  # a copy: the caller may write theirs
        if self.theta.ndim != 1 or not np.isfinite(self.theta).all():
            raise ValueError("theta must be a finite vector")
        self.theta.setflags(write=False)
        if not (0 <= noise_var < math.inf and 0 < scale < math.inf):
            raise ValueError("noise_var must be finite and >= 0, scale finite and > 0")
        if covariate not in ("normal", "uniform"):
            raise ValueError(f"unknown covariate kind {covariate!r}")
        self.noise_var = float(noise_var)
        self.covariate = covariate
        self.scale = float(scale)

    def draw(self, n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        d = self.theta.shape[0]
        if self.covariate == "normal":
            x = gen.normal(scale=self.scale, size=(n, d))
        else:
            x = gen.uniform(-self.scale, self.scale, size=(n, d))
        y = x @ self.theta + gen.normal(scale=math.sqrt(self.noise_var), size=n)
        return x, y

    def spec_dict(self) -> dict:
        return {
            "type": "linear-model",
            "theta": [float(v) for v in self.theta],
            "noise_var": self.noise_var,
            "covariate": self.covariate,
            "scale": self.scale,
        }


def source_from_spec(spec: dict, path="the generator spec") -> LinearModelSource:
    """The validation generator that ``spec``, read from the file ``path``, describes."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind != "linear-model":
        raise ValueError(f"{path}: unknown validation generator type {kind!r}")
    spec = {"covariate": "normal", "scale": 1.0, **spec}
    # Any nesting reaches LinearModelSource, which names a non-vector theta.
    numbers = np.vectorize(_number, otypes=[np.float64])
    theta = _json_field(spec, "theta", lambda v: numbers(np.asarray(v, dtype=object)), path)
    noise_var, scale = (_json_field(spec, k, _number, path) for k in ("noise_var", "scale"))
    try:
        return LinearModelSource(theta, noise_var, spec["covariate"], scale)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def clip_to_bounds(ds: Dataset, zeta: float, tau: float) -> tuple[Dataset, ClipReport]:
    """Clamp covariates to [-zeta, zeta] and responses to [-tau, tau].

    Returns the clipped dataset (within zeta and tau, radius carried over) and
    per-column clamp counts, taken only from the cells outside the envelope;
    data inside it is left untouched.  Idempotent.
    """
    if zeta <= 0 or tau <= 0:
        raise ValueError("zeta and tau must be positive")
    return _clip(ds.x.copy(), ds.y.copy(), ModelBounds(zeta, tau, ds.bounds.radius))


def _clip(x: np.ndarray, y: np.ndarray, bounds: ModelBounds) -> tuple[Dataset, ClipReport]:
    """:func:`clip_to_bounds` for fresh float64 C-contiguous arrays the
    caller gives up: they are clamped in place and the returned dataset
    keeps them, so neither a pre-clip nor a post-clip copy is made.  An
    array inside its envelope (one max/min reduction) is left untouched;
    only the flat indices of cells outside, one mask at a time, are counted."""
    zeta, tau, d = bounds.zeta, bounds.tau, x.shape[1]
    cov, resp = (0,) * d, 0
    if not _within(x, zeta):
        idx = (np.flatnonzero(x > zeta), np.flatnonzero(x < -zeta))  # 8 bytes a cell outside
        counts = sum(np.bincount(np.remainder(i, d, out=i), minlength=d) for i in idx)
        cov = tuple(int(c) for c in counts)
        np.clip(x, -zeta, zeta, out=x)
    if not _within(y, tau):
        resp = int(np.count_nonzero(y > tau) + np.count_nonzero(y < -tau))
        np.clip(y, -tau, tau, out=y)
    return Dataset._adopt(x, y, bounds), ClipReport(cov, resp)


def _check_generator_args(d: int, m: int, mu: float = 0.0) -> None:
    """The generators' argument checks, which ``SweepSpec`` runs before any trial."""
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")


def sparse_coefficients(d: int, gen: np.random.Generator) -> np.ndarray:
    """Sparse coefficient vector: Unif(1, 10) with probability 1/sqrt(d),
    else 0.  Redraws the all-zero outcome so the vector is never empty."""
    while True:
        mask = gen.random(d) < 1.0 / math.sqrt(d)
        vals = gen.uniform(1.0, 10.0, size=d)
        if mask.any():
            return np.where(mask, vals, 0.0)


def _envelope_bounds(theta: np.ndarray, reg_noise_var: float) -> tuple[float, float]:
    """(zeta, tau): 4 sigma of a covariate and of the response."""
    return _ENVELOPE_SIGMAS, _ENVELOPE_SIGMAS * math.sqrt(float(theta @ theta) + reg_noise_var)


def gen_synthetic1(
    d: int, m_survey: int, mu: float, rng: RngSpec
) -> tuple[Dataset, np.ndarray, np.ndarray, LinearModelSource]:
    """Family-1 generator: (survey, theta_s, theta_star, star_sampler).

    Survey covariates are i.i.d. standard normal, regression noise has
    variance 0.1, the survey coefficients theta_s have i.i.d. N(0, 0.01)
    coordinates and the reference coefficients theta_star i.i.d.
    N(mu, 0.01) coordinates.  The returned sampler draws fresh rows from
    the theta_star model.
    """
    _check_generator_args(d, m_survey, mu)
    gen = rng.derive(_RNG_TAGS["data"])
    theta_s = gen.normal(0.0, math.sqrt(_COEFF_VAR_1), size=d)
    theta_star = gen.normal(mu, math.sqrt(_COEFF_VAR_1), size=d)
    x = gen.normal(size=(m_survey, d))
    y = x @ theta_s + gen.normal(0.0, math.sqrt(_REG_NOISE_VAR_1), size=m_survey)
    zeta, tau = _envelope_bounds(theta_s, _REG_NOISE_VAR_1)
    radius = max(1.0, 1.5 * float(np.sum(np.abs(theta_s))))
    survey, clips = _clip(x, y, ModelBounds(zeta, tau, radius))
    if clips.total:
        log.info("family-1 generator clipped %d cells to the 4-sigma envelope", clips.total)
    sampler = LinearModelSource(theta_star, _REG_NOISE_VAR_1)
    return survey, theta_s, theta_star, sampler


def gen_synthetic2(
    d: int, m: int, noise_kind: NoiseKind, rng: RngSpec
) -> tuple[Dataset, PrivateDataset, np.ndarray]:
    """Family-2 generator: (clean, noisy, theta_star).

    Standard-normal covariates, unit-variance regression noise, sparse
    coefficients.  Covariate noise is per-coordinate N(0, 1) (Gaussian
    kind) or Laplace(0, 1/sqrt(2)) (Laplace kind) - equal variance 1 - and
    both kinds are inverse-CDF transforms of one uniform sub-stream, so
    the two noisy versions of the same RngSpec are coupled.
    """
    _check_generator_args(d, m)
    if not isinstance(noise_kind, NoiseKind):
        raise ValueError(f"noise_kind must be a NoiseKind, got {noise_kind!r}")
    clean, theta_star = _synthetic2_base(d, m, rng)
    return clean, _with_covariate_noise(clean, noise_kind, rng), theta_star


def _synthetic2_base(d: int, m: int, rng: RngSpec) -> tuple[Dataset, np.ndarray]:
    """The part of :func:`gen_synthetic2` that both noise kinds share:
    (clean, theta_star), to which :func:`_with_covariate_noise` adds either
    kind's noise."""
    gen = rng.derive(_RNG_TAGS["data"])
    theta_star = sparse_coefficients(d, gen)
    x = gen.normal(size=(m, d))
    y = x @ theta_star + gen.normal(0.0, math.sqrt(_REG_NOISE_VAR_2), size=m)
    zeta, tau = _envelope_bounds(theta_star, _REG_NOISE_VAR_2)
    radius = 1.1 * max(1.0, float(np.sum(np.abs(theta_star))))
    clean, clips = _clip(x, y, ModelBounds(zeta, tau, radius))
    if clips.total:
        log.info("family-2 generator clipped %d cells to the 4-sigma envelope", clips.total)
    return clean, theta_star


def _with_covariate_noise(clean: Dataset, kind: NoiseKind, rng: RngSpec) -> PrivateDataset:
    """``clean`` with the covariate noise of ``kind``: the inverse-CDF transform,
    built in place, of a uniform block drawn afresh from the covariate-noise
    sub-stream of ``rng``, so the kinds are paired in any build order."""
    u = rng.derive(_RNG_TAGS["covariate_noise"]).random(size=clean.x.shape)
    if u.min() < _U_EPS:  # random() <= 1 - 2**-53: only an exact 0 needs the clamp
        np.clip(u, _U_EPS, 1.0 - _U_EPS, out=u)
    if kind is NoiseKind.GAUSSIAN:
        # Imported here: scipy.special is the slowest import in the package,
        # adds about 25 MB RSS, and this is its only use.
        from scipy.special import ndtri

        ndtri(u, out=u)
        spec = NoiseSpec(NoiseKind.GAUSSIAN, 1.0)
    else:
        # -scale * sign(u - 0.5) * log1p(-2 |u - 0.5|), in place; the sign,
        # exactly +-1, is applied last, which changes no bit of the product.
        scale = 1.0 / math.sqrt(2.0)
        u -= 0.5
        sign = np.signbit(u).view(np.int8)  # u - 0.5 is never -0.0
        sign *= -2
        sign += 1
        np.abs(u, out=u)
        u *= -2.0
        np.log1p(u, out=u)
        u *= -scale
        u *= sign
        spec = NoiseSpec(NoiseKind.LAPLACE, scale)
    u += clean.x
    return PrivateDataset._adopt(
        z=u,
        y=clean.y,
        noise_variance=1.0,
        noise=spec,
        privacy=None,
        rng=rng,
    )


# ---------------------------------------------------------------------------
# File formats

# Rows formatted per block: enough to amortise the per-block calls, few
# enough that the block's Python floats stay small next to the arrays.
_WRITE_BLOCK_ROWS = 4096


def _header(d: int) -> list[str]:
    return [f"x{i + 1}" for i in range(d)] + ["y"]


def _write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` of text cells that need no quoting, such as a
    float's repr, as csv.writer would: comma-separated, CRLF-ended, UTF-8."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _write_rows(path, x: np.ndarray, y: np.ndarray) -> None:
    """Write the dataset CSV of ``x`` and ``y``, then its twin (see :func:`_read_twin`)."""
    def rows():
        b = _WRITE_BLOCK_ROWS
        for i in range(0, len(y), b):
            block = np.column_stack((x[i:i + b], y[i:i + b])).tolist()
            yield from (map(repr, row) for row in block)  # a float's repr reads back exactly
            del block  # freed before the next block is formatted

    _write_csv(path, _header(x.shape[1]), rows())
    if Path(path).is_file():  # not, say, /dev/null
        # The twin only saves a parse: one that cannot be written is left
        # out, and a partial one fails its read.
        with contextlib.suppress(OSError), _twin_path(path).open("wb") as fh:
            for a in (np.frombuffer(_file_digest(path), np.uint8), x, y):
                np.lib.format.write_array(fh, a, allow_pickle=False)


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset with header x1,...,xd,y; exact round-trip floats."""
    _write_rows(path, ds.x, ds.y)


def load_csv(path, bounds: ModelBounds | None = None) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    :func:`_read_rows` defines what a dataset file is.  A file that
    survkit wrote is read back from its binary twin when the twin's digest
    matches (:func:`_read_twin`).  Otherwise one ``np.loadtxt`` call reads
    the plain files quickly and gives up on anything unusual, which
    ``_read_rows`` then reads or rejects, raising :class:`CsvFormatError`
    at the first bad line and column.

    When no bounds are supplied, the envelope of the data itself is
    declared (with radius 1.0 as a placeholder), so validation passes
    trivially; pass explicit bounds for anything privacy-related.
    """
    path = Path(path)
    twin = _read_twin(path)
    if twin is not None:
        x, y = twin
    else:
        try:
            with path.open(newline="", encoding="utf-8") as fh:
                header = next(csv.reader([fh.readline()]))
                arr = np.loadtxt(_plain_lines(fh), delimiter=",", comments=None, ndmin=2)
            w = arr.shape[1]
            if not (w > 1 and header == _header(w - 1) and np.isfinite(arr).all()):
                raise ValueError("not a plain dataset")
        except ValueError:
            arr = _read_rows(path)
        x, y = arr[:, :-1], arr[:, -1]
    if bounds is None:
        zeta = max(float(np.max(np.abs(x))), 1e-12)
        tau = max(float(np.max(np.abs(y))), 1e-12)
        bounds = ModelBounds(zeta, tau, 1.0)
    # The twin's arrays were read fresh from its file and passed the row rule.
    return Dataset(x, y, bounds) if twin is None else Dataset._adopt(x, y, bounds)


def _read_twin(path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """The (x, y) of the CSV ``path`` from its twin, or None if it must be parsed.

    The twin (:func:`_write_rows`) holds three ``.npy`` records: the SHA-256
    of the CSV's bytes, then the x and y that were formatted.  A float's
    repr parses back to the same bits, so if that digest is the CSV's now,
    the parse would give these arrays; they must also pass the row rule as
    float64 C-contiguous arrays.  Without a twin nothing is hashed.
    """
    try:
        with _twin_path(path).open("rb") as fh:
            read = partial(np.lib.format.read_array, fh, allow_pickle=False)
            if read().tobytes() != _file_digest(path):
                return None
            return _rows(read(), read(), adopt=True)
    except (OSError, ValueError):
        return None


def _file_digest(path) -> bytes:
    """The SHA-256 of the file's bytes, read in fixed-size chunks."""
    import hashlib  # here: only a twin's read or write loads OpenSSL

    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(partial(fh.read, 1 << 20), b""):
            h.update(chunk)
    return h.digest()


def _plain_lines(fh):
    """The lines of ``fh`` for np.loadtxt.  Raises ValueError at anything
    loadtxt might read differently from :func:`_read_rows`: a quote, a
    blank line (loadtxt skips it, csv.reader yields a row), one of the
    separators \\x1c-\\x1f (loadtxt strips them from a cell as whitespace,
    float() rejects them), and no lines at all (loadtxt warns and returns
    an empty array)."""
    empty = True
    for line in fh:
        if ('"' in line or line.isspace() or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line):
            raise ValueError("not a plain line")
        empty = False
        yield line
    if empty:
        raise ValueError("no data rows")


def _read_rows(path: Path) -> np.ndarray:
    """The data rows as an m x (d + 1) array of finite floats, read row by
    row with csv.reader and float(); raises :class:`CsvFormatError` at the
    file's first defect."""
    values: list[float] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        d = len(header) - 1
        if d < 1 or header != _header(d):
            raise CsvFormatError(
                f"{path}: header must be x1,...,xd,y; got {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}"
                )
            for col, cell in enumerate(row):
                try:
                    value = float(cell)
                    # float() reads digit underscores and non-ASCII digits,
                    # np.loadtxt does not; the format leaves them out.
                    if "_" in cell or not cell.strip().isascii():
                        raise ValueError(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}:{lineno}: column {col + 1}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"{path}:{lineno}: column {col + 1}: non-finite value: {cell!r}"
                    )
                values.append(value)
    if not values:
        raise CsvFormatError(f"{path}: no data rows")
    return np.array(values).reshape(-1, d + 1)


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` the one way every survkit JSON file is written:
    strict JSON (a non-finite number raises ValueError before the file is
    opened), sorted keys, indent 2, a trailing newline."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _read_json_object(path, what: str, error=ValueError) -> dict:
    """The JSON object in the file ``path``; ``error`` naming the ``what`` file otherwise."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise error(f"{what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return obj


def _json_field(obj: dict, key: str, cast, path, error=ValueError):
    """``cast(obj[key])``; ``error`` naming the file and the key if that fails."""
    try:
        return cast(obj[key])
    except KeyError:
        raise error(f"{path}: missing key {key!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{path}: key {key!r}: {exc}") from None


def _number(value, kind=float):
    """``kind(value)`` if ``value`` is a JSON number (an integer where ``kind``
    is int); else a TypeError: no string or boolean is cast, no 2.7 truncated."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise TypeError(f"expected a JSON {'integer' if kind is int else 'number'}, got {value!r}")
    return kind(value)


def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(".meta.json") if p.suffix == ".csv" else Path(str(p) + ".meta.json")


def _twin_path(csv_path) -> Path:
    """Where :func:`_write_rows` puts the binary twin of a dataset CSV."""
    return Path(str(csv_path) + ".twin")


def save_private(pds: PrivateDataset, path, **extra) -> tuple[Path, Path]:
    """Write a private bundle: the noisy CSV plus a JSON sidecar recording
    the noise specification, the noise covariance diagonal, and provenance,
    plus any ``extra`` JSON-ready fields.  Returns (csv_path, sidecar_path)."""
    path = Path(path)
    _write_rows(path, pds.z, pds.y)
    meta = {
        "noise_kind": pds.noise.kind.value,
        "noise_scale": pds.noise.scale,
        "sigma_w_diagonal": pds.noise_variance,
        "m": pds.size,
        "d": pds.dim,
        "alpha": pds.privacy.alpha if pds.privacy else None,
        "beta": pds.privacy.beta if pds.privacy else None,
        "accounting": pds.privacy.accounting.value if pds.privacy else None,
        "seed": pds.rng.seed if pds.rng else None,
        "stream": pds.rng.stream if pds.rng else None,
        **extra,
    }
    side = sidecar_path(path)
    _write_json(side, meta)
    return path, side


def load_private(path) -> PrivateDataset:
    """Read a private bundle written by :func:`save_private`."""
    path = Path(path)
    side = sidecar_path(path)
    if not side.exists():
        raise CsvFormatError(f"{path}: missing sidecar {side}")
    meta = {"stream": 0, **_read_json_object(side, "sidecar", CsvFormatError)}
    ds = load_csv(path)
    declared = (meta.get("m"), meta.get("d"))
    if declared != (ds.size, ds.dim):
        raise CsvFormatError(
            f"{path}: sidecar {side} declares m x d = {declared[0]} x {declared[1]}, "
            f"the CSV holds {ds.size} x {ds.dim}"
        )
    # Each number meets its object's check inside field(), which names the key.
    field = partial(_json_field, meta, path=side, error=CsvFormatError)
    privacy = None
    if meta.get("alpha") is not None:
        alpha = field("alpha", lambda v: PrivacyParams(_number(v)).alpha)
        beta = field("beta", lambda v: PrivacyParams(alpha, _number(v)).beta)
        privacy = PrivacyParams(alpha, beta, field("accounting", Accounting))
    seeds = (field(k, partial(_number, kind=int)) for k in ("seed", "stream"))
    rng = None if meta.get("seed") is None else RngSpec(*seeds)
    kind = field("noise_kind", NoiseKind)
    noise = field("noise_scale", lambda v: NoiseSpec(kind, _number(v)))
    # ds is discarded; its checked read-only arrays need no copy.
    pds = field("sigma_w_diagonal", lambda v: PrivateDataset._adopt(
        z=ds.x, y=ds.y, noise_variance=_number(v), noise=noise, privacy=privacy, rng=rng,
    ))
    # 1e-12 relative: 2 (1/sqrt 2)^2, the Laplace variance of gen_synthetic2, is 1 - 2.2e-16.
    if not math.isclose(pds.noise_variance, noise.per_coordinate_variance, rel_tol=1e-12):
        raise CsvFormatError(
            f"{side}: key 'sigma_w_diagonal': {pds.noise_variance!r} is not the variance "
            f"{noise.per_coordinate_variance!r} of {kind.value} noise at scale {noise.scale!r}"
        )
    # A sidecar with its budget and zeta, as publish writes, must hold the
    # noise that budget calibrates to.
    if privacy is not None and meta.get("zeta") is not None:
        want = field("zeta", lambda v: _calibrate(privacy, _number(v), ds.dim))
        if want.kind is not kind or not math.isclose(noise.scale, want.scale, rel_tol=1e-12):
            key = "noise_kind" if want.kind is not kind else "noise_scale"
            raise CsvFormatError(
                f"{side}: key {key!r}: {kind.value} noise at scale {noise.scale!r} is not the "
                f"{want.kind.value} noise at scale {want.scale!r} that alpha={privacy.alpha!r}, "
                f"beta={privacy.beta!r}, {privacy.accounting.value} accounting and "
                f"zeta={meta['zeta']!r} calibrate"
            )
    return pds
