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
normal law is its VARIANCE.  Both families draw their survey rows from a
:class:`LinearModelSource` and clip them to its 4-sigma envelope, so the
declared bounds hold honestly before any privatization.
Data inside the envelope is left untouched; the clip counts, taken only
from the cells outside it, are logged.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import logging
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import _read_json_object, _write_json
from .core import _RNG_TAGS, Dataset, ModelBounds, RngSpec, ValidationSource, _rows, _within
# Not called here; bench/spans.py wraps it at this binding site (see test_bench_bindings).
from .core import validate_dataset  # noqa: F401
from .mechanisms import (
    NoiseKind, NoiseSpec, PrivacyParams, Accounting, PrivateDataset, _calibrate,
)

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

    def envelope(self) -> tuple[float, float]:
        """(zeta, tau): a bound on every covariate, 4 sigma of a normal one
        and the bound of a uniform one, and 4 sigma of the response."""
        normal = self.covariate == "normal"
        spread = float(self.theta @ self.theta) * self.scale * self.scale / (1.0 if normal else 3.0)
        zeta = _ENVELOPE_SIGMAS * self.scale if normal else self.scale
        return zeta, _ENVELOPE_SIGMAS * math.sqrt(spread + self.noise_var)

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
    source = LinearModelSource(theta_s, _REG_NOISE_VAR_1)
    radius = max(1.0, 1.5 * float(np.sum(np.abs(theta_s))))
    survey, clips = _clip(*source.draw(m_survey, gen), ModelBounds(*source.envelope(), radius))
    if clips.total:
        log.info("family-1 generator clipped %d cells to the 4-sigma envelope", clips.total)
    return survey, theta_s, theta_star, LinearModelSource(theta_star, _REG_NOISE_VAR_1)


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
    clean, theta_star = _sparse_survey(d, m, rng)
    return clean, _with_covariate_noise(clean, noise_kind, rng), theta_star


def _sparse_survey(
    d: int, m: int, rng: RngSpec, covariate: str = "normal"
) -> tuple[Dataset, np.ndarray]:
    """(survey, theta_star): ``m`` rows of a sparse linear model with
    ``covariate`` covariates and unit-variance regression noise, clipped to
    its envelope.  :func:`gen_synthetic2` adds either kind of covariate
    noise to a normal one with :func:`_with_covariate_noise`; the
    error-vs-samples sweep privatizes a uniform one."""
    gen = rng.derive(_RNG_TAGS["data"])
    theta_star = sparse_coefficients(d, gen)
    source = LinearModelSource(theta_star, _REG_NOISE_VAR_2, covariate)
    radius = 1.1 * max(1.0, float(np.sum(np.abs(theta_star))))
    survey, clips = _clip(*source.draw(m, gen), ModelBounds(*source.envelope(), radius))
    if clips.total:
        log.info("sparse-model generator clipped %d cells to the envelope", clips.total)
    return survey, theta_star


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
    return PrivateDataset._adopt(z=u, y=clean.y, noise=spec, privacy=None, rng=rng)


# ---------------------------------------------------------------------------
# File formats

# Rows formatted per block: enough to amortise the per-block calls, few
# enough that a block's bytes, held about twice while its rows are split
# and joined, stay small next to the arrays (about 222,000 bytes at d = 10).
_WRITE_BLOCK_ROWS = 1024


def _header(d: int) -> list[str]:
    return [f"x{i + 1}" for i in range(d)] + ["y"]


def _write_csv(path, header: list[str], chunks) -> bytes:
    """Write ``header`` as csv.writer would (comma-separated, CRLF-ended,
    UTF-8), then ``chunks``: byte strings holding whole rows in that form.
    Each chunk is hashed on its way to the file, so the file is never read
    back: returns the SHA-256 of the bytes written."""
    import hashlib  # here: importing survkit.cli loads no OpenSSL

    digest = hashlib.sha256()
    with Path(path).open("wb") as fh:
        for chunk in itertools.chain([(",".join(header) + "\r\n").encode("utf-8")], chunks):
            digest.update(chunk)
            fh.write(chunk)
            del chunk  # freed before the next chunk is formatted
    return digest.digest()


def _block_text(block: np.ndarray) -> bytes:
    """The CSV rows of the C-ordered float64 ``block``, each CRLF-ended:
    every cell is its float's repr, the shortest text that reads back
    exactly.

    One orjson call formats the block, with repr's digits wherever repr
    writes no exponent: zero and 1e-4 <= |v| < 1e16.  A row holding any
    other cell is formatted again by repr, cell by cell."""
    import orjson  # here: only a dataset write loads it

    a = np.abs(block)
    by_repr = np.flatnonzero(~(((a >= 1e-4) & (a < 1e16)) | (a == 0)).all(axis=1)).tolist()
    del a
    # b"[[1.0,2.0],[3.0,4.0]]" -> [b"1.0,2.0", b"3.0,4.0"]
    rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).split(b"],[")
    rows[0] = rows[0][2:]
    rows[-1] = rows[-1][:-2]
    for j in by_repr:
        rows[j] = ",".join(map(repr, block[j].tolist())).encode("utf-8")
    rows.append(b"")
    return b"\r\n".join(rows)


def _write_rows(path, x: np.ndarray, y: np.ndarray) -> None:
    """Write the dataset CSV of ``x`` and ``y``, then its twin (see :func:`_read_twin`)."""
    b = _WRITE_BLOCK_ROWS
    blocks = (np.column_stack((x[i:i + b], y[i:i + b])) for i in range(0, len(y), b))
    digest = _write_csv(path, _header(x.shape[1]), map(_block_text, blocks))
    if Path(path).is_file():  # not, say, /dev/null
        # The twin only saves a parse: one that cannot be written is left
        # out, and a partial one fails its read.
        with contextlib.suppress(OSError), _twin_path(path).open("wb") as fh:
            for a in (np.frombuffer(digest, np.uint8), x, y):
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
        # max(a.max(), -a.min()) is max |a| without an |a| temporary.
        zeta = max(float(x.max()), -float(x.min()), 1e-12)
        tau = max(float(y.max()), -float(y.min()), 1e-12)
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
    """The SHA-256 of the file's bytes, read through one reused 64 KiB buffer."""
    import hashlib  # here: importing survkit.cli loads no OpenSSL

    digest, buf = hashlib.sha256(), bytearray(1 << 16)
    view = memoryview(buf)
    with Path(path).open("rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.digest()


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
    # 1e-12 relative: older gen_synthetic2 sidecars record 1.0 for the Laplace
    # variance 2 (1/sqrt 2)^2 = 1 - 2.2e-16.
    recorded = field("sigma_w_diagonal", _number)
    if not math.isclose(recorded, noise.per_coordinate_variance, rel_tol=1e-12):
        raise CsvFormatError(
            f"{side}: key 'sigma_w_diagonal': {recorded!r} is not the variance "
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
    # ds is discarded; its checked read-only arrays need no copy.
    return PrivateDataset._adopt(z=ds.x, y=ds.y, noise=noise, privacy=privacy, rng=rng)
