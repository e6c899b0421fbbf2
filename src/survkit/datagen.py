"""Synthetic benchmark generators, CSV round-tripping, and bound clipping.

Two synthetic families drive the benchmark harness:

* family 1 - standard-normal covariates with near-zero dense coefficients
  for the survey and mean-mu coefficients for the reference population;
  sweeping mu moves the model distance between the two fits.
* family 2 - sparse coefficients (drawn from Unif(1, 10) with probability
  1/sqrt(d), else 0) with covariate noise of matched variance injected from
  either a Gaussian or a Laplace distribution, for light-vs-heavy-tail
  comparisons.  Both kinds transform one shared uniform block, so runs with
  equal RngSpec are paired across kinds.

Distribution parameters follow the convention that the second argument of a
normal law is its VARIANCE.  Generated data is clipped to a 4-sigma
envelope and the clip counts logged, so the declared bounds hold honestly
before any privatization.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _RNG_TAGS, Dataset, ModelBounds, RngSpec, validate_dataset
from .mechanisms import NoiseKind, NoiseSpec, PrivacyParams, Accounting, PrivateDataset
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
        self.theta = np.asarray(theta, dtype=np.float64)
        if self.theta.ndim != 1:
            raise ValueError("theta must be a vector")
        if noise_var < 0 or scale <= 0:
            raise ValueError("noise_var must be >= 0 and scale > 0")
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


def source_from_spec(spec: dict) -> LinearModelSource:
    if spec.get("type") != "linear-model":
        raise ValueError(f"unknown validation generator type {spec.get('type')!r}")
    return LinearModelSource(
        np.asarray(spec["theta"], dtype=np.float64),
        float(spec["noise_var"]),
        spec.get("covariate", "normal"),
        float(spec.get("scale", 1.0)),
    )


def clip_to_bounds(ds: Dataset, zeta: float, tau: float) -> tuple[Dataset, ClipReport]:
    """Clamp covariates to [-zeta, zeta] and responses to [-tau, tau].

    Returns the clipped dataset (validated, with radius carried over) and
    per-column clamp counts.  Idempotent.
    """
    if zeta <= 0 or tau <= 0:
        raise ValueError("zeta and tau must be positive")
    return _clip(ds.x.copy(), ds.y.copy(), ModelBounds(zeta, tau, ds.bounds.radius))


def _clip(x: np.ndarray, y: np.ndarray, bounds: ModelBounds) -> tuple[Dataset, ClipReport]:
    """:func:`clip_to_bounds` for fresh float64 C-contiguous arrays the
    caller gives up: they are clamped in place and the returned dataset
    keeps them, so neither a pre-clip nor a post-clip copy is made."""
    zeta, tau = bounds.zeta, bounds.tau
    cov = np.count_nonzero(x > zeta, axis=0) + np.count_nonzero(x < -zeta, axis=0)
    resp = int(np.count_nonzero(y > tau) + np.count_nonzero(y < -tau))
    np.clip(x, -zeta, zeta, out=x)
    np.clip(y, -tau, tau, out=y)
    out = Dataset._adopt(x, y, bounds)
    validate_dataset(out)
    return out, ClipReport(tuple(int(c) for c in cov), resp)


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


def _envelope_bounds(theta: np.ndarray, reg_noise_var: float) -> tuple[float, float, float]:
    zeta = _ENVELOPE_SIGMAS
    y_sigma = math.sqrt(float(theta @ theta) + reg_noise_var)
    tau = _ENVELOPE_SIGMAS * y_sigma
    return zeta, tau, y_sigma


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
    zeta, tau, _ = _envelope_bounds(theta_s, _REG_NOISE_VAR_1)
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
    both kinds are inverse-CDF transforms of one shared uniform block, so
    the two noisy versions of the same RngSpec are coupled.
    """
    _check_generator_args(d, m)
    if not isinstance(noise_kind, NoiseKind):
        raise ValueError(f"noise_kind must be a NoiseKind, got {noise_kind!r}")
    clean, theta_star, u = _synthetic2_base(d, m, rng)
    return clean, _with_covariate_noise(clean, u, noise_kind, rng), theta_star


def _synthetic2_base(d: int, m: int, rng: RngSpec) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """The part of :func:`gen_synthetic2` that both noise kinds share:
    (clean, theta_star, u), u being the clipped uniform block that
    :func:`_with_covariate_noise` transforms into either kind's noise."""
    gen = rng.derive(_RNG_TAGS["data"])
    theta_star = sparse_coefficients(d, gen)
    x = gen.normal(size=(m, d))
    y = x @ theta_star + gen.normal(0.0, math.sqrt(_REG_NOISE_VAR_2), size=m)
    zeta, tau, _ = _envelope_bounds(theta_star, _REG_NOISE_VAR_2)
    radius = 1.1 * max(1.0, float(np.sum(np.abs(theta_star))))
    clean, clips = _clip(x, y, ModelBounds(zeta, tau, radius))
    if clips.total:
        log.info("family-2 generator clipped %d cells to the 4-sigma envelope", clips.total)
    u = rng.derive(_RNG_TAGS["covariate_noise"]).random(size=(m, d))
    np.clip(u, _U_EPS, 1.0 - _U_EPS, out=u)
    return clean, theta_star, u


def _with_covariate_noise(
    clean: Dataset, u: np.ndarray, kind: NoiseKind, rng: RngSpec
) -> PrivateDataset:
    """``clean`` with the covariate noise of ``kind``, the inverse-CDF
    transform of the uniform block ``u``.  The Laplace transform overwrites
    ``u``, so a caller that needs both kinds builds the Gaussian one first."""
    if kind is NoiseKind.GAUSSIAN:
        # Imported here: scipy.special is the slowest import in the package
        # and this is its only use.
        from scipy.special import ndtri

        w = ndtri(u)
        spec = NoiseSpec(NoiseKind.GAUSSIAN, 1.0)
    else:
        # -scale * sign(u - 0.5) * log1p(-2 |u - 0.5|), one operation at a
        # time in that order, in place.
        scale = 1.0 / math.sqrt(2.0)
        u -= 0.5
        w = np.sign(u)
        w *= -scale
        np.abs(u, out=u)
        u *= -2.0
        np.log1p(u, out=u)
        w *= u
        spec = NoiseSpec(NoiseKind.LAPLACE, scale)
    w += clean.x
    return PrivateDataset._adopt(
        z=w,
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


def _write_rows(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    # A float's repr never needs quoting, so these are the bytes csv.writer
    # would write: comma-separated cells, rows ended by "\r\n".
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_header(x.shape[1])) + "\r\n")
        for start in range(0, y.shape[0], _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            block = np.column_stack((x[start:stop], y[start:stop])).tolist()
            fh.writelines([",".join(map(repr, row)) + "\r\n" for row in block])


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset with header x1,...,xd,y; exact round-trip floats."""
    _write_rows(Path(path), ds.x, ds.y)


def load_csv(path, bounds: ModelBounds | None = None) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    :func:`_read_rows` defines what a dataset file is.  One ``np.loadtxt``
    call reads the plain files quickly and gives up on anything unusual,
    which ``_read_rows`` then reads or rejects, raising
    :class:`CsvFormatError` at the first bad line and column.

    When no bounds are supplied, the envelope of the data itself is
    declared (with radius 1.0 as a placeholder), so validation passes
    trivially; pass explicit bounds for anything privacy-related.
    """
    path = Path(path)
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
    return Dataset(x, y, bounds)


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


def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(".meta.json") if p.suffix == ".csv" else Path(str(p) + ".meta.json")


def save_private(pds: PrivateDataset, path, **extra) -> tuple[Path, Path]:
    """Write a private bundle: the noisy CSV plus a JSON sidecar recording
    the noise specification, the noise covariance diagonal, and provenance,
    plus any ``extra`` JSON-ready fields.  Returns (csv_path, sidecar_path)."""
    path = Path(path)
    _write_rows(path, pds.z, pds.y)
    meta = {
        "noise_kind": pds.noise.kind.value,
        "noise_scale": pds.noise.scale,
        "per_coordinate_variance": pds.noise.per_coordinate_variance,
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
    meta = json.loads(side.read_text(encoding="utf-8"))
    ds = load_csv(path)
    declared = (meta.get("m"), meta.get("d"))
    if declared != (ds.size, ds.dim):
        raise CsvFormatError(
            f"{path}: sidecar {side} declares m x d = {declared[0]} x {declared[1]}, "
            f"the CSV holds {ds.size} x {ds.dim}"
        )
    privacy = None
    if meta.get("alpha") is not None:
        privacy = PrivacyParams(
            alpha=float(meta["alpha"]),
            beta=float(meta["beta"]),
            accounting=Accounting(meta["accounting"]),
        )
    rng = None
    if meta.get("seed") is not None:
        rng = RngSpec(int(meta["seed"]), int(meta.get("stream", 0)))
    # ds is discarded; its read-only arrays need no copy.
    return PrivateDataset._adopt(
        z=ds.x,
        y=ds.y,
        noise_variance=float(meta["sigma_w_diagonal"]),
        noise=NoiseSpec(NoiseKind(meta["noise_kind"]), float(meta["noise_scale"])),
        privacy=privacy,
        rng=rng,
    )
