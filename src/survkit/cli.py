"""Command-line surface: gen, publish, fit, verify, bounds, sweep.

Exit codes: 0 success (and ACCEPT verdicts), 3 REJECT verdict (verify
only), 1 usage or parse errors, 2 runtime or numeric errors.

Every command echoes a ``manifest`` block (package version, seed, and the
fully resolved configuration) into its JSON output so runs are replayable.
An optional JSON config file (--config) supplies defaults whose keys mirror
the flag names; its values are parsed exactly like flags (see
_config_argv), and explicit flags override the file.  No command reads
ambient entropy: all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import inspect
import json
import sys
from pathlib import Path

from . import __version__, _check, _read_json_object, _write_json

# The functions a handler calls through this module, each resolved through the
# package's exports on first use (module __getattr__), so a command loads only
# the modules it runs.  Handlers look them up here at call time (_bound), where
# the traced benchmark (bench/spans.py) wraps them; validate_dataset is only wrapped.
_BINDINGS = ("load_csv", "load_private", "save_csv", "save_private", "validate_dataset",
             "privatize", "corrected_moments", "moments_from_arrays", "solve",
             "verify_survey", "verify_private_survey", "run_sweep")


def __getattr__(name: str):
    if name not in _BINDINGS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _bound(*names: str) -> tuple:
    """The functions bound to ``names`` here, the tracer's wrappers included."""
    return tuple(getattr(sys.modules[__name__], name) for name in names)


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_REJECT = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Missing or inconsistent flags after config-file merging."""


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise _UsageError(f"{args.command}: missing required flag(s): {flags}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _sigma_w(text: str) -> str:
    """``--sigma-w``: 'from-sidecar' or a finite number >= 0, kept as typed
    so the manifest echoes it unchanged."""
    try:
        if text != "from-sidecar":
            _check("non-negative", sigma_w=float(text))
        return text
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'from-sidecar' or a finite number >= 0, got {text!r}") from None


def _jsonable(v):
    if isinstance(v, enum.Enum):
        return v.value
    np = sys.modules.get("numpy")  # no array exists before numpy is loaded
    if np is not None and isinstance(v, np.ndarray):
        return [float(x) for x in v]
    return v


def _manifest(args: argparse.Namespace) -> dict:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config", "command")
    }
    return {
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "config": config,
    }


def _record(result, args: argparse.Namespace) -> dict:
    """The JSON of a result dataclass: each of its fields plus the manifest."""
    return {**{k: _jsonable(v) for k, v in vars(result).items()}, "manifest": _manifest(args)}


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------
# Command handlers

def _cmd_gen(args) -> int:
    from . import datagen
    from .core import RngSpec
    from .mechanisms import NoiseKind
    _require(args, "kind", "out")
    save_csv, save_private = _bound("save_csv", "save_private")
    rng = RngSpec(args.seed)
    prefix = str(args.out)
    files = []
    # The generators are looked up on their module at call time, where the
    # traced benchmark (bench/spans.py) wraps them.
    if args.kind == "synthetic1":
        survey, theta_s, theta_star, sampler = datagen.gen_synthetic1(
            args.d, args.m, args.mu, rng
        )
        save_csv(survey, f"{prefix}_survey.csv")
        _write_json(
            f"{prefix}_validation.json",
            {"generator": sampler.spec_dict(), "manifest": _manifest(args)},
        )
        files += [f"{prefix}_survey.csv", f"{prefix}_validation.json"]
        truth = {"theta_s": _jsonable(theta_s)}
    else:
        survey, noisy, theta_star = datagen.gen_synthetic2(
            args.d, args.m, NoiseKind(args.noise), rng
        )
        save_csv(survey, f"{prefix}_clean.csv")
        csv_path, side = save_private(noisy, f"{prefix}_noisy.csv")
        files += [f"{prefix}_clean.csv", str(csv_path), str(side)]
        truth = {}
    b = survey.bounds
    truth["theta_star"] = _jsonable(theta_star)
    truth["bounds"] = {"zeta": b.zeta, "tau": b.tau, "radius": b.radius}
    truth["manifest"] = _manifest(args)
    _write_json(f"{prefix}_truth.json", truth)
    files.append(f"{prefix}_truth.json")
    _emit(args, {"files": files})
    return EXIT_OK


def _cmd_publish(args) -> int:
    from .core import Dataset, ModelBounds
    from .mechanisms import Accounting
    _require(args, "input", "alpha", "zeta")
    load_csv, save_private = _bound("load_csv", "save_private")
    raw = load_csv(args.input)
    # tau and the placeholder radius are the envelope load_csv declares.
    bounds = ModelBounds(args.zeta, raw.bounds.tau, raw.bounds.radius)
    # privatize rejects covariates outside zeta, naming the first few.
    pds = _privatize(Dataset._adopt(raw.x, raw.y, bounds), args, Accounting(args.accounting))
    del raw  # the clear covariates are freed before the bundle is written
    csv_path, side = save_private(pds, args.output, zeta=args.zeta, manifest=_manifest(args))
    _emit(args, {"output": str(csv_path), "sidecar": str(side),
                 "noise_kind": pds.noise.kind.value, "noise_scale": pds.noise.scale,
                 "sigma_w_diagonal": pds.noise_variance})
    return EXIT_OK


def _privatize(ds, args, accounting):
    """The publication step of ``publish`` and ``verify --alpha``: ``ds`` privatized
    at --alpha and --beta under ``accounting``, calibrated to its zeta, noise from --seed."""
    from .core import RngSpec
    from .mechanisms import PrivacyParams, make_noise_spec
    (privatize,) = _bound("privatize")
    params = PrivacyParams(args.alpha, args.beta, accounting)
    spec = make_noise_spec(params, ds.bounds.zeta, ds.dim)
    return privatize(ds, spec, params, RngSpec(args.seed))


def _cmd_fit(args) -> int:
    from .solver import SolverConfig
    _require(args, "input")
    load_csv, load_private, corrected_moments, moments_from_arrays, solve = _bound(
        "load_csv", "load_private", "corrected_moments", "moments_from_arrays", "solve")
    # Noise-corrected moments can be indefinite; the corrected Lasso then
    # needs its l1 side constraint in Lagrangian mode too.
    if args.mode == "constrained" or args.sigma_w == "from-sidecar" or float(args.sigma_w):
        _require(args, "radius")
    if args.sigma_w == "from-sidecar":
        moments = corrected_moments(load_private(args.input))
    else:
        ds = load_csv(args.input)
        moments = moments_from_arrays(ds.x, ds.y, float(args.sigma_w))
    config = SolverConfig(
        mode=args.mode,
        radius=args.radius,
        lambda_n=getattr(args, "lambda"),
        max_iter=args.max_iter,
        tol=args.tol,
    )
    result = solve(moments, config)
    if args.output:
        _write_json(args.output, _record(result, args))
    _emit(args, {"converged": result.converged, "iterations": result.iterations,
                 "gap": result.gap, "final_objective": result.final_objective})
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .core import ModelBounds, RngSpec
    from .datagen import source_from_spec
    from .mechanisms import Accounting
    from .tester import PooledSource, TestConfig
    _require(args, "survey", "validation", "tol", "tau", "radius", "zeta")
    load_csv, verify_survey, verify_private_survey = _bound(
        "load_csv", "verify_survey", "verify_private_survey")
    if args.alpha is None and (args.beta or args.lambda_min is not None):
        raise _UsageError("verify: --beta and --lambda-min apply only with --alpha")
    bounds = ModelBounds(args.zeta, args.tau, args.radius)
    survey = load_csv(args.survey, bounds)
    if str(args.validation).endswith(".json"):
        spec = _read_json_object(args.validation, "validation spec")
        source = source_from_spec(spec.get("generator", spec), args.validation)
        kind, dim = "generator", source.theta.shape[0]
    else:
        pool = load_csv(args.validation)
        source = PooledSource(pool.x, pool.y)
        kind, dim = "pool", pool.dim
    if dim != survey.dim:
        raise ValueError(
            f"validation {kind} {args.validation} has d = {dim}, "
            f"survey {args.survey} has d = {survey.dim}"
        )
    cfg = TestConfig(kappa=args.kappa, tol=args.tol, delta=args.delta, bounds=bounds)
    rng = RngSpec(args.seed)
    if args.alpha is None:
        verdict = verify_survey(survey, source, cfg, rng)
    else:
        pds = _privatize(survey, args, Accounting.PER_COORDINATE)
        del survey  # the clear covariates are freed before the test runs
        verdict = verify_private_survey(pds, source, cfg, rng, lambda_min=args.lambda_min)
    for note in verdict.notes:
        print(f"survkit: note: {note}", file=sys.stderr)
    if args.output:
        _write_json(args.output, _record(verdict, args))
    _emit(args, {"decision": verdict.decision.value, "margin": verdict.margin})
    return EXIT_OK if verdict.accepted else EXIT_REJECT


# Bound name -> survkit.bounds function name.  The bounds flags are these
# functions' parameters, each typed by its annotation.  A bound reads the
# flags named as its parameters, so it validates only its own flags, and
# reports the parameters with a default as its constants.  The function is
# looked up by name at call time, where the traced benchmark
# (bench/spans.py) wraps it; inspect.signature sees through that wrapper.
_BOUNDS = {
    "min-samples-gaussian": "min_samples_gaussian",
    "min-samples-laplace": "min_samples_laplace",
    "error-bound-gaussian": "error_bound_gaussian",
    "error-bound-laplace": "error_bound_laplace",
    "lower-re": "lower_re_params",
    "subweibull-right-tail": "subweibull_right_tail",
    "squared-subexp-tail": "squared_subexp_tail",
    "one-sided-bernstein": "one_sided_bernstein",
    "matrix-deviation-bound": "matrix_deviation_bound",
    "matrix-deviation-level": "matrix_deviation_level",
}

# The default of each bounds flag whose parameter has no default of its own.
_BOUND_DEFAULTS = {
    "zeta": 1.0, "alpha": 1.0, "beta": 0.1, "d": 2, "d1": 1, "d2": 1, "m": 1000.0,
    "n": 1000, "t": 0.1, "radius": 1.0, "lambda_min": 1.0, "c_x": 1.0, "c_eps": 1.0,
    "c_max": 1.0, "sigma_eps": 0.0, "sigma_minus_sq": 1.0, "alpha_shape": 2.0,
    "c_alpha": 1.0, "second_moment": 1.0,
}


def _bound_dispatch(args) -> dict:
    from . import bounds as bnd
    fn = getattr(bnd, _BOUNDS[args.name])
    params = inspect.signature(fn).parameters
    out = fn(*(getattr(args, p) for p in params))
    if isinstance(out, bnd.BoundResult):
        return {"value": out.value, "side_conditions": out.side_conditions,
                "constants_used": out.constants, "vacuous": out.vacuous}
    side = {}
    if isinstance(out, bnd.LowerREParams):
        out, side = {"alpha_ell": out.alpha_ell, "tau_md": out.tau_md}, {"feasible": out.feasible}
    constants = {p: getattr(args, p) for p, v in params.items() if v.default is not v.empty}
    return {"value": out, "side_conditions": side, "constants_used": constants, "vacuous": False}


def _cmd_bounds(args) -> int:
    _require(args, "name")
    payload = _bound_dispatch(args)
    payload["manifest"] = _manifest(args)
    if args.output:
        _write_json(args.output, payload)
    _emit(args, payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .sweeps import SweepSpec
    _require(args, "experiment")
    (run_sweep,) = _bound("run_sweep")
    names = [f.name for f in dataclasses.fields(SweepSpec) if f.name != "output_dir"]
    spec = SweepSpec(output_dir=Path(args.output or "."), **{n: getattr(args, n) for n in names})
    result = run_sweep(spec, manifest=_manifest(args))
    _emit(args, {"trials_csv": str(result.trials_csv), "summary_json": str(result.summary_json)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly

# The SweepSpec fields with a flag of their own, and each flag's parser; the
# flags' defaults are SweepSpec's.
_SWEEP_FLAGS = {
    "d": int, "m": int, "mu_grid": _floats, "tol_grid": _floats, "m_grid": _ints,
    "alpha_grid": _floats, "beta": float, "delta": float, "kappa": float, "workers": int,
}


def _gen_flags(p: _Parser) -> None:
    from .mechanisms import NoiseKind
    p.add_argument("--kind", choices=("synthetic1", "synthetic2"), default=None,
                   help="required")
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--m", type=int, default=10_000)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--noise", choices=[k.value for k in NoiseKind],
                   default=NoiseKind.GAUSSIAN.value)
    p.add_argument("--out", default=None, help="output file prefix (required)")


def _publish_flags(p: _Parser) -> None:
    from .mechanisms import Accounting
    p.add_argument("--input", default=None, help="required")
    p.add_argument("--alpha", type=float, default=None, help="required")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--zeta", type=float, default=None, help="required")
    p.add_argument("--accounting", choices=[a.value for a in Accounting],
                   default=Accounting.PER_COORDINATE.value,
                   help="per-coord: each coordinate is alpha-LDP, so a record of d coordinates "
                        "is d*alpha-LDP (Laplace) or (d*alpha, d*beta)-LDP (Gaussian) by basic "
                        "composition; whole-record: each record is alpha-LDP (or (alpha, "
                        "beta)-LDP), with d times the Laplace scale or sqrt(d) times the sigma")


def _fit_flags(p: _Parser) -> None:
    from .solver import _MODES, SolverConfig
    defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    p.add_argument("--input", default=None, help="dataset CSV or private bundle CSV (required)")
    p.add_argument("--sigma-w", type=_sigma_w, default="0.0",
                   help="per-coordinate noise variance, or 'from-sidecar'")
    p.add_argument("--mode", choices=_MODES, default=defaults["mode"])
    p.add_argument("--radius", type=float, default=defaults["radius"])
    p.add_argument("--lambda", dest="lambda", type=float, default=defaults["lambda_n"])
    p.add_argument("--max-iter", type=int, default=defaults["max_iter"])
    p.add_argument("--tol", type=float, default=defaults["tol"])


def _verify_flags(p: _Parser) -> None:
    p.add_argument("--survey", default=None, help="required")
    p.add_argument("--validation", default=None,
                   help="CSV pool or generator-spec JSON (required)")
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=None, help="required")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=None, help="required")
    p.add_argument("--radius", type=float, default=None, help="required")
    p.add_argument("--zeta", type=float, default=None, help="required")
    p.add_argument("--alpha", type=float, default=None, help="enable private mode")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--lambda-min", type=float, default=None)


def _bounds_flags(p: _Parser) -> None:
    from . import bounds as bnd
    p.add_argument("--name", default=None, choices=tuple(_BOUNDS), help="required")
    params = {q.name: q for fn in _BOUNDS.values()
              for q in inspect.signature(getattr(bnd, fn)).parameters.values()}
    for name, q in params.items():
        default = _BOUND_DEFAULTS[name] if q.default is q.empty else q.default
        # bounds.py postpones annotations, so each one is the string "int" or "float".
        kind = {"int": int, "float": float}[q.annotation]
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=default)


def _sweep_flags(p: _Parser) -> None:
    from .sweeps import EXPERIMENTS, SweepSpec
    p.add_argument("--experiment", default=None, choices=tuple(EXPERIMENTS), help="required")
    p.add_argument("--trials", type=int, default=20)
    defaults = {f.name: f.default for f in dataclasses.fields(SweepSpec)}
    for name, parse in _SWEEP_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=parse, default=defaults[name])


# Subcommand -> (help, the function adding its own flags, handler).  Each
# flag function imports the tables its choices and defaults come from.
_COMMANDS = {
    "gen": ("generate synthetic benchmark data", _gen_flags, _cmd_gen),
    "publish": ("privatize covariates and publish", _publish_flags, _cmd_publish),
    "fit": ("fit the corrected l1 model", _fit_flags, _cmd_fit),
    "verify": ("run the credibility test", _verify_flags, _cmd_verify),
    "bounds": ("evaluate a named bound", _bounds_flags, _cmd_bounds),
    "sweep": ("run a seeded experiment grid", _sweep_flags, _cmd_sweep),
}


def build_parser(command: str | None = None) -> _Parser:
    """The survkit parser with every subcommand or, given ``command``, that
    one alone, which loads only the modules its flags read."""
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    common.add_argument("--output", default=None, help="output file or directory")
    common.add_argument("--quiet", action="store_true", help="suppress stdout echo")
    common.add_argument("--config", default=None,
                        help="JSON file of defaults; keys mirror the flags")

    parser = _Parser(prog="survkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_flags, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, parents=[common], help=help_)
            add_flags(p)
            p.set_defaults(func=handler)
    return parser


def _config_argv(args: argparse.Namespace, argv: list[str]) -> list[str]:
    """argv with the config file's entries spelled as flags right after the
    subcommand, so argparse parses them like typed flags and an explicit
    flag, coming later, wins.  A list joins with commas, true is the bare
    flag, false and null are left out; a key that names no flag of the
    subcommand is ignored.  Every flag is spelled --<dest with dashes>."""
    conf = _read_json_object(args.config, "config file")
    tokens = []
    for key, value in conf.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config", "func") or not hasattr(args, dest):
            continue
        flag = "--" + dest.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False and value is not None:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            tokens.append(f"{flag}={value}")
    return [argv[0], *tokens, *argv[1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A subcommand is always the first argument; anything else (--help, a
    # typo) gets the full parser, which lists every subcommand.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_argv(args, argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:  # an unreadable or malformed config file
        print(f"survkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # A non-finite float flag is refused before the command runs: the
        # manifest echoes every flag, read or not, and JSON has no nan or inf.
        _check("finite", **{f"--{k.replace('_', '-')}": v for k, v in sorted(vars(args).items())
                            if isinstance(v, float)})
        return args.func(args)
    except _UsageError as exc:
        print(f"survkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"survkit: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
