"""Command-line surface: gen, publish, fit, verify, bounds, sweep.

Exit codes: 0 success (and ACCEPT verdicts), 3 REJECT verdict (verify
only), 1 usage or parse errors, 2 runtime or numeric errors.

Every command echoes a ``manifest`` block (package version, seed, and the
fully resolved configuration) into its JSON output so runs are replayable.
An optional JSON config file (--config) supplies defaults whose keys mirror
the flag names with JSON-native values (numbers, arrays for the grid
flags); explicit flags override the file.  No command reads ambient
entropy: all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, datagen
from .core import Dataset, ModelBounds, RngSpec, validate_dataset
from .datagen import (
    load_csv,
    load_private,
    save_csv,
    save_private,
    source_from_spec,
)
from .mechanisms import Accounting, NoiseKind, PrivacyParams, make_noise_spec, privatize
from .solver import SolverConfig, corrected_moments, moments_from_arrays, solve
from .tester import PooledSource, TestConfig, verify_private_survey, verify_survey
from .sweeps import EXPERIMENTS, SweepSpec, run_sweep
from . import bounds as bnd

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


def _jsonable(v):
    if isinstance(v, Path):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    return v


def _manifest(args: argparse.Namespace) -> dict:
    config = {
        k: _jsonable(v)
        for k, v in sorted(vars(args).items())
        if k not in ("func", "config", "command")
    }
    return {
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "config": config,
    }


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _emit(args, payload: dict) -> None:
    if args.quiet:
        return
    if args.format == "csv":
        for k, v in sorted(payload.items()):
            if not isinstance(v, (dict, list)):
                print(f"{k},{v}")
    else:
        print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# Command handlers

def _cmd_gen(args) -> int:
    _require(args, "kind", "out")
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
    _require(args, "input", "alpha", "zeta")
    raw = load_csv(args.input)
    tau = max(float(np.max(np.abs(raw.y))), 1e-12)
    ds = Dataset(raw.x, raw.y, ModelBounds(args.zeta, tau, 1.0))
    report = validate_dataset(ds)
    if not report.ok:
        first = report.violations[:5]
        raise ValueError(
            f"{len(report.violations)} covariate entries exceed zeta={args.zeta:g} "
            f"(first at row,col {first}); clip explicitly or raise zeta"
        )
    params = PrivacyParams(
        alpha=args.alpha, beta=args.beta, accounting=Accounting(args.accounting)
    )
    spec = make_noise_spec(params, args.zeta, ds.dim)
    pds = privatize(ds, spec, params, RngSpec(args.seed))
    csv_path, side = save_private(pds, args.output, zeta=args.zeta, manifest=_manifest(args))
    _emit(
        args,
        {
            "output": str(csv_path),
            "sidecar": str(side),
            "noise_kind": spec.kind.value,
            "noise_scale": spec.scale,
            "sigma_w_diagonal": spec.per_coordinate_variance,
        },
    )
    return EXIT_OK


def _cmd_fit(args) -> int:
    _require(args, "input")
    if args.mode == "constrained":
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
    payload = {
        "theta_hat": _jsonable(result.theta_hat),
        "iterations": result.iterations,
        "final_objective": result.final_objective,
        "converged": result.converged,
        "gap": result.gap,
        "step_size_used": result.step_size_used,
        "manifest": _manifest(args),
    }
    if args.output:
        _write_json(args.output, payload)
    _emit(args, {"converged": result.converged, "iterations": result.iterations,
                 "gap": result.gap, "final_objective": result.final_objective})
    return EXIT_OK


def _cmd_verify(args) -> int:
    _require(args, "survey", "validation", "tol", "tau", "radius", "zeta")
    bounds = ModelBounds(args.zeta, args.tau, args.radius)
    survey = load_csv(args.survey, bounds)
    if str(args.validation).endswith(".json"):
        spec = json.loads(Path(args.validation).read_text(encoding="utf-8"))
        source = source_from_spec(spec.get("generator", spec))
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
    if args.alpha is not None:
        privacy = PrivacyParams(alpha=args.alpha, beta=args.beta)
        verdict = verify_private_survey(
            survey, source, cfg, privacy, rng, lambda_min=args.lambda_min
        )
    else:
        verdict = verify_survey(survey, source, cfg, rng)
    for note in verdict.notes:
        print(f"survkit: note: {note}", file=sys.stderr)
    payload = {
        "decision": verdict.decision.value,
        "t_used": verdict.t_used,
        "l_hat": verdict.l_hat,
        "gamma_s": verdict.gamma_s,
        "gamma_d": verdict.gamma_d,
        "j_hat": verdict.j_hat,
        "margin": verdict.margin,
        "theta_hat": _jsonable(verdict.theta_hat),
        "loss_bound_form": verdict.loss_bound_form.value,
        "constants": verdict.constants,
        "notes": list(verdict.notes),
        "manifest": _manifest(args),
    }
    if args.output:
        _write_json(args.output, payload)
    _emit(args, {"decision": verdict.decision.value, "margin": verdict.margin})
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def _number(value, constants: dict) -> dict:
    return {"value": value, "side_conditions": {}, "constants_used": constants, "vacuous": False}


def _re_pair(re: bnd.LowerREParams, constants: dict) -> dict:
    payload = _number({"alpha_ell": re.alpha_ell, "tau_md": re.tau_md}, constants)
    payload["side_conditions"] = {"feasible": re.feasible}
    return payload


def _probability(r: bnd.BoundResult, _constants: dict) -> dict:
    return {"value": r.value, "side_conditions": r.side_conditions,
            "constants_used": r.constants, "vacuous": r.vacuous}


# Bound name -> (survkit.bounds function name, flag dests in call order,
# constants reported, result shape).  The dests are the function's parameter
# names, so a bound reads and validates only its own flags.  The function is
# looked up by name at call time, where the traced benchmark (bench/spans.py)
# wraps it.
_BOUNDS = {
    "min-samples-gaussian": (
        "min_samples_gaussian", ("lambda_min", "zeta", "alpha", "beta", "d", "c"), ("c",),
        _number,
    ),
    "min-samples-laplace": (
        "min_samples_laplace", ("lambda_min", "zeta", "alpha", "c_eps", "d"), (), _number
    ),
    "error-bound-gaussian": (
        "error_bound_gaussian",
        ("sigma_eps", "lambda_min", "zeta", "alpha", "beta", "radius", "d", "m", "c2"),
        ("c2",), _number,
    ),
    "error-bound-laplace": (
        "error_bound_laplace",
        ("c_eps", "lambda_min", "zeta", "alpha", "radius", "d", "m", "c2"), ("c2",), _number,
    ),
    "lower-re": ("lower_re_params", ("lambda_min", "c_max", "m", "d", "c1"), ("c1",), _re_pair),
    "subweibull-right-tail": (
        "subweibull_right_tail",
        ("n", "t", "alpha_shape", "c_alpha", "sigma_minus_sq", "beta_split"), (), _probability,
    ),
    "squared-subexp-tail": ("squared_subexp_tail", ("n", "t", "c_x", "c"), (), _probability),
    "one-sided-bernstein": ("one_sided_bernstein", ("n", "t", "second_moment"), (), _probability),
    "matrix-deviation-bound": (
        "matrix_deviation_bound", ("n", "d1", "d2", "c_max", "t", "c"), (), _probability
    ),
    "matrix-deviation-level": (
        "matrix_deviation_level", ("n", "d", "c_max", "c1"), ("c1",), _number
    ),
}


def _bound_dispatch(args) -> dict:
    if args.name not in _BOUNDS:
        raise ValueError(f"unknown bound name {args.name!r}")
    fn_name, reads, constants, shape = _BOUNDS[args.name]
    out = getattr(bnd, fn_name)(*(getattr(args, r) for r in reads))
    return shape(out, {c: getattr(args, c) for c in constants})


def _cmd_bounds(args) -> int:
    _require(args, "name")
    payload = _bound_dispatch(args)
    payload["manifest"] = _manifest(args)
    if args.output:
        _write_json(args.output, payload)
    _emit(args, payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _require(args, "experiment")
    spec = SweepSpec(
        experiment=args.experiment,
        trials=args.trials,
        seed=args.seed,
        output_dir=Path(args.output or "."),
        d=args.d,
        m=args.m,
        mu_grid=args.mu_grid,
        tol_grid=args.tol_grid,
        m_grid=args.m_grid,
        alpha_grid=args.alpha_grid,
        beta=args.beta,
        delta=args.delta,
        kappa=args.kappa,
        workers=args.workers,
    )
    result = run_sweep(spec)
    summary = dict(result.summary)
    summary["manifest"] = _manifest(args)
    result.summary_json.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _emit(args, {"trials_csv": str(result.trials_csv), "summary_json": str(result.summary_json)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly

def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    common.add_argument("--output", default=None, help="output file or directory")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout echo format")
    common.add_argument("--quiet", action="store_true", help="suppress stdout echo")
    common.add_argument("--config", default=None,
                        help="JSON file of defaults; keys mirror the flags")

    parser = _Parser(prog="survkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate synthetic benchmark data")
    p.add_argument("--kind", choices=("synthetic1", "synthetic2"), default=None,
                   help="required")
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--m", type=int, default=10_000)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--noise", choices=("gaussian", "laplace"), default="gaussian")
    p.add_argument("--out", default=None, help="output file prefix (required)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("publish", parents=[common], help="privatize covariates and publish")
    p.add_argument("--input", default=None, help="required")
    p.add_argument("--alpha", type=float, default=None, help="required")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--zeta", type=float, default=None, help="required")
    p.add_argument("--accounting", choices=("per-coord", "whole-record"), default="per-coord")
    p.set_defaults(func=_cmd_publish)

    p = sub.add_parser("fit", parents=[common], help="fit the corrected l1 model")
    p.add_argument("--input", default=None, help="dataset CSV or private bundle CSV (required)")
    p.add_argument("--sigma-w", default="0.0",
                   help="per-coordinate noise variance, or 'from-sidecar'")
    p.add_argument("--mode", choices=("constrained", "lagrangian"), default="constrained")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--lambda", dest="lambda", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", parents=[common], help="run the credibility test")
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
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", parents=[common], help="evaluate a named bound")
    p.add_argument("--name", default=None,
                   help="bound to evaluate (required): " + ", ".join(_BOUNDS))
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--d1", type=int, default=1)
    p.add_argument("--d2", type=int, default=1)
    p.add_argument("--m", type=float, default=1000.0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--lambda-min", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--c-x", type=float, default=1.0)
    p.add_argument("--c-eps", type=float, default=1.0)
    p.add_argument("--c-max", type=float, default=1.0)
    p.add_argument("--sigma-eps", type=float, default=0.0)
    p.add_argument("--sigma-minus-sq", type=float, default=1.0)
    p.add_argument("--alpha-shape", type=float, default=2.0)
    p.add_argument("--c-alpha", type=float, default=1.0)
    p.add_argument("--beta-split", type=float, default=0.5)
    p.add_argument("--second-moment", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", parents=[common], help="run a seeded experiment grid")
    p.add_argument("--experiment", default=None, choices=tuple(EXPERIMENTS), help="required")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--m", type=int, default=10_000)
    p.add_argument("--mu-grid", type=_floats, default=(0.0, 0.5, 1.0, 1.5, 2.0))
    p.add_argument("--tol-grid", type=_floats, default=(0.1, 0.2))
    p.add_argument("--m-grid", type=_ints, default=(1_000, 3_000, 10_000, 30_000, 100_000))
    p.add_argument("--alpha-grid", type=_floats, default=(2.0,))
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    return parser


def _merge_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Apply config-file values to every known flag not given explicitly."""
    conf = json.loads(Path(args.config).read_text(encoding="utf-8"))
    explicit = {
        tok.split("=", 1)[0][2:].replace("-", "_")
        for tok in argv
        if tok.startswith("--")
    }
    for key, value in conf.items():
        dest = key.replace("-", "_")
        if dest in explicit or not hasattr(args, dest):
            continue
        if isinstance(value, list):
            value = tuple(value)
        setattr(args, dest, value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _merge_config(args, argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"survkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"survkit: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
