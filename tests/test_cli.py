import argparse
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from survkit import (
    Dataset, ModelBounds, RngSpec, SolveResult, SweepSpec, TestConfig, Verdict, load_private,
    run_sweep, save_csv, validation_sample_size, verify_private_survey,
)
from survkit import bounds as bnd
from survkit.cli import (
    _BOUNDS, _COMMANDS, EXIT_OK, EXIT_REJECT, EXIT_RUNTIME, EXIT_USAGE, _jsonable, build_parser,
    main,
)
from survkit.datagen import source_from_spec
from test_bench_bindings import _load_bindings

_SRC = Path(bnd.__file__).resolve().parents[1]


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def survey_files(tmp_path):
    """Generated family-1 survey + validation spec + truth, close regime."""
    prefix = tmp_path / "close"
    assert run(
        "gen", "--kind", "synthetic1", "--d", "6", "--m", "3000",
        "--mu", "0.0", "--seed", "11", "--out", str(prefix), "--quiet",
    ) == EXIT_OK
    return prefix


def _truth(prefix):
    return json.loads(Path(f"{prefix}_truth.json").read_text())


def _rejection(flag: str, value: str, message: str) -> str:
    """The error for ``flag value``: a non-finite float is rejected by
    ``main`` before the command runs, anything else by the command's own
    check with ``message``."""
    if value in ("nan", "inf"):
        return f"survkit: error: {flag} must be finite\n"
    return message


def _field_names(result_type) -> set[str]:
    return {f.name for f in dataclasses.fields(result_type)}


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("fit", "--nonsense") == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("gen", "--kind", "synthetic1") == EXIT_USAGE
        assert "missing required" in capsys.readouterr().err

    def test_runtime_error_is_two(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert run("fit", "--input", str(missing), "--radius", "1", "--quiet") == EXIT_RUNTIME


class TestGen:
    def test_synthetic1_files(self, survey_files):
        prefix = survey_files
        assert Path(f"{prefix}_survey.csv").exists()
        spec = json.loads(Path(f"{prefix}_validation.json").read_text())
        assert spec["generator"]["type"] == "linear-model"
        truth = _truth(prefix)
        assert len(truth["theta_s"]) == 6
        assert truth["manifest"]["command"] == "gen"

    def test_synthetic2_files(self, tmp_path):
        prefix = tmp_path / "s2"
        assert run(
            "gen", "--kind", "synthetic2", "--d", "4", "--m", "200",
            "--noise", "laplace", "--seed", "3", "--out", str(prefix), "--quiet",
        ) == EXIT_OK
        assert Path(f"{prefix}_clean.csv").exists()
        assert Path(f"{prefix}_noisy.csv").exists()
        meta = json.loads(Path(f"{prefix}_noisy.meta.json").read_text())
        assert meta["noise_kind"] == "laplace"


class TestPublishAndFit:
    def test_publish_fit_pipeline(self, tmp_path):
        gen = np.random.default_rng(0)
        x = gen.uniform(-1, 1, size=(2000, 3))
        theta = np.array([1.0, -0.5, 0.0])
        y = x @ theta + 0.05 * gen.normal(size=2000)
        src = tmp_path / "data.csv"
        save_csv(Dataset(x, y, ModelBounds(1, 10, 2)), src)

        out = tmp_path / "published.csv"
        assert run(
            "publish", "--input", str(src), "--output", str(out),
            "--alpha", "4.0", "--zeta", "1.0", "--seed", "5", "--quiet",
        ) == EXIT_OK
        meta = json.loads((tmp_path / "published.meta.json").read_text())
        assert meta["noise_kind"] == "laplace"
        assert meta["sigma_w_diagonal"] == pytest.approx(8 * 1.0 / 16.0)
        assert meta["manifest"]["command"] == "publish"

        fit_out = tmp_path / "fit.json"
        assert run(
            "fit", "--input", str(out), "--sigma-w", "from-sidecar",
            "--radius", "3.0", "--output", str(fit_out), "--quiet",
        ) == EXIT_OK
        result = json.loads(fit_out.read_text())
        assert result["converged"]
        assert abs(result["gap"]) < 1e-6  # the certified gap behind "converged"
        assert isinstance(result["polished"], bool)
        got = np.array(result["theta_hat"])
        assert np.linalg.norm(got - theta) < 0.25

    def test_publish_holds_at_most_the_clear_and_the_noisy_covariates(self, tmp_path):
        # m = 3e4, d = 10, as in the benchmark: the clear x is freed once
        # privatized, before the bundle is written.
        m, d = 30_000, 10
        gen = np.random.default_rng(27)
        src = tmp_path / "data.csv"
        save_csv(Dataset(gen.uniform(-1, 1, size=(m, d)), gen.normal(size=m),
                         ModelBounds(1, 10, 1)), src)
        argv = ("publish", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                "--alpha", "2.0", "--zeta", "1.0", "--seed", "3", "--quiet")
        assert run(*argv) == EXIT_OK  # imports and first calls, untraced
        tracemalloc.start()
        try:
            assert run(*argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * m * d * 8 + 1_500_000, peak

    def test_publish_rejects_out_of_bounds(self, tmp_path):
        src = tmp_path / "wide.csv"
        save_csv(Dataset([[5.0]], [0.0], ModelBounds(10, 1, 1)), src)
        code = run(
            "publish", "--input", str(src), "--output", str(tmp_path / "o.csv"),
            "--alpha", "1.0", "--zeta", "1.0", "--quiet",
        )
        assert code == EXIT_RUNTIME

    def test_publish_names_the_first_cells_outside_zeta(self, tmp_path, capsys):
        src = tmp_path / "wide.csv"
        x = np.full((3, 3), 2.0)
        x[0, 1], x[2, 2] = 0.5, -3.0
        save_csv(Dataset(x, np.zeros(3), ModelBounds(10, 1, 1)), src)
        code = run("publish", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                   "--alpha", "1.0", "--zeta", "1.0", "--quiet")
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "survkit: error: covariates exceed zeta = 1; 8 entries lie outside, the first at "
            "(row, col) [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)]; clip explicitly or raise zeta\n"
        )
        assert not (tmp_path / "o.csv").exists()

    def test_fit_from_sidecar_without_one(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        save_csv(Dataset(np.zeros((5, 2)), np.zeros(5), ModelBounds(1, 1, 1)), src)
        code = run("fit", "--input", str(src), "--sigma-w", "from-sidecar",
                   "--radius", "1.0", "--quiet")
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"survkit: error: {src}: missing sidecar {tmp_path / 'data.meta.json'}\n"
        )

    @pytest.mark.parametrize("sidecar, message", [
        ({"sigma_w_diagonal": "drop"}, "missing key 'sigma_w_diagonal'"),
        ({"beta": None}, "key 'beta': expected a JSON number, got None"),
        # Only JSON numbers, and only integers for the seed: nothing is cast.
        ({"noise_scale": "0.5"}, "key 'noise_scale': expected a JSON number, got '0.5'"),
        ({"alpha": True}, "key 'alpha': expected a JSON number, got True"),
        ({"seed": 2.7}, "key 'seed': seed must be an unsigned 64-bit integer"),
        ({"seed": 7, "stream": "0"}, "key 'stream': stream must be a non-negative integer"),
        ({"noise_kind": "uniform"}, "key 'noise_kind': 'uniform' is not a valid NoiseKind"),
        # An edited variance, finite or not, is not the noise the sidecar declares.
        ({"sigma_w_diagonal": math.nan},
         "key 'sigma_w_diagonal': nan is not the variance 8.0 of laplace noise at scale 2.0"),
        ({"sigma_w_diagonal": 2.5},
         "key 'sigma_w_diagonal': 2.5 is not the variance 8.0 of laplace noise at scale 2.0"),
        # JSON numbers out of range meet their object's check, named by the key.
        ({"noise_scale": math.inf},
         "key 'noise_scale': scale must be non-negative"),
        ({"alpha": math.nan}, "key 'alpha': alpha must be positive"),
        ({"beta": -1}, "key 'beta': beta must be in [0, 1)"),
        ([1, 2], "must hold a JSON object"),
        ("{", "Expecting property name"),  # not JSON at all
    ])
    def test_fit_from_malformed_sidecar(self, tmp_path, capsys, sidecar, message):
        src, out = tmp_path / "data.csv", tmp_path / "pub.csv"
        save_csv(Dataset(np.full((5, 2), 0.5), np.zeros(5), ModelBounds(1, 1, 1)), src)
        assert run("publish", "--input", str(src), "--output", str(out),
                   "--alpha", "1.0", "--zeta", "1.0", "--quiet") == EXIT_OK
        side = tmp_path / "pub.meta.json"
        if isinstance(sidecar, dict):
            meta = json.loads(side.read_text())
            meta.update(sidecar)
            sidecar = {k: v for k, v in meta.items() if v != "drop"}
        side.write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar))
        code = run("fit", "--input", str(out), "--sigma-w", "from-sidecar",
                   "--radius", "1.0", "--quiet")
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err.startswith("survkit: error: ") and str(side) in err and message in err

    def test_fit_clean_csv_with_explicit_sigma(self, tmp_path):
        gen = np.random.default_rng(1)
        x = gen.normal(size=(500, 2))
        y = x @ np.array([2.0, 1.0])
        src = tmp_path / "clean.csv"
        save_csv(Dataset(x, y, ModelBounds(10, 50, 5)), src)
        out = tmp_path / "fit.json"
        assert run(
            "fit", "--input", str(src), "--sigma-w", "0.0",
            "--radius", "5.0", "--output", str(out), "--quiet",
        ) == EXIT_OK
        payload = json.loads(out.read_text())
        assert np.allclose(payload["theta_hat"], [2.0, 1.0], atol=1e-4)
        assert set(payload) == _field_names(SolveResult) | {"manifest"}

    @pytest.mark.parametrize("sigma_w", ["from-sidecar", "0.5"])
    def test_lagrangian_fit_on_corrected_moments_requires_radius(
        self, survey_files, tmp_path, sigma_w, capsys
    ):
        pub = tmp_path / "pub.csv"
        assert run("publish", "--input", f"{survey_files}_survey.csv", "--output", str(pub),
                   "--alpha", "2.0", "--zeta", str(_truth(survey_files)["bounds"]["zeta"]),
                   "--seed", "7", "--quiet") == EXIT_OK
        assert run("fit", "--input", str(pub), "--sigma-w", sigma_w,
                   "--mode", "lagrangian", "--quiet") == EXIT_USAGE
        assert "--radius" in capsys.readouterr().err
        assert run("fit", "--input", str(pub), "--sigma-w", sigma_w, "--mode", "lagrangian",
                   "--radius", "2.0", "--quiet") == EXIT_OK

    def test_lagrangian_fit_on_clean_moments_needs_no_radius(self, survey_files, tmp_path):
        out = tmp_path / "fit.json"
        assert run("fit", "--input", f"{survey_files}_survey.csv", "--mode", "lagrangian",
                   "--output", str(out), "--quiet") == EXIT_OK
        assert json.loads(out.read_text())["converged"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_lambda_must_be_finite_and_non_negative(self, survey_files, value, capsys):
        assert run("fit", "--input", f"{survey_files}_survey.csv", "--mode", "lagrangian",
                   "--lambda", value, "--quiet") == EXIT_RUNTIME
        message = _rejection("--lambda", value, "lambda_n must be non-negative")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1", "inf", "nan"])
    def test_sigma_w_must_be_from_sidecar_or_finite_and_non_negative(
        self, survey_files, value, capsys
    ):
        assert run("fit", "--input", f"{survey_files}_survey.csv", f"--sigma-w={value}",
                   "--radius", "1.0", "--quiet") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "survkit fit: error: argument --sigma-w:" in err
        assert "Warning" not in err


class TestVerify:
    def _flags(self, prefix, mu_truth):
        b = _truth(prefix)["bounds"]
        return [
            "--survey", f"{prefix}_survey.csv",
            "--validation", f"{prefix}_validation.json",
            "--tol", "0.2", "--delta", "0.1", "--kappa", "0.0",
            "--tau", str(b["tau"]), "--radius", str(b["radius"]),
            "--zeta", str(b["zeta"]), "--seed", "17",
        ]

    @pytest.mark.parametrize("spec, message", [
        ([1], "validation spec {path} must hold a JSON object"),
        ({"type": "linear-model"}, "{path}: missing key 'theta'"),
        ({"generator": {"type": "linear-model", "theta": [0.0] * 6, "noise_var": None}},
         "{path}: key 'noise_var': expected a JSON number, got None"),
        # Only JSON numbers: a string or a boolean is not cast.
        ({"type": "linear-model", "theta": [0.0] * 6, "noise_var": "0.5"},
         "{path}: key 'noise_var': expected a JSON number, got '0.5'"),
        ({"type": "linear-model", "theta": [0.0] * 6, "noise_var": 0.5, "scale": True},
         "{path}: key 'scale': expected a JSON number, got True"),
        ({"type": "linear-model", "theta": ["1", True, 0, 0, 0, 0], "noise_var": 0.5},
         "{path}: key 'theta': expected a JSON number, got '1'"),
        ({"generator": [1]}, "{path}: unknown validation generator type None"),
        ("{", "validation spec {path}: Expecting property name"),  # not JSON at all
        # Well-typed but out of range: LinearModelSource's message, after the file.
        ({"type": "linear-model", "theta": [0.0] * 6, "noise_var": -1},
         "{path}: noise_var must be non-negative"),
        ({"type": "linear-model", "theta": [0.0] * 6, "noise_var": 1.0, "covariate": 5},
         "{path}: unknown covariate kind 5"),
        ({"type": "linear-model", "theta": [0.0] * 6, "noise_var": 1.0, "scale": 0},
         "{path}: scale must be positive"),
        ({"type": "linear-model", "theta": [[0.0] * 6], "noise_var": 1.0},
         "{path}: theta must be 1-dimensional, got shape (1, 6)"),
    ])
    def test_malformed_validation_spec(self, survey_files, tmp_path, capsys, spec, message):
        path = tmp_path / "v.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        code = run("verify", *self._flags(survey_files, 0.0), "--validation", str(path), "--quiet")
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err.startswith("survkit: error: " + message.format(path=path))

    def test_accept_close_regime(self, survey_files, tmp_path):
        out = tmp_path / "verdict.json"
        code = run("verify", *self._flags(survey_files, 0.0),
                   "--output", str(out), "--quiet")
        assert code == EXIT_OK
        verdict = json.loads(out.read_text())
        assert verdict["decision"] == "ACCEPT"
        assert verdict["j_hat"] == 0.0
        assert verdict["manifest"]["seed"] == 17

    def test_reject_far_regime(self, tmp_path):
        prefix = tmp_path / "far"
        run("gen", "--kind", "synthetic1", "--d", "6", "--m", "3000",
            "--mu", "2.0", "--seed", "11", "--out", str(prefix), "--quiet")
        out = tmp_path / "verdict.json"
        code = run("verify", *self._flags(prefix, 2.0), "--output", str(out), "--quiet")
        assert code == EXIT_REJECT
        assert json.loads(out.read_text())["decision"] == "REJECT"

    def test_private_mode_adds_penalty(self, survey_files, tmp_path):
        out = tmp_path / "pv.json"
        code = run("verify", *self._flags(survey_files, 0.0),
                   "--alpha", "2.0", "--lambda-min", "1.0",
                   "--output", str(out), "--quiet")
        verdict = json.loads(out.read_text())
        assert verdict["j_hat"] > 0
        assert code in (EXIT_OK, EXIT_REJECT)

    def test_csv_validation_pool(self, survey_files, tmp_path):
        # replay the survey itself as the validation pool -> ACCEPT
        code = run("verify",
                   "--survey", f"{survey_files}_survey.csv",
                   "--validation", f"{survey_files}_survey.csv",
                   "--tol", "0.2", "--tau", str(_truth(survey_files)["bounds"]["tau"]),
                   "--radius", str(_truth(survey_files)["bounds"]["radius"]),
                   "--zeta", str(_truth(survey_files)["bounds"]["zeta"]),
                   "--quiet")
        assert code == EXIT_OK

    def test_validation_pool_of_another_dimension(self, survey_files, tmp_path, capsys):
        pool = tmp_path / "pool3.csv"
        save_csv(Dataset(np.zeros((400, 3)), np.zeros(400), ModelBounds(1, 1, 1)), pool)
        b = _truth(survey_files)["bounds"]
        code = run("verify", "--survey", f"{survey_files}_survey.csv",
                   "--validation", str(pool), "--tol", "0.2", "--tau", str(b["tau"]),
                   "--radius", str(b["radius"]), "--zeta", str(b["zeta"]), "--quiet")
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"survkit: error: validation pool {pool} has d = 3, "
            f"survey {survey_files}_survey.csv has d = 6\n"
        )

    def test_validation_generator_of_another_dimension(self, survey_files, tmp_path, capsys):
        spec = tmp_path / "gen3.json"
        spec.write_text(json.dumps({"generator": {
            "type": "linear-model", "theta": [0.0, 0.0, 0.0], "noise_var": 0.0}}))
        b = _truth(survey_files)["bounds"]
        code = run("verify", "--survey", f"{survey_files}_survey.csv",
                   "--validation", str(spec), "--tol", "0.2", "--tau", str(b["tau"]),
                   "--radius", str(b["radius"]), "--zeta", str(b["zeta"]), "--quiet")
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"survkit: error: validation generator {spec} has d = 3, "
            f"survey {survey_files}_survey.csv has d = 6\n"
        )

    @pytest.mark.parametrize(
        "private", [(), ("--alpha", "2.0"), ("--alpha", "0.8", "--beta", "0.1")],
        ids=["public", "laplace", "gaussian"])
    def test_verdict_json_is_the_verdict(self, survey_files, tmp_path, private):
        out = tmp_path / "verdict.json"
        code = run("verify", *self._flags(survey_files, 0.0), *private,
                   "--output", str(out), "--quiet")
        assert code in (EXIT_OK, EXIT_REJECT)
        assert set(json.loads(out.read_text())) == _field_names(Verdict) | {"manifest"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_kappa_must_be_finite_and_non_negative(self, survey_files, value, capsys):
        flags = self._flags(survey_files, 0.0)
        flags[flags.index("--kappa") + 1] = value
        assert run("verify", *flags, "--quiet") == EXIT_RUNTIME
        message = _rejection("--kappa", value, "kappa must be non-negative")
        assert message in capsys.readouterr().err

    def test_unread_non_finite_flag_rejected_before_the_test_runs(
        self, survey_files, tmp_path, capsys
    ):
        # --beta is read only with --alpha, but the manifest echoes it.
        out = tmp_path / "verdict.json"
        code = run("verify", *self._flags(survey_files, 0.0), "--beta", "nan",
                   "--output", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert "survkit: note:" not in err
        assert err == "survkit: error: --beta must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("stray", [
        ("--beta", "0.3"), ("--lambda-min", "0.001"), ("--beta", "0.3", "--lambda-min", "0.001"),
    ])
    def test_private_flags_without_alpha_are_usage_errors(
        self, survey_files, tmp_path, capsys, stray
    ):
        # Without --alpha they would be ignored, and the public test run.
        out = tmp_path / "verdict.json"
        code = run("verify", *self._flags(survey_files, 0.0), *stray, "--output", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "survkit: error: verify: --beta and --lambda-min apply only with --alpha\n"
        )
        assert not out.exists()
        assert run("verify", *self._flags(survey_files, 0.0), "--beta", "0", "--quiet") == EXIT_OK

    def test_unallocatable_validation_draw_is_runtime_error(self, survey_files, tmp_path, capsys):
        # At tol 1e-7 the validation draw asks for petabytes, so numpy's
        # allocation fails at once, before any memory is touched.
        flags = self._flags(survey_files, 0.0)
        flags[flags.index("--tol") + 1] = "1e-7"
        b = _truth(survey_files)["bounds"]
        assert validation_sample_size(b["tau"], 0.1, 1e-7) * 6 * 8 > 2**50
        out = tmp_path / "verdict.json"
        code = run("verify", *flags, "--output", str(out), "--quiet")
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert err.startswith("survkit: error: Unable to allocate")
        assert not out.exists()

    def test_notes_on_stderr_and_in_json(self, survey_files, tmp_path, capsys):
        out = tmp_path / "pv.json"
        code = run("verify", *self._flags(survey_files, 0.0), "--alpha", "2.0",
                   "--output", str(out), "--quiet")
        assert code in (EXIT_OK, EXIT_REJECT)
        notes = json.loads(out.read_text())["notes"]
        assert any(n.startswith("radius") for n in notes)
        assert any(n.startswith("lambda_min estimated") for n in notes)
        assert capsys.readouterr().err == "".join(f"survkit: note: {n}\n" for n in notes)


@pytest.mark.parametrize("privacy", [("--alpha", "2.0"), ("--alpha", "0.8", "--beta", "0.1")],
                         ids=["laplace", "gaussian"])
@pytest.mark.parametrize("seed", [7, 41], ids=["readme-demo", "acceptance-11"])
def test_verify_alpha_verifies_what_publish_publishes(tmp_path, seed, privacy):
    # verify --alpha on the clear survey gives the verdict of the library
    # test on the bundle that publish writes with the same flags and seed.
    d, m = {7: (10, 10_000), 41: (4, 400)}[seed]
    prefix = tmp_path / "g"
    assert run("gen", "--kind", "synthetic1", "--d", str(d), "--m", str(m), "--mu", "0.0",
               "--seed", str(seed), "--out", str(prefix), "--quiet") == EXIT_OK
    b = {k: str(v) for k, v in _truth(prefix)["bounds"].items()}
    if seed == 7:
        b = {"zeta": "4.0", "tau": "1.8", "radius": "1.2"}
    bundle, out = tmp_path / "private.csv", tmp_path / "verdict.json"
    assert run("publish", "--input", f"{prefix}_survey.csv", "--output", str(bundle), *privacy,
               "--zeta", b["zeta"], "--seed", str(seed), "--quiet") == EXIT_OK
    code = run("verify", "--survey", f"{prefix}_survey.csv",
               "--validation", f"{prefix}_validation.json", "--kappa", "0.0", "--tol", "0.2",
               "--delta", "0.1", "--tau", b["tau"], "--radius", b["radius"], "--zeta", b["zeta"],
               "--seed", str(seed), *privacy, "--output", str(out), "--quiet")
    assert code in (EXIT_OK, EXIT_REJECT)
    from_cli = json.loads(out.read_text())
    del from_cli["manifest"]
    spec = json.loads(Path(f"{prefix}_validation.json").read_text())["generator"]
    bounds = ModelBounds(float(b["zeta"]), float(b["tau"]), float(b["radius"]))
    verdict = verify_private_survey(
        load_private(bundle), source_from_spec(spec),
        TestConfig(kappa=0.0, tol=0.2, delta=0.1, bounds=bounds), RngSpec(seed),
    )
    assert json.loads(json.dumps({k: _jsonable(v) for k, v in vars(verdict).items()})) == from_cli


def _bounds_actions() -> dict[str, argparse.Action]:
    """The ``bounds`` subparser's actions by dest."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {a.dest: a for a in commands["bounds"]._actions}


def _float_flags_read() -> list[tuple[str, str]]:
    """(bound name, flag) for every float-typed flag each bound reads."""
    floats = {dest for dest, a in _bounds_actions().items() if a.type is float}
    return [(name, "--" + dest.replace("_", "-")) for name, fn_name in _BOUNDS.items()
            for dest in inspect.signature(getattr(bnd, fn_name)).parameters if dest in floats]


_FLOAT_FLAGS_READ = _float_flags_read()

# Every bounds flag's default, as the hand-written parser had them.
_BOUND_FLAG_DEFAULTS = {
    "zeta": 1.0, "alpha": 1.0, "beta": 0.1, "d": 2, "d1": 1, "d2": 1, "m": 1000.0,
    "n": 1000, "t": 0.1, "radius": 1.0, "lambda_min": 1.0, "c": 1.0, "c1": 1.0, "c2": 1.0,
    "c_x": 1.0, "c_eps": 1.0, "c_max": 1.0, "sigma_eps": 0.0, "sigma_minus_sq": 1.0,
    "alpha_shape": 2.0, "c_alpha": 1.0, "beta_split": 0.5, "second_moment": 1.0,
}


class TestBoundsCommand:
    def test_named_bound_json(self, capsys):
        assert run("bounds", "--name", "min-samples-laplace", "--zeta", "1",
                   "--alpha", "1", "--c-eps", "1", "--d", "3", "--lambda-min", "1") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 4
        assert payload["manifest"]["command"] == "bounds"

    def test_tail_bound_reports_conditions(self, capsys):
        assert run("bounds", "--name", "squared-subexp-tail",
                   "--n", "100", "--t", "0.1", "--c-x", "1.0") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(np.exp(-1.0))
        assert payload["side_conditions"]["t_within_range"] is True
        assert payload["vacuous"] is False

    def test_unknown_name_is_usage_error(self, tmp_path, capsys):
        assert run("bounds", "--name", "no-such-bound", "--quiet") == EXIT_USAGE
        assert "argument --name: invalid choice: 'no-such-bound'" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"name": "no-such-bound"}))
        assert run("bounds", "--config", str(config), "--quiet") == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_name_reported_before_flag_checks(self, capsys):
        assert run("bounds", "--name", "no-such-bound", "--c-x", "0", "--quiet") == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    def test_flags_are_the_bound_parameters(self):
        actions = _bounds_actions()
        assert actions["name"].choices == tuple(_BOUNDS)
        params = [q for fn_name in _BOUNDS.values() for q in inspect.signature(
            getattr(bnd, fn_name), eval_str=True).parameters.values()]
        flags = set(actions) - {"help", "seed", "output", "quiet", "config", "name"}
        assert flags == {q.name for q in params} == set(_BOUND_FLAG_DEFAULTS)
        assert len(flags) == 23
        for q in params:
            action = actions[q.name]
            assert action.option_strings == ["--" + q.name.replace("_", "-")]
            assert action.type is q.annotation
            if q.default is not q.empty:
                assert action.default == q.default
        for dest, default in _BOUND_FLAG_DEFAULTS.items():
            assert (actions[dest].default, type(actions[dest].default)) == (default, type(default))

    @pytest.mark.parametrize("name, flag, value", [
        ("lower-re", "--c-x", "0"),
        ("one-sided-bernstein", "--lambda-min", "0"),
        ("error-bound-laplace", "--c-x", "0"),
        ("error-bound-gaussian", "--c-x", "0"),
        ("error-bound-gaussian", "--c-eps", "0"),
        ("error-bound-laplace", "--sigma-eps", "-1"),
    ])
    def test_flags_the_bound_does_not_read_are_not_validated(self, name, flag, value):
        assert run("bounds", "--name", name, flag, value, "--quiet") == EXIT_OK

    @pytest.mark.parametrize("name, flag, value", [
        ("error-bound-laplace", "--c-eps", "0"),
        ("error-bound-gaussian", "--sigma-eps", "-1"),
        ("min-samples-laplace", "--c-eps", "-5"),
        ("error-bound-laplace", "--radius", "-1"),
        ("error-bound-gaussian", "--radius", "0"),
        ("error-bound-gaussian", "--m", "0"),
        ("lower-re", "--m", "-1"),
        ("min-samples-gaussian", "--c", "-1"),
        ("squared-subexp-tail", "--c", "-1"),
        ("matrix-deviation-bound", "--c", "-1"),
        ("lower-re", "--c1", "-1"),
        ("matrix-deviation-level", "--c1", "-1"),
        ("error-bound-gaussian", "--c2", "-1"),
        ("error-bound-laplace", "--c2", "-1"),
        *[(name, flag, value) for name, flag in _FLOAT_FLAGS_READ for value in ("nan", "inf")],
        *[(name, "--lambda-min", "0") for name in (
            "min-samples-gaussian", "min-samples-laplace", "error-bound-gaussian",
            "error-bound-laplace", "lower-re")],
        *[(name, flag, value) for name in (
            "min-samples-gaussian", "min-samples-laplace", "error-bound-gaussian",
            "error-bound-laplace")
          for flag, value in (("--zeta", "-2"), ("--zeta", "nan"), ("--alpha", "0"),
                              ("--alpha", "-1"), ("--alpha", "inf"))],
    ])
    def test_flags_the_bound_reads_are_validated(self, name, flag, value, capsys):
        assert run("bounds", "--name", name, flag, value, "--quiet") == EXIT_RUNTIME
        message = _rejection(flag, value, f"{flag[2:].replace('-', '_')} must be")
        assert message in capsys.readouterr().err


# Non-default values for every `bounds` flag, so a flag read from the wrong
# place shows up as a value mismatch.
_BOUND_FLAGS = {
    "zeta": 0.8, "alpha": 1.5, "beta": 0.05, "d": 5, "d1": 2, "d2": 3,
    "m": 5000.0, "n": 400, "t": 0.05, "radius": 2.0, "lambda-min": 0.7,
    "c": 1.3, "c1": 0.9, "c2": 1.1, "c-x": 1.2, "c-eps": 0.6,
    "c-max": 1.4, "sigma-eps": 0.3, "sigma-minus-sq": 0.9, "alpha-shape": 1.5,
    "c-alpha": 0.8, "beta-split": 0.4, "second-moment": 2.0,
}


def _direct_bound(name: str) -> dict:
    f = {k.replace("-", "_"): v for k, v in _BOUND_FLAGS.items()}

    def scalar(value, constants):
        return {"value": value, "side_conditions": {}, "constants_used": constants,
                "vacuous": False}

    def prob(r):
        return {"value": r.value, "side_conditions": r.side_conditions,
                "constants_used": r.constants, "vacuous": r.vacuous}

    if name == "min-samples-gaussian":
        return scalar(bnd.min_samples_gaussian(
            f["lambda_min"], f["zeta"], f["alpha"], f["beta"], f["d"], f["c"]), {"c": f["c"]})
    if name == "min-samples-laplace":
        return scalar(bnd.min_samples_laplace(
            f["lambda_min"], f["zeta"], f["alpha"], f["c_eps"], f["d"]), {})
    if name == "error-bound-gaussian":
        return scalar(bnd.error_bound_gaussian(
            f["sigma_eps"], f["lambda_min"], f["zeta"], f["alpha"], f["beta"], f["radius"], f["d"], f["m"],
            f["c2"]), {"c2": f["c2"]})
    if name == "error-bound-laplace":
        return scalar(bnd.error_bound_laplace(
            f["c_eps"], f["lambda_min"], f["zeta"], f["alpha"], f["radius"], f["d"], f["m"], f["c2"]),
            {"c2": f["c2"]})
    if name == "lower-re":
        re = bnd.lower_re_params(f["lambda_min"], f["c_max"], f["m"], f["d"], f["c1"])
        return {"value": {"alpha_ell": re.alpha_ell, "tau_md": re.tau_md},
                "side_conditions": {"feasible": re.feasible},
                "constants_used": {"c1": f["c1"]}, "vacuous": False}
    if name == "matrix-deviation-level":
        return scalar(bnd.matrix_deviation_level(f["n"], f["d"], f["c_max"], f["c1"]),
                      {"c1": f["c1"]})
    if name == "subweibull-right-tail":
        return prob(bnd.subweibull_right_tail(
            f["n"], f["t"], f["alpha_shape"], f["c_alpha"], f["sigma_minus_sq"],
            f["beta_split"]))
    if name == "squared-subexp-tail":
        return prob(bnd.squared_subexp_tail(f["n"], f["t"], f["c_x"], f["c"]))
    if name == "one-sided-bernstein":
        return prob(bnd.one_sided_bernstein(f["n"], f["t"], f["second_moment"]))
    assert name == "matrix-deviation-bound"
    return prob(bnd.matrix_deviation_bound(
        f["n"], f["d1"], f["d2"], f["c_max"], f["t"], f["c"]))


@pytest.mark.parametrize("name", [
    "min-samples-gaussian", "min-samples-laplace", "error-bound-gaussian",
    "error-bound-laplace", "lower-re", "subweibull-right-tail", "squared-subexp-tail",
    "one-sided-bernstein", "matrix-deviation-bound", "matrix-deviation-level",
])
def test_bounds_command_matches_direct_call(name, capsys):
    flags = [tok for k, v in _BOUND_FLAGS.items() for tok in (f"--{k}", str(v))]
    assert run("bounds", "--name", name, *flags) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    expect = _direct_bound(name)
    for key in ("value", "side_conditions", "constants_used", "vacuous"):
        assert payload[key] == expect[key], key


class TestSweepCommand:
    def test_small_sweep_writes_outputs(self, tmp_path):
        code = run("sweep", "--experiment", "error-vs-samples", "--trials", "2",
                   "--d", "4", "--m-grid", "500,1000", "--alpha-grid", "2.0",
                   "--seed", "1", "--output", str(tmp_path), "--quiet")
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "error-vs-samples_summary.json").read_text())
        assert "manifest" in summary and "grid" in summary

    def test_summary_json_is_the_run_sweep_summary_plus_manifest(self, tmp_path):
        assert run("sweep", "--experiment", "model-distance", "--trials", "2", "--d", "3",
                   "--m", "200", "--mu-grid", "0.0,1.0", "--tol-grid", "0.2", "--seed", "3",
                   "--output", str(tmp_path), "--quiet") == EXIT_OK
        written = json.loads((tmp_path / "model-distance_summary.json").read_text())
        spec = SweepSpec(experiment="model-distance", trials=2, seed=3, output_dir=tmp_path,
                         d=3, m=200, mu_grid=(0.0, 1.0), tol_grid=(0.2,))
        summary = json.loads(json.dumps(run_sweep(spec).summary))
        assert written == {**summary, "manifest": written["manifest"]}
        assert written["manifest"]["command"] == "sweep"

    @pytest.mark.parametrize("experiment, flag, value, message", [
        ("model-distance", "--kappa", "nan", "--kappa must be finite"),
        ("model-distance", "--kappa", "-1", "kappa must be non-negative"),
        ("error-vs-samples", "--alpha-grid", "nan", "alpha must be positive"),
        ("model-distance", "--d", "0", "d must be an integer >= 1"),
        ("noise-comparison", "--m-grid", "0", "m must be an integer >= 1"),
        ("model-distance", "--mu-grid", "nan", "mu must be finite"),
    ])
    def test_invalid_value_rejected_before_any_trial(self, tmp_path, capsys, experiment,
                                                     flag, value, message):
        code = run("sweep", "--experiment", experiment, flag, value,
                   "--output", str(tmp_path), "--quiet")
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == f"survkit: error: {message}\n"
        assert not list(tmp_path.iterdir())


class TestConfigFile:
    def test_config_supplies_gen_flags(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"kind": "synthetic2", "d": 3, "m": 50, "noise": "laplace",
                                    "seed": 4, "quiet": True, "out": str(tmp_path / "a")}))
        assert run("gen", "--config", str(conf), "--out", str(tmp_path / "b")) == EXIT_OK
        assert run("gen", "--kind", "synthetic2", "--d", "3", "--m", "50", "--noise", "laplace",
                   "--seed", "4", "--quiet", "--out", str(tmp_path / "c")) == EXIT_OK
        assert not list(tmp_path.glob("a_*"))  # the explicit --out wins
        for name in ("clean.csv", "noisy.csv", "noisy.meta.json"):
            assert (tmp_path / f"b_{name}").read_bytes() == (tmp_path / f"c_{name}").read_bytes()
        assert _truth(tmp_path / "b")["manifest"]["config"]["noise"] == "laplace"

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "name": "one-sided-bernstein", "n": 100, "t": 0.1, "second_moment": 1.0,
        }))
        assert run("bounds", "--config", str(conf)) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(np.exp(-1.0))

    def test_flags_override_config(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"name": "one-sided-bernstein", "n": 100, "t": 0.1}))
        assert run("bounds", "--config", str(conf), "--t", "0.0") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1.0

    def test_abbreviated_flag_overrides_config(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "name": "one-sided-bernstein", "n": 100, "t": 0.1, "second_moment": 1.0,
        }))
        assert run("bounds", "--config", str(conf), "--second", "2.0") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(np.exp(-0.5))

    @pytest.mark.parametrize("text, message", [
        ('{"name": "one-sided-bernstein", "t": "abc"}',
         "survkit bounds: error: argument --t: invalid float value: 'abc'"),
        ("[1, 2]", "survkit: error: config file"),
        ("{", "survkit: error: config file {path}: Expecting property name"),
    ])
    def test_config_values_are_parsed_like_flags(self, tmp_path, capsys, text, message):
        conf = tmp_path / "conf.json"
        conf.write_text(text)
        assert run("bounds", "--config", str(conf)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message.format(path=conf) in err and "Traceback" not in err

    def test_config_spelling_of_lists_and_booleans(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"experiment": "noise-comparison", "trials": 1, "d": 3,
                                    "m_grid": [200, 300], "quiet": True, "no-such-key": 1}))
        assert run("sweep", "--config", str(conf), "--output", str(tmp_path)) == EXIT_OK
        assert capsys.readouterr().out == ""
        summary = json.loads((tmp_path / "noise-comparison_summary.json").read_text())
        assert summary["spec"]["m_grid"] == [200, 300]
        conf.write_text(json.dumps({"name": "one-sided-bernstein", "quiet": False}))
        assert run("bounds", "--config", str(conf)) == EXIT_OK
        assert "value" in json.loads(capsys.readouterr().out)


# numpy holds every dataset, orjson formats a dataset CSV, scipy draws
# Gaussian noise, and the three survkit modules fit, test and sweep.
_WATCHED = ("numpy", "orjson", "scipy", "survkit.bounds", "survkit.solver", "survkit.sweeps",
            "survkit.tester")


def _loaded_by(*argv) -> list[str]:
    """Which of ``_WATCHED`` a fresh interpreter holds after importing
    survkit.cli and, given ``argv``, running that command to an exit of 0 or 3."""
    code = ("import json, sys, survkit.cli\n"
            "exit_code = survkit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            f"loaded = [m for m in {_WATCHED!r} if m in sys.modules]\n"
            "print(json.dumps([exit_code, loaded]))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(_SRC)})
    exit_code, loaded = json.loads(out.stdout.splitlines()[-1])
    assert exit_code in (EXIT_OK, EXIT_REJECT), out.stderr
    return loaded


class TestWhatACommandLoads:
    """A command loads only the modules it runs, which keeps its start-up
    and RSS: ``bounds`` needs no numpy and is the only command that loads
    survkit.bounds, only a dataset write loads orjson, only Gaussian noise
    scipy, and only ``sweep`` the sweeps."""

    def test_importing_the_cli_loads_none(self):
        assert _loaded_by() == []

    def test_each_readme_command_loads_what_it_runs(self, tmp_path):
        prefix, bundle = tmp_path / "g", tmp_path / "bundle.csv"
        gen = ("gen", "--kind", "synthetic1", "--d", "3", "--m", "200", "--mu", "0.0",
               "--seed", "1", "--out", prefix, "--quiet")
        assert _loaded_by(*gen) == ["numpy", "orjson"]
        zeta = str(_truth(prefix)["bounds"]["zeta"])
        publish = ("publish", "--input", f"{prefix}_survey.csv", "--output", bundle,
                   "--alpha", "4.0", "--zeta", zeta, "--seed", "5", "--quiet")
        assert _loaded_by(*publish) == ["numpy", "orjson"]
        fit = ("fit", "--input", bundle, "--sigma-w", "from-sidecar", "--radius", "3.0",
               "--output", tmp_path / "fit.json", "--quiet")
        assert _loaded_by(*fit) == ["numpy", "survkit.solver"]
        verify = ("verify", *TestVerify()._flags(prefix, 0.0),
                  "--output", tmp_path / "verdict.json", "--quiet")
        for argv in (verify, (*verify, "--alpha", "2.0")):
            assert _loaded_by(*argv) == ["numpy", "survkit.solver", "survkit.tester"]
        (tmp_path / "conf.json").write_text(json.dumps({"quiet": True}))
        bounds = ("bounds", "--name", "min-samples-laplace", "--zeta", "1", "--alpha", "1",
                  "--c-eps", "1", "--d", "3", "--lambda-min", "1",
                  "--output", tmp_path / "bounds.json", "--config", tmp_path / "conf.json")
        assert _loaded_by(*bounds) == ["survkit.bounds"]

    def test_the_probe_sees_scipy_and_the_sweeps(self, tmp_path):
        gen = ("gen", "--kind", "synthetic2", "--d", "2", "--m", "10", "--noise", "gaussian",
               "--seed", "1", "--out", tmp_path / "g", "--quiet")
        assert "scipy" in _loaded_by(*gen)
        sweep = ("sweep", "--experiment", "model-distance", "--trials", "1", "--d", "2",
                 "--m", "50", "--mu-grid", "0", "--tol-grid", "0.2", "--output", tmp_path,
                 "--quiet")
        assert "survkit.sweeps" in _loaded_by(*sweep)


def test_commands_call_what_is_bound_on_the_cli(tmp_path, monkeypatch):
    """The traced benchmark (bench/spans.py) wraps each function of its
    ``survkit.cli`` bindings on that module; a handler that called it any
    other way would drop its spans from a traced run."""
    import survkit.cli as cli

    called = set()
    names = _load_bindings()["survkit.cli"]
    for name in names:
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    # The README chain, a fit on the clear survey and a one-trial sweep.
    prefix, bundle = tmp_path / "demo", tmp_path / "demo_private.csv"
    assert run("gen", "--kind", "synthetic1", "--d", "3", "--m", "400", "--seed", "3",
               "--out", str(prefix), "--quiet") == EXIT_OK
    b = _truth(prefix)["bounds"]
    assert run("publish", "--input", f"{prefix}_survey.csv", "--output", str(bundle),
               "--alpha", "2.0", "--zeta", str(b["zeta"]), "--quiet") == EXIT_OK
    for sigma_w, data in (("from-sidecar", bundle), ("0.0", f"{prefix}_survey.csv")):
        assert run("fit", "--input", str(data), "--sigma-w", sigma_w,
                   "--radius", str(b["radius"]), "--quiet") == EXIT_OK
    verify = ("verify", *TestVerify()._flags(prefix, 0.0), "--quiet")
    assert run(*verify) in (EXIT_OK, EXIT_REJECT)
    assert run(*verify, "--alpha", "2.0") in (EXIT_OK, EXIT_REJECT)
    assert run("sweep", "--experiment", "model-distance", "--trials", "1", "--d", "2",
               "--m", "50", "--mu-grid", "0", "--tol-grid", "0.2", "--output", str(tmp_path),
               "--quiet") == EXIT_OK
    # validate_dataset is wrapped there but called by no handler.
    assert called == set(names) - {"validate_dataset"}


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_parser_for_one_command_matches_the_full_one(command):
    full = _subcommands(build_parser())[command]
    alone = _subcommands(build_parser(command))
    assert list(alone) == [command]

    def flags(p):
        return [(a.option_strings, a.dest, a.default, a.type, a.choices) for a in p._actions]

    assert flags(alone[command]) == flags(full)
    assert alone[command].get_default("func") is full.get_default("func")


def test_fit_flags_are_solver_configs(capsys):
    from survkit import SolverConfig
    fit = {a.dest: a for a in _subcommands(build_parser("fit"))["fit"]._actions}
    defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    for dest, field in (("mode", "mode"), ("radius", "radius"), ("lambda", "lambda_n"),
                        ("max_iter", "max_iter"), ("tol", "tol")):
        assert repr(fit[dest].default) == repr(defaults[field]), dest
    assert list(fit["mode"].choices) == ["constrained", "lagrangian"]
    for mode in fit["mode"].choices:
        assert SolverConfig(mode=mode, radius=1.0).mode == mode
    with pytest.raises(ValueError, match="unknown solver mode 'penalized'"):
        SolverConfig(mode="penalized", radius=1.0)
    assert run("fit", "--input", "survey.csv", "--mode", "penalized") == EXIT_USAGE
    assert "invalid choice: 'penalized'" in capsys.readouterr().err


class TestDeterminism:
    def test_gen_byte_identical_on_rerun(self, tmp_path):
        argv = ("gen", "--kind", "synthetic1", "--d", "4", "--m", "100", "--mu", "0.5",
                "--seed", "9", "--out", str(tmp_path / "x"), "--quiet")
        names = ("x_survey.csv", "x_validation.json", "x_truth.json")
        run(*argv)
        first = {n: (tmp_path / n).read_bytes() for n in names}
        run(*argv)
        assert all((tmp_path / n).read_bytes() == first[n] for n in names)
