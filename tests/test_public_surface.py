"""The package carries nothing that nothing uses, checked with ``ast``.

Every public top-level function and class of ``survkit`` is used by the
package itself: ROADMAP aim 2 allows no public symbol that neither ``src/``
nor the CLI uses.  A use is a name, an attribute, an import alias or a
string constant anywhere in ``src/survkit`` outside the symbol's own
definition; string constants count because cli's ``_BOUNDS`` table looks
the bound functions up by name.  The re-exports in ``__init__.py`` do not
count.  ``clip_to_bounds`` passes only through the ``sweeps`` import that
the traced benchmark's binding needs (see test_bench_bindings.py), and
``validate_dataset`` only through such imports in ``datagen`` and ``tester``
and its name in ``cli``'s ``_BINDINGS`` tuple, which ``cli`` resolves
through the package's exports on first use, without importing it:
``publish`` leaves its zeta check to ``privatize``.

The package exports the 61 names of ``_EXPORTED``, each its defining
module's own object, through ``__all__``, ``dir`` and ``import *``, and no
other attribute resolves.

Every field of the config types ``SolverConfig``, ``TestConfig``,
``PrivacyParams`` and ``SweepSpec`` is one a caller sets: some call of the
type in ``src/survkit`` passes it by keyword or by position, or the call
unpacks ``**`` keywords inside a subcommand handler and one of that
subcommand's ``build_parser()`` flags has the field's name as its dest (so
``_cmd_sweep`` fills ``SweepSpec``), or the field is in
``_UNSET_FIELDS_ALLOWED`` with the reason it stays.

Every import in ``src/survkit`` is used by the module that makes it.  The
only exceptions are the names ``bench/spans.py`` lists for that module in
``BINDINGS``, which the traced benchmark wraps where they are imported.

Every use of the private ``_adopt`` path of ``Dataset`` and
``PrivateDataset``, which keeps the arrays it is given instead of copying
them, sits in a function of ``_ADOPT_CALLERS`` with the reason no copy is
needed there, so a new caller fails here until its arrays are checked.

Every attribute assignment in ``src/survkit`` sits in an ``__init__``,
``_adopt`` or ``_hold``: an object is filled in once, where it is built, and
never changed afterwards, so no flag or cursor can go stale between calls.
"""

import argparse
import ast
import importlib
from pathlib import Path

import pytest

import survkit
from survkit.cli import build_parser
from test_bench_bindings import _load_bindings

_SRC = Path(__file__).resolve().parents[1] / "src" / "survkit"
_CONFIGS = ("SolverConfig", "TestConfig", "PrivacyParams", "SweepSpec")
# "Type.field" -> why the field stays although nothing in src sets it.
_UNSET_FIELDS_ALLOWED: dict[str, str] = {}
# "module.function" -> why the arrays it hands to ``_adopt`` need no copy.
_ADOPT_CALLERS = {
    "datagen._clip": "clamps in place the fresh arrays its callers give up "
                     "(clip_to_bounds gives it copies)",
    "datagen._with_covariate_noise": "the noise buffer is its own fresh uniform draw; "
                                     "clean.y is read-only",
    "mechanisms.privatize": "the noise buffer is its own; ds.y is read-only",
    "datagen.load_private": "the read-only arrays of the load_csv Dataset it discards",
    "datagen.load_csv": "the twin's arrays, read fresh from its file by _read_twin, "
                        "which no one else holds",
    "cli._cmd_publish": "the read-only arrays of the loaded Dataset, under new bounds",
}
# The functions that may assign an attribute: those that build an object.
_ATTRIBUTE_SETTERS = ("__init__", "_adopt", "_hold")


def _uses(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def test_every_public_definition_is_used_in_src():
    defined, used = {}, set()
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            used |= _uses(stmt) - {own}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = f"{path.stem}.{own}"
    unused = sorted(qual for name, qual in defined.items() if name not in used)
    assert not unused, f"public definitions that nothing in src uses: {unused}"


def _nodes(node: ast.AST, owner: str | None = None):
    """Every node under ``node`` with the name of the function it sits in."""
    for child in ast.iter_child_nodes(node):
        yield child, owner
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _nodes(child, child.name if is_def else owner)


def test_every_config_field_is_set_in_src():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(_SRC.glob("*.py"))]
    fields = {
        stmt.name: [s.target.id for s in stmt.body if isinstance(s, ast.AnnAssign)]
        for tree in trees for stmt in tree.body
        if isinstance(stmt, ast.ClassDef) and stmt.name in _CONFIGS
    }
    assert sorted(fields) == sorted(_CONFIGS)
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flag_dests = {p.get_default("func").__name__: {a.dest for a in p._actions}
                  for p in commands.values()}
    passed = set()
    for tree in trees:
        for call, owner in _nodes(tree):
            if not isinstance(call, ast.Call):
                continue
            cls = getattr(call.func, "id", getattr(call.func, "attr", None))
            if cls not in fields:
                continue
            passed |= {f"{cls}.{f}" for f in fields[cls][: len(call.args)]}
            for kw in call.keywords:
                names = flag_dests.get(owner, set()) if kw.arg is None else {kw.arg}
                passed |= {f"{cls}.{n}" for n in names}
    unset = sorted(
        f"{cls}.{f}" for cls, names in fields.items() for f in names
        if f"{cls}.{f}" not in passed | set(_UNSET_FIELDS_ALLOWED)
    )
    assert not unset, f"config fields that nothing in src sets: {unset}"


def test_adopt_is_used_only_by_the_allowed_callers():
    users = set()
    for path in sorted(_SRC.glob("*.py")):
        for node, owner in _nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if "_adopt" in (getattr(node, "attr", None), getattr(node, "id", None)):
                users.add(f"{path.stem}.{owner}")
    unlisted = sorted(users - set(_ADOPT_CALLERS))
    assert not unlisted, f"_adopt used outside _ADOPT_CALLERS: {unlisted}"
    assert users == set(_ADOPT_CALLERS), "stale _ADOPT_CALLERS entries"


def test_every_import_is_used_by_its_module():
    # The traced benchmark wraps some names where a module imports them
    # without calling them; those, and only those, may go unused.
    bindings = _load_bindings()
    unused = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        allowed = set(bindings.get(f"survkit.{path.stem}", ()))
        unused += [f"{path.stem}.{name}" for name in sorted(imported - names - allowed)]
    assert not unused, f"imports that their module never uses: {unused}"


def _assigned_attributes(target: ast.AST):
    """The attribute targets of an assignment, through tuple unpacking."""
    if isinstance(target, ast.Attribute):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_attributes(elt)


def test_attributes_are_assigned_only_where_objects_are_built():
    misplaced = []
    for path in sorted(_SRC.glob("*.py")):
        for node, owner in _nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if owner not in _ATTRIBUTE_SETTERS:
                misplaced += [f"{path.stem}.{owner}: {ast.unparse(attr)}"
                              for t in targets for attr in _assigned_attributes(t)]
    assert not misplaced, f"attributes assigned outside {_ATTRIBUTE_SETTERS}: {misplaced}"


# Every name the package exports, by its defining module.
_EXPORTED = {
    "core": ("Dataset", "ModelBounds", "RngSpec", "ValidationReport", "ValidationSource",
             "mean_squared_loss", "model_distance", "validate_dataset"),
    "mechanisms": ("Accounting", "NoiseKind", "NoiseSpec", "PrivacyParams", "PrivateDataset",
                   "make_noise_spec", "privatize"),
    "solver": ("CorrectedMoments", "SolveResult", "SolverConfig", "SolverDivergenceError",
               "corrected_moments", "moments_from_arrays", "objective", "project_l1",
               "soft_threshold", "solve", "spectral_bound"),
    "tester": ("Decision", "InsufficientValidationError", "PooledSource", "TestConfig",
               "Verdict", "privacy_penalty_gaussian", "privacy_penalty_laplace",
               "survey_loss_bound", "validation_sample_size", "verify_private_survey",
               "verify_survey"),
    "bounds": ("BoundResult", "LowerREParams", "error_bound_gaussian", "error_bound_laplace",
               "lower_re_params", "matrix_deviation_bound", "matrix_deviation_level",
               "min_samples_gaussian", "min_samples_laplace", "one_sided_bernstein",
               "squared_subexp_tail", "subweibull_right_tail"),
    "datagen": ("ClipReport", "LinearModelSource", "clip_to_bounds", "gen_synthetic1",
                "gen_synthetic2", "load_csv", "load_private", "save_csv", "save_private",
                "sparse_coefficients"),
    "sweeps": ("SweepSpec", "run_sweep"),
}
_NAMES = sorted(name for names in _EXPORTED.values() for name in names)


def test_the_package_exports_its_names():
    assert len(_NAMES) == 61
    assert sorted(survkit.__all__) == _NAMES
    star = {}
    exec("from survkit import *", star)
    assert sorted(set(star) - {"__builtins__"}) == _NAMES
    assert set(_NAMES) <= set(dir(survkit))


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _EXPORTED.items()
                                          for n in names])
def test_each_export_is_its_modules_own_object(module, name):
    obj = getattr(survkit, name)
    assert obj is getattr(importlib.import_module(f"survkit.{module}"), name)
    assert obj.__module__ == f"survkit.{module}"


def test_an_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        survkit.no_such_name  # noqa: B018
