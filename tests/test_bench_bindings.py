"""The traced benchmark wraps survkit functions by name where their callers
look them up (``bench/spans.py``'s ``BINDINGS``).  Some of those names, such
as ``sweeps.clip_to_bounds`` and ``sweeps.gen_synthetic2``, are imports that
look unused in the package; this keeps them from being removed unnoticed.
The per-call counters (``_COUNTERS``) read a wrapped call's arguments by
name, so a renamed parameter would break only traced runs; this checks
those names too."""

import ast
import importlib
import inspect
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_bindings() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BINDINGS


@pytest.mark.parametrize("module, names", sorted(_load_bindings().items()))
def test_every_binding_site_resolves_to_a_callable(module, names):
    mod = importlib.import_module(module)
    missing = [name for name in names if not callable(getattr(mod, name, None))]
    assert not missing, f"{module} lacks {missing}"


def _counter_arguments() -> dict[str, set[str]]:
    """Each ``_COUNTERS`` layer name with the argument names its counter
    reads, ``a["name"]`` for its first parameter ``a``."""
    tree = ast.parse(_SPANS.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_COUNTERS"])
    reads = {}
    for key, counter in zip(table.keys, table.values):
        args = counter.args.args[0].arg
        reads[key.value] = {
            sub.slice.value for sub in ast.walk(counter.body)
            if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == args
        }
    return reads


_COUNTER_READS = _counter_arguments()


def test_counters_read_arguments():
    # Guards the parse: privatize's counter reads ds and spec, load_csv's path.
    assert any(_COUNTER_READS.values())


@pytest.mark.parametrize("layer", sorted(_COUNTER_READS))
def test_every_counter_reads_parameters_of_its_function(layer):
    module, name = layer.split(".")
    fn = getattr(importlib.import_module(f"survkit.{module}"), name)
    missing = sorted(_COUNTER_READS[layer] - set(inspect.signature(fn).parameters))
    assert not missing, f"{layer} has no parameters {missing}"
