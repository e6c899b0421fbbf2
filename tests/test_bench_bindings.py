"""The traced benchmark wraps survkit functions by name where their callers
look them up (``bench/spans.py``'s ``BINDINGS``).  Some of those names, such
as ``sweeps.clip_to_bounds`` and ``sweeps.gen_synthetic2``, are imports that
look unused in the package; this keeps them from being removed unnoticed."""

import importlib
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
