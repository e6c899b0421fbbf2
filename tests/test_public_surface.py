"""Every public top-level function and class of ``survkit`` is used by the
package itself: ROADMAP aim 2 allows no public symbol that neither ``src/``
nor the CLI uses.

The package is parsed with ``ast``.  A use is a name, an attribute, an
import alias or a string constant anywhere in ``src/survkit`` outside the
symbol's own definition; string constants count because cli's ``_BOUNDS``
table looks the bound functions up by name.  The re-exports in
``__init__.py`` do not count.  ``clip_to_bounds`` passes only through the
``sweeps`` import that the traced benchmark's binding needs (see
test_bench_bindings.py).
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "survkit"


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
