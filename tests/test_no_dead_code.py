"""Every top-level function and class in ``qgjet`` has a caller in the
package or in the benchmark. A name only the tests use belongs in the tests
(``tests/oracles.py``), not in the library."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "qgjet").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def _uses(paths) -> Counter:
    """How often each name is read, looked up as an attribute or imported."""
    uses = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
    return uses


def test_every_top_level_definition_has_a_caller():
    assert LIBRARY and len(CALLERS) > len(LIBRARY)
    uses = _uses(CALLERS)
    unused = [f"{path.name}:{node.name}"
              for path in LIBRARY
              for node in ast.parse(path.read_text(), str(path)).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not uses[node.name]]
    assert unused == []
