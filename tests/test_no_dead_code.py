"""Every top-level function, class and constant in ``qgjet`` has a caller in
the package or in the benchmark. A name only the tests use belongs in the
tests (``tests/oracles.py``), not in the library."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "qgjet").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def _uses(paths) -> Counter:
    """How often each name is read, read as an attribute or imported; the
    assignment that defines a constant is not a use."""
    uses = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
    return uses


def _defined(node) -> list[str]:
    """Names a module-level statement defines: a def, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_top_level_definition_has_a_caller():
    assert LIBRARY and len(CALLERS) > len(LIBRARY)
    uses = _uses(CALLERS)
    unused = [f"{path.name}:{name}"
              for path in LIBRARY
              for node in ast.parse(path.read_text(), str(path)).body
              for name in _defined(node)
              if not uses[name]]
    assert unused == []
