"""Every top-level function, class and constant in ``qgjet`` has a caller in
the package or in the benchmark, and every class member is read as an
attribute there. A name only the tests use belongs in the tests
(``tests/oracles.py``), not in the library."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "qgjet").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def _uses(paths, attributes_only=False) -> Counter:
    """How often each name is read, read as an attribute or imported; the
    assignment that defines a constant is not a use."""
    uses = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                uses[node.attr] += 1
            elif attributes_only:
                continue
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses[node.id] += 1
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
    return uses


def _defined(node) -> list[str]:
    """Names a module-level or class-body statement defines: a def, a class,
    a constant, a class attribute or a dataclass field."""
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


def test_every_class_member_is_read():
    """Methods, properties, class attributes and dataclass fields; dunder
    methods are called by Python itself, so they are exempt."""
    reads = _uses(CALLERS, attributes_only=True)
    unread = [f"{path.name}:{cls.name}.{name}"
              for path in LIBRARY
              for cls in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(cls, ast.ClassDef)
              for node in cls.body
              for name in _defined(node)
              if not (name.startswith("__") and name.endswith("__")) and not reads[name]]
    assert unread == []


def test_no_module_imports_another_modules_private_name():
    """An underscore name is its module's own; a name that another module
    needs is public."""
    private = [f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for path in LIBRARY
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("qgjet"))
               for alias in node.names
               if alias.name.startswith("_")]
    assert private == []
