"""The benchmark under ``perfbench/`` reaches into qgjet by name: its traced
run wraps functions at the modules that call them, and its workloads import
configs, entry points and helpers. These tests make a rename or deletion of
any such name fail here, not only when the benchmark runs. They read
``perfbench/`` and change nothing in it."""
import ast
import importlib
from pathlib import Path

import pytest

from qgjet import augment, autodiff, datastore, optim, preprocess, synth, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_instrument_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    owners = (augment, autodiff, datastore, optim, preprocess, synth, train,
              autodiff.Tape, optim.Optimizer)
    before = [dict(vars(o)) for o in owners]
    inst = layers.Instrument()
    inst.install()
    try:
        assert train.fit is not before[owners.index(train)]["fit"]
    finally:
        inst.restore()
    assert [dict(vars(o)) for o in owners] == before


def _qgjet_references(path: Path):
    """(module name, attribute) for each qgjet name the file imports or reads
    off an imported qgjet module."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qgjet":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qgjet."):
            for a in node.names:
                yield node.module.removeprefix("qgjet."), a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


@pytest.mark.parametrize("name", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_names_the_benchmark_uses_exist(name):
    for module, attr in _qgjet_references(PERFBENCH / name):
        owner = importlib.import_module(f"qgjet.{module}")
        assert hasattr(owner, attr), f"perfbench/{name} uses qgjet.{module}.{attr}"
