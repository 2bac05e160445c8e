"""The benchmark under ``perfbench/`` reaches into qgjet by name: its traced
run wraps functions at the modules that call them, and its workloads import
configs, entry points and helpers. These tests make a rename or deletion of
any such name, or a changed signature of a function or class it calls, fail
here, not only when the benchmark runs. They read ``perfbench/`` and change
nothing in it."""
import ast
import importlib
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qgjet import augment, autodiff, datastore, models, optim, preprocess, synth, train
from qgjet.rng import stream

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


def test_traced_vit_step_counts_no_float64_node(monkeypatch):
    """The traced run's ``autodiff.nodes_float64`` reads 0 for a float32
    ViT training step, and its tape count sees every node before
    ``backward`` consumes the tape."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    model = models.build_model("vit", 32, stream(0, "init"),
                               vit_cfg=models.ViTConfig(embed_dim=16, depth=2, heads=2))
    images = autodiff.Tensor(stream(1, "images").random((2, 3, 32, 32), dtype=np.float32))
    inst = layers.Instrument()
    inst.install()
    try:
        with autodiff.Tape() as tape:
            logits = model.forward(images, autodiff.TRAIN, stream(1, "dropout"))
            loss = autodiff.cross_entropy_soft(logits, autodiff.Tensor(np.eye(2, dtype=np.float32)))
        autodiff.backward(tape, loss)
    finally:
        inst.restore()
    metrics = layers.per_layer(inst, {})
    assert metrics["autodiff.tape_nodes"] > 50
    assert metrics["autodiff.nodes_float64"] == 0


def test_detector_spans_fire(monkeypatch):
    """The traced run's synth span counts every sampled event, and each
    detector span one call per event that passes ``apply_selection``, so a
    per-call time means the same whether or not the crop then rejects the
    event, and no per-layer metric can silently read 0. Seed 7 over
    |eta| < 1.79 has a window that leaves the eta range, so it is rejected."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    select, selected = synth.apply_selection, []

    def counted(event):
        selected.append(select(event))
        return selected[-1]

    monkeypatch.setattr(synth, "apply_selection", counted)
    wide = replace(synth.preset("easy", seed=7), jet_eta_range=(-1.79, 1.79))
    for config, rejected in ((synth.preset("easy", seed=1), 0), (wide, 1)):
        selected.clear()
        inst = layers.Instrument()
        inst.install()
        try:
            windows = synth.generate_dataset(config, 2)
        finally:
            inst.restore()
        calls = {name: n for name, (n, _, _) in spans.summarize(inst.tracer.spans).items()}
        assert calls.get("synth.sample_jet") == len(selected)
        for name in ("detector.bin_hits", "detector.find_window_center",
                     "detector.crop_jet_window"):
            assert calls.get(name) == sum(selected) == len(windows) + rejected, name


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


def _qgjet_calls(path: Path):
    """(call node, callee) for each call in the file whose callee is a qgjet
    function or class, named directly or read off an imported qgjet module."""
    tree = ast.parse(path.read_text())
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qgjet":
            modules.update({a.asname or a.name: importlib.import_module(f"qgjet.{a.name}")
                            for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qgjet."):
            owner = importlib.import_module(node.module)
            names.update({a.asname or a.name: getattr(owner, a.name) for a in node.names})
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            yield node, names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            yield node, getattr(modules[func.value.id], func.attr)


@pytest.mark.parametrize("name", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_calls_still_bind(name):
    """Each call keeps its shape: as many positional arguments and the same
    keyword names still bind to the callee's signature."""
    unbound = []
    for call, callee in _qgjet_calls(PERFBENCH / name):
        assert not any(isinstance(a, ast.Starred) for a in call.args), call.lineno
        assert all(k.arg for k in call.keywords), call.lineno
        try:
            inspect.signature(callee).bind(*call.args, **{k.arg: k for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"perfbench/{name}:{call.lineno} {callee.__qualname__}: {exc}")
    assert unbound == []
