import csv

import numpy as np
import pytest

from qgjet.cli import EXIT_OK, main
from qgjet.datastore import read_checkpoint, write_checkpoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert main(["synth", "--preset", "easy", "--n", "8", "--seed", "1",
                 "--out", str(d / "train.jqg")]) == EXIT_OK
    assert main(["synth", "--preset", "easy", "--n", "8", "--seed", "2",
                 "--out", str(d / "val.jqg")]) == EXIT_OK
    return d


@pytest.fixture(scope="module", params=("conv", "vit"))
def trained(request, data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"run_{request.param}")
    assert main(["train", "--data", str(data_dir), "--model", request.param,
                 "--seeds", "1", "--out", str(out),
                 "--set", "aug.out_size=32", "--set", "max_epochs=2"]) == EXIT_OK
    return out


def _best_epoch_row(run_csv) -> dict[str, str]:
    with open(run_csv, newline="") as f:
        rows = list(csv.reader(f))
    header, epochs, summary = rows[0], rows[1:-1], rows[-1]
    best = int(summary[summary.index("best_epoch") + 1])
    return dict(zip(header, epochs[best]))


def _eval_lines(capsys, args) -> dict[str, str]:
    capsys.readouterr()
    assert main(["eval", *args]) == EXIT_OK
    out = capsys.readouterr().out
    return dict(line.split(None, 1) for line in out.splitlines())


def test_eval_reproduces_fit_best_epoch(trained, data_dir, capsys):
    """Conv models score on ImageNet-normalised inputs in fit; eval must too."""
    best = _best_epoch_row(trained / "run_seed1.csv")
    printed = _eval_lines(capsys, ["--checkpoint", str(trained / "model_seed1.ckpt"),
                                   "--data", str(data_dir / "val.jqg")])
    assert printed["accuracy"] == best["accuracy"]
    assert printed["roc_auc"] == best["roc_auc"]


def test_eval_warns_on_degenerate_metrics(trained, data_dir, capsys):
    state = read_checkpoint(trained / "model_seed1.ckpt")
    state["head.w"] = np.zeros_like(state["head.w"])
    state["head.b"] = np.array([50.0, -50.0], dtype=state["head.b"].dtype)  # always class 0
    ckpt = trained / "one_class.ckpt"
    write_checkpoint(ckpt, state)
    printed = _eval_lines(capsys, ["--checkpoint", str(ckpt), "--data", str(data_dir / "val.jqg"),
                                   "--config", str(trained / "run_config.txt"),
                                   "--stats", str(trained / "stats.txt")])
    assert printed["precision"] == "0.0000"
    assert printed["warning:"].startswith("degenerate metrics")
