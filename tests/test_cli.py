import csv

import numpy as np
import pytest

from qgjet.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
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


TINY = ("--set", "aug.out_size=32", "--set", "max_epochs=1")


def _train(data_dir, out, *args):
    return main(["train", "--data", str(data_dir), "--model", "conv", "--out", str(out),
                 *TINY, *args])


@pytest.mark.parametrize("setting", ("model.bogus.x=1", "model.conv.widths=a"))
def test_bad_model_setting_is_a_usage_error(data_dir, tmp_path, setting):
    assert _train(data_dir, tmp_path, "--seeds", "1", "--set", setting) == EXIT_USAGE


def test_seeds_setting_is_not_overridden_by_the_flag_default(data_dir, tmp_path):
    assert _train(data_dir, tmp_path, "--set", "seeds=7") == EXIT_OK
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["model_seed7.ckpt"]


def test_seeds_flag_runs_seeds_one_to_n(data_dir, tmp_path):
    assert _train(data_dir, tmp_path, "--seeds", "2") == EXIT_OK
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["model_seed1.ckpt",
                                                              "model_seed2.ckpt"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_non_finite_loss_stops_with_numeric_exit(data_dir, tmp_path, capsys):
    assert _train(data_dir, tmp_path, "--set", "head_lr=1e9") == EXIT_NUMERIC
    assert "epoch 0" in capsys.readouterr().err
    assert not (tmp_path / "model_seed1.ckpt").exists()


def test_eval_without_model_entry_is_a_data_error(trained, data_dir, tmp_path, capsys):
    config = tmp_path / "run_config.txt"
    config.write_text("".join(line for line in (trained / "run_config.txt").read_text()
                              .splitlines(keepends=True) if not line.startswith("model ")))
    assert main(["eval", "--checkpoint", str(trained / "model_seed1.ckpt"),
                 "--data", str(data_dir / "val.jqg"), "--config", str(config)]) == EXIT_DATA
    assert str(config) in capsys.readouterr().err
