import csv

import numpy as np
import pytest

from oracles import straightline_intensity_pgm
from qgjet.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from qgjet.datastore import read_checkpoint, read_dataset, write_checkpoint, write_dataset
from qgjet.detector import GLUON, QUARK, Channel


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


def _train(data_dir, out, *args, model="conv"):
    return main(["train", "--data", str(data_dir), "--model", model, "--out", str(out),
                 *TINY, *args])


@pytest.mark.parametrize("setting", (
    "model.bogus.x=1", "model.conv.widths=a",
    # the input size is aug.out_size and the class count is 2: neither is a setting
    "model.vit.image_size=64", "model.conv.image_size=999", "model.hybrid.num_classes=3",
    "model.vit.num_classes=3",
    "model.vit.patch_size=7"))  # 32 is not a multiple of 7: rejected when the model is built
def test_bad_model_setting_is_a_usage_error(data_dir, tmp_path, setting):
    assert _train(data_dir, tmp_path / "run", "--seeds", "1", "--set", setting,
                  model="vit") == EXIT_USAGE
    assert not (tmp_path / "run").exists()


def test_seeds_setting_is_not_overridden_by_the_flag_default(data_dir, tmp_path):
    assert _train(data_dir, tmp_path, "--set", "seeds=7") == EXIT_OK
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["model_seed7.ckpt"]


def test_seeds_flag_runs_seeds_one_to_n(data_dir, tmp_path):
    assert _train(data_dir, tmp_path, "--seeds", "2") == EXIT_OK
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["model_seed1.ckpt",
                                                              "model_seed2.ckpt"]


def test_zero_seeds_is_a_usage_error(data_dir, tmp_path):
    assert _train(data_dir, tmp_path / "run", "--seeds", "0") == EXIT_USAGE
    assert not (tmp_path / "run").exists()


def test_seeds_flag_wins_over_a_seeds_setting_of_the_same_length(data_dir, tmp_path):
    assert _train(data_dir, tmp_path, "--seeds", "2", "--set", "seeds=7,8") == EXIT_OK
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["model_seed1.ckpt",
                                                              "model_seed2.ckpt"]
    assert "seeds = 1,2\n" in (tmp_path / "run_config.txt").read_text()


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


def _flat_dataset(path):
    from qgjet.datastore import write_dataset
    from qgjet.detector import JetWindow

    flat = np.zeros((3, 125, 125), dtype=np.float32)
    write_dataset(path, [JetWindow(flat, label=0), JetWindow(flat, label=1)])
    return path


@pytest.mark.parametrize("case, code", [
    ("degenerate_channel", EXIT_NUMERIC),
    ("bad_magic", EXIT_DATA),
    ("missing_train", EXIT_DATA),
    ("set_without_equals", EXIT_USAGE),
])
def test_error_exit_codes(case, code, data_dir, tmp_path, capsys):
    """Each failure class maps to its exit code and is reported once."""
    if case == "degenerate_channel":
        argv = ["stats", "--train", str(_flat_dataset(tmp_path / "flat.jqg")),
                "--out", str(tmp_path / "stats.txt")]
    elif case == "bad_magic":
        (tmp_path / "bad.jqg").write_bytes(b"NOPE" + bytes(16))
        argv = ["stats", "--train", str(tmp_path / "bad.jqg"), "--out", str(tmp_path / "stats.txt")]
    elif case == "missing_train":
        argv = ["train", "--data", str(tmp_path), "--model", "conv", "--out", str(tmp_path / "run")]
    else:
        argv = ["train", "--data", str(data_dir), "--model", "conv", "--out", str(tmp_path / "run"),
                "--set", "max_epochs"]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and err.endswith("\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("scale", ("log", "linear"))
@pytest.mark.parametrize("label, channel", [("q", "track"), ("g", "ecal"), ("g", "hcal")])
def test_render_matches_oracle(data_dir, tmp_path, label, channel, scale):
    out = tmp_path / "map.pgm"
    assert main(["render", "--data", str(data_dir / "train.jqg"), "--label", label,
                 "--channel", channel, "--scale", scale, "--out", str(out)]) == EXIT_OK
    want = QUARK if label == "q" else GLUON
    images = [w.data[Channel[channel.upper()]] for w in read_dataset(data_dir / "train.jqg")
              if w.label == want]
    assert len(images) == 8
    assert out.read_bytes() == straightline_intensity_pgm(images, log=scale == "log")


def test_render_label_with_no_windows_is_a_usage_error(data_dir, tmp_path, capsys):
    quarks = tmp_path / "quarks.jqg"
    write_dataset(quarks, [w for w in read_dataset(data_dir / "train.jqg") if w.label == QUARK])
    assert main(["render", "--data", str(quarks), "--label", "g", "--channel", "ecal",
                 "--out", str(tmp_path / "map.pgm")]) == EXIT_USAGE
    assert "no windows with label 'g'" in capsys.readouterr().err
    assert not (tmp_path / "map.pgm").exists()
