import csv

import numpy as np
import pytest

from oracles import straightline_intensity_pgm
from qgjet.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from qgjet.datastore import read_checkpoint, read_dataset, write_checkpoint, write_dataset
from qgjet.detector import GLUON, QUARK, Channel, JetWindow


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
                 "--set", "seeds=1", "--out", str(out),
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
    "model.vit.patch_size=7",  # 32 is not a multiple of 7: rejected when the model is built
    "model.hybrid.dropout=1.5",  # dropout must be in [0, 1), whichever model trains
    # training settings that crashed before any check
    "max_epochs=0", "cosine_t_max=0",
    # the model kind decides ImageNet normalisation, and colour jitter always runs
    "aug.imagenet_normalize=true", "aug.color_jitter=false",
    # augmentation ranges and sizes that crashed, or failed only after the
    # output directory was written; a negative decay and a repeated seed ran
    "aug.crop_scale=0.8", "aug.crop_scale=0.5,0.7,0.9", "aug.crop_ratio=0.5",
    "aug.crop_ratio=0,1", "aug.out_size=0", "weight_decay=-1", "seeds=1,1"))
def test_bad_model_setting_is_a_usage_error(data_dir, tmp_path, capsys, setting):
    capsys.readouterr()
    assert _train(data_dir, tmp_path / "run", "--set", "seeds=1", "--set", setting,
                  model="vit") == EXIT_USAGE
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting", ("staged_unfreezing=true", "unfreeze_schedule=5:1,8:2",
                                     "unfrozen_lr=1e-6"))
def test_removed_training_setting_is_unknown(data_dir, tmp_path, capsys, setting):
    """Every parameter trains from scratch at one rate: staged unfreezing is gone."""
    capsys.readouterr()
    assert _train(data_dir, tmp_path / "run", "--set", setting) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: unknown setting: {setting.split('=')[0]}\n"
    assert not (tmp_path / "run").exists()


def test_seeds_setting_is_not_overridden_by_the_flag_default(data_dir, tmp_path):
    assert _train(data_dir, tmp_path, "--set", "seeds=7") == EXIT_OK
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["model_seed7.ckpt"]


def test_zero_seeds_is_a_usage_error(data_dir, tmp_path):
    assert _train(data_dir, tmp_path / "run", "--set", "seeds=") == EXIT_USAGE
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("case", ("other_model", "other_shape"))
def test_checkpoint_that_does_not_fit_its_config_is_a_data_error(trained, data_dir, tmp_path,
                                                                 capsys, case):
    kind = (trained / "run_config.txt").read_text().split("\nmodel = ")[1].split()[0]
    config, ckpt = trained / "run_config.txt", trained / "model_seed1.ckpt"
    if case == "other_model":  # a conv checkpoint under a vit config, and the reverse
        other = "vit" if kind == "conv" else "conv"
        config = tmp_path / "run_config.txt"
        config.write_text((trained / "run_config.txt").read_text()
                          .replace(f"\nmodel = {kind}\n", f"\nmodel = {other}\n"))
    else:
        state = read_checkpoint(ckpt)
        state["head.w"] = np.zeros((3, *state["head.w"].shape[1:]), state["head.w"].dtype)
        ckpt = tmp_path / "wide_head.ckpt"
        write_checkpoint(ckpt, state)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir / "val.jqg"),
                 "--config", str(config), "--stats", str(trained / "stats.txt")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and err.count("\n") == 1
    assert f"{ckpt} does not fit {config}" in err
    if case == "other_model":
        assert "missing parameters: " in err and "unexpected parameters: " in err
    else:
        assert "shape mismatch for head.w" in err


@pytest.mark.parametrize("argv", (
    ["preprocess", "--in", "a.jqg", "--stats", "stats.txt", "--out", "b.jqg"],
    ["train", "--data", "d", "--model", "conv", "--out", "o", "--seeds", "2"]))
def test_removed_command_and_flag_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


def _flat_dataset(path):
    flat = np.zeros((3, 125, 125), dtype=np.float32)
    write_dataset(path, [JetWindow(flat, label=0), JetWindow(flat, label=1)])
    return path


def _split_with(tmp_path, data_dir, name, raw):
    """A copy of the data directory whose ``name`` file holds ``raw``."""
    split = tmp_path / "split"
    split.mkdir()
    for other in ("train.jqg", "val.jqg"):
        (split / other).write_bytes((data_dir / other).read_bytes())
    (split / name).write_bytes(raw)
    return split


def _eval_argv(tmp_path, data, stats="mu: 0 0 0\nsigma: 1 1 1\n"):
    """eval of a checkpoint that is never read: the config, statistics and
    data are checked first."""
    (tmp_path / "run_config.txt").write_text("model = conv\n")
    (tmp_path / "stats.txt").write_text(stats)
    return ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(data)]


@pytest.mark.parametrize("case, code", [
    ("degenerate_channel", EXIT_NUMERIC),
    ("bad_magic", EXIT_DATA),
    ("missing_train", EXIT_DATA),
    ("set_without_equals", EXIT_USAGE),
    ("label_byte_2", EXIT_DATA),
    ("empty_val", EXIT_DATA),
    ("eval_empty_data", EXIT_DATA),
    ("eval_zero_sigma", EXIT_DATA),
    ("stats_empty_train", EXIT_DATA),
    ("val_window_shape", EXIT_DATA),
    ("render_window_shape", EXIT_DATA),
    ("val_one_class", EXIT_DATA),
    ("eval_one_class", EXIT_DATA),
])
def test_error_exit_codes(case, code, data_dir, tmp_path, capsys):
    """Each failure class maps to its exit code and is reported once."""
    named = None  # the file the message must name
    if case == "label_byte_2":
        raw = bytearray((data_dir / "train.jqg").read_bytes())
        raw[15] = 2  # the first sample's label, right after the 15-byte header
        named = _split_with(tmp_path, data_dir, "train.jqg", bytes(raw)) / "train.jqg"
        argv = ["train", "--data", str(named.parent), "--model", "conv",
                "--out", str(tmp_path / "run")]
    elif case == "empty_val":
        write_dataset(tmp_path / "empty.jqg", [])
        named = _split_with(tmp_path, data_dir, "val.jqg",
                            (tmp_path / "empty.jqg").read_bytes()) / "val.jqg"
        argv = ["train", "--data", str(named.parent), "--model", "conv",
                "--out", str(tmp_path / "run")]
    elif case == "eval_empty_data":
        named = tmp_path / "empty.jqg"
        write_dataset(named, [])
        argv = _eval_argv(tmp_path, named)
    elif case == "eval_zero_sigma":
        argv = _eval_argv(tmp_path, data_dir / "val.jqg", stats="mu: 0 0 0\nsigma: 0 0 0\n")
        named = tmp_path / "stats.txt"
    elif case == "stats_empty_train":
        named = tmp_path / "empty.jqg"
        write_dataset(named, [])
        argv = ["stats", "--train", str(named), "--out", str(tmp_path / "run")]
    elif case in ("val_window_shape", "val_one_class"):
        # 3x20x20 windows of both classes, or the val windows that are quarks
        windows = ([JetWindow(np.zeros((3, 20, 20), np.float32), label) for label in (0, 1)]
                   if case == "val_window_shape" else
                   [w for w in read_dataset(data_dir / "val.jqg") if w.label == QUARK])
        write_dataset(tmp_path / "odd.jqg", windows)
        named = _split_with(tmp_path, data_dir, "val.jqg",
                            (tmp_path / "odd.jqg").read_bytes()) / "val.jqg"
        argv = ["train", "--data", str(named.parent), "--model", "conv",
                "--out", str(tmp_path / "run"), "--set", "seeds=1", *TINY]
    elif case == "render_window_shape":
        named = tmp_path / "small.jqg"
        write_dataset(named, [JetWindow(np.ones((3, 20, 20), np.float32), 1)])
        argv = ["render", "--data", str(named), "--label", "q", "--channel", "ecal",
                "--out", str(tmp_path / "run")]
    elif case == "eval_one_class":
        named = tmp_path / "quarks.jqg"
        write_dataset(named, [w for w in read_dataset(data_dir / "val.jqg") if w.label == QUARK])
        argv = _eval_argv(tmp_path, named)
    elif case == "degenerate_channel":
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
    assert named is None or str(named) in err
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
