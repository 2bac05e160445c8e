import csv

import numpy as np
import pytest

from oracles import sweep_run_configs
from qgjet import cli, sweep, train
from qgjet.cli import EXIT_OK, EXIT_USAGE, main
from qgjet.config import apply_settings, parse_kv_file
from qgjet.datastore import read_dataset, read_stats, write_stats
from qgjet.preprocess import ChannelStats, compute_channel_stats


def test_unknown_axis_is_a_usage_error_before_any_data_is_read(tmp_path, capsys):
    code = main(["sweep", "--axis", "bogus", "--values", "1,2", "--data", str(tmp_path / "missing"),
                 "--model", "vit", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "unknown sweep axis: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


AXIS_VALUES = {
    "dataset_size": ["0.5", "1", ".25"],
    "model_size": ["tiny", "small", "base"],
    "batch_size": ["8", "016"],
    "learning_rate": ["1e-3", "0.0005"],
    "optimizer": ["adamw", "adam", "rmsprop", "lion"],
    "weight_decay": ["0", "1e-2"],
    "epochs": ["1", "3"],
    "dropout": ["0", "0.5", ".25"],
}
BASES = ({}, {"aug.out_size": "32", "max_epochs": "2", "model.vit.embed_dim": "32",
              "model.hybrid.dropout": "0.25", "model.conv.widths": "8,16"})


@pytest.mark.parametrize("base", BASES, ids=("defaults", "configured"))
@pytest.mark.parametrize("axis", sorted(AXIS_VALUES))
def test_sweep_values_resolve_as_the_reference(axis, base):
    """Each overlay gives the configs, build kwargs and row label that the
    earlier per-axis parse-and-replace gave."""
    train, aug, kwargs = apply_settings(base)
    want = [sweep_run_configs("hybrid2", train, aug, kwargs, axis, raw)
            for raw in AXIS_VALUES[axis]]
    assert sweep.resolve_sweep(base, "hybrid2", axis, AXIS_VALUES[axis]) == want


@pytest.mark.parametrize("model, axis, values, message", [
    ("vit", "epochs", "1,0", "max_epochs=0"),  # fit would return no epoch
    ("vit", "optimizer", "adam,sgdx", "optimizer=sgdx"),
    ("hybrid2", "dropout", "0.1,1.5", "model.hybrid.dropout=1.5"),  # not in [0, 1)
    ("vit", "dropout", "0.1", "dropout axis"),  # no hybrid head
    ("conv", "model_size", "tiny", "model_size axis"),  # no transformer
    ("vit", "model_size", "small,huge", "model size 'huge'"),
    ("vit", "batch_size", "8,x", "batch_size=x"),
    ("vit", "dataset_size", "0.5,half", "dataset_size=half"),
    ("vit", "dataset_size", "0.5,nan", "dataset_size=nan"),  # a fraction in (0, 1]
    ("vit", "dataset_size", "0", "dataset_size=0"),
    ("vit", "dataset_size", "1.5", "dataset_size=1.5"),
    ("vit", "epochs", ",", "at least one value"),
    ("vit", "bogus", "1", "unknown sweep axis"),
])
def test_bad_sweep_value_reads_no_data_and_fits_nothing(monkeypatch, tmp_path, capsys, model,
                                                        axis, values, message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before every sweep value was resolved")

    monkeypatch.setattr(cli, "_load_split", must_not_run)
    monkeypatch.setattr(train, "fit", must_not_run)
    code = main(["sweep", "--axis", axis, "--values", values, "--data", str(tmp_path),
                 "--model", model, "--out", str(tmp_path / "out"), "--set", "aug.out_size=32"])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class _Stop(Exception):
    pass


def test_sweep_uses_the_data_directory_stats(monkeypatch, tmp_path):
    """Like train, sweep scores with ``<data>/stats.txt`` when it exists."""
    for split, seed in (("train", "1"), ("val", "2")):
        assert main(["synth", "--n", "2", "--seed", seed,
                     "--out", str(tmp_path / f"{split}.jqg")]) == EXIT_OK
    write_stats(tmp_path / "stats.txt", ChannelStats(np.array([1.0, 2.0, 3.0]),
                                                     np.array([4.0, 5.0, 6.0]), 0))
    seen = []

    def capture(*args, stats, **kwargs):
        seen.append(stats)
        raise _Stop

    monkeypatch.setattr(train, "fit", capture)
    with pytest.raises(_Stop):
        main(["sweep", "--axis", "epochs", "--values", "1", "--data", str(tmp_path),
              "--model", "conv", "--out", str(tmp_path / "out"), "--set", "aug.out_size=32"])
    want = read_stats(tmp_path / "stats.txt")
    assert np.array_equal(seen[0].mu, want.mu) and np.array_equal(seen[0].sigma, want.sigma)


def test_sweep_records_its_base_settings_and_stats(tmp_path):
    """Like train, sweep writes run_config.txt and stats.txt beside its CSV;
    the config holds the base settings, not any one axis value."""
    for split, seed in (("train", "1"), ("val", "2")):
        assert main(["synth", "--n", "2", "--seed", seed,
                     "--out", str(tmp_path / f"{split}.jqg")]) == EXIT_OK
    base = {"aug.out_size": "32", "max_epochs": "2", "seeds": "4", "model.conv.widths": "8,16"}
    out = tmp_path / "out"
    overrides = [arg for key, value in base.items() for arg in ("--set", f"{key}={value}")]
    assert main(["sweep", "--axis", "epochs", "--values", "1", "--data", str(tmp_path),
                 "--model", "conv", "--out", str(out), *overrides]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["run_config.txt", "stats.txt",
                                                     "sweep_epochs.csv"]
    recorded = parse_kv_file(out / "run_config.txt")
    assert recorded.pop("model") == "conv"
    assert apply_settings(recorded) == apply_settings(base)
    want = compute_channel_stats(read_dataset(tmp_path / "train.jqg"))
    got = read_stats(out / "stats.txt")
    assert np.array_equal(got.mu, want.mu) and np.array_equal(got.sigma, want.sigma)


def _metric_rows(path) -> list[list[str]]:
    """A metrics CSV's data rows without the label and the timing cells."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    kept = [i for i, name in enumerate(header)
            if name not in ("Model", "TrainTime", "InferenceMs")]
    return [[row[i] for i in kept] for row in rows]


def test_each_sweep_value_averages_every_seed_as_train_does(tmp_path):
    """A sweep row is the run that ``train`` makes with that value set: the
    same fits for every seed in ``seeds``, so the same means and spreads."""
    for split, seed in (("train", "1"), ("val", "2")):
        assert main(["synth", "--n", "4", "--seed", seed,
                     "--out", str(tmp_path / f"{split}.jqg")]) == EXIT_OK
    base = [arg for item in ("aug.out_size=32", "seeds=1,2", "model.conv.widths=8,16")
            for arg in ("--set", item)]
    values = ("1", "2")
    assert main(["sweep", "--axis", "epochs", "--values", ",".join(values),
                 "--data", str(tmp_path), "--model", "conv", "--out", str(tmp_path / "sweep"),
                 *base]) == EXIT_OK
    swept = _metric_rows(tmp_path / "sweep" / "sweep_epochs.csv")
    trained = []
    for value in values:
        out = tmp_path / f"train_{value}"
        assert main(["train", "--data", str(tmp_path), "--model", "conv", "--out", str(out),
                     *base, "--set", f"max_epochs={value}"]) == EXIT_OK
        trained += _metric_rows(out / "metrics.csv")
    assert swept == trained
    assert any(not cell.endswith("±0.0000") for row in swept for cell in row)
