import pytest

from qgjet import sweep
from qgjet.augment import AugmentConfig
from qgjet.cli import EXIT_USAGE, main
from qgjet.train import TrainConfig


def test_unknown_axis_is_a_usage_error_before_any_data_is_read(tmp_path, capsys):
    code = main(["sweep", "--axis", "bogus", "--values", "1,2", "--data", str(tmp_path / "missing"),
                 "--model", "vit", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "unknown sweep axis: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_sweep_rejects_an_unknown_axis_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("fit must not run for an unknown axis")

    monkeypatch.setattr(sweep, "fit", no_training)
    with pytest.raises(ValueError, match="unknown sweep axis: 'bogus'"):
        sweep.run_sweep([], [], "vit", TrainConfig(), AugmentConfig(), "bogus", [1.0])


def test_parse_values():
    assert sweep.parse_values("batch_size", ["8", "16"]) == [8, 16]
    assert sweep.parse_values("dropout", ["0.25"]) == [0.25]
    for axis, raw in (("bogus", ["1"]), ("optimizer", ["sgdx"]), ("model_size", ["huge"]),
                      ("epochs", [])):
        with pytest.raises(ValueError):
            sweep.parse_values(axis, raw)
