import pytest

from qgjet.augment import AugmentConfig
from qgjet.config import apply_settings, format_resolved, parse_kv_file
from qgjet.models import ConvConfig, HybridConfig, ViTConfig
from qgjet.train import TrainConfig

# one non-default value per field kind: float, int, str, bool, int tuple,
# float tuple and the (epoch, n) unfreeze schedule
TRAIN = TrainConfig(head_lr=3e-4, max_epochs=7, optimizer="lion", seeds=(4, 9),
                    staged_unfreezing=True, unfreeze_schedule=((0, 1), (2, 3)))
AUG = AugmentConfig(crop_scale=(0.5, 0.9), out_size=48, color_jitter=False, max_rotation_deg=12.5)
MODEL = {"model.conv.widths": "8,16", "model.vit.depth": "2", "model.hybrid.dropout": "0.3"}


def _round_trip(tmp_path, train, aug, model_settings):
    path = tmp_path / "run_config.txt"
    path.write_text(format_resolved(train, aug, model_settings))
    return apply_settings(TrainConfig(), AugmentConfig(), parse_kv_file(path))


def test_resolved_config_round_trips(tmp_path):
    train, aug, model = _round_trip(tmp_path, TRAIN, AUG, MODEL)
    assert train == TRAIN
    assert aug == AUG
    assert model == apply_settings(TrainConfig(), AugmentConfig(), MODEL)[2]


def test_defaults_round_trip(tmp_path):
    train, aug, model = _round_trip(tmp_path, TrainConfig(), AugmentConfig(), {})
    assert (train, aug, model) == (TrainConfig(), AugmentConfig(), {})


def test_model_settings_resolve_to_build_kwargs():
    _, _, kwargs = apply_settings(TrainConfig(), AugmentConfig(), MODEL)
    assert kwargs == {"conv_cfg": ConvConfig(widths=(8, 16)), "vit_cfg": ViTConfig(depth=2),
                      "hybrid_cfg": HybridConfig(dropout=0.3)}


def test_repeated_group_keeps_every_field():
    _, _, kwargs = apply_settings(TrainConfig(), AugmentConfig(),
                                  {"model.vit.depth": "2", "model.vit.embed_dim": "32"})
    assert kwargs == {"vit_cfg": ViTConfig(depth=2, embed_dim=32)}


@pytest.mark.parametrize("key, value", [
    ("model.bogus.x", "1"),          # unknown architecture group
    ("model.conv.bogus", "1"),       # unknown field
    ("model.conv", "8"),             # no field
    ("model.conv.widths", "a"),      # not an int tuple
    ("model.hybrid.dropout", "x"),   # not a float
    ("aug.bogus", "1"),
    ("bogus", "1"),
    ("staged_unfreezing", "maybe"),  # booleans are strict
    ("model.vit.image_size", "64"),  # the input size is aug.out_size
    ("model.hybrid.num_classes", "2"),  # the class count is fixed
])
def test_bad_settings_rejected(key, value):
    with pytest.raises(ValueError):
        apply_settings(TrainConfig(), AugmentConfig(), {key: value})
