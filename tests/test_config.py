import re

import pytest

from qgjet.augment import AugmentConfig
from qgjet.config import apply_settings, format_resolved, parse_kv_file
from qgjet.models import ConvConfig, HybridConfig, ViTConfig
from qgjet.train import TrainConfig

# one non-default value per field kind: float, int, str, int tuple and float tuple
TRAIN = TrainConfig(head_lr=3e-4, max_epochs=7, optimizer="lion", seeds=(4, 9))
AUG = AugmentConfig(crop_scale=(0.5, 0.9), out_size=48, max_rotation_deg=12.5)
MODEL = {"model.conv.widths": "8,16", "model.vit.depth": "2", "model.hybrid.dropout": "0.3"}


def _round_trip(tmp_path, train, aug, model_settings):
    path = tmp_path / "run_config.txt"
    path.write_text(format_resolved(train, aug, model_settings))
    return apply_settings(parse_kv_file(path))


def test_resolved_config_round_trips(tmp_path):
    train, aug, model = _round_trip(tmp_path, TRAIN, AUG, MODEL)
    assert train == TRAIN
    assert aug == AUG
    assert model == apply_settings(MODEL)[2]


def test_defaults_round_trip(tmp_path):
    train, aug, model = _round_trip(tmp_path, TrainConfig(), AugmentConfig(), {})
    assert (train, aug, model) == (TrainConfig(), AugmentConfig(), {})


def test_model_settings_resolve_to_build_kwargs():
    _, _, kwargs = apply_settings(MODEL)
    assert kwargs == {"conv_cfg": ConvConfig(widths=(8, 16)), "vit_cfg": ViTConfig(depth=2),
                      "hybrid_cfg": HybridConfig(dropout=0.3)}


def test_repeated_group_keeps_every_field():
    _, _, kwargs = apply_settings({"model.vit.depth": "2", "model.vit.embed_dim": "32"})
    assert kwargs == {"vit_cfg": ViTConfig(depth=2, embed_dim=32)}


@pytest.mark.parametrize("key, value", [
    ("model.bogus.x", "1"),          # unknown architecture group
    ("model.conv.bogus", "1"),       # unknown field
    ("model.conv", "8"),             # no field
    ("model.conv.widths", "a"),      # not an int tuple
    ("model.hybrid.dropout", "x"),   # not a float
    ("aug.bogus", "1"),
    ("bogus", "1"),
    (".max_epochs", "3"),            # a bare leading dot names no group
    ("model.vit.", "3"),             # no field
    ("model.vit.image_size", "64"),  # the input size is aug.out_size
    ("model.hybrid.num_classes", "2"),  # the class count is fixed
    ("max_epochs", "0"),             # fit would return no epoch
    ("cosine_t_max", "0"),           # the cosine period divides
    ("model.hybrid.dropout", "1.5"),  # dropout must be in [0, 1)
    ("model.hybrid.dropout", "-0.1"),
    ("aug.imagenet_normalize", "true"),  # the model kind decides it
    ("aug.color_jitter", "false"),   # colour jitter always runs
    ("aug.crop_scale", "0.8"),       # a range needs both ends
    ("aug.crop_scale", "0.5,0.7,0.9"),
    ("aug.crop_ratio", "0.5"),
    ("aug.crop_ratio", "0,1"),       # the log-uniform ratio needs a positive low end
    ("aug.crop_ratio", "1.33,0.75"),  # reversed
    ("aug.out_size", "0"),           # the resize divides by it
    ("weight_decay", "-1"),
    ("seeds", "1,1"),                # a repeated seed would overwrite its checkpoint
])
def test_bad_settings_rejected(key, value):
    with pytest.raises(ValueError, match=re.escape(key)):
        apply_settings({key: value})


# every parameter trains from scratch at one rate, so the staged-unfreezing
# settings are gone; each value here is the default they once had
REMOVED_SETTINGS = (("staged_unfreezing", "false"), ("unfreeze_schedule", "5:1,8:2"),
                    ("unfrozen_lr", "1e-6"))


@pytest.mark.parametrize("key, value", REMOVED_SETTINGS)
def test_removed_setting_is_unknown(key, value):
    with pytest.raises(ValueError, match=f"^unknown setting: {key}$"):
        apply_settings({key: value})


def test_group_is_checked_once_whatever_the_key_order():
    """Each config is built from all of its settings: no intermediate check."""
    want = {"vit_cfg": ViTConfig(embed_dim=48, heads=6)}
    assert apply_settings({"model.vit.heads": "6", "model.vit.embed_dim": "48"})[2] == want
    assert apply_settings({"model.vit.embed_dim": "48", "model.vit.heads": "6"})[2] == want


@pytest.mark.parametrize("key, value", [
    ("max_epochs", "x"),             # not an int
    ("max_epochs", "0"),
    ("aug.flip_prob", "2"),
    ("model.hybrid.dropout", "1.5"),
])
def test_rejected_value_names_its_key(key, value):
    with pytest.raises(ValueError, match=re.escape(f"{key}={value}")):
        apply_settings({"seeds": "1", key: value})
