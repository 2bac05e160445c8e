"""Line-based ``key = value`` run configuration with ``#`` comments.

Keys address TrainConfig fields directly, AugmentConfig fields under
``aug.``, and model hyperparameters under ``model.<arch>.<field>``, where
``<arch>`` is ``vit``, ``conv`` or ``hybrid``. ``apply_settings`` resolves
all three here, the ``model.`` keys into ``build_model`` keyword arguments,
and ``_coerce`` turns every value's text into its field's type.
Command-line overrides win over file values; every run emits the
fully-resolved configuration next to its outputs.

Only values that a run can vary are settings. The model input size is
``aug.out_size``, the class count is 2, and the detector grid and the
preprocessing constants are module constants, so none of them has a key.
"""
from __future__ import annotations

import dataclasses
from dataclasses import replace

from .augment import AugmentConfig
from .models import ConvConfig, HybridConfig, ViTConfig
from .train import TrainConfig

# model.<arch> -> (config class, build_model keyword)
MODEL_GROUPS = {"vit": (ViTConfig, "vit_cfg"), "conv": (ConvConfig, "conv_cfg"),
                "hybrid": (HybridConfig, "hybrid_cfg")}


def parse_kv_file(path) -> dict[str, str]:
    settings: dict[str, str] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = body.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings


def _coerce(current, text: str):
    if isinstance(current, bool):
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from {text!r}")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if isinstance(current, tuple):
        if current and isinstance(current[0], tuple):  # unfreeze schedule: "5:1,8:2"
            return tuple(tuple(int(p) for p in item.split(":")) for item in text.split(","))
        elem = type(current[0]) if current else float
        return tuple(elem(p) for p in text.split(","))
    return text


def apply_settings(train_cfg: TrainConfig, aug_cfg: AugmentConfig,
                   settings: dict[str, str]):
    """Resolve flat settings onto the config dataclasses.

    Returns (train config, augment config, ``build_model`` keyword arguments
    from the ``model.*`` keys).
    """
    model_kwargs: dict = {}
    train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
    aug_fields = {f.name for f in dataclasses.fields(AugmentConfig)}
    for key, value in settings.items():
        if key.startswith("model."):
            arch, _, name = key.removeprefix("model.").partition(".")
            if not name:
                raise ValueError(f"model settings use model.<arch>.<field>, got {key}")
            if arch not in MODEL_GROUPS:
                raise ValueError(f"unknown architecture group model.{arch}")
            cls, kw = MODEL_GROUPS[arch]
            cfg = model_kwargs.get(kw) or cls()
            if name not in {f.name for f in dataclasses.fields(cls)}:
                raise ValueError(f"unknown field model.{arch}.{name}")
            model_kwargs[kw] = replace(cfg, **{name: _coerce(getattr(cfg, name), value)})
        elif key.startswith("aug."):
            name = key.removeprefix("aug.")
            if name not in aug_fields:
                raise ValueError(f"unknown augmentation setting: {name}")
            aug_cfg = replace(aug_cfg, **{name: _coerce(getattr(aug_cfg, name), value)})
        else:
            if key not in train_fields:
                raise ValueError(f"unknown training setting: {key}")
            train_cfg = replace(train_cfg, **{key: _coerce(getattr(train_cfg, key), value)})
    return train_cfg, aug_cfg, model_kwargs


def _format_value(value) -> str:
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{a}:{b}" for a, b in value)
        return ",".join(str(v) for v in value)
    return str(value)


def format_resolved(train_cfg: TrainConfig, aug_cfg: AugmentConfig,
                    extras: dict | None = None) -> str:
    lines = ["# fully-resolved run configuration"]
    for f in dataclasses.fields(TrainConfig):
        lines.append(f"{f.name} = {_format_value(getattr(train_cfg, f.name))}")
    for f in dataclasses.fields(AugmentConfig):
        lines.append(f"aug.{f.name} = {_format_value(getattr(aug_cfg, f.name))}")
    for key, value in (extras or {}).items():
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
