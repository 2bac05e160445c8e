"""Line-based ``key = value`` run configuration with ``#`` comments.

Keys address TrainConfig fields directly, AugmentConfig fields under
``aug.``, and model hyperparameters under ``model.<arch>.<field>``, where
``<arch>`` is ``vit``, ``conv`` or ``hybrid``. ``apply_settings`` resolves
all three here, the ``model.`` keys into ``build_model`` keyword arguments,
and ``_coerce`` turns every value's text into its field's type: an int, a
float, a string, or a comma-separated tuple of ints or floats
(``seeds = 1,2,3``). No setting is a boolean.
Command-line overrides win over file values; every run emits the
fully-resolved configuration next to its outputs.

Only values that a run can vary are settings. The model input size is
``aug.out_size``, the class count is 2, and the detector grid and the
preprocessing constants are module constants, so none of them has a key.
ImageNet normalisation follows the model kind (``uses_imagenet_norm``), so
``aug.imagenet_normalize`` is rejected like an unknown key and never
recorded; colour jitter always runs.
"""
from __future__ import annotations

import dataclasses

from .augment import AugmentConfig
from .models import ConvConfig, HybridConfig, ViTConfig
from .train import TrainConfig

# key prefix -> (config class, build_model keyword of a model config)
GROUPS = {"": (TrainConfig, None), "aug.": (AugmentConfig, None),
          "model.vit.": (ViTConfig, "vit_cfg"), "model.conv.": (ConvConfig, "conv_cfg"),
          "model.hybrid.": (HybridConfig, "hybrid_cfg")}
# config fields that the model kind decides, so no run may set them
NOT_SETTINGS = ("aug.imagenet_normalize",)


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
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if isinstance(current, tuple):
        elem = type(current[0]) if current else float
        return tuple(elem(p) for p in text.split(","))
    return text


def apply_settings(settings: dict[str, str]):
    """Resolve flat settings onto the default config dataclasses.

    Each config is built once from all of its settings, so key order never
    matters, and a rejected value raises a ValueError that names its key.
    Returns (train config, augment config, ``build_model`` keyword arguments
    from the ``model.*`` keys).
    """
    coerced: dict[type, dict] = {}  # config class -> its coerced field values
    named: dict[type, list[str]] = {}  # config class -> its "key=text" settings
    for key, text in settings.items():
        prefix, dot, name = key.rpartition(".")
        cls, _ = GROUPS.get(prefix + dot, (None, None))
        if (cls is None or key in NOT_SETTINGS
                or name not in {f.name for f in dataclasses.fields(cls)}):
            raise ValueError(f"unknown setting: {key}")
        try:  # a field's class attribute is its default
            coerced.setdefault(cls, {})[name] = _coerce(getattr(cls, name), text)
        except ValueError as exc:
            raise ValueError(f"{key}={text}: {exc}") from exc
        named.setdefault(cls, []).append(f"{key}={text}")
    built = {}
    for cls, values in coerced.items():
        try:
            built[cls] = cls(**values)
        except ValueError as exc:
            raise ValueError(f"{', '.join(named[cls])}: {exc}") from exc
    return (built.get(TrainConfig, TrainConfig()), built.get(AugmentConfig, AugmentConfig()),
            {kw: built[cls] for cls, kw in GROUPS.values() if kw and cls in built})


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def format_resolved(train_cfg: TrainConfig, aug_cfg: AugmentConfig,
                    extras: dict | None = None) -> str:
    lines = ["# fully-resolved run configuration"]
    for f in dataclasses.fields(TrainConfig):
        lines.append(f"{f.name} = {_format_value(getattr(train_cfg, f.name))}")
    for f in dataclasses.fields(AugmentConfig):
        if f"aug.{f.name}" not in NOT_SETTINGS:
            lines.append(f"aug.{f.name} = {_format_value(getattr(aug_cfg, f.name))}")
    for key, value in (extras or {}).items():
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
