"""Single-factor sensitivity sweeps: one run per axis value, with every
other setting held at the base configuration. Each run trains once for
every seed in the ``seeds`` setting, as ``train`` does, and its row reports
the mean and spread over those seeds.

Each axis value is a settings overlay that ``config.apply_settings`` resolves
over the base settings. ``batch_size``, ``optimizer`` and ``weight_decay`` set
the setting of that name, ``learning_rate`` sets ``head_lr``, ``epochs`` sets
``max_epochs`` and ``dropout`` (hybrids only) ``model.hybrid.dropout``.
``model_size`` (not conv) sets ``model.vit.embed_dim``, ``depth`` and
``heads`` from ``MODEL_SIZES``. ``dataset_size`` sets no key: it is the
fraction of the training windows the run keeps.
"""
from __future__ import annotations

from .config import apply_settings

AXIS_KEYS = {"batch_size": "batch_size", "optimizer": "optimizer",
             "weight_decay": "weight_decay", "learning_rate": "head_lr",
             "epochs": "max_epochs", "dropout": "model.hybrid.dropout"}

# named transformer sizes for the model_size axis: (embed_dim, depth, heads)
MODEL_SIZES = {"tiny": (32, 2, 2), "small": (64, 4, 4), "base": (128, 6, 8)}


def resolve_sweep(settings: dict[str, str], model_kind: str, axis: str,
                  raw_values: list[str]) -> list[tuple]:
    """Resolve every axis value over the base settings before any run.

    Returns one (row label, training-window fraction, train config, augment
    config, ``build_model`` keyword arguments) tuple per value.
    """
    if axis not in (*AXIS_KEYS, "model_size", "dataset_size"):
        raise ValueError(f"unknown sweep axis: {axis!r}")
    if not raw_values:
        raise ValueError("sweep needs at least one value")
    if axis == "dropout" and not model_kind.startswith("hybrid"):
        raise ValueError("the dropout axis applies to the hybrid head; use a hybrid model")
    if axis == "model_size" and model_kind == "conv":
        raise ValueError("the model_size axis varies the transformer; use vit or a hybrid")
    runs = []
    for raw in raw_values:
        overlay = {AXIS_KEYS[axis]: raw} if axis in AXIS_KEYS else {}
        if axis == "model_size":
            if raw not in MODEL_SIZES:
                raise ValueError(f"unknown model size {raw!r} (choose from {sorted(MODEL_SIZES)})")
            overlay = {f"model.vit.{name}": str(n)
                       for name, n in zip(("embed_dim", "depth", "heads"), MODEL_SIZES[raw])}
        train_cfg, aug_cfg, kwargs = apply_settings({**settings, **overlay})
        try:
            fraction = float(raw) if axis == "dataset_size" else 1.0
            if not 0.0 < fraction <= 1.0:
                raise ValueError("not a fraction in (0, 1]")
        except ValueError as exc:
            raise ValueError(f"dataset_size={raw}: {exc}") from exc
        value = fraction if axis == "dataset_size" else raw  # a model_size keeps its name
        if axis == "dropout":
            value = kwargs["hybrid_cfg"].dropout
        elif axis in AXIS_KEYS:
            value = getattr(train_cfg, AXIS_KEYS[axis])
        runs.append((f"{model_kind} {axis}={value}", fraction, train_cfg, aug_cfg, kwargs))
    return runs
