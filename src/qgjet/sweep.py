"""Single-factor sensitivity sweeps: one training run per axis value with a
fixed seed and every other setting held at the base configuration."""
from __future__ import annotations

from dataclasses import replace

from .augment import AugmentConfig
from .models import HybridConfig, ViTConfig, build_model
from .optim import OPTIMIZER_KINDS
from .rng import stream
from .train import TrainConfig, fit, results_row

SWEEP_AXES = ("dataset_size", "model_size", "batch_size", "learning_rate",
              "optimizer", "weight_decay", "epochs", "dropout")

# named transformer sizes for the model_size axis: (embed_dim, depth, heads)
MODEL_SIZES = {"tiny": (32, 2, 2), "small": (64, 4, 4), "base": (128, 6, 8)}


def _parse_value(axis: str, raw: str):
    if axis in ("dataset_size", "learning_rate", "weight_decay", "dropout"):
        return float(raw)
    if axis in ("batch_size", "epochs"):
        return int(raw)
    if axis == "optimizer":
        if raw not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {raw!r}")
        return raw
    if axis == "model_size":
        if raw not in MODEL_SIZES:
            raise ValueError(f"unknown model size {raw!r} (choose from {sorted(MODEL_SIZES)})")
        return raw
    raise ValueError(f"unknown sweep axis: {axis!r}")


def parse_values(axis: str, raw_values: list[str]):
    if not raw_values:
        raise ValueError("sweep needs at least one value")
    return [_parse_value(axis, v) for v in raw_values]


def run_sweep(train_windows, val_windows, model_kind: str, base_train: TrainConfig,
              base_aug: AugmentConfig, axis: str, values, stats=None,
              build_kwargs: dict | None = None) -> list[dict]:
    """Sequential runs over ``values``; each returns a metrics CSV row dict."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis: {axis!r}")
    if axis == "dropout" and not model_kind.startswith("hybrid"):
        raise ValueError("the dropout axis applies to the hybrid head; use a hybrid model")
    if axis == "model_size" and model_kind == "conv":
        raise ValueError("the model_size axis varies the transformer; use vit or a hybrid")
    seed = base_train.seeds[0]
    build_kwargs = dict(build_kwargs or {})
    rows = []
    for value in values:
        train_cfg = base_train
        kwargs = dict(build_kwargs)
        subset = train_windows
        if axis == "dataset_size":
            subset = train_windows[:max(1, int(round(value * len(train_windows))))]
        elif axis == "batch_size":
            train_cfg = replace(train_cfg, batch_size=value)
        elif axis == "learning_rate":
            train_cfg = replace(train_cfg, head_lr=value)
        elif axis == "optimizer":
            train_cfg = replace(train_cfg, optimizer=value)
        elif axis == "weight_decay":
            train_cfg = replace(train_cfg, weight_decay=value)
        elif axis == "epochs":
            train_cfg = replace(train_cfg, max_epochs=value)
        elif axis == "dropout":
            hybrid = kwargs.get("hybrid_cfg") or HybridConfig()
            kwargs["hybrid_cfg"] = replace(hybrid, dropout=value)
        elif axis == "model_size":
            dim, depth, heads = MODEL_SIZES[value]
            vit = kwargs.get("vit_cfg") or ViTConfig()
            kwargs["vit_cfg"] = replace(vit, embed_dim=dim, depth=depth, heads=heads)

        model = build_model(model_kind, base_aug.out_size, stream(seed, "init"), **kwargs)
        record, _, report = fit(subset, val_windows, model_kind, train_cfg,
                                base_aug, seed, stats=stats, model=model)
        rows.append(results_row(f"{model_kind} {axis}={value}", model, [record], [report],
                                base_aug.out_size))
    return rows
