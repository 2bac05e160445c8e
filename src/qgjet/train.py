"""Training protocol: seeded epochs over batches of 32 with the stochastic
augmentation chain, soft-label cross-entropy, staged unfreezing of the
deepest backbone blocks, early stopping on validation loss, and per-epoch
metric snapshots. The default mode trains everything from scratch; staged
mode starts with the backbone frozen and unfreezes per the schedule.

The policy is fixed. The head learning rate follows a cosine annealed once
per epoch from ``head_lr`` over ``cosine_t_max`` epochs; unfrozen backbone
blocks train at the constant ``unfrozen_lr``. Mixup runs exactly on the
transformer path (``model.is_transformer_path``)."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, mixup, train_transform, validation_transform
from .detector import JetWindow
from .metrics import MetricReport, aggregate_seeds, compute_metrics, measure_inference_ms
from .models import NUM_CLASSES, build_model
from .optim import OPTIMIZER_KINDS, Optimizer, cosine_lr
from .preprocess import ChannelStats, compute_channel_stats, preprocess_window
from .rng import stream

CONTINUE = "continue"
STOP = "stop"

HEAD_GROUP = "head"
UNFROZEN_GROUP = "unfrozen"


@dataclass(frozen=True)
class TrainConfig:
    head_lr: float = 1e-4
    unfrozen_lr: float = 1e-6
    weight_decay: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 20
    cosine_t_max: int = 50
    patience: int = 5
    unfreeze_schedule: tuple[tuple[int, int], ...] = ((5, 1), (8, 2))  # (epoch, last-n blocks)
    optimizer: str = "adamw"
    seeds: tuple[int, ...] = (1, 2, 3)
    staged_unfreezing: bool = False

    def __post_init__(self):
        if self.patience < 1 or self.batch_size < 1:
            raise ValueError("patience and batch size must be at least 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.head_lr <= 0 or self.unfrozen_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    metrics: MetricReport
    lr_head: float
    lr_unfrozen: float
    trainable_params: int
    seconds: float


@dataclass
class RunRecord:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    optimizer_steps: int = 0
    total_params: int = 0
    train_seconds: float = 0.0

    @property
    def best_val_loss(self) -> float:
        return self.epochs[self.best_epoch].val_loss


class NonFiniteLoss(FloatingPointError):
    """A training step or validation pass produced a NaN or infinite loss."""


def early_stop_check(val_losses, patience: int) -> str:
    """STOP once the best (minimum) validation loss is more than ``patience``
    epochs old."""
    if len(val_losses) == 0:
        raise ValueError("need at least one recorded validation loss")
    best = int(np.argmin(val_losses))
    return STOP if (len(val_losses) - 1 - best) > patience else CONTINUE


def apply_unfreeze_schedule(epoch: int, model, config: TrainConfig) -> None:
    """Make the last-n backbone blocks trainable at their scheduled epochs
    (idempotent); unfrozen parameters join the low-rate group. Staged mode
    froze every block with the backbone before the first epoch."""
    blocks = model.block_prefixes()
    for at_epoch, n_last in config.unfreeze_schedule:
        if epoch >= at_epoch:
            for prefix in blocks[-n_last:]:
                model.registry.set_trainable(prefix, True, UNFROZEN_GROUP)


def _one_hot(labels: np.ndarray) -> np.ndarray:
    out = np.zeros((labels.size, NUM_CLASSES), dtype=np.float32)
    out[np.arange(labels.size), labels] = 1.0
    return out


def _forward_batches(model, inputs: np.ndarray, batch_size: int) -> np.ndarray:
    logits = []
    for start in range(0, inputs.shape[0], batch_size):
        x = ad.Tensor(inputs[start:start + batch_size])
        logits.append(model.forward(x, ad.EVAL).data)
    return np.concatenate(logits, axis=0)


def _softmax_scores(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=1, keepdims=True))[:, 1]


def results_row(label: str, model, records: list[RunRecord],
                reports: list[MetricReport], out_size: int) -> dict:
    """One metrics-CSV row: the seed aggregate, the parameter count, the mean
    training seconds and the single-image inference milliseconds of ``model``."""
    return {"model": label, "aggregate": aggregate_seeds(reports),
            "params": records[0].total_params,
            "train_seconds": float(np.mean([r.train_seconds for r in records])),
            "inference_ms": measure_inference_ms(lambda img: model.forward(ad.Tensor(img)),
                                                 (3, out_size, out_size))}


def fit(train_windows: list[JetWindow], val_windows: list[JetWindow], model_kind: str,
        config: TrainConfig, aug: AugmentConfig, seed: int,
        stats: ChannelStats | None = None, model=None):
    """Train one seed; returns (RunRecord, best parameter state, best MetricReport).

    Statistics default to the training split; the validation pass reuses them
    through the deterministic transform.
    """
    if not train_windows or not val_windows:
        raise ValueError("training and validation sets must be non-empty")
    t_start = time.perf_counter()

    if stats is None:
        stats = compute_channel_stats(train_windows)
    if model is None:
        model = build_model(model_kind, aug.out_size, stream(seed, "init"))
    aug = replace(aug, imagenet_normalize=model.uses_imagenet_norm)

    pre_train = np.stack([preprocess_window(w, stats) for w in train_windows])
    train_labels = np.array([w.label for w in train_windows], dtype=np.int64)
    val_inputs = np.stack([validation_transform(w, stats, aug) for w in val_windows])
    val_labels = np.array([w.label for w in val_windows], dtype=np.int64)
    val_onehot = _one_hot(val_labels)

    registry = model.registry
    if config.staged_unfreezing:
        for prefix in model.backbone_prefixes():
            registry.set_trainable(prefix, False)
    optimizer = Optimizer(config.optimizer, registry,
                          {HEAD_GROUP: config.head_lr, UNFROZEN_GROUP: config.unfrozen_lr},
                          config.weight_decay)

    record = RunRecord(total_params=registry.n_total())
    best_state: dict[str, np.ndarray] | None = None
    best_report: MetricReport | None = None
    val_losses: list[float] = []
    n = pre_train.shape[0]

    for epoch in range(config.max_epochs):
        epoch_start = time.perf_counter()
        if config.staged_unfreezing:
            apply_unfreeze_schedule(epoch, model, config)
        lr_head = cosine_lr(epoch, config.head_lr, config.cosine_t_max)
        optimizer.set_group_lr(HEAD_GROUP, lr_head)

        order = stream(seed, "shuffle", epoch).permutation(n)
        drop_rng = stream(seed, "dropout", epoch)
        mix_rng = stream(seed, "mixup", epoch)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = np.stack([
                train_transform(pre_train[i], aug, stream(seed, "aug", epoch, int(i)))
                for i in idx])
            labels = _one_hot(train_labels[idx])
            if model.is_transformer_path:
                perm = mix_rng.permutation(len(idx))
                batch, labels = mixup((batch, labels), (batch[perm], labels[perm]),
                                      aug.mixup_alpha, mix_rng)
            with ad.Tape() as tape:
                logits = model.forward(ad.Tensor(batch), ad.TRAIN, drop_rng)
                loss = ad.cross_entropy_soft(logits, ad.Tensor(labels))
            step_loss = float(loss.data)
            if not math.isfinite(step_loss):
                raise NonFiniteLoss(f"training loss is {step_loss} at epoch {epoch}, "
                                    f"step {record.optimizer_steps + 1}")
            optimizer.zero_grad()
            ad.backward(tape, loss)
            optimizer.step()
            record.optimizer_steps += 1
            loss_sum += step_loss * len(idx)
        train_loss = loss_sum / n

        val_logits = _forward_batches(model, val_inputs, config.batch_size)
        val_loss = float(ad.cross_entropy_soft(ad.Tensor(val_logits), ad.Tensor(val_onehot)).data)
        if not math.isfinite(val_loss):
            raise NonFiniteLoss(f"validation loss is {val_loss} at epoch {epoch}")
        report = compute_metrics(_softmax_scores(val_logits), val_labels)
        val_losses.append(val_loss)

        record.epochs.append(EpochStats(
            epoch=epoch, train_loss=train_loss, val_loss=val_loss, metrics=report,
            lr_head=lr_head, lr_unfrozen=config.unfrozen_lr,
            trainable_params=registry.n_trainable(),
            seconds=time.perf_counter() - epoch_start))

        if record.best_epoch < 0 or val_loss < val_losses[record.best_epoch]:
            record.best_epoch = epoch
            best_state = registry.state_dict()
            best_report = report
        if early_stop_check(val_losses, config.patience) == STOP:
            break

    record.train_seconds = time.perf_counter() - t_start
    return record, best_state, best_report
