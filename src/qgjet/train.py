"""Training protocol: seeded epochs over batches of 32 with the stochastic
augmentation chain, soft-label cross-entropy, early stopping on validation
loss, and per-epoch metric snapshots.

The policy is fixed. Every parameter trains from random initialisation at
one learning rate, a cosine annealed once per epoch from ``head_lr`` over
``cosine_t_max`` epochs. Mixup runs exactly on the transformer path
(``model.is_transformer_path``)."""
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


@dataclass(frozen=True)
class TrainConfig:
    head_lr: float = 1e-4
    weight_decay: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 20
    cosine_t_max: int = 50
    patience: int = 5
    optimizer: str = "adamw"
    seeds: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        if min(self.patience, self.batch_size, self.max_epochs, self.cosine_t_max) < 1:
            raise ValueError("patience, batch size, max epochs and cosine t_max must be at least 1")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"need at least one seed, each distinct: {self.seeds}")
        if self.head_lr <= 0 or self.weight_decay < 0:
            raise ValueError("the learning rate must be positive and weight decay non-negative")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    metrics: MetricReport
    lr_head: float
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


def _one_hot(labels: np.ndarray) -> np.ndarray:
    out = np.zeros((labels.size, NUM_CLASSES), dtype=np.float32)
    out[np.arange(labels.size), labels] = 1.0
    return out


def evaluate(model, inputs: np.ndarray, labels: np.ndarray, batch_size: int):
    """Eval-mode forwards over ``inputs`` in batches; returns the logits and
    the metrics of their class-1 softmax scores against ``labels``."""
    logits = np.concatenate([model.forward(ad.Tensor(inputs[i:i + batch_size]), ad.EVAL).data
                             for i in range(0, len(inputs), batch_size)])
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return logits, compute_metrics((e / e.sum(axis=1, keepdims=True))[:, 1], labels)


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
    optimizer = Optimizer(config.optimizer, registry, config.head_lr, config.weight_decay)

    record = RunRecord(total_params=registry.n_total())
    best_state: dict[str, np.ndarray] | None = None
    best_report: MetricReport | None = None
    val_losses: list[float] = []
    n = pre_train.shape[0]

    for epoch in range(config.max_epochs):
        epoch_start = time.perf_counter()
        optimizer.lr = cosine_lr(epoch, config.head_lr, config.cosine_t_max)

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
            registry.zero_grad()
            ad.backward(tape, loss)
            optimizer.step()
            record.optimizer_steps += 1
            loss_sum += step_loss * len(idx)
        train_loss = loss_sum / n

        val_logits, report = evaluate(model, val_inputs, val_labels, config.batch_size)
        val_loss = float(ad.cross_entropy_soft(ad.Tensor(val_logits), ad.Tensor(val_onehot)).data)
        if not math.isfinite(val_loss):
            raise NonFiniteLoss(f"validation loss is {val_loss} at epoch {epoch}")
        val_losses.append(val_loss)

        record.epochs.append(EpochStats(
            epoch=epoch, train_loss=train_loss, val_loss=val_loss, metrics=report,
            lr_head=optimizer.lr, seconds=time.perf_counter() - epoch_start))

        if record.best_epoch < 0 or val_loss < val_losses[record.best_epoch]:
            record.best_epoch = epoch
            best_state = registry.state_dict()
            best_report = report
        if early_stop_check(val_losses, config.patience) == STOP:
            break

    record.train_seconds = time.perf_counter() - t_start
    return record, best_state, best_report
