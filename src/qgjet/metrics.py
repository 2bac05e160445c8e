"""Evaluation metrics: confusion counts, precision/recall/F1, rank-based
ROC-AUC with average ranks for ties, multi-seed aggregation, and single-image
inference timing."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "roc_auc")


@dataclass
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float
    confusion: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), dtype=np.int64))
    degenerate: bool = False

    def values(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def confusion_and_prf(scores, labels, threshold: float = 0.5):
    """Hard predictions at ``score >= threshold``.

    Returns (confusion [2,2] with rows = true label, cols = predicted label,
    accuracy, precision, recall, f1, degenerate). Zero-denominator metrics
    report 0 and set the degeneracy flag.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pred = (scores >= threshold).astype(np.int64)
    tp = int(np.sum((pred == 1) & (labels == 1)))
    tn = int(np.sum((pred == 0) & (labels == 0)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))
    confusion = np.array([[tn, fp], [fn, tp]], dtype=np.int64)

    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = (tp + tn) / labels.size
    return confusion, accuracy, precision, recall, f1, degenerate


def roc_auc(scores, labels) -> float:
    """Rank-statistic AUC with average ranks over tied scores.

    Equals the pairwise probability that a positive outscores a negative,
    counting ties as one half; exact, not approximate.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")

    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * ((i + 1) + (j + 1))
        i = j + 1

    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(scores, labels, threshold: float = 0.5) -> MetricReport:
    confusion, accuracy, precision, recall, f1, degenerate = confusion_and_prf(
        scores, labels, threshold)
    return MetricReport(accuracy=accuracy, precision=precision, recall=recall,
                        f1=f1, roc_auc=roc_auc(scores, labels), confusion=confusion,
                        degenerate=degenerate)


def aggregate_seeds(reports: list[MetricReport]) -> dict[str, tuple[float, float]]:
    """Per metric: arithmetic mean and sample (n-1) standard deviation."""
    out = {}
    for name in METRIC_NAMES:
        vals = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[name] = (float(vals.mean()), std)
    return out


def measure_inference_ms(forward, input_shape, n_passes: int = 30, warmup: int = 5,
                         rng: np.random.Generator | None = None) -> float:
    """Mean wall-clock milliseconds of ``forward`` on one random image."""
    rng = rng or np.random.default_rng(0)
    image = rng.random((1,) + tuple(input_shape)).astype(np.float32)
    for _ in range(warmup):
        forward(image)
    start = time.perf_counter()
    for _ in range(n_passes):
        forward(image)
    return (time.perf_counter() - start) / n_passes * 1000.0
