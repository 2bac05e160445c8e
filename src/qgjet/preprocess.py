"""Deterministic four-stage preprocessing of raw jet windows.

Stage order: zero suppression, per-channel global z-score, upper clipping
at clip_factor * sigma_k of the z-scored values, then sample-wise min-max
scaling with the minimum and maximum taken jointly over all three channels.
The clip cap intentionally multiplies the raw-channel sigma even though it
is applied to already-normalized values; the formula is not reinterpreted.

The constants are fixed and written once, as the defaults of the stage
functions: zero threshold 1e-3, clip factor 500 and min-max epsilon 1e-5.
A sensitivity study calls the stages with other values directly.

Channel statistics come from the training split only and are computed on
zero-suppressed pixels with float64 accumulation (population variance,
mergeable block form).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import JetWindow


class DegenerateChannel(ValueError):
    """A channel's global standard deviation vanished."""


@dataclass
class ChannelStats:
    mu: np.ndarray      # float64 [3]
    sigma: np.ndarray   # float64 [3]
    n_pixels: int


def compute_channel_stats(windows) -> ChannelStats:
    """Global per-channel mean and population std over zero-suppressed pixels.

    Accepts any iterable of ``JetWindow``s and merges per-window blocks with
    Chan's update, so partial aggregates combine deterministically.
    """
    n = 0
    mean = np.zeros(3, dtype=np.float64)
    m2 = np.zeros(3, dtype=np.float64)
    for window in windows:
        x = zero_suppress(window.data.astype(np.float64))
        x = x.reshape(3, -1)
        nb = x.shape[1]
        mean_b = x.mean(axis=1)
        m2_b = ((x - mean_b[:, None]) ** 2).sum(axis=1)
        delta = mean_b - mean
        total = n + nb
        mean = mean + delta * (nb / total)
        m2 = m2 + m2_b + delta ** 2 * (n * nb / total)
        n = total
    if n == 0:
        raise ValueError("cannot compute statistics from an empty stream")
    sigma = np.sqrt(m2 / n)
    for k in range(3):
        if sigma[k] == 0.0:
            raise DegenerateChannel(f"channel {k} has zero variance over the training set")
    return ChannelStats(mu=mean, sigma=sigma, n_pixels=n)


def zero_suppress(image: np.ndarray, threshold: float = 1e-3) -> np.ndarray:
    """Pixels strictly below ``threshold`` become 0; idempotent."""
    return np.where(image < threshold, np.zeros((), dtype=image.dtype), image)


def zscore_normalize(image: np.ndarray, stats: ChannelStats) -> np.ndarray:
    """Standardize each channel by the global training mean and std."""
    return (image - stats.mu[:, None, None]) / stats.sigma[:, None, None]


def clip_outliers(image: np.ndarray, stats: ChannelStats, clip_factor: float = 500.0) -> np.ndarray:
    """Cap each channel at clip_factor * sigma_k; no lower clip."""
    return np.minimum(image, clip_factor * stats.sigma[:, None, None])


def minmax_scale(image: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Scale into [0, 1) using the joint min/max over all three channels.

    The formula guarantees values below 1 in exact arithmetic; the final
    clamp to the largest representable value below 1 preserves that bound
    under floating-point rounding. A constant image maps to all zeros.
    """
    lo = image.min()
    hi = image.max()
    out = (image - lo) / (hi - lo + eps)
    top = np.nextafter(image.dtype.type(1), image.dtype.type(0))
    return np.minimum(out, top)


def preprocess_window(window: JetWindow, stats: ChannelStats) -> np.ndarray:
    """Full chain in float64, emitted as float32 [3,125,125] within [0, 1)."""
    x = window.data.astype(np.float64)
    x = zero_suppress(x)
    x = zscore_normalize(x, stats)
    x = clip_outliers(x, stats)
    x = minmax_scale(x)
    out = x.astype(np.float32)
    top = np.nextafter(np.float32(1), np.float32(0))
    return np.minimum(out, top)
