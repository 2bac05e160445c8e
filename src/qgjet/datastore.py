"""Bit-exact persistence: the binary window dataset, plain-text channel
statistics, binary parameter checkpoints, PGM intensity maps, and the
metrics CSV. All binary fields are little-endian regardless of platform.

Dataset layout ("JQG1"): magic, version u16, n_samples u32, height u16,
width u16, channels u8, then per sample one label byte (0 gluon, 1 quark)
followed by channel-major row-major float32 pixels.

Checkpoint layout ("JQGC"): magic, version u16, parameter count u32, then
per parameter a u16 name length, UTF-8 name, u8 rank, u32 dims, float32
data.
"""
from __future__ import annotations

import csv
import struct

import numpy as np

from .detector import JetWindow
from .preprocess import ChannelStats

DATASET_MAGIC = b"JQG1"
CHECKPOINT_MAGIC = b"JQGC"
FORMAT_VERSION = 1

_DATASET_HEADER = struct.Struct("<4sHIHHB")
_CHECKPOINT_HEADER = struct.Struct("<4sHI")

CSV_COLUMNS = ("Model", "Accuracy", "Precision", "Recall", "F1", "ROC-AUC",
               "Params", "TrainTime", "InferenceMs")


class DataFormatError(ValueError):
    pass


class BadMagic(DataFormatError):
    pass


class UnsupportedVersion(DataFormatError):
    pass


class SizeMismatch(DataFormatError):
    pass


def write_dataset(path, windows: list[JetWindow]) -> None:
    if not windows:
        shape = (3, 125, 125)
    else:
        shape = windows[0].data.shape
        for w in windows:
            if w.data.shape != shape:
                raise ValueError("all windows in a dataset must share one shape")
            if w.label not in (0, 1):
                raise ValueError("every window needs a 0/1 label before writing")
    c, h, w_ = shape
    with open(path, "wb") as f:
        f.write(_DATASET_HEADER.pack(DATASET_MAGIC, FORMAT_VERSION, len(windows), h, w_, c))
        for win in windows:
            f.write(struct.pack("<B", win.label))
            f.write(np.ascontiguousarray(win.data, dtype="<f4").tobytes())


def read_dataset(path) -> list[JetWindow]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _DATASET_HEADER.size:
        raise SizeMismatch(f"file shorter than the {_DATASET_HEADER.size}-byte header")
    magic, version, n, h, w, c = _DATASET_HEADER.unpack_from(raw)
    if magic != DATASET_MAGIC:
        raise BadMagic(f"expected {DATASET_MAGIC!r}, found {magic!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"version {version} not supported")
    sample_bytes = 1 + 4 * c * h * w
    expected = _DATASET_HEADER.size + n * sample_bytes
    if len(raw) != expected:
        raise SizeMismatch(f"expected {expected} bytes for {n} samples, found {len(raw)}")
    windows = []
    offset = _DATASET_HEADER.size
    for _ in range(n):
        label = raw[offset]
        offset += 1
        data = np.frombuffer(raw, dtype="<f4", count=c * h * w, offset=offset)
        offset += 4 * c * h * w
        windows.append(JetWindow(data.reshape(c, h, w).copy(), label=int(label)))
    return windows


def write_stats(path, stats: ChannelStats) -> None:
    with open(path, "w") as f:
        f.write("mu: " + " ".join(repr(float(v)) for v in stats.mu) + "\n")
        f.write("sigma: " + " ".join(repr(float(v)) for v in stats.sigma) + "\n")


def read_stats(path) -> ChannelStats:
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    try:
        mu = np.array([float(v) for v in lines[0].removeprefix("mu:").split()], dtype=np.float64)
        sigma = np.array([float(v) for v in lines[1].removeprefix("sigma:").split()], dtype=np.float64)
    except (IndexError, ValueError) as exc:
        raise DataFormatError(f"malformed statistics file {path}") from exc
    if mu.shape != (3,) or sigma.shape != (3,):
        raise DataFormatError("statistics file must carry three values per line")
    return ChannelStats(mu=mu, sigma=sigma, n_pixels=0)


def write_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, FORMAT_VERSION, len(params)))
        for name, arr in params.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _CHECKPOINT_HEADER.size:
        raise SizeMismatch("checkpoint shorter than its header")
    magic, version, count = _CHECKPOINT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise BadMagic(f"expected {CHECKPOINT_MAGIC!r}, found {magic!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"version {version} not supported")
    params: dict[str, np.ndarray] = {}
    offset = _CHECKPOINT_HEADER.size
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            rank = raw[offset]
            offset += 1
            shape = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
            size = int(np.prod(shape, dtype=np.int64)) if rank else 1
            data = np.frombuffer(raw, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
            params[name] = data.reshape(shape).copy()
    except (struct.error, ValueError) as exc:
        raise SizeMismatch("checkpoint truncated") from exc
    if offset != len(raw):
        raise SizeMismatch("checkpoint carries trailing bytes")
    return params


LINEAR = "linear"
LOG = "log"


def render_intensity_map(windows: list[JetWindow], channel: int, scale: str = LINEAR) -> np.ndarray:
    """Per-pixel mean over the given windows' channel, affinely mapped to
    0..255; LOG applies log10(v + 1e-6) before the mapping."""
    if not windows:
        raise ValueError("cannot render an empty selection")
    mean = np.stack([w.data[channel] for w in windows]).mean(axis=0).astype(np.float64)
    if scale == LOG:
        mean = np.log10(mean + 1e-6)
    elif scale != LINEAR:
        raise ValueError(f"unknown scale: {scale!r}")
    lo, hi = mean.min(), mean.max()
    if hi > lo:
        mean = (mean - lo) / (hi - lo)
    else:
        mean = np.zeros_like(mean)
    return np.clip(np.rint(mean * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), 8-bit."""
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(image, dtype=np.uint8).tobytes())


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean:.4f}±{std:.4f}"


def write_metrics_csv(rows: list[dict], path) -> None:
    """One row per model: mean+-std cells at 4 decimals for the five metrics,
    then parameter count, training seconds, and inference milliseconds."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            agg = row["aggregate"]
            writer.writerow([
                row["model"],
                format_mean_std(*agg["accuracy"]),
                format_mean_std(*agg["precision"]),
                format_mean_std(*agg["recall"]),
                format_mean_std(*agg["f1"]),
                format_mean_std(*agg["roc_auc"]),
                row["params"],
                f"{row['train_seconds']:.1f}",
                f"{row['inference_ms']:.2f}",
            ])
