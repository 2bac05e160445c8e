"""Stochastic training-time augmentation and the deterministic validation path.

The preprocessed [0,1) window is quantized once to 8-bit (round half to
even), after which the chain operates on float values in the 0..255 domain
(HWC layout) so no further quantization error accumulates: random resized
crop to the output size, horizontal flip, rotation within +/-20 degrees,
and color jitter. ``to_float`` then restores channel-first [0,1] tensors;
the conv-backbone path additionally standardizes with the fixed ImageNet
channel statistics, the transformer path does not.

All resampling is bilinear: resizes clamp at the frame edge, rotations
fill from zero outside the frame. Mixup operates on whole batches with a
single Beta-distributed coefficient.

Quantized jet windows are sparse (about 1% of pixels are non-zero), so
rotation and color jitter compute only the hot pixels, yet every output bit
equals the whole-frame computation (``tests/oracles.py`` keeps it):

* Resize runs separably, x then y, with each value going through the same
  float operations in the same order as a 4-tap lookup.
* Bilinear weights are non-negative, so an output pixel whose four taps are
  +0.0 or outside the frame is exactly +0.0; rotation evaluates only the
  pixels with a hot tap and leaves the rest zero.
* Brightness, saturation and hue map a +0.0 pixel to +0.0, and contrast maps
  every such pixel to one shared value, so the background travels through
  color jitter as a single row. Contrast's mean still runs over the full
  [H, W] luma array, because pairwise summation rounds by position, and luma
  is computed in rows of the image's width, because BLAS rounds a dot
  product and a matrix-vector product differently.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .preprocess import ChannelStats, preprocess_window

IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)
_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64)


@dataclass(frozen=True)
class AugmentConfig:
    crop_scale: tuple[float, float] = (0.8, 1.0)
    crop_ratio: tuple[float, float] = (0.75, 1.33)
    out_size: int = 224
    flip_prob: float = 0.5
    max_rotation_deg: float = 20.0
    jitter_bcs: float = 0.2
    jitter_hue: float = 0.1
    mixup_alpha: float = 0.2
    imagenet_normalize: bool = False

    def __post_init__(self):
        if len(self.crop_scale) != 2 or not 0.0 < self.crop_scale[0] <= self.crop_scale[1] <= 1.0:
            raise ValueError(f"bad crop scale range {self.crop_scale}")
        if len(self.crop_ratio) != 2 or not 0.0 < self.crop_ratio[0] <= self.crop_ratio[1]:
            raise ValueError(f"bad crop ratio range {self.crop_ratio}")
        if self.out_size < 1:
            raise ValueError(f"output size must be at least 1: {self.out_size}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip probability out of range: {self.flip_prob}")
        if self.mixup_alpha <= 0.0:
            raise ValueError("mixup alpha must be positive")


def to_uint8(image: np.ndarray) -> np.ndarray:
    """[3,H,W] float in [0,1] -> [H,W,3] uint8, round half to even."""
    hwc = np.transpose(image, (1, 2, 0))
    return np.clip(np.rint(hwc * 255.0), 0, 255).astype(np.uint8)


def to_float(image: np.ndarray) -> np.ndarray:
    """[H,W,3] values in 0..255 -> channel-first float32 in [0,1]."""
    chw = np.transpose(np.asarray(image, dtype=np.float32) / 255.0, (2, 0, 1))
    return np.ascontiguousarray(chw)


def imagenet_normalize(image: np.ndarray) -> np.ndarray:
    """Channel-first standardization with the fixed ImageNet statistics."""
    return ((image - IMAGENET_MEAN[:, None, None]) / IMAGENET_STD[:, None, None]).astype(np.float32)


def _sample_zero_fill(image: np.ndarray, src_y: np.ndarray, src_x: np.ndarray) -> np.ndarray:
    """Bilinear lookup of HWC float image at 1-D fractional source
    coordinates; taps outside the frame read zero. Returns [N, C]."""
    h, w, c = image.shape
    flat = image.reshape(h * w, c)
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    fy = np.repeat(src_y - y0, c)  # one weight per value keeps numpy's inner loops long
    fx = np.repeat(src_x - x0, c)

    def tap(yy, xx):
        vals = flat[np.clip(yy, 0, h - 1) * w + np.clip(xx, 0, w - 1)]
        vals[(yy < 0) | (yy >= h) | (xx < 0) | (xx >= w)] = 0.0
        return vals.reshape(-1)

    top = tap(y0, x0) * (1 - fx) + tap(y0, x0 + 1) * fx
    bot = tap(y0 + 1, x0) * (1 - fx) + tap(y0 + 1, x0 + 1) * fx
    return (top * (1 - fy) + bot * fy).reshape(-1, c)


def _resize_taps(n_out: int, n_in: int):
    """Clamped neighbour indices and the fraction toward the second one."""
    s = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(s).astype(np.int64)
    return np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1), s - i0


def _resize_hwc(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel centers, clamped at the edges:
    every source row along x first, then pairs of those rows along y."""
    img = np.asarray(image, dtype=np.float64)
    h, w, c = img.shape
    y0, y1, fy = _resize_taps(out_h, h)
    x0, x1, fx = _resize_taps(out_w, w)
    fx = np.repeat(fx, c)  # weights along whole rows keep numpy's inner loops long
    rows = (np.take(img, x0, axis=1).reshape(h, -1) * (1 - fx)
            + np.take(img, x1, axis=1).reshape(h, -1) * fx)
    fy = fy[:, None]
    # In place: one more frame-sized temporary grows the heap past glibc's
    # trim threshold, and every call then pays ~1300 page faults (~2 ms).
    out = rows[y0]
    out *= 1 - fy
    bot = rows[y1]
    bot *= fy
    out += bot
    return out.reshape(out_h, out_w, c)


def bilinear_resize_chw(image: np.ndarray, out_size: int) -> np.ndarray:
    """Channel-first wrapper around the shared bilinear resize."""
    hwc = np.transpose(image, (1, 2, 0))
    out = _resize_hwc(hwc, out_size, out_size)
    return np.ascontiguousarray(np.transpose(out, (2, 0, 1)), dtype=np.float32)


def sample_crop_rect(h: int, w: int, config: AugmentConfig,
                     rng: np.random.Generator) -> tuple[int, int, int, int]:
    """(top, left, crop_h, crop_w): up to 10 attempts at the requested area
    fraction and log-uniform aspect ratio, then a centered fallback with the
    aspect clamped into range."""
    lo, hi = config.crop_scale
    rlo, rhi = config.crop_ratio
    for _ in range(10):
        area = h * w * rng.uniform(lo, hi)
        ratio = math.exp(rng.uniform(math.log(rlo), math.log(rhi)))
        cw = int(round(math.sqrt(area * ratio)))
        ch = int(round(math.sqrt(area / ratio)))
        if 0 < cw <= w and 0 < ch <= h:
            top = int(rng.integers(0, h - ch + 1))
            left = int(rng.integers(0, w - cw + 1))
            return top, left, ch, cw
    in_ratio = w / h
    if in_ratio < rlo:
        cw, ch = w, int(round(w / rlo))
    elif in_ratio > rhi:
        ch, cw = h, int(round(h * rhi))
    else:
        ch, cw = h, w
    return (h - ch) // 2, (w - cw) // 2, ch, cw


def random_resized_crop(image: np.ndarray, config: AugmentConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Crop a random region and resize it to out_size x out_size (bilinear)."""
    img = np.asarray(image, dtype=np.float64)
    top, left, ch, cw = sample_crop_rect(img.shape[0], img.shape[1], config, rng)
    crop = img[top:top + ch, left:left + cw]
    return _resize_hwc(crop, config.out_size, config.out_size)


def random_hflip(image: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Reverse column order with probability ``p``."""
    if rng.random() < p:
        return np.ascontiguousarray(image[:, ::-1])
    return np.asarray(image)


def random_rotate(image: np.ndarray, max_deg: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate about the image center by theta ~ U(-max_deg, +max_deg);
    bilinear sampling, zero fill outside the source frame."""
    theta = math.radians(rng.uniform(-max_deg, max_deg))
    return rotate_by(image, theta)


def _support(pixels: np.ndarray) -> np.ndarray:
    """Pixels of a [..., C] float64 array with any bit set in any channel;
    the rest are exactly +0.0 in every channel."""
    return functools.reduce(np.bitwise_or, np.moveaxis(pixels.view(np.int64), -1, 0)) != 0


def rotate_by(image: np.ndarray, theta: float) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys = (np.arange(h, dtype=np.float64) - cy)[:, None]
    xs = np.arange(w, dtype=np.float64) - cx
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    src_y = (cy + ys * cos_t - xs * sin_t).ravel()
    src_x = (cx + ys * sin_t + xs * cos_t).ravel()
    # near[y0 + 1, x0 + 1]: one of the four taps at floor (y0, x0) is hot.
    # Every other output pixel is +0.0 * weight + ..., exactly +0.0.
    hot = np.zeros((h + 2, w + 2), dtype=bool)
    hot[1:-1, 1:-1] = _support(img)
    near = hot[:-1, :-1] | hot[:-1, 1:] | hot[1:, :-1] | hot[1:, 1:]
    y0 = np.floor(src_y).astype(np.int64) + 1
    x0 = np.floor(src_x).astype(np.int64) + 1
    inside = (y0 >= 0) & (y0 <= h) & (x0 >= 0) & (x0 <= w)
    idx = np.flatnonzero(inside & near.ravel()[np.clip(y0, 0, h) * (w + 1) + np.clip(x0, 0, w)])
    out = np.zeros_like(img)
    out.reshape(h * w, -1)[idx] = _sample_zero_fill(img, src_y[idx], src_x[idx])
    return out


def _rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    delta = mx - mn
    h = np.zeros_like(mx)
    safe = delta > 0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        rc = np.where(safe, (mx - r) / delta, 0.0)
        gc = np.where(safe, (mx - g) / delta, 0.0)
        bc = np.where(safe, (mx - b) / delta, 0.0)
    h = np.where(mx == r, bc - gc, h)
    h = np.where(mx == g, 2.0 + rc - bc, h)
    h = np.where(mx == b, 4.0 + gc - rc, h)
    h = np.where(safe, (h / 6.0) % 1.0, 0.0)
    s = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    return np.stack([h, s, mx], axis=-1)


def _hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    r = np.choose(i, (v, q, p, p, t, v))
    g = np.choose(i, (t, v, v, q, p, p))
    b = np.choose(i, (p, p, t, v, v, q))
    return np.stack([r, g, b], axis=-1)


def _luma(pixels: np.ndarray, width: int) -> np.ndarray:
    """``pixels @ _LUMA`` for [N, 3] rows, laid out ``width`` to a row so each
    goes through the same BLAS call as in ``image @ _LUMA`` on the whole
    [H, width, 3] image: a width-1 image takes a dot product per pixel, a
    wider one a matrix-vector product, and the two round differently."""
    n = pixels.shape[0]
    rows = np.zeros((-(-n // width), width, 3))
    rows.reshape(-1, 3)[:n] = pixels
    return (rows @ _LUMA).reshape(-1)[:n]


def color_jitter(image: np.ndarray, config: AugmentConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Brightness/contrast/saturation factors in 1 +/- jitter_bcs and a hue
    rotation up to jitter_hue turns, applied in a random order; each stage
    clamps back into 0..255.

    Stages run on the hot pixels plus one background row standing for all
    the +0.0 pixels, which every stage maps to one shared value."""
    img = np.asarray(image, dtype=np.float64)
    h, w, c = img.shape
    flat = img.reshape(h * w, c)
    hot = np.flatnonzero(_support(flat))
    x = np.concatenate([flat[hot], np.zeros((1, c))])
    j = config.jitter_bcs

    def brightness(x):
        return x * rng.uniform(1.0 - j, 1.0 + j)

    def contrast(x):
        f = rng.uniform(1.0 - j, 1.0 + j)
        luma = _luma(x, w)
        full = np.full((h, w), luma[-1])  # the mean's summation order needs every pixel
        full.flat[hot] = luma[:-1]
        return f * x + (1.0 - f) * full.mean()

    def saturation(x):
        f = rng.uniform(1.0 - j, 1.0 + j)
        return f * x + (1.0 - f) * _luma(x, w)[:, None]

    def hue(x):
        shift = rng.uniform(-config.jitter_hue, config.jitter_hue)
        hsv = _rgb_to_hsv(x / 255.0)
        hsv[..., 0] = (hsv[..., 0] + shift) % 1.0
        return _hsv_to_rgb(hsv) * 255.0

    stages = [brightness, contrast, saturation, hue]
    for idx in rng.permutation(4):
        x = np.clip(stages[idx](x), 0.0, 255.0)
    out = np.tile(x[-1], (h * w, 1))
    out[hot] = x[:-1]
    return out.reshape(h, w, c)


def mixup(batch_a: tuple[np.ndarray, np.ndarray], batch_b: tuple[np.ndarray, np.ndarray],
          alpha: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of two batches with a single lambda ~ Beta(alpha, alpha)."""
    imgs_a, labels_a = batch_a
    imgs_b, labels_b = batch_b
    if imgs_a.shape != imgs_b.shape or labels_a.shape != labels_b.shape:
        raise ValueError("mixup batches must have identical shapes")
    lam = labels_a.dtype.type(rng.beta(alpha, alpha))
    images = lam * imgs_a + (1 - lam) * imgs_b
    labels = lam * labels_a + (1 - lam) * labels_b
    return images.astype(imgs_a.dtype), labels.astype(labels_a.dtype)


def train_transform(preprocessed: np.ndarray, config: AugmentConfig,
                    rng: np.random.Generator) -> np.ndarray:
    """Stochastic chain from a preprocessed [3,125,125] window to a model
    input [3,out,out]."""
    img = to_uint8(preprocessed)
    img = random_resized_crop(img, config, rng)
    img = random_hflip(img, config.flip_prob, rng)
    img = random_rotate(img, config.max_rotation_deg, rng)
    img = color_jitter(img, config, rng)
    out = to_float(img)
    if config.imagenet_normalize:
        out = imagenet_normalize(out)
    return out


def validation_transform(window, stats: ChannelStats, config: AugmentConfig) -> np.ndarray:
    """Deterministic path: preprocess, bilinear resize to the output size,
    channel-first float32, ImageNet standardization on the conv path only."""
    pre = preprocess_window(window, stats)
    out = bilinear_resize_chw(pre, config.out_size)
    if config.imagenet_normalize:
        out = imagenet_normalize(out)
    return out
