"""Independently written straight-line reference computations.

These deliberately avoid the library's composed functions: each oracle is a
single block of inline numpy so the production chain is checked against a
second, structurally different derivation of the same published formulas.
"""
import math

import numpy as np


def straightline_preprocess(window: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
                            threshold: float = 1e-3, clip_factor: float = 500.0,
                            eps: float = 1e-5) -> np.ndarray:
    x = window.astype(np.float64)
    x = np.where(x < threshold, 0.0, x)
    x = (x - mu[:, None, None]) / sigma[:, None, None]
    x = np.minimum(x, clip_factor * sigma[:, None, None])
    lo = x.min()
    hi = x.max()
    x = (x - lo) / (hi - lo + eps)
    x = np.minimum(x, np.nextafter(np.float64(1), np.float64(0)))
    x = x.astype(np.float32)
    return np.minimum(x, np.nextafter(np.float32(1), np.float32(0)))


def two_pass_channel_stats(stacked: np.ndarray):
    """Naive two-pass mean / population std over [N,3,H,W] pixels, after
    zero suppression at 1e-3."""
    x = stacked.astype(np.float64)
    x = np.where(x < 1e-3, 0.0, x)
    flat = x.transpose(1, 0, 2, 3).reshape(3, -1)
    mu = flat.mean(axis=1)
    sigma = np.sqrt(((flat - mu[:, None]) ** 2).mean(axis=1))
    return mu, sigma


def pairwise_auc(scores, labels) -> float:
    """O(n^2) count of positive-over-negative score pairs, ties worth 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# Dense augmentation references: the whole-frame bilinear sampler, rotation
# and color jitter that ``qgjet.augment`` replaced with support-only work.
# The library must reproduce them bit for bit.

_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64)


def dense_sample_grid(image: np.ndarray, src_y: np.ndarray, src_x: np.ndarray,
                      zero_fill: bool) -> np.ndarray:
    """4-tap bilinear lookup of an HWC float image at every grid point."""
    h, w = image.shape[:2]
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    fy = (src_y - y0)[..., None]
    fx = (src_x - x0)[..., None]

    def tap(yy, xx):
        vals = image[np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]
        if zero_fill:
            valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            return np.where(valid[..., None], vals, 0.0)
        return vals

    top = tap(y0, x0) * (1 - fx) + tap(y0, x0 + 1) * fx
    bot = tap(y0 + 1, x0) * (1 - fx) + tap(y0 + 1, x0 + 1) * fx
    return top * (1 - fy) + bot * fy


def dense_resize_hwc(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = image.shape[:2]
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return dense_sample_grid(image.astype(np.float64), grid_y, grid_x, zero_fill=False)


def dense_rotate_by(image: np.ndarray, theta: float) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64) - cy,
                         np.arange(w, dtype=np.float64) - cx, indexing="ij")
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    src_y = cy + ys * cos_t - xs * sin_t
    src_x = cx + ys * sin_t + xs * cos_t
    return dense_sample_grid(img, src_y, src_x, zero_fill=True)


def dense_rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    delta = mx - mn
    safe = delta > 0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        rc = np.where(safe, (mx - r) / delta, 0.0)
        gc = np.where(safe, (mx - g) / delta, 0.0)
        bc = np.where(safe, (mx - b) / delta, 0.0)
    h = np.zeros_like(mx)
    h = np.where(mx == r, bc - gc, h)
    h = np.where(mx == g, 2.0 + rc - bc, h)
    h = np.where(mx == b, 4.0 + gc - rc, h)
    h = np.where(safe, (h / 6.0) % 1.0, 0.0)
    s = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    return np.stack([h, s, mx], axis=-1)


def stacked_hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """All six sector candidates stacked, then one gather by sector."""
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    choices = np.stack([
        np.stack([v, t, p], axis=-1),
        np.stack([q, v, p], axis=-1),
        np.stack([p, v, t], axis=-1),
        np.stack([p, q, v], axis=-1),
        np.stack([t, p, v], axis=-1),
        np.stack([v, p, q], axis=-1),
    ], axis=0)
    return np.take_along_axis(choices, i[None, ..., None], axis=0)[0]


def dense_color_jitter(image: np.ndarray, jitter_bcs: float, jitter_hue: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Every pixel through brightness, contrast, saturation and hue in the
    drawn order, clamping to 0..255 after each stage."""
    x = np.asarray(image, dtype=np.float64)
    j = jitter_bcs
    for idx in rng.permutation(4):
        if idx == 0:
            x = x * rng.uniform(1.0 - j, 1.0 + j)
        elif idx == 1:
            f = rng.uniform(1.0 - j, 1.0 + j)
            x = f * x + (1.0 - f) * (x @ _LUMA).mean()
        elif idx == 2:
            f = rng.uniform(1.0 - j, 1.0 + j)
            x = f * x + (1.0 - f) * (x @ _LUMA)[..., None]
        else:
            shift = rng.uniform(-jitter_hue, jitter_hue)
            hsv = dense_rgb_to_hsv(x / 255.0)
            hsv[..., 0] = (hsv[..., 0] + shift) % 1.0
            x = stacked_hsv_to_rgb(hsv) * 255.0
        x = np.clip(x, 0.0, 255.0)
    return x


def straightline_optimizer(kind: str, p0: np.ndarray, grads, lr: float, wd: float) -> np.ndarray:
    """Parameters after one step per gradient in ``grads``, in float64, with
    every moment written out step by step from the published update rules.

    adamw: Adam moments with the decay of the pre-update parameter
    decoupled from the gradient (Loshchilov & Hutter, arXiv:1711.05101,
    Algorithm 2).
    adam, rmsprop: the decay enters the gradient as an L2 term.
    lion: the sign of the interpolated momentum plus the decoupled decay of
    the pre-update parameter (Chen et al., arXiv:2302.06675, Algorithm 2).
    """
    p = np.array(p0, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.array(g, dtype=np.float64)
        if kind in ("adam", "rmsprop"):
            g = g + wd * p
        if kind in ("adam", "adamw"):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            decay = wd * p if kind == "adamw" else 0.0
            p = p - lr * (m_hat / (np.sqrt(v_hat) + 1e-8) + decay)
        elif kind == "rmsprop":
            v = 0.99 * v + 0.01 * g * g
            p = p - lr * g / (np.sqrt(v) + 1e-8)
        elif kind == "lion":
            c = 0.9 * m + 0.1 * g
            p = p - lr * (np.sign(c) + wd * p)
            m = 0.99 * m + 0.01 * g
        else:
            raise ValueError(kind)
    return p


def straightline_intensity_pgm(images, log: bool) -> bytes:
    """P5 bytes of the per-pixel mean of same-shape 2-D float32 images.

    The sum runs in float32 in list order and is divided by the count, as a
    float32 mean over a stacked leading axis rounds; the mapping then runs in
    float64: log10(v + 1e-6) if ``log``, the affine map of [min, max] onto
    [0, 255] (all zero for a flat map), and round half to even.
    """
    total = np.zeros(images[0].shape, dtype=np.float32)
    for image in images:
        total = total + image
    v = (total / np.float32(len(images))).astype(np.float64)
    if log:
        v = np.log10(v + 1e-6)
    lo, hi = v.min(), v.max()
    grey = np.rint((v - lo) / (hi - lo) * 255.0) if hi > lo else np.zeros_like(v)
    h, w = v.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + grey.astype(np.uint8).tobytes()
