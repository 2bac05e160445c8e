"""Independently written straight-line reference computations.

These deliberately avoid the library's composed functions: each oracle is a
single block of inline numpy so the production chain is checked against a
second, structurally different derivation of the same published formulas.
The sweep's earlier value parser and config edits are kept as the reference
for its settings overlays. The two tape helpers at the end, ``sum_`` and the
central-difference ``grad_check``, serve the gradient tests; the library
itself never calls them.
"""
import math
from dataclasses import replace

import numpy as np

from qgjet.autodiff import Tape, Tensor, _accum, _record, backward
from qgjet.models import HybridConfig, ViTConfig
from qgjet.optim import OPTIMIZER_KINDS


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


# The per-particle jet sampler that ``qgjet.synth.sample_jet`` replaced with
# one vectorised step. It draws from the stream in the same order and routes
# each particle in a Python loop: charged -> TRACK then its ECAL leakage,
# photon -> ECAL, neutral hadron -> HCAL. The library must match it bit for bit.

def per_particle_hits(config, label: int, rng: np.random.Generator):
    """(eta, phi, value, channel) arrays of one jet, built hit by hit."""
    quark = label == 1
    mean_mult = config.mean_mult_quark if quark else config.mean_mult_gluon
    width = config.width_quark if quark else config.width_gluon
    jet_pt = float(rng.uniform(*config.jet_pt_range))
    jet_eta = float(rng.uniform(*config.jet_eta_range))
    jet_phi = float(rng.uniform(-math.pi, math.pi))
    n = max(1, int(rng.poisson(mean_mult)))
    offsets = rng.normal(0.0, width, size=(n, 2))
    while True:
        outside = np.hypot(offsets[:, 0], offsets[:, 1]) >= 1.0
        if not outside.any():
            break
        offsets[outside] = rng.normal(0.0, width, size=(int(outside.sum()), 2))
    fractions = rng.dirichlet(np.ones(n))
    species = rng.choice(3, size=n, p=[config.charged_frac, config.photon_frac,
                                       config.neutral_had_frac])
    hits = []
    for i in range(n):
        eta = jet_eta + offsets[i, 0]
        dphi = jet_phi + offsets[i, 1]
        phi = float(dphi - 2.0 * math.pi * np.floor((dphi + math.pi) / (2.0 * math.pi)))
        pt = float(jet_pt * fractions[i])
        if species[i] == 0:
            hits += [(eta, phi, pt, 0), (eta, phi, pt * 0.3, 1)]
        else:
            hits.append((eta, phi, pt, int(species[i])))
    eta, phi, value, channel = zip(*hits)
    return (np.array(eta, dtype=np.float64), np.array(phi, dtype=np.float64),
            np.array(value, dtype=np.float64), np.array(channel, dtype=np.int64))


# The dense detector path that ``qgjet.detector`` replaced with tower-grid
# binning and direct window binning: every hit summed into a full float64
# [3, 280, 360] frame, HCAL summed on its 56x72 towers and upsampled by
# ``np.repeat``, the frame cast to float32, the centre picked on the strided
# tower slice of that frame, and the window cropped out of it. The library
# must match it bit for bit.

def dense_jet_window(eta, phi, value, channel, jet_eta, jet_phi, center=None):
    """(towers, center, window) of one event through the dense frame.

    ``towers`` is the frame's HCAL channel read one pixel per tower, and
    ``center`` the hottest tower's centre pixel near the jet axis unless
    given. ``window`` is the float32 [3, 125, 125] crop around ``center``,
    or None when the crop would leave the eta range.
    """
    def eta_bin(e, n):
        return np.minimum(np.floor((e + 3.0) * (n / 6.0)).astype(np.int64), n - 1)

    def phi_bin(p, n):
        wrapped = p - 2.0 * math.pi * np.floor((p + math.pi) / (2.0 * math.pi))
        return np.minimum(np.floor((wrapped + math.pi) * (n / (2.0 * math.pi))).astype(np.int64),
                          n - 1)

    frame = np.zeros((3, 280, 360), dtype=np.float64)
    native = np.zeros((56, 72), dtype=np.float64)
    for ch, grid in ((0, frame[0]), (1, frame[1]), (2, native)):
        sel = (np.abs(eta) < 3.0) & (channel == ch)
        n_eta, n_phi = grid.shape
        np.add.at(grid, (eta_bin(eta[sel], n_eta), phi_bin(phi[sel], n_phi)), value[sel])
    frame[2] = np.repeat(np.repeat(native, 5, axis=0), 5, axis=1)
    frame = frame.astype(np.float32)
    towers = frame[2, ::5, ::5]

    if center is None:
        trow = int(eta_bin(np.float64(jet_eta), 56))
        tcol = int(phi_bin(np.float64(jet_phi), 72))
        cells = [(r, c) for r in range(max(0, trow - 4), min(56, trow + 5))
                 for c in sorted((tcol + dc) % 72 for dc in range(-4, 5))]
        r, c = max(cells, key=lambda rc: towers[rc])  # the first of equal maxima
        if towers[r, c] == 0.0:
            r, c = trow, tcol
        center = (5 * r + 2, 5 * c + 2)
    row, col = center
    if not 62 <= row <= 217:
        return towers, center, None
    cols = np.arange(col - 62, col + 63) % 360
    return towers, center, frame[:, row - 62:row + 63, :][:, :, cols]


# The sweep's earlier per-axis value parser and config edits, which every
# axis value now replaces with a settings overlay through apply_settings.
SWEEP_MODEL_SIZES = {"tiny": (32, 2, 2), "small": (64, 4, 4), "base": (128, 6, 8)}


def parse_sweep_value(axis: str, raw: str):
    if axis in ("dataset_size", "learning_rate", "weight_decay", "dropout"):
        return float(raw)
    if axis in ("batch_size", "epochs"):
        return int(raw)
    if axis == "optimizer":
        if raw not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {raw!r}")
        return raw
    if axis == "model_size":
        if raw not in SWEEP_MODEL_SIZES:
            raise ValueError(f"unknown model size {raw!r}")
        return raw
    raise ValueError(f"unknown sweep axis: {axis!r}")


def sweep_run_configs(model_kind: str, base_train, base_aug, build_kwargs: dict, axis: str,
                      raw: str):
    """(row label, training-window fraction, train config, augment config,
    ``build_model`` kwargs) of one sweep value, by per-axis ``replace``."""
    value = parse_sweep_value(axis, raw)
    train_cfg, kwargs, fraction = base_train, dict(build_kwargs), 1.0
    if axis == "dataset_size":
        fraction = value
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
        dim, depth, heads = SWEEP_MODEL_SIZES[value]
        vit = kwargs.get("vit_cfg") or ViTConfig()
        kwargs["vit_cfg"] = replace(vit, embed_dim=dim, depth=depth, heads=heads)
    return f"{model_kind} {axis}={value}", fraction, train_cfg, base_aug, kwargs


def sum_(x: Tensor) -> Tensor:
    """Sum of every element, recorded on the tape: the scalar that the
    gradient tests differentiate."""
    out = Tensor(x.data.sum())

    def bwd(g):
        _accum(x, np.broadcast_to(g, x.shape).copy())

    return _record(out, (x,), bwd)


def grad_check(f, inputs: list[Tensor], eps: float = 1e-6) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must be a deterministic closure over ``inputs`` returning a scalar
    Tensor; run it with float64 tensors for meaningful tolerances.
    """
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    with Tape() as tape:
        out = f()
    if out.size != 1:
        raise ValueError("grad_check expects a scalar function")
    backward(tape, out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    max_err = 0.0
    for t, ga in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f().data)
            flat[i] = orig - eps
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(ga.reshape(-1)[i])
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            max_err = max(max_err, err)
    return max_err
