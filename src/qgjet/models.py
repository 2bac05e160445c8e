"""Classifier architectures on the tape-autodiff engine.

A tiny pre-norm Vision Transformer (patch embedding, learnable class token
and positional embeddings, MHSA + MLP blocks with residuals), a small
convolutional backbone with global average pooling, and hybrid models that
concatenate backbone features into a 512-wide two-layer MLP head with
dropout 0.1. The triple hybrid pairs the main transformer with the conv
net and a second, smaller transformer.

Every model starts from random weights, and all of its parameters train
together.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import EVAL, ParameterRegistry, Tensor

NUM_CLASSES = 2  # gluon, quark: the label byte, one-hot targets and scores fix it


@dataclass(frozen=True)
class ViTConfig:
    patch_size: int = 16
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.embed_dim % self.heads:
            raise ValueError("embed dim must be divisible by the head count")


@dataclass(frozen=True)
class ConvConfig:
    widths: tuple[int, ...] = (16, 32, 64)
    kernel: int = 3

    def __post_init__(self):
        if not self.widths:
            raise ValueError("need at least one conv stage")

    @property
    def feature_dim(self) -> int:
        return self.widths[-1]


@dataclass(frozen=True)
class HybridConfig:
    hidden_dim: int = 512
    dropout: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("hybrid dropout must be in [0, 1)")


def trunc_normal(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Normal(0, 0.02) initial weights clipped at two standard deviations."""
    return np.clip(rng.normal(0.0, 0.02, size=shape), -0.04, 0.04).astype(dtype)


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, w), b)


class MultiHeadSelfAttention:
    """Per-head Q/K/V projections of width D/h, scaled dot-product attention,
    concatenated heads followed by an output projection."""

    def __init__(self, registry: ParameterRegistry, prefix: str, dim: int, heads: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        p = {}
        for name in ("wq", "wk", "wv", "wo"):
            p[name] = registry.add(f"{prefix}.{name}",
                                   Tensor(trunc_normal(rng, (dim, dim), dtype=dtype)))
        # no key bias: a per-key constant shift cancels under the row softmax
        for name in ("bq", "bv", "bo"):
            p[name] = registry.add(f"{prefix}.{name}",
                                   Tensor(np.zeros(dim, dtype=dtype)))
        self.p = p

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        x = ad.reshape(x, (batch, seq, self.heads, self.head_dim))
        return ad.transpose(x, (0, 2, 1, 3))

    def __call__(self, x: Tensor) -> Tensor:
        """[B, N, D] -> [B, N, D]."""
        batch, seq, _ = x.shape
        q = self._split_heads(_linear(x, self.p["wq"], self.p["bq"]), batch, seq)
        k = self._split_heads(ad.matmul(x, self.p["wk"]), batch, seq)
        v = self._split_heads(_linear(x, self.p["wv"], self.p["bv"]), batch, seq)
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), self.scale)
        attn = ad.softmax(scores)
        ctx = ad.matmul(attn, v)
        ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (batch, seq, self.dim))
        return _linear(ctx, self.p["wo"], self.p["bo"])


class EncoderBlock:
    """Pre-norm residual block: x + MHSA(LN(x)), then x + MLP(LN(x))."""

    def __init__(self, registry: ParameterRegistry, prefix: str, cfg: ViTConfig,
                 rng: np.random.Generator, dtype=np.float32):
        d, hidden = cfg.embed_dim, cfg.embed_dim * cfg.mlp_ratio
        self.attn = MultiHeadSelfAttention(registry, f"{prefix}.attn", d, cfg.heads, rng, dtype)
        self.ln1_g = registry.add(f"{prefix}.ln1.g", Tensor(np.ones(d, dtype=dtype)))
        self.ln1_b = registry.add(f"{prefix}.ln1.b", Tensor(np.zeros(d, dtype=dtype)))
        self.ln2_g = registry.add(f"{prefix}.ln2.g", Tensor(np.ones(d, dtype=dtype)))
        self.ln2_b = registry.add(f"{prefix}.ln2.b", Tensor(np.zeros(d, dtype=dtype)))
        self.w1 = registry.add(f"{prefix}.mlp.w1", Tensor(trunc_normal(rng, (d, hidden), dtype=dtype)))
        self.b1 = registry.add(f"{prefix}.mlp.b1", Tensor(np.zeros(hidden, dtype=dtype)))
        self.w2 = registry.add(f"{prefix}.mlp.w2", Tensor(trunc_normal(rng, (hidden, d), dtype=dtype)))
        self.b2 = registry.add(f"{prefix}.mlp.b2", Tensor(np.zeros(d, dtype=dtype)))

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.add(self.attn(ad.layer_norm(x, self.ln1_g, self.ln1_b)), x)
        h = ad.gelu(_linear(ad.layer_norm(y, self.ln2_g, self.ln2_b), self.w1, self.b1))
        return ad.add(_linear(h, self.w2, self.b2), y)


class TinyViT:
    """From-scratch ViT; the feature is the class-token row after the final
    layer norm."""

    is_transformer_path = True
    uses_imagenet_norm = False

    def __init__(self, cfg: ViTConfig, image_size: int, rng: np.random.Generator,
                 registry: ParameterRegistry | None = None, prefix: str = "",
                 dtype=np.float32, with_head: bool = True):
        if image_size % cfg.patch_size:
            raise ValueError("image size must be divisible by the patch size")
        self.cfg = cfg
        self.n_side = image_size // cfg.patch_size
        self.registry = registry if registry is not None else ParameterRegistry()
        pre = f"{prefix}." if prefix else ""
        d = cfg.embed_dim
        patch_dim = 3 * cfg.patch_size ** 2
        reg = self.registry
        self.patch_w = reg.add(f"{pre}patch.w", Tensor(trunc_normal(rng, (patch_dim, d), dtype=dtype)))
        self.patch_b = reg.add(f"{pre}patch.b", Tensor(np.zeros(d, dtype=dtype)))
        self.cls = reg.add(f"{pre}cls", Tensor(np.zeros((1, 1, d), dtype=dtype)))
        self.pos = reg.add(f"{pre}pos", Tensor(trunc_normal(rng, (1, self.n_side ** 2 + 1, d), dtype=dtype)))
        self.blocks = [EncoderBlock(reg, f"{pre}blocks.{i}", cfg, rng, dtype)
                       for i in range(cfg.depth)]
        self.norm_g = reg.add(f"{pre}norm.g", Tensor(np.ones(d, dtype=dtype)))
        self.norm_b = reg.add(f"{pre}norm.b", Tensor(np.zeros(d, dtype=dtype)))
        self.head_w = self.head_b = None
        if with_head:
            self.head_w = reg.add(f"{pre}head.w", Tensor(trunc_normal(rng, (d, NUM_CLASSES), dtype=dtype)))
            self.head_b = reg.add(f"{pre}head.b", Tensor(np.zeros(NUM_CLASSES, dtype=dtype)))
        self.feature_dim = d

    def patch_embed(self, images: Tensor) -> Tensor:
        """[B,3,H,W] -> [B, N+1, D] with class token at row 0 and positional
        embeddings added to every row."""
        b = images.shape[0]
        p, n_side = self.cfg.patch_size, self.n_side
        x = ad.reshape(images, (b, 3, n_side, p, n_side, p))
        x = ad.transpose(x, (0, 2, 4, 1, 3, 5))
        x = ad.reshape(x, (b, n_side * n_side, 3 * p * p))
        tokens = _linear(x, self.patch_w, self.patch_b)
        cls = ad.broadcast_to(self.cls, (b, 1, self.cfg.embed_dim))
        return ad.add(ad.concat([cls, tokens], axis=1), self.pos)

    def features(self, images: Tensor) -> Tensor:
        x = self.patch_embed(images)
        for block in self.blocks:
            x = block(x)
        x = ad.layer_norm(x, self.norm_g, self.norm_b)
        return ad.index(x, (slice(None), 0))

    def forward(self, images: Tensor, mode: str = EVAL,
                rng: np.random.Generator | None = None) -> Tensor:
        return _linear(self.features(images), self.head_w, self.head_b)


class TinyConvNet:
    """Conv stages (3x3, stride 1, same padding) with ReLU and stride-2
    subsampling, global average pooling into the feature vector."""

    is_transformer_path = False
    uses_imagenet_norm = True

    def __init__(self, cfg: ConvConfig, rng: np.random.Generator,
                 registry: ParameterRegistry | None = None, prefix: str = "",
                 dtype=np.float32, with_head: bool = True):
        self.cfg = cfg
        self.registry = registry if registry is not None else ParameterRegistry()
        pre = f"{prefix}." if prefix else ""
        reg = self.registry
        self.kernels = []
        self.biases = []
        c_in = 3
        for i, width in enumerate(cfg.widths):
            k = reg.add(f"{pre}stages.{i}.k",
                        Tensor(trunc_normal(rng, (width, c_in, cfg.kernel, cfg.kernel), dtype=dtype)))
            b = reg.add(f"{pre}stages.{i}.b", Tensor(np.zeros((width, 1, 1), dtype=dtype)))
            self.kernels.append(k)
            self.biases.append(b)
            c_in = width
        self.head_w = self.head_b = None
        if with_head:
            self.head_w = reg.add(f"{pre}head.w",
                                  Tensor(trunc_normal(rng, (cfg.feature_dim, NUM_CLASSES), dtype=dtype)))
            self.head_b = reg.add(f"{pre}head.b", Tensor(np.zeros(NUM_CLASSES, dtype=dtype)))
        self.feature_dim = cfg.feature_dim

    def features(self, images: Tensor) -> Tensor:
        x = images
        pad = self.cfg.kernel // 2
        for k, b in zip(self.kernels, self.biases):
            x = ad.relu(ad.add(ad.conv2d(x, k, stride=1, padding=pad), b))
            x = ad.index(x, (Ellipsis, slice(None, None, 2), slice(None, None, 2)))
        return ad.mean_(x, axis=(-2, -1))

    def forward(self, images: Tensor, mode: str = EVAL,
                rng: np.random.Generator | None = None) -> Tensor:
        return _linear(self.features(images), self.head_w, self.head_b)


class HybridModel:
    """Backbone features concatenated in declared order, then
    ReLU(W1^T f + b1) with a 512-wide hidden layer, dropout, and the final
    linear map to logits. Dropout acts only in train mode."""

    uses_imagenet_norm = False

    def __init__(self, backbones: list, cfg: HybridConfig, rng: np.random.Generator,
                 registry: ParameterRegistry, dtype=np.float32):
        if len(backbones) not in (2, 3):
            raise ValueError("hybrid head takes 2 or 3 backbones")
        self.backbones = backbones
        self.cfg = cfg
        self.registry = registry
        concat_dim = sum(b.feature_dim for b in backbones)
        self.w1 = registry.add("head.w1", Tensor(trunc_normal(rng, (concat_dim, cfg.hidden_dim), dtype=dtype)))
        self.b1 = registry.add("head.b1", Tensor(np.zeros(cfg.hidden_dim, dtype=dtype)))
        self.w2 = registry.add("head.w2", Tensor(trunc_normal(rng, (cfg.hidden_dim, NUM_CLASSES), dtype=dtype)))
        self.b2 = registry.add("head.b2", Tensor(np.zeros(NUM_CLASSES, dtype=dtype)))
        self.is_transformer_path = any(b.is_transformer_path for b in backbones)

    def head(self, feats: list[Tensor], mode: str = EVAL,
             rng: np.random.Generator | None = None) -> Tensor:
        f = ad.concat(feats, axis=-1)
        h1 = ad.relu(_linear(f, self.w1, self.b1))
        h1 = ad.dropout(h1, self.cfg.dropout, mode, rng)
        return _linear(h1, self.w2, self.b2)

    def features(self, images: Tensor) -> list[Tensor]:
        return [b.features(images) for b in self.backbones]

    def forward(self, images: Tensor, mode: str = EVAL,
                rng: np.random.Generator | None = None) -> Tensor:
        return self.head(self.features(images), mode, rng)


def build_model(kind: str, image_size: int, rng: np.random.Generator, dtype=np.float32,
                vit_cfg: ViTConfig | None = None, conv_cfg: ConvConfig | None = None,
                hybrid_cfg: HybridConfig | None = None):
    """Factory for the supported classifier kinds at a given input size."""
    vit_cfg = vit_cfg or ViTConfig()
    conv_cfg = conv_cfg or ConvConfig()
    hybrid_cfg = hybrid_cfg or HybridConfig()
    if kind == "vit":
        return TinyViT(vit_cfg, image_size, rng, dtype=dtype)
    if kind == "conv":
        return TinyConvNet(conv_cfg, rng, dtype=dtype)
    if kind in ("hybrid2", "hybrid3"):
        registry = ParameterRegistry()
        backbones = [TinyViT(vit_cfg, image_size, rng, registry, "vit", dtype, with_head=False),
                     TinyConvNet(conv_cfg, rng, registry, "conv", dtype, with_head=False)]
        if kind == "hybrid3":
            small = replace(vit_cfg, embed_dim=32, depth=2, heads=2)
            backbones.append(TinyViT(small, image_size, rng, registry, "vit2", dtype, with_head=False))
        return HybridModel(backbones, hybrid_cfg, rng, registry, dtype)
    raise ValueError(f"unknown model kind: {kind!r}")
