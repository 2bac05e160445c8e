"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Operations record themselves onto the active :class:`Tape` (a Wengert list,
appended in execution order, so topological order holds by construction).
Without an active tape the same functions run as plain forward math, which
is the evaluation path. Gradients accumulate into ``Tensor.grad``; callers
zero them explicitly between optimizer steps. :func:`backward` consumes the
tape, releasing each node's output, gradient and closure once it has run, so
a tape is swept only once.

Compute defaults to float32; gradient verification (central differences on
float64 tensors) lives with the tests, in ``tests/oracles.py``.
"""
from __future__ import annotations

import math

import numpy as np

TRAIN = "train"
EVAL = "eval"

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

_active_tape: "Tape | None" = None


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations; inputs always precede their consumers."""

    def __init__(self):
        self.nodes: list[tuple[Tensor, callable]] = []

    def __enter__(self):
        global _active_tape
        if _active_tape is not None:
            raise RuntimeError("a tape is already active")
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = None
        return False


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Mark ``out`` differentiable and push the node if a tape is active."""
    if _active_tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _active_tape.nodes.append((out, backward))
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a C-ordered copy: a transposed gradient kept in F order would make
        # the BLAS calls after it round differently
        t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(tape: Tape, loss: Tensor):
    """Reverse sweep over the tape, accumulating gradients from ``loss``.

    Each node is popped before it runs, so the tape is empty afterwards."""
    if loss.size != 1:
        raise ValueError("backward expects a scalar loss")
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        out, node_backward = nodes.pop()
        if out.grad is not None:
            node_backward(out.grad)


# ---------------------------------------------------------------------------
# elementwise / structural ops

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    """Elementwise product; either operand may be a Python or numpy scalar.

    A scalar is cast to the dtype of the tensor it multiplies: as a 0-d
    float64 array it would promote a float32 product, and every op after
    it, to float64."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    out = Tensor(a.data * b.data)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports stacked ``a`` against rank-2 ``b`` and
    equal-rank batched operands."""
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    if not (b.ndim == 2 or b.ndim == a.ndim):
        raise ValueError(f"unsupported matmul ranks: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g):
        if a.requires_grad:
            _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2:
                lhs = a.data.reshape(-1, a.shape[-1])
                _accum(b, lhs.T @ g.reshape(-1, g.shape[-1]))
            else:
                _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _record(out, (a, b), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        _accum(x, g.reshape(x.shape))

    return _record(out, (x,), bwd)


def transpose(x: Tensor, axes) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inverse = np.argsort(axes)

    def bwd(g):
        _accum(x, np.transpose(g, inverse))

    return _record(out, (x,), bwd)


def index(x: Tensor, idx) -> Tensor:
    """Basic (non-repeating) slice/integer indexing."""
    out = Tensor(x.data[idx])

    def bwd(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[idx] = g
            _accum(x, full)

    return _record(out, (x,), bwd)


def concat(tensors, axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _record(out, tuple(tensors), bwd)


def broadcast_to(x: Tensor, shape) -> Tensor:
    out = Tensor(np.broadcast_to(x.data, shape).copy())

    def bwd(g):
        _accum(x, _unbroadcast(g, x.shape))

    return _record(out, (x,), bwd)


def mean_(x: Tensor, axis) -> Tensor:
    """Mean over ``axis`` (an int or a tuple of ints), which is dropped."""
    out = Tensor(x.data.mean(axis=axis))
    count = x.size // out.size

    def bwd(g):
        _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape) / count)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and normalization

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def bwd(g):
        _accum(x, g * (x.data > 0))

    return _record(out, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate GELU (within 1e-3 absolute of the erf form)."""
    u = _GELU_C * (x.data + _GELU_A * (x.data * x.data * x.data))  # np.power is ~100x slower
    th = np.tanh(u)
    out = Tensor(0.5 * x.data * (1.0 + th))

    def bwd(g):
        sech2 = 1.0 - th * th
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x.data ** 2)
        _accum(x, g * (0.5 * (1.0 + th) + 0.5 * x.data * sech2 * du))

    return _record(out, (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - dot))

    return _record(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis (population variance plus 1e-5), then
    scale-shift."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mean) * inv
    out = Tensor(xhat * gamma.data + beta.data)

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=lead))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=lead))
        if x.requires_grad:
            gx = g * gamma.data
            _accum(x, inv * (gx - gx.mean(axis=-1, keepdims=True)
                             - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return _record(out, (x, gamma, beta), bwd)


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: TRAIN zeroes with probability ``p`` and rescales
    survivors by 1/(1-p). In EVAL, or with ``p == 0``, it returns ``x``
    itself and records nothing."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability out of range: {p}")
    if mode == EVAL or p == 0.0:
        return x
    if mode != TRAIN:
        raise ValueError(f"unknown dropout mode: {mode!r}")
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    scale = 1.0 / (1.0 - p)
    out = Tensor(x.data * keep * scale)

    def bwd(g):
        _accum(x, g * keep * scale)

    return _record(out, (x,), bwd)


def cross_entropy_soft(logits: Tensor, target_probs: Tensor) -> Tensor:
    """Mean over the batch of -sum_k y_k log softmax(z)_k.

    Targets must be probability vectors; rows off the simplex by more than
    1e-6 are rejected.
    """
    if logits.shape != target_probs.shape:
        raise ValueError("logits/targets shape mismatch")
    row_sums = target_probs.data.sum(axis=-1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ValueError("target rows must sum to 1")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    n = z.shape[0]
    out = Tensor(np.asarray(-(target_probs.data * logp).sum() / n, dtype=z.dtype))

    def bwd(g):
        if logits.requires_grad:
            p = np.exp(logp)
            _accum(logits, g * (p - target_probs.data) / n)

    return _record(out, (logits, target_probs), bwd)


# ---------------------------------------------------------------------------
# convolution

def _conv_out_len(n: int, k: int, stride: int, pad: int) -> int:
    span = n + 2 * pad - k
    if span < 0 or span % stride != 0:
        raise ValueError(f"conv geometry does not tile: n={n} k={k} stride={stride} pad={pad}")
    return span // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    b, c, h, w = x.shape
    oh = _conv_out_len(h, kh, stride, pad)
    ow = _conv_out_len(w, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(b, c * kh * kw, oh * ow), oh, ow


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int):
    b, c, h, w = x_shape
    oh = _conv_out_len(h, kh, stride, pad)
    ow = _conv_out_len(w, kw, stride, pad)
    cols = cols.reshape(b, c, kh, kw, oh, ow)
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of a batch ``x`` [B,C,H,W] with kernels
    [C_out,C_in,kh,kw]. Output spatial dims must tile exactly."""
    if x.ndim != 4 or kernels.ndim != 4 or x.shape[1] != kernels.shape[1]:
        raise ValueError(f"conv2d shape mismatch: {x.shape} with kernels {kernels.shape}")
    co, ci, kh, kw = kernels.shape
    cols, oh, ow = _im2col(x.data, kh, kw, stride, padding)
    kmat = kernels.data.reshape(co, ci * kh * kw)
    out = Tensor(np.matmul(kmat, cols).reshape(x.shape[0], co, oh, ow))

    def bwd(g):
        gmat = g.reshape(g.shape[0], co, oh * ow)
        if kernels.requires_grad:
            gk = np.einsum("bop,bcp->oc", gmat, cols).reshape(co, ci, kh, kw)
            _accum(kernels, gk)
        if x.requires_grad:
            gcols = np.matmul(kmat.T, gmat)
            _accum(x, _col2im(gcols, x.shape, kh, kw, stride, padding))

    return _record(out, (x, kernels), bwd)


# ---------------------------------------------------------------------------
# parameters

class ParameterRegistry:
    """Named parameter tensors, keyed by module path (``blocks.0.attn.wq``).

    Every registered tensor has ``requires_grad`` on and trains at the one
    learning rate of the optimizer that steps it.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._tensors[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def n_total(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._tensors.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        problems = [f"{what}: {', '.join(sorted(names))}" for what, names in (
            ("missing parameters", self._tensors.keys() - state.keys()),
            ("unexpected parameters", state.keys() - self._tensors.keys())) if names]
        if problems:
            raise ValueError("; ".join(problems))
        for name, t in self._tensors.items():
            arr = state[name]
            if arr.shape != t.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {t.shape}")
            t.data = arr.astype(t.dtype).copy()
