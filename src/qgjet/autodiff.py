"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Operations record themselves onto the active :class:`Tape` (a Wengert list,
appended in execution order, so topological order holds by construction).
Without an active tape the same functions run as plain forward math, which
is the evaluation path. Gradients accumulate into ``Tensor.grad``; callers
zero them explicitly between optimizer steps.

Compute defaults to float32; gradient verification runs the same code on
float64 tensors.
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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
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

    def zero_grad(self):
        self.grad = None

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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


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
        t.grad = np.zeros_like(t.data)
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
    """Reverse sweep over the tape, accumulating gradients from ``loss``."""
    if loss.size != 1:
        raise ValueError("backward expects a scalar loss")
    loss.grad = np.ones_like(loss.data)
    for out, node_backward in reversed(tape.nodes):
        if out.grad is None:
            continue
        node_backward(out.grad)


# ---------------------------------------------------------------------------
# elementwise / structural ops

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports stacked ``a`` against rank-2 ``b`` and
    equal-rank batched operands."""
    a, b = _as_tensor(a), _as_tensor(b)
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
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        _accum(x, g.reshape(x.shape))

    return _record(out, (x,), bwd)


def transpose(x: Tensor, axes) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.transpose(x.data, axes))
    inverse = np.argsort(axes)

    def bwd(g):
        _accum(x, np.transpose(g, inverse))

    return _record(out, (x,), bwd)


def index(x: Tensor, idx) -> Tensor:
    """Basic (non-repeating) slice/integer indexing."""
    x = _as_tensor(x)
    out = Tensor(x.data[idx])

    def bwd(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[idx] = g
            _accum(x, full)

    return _record(out, (x,), bwd)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _record(out, tuple(tensors), bwd)


def broadcast_to(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.broadcast_to(x.data, shape).copy())

    def bwd(g):
        _accum(x, _unbroadcast(g, x.shape))

    return _record(out, (x,), bwd)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.shape).copy())

    return _record(out, (x,), bwd)


def mean_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    count = x.size // out.size

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.shape) / count)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and normalization

def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0))

    def bwd(g):
        _accum(x, g * (x.data > 0))

    return _record(out, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate GELU (within 1e-3 absolute of the erf form)."""
    x = _as_tensor(x)
    u = _GELU_C * (x.data + _GELU_A * x.data ** 3)
    th = np.tanh(u)
    out = Tensor(0.5 * x.data * (1.0 + th))

    def bwd(g):
        sech2 = 1.0 - th * th
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x.data ** 2)
        _accum(x, g * (0.5 * (1.0 + th) + 0.5 * x.data * sech2 * du))

    return _record(out, (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - dot))

    return _record(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis (population variance), then scale-shift."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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
    survivors by 1/(1-p); EVAL is the identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability out of range: {p}")
    x = _as_tensor(x)
    if mode == EVAL or p == 0.0:
        out = Tensor(x.data.copy())

        def bwd_eval(g):
            _accum(x, g)

        return _record(out, (x,), bwd_eval)
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
    logits, target_probs = _as_tensor(logits), _as_tensor(target_probs)
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
    """Cross-correlation of ``x`` ([C,H,W] or [B,C,H,W]) with kernels
    [C_out,C_in,kh,kw]. Output spatial dims must tile exactly."""
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or kernels.ndim != 4 or xd.shape[1] != kernels.shape[1]:
        raise ValueError(f"conv2d shape mismatch: {x.shape} with kernels {kernels.shape}")
    co, ci, kh, kw = kernels.shape
    cols, oh, ow = _im2col(xd, kh, kw, stride, padding)
    kmat = kernels.data.reshape(co, ci * kh * kw)
    res = np.matmul(kmat, cols).reshape(xd.shape[0], co, oh, ow)
    out = Tensor(res[0] if squeeze else res)

    def bwd(g):
        gd = g[None] if squeeze else g
        gmat = gd.reshape(gd.shape[0], co, oh * ow)
        if kernels.requires_grad:
            gk = np.einsum("bop,bcp->oc", gmat, cols).reshape(co, ci, kh, kw)
            _accum(kernels, gk)
        if x.requires_grad:
            gcols = np.matmul(kmat.T, gmat)
            gx = _col2im(gcols, xd.shape, kh, kw, stride, padding)
            _accum(x, gx[0] if squeeze else gx)

    return _record(out, (x, kernels), bwd)


# ---------------------------------------------------------------------------
# parameters

class ParamEntry:
    __slots__ = ("tensor", "group")

    def __init__(self, tensor: Tensor, group: str):
        self.tensor = tensor
        self.group = group


class ParameterRegistry:
    """Named parameter tensors grouped by module path.

    A parameter trains exactly when its tensor's ``requires_grad`` is True.
    Frozen means ``requires_grad`` is False: the parameter puts no node on
    the tape, gets no gradient and receives no optimizer update. Each entry
    carries a learning-rate group name resolved by the optimizer.
    """

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._entries[name] = ParamEntry(tensor, "head")
        return tensor

    def __getitem__(self, name: str) -> ParamEntry:
        return self._entries[name]

    def items(self):
        return self._entries.items()

    def set_trainable(self, prefix: str, trainable: bool, group: str | None = None) -> int:
        """Freeze or unfreeze every parameter under ``prefix``; returns scalar count touched."""
        touched = 0
        for name, entry in self._entries.items():
            if name == prefix or name.startswith(prefix + "."):
                entry.tensor.requires_grad = trainable
                if group is not None:
                    entry.group = group
                touched += entry.tensor.size
        return touched

    def n_trainable(self) -> int:
        return sum(e.tensor.size for e in self._entries.values() if e.tensor.requires_grad)

    def n_total(self) -> int:
        return sum(e.tensor.size for e in self._entries.values())

    def zero_grad(self):
        for entry in self._entries.values():
            entry.tensor.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: e.tensor.data.copy() for name, e in self._entries.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        for name, entry in self._entries.items():
            arr = state[name]
            if arr.shape != entry.tensor.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {entry.tensor.shape}")
            entry.tensor.data = arr.astype(entry.tensor.dtype).copy()


# ---------------------------------------------------------------------------
# verification

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
