"""Parameter-update rules and the cosine learning-rate schedule.

AdamW uses decoupled weight decay (p <- p - lr*update - lr*wd*p); Adam and
RMSprop fold the decay into the gradient as an L2 term; Lion applies the
sign of an interpolated momentum with decoupled decay. Constants follow
the common defaults: Adam/AdamW betas (0.9, 0.999) and eps 1e-8, RMSprop
alpha 0.99 and eps 1e-8, Lion betas (0.9, 0.99).
"""
from __future__ import annotations

import math

import numpy as np

from .autodiff import ParameterRegistry

ADAMW = "adamw"
ADAM = "adam"
RMSPROP = "rmsprop"
LION = "lion"
OPTIMIZER_KINDS = (ADAMW, ADAM, RMSPROP, LION)

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
RMSPROP_ALPHA = 0.99
RMSPROP_EPS = 1e-8
LION_BETAS = (0.9, 0.99)


def cosine_lr(t: float, eta_max: float, t_max: int) -> float:
    """Cosine annealing from eta_max at t=0 down to 0 at t=t_max, clamped
    beyond t_max."""
    if t < 0:
        raise ValueError("schedule index must be non-negative")
    frac = min(t, t_max) / t_max
    return 0.5 * eta_max * (1.0 + math.cos(math.pi * frac))


def optimizer_step(kind: str, param: np.ndarray, grad: np.ndarray, lr: float,
                   weight_decay: float, state: dict) -> None:
    """Apply one in-place update of ``param`` under the named rule.

    ``state`` is a per-parameter dict, zero-initialized on first use.
    """
    if kind == ADAMW or kind == ADAM:
        b1, b2 = ADAM_BETAS
        if kind == ADAM and weight_decay:
            grad = grad + weight_decay * param
        state.setdefault("step", 0)
        m = state.setdefault("m", np.zeros_like(param))
        v = state.setdefault("v", np.zeros_like(param))
        state["step"] += 1
        t = state["step"]
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad * grad
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        if kind == ADAMW and weight_decay:
            param -= lr * weight_decay * param
        param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    elif kind == RMSPROP:
        if weight_decay:
            grad = grad + weight_decay * param
        v = state.setdefault("v", np.zeros_like(param))
        v *= RMSPROP_ALPHA
        v += (1 - RMSPROP_ALPHA) * grad * grad
        param -= lr * grad / (np.sqrt(v) + RMSPROP_EPS)
    elif kind == LION:
        b1, b2 = LION_BETAS
        m = state.setdefault("m", np.zeros_like(param))
        update = np.sign(b1 * m + (1 - b1) * grad)
        if weight_decay:
            param -= lr * (update + weight_decay * param)
        else:
            param -= lr * update
        m *= b2
        m += (1 - b2) * grad
    else:
        raise ValueError(f"unknown optimizer kind: {kind!r}")


class Optimizer:
    """Steps every parameter of ``registry`` under one rule at one learning
    rate ``lr``, which the caller may change between steps."""

    def __init__(self, kind: str, registry: ParameterRegistry, lr: float,
                 weight_decay: float = 0.0):
        if kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind: {kind!r}")
        self.kind = kind
        self.registry = registry
        self.lr = lr
        self.weight_decay = weight_decay
        self._state: dict[str, dict] = {}

    def step(self):
        for name, tensor in self.registry.items():
            grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            state = self._state.setdefault(name, {})
            optimizer_step(self.kind, tensor.data, grad, self.lr, self.weight_decay, state)
