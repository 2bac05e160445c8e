import numpy as np
import pytest

from oracles import straightline_optimizer
from qgjet.autodiff import ParameterRegistry, Tensor
from qgjet.optim import OPTIMIZER_KINDS, Optimizer, cosine_lr, optimizer_step
from qgjet.train import CONTINUE, STOP, early_stop_check

STEPS = 4


@pytest.mark.parametrize("weight_decay", (0.0, 0.1))
@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_optimizer_step_matches_reference(kind, weight_decay):
    rng = np.random.default_rng(3)
    p0 = rng.normal(size=(3, 5))
    grads = [rng.normal(size=(3, 5)) for _ in range(STEPS)]
    param, state = p0.copy(), {}
    for g in grads:
        optimizer_step(kind, param, g, 0.05, weight_decay, state)
    expected = straightline_optimizer(kind, p0, grads, 0.05, weight_decay)
    np.testing.assert_allclose(param, expected, rtol=1e-12, atol=1e-15)
    assert not np.allclose(param, p0)


def test_unknown_optimizer_kind_rejected():
    with pytest.raises(ValueError):
        optimizer_step("sgd", np.zeros(2), np.zeros(2), 0.1, 0.0, {})


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 2e-3, 50) == 2e-3
    assert cosine_lr(25, 2e-3, 50) == pytest.approx(1e-3, rel=1e-15)
    assert cosine_lr(50, 2e-3, 50) == 0.0


def test_cosine_lr_clamps_beyond_t_max():
    assert cosine_lr(51, 2e-3, 50) == 0.0
    assert cosine_lr(500, 2e-3, 50) == 0.0


def test_cosine_lr_rejects_negative_index():
    with pytest.raises(ValueError):
        cosine_lr(-1, 2e-3, 50)


@pytest.mark.parametrize("patience", (1, 3))
def test_early_stop_after_more_than_patience_stale_epochs(patience):
    stale = [1.0] + [2.0] * patience  # best at epoch 0, then `patience` worse epochs
    assert early_stop_check(stale, patience) == CONTINUE
    assert early_stop_check(stale + [2.0], patience) == STOP


def test_early_stop_needs_a_loss():
    with pytest.raises(ValueError):
        early_stop_check([], 3)


def test_step_leaves_frozen_parameters_untouched():
    rng = np.random.default_rng(5)
    reg = ParameterRegistry()
    frozen = reg.add("backbone.w", Tensor(rng.normal(size=(4, 4)).astype(np.float32)))
    trained = reg.add("head.w", Tensor(rng.normal(size=(4, 2)).astype(np.float32)))
    reg.set_trainable("backbone", False)
    frozen.grad = np.ones_like(frozen.data)  # a stray gradient must not move it either
    trained.grad = np.ones_like(trained.data)
    frozen_bytes, trained_bytes = frozen.data.tobytes(), trained.data.tobytes()

    Optimizer("adamw", reg, {"head": 0.1}, weight_decay=0.1).step()
    assert frozen.data.tobytes() == frozen_bytes
    assert trained.data.tobytes() != trained_bytes
