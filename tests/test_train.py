import numpy as np
import pytest

from qgjet import autodiff as ad
from qgjet.augment import AugmentConfig
from qgjet.models import ConvConfig, ViTConfig, build_model
from qgjet.optim import cosine_lr
from qgjet.rng import stream
from qgjet.synth import generate_dataset, preset
from qgjet.train import TrainConfig, fit


def _small_model(kind, dtype=np.float32):
    return build_model(kind, 32, stream(0, "init"), dtype,
                       vit_cfg=ViTConfig(embed_dim=16, depth=3, heads=2),
                       conv_cfg=ConvConfig(widths=(4, 8, 8)))


def _train_step(model, dtype=np.float32) -> list[np.dtype]:
    """One forward and backward pass on a fixed batch of ``dtype``; returns
    the dtype of each tape node's output."""
    images = ad.Tensor(stream(1, "images").random((2, 3, 32, 32), dtype=dtype))
    labels = ad.Tensor(np.eye(2, dtype=dtype))
    with ad.Tape() as tape:
        logits = model.forward(images, ad.TRAIN, stream(1, "dropout"))
        loss = ad.cross_entropy_soft(logits, labels)
    dtypes = [out.dtype for out, _ in tape.nodes]  # read before backward frees the tape
    ad.backward(tape, loss)
    return dtypes


@pytest.mark.parametrize("kind", ("vit", "conv", "hybrid3"))
def test_frozen_backbone_stays_off_the_tape(kind):
    """Turning ``requires_grad`` off on every backbone tensor of a real model
    drops the backbone's ops from the tape and leaves its gradients unset."""
    trained = _small_model(kind)
    n_trained = len(_train_step(trained))
    frozen = _small_model(kind)
    backbone = [name for name, _ in frozen.registry.items() if not name.startswith("head.")]
    assert 0 < len(backbone) < len(list(frozen.registry.items()))
    for name in backbone:
        frozen.registry[name].requires_grad = False
    n_frozen = len(_train_step(frozen))

    assert n_frozen < n_trained
    for name, tensor in frozen.registry.items():
        if name in backbone:
            assert tensor.grad is None, name
        else:  # the head sees the same activations, so its gradient is unchanged
            assert np.array_equal(tensor.grad, trained.registry[name].grad), name


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("kind", ("vit", "conv", "hybrid2", "hybrid3"))
def test_every_tape_node_keeps_the_model_dtype(kind, dtype):
    """A model built in ``dtype`` and fed ``dtype`` images computes every
    activation, and every parameter gradient, in ``dtype``: no Python or
    numpy scalar promotes a float32 step to float64."""
    model = _small_model(kind, dtype)
    dtypes = _train_step(model, dtype)
    assert len(dtypes) > 10
    assert [str(d) for d in dtypes if d != dtype] == []
    assert [name for name, t in model.registry.items() if t.grad.dtype != dtype] == []


@pytest.fixture(scope="module")
def split():
    return (generate_dataset(preset("easy", seed=1), 8),
            generate_dataset(preset("easy", seed=2), 4))


@pytest.mark.parametrize("kind", ("vit", "conv"))
def test_fit_is_reproducible(split, kind):
    config = TrainConfig(batch_size=8, max_epochs=4, seeds=(1,))
    runs = [fit(*split, kind, config, AugmentConfig(out_size=32), seed=1) for _ in range(2)]
    (first, state, _), (second, state2, _) = runs
    losses = [[(e.train_loss, e.val_loss) for e in r.epochs] for r in (first, second)]
    assert len(losses[0]) == 4 and losses[0] == losses[1]
    assert first.optimizer_steps == 4 * 2  # 16 windows in batches of 8
    assert state.keys() == state2.keys()
    assert all(state[k].tobytes() == state2[k].tobytes() for k in state)
    if kind == "vit":
        assert first.epochs[-1].train_loss < first.epochs[0].train_loss


@pytest.mark.parametrize("kind", ("vit", "hybrid2"))
def test_every_parameter_trains_at_the_cosine_rate(split, kind):
    model = build_model(kind, 32, stream(1, "init"))
    start = model.registry.state_dict()
    config = TrainConfig(batch_size=8, max_epochs=2, cosine_t_max=4, seeds=(1,))
    record, state, _ = fit(*split, kind, config, AugmentConfig(out_size=32), 1, model=model)
    assert [e.lr_head for e in record.epochs] == [cosine_lr(e, config.head_lr, 4) for e in (0, 1)]
    assert [name for name in start if np.array_equal(start[name], state[name])] == []


@pytest.mark.parametrize("kind", ("vit", "conv", "hybrid2"))
def test_float32_fit_tracks_a_float64_fit(split, kind, monkeypatch):
    """The per-step training losses of a float32 fit stay within 2e-6
    relative of a fit of a float64 copy of the same initial weights on the
    same inputs. The float64 run is the reference. Over these eight steps
    float32 rounding moved the losses by at most 3.4e-7 relative (vit)."""
    losses, backward = [], ad.backward

    def logged(tape, loss):
        losses[-1].append(float(loss.data))
        return backward(tape, loss)

    monkeypatch.setattr(ad, "backward", logged)
    config = TrainConfig(batch_size=4, max_epochs=2, seeds=(1,))
    model = build_model(kind, 32, stream(1, "init"))
    reference = build_model(kind, 32, stream(1, "init"), np.float64)
    reference.registry.load_state_dict(model.registry.state_dict())
    for m in (model, reference):
        losses.append([])
        fit(*split, kind, config, AugmentConfig(out_size=32), 1, model=m)
    assert len(losses[0]) == 2 * 4  # 16 windows in batches of 4, twice
    assert losses[0] == pytest.approx(losses[1], rel=2e-6)
