import numpy as np
import pytest

from qgjet import autodiff as ad
from qgjet.models import ConvConfig, ViTConfig, build_model
from qgjet.rng import stream
from qgjet.train import HEAD_GROUP, UNFROZEN_GROUP, TrainConfig, apply_unfreeze_schedule

SCHEDULE = ((1, 1), (3, 2))  # epoch 1: last block, epoch 3: last two blocks


def _under(name, prefixes):
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def _small_model(kind):
    return build_model(kind, 32, stream(0, "init"), vit_cfg=ViTConfig(embed_dim=16, depth=3, heads=2),
                       conv_cfg=ConvConfig(widths=(4, 8, 8)))


@pytest.mark.parametrize("kind", ("vit", "conv", "hybrid3"))
def test_staged_unfreeze_schedule(kind):
    model = _small_model(kind)
    registry = model.registry
    for prefix in model.backbone_prefixes():  # as fit does in staged mode
        registry.set_trainable(prefix, False)
    config = TrainConfig(staged_unfreezing=True, unfreeze_schedule=SCHEDULE)
    blocks, backbone = model.block_prefixes(), model.backbone_prefixes()
    assert len(blocks) == 3

    counts = []
    for epoch, n_open in enumerate((0, 1, 1, 2, 2)):
        apply_unfreeze_schedule(epoch, model, config)
        opened = blocks[len(blocks) - n_open:]
        expected = 0
        for name, entry in registry.items():
            head = not _under(name, backbone)
            trains = entry.tensor.requires_grad
            assert trains == (head or _under(name, opened)), (epoch, name)
            assert entry.group == (HEAD_GROUP if head or not trains else UNFROZEN_GROUP)
            expected += entry.tensor.size if trains else 0
        assert registry.n_trainable() == expected
        counts.append(expected)
    assert counts[0] < counts[1] == counts[2] < counts[3] == counts[4] < registry.n_total()


def _train_step(model) -> int:
    """One forward and backward pass on a fixed batch; returns the tape length."""
    images = ad.Tensor(stream(1, "images").random((2, 3, 32, 32), dtype=np.float32))
    labels = ad.Tensor(np.eye(2, dtype=np.float32))
    with ad.Tape() as tape:
        logits = model.forward(images, ad.TRAIN, stream(1, "dropout"))
        loss = ad.cross_entropy_soft(logits, labels)
    ad.backward(tape, loss)
    return len(tape.nodes)


@pytest.mark.parametrize("kind", ("vit", "conv", "hybrid3"))
def test_frozen_backbone_stays_off_the_tape(kind):
    trained = _small_model(kind)
    n_trained = _train_step(trained)
    frozen = _small_model(kind)
    backbone = frozen.backbone_prefixes()
    for prefix in backbone:
        frozen.registry.set_trainable(prefix, False)
    n_frozen = _train_step(frozen)

    assert n_frozen < n_trained
    for name, entry in frozen.registry.items():
        if _under(name, backbone):
            assert entry.tensor.grad is None, name
        else:  # the head sees the same activations, so its gradient is unchanged
            assert np.array_equal(entry.tensor.grad, trained.registry[name].tensor.grad), name
