import pytest

from qgjet.models import ConvConfig, ViTConfig, build_model
from qgjet.rng import stream
from qgjet.train import HEAD_GROUP, UNFROZEN_GROUP, TrainConfig, apply_unfreeze_schedule

SCHEDULE = ((1, 1), (3, 2))  # epoch 1: last block, epoch 3: last two blocks


def _under(name, prefixes):
    return any(name == p or name.startswith(p + ".") for p in prefixes)


@pytest.mark.parametrize("kind", ("vit", "conv", "hybrid3"))
def test_staged_unfreeze_schedule(kind):
    model = build_model(kind, 32, stream(0, "init"), vit_cfg=ViTConfig(embed_dim=16, depth=3, heads=2),
                        conv_cfg=ConvConfig(widths=(4, 8, 8)))
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
            assert entry.trainable == (head or _under(name, opened)), (epoch, name)
            assert entry.group == (HEAD_GROUP if head or not entry.trainable else UNFROZEN_GROUP)
            expected += entry.tensor.size if entry.trainable else 0
        assert registry.n_trainable() == expected
        counts.append(expected)
    assert counts[0] < counts[1] == counts[2] < counts[3] == counts[4] < registry.n_total()
