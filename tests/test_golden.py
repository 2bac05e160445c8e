"""Golden lock on the augmentation chain.

The sha256 digests below were recorded from the dense reference
implementation of ``qgjet.augment`` (numpy 2.4, OpenBLAS, one BLAS thread).
Any change to the augmentation code must leave every output bit unchanged;
a digest that moves means a changed output, not a tolerance to widen.
"""
import hashlib
from dataclasses import replace

import pytest

from qgjet.augment import AugmentConfig, train_transform, validation_transform
from qgjet.preprocess import compute_channel_stats, preprocess_window
from qgjet.rng import stream
from qgjet.synth import generate_dataset, preset

SEED = 5
EPOCHS = (0, 1)

TRAIN_DIGESTS = {
    # (preset, imagenet_normalize, color_jitter): sha256 over epochs x windows
    ("paperlike", False, True): "c176d9b5cd694b738b86fcd4d2f93011d90a3e9a7c79cf5479bdf67759b81bc3",
    ("paperlike", False, False): "5ead09e4e6430ffcbd74a2d2fd32342a1ca94f577f48f39f478f08d94d81b8ef",
    ("paperlike", True, True): "dba7039e65d3344cd0cab16806acd1283857fc3ba48349d85ff6463c85a013bd",
    ("paperlike", True, False): "d03ca25d44a6e4459d670fcb722a018c5508a46e4b8376cd4d8f4c2b48e70043",
    ("easy", False, True): "078c938080a1d7daa117b56b6d41a208ba074895db891bb1d961653b8ef0e637",
    ("easy", False, False): "f703230108e703cae27f82f7945b120e6937281cce21a9b06121960ab997f13c",
    ("easy", True, True): "d6e33dfdb5fa1bac8265803392d2843f5453e1d4dcbc83944d22dc0aa07d061e",
    ("easy", True, False): "fe86e45e443bb2b1a88edd6534419cf19956e924c8e1f701a16170ce66efb068",
    ("hard", False, True): "1a05fbf922d2842cb06d42afdda7454a311d9ee5a600c805a44b812a82cf0089",
    ("hard", False, False): "a5941d165d4ba6a75890ce2714243f10dbedb03b80ff573b3c31159ebed8a97c",
    ("hard", True, True): "41f9fffe7c3699a263b59ab184dfd8dc5f800a501376b2e0ba95e1a91abb4251",
    ("hard", True, False): "f7b835dd62e3900cbd96e4936ff5d3895d7533a2f19d039c105ea13f09e3fcb0",
}

VALIDATION_DIGESTS = {
    # (preset, imagenet_normalize): sha256 over windows
    ("paperlike", False): "5d6cf46444f06cd126938a4f9ec124136a30dcf7a3d1cf094a35d5117e762c34",
    ("paperlike", True): "fcda8c3d48662bbc6e6c0c31919a1c83fc5a3204616bbbb60ccdc0fa0e004982",
    ("easy", False): "ec01234919bb923a882f20585fa41e8d0840810e0c466aadf3406b205a985785",
    ("easy", True): "df62e3faed55a687de00aa36ab15a69c07a11378a400e8e25d67b011ed75388d",
    ("hard", False): "61e1f66c0bfe9d002885f41314c3729c012037c9d94e3e57e401aea92e6f4e1a",
    ("hard", True): "4b40bb6a0b0835cf032fd72cec7a00c56d8d7559acf21385bb8aacf5164502f8",
}


@pytest.fixture(scope="module", params=("paperlike", "easy", "hard"))
def preset_windows(request):
    windows = generate_dataset(preset(request.param, seed=SEED), 2)
    stats = compute_channel_stats(windows)
    return request.param, windows, stats


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def train_digest(windows, stats, config: AugmentConfig) -> str:
    pre = [preprocess_window(w, stats) for w in windows]
    return _digest(train_transform(p, config, stream(SEED, "aug", epoch, i))
                   for epoch in EPOCHS for i, p in enumerate(pre))


def validation_digest(windows, stats, config: AugmentConfig) -> str:
    return _digest(validation_transform(w, stats, config) for w in windows)


@pytest.mark.parametrize("normalize", (False, True))
@pytest.mark.parametrize("jitter", (True, False))
def test_train_transform_golden(preset_windows, normalize, jitter):
    name, windows, stats = preset_windows
    config = replace(AugmentConfig(), imagenet_normalize=normalize, color_jitter=jitter)
    assert train_digest(windows, stats, config) == TRAIN_DIGESTS[(name, normalize, jitter)]


@pytest.mark.parametrize("normalize", (False, True))
def test_validation_transform_golden(preset_windows, normalize):
    name, windows, stats = preset_windows
    config = replace(AugmentConfig(), imagenet_normalize=normalize)
    assert validation_digest(windows, stats, config) == VALIDATION_DIGESTS[(name, normalize)]
