"""Golden locks on the generated windows, the augmentation chain and the
CLI pipeline.

The augmentation sha256 digests below were recorded from the dense reference
implementation of ``qgjet.augment`` (numpy 2.4, OpenBLAS, one BLAS thread).
Any change to the augmentation code must leave every output bit unchanged;
a digest that moves means a changed output, not a tolerance to widen.
"""
import csv
import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import qgjet
from qgjet.augment import AugmentConfig, train_transform, validation_transform
from qgjet.preprocess import compute_channel_stats, preprocess_window
from qgjet.rng import stream
from qgjet.synth import generate_dataset, preset

SEED = 5
EPOCHS = (0, 1)

TRAIN_DIGESTS = {
    # (preset, imagenet_normalize, color_jitter): sha256 over epochs x windows.
    # Colour jitter always runs, so only its recorded-on digests remain.
    ("paperlike", False, True): "c176d9b5cd694b738b86fcd4d2f93011d90a3e9a7c79cf5479bdf67759b81bc3",
    ("paperlike", True, True): "dba7039e65d3344cd0cab16806acd1283857fc3ba48349d85ff6463c85a013bd",
    ("easy", False, True): "078c938080a1d7daa117b56b6d41a208ba074895db891bb1d961653b8ef0e637",
    ("easy", True, True): "d6e33dfdb5fa1bac8265803392d2843f5453e1d4dcbc83944d22dc0aa07d061e",
    ("hard", False, True): "1a05fbf922d2842cb06d42afdda7454a311d9ee5a600c805a44b812a82cf0089",
    ("hard", True, True): "41f9fffe7c3699a263b59ab184dfd8dc5f800a501376b2e0ba95e1a91abb4251",
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
@pytest.mark.parametrize("jitter", (True,))
def test_train_transform_golden(preset_windows, normalize, jitter):
    name, windows, stats = preset_windows
    config = replace(AugmentConfig(), imagenet_normalize=normalize)
    assert train_digest(windows, stats, config) == TRAIN_DIGESTS[(name, normalize, jitter)]


@pytest.mark.parametrize("normalize", (False, True))
def test_validation_transform_golden(preset_windows, normalize):
    name, windows, stats = preset_windows
    config = replace(AugmentConfig(), imagenet_normalize=normalize)
    assert validation_digest(windows, stats, config) == VALIDATION_DIGESTS[(name, normalize)]


# Golden lock on the windows themselves: each digest is the sha256 over
# ``generate_dataset``'s output, one label byte then the window's
# little-endian float32 bytes per window. A change to synthesis, binning,
# centring or cropping must leave every byte unchanged.

WINDOW_DIGESTS = {
    # (preset, seed, jet_eta_range or None for the preset's own): sha256
    ("easy", 1, None): "d3f6ee28be27a4d2b83848f52f18b40169dd083e45b956d9d9816a7abb23ee61",
    ("paperlike", 1, None): "7c3cf668433b55dcd9e063f428365293435c44a6819cd1e3b5cd020d4c731554",
    ("hard", 1, None): "2fb7b68f2f9152cf9d3d5391e5292881d59edfc7c54b3a049915888221778eac",
    # wide enough that some windows cannot fit and are resampled
    ("easy", 2, (-1.79, 1.79)): "a19208b3f09f5266d826b55cbb97ece8716e705d0e19d1439d0f3a85e1ed5b32",
}
WINDOWS_PER_CLASS = 32


@pytest.mark.parametrize("name, seed, eta_range", sorted(WINDOW_DIGESTS, key=str))
def test_generated_windows_golden(name, seed, eta_range):
    config = preset(name, seed=seed)
    if eta_range is not None:
        config = replace(config, jet_eta_range=eta_range)
    h = hashlib.sha256()
    for w in generate_dataset(config, WINDOWS_PER_CLASS):
        h.update(bytes([w.label]))
        h.update(w.data.astype("<f4").tobytes())
    assert h.hexdigest() == WINDOW_DIGESTS[(name, seed, eta_range)]


# ---------------------------------------------------------------------------
# Golden lock on the CLI pipeline: synth -> train -> eval, and a sweep.
#
# Each command runs in a child process under QGJET_DETERMINISTIC=1, so every
# numeric library is pinned to one thread before numpy loads. The digests
# below cover checkpoints, run_config.txt, the CSVs with their wall-clock
# cells blanked, and the lines ``eval`` prints; a refactor must leave every
# one unchanged. They were recorded beside an earlier staged-unfreezing set,
# with the same pipeline and sweep, before staged unfreezing was deleted.
# The deletion moved only the run_config.txt and run_seed<N>.csv digests:
# each is the digest of the earlier file with exactly the unfrozen_lr,
# unfreeze_schedule and staged_unfreezing lines removed, or exactly the
# lr_unfrozen and trainable_params columns. Keeping the attention scale in
# the model's dtype, so the vit and hybrid2 attention runs in float32, moved
# only the vit and hybrid2 model_seed<N>.ckpt digests. Computing GELU's
# cube as a product rounds some values in the last bit, which moved the
# same digests again, except vit's model_seed2.ckpt.

CLI_CONFIG = """\
# two short epochs, every parameter trained from the first step
max_epochs = 2
aug.out_size = 32
model.vit.embed_dim = 32  # int field
"""
CLI_OVERRIDES = ("model.conv.widths=8,16", "model.hybrid.dropout=0.25")
TIMING_CELLS = ("seconds", "TrainTime", "InferenceMs")

CLI_DIGESTS = {
    "conv": {
        "eval_seed1": "442d1d724d28b1582f8cf532a63619db7d78099fc87826567bc8072d567b4d0f",
        "eval_seed2": "2e427aac2cf0bce9dc1ea3d79ee6b80c3aea7ba97912000fc10427a2cba3a57e",
        "metrics.csv": "ef049be313740442b58977137484b2db9a3a141a64d50b28e6f7767f4a695f25",
        "model_seed1.ckpt": "2b4e0b949c8394c43fe9e4dfb2d0bf5031416e390d96df6a639ff0def7de0aee",
        "model_seed2.ckpt": "10e8779ccf7b72d083cc56371911d6842cdbd4c8fff967d30174951ab720ea03",
        "run_config.txt": "40e0de34ba2142208096c9658ef6032401f45de85d0a58a62c6dbb10b129ec1c",
        "run_seed1.csv": "977e95a9e45db113f8e751dcbed1712032a09b3979ff7842f0717ff988d28320",
        "run_seed2.csv": "4c3b7be38957c2eec0b4003fffe2df8926e7120a834bc935580b4eef5de43fe8",
    },
    "vit": {
        "eval_seed1": "54ba5b6c72911350273d9945de0bce98c7167f149c1b049d7ff2f3b55bbaf765",
        "eval_seed2": "023f45662f887e6f13221a6f048de94cd8766e9e450beb27ab7fd091746dab6a",
        "metrics.csv": "f804810eb5393b3a167ac3c33130ce3f2019ebc1b5b28d7bd993aff76399178f",
        "model_seed1.ckpt": "01d848e43a6caed201269fe31c7328f8d94e888bd939cc200c741ae747ea9795",
        "model_seed2.ckpt": "2679f548424bd9c37340a2fb0405ccf3acbecaca2c3f78d3c87d5a8bec3ade4a",
        "run_config.txt": "dc9dfc33a281bc57bba098b96e347fcea5e2b37d4aa73b337f3e1f611c5cdc7d",
        "run_seed1.csv": "a6615df94d2d3ea791ccad3234eeab2548e88e6ef3794665abe6fa94488d1758",
        "run_seed2.csv": "975be3c70f8fccca89b88429842740c447418201d6fd5b3ffdd203921c95b5b5",
    },
    "hybrid2": {
        "eval_seed1": "d082bd74beb23df8933338c98af81f985aae8a42c3169c3199310edbd8f7d7c0",
        "eval_seed2": "2b0c97b04aae68565ce4255de4e986aaaceaaf669b35bb2ddd0c3ab87bc34f58",
        "metrics.csv": "c4a878e0469479c59b434c6373de9c7ecb35ce2b53debbfca89529f9d811546f",
        "model_seed1.ckpt": "1b24d9709d313d0fdb458072b07ed8daf2b281de68169010b23857e8d7f4b46b",
        "model_seed2.ckpt": "2c724e603b6eeea44d099bf04ea20b76f3111a182dc3d04ad88a53d121a9b4a6",
        "run_config.txt": "dc005207d5a3a1f2445a68a978493df7c061ef40c33c5b9c3dd1e815d2bd932e",
        "run_seed1.csv": "f4d47d05c26f73e28629f677c9e17daeeffb4d56ca5ab8550c13f120c525564b",
        "run_seed2.csv": "2263a3e2f7c1078bffd59a0e971d902ba4c63cbd04cc6fbc4d8ba9447b559544",
    },
}
SWEEP_DIGEST = "eade6a7ba88b8c579994512f21fe6be013cd9abfc3e4a95ce7a9f16417eedf5c"


def _qgjet(*args) -> str:
    src = str(Path(qgjet.__file__).resolve().parent.parent)
    env = dict(os.environ, QGJET_DETERMINISTIC="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "qgjet", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_digest(path) -> str:
    """sha256 of a CSV with its wall-clock cells blanked."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    timed = {i for i, name in enumerate(rows[0]) if name in TIMING_CELLS}
    lines = []
    for row in rows:
        cells = ["" if i in timed else cell for i, cell in enumerate(row)]
        if "train_seconds" in cells:  # the per-seed summary row
            cells[cells.index("train_seconds") + 1] = ""
        lines.append(",".join(cells))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_data")
    _qgjet("synth", "--preset", "easy", "--n", 8, "--seed", 1, "--out", d / "train.jqg")
    _qgjet("synth", "--preset", "easy", "--n", 8, "--seed", 2, "--out", d / "val.jqg")
    (d / "run.cfg").write_text(CLI_CONFIG)
    return d


def _set_args():
    return [arg for item in CLI_OVERRIDES for arg in ("--set", item)]


@pytest.mark.parametrize("kind", sorted(CLI_DIGESTS))
def test_cli_pipeline_golden(cli_data, tmp_path, kind):
    out = tmp_path / kind
    _qgjet("train", "--data", cli_data, "--model", kind, "--config", cli_data / "run.cfg",
           "--set", "seeds=1,2", "--out", out, *_set_args())
    got = {"run_config.txt": _file_digest(out / "run_config.txt"),
           "metrics.csv": _csv_digest(out / "metrics.csv")}
    for seed in (1, 2):
        got[f"model_seed{seed}.ckpt"] = _file_digest(out / f"model_seed{seed}.ckpt")
        got[f"run_seed{seed}.csv"] = _csv_digest(out / f"run_seed{seed}.csv")
        printed = _qgjet("eval", "--checkpoint", out / f"model_seed{seed}.ckpt",
                         "--data", cli_data / "val.jqg")
        got[f"eval_seed{seed}"] = hashlib.sha256(printed.encode()).hexdigest()
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["stats.txt", "run_config.txt", "metrics.csv", "model_seed1.ckpt", "model_seed2.ckpt",
         "run_seed1.csv", "run_seed2.csv"])
    assert got == CLI_DIGESTS[kind]


def test_cli_sweep_golden(cli_data, tmp_path):
    # recorded when a sweep fitted only its first seed; seeds=1 is that run
    _qgjet("sweep", "--axis", "dropout", "--values", "0.0,0.5", "--data", cli_data,
           "--model", "hybrid2", "--config", cli_data / "run.cfg", "--out", tmp_path,
           "--set", "max_epochs=1", "--set", "seeds=1", *_set_args())
    assert _csv_digest(tmp_path / "sweep_dropout.csv") == SWEEP_DIGEST
