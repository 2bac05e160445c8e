"""Golden locks on the augmentation chain and on the CLI pipeline.

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


# ---------------------------------------------------------------------------
# Golden lock on the CLI pipeline: synth -> train -> eval, and a sweep.
#
# Each command runs in a child process under QGJET_DETERMINISTIC=1, so every
# numeric library is pinned to one thread before numpy loads. The digests
# below cover checkpoints, run_config.txt, the CSVs with their wall-clock
# cells blanked, and the lines ``eval`` prints. They were recorded before the
# run harness was merged into one settings resolver, seed loop, freezing
# routine and results row; a refactor must leave every one unchanged. The
# run_config.txt digests alone were re-recorded when three unused training
# switches (per-step head annealing, unfrozen-rate annealing and the mixup
# override) were deleted: each is the digest of the earlier file with exactly
# those three lines removed. They were re-recorded once more when the
# ``aug.color_jitter`` and ``aug.imagenet_normalize`` lines left the file, in
# the same way: each is the earlier file's digest with exactly those two lines
# removed.

CLI_CONFIG = """\
# staged unfreezing over two short epochs
max_epochs = 2
staged_unfreezing = true
unfreeze_schedule = 0:1,1:2
aug.out_size = 32
model.vit.embed_dim = 32  # int field
"""
CLI_OVERRIDES = ("model.conv.widths=8,16", "model.hybrid.dropout=0.25")
TIMING_CELLS = ("seconds", "TrainTime", "InferenceMs")

CLI_DIGESTS = {
    "conv": {
        "eval_seed1": "cdad72aa04325385dc530d1a336cf4193701a8163e093c7f3002fc57cafe8b0e",
        "eval_seed2": "3bd5aa956b9dcdd986124a89db2788260976c18929fdaabd146a229a634cdda2",
        "metrics.csv": "1cce1fc899d2498bd84a06f02352bf87e3a46aec26b8d4aed2df82bc43553529",
        "model_seed1.ckpt": "8a75836ec5e53649d69591e0d131ef35f158bf127cdd66c8fc321f9d61360bb5",
        "model_seed2.ckpt": "c0dc3667a9749f1439d5095d97f36e8205e7f4f7bd33cd03e053400adbac4aa6",
        "run_config.txt": "5d6ce67ab874a8e462bc4407fc9a0dc4649ad1d772354fe4aa7dbb0640055460",
        "run_seed1.csv": "b9f2cabed4ade209859fdfcefd5fa783d837b10344c1666b798f7d2679d83670",
        "run_seed2.csv": "01f2b037d32cc5c8aa00030919475285cf08ecccd8572b84bd83620d0d3b6479",
    },
    "vit": {
        "eval_seed1": "a7d19312899d90f1d0006525c6c86027cae58902111771b5c09215de99b7671c",
        "eval_seed2": "8a4341fd1d6e5c42db4515c9e61a93c550b1224a45b7d85f930ed20de96fab97",
        "metrics.csv": "bdb55e0e1b48a297facec377e413fef07bf29ac70c041ea3b261fd47099034f1",
        "model_seed1.ckpt": "2e3c8199136f8026ab5318db7c506b17c96a84bb7b67091c6591a8c477e9d4e5",
        "model_seed2.ckpt": "7192833fc6fe8b9c98447b076bc71e4ea85342abc064da36774f17d911e0e7ab",
        "run_config.txt": "c2682a8091ec88cfd9baa939282eb65c5cebd5931b9bd439af2237351e8639dc",
        "run_seed1.csv": "e40b2b3da6099c885bc0a98a0fc1dcc4aece9ed0ba41ad1bfe4376a7ed502963",
        "run_seed2.csv": "5fdacd1408678e2fcd6930b82ba6dffcd8a563ce308bbc5a99343ce7a8cbdef2",
    },
    "hybrid2": {
        "eval_seed1": "8fb88a16ba1fb8652b24eb0612d96076b9324775501698a38379e6df6f173b7f",
        "eval_seed2": "1a467d64e0171360713f633628dce3c8f0862030ff46b47da1c52be1e9fe3368",
        "metrics.csv": "9807a266518f123719c744c5d9959e0c5e7b741a7637357995beaf90d8b2b175",
        "model_seed1.ckpt": "f7cd85593297ea648b65bac63ecae739848ea0b7ef0dba3130f3e98b56c798e1",
        "model_seed2.ckpt": "2be17d318a82876e61027f027903a9b8d50e441fb3a7a5a119f0d91e870b9cd0",
        "run_config.txt": "50a54a32e4a5986130f16b1fcf31c307dda29d102d3120da143762a40965f4cd",
        "run_seed1.csv": "4f3237bf7006a48263358a83bdd451d450935454c75d1e0452dcf6800b2a7979",
        "run_seed2.csv": "d30e9d7c62699ecbe0856eee235bd753b3e68115fb2f14c63e949a70dccdfd2b",
    },
}
SWEEP_DIGEST = "fa969754013489f34fa306c2f55f946c2f049f00b67a9a2cd5ba9d756301c305"


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
