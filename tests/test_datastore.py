import struct

import numpy as np
import pytest

from qgjet.datastore import (BadMagic, DataFormatError, SizeMismatch, UnsupportedVersion,
                             read_checkpoint, read_dataset, read_stats, write_checkpoint,
                             write_dataset, write_stats)
from qgjet.detector import JetWindow
from qgjet.preprocess import ChannelStats


def small_windows():
    """Two windows of a small [3,2,3] shape keep every-byte truncation cheap."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(2, 3, 2, 3)).astype(np.float32)
    data[0, 1, 0, 2] = -0.0
    data[1, 2, 1, 1] = np.finfo(np.float32).tiny
    return [JetWindow(data[0], label=1), JetWindow(data[1], label=0)]


def small_params():
    rng = np.random.default_rng(1)
    return {"blocks.0.w": rng.normal(size=(2, 3)).astype(np.float32),
            "b": np.float32(0.5) * np.ones(3, dtype=np.float32),
            "scale": np.array(2.0, dtype=np.float32)}  # rank 0


@pytest.fixture
def dataset_bytes(tmp_path):
    path = tmp_path / "d.jqg"
    write_dataset(path, small_windows())
    return path.read_bytes()


@pytest.fixture
def checkpoint_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, small_params())
    return path.read_bytes()


READERS = {"dataset": read_dataset, "checkpoint": read_checkpoint}


def _read(kind, tmp_path, raw):
    path = tmp_path / f"cut.{kind}"
    path.write_bytes(raw)
    return READERS[kind](path)


class TestRoundTrip:
    def test_dataset(self, tmp_path):
        windows = small_windows()
        write_dataset(tmp_path / "d.jqg", windows)
        back = read_dataset(tmp_path / "d.jqg")
        assert [w.label for w in back] == [w.label for w in windows]
        for a, b in zip(back, windows):
            assert a.data.dtype == np.float32 and a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes()  # -0.0 and subnormals survive

    def test_empty_dataset(self, tmp_path):
        write_dataset(tmp_path / "e.jqg", [])
        assert read_dataset(tmp_path / "e.jqg") == []

    def test_checkpoint(self, tmp_path):
        params = small_params()
        write_checkpoint(tmp_path / "m.ckpt", params)
        back = read_checkpoint(tmp_path / "m.ckpt")
        assert list(back) == list(params)
        for name, arr in params.items():
            assert back[name].dtype == np.float32 and back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()

    def test_stats(self, tmp_path):
        stats = ChannelStats(mu=np.array([0.1, 1 / 3, 2e-9]),
                             sigma=np.array([np.pi, 1e5, 7.0]), n_pixels=12)
        write_stats(tmp_path / "s.txt", stats)
        back = read_stats(tmp_path / "s.txt")
        assert back.mu.tobytes() == stats.mu.tobytes()
        assert back.sigma.tobytes() == stats.sigma.tobytes()


class TestRejectedValues:
    @pytest.mark.parametrize("sample", (0, 1))
    @pytest.mark.parametrize("label", (2, 255))
    def test_label_byte_other_than_0_or_1(self, tmp_path, dataset_bytes, sample, label):
        raw = bytearray(dataset_bytes)
        header = struct.calcsize("<4sHIHHB")
        raw[header + sample * (1 + 4 * 3 * 2 * 3)] = label  # label byte, then [3,2,3] float32
        path = tmp_path / "bad_label.jqg"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError) as exc:
            read_dataset(path)
        assert str(path) in str(exc.value) and f"sample {sample}" in str(exc.value)

    @pytest.mark.parametrize("text", (
        "mu: 0 0 0\nsigma: 0 0 0\n", "mu: 0 0 0\nsigma: 1 -1 1\n",
        "mu: nan 0 0\nsigma: 1 1 1\n", "mu: 0 0 0\nsigma: 1 inf 1\n",
        "mu: -inf 0 0\nsigma: 1 1 1\n", "mu: 0 0 0\nsigma: 1 1 nan\n"))
    def test_stats_must_be_finite_with_positive_sigma(self, tmp_path, text):
        path = tmp_path / "s.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            read_stats(path)
        assert str(path) in str(exc.value)


@pytest.mark.parametrize("kind", ("dataset", "checkpoint"))
class TestCorruptFiles:
    def _raw(self, kind, dataset_bytes, checkpoint_bytes):
        return dataset_bytes if kind == "dataset" else checkpoint_bytes

    def test_every_truncation_is_a_size_mismatch(self, kind, tmp_path, dataset_bytes,
                                                 checkpoint_bytes):
        raw = self._raw(kind, dataset_bytes, checkpoint_bytes)
        for cut in range(len(raw)):
            with pytest.raises(SizeMismatch):
                _read(kind, tmp_path, raw[:cut])

    def test_trailing_byte_is_a_size_mismatch(self, kind, tmp_path, dataset_bytes,
                                              checkpoint_bytes):
        raw = self._raw(kind, dataset_bytes, checkpoint_bytes)
        with pytest.raises(SizeMismatch):
            _read(kind, tmp_path, raw + b"\x00")

    def test_bad_magic(self, kind, tmp_path, dataset_bytes, checkpoint_bytes):
        raw = self._raw(kind, dataset_bytes, checkpoint_bytes)
        with pytest.raises(BadMagic):
            _read(kind, tmp_path, b"XXXX" + raw[4:])

    def test_unsupported_version(self, kind, tmp_path, dataset_bytes, checkpoint_bytes):
        raw = self._raw(kind, dataset_bytes, checkpoint_bytes)
        with pytest.raises(UnsupportedVersion):
            _read(kind, tmp_path, raw[:4] + struct.pack("<H", 2) + raw[6:])
