import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgjet.detector import (Channel, EtaOutOfRange, bin_hits, crop_jet_window,
                            find_window_center, upsample_hcal, wrap_phi)


def hits(eta, phi, value, channel=Channel.ECAL):
    """The four per-hit arrays ``bin_hits`` takes; a scalar channel applies
    to every hit."""
    eta = np.asarray(eta, dtype=np.float64)
    return (eta, np.asarray(phi, dtype=np.float64), np.asarray(value, dtype=np.float64),
            np.broadcast_to(np.asarray(channel, dtype=np.int64), eta.shape))


class TestBinHits:
    def test_single_ecal_hit(self):
        image = bin_hits(*hits([0.0], [0.0], [2.5]))
        assert image.dtype == np.float32 and image.shape == (3, 280, 360)
        ecal = image[Channel.ECAL]
        assert np.count_nonzero(ecal) == 1
        assert ecal.sum() == pytest.approx(2.5)
        assert image[Channel.TRACK].sum() == 0
        assert image[Channel.HCAL].sum() == 0

    def test_no_hits_bin_to_an_empty_frame(self):
        image = bin_hits(*hits([], [], []))
        assert image.shape == (3, 280, 360) and not image.any()

    def test_same_cell_sums(self):
        image = bin_hits(*hits([0.5, 0.5], [1.0, 1.0], [1.0, 2.0], Channel.TRACK))
        track = image[Channel.TRACK]
        assert track.max() == pytest.approx(3.0)
        assert np.count_nonzero(track) == 1

    def test_conservation_random_ecal(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.1, 5.0, size=100)
        image = bin_hits(*hits(rng.uniform(-2.9, 2.9, size=100), rng.uniform(-3.1, 3.1, size=100),
                               values))
        assert image[Channel.ECAL].sum() == pytest.approx(values.sum(), rel=1e-4)

    def test_conservation_all_channels_native_hcal(self):
        rng = np.random.default_rng(1)
        channels = rng.integers(0, 3, size=300)
        values = rng.uniform(0.01, 10.0, size=300)
        image = bin_hits(*hits(rng.uniform(-2.99, 2.99, size=300),
                               rng.uniform(-math.pi, math.pi, size=300), values, channels))
        for ch in (Channel.TRACK, Channel.ECAL):
            expected = values[channels == ch].sum()
            assert image[ch].sum() == pytest.approx(expected, rel=1e-4)
        expected = values[channels == Channel.HCAL].sum()
        assert image[Channel.HCAL, ::5, ::5].sum() == pytest.approx(expected, rel=1e-4)

    def test_out_of_range_drops_silently(self):
        image = bin_hits(*hits([3.0, -3.5, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]))
        assert image.sum() == pytest.approx(1.0)

    def test_phi_periodicity_bit_identical(self):
        rng = np.random.default_rng(2)
        etas = rng.uniform(-2.5, 2.5, size=50)
        phis = rng.uniform(-3.1, 3.1, size=50)
        vals = rng.uniform(0.1, 4.0, size=50)
        for k in (-2, 1, 3):
            base = bin_hits(*hits(etas, phis, vals))
            shifted = bin_hits(*hits(etas, phis + 2.0 * math.pi * k, vals))
            assert np.array_equal(base, shifted)

    def test_phi_boundary_pi_folds_to_first_bin(self):
        image = bin_hits(*hits([0.0], [math.pi], [1.0]))
        row, col = np.argwhere(image[Channel.ECAL])[0]
        assert col == 0


class TestUpsampleHcal:
    def test_zero(self):
        out = upsample_hcal(np.zeros((56, 72), dtype=np.float32))
        assert out.shape == (280, 360)
        assert not out.any()

    def test_single_tower_block(self):
        native = np.zeros((56, 72), dtype=np.float32)
        native[7, 11] = 7.0
        out = upsample_hcal(native)
        assert np.all(out[35:40, 55:60] == 7.0)
        assert out.sum() == pytest.approx(7.0 * 25)

    def test_block_constancy_oracle(self):
        rng = np.random.default_rng(3)
        native = rng.uniform(0, 5, size=(56, 72)).astype(np.float32)
        out = upsample_hcal(native)
        for i, j in [(0, 0), (10, 20), (55, 71), (31, 44)]:
            block = out[5 * i:5 * i + 5, 5 * j:5 * j + 5]
            assert np.all(block == native[i, j])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            upsample_hcal(np.zeros((55, 72), dtype=np.float32))


def image_with_hcal(native: np.ndarray) -> np.ndarray:
    image = np.zeros((3, 280, 360), dtype=np.float32)
    image[Channel.HCAL] = upsample_hcal(native)
    return image


def exhaustive_center_scan(native, jet_eta, jet_phi):
    """Independent 9x9 argmax with wrap in phi, truncation in eta."""
    trow = min(int((jet_eta + 3.0) / (6.0 / 56.0)), 55)
    tcol = min(int((wrap_phi(jet_phi) + math.pi) / (2.0 * math.pi / 72.0)), 71)
    candidates = []
    for r in range(trow - 4, trow + 5):
        if not 0 <= r < 56:
            continue
        for dc in range(-4, 5):
            c = (tcol + dc) % 72
            candidates.append((r, c, float(native[r, c])))
    best_energy = max(e for _, _, e in candidates)
    if best_energy == 0.0:
        return (5 * trow + 2, 5 * tcol + 2)
    r, c = min((r, c) for r, c, e in candidates if e == best_energy)
    return (5 * r + 2, 5 * c + 2)


class TestFindWindowCenter:
    def test_single_hot_tower(self):
        native = np.zeros((56, 72), dtype=np.float32)
        native[30, 40] = 5.0
        center = find_window_center(image_with_hcal(native), 0.25, 0.55)
        assert center == (5 * 30 + 2, 5 * 40 + 2)

    def test_all_zero_returns_centroid(self):
        native = np.zeros((56, 72), dtype=np.float32)
        center = find_window_center(image_with_hcal(native), 0.0, 0.0)
        trow = int(3.0 / (6.0 / 56.0))
        tcol = int(math.pi / (2 * math.pi / 72.0))
        assert center == (5 * trow + 2, 5 * tcol + 2)

    def test_tie_smaller_row_wins(self):
        native = np.zeros((56, 72), dtype=np.float32)
        trow = int(3.0 / (6.0 / 56.0))
        tcol = int(math.pi / (2 * math.pi / 72.0))
        native[trow - 2, tcol] = 4.0
        native[trow + 1, tcol] = 4.0
        center = find_window_center(image_with_hcal(native), 0.0, 0.0)
        assert center == (5 * (trow - 2) + 2, 5 * tcol + 2)

    def test_matches_exhaustive_scan_on_random_grids(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            native = rng.uniform(0, 3, size=(56, 72)).astype(np.float32)
            # sprinkle ties to stress the tie-break
            native[native < 0.5] = 0.0
            native[native > 2.5] = 3.0
            jet_eta = rng.uniform(-1.7, 1.7)
            jet_phi = rng.uniform(-math.pi, math.pi)
            image = image_with_hcal(native)
            assert find_window_center(image, jet_eta, jet_phi) == \
                exhaustive_center_scan(native, jet_eta, jet_phi)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(5)
        native = rng.uniform(0, 3, size=(56, 72)).astype(np.float32)
        image = image_with_hcal(native)
        scaled = image_with_hcal(native * 17.5)
        for jet_eta, jet_phi in [(0.0, 0.0), (1.2, -2.0), (-1.5, 3.0)]:
            assert find_window_center(image, jet_eta, jet_phi) == \
                find_window_center(scaled, jet_eta, jet_phi)


class TestCropJetWindow:
    def _random_image(self, seed=6):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 2, size=(3, 280, 360)).astype(np.float32)

    def test_wrap_at_column_zero(self):
        image = self._random_image()
        window = crop_jet_window(image, (140, 0))
        expected_cols = list(range(298, 360)) + list(range(0, 63))
        assert np.array_equal(window.data, image[:, 78:203, :][:, :, expected_cols])

    def test_eta_boundary(self):
        image = self._random_image()
        with pytest.raises(EtaOutOfRange):
            crop_jet_window(image, (61, 100))
        with pytest.raises(EtaOutOfRange):
            crop_jet_window(image, (218, 100))
        for ok in (62, 217):
            assert crop_jet_window(image, (ok, 100)).data.shape == (3, 125, 125)

    def test_wraparound_equals_tiled_oracle(self):
        image = self._random_image(seed=7)
        tiled = np.concatenate([image, image], axis=2)
        for center_col in (0, 5, 355, 359, 180):
            window = crop_jet_window(image, (140, center_col))
            start = (center_col - 62) % 360
            oracle = tiled[:, 78:203, start:start + 125]
            assert np.array_equal(window.data, oracle)

    def test_seam_deposit_conserved(self):
        image = np.zeros((3, 280, 360), dtype=np.float32)
        image[Channel.ECAL, 140, 359] = 4.25
        image[Channel.ECAL, 140, 0] = 1.75
        window = crop_jet_window(image, (140, 0))
        assert window.data[Channel.ECAL].sum() == pytest.approx(6.0)

    def test_window_never_exceeds_image_energy(self):
        image = self._random_image(seed=8)
        window = crop_jet_window(image, (100, 42))
        for ch in range(3):
            assert window.data[ch].sum() <= image[ch].sum() + 1e-3


@settings(max_examples=30, deadline=None)
@given(st.floats(-40.0, 40.0))
def test_wrap_phi_range(phi):
    w = wrap_phi(phi)
    assert -math.pi <= w < math.pi
