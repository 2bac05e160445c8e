import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_jet_window
from qgjet.detector import (Channel, EtaOutOfRange, bin_hits, crop_jet_window,
                            find_window_center, wrap_phi)


def hits(eta, phi, value, channel=Channel.ECAL):
    """The four per-hit arrays ``bin_hits`` takes; a scalar channel applies
    to every hit."""
    eta = np.asarray(eta, dtype=np.float64)
    return (eta, np.asarray(phi, dtype=np.float64), np.asarray(value, dtype=np.float64),
            np.broadcast_to(np.asarray(channel, dtype=np.int64), eta.shape))


def window_of(event, center):
    """The window ``crop_jet_window`` bins around ``center`` from the event's
    hits and its own towers."""
    return crop_jet_window(*event, bin_hits(*event), center).data


def cell_hits(grid):
    """One hit at the centre of every non-zero fine cell of a [2, 280, 360]
    TRACK/ECAL grid, carrying the cell's value."""
    ch, r, c = np.nonzero(grid)
    return hits(-3.0 + (r + 0.5) * (6.0 / 280), -math.pi + (c + 0.5) * (2 * math.pi / 360),
                grid[ch, r, c], ch)


def random_event(rng):
    """Hits and a jet axis that stress the binning: |eta| >= 3 drops, phi
    far outside [-pi, pi), the seam and the +pi fold, the eta edges, cells
    and towers hit more than once, and empty and HCAL-only events."""
    kind = rng.integers(6)
    n = 0 if kind == 0 else int(rng.integers(1, 80))
    jet_eta = float(rng.uniform(-2.99, 2.99))
    jet_phi = float(rng.uniform(-4.0, 4.0))
    eta = np.where(rng.random(n) < 0.7, jet_eta + rng.normal(0.0, 0.3, n),
                   rng.uniform(-3.4, 3.4, n))
    phi = np.where(rng.random(n) < 0.7, jet_phi + rng.normal(0.0, 0.3, n),
                   rng.uniform(-7.0, 7.0, n))
    special = rng.random(n) < 0.1
    eta[special] = rng.choice([-3.0, 3.0, -2.999, 2.999, -1.665, 1.65], size=int(special.sum()))
    special = rng.random(n) < 0.1
    phi[special] = rng.choice([-math.pi, math.pi, 3 * math.pi, np.nextafter(math.pi, 0.0)],
                              size=int(special.sum()))
    channel = np.full(n, Channel.HCAL) if kind == 1 else rng.integers(0, 3, n)
    # up to three hits in the same place, each with a value of its own, so
    # cells and towers sum several values in hit order
    repeat = rng.integers(1, 4, n)
    eta, phi, channel = (np.repeat(a, repeat) for a in (eta, phi, channel))
    return (eta, phi, rng.uniform(0.01, 50.0, eta.size), channel), jet_eta, jet_phi


def assert_matches_dense(event, jet_eta, jet_phi, center=None):
    towers_ref, center_ref, window_ref = dense_jet_window(*event, jet_eta, jet_phi, center)
    towers = bin_hits(*event)
    assert towers.dtype == np.float32 and towers.shape == (56, 72)
    assert towers.tobytes() == towers_ref.tobytes()
    if center is None:
        center = find_window_center(towers, jet_eta, jet_phi)
        assert center == center_ref
    if window_ref is None:
        with pytest.raises(EtaOutOfRange):
            crop_jet_window(*event, towers, center)
    else:
        window = crop_jet_window(*event, towers, center).data
        assert window.dtype == np.float32 and window.flags.c_contiguous
        assert window.tobytes() == np.ascontiguousarray(window_ref).tobytes()


class TestBinHits:
    def test_single_ecal_hit(self):
        event = hits([0.0], [0.0], [2.5])
        towers = bin_hits(*event)
        assert towers.dtype == np.float32 and towers.shape == (56, 72) and not towers.any()
        window = window_of(event, (140, 180))
        assert np.count_nonzero(window[Channel.ECAL]) == 1
        assert window[Channel.ECAL].sum() == pytest.approx(2.5)
        assert window[Channel.TRACK].sum() == 0
        assert window[Channel.HCAL].sum() == 0

    def test_no_hits_bin_to_an_empty_frame(self):
        event = hits([], [], [])
        assert bin_hits(*event).shape == (56, 72) and not bin_hits(*event).any()
        assert not window_of(event, (140, 180)).any()
        assert_matches_dense(event, 0.0, 0.0)

    def test_same_cell_sums(self):
        event = hits([0.5, 0.5], [1.0, 1.0], [1.0, 2.0], Channel.TRACK)
        track = window_of(event, (140, 180))[Channel.TRACK]
        assert track.max() == pytest.approx(3.0)
        assert np.count_nonzero(track) == 1
        towers = bin_hits(*hits([0.5, 0.5], [1.0, 1.0], [1.0, 2.0], Channel.HCAL))
        assert towers.max() == 3.0 and np.count_nonzero(towers) == 1

    def test_conservation_random_ecal(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.1, 5.0, size=100)
        # every hit lands inside the window around the grid centre
        event = hits(rng.uniform(-1.3, 1.3, size=100), rng.uniform(-1.05, 1.05, size=100), values)
        window = window_of(event, (140, 180))
        assert window[Channel.ECAL].sum() == pytest.approx(values.sum(), rel=1e-4)

    def test_conservation_all_channels_native_hcal(self):
        rng = np.random.default_rng(1)
        channels = rng.integers(0, 3, size=300)
        values = rng.uniform(0.01, 10.0, size=300)
        event = hits(rng.uniform(-2.99, 2.99, size=300), rng.uniform(-math.pi, math.pi, size=300),
                     values, channels)
        expected = values[channels == Channel.HCAL].sum()
        assert bin_hits(*event).sum() == pytest.approx(expected, rel=1e-4)
        inside = (np.abs(event[0]) < 1.3) & (np.abs(event[1]) < 1.05)  # the window at (140, 180)
        window = window_of(tuple(a[inside] for a in event), (140, 180))
        for ch in (Channel.TRACK, Channel.ECAL):
            expected = values[inside & (channels == ch)].sum()
            assert window[ch].sum() == pytest.approx(expected, rel=1e-4)

    def test_out_of_range_drops_silently(self):
        for ch in Channel:
            event = hits([3.0, -3.5, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], ch)
            assert bin_hits(*event).sum() == (1.0 if ch == Channel.HCAL else 0.0)
            # this window reaches the top row, 279, where eta 3.0 would land
            assert window_of(event, (217, 180))[ch].sum() == 0.0
            assert_matches_dense(event, 0.0, 0.0)

    def test_phi_periodicity_bit_identical(self):
        rng = np.random.default_rng(2)
        etas = rng.uniform(-2.5, 2.5, size=50)
        phis = rng.uniform(-3.1, 3.1, size=50)
        vals = rng.uniform(0.1, 4.0, size=50)
        channels = rng.integers(0, 3, size=50)
        base = hits(etas, phis, vals, channels)
        for k in (-2, 1, 3):
            shifted = hits(etas, phis + 2.0 * math.pi * k, vals, channels)
            assert np.array_equal(bin_hits(*base), bin_hits(*shifted))
            for center in ((140, 0), (100, 200)):
                assert np.array_equal(window_of(base, center), window_of(shifted, center))

    def test_phi_boundary_pi_folds_to_first_bin(self):
        assert np.argwhere(bin_hits(*hits([0.0], [math.pi], [1.0], Channel.HCAL)))[0][1] == 0
        window = window_of(hits([0.0], [math.pi], [1.0]), (140, 62))
        row, col = np.argwhere(window[Channel.ECAL])[0]
        assert col == 0  # fine column 0 is the window's first column

    def test_matches_dense_frame_on_random_hit_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            assert_matches_dense(*random_event(rng))


class TestWindowHcal:
    """The window's HCAL channel is the tower grid read at fine resolution:
    each fine pixel carries the full sum of the tower that holds it."""

    def test_zero(self):
        event = hits([0.1, 0.2], [0.3, -0.4], [5.0, 6.0], [Channel.TRACK, Channel.ECAL])
        assert not bin_hits(*event).any()
        assert not window_of(event, (142, 182))[Channel.HCAL].any()

    def test_single_tower_block(self):
        # tower (30, 40) spans eta [0.2143, 0.3214) and phi [0.349, 0.436)
        event = hits([0.25], [0.4], [7.0], Channel.HCAL)
        hcal = window_of(event, (5 * 30 + 2, 5 * 40 + 2))[Channel.HCAL]
        assert np.all(hcal[60:65, 60:65] == 7.0)
        assert hcal.sum() == pytest.approx(7.0 * 25)

    def test_block_constancy_oracle(self):
        rng = np.random.default_rng(3)
        towers = rng.uniform(0, 5, size=(56, 72)).astype(np.float32)
        empty = hits([], [], [])
        for trow, tcol in [(12, 0), (12, 71), (43, 36), (31, 44), (20, 1)]:
            center = (5 * trow + 2, 5 * tcol + 2)
            hcal = crop_jet_window(*empty, towers, center).data[Channel.HCAL]
            blocks = hcal.reshape(25, 5, 25, 5)
            expected = towers[np.ix_(np.arange(trow - 12, trow + 13),
                                     np.arange(tcol - 12, tcol + 13) % 72)]
            assert np.all(blocks == expected[:, None, :, None])


def exhaustive_center_scan(towers, jet_eta, jet_phi):
    """Independent 9x9 argmax with wrap in phi, truncation in eta."""
    trow = min(int((jet_eta + 3.0) / (6.0 / 56.0)), 55)
    tcol = min(int((wrap_phi(jet_phi) + math.pi) / (2.0 * math.pi / 72.0)), 71)
    candidates = []
    for r in range(trow - 4, trow + 5):
        if not 0 <= r < 56:
            continue
        for dc in range(-4, 5):
            c = (tcol + dc) % 72
            candidates.append((r, c, float(towers[r, c])))
    best_energy = max(e for _, _, e in candidates)
    if best_energy == 0.0:
        return (5 * trow + 2, 5 * tcol + 2)
    r, c = min((r, c) for r, c, e in candidates if e == best_energy)
    return (5 * r + 2, 5 * c + 2)


class TestFindWindowCenter:
    def test_single_hot_tower(self):
        towers = np.zeros((56, 72), dtype=np.float32)
        towers[30, 40] = 5.0
        center = find_window_center(towers, 0.25, 0.55)
        assert center == (5 * 30 + 2, 5 * 40 + 2)

    def test_all_zero_returns_centroid(self):
        towers = np.zeros((56, 72), dtype=np.float32)
        center = find_window_center(towers, 0.0, 0.0)
        trow = int(3.0 / (6.0 / 56.0))
        tcol = int(math.pi / (2 * math.pi / 72.0))
        assert center == (5 * trow + 2, 5 * tcol + 2)

    def test_tie_smaller_row_wins(self):
        towers = np.zeros((56, 72), dtype=np.float32)
        trow = int(3.0 / (6.0 / 56.0))
        tcol = int(math.pi / (2 * math.pi / 72.0))
        towers[trow - 2, tcol] = 4.0
        towers[trow + 1, tcol] = 4.0
        center = find_window_center(towers, 0.0, 0.0)
        assert center == (5 * (trow - 2) + 2, 5 * tcol + 2)

    def test_matches_exhaustive_scan_on_random_grids(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            towers = rng.uniform(0, 3, size=(56, 72)).astype(np.float32)
            # sprinkle ties to stress the tie-break
            towers[towers < 0.5] = 0.0
            towers[towers > 2.5] = 3.0
            jet_eta = rng.uniform(-1.7, 1.7)
            jet_phi = rng.uniform(-math.pi, math.pi)
            assert find_window_center(towers, jet_eta, jet_phi) == \
                exhaustive_center_scan(towers, jet_eta, jet_phi)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(5)
        towers = rng.uniform(0, 3, size=(56, 72)).astype(np.float32)
        for jet_eta, jet_phi in [(0.0, 0.0), (1.2, -2.0), (-1.5, 3.0)]:
            assert find_window_center(towers, jet_eta, jet_phi) == \
                find_window_center(towers * 17.5, jet_eta, jet_phi)


class TestCropJetWindow:
    def _random_grid(self, seed=6):
        """A sparse TRACK/ECAL grid and random towers."""
        rng = np.random.default_rng(seed)
        grid = rng.uniform(0, 2, size=(2, 280, 360)).astype(np.float32)
        grid[grid < 1.6] = 0.0
        return grid, rng.uniform(0, 2, size=(56, 72)).astype(np.float32)

    def test_wrap_at_column_zero(self):
        grid, towers = self._random_grid()
        window = crop_jet_window(*cell_hits(grid), towers, (140, 0)).data
        expected_cols = list(range(298, 360)) + list(range(0, 63))
        assert np.array_equal(window[:2], grid[:, 78:203, :][:, :, expected_cols])
        assert np.array_equal(window[Channel.HCAL, ::5, ::5],
                              towers[15:40][:, [*range(59, 72), *range(12)]])

    def test_eta_boundary(self):
        grid, towers = self._random_grid()
        event = cell_hits(grid)
        with pytest.raises(EtaOutOfRange):
            crop_jet_window(*event, towers, (61, 100))
        with pytest.raises(EtaOutOfRange):
            crop_jet_window(*event, towers, (218, 100))
        for ok in (62, 217):
            assert crop_jet_window(*event, towers, (ok, 100)).data.shape == (3, 125, 125)

    def test_wraparound_equals_tiled_oracle(self):
        grid, towers = self._random_grid(seed=7)
        tiled = np.concatenate([grid, grid], axis=2)
        for center_col in (0, 5, 355, 359, 180):
            window = crop_jet_window(*cell_hits(grid), towers, (140, center_col)).data
            start = (center_col - 62) % 360
            oracle = tiled[:, 78:203, start:start + 125]
            assert np.array_equal(window[:2], oracle)

    def test_seam_deposit_conserved(self):
        grid = np.zeros((2, 280, 360), dtype=np.float32)
        grid[Channel.ECAL, 140, 359] = 4.25
        grid[Channel.ECAL, 140, 0] = 1.75
        window = window_of(cell_hits(grid), (140, 0))
        assert window[Channel.ECAL].sum() == pytest.approx(6.0)

    def test_window_never_exceeds_image_energy(self):
        grid, towers = self._random_grid(seed=8)
        window = crop_jet_window(*cell_hits(grid), towers, (100, 42)).data
        for ch in (Channel.TRACK, Channel.ECAL):
            assert window[ch].sum() <= grid[ch].sum() + 1e-3
        assert window[Channel.HCAL].sum() <= 25 * towers.sum() + 1e-3

    def test_matches_dense_frame_at_edge_centers(self):
        """Rows 61 and 218 leave the eta range, rows 62 and 217 are the last
        that fit, and columns near 0 and 359 straddle the phi seam."""
        rng = np.random.default_rng(12)
        for _ in range(40):
            event, jet_eta, jet_phi = random_event(rng)
            for center in ((61, 100), (62, 0), (62, 359), (140, 2), (217, 357), (218, 100),
                           (int(rng.integers(62, 218)), int(rng.integers(360)))):
                assert_matches_dense(event, jet_eta, jet_phi, center)


@settings(max_examples=30, deadline=None)
@given(st.floats(-40.0, 40.0))
def test_wrap_phi_range(phi):
    w = wrap_phi(phi)
    assert -math.pi <= w < math.pi
