"""Detector geometry: HCAL towers, window centering, jet-window binning.

An event reaches the detector as four per-hit arrays: eta, phi (radians),
value (GeV; the track channel carries pT) and channel (a ``Channel``). The
fine (eta, phi) grid is 280x360 over |eta| < 3 and the full azimuth; HCAL
sums on coarse 56x72 towers of 5x5 fine pixels. A jet window is the 125x125
patch of the fine grid centered on the hottest tower near the jet axis:
TRACK and ECAL hits bin straight into it, and each HCAL pixel carries its
whole tower's sum. Columns wrap in phi; rows never pad in eta. The geometry
is fixed and lives in module constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

TWO_PI = 2.0 * math.pi
N_ETA = 280  # fine grid rows over [ETA_MIN, ETA_MAX)
N_PHI = 360  # fine grid columns over the full azimuth
ETA_MIN = -3.0
ETA_MAX = 3.0
HCAL_FACTOR = 5  # fine pixels per HCAL tower along each axis
N_ETA_HCAL = N_ETA // HCAL_FACTOR
N_PHI_HCAL = N_PHI // HCAL_FACTOR
WINDOW_SIZE = 125
WINDOW_HALF = 62
NEIGHBORHOOD_HALF = 4  # 9x9 towers scanned around the jet centroid tower

GLUON = 0
QUARK = 1


class Channel(IntEnum):
    TRACK = 0
    ECAL = 1
    HCAL = 2


class EtaOutOfRange(ValueError):
    """Window center too close to the eta edge for a full 125-pixel crop."""


@dataclass
class JetWindow:
    data: np.ndarray  # float32 [3, 125, 125]
    label: int | None = None  # QUARK=1, GLUON=0


def wrap_phi(phi):
    """Map any angle into [-pi, pi); the +pi boundary folds onto -pi."""
    return phi - TWO_PI * np.floor((phi + math.pi) / TWO_PI)


def _eta_bin(eta, n_eta: int):
    idx = np.floor((eta - ETA_MIN) * (n_eta / (ETA_MAX - ETA_MIN))).astype(np.int64)
    return np.minimum(idx, n_eta - 1)


def _phi_bin(phi, n_phi: int):
    idx = np.floor((wrap_phi(phi) + math.pi) * (n_phi / TWO_PI)).astype(np.int64)
    return np.minimum(idx, n_phi - 1)


def bin_hits(eta, phi, value, channel) -> np.ndarray:
    """The float32 [N_ETA_HCAL, N_PHI_HCAL] towers: each sums its HCAL hits in
    float64, in hit order. Other channels and |eta| >= ETA_MAX are skipped."""
    sel = (np.abs(eta) < ETA_MAX) & (channel == Channel.HCAL)
    towers = np.zeros((N_ETA_HCAL, N_PHI_HCAL), dtype=np.float64)
    np.add.at(towers, (_eta_bin(eta[sel], N_ETA_HCAL), _phi_bin(phi[sel], N_PHI_HCAL)), value[sel])
    return towers.astype(np.float32)


def find_window_center(towers: np.ndarray, jet_eta: float, jet_phi: float) -> tuple[int, int]:
    """Hottest tower in the 9x9 neighborhood of the jet centroid tower.

    The neighborhood wraps in phi and truncates in eta. Ties between equal
    positive maxima go to the smallest (row, col); a fully empty neighborhood
    falls back to the centroid tower itself. Returns the tower's center
    pixel in fine-grid coordinates.
    """
    if not ETA_MIN <= jet_eta < ETA_MAX:
        raise ValueError(f"jet eta {jet_eta} outside the instrumented range")
    trow = int(_eta_bin(np.float64(jet_eta), N_ETA_HCAL))
    tcol = int(_phi_bin(np.float64(jet_phi), N_PHI_HCAL))

    row0 = max(0, trow - NEIGHBORHOOD_HALF)
    # sorted columns make the row-major argmax pick the smallest (row, col)
    cols = sorted((tcol + dc) % N_PHI_HCAL
                  for dc in range(-NEIGHBORHOOD_HALF, NEIGHBORHOOD_HALF + 1))
    block = towers[row0:trow + NEIGHBORHOOD_HALF + 1, cols]
    r, c = divmod(int(np.argmax(block)), len(cols))
    row, col = (row0 + r, cols[c]) if block[r, c] != 0.0 else (trow, tcol)
    return (row * HCAL_FACTOR + HCAL_FACTOR // 2, col * HCAL_FACTOR + HCAL_FACTOR // 2)


def crop_jet_window(eta, phi, value, channel, towers, center: tuple[int, int]) -> JetWindow:
    """The 125x125 window around fine pixel ``center``: each TRACK and ECAL
    cell sums its hits in float64, in hit order, and each HCAL pixel reads its
    tower. Columns wrap modulo N_PHI; rows must fit inside the eta range."""
    row, col = center
    if row < WINDOW_HALF or row > N_ETA - WINDOW_HALF - 1:
        raise EtaOutOfRange(f"window center row {row} leaves no room for a full crop")
    rows = np.arange(row - WINDOW_HALF, row + WINDOW_HALF + 1)
    cols = np.arange(col - WINDOW_HALF, col + WINDOW_HALF + 1) % N_PHI
    sel = (np.abs(eta) < ETA_MAX) & (channel != Channel.HCAL)
    r = _eta_bin(eta[sel], N_ETA) - rows[0]
    c = (_phi_bin(phi[sel], N_PHI) - cols[0]) % N_PHI
    inside = (r >= 0) & (r < WINDOW_SIZE) & (c < WINDOW_SIZE)
    window = np.zeros((3, WINDOW_SIZE, WINDOW_SIZE), dtype=np.float64)
    np.add.at(window, (channel[sel][inside], r[inside], c[inside]), value[sel][inside])
    window[Channel.HCAL] = towers[rows // HCAL_FACTOR][:, cols // HCAL_FACTOR]
    return JetWindow(window.astype(np.float32))
