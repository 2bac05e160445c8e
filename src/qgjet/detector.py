"""Detector-grid geometry: hit binning, tower upsampling, jet-window crops.

An event reaches the detector as four per-hit arrays: eta, phi (radians),
value (GeV; the track channel carries pT) and channel (a ``Channel``). The
full-detector frame they bin into is a float32 [3, 280, 360] array on a
fine (eta, phi) grid covering |eta| < 3 and the full azimuth. TRACK and
ECAL deposits are binned at fine resolution; HCAL deposits are summed on
the native 56x72 tower grid and upsampled by 5x5 block replication. A jet
window is a 125x125 crop centered on the hottest HCAL tower near the jet
axis; columns wrap in phi, rows never pad in eta. The geometry is fixed and
lives in module constants.
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
    """Sum hits into the float32 [3, N_ETA, N_PHI] frame; HCAL goes through
    the native tower grid.

    Hits with |eta| >= ETA_MAX are dropped, never an error. Cells receiving
    several hits accumulate their sum in hit order.
    """
    in_range = np.abs(eta) < ETA_MAX
    image = np.zeros((3, N_ETA, N_PHI), dtype=np.float64)
    native = np.zeros((N_ETA_HCAL, N_PHI_HCAL), dtype=np.float64)
    for ch, grid in zip(Channel, (image[Channel.TRACK], image[Channel.ECAL], native)):
        sel = in_range & (channel == ch)
        n_eta, n_phi = grid.shape
        np.add.at(grid, (_eta_bin(eta[sel], n_eta), _phi_bin(phi[sel], n_phi)), value[sel])
    image[Channel.HCAL] = upsample_hcal(native)
    return image.astype(np.float32)


def upsample_hcal(native: np.ndarray) -> np.ndarray:
    """Replicate each tower value into its fine block (no energy splitting)."""
    expected = (N_ETA_HCAL, N_PHI_HCAL)
    if native.shape != expected:
        raise ValueError(f"native HCAL grid must be {expected}, got {native.shape}")
    return np.repeat(np.repeat(native, HCAL_FACTOR, axis=0), HCAL_FACTOR, axis=1)


def find_window_center(image: np.ndarray, jet_eta: float, jet_phi: float) -> tuple[int, int]:
    """Hottest HCAL tower in the 9x9 neighborhood of the jet centroid tower.

    The neighborhood wraps in phi and truncates in eta. Ties between equal
    positive maxima go to the smallest (row, col); a fully empty neighborhood
    falls back to the centroid tower itself. Returns the tower-block center
    pixel in fine-grid coordinates.
    """
    if not ETA_MIN <= jet_eta < ETA_MAX:
        raise ValueError(f"jet eta {jet_eta} outside the instrumented range")
    trow = int(_eta_bin(np.float64(jet_eta), N_ETA_HCAL))
    tcol = int(_phi_bin(np.float64(jet_phi), N_PHI_HCAL))

    # towers are block-constant after upsampling: one fine pixel per tower
    hcal = image[Channel.HCAL, ::HCAL_FACTOR, ::HCAL_FACTOR]
    row0 = max(0, trow - NEIGHBORHOOD_HALF)
    # sorted columns make the row-major argmax pick the smallest (row, col)
    cols = sorted((tcol + dc) % N_PHI_HCAL
                  for dc in range(-NEIGHBORHOOD_HALF, NEIGHBORHOOD_HALF + 1))
    block = hcal[row0:trow + NEIGHBORHOOD_HALF + 1, cols]
    r, c = divmod(int(np.argmax(block)), len(cols))
    row, col = (row0 + r, cols[c]) if block[r, c] != 0.0 else (trow, tcol)
    return (row * HCAL_FACTOR + HCAL_FACTOR // 2, col * HCAL_FACTOR + HCAL_FACTOR // 2)


def crop_jet_window(image: np.ndarray, center: tuple[int, int]) -> JetWindow:
    """125x125 crop of the [3, N_ETA, N_PHI] frame around ``center``; columns
    wrap modulo N_PHI, rows must fit entirely inside the eta range."""
    row, col = center
    if row < WINDOW_HALF or row > N_ETA - WINDOW_HALF - 1:
        raise EtaOutOfRange(f"window center row {row} leaves no room for a full crop")
    rows = slice(row - WINDOW_HALF, row + WINDOW_HALF + 1)
    cols = np.arange(col - WINDOW_HALF, col + WINDOW_HALF + 1) % N_PHI
    window = image[:, rows, :][:, :, cols]
    return JetWindow(np.ascontiguousarray(window, dtype=np.float32))
