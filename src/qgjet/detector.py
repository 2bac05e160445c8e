"""Detector-grid geometry: hit binning, tower upsampling, jet-window crops.

The full-detector view is a 3-channel image on a fine 280x360 (eta, phi)
grid covering |eta| < 3 and the full azimuth. TRACK and ECAL deposits are
binned at fine resolution; HCAL deposits live on the native 56x72 tower
grid and are upsampled by 5x5 block replication. A jet window is a 125x125
crop centered on the hottest HCAL tower near the jet axis; columns wrap in
phi, rows never pad in eta. The geometry is fixed and lives in module
constants.
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


@dataclass(frozen=True)
class DetectorHit:
    eta: float
    phi: float      # radians in (-pi, pi]
    value: float    # GeV; the track channel carries pT
    channel: Channel


@dataclass
class FullDetectorImage:
    data: np.ndarray  # float32 [3, N_ETA, N_PHI]

    def hcal_native(self) -> np.ndarray:
        """Tower values [56, 72]; valid because the HCAL channel is
        block-constant after upsampling."""
        return self.data[Channel.HCAL, ::HCAL_FACTOR, ::HCAL_FACTOR]


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


def bin_hits(hits) -> FullDetectorImage:
    """Sum hits into the fine grid; HCAL goes through the native tower grid.

    Hits with |eta| >= ETA_MAX are dropped, never an error. Cells receiving
    several hits accumulate their sum.
    """
    eta = np.array([h.eta for h in hits], dtype=np.float64)
    phi = np.array([h.phi for h in hits], dtype=np.float64)
    val = np.array([h.value for h in hits], dtype=np.float64)
    cha = np.array([int(h.channel) for h in hits], dtype=np.int64)

    in_range = np.abs(eta) < ETA_MAX if len(hits) else np.zeros(0, dtype=bool)
    eta, phi, val, cha = eta[in_range], phi[in_range], val[in_range], cha[in_range]

    image = np.zeros((3, N_ETA, N_PHI), dtype=np.float64)
    for channel in (Channel.TRACK, Channel.ECAL):
        sel = cha == int(channel)
        rows = _eta_bin(eta[sel], N_ETA)
        cols = _phi_bin(phi[sel], N_PHI)
        np.add.at(image[channel], (rows, cols), val[sel])

    sel = cha == int(Channel.HCAL)
    native = np.zeros((N_ETA_HCAL, N_PHI_HCAL), dtype=np.float64)
    rows = _eta_bin(eta[sel], N_ETA_HCAL)
    cols = _phi_bin(phi[sel], N_PHI_HCAL)
    np.add.at(native, (rows, cols), val[sel])
    image[Channel.HCAL] = upsample_hcal(native)

    return FullDetectorImage(image.astype(np.float32))


def upsample_hcal(native: np.ndarray) -> np.ndarray:
    """Replicate each tower value into its fine block (no energy splitting)."""
    expected = (N_ETA_HCAL, N_PHI_HCAL)
    if native.shape != expected:
        raise ValueError(f"native HCAL grid must be {expected}, got {native.shape}")
    return np.repeat(np.repeat(native, HCAL_FACTOR, axis=0), HCAL_FACTOR, axis=1)


def find_window_center(image: FullDetectorImage, jet_eta: float, jet_phi: float) -> tuple[int, int]:
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

    hcal = image.hcal_native()
    best_energy = -1.0
    best = (trow, tcol)
    for r in range(max(0, trow - NEIGHBORHOOD_HALF),
                   min(N_ETA_HCAL, trow + NEIGHBORHOOD_HALF + 1)):
        for dc in range(-NEIGHBORHOOD_HALF, NEIGHBORHOOD_HALF + 1):
            c = (tcol + dc) % N_PHI_HCAL
            e = float(hcal[r, c])
            if e > best_energy or (e == best_energy and (r, c) < best):
                best_energy = e
                best = (r, c)
    if best_energy == 0.0:
        best = (trow, tcol)  # no deposit anywhere: keep the centroid tower

    half = HCAL_FACTOR // 2
    return (best[0] * HCAL_FACTOR + half, best[1] * HCAL_FACTOR + half)


def crop_jet_window(image: FullDetectorImage, center: tuple[int, int]) -> JetWindow:
    """125x125 crop around ``center``; columns wrap modulo N_PHI, rows must
    fit entirely inside the eta range."""
    row, col = center
    if row < WINDOW_HALF or row > N_ETA - WINDOW_HALF - 1:
        raise EtaOutOfRange(f"window center row {row} leaves no room for a full crop")
    rows = slice(row - WINDOW_HALF, row + WINDOW_HALF + 1)
    cols = np.arange(col - WINDOW_HALF, col + WINDOW_HALF + 1) % N_PHI
    window = image.data[:, rows, :][:, :, cols]
    return JetWindow(np.ascontiguousarray(window, dtype=np.float32))
