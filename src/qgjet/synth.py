"""Synthetic quark-like and gluon-like jet events.

Gluon-like jets carry higher particle multiplicity and a wider angular
spread than quark-like jets; the separability presets tune how far apart
the two classes sit. An event is four per-hit arrays (eta, phi, value,
channel) plus its jet axis, label and pT; the arrays go straight to
``bin_hits`` and ``crop_jet_window``. Generation is a pure function of
(config, event index): every event draws from its own counter-based stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detector import (GLUON, QUARK, Channel, EtaOutOfRange, JetWindow, bin_hits,
                       crop_jet_window, find_window_center, wrap_phi)
from .rng import stream

# Fraction of a charged particle's pT deposited in the ECAL on top of its
# track entry (minimum-ionizing-like leakage).
CHARGED_ECAL_FRACTION = 0.3

EASY = "easy"
PAPERLIKE = "paperlike"
HARD = "hard"


@dataclass(frozen=True)
class SynthConfig:
    mean_mult_quark: float = 12.0
    mean_mult_gluon: float = 27.0
    width_quark: float = 0.08
    width_gluon: float = 0.16
    jet_pt_range: tuple[float, float] = (90.0, 170.0)
    charged_frac: float = 0.60
    photon_frac: float = 0.25
    neutral_had_frac: float = 0.15
    jet_eta_range: tuple[float, float] = (-1.2, 1.2)
    seed: int = 0

    def __post_init__(self):
        total = self.charged_frac + self.photon_frac + self.neutral_had_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"species fractions must sum to 1, got {total}")
        if self.width_quark <= 0 or self.width_gluon <= 0:
            raise ValueError("angular widths must be positive")
        if self.mean_mult_quark <= 0 or self.mean_mult_gluon <= 0:
            raise ValueError("mean multiplicities must be positive")


def preset(name: str, seed: int = 0) -> SynthConfig:
    """Named separability presets, from clearly separated to nearly overlapping."""
    base = SynthConfig(seed=seed)
    if name == EASY:
        return base
    if name == PAPERLIKE:
        return replace(base, mean_mult_quark=16.0, mean_mult_gluon=22.0,
                       width_quark=0.10, width_gluon=0.14)
    if name == HARD:
        return replace(base, mean_mult_quark=18.0, mean_mult_gluon=21.0,
                       width_quark=0.11, width_gluon=0.125)
    raise ValueError(f"unknown preset: {name!r}")


@dataclass
class JetEvent:
    eta: np.ndarray      # per hit
    phi: np.ndarray      # radians in [-pi, pi)
    value: np.ndarray    # GeV; the track channel carries pT
    channel: np.ndarray  # Channel of each hit
    true_eta: float
    true_phi: float
    label: int
    jet_pt: float


def sample_jet(config: SynthConfig, label: int, rng: np.random.Generator) -> JetEvent:
    """Draw one jet: Poisson multiplicity (min 1), isotropic Gaussian angular
    offsets kept within dR < 1, Dirichlet pT sharing, and per-particle species
    routing (charged -> TRACK + ECAL leakage, photon -> ECAL, neutral -> HCAL).

    Hits come in particle order; a charged particle's ECAL leakage follows
    its track hit.
    """
    if label == QUARK:
        mean_mult, width = config.mean_mult_quark, config.width_quark
    else:
        mean_mult, width = config.mean_mult_gluon, config.width_gluon

    jet_pt = float(rng.uniform(*config.jet_pt_range))
    jet_eta = float(rng.uniform(*config.jet_eta_range))
    jet_phi = float(rng.uniform(-math.pi, math.pi))

    n = max(1, int(rng.poisson(mean_mult)))
    offsets = rng.normal(0.0, width, size=(n, 2))
    while True:  # containment: every particle stays within dR < 1 of the axis
        outside = np.hypot(offsets[:, 0], offsets[:, 1]) >= 1.0
        if not outside.any():
            break
        offsets[outside] = rng.normal(0.0, width, size=(int(outside.sum()), 2))

    fractions = rng.dirichlet(np.ones(n))
    species = rng.choice(3, size=n, p=[config.charged_frac, config.photon_frac,
                                       config.neutral_had_frac])

    # species k deposits in Channel k; a charged particle adds an ECAL leak
    particle = np.repeat(np.arange(n), np.where(species == Channel.TRACK, 2, 1))
    leak = np.diff(particle, prepend=-1) == 0  # the second hit of a charged particle
    value = (jet_pt * fractions)[particle]
    value[leak] *= CHARGED_ECAL_FRACTION
    channel = np.where(leak, Channel.ECAL, species[particle])
    eta = (jet_eta + offsets[:, 0])[particle]
    phi = wrap_phi(jet_phi + offsets[:, 1])[particle]
    return JetEvent(eta, phi, value, channel, jet_eta, jet_phi, label, jet_pt)


def apply_selection(event: JetEvent) -> bool:
    """Keep jets with pT strictly above 70 GeV and |eta| below 1.8."""
    return event.jet_pt > 70.0 and abs(event.true_eta) < 1.8


def generate_dataset(config: SynthConfig, n_per_class: int) -> list[JetWindow]:
    """Exactly ``n_per_class`` labeled windows per class, rejected events
    resampled, deterministically shuffled by the config seed.

    An event is rejected when it fails the selection or when its 125-pixel
    window cannot fit inside the eta range, which can happen for |eta| above
    about 1.29.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    windows: list[JetWindow] = []
    for label in (GLUON, QUARK):
        produced = 0
        attempt = 0
        while produced < n_per_class:
            rng = stream(config.seed, "event", label, attempt)
            attempt += 1
            event = sample_jet(config, label, rng)
            if not apply_selection(event):
                continue
            hits = event.eta, event.phi, event.value, event.channel
            towers = bin_hits(*hits)
            center = find_window_center(towers, event.true_eta, event.true_phi)
            try:
                window = crop_jet_window(*hits, towers, center)
            except EtaOutOfRange:
                continue
            window.label = label
            windows.append(window)
            produced += 1
    order = stream(config.seed, "shuffle").permutation(len(windows))
    return [windows[i] for i in order]
