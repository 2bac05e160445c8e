import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import per_particle_hits
from qgjet.detector import Channel, GLUON, QUARK
from qgjet.rng import stream
from qgjet.synth import (CHARGED_ECAL_FRACTION, JetEvent, SynthConfig,
                         apply_selection, generate_dataset, preset, sample_jet)


class TestSynthConfig:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SynthConfig(charged_frac=0.5, photon_frac=0.25, neutral_had_frac=0.15)

    def test_positive_widths(self):
        with pytest.raises(ValueError):
            SynthConfig(width_quark=0.0)

    def test_presets(self):
        easy = preset("easy")
        assert easy.mean_mult_quark == 12.0 and easy.mean_mult_gluon == 27.0
        paperlike = preset("paperlike")
        assert (paperlike.width_quark, paperlike.width_gluon) == (0.10, 0.14)
        assert (paperlike.mean_mult_quark, paperlike.mean_mult_gluon) == (16.0, 22.0)
        hard = preset("hard")
        assert (hard.width_quark, hard.width_gluon) == (0.11, 0.125)
        assert (hard.mean_mult_quark, hard.mean_mult_gluon) == (18.0, 21.0)
        with pytest.raises(ValueError):
            preset("impossible")


class TestSampleJet:
    def test_degenerate_single_particle_on_axis(self):
        cfg = SynthConfig(mean_mult_quark=1e-9, width_quark=1e-12)
        event = sample_jet(cfg, QUARK, stream(0, "event", QUARK, 0))
        assert len(event.eta) in (1, 2)  # one particle, maybe with ECAL leakage
        assert event.eta[0] == pytest.approx(event.true_eta, abs=1e-9)

    def test_determinism_same_stream(self):
        cfg = preset("easy", seed=5)
        a = sample_jet(cfg, GLUON, stream(cfg.seed, "event", GLUON, 3))
        b = sample_jet(cfg, GLUON, stream(cfg.seed, "event", GLUON, 3))
        assert a.jet_pt == b.jet_pt and a.true_eta == b.true_eta
        for field in ("eta", "phi", "value", "channel"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    @pytest.mark.parametrize("name", ("easy", "paperlike", "hard"))
    def test_matches_per_particle_loop(self, name):
        cfg = preset(name, seed=3)
        for label in (GLUON, QUARK):
            for attempt in range(100):
                event = sample_jet(cfg, label, stream(cfg.seed, "event", label, attempt))
                want = per_particle_hits(cfg, label, stream(cfg.seed, "event", label, attempt))
                got = (event.eta, event.phi, event.value, event.channel)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_gluon_multiplicity_poisson_statistics(self):
        cfg = preset("easy", seed=9)
        counts = []
        for i in range(10_000):
            event = sample_jet(cfg, GLUON, stream(cfg.seed, "event", GLUON, i))
            n_track = np.count_nonzero(event.channel == Channel.TRACK)
            counts.append(len(event.eta) - n_track)  # charged particles hit twice
        se = math.sqrt(27.0 / 10_000)
        assert abs(np.mean(counts) - 27.0) < 3 * se

    def test_containment_within_unit_cone(self):
        cfg = preset("easy", seed=1)
        for i in range(50):
            event = sample_jet(cfg, GLUON, stream(cfg.seed, "event", GLUON, i))
            dphi = (event.phi - event.true_phi + math.pi) % (2 * math.pi) - math.pi
            assert np.all(np.hypot(event.eta - event.true_eta, dphi) < 1.0)

    def test_charged_particles_leave_track_and_ecal(self):
        cfg = SynthConfig(charged_frac=1.0, photon_frac=0.0, neutral_had_frac=0.0,
                          mean_mult_quark=5)
        event = sample_jet(cfg, QUARK, stream(0, "event", QUARK, 0))
        n = len(event.eta) // 2
        assert n > 0
        # each particle's ECAL leakage comes right after its track hit
        assert event.channel.tolist() == [Channel.TRACK, Channel.ECAL] * n
        np.testing.assert_allclose(event.value[1::2], CHARGED_ECAL_FRACTION * event.value[::2])
        assert np.array_equal(event.eta[1::2], event.eta[::2])
        assert np.array_equal(event.phi[1::2], event.phi[::2])

    def test_pt_shares_sum_to_jet_pt(self):
        cfg = SynthConfig(photon_frac=1.0, charged_frac=0.0, neutral_had_frac=0.0)
        event = sample_jet(cfg, QUARK, stream(2, "event", QUARK, 0))
        assert np.all(event.channel == Channel.ECAL)
        assert event.value.sum() == pytest.approx(event.jet_pt, rel=1e-9)


class TestApplySelection:
    def _event(self, pt, eta):
        none = np.zeros(0)
        return JetEvent(none, none, none, none.astype(np.int64), eta, 0.0, QUARK, pt)

    def test_pt_boundary_strict(self):
        assert apply_selection(self._event(70.0, 0.0)) is False

    def test_passing_jet(self):
        assert apply_selection(self._event(90.0, 0.0)) is True

    def test_eta_cut(self):
        assert apply_selection(self._event(90.0, 1.9)) is False
        assert apply_selection(self._event(90.0, -1.8)) is False


class TestGenerateDataset:
    def test_one_per_class(self):
        windows = generate_dataset(preset("easy", seed=3), 1)
        assert len(windows) == 2
        assert sorted(w.label for w in windows) == [GLUON, QUARK]

    def test_balanced_and_shuffled(self):
        windows = generate_dataset(preset("easy", seed=4), 25)
        labels = [w.label for w in windows]
        assert sum(labels) == 25 and len(labels) == 50
        assert labels != sorted(labels)  # shuffle interleaves the classes

    def test_deterministic_given_seed(self):
        a = generate_dataset(preset("easy", seed=6), 5)
        b = generate_dataset(preset("easy", seed=6), 5)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            assert wa.label == wb.label
            assert np.array_equal(wa.data, wb.data)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_dataset(preset("easy"), 0)

    def test_wide_eta_range_resamples_windows_that_cannot_fit(self):
        # |eta| < 1.79 passes the selection, but beyond about 1.29 the hottest
        # tower can sit too close to the eta edge for a full 125-pixel crop
        config = replace(preset("easy", seed=2), jet_eta_range=(-1.79, 1.79))
        windows = generate_dataset(config, 40)
        assert sorted(w.label for w in windows) == [GLUON] * 40 + [QUARK] * 40
        assert all(w.data.shape == (3, 125, 125) for w in windows)

    def test_gluon_windows_have_more_track_pixels(self):
        windows = generate_dataset(preset("easy", seed=7), 500)
        gluon = np.mean([np.count_nonzero(w.data[Channel.TRACK]) for w in windows
                         if w.label == GLUON])
        quark = np.mean([np.count_nonzero(w.data[Channel.TRACK]) for w in windows
                         if w.label == QUARK])
        assert gluon > quark
