import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import straightline_preprocess, two_pass_channel_stats
from qgjet.detector import JetWindow
from qgjet.preprocess import (ChannelStats, DegenerateChannel, clip_outliers,
                              compute_channel_stats, minmax_scale, preprocess_window,
                              zero_suppress, zscore_normalize)


def stats_of(mu, sigma):
    return ChannelStats(mu=np.asarray(mu, dtype=np.float64),
                        sigma=np.asarray(sigma, dtype=np.float64), n_pixels=0)


def random_window(rng, scale=5.0):
    data = rng.uniform(0, scale, size=(3, 125, 125)).astype(np.float32)
    data[data < rng.uniform(0, scale * 0.8)] = 0.0  # sparse, like real deposits
    return JetWindow(data)


class TestStageDefaults:
    def test_constants(self):
        """The chain's constants live once, as the stage functions' defaults."""
        def default(f, name):
            return inspect.signature(f).parameters[name].default

        assert default(zero_suppress, "threshold") == 1e-3
        assert default(clip_outliers, "clip_factor") == 500.0
        assert default(minmax_scale, "eps") == 1e-5


class TestComputeChannelStats:
    def test_constant_channel_degenerate(self):
        window = JetWindow(np.full((3, 125, 125), 2.0, dtype=np.float32))
        with pytest.raises(DegenerateChannel):
            compute_channel_stats([window])

    def test_hand_computation(self):
        window = np.zeros((3, 2, 2), dtype=np.float64)
        window[:] = np.array([0.0, 0.0, 4.0, 4.0]).reshape(2, 2)
        stats = compute_channel_stats([JetWindow(window)])
        assert stats.mu == pytest.approx([2.0, 2.0, 2.0])
        assert stats.sigma == pytest.approx([2.0, 2.0, 2.0])

    def test_statistics_use_zero_suppressed_pixels(self):
        window = np.zeros((3, 1, 2), dtype=np.float64)
        window[:, 0, 0] = 5e-4   # below threshold: suppressed to 0
        window[:, 0, 1] = 2.0
        stats = compute_channel_stats([JetWindow(window)])
        assert stats.mu == pytest.approx([1.0] * 3)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        windows = [random_window(rng) for _ in range(500)]
        stats = compute_channel_stats(windows)
        mu, sigma = two_pass_channel_stats(np.stack([w.data for w in windows]))
        assert stats.mu == pytest.approx(mu, rel=1e-10)
        assert stats.sigma == pytest.approx(sigma, rel=1e-10)

    def test_block_merge_order_independent_of_chunking(self):
        rng = np.random.default_rng(1)
        windows = [random_window(rng) for _ in range(20)]
        stats_all = compute_channel_stats(windows)
        stats_gen = compute_channel_stats(w for w in windows)
        assert np.array_equal(stats_all.mu, stats_gen.mu)
        assert stats_all.n_pixels == 20 * 125 * 125

    def test_empty_stream(self):
        with pytest.raises(ValueError):
            compute_channel_stats([])


class TestZeroSuppress:
    def test_just_below_threshold(self):
        assert zero_suppress(np.array([9.99e-4]))[0] == 0.0

    def test_exactly_at_threshold_kept(self):
        assert zero_suppress(np.array([1e-3]))[0] == 1e-3

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (4, 4), elements=st.floats(-1, 1)))
    def test_idempotent(self, image):
        once = zero_suppress(image)
        assert np.array_equal(zero_suppress(once), once)


class TestZscoreNormalize:
    def test_centering(self):
        img = np.full((3, 1, 1), 5.0)
        out = zscore_normalize(img, stats_of([5, 5, 5], [2, 2, 2]))
        assert np.all(out == 0.0)

    def test_scaling(self):
        img = np.full((3, 1, 1), 9.0)
        out = zscore_normalize(img, stats_of([5, 5, 5], [2, 2, 2]))
        assert np.all(out == 2.0)

    def test_identity_stats(self):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(3, 4, 4))
        out = zscore_normalize(img, stats_of([0, 0, 0], [1, 1, 1]))
        assert np.array_equal(out, img)


class TestClipOutliers:
    def test_direct_formula(self):
        img = np.full((3, 1, 1), 1200.0)
        out = clip_outliers(img, stats_of([0, 0, 0], [2, 2, 2]))
        assert np.all(out == 1000.0)

    def test_no_lower_clip(self):
        img = np.full((3, 1, 1), -50.0)
        out = clip_outliers(img, stats_of([0, 0, 0], [2, 2, 2]))
        assert np.all(out == -50.0)

    def test_identity_below_cap(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(-5, 5, size=(3, 4, 4))
        out = clip_outliers(img, stats_of([0, 0, 0], [1, 1, 1]), clip_factor=500.0)
        assert np.array_equal(out, img)


class TestMinmaxScale:
    def test_constant_image_is_zero(self):
        out = minmax_scale(np.full((3, 2, 2), 7.0))
        assert np.all(out == 0.0)

    def test_pinned_value(self):
        img = np.array([[[-1.0, 3.0, 1.0]]])
        out = minmax_scale(img)
        # 2 / (4 + 1e-5), evaluated at high precision
        assert out[0, 0, 2] == pytest.approx(0.49999875000312499219, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (2, 3, 3), elements=st.floats(-1e4, 1e4)))
    def test_output_in_unit_interval(self, image):
        out = minmax_scale(image)
        assert np.all(out >= 0.0) and np.all(out < 1.0)

    def test_float32_rounding_stays_below_one(self):
        # large range: the ratio would round to 1.0f without the clamp
        img = np.zeros((3, 2, 2), dtype=np.float32)
        img[0, 0, 0] = 1e4
        out = minmax_scale(img)
        assert out.max() < 1.0


class TestPreprocessWindow:
    def _stats(self):
        rng = np.random.default_rng(4)
        return compute_channel_stats([random_window(rng) for _ in range(20)])

    def test_all_zero_window_uniform_stats(self):
        # zeros z-score to -mu_k/sigma_k; with uniform stats that is constant
        # across channels, so the joint min-max collapses to all zeros
        out = preprocess_window(JetWindow(np.zeros((3, 125, 125), dtype=np.float32)),
                                stats_of([0.5] * 3, [2.0] * 3))
        assert np.all(out == 0.0)

    def test_all_zero_window_general_stats(self):
        # with per-channel stats the zero window maps to one constant per
        # channel, the smallest of which lands exactly at 0
        out = preprocess_window(JetWindow(np.zeros((3, 125, 125), dtype=np.float32)),
                                stats_of([0.5, 1.0, 0.25], [2.0, 1.0, 0.5]))
        for ch in range(3):
            assert np.all(out[ch] == out[ch, 0, 0])
        assert out.min() == 0.0 and out.max() < 1.0

    def test_golden_against_straightline_oracle(self):
        rng = np.random.default_rng(5)
        stats = self._stats()
        for _ in range(5):
            window = random_window(rng)
            ours = preprocess_window(window, stats)
            oracle = straightline_preprocess(window.data, stats.mu, stats.sigma)
            assert ours.dtype == oracle.dtype == np.float32
            assert np.array_equal(ours, oracle)

    def test_bit_deterministic(self):
        rng = np.random.default_rng(6)
        stats = self._stats()
        window = random_window(rng)
        a = preprocess_window(window, stats)
        b = preprocess_window(window, stats)
        assert a.tobytes() == b.tobytes()

    def test_range_and_finiteness(self):
        rng = np.random.default_rng(7)
        stats = self._stats()
        for _ in range(50):
            out = preprocess_window(random_window(rng, scale=50.0), stats)
            assert np.isfinite(out).all()
            assert out.min() >= 0.0 and out.max() < 1.0

    def test_argmax_preserved_under_scaling(self):
        # every stage is monotone per channel with fixed stats, so scaling the
        # raw window up cannot move a clearly dominant per-sample maximum
        # (near-exact cross-channel ties are excluded: channels carry slightly
        # different affine maps, so a tie can legitimately flip)
        rng = np.random.default_rng(8)
        stats = self._stats()
        for _ in range(20):
            data = random_window(rng).data
            hot = np.unravel_index(rng.integers(data.size), data.shape)
            data[hot] = 1.5 * data.max()
            base = np.argmax(preprocess_window(JetWindow(data), stats))
            assert base == np.ravel_multi_index(hot, data.shape)
            for c in (2.0, 3.0, 10.0):
                assert np.argmax(preprocess_window(JetWindow(data * c), stats)) == base

    def test_within_channel_order_preserved(self):
        rng = np.random.default_rng(10)
        stats = self._stats()
        window = random_window(rng)
        out = preprocess_window(window, stats)
        for ch in range(3):
            assert np.argmax(out[ch]) == np.argmax(window.data[ch])

    def test_accepts_jet_window(self):
        """The label rides along and changes nothing."""
        rng = np.random.default_rng(9)
        stats = self._stats()
        window = random_window(rng)
        out = preprocess_window(JetWindow(window.data, label=1), stats)
        assert out.shape == (3, 125, 125)
        assert out.tobytes() == preprocess_window(window, stats).tobytes()
