import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (dense_color_jitter, dense_resize_hwc, dense_rotate_by,
                     stacked_hsv_to_rgb)
from qgjet.augment import (IMAGENET_MEAN, IMAGENET_STD, AugmentConfig, _hsv_to_rgb,
                           _resize_hwc, bilinear_resize_chw, color_jitter,
                           imagenet_normalize, mixup,
                           random_hflip, random_resized_crop, random_rotate,
                           rotate_by, sample_crop_rect, to_float, to_uint8,
                           train_transform, validation_transform)
from qgjet.detector import JetWindow
from qgjet.preprocess import compute_channel_stats
from qgjet.rng import stream

CFG = AugmentConfig()
CFG64 = AugmentConfig(out_size=64)


def rng_for(*path):
    return stream(99, *path)


class TestToUint8:
    def test_endpoints(self):
        img = np.zeros((3, 2, 2), dtype=np.float32)
        img[0, 0, 0] = 1.0
        out = to_uint8(img)
        assert out.dtype == np.uint8 and out.shape == (2, 2, 3)
        assert out[0, 0, 0] == 255 and out[1, 1, 2] == 0

    def test_round_half_to_even(self):
        img = np.full((3, 1, 1), 0.5, dtype=np.float32)
        assert to_uint8(img)[0, 0, 0] == 128  # 127.5 rounds to even 128
        img = np.full((3, 1, 1), 122.5 / 255.0, dtype=np.float64)
        assert to_uint8(img)[0, 0, 0] == 122  # 122.5 rounds to even 122

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (3, 2, 2), elements=st.floats(0, 1)))
    def test_round_trip_quantization_bound(self, img):
        back = to_float(to_uint8(img))
        assert np.abs(back - img.astype(np.float32)).max() <= 1.0 / 510.0 + 1e-7


class TestToFloat:
    def test_endpoints_and_layout(self):
        img = np.zeros((2, 3, 3), dtype=np.uint8)
        img[0, 1, 2] = 255
        out = to_float(img)
        assert out.shape == (3, 2, 3)
        assert out[2, 0, 1] == 1.0
        assert out.dtype == np.float32

    def test_monotone(self):
        img = np.arange(256, dtype=np.uint8).reshape(1, -1, 1).repeat(3, axis=2)
        out = to_float(img)
        assert np.all(np.diff(out[0, 0]) > 0)

    def test_layout_transpose_oracle(self):
        img = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        out = to_float(img)
        for i in range(2):
            for j in range(4):
                for k in range(3):
                    assert out[k, i, j] == np.float32(img[i, j, k] / 255.0)


class TestImagenetNormalize:
    def test_mean_maps_to_zero(self):
        img = np.full((3, 2, 2), 0.0, dtype=np.float32)
        img[0] = 0.485
        assert np.abs(imagenet_normalize(img)[0]).max() < 1e-6

    def test_one_sigma(self):
        img = np.full((3, 1, 1), 0.0, dtype=np.float32)
        img[2] = 0.406 + 0.225
        assert imagenet_normalize(img)[2, 0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_invertible(self):
        rng = np.random.default_rng(0)
        img = rng.random((3, 5, 5)).astype(np.float32)
        norm = imagenet_normalize(img)
        back = norm * IMAGENET_STD[:, None, None] + IMAGENET_MEAN[:, None, None]
        assert np.abs(back - img).max() < 1e-6


class TestRandomResizedCrop:
    def test_degenerate_params_pure_resize(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 255, size=(125, 125, 3)).astype(np.uint8)
        cfg = AugmentConfig(crop_scale=(1.0, 1.0), crop_ratio=(1.0, 1.0), out_size=64)
        out = random_resized_crop(img, cfg, rng_for("rrc"))
        expected = bilinear_resize_chw(to_float(img) * 255.0, 64)
        ours = np.transpose(out, (2, 0, 1)).astype(np.float32)
        assert ours == pytest.approx(expected, abs=1e-3)

    def test_output_shape(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 255, size=(125, 125, 3)).astype(np.uint8)
        for _ in range(10):
            out = random_resized_crop(img, CFG, rng)
            assert out.shape == (224, 224, 3)

    def test_crop_rect_deterministic_for_seeded_stream(self):
        a = sample_crop_rect(125, 125, CFG, rng_for("crop", 5))
        b = sample_crop_rect(125, 125, CFG, rng_for("crop", 5))
        assert a == b

    def test_crop_rect_within_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            top, left, ch, cw = sample_crop_rect(125, 125, CFG, rng)
            assert 0 <= top and top + ch <= 125
            assert 0 <= left and left + cw <= 125


class TestRandomHflip:
    def test_p_zero_identity(self):
        img = np.random.default_rng(4).random((5, 5, 3))
        assert np.array_equal(random_hflip(img, 0.0, rng_for("flip")), img)

    def test_p_one_involution(self):
        img = np.random.default_rng(5).random((5, 6, 3))
        once = random_hflip(img, 1.0, rng_for("flip", 1))
        twice = random_hflip(once, 1.0, rng_for("flip", 2))
        assert np.array_equal(twice, img)

    def test_mirror_golden(self):
        img = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
        out = random_hflip(img, 1.0, rng_for("flip", 3))
        assert np.array_equal(out, img[:, ::-1, :])


class TestRandomRotate:
    def test_zero_angle_identity(self):
        img = np.random.default_rng(6).random((9, 9, 3)) * 255
        assert rotate_by(img, 0.0) == pytest.approx(img, abs=1e-12)

    def test_forward_backward_small_loss(self):
        # smooth image: rotating +20 then -20 degrees only loses bilinear
        # sharpness; pinned with margin from a measured ~3e-3 mean abs diff
        y, x = np.meshgrid(np.linspace(0, 1, 64), np.linspace(0, 1, 64), indexing="ij")
        smooth = np.stack([np.sin(3 * x) * np.cos(2 * y)] * 3, axis=-1) * 100 + 120
        out = rotate_by(rotate_by(smooth, math.radians(20)), math.radians(-20))
        interior = (slice(10, -10), slice(10, -10))
        diff = np.abs(out[interior] - smooth[interior]) / 255.0
        assert 0 < diff.mean() < 0.02

    def test_mass_never_increases_on_dense_images(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            img = rng.random((32, 32, 3)) * 255
            out = random_rotate(img, 20.0, rng)
            assert out.sum() <= img.sum() + 1e-6

    def test_zero_fill_outside(self):
        img = np.full((21, 21, 3), 200.0)
        out = rotate_by(img, math.radians(45))
        assert out[0, 0].sum() == 0.0  # corner leaves the source frame


class TestColorJitter:
    def test_identity_factors(self):
        cfg = AugmentConfig(jitter_bcs=0.0, jitter_hue=0.0)
        img = np.random.default_rng(8).integers(0, 255, size=(8, 8, 3)).astype(np.uint8)
        out = color_jitter(img, cfg, rng_for("jitter"))
        assert np.abs(out - img.astype(np.float64)).max() <= 1.0

    def test_brightness_scaling(self):
        # force brightness only: contrast/saturation identity via gray image
        cfg = AugmentConfig(jitter_bcs=0.0, jitter_hue=0.0)
        img = np.full((4, 4, 3), 100.0)
        out = color_jitter(img, cfg, rng_for("jitter", 2))
        assert out == pytest.approx(img)
        assert np.all((100.0 * 1.2) == np.clip(100.0 * 1.2, 0, 255))  # in range

    def test_gray_fixed_point_of_saturation_and_hue(self):
        cfg = AugmentConfig(jitter_bcs=0.0, jitter_hue=0.1)  # hue varies, bcs pinned
        img = np.full((6, 6, 3), 77.0)
        for i in range(5):
            out = color_jitter(img, cfg, rng_for("jitter", i))
            assert out == pytest.approx(img, abs=1e-9)

    def test_output_clamped(self):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 255, size=(16, 16, 3)).astype(np.float64)
        for i in range(10):
            out = color_jitter(img, CFG, rng_for("jitter", "clamp", i))
            assert out.min() >= 0.0 and out.max() <= 255.0


class TestMixup:
    def _batches(self, rng):
        imgs_a = rng.random((4, 3, 8, 8)).astype(np.float32)
        imgs_b = rng.random((4, 3, 8, 8)).astype(np.float32)
        labels_a = np.eye(2, dtype=np.float32)[rng.integers(0, 2, 4)]
        labels_b = np.eye(2, dtype=np.float32)[rng.integers(0, 2, 4)]
        return (imgs_a, labels_a), (imgs_b, labels_b)

    def test_lambda_one_returns_first_batch(self):
        rng = np.random.default_rng(10)
        a, b = self._batches(rng)

        class Forced:
            def beta(self, *args):
                return 1.0

        imgs, labels = mixup(a, b, 0.2, Forced())
        assert np.array_equal(imgs, a[0]) and np.array_equal(labels, a[1])

    def test_lambda_half_is_elementwise_mean(self):
        rng = np.random.default_rng(11)
        a, b = self._batches(rng)

        class Forced:
            def beta(self, *args):
                return 0.5

        imgs, labels = mixup(a, b, 0.2, Forced())
        assert imgs == pytest.approx(0.5 * a[0] + 0.5 * b[0])
        assert labels == pytest.approx(0.5 * a[1] + 0.5 * b[1])

    def test_labels_stay_on_simplex(self):
        rng = np.random.default_rng(12)
        for i in range(50):
            a, b = self._batches(rng)
            _, labels = mixup(a, b, 0.2, rng_for("mix", i))
            assert np.array_equal(labels.sum(axis=1), np.ones(4, dtype=np.float32))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        a, _ = self._batches(rng)
        bad = (np.zeros((3, 3, 8, 8), dtype=np.float32), np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            mixup(a, bad, 0.2, rng_for("mix"))


@pytest.fixture(scope="module")
def window_fixture():
    from qgjet.synth import generate_dataset, preset
    windows = generate_dataset(preset("easy", seed=21), 10)
    stats = compute_channel_stats(windows)
    return windows, stats


class TestTransforms:
    def test_every_output_shape_and_finite(self, window_fixture):
        windows, stats = window_fixture
        from qgjet.preprocess import preprocess_window
        pre = preprocess_window(windows[0], stats)
        for i in range(5):
            out = train_transform(pre, CFG, rng_for("aug", 0, i))
            assert out.shape == (3, 224, 224)
            assert np.isfinite(out).all()

    def test_validation_bit_deterministic(self, window_fixture):
        windows, stats = window_fixture
        a = validation_transform(windows[0], stats, CFG64)
        b = validation_transform(windows[0], stats, CFG64)
        assert a.tobytes() == b.tobytes()

    def test_constant_zero_window_constant_output(self, window_fixture):
        _, stats = window_fixture
        window = JetWindow(np.zeros((3, 125, 125), dtype=np.float32))
        out = validation_transform(window, stats, CFG64)
        for ch in range(3):
            assert np.all(out[ch] == out[ch, 0, 0])

    def test_validation_golden_against_straightline(self, window_fixture):
        windows, stats = window_fixture
        from oracles import straightline_preprocess
        pre = straightline_preprocess(windows[1].data, stats.mu, stats.sigma)
        hwc = np.transpose(pre, (1, 2, 0)).astype(np.float64)
        h = w = 64
        ys = (np.arange(h) + 0.5) * (125 / h) - 0.5
        xs = (np.arange(w) + 0.5) * (125 / w) - 0.5
        y0 = np.floor(ys).astype(int)
        x0 = np.floor(xs).astype(int)
        fy, fx = ys - y0, xs - x0
        yc = np.clip(np.stack([y0, y0 + 1]), 0, 124)
        xc = np.clip(np.stack([x0, x0 + 1]), 0, 124)
        oracle = np.zeros((h, w, 3))
        for i in range(h):
            for j in range(w):
                tl = hwc[yc[0, i], xc[0, j]]
                tr = hwc[yc[0, i], xc[1, j]]
                bl = hwc[yc[1, i], xc[0, j]]
                br = hwc[yc[1, i], xc[1, j]]
                top = tl * (1 - fx[j]) + tr * fx[j]
                bot = bl * (1 - fx[j]) + br * fx[j]
                oracle[i, j] = top * (1 - fy[i]) + bot * fy[i]
        ours = validation_transform(windows[1], stats, CFG64)
        assert ours == pytest.approx(np.transpose(oracle, (2, 0, 1)).astype(np.float32), abs=1e-6)

    def test_identity_train_matches_validation_within_quantization(self, window_fixture):
        windows, stats = window_fixture
        from qgjet.preprocess import preprocess_window
        identity = AugmentConfig(crop_scale=(1.0, 1.0), crop_ratio=(1.0, 1.0),
                                 out_size=64, flip_prob=0.0, max_rotation_deg=0.0,
                                 jitter_bcs=0.0, jitter_hue=0.0)
        pre = preprocess_window(windows[2], stats)
        train_out = train_transform(pre, identity, rng_for("identity"))
        val_out = validation_transform(windows[2], stats, identity)
        assert np.abs(train_out - val_out).max() <= 1.0 / 510.0 + 1e-7

    def test_conv_path_applies_imagenet_normalization(self, window_fixture):
        windows, stats = window_fixture
        cfg = AugmentConfig(out_size=64, imagenet_normalize=True)
        raw = AugmentConfig(out_size=64, imagenet_normalize=False)
        a = validation_transform(windows[3], stats, cfg)
        b = validation_transform(windows[3], stats, raw)
        assert a == pytest.approx(imagenet_normalize(b), abs=1e-6)


SPARSITY = ("zero", "single", "partial_channels", "sparse", "signed_zero", "dense")


def sparse_image(seed: int, h: int, w: int, mode: str) -> np.ndarray:
    """HWC float64 image in 0..255 with the requested support."""
    rng = np.random.default_rng(seed)
    img = np.zeros((h, w, 3))
    if mode == "single":
        img[rng.integers(h), rng.integers(w)] = rng.integers(1, 256, size=3)
    elif mode == "partial_channels":
        hot = rng.random((h, w)) < 0.2
        vals = rng.integers(0, 256, size=(h, w, 3)) * (rng.random((h, w, 3)) < 0.5)
        img[hot] = vals[hot]
    elif mode == "sparse":
        hot = rng.random((h, w)) < 0.05
        img[hot] = (rng.random((h, w, 3)) * 255)[hot]
    elif mode == "signed_zero":  # -0.0 is not +0.0 bit for bit
        hot = rng.random((h, w)) < 0.2
        img[hot] = -0.0
        img[rng.random((h, w)) < 0.05] = 17.0
    elif mode == "dense":
        img = rng.random((h, w, 3)) * 255
    return img


images = st.builds(sparse_image, st.integers(0, 2**32 - 1), st.integers(1, 37),
                   st.integers(1, 37), st.sampled_from(SPARSITY))


class TestSparseMatchesDenseOracle:
    """The support-only paths reproduce the dense references bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(images, st.floats(-2 * math.pi, 2 * math.pi))
    def test_rotate_by(self, img, theta):
        assert rotate_by(img, theta).tobytes() == dense_rotate_by(img, theta).tobytes()

    @pytest.mark.parametrize("deg", (0.0, 20.0, -20.0, 45.0, 90.0, 180.0, -135.0))
    @pytest.mark.parametrize("mode", SPARSITY)
    def test_rotate_by_named_angles(self, mode, deg):
        img = sparse_image(3, 23, 31, mode)
        theta = math.radians(deg)
        assert rotate_by(img, theta).tobytes() == dense_rotate_by(img, theta).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(images, st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.2, 0.9)),
           st.sampled_from((0.0, 0.1, 0.5)))
    def test_color_jitter(self, img, seed, bcs, hue):
        cfg = AugmentConfig(jitter_bcs=bcs, jitter_hue=hue)
        ours_rng, ref_rng = stream(seed, "jitter"), stream(seed, "jitter")
        ours = color_jitter(img, cfg, ours_rng)
        ref = dense_color_jitter(img, bcs, hue, ref_rng)
        assert ours.tobytes() == ref.tobytes()
        assert ours_rng.random() == ref_rng.random()  # same draws consumed

    def test_color_jitter_every_stage_order(self):
        seen = set()
        for seed in range(120):
            order = tuple(rng_for("order", seed).permutation(4))
            seen.add(order)
            img = sparse_image(seed, 19, 26, SPARSITY[seed % len(SPARSITY)])
            ours = color_jitter(img, CFG, rng_for("order", seed))
            ref = dense_color_jitter(img, CFG.jitter_bcs, CFG.jitter_hue, rng_for("order", seed))
            assert ours.tobytes() == ref.tobytes(), order
        assert len(seen) == 24

    @settings(max_examples=100, deadline=None)
    @given(images, st.integers(0, 2**32 - 1), st.sampled_from((1, 7, 32, 50)))
    def test_random_resized_crop(self, img, seed, out_size):
        cfg = AugmentConfig(out_size=out_size)
        src = np.rint(img).astype(np.uint8)
        ours = random_resized_crop(src, cfg, stream(seed, "rrc"))
        top, left, ch, cw = sample_crop_rect(src.shape[0], src.shape[1], cfg, stream(seed, "rrc"))
        ref = dense_resize_hwc(src[top:top + ch, left:left + cw], out_size, out_size)
        assert ours.tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(images, st.integers(1, 40), st.integers(1, 40))
    def test_resize_non_square_output(self, img, out_h, out_w):
        assert _resize_hwc(img, out_h, out_w).tobytes() == dense_resize_hwc(img, out_h, out_w).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(images, st.sampled_from((1, 9, 64, 125)))
    def test_bilinear_resize_chw(self, img, out_size):
        chw = np.ascontiguousarray(np.transpose(img / 255.0, (2, 0, 1)), dtype=np.float32)
        ref = dense_resize_hwc(np.transpose(chw, (1, 2, 0)), out_size, out_size)
        ref = np.ascontiguousarray(np.transpose(ref, (2, 0, 1)), dtype=np.float32)
        assert bilinear_resize_chw(chw, out_size).tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, (5, 7, 3), elements=st.floats(0, 1)))
    def test_hsv_to_rgb(self, hsv):
        hsv[0, :, 0] = np.arange(7) / 6.0  # every sector boundary and the wrap at 1
        assert _hsv_to_rgb(hsv).tobytes() == stacked_hsv_to_rgb(hsv).tobytes()
