import numpy as np
import pytest

from oracles import grad_check, sum_
from qgjet import autodiff as ad
from qgjet.autodiff import EVAL, TRAIN, ParameterRegistry, Tensor
from qgjet.models import (ConvConfig, HybridConfig, MultiHeadSelfAttention,
                          TinyConvNet, TinyViT, ViTConfig, build_model)
from qgjet.rng import stream


def tiny_vit(dtype=np.float32, depth=1, image=32, dim=8, heads=2, seed=7):
    cfg = ViTConfig(patch_size=16, embed_dim=dim, depth=depth, heads=heads)
    return TinyViT(cfg, image, stream(seed, "init"), dtype=dtype)


class TestViTConfig:
    def test_divisibility_checks(self):
        with pytest.raises(ValueError):
            TinyViT(ViTConfig(patch_size=16), 100, stream(0, "init"))
        with pytest.raises(ValueError):
            ViTConfig(embed_dim=10, heads=4)

    def test_patch_counts(self):
        # one positional row per patch plus the class token
        cfg = ViTConfig(patch_size=16, embed_dim=8, depth=0, heads=2)
        assert TinyViT(cfg, 224, stream(0, "init")).pos.shape == (1, 196 + 1, 8)
        assert TinyViT(cfg, 64, stream(0, "init")).pos.shape == (1, 16 + 1, 8)


class TestPatchEmbed:
    def test_sequence_lengths(self):
        model = tiny_vit(image=64, dim=16, heads=2)
        x = Tensor(np.zeros((2, 3, 64, 64), dtype=np.float32))
        seq = model.patch_embed(x)
        assert seq.shape == (2, 17, 16)

    def test_full_size_sequence(self):
        cfg = ViTConfig(patch_size=16, embed_dim=8, depth=0, heads=2)
        model = TinyViT(cfg, 224, stream(0, "init"))
        seq = model.patch_embed(Tensor(np.zeros((1, 3, 224, 224), dtype=np.float32)))
        assert seq.shape == (1, 197, 8)

    def test_zero_image_gives_class_token_plus_positions(self):
        model = tiny_vit()
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        seq = model.patch_embed(x)
        # zero pixels and zero patch bias: rows reduce to cls + positional rows
        expected = model.cls.data[0] + model.pos.data[0]
        assert seq.data[0] == pytest.approx(np.vstack([expected[:1], expected[1:]]), abs=1e-7)

    def test_patch_pixel_routing(self):
        # a pixel lit in patch (1,0) must only affect sequence row 1 + that row's projection
        model = tiny_vit(image=32)
        img = np.zeros((1, 3, 32, 32), dtype=np.float32)
        img[0, 0, 0, 16] = 1.0  # row 0, col 16 -> patch index 1 (row-major)
        base = model.patch_embed(Tensor(np.zeros_like(img))).data
        lit = model.patch_embed(Tensor(img)).data
        changed = np.where(np.abs(lit - base).sum(axis=-1)[0] > 0)[0]
        assert changed.tolist() == [2]  # +1 for the class token at row 0


class TestMHSA:
    def test_single_token_attention_is_identity_weight(self):
        reg = ParameterRegistry()
        attn = MultiHeadSelfAttention(reg, "attn", 8, 2, stream(1, "init"), dtype=np.float64)
        x = np.random.default_rng(2).normal(size=(1, 1, 8))
        out = attn(Tensor(x))
        v = x @ attn.p["wv"].data + attn.p["bv"].data
        expected = v @ attn.p["wo"].data + attn.p["bo"].data
        assert out.data == pytest.approx(expected, rel=1e-10)

    def test_zero_query_projection_gives_uniform_attention(self):
        reg = ParameterRegistry()
        attn = MultiHeadSelfAttention(reg, "attn", 8, 2, stream(3, "init"), dtype=np.float64)
        attn.p["wq"].data[:] = 0.0
        attn.p["bq"].data[:] = 0.0
        x = np.random.default_rng(4).normal(size=(1, 5, 8))
        out = attn(Tensor(x))
        v = x @ attn.p["wv"].data + attn.p["bv"].data
        expected = np.tile(v.mean(axis=1), (1, 5, 1)) @ attn.p["wo"].data + attn.p["bo"].data
        assert out.data == pytest.approx(expected, rel=1e-8)

    def test_attention_rows_sum_to_one(self):
        reg = ParameterRegistry()
        attn = MultiHeadSelfAttention(reg, "attn", 8, 2, stream(5, "init"), dtype=np.float64)
        x = Tensor(np.random.default_rng(6).normal(size=(1, 6, 8)))
        q = attn._split_heads(ad.add(ad.matmul(x, attn.p["wq"]), attn.p["bq"]), 1, 6)
        k = attn._split_heads(ad.matmul(x, attn.p["wk"]), 1, 6)
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), attn.scale)
        rows = ad.softmax(scores).data.sum(axis=-1)
        assert rows == pytest.approx(np.ones_like(rows), abs=1e-6)


class TestEncoderBlock:
    def test_zero_weights_identity(self):
        model = tiny_vit(dtype=np.float64)
        block = model.blocks[0]
        for p in (block.attn.p["wq"], block.attn.p["wk"], block.attn.p["wv"],
                  block.attn.p["wo"], block.attn.p["bq"], block.attn.p["bv"],
                  block.attn.p["bo"], block.w1, block.b1, block.w2, block.b2):
            p.data[:] = 0.0
        x = np.random.default_rng(7).normal(size=(1, 5, 8))
        out = block(Tensor(x))
        assert np.array_equal(out.data, x)

    def test_output_shape(self):
        model = tiny_vit()
        x = Tensor(np.random.default_rng(8).normal(size=(2, 5, 8)).astype(np.float32))
        assert model.blocks[0](x).shape == (2, 5, 8)

    def test_gradcheck_through_block(self):
        model = tiny_vit(dtype=np.float64)
        block = model.blocks[0]
        gen = np.random.default_rng(9)
        for _, t in model.registry.items():
            t.data = gen.normal(0.0, 0.3, size=t.shape)
        x = Tensor(gen.normal(size=(1, 4, 8)))
        w = Tensor(gen.normal(size=(1, 4, 8)))
        params = [block.attn.p[k] for k in ("wq", "wk", "wv", "wo")] + [block.w1, block.w2]
        err = grad_check(lambda: sum_(ad.mul(block(x), w)), params, eps=1e-5)
        assert err <= 1e-4


class TestViTForward:
    def test_depth_zero_feature_is_normed_class_token(self):
        cfg = ViTConfig(patch_size=16, embed_dim=8, depth=0, heads=2)
        model = TinyViT(cfg, 32, stream(10, "init"), dtype=np.float64)
        x = Tensor(np.random.default_rng(11).normal(size=(1, 3, 32, 32)))
        feat = model.features(x)
        seq = model.patch_embed(x)
        normed = ad.layer_norm(seq, model.norm_g, model.norm_b)
        assert feat.data == pytest.approx(normed.data[:, 0], rel=1e-10)

    def test_eval_deterministic(self):
        model = tiny_vit(depth=2)
        x = Tensor(np.random.default_rng(12).normal(size=(2, 3, 32, 32)).astype(np.float32))
        a = model.forward(x, EVAL).data
        b = model.forward(x, EVAL).data
        assert np.array_equal(a, b)

    def test_feature_dimension(self):
        for dim in (8, 16):
            model = tiny_vit(dim=dim)
            x = Tensor(np.zeros((3, 3, 32, 32), dtype=np.float32))
            assert model.features(x).shape == (3, dim)

    def test_positional_embeddings_break_patch_permutation(self):
        model = tiny_vit(image=32, seed=13)
        rng = np.random.default_rng(14)
        img = rng.random((1, 3, 32, 32)).astype(np.float32)
        swapped = img.copy()
        # swap patch (0,0) and patch (0,1) tiles
        swapped[:, :, :16, :16], swapped[:, :, :16, 16:] = \
            img[:, :, :16, 16:].copy(), img[:, :, :16, :16].copy()
        with_pos = model.features(Tensor(img)).data
        with_pos_swapped = model.features(Tensor(swapped)).data
        assert np.abs(with_pos - with_pos_swapped).max() > 1e-5

        model.pos.data[:] = 0.0
        no_pos = model.features(Tensor(img)).data
        no_pos_swapped = model.features(Tensor(swapped)).data
        assert no_pos == pytest.approx(no_pos_swapped, abs=1e-5)

    def test_e2e_gradcheck_tiny(self):
        model = tiny_vit(dtype=np.float64)
        gen = np.random.default_rng(42)
        for _, t in model.registry.items():
            t.data = gen.normal(0.0, 0.3, size=t.shape)
        mag = gen.uniform(0.3, 1.0, size=(2, 3, 32, 32))
        sgn = gen.choice([-1.0, 1.0], size=(2, 3, 32, 32))
        images = Tensor(mag * sgn)
        targets = Tensor(np.array([[0.7, 0.3], [0.2, 0.8]]))
        params = [t for _, t in model.registry.items()]
        err = grad_check(lambda: ad.cross_entropy_soft(model.forward(images), targets),
                            params, eps=1e-4)
        assert err <= 1e-4


class TestConvForward:
    def test_gap_of_constant_through_identity_kernels(self):
        cfg = ConvConfig(widths=(3,), kernel=1)
        model = TinyConvNet(cfg, stream(15, "init"), dtype=np.float64)
        model.kernels[0].data[:] = np.eye(3)[:, :, None, None]
        model.biases[0].data[:] = 0.0
        x = Tensor(np.full((1, 3, 8, 8), 2.5))
        feat = model.features(x)
        assert feat.data == pytest.approx(np.full((1, 3), 2.5))

    def test_feature_length(self):
        cfg = ConvConfig(widths=(4, 6))
        model = TinyConvNet(cfg, stream(16, "init"))
        x = Tensor(np.random.default_rng(17).normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert model.features(x).shape == (2, 6)

    def test_single_stage_matches_naive_oracle(self):
        cfg = ConvConfig(widths=(4,), kernel=3)
        model = TinyConvNet(cfg, stream(18, "init"), dtype=np.float64)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(1, 3, 8, 8))
        k = model.kernels[0].data
        b = model.biases[0].data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        conv = np.zeros((1, 4, 8, 8))
        for o in range(4):
            for i in range(8):
                for j in range(8):
                    for c in range(3):
                        for u in range(3):
                            for v in range(3):
                                conv[0, o, i, j] += xp[0, c, i + u, j + v] * k[o, c, u, v]
        expected = np.maximum(conv + b[None], 0.0)[:, :, ::2, ::2].mean(axis=(2, 3))
        feat = model.features(Tensor(x))
        assert feat.data == pytest.approx(expected, rel=1e-5)


class TestHeads:
    def test_linear_head_bias_only(self):
        model = tiny_vit()
        model.head_w.data[:] = 0.0
        model.head_b.data[:] = np.array([0.3, -0.3], dtype=np.float32)
        x = Tensor(np.random.default_rng(20).normal(size=(2, 3, 32, 32)).astype(np.float32))
        logits = model.forward(x)
        assert logits.data == pytest.approx(np.tile([0.3, -0.3], (2, 1)), abs=1e-6)

    def test_binary_output(self):
        model = tiny_vit()
        x = Tensor(np.zeros((4, 3, 32, 32), dtype=np.float32))
        assert model.forward(x).shape == (4, 2)

    def test_linear_head_matches_matmul_oracle(self):
        model = tiny_vit(dim=16, dtype=np.float64)
        x = Tensor(np.random.default_rng(21).normal(size=(3, 3, 32, 32)))
        feats = model.features(x).data
        expected = feats @ model.head_w.data + model.head_b.data
        assert model.forward(x).data == pytest.approx(expected, rel=1e-12)


class TestHybrid:
    def _hybrid(self, kind="hybrid2", image=32, dtype=np.float32):
        vit_cfg = ViTConfig(patch_size=16, embed_dim=16, depth=1, heads=2)
        conv_cfg = ConvConfig(widths=(4, 8))
        return build_model(kind, image, stream(22, "init"), dtype=dtype,
                           vit_cfg=vit_cfg, conv_cfg=conv_cfg)

    def test_head_dimensions(self):
        model = self._hybrid()
        assert model.w1.shape == (16 + 8, 512)
        assert model.w2.shape == (512, 2)

    def test_triple_concat_dimension(self):
        model = self._hybrid("hybrid3")
        assert model.w1.shape == (16 + 8 + 32, 512)

    def test_eval_mode_deterministic(self):
        model = self._hybrid()
        x = Tensor(np.random.default_rng(23).normal(size=(2, 3, 32, 32)).astype(np.float32))
        a = model.forward(x, EVAL).data
        b = model.forward(x, EVAL).data
        assert np.array_equal(a, b)

    def test_train_mode_dropout_varies(self):
        model = self._hybrid()
        x = Tensor(np.random.default_rng(24).normal(size=(4, 3, 32, 32)).astype(np.float32))
        a = model.forward(x, TRAIN, stream(1, "drop")).data
        b = model.forward(x, TRAIN, stream(2, "drop")).data
        assert not np.array_equal(a, b)

    def test_zero_final_weights_give_bias(self):
        model = self._hybrid()
        model.w2.data[:] = 0.0
        model.b2.data[:] = np.array([1.5, -0.5], dtype=np.float32)
        x = Tensor(np.random.default_rng(25).normal(size=(3, 3, 32, 32)).astype(np.float32))
        assert model.forward(x).data == pytest.approx(np.tile([1.5, -0.5], (3, 1)))

    def test_backbone_count_validated(self):
        from qgjet.models import HybridModel
        with pytest.raises(ValueError):
            HybridModel([tiny_vit()], HybridConfig(), stream(0, "init"), ParameterRegistry())

    def test_paths(self):
        assert self._hybrid().is_transformer_path is True
        assert self._hybrid().uses_imagenet_norm is False
        conv = build_model("conv", 32, stream(26, "init"))
        assert conv.is_transformer_path is False and conv.uses_imagenet_norm is True

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_model("resnet50", 32, stream(0, "init"))
