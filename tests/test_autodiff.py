import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grad_check, sum_
from qgjet import autodiff as ad
from qgjet.autodiff import EVAL, TRAIN, ParameterRegistry, Tape, Tensor, _accum


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rand64(rng, shape, grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=grad)


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def naive_conv(x, kernels, stride, pad):
    b, ci, h, w = x.shape
    co, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((b, co, oh, ow))
    for bi in range(b):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    for c in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                out[bi, o, i, j] += (xp[bi, c, i * stride + u, j * stride + v]
                                                     * kernels[o, c, u, v])
    return out


class TestMatmul:
    def test_identity(self):
        m = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = ad.matmul(Tensor(np.eye(3)), Tensor(m))
        assert np.array_equal(out.data, m)

    def test_hand_product(self):
        out = ad.matmul(t64([[1, 2], [3, 4]]), t64([[5, 6], [7, 8]]))
        assert np.array_equal(out.data, [[19, 22], [43, 50]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(7, 5)), rng.normal(size=(5, 3))
        out = ad.matmul(Tensor(a), Tensor(b))
        assert out.data == pytest.approx(triple_loop_matmul(a, b), rel=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        a, b = rand64(rng, (3, 4)), rand64(rng, (4, 2))
        assert grad_check(lambda: sum_(ad.matmul(a, b)), [a, b]) < 1e-7

    def test_batched_gradients(self):
        rng = np.random.default_rng(2)
        a, b = rand64(rng, (2, 3, 4)), rand64(rng, (4, 5))
        w = Tensor(rng.normal(size=(2, 3, 5)))
        assert grad_check(lambda: sum_(ad.mul(ad.matmul(a, b), w)), [a, b]) < 1e-7

    def test_stacked_both_sides(self):
        rng = np.random.default_rng(3)
        a, b = rand64(rng, (2, 2, 3, 4)), rand64(rng, (2, 2, 4, 3))
        w = Tensor(rng.normal(size=(2, 2, 3, 3)))
        assert grad_check(lambda: sum_(ad.mul(ad.matmul(a, b), w)), [a, b]) < 1e-7


class TestConv2d:
    def test_one_by_one_identity(self):
        x = Tensor(np.random.default_rng(4).normal(size=(1, 2, 5, 5)))
        k = Tensor(np.ones((2, 2, 1, 1)) * np.eye(2)[:, :, None, None])
        out = ad.conv2d(x, k, stride=1, padding=0)
        assert out.data == pytest.approx(x.data)

    def test_all_ones_kernel(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, k)
        assert out.shape == (1, 1, 3, 3)
        assert np.all(out.data == 9.0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_naive_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(5)
        h = 5 if (5 + 2 * pad - 3) % stride == 0 else 6
        x = rng.normal(size=(2, 3, h, h))
        k = rng.normal(size=(4, 3, 3, 3))
        out = ad.conv2d(Tensor(x), Tensor(k), stride=stride, padding=pad)
        assert out.data == pytest.approx(naive_conv(x, k, stride, pad), rel=1e-5)

    def test_non_integral_geometry_rejected(self):
        with pytest.raises(ValueError):
            ad.conv2d(Tensor(np.zeros((1, 3, 6, 6))), Tensor(np.zeros((2, 3, 3, 3))),
                      stride=2, padding=1)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x, k = rand64(rng, (2, 3, 6, 6)), rand64(rng, (4, 3, 3, 3))
        w = Tensor(rng.normal(size=(2, 4, 6, 6)))
        err = grad_check(lambda: sum_(ad.mul(ad.conv2d(x, k, 1, 1), w)), [x, k])
        assert err < 1e-6


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = ad.layer_norm(t64([[2.0, 2.0, 2.0]], grad=False), t64([1, 1, 1], grad=False),
                            t64([0, 0, 0], grad=False))
        assert np.abs(out.data).max() < 1e-6

    def test_unit_variance_row_unchanged(self):
        out = ad.layer_norm(t64([[1.0, -1.0]], grad=False), t64([1, 1], grad=False),
                            t64([0, 0], grad=False))
        assert out.data == pytest.approx(np.array([[1.0, -1.0]]), rel=1e-3)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        x, g, b = rand64(rng, (3, 5)), rand64(rng, 5), rand64(rng, 5)
        w = Tensor(rng.normal(size=(3, 5)))
        err = grad_check(lambda: sum_(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b])
        assert err < 1e-5


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(t64([0.0, 0.0], grad=False))
        assert out.data == pytest.approx([0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        a = ad.softmax(Tensor(x)).data
        b = ad.softmax(Tensor(x + 3.7)).data
        assert a == pytest.approx(b, abs=1e-7)

    def test_extreme_logits_no_overflow(self):
        out = ad.softmax(t64([1000.0, 0.0], grad=False))
        assert out.data == pytest.approx([1.0, 0.0])
        assert np.isfinite(out.data).all()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = ad.softmax(Tensor(np.array(row)))
        assert out.data.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(out.data >= 0)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = rand64(rng, (2, 5))
        w = Tensor(rng.normal(size=(2, 5)))
        assert grad_check(lambda: sum_(ad.mul(ad.softmax(x), w)), [x]) < 1e-6


class TestActivationsAndDropout:
    def test_relu_values(self):
        out = ad.relu(t64([-3.0, 0.0, 3.0], grad=False))
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])

    def test_gelu_matches_erf_form_loosely(self):
        x = np.linspace(-3, 3, 41)
        from math import erf
        exact = np.array([0.5 * v * (1 + erf(v / math.sqrt(2))) for v in x])
        out = ad.gelu(Tensor(x)).data
        assert np.abs(out - exact).max() < 1e-3

    def test_dropout_eval_identity(self):
        x = np.random.default_rng(10).normal(size=(50,))
        out = ad.dropout(Tensor(x), 0.5, EVAL)
        assert np.array_equal(out.data, x)

    def test_dropout_train_preserves_mean(self):
        rng = np.random.default_rng(11)
        n = 100_000
        x = np.ones(n)
        out = ad.dropout(Tensor(x), 0.5, TRAIN, rng).data
        # kept entries are 2.0; mean ~ 1 with SE = 2*sqrt(p(1-p)/n)
        se = 2.0 * math.sqrt(0.25 / n)
        assert abs(out.mean() - 1.0) < 3 * se

    @pytest.mark.parametrize("mode, p", [(EVAL, 0.5), (TRAIN, 0.0)])
    def test_dropout_identity_returns_input_off_the_tape(self, mode, p):
        rng = np.random.default_rng(30)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)))

        def upstream_grad(with_dropout):
            w.grad = None
            with Tape() as tape:
                h = ad.matmul(x, w)
                n_before = len(tape.nodes)
                if with_dropout:
                    assert ad.dropout(h, p, mode, rng) is h
                    assert len(tape.nodes) == n_before
                loss = sum_(ad.mul(h, h))
            ad.backward(tape, loss)
            return w.grad.copy()

        assert upstream_grad(True).tobytes() == upstream_grad(False).tobytes()

    def test_dropout_train_needs_rng(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 0.5, TRAIN)

    def test_gradients(self):
        rng = np.random.default_rng(12)
        x = rand64(rng, (7,))
        assert grad_check(lambda: sum_(ad.relu(x)), [x]) < 1e-6
        assert grad_check(lambda: sum_(ad.gelu(x)), [x]) < 1e-6


class TestCrossEntropySoft:
    def test_confident_correct_logits(self):
        logits = t64([[100.0, 0.0]], grad=False)
        target = t64([[1.0, 0.0]], grad=False)
        assert float(ad.cross_entropy_soft(logits, target).data) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_target_zero_logits(self):
        loss = ad.cross_entropy_soft(t64([[0.0, 0.0]], grad=False),
                                     t64([[0.5, 0.5]], grad=False))
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_linear_in_target(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(1, 4))
        ya = np.eye(4)[[0]]
        yb = np.eye(4)[[2]]
        la = float(ad.cross_entropy_soft(Tensor(z), Tensor(ya)).data)
        lb = float(ad.cross_entropy_soft(Tensor(z), Tensor(yb)).data)
        lmix = float(ad.cross_entropy_soft(Tensor(z), Tensor(0.5 * ya + 0.5 * yb)).data)
        assert lmix == pytest.approx(0.5 * (la + lb), rel=1e-12)

    def test_rejects_off_simplex_targets(self):
        with pytest.raises(ValueError):
            ad.cross_entropy_soft(t64([[0.0, 0.0]], grad=False), t64([[0.7, 0.7]], grad=False))

    def test_gradients(self):
        rng = np.random.default_rng(14)
        z = rand64(rng, (3, 4))
        probs = rng.dirichlet(np.ones(4), size=3)
        assert grad_check(lambda: ad.cross_entropy_soft(z, Tensor(probs)), [z]) < 1e-7


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64([1.0, 2.0, 3.0])
        with Tape() as tape:
            loss = sum_(x)
        ad.backward(tape, loss)
        assert np.array_equal(x.grad, np.ones(3))

    def test_quadratic_gradient(self):
        x = t64([1.0, -2.0, 0.5])
        with Tape() as tape:
            loss = sum_(ad.mul(x, x))
        ad.backward(tape, loss)
        assert x.grad == pytest.approx(2 * x.data)

    def test_gradients_accumulate_until_zeroed(self):
        x = t64([1.0, 2.0])
        for _ in range(2):
            with Tape() as tape:
                loss = sum_(x)
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, [2.0, 2.0])
        reg = ParameterRegistry()
        reg.add("x", x)
        reg.zero_grad()
        assert x.grad is None

    def test_non_scalar_rejected(self):
        x = t64([1.0, 2.0])
        with Tape() as tape:
            y = ad.mul(x, 2.0)
        with pytest.raises(ValueError):
            ad.backward(tape, y)

    def test_backward_bit_deterministic(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)

        def run():
            x.grad = w.grad = None
            with Tape() as tape:
                loss = sum_(ad.gelu(ad.matmul(x, w)))
            ad.backward(tape, loss)
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)

    def test_inputs_without_grad_stay_off_the_tape(self):
        rng = np.random.default_rng(16)
        x, w = rand64(rng, (4, 6), grad=False), rand64(rng, (4, 6))
        with Tape() as tape:
            h = ad.relu(x)  # no input needs a gradient: no node
            assert tape.nodes == [] and not h.requires_grad
            loss = sum_(ad.mul(h, w))  # mixed: only w needs one
        assert len(tape.nodes) == 2
        ad.backward(tape, loss)
        assert x.grad is None and h.grad is None
        assert np.array_equal(w.grad, h.data)

    def test_reused_tensor_accumulates(self):
        x = t64([3.0])
        with Tape() as tape:
            loss = sum_(ad.add(ad.mul(x, x), x))  # x^2 + x -> 2x + 1
        ad.backward(tape, loss)
        assert x.grad == pytest.approx([7.0])

    def test_backward_consumes_the_tape(self):
        rng = np.random.default_rng(21)
        x, w = rand64(rng, (4, 6)), rand64(rng, (6, 3))
        with Tape() as tape:
            h = ad.gelu(ad.matmul(x, w))
            loss = sum_(h)
        activation = weakref.ref(h.data)
        del h
        ad.backward(tape, loss)
        assert tape.nodes == []
        # the caller still holds the loss, but no intermediate output
        assert activation() is None and loss.grad is not None

    @pytest.mark.parametrize("layout", ("transposed", "broadcast"))
    def test_first_gradient_is_a_c_contiguous_copy(self, layout):
        """The first gradient is stored as a C-ordered copy in the tensor's
        dtype, equal to what zero-filling and adding would give. Signed zeros
        may differ: the copy keeps the -0.0 that relu's backward makes from a
        negative upstream gradient, where 0.0 + g gives +0.0. Both update the
        weights alike, so the comparison is ``np.array_equal``."""
        rng = np.random.default_rng(22)
        t = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        if layout == "transposed":
            g = rng.normal(size=(4, 3)).T  # float64 and F-ordered
        else:
            row = rng.normal(size=4) * np.array([1.0, 0.0, 1.0, 1.0])
            g = np.broadcast_to(-np.abs(row) * (row > 0), (3, 4))  # stride-0 rows with -0.0
        expected = np.zeros_like(t.data)
        expected += g
        _accum(t, g)
        assert t.grad.dtype == np.float32 and t.grad.flags.c_contiguous
        assert np.array_equal(t.grad, expected)
        assert not np.shares_memory(t.grad, g)


class TestStructuralOps:
    def test_reshape_transpose_index_concat_grads(self):
        rng = np.random.default_rng(16)
        x = rand64(rng, (2, 3, 4))

        def f():
            y = ad.transpose(ad.reshape(x, (6, 4)), (1, 0))
            z = ad.concat([y, y], axis=0)
            return sum_(ad.mul(ad.index(z, (slice(0, 3),)), 2.0))

        assert grad_check(f, [x]) < 1e-8

    def test_broadcast_to_grad(self):
        rng = np.random.default_rng(17)
        x = rand64(rng, (1, 1, 5))
        w = Tensor(rng.normal(size=(3, 2, 5)))
        assert grad_check(lambda: sum_(ad.mul(ad.broadcast_to(x, (3, 2, 5)), w)), [x]) < 1e-8

    def test_mean_grad(self):
        rng = np.random.default_rng(18)
        x = rand64(rng, (2, 3, 4))
        assert grad_check(lambda: sum_(ad.mean_(x, axis=(-2, -1))), [x]) < 1e-8


class TestGradCheckHarness:
    def test_linear_map_is_exact(self):
        x = t64([1.0, 2.0, 3.0])
        err = grad_check(lambda: sum_(ad.mul(x, 4.0)), [x])
        assert err <= 1e-9

    def test_layer_norm_generic_point(self):
        rng = np.random.default_rng(19)
        x, g, b = rand64(rng, (2, 6)), rand64(rng, 6), rand64(rng, 6)
        w = Tensor(rng.normal(size=(2, 6)))
        err = grad_check(lambda: sum_(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b])
        assert err <= 1e-5


class TestParameterRegistry:
    def test_names_unique(self):
        reg = ParameterRegistry()
        reg.add("a.w", Tensor(np.zeros(3)))
        with pytest.raises(ValueError):
            reg.add("a.w", Tensor(np.zeros(3)))

    def test_every_parameter_needs_grad_and_counts(self):
        reg = ParameterRegistry()
        w = reg.add("backbone.w", Tensor(np.zeros((2, 3))))
        reg.add("backbone.b", Tensor(np.zeros(3)))
        reg.add("head.w", Tensor(np.zeros(4)))
        assert reg["backbone.w"] is w
        assert all(t.requires_grad for _, t in reg.items())
        assert reg.n_total() == 13

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(20)
        reg = ParameterRegistry()
        reg.add("w", Tensor(rng.normal(size=(3, 3)).astype(np.float32)))
        state = reg.state_dict()
        reg["w"].data[:] = 0
        reg.load_state_dict(state)
        assert np.array_equal(reg["w"].data, state["w"])
