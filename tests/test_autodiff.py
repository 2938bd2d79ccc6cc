import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavestack import autodiff as ad
from wavestack import model as md
from wavestack.autodiff import Tape
from wavestack.errors import InputTooShort, NonFiniteLoss, ShapeMismatch


def _leaf(tape, values):
    return tape.tensor(np.asarray(values, dtype=np.float64))


class TestAffine:
    def test_identity(self):
        tape = Tape()
        y = ad.affine(_leaf(tape, [3.0, -1.0]), _leaf(tape, np.eye(2)),
                      _leaf(tape, [0.0, 0.0]), tape)
        np.testing.assert_array_equal(y.value, [3.0, -1.0])

    def test_bias_only(self):
        tape = Tape()
        y = ad.affine(_leaf(tape, [9.0, 9.0]), _leaf(tape, np.zeros((1, 2))),
                      _leaf(tape, [5.0]), tape)
        np.testing.assert_array_equal(y.value, [5.0])

    def test_hand_computed(self):
        tape = Tape()
        y = ad.affine(_leaf(tape, [1.0, 1.0]),
                      _leaf(tape, [[1.0, 2.0], [3.0, 4.0]]),
                      _leaf(tape, [0.0, 1.0]), tape)
        np.testing.assert_array_equal(y.value, [3.0, 8.0])

    def test_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            ad.affine(_leaf(tape, [1.0, 2.0, 3.0]),
                      _leaf(tape, np.eye(2)), _leaf(tape, [0.0, 0.0]), tape)

    @pytest.mark.parametrize("x,w,b", [
        ([[[1.0, 2.0]]], np.eye(2), [0.0, 0.0]),
        ([1.0, 2.0], [1.0, 2.0], [0.0]),
        ([1.0, 2.0], np.eye(2), [[0.0, 0.0]]),
    ], ids=["x_rank_3", "w_rank_1", "b_rank_2"])
    def test_rank_mismatch(self, x, w, b):
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            ad.affine(_leaf(tape, x), _leaf(tape, w), _leaf(tape, b), tape)

    def test_gradients(self):
        rng = np.random.default_rng(0)
        params = {"W": rng.normal(size=(3, 4)), "b": rng.normal(size=3),
                  "x": rng.normal(size=4)}

        def build(tape, leaves):
            y = ad.affine(leaves["x"], leaves["W"], leaves["b"], tape)
            return ad.mse_loss(y, np.array([1.0, -2.0, 0.5]), tape)

        assert ad.grad_check(build, params) < 1e-8


class TestRelu:
    def test_values(self):
        tape = Tape()
        y = ad.relu(_leaf(tape, [-1.0, 0.0, 2.0]), tape)
        np.testing.assert_array_equal(y.value, [0.0, 0.0, 2.0])

    def test_all_negative_zero_gradient(self):
        tape = Tape()
        x = _leaf(tape, [-1.0, -2.0])
        loss = ad.mse_loss(ad.relu(x, tape), np.zeros(2), tape)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_gradient_away_from_kink(self):
        params = {"x": np.array([3.0, -2.0, 0.7])}

        def build(tape, leaves):
            return ad.mse_loss(ad.relu(leaves["x"], tape),
                               np.zeros(3), tape)

        assert ad.grad_check(build, params, eps=1e-6) < 1e-6


class TestDilatedConv:
    def test_kernel_one_identity(self):
        tape = Tape()
        x = _leaf(tape, [1.0, 2.0, 3.0])
        y = ad.dilated_conv1d(x, _leaf(tape, [1.0]), 4, tape)
        np.testing.assert_array_equal(y.value, x.value)

    def test_difference_kernel(self):
        tape = Tape()
        y = ad.dilated_conv1d(_leaf(tape, [1.0, 2.0, 3.0, 4.0, 5.0]),
                              _leaf(tape, [1.0, -1.0]), 2, tape)
        np.testing.assert_array_equal(y.value, [2.0, 2.0, 2.0])

    def test_too_short(self):
        tape = Tape()
        with pytest.raises(InputTooShort):
            ad.dilated_conv1d(_leaf(tape, [1.0, 2.0]),
                              _leaf(tape, [1.0, 1.0]), 3, tape)

    @pytest.mark.parametrize("kernel,dilation", [([], 1), ([1.0], 0)],
                             ids=["kernel_0", "dilation_0"])
    def test_kernel_or_dilation_below_one(self, kernel, dilation):
        tape = Tape()
        with pytest.raises(ValueError):
            ad.dilated_conv1d(_leaf(tape, [1.0, 2.0]), _leaf(tape, kernel),
                              dilation, tape)

    @pytest.mark.parametrize("lead", [(3,), (2, 2)])
    def test_batch_rows_equal_definition(self, lead):
        rng = np.random.default_rng(2)
        x, k = rng.normal(size=lead + (20,)), rng.normal(size=3)
        tape = Tape()
        y = ad.dilated_conv1d(_leaf(tape, x), _leaf(tape, k), 2, tape)
        want = sum(k[j] * x[..., 4 - 2 * j:20 - 2 * j] for j in range(3))
        np.testing.assert_allclose(y.value, want, rtol=0, atol=1e-13)

    def test_gradients(self):
        rng = np.random.default_rng(1)
        params = {"x": rng.normal(size=12), "k": rng.normal(size=3)}

        def build(tape, leaves):
            y = ad.dilated_conv1d(leaves["x"], leaves["k"], 2, tape)
            return ad.mse_loss(y, np.zeros(8), tape)

        assert ad.grad_check(build, params) < 1e-5

    def test_recording_keeps_no_taps(self):
        """A recording convolution keeps its input, which is already the
        input node's value, and builds its k taps again in backward: what
        the call leaves allocated is about its output, where keeping the
        taps [k, B * t_out] would add k outputs more."""
        rng = np.random.default_rng(0)
        tape = Tape()
        x = _leaf(tape, rng.normal(size=(64, 720)))
        kernel = _leaf(tape, rng.normal(size=7))
        tracemalloc.start()
        try:
            y = ad.dilated_conv1d(x, kernel, 4, tape)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert y.value.shape == (64, 696)
        assert held < 1.5 * y.value.nbytes, held / y.value.nbytes


def _strided_vjp_x(g, kernel, dilation, shape):
    """The conv input gradient as one strided slice add per tap over the
    input's shape: the reference for the flat-buffer VJP."""
    span = (len(kernel) - 1) * dilation
    t_out = shape[-1] - span
    gx = np.zeros(shape)
    for j in range(len(kernel)):
        start = span - j * dilation
        gx[..., start:start + t_out] += kernel[j] * g
    return gx


def _with_zeros(rng, values, share):
    """`values` with about `share` of its elements set to +0.0 or -0.0."""
    draw = rng.random(values.shape)
    values[draw < share / 2] = -0.0
    values[(share / 2 <= draw) & (draw < share)] = 0.0
    return values


class TestConvInputGradientBits:
    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 9), dilation=st.integers(1, 4),
           extra=st.integers(0, 6),
           lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
           zero_share=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_strided_adds(self, k, dilation, extra, lead,
                                           zero_share, seed):
        rng = np.random.default_rng(seed)
        span = (k - 1) * dilation
        shape = lead + (span + 1 + extra,)
        kernel = _with_zeros(rng, rng.normal(size=k), zero_share / 3)
        g = _with_zeros(rng, rng.normal(size=lead + (1 + extra,)),
                        zero_share)
        tape = Tape()
        x = _leaf(tape, rng.normal(size=shape))
        y = ad.dilated_conv1d(x, _leaf(tape, kernel), dilation, tape)
        (vjp_x,) = [vjp for parent, vjp in y.parents if parent is x]
        got = vjp_x(g)
        want = _strided_vjp_x(g, kernel, dilation, shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _sliced_vjp_kernel(g, x, k, dilation):
    """The conv kernel gradient as one product of the taps, each sliced
    from the forward input: the reference for the VJP that rebuilds
    them."""
    span = (k - 1) * dilation
    t_out = x.shape[-1] - span
    taps = np.stack([x[..., span - j * dilation:span - j * dilation + t_out]
                     for j in range(k)])
    return np.matmul(taps.reshape(k, -1), g.reshape(-1))


class TestConvKernelGradientBits:
    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 9), dilation=st.integers(1, 4),
           extra=st.integers(0, 6),
           lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
           zero_share=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_sliced_taps(self, k, dilation, extra, lead,
                                          zero_share, seed):
        rng = np.random.default_rng(seed)
        span = (k - 1) * dilation
        shape = lead + (span + 1 + extra,)
        xv = _with_zeros(rng, rng.normal(size=shape), zero_share)
        g = _with_zeros(rng, rng.normal(size=lead + (1 + extra,)),
                        zero_share)
        tape = Tape()
        x = _leaf(tape, xv)
        kernel = _leaf(tape, rng.normal(size=k))
        y = ad.dilated_conv1d(x, kernel, dilation, tape)
        (vjp_k,) = [vjp for parent, vjp in y.parents if parent is kernel]
        want = _sliced_vjp_kernel(g, xv, k, dilation)
        got = vjp_k(g)
        assert got.shape == want.shape == (k,)
        assert got.tobytes() == want.tobytes()
        out = np.full(k, np.nan)
        assert vjp_k(g, out=out) is out
        assert out.tobytes() == want.tobytes()


class TestPooling:
    def test_window_one_identity(self):
        tape = Tape()
        x = _leaf(tape, [1.0, 3.0, 2.0])
        np.testing.assert_array_equal(ad.maxpool1d(x, 1, tape).value, x.value)
        np.testing.assert_array_equal(ad.avgpool1d(x, 1, tape).value, x.value)

    def test_window_two(self):
        tape = Tape()
        x = _leaf(tape, [1.0, 3.0, 2.0, 2.0])
        np.testing.assert_array_equal(ad.maxpool1d(x, 2, tape).value,
                                      [3.0, 2.0])
        np.testing.assert_array_equal(ad.avgpool1d(x, 2, tape).value,
                                      [2.0, 2.0])

    def test_maxpool_gradient_one_hot(self):
        tape = Tape()
        x = _leaf(tape, [1.0, 3.0, 2.0, 2.0])
        loss = ad.mse_loss(ad.maxpool1d(x, 2, tape),
                           np.zeros(2), tape)
        tape.backward(loss)
        # gradient lands on the argmax (first index on ties)
        assert x.grad[0] == 0.0 and x.grad[1] != 0.0
        assert x.grad[2] != 0.0 and x.grad[3] == 0.0

    def test_pool_gradients(self):
        rng = np.random.default_rng(2)
        params = {"x": rng.normal(size=9)}

        def build_max(tape, leaves):
            return ad.mse_loss(ad.maxpool1d(leaves["x"], 3, tape),
                               np.ones(3), tape)

        def build_avg(tape, leaves):
            return ad.mse_loss(ad.avgpool1d(leaves["x"], 3, tape),
                               np.ones(3), tape)

        assert ad.grad_check(build_max, params) < 1e-6
        assert ad.grad_check(build_avg, params) < 1e-6

    def test_too_short(self):
        tape = Tape()
        with pytest.raises(InputTooShort):
            ad.maxpool1d(_leaf(tape, [1.0]), 2, tape)

    @pytest.mark.parametrize("pool", [ad.maxpool1d, ad.avgpool1d])
    def test_window_below_one(self, pool):
        tape = Tape()
        with pytest.raises(ValueError):
            pool(_leaf(tape, [1.0, 2.0]), 0, tape)


def _dropout_model(rate):
    return md.ModelConfig(n_stacks=2, blocks_per_stack=2, alpha=0.4,
                          lookback=16, horizon=4, hidden_depth=2,
                          hidden_width=8, conv_variant="none",
                          dropout_rate=rate)


class TestDropout:
    def test_rate_zero_identity(self):
        tape = Tape()
        x = _leaf(tape, [1.0, 2.0])
        y = ad.dropout(x, 0.0, np.zeros(2), tape)
        assert y is x
        assert len(tape.nodes) == 1
        # the model at rate 0 draws nothing, even when given a generator
        cfg = _dropout_model(0.0)
        params = md.init_params(cfg)
        inputs = np.random.default_rng(1).normal(size=(2, 16))
        targets = np.zeros((2, 4))
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        with_rng, _ = md.forward_loss(inputs, targets, params, cfg, Tape(),
                                      rng)
        assert rng.bit_generator.state == state
        without, _ = md.forward_loss(inputs, targets, params, cfg, Tape())
        assert with_rng.value == without.value

    def test_inference_identity(self):
        # dropout runs exactly when the forward pass is given a generator
        x = np.random.default_rng(1).normal(size=(3, 16))
        y = np.zeros((3, 4))
        cfg_off, cfg = _dropout_model(0.0), _dropout_model(0.5)
        params = md.init_params(cfg_off)
        off = md.model_forward(x, params, cfg_off, Tape())
        loss_off, _ = md.forward_loss(x, y, params, cfg_off, Tape())
        on = md.model_forward(x, params, cfg, Tape())
        np.testing.assert_array_equal(on.global_forecast,
                                      off.global_forecast)
        assert md.forward_loss(x, y, params, cfg, Tape())[0].value == \
            loss_off.value
        dropped, _ = md.forward_loss(x, y, params, cfg, Tape(),
                                     np.random.default_rng(2))
        assert dropped.value != loss_off.value

    def test_inverted_scaling(self):
        tape = Tape()
        draws = np.random.default_rng(3).random(100_000)
        x = _leaf(tape, np.ones(100_000))
        y = ad.dropout(x, 0.1, draws, tape)
        assert 0.97 < y.value.mean() < 1.03
        np.testing.assert_array_equal(y.value, (draws >= 0.1) / 0.9)

    @pytest.mark.parametrize("rate", [-0.1, 1.0])
    def test_rate_outside_unit_interval(self, rate):
        tape = Tape()
        with pytest.raises(ValueError):
            ad.dropout(_leaf(tape, [1.0, 2.0]), rate, np.zeros(2), tape)


class TestXavierInit:
    def test_bound(self):
        rng = np.random.default_rng(4)
        w = ad.xavier_init((3, 3), rng)
        assert np.all(np.abs(w) <= 1.0)  # sqrt(6/6)

    def test_variance(self):
        rng = np.random.default_rng(5)
        w = ad.xavier_init((100, 100), rng)
        target = 2.0 / 200
        assert abs(w.var() - target) < 0.2 * target

    def test_determinism(self):
        a = ad.xavier_init((8, 8), np.random.default_rng(6))
        b = ad.xavier_init((8, 8), np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)


class TestTape:
    def test_fanout_accumulates(self):
        tape = Tape()
        x = _leaf(tape, [2.0])
        y = ad.add(x, x, tape)  # y = 2x
        loss = ad.mse_loss(y, np.zeros(1), tape)
        tape.backward(loss)
        # d/dx (2x)^2 = 8x = 16
        np.testing.assert_allclose(x.grad, [16.0])

    def test_unused_parameter_zero_gradient(self):
        tape = Tape()
        x = _leaf(tape, [1.0])
        unused = _leaf(tape, [5.0])
        loss = ad.mse_loss(x, np.zeros(1), tape)
        tape.backward(loss)
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_backward_requires_scalar_loss(self):
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            tape.backward(_leaf(tape, [1.0, 2.0]))

    @pytest.mark.parametrize("op", [
        ad.add, ad.sub, lambda x, y, tape: ad.mse_loss(x, y.value, tape)],
        ids=["add", "sub", "mse_loss"])
    def test_shape_mismatch(self, op):
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            op(_leaf(tape, [1.0, 2.0]), _leaf(tape, [1.0, 2.0, 3.0]), tape)

    def test_pad_left(self):
        tape = Tape()
        x = _leaf(tape, [1.0, 2.0])
        y = ad.pad_left(x, 2, tape)
        np.testing.assert_array_equal(y.value, [0.0, 0.0, 1.0, 2.0])
        loss = ad.mse_loss(y, np.zeros(4), tape)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.value / 4)

    def test_blend_endpoints_exact(self):
        tape = Tape()
        x = _leaf(tape, [0.0, 2.0])
        assert ad.blend(np.array([1.0, 1.0]), x, 0.0, tape) is x
        y = ad.blend(np.array([1.0, 1.0]), x, 1.0, tape)
        np.testing.assert_array_equal(y.value, [1.0, 1.0])

    def test_blend_convexity(self):
        tape = Tape()
        x = _leaf(tape, [0.0, 2.0])
        y = ad.blend(np.array([1.0, 1.0]), x, 0.4, tape)
        np.testing.assert_allclose(y.value, [0.4, 1.6])


def _recording(vjp, node, handed):
    """`vjp` behind a wrapper of its signature, (g) or (g, out=None), so
    that backward takes the same branch for it; the wrapper records in
    `handed[node]` the gradient `node` hands its VJPs and a copy of it,
    and checks that every VJP of the node gets that one array."""
    def record(g):
        assert handed.setdefault(node, (g, g.copy()))[0] is g

    if vjp.__code__.co_varnames[1:2] == ("out",):
        def wrapped(g, out=None):
            record(g)
            return vjp(g, out=out)
    else:
        def wrapped(g):
            record(g)
            return vjp(g)
    return wrapped


def _grads_of_every_node(build, buffers=None):
    """Run `build(tape)`, which gives (loss, {name: leaf}), and backward,
    into the buffers of `buffers` ({name: array}) when given; returns a
    copy of every node's gradient in tape order (None where backward
    gave none), the leaves, and every node's value after and before.
    A leaf's gradient is its .grad after backward.  A node with parents
    keeps no .grad, so its gradient is the copy that its VJPs' wrappers
    recorded as backward called them."""
    tape = Tape()
    loss, leaves = build(tape)
    values = [node.value.copy() for node in tape.nodes]
    handed = {}
    for node in tape.nodes:
        node.parents = tuple((parent, _recording(vjp, node, handed))
                             for parent, vjp in node.parents)
    into = None if buffers is None else \
        {leaves[name]: buf for name, buf in buffers.items()}
    tape.backward(loss, into)
    grads = []
    for node in tape.nodes:
        if node.parents:
            assert node.grad is None  # only leaves keep a gradient
            grads.append(handed.get(node, (None, None))[1])
        else:
            grads.append(node.grad.copy())
    return grads, leaves, [node.value for node in tape.nodes], values


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


class TestBackwardInto:
    """Gradients written into caller buffers against allocated ones."""

    def _check(self, build, names):
        """Backward into NaN-filled views of one vector gives every node
        the bits of a plain backward, makes each named leaf's .grad its
        buffer, and changes no value in the graph."""
        fresh, leaves, _, _ = _grads_of_every_node(build)
        shapes = [leaves[name].value.shape for name in names]
        vector = np.full(sum(int(np.prod(s)) for s in shapes), np.nan)
        buffers, end = {}, 0
        for name, shape in zip(names, shapes):
            size = int(np.prod(shape))
            buffers[name] = vector[end:end + size].reshape(shape)
            end += size
        into, leaves, values, before = _grads_of_every_node(build, buffers)
        assert len(into) == len(fresh)
        for i, (a, b) in enumerate(zip(into, fresh)):
            assert (a is None and b is None) or _same_bits(a, b), i
        for name, buf in buffers.items():
            assert leaves[name].grad is buf, name
        for now, then in zip(values, before):
            assert _same_bits(now, then)
        return buffers

    @pytest.mark.parametrize("variant", ["dcn", "cnn", "none"])
    @pytest.mark.parametrize("batch", [None, 1, 5])
    def test_model_gradients_bit_for_bit(self, variant, batch):
        cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=2, alpha=0.4,
                             lookback=16, horizon=3, hidden_depth=2,
                             hidden_width=5, conv_variant=variant,
                             kernel_sizes=(3, 2), dropout_rate=0.1, seed=4)
        params = md.init_params(cfg)
        rng = np.random.default_rng(7)
        lead = () if batch is None else (batch,)
        x = rng.normal(size=lead + (16,))
        y = rng.normal(size=lead + (3,))

        def build(tape):
            return md.forward_loss(x, y, params, cfg, tape,
                                   np.random.default_rng(1))

        self._check(build, list(params))

    @pytest.mark.parametrize("batched", [False, True])
    def test_leaf_feeding_two_ops_accumulates(self, batched):
        rng = np.random.default_rng(3)
        x_val = rng.normal(size=(4, 3) if batched else 3)
        w_val, b_val = rng.normal(size=(3, 3)), rng.normal(size=3)

        def build(tape):
            # W and b feed two affines, x an affine and two adds
            x, w, b = (_leaf(tape, v) for v in (x_val, w_val, b_val))
            h = ad.relu(ad.affine(x, w, b, tape), tape)
            y = ad.add(ad.affine(h, w, b, tape), ad.add(x, x, tape), tape)
            return ad.mse_loss(y, np.zeros(x_val.shape), tape), \
                {"x": x, "W": w, "b": b}

        self._check(build, ["W", "b", "x"])

    def test_unreached_leaf_buffer_is_zeroed(self):
        def build(tape):
            x = _leaf(tape, [1.0, -2.0])
            unused = _leaf(tape, [[5.0, 6.0]])
            return ad.mse_loss(x, np.zeros(2), tape), {"x": x, "u": unused}

        buffers = self._check(build, ["u", "x"])
        assert _same_bits(buffers["u"], np.zeros((1, 2)))

    def test_identity_fan_out_updates_no_array_in_place(self):
        # add hands one array to both parents; s's gradient is t's, and
        # it reaches x a second time and u once: adding into x's buffer
        # must leave that shared array, and so u's gradient, as it was
        def build(tape):
            x = _leaf(tape, [1.0, -0.5, 2.0])
            u = _leaf(tape, [0.25, 3.0, -1.0])
            t = ad.add(ad.add(x, u, tape), x, tape)
            return ad.mse_loss(t, np.ones(3), tape), {"x": x, "u": u}

        self._check(build, ["x"])


class _Sub(np.ndarray):
    pass


class TestTensorValue:
    @pytest.mark.parametrize("make", [
        lambda: np.linspace(-1.0, 1.0, 6),
        lambda: np.linspace(-1.0, 1.0, 12).reshape(3, 4)[:, ::2],
        lambda: [1.0, -0.0, 3],
        lambda: np.arange(5),
        lambda: np.linspace(-1.0, 1.0, 5, dtype=np.float32),
        lambda: np.linspace(-1.0, 1.0, 5).astype(">f8"),
        lambda: np.linspace(-1.0, 1.0, 5).view(_Sub),
        lambda: np.array(-0.0),
        lambda: np.float64(2.5),
    ], ids=["float64", "float64_strided", "list", "int", "float32",
            "big_endian", "subclass", "zero_d", "scalar"])
    def test_matches_asarray(self, make):
        # the value is what np.asarray(v, dtype=np.float64) gives: the
        # same object exactly when that call returns its argument
        v = make()
        got = ad.Tensor(v).value
        want = np.asarray(v, dtype=np.float64)
        assert (got is v) == (want is v)
        assert type(got) is type(want) is np.ndarray
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestInferenceTape:
    def test_records_nothing(self):
        tape = ad.InferenceTape()
        x = _leaf(tape, [[1.0, -2.0], [3.0, 4.0]])
        y = ad.relu(ad.affine(x, _leaf(tape, np.eye(2)),
                              _leaf(tape, [0.5, 0.5]), tape), tape)
        np.testing.assert_array_equal(y.value, [[1.5, 0.0], [3.5, 4.5]])
        assert tape.nodes == [] and y.parents == ()


class _NoBackwardStateTape(ad.InferenceTape):
    """An InferenceTape that fails when an operation hands it parents,
    that is, when it built backward state the tape would drop."""

    def tensor(self, value, parents=()):
        assert parents == (), "an op built VJP closures on an InferenceTape"
        return super().tensor(value)


# Every op of `autodiff` with a `tape` parameter, called on an input x
# [T] or [B, T]: its other operands come from `rng`, its settings from
# `p` (see _OP_SETTINGS).
_PARITY_OPS = {
    "affine": lambda x, p, rng, tape: ad.affine(
        x, _leaf(tape, rng.normal(size=(p["m"], x.value.shape[-1]))),
        _leaf(tape, rng.normal(size=p["m"])), tape),
    "relu": lambda x, p, rng, tape: ad.relu(x, tape),
    "dropout": lambda x, p, rng, tape: ad.dropout(
        x, p["rate"], rng.random(x.value.shape), tape),
    "dilated_conv1d": lambda x, p, rng, tape: ad.dilated_conv1d(
        x, _leaf(tape, rng.normal(size=p["k"])), p["dilation"], tape),
    "maxpool1d": lambda x, p, rng, tape: ad.maxpool1d(x, p["window"], tape),
    "avgpool1d": lambda x, p, rng, tape: ad.avgpool1d(x, p["window"], tape),
    "add": lambda x, p, rng, tape: ad.add(
        x, _leaf(tape, rng.normal(size=x.value.shape)), tape),
    "sub": lambda x, p, rng, tape: ad.sub(
        _leaf(tape, rng.normal(size=x.value.shape)), x, tape),
    "blend": lambda x, p, rng, tape: ad.blend(
        rng.normal(size=x.value.shape), x, p["alpha"], tape),
    "pad_left": lambda x, p, rng, tape: ad.pad_left(x, p["n"], tape),
    "mse_loss": lambda x, p, rng, tape: ad.mse_loss(
        x, rng.normal(size=x.value.shape), tape),
}

_OP_SETTINGS = st.fixed_dictionaries({
    "m": st.integers(1, 4),
    "rate": st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.99),
    "k": st.integers(1, 3),
    "dilation": st.integers(1, 3),
    "window": st.integers(1, 4),
    "alpha": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    "n": st.integers(0, 3),
})


@st.composite
def _op_inputs(draw):
    """[T] or [B, T] normal draws, which round in every sum, with a few
    NaN and signed zeros put in.  T >= 7 holds the widest receptive
    field, (3 - 1) * 3 + 1."""
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (draw(
        st.integers(7, 12)),)
    x = np.random.default_rng(draw(st.integers(0, 2**16))).normal(
        scale=10.0, size=shape)
    for _ in range(draw(st.integers(0, 3))):
        x.reshape(-1)[draw(st.integers(0, x.size - 1))] = draw(
            st.sampled_from([np.nan, -0.0, 0.0]))
    return x


def _check_op_parity(name, x, p, seed):
    """The op gives the same value bits on an InferenceTape as on a Tape;
    on the InferenceTape it builds no backward state and leaves no node,
    and on the Tape it records parents unless it returns its input or,
    blend at alpha 1, a constant."""
    op = _PARITY_OPS[name]
    tape = Tape()
    x_rec = _leaf(tape, x)
    recorded = op(x_rec, p, np.random.default_rng(seed), tape)
    inference = _NoBackwardStateTape()
    x_inf = _leaf(inference, x)
    inferred = op(x_inf, p, np.random.default_rng(seed), inference)
    assert _same_bits(inferred.value, recorded.value)
    assert inference.nodes == [] and inferred.parents == ()
    if recorded is x_rec:
        assert inferred is x_inf
    elif not (name == "blend" and p["alpha"] == 1.0):
        assert recorded.parents != ()
        assert recorded in tape.nodes


class TestOpParity:
    """An InferenceTape forward against a recording one, op by op."""

    @pytest.mark.parametrize("name", sorted(_PARITY_OPS))
    @settings(max_examples=40, deadline=None)
    @given(x=_op_inputs(), p=_OP_SETTINGS, seed=st.integers(0, 2**16))
    def test_same_value_bits(self, name, x, p, seed):
        _check_op_parity(name, x, p, seed)

    @pytest.mark.parametrize("name,setting", [
        ("blend", {"alpha": 0.0}), ("blend", {"alpha": 1.0}),
        ("blend", {"alpha": 0.4}), ("pad_left", {"n": 0}),
        ("dropout", {"rate": 0.0}), ("relu", {})])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["T", "BT"])
    def test_edge_settings(self, name, setting, lead):
        # NaN and both zeros in the input: np.maximum would differ on them
        x = np.resize([np.nan, -0.0, 0.0, -1.5, 2.0], lead + (8,))
        _check_op_parity(name, x, setting, seed=0)

    def test_table_covers_every_op_with_a_tape(self):
        ops = {name for name, fn in inspect.getmembers(ad,
                                                       inspect.isfunction)
               if fn.__module__ == ad.__name__ and not name.startswith("_")
               and "tape" in inspect.signature(fn).parameters}
        assert "affine" in ops
        assert ops == set(_PARITY_OPS)


class TestGradCheck:
    def test_quadratic_exact(self):
        params = {"theta": np.array([1.0, 2.0])}

        def build(tape, leaves):
            return ad.mse_loss(leaves["theta"], np.zeros(2), tape)

        assert ad.grad_check(build, params) < 1e-8

    def test_constant_zero_gradient(self):
        params = {"theta": np.array([1.0, 2.0])}

        def build(tape, leaves):
            unused = leaves["theta"]
            return ad.mse_loss(tape.tensor(np.zeros(1)), np.zeros(1), tape)

        assert ad.grad_check(build, params) == 0.0

    def test_non_finite_loss(self):
        params = {"theta": np.array([1.0, 2.0])}

        def build(tape, leaves):
            return ad.mse_loss(leaves["theta"], np.full(2, np.inf), tape)

        with pytest.raises(NonFiniteLoss):
            ad.grad_check(build, params)
