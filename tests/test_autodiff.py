import numpy as np
import pytest

from wavestack import autodiff as ad
from wavestack import model as md
from wavestack.autodiff import Tape
from wavestack.errors import InputTooShort, ShapeMismatch


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


class TestInferenceTape:
    def test_records_nothing(self):
        tape = ad.InferenceTape()
        x = _leaf(tape, [[1.0, -2.0], [3.0, 4.0]])
        y = ad.relu(ad.affine(x, _leaf(tape, np.eye(2)),
                              _leaf(tape, [0.5, 0.5]), tape), tape)
        np.testing.assert_array_equal(y.value, [[1.5, 0.0], [3.5, 4.5]])
        assert tape.nodes == [] and y.parents == ()


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
