import hashlib
from dataclasses import replace

import numpy as np
import pytest

from wavestack import model as md
from wavestack.autodiff import InferenceTape, Tape
from wavestack.errors import NonFiniteInput, ShapeMismatch
from wavestack.wavelet import mdwd

SMALL = dict(n_stacks=2, blocks_per_stack=1, alpha=0.4, lookback=16,
             horizon=4, hidden_depth=2, hidden_width=4,
             conv_variant="none", dropout_rate=0.0, seed=0)


def small_cfg(**overrides):
    return md.ModelConfig(**{**SMALL, **overrides})


class TestModelConfig:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            small_cfg(alpha=1.5)

    def test_alpha_needs_two_stacks(self):
        with pytest.raises(ValueError):
            small_cfg(n_stacks=1, alpha=0.4)

    def test_kernel_schedule_monotone(self):
        cfg = md.ModelConfig(n_stacks=4, lookback=720)
        assert cfg.kernel_sizes == (7, 5, 3, 3)
        with pytest.raises(ValueError):
            small_cfg(kernel_sizes=(3, 5))

    def test_conv_output_lengths(self):
        cfg = md.ModelConfig(n_stacks=4, lookback=720, conv_variant="dcn",
                             kernel_sizes=(3, 3, 3, 3), dilations=(1, 2, 4))
        # receptive field: 2*1 + 2*2 + 2*4 = 14
        assert cfg.conv_output_length(1) == 706
        assert small_cfg().conv_output_length(1) == 16

    def test_pool_output_length(self):
        cfg = small_cfg(conv_variant="avgpool", kernel_sizes=(4, 4))
        assert cfg.conv_output_length(1) == 4


class TestInitParams:
    # SHA-256 prefixes of every (name, shape, float64 bytes) that
    # init_params returned, in order, before it read its names and shapes
    # from param_shapes: its draw order and its bits must not move.
    DIGESTS = [
        (dict(), None, "74649604709ba66bd864badfee9ff0b3"),
        (dict(n_stacks=2, blocks_per_stack=1, lookback=16, horizon=4,
              hidden_depth=1, hidden_width=4, conv_variant="none"), None,
         "91f4c46e06c6b0241699ff20fb81bf4c"),
        (dict(n_stacks=3, blocks_per_stack=2, lookback=64, horizon=16,
              conv_variant="dcn", seed=5), None,
         "fc45bd8cc42539233e0d86291edb6b7b"),
        (dict(n_stacks=3, blocks_per_stack=2, lookback=48, horizon=8,
              conv_variant="cnn", theta_backcast_dim=7, theta_forecast_dim=5,
              hidden_depth=2, seed=3), None,
         "668483c20d71173c28275a0ca4769167"),
        (dict(n_stacks=2, blocks_per_stack=3, lookback=32, horizon=6,
              conv_variant="maxpool", hidden_depth=1, alpha=0.0), None,
         "742ca27557a0336f5a6460e3f49cf889"),
        (dict(n_stacks=2, blocks_per_stack=1, lookback=16, horizon=4,
              hidden_depth=1, hidden_width=4, conv_variant="avgpool"), 9,
         "aa9373098d5bff37d42d8b3f0704d732"),
    ]

    @pytest.mark.parametrize("overrides,seed,digest", DIGESTS)
    def test_values_unchanged(self, overrides, seed, digest):
        cfg = md.ModelConfig(**overrides)
        params = md.init_params(cfg if seed is None
                                else replace(cfg, seed=seed))
        h = hashlib.sha256()
        for name, arr in params.items():
            h.update(f"{name} {arr.shape}\n".encode())
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert h.hexdigest()[:32] == digest
        assert {k: v.shape for k, v in params.items()} == \
            md.param_shapes(cfg)


class TestInfuse:
    """Stack i's input blends its own wavelet branch into the residual
    the previous stack left."""

    @staticmethod
    def _forward(alpha, kind="haar", n_stacks=4):
        cfg = small_cfg(n_stacks=n_stacks, lookback=32, alpha=alpha,
                        wavelet_kind=kind)
        x = np.random.default_rng(12).normal(size=32)
        return x, md.model_forward(x, md.init_params(cfg), cfg, Tape())

    @pytest.mark.parametrize("kind", ["haar", "db2", "sym4"])
    def test_branch_selection(self, kind):
        # stack 1 takes the coarsest approximation, stack i the detail
        # at level n_stacks - i + 1, down to the finest at the last stack
        for levels in (1, 3):
            x, bundle = self._forward(0.4, kind, n_stacks=levels + 1)
            pyramid = mdwd(x, levels, kind)
            expected = [pyramid.approx[levels - 1]] + \
                [pyramid.detail[lvl - 1] for lvl in range(levels, 0, -1)]
            assert len(bundle.infused_signals) == len(expected)
            for got, want in zip(bundle.infused_signals, expected):
                np.testing.assert_array_equal(got, want)

    def test_elementwise_blend(self):
        for kind in ("haar", "db2", "sym4"):
            x, bundle = self._forward(0.4, kind)
            approx = mdwd(x, 3, kind).approx[2]
            np.testing.assert_array_equal(bundle.stack_inputs[0],
                                          0.4 * approx + (1 - 0.4) * x)

    def test_alpha_zero_is_pure_residual(self):
        x, bundle = self._forward(0.0)
        np.testing.assert_array_equal(bundle.stack_inputs[0], x)
        for i in range(1, 4):
            np.testing.assert_array_equal(
                bundle.stack_inputs[i],
                bundle.stack_inputs[i - 1] - bundle.per_stack_backcast[i - 1])

    def test_alpha_one_is_pure_wavelet(self):
        _, bundle = self._forward(1.0)
        for got, branch in zip(bundle.stack_inputs, bundle.infused_signals):
            np.testing.assert_array_equal(got, branch)


class TestBlockForward:
    def test_zero_parameters(self):
        cfg = small_cfg()
        params = {k: np.zeros_like(v) for k, v in md.init_params(cfg).items()}
        tape = Tape()
        leaves = md.make_leaves(params, tape)
        x = tape.tensor(np.random.default_rng(1).normal(size=16))
        backcast, forecast = md.block_forward(x, 1, 1, cfg, leaves, tape)
        np.testing.assert_array_equal(backcast.value, np.zeros(16))
        np.testing.assert_array_equal(forecast.value, np.zeros(4))

    def test_bias_path(self):
        cfg = small_cfg()
        params = {k: np.zeros_like(v) for k, v in md.init_params(cfg).items()}
        params["s1.b1.proj_f.b"] = np.ones(4)
        tape = Tape()
        leaves = md.make_leaves(params, tape)
        x = tape.tensor(np.random.default_rng(2).normal(size=16))
        _, forecast = md.block_forward(x, 1, 1, cfg, leaves, tape)
        np.testing.assert_array_equal(forecast.value, np.ones(4))

    def test_hand_set_weights(self):
        # 1-unit trunk, 1-dim thetas: the whole block is a short affine
        # chain that can be recomputed in straight-line numpy
        cfg = small_cfg(lookback=2, horizon=1, hidden_depth=1,
                        hidden_width=1, theta_backcast_dim=1,
                        theta_forecast_dim=1)
        rng = np.random.default_rng(3)
        params = md.init_params(cfg)
        x = np.array([0.7, -0.2])
        tape = Tape()
        leaves = md.make_leaves(params, tape)
        backcast, forecast = md.block_forward(tape.tensor(x), 1, 1, cfg,
                                              leaves, tape)
        h = max(0.0, float((params["s1.b1.trunk0.W"] @ x +
                            params["s1.b1.trunk0.b"])[0]))
        tb = params["s1.b1.head_b.W"] * h + params["s1.b1.head_b.b"]
        tf = params["s1.b1.head_f.W"] * h + params["s1.b1.head_f.b"]
        np.testing.assert_allclose(
            backcast.value,
            (params["s1.b1.proj_b.W"] @ tb.reshape(1) +
             params["s1.b1.proj_b.b"]), atol=1e-14)
        np.testing.assert_allclose(
            forecast.value,
            (params["s1.b1.proj_f.W"] @ tf.reshape(1) +
             params["s1.b1.proj_f.b"]), atol=1e-14)


class TestStackForward:
    def test_single_block_reduces_to_block_forward(self):
        cfg = small_cfg()
        params = md.init_params(cfg)
        x = np.random.default_rng(4).normal(size=16)
        tape1 = Tape()
        leaves1 = md.make_leaves(params, tape1)
        sb, sf = md.stack_forward(1, tape1.tensor(x), cfg, leaves1, tape1)
        tape2 = Tape()
        leaves2 = md.make_leaves(params, tape2)
        bb, bf = md.block_forward(tape2.tensor(x), 1, 1, cfg, leaves2, tape2)
        np.testing.assert_array_equal(sb.value, bb.value)
        np.testing.assert_array_equal(sf.value, bf.value)

    def test_two_blocks_sum_against_oracle(self):
        cfg = small_cfg(blocks_per_stack=2)
        params = md.init_params(cfg)
        x = np.random.default_rng(5).normal(size=16)
        tape = Tape()
        leaves = md.make_leaves(params, tape)
        sb, sf = md.stack_forward(1, tape.tensor(x), cfg, leaves, tape)

        # straight-line recomputation
        def block(xin, k):
            t2 = Tape()
            l2 = md.make_leaves(params, t2)
            b, f = md.block_forward(t2.tensor(xin), 1, k, cfg, l2, t2)
            return b.value, f.value

        b1, f1 = block(x, 1)
        b2, f2 = block(x - b1, 2)
        np.testing.assert_allclose(sb.value, b1 + b2, atol=1e-12)
        np.testing.assert_allclose(sf.value, f1 + f2, atol=1e-12)


class TestMakeLeaves:
    def test_tape_nodes_in_params_order(self):
        params = md.init_params(small_cfg())
        tape = Tape()
        leaves = md.make_leaves(params, tape)
        assert list(leaves) == list(params)
        assert tape.nodes == list(leaves.values())
        assert all(leaves[name].value is value
                   for name, value in params.items())

    def test_inference_tape_records_nothing(self):
        params = md.init_params(small_cfg())
        tape = InferenceTape()
        leaves = md.make_leaves(params, tape)
        assert list(leaves) == list(params) and tape.nodes == []
        assert all(leaf.parents == () for leaf in leaves.values())


class TestModelForward:
    def test_zero_parameters_zero_forecast(self):
        cfg = small_cfg()
        params = {k: np.zeros_like(v) for k, v in md.init_params(cfg).items()}
        bundle = md.model_forward(np.ones(16), params, cfg, Tape())
        np.testing.assert_array_equal(bundle.global_forecast, np.zeros(4))

    def test_summation_identity_exact(self):
        cfg = md.ModelConfig(n_stacks=3, blocks_per_stack=2, alpha=0.4,
                             lookback=32, horizon=8, hidden_width=8,
                             hidden_depth=2, conv_variant="dcn",
                             kernel_sizes=(3, 3, 3), dropout_rate=0.0)
        params = md.init_params(cfg)
        x = np.random.default_rng(6).normal(size=32)
        bundle = md.model_forward(x, params, cfg, Tape())
        total = bundle.per_stack_forecast[0]
        for f in bundle.per_stack_forecast[1:]:
            total = total + f
        np.testing.assert_array_equal(total, bundle.global_forecast)

    def test_residual_wiring_exact(self):
        cfg = small_cfg(n_stacks=3, lookback=32)
        params = md.init_params(cfg)
        x = np.random.default_rng(7).normal(size=32)
        bundle = md.model_forward(x, params, cfg, Tape())
        alpha = cfg.alpha
        for i in range(1, cfg.n_stacks):
            residual = bundle.stack_inputs[i - 1] - \
                bundle.per_stack_backcast[i - 1]
            expected = alpha * bundle.infused_signals[i] + \
                (1 - alpha) * residual
            np.testing.assert_array_equal(bundle.stack_inputs[i], expected)

    def test_alpha_zero_bit_identical_to_reference(self, detached_forward):
        cfg = small_cfg(alpha=0.0, n_stacks=3, lookback=32,
                        conv_variant="dcn", kernel_sizes=(3, 3, 3))
        params = md.init_params(cfg)
        rng = np.random.default_rng(8)
        # five windows one at a time, then a batch of five
        for size in [32] * 5 + [(5, 32)]:
            x = rng.normal(size=size)
            b1 = md.model_forward(x, params, cfg, Tape())
            total, forecasts, _ = detached_forward(x, params, cfg)
            np.testing.assert_array_equal(b1.global_forecast, total)
            for a, b in zip(b1.per_stack_forecast, forecasts):
                np.testing.assert_array_equal(a, b)

    def test_infusion_convexity_envelope(self):
        cfg = small_cfg(n_stacks=3, lookback=32, alpha=0.3)
        params = md.init_params(cfg)
        x = np.random.default_rng(9).normal(size=32)
        bundle = md.model_forward(x, params, cfg, Tape())
        for i in range(1, cfg.n_stacks):
            wavelet = bundle.infused_signals[i]
            residual = bundle.stack_inputs[i - 1] - \
                bundle.per_stack_backcast[i - 1]
            lo = np.minimum(wavelet, residual)
            hi = np.maximum(wavelet, residual)
            assert np.all(bundle.stack_inputs[i] >= lo - 1e-12)
            assert np.all(bundle.stack_inputs[i] <= hi + 1e-12)

    def test_wrong_input_length(self):
        cfg = small_cfg()
        params = md.init_params(cfg)
        with pytest.raises(ShapeMismatch):
            md.model_forward(np.ones(10), params, cfg, Tape())
        with pytest.raises(ShapeMismatch):
            md.forward_loss(np.ones(10), np.zeros(4), params, cfg, Tape())

    def test_loss_rejects_non_finite_input(self):
        # with one stack there is no decomposition to trip over the NaN,
        # and ReLU would zero it: the forward itself must reject it
        cfg = small_cfg(n_stacks=1, alpha=0.0)
        x = np.ones(16)
        x[3] = np.nan
        with pytest.raises(NonFiniteInput):
            md.forward_loss(x, np.zeros(4), md.init_params(cfg), cfg, Tape())

    def test_gradient_flow(self):
        # Every parameter gets a nonzero gradient, except the backcast
        # head of the final block of the final stack: its output feeds
        # only the unused last residual, so its gradient is exactly zero
        # under a forecast-only loss.
        cfg = small_cfg(n_stacks=3, blocks_per_stack=2, lookback=32,
                        conv_variant="dcn", kernel_sizes=(3, 3, 3))
        params = md.init_params(cfg)
        rng = np.random.default_rng(10)
        x = rng.normal(size=32)
        y = rng.normal(size=4)
        tape = Tape()
        loss, leaves = md.forward_loss(x, y, params, cfg, tape)
        tape.backward(loss)
        dead = {f"s3.b2.{n}.{s}" for n in ("head_b", "proj_b")
                for s in ("W", "b")}
        for name, leaf in leaves.items():
            if name in dead:
                np.testing.assert_array_equal(leaf.grad,
                                              np.zeros_like(leaf.grad))
            else:
                assert np.any(leaf.grad != 0.0), name


class TestConvVariants:
    @pytest.mark.parametrize("variant", ["none", "dcn", "cnn", "maxpool",
                                         "avgpool"])
    def test_forward_runs(self, variant):
        cfg = small_cfg(n_stacks=2, lookback=32, conv_variant=variant,
                        kernel_sizes=(3, 3))
        params = md.init_params(cfg)
        bundle = md.model_forward(np.random.default_rng(11).normal(size=32),
                                  params, cfg, Tape())
        assert bundle.global_forecast.shape == (4,)

    def test_none_is_identity(self):
        cfg = small_cfg()
        tape = Tape()
        x = tape.tensor(np.arange(16.0))
        out = md.stack_conv(1, x, cfg, {}, tape)
        assert out is x

    def test_delta_kernel_init_is_identity(self):
        cfg = small_cfg(conv_variant="dcn", kernel_sizes=(3, 3),
                        lookback=32, n_stacks=2)
        params = md.init_params(cfg)
        tape = Tape()
        leaves = md.make_leaves(params, tape)
        x = tape.tensor(np.arange(32.0))
        out = md.stack_conv(1, x, cfg, leaves, tape)
        # delta kernels shift nothing; valid convolution trims the head
        np.testing.assert_array_equal(out.value, x.value[-len(out.value):])
