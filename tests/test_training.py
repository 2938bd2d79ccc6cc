import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavestack import cli, model as md
from wavestack import training as tr
from wavestack.config import load_run_config
from wavestack.autodiff import InferenceTape, Tape
from wavestack.errors import (
    ConfigMismatch,
    CorruptCheckpoint,
    NonFiniteGradient,
    NonFiniteLoss,
    SeriesTooShort,
    ShapeMismatch,
)

ROOT = Path(__file__).resolve().parents[1]


def _src_env():
    """The environment, with this checkout's `src` first on PYTHONPATH,
    for a fresh process that imports wavestack."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p]))

TINY = dict(n_stacks=2, blocks_per_stack=1, alpha=0.4, lookback=8,
            horizon=2, hidden_depth=1, hidden_width=4,
            conv_variant="none", dropout_rate=0.0, seed=0)


def tiny_cfg(**overrides):
    return md.ModelConfig(**{**TINY, **overrides})


class TestMakeWindows:
    def test_stride_two_offsets_and_targets(self):
        w = tr.make_windows(np.arange(10.0), 3, 2, stride=2)
        np.testing.assert_array_equal(w.offsets, [0, 2, 4])
        np.testing.assert_array_equal(w.targets[0], [3.0, 4.0])
        np.testing.assert_array_equal(w.targets[1], [5.0, 6.0])
        np.testing.assert_array_equal(w.targets[2], [7.0, 8.0])

    def test_stride_one_count(self):
        w = tr.make_windows(np.arange(10.0), 3, 2)
        assert len(w) == 6  # 10 - 3 - 2 + 1

    def test_exact_fit_single_window(self):
        w = tr.make_windows(np.arange(5.0), 3, 2)
        assert len(w) == 1
        np.testing.assert_array_equal(w.inputs[0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(w.targets[0], [3.0, 4.0])

    def test_contiguity(self):
        w = tr.make_windows(np.arange(30.0), 5, 3, stride=4)
        for x, y in zip(w.inputs, w.targets):
            assert y[0] == x[-1] + 1

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            tr.make_windows(np.arange(4.0), 3, 2)


class TestLosses:
    def test_mse_example(self):
        assert tr.mse([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0]) == \
            pytest.approx(1.5)  # (1 + 0 + 1 + 4) / 4

    def test_mse_hand_value(self):
        assert tr.mse([0.0, 3.0], [0.0, 0.0]) == 4.5

    def test_mae_example(self):
        assert tr.mae([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0]) == 1.0

    def test_perfect_prediction(self):
        assert tr.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert tr.mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tr.mse([1.0], [1.0, 2.0])
        with pytest.raises(ShapeMismatch):
            tr.mae([1.0], [1.0, 2.0])
        with pytest.raises(ShapeMismatch):
            tr.mse(np.zeros((3, 4)), np.zeros((3, 5)))
        with pytest.raises(ShapeMismatch):
            tr.mae(np.zeros((3, 4)), np.zeros((3, 5)))

    @pytest.mark.parametrize("n, h", [(1, 1), (3, 4), (37, 24), (5, 200)])
    def test_window_set_is_mean_of_window_scores(self, n, h):
        rng = np.random.default_rng(n * h)
        pred = 10.0 * rng.normal(size=(n, h))
        target = rng.normal(size=(n, h))
        for score in (tr.mse, tr.mae):
            per_window = [score(p, y) for p, y in zip(pred, target)]
            assert score(pred, target) == float(np.mean(per_window))


class TestSchedule:
    def test_warmup_ramp(self):
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=100,
                             warmup_fraction=0.1)
        # warmup spans 10 epochs; the ramp hits (e + 1) / 11 of base
        assert tr.lr_at(0, cfg) == pytest.approx(1e-3 / 11)
        assert tr.lr_at(9, cfg) == pytest.approx(1e-3 * 10 / 11)

    def test_post_warmup_decay(self):
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=100,
                             warmup_fraction=0.1, decay_slope=1e-3)
        assert tr.lr_at(10, cfg) == pytest.approx(1e-3)
        assert tr.lr_at(110, cfg) == pytest.approx(1e-3 * 0.9)

    def test_warmup_length_rounds(self):
        # warmup spans round(warmup_fraction * epochs) epochs: 1.5 -> 2
        cfg = tr.TrainConfig(learning_rate=1.0, epochs=10,
                             warmup_fraction=0.15, decay_slope=0.0)
        assert [tr.lr_at(e, cfg) for e in range(3)] == \
            pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_never_negative(self):
        cfg = tr.TrainConfig(learning_rate=1.0, epochs=10,
                             warmup_fraction=0.1, decay_slope=0.5)
        assert tr.lr_at(5000, cfg) == 0.0

    def test_monotone_through_warmup(self):
        cfg = tr.TrainConfig(epochs=50, warmup_fraction=0.2)
        rates = [tr.lr_at(e, cfg) for e in range(10)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(warmup_fraction=0.0)
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            tr.TrainConfig(patience=0)
        with pytest.raises(ValueError, match="decay_slope"):
            tr.TrainConfig(decay_slope=-0.1)


def _state(params):
    """A fresh TrainState of `params`, and its weight vector's views by
    name, which hold the weights from the first step on, unless that
    step is also the last."""
    state = tr.TrainState.new(params)
    return state, state.views(state.weights)


def _step(state, grads, lr, cfg, last=False):
    """One Adam step of `state` from the gradient tensors `grads`."""
    np.concatenate([grads[name].reshape(-1) for name, _, _ in state.slots],
                   out=state.grads)
    tr.adam_step(state, lr, cfg, tr._sum_squares(state.grads), last=last)


def _clip(g, max_norm):
    """`_clip_grads` of `g` with the sum of squares `train` passes it."""
    return tr._clip_grads(g, max_norm, tr._sum_squares(g))


def _per_tensor_adam(params, grads, m, v, t, lr, cfg):
    """The reference Adam step: one tensor at a time, as plain
    expressions."""
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, p in params.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        m_hat = m[name] / (1.0 - b1 ** t)
        v_hat = v[name] / (1.0 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def _random_tensors(shapes, rng, scale=1.0):
    return {f"t{i}": scale * rng.normal(size=shape)
            for i, shape in enumerate(shapes)}


_tiny_shapes = st.lists(st.lists(st.integers(1, 6), min_size=1,
                                 max_size=2).map(tuple),
                        min_size=1, max_size=40)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        cfg = tr.TrainConfig()
        state, params = _state({"w": np.array([1.0, 1.0, 1.0])})
        _step(state, {"w": np.array([0.3, -2.0, 0.0])}, 0.01, cfg)
        # after bias correction the first update is lr * sign(g), up to eps
        np.testing.assert_allclose(params["w"],
                                   [1.0 - 0.01, 1.0 + 0.01, 1.0], atol=1e-6)

    def test_zero_gradient_no_motion(self):
        cfg = tr.TrainConfig()
        state, params = _state({"w": np.array([2.0])})
        for _ in range(5):
            _step(state, {"w": np.zeros(1)}, 0.1, cfg)
        np.testing.assert_array_equal(params["w"], [2.0])

    def test_converges_on_quadratic(self):
        cfg = tr.TrainConfig()
        init = {"w": np.array([5.0])}
        state, params = _state(init)
        # the weight vector is written by the first step, so the first
        # gradient reads init
        _step(state, {"w": 2.0 * init["w"]}, 0.05, cfg)
        for _ in range(1999):
            _step(state, {"w": 2.0 * params["w"]}, 0.05, cfg)
        assert abs(params["w"][0]) < 1e-3

    def test_non_finite_gradient_raises(self):
        cfg = tr.TrainConfig()
        state, _ = _state({"w": np.array([1.0])})
        with pytest.raises(NonFiniteGradient):
            _step(state, {"w": np.array([np.nan])}, 0.1, cfg)

    def test_grad_clip(self):
        grads = np.array([3.0, 4.0])  # norm 5
        _clip(grads, 1.0)
        np.testing.assert_allclose(grads, [0.6, 0.8])
        grads = np.array([0.3, 0.4])
        _clip(grads, 1.0)
        np.testing.assert_allclose(grads, [0.3, 0.4])

    def test_clip_norm_whose_square_overflows(self):
        # the sum of squares is inf, the norm is not: the plain factor
        # max_norm / inf would zero every gradient
        grads = np.array([1e200, 1e200, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = _clip(grads, 10.0)
        assert norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        np.testing.assert_allclose(grads[:2], [10.0 / np.sqrt(2.0)] * 2,
                                   rtol=1e-15)
        np.testing.assert_allclose(grads[2], 3.0 * 10.0 / norm, rtol=1e-15)
        assert grads[2] > 0.0

    def test_clip_leaves_a_non_finite_gradient_unscaled(self):
        # scaling by max_norm / inf = 0 would turn the inf into NaN and
        # zero the finite element; adam_step names the bad tensor instead
        grads = np.array([np.inf, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _clip(grads, 10.0) == np.inf
        np.testing.assert_array_equal(grads, [np.inf, 1.0])
        grads = np.array([np.nan, 1.0, 2.0])
        assert np.isnan(_clip(grads, 1.0))
        np.testing.assert_array_equal(grads[1:], [1.0, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(shapes=_tiny_shapes, big_at=st.integers(0, 40),
           with_big=st.booleans(), steps=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_tensor_adam(self, shapes, big_at, with_big, steps,
                                     seed):
        """Adam over one vector gives the per-tensor update's bits, over
        many tiny tensors and one larger than an Adam chunk."""
        if with_big:
            shapes.insert(min(big_at, len(shapes)),
                          (tr.ADAM_CHUNK + 1 + big_at,))
        rng = np.random.default_rng(seed)
        cfg = tr.TrainConfig()
        init = _random_tensors(shapes, rng)
        state, params = _state(init)
        ref = {k: v.copy() for k, v in init.items()}
        m = {k: np.zeros_like(v) for k, v in init.items()}
        v = {k: np.zeros_like(x) for k, x in init.items()}
        for t in range(1, steps + 1):
            grads = _random_tensors(shapes, rng, scale=10.0 ** rng.uniform(
                -6, 3))
            if t == 1:  # zeros of both signs, which the moments take as +0
                for g in grads.values():
                    g.reshape(-1)[::3] = -0.0
                    g.reshape(-1)[1::3] = 0.0
            lr = float(rng.uniform(1e-5, 1e-1))
            _step(state, grads, lr, cfg)
            _per_tensor_adam(ref, grads, m, v, t, lr, cfg)
            for name in ref:
                np.testing.assert_array_equal(params[name], ref[name], name)
            for moment, per_tensor in ((state.m, m), (state.v, v)):
                assert moment.tobytes() == np.concatenate(
                    [per_tensor[k].reshape(-1) for k in ref]).tobytes()
        assert state.step == steps

    @pytest.mark.parametrize("last", [False, True])
    def test_first_step_v_is_the_bits_of_b2_times_zero_plus_g2(self, last):
        """A first step writes v = ((1-b2)*g)*g with no `+ 0.0`: it is
        never -0.0 (signed zeros and underflowing subnormals square to
        +0.0) and an overflowing square is +inf, so v and the weights
        keep the bits of `b2*0.0 + ((1-b2)*g)*g`."""
        cfg = tr.TrainConfig()
        tiny = np.nextafter(0.0, 1.0)
        g = np.array([0.0, -0.0, tiny, -tiny, 3.0 * tiny, -1e-160, 1e-160,
                      1e200, -1e200, 5e155, -2.5, 0.7])
        init = {"w": np.linspace(-1.0, 1.0, g.size)}
        state, params = _state(init)
        ref, m, v = ({"w": a.copy()} for a in
                     (init["w"], np.zeros(g.size), np.zeros(g.size)))
        b2 = cfg.adam_beta2
        with np.errstate(over="ignore", under="ignore"):
            _step(state, {"w": g.copy()}, 1e-2, cfg, last=last)
            _per_tensor_adam(ref, {"w": g}, m, v, 1, 1e-2, cfg)
            want_v = b2 * 0.0 + ((1.0 - b2) * g) * g
        assert v["w"].tobytes() == want_v.tobytes()
        assert not np.signbit(want_v).any() and np.isinf(want_v).sum() == 3
        if last:  # v stayed in scratch; the weights went over g
            assert state.weights is state.grads
            params = state.views(state.weights)
        else:
            assert state.v.tobytes() == want_v.tobytes()
        assert params["w"].tobytes() == ref["w"].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(shapes=_tiny_shapes, with_big=st.booleans(),
           steps=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @example(shapes=[(3,)], with_big=True, steps=1, seed=0)
    @example(shapes=[(3,)], with_big=True, steps=2, seed=0)
    def test_last_step_stores_no_moments(self, shapes, with_big, steps,
                                         seed):
        """A last step moves the weights to the bytes a storing step
        gives and writes neither moment: at step 1 it leaves NaN-filled
        moments as they were, and later it only reads them."""
        if with_big:
            shapes.append((tr.ADAM_CHUNK + 7,))
        rng = np.random.default_rng(seed)
        cfg = tr.TrainConfig()
        init = _random_tensors(shapes, rng)
        storing, stored = _state(init)
        last, _ = _state(init)
        last.m.fill(np.nan)
        last.v.fill(np.nan)
        for t in range(1, steps + 1):
            grads = _random_tensors(shapes, rng, scale=10.0 ** rng.uniform(
                -6, 3))
            for g in grads.values():
                g.reshape(-1)[::3] = -0.0
                g.reshape(-1)[1::3] = 0.0
            lr = float(rng.uniform(1e-5, 1e-1))
            _step(storing, grads, lr, cfg)
            moments = last.m.tobytes(), last.v.tobytes()
            _step(last, grads, lr, cfg, last=t == steps)
        assert (last.m.tobytes(), last.v.tobytes()) == moments
        assert np.isnan(last.m).all() == np.isnan(last.v).all() == \
            (steps == 1)
        lasted = last.views(last.weights)
        for name in init:
            assert lasted[name].tobytes() == stored[name].tobytes(), name

    @settings(max_examples=25, deadline=None)
    @given(lead=st.integers(1, tr.ADAM_CHUNK - 1),
           sizes=st.lists(st.integers(1, 2 * tr.ADAM_CHUNK), min_size=1,
                          max_size=5),
           steps=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @example(lead=5, sizes=[11, 2 * tr.ADAM_CHUNK + 3], steps=2, seed=0)
    def test_chunked_matches_per_tensor_adam(self, lead, sizes, steps, seed):
        """Adam over chunks of the vector gives the per-tensor bits when
        tensors straddle chunk edges and the vector is no multiple of a
        chunk."""
        sizes = [tr.ADAM_CHUNK - lead, lead + sizes[0]] + sizes[1:]
        rng = np.random.default_rng(seed)
        cfg = tr.TrainConfig()
        init = _random_tensors([(n,) for n in sizes], rng)
        state, params = _state(init)
        _, second, _ = state.slots[1]  # starts lead before a chunk edge
        assert second.start < tr.ADAM_CHUNK < second.stop
        ref = {k: x.copy() for k, x in init.items()}
        m = {k: np.zeros_like(x) for k, x in init.items()}
        v = {k: np.zeros_like(x) for k, x in init.items()}
        for t in range(1, steps + 1):
            grads = _random_tensors([(n,) for n in sizes], rng,
                                    scale=10.0 ** rng.uniform(-6, 3))
            lr = float(rng.uniform(1e-5, 1e-1))
            _step(state, grads, lr, cfg)
            _per_tensor_adam(ref, grads, m, v, t, lr, cfg)
            for name in ref:
                np.testing.assert_array_equal(params[name], ref[name], name)

    def test_overflowing_squares_are_not_non_finite(self):
        # 2 * (1e154)^2 overflows the sum of squares; every update term
        # stays finite, so the step runs without a warning
        cfg = tr.TrainConfig()
        init = {"w": np.array([1.0, -2.0, 0.5]), "b": np.array([4.0])}
        grads = {"w": np.array([1e154, -1e154, 3.0]), "b": np.array([1.0])}
        state, params = _state(init)
        ref = {k: x.copy() for k, x in init.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _step(state, grads, 0.01, cfg)
        _per_tensor_adam(ref, grads, {k: 0.0 for k in ref},
                         {k: 0.0 for k in ref}, 1, 0.01, cfg)
        for name in ref:
            np.testing.assert_array_equal(params[name], ref[name], name)
        grads["b"][0] = np.inf  # an inf element among them still raises
        with pytest.raises(NonFiniteGradient, match="'b' at step 1$"):
            _step(state, grads, 0.01, cfg)

    @pytest.mark.parametrize("bad", [("c",), ("d",), ("c", "d"), ("d", "e")])
    def test_non_finite_in_last_bucket_names_first_bad_parameter(self, bad):
        # the bad tensors follow one larger than an Adam chunk
        cfg = tr.TrainConfig()
        rng = np.random.default_rng(0)
        shapes = [(3,), (tr.ADAM_CHUNK + 1,), (2, 3), (4,), (5,)]
        init = dict(zip("abcde", _random_tensors(shapes, rng).values()))
        state, params = _state(init)
        for _ in range(2):
            _step(state, {k: rng.normal(size=x.shape)
                          for k, x in init.items()}, 0.01, cfg)
        before = {k: x.copy() for k, x in params.items()}
        grads = {k: rng.normal(size=x.shape) for k, x in init.items()}
        for k, poison in zip(bad, (np.nan, np.inf)):
            grads[k][-1] = poison
        # the per-tensor check named the first bad tensor in parameter
        # order and the number of steps already taken
        with pytest.raises(NonFiniteGradient,
                           match=f"^non-finite gradient in parameter "
                                 f"'{bad[0]}' at step 2$"):
            _step(state, grads, 0.01, cfg)
        assert state.step == 2
        for k, x in params.items():
            np.testing.assert_array_equal(x, before[k])

    @settings(max_examples=30, deadline=None)
    @given(shapes=_tiny_shapes, seed=st.integers(0, 2 ** 32 - 1))
    def test_clip_norm_is_per_tensor_norm(self, shapes, seed):
        rng = np.random.default_rng(seed)
        shapes.append((tr.ADAM_CHUNK + 1,))
        grads = _random_tensors(shapes, rng)
        per_tensor = np.sqrt(sum(float(np.sum(g * g))
                                 for g in grads.values()))
        norm = _clip(np.concatenate(
            [g.reshape(-1) for g in grads.values()]), np.inf)
        assert norm == pytest.approx(per_tensor, rel=1e-12, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(shapes=_tiny_shapes, seed=st.integers(0, 2 ** 32 - 1))
    def test_clip_fires_only_above_the_bound(self, shapes, seed):
        rng = np.random.default_rng(seed)
        original = np.concatenate([g.reshape(-1) for g in _random_tensors(
            shapes, rng).values()])
        norm = _clip(original.copy(), np.inf)
        kept = original.copy()
        assert _clip(kept, norm * (1.0 + 1e-9)) == norm
        np.testing.assert_array_equal(kept, original)
        clipped = original.copy()
        _clip(clipped, norm / 2.0)
        np.testing.assert_array_equal(clipped, original * ((norm / 2.0) / norm))
        assert _clip(clipped, np.inf) == \
            pytest.approx(norm / 2.0, rel=1e-12)


def _toy_windows(n=40, lookback=8, horizon=2, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    series = np.sin(2 * np.pi * t / 8) + 0.01 * rng.normal(size=n)
    return tr.make_windows(series, lookback, horizon)


class TestTrainLoop:
    def test_determinism(self):
        windows = _toy_windows()
        cfg = tiny_cfg()
        tcfg = tr.TrainConfig(learning_rate=1e-3, epochs=3, batch_size=8)
        r1 = tr.train(cfg, windows, windows, tcfg)
        r2 = tr.train(cfg, windows, windows, tcfg)
        assert r1.history == r2.history
        for name in r1.params:
            np.testing.assert_array_equal(r1.params[name], r2.params[name])

    def test_loss_decreases(self):
        windows = _toy_windows()
        cfg = tiny_cfg()
        tcfg = tr.TrainConfig(learning_rate=3e-3, epochs=20, batch_size=16)
        result = tr.train(cfg, windows, windows, tcfg)
        first = result.history[0][2]
        last = result.history[-1][2]
        assert last < first

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_validation_loss_raises(self):
        # one step at lr 1e200 leaves every validation forecast non-finite
        windows = _toy_windows()
        tcfg = tr.TrainConfig(learning_rate=1e200, epochs=1, batch_size=128,
                              grad_clip=None)
        with pytest.raises(NonFiniteLoss, match="after 1 epoch"):
            tr.train(tiny_cfg(), windows, windows, tcfg)

    def test_returns_best_validation_checkpoint(self):
        windows = _toy_windows()
        cfg = tiny_cfg()
        tcfg = tr.TrainConfig(learning_rate=3e-3, epochs=10, batch_size=16)
        result = tr.train(cfg, windows, windows, tcfg)
        val_losses = [row[3] for row in result.history]
        assert result.best_val == min(val_losses)
        assert result.best_epoch == int(np.argmin(val_losses))
        final_val = tr.evaluate(windows, result.params, cfg)["mse"]
        assert final_val == pytest.approx(result.best_val)

    def test_early_stopping_with_tiny_patience(self):
        windows = _toy_windows()
        cfg = tiny_cfg()
        tcfg = tr.TrainConfig(learning_rate=10.0, epochs=200, patience=2,
                              batch_size=16, grad_clip=None)
        result = tr.train(cfg, windows, windows, tcfg)
        assert result.stopped_early
        assert len(result.history) < 200

    def test_validation_tie_keeps_earlier_epoch(self, monkeypatch):
        # the best epoch is the first with the lowest validation loss
        losses = iter([1.0, 0.5, 0.5, 0.7])
        monkeypatch.setattr(tr, "evaluate",
                            lambda *args: {"mse": next(losses)})
        windows = _toy_windows()
        result = tr.train(tiny_cfg(), windows, windows,
                          tr.TrainConfig(epochs=4, batch_size=16))
        assert (result.best_epoch, result.best_val) == (1, 0.5)

    def test_early_stop_after_patience_checks(self, monkeypatch):
        # training stops at the `patience`-th check in a row without
        # improvement
        losses = iter([1.0, 0.5, 0.6, 0.7, 0.4, 0.3])
        monkeypatch.setattr(tr, "evaluate",
                            lambda *args: {"mse": next(losses)})
        windows = _toy_windows()
        result = tr.train(tiny_cfg(), windows, windows,
                          tr.TrainConfig(epochs=6, patience=2, batch_size=16))
        assert result.stopped_early
        assert [row[3] for row in result.history] == [1.0, 0.5, 0.6, 0.7]
        assert result.best_epoch == 1

    def test_history_schedule_column(self):
        windows = _toy_windows()
        cfg = tiny_cfg()
        tcfg = tr.TrainConfig(learning_rate=1e-3, epochs=4, batch_size=16)
        result = tr.train(cfg, windows, windows, tcfg)
        for epoch, lr, _, _ in result.history:
            assert lr == tr.lr_at(epoch, tcfg)

    def test_freeze_conv_keeps_kernels(self):
        windows = _toy_windows(lookback=16)
        cfg = tiny_cfg(lookback=16, conv_variant="dcn",
                       kernel_sizes=(3, 3), freeze_conv=True)
        init = md.init_params(cfg)
        tcfg = tr.TrainConfig(learning_rate=1e-2, epochs=2, batch_size=16)
        result = tr.train(cfg, windows, windows, tcfg, init=init)
        for name in init:
            if ".conv" in name:
                np.testing.assert_array_equal(result.params[name], init[name])
        assert not np.array_equal(result.params["s1.b1.trunk0.W"],
                                  init["s1.b1.trunk0.W"])

    # With the last epoch the best, the returned parameters are the
    # trained weights handed over; with the first, a copy taken before
    # the next epoch moved them.  A clip of 0.05 fires on every step.
    @pytest.mark.parametrize("freeze, lr, clip, best_epoch", [
        pytest.param(False, 1e-2, None, 2, id="False-0.01"),
        pytest.param(False, 0.3, None, 0, id="False-0.3"),
        pytest.param(True, 1e-2, None, 2, id="True-0.01"),
        pytest.param(True, 0.3, None, 2, id="True-0.3"),
        pytest.param(True, 0.5, None, 0, id="True-0.5"),
        pytest.param(False, 1e-2, 0.05, 2, id="False-0.01-clip"),
        pytest.param(False, 0.5, 0.05, 0, id="False-0.5-clip"),
        pytest.param(True, 1e-2, 0.05, 2, id="True-0.01-clip"),
        pytest.param(True, 0.5, 0.05, 0, id="True-0.5-clip"),
    ])
    def test_matches_per_tensor_reference_loop(self, freeze, lr, clip,
                                               best_epoch):
        """`train` gives the bits of a plain loop over `_batch_grads` and
        a per-tensor Adam, writes nothing into `init`, and returns
        parameters that a later `train` call does not write."""
        cfg = tiny_cfg(lookback=16, conv_variant="dcn", kernel_sizes=(3, 3),
                       dropout_rate=0.1, freeze_conv=freeze)
        train_w = _toy_windows(n=40, lookback=16)
        val_w = _toy_windows(n=24, lookback=16, seed=1)
        tcfg = tr.TrainConfig(learning_rate=lr, epochs=3, batch_size=8,
                              grad_clip=clip, seed=3)
        init = md.init_params(replace(cfg, seed=2))
        init_copy = {k: v.copy() for k, v in init.items()}
        init_ids = {k: id(v) for k, v in init.items()}
        result = tr.train(cfg, train_w, val_w, tcfg, init=init)
        assert {k: id(v) for k, v in init.items()} == init_ids
        for name, value in init_copy.items():
            np.testing.assert_array_equal(init[name], value)

        params = {k: v.copy() for k, v in init.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        rng = np.random.default_rng(tcfg.seed)
        history, best, best_val, step, clipped = [], None, np.inf, 0, 0
        for epoch in range(tcfg.epochs):
            lr = tr.lr_at(epoch, tcfg)
            order = np.arange(len(train_w))
            rng.shuffle(order)
            losses = []
            for start in range(0, len(order), tcfg.batch_size):
                grads = _nan_buffers(params)
                loss = tr._batch_grads(
                    order[start:start + tcfg.batch_size], train_w, params,
                    cfg, rng, grads)
                if freeze:
                    grads = {k: np.zeros_like(g) if ".conv" in k else g
                             for k, g in grads.items()}
                if clip is not None:  # over the concatenated vector
                    flat = np.concatenate([g.reshape(-1)
                                           for g in grads.values()])
                    norm = np.sqrt(flat @ flat)
                    if norm > clip:
                        clipped += 1
                        grads = {k: g * (clip / norm)
                                 for k, g in grads.items()}
                step += 1
                _per_tensor_adam(params, grads, m, v, step, lr, tcfg)
                losses.append(loss)
            val = tr.evaluate(val_w, params, cfg)["mse"]
            history.append((epoch, lr, float(np.mean(losses)), val))
            if val < best_val:
                best_val, best = val, {k: x.copy() for k, x in params.items()}

        assert result.history == history
        assert clipped == (0 if clip is None else step)
        assert result.best_epoch == best_epoch
        assert list(result.params) == list(best)
        for name, value in best.items():
            np.testing.assert_array_equal(result.params[name], value, name)
            if freeze and ".conv" in name:
                np.testing.assert_array_equal(value, init[name])

        kept = {k: x.copy() for k, x in result.params.items()}
        tr.train(cfg, train_w, val_w, tcfg, init=result.params)
        for name, value in kept.items():
            np.testing.assert_array_equal(result.params[name], value, name)

    def test_trained_bits_unchanged(self):
        # the SHA-256 prefix of every (name, shape, float64 bytes) this
        # run returned when its 138,486 parameters were split into two
        # buffers of at most 2^17 elements: one buffer per role must not
        # move a bit while clipping is off
        cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=256,
                             horizon=8, hidden_depth=1, hidden_width=8,
                             conv_variant="cnn", kernel_sizes=(3, 3),
                             dilations=(1,), freeze_conv=True,
                             dropout_rate=0.1)
        tcfg = tr.TrainConfig(learning_rate=1e-2, epochs=3, batch_size=8,
                              grad_clip=None, seed=3)
        result = tr.train(cfg, _toy_windows(n=300, lookback=256, horizon=8),
                          _toy_windows(n=280, lookback=256, horizon=8,
                                       seed=1), tcfg)
        h = hashlib.sha256()
        for name, arr in result.params.items():
            h.update(f"{name} {arr.shape}\n".encode())
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert h.hexdigest()[:32] == "085ac042791e0197e07cbd978f2dcbc4"

    def test_empty_windows_rejected(self):
        windows = _toy_windows()
        empty = tr.WindowSet(inputs=[], targets=[], offsets=[])
        with pytest.raises(ValueError):
            tr.train(tiny_cfg(), empty, windows, tr.TrainConfig())


class TestMemory:
    def test_chained_calls_peak_below_seven_parameter_vectors(self):
        """Four `train` calls, each from the last one's result, with the
        first call's `init` and that result held, as the benchmark's
        rounds hold them.  The last call's traced peak stays within 7
        vectors of the parameters' size: the two held sets, the weights,
        gradients and Adam moments, and less than one vector more."""
        cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=256,
                             horizon=8, hidden_depth=1, hidden_width=8,
                             conv_variant="cnn", kernel_sizes=(3, 3),
                             dilations=(1,), freeze_conv=True,
                             dropout_rate=0.1)
        tcfg = tr.TrainConfig(learning_rate=1e-2, epochs=1, batch_size=2,
                              seed=3)
        train_w = _toy_windows(n=265, lookback=256, horizon=8)
        val_w = _toy_windows(n=264, lookback=256, horizon=8, seed=1)
        assert (len(train_w), len(val_w)) == (2, 1)
        tracemalloc.start()
        try:
            init = md.init_params(cfg)
            vector = 8 * sum(x.size for x in init.values())
            held = init
            for _ in range(4):
                tracemalloc.reset_peak()
                held = tr.train(cfg, train_w, val_w, tcfg, init=held).params
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vector == 8 * 138_486
        assert peak <= 7.0 * vector, peak / vector

    def test_evaluate_peak_does_not_grow_with_the_set(self):
        """`forecast` converts one FORECAST_CHUNK of windows at a time, so
        evaluating 20,000 windows peaks below twice what 256 windows do;
        a copy of the whole [N, T] set would add 115 MB."""
        cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=720,
                             horizon=8, hidden_depth=1, hidden_width=8,
                             conv_variant="none", dropout_rate=0.0)
        params = md.init_params(cfg)
        peaks = []
        for n in (256, 20_000):
            windows = _toy_windows(n=n + 727, lookback=720, horizon=8)
            assert len(windows) == n
            tracemalloc.start()
            try:
                tr.evaluate(windows, params, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_cli_eval_peak_does_not_grow_with_the_set(self, tmp_path):
        """CLI `eval --baseline` copies the targets but no inputs, so 20,001
        test windows peak below 1.5 times what 257 do; a copy of the
        whole [N, T] input set would add 115 MB to the 70 MB that loading
        the checkpoint takes."""
        text = ("model.n_stacks = 2\nmodel.blocks_per_stack = 1\n"
                "model.lookback = 720\nmodel.horizon = 8\n"
                "model.hidden_depth = 1\nmodel.hidden_width = 8\n"
                'model.conv_variant = "none"\nmodel.dropout_rate = 0.0\n'
                "split.train = 0.3\nsplit.val = 0.3\nsplit.test = 0.4\n")
        checkpoint = tmp_path / "checkpoint.txt"
        peaks = []
        for length, n in ((2460, 257), (51_820, 20_001)):
            run = load_run_config(text=text + f"synthetic.length = {length}")
            if not checkpoint.exists():
                tr.save_checkpoint(checkpoint, md.init_params(run.model),
                                   run.model)
            assert len(cli._prepare(run)[2]["test"]) == n
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.cmd_eval(run, tmp_path, str(checkpoint),
                                 baseline=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("step", ["save", "load"])
    def test_checkpoint_io_peak_below_three_file_sizes(self, step,
                                                       tmp_path):
        """Saving or loading one 2**18-value tensor (a 5.3 MB file) peaks
        below three times the file's size.  A save holds one piece of at
        most SAVE_PIECE floats and their text; a load holds the value line
        as read and as split into lines, and the array it returns.  The
        floats and text of every value at once take about six file
        sizes."""
        cfg = tiny_cfg()
        values = np.random.default_rng(0).standard_normal(2 ** 18)
        path = tmp_path / "ckpt.txt"
        if step == "load":
            tr.save_checkpoint(path, {"w": values}, cfg)
        tracemalloc.start()
        try:
            if step == "save":
                tr.save_checkpoint(path, {"w": values}, cfg)
            else:
                loaded, _ = tr.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if step == "load":
            np.testing.assert_array_equal(loaded["w"], values)
        size = path.stat().st_size
        assert 5.0e6 < size < 5.6e6, size
        assert peak < 3 * size, peak / size

    def test_chained_one_step_calls_peak_rss_below_four_vectors(self):
        """Four one-step `train` calls on a 2.1M-parameter model, chained
        as in the test above, in a fresh process.  Peak RSS grows by at
        most 4 parameter vectors over its reading once the parameters and
        windows are built: the previous result, the weights, the
        gradients, and less than one vector more.  Adam's moments, which
        no step of such a call writes, stay unmapped.  (tracemalloc counts
        allocations, so it cannot see that.)"""
        script = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from test_training import _toy_windows
from wavestack import model as md, training as tr
cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=1024,
                     horizon=8, hidden_depth=1, hidden_width=8,
                     conv_variant="none", kernel_sizes=(3, 3),
                     dropout_rate=0.0, seed=3)
tcfg = tr.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=2, seed=3)
init = md.init_params(cfg)
train_w = _toy_windows(n=1033, lookback=1024, horizon=8)
val_w = _toy_windows(n=1032, lookback=1024, horizon=8, seed=1)
baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
held = init
for _ in range(4):
    held = tr.train(cfg, train_w, val_w, tcfg, init=held).params
print(json.dumps({
    "windows": [len(train_w), len(val_w)],
    "params": sum(x.size for x in init.values()),
    "baseline_kib": baseline,
    "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""
        run = subprocess.run([sys.executable, "-c", script,
                              str(ROOT / "tests")], env=_src_env(),
                             check=True, capture_output=True, text=True,
                             timeout=300)
        got = json.loads(run.stdout.splitlines()[-1])
        assert got["windows"] == [2, 1]
        assert got["params"] == 2_134_320
        vector = 8 * got["params"]
        grown = 1024 * (got["peak_kib"] - got["baseline_kib"])
        assert grown <= 4.0 * vector, grown / vector

    def test_one_step_call_holds_no_weight_vector(self):
        """The chain of the test above, whose one-step calls each read
        `init` for the first forward and write their new weights over
        their spent gradients: peak RSS grows by at most 2.5 parameter
        vectors, the previous result, the gradients and less than half a
        vector more.  A call that copies `init` into a weight vector of
        its own grows by about 3.1."""
        script = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from test_training import _toy_windows
from wavestack import model as md, training as tr
cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=1024,
                     horizon=8, hidden_depth=1, hidden_width=8,
                     conv_variant="none", kernel_sizes=(3, 3),
                     dropout_rate=0.0, seed=3)
tcfg = tr.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=2, seed=3)
init = md.init_params(cfg)
train_w = _toy_windows(n=1033, lookback=1024, horizon=8)
val_w = _toy_windows(n=1032, lookback=1024, horizon=8, seed=1)
baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
held = init
for _ in range(4):
    held = tr.train(cfg, train_w, val_w, tcfg, init=held).params
print(json.dumps({
    "windows": [len(train_w), len(val_w)],
    "params": sum(x.size for x in init.values()),
    "baseline_kib": baseline,
    "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""
        run = subprocess.run([sys.executable, "-c", script,
                              str(ROOT / "tests")], env=_src_env(),
                             check=True, capture_output=True, text=True,
                             timeout=300)
        got = json.loads(run.stdout.splitlines()[-1])
        assert got["windows"] == [2, 1]
        assert got["params"] == 2_134_320
        vector = 8 * got["params"]
        grown = 1024 * (got["peak_kib"] - got["baseline_kib"])
        assert grown <= 2.5 * vector, grown / vector

    def test_batch_step_holds_node_values_and_one_layer_of_gradients(self):
        """One warm `_batch_grads` step at the paper's batch of 128, on a
        model whose activations dominate its 37k parameters: 2 stacks of
        4 blocks whose residuals are [128, 256].  Backward writes the
        parameter gradients into buffers made before tracing starts, so
        the traced peak holds the node values the step's tape records
        (V, counted on a tape of the same forward) and one layer of
        gradients.  As backward passes a block that layer is the residual
        chain's gradient, the block sums' gradient, the gradient being
        passed and the contribution being added to the chain: at most 4
        arrays of one activation's size A = 8 * 128 * 256 bytes.  Allow
        as many again for the VJPs' temporaries and the tape's Python
        objects, so the peak stays within V + 8 A.  (Measured: V is
        26.5 A, and the peak V + 6.0 A; a backward that keeps every
        interior gradient peaks at V + 21.0 A.)"""
        cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=4, lookback=256,
                             horizon=8, hidden_depth=2, hidden_width=8,
                             theta_backcast_dim=8, conv_variant="none",
                             dropout_rate=0.1)
        params = md.init_params(cfg)
        windows = _toy_windows(n=391, lookback=256, horizon=8)
        batch = np.arange(128)
        assert len(windows) == 128
        tape = Tape()
        _, leaves = md.forward_loss(windows.inputs[batch],
                                    windows.targets[batch], params, cfg,
                                    tape, np.random.default_rng(0))
        kept = set(leaves.values())
        values = sum(node.value.nbytes for node in tape.nodes
                     if node not in kept)
        del tape, leaves, kept
        activation = 8 * 128 * 256
        grads = _nan_buffers(params)
        tr._batch_grads(batch, windows, params, cfg,
                        np.random.default_rng(0), grads)
        tracemalloc.start()
        try:
            tr._batch_grads(batch, windows, params, cfg,
                            np.random.default_rng(0), grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(x.size for x in params.values()) < 40_000
        assert values >= 20 * activation, values / activation
        assert peak <= values + 8 * activation, \
            (peak - values) / activation


# two models of different sizes, and the run that trains them
SMALL = dict(lookback=16, conv_variant="dcn", kernel_sizes=(3, 3),
             dropout_rate=0.1)
LARGE = dict(SMALL, hidden_width=12)
_RUN = tr.TrainConfig(learning_rate=1e-2, epochs=3, batch_size=8,
                      grad_clip=1.0, seed=3)


def _train(model, init=None):
    return tr.train(tiny_cfg(**model), _toy_windows(n=40, lookback=16),
                    _toy_windows(n=24, lookback=16, seed=1), _RUN, init=init)


class TestCallIsolation:
    @pytest.mark.parametrize("a, b", [(LARGE, SMALL), (SMALL, LARGE)])
    def test_layouts_a_b_a_match_a_fresh_process(self, a, b, tmp_path):
        script = ("import sys, numpy as np\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from test_training import _train, LARGE, SMALL\n"
                  f"np.savez(sys.argv[2], **_train({a!r}).params)\n")
        subprocess.run([sys.executable, "-c", script, str(ROOT / "tests"),
                        str(tmp_path / "fresh.npz")], env=_src_env(),
                       check=True, timeout=300)
        fresh = np.load(tmp_path / "fresh.npz")
        for model in (a, b, a):
            result = _train(model)
        assert list(result.params) == list(fresh)
        for name, value in result.params.items():
            np.testing.assert_array_equal(value, fresh[name], name)

    def test_earlier_result_is_kept_and_unshared(self):
        first = _train(SMALL)
        kept = {k: x.copy() for k, x in first.params.items()}
        second = _train(SMALL, init=first.params)
        for name, value in first.params.items():
            np.testing.assert_array_equal(value, kept[name], name)
            for other in second.params.values():
                assert not np.may_share_memory(value, other), name

    def test_one_step_call_leaves_held_moments_unwritten(self,
                                                        monkeypatch):
        """A call whose only step is its last writes neither of its
        state's moment vectors, and trains the bits an unwatched call
        gives."""
        train_w = _toy_windows(n=19, lookback=16)
        val_w = _toy_windows(n=24, lookback=16, seed=1)
        run = tr.TrainConfig(learning_rate=1e-2, epochs=1, batch_size=8,
                             grad_clip=1.0, seed=3)
        assert len(train_w) == 2
        new = tr.TrainState.new
        states = []

        def nan_moments(tensors):
            state = new(tensors)
            state.m.fill(np.nan)
            state.v.fill(np.nan)
            states.append((state, state.m.tobytes()))
            return state

        monkeypatch.setattr(tr.TrainState, "new", nan_moments)
        result = tr.train(tiny_cfg(**SMALL), train_w, val_w, run)
        (state, sentinel), = states
        assert state.m.tobytes() == state.v.tobytes() == sentinel
        monkeypatch.setattr(tr.TrainState, "new", new)
        fresh = tr.train(tiny_cfg(**SMALL), train_w, val_w, run)
        for name, value in fresh.params.items():
            assert result.params[name].tobytes() == value.tobytes(), name

    def test_clean_bits_after_non_finite_gradient(self, monkeypatch):
        clean = _train(SMALL)
        batch_grads = tr._batch_grads
        calls = []

        def poisoned(*args):
            loss = batch_grads(*args)
            calls.append(None)
            if len(calls) == 3:  # after two steps have moved the buffers
                # the gradient vector that the buffers passed in view
                vector = next(iter(args[-1].values())).base
                assert vector.ndim == 1 and vector.flags.owndata
                vector[0] = np.nan
            return loss

        monkeypatch.setattr(tr, "_batch_grads", poisoned)
        with pytest.raises(NonFiniteGradient):
            _train(SMALL)
        monkeypatch.setattr(tr, "_batch_grads", batch_grads)
        again = _train(SMALL)
        for name, value in clean.params.items():
            np.testing.assert_array_equal(again.params[name], value, name)


def _arrive_as(init, forms, readonly):
    """`init` with tensor i in the form `forms[i % len(forms)]`: C-order
    float64 ("c"), float32, Fortran order, a strided view, or a view
    into one vector that holds the "shared" tensors end to end, as a
    previous result is.  Returns the tensors and every array that owns
    their memory; with `readonly`, none of them can be written."""
    out, owners, shared = {}, [], []
    for i, (name, x) in enumerate(init.items()):
        form = forms[i % len(forms)]
        if form == "float32":
            out[name] = x.astype(np.float32)
        elif form == "fortran":
            out[name] = np.asfortranarray(x)
        elif form == "strided":
            wide = np.full(x.shape[:-1] + (2 * x.shape[-1],), np.nan)
            wide[..., 1::2] = x
            out[name] = wide[..., 1::2]
        elif form == "shared":
            shared.append(name)
            continue
        else:
            out[name] = x.copy()
        owners.append(out[name] if out[name].base is None
                      else out[name].base)
    if shared:
        vector = np.concatenate([init[k].reshape(-1) for k in shared])
        owners.append(vector)
        if readonly:
            vector.setflags(write=False)
        end = 0
        for k in shared:
            out[k] = vector[end:end + init[k].size].reshape(init[k].shape)
            end += init[k].size
    if readonly:
        for x in owners + list(out.values()):
            x.setflags(write=False)
    return {k: out[k] for k in init}, owners


class TestInitArrival:
    @settings(max_examples=40, deadline=None)
    @given(forms=st.lists(st.sampled_from(["c", "float32", "fortran",
                                           "strided", "shared"]),
                          min_size=1, max_size=6),
           readonly=st.booleans(), freeze=st.booleans(),
           epochs=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 16))
    def test_bits_whatever_form_init_takes(self, forms, readonly, freeze,
                                           epochs, seed):
        """A call whose first forward and first step read `init` as it
        arrives trains the bits a call on a C-order float64 copy of it
        gives, and leaves every byte that holds `init` as it was.  Two
        windows in batches of 2 make one step per epoch: a one-step call
        and a 3-step one."""
        cfg = tiny_cfg(lookback=16, conv_variant="dcn", kernel_sizes=(3, 3),
                       dropout_rate=0.1, freeze_conv=freeze)
        train_w = _toy_windows(n=19, lookback=16, seed=seed)
        val_w = _toy_windows(n=24, lookback=16, seed=seed + 1)
        run = tr.TrainConfig(learning_rate=1e-2, epochs=epochs, batch_size=2,
                             grad_clip=1.0, seed=seed)
        init, owners = _arrive_as(md.init_params(replace(cfg, seed=seed)),
                                  forms, readonly)
        held = [x.tobytes(order="A") for x in owners]
        copy = {k: np.array(x, dtype=np.float64, order="C")
                for k, x in init.items()}
        got = tr.train(cfg, train_w, val_w, run, init=init)
        want = tr.train(cfg, train_w, val_w, run, init=copy)
        assert [x.tobytes(order="A") for x in owners] == held
        assert got.history == want.history
        for name, value in want.params.items():
            assert got.params[name].tobytes() == value.tobytes(), name


def _per_window_forecasts(windows, params, cfg):
    return [md.model_forward(x, params, cfg, Tape()).global_forecast
            for x in windows.inputs]


class TestWindowSetForecast:
    @pytest.mark.parametrize("variant", ["dcn", "maxpool", "none"])
    @pytest.mark.parametrize("kind", ["haar", "db2", "sym4"])
    def test_forecast_matches_per_window_forward(self, kind, variant):
        cfg = tiny_cfg(n_stacks=3, lookback=16, horizon=3, hidden_width=6,
                       conv_variant=variant, kernel_sizes=(3, 3, 2),
                       wavelet_kind=kind)
        windows = _toy_windows(n=40, lookback=16, horizon=3)
        params = md.init_params(cfg)
        per_window = np.stack(_per_window_forecasts(windows, params, cfg))
        # a one-row set runs the single-window arithmetic: bit for bit
        for x, expected in zip(windows.inputs[:5], per_window):
            np.testing.assert_array_equal(
                tr.forecast([x], params, cfg), expected[None])
        # a batch sums its matrix products in another order than one
        # window does, so the whole set agrees to rounding only
        pred = tr.forecast(windows.inputs, params, cfg)
        assert pred.shape == (len(windows), 3)
        np.testing.assert_allclose(pred, per_window, rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["haar", "db2", "sym4"]),
           variant=st.sampled_from(md.CONV_VARIANTS),
           n_stacks=st.sampled_from([1, 3]),
           n=st.integers(0, 10), seed=st.integers(0, 2**16))
    def test_bundles_partition_the_set(self, kind, variant, n_stacks, n,
                                       seed):
        """Chunks of 3 windows, so that sets of 0-10 cross chunk edges."""
        cfg = tiny_cfg(n_stacks=n_stacks, blocks_per_stack=2,
                       alpha=0.4 if n_stacks > 1 else 0.0, lookback=32,
                       horizon=4, hidden_width=6, conv_variant=variant,
                       kernel_sizes=None, wavelet_kind=kind, seed=seed)
        params = md.init_params(cfg)
        x = np.random.default_rng(seed).normal(size=(n, 32))
        x = list(x) if n else x  # an empty list is no [0, T] set
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "FORECAST_CHUNK", 3)
            bundles = list(tr.forecast_bundles(x, params, cfg))
            pred = tr.forecast(x, params, cfg)
        rows = [len(x[start:start + 3]) for start in range(0, max(n, 1), 3)]
        assert len(bundles) == len(rows)
        for bundle, m in zip(bundles, rows):
            assert bundle.global_forecast.shape == (m, 4)
            parts = (bundle.per_stack_forecast, bundle.per_stack_backcast,
                     bundle.stack_inputs, bundle.infused_signals)
            for part, width in zip(parts, (4, 32, 32, 32)):
                assert [p.shape for p in part] == [(m, width)] * n_stacks
            total = bundle.per_stack_forecast[0]
            for f in bundle.per_stack_forecast[1:]:
                total = total + f
            np.testing.assert_array_equal(total, bundle.global_forecast)
        assert np.concatenate([b.global_forecast for b in bundles]
                              ).tobytes() == pred.tobytes()
        if n:  # a one-row set, as `cli.cmd_forecast` passes
            bundle, = tr.forecast_bundles(x[:1], params, cfg)
            one = md.model_forward(x[0], params, cfg, InferenceTape())
            assert bundle.global_forecast[0].tobytes() == \
                one.global_forecast.tobytes()
            for name in ("per_stack_forecast", "per_stack_backcast",
                         "stack_inputs", "infused_signals"):
                assert [p[0].tobytes() for p in getattr(bundle, name)] == \
                    [p.tobytes() for p in getattr(one, name)], name

    @pytest.mark.parametrize("variant", md.CONV_VARIANTS)
    @pytest.mark.parametrize("kind", ["haar", "db2", "sym4"])
    @settings(max_examples=8, deadline=None)
    @given(n_stacks=st.integers(1, 3),
           alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           n=st.integers(1, 7), seed=st.integers(0, 2**16))
    def test_bundles_match_a_recording_forward(self, kind, variant,
                                               n_stacks, alpha, n, seed):
        """Every part of every bundle, against `model_forward` on a
        recording Tape over the same chunk: the same bits."""
        cfg = tiny_cfg(n_stacks=n_stacks, blocks_per_stack=2,
                       alpha=alpha if n_stacks > 1 else 0.0, lookback=32,
                       horizon=4, hidden_depth=2, hidden_width=6,
                       conv_variant=variant, kernel_sizes=None,
                       wavelet_kind=kind, seed=seed)
        params = md.init_params(cfg)
        x = np.random.default_rng(seed).normal(size=(n, 32))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "FORECAST_CHUNK", 3)
            bundles = list(tr.forecast_bundles(x, params, cfg))
        assert len(bundles) == -(-n // 3)
        for start, bundle in zip(range(0, n, 3), bundles):
            tape = Tape()
            recorded = md.model_forward(x[start:start + 3], params, cfg,
                                        tape)
            assert tape.nodes and recorded.forecast_node.parents
            assert bundle.forecast_node.parents == ()
            assert bundle.global_forecast.tobytes() == \
                recorded.global_forecast.tobytes()
            for name in ("per_stack_forecast", "per_stack_backcast",
                         "stack_inputs", "infused_signals"):
                mine, theirs = getattr(bundle, name), getattr(recorded, name)
                assert len(mine) == len(theirs) == n_stacks, name
                for a, b in zip(mine, theirs):
                    assert a.shape == b.shape and \
                        a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("shape,named", [
        (None, r"\(0,\)"), ((16,), r"\(16,\)"), ((2, 3, 16), r"\(2, 3, 16\)")],
        ids=["empty_list", "one_window", "rank_3"])
    def test_forecast_rejects_anything_but_a_window_set(self, shape, named):
        cfg = tiny_cfg(lookback=16, horizon=3)
        inputs = [] if shape is None else np.zeros(shape)
        with pytest.raises(ShapeMismatch, match=f"got a set of shape {named}$"):
            tr.forecast(inputs, md.init_params(cfg), cfg)

    def test_evaluate_is_mean_of_window_scores(self):
        cfg = tiny_cfg(n_stacks=3, lookback=16, horizon=3,
                       wavelet_kind="db2")
        windows = _toy_windows(n=60, lookback=16, horizon=3)
        params = md.init_params(cfg)
        forecasts = tr.forecast(windows.inputs, params, cfg)
        assert tr.evaluate(windows, params, cfg) == {
            "mse": float(np.mean([tr.mse(f, y) for f, y in
                                  zip(forecasts, windows.targets)])),
            "mae": float(np.mean([tr.mae(f, y) for f, y in
                                  zip(forecasts, windows.targets)])),
        }


def _nan_buffers(params):
    """Gradient buffers shaped as `params`, NaN until written."""
    return {k: np.full_like(v, np.nan) for k, v in params.items()}


def _per_window_grads(batch, windows, params, cfg, rng):
    """The reference for `_batch_grads`: one tape per window, the batch's
    mean loss and gradients accumulated window by window."""
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    total = 0.0
    for j in batch:
        tape = Tape()
        loss, leaves = md.forward_loss(
            windows.inputs[j], windows.targets[j], params, cfg, tape, rng)
        tape.backward(loss)
        total += float(loss.value) / len(batch)
        for name in grads:
            grads[name] += leaves[name].grad / len(batch)
    return total, grads


def _batch_cfg(kind, variant, dropout):
    return tiny_cfg(n_stacks=3, blocks_per_stack=2, lookback=32, horizon=4,
                    hidden_depth=2, hidden_width=6, conv_variant=variant,
                    kernel_sizes=(3, 3, 2), wavelet_kind=kind,
                    dropout_rate=dropout)


class TestBatchGrads:
    """One tape per minibatch against one tape per window."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["haar", "db2", "sym4"]),
           variant=st.sampled_from(["dcn", "cnn", "maxpool", "avgpool",
                                    "none"]),
           dropout=st.sampled_from([0.0, 0.1]),
           size=st.sampled_from([1, 32]) | st.integers(1, 15).map(
               lambda n: 2 * n + 1),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_window_loop(self, kind, variant, dropout, size,
                                     seed):
        cfg = _batch_cfg(kind, variant, dropout)
        windows = _toy_windows(n=80, lookback=32, horizon=4, seed=seed % 7)
        params = md.init_params(replace(cfg, seed=seed % 5))
        batch = np.random.default_rng(seed).permutation(len(windows))[:size]
        grads = _nan_buffers(params)
        loss = tr._batch_grads(batch, windows, params, cfg,
                               np.random.default_rng(seed), grads)
        ref_loss, ref_grads = _per_window_grads(
            batch, windows, params, cfg, np.random.default_rng(seed))
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            scale = float(np.max(np.abs(ref)))
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * scale, name

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_non_finite_loss_names_first_bad_window(self, data):
        windows = _toy_windows(n=40, lookback=8, horizon=2)
        n = len(windows)
        batch = data.draw(st.permutations(range(n)))[
            :data.draw(st.integers(1, n))]
        bad = data.draw(st.sets(st.sampled_from(batch), min_size=1))
        targets = windows.targets.copy()
        targets[sorted(bad)] = np.nan
        poisoned = tr.WindowSet(windows.inputs, targets, windows.offsets)
        first = next(j for j in batch if j in bad)
        with pytest.raises(NonFiniteLoss,
                           match=f"window index {first}$"):
            params = md.init_params(tiny_cfg())
            tr._batch_grads(np.array(batch), poisoned, params, tiny_cfg(),
                            np.random.default_rng(0), _nan_buffers(params))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_cfg()
        params = md.init_params(cfg)
        path = tmp_path / "ckpt.txt"
        tr.save_checkpoint(path, params, cfg, epoch=7, val_loss=0.123)
        loaded, header = tr.load_checkpoint(path, cfg)
        assert header["epoch"] == "7"
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_config_mismatch(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "ckpt.txt"
        tr.save_checkpoint(path, md.init_params(cfg), cfg)
        with pytest.raises(ConfigMismatch):
            tr.load_checkpoint(path, tiny_cfg(hidden_width=8))

    def test_byte_identical_rewrites(self, tmp_path):
        cfg = tiny_cfg()
        params = md.init_params(cfg)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        tr.save_checkpoint(p1, params, cfg)
        tr.save_checkpoint(p2, params, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tensor_header_must_start_with_tensor(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        path.write_text("tensor w 2\n1.0 2.0\nbogus b 1\n3.0\n")
        with pytest.raises(CorruptCheckpoint,
                           match=r": line 3: expected 'tensor NAME SHAPE'"):
            tr.load_checkpoint(path)

    def test_repeated_tensor(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "ckpt.txt"
        tr.save_checkpoint(path, md.init_params(cfg), cfg)
        lines = path.read_text().splitlines()
        at = lines.index(next(line for line in lines
                              if line.startswith("tensor s1.b1.proj_f.b ")))
        path.write_text("\n".join(lines + lines[at:at + 2]) + "\n")
        with pytest.raises(CorruptCheckpoint,
                           match=rf": line {len(lines) + 1}: tensor "
                                 rf"s1\.b1\.proj_f\.b is listed twice$"):
            tr.load_checkpoint(path, cfg)

    @pytest.mark.parametrize("first, shown", [
        ("format_version 2", "'2'"), ("format_version banana", "'banana'"),
        (None, "None")], ids=["two", "banana", "absent"])
    def test_format_version_must_be_one(self, first, shown, tmp_path):
        lines = (ROOT / "tests" / "data" / "v1" /
                 "checkpoint.txt").read_text().splitlines()
        lines[:1] = [] if first is None else [first]
        path = tmp_path / "ckpt.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptCheckpoint,
                           match=rf": format_version {shown} is not 1$"):
            tr.load_checkpoint(path)

    def test_config_hash_stable_and_sensitive(self):
        assert tr.config_hash(tiny_cfg()) == tr.config_hash(tiny_cfg())
        assert tr.config_hash(tiny_cfg()) != \
            tr.config_hash(tiny_cfg(alpha=0.5))

    def test_history_file(self, tmp_path):
        path = tmp_path / "history.csv"
        tr.save_history(path, [(0, 1e-3, 0.5, 0.6), (1, 2e-3, 0.4, 0.5)])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_loss"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"
