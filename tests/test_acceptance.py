"""End-to-end acceptance checks: reconstruction bounds, gradient
correctness, architectural identities, directional benchmark trends and
CLI determinism, each with an explicit tolerance and runtime budget."""

import time

import numpy as np
import pytest

from wavestack import autodiff as ad
from wavestack import cli, dataio, ensemble as ens
from wavestack import model as md
from wavestack import training as tr
from wavestack import wavelet as wv
from wavestack.autodiff import Tape


class TestPerfectReconstruction:
    @pytest.mark.parametrize("kind", ["haar", "db2"])
    def test_hundred_random_series(self, kind):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=720)
            pyramid = wv.mdwd(x, 3, kind)
            recon = pyramid.approx[-1] + sum(pyramid.detail)
            worst = max(worst, float(np.max(np.abs(recon - x))))
        assert worst <= 1e-8
        assert time.monotonic() - start < 5.0


class TestFrequencySeparation:
    def _setup(self):
        t = np.arange(512)
        low = np.sin(2 * np.pi * t / 64)
        high = np.sin(2 * np.pi * t / 4)
        return low, high, wv.mdwd(low + high, 3, "haar")

    def test_approx_tracks_slow_component(self):
        start = time.monotonic()
        low, _, pyramid = self._setup()
        corr = np.corrcoef(pyramid.approx[2], low)[0, 1]
        assert corr > 0.95
        assert time.monotonic() - start < 1.0

    def test_detail_tracks_fast_component(self):
        # A period-4 tone (omega = pi/2) sits on the crossover between the
        # level-1 detail band [pi/2, pi] and the approximation band.  There
        # a decimated two-channel bank splits the tone by its phase against
        # the decimation grid, for every orthogonal kind (correlation
        # anywhere from ~0 to ~0.999), so no fixed threshold holds.  The
        # fast tone is therefore put at the band centre, omega = 3*pi/4
        # (192 whole cycles in 512 samples), and checked at every phase.
        t = np.arange(512)
        low = np.sin(2 * np.pi * t / 64)
        for phase in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            high = np.sin(0.75 * np.pi * t + phase)
            pyramid = wv.mdwd(low + high, 3, "haar")
            corr = np.corrcoef(pyramid.detail[0], high)[0, 1]
            assert corr > 0.9, f"phase {phase:.3f}: corr {corr:.4f}"


class TestGradientCorrectness:
    def test_full_model_finite_differences(self, monkeypatch):
        start = time.monotonic()
        cfg = md.ModelConfig(n_stacks=3, blocks_per_stack=2, alpha=0.4,
                             lookback=64, horizon=8, hidden_depth=2,
                             hidden_width=8, conv_variant="dcn",
                             kernel_sizes=(5, 3, 3), dropout_rate=0.0,
                             seed=0)
        params = md.init_params(cfg)
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        y = rng.normal(size=8)
        # every run of the check decomposes the same x: do it once
        pyramid = wv.mdwd(x, cfg.n_stacks - 1, cfg.wavelet_kind)
        monkeypatch.setattr(md, "mdwd", lambda *args: pyramid)

        def build(tape, leaves):
            bundle = md._forward(x, cfg, leaves, tape)
            return ad.mse_loss(bundle.forecast_node, y, tape)

        assert ad.grad_check(build, params) < 1e-4
        assert time.monotonic() - start < 30.0


class TestDetachedEndpoint:
    def test_alpha_zero_bit_identical(self, detached_forward):
        cfg = md.ModelConfig(n_stacks=3, blocks_per_stack=2, alpha=0.0,
                             lookback=64, horizon=8, hidden_depth=2,
                             hidden_width=8, conv_variant="dcn",
                             kernel_sizes=(5, 3, 3), dropout_rate=0.0,
                             seed=0)
        params = md.init_params(cfg)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=64)
            infused = md.model_forward(x, params, cfg, Tape())
            total, forecasts, backcasts = detached_forward(x, params, cfg)
            np.testing.assert_array_equal(infused.global_forecast, total)
            for a, b in zip(infused.per_stack_forecast, forecasts):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(infused.per_stack_backcast, backcasts):
                np.testing.assert_array_equal(a, b)


class TestArchitecturalIdentities:
    def test_fifty_random_parameterizations(self):
        cfg = md.ModelConfig(n_stacks=3, blocks_per_stack=2, alpha=0.4,
                             lookback=64, horizon=8, hidden_depth=2,
                             hidden_width=8, conv_variant="dcn",
                             kernel_sizes=(5, 3, 3), dropout_rate=0.0)
        rng = np.random.default_rng(3)
        for draw in range(50):
            params = md.init_params(cfg, seed=draw)
            x = rng.normal(size=64)
            bundle = md.model_forward(x, params, cfg, Tape())
            # global forecast is the exact ordered sum of stack forecasts
            total = bundle.per_stack_forecast[0]
            for f in bundle.per_stack_forecast[1:]:
                total = total + f
            np.testing.assert_array_equal(total, bundle.global_forecast)
            # inter-stack wiring: next input is the exact convex blend of
            # the wavelet branch with the previous residual
            for i in range(1, cfg.n_stacks):
                residual = bundle.stack_inputs[i - 1] - \
                    bundle.per_stack_backcast[i - 1]
                expected = cfg.alpha * bundle.infused_signals[i] + \
                    (1 - cfg.alpha) * residual
                np.testing.assert_array_equal(bundle.stack_inputs[i],
                                              expected)


class TestPiecewiseConstantOracle:
    def test_identity_function_projection(self):
        n = 4096
        f = (np.arange(n) + 0.5) / n  # midpoint samples of f(tau) = tau
        err1 = wv.haar_l1_error(f, wv.haar_project(f, 1))
        assert abs(err1 - 0.125) < 1e-12
        errors = [wv.haar_l1_error(f, wv.haar_project(f, w))
                  for w in range(0, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[8] < 2e-3


class TestOverfitSanity:
    def test_single_window_memorization(self):
        start = time.monotonic()
        series = dataio.multi_frequency_benchmark(length=120)
        window = tr.make_windows(series, 96, 24)
        single = tr.WindowSet(inputs=window.inputs[:1],
                              targets=window.targets[:1],
                              offsets=window.offsets[:1])
        cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=2, alpha=0.4,
                             lookback=96, horizon=24, hidden_depth=2,
                             hidden_width=16, conv_variant="none",
                             dropout_rate=0.0, seed=0)
        tcfg = tr.TrainConfig(learning_rate=1e-2, epochs=500,
                              warmup_fraction=0.05, patience=500,
                              batch_size=1, seed=0)
        result = tr.train(cfg, single, single, tcfg)
        best_train = min(row[2] for row in result.history)
        assert best_train < 1e-3
        assert time.monotonic() - start < 60.0


def _benchmark_windows(length, noise, seed):
    series = dataio.multi_frequency_benchmark(length=length,
                                              noise_level=noise, seed=seed)
    dataset = dataio.split(series, min_len=64 + 16)
    dataset, _ = dataio.standardize(dataset)
    return (tr.make_windows(dataset.train, 64, 16, stride=4),
            tr.make_windows(dataset.val, 64, 16, stride=4),
            tr.make_windows(dataset.test, 64, 16, stride=4))


def _benchmark_model(alpha, seed):
    return md.ModelConfig(n_stacks=3, blocks_per_stack=2, alpha=alpha,
                          lookback=64, horizon=16, hidden_depth=2,
                          hidden_width=8, conv_variant="dcn",
                          kernel_sizes=(5, 3, 3), dilations=(1, 2, 4),
                          dropout_rate=0.1, seed=seed)


def _test_mse(windows, params, cfg):
    forecasts = [md.model_forward(x, params, cfg, Tape()).global_forecast
                 for x in windows.inputs]
    return float(np.mean([tr.mse(f, y) for f, y in
                          zip(forecasts, windows.targets)]))


class TestInfusionDirectional:
    def test_alpha_point_four_beats_zero(self):
        start = time.monotonic()
        wins = 0
        for rep in range(10):
            wtr, wva, wte = _benchmark_windows(960, 0.05, 100 + rep)
            tcfg = tr.TrainConfig(learning_rate=3e-3, epochs=15,
                                  warmup_fraction=0.1, patience=50,
                                  batch_size=32, seed=rep)
            mses = {}
            for alpha in (0.0, 0.4):
                cfg = _benchmark_model(alpha, rep)
                result = tr.train(cfg, wtr, wva, tcfg)
                mses[alpha] = _test_mse(wte, result.params, cfg)
            wins += mses[0.4] <= mses[0.0]
        assert wins >= 8
        assert time.monotonic() - start < 600.0


class TestEnsembleDirectional:
    def test_median_ensemble_beats_median_member(self):
        wins = 0
        for rep in range(10):
            wtr, wva, wte = _benchmark_windows(960, 0.05, 200 + rep)
            cfg = _benchmark_model(0.4, 0)
            tcfg = tr.TrainConfig(learning_rate=3e-3, epochs=10,
                                  warmup_fraction=0.1, patience=50,
                                  batch_size=32, seed=0)
            ecfg = ens.EnsembleConfig(size=5, aggregation="median",
                                      base_seed=10 * rep)
            members = ens.train_ensemble(cfg, wtr, wva, tcfg, ecfg)
            member_fc = [tr.forecast(wte.inputs, r.params, cfg)
                         for _, r in members]
            ens_mse = tr.mse(ens.aggregate(member_fc, "median"), wte.targets)
            member_mses = [tr.mse(fc, wte.targets) for fc in member_fc]
            wins += ens_mse <= np.median(member_mses)
        assert wins >= 7


CLI_CONFIG = """
model.n_stacks = 2
model.blocks_per_stack = 1
model.alpha = 0.4
model.lookback = 16
model.horizon = 4
model.hidden_depth = 1
model.hidden_width = 4
model.conv_variant = "none"
train.learning_rate = 0.003
train.epochs = 2
train.batch_size = 16
stride = 4
synthetic.length = 480
synthetic.noise = 0.02
ablate.alpha_grid = [0.0, 0.4]
ablate.repetitions = 1
"""


class TestCliDeterminism:
    def test_every_command_reruns_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CLI_CONFIG)

        ckpt_dir = tmp_path / "ckpt"
        assert cli.main(["train", "--config", str(cfg), "--seed", "5",
                         "--out", str(ckpt_dir)]) == 0
        checkpoint = str(ckpt_dir / "checkpoint.txt")

        commands = {
            "decompose": ["decompose"],
            "train": ["train"],
            "forecast": ["forecast", "--checkpoint", checkpoint],
            "eval": ["eval", "--checkpoint", checkpoint, "--baseline"],
            "ablate": ["ablate", "--axis", "alpha"],
        }
        for name, argv in commands.items():
            outputs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}_{attempt}"
                code = cli.main(argv + ["--config", str(cfg), "--seed", "5",
                                        "--out", str(out)])
                assert code == 0, name
                outputs.append({p.name: p.read_bytes()
                                for p in sorted(out.iterdir())})
            assert outputs[0].keys() == outputs[1].keys(), name
            for fname in outputs[0]:
                assert outputs[0][fname] == outputs[1][fname], \
                    f"{name}:{fname}"
