import numpy as np
import pytest

from wavestack import ensemble as ens
from wavestack import model as md
from wavestack import training as tr
from wavestack.errors import ShapeMismatch

TINY = dict(n_stacks=2, blocks_per_stack=1, alpha=0.4, lookback=8,
            horizon=2, hidden_depth=1, hidden_width=4,
            conv_variant="none", dropout_rate=0.0, seed=0)


def tiny_cfg(**overrides):
    return md.ModelConfig(**{**TINY, **overrides})


def toy_windows(n=40, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    series = np.sin(2 * np.pi * t / 8) + 0.01 * rng.normal(size=n)
    return tr.make_windows(series, 8, 2)


QUICK = tr.TrainConfig(learning_rate=3e-3, epochs=2, batch_size=16)


class TestAggregate:
    def test_median_example(self):
        out = ens.aggregate([[1.0, 10.0], [2.0, 20.0], [9.0, 30.0]],
                            "median")
        np.testing.assert_array_equal(out, [2.0, 20.0])

    def test_mean_example(self):
        out = ens.aggregate([[1.0, 10.0], [2.0, 20.0], [9.0, 30.0]], "mean")
        np.testing.assert_array_equal(out, [4.0, 20.0])

    def test_single_member_identity(self):
        f = np.array([3.0, -1.0, 2.0])
        for method in ("median", "mean"):
            np.testing.assert_array_equal(ens.aggregate([f], method), f)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        forecasts = [rng.normal(size=6) for _ in range(5)]
        base = ens.aggregate(forecasts, "median")
        shuffled = [forecasts[i] for i in rng.permutation(5)]
        np.testing.assert_array_equal(ens.aggregate(shuffled, "median"),
                                      base)

    def test_envelope(self):
        rng = np.random.default_rng(1)
        forecasts = [rng.normal(size=8) for _ in range(5)]
        stacked = np.stack(forecasts)
        for method in ("median", "mean"):
            out = ens.aggregate(forecasts, method)
            assert np.all(out >= stacked.min(axis=0))
            assert np.all(out <= stacked.max(axis=0))

    def test_mismatched_lengths(self):
        with pytest.raises(ShapeMismatch):
            ens.aggregate([[1.0, 2.0], [1.0]], "median")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ens.aggregate([[1.0]], "mode")

    def test_empty(self):
        with pytest.raises(ValueError):
            ens.aggregate([], "median")


class TestEnsembleConfig:
    def test_member_seeds(self):
        cfg = ens.EnsembleConfig(size=3, base_seed=7)
        assert cfg.member_seeds() == [7, 1007, 2007]

    def test_validation(self):
        with pytest.raises(ValueError):
            ens.EnsembleConfig(size=0)
        with pytest.raises(ValueError):
            ens.EnsembleConfig(aggregation="mode")


class TestBootstrap:
    def test_preserves_size(self):
        windows = toy_windows()
        rng = np.random.default_rng(2)
        boot = ens.bootstrap_windows(windows, rng)
        assert len(boot) == len(windows)

    def test_samples_come_from_original(self):
        windows = toy_windows()
        boot = ens.bootstrap_windows(windows, np.random.default_rng(3))
        originals = {tuple(x) for x in windows.inputs}
        assert all(tuple(x) in originals for x in boot.inputs)

    def test_unique_fraction_near_632(self):
        # with replacement, the expected unique fraction is 1 - 1/e
        windows = tr.make_windows(np.arange(2005.0), 4, 1)
        fractions = []
        for seed in range(5):
            boot = ens.bootstrap_windows(windows,
                                         np.random.default_rng(seed))
            fractions.append(len(set(boot.offsets)) / len(boot))
        assert abs(np.mean(fractions) - 0.632) < 0.03


class TestTrainEnsemble:
    def test_member_count_and_seeds(self):
        windows = toy_windows()
        ecfg = ens.EnsembleConfig(size=3, base_seed=5)
        members = ens.train_ensemble(tiny_cfg(), windows, windows, QUICK,
                                     ecfg)
        assert [seed for seed, _ in members] == [5, 1005, 2005]

    def test_members_differ(self):
        windows = toy_windows()
        ecfg = ens.EnsembleConfig(size=2)
        members = ens.train_ensemble(tiny_cfg(), windows, windows, QUICK,
                                     ecfg)
        (_, r1), (_, r2) = members
        assert any(not np.array_equal(r1.params[k], r2.params[k])
                   for k in r1.params)

    def test_size_one_matches_single_run(self):
        windows = toy_windows()
        ecfg = ens.EnsembleConfig(size=1, base_seed=4)
        members = ens.train_ensemble(tiny_cfg(), windows, windows, QUICK,
                                     ecfg)
        solo_cfg = tiny_cfg(seed=4)
        solo_tcfg = tr.TrainConfig(learning_rate=3e-3, epochs=2,
                                   batch_size=16, seed=4)
        solo = tr.train(solo_cfg, windows, windows, solo_tcfg)
        (_, result), = members
        for name in solo.params:
            np.testing.assert_array_equal(result.params[name],
                                          solo.params[name])

    def test_forecast_aggregation(self):
        windows = toy_windows()
        cfg = tiny_cfg()
        ecfg = ens.EnsembleConfig(size=3)
        members = ens.train_ensemble(cfg, windows, windows, QUICK, ecfg)
        sets = [tr.forecast(windows.inputs, r.params, cfg)
                for _, r in members]
        aggregated = ens.aggregate(sets, "median")
        assert len(sets) == 3
        assert aggregated.shape == (len(windows), cfg.horizon)
        for row, member_rows in zip(aggregated, zip(*sets)):
            np.testing.assert_array_equal(
                row, np.median(np.stack(member_rows), axis=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_member_identifies_seed(self):
        windows = toy_windows()
        bad = tr.TrainConfig(learning_rate=1e30, epochs=3, batch_size=16,
                             grad_clip=None)
        ecfg = ens.EnsembleConfig(size=2, base_seed=9)
        with pytest.raises(Exception, match="seed 9"):
            ens.train_ensemble(tiny_cfg(), windows, windows, bad, ecfg)
