"""Bagging over independently seeded models.

Each ensemble member trains from its own parameter initialization and
data order; forecasts are combined elementwise with a median.  On the
noisy benchmark the aggregate is usually more accurate than the typical
individual member.
"""

import numpy as np

from wavestack import (
    EnsembleConfig,
    ModelConfig,
    TrainConfig,
    dataio,
    ensemble as ens,
    training as tr,
)

series = dataio.multi_frequency_benchmark(length=960, noise_level=0.05,
                                          seed=3)
dataset = dataio.split(series, min_len=64 + 16)
dataset, _ = dataio.standardize(dataset)
wtr = tr.make_windows(dataset.train, 64, 16, stride=4)
wva = tr.make_windows(dataset.val, 64, 16, stride=4)
wte = tr.make_windows(dataset.test, 64, 16, stride=4)

cfg = ModelConfig(n_stacks=3, blocks_per_stack=2, alpha=0.4, lookback=64,
                  horizon=16, hidden_depth=2, hidden_width=8,
                  conv_variant="dcn", kernel_sizes=(5, 3, 3),
                  dropout_rate=0.1, seed=0)
tcfg = TrainConfig(learning_rate=3e-3, epochs=10, warmup_fraction=0.1,
                   batch_size=32, seed=0)
ecfg = EnsembleConfig(size=5, aggregation="median", base_seed=0)

members = ens.train_ensemble(cfg, wtr, wva, tcfg, ecfg)
print("member seeds:", [seed for seed, _ in members])

member_fc = [tr.forecast(wte.inputs, r.params, cfg) for _, r in members]
for (seed, _), fc in zip(members, member_fc):
    print(f"member seed {seed:5d}: test mse {tr.mse(fc, wte.targets):.4f}")
median_member = np.median([tr.mse(fc, wte.targets) for fc in member_fc])
print(f"median member mse: {median_member:.4f}")
aggregated = ens.aggregate(member_fc, ecfg.aggregation)
print(f"ensemble mse:      {tr.mse(aggregated, wte.targets):.4f}")
