"""Bagging over independently seeded models and elementwise forecast
aggregation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as md
from . import training as tr
from .errors import ShapeMismatch

AGGREGATIONS = ("median", "mean")


@dataclass(frozen=True)
class EnsembleConfig:
    size: int = 5
    aggregation: str = "median"
    bootstrap: bool = False  # resample training windows with replacement
    base_seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("ensemble size must be >= 1")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation: {self.aggregation}")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")

    def member_seeds(self):
        return [self.base_seed + 1000 * i for i in range(self.size)]


def bootstrap_windows(windows: tr.WindowSet,
                      rng: np.random.Generator) -> tr.WindowSet:
    """Sample the window set with replacement, preserving set size."""
    n = len(windows)
    idx = rng.integers(0, n, size=n)
    return tr.WindowSet(windows.inputs[idx], windows.targets[idx],
                        windows.offsets[idx])


def train_ensemble(model_cfg: md.ModelConfig, train_windows: tr.WindowSet,
                   val_windows: tr.WindowSet, train_cfg: tr.TrainConfig,
                   ens_cfg: EnsembleConfig) -> list:
    """Train `size` independent members; returns a list of
    (seed, TrainResult) pairs."""
    members = []
    for seed in ens_cfg.member_seeds():
        windows = train_windows
        if ens_cfg.bootstrap:
            windows = bootstrap_windows(
                train_windows, np.random.default_rng(seed))
        try:
            result = tr.train(replace(model_cfg, seed=seed), windows,
                              val_windows, replace(train_cfg, seed=seed))
        except Exception as exc:
            # the same exception, so its class and exit code hold; the note
            # is set by hand because add_note needs Python 3.11
            exc.__notes__ = [*getattr(exc, "__notes__", []),
                             f"in ensemble member with seed {seed}"]
            raise
        members.append((seed, result))
    return members


def aggregate(member_forecasts, method: str = "median") -> np.ndarray:
    """Elementwise median or mean of equal-length member forecasts."""
    if method not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation: {method}")
    forecasts = [np.asarray(f, dtype=np.float64) for f in member_forecasts]
    if not forecasts:
        raise ValueError("need at least one member forecast")
    shape = forecasts[0].shape
    if any(f.shape != shape for f in forecasts):
        raise ShapeMismatch("member forecasts have differing lengths")
    stacked = np.stack(forecasts)
    if method == "median":
        return np.median(stacked, axis=0)
    return np.mean(stacked, axis=0)
