"""Series ingestion, chronological splitting, standardization and
synthetic benchmark generation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    EmptySeries,
    MalformedCsv,
    MissingColumn,
    NonNumericCell,
    PartitionTooShort,
    ZeroVariance,
)


@dataclass(frozen=True)
class Scaler:
    mean: float
    std: float


@dataclass(frozen=True)
class Dataset:
    raw: np.ndarray
    train_range: tuple  # [start, stop)
    val_range: tuple
    test_range: tuple

    @property
    def train(self):
        return self.raw[slice(*self.train_range)]

    @property
    def val(self):
        return self.raw[slice(*self.val_range)]

    @property
    def test(self):
        return self.raw[slice(*self.test_range)]


def load_csv(path, value_column: str) -> np.ndarray:
    """Read one numeric column, preserving row order.  The first row names
    the columns; a name given twice means its last column.  Blank lines
    are skipped and not counted as rows.  A MalformedCsv names the line
    that holds the fault."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        values = []
        try:
            header = next(reader, [])
            col = {name: i for i, name in enumerate(header)}.get(value_column)
            if col is None:
                raise MissingColumn(
                    f"column {value_column!r} not found in {path}")
            for row_no, row in enumerate(filter(None, reader), start=1):
                try:
                    value = float(row[col])
                except (IndexError, ValueError):
                    raise NonNumericCell(row_no) from None
                if not math.isfinite(value):
                    raise NonNumericCell(row_no,
                                         f"non-finite value at row {row_no}")
                values.append(value)
        except csv.Error as exc:
            raise MalformedCsv(
                f"{path}: line {reader.line_num}: {exc}") from None
    if not values:
        raise EmptySeries(f"no data rows in {path}")
    return np.array(values, dtype=np.float64)


def save_csv(path, series, value_column: str = "value") -> None:
    """A `t,<value_column>` table of a 1-D series, each value written with
    repr, in one write."""
    rows = [f"{t},{v!r}\n" for t, v in enumerate(
        np.asarray(series, dtype=np.float64).tolist())]
    with open(path, "w") as fh:
        fh.write(f"t,{value_column}\n" + "".join(rows))


def split(series, train_frac: float = 0.70, val_frac: float = 0.10,
          test_frac: float = 0.20, min_len: Optional[int] = None) -> Dataset:
    """Chronological contiguous split; floor rounding for train and val,
    remainder to test."""
    series = np.asarray(series, dtype=np.float64)
    if abs(train_frac + val_frac + test_frac - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    n = len(series)
    n_train = int(n * train_frac)
    n_val = int(n * val_frac)
    ranges = ((0, n_train), (n_train, n_train + n_val), (n_train + n_val, n))
    if min_len is not None:
        for name, (a, b) in zip(("train", "val", "test"), ranges):
            if b - a < min_len:
                raise PartitionTooShort(
                    f"{name} partition has {b - a} points, needs {min_len}")
    return Dataset(raw=series, train_range=ranges[0], val_range=ranges[1],
                   test_range=ranges[2])


def standardize(dataset: Dataset) -> tuple:
    """Scale the whole series by the train-range mean/std; returns
    (scaled Dataset, Scaler)."""
    train = dataset.train
    mean = float(np.mean(train))
    std = float(np.std(train))
    if std <= 0.0:
        raise ZeroVariance("train partition has zero variance")
    scaler = Scaler(mean=mean, std=std)
    return replace(dataset, raw=(dataset.raw - mean) / std), scaler


def destandardize(series, scaler: Scaler) -> np.ndarray:
    return np.asarray(series, dtype=np.float64) * scaler.std + scaler.mean


@dataclass(frozen=True)
class Component:
    kind: str  # sine | trend | noise | step
    amplitude: float = 1.0
    period: float = 8.0  # sine period / step location, in samples
    slope: float = 0.0  # trend slope per sample
    level: float = 0.0  # multiplicative noise bound


@dataclass(frozen=True)
class SyntheticSpec:
    components: list
    length: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        for c in self.components:
            if c.kind == "sine" and c.period < 2:
                raise ValueError("sine period must cover >= 2 samples")


def synthesize(spec: SyntheticSpec) -> np.ndarray:
    """Sum deterministic components, then apply multiplicative noise
    components: x_t * (1 + eta_t), eta_t uniform in +-level."""
    t = np.arange(spec.length, dtype=np.float64)
    x = np.zeros(spec.length)
    rng = np.random.default_rng(spec.seed)
    noise_levels = []
    for c in spec.components:
        if c.kind == "sine":
            x += c.amplitude * np.sin(2.0 * np.pi * t / c.period)
        elif c.kind == "trend":
            x += c.slope * t
        elif c.kind == "step":
            x += c.amplitude * (t >= c.period)
        elif c.kind == "noise":
            noise_levels.append(c.level)
        else:
            raise ValueError(f"unknown component kind: {c.kind}")
    for level in noise_levels:
        eta = rng.uniform(-level, level, size=spec.length)
        x = x * (1.0 + eta)
    return x


def multi_frequency_benchmark(length: int = 480, noise_level: float = 0.0,
                              seed: int = 0) -> np.ndarray:
    """The synthetic benchmark used across tests and ablations: a slow
    and a fast sinusoid plus optional multiplicative noise."""
    spec = SyntheticSpec(
        components=[
            Component(kind="sine", amplitude=1.0, period=64.0),
            Component(kind="sine", amplitude=0.5, period=8.0),
            Component(kind="noise", level=noise_level),
        ],
        length=length, seed=seed)
    return synthesize(spec)
