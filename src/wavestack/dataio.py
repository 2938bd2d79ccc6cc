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
    InvalidInput,
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


# the largest magnitude whose square is finite in float64
_MAX_SQUARABLE = math.sqrt(np.finfo(np.float64).max)


def check_magnitudes(dataset: Dataset, context: str = "") -> None:
    """Raise InvalidInput naming the partition and 1-based data row of the
    first value that is not finite or whose square overflows float64;
    `context` ends the message."""
    raw = dataset.raw
    bad = ~(np.abs(raw) <= _MAX_SQUARABLE)  # NaN compares False
    if bad.any():
        row = int(np.argmax(bad))
        name = next(name for name, (_, stop) in (
            ("train", dataset.train_range), ("val", dataset.val_range),
            ("test", dataset.test_range)) if row < stop)
        what = ("is not finite" if not math.isfinite(raw[row])
                else "overflows when squared")
        raise InvalidInput(f"{name} partition row {row + 1} {what}{context}")


def standardize(dataset: Dataset) -> tuple:
    """Scale the whole series by the train-range mean/std; returns
    (scaled Dataset, Scaler).  A scaled value that is not finite, or
    whose square overflows, raises InvalidInput naming its partition and
    1-based data row."""
    train = dataset.train
    mean = float(np.mean(train))
    std = float(np.std(train))
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise InvalidInput(
            "train partition's mean or standard deviation is not finite: "
            "its values overflow float64 arithmetic")
    if std == 0.0 and np.min(train) != np.max(train):
        # the squares inside np.std underflow: measure on a copy scaled
        # to a largest magnitude of 1
        peak = float(np.max(np.abs(train)))
        std = float(np.std(train / peak)) * peak
    if std <= 0.0:
        raise ZeroVariance("train partition has zero variance")
    with np.errstate(over="ignore"):
        scaled = replace(dataset, raw=(dataset.raw - mean) / std)
    check_magnitudes(scaled, " once standardized")
    return scaled, Scaler(mean=mean, std=std)


def destandardize(series, scaler: Scaler) -> np.ndarray:
    return np.asarray(series, dtype=np.float64) * scaler.std + scaler.mean


def multi_frequency_benchmark(length: int = 480, noise_level: float = 0.0,
                              seed: int = 0) -> np.ndarray:
    """The synthetic benchmark used across tests and ablations: a slow
    sinusoid (period 64) plus a fast one (period 8, amplitude 0.5), times
    multiplicative noise: x_t * (1 + eta_t), eta_t uniform in
    +-noise_level and drawn even at level 0."""
    if length < 1:
        raise ValueError("length must be >= 1")
    t = np.arange(length, dtype=np.float64)
    x = np.zeros(length)
    x += 1.0 * np.sin(2.0 * np.pi * t / 64.0)
    x += 0.5 * np.sin(2.0 * np.pi * t / 8.0)
    eta = np.random.default_rng(seed).uniform(-noise_level, noise_level,
                                              size=length)
    return x * (1.0 + eta)
