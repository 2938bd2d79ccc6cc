"""Multilevel discrete wavelet decomposition with full-length branch
reconstruction, plus the dyadic piecewise-constant projection used as an
approximation oracle.

The decimated transform uses periodic (circular) boundary handling,
which keeps perfect reconstruction and coefficient energy exact for
orthogonal filter pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonFiniteInput, ResolutionTooFine, SeriesTooShort


class FilterKind(str, Enum):
    HAAR = "haar"
    DB2 = "db2"
    SYM4 = "sym4"


_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Low-pass coefficient tables.  High-pass filters are derived via the
# quadrature-mirror relation in `_build_bank`.
_LOW_PASS = {
    FilterKind.HAAR: [1.0 / _SQRT2, 1.0 / _SQRT2],
    FilterKind.DB2: [
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ],
    FilterKind.SYM4: [
        -0.07576571478927333,
        -0.02963552764599851,
        0.49761866763201545,
        0.8037387518059161,
        0.29785779560527736,
        -0.09921954357684722,
        -0.012603967262037833,
        0.0322231006040427,
    ],
}


@dataclass(frozen=True)
class FilterPair:
    """Orthonormal low/high-pass analysis filter pair."""

    low: np.ndarray
    high: np.ndarray


def _build_bank(kind: FilterKind) -> FilterPair:
    low = np.asarray(_LOW_PASS[kind], dtype=np.float64)
    k = len(low)
    high = np.array([(-1.0) ** i * low[k - 1 - i] for i in range(k)])
    low.setflags(write=False)
    high.setflags(write=False)
    return FilterPair(low=low, high=high)


# Every kind's pair, built once; its arrays are read-only, so no caller
# can change the cached filters.
_BANKS = {kind: _build_bank(kind) for kind in FilterKind}


def filter_bank(kind: FilterKind | str) -> FilterPair:
    """Return the cached analysis filter pair for a supported kind."""
    return _BANKS[FilterKind(kind)]


@dataclass(frozen=True)
class WaveletPyramid:
    """Per-level sub-series of a decomposed signal, each reconstructed to
    the original length, plus the half-rate coefficients they came from."""

    approx: list  # approx[i-1] is the level-i low branch, [..., T]
    detail: list  # detail[i-1] is the level-i high branch, [..., T]
    raw_low: list  # half-rate low coefficients per level
    raw_high: list  # half-rate high coefficients per level


def _analysis_step(x: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """One decimated periodic filtering pass over the last axis, of even
    length T: y[..., m] = sum_j filt[j] * x[..., (2m+j) mod T], summed
    tap by tap.  Taps 0 and 1 never read past index T-1, so a two-tap
    filter reads x itself; a longer one reads x extended by its wrap."""
    t = x.shape[-1]
    k = len(filt)
    if k <= 2:
        ext = x
    elif k - 1 <= t:
        ext = np.concatenate([x, x[..., :k - 1]], axis=-1)
    else:  # the filter wraps the signal more than once
        ext = x[..., np.arange(t + k - 1) % t]
    y = filt[0] * ext[..., 0:t:2]
    for j in range(1, k):
        y = y + filt[j] * ext[..., j:j + t:2]
    return y


def _synthesis_step(coeffs: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """Adjoint of the periodic analysis step for one filter, over the last
    axis; summed over the low and high filters it inverts the analysis
    exactly for orthonormal pairs.  n coefficients give 2n samples, and
    x[..., (2m+j) mod 2n] += filt[j] * coeffs[..., m] for every tap j.
    Seen as n pairs, tap j adds to parity j % 2 of pair (m + j//2) mod n:
    one slice add, and a second for the part that wraps round.  Taps 0
    and 1 shift by nothing, so they fill the pairs with one outer
    product; adding +0.0 to it gives the bits of adding it to zeros
    (-0.0 becomes +0.0)."""
    n = coeffs.shape[-1]
    x = np.multiply.outer(coeffs, filt[:2])
    x += 0.0
    for j in range(2, len(filt)):
        term = coeffs * filt[j]
        s = (j // 2) % n
        x[..., s:, j % 2] += term[..., :n - s]
        if s:
            x[..., :s, j % 2] += term[..., n - s:]
    return x.reshape(coeffs.shape[:-1] + (2 * n,))


def mdwd(x, n_levels: int,
         kind: FilterKind | str = FilterKind.HAAR) -> WaveletPyramid:
    """Multilevel decimated decomposition with every branch reconstructed
    back to the original length.  `x` is one series [T] or a batch
    [..., T], decomposed along its last axis; each row of a batch gives
    the same result as a call on that row alone.  One analysis loop
    iterates the filters on the low branch, padding odd lengths; one
    synthesis loop walks the levels back, coarsest first.  Only the
    coarsest approximation and the details are synthesised; each finer
    approximation is the next coarser one plus that level's detail."""
    x = np.asarray(x, dtype=np.float64)
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if x.shape[-1] < 2 ** n_levels:
        raise SeriesTooShort(
            f"series of length {x.shape[-1]} cannot support {n_levels} "
            f"levels")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("series contains NaN or Inf")
    pair = filter_bank(kind)
    raw_low, raw_high, input_lengths = [], [], []
    cur = x
    for _ in range(n_levels):
        input_lengths.append(cur.shape[-1])
        if cur.shape[-1] % 2 == 1:
            cur = np.concatenate([cur, cur[..., :1]], axis=-1)
        raw_low.append(_analysis_step(cur, pair.low))
        raw_high.append(_analysis_step(cur, pair.high))
        cur = raw_low[-1]
    # branches[0] is the coarsest approximation and branches[i] the detail
    # of level n_levels + 1 - i.  The complementary filter's coefficients
    # are zero at every step, so each branch takes one filter per step:
    # the low-pass one, after its own filter where it joins.
    branches = [cur]
    for lvl in range(n_levels, 0, -1):
        n_in = input_lengths[lvl - 1]
        branches = [_synthesis_step(b, pair.low) for b in branches]
        branches.append(_synthesis_step(raw_high[lvl - 1], pair.high))
        branches = [b[..., :n_in] for b in branches]
    approx, detail = branches[:1], branches[:0:-1]
    for lvl in range(n_levels - 1, 0, -1):
        approx.insert(0, approx[0] + detail[lvl])
    return WaveletPyramid(approx=approx, detail=detail, raw_low=raw_low,
                          raw_high=raw_high)


@dataclass(frozen=True)
class HaarProjection:
    """L2 projection of a sampled function onto dyadic piecewise
    constants on [0, 1]."""

    resolution_w: int
    knots: np.ndarray  # 2^w + 1 interval boundaries
    theta: np.ndarray  # 2^w interval means


def haar_project(f_samples, w: int) -> HaarProjection:
    """Project uniform-grid samples of f on [0,1] onto 2^w indicator
    functions; each coefficient is the sample mean over its interval."""
    f = np.asarray(f_samples, dtype=np.float64)
    if w < 0:
        raise ValueError("w must be >= 0")
    n_cells = 2 ** w
    if n_cells > len(f):
        raise ResolutionTooFine(
            f"2^{w} cells exceed {len(f)} samples")
    theta = np.array([chunk.mean() for chunk in np.array_split(f, n_cells)])
    knots = np.linspace(0.0, 1.0, n_cells + 1)
    return HaarProjection(resolution_w=w, knots=knots, theta=theta)


def haar_project_values(proj: HaarProjection, n_samples: int) -> np.ndarray:
    """Evaluate the projection back on a uniform grid of n_samples."""
    reps = [len(c) for c in np.array_split(np.empty(n_samples), 2 ** proj.resolution_w)]
    return np.repeat(proj.theta, reps)


def haar_l1_error(f_samples, proj: HaarProjection) -> float:
    """Riemann estimate of the L1 distance between f and its projection."""
    f = np.asarray(f_samples, dtype=np.float64)
    return float(np.mean(np.abs(f - haar_project_values(proj, len(f)))))
