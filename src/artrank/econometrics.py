"""Concentration and rank-correlation analytics over user metrics.

Lorenz curve and Gini index quantify how sale volume concentrates among few
users; Kendall tau-b (tie-corrected) measures rank agreement between metric
columns that are heavily right-skewed and full of ties.

Kendall's tau runs over integer dense ranks (Knight, JASA 1966): each column
is ranked once, and a pair of columns costs one sort of combined rank keys
plus an inversion count over integers. Every count is an exact integer, so
the matrix and ``kendall_tau`` give the same bits for the same pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiling import METRIC_NAMES, MetricsTable

# display labels for the 8 metric columns, in canonical column order
CORRELATION_LABELS = (
    "auth",
    "w-auth",
    "in-str",
    "in-deg",
    "hub",
    "w-hub",
    "out-str",
    "out-deg",
)


@dataclass(frozen=True)
class LorenzCurve:
    """Cumulative volume share versus population share, poorest first.

    ``points`` has shape (n+1, 2) starting at (0, 0) and ending at (1, 1);
    both coordinates are non-decreasing and the curve lies on or below the
    diagonal (up to float rounding).
    """

    points: np.ndarray
    gini: float

    @property
    def population_shares(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def volume_shares(self) -> np.ndarray:
        return self.points[:, 1]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Kendall tau-b matrix over the 8 metric columns.

    Entries involving a constant column are NaN (undefined rank agreement),
    never silently zero.
    """

    labels: tuple[str, ...]
    values: np.ndarray


def gini(values) -> float:
    """Gini index of a non-negative distribution, population (n^2) form.

    G = sum_ij |x_i - x_j| / (2 n^2 mean), computed via the sorted
    rank-weighted identity in O(n log n). Ranges in [0, 1): 0 for perfect
    equality, (n-1)/n when one holder owns everything.
    """
    v = _volume_vector(values)
    n = v.size
    s = np.sort(v)
    total = float(np.sum(s))
    ranks = np.arange(1, n + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow leaves inf, refused below
        g = 2.0 * float(np.sum(ranks * s)) / (n * total) - (n + 1) / n
    if not math.isfinite(g):
        raise ValueError("volumes too large for a float Gini index")
    return max(g, 0.0)


def lorenz(values) -> LorenzCurve:
    """Lorenz curve of a non-negative distribution with its Gini index."""
    v = _volume_vector(values)
    n = v.size
    s = np.sort(v)
    total = np.sum(s)
    points = np.empty((n + 1, 2))
    points[:, 0] = np.arange(n + 1) / n
    points[0, 1] = 0.0
    points[1:, 1] = np.cumsum(s) / total
    return LorenzCurve(points=points, gini=gini(v))


def top_share(values, volume_fraction: float) -> float:
    """Smallest population fraction (richest first) covering the volume fraction.

    Whole-user granularity: the marginal holder is never split.
    """
    if not 0 < volume_fraction <= 1:
        raise ValueError("volume_fraction must be in (0, 1]")
    v = _volume_vector(values)
    n = v.size
    desc = np.sort(v)[::-1]
    cumulative = np.cumsum(desc)
    target = volume_fraction * cumulative[-1]
    k = min(int(np.searchsorted(cumulative, target, side="left")) + 1, n)
    return k / n


def kendall_tau(xs, ys) -> float:
    """Kendall tau-b rank correlation with tie correction.

    (C - D) / sqrt((P - Tx)(P - Ty)) over all P = n(n-1)/2 pairs, where C/D
    count concordant/discordant pairs and Tx/Ty count pairs tied in each
    input (joint ties count in both). Pair counts are exact integers
    (discordant pairs by counting inversions of integer ranks), so fully
    concordant or discordant inputs return exactly +/-1. Raises on NaN and
    when both inputs are constant; returns NaN (undefined) when exactly one
    is.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d vectors")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("inputs must not contain NaN")
    rx, ry = _Ranks.of(x), _Ranks.of(y)
    if rx.levels == 1 and ry.levels == 1:
        raise ValueError("degenerate ranking")
    return _tau_b(rx, ry)


def correlation_matrix(table: MetricsTable) -> CorrelationMatrix:
    """Pairwise Kendall tau-b over the 8 metric columns in canonical order."""
    if len(table.users) < 2:
        raise ValueError("need at least 2 users")
    ranks = [_Ranks.of(table.column(name)) for name in METRIC_NAMES]
    k = len(ranks)
    values = np.full((k, k), np.nan)
    for i in range(k):
        if ranks[i].levels > 1:
            values[i, i] = 1.0  # what kendall_tau(x, x) returns
        for j in range(i + 1, k):
            values[i, j] = values[j, i] = _tau_b(ranks[i], ranks[j])
    return CorrelationMatrix(labels=CORRELATION_LABELS, values=values)


@dataclass(frozen=True)
class _Ranks:
    """Dense ranks of one column: ``codes[i]`` counts the distinct values below
    the column's ``i``-th value, and ``tied_pairs`` the pairs of equal values."""

    codes: np.ndarray
    levels: int
    tied_pairs: int

    @classmethod
    def of(cls, values: np.ndarray) -> _Ranks:
        distinct, codes = np.unique(values, return_inverse=True)
        counts = np.bincount(codes)
        tied_pairs = int(np.sum(counts * (counts - 1) // 2))
        return cls(codes.astype(np.int64, copy=False), distinct.size, tied_pairs)


def _tau_b(x: _Ranks, y: _Ranks) -> float:
    """Tau-b of two ranked columns; NaN when either is constant."""
    if x.levels == 1 or y.levels == 1:
        return float("nan")
    n = x.codes.size
    # sorting (x, y) rank pairs as one integer key orders them by x, then y
    joint = np.sort(x.codes * y.levels + y.codes)
    pairs = n * (n - 1) // 2
    ties_xy = _tie_pairs(np.diff(joint) != 0, n)
    discordant = _inversion_count(joint % y.levels, y.levels)
    con_minus_dis = pairs - x.tied_pairs - y.tied_pairs + ties_xy - 2 * discordant
    denom_sq = (pairs - x.tied_pairs) * (pairs - y.tied_pairs)
    if con_minus_dis * con_minus_dis == denom_sq:
        return 1.0 if con_minus_dis > 0 else -1.0
    return con_minus_dis / math.sqrt(denom_sq)


def _volume_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size and np.min(v) < 0:
        raise ValueError("values must be non-negative")
    if v.size == 0 or np.sum(v) <= 0:
        raise ValueError("no volume")
    return v


def _tie_pairs(run_breaks: np.ndarray, n: int) -> int:
    """Tied-pair count from run boundaries of a sorted key sequence."""
    starts = np.flatnonzero(np.concatenate(([True], run_breaks)))
    lengths = np.diff(np.concatenate((starts, [n])))
    return int(np.sum(lengths * (lengths - 1) // 2))


def _inversion_count(values: np.ndarray, levels: int) -> int:
    """Pairs (i < j) with values[i] > values[j], for integers in [0, levels).

    One pass per bit, highest first (a wavelet matrix). Before the pass over
    bit b the values are stably partitioned by their bits above b, so each
    run of equal high bits keeps its original order. A value whose bit b is 0
    is then exceeded by exactly the values before it in its run whose bit b
    is 1, and every inverted pair is counted once, at the highest bit where
    its values differ. The pass ends with a stable partition by bit b.
    """
    v = values.astype(np.min_scalar_type(levels - 1))
    n = v.size
    shifted = np.empty_like(v)
    bit = np.empty_like(v)
    inversions = 0
    for b in reversed(range((levels - 1).bit_length())):
        np.right_shift(v, b, out=shifted)
        np.bitwise_and(shifted, 1, out=bit)
        np.right_shift(shifted, 1, out=shifted)
        is_one = bit.astype(bool)
        zeros = np.flatnonzero(~is_one)
        z = zeros.size
        # ones before the k-th zero: zeros[k] - k, counted from the start of the array
        inversions += int(zeros.sum()) - z * (z - 1) // 2
        # less, per run, the ones before the run's start once for each of its zeros
        bounds = np.concatenate(([0], np.flatnonzero(shifted[1:] != shifted[:-1]) + 1, [n]))
        zeros_before = np.searchsorted(zeros, bounds)
        inversions -= int(np.dot(np.diff(zeros_before), bounds[:-1] - zeros_before[:-1]))
        v = v[np.concatenate((zeros, np.flatnonzero(is_one)))]
    return inversions
