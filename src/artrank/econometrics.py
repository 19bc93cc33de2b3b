"""Concentration and rank-correlation analytics over user metrics.

Lorenz curve and Gini index quantify how sale volume concentrates among few
users; Kendall tau-b (tie-corrected) measures rank agreement between metric
columns that are heavily right-skewed and full of ties.
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
    g = 2.0 * float(np.sum(ranks * s)) / (n * total) - (n + 1) / n
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
    (discordant pairs via merge-based inversion counting), so fully
    concordant or discordant inputs return exactly +/-1. Raises when both
    inputs are constant; returns NaN (undefined) when exactly one is.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d vectors")
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    x_constant = bool(np.all(x == x[0]))
    y_constant = bool(np.all(y == y[0]))
    if x_constant and y_constant:
        raise ValueError("degenerate ranking")
    if x_constant or y_constant:
        return float("nan")

    order = np.lexsort((y, x))
    x_sorted = x[order]
    y_by_x = y[order]
    pairs = n * (n - 1) // 2
    ties_x = _tie_pairs(np.diff(x_sorted) != 0, n)
    ties_xy = _tie_pairs((np.diff(x_sorted) != 0) | (np.diff(y_by_x) != 0), n)
    ties_y = _tie_pairs(np.diff(np.sort(y)) != 0, n)
    discordant = _inversion_count(y_by_x)
    con_minus_dis = pairs - ties_x - ties_y + ties_xy - 2 * discordant
    denom_sq = (pairs - ties_x) * (pairs - ties_y)
    if con_minus_dis * con_minus_dis == denom_sq:
        return 1.0 if con_minus_dis > 0 else -1.0
    return con_minus_dis / math.sqrt(denom_sq)


def correlation_matrix(table: MetricsTable) -> CorrelationMatrix:
    """Pairwise Kendall tau-b over the 8 metric columns in canonical order."""
    if len(table.users) < 2:
        raise ValueError("need at least 2 users")
    columns = [np.asarray(table.column(name), dtype=np.float64) for name in METRIC_NAMES]
    constant = [bool(np.all(c == c[0])) for c in columns]
    k = len(columns)
    values = np.full((k, k), np.nan)
    for i in range(k):
        if not constant[i]:
            values[i, i] = 1.0  # what kendall_tau(x, x) returns
        for j in range(i + 1, k):
            if constant[i] or constant[j]:
                continue
            tau = kendall_tau(columns[i], columns[j])
            values[i, j] = tau
            values[j, i] = tau
    return CorrelationMatrix(labels=CORRELATION_LABELS, values=values)


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


def _inversion_count(values: np.ndarray) -> int:
    """Pairs (i < j) with values[i] > values[j], by bottom-up merge passes.

    Padding to a power of two uses +inf sentinels at the tail; they stay in
    the trailing blocks, so strict comparisons never count them.
    """
    n = values.size
    if n < 2:
        return 0
    size = 1 << (n - 1).bit_length()
    buf = np.full(size, np.inf)
    buf[:n] = values
    inversions = 0
    width = 1
    while width < size:
        blocks = buf.reshape(-1, 2 * width)
        left = blocks[:, :width]
        right = blocks[:, width:]
        if left.size * width <= 1 << 22:
            inversions += int(np.sum(left[:, :, None] > right[:, None, :]))
        else:
            for i in range(blocks.shape[0]):
                gt = width - np.searchsorted(left[i], right[i], side="right")
                inversions += int(np.sum(gt))
        buf = np.sort(blocks, axis=1).ravel()
        width *= 2
    return inversions
