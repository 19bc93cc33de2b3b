"""Authority/hub scoring by power iteration, plus degree and strength measures.

Authority and hub vectors are the mutual fixed point of

    x <- A^T y      (authority: endorsed by strong hubs)
    y <- A x        (hub: endorses strong authorities)

with unit-L2 normalization after each half step, started from the uniform
positive vector. The proportionality constants of the recursion are absorbed
by the normalization, which makes the authority limit the dominant
eigenvector of A^T A and the hub limit that of A A^T.

Row sums inside the iteration accumulate their summands in ascending value
order, so results are bitwise invariant under node relabeling and under
permutations of the input events. Each row sum is a sequence of floating-point
additions, and any ordering that sorts a row's products ascending presents the
same values in the same sequence: entries that compare equal are the same
float (or zeros of either sign, which add alike onto a +0.0 accumulator), so
swapping them cannot change a bit. The kernel therefore keeps each row's order
from the previous half step and re-sorts only the rows whose products moved
out of order; the sums equal those of a full sort on every call.

The kernel sums the adjacency matrix as (row, column, value) triplets
expanded from its CSR arrays, and the transpose for the authority half step
as the same triplets stably sorted by column, so it needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .columns import DecimalColumn, sum_by
from .graph import AdjacencyView, CollectorArtistNetwork

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class HitsConfig:
    """Convergence settings: L1-change threshold over (authority, hub)."""

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class HitsScores:
    """Per-node authority and hub values plus convergence metadata.

    Both vectors are non-negative with unit L2 norm whenever nonzero; nodes
    without incident edges score 0 in both. ``empty`` marks the degenerate
    all-zero result for a network with no (positive-weight) edges.
    """

    authority: np.ndarray
    hub: np.ndarray
    iterations_used: int
    converged: bool
    residual: float
    empty: bool = False


@dataclass(frozen=True)
class DegreeMetrics:
    """Count and USD-strength measures per node.

    Degrees count sale multiplicity (number of artworks sold or bought),
    strengths sum exact USD totals; both attribute secondary sales to the
    original creator, matching the endorsement edges.
    """

    in_degree: np.ndarray
    out_degree: np.ndarray
    in_strength: DecimalColumn
    out_strength: DecimalColumn


def hits(view: AdjacencyView, cfg: HitsConfig | None = None) -> HitsScores:
    """Power-iterate authority and hub scores on an adjacency view.

    The matrix must be square, non-negative, with a zero diagonal. A view
    with no positive entries yields all-zero vectors flagged ``empty``. If
    the tolerance is not met within ``max_iterations`` the last iterates are
    returned with ``converged=False``.
    """
    if cfg is None:
        cfg = HitsConfig()
    matrix = view.matrix.tocsr()
    n_rows, n_cols = matrix.shape
    if n_rows != n_cols:
        raise ValueError("adjacency matrix must be square")
    n = n_rows
    data = matrix.data
    if not np.all(np.isfinite(data)):
        raise ValueError("adjacency weights must be finite")
    if data.size and data.min() < 0:
        raise ValueError("adjacency weights must be non-negative")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
    if np.any((rows == matrix.indices) & (data != 0)):
        raise ValueError("adjacency diagonal must be zero")
    if n == 0 or data.size == 0 or data.max() == 0.0:
        zero = np.zeros(n)
        return HitsScores(
            authority=zero,
            hub=zero.copy(),
            iterations_used=0,
            converged=True,
            residual=0.0,
            empty=True,
        )

    # Rankings are scale-free; rescaling by the largest weight keeps the
    # iteration numerically identical (to rounding) across weight scalings.
    scaled = data.astype(np.float64)
    scaled /= scaled.max()
    forward = _RowSums(n, rows, matrix.indices, scaled)  # y = A x
    # A^T: entries grouped by column, each column's rows kept ascending
    by_col = np.argsort(matrix.indices, kind="stable")
    backward = _RowSums(n, matrix.indices[by_col], rows[by_col], scaled[by_col])  # x = A^T y

    x = np.full(n, 1.0 / math.sqrt(n))
    y = x.copy()
    iterations = 0
    residual = math.inf
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        x_new = _unit(backward(y))
        y_new = _unit(forward(x_new))
        residual = _ordered_sum(np.abs(x_new - x)) + _ordered_sum(np.abs(y_new - y))
        x, y = x_new, y_new
        if residual <= cfg.tolerance:
            converged = True
            break
    return HitsScores(
        authority=x,
        hub=y,
        iterations_used=iterations,
        converged=converged,
        residual=float(residual),
    )


def degree_metrics(net: CollectorArtistNetwork) -> DegreeMetrics:
    """Tally in/out degree (sale counts) and in/out strength (USD) per node."""
    n = net.node_count
    in_degree = np.zeros(n, dtype=np.int64)
    out_degree = np.zeros(n, dtype=np.int64)
    np.add.at(in_degree, net.artist, net.sale_count)
    np.add.at(out_degree, net.collector, net.sale_count)
    return DegreeMetrics(
        in_degree=in_degree,
        out_degree=out_degree,
        in_strength=sum_by(net.total_usd, net.artist, n),
        out_strength=sum_by(net.total_usd, net.collector, n),
    )


def trader_score(scores: HitsScores) -> np.ndarray:
    """Element-wise authority times hub; high for users prominent in both roles."""
    if scores.authority.shape != scores.hub.shape:
        raise ValueError("authority and hub vectors must have equal length")
    return scores.authority * scores.hub


# ---------------------------------------------------------------------------
# Iteration internals
# ---------------------------------------------------------------------------


class _RowSums:
    """Sparse matrix-vector product with value-ordered accumulation per row.

    The matrix has ``n`` rows and holds ``data[k]`` at (``rows[k]``,
    ``cols[k]``), with ``rows`` non-decreasing. ``order`` permutes the
    entries within each row's segment so that each row lists the previous
    call's products in ascending order. A call re-sorts only the rows where
    a new product precedes a smaller one, starting from ``arange(nnz)`` on
    the first call, then sums every row in that order. ``np.bincount`` adds
    its weights one at a time in index order, and any ascending order of a
    row presents the same sequence of values, so each result is bitwise the
    sum after a full sort of the row. The sortedness test needs products
    that compare, which ``hits`` ensures by refusing non-finite weights.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray):
        self.n = n
        self.rows = rows
        self.cols = cols
        self.data = data
        self.order = np.arange(len(data))
        # neighbouring positions in one row; a row boundary is never a descent
        self.same_row = self.rows[1:] == self.rows[:-1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        order = self.order
        prod = (self.data * x[self.cols])[order]
        descents = (prod[1:] < prod[:-1]) & self.same_row
        stale = np.zeros(self.n, dtype=bool)
        stale[self.rows[1:][descents]] = True
        pos = np.flatnonzero(stale[self.rows])
        resorted = pos[np.lexsort((prod[pos], self.rows[pos]))]
        order[pos] = order[resorted]
        prod[pos] = prod[resorted]
        return np.bincount(self.rows, weights=prod, minlength=self.n)


def _ordered_sum(values: np.ndarray) -> float:
    # summing in sorted order makes the total independent of element order
    return float(np.sum(np.sort(values)))


def _unit(v: np.ndarray) -> np.ndarray:
    norm = math.sqrt(_ordered_sum(v * v))
    if norm == 0.0:
        return v
    return v / norm
