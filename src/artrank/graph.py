"""Collector-artist directed network built from a validated event log.

Every sale draws an endorsement edge from the buyer (collector) to the
original creator of the artwork (artist), weighted by the USD price; repeat
purchases between the same pair aggregate into one edge with a summed total
and a sale count. Buy-backs (a creator repurchasing their own piece) would
form self-loops and are dropped with an audit count.

Adjacency views hold a ``CSRMatrix``: the shape and the three compressed
sparse row arrays, built straight from the network's sorted edge arrays.
numpy is the only array dependency.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

import numpy as np

from .columns import DecimalColumn, sum_by
from .ingest import EventLog

logger = logging.getLogger(__name__)


class Weighting(str, Enum):
    """Adjacency weighting schemes."""

    WEIGHTED_USD = "weighted_usd"
    UNWEIGHTED_BINARY = "unweighted_binary"
    # sale-count entries; opt-in variant, not the default unweighted view
    UNWEIGHTED_MULTIPLICITY = "unweighted_multiplicity"


@dataclass(frozen=True)
class RoleFlags:
    """Activity flags for one user: created, sold, or bought at least once."""

    minted: bool = False
    sold: bool = False
    bought: bool = False


@dataclass(frozen=True, eq=False)
class CollectorArtistNetwork:
    """Directed endorsement network over the active users of a marketplace.

    Nodes are every user that minted, sold, or bought at least once; indices
    are the log's user codes, in user-id order. Edge ``k`` runs from node
    ``collector[k]`` to node ``artist[k]`` and aggregates ``sale_count[k]``
    sales worth exactly ``total_usd[k]``, a value of the ``DecimalColumn``
    ``total_usd`` (integer coefficients and exponents, a ``Decimal`` when
    indexed); edges are sorted by (collector, artist) index, which is
    (collector id, artist id) order.
    Exported results always key by the opaque user id, never by index.
    """

    users: tuple[str, ...]
    collector: np.ndarray
    artist: np.ndarray
    total_usd: DecimalColumn
    sale_count: np.ndarray
    dropped_buybacks: int = 0
    dropped_usd: Decimal = Decimal(0)

    @property
    def node_count(self) -> int:
        return len(self.users)

    @property
    def edge_count(self) -> int:
        return len(self.collector)


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A sparse matrix in compressed sparse row form.

    Row ``i`` stores its entries at positions ``indptr[i]:indptr[i + 1]`` of
    ``indices`` (column numbers) and ``data`` (values); stored zeros stay
    stored. The constructor checks the layout and raises ``ValueError``
    naming the first fault.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        n_rows, n_cols = self.shape
        indptr, indices, data = self.indptr, self.indices, self.data
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"shape {self.shape} has a negative dimension")
        if len(indptr) != n_rows + 1:
            raise ValueError(
                f"indptr has {len(indptr)} entries for {n_rows} rows, not {n_rows + 1}"
            )
        if indptr[0] != 0:
            raise ValueError(f"indptr starts at {indptr[0]}, not 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr decreases")
        if len(indices) != len(data):
            raise ValueError(f"{len(indices)} indices for {len(data)} data entries")
        if indptr[-1] != len(data):
            raise ValueError(f"indptr ends at {indptr[-1]}, not at the {len(data)} data entries")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError(f"a column index lies outside [0, {n_cols})")

    @classmethod
    def from_rows(
        cls, shape: tuple[int, int], rows: np.ndarray, indices: np.ndarray, data: np.ndarray
    ) -> CSRMatrix:
        """Entries listed in row order: entry ``k`` lies at (``rows[k]``, ``indices[k]``)."""
        if np.any(np.diff(rows) < 0):
            raise ValueError("entries are not in row order")
        counts = np.bincount(rows, minlength=shape[0])
        return cls(shape, np.concatenate(([0], np.cumsum(counts))), indices, data)

    @property
    def nnz(self) -> int:
        """Number of stored entries, zeros included."""
        return len(self.data)

    def tocsr(self) -> CSRMatrix:
        return self

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(dense, (rows, self.indices), self.data)
        return dense


@dataclass(frozen=True)
class AdjacencyView:
    """A sparse n-by-n non-negative matrix over the network nodes.

    Entry (i, j) carries the weight of the edge collector i -> artist j under
    the selected weighting. The diagonal is structurally zero. ``adjacency``
    builds a ``CSRMatrix``; ``hits`` reads only ``tocsr()``, ``shape``,
    ``indptr``, ``indices`` and ``data``, so any matrix offering those works.
    """

    weighting: Weighting
    matrix: CSRMatrix


def active_users(log: EventLog) -> dict[str, RoleFlags]:
    """Users that made at least one sale, purchase, or mint, with role flags.

    Ordered by user id, as the log's ``users`` are.
    """
    n = len(log.users)
    flags = zip(
        (np.bincount(log.creator, minlength=n) > 0).tolist(),
        (np.bincount(log.seller, minlength=n) > 0).tolist(),
        (np.bincount(log.buyer, minlength=n) > 0).tolist(),
    )
    return {user: RoleFlags(*user_flags) for user, user_flags in zip(log.users, flags)}


def build_network(log: EventLog) -> CollectorArtistNetwork:
    """Fold the event log into the aggregated collector-artist network.

    Requires USD prices on every event (run currency conversion first).
    Buy-back events (buyer equals creator) are dropped and counted; they
    would violate the zero-diagonal structure of the endorsement matrix.
    """
    log.require_usd()
    users = log.users
    n = len(users)

    pairs, edge_of_sale, counts = np.unique(
        log.buyer * n + log.creator, return_inverse=True, return_counts=True
    )
    collector, artist = np.divmod(pairs, max(n, 1))
    total_usd = sum_by(log.price_usd, edge_of_sale, len(pairs))
    # the buy-backs are the sales of the diagonal pairs
    buyback = collector == artist
    dropped = int(counts[buyback].sum())
    dropped_usd = total_usd[buyback].total()
    edges = ~buyback
    if dropped:
        logger.warning(
            "dropped %d buy-back event(s) (buyer equals creator), %s USD total",
            dropped,
            dropped_usd,
        )
    return CollectorArtistNetwork(
        users=users,
        collector=collector[edges],
        artist=artist[edges],
        total_usd=total_usd[edges],
        sale_count=counts[edges].astype(np.int64),
        dropped_buybacks=dropped,
        dropped_usd=dropped_usd,
    )


def adjacency(net: CollectorArtistNetwork, weighting: Weighting) -> AdjacencyView:
    """Materialize the sparse adjacency matrix under the given weighting.

    Edges are sorted by (collector, artist), so they already are the CSR
    entries in row order.
    """
    weighting = Weighting(weighting)
    n = net.node_count
    if np.any(net.collector == net.artist):
        raise ValueError("self-loop edge found; network invariant violated")
    if weighting is Weighting.WEIGHTED_USD:
        vals = net.total_usd.to_float()
        overflow = np.flatnonzero(np.isinf(vals))
        if overflow.size:
            k = overflow[0]
            raise ValueError(
                f"edge {net.users[net.collector[k]]!r} -> {net.users[net.artist[k]]!r} "
                f"totals {net.total_usd[k]:.6E} USD, beyond the float range"
            )
    elif weighting is Weighting.UNWEIGHTED_BINARY:
        vals = np.ones(net.edge_count)
    else:
        vals = net.sale_count.astype(np.float64)
    matrix = CSRMatrix.from_rows((n, n), net.collector, net.artist, vals)
    return AdjacencyView(weighting=weighting, matrix=matrix)
