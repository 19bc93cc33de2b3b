"""Dataset summary statistics and plot-ready figure tables.

Counts come from the event log's user-code columns and event tallies;
histogram and per-user score tables are emitted as data only, rendering is
left to external tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .columns import DecimalColumn, sum_by
from .graph import CollectorArtistNetwork
from .ingest import EventLog
from .profiling import METRIC_NAMES, MetricsTable, normalize_metrics

DIMENSION_SALES = "sales"
DIMENSION_PURCHASES = "purchases"

# Fig-style one-line-per-user measure order
FIGURE_MEASURES = ("in_degree", "authority", "hub", "out_degree")


@dataclass(frozen=True)
class MarketSummary:
    """Marketplace-level counts and volumes.

    ``tokenized_count`` needs mint events; logs hold sales only, so it is
    the distinct artwork-id count, always a lower bound. Fractions are
    exact; percentage rounding happens only in the text rendering.
    """

    tokenized_count: int
    sold_count: int
    sale_volume_usd: Decimal
    sale_volume_eth: Decimal
    active_users: int
    creators: int
    sellers: int
    buyers: int

    def _fraction(self, count: int) -> float:
        return count / self.active_users if self.active_users else 0.0

    @property
    def creators_fraction(self) -> float:
        return self._fraction(self.creators)

    @property
    def sellers_fraction(self) -> float:
        return self._fraction(self.sellers)

    @property
    def buyers_fraction(self) -> float:
        return self._fraction(self.buyers)

    def to_dict(self) -> dict:
        """The summary as JSON values; refuses a volume total beyond the float range."""
        return {
            "tokenized_artworks": {
                "count": self.tokenized_count,
                "lower_bound": True,
            },
            "sold_artworks": self.sold_count,
            "sale_volume_usd": _float_total(self.sale_volume_usd, "USD"),
            "sale_volume_eth": _float_total(self.sale_volume_eth, "ETH"),
            "active_users": self.active_users,
            "creators": {"count": self.creators, "fraction": self.creators_fraction},
            "sellers": {"count": self.sellers, "fraction": self.sellers_fraction},
            "buyers": {"count": self.buyers, "fraction": self.buyers_fraction},
        }

    def to_text(self) -> str:
        lines = [
            f"Tokenized artworks: {self.tokenized_count} (lower bound: sales-only input)",
            f"Sold artworks: {self.sold_count}",
            f"Sale volume: {self.sale_volume_usd:,.2f} USD / {self.sale_volume_eth:,.4f} ETH",
            f"Active users: {self.active_users}",
            f"Created at least one artwork: {self.creators}"
            f" ({round(self.creators_fraction * 100)}%)",
            f"Sold at least one artwork: {self.sellers}"
            f" ({round(self.sellers_fraction * 100)}%)",
            f"Bought at least one artwork: {self.buyers}"
            f" ({round(self.buyers_fraction * 100)}%)",
        ]
        return "\n".join(lines) + "\n"


def _float_total(total: Decimal, unit: str) -> float:
    value = float(total)
    if not math.isfinite(value):
        raise ValueError(f"sale volume totals {total:.6E} {unit}, beyond the float range")
    return value


def summarize(log: EventLog, net: CollectorArtistNetwork) -> MarketSummary:
    """Counts and volumes for a log and the network built from it."""
    log.require_usd()
    usd = log.price_usd.total()
    eth = log.price_eth.total()
    n = len(log.users)
    return MarketSummary(
        tokenized_count=log.artwork.distinct_count(),
        sold_count=log.accepted_count,
        sale_volume_usd=usd,
        sale_volume_eth=eth,
        active_users=net.node_count,
        creators=int(np.count_nonzero(np.bincount(log.creator, minlength=n))),
        sellers=int(np.count_nonzero(np.bincount(log.seller, minlength=n))),
        buyers=int(np.count_nonzero(np.bincount(log.buyer, minlength=n))),
    )


def user_volumes(log: EventLog, users: np.ndarray) -> tuple[np.ndarray, DecimalColumn]:
    """The codes of the users in a user-code column of ``log`` (such as
    ``log.seller``), in id order, and each one's exact USD volume over it."""
    log.require_usd()
    n = len(log.users)
    active = np.flatnonzero(np.bincount(users, minlength=n))
    return active, sum_by(log.price_usd, users, n)[active]


def volume_by_seller(log: EventLog) -> dict[str, Decimal]:
    """USD proceeds per selling user (the transacting seller, not the creator)."""
    return _by_id(log, *user_volumes(log, log.seller))


def volume_by_buyer(log: EventLog) -> dict[str, Decimal]:
    """USD spend per buying user."""
    return _by_id(log, *user_volumes(log, log.buyer))


def histogram_data(
    table: MetricsTable,
    dimension: str,
    bins: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced histogram of per-user sale or purchase counts.

    Returns (edges, counts); counts sum to the number of users with a
    positive count in the dimension. Empty support yields empty arrays.
    """
    if dimension == DIMENSION_SALES:
        values = table.column("in_degree")
    elif dimension == DIMENSION_PURCHASES:
        values = table.column("out_degree")
    else:
        raise ValueError(f"unknown dimension: {dimension!r}")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    support = values[values > 0]
    if support.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    lo = float(support.min())
    hi = float(support.max())
    if lo == hi:
        return np.array([lo, hi]), np.array([support.size], dtype=np.int64)
    edges = np.logspace(np.log10(lo), np.log10(hi), bins + 1)
    edges[0] = lo  # pin endpoints so the bins cover the observed range exactly
    edges[-1] = hi
    counts, _ = np.histogram(support, edges)
    return edges, counts.astype(np.int64)


def figure5_values(table: MetricsTable) -> np.ndarray:
    """Per-user (in-degree, authority, hub, out-degree), max-normalized, as an
    (n, 4) matrix in table order."""
    idx = [METRIC_NAMES.index(m) for m in FIGURE_MEASURES]
    return normalize_metrics(table)[:, idx]


def figure5_data(table: MetricsTable) -> list[tuple[str, tuple[float, ...]]]:
    """``figure5_values`` as ``(user, values)`` rows in table order."""
    return list(zip(table.users, map(tuple, figure5_values(table).tolist())))


def _by_id(log: EventLog, codes: np.ndarray, volumes: DecimalColumn) -> dict[str, Decimal]:
    return dict(zip(map(log.users.__getitem__, codes.tolist()), volumes.tolist()))
