"""Shared test utilities: event builders, independent oracles, market generator.

The oracles here deliberately avoid the library's code paths: dense
eigendecomposition for authority/hub, O(n^2) pairwise sums for Gini, and
explicit pair counting for Kendall tau-b.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from datetime import datetime, timezone
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from artrank import EventLog, ingest, parse_events, percentiles

T0 = 1_600_000_000  # arbitrary epoch base for generated timestamps


def ev(
    seller: str,
    buyer: str,
    creator: str,
    usd=None,
    eth=None,
    ts: int = 0,
    artwork: str | None = None,
) -> tuple[str, ...]:
    """The canonical CSV cells of one fixture sale, in ``CANONICAL_FIELDS`` order."""
    return (
        seller,
        buyer,
        creator,
        "" if eth is None else str(eth),
        "" if usd is None else str(usd),
        str(T0 + ts),
        artwork or "",
    )


def log_of(*events: tuple[str, ...], source: str = "fixture") -> EventLog:
    """The log ``parse_events`` makes of fixture sales written as a CSV.

    Raises ValueError naming the reason when the validator rejects a sale.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(ingest.CANONICAL_FIELDS)
    writer.writerows(events)
    log, rejects = parse_events(buffer.getvalue().encode(), "csv", source=source)
    if rejects:
        raise ValueError(f"fixture sale {rejects[0].row} rejected: {rejects[0].reason}")
    return log


class Sale(NamedTuple):
    """One event of a log, read from its columns."""

    seller_id: str
    buyer_id: str
    creator_id: str
    price_eth: Decimal | None
    price_usd: Decimal | None
    timestamp: datetime
    artwork_id: str | None


def sales(log: EventLog) -> list[Sale]:
    """The events of ``log`` in log order, one ``Sale`` each."""
    users = log.users
    return [
        Sale(users[s], users[b], users[c], eth, usd, datetime.fromtimestamp(ts, timezone.utc), art)
        for s, b, c, eth, usd, ts, art in zip(
            log.seller.tolist(),
            log.buyer.tolist(),
            log.creator.tolist(),
            log.price_eth.tolist(),
            log.price_usd.tolist(),
            log.timestamp.tolist(),
            log.artwork.tolist(),
        )
    ]


def edge_totals(net) -> dict[tuple[str, str], tuple[Decimal, int]]:
    """Each edge's (total USD, sale count), keyed by (collector id, artist id)."""
    users = net.users
    return {
        (users[c], users[a]): (total, count)
        for c, a, total, count in zip(
            net.collector.tolist(),
            net.artist.tolist(),
            net.total_usd.tolist(),
            net.sale_count.tolist(),
        )
    }


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def dense_hits_oracle(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant eigenvectors of A^T A (authority) and A A^T (hub) via eigh."""
    _, v_auth = np.linalg.eigh(dense.T @ dense)
    _, v_hub = np.linalg.eigh(dense @ dense.T)
    return v_auth[:, -1], v_hub[:, -1]


def percentile_levels(scores, tie_rank: str = "max") -> list[str]:
    """A/B/C level per score, one value at a time: C for a percentile <= 0.5,
    B for <= 0.9, A above."""
    return ["C" if p <= 0.5 else "B" if p <= 0.9 else "A" for p in percentiles(scores, tie_rank)]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Absolute cosine similarity (orientation-free)."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 1.0 if nu == nv else 0.0
    return abs(float(u @ v)) / (nu * nv)


def gini_pairwise(values) -> float:
    """O(n^2) population Gini: sum_ij |x_i - x_j| / (2 n^2 mean)."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    diffs = np.abs(v[:, None] - v[None, :])
    return float(diffs.sum() / (2.0 * n * n * v.mean()))


def kendall_brute(xs, ys) -> float:
    """Tau-b by explicit pair counting with tie correction."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    n = x.size
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    dx = dx[iu]
    dy = dy[iu]
    concordant = int(np.sum((dx * dy) > 0))
    discordant = int(np.sum((dx * dy) < 0))
    ties_x = int(np.sum(dx == 0))
    ties_y = int(np.sum(dy == 0))
    pairs = n * (n - 1) // 2
    denom = np.sqrt(float(pairs - ties_x)) * np.sqrt(float(pairs - ties_y))
    return (concordant - discordant) / denom


def random_sparse_digraph(
    rng: np.random.Generator, max_n: int = 20, max_density: float = 0.3
) -> np.ndarray:
    """Random non-negative weighted digraph with a zero diagonal and >= 1 edge."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        density = rng.uniform(0.05, max_density)
        mask = rng.random((n, n)) < density
        np.fill_diagonal(mask, False)
        if not mask.any():
            continue
        weights = rng.uniform(0.1, 10.0, size=(n, n))
        return np.where(mask, weights, 0.0)


def parse_json_whole(data: bytes, field_map=None):
    """``parse_events(data, "json")`` read the whole-text way, through the full validator.

    The input is decoded at once, one-object-per-line input is split into
    lines at every ``\\n``, ``\\r\\n`` and ``\\r`` of the whole text, and every
    record goes to ``_Records.add``. Returns ``(log, rejects)``; raises the ValueError that
    ``parse_events`` raises.
    """
    remap = dict(field_map or {})
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"input is not valid UTF-8: {exc}") from None
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("JSON input is empty")
    if stripped.startswith("["):
        try:
            items = json.loads(text, parse_float=Decimal)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON input: {exc}") from None
        if not isinstance(items, list):
            raise ValueError("JSON input must be an array of objects")
    else:
        decoder = json.JSONDecoder(parse_float=Decimal)
        items = []
        for line in re.split(r"\r\n|\r|\n", text):
            if not line.strip():
                continue
            try:
                items.append(decoder.decode(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON on record {len(items) + 1}: {exc}") from None
    records = ingest._Records()
    for row_num, record in enumerate(items, start=1):
        if not isinstance(record, dict):
            record = {}
        records.add(row_num, *map(record.get, ingest._field_keys(record, remap)))
    return records.log("", len(items)), records.rejects


# ---------------------------------------------------------------------------
# Synthetic marketplace
# ---------------------------------------------------------------------------


def market_rows(
    seed: int,
    n_events: int,
    n_artists: int = 100,
    n_collectors: int = 150,
    secondary_fraction: float = 0.1,
    self_sale_rows: int = 0,
    buyback_rows: int = 0,
) -> list[list[str]]:
    """Deterministic synthetic sale rows in canonical column order.

    Artists sell in proportion to a heavy-tailed quality weight, collectors
    buy in proportion to a wealth weight, and prices scale with both, so the
    artist-side metrics correlate with each other (likewise the collector
    side). Optional malformed rows exercise ingest rejection (self sales)
    and graph dropping (buy-backs).
    """
    rng = np.random.default_rng(seed)
    artists = [f"artist{i:04d}" for i in range(n_artists)]
    collectors = [f"collector{i:04d}" for i in range(n_collectors)]
    quality = rng.pareto(1.3, n_artists) + 0.05
    wealth = rng.pareto(1.3, n_collectors) + 0.05
    artist_idx = rng.choice(n_artists, size=n_events, p=quality / quality.sum())
    collector_idx = rng.choice(n_collectors, size=n_events, p=wealth / wealth.sum())
    noise = rng.lognormal(0.0, 0.3, size=n_events)
    resale_draw = rng.random(n_events)

    rows: list[list[str]] = []
    owners: list[tuple[str, str, str]] = []  # (artwork, current owner, creator)
    for i in range(n_events):
        ts = T0 + i * 60
        buyer = collectors[collector_idx[i]]
        price = round(10.0 * quality[artist_idx[i]] * (0.5 + wealth[collector_idx[i]]) * noise[i], 2)
        if owners and resale_draw[i] < secondary_fraction:
            pos = int(rng.integers(len(owners)))
            artwork, owner, creator = owners[pos]
            if buyer == owner:
                buyer = collectors[(collector_idx[i] + 1) % n_collectors]
            owners[pos] = (artwork, buyer, creator)
            rows.append([owner, buyer, creator, "", f"{price}", str(ts), artwork])
        else:
            artist = artists[artist_idx[i]]
            artwork = f"art{i:06d}"
            owners.append((artwork, buyer, artist))
            rows.append([artist, buyer, artist, "", f"{price}", str(ts), artwork])

    ts = T0 + n_events * 60
    for k in range(self_sale_rows):
        rows.append([artists[0], artists[0], artists[0], "", "10.0", str(ts + k), f"bad{k}"])
    for k in range(buyback_rows):
        artwork, owner, creator = owners[k]
        if owner != creator:
            rows.append([owner, creator, creator, "", "25.0", str(ts + 1000 + k), artwork])
    return rows


def market_csv(seed: int, n_events: int, **kwargs) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["seller", "buyer", "creator", "price_eth", "price_usd", "timestamp", "artwork_id"]
    )
    writer.writerows(market_rows(seed, n_events, **kwargs))
    return buffer.getvalue()


class WriteLog(io.StringIO):
    """A text stream that records the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def count_forks(patch) -> list[int]:
    """Make ``os.fork``, through the monkeypatch ``patch``, record the pid of each
    child this process forks; returns the list it records them in."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    patch.setattr(os, "fork", counted_fork)
    return forks


def count_range_forks(patch) -> list[int]:
    """Make ``ingest._merge``, through the monkeypatch ``patch``, record the pid of
    each child whose byte range it merges; returns the list it records them in.
    Children that write artifacts are not counted."""
    forks = []
    merge = ingest._merge

    def counted_merge(child, *args):
        forks.append(child.pid)
        return merge(child, *args)

    patch.setattr(ingest, "_merge", counted_merge)
    return forks
