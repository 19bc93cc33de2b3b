"""Seeded synthetic sale logs for the pipeline benchmark.

The shape follows a heavy-tailed marketplace: artists sell in proportion to
a Pareto quality weight, collectors buy in proportion to a Pareto wealth
weight, prices scale with both, and a share of sales are resales of
artworks sold earlier (attributed to their original creator). Two kinds of
rows are planted at seeded positions:

* self-sales (buyer equals seller), which ingest must reject by row number;
* buy-backs (a creator buying their own artwork back from its owner), which
  ingest accepts and the network fold must drop.

The program only ever sees the written input files; ``checks.py``
recomputes what it must output from the generated rows.
"""

from __future__ import annotations

import argparse
import csv
import json
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

T0 = 1_600_000_000  # 2020-09-13T12:26:40Z
STEP_S = 60  # seconds between consecutive rows; timestamps strictly increase


@dataclass(frozen=True)
class MarketSpec:
    """Size and make-up of one synthetic market."""

    n_events: int
    n_artists: int
    n_collectors: int
    secondary_fraction: float = 0.1
    self_sales: int = 25
    buybacks: int = 50
    eth: bool = False  # ETH-only prices plus a daily rate table, else USD prices


# The three benchmark inputs; see README.md for why each exists.
SPECS = {
    "events_heavy": MarketSpec(n_events=250_000, n_artists=100, n_collectors=150),
    "users_heavy": MarketSpec(n_events=100_000, n_artists=20_000, n_collectors=40_000),
    "staged_eth": MarketSpec(n_events=100_000, n_artists=1_000, n_collectors=2_000, eth=True),
}


@dataclass(frozen=True)
class Market:
    """Generated rows as columns; row ``i`` is input record ``i + 1``."""

    seller: list[str]
    buyer: list[str]
    creator: list[str]
    price: list[str]  # decimal text: USD, or ETH when the spec is ETH-only
    timestamp: list[int]
    artwork: list[str]
    self_sale_rows: list[int]  # 1-based record numbers
    rates: dict[date, str]  # usd_per_eth text per UTC day; empty for USD markets

    @property
    def n_rows(self) -> int:
        return len(self.seller)


def pareto_weights(rng: np.random.Generator, n: int, alpha: float = 1.3) -> np.ndarray:
    """Evenly spaced quantiles of the Lomax (numpy ``pareto``) distribution,
    dealt to users in seeded order. Random draws from so heavy a tail let
    one seed's top user take a far larger share than another's, and with it
    the number of users, edges and HITS iterations; fixed quantiles keep the
    amount of work alike across seeds."""
    u = (np.arange(n) + 0.5) / n
    return rng.permutation((1.0 - u) ** (-1.0 / alpha) - 1.0 + 0.05)


def generate(spec: MarketSpec, seed: int) -> Market:
    rng = np.random.default_rng(seed)
    n = spec.n_events
    artists = [f"artist{i:05d}" for i in range(spec.n_artists)]
    collectors = [f"collector{i:05d}" for i in range(spec.n_collectors)]
    quality = pareto_weights(rng, spec.n_artists)
    wealth = pareto_weights(rng, spec.n_collectors)
    artist_idx = rng.choice(spec.n_artists, size=n, p=quality / quality.sum())
    collector_idx = rng.choice(spec.n_collectors, size=n, p=wealth / wealth.sum())
    noise = rng.lognormal(0.0, 0.3, size=n)
    resale_draw = rng.random(n) < spec.secondary_fraction
    usd = 10.0 * quality[artist_idx] * (0.5 + wealth[collector_idx]) * noise
    if spec.eth:
        prices = [f"{p:.6f}" for p in (usd / 1500.0).tolist()]
    else:
        prices = [f"{p:.2f}" for p in usd.tolist()]
    # planted rows never sit at position 0, so a resale or buy-back always
    # finds an earlier artwork
    planted = rng.choice(np.arange(1, n), size=spec.self_sales + spec.buybacks, replace=False)
    self_sale_at = set(planted[: spec.self_sales].tolist())
    buyback_at = set(planted[spec.self_sales :].tolist())
    pick = rng.random(n)

    seller: list[str] = []
    buyer: list[str] = []
    creator: list[str] = []
    artwork: list[str] = []
    owners: list[list[str]] = []  # [artwork, current owner, creator]
    resold: list[int] = []  # positions in owners whose owner is not the creator
    for i in range(n):
        collector = collectors[collector_idx[i]]
        if i in self_sale_at:
            seller.append(collector)
            buyer.append(collector)
            creator.append(artists[artist_idx[i]])
            artwork.append(f"self{i:07d}")
            continue
        if i in buyback_at and resold:
            entry = owners[resold.pop(int(pick[i] * len(resold)))]
            seller.append(entry[1])
            buyer.append(entry[2])
            creator.append(entry[2])
            artwork.append(entry[0])
            entry[1] = entry[2]
            continue
        if resale_draw[i] and owners:
            pos = int(pick[i] * len(owners))
            entry = owners[pos]
            if collector == entry[1]:
                collector = collectors[(collector_idx[i] + 1) % spec.n_collectors]
            seller.append(entry[1])
            buyer.append(collector)
            creator.append(entry[2])
            artwork.append(entry[0])
            if entry[1] == entry[2]:
                resold.append(pos)
            entry[1] = collector
        else:
            artist = artists[artist_idx[i]]
            seller.append(artist)
            buyer.append(collector)
            creator.append(artist)
            artwork.append(f"art{i:07d}")
            owners.append([artwork[-1], collector, artist])
            resold.append(len(owners) - 1)

    timestamps = [T0 + i * STEP_S for i in range(n)]
    rates: dict[date, str] = {}
    if spec.eth:
        first = datetime.fromtimestamp(timestamps[0], tz=timezone.utc).date()
        last = datetime.fromtimestamp(timestamps[-1], tz=timezone.utc).date()
        days = (last - first).days + 1
        levels = np.round(rng.uniform(300.0, 4000.0, size=days), 2)
        rates = {first + timedelta(days=k): f"{levels[k]:.2f}" for k in range(days)}
    self_rows = sorted(i + 1 for i in self_sale_at)
    return Market(seller, buyer, creator, prices, timestamps, artwork, self_rows, rates)


def iso_utc(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_csv(market: Market, path: Path) -> None:
    """Canonical columns, USD prices, integer Unix timestamps."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["seller", "buyer", "creator", "price_eth", "price_usd", "timestamp", "artwork_id"]
        )
        for i in range(market.n_rows):
            writer.writerow(
                [
                    market.seller[i],
                    market.buyer[i],
                    market.creator[i],
                    "",
                    market.price[i],
                    str(market.timestamp[i]),
                    market.artwork[i],
                ]
            )


def write_ndjson(market: Market, path: Path) -> None:
    """One object per line, seller/buyer renamed to from/to, ETH prices as
    JSON numbers, ISO-8601 ``Z`` timestamps."""
    with path.open("w", encoding="utf-8") as handle:
        for i in range(market.n_rows):
            handle.write(
                '{"from": %s, "to": %s, "creator": %s, "price_eth": %s, '
                '"timestamp": "%s", "artwork_id": %s}\n'
                % (
                    json.dumps(market.seller[i]),
                    json.dumps(market.buyer[i]),
                    json.dumps(market.creator[i]),
                    market.price[i],
                    iso_utc(market.timestamp[i]),
                    json.dumps(market.artwork[i]),
                )
            )


def write_rates(market: Market, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("date,usd_per_eth\n")
        for day in sorted(market.rates):
            handle.write(f"{day.isoformat()},{market.rates[day]}\n")


def write_inputs(name: str, seed: int, directory: Path) -> Market:
    """Write one workload's input files (as the benchmark does) and return
    the generated market."""
    spec = SPECS[name]
    market = generate(spec, seed)
    directory.mkdir(parents=True, exist_ok=True)
    if spec.eth:
        write_ndjson(market, directory / "input.ndjson")
        write_rates(market, directory / "rates.csv")
    else:
        write_csv(market, directory / "input.csv")
    return market


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write one benchmark input.")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True, help="directory for the files")
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out)
