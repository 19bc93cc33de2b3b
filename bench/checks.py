"""Output checks computed apart from artrank.

Everything here is rebuilt from the generated input rows with exact
``Decimal`` arithmetic, scipy and plain Python; no artrank code is imported.
Each check returns a list of problems, empty when the artifacts agree.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import sparse, stats
from scipy.sparse.linalg import svds

from markets import Market

HITS_TOL = 1e-9
KENDALL_TOL = 1e-12
GINI_TOL = 1e-12
MAX_PROBLEMS = 5  # per check; one is enough to fail, a few help diagnosis

# rankings.csv columns in the order of correlation.csv's labels
CORRELATION_COLUMNS = (
    ("auth", "authority"),
    ("w-auth", "w_authority"),
    ("in-str", "in_strength"),
    ("in-deg", "in_degree"),
    ("hub", "hub"),
    ("w-hub", "w_hub"),
    ("out-str", "out_strength"),
    ("out-deg", "out_degree"),
)
ARTIST_CODE = ("in_degree", "in_strength", "authority", "w_authority")
COLLECTOR_CODE = ("out_degree", "out_strength", "hub", "w_hub")


@dataclass
class Expected:
    """What a correct pipeline must produce, rebuilt from the input rows."""

    accepted: list[int]  # 0-based input positions that ingest must accept
    usd: list[Decimal]  # exact USD price per input position (None if rejected)
    edges: dict[tuple[str, str], list]  # (collector, artist) -> [total USD, sales]
    users: list[str]  # active users, sorted


def expected_from(market: Market) -> Expected:
    rejected = set(r - 1 for r in market.self_sale_rows)
    accepted = [i for i in range(market.n_rows) if i not in rejected]
    usd: list[Decimal] = [None] * market.n_rows
    with localcontext() as ctx:
        ctx.prec = 80  # far beyond any product or sum below: exact
        for i in accepted:
            price = Decimal(market.price[i])
            if market.rates:
                day = datetime.fromtimestamp(market.timestamp[i], tz=timezone.utc).date()
                price = price * Decimal(market.rates[day])
            usd[i] = price
        edges: dict[tuple[str, str], list] = {}
        users = set()
        for i in accepted:
            users.update((market.seller[i], market.buyer[i], market.creator[i]))
            if market.buyer[i] == market.creator[i]:  # buy-back: no endorsement edge
                continue
            entry = edges.setdefault((market.buyer[i], market.creator[i]), [Decimal(0), 0])
            entry[0] += usd[i]
            entry[1] += 1
    return Expected(accepted, usd, edges, sorted(users))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _exact_sum(values) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 80
        return sum(values, Decimal(0))


@functools.lru_cache(maxsize=1)  # four checks read the same file
def _rankings(out: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    header, rows = _read_csv(out / "rankings.csv")
    users = [r[0] for r in rows]
    columns = {
        name: np.array([float(r[k]) for r in rows]) for k, name in enumerate(header) if k
    }
    return users, columns


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def check_events(market: Market, exp: Expected, out: Path) -> list[str]:
    """events.csv re-exports every accepted row in input order (timestamps
    strictly increase); for ETH input the USD price is price_eth x rate of
    the sale's UTC date, exactly."""
    problems = []
    _, rows = _read_csv(out / "events.csv")
    if len(rows) != len(exp.accepted):
        return [f"events.csv has {len(rows)} rows, expected {len(exp.accepted)}"]
    for row, i in zip(rows, exp.accepted):
        when = datetime.fromtimestamp(market.timestamp[i], tz=timezone.utc).isoformat()
        want_eth = market.price[i] if market.rates else ""
        if (
            row[0] != market.seller[i]
            or row[1] != market.buyer[i]
            or row[2] != market.creator[i]
            or row[3] != want_eth
            or Decimal(row[4]) != exp.usd[i]
            or row[5] != when
            or row[6] != market.artwork[i]
        ):
            problems.append(f"events.csv row for input record {i + 1}: {row}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


def check_rejects(market: Market, exp: Expected, out: Path) -> list[str]:
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    want = [{"row": r, "reason": "self-sale"} for r in market.self_sale_rows]
    problems = []
    if report["rejects"] != want:
        problems.append(f"rejects {report['rejects'][:5]}... differ from planted self-sales")
    counts = (report["total_records"], report["accepted"], report["rejected"])
    if counts != (market.n_rows, len(exp.accepted), len(want)):
        problems.append(f"ingest_report counts {counts}")
    return problems


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def check_edges(market: Market, exp: Expected, out: Path) -> list[str]:
    header, rows = _read_csv(out / "edges.csv")
    if header != ["collector", "artist", "total_usd", "sale_count"]:
        return [f"edges.csv header {header}"]
    keys = [(r[0], r[1]) for r in rows]
    if keys != sorted(exp.edges):
        return [f"edges.csv has {len(keys)} edges, expected {len(exp.edges)} in id order"]
    problems = []
    for r in rows:
        total, count = exp.edges[(r[0], r[1])]
        if Decimal(r[2]) != total or int(r[3]) != count:
            problems.append(f"edge {r} expected total {total} count {count}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


def check_degrees(market: Market, exp: Expected, out: Path) -> list[str]:
    users, cols = _rankings(out)
    if sorted(users) != exp.users:
        return [f"rankings.csv has {len(users)} users, expected {len(exp.users)}"]
    in_deg = defaultdict(int)
    out_deg = defaultdict(int)
    in_str = defaultdict(list)
    out_str = defaultdict(list)
    for (collector, artist), (total, count) in exp.edges.items():
        out_deg[collector] += count
        in_deg[artist] += count
        out_str[collector].append(total)
        in_str[artist].append(total)
    problems = []
    for k, user in enumerate(users):
        want = (
            in_deg[user],
            out_deg[user],
            float(_exact_sum(in_str[user])),
            float(_exact_sum(out_str[user])),
        )
        got = (
            cols["in_degree"][k],
            cols["out_degree"][k],
            cols["in_strength"][k],
            cols["out_strength"][k],
        )
        if want != got:
            problems.append(f"{user}: degree/strength {got}, expected {want}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


def _top_singular(matrix: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Dominant right (authority) and left (hub) singular vectors, made
    non-negative and unit length."""
    n = matrix.shape[0]
    u, _, vt = svds(matrix, k=1, v0=np.full(n, 1.0 / math.sqrt(n)), tol=0)
    hub = np.abs(u[:, 0])
    authority = np.abs(vt[0])
    return authority / np.linalg.norm(authority), hub / np.linalg.norm(hub)


def check_hits(market: Market, exp: Expected, out: Path) -> list[str]:
    users, cols = _rankings(out)
    index = {u: k for k, u in enumerate(users)}
    n = len(users)
    pairs = list(exp.edges.items())
    rows = np.array([index[c] for (c, _), _ in pairs])
    colx = np.array([index[a] for (_, a), _ in pairs])
    weighted = np.array([float(total) for _, (total, _) in pairs])
    problems = []
    for label, weights in (("", np.ones(len(pairs))), ("w_", weighted)):
        matrix = sparse.csr_matrix((weights, (rows, colx)), shape=(n, n))
        authority, hub = _top_singular(matrix)
        for name, want in (("authority", authority), ("hub", hub)):
            diff = float(np.max(np.abs(cols[label + name] - want)))
            if not diff <= HITS_TOL:
                problems.append(f"{label}{name} differs from svds by {diff:.3g}")
    trader = cols["authority"] * cols["hub"]
    if not np.array_equal(trader, cols["trader_score"]):
        problems.append("trader_score is not authority x hub")
    order = sorted(range(n), key=lambda k: (-cols["authority"][k], users[k]))
    if order != list(range(n)):
        problems.append("rankings.csv is not sorted by descending authority, then user")
    return problems


# ---------------------------------------------------------------------------
# concentration, correlate, profile, report
# ---------------------------------------------------------------------------


def _lorenz_gini(volumes: list[Decimal]) -> Fraction:
    """Exact Gini as one minus twice the area under the Lorenz curve."""
    exponent = min(v.as_tuple().exponent for v in volumes)
    with localcontext() as ctx:
        ctx.prec = 80
        scaled = sorted(int(v.scaleb(-exponent)) for v in volumes)
    n = len(scaled)
    total = sum(scaled)
    area2 = 0  # sum of (S_{i-1} + S_i), i.e. 2n * T * area
    running = 0
    for v in scaled:
        area2 += 2 * running + v
        running += v
    return 1 - Fraction(area2, n * total)


def check_gini(market: Market, exp: Expected, out: Path) -> list[str]:
    problems = []
    for stem, column in (("lorenz_sellers", market.seller), ("lorenz_buyers", market.buyer)):
        volumes = defaultdict(list)
        for i in exp.accepted:
            volumes[column[i]].append(exp.usd[i])
        totals = [_exact_sum(v) for v in volumes.values()]
        side = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
        want = float(_lorenz_gini(totals))
        if not abs(side["gini"] - want) <= GINI_TOL:
            problems.append(f"{stem} gini {side['gini']!r}, Lorenz area gives {want!r}")
        if side["n"] != len(totals) or side["total"] != float(_exact_sum(totals)):
            problems.append(f"{stem} n/total {side['n']}/{side['total']}")
        _, points = _read_csv(out / f"{stem}.csv")
        if len(points) != len(totals) + 1 or points[0] != ["0.0", "0.0"]:
            problems.append(f"{stem}.csv has {len(points)} points")
        elif not abs(float(points[-1][1]) - 1.0) <= GINI_TOL:
            problems.append(f"{stem}.csv ends at {points[-1]}")
    return problems


def check_kendall(market: Market, exp: Expected, out: Path) -> list[str]:
    _, cols = _rankings(out)
    header, rows = _read_csv(out / "correlation.csv")
    labels = [label for label, _ in CORRELATION_COLUMNS]
    if header != ["metric"] + labels or [r[0] for r in rows] != labels:
        return [f"correlation.csv labels {header}"]
    problems = []
    for i, (_, x) in enumerate(CORRELATION_COLUMNS):
        for j, (_, y) in enumerate(CORRELATION_COLUMNS):
            got = float(rows[i][j + 1])
            want = stats.kendalltau(cols[x], cols[y]).statistic
            if math.isnan(want) != math.isnan(got) or not (
                math.isnan(want) or abs(got - want) <= KENDALL_TOL
            ):
                problems.append(f"tau({x}, {y}) = {got!r}, scipy gives {want!r}")
    return problems


def _levels(values: np.ndarray) -> list[str]:
    pct = stats.rankdata(values, method="max") / values.size
    return ["A" if p > 0.9 else "B" if p > 0.5 else "C" for p in pct]


def check_profiles(market: Market, exp: Expected, out: Path) -> list[str]:
    users, cols = _rankings(out)
    artist = ["".join(c) for c in zip(*(_levels(cols[m]) for m in ARTIST_CODE))]
    collector = ["".join(c) for c in zip(*(_levels(cols[m]) for m in COLLECTOR_CODE))]
    want = {u: (artist[k], collector[k]) for k, u in enumerate(users)}
    problems = []
    seen = []
    with (out / "profiles.jsonl").open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            seen.append(record["user"])
            got = (record["artist_code"], record["collector_code"])
            if got != want.get(record["user"]) and len(problems) < MAX_PROBLEMS:
                problems.append(f"{record['user']} codes {got}, expected {want.get(record['user'])}")
    if seen != sorted(users):
        problems.append(f"profiles.jsonl lists {len(seen)} users, expected {len(users)} sorted")
    return problems


def check_summary(market: Market, exp: Expected, out: Path) -> list[str]:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    rows = exp.accepted
    want = {
        "active_users": len(exp.users),
        "sold_artworks": len(rows),
        "sale_volume_usd": float(_exact_sum(exp.usd[i] for i in rows)),
        "tokenized": len({market.artwork[i] for i in rows}),
        "creators": len({market.creator[i] for i in rows}),
        "sellers": len({market.seller[i] for i in rows}),
        "buyers": len({market.buyer[i] for i in rows}),
    }
    got = {
        "active_users": summary["active_users"],
        "sold_artworks": summary["sold_artworks"],
        "sale_volume_usd": summary["sale_volume_usd"],
        "tokenized": summary["tokenized_artworks"]["count"],
        "creators": summary["creators"]["count"],
        "sellers": summary["sellers"]["count"],
        "buyers": summary["buyers"]["count"],
    }
    return [f"summary {k} = {got[k]!r}, expected {v!r}" for k, v in want.items() if got[k] != v]


def check_manifest(market: Market, exp: Expected, out: Path) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    listed = {e["name"]: e for e in manifest["files"]}
    present = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    problems = [] if set(listed) == present else [f"manifest lists {sorted(listed)}"]
    for name in sorted(set(listed) & present):
        data = (out / name).read_bytes()
        if listed[name]["sha256"] != hashlib.sha256(data).hexdigest():
            problems.append(f"manifest hash of {name} is stale")
        if listed[name]["size"] != len(data):
            problems.append(f"manifest size of {name} is stale")
    return problems


CHECKS = {
    "events": check_events,
    "rejects": check_rejects,
    "edges": check_edges,
    "degrees": check_degrees,
    "hits": check_hits,
    "gini": check_gini,
    "kendall": check_kendall,
    "profiles": check_profiles,
    "summary": check_summary,
    "manifest": check_manifest,
}


def run_checks(names, market: Market, exp: Expected, out: Path) -> list[str]:
    """Problems found by the named checks; a check that cannot read its
    artifact reports that as a problem."""
    problems = []
    for name in names:
        try:
            found = CHECKS[name](market, exp, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"{type(exc).__name__}: {exc}"]
        problems.extend(f"{name}: {p}" for p in found)
    return problems
