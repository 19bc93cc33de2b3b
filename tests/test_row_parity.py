"""The columnar per-user writers against row-by-row references.

Each reference below builds one Python object per user, the way the
pipeline did before its per-user layer became columnar: a level string per
percentile, a ``ReferenceProfile`` tuple per user, a dict and a
``json.dumps`` call per ``profiles.jsonl`` line, a list of ``str`` cells
per CSV row, and a pattern matched one user at a time. The columnar code
must write the same text for any metrics table. The small CSVs (Lorenz
curves, histograms, the Kendall matrix, query matches) are checked against
the row formulas they were written with before every CSV became columns.
"""

import csv
import hashlib
import io
import json
import math
import tracemalloc
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import (
    METRIC_NAMES,
    MetricsTable,
    Role,
    build_network,
    cli,
    columns,
    econometrics,
    ingest,
    match_code,
    parse_events,
    profiling,
    report,
)
from artrank.ingest import IdColumn, id_order, write_csv
from helpers import WriteLog, market_csv

# ---------------------------------------------------------------------------
# Row-by-row references
# ---------------------------------------------------------------------------


def reference_level(percentile: float) -> str:
    if percentile > 0.9:
        return "A"
    if percentile > 0.5:
        return "B"
    return "C"


class ReferenceProfile(NamedTuple):
    user_id: str
    role: Role
    artist_code: str
    collector_code: str
    normalized: tuple[float, ...]  # 8 values in METRIC_NAMES order
    trader_score: float


def reference_profiles(table, threshold, tie_rank) -> list[ReferenceProfile]:
    def codes(metrics):
        columns = [
            [reference_level(p) for p in profiling.percentiles(table.column(m), tie_rank)]
            for m in metrics
        ]
        return ["".join(levels) for levels in zip(*columns)]

    def quantile(values):
        ordered = np.sort(values)
        return float(ordered[max(1, math.ceil(threshold * values.size - 1e-9)) - 1])

    artist = codes(profiling.ARTIST_CODE_METRICS)
    collector = codes(profiling.COLLECTOR_CODE_METRICS)
    sell = table.column("in_degree")
    buy = table.column("out_degree")
    roles = []
    for s, b in zip(sell > quantile(sell), buy > quantile(buy)):
        if s and b:
            roles.append(Role.TRADER)
        elif s:
            roles.append(Role.PURE_SELLER)
        elif b:
            roles.append(Role.PURE_BUYER)
        else:
            roles.append(Role.BY_STANDER)
    maxima = table.values.max(axis=0)
    normalized = table.values / np.where(maxima > 0, maxima, 1.0)
    trader = table.column("authority") * table.column("hub")
    return [
        ReferenceProfile(
            user_id=user,
            role=roles[i],
            artist_code=artist[i],
            collector_code=collector[i],
            normalized=tuple(float(x) for x in normalized[i]),
            trader_score=float(trader[i]),
        )
        for i, user in enumerate(table.users)
    ]


def reference_matches(profiles: list[ReferenceProfile], pattern: str, which: str) -> list[str]:
    matched = []
    for profile in profiles:
        if which == "artist":
            code = profile.artist_code
        elif which == "collector":
            code = profile.collector_code
        else:
            code = profile.artist_code + profile.collector_code
        if all(p == "*" or p == c for p, c in zip(pattern, code)):
            matched.append(profile.user_id)
    return matched


def reference_profiles_jsonl(profiles: list[ReferenceProfile]) -> str:
    records = (
        {
            "user": p.user_id,
            "role": p.role.value,
            "artist_code": p.artist_code,
            "collector_code": p.collector_code,
            "normalized": dict(zip(METRIC_NAMES, p.normalized)),
            "trader_score": p.trader_score,
        }
        for p in sorted(profiles, key=lambda p: p.user_id)
    )
    return "".join(json.dumps(record) + "\n" for record in records)


def reference_rankings_rows(table, trader, sort_by) -> list[list[str]]:
    users = table.users
    columns = dict(zip(METRIC_NAMES, table.values.T.tolist()), trader_score=trader.tolist())
    if sort_by == "user":
        order = sorted(range(len(users)), key=users.__getitem__)
    else:
        key = columns[sort_by]
        order = sorted(range(len(users)), key=lambda i: (-key[i], users[i]))
    for name in ("in_degree", "out_degree"):
        columns[name] = [int(v) for v in columns[name]]
    return [
        [users[i]] + [str(columns[name][i]) for name in cli.RANKINGS_HEADER[1:]] for i in order
    ]


def reference_figure5_rows(table) -> list[list[str]]:
    maxima = table.values.max(axis=0, initial=0.0)
    normalized = table.values / np.where(maxima > 0, maxima, 1.0)
    idx = [METRIC_NAMES.index(m) for m in ("in_degree", "authority", "hub", "out_degree")]
    rows = [(user, tuple(row)) for user, row in zip(table.users, normalized[:, idx].tolist())]
    return [[user] + [str(v) for v in values] for user, values in sorted(rows)]


def reference_edges_rows(net) -> list[list[str]]:
    rows = [
        [net.users[c], net.users[a], str(net.total_usd[k]), str(n)]
        for k, (c, a, n) in enumerate(
            zip(net.collector.tolist(), net.artist.tolist(), net.sale_count.tolist())
        )
    ]
    return sorted(rows, key=lambda row: row[:2])


def csv_text(header, rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(chain([header], rows))
    return out.getvalue()


def written_text(header, columns) -> str:
    out = io.StringIO()
    write_csv(out, header, columns)
    return out.getvalue()


def figure5_columns(table):
    """The ``figure5.csv`` columns as the ``report`` stage passes them."""
    return (table.users, *report.figure5_values(table).T)


def edges_columns(net):
    """The ``edges.csv`` columns as the ``rank`` stage passes them."""
    users = np.array(net.users, dtype=object)
    collector, artist = IdColumn(users, net.collector), IdColumn(users, net.artist)
    return (collector, artist, net.total_usd, net.sale_count)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

EDGES_HEADER = ("collector", "artist", "total_usd", "sale_count")

# ids that need JSON escaping or CSV quoting, beside plain ones
user_ids = st.text(
    alphabet=st.sampled_from(list('ab,"\\é中\x01\x1f\n\r ')), min_size=1, max_size=5
)
special_values = st.sampled_from([0.0, -0.0, 1.0, 0.5, 3.0, 1e-300, 5e-324, 2.5e-320, 1e6])
column_kinds = st.sampled_from(["zero", "constant", "few", "any"])


@st.composite
def tables(draw):
    users = draw(st.lists(user_ids, min_size=1, max_size=40, unique=True))
    n = len(users)
    values = np.zeros((n, len(METRIC_NAMES)))
    for j, name in enumerate(METRIC_NAMES):
        kind = draw(column_kinds)
        if name in cli.COUNT_COLUMNS:
            # sale counts
            pool = st.integers(0, 5) if kind == "few" else st.integers(0, 10**6)
            column = [float(v) for v in draw(st.lists(pool, min_size=n, max_size=n))]
        elif kind == "few":
            column = draw(st.lists(special_values, min_size=n, max_size=n))
        else:
            finite = st.floats(0.0, 1e6, allow_subnormal=True)
            column = draw(st.lists(st.one_of(special_values, finite), min_size=n, max_size=n))
        if kind == "zero":
            column = [0.0] * n
        elif kind == "constant":
            column = [column[0]] * n
        values[:, j] = column
    return MetricsTable(users=tuple(users), values=values)


def in_id_order(table: MetricsTable) -> MetricsTable:
    """The table with its rows in user-id order, as the pipeline builds and loads it."""
    order = id_order(table.users)
    return MetricsTable(users=tuple(table.users[i] for i in order), values=table.values[order])


def seeded_table(rows: int, seed: int = 0) -> MetricsTable:
    """A metrics table of ``rows`` users in id order, some ids needing CSV quoting,
    with tied and untied scores and integer sale counts."""
    rng = np.random.default_rng(seed)
    users = [f"u{i:06d}" if i % 5 else f'u{i:06d},"q"' for i in range(rows)]
    values = rng.random((rows, len(METRIC_NAMES)))
    values[:, :2] = np.round(values[:, :2], 1)  # authority ties
    for name in cli.COUNT_COLUMNS:
        values[:, METRIC_NAMES.index(name)] = rng.integers(0, 5, rows)
    return in_id_order(MetricsTable(users=tuple(users), values=values))


def seeded_network(edges: int):
    """The network of a log with ``edges`` distinct (collector, artist) pairs,
    some ids needing CSV quoting; every third pair has two sales, and prices
    mix plain decimals with exponent forms."""
    prices = ("1.50", "2", "0.000001", "1E+3", "12.5", "7.25E-9")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(("seller", "buyer", "creator", "price_usd", "timestamp"))
    for i in range(edges):
        artist = f"a{i % 7}"
        collector = f"c{i:06d}" if i % 4 else f"c{i:06d},q"
        sales = 2 if i % 3 == 0 else 1
        for k in range(sales):
            writer.writerow((artist, collector, artist, prices[(i + k) % 6], 1_600_000_000 + i))
    log, rejects = parse_events(text.getvalue().encode(), "csv")
    assert rejects == []
    return build_network(log)


class DiscardText:
    """A text stream that keeps nothing written to it."""

    def write(self, text: str) -> int:
        return len(text)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(tables(), st.sampled_from(cli.SORT_KEYS))
def test_rankings_csv_matches_row_reference(table, sort_by):
    table = in_id_order(table)
    trader = table.column("authority") * table.column("hub")
    columns = cli._rankings_columns(table, sort_by)
    expected = csv_text(cli.RANKINGS_HEADER, reference_rankings_rows(table, trader, sort_by))
    assert written_text(cli.RANKINGS_HEADER, columns) == expected


@settings(max_examples=100, deadline=None)
@given(tables())
def test_figure5_csv_matches_row_reference(table):
    table = in_id_order(table)
    header = ("user",) + cli.report.FIGURE_MEASURES
    expected = csv_text(header, reference_figure5_rows(table))
    assert written_text(header, figure5_columns(table)) == expected


CHUNK = 3  # rows per chunk in the chunk-boundary tests


def write_in_chunks(monkeypatch) -> None:
    """Make ``write_csv`` write ``CHUNK`` rows at a time, and check that it does:
    ``CHUNK + 1`` rows take one write for the header and one for each of two chunks."""
    monkeypatch.setattr(columns, "CSV_CHUNK_ROWS", CHUNK)
    stream = WriteLog()
    write_csv(stream, "ab", (np.arange(CHUNK + 1), np.arange(CHUNK + 1)))
    assert stream.writes == ["a,b\n", "0,0\n1,1\n2,2\n", "3,3\n"]


@pytest.mark.parametrize("rows", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1])
def test_chunked_rows_match_row_references_at_chunk_boundaries(monkeypatch, rows):
    write_in_chunks(monkeypatch)
    table = seeded_table(rows)
    trader = table.column("authority") * table.column("hub")
    for sort_by in cli.SORT_KEYS:
        expected = csv_text(cli.RANKINGS_HEADER, reference_rankings_rows(table, trader, sort_by))
        written = written_text(cli.RANKINGS_HEADER, cli._rankings_columns(table, sort_by))
        assert written == expected
    header = ("user",) + cli.report.FIGURE_MEASURES
    expected = csv_text(header, reference_figure5_rows(table))
    assert written_text(header, figure5_columns(table)) == expected
    net = seeded_network(rows)
    assert net.edge_count == rows
    expected = csv_text(EDGES_HEADER, reference_edges_rows(net))
    assert written_text(EDGES_HEADER, edges_columns(net)) == expected


def test_edges_csv_of_a_run_matches_row_reference(tmp_path):
    (tmp_path / "sales.csv").write_text(market_csv(5, 3000), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path / "sales.csv"), "--out", str(out)]) == 0
    with open(out / "events.csv", "rb") as handle:
        log, rejects = parse_events(handle, "csv")
    assert rejects == []
    net = build_network(log)
    expected = csv_text(EDGES_HEADER, reference_edges_rows(net))
    assert (out / "edges.csv").read_text(encoding="utf-8") == expected


# bytes per chunk row at the tracemalloc peak of writing each per-user or
# per-edge artifact of 6 chunks + 1 rows below, about 1.5 times the 1705, 367
# and 794 measured (Python 3.11, numpy 2.4); formatting every column's text
# before the first row measured 4681, 762 and 1921
_PEAK_BYTES_PER_CHUNK_ROW = {"rankings.csv": 2560, "edges.csv": 550, "figure5.csv": 1190}


def test_per_user_and_per_edge_rows_peak_memory():
    rows = 6 * columns.CSV_CHUNK_ROWS + 1
    table = seeded_table(rows)
    net = seeded_network(rows)
    artifacts = {
        "rankings.csv": (cli.RANKINGS_HEADER, lambda: cli._rankings_columns(table, "authority")),
        "edges.csv": (EDGES_HEADER, lambda: edges_columns(net)),
        "figure5.csv": (("user",) + report.FIGURE_MEASURES, lambda: figure5_columns(table)),
    }
    for header, make_columns in artifacts.values():
        # the first call also imports modules lazily; the second measures the writing alone
        write_csv(DiscardText(), header, make_columns())
    peaks = {}
    for name, (header, make_columns) in artifacts.items():
        tracemalloc.start()
        try:
            write_csv(DiscardText(), header, make_columns())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[name] = peak / columns.CSV_CHUNK_ROWS
    assert all(peaks[name] < bound for name, bound in _PEAK_BYTES_PER_CHUNK_ROW.items()), peaks


@settings(max_examples=100, deadline=None)
@given(
    tables(),
    st.sampled_from([profiling.TIE_RANK_MAX, profiling.TIE_RANK_MIN]),
    st.sampled_from([0.05, 0.5, 0.9, 0.95]),
)
def test_profiles_match_row_reference(table, tie_rank, threshold):
    table = in_id_order(table)
    profiles = profiling.build_profiles(table, threshold, tie_rank)
    reference = reference_profiles(table, threshold, tie_rank)

    assert "".join(cli._profile_lines(profiles)) == reference_profiles_jsonl(reference)

    assert len(profiles) == len(reference)
    assert profiles.users == tuple(p.user_id for p in reference)
    assert [profiling.ROLES[i] for i in profiles.role.tolist()] == [p.role for p in reference]
    assert profiles.artist_code.tolist() == [p.artist_code for p in reference]
    assert profiles.collector_code.tolist() == [p.collector_code for p in reference]
    assert list(map(tuple, profiles.normalized.tolist())) == [p.normalized for p in reference]
    assert profiles.trader_score.tolist() == [p.trader_score for p in reference]
    for pattern, which in (("****", "artist"), ("A***", "artist"), ("*B*C", "collector"),
                           ("C*******", "full")):
        assert match_code(profiles, pattern, which) == reference_matches(reference, pattern, which)


# sha256 of the matches.csv each query wrote when profiles were built and
# matched one row at a time. No user of this market is AC** (a high sale
# count comes with a high strength here), so AA** checks artist-code rows.
@pytest.mark.parametrize(
    "pattern,which,digest",
    [
        ("AC**", "artist", "520b11464d731ef15bc8cd6b2fe88804a0c0d33477d3cfe6ad05f764ee885874"),
        ("AA**", "artist", "10c75dbc26f556e855c6bdd765b70d472a8646e0ba31892f4c2e082fd54d10d9"),
        ("A***", "collector", "b698510552cc0beaee0f7c93bc3e453d43e9f8be25ab5e111de4501af1fa1bcc"),
        ("********", "full", "f6aae58a34c7eb6d93a702e6352b610326c1425d0cb2d50d2b7fbba78179ed24"),
    ],
)
def test_profile_match_writes_the_row_reference(tmp_path, pattern, which, digest):
    (tmp_path / "sales.csv").write_text(market_csv(5, 3000), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path / "sales.csv"), "--out", str(out)]) == 0
    query = ["--match", pattern, "--match-which", which]
    assert cli.main(["profile", str(out / "rankings.csv"), "--out", str(out), *query]) == 0
    reference = reference_profiles(
        cli.load_rankings_csv(out / "rankings.csv"), 0.95, profiling.TIE_RANK_MAX
    )
    matched = set(reference_matches(reference, pattern, which))
    rows = [
        [p.user_id, p.role.value, p.artist_code, p.collector_code]
        for p in reference
        if p.user_id in matched
    ]
    assert bool(rows) == (pattern != "AC**")
    written = (out / "matches.csv").read_bytes()
    assert written.decode() == csv_text(("user", "role", "artist_code", "collector_code"), rows)
    assert hashlib.sha256(written).hexdigest() == digest


# ---------------------------------------------------------------------------
# The small CSVs against the row formulas they were written with
# ---------------------------------------------------------------------------

SMALL_CSV_HEADERS = {
    "lorenz_sellers.csv": ("pop_share", "vol_share"),
    "lorenz_buyers.csv": ("pop_share", "vol_share"),
    "hist_sales.csv": ("bin_low", "bin_high", "count"),
    "hist_purchases.csv": ("bin_low", "bin_high", "count"),
    "figure5.csv": ("user",) + report.FIGURE_MEASURES,
    "correlation.csv": ("metric",) + econometrics.CORRELATION_LABELS,
    "matches.csv": ("user", "role", "artist_code", "collector_code"),
}


def old_small_csv_rows(out: Path) -> dict[str, list[list[str]]]:
    """The rows of each small CSV in ``out``, from that directory's events and
    rankings, as the old row formulas wrote them: ``repr`` of each Lorenz
    point's floats, ``str`` of each numpy float of the histograms and the
    Kendall matrix, ``str(int(n))`` of each bin count."""
    with open(out / "events.csv", "rb") as handle:
        log, _ = parse_events(handle, "csv")
    table = cli.load_rankings_csv(out / "rankings.csv")
    rows = {"figure5.csv": reference_figure5_rows(table)}
    for stem, side, users in (
        ("lorenz_sellers", "seller", log.seller),
        ("lorenz_buyers", "buyer", log.buyer),
    ):
        if log.accepted_count:
            curve = econometrics.lorenz(cli._float_volumes(log, users, side)[0])
            rows[f"{stem}.csv"] = [list(map(repr, point)) for point in curve.points.tolist()]
    for name, dimension in (
        ("hist_sales.csv", report.DIMENSION_SALES),
        ("hist_purchases.csv", report.DIMENSION_PURCHASES),
    ):
        edges, counts = report.histogram_data(table, dimension)
        bins = zip(edges, edges[1:], counts)
        rows[name] = [[str(lo), str(hi), str(int(n))] for lo, hi, n in bins]
    if log.accepted_count:
        matrix = econometrics.correlation_matrix(table)
        rows["correlation.csv"] = [
            [label] + [str(v) for v in row] for label, row in zip(matrix.labels, matrix.values)
        ]
    return rows


def sellers_csv(sellers: int) -> str:
    """A log where seller ``i`` of ``sellers`` sells its own work to buyers 0 to ``i``;
    with no sellers, one self-sale, which the validator rejects."""
    lines = ["seller,buyer,creator,price_usd,timestamp"]
    lines += [f"s{i},b{j},s{i},{i + j}.5,{100 + i}" for i in range(sellers) for j in range(i + 1)]
    if not sellers:
        lines.append("a,a,a,1,100")
    return "\n".join(lines) + "\n"


# 0 sellers: empty histograms and figure5.csv, and no Lorenz curve (no volume);
# 1: one-bin histograms; 2, 3 and 9 sellers: Lorenz curves of CHUNK, CHUNK + 1
# and 3 * CHUNK + 1 rows
@pytest.mark.parametrize("sellers", [0, 1, 2, 3, 9])
def test_lorenz_hist_correlation_and_figure5_csvs_match_old_rows(monkeypatch, tmp_path, sellers):
    write_in_chunks(monkeypatch)
    sales = tmp_path / "sales.csv"
    sales.write_text(sellers_csv(sellers), encoding="utf-8")
    out = tmp_path / "out"
    if sellers:
        assert cli.main(["run", str(sales), "--out", str(out)]) == 0
    else:
        events, rankings = str(out / "events.csv"), str(out / "rankings.csv")
        # ingest refuses a log that accepts no record: write its header-only events.csv here
        out.mkdir()
        with open(events, "w", encoding="utf-8", newline="") as handle:
            ingest.write_events_csv(parse_events(sales.read_bytes(), "csv")[0], handle)
        assert cli.main(["rank", events, "--out", str(out)]) == 0
        assert cli.main(["report", events, rankings, "--out", str(out)]) == 0
    expected = old_small_csv_rows(out)
    written = {path.name for path in out.glob("*.csv")}
    assert written - {"events.csv", "rankings.csv", "edges.csv"} == set(expected)
    for name, rows in expected.items():
        written = (out / name).read_bytes().decode()
        assert written == csv_text(SMALL_CSV_HEADERS[name], rows), name
    if sellers:
        assert len(expected["lorenz_sellers.csv"]) == sellers + 1
        assert len(expected["hist_sales.csv"]) == (1 if sellers == 1 else 20)
    else:
        assert expected["hist_sales.csv"] == expected["figure5.csv"] == []


# (table rows, full-code pattern, matches): no match, then 1, CHUNK, CHUNK + 1
# and 3 * CHUNK + 1 matches; a one-user table has all-A codes, and the Kendall
# matrix needs two users
@pytest.mark.parametrize(
    "rows,pattern,matches",
    [
        (1, "C*******", 0),
        (1, "********", 1),
        (CHUNK, "********", CHUNK),
        (CHUNK + 1, "********", CHUNK + 1),
        (3 * CHUNK + 1, "********", 3 * CHUNK + 1),
    ],
)
def test_matches_and_correlation_csvs_match_old_rows(monkeypatch, tmp_path, rows, pattern, matches):
    write_in_chunks(monkeypatch)
    table = seeded_table(rows)
    values = table.values.copy()
    values[:, METRIC_NAMES.index("w_hub")] = 0.0  # a constant column: NaN correlations
    table = MetricsTable(users=table.users, values=values)
    trader = table.column("authority") * table.column("hub")
    rankings = tmp_path / "rankings.csv"
    rankings.write_text(
        csv_text(cli.RANKINGS_HEADER, reference_rankings_rows(table, trader, "user")),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    query = ["--match", pattern, "--match-which", "full"]
    assert cli.main(["profile", str(rankings), "--out", str(out), *query]) == 0
    loaded = cli.load_rankings_csv(rankings)
    profiles = profiling.build_profiles(loaded)
    matched = [
        [
            profiles.users[i],
            profiling.ROLES[profiles.role[i]].value,
            profiles.artist_code[i],
            profiles.collector_code[i],
        ]
        for i in profiling.matching_rows(profiles, pattern, "full")
    ]
    assert len(matched) == matches
    written = (out / "matches.csv").read_bytes().decode()
    assert written == csv_text(SMALL_CSV_HEADERS["matches.csv"], matched)
    if rows > 1:
        assert cli.main(["correlate", str(rankings), "--out", str(out)]) == 0
        matrix = econometrics.correlation_matrix(loaded)
        assert np.isnan(matrix.values).any()
        correlation = [
            [label] + [str(v) for v in row] for label, row in zip(matrix.labels, matrix.values)
        ]
        written = (out / "correlation.csv").read_bytes().decode()
        assert written == csv_text(SMALL_CSV_HEADERS["correlation.csv"], correlation)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(allow_infinity=False), st.just(math.nan)))
def test_numpy_float_str_is_the_float_repr(x):
    # what lets the histogram and Kendall cells, once str of numpy floats, be repr
    assert str(np.float64(x)) == repr(float(x))


def test_numpy_float_str_is_the_float_repr_over_log_spaced_edges():
    edges = np.concatenate([np.logspace(-320, 308, 20_001), np.logspace(0, 6, 20_001)])
    assert list(map(str, edges)) == list(map(repr, edges.tolist()))
