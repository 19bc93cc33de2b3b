"""The columnar per-user writers against row-by-row references.

Each reference below builds one Python object per user, the way the
pipeline did before its per-user layer became columnar: a level string per
percentile, a ``ReferenceProfile`` tuple per user, a dict and a
``json.dumps`` call per ``profiles.jsonl`` line, a list of ``str`` cells
per CSV row, and a pattern matched one user at a time. The columnar code
must write the same text for any metrics table.
"""

import csv
import hashlib
import io
import json
import math
from itertools import chain
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import METRIC_NAMES, MetricsTable, Role, cli, match_code, profiling
from artrank.ingest import id_order, write_csv_rows
from helpers import market_csv

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
    maxima = table.values.max(axis=0)
    normalized = table.values / np.where(maxima > 0, maxima, 1.0)
    idx = [METRIC_NAMES.index(m) for m in ("in_degree", "authority", "hub", "out_degree")]
    rows = [(user, tuple(row)) for user, row in zip(table.users, normalized[:, idx].tolist())]
    return [[user] + [str(v) for v in values] for user, values in sorted(rows)]


def csv_text(header, rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(chain([header], rows))
    return out.getvalue()


def written_text(header, rows) -> str:
    out = io.StringIO()
    write_csv_rows(out, chain([header], rows))
    return out.getvalue()


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(tables(), st.sampled_from(cli.SORT_KEYS))
def test_rankings_csv_matches_row_reference(table, sort_by):
    table = in_id_order(table)
    trader = table.column("authority") * table.column("hub")
    rows = cli._rankings_rows(table, trader, sort_by)
    expected = csv_text(cli.RANKINGS_HEADER, reference_rankings_rows(table, trader, sort_by))
    assert written_text(cli.RANKINGS_HEADER, rows) == expected


@settings(max_examples=100, deadline=None)
@given(tables())
def test_figure5_csv_matches_row_reference(table):
    table = in_id_order(table)
    header = ("user",) + cli.report.FIGURE_MEASURES
    expected = csv_text(header, reference_figure5_rows(table))
    assert written_text(header, cli._figure5_rows(table)) == expected


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
