"""The columnar per-user writers against row-by-row references.

Each reference below builds one Python object per user, the way the
pipeline did before its per-user layer became columnar: a level string per
percentile, a ``UserProfile`` per user, a dict and a ``json.dumps`` call
per ``profiles.jsonl`` line, a list of ``str`` cells per CSV row. The
columnar code must write the same text for any metrics table.
"""

import csv
import io
import json
import math
from itertools import chain

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import METRIC_NAMES, MetricsTable, Role, UserProfile, cli, match_code, profiling
from artrank.ingest import id_order, write_csv_rows

# ---------------------------------------------------------------------------
# Row-by-row references
# ---------------------------------------------------------------------------


def reference_level(percentile: float) -> str:
    if percentile > 0.9:
        return "A"
    if percentile > 0.5:
        return "B"
    return "C"


def reference_profiles(table, threshold, tie_rank) -> list[UserProfile]:
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
        UserProfile(
            user_id=user,
            role=roles[i],
            artist_code=artist[i],
            collector_code=collector[i],
            normalized=tuple(float(x) for x in normalized[i]),
            trader_score=float(trader[i]),
        )
        for i, user in enumerate(table.users)
    ]


def reference_profiles_jsonl(profiles: list[UserProfile]) -> str:
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
    assert [profiles[i] for i in range(len(profiles))] == reference
    assert profiles[-1] == reference[-1]
    assert list(profiles[1:3]) == reference[1:3]
    assert list(profiles) == reference
    assert list(profiles) == reference  # a second pass reads the same rows
    for pattern, which in (("****", "artist"), ("A***", "artist"), ("*B*C", "collector"),
                           ("C*******", "full")):
        assert match_code(profiles, pattern, which) == match_code(reference, pattern, which)
