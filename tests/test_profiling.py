"""Percentile levels, A/B/C codes, role quadrants, and pattern queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import (
    ARTIST_CODE_METRICS,
    COLLECTOR_CODE_METRICS,
    METRIC_NAMES,
    MetricsTable,
    Role,
    Weighting,
    adjacency,
    build_metrics_table,
    build_network,
    build_profiles,
    classify_role,
    degree_metrics,
    hits,
    match_code,
    normalize_metrics,
    percentile_levels,
    percentiles,
    role_codes,
)
from helpers import ev, log_of


def table_with(**columns) -> MetricsTable:
    n = len(next(iter(columns.values())))
    values = np.zeros((n, len(METRIC_NAMES)))
    for name, col in columns.items():
        values[:, METRIC_NAMES.index(name)] = col
    return MetricsTable(users=tuple(f"u{i}" for i in range(n)), values=values)


# ---------------------------------------------------------------------------
# Percentiles and levels
# ---------------------------------------------------------------------------


def test_levels_for_distinct_scores():
    scores = list(range(1, 11))  # percentiles 0.1 .. 1.0
    assert percentile_levels(scores) == list("CCCCC" "BBBB" "A")


def test_levels_all_equal_scores_take_max_rank():
    assert percentile_levels([7, 7, 7]) == ["A", "A", "A"]


def test_level_single_user():
    assert percentile_levels([0.0]) == ["A"]


def test_ties_min_convention_keeps_zeros_low():
    scores = [0, 0, 0, 5]
    assert percentile_levels(scores, tie_rank="max") == ["B", "B", "B", "A"]
    assert percentile_levels(scores, tie_rank="min") == ["C", "C", "C", "A"]
    with pytest.raises(ValueError, match="tie_rank"):
        percentiles(scores, tie_rank="median")


def test_level_monotone_in_score():
    rng = np.random.default_rng(11)
    scores = rng.integers(0, 6, 40).astype(float)
    levels = percentile_levels(scores)
    rank = {"C": 0, "B": 1, "A": 2}
    for i in range(len(scores)):
        for j in range(len(scores)):
            if scores[i] > scores[j]:
                assert rank[levels[i]] >= rank[levels[j]]


# ---------------------------------------------------------------------------
# Codes
# ---------------------------------------------------------------------------


def make_rank_table(artist_ranks: dict[str, np.ndarray], n: int) -> MetricsTable:
    """Table whose artist-metric columns carry prescribed rank orders."""
    columns = {}
    for name in METRIC_NAMES:
        columns[name] = artist_ranks.get(name, np.arange(n, dtype=float))
    return table_with(**columns)


def test_role_codes_orders_and_examples():
    n = 20
    top = np.arange(n, dtype=float)  # user 19 is top everywhere
    table = make_rank_table({}, n)
    artist, collector = role_codes(table)
    assert artist[-1] == "AAAA"  # top decile in all four artist metrics
    assert artist[0] == "CCCC"  # below median everywhere
    assert len(artist) == len(collector) == n
    assert artist == [  # sanity: ranks 1..20 -> 10 C, 8 B, 2 A per column
        "".join(levels)
        for levels in zip(*[percentile_levels(top)] * 4)
    ]


def test_artist_code_metric_order_is_degree_strength_auth_wauth():
    # craft one user high only in in_degree: code must start with A
    n = 10
    columns = {
        name: np.arange(n, dtype=float)[::-1].copy() for name in METRIC_NAMES
    }  # user 9 lowest everywhere ...
    columns["in_degree"] = np.array([9, 8, 7, 6, 5, 4, 3, 2, 1, 100], dtype=float)
    table = table_with(**columns)  # ... except in in_degree, where it is top
    artist, _ = role_codes(table)
    assert artist[9] == "ACCC"
    profiles = build_profiles(table)
    assert match_code(profiles, "AC**", which="artist") == ["u9"]


def test_role_codes_empty_table_rejected():
    empty = MetricsTable(users=(), values=np.zeros((0, 8)))
    with pytest.raises(ValueError, match="empty"):
        role_codes(empty)


def test_code_metric_tuples():
    assert ARTIST_CODE_METRICS == ("in_degree", "in_strength", "authority", "w_authority")
    assert COLLECTOR_CODE_METRICS == ("out_degree", "out_strength", "hub", "w_hub")


# ---------------------------------------------------------------------------
# Role quadrants
# ---------------------------------------------------------------------------


def test_zero_zero_user_is_by_stander():
    sell = np.array([0.0, 3, 4, 5, 6])
    buy = np.array([0.0, 6, 5, 4, 3])
    table = table_with(in_degree=sell, out_degree=buy)
    assert classify_role(table)[0] is Role.BY_STANDER


def test_all_zero_dimensions_yield_by_standers():
    table = table_with(in_degree=np.zeros(10), out_degree=np.zeros(10))
    assert set(classify_role(table)) == {Role.BY_STANDER}


def test_quadrants_with_planted_users():
    n = 100
    sell = np.arange(n, dtype=float)
    buy = np.arange(n, dtype=float)[::-1].copy()
    # plant: u99 high on both, u98 high sell only (buy rank low already)
    buy[99] = 200.0
    table = table_with(in_degree=sell, out_degree=buy)
    roles = classify_role(table, percentile_threshold=0.95)
    assert roles[99] is Role.TRADER
    assert roles[98] is Role.PURE_SELLER  # sell rank 99, buy rank tiny
    assert roles[0] is Role.PURE_BUYER  # buy 99 originally highest region
    assert roles[50] is Role.BY_STANDER
    # exactly 5 users clear each 95th-percentile line
    assert sum(r in (Role.TRADER, Role.PURE_SELLER) for r in roles) == 5
    assert sum(r in (Role.TRADER, Role.PURE_BUYER) for r in roles) == 5


def test_classify_role_partition():
    rng = np.random.default_rng(13)
    table = table_with(
        in_degree=rng.integers(0, 30, 60).astype(float),
        out_degree=rng.integers(0, 30, 60).astype(float),
    )
    roles = classify_role(table)
    assert len(roles) == 60  # every user got exactly one label
    assert all(isinstance(r, Role) for r in roles)


def test_classify_role_threshold_validated():
    table = table_with(in_degree=np.arange(4, dtype=float))
    with pytest.raises(ValueError, match="percentile_threshold"):
        classify_role(table, percentile_threshold=1.0)


# ---------------------------------------------------------------------------
# Pattern queries
# ---------------------------------------------------------------------------


def test_match_code_universal_wildcard_and_full():
    table = make_rank_table({}, 10)  # ranks 1..10: only rank 10 clears 0.9
    profiles = build_profiles(table)
    assert match_code(profiles, "****", which="artist") == list(profiles.users)
    assert match_code(profiles, "********", which="full") == list(profiles.users)
    assert match_code(profiles, "AAAA", which="collector") == ["u9"]


@pytest.mark.parametrize(
    "pattern,which",
    [("AAA", "artist"), ("AAAAA", "artist"), ("AXAA", "artist"), ("AAAA", "full"), ("AAAA", "role")],
)
def test_match_code_malformed_patterns(pattern, which):
    table = make_rank_table({}, 4)
    profiles = build_profiles(table)
    with pytest.raises(ValueError):
        match_code(profiles, pattern, which=which)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_direct_division():
    table = table_with(authority=np.array([2.0, 4.0, 8.0]))
    normalized = normalize_metrics(table)
    np.testing.assert_allclose(
        normalized[:, METRIC_NAMES.index("authority")], [0.25, 0.5, 1.0]
    )


def test_normalize_zero_column_stays_zero():
    table = table_with(hub=np.zeros(5))
    normalized = normalize_metrics(table)
    np.testing.assert_array_equal(normalized[:, METRIC_NAMES.index("hub")], np.zeros(5))


def test_normalize_idempotent_and_order_preserving():
    rng = np.random.default_rng(19)
    table = table_with(**{name: rng.pareto(1.5, 25) for name in METRIC_NAMES})
    once = normalize_metrics(table)
    twice = normalize_metrics(MetricsTable(users=table.users, values=once))
    np.testing.assert_array_equal(once, twice)
    for j in range(once.shape[1]):
        order_before = np.argsort(table.values[:, j], kind="stable")
        order_after = np.argsort(once[:, j], kind="stable")
        np.testing.assert_array_equal(order_before, order_after)
    assert np.all(once.max(axis=0) == 1.0)


def test_shape_vectors_flag_archetypes():
    # near-max on all four artist metrics looks blue-chip; low counts with
    # high authority looks like a rising star
    blue = (0.99, 0.98, 0.95, 0.96)
    rising = (0.08, 0.04, 0.91, 0.60)
    n = 30
    rng = np.random.default_rng(23)
    columns = {name: rng.random(n) * 0.5 for name in METRIC_NAMES}
    for vec, row in ((blue, 0), (rising, 1)):
        for value, name in zip(vec, ("in_degree", "in_strength", "authority", "w_authority")):
            columns[name][row] = value
    columns["in_degree"][2] = 1.0  # ensure maxima away from the planted rows
    columns["in_strength"][2] = 1.0
    columns["authority"][3] = 1.0
    columns["w_authority"][3] = 1.0
    table = table_with(**columns)
    profiles = build_profiles(table)
    assert profiles.artist_code[0] == "AAAA"
    assert profiles.artist_code[1][0] == "C"  # low in-degree
    assert profiles.artist_code[1][2] == "A"  # high unweighted authority


# ---------------------------------------------------------------------------
# Stability and wiring
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_codes_and_roles_stable_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    n = 30
    columns = {name: rng.integers(0, 9, n).astype(float) for name in METRIC_NAMES}
    base = table_with(**columns)
    transformed = table_with(
        **{name: 3.0 * col + 1.0 for name, col in columns.items()}
    )
    assert role_codes(base) == role_codes(transformed)
    assert classify_role(base) == classify_role(transformed)


def test_build_metrics_table_wires_columns():
    log = log_of(
        ev("a1", "c1", "a1", usd=100, ts=0),
        ev("a1", "c2", "a1", usd=50, ts=1),
        ev("a2", "c1", "a2", usd=30, ts=2),
    )
    net = build_network(log)
    degrees = degree_metrics(net)
    unweighted = hits(adjacency(net, Weighting.UNWEIGHTED_BINARY))
    weighted = hits(adjacency(net, Weighting.WEIGHTED_USD))
    table = build_metrics_table(net, degrees, unweighted, weighted)
    assert table.users == net.users
    i = net.users.index("a1")
    assert table.column("in_degree")[i] == 2.0
    assert table.column("in_strength")[i] == 150.0
    np.testing.assert_array_equal(table.column("authority"), unweighted.authority)
    np.testing.assert_array_equal(table.column("w_hub"), weighted.hub)
    profiles = build_profiles(table)
    trader = unweighted.authority * unweighted.hub
    for score, expected in zip(profiles.trader_score.tolist(), trader):
        assert score == pytest.approx(float(expected))
