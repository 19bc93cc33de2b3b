"""Summary statistics, volume tallies, histograms, and figure tables."""

from decimal import Decimal

import numpy as np
import pytest

from artrank import (
    DIMENSION_PURCHASES,
    DIMENSION_SALES,
    METRIC_NAMES,
    MetricsTable,
    build_network,
    figure5_data,
    histogram_data,
    kendall_tau,
    summarize,
    volume_by_buyer,
    volume_by_seller,
)
from helpers import ev, log_of


def table_with(**columns) -> MetricsTable:
    n = len(next(iter(columns.values())))
    values = np.zeros((n, len(METRIC_NAMES)))
    for name, col in columns.items():
        values[:, METRIC_NAMES.index(name)] = col
    return MetricsTable(users=tuple(f"u{i}" for i in range(n)), values=values)


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


def test_summarize_empty_log():
    log = log_of()
    summary = summarize(log, build_network(log))
    assert summary.sold_count == 0
    assert summary.active_users == 0
    assert summary.sale_volume_usd == 0
    assert summary.creators == summary.sellers == summary.buyers == 0
    assert summary.creators_fraction == 0.0


def test_summarize_single_primary_sale():
    log = log_of(ev("s", "b", "s", usd=100, eth="0.05", artwork="art1"))
    summary = summarize(log, build_network(log))
    assert summary.active_users == 2
    assert summary.creators == 1
    assert summary.sellers == 1
    assert summary.buyers == 1
    assert summary.sold_count == 1
    assert summary.sale_volume_usd == Decimal(100)
    assert summary.sale_volume_eth == Decimal("0.05")
    assert summary.tokenized_count == 1
    assert summary.to_dict()["tokenized_artworks"] == {"count": 1, "lower_bound": True}
    assert summary.creators_fraction == 0.5


def test_summarize_fractions_and_text():
    log = log_of(
        ev("a", "b", "a", usd=10, ts=0),
        ev("a", "c", "a", usd=20, ts=1),
        ev("b", "c", "a", usd=5, ts=2),
    )
    summary = summarize(log, build_network(log))
    assert summary.active_users == 3
    assert summary.sellers == 2
    assert summary.buyers == 2
    assert summary.sellers_fraction == pytest.approx(2 / 3)
    text = summary.to_text()
    assert "Active users: 3" in text
    assert "(67%)" in text  # 2/3 rendered as an integer percent
    payload = summary.to_dict()
    assert payload["sellers"] == {"count": 2, "fraction": 2 / 3}


def test_summarize_is_order_insensitive():
    events = [
        ev("a", "b", "a", usd=10, ts=0),
        ev("c", "d", "c", usd=20, ts=1),
        ev("a", "d", "a", usd=30, ts=2),
    ]
    forward = log_of(*events)
    backward = log_of(*reversed(events))
    assert summarize(forward, build_network(forward)) == summarize(
        backward, build_network(backward)
    )


def test_summarize_requires_converted_log():
    log = log_of(ev("a", "b", "a", eth=1))
    with pytest.raises(ValueError, match="convert_currency"):
        summarize(log, build_network(log_of()))


def test_volume_tallies_follow_transacting_parties():
    log = log_of(
        ev("a", "b", "a", usd=100, ts=0),
        ev("b", "c", "a", usd=40, ts=1),  # resale: b is the earning seller
    )
    assert volume_by_seller(log) == {"a": Decimal(100), "b": Decimal(40)}
    assert volume_by_buyer(log) == {"b": Decimal(100), "c": Decimal(40)}


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


def test_histogram_single_value_single_bin():
    table = table_with(in_degree=np.ones(17))
    edges, counts = histogram_data(table, DIMENSION_SALES)
    assert counts.tolist() == [17]
    assert edges.tolist() == [1.0, 1.0]


def test_histogram_counts_cover_support():
    rng = np.random.default_rng(3)
    sales = np.concatenate([np.zeros(40), rng.integers(1, 500, 160).astype(float)])
    table = table_with(in_degree=sales)
    edges, counts = histogram_data(table, DIMENSION_SALES, bins=15)
    assert counts.sum() == 160  # zero-count users are outside the support
    assert len(edges) == len(counts) + 1
    assert edges[0] == sales[sales > 0].min()
    assert edges[-1] == sales.max()


def test_histogram_empty_dimension():
    table = table_with(out_degree=np.zeros(5))
    edges, counts = histogram_data(table, DIMENSION_PURCHASES)
    assert edges.size == 0 and counts.size == 0


def test_histogram_rejects_unknown_dimension():
    table = table_with(in_degree=np.ones(3))
    with pytest.raises(ValueError, match="dimension"):
        histogram_data(table, "mints")


def test_histogram_long_tail_decreasing_beyond_mode():
    # Pareto counts: past the modal bin, occupancy trends down; log bins on
    # integer data are locally jagged, so assert a strong decreasing rank
    # trend per seeded histogram rather than strict per-bin monotonicity
    good_seeds = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sales = np.floor(rng.pareto(1.16, 20_000) + 1.0)
        table = table_with(in_degree=sales)
        _, counts = histogram_data(table, DIMENSION_SALES, bins=20)
        mode = int(np.argmax(counts))
        tail = counts[mode:].astype(float)
        trend = kendall_tau(np.arange(tail.size, dtype=float), tail)
        if trend <= -0.8:
            good_seeds += 1
    assert good_seeds >= 9


# ---------------------------------------------------------------------------
# Per-user figure table
# ---------------------------------------------------------------------------


def test_figure5_single_user_row():
    table = table_with(
        in_degree=np.array([4.0]),
        authority=np.array([0.9]),
        hub=np.array([0.1]),
        out_degree=np.array([0.0]),
    )
    rows = figure5_data(table)
    assert len(rows) == 1
    user, values = rows[0]
    assert user == "u0"
    assert max(values) == 1.0
    assert all(0.0 <= v <= 1.0 for v in values)


def test_figure5_planted_seller_and_buyer_shapes():
    rng = np.random.default_rng(9)
    n = 50
    columns = {name: rng.random(n) * 0.2 + 0.1 for name in METRIC_NAMES}
    # u0: pure seller (high sale-side, ~zero buy-side)
    for name in ("in_degree", "authority"):
        columns[name][0] = 50.0
    for name in ("hub", "out_degree"):
        columns[name][0] = 0.0
    # u1: pure buyer, mirrored
    for name in ("hub", "out_degree"):
        columns[name][1] = 50.0
    for name in ("in_degree", "authority"):
        columns[name][1] = 0.0
    rows = figure5_data(table_with(**columns))
    _, seller_values = rows[0]
    _, buyer_values = rows[1]
    # row order is (in_degree, authority, hub, out_degree)
    assert seller_values[0] == 1.0 and seller_values[1] == 1.0
    assert seller_values[2] == 0.0 and seller_values[3] == 0.0
    assert buyer_values == tuple(reversed(seller_values))
