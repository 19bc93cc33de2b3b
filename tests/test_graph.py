"""Network construction, role flags, and adjacency views."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import (
    CSRMatrix,
    RoleFlags,
    Weighting,
    active_users,
    adjacency,
    build_network,
)
from helpers import edge_totals, ev, log_of


def test_active_users_empty_log():
    assert active_users(log_of()) == {}


def test_active_users_primary_sale():
    log = log_of(ev("s", "b", "s", usd=10))
    assert active_users(log) == {
        "s": RoleFlags(minted=True, sold=True, bought=False),
        "b": RoleFlags(minted=False, sold=False, bought=True),
    }


def test_active_users_secondary_sale():
    # hand enumeration: seller sold, buyer bought, creator minted only
    log = log_of(ev("s", "b", "c", usd=10))
    assert active_users(log) == {
        "s": RoleFlags(minted=False, sold=True, bought=False),
        "b": RoleFlags(minted=False, sold=False, bought=True),
        "c": RoleFlags(minted=True, sold=False, bought=False),
    }


def test_repeat_purchases_aggregate_one_edge():
    log = log_of(ev("a", "b", "a", usd=100, ts=0), ev("a", "b", "a", usd=50, ts=1))
    net = build_network(log)
    assert edge_totals(net) == {("b", "a"): (Decimal(150), 2)}


def test_secondary_sale_links_buyer_to_creator():
    net = build_network(log_of(ev("s", "b", "a", usd=75)))
    assert set(edge_totals(net)) == {("b", "a")}
    # the transacting seller got no endorsement edge
    assert all(pair[1] != "s" for pair in edge_totals(net))


def test_buyback_dropped_with_audit():
    # collector a repurchases their own creation from s: would self-loop
    log = log_of(ev("s", "a", "a", usd=40, ts=0), ev("a", "b", "a", usd=10, ts=1))
    net = build_network(log)
    assert net.dropped_buybacks == 1
    assert net.dropped_usd == Decimal(40)
    assert edge_totals(net) == {("b", "a"): (Decimal(10), 1)}
    view = adjacency(net, Weighting.WEIGHTED_USD)
    assert not view.matrix.toarray().diagonal().any()


def test_volume_and_count_conservation():
    log = log_of(
        ev("a", "b", "a", usd=100, ts=0),
        ev("a", "c", "a", usd=50, ts=1),
        ev("c", "a", "a", usd=30, ts=2),  # buy-back, dropped
        ev("b", "c", "a", usd=20, ts=3),
    )
    net = build_network(log)
    event_usd = sum(log.price_usd.tolist())
    assert net.total_volume_usd == event_usd - net.dropped_usd
    assert net.total_sale_count + net.dropped_buybacks == log.accepted_count


def test_isolated_minted_only_user_is_a_node():
    net = build_network(log_of(ev("s", "b", "c", usd=10)))
    assert "c" in net.users
    view = adjacency(net, Weighting.WEIGHTED_USD)
    i = net.users.index("c")
    assert view.matrix.toarray()[i].sum() == 0  # no outgoing weight


def test_unconverted_events_rejected():
    log = log_of(ev("a", "b", "a", eth=1))
    with pytest.raises(ValueError, match="convert_currency"):
        build_network(log)


def test_adjacency_views():
    log = log_of(
        ev("a1", "c1", "a1", usd=100, ts=0),
        ev("a1", "c1", "a1", usd=50, ts=1),
        ev("a2", "c2", "a2", usd=7, ts=2),
    )
    net = build_network(log)
    weighted = adjacency(net, Weighting.WEIGHTED_USD).matrix.toarray()
    binary = adjacency(net, Weighting.UNWEIGHTED_BINARY).matrix.toarray()
    multi = adjacency(net, Weighting.UNWEIGHTED_MULTIPLICITY).matrix.toarray()
    c1, a1 = net.users.index("c1"), net.users.index("a1")
    c2, a2 = net.users.index("c2"), net.users.index("a2")
    assert weighted[c1, a1] == 150.0 and weighted[c2, a2] == 7.0
    assert binary[c1, a1] == 1.0 and binary[c2, a2] == 1.0
    assert multi[c1, a1] == 2.0 and multi[c2, a2] == 1.0
    assert adjacency(net, Weighting.WEIGHTED_USD).matrix.nnz == 2


def test_adjacency_matches_dense_hand_matrix():
    # 3 nodes, 2 edges: b->a (150 over 2 sales), c->a (20)
    log = log_of(
        ev("a", "b", "a", usd=100, ts=0),
        ev("a", "b", "a", usd=50, ts=1),
        ev("a", "c", "a", usd=20, ts=2),
    )
    net = build_network(log)
    dense = np.zeros((3, 3))
    dense[net.users.index("b"), net.users.index("a")] = 150.0
    dense[net.users.index("c"), net.users.index("a")] = 20.0
    view = adjacency(net, Weighting.WEIGHTED_USD)
    np.testing.assert_array_equal(view.matrix.toarray(), dense)


def test_adjacency_rejects_edge_total_beyond_float_range():
    # each price is a finite float; their exact sum is not
    log = log_of(
        ev("a1", "c1", "a1", usd="1E+308", ts=0),
        ev("a1", "c1", "a1", usd="1E+308", ts=1),
        ev("a2", "c2", "a2", usd=7, ts=2),
    )
    net = build_network(log)
    with pytest.raises(ValueError, match="'c1' -> 'a1'"):
        adjacency(net, Weighting.WEIGHTED_USD)
    assert adjacency(net, Weighting.UNWEIGHTED_BINARY).matrix.nnz == 2


def test_adjacency_overflow_message_writes_the_total_in_six_digits():
    log = log_of(
        ev("a1", "c1", "a1", usd="1.23456789E+308", ts=0),
        ev("a1", "c1", "a1", usd="1E+308", ts=1),
    )
    with pytest.raises(ValueError) as excinfo:
        adjacency(build_network(log), Weighting.WEIGHTED_USD)
    assert str(excinfo.value) == (
        "edge 'c1' -> 'a1' totals 2.234568E+308 USD, beyond the float range"
    )


def test_empty_network_adjacency_is_all_zero():
    net = build_network(log_of())
    view = adjacency(net, Weighting.WEIGHTED_USD)
    assert view.matrix.shape == (0, 0)
    assert view.matrix.nnz == 0


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(5)))
def test_build_network_order_insensitive(order):
    events = [
        ev("a", "b", "a", usd=100, ts=0),
        ev("a", "c", "a", usd=50, ts=1),
        ev("b", "c", "a", usd=25, ts=2),
        ev("x", "y", "x", usd=5, ts=3),
        ev("x", "b", "x", usd=8, ts=4),
    ]
    base = build_network(log_of(*events))
    # permute arrival order; parsing re-sorts, so permute timestamps too
    shuffled = [
        ev(seller, buyer, creator, usd=usd, ts=i)
        for i, (seller, buyer, creator, _, usd, _, _) in enumerate(events[k] for k in order)
    ]
    permuted = build_network(log_of(*shuffled))
    assert edge_totals(permuted) == edge_totals(base)
    assert active_users(log_of(*shuffled)) == active_users(log_of(*events))
    assert set(permuted.users) == set(base.users)


def test_csr_matrix_basics():
    matrix = CSRMatrix(
        (3, 4), np.array([0, 2, 2, 3]), np.array([1, 3, 0]), np.array([5.0, 0.0, 2.0])
    )
    assert matrix.nnz == 3  # the stored zero counts
    assert matrix.tocsr() is matrix
    np.testing.assert_array_equal(
        matrix.toarray(), [[0.0, 5.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]
    )


def test_adjacency_is_csr_of_sorted_edges():
    log = log_of(
        ev("a", "c", "a", usd=5, ts=0),
        ev("b", "c", "b", usd=7, ts=1),
        ev("a", "d", "a", usd=1, ts=2),
    )
    net = build_network(log)
    matrix = adjacency(net, Weighting.WEIGHTED_USD).matrix
    n = net.node_count
    assert matrix.shape == (n, n)
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    np.testing.assert_array_equal(rows, net.collector)
    np.testing.assert_array_equal(matrix.indices, net.artist)
    np.testing.assert_array_equal(matrix.data, [float(t) for t in net.total_usd])


def test_csr_matrix_from_rows_requires_row_order():
    built = CSRMatrix.from_rows((3, 2), np.array([0, 2, 2]), np.array([1, 0, 1]), np.ones(3))
    np.testing.assert_array_equal(built.indptr, [0, 1, 1, 3])
    with pytest.raises(ValueError, match="not in row order"):
        CSRMatrix.from_rows((3, 2), np.array([2, 0]), np.array([1, 0]), np.ones(2))


@pytest.mark.parametrize(
    "shape, indptr, indices, data, fault",
    [
        ((-1, 2), [], [], [], r"shape \(-1, 2\) has a negative dimension"),
        ((2, 2), [0, 1], [0], [1.0], "indptr has 2 entries for 2 rows, not 3"),
        ((2, 2), [1, 1, 1], [0], [1.0], "indptr starts at 1, not 0"),
        ((2, 2), [0, 2, 1], [0], [1.0], "indptr decreases"),
        ((2, 2), [0, 1, 2], [0, 1], [1.0, 2.0, 3.0], "2 indices for 3 data entries"),
        ((2, 2), [0, 1, 1], [0, 1], [1.0, 2.0], "indptr ends at 1, not at the 2 data entries"),
        ((2, 2), [0, 1, 2], [0, 2], [1.0, 2.0], r"a column index lies outside \[0, 2\)"),
        ((2, 2), [0, 1, 2], [-1, 0], [1.0, 2.0], r"a column index lies outside \[0, 2\)"),
    ],
)
def test_csr_matrix_rejects_bad_layout(shape, indptr, indices, data, fault):
    with pytest.raises(ValueError, match=fault):
        CSRMatrix(shape, np.array(indptr), np.array(indices), np.array(data))
