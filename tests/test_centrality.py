"""Authority/hub iteration against dense oracles, plus degree metrics."""

from decimal import Decimal

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from artrank import (
    AdjacencyView,
    HitsConfig,
    HitsScores,
    Weighting,
    adjacency,
    build_network,
    degree_metrics,
    hits,
    parse_events,
    trader_score,
)
from artrank.centrality import _RowSums
from helpers import (
    cosine,
    dense_hits_oracle,
    ev,
    log_of,
    market_csv,
    random_sparse_digraph,
    sales,
)


def view_of(dense: np.ndarray) -> AdjacencyView:
    return AdjacencyView(Weighting.WEIGHTED_USD, sparse.csr_matrix(dense))


def test_single_edge():
    dense = np.zeros((3, 3))
    dense[0, 1] = 1.0  # collector 0 endorses artist 1; node 2 isolated
    scores = hits(view_of(dense))
    np.testing.assert_allclose(scores.authority, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(scores.hub, [1.0, 0.0, 0.0])
    assert scores.converged
    assert not scores.empty


def test_star_collector_buying_equally():
    dense = np.zeros((5, 5))
    dense[0, 1:] = 1.0
    scores = hits(view_of(dense))
    np.testing.assert_allclose(scores.authority, [0.0, 0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(scores.hub, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_weighted_fixture_matches_dense_oracle():
    # collectors {c1, c2}, artists {a1, a2}: c1->a1:2, c1->a2:1, c2->a1:1
    dense = np.zeros((4, 4))
    dense[0, 2] = 2.0
    dense[0, 3] = 1.0
    dense[1, 2] = 1.0
    scores = hits(view_of(dense), HitsConfig(tolerance=1e-12, max_iterations=5000))
    auth_ref, hub_ref = dense_hits_oracle(dense)
    assert cosine(scores.authority, auth_ref) >= 1 - 1e-8
    assert cosine(scores.hub, hub_ref) >= 1 - 1e-8
    assert np.linalg.norm(scores.authority) == pytest.approx(1.0)
    assert np.linalg.norm(scores.hub) == pytest.approx(1.0)


def test_empty_network_distinguished_status():
    scores = hits(view_of(np.zeros((4, 4))))
    assert scores.empty
    assert scores.converged
    assert scores.iterations_used == 0
    np.testing.assert_array_equal(scores.authority, np.zeros(4))
    np.testing.assert_array_equal(scores.hub, np.zeros(4))


def test_nodes_without_edges_score_zero():
    dense = np.zeros((6, 6))
    dense[0, 1] = 3.0
    dense[2, 3] = 1.0
    scores = hits(view_of(dense))
    for isolated in (4, 5):
        assert scores.authority[isolated] == 0.0
        assert scores.hub[isolated] == 0.0


def test_non_convergence_reported():
    dense = random_sparse_digraph(np.random.default_rng(3))
    scores = hits(view_of(dense), HitsConfig(tolerance=1e-30, max_iterations=2))
    assert not scores.converged
    assert scores.iterations_used == 2
    assert scores.residual > 1e-30


def test_converged_residual_below_tolerance():
    dense = random_sparse_digraph(np.random.default_rng(4))
    cfg = HitsConfig(tolerance=1e-10, max_iterations=1000)
    scores = hits(view_of(dense), cfg)
    assert scores.converged
    assert scores.residual <= cfg.tolerance


def test_random_graphs_match_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        dense = random_sparse_digraph(rng)
        scores = hits(view_of(dense), HitsConfig(tolerance=1e-12, max_iterations=5000))
        auth_ref, hub_ref = dense_hits_oracle(dense)
        assert cosine(scores.authority, auth_ref) >= 1 - 1e-8
        assert cosine(scores.hub, hub_ref) >= 1 - 1e-8


def test_random_graphs_match_networkx():
    rng = np.random.default_rng(1999)
    for _ in range(20):
        dense = random_sparse_digraph(rng)
        scores = hits(view_of(dense), HitsConfig(tolerance=1e-12, max_iterations=5000))
        hub_nx, auth_nx = nx.hits(
            nx.from_numpy_array(dense, create_using=nx.DiGraph), max_iter=10_000, tol=1e-12
        )
        for ours, theirs in ((scores.authority, auth_nx), (scores.hub, hub_nx)):
            ref = np.array([theirs[i] for i in range(dense.shape[0])])
            ref /= np.linalg.norm(ref)
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-8)


def test_scale_invariance():
    dense = random_sparse_digraph(np.random.default_rng(7))
    cfg = HitsConfig(tolerance=1e-14, max_iterations=20000)
    base = hits(view_of(dense), cfg)
    for k in (0.01, 1.0, 1000.0):
        scaled = hits(view_of(dense * k), cfg)
        assert np.max(np.abs(scaled.authority - base.authority)) <= 1e-12
        assert np.max(np.abs(scaled.hub - base.hub)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_permutation_equivariance_exact(seed):
    rng = np.random.default_rng(seed)
    dense = random_sparse_digraph(rng, max_n=12)
    n = dense.shape[0]
    perm = rng.permutation(n)
    base = hits(view_of(dense))
    permuted = hits(view_of(dense[perm][:, perm]))
    # bitwise: summands are accumulated in value order inside the iteration
    np.testing.assert_array_equal(permuted.authority, base.authority[perm])
    np.testing.assert_array_equal(permuted.hub, base.hub[perm])
    assert permuted.iterations_used == base.iterations_used


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(20, 1500),
    st.integers(2, 60),
    st.integers(2, 90),
    st.sampled_from(list(Weighting)),
)
def test_adjacency_hits_equal_scipy_csr_bit_for_bit(seed, n_events, n_artists, n_collectors, w):
    # scipy serves only as an independent CSR container here; it drops stored zeros
    text = market_csv(seed, n_events, n_artists=n_artists, n_collectors=n_collectors)
    log, _ = parse_events(text.encode(), "csv")
    view = adjacency(build_network(log), w)
    ours = hits(view)
    oracle = hits(AdjacencyView(w, sparse.csr_matrix(view.matrix.toarray())))
    assert bits(ours.authority) == bits(oracle.authority)
    assert bits(ours.hub) == bits(oracle.hub)
    assert ours.iterations_used == oracle.iterations_used
    assert bits(ours.residual) == bits(oracle.residual)
    assert ours.converged == oracle.converged


def test_hits_validates_input():
    with pytest.raises(ValueError, match="square"):
        hits(AdjacencyView(Weighting.WEIGHTED_USD, sparse.csr_matrix(np.ones((2, 3)))))
    bad = np.zeros((2, 2))
    bad[0, 1] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        hits(view_of(bad))
    outside = sparse.csr_matrix((np.ones(1), np.array([2]), np.array([0, 1, 1])), shape=(2, 2))
    with pytest.raises(ValueError, match="out of range"):
        hits(AdjacencyView(Weighting.WEIGHTED_USD, outside))
    loop = np.eye(2)
    with pytest.raises(ValueError, match="diagonal"):
        hits(view_of(loop))
    for value in (np.nan, np.inf):
        bad[0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            hits(view_of(bad))
    with pytest.raises(ValueError, match="tolerance"):
        HitsConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        HitsConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# Degree metrics
# ---------------------------------------------------------------------------


def test_nodes_without_edges_tally_all_zero():
    # the transacting seller of a resale gets no endorsement edge, and a
    # creator whose only sale was a dropped buy-back keeps an empty row too
    log = log_of(
        ev("s", "b", "c", usd=10, ts=0),
        ev("x", "a", "a", usd=99, ts=1),  # buy-back: dropped
    )
    net = build_network(log)
    metrics = degree_metrics(net)
    i = net.users.index("c")
    assert metrics.in_degree[i] == 1  # c is the creator: the resale endorses c
    for user in ("s", "a"):
        j = net.users.index(user)
        assert (
            metrics.in_degree[j],
            metrics.out_degree[j],
            metrics.in_strength[j],
            metrics.out_strength[j],
        ) == (0, 0, Decimal(0), Decimal(0))


def test_artist_with_two_incoming_edges():
    log = log_of(
        ev("a", "b", "a", usd=100, ts=0),
        ev("a", "b", "a", usd=50, ts=1),
        ev("a", "c", "a", usd=50, ts=2),
    )
    net = build_network(log)
    metrics = degree_metrics(net)
    i = net.users.index("a")
    assert metrics.in_degree[i] == 3
    assert metrics.in_strength[i] == Decimal(200)


def test_degree_metrics_match_event_recount():
    # oracle: tally the events directly, bypassing the graph structure
    events = [
        ev("a1", "c1", "a1", usd=100, ts=0),
        ev("a1", "c2", "a1", usd=40, ts=1),
        ev("c1", "c2", "a1", usd=60, ts=2),  # resale still endorses a1
        ev("a2", "c1", "a2", usd=10, ts=3),
        ev("a2", "c1", "a2", usd=5, ts=4),
    ]
    log = log_of(*events)
    events = sales(log)
    net = build_network(log)
    metrics = degree_metrics(net)
    for user in net.users:
        i = net.users.index(user)
        expect_in = sum(1 for e in events if e.creator_id == user)
        expect_out = sum(1 for e in events if e.buyer_id == user)
        expect_in_usd = sum((e.price_usd for e in events if e.creator_id == user), Decimal(0))
        expect_out_usd = sum((e.price_usd for e in events if e.buyer_id == user), Decimal(0))
        assert metrics.in_degree[i] == expect_in
        assert metrics.out_degree[i] == expect_out
        assert metrics.in_strength[i] == expect_in_usd
        assert metrics.out_strength[i] == expect_out_usd
    assert metrics.in_degree.sum() == metrics.out_degree.sum() == int(net.sale_count.sum())
    assert sum(metrics.in_strength, Decimal(0)) == net.total_usd.total()
    assert sum(metrics.out_strength, Decimal(0)) == net.total_usd.total()


def test_trader_score_products():
    scores = HitsScores(
        authority=np.array([0.0, 0.7, 0.3]),
        hub=np.array([0.9, 0.0, 0.4]),
        iterations_used=1,
        converged=True,
        residual=0.0,
    )
    np.testing.assert_allclose(trader_score(scores), [0.0, 0.0, 0.12])
    with pytest.raises(ValueError, match="equal length"):
        trader_score(
            HitsScores(np.zeros(2), np.zeros(3), 0, True, 0.0)
        )


# ---------------------------------------------------------------------------
# Row-sum kernel against a full sort on every call
# ---------------------------------------------------------------------------


def sorted_row_sums(matrix: sparse.csr_matrix, x: np.ndarray) -> np.ndarray:
    """Reference: sort every row's products ascending, then sum in that order."""
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    prod = matrix.data * x[matrix.indices]
    order = np.lexsort((prod, rows))
    return np.bincount(rows[order], weights=prod[order], minlength=n)


def random_csr(rng: np.random.Generator, data_kind: str) -> sparse.csr_matrix:
    """Rows of 0, 1, a few and 1000+ entries; explicit zeros stay stored."""
    n_cols = int(rng.integers(1, 1300))
    lengths = [
        min(n_cols, int(rng.choice([0, 1, rng.integers(2, 40), rng.integers(1000, 1300)])))
        for _ in range(int(rng.integers(1, 12)))
    ]
    indices = np.concatenate(
        [np.sort(rng.choice(n_cols, size=k, replace=False)) for k in lengths] + [[]]
    ).astype(np.int64)
    if data_kind == "ones":
        data = np.ones(len(indices))
    elif data_kind == "with_zeros":
        data = rng.uniform(0.0, 5.0, len(indices)) * (rng.random(len(indices)) < 0.7)
    else:  # few distinct values, so products tie often
        data = rng.integers(0, 4, len(indices)).astype(np.float64)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return sparse.csr_matrix((data, indices, indptr), shape=(len(lengths), n_cols))


def next_vector(rng: np.random.Generator, previous: np.ndarray, kind: str) -> np.ndarray:
    n = previous.size
    if kind == "uniform":
        return rng.random(n)
    if kind == "repeats":
        return rng.integers(0, 3, n) / 7.0
    if kind == "zeros":
        return np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
    if kind == "reversed":  # the previous ranking turned upside down
        ranks = np.argsort(np.argsort(previous, kind="stable"), kind="stable")
        return (n - ranks) / n
    # a nearby vector: most rows keep their order, a few entries swap
    return previous * (1.0 + rng.normal(0.0, 1e-3, n))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["ones", "with_zeros", "ties"]),
    st.lists(
        st.sampled_from(["uniform", "repeats", "zeros", "reversed", "nearby"]),
        min_size=20,
        max_size=30,
    ),
)
def test_row_sums_equal_full_sort_on_every_call(seed, data_kind, kinds):
    rng = np.random.default_rng(seed)
    matrix = random_csr(rng, data_kind)
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    kernel = _RowSums(matrix.shape[0], rows, matrix.indices, matrix.data)
    x = rng.random(matrix.shape[1])
    for kind in kinds:
        x = next_vector(rng, x, kind)
        np.testing.assert_array_equal(kernel(x), sorted_row_sums(matrix, x))


def csr_of_lengths(rng: np.random.Generator, lengths: list[int], data: str) -> sparse.csr_matrix:
    """Rows of the given lengths over 60 columns. ``hits`` admits weights of -0.0
    (-0.0 < 0 is false): ``data`` makes about half of them -0.0, or all."""
    n_cols = 60
    indices = np.concatenate(
        [np.sort(rng.choice(n_cols, size=k, replace=False)) for k in lengths]
    ).astype(np.int64)
    weights = rng.integers(1, 4, len(indices)) / 3.0
    if data != "positive":
        weights[(rng.random(len(indices)) < 0.5) | (data == "negative_zeros")] = -0.0
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return sparse.csr_matrix((weights, indices, indptr), shape=(len(lengths), n_cols))


@pytest.mark.parametrize(
    "lengths",
    [
        [3, 5, 3, 40, 7, 3, 60],  # every row needs a sort
        [1, 2, 2, 1, 2],  # no row needs one
        [4, 1, 9, 3, 17, 2, 60],  # one row per length, so each block is one line
        [0, 5, 0, 0, 2, 3, 0],  # empty rows between the others
    ],
)
@pytest.mark.parametrize("data", ["positive", "some_negative_zeros", "negative_zeros"])
def test_row_sums_equal_full_sort_on_edge_layouts(lengths, data):
    rng = np.random.default_rng(sum(lengths))
    matrix = csr_of_lengths(rng, lengths, data)
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    kernel = _RowSums(matrix.shape[0], rows, matrix.indices, matrix.data)
    x = rng.random(matrix.shape[1])
    for kind in ["uniform", "zeros", "repeats", "reversed", "nearby"] * 4:
        x = next_vector(rng, x, kind)
        got, want = kernel(x), sorted_row_sums(matrix, x)
        # compared as bit patterns, so that a -0.0 where +0.0 belongs fails
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
