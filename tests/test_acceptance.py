"""Acceptance gate: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 5 needs the public marketplace snapshot; point
``SUPERRARE_CSV`` at it (optionally ``SUPERRARE_RATES`` and
``SUPERRARE_MAP`` as ``src=dst,...``). Without the snapshot it is
replaced by criterion 6, as specified.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from artrank import (
    AdjacencyView,
    HitsConfig,
    MetricsTable,
    METRIC_NAMES,
    RateTable,
    Role,
    Weighting,
    adjacency,
    build_metrics_table,
    build_network,
    build_profiles,
    classify_role,
    cli,
    convert_currency,
    correlation_matrix,
    degree_metrics,
    gini,
    hits,
    kendall_tau,
    lorenz,
    match_code,
    parse_events,
    top_share,
    volume_by_buyer,
    volume_by_seller,
)
from scipy import sparse

from helpers import (
    cosine,
    dense_hits_oracle,
    gini_pairwise,
    kendall_brute,
    market_csv,
    random_sparse_digraph,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except pytest.skip.Exception:
        raise
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def view_of(dense: np.ndarray) -> AdjacencyView:
    return AdjacencyView(Weighting.WEIGHTED_USD, sparse.csr_matrix(dense))


def test_criterion_1_hits_oracle_equivalence():
    with criterion(1, "HITS matches dense eigensolver on 100 random digraphs (<= 1e-8, < 5 s)"):
        rng = np.random.default_rng(20210421)
        cfg = HitsConfig(tolerance=1e-12, max_iterations=5000)
        started = time.perf_counter()
        for _ in range(100):
            dense = random_sparse_digraph(rng, max_n=20, max_density=0.3)
            scores = hits(view_of(dense), cfg)
            auth_ref, hub_ref = dense_hits_oracle(dense)
            assert cosine(scores.authority, auth_ref) >= 1 - 1e-8
            assert cosine(scores.hub, hub_ref) >= 1 - 1e-8
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_2_hits_invariances():
    with criterion(2, "edge-weight scaling within 1e-12; node relabeling exact"):
        rng = np.random.default_rng(77)
        cfg = HitsConfig(tolerance=1e-14, max_iterations=20000)
        for _ in range(5):
            dense = random_sparse_digraph(rng, max_n=20)
            base = hits(view_of(dense), cfg)
            for k in (0.01, 1.0, 1000.0):
                scaled = hits(view_of(dense * k), cfg)
                assert np.max(np.abs(scaled.authority - base.authority)) <= 1e-12
                assert np.max(np.abs(scaled.hub - base.hub)) <= 1e-12
            perm = rng.permutation(dense.shape[0])
            relabeled = hits(view_of(dense[perm][:, perm]), cfg)
            np.testing.assert_array_equal(relabeled.authority, base.authority[perm])
            np.testing.assert_array_equal(relabeled.hub, base.hub[perm])


def test_criterion_3_gini_oracle_and_lorenz_identity():
    with criterion(3, "sorted Gini equals pairwise oracle (1e-12, 50 vectors); Lorenz-area identity (1e-9)"):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            n = int(rng.integers(1, 1001))
            draw = rng.random()
            if draw < 0.4:
                values = rng.pareto(1.3, n)
            elif draw < 0.8:
                values = rng.random(n) * 1e4
            else:
                values = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
            if values.sum() <= 0:
                values[0] = 1.0
            assert abs(gini(values) - gini_pairwise(values)) <= 1e-12
        values = rng.pareto(1.16, 1000) + 0.001
        curve = lorenz(values)
        area = np.trapezoid(curve.volume_shares, curve.population_shares)
        assert abs(curve.gini - (1.0 - 2.0 * area)) <= 1e-9


def test_criterion_4_kendall_oracle():
    with criterion(4, "tau-b equals brute-force pair counting (1e-12, 50 tied vectors)"):
        rng = np.random.default_rng(8128)
        done = 0
        while done < 50:
            n = int(rng.integers(2, 501))
            xs = rng.integers(0, 10, n).astype(float)
            ys = (rng.integers(0, 10, n) + rng.integers(0, 2, n) * xs).astype(float)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            assert abs(kendall_tau(xs, ys) - kendall_brute(xs, ys)) <= 1e-12
            done += 1


def test_criterion_5_marketplace_snapshot_reproduction():
    snapshot = os.environ.get("SUPERRARE_CSV")
    if not snapshot:
        print(
            "[SKIP] criterion 5: marketplace snapshot not available"
            " (set SUPERRARE_CSV); replaced by criterion 6"
        )
        pytest.skip("snapshot unavailable; criterion 6 applies instead")
    with criterion(5, "snapshot concentration and summary counts match the published figures"):
        field_map = {}
        if os.environ.get("SUPERRARE_MAP"):
            for item in os.environ["SUPERRARE_MAP"].split(","):
                src, _, dst = item.partition("=")
                field_map[src.strip()] = dst.strip()
        with open(snapshot, "rb") as handle:
            log, _ = parse_events(handle, fmt="csv", field_map=field_map)
        rates_path = os.environ.get("SUPERRARE_RATES")
        if rates_path:
            with open(rates_path, "rb") as handle:
                log = convert_currency(log, RateTable.from_csv(handle))
        sellers = [float(v) for v in volume_by_seller(log).values()]
        buyers = [float(v) for v in volume_by_buyer(log).values()]
        assert abs(gini(sellers) - 0.79) <= 0.02
        assert abs(gini(buyers) - 0.91) <= 0.02
        assert abs(top_share(sellers, 0.8) - 0.18) <= 0.02
        assert abs(top_share(buyers, 0.8) - 0.06) <= 0.01
        from artrank import summarize

        net = build_network(log)
        summary = summarize(log, net)
        assert summary.sold_count == 15270
        assert summary.active_users == 3356
        assert summary.creators == 855
        assert summary.sellers == 1556
        assert summary.buyers == 2590


def test_criterion_6_synthetic_concentration_separation():
    with criterion(6, "heavy-tailed volumes give Gini >= 0.7 (9/10 seeds); near-equal volumes <= 0.05"):
        concentrated = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            volumes = rng.pareto(1.16, 3000)
            if lorenz(volumes).gini >= 0.7:
                concentrated += 1
        assert concentrated >= 9, f"only {concentrated}/10 seeds reached 0.7"
        for seed in range(10):
            rng = np.random.default_rng(seed)
            volumes = rng.uniform(0.9, 1.1, 3000)  # near-equal spending per user
            assert lorenz(volumes).gini <= 0.05


def test_criterion_7_correlation_cluster_separation():
    with criterion(7, "artist and collector metric clusters separate by >= 0.3 mean tau"):
        text = market_csv(11, 4000, n_artists=150, n_collectors=250, secondary_fraction=0.0)
        log, rejects = parse_events(text.encode(), "csv")
        assert not rejects
        net = build_network(log)
        unweighted = hits(adjacency(net, Weighting.UNWEIGHTED_BINARY))
        weighted = hits(adjacency(net, Weighting.WEIGHTED_USD))
        table = build_metrics_table(net, degree_metrics(net), unweighted, weighted)
        values = correlation_matrix(table).values
        artist_idx = [0, 1, 2, 3]
        collector_idx = [4, 5, 6, 7]
        intra_artist = np.mean([values[i, j] for i in artist_idx for j in artist_idx if i < j])
        intra_collector = np.mean(
            [values[i, j] for i in collector_idx for j in collector_idx if i < j]
        )
        inter = np.mean([values[i, j] for i in artist_idx for j in collector_idx])
        assert not np.isnan(values).any()
        assert intra_artist - inter >= 0.3
        assert intra_collector - inter >= 0.3


def _planted_role_table() -> tuple[MetricsTable, list[Role]]:
    n = 100
    traders = [0, 1, 2]
    sellers = [3, 4]
    buyers = [5, 6]
    sell = np.zeros(n)
    buy = np.zeros(n)
    high_sell = traders + sellers
    high_buy = traders + buyers
    sell[high_sell] = [1000 + i for i in range(len(high_sell))]
    buy[high_buy] = [2000 + i for i in range(len(high_buy))]
    low = iter(range(1, n + 1))
    for u in range(n):
        if u not in high_sell:
            sell[u] = next(low)
    low = iter(range(1, n + 1))
    for u in range(n):
        if u not in high_buy:
            buy[u] = next(low)
    values = np.zeros((n, len(METRIC_NAMES)))
    values[:, METRIC_NAMES.index("in_degree")] = sell
    values[:, METRIC_NAMES.index("out_degree")] = buy
    expected = []
    for u in range(n):
        if u in traders:
            expected.append(Role.TRADER)
        elif u in sellers:
            expected.append(Role.PURE_SELLER)
        elif u in buyers:
            expected.append(Role.PURE_BUYER)
        else:
            expected.append(Role.BY_STANDER)
    table = MetricsTable(users=tuple(f"u{i:02d}" for i in range(n)), values=values)
    return table, expected


def _planted_code_table() -> MetricsTable:
    """100 users with prescribed per-column ranks for the artist metrics.

    u00 is the only AAAA, u01 the only CCAB, u02 the only AC** match; filler
    users occupy the rest of each column's top decile with rank patterns that
    cannot collide with those queries.
    """
    n = 100
    ranks = {name: np.zeros(n, dtype=int) for name in ("in_degree", "in_strength", "authority", "w_authority")}

    def assign(name, user, rank):
        ranks[name][user] = rank

    assign("in_degree", 0, 100), assign("in_strength", 0, 100)
    assign("authority", 0, 100), assign("w_authority", 0, 100)  # u00: AAAA
    assign("in_degree", 1, 10), assign("in_strength", 1, 11)
    assign("authority", 1, 99), assign("w_authority", 1, 75)  # u01: CCAB
    assign("in_degree", 2, 99), assign("in_strength", 2, 12)
    assign("authority", 2, 13), assign("w_authority", 2, 14)  # u02: ACCC

    fill_deg = range(10, 18)  # in-degree top decile, in-strength mid
    for offset, user in enumerate(fill_deg):
        assign("in_degree", user, 91 + offset)
        assign("in_strength", user, 60 + offset)
    fill_auth = range(20, 28)  # authority top decile, in-degree mid
    for offset, user in enumerate(fill_auth):
        assign("authority", user, 91 + offset)
        assign("in_degree", user, 61 + offset)
    fill_wauth = range(30, 39)  # weighted-authority top decile, in-degree mid
    for offset, user in enumerate(fill_wauth):
        assign("w_authority", user, 91 + offset)
        assign("in_degree", user, 71 + offset)
    fill_str = range(40, 49)  # in-strength top decile, in-degree mid
    for offset, user in enumerate(fill_str):
        assign("in_strength", user, 91 + offset)
        assign("in_degree", user, 81 + offset)

    for name, column in ranks.items():
        unused = iter(sorted(set(range(1, n + 1)) - set(column[column > 0].tolist())))
        for user in range(n):
            if column[user] == 0:
                column[user] = next(unused)
        assert sorted(column.tolist()) == list(range(1, n + 1))

    values = np.zeros((n, len(METRIC_NAMES)))
    for name, column in ranks.items():
        values[:, METRIC_NAMES.index(name)] = column.astype(float)
    return MetricsTable(users=tuple(f"u{i:02d}" for i in range(n)), values=values)


def test_criterion_8_profiling_recovers_planted_structure():
    with criterion(8, "planted roles recovered exactly; AAAA/CCAB/AC** queries return planted sets"):
        table, expected = _planted_role_table()
        assert classify_role(table, percentile_threshold=0.95) == expected

        codes = _planted_code_table()
        profiles = build_profiles(codes)
        assert match_code(profiles, "AAAA", which="artist") == ["u00"]
        assert match_code(profiles, "CCAB", which="artist") == ["u01"]
        assert match_code(profiles, "AC**", which="artist") == ["u02"]


def test_criterion_9_pipeline_speed_and_determinism(tmp_path):
    with criterion(9, "25k-event run completes < 5 s and is byte-identical across two runs"):
        sales = tmp_path / "sales.csv"
        sales.write_text(
            market_csv(
                101,
                25_000,
                n_artists=400,
                n_collectors=800,
                secondary_fraction=0.12,
                self_sale_rows=2,
                buyback_rows=3,
            ),
            encoding="utf-8",
        )
        started = time.perf_counter()
        assert cli.main(["run", str(sales), "--out", str(tmp_path / "one")]) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"
        assert cli.main(["run", str(sales), "--out", str(tmp_path / "two")]) == 0

        first = {p.name: p.read_bytes() for p in sorted((tmp_path / "one").iterdir())}
        second = {p.name: p.read_bytes() for p in sorted((tmp_path / "two").iterdir())}
        assert first == second
        manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
        assert {entry["name"] for entry in manifest["files"]} >= {
            "events.csv",
            "rankings.csv",
            "edges.csv",
            "correlation.csv",
            "profiles.jsonl",
            "summary.json",
        }
