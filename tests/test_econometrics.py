"""Lorenz/Gini, top shares, and Kendall tau-b against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import (
    CORRELATION_LABELS,
    METRIC_NAMES,
    MetricsTable,
    correlation_matrix,
    gini,
    kendall_tau,
    lorenz,
    top_share,
)
from helpers import gini_pairwise, kendall_brute

# nonzero values stay above the subnormals: scaling 5e-324 by 0.5 underflows
# to 0.0, and a vector of zeros has no Gini index
positive_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e6)),
    min_size=1,
    max_size=60,
).filter(lambda v: sum(v) > 0)


def table_from_columns(columns: dict[str, list[float]]) -> MetricsTable:
    n = len(next(iter(columns.values())))
    values = np.zeros((n, len(METRIC_NAMES)))
    for name, col in columns.items():
        values[:, METRIC_NAMES.index(name)] = col
    return MetricsTable(users=tuple(f"u{i}" for i in range(n)), values=values)


# ---------------------------------------------------------------------------
# Lorenz
# ---------------------------------------------------------------------------


def test_lorenz_perfect_equality():
    curve = lorenz([1, 1, 1, 1])
    expected = [(0, 0), (0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (1, 1)]
    np.testing.assert_allclose(curve.points, expected, atol=1e-15)
    assert curve.gini == 0.0


def test_lorenz_single_holder():
    curve = lorenz([0, 0, 0, 1])
    expected = [(0, 0), (0.25, 0), (0.5, 0), (0.75, 0), (1, 1)]
    np.testing.assert_allclose(curve.points, expected, atol=1e-15)


def test_lorenz_random_vector_properties():
    rng = np.random.default_rng(5)
    curve = lorenz(rng.random(100))
    assert tuple(curve.points[0]) == (0.0, 0.0)
    assert tuple(curve.points[-1]) == (1.0, 1.0)
    assert np.all(np.diff(curve.population_shares) >= 0)
    assert np.all(np.diff(curve.volume_shares) >= 0)
    assert np.all(curve.volume_shares <= curve.population_shares + 1e-12)


@pytest.mark.parametrize("values", [[], [0, 0, 0]])
def test_lorenz_and_gini_need_volume(values):
    with pytest.raises(ValueError, match="no volume"):
        lorenz(values)
    with pytest.raises(ValueError, match="no volume"):
        gini(values)


def test_negative_values_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        gini([1, -2, 3])


# ---------------------------------------------------------------------------
# Gini
# ---------------------------------------------------------------------------


def test_gini_equality_and_single_holder():
    assert gini([5, 5, 5]) == 0.0
    # closed form (n-1)/n for one holder among n = 4
    assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-15)
    assert gini([0, 0, 0, 1]) == pytest.approx(gini_pairwise([0, 0, 0, 1]), abs=1e-12)


def test_gini_matches_pairwise_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 400))
        values = rng.pareto(1.5, n) + rng.random(n)
        assert gini(values) == pytest.approx(gini_pairwise(values), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(positive_vectors, st.floats(min_value=1e-3, max_value=1e3))
def test_gini_scale_invariant(values, k):
    arr = np.asarray(values)
    assert gini(arr * k) == pytest.approx(gini(arr), abs=1e-9)


def test_gini_lorenz_area_identity():
    rng = np.random.default_rng(23)
    values = rng.pareto(1.3, 500) + 0.01
    curve = lorenz(values)
    area = np.trapezoid(curve.volume_shares, curve.population_shares)
    assert curve.gini == pytest.approx(1.0 - 2.0 * area, abs=1e-9)


# ---------------------------------------------------------------------------
# Top share
# ---------------------------------------------------------------------------


def test_top_share_uniform():
    assert top_share([1, 1, 1, 1], 0.5) == 0.5


def test_top_share_single_holder():
    assert top_share([0, 0, 0, 1], 0.8) == 0.25


def test_top_share_whole_user_granularity():
    # 3 users at 50/30/20: 60% of volume needs the top two users
    assert top_share([50, 30, 20], 0.6) == pytest.approx(2 / 3)


def test_top_share_validates_fraction():
    with pytest.raises(ValueError, match="volume_fraction"):
        top_share([1, 2], 0.0)
    with pytest.raises(ValueError, match="volume_fraction"):
        top_share([1, 2], 1.5)


@settings(max_examples=50, deadline=None)
@given(positive_vectors, st.floats(min_value=0.01, max_value=0.99))
def test_top_share_monotone_in_volume_fraction(values, fraction):
    lower = top_share(values, fraction)
    higher = top_share(values, min(fraction + 0.3, 1.0))
    assert higher >= lower


# ---------------------------------------------------------------------------
# Kendall tau-b
# ---------------------------------------------------------------------------


def test_kendall_identical_and_reversed_order():
    assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0, abs=1e-15)
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)


def test_kendall_tied_example_matches_brute_force():
    xs = [1, 2, 3, 3]
    ys = [1, 3, 2, 2]
    expected = kendall_brute(xs, ys)  # 6 pairs: C=3, D=2, Tx=Ty=1 -> 0.2
    assert expected == pytest.approx(0.2, abs=1e-12)
    assert kendall_tau(xs, ys) == pytest.approx(expected, abs=1e-12)


def test_kendall_random_tied_vectors_match_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(3, 120))
        xs = rng.integers(0, 8, n).astype(float)
        ys = (rng.integers(0, 8, n) + rng.integers(0, 2, n) * xs).astype(float)
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        assert kendall_tau(xs, ys) == pytest.approx(kendall_brute(xs, ys), abs=1e-12)


def test_kendall_symmetry_and_monotone_transform():
    rng = np.random.default_rng(31)
    xs = rng.integers(0, 5, 40).astype(float)
    ys = rng.integers(0, 5, 40).astype(float)
    assert kendall_tau(xs, ys) == pytest.approx(kendall_tau(ys, xs), abs=1e-15)
    assert kendall_tau(xs, np.exp(xs / 2) + 7) == pytest.approx(1.0, abs=1e-12)


def test_kendall_degenerate_inputs():
    with pytest.raises(ValueError, match="degenerate ranking"):
        kendall_tau([2, 2, 2], [5, 5, 5])
    assert np.isnan(kendall_tau([2, 2, 2], [1, 2, 3]))
    with pytest.raises(ValueError, match="at least 2"):
        kendall_tau([1], [2])
    with pytest.raises(ValueError, match="equal-length"):
        kendall_tau([1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# Correlation matrix
# ---------------------------------------------------------------------------


def test_correlation_all_columns_identical():
    base = [3.0, 1.0, 4.0, 1.5, 9.0]
    table = table_from_columns({name: base for name in METRIC_NAMES})
    matrix = correlation_matrix(table)
    assert matrix.labels == CORRELATION_LABELS
    np.testing.assert_array_equal(matrix.values, np.ones((8, 8)))


def test_correlation_two_users():
    table = table_from_columns(
        {
            name: ([1.0, 2.0] if i % 2 == 0 else [2.0, 1.0])
            for i, name in enumerate(METRIC_NAMES)
        }
    )
    values = correlation_matrix(table).values
    assert set(np.unique(values)) == {-1.0, 1.0}


def test_correlation_matches_brute_force_entrywise():
    rng = np.random.default_rng(37)
    columns = {name: rng.integers(0, 6, 50).astype(float) for name in METRIC_NAMES}
    matrix = correlation_matrix(table_from_columns(columns))
    for i, a in enumerate(METRIC_NAMES):
        for j, b in enumerate(METRIC_NAMES):
            expected = kendall_brute(columns[a], columns[b])
            assert matrix.values[i, j] == pytest.approx(expected, abs=1e-12)


def test_correlation_constant_column_is_nan_not_zero():
    rng = np.random.default_rng(41)
    columns = {name: rng.random(10) for name in METRIC_NAMES}
    columns["hub"] = [2.0] * 10
    matrix = correlation_matrix(table_from_columns(columns))
    h = METRIC_NAMES.index("hub")
    assert np.all(np.isnan(matrix.values[h, :]))
    assert np.all(np.isnan(matrix.values[:, h]))
    off = np.delete(np.delete(matrix.values, h, axis=0), h, axis=1)
    assert not np.any(np.isnan(off))
    assert np.all(np.diag(off) == 1.0)


def test_correlation_symmetric_and_unit_diagonal():
    rng = np.random.default_rng(43)
    columns = {name: rng.pareto(1.5, 30) for name in METRIC_NAMES}
    values = correlation_matrix(table_from_columns(columns)).values
    np.testing.assert_allclose(values, values.T, atol=1e-12)
    np.testing.assert_array_equal(np.diag(values), np.ones(8))


def test_correlation_needs_two_users():
    table = table_from_columns({name: [1.0] for name in METRIC_NAMES})
    with pytest.raises(ValueError, match="at least 2"):
        correlation_matrix(table)


@st.composite
def tie_heavy_columns(draw):
    """Eight columns of one length up to 2000 with few distinct values, many zeros."""
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in METRIC_NAMES:
        distinct = draw(st.integers(1, 12))
        zero_share = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))
        levels = np.sort(rng.choice([0.0, 1e-300, 5e-324, 0.25, 1.0, 3.0, 7.5, 1e6], 8, replace=False))
        column = levels[rng.integers(0, min(distinct, 8), n)]
        column[rng.random(n) < zero_share] = 0.0
        columns[name] = column
    return columns


def same_bits(a: float, b: float) -> bool:
    return (np.isnan(a) and np.isnan(b)) or float(a).hex() == float(b).hex()


@settings(max_examples=25, deadline=None)
@given(tie_heavy_columns())
def test_correlation_matrix_entries_are_kendall_tau_bit_for_bit(columns):
    from scipy import stats

    matrix = correlation_matrix(table_from_columns(columns)).values
    names = list(METRIC_NAMES)
    n = len(columns[names[0]])
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            x, y = columns[a], columns[b]
            if np.all(x == x[0]) or np.all(y == y[0]):
                assert np.isnan(matrix[i, j])
                continue
            assert same_bits(matrix[i, j], kendall_tau(x, y))
            with np.errstate(all="ignore"):
                assert matrix[i, j] == pytest.approx(stats.kendalltau(x, y).statistic, abs=1e-12)
            # the O(n^2) oracle holds n x n matrices; keep it to the smaller inputs
            if n <= 600 or (i, j) == (0, 1):
                assert matrix[i, j] == pytest.approx(kendall_brute(x, y), abs=1e-12)


def test_kendall_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        kendall_tau([1.0, float("nan"), 2.0], [1.0, 2.0, 3.0])


def test_gini_refuses_volumes_beyond_float_range():
    # the total is finite, but the rank-weighted sum 1 + 2e308 is not
    with pytest.raises(ValueError, match="too large"):
        gini([1e308, 1.0])
    with pytest.raises(ValueError, match="too large"):
        lorenz([1e308, 1.0])


def test_kendall_counts_equal_infinities_as_ties():
    # tau depends on ranks only: two equal infinities tie like two equal finite values
    inf = float("inf")
    ys = [1.0, 2.0, 3.0, 4.0]
    assert kendall_tau([inf, inf, 1.0, 2.0], ys) == kendall_tau([9.0, 9.0, 1.0, 2.0], ys)
