"""``DecimalColumn`` against ``Decimal`` arithmetic, and the memory it saves.

The oracle computes every value, text, sum and product with ``Decimal`` in
a context wide enough for the drawn values and with ``Inexact`` trapped, so
the reference is exact; the column must give the same signs, coefficients
and exponents, and ``to_float`` the same bits as ``float(Decimal)``.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from decimal import Context, Decimal, Inexact, InvalidOperation, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import columns
from artrank.columns import DecimalColumn, sum_by
from artrank.ingest import parse_events
from helpers import market_csv

_MAX_FLOAT = Decimal(1.7976931348623157e308)

# prices as the validator accepts them, plus values only a column built in
# memory holds (1.8E+308 lies beyond the float range ingest admits)
_SPECIAL = [
    "0", "-0", "-0.00", "0.000", "0E-9", "0E+2", "1E+3", "12E+2", "1E-7", "1E-25",
    "0.05", "0.000001", "12.30", "9223372036854775807", "9223372036854775808",
    "12345678901234567890123", "99999999999999999999.99",
    "1.7976931348623157E+308", "1.8E+308", "4.9E-324", "2.4703282292062328E-324",
]
_value = st.one_of(
    st.none(),
    st.sampled_from(_SPECIAL).map(Decimal),
    # plain text of up to 18 digits, as the parse fast path reads it
    st.builds(lambda c, k: Decimal(c).scaleb(-k), st.integers(0, 10**18 - 1), st.integers(0, 8)),
    # any coefficient, 19+ digits included, at a small or large exponent
    st.builds(lambda c, e: Decimal(f"{c}E{e}"), st.integers(0, 10**25), st.integers(-30, 12)),
)
_rate = st.one_of(
    st.sampled_from(["0.01", "2345.67", "1E+3", "123456789012.345678", "1E-30"]).map(Decimal),
    st.builds(lambda c, k: Decimal(c).scaleb(-k), st.integers(1, 10**12), st.integers(0, 6)),
)


def _exact():
    """A context in which every sum and product of drawn values is exact, or raises."""
    return localcontext(Context(prec=1000, traps=[Inexact, InvalidOperation]))


def _coefficient(value: Decimal) -> int:
    return int("".join(map(str, value.as_tuple().digits)))


def _texts(values):
    return ["" if v is None else str(v) for v in values]


def _bits(floats):
    return np.asarray(floats, dtype=np.float64).view(np.int64).tolist()


def _check(column: DecimalColumn, values: list) -> None:
    assert len(column) == len(values)
    assert [repr(v) for v in column.tolist()] == [repr(v) for v in values]
    assert column.text() == _texts(values)
    expected = [math.nan if v is None else float(v) for v in values]
    got = column.to_float()
    assert _bits(got[~column.missing]) == _bits([f for f, v in zip(expected, values) if v is not None])
    assert np.isnan(got[column.missing]).all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_value, st.integers(0, 3)), max_size=30))
def test_column_matches_decimal_arithmetic(rows):
    values = [value for value, _ in rows]
    groups = np.array([group for _, group in rows], dtype=np.int64)
    column = DecimalColumn.from_values(values)
    _check(column, values)
    for i, value in enumerate(values):
        assert repr(column[i]) == repr(value)
    with _exact():
        expected = [sum((v for v, g in rows if g == k and v is not None), Decimal(0)) for k in range(5)]
        total = sum((v for v in values if v is not None), Decimal(0))
    sums = sum_by(column, groups, 5)
    _check(sums, expected)
    assert str(column.total()) == str(total)
    # int64 coefficients while every sum fits, Python ints once one does not
    if any(_coefficient(s) >= 2**63 for s in expected):
        assert sums.coef.dtype == object
    if all(v is None or (abs(v.as_tuple().exponent) <= 2 and v < 10**9) for v in values):
        assert sums.coef.dtype == np.int64


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_value, _rate), max_size=30))
def test_products_match_decimal_arithmetic(rows):
    eth = [value for value, _ in rows]
    rates = [rate for _, rate in rows]
    with _exact():
        expected = [None if v is None else v * r for v, r in rows]
    product = DecimalColumn.from_values(eth).times(DecimalColumn.from_values(rates))
    _check(product, expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(_value.filter(lambda v: v is not None and v <= _MAX_FLOAT), min_size=1, max_size=20))
def test_parsed_prices_match_decimal(values):
    """Prices the validator accepts, read by the CSV and JSON fast paths or by the
    full validator, make the column of their ``Decimal`` values."""
    csv_text = "seller,buyer,creator,price_usd,timestamp\n" + "".join(
        f"a,b,a,{v},{i}\n" for i, v in enumerate(values)
    )
    json_text = "".join(
        '{"seller":"a","buyer":"b","creator":"a","price_usd":%s,"timestamp":%d}\n' % (v, i)
        for i, v in enumerate(values)
    )
    # a JSON integer is read as an int, so "-0" loses its sign there
    json_values = [Decimal(json.loads(str(v), parse_float=Decimal)) for v in values]
    for payload, fmt, expected in ((csv_text, "csv", values), (json_text, "json", json_values)):
        log, rejects = parse_events(payload.encode(), fmt)
        assert rejects == []
        _check(log.price_usd, expected)
        assert log.price_eth.missing.all()
        with _exact():
            assert str(log.price_usd.total()) == str(sum(expected, Decimal(0)))


def test_prices_keep_their_place_across_record_blocks():
    """Records read by the fast path and by the full validator fill the same
    buffers, which move a block of records at a time."""
    cells = ["12.30", "1E+2", "", "-0.00", "12345678901234567890123", " 7 ", "0.05"]
    rows = [(i, cells[i % 7], cells[(i // 7) % 7]) for i in range(3 * columns.BLOCK_RECORDS + 5)]
    payload = "seller,buyer,creator,price_eth,price_usd,timestamp\n" + "".join(
        f"a,b,a,{eth},{usd},{i}\n" for i, eth, usd in rows
    )
    log, rejects = parse_events(payload.encode(), "csv")
    kept = [(eth, usd) for _, eth, usd in rows if eth or usd]
    assert [(r.row, r.reason) for r in rejects] == [
        (i + 1, "missing price") for i, eth, usd in rows if not (eth or usd)
    ]
    for column, texts in zip((log.price_eth, log.price_usd), zip(*kept)):
        assert column.text() == [str(Decimal(t)) if t else "" for t in texts]
        assert column.coef.dtype == object  # the 23-digit coefficient


def test_json_numbers_keep_their_text():
    record = '{"seller":"a","buyer":"b","creator":"a","price_usd":%s,"timestamp":1}'
    literals = ["1.50", "1E+3", "-0.0", "0.10", "12345678901234567890.123", "1e-5"]
    log, rejects = parse_events("\n".join(record % x for x in literals).encode(), "json")
    assert rejects == []
    assert log.price_usd.text() == [str(Decimal(x)) for x in literals]
    assert json.loads("[%s]" % ",".join(log.price_usd.text())) is not None


def test_empty_group_sums_to_decimal_zero():
    column = DecimalColumn.from_values([Decimal("1.25"), None])
    sums = sum_by(column, np.array([2, 0]), 3)
    assert [repr(v) for v in sums.tolist()] == ["Decimal('0')", "Decimal('0')", "Decimal('1.25')"]
    assert repr(DecimalColumn.from_values([]).total()) == "Decimal('0')"


def test_negative_zero_keeps_its_sign_in_text_and_adds_as_zero():
    column = DecimalColumn.from_values([Decimal("-0.00"), Decimal("-0")])
    assert column.text() == ["-0.00", "-0"]
    assert _bits(column.to_float()) == _bits([-0.0, -0.0])
    assert repr(column.total()) == "Decimal('0.00')"
    product = column.times(DecimalColumn.from_values([Decimal("2.5"), Decimal("3")]))
    assert product.text() == ["-0.000", "-0"]


def test_column_refuses_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        DecimalColumn.from_values([Decimal("Infinity")])


# bytes per event of ``parse_events`` at its tracemalloc peak, about 1.5 times
# the 173 measured on 20k events of ``market_csv`` (Python 3.11, numpy 2.4);
# with one Decimal object per price the same parse measured 337
_PEAK_BYTES_PER_EVENT = 260


def test_parse_peak_memory_per_event():
    payload = market_csv(5, 20_000).encode()
    tracemalloc.start()
    try:
        log, rejects = parse_events(payload, "csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rejects == []
    assert log.price_usd.coef.dtype == np.int64
    assert log.price_eth.coef.dtype == np.int64
    assert peak / log.accepted_count < _PEAK_BYTES_PER_EVENT


_CHUNK = columns.CSV_CHUNK_ROWS
_MIXED = [None, Decimal("-0"), Decimal("-0.00"), Decimal("1.5"), Decimal("12E+3"), Decimal("0.000001")]


@pytest.mark.parametrize(
    "values",
    [
        [],
        [None] * (_CHUNK + 1),
        # missing values, negative zeros and mixed exponents over three chunks
        _MIXED * (2 * _CHUNK // len(_MIXED) + 1),
        # int64 coefficients whose sum passes 2**63 only across chunks
        [Decimal(9 * 10**18)] * (_CHUNK + 2),
        # object coefficients, first seen in the last chunk
        _MIXED * (_CHUNK // len(_MIXED) + 1) + [Decimal("12345678901234567890123.45")],
    ],
    ids=["empty", "all missing", "mixed", "int64 across chunks", "object coefficients"],
)
def test_total_is_the_sum_of_the_present_values(values):
    column = DecimalColumn.from_values(values)
    with _exact():
        expected = sum((v for v in values if v is not None), Decimal(0))
    assert repr(column.total()) == repr(expected)


def test_total_allocates_no_temporary_as_long_as_the_column():
    column = DecimalColumn.from_values(Decimal(f"{i}.25") for i in range(100_000))
    tracemalloc.start()
    try:
        column.total()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(column) / 2  # half the column's int64 coefficients
