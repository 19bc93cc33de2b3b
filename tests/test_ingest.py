"""Parsing, validation, and currency-conversion behavior."""

import csv
import io
import json
import os
import re
import sys
import tempfile
from dataclasses import replace
from datetime import date, datetime, timezone
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import (
    MissingRateError,
    RateTable,
    convert_currency,
    parse_events,
    write_events_csv,
)
from artrank import columns, ingest
from artrank.ingest import _MAX_EPOCH, _MIN_EPOCH, CANONICAL_FIELDS, write_csv
from helpers import T0, WriteLog, ev, log_of, parse_json_whole, sales

CSV_3ROWS = b"""seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id
alice,bob,alice,1.0,2300,2021-04-21T10:00:00Z,art1
bob,carol,alice,0.5,1200,2021-04-21T11:00:00Z,art1
alice,dan,alice,2.0,4600,1619000000,art2
"""


def at(*when: int) -> int:
    """The ``ev`` time offset of a UTC date-time."""
    return int(datetime(*when, tzinfo=timezone.utc).timestamp()) - T0


def log_value(log):
    """A log's metadata and events, to compare two logs by value."""
    return log.source, log.total_records, log.rejected_count, sales(log)


def test_parse_well_formed_csv():
    log, rejects = parse_events(CSV_3ROWS, "csv")
    assert rejects == []
    assert log.accepted_count == 3
    assert log.total_records == 3
    assert log.rejected_count == 0
    assert log.users[log.seller[0]] == "alice"
    assert log.users[log.buyer[0]] == "bob"
    assert log.users[log.creator[0]] == "alice"
    assert log.price_eth[0] == Decimal("1.0")
    assert log.price_usd[0] == Decimal("2300")
    assert log.artwork[0] == "art1"
    assert log.timestamp[0] == datetime(2021, 4, 21, 10, 0, tzinfo=timezone.utc).timestamp()


def test_self_sale_rejected_others_kept():
    payload = CSV_3ROWS + b"dan,dan,alice,,100,2021-04-22T00:00:00Z,art3\n"
    log, rejects = parse_events(payload, "csv")
    assert log.accepted_count == 3
    assert [(r.row, r.reason) for r in rejects] == [(4, "self-sale")]
    assert log.total_records == 4
    assert log.rejected_count == 1


@pytest.mark.parametrize(
    "row,reason",
    [
        (b",bob,alice,1.0,,2021-01-01T00:00:00Z,", "missing field: seller"),
        (b"alice,,alice,1.0,,2021-01-01T00:00:00Z,", "missing field: buyer"),
        (b"alice,bob,,1.0,,2021-01-01T00:00:00Z,", "missing field: creator"),
        (b"alice,bob,alice,,,2021-01-01T00:00:00Z,", "missing price"),
        (b"alice,bob,alice,-1,,2021-01-01T00:00:00Z,", "negative price"),
        (b"alice,bob,alice,abc,,2021-01-01T00:00:00Z,", "bad price: price_eth='abc'"),
        (b"alice,bob,alice,,1E+400,2021-01-01T00:00:00Z,", "bad price: price_usd is out of range"),
        (b"alice,bob,alice,1.8E+308,,2021-01-01T00:00:00Z,", "bad price: price_eth is out of range"),
        (b"alice,bob,alice,1.0,,,", "missing field: timestamp"),
        (b"alice,bob,alice,1.0,,yesterday,", "bad timestamp: 'yesterday'"),
    ],
)
def test_per_record_rejections(row, reason):
    header = b"seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n"
    log, rejects = parse_events(header + row + b"\n", "csv")
    assert log.accepted_count == 0
    assert rejects[0].reason == reason


def test_price_at_largest_float_accepted():
    largest = Decimal(sys.float_info.max)
    header = b"seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n"
    row = f"alice,bob,alice,,{largest},2021-01-01T00:00:00Z,\n".encode()
    log, rejects = parse_events(header + row, "csv")
    assert rejects == []
    assert log.price_usd.tolist() == [largest]


def test_float_of_a_long_price_rounds_once():
    # just below the midpoint of 1 and 1 + 2**-52, so the nearest double is 1;
    # rounded to 28 digits first, it would land on the midpoint and round up
    value = Decimal("1.00000000000000011102230246251")
    column = ingest.DecimalColumn.from_values([value, value.copy_negate()])
    assert column.to_float().tolist() == [1.0, -1.0]


@pytest.mark.parametrize(
    "price, kept",
    [
        ("1E-400", True),
        ("1E-401", False),
        ("0E+400", True),
        ("0E+401", False),
        pytest.param("1" * 308, True, id="308-digit-integer"),
        pytest.param("1." + "0" * 399, True, id="400-digit-one"),
        pytest.param("1." + "0" * 400, False, id="401-digit-one"),
        pytest.param("1" * 400 + "E-100", True, id="400-digit-exponent"),
        pytest.param("1" * 401 + "E-100", False, id="401-digit-exponent"),
        ("4.9E-324", True),
        ("2.4703282292062328E-324", True),
        ("12345678901234567890123456", True),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_price_digits_and_exponent_bounds(price, kept, fmt):
    if fmt == "csv":
        payload = f"seller,buyer,creator,price_usd,timestamp\nalice,bob,alice,{price},0\n"
    else:
        sale = {"seller": "alice", "buyer": "bob", "creator": "alice", "timestamp": 0}
        payload = json.dumps(sale)[:-1] + f', "price_usd": {price}}}\n'
    log, rejects = parse_events(payload.encode(), fmt)
    if kept:
        assert rejects == []
        assert log.price_usd.tolist() == [Decimal(price)]
    else:
        assert [(r.row, r.reason) for r in rejects] == [(1, "bad price: price_usd is out of range")]


def test_rate_table_refuses_a_rate_beyond_the_digit_and_exponent_bounds():
    assert RateTable.from_csv(b"date,usd_per_eth\n2021-01-01,1E-400\n").rates[date(2021, 1, 1)]
    for rate in ("1E-401", "1" * 401):
        with pytest.raises(ValueError, match="exchange rate for 2021-01-02 is out of range"):
            RateTable.from_csv(f"date,usd_per_eth\n2021-01-01,10\n2021-01-02,{rate}\n".encode())
        with pytest.raises(ValueError, match="exchange rate for 2021-01-02 is out of range"):
            RateTable({date(2021, 1, 2): Decimal(rate)})


def test_needs_conversion_flag_roundtrips():
    payload = (
        b"seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n"
        b"alice,bob,alice,1.5,,2021-04-21T10:00:00Z,art1\n"
    )
    log, rejects = parse_events(payload, "csv")
    assert rejects == []
    assert log.needs_conversion.tolist() == [True]
    assert log.price_usd[0] is None
    assert log.price_eth[0] == Decimal("1.5")

    buffer = io.StringIO()
    write_events_csv(log, buffer)
    relog, rerejects = parse_events(buffer.getvalue().encode(), "csv")
    assert rerejects == []
    assert sales(relog) == sales(log)
    assert relog.needs_conversion.tolist() == [True]


def test_events_sorted_by_timestamp():
    payload = (
        b"seller,buyer,creator,price_usd,timestamp\n"
        b"a,b,a,3,300\n"
        b"c,d,c,1,100\n"
        b"e,f,e,2,200\n"
    )
    log, _ = parse_events(payload, "csv")
    assert log.timestamp.tolist() == [100, 200, 300]


def test_parse_json_array_and_ndjson():
    array = b'[{"seller":"a","buyer":"b","creator":"a","price_usd":10.5,"timestamp":100}]'
    log, rejects = parse_events(array, "json")
    assert rejects == [] and log.accepted_count == 1
    assert log.price_usd[0] == Decimal("10.5")

    ndjson = (
        b'{"seller":"a","buyer":"b","creator":"a","price_usd":1,"timestamp":100}\n'
        b'{"seller":"a","buyer":"a","creator":"a","price_usd":1,"timestamp":101}\n'
    )
    log, rejects = parse_events(ndjson, "json")
    assert log.accepted_count == 1
    assert [(r.row, r.reason) for r in rejects] == [(2, "self-sale")]


def test_field_map_remaps_and_wins_over_canonical():
    payload = (
        b"from,to,creator,usd,timestamp,seller\n"
        b"alice,bob,alice,100,100,WRONG\n"
    )
    log, rejects = parse_events(
        payload, "csv", field_map={"from": "seller", "to": "buyer", "usd": "price_usd"}
    )
    assert rejects == []
    assert log.users[log.seller[0]] == "alice"
    assert log.users[log.buyer[0]] == "bob"


def test_field_map_bad_target_is_fatal():
    with pytest.raises(ValueError, match="not a canonical field"):
        parse_events(CSV_3ROWS, "csv", field_map={"seller": "vendor"})


def test_zero_price_accepted_and_counted():
    payload = (
        b"seller,buyer,creator,price_usd,timestamp\n"
        b"a,b,a,0,100\n"
        b"a,c,a,5,200\n"
    )
    log, rejects = parse_events(payload, "csv")
    assert rejects == []
    assert log.accepted_count == 2
    assert log.zero_price_count == 1


def test_parse_determinism():
    one, _ = parse_events(CSV_3ROWS, "csv")
    two, _ = parse_events(CSV_3ROWS, "csv")
    assert log_value(one) == log_value(two)


def test_unreadable_stream_is_fatal():
    with pytest.raises(ValueError, match="UTF-8"):
        parse_events(b"\xff\xfe\x00bad", "csv")
    with pytest.raises(ValueError, match="header"):
        parse_events(b"", "csv")
    with pytest.raises(ValueError, match="unsupported input format"):
        parse_events(CSV_3ROWS, "xml")


# ---------------------------------------------------------------------------
# Currency conversion
# ---------------------------------------------------------------------------


RATES = RateTable({date(2021, 4, 21): Decimal("2300")})


def test_convert_multiplies_by_day_rate():
    event = ev("a", "b", "a", eth=Decimal("2.0"), ts=at(2021, 4, 21, 23, 59))
    converted = convert_currency(log_of(event), RATES)
    assert converted.price_usd[0] == Decimal("4600.0")


def test_convert_leaves_priced_events_unchanged():
    event = ev("a", "b", "a", usd=100, ts=0)
    log = log_of(event)
    converted = convert_currency(log, RATES)
    assert converted is log


def test_convert_missing_rate_lists_dates():
    event = ev("a", "b", "a", eth=Decimal("1"), ts=at(2021, 4, 23, 1, 0))
    with pytest.raises(MissingRateError) as excinfo:
        convert_currency(log_of(event), RATES)
    assert excinfo.value.missing_dates == (date(2021, 4, 23),)
    assert "2021-04-23" in str(excinfo.value)


def test_convert_idempotent():
    event = ev("a", "b", "a", eth=Decimal("2.0"), ts=at(2021, 4, 21, 12, 0))
    once = convert_currency(log_of(event), RATES)
    twice = convert_currency(once, RATES)
    assert log_value(once) == log_value(twice)


def test_convert_refuses_products_beyond_the_float_range():
    largest = Decimal(sys.float_info.max)
    rates = RateTable({date(2021, 4, 21): Decimal(1), date(2021, 4, 22): Decimal("1.0000000000000001")})

    def eth_sale(day: int) -> tuple[str, ...]:
        return ev("a", "b", "a", eth=largest, ts=at(2021, 4, day, 12, 0))

    # the largest double itself converts; a product above it, which still
    # rounds to that double, is refused as ingest refuses such a price
    assert convert_currency(log_of(eth_sale(21)), rates).price_usd[0] == largest
    with pytest.raises(ValueError) as excinfo:
        convert_currency(log_of(eth_sale(21), eth_sale(22)), rates)
    assert str(excinfo.value) == (
        "the sale of 2021-04-22 converts to 1.797693E+308 USD, beyond the float range"
    )


def test_convert_admits_products_at_the_digit_and_exponent_bounds():
    rates = RateTable({date(2021, 4, 21): Decimal("1E-200"), date(2021, 4, 22): Decimal("1" * 100 + "." + "1" * 100)})
    at_bounds = log_of(
        ev("a", "b", "a", eth=Decimal("1E-200"), ts=at(2021, 4, 21, 12, 0)),
        ev("a", "c", "a", eth=Decimal("9" * 100 + "." + "9" * 100), ts=at(2021, 4, 22, 12, 0)),
    )
    usd = convert_currency(at_bounds, rates).price_usd
    assert usd[0].as_tuple().exponent == -400
    assert len(usd[1].as_tuple().digits) == 400


def test_rate_table_rejects_bad_rows():
    with pytest.raises(ValueError, match="header"):
        RateTable.from_csv(b"day,rate\n2021-01-01,10\n")
    with pytest.raises(ValueError, match="duplicate date"):
        RateTable.from_csv(b"date,usd_per_eth\n2021-01-01,10\n2021-01-01,11\n")
    with pytest.raises(ValueError, match="non-positive"):
        RateTable.from_csv(b"date,usd_per_eth\n2021-01-01,0\n")


@pytest.mark.parametrize(
    "row, error",
    [
        ("2021-13-01,10", "rate table line 4: month must be in 1..12"),
        ("2021-01-02,ten", "rate table line 4: "),
        ("2021-01-02", "rate table line 4: list index out of range"),
    ],
)
def test_rate_table_skips_blank_rows_and_names_a_bad_line(row, error):
    # lines 2 and 3 are blank, the second of empty cells
    rates = RateTable.from_csv(b"date,usd_per_eth\n\n,\n2021-01-01,10\n\n")
    assert rates.rates == {date(2021, 1, 1): Decimal(10)}
    with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
        RateTable.from_csv(f"date,usd_per_eth\n\n,\n{row}\n".encode())


@pytest.mark.parametrize("rate", ["Infinity", "-Infinity", "NaN", "sNaN"])
def test_rate_table_rejects_non_finite_rates(rate):
    with pytest.raises(ValueError, match="line 3: non-finite rate"):
        RateTable.from_csv(f"date,usd_per_eth\n2021-01-01,10\n2021-01-02,{rate}\n".encode())
    with pytest.raises(ValueError, match="non-finite exchange rate for 2021-01-02"):
        RateTable({date(2021, 1, 2): Decimal(rate)})


# ---------------------------------------------------------------------------
# Count invariants over generated inputs
# ---------------------------------------------------------------------------

_ids = st.text(alphabet="abcdxyz", min_size=0, max_size=3)
_record = st.fixed_dictionaries(
    {
        "seller": _ids,
        "buyer": _ids,
        "creator": _ids,
        "price_usd": st.one_of(st.just(""), st.integers(-5, 5).map(str), st.just("oops")),
        "timestamp": st.one_of(st.just(""), st.integers(0, 10_000).map(str), st.just("bad")),
    }
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_record, max_size=25))
def test_accepted_plus_rejected_equals_total(records):
    buffer = io.StringIO()
    buffer.write("seller,buyer,creator,price_usd,timestamp\n")
    for r in records:
        buffer.write(f"{r['seller']},{r['buyer']},{r['creator']},{r['price_usd']},{r['timestamp']}\n")
    log, rejects = parse_events(buffer.getvalue().encode(), "csv")
    assert log.accepted_count + log.rejected_count == log.total_records == len(records)
    assert len(rejects) == log.rejected_count
    for earlier, later in zip(log.timestamp.tolist(), log.timestamp[1:].tolist()):
        assert earlier <= later


def test_convert_is_exact_at_wei_precision():
    payload = (
        b'{"seller":"a","buyer":"b","creator":"a",'
        b'"price_eth":123.456789012345678901,"timestamp":"2021-04-21T10:00:00Z"}\n'
    )
    log, rejects = parse_events(payload, "json")
    assert rejects == []
    rates = RateTable({date(2021, 4, 21): Decimal("1234.56789")})
    converted = convert_currency(log, rates)
    usd = converted.price_usd[0]
    assert str(usd) == "152415.78751714678875142508889"
    buffer = io.StringIO()
    write_events_csv(converted, buffer)
    assert "152415.78751714678875142508889" in buffer.getvalue()


# ---------------------------------------------------------------------------
# The CSV fast path against the full validator
# ---------------------------------------------------------------------------

_clean_id = st.sampled_from(("a", "b", "c", "d"))
_clean = (
    _clean_id,
    _clean_id,
    _clean_id,
    st.sampled_from(["", "1", "0.000001", "12.50"]),
    st.sampled_from(["", "3", "1E+3", "2300.10"]),
    st.one_of(
        st.integers(0, 2_000_000_000).map(str),
        st.integers(_MIN_EPOCH, _MAX_EPOCH).map(
            lambda s: datetime.fromtimestamp(s, tz=timezone.utc).isoformat()
        ),
    ),
    st.sampled_from(["", "art1", "art2"]),
)
_odd_id = st.sampled_from(
    ["", "  ", " a", "a ", "b\t", " c", "é", "x,y", 'q"r', "l\nm", "True", "1"]
)
_odd_price = st.sampled_from(
    [" ", " 2 ", "-0", "-0.00", "-1", "1_0", "1E+3", "nan", "sNaN", "Infinity", "-Infinity",
     "abc", "١", "1e400", "1.7976931348623157E+308", "1.8E+308", ".5", "+3"]
)
_odd_timestamp = st.sampled_from(
    ["", " ", "-1", "+5", "007", "1_000", "253402300799", "253402300800",
     "99999999999999999999", "1.5", "1e3", "١٢", "²", " 100", "yesterday",
     "2021-04-21T10:00:00Z", "2021-04-21T10:00:00+02:00", "2021-04-21T10:00:00-00:00",
     "2021-04-21 10:00:00+00:00", "20210421T100000.500+00:00", "   2021-04-21T10:00+00:00",
     "2021-04-21T10:00:00+00:00 ", "0001-01-01T00:00:00+00:00", "9999-12-31T23:59:59+00:00",
     "0001-01-01T00:00:00+01:00", "2021-04-21T10:00:00.12345", "2021-04-21"]
)
_odd_artwork = st.sampled_from([" ", " x ", "a,b", "n\nl", '"'])
_odd = (_odd_id, _odd_id, _odd_id, _odd_price, _odd_price, _odd_timestamp, _odd_artwork)
# clean rows, rows with one odd cell, and rows that mix odd cells freely
_csv_rows = st.lists(
    st.one_of(
        st.tuples(*_clean),
        *(st.tuples(*_clean[:i], _odd[i], *_clean[i + 1 :]) for i in range(len(_clean))),
        st.tuples(*(st.one_of(clean, odd) for clean, odd in zip(_clean, _odd))),
    ),
    max_size=40,
)

# JSON cells: literals, so that prices can be Decimals as parse_events reads them
_json_cell = st.sampled_from(
    ['"a"', '"b"', '" a "', '""', "1", "2", "true", "false", "null", "[1]", "{}", "1.50",
     '"1.50"', "100", "100.0", "100.5", '"100"', '"2021-04-21T10:00:00+00:00"', "-1", "1E+3"]
)
_json_rows = st.lists(st.lists(_json_cell, min_size=7, max_size=7), max_size=30)


def _full_validator(rows):
    """The log and rejects of feeding every record to ``_Records.add``."""
    records = ingest._Records()
    for row_num, cells in enumerate(rows, start=1):
        records.add(row_num, *cells)
    records.flush()
    ids = list(map(records.users.__getitem__, records.codes))
    expected_events = sorted(
        zip(
            ids[0::3],
            ids[1::3],
            ids[2::3],
            records.price_eth.column.tolist(),
            records.price_usd.column.tolist(),
            records.timestamp,
            records.artwork.column.tolist(),
        ),
        key=lambda event: event[5],
    )
    return records.log("", len(rows)), records.rejects, expected_events


def _columns(log):
    return (
        log.users,
        log.seller.tolist(),
        log.buyer.tolist(),
        log.creator.tolist(),
        log.timestamp.tolist(),
        [repr(price) for price in log.price_eth.tolist()],
        [repr(price) for price in log.price_usd.tolist()],
        log.artwork.tolist(),
        log.total_records,
        log.rejected_count,
    )


def _check_against_full_validator(log, rejects, rows):
    expected, expected_rejects, expected_events = _full_validator(rows)
    assert rejects == expected_rejects
    assert _columns(log) == _columns(expected)
    assert [a.dtype for a in (log.seller, log.buyer, log.creator, log.timestamp)] == [np.int64] * 4
    # sorted stably by timestamp, users numbered in id order
    users = log.users
    events = list(
        zip(
            map(users.__getitem__, log.seller.tolist()),
            map(users.__getitem__, log.buyer.tolist()),
            map(users.__getitem__, log.creator.tolist()),
            log.price_eth.tolist(),
            log.price_usd.tolist(),
            log.timestamp.tolist(),
            log.artwork.tolist(),
        )
    )
    assert [tuple(map(repr, e)) for e in events] == [tuple(map(repr, e)) for e in expected_events]
    assert list(users) == sorted({u for e in events for u in e[:3]})


@settings(max_examples=300, deadline=None)
@given(_csv_rows)
def test_csv_fast_path_keeps_what_the_full_validator_keeps(rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CANONICAL_FIELDS)
    writer.writerows(rows)
    log, rejects = parse_events(text.getvalue().encode(), "csv")
    _check_against_full_validator(log, rejects, rows)
    # events.csv is written as the csv module writes its rows, and reads back the same
    written = io.StringIO()
    write_events_csv(log, written)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CANONICAL_FIELDS)
    for e in sales(log):
        writer.writerow(
            [
                e.seller_id,
                e.buyer_id,
                e.creator_id,
                "" if e.price_eth is None else str(e.price_eth),
                "" if e.price_usd is None else str(e.price_usd),
                e.timestamp.isoformat(),
                e.artwork_id or "",
            ]
        )
    assert written.getvalue() == expected.getvalue()
    again, again_rejects = parse_events(written.getvalue().encode(), "csv")
    assert again_rejects == []
    assert _columns(again)[:-2] == _columns(log)[:-2]


@pytest.mark.parametrize(
    "rejected",
    [
        ("x", "y", "z", "", "-1", "100", ""),
        ("x", "y", "z", "", "1", "253402300800", ""),
        ("x", "x", "z", "", "1", "100", ""),
        ("a", "x", "x", "", "1", "2021-02-30T10:00:00Z", ""),
    ],
    ids=["price", "timestamp", "self-sale", "iso-timestamp"],
)
def test_a_rejected_record_codes_none_of_its_new_ids(rejected):
    # every id of the rejected record but "a" is new, and each one is its own
    # strip, as the fast path takes new ids; the ids of a kept record follow
    rows = [("a", "b", "a", "", "1", "100", ""), rejected, ("c", "z", "c", "", "2", "200", "")]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CANONICAL_FIELDS)
    writer.writerows(rows)
    log, rejects = parse_events(text.getvalue().encode(), "csv")
    assert [r.row for r in rejects] == [2]
    assert log.users == ("a", "b", "c", "z")
    _check_against_full_validator(log, rejects, rows)


# ---------------------------------------------------------------------------
# The CSV block reader at its edges
# ---------------------------------------------------------------------------

_plain = (
    _clean_id,
    _clean_id,
    _clean_id,
    st.sampled_from(["", "1.5", "20"]),
    st.sampled_from(["", "3", "2300.10"]),
    st.sampled_from(["1619000000", "2021-04-21T10:00:00Z", "2021-04-21T11:00:00+00:00"]),
    st.sampled_from(["", "art1"]),
)
# cells at the edges of the block reader's checks
_EDGE_IDS = ["é", "", "\ta", "a\t", "\x1cb", "b\x1c", "\xa0c", "c\xa0", "\u3000a", "a\u3000"]
_EDGE_PRICES = [
    "5.", ".5", ".", "1.2.3", "-0", "٣", "1٣.5", "007.10", "0.000", "999999999999999999",
    "99999999999999999.9", ".999999999999999999", "9999999999999999999", "999999999999999999.9",
]
_EDGE_STAMPS = [
    "0", "000000000007", "0000000000007", "253402300799", "253402300800", "999999999999",
    "2021-04-21 10:00:00+00:00", "2021-04-21t10:00:00Z", "2021-W16-3T10:00:00+00:00",
    "2021-04-21T24:00:00+00:00", "2021-04-21T23:59:60Z", "0000-01-01T00:00:00+00:00",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59+00:00", "1900-02-29T12:00:00Z",
    "2000-02-29T12:00:00+00:00", "2023-02-29T12:00:00Z", "2024-02-29T23:59:59Z",
    "2021-04-31T10:00:00Z", "2021-00-10T10:00:00Z", "2021-12-31T10:00:00-00:00",
    "2021-04-21T10:00:00+01:00", "2021-04-21T10:00:00.5Z",
]
_EDGE_ARTWORKS = ["\tart", "art\t", "\x1cart", "art\x1c", "\xa0art", "art\u3000", "é"]
_edge = tuple(
    map(st.sampled_from, [_EDGE_IDS] * 3 + [_EDGE_PRICES] * 2 + [_EDGE_STAMPS, _EDGE_ARTWORKS])
)


def _plain_row_with(column, cell):
    row = ["a", "b", "c", "", "3", "1619000000", "art1"]
    row[column] = cell
    return tuple(row)


# each edge cell once, in a row that is otherwise kept; ids in turn as seller,
# buyer and creator
_EDGE_ROWS = [
    *(_plain_row_with(k % 3, cell) for k, cell in enumerate(_EDGE_IDS)),
    *(_plain_row_with(column, cell) for column in (3, 4) for cell in _EDGE_PRICES),
    *(_plain_row_with(5, cell) for cell in _EDGE_STAMPS),
    *(_plain_row_with(6, cell) for cell in _EDGE_ARTWORKS),
]


@st.composite
def _edge_row(draw):
    # a plain row, one with an edge cell (most often the timestamp, whose
    # checks are the most), or one that mixes edge cells freely
    kind = draw(st.sampled_from(["plain", 0, 1, 2, 3, 4, 5, 5, 5, 6, "mix"]))
    return tuple(
        draw(st.one_of(plain, edge) if kind == "mix" else edge if kind == i else plain)
        for i, (plain, edge) in enumerate(zip(_plain, _edge))
    )


# a line that sends its block through csv.reader
_odd_line = st.sampled_from(
    ['"a",b,a,,1,0,x', 'a,"b\nc",a,,1,0,x', "a,b,a,,1,0,x\rb,c,b,,2,0,y", "a\x00,b,a,,1,0,x", "",
     "a,b,a,,1", "a,b,a,,1,0,x,extra"]
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_edge_row(), max_size=20).flatmap(lambda rows: st.permutations(rows + _EDGE_ROWS)),
    st.none() | st.tuples(st.integers(0, 100), _odd_line),
    st.integers(1, 3),
    st.sampled_from(["\n", "\r\n"]),
)
def test_csv_block_reader_keeps_what_the_full_validator_keeps(rows, odd, ranges, end):
    # blocks of 3 lines put every edge cell in a block of its own kind
    lines = [",".join(row) for row in rows]
    if odd is not None:
        lines.insert(odd[0], odd[1])
    text = end.join([",".join(CANONICAL_FIELDS), *lines]) + end
    records = [row for row in csv.reader(io.StringIO(text, newline=""))][1:]
    expected = [tuple(row[:7]) + (None,) * (7 - len(row)) for row in records if row]
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(ingest, "_BLOCK_LINES", 3)
        log, rejects = parse_events(text.encode(), "csv")
        _check_against_full_validator(log, rejects, expected)
        path = os.path.join(tmp, "sales.csv")
        with open(path, "wb") as stream:
            stream.write(text.encode())
        patch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)))
        with open(path, "rb") as stream:
            log, rejects = parse_events(stream, "csv")
    _check_against_full_validator(log, rejects, expected)


def test_only_a_block_that_is_not_plain_goes_through_csv_reader(monkeypatch):
    validated = []
    validate = ingest._validate
    monkeypatch.setattr(
        ingest, "_validate", lambda rows, *args: validated.append(len(rows)) or validate(rows, *args)
    )
    # blocks of records 1-2, 3-5, 6-8 and 9-10, the first of twice the least length
    monkeypatch.setattr(ingest, "_BLOCK_LINES", 3)
    lines = [f"s{i},b{i},s{i},,{i}.5,{1619000000 + i},art{i}" for i in range(10)]
    lines[4] = '"s4",b4,s4,,4.5,1619000004,art4'
    text = "\n".join([",".join(CANONICAL_FIELDS), *lines]) + "\n"
    log, rejects = parse_events(text.encode(), "csv")
    assert (log.accepted_count, rejects) == (10, [])
    assert validated == [3]  # records 3 to 5


@settings(max_examples=150, deadline=None)
@given(_json_rows)
def test_json_records_keep_what_the_full_validator_keeps(rows):
    records = ",".join(
        "{" + ",".join(f'"{name}":{cell}' for name, cell in zip(CANONICAL_FIELDS, row)) + "}"
        for row in rows
    )
    log, rejects = parse_events(f"[{records}]".encode(), "json")
    cells = [[json.loads(cell, parse_float=Decimal) for cell in row] for row in rows]
    _check_against_full_validator(log, rejects, cells)


# ---------------------------------------------------------------------------
# Users coded in id order
# ---------------------------------------------------------------------------


def test_event_log_refuses_users_out_of_id_order():
    log, _ = parse_events(CSV_3ROWS, "csv")
    assert log.users == ("alice", "bob", "carol", "dan")
    for users in (("bob", "alice", "carol", "dan"), ("alice", "alice", "carol", "dan")):
        with pytest.raises(ValueError, match="^users must be in strictly increasing id order$"):
            replace(log, users=users)


# ids whose code-point order differs from their first appearance
_order_id = st.text(alphabet="aAbB0_é中,", min_size=1, max_size=3)
_distinct_pair = st.tuples(_order_id, _order_id).filter(lambda pair: pair[0] != pair[1])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_distinct_pair, _order_id, st.sampled_from(["1", "2.50", "1E+3"])), max_size=30),
    st.data(),
)
def test_users_are_coded_in_id_order_whatever_the_row_order(rows, data):
    # row i is sold at second i, so a shuffle changes the input order but not the events
    rows = [(s, b, c, usd, str(i)) for i, ((s, b), c, usd) in enumerate(rows)]
    shuffled = data.draw(st.permutations(rows))
    logs = []
    for ordering in (rows, shuffled):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("seller", "buyer", "creator", "price_usd", "timestamp"))
        writer.writerows(ordering)
        log, rejects = parse_events(text.getvalue().encode(), "csv")
        assert rejects == []
        logs.append(log)
    ids = {user for row in rows for user in row[:3]}
    written = []
    for log in logs:
        assert log.users == tuple(sorted(ids))
        out = io.StringIO()
        write_events_csv(log, out)
        written.append(out.getvalue())
    assert _columns(logs[0]) == _columns(logs[1])
    assert written[0] == written[1]


def test_parse_leaves_a_binary_stream_open():
    stream = io.BytesIO(CSV_3ROWS)
    log, rejects = parse_events(stream, "csv")
    assert (log.accepted_count, rejects) == (3, [])
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == CSV_3ROWS


def test_parse_reads_a_text_stream():
    log, rejects = parse_events(io.StringIO(CSV_3ROWS.decode()), "csv")
    assert log_value(log) == log_value(parse_events(CSV_3ROWS, "csv")[0])
    assert rejects == []


def test_invalid_utf8_deep_in_the_input_is_fatal():
    rows = [b"s%d,b,s%d,1.5,,%d,art\n" % (i, i, i) for i in range(1500)]
    rows[1200] = b"s\xff,b,s,1.5,,1200,art\n"
    stream = io.BytesIO(b"seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n" + b"".join(rows))
    with pytest.raises(ValueError, match=r"^input is not valid UTF-8: "):
        parse_events(stream, "csv")
    assert not stream.closed


@pytest.mark.parametrize("special", [",", "\n", "\r", '"', "\r\n"])
@pytest.mark.parametrize("where", [0, 1, 99])
def test_csv_chunk_with_one_field_that_needs_quoting(special, where):
    header = ("user", "price", "note")
    rows = [(f"user{i}", f"{i}.50", "x y") for i in range(100)]
    rows[where] = (rows[where][0], f"p{special}q", "x y")
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([header] + rows)
    got = io.StringIO()
    write_csv(got, header, list(zip(*rows)))
    assert got.getvalue() == expected.getvalue()


# ---------------------------------------------------------------------------
# One-object-per-line JSON read in small pieces, against the whole-text reader
# ---------------------------------------------------------------------------

_LINE_ENDS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]
_NDJSON_LINES = [
    '{"seller":"a","buyer":"b","creator":"a","price_usd":1.50,"timestamp":"2021-04-21T10:00:00Z"}',
    '{"seller":"b","buyer":"c","creator":"a","price_eth":2,"timestamp":1619000000}',
    ' {"seller":"c","buyer":"a","creator":"c","price_usd":"3",'
    '"timestamp":"2021-04-21T11:00:00+00:00"} ',
    '{"seller":"a","buyer":"a","creator":"a","price_usd":1,"timestamp":0}',
    '{"seller":"a\u2028b","buyer":"c","creator":"a","price_usd":1,"timestamp":0}',
    '{"seller":"a\x85b","buyer":"c","creator":"a","price_usd":1,"timestamp":0}',
    '{"seller":"é","buyer":"☃","creator":"é","price_usd":1,"timestamp":5}',
    "[1]",
    "",
    "   ",
    "\t",
    "{",
]


def _parse_or_error(data, parse):
    try:
        log, rejects = parse(data)
    except ValueError as exc:
        return "error", str(exc)
    return _columns(log), rejects


class _SmallReads(io.RawIOBase):
    """A raw binary stream that returns at most ``size`` bytes per read, so that
    its reader meets a read boundary every ``size`` bytes."""

    def __init__(self, data: bytes, size: int = 1):
        self._data = io.BytesIO(data)
        self._size = size

    def readable(self):
        return True

    def readinto(self, buffer):
        piece = self._data.read(min(self._size, len(buffer)))
        buffer[: len(piece)] = piece
        return len(piece)


def _assert_blocks_read_as_whole(data: bytes, block_chars: int):
    stream = _SmallReads(data, block_chars)
    got = _parse_or_error(stream, lambda stream: parse_events(stream, "json"))
    assert got == _parse_or_error(data, parse_json_whole)


def test_ndjson_block_boundary_anywhere_splits_as_the_whole_text():
    text = (
        "\ufeff \r\n"
        + "\r\n".join(_NDJSON_LINES[:3])
        + "\r\r\n\x0c"
        + "\x0c".join(_NDJSON_LINES[3:8])
        + "\u2029 \x85\n"
        + _NDJSON_LINES[0]
    )
    data = text.encode()
    for block_chars in range(1, len(text) + 2):
        _assert_blocks_read_as_whole(data, block_chars)


@settings(max_examples=200, deadline=None)
@given(
    st.booleans(),
    st.text(" \t\n\r\x0c", max_size=12),
    st.lists(st.tuples(st.sampled_from(_NDJSON_LINES), st.sampled_from(_LINE_ENDS)), max_size=12),
    st.integers(1, 9),
)
def test_ndjson_blocks_read_as_the_whole_text(bom, lead, lines, block_chars):
    text = ("\ufeff" if bom else "") + lead + "".join(line + end for line, end in lines)
    _assert_blocks_read_as_whole(text.encode(), block_chars)


@pytest.mark.parametrize("block_chars", [1, 3, 4])
def test_whitespace_longer_than_a_block_before_an_array(block_chars):
    records = ",".join(_NDJSON_LINES[:4])
    _assert_blocks_read_as_whole(f"\n \r\n\t  \x0c[{records}]".encode(), block_chars)
    _assert_blocks_read_as_whole(f"\n \r\n\t  \x0c[{records}".encode(), block_chars)
    _assert_blocks_read_as_whole(b" \n\t \r\n  ", block_chars)


def test_invalid_line_deep_in_ndjson_is_fatal_with_its_record_number():
    lines = [_NDJSON_LINES[0]] * 2000 + ["", '{"seller": nope}'] + [_NDJSON_LINES[1]] * 10
    data = "\n".join(lines).encode()
    with pytest.raises(ValueError, match=r"^invalid JSON on record 2001: Expecting value"):
        parse_events(_SmallReads(data, 4096), "json")
    _assert_blocks_read_as_whole(data, 4096)


def test_invalid_utf8_after_the_first_ndjson_block_is_fatal():
    line = _NDJSON_LINES[0].encode() + b"\n"
    stream = _SmallReads(line * 400 + b'{"seller":"\xff"}\n' + line, 64)
    with pytest.raises(ValueError, match=r"^input is not valid UTF-8: "):
        parse_events(stream, "json")
    assert not stream.closed


def test_ndjson_line_separators_inside_a_string_stay_in_the_record():
    records = [
        {"seller": "a", "buyer": "b", "creator": "a", "price_usd": "1", "timestamp": 100,
         "artwork_id": f"x{separator}y"}
        for separator in ("\u2028", "\u2029", "\x85")
    ]
    ndjson = "\n".join(json.dumps(record, ensure_ascii=False) for record in records)
    log, rejects = parse_events(ndjson.encode(), "json")
    assert rejects == []
    assert log.artwork.tolist() == ["x\u2028y", "x\u2029y", "x\x85y"]
    array, _ = parse_events(json.dumps(records, ensure_ascii=False).encode(), "json")
    assert _columns(log) == _columns(array)


class _SizedReadsOnly(_SmallReads):
    """A raw binary stream of small reads that refuses to be read whole."""

    def readall(self):
        raise AssertionError("read of the whole stream")


def test_ndjson_is_read_in_sized_blocks_and_the_stream_left_open():
    data = "\n".join(_NDJSON_LINES[:3] * 50).encode()
    stream = _SizedReadsOnly(data, 100)
    log, rejects = parse_events(stream, "json")
    assert (log.total_records, rejects) == (150, [])
    assert not stream.closed
    assert (_columns(log), rejects) == (_columns(parse_json_whole(data)[0]), [])


# ---------------------------------------------------------------------------
# JSON records on the shared fast path, against the full validator
# ---------------------------------------------------------------------------

_JSON_TIMESTAMPS = [
    '"2021-04-21T10:00:00Z"', '"2021-04-21T10:00:00+00:00"', '"1619000000"', "1619000000",
    '"2021-04-21T10:00:00"', '"2021-04-21Z10:00:00Z"', '"2021-04-21Z10:00:00+00:00"',
    '"20210421T100000.500Z"', '"2021-04-21 10:00:00Z"', '"0001-01-01T00:00:00Z"',
    '"9999-12-31T23:59:59Z"', '" 2021-04-21T10:00:00Z"', '"2021-04-21T10:00:00z"',
    "1619000000.0", "1619000000.5", '"١٢"', '""', "null", "true", "NaN", "[]", "{}",
]
# every type json yields: str, int, bool, None, Decimal, float (constants), list, dict
_JSON_ANY = [
    '"a"', '" a "', '""', '"1.5"', '"-1"', '"nan"', '"1E+400"', "1", "0", "-1", "true", "false",
    "null", "1.50", "0.0", "-0.0", "-0", "1E+3", "-2.5", "1.8E+308", "1e400",
    "123.456789012345678901", "NaN", "Infinity", "-Infinity", "[1]", "[]", "{}", '{"a":1}',
]
_json_clean = (
    st.sampled_from(['"a"', '"b"', '"c"']),
    st.sampled_from(['"a"', '"b"', '"c"']),
    st.sampled_from(['"a"', '"b"', '"c"']),
    st.sampled_from([None, "null", "1.5", "0.000001", "1E+3", '"2.50"', '""']),
    st.sampled_from([None, "null", "2300.10", "0", '"12"', "-0.0"]),
    st.sampled_from(['"2021-04-21T10:00:00Z"', '"2021-04-21T11:00:00+00:00"', '"1619000000"']),
    st.sampled_from([None, "null", '"art1"', '" art2 "', '""']),
)
_json_odd = (
    *[st.sampled_from(_JSON_ANY)] * 5,
    st.sampled_from(_JSON_TIMESTAMPS),
    st.sampled_from(_JSON_ANY),
)
# the source key of each canonical field: itself, or an alias the field map renames
_ALIASES = {"seller": "from", "buyer": "to", "price_usd": "usd", "timestamp": "when"}
_JSON_FIELD_MAP = {alias: name for name, alias in _ALIASES.items()}


@st.composite
def _json_record(draw):
    # a record that is not an object, a clean one, one with an odd cell (most
    # often the timestamp, whose fast-path check is the subtlest), or a mix
    kind = draw(st.sampled_from(["other", "clean", 0, 1, 2, 3, 4, 5, 5, 5, 6, "mix"]))
    if kind == "other":
        return draw(st.sampled_from(["5", '"x"', "[1]", "null", "[]", "true"]))
    cells = [
        draw(st.one_of(clean, odd) if kind == "mix" else odd if kind == i else clean)
        for i, (clean, odd) in enumerate(zip(_json_clean, _json_odd))
    ]
    items = []
    for name, cell in zip(CANONICAL_FIELDS, cells):
        if cell is None:
            continue  # the field is absent
        alias = _ALIASES.get(name)
        if alias and draw(st.booleans()):
            items.append((alias, cell))
            if draw(st.booleans()):  # the mapped key wins over a canonical one
                items.append((name, draw(st.sampled_from(_JSON_ANY))))
        else:
            items.append((name, cell))
    if draw(st.booleans()):
        items.append(("extra", draw(st.sampled_from(_JSON_ANY))))
    items = draw(st.permutations(items))
    return "{" + ",".join(f'"{key}":{value}' for key, value in items) + "}"


_JSON_PLAIN = {
    "seller": '"a"',
    "buyer": '"b"',
    "creator": '"c"',
    "price_eth": "1.5",
    "price_usd": '"3"',
    "timestamp": '"2021-04-21T10:00:00Z"',
    "artwork_id": '"art1"',
}
_JSON_NUMBERS = ["1.5", "1e400", "1e-7", "1E+3"]
_NOT_TEXT = ["null", "7", "true", "[1]"]
_SURROGATE = '"\\ud800"'
# cells the block reader must not read as joined text, or that make it refuse
# their block: each once per example, in a record that is otherwise kept
_JSON_EDGES = [
    *((name, cell) for name in ("seller", "buyer", "creator", "artwork_id")
      for cell in [*_JSON_NUMBERS, *_NOT_TEXT, _SURROGATE]),
    *((name, cell) for name in ("price_eth", "price_usd") for cell in [*_NOT_TEXT, '"1\\udc00"']),
    *(("timestamp", cell) for cell in [*_NOT_TEXT, "1619000000", "1619000000.0"]),
    *((name, cell) for name, cell in zip(
        ["seller", "buyer", "creator"] * 2,
        ['"a\\"b"', '"a,b"', '"a\\nb"', '"a\\rb"', '"a\\u0000b"', '"a\\r\\nb"'],
    )),
]
_JSON_EDGE_RECORDS = [
    "{" + ",".join(f'"{key}":{value}' for key, value in {**_JSON_PLAIN, name: edge}.items()) + "}"
    for name, edge in _JSON_EDGES
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_json_record(), max_size=30).flatmap(
        lambda records: st.permutations(records + _JSON_EDGE_RECORDS)
    ),
    st.booleans(),
    st.integers(1, 3),
)
def test_json_fast_path_keeps_what_the_full_validator_keeps(records, as_array, ranges):
    # blocks of 3 records put the edge records in blocks of every kind
    text = "[" + ",".join(records) + "]" if as_array else "\n".join(records)
    data = text.encode()
    expected = _parse_or_error(data, lambda raw: parse_json_whole(raw, _JSON_FIELD_MAP))

    def parse(raw):
        return parse_events(raw, "json", field_map=_JSON_FIELD_MAP)

    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(ingest, "_BLOCK_LINES", 3)
        assert _parse_or_error(data, parse) == expected
        path = os.path.join(tmp, "sales.ndjson")
        with open(path, "wb") as stream:
            stream.write(data)
        patch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)))
        with open(path, "rb") as stream:
            got = _parse_or_error(stream, parse)
    assert got == expected


@pytest.mark.parametrize("when", ["2021-04-21Z10:00:00Z", "2021-04-21Z10:00:00+00:00"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_z_as_date_time_separator_is_rejected_for_known_ids_too(when, fmt):
    # the full validator reads every "Z" as "+00:00"; the fast path must not
    # accept what it rejects once the ids are known
    if fmt == "csv":
        payload = f"seller,buyer,creator,price_usd,timestamp\na,b,a,1,0\na,b,a,1,{when}\n"
    else:
        payload = "\n".join(
            json.dumps(
                {"seller": "a", "buyer": "b", "creator": "a", "price_usd": "1", "timestamp": t}
            )
            for t in ("0", when)
        )
    log, rejects = parse_events(payload.encode(), fmt)
    assert log.accepted_count == 1
    assert rejects == [ingest.RejectReport(row=2, reason=f"bad timestamp: {when!r}")]


# ---------------------------------------------------------------------------
# events.csv timestamp text
# ---------------------------------------------------------------------------

_EPOCH_EDGES = [
    _MIN_EPOCH, _MIN_EPOCH + 86_399, _MAX_EPOCH, _MAX_EPOCH - 86_399, -1, 0, 1, 86_399, 86_400,
    951_782_400,  # 2000-02-29T00:00:00
    951_868_799,  # 2000-02-29T23:59:59
    -2_203_977_600,  # 1900-02-28T00:00:00
    -2_203_891_200,  # 1900-03-01T00:00:00, the next day
    -11_670_998_400,  # 1600-02-29T00:00:00
    -62_130_499_200,  # 0001-03-01T00:00:00
    253_370_764_800,  # 9999-01-01T00:00:00
]


def _numpy_timestamp_text(epoch):
    return [
        text + "+00:00"
        for text in np.datetime_as_string(epoch.astype("datetime64[s]"), unit="s").tolist()
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(_MIN_EPOCH, _MAX_EPOCH), st.sampled_from(_EPOCH_EDGES)), max_size=50
    )
)
def test_timestamp_text_matches_numpy(epochs):
    epoch = np.array(epochs, dtype=np.int64)
    assert ingest._timestamp_text(epoch) == _numpy_timestamp_text(epoch)


def test_timestamp_text_of_every_day_in_leap_cycles():
    # every day of 0001-0004, 1599-1604, 1896-1904, 1968-1972 and 9996-9999, at
    # midnight and one second before the next
    starts = [_MIN_EPOCH, -11_707_632_000, -2_335_219_200, -63_158_400, 253_276_070_400]
    days = np.concatenate([start + 86_400 * np.arange(4 * 366) for start in starts])
    days = days[days <= _MAX_EPOCH]
    epoch = np.concatenate([days, days + 86_399])
    assert ingest._timestamp_text(epoch) == _numpy_timestamp_text(epoch)
    assert ingest._timestamp_text(epoch[:0]) == []


# ---------------------------------------------------------------------------
# Bounded writes
# ---------------------------------------------------------------------------


def test_write_csv_writes_at_most_one_chunk_per_call():
    chunk = columns.CSV_CHUNK_ROWS
    rows = [(f"u{i:06d}", "1.50") for i in range(3 * chunk + 1)]
    rows[chunk + 7] = ("u,quoted", "1.50")
    stream = WriteLog()
    # the first row is the header; the other 3 chunks of rows are the columns
    write_csv(stream, rows[0], list(zip(*rows[1:])))
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert stream.getvalue() == expected.getvalue()
    assert max(text.count("\n") for text in stream.writes) == chunk
    assert len(stream.writes) >= 4


def test_write_events_csv_writes_at_most_one_chunk_per_call():
    chunk = columns.CSV_CHUNK_ROWS
    lines = [
        f"u{i % 50},v{i % 40},u{i % 50},,1.5,{1_600_000_000 + i},art{i}"
        for i in range(3 * chunk + 1)
    ]
    lines[2 * chunk + 3] = 'u1,v1,u1,,1.5,1600000000,"art,quoted"'
    payload = "seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n" + "\n".join(lines)
    log, rejects = parse_events(payload.encode(), "csv")
    assert (log.accepted_count, rejects) == (3 * chunk + 1, [])
    stream = WriteLog()
    write_events_csv(log, stream)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CANONICAL_FIELDS)
    for e in sales(log):
        writer.writerow(
            [e.seller_id, e.buyer_id, e.creator_id, "", str(e.price_usd),
             e.timestamp.isoformat(), e.artwork_id]
        )
    assert stream.getvalue() == expected.getvalue()
    assert max(text.count("\n") for text in stream.writes) == chunk
    assert len(stream.writes) >= 4
