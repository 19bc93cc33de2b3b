"""Parsing, validation, and currency-conversion behavior."""

import csv
import io
import json
import sys
from datetime import date, datetime, timezone
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import (
    MissingRateError,
    RateTable,
    SaleEvent,
    convert_currency,
    parse_events,
    write_events_csv,
)
from artrank import ingest
from artrank.ingest import _MAX_EPOCH, _MIN_EPOCH, CANONICAL_FIELDS, write_csv_rows
from helpers import ev, log_of

CSV_3ROWS = b"""seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id
alice,bob,alice,1.0,2300,2021-04-21T10:00:00Z,art1
bob,carol,alice,0.5,1200,2021-04-21T11:00:00Z,art1
alice,dan,alice,2.0,4600,1619000000,art2
"""


def test_parse_well_formed_csv():
    log, rejects = parse_events(CSV_3ROWS, "csv")
    assert rejects == []
    assert log.accepted_count == 3
    assert log.total_records == 3
    assert log.rejected_count == 0
    first = log.events[0]
    assert first.seller_id == "alice"
    assert first.buyer_id == "bob"
    assert first.creator_id == "alice"
    assert first.price_eth == Decimal("1.0")
    assert first.price_usd == Decimal("2300")
    assert first.artwork_id == "art1"
    assert first.timestamp == datetime(2021, 4, 21, 10, 0, tzinfo=timezone.utc)


def test_parse_derives_market_side():
    log, _ = parse_events(CSV_3ROWS, "csv")
    by_seller = {e.seller_id: e.market for e in log.events}
    assert by_seller["alice"] == "primary"  # alice sells her own creation
    assert by_seller["bob"] == "secondary"  # bob resells alice's piece


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


def test_needs_conversion_flag_roundtrips():
    payload = (
        b"seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n"
        b"alice,bob,alice,1.5,,2021-04-21T10:00:00Z,art1\n"
    )
    log, rejects = parse_events(payload, "csv")
    assert rejects == []
    event = log.events[0]
    assert event.needs_conversion
    assert event.price_usd is None
    assert event.price_eth == Decimal("1.5")

    buffer = io.StringIO()
    write_events_csv(log, buffer)
    relog, rerejects = parse_events(buffer.getvalue().encode(), "csv")
    assert rerejects == []
    assert relog.events == log.events
    assert relog.events[0].needs_conversion


def test_events_sorted_by_timestamp():
    payload = (
        b"seller,buyer,creator,price_usd,timestamp\n"
        b"a,b,a,3,300\n"
        b"c,d,c,1,100\n"
        b"e,f,e,2,200\n"
    )
    log, _ = parse_events(payload, "csv")
    assert [int(e.timestamp.timestamp()) for e in log.events] == [100, 200, 300]


def test_parse_json_array_and_ndjson():
    array = b'[{"seller":"a","buyer":"b","creator":"a","price_usd":10.5,"timestamp":100}]'
    log, rejects = parse_events(array, "json")
    assert rejects == [] and log.accepted_count == 1
    assert log.events[0].price_usd == Decimal("10.5")

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
    assert log.events[0].seller_id == "alice"
    assert log.events[0].buyer_id == "bob"


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
    assert one == two


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
    event = SaleEvent(
        seller_id="a",
        buyer_id="b",
        creator_id="a",
        price_eth=Decimal("2.0"),
        price_usd=None,
        timestamp=datetime(2021, 4, 21, 23, 59, tzinfo=timezone.utc),
    )
    converted = convert_currency(log_of(event), RATES)
    assert converted.events[0].price_usd == Decimal("4600.0")


def test_convert_leaves_priced_events_unchanged():
    event = ev("a", "b", "a", usd=100, ts=0)
    log = log_of(event)
    converted = convert_currency(log, RATES)
    assert converted.events[0] is event


def test_convert_missing_rate_lists_dates():
    event = SaleEvent(
        seller_id="a",
        buyer_id="b",
        creator_id="a",
        price_eth=Decimal("1"),
        price_usd=None,
        timestamp=datetime(2021, 4, 23, 1, 0, tzinfo=timezone.utc),
    )
    with pytest.raises(MissingRateError) as excinfo:
        convert_currency(log_of(event), RATES)
    assert excinfo.value.missing_dates == (date(2021, 4, 23),)
    assert "2021-04-23" in str(excinfo.value)


def test_convert_idempotent():
    event = SaleEvent(
        seller_id="a",
        buyer_id="b",
        creator_id="a",
        price_eth=Decimal("2.0"),
        price_usd=None,
        timestamp=datetime(2021, 4, 21, 12, 0, tzinfo=timezone.utc),
    )
    once = convert_currency(log_of(event), RATES)
    twice = convert_currency(once, RATES)
    assert once == twice


def test_rate_table_rejects_bad_rows():
    with pytest.raises(ValueError, match="header"):
        RateTable.from_csv(b"day,rate\n2021-01-01,10\n")
    with pytest.raises(ValueError, match="duplicate date"):
        RateTable.from_csv(b"date,usd_per_eth\n2021-01-01,10\n2021-01-01,11\n")
    with pytest.raises(ValueError, match="non-positive"):
        RateTable.from_csv(b"date,usd_per_eth\n2021-01-01,0\n")


@pytest.mark.parametrize("rate", ["Infinity", "-Infinity", "NaN", "sNaN"])
def test_rate_table_rejects_non_finite_rates(rate):
    with pytest.raises(ValueError, match="line 3: non-finite rate"):
        RateTable.from_csv(f"date,usd_per_eth\n2021-01-01,10\n2021-01-02,{rate}\n".encode())
    with pytest.raises(ValueError, match="non-finite exchange rate for 2021-01-02"):
        RateTable({date(2021, 1, 2): Decimal(rate)})


def test_event_invariants_enforced():
    with pytest.raises(ValueError, match="self-sale"):
        ev("a", "a", "a", usd=1)
    with pytest.raises(ValueError, match="neither"):
        ev("a", "b", "a")
    with pytest.raises(ValueError, match="non-negative"):
        ev("a", "b", "a", usd=-5)


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
    for earlier, later in zip(log.events, log.events[1:]):
        assert earlier.timestamp <= later.timestamp


def test_convert_is_exact_at_wei_precision():
    payload = (
        b'{"seller":"a","buyer":"b","creator":"a",'
        b'"price_eth":123.456789012345678901,"timestamp":"2021-04-21T10:00:00Z"}\n'
    )
    log, rejects = parse_events(payload, "json")
    assert rejects == []
    rates = RateTable({date(2021, 4, 21): Decimal("1234.56789")})
    converted = convert_currency(log, rates)
    usd = converted.events[0].price_usd
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
    ids = list(map(records.users.__getitem__, records.codes))
    expected_events = sorted(
        zip(
            ids[0::3],
            ids[1::3],
            ids[2::3],
            records.price_eth,
            records.price_usd,
            records.timestamp,
            records.artwork,
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
    # sorted stably by timestamp, users numbered by first appearance in that order
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
    assert list(users) == list(dict.fromkeys(u for e in events for u in e[:3]))


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
    for e in log.events:
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


def test_parse_leaves_a_binary_stream_open():
    stream = io.BytesIO(CSV_3ROWS)
    log, rejects = parse_events(stream, "csv")
    assert (log.accepted_count, rejects) == (3, [])
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == CSV_3ROWS


def test_parse_reads_a_text_stream():
    log, rejects = parse_events(io.StringIO(CSV_3ROWS.decode()), "csv")
    assert log == parse_events(CSV_3ROWS, "csv")[0]
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
    rows = [(f"user{i}", f"{i}.50", "x y") for i in range(100)]
    rows[where] = (rows[where][0], f"p{special}q", "x y")
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    got = io.StringIO()
    write_csv_rows(got, rows)
    assert got.getvalue() == expected.getvalue()
