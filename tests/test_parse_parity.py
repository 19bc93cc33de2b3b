"""Parser, fold and writer behaviour pinned on edge cases of the formats.

Each case records what ``parse_events`` accepts or rejects, and with which
row number and reason, so that a change of representation cannot move them.
A property test checks every per-event fold against a brute-force
``Decimal`` recount over the log's events, and another checks the CSV writer
against the ``csv`` module.
"""

import csv
import io
from datetime import datetime, timedelta, timezone
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artrank import (
    build_network,
    degree_metrics,
    parse_events,
    summarize,
    volume_by_buyer,
    volume_by_seller,
    write_events_csv,
)
from artrank.ingest import _MAX_EPOCH, _MIN_EPOCH, DecimalColumn, IdColumn, write_csv

from helpers import WriteLog, edge_totals, sales

HEADER = b"seller,buyer,creator,price_usd,timestamp\n"


def parsed(payload: bytes, fmt: str = "csv", **kwargs):
    """Accepted events as plain tuples, plus (row, reason) rejects and the total."""
    log, rejects = parse_events(payload, fmt, **kwargs)
    events = [
        (
            e.seller_id,
            e.buyer_id,
            e.creator_id,
            None if e.price_eth is None else str(e.price_eth),
            None if e.price_usd is None else str(e.price_usd),
            e.timestamp.isoformat(),
            e.artwork_id,
        )
        for e in sales(log)
    ]
    return events, [(r.row, r.reason) for r in rejects], log.total_records


def one_timestamp(text: str):
    events, rejects, _ = parsed(HEADER + b"a,b,a,1," + text.encode() + b"\n")
    if rejects:
        return rejects[0][1]
    return events[0][5]


def one_price(text: str):
    events, rejects, _ = parsed(HEADER + b"a,b,a," + text.encode() + b",100\n")
    if rejects:
        return rejects[0][1]
    return events[0][4]


# ---------------------------------------------------------------------------
# CSV layout
# ---------------------------------------------------------------------------


def test_blank_lines_skipped_without_record_numbers():
    payload = HEADER + b"a,b,a,1,100\n\n\r\n\na,c,a,2,200\n,,,,\nx,x,a,1,1\n"
    events, rejects, total = parsed(payload)
    assert [e[:3] for e in events] == [("a", "b", "a"), ("a", "c", "a")]
    assert rejects == [(3, "missing field: seller"), (4, "self-sale")]
    assert total == 4


def test_blank_first_line_is_an_empty_header():
    events, rejects, total = parsed(b"\n" + HEADER)
    assert events == []
    assert rejects == [(1, "missing field: seller")]
    assert total == 1


def test_header_only_input_has_no_records():
    assert parsed(HEADER) == ([], [], 0)


def test_short_rows_miss_their_trailing_fields():
    events, rejects, total = parsed(HEADER + b"a,b,a,1\na,b\n")
    assert events == []
    assert rejects == [(1, "missing field: timestamp"), (2, "missing field: creator")]
    assert total == 2


def test_extra_columns_are_ignored():
    events, rejects, _ = parsed(HEADER + b"a,b,a,1,100,extra,more\n")
    assert rejects == []
    assert events == [("a", "b", "a", None, "1", "1970-01-01T00:01:40+00:00", None)]


def test_duplicate_header_names_last_one_wins():
    payload = b"seller,buyer,creator,price_usd,timestamp,seller\nWRONG,b,a,1,100,a\n"
    events, rejects, _ = parsed(payload)
    assert rejects == []
    assert events[0][:3] == ("a", "b", "a")
    # a row too short to reach the last duplicate leaves the field missing
    events, rejects, _ = parsed(
        b"seller,buyer,creator,price_usd,timestamp,seller\nW,b,a,1,100\n"
    )
    assert events == []
    assert rejects == [(1, "missing field: seller")]


def test_utf8_bom_is_stripped_from_the_header():
    events, rejects, _ = parsed(b"\xef\xbb\xbf" + HEADER + b"a,b,a,1,100\n")
    assert rejects == []
    assert events[0][0] == "a"


def test_quoted_fields_and_whitespace():
    payload = (
        b"seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n"
        b'" a ",b,c,1.5,,1,"x,y"\n'
        b'"q""r",b,c,2,3,1, \n'
    )
    events, rejects, _ = parsed(payload)
    assert rejects == []
    assert events == [
        ("a", "b", "c", "1.5", None, "1970-01-01T00:00:01+00:00", "x,y"),
        ('q"r', "b", "c", "2", "3", "1970-01-01T00:00:01+00:00", None),
    ]


# ---------------------------------------------------------------------------
# Field map precedence
# ---------------------------------------------------------------------------


def test_field_map_source_wins_over_canonical_column():
    payload = b"from,seller,buyer,creator,usd,price_usd,timestamp\nA,S,b,a,5,6,100\n"
    events, rejects, _ = parsed(payload, field_map={"from": "seller", "usd": "price_usd"})
    assert rejects == []
    assert events[0][0] == "A"
    assert events[0][4] == "5"


def test_field_map_source_absent_from_header_keeps_canonical_column():
    payload = b"seller,buyer,creator,price_usd,timestamp\nS,b,a,6,100\n"
    events, rejects, _ = parsed(payload, field_map={"vendor": "seller"})
    assert rejects == []
    assert events[0][0] == "S"


def test_canonical_column_used_as_map_source_is_not_read_as_itself():
    payload = b"seller,buyer,creator,price_usd,timestamp\nS,B,a,6,100\n"
    events, rejects, _ = parsed(payload, field_map={"seller": "buyer"})
    assert events == []
    assert rejects == [(1, "missing field: seller")]


def test_later_map_entry_for_the_same_target_wins():
    payload = b"v1,v2,buyer,creator,price_usd,timestamp\nX,Y,b,a,1,100\n"
    events, _, _ = parsed(payload, field_map={"v1": "seller", "v2": "seller"})
    assert events[0][0] == "Y"


def test_field_map_applies_per_json_record():
    payload = (
        b'{"from":"A","seller":"S","buyer":"b","creator":"a","price_usd":2,"timestamp":"2021-01-01T00:00:00Z"}\n'
        b"\n"
        b'{"seller":"S","buyer":"b","creator":"a","price_usd":2,"timestamp":"2021-01-01T00:00:00Z"}\n'
    )
    events, rejects, total = parsed(payload, "json", field_map={"from": "seller"})
    assert rejects == []
    assert total == 2
    assert [e[0] for e in events] == ["A", "S"]


# ---------------------------------------------------------------------------
# Prices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0012.30", "12.30"),
        (".5", "0.5"),
        ("1e2", "1E+2"),
        ("-0.00", "-0.00"),
        ("+3", "3"),
        ("0.0000001", "1E-7"),
        ("1_000", "1000"),
        ("  4.50 ", "4.50"),
        ("nan", "bad price: price_usd is not finite"),
        ("Infinity", "bad price: price_usd is not finite"),
        ("-1", "negative price"),
        ("", "missing price"),
        ("abc", "bad price: price_usd='abc'"),
    ],
)
def test_price_text_forms(text, expected):
    assert one_price(text) == expected


def test_json_prices_and_ids_of_other_types():
    payload = (
        b'[{"seller":"a","buyer":"b","creator":"a","price_usd":1,"timestamp":100.0},'
        b'{"seller":"a","buyer":"b","creator":"a","price_usd":1,"timestamp":100.5},'
        b"5,"
        b'{"seller":1,"buyer":true,"creator":1,"price_eth":12345678901234567890.123,"timestamp":true},'
        b'{"seller":1,"buyer":2,"creator":1,"price_eth":0.10,"timestamp":7}]'
    )
    events, rejects, total = parsed(payload, "json")
    assert total == 5
    assert rejects == [
        (2, "bad timestamp: Decimal('100.5')"),
        (3, "missing field: seller"),  # a non-object record has no fields
        (4, "bad timestamp: True"),
    ]
    assert events == [
        ("1", "2", "1", "0.10", None, "1970-01-01T00:00:07+00:00", None),
        ("a", "b", "a", None, "1", "1970-01-01T00:01:40+00:00", None),
    ]


@pytest.mark.parametrize(
    "literal,expected",
    [
        ("1.50", "1.50"),
        ("1E+3", "1E+3"),
        ("-0.0", "-0.0"),
        ("100", "100"),
        ("12345678901234567890.123456789", "12345678901234567890.123456789"),
        ('" 2.5 "', "2.5"),
        ('""', "missing price"),
        ("NaN", "bad price: price_usd is not finite"),
        ("Infinity", "bad price: price_usd is not finite"),
        ("[1]", "bad price: price_usd='[1]'"),
        ("{}", "bad price: price_usd='{}'"),
        ("true", "bad price: price_usd='True'"),
        ("false", "bad price: price_usd='False'"),
    ],
)
def test_json_price_values(literal, expected):
    record = '{"seller":"a","buyer":"b","creator":"a","price_usd":%s,"timestamp":1}' % literal
    events, rejects, _ = parsed(f"[{record}]".encode(), "json")
    assert (rejects[0][1] if rejects else events[0][4]) == expected


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("-1", "1969-12-31T23:59:59+00:00"),
        ("-62135596800", "0001-01-01T00:00:00+00:00"),
        ("-62135596801", "bad timestamp: '-62135596801'"),
        ("253402300799", "9999-12-31T23:59:59+00:00"),
        ("253402300800", "bad timestamp: '253402300800'"),
        ("99999999999999999999", "bad timestamp: '99999999999999999999'"),
        ("+5", "1970-01-01T00:00:05+00:00"),
        ("1_000", "1970-01-01T00:16:40+00:00"),
        ("-0", "1970-01-01T00:00:00+00:00"),
        ("20210421", "1970-08-22T22:00:21+00:00"),  # integers win over basic ISO
        ("1.5", "bad timestamp: '1.5'"),
        ("1e3", "bad timestamp: '1e3'"),
        ("-1.5", "bad timestamp: '-1.5'"),
        ("yesterday", "bad timestamp: 'yesterday'"),
    ],
)
def test_epoch_timestamps(text, expected):
    assert one_timestamp(text) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2021-04-21T10:00:00Z", "2021-04-21T10:00:00+00:00"),
        ("2021-04-21T10:00:00+02:00", "2021-04-21T08:00:00+00:00"),
        ("2021-04-21T10:00:00.999-05:30", "2021-04-21T15:30:00+00:00"),
        ("2021-04-21T10:00:00.5+00:00", "2021-04-21T10:00:00+00:00"),
        ("1969-12-31T23:59:59.5Z", "1969-12-31T23:59:59+00:00"),  # floored
        ("2021-04-21T10:00:00", "2021-04-21T10:00:00+00:00"),  # no zone: UTC
        ("2021-04-21", "2021-04-21T00:00:00+00:00"),
    ],
)
def test_iso_timestamps(text, expected):
    assert one_timestamp(text) == expected


@pytest.mark.parametrize("text", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
def test_iso_timestamps_outside_the_utc_range_are_rejected(text):
    assert one_timestamp(text) == f"bad timestamp: {text!r}"


# ---------------------------------------------------------------------------
# Folds against a brute-force Decimal recount
# ---------------------------------------------------------------------------

_USERS = ("a", "b", "c", "d", "e")
_price = st.builds(
    lambda units, scale: f"{units}E-{scale}" if scale else str(units),
    st.integers(0, 10**9),
    st.integers(0, 6),
)
_row = st.tuples(
    st.sampled_from(_USERS),
    st.sampled_from(_USERS),
    st.sampled_from(_USERS),
    st.one_of(st.just(""), _price),
    _price,
    st.integers(0, 50),
)


def _exact_sum(values) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 100
        return sum(values, Decimal(0))


@settings(max_examples=80, deadline=None)
@given(st.lists(_row, max_size=40))
def test_folds_match_brute_force_recount(rows):
    lines = ["seller,buyer,creator,price_eth,price_usd,timestamp"]
    lines += [",".join(map(str, row)) for row in rows]
    log, rejects = parse_events("\n".join(lines).encode(), "csv")
    assert len(rejects) == sum(1 for r in rows if r[0] == r[1])
    events = sales(log)
    net = build_network(log)

    edges: dict[tuple[str, str], list] = {}
    for e in events:
        if e.buyer_id != e.creator_id:
            entry = edges.setdefault((e.buyer_id, e.creator_id), [])
            entry.append(e.price_usd)
    got = edge_totals(net)
    assert set(got) == set(edges)
    for pair, prices in edges.items():
        total, count = got[pair]
        assert count == len(prices)
        assert str(total) == str(_exact_sum(prices))

    degrees = degree_metrics(net)
    for user in net.users:
        i = net.users.index(user)
        incoming = [p for (_, artist), ps in edges.items() if artist == user for p in ps]
        outgoing = [p for (collector, _), ps in edges.items() if collector == user for p in ps]
        assert degrees.in_degree[i] == len(incoming)
        assert degrees.out_degree[i] == len(outgoing)
        assert degrees.in_strength[i] == _exact_sum(incoming)
        assert degrees.out_strength[i] == _exact_sum(outgoing)

    for fold, attr in ((volume_by_seller, "seller_id"), (volume_by_buyer, "buyer_id")):
        expected: dict[str, list] = {}
        for e in events:
            expected.setdefault(getattr(e, attr), []).append(e.price_usd)
        assert fold(log) == {user: _exact_sum(ps) for user, ps in expected.items()}

    summary = summarize(log, net)
    assert str(summary.sale_volume_usd) == str(_exact_sum(e.price_usd for e in events))
    assert str(summary.sale_volume_eth) == str(
        _exact_sum(e.price_eth for e in events if e.price_eth is not None)
    )
    assert summary.sold_count == len(events)
    assert [e.timestamp for e in events] == sorted(e.timestamp for e in events)
    assert all(e.timestamp.tzinfo is timezone.utc for e in events)
    assert all(isinstance(e.timestamp, datetime) for e in events)


# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------

_field = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\t1.')), max_size=4)
# tables of 1 to 4 columns: a header row, then up to 11 rows of str or None cells
_tables = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.one_of(st.none(), _field), min_size=width, max_size=width),
        min_size=1,
        max_size=12,
    )
)


@settings(max_examples=100, deadline=None)
@given(_tables)
def test_csv_rows_written_as_the_csv_module_does(rows):
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    got = io.StringIO()
    write_csv(got, rows[0], list(zip(*rows[1:])))
    assert got.getvalue() == expected.getvalue()


_IDS = ("a", 'b,"c', "d\re")
# one row's cells: a float, an int, a decimal or None, epoch seconds, a str or
# None, and the code of an id in _IDS
_typed_rows = st.lists(
    st.tuples(
        st.floats(),
        st.integers(-(2**63), 2**63 - 1),
        st.one_of(
            st.none(),
            st.decimals(min_value=-(10**9), max_value=10**9, allow_nan=False, allow_infinity=False),
        ),
        st.integers(_MIN_EPOCH, _MAX_EPOCH),
        st.one_of(st.none(), _field),
        st.integers(0, len(_IDS) - 1),
    ),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(_typed_rows)
# only the middle one of three chunks holds a delimiter
@example(
    [(0.5, 1, None, 0, "x", 0)] * 3
    + [(0.5, 1, None, 0, "x,y", 0)]
    + [(0.5, 1, None, 0, None, 0)] * 3
)
def test_typed_columns_written_as_the_csv_module_writes_their_text(rows):
    floats, ints, decimals, epochs, cells, codes = zip(*rows) if rows else ((),) * 6
    columns = (
        np.array(floats, dtype=np.float64),
        np.array(ints, dtype=np.int64),
        DecimalColumn.from_values(decimals),
        np.array(epochs, dtype="datetime64[s]"),
        np.array(cells, dtype=object),
        IdColumn(_IDS, np.array(codes, dtype=np.int64)),
    )
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    lines = []
    for f, i, d, e, cell, code in rows:
        when = (epoch + timedelta(seconds=e)).isoformat()
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow(
            [repr(f), repr(i), "" if d is None else str(d), when, cell, _IDS[code]]
        )
        lines.append(line.getvalue())
    # a chunk of 3 rows is one write, or one write a row when the csv writer takes
    # it, because one of its text cells holds a delimiter, quote or line break
    expected = ["a,b,c,d,e,f\n"]
    for start in range(0, len(rows), 3):
        chunk = rows[start : start + 3]
        if any(c in (cell or "") + _IDS[code] for *_, cell, code in chunk for c in ',"\r\n'):
            expected += lines[start : start + 3]
        else:
            expected.append("".join(lines[start : start + 3]))
    got = WriteLog()
    with mock.patch("artrank.columns.CSV_CHUNK_ROWS", 3):
        write_csv(got, "abcdef", columns)
    assert got.writes == expected


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="equal length"):
        write_csv(io.StringIO(), "ab", (np.zeros(2), np.zeros(3)))


def test_events_csv_round_trips_ids_that_need_quoting():
    payload = (
        b"seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n"
        b'"a,1","b""2",c,1.5,,2021-04-21T10:00:00Z,"x\ny"\n'
        b"a,b,c,,3,100,z\n"
    )
    log, rejects = parse_events(payload, "csv")
    assert rejects == []
    written = io.StringIO()
    write_events_csv(log, written)
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(
        [
            ["seller", "buyer", "creator", "price_eth", "price_usd", "timestamp", "artwork_id"],
            ["a", "b", "c", "", "3", "1970-01-01T00:01:40+00:00", "z"],
            ["a,1", 'b"2', "c", "1.5", "", "2021-04-21T10:00:00+00:00", "x\ny"],
        ]
    )
    assert written.getvalue() == expected.getvalue()
    relog, rerejects = parse_events(written.getvalue().encode(), "csv")
    assert rerejects == []
    assert sales(relog) == sales(log)
