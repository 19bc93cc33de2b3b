"""A sale log parsed in byte ranges, by forked children, against the same log in one range.

Ranges are forced on small files by lowering the per-range minimum and the
CPU count ``parse_events`` reads; nothing else changes. Every test ends with
no child process left, running or unreaped.
"""

import atexit
import builtins
import json
import logging
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import ingest, parse_events
from helpers import count_forks

HEADER = "seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id"


def parse_in_ranges(path, fmt, ranges, **kwargs):
    """``parse_events`` of the file at ``path`` in at most ``ranges`` byte ranges,
    plus the number of processes it forked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)))
        forks = count_forks(patch)
        with open(path, "rb") as stream:
            result = parse_events(stream, fmt, **kwargs)
            assert stream.read() == b""
    return result, len(forks)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def log_parts(log):
    """Every field of a log, each price column by its parts."""

    def price(column):
        return (
            column.coef.dtype,
            column.coef.tolist(),
            column.exp.tolist(),
            column.missing.tolist(),
            column.neg_zero.tolist(),
        )

    return (
        log.users,
        log.seller.tolist(),
        log.buyer.tolist(),
        log.creator.tolist(),
        log.timestamp.tolist(),
        price(log.price_eth),
        price(log.price_usd),
        log.artwork.tolist(),
        log.total_records,
        log.rejected_count,
        log.source,
    )


def parse_or_error(path, fmt, ranges, **kwargs):
    """The log parts and rejects of a parse in ranges, or its error message."""
    try:
        (log, rejects), forks = parse_in_ranges(path, fmt, ranges, **kwargs)
    except ValueError as exc:
        return "error", str(exc)
    finally:
        assert_no_child_left()
    assert forks <= ranges - 1
    return log_parts(log), rejects


# ---------------------------------------------------------------------------
# Any split gives the log of one range
# ---------------------------------------------------------------------------

_IDS = ["u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "\ufeffu1"]
_PRICES = ["", "1", "12.50", "0.000001", "-0", "-0.00", "-0.0", "123456789012345678901.5", "1E+3"]
_BAD_PRICES = ["abc", "-1", "1E+400", "nan"]
_STAMPS = ["1619000000", "2021-04-21T10:00:00Z", "2021-04-21T11:00:00+00:00", "0"]
_BAD_STAMPS = ["", "yesterday", "99999999999999"]
_ARTWORK = ["", "art1", " art2 "]


@st.composite
def _csv_line(draw):
    kind = draw(st.sampled_from(["clean", "clean", "clean", "eth", "reject", "blank"]))
    if kind == "blank":
        return ""
    seller, buyer, creator = (draw(st.sampled_from(_IDS)) for _ in range(3))
    eth, usd = draw(st.sampled_from(_PRICES)), draw(st.sampled_from(_PRICES))
    stamp, artwork = draw(st.sampled_from(_STAMPS)), draw(st.sampled_from(_ARTWORK))
    if kind == "eth":
        eth, usd = draw(st.sampled_from(_PRICES[1:])), ""
    elif kind == "reject":
        cell = draw(st.integers(0, 4))
        if cell == 0:
            seller = draw(st.sampled_from(["", " "]))
        elif cell == 1:
            buyer = seller  # a self-sale
        elif cell == 2:
            eth = usd = ""  # no price
        elif cell == 3:
            usd = draw(st.sampled_from(_BAD_PRICES))
        else:
            stamp = draw(st.sampled_from(_BAD_STAMPS))
    return ",".join((seller, buyer, creator, eth, usd, stamp, artwork))


def _json_cell(text):
    """A cell as a JSON literal: ids and odd texts as strings, plain numbers bare."""
    if text == "":
        return "null"
    if re.fullmatch(r"-?\d+(\.\d+)?", text) and not text.startswith("-0"):
        return text
    return json.dumps(text, ensure_ascii=False)


@st.composite
def _ndjson_line(draw):
    line = draw(_csv_line())
    if not line:
        return draw(st.sampled_from(["", "  ", "\t"]))
    odd = draw(st.integers(0, 59))
    if odd < 4:
        return draw(st.sampled_from(["[1]", "5", '"x"', "null"]))  # not an object
    if odd == 4:
        return "\ufeff" + line.split(",")[0]  # not JSON
    cells = line.split(",")
    # negative zeros as JSON numbers, which keep the sign as Decimal does
    cells[3:5] = [cell if cell in ("-0", "-0.00") else _json_cell(cell) for cell in cells[3:5]]
    cells[:3] = map(_json_cell, cells[:3])
    cells[5:] = map(_json_cell, cells[5:])
    fields = ["from", "to", "creator", "price_eth", "price_usd", "timestamp", "artwork_id"]
    return "{" + ",".join(f'"{key}":{cell}' for key, cell in zip(fields, cells)) + "}"


def _text(lines, ends, bom):
    return ("\ufeff" if bom else "") + "".join(line + end for line, end in zip(lines, ends))


_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(_csv_line(), min_size=1, max_size=40),
    ends=st.lists(_ENDS, min_size=41, max_size=41),
    bom=st.booleans(),
    ranges=st.integers(2, 4),
)
def test_csv_in_ranges_parses_as_one_range(tmp_path_factory, lines, ends, bom, ranges):
    path = tmp_path_factory.getbasetemp() / "ranges.csv"
    path.write_bytes(_text([HEADER] + lines, ends, bom).encode())
    one = parse_or_error(path, "csv", 1)
    assert one[0] != "error"
    assert parse_or_error(path, "csv", ranges) == one


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(_ndjson_line(), min_size=1, max_size=40),
    ends=st.lists(_ENDS, min_size=40, max_size=40),
    bom=st.booleans(),
    ranges=st.integers(2, 4),
)
def test_ndjson_in_ranges_parses_as_one_range(tmp_path_factory, lines, ends, bom, ranges):
    path = tmp_path_factory.getbasetemp() / "ranges.ndjson"
    path.write_bytes(_text(lines, ends, bom).encode())
    field_map = {"from": "seller", "to": "buyer"}
    one = parse_or_error(path, "json", 1, field_map=field_map)
    assert parse_or_error(path, "json", ranges, field_map=field_map) == one


def _sales(count, fmt="csv"):
    """``count`` clean sales, some of their users first seen late."""
    rows = [
        (f"s{i % (5 + i // 10)}", f"b{i % 7}", f"c{i % 3}", "", f"{i}.25", str(1_600_000_000 + i), "")
        for i in range(count)
    ]
    if fmt == "csv":
        return [HEADER] + [",".join(row) for row in rows]
    keys = ("seller", "buyer", "creator", "price_eth", "price_usd", "timestamp")
    return [json.dumps(dict(zip(keys, row))) for row in rows]


def test_four_ranges_fork_three_children_and_merge_in_input_order(tmp_path):
    path = tmp_path / "sales.csv"
    path.write_text("\n".join(_sales(400)) + "\n")
    (one, one_rejects), forks = parse_in_ranges(path, "csv", 1)
    assert forks == 0
    (four, four_rejects), forks = parse_in_ranges(path, "csv", 4)
    assert forks == 3
    assert_no_child_left()
    assert (log_parts(four), four_rejects) == (log_parts(one), one_rejects)
    assert four.total_records == 400


def test_a_stream_past_its_start_is_parsed_from_where_it_stands(tmp_path):
    path = tmp_path / "sales.csv"
    lines = _sales(300)
    path.write_text("junk line\n" + "\n".join(lines) + "\n")
    expected, _ = parse_events(("\n".join(lines) + "\n").encode(), "csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with open(path, "rb") as stream:
            stream.readline()
            log, _ = parse_events(stream, "csv", source="")
            assert stream.read() == b""
    assert_no_child_left()
    assert log_parts(log) == log_parts(expected)


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("csv", HEADER + '\na,b,a,1,,0,"art, one"\n' + "a,b,a,1,,0,\n" * 50),
        ("json", "[" + ",".join(['{"seller":"a","buyer":"b","creator":"a","price_usd":1,"timestamp":0}'] * 50) + "]"),
    ],
)
def test_inputs_a_line_end_may_not_end_stay_one_range(tmp_path, fmt, text):
    path = tmp_path / "input"
    path.write_text(text)
    (log, _), forks = parse_in_ranges(path, fmt, 4)
    assert (forks, log.total_records) == (0, 51 if fmt == "csv" else 50)


def test_streams_that_are_not_regular_files_stay_one_range(tmp_path):
    data = ("\n".join(_sales(100)) + "\n").encode()
    reader, writer = os.pipe()
    os.write(writer, data)
    os.close(writer)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
        patch.setattr(os, "fork", lambda: pytest.fail("forked"))
        with open(reader, "rb") as pipe:
            from_pipe, _ = parse_events(pipe, "csv", source="")
        from_bytes, _ = parse_events(data, "csv")
    assert log_parts(from_pipe) == log_parts(from_bytes)


# ---------------------------------------------------------------------------
# Errors in later ranges, and children that fail
# ---------------------------------------------------------------------------


def test_invalid_utf8_in_a_later_range_raises_the_one_range_error(tmp_path):
    lines = _sales(200)
    lines[150] = lines[150].replace("s", "s\udcff", 1)
    path = tmp_path / "sales.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    one = parse_or_error(path, "csv", 1)
    two = parse_or_error(path, "csv", 2)
    assert one[0] == two[0] == "error"
    assert one[1].startswith("input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff")
    # only the decoder's position within its buffer may differ
    assert re.sub(r"position \d+", "", two[1]) == re.sub(r"position \d+", "", one[1])


def test_invalid_json_in_a_later_range_keeps_its_record_number(tmp_path):
    lines = _sales(200, "json")
    lines[40:40] = ["", "  "]  # blank lines take no record number
    lines[170] = '{"seller": nope}'
    path = tmp_path / "sales.ndjson"
    path.write_text("\n".join(lines) + "\n")
    one = parse_or_error(path, "json", 1)
    assert one == ("error", "invalid JSON on record 169: Expecting value: line 1 column 12 (char 11)")
    assert parse_or_error(path, "json", 2) == one
    assert parse_or_error(path, "json", 4) == one


def test_a_child_that_exits_without_its_records_fails_the_parse(tmp_path):
    path = tmp_path / "sales.csv"
    path.write_text("\n".join(_sales(300)) + "\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_send", lambda *args: os._exit(3))
        with pytest.raises(ValueError, match="range parser ended without sending its records"):
            parse_in_ranges(path, "csv", 3)
    assert_no_child_left()


def test_an_error_in_the_first_range_ends_the_children(tmp_path):
    lines = _sales(300)
    lines[5] = lines[5].replace("s", "s\udcff", 1)
    path = tmp_path / "sales.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match="^input is not valid UTF-8"):
        parse_in_ranges(path, "csv", 3)
    assert_no_child_left()


def test_children_import_log_flush_and_run_exit_handlers_nothing(tmp_path):
    path = tmp_path / "sales.csv"
    path.write_text("\n".join(_sales(300)) + "\n")
    parent = os.getpid()
    marker = tmp_path / "exit-handler-ran"

    def in_child(status):
        def guard(original):
            def guarded(*args, **kwargs):
                if os.getpid() != parent:
                    os._exit(status)
                return original(*args, **kwargs)

            return guarded

        return guard

    pending = open(tmp_path / "pending.txt", "w", buffering=1 << 16)
    pending.write("written once")
    atexit.register(marker.write_text, "ran")
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(builtins, "__import__", in_child(4)(builtins.__import__))
            patch.setattr(logging.Logger, "_log", in_child(5)(logging.Logger._log))
            (log, _), forks = parse_in_ranges(path, "csv", 3)
    finally:
        atexit.unregister(marker.write_text)
        pending.close()
    assert_no_child_left()
    assert (forks, log.total_records) == (2, 300)
    assert (tmp_path / "pending.txt").read_text() == "written once"
    assert not marker.exists()


# ---------------------------------------------------------------------------
# JSON integers beyond int's limit on digits
# ---------------------------------------------------------------------------

_WIDE = "7" * 5000  # past the default 4,300-digit limit of int(str)


def _json_input(cell_field, as_array):
    sale = '{"seller":"a","buyer":"b","creator":"a","price_usd":2,"timestamp":1619000000}'
    wide = sale.replace(f'"{cell_field}":', f'"{cell_field}":{_WIDE},"_":', 1)
    records = [wide, sale]
    text = "[" + ",".join(records) + "]" if as_array else "\n".join(records) + "\n"
    return text.encode()


@pytest.mark.parametrize("as_array", [False, True], ids=["ndjson", "array"])
def test_a_wide_integer_price_is_out_of_range(as_array):
    log, rejects = parse_events(_json_input("price_usd", as_array), "json")
    assert [(r.row, r.reason) for r in rejects] == [(1, "bad price: price_usd is out of range")]
    assert log.total_records == 2


@pytest.mark.parametrize("as_array", [False, True], ids=["ndjson", "array"])
def test_a_wide_integer_timestamp_is_a_bad_timestamp(as_array):
    log, rejects = parse_events(_json_input("timestamp", as_array), "json")
    assert [r.row for r in rejects] == [1]
    assert rejects[0].reason.startswith("bad timestamp: ")
    assert log.total_records == 2


@pytest.mark.parametrize("as_array", [False, True], ids=["ndjson", "array"])
def test_a_wide_integer_id_is_its_digits(as_array):
    log, rejects = parse_events(_json_input("seller", as_array), "json")
    assert rejects == []
    assert log.users == (_WIDE, "a", "b")
    assert [log.users[code] for code in log.seller.tolist()] == [_WIDE, "a"]
