"""``TextColumn``, the packed artwork-id column of an event log, against lists of str.

Also bounds the memory a parsed log holds per event and the peak of
``summarize``, both by ``tracemalloc``, which the packed column brought down.
"""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import TextColumn, build_network, parse_events, summarize, write_events_csv
from helpers import market_csv

# delimiters, quotes, line breaks, U+2028, NUL, non-ASCII and a lone surrogate,
# which JSON text can carry
_ALPHABET = st.sampled_from(list(',"\n\r \x00ab1é中\u2028\U0001f600') + ["\ud800"])
values = st.lists(st.one_of(st.none(), st.text(_ALPHABET, min_size=1, max_size=12)), max_size=40)


@settings(max_examples=150, deadline=None)
@given(values)
def test_tolist_and_indexing_round_trip(items):
    column = TextColumn.from_values(items)
    assert len(column) == len(items)
    assert column.tolist() == items
    assert list(column) == items
    assert [column[i] for i in range(-len(items), len(items))] == items + items
    assert column.text() == ["" if item is None else item for item in items]
    with pytest.raises(IndexError):
        column[len(items)]


@settings(max_examples=150, deadline=None)
@given(values, st.data())
def test_slices_masks_and_gathers_agree_with_lists(items, data):
    column = TextColumn.from_values(items)
    n = len(items)
    start, stop = data.draw(st.integers(-n - 2, n + 2)), data.draw(st.integers(-n - 2, n + 2))
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    part = slice(start, stop, step)
    assert column[part].tolist() == items[part]
    assert column[start:stop][::2].tolist() == items[start:stop][::2]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    assert column[mask].tolist() == [item for item, keep in zip(items, mask) if keep]
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=30)) if n else []
    gathered = column[np.array(rows, dtype=np.int64)]
    assert gathered.tolist() == [items[i] for i in rows]
    assert gathered[1:].tolist() == [items[i] for i in rows[1:]]


@settings(max_examples=200, deadline=None)
@given(values, st.data())
def test_distinct_count_is_the_size_of_the_set(items, data):
    # repeats, and values that share a length and most of their bytes
    items = items + data.draw(st.lists(st.sampled_from(items or [None]), max_size=20))
    items += [f"art{i:07d}" for i in data.draw(st.lists(st.integers(0, 300), max_size=30))]
    # long ids that differ only before a shared suffix, of mixed lengths
    urls = data.draw(st.lists(st.integers(0, 10**12), max_size=20))
    items += [f"ipfs://{i:x}/metadata.json" for i in urls]
    column = TextColumn.from_values(items)
    assert column.distinct_count() == len(set(items) - {None})
    assert column[::-1].distinct_count() == len(set(items) - {None})


def test_distinct_count_of_ids_that_share_their_last_eight_bytes():
    items = [f"{i:012d}"[::-1] for i in range(0, 10**12, 10**12 // 997)] * 2 + ["x", None, ""]
    column = TextColumn.from_values(items)
    assert column.distinct_count() == len(set(items) - {None, ""})


# ``distinct_count``'s traced peak per id on 20k ids of 114 bytes, 10% of them
# repeated, that differ in about 52 hex digits before a shared 14-byte suffix:
# 58 measured, as for 10-byte ids; comparing the differing bytes of whole ids
# as ``np.unique`` of void rows peaked at 268
_DISTINCT_PEAK_BYTES_PER_ID = 80
_SPREAD = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251


def test_distinct_count_memory_does_not_grow_with_id_length():
    items = [f"{i % 18_000 * _SPREAD:0100x}/metadata.json" for i in range(20_000)]
    column = TextColumn.from_values(items)
    tracemalloc.start()
    try:
        count = column.distinct_count()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 18_000
    assert peak / len(items) < _DISTINCT_PEAK_BYTES_PER_ID, peak / len(items)


def test_empty_and_all_none_columns():
    assert TextColumn.from_values([]).tolist() == []
    assert TextColumn.from_values([]).distinct_count() == 0
    column = TextColumn.from_values([None, "", None])
    assert column.tolist() == [None, None, None]
    assert column.distinct_count() == 0
    assert column.data.size == 0


# bytes the parsed log holds per event, and ``summarize``'s traced peak per
# event, on 20k events of ``market_csv`` in one range (Python 3.11, numpy 2.4):
# 89 and 41 measured, against 137.6 and 67.3 with an object array of str
# artwork ids and a Python set to count them
_LOG_BYTES_PER_EVENT = 110
_SUMMARIZE_PEAK_BYTES_PER_EVENT = 55


def test_parsed_log_and_summary_memory_per_event():
    payload = market_csv(5, 20_000).encode()
    tracemalloc.start()
    try:
        log, rejects = parse_events(payload, "csv")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rejects == []
    net = build_network(log)
    summarize(log, net)  # the first call may import lazily
    tracemalloc.start()
    try:
        summary = summarize(log, net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.tokenized_count == len(set(log.artwork.tolist()) - {None})
    per_event = (held / log.accepted_count, peak / log.accepted_count)
    assert per_event[0] < _LOG_BYTES_PER_EVENT, per_event
    assert per_event[1] < _SUMMARIZE_PEAK_BYTES_PER_EVENT, per_event


# ---------------------------------------------------------------------------
# A carriage return never reaches a log, so events.csv always reads back
# ---------------------------------------------------------------------------

_HEADER = b"seller,buyer,creator,price_eth,price_usd,timestamp,artwork_id\n"


@pytest.mark.parametrize(
    "row, reason",
    [
        (b'"a\rb",c,"a\rb",1.5,,100,"x\ry"', "carriage return in field: seller"),
        (b'a,"c\rd",a,1.5,,100,x', "carriage return in field: buyer"),
        (b'a,c,"e\rf",1.5,,100,x', "carriage return in field: creator"),
        (b'a,c,a,1.5,,100,"x\ry"', "carriage return in field: artwork_id"),
    ],
)
def test_a_carriage_return_inside_an_id_is_rejected(row, reason):
    payload = _HEADER + row + b"\na,c,a,2,,200,z\n"
    log, rejects = parse_events(payload, "csv")
    assert [(r.row, r.reason) for r in rejects] == [(1, reason)]
    assert log.users == ("a", "c")
    written = io.StringIO()
    write_events_csv(log, written)
    relog, rerejects = parse_events(written.getvalue().encode(), "csv")
    assert rerejects == []
    assert relog.users == log.users and relog.artwork.tolist() == ["z"]


def test_ids_with_carriage_returns_at_their_ends_are_stripped_and_kept():
    log, rejects = parse_events(_HEADER + b'"\ra",c,a,1.5,,100,"x\r"\n', "csv")
    assert rejects == []
    assert (log.users, log.artwork.tolist()) == (("a", "c"), ["x"])
