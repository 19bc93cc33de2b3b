"""Every artifact the pipeline reads back gives back what was written.

``rank``, ``concentration`` and ``report`` re-read ``events.csv``;
``correlate``, ``profile`` and ``report`` re-read ``rankings.csv``. For any
log ``parse_events`` accepts, its ``events.csv`` parses to the same log with
no rejects, and writing that log again gives the same bytes. For any metrics
table, ``load_rankings_csv`` of its ``rankings.csv`` gives the table back
bit for bit, whatever the sort key.
"""

import csv
import io
import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from artrank import METRIC_NAMES, MetricsTable, cli, parse_events, write_events_csv
from artrank.artifacts import ArtifactWriter
from artrank.ingest import _MAX_EPOCH, _MIN_EPOCH, CANONICAL_FIELDS

# delimiters, quotes, line breaks, U+2028, spaces (stripped at the ends) and
# non-ASCII, inside ids and at their ends; an id with a carriage return inside
# it is rejected at ingest
_IDS = st.one_of(
    st.sampled_from(["a", "b,c", 'd"e', "f\rg", "h\ni", "j\u2028k", "é中", " l\r", "\U0001f600"]),
    st.text(st.sampled_from(list(',"\r\n ab1é中\u2028\U0001f600')), min_size=1, max_size=5).filter(
        str.strip
    ),
)
# and lone surrogates, which only a JSON escape can carry; ingest rejects them
_JSON_IDS = st.one_of(_IDS, st.sampled_from(["\ud800", "m\udfffn"]))


@st.composite
def _prices(draw):
    """Price text that is a JSON number too: plain or in exponent form, with
    trailing zeros, and 17 to 19 digits, about the fast path's 18-digit edge."""
    coef = draw(st.one_of(st.integers(0, 999), st.integers(10**16, 10**19 - 1)))
    fraction = draw(st.sampled_from(["", ".0", ".5", ".50", ".000", ".25"]))
    exponent = draw(st.sampled_from(["", "", "E+3", "e-2", "E-20", "E+0", "e5"]))
    return draw(st.sampled_from(["", "-"])) * (coef == 0) + f"{coef}{fraction}{exponent}"


_EPOCHS = st.one_of(
    st.sampled_from([_MIN_EPOCH, _MAX_EPOCH, -1, 0]), st.integers(_MIN_EPOCH, _MAX_EPOCH)
)


@st.composite
def _sales(draw, ids=_IDS):
    """One to six records of seven str or None cells, over a small pool of ``ids``;
    most are kept, some rejected."""
    users = draw(st.lists(ids, min_size=2, max_size=5, unique=True))
    records = []
    for _ in range(draw(st.integers(1, 6))):
        seller = draw(st.sampled_from(users))
        buyer = draw(st.sampled_from([user for user in users if user != seller]))
        creator = draw(st.sampled_from(users))
        eth = draw(st.one_of(st.none(), _prices()))
        usd = draw(_prices() if eth is None else st.one_of(st.none(), _prices()))
        epoch = draw(_EPOCHS)
        stamp = (datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=epoch)).isoformat()
        when = draw(st.sampled_from([str(epoch), stamp, stamp.replace("+00:00", "Z")]))
        artwork = draw(st.one_of(st.none(), ids))
        records.append([seller, buyer, creator, eth, usd, when, artwork])
    return records


def _csv_input(records) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CANONICAL_FIELDS)
    writer.writerows(records)
    return text.getvalue().encode("utf-8")


def _ndjson_input(records, numbers) -> bytes:
    """One object per line; ``numbers`` says which records give their numbers as
    JSON numbers rather than strings. A lone surrogate is written as its JSON
    escape, the only form UTF-8 text can give it."""
    lines = []
    for record, as_number in zip(records, numbers):
        cells = [
            f'"{name}": {_json_value(name, value, as_number)}'
            for name, value in zip(CANONICAL_FIELDS, record)
        ]
        lines.append("{" + ", ".join(cells) + "}\n")
    return "".join(lines).encode("utf-8", "backslashreplace")


def _json_value(name: str, value: str | None, as_number: bool) -> str:
    """A cell's JSON text: a number for a price or an integer timestamp when
    ``as_number``, else a string, U+2028 left unescaped, or null."""
    if as_number and value is not None:
        if name.startswith("price_") or (name == "timestamp" and value.lstrip("-").isdigit()):
            return value
    return json.dumps(value, ensure_ascii=False)


def _events_csv(log) -> bytes:
    text = io.StringIO()
    write_events_csv(log, text)
    return text.getvalue().encode("utf-8")


def _columns(log) -> tuple:
    """Every column of a log, each price by its coefficient, exponent and masks."""
    prices = [
        (column.coef.tolist(), column.exp.tolist(), column.missing.tolist(), column.neg_zero.tolist())
        for column in (log.price_eth, log.price_usd)
    ]
    codes = [column.tolist() for column in (log.seller, log.buyer, log.creator, log.timestamp)]
    return (log.users, *codes, *prices, log.artwork.tolist())


def _assert_events_csv_round_trips(payload: bytes, fmt: str) -> None:
    log, _ = parse_events(payload, fmt)
    written = _events_csv(log)
    relog, rejects = parse_events(written, "csv")
    assert rejects == []
    assert relog.total_records == log.accepted_count
    assert _columns(relog) == _columns(log)
    assert _events_csv(relog) == written  # the canonical form is a fixed point


@settings(max_examples=80, deadline=None)
@given(_sales())
def test_events_csv_of_a_csv_log_reads_back_as_that_log(records):
    _assert_events_csv_round_trips(_csv_input(records), "csv")


@settings(max_examples=80, deadline=None)
@given(_sales(_JSON_IDS), st.data())
def test_events_csv_of_an_ndjson_log_reads_back_as_that_log(records, data):
    numbers = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    _assert_events_csv_round_trips(_ndjson_input(records, numbers), "json")


# ids a log can hold: stripped, not empty, no carriage return
_USERS = _IDS.filter(lambda user: user == user.strip() and "\r" not in user)
_SCORES = st.one_of(st.just(-0.0), st.floats(0, 1))
_STRENGTHS = st.one_of(st.just(-0.0), st.floats(0, 1e300))
_DEGREES = st.integers(0, 2**53).map(float)  # sale counts, written as integers
_METRICS = {
    "authority": _SCORES,
    "w_authority": _SCORES,
    "in_strength": _STRENGTHS,
    "in_degree": _DEGREES,
    "hub": _SCORES,
    "w_hub": _SCORES,
    "out_strength": _STRENGTHS,
    "out_degree": _DEGREES,
}


@settings(max_examples=40, deadline=None)
@given(st.lists(_USERS, min_size=1, max_size=8, unique=True), st.data())
def test_rankings_csv_reads_back_as_the_table_for_every_sort_key(users, data):
    rows = [[data.draw(_METRICS[name]) for name in METRIC_NAMES] for _ in users]
    table = MetricsTable(users=tuple(sorted(users)), values=np.array(rows, dtype=np.float64))
    with tempfile.TemporaryDirectory() as out:
        writer = ArtifactWriter(Path(out))
        for sort_by in cli.SORT_KEYS:
            columns = cli._rankings_columns(table, sort_by)
            writer.csv(cli.RANKINGS_CSV, cli.RANKINGS_HEADER, columns)
            loaded = cli.load_rankings_csv(Path(out) / cli.RANKINGS_CSV)
            assert loaded.users == table.users, sort_by
            assert loaded.values.tobytes() == table.values.tobytes(), sort_by
