"""Sale-event ingestion: parsing, validation, and ETH to USD conversion.

Raw rows (CSV or JSON) are validated into a columnar
``EventLog``: user codes in user-id order, UTC epoch seconds, exact prices
and artwork ids, one column per field. Bad rows never abort a run;
they are returned as ``RejectReport`` entries with a row number and reason.
An id or artwork id that holds a ``\\r`` is one of them: the csv module of
some Python versions writes it unquoted, so ``events.csv`` could not be
read back. So is one that holds a lone surrogate (a JSON escape such as
``\\ud800``), which UTF-8 cannot encode.
Input is decoded as it is read: CSV a block of lines at a time,
one-object-per-line JSON a line at a time, where a line ends at ``\\n``,
``\\r\\n`` or ``\\r`` only; only a JSON array is decoded whole. One block
reader, ``_read_block``, validates every record a column at a time:
``str.split`` once, the ids through the memo, prices and timestamps by
numpy from byte windows. A CSV block that holds no ``"``, ``\\r`` or NUL and
the header's cell count on every line is read as it is; the rows that
``csv.reader`` reads from any other, and JSON records, are joined into
seven-column lines first (``_validate``). The full validator,
``_Records.add``, the one source of reject reasons, reads the original cells
of each record that fails a check, of each JSON record with a cell that is
not text there, and of every record of a block holding a ``,``, ``\\n``,
``"``, ``\\r``, NUL or lone surrogate in a cell; the block reader keeps
exactly what it would keep. Logs come only from ``parse_events`` (and
``convert_currency`` of one), so the validator alone decides what a log holds.

``write_csv`` writes every CSV artifact, ``events.csv`` among them, from
equal-length columns a chunk of rows at a time. Each column type has one
text rule, and only str cells and artwork ids can need quoting, so a chunk
is joined directly unless they hold a delimiter, quote or line break; such a
chunk goes through the csv writer, which gives the same bytes.

A regular file given as ``open(path, "rb")`` is parsed in byte ranges when
this process may use two or more CPUs and the file holds at least
``_MIN_RANGE_BYTES`` per range. Each range ends at a line end. The first is
validated in this process and each other one in a forked
``children.Child``, which pipes its columns back; they are merged in input
order, so the log, its rejects and any error are those of one range. CSV
holding any ``"`` (a quoted field may span lines), a JSON array, a stream
that is not a regular file, ``bytes`` and text streams stay one range, as
does every input where ``os.fork`` is missing.

Prices and artwork ids are read into the exact columns of ``columns``. A
plain price cell (ASCII digits with at most one ".", at most 18 digits) is
read straight into coefficient and exponent; any other cell is read as a
``Decimal`` by the full validator.

Canonical input field names: ``seller``, ``buyer``, ``creator``,
``price_eth``, ``price_usd``, ``timestamp`` (ISO-8601 or integer Unix
seconds) and optional ``artwork_id``. Differently named source columns are
remapped through a ``field_map`` of source name to canonical name.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import re
import stat
import sys
from array import array
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from decimal import Clamped, Context, Decimal, InvalidOperation, Rounded
from functools import partial
from itertools import chain, compress, islice
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .children import Child, usable_cpus
from .columns import (
    NO_VALUE,
    DecimalBuffer,
    DecimalColumn,
    TextBuffer,
    TextColumn,
    chunks,
)

_T = TypeVar("_T")

CANONICAL_FIELDS = (
    "seller",
    "buyer",
    "creator",
    "price_eth",
    "price_usd",
    "timestamp",
    "artwork_id",
)

# prices above this become inf in the float adjacency, so ingest rejects them
_MAX_FLOAT = Decimal(sys.float_info.max)
# the most significant digits and the exponent range of an admitted price or
# rate: they keep every exact sum and product to about 1,200 digits, and admit
# the exact value of every double from 2**-348 up (the largest has 309 digits)
_MAX_DIGITS = 400
_MAX_EXPONENT = 400
# rounding to this context keeps exactly the values within those bounds: more
# digits signal Rounded, an exponent beyond either end Clamped
_BOUNDS = Context(
    prec=_MAX_DIGITS,
    Emax=_MAX_EXPONENT + _MAX_DIGITS - 1,
    Emin=_MAX_DIGITS - _MAX_EXPONENT - 1,
    clamp=1,
    traps=[Rounded, Clamped],
)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY_S = 86_400
# the bytes that send a ``write_csv`` chunk through the csv writer
_CSV_SPECIAL = np.frombuffer(b',"\r\n', dtype=np.uint8)
# events.csv timestamp text, and the two-digit fields within it
_STAMP = np.frombuffer(b"0000-00-00T00:00:00+00:00\n", dtype=np.uint8)
_STAMP_FIELDS = (0, 2, 5, 8, 11, 14, 17)
# UTC epoch seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the
# range of datetime
_MIN_EPOCH = -62_135_596_800
_MAX_EPOCH = 253_402_300_799
# a log is parsed in byte ranges of at least this many bytes, at most this
# many: on 2 CPUs two ranges broke even with one at about 256 KiB of input
# (a fork and a merge against half a parse)
_MIN_RANGE_BYTES = 1 << 18
_MAX_RANGES = 8
# the bytes of one read by the range split, and the items of one message from
# a range parser: below glibc's 128 KiB mmap threshold, so that freeing them
# leaves where later allocations go unchanged
_SCAN_BYTES = 1 << 16
_PIPE_ITEMS = 1 << 13
_LINE_END = re.compile(rb"[\r\n]")
# a surrogate code point in a decoded str: only a JSON escape such as
# ``\ud800`` can put one there, and UTF-8 cannot encode it
_SURROGATE = re.compile("[\ud800-\udfff]")
# CSV lines validated as one block: at most this many, and about as many as
# hold this much text, so that the block's text, its bytes and its numpy
# temporaries stay below glibc's 128 KiB mmap threshold, whose first crossing
# raises it, and the heap that later allocations take, for the whole process
_BLOCK_LINES = 1 << 11
_BLOCK_CHARS = 96 << 10
_COMMA, _LF, _DOT, _ZERO = b",\n.0"
# the bytes the block reader reads a cell from: a plain number has at most 19
# (18 digits and "."), read from 20 (an even count, for digit pairs); an
# integer timestamp at most 12 digits; an ISO one 25
# (``YYYY-MM-DDTHH:MM:SS+00:00``) or 20 (``...Z``). NUL bytes pad the block,
# so that every cell has whole windows.
_NUMBER_BYTES = 20
_EPOCH_DIGITS = 12
_ISO_LENGTH = 25
_PADDING = bytes(_ISO_LENGTH)
_PAD = len(_PADDING)
_NUMBER_ROWS = np.arange(_NUMBER_BYTES, dtype=np.uint8)[:, None]
_PLACES_AFTER = _NUMBER_ROWS[::-1].copy()  # the places after each row of a window
_ISO = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)[:, None]
_ISO_DIGITS = _ISO == _ZERO
_UTC = np.frombuffer(b"+00:00", dtype=np.uint8)[:, None]
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE = np.cumsum(_MONTH_DAYS) - _MONTH_DAYS


class MissingRateError(ValueError):
    """Raised when a conversion needs exchange rates for dates not in the table."""

    def __init__(self, missing_dates: Iterable[date]):
        self.missing_dates = tuple(sorted(set(missing_dates)))
        days = ", ".join(d.isoformat() for d in self.missing_dates)
        super().__init__(f"missing exchange rate for dates: {days}")


class _Reject(Exception):
    """Internal: per-record validation failure with a stable reason string."""


class _JsonLineError(ValueError):
    """A one-object-per-line JSON record that is not JSON: ``args`` are its
    1-based record number and the decoder's message."""

    def __str__(self) -> str:
        row, detail = self.args
        return f"invalid JSON on record {row}: {detail}"


@dataclass(frozen=True)
class RejectReport:
    """One rejected input record: 1-based record number plus the reason."""

    row: int
    reason: str


@dataclass(frozen=True)
class RateTable:
    """ETH-USD exchange rates keyed by UTC calendar date (USD per ETH)."""

    rates: Mapping[date, Decimal]

    def __post_init__(self) -> None:
        for day, rate in self.rates.items():
            if not rate.is_finite():
                raise ValueError(f"non-finite exchange rate for {day.isoformat()}")
            if rate <= 0:
                raise ValueError(f"non-positive exchange rate for {day.isoformat()}")
            if not _bounded(rate):
                raise ValueError(f"exchange rate for {day.isoformat()} is out of range")

    @classmethod
    def from_csv(cls, stream: BinaryIO | bytes) -> "RateTable":
        """Load a two-column ``date,usd_per_eth`` CSV with ISO dates."""
        return cls(read_text(stream, _rate_rows))


def _rate_rows(text: TextIO) -> dict[date, Decimal]:
    """The rates of a ``date,usd_per_eth`` CSV, by date."""
    reader = csv.reader(text)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header[:2]] != ["date", "usd_per_eth"]:
        raise ValueError("rate table must start with a 'date,usd_per_eth' header row")
    rates: dict[date, Decimal] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            day = date.fromisoformat(row[0].strip())
            rate = Decimal(row[1].strip())
        except (ValueError, IndexError, InvalidOperation) as exc:
            raise ValueError(f"rate table line {lineno}: {exc}") from None
        if not rate.is_finite():
            raise ValueError(f"rate table line {lineno}: non-finite rate {rate}")
        if day in rates:
            raise ValueError(f"rate table line {lineno}: duplicate date {day.isoformat()}")
        rates[day] = rate
    return rates

class _JsonNumber(str):
    """The text of a JSON number with a fraction or an exponent, as ``json``
    hands it to ``parse_float``: the block reader reads it as price text, and
    ``_Records.add`` reads the ``Decimal`` it names."""

    __slots__ = ()


def _json_int(text: str) -> int | _JsonNumber:
    """A JSON integer as ``json`` reads it; one beyond ``int``'s limit on digits
    (``sys.get_int_max_str_digits``) as the number cell of its text."""
    try:
        return int(text)
    except ValueError:
        return _JsonNumber(text)


_JSON = json.JSONDecoder(parse_float=_JsonNumber)
_WIDE_JSON = json.JSONDecoder(parse_float=_JsonNumber, parse_int=_json_int)


def _json_loads(text: str) -> object:
    """The JSON value of ``text``; an integer beyond ``int``'s limit on digits is
    read as a number cell, so that it is validated as ``Decimal`` reads it."""
    try:
        return _JSON.decode(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # only such an integer: decode again, reading every integer apart
        return _WIDE_JSON.decode(text)


# ---------------------------------------------------------------------------
# The columnar log
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EventLog:
    """Validated sale events as columns, sorted ascending by timestamp.

    Event ``i`` is seller ``users[seller[i]]``, buyer ``users[buyer[i]]``,
    creator ``users[creator[i]]``, sold at ``timestamp[i]`` (UTC epoch
    seconds) for the exact prices ``price_eth[i]`` and ``price_usd[i]``
    (each price column a ``DecimalColumn``; indexed, a ``Decimal`` or None)
    of artwork ``artwork[i]`` (a ``TextColumn``; indexed, a str or None).
    ``users`` lists every user of the log once, in strictly increasing id
    order (the code-point order of ``sorted``), so a user's code is its
    place in id order and its node index in the network built from the log;
    the order of the input rows does not change it.
    """

    users: tuple[str, ...]
    seller: np.ndarray
    buyer: np.ndarray
    creator: np.ndarray
    timestamp: np.ndarray
    price_eth: DecimalColumn
    price_usd: DecimalColumn
    artwork: TextColumn
    source: str = ""
    total_records: int = 0
    rejected_count: int = 0

    def __post_init__(self) -> None:
        n = len(self.timestamp)
        columns = (
            self.seller,
            self.buyer,
            self.creator,
            self.price_eth,
            self.price_usd,
            self.artwork,
        )
        if any(len(column) != n for column in columns):
            raise ValueError("event columns must have equal length")
        if self.accepted_count + self.rejected_count != self.total_records:
            raise ValueError("accepted + rejected must equal total input records")
        if np.any(self.timestamp[1:] < self.timestamp[:-1]):
            raise ValueError("events must be sorted by non-decreasing timestamp")
        if not all(map(str.__lt__, self.users, self.users[1:])):
            raise ValueError("users must be in strictly increasing id order")

    @property
    def accepted_count(self) -> int:
        return len(self.timestamp)

    @property
    def needs_conversion(self) -> np.ndarray:
        """Mask of the events without a USD price."""
        return self.price_usd.missing

    @property
    def needs_conversion_count(self) -> int:
        return int(np.count_nonzero(self.needs_conversion))

    @property
    def zero_price_count(self) -> int:
        priced = np.where(self.needs_conversion, self.price_eth.coef, self.price_usd.coef)
        return int(np.count_nonzero((priced == 0).astype(bool)))

    def require_usd(self) -> None:
        """Raise ValueError unless every event carries a USD price."""
        unconverted = self.needs_conversion_count
        if unconverted:
            raise ValueError(
                f"{unconverted} event(s) lack a USD price; apply convert_currency first"
            )


class _Codes(dict):
    """User codes by id cell, where a cell not yet seen reads as -1, so that a
    column of cells is looked up with one ``map`` of ``__getitem__``."""

    __slots__ = ()

    def __missing__(self, cell: str) -> int:
        return -1


class _Records:
    """Validated records as columns in input order, plus the rejected ones.

    While records are read, a user's code is its index in ``users``, given
    at first sight; ``log`` renumbers the codes into id order. ``memo`` maps
    each user id, and each raw ``str`` id cell seen so far, to the code of
    the id it names. The user codes (seller, buyer and creator of each
    record) and epoch seconds go into the int64 buffers ``codes`` and
    ``timestamp``; ``flush`` encodes the latest artwork ids
    (``artwork.new``) into the text buffer ``artwork``.
    """

    def __init__(self) -> None:
        self.memo = _Codes()
        self.users: list[str] = []
        self.codes = array("q")
        self.timestamp = array("q")
        self.price_eth = DecimalBuffer()
        self.price_usd = DecimalBuffer()
        self.artwork = TextBuffer()
        self.rejects: list[RejectReport] = []

    def add(self, row, *cells) -> None:
        """Validate one raw record's seven cells; keep it, or record why it was rejected.

        A JSON number cell is read as the ``Decimal`` it names.
        """
        seller, buyer, creator, price_eth, price_usd, timestamp, artwork = (
            Decimal(cell) if type(cell) is _JsonNumber else cell for cell in cells
        )
        try:
            seller_id = _require_id(seller, "seller")
            buyer_id = _require_id(buyer, "buyer")
            creator_id = _require_id(creator, "creator")
            if buyer_id == seller_id:
                raise _Reject("self-sale")
            eth = _parse_price(price_eth, "price_eth")
            usd = _parse_price(price_usd, "price_usd")
            if eth is None and usd is None:
                raise _Reject("missing price")
            epoch = _parse_timestamp(timestamp)
            artwork = "" if artwork is None else str(artwork).strip()
            if "\r" in artwork:
                raise _Reject("carriage return in field: artwork_id")
            if _SURROGATE.search(artwork):
                raise _Reject("lone surrogate in field: artwork_id")
        except _Reject as exc:
            self.rejects.append(RejectReport(row=row, reason=str(exc)))
            return
        codes = (self.user(seller_id), self.user(buyer_id), self.user(creator_id))
        for cell, code in zip((seller, buyer, creator), codes):
            # only str cells: True == 1 as a key, and a JSON list is unhashable
            if type(cell) is str:
                self.memo[cell] = code
        self.codes.extend(codes)
        self.price_eth.append(eth)
        self.price_usd.append(usd)
        self.timestamp.append(epoch)
        self.artwork.new.append(artwork)

    def extend(
        self,
        codes: np.ndarray,
        eth_coef: np.ndarray,
        eth_exp: np.ndarray,
        usd_coef: np.ndarray,
        usd_exp: np.ndarray,
        timestamp: np.ndarray,
        artwork: list[str],
    ) -> None:
        """Keep records that passed every check, after the latest ones: their
        user codes as int64 rows ``(seller, buyer, creator)``, their plain
        prices and epoch seconds as int64 arrays, and their stripped artwork ids."""
        buffers = (
            self.codes,
            self.price_eth.coef,
            self.price_eth.exp,
            self.price_usd.coef,
            self.price_usd.exp,
            self.timestamp,
        )
        for buffer, values in zip(buffers, (codes, eth_coef, eth_exp, usd_coef, usd_exp, timestamp)):
            buffer.frombytes(values.tobytes())
        self.artwork.new += artwork

    def user(self, user_id: str) -> int:
        """The code of a (stripped) user id, given here at its first sight."""
        code = self.memo.get(user_id)
        if code is None:
            code = self.memo[user_id] = len(self.users)
            self.users.append(user_id)
        return code

    def flush(self) -> None:
        """Encode the latest artwork ids into their buffer."""
        self.artwork.flush()

    def log(self, source: str, total: int) -> EventLog:
        """The kept records as a log, stably sorted by timestamp, users coded in id order.

        The timestamps, prices and artwork ids of input already in time order
        are views of the record buffers, which then take no more records.
        """
        timestamp = np.frombuffer(self.timestamp, dtype=np.int64)
        by_id = id_order(self.users)
        renumber = np.empty_like(by_id)
        renumber[by_id] = np.arange(by_id.size)
        codes = np.frombuffer(self.codes, dtype=np.int64).reshape(-1, 3)
        seller, buyer, creator = (renumber[codes[:, k]] for k in range(3))
        columns = [
            seller,
            buyer,
            creator,
            self.price_eth.column,
            self.price_usd.column,
            self.artwork.column,
        ]
        if np.any(timestamp[1:] < timestamp[:-1]):
            order = np.argsort(timestamp, kind="stable")  # input order breaks ties
            timestamp = timestamp[order]
            columns = [column[order] for column in columns]
        seller, buyer, creator, price_eth, price_usd, artwork = columns
        return EventLog(
            users=tuple(map(self.users.__getitem__, by_id.tolist())),
            seller=seller,
            buyer=buyer,
            creator=creator,
            timestamp=timestamp,
            price_eth=price_eth,
            price_usd=price_usd,
            artwork=artwork,
            source=source,
            total_records=total,
            rejected_count=len(self.rejects),
        )


def id_order(users: Sequence[str]) -> np.ndarray:
    """The indices that put ``users`` in id order, the code-point order of ``sorted``."""
    return np.array(sorted(range(len(users)), key=users.__getitem__), dtype=np.int64)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_events(
    stream: BinaryIO | bytes,
    fmt: str = "csv",
    field_map: Mapping[str, str] | None = None,
    source: str | None = None,
) -> tuple[EventLog, list[RejectReport]]:
    """Parse raw sale records into a validated, timestamp-sorted event log.

    Args:
        stream: UTF-8 bytes or a binary file object.
        fmt: ``csv`` (RFC-4180, header row required) or ``json`` (array of
            objects, or one object per line).
        field_map: optional source-column to canonical-field renames; a
            mapped source column wins over a same-named canonical column.
        source: label recorded in the log metadata (defaults to the stream
            name when available).

    Returns:
        The event log and the list of per-record rejections. Record numbers
        are 1-based over the input records (header excluded for CSV).

    A regular file opened with ``open(path, "rb")`` is parsed in byte ranges
    when ``_split`` finds more than one; the log and rejects are those of
    one range, and the file is left at its end, as one range leaves it.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported input format: {fmt}")
    if source is None:
        source = getattr(stream, "name", "") or ""
        source = str(source)
    remap = dict(field_map or {})
    for dst in remap.values():
        if dst not in CANONICAL_FIELDS:
            raise ValueError(f"field map target {dst!r} is not a canonical field")
    records = _Records()
    read = _reader_of(fmt, remap)
    split = _split(stream, fmt)
    if split is None:
        total = read_text(stream, lambda text: read(text, records))
    else:
        fd, header, bounds = split
        total = _parse_ranges(fd, bounds, read, _reader_of(fmt, remap, header), records)
        stream.seek(bounds[-1])
    return records.log(source, total), records.rejects


# ---------------------------------------------------------------------------
# Currency conversion
# ---------------------------------------------------------------------------


def convert_currency(log: EventLog, rates: RateTable) -> EventLog:
    """Fill USD prices for ETH-only events using the rate of the UTC sale date.

    Already-priced events pass through untouched, so the operation is
    idempotent. Products are exact. Raises ``MissingRateError`` listing
    every uncovered date, and ``ValueError`` naming the date of the first
    sale whose product ingest would reject on reading it back: one beyond
    the float range, or with more than ``_MAX_DIGITS`` significant digits
    or an exponent outside ``[-_MAX_EXPONENT, _MAX_EXPONENT]``.
    """
    rows = np.flatnonzero(log.needs_conversion)
    if not rows.size:
        return log
    days, day_of_row = np.unique(log.timestamp[rows] // _DAY_S, return_inverse=True)
    dates = [_EPOCH.date() + timedelta(days=d) for d in days.tolist()]
    day_rates = [rates.rates.get(day) for day in dates]
    missing = [day for day, rate in zip(dates, day_rates) if rate is None]
    if missing:
        raise MissingRateError(missing)
    usd = log.price_eth[rows].times(DecimalColumn.from_values(day_rates)[day_of_row])
    beyond = _beyond_float(usd)
    if beyond:
        k = beyond[0]
        raise ValueError(
            f"the sale of {dates[day_of_row[k]].isoformat()} converts to {usd[k]:.6E} USD,"
            " beyond the float range"
        )
    unbounded = _unbounded(usd)
    if unbounded:
        k = unbounded[0]
        raise ValueError(
            f"the sale of {dates[day_of_row[k]].isoformat()} converts to {usd[k]:.6E} USD,"
            f" beyond {_MAX_DIGITS} significant digits or an exponent of ±{_MAX_EXPONENT}"
        )
    return replace(log, price_usd=log.price_usd.put(rows, usd))


def _beyond_float(values: DecimalColumn) -> list[int]:
    """Positions of the values above ``_MAX_FLOAT``; only those that round to
    at least the largest double are compared exactly."""
    near = np.flatnonzero(values.to_float() >= sys.float_info.max).tolist()
    return [k for k in near if values[k] > _MAX_FLOAT]


def _unbounded(values: DecimalColumn) -> list[int]:
    """Positions of the values that ``_bounded`` rejects; an int64 coefficient
    has at most 19 digits."""
    wide = (values.exp < -_MAX_EXPONENT) | (values.exp > _MAX_EXPONENT)
    if values.coef.dtype == object:
        wide |= (np.abs(values.coef) >= 10**_MAX_DIGITS).astype(bool)
    return np.flatnonzero(wide).tolist()



# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------


def write_events_csv(log: EventLog, stream) -> None:
    """Write the canonical event CSV (re-parsable by ``parse_events``)."""
    names = np.array(log.users, dtype=object)
    columns = (
        IdColumn(names, log.seller),
        IdColumn(names, log.buyer),
        IdColumn(names, log.creator),
        log.price_eth,
        log.price_usd,
        log.timestamp.view("datetime64[s]"),
        log.artwork,
    )
    write_csv(stream, CANONICAL_FIELDS, columns)


class IdColumn:
    """The ids ``ids[codes[i]]`` as a column that ``write_csv`` gathers a slice at a time."""

    def __init__(self, ids: Sequence[str], codes: Sequence[int]) -> None:
        self._ids = np.asarray(ids, dtype=object)
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, part: slice) -> np.ndarray:
        return self._ids[self._codes[part]]


def write_csv(stream, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and the rows of equal-length ``columns`` exactly as
    ``csv.writer(stream, lineterminator="\\n")`` does, a chunk of rows at a time.

    A chunk's text comes from each column's slice: a ``DecimalColumn`` or
    ``TextColumn`` gives its ``text()``, a ``datetime64[s]`` array (UTC epoch
    seconds) ``YYYY-MM-DDTHH:MM:SS+00:00``, any other numeric array ``repr``
    of each value; any other cell (a str) is written as it is, None as "".
    Only str text can hold a delimiter, quote or line break, and the csv
    writer quotes a lone empty field, so a chunk of two or more columns is
    joined directly unless one of its str cells or text values holds one of
    ``,"\\r\\n`` (the csv module of some Python versions quotes ``\\r``,
    of others not); such a chunk goes through the csv writer. A text
    column's chunk is checked on its UTF-8 bytes, where each of the four is
    one byte.
    """
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError("CSV columns must have equal length")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for part in chunks(rows):
        texts = []
        plain = len(columns) >= 2
        for column in columns:
            cells = column[part]
            if isinstance(cells, DecimalColumn):
                texts.append(cells.text())
            elif isinstance(cells, TextColumn):
                texts.append(cells.text())
                plain = plain and not np.isin(cells.raw(), _CSV_SPECIAL).any()
            elif isinstance(cells, np.ndarray) and cells.dtype.kind == "M":
                texts.append(_timestamp_text(cells.view(np.int64)))
            elif isinstance(cells, np.ndarray) and cells.dtype.kind in "biuf":
                texts.append(list(map(repr, cells.tolist())))
            else:
                cells = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
                try:
                    joined = "".join(cells)
                except TypeError:  # None cells, which the csv writer writes as ""
                    cells = ["" if cell is None else cell for cell in cells]
                    joined = "".join(cells)
                texts.append(cells)
                plain = plain and not any(special in joined for special in ',"\r\n')
        if plain:
            stream.write("\n".join(map(",".join, zip(*texts))) + "\n")
        else:
            writer.writerows(zip(*texts))


def _timestamp_text(epoch: np.ndarray) -> list[str]:
    """``YYYY-MM-DDTHH:MM:SS+00:00`` of each UTC epoch second in ``[_MIN_EPOCH, _MAX_EPOCH]``.

    The civil date comes from the day count by integer arithmetic over
    400-year eras that start on 0000-03-01 (Hinnant's ``civil_from_days``),
    and the digits are written into one byte row per timestamp.
    """
    days, second = np.divmod(epoch, _DAY_S)
    era, day_of_era = np.divmod(days + 719_468, 146_097)
    year_of_era = (
        day_of_era - day_of_era // 1460 + day_of_era // 36_524 - day_of_era // 146_096
    ) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    month_from_march = (5 * day_of_year + 2) // 153
    day = day_of_year - (153 * month_from_march + 2) // 5 + 1
    month = np.where(month_from_march < 10, month_from_march + 3, month_from_march - 9)
    century, year = np.divmod(era * 400 + year_of_era + (month <= 2), 100)
    minutes, second = np.divmod(second, 60)
    hour, minute = np.divmod(minutes, 60)
    text = np.tile(_STAMP, (len(epoch), 1))
    for column, value in zip(_STAMP_FIELDS, (century, year, month, day, hour, minute, second)):
        tens, ones = np.divmod(value, 10)
        text[:, column] += tens.astype(np.uint8)
        text[:, column + 1] += ones.astype(np.uint8)
    lines = text.tobytes().decode("ascii").split("\n")
    lines.pop()  # the text ends with a line break
    return lines


# ---------------------------------------------------------------------------
# Text decoding
# ---------------------------------------------------------------------------


def read_text(
    stream: BinaryIO | bytes, read: Callable[[TextIO], _T], encoding: str = "utf-8-sig"
) -> _T:
    """``read(text)`` of the UTF-8 text of ``stream``; returns what it returns.

    A binary input is decoded as ``read`` asks for it, so its bytes and its
    whole text never exist at once, and a binary file object is left open.
    A text stream is read as it is. Only ``utf-8-sig`` strips a leading BOM.
    """
    if isinstance(stream, io.TextIOBase):
        return read(stream)
    raw = io.BytesIO(stream) if isinstance(stream, (bytes, bytearray)) else stream
    text = io.TextIOWrapper(raw, encoding=encoding, newline="")
    try:
        return read(text)
    except UnicodeDecodeError as exc:
        raise ValueError(f"input is not valid UTF-8: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"input is not valid CSV: {exc}") from None
    finally:
        text.detach()


# ---------------------------------------------------------------------------
# Byte ranges
# ---------------------------------------------------------------------------


def _split(stream: BinaryIO | bytes, fmt: str) -> tuple[int, str, list[int]] | None:
    """The descriptor, head and range bounds of an input parsed in byte ranges.

    Range ``k`` is bytes ``bounds[k]:bounds[k + 1]`` of file descriptor
    ``fd``, from the stream's position to the end of the file. Each range
    ends at a line end; one may end inside a ``\\r\\n``, whose ``\\n`` then
    begins the next as a blank line, which takes no record number. The
    first range holds the head: the CSV header line, or the JSON lines up to
    the first non-blank one, as text. There are as many ranges as this
    process may use CPUs, at most ``_MAX_RANGES`` and at most one per
    ``_MIN_RANGE_BYTES`` bytes.

    Returns None, for one range, unless the stream is a ``FileIO`` of a
    regular file or the ``BufferedReader`` of one (``open(path, "rb")``),
    ``os.fork`` is available, and a line end always ends a record: CSV
    without any ``"``, whose quoted fields could hold line ends, or
    one-object-per-line JSON, not an array.
    """
    raw = stream.raw if type(stream) is io.BufferedReader else stream
    if type(raw) is not io.FileIO:
        return None
    fd = raw.fileno()
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    start, size = stream.tell(), info.st_size
    count = min(usable_cpus(), _MAX_RANGES, (size - start) // _MIN_RANGE_BYTES)
    if count < 2:
        return None
    head = _head(os.pread(fd, _SCAN_BYTES, start), fmt)
    if head is None or (fmt == "csv" and _holds_quote(fd, start, size)):
        return None
    head_end, header = head
    bounds = [start]
    for k in range(1, count):
        cut = _line_start(fd, max(start + (size - start) * k // count, start + head_end), size)
        if bounds[-1] < cut < size:
            bounds.append(cut)
    bounds.append(size)
    return (fd, header, bounds) if len(bounds) > 2 else None


def _head(block: bytes, fmt: str) -> tuple[int, str] | None:
    """The length and text of the head of an input that starts with ``block``: its
    CSV header line, or its JSON lines up to the first non-blank one.

    None when the head does not end in the block before its last line, which
    may go on past it, is not UTF-8, or opens a JSON array.
    """
    end = 0
    for line in block.splitlines(keepends=True)[:-1]:
        end += len(line)
        try:
            text = block[:end].decode("utf-8-sig")
        except UnicodeDecodeError:
            return None
        if fmt == "csv" or text.strip():
            # _json_records tells an array by its first non-blank line the same way
            opens_array = fmt == "json" and text.lstrip().startswith("[")
            return None if opens_array else (end, text)
    return None


def _holds_quote(fd: int, start: int, size: int) -> bool:
    """Whether bytes ``[start, size)`` of ``fd`` hold a ``"``."""
    return any(b'"' in os.pread(fd, _SCAN_BYTES, at) for at in range(start, size, _SCAN_BYTES))


def _line_start(fd: int, position: int, size: int) -> int:
    """The offset just past the first ``\\r`` or ``\\n`` at or after ``position``; ``size`` if none."""
    for at in range(position, size, _SCAN_BYTES):
        found = _LINE_END.search(os.pread(fd, _SCAN_BYTES, at))
        if found:
            return at + found.end()
    return size


class _FileRange(io.RawIOBase):
    """Bytes ``[start, end)`` of a file descriptor, read with ``os.pread``, so that
    the offset of the file, which forked children share, never moves."""

    def __init__(self, fd: int, start: int, end: int) -> None:
        self.fd, self.position, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.end - self.position), self.position)
        buffer[: len(data)] = data
        self.position += len(data)
        return len(data)


def _validate_range(
    fd: int,
    start: int,
    end: int,
    encoding: str,
    read: Callable[[TextIO, _Records], int],
    records: _Records,
) -> int:
    """Validate the records of bytes ``[start, end)`` of ``fd`` into ``records``; returns their count."""
    stream = io.BufferedReader(_FileRange(fd, start, end))
    return read_text(stream, lambda text: read(text, records), encoding)


def _parse_ranges(
    fd: int,
    bounds: list[int],
    first: Callable[[TextIO, _Records], int],
    later: Callable[[TextIO, _Records], int],
    records: _Records,
) -> int:
    """Validate each byte range of ``fd`` into ``records`` as one input; returns the record count.

    Every range after the first is validated in a ``Child`` (``_send``),
    which reads it as plain ``utf-8`` (no BOM is stripped) with ``later``,
    while this process validates the first with ``first``. The children's
    records are then merged in input order. An error raises the error of the
    earliest range that has one, as one range would; on any exit every child
    is ended and reaped.
    """
    children: list[Child] = []
    try:
        for start, end in zip(bounds[1:], bounds[2:]):
            work = partial(_send, fd, start, end, later)
            children.append(Child(f"range parser of bytes {start}-{end}", work))
        total = _validate_range(fd, bounds[0], bounds[1], "utf-8-sig", first, records)
        for child in children:
            total += _merge(child, records, total)
        return total
    finally:
        for child in children:
            child.end()



def _send(
    fd: int, start: int, end: int, cells: Callable[[TextIO, _Records], int], send: Callable
) -> int:
    """In a ``Child``: validate bytes ``[start, end)`` of ``fd`` and ``send`` what
    ``_merge`` reads back; returns the record count.

    Each item sent is ``(part, items)``: the items of one part of the records
    (``_merge`` lists the parts), at most ``_PIPE_ITEMS`` of them, int64 and
    byte buffers as bytes.
    """
    records = _Records()
    rows = _validate_range(fd, start, end, "utf-8", cells, records)
    records.flush()
    eth, usd = records.price_eth, records.price_usd
    parts = (
        records.users,
        records.codes,
        records.timestamp,
        eth.coef,
        eth.exp,
        usd.coef,
        usd.exp,
        records.artwork.data,
        records.artwork.ends[1:],
        list(eth.big.items()),
        eth.neg_zero,
        list(usd.big.items()),
        usd.neg_zero,
        [(reject.row, reject.reason) for reject in records.rejects],
    )
    for part, items in enumerate(parts):
        for at in range(0, len(items), _PIPE_ITEMS):
            chunk = items[at : at + _PIPE_ITEMS]
            send((part, bytes(chunk) if type(chunk) in (array, bytearray) else chunk))
    return rows


def _merge(child: Child, records: _Records, rows_before: int) -> int:
    """Append to ``records`` the records a ``_send`` child sends; returns their count.

    The child's user codes, given at first sight in its range, are mapped to
    the codes ``records`` gives its users, its record numbers (those of its
    rejects and of its invalid JSON line) and its positions of wide
    coefficients and negative zeros move past the ``rows_before`` records
    and the records kept before it, and its artwork offsets past the artwork
    bytes kept before it.
    """
    records.flush()
    kept = len(records.timestamp)
    eth, usd, artwork = records.price_eth, records.price_usd, records.artwork
    artwork_bytes = len(artwork.data)
    code = array("q")  # the code in ``records`` of each of the child's users
    parts = (
        lambda users: code.extend(map(records.user, users)),
        lambda codes: records.codes.frombytes(
            np.frombuffer(code, dtype=np.int64)[np.frombuffer(codes, dtype=np.int64)].tobytes()
        ),
        records.timestamp.frombytes,
        eth.coef.frombytes,
        eth.exp.frombytes,
        usd.coef.frombytes,
        usd.exp.frombytes,
        artwork.data.extend,
        lambda ends: artwork.ends.frombytes(
            (np.frombuffer(ends, dtype=np.int64) + artwork_bytes).tobytes()
        ),
        lambda big: eth.big.update((at + kept, coef) for at, coef in big),
        lambda neg_zero: eth.neg_zero.extend(at + kept for at in neg_zero),
        lambda big: usd.big.update((at + kept, coef) for at, coef in big),
        lambda neg_zero: usd.neg_zero.extend(at + kept for at in neg_zero),
        lambda rejects: records.rejects.extend(
            RejectReport(row + rows_before, reason) for row, reason in rejects
        ),
    )
    try:
        return child.receive(lambda item: parts[item[0]](item[1]))
    except _JsonLineError as exc:
        row, detail = exc.args
        raise _JsonLineError(row + rows_before, detail) from None


# ---------------------------------------------------------------------------
# Record readers and the block reader
# ---------------------------------------------------------------------------


def _read_csv(
    text: TextIO, remap: Mapping[str, str], records: _Records, head: str | None = None
) -> int:
    """Validate each CSV record of ``text`` into ``records``; returns the record count.

    The header row is read from ``text``, or from ``head`` for a later byte
    range. The rows are read in blocks of about ``_BLOCK_CHARS`` of text, at
    most ``_BLOCK_LINES`` lines: a plain block is validated as it is
    (``_read_block``), and any other is read by ``csv.reader``, with as many
    later lines as a quoted field that the block leaves open takes, and
    validated by ``_validate``. Blank lines are skipped and take no record
    number. A short row leaves its trailing fields empty, extra cells are
    ignored, and of duplicate header names the last column wins.
    """
    header = next(csv.reader(text if head is None else (head,)), None)
    if header is None:
        raise ValueError("CSV input has no header row")
    width = len(header)
    position = {name: i for i, name in enumerate(header)}
    # a field without a column reads the "" appended at index ``width``
    fields = [width if key is None else position[key] for key in _field_keys(header, remap)]
    pick = operator.itemgetter(*fields)
    missing = [""] * (width + 1)
    row_num = seen_lines = seen_chars = 0
    size = 2  # until the length of a line is known
    while lines := list(islice(text, size)):
        block = "".join(lines)
        seen_lines += len(lines)
        seen_chars += len(block)
        size = min(_BLOCK_LINES, max(1, _BLOCK_CHARS * seen_lines // seen_chars))
        if _read_block(block, len(lines), width, fields, records, row_num):
            row_num += len(lines)
            continue
        reader = csv.reader(chain(lines, text))
        rows = []
        for row in reader:
            if row:
                if len(row) == width:
                    row.append("")
                else:
                    row = row[:width] + missing[min(len(row), width) :]
                rows.append(pick(row))
            if reader.line_num >= len(lines):
                break
        row_num = _validate(rows, records, row_num)
    return row_num


def _read_block(
    block: str,
    lines: int,
    width: int,
    fields: list[int],
    records: _Records,
    row_num: int,
    originals: Sequence[tuple] | None = None,
) -> bool:
    """Validate the records of ``block``, ``lines`` whole CSV lines that follow
    record ``row_num``, into ``records`` when the block is plain; returns whether it was.

    A plain block holds no ``"``, ``\\r``, NUL or lone surrogate, exactly
    ``width`` cells on every line (so no blank line) and no cell longer than
    the csv module's field limit, and seller, buyer, creator, timestamp and a
    price each have a column. Its lines are split once with ``str.split`` and
    checked a column at a time. A record is kept, with the values
    ``_Records.add`` would keep, when:

    - each id cell is in the memo or a non-empty id that is its own
      ``.strip()`` (a new id is checked once per block, and coded only if a
      kept record names it), and seller and buyer differ;
    - each price is empty or 1 to 18 ASCII digits with at most one ".", and
      one is not empty (``_plain_numbers``);
    - the timestamp is at most 12 ASCII digits naming at most ``_MAX_EPOCH``,
      or a valid ``YYYY-MM-DDTHH:MM:SS`` then ``+00:00`` or ``Z`` (``_iso_stamps``).

    Numbers are read by numpy from byte windows of the block's UTF-8. Any
    other record goes to ``add``, in input order, with its cells in
    ``originals`` if given, else in the block.
    """
    seller, buyer, creator, eth, usd, when, artwork = fields
    if (
        width < 2
        or width in (seller, buyer, creator, when)
        or eth == usd == width
        or '"' in block
        or "\r" in block
        or "\0" in block
    ):
        return False
    if not block.endswith("\n"):
        block += "\n"
    try:
        data = block.encode()
    except UnicodeEncodeError:  # a lone surrogate, which only a JSON escape gives
        return False
    raw = np.frombuffer(b"".join((_PADDING, data, _PADDING)), dtype=np.uint8)
    ends = raw == _COMMA
    ends |= raw == _LF
    ends = np.flatnonzero(ends)
    if ends.size != lines * width:
        return False
    starts = np.empty_like(ends)
    starts[0] = _PAD
    np.add(ends[:-1], 1, out=starts[1:])
    starts, ends = starts.reshape(lines, width), ends.reshape(lines, width)
    kinds = raw[ends]
    if not ((kinds[:, :-1] == _COMMA).all() and (kinds[:, -1] == _LF).all()):
        return False
    if (ends - starts).max() > csv.field_size_limit():  # the csv module raises on such a cell
        return False
    cells = block[:-1].replace("\n", ",").split(",")
    ids = [cells[field::width] for field in (seller, buyer, creator)]
    code_of = records.memo.__getitem__
    codes = np.stack([np.fromiter(map(code_of, column), np.int64, lines) for column in ids], axis=1)
    new = codes < 0
    fails = (codes[:, 0] == codes[:, 1]) & ~new[:, 0]
    # the id cells not in the memo, in input order; such a cell is a new
    # user's id when it is its own strip
    new_rows, new_ids = np.divmod(np.flatnonzero(new), 3)
    at = new_rows * width + np.array((seller, buyer, creator))[new_ids]
    new_cells = list(map(cells.__getitem__, at.tolist()))
    bad = {cell for cell in dict.fromkeys(new_cells) if not cell or cell != cell.strip()}
    if bad:
        fails[new_rows[list(map(bad.__contains__, new_cells))]] = True
    # a new id and a known one name different users; two new ones, unless equal
    for i in np.flatnonzero(new[:, 0] & new[:, 1]).tolist():
        fails[i] |= ids[0][i] == ids[1][i]
    view = sliding_window_view(raw, _ISO_LENGTH)
    numeric = [field for field in (eth, usd, when) if field < width]
    coef, exp, plain, integer = (
        part.reshape(len(numeric), lines)
        for part in _plain_numbers(view, starts[:, numeric].T.ravel(), ends[:, numeric].T.ravel())
    )
    fails |= ~plain[:-1].all(axis=0)
    prices = iter(zip(coef, exp))
    absent = (np.zeros(lines, dtype=np.int64), np.full(lines, NO_VALUE))
    (eth_coef, eth_exp), (usd_coef, usd_exp) = (
        absent if field == width else next(prices) for field in (eth, usd)
    )
    fails |= (eth_exp == NO_VALUE) & (usd_exp == NO_VALUE)
    epoch = coef[-1]
    length = ends[:, when] - starts[:, when]
    stamped = integer[-1] & (length <= _EPOCH_DIGITS) & (epoch <= _MAX_EPOCH)
    iso = (length == _ISO_LENGTH) | (length == _ISO_LENGTH - len(_UTC) + 1)
    if iso.any():
        seconds, plain = _iso_stamps(view, starts[:, when], length == _ISO_LENGTH)
        plain &= iso
        epoch = np.where(plain, seconds, epoch)
        stamped |= plain
    fails |= ~stamped
    # new ids are coded only now their records are kept, each at its first sight
    keep = ~fails[new_rows]
    kept_cells = list(compress(new_cells, keep.tolist()))
    for cell in dict.fromkeys(kept_cells):
        records.user(cell)
    codes[new_rows[keep], new_ids[keep]] = list(map(code_of, kept_cells))
    art = [""] * lines if artwork == width else list(map(str.strip, cells[artwork::width]))
    pick = operator.itemgetter(*fields)
    kept = 0
    for row in np.flatnonzero(fails).tolist() + [lines]:
        if kept < row:
            part = slice(kept, row)
            records.extend(
                codes[part],
                eth_coef[part],
                eth_exp[part],
                usd_coef[part],
                usd_exp[part],
                epoch[part],
                art[part],
            )
        if row < lines:
            line = cells[row * width : (row + 1) * width]
            records.add(row_num + row + 1, *(originals[row] if originals else pick(line + [""])))
        kept = row + 1
    records.flush()
    return True


def _plain_numbers(view: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """The coefficient and exponent of the number cell at bytes ``[starts[i],
    ends[i])`` of each ``i``, whether it is plain, and whether it is a plain
    integer; ``view`` holds the windows of the padded block.

    A plain cell is empty (coefficient 0, exponent ``NO_VALUE``) or ASCII
    decimal text: 1 to 18 digits and at most one ".", so at most
    ``_NUMBER_BYTES - 1`` bytes. Each cell is read right-aligned, one row of
    ``window`` per place, with the digits above the "." moved down onto it.
    """
    length = ends - starts
    window = np.ascontiguousarray(view[ends - _NUMBER_BYTES, :_NUMBER_BYTES].T)
    inside = _NUMBER_ROWS >= (_NUMBER_BYTES - np.minimum(length, _NUMBER_BYTES)).astype(np.uint8)
    digit = window - _ZERO  # wraps below "0", so a digit is below 10
    is_digit = digit < 10
    is_digit &= inside
    is_dot = window == _DOT
    is_dot &= inside
    digits = np.add.reduce(is_digit, axis=0, dtype=np.uint8)
    dots = np.add.reduce(is_dot, axis=0, dtype=np.uint8)
    plain = (digits + dots == length) & (dots <= 1) & (digits >= 1) & (digits <= 18)
    digit *= is_digit
    # the places below a "." keep their digits, and those above it move down one
    after = np.add.reduce(is_dot * _PLACES_AFTER, axis=0, dtype=np.uint8)
    stay = _PLACES_AFTER < np.where(dots == 0, _NUMBER_BYTES, after)
    digit[1:] = np.where(stay[1:], digit[1:], digit[:-1])
    # two digits to a byte, then four to a uint16: five base-10**4 places
    pairs = digit[0::2] * np.uint8(10) + digit[1::2]
    fours = pairs[0::2].astype(np.uint16) * 100 + pairs[1::2]
    coef = np.zeros(len(length), dtype=np.int64)
    for place in fours:
        coef *= 10_000
        coef += place
    missing = length == 0
    exp = np.where(missing, NO_VALUE, -after.astype(np.int64))
    return coef, exp, plain | missing, plain & (dots == 0)


def _iso_stamps(view: np.ndarray, starts: np.ndarray, long: np.ndarray) -> tuple:
    """The UTC epoch seconds of the ISO timestamp cell at byte ``starts[i]`` of
    each ``i``, ``long`` where it is 25 bytes long and else 20, and whether it is plain.

    A plain cell is ``YYYY-MM-DDTHH:MM:SS``, then ``+00:00`` (long) or
    ``Z``, naming a valid date and time.
    """
    window = np.ascontiguousarray(view[starts].T)
    digit = window[: len(_ISO)] - _ZERO
    form = np.where(_ISO_DIGITS, digit < 10, window[: len(_ISO)] == _ISO).all(axis=0)
    utc = np.where(long, (window[len(_ISO) :] == _UTC).all(axis=0), window[len(_ISO)] == ord("Z"))
    tens = digit[list(_STAMP_FIELDS)].astype(np.int64)
    fields = tens * 10 + digit[[k + 1 for k in _STAMP_FIELDS]]
    century, year, month, day, hour, minute, second = fields
    year += century * 100
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    known_month = (month >= 1) & (month <= 12)
    month = np.where(known_month, month - 1, 0)  # from 0
    month_days = _MONTH_DAYS[month] + (leap & (month == 1))
    plain = form & utc & (year >= 1) & known_month & (day >= 1) & (day <= month_days)
    plain &= (hour < 24) & (minute < 60) & (second < 60)
    past = year - 1  # whole years since 0001-01-01
    days = 365 * past + past // 4 - past // 100 + past // 400 + _DAYS_BEFORE[month]
    days += (leap & (month >= 2)) + day - 1
    return days * _DAY_S + hour * 3600 + minute * 60 + second + _MIN_EPOCH, plain


# the fields of the lines ``_validate`` joins, the cells of an absent JSON
# field, the cell types each column is joined from as they are, and the
# columns where a JSON number, which joins as the str it subclasses, is not text
_FIELDS = list(range(len(CANONICAL_FIELDS)))
_EMPTY = ("",) * len(_FIELDS)
_JOINED = [{str}] * 3 + [{str, _JsonNumber}] * 2 + [{str}] * 2
_TEXT_CELLS = [
    operator.itemgetter(k) for k, types in enumerate(_JOINED) if _JsonNumber not in types
]


def _json_cells(records: Iterable[object], remap: Mapping[str, str]) -> Iterator[tuple]:
    """The seven canonical cells of each JSON record, "" for an absent field.

    A record that is not an object has none of the fields.
    """
    keys_by_layout: dict[tuple, list[str | None]] = {}
    for record in records:
        if not isinstance(record, dict):
            record = {}
        layout = tuple(record)
        keys = keys_by_layout.get(layout)
        if keys is None:
            keys = keys_by_layout[layout] = _field_keys(layout, remap)
        yield tuple(map(record.get, keys, _EMPTY))


def _json_records(text: TextIO) -> Iterable[object]:
    """The records of an array of objects, decoded whole, or of one object per line.

    The first non-blank line tells them apart. Lines end at ``\\n``, ``\\r\\n``
    or ``\\r`` only, so any other line-break character stays inside its record.
    """
    lines = iter(text)
    head = ""  # the text up to the first non-blank line's end
    for line in lines:
        head += line
        if line.strip():
            break
    else:
        raise ValueError("JSON input is empty")
    if not line.lstrip().startswith("["):
        return _ndjson_records(chain((line,), lines))
    whole = head + text.read()
    try:  # past whitespace the text opens with "[", so it decodes to a list or not at all
        return _json_loads(whole)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise ValueError(f"invalid JSON input: {exc}") from None


def _ndjson_records(lines: Iterable[str]) -> Iterator[object]:
    """Decode each non-blank line, without its line end; blank lines take no record number."""
    row_num = 0
    for line in lines:
        if not line.strip():
            continue
        row_num += 1
        try:
            record = _json_loads(line.rstrip("\r\n"))
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
            raise _JsonLineError(row_num, str(exc)) from None
        yield record


def _reader_of(
    fmt: str, remap: Mapping[str, str], head: str | None = None
) -> Callable[[TextIO, _Records], int]:
    """The reader that validates each record of a text into ``records`` and
    returns their count.

    Without ``head`` the text is a whole input. With it, the text is a
    later byte range of one: CSV rows read under the header line ``head``,
    or one-object-per-line JSON.
    """
    if fmt == "csv":
        return lambda text, records: _read_csv(text, remap, records, head)
    return lambda text, records: _validate(
        _json_cells(_json_records(text) if head is None else _ndjson_records(text), remap),
        records,
    )


def _validate(rows: Iterable[tuple], records: _Records, row_num: int = 0) -> int:
    """Validate each record's seven cells, records ``row_num + 1`` on, into
    ``records``; returns the number of the last.

    A block of at most ``_BLOCK_LINES`` records at a time is joined into
    seven-column lines (``_block_text``) for ``_read_block``, which sends
    each record that fails a check to ``_Records.add`` with its original
    cells; every record of a block that it refuses goes there too.
    """
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_LINES)):
        text = _block_text(block)
        if not _read_block(text, len(block), len(_FIELDS), _FIELDS, records, row_num, block):
            for row, cells in enumerate(block, start=row_num + 1):
                records.add(row, *cells)
            records.flush()
        row_num += len(block)
    return row_num


def _block_text(block: list[tuple]) -> str:
    """The records of ``block`` as seven-column CSV lines, for ``_read_block``.

    A null cell (None) is joined as "", which ``_Records.add`` reads alike.
    Any other cell that is not text there (an id, timestamp or artwork that
    is not a ``str``, a price that is neither a ``str`` nor a JSON number)
    is joined as "" with an empty seller, which fails the id check, so that
    ``add`` reads the record's cells as they are: a JSON number id, for one,
    names the id of its ``Decimal``'s text.
    """
    try:
        text = "\n".join(map(",".join, block))
    except TypeError:  # a cell that is not a str, most often null
        pass
    else:
        if all(set(map(type, map(cell, block))) == {str} for cell in _TEXT_CELLS):
            return text
    columns = list(map(list, zip(*block)))
    for column, joined in zip(columns, _JOINED):
        if not set(map(type, column)) <= joined:
            for i, cell in enumerate(column):
                if cell is None:
                    column[i] = ""
                elif type(cell) not in joined:
                    column[i] = columns[0][i] = ""
    return "\n".join(map(",".join, zip(*columns)))


def _field_keys(present: Iterable[str], remap: Mapping[str, str]) -> list[str | None]:
    """The input key that supplies each canonical field, None where none does.

    A mapped source key wins over a same-named canonical key, which is not
    read as itself once it is a map source; of several present sources
    mapped to one field, the last in the map wins.
    """
    present = set(present)
    keys = []
    for name in CANONICAL_FIELDS:
        key = None
        for src, dst in remap.items():
            if dst == name and src in present:
                key = src
        if key is None and name in present and name not in remap:
            key = name
        keys.append(key)
    return keys


# ---------------------------------------------------------------------------
# Field validation
# ---------------------------------------------------------------------------


def _require_id(value: object, name: str) -> str:
    text = str(value).strip() if value is not None else ""
    if not text:
        raise _Reject(f"missing field: {name}")
    if "\r" in text:
        raise _Reject(f"carriage return in field: {name}")
    if _SURROGATE.search(text):
        raise _Reject(f"lone surrogate in field: {name}")
    return text


def _parse_price(value: object, label: str) -> Decimal | None:
    if value is None:
        return None
    # str() of a Decimal, int or float round-trips its value; of a JSON
    # boolean it is 'True' or 'False', which Decimal rejects
    text = str(value).strip()
    if not text:
        return None
    try:
        price = Decimal(text)
    except InvalidOperation:
        raise _Reject(f"bad price: {label}={text!r}") from None
    if not price.is_finite():
        raise _Reject(f"bad price: {label} is not finite")
    if price < 0:
        raise _Reject("negative price")
    if price > _MAX_FLOAT or not _bounded(price):
        raise _Reject(f"bad price: {label} is out of range")
    return price


def _bounded(value: Decimal) -> bool:
    """Whether a finite decimal has at most ``_MAX_DIGITS`` significant digits and
    an exponent in ``[-_MAX_EXPONENT, _MAX_EXPONENT]``."""
    try:
        _BOUNDS.plus(value)
    except (Rounded, Clamped):
        return False
    return True


def _parse_timestamp(value: object) -> int:
    """UTC epoch seconds, floored, of an integer or ISO-8601 timestamp."""
    if value is None or (isinstance(value, str) and not value.strip()):
        raise _Reject("missing field: timestamp")
    try:
        seconds = _epoch_seconds(value)
    except (ValueError, OverflowError):
        raise _Reject(f"bad timestamp: {value!r}") from None
    if not _MIN_EPOCH <= seconds <= _MAX_EPOCH:
        raise _Reject(f"bad timestamp: {value!r}")
    return seconds


def _epoch_seconds(value: object) -> int:
    if isinstance(value, bool):
        raise ValueError("boolean timestamp")
    if isinstance(value, int):
        return value
    if isinstance(value, Decimal):
        # int() of a huge exponent would build the whole integer first
        if not _MIN_EPOCH <= value <= _MAX_EPOCH:
            raise ValueError("epoch timestamp out of range")
        if value != value.to_integral_value():
            raise ValueError("fractional epoch timestamp")
        return int(value)
    text = str(value).strip()
    # int() rejects any text with ':' or an inner '-', so ISO text skips it
    if ":" not in text and "-" not in text[1:]:
        try:
            return int(text)
        except ValueError:
            pass
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    since_epoch = dt - _EPOCH
    return since_epoch.days * _DAY_S + since_epoch.seconds
