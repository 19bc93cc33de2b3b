"""Sale-event ingestion: parsing, validation, and ETH to USD conversion.

Raw rows (CSV or JSON) are validated record by record into a columnar
``EventLog``: interned user codes, UTC epoch seconds, exact ``Decimal``
prices and artwork ids, one array per field. Bad rows never abort a run;
they are returned as ``RejectReport`` entries with a row number and reason.
Prices stay exact ``Decimal`` values, and every sum over them is computed
without rounding, so that re-exported logs are byte-identical to their
source; conversion to binary floats happens only inside the numeric
analysis modules. ``SaleEvent`` is the row view of the log, built on
demand by ``EventLog.events``.

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
import re
import sys
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    InvalidOperation,
    localcontext,
)
from functools import cached_property
from itertools import chain, islice
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

PRIMARY = "primary"
SECONDARY = "secondary"

CANONICAL_FIELDS = (
    "seller",
    "buyer",
    "creator",
    "price_eth",
    "price_usd",
    "timestamp",
    "artwork_id",
)

EVENT_CSV_HEADER = CANONICAL_FIELDS

# Sums and products of finite decimals are exact under this context.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_ZERO = Decimal(0)
# prices above this become inf in the float adjacency, so ingest rejects them
_MAX_FLOAT = Decimal(sys.float_info.max)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)
_DAY_S = 86_400
_CSV_SPECIAL = re.compile('[,"\r\n]')  # characters the csv writer may quote for
_CSV_CHUNK_ROWS = 1 << 16
# UTC epoch seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the
# range of datetime
_MIN_EPOCH = -62_135_596_800
_MAX_EPOCH = 253_402_300_799


class MissingRateError(ValueError):
    """Raised when a conversion needs exchange rates for dates not in the table."""

    def __init__(self, missing_dates: Iterable[date]):
        self.missing_dates = tuple(sorted(set(missing_dates)))
        days = ", ".join(d.isoformat() for d in self.missing_dates)
        super().__init__(f"missing exchange rate for dates: {days}")


class _Reject(Exception):
    """Internal: per-record validation failure with a stable reason string."""


@dataclass(frozen=True)
class RejectReport:
    """One rejected input record: 1-based record number plus the reason."""

    row: int
    reason: str


@dataclass(frozen=True)
class SaleEvent:
    """One validated market transaction.

    ``creator_id`` is the original artist of the sold token, which differs
    from ``seller_id`` on secondary-market resales. ``price_usd`` is None
    until currency conversion runs for ETH-only records.
    """

    seller_id: str
    buyer_id: str
    creator_id: str
    price_eth: Decimal | None
    price_usd: Decimal | None
    timestamp: datetime
    artwork_id: str | None = None

    def __post_init__(self) -> None:
        if self.buyer_id == self.seller_id:
            raise ValueError("self-sale: buyer equals seller")
        if self.price_eth is None and self.price_usd is None:
            raise ValueError("event carries neither an ETH nor a USD price")
        for label, price in (("price_eth", self.price_eth), ("price_usd", self.price_usd)):
            if price is not None and price < 0:
                raise ValueError(f"{label} must be non-negative")
        if self.timestamp.tzinfo is None:
            raise ValueError("timestamp must be timezone-aware")

    @property
    def market(self) -> str:
        """``primary`` when the artist sells their own creation, else ``secondary``."""
        return PRIMARY if self.seller_id == self.creator_id else SECONDARY

    @property
    def needs_conversion(self) -> bool:
        return self.price_usd is None


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

    def get(self, day: date) -> Decimal | None:
        return self.rates.get(day)

    @classmethod
    def from_csv(cls, stream: BinaryIO | bytes) -> "RateTable":
        """Load a two-column ``date,usd_per_eth`` CSV with ISO dates."""
        text = _decode(stream)
        reader = csv.reader(io.StringIO(text, newline=""))
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
        return cls(rates)


# ---------------------------------------------------------------------------
# Exact decimal folds
# ---------------------------------------------------------------------------


def exact_sum(values: Iterable[Decimal]) -> Decimal:
    """Sum of decimals without rounding, starting from ``Decimal(0)``."""
    with localcontext(_EXACT):
        return sum(values, _ZERO)


def sum_by(values: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """Exact per-group sums of an object array of decimals.

    ``groups[i]`` in ``[0, n)`` names the group of ``values[i]``. Every group
    starts from ``Decimal(0)``, so a group's exponent is that of the same
    sum written out by hand, and an empty group sums to ``Decimal(0)``.
    """
    sums = np.empty(n, dtype=object)
    sums.fill(_ZERO)
    with localcontext(_EXACT):
        np.add.at(sums, groups, values)
    return sums


# ---------------------------------------------------------------------------
# The columnar log
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EventLog:
    """Validated sale events as columns, sorted ascending by timestamp.

    Event ``i`` is seller ``users[seller[i]]``, buyer ``users[buyer[i]]``,
    creator ``users[creator[i]]``, sold at ``timestamp[i]`` (UTC epoch
    seconds) for the exact prices ``price_eth[i]`` and ``price_usd[i]``
    (``Decimal`` or None) of artwork ``artwork[i]`` (str or None). ``users``
    lists every user of the log once, in order of first appearance (seller,
    buyer, then creator within one event), so a user's code is its node
    index in the network built from the log.
    """

    users: tuple[str, ...]
    seller: np.ndarray
    buyer: np.ndarray
    creator: np.ndarray
    timestamp: np.ndarray
    price_eth: np.ndarray
    price_usd: np.ndarray
    artwork: np.ndarray
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

    def __eq__(self, other: object) -> bool:
        """Logs are equal when their metadata and their events are."""
        if not isinstance(other, EventLog):
            return NotImplemented
        return (self.source, self.total_records, self.rejected_count, self.events) == (
            other.source,
            other.total_records,
            other.rejected_count,
            other.events,
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def accepted_count(self) -> int:
        return len(self.timestamp)

    @cached_property
    def needs_conversion(self) -> np.ndarray:
        """Mask of the events without a USD price."""
        return np.array([price is None for price in self.price_usd.tolist()], dtype=bool)

    @property
    def needs_conversion_count(self) -> int:
        return int(np.count_nonzero(self.needs_conversion))

    @property
    def zero_price_count(self) -> int:
        priced = np.where(self.needs_conversion, self.price_eth, self.price_usd)
        return int(np.count_nonzero(priced == 0))

    def require_usd(self) -> None:
        """Raise ValueError unless every event carries a USD price."""
        unconverted = self.needs_conversion_count
        if unconverted:
            raise ValueError(
                f"{unconverted} event(s) lack a USD price; apply convert_currency first"
            )

    @cached_property
    def events(self) -> tuple[SaleEvent, ...]:
        """The log as ``SaleEvent`` rows, built on first access."""
        users = self.users
        return tuple(
            SaleEvent(
                seller_id=users[s],
                buyer_id=users[b],
                creator_id=users[c],
                price_eth=eth,
                price_usd=usd,
                timestamp=datetime.fromtimestamp(ts, tz=timezone.utc),
                artwork_id=artwork,
            )
            for s, b, c, eth, usd, ts, artwork in zip(
                self.seller.tolist(),
                self.buyer.tolist(),
                self.creator.tolist(),
                self.price_eth.tolist(),
                self.price_usd.tolist(),
                self.timestamp.tolist(),
                self.artwork.tolist(),
            )
        )

    @classmethod
    def from_events(cls, events: Iterable[SaleEvent], source: str = "") -> "EventLog":
        """Build a log from in-memory events (sorted here; counts set to match).

        ``events`` of the result are the caller's objects, in sorted order.
        """
        ordered = tuple(sorted(events, key=lambda e: e.timestamp))
        rows = [
            (
                e.seller_id,
                e.buyer_id,
                e.creator_id,
                e.price_eth,
                e.price_usd,
                (e.timestamp - _EPOCH) // _SECOND,
                e.artwork_id,
            )
            for e in ordered
        ]
        log = _assemble(rows, source, total=len(rows), rejected=0)
        object.__setattr__(log, "events", ordered)
        return log


class _Records:
    """Validated records in input order, plus the rejected ones."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.rejects: list[RejectReport] = []
        self.ids: dict[str, str] = {}  # one str object per distinct user id

    def add(self, row, seller, buyer, creator, price_eth, price_usd, timestamp, artwork) -> None:
        """Validate one raw record; keep it, or record why it was rejected."""
        try:
            seller = _require_id(seller, "seller")
            buyer = _require_id(buyer, "buyer")
            creator = _require_id(creator, "creator")
            if buyer == seller:
                raise _Reject("self-sale")
            eth = _parse_price(price_eth, "price_eth")
            usd = _parse_price(price_usd, "price_usd")
            if eth is None and usd is None:
                raise _Reject("missing price")
            epoch = _parse_timestamp(timestamp)
        except _Reject as exc:
            self.rejects.append(RejectReport(row=row, reason=str(exc)))
            return
        if artwork is not None:
            artwork = str(artwork).strip() or None
        ids = self.ids
        self.rows.append(
            (
                ids.setdefault(seller, seller),
                ids.setdefault(buyer, buyer),
                ids.setdefault(creator, creator),
                eth,
                usd,
                epoch,
                artwork,
            )
        )


def _assemble(rows: list[tuple], source: str, total: int, rejected: int) -> EventLog:
    """The log of valid ``(seller, buyer, creator, price_eth, price_usd,
    epoch seconds, artwork)`` rows, stably sorted by timestamp."""
    timestamp = np.array([row[5] for row in rows], dtype=np.int64)
    order = np.argsort(timestamp, kind="stable")  # input order breaks ties
    rows = [rows[i] for i in order.tolist()]
    seller, buyer, creator, eth, usd, _, artwork = ([row[k] for row in rows] for k in range(7))
    # interning in event order numbers users by first appearance
    ids = list(chain.from_iterable(zip(seller, buyer, creator)))
    users = tuple(dict.fromkeys(ids))
    code = {user: i for i, user in enumerate(users)}
    codes = np.fromiter(map(code.__getitem__, ids), dtype=np.int64, count=len(ids))
    seller_code, buyer_code, creator_code = codes.reshape(-1, 3).T.copy()
    return EventLog(
        users=users,
        seller=seller_code,
        buyer=buyer_code,
        creator=creator_code,
        timestamp=timestamp[order],
        price_eth=np.array(eth, dtype=object),
        price_usd=np.array(usd, dtype=object),
        artwork=np.array(artwork, dtype=object),
        source=source,
        total_records=total,
        rejected_count=rejected,
    )


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
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported input format: {fmt}")
    if source is None:
        source = getattr(stream, "name", "") or ""
        source = str(source)
    text = _decode(stream)

    remap = dict(field_map or {})
    for dst in remap.values():
        if dst not in CANONICAL_FIELDS:
            raise ValueError(f"field map target {dst!r} is not a canonical field")
    records = _Records()
    read = _read_csv if fmt == "csv" else _read_json
    total = read(text, remap, records.add)
    return _assemble(records.rows, source, total, len(records.rejects)), records.rejects


def convert_currency(log: EventLog, rates: RateTable) -> EventLog:
    """Fill USD prices for ETH-only events using the rate of the UTC sale date.

    Already-priced events pass through untouched, so the operation is
    idempotent. Products are exact. Raises ``MissingRateError`` listing
    every uncovered date.
    """
    rows = np.flatnonzero(log.needs_conversion)
    if not rows.size:
        return log
    days, day_of_row = np.unique(log.timestamp[rows] // _DAY_S, return_inverse=True)
    dates = [_EPOCH.date() + timedelta(days=d) for d in days.tolist()]
    day_rates = [rates.get(day) for day in dates]
    missing = [day for day, rate in zip(dates, day_rates) if rate is None]
    if missing:
        raise MissingRateError(missing)
    price_usd = log.price_usd.copy()
    with localcontext(_EXACT):
        price_usd[rows] = log.price_eth[rows] * np.array(day_rates, dtype=object)[day_of_row]
    return replace(log, price_usd=price_usd)


def write_events_csv(log: EventLog, stream) -> None:
    """Write the canonical event CSV (re-parsable by ``parse_events``)."""
    write_csv_rows(stream, chain([EVENT_CSV_HEADER], _event_rows(log)))


def _event_rows(log: EventLog) -> Iterator[tuple[str, ...]]:
    # formatted a chunk at a time, so the text of the whole log never exists at once
    names = np.array(log.users, dtype=object)
    for start in range(0, log.accepted_count, _CSV_CHUNK_ROWS):
        part = slice(start, start + _CSV_CHUNK_ROWS)
        when = np.datetime_as_string(log.timestamp[part].astype("datetime64[s]"), unit="s")
        yield from zip(
            names[log.seller[part]].tolist(),
            names[log.buyer[part]].tolist(),
            names[log.creator[part]].tolist(),
            _price_text(log.price_eth[part]),
            _price_text(log.price_usd[part]),
            [day_time + "+00:00" for day_time in when.tolist()],
            [artwork or "" for artwork in log.artwork[part].tolist()],
        )


def write_csv_rows(stream, rows: Iterable[Sequence[str]]) -> None:
    """Write rows of str fields exactly as ``csv.writer(stream, lineterminator="\\n")``.

    Rows of two or more fields, none holding a delimiter, quote or line
    break, need no quoting; each chunk of such rows is joined directly, and
    any other chunk goes through the csv writer.
    """
    writer = csv.writer(stream, lineterminator="\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _CSV_CHUNK_ROWS)):
        if min(map(len, chunk)) < 2 or _CSV_SPECIAL.search("".join(chain.from_iterable(chunk))):
            writer.writerows(chunk)
        else:
            stream.write("\n".join(map(",".join, chunk)) + "\n")


def _price_text(prices: np.ndarray) -> list[str]:
    return ["" if price is None else str(price) for price in prices.tolist()]


# ---------------------------------------------------------------------------
# Record readers
# ---------------------------------------------------------------------------


def _decode(stream: BinaryIO | bytes) -> str:
    data = stream if isinstance(stream, (bytes, bytearray)) else stream.read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"input is not valid UTF-8: {exc}") from None


def _read_csv(text: str, remap: Mapping[str, str], add) -> int:
    """Feed each CSV record to ``add``; returns the record count.

    Blank lines are skipped and take no record number. A short row leaves
    its trailing fields missing, extra cells are ignored, and of duplicate
    header names the last column wins.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError("CSV input has no header row")
    width = len(header)
    position = {name: i for i, name in enumerate(header)}
    # a field without a column reads the None appended at index ``width``
    pick = operator.itemgetter(
        *(width if key is None else position[key] for key in _field_keys(header, remap))
    )
    missing = [None] * (width + 1)
    row_num = 0
    for row in reader:
        if not row:
            continue
        row_num += 1
        if len(row) == width:
            row.append(None)
        else:
            row = row[:width] + missing[min(len(row), width) :]
        add(row_num, *pick(row))
    return row_num


def _read_json(text: str, remap: Mapping[str, str], add) -> int:
    """Feed each JSON record to ``add``; returns the record count."""
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("JSON input is empty")
    if stripped.startswith("["):
        try:
            payload = json.loads(text, parse_float=Decimal)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON input: {exc}") from None
        if not isinstance(payload, list):
            raise ValueError("JSON input must be an array of objects")
        items: Iterable[tuple[int, object]] = enumerate(payload, start=1)
    else:
        items = _iter_ndjson(text)
    keys_by_layout: dict[tuple, list[str | None]] = {}
    row_num = 0
    for row_num, record in items:
        if not isinstance(record, dict):
            record = {}  # a record that is not an object has none of the fields
        layout = tuple(record)
        keys = keys_by_layout.get(layout)
        if keys is None:
            keys = keys_by_layout[layout] = _field_keys(layout, remap)
        add(row_num, *map(record.get, keys))
    return row_num


def _iter_ndjson(text: str) -> Iterator[tuple[int, object]]:
    decoder = json.JSONDecoder(parse_float=Decimal)
    row_num = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        row_num += 1
        try:
            yield row_num, decoder.decode(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON on record {row_num}: {exc}") from None


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
    if price > _MAX_FLOAT:
        raise _Reject(f"bad price: {label} is out of range")
    return price


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
