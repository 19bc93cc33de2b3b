"""Sale-event ingestion: parsing, validation, and ETH to USD conversion.

Raw rows (CSV or JSON) are validated record by record into a columnar
``EventLog``: user codes in user-id order, UTC epoch seconds, exact prices
and artwork ids, one column per field. Bad rows never abort a run;
they are returned as ``RejectReport`` entries with a row number and reason.
An id or artwork id that holds a ``\\r`` is one of them: the csv module of
some Python versions writes it unquoted, so ``events.csv`` could not be
read back. So is one that holds a lone surrogate (a JSON escape such as
``\\ud800``), which UTF-8 cannot encode; only JSON lines holding a ``\\``
are searched for one.
Input is decoded as it is read: CSV a buffer at a time, one-object-per-line
JSON a line at a time, where a line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only;
only a JSON array is decoded whole. CSV rows and JSON records alike pass
one validating loop, whose inline fast path keeps what the full validator
would keep for the common record; every other record goes through the full
validator. Logs come only from ``parse_events`` (and ``convert_currency``
of one), so the validator alone decides what a log holds.

``write_csv`` writes every CSV artifact, ``events.csv`` among them, from
equal-length columns a chunk of rows at a time. Each column type has one
text rule, and only str cells and artwork ids can need quoting, so a chunk
is joined directly unless they hold a delimiter, quote or line break; such a
chunk goes through the csv writer, which gives the same bytes.

A regular file given as ``open(path, "rb")`` is parsed in byte ranges when
this process may use two or more CPUs and the file holds at least
``_MIN_RANGE_BYTES`` per range. Each range ends at a line end. The first is
validated in this process and each other one in a forked ``_Child``,
which pipes its columns back; they are merged in input order, so the log,
its rejects and any error are those of one range. CSV holding
any ``"`` (a quoted field may span lines), a JSON array, a stream that is
not a regular file, ``bytes`` and text streams stay one range, as does every
input where ``os.fork`` is missing. A child's memory belongs to its own
process. On Python 3.12+ ``os.fork`` warns when the process runs other
threads, as numpy's OpenBLAS does; ``_Child`` states the rules that keep
every child safe, those that ``artifacts.ArtifactWriter`` forks to write
artifacts included.

Prices stay exact. Each price column is a ``DecimalColumn``: an integer
coefficient array, an integer exponent array and a missing mask, so value
``i`` is exactly ``coef[i] * 10**exp[i]``, with no ``Decimal`` object per
sale. A plain price cell (ASCII digits with at most one ".", at most 18
digits) is read straight into coefficient and exponent; any other cell is
read as a ``Decimal`` by the full validator. Sums, ETH to USD products and
price text follow ``Decimal`` arithmetic exactly, so that re-exported logs
are byte-identical to their source; conversion to binary floats is
correctly rounded and happens only where the numeric analysis needs it.
Indexing a price column, iterating it or ``tolist()`` gives ``Decimal``
prices.

Artwork ids are a ``TextColumn``: the UTF-8 bytes of every id in one uint8
array plus int64 offsets, a zero-length id being None, so a log holds no
``str`` object per sale. Ids are encoded a block of ``_BLOCK_RECORDS``
records at a time as they are read, decoded a ``write_csv`` chunk at a
time, and counted distinct on their bytes.

Canonical input field names: ``seller``, ``buyer``, ``creator``,
``price_eth``, ``price_usd``, ``timestamp`` (ISO-8601 or integer Unix
seconds) and optional ``artwork_id``. Differently named source columns are
remapped through a ``field_map`` of source name to canonical name.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import operator
import os
import pickle
import re
import stat
import sys
from array import array
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Clamped,
    Context,
    Decimal,
    InvalidOperation,
    Rounded,
)
from functools import cached_property, partial
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

import numpy as np

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

EVENT_CSV_HEADER = CANONICAL_FIELDS

# Sums and products of finite decimals are exact under this context.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
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
# exact powers of ten: int64 up to 10**18, float64 up to 10**22
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10_FLOAT = np.array([float(10**k) for k in range(23)])
_FLOAT_EXACT_INT = 2**53  # every int up to this magnitude is an exact double
# a float bound on magnitudes under which int64 arithmetic cannot overflow;
# half of 2**63 leaves room for the rounding of the bound itself
_INT64_SAFE = 2.0**62
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# the buffer exponent of a missing value, outside Decimal's exponent range
_NO_VALUE = _INT64_MIN
# records whose integers are appended to lists before they move into int64
# buffers; a list append is cheaper than an array append
_BLOCK_RECORDS = 1 << 13
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY_S = 86_400
_CSV_CHUNK_ROWS = 1 << 13
# the bytes that send a ``write_csv`` chunk through the csv writer
_CSV_SPECIAL = np.frombuffer(b',"\r\n', dtype=np.uint8)
_LINE_FEED = ord("\n")
# values gathered per step of a text column's ``_take``: its byte index stays
# below glibc's 128 KiB mmap threshold for values of up to 16 bytes on average
_TAKE_ROWS = 1 << 10
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
_SIGKILL = 9  # fixed by POSIX; importing signal for it would cost start-up time
# a ``_Child`` message: an item its work sent, or, last, what the work returned or raised
_SENT, _RETURNED, _RAISED = range(3)


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

    def get(self, day: date) -> Decimal | None:
        return self.rates.get(day)

    @classmethod
    def from_csv(cls, stream: BinaryIO | bytes) -> "RateTable":
        """Load a two-column ``date,usd_per_eth`` CSV with ISO dates."""
        return cls(_read_text(stream, _rate_rows))


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


# ---------------------------------------------------------------------------
# Exact decimal columns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecimalColumn:
    """Exact decimals, some perhaps missing, as columns: value ``i`` is ``coef[i] * 10**exp[i]``.

    ``coef`` is int64, or an object array of Python ints once a value or a
    sum of values could pass 2**63; the same code runs on both. ``exp`` is
    int64. ``missing`` marks the absent values (None), whose coefficient and
    exponent are 0. ``neg_zero`` marks the zeros written with a minus sign
    (``-0``, ``-0.00``): they keep it in text, as ``Decimal`` does, and add
    as +0. An integer index, iteration and ``tolist()`` give ``Decimal``
    values (or None); every fold, product and format works on the integer
    columns.
    """

    coef: np.ndarray
    exp: np.ndarray
    missing: np.ndarray
    neg_zero: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.coef)
        if any(len(column) != n for column in (self.exp, self.missing, self.neg_zero)):
            raise ValueError("decimal column parts must have equal length")

    @classmethod
    def from_values(cls, values: Iterable[Decimal | None]) -> "DecimalColumn":
        """The column of finite ``Decimal`` values and Nones."""
        buffer = _DecimalBuffer()
        for value in values:
            buffer.append(value)
        return buffer.column

    def __len__(self) -> int:
        return len(self.coef)

    def __getitem__(self, key):
        """The ``Decimal`` (or None) at an integer index; a column for a slice, mask or index array."""
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return self[i : i + 1].tolist()[0]
        return DecimalColumn(self.coef[key], self.exp[key], self.missing[key], self.neg_zero[key])

    def __iter__(self) -> Iterator[Decimal | None]:
        return iter(self.tolist())

    def tolist(self) -> list[Decimal | None]:
        return [Decimal(text) if text else None for text in self.text()]

    def text(self) -> list[str]:
        """Each value as ``str`` of its ``Decimal`` writes it, "" where missing.

        Non-negative int64 values with an exponent in ``[-18, 0]`` that
        ``Decimal`` writes without an exponent are formatted as byte rows,
        a group of equal exponents at a time; every other value is ``str``
        of its exact ``Decimal``.
        """
        n = len(self)
        coef, exp = self.coef, self.exp
        plain = ~(self.missing | self.neg_zero) & (exp <= 0) & (exp >= -18)
        if coef.dtype == object:
            plain[:] = False
        else:
            # Decimal writes an exponent once the adjusted exponent is below
            # -6: for an exponent below -6, a coefficient below 10**(-exp - 6)
            plain &= (coef >= 0) & ((exp >= -6) | (coef >= _POW10[np.clip(-exp - 6, 0, 18)]))
        if n and plain.all() and exp.min() == exp.max():
            return _plain_text(coef, int(-exp[0]))
        if self.missing.all():
            return [""] * n
        texts = np.full(n, "", dtype=object)
        for scale in (-np.unique(exp[plain])).tolist():
            rows = np.flatnonzero(plain & (exp == -scale))
            texts[rows] = _plain_text(coef[rows], scale)
        rows = np.flatnonzero(~plain & ~self.missing)
        texts[rows] = list(map(str, self._decimals(rows)))
        return texts.tolist()

    def to_float(self) -> np.ndarray:
        """``float`` of each value's ``Decimal``: correctly rounded, inf beyond the
        float range, NaN where missing.

        A coefficient of at most 2**53 in magnitude and a power of ten up to
        10**22 are both exact doubles, so one IEEE division or product of the
        two rounds correctly; any other value is ``float`` of its exact
        ``Decimal``, which rounds once, correctly too.
        """
        coef, exp = self.coef, self.exp
        out = np.empty(len(self))
        fast = (exp >= -22) & (exp <= 22)
        if coef.dtype == object:
            fast[:] = False
        else:
            fast &= (coef >= -_FLOAT_EXACT_INT) & (coef <= _FLOAT_EXACT_INT)
        exact, scale = coef[fast].astype(np.float64), exp[fast]
        out[fast] = np.where(
            scale < 0, exact / _POW10_FLOAT[-scale.clip(max=0)], exact * _POW10_FLOAT[scale.clip(min=0)]
        )
        rows = np.flatnonzero(~fast)
        out[rows] = list(map(float, self._decimals(rows)))
        out[self.neg_zero] = -0.0
        out[self.missing] = np.nan
        return out

    def total(self) -> Decimal:
        """The exact sum of the present values, as ``Decimal(0) + ...`` gives it.

        Each ``_chunks`` slice is summed by ``sum_by`` and the slice sums are
        added exactly, so no temporary is as long as the column.
        """
        total = Decimal(0)
        for part in _chunks(len(self)):
            chunk = self[part]
            sums = sum_by(chunk, np.zeros(len(chunk), dtype=np.int64), 1)
            total = _EXACT.add(total, Decimal(int(sums.coef[0])).scaleb(int(sums.exp[0]), _EXACT))
        return total

    def times(self, other: "DecimalColumn") -> "DecimalColumn":
        """Exact element-wise products: coefficients multiply and exponents add.

        A product is missing where either factor is, and a zero product
        takes the sign of the factors, as ``Decimal`` gives it.
        """
        if self.coef.dtype == other.coef.dtype == np.int64 and np.all(
            np.abs(self.coef.astype(np.float64)) * np.abs(other.coef.astype(np.float64))
            < _INT64_SAFE
        ):
            coef = self.coef * other.coef
        else:
            coef = self.coef.astype(object) * other.coef.astype(object)
        missing = self.missing | other.missing
        coef[missing] = 0
        exp = np.where(missing, 0, self.exp + other.exp)
        negative = self._negative() != other._negative()
        return DecimalColumn(coef, exp, missing, negative & (coef == 0).astype(bool) & ~missing)

    def put(self, rows: np.ndarray, values: "DecimalColumn") -> "DecimalColumn":
        """A copy with the values at ``rows`` replaced by ``values``."""
        dtype = object if object in (self.coef.dtype, values.coef.dtype) else np.int64
        parts = [self.coef.astype(dtype), self.exp.copy(), self.missing.copy(), self.neg_zero.copy()]
        for part, new in zip(parts, (values.coef, values.exp, values.missing, values.neg_zero)):
            part[rows] = new
        return DecimalColumn(*parts)

    def _negative(self) -> np.ndarray:
        return self.neg_zero | (self.coef < 0).astype(bool)

    def _decimals(self, rows: np.ndarray) -> list[Decimal]:
        """The exact ``Decimal`` of the value at each of ``rows``; a missing value reads as 0."""
        parts = zip(self.coef[rows].tolist(), self.exp[rows].tolist(), self.neg_zero[rows].tolist())
        values = ((Decimal(c).scaleb(e, _EXACT), negative_zero) for c, e, negative_zero in parts)
        return [value.copy_negate() if negative_zero else value for value, negative_zero in values]


def sum_by(values: DecimalColumn, groups: np.ndarray, n: int) -> DecimalColumn:
    """Exact per-group sums of the present values of a decimal column.

    ``groups[i]`` in ``[0, n)`` names the group of ``values[i]``. Every
    group sums as ``Decimal(0) + ...`` written out by hand does: its
    exponent is ``min(0, least exponent in the group)``, an empty group sums
    to ``Decimal(0)``, and a negative zero adds as +0. Each value's
    coefficient is scaled to its group's exponent and the integers added.
    """
    present = ~values.missing
    if not present.all():
        values, groups = values[present], groups[present]
    exp = np.zeros(n, dtype=np.int64)
    np.minimum.at(exp, groups, values.exp)
    terms = _scaled(values.coef, values.exp - exp[groups], groups, n)
    sums = np.zeros(n, dtype=terms.dtype)
    np.add.at(sums, groups, terms)
    return DecimalColumn(sums, exp, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))


def _scaled(coef: np.ndarray, shift: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """``coef * 10**shift`` for ``shift >= 0``: int64 while the magnitudes of every
    group's terms sum below 2**62, else Python ints."""
    if coef.dtype == np.int64 and (not shift.size or shift.max() <= 18):
        magnitude = np.abs(coef.astype(np.float64)) * _POW10_FLOAT[shift]
        if np.all(np.bincount(groups, weights=magnitude, minlength=n) < _INT64_SAFE):
            return coef * _POW10[shift]
    powers = np.array([10**s for s in shift.tolist()], dtype=object)
    return coef.astype(object) * powers


def _plain_text(coef: np.ndarray, scale: int) -> list[str]:
    """``str(Decimal)`` of each ``coef * 10**-scale``, for int64 ``coef >= 0`` and
    ``0 <= scale <= 18`` where ``Decimal`` writes no exponent.

    The digits, zero-padded to ``scale + 1`` and with a point ``scale``
    digits from the right, are written into one byte row per value.
    """
    n = len(coef)
    if not n:
        return []
    digits = []  # digit columns, least significant first
    ndigits = np.ones(n, dtype=np.int64)
    rest = coef
    while True:
        quotient = rest // 10
        digits.append(rest - quotient * 10)
        if len(digits) > scale and not quotient.any():
            break
        ndigits += quotient > 0
        rest = quotient
    width = len(digits)
    point = width - scale  # integer digits
    dot = int(scale > 0)
    text = np.empty((width + dot + 1, n), dtype=np.uint8)  # one row per character
    for row, digit in enumerate(reversed(digits[scale:])):
        text[row] = digit
    for row, digit in enumerate(reversed(digits[:scale]), start=point + dot):
        text[row] = digit
    text[:-1] += ord("0")
    text[point] = ord(".")  # overwritten by the line break when scale is 0
    text[-1] = ord("\n")
    keep = np.ones(text.shape, dtype=bool)
    # no leading zeros before the last scale + 1 digits
    keep[:point] = np.arange(point)[:, None] >= width - np.maximum(ndigits, scale + 1)
    lines = text.T[keep.T].tobytes().decode("ascii").split("\n")
    lines.pop()  # the text ends with a line break
    return lines


class _DecimalBuffer:
    """A ``DecimalColumn`` while records are read: coefficients and exponents in
    int64 buffers.

    The latest values are appended to the lists ``new_coef`` and
    ``new_exp``, which ``flush`` moves into the buffers. A missing value is
    kept as coefficient 0 and the exponent ``_NO_VALUE``, which lies outside
    ``Decimal``'s exponent range. A coefficient beyond int64 is kept in
    ``big`` by position, with 0 in its slot, and the position of each
    negative zero in ``neg_zero``.
    """

    def __init__(self) -> None:
        self.coef = array("q")
        self.exp = array("q")
        self.new_coef: list[int] = []
        self.new_exp: list[int] = []
        self.big: dict[int, int] = {}
        self.neg_zero: list[int] = []

    def append(self, value: Decimal | None) -> None:
        if value is None:
            self.new_coef.append(0)
            self.new_exp.append(_NO_VALUE)
            return
        if not value.is_finite():
            raise ValueError(f"decimal column values must be finite, not {value}")
        sign, _, exp = value.as_tuple()
        coef = int(value.scaleb(-exp, _EXACT))
        position = len(self.coef) + len(self.new_coef)
        if sign and not coef:
            self.neg_zero.append(position)
        if not _INT64_MIN <= coef <= _INT64_MAX:
            self.big[position] = coef
            coef = 0
        self.new_coef.append(coef)
        self.new_exp.append(exp)

    def flush(self) -> None:
        """Move the latest values into the int64 buffers."""
        for buffer, new in ((self.coef, self.new_coef), (self.exp, self.new_exp)):
            buffer.fromlist(new)
            new.clear()

    @cached_property
    def column(self) -> DecimalColumn:
        """The values as a column whose int64 parts are views of the buffers,
        which then take no more values."""
        self.flush()
        coef = np.frombuffer(self.coef, dtype=np.int64)
        exp = np.frombuffer(self.exp, dtype=np.int64)
        missing = exp == _NO_VALUE
        exp[missing] = 0
        if self.big:
            coef = coef.astype(object)
            coef[list(self.big)] = list(self.big.values())
        neg_zero = np.zeros(len(coef), dtype=bool)
        neg_zero[self.neg_zero] = True
        return DecimalColumn(coef, exp, missing, neg_zero)


# ---------------------------------------------------------------------------
# Text columns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TextColumn:
    """Strings, some perhaps None, as one UTF-8 byte array: value ``i`` is
    ``data[offsets[i]:offsets[i + 1]]`` decoded, and None where that is empty.

    ``data`` is uint8 and ``offsets`` int64, one longer than the column and
    non-decreasing; a slice of consecutive values shares ``data``. A lone
    surrogate, which ingest rejects but a column built in memory may hold,
    is kept as ``surrogatepass`` writes it. An integer index, iteration and
    ``tolist()`` give str or None; a slice, mask or index array gives a
    column.
    """

    data: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_values(cls, values: Iterable[str | None]) -> "TextColumn":
        """The column of the values; an empty str reads back as None."""
        buffer = _TextBuffer()
        buffer.new.extend("" if value is None else value for value in values)
        return buffer.column

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, key):
        """The str (or None) at an integer index; a column for a slice, mask or index array."""
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return _decode(self.data[self.offsets[i] : self.offsets[i + 1]].tobytes()) or None
        if isinstance(key, slice) and key.step in (None, 1):
            start, stop, _ = key.indices(len(self))
            return TextColumn(self.data, self.offsets[start : max(start, stop) + 1])
        return self._take(np.arange(len(self))[key])

    def __iter__(self) -> Iterator[str | None]:
        return iter(self.tolist())

    def tolist(self) -> list[str | None]:
        return [value or None for value in self.text()]

    def raw(self) -> np.ndarray:
        """The UTF-8 bytes of the values, one after another."""
        return self.data[self.offsets[0] : self.offsets[-1]]

    def text(self) -> list[str]:
        """Each value as str, "" where None.

        Unless a value holds a line feed, a line feed is put after each
        value, and the text is decoded once and split at them.
        """
        raw = self.raw()
        ends = self.offsets[1:] - self.offsets[0]
        if not np.any(raw == _LINE_FEED):
            values = _decode(np.insert(raw, ends, _LINE_FEED).tobytes()).split("\n")
            values.pop()  # the text ends with a line feed
            return values
        data = raw.tobytes()
        return [_decode(data[a:b]) for a, b in zip([0] + ends[:-1].tolist(), ends.tolist())]

    def distinct_count(self) -> int:
        """The number of distinct values that are not None, counted exactly on the bytes.

        Values are grouped by byte length, and each group's rows are
        compared by ``_distinct_rows``.
        """
        lengths = self.offsets[1:] - self.offsets[:-1]
        order = np.argsort(lengths, kind="stable")
        starts, lengths = self.offsets[order], lengths[order]
        bounds = np.flatnonzero(np.diff(lengths, prepend=-1, append=-1)).tolist()
        groups = [(a, b, int(lengths[a])) for a, b in zip(bounds, bounds[1:]) if lengths[a]]
        del order, lengths
        return sum(_distinct_rows(self.data, starts[a:b], length) for a, b, length in groups)

    def _take(self, rows: np.ndarray) -> "TextColumn":
        """The values at ``rows``, gathered ``_TAKE_ROWS`` values at a time."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        data = np.empty(offsets[-1], dtype=np.uint8)
        for at in range(0, len(rows), _TAKE_ROWS):
            part = slice(at, at + _TAKE_ROWS)
            begin, end = offsets[at], offsets[min(at + _TAKE_ROWS, len(rows))]
            shift = np.repeat(starts[part] - offsets[:-1][part], lengths[part])
            data[begin:end] = self.data[shift + np.arange(begin, end)]
        return TextColumn(data, offsets)


def _distinct_rows(data: np.ndarray, starts: np.ndarray, length: int) -> int:
    """The number of distinct rows ``data[s : s + length]`` for ``s`` in ``starts``.

    Rows are sorted on their last 8 bytes, packed into one uint64 key per
    row. A row alone in its run of equal keys is distinct from every other;
    the rows still tied are sorted on the 8 bytes before, within their run,
    and so on to the first byte. Memory stays a few int64 per row whatever
    the length, and only rows that share their last 8 bytes with another
    are sorted more than once.
    """
    distinct, tied_runs = 0, 1
    run = None  # the run of equal keys that each tied row belongs to
    for end in range(length, 0, -8):
        key = np.zeros((len(starts), 8), dtype=np.uint8)
        for k, j in enumerate(range(max(end - 8, 0), end)):
            key[:, k] = _byte(data, starts, j)
        key = key.view(np.uint64).ravel()
        # all rows are one run before the first sort, where argsort is about 3x faster than lexsort
        order = np.argsort(key) if run is None else np.lexsort((key, run))
        key, starts = key[order], starts[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if run is not None:
            run = run[order]
            first[1:] |= run[1:] != run[:-1]
        del order
        tied = ~(first & np.append(first[1:], True))
        distinct += len(tied) - int(np.count_nonzero(tied))
        tied_runs = int(np.count_nonzero(first & tied))
        run, starts = np.cumsum(first)[tied], starts[tied]
    return distinct + tied_runs


def _byte(data: np.ndarray, starts: np.ndarray, j: int) -> np.ndarray:
    """``data[s + j]`` for each ``s`` in ``starts``, gathered ``_BLOCK_RECORDS`` rows at a time."""
    column = np.empty(len(starts), dtype=np.uint8)
    for at in range(0, len(starts), _BLOCK_RECORDS):
        column[at : at + _BLOCK_RECORDS] = data[starts[at : at + _BLOCK_RECORDS] + j]
    return column


def _decode(data: bytes) -> str:
    return data.decode("utf-8", "surrogatepass")


class _TextBuffer:
    """A ``TextColumn`` while records are read: the latest values are appended
    to the list ``new``, "" for None, which ``flush`` encodes into the byte
    buffer ``data`` and the offsets buffer ``ends``."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.ends = array("q", [0])
        self.new: list[str] = []

    def flush(self) -> None:
        """Encode the latest values into the buffers."""
        new = self.new
        text = "".join(new)
        # ASCII has a byte per character: one encode of the block takes half the time of one per id
        if text.isascii():
            encoded, data = new, text.encode("ascii")
        else:
            encoded = [value.encode("utf-8", "surrogatepass") for value in new]
            data = b"".join(encoded)
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(new))
        self.ends.frombytes((np.cumsum(lengths) + len(self.data)).tobytes())
        self.data += data
        new.clear()

    @cached_property
    def column(self) -> TextColumn:
        """The values as a column of views of the buffers, which then take no more values."""
        self.flush()
        return TextColumn(
            np.frombuffer(self.data, dtype=np.uint8), np.frombuffer(self.ends, dtype=np.int64)
        )


class _JsonNumber(str):
    """The text of a JSON number with a fraction or an exponent, as ``json``
    hands it to ``parse_float``: the fast path reads it as price text, and
    ``_Records.add`` reads the ``Decimal`` it names."""

    __slots__ = ()


class _SurrogateText(str):
    """A JSON string that holds a lone surrogate: its type sends its record past
    the fast path to ``_Records.add``, which rejects it as an id or artwork id."""

    __slots__ = ()


def _mark_surrogates(record: object) -> None:
    """Make each top-level string of a JSON object that holds a lone surrogate a
    ``_SurrogateText``. Only JSON text holding a ``\\`` (a ``\\u`` escape) can hold one."""
    if type(record) is dict:
        for key, value in record.items():
            if type(value) is str and _SURROGATE.search(value):
                record[key] = _SurrogateText(value)


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


class _Records:
    """Validated records as columns in input order, plus the rejected ones.

    While records are read, a user's code is its index in ``users``, given
    at first sight; ``log`` renumbers the codes into id order. ``memo`` maps
    each user id, and each raw ``str`` id cell seen so far, to the code of
    the id it names. The user codes (seller, buyer and creator of each
    record) and epoch seconds of the latest records are appended to the
    lists ``new_codes`` and ``new_timestamps``, which ``flush`` moves into
    the int64 buffers ``codes`` and ``timestamp``, as it encodes the latest
    artwork ids (``artwork.new``) into the text buffer ``artwork``.
    """

    def __init__(self) -> None:
        self.memo: dict[str, int] = {}
        self.users: list[str] = []
        self.codes = array("q")
        self.timestamp = array("q")
        self.new_codes: list[int] = []
        self.new_timestamps: list[int] = []
        self.price_eth = _DecimalBuffer()
        self.price_usd = _DecimalBuffer()
        self.artwork = _TextBuffer()
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
        self.new_codes += codes
        self.price_eth.append(eth)
        self.price_usd.append(usd)
        self.new_timestamps.append(epoch)
        self.artwork.new.append(artwork)

    def user(self, user_id: str) -> int:
        """The code of a (stripped) user id, given here at its first sight."""
        code = self.memo.get(user_id)
        if code is None:
            code = self.memo[user_id] = len(self.users)
            self.users.append(user_id)
        return code

    def flush(self) -> None:
        """Move the latest records into the buffers."""
        for buffer, new in ((self.codes, self.new_codes), (self.timestamp, self.new_timestamps)):
            buffer.fromlist(new)
            new.clear()
        self.price_eth.flush()
        self.price_usd.flush()
        self.artwork.flush()

    def log(self, source: str, total: int) -> EventLog:
        """The kept records as a log, stably sorted by timestamp, users coded in id order.

        The timestamps, prices and artwork ids of input already in time order
        are views of the record buffers, which then take no more records.
        """
        self.flush()
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
    cells = _cells_of(fmt, remap)
    split = _split(stream, fmt)
    if split is None:
        total = _read_text(stream, lambda text: _validate(cells(text), records))
    else:
        fd, header, bounds = split
        total = _parse_ranges(fd, bounds, cells, _cells_of(fmt, remap, header), records)
        stream.seek(bounds[-1])
    return records.log(source, total), records.rejects


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
    day_rates = [rates.get(day) for day in dates]
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


def _chunks(rows: int) -> Iterator[slice]:
    """Slices of ``_CSV_CHUNK_ROWS`` consecutive rows, the last perhaps shorter, that
    cover ``rows`` rows in order."""
    for start in range(0, rows, _CSV_CHUNK_ROWS):
        yield slice(start, start + _CSV_CHUNK_ROWS)


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
    write_csv(stream, EVENT_CSV_HEADER, columns)


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
    for part in _chunks(rows):
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
# Record readers
# ---------------------------------------------------------------------------


def _read_text(
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
    count = min(_usable_cpus(), _MAX_RANGES, (size - start) // _MIN_RANGE_BYTES)
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
    cells: Callable[[TextIO], Iterator[tuple]],
    records: _Records,
) -> int:
    """Validate the records of bytes ``[start, end)`` of ``fd`` into ``records``; returns their count."""
    stream = io.BufferedReader(_FileRange(fd, start, end))
    return _read_text(stream, lambda text: _validate(cells(text), records), encoding)


def _parse_ranges(
    fd: int,
    bounds: list[int],
    first: Callable[[TextIO], Iterator[tuple]],
    later: Callable[[TextIO], Iterator[tuple]],
    records: _Records,
) -> int:
    """Validate each byte range of ``fd`` into ``records`` as one input; returns the record count.

    Every range after the first is validated in a ``_Child`` (``_send``),
    which reads it as plain ``utf-8`` (no BOM is stripped) with ``later``,
    while this process validates the first with ``first``. The children's
    records are then merged in input order. An error raises the error of the
    earliest range that has one, as one range would; on any exit every child
    is ended and reaped.
    """
    children: list[_Child] = []
    try:
        for start, end in zip(bounds[1:], bounds[2:]):
            work = partial(_send, fd, start, end, later)
            children.append(_Child(f"range parser of bytes {start}-{end}", work))
        total = _validate_range(fd, bounds[0], bounds[1], "utf-8-sig", first, records)
        for child in children:
            total += _merge(child, records, total)
        return total
    finally:
        for child in children:
            child.end()


def _usable_cpus() -> int:
    """The CPUs this process may use, or 1 where it cannot fork children to use them."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _Child:
    """A forked child that runs ``work(send)``: it pipes back, pickled, each item
    passed to ``send``, then, last, what ``work`` returned or raised.

    ``receive`` reads them; ``end`` kills a child whose result is not wanted.
    Both reap it, so no caller waits for it. ``label`` names the child only in
    the error of one that ends without its result. Every child keeps these
    rules, since ``fork`` copies only the calling thread (numpy's BLAS may
    run others): it collects no garbage, so it runs no finalizer or ``gc``
    callback of this process; ``work`` imports, logs and calls into BLAS
    nothing; it leaves only through ``os._exit`` (status 0 once its result is
    sent, else 1), so it never flushes this process's buffers or runs its
    exit handlers; and on an error in this process it is killed and reaped.
    """

    def __init__(self, label: str, work: Callable[[Callable[[object], None]], object]) -> None:
        self.label = label
        reader, writer = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(reader)
            os.close(writer)
            raise
        if self.pid:
            os.close(writer)
            self._reader = open(reader, "rb")
            return
        status = 1
        try:
            gc.disable()
            os.close(reader)
            with open(writer, "wb") as out:
                try:
                    result = (_RETURNED, work(lambda item: pickle.dump((_SENT, item), out)))
                except Exception as exc:  # ``receive`` raises it in this process
                    result = (_RAISED, exc)
                pickle.dump(result, out)
            status = 0
        finally:
            os._exit(status)

    def receive(self, take: Callable[[object], object] | None = None) -> object:
        """Pass each item the child sends to ``take`` (left out for a child that
        sends none), reap the child, and return what its work returned or raise
        what it raised.

        A child that ends without its result raises ``RuntimeError``. An error
        in ``take`` ends the child.
        """
        try:
            kind, payload = self._load()
            while kind == _SENT:
                take(payload)
                kind, payload = self._load()
        except BaseException:
            self.end()
            raise
        status = self._reap()
        if kind == _RAISED:
            raise payload
        if kind != _RETURNED:
            raise RuntimeError(f"the {self.label} ended without its result (exit status {status})")
        return payload

    def end(self) -> None:
        """Kill and reap the child, unless it is reaped already."""
        if self.pid:
            os.kill(self.pid, _SIGKILL)
            self._reap()

    def _load(self) -> tuple[int | None, object]:
        """The child's next message, or ``(None, None)`` once it sends no more."""
        try:
            return pickle.load(self._reader)
        except (EOFError, pickle.UnpicklingError):
            return None, None

    def _reap(self) -> int:
        """Close the pipe and wait for the child; returns its exit status."""
        self._reader.close()
        status = os.waitpid(self.pid, 0)[1]
        self.pid = 0
        return os.waitstatus_to_exitcode(status)


def _send(
    fd: int, start: int, end: int, cells: Callable[[TextIO], Iterator[tuple]], send: Callable
) -> int:
    """In a ``_Child``: validate bytes ``[start, end)`` of ``fd`` and ``send`` what
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


def _merge(child: _Child, records: _Records, rows_before: int) -> int:
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


def _csv_cells(text: TextIO, remap: Mapping[str, str]) -> Iterator[tuple]:
    """The seven canonical cells of each CSV record, in ``CANONICAL_FIELDS`` order.

    Blank lines are skipped and take no record number. A short row leaves
    its trailing fields missing, extra cells are ignored, and of duplicate
    header names the last column wins.
    """
    reader = csv.reader(text)
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
    for row in reader:
        if not row:
            continue
        if len(row) == width:
            row.append(None)
        else:
            row = row[:width] + missing[min(len(row), width) :]
        yield pick(row)


def _json_cells(records: Iterable[object], remap: Mapping[str, str]) -> Iterator[tuple]:
    """The seven canonical cells of each JSON record, None for an absent field.

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
        yield tuple(map(record.get, keys))


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
    try:
        records = _json_loads(whole)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise ValueError(f"invalid JSON input: {exc}") from None
    if not isinstance(records, list):
        raise ValueError("JSON input must be an array of objects")
    if "\\" in whole:
        for record in records:
            _mark_surrogates(record)
    return records


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
        if "\\" in line:  # a one-character search; finding "\\u" took 3% of a parse
            _mark_surrogates(record)
        yield record


def _cells_of(
    fmt: str, remap: Mapping[str, str], header: str | None = None
) -> Callable[[TextIO], Iterator[tuple]]:
    """The reader of the seven canonical cells of each record of a text.

    Without ``header`` the text is a whole input. With it, the text is a
    later byte range of one: one-object-per-line JSON, or CSV rows read
    under the header line ``header``.
    """
    if fmt == "csv":
        return lambda text: _csv_cells(text if header is None else chain((header,), text), remap)
    return lambda text: _json_cells(
        _json_records(text) if header is None else _ndjson_records(text), remap
    )


def _validate(rows: Iterable[tuple], records: _Records) -> int:
    """Validate each record's seven cells into ``records``; returns the record count.

    The common record takes a fast path inline: its three id cells are
    ``str`` cells, each in the memo or a non-empty id without a ``\\r`` that
    is its own ``.strip()``, seller and buyer differ, each price is
    absent or plain ASCII text (a ``str`` or JSON number of digits with at
    most one ".", at most 18 digits, so within ``[0, _MAX_FLOAT]``) read
    straight into coefficient and exponent, its timestamp is a ``str`` of
    ASCII digits or one of the UTC forms ``...+00:00`` (25 characters, as
    ``events.csv`` writes it) or ``...Z`` (20 characters) with no other
    "Z", and its artwork is absent or a ``str`` without a ``\\r``. Its new
    ids are coded once every other check has passed, so a rejected record
    codes no user. It keeps exactly what ``_Records.add`` would keep. Any
    other record goes to ``add``, the one source of reject reasons; no
    unhashable cell reaches the memo.
    """
    add = records.add
    user = records.user
    code_of = records.memo.get
    codes = records.new_codes
    keep_eth_coef = records.price_eth.new_coef.append
    keep_eth_exp = records.price_eth.new_exp.append
    keep_usd_coef = records.price_usd.new_coef.append
    keep_usd_exp = records.price_usd.new_exp.append
    keep_timestamp = records.new_timestamps.append
    keep_artwork = records.artwork.new.append
    fromisoformat = datetime.fromisoformat
    row_num = 0
    for cells in rows:
        row_num += 1
        if not row_num % _BLOCK_RECORDS:
            records.flush()
        seller, buyer, creator, eth, usd, when, artwork = cells
        if (
            type(seller) is not str
            or type(buyer) is not str
            or type(creator) is not str
            or type(when) is not str
            or not (artwork is None or (type(artwork) is str and "\r" not in artwork))
        ):
            add(row_num, *cells)
            continue
        s = code_of(seller)
        b = code_of(buyer)
        c = code_of(creator)
        # an id cell not in the memo is a new user's id when it is its own strip
        new = s is None or b is None or c is None
        if new and (
            (s is None and (not seller or seller != seller.strip() or "\r" in seller))
            or (b is None and (not buyer or buyer != buyer.strip() or "\r" in buyer))
            or (c is None and (not creator or creator != creator.strip() or "\r" in creator))
        ):
            add(row_num, *cells)
            continue
        # a new id and a known one name different users
        if (s == b and (s is not None or seller == buyer)) or not when or not when.isascii():
            add(row_num, *cells)
            continue
        if eth is None or eth == "":
            eth_coef, eth_exp = 0, _NO_VALUE
        elif (type(eth) is str or type(eth) is _JsonNumber) and eth.isascii():
            head, _, tail = eth.partition(".")
            digits = head + tail
            if not (digits.isdigit() and len(digits) <= 18):
                add(row_num, *cells)
                continue
            eth_coef, eth_exp = int(digits), -len(tail)
        else:
            add(row_num, *cells)
            continue
        if usd is None or usd == "":
            if eth_exp == _NO_VALUE:
                add(row_num, *cells)
                continue
            usd_coef, usd_exp = 0, _NO_VALUE
        elif (type(usd) is str or type(usd) is _JsonNumber) and usd.isascii():
            head, _, tail = usd.partition(".")
            digits = head + tail
            if not (digits.isdigit() and len(digits) <= 18):
                add(row_num, *cells)
                continue
            usd_coef, usd_exp = int(digits), -len(tail)
        else:
            add(row_num, *cells)
            continue
        if when.isdigit() and len(when) <= 12:
            epoch = int(when)
            fast = epoch <= _MAX_EPOCH
        elif (len(when) == 25 and when.endswith("+00:00") and "Z" not in when) or (
            len(when) == 20 and when.find("Z") == 19
        ):
            # ``add`` reads every "Z" as "+00:00", so a "Z" elsewhere (a
            # date-time separator to fromisoformat) takes ``add``
            try:
                since_epoch = fromisoformat(when) - _EPOCH
            except ValueError:
                add(row_num, *cells)
                continue
            epoch = since_epoch.days * _DAY_S + since_epoch.seconds
            fast = True
        else:
            fast = False
        if not fast:
            add(row_num, *cells)
            continue
        if new:
            # coded only now the record is kept, in the order ``add`` codes them
            s, b, c = user(seller), user(buyer), user(creator)
        codes += (s, b, c)
        keep_eth_coef(eth_coef)
        keep_eth_exp(eth_exp)
        keep_usd_coef(usd_coef)
        keep_usd_exp(usd_exp)
        keep_timestamp(epoch)
        keep_artwork(artwork.strip() if artwork else "")
    return row_num


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
