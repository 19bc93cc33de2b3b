"""Exact decimal and text columns: a log holds no Python object per sale.

Prices stay exact. Each price column is a ``DecimalColumn``: an integer
coefficient array, an integer exponent array and a missing mask, so value
``i`` is exactly ``coef[i] * 10**exp[i]``, with no ``Decimal`` object per
sale. Sums, ETH to USD products and price text follow ``Decimal`` arithmetic
exactly, so that re-exported logs are byte-identical to their source;
conversion to binary floats is correctly rounded and happens only where the
numeric analysis needs it. Indexing a price column, iterating it or
``tolist()`` gives ``Decimal`` prices.

Artwork ids are a ``TextColumn``: the UTF-8 bytes of every id in one uint8
array plus int64 offsets, a zero-length id being None, so a log holds no
``str`` object per sale. Ids are encoded a block of records at a time as
they are read, decoded a ``write_csv`` chunk at a time, and counted
distinct on their bytes.

While records are read, a ``DecimalBuffer`` and a ``TextBuffer`` hold the
values of each column. This module imports nothing from ``artrank``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

# Sums and products of finite decimals are exact under this context.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# exact powers of ten: int64 up to 10**18, float64 up to 10**22
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10_FLOAT = np.array([float(10**k) for k in range(23)])
_FLOAT_EXACT_INT = 2**53  # every int up to this magnitude is an exact double
# a float bound on magnitudes under which int64 arithmetic cannot overflow;
# half of 2**63 leaves room for the rounding of the bound itself
_INT64_SAFE = 2.0**62
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# the buffer exponent of a missing value, outside Decimal's exponent range
NO_VALUE = _INT64_MIN
# rows gathered per step of a text column's ``_byte``
BLOCK_RECORDS = 1 << 13
# rows per ``chunks`` slice: one ``write_csv`` chunk, and one step of ``DecimalColumn.total``
CSV_CHUNK_ROWS = 1 << 13
_LINE_FEED = ord("\n")
# values gathered per step of a text column's ``_take``: its byte index stays
# below glibc's 128 KiB mmap threshold for values of up to 16 bytes on average
_TAKE_ROWS = 1 << 10


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
        buffer = DecimalBuffer()
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

        Each ``chunks`` slice is summed by ``sum_by`` and the slice sums are
        added exactly, so no temporary is as long as the column.
        """
        total = Decimal(0)
        for part in chunks(len(self)):
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


class DecimalBuffer:
    """A ``DecimalColumn`` while records are read: coefficients and exponents in
    int64 buffers.

    A missing value is kept as coefficient 0 and the exponent ``NO_VALUE``,
    which lies outside ``Decimal``'s exponent range. A coefficient beyond
    int64 is kept in ``big`` by position, with 0 in its slot, and the
    position of each negative zero in ``neg_zero``.
    """

    def __init__(self) -> None:
        self.coef = array("q")
        self.exp = array("q")
        self.big: dict[int, int] = {}
        self.neg_zero: list[int] = []

    def append(self, value: Decimal | None) -> None:
        if value is None:
            self.coef.append(0)
            self.exp.append(NO_VALUE)
            return
        if not value.is_finite():
            raise ValueError(f"decimal column values must be finite, not {value}")
        sign, _, exp = value.as_tuple()
        coef = int(value.scaleb(-exp, _EXACT))
        if sign and not coef:
            self.neg_zero.append(len(self.coef))
        if not _INT64_MIN <= coef <= _INT64_MAX:
            self.big[len(self.coef)] = coef
            coef = 0
        self.coef.append(coef)
        self.exp.append(exp)

    @cached_property
    def column(self) -> DecimalColumn:
        """The values as a column whose int64 parts are views of the buffers,
        which then take no more values."""
        coef = np.frombuffer(self.coef, dtype=np.int64)
        exp = np.frombuffer(self.exp, dtype=np.int64)
        missing = exp == NO_VALUE
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
        buffer = TextBuffer()
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
    """``data[s + j]`` for each ``s`` in ``starts``, gathered ``BLOCK_RECORDS`` rows at a time."""
    column = np.empty(len(starts), dtype=np.uint8)
    for at in range(0, len(starts), BLOCK_RECORDS):
        column[at : at + BLOCK_RECORDS] = data[starts[at : at + BLOCK_RECORDS] + j]
    return column


def _decode(data: bytes) -> str:
    return data.decode("utf-8", "surrogatepass")


class TextBuffer:
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


def chunks(rows: int) -> Iterator[slice]:
    """Slices of ``CSV_CHUNK_ROWS`` consecutive rows, the last perhaps shorter, that
    cover ``rows`` rows in order."""
    for start in range(0, rows, CSV_CHUNK_ROWS):
        yield slice(start, start + CSV_CHUNK_ROWS)
