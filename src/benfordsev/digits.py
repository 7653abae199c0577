"""Reading numeric records and extracting first / first-two significant digits.

Digit extraction works on the decimal text of each value, never on a binary
float, so boundary values like 0.1 can never flip to a neighbouring digit
through rounding.  Values that cannot contribute a digit (zero, empty,
non-numeric) are counted and reported, never silently dropped.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import methodcaller
from typing import Iterable, TextIO

SKIP_EMPTY = "empty"
SKIP_NON_NUMERIC = "non-numeric"
SKIP_ZERO = "zero-value"

# The one numeric-token grammar.  Only ASCII digits count: str.isdigit and
# the regex class \d would also admit other scripts' digits.
_NUMERIC_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_CHUNK = 65536  # cells per batch in parse_records


class ColumnError(ValueError):
    """A requested column does not exist in the input."""


@dataclass(frozen=True)
class DigitSystem:
    """A digit scheme: how many leading digits are counted (1 or 2)."""

    digits: int

    def __post_init__(self):
        if self.digits not in (1, 2):
            raise ValueError(f"digits must be 1 or 2, got {self.digits!r}")

    @property
    def k(self) -> int:
        """Number of digit cells: 9 or 90."""
        return 9 * 10 ** (self.digits - 1)

    @property
    def digit_labels(self) -> tuple[int, ...]:
        """The labels 1-9 or 10-99."""
        return tuple(range(10 ** (self.digits - 1), 10 ** self.digits))

    def extract(self, token: str | float | int) -> int | None:
        """Leading `digits` significant digits of a number, None for exact zero.

        Floats and ints are read as the decimal text repr(float(x)), so there
        is a single extraction pathway.  A significand shorter than `digits`
        is padded with a zero.  Raises ValueError for non-numeric input.
        """
        text = token.strip() if isinstance(token, str) else repr(float(token))
        if not _NUMERIC_RE.fullmatch(text):
            raise ValueError(f"not a numeric token: {token!r}")
        # The mantissa's digits with leading zeros removed: empty for a zero.
        significand = re.split("[eE]", text)[0].lstrip("+-").replace(".", "").lstrip("0")
        if not significand:
            return None
        return int((significand + "0")[:self.digits])

    def label_index(self, label: int) -> int:
        return label - 10 ** (self.digits - 1)


FIRST_DIGIT = DigitSystem(1)
FIRST_TWO_DIGITS = DigitSystem(2)


@dataclass
class DigitCounts:
    """Observed digit frequencies plus ingestion diagnostics."""

    system: DigitSystem
    counts: tuple[int, ...]
    skip_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Records counted: the sum of `counts`."""
        return sum(self.counts)

    @property
    def skipped(self) -> int:
        """Records skipped, over every reason."""
        return sum(self.skip_reasons.values())


def first_digit(token: str | float | int) -> int | None:
    """First significant digit (1-9) of a number, None for exact zero."""
    return FIRST_DIGIT.extract(token)


def first_two_digits(token: str | float | int) -> int | None:
    """First two significant digits (10-99), None for exact zero.

    A value with a single significant digit d reads as d0 (significand
    padded with a zero): "5" -> 50.
    """
    return FIRST_TWO_DIGITS.extract(token)


def parse_records(
    source: TextIO | Iterable[str],
    column: int | str | None = None,
    *,
    delimiter: str | None = None,
    decimal_mark: str = ".",
) -> tuple[list[str], dict[str, int]]:
    """Pull numeric tokens out of a delimited text stream.

    `column` selects a field by 0-based index or by header name; by default
    the first field of each row is used.  A header row is consumed
    automatically when the first row's selected cell is non-empty and
    non-numeric.  Returns the tokens (as decimal strings) and a map of skip
    reason -> count for cells that were empty or non-numeric.  Zeros are not
    filtered here; they are counted later, at digit extraction.  A delimiter
    or decimal mark that is not one character, or a delimiter equal to the
    decimal mark, raises ValueError.
    """
    for name, mark in (("delimiter", delimiter), ("decimal mark", decimal_mark)):
        if mark is not None and len(mark) != 1:
            raise ValueError(f"the {name} must be one character, got {mark!r}")
    if delimiter == decimal_mark:
        raise ValueError(f"the delimiter and the decimal mark are both {delimiter!r}")
    if isinstance(source, str):
        source = io.StringIO(source)
    rows = _split_rows(source, delimiter, decimal_mark)
    skip_reasons: dict[str, int] = {}
    tokens: list[str] = []
    first_row = next(rows, None)
    if first_row is None:
        return tokens, skip_reasons
    index, is_header = _resolve_column(column, first_row, decimal_mark)
    if not is_header:
        rows = chain((first_row,), rows)
    # Chunks hold cells, never row lists: tens of thousands of live lists
    # make the cyclic garbage collector's passes slow.
    cells = map(str.strip, (row[index] if index < len(row) else "" for row in rows))
    if decimal_mark != ".":
        cells = map(methodcaller("replace", decimal_mark, "."), cells)
    while chunk := list(islice(cells, _CHUNK)):
        valid = list(filter(_NUMERIC_RE.fullmatch, chunk))
        tokens += valid
        empty = chunk.count("")
        non_numeric = len(chunk) - empty - len(valid)
        # Skip reasons are listed in order of first occurrence.  When both are
        # new, non-numeric is first if a cell before the first empty one is.
        if empty and non_numeric and not skip_reasons:
            if not all(map(_NUMERIC_RE.fullmatch, chunk[:chunk.index("")])):
                skip_reasons[SKIP_NON_NUMERIC] = 0
        for reason, count in ((SKIP_EMPTY, empty), (SKIP_NON_NUMERIC, non_numeric)):
            if count:
                skip_reasons[reason] = skip_reasons.get(reason, 0) + count
    return tokens, skip_reasons


def _split_rows(source: TextIO | Iterable[str], delimiter: str | None, decimal_mark: str):
    """Yield the non-blank rows of `source` as lists of cells, sniffing comma-delimited input.

    A comma that is the decimal mark never makes the input comma-delimited.
    Lines are read lazily: only those up to the first non-blank one are read
    ahead for sniffing.
    """
    lines = iter(source)
    if delimiter is None:
        buffered = []
        for line in lines:
            buffered.append(line)
            if line.strip():
                if "," in line and decimal_mark != ",":
                    delimiter = ","
                break
        lines = chain(buffered, lines)
    if delimiter is not None:
        yield from filter(None, csv.reader(lines, delimiter=delimiter))
    else:
        yield from filter(None, map(str.split, lines))


def _resolve_column(column, first_row, decimal_mark) -> tuple[int, bool]:
    """Return (index, whether first_row is a header row)."""
    if isinstance(column, str):
        names = [cell.strip() for cell in first_row]
        if column not in names:
            raise ColumnError(f"column {column!r} not found in header {names!r}")
        return names.index(column), True
    index = 0 if column is None else int(column)
    if index < 0:
        raise ColumnError(f"column index must be nonnegative, got {column!r}")
    # Header auto-detection: a non-empty, non-numeric first cell is a header.
    cell = first_row[index].strip().replace(decimal_mark, ".") if index < len(first_row) else ""
    return index, bool(cell) and not _NUMERIC_RE.fullmatch(cell)


def count_digits(tokens: Iterable[str | float | int], system: DigitSystem) -> DigitCounts:
    """Tally extracted digits over `tokens` into a DigitCounts.

    Zero values and unparseable tokens go to skip_reasons instead of counts.
    Floats and ints are read as the decimal text repr(float(x)).
    """
    texts = (t.strip() if isinstance(t, str) else repr(float(t)) for t in tokens)
    return _tally(((bool(_NUMERIC_RE.fullmatch(t)), t.lstrip("+-0.")[:3]) for t in texts), system)


def _tally(checked: Iterable[tuple[bool, str]], system: DigitSystem) -> DigitCounts:
    """Tally (valid, head) pairs, one per token, into a DigitCounts.

    A head is the token's text after any sign, leading zeros and point, cut
    to three characters.  It fixes the first two significant digits of a
    valid token, so each distinct head goes once through the reference
    extraction.  Skip reasons are listed in order of first occurrence.
    """
    counts = [0] * system.k
    skip_reasons: dict[str, int] = {}
    for (valid, head), count in Counter(checked).items():
        # The head's mantissa is a valid token with the same leading digits;
        # it is empty for a zero value.
        label = system.extract(re.split("[eE]", head)[0] or "0") if valid else None
        if label is not None:
            counts[system.label_index(label)] += count
        else:
            reason = SKIP_ZERO if valid else SKIP_NON_NUMERIC
            skip_reasons[reason] = skip_reasons.get(reason, 0) + count
    return DigitCounts(system=system, counts=tuple(counts), skip_reasons=skip_reasons)


def ingest(
    source: TextIO | Iterable[str],
    system: DigitSystem,
    column: int | str | None = None,
    *,
    delimiter: str | None = None,
    decimal_mark: str = ".",
) -> DigitCounts:
    """Full ingestion pipeline: parse a stream, count digits, merge skip maps."""
    tokens, parse_skips = parse_records(
        source, column, delimiter=delimiter, decimal_mark=decimal_mark
    )
    # Every token has passed parse_records' check and is tallied by its head
    # without a second one.  The tally adds only zero-value skips, which are
    # listed before the parse skips.
    result = _tally(((True, t.lstrip("+-0.")[:3]) for t in tokens), system)
    result.skip_reasons.update(parse_skips)
    return result
