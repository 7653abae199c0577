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
from enum import Enum
from itertools import chain, islice
from operator import methodcaller
from typing import Iterable, TextIO

SKIP_EMPTY = "empty"
SKIP_NON_NUMERIC = "non-numeric"
SKIP_ZERO = "zero-value"

# The one numeric-token grammar.  Only ASCII digits count: str.isdigit and
# the regex class \d would also admit other scripts' digits.
_NUMERIC_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_CHUNK = 65536  # cells or tokens per batch


class ColumnError(ValueError):
    """A requested column does not exist in the input."""


class DigitKind(Enum):
    FIRST = "first"
    FIRST_TWO = "first-two"


@dataclass(frozen=True)
class DigitSystem:
    """A digit scheme: which leading digits are counted and their labels."""

    kind: DigitKind
    k: int
    digit_labels: tuple[int, ...]

    @staticmethod
    def first_digit() -> "DigitSystem":
        return DigitSystem(DigitKind.FIRST, 9, tuple(range(1, 10)))

    @staticmethod
    def first_two_digits() -> "DigitSystem":
        return DigitSystem(DigitKind.FIRST_TWO, 90, tuple(range(10, 100)))

    @staticmethod
    def from_digits(digits: int) -> "DigitSystem":
        """Build the scheme for `digits` leading digits (1 or 2)."""
        if digits == 1:
            return DigitSystem.first_digit()
        if digits == 2:
            return DigitSystem.first_two_digits()
        raise ValueError(f"digits must be 1 or 2, got {digits!r}")

    def extract(self, token: str | float | int) -> int | None:
        if self.kind is DigitKind.FIRST:
            return first_digit(token)
        return first_two_digits(token)

    def label_index(self, label: int) -> int:
        return label - self.digit_labels[0]


FIRST_DIGIT = DigitSystem.first_digit()
FIRST_TWO_DIGITS = DigitSystem.first_two_digits()


@dataclass
class DigitCounts:
    """Observed digit frequencies plus ingestion diagnostics."""

    system: DigitSystem
    counts: tuple[int, ...]
    n: int
    skipped: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)


def _significand(token: str | float | int) -> str:
    """Significand digit string of a numeric token, leading zeros removed.

    Returns "" for an exact zero.  Raises ValueError for non-numeric input.
    Non-string values are first rendered to shortest round-trip decimal text
    so there is a single extraction pathway.
    """
    if not isinstance(token, str):
        token = repr(float(token))
    text = token.strip()
    if not _NUMERIC_RE.fullmatch(text):
        raise ValueError(f"not a numeric token: {token!r}")
    mantissa = re.split("[eE]", text)[0]
    digits = mantissa.lstrip("+-").replace(".", "")
    return digits.lstrip("0")


def first_digit(token: str | float | int) -> int | None:
    """First significant digit (1-9) of a number, None for exact zero."""
    digits = _significand(token)
    if not digits:
        return None
    return int(digits[0])


def first_two_digits(token: str | float | int) -> int | None:
    """First two significant digits (10-99), None for exact zero.

    A value with a single significant digit d reads as d0 (significand
    padded with a zero): "5" -> 50.
    """
    digits = _significand(token)
    if not digits:
        return None
    return int((digits + "0")[:2])


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
    Tokens are tallied by validity and significand head (the text after any
    sign, leading zeros and point, cut to three characters), which fixes the
    first two significant digits of a valid token; each distinct head then
    goes once through the reference extraction.
    """
    heads: Counter[tuple[bool, str]] = Counter()
    tokens = iter(tokens)
    while chunk := list(islice(tokens, _CHUNK)):
        try:
            texts = list(map(str.strip, chunk))
        except TypeError:  # floats and ints are read as repr(float(x))
            texts = [(t if isinstance(t, str) else repr(float(t))).strip() for t in chunk]
        checks = map(bool, map(_NUMERIC_RE.fullmatch, texts))
        heads.update(zip(checks, [text.lstrip("+-0.")[:3] for text in texts]))
    counts = [0] * system.k
    skip_reasons: dict[str, int] = {}
    for (valid, head), count in heads.items():
        # The head's mantissa is a valid token with the same leading digits;
        # it is empty for a zero value.
        label = system.extract(re.split("[eE]", head)[0] or "0") if valid else None
        if label is not None:
            counts[system.label_index(label)] += count
        else:
            reason = SKIP_ZERO if valid else SKIP_NON_NUMERIC
            skip_reasons[reason] = skip_reasons.get(reason, 0) + count
    return DigitCounts(
        system=system,
        counts=tuple(counts),
        n=sum(counts),
        skipped=sum(skip_reasons.values()),
        skip_reasons=skip_reasons,
    )


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
    result = count_digits(tokens, system)
    for reason, count in parse_skips.items():
        result.skip_reasons[reason] = result.skip_reasons.get(reason, 0) + count
    result.skipped = sum(result.skip_reasons.values())
    return result
