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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, TextIO

SKIP_EMPTY = "empty"
SKIP_NON_NUMERIC = "non-numeric"
SKIP_ZERO = "zero-value"

_NUMERIC_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


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
    filtered here; they are counted later, at digit extraction.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    rows = _split_rows(source, delimiter, decimal_mark)
    skip_reasons: dict[str, int] = {}
    tokens: list[str] = []

    def norm(cell: str) -> str:
        cell = cell.strip()
        return cell.replace(decimal_mark, ".") if decimal_mark != "." else cell

    try:
        first_row = next(rows)
    except StopIteration:
        return tokens, skip_reasons

    index, first_row = _resolve_column(column, first_row, norm)

    def handle(row: list[str]) -> None:
        cell = norm(row[index]) if index < len(row) else ""
        if not cell:
            skip_reasons[SKIP_EMPTY] = skip_reasons.get(SKIP_EMPTY, 0) + 1
        elif _NUMERIC_RE.fullmatch(cell):
            tokens.append(cell)
        else:
            skip_reasons[SKIP_NON_NUMERIC] = skip_reasons.get(SKIP_NON_NUMERIC, 0) + 1

    if first_row is not None:
        handle(first_row)
    for row in rows:
        handle(row)
    return tokens, skip_reasons


def _split_rows(source: TextIO | Iterable[str], delimiter: str | None, decimal_mark: str):
    """Yield rows as lists of cells, sniffing comma-delimited input.

    A comma that is the decimal mark never makes the input comma-delimited.
    """
    lines = iter(source)
    if delimiter is None:
        buffered = []
        probe = None
        for line in lines:
            buffered.append(line)
            if line.strip():
                probe = line
                break
        delimiter = "," if probe is not None and "," in probe and decimal_mark != "," else None
        lines = iter(buffered + list(lines))
    if delimiter is not None:
        for row in csv.reader(lines, delimiter=delimiter):
            if row:
                yield row
    else:
        for line in lines:
            if line.strip():
                yield line.split()


def _resolve_column(column, first_row, norm):
    """Return (index, first_row_to_process_or_None), consuming a header row."""
    if isinstance(column, str):
        names = [cell.strip() for cell in first_row]
        if column not in names:
            raise ColumnError(f"column {column!r} not found in header {names!r}")
        return names.index(column), None
    index = 0 if column is None else int(column)
    if index < 0:
        raise ColumnError(f"column index must be nonnegative, got {column!r}")
    # Header auto-detection: a non-empty, non-numeric first cell is a header.
    cell = norm(first_row[index]) if index < len(first_row) else ""
    if cell and not _NUMERIC_RE.fullmatch(cell):
        return index, None
    return index, first_row


def count_digits(tokens: Iterable[str], system: DigitSystem) -> DigitCounts:
    """Tally extracted digits over `tokens` into a DigitCounts.

    Zero values and unparseable tokens go to skip_reasons instead of counts.
    """
    counts = [0] * system.k
    skip_reasons: dict[str, int] = {}
    for token in tokens:
        try:
            label = system.extract(token)
        except ValueError:
            skip_reasons[SKIP_NON_NUMERIC] = skip_reasons.get(SKIP_NON_NUMERIC, 0) + 1
            continue
        if label is None:
            skip_reasons[SKIP_ZERO] = skip_reasons.get(SKIP_ZERO, 0) + 1
        else:
            counts[system.label_index(label)] += 1
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
