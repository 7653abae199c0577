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
from collections import Counter, namedtuple
from itertools import chain, islice, repeat
from operator import index as as_integer, itemgetter, methodcaller
from typing import Iterable, Iterator, TextIO

SKIP_EMPTY = "empty"
SKIP_NON_NUMERIC = "non-numeric"
SKIP_ZERO = "zero-value"

# The one numeric-token grammar.  Only ASCII digits count: str.isdigit and
# the regex class \d would also admit other scripts' digits.  No two
# repeats can share a run of digits, so every quantifier can be possessive:
# a match never gives characters back, and a failed one takes linear time.
_NUMERIC = r"[+-]?+(?:[0-9]++(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE][+-]?+[0-9]++)?+"
_NUMERIC_RE = re.compile(_NUMERIC)
# The runs of a block of lines, each ended by "\n", for a given valid line.
# findall returns one string per match, in order: a run of valid lines,
# which only its first line can indent, captured without that indentation;
# "\n" for a blank line; and "" for any other line.
_RUNS = r"(?m)^[^\S\n]*+((?:{line})++|\n)|^[^\n]*+\n"
# A valid cell is the grammar alone.  A valid text line is read by its first
# field: the grammar at its start, up to whitespace or the line's end.
_CELL_RUNS_RE = re.compile(_RUNS.format(line=rf"{_NUMERIC}\n"))
_LINE_RUNS_RE = re.compile(_RUNS.format(line=rf"{_NUMERIC}(?:[^\S\n][^\n]*+)?+\n"))
# Cells or lines per chunk read by parse_records and ingest; text read in
# blocks (see `_blocks`) comes in blocks of 4 * _CHUNK characters.
_CHUNK = 16384


class ColumnError(ValueError):
    """A requested column does not exist in the input."""


class DigitSystem(namedtuple("DigitSystem", "digits")):
    """A digit scheme: how many leading digits are counted (1 or 2)."""

    __slots__ = ()

    def __new__(cls, digits: int):
        if digits not in (1, 2):
            raise ValueError(f"digits must be 1 or 2, got {digits!r}")
        return super().__new__(cls, digits)

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make: validate there too.
        return cls(*fields)

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

        Values are read as their decimal text (see `_text`), so there is a
        single extraction pathway.  A significand shorter than `digits` is
        padded with a zero.  Raises ValueError for non-numeric input.
        """
        text = _text(token)
        if not _NUMERIC_RE.fullmatch(text):
            raise ValueError(f"not a numeric token: {token!r}")
        # The mantissa's digits with leading zeros removed: empty for a zero.
        significand = re.split("[eE]", text)[0].lstrip("+-").replace(".", "").lstrip("0")
        if not significand:
            return None
        return int((significand + "0")[:self.digits])


FIRST_DIGIT = DigitSystem(1)
FIRST_TWO_DIGITS = DigitSystem(2)


class DigitCounts(namedtuple("DigitCounts", "system counts skip_reasons")):
    """Observed digit frequencies plus ingestion diagnostics.

    `counts` is a tuple of k ints, and `skip_reasons` maps each skip reason
    to its count; a DigitCounts built without it gets a fresh empty dict.
    """

    __slots__ = ()

    def __new__(cls, system: DigitSystem, counts: tuple[int, ...],
                skip_reasons: dict[str, int] | None = None):
        return super().__new__(cls, system, counts, {} if skip_reasons is None else skip_reasons)

    @property
    def n(self) -> int:
        """Records counted: the sum of `counts`."""
        return sum(self.counts)

    @property
    def skipped(self) -> int:
        """Records skipped, over every reason."""
        return sum(self.skip_reasons.values())


def _text(token: str | float | int) -> str:
    """The decimal text of a value: a str stripped, an integer exact, repr(float(x)) otherwise.

    Anything with `__index__` (int, bool, numpy integers) is an integer, so
    an int too long for a float keeps its leading digits exactly.  A value
    that float() refuses (None, a complex number) reads as "", a non-number.
    """
    if isinstance(token, str):
        return token.strip()
    try:
        value = as_integer(token)
    except TypeError:
        try:
            return repr(float(token))
        except TypeError:
            return ""
    # str() refuses ints of more than 4300 digits.  Dividing by a power of ten
    # at least 19 digits below the leading one drops only trailing digits.
    shift = max(value.bit_length() * 30103 // 100000 - 20, 0)
    text = str(abs(value) // 10**shift)
    return "-" + text if value < 0 else text


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
    or decimal mark that is not one character or is a digit, a sign, "e" or
    "E", a whitespace decimal mark, or a delimiter equal to the decimal mark
    raises ValueError.

    Whitespace-delimited text read by its first field is not split into
    rows: the grammar is read at each line's start, after any indentation,
    up to whitespace or the line's end, so a line of one field and a line of
    several are read alike.  Every source is split at its own line ends.  A
    str, whatever its line ends (it is split at "\\n", and a "\\r" reads as
    whitespace), and a source with `read` that either is in universal-newline
    mode (it sets `newlines` once it has read a line end) or ends its first
    non-blank line in a bare "\\n", are read in blocks of characters; any
    other source is read line by line, and an iterable's items are read as
    one line each.  A CSV that csv.reader refuses raises ValueError.
    """
    skip_reasons: dict[str, int] = {}
    chunks = _valid_chunks(source, column, delimiter, decimal_mark, skip_reasons)
    # A valid text line may keep fields after its first.
    return [token.split(None, 1)[0] for token in chain.from_iterable(chunks)], skip_reasons


def _valid_chunks(
    source: TextIO | Iterable[str],
    column: int | str | None,
    delimiter: str | None,
    decimal_mark: str,
    skip_reasons: dict[str, int],
) -> Iterator[list[str]]:
    """Yield parse_records' tokens one chunk at a time.

    Cells and text lines alike are checked by one regex pass over each
    chunk's joined text (see `_chunks`), with no Python call per cell or
    line.  A CSV, or a text column other than the first, is read by rows,
    `_CHUNK` cells a chunk.  Text read by its first field is read in blocks
    of whole lines, or `_CHUNK` lines a chunk, as decided once from the
    source and its read-ahead line (see `parse_records`).  A str is read
    through an io.StringIO made here, whose lines end at "\\n" alone, so it
    is read in blocks.  A token read from such text is its line, which may
    keep fields after its first.
    Each chunk's skip counts are added to `skip_reasons`, whose reasons are
    listed in order of first occurrence.  Nothing here holds a chunk once
    the next is read, so a caller that counts each chunk as it comes keeps
    memory flat however long the input is.  A CSV that csv.reader refuses
    raises ValueError, which names the source's file if it has a `name`.
    """
    for name, mark in (("delimiter", delimiter), ("decimal mark", decimal_mark)):
        if mark is not None and len(mark) != 1:
            raise ValueError(f"the {name} must be one character, got {mark!r}")
        # A mark that a number can hold would split or join numbers.
        if mark is not None and mark in "0123456789+-eE":
            raise ValueError(f"the {name} must not be a digit, a sign, 'e' or 'E', got {mark!r}")
    if decimal_mark.isspace():
        raise ValueError(f"the decimal mark must not be whitespace, got {decimal_mark!r}")
    if delimiter == decimal_mark:
        raise ValueError(f"the delimiter and the decimal mark are both {delimiter!r}")
    is_str = isinstance(source, str)
    source = io.StringIO(source) if is_str else source
    lines = iter(source)
    if delimiter is None:
        # Read ahead to the first non-blank line, and no further: a comma
        # there makes the input comma-delimited, unless it is the decimal mark.
        ahead = []
        for line in lines:
            ahead.append(line)
            if line.strip():
                if "," in line and decimal_mark != ",":
                    delimiter = ","
                break
        lines = chain(ahead, lines)
    try:
        if delimiter is None:
            rows = map(str.split, filter(None, map(str.strip, lines)))
        else:
            rows = filter(None, csv.reader(lines, delimiter=delimiter))
        first_row = next(rows, None)
        if first_row is None:
            return
        index, is_header = _resolve_column(column, first_row, decimal_mark)
        if delimiter is None and index == 0:
            # The rest of the text follows the first row in `source` or `lines`.
            # A universal-newline source has set `newlines` by now.  In another
            # mode, if the read-ahead `line` ends in "\n" alone, either it is
            # the last line or lines end at "\n", where `_blocks` ends them, as
            # they do in the StringIO made from a str.
            universal = bool(getattr(source, "newlines", None))
            bare_lf = line.endswith("\n") and not line.endswith("\r\n")
            if hasattr(source, "read") and (is_str or universal or bare_lf):
                blocks = _blocks(source, universal)
            else:
                blocks = _batches(lines)
            if not is_header:
                blocks = chain((first_row[0] + "\n",), blocks)
            runs, marks = _LINE_RUNS_RE, {"": SKIP_NON_NUMERIC}
        else:
            if not is_header:
                rows = chain((first_row,), rows)
            # Chunks hold cells, never row lists: tens of thousands of live
            # lists make the cyclic garbage collector's passes slow.
            cells = (row[index] if index < len(row) else "" for row in rows)
            blocks = _batches(map(str.strip, cells))
            runs, marks = _CELL_RUNS_RE, {"": SKIP_NON_NUMERIC, "\n": SKIP_EMPTY}
        if decimal_mark != ".":
            blocks = map(methodcaller("replace", decimal_mark, "."), blocks)
        yield from _chunks(blocks, runs, marks, skip_reasons)
    except csv.Error as exc:
        name = getattr(source, "name", None)
        where = "" if name is None else f" in {name!r}"
        raise ValueError(f"malformed CSV{where}: {exc}") from exc


def _blocks(source: TextIO, universal: bool) -> Iterator[str]:
    """The rest of `source` in blocks of whole lines, each ended by "\\n".

    A block is `4 * _CHUNK` characters completed by `readline`, so it ends
    where a line ends.  In a `universal` source, one that has set `newlines`,
    "\\r\\n" and "\\r" end lines too: they become "\\n".
    """
    while block := source.read(4 * _CHUNK) + source.readline():
        if universal:
            # "\r\n" first: it ends one line, not a line and a blank one.
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        yield block if block.endswith("\n") else block + "\n"


def _batches(items: Iterator[str]) -> Iterator[str]:
    """`items`, `_CHUNK` at a time, each batch as one text with a line break after each item.

    A line break inside an item becomes a space: a CSV cell that holds one
    stays non-numeric, and an item of several text lines is read by its
    first field.
    """
    while batch := list(islice(items, _CHUNK)):
        text = "\n".join(batch) + "\n"
        if text.count("\n") > len(batch):
            text = "\n".join(map(methodcaller("replace", "\n", " "), batch)) + "\n"
        batch.clear()  # the items are freed before the text is read
        yield text


def _chunks(
    blocks: Iterable[str], runs: re.Pattern, marks: dict[str, str], skip_reasons: dict[str, int]
) -> Iterator[list[str]]:
    """Yield the valid lines of each block of lines, each ended by "\\n".

    One findall pass of `runs`, a `_RUNS` pattern, reads a block's lines in
    order.  `marks` maps the string it returns for a non-numeric line, and
    for a blank line if blank lines are records (CSV cells, not text lines),
    to the line's skip reason.
    """
    for block in blocks:
        found = runs.findall(block)
        # Skip reasons are listed in order of first occurrence.
        for mark in sorted(filter(found.__contains__, marks), key=found.index):
            skip_reasons[marks[mark]] = skip_reasons.get(marks[mark], 0) + found.count(mark)
        valid = "".join(found).split("\n")
        valid.pop()  # the empty string after the last line break
        yield list(filter(None, valid)) if "\n" in found else valid


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

    Values are read as their decimal text, as DigitSystem.extract reads
    them, and checked as CSV cells are, by one regex pass over each chunk's
    joined text.  Zero values and non-numeric tokens, None and "" among
    them, go to skip_reasons, zero-value first.
    """
    skip_reasons: dict[str, int] = {}
    marks = {"": SKIP_NON_NUMERIC, "\n": SKIP_NON_NUMERIC}
    chunks = _chunks(_batches(map(_text, tokens)), _CELL_RUNS_RE, marks, skip_reasons)
    return _tally(chunks, system, skip_reasons)


def _tally(
    chunks: Iterable[list[str]], system: DigitSystem, skip_reasons: dict[str, int]
) -> DigitCounts:
    """Tally chunks of valid tokens into a DigitCounts.

    Each chunk's tokens are counted by head in C before the next chunk is
    read.  A token's head, its first 2*digits - 1 characters after any sign,
    leading zeros and point ("1.5" for the first two digits), fixes its
    leading digits, so each distinct head goes once through the reference
    extraction.  Zero-value is listed first, then the reasons that reading
    the chunks added to `skip_reasons`.
    """
    width = 2 * system.digits - 1
    heads: Counter[str] = Counter()
    for tokens in chunks:
        heads.update(map(itemgetter(slice(None, width)), map(str.lstrip, tokens, repeat("+-0."))))
    labels: Counter[int | None] = Counter()
    for head, count in heads.items():
        # The head's mantissa, cut at any field after a text line's first, is
        # a valid token with the same leading digits; it is empty for a zero.
        labels[system.extract(re.split(r"[eE\s]", head)[0] or "0")] += count
    skips = {SKIP_ZERO: labels.pop(None)} if None in labels else {}
    counts = tuple(labels[label] for label in system.digit_labels)
    return DigitCounts(system=system, counts=counts, skip_reasons={**skips, **skip_reasons})


def ingest(
    source: TextIO | Iterable[str],
    system: DigitSystem,
    column: int | str | None = None,
    *,
    delimiter: str | None = None,
    decimal_mark: str = ".",
) -> DigitCounts:
    """Full ingestion pipeline: parse a stream, count digits, merge skip maps.

    The input is read as parse_records reads it, one chunk at a time, and
    each chunk's heads are counted before the next is read, so memory holds
    about one chunk of cells, or one block of text lines, however long the
    input is.  Cells and text lines are checked alike, by one regex pass
    over each chunk's joined text, and `_tally` counts the tokens that pass
    by head in C, with no second check and no Python call per token.  A
    token read from a text line may keep the line's later fields; its head
    is cut at whitespace when it is tallied.  Zero-value is listed first,
    then the skips of parse_records.
    """
    skip_reasons: dict[str, int] = {}
    chunks = _valid_chunks(source, column, delimiter, decimal_mark, skip_reasons)
    return _tally(chunks, system, skip_reasons)
