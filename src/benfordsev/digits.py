"""Reading numeric records and extracting first / first-two significant digits.

Digits are read from decimal strings alone, never from a binary float, so
boundary values like 0.1 can never flip to a neighbouring digit through
rounding.  Values that cannot contribute a digit (zero, empty, non-numeric)
are counted and reported, never silently dropped.
"""

from __future__ import annotations

import codecs
import csv
import io
import marshal
import os
import re
import select
import stat
import threading
from collections import Counter, namedtuple
from functools import partial
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
_FRACTION = r"(?:\.[0-9]*+)?+"
_EXPONENT = r"(?:[eE][+-]?+[0-9]++)?+"
_NUMERIC = rf"[+-]?+(?:[0-9]++{_FRACTION}|\.[0-9]++){_EXPONENT}"
_NUMERIC_RE = re.compile(_NUMERIC)
# The grammar's tokens that start with 1-9: the only ones whose leading
# digits are their first characters, with no sign, zero or point to strip.
_LED = rf"[1-9][0-9]*+{_FRACTION}{_EXPONENT}"
# The runs of a block of lines, each ended by "\n", for a line's end after
# the grammar.  findall returns one pair per match, in order, whose groups
# are: a run of lines that start with 1-9, or "\n" for a blank line; or
# else a run of valid lines from one that starts with a sign, a zero or a
# point, on through the valid lines after it; ("", "") for any other line.
# Only a run's first line can be indented; it is captured without that
# indentation.  A 1-9-led line matches the first group if it is valid at
# all, so the second group starts only at a line with something to strip.
_RUNS = r"(?m)^[^\S\n]*+(?:((?:{led}{end})++|\n)|((?:{numeric}{end})++))|^[^\n]*+\n"
# A valid cell is the grammar, padded with whitespace or not: the pattern
# reads the padding, so no cell is stripped first.  A valid text line is read
# by its first field: the grammar at its start, up to whitespace or its end.
_CELL_RUNS_RE = re.compile(_RUNS.format(led=_LED, numeric=_NUMERIC, end=r"[^\S\n]*+\n"))
_LINE_RUNS_RE = re.compile(_RUNS.format(led=_LED, numeric=_NUMERIC,
                                        end=r"(?:\n|[^\S\n][^\n]*+\n)"))
# A first line that may be numbers written with commas (see parse_records):
# the grammar, with commas between the digits of a whole part, split and
# perhaps ended by whitespace or ";".
_COMMA_NUMBER = rf"[+-]?+(?:[0-9]++(?:,[0-9]++)*+{_FRACTION}|\.[0-9]++){_EXPONENT}"
_COMMA_NUMBERS_RE = re.compile(rf"{_COMMA_NUMBER}(?:[\s;]++{_COMMA_NUMBER})*+[\s;]*+")
# Cells per chunk read by parse_records, ingest and count_digits; text read
# in blocks (see `_blocks`) comes in blocks of 4 * _CHUNK characters.
_CHUNK = 16384


def _plain(block: str) -> bool:
    """Whether every line of `block` is ASCII digits that start with 1-9, with at most one point.

    Such a line is `_LED` with no exponent, unpadded and alone on its line,
    so both run patterns read such a block as one run of 1-9-led lines:
    findall returns [(block, "")].  A blank line, or a block not ended by
    "\\n", is not plain.  The cheap tests come first; no character but a
    digit, a point or "\\n" survives the translate, and two points of one
    line meet once the digits between them are deleted.
    """
    if not block.isascii() or " " in block or "\t" in block or not block.endswith("\n"):
        return False
    if re.search(r"\n[^1-9]", "\n" + block):
        return False
    rest = block.encode().translate(None, b"0123456789")
    return rest.count(b".") + rest.count(b"\n") == len(rest) and b".." not in rest


class ColumnError(ValueError):
    """A requested column does not exist in the input."""


class DigitSystem(namedtuple("DigitSystem", "digits")):
    """A digit scheme: how many leading digits are counted (1 or 2)."""

    __slots__ = ()

    def __new__(cls, digits: int):
        value = as_integer(digits) if hasattr(digits, "__index__") else None
        if value not in (1, 2):
            raise ValueError(f"digits must be 1 or 2, got {digits!r}")
        return super().__new__(cls, value)

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

    def extract(self, token: str) -> int | None:
        """Leading `digits` significant digits of a decimal string, None for exact zero.

        The token is read stripped, by the grammar that `ingest` reads cells
        with.  A significand shorter than `digits` is padded with a zero.
        Raises ValueError for a str that is not numeric, and TypeError for
        a value that is not a str.
        """
        if not isinstance(token, str):
            raise TypeError(f"a token must be a str, got {type(token).__name__}")
        text = token.strip()
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


def parse_records(
    source: TextIO | Iterable[str],
    column: int | str | None = None,
    *,
    delimiter: str | None = None,
    decimal_mark: str = ".",
) -> tuple[list[str], dict[str, int]]:
    """Pull numeric tokens out of a delimited text stream.

    `column` selects a field by 0-based index or by header name; by default
    the first field of each row is used.  The first row is the first
    non-blank line, and it is a header row, consumed, when its selected cell
    is non-empty and non-numeric.  A comma in it makes the input
    comma-delimited unless `decimal_mark` is ",", even beside a ";" as in
    "id;amount,x".  Unless `delimiter` or `column` is given, it must not be
    numbers written with commas, one or a row of them split (and perhaps
    ended) by whitespace or ";", such as "1,234", "1,5;2,25", "1,5;" or
    "1,5 .7"; a `column` reads such a comma as a field break.  Returns the
    tokens (decimal strings, unpadded) and a map of skip reason -> count for
    cells that were empty or non-numeric.  Zeros are kept here and counted
    at digit extraction.  A delimiter or decimal mark that is not one
    character or is a digit, a sign, "e" or "E", a whitespace decimal mark,
    a delimiter equal to the decimal mark, or such a first line raises
    ValueError.

    Every source is split at its own line ends.  A str is split at "\\n",
    "\\r\\n" or a lone "\\r", as a file opened with newline="" is, and an
    iterable's items are read as one line each.  Whitespace-delimited text
    is read by its first field, whatever the source, and not split into
    rows: the grammar is read at each line's start, after any indentation,
    up to whitespace or the line's end, so a line of one field and a line of
    several are read alike.  Every other column is read by rows.  A CSV
    that csv.reader refuses raises ValueError.
    """
    skip_reasons: dict[str, int] = {}
    tokens = []
    blocks, runs, marks, _ = _valid_blocks(source, column, delimiter, decimal_mark)
    for found in _chunks(blocks, runs, marks, skip_reasons):
        # Each match holds one run, or one blank line, in input order.  A
        # valid cell may keep its padding, and a text line its later fields.
        lines = "".join(chain.from_iterable(found)).split("\n")
        tokens += [line.split(None, 1)[0] for line in lines if line]
    return tokens, skip_reasons


def _valid_blocks(
    source: TextIO | Iterable[str],
    column: int | str | None,
    delimiter: str | None,
    decimal_mark: str,
    split: bool = False,
) -> tuple[Iterator[str], re.Pattern, dict[tuple[str, str], str], list[Iterator[str]]]:
    """The column as blocks of lines, the run pattern and marks `_chunks` reads them by, and halves.

    The first row is read here, and the blocks as they are iterated.
    Cells and text lines alike are checked later by one regex pass over
    each block (see `_chunks`), which reads a cell's padding as it reads a
    text line's indentation: no Python call strips or checks a cell or
    line.  Text read by its first field is read by its lines, whatever the
    source, with `_LINE_RUNS_RE`: in blocks of whole lines if the source
    has set `newlines` by the time its first row is read, as a
    universal-newline source has, or else `_CHUNK` lines a block, each
    stripped of its line end and trailing whitespace; a token is its line,
    which may keep later fields.  Every other column is read by rows,
    `_CHUNK` cells a block, with `_CELL_RUNS_RE`.  A decimal mark other
    than "." is replaced by "." in each block.  A str is read through an
    io.StringIO(newline="") made here, as the command line opens a file.
    Nothing here holds a block once the next is read, so a caller that
    counts each block as it comes keeps memory flat however long the input
    is.  A CSV that csv.reader refuses raises ValueError, here or from the
    blocks, which names the source's file if it has a `name`.

    The halves are empty unless `split` is true and `_halves` splits the
    source's file after the first row.  Then the blocks stop at a line start
    near the middle of the rest, where a quoted CSV cell may hold it (see
    `_cells`), and the halves are the blocks from there to the end and the
    blocks of the whole rest, all read by byte offset.  The first row is
    read by `readline` where the source has it, since `next` turns off a
    file's `tell`.
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
    source = io.StringIO(source, newline="") if isinstance(source, str) else source
    lines = iter(source)
    ahead = iter(source.readline, "") if hasattr(source, "readline") else lines
    # Read ahead to the first non-blank line, and no further: it is the first row.
    first = next(filter(str.strip, ahead), None)
    if first is None:
        return iter(()), _LINE_RUNS_RE, {}, []
    if delimiter is None and "," in first and decimal_mark != ",":
        delimiter = ","
        if column is None and _COMMA_NUMBERS_RE.fullmatch(first.strip()):
            raise ValueError(f"{first.strip()!r} may be one number written with commas;"
                             " give --delimiter , or --column, or --decimal-mark ,")
    reader = (partial(map, str.split) if delimiter is None
              else partial(csv.reader, delimiter=delimiter))
    # The lines of a first row that a quoted cell carries on are read ahead too.
    first_row = next(_csv_checked(filter(None, reader(chain((first,), ahead))), source))
    index, is_header = _resolve_column(column, first_row, decimal_mark)
    lead = () if is_header else tuple(_batches(_cells([first_row], index)))
    # The rest follows the first row.  `_blocks` ends lines where a
    # universal-newline source does; any other's items are lines.
    universal = bool(getattr(source, "newlines", None))
    if delimiter is None and index == 0:
        def read(text, half=False):
            return _blocks(text) if universal else _batches(map(str.rstrip, text))
        runs, marks = _LINE_RUNS_RE, {("", ""): SKIP_NON_NUMERIC}
    else:
        # Batches hold cells, never row lists: tens of thousands of live
        # lists make the cyclic garbage collector's passes slow.
        def read(text, half=False):
            return _batches(_cells(reader(chain(text, ("\n",)) if half else text), index, half))
        runs, marks = _CELL_RUNS_RE, {("", ""): SKIP_NON_NUMERIC, ("\n", ""): SKIP_EMPTY}
    if split and (halves := _halves(source)):
        here, there, whole = halves
        parts = [chain(lead, read(here, True)), read(there), chain(lead, read(whole))]
    else:
        parts = [chain(lead, read(source if universal else lines))]
    if decimal_mark != ".":
        parts = [map(methodcaller("replace", decimal_mark, "."), part) for part in parts]
    blocks, *halves = (_csv_checked(part, source) for part in parts)
    return blocks, runs, marks, halves


def _csv_checked(items: Iterator, source: TextIO | Iterable[str]) -> Iterator:
    """`items`, with a csv.Error raised as ValueError.

    The error names the source's file if the source has a `name`.
    """
    try:
        yield from items
    except csv.Error as exc:
        name = getattr(source, "name", None)
        where = "" if name is None else f" in {name!r}"
        raise ValueError(f"malformed CSV{where}: {exc}") from exc


def _blocks(source: TextIO) -> Iterator[str]:
    """The rest of a universal-newline `source` in blocks of whole lines, each ended by "\\n".

    A block is `4 * _CHUNK` characters completed by `readline`, so it ends
    where a line ends.  "\\n", "\\r\\n" and "\\r" end lines, as they do in
    the source: "\\r\\n" and "\\r" become "\\n".  A block with no "\\r" is
    left as read.
    """
    while block := source.read(4 * _CHUNK) + source.readline():
        # The "\r" scan is far cheaper than a "\r\n" search, which stops at
        # every "\n".  "\r\n" first: it ends one line, not a line and a blank one.
        if "\r" in block:
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        yield block if block.endswith("\n") else block + "\n"


def _halves(source: TextIO) -> tuple[TextIO, TextIO, TextIO] | None:
    """The rest of a UTF-8 `source` as three texts read from its file by byte offset, or None.

    The texts run from the source's position to a line start near the
    middle of the rest, from there to the end of the file as it is now, and
    over the whole rest.  Each reads the source's file descriptor with
    os.pread, which moves no file offset, so a forked process can read one
    while this one reads another.  None unless the source is a UTF-8 text
    file over a regular file, in a universal-newline mode that has read a
    line end, at a plain byte offset (not after a lone "\\r" that ends a
    line before one that is not empty), with more than two blocks of
    `_blocks` left.  Otherwise the source is left at its end.
    """
    raw = getattr(getattr(source, "buffer", None), "raw", None)
    if not (isinstance(source, io.TextIOWrapper) and isinstance(raw, io.FileIO)
            and source.newlines and codecs.lookup(source.encoding).name in ("utf-8", "utf-8-sig")):
        return None
    try:
        start, info = source.tell(), os.fstat(raw.fileno())
    except (OSError, ValueError):  # not seekable, closed, or `tell` turned off by `next`
        return None
    # A position that is not a plain byte offset is at least 2**64, but 2**64
    # above the byte after a "\r" held back by the newline decoder is that "\r".
    if start >> 64 == 1:
        start -= (1 << 64) + 1
    if not stat.S_ISREG(info.st_mode) or start >= info.st_size - 2 * 4 * _CHUNK:
        return None
    middle = _line_start(raw.fileno(), (start + info.st_size) // 2)
    if middle is None:
        return None
    source.seek(0, os.SEEK_END)
    return tuple(io.TextIOWrapper(_ByteRange(raw.fileno(), *span), encoding="utf-8",
                                  errors=source.errors, newline="")
                 for span in ((start, middle), (middle, info.st_size), (start, info.st_size)))


# A line end that a byte follows: "\n", or a "\r" before any byte but "\n".
_LINE_END_RE = re.compile(rb"\n(?=[\s\S])|\r(?=[^\n])")


def _line_start(fd: int, offset: int) -> int | None:
    """The offset of the first line that starts after `offset` in file `fd`, or None.

    "\\n" and a lone "\\r" end lines, as they do for `_blocks`; neither
    byte can be part of a UTF-8 character.
    """
    while len(window := os.pread(fd, 4 * _CHUNK, offset)) > 1:
        if found := _LINE_END_RE.search(window):
            return offset + found.end()
        offset += len(window) - 1  # the last byte is read again with the byte after it
    return None


class _ByteRange(io.RawIOBase):
    """The bytes of file descriptor `fd` from `start` up to `stop`, read by os.pread."""

    def __init__(self, fd: int, start: int, stop: int):
        super().__init__()
        self.fd, self.position, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.stop - self.position), self.position)
        buffer[:len(data)] = data
        self.position += len(data)
        return len(data)


class _InsideARecord(Exception):
    """The line start that splits a CSV file's rest is inside a record."""


def _cells(rows: Iterable[list[str]], index: int, half: bool = False) -> Iterator[str]:
    """The cell at `index` of each row that is not empty, or "" where the row is shorter.

    With `half`, `rows` are read from a half of the rest of a file that ends
    at a line start, and from one blank line after it.  Only a quoted cell
    carries a record across a line end, so the half ends at a record's end
    exactly when that blank line is read as an empty row.  Where it is not,
    or the reader refuses the half (the blank line may lengthen a cell cut
    at the line start), _InsideARecord is raised after the last cell.
    """
    row = None
    try:
        for row in rows:
            if row:
                yield row[index] if index < len(row) else ""
    except csv.Error:
        if not half:
            raise
        row = None
    if half and row != []:
        raise _InsideARecord


def _batches(items: Iterator[str]) -> Iterator[str]:
    """`items`, `_CHUNK` at a time, each batch as one text with a line break after each item.

    The items are cells, values or text lines, padding and all.  A line
    break inside one becomes a space, which pads a cell or value or keeps it
    non-numeric, and ends a text line's first field.
    """
    while batch := list(islice(items, _CHUNK)):
        text = "\n".join(batch) + "\n"
        if text.count("\n") > len(batch):
            text = "\n".join(map(methodcaller("replace", "\n", " "), batch)) + "\n"
        batch.clear()  # the items are freed before the text is read
        yield text


def _chunks(
    blocks: Iterable[str],
    runs: re.Pattern,
    marks: dict[tuple[str, str], str],
    skip_reasons: dict[str, int],
) -> Iterator[list[tuple[str, str]]]:
    """Yield the findall matches of each block of lines, each ended by "\\n".

    One findall pass of `runs`, a `_RUNS` pattern, reads a block's lines in
    order, as pairs of a run that starts with 1-9 or a blank line, and a run
    that starts with a sign, a zero or a point.  A plain block (see
    `_plain`) is accepted without that pass, as the one run findall would
    return.  `marks` maps the pair it returns for a non-numeric line, and
    for a blank line if blank lines are records (CSV cells, not text lines),
    to the line's skip reason.
    """
    for block in blocks:
        if _plain(block):
            yield [(block, "")]
            continue
        found = runs.findall(block)
        # Skip reasons are listed in order of first occurrence.
        for mark in sorted(filter(found.__contains__, marks), key=found.index):
            skip_reasons[marks[mark]] = skip_reasons.get(marks[mark], 0) + found.count(mark)
        yield found


def _resolve_column(column, first_row, decimal_mark) -> tuple[int, bool]:
    """Return (index, whether first_row is a header row)."""
    if isinstance(column, str):
        names = [cell.strip() for cell in first_row]
        if names.count(column) != 1:
            found = f"appears {names.count(column)} times" if column in names else "not found"
            raise ColumnError(f"column {column!r} {found} in header {names!r}")
        return names.index(column), True
    index = 0 if column is None else int(column)
    if index < 0:
        raise ColumnError(f"column index must be nonnegative, got {column!r}")
    # Header auto-detection: a non-empty, non-numeric first cell is a header.
    cell = first_row[index].strip().replace(decimal_mark, ".") if index < len(first_row) else ""
    return index, bool(cell) and not _NUMERIC_RE.fullmatch(cell)


def count_digits(tokens: Iterable[str], system: DigitSystem) -> DigitCounts:
    """Tally extracted digits over `tokens`, decimal strings, into a DigitCounts.

    The strings are checked as CSV cells are, padding and all, by one regex
    pass over each chunk's joined text, or none for a plain chunk (see
    `_plain`), so each reads as DigitSystem.extract reads it.  Zero values
    and non-numeric tokens, "" among them, go to skip_reasons, zero-value
    first.  A token that is not a str raises TypeError.
    """
    marks = {("", ""): SKIP_NON_NUMERIC, ("\n", ""): SKIP_NON_NUMERIC}
    return _count(_batches(iter(tokens)), _CELL_RUNS_RE, marks, system)


def _count(
    blocks: Iterable[str], runs: re.Pattern, marks: dict[tuple[str, str], str], system: DigitSystem
) -> DigitCounts:
    """Tally the tokens of `blocks`, read by `_chunks` with `runs` and `marks`."""
    skip_reasons: dict[str, int] = {}
    return _tally(_chunks(blocks, runs, marks, skip_reasons), system, skip_reasons)


def _tally(
    chunks: Iterable[list[tuple[str, str]]], system: DigitSystem, skip_reasons: dict[str, int]
) -> DigitCounts:
    """Tally the findall matches of `_chunks` into a DigitCounts.

    Each chunk's tokens are counted by head in C before the next chunk is
    read.  A token's head, its first 2*digits - 1 characters after any sign,
    leading zeros and point ("1.5" for the first two digits), fixes its
    leading digits, so each distinct head goes once through the reference
    extraction.  Only a token that starts with "+", "-", "0" or "." has
    anything to strip.  The run pattern puts a run of tokens that start
    with 1-9 in a match's first group, and such a run is counted as it
    stands: a one-digit head is a token's first character, so the first
    digits of a chunk's run tokens are counted by str.count over one string
    of their first characters, with no object made per token.  Its second
    group, a run from a token with something to strip on through the valid
    tokens after it, is stripped first.  Zero-value is listed first, then
    the reasons that reading the chunks added to `skip_reasons`.
    """
    cut = itemgetter(slice(None, 2 * system.digits - 1))
    heads: Counter[str] = Counter()
    for found in chunks:
        led, to_strip = ("".join(map(itemgetter(group), found)).split("\n") for group in (0, 1))
        led.pop()  # the empty string after the last line break
        to_strip.pop()
        # A blank line leaves an empty string among the 1-9-led tokens.
        tokens = filter(None, led) if ("\n", "") in found else led
        if system.digits == 1:
            # One string of first characters, counted in C digit by digit;
            # a digit that does not occur adds no head to extract.
            firsts = "".join(map(itemgetter(0), tokens))
            heads.update({d: n for d in "123456789" if (n := firsts.count(d))})
        else:
            heads.update(map(cut, tokens))
        heads.update(map(cut, map(str.lstrip, to_strip, repeat("+-0."))))
    labels: Counter[int | None] = Counter()
    for head, count in heads.items():
        # The head's mantissa, cut at padding or a text line's later fields, is
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
    each chunk's heads are counted as it comes, so memory holds about one
    chunk of cells, or one block of text lines, in each process however
    long the input is.  Text read by its first field is read by its lines,
    whatever the source, and every other column by rows.
    Cells and text lines are checked alike, by one regex pass over each
    chunk's joined text, or none for a plain chunk (see `_plain`), and
    `_tally` counts the tokens that pass by head in C, with no second check
    and no Python call per token.  That pass tells a run of tokens that
    start with 1-9, counted as they stand, from a run that starts at a token
    with a sign, a leading zero or a point, whose tokens are stripped of
    them first.  A token may keep a cell's padding or a text line's later
    fields; its head is cut at whitespace when it is tallied.  Zero-value is
    listed first, then the skips of parse_records.

    A column read from a UTF-8 file that `_halves` splits is counted in two
    halves: a forked helper reads and counts the second half of the rest of
    the file by byte offset while this process counts the first (see
    `_count_in_helper`).  That needs os.fork and no other thread running
    (see `_one_thread`).  Every other input is counted here.  The counts and
    skips are the same either way.
    """
    forking = hasattr(os, "fork") and _one_thread()
    blocks, runs, marks, halves = _valid_blocks(source, column, delimiter, decimal_mark, forking)
    if halves:
        return _count_in_helper(blocks, runs, marks, system, *halves)
    return _count(blocks, runs, marks, system)


def _one_thread() -> bool:
    """Whether this process runs one thread, as the operating system counts them where it can.

    /proc/self/task counts every thread, as Python's fork-with-threads
    warning counts them on Linux, so a thread that Python did not start,
    such as a BLAS worker's, counts too.  Elsewhere only Python's threads
    are counted.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return threading.active_count() == 1


def _count_in_helper(
    blocks: Iterable[str], runs: re.Pattern, marks: dict[tuple[str, str], str], system: DigitSystem,
    rest: Iterable[str], whole: Iterable[str],
) -> DigitCounts:
    """`_count(whole, runs, marks, system)`, where `blocks` and `rest` are the halves of `whole`.

    A forked helper counts `rest` while this process counts `blocks`, and
    sends back its counts and skips by marshal.  However the work here
    ends, even by an error or an interrupt, the pipe is closed, which stops
    the helper at its next block, and the helper is waited for.  Where
    `blocks` raise _InsideARecord, `whole` is counted here and the helper's
    report is not read.  A helper that fails, by an error, a signal or a
    report cut short, leaves `rest` to be counted here, which raises the
    helper's error, such as a UnicodeDecodeError, as counting it here in
    the first place would.  Where a caller ignores SIGCHLD, or reaps
    children in its handler, the helper's status is gone, and its report
    alone shows that it finished.  If the fork fails, `whole` is counted here.
    """
    report_in, report_out = os.pipe()
    try:
        pid = os.fork()
    except BaseException as exc:
        # A helper forked before an error here, such as a warning raised as
        # one, finds its pipe closed and leaves.
        os.close(report_in)
        os.close(report_out)
        if not isinstance(exc, OSError):
            raise
        return _count(whole, runs, marks, system)
    if pid == 0:  # the helper
        try:
            os.close(report_in)
            counted = _count(_while_heard(rest, report_out), runs, marks, system)
            os.write(report_out, marshal.dumps((counted.counts, counted.skip_reasons)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(report_out)
    try:
        with open(report_in, "rb") as out:
            here, report = _count(blocks, runs, marks, system), out.read()
    except _InsideARecord:
        here = report = None
    finally:
        # With the pipe closed, a helper still counting stops at its next block.
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped already: the report tells
            status = 0
    if here is None:
        return _count(whole, runs, marks, system)
    try:
        there = None if status else DigitCounts(system, *marshal.loads(report))
    except (EOFError, ValueError, TypeError):  # a report cut short
        there = None
    return _added(here, there or _count(rest, runs, marks, system))


def _added(first: DigitCounts, second: DigitCounts) -> DigitCounts:
    """The counts of two parts of one input in order: zero-value first, then by first occurrence."""
    counts = tuple(map(sum, zip(first.counts, second.counts)))
    skips = dict(Counter(first.skip_reasons) + Counter(second.skip_reasons))
    if SKIP_ZERO in skips:
        skips = {SKIP_ZERO: skips.pop(SKIP_ZERO), **skips}
    return DigitCounts(first.system, counts, skips)


def _while_heard(blocks: Iterable[str], fd: int) -> Iterator[str]:
    """`blocks`, until the process that reads the pipe written by `fd` has closed it.

    The helper so stops at the next block once the calling process has
    stopped, by an error, an interrupt or a half that starts inside a record.
    """
    poller = select.poll()
    poller.register(fd, 0)  # only a hang-up or an error is reported
    for block in blocks:
        if poller.poll(0):
            return
        yield block

