"""Reading numeric records and extracting first / first-two significant digits.

Digit extraction works on the decimal text of each value, never on a binary
float, so boundary values like 0.1 can never flip to a neighbouring digit
through rounding.  Values that cannot contribute a digit (zero, empty,
non-numeric) are counted and reported, never silently dropped.
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
from itertools import chain, islice, repeat
from operator import index as as_integer, itemgetter, methodcaller
from typing import BinaryIO, Iterable, Iterator, TextIO

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
) -> tuple[Iterator[str], re.Pattern, dict[tuple[str, str], str], Iterator[str] | None]:
    """The column as blocks of lines, the run pattern and marks `_chunks` reads them by, and a rest.

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

    The rest is None unless `split` is true and the text after the first
    row is read in blocks from a file that `_halves` splits.  Then the
    blocks stop at a line start near the middle of the rest of the file,
    and the rest is the blocks from there to the end, which another process
    can read, as both are read by byte offset; the source is left at its
    end.  The first row is read by `readline` where the source has it,
    since `next` turns off a file's `tell`.
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
        return iter(()), _LINE_RUNS_RE, {}, None
    if delimiter is None and "," in first and decimal_mark != ",":
        delimiter = ","
        if column is None and _COMMA_NUMBERS_RE.fullmatch(first.strip()):
            raise ValueError(f"{first.strip()!r} may be one number written with commas;"
                             " give --delimiter , or --column, or --decimal-mark ,")
    rows = chain((first,), lines)
    if delimiter is None:
        rows = filter(None, map(str.split, rows))
    else:
        rows = filter(None, csv.reader(rows, delimiter=delimiter))
    first_row = next(_csv_checked(rows, source))
    index, is_header = _resolve_column(column, first_row, decimal_mark)
    rest = None
    if delimiter is None and index == 0:
        # The rest of the text follows the first row.  `_blocks` ends lines
        # where a universal-newline source does; any other's items are lines.
        if not getattr(source, "newlines", None):
            blocks = _batches(map(str.rstrip, lines))
        elif split and (halves := _halves(source)):
            blocks, rest = map(_blocks, halves)
        else:
            blocks = _blocks(source)
        if not is_header:
            blocks = chain((first_row[0] + "\n",), blocks)
        runs, marks = _LINE_RUNS_RE, {("", ""): SKIP_NON_NUMERIC}
    else:
        if not is_header:
            rows = chain((first_row,), rows)
        # Batches hold cells, never row lists: tens of thousands of live
        # lists make the cyclic garbage collector's passes slow.
        cells = (row[index] if index < len(row) else "" for row in rows)
        blocks = _batches(cells)
        runs, marks = _CELL_RUNS_RE, {("", ""): SKIP_NON_NUMERIC, ("\n", ""): SKIP_EMPTY}
    if decimal_mark != ".":
        blocks = map(methodcaller("replace", decimal_mark, "."), blocks)
        rest = rest and map(methodcaller("replace", decimal_mark, "."), rest)
    return _csv_checked(blocks, source), runs, marks, rest


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


def _halves(source: TextIO) -> tuple[TextIO, TextIO] | None:
    """The rest of a UTF-8 `source` as two texts read from its file by byte offset, or None.

    The first text runs from the source's position to a line start near the
    middle of the rest, and the second from there to the end of the file as
    it is now.  Both read the source's file descriptor with os.pread, which
    moves no file offset, so a forked process can read one while this one
    reads the other.  None where the source is no text file over a regular file, its
    encoding is not UTF-8, its position is not a plain byte offset (as
    after a line that ends in a lone "\\r"), or the rest is no more than
    two blocks of `_blocks`.  Otherwise the source is left at its end.
    """
    raw = getattr(getattr(source, "buffer", None), "raw", None)
    if not (isinstance(source, io.TextIOWrapper) and isinstance(raw, io.FileIO)
            and codecs.lookup(source.encoding).name in ("utf-8", "utf-8-sig")):
        return None
    try:
        start, info = source.tell(), os.fstat(raw.fileno())
    except (OSError, ValueError):  # not seekable, closed, or `tell` turned off by `next`
        return None
    # A position that is not a plain byte offset is at least 2**64.
    if not stat.S_ISREG(info.st_mode) or start >= info.st_size - 2 * 4 * _CHUNK:
        return None
    middle = _line_start(raw.fileno(), (start + info.st_size) // 2)
    if middle is None:
        return None
    source.seek(0, os.SEEK_END)
    return tuple(io.TextIOWrapper(_ByteRange(raw.fileno(), *span), encoding="utf-8",
                                  errors=source.errors, newline="")
                 for span in ((start, middle), (middle, info.st_size)))


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


def count_digits(tokens: Iterable[str | float | int], system: DigitSystem) -> DigitCounts:
    """Tally extracted digits over `tokens` into a DigitCounts.

    Values are read as their decimal text, as DigitSystem.extract reads
    them, and checked as CSV cells are, by one regex pass over each chunk's
    joined text, or none for a plain chunk (see `_plain`).  Zero values and
    non-numeric tokens, None and "" among them, go to skip_reasons,
    zero-value first.
    """
    marks = {("", ""): SKIP_NON_NUMERIC, ("\n", ""): SKIP_NON_NUMERIC}
    return _count(_batches(map(_text, tokens)), _CELL_RUNS_RE, marks, system)


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
    chunk of cells (a few, with the helper below), or one block of text
    lines, however long the input is.  Text read by its first field is read
    by its lines, whatever the source, and every other column by rows.
    Cells and text lines are checked alike, by one regex pass over each
    chunk's joined text, or none for a plain chunk (see `_plain`), and
    `_tally` counts the tokens that pass by head in C, with no second check
    and no Python call per token.  That pass tells a run of tokens that
    start with 1-9, counted as they stand, from a run that starts at a token
    with a sign, a leading zero or a point, whose tokens are stripped of
    them first.  A token may keep a cell's padding or a text line's later
    fields; its head is cut at whitespace when it is tallied.  Zero-value is
    listed first, then the skips of parse_records.

    A column read by rows that fills more than one chunk is counted in a
    forked helper process (see `_count_in_helper`), while this process reads
    the next chunk; the first chunk is held until the second is read.  Text
    read by its first field from a UTF-8 file that `_halves` splits is
    counted in two halves: the helper reads and counts the second half of
    the rest of the file while this process counts the first.  Both need
    os.fork and no other thread running (see `_one_thread`).  Every other
    input is counted here.  The counts and skips are the same either way.
    """
    forking = hasattr(os, "fork") and _one_thread()
    blocks, runs, marks, rest = _valid_blocks(source, column, delimiter, decimal_mark, forking)
    if rest is not None:
        return _count_in_helper(blocks, runs, marks, system, rest)
    if runs is _CELL_RUNS_RE and forking:
        held = list(islice(blocks, 2))
        blocks = chain(held, blocks)
        if len(held) == 2:
            return _count_in_helper(blocks, runs, marks, system)
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
    rest: Iterable[str] | None = None,
) -> DigitCounts:
    """`_count(chain(blocks, rest or ()), runs, marks, system)`, counted in part by a forked helper.

    Without `rest`, this process reads `blocks` and writes each to a pipe, as
    one unbuffered, length-prefixed write, and goes on to read the next; the
    helper reads the blocks with a large buffer and counts them.  With
    `rest`, blocks that the helper reads for itself, the helper counts
    `rest` while this process counts `blocks`, and stops early if this
    process closes the report pipe first.  The helper sends back its
    counts and skip reasons by marshal and leaves by os._exit.  However the
    work here ends, even by an error or an interrupt, both pipes are closed
    and the helper is waited for, so no helper outlives the call.  A helper
    that fails makes this raise ChildProcessError, never return partial
    counts; with `rest`, `rest` is counted here instead, which raises the
    helper's error, such as a UnicodeDecodeError, as counting it here in the
    first place would.  Where a caller ignores SIGCHLD, or reaps children in
    its handler, the helper's status is gone, and its report alone shows
    that it finished.  If the fork itself fails, everything is counted here.
    """
    fds = os.pipe() + os.pipe()
    blocks_in, blocks_out, report_in, report_out = fds
    try:
        pid = os.fork()
    except BaseException as exc:
        # A helper forked before an error here, such as a warning raised as
        # one, finds its pipes closed and leaves.
        for fd in fds:
            os.close(fd)
        if not isinstance(exc, OSError):
            raise
        return _count(chain(blocks, rest or ()), runs, marks, system)
    if pid == 0:  # the helper
        code = 1
        try:
            os.close(blocks_out)
            os.close(report_in)
            with open(blocks_in, "rb", buffering=1 << 20) as pipe, open(report_out, "wb") as out:
                try:
                    blocks = _received(pipe) if rest is None else _while_heard(rest, report_out)
                    counted = _count(blocks, runs, marks, system)
                    report = counted.counts, counted.skip_reasons
                except Exception as exc:  # sent to the parent, which raises it
                    report = repr(exc)
                out.write(marshal.dumps(report))
            code = 0
        finally:
            os._exit(code)
    os.close(blocks_in)
    os.close(report_out)
    pipe, out = open(blocks_out, "wb", buffering=0), open(report_in, "rb")
    try:
        if rest is None:
            _send(blocks, pipe)
        else:
            here = _count(blocks, runs, marks, system)
        pipe.close()  # the end of the blocks
        report = out.read()
    finally:
        # With both pipes closed, a helper still reading or reporting ends.
        pipe.close()
        out.close()
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped already: the report tells
            status = 0
    try:
        there = _reported(status, report, system)
    except ChildProcessError:
        if rest is None:
            raise
        there = _count(rest, runs, marks, system)
    return there if rest is None else _added(here, there)


def _send(blocks: Iterable[str], pipe: BinaryIO) -> None:
    """Write each of `blocks` to `pipe` as `_received` reads them, until either of them ends."""
    for block in blocks:
        data = block.encode("utf-8", "surrogatepass")
        view = memoryview(len(data).to_bytes(8, "little") + data)
        try:
            while view:
                view = view[pipe.write(view):]
        except BrokenPipeError:
            return  # the helper has stopped, and its report says why


def _reported(status: int, report: bytes, system: DigitSystem) -> DigitCounts:
    """The counts that the helper reported, or ChildProcessError if it failed."""
    if status:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"the counting helper process ended with status {code}")
    try:
        report = marshal.loads(report)
    except (EOFError, ValueError, TypeError):
        report = "it sent no complete report"
    if isinstance(report, str):
        raise ChildProcessError(f"the counting helper process failed: {report}")
    return DigitCounts(system, *report)


def _added(first: DigitCounts, second: DigitCounts) -> DigitCounts:
    """The counts of two parts of one input in order: zero-value first, then by first occurrence."""
    counts = tuple(map(sum, zip(first.counts, second.counts)))
    skips = dict(Counter(first.skip_reasons) + Counter(second.skip_reasons))
    if SKIP_ZERO in skips:
        skips = {SKIP_ZERO: skips.pop(SKIP_ZERO), **skips}
    return DigitCounts(first.system, counts, skips)


def _while_heard(blocks: Iterable[str], fd: int) -> Iterator[str]:
    """`blocks`, until the process that reads the pipe written by `fd` has closed it.

    A helper that reads its own blocks so stops at the next block once the
    calling process has stopped, by an error or an interrupt.
    """
    poller = select.poll()
    poller.register(fd, 0)  # only a hang-up or an error is reported
    for block in blocks:
        if poller.poll(0):
            return
        yield block


def _received(pipe: BinaryIO) -> Iterator[str]:
    """The blocks that `_count_in_helper` writes to `pipe`, in order, until the pipe ends."""
    while size := int.from_bytes(pipe.read(8), "little"):
        yield pipe.read(size).decode("utf-8", "surrogatepass")
