import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from benfordsev import digits
from benfordsev.digits import (
    FIRST_DIGIT,
    FIRST_TWO_DIGITS,
    ColumnError,
    DigitCounts,
    DigitSystem,
    _valid_chunks,
    count_digits,
    first_digit,
    first_two_digits,
    ingest,
    parse_records,
)

SCHEMES = [FIRST_DIGIT, FIRST_TWO_DIGITS]


class TestDigitSystem:
    def test_first_digit_scheme(self):
        assert FIRST_DIGIT.k == 9
        assert FIRST_DIGIT.digit_labels == tuple(range(1, 10))

    def test_first_two_scheme(self):
        assert FIRST_TWO_DIGITS.k == 90
        assert FIRST_TWO_DIGITS.digit_labels == tuple(range(10, 100))

    def test_from_digits(self):
        assert DigitSystem(1) == FIRST_DIGIT
        assert DigitSystem(2) == FIRST_TWO_DIGITS
        with pytest.raises(ValueError):
            DigitSystem(3)


class TestFirstDigit:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("0.00456", 4),
            ("-19451", 1),
            ("0", None),
            ("0.000", None),
            ("-0.0", None),
            ("1.9451e4", 1),
            ("5e-3", 5),
            (".7", 7),
            ("+3.2", 3),
            ("9E2", 9),
        ],
    )
    def test_extraction(self, token, expected):
        assert first_digit(token) == expected

    def test_float_input_uses_decimal_text(self):
        assert first_digit(0.1) == 1
        assert first_digit(-0.00456) == 4
        assert first_digit(12345) == 1

    @pytest.mark.parametrize("token, first, first_two", [
        (199999999999999999, 1, 19),  # float(x) rounds it up to 2e17
        (-199999999999999999, 1, 19),
        (10**400, 1, 10),  # beyond the float range
        (10**5000, 1, 10),  # beyond str()'s default limit of 4300 digits
        (-(19 * 10**5000 + 7), 1, 19),
        (True, 1, 10),
        (0, None, None),
    ], ids=["2e17-1", "-(2e17-1)", "10**400", "10**5000", "-(19e5000+7)", "True", "0"])
    def test_integers_are_read_exactly(self, token, first, first_two):
        assert first_digit(token) == first
        assert first_two_digits(token) == first_two

    @given(st.integers(-(10**4000), 10**4000))
    def test_integers_read_as_their_decimal_text(self, value):
        for scheme in SCHEMES:
            assert scheme.extract(value) == scheme.extract(str(value))

    def test_numpy_integers_are_read_exactly(self):
        np = pytest.importorskip("numpy")
        assert first_digit(np.int64(1999999999999999999)) == 1
        assert first_two_digits(np.int64(1999999999999999999)) == 19
        assert first_two_digits(np.uint64(2**64 - 1)) == 18

    @pytest.mark.parametrize("token", ["abc", "", "1.2.3", "nan", "inf", "1e", "--5",
                                       None, 1j, object()])
    def test_parse_errors(self, token):
        with pytest.raises(ValueError):
            first_digit(token)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("token", ["\u0660.\u0665", "\u0665", "1\u0665", "\uff15"])
    def test_only_ascii_digits_count(self, scheme, token):
        with pytest.raises(ValueError):
            scheme.extract(token)


class TestFirstTwoDigits:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("0.00456", 45),
            ("5", 50),
            ("99.1", 99),
            ("0.5", 50),
            ("50", 50),
            ("1.05e6", 10),
            ("0", None),
        ],
    )
    def test_extraction(self, token, expected):
        assert first_two_digits(token) == expected


@st.composite
def digit_strings(draw):
    """A nonzero decimal string with a decimal point at a random position."""
    digits = draw(st.text(alphabet="0123456789", min_size=1, max_size=12))
    digits += draw(st.sampled_from("123456789"))  # ensure nonzero
    point = draw(st.integers(min_value=0, max_value=len(digits)))
    sign = draw(st.sampled_from(["", "-", "+"]))
    return sign + digits[:point] + "." + digits[point:], sign + digits


class TestExtractionProperties:
    @given(digit_strings())
    def test_decimal_point_position_is_irrelevant(self, pair):
        with_point, without_point = pair
        assert first_digit(with_point) == first_digit(without_point)
        assert first_two_digits(with_point) == first_two_digits(without_point)

    @given(digit_strings())
    def test_first_two_consistent_with_first(self, pair):
        token, _ = pair
        assert first_two_digits(token) // 10 == first_digit(token)


# The grammar before it was made linear: `[0-9]+` and `[0-9]*` can split one
# run of digits, so a failed match backtracks in quadratic time.
OLD_NUMERIC = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# The numeric first field of each line: the grammar at a line's start, up to
# whitespace or the line's end.
OLD_FIRST_FIELDS_RE = re.compile(rf"^{OLD_NUMERIC}(?!\S)", re.MULTILINE)
grammar_texts = st.text(alphabet="0123456789.+-eEx \t", max_size=16)


class TestNumericGrammar:
    @given(grammar_texts)
    def test_matches_the_old_grammar(self, text):
        assert bool(digits._NUMERIC_RE.fullmatch(text)) == bool(re.fullmatch(OLD_NUMERIC, text))

    @given(st.lists(grammar_texts, max_size=8))
    def test_first_fields_match_the_old_grammar(self, lines):
        # Text lines as they stand, some indented or blank, against the old
        # grammar on the stripped non-blank lines.
        found = digits._LINE_RUNS_RE.findall("".join(line + "\n" for line in lines))
        valid = [line for line in "".join(found).split("\n")[:-1] if line]
        stripped = [line.strip() for line in lines if line.strip()]
        old = OLD_FIRST_FIELDS_RE.findall("".join(line + "\n" for line in stripped))
        assert [line.split(None, 1)[0] for line in valid] == old
        assert found.count("") == len(stripped) - len(old)
        assert found.count("\n") == len(lines) - len(stripped)
        # Cells, stripped as the reader strips them, against the old grammar
        # on each cell, with a blank cell counted as empty.
        cells = [line.strip() for line in lines]
        found = digits._CELL_RUNS_RE.findall("".join(cell + "\n" for cell in cells))
        valid = [cell for cell in "".join(found).split("\n")[:-1] if cell]
        old = [cell for cell in cells if re.fullmatch(OLD_NUMERIC, cell)]
        assert valid == old
        assert found.count("\n") == cells.count("")
        assert found.count("") == len(cells) - cells.count("") - len(old)

    @pytest.mark.parametrize("text", [
        "5\n" + "9" * 30_000 + "x\n",
        "amount,id\n5,1\n" + "9" * 30_000 + "x,2\n",
    ], ids=["text", "csv"])
    def test_long_digit_run_is_skipped_in_linear_time(self, tmp_path, text):
        # The old grammar took tens of seconds on such a cell: the timeout fails it.
        f = tmp_path / "junk.txt"
        f.write_text(text)
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "benfordsev.cli", "analyze", str(f), "--format", "json"],
            capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["n"] == 1 and report["skip_reasons"] == {"non-numeric": 1}


class TestParseRecords:
    def test_plain_lines(self):
        tokens, skips = parse_records(io.StringIO("12.5\n-0.034\nabc\n"))
        assert tokens == ["12.5", "-0.034"]
        assert skips == {"non-numeric": 1}

    def test_csv_with_named_column_keeps_zero(self):
        tokens, skips = parse_records(io.StringIO("amt\n5\n0\n"), column="amt")
        assert tokens == ["5", "0"]
        assert skips == {}

    def test_exponent_notation_admitted(self):
        tokens, _ = parse_records(io.StringIO("1.9451e4\n"))
        assert tokens == ["1.9451e4"]

    def test_csv_column_by_index(self):
        src = io.StringIO("id,amt\n1,2.5\n2,7\n")
        tokens, _ = parse_records(src, column=1)
        assert tokens == ["2.5", "7"]

    def test_header_autodetected_for_index_column(self):
        tokens, skips = parse_records(io.StringIO("amount\n3\n4\n"))
        assert tokens == ["3", "4"]
        assert skips == {}  # the header row is not a skipped record

    def test_headerless_numeric_first_row_is_data(self):
        tokens, _ = parse_records(io.StringIO("3\n4\n"))
        assert tokens == ["3", "4"]

    def test_missing_named_column(self):
        with pytest.raises(ColumnError):
            parse_records(io.StringIO("a,b\n1,2\n"), column="amount")

    def test_negative_column_index(self):
        with pytest.raises(ColumnError, match=r"^column index must be nonnegative, got -1$"):
            parse_records(io.StringIO("1\n"), column=-1)

    def test_empty_cells_reported(self):
        tokens, skips = parse_records(io.StringIO("x,y\n1,\n,2\n"), column="y")
        assert tokens == ["2"]
        assert skips == {"empty": 1}

    def test_whitespace_delimited(self):
        tokens, _ = parse_records(io.StringIO("1.5  2.5\n3.5 4.5\n"), column=1)
        assert tokens == ["2.5", "4.5"]

    def test_whitespace_text_reads_the_first_field(self):
        tokens, skips = parse_records(io.StringIO("1.5 a\n2.5\n\t\nx 3\n  4.5\x0cb\n"))
        assert tokens == ["1.5", "2.5", "4.5"]
        assert skips == {"non-numeric": 1}

    def test_decimal_mark_option(self):
        tokens, _ = parse_records(io.StringIO("3,14\n2,7\n"), delimiter=";", decimal_mark=",")
        assert tokens == ["3.14", "2.7"]

    def test_decimal_comma_is_never_sniffed_as_delimiter(self):
        tokens, skips = parse_records(io.StringIO("0,05\n1,5\n2,5\n"), decimal_mark=",")
        assert tokens == ["0.05", "1.5", "2.5"]
        assert skips == {}

    @pytest.mark.parametrize("mark", [",", ";"])
    def test_delimiter_equal_to_decimal_mark_is_refused(self, mark):
        with pytest.raises(ValueError, match="decimal mark"):
            parse_records(io.StringIO("0,05\n1,5\n2,5\n"), delimiter=mark, decimal_mark=mark)

    @pytest.mark.parametrize("name", ["delimiter", "decimal_mark"])
    @pytest.mark.parametrize("mark", ["0", "5", "+", "-", "e", "E"])
    def test_mark_that_a_number_can_hold_is_refused(self, name, mark):
        # With "0" as the decimal mark, "105" would read as 1.5.
        with pytest.raises(ValueError, match=f"{name.replace('_', ' ')} must not be a digit"):
            parse_records(io.StringIO("105\n205\n305\n"), **{name: mark})

    def test_quoted_thousands_separator_is_non_numeric(self):
        tokens, skips = parse_records(io.StringIO('amt\n"1,234"\n5\n'), column="amt")
        assert tokens == ["5"]
        assert skips == {"non-numeric": 1}

    def test_non_ascii_digits_are_non_numeric(self):
        tokens, skips = parse_records(io.StringIO("7\n\u0660.\u0665\n"))
        assert tokens == ["7"]
        assert skips == {"non-numeric": 1}

    def test_skip_reasons_keep_order_of_first_occurrence(self):
        cases = [
            # Both reasons first seen in one chunk, in either order.
            ("x,y\n1,n/a\n2,\n3,\n", {"non-numeric": 1, "empty": 2}),
            ("x,y\n1,\n2,n/a\n", {"empty": 1, "non-numeric": 1}),
            # A chunk that starts with an empty cell, after one that does not.
            ("x,y\n1,5\n2,\n3,x\n4,\n", {"empty": 2, "non-numeric": 1}),
            # Reasons first seen in different chunks.
            ("x,y\n1,x\n2,5\n3,6\n4,\n", {"non-numeric": 1, "empty": 1}),
            ("x,y\n1,\n2,5\n3,6\n4,x\n", {"empty": 1, "non-numeric": 1}),
        ]
        for chunk in (1, 2, 3):
            with small_chunks(chunk):
                for text, skips in cases:
                    _, parse_skips = parse_records(io.StringIO(text), column="y")
                    assert list(parse_skips.items()) == list(skips.items())
                # A text block that starts with blank lines, which are not records.
                for source in ("5\n\n\n \t\nn/a\n\n7\n", ["5\n", "\n", " \n", "n/a\n", "\n", "7\n"]):
                    assert parse_records(source) == (["5", "7"], {"non-numeric": 1})

    def test_line_holding_a_line_break_is_read_by_its_first_field(self):
        tokens, skips = parse_records(["1\n2 x\n", "x 3\n", "4,5\n"], decimal_mark=",")
        assert tokens == ["1", "4.5"] and skips == {"non-numeric": 1}

    def test_csv_item_holding_a_line_break_is_a_value_error(self):
        # Sniffed as CSV, csv.reader refuses an item that holds two lines.
        for read in (parse_records, lambda source: ingest(source, FIRST_DIGIT)):
            with pytest.raises(ValueError, match="malformed CSV") as raised:
                read(["amount id\n1,234\n"])
            assert isinstance(raised.value.__cause__, csv.Error)
        assert parse_records(["amount id\n1 234\n"]) == ([], {})

    def test_sniff_reads_lazily(self):
        source = iter(["\n", "1,2\n", "3,4\n", "5,6\n"])
        with mock.patch.object(digits, "_CHUNK", 1):
            chunks = _valid_chunks(source, None, None, ".", {})
            # The comma is sniffed: the first chunk holds the first row's first cell.
            assert next(chunks) == ["1"]
            # Only the lines up to the first non-blank one are read ahead.
            assert next(source) == "3,4\n"
            assert list(chunks) == [["5"]]


class TestDigitCounts:
    def test_n_and_skipped_are_derived(self):
        counts = DigitCounts(system=FIRST_DIGIT, counts=(3, 0, 1, 0, 0, 0, 0, 0, 2))
        assert counts.n == sum(counts.counts) == 6
        assert counts.skipped == 0
        counts.skip_reasons["empty"] = 4
        counts.skip_reasons["zero-value"] = 1
        assert counts.skipped == 5
        del counts.skip_reasons["empty"]
        assert counts.skipped == 1


class TestCountDigits:
    def test_zero_skipped_at_extraction(self):
        counts = count_digits(["1", "2", "0"], FIRST_DIGIT)
        assert counts.counts[0] == 1 and counts.counts[1] == 1
        assert counts.n == 2
        assert counts.skipped == 1
        assert counts.skip_reasons == {"zero-value": 1}

    def test_repeated_token(self):
        counts = count_digits(["3.14"] * 1000, FIRST_DIGIT)
        assert counts.counts[2] == 1000
        assert counts.n == 1000

    def test_shared_significand_start(self):
        counts = count_digits(["5", "0.5", "50"], FIRST_TWO_DIGITS)
        assert counts.counts[FIRST_TWO_DIGITS.digit_labels.index(50)] == 3
        assert counts.n == 3

    def test_unparseable_tokens_tallied(self):
        counts = count_digits(["7", "bogus"], FIRST_DIGIT)
        assert counts.n == 1
        assert counts.skip_reasons == {"non-numeric": 1}

    def test_integers_are_read_exactly(self):
        counts = count_digits([199999999999999999, 10**400, 0], FIRST_TWO_DIGITS)
        assert counts.counts[FIRST_TWO_DIGITS.digit_labels.index(19)] == 1
        assert counts.counts[FIRST_TWO_DIGITS.digit_labels.index(10)] == 1
        assert counts.n == 2 and counts.skip_reasons == {"zero-value": 1}

    def test_integers_beyond_the_str_limit_are_counted(self):
        counts = count_digits([10**5000, "1", 0], FIRST_DIGIT)
        assert counts.counts[0] == 2
        assert counts.n == 2 and counts.skip_reasons == {"zero-value": 1}

    @given(st.permutations(["1", "22", "0.3", "47", "5", "0", "61", "7.7", "88", "9"]))
    def test_permutation_invariance(self, tokens):
        reference = count_digits(sorted(tokens), FIRST_DIGIT)
        shuffled = count_digits(tokens, FIRST_DIGIT)
        assert shuffled.counts == reference.counts
        assert shuffled.n == reference.n
        assert shuffled.skip_reasons == reference.skip_reasons


class TestIngest:
    def test_merges_parse_and_extraction_skips(self):
        src = io.StringIO("amt\n5\n0\nabc\n\n")
        counts = ingest(src, FIRST_DIGIT, column="amt")
        assert counts.n == 1
        assert counts.skip_reasons == {"zero-value": 1, "non-numeric": 1}
        assert counts.skipped == 2

    def test_invariant_counts_sum_to_n(self):
        src = io.StringIO("1\n2\n3\n0\nx\n")
        counts = ingest(src, FIRST_DIGIT)
        assert sum(counts.counts) == counts.n == 3

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_non_ascii_digit_cell_is_skipped(self, scheme):
        counts = ingest(io.StringIO("amount\n\u0660.\u0665\n"), scheme, column="amount")
        assert counts.n == 0 and sum(counts.counts) == 0
        assert counts.skip_reasons == {"non-numeric": 1}

    def test_delimiter_equal_to_decimal_mark_is_refused(self):
        with pytest.raises(ValueError):
            ingest(io.StringIO("0,05\n1,5\n"), FIRST_TWO_DIGITS, delimiter=",", decimal_mark=",")

    def test_decimal_comma_first_two_digits(self):
        counts = ingest(io.StringIO("0,05\n1,5\n2,5\n"), FIRST_TWO_DIGITS, decimal_mark=",")
        assert counts.n == 3 and counts.skipped == 0
        labels = [label for label, c in zip(FIRST_TWO_DIGITS.digit_labels, counts.counts) if c]
        assert labels == [15, 25, 50]

    def test_each_cell_is_matched_once(self, monkeypatch):
        calls = []

        class CountingPattern:
            def fullmatch(self, text):
                calls.append(text)
                return pattern.fullmatch(text)

        pattern = digits._NUMERIC_RE
        monkeypatch.setattr(digits, "_NUMERIC_RE", CountingPattern())
        cells = ["12.5", " 0.034 "] * 1000
        for delimiter in (None, ","):
            calls.clear()
            text = "amount\n" + "\n".join(cells) + "\n"
            counts = ingest(io.StringIO(text), FIRST_DIGIT, delimiter=delimiter)
            assert counts.n == 2000 and counts.counts[0] == counts.counts[2] == 1000
            # Cells are checked by the run patterns: the cell grammar alone
            # checks the header and one head per distinct head.
            assert len(calls) <= 1 + 2
        calls.clear()
        counts = count_digits(cells, FIRST_DIGIT)
        assert counts.n == 2000 and counts.counts[0] == counts.counts[2] == 1000
        # count_digits checks its values as cells are checked, with no header.
        assert len(calls) <= 2

    @pytest.mark.parametrize("newline", ["str", "str-crlf", "StringIO", "\n", "", None],
                             ids=["str", "str-crlf", "StringIO", "newline-lf", "newline-empty",
                                  "newline-none"])
    def test_each_text_line_is_matched_once(self, monkeypatch, tmp_path, newline):
        calls = []
        texts = []

        class CountingPattern:
            def fullmatch(self, text):
                calls.append(text)
                return pattern.fullmatch(text)

        class CountingLinesPattern:
            def findall(self, text):
                texts.append(text)
                return lines_pattern.findall(text)

        pattern, lines_pattern = digits._NUMERIC_RE, digits._LINE_RUNS_RE
        monkeypatch.setattr(digits, "_NUMERIC_RE", CountingPattern())
        monkeypatch.setattr(digits, "_LINE_RUNS_RE", CountingLinesPattern())
        clean = [f"{i}.5" for i in range(100, 1100)]
        multi = [" " * (i % 3) + f"{i}.25 \tn/a" if i % 2 else f"n/a{i}\x0c7"
                 for i in range(100, 1100)]
        lines = []
        for i, pair in enumerate(zip(clean, multi)):
            lines += [*pair, "", " \t"] if i % 10 == 0 else pair
        text = "".join(line + "\n" for line in lines)
        # The source: a str, a str with "\r\n" line ends, a default StringIO,
        # or a file opened with `newline`.
        if newline == "str":
            source = nullcontext("amount id\n" + text)
        elif newline == "str-crlf":
            text = text.replace("\n", "\r\n")
            source = nullcontext("amount id\r\n" + text)
        elif newline == "StringIO":
            source = io.StringIO("amount id\n" + text)
        else:
            path = tmp_path / "input.txt"
            path.write_text("amount id\n" + text, encoding="utf-8")
            source = open(path, encoding="utf-8", newline=newline)
        with source as s, small_chunks(64):
            counts = ingest(s, FIRST_DIGIT)
        assert counts.n == 1000 + 500 and counts.skip_reasons == {"non-numeric": 500}
        # One findall per block of whole lines reads each line once, clean or
        # not, indented or blank; a block is 4 * 64 characters read at once,
        # completed to its line's end.  The cell grammar checks only the
        # header and one head per distinct head.
        assert "".join(texts) == text
        assert all(4 * 64 <= len(block) < 4 * 64 + 16 for block in texts[:-1])
        assert len(calls) <= 1 + 9

    @pytest.mark.parametrize(
        "read, column, readable",
        [(ingest, None, False), (ingest, 1, False), (ingest, None, True), (count_digits, None, False)],
        ids=["text-first-field", "csv-column", "text-first-field-read", "count-digits"],
    )
    def test_peak_memory_does_not_grow_with_the_input(self, read, column, readable):
        def peak(chunks):
            # Distinct values, made one line at a time as they are read.
            values = (f"{i % 97 + 1}.{i:06d}" for i in range(chunks * 1000))
            lines = (f"{i},{v}\n" if column else f"{v}\n" for i, v in enumerate(values))
            tracemalloc.start()
            try:
                with small_chunks(1000):
                    if read is count_digits:
                        counts = count_digits(values, FIRST_TWO_DIGITS)
                    else:
                        source = GeneratedText(lines) if readable else lines
                        counts = ingest(source, FIRST_TWO_DIGITS, column)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert counts.n == chunks * 1000
            return peak

        # Held tokens would make 50 chunks cost ~20 times what 2 do.
        assert peak(50) <= 1.5 * peak(2)


# Differential tests: the batched ingestion against a per-token loop over
# DigitSystem.extract that applies the skip rules one cell at a time.


def reference_count(tokens, system):
    """Per-token tally: (counts, skip reasons in order of first occurrence)."""
    counts = [0] * system.k
    skips = {}
    for token in tokens:
        try:
            label = system.extract(token)
        except ValueError:
            reason = "non-numeric"
        else:
            if label is not None:
                counts[system.digit_labels.index(label)] += 1
                continue
            reason = "zero-value"
        skips[reason] = skips.get(reason, 0) + 1
    return counts, skips


def reference_ingest(text, system, column=None, delimiter=None, decimal_mark="."):
    """Per-row ingestion of `text` with full row splits and per-cell extraction."""
    lines = list(io.StringIO(text))
    nonblank = [line for line in lines if line.strip()]
    if delimiter is None and nonblank and "," in nonblank[0] and decimal_mark != ",":
        delimiter = ","
    if delimiter is None:
        rows = [line.split() for line in nonblank]
    else:
        rows = [row for row in csv.reader(lines, delimiter=delimiter) if row]
    if not rows:
        return [0] * system.k, {}

    def cell(row):
        value = row[index].strip() if index < len(row) else ""
        return value.replace(decimal_mark, ".")

    if isinstance(column, str):
        index = [name.strip() for name in rows[0]].index(column)
        rows = rows[1:]
    else:
        index = column or 0
        try:
            if cell(rows[0]):
                system.extract(cell(rows[0]))
        except ValueError:
            rows = rows[1:]  # a non-numeric first cell is a header
    counts = [0] * system.k
    zeros = 0
    parse_skips = {}
    for row in rows:
        value = cell(row)
        reason = "empty"
        if value:
            try:
                label = system.extract(value)
            except ValueError:
                reason = "non-numeric"
            else:
                if label is None:
                    zeros += 1
                else:
                    counts[system.digit_labels.index(label)] += 1
                continue
        parse_skips[reason] = parse_skips.get(reason, 0) + 1
    # ingest lists extraction skips (zeros) before the parsing skips.
    skips = {"zero-value": zeros} if zeros else {}
    skips.update(parse_skips)
    return counts, skips


@st.composite
def numeric_texts(draw):
    """Decimal text with optional sign, leading zeros or dot, and exponent; not always valid."""
    sign = draw(st.sampled_from(["", "+", "-", "--"]))
    whole = draw(st.sampled_from(["", "0", "00"])) + draw(st.text("0123456789", max_size=4))
    point = draw(st.sampled_from(["", ".", "."]))
    frac = draw(st.text("0123456789", max_size=4))
    exponent = draw(st.sampled_from(["", "", "e5", "E-3", "e+07", "e0", "e"]))
    return sign + whole + point + frac + exponent


JUNK = ["", "n/a", "abc", "1.2.3", "1e", "inf", "nan", "1_000", "0x10",
        "\u0665", "\u0660.\u0665", "\u00bd", "1,234", '"q"', "1.e5", "0e5", ".5", "00.05"]
padding = st.sampled_from(["", " ", "\t", "  "])
cell_texts = st.tuples(padding, st.one_of(numeric_texts(), st.sampled_from(JUNK)), padding).map(
    "".join
)


@st.composite
def whitespace_lines(draw):
    """A line of cells joined by mixed whitespace, or a line of whitespace only."""
    separators = st.sampled_from([" ", "\t", "  ", "\x0c", "\x1c"])
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return draw(st.lists(separators, max_size=3).map("".join))
    cells = draw(st.lists(cell_texts, min_size=1, max_size=4))
    return cells[0] + "".join(draw(separators) + cell for cell in cells[1:])


class GeneratedText:
    """A readable text source that makes its lines only as they are read.

    Its lines end at "\\n" alone, and it says so as a file opened in
    universal-newline mode does, so the reader takes it in blocks.
    """

    newlines = "\n"

    def __init__(self, lines):
        self._lines = iter(lines)
        self._buffer = ""

    def read(self, size):
        parts, length = [self._buffer], len(self._buffer)
        while length < size and (line := next(self._lines, "")):
            parts.append(line)
            length += len(line)
        text = "".join(parts)
        self._buffer = text[size:]
        return text[:size]

    def readline(self):
        if "\n" not in self._buffer:
            self._buffer += next(self._lines, "")
        end = self._buffer.find("\n") + 1 or len(self._buffer)
        line, self._buffer = self._buffer[:end], self._buffer[end:]
        return line

    def __iter__(self):
        return iter(self.readline, "")


def small_chunks(chunk):
    """Run the batched code with `chunk` cells or tokens per batch."""
    return mock.patch.object(digits, "_CHUNK", chunk)


class TestBatchedIngestionMatchesPerTokenLoop:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @given(
        tokens=st.lists(
            st.one_of(
                cell_texts,
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(min_value=-(10**12), max_value=10**12),
                st.none(),
                st.complex_numbers(),
            ),
            max_size=40,
        ),
        chunk=st.integers(min_value=1, max_value=8),
    )
    def test_count_digits(self, scheme, tokens, chunk):
        with small_chunks(chunk):
            result = count_digits(tokens, scheme)
        counts, skips = reference_count(tokens, scheme)
        # count_digits lists zero values before non-numeric tokens.
        ordered = sorted(skips.items(), key=lambda item: item[0] != "zero-value")
        assert list(result.counts) == counts
        assert list(result.skip_reasons.items()) == ordered
        assert result.n == sum(counts) and result.skipped == sum(skips.values())

    @pytest.mark.parametrize("scheme", SCHEMES)
    @given(
        rows=st.lists(st.lists(cell_texts, max_size=4), max_size=30),
        column=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        header=st.booleans(),
        chunk=st.integers(min_value=1, max_value=8),
    )
    def test_ingest_csv(self, scheme, rows, column, header, chunk):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if header:
            writer.writerow(["amount", "id", "x", "y"])
        writer.writerows(rows)
        column = "x" if header and column == 2 else column
        text = buffer.getvalue()
        with small_chunks(chunk):
            result = ingest(io.StringIO(text), scheme, column, delimiter=",")
        counts, skips = reference_ingest(text, scheme, column, delimiter=",")
        assert list(result.counts) == counts
        assert list(result.skip_reasons.items()) == list(skips.items())

    @pytest.mark.parametrize("scheme", SCHEMES)
    @given(
        lines=st.lists(whitespace_lines(), max_size=30),
        header=st.booleans(),
        column=st.sampled_from([None, 0, 1, 2, 3, "amount"]),
        decimal_mark=st.sampled_from([".", ","]),
        chunk=st.integers(min_value=1, max_value=8),
    )
    def test_ingest_sniffed_text(self, scheme, lines, header, column, decimal_mark, chunk):
        if header:
            lines = ["amount\t id", *lines]
        elif column == "amount":
            column = None
        text = "".join(line + "\n" for line in lines)
        with small_chunks(chunk):
            result = ingest(io.StringIO(text), scheme, column, decimal_mark=decimal_mark)
        counts, skips = reference_ingest(text, scheme, column, decimal_mark=decimal_mark)
        assert list(result.counts) == counts
        assert list(result.skip_reasons.items()) == list(skips.items())

    @given(
        rows=st.lists(
            st.tuples(st.text("0123456789", min_size=1, max_size=3),
                      st.text("0123456789", max_size=3), cell_texts),
            max_size=30,
        ),
        chunk=st.integers(min_value=1, max_value=8),
    )
    def test_ingest_decimal_comma(self, rows, chunk):
        text = "".join(f"{whole},{frac};{junk}\n" for whole, frac, junk in rows)
        for column in (0, 1):
            with small_chunks(chunk):
                result = ingest(io.StringIO(text), FIRST_TWO_DIGITS, column,
                                delimiter=";", decimal_mark=",")
            counts, skips = reference_ingest(text, FIRST_TWO_DIGITS, column,
                                             delimiter=";", decimal_mark=",")
            assert list(result.counts) == counts
            assert list(result.skip_reasons.items()) == list(skips.items())

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_more_than_one_full_chunk(self, scheme):
        values = ["0.00456", "-19451", "0", "n/a", "", " 1.e5", "0e5", "7.0", "9E2", "x"]
        lines = [values[i % len(values)] + "\n" for i in range(2 * digits._CHUNK + 7)]
        result = ingest(lines, scheme)
        counts, skips = reference_ingest("".join(lines), scheme)
        assert list(result.counts) == counts
        assert list(result.skip_reasons.items()) == list(skips.items())


# Differential test of the reader: parse_records and ingest against the
# reader as it was before the run patterns, which checked one cell or line
# at a time with the old grammar.


def old_parse_records(source, column=None, delimiter=None, decimal_mark="."):
    """Tokens and skip reasons with one old-grammar check per stripped cell or line."""
    lines = list(io.StringIO(source) if isinstance(source, str) else source)
    nonblank = [line.strip() for line in lines if line.strip()]
    if delimiter is None and nonblank and "," in nonblank[0] and decimal_mark != ",":
        delimiter = ","
    if delimiter is None:
        rows = [line.split() for line in nonblank]
    else:
        rows = [row for row in csv.reader(lines, delimiter=delimiter) if row]
    if not rows:
        return [], {}

    def cell(row):
        return (row[index].strip() if index < len(row) else "").replace(decimal_mark, ".")

    if isinstance(column, str):
        index, header = [name.strip() for name in rows[0]].index(column), True
    else:
        index = column or 0
        header = bool(cell(rows[0])) and not re.fullmatch(OLD_NUMERIC, cell(rows[0]))
    tokens, skips = [], {}
    if delimiter is None and index == 0:
        # Each line's first field; a line holding a line break is cut to it first.
        for line in nonblank[header:]:
            line = (line.split(None, 1)[0] if "\n" in line else line).replace(decimal_mark, ".")
            field = OLD_FIRST_FIELDS_RE.match(line)
            if field:
                tokens.append(field.group())
            else:
                skips["non-numeric"] = skips.get("non-numeric", 0) + 1
    else:
        for value in map(cell, rows[header:]):
            if value and re.fullmatch(OLD_NUMERIC, value):
                tokens.append(value)
            else:
                reason = "non-numeric" if value else "empty"
                skips[reason] = skips.get(reason, 0) + 1
    return tokens, skips


ZERO_CELLS = ["0", "-0.0", "+00", "0e5", ".0", "0.", "-0E-3"]
BREAK_CELLS = ["1\n2", "5\n", "\n", "x\n7", " 3.5 \n "]


LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def reader_inputs(draw):
    """(text, items, column, delimiter, decimal mark): text or CSV with every kind of cell.

    Lines end with "\n", "\r\n" or a lone "\r", and the last may have no
    line break.  `items` are the lines that a file opened with newline=""
    yields, some grouped into items that hold several lines.
    """
    decimal_mark = draw(st.sampled_from([".", ","]))

    def cell(extra=()):
        text = draw(st.one_of(cell_texts, st.sampled_from([*ZERO_CELLS, *extra])))
        return text.replace(".", decimal_mark) if draw(st.booleans()) else text

    header = draw(st.booleans())
    count = draw(st.integers(min_value=0, max_value=20))
    if draw(st.booleans()):
        # Whitespace-delimited lines, some with trailing fields, some
        # indented, and some blank or whitespace only.
        separators = st.sampled_from([" ", "\t", "  ", "\x0c", "\x1c"])
        indents = st.sampled_from(["", "", " ", "\t", "\x0c "])
        lines = ["amount id"] if header else []
        for _ in range(count):
            cells = [cell() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
            lines.append(draw(indents) + "".join(draw(separators) + c for c in cells)[1:])
        column = draw(st.sampled_from([None, 0, 1, "amount"] if header else [None, 0, 1]))
        delimiter = None
    else:
        delimiter = draw(st.sampled_from([";"] if decimal_mark == "," else [",", ";"]))
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        rows = [["amount", "id", "x"]] if header else []
        rows += [[cell(BREAK_CELLS) for _ in range(draw(st.integers(1, 3)))] for _ in range(count)]
        lines = []
        for row in rows:
            buffer = io.StringIO()
            writer = csv.writer(buffer, delimiter=delimiter, quoting=quoting, lineterminator="\n")
            writer.writerow(row)
            lines.append(buffer.getvalue()[:-1])
        column = draw(st.sampled_from([None, 0, 1, "x"] if header else [None, 0, 1]))
        if delimiter == "," and draw(st.booleans()):
            delimiter = None  # sniffed
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    text = "".join(map(str.__add__, lines, ends))
    items = []
    for line in io.StringIO(text, newline=""):
        if items and draw(st.integers(min_value=0, max_value=3)) == 0:
            items[-1] += line
        else:
            items.append(line)
    return text, items, column, delimiter, decimal_mark


class TestReaderMatchesTheOldAlgorithm:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @given(case=reader_inputs(), chunk=st.integers(min_value=1, max_value=7), bom=st.booleans())
    def test_parse_records_and_ingest(self, scheme, case, chunk, bom, tmp_path_factory):
        text, items, column, delimiter, decimal_mark = case
        options = {"delimiter": delimiter, "decimal_mark": decimal_mark}
        path = tmp_path_factory.mktemp("reader") / "input.txt"
        path.write_text("\ufeff" * bom + text, encoding="utf-8", newline="")

        def opened():
            return open(path, encoding="utf-8-sig", newline="")  # as the CLI opens it

        with opened() as fh:
            file_lines = list(fh)
        # Each source, and the lines it yields, which the old reader is given.
        feeds = [
            (lambda: nullcontext(text), list(io.StringIO(text))),
            (lambda: io.StringIO(text), list(io.StringIO(text))),
            (opened, file_lines),
            (lambda: nullcontext(iter(items)), items),
        ]
        # A file opened in any other newline mode is split at its own line ends.
        for newline in ("\r", "\r\n", "\n", None):
            reopened = partial(open, path, encoding="utf-8-sig", newline=newline)
            with reopened() as fh:
                feeds.append((reopened, list(fh)))
        for source, lines in feeds:
            try:
                tokens, skips = old_parse_records(lines, column, delimiter, decimal_mark)
            except csv.Error:
                # csv.reader refuses these lines: the reader raises ValueError from its error.
                for read in (parse_records, partial(ingest, system=scheme)):
                    with source() as s, small_chunks(chunk), pytest.raises(ValueError) as raised:
                        read(s, column=column, **options)
                    assert isinstance(raised.value.__cause__, csv.Error)
                continue
            with small_chunks(chunk):
                with source() as s:
                    parsed, parse_skips = parse_records(s, column, **options)
                with source() as s:
                    result = ingest(s, scheme, column, **options)
            assert parsed == tokens
            assert list(parse_skips.items()) == list(skips.items())
            counts, zeros = reference_count(tokens, scheme)
            zeros.update(skips)  # ingest lists zero values before the parse skips
            assert list(result.counts) == counts
            assert list(result.skip_reasons.items()) == list(zeros.items())
