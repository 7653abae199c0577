import _thread
import csv
import importlib.util
import io
import json
import marshal
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import dropwhile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from benfordsev import digits
from benfordsev.cli import main
from benfordsev.digits import (
    FIRST_DIGIT,
    FIRST_TWO_DIGITS,
    ColumnError,
    DigitCounts,
    DigitSystem,
    _valid_blocks,
    count_digits,
    first_digit,
    first_two_digits,
    ingest,
    parse_records,
)

SCHEMES = [FIRST_DIGIT, FIRST_TWO_DIGITS]


@contextmanager
def live_thread():
    """Keep a second thread alive, which makes ingest count every input in this process."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=60)
        assert not thread.is_alive()


def spied_helper():
    """Spy on `digits._count_in_helper`, which forks the counting helper."""
    return mock.patch.object(digits, "_count_in_helper", wraps=digits._count_in_helper)


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

    @pytest.mark.parametrize("digits", [2.0, 1.0, "2"])
    def test_digits_that_are_not_integers_are_refused(self, digits):
        # 2.0 would equal FIRST_TWO_DIGITS, and share its cache entries, with k = 90.0.
        with pytest.raises(ValueError, match="digits must be 1 or 2"):
            DigitSystem(digits)

    @pytest.mark.parametrize("digits, expected", [(True, 1), (np.int64(2), 2)])
    def test_integer_likes_are_stored_as_int(self, digits, expected):
        system = DigitSystem(digits)
        assert system.digits == expected and type(system.digits) is int


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
# Values whose leading digits follow a sign, zeros or a point: the only
# tokens that the tally's strip changes.  Every other valid token starts with 1-9.
STRIPPED_VALUES = ["-0.0312", "+5", ".7", "007", "0e5", "0"]
nonzero_led = st.from_regex(r"[1-9][0-9]{0,3}(?:\.[0-9]{0,3})?(?:[eE][+-]?[0-9]{1,2})?",
                            fullmatch=True)


class TestNumericGrammar:
    @given(grammar_texts)
    def test_matches_the_old_grammar(self, text):
        assert bool(digits._NUMERIC_RE.fullmatch(text)) == bool(re.fullmatch(OLD_NUMERIC, text))

    @staticmethod
    def check_run_pairs(found):
        # Each match fills one group at most: a run of 1-9-led lines or a
        # blank line, or a run that starts at a line with something to strip.
        for led, to_strip in found:
            assert not (led and to_strip)
            assert led == "\n" or all(line[:1] in "123456789" for line in led.split("\n")[:-1])
            assert to_strip[:1] in ("", "+", "-", "0", ".")

    @given(st.lists(grammar_texts, max_size=8))
    def test_first_fields_match_the_old_grammar(self, lines):
        # Text lines as they stand, some indented or blank, against the old
        # grammar on the stripped non-blank lines.
        found = digits._LINE_RUNS_RE.findall("".join(line + "\n" for line in lines))
        self.check_run_pairs(found)
        valid = [line for line in "".join(map("".join, found)).split("\n")[:-1] if line]
        stripped = [line.strip() for line in lines if line.strip()]
        old = OLD_FIRST_FIELDS_RE.findall("".join(line + "\n" for line in stripped))
        assert [line.split(None, 1)[0] for line in valid] == old
        assert found.count(("", "")) == len(stripped) - len(old)
        assert found.count(("\n", "")) == len(lines) - len(stripped)
        # Cells, stripped as the reader strips them, against the old grammar
        # on each cell, with a blank cell counted as empty.
        cells = [line.strip() for line in lines]
        found = digits._CELL_RUNS_RE.findall("".join(cell + "\n" for cell in cells))
        self.check_run_pairs(found)
        valid = [cell for cell in "".join(map("".join, found)).split("\n")[:-1] if cell]
        old = [cell for cell in cells if re.fullmatch(OLD_NUMERIC, cell)]
        assert valid == old
        assert found.count(("\n", "")) == cells.count("")
        assert found.count(("", "")) == len(cells) - cells.count("") - len(old)

    @given(st.one_of(st.from_regex(OLD_NUMERIC, fullmatch=True), st.sampled_from(STRIPPED_VALUES)),
           st.sampled_from(["", " x", "\t7 y"]))
    def test_a_token_is_1_9_led_exactly_when_it_has_nothing_to_strip(self, token, later):
        # `_tally` counts a run of `_LED` lines as it stands and strips every
        # other run.  A token may keep a text line's later fields.
        text = token + later
        assert bool(re.fullmatch(digits._LED, token)) == (text.lstrip("+-0.") == text)

    @pytest.mark.parametrize("text", [
        "5\n" + "".join(lead + "9" * 30_000 + "x\n" for lead in ("", "-", "0", ".")),
        "amount,id\n5,1\n" + "".join(lead + "9" * 30_000 + "x,2\n" for lead in ("", "-", "0", ".")),
    ], ids=["text", "csv"])
    def test_long_digit_run_is_skipped_in_linear_time(self, tmp_path, text):
        # The old grammar took tens of seconds on such a cell: the timeout
        # fails it.  A line led by a sign, a zero or a point is tried by both
        # run groups before it is skipped.
        f = tmp_path / "junk.txt"
        f.write_text(text)
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "benfordsev.cli", "analyze", str(f), "--format", "json"],
            capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["n"] == 1 and report["skip_reasons"] == {"non-numeric": 4}


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

    @pytest.mark.parametrize("text, delimiter", [
        ("amount,id,amount\n1,5,9\n", None),
        ("amount;id; amount\n1;5;9\n", ";"),
        ("amount id\tamount\n1 5 9\n", None),
        ('" amount ",id,amount\n1,5,9\n', None),
    ], ids=["comma", "semicolon", "whitespace", "quoted"])
    def test_named_column_given_twice(self, text, delimiter):
        # The name is ambiguous once its header cells are stripped.
        with pytest.raises(ColumnError, match=r"^column 'amount' appears 2 times in header \["):
            parse_records(io.StringIO(text), column="amount", delimiter=delimiter)
        # A repeated name that is not the one asked for does not stop it.
        assert parse_records(io.StringIO(text), column="id", delimiter=delimiter) == (["5"], {})

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

    @pytest.mark.parametrize("text", [
        "1,234\n5,678\n98,100\n", "1,5\n2,75\n3,25\n", "1,234.56\n5,678.9\n",
        "\n \n -1,2e5\t\n7\n", "1,5;2,25\n2,75;3,5\n3,25;4,1\n", "1,5\t7\n2,75\t8\n3,25\t9\n",
        "1,5 7\n2,75 8\n3,25 9\n", "1,5;\n2,75;\n3,25;\n", "1,5 .7\n2,75 .8\n3,25 .9\n",
    ])
    def test_sniffed_comma_inside_a_number_is_refused(self, text):
        # Thousands separators, a decimal comma, or two fields: the comma's role
        # is a guess, in one number or in a row of them split, and perhaps
        # ended, by whitespace or ";".
        first = text.strip().split("\n")[0].strip()
        for read in (parse_records, partial(ingest, system=FIRST_TWO_DIGITS)):
            with pytest.raises(ValueError, match="may be one number written with commas") as raised:
                read(io.StringIO(text))
            for quoted in (repr(first), "--delimiter ,", "--column", "--decimal-mark ,"):
                assert quoted in str(raised.value)

    def test_sniffed_comma_after_a_decimal_point_is_a_field_break(self):
        # Not numbers written with commas: read as CSV, as is a comma before a space.
        assert parse_records("1.5,2.5\n3.5,1\n") == (["1.5", "3.5"], {})
        assert parse_records(".5,.7\n.25,1\n") == ([".5", ".25"], {})
        assert parse_records("1, 2\n3, 4\n") == (["1", "3"], {})

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

    def test_str_with_lone_cr_line_ends_is_read_on_every_path(self):
        # A str is split at its line ends as a file opened with newline="" is.
        assert ingest("1\r2\r3\r", FIRST_DIGIT).n == 3
        assert parse_records("5 1\r6 2\r", column=1) == (["1", "2"], {})
        assert parse_records("a,b\r1,2\r3,4\r", column="b") == (["2", "4"], {})

    @pytest.mark.parametrize("delimiter", [None, ",", ";"])
    @pytest.mark.parametrize("column", ["amount", 1])
    def test_whitespace_only_first_line_is_not_a_row(self, column, delimiter):
        # The first row, and so the header, is the first non-blank line.
        text = "  \nid,amount\n1,5\n2,6\n".replace(",", delimiter or ",")
        for source in (lambda: text, lambda: io.StringIO(text)):
            assert parse_records(source(), column, delimiter=delimiter) == (["5", "6"], {})
            result = ingest(source(), FIRST_DIGIT, column, delimiter=delimiter)
            assert result.counts == (0, 0, 0, 0, 1, 1, 0, 0, 0) and result.skip_reasons == {}

    def test_sniff_reads_lazily(self):
        source = iter(["\n", "1,2\n", "3,4\n", "5,6\n"])
        with mock.patch.object(digits, "_CHUNK", 1):
            blocks, runs, _ = _valid_blocks(source, 0, None, ".")
            # The comma is sniffed: the first block holds the first row's first cell.
            assert runs is digits._CELL_RUNS_RE and next(blocks) == "1\n"
            # Only the lines up to the first non-blank one are read ahead.
            assert next(source) == "3,4\n"
            assert list(blocks) == ["5\n"]


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

    @pytest.mark.parametrize("newline",
                             ["str", "str-crlf", "str-cr", "str-mixed", "StringIO", "\n", "", None],
                             ids=["str", "str-crlf", "str-cr", "str-mixed", "StringIO", "newline-lf",
                                  "newline-empty", "newline-none"])
    def test_each_text_line_is_matched_once(self, monkeypatch, tmp_path, newline):
        calls = []
        texts = []

        class CountingPattern:
            def fullmatch(self, text):
                calls.append(text)
                return pattern.fullmatch(text)

        class CountingRunsPattern:
            def __init__(self, runs, found):
                self.runs, self.found = runs, found

            def findall(self, text):
                self.found.append(text)
                return self.runs.findall(text)

        cell_texts = []
        pattern = digits._NUMERIC_RE
        monkeypatch.setattr(digits, "_NUMERIC_RE", CountingPattern())
        for name, found in (("_LINE_RUNS_RE", texts), ("_CELL_RUNS_RE", cell_texts)):
            monkeypatch.setattr(digits, name, CountingRunsPattern(getattr(digits, name), found))
        clean = [f"{i}.5" for i in range(100, 1100)]
        multi = [" " * (i % 3) + f"{i}.25 \tn/a" if i % 2 else f"n/a{i}\x0c7"
                 for i in range(100, 1100)]
        lines = []
        for i, pair in enumerate(zip(clean, multi)):
            lines += [*pair, "", " \t"] if i % 10 == 0 else pair
        text = "".join(line + "\n" for line in lines)
        # The source: a str, a str with "\r\n" or "\r" line ends, or with
        # both, a default StringIO, or a file opened with `newline`.
        if newline == "str":
            source = nullcontext("amount id\n" + text)
        elif newline in ("str-crlf", "str-cr"):
            end = "\r\n" if newline == "str-crlf" else "\r"
            source = nullcontext(("amount id\n" + text).replace("\n", end))
        elif newline == "str-mixed":
            # "\r\n" ends a few lines, so a few blocks hold a "\r" and most
            # do not.  A lone "\r" ends the line that readline() completes
            # after the first block's read(4 * 64): the read holds no "\r".
            mixed = "".join(line + ("\r\n" if i % 150 == 70 else "\n")
                            for i, line in enumerate(lines))
            cut = mixed.index("\n", 4 * 64)
            mixed = mixed[:cut] + "\r" + mixed[cut + 1:]
            raw = io.StringIO(mixed, newline="")
            blocks = list(iter(lambda: raw.read(4 * 64) + raw.readline(), ""))
            assert blocks[0].endswith("\r") and blocks[0].count("\r") == 1
            assert 1 < sum("\r" in block for block in blocks) < len(blocks) / 4
            source = nullcontext("amount id\n" + mixed)
        elif newline == "StringIO":
            source = io.StringIO("amount id\n" + text)
        else:
            path = tmp_path / "input.txt"
            path.write_text("amount id\n" + text, encoding="utf-8")
            source = open(path, encoding="utf-8", newline=newline)
        with source as s, small_chunks(64):
            counts = ingest(s, FIRST_DIGIT)
        assert counts.n == 1000 + 500 and counts.skip_reasons == {"non-numeric": 500}
        # One findall per block reads each line once, clean or not, indented
        # or blank.  A universal-newline source is read in blocks of whole
        # lines, 4 * 64 characters read at once and completed to their line's
        # end, with every line end read as "\n"; any other source is read by
        # its lines, 64 a findall, each without its line end or trailing
        # whitespace.  The cell grammar checks only the header and one head
        # per distinct head.
        assert cell_texts == []
        if newline in ("StringIO", "\n"):
            assert "".join(texts) == "".join(line.rstrip() + "\n" for line in lines)
            assert all(block.count("\n") == 64 for block in texts[:-1])
        else:
            assert "".join(texts) == text
        if newline in ("str", "", None):
            assert all(4 * 64 <= len(block) < 4 * 64 + 16 for block in texts[:-1])
        assert len(calls) <= 1 + 9

    @pytest.mark.parametrize(
        "read, column, readable, threads",
        [(ingest, None, False, nullcontext), (ingest, 1, False, nullcontext),
         (ingest, 1, False, live_thread), (ingest, None, True, nullcontext),
         (count_digits, None, False, nullcontext)],
        ids=["text-first-field", "csv-column", "csv-column-in-process", "text-first-field-read",
             "count-digits"],
    )
    def test_peak_memory_does_not_grow_with_the_input(self, read, column, readable, threads):
        # tracemalloc sees this process alone.  A CSV column is counted in a
        # forked helper, so "csv-column" pins the reading here, and
        # "csv-column-in-process", with a live thread, pins the counting too.
        def peak(chunks):
            # Distinct values, made one line at a time as they are read.
            values = (f"{i % 97 + 1}.{i:06d}" for i in range(chunks * 1000))
            lines = (f"{i},{v}\n" if column else f"{v}\n" for i, v in enumerate(values))
            tracemalloc.start()
            try:
                with small_chunks(1000), threads():
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


# A number whose whole part may hold commas.  A first line whose fields,
# split at whitespace and ";" and perhaps ended by them, are all such
# numbers, one of them at least with a comma, is one that the reader refuses
# to split at a sniffed comma.
COMMA_NUMBER = r"[+-]?(?:[0-9]+(?:,[0-9]+)*(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"


class AmbiguousComma(Exception):
    """The oracles' refusal: the comma was sniffed, no column was given, and
    the first non-blank line is numbers written with commas, one or a row."""


def sniff_comma(nonblank, column, decimal_mark):
    """Whether the oracles read the input as comma-delimited; raises AmbiguousComma."""
    if not nonblank or "," not in nonblank[0] or decimal_mark == ",":
        return False
    fields = re.split(r"[\s;]+", nonblank[0].strip())
    if fields[-1] == "":
        fields.pop()
    if column is None and all(re.fullmatch(COMMA_NUMBER, field) for field in fields):
        raise AmbiguousComma(nonblank[0])
    return True


def is_blank(line):
    return not line.strip()


def reference_ingest(text, system, column=None, delimiter=None, decimal_mark="."):
    """Per-row ingestion of `text` with full row splits and per-cell extraction."""
    lines = list(io.StringIO(text))
    nonblank = [line for line in lines if line.strip()]
    if delimiter is None and sniff_comma(nonblank, column, decimal_mark):
        delimiter = ","
    if delimiter is None:
        rows = [line.split() for line in nonblank]
    else:
        # Rows start at the first non-blank line.
        rows = [row for row in csv.reader(dropwhile(is_blank, lines), delimiter=delimiter) if row]
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
        "\u0665", "\u0660.\u0665", "\u00bd", "1,234", '"q"', "1.e5", "0e5", ".5", "00.05",
        "1,5", "1,5;2,25", "1,5;", "1,5 .7"]
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
    # Chunks of the tally's shapes: a blank among 1-9-led tokens, no 1-9-led
    # token, and only blank and non-numeric tokens.
    @example(tokens=["12", "", "3.5", "-5", "0.3", ".7", "", "n/a", None], chunk=3)
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
    # A whitespace-only first line is not a row, and the row after it can be a header.
    @example(rows=[[" "]], column=None, header=False, chunk=8)
    @example(rows=[["\t"], ["amount", "1"], ["5", "0.7"]], column=None, header=False, chunk=1)
    # A blank cell among 1-9-led cells; a chunk with no 1-9-led cell; a chunk
    # of only blank and non-numeric cells.
    @example(rows=[["12"], [""], ["3.5"], ["7"]], column=None, header=False, chunk=8)
    @example(rows=[["-5"], ["0.3"], [".7"]], column=None, header=False, chunk=8)
    @example(rows=[["5"], ["n/a"], [""], ["x"]], column=None, header=False, chunk=2)
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
    # A blank line among 1-9-led lines, which the row reader drops; no 1-9-led
    # line; after the first row, only blank and non-numeric lines.
    @example(lines=["12", "", "3.5", "7"], header=False, column=None, decimal_mark=".", chunk=8)
    @example(lines=["-5", "0.3", ".7"], header=False, column=None, decimal_mark=".", chunk=8)
    @example(lines=["5", "n/a", "", "abc"], header=False, column=None, decimal_mark=".", chunk=1)
    # List items that hold a line break, a lone "\r", only whitespace, a
    # leading NEL or no line end, first or after a header.
    @example(lines=["1\n2", "-0.5\n7"], header=False, column=None, decimal_mark=".", chunk=1)
    @example(lines=["1\n2", "-0.5\n7"], header=True, column=None, decimal_mark=".", chunk=1)
    @example(lines=["1\r2\n", "n/a\r5\n"], header=False, column=None, decimal_mark=".", chunk=8)
    @example(lines=["1\r2\n", "n/a\r5\n"], header=True, column=None, decimal_mark=".", chunk=8)
    @example(lines=[" \x1c\n", "3", " \x1c\n"], header=False, column=None, decimal_mark=".",
             chunk=2)
    @example(lines=[" \x1c\n", "3", " \x1c\n"], header=True, column=None, decimal_mark=".",
             chunk=2)
    @example(lines=["\x855", "\x85.5"], header=False, column=None, decimal_mark=".", chunk=8)
    @example(lines=["\x855", "\x85.5"], header=True, column=None, decimal_mark=".", chunk=8)
    @example(lines=["12 x", "0.3"], header=False, column=None, decimal_mark=".", chunk=1)
    @example(lines=["12 x", "0.3"], header=True, column=None, decimal_mark=".", chunk=1)
    def test_ingest_sniffed_text(self, scheme, lines, header, column, decimal_mark, chunk):
        if header:
            lines = ["amount\t id", *lines]
        elif column == "amount":
            column = None
        # `lines` are also the items of a list, each one line, with or without
        # its line end.  In the text, a line break inside an item is a space.
        text = "".join(re.sub("[\r\n]", " ", line.rstrip("\n")) + "\n" for line in lines)
        # Text read by its first field is read in blocks from a str or another
        # universal-newline source, and by its lines from a default StringIO or
        # a list.  splitlines would also split at "\x0c" and "\x1c".
        nonblank = [line for line in lines if line.strip()]
        first_field = bool(nonblank) and column in (None, 0, "amount") and (
            "," not in nonblank[0] or decimal_mark == ",")
        sources = [(text, first_field), (io.StringIO(text, newline=""), first_field),
                   (io.StringIO(text), False), (list(io.StringIO(text)), False), (lines, False)]
        try:
            counts, skips = reference_ingest(text, scheme, column, decimal_mark=decimal_mark)
        except AmbiguousComma:
            for source, _ in sources:
                with small_chunks(chunk), pytest.raises(ValueError, match="written with commas"):
                    ingest(source, scheme, column, decimal_mark=decimal_mark)
            return
        for source, in_blocks in sources:
            with small_chunks(chunk), mock.patch.object(digits, "_blocks",
                                                        wraps=digits._blocks) as blocks:
                result = ingest(source, scheme, column, decimal_mark=decimal_mark)
            assert blocks.called == in_blocks
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
    if delimiter is None and sniff_comma(nonblank, column, decimal_mark):
        delimiter = ","
    if delimiter is None:
        rows = [line.split() for line in nonblank]
    else:
        # Rows start at the first non-blank line.
        rows = [row for row in csv.reader(dropwhile(is_blank, lines), delimiter=delimiter) if row]
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


# Rows of TestReaderHeadsOfStrippedAndUnstrippedTokens: a value with
# something to strip, then 1-9-led values and one more to strip.
MIXED_RUN = [("12", "", "", ""), ("+5", "", "", ""), ("3", "", "", ""), ("45", "", " x", ""),
             ("6.5e2", "", "", ""), ("007", "", "", ""), ("81", "", "", "")]


class TestReaderHeadsOfStrippedAndUnstrippedTokens:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(nonzero_led, st.sampled_from([*STRIPPED_VALUES, "n/a"])),
                st.sampled_from(["", "", " ", "\t "]),  # indentation
                st.sampled_from(["", " x", "\t7 y"]),  # later fields
                st.sampled_from(["", "", "\n"]),  # a blank line before
            ),
            max_size=40,
        ),
        layout=st.sampled_from(["text", "csv"]),
        decimal_mark=st.sampled_from([".", ","]),
        chunk=st.integers(min_value=1, max_value=8),
    )
    # An indented first line with something to strip, and another later.
    @example(rows=[(".7", "\t ", " x", ""), ("27", "", "", ""), ("-0.0312", " ", "\t7 y", "")],
             layout="text", decimal_mark=".", chunk=8)
    # A value with something to strip, then 1-9-led values: in one run at
    # eight cells a chunk, and across chunk boundaries at two.
    @example(rows=MIXED_RUN, layout="csv", decimal_mark=".", chunk=8)
    @example(rows=MIXED_RUN, layout="csv", decimal_mark=".", chunk=2)
    @example(rows=MIXED_RUN, layout="text", decimal_mark=",", chunk=2)
    def test_ingest_count_digits_and_parse_records(self, scheme, rows, layout, decimal_mark,
                                                    chunk):
        # Runs of 1-9-led tokens, counted as they stand, and runs from a
        # token with something to strip on through the valid tokens after
        # it, stripped, among non-numeric and blank lines.
        values = [value for value, *_ in rows]
        delimiter = {"text": " ", "csv": "," if decimal_mark == "." else ";"}[layout]
        text = "".join(f"{blank}{indent}{value.replace('.', decimal_mark)}{delimiter}{later}\n"
                       for value, indent, later, blank in rows)
        options = {"column": 0, "decimal_mark": decimal_mark}
        if layout == "csv":
            options["delimiter"] = delimiter
        records = values[1:] if values[:1] == ["n/a"] else values  # a header, or not
        tokens = [value for value in records if value != "n/a"]
        skipped = len(records) - len(tokens)
        parse_skips = {"non-numeric": skipped} if skipped else {}
        counts, skips = reference_count(records, scheme)
        ordered = sorted(skips.items(), key=lambda item: item[0] != "zero-value")
        # A str is read in blocks, and a default StringIO by its lines.
        for source in (lambda: text, lambda: io.StringIO(text)):
            with small_chunks(chunk):
                assert parse_records(source(), **options) == (tokens, parse_skips)
                result = ingest(source(), scheme, **options)
            assert list(result.counts) == counts
            assert list(result.skip_reasons.items()) == ordered
        padded = [indent + value for value, indent, *_ in rows]
        counts, skips = reference_count(values, scheme)
        with small_chunks(chunk):
            result = count_digits(padded, scheme)
        assert list(result.counts) == counts
        assert list(result.skip_reasons.items()) == sorted(
            skips.items(), key=lambda item: item[0] != "zero-value")


# Every character that str.strip removes, which the regex class \s matches.
WHITESPACE = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]


class TestReaderReadsPaddingAsStrStripRemovesIt:
    @pytest.mark.parametrize("pad", WHITESPACE, ids=lambda pad: f"U+{ord(pad):04X}")
    def test_padded_cells_read_as_stripped_tokens(self, pad):
        assert re.fullmatch(r"\s", pad)
        cells = [f"{pad}15{pad}", f"{pad}-0.25{pad}", f"{pad}0{pad}", f"{pad}{pad}7e2", pad]
        buffer = io.StringIO()
        csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
            [cell] for cell in cells)
        text = buffer.getvalue()
        assert parse_records(text, 0, delimiter=",") == (["15", "-0.25", "0", "7e2"], {"empty": 1})
        for scheme, labels in ((FIRST_DIGIT, (1, 2, 7)), (FIRST_TWO_DIGITS, (15, 25, 70))):
            result = ingest(text, scheme, 0, delimiter=",")
            assert result.counts == tuple(int(label in labels) for label in scheme.digit_labels)
            assert list(result.skip_reasons.items()) == [("zero-value", 1), ("empty", 1)]


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
            (lambda: nullcontext(text), list(io.StringIO(text, newline=""))),
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
            except (csv.Error, AmbiguousComma) as refused:
                # csv.reader refuses these lines, or the sniffed comma may sit
                # inside a number: the reader raises ValueError, from
                # csv.reader's error in the first case.
                for read in (parse_records, partial(ingest, system=scheme)):
                    with source() as s, small_chunks(chunk), pytest.raises(ValueError) as raised:
                        read(s, column=column, **options)
                    from_csv = isinstance(raised.value.__cause__, csv.Error)
                    assert from_csv == isinstance(refused, csv.Error)
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


FIRST_FIELD_SOURCES = ["str", "StringIO-newline-empty", "StringIO", "list", "file-newline-empty",
                       "file-newline-none", "file-newline-lf"]
# Reads by rows of cells, from a str: (text, column, delimiter).
CELL_READS = {"text-column-1": ("id amount\nx 12\ny -0.5\n\n3 n/a\n1\t7\n", 1, None),
              "csv-column": ("amount,id\n12,x\n-0.5,\n\n n/a,3\n7,1\n", "amount", ",")}


class TestReaderReadsEveryFirstFieldByLine:
    @pytest.mark.parametrize("kind", FIRST_FIELD_SOURCES + list(CELL_READS))
    def test_only_a_later_text_column_or_a_csv_column_reaches_the_cell_pattern(
            self, monkeypatch, tmp_path, kind):
        text, column, delimiter = CELL_READS.get(
            kind, ("amount id\n12 x\n-0.5\n\n n/a 3\n7\t1\n", None, None))
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8", newline="")
        found = {"_LINE_RUNS_RE": [], "_CELL_RUNS_RE": []}

        class CountingRunsPattern:
            def __init__(self, runs, texts):
                self.runs, self.texts = runs, texts

            def findall(self, text):
                self.texts.append(text)
                return self.runs.findall(text)

        for name, texts in found.items():
            monkeypatch.setattr(digits, name, CountingRunsPattern(getattr(digits, name), texts))
        sources = {
            "StringIO-newline-empty": lambda: io.StringIO(text, newline=""),
            "StringIO": lambda: io.StringIO(text),
            "list": lambda: nullcontext(list(io.StringIO(text))),
            "file-newline-empty": partial(open, path, encoding="utf-8", newline=""),
            "file-newline-none": partial(open, path, encoding="utf-8", newline=None),
            "file-newline-lf": partial(open, path, encoding="utf-8", newline="\n"),
        }
        with sources.get(kind, lambda: nullcontext(text))() as source:
            counts = ingest(source, FIRST_DIGIT, column, delimiter=delimiter)
        assert counts.counts == (1, 0, 0, 0, 1, 0, 1, 0, 0)
        assert counts.skip_reasons == {"non-numeric": 1}
        if kind in FIRST_FIELD_SOURCES:
            assert found["_CELL_RUNS_RE"] == [] and found["_LINE_RUNS_RE"]
        else:
            assert found["_LINE_RUNS_RE"] == [] and found["_CELL_RUNS_RE"]


# Lines that `_plain` accepts: ASCII digits that start with 1-9, with at most
# one point.  Every other shape below makes a block that holds it not plain.
plain_lines = st.from_regex(r"[1-9][0-9]{0,5}(?:\.[0-9]{0,4})?", fullmatch=True)
NOT_PLAIN_SHAPES = {
    "sign": "-{}", "plus": "+{}", "zero": "0{}", "point": ".{}", "blank": "",
    "exponent": "{}e5", "signed-exponent": "{}E-3", "later-field": "{} 7", "tab-field": "{}\t7",
    "indent": " {}", "padding": "{} ", "form-feed": "{}\x0c", "two-points": "{}.5.5",
    "carriage-return": "{}\r", "letter": "{}x", "comma": "{},5", "non-ascii-digit": "{}\u0663",
    "non-ascii-lead": "\u0663{}",
}
not_plain_lines = st.tuples(st.sampled_from(sorted(NOT_PLAIN_SHAPES.values())), plain_lines).map(
    lambda shape_value: shape_value[0].format(shape_value[1]))


@st.composite
def plain_or_not_blocks(draw):
    """A block of plain lines with up to two other lines put in, and whether it is plain."""
    lines = draw(st.lists(plain_lines, min_size=1, max_size=20))
    others = draw(st.lists(not_plain_lines, max_size=2))
    for line in others:
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
    return "".join(line + "\n" for line in lines), not others


class TestReaderAcceptsPlainBlocksWithoutTheRunPass:
    @given(case=plain_or_not_blocks())
    @example(case=("1\n0.5\n", False))
    @example(case=("12\n3.4.5\n", False))
    @example(case=("7\n1e5\n", False))
    def test_plain_blocks_are_the_one_run_both_patterns_find(self, case):
        block, plain = case
        assert digits._plain(block) == plain
        if plain:
            runs = [(block, "")]
            assert digits._CELL_RUNS_RE.findall(block) == digits._LINE_RUNS_RE.findall(block) == runs

    @given(lines=st.lists(plain_lines, min_size=1, max_size=40))
    def test_a_block_of_plain_lines_is_plain(self, lines):
        assert digits._plain("".join(line + "\n" for line in lines))

    @pytest.mark.parametrize("shape", NOT_PLAIN_SHAPES.values(), ids=NOT_PLAIN_SHAPES.keys())
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_other_line_makes_a_block_not_plain(self, shape, where):
        lines = ["12", "3.5", "40.", "678"]
        lines.insert({"first": 0, "middle": 2, "last": 4}[where], shape.format("91.2"))
        assert not digits._plain("".join(line + "\n" for line in lines))

    def test_a_block_not_ended_by_a_line_break_is_not_plain(self):
        assert not digits._plain("")
        assert not digits._plain("12\n34")

    def test_benchmark_text_never_reaches_the_run_pass(self, monkeypatch, tmp_path):
        # The text that perfbench/inputs.py writes for analyze_text_1m, at
        # fewer lines: one %.6g value a line, read as the command line opens
        # a file, is read in plain blocks only.
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        dont_write = sys.dont_write_bytecode
        sys.dont_write_bytecode = True  # leave perfbench/ as it is
        try:
            spec.loader.exec_module(inputs)
        finally:
            sys.dont_write_bytecode = dont_write
        path = tmp_path / "values.txt"
        expected = inputs.write_text(path, seed=1, rows=30_000)
        found = []

        class CountingRunsPattern:
            def findall(self, text):
                found.append(text)
                return runs.findall(text)

        runs = digits._LINE_RUNS_RE
        monkeypatch.setattr(digits, "_LINE_RUNS_RE", CountingRunsPattern())
        with open(path, encoding="utf-8-sig", newline="") as fh:
            counts = ingest(fh, FIRST_DIGIT)
        assert list(counts.counts) == expected["counts"] and counts.skip_reasons == {}
        assert found == []
        # The stand-in counts: a block with a later field does reach it.
        with open(path, encoding="utf-8-sig", newline="") as fh:
            lines = [line.replace("\n", " 7\n") for line in fh]
        assert list(ingest("".join(lines), FIRST_DIGIT).counts) == expected["counts"]
        assert len(found) >= 3


# Differential tests of the counting helper: a column read by rows, over
# more than one block, is counted in a forked helper unless another thread
# is alive; the counts and skips must not depend on where they are counted.

# Cells of every kind: 1-9-led, with something to strip, zero, empty,
# padded, non-numeric, and one that holds the delimiter or a quote.
HELPER_CELLS = ["12.5", "7", "-0.0312", "+5", ".7", "007", "0", "0e5", "", "  ", " 3e2 ", "n/a",
                "1,234", '"q"', "a;b", "٥", "99.9", "1.2.3"]


@st.composite
def helper_inputs(draw):
    """(text, column, delimiter, decimal mark, chunk): a column read by rows, `chunk` cells a block."""
    chunk = draw(st.integers(min_value=1, max_value=4))
    decimal_mark = draw(st.sampled_from([".", ","]))
    cells = draw(st.lists(st.one_of(st.sampled_from(HELPER_CELLS), cell_texts),
                          min_size=2 * chunk + 1, max_size=40))
    cells = [cell.replace(".", decimal_mark) for cell in cells]
    if draw(st.booleans()):
        # A CSV with a header and quoted cells, one of them a category that
        # holds the delimiter.
        delimiter = ";" if decimal_mark == "," else draw(st.sampled_from([",", ";"]))
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        buffer = io.StringIO()
        writer = csv.writer(buffer, delimiter=delimiter, quoting=quoting, lineterminator="\n")
        writer.writerow(["id", "amount", "category"])
        writer.writerows([i, cell, f"c{delimiter}{i}"] for i, cell in enumerate(cells))
        return buffer.getvalue(), "amount", delimiter, decimal_mark, chunk
    # A later whitespace column: each line is an id, a value and perhaps a note.
    cells = [cell.strip() or "n/a" for cell in cells]
    notes = draw(st.lists(st.sampled_from(["", " x", "\t7 y"]), min_size=len(cells),
                          max_size=len(cells)))
    text = "".join(f"r{i} {cell}{note}\n" for i, (cell, note) in enumerate(zip(cells, notes)))
    return text, 1, None, decimal_mark, chunk


# Most examples of the helper tests fork this whole test process, which
# costs more than the example itself: the ci profile's 1000 examples a test
# are cut to 300 for them.
FORKING = settings(max_examples=min(settings().max_examples, 300))


class TestReaderCountsInAHelperAsInProcess:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @FORKING
    @given(case=helper_inputs())
    # Every skip reason, with decimal commas, in three blocks.
    @example(case=('id;amount;note\n1;"1,5";"a;b"\n2;;x\n3;n/a;y\n4;0,0;z\n5;-0,05;w\n6; 7 ;v\n',
                   "amount", ";", ",", 2))
    def test_helper_and_in_process_counts_are_equal(self, scheme, case):
        text, column, delimiter, decimal_mark, chunk = case
        options = {"delimiter": delimiter, "decimal_mark": decimal_mark}
        with small_chunks(chunk), spied_helper() as helper:
            forked = ingest(io.StringIO(text), scheme, column, **options)
        assert helper.call_count == 1
        with small_chunks(chunk), spied_helper() as helper, live_thread():
            in_process = ingest(io.StringIO(text), scheme, column, **options)
        assert helper.call_count == 0
        assert forked.system == in_process.system
        assert forked.counts == in_process.counts
        assert list(forked.skip_reasons.items()) == list(in_process.skip_reasons.items())
        counts, skips = reference_ingest(text, scheme, column, **options)
        assert list(forked.counts) == counts
        assert list(forked.skip_reasons.items()) == list(skips.items())

    def test_only_a_column_read_by_rows_in_more_than_one_block_reaches_the_helper(self):
        cases = {
            "csv": ("id,amount\n1,5\n2,6\n3,7\n", "amount", True),
            "csv-one-block": ("id,amount\n1,5\n2,6\n", "amount", False),
            "later-text-column": ("a 5\nb 6\nc 7\n", 1, True),
            "first-text-field": ("5\n6\n7\n8\n9\n", None, False),
        }
        for text, column, forks in cases.values():
            with small_chunks(2), spied_helper() as helper:
                counts = ingest(text, FIRST_DIGIT, column)
            assert helper.called == forks
            assert counts.n == text.count("\n") - (column == "amount")

    def test_the_fork_draws_no_warning(self):
        # Python 3.12 and later warn when a process that runs threads forks.
        with small_chunks(2), spied_helper() as helper, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ingest("id,amount\n1,5\n2,6\n3,7\n", FIRST_DIGIT, "amount")
        assert helper.called and caught == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads counted by Python")
    def test_a_thread_that_python_did_not_start_keeps_the_count_here(self):
        # A thread started by _thread, as a native library starts one, is not
        # among threading's threads; the operating system counts it.
        started, release = _thread.allocate_lock(), _thread.allocate_lock()
        started.acquire()
        release.acquire()
        _thread.start_new_thread(lambda: (started.release(), release.acquire()), ())
        started.acquire()
        try:
            assert threading.active_count() == 1
            with small_chunks(2), spied_helper() as helper:
                counts = ingest("id,amount\n1,5\n2,6\n3,7\n", FIRST_DIGIT, "amount")
            assert not helper.called and counts.n == 3
        finally:
            release.release()
        deadline = time.monotonic() + 60
        while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(os.listdir("/proc/self/task")) == 1


def no_child_is_left():
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def reap_children(signum, frame):
    """A SIGCHLD handler that reaps every child that has ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


@contextmanager
def sigchld(handler):
    """Run with `handler` as this process's SIGCHLD disposition."""
    previous = signal.signal(signal.SIGCHLD, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


SIGCHLD_HANDLERS = [pytest.param(signal.SIG_DFL, id="default"),
                    pytest.param(signal.SIG_IGN, id="ignored"),
                    pytest.param(reap_children, id="reaped-by-a-handler")]


class TestReaderHelperFailures:
    @pytest.mark.parametrize("handler", SIGCHLD_HANDLERS)
    def test_a_helper_reaped_elsewhere_still_counts(self, handler):
        text = "id,amount\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(HELPER_CELLS))
        with small_chunks(2), live_thread():
            expected = ingest(text, FIRST_TWO_DIGITS, "amount")
        with small_chunks(2), spied_helper() as helper, sigchld(handler):
            result = ingest(text, FIRST_TWO_DIGITS, "amount")
        assert helper.called and result.counts == expected.counts
        assert list(result.skip_reasons.items()) == list(expected.skip_reasons.items())
        assert no_child_is_left()

    @pytest.mark.parametrize("handler", SIGCHLD_HANDLERS)
    def test_a_report_cut_short_raises(self, handler, monkeypatch):
        # The helper inherits the patch and sends all but the last bytes.
        cut = SimpleNamespace(dumps=lambda report: marshal.dumps(report)[:-3],
                              loads=marshal.loads)
        monkeypatch.setattr(digits, "marshal", cut)
        text = "id,amount\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(HELPER_CELLS))
        with small_chunks(2), spied_helper() as helper, sigchld(handler):
            with pytest.raises(ChildProcessError, match="no complete report"):
                ingest(text, FIRST_TWO_DIGITS, "amount")
        assert helper.called and no_child_is_left()

    def test_csv_refused_in_the_third_block_leaves_no_helper(self):
        # csv.reader refuses a field longer than csv.field_size_limit().
        text = "id,amount\n" + "".join(f"{i},{i + 1}.5\n" for i in range(4))
        text += '5,"' + "9" * 200_000 + '"\n6,7\n'
        with small_chunks(2), spied_helper() as helper:
            with pytest.raises(ValueError, match="malformed CSV") as raised:
                ingest(io.StringIO(text), FIRST_DIGIT, "amount")
        assert isinstance(raised.value.__cause__, csv.Error)
        assert helper.called and no_child_is_left()

    def test_text_that_is_not_utf8_in_the_third_block_leaves_no_helper(self, tmp_path):
        path = tmp_path / "latin.csv"
        good = "".join(f"{i},{i + 1}\n" for i in range(8)).encode()
        path.write_bytes(b"id,amount\n" + good + b"8,\xff9\n9,1\n")
        with small_chunks(2), spied_helper() as helper, pytest.raises(UnicodeDecodeError):
            # Decoded 8 bytes at a time, the bad byte is read after two blocks.
            with open(path, encoding="utf-8", newline="") as fh:
                fh._CHUNK_SIZE = 8
                ingest(fh, FIRST_DIGIT, "amount")
        assert helper.called and no_child_is_left()

    def test_interrupt_while_reading_leaves_no_helper(self):
        def lines():
            yield "id,amount\n"
            for i in range(5):
                yield f"{i},{i + 1}\n"
            raise KeyboardInterrupt

        with small_chunks(2), spied_helper() as helper, pytest.raises(KeyboardInterrupt):
            ingest(lines(), FIRST_DIGIT, "amount")
        assert helper.called and no_child_is_left()

    def test_a_fork_that_fails_counts_in_process(self, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        text = "id,amount\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(HELPER_CELLS))
        with small_chunks(2), live_thread():
            expected = ingest(text, FIRST_TWO_DIGITS, "amount")
        open_fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
        monkeypatch.setattr(os, "fork", no_fork)
        with small_chunks(2), spied_helper() as helper:
            result = ingest(text, FIRST_TWO_DIGITS, "amount")
        assert helper.called and result.counts == expected.counts
        assert list(result.skip_reasons.items()) == list(expected.skip_reasons.items())
        # The pipes made for the helper are closed.
        assert open_fds is None or os.listdir("/proc/self/fd") == open_fds

    def test_an_error_raised_after_the_fork_closes_the_pipes(self, monkeypatch):
        # Python 3.12 and later may raise a fork-with-threads warning, as an
        # error where warnings are errors, in this process after the fork.
        real_fork, forked = os.fork, []

        def fork_then_warn():
            pid = real_fork()
            if pid:
                forked.append(pid)
                raise DeprecationWarning("this process is multi-threaded")
            return pid

        text = "id,amount\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(HELPER_CELLS))
        open_fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
        monkeypatch.setattr(os, "fork", fork_then_warn)
        with small_chunks(2), pytest.raises(DeprecationWarning):
            ingest(text, FIRST_DIGIT, "amount")
        assert open_fds is None or os.listdir("/proc/self/fd") == open_fds
        # The helper finds its pipe closed and leaves.
        deadline = time.monotonic() + 60
        while not os.waitpid(forked[0], os.WNOHANG)[0]:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert no_child_is_left()

    def test_failed_helper_exits_the_command_with_one_error_line(self, tmp_path, monkeypatch,
                                                                capsys):
        # The helper inherits the patch, which fails it and nothing here.
        parent, tally = os.getpid(), digits._tally

        def failing_in_the_helper(*args):
            if os.getpid() != parent:
                raise MemoryError("no memory left in the helper")
            return tally(*args)

        monkeypatch.setattr(digits, "_tally", failing_in_the_helper)
        path = tmp_path / "amounts.csv"
        path.write_text("id,amount\n" + "".join(f"{i},{i % 9 + 1}.5\n" for i in range(5000)))
        with small_chunks(100), spied_helper() as helper:
            code = main(["analyze", str(path), "--column", "amount"])
        out, err = capsys.readouterr()
        assert helper.called and code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("benfordsev: error: ")
        assert "no memory left in the helper" in err
        assert no_child_is_left()
        with live_thread():
            assert main(["analyze", str(path), "--column", "amount"]) == 0


class TestReaderFoldsTwoDigitsToTheFirst:
    @FORKING
    @given(case=reader_inputs(), chunk=st.integers(min_value=1, max_value=7),
           threads=st.sampled_from([nullcontext, live_thread]))
    def test_two_digit_counts_folded_by_tens_are_the_first_digit_counts(self, case, chunk,
                                                                        threads):
        # The two-digit tally keys heads of three characters in a Counter; the
        # first-digit tally counts first characters with str.count.
        text, _, column, delimiter, decimal_mark = case
        options = {"delimiter": delimiter, "decimal_mark": decimal_mark}
        with small_chunks(chunk), threads():
            try:
                first = ingest(text, FIRST_DIGIT, column, **options)
            except ValueError:
                with pytest.raises(ValueError):
                    ingest(text, FIRST_TWO_DIGITS, column, **options)
                return
            two = ingest(text, FIRST_TWO_DIGITS, column, **options)
        folded = [0] * 9
        for label, count in zip(FIRST_TWO_DIGITS.digit_labels, two.counts):
            folded[label // 10 - 1] += count
        assert tuple(folded) == first.counts
        assert two.n == first.n
        assert list(two.skip_reasons.items()) == list(first.skip_reasons.items())
