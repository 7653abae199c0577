import _thread
import csv
import gzip
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
    ingest,
    parse_records,
)

SCHEMES = [FIRST_DIGIT, FIRST_TWO_DIGITS]


def os_threads():
    """The threads of this process as the operating system counts them, or None if unknown."""
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None


@contextmanager
def live_thread():
    """Keep a second thread alive, which makes ingest count every input in this process."""
    before = os_threads()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        # The operating system's thread may end a moment after join returns,
        # and ingest counts it until then.
        deadline = time.monotonic() + 60
        while before is not None and os_threads() > before and time.monotonic() < deadline:
            time.sleep(0.001)


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
        assert FIRST_DIGIT.extract(token) == expected

    def test_float_input_uses_decimal_text(self):
        # A caller formats a float as repr(x), exponent forms included.
        assert FIRST_DIGIT.extract(repr(0.1)) == 1
        assert FIRST_DIGIT.extract(repr(-0.00456)) == 4
        assert FIRST_DIGIT.extract(repr(12345.0)) == 1
        assert FIRST_TWO_DIGITS.extract(repr(1e-7)) == 10
        assert FIRST_TWO_DIGITS.extract(repr(5e-324)) == 50
        assert FIRST_TWO_DIGITS.extract(repr(1.7976931348623157e308)) == 17

    @pytest.mark.parametrize("token, first, first_two", [
        ("199999999999999999", 1, 19),  # float(x) rounds it up to 2e17
        ("-199999999999999999", 1, 19),
        ("1" + "0" * 400, 1, 10),  # beyond the float range
        ("1" + "0" * 5000, 1, 10),  # beyond str(int)'s default limit of 4300 digits
        ("-19" + "0" * 4999 + "7", 1, 19),
        ("0", None, None),
    ], ids=["2e17-1", "-(2e17-1)", "10**400", "10**5000", "-(19e5000+7)", "0"])
    def test_integers_are_read_exactly(self, token, first, first_two):
        assert FIRST_DIGIT.extract(token) == first
        assert FIRST_TWO_DIGITS.extract(token) == first_two

    @given(st.integers(-(10**4000), 10**4000))
    def test_integers_read_as_their_decimal_text(self, value):
        text = str(abs(value))
        for scheme in SCHEMES:
            expected = int(text[:scheme.digits].ljust(scheme.digits, "0")) if value else None
            assert scheme.extract(str(value)) == expected

    @pytest.mark.parametrize("token", ["abc", "", "1.2.3", "nan", "inf", "1e", "--5"])
    def test_parse_errors(self, token):
        with pytest.raises(ValueError):
            FIRST_DIGIT.extract(token)

    @pytest.mark.parametrize("read", [FIRST_DIGIT.extract,
                                      lambda value: count_digits(["5", value], FIRST_DIGIT)],
                             ids=["extract", "count_digits"])
    @pytest.mark.parametrize("value", [None, 7, 0.1, 1j, np.int64(7)],
                             ids=["None", "7", "0.1", "1j", "np.int64(7)"])
    def test_values_that_are_not_str_are_refused(self, read, value):
        # Digits come from decimal strings alone: the caller formats a number.
        with pytest.raises(TypeError, match="str"):
            read(value)

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
        assert FIRST_TWO_DIGITS.extract(token) == expected


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
        for scheme in SCHEMES:
            assert scheme.extract(with_point) == scheme.extract(without_point)

    @given(digit_strings())
    def test_first_two_consistent_with_first(self, pair):
        token, _ = pair
        assert FIRST_TWO_DIGITS.extract(token) // 10 == FIRST_DIGIT.extract(token)


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
            blocks, runs, _, _ = _valid_blocks(source, 0, None, ".")
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
        counts = count_digits(["199999999999999999", "1" + "0" * 400, "0"], FIRST_TWO_DIGITS)
        assert counts.counts[FIRST_TWO_DIGITS.digit_labels.index(19)] == 1
        assert counts.counts[FIRST_TWO_DIGITS.digit_labels.index(10)] == 1
        assert counts.n == 2 and counts.skip_reasons == {"zero-value": 1}

    def test_integers_beyond_the_str_limit_are_counted(self):
        counts = count_digits(["1" + "0" * 5000, "1", "0"], FIRST_DIGIT)
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
        # A live thread keeps every block in this process, where the patterns
        # are counted: a file would be counted in halves, one in a helper.
        with source as s, small_chunks(64), live_thread():
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
        # tracemalloc sees this process alone, which reads and counts a
        # generator of lines, with or without a live thread.
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


# Differential tests: the batched reader and tally against one reference
# reader.  `old_parse_records` is the reader as it was before the run
# patterns, which split every row and checked one stripped cell or line at a
# time with the old grammar; `reference_count` tallies its tokens one at a
# time through DigitSystem.extract, and `reference_ingest` is the two.


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
    """The old reader's refusal: the comma was sniffed, no column was given,
    and the first non-blank line is numbers written with commas, one or a row."""


def sniff_comma(nonblank, column, decimal_mark):
    """Whether the old reader reads the input as comma-delimited; raises AmbiguousComma."""
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


def reference_ingest(text, system, column=None, delimiter=None, decimal_mark="."):
    """Per-row ingestion of `text`: the old reader's tokens, tallied one token at a time."""
    tokens, parse_skips = old_parse_records(text, column, delimiter, decimal_mark)
    counts, skips = reference_count(tokens, system)
    skips.update(parse_skips)  # ingest lists zero values before the parse skips
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
# The field separators and indents of whitespace-delimited lines.
separators = st.sampled_from([" ", "\t", "  ", "\x0c", "\x1c"])
indents = st.sampled_from(["", "", " ", "\t", "\x0c "])


@st.composite
def whitespace_lines(draw):
    """A line of cells joined by mixed whitespace, or a line of whitespace only."""
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
        tokens=st.lists(cell_texts, max_size=40),
        chunk=st.integers(min_value=1, max_value=8),
    )
    # Chunks of the tally's shapes: a blank among 1-9-led tokens, no 1-9-led
    # token, and only blank and non-numeric tokens.
    @example(tokens=["12", "", "3.5", "-5", "0.3", ".7", "", "n/a", "x"], chunk=3)
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


# Differential test of the reader on every kind of source: parse_records and
# ingest against old_parse_records, given the lines that each source yields.


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
        # Every source is counted in this process.  A file of more than two
        # blocks would fork the counting helper, which has its own differential
        # in TestReaderCountsInAHelperAsInProcess.
        with spied_helper() as helper, live_thread():
            for source, lines in feeds:
                try:
                    tokens, skips = old_parse_records(lines, column, delimiter, decimal_mark)
                except (csv.Error, AmbiguousComma) as refused:
                    # csv.reader refuses these lines, or the sniffed comma may
                    # sit inside a number: the reader raises ValueError, from
                    # csv.reader's error in the first case.
                    for read in (parse_records, partial(ingest, system=scheme)):
                        with source() as s, small_chunks(chunk), \
                                pytest.raises(ValueError) as raised:
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
        assert not helper.called


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


# Differential tests of the counting helper: a column read from a UTF-8
# file of more than two blocks is counted in two halves, the second in a
# forked helper, unless another thread is alive; the counts and skips must
# not depend on where they are counted.

# Cells of every kind: 1-9-led, with something to strip, zero, empty,
# padded, non-numeric, and one that holds the delimiter, a quote or a line
# break.
HELPER_CELLS = ["12.5", "7", "-0.0312", "+5", ".7", "007", "0", "0e5", "", "  ", " 3e2 ", "n/a",
                "1,234", '"q"', "a;b", "\u0665", "99.9", "1.2.3", "5\n", " 7\r", "1\r\n2"]
# A CSV row's last cell, which may hold the delimiter ({d}), quotes that a
# writer doubles, or line breaks that carry the record across line ends.
HELPER_NOTES = ["", "x", "c{d}1", 'say "5"', "1{d}2\n3{d}4", "a\r\nb\r\n", "\n\n7"]


@st.composite
def helper_inputs(draw):
    """(UTF-8 bytes, column, delimiter, decimal mark, chunk, newline, whether `ingest` splits them).

    A column read by rows: a CSV column, by name after a header or by
    index, first or second, or a later whitespace column.  The delimiters
    and decimal marks are those of `reader_inputs`, and a CSV's comma may
    be sniffed.  A CSV's records end in "\\n", "\\r\\n" or a lone
    "\\r", blank lines may come between them, and its quoted cells may
    hold the delimiter, quotes or line breaks.  A whitespace line may be
    indented, split by any of the `separators`, lack its value, or be
    blank.  Three short rows end the file, all in its rest after at least
    one more row, so a line start follows the middle of the rest; blank
    lines and a BOM may start it.  It is counted in halves if its first
    row does not end in a lone "\\r" before a line that is not empty, and
    more than two blocks of `chunk` follow it.
    """
    chunk = draw(st.integers(min_value=1, max_value=4))
    decimal_mark = draw(st.sampled_from([".", ","]))
    cells = draw(st.lists(st.one_of(st.sampled_from(HELPER_CELLS), cell_texts),
                          min_size=1, max_size=40))
    cells = [cell.replace(".", decimal_mark) for cell in cells]
    if draw(st.booleans()):
        delimiter = ";" if decimal_mark == "," else draw(st.sampled_from([",", ";"]))
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        header = draw(st.booleans())
        leading = draw(st.booleans())  # whether the values are the first column

        def row(i, cell, note):
            return [cell, i, note] if leading else [i, cell, note]

        rows = [row(i, cell, draw(st.sampled_from(HELPER_NOTES)).format(d=delimiter))
                for i, cell in enumerate(cells)]
        rows = [row("id", "amount", "note")] * header + rows + [[i, i, ""] for i in (7, 8, 9)]
        column = "amount" if header else int(not leading)

        def record(row):
            # A writer quotes a cell that holds a character of its line end.
            buffer = io.StringIO()
            csv.writer(buffer, delimiter=delimiter, quoting=quoting,
                       lineterminator="\r\n").writerow(row)
            return buffer.getvalue()[:-2] + draw(st.sampled_from(LINE_ENDS))

        records = [record(row) for row in rows]
        first = records[0]
        rest = "".join(draw(st.sampled_from(["", "", "\n", " \r\n"])) + r for r in records[1:])
        # The comma is sniffed from the first line, which holds one unless a
        # value that starts it holds a line break.
        if delimiter == "," and "," in re.split("[\r\n]", first)[0] and draw(st.booleans()):
            delimiter = None
    else:
        # A later whitespace column: each line is an id, a value and perhaps
        # a note, an id alone, or after the first, whitespace only.
        delimiter, column = None, 1
        notes = st.sampled_from(["", " x", "\t7 y"])

        def line(i, cell):
            shape = draw(st.integers(min_value=0, max_value=7))
            if shape == 0:
                return f"r{i}"
            if shape == 1 and i:
                return draw(indents)
            value = "".join(cell.split()) or "n/a"
            return f"{draw(indents)}r{i}{draw(separators)}{value}{draw(notes)}"

        lines = [line(i, cell) for i, cell in enumerate(cells)]
        lines = [line + draw(st.sampled_from(LINE_ENDS)) for line in [*lines, "r 7", "r 8", "r 9"]]
        first, rest = lines[0], "".join(lines[1:])
    if draw(st.booleans()):
        rest = rest.rstrip("\r\n")
    head = "".join(draw(st.sampled_from(["\n", " \t\r\n"])) for _ in range(draw(st.integers(0, 2))))
    data = (draw(st.booleans()) * "\ufeff" + head + first + rest).encode()
    # A "\r" before a "\n" ends one line with it.  Before an empty line,
    # `tell` gives the byte after the "\r", with the "\r" held back.
    lone_cr = first.endswith("\r") and not rest.startswith(("\n", "\r"))
    rest_bytes = len(rest.encode()) - (first.endswith("\r") and rest.startswith("\n"))
    newline = draw(st.sampled_from(["", None]))
    return (data, column, delimiter, decimal_mark, chunk, newline,
            not lone_cr and rest_bytes > 2 * 4 * chunk)


# Most examples of the helper tests fork this whole test process, which
# costs more than the example itself: the ci profile's 1000 examples a test
# are cut to 300 for them.
FORKING = settings(max_examples=min(settings().max_examples, 300))


# First fields of text lines: 1-9-led, to strip, zero, non-numeric, non-ASCII.
SPLIT_FIELDS = ["12.5", "7", "-0.0312", "+5", ".7", "007", "0", "0e5", "-0.0", "3e2", "99.9",
                "n/a", "1.2.3", "1e", "\u00e9", "\u0665", "\u00bd"]


@st.composite
def split_texts(draw):
    """(UTF-8 bytes, None, None, decimal mark, chunk, newline, whether `ingest` splits them).

    Text read by its first field: perhaps blank lines, then a header or a
    value as the first row, then lines that may be indented, blank or hold
    later fields, ended by "\n", "\r\n", a lone "\r" or a mix of them,
    and three short lines.  The file may start with a BOM.  It is counted
    in halves if the first row does not end in a lone "\r" before a
    line that is not empty, and more than two blocks of `chunk` follow it.
    """
    chunk = draw(st.integers(min_value=1, max_value=4))
    decimal_mark = draw(st.sampled_from([".", ","]))
    mode = draw(st.sampled_from([*LINE_ENDS, "mixed"]))
    blank = st.sampled_from(["", " ", "\t "])
    indent = st.sampled_from(["", "", " ", "\t"])
    later = st.sampled_from(["", "", " x", "\t7 y", " \u00e9"])
    value = st.one_of(st.sampled_from(SPLIT_FIELDS), numeric_texts())

    def end():
        return draw(st.sampled_from(LINE_ENDS)) if mode == "mixed" else mode

    def line():
        if draw(st.integers(min_value=0, max_value=6)) == 0:
            return draw(blank)
        return draw(indent) + draw(value).replace(".", decimal_mark) + draw(later)

    header = draw(st.booleans())
    first = "amount id" if header else draw(st.sampled_from(SPLIT_FIELDS)) + draw(later)
    head = "".join(draw(blank) + end() for _ in range(draw(st.integers(0, 2))))
    head += first.replace(".", decimal_mark)
    first_end = end()
    lines = [line() for _ in range(draw(st.integers(min_value=0, max_value=40)))] + ["7", "8", "9"]
    rest = "".join(line + end() for line in lines)
    if draw(st.booleans()):
        rest = rest.rstrip("\r\n")
    bom = draw(st.booleans()) * "\ufeff"
    data = (bom + head + first_end + rest).encode()
    # A "\r" before a "\n" ends one line with it.  Before an empty line,
    # `tell` gives the byte after the "\r", with the "\r" held back.
    lone_cr = first_end == "\r" and not rest.startswith(("\n", "\r"))
    rest_bytes = len(rest.encode()) - (first_end == "\r" and rest.startswith("\n"))
    newline = draw(st.sampled_from(["", None]))
    return (data, None, None, decimal_mark, chunk, newline,
            not lone_cr and rest_bytes > 2 * 4 * chunk)


def check_halves(scheme, case, directory):
    """Check that `ingest` counts `case`'s file alike in two halves, in this process and per row."""
    data, column, delimiter, decimal_mark, chunk, newline, splits = case
    options = {"delimiter": delimiter, "decimal_mark": decimal_mark}
    path = directory / "values.txt"
    path.write_bytes(data)
    results = []
    for threads in (nullcontext, live_thread):
        with small_chunks(chunk), spied_helper() as helper, threads(), \
                open(path, encoding="utf-8-sig", newline=newline) as fh:
            results.append(ingest(fh, scheme, column, **options))
            assert fh.read() == ""  # the source is left at its end
        assert helper.called == (splits and threads is nullcontext)
    split, in_process = results
    assert split.counts == in_process.counts
    assert list(split.skip_reasons.items()) == list(in_process.skip_reasons.items())
    text = io.StringIO(data.decode("utf-8-sig"), newline=None).read()
    counts, skips = reference_ingest(text, scheme, column, **options)
    assert list(split.counts) == counts
    assert list(split.skip_reasons.items()) == list(skips.items())


def cell_across_the_middle(middle_of="the cell"):
    """A CSV whose rest has its middle in a quoted cell of 60 characters.

    The cell is 15 lines of "1,2", each of which a reader that starts
    inside the cell reads as a row.  The middle falls halfway through the
    cell, or in its last line, so that the line start after it is the
    cell's closing quote.  Rows of 9 bytes come before the cell's row and
    after it.
    """
    head = b"id,amount,note\n" + b"".join(b"%d,%d.5,x\n" % (i, i % 9 + 1) for i in range(10, 36))
    head += b'36,7,"'
    start, stop = len(head), len(head) + 60
    middle = (start + stop) // 2 if middle_of == "the cell" else stop - 2
    # The rest runs from the header's end, 15 bytes, to the file's.
    after = 2 * middle - 15 - (stop + 2)
    rows = [b"%d,5.5,x\n" % i for i in range(37, 37 + after // 9 - 1)]
    data = head + b"1,2\n" * 15 + b'"\n' + b"".join(rows) + b"99,5.5,x" + b"x" * (after % 9) + b"\n"
    assert (15 + len(data)) // 2 == middle
    return data


class TestReaderCountsInAHelperAsInProcess:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @FORKING
    @given(case=helper_inputs())
    # Every skip reason, with decimal commas, after a header of several lines.
    @example(case=('id;"amount";"a\nnote"\n1;"1,5";"a;b"\n2;;x\n3;n/a;y\n4;0,0;z\n'
                   '5;-0,05;w\n6; 7 ;v\n7;8;\n'.encode(), "amount", ";", ",", 2, "", True))
    # A quoted cell of many lines across the middle of the rest.
    @example(case=(cell_across_the_middle(), "amount", ",", ".", 2, None, True))
    def test_helper_and_in_process_counts_are_equal(self, scheme, case, tmp_path_factory):
        check_halves(scheme, case, tmp_path_factory.mktemp("halves"))

    def test_the_fork_draws_no_warning(self, tmp_path):
        # Python 3.12 and later warn when a process that runs threads forks.
        with small_chunks(2), spied_helper() as helper, \
                open(halves_file(tmp_path), encoding="utf-8") as fh, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ingest(fh, FIRST_DIGIT, "amount")
        assert helper.called and caught == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads counted by Python")
    def test_a_thread_that_python_did_not_start_keeps_the_count_here(self, tmp_path):
        # A thread started by _thread, as a native library starts one, is not
        # among threading's threads; the operating system counts it.
        path = halves_file(tmp_path)
        started, release = _thread.allocate_lock(), _thread.allocate_lock()
        started.acquire()
        release.acquire()
        _thread.start_new_thread(lambda: (started.release(), release.acquire()), ())
        started.acquire()
        try:
            assert threading.active_count() == 1
            with small_chunks(2), spied_helper() as helper, open(path, encoding="utf-8") as fh:
                counts = ingest(fh, FIRST_DIGIT, "amount")
            assert not helper.called and counts.n == 8000
        finally:
            release.release()
        deadline = time.monotonic() + 60
        while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(os.listdir("/proc/self/task")) == 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    @FORKING
    @given(case=split_texts())
    # A first row ended by a lone "\r", whose position is no plain byte offset,
    # and one ended by "\n" before lines ended by a lone "\r".
    @example(case=(b"5\r" + b"7\r" * 20, None, None, ".", 1, "", False))
    @example(case=(b"amount\n" + b"7\r" * 20, None, None, ".", 1, "", True))
    # A BOM, a header and a non-ASCII line across a split of "\r\n" lines.
    @example(case=(("\ufeffamount id\r\n" + "\u00e9 5\r\n-0,5 x\r\n" * 9 + "7\r\n").encode(),
                   None, None, ",", 2, None, True))
    # A blank line after the first row, before which `tell` may hold back its "\r".
    @example(case=(b"amount id\r\n\r\n7\r\n8\r\n9\r\n", None, None, ".", 1, None, True))
    def test_a_text_file_counted_in_two_halves_counts_as_in_process(self, scheme, case,
                                                                    tmp_path_factory):
        check_halves(scheme, case, tmp_path_factory.mktemp("halves"))

    @pytest.mark.parametrize("newline", ["", None])
    @pytest.mark.parametrize("middle_of, limit", [
        ("the cell", None), ("the cell", 100), ("the last line", 60)],
        ids=["default-limit", "helper-refused", "cut-at-the-limit"])
    def test_a_quoted_cell_across_the_middle_is_counted_here(self, tmp_path, newline, middle_of,
                                                             limit):
        # The helper's half starts in a quoted cell.  Read from there, the
        # cell's lines are rows and its closing quote opens a cell that runs
        # to the end of the file, which a field size limit of 100 or 60
        # refuses: the helper fails.  Neither its counts nor its error may
        # reach the result.  Cut at its closing quote, the 60-character cell
        # and the blank line after this half are 61 characters, which a
        # limit of 60 refuses in this half alone.
        old_limit = csv.field_size_limit(limit or csv.field_size_limit())
        try:
            check_halves(FIRST_TWO_DIGITS, (cell_across_the_middle(middle_of), "amount", ",", ".",
                                            2, newline, True), tmp_path)
        finally:
            csv.field_size_limit(old_limit)

    @pytest.mark.parametrize("kind", ["text", "csv"])
    def test_only_a_utf8_file_of_more_than_two_blocks_is_counted_in_halves(self, tmp_path, kind):
        # Blocks of 4 * 2 characters: the rest of the text is many blocks,
        # and the short file's is two.
        column, row = KINDS[kind]
        header = "amount\n" if column is None else "id,amount\n"
        text = header + "".join(row(i, f"{i % 9 + 1}.5") for i in range(80))
        short = header + ("1.5\n2.5\n3.5\n4.5\n" if column is None else "1,5\n2,6\n3,7\n4,8\n")
        paths = {}
        for name, content, encoding in (("text", text, "utf-8"), ("short", short, "utf-8"),
                                        ("latin", text, "latin-1"),
                                        ("cr", text.replace("\n", "\r"), "utf-8")):
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_bytes(content.encode(encoding))
        with gzip.open(tmp_path / "text.txt.gz", "wt", encoding="utf-8") as fh:
            fh.write(text)

        @contextmanager
        def pipe():
            read_end, write_end = os.pipe()
            os.write(write_end, text.encode())
            os.close(write_end)
            with open(read_end, encoding="utf-8", newline="") as fh:
                yield fh

        def opened(name, encoding="utf-8-sig", newline=""):
            return lambda: open(paths[name], encoding=encoding, newline=newline)

        sources = {
            "file": (opened("text"), True),
            "file-newline-none": (opened("text", "utf-8", None), True),
            "file-newline-lf": (opened("text", "utf-8", "\n"), False),
            "file-of-two-blocks": (opened("short"), False),
            "first-row-ended-by-a-lone-cr": (opened("cr"), False),
            "latin-1-file": (opened("latin", "latin-1"), False),
            "gzip-file": (lambda: gzip.open(tmp_path / "text.txt.gz", "rt", encoding="utf-8",
                                            newline=""), False),
            "pipe": (pipe, False),
            "str": (lambda: nullcontext(text), False),
            "StringIO": (lambda: io.StringIO(text, newline=""), False),
            "list": (lambda: nullcontext(text.splitlines(keepends=True)), False),
        }
        for name, (source, halves) in sources.items():
            with small_chunks(2), spied_helper() as helper, source() as s:
                counts = ingest(s, FIRST_DIGIT, column)
            assert helper.called == halves, name
            assert counts.n == (4 if name == "file-of-two-blocks" else 80), name
        with small_chunks(2), spied_helper() as helper, live_thread(), opened("text")() as s:
            assert ingest(s, FIRST_DIGIT, column).n == 80
        assert not helper.called


# How each kind of file is read: (the column, a line of the file from its index and value).
KINDS = {"text": (None, lambda i, value: f"{value}\n"),
         "csv": ("amount", lambda i, value: f"{i},{value}\n")}


def halves_file(tmp_path, kind="csv", bad_line=None, bad="\udcff7"):
    """A file of 8,000 values after a header, counted in halves in blocks of 4 * 2.

    The values are a text file's first field or a CSV's second column.
    Line `bad_line`, if given, holds the value `bad`, by default one that
    starts with a byte that is not UTF-8.  Each half is more than 8,192
    bytes, the first read of a file.
    """
    column, row = KINDS[kind]
    values = [f"{i % 9 + 1}.5" for i in range(8000)]
    if bad_line is not None:
        values[bad_line] = bad
    path = tmp_path / f"values.{kind}"
    header = "amount\n" if column is None else "id,amount\n"
    text = header + "".join(map(row, range(8000), values))
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


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
    def test_a_helper_reaped_elsewhere_still_counts(self, handler, tmp_path):
        path = halves_file(tmp_path)
        with small_chunks(2), live_thread(), open(path, encoding="utf-8") as fh:
            expected = ingest(fh, FIRST_TWO_DIGITS, "amount")
        # One count here, of this process's half: the helper's report is read.
        with small_chunks(2), spied_helper() as helper, sigchld(handler), \
                open(path, encoding="utf-8") as fh, \
                mock.patch.object(digits, "_count", wraps=digits._count) as counted:
            result = ingest(fh, FIRST_TWO_DIGITS, "amount")
        assert helper.called and counted.call_count == 1 and result == expected
        assert no_child_is_left()

    @pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
    @pytest.mark.parametrize("bad_line", [3000, 7000], ids=["this-half", "helper-half"])
    def test_csv_refused_in_either_half_raises_it(self, tmp_path, bad_line, quote):
        # csv.reader refuses a cell longer than csv.field_size_limit(),
        # quoted or not; the helper inherits the limit.
        path = halves_file(tmp_path, "csv", bad_line, quote + "9" * 200 + quote)
        old_limit = csv.field_size_limit(100)
        try:
            with small_chunks(2), spied_helper() as helper, \
                    open(path, encoding="utf-8", newline="") as fh, \
                    pytest.raises(ValueError, match="malformed CSV") as raised:
                ingest(fh, FIRST_DIGIT, "amount")
        finally:
            csv.field_size_limit(old_limit)
        assert isinstance(raised.value.__cause__, csv.Error)
        assert helper.called and no_child_is_left()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("handler", SIGCHLD_HANDLERS)
    @pytest.mark.parametrize("bad_line", [3000, 7000], ids=["this-half", "helper-half"])
    def test_text_that_is_not_utf8_in_either_half_raises_it(self, tmp_path, handler, bad_line,
                                                             kind):
        path = halves_file(tmp_path, kind, bad_line)
        with small_chunks(2), spied_helper() as helper, sigchld(handler), \
                pytest.raises(UnicodeDecodeError), open(path, encoding="utf-8-sig") as fh:
            ingest(fh, FIRST_DIGIT, KINDS[kind][0])
        assert helper.called and no_child_is_left()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("handler", SIGCHLD_HANDLERS)
    def test_interrupt_while_counting_this_half_stops_the_helper(self, tmp_path, monkeypatch,
                                                                 handler, kind):
        # The helper inherits the patch, which interrupts this process at its
        # first block and gives the helper 20 ms a block: 40 s for its half.
        parent, plain = os.getpid(), digits._plain

        def interrupted_here(block):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(0.02)
            return plain(block)

        monkeypatch.setattr(digits, "_plain", interrupted_here)
        path = halves_file(tmp_path, kind)
        start = time.monotonic()
        with small_chunks(2), spied_helper() as helper, sigchld(handler), \
                pytest.raises(KeyboardInterrupt), open(path, encoding="utf-8", newline="") as fh:
            ingest(fh, FIRST_DIGIT, KINDS[kind][0])
        assert helper.called and no_child_is_left()
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("handler", SIGCHLD_HANDLERS)
    @pytest.mark.parametrize("failure", ["error", "cut-report"])
    def test_a_failed_helper_leaves_its_half_to_be_counted_here(self, tmp_path, monkeypatch,
                                                                failure, handler, kind):
        path, column = halves_file(tmp_path, kind), KINDS[kind][0]
        with small_chunks(2), live_thread(), open(path, encoding="utf-8") as fh:
            expected = ingest(fh, FIRST_TWO_DIGITS, column)
        # The helper inherits the patch, which fails it and nothing here.
        parent, tally = os.getpid(), digits._tally

        def failing_in_the_helper(*args):
            if os.getpid() != parent:
                raise MemoryError("no memory left in the helper")
            return tally(*args)

        if failure == "error":
            monkeypatch.setattr(digits, "_tally", failing_in_the_helper)
        else:
            # The helper sends all but the last bytes of its report.
            monkeypatch.setattr(digits, "marshal", SimpleNamespace(
                dumps=lambda report: marshal.dumps(report)[:-3], loads=marshal.loads))
        with small_chunks(2), spied_helper() as helper, sigchld(handler), \
                open(path, encoding="utf-8") as fh:
            result = ingest(fh, FIRST_TWO_DIGITS, column)
        assert helper.called and result == expected and no_child_is_left()

    def test_a_fork_that_fails_counts_in_process(self, monkeypatch, tmp_path):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        path = halves_file(tmp_path)
        with small_chunks(2), live_thread(), open(path, encoding="utf-8") as fh:
            expected = ingest(fh, FIRST_TWO_DIGITS, "amount")
        monkeypatch.setattr(os, "fork", no_fork)
        with small_chunks(2), spied_helper() as helper, open(path, encoding="utf-8") as fh:
            open_fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
            result = ingest(fh, FIRST_TWO_DIGITS, "amount")
            # The pipe made for the helper is closed.
            assert open_fds is None or os.listdir("/proc/self/fd") == open_fds
        assert helper.called and result == expected

    def test_an_error_raised_after_the_fork_closes_the_pipes(self, monkeypatch, tmp_path):
        # Python 3.12 and later may raise a fork-with-threads warning, as an
        # error where warnings are errors, in this process after the fork.
        real_fork, forked = os.fork, []

        def fork_then_warn():
            pid = real_fork()
            if pid:
                forked.append(pid)
                raise DeprecationWarning("this process is multi-threaded")
            return pid

        path = halves_file(tmp_path)
        monkeypatch.setattr(os, "fork", fork_then_warn)
        with small_chunks(2), open(path, encoding="utf-8") as fh:
            open_fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
            with pytest.raises(DeprecationWarning):
                ingest(fh, FIRST_DIGIT, "amount")
            assert open_fds is None or os.listdir("/proc/self/fd") == open_fds
        # The helper finds its pipe closed and leaves.
        deadline = time.monotonic() + 60
        while not os.waitpid(forked[0], os.WNOHANG)[0]:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert no_child_is_left()

    def test_text_not_utf8_in_the_helpers_half_exits_the_command_naming_the_file(
            self, tmp_path, capsys):
        path = halves_file(tmp_path, "text", 7000)
        with small_chunks(2), spied_helper() as helper:
            code = main(["analyze", str(path)])
        out, err = capsys.readouterr()
        assert helper.called and code == 2 and out == ""
        assert err.startswith(f"benfordsev: error: {str(path)!r} is not UTF-8 text: ")
        assert err.count("\n") == 1 and no_child_is_left()


class TestReaderFoldsTwoDigitsToTheFirst:
    @given(case=reader_inputs(), chunk=st.integers(min_value=1, max_value=7))
    def test_two_digit_counts_folded_by_tens_are_the_first_digit_counts(self, case, chunk):
        # The two-digit tally keys heads of three characters in a Counter; the
        # first-digit tally counts first characters with str.count.
        text, _, column, delimiter, decimal_mark = case
        options = {"delimiter": delimiter, "decimal_mark": decimal_mark}
        with small_chunks(chunk):
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
