import io

import pytest
from hypothesis import given, strategies as st

from benfordsev.digits import (
    FIRST_DIGIT,
    FIRST_TWO_DIGITS,
    ColumnError,
    DigitSystem,
    count_digits,
    first_digit,
    first_two_digits,
    ingest,
    parse_records,
)


class TestDigitSystem:
    def test_first_digit_scheme(self):
        assert FIRST_DIGIT.k == 9
        assert FIRST_DIGIT.digit_labels == tuple(range(1, 10))

    def test_first_two_scheme(self):
        assert FIRST_TWO_DIGITS.k == 90
        assert FIRST_TWO_DIGITS.digit_labels == tuple(range(10, 100))

    def test_from_digits(self):
        assert DigitSystem.from_digits(1) == FIRST_DIGIT
        assert DigitSystem.from_digits(2) == FIRST_TWO_DIGITS
        with pytest.raises(ValueError):
            DigitSystem.from_digits(3)


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

    @pytest.mark.parametrize("token", ["abc", "", "1.2.3", "nan", "inf", "1e", "--5"])
    def test_parse_errors(self, token):
        with pytest.raises(ValueError):
            first_digit(token)


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

    def test_empty_cells_reported(self):
        tokens, skips = parse_records(io.StringIO("x,y\n1,\n,2\n"), column="y")
        assert tokens == ["2"]
        assert skips == {"empty": 1}

    def test_whitespace_delimited(self):
        tokens, _ = parse_records(io.StringIO("1.5  2.5\n3.5 4.5\n"), column=1)
        assert tokens == ["2.5", "4.5"]

    def test_decimal_mark_option(self):
        tokens, _ = parse_records(io.StringIO("3,14\n2,7\n"), delimiter=";", decimal_mark=",")
        assert tokens == ["3.14", "2.7"]

    def test_decimal_comma_is_never_sniffed_as_delimiter(self):
        tokens, skips = parse_records(io.StringIO("0,05\n1,5\n2,5\n"), decimal_mark=",")
        assert tokens == ["0.05", "1.5", "2.5"]
        assert skips == {}


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
        assert counts.counts[FIRST_TWO_DIGITS.label_index(50)] == 3
        assert counts.n == 3

    def test_unparseable_tokens_tallied(self):
        counts = count_digits(["7", "bogus"], FIRST_DIGIT)
        assert counts.n == 1
        assert counts.skip_reasons == {"non-numeric": 1}

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

    def test_decimal_comma_first_two_digits(self):
        counts = ingest(io.StringIO("0,05\n1,5\n2,5\n"), FIRST_TWO_DIGITS, decimal_mark=",")
        assert counts.n == 3 and counts.skipped == 0
        labels = [label for label, c in zip(FIRST_TWO_DIGITS.digit_labels, counts.counts) if c]
        assert labels == [15, 25, 50]
