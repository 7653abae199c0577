import math

import numpy as np
import pytest

from benfordsev.benford import (
    benford_probs,
    chi_square_stat,
    mad,
    pairwise_sum,
    proportions,
)
from benfordsev.digits import DigitCounts, FIRST_DIGIT, FIRST_TWO_DIGITS

# (1/9) * sum|1/9 - b_i|, frozen from direct high-precision evaluation.
MAD_UNIFORM_FIRST = 0.05971703510991757
# (1 - b_1)^2 / b_1 + sum_{i>=2} b_i  ==  1/b_1 - 1
CHI2_SINGLE_COUNT = 2.3219280948873623


def make_counts(values, system=FIRST_DIGIT):
    values = tuple(int(v) for v in values)
    return DigitCounts(system=system, counts=values)


class TestBenfordProbs:
    def test_first_digit_values(self):
        b = benford_probs(FIRST_DIGIT)
        assert b[0] == pytest.approx(0.301030, abs=1e-6)
        assert b[8] == pytest.approx(0.045757, abs=1e-6)

    def test_first_two_last_value(self):
        b = benford_probs(FIRST_TWO_DIGITS)
        assert b[89] == pytest.approx(0.0043648, abs=1e-7)

    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS])
    def test_sums_to_one(self, system):
        assert abs(math.fsum(benford_probs(system)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS])
    def test_strictly_decreasing(self, system):
        b = benford_probs(system)
        assert all(later < earlier for earlier, later in zip(b, b[1:]))

    def test_first_two_aggregates_to_first(self):
        b9 = benford_probs(FIRST_DIGIT)
        b90 = benford_probs(FIRST_TWO_DIGITS)
        for d in range(1, 10):
            block = math.fsum(b90[(10 * d - 10):(10 * d)])
            assert abs(block - b9[d - 1]) <= 1e-12


class TestProportions:
    def test_uniform_counts(self):
        counts = make_counts([1] * 9)
        assert all(p == 1.0 / 9.0 for p in proportions(counts))
        assert counts.n == 9

    def test_rounded_benford_counts_recover_probs(self):
        n = 10**6
        b = benford_probs(FIRST_DIGIT)
        counts = make_counts([round(n * bi) for bi in b])
        assert counts.n == n
        assert max(abs(p - bi) for p, bi in zip(proportions(counts), b)) <= 5e-7

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            proportions(make_counts([0] * 9))


class TestMad:
    def test_zero_at_exact_law(self):
        b = benford_probs(FIRST_DIGIT)
        p = list(b)
        assert mad(p, b) == 0.0

    def test_uniform_proportions(self):
        b = benford_probs(FIRST_DIGIT)
        p = np.full(9, 1.0 / 9.0)
        assert mad(p, b) == pytest.approx(MAD_UNIFORM_FIRST, rel=1e-12)

    def test_dimension_mismatch(self):
        b = benford_probs(FIRST_TWO_DIGITS)
        p = np.full(9, 1.0 / 9.0)
        with pytest.raises(ValueError):
            mad(p, b)

    def test_nonnegative_and_bounded(self):
        b = benford_probs(FIRST_DIGIT)
        bound = (2.0 / 9.0) * (1.0 - min(b))
        rng = np.random.default_rng(7)
        for _ in range(200):
            raw = rng.dirichlet(np.ones(9))
            value = mad(raw, b)
            assert 0.0 <= value <= bound + 1e-15


class TestChiSquare:
    def test_zero_at_exact_law(self):
        counts = make_counts([30, 18, 12, 10, 8, 7, 6, 5, 4])
        assert chi_square_stat(counts, proportions(counts)) == 0.0

    def test_single_count_on_digit_one(self):
        counts = make_counts([1, 0, 0, 0, 0, 0, 0, 0, 0])
        b = benford_probs(FIRST_DIGIT)
        assert chi_square_stat(counts, b) == pytest.approx(CHI2_SINGLE_COUNT, abs=1e-12)

    def test_integer_scaling_multiplies_statistic(self):
        counts = make_counts([30, 18, 12, 10, 8, 7, 6, 5, 4])
        scaled = make_counts([3 * c for c in counts.counts])
        b = benford_probs(FIRST_DIGIT)
        assert chi_square_stat(scaled, b) == pytest.approx(
            3.0 * chi_square_stat(counts, b), rel=1e-12
        )

    def test_empty_sample(self):
        b = benford_probs(FIRST_DIGIT)
        with pytest.raises(ValueError):
            chi_square_stat(make_counts([0] * 9), b)


def test_pairwise_sum_equals_numpy_sum_bit_for_bit():
    # Terms of mixed sign and magnitude, so the order of the additions shows in the rounding.
    rng = np.random.default_rng(2202)
    for length in range(129):
        for _ in range(50):
            xs = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 9, length)
            assert pairwise_sum(xs.tolist()) == np.sum(xs), length
