import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from benfordsev import severity
from benfordsev.asymptotics import build_constants, mad_moments, standardized
from benfordsev.benford import benford_probs
from benfordsev.cli import main
from benfordsev.digits import DigitCounts, FIRST_DIGIT, FIRST_TWO_DIGITS
from benfordsev.severity import (
    CalibrationWarning,
    SmallSampleWarning,
    chi_square_severity,
    default_delta_star,
    delta_star,
    n_min_for,
    run_test,
    run_test_from_proportions,
    severity_of_acceptance,
    severity_of_rejection,
    tilde_tails,
)
from benfordsev.specialfn import central_chi2_cdf, std_normal_cdf


class TestRunTest:
    def test_exact_law_gives_negative_statistic(self):
        b = benford_probs(FIRST_DIGIT)
        outcome = run_test_from_proportions(list(b), 5000, FIRST_DIGIT)
        assert outcome.mad == 0.0
        assert outcome.excess_delta == -mad_moments(FIRST_DIGIT, 5000).mean
        assert outcome.tilde_delta < 0.0
        assert outcome.p_value > 0.5

    def test_statistic_identity(self):
        counts = DigitCounts(system=FIRST_DIGIT, counts=(300, 170, 130, 99, 81, 70, 60, 50, 40))
        outcome = run_test(counts)
        c = build_constants(FIRST_DIGIT)
        expected = 9.0 * math.sqrt(1000) * outcome.excess_delta / math.sqrt(c.quad_form)
        assert abs(outcome.tilde_delta - expected) <= 1e-12
        assert outcome.p_value == std_normal_cdf(-outcome.tilde_delta)

    def test_counts_and_proportions_routes_agree(self):
        counts = DigitCounts(system=FIRST_DIGIT, counts=(300, 170, 130, 99, 81, 70, 60, 50, 40))
        p = np.asarray(counts.counts, dtype=float) / counts.n
        a = run_test(counts)
        b = run_test_from_proportions(p, counts.n, FIRST_DIGIT)
        assert a.tilde_delta == b.tilde_delta
        assert a.mad == b.mad

    def test_small_sample_warns(self):
        counts = DigitCounts(system=FIRST_DIGIT, counts=(20, 10, 8, 6, 5, 4, 3, 2, 2))
        with pytest.warns(SmallSampleWarning):
            run_test(counts)

    def test_empty_sample_rejected(self):
        counts = DigitCounts(system=FIRST_DIGIT, counts=(0,) * 9)
        with pytest.raises(ValueError):
            run_test(counts)

    def test_sample_size_beyond_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="largest float"):
            run_test_from_proportions(benford_probs(FIRST_DIGIT), 10**309, FIRST_DIGIT)


class TestTildeTails:
    def test_mean_shift_example_small_sample(self):
        # statistic 2, benchmark mean 0.2, sigma 2: ncp = sqrt(n) * 0.1
        assert tilde_tails(2.0, math.sqrt(100) * 0.1)[0] == pytest.approx(0.841, abs=1e-3)

    def test_mean_shift_example_large_sample(self):
        assert tilde_tails(2.0, math.sqrt(1000) * 0.1)[0] == pytest.approx(0.123, abs=1e-3)

    def test_zero_ncp_is_p_value_complement(self):
        assert tilde_tails(1.7, 0.0)[0] == std_normal_cdf(1.7)

    @given(
        st.sampled_from([FIRST_DIGIT, FIRST_TWO_DIGITS]),
        st.floats(min_value=-60.0, max_value=60.0),
        st.lists(st.floats(min_value=0.0, max_value=0.02), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=10**9),
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=90, max_size=90),
    )
    def test_p_value_severities_and_curve_are_its_tails(self, system, tilde, grid, n, counts):
        # The p-value, both severities and every severity-curve point are
        # the seam's normal tails bit for bit.
        counts = counts[: system.k]
        assume(sum(counts) > 0)
        outcome = run_test_from_proportions([c / sum(counts) for c in counts], n, system)
        assert outcome.p_value == tilde_tails(outcome.tilde_delta, 0.0)[1]
        argv = [
            "severity-curve", "--digits", str(system.digits), "--n", str(n),
            f"--tilde-delta={tilde!r}", "--grid", ",".join(map(repr, grid)), "--format", "json",
        ]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        points = json.loads(out.getvalue())["points"]
        assert [point["delta_star"] for point in points] == grid
        for ds, point in zip(grid, points):
            lower, upper = tilde_tails(tilde, standardized(ds, n, system))
            assert severity_of_rejection(tilde, ds, n, system) == lower
            assert severity_of_acceptance(tilde, ds, n, system) == upper
            assert point["severity"] == lower
            assert abs(lower + upper - 1.0) <= 2.0**-53


class TestSeverityOfRejection:
    @pytest.mark.parametrize(
        "tilde,n,system,expected,tol",
        [
            (6.621, 19451, FIRST_DIGIT, 0.41628, 2e-3),
            (3.065, 19509, FIRST_DIGIT, 0.00008, 5e-5),
            (15.591, 15194, FIRST_TWO_DIGITS, 1.00000, 1e-5),
        ],
    )
    def test_published_benchmark_rows(self, tilde, n, system, expected, tol):
        ds = default_delta_star(system)
        result = severity_of_rejection(tilde, ds, n, system)
        assert result == pytest.approx(expected, abs=tol)

    def test_zero_benchmark_equals_p_value_complement(self):
        result = severity_of_rejection(2.3, 0.0, 1000, FIRST_DIGIT)
        assert result == std_normal_cdf(2.3)

    def test_noncentrality_formula(self):
        c = build_constants(FIRST_DIGIT)
        result = severity_of_rejection(1.0, 0.004, 2500, FIRST_DIGIT)
        assert result == pytest.approx(
            tilde_tails(1.0, 9 * 50 * 0.004 / math.sqrt(c.quad_form))[0], rel=1e-12
        )

    def test_decreasing_in_delta_star(self):
        values = [
            severity_of_rejection(3.0, ds, 10000, FIRST_DIGIT)
            for ds in (0.0, 0.001, 0.00321, 0.006, 0.01)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_n(self):
        # The large-sample lesson: the same statistic supports a weaker
        # discrepancy claim as n grows.
        values = [
            severity_of_rejection(2.0, 0.00321, n, FIRST_DIGIT)
            for n in (100, 1000, 10000, 100000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_benchmark_rejected(self):
        with pytest.raises(ValueError):
            severity_of_rejection(1.0, -0.001, 100, FIRST_DIGIT)
        with pytest.raises(ValueError, match="^delta_star must be nonnegative$"):
            severity_of_rejection(1.0, math.nan, 100, FIRST_DIGIT)

    def test_sample_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1, got 0"):
            severity_of_rejection(1.0, 0.003, 0, FIRST_DIGIT)


class TestSeverityOfAcceptance:
    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=0.05),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=60)
    def test_complementarity(self, tilde, ds, n):
        # Each is its own normal tail, so their sum is 1 up to its rounding.
        rejection = severity_of_rejection(tilde, ds, n, FIRST_DIGIT)
        acceptance = severity_of_acceptance(tilde, ds, n, FIRST_DIGIT)
        assert abs(rejection + acceptance - 1.0) <= 2.0**-53

    def test_nonrejection_row_accepts_with_high_severity(self):
        result = severity_of_acceptance(1.018, 0.00037, 19509, FIRST_TWO_DIGITS)
        assert result == pytest.approx(1.0, abs=1e-4)

    def test_large_n_at_zero_statistic(self):
        result = severity_of_acceptance(0.0, 0.00321, 10**7, FIRST_DIGIT)
        assert result == pytest.approx(1.0, abs=1e-12)

    def test_far_tail_matches_mpmath(self):
        # At delta* = 0 the acceptance severity is Phi(-tilde), the p-value;
        # it stays accurate out to tilde ~ 37, where it is ~1e-300.
        mpmath = pytest.importorskip("mpmath")
        for i in range(0, 149):
            tilde = i / 4
            result = severity_of_acceptance(tilde, 0.0, 10**6, FIRST_DIGIT)
            assert result == pytest.approx(float(mpmath.ncdf(-tilde)), rel=1e-12, abs=0.0)
            assert result > 0.0


class TestNMin:
    def test_expected_count_five(self):
        assert n_min_for(FIRST_DIGIT) == 110
        assert n_min_for(FIRST_TWO_DIGITS) == 1146

    def test_minimality(self):
        min_b = min(benford_probs(FIRST_TWO_DIGITS))
        n = n_min_for(FIRST_TWO_DIGITS)
        assert n * min_b >= 5.0 > (n - 1) * min_b


class TestDeltaStar:
    def test_first_digit_calibration(self):
        assert delta_star(FIRST_DIGIT, 0.006, 110, 25000) == pytest.approx(0.00321, abs=5e-5)

    def test_first_two_calibration(self):
        assert delta_star(FIRST_TWO_DIGITS, 0.0012, 1146, 25000) == pytest.approx(0.00037, abs=2e-5)

    def test_threshold_at_average_mean_gives_zero(self):
        import warnings

        means = [mad_moments(FIRST_DIGIT, n).mean for n in range(110, 25001)]
        threshold = sum(means) / len(means)
        with warnings.catch_warnings():
            # the result may land a few ulps below zero and warn
            warnings.simplefilter("ignore", CalibrationWarning)
            assert delta_star(FIRST_DIGIT, threshold, 110, 25000) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_threshold(self):
        lo = delta_star(FIRST_DIGIT, 0.004, 110, 25000)
        hi = delta_star(FIRST_DIGIT, 0.008, 110, 25000)
        assert lo < hi

    def test_decreasing_in_n_min(self):
        early = delta_star(FIRST_DIGIT, 0.006, 110, 25000)
        late = delta_star(FIRST_DIGIT, 0.006, 5000, 25000)
        assert late > early  # dropping the small-n (large E(MAD)) part raises the average

    def test_negative_value_warns(self):
        with pytest.warns(CalibrationWarning):
            value = delta_star(FIRST_DIGIT, 0.0001, 110, 200)
        assert value < 0.0

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            delta_star(system=FIRST_DIGIT, threshold=0.006, n_min=200, n_max=100)

    def test_rejects_sample_sizes_below_one(self):
        for n_min, n_max in ((0, 100), (-5, -1)):
            with pytest.raises(ValueError, match=f"^sample size must be at least 1, got {n_min}$"):
                delta_star(system=FIRST_DIGIT, threshold=0.006, n_min=n_min, n_max=n_max)

    def test_threshold_is_checked_before_the_range(self):
        for threshold in (0.0, math.nan):
            with pytest.raises(ValueError, match="^threshold must be positive$"):
                delta_star(FIRST_DIGIT, threshold, 0, 100)

    @pytest.mark.parametrize("system, threshold, n_min, n_max", [
        (FIRST_DIGIT, 0.006, 110, 25000),
        (FIRST_TWO_DIGITS, 0.0012, 1146, 25000),
        (FIRST_DIGIT, 0.006, 1, 300000),  # several summation chunks
    ])
    def test_matches_fsum_of_the_defining_mean(self, system, threshold, n_min, n_max):
        e1 = mad_moments(system, 1).mean
        reference = math.fsum(
            threshold - e1 / math.sqrt(n) for n in range(n_min, n_max + 1)
        ) / (n_max - n_min + 1)
        assert delta_star(system, threshold, n_min, n_max) == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n_min, n_max", [
        (1, 1), (1, 2), (1, 63), (1, 64), (63, 64), (64, 64), (64, 65), (1, 1000),
        (110, 25000), (1146, 25000), (110, 10**6), (12345, 10**12),
        (2**53 - 5, 2**53 + 7), (10**19, 10**20), (1, 10**20),
    ])
    def test_sum_of_inverse_roots_against_hurwitz_zeta(self, n_min, n_max):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.zeta(0.5, n_min) - mpmath.zeta(0.5, n_max + 1)
            got = severity._sum_inv_sqrt(n_min, n_max)
            assert abs(got - exact) <= 4e-16 * exact

    def test_n_max_beyond_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="largest float"):
            delta_star(FIRST_DIGIT, 0.006, 110, 10**309)


class TestChiSquareSeverity:
    def test_zero_benchmark_is_central_cdf(self):
        result = chi_square_severity(12.0, 0.0, FIRST_DIGIT)
        assert result == pytest.approx(central_chi2_cdf(12.0, 8), rel=1e-12)

    def test_zero_statistic_has_zero_severity(self):
        for psi_star in (0.0, 5.0, 50.0):
            assert chi_square_severity(0.0, psi_star, FIRST_DIGIT) == 0.0

    def test_monotone_decreasing_in_benchmark(self):
        values = [
            chi_square_severity(30.0, ps, FIRST_DIGIT) for ps in (0.0, 5.0, 10.0, 20.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            chi_square_severity(-1.0, 5.0, FIRST_DIGIT)
        with pytest.raises(ValueError):
            chi_square_severity(1.0, -5.0, FIRST_DIGIT)
        with pytest.raises(ValueError, match="^observed statistic must be nonnegative$"):
            chi_square_severity(math.nan, 5.0, FIRST_DIGIT)
        with pytest.raises(ValueError, match="^psi_star must be nonnegative$"):
            chi_square_severity(1.0, math.nan, FIRST_DIGIT)


class TestDeltaStarMonotoneSeverityGrid:
    def test_severity_against_expanding_delta_grid(self):
        # Spot-check both digit schemes on a dense grid.
        for system in (FIRST_DIGIT, FIRST_TWO_DIGITS):
            grid = np.linspace(0.0, 0.02, 41)
            sev = [severity_of_rejection(4.0, ds, 15000, system) for ds in grid]
            assert all(a >= b for a, b in zip(sev, sev[1:]))
