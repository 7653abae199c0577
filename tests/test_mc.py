import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from benfordsev.asymptotics import build_constants, mad_moments
from benfordsev.benford import benford_probs, proportions
from benfordsev.digits import FIRST_DIGIT, FIRST_TWO_DIGITS, DigitCounts
from benfordsev.mc import SimulationReport, sample_benford_counts, simulate
from benfordsev.severity import run_test_from_proportions

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def binomial_mean_abs_deviation(n: int, p: float) -> float:
    """E|X - np| for X ~ Binomial(n, p), by De Moivre's closed form:
    2 (m + 1) C(n, m + 1) p^(m + 1) (1 - p)^(n - m), with m = floor(np)."""
    m = math.floor(n * p)
    log_term = (math.lgamma(n + 1) - math.lgamma(m + 2) - math.lgamma(n - m)
                + (m + 1) * math.log(p) + (n - m) * math.log1p(-p))
    return 2 * (m + 1) * math.exp(log_term)


def exact_mad_mean(system, n: int) -> float:
    """E[MAD_n] under the exact digit law: the mean over cells of E|X_j/n - b_j|."""
    return math.fsum(binomial_mean_abs_deviation(n, p) for p in benford_probs(system)) / (system.k * n)


class TestSampleBenfordCounts:
    def test_single_record_occupies_one_cell(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = sample_benford_counts(FIRST_DIGIT, 1, rng)
            assert sum(counts.counts) == 1
            assert max(counts.counts) == 1

    def test_empty_sample_is_refused(self):
        with pytest.raises(ValueError, match=r"^n must be at least 1$"):
            sample_benford_counts(FIRST_DIGIT, 0, np.random.default_rng(5))

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(6)
        counts = sample_benford_counts(FIRST_TWO_DIGITS, 12345, rng)
        assert sum(counts.counts) == counts.n == 12345

    def test_seed_reproducibility(self):
        a = sample_benford_counts(FIRST_DIGIT, 1000, np.random.default_rng(99))
        b = sample_benford_counts(FIRST_DIGIT, 1000, np.random.default_rng(99))
        assert a.counts == b.counts

    def test_law_of_large_numbers(self):
        # Mean counts over many replications approach n*b within 3 MC
        # standard errors per digit.
        reps, n = 600, 1000
        b = np.asarray(benford_probs(FIRST_DIGIT))
        rng = np.random.default_rng(1234)
        totals = np.zeros(9)
        for _ in range(reps):
            totals += sample_benford_counts(FIRST_DIGIT, n, rng).counts
        means = totals / reps
        se = np.sqrt(n * b * (1.0 - b) / reps)
        assert np.all(np.abs(means - n * b) <= 3.0 * se)


class TestSimulate:
    def test_determinism(self):
        a = simulate(system=FIRST_DIGIT, n=2000, reps=100, seed=77)
        b = simulate(system=FIRST_DIGIT, n=2000, reps=100, seed=77)
        assert a == b

    def test_moments_against_theory_first_digit(self):
        report = simulate(system=FIRST_DIGIT, n=20000, reps=400, seed=28)
        assert abs(report.empirical_mad_mean / report.theoretical_mad_mean - 1) < 0.03
        assert abs(report.empirical_mad_sd / report.theoretical_mad_sd - 1) < 0.12
        assert abs(report.tilde_delta_mean) < 0.15
        assert abs(report.tilde_delta_sd - 1.0) < 0.15

    def test_folded_means_first_two_digits(self):
        report = simulate(system=FIRST_TWO_DIGITS, n=20000, reps=300, seed=28)
        folded = np.asarray(report.digit_folded_means)
        se = np.asarray(report.folded_mean_se)
        assert np.all(np.abs(folded - SQRT_2_OVER_PI) <= 4.0 * se)

    def test_mc_standard_errors_reported(self):
        report = simulate(system=FIRST_DIGIT, n=1000, reps=200, seed=3)
        assert report.mad_mean_se > 0
        assert report.tilde_delta_mean_se > 0
        assert len(report.folded_mean_se) == 9

    def test_exact_mad_mean_oracle(self):
        # De Moivre's form against the sum over every outcome at a small n.
        n = 37
        for p in benford_probs(FIRST_DIGIT):
            brute = math.fsum(math.comb(n, x) * p**x * (1 - p) ** (n - x) * abs(x - n * p)
                              for x in range(n + 1))
            assert binomial_mean_abs_deviation(n, p) == pytest.approx(brute, rel=1e-12)

    def test_approximation_improves_with_n(self):
        # The convergence claim, on exact values: the relative gap between
        # E[MAD_n] and its asymptotic value shrinks through n = 500, 5000,
        # 50000 (3.0e-4, 1.2e-5, 3.7e-6).  It is not monotone in n: the
        # lattice of counts makes it -3.8e-4 at n = 1000.  At each n the
        # simulated MAD mean lies within 4 MC standard errors of the exact one.
        gaps = []
        for n in (500, 5000, 50000):
            exact = exact_mad_mean(FIRST_DIGIT, n)
            gaps.append(abs(exact / mad_moments(FIRST_DIGIT, n).mean - 1.0))
            report = simulate(system=FIRST_DIGIT, n=n, reps=2000, seed=0)
            assert abs(report.empirical_mad_mean - exact) < 4.0 * report.mad_mean_se
        assert gaps[0] > gaps[1] > gaps[2]

    def test_json_round_trip(self):
        import json

        report = simulate(system=FIRST_DIGIT, n=500, reps=50, seed=11)
        payload = report.to_json()
        assert json.dumps(json.loads(payload), indent=2) == payload
        data = json.loads(payload)
        assert data["empirical_mad_mean"] == report.empirical_mad_mean
        assert data["digit_folded_means"] == list(report.digit_folded_means)

    def test_peak_memory_well_below_a_float64_matrix(self):
        # At this n the counts take 2 bytes a cell, a quarter of a float64
        # (reps, k) matrix, and the moments add one buffer of a block of rows.
        # Holding the float64 matrix and its std temporary took twice it.
        reps, n = 5000, 20000
        simulate(FIRST_TWO_DIGITS, n, 2, 1)  # numpy's import and the cached constants
        tracemalloc.start()
        try:
            simulate(FIRST_TWO_DIGITS, n, reps, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < reps * FIRST_TWO_DIGITS.k * 8 / 2

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            simulate(system=FIRST_DIGIT, n=0, reps=10, seed=1)
        # numpy's multinomial draws take n as a 64-bit signed integer.
        with pytest.raises(ValueError, match="below 2"):
            simulate(system=FIRST_DIGIT, n=2**63, reps=10, seed=1)
        with pytest.raises(ValueError):
            simulate(system=FIRST_DIGIT, n=10, reps=0, seed=1)
        # A standard deviation over replications needs at least two of them.
        with pytest.raises(ValueError, match="at least 2"):
            simulate(system=FIRST_DIGIT, n=10, reps=1, seed=1)
        # Refused before the counts of 2**32 + 1 replications are allocated.
        with pytest.raises(ValueError, match=r"at most 2\*\*32"):
            simulate(system=FIRST_DIGIT, n=10, reps=2**32 + 1, seed=1)

    def test_negative_seed_rejected(self):
        # numpy refuses it too, but without naming the seed.
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
            simulate(system=FIRST_DIGIT, n=10, reps=2, seed=-1)


def reference_simulate(system, n: int, reps: int, seed: int) -> SimulationReport:
    """One replication at a time from one default_rng(seed): draw, form
    proportions, run the test, fold."""
    rng = np.random.default_rng(seed)
    draws = [sample_benford_counts(system, n, rng) for _ in range(reps)]
    return report_of_draws(system, n, seed, draws)


def report_of_draws(system, n: int, seed: int, draws: list[DigitCounts]) -> SimulationReport:
    """The report of a run whose replications drew `draws`, one at a time."""
    reps = len(draws)
    b = np.asarray(benford_probs(system))
    d_vec = np.asarray(build_constants(system).d_vec)
    mads, tildes, folded = [], [], []
    for counts in draws:
        p = proportions(counts)
        outcome = run_test_from_proportions(p, n, system)
        mads.append(outcome.mad)
        tildes.append(outcome.tilde_delta)
        folded.append(math.sqrt(n) * np.abs(np.asarray(p) - b) / d_vec)
    mads, tildes, folded = np.array(mads), np.array(tildes), np.array(folded)
    moments = mad_moments(system, n)
    return SimulationReport(
        digits=system.digits,
        k=system.k,
        n=n,
        reps=reps,
        seed=seed,
        empirical_mad_mean=float(mads.mean()),
        empirical_mad_sd=float(mads.std(ddof=1)),
        theoretical_mad_mean=moments.mean,
        theoretical_mad_sd=moments.sd,
        tilde_delta_mean=float(tildes.mean()),
        tilde_delta_sd=float(tildes.std(ddof=1)),
        digit_folded_means=tuple(float(v) for v in folded.mean(axis=0)),
        expected_folded_mean=math.sqrt(2.0 / math.pi),
        mad_mean_se=float(mads.std(ddof=1) / math.sqrt(reps)),
        tilde_delta_mean_se=float(tildes.std(ddof=1) / math.sqrt(reps)),
        folded_mean_se=tuple(float(v) for v in folded.std(axis=0, ddof=1) / math.sqrt(reps)),
    )


class TestVectorisedSimulateMatchesPerReplicationLoop:
    @given(
        system=st.sampled_from([FIRST_DIGIT, FIRST_TWO_DIGITS]),
        n=st.integers(1, 10**6),
        reps=st.integers(2, 40),
        seed=st.integers(0, 2**128),
    )
    @example(system=FIRST_DIGIT, n=1, reps=2, seed=0)
    @example(system=FIRST_TWO_DIGITS, n=1, reps=40, seed=2**128)
    @example(system=FIRST_TWO_DIGITS, n=10**6, reps=2, seed=7)
    # More replications than one block of draws.
    @example(system=FIRST_TWO_DIGITS, n=50, reps=1100, seed=2**128)
    @example(system=FIRST_DIGIT, n=50, reps=1100, seed=2**128)
    # Each side of a boundary of the integer type that holds the counts.
    @example(system=FIRST_TWO_DIGITS, n=255, reps=3, seed=1)
    @example(system=FIRST_TWO_DIGITS, n=256, reps=3, seed=1)
    @example(system=FIRST_DIGIT, n=65535, reps=3, seed=1)
    @example(system=FIRST_DIGIT, n=65536, reps=3, seed=1)
    @example(system=FIRST_DIGIT, n=2**32, reps=3, seed=1)
    @example(system=FIRST_TWO_DIGITS, n=2**40, reps=3, seed=1)
    # Replications that end partway through a block of moments.
    @example(system=FIRST_DIGIT, n=300, reps=513, seed=5)
    @example(system=FIRST_TWO_DIGITS, n=300, reps=513, seed=5)
    @example(system=FIRST_DIGIT, n=300, reps=1025, seed=5)
    @example(system=FIRST_TWO_DIGITS, n=300, reps=1025, seed=5)
    @example(system=FIRST_DIGIT, n=300, reps=1537, seed=5)
    @example(system=FIRST_TWO_DIGITS, n=300, reps=1537, seed=5)
    def test_report_is_byte_identical(self, system, n, reps, seed):
        args = (system, n, reps, seed)
        assert simulate(*args).to_json() == reference_simulate(*args).to_json()

    def test_run_is_a_prefix_of_a_longer_run(self):
        # Replication r is the r-th draw of one stream, however the run is split
        # into blocks: a run of R replications reports the first R rows of one
        # draw of a longer run.
        system, n, seed = FIRST_TWO_DIGITS, 700, 9
        rows = np.random.default_rng(seed).multinomial(n, benford_probs(system), size=1100)
        draws = [DigitCounts(system, tuple(int(c) for c in row)) for row in rows]
        for reps in (2, 511, 512, 513, 1100):
            got = simulate(system, n, reps, seed).to_json()
            assert got == report_of_draws(system, n, seed, draws[:reps]).to_json()

    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS], ids=["k9", "k90"])
    @pytest.mark.parametrize("n", [1, 50, 20000, 2**40])
    def test_block_draw_gives_the_rows_of_single_draws(self, system, n):
        # simulate relies on this: a size=m multinomial draw consumes the
        # stream as m single draws do, so its rows do not depend on _BLOCK.
        b = benford_probs(system)
        block = np.random.default_rng(11).multinomial(n, b, size=7)
        rng = np.random.default_rng(11)
        singles = np.array([rng.multinomial(n, b) for _ in range(7)])
        assert np.array_equal(block, singles)

    @pytest.mark.parametrize("block", [1, 7, 512, 2000])
    def test_report_does_not_depend_on_block_size(self, monkeypatch, block):
        # Draws, MADs and the running column sums are all formed block by
        # block; the report must be the per-replication loop's at any size.
        monkeypatch.setattr("benfordsev.mc._BLOCK", block)
        args = (FIRST_TWO_DIGITS, 300, 1025, 5)
        assert simulate(*args).to_json() == reference_simulate(*args).to_json()
