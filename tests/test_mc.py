import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from benfordsev.asymptotics import build_constants, mad_moments
from benfordsev.benford import benford_probs, proportions
from benfordsev.digits import FIRST_DIGIT, FIRST_TWO_DIGITS
from benfordsev.mc import (
    SimulationReport,
    replication_states,
    sample_benford_counts,
    simulate,
)
from benfordsev.severity import run_test_from_proportions

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """The generator of replication `rep` in a run seeded `seed`, built by numpy."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


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

    def test_parallel_split_equivalence(self):
        # Replication r must receive the same stream whether the run is
        # serial or split by replication index.
        seed, n = 321, 800
        children = np.random.SeedSequence(seed).spawn(6)
        for r, child in enumerate(children):
            serial = sample_benford_counts(FIRST_DIGIT, n, np.random.default_rng(child))
            split = sample_benford_counts(FIRST_DIGIT, n, replication_rng(seed, r))
            assert serial.counts == split.counts

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

    def test_approximation_improves_with_n(self):
        # Fixed-seed realization of the convergence claim: the relative gap
        # between the empirical MAD mean and its asymptotic value shrinks
        # through n = 500, 5000, 50000.
        devs = []
        for n in (500, 5000, 50000):
            report = simulate(system=FIRST_DIGIT, n=n, reps=2000, seed=0)
            devs.append(abs(report.empirical_mad_mean / report.theoretical_mad_mean - 1.0))
        assert devs[0] > devs[1] > devs[2]

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

    def test_negative_seed_rejected(self):
        # numpy refuses it too, but without naming the seed.
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
            simulate(system=FIRST_DIGIT, n=10, reps=2, seed=-1)


class TestReplicationStates:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128, 2**200 + 3])
    def test_equal_to_numpy_construction(self, seed):
        # The second range crosses from one-word to two-word spawn keys.
        for start, stop in ((0, 600), (2**32 - 3, 2**32 + 3)):
            expected = []
            for r in range(start, stop):
                state = replication_rng(seed, r).bit_generator.state["state"]
                expected.append((state["state"], state["inc"]))
            assert list(replication_states(seed, start, stop)) == expected

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            list(replication_states(0, -1, 2))


def reference_simulate(system, n: int, reps: int, seed: int) -> SimulationReport:
    """One replication at a time: draw, form proportions, run the test, fold."""
    b = np.asarray(benford_probs(system))
    d_vec = np.asarray(build_constants(system).d_vec)
    mads, tildes, folded = [], [], []
    for r in range(reps):
        counts = sample_benford_counts(system, n, replication_rng(seed, r))
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
    # More replications than one block of derived states.
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
