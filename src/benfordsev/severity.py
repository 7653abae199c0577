"""Excess-MAD normal test and severity evaluation of conformity claims.

The test statistic is the standardized excess MAD: the observed MAD minus
its null expectation, scaled to be asymptotically standard normal.  A
rejection alone says nothing about the *size* of the misfit, so every test
outcome can also be graded against a substantive discrepancy benchmark
(delta*): the severity of the claim "excess MAD exceeds delta*" is the
probability of observing a result agreeing less with that claim than the
actual one does, were the claim false.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

from . import specialfn
from .asymptotics import _check_sample_size, mad_moments, standardized
from .benford import benford_probs, mad, proportions
from .digits import DigitCounts, DigitSystem


class SmallSampleWarning(UserWarning):
    """The normal approximation may be poor at this sample size."""


class CalibrationWarning(UserWarning):
    """A discrepancy calibration produced a suspicious value."""


class TestOutcome(NamedTuple):
    mad: float
    excess_delta: float   # MAD minus its null expectation
    tilde_delta: float    # standardized excess MAD, treated as N(0, 1), as in the paper
    p_value: float


# Shipped defaults: the substantive discrepancy benchmarks that the
# close-conformity MAD thresholds 0.006 (k = 9) and 0.0012 (k = 90) calibrate
# to over n in [n_min, 25000].  Every analysis accepts an override; the
# benchmark should really come from knowledge of the phenomenon under scrutiny.
DEFAULT_DELTA_STAR = {9: 0.00321, 90: 0.00037}
DEFAULT_N_MAX = 25000
# Expected count per digit cell below which the normal approximation is
# treated as unreliable; it sets the smallest recommended sample size.
MIN_EXPECTED_COUNT = 5.0

# _sum_inv_sqrt adds 1/sqrt(n) one term at a time below this n, and uses the
# Euler-Maclaurin formula from it on.
_DIRECT_BELOW = 64
# Euler-Maclaurin weights B_2k/(2k)! * (1/2)(3/2)...(2k - 3/2) for k = 1..4.
# The next term is below 1e-20 at n = 64.
_EULER_MACLAURIN = (1 / 24, -1 / 384, 1 / 1024, -143 / 163840)


def default_delta_star(system: DigitSystem) -> float:
    return DEFAULT_DELTA_STAR[system.k]


def n_min_for(system: DigitSystem) -> int:
    """Smallest n giving every digit cell an expected count >= MIN_EXPECTED_COUNT."""
    return math.ceil(MIN_EXPECTED_COUNT / min(benford_probs(system)))


def run_test_from_proportions(p: Sequence[float], n: int, system: DigitSystem) -> TestOutcome:
    """Excess-MAD normal test computed from proportions and sample size."""
    observed_mad = mad(p, benford_probs(system))
    excess = observed_mad - mad_moments(system, n).mean
    tilde = standardized(excess, n, system)
    return TestOutcome(
        mad=observed_mad,
        excess_delta=excess,
        tilde_delta=tilde,
        p_value=tilde_tails(tilde, 0.0)[1],
    )


def run_test(counts: DigitCounts) -> TestOutcome:
    """Excess-MAD normal test of conformity for one counted sample.

    Warns (does not refuse) when n is below the size giving each digit an
    expected count of 5, where the normal approximation degrades.
    """
    if counts.n < 1:
        raise ValueError("cannot test an empty sample")
    floor = n_min_for(counts.system)
    if counts.n < floor:
        warnings.warn(
            f"sample size {counts.n} is below the recommended minimum {floor} "
            f"for this digit scheme; the test distribution is approximate",
            SmallSampleWarning,
            stacklevel=2,
        )
    return run_test_from_proportions(proportions(counts), counts.n, counts.system)


def tilde_tails(tilde: float, location: float) -> tuple[float, float]:
    """Lower and upper tails at tilde of N(location, 1), the law of the test statistic.

    The location is 0 under the digit law and the noncentrality under the
    benchmark delta*.  Each tail is computed as its own normal tail, never as
    1 minus the other, so each keeps its accuracy where it is near 0.
    """
    return specialfn.std_normal_cdf(tilde - location), specialfn.std_normal_cdf(location - tilde)


def severity_of_rejection(
    tilde_delta_obs: float, delta_star: float, n: int, system: DigitSystem
) -> float:
    """Severity of the claim "excess MAD exceeds delta_star" after a rejection: the lower tail."""
    return tilde_tails(tilde_delta_obs, _noncentrality(delta_star, n, system))[0]


def severity_of_acceptance(
    tilde_delta_obs: float, delta_star: float, n: int, system: DigitSystem
) -> float:
    """Severity of the mirror claim "excess MAD is at most delta_star": the upper tail."""
    return tilde_tails(tilde_delta_obs, _noncentrality(delta_star, n, system))[1]


def _noncentrality(delta_star: float, n: int, system: DigitSystem) -> float:
    """The benchmark delta_star in null standard deviations: the test's mean under it."""
    if not delta_star >= 0.0:
        raise ValueError("delta_star must be nonnegative")
    return standardized(delta_star, n, system)


def delta_star(system: DigitSystem, threshold: float, n_min: int, n_max: int) -> float:
    """Average headroom of the close-conformity threshold over the null MAD.

    The exact discrete mean over integer sample sizes n in [n_min, n_max]
    of (threshold - E(MAD_n)).  E(MAD_n) = E(MAD_1)/sqrt(n), so this is
    threshold - E(MAD_1) * mean(1/sqrt(n)).  A negative value means the
    threshold sits below the average null expectation and is reported with
    a warning rather than an error.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    if n_min > n_max:
        raise ValueError(f"n_min={n_min} exceeds n_max={n_max}")
    _check_sample_size(n_min)
    _check_sample_size(n_max)
    mean_inv_sqrt = _sum_inv_sqrt(n_min, n_max) / (n_max - n_min + 1)
    value = threshold - mad_moments(system, 1).mean * mean_inv_sqrt
    if value < 0.0:
        warnings.warn(
            f"calibrated discrepancy {value:.3g} is negative: threshold "
            f"{threshold} lies below the average null expectation",
            CalibrationWarning,
            stacklevel=2,
        )
    return value


def _sum_inv_sqrt(n_min: int, n_max: int) -> float:
    """Sum of 1/sqrt(n) over integer n in [n_min, n_max], in constant time.

    Terms below _DIRECT_BELOW are summed one by one; the rest, over [a, b],
    by Euler-Maclaurin: 2(sqrt(b) - sqrt(a)), written as
    2(b - a)/(sqrt(b) + sqrt(a)) so that nothing cancels, plus the mean of
    the end terms and the odd-derivative corrections
    w_k (a^(1/2 - 2k) - b^(1/2 - 2k)).  All parts are combined by math.fsum.
    """
    a = min(max(n_min, _DIRECT_BELOW), n_max + 1)
    terms = [1.0 / math.sqrt(n) for n in range(n_min, a)]
    if a <= n_max:
        root_a, root_b = math.sqrt(a), math.sqrt(n_max)
        terms += [2.0 * (n_max - a) / (root_b + root_a), 0.5 / root_a, 0.5 / root_b]
        terms += [
            w * (root_a ** (1 - 4 * k) - root_b ** (1 - 4 * k))
            for k, w in enumerate(_EULER_MACLAURIN, 1)
        ]
    return math.fsum(terms)


def chi_square_severity(x_obs: float, psi_star: float, system: DigitSystem) -> float:
    """Severity of "quadratic discrepancy exceeds psi_star" for Pearson's test.

    Under the benchmark alternative the statistic is noncentral chi-square
    with k-1 degrees of freedom and noncentrality psi_star.  There is no
    shipped default for psi_star: many different psi values are consistent
    with any given MAD, so the benchmark must come from the user.  A psi_star
    above specialfn.MAX_NONCENTRALITY raises ValueError.
    """
    if not x_obs >= 0.0:
        raise ValueError("observed statistic must be nonnegative")
    if not psi_star >= 0.0:
        raise ValueError("psi_star must be nonnegative")
    return specialfn.noncentral_chi2_cdf(x_obs, system.k - 1, psi_star)

