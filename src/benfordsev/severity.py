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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specialfn
from .asymptotics import build_constants, mad_moments
from .benford import Proportions, benford_probs, mad, proportions
from .digits import DigitCounts, DigitSystem


class SmallSampleWarning(UserWarning):
    """The normal approximation may be poor at this sample size."""


class CalibrationWarning(UserWarning):
    """A discrepancy calibration produced a suspicious value."""


class Claim(Enum):
    """Direction of the conformity claim being graded."""

    DISCREPANCY_EXCEEDS = "discrepancy exceeds benchmark"
    DISCREPANCY_AT_MOST = "discrepancy at most benchmark"


@dataclass(frozen=True)
class TestOutcome:
    system: DigitSystem
    n: int
    mad: float
    excess_delta: float   # MAD minus its null expectation
    tilde_delta: float    # standardized excess MAD, ~N(0,1) under the law
    p_value: float


@dataclass(frozen=True)
class SeverityResult:
    claim: Claim
    delta_star: float
    noncentrality: float
    severity: float


@dataclass(frozen=True)
class CalibrationConfig:
    system: DigitSystem
    threshold: float      # close-conformity MAD bound t
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if self.n_min > self.n_max:
            raise ValueError(f"n_min={self.n_min} exceeds n_max={self.n_max}")

    @staticmethod
    def default(system: DigitSystem) -> "CalibrationConfig":
        return CalibrationConfig(
            system=system,
            threshold=DEFAULT_CLOSE_THRESHOLD[system.k],
            n_min=n_min_for(system),
            n_max=DEFAULT_N_MAX,
        )


# Shipped defaults: close-conformity MAD thresholds and the substantive
# discrepancy benchmarks they calibrate to over n in [n_min, 25000].
# Every analysis accepts an override; the benchmark should really come from
# knowledge of the phenomenon under scrutiny.
DEFAULT_CLOSE_THRESHOLD = {9: 0.006, 90: 0.0012}
DEFAULT_DELTA_STAR = {9: 0.00321, 90: 0.00037}
DEFAULT_N_MAX = 25000
# Expected count per digit cell below which the normal approximation is
# treated as unreliable; it sets the smallest recommended sample size.
MIN_EXPECTED_COUNT = 5.0

_CHUNK = 65536  # sample sizes per numpy block in delta_star


def default_delta_star(system: DigitSystem) -> float:
    return DEFAULT_DELTA_STAR[system.k]


def n_min_for(system: DigitSystem, min_expected: float = MIN_EXPECTED_COUNT) -> int:
    """Smallest n giving every digit cell an expected count >= min_expected."""
    if min_expected <= 0.0:
        raise ValueError("min_expected must be positive")
    min_b = min(benford_probs(system).b)
    n = math.ceil(min_expected / min_b)
    if (n - 1) * min_b >= min_expected:  # guard against ceil of a near-integer
        n -= 1
    return int(n)


def _standardized(excess: float, n: int, system: DigitSystem) -> float:
    """Excess MADs (a float or an array) in null standard deviations: k*sqrt(n)*x/sqrt(1'DRD1)."""
    c = build_constants(system)
    return system.k * math.sqrt(n) * excess / math.sqrt(c.quad_form)


def run_test_from_proportions(p: Proportions, system: DigitSystem) -> TestOutcome:
    """Excess-MAD normal test computed from proportions and sample size."""
    b = benford_probs(system)
    n = p.n
    observed_mad = mad(p, b)
    excess = observed_mad - mad_moments(system, n).mean
    tilde = _standardized(excess, n, system)
    return TestOutcome(
        system=system,
        n=n,
        mad=observed_mad,
        excess_delta=excess,
        tilde_delta=tilde,
        p_value=1.0 - specialfn.std_normal_cdf(tilde),
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
    return run_test_from_proportions(proportions(counts), counts.system)


def generic_normal_severity(z_obs: float, ncp: float) -> float:
    """Severity of a one-sided mean claim for a unit-variance normal test.

    Under the benchmark alternative the statistic is N(ncp, 1), so the
    probability of a result agreeing less with the claim than z_obs is
    Phi(z_obs - ncp).
    """
    return specialfn.std_normal_cdf(z_obs - ncp)


def severity_of_rejection(
    tilde_delta_obs: float, delta_star: float, n: int, system: DigitSystem
) -> SeverityResult:
    """Grade the claim "excess MAD exceeds delta_star" after a rejection."""
    if delta_star < 0.0:
        raise ValueError("delta_star must be nonnegative")
    if n < 1:
        raise ValueError("sample size must be at least 1")
    ncp = _standardized(delta_star, n, system)
    return SeverityResult(
        claim=Claim.DISCREPANCY_EXCEEDS,
        delta_star=delta_star,
        noncentrality=ncp,
        severity=generic_normal_severity(tilde_delta_obs, ncp),
    )


def severity_of_acceptance(
    tilde_delta_obs: float, delta_star: float, n: int, system: DigitSystem
) -> SeverityResult:
    """Grade the mirror claim "excess MAD is at most delta_star".

    Exact complement of severity_of_rejection at identical arguments.
    """
    rejection = severity_of_rejection(tilde_delta_obs, delta_star, n, system)
    return SeverityResult(
        claim=Claim.DISCREPANCY_AT_MOST,
        delta_star=delta_star,
        noncentrality=rejection.noncentrality,
        severity=1.0 - rejection.severity,
    )


def delta_star(config: CalibrationConfig) -> float:
    """Average headroom of the close-conformity threshold over the null MAD.

    The exact discrete mean over integer sample sizes n in [n_min, n_max]
    of (threshold - E(MAD_n)).  E(MAD_n) = E(MAD_1)/sqrt(n), so this is
    threshold - E(MAD_1) * mean(1/sqrt(n)).  A negative value means the
    threshold sits below the average null expectation and is reported with
    a warning rather than an error.
    """
    if config.n_min < 1:
        raise ValueError(f"sample size must be at least 1, got {config.n_min!r}")
    mean_inv_sqrt = _sum_inv_sqrt(config.n_min, config.n_max) / (config.n_max - config.n_min + 1)
    value = config.threshold - mad_moments(config.system, 1).mean * mean_inv_sqrt
    if value < 0.0:
        warnings.warn(
            f"calibrated discrepancy {value:.3g} is negative: threshold "
            f"{config.threshold} lies below the average null expectation",
            CalibrationWarning,
            stacklevel=2,
        )
    return value


def _sum_inv_sqrt(n_min: int, n_max: int) -> float:
    """Sum of 1/sqrt(n) over integer n in [n_min, n_max].

    Summed in fixed-size numpy chunks, so memory stays flat for any range,
    with the chunk totals combined by math.fsum.
    """
    chunk_sums = []
    for start in range(n_min, n_max + 1, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, n_max + 1), dtype=float)
        chunk_sums.append(float(np.sum(1.0 / np.sqrt(n))))
    return math.fsum(chunk_sums)


def chi_square_severity(x_obs: float, psi_star: float, system: DigitSystem) -> SeverityResult:
    """Severity of "quadratic discrepancy exceeds psi_star" for Pearson's test.

    Under the benchmark alternative the statistic is noncentral chi-square
    with k-1 degrees of freedom and noncentrality psi_star.  There is no
    shipped default for psi_star: many different psi values are consistent
    with any given MAD, so the benchmark must come from the user.
    """
    if x_obs < 0.0:
        raise ValueError("observed statistic must be nonnegative")
    if psi_star < 0.0:
        raise ValueError("psi_star must be nonnegative")
    sev = specialfn.noncentral_chi2_cdf(x_obs, system.k - 1, psi_star)
    return SeverityResult(
        claim=Claim.DISCREPANCY_EXCEEDS,
        delta_star=psi_star,
        noncentrality=psi_star,
        severity=sev,
    )


__all__ = [
    "CalibrationConfig",
    "CalibrationWarning",
    "Claim",
    "DEFAULT_CLOSE_THRESHOLD",
    "DEFAULT_DELTA_STAR",
    "DEFAULT_N_MAX",
    "MIN_EXPECTED_COUNT",
    "SeverityResult",
    "SmallSampleWarning",
    "TestOutcome",
    "chi_square_severity",
    "default_delta_star",
    "delta_star",
    "generic_normal_severity",
    "n_min_for",
    "run_test",
    "run_test_from_proportions",
    "severity_of_acceptance",
    "severity_of_rejection",
]
