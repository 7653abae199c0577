"""Benford's law conformity testing with severity analysis.

Tests digit-frequency data against the logarithmic digit law using a
standard-normal test built on the excess mean absolute deviation, and grades
how well conformity or nonconformity claims pass by computing their
severity against a substantive discrepancy benchmark.
"""

__version__ = "0.1.0"

from .asymptotics import AsymptoticConstants, MadMoments, build_constants, mad_moments
from .benford import benford_probs, chi_square_stat, mad, proportions
from .digits import (
    FIRST_DIGIT,
    FIRST_TWO_DIGITS,
    DigitCounts,
    DigitSystem,
    count_digits,
    first_digit,
    first_two_digits,
    ingest,
    parse_records,
)
from .mc import SimulationReport, sample_benford_counts, simulate
from .severity import (
    DEFAULT_DELTA_STAR,
    TestOutcome,
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
from .specialfn import (
    central_chi2_cdf,
    central_chi2_sf,
    gamma_tails,
    noncentral_chi2_cdf,
    std_normal_cdf,
)
