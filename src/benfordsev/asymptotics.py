"""Null-distribution machinery for the MAD statistic.

Under the digit law, each scaled absolute deviation sqrt(n)|p_i - b_i| /
sqrt(b_i(1-b_i)) is asymptotically folded standard normal, and the MAD is
asymptotically normal with mean and standard deviation proportional to
1/sqrt(n).  The constants of that limit depend only on the digit scheme, so
they are built once per scheme and cached.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .benford import benford_probs, pairwise_sum
from .digits import DigitSystem

_TWO_OVER_PI = 2.0 / math.pi


class AsymptoticConstants(NamedTuple):
    """Scheme-level constants of the MAD's limiting normal distribution."""

    d_vec: tuple[float, ...]            # sqrt(b_j (1 - b_j)) per digit cell
    R: tuple[tuple[float, ...], ...]    # k x k covariance matrix of the folded deviations
    sum_d: float                        # plain sum of d_vec
    quad_form: float                    # d_vec . R . d_vec


class MadMoments(NamedTuple):
    mean: float
    sd: float


def _folded_cov(rho: float) -> float:
    """Covariance of |X| and |Y| for standard normals X and Y of correlation rho."""
    return _TWO_OVER_PI * (rho * math.asin(rho) + math.sqrt(1.0 - rho * rho)) - _TWO_OVER_PI


@lru_cache(maxsize=None)
def build_constants(system: DigitSystem) -> AsymptoticConstants:
    """Constants for `system`, cached after the first construction."""
    b = benford_probs(system)
    d_vec = tuple(math.sqrt(bi * (1.0 - bi)) for bi in b)
    # Pairwise correlations; the diagonal is the self-correlation 1, which
    # makes the diagonal of R the folded-normal variance 1 - 2/pi.
    R = tuple(
        tuple(
            _folded_cov(1.0 if i == j else -math.sqrt(bi * bj / ((1.0 - bi) * (1.0 - bj))))
            for j, bj in enumerate(b)
        )
        for i, bi in enumerate(b)
    )
    sum_d = pairwise_sum(d_vec)
    # Every product summed exactly and rounded once, so no BLAS kernel's
    # order of additions shows in the result.
    quad_form = math.fsum(di * rij * dj for di, row in zip(d_vec, R) for rij, dj in zip(row, d_vec))
    return AsymptoticConstants(d_vec=d_vec, R=R, sum_d=sum_d, quad_form=quad_form)


def mad_moments(system: DigitSystem, n: int) -> MadMoments:
    """Approximate mean and standard deviation of the MAD under the law."""
    _check_sample_size(n)
    c = build_constants(system)
    k = system.k
    mean = math.sqrt(2.0 / (math.pi * n * k * k)) * c.sum_d
    sd = math.sqrt(c.quad_form / (n * k * k))
    return MadMoments(mean=mean, sd=sd)


def standardized(excess: float, n: int, system: DigitSystem) -> float:
    """Excess MADs (a float or an array) in null standard deviations: k*sqrt(n)*x/sqrt(1'DRD1).

    A sample size below 1 or beyond the float range raises ValueError.
    """
    _check_sample_size(n)
    return system.k * math.sqrt(n) * excess / math.sqrt(build_constants(system).quad_form)


def _check_sample_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n!r}")
    if n > sys.float_info.max:
        raise ValueError("the sample size exceeds the largest float, about 1.8e308")
