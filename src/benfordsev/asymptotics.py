"""Null-distribution machinery for the MAD statistic.

Under the digit law, each scaled absolute deviation sqrt(n)|p_i - b_i| /
sqrt(b_i(1-b_i)) is asymptotically folded standard normal, and the MAD is
asymptotically normal with mean and standard deviation proportional to
1/sqrt(n).  The constants of that limit depend only on the digit scheme, so
they are built once per scheme and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .benford import benford_probs
from .digits import DigitSystem

_TWO_OVER_PI = 2.0 / math.pi


@dataclass(frozen=True)
class AsymptoticConstants:
    """Scheme-level constants of the MAD's limiting normal distribution."""

    d_vec: np.ndarray      # sqrt(b_j (1 - b_j)) per digit cell
    R: np.ndarray          # k x k covariance matrix of the folded deviations
    sum_d: float           # plain sum of d_vec
    quad_form: float       # d_vec . R . d_vec


class MadMoments(NamedTuple):
    mean: float
    sd: float


@lru_cache(maxsize=None)
def build_constants(system: DigitSystem) -> AsymptoticConstants:
    """Constants for `system`, cached after the first construction."""
    b = benford_probs(system)
    d_vec = np.sqrt(b * (1.0 - b))

    # Pairwise correlations; the diagonal is the self-correlation 1, which
    # makes the diagonal of R the folded-normal variance 1 - 2/pi.
    rho_mat = -np.sqrt(np.outer(b, b) / np.outer(1.0 - b, 1.0 - b))
    np.fill_diagonal(rho_mat, 1.0)
    R = _TWO_OVER_PI * (rho_mat * np.arcsin(rho_mat) + np.sqrt(1.0 - rho_mat**2)) - _TWO_OVER_PI

    sum_d = float(np.sum(d_vec))
    quad_form = float(d_vec @ R @ d_vec)
    return AsymptoticConstants(d_vec=d_vec, R=R, sum_d=sum_d, quad_form=quad_form)


def mad_moments(system: DigitSystem, n: int) -> MadMoments:
    """Approximate mean and standard deviation of the MAD under the law."""
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n!r}")
    c = build_constants(system)
    k = system.k
    mean = math.sqrt(2.0 / (math.pi * n * k * k)) * c.sum_d
    sd = math.sqrt(c.quad_form / (n * k * k))
    return MadMoments(mean=mean, sd=sd)
