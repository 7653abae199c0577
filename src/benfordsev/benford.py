"""Benford probabilities and the sample statistics measured against them."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .digits import DigitCounts, DigitSystem


@lru_cache(maxsize=None)
def benford_probs(system: DigitSystem) -> np.ndarray:
    """Digit probabilities log10(1 + 1/d) for every label of `system`, length k.

    Built once per scheme; the cached array is read-only because every
    caller shares it.
    """
    b = np.array([math.log10(1.0 + 1.0 / d) for d in system.digit_labels])
    b.flags.writeable = False
    return b


def proportions(counts: DigitCounts) -> np.ndarray:
    """Observed digit proportions counts / n, length k."""
    n = counts.n
    if n < 1:
        raise ValueError("cannot form proportions from an empty sample")
    return np.asarray(counts.counts, dtype=float) / n


def _check_match(p: np.ndarray, b: np.ndarray) -> None:
    if len(p) != len(b):
        raise ValueError(f"dimension mismatch: {len(p)} proportions vs {len(b)} probabilities")


def mad(p: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute deviation between observed proportions and the law."""
    _check_match(p, b)
    return float(np.mean(np.abs(p - b)))


def psi(p: np.ndarray, b: np.ndarray, n: int) -> float:
    """Pearson-form quadratic distance n * sum((p_i - b_i)^2 / b_i)."""
    _check_match(p, b)
    if n < 1:
        raise ValueError("sample size must be at least 1")
    return float(n * np.sum((p - b) ** 2 / b))


def chi_square_stat(counts: DigitCounts, b: np.ndarray) -> float:
    """Pearson's goodness-of-fit statistic; identical to psi on the sample."""
    return psi(proportions(counts), b, counts.n)
