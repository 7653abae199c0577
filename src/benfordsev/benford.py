"""Benford probabilities and the sample statistics measured against them."""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add
from typing import Sequence

from .digits import DigitCounts, DigitSystem


@lru_cache(maxsize=None)
def benford_probs(system: DigitSystem) -> tuple[float, ...]:
    """Digit probabilities log10(1 + 1/d) for every label of `system`, length k.

    Built once per scheme and shared by every caller.
    """
    return tuple(math.log10(1.0 + 1.0 / d) for d in system.digit_labels)


def proportions(counts: DigitCounts) -> tuple[float, ...]:
    """Observed digit proportions counts / n, length k."""
    n = counts.n
    if n < 1:
        raise ValueError("cannot form proportions from an empty sample")
    return tuple(float(c) / n for c in counts.counts)


def pairwise_sum(xs: Sequence[float]) -> float:
    """Sum of `xs` added in numpy's pairwise order, so up to 128 terms it equals np.sum bit for bit.

    It keeps 8 strided partial sums and adds the last len(xs) % 8 terms to
    their total; below 8 terms that is the left-to-right sum.  Builtin sum()
    would not do: from Python 3.12 it compensates, so it rounds differently.
    """
    stop = len(xs) - len(xs) % 8
    r = [reduce(add, xs[j:stop:8], 0.0) for j in range(8)]
    return reduce(add, xs[stop:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _check_match(p: Sequence[float], b: Sequence[float]) -> None:
    if len(p) != len(b):
        raise ValueError(f"dimension mismatch: {len(p)} proportions vs {len(b)} probabilities")


def mad(p: Sequence[float], b: Sequence[float]) -> float:
    """Mean absolute deviation between observed proportions and the law."""
    _check_match(p, b)
    return float(pairwise_sum([abs(pi - bi) for pi, bi in zip(p, b)]) / len(b))


def psi(p: Sequence[float], b: Sequence[float], n: int) -> float:
    """Pearson-form quadratic distance n * sum((p_i - b_i)^2 / b_i)."""
    _check_match(p, b)
    if n < 1:
        raise ValueError("sample size must be at least 1")
    return float(n * pairwise_sum([(pi - bi) * (pi - bi) / bi for pi, bi in zip(p, b)]))


def chi_square_stat(counts: DigitCounts, b: Sequence[float]) -> float:
    """Pearson's goodness-of-fit statistic; identical to psi on the sample."""
    return psi(proportions(counts), b, counts.n)
