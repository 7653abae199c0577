"""Scalar special functions backing every probability computed by this package.

Everything here is a pure function of its arguments, works in plain 64-bit
floats, and is safe for concurrent use.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)
# Largest noncentrality noncentral_chi2_cdf accepts.  The Poisson-mixture sum
# takes about sqrt(lam) steps and the central terms' gamma series runs out
# of terms a little above this; larger values raise ValueError.
MAX_NONCENTRALITY = 1e6


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF.

    Computed from erfc so that both tails keep full absolute accuracy;
    saturates to exactly 0.0 / 1.0 far out in the tails.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def regularized_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) for s > 0, x >= 0."""
    if s <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {s!r}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _lower_gamma_series(s, x)
    return 1.0 - _upper_gamma_cf(s, x)


def _lower_gamma_series(s: float, x: float) -> float:
    # Power series for P(s, x); converges quickly for x < s + 1.
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(10000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    else:
        raise ArithmeticError("lower gamma series failed to converge")
    val = total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    return min(val, 1.0)


def _upper_gamma_cf(s: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for Q(s, x),
    # valid for x >= s + 1.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise ArithmeticError("upper gamma continued fraction failed to converge")
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _check_df(df: int) -> int:
    if isinstance(df, bool) or df != int(df) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    return int(df)


def central_chi2_cdf(x: float, df: int) -> float:
    """Chi-square CDF with integer degrees of freedom."""
    df = _check_df(df)
    return regularized_lower_gamma(df / 2.0, x / 2.0)


def noncentral_chi2_cdf(x: float, df: int, lam: float) -> float:
    """Noncentral chi-square CDF via its Poisson mixture of central CDFs.

    The mixture is summed outward from the modal Poisson index floor(lam/2)
    so that no weight underflows for large noncentrality; summation stops
    once the neglected Poisson mass is below 1e-12.  A noncentrality above
    MAX_NONCENTRALITY raises ValueError.
    """
    df = _check_df(df)
    if lam < 0.0:
        raise ValueError(f"noncentrality must be nonnegative, got {lam!r}")
    if lam > MAX_NONCENTRALITY:
        raise ValueError(f"noncentrality {lam:g} exceeds the supported maximum {MAX_NONCENTRALITY:g}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x!r}")
    if lam == 0.0:
        return central_chi2_cdf(x, df)

    a = df / 2.0
    y = x / 2.0
    h = lam / 2.0
    m = int(h)
    if y == 0.0:  # covers x = 0 and x so small that x/2 underflows
        return 0.0

    # Values at the modal index: Poisson weight w_m, central CDF c_m,
    # and the stepping term t(s) = y^s e^{-y} / Gamma(s+1), which links
    # neighbouring CDFs through P(s+1, y) = P(s, y) - t(s).  The stepping
    # term is carried in log form: it is bounded by 1 but its ratio to the
    # neighbouring term, (a+j)/y, can overflow for extreme arguments.
    log_y = math.log(y)
    w_m = math.exp(m * math.log(h) - h - math.lgamma(m + 1.0))
    c_m = regularized_lower_gamma(a + m, y)
    log_t_m = (a + m) * log_y - y - math.lgamma(a + m + 1.0)

    total = w_m * c_m
    tail_budget = 0.5e-12

    # Upward pass: j = m+1, m+2, ...  Weights decrease geometrically here.
    w, c, log_t, j = w_m, c_m, log_t_m, m
    while True:
        w *= h / (j + 1.0)
        c = max(c - math.exp(log_t), 0.0)
        j += 1
        log_t += log_y - math.log(a + j)
        total += w * c
        ratio = h / (j + 2.0)
        if ratio < 1.0 and w * ratio / (1.0 - ratio) < tail_budget:
            break
        if w == 0.0:
            break

    # Downward pass: j = m-1, ..., 0.  Weights also decrease leaving the mode.
    w, c, log_t, j = w_m, c_m, log_t_m, m
    while j > 0:
        log_t += math.log(a + j) - log_y
        c = min(c + math.exp(log_t), 1.0)
        w *= j / h
        j -= 1
        total += w * c
        if j >= 1:
            ratio = j / h
            if ratio < 1.0 and w * ratio / (1.0 - ratio) < tail_budget:
                break
        if w == 0.0:
            break

    return min(max(total, 0.0), 1.0)
