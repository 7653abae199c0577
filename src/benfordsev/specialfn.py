"""Scalar special functions backing every probability computed by this package.

Everything here is a pure function of its arguments, works in plain 64-bit
floats, and is safe for concurrent use.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)
# Largest noncentrality noncentral_chi2_cdf accepts.  The Poisson-mixture sum
# has at most 2 * spread + 1 terms, about 10.6 sqrt(lam), and the central
# terms' gamma series runs out of terms a little above this; larger values
# raise ValueError.
MAX_NONCENTRALITY = 1e6
# log(1 / 0.5e-12): the Poisson mass the mixture may leave out on each side
# of its mode is at most exp(-_LOG_INV_TAIL).
_LOG_INV_TAIL = math.log(2e12)
# Above this shape, Poisson and gamma densities are computed in the
# saddle-point form, where no large terms cancel; below it, directly.
_SADDLE_POINT_ABOVE = 15.0
# Coefficients of stirlerr's Stirling series in 1/s; the first omitted term
# is below 3e-16 above s = 15.
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF.

    Computed from erfc so that both tails keep full absolute accuracy;
    saturates to exactly 0.0 / 1.0 far out in the tails.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def gamma_tails(s: float, x: float) -> tuple[float, float]:
    """Regularized incomplete gamma tails (P(s, x), Q(s, x)) for 0 < s < 2**53 and x >= 0.

    Below x = s + 1, P is its power series; from s + 1 on, Q is its continued
    fraction.  The other tail, 1 minus it, is above 0.08 for s >= 1/2, so each
    tail that can be small is computed as its own tail.  The series stops
    after 10**4 terms: for x in [s - 1, s + 0.5] it converges at s = 1.5e6 and
    raises ArithmeticError at 2e6.  The continued fraction converges to
    s = 1e7 at least.  noncentral_chi2_cdf asks for shapes up to
    44.5 + MAX_NONCENTRALITY // 2.
    """
    if not 0.0 < s < s + 1.0:  # s + 1.0 rounds to s from 2**53 up
        raise ValueError(f"shape parameter must be positive and below 2**53, got {s!r}")
    if not x >= 0.0:
        raise ValueError(f"argument must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0, 1.0
    if x < s + 1.0:
        p = _lower_gamma_series(s, x)
        return p, 1.0 - p
    q = _upper_gamma_cf(s, x)
    return 1.0 - q, q


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
    return min(total * _gamma_density(s, x), 1.0)


def _upper_gamma_cf(s: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for Q(s, x),
    # valid for x >= s + 1.
    if x == math.inf:
        return 0.0
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
    return h * _gamma_density(s, x)


def _gamma_density(s: float, x: float) -> float:
    """x**s e**-x / Gamma(s): the factor shared by P(s, x)'s series and Q(s, x)'s fraction."""
    # Below the threshold this is the same quantity as s * exp(_log_poisson(s, x)),
    # and as accurate against mpmath, but that form rounds differently and would
    # move the last digits of reported chi-square p-values (df = 8: ...55835 ->
    # ...5587), so the direct form stays.
    if s <= _SADDLE_POINT_ABOVE:
        return math.exp(-x + s * math.log(x) - math.lgamma(s))
    return s * math.exp(_log_poisson(s, x))


def _log_poisson(s: float, mean: float) -> float:
    """log(mean**s e**-mean / Gamma(s + 1)): the Poisson log-probability at s, for s >= 0.

    Above _SADDLE_POINT_ABOVE it is -stirlerr(s) - bd0(s, mean) - log(2 pi s)/2
    (Loader 2000, as in R's dpois_raw).  The direct form loses about
    s log(s) times the float epsilon to cancellation: ~7e-10 at s = 5e5.
    """
    if s <= _SADDLE_POINT_ABOVE:
        return s * math.log(mean) - mean - math.lgamma(s + 1.0)
    return -_stirlerr(s) - _bd0(s, mean) - 0.5 * math.log(2.0 * math.pi * s)


def _stirlerr(s: float) -> float:
    """log Gamma(s + 1) - log(sqrt(2 pi s) (s/e)**s), by its Stirling series; s > 15."""
    inv2 = 1.0 / (s * s)
    c0, c1, c2, c3, c4 = _STIRLING
    return (c0 - (c1 - (c2 - (c3 - c4 * inv2) * inv2) * inv2) * inv2) / s


def _bd0(s: float, mean: float) -> float:
    """s log(s/mean) + mean - s, the deviance term, without cancellation near s = mean."""
    if abs(s - mean) >= 0.1 * (s + mean):
        return s * math.log(s / mean) + mean - s
    # A series in v = (s - mean)/(s + mean): (s - mean) v + 2 s sum v**(2j+1)/(2j+1).
    v = (s - mean) / (s + mean)
    total = (s - mean) * v
    term = 2.0 * s * v
    v *= v
    j = 1
    while True:
        term *= v
        next_total = total + term / (2 * j + 1)
        if next_total == total:
            return total
        total = next_total
        j += 1


def _check_df(df: int) -> int:
    if isinstance(df, bool) or not 1 <= df < 2**53 or df != int(df):
        raise ValueError(f"degrees of freedom must be a positive integer below 2**53, got {df!r}")
    return int(df)


def central_chi2_cdf(x: float, df: int) -> float:
    """Chi-square CDF with integer degrees of freedom: P(df/2, x/2) of gamma_tails."""
    return gamma_tails(_check_df(df) / 2.0, x / 2.0)[0]


def central_chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail, 1 - CDF, with integer degrees of freedom: Q(df/2, x/2)."""
    return gamma_tails(_check_df(df) / 2.0, x / 2.0)[1]


def noncentral_chi2_cdf(x: float, df: int, lam: float) -> float:
    """Noncentral chi-square CDF via its Poisson mixture of central CDFs.

    The mixture is summed outward from the modal Poisson index m = floor(lam/2),
    so that no weight underflows for large noncentrality, over m - spread to
    m + spread.  Bernstein's bound P(|N - h| >= t) <= exp(-t^2 / (2 (h + t/3))),
    h = lam/2, fixes spread before the sum so that the Poisson mass left out
    is at most 0.5e-12 a side, 1e-12 in all.  A noncentrality above
    MAX_NONCENTRALITY raises ValueError.
    """
    df = _check_df(df)
    if not lam >= 0.0:
        raise ValueError(f"noncentrality must be nonnegative, got {lam!r}")
    if lam > MAX_NONCENTRALITY:
        raise ValueError(f"noncentrality {lam:g} exceeds the supported maximum {MAX_NONCENTRALITY:g}")
    if not x >= 0.0:
        raise ValueError(f"argument must be nonnegative, got {x!r}")

    a = df / 2.0
    y = x / 2.0
    h = lam / 2.0
    # h = 0 covers a subnormal lam, y = 0 an x so small that x/2 underflows.
    # Every central CDF of the mixture is 0 at y = 0 and 1 at y = inf.
    if h == 0.0 or y in (0.0, math.inf):
        return central_chi2_cdf(x, df)
    m = int(h)
    third = _LOG_INV_TAIL / 3.0
    spread = math.ceil(third + math.sqrt(third * third + 2.0 * _LOG_INV_TAIL * h))

    # Values at the modal index: Poisson weight w_m, central CDF c_m,
    # and the stepping term t(s) = y^s e^{-y} / Gamma(s+1), which links
    # neighbouring CDFs through P(s+1, y) = P(s, y) - t(s).  The stepping
    # term is carried in log form: it is bounded by 1 but its ratio to the
    # neighbouring term, (a+j)/y, can overflow for extreme arguments.
    log_y = math.log(y)
    w_m = math.exp(_log_poisson(m, h))
    c_m = gamma_tails(a + m, y)[0]
    log_t_m = _log_poisson(a + m, y)

    total = w_m * c_m

    # Upward pass: j = m+1, ..., m+spread.
    w, c, log_t = w_m, c_m, log_t_m
    for j in range(m + 1, m + spread + 1):
        w *= h / j
        c = max(c - math.exp(log_t), 0.0)
        log_t += log_y - math.log(a + j)
        total += w * c

    # Downward pass: j - 1 = m-1, ..., max(m-spread, 0).  The lower Poisson
    # tail obeys the tighter bound exp(-t^2 / (2h)), so spread serves it too.
    w, c, log_t = w_m, c_m, log_t_m
    for j in range(m, max(m - spread, 0), -1):
        log_t += math.log(a + j) - log_y
        c = min(c + math.exp(log_t), 1.0)
        w *= j / h
        total += w * c

    return min(max(total, 0.0), 1.0)
