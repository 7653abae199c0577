"""Tests for the scalar special functions.

Expected values were frozen from an independent high-precision oracle
(50-digit arbitrary precision evaluation of erf/erfc, the regularized
incomplete gamma, and the Poisson-mixture series).
"""

import functools
import math

import pytest
from hypothesis import given, strategies as st

from benfordsev.specialfn import (
    MAX_NONCENTRALITY,
    central_chi2_cdf,
    central_chi2_sf,
    gamma_tails,
    noncentral_chi2_cdf,
    std_normal_cdf,
)

# Frozen oracle values.
PHI_AT_1 = 0.84134474606854295
P_4_4 = 0.56652987963329107
P_HALF_2 = 0.95449973610364159
NC_10_8_5 = 0.34790489126466584
NC_30_8_10 = 0.93078539977651564


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_at_one(self):
        assert std_normal_cdf(1.0) == pytest.approx(PHI_AT_1, abs=1e-15)

    def test_lower_tail_value(self):
        # Matches the reported severity scale of a unit-normal test whose
        # statistic sits 1.162 below the benchmark mean.
        assert std_normal_cdf(-1.162) == pytest.approx(0.1226, abs=2e-5)

    def test_saturates_in_tails(self):
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0

    @given(st.floats(min_value=-8.0, max_value=8.0), st.floats(min_value=0.0, max_value=4.0))
    def test_monotone_nondecreasing(self, x, step):
        assert std_normal_cdf(x) <= std_normal_cdf(x + step)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_range(self, x):
        assert 0.0 <= std_normal_cdf(x) <= 1.0


class TestGammaTails:
    def test_at_zero(self):
        assert gamma_tails(3.7, 0.0)[0] == 0.0

    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 2.5, 10.0, 40.0])
    def test_exponential_special_case(self, x):
        assert gamma_tails(1.0, x)[0] == pytest.approx(
            -math.expm1(-x), rel=1e-12
        )

    def test_half_shape(self):
        assert gamma_tails(0.5, 2.0)[0] == pytest.approx(P_HALF_2, rel=1e-10)

    @pytest.mark.parametrize("s,x", [
        (0.0, 1.0), (-1.0, 1.0), (2.0, -0.5), (math.nan, 1.0), (2.0, math.nan),
        # Shapes where s + 1.0 rounds to s.
        (math.inf, 1.0), (1e300, 1e300),
    ])
    def test_domain_errors(self, s, x):
        with pytest.raises(ValueError):
            gamma_tails(s, x)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.0, max_value=80.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_monotone_in_x(self, s, x, step):
        assert gamma_tails(s, x)[0] <= gamma_tails(s, x + step)[0] + 1e-14

    def test_series_converges_at_a_million(self):
        # The series stops after 10**4 terms; near x = s it still converges
        # at s = 1e6, above the largest shape noncentral_chi2_cdf passes.
        assert 89 / 2 + MAX_NONCENTRALITY // 2 < 1e6
        s = 1e6
        values = [gamma_tails(s, x)[0] for x in (s - 1.0, s, s + 0.5)]
        assert all(0.0 < v < 1.0 for v in values)
        assert values[0] < values[1] < values[2]

    @given(
        st.integers(min_value=1, max_value=2000),
        st.one_of(
            st.floats(min_value=0.0, max_value=3.0),
            st.floats(min_value=1.0 - 1e-12, max_value=1.0 + 1e-12),
            st.just(math.inf),
        ),
    )
    def test_chi2_cdf_sf_and_mixture_are_its_tails(self, df, scale):
        # x / (df + 2) on both sides of 1: x / 2 on both sides of the switch at s + 1.
        x = scale * (df + 2.0)
        lower, upper = gamma_tails(df / 2.0, x / 2.0)
        assert central_chi2_cdf(x, df) == lower
        assert central_chi2_sf(x, df) == upper
        assert noncentral_chi2_cdf(x, df, 0.0) == lower
        assert abs(lower + upper - 1.0) <= 2**-53

    @pytest.mark.parametrize("s", [50.0, 200.0, 1000.0])
    def test_far_left_lower_tail_matches_mpmath(self, s):
        # From just below the switch at s + 1 out to where P underflows, ~1e-300,
        # or to s / 10: a P taken as 1 - Q would read 0 from P < 1e-17 on.
        mpmath = pytest.importorskip("mpmath")
        x = s - 1.0
        while x >= s / 10.0 and (expected := mpmath.gammainc(s, 0, x, regularized=True)) > 1e-300:
            assert gamma_tails(s, x)[0] == pytest.approx(float(expected), rel=1e-12, abs=0.0)
            x /= 1.1


class TestCentralChi2:
    def test_at_zero(self):
        for df in (1, 8, 89):
            assert central_chi2_cdf(0.0, df) == 0.0

    def test_df8_at_8(self):
        assert central_chi2_cdf(8.0, 8) == pytest.approx(P_4_4, rel=1e-10)

    def test_quantile_95_df1(self):
        assert central_chi2_cdf(3.84146, 1) == pytest.approx(0.95, abs=1e-6)

    def test_normal_identity(self):
        # chi-square with one degree of freedom is a squared standard normal.
        x = 0.0
        while x <= 36.0:
            expected = 2.0 * std_normal_cdf(math.sqrt(x)) - 1.0
            assert central_chi2_cdf(x, 1) == pytest.approx(expected, abs=1e-10)
            x += 0.25

    @pytest.mark.parametrize("df", [0, -3, 2.5, 2 * 10**300])
    def test_bad_df(self, df):
        with pytest.raises(ValueError):
            central_chi2_cdf(1.0, df)
        # At its mean, where the shape df/2 is too large for the gamma functions.
        with pytest.raises(ValueError, match="degrees of freedom"):
            central_chi2_cdf(float(df), df)

    @pytest.mark.parametrize("x", [-1.0, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError, match="^argument must be nonnegative"):
            central_chi2_cdf(x, 8)


class TestCentralChi2Sf:
    @pytest.mark.parametrize("df", [1, 8, 89])
    def test_complements_the_cdf(self, df):
        # Across the switch from 1 - P to the continued fraction at x = df + 2.
        for i in range(0, 81):
            x = (df + 2.0) * i / 40.0
            assert central_chi2_sf(x, df) == pytest.approx(1.0 - central_chi2_cdf(x, df), abs=1e-14)

    @pytest.mark.parametrize("df", [1, 8, 89])
    def test_far_tail_matches_mpmath(self, df):
        # Out to where the tail underflows, ~1e-300.
        mpmath = pytest.importorskip("mpmath")
        x = float(df)
        while (expected := mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True)) > 1e-300:
            assert central_chi2_sf(x, df) == pytest.approx(float(expected), rel=1e-12, abs=0.0)
            x *= 1.1

    @pytest.mark.parametrize("df", [0, -3, 2.5, 2 * 10**300])
    def test_bad_df(self, df):
        with pytest.raises(ValueError):
            central_chi2_sf(1.0, df)
        # At its mean, where the shape df/2 is too large for the gamma functions.
        with pytest.raises(ValueError, match="degrees of freedom"):
            central_chi2_sf(float(df), df)

    @pytest.mark.parametrize("x", [-1.0, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError, match="^argument must be nonnegative"):
            central_chi2_sf(x, 8)


class TestNoncentralChi2:
    def test_zero_noncentrality_degenerates(self):
        # 5e-324 is the smallest subnormal: lam / 2 underflows to 0.
        for lam in (0.0, 5e-324):
            for x in (0.5, 3.0, 10.0, 30.0):
                assert noncentral_chi2_cdf(x, 8, lam) == pytest.approx(
                    central_chi2_cdf(x, 8), rel=1e-12
                )

    def test_at_zero(self):
        assert noncentral_chi2_cdf(0.0, 8, 5.0) == 0.0

    def test_frozen_oracle_values(self):
        assert noncentral_chi2_cdf(10.0, 8, 5.0) == pytest.approx(NC_10_8_5, abs=1e-9)
        assert noncentral_chi2_cdf(30.0, 8, 10.0) == pytest.approx(NC_30_8_10, abs=1e-9)

    @pytest.mark.parametrize("lam", [10.0, 1e3, MAX_NONCENTRALITY])
    def test_keeps_its_mass_at_large_noncentrality(self, lam):
        # lam = 10, df = 8 is chi_square_severity(1e5, 10, k = 9), which rounds to 1.
        assert noncentral_chi2_cdf(1e300, 8, lam) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("x,df,lam", [
        (49.0, 8, 5.0), (178.5, 89, 5.0), (136.0, 1, 50.0), (170.0, 89, 0.5),
    ])
    def test_matches_mpmath_poisson_mixture(self, x, df, lam):
        # 40-digit sum over 30 sqrt(lam/2) + 60 indices each side of the mode,
        # several times the range the function sums.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            h, a, y = mpmath.mpf(lam) / 2, mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
            m, width = int(lam / 2), int(30 * math.sqrt(lam / 2)) + 60
            expected = mpmath.fsum(
                mpmath.exp(-h) * h**j / mpmath.factorial(j) * mpmath.gammainc(a + j, 0, y, regularized=True)
                for j in range(max(m - width, 0), m + width + 1)
            )
            assert noncentral_chi2_cdf(x, df, lam) == pytest.approx(float(expected), abs=1e-13)

    @pytest.mark.parametrize("lam", [1e4, 1e5, 1e6])
    @pytest.mark.parametrize("df", [8, 89])
    def test_large_noncentrality_matches_scipy(self, df, lam):
        ncx2 = pytest.importorskip("scipy.stats").ncx2
        spread = 20.0 * math.sqrt(lam)
        near = [lam + df - spread + i * spread / 20.0 for i in range(41)]
        wide = [i * 3.0 * lam / 40.0 for i in range(1, 41)]
        for x in near + wide:
            assert noncentral_chi2_cdf(x, df, lam) == pytest.approx(ncx2.cdf(x, df, lam), abs=1e-11)

    def test_large_noncentrality_stays_stable(self):
        # Mixture must start at the modal Poisson index or these underflow.
        lo = noncentral_chi2_cdf(900.0, 8, 1000.0)
        hi = noncentral_chi2_cdf(1200.0, 8, 1000.0)
        assert 0.0 < lo < hi < 1.0

    @given(
        st.floats(min_value=0.0, max_value=60.0),
        st.integers(min_value=1, max_value=89),
        st.floats(min_value=1e-6, max_value=200.0),
    )
    def test_dominated_by_central(self, x, df, lam):
        assert noncentral_chi2_cdf(x, df, lam) <= central_chi2_cdf(x, df) + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_monotone_in_x(self, x, step):
        assert (
            noncentral_chi2_cdf(x, 8, 5.0)
            <= noncentral_chi2_cdf(x + step, 8, 5.0) + 1e-12
        )

    @pytest.mark.parametrize("x,df,lam", [
        (-1.0, 8, 5.0), (1.0, 8, -0.1), (1.0, 0, 5.0),
        # noncentrality above MAX_NONCENTRALITY
        (1e6 + 8.0, 8, math.nextafter(MAX_NONCENTRALITY, math.inf)), (5e6 + 8.0, 8, 5e6),
        (1e308, 8, 1e308),
        (math.nan, 8, 5.0), (10.0, 8, math.nan),
    ])
    def test_domain_errors(self, x, df, lam):
        # The package's own messages, not a float conversion's.
        with pytest.raises(ValueError, match="must be|exceeds"):
            noncentral_chi2_cdf(x, df, lam)


@pytest.mark.parametrize("cdf_or_sf, limit", [
    (lambda x: gamma_tails(2.0, x)[0], 1.0),
    (lambda x: central_chi2_cdf(x, 8), 1.0),
    (lambda x: central_chi2_sf(x, 8), 0.0),
    (lambda x: noncentral_chi2_cdf(x, 8, 5.0), 1.0),
    (lambda x: noncentral_chi2_cdf(x, 8, MAX_NONCENTRALITY), 1.0),
], ids=["lower_gamma", "central_cdf", "central_sf", "noncentral_cdf", "noncentral_cdf_at_the_bound"])
def test_infinite_argument_gives_the_limit(cdf_or_sf, limit):
    assert cdf_or_sf(math.inf) == limit


@functools.lru_cache(maxsize=None)
def sweep_at_the_bound(df):
    """(x, CDF) pairs at the largest noncentrality.

    x runs near the mean, over [0, 3*lam] and out to both extremes.
    """
    lam = MAX_NONCENTRALITY
    spread = 20.0 * math.sqrt(lam)
    near = [lam + df - spread + i * spread / 20.0 for i in range(41)]
    wide = [i * 3.0 * lam / 40.0 for i in range(41)]
    xs = sorted(near + wide + [1e-300, 1e300])
    return [(x, noncentral_chi2_cdf(x, df, lam)) for x in xs]


class TestNoncentralityBound:
    @pytest.mark.parametrize("df", [8, 89])
    def test_sweep_at_the_bound(self, df):
        values = [v for _, v in sweep_at_the_bound(df)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == 0.0 and values[-1] > 1.0 - 1e-9

    @pytest.mark.parametrize("df", [8, 89])
    def test_sweep_matches_scipy(self, df):
        ncx2 = pytest.importorskip("scipy.stats").ncx2
        for x, value in sweep_at_the_bound(df)[1:-1]:
            assert value == pytest.approx(ncx2.cdf(x, df, MAX_NONCENTRALITY), abs=1e-9)
