import math

import numpy as np
import pytest

from benfordsev.asymptotics import build_constants, mad_moments, standardized
from benfordsev.benford import benford_probs
from benfordsev.digits import FIRST_DIGIT, FIRST_TWO_DIGITS

FOLDED_VARIANCE = 1.0 - 2.0 / math.pi  # 0.36338022763241866

# Frozen from independent high-precision evaluation of the defining formulas.
# R_1_2 is the R entry of digits 1 and 2, (2/pi)(rho asin(rho) + sqrt(1 - rho^2) - 1)
# at their correlation rho = -sqrt(b1 b2 / ((1 - b1)(1 - b2))) = -0.3033925840462077.
R_1_2 = 0.029530708219830249229
SUM_D_FIRST = 2.6490350746026733
SQRT_QUAD_FIRST = 0.58972808602724565
SUM_D_FIRST_TWO = 8.9501969268236616
SQRT_QUAD_FIRST_TWO = 0.60171335564068604
MEAN_FIRST_N10000 = 0.0023484713189452663


class TestBuildConstants:
    def test_first_digit_scalars(self):
        c = build_constants(FIRST_DIGIT)
        assert c.sum_d == pytest.approx(SUM_D_FIRST, rel=1e-12)
        assert math.sqrt(c.quad_form) == pytest.approx(SQRT_QUAD_FIRST, rel=1e-12)

    def test_first_two_scalars(self):
        c = build_constants(FIRST_TWO_DIGITS)
        assert c.sum_d == pytest.approx(SUM_D_FIRST_TWO, rel=1e-12)
        assert math.sqrt(c.quad_form) == pytest.approx(SQRT_QUAD_FIRST_TWO, rel=1e-12)

    def test_first_digit_r_entry_one_two(self):
        assert build_constants(FIRST_DIGIT).R[0][1] == pytest.approx(R_1_2, rel=1e-12)

    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS])
    def test_r_diagonal_is_folded_variance(self, system):
        c = build_constants(system)
        assert all(abs(row[i] - FOLDED_VARIANCE) <= 1e-14 for i, row in enumerate(c.R))

    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS])
    def test_r_symmetric(self, system):
        c = build_constants(system)
        assert c.R == tuple(zip(*c.R))

    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS])
    def test_r_positive_semidefinite(self, system):
        c = build_constants(system)
        assert np.linalg.eigvalsh(np.asarray(c.R)).min() >= -1e-10

    def test_first_digit_off_diagonal_small(self):
        # Largest coupling is the (1,2) digit pair at about 0.0295.
        c = build_constants(FIRST_DIGIT)
        off = [r for i, row in enumerate(c.R) for j, r in enumerate(row) if i != j]
        assert max(abs(r) for r in off) < 0.03

    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS])
    def test_d_vec_positive(self, system):
        assert all(d > 0 for d in build_constants(system).d_vec)

    def test_constants_cached(self):
        assert build_constants(FIRST_DIGIT) is build_constants(FIRST_DIGIT)

    def test_quad_form_matches_direct_summation(self):
        c = build_constants(FIRST_DIGIT)
        direct = sum(
            c.d_vec[i] * c.R[i][j] * c.d_vec[j] for i in range(9) for j in range(9)
        )
        assert c.quad_form == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS])
    def test_scalars_within_one_ulp_of_mpmath(self, system):
        # The defining formulas evaluated to 60 digits from the double b.
        mpmath = pytest.importorskip("mpmath")
        c = build_constants(system)
        with mpmath.workdps(60):
            b = [mpmath.mpf(x) for x in benford_probs(system)]
            d = [mpmath.sqrt(x * (1 - x)) for x in b]

            def cov(i, j):
                rho = 1 if i == j else -mpmath.sqrt(b[i] * b[j] / ((1 - b[i]) * (1 - b[j])))
                return 2 / mpmath.pi * (rho * mpmath.asin(rho) + mpmath.sqrt(1 - rho * rho) - 1)

            k = len(b)
            quad_form = mpmath.fsum(d[i] * cov(i, j) * d[j] for i in range(k) for j in range(k))
            assert abs(c.quad_form - quad_form) <= math.ulp(c.quad_form)
            assert abs(c.sum_d - mpmath.fsum(d)) <= math.ulp(c.sum_d)


class TestMadMoments:
    def test_mean_at_n10000(self):
        m = mad_moments(FIRST_DIGIT, 10000)
        assert m.mean == pytest.approx(MEAN_FIRST_N10000, rel=1e-12)
        assert m.mean == pytest.approx(0.0023486, abs=1e-5)

    def test_mean_at_minimum_recommended_n(self):
        assert mad_moments(FIRST_DIGIT, 110).mean == pytest.approx(0.022395, abs=1e-4)

    @pytest.mark.parametrize("n", [10, 1000, 250000])
    def test_scales_as_inverse_sqrt_n(self, n):
        base = mad_moments(FIRST_DIGIT, 1)
        m = mad_moments(FIRST_DIGIT, n)
        assert m.mean * math.sqrt(n) == pytest.approx(base.mean, rel=1e-12)
        assert m.sd * math.sqrt(n) == pytest.approx(base.sd, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mad_moments(FIRST_DIGIT, 0)

    def test_sample_size_beyond_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="largest float"):
            mad_moments(FIRST_DIGIT, 10**309)


class TestStandardized:
    @pytest.mark.parametrize("system", [FIRST_DIGIT, FIRST_TWO_DIGITS])
    @pytest.mark.parametrize("n", [1, 110, 10**6])
    def test_null_sd_is_one_unit(self, system, n):
        assert standardized(mad_moments(system, n).sd, n, system) == pytest.approx(1.0, rel=1e-12)
