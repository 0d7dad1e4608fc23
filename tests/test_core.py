"""Core arithmetic tests.

Expected values fall into three groups: closed forms checked by hand
(small integers and rational ratios), an independent log-gamma route for
the norm ratios, and Beta-integral / quadrature cross-checks for the
moments.  The two routes for each quantity are kept separate on purpose.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from bergrange.core import (
    DomainError,
    UsageError,
    alpha_weight,
    disk_quadrature,
    kernel_coeffs,
    monomial_norm_sq,
    norm_ratio,
    series_eval,
    _jacobi_rule,
)

ALPHAS = [-0.5, 0.0, 1.0, 2.5]


def ratio_by_loggamma(n, alpha):
    # independent route: exp(lgamma(n+alpha+2) - lgamma(n+1) - lgamma(alpha+2))
    return np.exp(gammaln(n + alpha + 2.0) - gammaln(n + 1.0) - gammaln(alpha + 2.0))


class TestNormRatio:
    def test_frozen_small_values(self):
        # alpha = 0: r_n = n + 1
        assert norm_ratio(3, 0.0) == pytest.approx(4.0, abs=1e-14)
        # alpha = 1: r_1 = (1+1+1)/1 = 3
        assert norm_ratio(1, 1.0) == pytest.approx(3.0, abs=1e-14)
        assert norm_ratio(0, -0.5) == 1.0
        # w_2 at alpha 0 is 1/3, w_1 at alpha 0.5 is 1/r_1 = 2/5
        assert monomial_norm_sq(2, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert monomial_norm_sq(1, 0.5) == pytest.approx(0.4, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_loggamma(self, alpha):
        n = np.arange(0, 513)
        got = np.array([norm_ratio(int(k), alpha) for k in n])
        want = ratio_by_loggamma(n, alpha)
        assert np.allclose(got, want, rtol=1e-11, atol=0.0)

    def test_huge_index_stays_finite(self):
        r = norm_ratio(10**6, 100.0)
        assert np.isfinite(np.longdouble(r))
        # cross-check the exponent against the log-gamma route
        want_log10 = (gammaln(1e6 + 102.0) - gammaln(1e6 + 1.0) - gammaln(102.0)) / np.log(10.0)
        got_log10 = float(np.log10(np.longdouble(r)))
        assert got_log10 == pytest.approx(want_log10, abs=1e-6)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_scalar_equals_table_entry_and_leaves_cache_alone(self, alpha):
        table = alpha_weight(alpha, 512)
        before = alpha_weight.cache_info().currsize
        for n in range(513):
            assert norm_ratio(n, alpha) == math.exp(table[n])
        assert alpha_weight.cache_info().currsize == before

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            norm_ratio(3, -1.0)
        with pytest.raises(DomainError):
            norm_ratio(3, -2.0)
        with pytest.raises(UsageError):
            norm_ratio(-1, 0.0)


class TestAlphaWeight:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_table_matches_scalar(self, alpha):
        table = alpha_weight(alpha, 64)
        for n in (0, 1, 5, 31, 64):
            assert np.exp(table[n]) == pytest.approx(norm_ratio(n, alpha), rel=1e-13)

    def test_cache_returns_same_object(self):
        assert alpha_weight(0.0, 32) is alpha_weight(0.0, 32)

    def test_readonly(self):
        table = alpha_weight(0.0, 8)
        with pytest.raises(ValueError):
            table[0] = 2.0

    @pytest.mark.parametrize("alpha", [0.0, 2.5, 400.0])
    def test_log_table_against_loggamma(self, alpha):
        # the log-gamma route stays an independent oracle for the one table
        n = np.arange(0, 5001)
        want = gammaln(n + alpha + 2.0) - gammaln(n + 1.0) - gammaln(alpha + 2.0)
        got = alpha_weight(alpha, 5000)
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_ratios_stay_in_the_log_table(self):
        # r_n leaves float64 range at n = 682 when alpha = 400
        table = alpha_weight(400.0, 5000)
        assert np.all(np.isfinite(table))
        with pytest.raises(ValueError):
            table[0] = 2.0


class TestSeries:
    def test_eval_horner(self):
        f = [1, 2, 3]
        assert series_eval(f, 0.5) == pytest.approx(1 + 2 * 0.5 + 3 * 0.25)
        z = np.array([0.1, 0.2j])
        got = series_eval(f, z)
        assert np.allclose(got, 1 + 2 * z + 3 * z**2)


class TestKernel:
    def test_norm_identity(self):
        # squared coefficient sum of the truncated kernel tends to
        # (1-|w|^2)^-(alpha+2); at N = 128 the geometric tail is tiny
        for alpha in ALPHAS:
            for w in (0.3, -0.2 + 0.4j):
                got = np.sum(np.abs(kernel_coeffs(w, alpha, 128)) ** 2)
                want = (1.0 - abs(w) ** 2) ** (-(alpha + 2.0))
                # tail of sum r_n |w|^(2n) at |w| <= 0.5 is far below 1e-12
                assert got == pytest.approx(want, rel=1e-12)

    def test_base_point_outside_disk(self):
        with pytest.raises(DomainError):
            kernel_coeffs(1.0, 0.0, 16)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_alpha_stays_finite(self):
        # r_n overflows from n = 682 and 0.5^n underflows past n = 1074,
        # but the entries sqrt(r_n) 0.5^n stay finite
        c = kernel_coeffs(0.5, 400.0, 5000)
        assert np.all(np.isfinite(c))
        n = np.arange(600)
        want = np.exp(0.5 * (gammaln(n + 402.0) - gammaln(n + 1.0) - gammaln(402.0))) * 0.5**n
        assert np.allclose(c[:600], want, rtol=1e-10, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
    def test_log_modulus_matches_xlogy(self, alpha):
        # n log|w| with 0 log 0 = 0 gives the bits of scipy's xlogy(n, |w|),
        # at the origin, at the smallest subnormal and near the circle
        rng = np.random.default_rng(3)
        ws = [0.0, 5e-324, 1e-300, 0.999999]
        ws += list(np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40)))
        n = np.arange(65)
        for w in ws:
            log_c = 0.5 * alpha_weight(alpha, 64) + xlogy(n, abs(w))
            want = np.exp(log_c) * np.exp(-1j * np.angle(w) * n)
            assert kernel_coeffs(w, alpha, 64).tobytes() == want.tobytes(), w

    def test_origin(self):
        c = kernel_coeffs(0.0, 1.0, 4)
        assert np.array_equal(c, [1, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            c[0] = 2.0


class TestMoments:
    def test_diagonal_matches_beta_integral(self):
        # independent route: 2(alpha+1) * Integral_0^1 r^(2p+1)(1-r^2)^alpha dr
        # = (alpha+1) B(p+1, alpha+1), via log-gamma
        for alpha in ALPHAS:
            for p in range(0, 9):
                want = (alpha + 1.0) * np.exp(
                    gammaln(p + 1.0) + gammaln(alpha + 1.0) - gammaln(p + alpha + 2.0)
                )
                assert monomial_norm_sq(p, alpha) == pytest.approx(want, rel=1e-12)


def beta_moment(k, alpha):
    """(alpha+1) B(k+1, alpha+1), the integral of t^k against (alpha+1)(1-t)^alpha on [0, 1]."""
    return math.exp(math.log(alpha + 1.0) + math.lgamma(k + 1.0) + math.lgamma(alpha + 1.0) - math.lgamma(k + alpha + 2.0))


class TestJacobiRule:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 5.0, 20.0, 100.0, 500.0])
    @pytest.mark.parametrize("n", [1, 2, 16, 80, 128])
    def test_moments_match_the_beta_integral(self, alpha, n):
        # an n-node rule in t = (1+x)/2 is exact for t^k, k < 2n
        x, w = _jacobi_rule(n, alpha)
        assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
        t = (x + 1.0) / 2.0
        for k in range(2 * n):
            want = beta_moment(k, alpha)
            assert abs(np.sum(w * t**k) - want) <= 1e-11 * want, k

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weights_below_float_range_are_zero(self):
        # at alpha = 1000 and n = 256 the top nodes carry weights below 1e-308,
        # whose Christoffel sums overflow
        x, w = _jacobi_rule(256, 1000.0)
        assert np.all(np.isfinite(w)) and w[-1] == 0.0 and abs(w.sum() - 1.0) <= 1e-12
        t = (x + 1.0) / 2.0
        for k in range(8):
            assert abs(np.sum(w * t**k) - beta_moment(k, 1000.0)) <= 1e-11 * beta_moment(k, 1000.0), k


class TestQuadrature:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_exact_on_monomials(self, alpha):
        # all z^p conj(z)^q with p + q <= 12 against their moments: w_p on the diagonal, 0 off it
        for p in range(0, 13):
            for q in range(0, 13 - p):
                got = disk_quadrature(lambda z: z**p * np.conj(z) ** q, alpha, 16, 32)
                want = monomial_norm_sq(p, alpha) if p == q else 0.0
                assert abs(got - want) < 1e-10

    def test_total_mass_one(self):
        for alpha in ALPHAS:
            got = disk_quadrature(lambda z: np.ones_like(z), alpha, 8, 8)
            assert got.real == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("alpha", [1100.0, 5000.0])
    def test_large_alpha(self, alpha):
        # past alpha ~ 1024 a gamma-factor normalization over- or underflows;
        # weights that sum to 1 need none
        assert disk_quadrature(np.ones_like, alpha).real == pytest.approx(1.0, rel=1e-13)
        got = disk_quadrature(lambda z: np.abs(z) ** 2, alpha)
        assert got.real == pytest.approx(monomial_norm_sq(1, alpha), rel=1e-11)

    def test_mean_value_of_harmonic_function(self):
        # weighted mean of a function harmonic on the disk recovers a
        # Mobius-type average; for h(z) = Re((z - a)/(1 - conj(a) z))
        # with the unweighted measure the mean equals h evaluated on the
        # radial profile; here simply check Re z and Re z^2 average to 0
        for f in (lambda z: z.real, lambda z: (z**2).real):
            got = disk_quadrature(f, 0.0, 32, 64)
            assert abs(got) < 1e-13

    def test_rejects_nonfinite(self):
        from bergrange.core import NumericError

        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                disk_quadrature(lambda z: 1.0 / (z - z), 0.0, 4, 4)
