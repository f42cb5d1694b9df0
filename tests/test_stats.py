"""Special functions, quantiles, and the seeded sampling layer."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from postfeas import stats
from postfeas.errors import CountOutOfRange, DomainError
from postfeas.posterior import BetaCoverage, StudentTRhs
from postfeas.stats import (
    Rng,
    beta_quantile,
    binomial_tail,
    chi2_quantile,
    derive_stream_id,
    log_choose,
    normal_cdf,
    normal_quantile,
    reg_inc_beta,
    reg_lower_gamma,
    student_t_quantile,
)


class TestLogBeta:
    def test_against_mpmath_on_a_log_uniform_grid(self):
        # Error bound: 1e-14 relative, floored at 1 (the worst seen is
        # 2.4e-15, near b = 8 where the lgamma difference ends).
        gen = np.random.default_rng(20261019)
        a, b = np.exp(gen.uniform(math.log(1e-3), math.log(1e8), (2, 2000)))
        with mpmath.workdps(40):
            for x, y in zip(a.tolist(), b.tolist()):
                ref = float(mpmath.log(mpmath.beta(x, y)))
                assert abs(stats._log_beta(x, y) - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("a, b", [(0.3, 7.999999), (0.3, 8.0), (7.999999, 8.0),
                                      (8.0, 8.0), (8.0, 1e6), (5e-324, 1e300)])
    def test_symmetric_and_exact_across_branches(self, a, b):
        assert stats._log_beta(a, b) == stats._log_beta(b, a)
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.beta(a, b)))
        assert abs(stats._log_beta(a, b) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_overflowing_result_is_minus_inf(self):
        assert stats._log_beta(1.7e308, 1.7e308) == -math.inf


class TestRegIncBeta:
    def test_uniform_cdf(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_a_equals_one_closed_form(self):
        for x in np.linspace(0.01, 0.99, 25):
            for b in (0.5, 1.0, 3.0, 17.5):
                want = 1.0 - (1.0 - x) ** b
                assert abs(reg_inc_beta(float(x), 1.0, b) - want) <= 1e-12

    def test_against_quadrature(self):
        # the t^(a-1) endpoint factor goes into the quadrature weight, so
        # the integrand passed to quad is smooth even for a < 1
        rng = np.random.default_rng(20260819)
        for _ in range(40):
            a = float(rng.uniform(0.2, 40.0))
            b = float(rng.uniform(0.2, 40.0))
            x = float(rng.uniform(0.02, 0.98))
            log_norm = -float(mpmath.log(mpmath.beta(a, b)))

            def smooth_part(t, b=b, log_norm=log_norm):
                return math.exp(log_norm + (b - 1) * math.log1p(-t))

            want, err = scipy.integrate.quad(
                smooth_part, 0.0, x, weight="alg", wvar=(a - 1.0, 0.0),
                limit=200, epsabs=1e-12, epsrel=1e-12,
            )
            assert err < 1e-9
            assert abs(reg_inc_beta(x, a, b) - want) <= 1e-8

    def test_large_parameters(self):
        for a, b in [(1e5, 2.0), (3.0, 9e4), (5e4, 5e4)]:
            for x in (0.2, 0.5, 0.8):
                ref = float(scipy.stats.beta.cdf(x, a, b))
                assert abs(reg_inc_beta(x, a, b) - ref) <= 1e-10

    def test_no_staircase_at_large_a_plus_b(self):
        # log B(0.152, 3380) as an lgamma difference rounds by a few 1e-12,
        # which made I_x a non-monotone staircase at this scale
        with mpmath.workdps(40):
            for x in np.linspace(8.0299e-5, 8.0301e-5, 201).tolist():
                ref = float(mpmath.betainc(0.152, 3380, 0, x, regularized=True))
                assert abs(reg_inc_beta(x, 0.152, 3380.0) - ref) <= 1e-14 * ref

    def test_fraction_converges_at_large_symmetric_parameters(self):
        # near the mean the fraction needs about 1,100 terms at a = b = 1e7;
        # it was cut at 500 and returned 0.49996 at x = 0.5.  The fraction
        # itself matches scipy's I_x to 1e-12; I_x is resolved to about
        # 1e-9 only, because the log prefactor adds terms near 7e6.
        a = 1e7
        with mpmath.workdps(40):
            for x in (0.5, 0.4999, 0.49999):
                ref = float(scipy.special.betainc(a, a, x))
                front = mpmath.exp(a * mpmath.log(x) + a * mpmath.log1p(-x)
                                   - mpmath.log(mpmath.beta(a, a)))
                if x < 0.5:
                    cf, cf_ref = stats._beta_cf(a, a, x), ref * a / front
                else:
                    cf, cf_ref = stats._beta_cf(a, a, 1.0 - x), (1 - ref) * a / front
                assert abs(cf - float(cf_ref)) <= 1e-12 * float(cf_ref)
                assert abs(reg_inc_beta(x, a, a) - ref) <= 2e-9 * ref

    def test_unconverged_fraction_raises(self):
        # at x = 0.5 the terms needed roughly double per decade of a = b:
        # 4,847 at 1e9 and 10,696 at 1e10, past the 10,000-term cap
        with pytest.raises(DomainError, match=re.escape(
                "10000 iterations at x=0.5, a=10000000000.0, b=10000000000.0")):
            reg_inc_beta(0.5, 1e10, 1e10)
        with pytest.raises(DomainError, match="did not converge"):
            beta_quantile(0.5, 1e10, 1e10)

    def test_edges_and_domain(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)


class TestRegLowerGamma:
    def test_exponential_closed_form(self):
        for x in (0.1, 0.7, 2.0, 9.0):
            assert abs(reg_lower_gamma(1.0, x) - (-math.expm1(-x))) <= 1e-13

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            a = float(rng.uniform(0.1, 200.0))
            x = float(rng.uniform(0.0, 2.5) * a)
            ref = float(scipy.stats.gamma.cdf(x, a))
            assert abs(reg_lower_gamma(a, x) - ref) <= 1e-11

    @pytest.mark.parametrize("a, x, method", [
        (1e9, 0.9999e9, "series"),
        (1e10, 1e10 + 1.5, "continued fraction"),
    ])
    def test_unconverged_expansion_raises(self, a, x, method):
        with pytest.raises(DomainError, match=re.escape(
                f"{method} did not converge in 10000 iterations at a={a!r}, x={x!r}")):
            reg_lower_gamma(a, x)


class TestBetaQuantile:
    def test_symmetry(self):
        assert beta_quantile(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-13)

    def test_table_value(self):
        # one-sided exact binomial bound with 82 hits in 4000 draws
        assert beta_quantile(0.95, 83.0, 3918.0) == pytest.approx(
            0.024582, abs=1e-5
        )

    def test_round_trip_residual(self):
        rng = np.random.default_rng(20260819)
        for _ in range(60):
            a = float(rng.uniform(0.3, 300.0))
            b = float(rng.uniform(0.3, 300.0))
            p = float(rng.uniform(0.001, 0.999))
            x = beta_quantile(p, a, b)
            assert abs(reg_inc_beta(x, a, b) - p) <= 1e-10

    def test_defining_residual_on_grid(self):
        for a, b in [(2.0, 5.0), (60.0, 3.0), (0.7, 0.9), (83.0, 3918.0)]:
            for p in (1e-5, 0.01, 0.3, 0.7, 0.99, 1 - 1e-5):
                x = beta_quantile(p, a, b)
                assert abs(reg_inc_beta(x, a, b) - p) <= 1e-12

    def test_strictly_increasing_in_p(self):
        grid = np.linspace(0.01, 0.99, 50)
        vals = [beta_quantile(float(p), 4.0, 9.0) for p in grid]
        assert all(u < v for u, v in zip(vals, vals[1:]))

    def test_endpoints_and_domain(self):
        assert beta_quantile(0.0, 1.0, 1.0) == 0.0
        assert beta_quantile(1.0, 1.0, 1.0) == 1.0
        with pytest.raises(DomainError):
            beta_quantile(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            beta_quantile(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            beta_quantile(0.5, -2.0, 1.0)

    @pytest.mark.parametrize("p, a, b", [
        (math.nan, 2.0, 3.0),
        (0.5, math.nan, 3.0),
        (0.5, 2.0, math.nan),
        (0.5, math.inf, 3.0),
        (0.5, 2.0, math.inf),
    ], ids=["p_nan", "a_nan", "b_nan", "a_inf", "b_inf"])
    def test_rejects_nan_and_infinite_arguments(self, p, a, b):
        with pytest.raises(DomainError, match="beta_quantile"):
            beta_quantile(p, a, b)

    def test_tiny_root_matches_scipy(self):
        # The root is 1.37e-48, far below an absolute step tolerance.
        p, a, b = 0.00207861498053715, 0.05679738077552613, 3.006775496017107
        ref = float(scipy.special.betaincinv(a, b, p))
        assert abs(beta_quantile(p, a, b) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p, a, b", [
        (2.975059982684657e-88, 1.0321299934273924, 429.3288118468814),
        (1.2171866159996086e-128, 1.3831497282031053, 15.412677490437858),
        (8.324884433561147e-179, 1.6527830675078758, 6.14466616478805),
    ])
    def test_far_left_tail_matches_scipy(self, p, a, b):
        # The normal-theory start is decades off the root here.
        ref = float(scipy.special.betaincinv(a, b, p))
        assert abs(beta_quantile(p, a, b) - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("p", [1e-310, 1e-320, 5e-324])
    @pytest.mark.parametrize("a, b", [(1.5, 1.5), (2.0, 3.0), (3.0, 0.5)])
    def test_subnormal_p_matches_the_leading_order_root(self, p, a, b):
        # I_x = x^a / (a B(a, b)) (1 + O(x)), and the roots are below 1e-100
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        ref = math.exp((math.log(p) + math.log(a) + ln_beta) / a)
        assert abs(beta_quantile(p, a, b) - ref) <= 1e-9 * ref

    def test_increasing_across_the_smallest_normal_p(self):
        grid = [1e-300, 1e-305, 2.2250738585072014e-308, 2.225e-308, 1e-310,
                1e-315, 1e-320, 1e-322, 5e-324]
        vals = [beta_quantile(p, 2.0, 3.0) for p in grid]
        assert all(u > v for u, v in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a, b", [(1e300, 1e300), (1.7e308, 1.7e308)])
    def test_unresolvable_parameters_raise_domain_error(self, a, b):
        # reg_inc_beta's prefactor overflows at 1e300; a + b overflows at 1.7e308
        with pytest.raises(DomainError, match=re.escape(f"a={a!r}, b={b!r}")):
            beta_quantile(0.5, a, b)

    def test_random_grid_against_scipy(self):
        gen = np.random.default_rng(20261019)
        a, b = np.exp(gen.uniform(math.log(0.05), math.log(5000.0), (2, 5000)))
        p = gen.uniform(0.0, 1.0, 5000)
        ref = scipy.special.betaincinv(a, b, p)
        got = np.array([beta_quantile(*args) for args in zip(p, a, b)])
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.max(np.abs(got - ref) / ref) <= 1e-11


class TestNormal:
    def test_cdf_quantile_round_trip(self):
        for p in (1e-9, 1e-4, 0.025, 0.5, 0.8, 1 - 1e-6):
            assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-13 + 1e-9 * p

    def test_against_scipy(self):
        for p in np.linspace(0.001, 0.999, 41):
            ref = float(scipy.stats.norm.ppf(p))
            assert abs(normal_quantile(float(p)) - ref) <= 1e-11

    @pytest.mark.parametrize("p", [1e-300, 1e-310, 5e-324])
    def test_far_tail_against_scipy(self, p):
        # the CDF and the density underflow: no OverflowError at subnormal p
        ref = float(scipy.stats.norm.ppf(p))
        assert normal_quantile(p) == pytest.approx(ref, rel=1e-12)

    def test_far_tail_monotone(self):
        # distinct p from 1e-250 down to the smallest subnormal, across
        # the switch to the log-space steps at 1e-300
        grid = [10.0 ** e for e in np.linspace(-250.0, -323.3, 400)] + [5e-324]
        ps = sorted(set(grid), reverse=True)
        xs = [normal_quantile(p) for p in ps]
        assert np.all(np.diff(xs) < 0.0)
        assert xs[-1] == pytest.approx(-38.467405617144344, rel=1e-12)


class TestChi2Quantile:
    def test_df2_closed_form(self):
        for p in (0.01, 0.2, 0.5, 0.9, 0.999):
            want = -2.0 * math.log1p(-p)
            got = chi2_quantile(p, 2.0)
            assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_median_increasing_in_df(self):
        meds = [chi2_quantile(0.5, float(df)) for df in range(1, 40)]
        assert all(u < v for u, v in zip(meds, meds[1:]))

    def test_round_trip_relative(self):
        for df in (1.0, 2.0, 7.0, 33.0, 250.0):
            for p in (0.001, 0.05, 0.5, 0.95, 0.9999):
                x = chi2_quantile(p, df)
                back = reg_lower_gamma(df / 2.0, x / 2.0)
                assert abs(back - p) <= 1e-9

    def test_against_scipy(self):
        for df in (1, 3, 10, 100):
            for p in (0.01, 0.5, 0.99):
                ref = float(scipy.stats.chi2.ppf(p, df))
                assert abs(chi2_quantile(p, df) - ref) <= 1e-9 * ref


class TestStudentTQuantile:
    def test_median_is_zero(self):
        for dof in (1.0, 2.5, 84.0):
            assert student_t_quantile(0.5, dof) == 0.0

    def test_antisymmetry(self):
        for dof in (1.0, 4.0, 30.0):
            for p in (0.01, 0.2, 0.4):
                left = student_t_quantile(p, dof)
                right = student_t_quantile(1.0 - p, dof)
                assert abs(left + right) <= 1e-12 * max(1.0, abs(left))

    def test_cauchy_closed_form(self):
        for p in (0.05, 0.25, 0.6, 0.9, 0.99):
            want = math.tan(math.pi * (p - 0.5))
            assert abs(student_t_quantile(p, 1.0) - want) <= 1e-9 * max(
                1.0, abs(want)
            )

    def test_against_scipy(self):
        for dof in (1.0, 2.0, 5.0, 84.0, 180.0):
            for p in (0.001, 0.05, 0.3, 0.975, 0.9999):
                ref = float(scipy.stats.t.ppf(p, dof))
                assert abs(student_t_quantile(p, dof) - ref) <= 1e-9 * max(
                    1.0, abs(ref)
                )

    @pytest.mark.parametrize("p, dof", [(1e-6, 0.3), (1e-4, 0.2), (0.01, 0.1)])
    def test_heavy_tail_matches_scipy(self, p, dof):
        # Quantiles beyond -1e16: x = dof / (dof + t^2) is below 1e-32.
        ref = float(scipy.stats.t.ppf(p, dof))
        assert abs(student_t_quantile(p, dof) - ref) <= 1e-12 * abs(ref)

    def test_incomplete_beta_evaluations_at_sim_levels(self, monkeypatch):
        # The sim's FPQ and CR levels alpha / m with m = 7 rows, at its
        # two predictive dofs (OLS n - d = 84 and NIG 94).
        calls = []
        inner = stats.reg_inc_beta

        def counted(x, a, b):
            calls.append(x)
            return inner(x, a, b)

        monkeypatch.setattr(stats, "reg_inc_beta", counted)
        per_call = []
        for alpha in (0.01, 0.05, 0.1):
            for dof in (84.0, 94.0):
                calls.clear()
                t = student_t_quantile(alpha / 7, dof)
                per_call.append(len(calls))
                ref = float(scipy.stats.t.ppf(alpha / 7, dof))
                assert abs(t - ref) <= 1e-12 * abs(ref)
        assert np.mean(per_call) <= 6


class TestBinomialTail:
    def test_edge_cases(self):
        assert binomial_tail(10, 0.0, 1) == 1.0
        assert binomial_tail(10, 1.0, 3) == 0.0
        assert binomial_tail(10, 0.3, 11) == 1.0

    def test_single_term_closed_form(self):
        for n in (1, 7, 59, 400):
            for eps in (0.01, 0.05, 0.5, 0.93):
                want = (1.0 - eps) ** n
                assert abs(binomial_tail(n, eps, 1) - want) <= 5e-14 * max(
                    want, 1e-300
                )

    def test_exact_rational_summation(self):
        # every float input is a rational, so Fraction arithmetic gives
        # the mathematically exact value of the same sum
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 31))
            d = int(rng.integers(1, n + 2))
            eps = float(rng.uniform(0.02, 0.98))
            frac = Fraction(eps)
            exact = sum(
                Fraction(math.comb(n, j)) * frac**j * (1 - frac) ** (n - j)
                for j in range(d)
            )
            assert abs(binomial_tail(n, eps, d) - float(exact)) <= 1e-12

    def test_beta_cdf_identity(self):
        for n, d in [(20, 3), (59, 1), (300, 18)]:
            for eps in (0.02, 0.3, 0.77):
                want = 1.0 - reg_inc_beta(eps, float(d), float(n - d + 1))
                assert abs(binomial_tail(n, eps, d) - want) <= 1e-10

    def test_monotonicity(self):
        vals_n = [binomial_tail(n, 0.1, 3) for n in range(3, 120, 7)]
        assert all(u >= v for u, v in zip(vals_n, vals_n[1:]))
        vals_d = [binomial_tail(60, 0.1, d) for d in range(1, 20)]
        assert all(u <= v for u, v in zip(vals_d, vals_d[1:]))
        vals_e = [binomial_tail(60, e, 3) for e in np.linspace(0.01, 0.9, 15)]
        assert all(u >= v for u, v in zip(vals_e, vals_e[1:]))

    def test_domain(self):
        with pytest.raises(CountOutOfRange):
            binomial_tail(5, 0.1, 7)
        with pytest.raises(DomainError):
            binomial_tail(5, -0.2, 1)
        with pytest.raises(CountOutOfRange):
            binomial_tail(5, 0.1, 0)


class TestLogChoose:
    def test_against_math_comb(self):
        # math.comb's cost grows with min(k, n - k), so the middle is capped
        for n in (1, 9, 40, 300, 10**4, 10**5, 10**6):
            for k in {0, 1, min(n // 3, 10**4), min(n // 2, 5 * 10**4), n - 1, n}:
                want = math.log(math.comb(n, k))
                assert abs(log_choose(n, k) - want) <= 4e-15 * max(1.0, want)


class TestRng:
    def test_fixed_stream_reproduces(self):
        a = Rng(3, 17).generator.standard_normal(100)
        b = Rng(3, 17).generator.standard_normal(100)
        assert np.array_equal(a, b)

    def test_for_purpose_and_derive_stream(self):
        r1 = Rng.for_purpose(5, "scenario", 12)
        r2 = Rng.for_purpose(5, "scenario", 12)
        assert r1.stream_id == r2.stream_id == derive_stream_id(5, "scenario", 12)
        assert np.array_equal(r1.generator.random(9), r2.generator.random(9))

    def test_distinct_purposes_decorrelated(self):
        a = Rng.for_purpose(5, "a").generator.standard_normal(20000)
        b = Rng.for_purpose(5, "b").generator.standard_normal(20000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_seed_changes_output(self):
        a = Rng.for_purpose(1, "x").generator.random(50)
        b = Rng.for_purpose(2, "x").generator.random(50)
        assert not np.array_equal(a, b)

    def test_same_address_restarts_stream(self):
        r = Rng.for_purpose(9, "clone")
        first = r.generator.random(10)
        again = Rng(r.seed, r.stream_id).generator.random(10)
        assert np.array_equal(first, again)


def _beta(a, b) -> BetaCoverage:
    return BetaCoverage(a=a, b=b, threshold=0.0)


def _student_t(dof, loc, scale) -> StudentTRhs:
    return StudentTRhs(rows=np.zeros((len(dof), 1)), dof=dof, loc=loc,
                       scale=scale)


class TestSamplers:
    """The laws the posterior models draw from, checked against scipy."""

    def test_normal_mean_band(self):
        draws = Rng.for_purpose(42, "clt").generator.standard_normal(1_000_000)
        assert abs(draws.mean()) <= 4.0 / math.sqrt(1_000_000)

    def test_beta_uniform_ks(self):
        draws = _beta([[1.0]], [[1.0]]).draw(Rng.for_purpose(42, "ks"), 20000)
        stat = scipy.stats.kstest(draws.ravel(), "uniform").statistic
        crit_1pct = 1.6276 / math.sqrt(20000)
        assert stat < crit_1pct

    def test_beta_moments(self):
        for shape in (0.3, 1.0, 4.7, 40.0):
            draws = _beta([[shape]], [[2.0]]).draw(
                Rng.for_purpose(42, "beta-moments", shape), 200000).ravel()
            assert np.all((draws > 0) & (draws < 1))
            mean, var = scipy.stats.beta.stats(shape, 2.0, moments="mv")
            se = math.sqrt(var / 200000)
            assert abs(draws.mean() - mean) <= 5 * se

    def test_quantile_consistency(self):
        n = 100000
        t_draws = _student_t([6.0], [0.0], [1.0]).draw(
            Rng.for_purpose(42, "tq"), n)[:, 0]
        b_draws = _beta([[3.0]], [[8.0]]).draw(Rng.for_purpose(42, "bq"), n).ravel()
        for p in (0.1, 0.5, 0.9):
            q_t = student_t_quantile(p, 6.0)
            pdf_t = float(scipy.stats.t.pdf(q_t, 6.0))
            se_t = math.sqrt(p * (1 - p) / n) / pdf_t
            assert abs(np.quantile(t_draws, p) - q_t) <= 3 * se_t
            q_b = beta_quantile(p, 3.0, 8.0)
            pdf_b = float(scipy.stats.beta.pdf(q_b, 3.0, 8.0))
            se_b = math.sqrt(p * (1 - p) / n) / pdf_b
            assert abs(np.quantile(b_draws, p) - q_b) <= 3 * se_b

    def test_student_t_rhs_per_row_dof(self):
        # one call draws rows with different dof, each with its own law
        n = 50000
        dof, loc, scale = np.array([3.0, 30.0]), [1.0, -2.0], [0.5, 3.0]
        draws = _student_t(dof, loc, scale).draw(Rng.for_purpose(43, "t-rows"), n)
        assert draws.shape == (n, 2)
        for j in range(2):
            q = student_t_quantile(0.9, dof[j])
            se = math.sqrt(0.09 / n) / float(scipy.stats.t.pdf(q, dof[j]))
            assert abs(np.quantile(draws[:, j], 0.9) - (loc[j] + scale[j] * q)) \
                <= 3 * scale[j] * se

    def test_student_t_ks(self):
        model = _student_t([4.0], [1.5], [0.5])
        draws = model.draw(Rng.for_purpose(42, "t-ks"), 20000)[:, 0]
        stat = scipy.stats.kstest(draws, "t", args=(4.0, 1.5, 0.5)).statistic
        assert stat < 1.6276 / math.sqrt(20000)

    def test_student_t_moments(self):
        for dof in (5.0, 30.0):
            draws = _student_t([dof], [-3.0], [2.0]).draw(
                Rng.for_purpose(42, "t-moments", dof), 200000)[:, 0]
            se = 2.0 * math.sqrt(dof / (dof - 2.0) / 200000)
            assert abs(draws.mean() + 3.0) <= 5 * se

    def test_non_finite_parameters_rejected(self):
        # rejected when the model is built, before any draw
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError):
                _student_t([bad], [0.0], [1.0])
            with pytest.raises(DomainError):
                _student_t([2.0, bad], [0.0, 0.0], [1.0, 1.0])
            with pytest.raises(DomainError):
                _beta([[2.0, bad]], [[1.0, 1.0]])
            with pytest.raises(DomainError):
                _beta([[2.0]], [[bad]])

    def test_beta_parameters_must_broadcast_together(self):
        with pytest.raises(DomainError):
            _beta(np.ones((1, 3)), np.ones((1, 4)))
        with pytest.raises(DomainError):
            _beta(np.ones((2, 3)), np.ones((3, 2)))

    def test_beta_broadcasting(self):
        # each cell is drawn from its own parameters
        a = np.array([[2.0, 30.0], [5.0, 1.0]])
        b = np.array([[8.0, 3.0], [5.0, 1.0]])
        n = 20000
        draws = _beta(a, b).draw(Rng.for_purpose(4, "bc"), n)
        assert draws.shape == (n, 2, 2)
        assert np.all((draws > 0) & (draws < 1))
        mean, var = scipy.stats.beta.stats(a, b, moments="mv")
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 5 * np.sqrt(var / n))


_GRID_A = np.linspace(0.2, 40.0, 90).reshape(3, 30)
_GRID_B = np.linspace(60.0, 0.5, 90).reshape(3, 30)


def _strided(values):
    wide = np.zeros((values.shape[0], 2 * values.shape[1]))
    wide[:, ::2] = values
    return wide[:, ::2]


# layout name -> a non-C-contiguous array with the values of its argument
_LAYOUTS = {
    "fortran": np.asfortranarray,
    "strided": _strided,
    "transposed": lambda values: np.ascontiguousarray(values.T).T,
}


class TestSamplerStream:
    """A model's draws depend on its parameter values, not their layout."""

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_parameter_layout_keeps_the_draws(self, layout):
        # the same parameter values in another memory layout give the same
        # bytes and leave the generator at the same place
        a = _LAYOUTS[layout](_GRID_A)
        b = _LAYOUTS[layout](_GRID_B)
        assert np.array_equal(a, _GRID_A) and not a.flags.c_contiguous
        r_c = Rng.for_purpose(2026, "layout", "beta_coverage")
        r_other = Rng(r_c.seed, r_c.stream_id)
        want = BetaCoverage(_GRID_A, _GRID_B, 1.0).draw(r_c, 1024)
        got = BetaCoverage(a, b, 1.0).draw(r_other, 1024)
        assert got.tobytes() == want.tobytes()
        assert r_other.generator.random() == r_c.generator.random()
