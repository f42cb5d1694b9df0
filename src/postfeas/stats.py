"""Special functions, quantiles, and seeded sampling.

Scalar special functions are written against float64 and validated in the
test suite against independent oracles (closed forms, quadrature, multi
precision).  Sampling goes through :class:`Rng`, a counter-based generator
with explicit stream derivation, so that every consumer of randomness in
the package can be replayed from a ``(seed, stream_id)`` pair.
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np

from .errors import CountOutOfRange, DomainError

__all__ = [
    "log_choose",
    "reg_inc_beta",
    "reg_lower_gamma",
    "beta_quantile",
    "chi2_quantile",
    "student_t_quantile",
    "normal_cdf",
    "normal_quantile",
    "binomial_tail",
    "derive_stream_id",
    "Rng",
    "normal_array",
    "uniform_array",
]

_LN_SQRT_2PI = 0.9189385332046727417803297364056176398

# Stirling remainder del(x) = lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi))
# ~ sum_k c_k x^-(2k+1), coefficients economized for x >= 8 (DiDonato &
# Morris 1992, ACM TOMS 18(3), Algorithm 708: algdiv, bcorr).
_DEL_COEF = (0.0833333333333333, -0.00277777777760991, 7.9365066682539e-4,
             -5.95202931351870e-4, 8.37308034031215e-4, -0.00165322962780713)

_FPMIN = 1e-300
_CF_EPS = 1e-16
_CF_MAX_ITER = 500


def _del_sum(t: float, y: float) -> float:
    """sum_k c_k s_k t^k with s_k = (1 - y^(2k+1)) / (1 - y)."""
    w, s_k, t_k = 0.0, 1.0, 1.0
    for c in _DEL_COEF:
        w += c * s_k * t_k
        s_k, t_k = 1.0 + y + y * y * s_k, t_k * t
    return w


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0, without cancellation (-inf on overflow).

    With both below 8 it is the lgamma difference.  Otherwise, as in
    Algorithm 708's betaln, the Stirling terms are combined analytically
    through log1p(a / b), a <= b, and only the remainders are summed:
    del(b) - del(a + b) = a / ((a + b) b) sum_k c_k s_k b^-2k with
    y = b / (a + b).  The error is a few ulp of max(1, |log B|).
    """
    a, b = min(a, b), max(a, b)
    if b < 8.0:
        return math.lgamma(a) + (math.lgamma(b) - math.lgamma(a + b))
    h = a / b
    w = _del_sum(1.0 / (b * b), 1.0 / (1.0 + h)) * (h / (1.0 + h) / b)
    if a < 8.0:  # algdiv: lgamma(b) - lgamma(a + b)
        u = (b + (a - 0.5)) * math.log1p(h)
        v = a * (math.log(b) - 1.0)
        return math.lgamma(a) + (w - v - u if u > v else w - u - v)
    # bcorr adds del(a); then the Stirling terms of all three log-gammas
    w += _del_sum(1.0 / (a * a), 0.0) / a - 0.5 * math.log(b) + _LN_SQRT_2PI
    u = -(a - 0.5) * math.log(h / (1.0 + h))
    v = b * math.log1p(h)
    return w - v - u if u > v else w - u - v


def log_choose(n: int, k: int) -> float:
    """log C(n, k) = -log((n + 1) B(k + 1, n - k + 1)), 0 <= k <= n."""
    if k < 0 or k > n:
        raise DomainError(f"log_choose requires 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    return -math.log(n + 1.0) - _log_beta(k + 1.0, n - k + 1.0)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by the
    modified Lentz algorithm.  Converges fast for x < (a+1)/(a+b+2)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    I_x(a, b) = B(x; a, b) / B(a, b) for x in [0, 1], a > 0, b > 0.
    Continued-fraction evaluation with the symmetry split at
    x = (a+1)/(a+b+2) so the fraction always converges quickly.
    """
    x = float(x)
    a = float(a)
    b = float(b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a!r}, b={b!r}")
    if x < 0.0 or x > 1.0 or not math.isfinite(x):
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        val = front * _beta_cf(a, b, x) / a
    else:
        val = 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
    # clip tiny negative / >1 excursions from roundoff
    if val < 0.0:
        return 0.0
    if val > 1.0:
        return 1.0
    return val


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.

    Series expansion for x < a + 1, Lentz continued fraction for the
    complement otherwise.
    """
    a = float(a)
    x = float(x)
    if a <= 0.0:
        raise DomainError(f"reg_lower_gamma requires a > 0, got {a!r}")
    if x < 0.0 or not math.isfinite(x):
        if x == math.inf:
            return 1.0
        raise DomainError(f"reg_lower_gamma requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    ln_pref = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # series: P(a,x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
        term = 1.0 / a
        total = term
        n = a
        for _ in range(_CF_MAX_ITER * 4):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * _CF_EPS:
                break
        val = total * math.exp(ln_pref)
        return min(max(val, 0.0), 1.0)
    # continued fraction for Q(a,x)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER * 4):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            break
    q = math.exp(ln_pref) * h
    return min(max(1.0 - q, 0.0), 1.0)


def _check_prob_open(p: float, name: str) -> float:
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"{name} requires p in (0, 1), got {p!r}")
    return p


def _log1p_exp(z: float) -> float:
    """log(1 + e^z) without overflow."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _beta_quantile_start(p: float, a: float, b: float) -> float:
    """Initial estimate of x with I_x(a, b) = p, for 0 < p < 1.

    a, b >= 1: Abramowitz & Stegun 26.5.22, a normal approximation with
    skewness corrections, taken at the exact normal quantile.  Otherwise
    the two-tail power guess of Numerical Recipes (3rd ed., section 6.4):
    I_x ~ x^a / (a w) near 0 and 1 - (1-x)^b / (b w) near 1, with w
    normalising the two.  Both are evaluated in log space, so neither
    overflows; the result may round to 0 or 1.
    """
    if a >= 1.0 and b >= 1.0:
        y = -normal_quantile(p)
        lam = (y * y - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = y * math.sqrt(h + lam) / h - (
            1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)
        ) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        # x = a / (a + b e^{2w}) = 1 / (1 + e^z)
        z = 2.0 * w + math.log(b / a)
        return math.exp(-_log1p_exp(z))
    ln_ab = math.log(a + b)
    ln_a = math.log(a) - ln_ab
    ln_b = math.log(b) - ln_ab
    # w = t + u with t = (a/(a+b))^a / a and u = (b/(a+b))^b / b
    ln_t_over_u = a * ln_a - math.log(a) - b * ln_b + math.log(b)
    ln_w_over_t = _log1p_exp(-ln_t_over_u)
    if math.log(p) < -ln_w_over_t:  # p < t / w: x = (a w p)^(1/a)
        return math.exp(ln_a + (math.log(p) + ln_w_over_t) / a)
    # 1 - x = (b w (1 - p))^(1/b)
    return -math.expm1(ln_b + (math.log1p(-p) + _log1p_exp(ln_t_over_u)) / b)


def _beta_quantile_subnormal(p: float, a: float, b: float, ln_beta: float,
                             lg_err: float) -> float:
    """beta_quantile for 0 < p below the smallest normal double.

    Newton steps on g(u) = log I_x(a, b) - log p against u = log x, from
    the leading-order root (p a B(a, b))^(1/a) of I_x ~ x^a / (a B(a, b)).
    Below the continued fraction's split, log I_x is the log prefactor
    plus the log of the fraction, so it never underflows.  A step leaving
    the sign bracket of the evaluations so far is replaced by bisection;
    the bracket starts at x = 2^-1075, below which x rounds to 0.  It
    stops once |step| <= 1e-12 or |g| is down to the rounding of its
    terms, and returns e^(u - step).
    """
    ln_p = math.log(p)
    split = (a + 1.0) / (a + b + 2.0)
    lo, hi = -1075.0 * math.log(2.0), 0.0
    u = min(max((ln_p + math.log(a) + ln_beta) / a, lo), -math.ulp(1.0))
    for _ in range(200):
        x = math.exp(u)
        ln_1mx = math.log1p(-x)
        if x < split:
            ln_front = a * u + b * ln_1mx - ln_beta
            ln_i = ln_front + math.log(_beta_cf(a, b, x) / a)
        else:
            ln_front = 0.0
            ln_i = math.log(reg_inc_beta(x, a, b))
        g = ln_i - ln_p
        if g > 0.0:
            hi = u
        elif g < 0.0:
            lo = u
        else:
            return x
        # d log I_x / d log x = x pdf(x) / I_x
        ln_slope = a * u + (b - 1.0) * ln_1mx - ln_beta - ln_i
        step = g / math.exp(min(ln_slope, 700.0))
        g_floor = lg_err + 4.0 * math.ulp(1.0) * (abs(ln_front) + abs(ln_p))
        if abs(step) <= 1e-12 or abs(g) <= g_floor:
            return math.exp(u - step) if lo <= u - step <= hi else x
        u_new = u - step
        if not lo < u_new < hi:
            u_new = 0.5 * (lo + hi)
            if not lo < u_new < hi:  # the bracket is two adjacent floats
                return x
        u = u_new
    return math.exp(u)


def beta_quantile(p: float, a: float, b: float) -> float:
    """Inverse of the regularized incomplete beta: x with I_x(a, b) = p.

    Starts at the Abramowitz-Stegun 26.5.22 root when a, b >= 1 and at
    the two-tail power guess of Numerical Recipes (3rd ed., section 6.4,
    invbetai) otherwise.  While the tail probability on p's side of the
    median is within a factor 2 of its target, it takes Halley steps on
    f(x) = I_x(a, b) - p: with the Newton step u = f / f'(x), the step
    is u / (1 - min(1, u/2 ((a-1)/x - (b-1)/(1-x)))), never longer than
    twice Newton's.  Farther out it takes Newton steps on the log of
    that tail probability against log x (log(1 - x) above the median).
    A step leaving the sign bracket [lo, hi] of the evaluations so far
    is replaced by bisection.  It stops, before the bracket test, once
    a Halley step has |step| <= 1e-12 x or |f| is down to the rounding
    of reg_inc_beta's log prefactor, and returns x - step.
    Started this way, a Clopper-Pearson bound at M = 5000 takes about
    two evaluations of reg_inc_beta.  Below the smallest normal double
    I_x itself has only subnormal precision, so there the residual is
    log I_x - log p (_beta_quantile_subnormal).  Raises DomainError when
    the log prefactor of I_x rounds by 1 or more, as it does wherever
    a + b overflows, since no x can then be told from the root.
    """
    p = float(p)
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a > 0.0 and b > 0.0):
        raise DomainError(
            f"beta_quantile requires finite a, b > 0, got a={a!r}, b={b!r}"
        )
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"beta_quantile requires p in [0, 1], got {p!r}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    ln_beta = _log_beta(a, b)
    # Near the root reg_inc_beta's log prefactor adds terms about as large
    # as ln_beta, so no x resolves |f| below about lg_err * min(p, 1 - p).
    # From lg_err = 1 on (every a + b that overflows has |ln_beta| > 1e307)
    # the stop below would accept any x near the root.
    lg_err = 8.0 * math.ulp(1.0) * (1.0 + abs(ln_beta))
    if not lg_err < 1.0:
        raise DomainError(
            f"beta_quantile cannot resolve I_x(a, b) at a={a!r}, b={b!r}: "
            f"the log of its prefactor rounds by {lg_err:.3g}"
        )
    if p < sys.float_info.min:
        return _beta_quantile_subnormal(p, a, b, ln_beta, lg_err)
    f_floor = lg_err * min(p, 1.0 - p)
    lo, hi = 0.0, 1.0
    x = min(max(_beta_quantile_start(p, a, b), _FPMIN), math.nextafter(1.0, 0.0))
    for _ in range(200):
        i_x = reg_inc_beta(x, a, b)
        f = i_x - p
        if f > 0.0:
            hi = x
        elif f < 0.0:
            lo = x
        else:
            return x
        # The tail probability on p's side of the median, and its target.
        tail, target = (i_x, p) if p <= 0.5 else (1.0 - i_x, 1.0 - p)
        ln_pdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_beta
        x_new = -1.0  # outside every bracket: bisect
        if 0.5 * target <= tail <= 2.0 * target:
            # Halley on f, with the density in log space; a step longer
            # than the unit interval is left to bisection.
            ln_step = math.log(abs(f)) - ln_pdf
            if ln_step < 0.0:
                step = math.copysign(math.exp(ln_step), f)
                bend = step * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))
                step /= 1.0 - 0.5 * min(1.0, bend)
                if abs(step) <= 1e-12 * x or abs(f) <= f_floor:
                    return x - step if lo <= x - step <= hi else x
                x_new = x - step
        elif tail > 0.0:
            # Far from the root f is nearly flat or nearly exponential and
            # its Newton step over- or undershoots.  Take Newton's step on
            # log(tail) against log(x), or log(1 - x) above the median,
            # which is exact where the tail is a power law.
            side = x if p <= 0.5 else 1.0 - x
            ln_gain = math.log(tail) - math.log(side) - ln_pdf
            move = ((math.log(target) - math.log(tail))
                    * math.exp(min(ln_gain, 700.0)))
            side *= math.exp(min(move, 700.0))
            x_new = side if p <= 0.5 else 1.0 - side
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
            if not lo < x_new < hi:  # the bracket is two adjacent floats
                return x
        x = x_new
    return x


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


# Acklam's rational initializer for the inverse normal CDF.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)


def _mills_ratio(t: float) -> float:
    """Phi(-t) / phi(t) for large t, by its continued fraction
    1 / (t + 1 / (t + 2 / (t + 3 / ...))) (Abramowitz & Stegun 26.2.14)."""
    r = 0.0
    for k in range(40, 0, -1):
        r = k / (t + r)
    return 1.0 / (t + r)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, accurate to a few ulp.

    Rational initial estimate refined with two Halley steps against the
    erfc-based CDF.  Below p = 1e-300 the CDF and the density underflow,
    so two Newton steps on log Phi(x) = log p take their place, with
    log Phi(x) = log phi(x) + log R(-x) through the Mills ratio R.
    """
    p = _check_prob_open(p, "normal_quantile")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p < _FPMIN:
        log_p = math.log(p)
        for _ in range(2):
            ratio = _mills_ratio(-x)
            log_cdf = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi) + math.log(ratio)
            x = x - (log_cdf - log_p) * ratio
        return x
    for _ in range(2):
        e = normal_cdf(x) - p
        u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
        x = x - u / (1.0 + 0.5 * x * u)
    return x


def chi2_quantile(p: float, df: float) -> float:
    """Inverse chi-square CDF with df > 0 degrees of freedom.

    Wilson-Hilferty initial estimate, then safeguarded Newton on the
    regularized lower incomplete gamma.
    """
    p = _check_prob_open(p, "chi2_quantile")
    df = float(df)
    if df <= 0.0:
        raise DomainError(f"chi2_quantile requires df > 0, got {df!r}")
    a = 0.5 * df
    z = normal_quantile(p)
    # Wilson-Hilferty cube approximation
    h = 2.0 / (9.0 * df)
    x = df * (1.0 - h + z * math.sqrt(h)) ** 3
    if x <= 0.0:
        x = df * math.exp((math.log(p) + math.lgamma(a) + a * math.log(2.0)) / a)
        if x <= 0.0:
            x = 1e-300
    lo, hi = 0.0, math.inf
    ln_norm = math.lgamma(a) + a * math.log(2.0)
    for _ in range(200):
        f = reg_lower_gamma(a, 0.5 * x) - p
        if f > 0.0:
            hi = x
        elif f < 0.0:
            lo = x
        else:
            return x
        ln_pdf = (a - 1.0) * math.log(x) - 0.5 * x - ln_norm
        step = f / math.exp(ln_pdf) if ln_pdf > -700.0 else 0.0
        x_new = x - step
        if not (lo < x_new < (hi if math.isfinite(hi) else x_new + 1.0)) or step == 0.0:
            x_new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * x
        if abs(x_new - x) <= 1e-14 * max(abs(x), 1e-300):
            return x_new
        x = x_new
    return x


def student_t_quantile(p: float, dof: float) -> float:
    """Inverse CDF of the Student-t distribution with dof > 0.

    Reduced to the inverse incomplete beta through
    I_x(dof/2, 1/2) = 2 min(p, 1-p) with x = dof / (dof + t^2).
    """
    p = _check_prob_open(p, "student_t_quantile")
    dof = float(dof)
    if dof <= 0.0:
        raise DomainError(f"student_t_quantile requires dof > 0, got {dof!r}")
    if p == 0.5:
        return 0.0
    tail2 = 2.0 * min(p, 1.0 - p)
    x = beta_quantile(tail2, 0.5 * dof, 0.5)
    if x <= 0.0:
        x = 1e-300
    t = math.sqrt(dof * (1.0 - x) / x)
    return t if p > 0.5 else -t


def binomial_tail(n_draws: int, eps: float, d: int) -> float:
    """Lower binomial tail sum_{j=0}^{d-1} C(N, j) eps^j (1-eps)^(N-j).

    Evaluated in log space term by term.  Edge cases: eps = 0 gives 1
    (for d >= 1), eps = 1 gives 0 unless d > N, and d = N + 1 gives 1
    exactly (the sum is the full mass).
    """
    n_draws = int(n_draws)
    d = int(d)
    if n_draws < 0:
        raise CountOutOfRange(f"binomial_tail requires N >= 0, got {n_draws}")
    if d < 1 or d > n_draws + 1:
        raise CountOutOfRange(
            f"binomial_tail requires 1 <= d <= N + 1, got d={d}, N={n_draws}"
        )
    eps = float(eps)
    if not (0.0 <= eps <= 1.0):
        raise DomainError(f"binomial_tail requires eps in [0, 1], got {eps!r}")
    if d == n_draws + 1:
        return 1.0
    if eps == 0.0:
        return 1.0
    if eps == 1.0:
        return 0.0
    ln_e = math.log(eps)
    ln_1me = math.log1p(-eps)
    terms = []
    for j in range(d):
        ln_term = log_choose(n_draws, j) + j * ln_e + (n_draws - j) * ln_1me
        terms.append(math.exp(ln_term))
    total = math.fsum(terms)
    return min(max(total, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Seeded, stream-addressable random source
# ---------------------------------------------------------------------------


def derive_stream_id(*parts) -> int:
    """Collapse an arbitrary tag tuple into a stable 64-bit stream id.

    Hash-based so that (seed, trial, purpose) style tags give streams
    that never collide by accident and never depend on call order.
    """
    if not parts:
        raise DomainError("derive_stream_id requires at least one part")
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Counter-based random stream addressed by (seed, stream_id).

    The Philox key is a hash of the pair, so distinct stream ids derived
    from one seed give statistically independent streams, and the same
    pair always replays the identical sequence regardless of what other
    streams were consumed in between.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        raw = hashlib.sha256(
            f"postfeas|{self.seed}|{self.stream_id}".encode("utf-8")
        ).digest()
        key = int.from_bytes(raw[:16], "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @classmethod
    def for_purpose(cls, seed: int, *tags) -> "Rng":
        """Rng on the stream derived from hash(seed, *tags)."""
        return cls(seed, derive_stream_id(seed, *tags))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rng(seed={self.seed}, stream_id={self.stream_id})"


def normal_array(rng: Rng, size) -> np.ndarray:
    """Standard normal draws of the given shape."""
    return rng.generator.standard_normal(size)


def uniform_array(rng: Rng, size) -> np.ndarray:
    """Uniform(0, 1) draws of the given shape."""
    return rng.generator.random(size)
