"""Arbitrary-precision special functions and exact integer sequences.

Gamma, the alternating Hurwitz sum, the Airy function Ai and its derivative,
Bernoulli / Euler / Genocchi numbers, and the generalized hypergeometric 4F3
at unit argument.  Everything is pure and deterministic given (inputs, dps).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mpf

from .errors import (
    DivergentSeriesError,
    GammaPoleError,
    PrecisionUnreachableError,
    TailBoundError,
)
from .precision import DEFAULT_DPS, GUARD, rounded, working


# --------------------------------------------------------------------------
# Gamma
# --------------------------------------------------------------------------

def gamma(x, dps: int = DEFAULT_DPS):
    """Gamma(x) to dps digits.  Raises GammaPoleError at 0, -1, -2, ..."""
    with working(dps):
        if isinstance(x, Fraction):
            x = mpf(x.numerator) / x.denominator
        x = mpmath.mpmathify(x)
        if mpmath.im(x) == 0:
            xr = mpmath.re(x)
            if xr <= 0 and mpmath.isint(xr):
                raise GammaPoleError(f"gamma pole at {x}")
        val = mpmath.gamma(x)
    return rounded(val, dps)


# --------------------------------------------------------------------------
# Alternating Hurwitz sum
# --------------------------------------------------------------------------

def alternating_hurwitz(s, a):
    """sum_{k>=0} (-1)^k (k+a)^(-s) for real s and a > 0, at the ambient
    precision, as 2^(-s) [zeta(s, a/2) - zeta(s, (a+1)/2)]; the identity
    continues analytically to every s != 1, and at s = 1 the poles of the
    two halves cancel to (psi((a+1)/2) - psi(a/2)) / 2."""
    s, a = mpf(s), mpf(a)
    if a <= 0:
        raise ValueError("alternating_hurwitz requires a > 0")
    # the halves cancel by about |s-1|^-1 (pole) and a (close arguments);
    # mpmath.zeta sums to an absolute tolerance, so a value near a^-s also
    # needs its magnitude back as extra bits
    bits = max(0, mpmath.mag(a))
    extra = 16 + bits + max(0, int(s * bits))
    if s == 1:
        with mpmath.extraprec(extra):
            val = (mpmath.psi(0, (a + 1) / 2) - mpmath.psi(0, a / 2)) / 2
    else:
        with mpmath.extraprec(extra + max(0, -mpmath.mag(s - 1))):
            val = mpmath.power(2, -s) * (mpmath.zeta(s, a / 2)
                                         - mpmath.zeta(s, (a + 1) / 2))
    return +val


# --------------------------------------------------------------------------
# Integer sequences (exact)
# --------------------------------------------------------------------------

class IntegerSequenceKind(enum.Enum):
    BERNOULLI = "bernoulli"
    EULER = "euler"
    GENOCCHI = "genocchi"


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def euler_number(n: int) -> int:
    """Exact Euler number E_n (secant numbers; odd-index values are 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 1:
        return 0
    if n == 0:
        return 1
    m = n // 2
    acc = 0
    for k in range(m):
        acc += math.comb(n, 2 * k) * euler_number(2 * k)
    return -acc


def genocchi_number(n: int) -> int:
    """Exact Genocchi number G_n = 2 (1 - 2^n) B_n for even n."""
    g = 2 * (1 - Fraction(2) ** n) * bernoulli_number(n)
    assert g.denominator == 1
    return int(g)


def integer_sequence(kind: IntegerSequenceKind, index: int):
    """Exact value of the named sequence at the given (even) index."""
    if kind is IntegerSequenceKind.BERNOULLI:
        return bernoulli_number(index)
    if kind is IntegerSequenceKind.EULER:
        return euler_number(index)
    if kind is IntegerSequenceKind.GENOCCHI:
        return genocchi_number(index)
    raise ValueError(f"unknown sequence kind {kind!r}")


# --------------------------------------------------------------------------
# Airy function
# --------------------------------------------------------------------------

def airy_taylor_coefficient(n: int, dps: int = DEFAULT_DPS):
    """n-th derivative of Ai at 0 via the closed form
    3^((n-2)/3) / pi * sin(2(n+1)pi/3) * Gamma((n+1)/3).

    Exact zero for n = 2 mod 3 (the sine factor vanishes there).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 3 == 2:
        return mpf(0)
    sign = 1 if n % 3 == 0 else -1  # sin(2(n+1)pi/3) = +-sqrt(3)/2
    with working(dps):
        val = (sign * mpmath.power(3, mpf(n - 2) / 3) / mpmath.pi
               * mpmath.sqrt(3) / 2 * mpmath.gamma(mpf(n + 1) / 3))
    return rounded(val, dps)


def _airy_taylor(x, dps: int):
    """(Ai, Ai') from one pass of the power series about 0 (entire)."""
    xi = mpf(2) / 3 * abs(mpmath.mpf(x)) ** mpf(1.5)
    guard = 20 + int(2 * xi * 0.4343)  # cancellation grows like exp(2 xi)
    with working(dps, guard):
        x = mpf(x)
        tol = mpf(10) ** (-(dps + GUARD + 10))
        ai0 = mpmath.power(3, mpf(-2) / 3) / mpmath.gamma(mpf(2) / 3)
        aip0 = -mpmath.power(3, mpf(-1) / 3) / mpmath.gamma(mpf(1) / 3)
        # f: a0=1 branch, g: a1=1 branch of y'' = x y; we track value and
        # derivative series together.
        f = mpf(1)
        fp = mpf(0)
        g = x
        gp = mpf(1)
        cf = mpf(1)          # coefficient a_{3k} of f
        cg = mpf(1)          # coefficient a_{3k+1} of g
        xp3 = x ** 3
        xf = mpf(1)          # x^{3k}
        xg = x               # x^{3k+1}
        k = 0
        biggest = mpf(1)
        while True:
            k += 1
            cf = cf / ((3 * k) * (3 * k - 1))
            cg = cg / ((3 * k + 1) * (3 * k))
            xf *= xp3
            xg *= xp3
            tf = cf * xf
            tg = cg * xg
            f += tf
            g += tg
            fp += (3 * k) * cf * xf / x if x != 0 else mpf(0)
            gp += (3 * k + 1) * cg * xg / x if x != 0 else mpf(0)
            biggest = max(biggest, abs(tf), abs(tg))
            if abs(tf) < tol * biggest and abs(tg) < tol * biggest and 3 * k > 3 * abs(x) ** mpf(1.5) + 9:
                break
        val = ai0 * f + aip0 * g
        der = ai0 * fp + aip0 * gp
    return rounded(val, dps), rounded(der, dps)


def _asymptotic_u_terms(max_terms: int):
    """Generator of the u_k (and v_k) coefficients of the large-x expansions."""
    u = mpf(1)
    yield u, mpf(1)
    for k in range(1, max_terms):
        u = u * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216 * k * (2 * k - 1))
        v = u * (6 * k + 1) / mpf(1 - 6 * k)
        yield u, v


def _sum_asymptotic(xi, parity_filter, use_v, tol, sign_of_k=None):
    """Truncated sum of sign(k) c_k xi^(-k) over k in the parity class; stops
    at the smallest term and returns (sum, first omitted term magnitude)."""
    if sign_of_k is None:
        sign_of_k = lambda k: (-1) ** k
    acc = mpf(0)
    prev = mpmath.inf
    k = 0
    for u, v in _asymptotic_u_terms(10000):
        c = v if use_v else u
        if parity_filter(k):
            term = sign_of_k(k) * c / xi ** k
            if abs(term) > prev:
                return acc, prev
            acc += term
            prev = abs(term)
            if prev < tol:
                return acc, prev
        k += 1
    return acc, prev


def _airy_asymptotic(x, derivative: int, dps: int):
    with working(dps, 10):
        x = mpf(x)
        tol = mpf(10) ** (-(dps + 5))
        sqrtpi = mpmath.sqrt(mpmath.pi)
        if x > 0:
            xi = mpf(2) / 3 * x ** mpf(1.5)
            s, err = _sum_asymptotic(xi, lambda k: True, derivative == 1, tol)
            scale = mpmath.exp(-xi) / (2 * sqrtpi)
            if derivative == 0:
                val = scale * s / x ** mpf(0.25)
            else:
                val = -scale * s * x ** mpf(0.25)
            bound = abs(scale) * err
        else:
            z = -x
            zeta = mpf(2) / 3 * z ** mpf(1.5)
            ang = zeta - mpmath.pi / 4
            pair_sign = lambda k: (-1) ** (k // 2)
            if derivative == 0:
                se, ee = _sum_asymptotic(zeta, lambda k: k % 2 == 0, False, tol, pair_sign)
                so, eo = _sum_asymptotic(zeta, lambda k: k % 2 == 1, False, tol, pair_sign)
                val = (mpmath.cos(ang) * se + mpmath.sin(ang) * so) / (sqrtpi * z ** mpf(0.25))
                bound = (ee + eo) / (sqrtpi * z ** mpf(0.25))
            else:
                se, ee = _sum_asymptotic(zeta, lambda k: k % 2 == 0, True, tol, pair_sign)
                so, eo = _sum_asymptotic(zeta, lambda k: k % 2 == 1, True, tol, pair_sign)
                val = (mpmath.sin(ang) * se - mpmath.cos(ang) * so) * z ** mpf(0.25) / sqrtpi
                bound = (ee + eo) * z ** mpf(0.25) / sqrtpi
        # certify against the envelope scale: near a zero the value itself
        # cancels, but an absolute error at envelope scale is still fine
        if x > 0:
            scale = abs(mpmath.exp(-xi) / (2 * sqrtpi)) * max(mpf(1), abs(s))
            if derivative == 0:
                scale /= x ** mpf(0.25)
            else:
                scale *= x ** mpf(0.25)
        else:
            z = -x
            if derivative == 0:
                scale = (abs(se) + abs(so)) / (sqrtpi * z ** mpf(0.25)) + abs(val)
            else:
                scale = (abs(se) + abs(so)) * z ** mpf(0.25) / sqrtpi + abs(val)
        if bound > mpf(10) ** (-dps) * max(scale, mpf(10) ** (-dps)):
            raise PrecisionUnreachableError(
                f"asymptotic Airy series cannot certify {dps} digits at x={x}")
    return rounded(val, dps)


#: Taylor/asymptotic switchover floor; above this AND above the precision-driven
#: threshold the asymptotic series is used.  Tested, not assumed.
AIRY_SWITCHOVER = 6.0


def _airy_pair(x, dps: int) -> tuple:
    """(Ai(x), Ai'(x)): Taylor near the origin, asymptotic beyond it."""
    # smallest |x| at which the asymptotic series can reach ~dps digits
    xi_min = (dps + 5) * math.log(10) / 2
    x_star = (1.5 * xi_min) ** (2.0 / 3.0)
    if abs(float(x)) >= max(AIRY_SWITCHOVER, x_star):
        return _airy_asymptotic(x, 0, dps), _airy_asymptotic(x, 1, dps)
    return _airy_taylor(x, dps)


def airy_eval(x, derivative: int = 0, dps: int = DEFAULT_DPS):
    """Ai(x) (derivative=0) or Ai'(x) (derivative=1) to dps digits, real x."""
    if derivative not in (0, 1):
        raise ValueError("derivative must be 0 or 1")
    return _airy_pair(x, dps)[derivative]


# Rational coefficients of the large-index expansions of the negative-axis
# zeros:  a_k = -T((3 pi/8)(4k-1)),  a'_k = -U((3 pi/8)(4k-3)),
# T(t) = t^(2/3)(1 + sum T_COEFFS[j] t^(-2j)), likewise U.
AIRY_ZERO_COEFFS = [Fraction(5, 48), Fraction(-5, 36), Fraction(77125, 82944),
                    Fraction(-108056875, 6967296)]
AIRY_DERIV_ZERO_COEFFS = [Fraction(-7, 48), Fraction(35, 288),
                          Fraction(-181223, 207360), Fraction(18683371, 1244160)]


def airy_zero_asymptotic(k: int, derivative: int, dps: int = DEFAULT_DPS):
    """Asymptotic estimate of the k-th (1-based) zero magnitude of Ai / Ai'."""
    coeffs = AIRY_DERIV_ZERO_COEFFS if derivative else AIRY_ZERO_COEFFS
    off = 3 if derivative else 1
    with working(dps):
        t = 3 * mpmath.pi / 8 * (4 * k - off)
        s = mpf(1)
        prev = mpmath.inf
        # asymptotic series: stop at the smallest term (it diverges for
        # small t, e.g. the first zero of Ai')
        for j, c in enumerate(coeffs, start=1):
            term = mpf(c.numerator) / c.denominator * t ** (-2 * j)
            if abs(term) >= prev:
                break
            s += term
            prev = abs(term)
        val = t ** (mpf(2) / 3) * s
    return rounded(val, dps)


def airy_negative_zero(k: int, derivative: int = 0, dps: int = DEFAULT_DPS):
    """Magnitude of the k-th (1-based) negative zero of Ai (or Ai').

    Newton refinement of the asymptotic estimate, one (Ai, Ai') pass a step.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with working(dps, 5):
        x = airy_zero_asymptotic(k, derivative, dps + GUARD)
        tol = mpf(10) ** (-(dps + 5))
        for _ in range(60):
            ai, aip = _airy_pair(-x, dps + GUARD)
            if derivative == 0:
                f, fp = ai, -aip
            else:
                # Ai''(y) = y Ai(y), so d/dx Ai'(-x) = -Ai''(-x) = x Ai(-x)
                f, fp = aip, x * ai
            step = f / fp
            x -= step
            if abs(step) < tol * x:
                break
        else:
            raise PrecisionUnreachableError("Airy zero Newton did not converge")
    return rounded(x, dps)


# --------------------------------------------------------------------------
# Generalized hypergeometric 4F3 at z = 1
# --------------------------------------------------------------------------

def _as_mpf(q):
    if isinstance(q, Fraction):
        return mpf(q.numerator) / q.denominator
    return mpf(q)


def hyper_4f3(upper, lower, dps: int = DEFAULT_DPS):
    """4F3(upper; lower; 1) by direct summation plus an Euler-Maclaurin tail.

    Convergence requires sum(lower) - sum(upper) > 0; the term at index k
    decays only like k^-(1+sigma), so the tail is summed by Euler-Maclaurin
    using exact polygamma derivatives of the term function.
    """
    if len(upper) != 4 or len(lower) != 3:
        raise ValueError("hyper_4f3 expects 4 upper and 3 lower parameters")
    with working(dps, 15):
        up = [_as_mpf(a) for a in upper]
        lo = [_as_mpf(b) for b in lower]
        sigma = sum(lo) - sum(up)
        if sigma <= 0:
            raise DivergentSeriesError(
                f"series at z=1 divergent: sum(lower)-sum(upper) = {sigma}")
        for b in lo:
            if b <= 0 and mpmath.isint(b):
                raise DivergentSeriesError(f"nonpositive integer lower parameter {b}")
        # terminating series: a zero (or negative integer) upper parameter
        tol = mpf(10) ** (-(dps + 10))

        K = max(100, 6 * dps)
        # direct part
        acc = mpf(0)
        term = mpf(1)
        k = 0
        while k < K:
            acc += term
            ratio = mpf(1)
            for a in up:
                ratio *= (a + k)
            if ratio == 0:
                return rounded(acc, dps)  # terminated
            for b in lo:
                ratio /= (b + k)
            ratio /= (k + 1)
            term *= ratio
            k += 1

        # tail by Euler-Maclaurin on t(k) = prod G(k+a)/ prod G(k+b) / G(k+1)
        def log_deriv(m, x):
            d = mpf(0)
            for a in up:
                d += mpmath.psi(m, x + a)
            for b in lo:
                d -= mpmath.psi(m, x + b)
            d -= mpmath.psi(m, x + 1)
            return d

        def t_func(x):
            r = mpf(0)
            for a in up:
                r += mpmath.loggamma(x + a)
            for b in lo:
                r -= mpmath.loggamma(x + b)
            r -= mpmath.loggamma(x + 1)
            return mpmath.exp(r)

        # normalisation so that t(k)=term at k=K
        c0 = term / t_func(mpf(K))
        f = lambda x: c0 * t_func(x)
        integral = mpmath.quad(f, [mpf(K), mpmath.inf])
        tail = integral + f(mpf(K)) / 2
        # derivatives of f via the logarithmic derivative (exact polygammas)
        jmax = dps // 2 + 12
        L = [log_deriv(m, mpf(K)) for m in range(0, 2 * jmax)]
        derivs = [f(mpf(K))]
        for m in range(1, 2 * jmax):
            d = mpf(0)
            for j in range(m):
                d += mpmath.binomial(m - 1, j) * derivs[j] * L[m - 1 - j]
            derivs.append(d)
        prev = mpmath.inf
        ok = False
        for j in range(1, jmax):
            b2j = mpf(bernoulli_number(2 * j).numerator) / bernoulli_number(2 * j).denominator
            corr = -b2j / mpmath.factorial(2 * j) * derivs[2 * j - 1]
            if abs(corr) > prev:
                if prev > tol * max(abs(acc), mpf(1)):
                    raise TailBoundError("Euler-Maclaurin tail failed to certify tolerance")
                ok = True
                break
            tail += corr
            prev = abs(corr)
            if prev < tol * max(abs(acc), mpf(1)):
                ok = True
                break
        if not ok:
            raise TailBoundError("Euler-Maclaurin tail failed to certify tolerance")
        val = acc + tail
    return rounded(val, dps)
