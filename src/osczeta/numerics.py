"""Arbitrary-precision special functions and exact integer sequences.

Gamma, the alternating Hurwitz sum, the Airy function Ai and its derivative,
the negative zeros of Ai and Ai', Bernoulli / Euler / Genocchi numbers, and
the generalized hypergeometric 4F3 at unit argument.  Everything is pure and
deterministic given (inputs, dps).

The package's one Taylor kernel, `_taylor_step`, lives here: the shooting
solver of `spectrum` integrates on it, and so does the march of Ai(-t) that
finds the Airy zeros (the N=1 spectra).  `airy_eval` keeps its own power and
asymptotic series, an independent route to Ai.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mpf

from .errors import (
    CertificationError,
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
# Integer fixed-point Taylor kernel
# --------------------------------------------------------------------------

def _taylor_step(u, P, tol_h, starts, h2):
    """Advance psi'' = p(q) psi by one step h from q0, p a polynomial, with
    the local Taylor recurrence on scaled terms d_k = c_k h^k, integers in
    fixed point 2^-P: d_{k+2} = (sum_j u_j d_{k-j} >> P) // ((k+1)(k+2)),
    where u_j = p_j h^(2+j) for p(q0 + s) = sum_j p_j s^j.  The shooting
    solver has p = q^N - E, so u_j = C(N,j) q0^(N-j) h^(2+j) and u_0 is
    reduced by E h^2; the Airy march has p = -t, so u = [-t0 h^2, -h^3].
    `starts` holds (d_0, d_1) of psi, then optionally of dpsi/dE, whose
    terms have the extra source -h2 d_k (h2 = h^2).  Returns value and
    h * derivative at q0 + h for each series.  Only the psi terms, against
    `tol_h` = tol * |h|, decide convergence."""
    n = len(u)
    series = [list(pair) for pair in starts]
    d = series[0]
    scale = max(abs(d[0]), abs(d[1]))
    limit = tol_h * scale >> P
    k = 0
    prev_small = False
    while k <= 400:
        # terms d_k, d_{k-1}, ..., d_{k-n+1} against u_0 ... u_{n-1}
        window = slice(k, k - n, -1) if k >= n else slice(k, None, -1)
        den = (k + 1) * (k + 2)
        source = 0
        for s in series:
            s.append(((sum(map(int.__mul__, u, s[window])) - source) >> P) // den)
            source = h2 * d[k]
        k += 1
        size = abs(d[-1])
        if size > scale:
            scale = size
            limit = tol_h * scale >> P
        # with |h| <= 1/2, (k+1)|d| < tol*scale*|h| bounds both the value
        # term |d| and the derivative term (k+1)|d|/|h| by tol*scale
        small = (k + 1) * size < limit
        # parity of the potential can zero out every other coefficient, so a
        # single tiny term is not evidence of convergence
        if k > 4 and small and prev_small:
            break
        prev_small = small
    return [v for s in series
            for v in (sum(s), sum(map(int.__mul__, range(len(s)), s)))]


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
        kmin = abs(x) ** mpf(1.5) + 3   # past the peak term
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
            if k > kmin:
                # the terms run up to about exp(xi) times the result, so
                # they stop against the result (Ai and Ai' share no zero)
                terms = (abs(tf) + abs(tg)) * (1 + (3 * k + 1) / abs(x)) \
                    if x != 0 else 0
                scale = abs(ai0 * f + aip0 * g) + abs(ai0 * fp + aip0 * gp)
                if terms < tol * scale:
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


def airy_negative_zeros(count: int, derivative: int = 0,
                        dps: int = DEFAULT_DPS) -> list:
    """Magnitudes of the first `count` negative zeros of Ai (or Ai'), in order.

    One march of y(t) = Ai(-t), y'' = -t y, from t = 0 on the integer Taylor
    kernel with steps h = min(1/4, 1/(2 sqrt t)).  The phase advances by at
    most 0.5 rad a step, so a step holds at most one zero of y and one of
    y', and the k-th sign change of y (or y') on the grid is the k-th zero.
    Each zero is found by Newton on the local Taylor step from the start of
    its grid step and certified by a sign change across
    x (1 +- 10^-(dps+4)/4).  An iterate that leaves its grid step, a missing
    sign change, or a march that runs past the asymptotic place of its last
    zero raises CertificationError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if derivative not in (0, 1):
        raise ValueError("derivative must be 0 or 1")
    with working(dps, 15) as ctx:
        P = ctx.prec + 8
        tol = int(mpmath.ldexp(mpf(10) ** (-(dps + GUARD + 10)), P))
        delta = int(mpmath.ldexp(mpf(10) ** (-(dps + 4)) / 4, P))

        def local(t, y, yp, s):
            """(y, y') at t + s from (y, y') at t, all in fixed point."""
            if s == 0:
                return y, yp
            u = [-(t * s * s >> 2 * P), -(s * s * s >> 2 * P)]
            val, hder = _taylor_step(u, P, tol * abs(s) >> P,
                                     [(y, yp * s >> P)], s * s >> P)
            return val, (hder << P) // s

        def root(t, h, y, yp, s):
            """Zero of y (or y') in the grid step [t, t + h], from t + s."""
            for _ in range(60):
                val, der = local(t, y, yp, s)
                # Newton on y, or on y' with y'' = -(t + s) y
                step = (-((val << P) // der) if derivative == 0
                        else (der << 2 * P) // ((t + s) * val))
                s += step
                if not 0 <= s <= h:
                    raise CertificationError(
                        "Airy zero Newton left its grid step at "
                        f"t = {t / (1 << P):.6g}")
                if abs(step) << P < delta * (t + s):
                    break
            else:
                raise CertificationError("Airy zero Newton did not converge")
            x = t + s
            dx = x * delta >> P
            lo = local(t, y, yp, s - dx)[derivative]
            hi = local(t, y, yp, s + dx)[derivative]
            if lo * hi > 0:
                raise CertificationError(
                    f"no sign change around zero {len(zeros) + 1} of "
                    + ("Ai'(-t)" if derivative else "Ai(-t)"))
            return x

        t = 0
        y = int(mpmath.ldexp(airy_taylor_coefficient(0, ctx.dps), P))
        yp = -int(mpmath.ldexp(airy_taylor_coefficient(1, ctx.dps), P))
        zeros = []
        # the asymptotic zeros (3 pi/8 (4k - 1))^(2/3) bound where the march
        # must have met them all; a march that runs past has lost its solution
        t_end = int(mpmath.ldexp((1.5 * math.pi * count) ** (2 / 3) + 2, P))
        while len(zeros) < count:
            if t > t_end:
                raise CertificationError(
                    f"Airy march found {len(zeros)} of {count} zeros by "
                    f"t = {t / (1 << P):.6g}")
            h = int(mpmath.ldexp(
                min(0.25, 0.5 / math.sqrt(max(t / (1 << P), 1.0))), P))
            y_b, yp_b = local(t, y, yp, h)
            fa, fb = (y, y_b) if derivative == 0 else (yp, yp_b)
            if (fa < 0) != (fb < 0):
                zeros.append(root(t, h, y, yp, h * fa // (fa - fb)))
            t, y, yp = t + h, y_b, yp_b
    with mpmath.workdps(dps):
        return [mpf((x, -P)) for x in zeros]


def airy_negative_zero(k: int, derivative: int = 0, dps: int = DEFAULT_DPS):
    """Magnitude of the k-th (1-based) negative zero of Ai (or Ai')."""
    return airy_negative_zeros(k, derivative, dps)[-1]


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
