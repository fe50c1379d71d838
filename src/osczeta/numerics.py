"""Arbitrary-precision special functions and exact integer sequences.

Gamma, Hurwitz zeta values and the alternating Hurwitz sum, the Taylor
coefficients of Ai at 0 (Ai(0) and Ai'(0) from one AGM), the negative zeros
of Ai and Ai', Bernoulli / Euler / Genocchi numbers, and the generalized
hypergeometric 4F3 at unit argument.  Every value is determined by (inputs,
dps); what is kept between calls (exact sequences, Gamma(1/3), the last pair
of Airy zero lists) only saves work.

Two integer fixed-point kernels live here.  The Taylor kernel,
`_taylor_step`: the shooting solver of `spectrum` integrates on it, and so
does the march of Ai(-t) that finds the Airy zeros (the N=1 spectra).  The
Hurwitz kernel, `hurwitz_many`: every Hurwitz zeta of the package (the
semiclassical tails of `zetafns`, the alternating sums, the N=2 closed
forms, and the 4F3 tail: one batch in inverse powers of the index,
certified by a second cut) is a batch of exponents at one shift on it, each
value to a relative error of one ulp.  The march of Ai(-t) steps by the
shooting sweep's rule below its turning point, 1/sqrt(max(t, 1)), and finds
each zero by Newton on the Taylor series of the step that holds it.  One
march finds the zeros of Ai and of Ai' together, and the last pair is kept.
The package needs Ai itself only at 0; `mpmath.airyai` evaluates it
anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

import mpmath
from mpmath import mpf

from .errors import (
    CertificationError,
    DivergentSeriesError,
    GammaPoleError,
    PrecisionUnreachableError,
    SummationPoleError,
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
# Hurwitz zeta kernel
# --------------------------------------------------------------------------

#: head points beyond which a Hurwitz tail bound counts as unreachable
HURWITZ_MAX_HEAD = 4096
#: bits a Hurwitz sum's truncation bound keeps below the ambient precision,
#: and bits its fixed point keeps below that for the rounding of at most
#: 2^20 operations
_HURWITZ_TRUNC_BITS = 10
_HURWITZ_GUARD = 30
#: cost of one head point in Euler-Maclaurin terms, when it takes a power
#: (non-integer exponent) and when it does not
_HEAD_COST = (3, 1)
_LOG2_2PI = math.log2(2 * math.pi)


@lru_cache(maxsize=None)
def _em_coefficient(j: int):
    """B_2j / (2j)! as an exact (numerator, denominator) pair."""
    c = bernoulli_number(2 * j) / math.factorial(2 * j)
    return c.numerator, c.denominator


def _hurwitz_plan(e: float, a: float, bits: int):
    """(K, M) for sum_{k>=0} (k+a)^-e: K head terms, then M Euler-Maclaurin
    terms at x = K + a (M = 0: none), a cheap pair whose remainder bound is
    at most 2^-bits a^-e.

    The head alone leaves sum_{k>=K} (k+a)^-e <= x^-e (1 + x/(e-1)).  After
    M terms the Euler-Maclaurin remainder is at most
    4 (e)_2M x^(1-e-2M) / ((2 pi)^2M (e+2M-1)) for e > 0, M >= 1 (Johansson,
    Numer. Algorithms 69, 2015), which meets the target once
    log2 x >= (log2 of the rest + bits) / (2M + e - 1).  M walks downhill
    in the cost head cost * K + M with K relaxed to a real number, then the
    integer costs around the bottom decide.  Raises TailBoundError when no
    plan fits in HURWITZ_MAX_HEAD head points."""
    la = math.log2(a)
    hc = _HEAD_COST[e == int(e)]
    lx_max = math.log2(HURWITZ_MAX_HEAD + a)
    plans = []
    if e > 1:
        def head_ok(K):
            x = K + a
            return (e * (la - math.log2(x)) + math.log2(1 + x / (e - 1))
                    <= -bits)
        # x = a 2^(bits/e) (1 + x/(e-1))^(1/e), iterated upward from below
        lx = la + bits / e
        for _ in range(3):
            if lx > lx_max:
                break
            lx = la + (bits + math.log2(1 + 2 ** lx / (e - 1))) / e
        if lx <= lx_max:
            K = max(1, math.ceil(2 ** lx - a))
            while not head_ok(K):
                K += 1
            plans.append((hc * K, K, 0))

    lg_e = math.lgamma(e)

    def need(M):
        """log2 of the x at which M terms meet the bound."""
        return ((2 + (math.lgamma(e + 2 * M) - lg_e) / math.log(2)
                 - 2 * M * _LOG2_2PI - math.log2(e + 2 * M - 1) + e * la
                 + bits) / (2 * M + e - 1))

    def relaxed(M):
        lx = need(M)
        return M + hc * max(0.0, 2 ** lx - a) if lx < lx_max else math.inf

    # a plan with M terms costs at least M: only M below the head-only
    # cost can win
    m_high = min(plans)[0] if plans else math.inf
    M = max(1, min(bits // 5, m_high - 1))
    r = relaxed(M)
    step = 1
    if M > 1:
        r_down = relaxed(M - 1)
        if r_down < r:
            M, r, step = M - 1, r_down, -1
    for _ in range(4 * bits):
        if not 1 <= M + step < m_high:
            break
        r_next = relaxed(M + step)
        if r_next >= r:
            break
        M, r = M + step, r_next
    for M in range(max(1, M - 3), min(M + 4, m_high)):
        lx = need(M)
        if lx <= lx_max:
            K = max(0, math.ceil(2 ** lx - a))
            plans.append((hc * K + M, K, M))
    if not plans:
        raise TailBoundError(
            f"Hurwitz sum at e = {e:.6g}, a = {a:.6g} cannot reach 2^-{bits} "
            f"within {HURWITZ_MAX_HEAD} head points")
    return min(plans)[1:]


def _exp_fixed(w, P):
    """exp(w 2^-P) 2^P for |w| 2^-P far below 1, in fixed point."""
    out, term, n = 1 << P, w, 1
    while term:
        out += term
        n += 1
        term = term * w >> P
        term //= n
    return out


def _hurwitz_scaled(exps, a, bits):
    """[a^e sum_{k>=0} (k+a)^-e for e in exps] as fixed-point integers at
    2^-P, P = bits + _HURWITZ_GUARD, each within 2^-bits of its value
    (absolute; the leading term is exactly 1).

    The terms are t_k^e with t_k = a/(k+a).  An exponent e = f + 2m takes
    t^f, then m multiplications by t^2.  t^f is exp(g ln t) for g = f
    rounded to a double, shared by all exponents with the same g, times
    exp((f - g) ln t) from a short series; an integer f needs no power.
    Each value depends only on its own e, so a batch equals its single
    calls bit for bit."""
    P = bits + _HURWITZ_GUARD
    one = 1 << P
    man, ex = a.man_exp
    A, D = (man << ex, 1) if ex >= 0 else (man, 1 << -ex)   # a = A/D
    af = float(a)
    groups = {}
    for i, e in enumerate(exps):
        K, M = _hurwitz_plan(float(e), af, bits)
        m = int(mpmath.floor(e / 2))
        f = e - 2 * m
        g = mpf(float(f))
        if K * (m + 3) + 8 * M >= 1 << 20:
            raise PrecisionUnreachableError(
                "Hurwitz sum needs more than 2^20 fixed-point operations")
        groups.setdefault(g, []).append(
            (m, i, K, M, int(mpmath.ldexp(f - g, P))))
    groups = [(g, sorted(items)) for g, items in sorted(groups.items())]
    logs = any(g != int(g) or any(item[-1] for item in items)
               for g, items in groups)
    # t_0 = 1, so the term at k = 0 is exactly 1; the tail of an exponent
    # with M > 0 starts at point K, x = K + a
    head, at_x = [0] * len(exps), {}
    for _, items in groups:
        for _, i, K, _, _ in items:
            if K:
                head[i] = one
            else:
                at_x[i] = one
    for k in range(1, max((K + (M > 0) for _, items in groups
                           for _, _, K, M, _ in items), default=0)):
        X = A + k * D
        u = (A * A << P) // (X * X)
        if logs:
            with mpmath.workprec(P + 10):
                L = mpmath.log(mpf(A) / X)
                LP = int(mpmath.ldexp(L, P))
        for g, items in groups:
            if g == 0:
                v = one
            elif g == 1:
                v = (A << P) // X
            else:
                with mpmath.workprec(P + 10):
                    v = int(mpmath.ldexp(mpmath.exp(g * L), P))
            mc = 0
            for m, i, K, M, d in items:
                if k > K or (k == K and not M):
                    continue
                for _ in range(m - mc):
                    v = v * u >> P
                mc = m
                w = v * _exp_fixed(d * LP >> P, P) >> P if d else v
                if k < K:
                    head[i] += w
                else:
                    at_x[i] = w
    for _, items in groups:
        for m, i, K, M, d in items:
            if M:
                head[i] += _em_tail(at_x[i], exps[i], A + K * D, D, M, P)
    return head


def _em_tail(v, e, X, D, M, P):
    """Euler-Maclaurin tail sum_{k>=K} t_k^e in fixed point 2^-P, from
    v = (a/x)^e at x = X/D: x v/(e-1) + v/2 + sum_{j<=M} B_2j/(2j)!
    (e)_{2j-1} x^(1-2j) v."""
    one = 1 << P
    E = int(mpmath.ldexp(e, P))
    DD, XX = D * D, X * X
    s = (v * X << P) // (D * (E - one)) + (v >> 1)
    q = (v * E >> P) * D // X                       # (e)_1 x^-1 v
    for j in range(1, M + 1):
        num, den = _em_coefficient(j)
        s += q * num // den
        q = (q * (E + (2 * j - 1) * one) >> P) * (E + 2 * j * one) >> P
        q = q * DD // XX
    return s


def hurwitz_many(exponents, a):
    """[zeta(e, a) = sum_{k>=0} (k+a)^(-e) for e in exponents], e > 0 and
    a > 0, at the ambient precision, each within one ulp of itself.

    Every exponent runs on one fixed-point head shared by the batch plus an
    Euler-Maclaurin tail, with K and the order chosen from an explicit
    relative bound (`_hurwitz_plan`).  Below e = 1 the sum is continued
    analytically, and a value that cancels below half its leading term
    a^-e is recomputed with the lost bits added.  e = 1 raises
    SummationPoleError, e <= 0 DivergentSeriesError, and an unreachable
    tail bound TailBoundError."""
    a = mpf(a)
    if a <= 0:
        raise ValueError("hurwitz_many requires a > 0")
    exps = [mpf(e) for e in exponents]
    if any(e == 1 for e in exps):
        raise SummationPoleError("the Hurwitz zeta has its pole at e = 1")
    if any(e <= 0 for e in exps):
        raise DivergentSeriesError("hurwitz_many requires exponents e > 0")
    prec = mpmath.mp.prec
    base = prec + _HURWITZ_TRUNC_BITS
    scaled = []
    for e, s in zip(exps, _hurwitz_scaled(exps, a, base)):
        bits = base
        # below e = 1 the sum may cancel under its leading term 1: the bits
        # it lost must be among the extra ones
        for _ in range(3):
            lost = bits + _HURWITZ_GUARD - s.bit_length()
            if lost <= bits - base:
                break
            bits = base + lost + 2
            s, = _hurwitz_scaled([e], a, bits)
        else:
            raise PrecisionUnreachableError(
                f"Hurwitz sum at e = {e}, a = {a} cancels to below its "
                "working precision")
        scaled.append((s, bits + _HURWITZ_GUARD))
    with mpmath.workprec(prec + 20):
        out = [mpmath.ldexp(mpf(s), -P) * mpmath.power(a, -e)
               for e, (s, P) in zip(exps, scaled)]
    return [+v for v in out]


def alternating_hurwitz_many(exponents, a):
    """[sum_{k>=0} (-1)^k (k+a)^(-s) for s in exponents], real s, a > 0, at
    the ambient precision, as 2^(-s) [zeta(s, a/2) - zeta(s, (a+1)/2)] from
    two batches of the Hurwitz kernel; the identity continues analytically
    to every s != 1, and at s = 1 the poles of the two halves cancel to
    (psi((a+1)/2) - psi(a/2)) / 2."""
    a = mpf(a)
    if a <= 0:
        raise ValueError("alternating_hurwitz_many requires a > 0")
    exps = [mpf(s) for s in exponents]
    rest = [s for s in exps if s != 1]
    # both halves carry a relative error; their difference cancels by about
    # a (close arguments) and |s-1|^-1 (pole)
    extra = 16 + max(0, mpmath.mag(a)) + max(
        [0] + [-mpmath.mag(s - 1) for s in rest])
    with mpmath.extraprec(extra):
        lo = iter(hurwitz_many(rest, a / 2))
        hi = iter(hurwitz_many(rest, (a + 1) / 2))
        vals = [(mpmath.psi(0, (a + 1) / 2) - mpmath.psi(0, a / 2)) / 2
                if s == 1 else mpmath.power(2, -s) * (next(lo) - next(hi))
                for s in exps]
    return [+v for v in vals]


# --------------------------------------------------------------------------
# Integer sequences (exact)
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tangent_numbers(m: int) -> tuple:
    """(T_1, ..., T_m), the tangent numbers (tan x = sum T_n x^(2n-1) /
    (2n-1)!), by the integer recurrence of Brent & Harvey (2011)."""
    t = [1]
    for k in range(1, m):
        t.append(k * t[-1])
    for k in range(1, m):
        for j in range(k, m):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention), from the tangent
    numbers: B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    m = n // 2
    # at a power of two, so that a run of calls shares one recurrence
    t = _tangent_numbers(1 << (m - 1).bit_length())[m - 1]
    return Fraction((-1) ** (m - 1) * n * t, 4 ** m * (4 ** m - 1))


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


# --------------------------------------------------------------------------
# Integer fixed-point Taylor kernel
# --------------------------------------------------------------------------

#: terms the Taylor kernel sums beyond a series' two starting terms before
#: it gives the step up
TAYLOR_MAX_TERMS = 401


def _taylor_step(u, P, tol_h, starts, h2, terms=None):
    """Advance psi'' = p(q) psi by one step h from q0, p a polynomial, with
    the local Taylor recurrence on scaled terms d_k = c_k h^k, integers in
    fixed point 2^-P: d_{k+2} = (sum_j u_j d_{k-j} >> P) // ((k+1)(k+2)),
    where u_j = p_j h^(2+j) for p(q0 + s) = sum_j p_j s^j.  The shooting
    solver has p = q^N - E, so u_j = C(N,j) q0^(N-j) h^(2+j) and u_0 is
    reduced by E h^2; the Airy march has p = -t, so u = [-t0 h^2, -h^3].
    `starts` holds (d_0, d_1) of psi, then optionally of dpsi/dE, whose
    terms have the extra source -h2 d_k (h2 = h^2).  Returns value and
    h * derivative at q0 + h for each series.  Only the psi terms, against
    `tol_h` = tol * |h|, decide convergence; |h| <= 1 is assumed.  The sum
    stops after n consecutive small terms: the recurrence reaches n terms
    back, and at q0 = 0 the potential is u = [u_0, 0, ..., 0, u_N], whose
    top coefficient feeds a term N places after its source, so fewer small
    terms in a row can cut off a contribution still to come.  For the Airy
    march (n = 2) that is two in a row.  A step that has not converged after
    TAYLOR_MAX_TERMS terms raises PrecisionUnreachableError.  A list passed
    as `terms` receives the psi terms d_0, d_1, ..., so that psi(q0 + s) is
    sum_k d_k (s/h)^k anywhere on the step.

    Each series carries n - 1 leading zeros (n = len(u)), so the terms
    d_{k-n+1} .. d_k are the forward slice [k, k + n) against u reversed,
    zero where the index is negative."""
    n = len(u)
    u_rev = u[::-1]
    series = [[0] * (n - 1) + list(pair) for pair in starts]
    d, *d_e = series
    scale = max(abs(d[-2]), abs(d[-1]))
    limit = tol_h * scale >> P
    run = 0
    for k in range(TAYLOR_MAX_TERMS):
        den = (k + 1) * (k + 2)
        end = k + n
        term = (sum(map(mul, u_rev, d[k:end])) >> P) // den
        for s in d_e:
            s.append(((sum(map(mul, u_rev, s[k:end])) - h2 * d[end - 1])
                      >> P) // den)
        d.append(term)
        size = abs(term)
        if size > scale:
            scale = size
            limit = tol_h * scale >> P
        # with |h| <= 1, (k+2)|d| < tol*scale*|h| bounds both the value
        # term |d| and the derivative term (k+2)|d|/|h| by tol*scale.  A
        # step so short that the bound is below one unit never gets there:
        # its terms decay to the floor division's residue, 0 or -1, which
        # ends the sum as well
        small = (k + 2) * size < limit or size <= 1
        # a tiny term is no evidence of convergence while a larger one
        # within the n terms the recurrence reads can still feed later ones
        run = run + 1 if small else 0
        if k > 3 and run >= n:
            break
    else:
        raise PrecisionUnreachableError(
            f"Taylor step did not converge in {TAYLOR_MAX_TERMS} terms: the "
            "step is too long for the size of the potential")
    if terms is not None:
        terms += d[n - 1:]
    # the leading zeros sit at negative powers, where they add nothing
    powers = range(1 - n, len(d) + 1 - n)
    return [v for s in series
            for v in (sum(s), sum(map(mul, powers, s)))]


# --------------------------------------------------------------------------
# Airy function
# --------------------------------------------------------------------------

def airy_taylor_coefficient(n: int, dps: int = DEFAULT_DPS):
    """n-th derivative of Ai at 0 via the closed form
    3^((n-2)/3) / pi * sin(2(n+1)pi/3) * Gamma((n+1)/3).

    Exact zero for n = 2 mod 3 (the sine factor vanishes there).  Ai(0) and
    Ai'(0) take Gamma(1/3) from one AGM and Gamma(2/3) = 2 pi / (sqrt(3)
    Gamma(1/3)), bit for bit the values of `mpmath.gamma`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 3 == 2:
        return mpf(0)
    sign = 1 if n % 3 == 0 else -1  # sin(2(n+1)pi/3) = +-sqrt(3)/2
    with working(dps):
        g = mpmath.gamma(mpf(n + 1) / 3) if n > 1 else _gamma_one_third(dps)
        if n == 1:
            g = 2 * mpmath.pi / (mpmath.sqrt(3) * g)
        val = (sign * mpmath.power(3, mpf(n - 2) / 3) / mpmath.pi
               * mpmath.sqrt(3) / 2 * g)
    return rounded(val, dps)


@lru_cache(maxsize=1)
def _gamma_one_third(dps: int):
    """Gamma(1/3)^3 = 2^(4/3) pi^2 / (3^(1/4) AGM(1, cos(pi/12))) (Borwein
    & Zucker, IMA J. Numer. Anal. 12, 1992), with no cold `mpmath.gamma`."""
    with working(dps):
        agm = mpmath.agm(1, (mpmath.sqrt(6) + mpmath.sqrt(2)) / 4)
        return mpmath.cbrt(mpmath.cbrt(16) * mpmath.pi ** 2
                           / (mpmath.root(3, 4) * agm))


def _airy_local(t, y, yp, s, P, tol, terms=None):
    """(y, y') at t + s from (y, y') at t for y(t) = Ai(-t), y'' = -t y: one
    step s > 0 of the Taylor kernel, all in fixed point 2^-P.  A list
    passed as `terms` receives the step's scaled Taylor terms."""
    u = [-(t * s * s >> 2 * P), -(s * s * s >> 2 * P)]
    val, hder = _taylor_step(u, P, tol * s >> P,
                             [(y, yp * s >> P)], s * s >> P, terms)
    return val, (hder << P) // s


def _airy_march(P, tol):
    """The upward march of y(t) = Ai(-t) in fixed point 2^-P, at tolerance
    `tol` of the Taylor kernel, from t = 0, where (y, y') come from Ai(0)
    and Ai'(0) at the ambient precision.  It takes steps
    h = 1/sqrt(max(t, 1)), the rule of the shooting sweep below its turning
    point, and yields (t, h, y, y', y at t + h, y' at t + h, d) for each
    step, d the step's scaled Taylor terms: y(t + s) = sum_k d_k (s/h)^k on
    it."""
    dps = mpmath.mp.dps
    t = 0
    y = int(mpmath.ldexp(airy_taylor_coefficient(0, dps), P))
    yp = -int(mpmath.ldexp(airy_taylor_coefficient(1, dps), P))
    while True:
        h = int(mpmath.ldexp(1 / math.sqrt(max(t / (1 << P), 1.0)), P))
        d = []
        y_b, yp_b = _airy_local(t, y, yp, h, P, tol, d)
        yield t, h, y, yp, y_b, yp_b, d
        t, y, yp = t + h, y_b, yp_b


def _series_at(d, th, P):
    """(sum_k d_k th^k, sum_k k d_k th^(k-1)) by integer Horner, th and the
    results in fixed point 2^-P: on a kernel step of length h from t with
    terms d, y and h y' at t + th h."""
    f = g = 0
    for dk in reversed(d):
        g = (g * th >> P) + f
        f = (f * th >> P) + dk
    return f, g


def _float_newton(d, derivative, t, h, th):
    """The zero th in [0, 1] of y(t + th h) = sum_k d_k th^k (or of y', with
    y'' = -(t + th h) y) by Newton in floats from th; None if an iterate
    leaves [0, 1] or does not settle to the floats' resolution."""
    for _ in range(12):
        f = g = 0.0
        for dk in reversed(d):
            g = g * th + f
            f = f * th + dk
        step = -f / g if derivative == 0 else g / (h * h * (t + th * h) * f)
        th += step
        if not 0.0 <= th <= 1.0:
            return None
        if abs(step) < 1e-15:
            return th
    return None


def airy_negative_zeros(count: int, derivative: int = 0,
                        dps: int = DEFAULT_DPS) -> list:
    """Magnitudes of the first `count` negative zeros of Ai (or Ai'), in order.

    One march of y(t) = Ai(-t), y'' = -t y, from t = 0 on the integer Taylor
    kernel with steps h = 1/sqrt(max(t, 1)) (`_airy_march`).  On a step
    [t0, t0 + h] the Pruefer phase of y = r sin(theta), y' = r w cos(theta),
    w = sqrt(t0 + h), obeys 0 <= theta' = w cos^2 + (t/w) sin^2 <= w, so it
    rises by at most h sqrt(t0 + h) <= sqrt(2) rad < pi: a step holds at most
    one zero of y and one of y', and the k-th sign change of y (or y') on
    the march is the k-th zero.  Both parities march the same y, so one
    march finds the zeros of both (`_airy_zero_pair`), and the last pair is
    kept.  Each zero is found by Newton on the Taylor series of its own
    march step, from the secant of the step's ends: in floats first, then in
    the same fixed point (from the secant again if a float iterate leaves
    the step).  Then it is certified by a sign change across
    x (1 +- 10^-(dps+4)/4): one kernel step from the start of its march step
    to the upper end gives the sign there, and the same step's series, by
    Horner, the sign at the lower end.  An iterate that leaves its march
    step, a missing sign change, or a march that runs past the asymptotic
    place of its last zero raises CertificationError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if derivative not in (0, 1):
        raise ValueError("derivative must be 0 or 1")
    return list(_airy_zero_pair(count, dps)[derivative])


@lru_cache(maxsize=1)
def _airy_zero_pair(count: int, dps: int) -> tuple:
    """(zeros of Ai, zeros of Ai'), the first `count` of each, from one
    march that tests each step for both: every caller asks for both parities
    at the same (count, dps)."""
    names = ("Ai(-t)", "Ai'(-t)")
    pair = ([], [])
    with working(dps, 15) as ctx:
        P = ctx.prec + 8
        one = 1 << P
        tol = int(mpmath.ldexp(mpf(10) ** (-(dps + GUARD + 10)), P))
        delta = int(mpmath.ldexp(mpf(10) ** (-(dps + 4)) / 4, P))

        def root(derivative, t, h, y, yp, d, s):
            """Zero of y (or y') in the march step [t, t + h], from t + s,
            by Newton on the step's series y(t + s) = sum_k d_k (s/h)^k,
            first in floats."""
            th = _float_newton([dk / one for dk in d], derivative,
                               t / one, h / one, s / h)
            if th is not None:
                s = h * int(math.ldexp(th, 53)) >> 53
            for _ in range(60):
                f, g = _series_at(d, (s << P) // h, P)
                # Newton on y, or on y' with y'' = -(t + s) y
                step = (-(f * h // g) if derivative == 0
                        else (g << 3 * P) // (h * (t + s) * f))
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
            e = []
            hi = _airy_local(t, y, yp, s + dx, P, tol, e)[derivative]
            lo = _series_at(e, ((s - dx) << P) // (s + dx), P)[derivative]
            if lo * hi > 0:
                raise CertificationError(
                    f"no sign change around zero {len(pair[derivative]) + 1} "
                    f"of {names[derivative]}")
            return x

        # the asymptotic zeros (3 pi/8 (4k - 1))^(2/3) of Ai, which lie above
        # those of Ai', bound where the march must have met them all; a march
        # that runs past has lost its solution
        t_end = int(mpmath.ldexp((1.5 * math.pi * count) ** (2 / 3) + 2, P))
        for t, h, y, yp, y_b, yp_b, d in _airy_march(P, tol):
            if t > t_end:
                short = 0 if len(pair[0]) < count else 1
                raise CertificationError(
                    f"Airy march found {len(pair[short])} of {count} zeros "
                    f"of {names[short]} by t = {t / (1 << P):.6g}")
            for derivative, (fa, fb) in enumerate(((y, y_b), (yp, yp_b))):
                if len(pair[derivative]) < count and (fa < 0) != (fb < 0):
                    pair[derivative].append(root(derivative, t, h, y, yp, d,
                                                 h * fa // (fa - fb)))
            if len(pair[0]) == len(pair[1]) == count:
                break
    with mpmath.workdps(dps):
        return tuple(tuple(mpf((x, -P)) for x in zeros) for zeros in pair)


# --------------------------------------------------------------------------
# Generalized hypergeometric 4F3 at z = 1
# --------------------------------------------------------------------------

def hyper_4f3(upper, lower, dps: int = DEFAULT_DPS):
    """4F3(upper; lower; 1) for rational (int or Fraction) parameters: the
    head sum_{k<K} t_k plus the tail in inverse powers of k on the Hurwitz
    kernel.

    Convergence needs sigma = sum(lower) - sum(upper) > 0.  By Stirling's
    series, t_k = prod (a)_k / prod (b)_k / k! = C k^-(1+sigma)
    exp(sum_m e_m k^-m), C = prod Gamma(b) / prod Gamma(a), with exact
    e_m = (-1)^(m+1)/(m(m+1)) [sum B_{m+1}(a) - sum B_{m+1}(b) - B_{m+1}(1)].
    With exp(sum_m e_m x^m) = sum_j d_j x^j, the tail is
    C sum_{j<J} d_j zeta(1+sigma+j, K), one `hurwitz_many` batch; d_J and
    d_{J+1} are the first two with |d_j| K^-j below the working precision.
    Certificate: the sum cut at 2K (same J) must agree to 10^-(dps+10)
    relative, else TailBoundError.  A zero or negative integer upper
    parameter terminates the series, which is then summed directly.
    """
    if len(upper) != 4 or len(lower) != 3:
        raise ValueError("hyper_4f3 expects 4 upper and 3 lower parameters")
    up, lo = [Fraction(a) for a in upper], [Fraction(b) for b in lower]
    sigma = sum(lo) - sum(up)
    if sigma <= 0:
        raise DivergentSeriesError(
            f"series at z=1 divergent: sum(lower)-sum(upper) = {sigma}")
    for b in lo:
        if b <= 0 and b.denominator == 1:
            raise DivergentSeriesError(f"nonpositive integer lower parameter {b}")
    # an upper parameter a = 0, -1, ... ends the series after 1 - a terms
    ends = [1 - int(a) for a in up if a <= 0 and a.denominator == 1]
    # |d_j| K^-j shrinks about like (max |parameter| / K)^j <= 2^-j
    K = max(30, 2 * dps, 2 * math.ceil(max(map(abs, up + lo))))
    with working(dps, 15) as ctx:
        def real(q):
            return mpf(q.numerator) / q.denominator

        head, term = [mpf(0)], mpf(1)       # head[k] = sum_{i<k} t_i
        for k in range(min(ends, default=2 * K)):
            head.append(head[-1] + term)
            term *= real(math.prod(a + k for a in up)
                         / math.prod(b + k for b in lo) / (k + 1))
        if ends:
            return rounded(head[-1], dps)
        C = (mpmath.fprod(mpmath.gamma(real(b)) for b in lo)
             / mpmath.fprod(mpmath.gamma(real(a)) for a in up))
        eps = mpf(2) ** -ctx.prec
        # e_m from the power sums p_r = sum a^r - sum b^r - 1, exactly:
        # sum B_n(a) - sum B_n(b) - B_n(1) = sum_{k<n} C(n,k) B_k p_{n-k}
        p, e, d = [], [], [mpf(1)]
        while (len(d) < 3 or max(abs(d[-2]) * K, abs(d[-1]))
               >= eps * mpf(K) ** (len(d) - 1)):
            m, n = len(d), len(d) + 1
            if m > 4 * (dps + 25):
                raise TailBoundError("4F3 tail expansion does not converge")
            p += [sum(a ** r for a in up) - sum(b ** r for b in lo) - 1
                  for r in range(len(p), n + 1)]
            e.append(real((-1) ** n * Fraction(1, m * n) * sum(
                math.comb(n, k) * bernoulli_number(k) * p[n - k]
                for k in range(n))))
            d.append(mpmath.fsum(i * e[i - 1] * d[m - i]
                                 for i in range(1, n)) / m)
        exps = [real(1 + sigma + j) for j in range(len(d) - 2)]
        val, check = (head[c] + C * mpmath.fsum(
            map(mpmath.fmul, d, hurwitz_many(exps, c))) for c in (K, 2 * K))
        if abs(val - check) > mpf(10) ** -(dps + 10) * abs(val):
            raise TailBoundError(f"4F3 tails cut at {K} and {2 * K} disagree")
    return rounded(val, dps)
