"""Catalog of exact closed-form spectral zeta values.

Every entry is an exact expression over {Gamma, pi, rationals, surds,
Genocchi/Euler numbers, Airy Taylor data, 4F3 series} evaluated on demand
at any precision; no decimal literals are stored.  Identifiers are either
plain names ("RO", "ZN2", "Z6P2", ...) or family names with a trailing
integer order ("Z2.full.4", "Airy.3", "Z1.minus.2").
"""

from __future__ import annotations

import mpmath as mp
from fractions import Fraction

from .errors import UnknownIdentifierError
from .numerics import (airy_taylor_coefficient, alternating_hurwitz_many,
                       euler_number, gamma, genocchi_number, hurwitz_many,
                       hyper_4f3)
from .precision import DEFAULT_DPS, rounded, working

F = Fraction


def rho_ratio(dps: int = DEFAULT_DPS):
    """rho = -Ai'(0)/Ai(0) = 3^{5/6} Gamma(2/3)^2 / (2 pi)."""
    with working(dps):
        v = mp.mpf(3) ** mp.mpmathify(F(5, 6)) * gamma(F(2, 3), dps) ** 2 / (2 * mp.pi)
    return rounded(v, dps)


def rho_from_airy(dps: int = DEFAULT_DPS):
    """rho = -Ai'(0)/Ai(0) from the Taylor closed forms of Ai at 0
    (`airy_taylor_coefficient`): 3^(1/3) Gamma(2/3) / Gamma(1/3).  It is
    independent of `rho_ratio` through the Gamma formula (Gamma(1/3) here
    against Gamma(2/3)^2 there, linked by the reflection formula), which is
    what the mutual check tests."""
    with working(dps):
        v = -airy_taylor_coefficient(1, dps) / airy_taylor_coefficient(0, dps)
    return rounded(v, dps)


def zeta_prime0(N: int, kind: str, dps: int = DEFAULT_DPS):
    """Z'(0) values: log sin(nu pi) for the full kind and
    log(nu^{N nu} Gamma(nu)/Gamma(1-nu)) for the twisted kind."""
    with working(dps):
        nu = mp.mpf(1) / (N + 2)
        full = mp.log(mp.sin(nu * mp.pi))
        twisted = mp.log(nu ** (N * nu) * gamma(nu, dps) / gamma(1 - nu, dps))
        v = {"full": full, "twisted": twisted,
             "plus": (full + twisted) / 2,
             "minus": (full - twisted) / 2}[kind]
    return rounded(v, dps)


def zeta_one(N: int, kind: str, dps: int = DEFAULT_DPS):
    """Z(1) closed forms.  The twisted value is
    (sqrt(pi)/2)(2 nu)^{2 N nu} Gamma(2 nu)Gamma(3 nu) /
    (Gamma(1-nu) Gamma(2 nu + 1/2)); the full value follows via the
    tan(2 nu pi)/tan(nu pi) ratio, except N=2 where only the finite part
    (euler_gamma + log 2)/2 exists."""
    with working(dps):
        nu = mp.mpf(1) / (N + 2)
        twisted = (mp.sqrt(mp.pi) / 2 * (2 * nu) ** (2 * N * nu)
                   * gamma(2 * nu, dps) * gamma(3 * nu, dps)
                   / (gamma(1 - nu, dps) * gamma(2 * nu + mp.mpf("0.5"), dps)))
        if N == 2:
            full = (mp.euler + mp.log(2)) / 2
        else:
            full = mp.tan(2 * nu * mp.pi) / mp.tan(nu * mp.pi) * twisted
        v = {"full": full, "twisted": twisted,
             "plus": (full + twisted) / 2,
             "minus": (full - twisted) / 2}[kind]
    return rounded(v, dps)


def order2_combination(N: int, dps: int = DEFAULT_DPS):
    """The universal n=2 closed form:
    cot(nu pi) sin(4 nu pi) ZP(2) - cos(4 nu pi) Z(2)
      = (pi/4)(2 nu)^{4 N nu} [Gamma(nu)Gamma(3 nu) /
                               (Gamma(1-2 nu)Gamma(2 nu + 1/2))]^2."""
    with working(dps):
        nu = mp.mpf(1) / (N + 2)
        r = (gamma(nu, dps) * gamma(3 * nu, dps)
             / (gamma(1 - 2 * nu, dps) * gamma(2 * nu + mp.mpf("0.5"), dps)))
        v = mp.pi / 4 * (2 * nu) ** (4 * N * nu) * r ** 2
    return rounded(v, dps)


# ---------------------------------------------------------------------------
# harmonic oscillator (N=2): Dirichlet lambda/beta reductions and the exact
# Genocchi / Euler number values
# ---------------------------------------------------------------------------

def dirichlet_lambda(s, dps: int = DEFAULT_DPS):
    """lambda(s) = (1 - 2^{-s}) zeta(s) = sum over odd m of m^{-s}."""
    with working(dps):
        v = (1 - mp.mpf(2) ** (-mp.mpf(s))) * mp.zeta(mp.mpf(s))
    return rounded(v, dps)


def dirichlet_beta(s, dps: int = DEFAULT_DPS):
    """beta(s) = sum (-1)^k (2k+1)^{-s} = 2^{-s} times the alternating
    Hurwitz sum at a = 1/2 (digamma form at s=1, where beta(1) = pi/4)."""
    with working(dps):
        v = mp.mpf(2) ** (-mp.mpf(s)) \
            * alternating_hurwitz_many([s], mp.mpf("0.5"))[0]
    return rounded(v, dps)


def harmonic_zeta(kind: str, n, dps: int = DEFAULT_DPS):
    """Closed-form Z_2-family values at integer order n >= 1, or their list
    for a list of orders.

    full:    lambda(n); finite part (euler_gamma + log 2)/2 at n=1
    twisted: beta(n)
    plus:    4^{-n} zeta(n, 1/4);  minus: 4^{-n} zeta(n, 3/4)

    A list takes one Hurwitz batch per shift; at integer orders a batch
    equals single calls bit for bit.
    """
    orders = [n] if isinstance(n, int) else list(n)
    if any(m < 1 for m in orders):
        raise ValueError("order must be >= 1")
    with working(dps):
        if kind == "full":
            # eigenvalues are the odd integers 2k+1, so Z_2 = lambda directly
            vals = [zeta_one(2, "full", dps) if m == 1
                    else dirichlet_lambda(m, dps) for m in orders]
        elif kind == "twisted":
            vals = map(mp.fmul, [mp.mpf(2) ** -m for m in orders],
                       alternating_hurwitz_many(orders, mp.mpf("0.5")))
        elif kind in ("plus", "minus"):
            a = mp.mpf(1) / 4 if kind == "plus" else mp.mpf(3) / 4
            tail = iter(hurwitz_many([m for m in orders if m > 1], a))
            vals = [zeta_one(2, kind, dps) if m == 1
                    else mp.mpf(4) ** (-m) * next(tail) for m in orders]
        else:
            raise ValueError(f"unknown kind {kind!r}")
        vals = [rounded(v, dps) for v in vals]
    return vals[0] if isinstance(n, int) else vals


def harmonic_genocchi_value(m: int, dps: int = DEFAULT_DPS):
    """Z_2(2m) = pi^{2m} |G_{2m}| / (4 (2m)!)."""
    with working(dps):
        v = (mp.pi ** (2 * m) * abs(genocchi_number(2 * m))
             / (4 * mp.factorial(2 * m)))
    return rounded(v, dps)


def harmonic_euler_value(m: int, dps: int = DEFAULT_DPS):
    """Z_2^P(2m+1) = (pi/2)^{2m+1} |E_{2m}| / (2 (2m)!)."""
    with working(dps):
        v = ((mp.pi / 2) ** (2 * m + 1) * abs(euler_number(2 * m))
             / (2 * mp.factorial(2 * m)))
    return rounded(v, dps)


def harmonic_determinant(kind: str, lam, dps: int = DEFAULT_DPS):
    """The two closed-form harmonic determinants:
    D_2(lam)   = 2^{-lam/2} sqrt(2 pi) / Gamma((1+lam)/2)
    D_2^P(lam) = 2 Gamma((3+lam)/4) / Gamma((1+lam)/4)."""
    with working(dps):
        lam = mp.mpmathify(lam)
        if kind == "full":
            v = mp.mpf(2) ** (-lam / 2) * mp.sqrt(2 * mp.pi) \
                / gamma((1 + lam) / 2, dps)
        elif kind == "twisted":
            v = 2 * gamma((3 + lam) / 4, dps) / gamma((1 + lam) / 4, dps)
        else:
            raise ValueError(f"unknown kind {kind!r}")
    return rounded(v, dps)


# ---------------------------------------------------------------------------
# Airy case (N=1): exact values from the Taylor series of Ai and Ai'
# ---------------------------------------------------------------------------

def airy_log_zetas(n_max: int, dps: int = DEFAULT_DPS):
    """Z_1^{+/-}(n) for n = 1..n_max and Z_1^{+/-}'(0), exactly from the
    Taylor series of the spectral determinants 2 sqrt(pi) Ai(lam) (minus
    parity, Dirichlet) and -2 sqrt(pi) Ai'(lam) (plus parity, Neumann).

    log D(lam) = -Z'(0) - sum_n Z(n)(-lam)^n / n, so the log-Taylor
    coefficients of Ai (resp. Ai') at 0 carry all parity zeta values.
    Returns (plus: dict n->value, minus: dict, plus_prime0, minus_prime0).
    """
    out = {}
    primes = {}
    # Ai^(j)(0) for j <= n_max + 1, shared by the parities: the series of
    # Ai' is the series of Ai shifted by one
    coef = [airy_taylor_coefficient(j, dps + n_max) for j in range(n_max + 2)]
    with working(dps, extra=n_max):
        for parity, shift in (("minus", 0), ("plus", 1)):
            c = [coef[n + shift] / mp.factorial(n) for n in range(n_max + 1)]
            a = [cn / c[0] for cn in c]
            ell = [mp.mpf(0)] * (n_max + 1)
            k_ell = [mp.mpf(0)] * (n_max + 1)      # k ell_k
            for n in range(1, n_max + 1):
                s = n * a[n] - mp.fsum(k_ell[k] * a[n - k]
                                       for k in range(1, n))
                ell[n] = s / n
                k_ell[n] = n * ell[n]
            out[parity] = {n: (-1) ** (n + 1) * n * ell[n]
                           for n in range(1, n_max + 1)}
            # D(0) = (-1)^shift 2 sqrt(pi) c0 = exp(-Z'(0))
            primes[parity] = -mp.log(2 * mp.sqrt(mp.pi) * abs(c[0]))
    return (out["plus"], out["minus"], primes["plus"], primes["minus"])


def airy_zeta(kind: str, n: int, dps: int = DEFAULT_DPS):
    """Closed-form Z_1-family value at integer order n >= 1."""
    if n < 1:
        raise ValueError("order must be >= 1")
    plus, minus, _, _ = airy_log_zetas(n, dps + 5)
    with working(dps):
        v = {"plus": plus[n], "minus": minus[n],
             "full": plus[n] + minus[n],
             "twisted": plus[n] - minus[n]}[kind]
    return rounded(v, dps)


# ---------------------------------------------------------------------------
# sextic (N=6) and cubic (N=3) exceptional values
# ---------------------------------------------------------------------------

def sextic_twisted2(dps: int = DEFAULT_DPS):
    """Z_6^P(2) = (1/8) [pi Gamma(5/4)]^2 / Gamma(7/8)^4."""
    with working(dps):
        v = (mp.pi * gamma(F(5, 4), dps)) ** 2 / (8 * gamma(F(7, 8), dps) ** 4)
    return rounded(v, dps)


def sextic_order3_combination(dps: int = DEFAULT_DPS):
    """(1+sqrt2) Z_6^P(3) + Z_6(3)
       = (3+sqrt2) 2^{-19/4} [pi Gamma(5/4)]^3 / Gamma(7/8)^6."""
    with working(dps):
        v = ((3 + mp.sqrt(2)) * mp.mpf(2) ** mp.mpmathify(F(-19, 4))
             * (mp.pi * gamma(F(5, 4), dps)) ** 3 / gamma(F(7, 8), dps) ** 6)
    return rounded(v, dps)


def cubic_plus2(dps: int = DEFAULT_DPS):
    """Z_3^+(2) = phi Z_3^P(1)^2
       = (2/5)^{2/5} phi^{-1} pi [Gamma(6/5)/Gamma(9/10)]^2."""
    with working(dps):
        phi = (1 + mp.sqrt(5)) / 2
        v = (mp.mpmathify(F(2, 5)) ** mp.mpmathify(F(2, 5)) / phi * mp.pi
             * (gamma(F(6, 5), dps) / gamma(F(9, 10), dps)) ** 2)
    return rounded(v, dps)


def cubic_full2(dps: int = DEFAULT_DPS):
    """Z_3(2) = Z_3^P(1)^2 + (2/5)^{2/5} sqrt((5-sqrt5)/(8 pi)) *
       Gamma(3/5)Gamma(4/5)/Gamma(13/10) * 4F3(.4,.5,.6,1; 1.2,1.3,1.4; 1)."""
    with working(dps):
        h = hyper_4f3([F(4, 10), F(5, 10), F(6, 10), F(1)],
                      [F(12, 10), F(13, 10), F(14, 10)], dps)
        v = (zeta_one(3, "twisted", dps) ** 2
             + mp.mpmathify(F(2, 5)) ** mp.mpmathify(F(2, 5))
             * mp.sqrt((5 - mp.sqrt(5)) / (8 * mp.pi))
             * gamma(F(3, 5), dps) * gamma(F(4, 5), dps)
             / gamma(F(13, 10), dps) * h)
    return rounded(v, dps)


def cubic_minus2(dps: int = DEFAULT_DPS):
    """Z_3^-(2) = (2/5)^{7/5} Gamma(7/10)Gamma(4/5)/(3 sqrt(pi) Gamma(7/5))
       * 4F3(.6,.7,.8,1; 1.4,1.5,1.6; 1)."""
    with working(dps):
        h = hyper_4f3([F(6, 10), F(7, 10), F(8, 10), F(1)],
                      [F(14, 10), F(15, 10), F(16, 10)], dps)
        v = (mp.mpmathify(F(2, 5)) ** mp.mpmathify(F(7, 5))
             * gamma(F(7, 10), dps) * gamma(F(4, 5), dps)
             / (3 * mp.sqrt(mp.pi) * gamma(F(7, 5), dps)) * h)
    return rounded(v, dps)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

_SCALARS = {
    "RO": lambda N, dps: rho_ratio(dps),
    "RO.airy": lambda N, dps: rho_from_airy(dps),
    "Z0.fullPrime": lambda N, dps: zeta_prime0(N, "full", dps),
    "Z0.twistedPrime": lambda N, dps: zeta_prime0(N, "twisted", dps),
    "Z0.plusPrime": lambda N, dps: zeta_prime0(N, "plus", dps),
    "Z0.minusPrime": lambda N, dps: zeta_prime0(N, "minus", dps),
    "Z1.full": lambda N, dps: zeta_one(N, "full", dps),
    "Z1.twisted": lambda N, dps: zeta_one(N, "twisted", dps),
    "Z1.plus": lambda N, dps: zeta_one(N, "plus", dps),
    "Z1.minus": lambda N, dps: zeta_one(N, "minus", dps),
    "ZN2": lambda N, dps: order2_combination(N, dps),
    "Z6P2": lambda N, dps: sextic_twisted2(dps),
    "Z4E": lambda N, dps: sextic_order3_combination(dps),
    "Z3plus2": lambda N, dps: cubic_plus2(dps),
    "Z32": lambda N, dps: cubic_full2(dps),
    "Z3minus2": lambda N, dps: cubic_minus2(dps),
}

_FAMILIES = {
    "Airy": lambda N, n, dps: airy_taylor_coefficient(n, dps),
    "lambda": lambda N, n, dps: dirichlet_lambda(n, dps),
    "beta": lambda N, n, dps: dirichlet_beta(n, dps),
    "Z2.full": lambda N, n, dps: harmonic_zeta("full", n, dps),
    "Z2.twisted": lambda N, n, dps: harmonic_zeta("twisted", n, dps),
    "Z2.plus": lambda N, n, dps: harmonic_zeta("plus", n, dps),
    "Z2.minus": lambda N, n, dps: harmonic_zeta("minus", n, dps),
    "Z2.genocchi": lambda N, n, dps: harmonic_genocchi_value(n, dps),
    "Z2.euler": lambda N, n, dps: harmonic_euler_value(n, dps),
    "Z1.full": lambda N, n, dps: airy_zeta("full", n, dps),
    "Z1.twisted": lambda N, n, dps: airy_zeta("twisted", n, dps),
    "Z1.plus": lambda N, n, dps: airy_zeta("plus", n, dps),
    "Z1.minus": lambda N, n, dps: airy_zeta("minus", n, dps),
}


def closed_form_eval(identifier: str, N: int = None, dps: int = DEFAULT_DPS):
    """Evaluate a cataloged closed form at the requested precision."""
    if identifier in _SCALARS:
        return _SCALARS[identifier](N, dps)
    head, _, tail = identifier.rpartition(".")
    if head in _FAMILIES and tail.lstrip("-").isdigit():
        return _FAMILIES[head](N, int(tail), dps)
    raise UnknownIdentifierError(f"no closed form named {identifier!r}")
