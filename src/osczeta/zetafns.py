"""Numeric spectral zeta values and spectral determinants.

Zeta values Z(s) = sum E_k^(-s) (full, alternating, or single-parity) are
computed from a finite spectrum plus a semiclassical tail: the eigenvalue
index is mapped to energy through the counting relation
2*pi*(k + 1/2) = b0 E^mu + b1 E^(-mu) + b2 E^(-3mu) + ..., the head is summed
directly, and the tail becomes a combination of Hurwitz zeta values.  Each
parity class has one tail-model form, E_k ~ lead * x^q * F(x^-2) with
x = a (k + 1/2) and F = 1 + F_1 x^-2 + ...; the powers F^alpha it needs
(inverting the counting relation, and E_k^(-s) = lead^-s x^(-qs) F^(-s))
come from one power-series recurrence, and each tail is one batch of
exponents q s + 2r at one shift on the Hurwitz kernel of `numerics`.
Beyond the exactly known leading coefficients, higher counting
coefficients are calibrated per parity class against the computed
eigenvalues themselves, with a held-out eigenvalue supplying the error
estimate; the calibration does not depend on s, so `zeta_values` runs it
once per record for a whole table.

Special degrees get exact tail models: N=2 (E_k = 2k+1 exactly) and N=1
(eigenvalues are negated zeros of Ai / Ai', whose asymptotic expansions are
known to high order).

Spectral determinants D(lambda) come from exponentiating the series
-Z'(0) - sum_n Z(n) (-lambda)^n / n, and the bilinear functional-equation
residual cross-checks everything.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import mpmath
from mpmath import mpf

from .errors import (
    DivergentSeriesError,
    InsufficientTermsError,
    RadiusExceededError,
    SummationPoleError,
    TailBoundError,
)
from .numerics import alternating_hurwitz_many, hurwitz_many
from .precision import DEFAULT_DPS, rounded, working
from .spectrum import SpectrumRecord

KINDS = ("full", "twisted", "plus", "minus")

# parity weights of each kind's sum over the two records, plus record first
_WEIGHTS = {"full": {"+": 1, "-": 1}, "twisted": {"+": 1, "-": -1},
            "plus": {"+": 1}, "minus": {"-": 1}}

#: terms of the inverse-power expansion of E_k^(-s) in every tail model
TAIL_DEPTH = 5

#: counting coefficients beyond the known ones fitted per parity record
N_FIT = 3


# --------------------------------------------------------------------------
# Bohr-Sommerfeld coefficients
# --------------------------------------------------------------------------

def bohr_sommerfeld_b0(N: int, dps: int = DEFAULT_DPS):
    """Leading action coefficient: the classical action of |q|^N at energy E
    is b0 * E^mu with b0 = (4/N) Gamma(1/N) Gamma(3/2) / Gamma(1/N + 3/2)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    with working(dps):
        n = mpf(1) / N
        val = 4 * n * mpmath.gamma(n) * mpmath.gamma(mpf(3) / 2) \
            / mpmath.gamma(n + mpf(3) / 2)
    return rounded(val, dps)


def bohr_sommerfeld_b1(N: int, dps: int = DEFAULT_DPS):
    """First correction to the action in the counting relation:
    b1 = -(N-1)(N-2)/(12N) B(1 - 1/N, 1/2), from the second WKB term of
    |q|^N; 0 for the harmonic N = 2."""
    if N < 2:
        raise ValueError("N must be >= 2")
    with working(dps):
        val = -mpf((N - 1) * (N - 2)) / (12 * N) \
            * mpmath.beta(1 - mpf(1) / N, mpf(1) / 2)
    return rounded(val, dps)


@dataclasses.dataclass(frozen=True)
class ZetaValue:
    N: int
    kind: str
    order: object
    value: object
    method: str
    certified_digits: int

    def to_row(self):
        return {"N": self.N, "kind": self.kind, "n": str(self.order),
                "value": mpmath.nstr(self.value, self.certified_digits or 8,
                                     strip_zeros=False),
                "certified_digits": self.certified_digits,
                "method": self.method}


# --------------------------------------------------------------------------
# Per-parity tail models
# --------------------------------------------------------------------------

def _series_power(f, alpha):
    """Coefficients of F(u)^alpha for F = f[0] + f[1] u + ... with f[0] = 1,
    to the length of f: m p_m = sum_{k=1..m} ((alpha+1) k - m) f_k p_{m-k}."""
    p = [mpf(1)]
    for m in range(1, len(f)):
        p.append(sum(((alpha + 1) * k - m) * f[k] * p[m - k]
                     for k in range(1, m + 1)) / m)
    return p


class _TailModel:
    """E_k ~ lead * x^q * F(x^-2) for one parity class, x = a*(k+1/2), with
    F given by its coefficients f (f[0] = 1); emits the power representation
    of E_k^(-s)."""

    def __init__(self, a, q, lead, f):
        self.a, self.q, self.lead, self.f = a, q, lead, f

    def energy(self, k):
        x = self.a * (mpf(k) + mpf(1) / 2)
        return self.lead * x ** self.q \
            * sum(c * x ** (-2 * r) for r, c in enumerate(self.f))

    def inverse_power_terms(self, s):
        """E_k^(-s) ~ sum_r coeff_r * (k+1/2)^(-e_r) with e_r = q s + 2 r;
        returns [(coeff, e)]."""
        lead = self.lead ** (-s)
        out = []
        for r, c in enumerate(_series_power(self.f, -s)):
            e = self.q * s + 2 * r
            out.append((lead * c * mpmath.power(self.a, -e), e))
        return out


def _invert_counting(b, mu):
    """Solve x = b[0] y + b[1] y^-1 + b[2] y^-3 + ... for y = E^mu in the
    form y = x y0 Y(x^-2), y0 = 1/b[0], by iterating
    Y = 1 - sum_{j>=1} b[j] y0^(1-2j) x^(-2j) Y^(1-2j) on TAIL_DEPTH
    coefficients; returns (y0, coefficients of Y)."""
    y0 = 1 / b[0]
    Y = [mpf(1)] + [mpf(0)] * (TAIL_DEPTH - 1)
    for _ in range(TAIL_DEPTH + 1):
        nxt = [mpf(1)] + [mpf(0)] * (TAIL_DEPTH - 1)
        for j in range(1, len(b)):
            if b[j] == 0:
                continue
            w = b[j] * y0 ** (1 - 2 * j)
            p = _series_power(Y, 1 - 2 * j)
            for r in range(TAIL_DEPTH - j):
                nxt[r + j] -= w * p[r]
        Y = nxt
    return y0, Y


# Rational coefficients of the large-index expansions of the negative-axis
# zeros:  a_k = -T((3 pi/8)(4k-1)),  a'_k = -U((3 pi/8)(4k-3)),
# T(t) = t^(2/3)(1 + sum AIRY_ZERO_COEFFS[j] t^(-2j)), likewise U.
AIRY_ZERO_COEFFS = [Fraction(5, 48), Fraction(-5, 36), Fraction(77125, 82944),
                    Fraction(-108056875, 6967296)]
AIRY_DERIV_ZERO_COEFFS = [Fraction(-7, 48), Fraction(35, 288),
                          Fraction(-181223, 207360), Fraction(18683371, 1244160)]


def _airy_tail_model(parity_even: bool) -> _TailModel:
    """N=1: both parity classes obey t = (3 pi / 4)(k + 1/2) with
    E = t^(2/3) (1 + sum c_j t^(-2j)); the c_j differ per class."""
    coeffs = AIRY_DERIV_ZERO_COEFFS if parity_even else AIRY_ZERO_COEFFS
    f = [mpf(1)] + [mpf(c.numerator) / c.denominator for c in coeffs]
    return _TailModel(3 * mpmath.pi / 4, mpf(2) / 3, mpf(1), f[:TAIL_DEPTH])


def _fit_tail_model(N, class_points, mu, dps):
    """Calibrate N_FIT counting coefficients beyond the known ones (b0, and
    b1 for N = 3) against the last computed eigenvalues of one parity class
    of 2*pi*N(E) ~ b0 E^mu + b1 E^(-mu) + ...

    class_points: [(full_index k, E_k)] sorted ascending.
    Returns (_TailModel, relative holdout error)."""
    b = [bohr_sommerfeld_b0(N, dps)]
    n_fit = min(N_FIT, max(0, len(class_points) - 2))
    if N == 2:
        n_fit = 0  # counting exactly linear
    elif N == 3:
        b.append(bohr_sommerfeld_b1(N, dps))  # N >= 4 still fits b1
    if n_fit > 0:
        pts = class_points[-n_fit:]
        rows, rhs = [], []
        for k, e in pts:
            x = 2 * mpmath.pi * (mpf(k) + mpf(1) / 2)
            resid = x
            for j, bj in enumerate(b):
                resid -= bj * e ** ((1 - 2 * j) * mu)
            j0 = len(b)
            rows.append([e ** ((1 - 2 * (j0 + i)) * mu) for i in range(n_fit)])
            rhs.append(resid)
        sol = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        b.extend(sol[i] for i in range(n_fit))
    y0, Y = _invert_counting(b, mu)
    model = _TailModel(2 * mpmath.pi, 1 / mu, y0 ** (1 / mu),
                       _series_power(Y, 1 / mu))
    # holdout: earliest class point not used in the fit
    hold = class_points[-(n_fit + 1)] if len(class_points) > n_fit else class_points[0]
    k, e = hold
    rel = abs(model.energy(k) / e - 1)
    return model, rel


# --------------------------------------------------------------------------
# Zeta summation
# --------------------------------------------------------------------------

def _class_tail_sum(terms, k_start, parity_of_k):
    """sum over k >= k_start with k = parity_of_k (mod 2) of
    sum_r coeff_r (k+1/2)^(-e_r).  On the sublattice k = k0 + 2j this is
    sum_r coeff_r 2^(-e_r) zeta(e_r, (k0 + 1/2)/2), one batch of the
    Hurwitz kernel, each value to a relative error."""
    k0 = k_start if k_start % 2 == parity_of_k else k_start + 1
    terms = [(c, e) for c, e in terms if c != 0]
    zs = hurwitz_many([e for _, e in terms], (k0 + mpf(1) / 2) / 2)
    acc = mpf(0)
    acc_abs = mpf(0)
    for (c, e), z in zip(terms, zs):
        z = mpmath.power(2, -e) * z
        acc += c * z
        acc_abs += abs(c) * abs(z)
    return acc, acc_abs


def _lattice_tail_sum(terms, k_start, alternating):
    """sum over all k >= k_start of [(-1)^k] sum_r coeff_r (k+1/2)^(-e_r),
    one batch of the Hurwitz kernel at a = k_start + 1/2.  The alternating
    case is a difference of two Hurwitz batches at the half shifts, which
    stays finite for exponents e_r <= 1 where the one-sided sums diverge."""
    acc = mpf(0)
    acc_abs = mpf(0)
    sign = -1 if (alternating and k_start % 2) else 1
    terms = [(c, e) for c, e in terms if c != 0]
    exps = [e for _, e in terms]
    a = k_start + mpf(1) / 2
    zs = (alternating_hurwitz_many(exps, a) if alternating
          else hurwitz_many(exps, a))
    for (c, e), z in zip(terms, zs):
        z = sign * z
        acc += c * z
        acc_abs += abs(c) * abs(z)
    return acc, acc_abs


def _normalize_records(records):
    if isinstance(records, SpectrumRecord):
        records = [records]
    out = {}
    for r in records:
        out[r.parity] = r
    return out


def _class_points(rec: SpectrumRecord):
    return [(rec.full_index(j), e) for j, e in enumerate(rec.eigenvalues)]


def _class_model(N, rec: SpectrumRecord, mu, dps):
    """(_TailModel, relative holdout error) for one parity record, at the
    ambient precision: the exact Airy expansion for N=1, else a fit."""
    if N == 1:
        model = _airy_tail_model(rec.parity == "+")
        k_chk, e_chk = _class_points(rec)[-1]
        return model, max(mpf(10) ** (-dps),
                          abs(model.energy(k_chk) / e_chk - 1))
    return _fit_tail_model(N, _class_points(rec), mu, dps)


def _check_request(kind, s, mu, recs):
    """Reject a (kind, s) request that has no finite value from `recs`."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if kind in ("full", "plus", "minus"):
        if s == mu:
            raise SummationPoleError(f"s = mu = {mu} is the pole")
        if s < mu:
            raise DivergentSeriesError(
                f"kind {kind} requires s > mu = {mu}")
    elif s <= 0:
        raise DivergentSeriesError("twisted sum requires s > 0")
    for p in _WEIGHTS[kind]:
        if p not in recs:
            raise InsufficientTermsError(f"missing parity {p} spectrum")


def _em_value(N, kind, s, recs, powers, terms, fits, dps) -> ZetaValue:
    """One kind at one order s, at the ambient precision, from the order's
    {parity: [(k, E_k^(-s))]} powers and {parity: tail expansion} terms and
    the records' {parity: (model, holdout error)} fits."""
    # contiguous head length in the full index
    if kind in ("full", "twisted"):
        k_tail = 2 * min(len(recs["+"]), len(recs["-"]))
    else:
        p = "+" if kind == "plus" else "-"
        k_tail = recs[p].full_index(len(recs[p]) - 1) + 1

    head = mpf(0)
    for q, w in _WEIGHTS[kind].items():
        for k, t in powers[q]:
            if k < k_tail:
                head += w * t

    if kind in ("full", "twisted"):
        # split the class-dependent expansions into even/odd average g
        # and half-difference h over the shared exponent basis; then
        # full = sum g + alternating sum h, twisted = the reverse
        te, to = terms["+"], terms["-"]
        g = [((ce + co) / 2, e) for (ce, e), (co, _) in zip(te, to)]
        h = [((ce - co) / 2, e) for (ce, e), (co, _) in zip(te, to)]
        smooth, osc = (g, h) if kind == "full" else (h, g)
        t1, a1 = _lattice_tail_sum(smooth, k_tail, alternating=False)
        t2, a2 = _lattice_tail_sum(osc, k_tail, alternating=True)
        tail = t1 + t2
        rel = max(fits["+"][1], fits["-"][1])
        err = abs(s) * rel * (a1 + a2) * 2
    else:
        tail, t_abs = _class_tail_sum(terms[p], k_tail, 0 if p == "+" else 1)
        err = abs(s) * fits[p][1] * t_abs * 2

    value = head + tail
    err += abs(value) * mpf(10) ** (-(dps + 2))
    if err >= abs(value):
        raise TailBoundError("tail estimate exceeds the value itself")
    cert = int(mpmath.floor(-mpmath.log10(err / abs(value))))
    cert = max(1, min(cert, dps))
    return ZetaValue(N, kind, rounded(s, dps), rounded(value, dps),
                     "direct-EM", cert)


def zeta_values(N: int, records, requests, dps: int = DEFAULT_DPS) -> dict:
    """{(kind, s): ZetaValue} for every request (kind, s): the zeta value of
    that kind at s > 0 from computed spectra plus the semiclassical tail.
    `records` is a SpectrumRecord or a pair of them; kinds 'full' and
    'twisted' need both parities, 'plus'/'minus' need one.

    Every request is checked before any work.  Each needed record is fitted
    once, and at each order its E_k^(-s) and tail expansion are computed
    once and shared by every kind requested there."""
    recs = _normalize_records(records)
    with working(dps):
        mu = rounded(mpf(N + 2) / (2 * N), dps)  # 2*pi*N(E) ~ b0 E^mu
    with working(dps, 10):
        orders = {}                    # s -> kinds requested at s
        for kind, s in requests:
            _check_request(kind, mpf(s), mu, recs)
            orders.setdefault(s, []).append(kind)
        fits, out = {}, {}
        for s_key, kinds in orders.items():
            s = mpf(s_key)
            need = {p for kind in kinds for p in _WEIGHTS[kind]}
            for p in need:
                if p not in fits:
                    fits[p] = _class_model(N, recs[p], mu, dps)
            powers = {p: [(k, e ** (-s)) for k, e in _class_points(recs[p])]
                      for p in need}
            terms = {p: fits[p][0].inverse_power_terms(s) for p in need}
            for kind in kinds:
                out[(kind, s_key)] = _em_value(N, kind, s, recs, powers,
                                               terms, fits, dps)
    return out


def zeta_em(N: int, kind: str, s, records,
            dps: int = DEFAULT_DPS) -> ZetaValue:
    """Zeta value of the requested kind at s > 0 from computed spectra plus
    the semiclassical tail: one request to `zeta_values`."""
    return zeta_values(N, records, [(kind, s)], dps)[(kind, s)]


# --------------------------------------------------------------------------
# Determinants and the functional equation
# --------------------------------------------------------------------------

def determinant_series(lam, zeta_values, Zprime0, dps: int = DEFAULT_DPS):
    """D(lambda) = exp(-Z'(0) - sum_{n=1}^{M} Z(n) (-lambda)^n / n).

    zeta_values: numbers Z(1)..Z(M) in order (ZetaValue or plain numbers).
    Complex lambda is allowed; |lambda| must stay inside the convergence
    disk, whose radius is estimated from the last coefficient ratio."""
    vals = [zv.value if isinstance(zv, ZetaValue) else mpmath.mpmathify(zv)
            for zv in zeta_values]
    M = len(vals)
    if M < 3:
        raise InsufficientTermsError("need at least 3 zeta values")
    with working(dps, 10):
        lam = mpmath.mpmathify(lam)
        # Z(n) ~ E0^{-n}: consecutive ratio estimates the radius E0
        radius = abs(vals[M - 2] / vals[M - 1])
        if abs(lam) >= radius * mpf("0.999"):
            raise RadiusExceededError(
                f"|lambda| = {abs(lam)} outside estimated radius {radius}")
        acc = -mpmath.mpmathify(Zprime0)
        power = 1                          # (-lambda)^n, kept running
        for n in range(1, M + 1):
            power *= -lam
            acc -= vals[n - 1] * power / n
        # geometric bound on the dropped orders
        r = abs(lam) / radius
        tail = abs(vals[M - 1]) * abs(lam) ** M / M * r / (1 - r)
        if tail > mpf(10) ** (-dps + 5) * max(1, abs(acc)):
            raise InsufficientTermsError(
                f"series tail {mpmath.nstr(tail, 3)} too large at M={M}")
        out = mpmath.exp(acc)
    return rounded(out, dps)


def functional_eq_residual(N: int, lam, plus_values, minus_values,
                           plus_prime0, minus_prime0,
                           dps: int = DEFAULT_DPS):
    """Residual of the bilinear relation
    e^{i nu pi} D+(l) D-(w l) - e^{-i nu pi} D+(w l) D-(l) = rhs,
    with w = e^{4 i nu pi} and rhs = 2i (general) or 2i e^{-i pi l / 4}
    (harmonic).  Inputs are parity zeta values Z^+(n), Z^-(n) for n = 1..M
    and the derivative-at-zero values."""
    with working(dps, 10):
        lam = mpmath.mpmathify(lam)
        nu = mpf(1) / (N + 2)
        w = mpmath.exp(4j * mpmath.pi * nu)
        phase = mpmath.exp(1j * mpmath.pi * nu)

        def dplus(x):
            return determinant_series(x, plus_values, plus_prime0, dps)

        def dminus(x):
            return determinant_series(x, minus_values, minus_prime0, dps)

        lhs = phase * dplus(lam) * dminus(w * lam) \
            - dplus(w * lam) * dminus(lam) / phase
        rhs = 2j * (mpmath.exp(-1j * mpmath.pi * lam / 4) if N == 2 else 1)
        res = abs(lhs - rhs)
    return rounded(res, dps)
