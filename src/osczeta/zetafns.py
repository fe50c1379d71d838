"""Numeric spectral zeta values and spectral determinants.

Zeta values Z(s) = sum E_k^(-s) (full, alternating, or single-parity) are
computed from a finite spectrum plus a semiclassical tail: the eigenvalue
index is mapped to energy through the counting relation
2*pi*(k + 1/2) = b0 E^mu + b1 E^(-mu) + b2 E^(-3mu) + ..., the head is summed
directly, and the tail becomes a combination of Hurwitz zeta values after
inverting that relation into a power expansion of E_k^(-s) in (k + 1/2);
each tail is one batch of exponents at one shift on the Hurwitz kernel of
`numerics`.  Beyond the exactly known leading coefficients, higher counting
coefficients are calibrated per parity class against the computed
eigenvalues themselves, with a held-out eigenvalue supplying the error
estimate; the calibration does not depend on s, so `tail_models` runs it
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
from mpmath import mpf, mpc

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


@dataclasses.dataclass(frozen=True)
class BohrSommerfeldCoeffs:
    """Counting-function coefficients 2*pi*N(E) ~ b0 E^mu + b1 E^(-mu)."""
    N: int
    mu: object
    b0: object
    b1: object  # None when no exact value is known

    @staticmethod
    def compute(N: int, dps: int = DEFAULT_DPS) -> "BohrSommerfeldCoeffs":
        with working(dps):
            mu = mpf(N + 2) / (2 * N)
            b0 = bohr_sommerfeld_b0(N, dps)
            if N == 2:
                b1 = mpf(0)  # harmonic counting is exactly linear
            elif N == 3:
                b1 = -mpmath.power(2, mpf(4) / 3) / 9 * mpmath.pi ** 2 \
                    / mpmath.gamma(mpf(1) / 3) ** 3
            else:
                b1 = None
        return BohrSommerfeldCoeffs(N, rounded(mu, dps), b0,
                                    rounded(b1, dps) if b1 is not None else None)


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
# Truncated expansions in inverse powers of the index variable
# --------------------------------------------------------------------------

class _XSeries:
    """x^p * (f0 + f1 x^-2 + f2 x^-4 + ...), numeric coefficients, fixed
    truncation depth.  Just enough Laurent algebra to invert the counting
    relation and expand E_k^(-s)."""

    __slots__ = ("p", "f")

    def __init__(self, p, f):
        self.p = mpf(p)
        self.f = [mpf(c) if not isinstance(c, (mpf, mpc)) else c for c in f]

    @property
    def depth(self):
        return len(self.f)

    def add(self, other: "_XSeries") -> "_XSeries":
        # exponents must agree mod 2 with self.p >= other.p
        if self.p == other.p:
            T = min(self.depth, other.depth)
            return _XSeries(self.p, [a + b for a, b in zip(self.f[:T], other.f[:T])])
        shift = (self.p - other.p) / 2
        k = int(mpmath.nint(shift))
        if abs(shift - k) > mpf("1e-20") or k < 0:
            raise ValueError("incompatible exponents")
        T = self.depth
        out = list(self.f[:T])
        for i, b in enumerate(other.f):
            if i + k < T:
                out[i + k] += b
        return _XSeries(self.p, out)

    def scale(self, c) -> "_XSeries":
        return _XSeries(self.p, [a * c for a in self.f])

    def power(self, alpha) -> "_XSeries":
        """(x^p f)^alpha via the binomial series on f/f0."""
        alpha = mpf(alpha)
        T = self.depth
        f0 = self.f[0]
        g = [c / f0 for c in self.f]
        g[0] = mpf(0)  # g = f/f0 - 1
        out = [mpf(0)] * T
        out[0] = mpf(1)
        gi = [mpf(1)] + [mpf(0)] * (T - 1)  # g^i running product
        binom = mpf(1)
        for i in range(1, T):
            # g^i
            nxt = [mpf(0)] * T
            for a in range(T):
                if gi[a] == 0:
                    continue
                for b in range(1, T - a):
                    nxt[a + b] += gi[a] * g[b]
            gi = nxt
            binom *= (alpha - (i - 1)) / i
            for r in range(T):
                out[r] += binom * gi[r]
        pref = mpmath.power(f0, alpha)
        return _XSeries(self.p * alpha, [pref * c for c in out])

    def eval(self, x):
        x = mpmath.mpmathify(x)
        acc = mpf(0)
        for r, c in enumerate(self.f):
            acc += c * x ** (self.p - 2 * r)
        return acc


def _invert_counting(b, mu, depth):
    """Solve x = b[0] y + b[1] y^-1 + b[2] y^-3 + ... for y = E^mu as an
    _XSeries in x, to the given depth."""
    y = _XSeries(1, [1 / b[0]] + [mpf(0)] * (depth - 1))
    for _ in range(depth + 1):
        rhs = _XSeries(1, [mpf(1)] + [mpf(0)] * (depth - 1))  # x itself
        for j in range(1, len(b)):
            if b[j] == 0:
                continue
            rhs = rhs.add(y.power(1 - 2 * j).scale(-b[j]))
        y = rhs.scale(1 / b[0])
    return y


# --------------------------------------------------------------------------
# Per-parity tail models
# --------------------------------------------------------------------------

class _TailModel:
    """Expansion E_k ~ scale-free power series in x = a*(k+1/2) for one
    parity class, able to emit the power representation of E_k^(-s)."""

    def __init__(self, a, y_series, inv_mu):
        self.a = a              # x = a * (k + 1/2)
        self.y = y_series       # y(x) with E = y^inv_mu
        self.inv_mu = inv_mu

    def energy(self, k):
        x = self.a * (mpf(k) + mpf(1) / 2)
        return self.y.eval(x) ** self.inv_mu

    def inverse_power_terms(self, s):
        """E_k^(-s) ~ sum_r coeff_r * (k+1/2)^(-e_r); returns [(coeff, e)]."""
        es = self.y.power(-mpf(s) * self.inv_mu)
        out = []
        for r, c in enumerate(es.f):
            e = -(es.p - 2 * r)
            out.append((c * mpmath.power(self.a, -e), e))
        return out


# Rational coefficients of the large-index expansions of the negative-axis
# zeros:  a_k = -T((3 pi/8)(4k-1)),  a'_k = -U((3 pi/8)(4k-3)),
# T(t) = t^(2/3)(1 + sum AIRY_ZERO_COEFFS[j] t^(-2j)), likewise U.
AIRY_ZERO_COEFFS = [Fraction(5, 48), Fraction(-5, 36), Fraction(77125, 82944),
                    Fraction(-108056875, 6967296)]
AIRY_DERIV_ZERO_COEFFS = [Fraction(-7, 48), Fraction(35, 288),
                          Fraction(-181223, 207360), Fraction(18683371, 1244160)]


def _airy_tail_model(parity_even: bool, depth: int) -> _TailModel:
    """N=1: both parity classes obey t = (3 pi / 4)(k + 1/2) with
    E = t^(2/3) (1 + sum c_j t^(-2j)); the c_j differ per class."""
    coeffs = AIRY_DERIV_ZERO_COEFFS if parity_even else AIRY_ZERO_COEFFS
    f = [mpf(1)] + [mpf(c.numerator) / c.denominator for c in coeffs]
    f = f[:depth] + [mpf(0)] * max(0, depth - len(f))
    # E = t^{2/3} (1 + sum); y = E^mu with mu = 3/2
    y = _XSeries(mpf(2) / 3, f).power(mpf(3) / 2)
    a = 3 * mpmath.pi / 4
    return _TailModel(a, y, mpf(2) / 3)


def _fit_tail_model(N, class_points, coeffs: BohrSommerfeldCoeffs,
                    n_fit: int, depth: int):
    """Calibrate counting coefficients beyond the known ones against the
    last computed eigenvalues of one parity class.

    class_points: [(full_index k, E_k)] sorted ascending.
    Returns (_TailModel, relative holdout error)."""
    mu = coeffs.mu
    b = [coeffs.b0]
    if N == 2:
        b = [coeffs.b0]  # counting exactly linear
        n_fit = 0
    elif coeffs.b1 is not None:
        b.append(coeffs.b1)
    n_fit = min(n_fit, max(0, len(class_points) - 2))
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
    y = _invert_counting(b, mu, depth)
    model = _TailModel(2 * mpmath.pi, y, 1 / mu)
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


#: terms of the inverse-power expansion of E_k^(-s) in every tail model
TAIL_DEPTH = 5


def _class_model(N, rec: SpectrumRecord, coeffs, dps, n_fit):
    """(_TailModel, relative holdout error) for one parity record, at the
    ambient precision: the exact Airy expansion for N=1, else a fit."""
    if N == 1:
        model = _airy_tail_model(rec.parity == "+", TAIL_DEPTH)
        k_chk, e_chk = _class_points(rec)[-1]
        return model, max(mpf(10) ** (-dps),
                          abs(model.energy(k_chk) / e_chk - 1))
    return _fit_tail_model(N, _class_points(rec), coeffs, n_fit, TAIL_DEPTH)


def tail_models(N: int, records, coeffs: BohrSommerfeldCoeffs,
                dps: int = DEFAULT_DPS, n_fit: int = 3) -> dict:
    """{parity: (_TailModel, relative holdout error)} for every record.  No
    model depends on s, so a table of zeta values fits each record once and
    hands the models to `zeta_em`."""
    with working(dps, 10):
        return {p: _class_model(N, rec, coeffs, dps, n_fit)
                for p, rec in _normalize_records(records).items()}


def zeta_em(N: int, kind: str, s, records,
            coeffs: BohrSommerfeldCoeffs = None,
            dps: int = DEFAULT_DPS, n_fit: int = 3,
            models: dict = None) -> ZetaValue:
    """Zeta value of the requested kind at s > 0 from computed spectra plus
    the semiclassical tail.  `records` is a SpectrumRecord or a pair of them;
    kinds 'full' and 'twisted' need both parities, 'plus'/'minus' need one.
    `models` may supply the records' `tail_models` (same dps and n_fit);
    otherwise each needed record is fitted here."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    recs = _normalize_records(records)
    if coeffs is None:
        coeffs = BohrSommerfeldCoeffs.compute(N, dps)
    with working(dps, 10):
        s = mpf(s)
        mu = mpf(coeffs.mu)
        if kind in ("full", "plus", "minus"):
            if s == mu:
                raise SummationPoleError(f"s = mu = {mu} is the pole")
            if s < mu:
                raise DivergentSeriesError(
                    f"kind {kind} requires s > mu = {mu}")
        elif s <= 0:
            raise DivergentSeriesError("twisted sum requires s > 0")

        need = ("+", "-") if kind in ("full", "twisted") else \
            (("+",) if kind == "plus" else ("-",))
        for p in need:
            if p not in recs:
                raise InsufficientTermsError(f"missing parity {p} spectrum")

        weights = {"full": {0: 1, 1: 1}, "twisted": {0: 1, 1: -1},
                   "plus": {0: 1}, "minus": {1: 1}}[kind]

        # contiguous head length in the full index
        if kind in ("full", "twisted"):
            L = min(len(recs["+"]), len(recs["-"]))
            k_tail = 2 * L
        else:
            rec = recs[need[0]]
            k_tail = rec.full_index(len(rec) - 1) + 1

        head = mpf(0)
        for p in need:
            rec = recs[p]
            cls = 0 if p == "+" else 1
            w = weights[cls]
            for k, e in _class_points(rec):
                if k < k_tail:
                    head += w * e ** (-s)

        fits = models or {p: _class_model(N, recs[p], coeffs, dps, n_fit)
                          for p in need}
        terms, rels = {}, {}
        for p in need:
            cls = 0 if p == "+" else 1
            model, rels[cls] = fits[p]
            terms[cls] = model.inverse_power_terms(s)

        tail = mpf(0)
        err = mpf(0)
        if kind in ("full", "twisted"):
            # split the class-dependent expansions into even/odd average g
            # and half-difference h over the shared exponent basis; then
            # full = sum g + alternating sum h, twisted = the reverse
            te, to = terms[0], terms[1]
            g = [((ce + co) / 2, e) for (ce, e), (co, _) in zip(te, to)]
            h = [((ce - co) / 2, e) for (ce, e), (co, _) in zip(te, to)]
            smooth, osc = (g, h) if kind == "full" else (h, g)
            t1, a1 = _lattice_tail_sum(smooth, k_tail, alternating=False)
            t2, a2 = _lattice_tail_sum(osc, k_tail, alternating=True)
            tail = t1 + t2
            rel = max(rels[0], rels[1])
            err = abs(s) * rel * (a1 + a2) * 2
        else:
            cls = 0 if kind == "plus" else 1
            tail, t_abs = _class_tail_sum(terms[cls], k_tail, cls)
            err = abs(s) * rels[cls] * t_abs * 2

        value = head + tail
        err += abs(value) * mpf(10) ** (-(dps + 2))
        if err >= abs(value):
            raise TailBoundError("tail estimate exceeds the value itself")
        cert = int(mpmath.floor(-mpmath.log10(err / abs(value))))
        cert = max(1, min(cert, dps))
    return ZetaValue(N, kind, rounded(s, dps), rounded(value, dps),
                     "direct-EM", cert)


# --------------------------------------------------------------------------
# Determinants and the functional equation
# --------------------------------------------------------------------------

def determinant_series(N: int, kind: str, lam, zeta_values, Zprime0,
                       dps: int = DEFAULT_DPS):
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
            return determinant_series(N, "plus", x, plus_values,
                                      plus_prime0, dps)

        def dminus(x):
            return determinant_series(N, "minus", x, minus_values,
                                      minus_prime0, dps)

        lhs = phase * dplus(lam) * dminus(w * lam) \
            - dplus(w * lam) * dminus(lam) / phase
        rhs = 2j * (mpmath.exp(-1j * mpmath.pi * lam / 4) if N == 2 else 1)
        res = abs(lhs - rhs)
    return rounded(res, dps)
