"""Symbolic derivation of the exact sum rules from the bilinear functional
equation, with exact cyclotomic coefficients.

The parity determinants expand as D(l) = exp(-Z'(0) - sum Z(n)(-l)^n / n).
Substituting into
    e^{i nu pi} D+(l) D-(w l) - e^{-i nu pi} D+(w l) D-(l) = rhs,
with w = e^{4 i nu pi} and rhs = 2i (or 2i e^{-i pi l / 4} for N=2, where
pi/4 is itself the alternating zeta value at 1, keeping everything
algebraic), and matching powers of l yields one polynomial identity per
order.  Order 0 fixes exp(Z'(0)) = sin(nu pi); each higher order n, after
normalization, reads

  -cot(nu pi) sin(2 n nu pi) * ZP(n) + cos(2 n nu pi) * Z(n) = P_n,

with P_n a homogeneous weight-n polynomial in the twisted values ZP(m),
m < n.  All coefficients live in the cyclotomic field of conductor 2(N+2).
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

from .cyclo import CycloNumber, cos_pi_frac, rational
from .errors import NotAMultipleError
from .sympoly import SymPoly, TruncSeries, ZKind, ZSymbol

CLASSIFICATIONS = ("Zprime0", "Zfull", "Ztwisted", "Zplus", "Zminus", "generic")


def symmetry_order(N: int) -> int:
    """Order L of the complex-rotation symmetry: N/2+1 (even), N+2 (odd)."""
    return N // 2 + 1 if N % 2 == 0 else N + 2


def classify_lhs(N: int, n: int) -> str:
    """Which basic zeta value (if any) the order-n identity evaluates."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return "Zprime0"
    L = symmetry_order(N)
    if n % L == 0:
        return "Zfull"
    if N % 4 == 2 and (2 * n) % L == 0 and ((2 * n) // L) % 2 == 1:
        return "Ztwisted"
    if N % 2 == 1:
        if (2 * n + 1) % L == 0:
            return "Zplus"
        if (2 * n - 1) % L == 0:
            return "Zminus"
    return "generic"


@dataclasses.dataclass(frozen=True)
class SumRuleIdentity:
    """One derived identity lhs = rhs at a given order.

    lhs/rhs are SymPoly over Zfull/Ztwisted symbols; rhs contains only
    twisted symbols of order < n.  For order 0 the identity is stored in
    exponentiated form: exp(Z'(0)) = exp_rhs (a cyclotomic constant).
    """
    N: int
    order: int
    lhs: SymPoly
    rhs: SymPoly
    classification: str
    degenerate: bool = False
    exp_rhs: CycloNumber = None

    def to_text(self) -> str:
        if self.degenerate:
            return f"N={self.N} n={self.order}: degenerate (0 = 0)"
        if self.order == 0:
            return (f"N={self.N} n=0: exp(Z'(0)) = {self.exp_rhs.text()}"
                    f"  [{self.classification}]")
        lhs, rhs = self.lhs, self.rhs
        if self.classification != "generic":
            # rescale so the basic zeta value stands alone on the left
            lhs, rhs = solved_form(self)
        return (f"N={self.N} n={self.order}: {lhs.text()} = "
                f"{rhs.text()}  [{self.classification}]")

    def to_json_dict(self) -> dict:
        return {
            "N": self.N, "order": self.order,
            "classification": self.classification,
            "degenerate": self.degenerate,
            "lhs": self.lhs.text(), "rhs": self.rhs.text(),
            "exp_rhs": self.exp_rhs.text() if self.exp_rhs is not None else None,
        }


def _zsym(kind: ZKind, n: int) -> ZSymbol:
    return ZSymbol(kind, n)


def _parity_log_series(kind: ZKind, M: int) -> TruncSeries:
    """exp(-sum_{n>=1} Z(n) (-l)^n / n) for one parity, as a series with
    symbolic coefficients (the exp(-Z'(0)) prefactor is handled globally)."""
    coeffs = [SymPoly.zero()]
    for n in range(1, M + 1):
        coeffs.append(SymPoly.symbol(_zsym(kind, n), Fraction((-1) ** (n + 1), n)))
    return TruncSeries(M, coeffs).exp()


def _to_full_twisted(poly: SymPoly, orders) -> SymPoly:
    """Rewrite Z+/Z- symbols as (Zfull +- Ztwisted)/2."""
    mapping = {}
    half = Fraction(1, 2)
    for n in orders:
        F = SymPoly.symbol(_zsym(ZKind.ZFULL, n), half)
        T = SymPoly.symbol(_zsym(ZKind.ZTWISTED, n), half)
        mapping[_zsym(ZKind.ZPLUS, n)] = F + T
        mapping[_zsym(ZKind.ZMINUS, n)] = F - T
    return poly.substitute(mapping)


def derive_sum_rules(N: int, n_max: int):
    """Derive the identities of order 0..n_max for degree N."""
    if N < 1 or n_max < 0:
        raise ValueError("need N >= 1, n_max >= 0")
    m = 2 * (N + 2)
    zeta = CycloNumber.zeta(m, 1)          # e^{i nu pi}
    zeta_inv = zeta.conjugate()
    omega = CycloNumber.zeta(m, 4)         # e^{4 i nu pi}
    two_i_sin = zeta - zeta_inv            # 2i sin(nu pi)
    M = n_max

    out = [SumRuleIdentity(
        N, 0, SymPoly.symbol(_zsym(ZKind.ZPLUS_PRIME0, 0))
        + SymPoly.symbol(_zsym(ZKind.ZMINUS_PRIME0, 0)),
        SymPoly.zero(), "Zprime0", exp_rhs=cos_pi_frac(N, 2 * (N + 2)))]
    if n_max == 0:
        return out

    splus = _parity_log_series(ZKind.ZPLUS, M)
    sminus = _parity_log_series(ZKind.ZMINUS, M)
    lhs_series = (splus * sminus.rescale_argument(omega)) * zeta \
        - (splus.rescale_argument(omega) * sminus) * zeta_inv

    # right-hand side (divided by exp(-Z'(0)), i.e. times sin(nu pi)):
    # constant 2i sin(nu pi) in general; for N=2 the factor e^{-i pi l/4}
    # contributes (-i ZP(1))^n / n! per order, with pi/4 = ZP(1)
    rhs_coeffs = [SymPoly.constant(two_i_sin)]
    if N == 2:
        i_unit = CycloNumber.zeta(4, 1)
        zp1 = SymPoly.symbol(_zsym(ZKind.ZPLUS, 1)) \
            - SymPoly.symbol(_zsym(ZKind.ZMINUS, 1))
        fact = Fraction(1)
        term = SymPoly.constant(1)
        for n in range(1, M + 1):
            term = term * zp1
            fact /= n
            c = (-i_unit) ** n * two_i_sin
            rhs_coeffs.append(term.scaled(c).scaled(fact))
    rhs_series = TruncSeries(M, rhs_coeffs)

    full_sub = {}          # Zfull(m) -> SymPoly in twisted symbols
    blocked_full = set()   # orders where Zfull could not be solved for
    for n in range(1, n_max + 1):
        raw = lhs_series.coefficient(n) - rhs_series.coefficient(n)
        fnorm = rational(Fraction((-1) ** (n + 1) * n)) \
            * (zeta_inv ** (2 * n)) * two_i_sin.inverse()
        raw = raw.scaled(fnorm)
        raw = _to_full_twisted(raw, range(1, n + 1))

        lhs = SymPoly.zero()
        rhs = SymPoly.zero()
        for mono, c in raw.terms.items():
            if any(sym.order == n for sym, _ in mono):
                lhs = lhs + SymPoly({mono: c})
            else:
                rhs = rhs - SymPoly({mono: c})
        rhs = rhs.substitute(full_sub)

        if lhs.is_zero() and rhs.is_zero():
            out.append(SumRuleIdentity(N, n, lhs, rhs, classify_lhs(N, n),
                                       degenerate=True))
            continue

        leftover = [s for s in rhs.symbols() if s.kind is ZKind.ZFULL]
        if leftover:
            raise AssertionError(
                f"unreduced full symbols {leftover} at N={N}, n={n}")
        if not rhs.is_homogeneous(n):
            raise AssertionError(f"inhomogeneous rhs at N={N}, n={n}")

        c_full = lhs.terms.get(((_zsym(ZKind.ZFULL, n), 1),))
        c_tw = lhs.terms.get(((_zsym(ZKind.ZTWISTED, n), 1),))
        if c_full is not None and not c_full.is_zero():
            # Zfull(n) = (rhs - c_tw * Ztw(n)) / c_full
            expr = rhs
            if c_tw is not None:
                expr = expr - SymPoly.symbol(_zsym(ZKind.ZTWISTED, n), c_tw)
            full_sub[_zsym(ZKind.ZFULL, n)] = expr.scaled(c_full.inverse())
        else:
            blocked_full.add(n)

        out.append(SumRuleIdentity(N, n, lhs, rhs, classify_lhs(N, n)))
    return out


def solved_form(identity: SumRuleIdentity):
    """For a non-generic identity, rescale so one basic zeta value stands
    alone: returns (SymPoly for the basic value, SymPoly rhs)."""
    cls = identity.classification
    if cls in ("generic", "Zprime0") or identity.degenerate:
        raise ValueError(f"no single-value form for {cls}")
    n = identity.order
    lhs, rhs = identity.lhs, identity.rhs
    if cls in ("Zplus", "Zminus"):
        lhs = _basis_to_plusminus(lhs)
        rhs_pm = rhs  # rhs stays in twisted symbols; only lhs is rescaled
        kind = ZKind.ZPLUS if cls == "Zplus" else ZKind.ZMINUS
    else:
        rhs_pm = rhs
        kind = ZKind.ZFULL if cls == "Zfull" else ZKind.ZTWISTED
    sym = _zsym(kind, n)
    coeff = lhs.terms.get(((sym, 1),))
    if coeff is None or coeff.is_zero():
        raise AssertionError(f"expected {sym!r} in lhs")
    rest = lhs - SymPoly.symbol(sym, coeff)
    if not rest.is_zero():
        raise AssertionError(f"lhs not proportional to {sym!r}")
    return SymPoly.symbol(sym), rhs_pm.scaled(coeff.inverse())


def _basis_to_plusminus(poly: SymPoly) -> SymPoly:
    mapping = {}
    for sym in poly.symbols():
        if sym.kind is ZKind.ZFULL:
            mapping[sym] = SymPoly.symbol(_zsym(ZKind.ZPLUS, sym.order)) \
                + SymPoly.symbol(_zsym(ZKind.ZMINUS, sym.order))
        elif sym.kind is ZKind.ZTWISTED:
            mapping[sym] = SymPoly.symbol(_zsym(ZKind.ZPLUS, sym.order)) \
                - SymPoly.symbol(_zsym(ZKind.ZMINUS, sym.order))
    return poly.substitute(mapping)


def _basis_to_fulltwisted(poly: SymPoly) -> SymPoly:
    return _to_full_twisted(poly, sorted({s.order for s in poly.symbols()}))


def convert_basis(identity: SumRuleIdentity, target: str) -> SumRuleIdentity:
    """Rewrite both sides in the 'plusminus' or 'fulltwisted' basis."""
    if target not in ("plusminus", "fulltwisted"):
        raise ValueError("target must be 'plusminus' or 'fulltwisted'")
    conv = _basis_to_plusminus if target == "plusminus" else _basis_to_fulltwisted
    return dataclasses.replace(identity, lhs=conv(identity.lhs),
                               rhs=conv(identity.rhs))


def autonomous_full_identity(N: int, n: int) -> SumRuleIdentity:
    """The order-n identity (n a positive multiple of L_N) eliminated to
    contain full zeta values only on both sides."""
    L = symmetry_order(N)
    if n <= 0 or n % L:
        raise NotAMultipleError(f"n={n} is not a positive multiple of L={L}")
    rules = derive_sum_rules(N, n)
    # build Ztwisted(m) -> polynomial in Zfull(<= m), walking upward
    tw_sub = {}
    for ident in rules[1:n]:
        if ident.degenerate:
            continue
        m_ord = ident.order
        c_tw = ident.lhs.terms.get(((_zsym(ZKind.ZTWISTED, m_ord), 1),))
        if c_tw is None or c_tw.is_zero():
            continue  # identity fixes Zfull(m) instead; Ztw(m) must cancel
        c_full = ident.lhs.terms.get(((_zsym(ZKind.ZFULL, m_ord), 1),))
        expr = ident.rhs.substitute(tw_sub)
        if c_full is not None and not c_full.is_zero():
            expr = expr - SymPoly.symbol(_zsym(ZKind.ZFULL, m_ord), c_full)
        tw_sub[_zsym(ZKind.ZTWISTED, m_ord)] = expr.scaled(c_tw.inverse())
    target = rules[n]
    sym, rhs = solved_form(target)
    rhs = rhs.substitute(tw_sub)
    bad = [s for s in rhs.symbols() if s.kind is not ZKind.ZFULL]
    if bad:
        raise AssertionError(f"twisted symbols {bad} survived elimination")
    if not rhs.is_homogeneous(n):
        raise AssertionError("elimination broke homogeneity")
    return SumRuleIdentity(N, n, sym, rhs, "Zfull")


def identities_to_json(identities) -> str:
    return json.dumps([i.to_json_dict() for i in identities], indent=2)
