"""Symbolic derivation of the exact sum rules from the bilinear functional
equation, with exact cyclotomic coefficients.

The parity determinants expand as D(l) = exp(-Z'(0) - sum Z(n)(-l)^n / n).
Substituting into
    e^{i nu pi} D+(l) D-(w l) - e^{-i nu pi} D+(w l) D-(l) = rhs,
with w = e^{4 i nu pi} and rhs = 2i (or 2i e^{-i pi l / 4} for N=2, where
pi/4 is itself the alternating zeta value at 1, keeping everything
algebraic), and matching powers of l yields one polynomial identity per
order.  Both products are exponentials of series linear in the zeta values,
so with Z+- = (Z +- ZP)/2 they expand directly in the reporting basis of
full values Z(n) and twisted values ZP(n).  Order 0 fixes
exp(Z'(0)) = sin(nu pi); each higher order n, after normalization, reads

  -cot(nu pi) sin(2 n nu pi) * ZP(n) + cos(2 n nu pi) * Z(n) = P_n,

with P_n a homogeneous weight-n polynomial in the twisted values ZP(m),
m < n.  All coefficients live in the cyclotomic field of conductor 2(N+2).

One loop over n does the derivation.  With log coefficients A_k, B_k of
the two products, the exp coefficients follow from
n E_n = sum_{k=1}^{n} k A_k E_{n-k}.  Once order n is solved for Z(n), that
value goes into A_n and B_n (and so into E_n) before order n+1 starts: every
later order is born in the twisted basis and no rhs is substituted.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .cyclo import CycloNumber, cos_pi_frac, rational
from .errors import EliminationError, NotAMultipleError
from .sympoly import SymPoly, ZKind, ZSymbol, _mul_into

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


def derive_sum_rules(N: int, n_max: int):
    """Derive the identities of order 0..n_max for degree N."""
    if N < 1 or n_max < 0:
        raise ValueError("need N >= 1, n_max >= 0")
    m = 2 * (N + 2)
    zeta = CycloNumber.zeta(m, 1)          # e^{i nu pi}
    zeta_inv = zeta.conjugate()
    omega = CycloNumber.zeta(m, 4)         # e^{4 i nu pi}
    two_i_sin = zeta - zeta_inv            # 2i sin(nu pi)

    out = [SumRuleIdentity(
        N, 0, SymPoly.symbol(ZSymbol(ZKind.ZPLUS_PRIME0, 0))
        + SymPoly.symbol(ZSymbol(ZKind.ZMINUS_PRIME0, 0)),
        SymPoly.zero(), "Zprime0", exp_rhs=cos_pi_frac(N, 2 * (N + 2)))]

    # log and exp coefficients of D+(l) D-(w l) (a) and D+(w l) D-(l) (b),
    # with each solved Z(m) already replaced by its twisted-basis value
    log_a, log_b = [None], [None]
    exp_a, exp_b = [SymPoly.constant(1)], [SymPoly.constant(1)]
    # right-hand side (divided by exp(-Z'(0)), i.e. times sin(nu pi)):
    # 2i sin(nu pi) times 1 in general, times e^{-i pi l/4} = exp(-i ZP(1) l)
    # for N=2, with pi/4 = ZP(1); rhs_n is its order-n coefficient
    rhs_step = SymPoly.zero()
    if N == 2:
        rhs_step = SymPoly.symbol(ZSymbol(ZKind.ZTWISTED, 1),
                                  -CycloNumber.zeta(4, 1))
    rhs_n = SymPoly.constant(1)
    w_n = rational(1)
    for n in range(1, n_max + 1):
        # the order-n log coefficients are c_n (Z+(n) + w^n Z-(n)) and
        # c_n (w^n Z+(n) + Z-(n)), c_n = (-1)^(n+1)/n, i.e.
        # c_n ((1 + w^n)/2 Z(n) +- (1 - w^n)/2 ZP(n))
        w_n = w_n * omega
        half_c = Fraction((-1) ** (n + 1), 2 * n)
        full, tw = ZSymbol(ZKind.ZFULL, n), ZSymbol(ZKind.ZTWISTED, n)
        log_full, log_tw = (w_n + 1) * half_c, (1 - w_n) * half_c
        log_a.append(SymPoly({((full, 1),): log_full, ((tw, 1),): log_tw}))
        log_b.append(SymPoly({((full, 1),): log_full, ((tw, 1),): -log_tw}))
        # n E_n = sum_k k A_k E_{n-k}; the k = n term A_n is added below
        lower_a, lower_b = {}, {}
        for k in range(1, n):
            scale = rational(Fraction(k, n))
            _mul_into(lower_a, log_a[k].terms, exp_a[n - k].terms, scale)
            _mul_into(lower_b, log_b[k].terms, exp_b[n - k].terms, scale)
        lower_a, lower_b = SymPoly(lower_a), SymPoly(lower_b)
        rhs_n = (rhs_n * rhs_step).scaled(Fraction(1, n))

        fnorm = rational(Fraction((-1) ** (n + 1) * n)) \
            * (zeta_inv ** (2 * n)) * two_i_sin.inverse()
        raw = (lower_a + log_a[n]).scaled(zeta * fnorm) \
            - (lower_b + log_b[n]).scaled(zeta_inv * fnorm) \
            - rhs_n.scaled(two_i_sin * fnorm)

        # terms carrying an order-n symbol stay left, the rest move right
        top = {mo for mo in raw.terms if any(s.order == n for s, _ in mo)}
        lhs = SymPoly({mo: c for mo, c in raw.terms.items() if mo in top})
        rhs = SymPoly({mo: -c for mo, c in raw.terms.items()
                       if mo not in top})

        degenerate = lhs.is_zero() and rhs.is_zero()
        leftover = [s for s in rhs.symbols() if s.kind is ZKind.ZFULL]
        if leftover:
            raise AssertionError(
                f"unreduced full symbols {leftover} at N={N}, n={n}")
        if not rhs.is_homogeneous(n):
            raise AssertionError(f"inhomogeneous rhs at N={N}, n={n}")
        c_full = lhs.terms.get(((full, 1),))
        if c_full is not None and not c_full.is_zero():
            # Z(n) = (rhs - c_tw * ZP(n)) / c_full, put into A_n and B_n
            expr = rhs
            c_tw = lhs.terms.get(((tw, 1),))
            if c_tw is not None:
                expr = expr - SymPoly.symbol(tw, c_tw)
            expr = expr.scaled(c_full.inverse() * log_full)
            log_a[n] = expr + SymPoly.symbol(tw, log_tw)
            log_b[n] = expr - SymPoly.symbol(tw, log_tw)
        out.append(SumRuleIdentity(N, n, lhs, rhs, classify_lhs(N, n),
                                   degenerate=degenerate))
        exp_a.append(lower_a + log_a[n])
        exp_b.append(lower_b + log_b[n])
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
        # rhs stays in twisted symbols; only lhs changes basis
        lhs = _basis_to_plusminus(lhs)
        kind = ZKind.ZPLUS if cls == "Zplus" else ZKind.ZMINUS
    else:
        kind = ZKind.ZFULL if cls == "Zfull" else ZKind.ZTWISTED
    sym = ZSymbol(kind, n)
    coeff = lhs.terms.get(((sym, 1),))
    if coeff is None or coeff.is_zero():
        raise AssertionError(f"expected {sym!r} in lhs")
    rest = lhs - SymPoly.symbol(sym, coeff)
    if not rest.is_zero():
        raise AssertionError(f"lhs not proportional to {sym!r}")
    return SymPoly.symbol(sym), rhs.scaled(coeff.inverse())


def _basis_to_plusminus(poly: SymPoly) -> SymPoly:
    mapping = {}
    for sym in poly.symbols():
        if sym.kind is ZKind.ZFULL:
            mapping[sym] = SymPoly.symbol(ZSymbol(ZKind.ZPLUS, sym.order)) \
                + SymPoly.symbol(ZSymbol(ZKind.ZMINUS, sym.order))
        elif sym.kind is ZKind.ZTWISTED:
            mapping[sym] = SymPoly.symbol(ZSymbol(ZKind.ZPLUS, sym.order)) \
                - SymPoly.symbol(ZSymbol(ZKind.ZMINUS, sym.order))
    return poly.substitute(mapping)


def _basis_to_fulltwisted(poly: SymPoly) -> SymPoly:
    """Rewrite Z+/Z- symbols as (Zfull +- Ztwisted)/2."""
    mapping = {}
    for sym in poly.symbols():
        F = SymPoly.symbol(ZSymbol(ZKind.ZFULL, sym.order), Fraction(1, 2))
        T = SymPoly.symbol(ZSymbol(ZKind.ZTWISTED, sym.order), Fraction(1, 2))
        if sym.kind is ZKind.ZPLUS:
            mapping[sym] = F + T
        elif sym.kind is ZKind.ZMINUS:
            mapping[sym] = F - T
    return poly.substitute(mapping)


def convert_basis(identity: SumRuleIdentity, target: str) -> SumRuleIdentity:
    """Rewrite both sides in the 'plusminus' or 'fulltwisted' basis."""
    if target not in ("plusminus", "fulltwisted"):
        raise ValueError("target must be 'plusminus' or 'fulltwisted'")
    conv = _basis_to_plusminus if target == "plusminus" else _basis_to_fulltwisted
    return dataclasses.replace(identity, lhs=conv(identity.lhs),
                               rhs=conv(identity.rhs))


def autonomous_full_identity(N: int, n: int, rules=None) -> SumRuleIdentity:
    """The order-n identity (n a positive multiple of L_N) eliminated to
    contain full zeta values only on both sides.  `rules` may pass in
    derive_sum_rules(N, M) for any M >= n: its first n+1 entries are
    derive_sum_rules(N, n)."""
    L = symmetry_order(N)
    if n <= 0 or n % L:
        raise NotAMultipleError(f"n={n} is not a positive multiple of L={L}")
    if rules is None:
        rules = derive_sum_rules(N, n)
    elif len(rules) <= n or rules[0].N != N:
        raise ValueError(f"rules do not reach order {n} of degree {N}")
    # build Ztwisted(m) -> polynomial in Zfull(<= m), walking upward
    tw_sub = {}
    for ident in rules[1:n]:
        if ident.degenerate:
            continue
        m_ord = ident.order
        c_tw = ident.lhs.terms.get(((ZSymbol(ZKind.ZTWISTED, m_ord), 1),))
        if c_tw is None or c_tw.is_zero():
            continue  # identity fixes Zfull(m) instead; Ztw(m) must cancel
        c_full = ident.lhs.terms.get(((ZSymbol(ZKind.ZFULL, m_ord), 1),))
        expr = ident.rhs.substitute(tw_sub)
        if c_full is not None and not c_full.is_zero():
            expr = expr - SymPoly.symbol(ZSymbol(ZKind.ZFULL, m_ord), c_full)
        tw_sub[ZSymbol(ZKind.ZTWISTED, m_ord)] = expr.scaled(c_tw.inverse())
    target = rules[n]
    sym, rhs = solved_form(target)
    rhs = rhs.substitute(tw_sub)
    bad = sorted((s for s in rhs.symbols() if s.kind is not ZKind.ZFULL),
                 key=ZSymbol.sort_key)
    if bad:
        raise EliminationError(
            f"N={N} n={n}: twisted symbols {bad} survived elimination")
    if not rhs.is_homogeneous(n):
        raise AssertionError("elimination broke homogeneity")
    return SumRuleIdentity(N, n, sym, rhs, "Zfull")
