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

One loop over n does the derivation on one series, the log coefficients A_k
of D+(l) D-(w l), whose exp coefficients follow from
n E_n = sum_{k=1}^{n} k A_k E_{n-k}.  The other product D+(w l) D-(l) is the
first with its coefficients conjugated (zeta -> 1/zeta) and l -> w l, so its
order-n coefficient is w^n conj(E_n).  Once order n is solved, that real
value goes into A_n (and so into E_n) before order n+1 starts, so no rhs is
substituted.  Two passes differ only in what they solve for.  The twisted
pass (derive_sum_rules) solves for Z(n), leaving twisted values on the right.
The full pass solves for ZP(n), or for Z(n) at the orders kL where ZP(n)
drops out, leaving full values; its order kL is the full-value restatement.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .cyclo import CycloNumber, cos_pi_frac, rational
from .errors import (DerivationTooLargeError, EliminationError,
                     NotAMultipleError)
from .sympoly import SymPoly, ZKind, ZSymbol, _mul_into

CLASSIFICATIONS = ("Zprime0", "Zfull", "Ztwisted", "Zplus", "Zminus", "generic")

#: largest degree and order a derivation takes: past them it runs for minutes
#: (at N = 400 the cyclotomic inverses alone take seconds per order)
MAX_DEGREE, MAX_ORDER = 200, 32


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
    """Derive the identities of order 0..n_max for degree N, each rhs in
    twisted values (the twisted pass)."""
    return _derive(N, n_max, ZKind.ZTWISTED)


def _derive(N: int, n_max: int, basis: ZKind):
    """The identities of order 0..n_max with each rhs in `basis`: ZTWISTED
    folds each solved Z(n) into A_n, ZFULL folds each solved ZP(n) instead,
    or Z(n) where ZP(n) drops out."""
    if N < 1 or n_max < 0:
        raise ValueError("need N >= 1, n_max >= 0")
    if N > MAX_DEGREE or n_max > MAX_ORDER:
        raise DerivationTooLargeError(f"need N <= {MAX_DEGREE}, n_max <= "
                                      f"{MAX_ORDER} (got {N}, {n_max})")
    m = 2 * (N + 2)
    zeta = CycloNumber.zeta(m, 1)          # e^{i nu pi}
    inv_two_i_sin = (zeta - zeta.conjugate()).inverse()  # 1/(2i sin(nu pi))
    i_tan = (zeta - zeta.conjugate()) * (zeta + zeta.conjugate()).inverse()

    out = [SumRuleIdentity(
        N, 0, SymPoly.symbol(ZSymbol(ZKind.ZPLUS_PRIME0, 0))
        + SymPoly.symbol(ZSymbol(ZKind.ZMINUS_PRIME0, 0)),
        SymPoly.zero(), "Zprime0", exp_rhs=cos_pi_frac(N, 2 * (N + 2)))]

    # log and exp coefficients A_k, E_k of D+(l) D-(w l), with each solved
    # value already folded in
    log, exp = [None], [SymPoly.constant(1)]
    # right-hand side (divided by exp(-Z'(0)), i.e. times sin(nu pi)):
    # 2i sin(nu pi) times 1 in general, times e^{-i pi l/4} = exp(-i ZP(1) l)
    # for N=2, with pi/4 = ZP(1); rhs_n is its order-n coefficient
    rhs_step = SymPoly.zero()
    if N == 2:
        rhs_step = SymPoly.symbol(ZSymbol(ZKind.ZTWISTED, 1),
                                  -CycloNumber.zeta(4, 1))
    rhs_n = SymPoly.constant(1)
    for n in range(1, n_max + 1):
        # the order-n log coefficient is c_n (Z+(n) + w^n Z-(n)),
        # c_n = (-1)^(n+1)/n, i.e. c_n ((1 + w^n)/2 Z(n) + (1 - w^n)/2 ZP(n))
        w_n = CycloNumber.zeta(m, 4 * n)   # w = e^{4 i nu pi}
        half_c = Fraction((-1) ** (n + 1), 2 * n)
        full, tw = ZSymbol(ZKind.ZFULL, n), ZSymbol(ZKind.ZTWISTED, n)
        log_coeff = {full: (w_n + 1) * half_c, tw: (1 - w_n) * half_c}
        log.append(SymPoly({((s, 1),): c for s, c in log_coeff.items()}))
        # n E_n = sum_k k A_k E_{n-k}; the k = n term A_n is added below
        lower = {}
        for k in range(1, n):
            _mul_into(lower, log[k].terms, exp[n - k].terms,
                      rational(Fraction(k, n)))
        lower = SymPoly(lower)
        rhs_n = (rhs_n * rhs_step).scaled(Fraction(1, n))

        # D+(w l) D-(l) has order-n coefficient w^n conj(E_n), conj being
        # zeta -> 1/zeta (the symbols and the folded values are real), so
        # the normalized identity is Y + conj Y = (-1)^(n+1) n zeta^(-2n)
        # rhs_n with Y = (-1)^(n+1) n zeta^(1-2n) E_n / (2i sin(nu pi))
        rhs_scale = rational((-1) ** (n + 1) * n) * CycloNumber.zeta(m, -2 * n)
        y = (lower + log[n]).scaled(rhs_scale * zeta * inv_two_i_sin)
        raw = SymPoly({mo: c + c.conjugate() for mo, c in y.terms.items()}) \
            - rhs_n.scaled(rhs_scale)

        # terms carrying an order-n symbol stay left, the rest move right
        top = {mo for mo in raw.terms if any(s.order == n for s, _ in mo)}
        lhs = SymPoly({mo: c for mo, c in raw.terms.items() if mo in top})
        rhs = SymPoly({mo: -c for mo, c in raw.terms.items()
                       if mo not in top})

        degenerate = lhs.is_zero() and rhs.is_zero()
        leftover = [s for s in rhs.symbols() if s.kind is ZKind.ZFULL]
        if leftover and basis is ZKind.ZTWISTED:
            raise AssertionError(
                f"unreduced full symbols {leftover} at N={N}, n={n}")
        if not rhs.is_homogeneous(n):
            raise AssertionError(f"inhomogeneous rhs at N={N}, n={n}")
        # solve for the first of these the identity carries, sym =
        # (rhs - (lhs - c sym)) / c, and put that value into A_n
        for sym in (full,) if basis is ZKind.ZTWISTED else (tw, full):
            c = lhs.terms.get(((sym, 1),))
            if c is not None:
                value = rhs - (lhs - SymPoly.symbol(sym, c))
                # for N = 2 the lhs at n = 1 also carries the rhs's ZP(1)
                ratio = c.inverse() * log_coeff[sym] if (N, n) == (2, 1) \
                    else _fold_ratio(m, n, sym, i_tan)
                log[n] = log[n] - SymPoly.symbol(sym, log_coeff[sym]) \
                    + value.scaled(ratio)
                break
        out.append(SumRuleIdentity(N, n, lhs, rhs, classify_lhs(N, n),
                                   degenerate=degenerate))
        exp.append(lower + log[n])
    return out


def _fold_ratio(m: int, n: int, sym: ZSymbol, i_tan: CycloNumber):
    """log_coeff / c of the symbol solved for at order n, with no inverse:
    c is cos(2n nu pi) for Z(n) and -cot(nu pi) sin(2n nu pi) for ZP(n)
    (module docstring), so it is (-1)^(n+1) zeta^(2n) / n, times i tan(nu pi)
    for ZP(n)."""
    ratio = rational(Fraction((-1) ** (n + 1), n)) * CycloNumber.zeta(m, 2 * n)
    return ratio * i_tan if sym.kind is ZKind.ZTWISTED else ratio


def solved_form(identity: SumRuleIdentity):
    """For a non-generic identity, rescale so one basic zeta value stands
    alone: returns (SymPoly for the basic value, SymPoly rhs)."""
    cls = identity.classification
    if cls in ("generic", "Zprime0") or identity.degenerate:
        raise ValueError(f"no single-value form for {cls}")
    n = identity.order
    # the lhs c Z(n) + d ZP(n) is (c + d) Z+(n) + (c - d) Z-(n)
    terms = dict(identity.lhs.terms)
    c, d = (terms.pop(((ZSymbol(k, n), 1),), rational(0))
            for k in (ZKind.ZFULL, ZKind.ZTWISTED))
    kind, coeff, other = {"Zfull": (ZKind.ZFULL, c, d),
                          "Ztwisted": (ZKind.ZTWISTED, d, c),
                          "Zplus": (ZKind.ZPLUS, c + d, c - d),
                          "Zminus": (ZKind.ZMINUS, c - d, c + d)}[cls]
    sym = ZSymbol(kind, n)
    if coeff.is_zero():
        raise AssertionError(f"expected {sym!r} in lhs")
    if terms or not other.is_zero():
        raise AssertionError(f"lhs not proportional to {sym!r}")
    return SymPoly.symbol(sym), identity.rhs.scaled(coeff.inverse())


def autonomous_full_identity(N: int, n: int) -> SumRuleIdentity:
    """The order-n identity (n a positive multiple of L_N) with full zeta
    values only on both sides: order n of the full pass, solved for Z(n)."""
    L = symmetry_order(N)
    if n <= 0 or n % L:
        raise NotAMultipleError(f"n={n} is not a positive multiple of L={L}")
    return _restated(_derive(N, n, ZKind.ZFULL)[n])


def autonomous_full_identities(N: int, n_max: int) -> list:
    """The restatements at every multiple of L_N up to n_max, from one full
    pass; one whose twisted values survive (N=2, where ZP(1) = pi/4 is a
    constant) is left out."""
    L = symmetry_order(N)
    if n_max < L:
        return []
    out = []
    for ident in _derive(N, n_max - n_max % L, ZKind.ZFULL)[L::L]:
        try:
            out.append(_restated(ident))
        except EliminationError:
            pass
    return out


def _restated(ident: SumRuleIdentity) -> SumRuleIdentity:
    """A full-pass identity of order kL solved for Z(kL); a twisted value
    that nothing fixes (ZP(1) = pi/4 for N=2) raises EliminationError."""
    sym, rhs = solved_form(ident)
    bad = sorted((s for s in rhs.symbols() if s.kind is not ZKind.ZFULL),
                 key=ZSymbol.sort_key)
    if bad:
        raise EliminationError(f"N={ident.N} n={ident.order}: twisted "
                               f"symbols {bad} survived elimination")
    return SumRuleIdentity(ident.N, ident.order, sym, rhs, "Zfull")
