"""Multivariate polynomials in zeta-value symbols over cyclotomic fields,
and truncated power series with such polynomials as coefficients.

A ZSymbol names one abstract spectral-zeta quantity (a full, twisted, or
parity-restricted value at integer order, or a derivative at zero).  SymPoly
is an exact multivariate polynomial in these symbols with CycloNumber
coefficients; TruncSeries is a polynomial-coefficient power series in an
expansion variable, truncated at a fixed order with exact arithmetic.  The
sum-rule derivation runs its own order-by-order exp recurrence on SymPoly
terms, so nothing in the package calls TruncSeries; perfbench/spans.py
still times its methods by name.
"""

from __future__ import annotations

import enum
from fractions import Fraction

import mpmath

from .cyclo import CycloNumber, rational
from .errors import InsufficientTermsError
from .precision import rounded, working


class ZKind(enum.Enum):
    """Which zeta-family a symbol refers to; value gives the sort order."""
    ZFULL = "Z"
    ZTWISTED = "ZP"
    ZPLUS = "Z+"
    ZMINUS = "Z-"
    ZPLUS_PRIME0 = "Z+'0"
    ZMINUS_PRIME0 = "Z-'0"


_KIND_ORDER = {k: i for i, k in enumerate(ZKind)}


class ZSymbol:
    """An abstract zeta value: kind plus integer order n >= 0.

    The Prime0 kinds are the derivative-at-zero symbols; their order is
    conventionally 0 and their weighted degree is 0.
    """

    __slots__ = ("kind", "order", "_key", "_hash")

    def __init__(self, kind: ZKind, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)
        # symbols key every monomial dict, so sort key and hash are kept
        object.__setattr__(self, "_key", (_KIND_ORDER[kind], order))
        object.__setattr__(self, "_hash", hash((kind, order)))

    def __setattr__(self, *a):
        raise AttributeError("ZSymbol is immutable")

    def __reduce__(self):
        return ZSymbol, (self.kind, self.order)

    @property
    def weight(self) -> int:
        return self.order

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        if not isinstance(other, ZSymbol):
            return NotImplemented       # SymPoly compares to its symbols
        return self.kind is other.kind and self.order == other.order

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.kind.value}({self.order})"


# A monomial is a frozenset-like canonical tuple of (ZSymbol, exponent)
# pairs sorted by symbol sort key.  The empty tuple is the constant monomial.

def _mono_mul(a: tuple, b: tuple) -> tuple:
    """Product of two monomials: one merge of the sorted factor lists."""
    if not a or not b:
        return a or b
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        ka, kb = a[i][0]._key, b[j][0]._key
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _mono_weight(mono: tuple) -> int:
    return sum(sym.weight * e for sym, e in mono)


def _as_coeff(c) -> CycloNumber:
    if isinstance(c, CycloNumber):
        return c
    return rational(Fraction(c))


def _add_into(acc: dict, terms: dict) -> None:
    """acc += terms, in place."""
    for mono, c in terms.items():
        prev = acc.get(mono)
        acc[mono] = c if prev is None else prev + c


def _mul_into(acc: dict, ta: dict, tb: dict, scale: CycloNumber = None) -> None:
    """acc += scale * (ta * tb), in place."""
    for ma, ca in ta.items():
        if scale is not None:
            ca = ca * scale
        for mb, cb in tb.items():
            m = _mono_mul(ma, mb)
            c = ca * cb
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c


class SymPoly:
    """Exact polynomial in ZSymbols with CycloNumber coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict monomial -> CycloNumber, zero coefficients dropped
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = _as_coeff(c)
                if not c.is_zero():
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("SymPoly is immutable")

    def __reduce__(self):
        return SymPoly, (self.terms,)

    # -- construction --------------------------------------------------------

    @staticmethod
    def zero() -> "SymPoly":
        return SymPoly()

    @staticmethod
    def constant(c) -> "SymPoly":
        return SymPoly({(): _as_coeff(c)})

    @staticmethod
    def symbol(sym: ZSymbol, coeff=1) -> "SymPoly":
        return SymPoly({((sym, 1),): _as_coeff(coeff)})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self):
        out = set()
        for mono in self.terms:
            for sym, _ in mono:
                out.add(sym)
        return out

    def is_homogeneous(self, weight: int) -> bool:
        return all(_mono_weight(m) == weight for m in self.terms)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, SymPoly):
            return x
        if isinstance(x, (int, Fraction, CycloNumber)):
            return SymPoly.constant(x)
        if isinstance(x, ZSymbol):
            return SymPoly.symbol(x)
        return NotImplemented

    def __add__(self, other):
        other = SymPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        _add_into(terms, other.terms)
        return SymPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = SymPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = SymPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        _mul_into(terms, self.terms, other.terms)
        return SymPoly(terms)

    __rmul__ = __mul__

    def scaled(self, c) -> "SymPoly":
        c = _as_coeff(c)
        return SymPoly({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other):
        other = SymPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # as __eq__ coerces: a constant hashes as its coefficient, a bare
        # unit symbol as its ZSymbol
        terms = self.terms
        if not terms.keys() - {()}:
            return hash(terms.get((), 0))
        if len(terms) == 1:
            (mono, c), = terms.items()
            if len(mono) == 1 and mono[0][1] == 1 and c == 1:
                return hash(mono[0][0])
        return hash(frozenset(terms.items()))

    # -- substitution / evaluation -------------------------------------------

    def substitute(self, mapping: dict) -> "SymPoly":
        """Replace each ZSymbol key of mapping by a SymPoly value."""
        powers = {}    # sym -> images of sym^1, sym^2, ..., each built once
        acc = {}
        for mono, c in self.terms.items():
            # unmapped symbols ride along in the starting monomial
            factor = SymPoly({tuple(p for p in mono if p[0] not in mapping): c})
            for sym, e in mono:
                if sym in mapping:
                    pw = powers.setdefault(sym, [SymPoly._coerce(mapping[sym])])
                    while len(pw) < e:
                        pw.append(pw[-1] * pw[0])
                    factor = factor * pw[e - 1]
            _add_into(acc, factor.terms)
        return SymPoly(acc)

    def eval_numeric(self, values: dict, dps: int = 50):
        """Numeric value given a ZSymbol -> number mapping (mpf/mpc)."""
        with working(dps):
            acc = mpmath.mpc(0)
            for mono, c in self.terms.items():
                v = c.embed(dps + 10)
                for sym, e in mono:
                    if sym not in values:
                        raise KeyError(f"no numeric value for {sym!r}")
                    v *= mpmath.mpmathify(values[sym]) ** e
                acc += v
        return rounded(acc, dps)

    # -- output --------------------------------------------------------------

    def text(self) -> str:
        """Canonical serialization: monomials sorted, exact coefficients."""
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda kv: (_mono_weight(kv[0]),
                                       [ (s.sort_key(), e) for s, e in kv[0] ]))
        parts = []
        for mono, c in items:
            mono_txt = "*".join(
                f"{sym!r}" + (f"^{e}" if e > 1 else "")
                for sym, e in mono)
            ctxt = c.text()
            if "+" in ctxt or "*" in ctxt:
                ctxt = f"({ctxt})"
            parts.append(ctxt if not mono_txt else f"{ctxt}*{mono_txt}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SymPoly[{self.text()}]"


class TruncSeries:
    """Power series sum_{n<=M} c_n * x^n with SymPoly coefficients,
    truncated exactly at order M."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [SymPoly.zero()] * (order + 1)
        if coeffs is not None:
            for i, c in enumerate(coeffs[: order + 1]):
                cs[i] = SymPoly._coerce(c)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    def __reduce__(self):
        return TruncSeries, (self.order, self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if other.order != self.order:
            raise ValueError("mismatched truncation orders")
        M = self.order
        out = []
        for n in range(M + 1):
            acc = {}
            for i in range(n + 1):
                _mul_into(acc, self.coeffs[i].terms, other.coeffs[n - i].terms)
            out.append(SymPoly(acc))
        return TruncSeries(M, out)

    __rmul__ = __mul__

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term, by the recurrence
        n*b_n = sum_{k=1}^{n} k * a_k * b_{n-k}."""
        if not self.coeffs[0].is_zero():
            raise ValueError("exp requires zero constant term")
        M = self.order
        b = [SymPoly.constant(1)]
        for n in range(1, M + 1):
            acc = {}
            for k in range(1, n + 1):
                _mul_into(acc, self.coeffs[k].terms, b[n - k].terms,
                          rational(Fraction(k, n)))
            b.append(SymPoly(acc))
        return TruncSeries(M, b)

    def log(self) -> "TruncSeries":
        """log of a series with constant term 1 (inverse of exp)."""
        if self.coeffs[0] != SymPoly.constant(1):
            raise ValueError("log requires constant term 1")
        M = self.order
        a = [SymPoly.zero()]
        for n in range(1, M + 1):
            acc = dict(self.coeffs[n].terms)
            for k in range(1, n):
                _mul_into(acc, a[k].terms, self.coeffs[n - k].terms,
                          rational(Fraction(-k, n)))
            a.append(SymPoly(acc))
        return TruncSeries(M, a)

    def coefficient(self, n: int) -> SymPoly:
        if n > self.order:
            raise InsufficientTermsError(
                f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __repr__(self):
        parts = [f"({c.text()})*x^{n}" for n, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        return "TruncSeries[" + (" + ".join(parts) if parts else "0") + "]"
