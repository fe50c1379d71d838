"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A CycloNumber is a rational linear combination of powers of the primitive
m-th root of unity zeta_m = exp(2*pi*i/m), stored in the power basis
zeta^0 ... zeta^{phi(m)-1} reduced modulo the m-th cyclotomic polynomial.
Elements of different conductors combine by lifting to the least common
conductor (zeta_m = zeta_M^{M/m} when m | M).

These fields house every coefficient appearing in the sum-rule layer:
exp(i*nu*pi) with nu = 1/(N+2) is zeta_{2(N+2)}, and the real surds that
show up after simplification (sqrt(2), sqrt(5), the golden ratio) are
sums of root-of-unity powers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import sympy

from .precision import working, rounded


@lru_cache(maxsize=None)
def _min_poly_coeffs(m: int) -> tuple:
    """Coefficients (constant first) of the m-th cyclotomic polynomial."""
    poly = sympy.cyclotomic_poly(m, sympy.Symbol("x"))
    coeffs = sympy.Poly(poly, sympy.Symbol("x")).all_coeffs()[::-1]
    return tuple(Fraction(int(c)) for c in coeffs)


@lru_cache(maxsize=None)
def _degree(m: int) -> int:
    return len(_min_poly_coeffs(m)) - 1


@lru_cache(maxsize=None)
def _trace_weight(m: int, k: int) -> Fraction:
    """(1/phi(m)) Tr(zeta_m^k) = mu(m/g) / phi(m/g) with g = gcd(k, m)."""
    d = m // math.gcd(k, m)
    return Fraction(int(sympy.mobius(d)), _degree(d))


def _reduce(vec: list, m: int) -> tuple:
    """Reduce a coefficient list (powers of zeta_m, constant first) modulo
    the cyclotomic polynomial; return exactly phi(m) coefficients."""
    phi = _degree(m)
    modulus = _min_poly_coeffs(m)
    vec = list(vec)
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            # subtract c * x^{i-phi} * Phi_m(x)  (Phi_m is monic)
            shift = i - phi
            for j, mj in enumerate(modulus):
                vec[shift + j] -= c * mj
        vec.pop()
    while len(vec) < phi:
        vec.append(Fraction(0))
    return tuple(Fraction(c) for c in vec)


def _poly_divmod(num: list, den: list):
    """Quotient and remainder of exact polynomial division (constant first)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / lead
        if c:
            q[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return q, num


class CycloNumber:
    """Immutable element of Q(zeta_m) in canonical (reduced) form."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        if m < 1:
            raise ValueError("conductor must be positive")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", _reduce(list(coeffs), m))

    def __setattr__(self, *a):
        raise AttributeError("CycloNumber is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(q, m: int = 1) -> "CycloNumber":
        vec = [Fraction(q)] + [Fraction(0)] * (_degree(m) - 1)
        return CycloNumber(m, vec)

    @staticmethod
    def zeta(m: int, power: int = 1) -> "CycloNumber":
        """zeta_m^power."""
        power %= m
        vec = [Fraction(0)] * (power + 1)
        vec[power] = Fraction(1)
        return CycloNumber(m, vec)

    # -- structure -----------------------------------------------------------

    def lift(self, M: int) -> "CycloNumber":
        """Re-express in the larger field Q(zeta_M); requires m | M."""
        if M % self.m:
            raise ValueError(f"cannot lift conductor {self.m} into {M}")
        step = M // self.m
        vec = [Fraction(0)] * (_degree(self.m) * step + 1)
        for i, c in enumerate(self.coeffs):
            vec[i * step] += c
        return CycloNumber(M, vec)

    def _common(self, other: "CycloNumber"):
        if self.m == other.m:
            return self, other
        M = math.lcm(self.m, other.m)
        return self.lift(M), other.lift(M)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def conjugate(self) -> "CycloNumber":
        """Complex conjugate: zeta -> zeta^{-1}."""
        vec = [Fraction(0)] * self.m
        for i, c in enumerate(self.coeffs):
            vec[(-i) % self.m] += c
        return CycloNumber(self.m, vec)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x, m_hint: int = 1):
        if isinstance(x, CycloNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNumber.from_rational(x, 1)
        return NotImplemented

    def __add__(self, other):
        other = CycloNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return CycloNumber(a.m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.m, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = CycloNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = CycloNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        out[i + j] += ci * cj
        return CycloNumber(a.m, out)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CycloNumber.from_rational(1 / self.coeffs[0], self.m)
        # extended Euclid: s*a + t*Phi_m = gcd = const, so a^{-1} = s/const
        a = list(self.coeffs)
        b = list(_min_poly_coeffs(self.m))
        s0, s1 = [Fraction(1)], [Fraction(0)]
        r0, r1 = a, b
        while any(c != 0 for c in r1) and len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            # s_{k+1} = s_{k-1} - q*s_k
            prod = [Fraction(0)] * (len(q) + len(s1) - 1 if s1 else 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        prod[i + j] += qi * sj
            new_s = [Fraction(0)] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(prod):
                new_s[i] -= c
            s0, s1 = s1, new_s
        if not r1 or all(c == 0 for c in r1):
            raise ZeroDivisionError("element shares a factor with the modulus")
        const = r1[0]
        inv_vec = [c / const for c in s1]
        return CycloNumber(self.m, inv_vec)

    def __truediv__(self, other):
        other = CycloNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CycloNumber._coerce(other, self.m) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycloNumber.from_rational(1, self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        other = CycloNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # the normalized trace (1/phi(m)) Tr(x) does not depend on the
        # conductor x is written in, and equals x when x is rational
        return hash(sum(c * _trace_weight(self.m, i)
                        for i, c in enumerate(self.coeffs) if c))

    # -- output --------------------------------------------------------------

    def embed(self, dps: int = 50) -> mpmath.mpc:
        """Numeric value as a complex number at dps digits."""
        with working(dps):
            z = mpmath.exp(2j * mpmath.pi / self.m)
            acc = mpmath.mpc(0)
            p = mpmath.mpc(1)
            for c in self.coeffs:
                if c:
                    acc += (mpmath.mpf(c.numerator) / c.denominator) * p
                p *= z
        return rounded(acc, dps)

    def embed_real(self, dps: int = 50) -> mpmath.mpf:
        """Numeric value assuming the element is real; checks the imaginary
        part is at rounding level."""
        z = self.embed(dps + 10)
        scale = max(abs(z), mpmath.mpf(1))
        if abs(z.imag) > scale * mpmath.mpf(10) ** (-dps - 5):
            raise ValueError("element is not real")
        return rounded(z.real, dps)

    def __repr__(self):
        return f"CycloNumber({self.m}, {self.text()})"

    def text(self) -> str:
        """Canonical text form: sorted powers, exact rationals."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            coeff = f"{c.numerator}" if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            if i == 0:
                parts.append(coeff)
            elif i == 1:
                parts.append(f"{coeff}*z{self.m}")
            else:
                parts.append(f"{coeff}*z{self.m}^{i}")
        return " + ".join(parts) if parts else "0"


# --------------------------------------------------------------------------
# Named constructions
# --------------------------------------------------------------------------

def rational(q) -> CycloNumber:
    return CycloNumber.from_rational(Fraction(q))


def imaginary_unit() -> CycloNumber:
    """i = zeta_4."""
    return CycloNumber.zeta(4, 1)


def exp_i_pi_frac(num: int, den: int) -> CycloNumber:
    """exp(i*pi*num/den) = zeta_{2*den}^{num} exactly."""
    return CycloNumber.zeta(2 * den, num)


def cos_pi_frac(num: int, den: int) -> CycloNumber:
    """cos(pi*num/den) as an exact cyclotomic element."""
    z = exp_i_pi_frac(num, den)
    return (z + z.conjugate()) * Fraction(1, 2)


def two_i_sin_pi_frac(num: int, den: int) -> CycloNumber:
    """2i*sin(pi*num/den) = zeta - zeta^{-1}; stays in Q(zeta_{2 den})."""
    z = exp_i_pi_frac(num, den)
    return z - z.conjugate()


def sqrt2() -> CycloNumber:
    """sqrt(2) = zeta_8 + zeta_8^{-1}."""
    z = CycloNumber.zeta(8, 1)
    return z + z.conjugate()


def sqrt5() -> CycloNumber:
    """sqrt(5) = 2*(zeta_5 + zeta_5^{-1}) + 1."""
    z = CycloNumber.zeta(5, 1)
    return 2 * (z + z.conjugate()) + 1


def golden_ratio() -> CycloNumber:
    """phi = (1 + sqrt 5)/2 = 2*cos(pi/5)."""
    return (sqrt5() + 1) * Fraction(1, 2)
