"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A CycloNumber is a rational linear combination of powers of the primitive
m-th root of unity zeta_m = exp(2*pi*i/m), stored in the power basis
zeta^0 ... zeta^{phi(m)-1} reduced modulo the m-th cyclotomic polynomial,
as integer numerators over one positive common denominator in lowest terms.
Elements of different conductors combine by lifting to the least common
conductor (zeta_m = zeta_M^{M/m} when m | M); a rational (conductor 1)
operand combines with any element directly, without a lift.

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

from .precision import working, rounded


@lru_cache(maxsize=None)
def _min_poly_coeffs(m: int) -> tuple:
    """Integer coefficients (constant first) of the m-th cyclotomic
    polynomial: x^m - 1 divided exactly by the monic Phi_d for every proper
    divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = _min_poly_coeffs(d)
            k = len(den) - 1
            quot = [0] * (len(num) - k)
            for i in range(len(num) - 1, k - 1, -1):
                c = quot[i - k] = num[i]
                if c:
                    for j, dj in enumerate(den):
                        num[i - k + j] -= c * dj
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _degree(m: int) -> int:
    return len(_min_poly_coeffs(m)) - 1


def _mobius(n: int) -> int:
    """mu(n) = sum of the primitive n-th roots of unity = minus the
    next-to-leading coefficient of Phi_n."""
    return -_min_poly_coeffs(n)[-2]


@lru_cache(maxsize=None)
def _trace_weight(m: int, k: int) -> Fraction:
    """(1/phi(m)) Tr(zeta_m^k) = mu(m/g) / phi(m/g) with g = gcd(k, m)."""
    d = m // math.gcd(k, m)
    return Fraction(_mobius(d), _degree(d))


def _reduce(vec: list, m: int) -> list:
    """Reduce an integer coefficient list (powers of zeta_m, constant first)
    in place modulo the cyclotomic polynomial; return exactly phi(m)
    coefficients."""
    phi = _degree(m)
    if len(vec) > phi:
        modulus = _min_poly_coeffs(m)
        for i in range(len(vec) - 1, phi - 1, -1):
            c = vec[i]
            if c:
                # subtract c * x^{i-phi} * Phi_m(x)  (Phi_m is monic)
                shift = i - phi
                for j, mj in enumerate(modulus):
                    if mj:
                        vec[shift + j] -= c * mj
        del vec[phi:]
    vec.extend([0] * (phi - len(vec)))
    return vec


_set = object.__setattr__


def _make(m: int, num: list, den: int) -> "CycloNumber":
    """CycloNumber from reduced integer numerators over den > 0, brought to
    lowest terms (all-zero numerators get den = 1)."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    x = object.__new__(CycloNumber)
    _set(x, "m", m)
    _set(x, "num", tuple(num))
    _set(x, "den", den)
    return x


class CycloNumber:
    """Immutable element of Q(zeta_m) in canonical (reduced) form: `num`
    holds phi(m) integer numerators over the positive denominator `den`."""

    __slots__ = ("m", "num", "den")

    def __new__(cls, m: int, coeffs):
        if m < 1:
            raise ValueError("conductor must be positive")
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return _make(m, _reduce(num, m), den)

    def __setattr__(self, *a):
        raise AttributeError("CycloNumber is immutable")

    def __reduce__(self):
        return _make, (self.m, self.num, self.den)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(q, m: int = 1) -> "CycloNumber":
        q = Fraction(q)
        return _make(m, [q.numerator] + [0] * (_degree(m) - 1), q.denominator)

    @staticmethod
    def zeta(m: int, power: int = 1) -> "CycloNumber":
        """zeta_m^power."""
        power %= m
        vec = [0] * (power + 1)
        vec[power] = 1
        return _make(m, _reduce(vec, m), 1)

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def lift(self, M: int) -> "CycloNumber":
        """Re-express in the larger field Q(zeta_M); requires m | M."""
        if M % self.m:
            raise ValueError(f"cannot lift conductor {self.m} into {M}")
        step = M // self.m
        vec = [0] * (_degree(self.m) * step + 1)
        for i, c in enumerate(self.num):
            vec[i * step] = c
        return _make(M, _reduce(vec, M), self.den)

    def _common(self, other: "CycloNumber"):
        if self.m == other.m:
            return self, other
        M = math.lcm(self.m, other.m)
        return self.lift(M), other.lift(M)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    def _galois(self, k: int) -> "CycloNumber":
        """Image under the field automorphism zeta -> zeta^k (gcd(k, m) = 1)."""
        vec = [0] * self.m
        for i, c in enumerate(self.num):
            vec[i * k % self.m] += c
        return _make(self.m, _reduce(vec, self.m), self.den)

    def conjugate(self) -> "CycloNumber":
        """Complex conjugate: zeta -> zeta^{-1}."""
        return self._galois(-1)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, CycloNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNumber.from_rational(x, 1)
        return NotImplemented

    def __add__(self, other):
        other = CycloNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.m == 1 or self.m == 1:
            a, b = (self, other) if other.m == 1 else (other, self)
            # a rational b shifts only the constant coordinate of a
            num = [c * b.den for c in a.num]
            num[0] += b.num[0] * a.den
            return _make(a.m, num, a.den * b.den)
        a, b = self._common(other)
        da, db = a.den, b.den
        return _make(a.m, [x * db + y * da for x, y in zip(a.num, b.num)],
                     da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.m, [-c for c in self.num], self.den)

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
        if other.m == 1 or self.m == 1:
            a, b = (self, other) if other.m == 1 else (other, self)
            q = b.num[0]
            return _make(a.m, [c * q for c in a.num], a.den * b.den)
        a, b = self._common(other)
        bn = b.num
        out = [0] * (len(a.num) + len(bn) - 1)
        for i, ci in enumerate(a.num):
            if ci:
                for j, cj in enumerate(bn):
                    if cj:
                        out[i + j] += ci * cj
        return _make(a.m, _reduce(out, a.m), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # 1/x = (product of the other Galois conjugates of x) / norm(x); a
        # real x is fixed by k -> -k, so conjugates by k < m/2 give its
        # (rational) norm over the real subfield
        rest = CycloNumber.from_rational(1, self.m)
        top = self.m // 2 + 1 if self == self.conjugate() else self.m
        for k in range(2, top):
            if math.gcd(k, self.m) == 1:
                rest = rest * self._galois(k)
        return rest * (1 / (self * rest).rational_value())

    def __truediv__(self, other):
        other = CycloNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycloNumber._coerce(other) * self.inverse()

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
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # the normalized trace (1/phi(m)) Tr(x) does not depend on the
        # conductor x is written in, and equals x when x is rational
        return hash(sum(c * _trace_weight(self.m, i)
                        for i, c in enumerate(self.num) if c)
                    / Fraction(self.den))

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


def exp_i_pi_frac(num: int, den: int) -> CycloNumber:
    """exp(i*pi*num/den) = zeta_{2*den}^{num} exactly."""
    return CycloNumber.zeta(2 * den, num)


def cos_pi_frac(num: int, den: int) -> CycloNumber:
    """cos(pi*num/den) as an exact cyclotomic element."""
    z = exp_i_pi_frac(num, den)
    return (z + z.conjugate()) * Fraction(1, 2)


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
