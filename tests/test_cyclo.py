"""Field-axiom and embedding tests for the cyclotomic arithmetic kernel."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osczeta.cyclo import (
    CycloNumber,
    cos_pi_frac,
    exp_i_pi_frac,
    golden_ratio,
    rational,
    sqrt2,
    sqrt5,
)
from osczeta.sympoly import SymPoly, ZKind, ZSymbol

CONDUCTORS = (6, 8, 10, 16)


def elements(m):
    coeff = st.integers(min_value=-5, max_value=5)
    return st.lists(coeff, min_size=1, max_size=4).map(
        lambda cs: CycloNumber(m, [Fraction(c) for c in cs]))


@st.composite
def triples(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    strat = elements(m)
    return draw(strat), draw(strat), draw(strat)


@given(triples())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + rational(0) == a
    assert a * rational(1) == a
    assert (a - a).is_zero()


@given(triples())
@settings(max_examples=40, deadline=None)
def test_multiplicative_inverse(abc):
    a, _, _ = abc
    # a + conj(a) is real, and a real inverse takes half the conjugates
    for x in (a, a + a.conjugate()):
        if not x.is_zero():
            assert x * x.inverse() == rational(1)
            assert (rational(1) / x) * x == rational(1)


@given(triples())
@settings(max_examples=30, deadline=None)
def test_embedding_is_a_homomorphism(abc):
    a, b, _ = abc
    with mp.workdps(40):
        lhs = (a * b).embed(30)
        rhs = a.embed(30) * b.embed(30)
        assert abs(lhs - rhs) < mp.mpf("1e-25")
        assert abs((a + b).embed(30) - (a.embed(30) + b.embed(30))) \
            < mp.mpf("1e-25")


def test_root_of_unity_order():
    z = CycloNumber.zeta(12)
    assert z ** 12 == rational(1)
    assert z ** 6 == rational(-1)
    assert not (z ** 4 == rational(1))


def test_conductor_lifting():
    # zeta_3 viewed in Q(zeta_12) is still the same number
    z3 = CycloNumber.zeta(3)
    assert z3.lift(12) == z3
    assert z3 + CycloNumber.zeta(4) == CycloNumber.zeta(4) + z3


def test_conjugation():
    z = CycloNumber.zeta(16, 3)
    assert z * z.conjugate() == rational(1)
    with mp.workdps(30):
        assert abs(z.conjugate().embed(25) - mp.conj(z.embed(25))) \
            < mp.mpf("1e-20")


def test_named_surds():
    assert sqrt2() * sqrt2() == rational(2)
    assert sqrt5() * sqrt5() == rational(5)
    phi = golden_ratio()
    assert phi * phi == phi + 1
    assert CycloNumber.zeta(4, 1) ** 2 == rational(-1)


def test_trigonometric_constructors():
    # cos(pi/5) = phi/2, and exp identities
    assert cos_pi_frac(1, 5) * 2 == golden_ratio()
    z = exp_i_pi_frac(3, 8)
    assert z ** 16 == rational(1)
    with mp.workdps(30):
        assert abs(cos_pi_frac(2, 7).embed(25).real
                   - mp.cos(2 * mp.pi / 7)) < mp.mpf("1e-20")


def test_rational_value():
    assert (sqrt2() ** 2).rational_value() == Fraction(2)
    with pytest.raises(ValueError):
        sqrt2().rational_value()


def test_text_canonical_and_stable():
    a = sqrt2() + rational(Fraction(1, 3))
    assert a.text() == (sqrt2() + rational(Fraction(1, 3))).text()
    assert rational(0).text() == "0"


@st.composite
def lifted_pairs(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    x = draw(elements(m))
    return x, x.lift(m * draw(st.integers(min_value=1, max_value=4)))


@given(lifted_pairs(), elements(8))
@settings(max_examples=60, deadline=None)
def test_equal_elements_hash_equal(pair, other):
    # equality crosses conductors, so the hash must not depend on them
    x, lifted = pair
    assert x == lifted and hash(x) == hash(lifted)
    if x == other:
        assert hash(x) == hash(other)

    def poly(c):
        return SymPoly.symbol(ZSymbol(ZKind.ZFULL, 1), c) + c

    assert poly(x) == poly(lifted) and hash(poly(x)) == hash(poly(lifted))


@given(lifted_pairs(), st.fractions(max_denominator=12),
       st.sampled_from(list(ZKind)), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_polys_equal_to_their_coerced_operands_hash_equal(pair, q, kind, n):
    # SymPoly's __eq__ coerces numbers and symbols, so its hash must agree
    x, lifted = pair
    s = ZSymbol(kind, n)
    cases = [(SymPoly.constant(x), x), (SymPoly.constant(x), lifted),
             (SymPoly.constant(q), q), (SymPoly.constant(rational(q)), q),
             (SymPoly.constant(q), rational(q)),
             (SymPoly.constant(q.numerator), q.numerator),
             (SymPoly.zero(), 0), (SymPoly.symbol(s), s)]
    for poly, other in cases:
        assert poly == other and other == poly
        assert hash(poly) == hash(other)
        assert len({poly, other}) == len({other, poly}) == 1
    assert SymPoly.symbol(s, 2) != s and SymPoly.symbol(s) + 1 != s


def test_hash_across_conductors_and_rationals():
    assert CycloNumber.zeta(4, 1) == CycloNumber.zeta(8, 2)
    assert hash(CycloNumber.zeta(4, 1)) == hash(CycloNumber.zeta(8, 2))
    assert len({CycloNumber.zeta(4, 1), CycloNumber.zeta(8, 2)}) == 1
    # rational elements keep the hash of the rational they equal
    assert hash(rational(Fraction(3, 7)).lift(12)) == hash(Fraction(3, 7))
    assert hash(sqrt2() ** 2) == hash(2)


def test_cyclotomic_polynomials_and_mobius_match_sympy():
    import sympy

    from osczeta.cyclo import _min_poly_coeffs, _mobius

    x = sympy.Symbol("x")
    for m in range(1, 121):
        poly = sympy.Poly(sympy.cyclotomic_poly(m, x), x)
        assert _min_poly_coeffs(m) == tuple(
            int(c) for c in reversed(poly.all_coeffs()))
        assert _mobius(m) == int(sympy.mobius(m))


def test_cli_import_does_not_load_sympy():
    import subprocess
    import sys

    probe = "import sys, osczeta.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


@given(triples())
@settings(max_examples=40, deadline=None)
def test_canonical_integer_form(abc):
    import math

    a, b, _ = abc
    for x in (a * b, a + b, a * Fraction(3, 4), a.conjugate()):
        assert x.den > 0 and len(x.num) == len(x.coeffs)
        assert math.gcd(x.den, *x.num) == 1
        assert x == CycloNumber(x.m, x.coeffs)


def test_rational_operand_keeps_conductor():
    z = CycloNumber.zeta(10, 3)
    q = rational(Fraction(-2, 7))
    for x in (z * q, q * z, z + q, q + z, z - q, z * 5, z / 2):
        assert x.m == 10
    assert (z * q).coeffs == tuple(c * Fraction(-2, 7) for c in z.coeffs)
    assert (q + q).m == 1 and (q * q) == rational(Fraction(4, 49))
    # a non-rational operand of another conductor still lifts both
    assert (z * CycloNumber.zeta(4)).m == 20
