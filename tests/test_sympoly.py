"""Tests for symbolic polynomials and exact truncated series."""

from fractions import Fraction

import mpmath as mp
import pytest

from osczeta.cyclo import rational, sqrt2
from osczeta.errors import InsufficientTermsError
from osczeta.sympoly import SymPoly, TruncSeries, ZKind, ZSymbol

Z1 = ZSymbol(ZKind.ZFULL, 1)
Z2 = ZSymbol(ZKind.ZFULL, 2)
T1 = ZSymbol(ZKind.ZTWISTED, 1)


class TestZSymbol:
    def test_immutability_and_hash(self):
        s = ZSymbol(ZKind.ZPLUS, 3)
        with pytest.raises(AttributeError):
            s.order = 4
        assert s == ZSymbol(ZKind.ZPLUS, 3)
        assert hash(s) == hash(ZSymbol(ZKind.ZPLUS, 3))
        assert s != ZSymbol(ZKind.ZMINUS, 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ZSymbol(ZKind.ZFULL, -1)


class TestSymPoly:
    def test_ring_identities(self):
        p = SymPoly.symbol(Z1) + SymPoly.symbol(T1, Fraction(1, 2))
        q = SymPoly.symbol(Z2, 3) - SymPoly.constant(1)
        assert p * q == q * p
        assert p * (q + q) == p * q + p * q
        assert (p - p).is_zero()
        assert p * SymPoly.constant(1) == p

    def test_binomial_square(self):
        a, b = SymPoly.symbol(Z1), SymPoly.symbol(T1)
        assert (a + b) * (a + b) == a * a + a * b * 2 + b * b

    def test_homogeneity(self):
        p = SymPoly.symbol(Z2) + SymPoly.symbol(Z1) * SymPoly.symbol(T1)
        assert p.is_homogeneous(2)
        assert not (p + SymPoly.symbol(Z1)).is_homogeneous(2)

    def test_substitute(self):
        p = SymPoly.symbol(Z2) + SymPoly.symbol(Z1) * SymPoly.symbol(Z1)
        # Z(2) -> Z(1)^2 collapses the polynomial to 2 Z(1)^2
        sub = {Z2: SymPoly.symbol(Z1) * SymPoly.symbol(Z1)}
        expect = SymPoly.symbol(Z1) * SymPoly.symbol(Z1) * 2
        assert p.substitute(sub) == expect

    def test_cyclotomic_coefficients(self):
        p = SymPoly.symbol(Z1, sqrt2())
        assert p * p == SymPoly.symbol(Z1) * SymPoly.symbol(Z1) * rational(2)

    def test_eval_numeric(self):
        p = SymPoly.symbol(Z1, 2) * SymPoly.symbol(T1) - SymPoly.constant(5)
        vals = {Z1: mp.mpf(3), T1: mp.mpf("0.5")}
        v = p.eval_numeric(vals, 30)
        assert abs(v - (-2)) < mp.mpf("1e-25")

    def test_eval_numeric_missing_symbol(self):
        p = SymPoly.symbol(Z1)
        with pytest.raises(KeyError):
            p.eval_numeric({}, 20)

    def test_text_deterministic(self):
        p = SymPoly.symbol(T1) + SymPoly.symbol(Z1, Fraction(2, 3))
        q = SymPoly.symbol(Z1, Fraction(2, 3)) + SymPoly.symbol(T1)
        assert p.text() == q.text()
        assert SymPoly.zero().text() == "0"


class TestTruncSeries:
    def test_exp_log_round_trip(self):
        coeffs = [SymPoly.zero(), SymPoly.symbol(Z1),
                  SymPoly.symbol(Z2, Fraction(-1, 2)), SymPoly.symbol(T1)]
        s = TruncSeries(3, coeffs)
        assert s.exp().log() == s

    def test_exp_matches_expansion(self):
        # exp(a x) = 1 + a x + a^2 x^2/2 + ...
        a = SymPoly.symbol(Z1)
        s = TruncSeries(3, [SymPoly.zero(), a]).exp()
        assert s.coefficient(0) == SymPoly.constant(1)
        assert s.coefficient(1) == a
        assert s.coefficient(2) == a * a * Fraction(1, 2)
        assert s.coefficient(3) == a * a * a * Fraction(1, 6)

    def test_product_truncates_exactly(self):
        a = TruncSeries(2, [1, SymPoly.symbol(Z1)])
        b = TruncSeries(2, [1, SymPoly.symbol(T1)])
        p = a * b
        assert p.coefficient(1) == SymPoly.symbol(Z1) + SymPoly.symbol(T1)
        assert p.coefficient(2) == SymPoly.symbol(Z1) * SymPoly.symbol(T1)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            TruncSeries(2, [1, SymPoly.symbol(Z1)]).exp()

    def test_coefficient_beyond_truncation(self):
        s = TruncSeries(2, [1])
        with pytest.raises(InsufficientTermsError):
            s.coefficient(3)
