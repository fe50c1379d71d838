"""Exact symbolic tests for the derived sum rules.

Every expected right-hand side below is written with exact cyclotomic
coefficients, and comparisons are zero-tolerance SymPoly equalities.
"""

import copy
import pickle
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest

from osczeta.closedforms import closed_form_eval
from osczeta.cyclo import (
    CycloNumber,
    cos_pi_frac,
    golden_ratio,
    imaginary_unit,
    rational,
    sqrt2,
    sqrt5,
    two_i_sin_pi_frac,
)
from osczeta.errors import EliminationError, NotAMultipleError
from osczeta.sumrules import (
    autonomous_full_identity,
    classify_lhs,
    convert_basis,
    derive_sum_rules,
    solved_form,
    symmetry_order,
)
from osczeta.sympoly import SymPoly, TruncSeries, ZKind, ZSymbol


def S(kind, n, coeff=1):
    return SymPoly.symbol(ZSymbol(kind, n), coeff)


def T(n, coeff=1):
    return S(ZKind.ZTWISTED, n, coeff)


def F(n, coeff=1):
    return S(ZKind.ZFULL, n, coeff)


@lru_cache(maxsize=None)
def rules(N, n_max=8):
    return derive_sum_rules(N, n_max)


@lru_cache(maxsize=None)
def solved(N, n):
    return solved_form(rules(N)[n])


def cot_sin(N, n):
    """cot(nu pi) sin(2n nu pi) as an exact cyclotomic number."""
    den = N + 2
    return cos_pi_frac(1, den) * two_i_sin_pi_frac(2 * n, den) \
        / two_i_sin_pi_frac(1, den)


def cos2n(N, n):
    return cos_pi_frac(2 * n, N + 2)


class TestClassification:
    def test_symmetry_order(self):
        assert [symmetry_order(N) for N in (1, 2, 3, 4, 5, 6, 8)] == \
            [3, 2, 5, 3, 7, 4, 5]

    @pytest.mark.parametrize("N, grid", [
        (1, ["Zprime0", "Zplus", "Zminus", "Zfull", "Zplus", "Zminus",
             "Zfull", "Zplus", "Zminus"]),
        (2, ["Zprime0", "Ztwisted", "Zfull", "Ztwisted", "Zfull", "Ztwisted",
             "Zfull", "Ztwisted", "Zfull"]),
        (3, ["Zprime0", "generic", "Zplus", "Zminus", "generic", "Zfull",
             "generic", "Zplus", "Zminus"]),
        (6, ["Zprime0", "generic", "Ztwisted", "generic", "Zfull", "generic",
             "Ztwisted", "generic", "Zfull"]),
    ])
    def test_low_degree_grids(self, N, grid):
        assert [classify_lhs(N, n) for n in range(9)] == grid

    @pytest.mark.parametrize("N", range(1, 11))
    def test_period_is_symmetry_order(self, N):
        L = symmetry_order(N)
        for n in range(1, 3 * L):
            assert classify_lhs(N, n) == classify_lhs(N, n + L)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            classify_lhs(3, -1)


class TestOrderZero:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_exp_of_derivative_is_sin_nu_pi(self, N):
        ident = rules(N)[0]
        assert ident.classification == "Zprime0"
        # sin(nu pi) = (zeta - zeta^-1)/(2i) in Q(zeta_{2(N+2)})
        expect = two_i_sin_pi_frac(1, N + 2) / (imaginary_unit() * 2)
        assert ident.exp_rhs == expect


class TestCanonicalShape:
    """Orders 1-3 reproduce the general identity template: the lhs carries
    coefficients (-cot(nu pi) sin(2n nu pi), cos(2n nu pi)) and the rhs is
    the universal polynomial in lower twisted values."""

    @pytest.mark.parametrize("N", [1, 3, 4, 5, 6])
    def test_order_one_rhs_vanishes(self, N):
        ident = rules(N)[1]
        assert ident.rhs.is_zero()
        assert ident.lhs == T(1, -cot_sin(N, 1)) + F(1, cos2n(N, 1))

    def test_order_one_harmonic_degenerate(self):
        ident = rules(2)[1]
        assert ident.degenerate
        assert ident.lhs.is_zero() and ident.rhs.is_zero()

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_order_two(self, N):
        ident = rules(N)[2]
        assert ident.lhs == T(2, -cot_sin(N, 2)) + F(2, cos2n(N, 2))
        c = cos_pi_frac(1, N + 2)
        assert ident.rhs == (T(1) * T(1)).scaled(c * c * (-4))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_order_three(self, N):
        ident = rules(N)[3]
        assert ident.lhs == T(3, -cot_sin(N, 3)) + F(3, cos2n(N, 3))
        c2 = cos_pi_frac(1, N + 2) ** 2
        expect = (T(1) * T(1) * T(1)).scaled(c2 * c2 * 8) \
            + (T(1) * T(2)).scaled(c2 * cos2n(N, 1) * (-12))
        assert ident.rhs == expect

    @pytest.mark.parametrize("N", [1, 3, 4, 6])
    def test_homogeneity_through_order_eight(self, N):
        for ident in rules(N)[1:]:
            if not ident.degenerate:
                assert ident.rhs.is_homogeneous(ident.order)

    def test_order_two_combination_closed_form(self):
        # the rearranged order-2 identity says the Gamma-quotient value
        # equals 4 cos^2(nu pi) ZP(1)^2; check with the closed-form ZP(1)
        for N in (3, 4, 5, 6):
            with mp.workdps(60):
                zp1 = closed_form_eval("Z1.twisted", N, 55)
                combo = 4 * cos_pi_frac(1, N + 2).embed_real(55) ** 2 \
                    * zp1 ** 2
                ref = closed_form_eval("ZN2", N, 55)
                assert abs(combo - ref) < mp.mpf("1e-45")


class TestEvenTables:
    def test_harmonic_z2_order2(self):
        sym, rhs = solved(2, 2)
        assert sym == F(2)
        assert rhs == (T(1) * T(1)).scaled(2)

    def test_harmonic_twisted_order3(self):
        sym, rhs = solved(2, 3)
        assert sym == T(3)
        assert rhs == (T(1) * T(1) * T(1)).scaled(2)

    def test_quartic_order1_ratio(self):
        # Z_4(1) = 3 Z_4^P(1)
        ident = rules(4)[1]
        c_tw = ident.lhs.terms[((ZSymbol(ZKind.ZTWISTED, 1), 1),)]
        c_full = ident.lhs.terms[((ZSymbol(ZKind.ZFULL, 1), 1),)]
        assert -c_tw / c_full == rational(3)

    def test_sextic_order1_ratio(self):
        # Z_6(1) = (1 + sqrt2) Z_6^P(1)
        ident = rules(6)[1]
        c_tw = ident.lhs.terms[((ZSymbol(ZKind.ZTWISTED, 1), 1),)]
        c_full = ident.lhs.terms[((ZSymbol(ZKind.ZFULL, 1), 1),)]
        assert -c_tw / c_full == sqrt2() + 1

    def test_quartic_order2_combination(self):
        # 3 Z_4^P(2) + Z_4(2) = 6 Z_4^P(1)^2
        ident = rules(4)[2]
        scale = rational(-2)
        assert ident.lhs.scaled(scale) == T(2, 3) + F(2)
        assert ident.rhs.scaled(scale) == (T(1) * T(1)).scaled(6)

    def test_sextic_twisted_order2(self):
        sym, rhs = solved(6, 2)
        assert sym == T(2)
        assert rhs == (T(1) * T(1)).scaled(sqrt2())

    def test_quartic_full_order3(self):
        sym, rhs = solved(4, 3)
        assert sym == F(3)
        expect = (T(1) * T(1) * T(1)).scaled(Fraction(-9, 2)) \
            + (T(1) * T(2)).scaled(Fraction(9, 2))
        assert rhs == expect

    def test_quartic_autonomous_order3(self):
        # Z_4(3) = (1/6) Z_4(1)^3 - (1/2) Z_4(1) Z_4(2)
        ident = autonomous_full_identity(4, 3)
        expect = (F(1) * F(1) * F(1)).scaled(Fraction(1, 6)) \
            + (F(1) * F(2)).scaled(Fraction(-1, 2))
        assert ident.rhs == expect

    def test_sextic_order3_combination(self):
        # (1+sqrt2) Z_6^P(3) + Z_6(3) = -(3sqrt2+4) T1^3 + 3(2+sqrt2) T1 T2
        ident = rules(6)[3]
        c_full = ident.lhs.terms[((ZSymbol(ZKind.ZFULL, 3), 1),)]
        scale = c_full.inverse()
        assert ident.lhs.scaled(scale) == T(3, sqrt2() + 1) + F(3)
        expect = (T(1) * T(1) * T(1)).scaled(-(sqrt2() * 3 + 4)) \
            + (T(1) * T(2)).scaled((sqrt2() + 2) * 3)
        assert ident.rhs.scaled(scale) == expect


class TestOddTables:
    def test_airy_order1_ratio(self):
        # Z_1(1) = -Z_1^P(1)
        ident = rules(1)[1]
        c_tw = ident.lhs.terms[((ZSymbol(ZKind.ZTWISTED, 1), 1),)]
        c_full = ident.lhs.terms[((ZSymbol(ZKind.ZFULL, 1), 1),)]
        assert -c_tw / c_full == rational(-1)

    def test_cubic_order1_ratio(self):
        # Z_3(1) = (2 + sqrt5) Z_3^P(1)
        ident = rules(3)[1]
        c_tw = ident.lhs.terms[((ZSymbol(ZKind.ZTWISTED, 1), 1),)]
        c_full = ident.lhs.terms[((ZSymbol(ZKind.ZFULL, 1), 1),)]
        assert -c_tw / c_full == sqrt5() + 2

    def test_airy_minus_order2(self):
        sym, rhs = solved(1, 2)
        assert sym == S(ZKind.ZMINUS, 2)
        assert rhs == T(1) * T(1)

    def test_cubic_plus_order2(self):
        sym, rhs = solved(3, 2)
        assert sym == S(ZKind.ZPLUS, 2)
        assert rhs == (T(1) * T(1)).scaled(golden_ratio())

    def test_airy_full_order3(self):
        sym, rhs = solved(1, 3)
        assert sym == F(3)
        expect = (T(1) * T(1) * T(1)).scaled(Fraction(1, 2)) \
            + (T(1) * T(2)).scaled(Fraction(3, 2))
        assert rhs == expect

    def test_airy_autonomous_order3(self):
        # Z_1(3) = (5/2) Z_1(1)^3 - (3/2) Z_1(1) Z_1(2)
        ident = autonomous_full_identity(1, 3)
        expect = (F(1) * F(1) * F(1)).scaled(Fraction(5, 2)) \
            + (F(1) * F(2)).scaled(Fraction(-3, 2))
        assert ident.rhs == expect

    def test_cubic_minus_order3(self):
        # Z_3^-(3) = -(phi + 1/2) T1^3 + (3/2) T1 T2
        sym, rhs = solved(3, 3)
        assert sym == S(ZKind.ZMINUS, 3)
        expect = (T(1) * T(1) * T(1)).scaled(
            -(golden_ratio() + Fraction(1, 2))) \
            + (T(1) * T(2)).scaled(Fraction(3, 2))
        assert rhs == expect


class TestHigherIdentities:
    def test_sextic_autonomous_order4(self):
        # Z_6(4) = (1/3)(248 - 175 sqrt2) Z(1)^4 - (4/3)(2 - sqrt2) Z(1) Z(3)
        ident = autonomous_full_identity(6, 4)
        expect = (F(1) * F(1) * F(1) * F(1)).scaled(
            (rational(248) - sqrt2() * 175) * Fraction(1, 3)) \
            + (F(1) * F(3)).scaled(
                (rational(2) - sqrt2()) * Fraction(-4, 3))
        assert ident.rhs == expect

    def test_sextic_twisted_order6_modulo_order2(self):
        # the printed six-term form and the derived one differ by a multiple
        # of the order-2 relation ZP(2) = sqrt2 ZP(1)^2; they agree exactly
        # once that relation is substituted into both sides
        sym, rhs = solved(6, 6)
        assert sym == T(6)
        s2 = sqrt2()
        t1_6 = T(1) * T(1) * T(1) * T(1) * T(1) * T(1)
        printed = (
            t1_6.scaled((rational(210) + s2 * 151) * Fraction(-1, 30))
            + (T(1) * T(1) * T(1) * T(1) * T(2)).scaled(
                (rational(34) + s2 * 23) * Fraction(1, 2))
            + (T(1) * T(1) * T(2) * T(2)).scaled(
                (rational(18) + s2 * 15) * Fraction(-1, 2))
            + (T(2) * T(2) * T(2)).scaled((rational(2) + s2) * Fraction(1, 2))
            + (T(1) * T(1) * T(1) * T(3)).scaled(
                (rational(6) + s2 * 5) * Fraction(-2, 3))
            + (T(1) * T(2) * T(3)).scaled((rational(2) + s2) * 2)
            + (T(3) * T(3)).scaled(s2 * Fraction(-1, 3))
            + (T(1) * T(5)).scaled(s2 * Fraction(6, 5)))
        order2 = {ZSymbol(ZKind.ZTWISTED, 2): (T(1) * T(1)).scaled(s2)}
        assert rhs.substitute(order2) == printed.substitute(order2)

    def test_cubic_autonomous_order5(self):
        # the order-5 full-value identity with golden-ratio coefficients
        ident = autonomous_full_identity(3, 5)
        s5 = sqrt5()
        expect = (
            (F(1) * F(1) * F(1) * F(1) * F(1)).scaled(
                (rational(369163) - s5 * 165095) * Fraction(1, 48))
            + (F(1) * F(1) * F(1) * F(2)).scaled(
                (rational(2503) - s5 * 1119) * Fraction(5, 24))
            + (F(1) * F(2) * F(2)).scaled(
                (rational(23) - s5 * 11) * Fraction(5, 16))
            + (F(1) * F(1) * F(3)).scaled(
                (rational(-31) + s5 * 14) * Fraction(5, 6))
            + (F(2) * F(3)).scaled(Fraction(-5, 6))
            + (F(1) * F(4)).scaled((rational(-7) + s5 * 3) * Fraction(5, 8)))
        assert ident.rhs == expect

    def test_autonomous_rejects_non_multiples(self):
        with pytest.raises(NotAMultipleError):
            autonomous_full_identity(3, 4)
        with pytest.raises(NotAMultipleError):
            autonomous_full_identity(6, 0)


class TestDerivationReuse:
    @pytest.mark.parametrize("N", [1, 3, 4, 6])
    def test_lower_orders_are_a_prefix(self, N):
        M = 8
        full = derive_sum_rules(N, M)
        for n in range(M):
            short = derive_sum_rules(N, n)
            assert short == full[:n + 1]
            assert [i.to_text() for i in short] == \
                [i.to_text() for i in full[:n + 1]]

    @pytest.mark.parametrize("N, n", [(1, 6), (3, 5), (4, 6), (6, 8)])
    def test_elimination_accepts_derived_rules(self, N, n):
        given = autonomous_full_identity(N, n, rules(N))
        assert given == autonomous_full_identity(N, n)
        assert given.to_text() == autonomous_full_identity(N, n).to_text()

    def test_elimination_rejects_short_or_foreign_rules(self):
        with pytest.raises(ValueError):
            autonomous_full_identity(3, 5, rules(3, 4))
        with pytest.raises(ValueError):
            autonomous_full_identity(3, 5, rules(4))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_harmonic_elimination_names_survivors(self, n):
        # ZP(1) = pi/4 is a constant: the degenerate order-1 identity
        # cannot trade it for full values
        with pytest.raises(EliminationError, match=r"ZP\(1\)"):
            autonomous_full_identity(2, n)


class TestDerivationWork:
    @pytest.mark.parametrize("N", range(1, 11))
    def test_derivation_substitutes_nothing(self, N, monkeypatch):
        # each solved Z(n) goes into the series coefficients once, so no
        # later rhs is rewritten
        def refuse(self, mapping):
            raise AssertionError("derive_sum_rules called substitute")

        monkeypatch.setattr(SymPoly, "substitute", refuse)
        assert [i.order for i in derive_sum_rules(N, 10)] == list(range(11))


class TestCopyAndPickle:
    @pytest.mark.parametrize("copier", [
        copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["deepcopy", "pickle"])
    def test_identities_round_trip(self, copier):
        rules = derive_sum_rules(6, 6)
        again = copier(rules)
        assert again == rules
        assert [hash(i) for i in again] == [hash(i) for i in rules]
        assert [i.to_text() for i in again] == [i.to_text() for i in rules]

    def test_series_round_trip(self):
        series = TruncSeries(3, [0, S(ZKind.ZTWISTED, 1,
                                      CycloNumber.zeta(8, 3))]).exp()
        assert pickle.loads(pickle.dumps(series)) == series
        assert copy.deepcopy(series) == series


class TestHarmonicReduction:
    def test_reduces_to_twisted_one_powers(self):
        """Every N=2 identity collapses to c * ZP(1)^n with c given by the
        Genocchi (even n, full) or Euler (odd n, twisted) number formulas."""
        import math

        from osczeta.numerics import euler_number, genocchi_number

        tw_sub, full_red = {}, {}
        t1 = ZSymbol(ZKind.ZTWISTED, 1)
        for ident in rules(2, 10)[2:]:
            sym, rhs = solved_form(ident)
            rhs = rhs.substitute(tw_sub).substitute(full_red)
            assert rhs.symbols() == {t1}
            n = ident.order
            coeff = rhs.terms[((t1, n),)].rational_value()
            if n % 2 == 0:
                assert coeff == Fraction(
                    4 ** n * abs(genocchi_number(n)), 4 * math.factorial(n))
                full_red[ZSymbol(ZKind.ZFULL, n)] = rhs
            else:
                assert coeff == Fraction(
                    2 ** n * abs(euler_number(n - 1)),
                    2 * math.factorial(n - 1))
                tw_sub[ZSymbol(ZKind.ZTWISTED, n)] = rhs


class TestSerialization:
    def test_convert_basis_round_trip(self):
        ident = rules(3)[3]
        back = convert_basis(convert_basis(ident, "plusminus"), "fulltwisted")
        assert back.lhs == ident.lhs
        assert back.rhs == ident.rhs

    def test_convert_basis_rejects_unknown(self):
        with pytest.raises(ValueError):
            convert_basis(rules(3)[2], "spherical")

    def test_text_and_json_are_stable(self):
        a = derive_sum_rules(6, 4)
        b = derive_sum_rules(6, 4)
        assert [i.to_text() for i in a] == [i.to_text() for i in b]
        assert [i.to_json_dict() for i in a] == [i.to_json_dict() for i in b]

    def test_solved_form_rejects_generic(self):
        with pytest.raises(ValueError):
            solved_form(rules(3)[1])
