"""Closed-form catalog: quoted reference decimals, cross-family identities,
and precision behavior."""

import json
import os

import mpmath as mp
import pytest

from osczeta import closedforms as cf
from osczeta.errors import UnknownIdentifierError

AIRY_NSUM_PATH = os.path.join(os.path.dirname(__file__), "data",
                              "airy_zeta3_nsum.json")


def agree(value, quoted, tol):
    return abs(value - mp.mpf(quoted)) < mp.mpf(tol)


class TestReferenceDecimals:
    def test_airy_ratio(self):
        assert agree(cf.closed_form_eval("RO", None, 50),
                     "0.729011133", "5e-10")

    def test_cubic_values(self):
        assert agree(cf.closed_form_eval("Z1.twisted", 3, 50),
                     "0.7836009674833", "5e-14")
        assert agree(cf.closed_form_eval("Z1.full", 3, 50),
                     "3.319386965494", "5e-13")
        assert agree(cf.closed_form_eval("Z32", 3, 50),
                     "1.098003371", "5e-10")
        assert agree(cf.closed_form_eval("Z3minus2", 3, 50),
                     "0.104481190", "5e-10")
        assert agree(cf.closed_form_eval("Z3plus2", 3, 50),
                     "0.993522181", "5e-10")

    def test_sextic_values(self):
        assert agree(cf.closed_form_eval("Z6P2", 6, 50),
                     "0.71895230", "5e-9")
        assert agree(cf.closed_form_eval("Z4E", 6, 50),
                     "2.26279887", "5e-9")


class TestCrossChecks:
    def test_rho_two_routes(self):
        with mp.workdps(60):
            a = cf.rho_ratio(55)
            b = cf.rho_from_airy(55)
            assert abs(a - b) < mp.mpf("1e-50")

    def test_harmonic_twisted_one_is_pi_over_4(self):
        with mp.workdps(60):
            v = cf.harmonic_zeta("twisted", 1, 55)
            assert abs(v - mp.pi / 4) < mp.mpf("1e-50")

    def test_harmonic_parity_split(self):
        with mp.workdps(60):
            for n in (2, 3, 5):
                full = cf.harmonic_zeta("full", n, 55)
                plus = cf.harmonic_zeta("plus", n, 55)
                minus = cf.harmonic_zeta("minus", n, 55)
                assert abs(full - (plus + minus)) < mp.mpf("1e-48")

    def test_dirichlet_lambda_vs_riemann(self):
        with mp.workdps(60):
            for n in (2, 4, 7):
                ref = (1 - mp.mpf(2) ** (-n)) * mp.zeta(n)
                assert abs(cf.dirichlet_lambda(n, 55) - ref) < mp.mpf("1e-48")

    def test_dirichlet_beta_catalan(self):
        with mp.workdps(60):
            assert abs(cf.dirichlet_beta(2, 55) - mp.catalan) \
                < mp.mpf("1e-48")

    def test_dirichlet_beta_one(self):
        # s = 1 is the pole of both Hurwitz halves of the alternating sum
        with mp.workdps(60):
            assert abs(cf.dirichlet_beta(1, 55) - mp.pi / 4) < mp.mpf("1e-50")

    def test_airy_zetas_vs_spectrum_definition(self):
        # closed-form log-derivative route vs a long direct eigenvalue sum,
        # mpmath.nsum over mpmath.airyaizero, recorded at 60 digits with
        # the command that made it
        with open(AIRY_NSUM_PATH, encoding="utf-8") as fh:
            ref = json.load(fh)
        with mp.workdps(60):
            z3 = cf.airy_zeta("minus", 3, 50)
            direct = mp.mpf(ref["value"])
            assert abs(z3 - direct) < mp.mpf("1e-40")

    def test_airy_log_zetas_share_coefficients(self, monkeypatch):
        # the series of Ai' is that of Ai shifted by one: both parities to
        # order n_max take the n_max + 2 derivatives of Ai at 0, once each
        calls = []
        coefficient = cf.airy_taylor_coefficient

        def counting(n, dps):
            calls.append(n)
            return coefficient(n, dps)

        monkeypatch.setattr(cf, "airy_taylor_coefficient", counting)
        cf.airy_log_zetas(12, 30)
        assert calls == list(range(14))

    def test_airy_prime0_split(self):
        with mp.workdps(60):
            total = cf.zeta_prime0(1, "full", 55)
            plus = cf.zeta_prime0(1, "plus", 55)
            minus = cf.zeta_prime0(1, "minus", 55)
            assert abs(total - (plus + minus)) < mp.mpf("1e-48")

    def test_prime0_full_is_log_sin(self):
        with mp.workdps(60):
            for N in (1, 2, 3, 4, 6):
                v = cf.zeta_prime0(N, "full", 55)
                ref = mp.log(mp.sin(mp.pi / (N + 2)))
                assert abs(v - ref) < mp.mpf("1e-48")

    def test_table_prime0_values(self):
        with mp.workdps(60):
            cases = {
                2: -mp.log(2) / 2,
                4: -mp.log(2),
                6: mp.log((2 - mp.sqrt(2)) / 4) / 2,
                1: mp.log(mp.sqrt(3) / 2),
                3: mp.log((5 - mp.sqrt(5)) / 8) / 2,
            }
            for N, ref in cases.items():
                assert abs(cf.zeta_prime0(N, "full", 55) - ref) \
                    < mp.mpf("1e-48")

    def test_zeta_one_ratio(self):
        # Z(1)/ZP(1) = tan(2 nu pi)/tan(nu pi)
        with mp.workdps(60):
            for N in (1, 3, 4, 6):
                nu = mp.mpf(1) / (N + 2)
                ratio = mp.tan(2 * nu * mp.pi) / mp.tan(nu * mp.pi)
                lhs = cf.zeta_one(N, "full", 55)
                rhs = ratio * cf.zeta_one(N, "twisted", 55)
                assert abs(lhs - rhs) < mp.mpf("1e-45")


class TestCatalog:
    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            cf.closed_form_eval("Z9.nonsense", None, 30)

    def test_precision_doubling(self):
        # values computed at 30 digits match the 60-digit run on all claimed
        # digits, for a representative of every evaluation route
        idents = ["RO", "ZN2", "Z6P2", "Z4E", "Z3plus2", "Z32", "Z3minus2",
                  "Z0.twistedPrime", "Z1.full", "Z2.full.4", "Z2.twisted.3",
                  "Z1.minus.3", "Airy.2"]
        for ident in idents:
            N = 3 if ident in ("ZN2", "Z0.twistedPrime", "Z1.full") else None
            lo = cf.closed_form_eval(ident, N, 30)
            hi = cf.closed_form_eval(ident, N, 60)
            with mp.workdps(70):
                assert abs(lo - hi) <= abs(hi) * mp.mpf("1e-28")
