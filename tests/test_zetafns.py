"""Zeta summation, determinant series, and functional-equation residuals."""

import json
import os

import mpmath as mp
import pytest

from osczeta import closedforms as cf
from osczeta import verify, zetafns
from osczeta.errors import (
    DivergentSeriesError,
    InsufficientTermsError,
    RadiusExceededError,
    SummationPoleError,
)
from osczeta.zetafns import (
    bohr_sommerfeld_b0,
    bohr_sommerfeld_b1,
    determinant_series,
    functional_eq_residual,
    zeta_em,
)
from osczeta.verify import em_zeta_table, run_battery

# em_zeta_table(N, fixture pair, 14, dps) at the fixture precision (45 digits
# for N=1, 30 otherwise) and at 20 digits, each value as its exact binary
# (sign, mantissa, exponent, bitcount) plus certified_digits, keyed
# "N.kind.n@dps"; recorded with the Laurent-series tail models that the
# lead * x^q * F(x^-2) form replaced
with open(os.path.join(os.path.dirname(__file__), "data",
                       "em_zeta_table_snapshot.json"), encoding="utf-8") as _fh:
    EM_SNAPSHOT = json.load(_fh)

FIXTURE_DPS = {1: 45, 2: 30, 3: 30, 6: 30}


class TestBohrSommerfeld:
    def test_b0_harmonic(self):
        # action of q^2 at energy E is pi E, so b0 = pi
        with mp.workdps(40):
            assert abs(bohr_sommerfeld_b0(2, 35) - mp.pi) < mp.mpf("1e-33")

    def test_b0_square_well_limit(self):
        # N -> infinity approaches the infinite well value 4
        assert abs(bohr_sommerfeld_b0(4000, 20) - 4) < mp.mpf("0.01")

    def test_coeffs_harmonic_linear(self, spectra2):
        assert bohr_sommerfeld_b1(2, 30) == 0
        # mu = 1: the pole guard at s = mu refuses s = 1 exactly
        with pytest.raises(SummationPoleError):
            zeta_em(2, "full", 1, spectra2, dps=30)

    def test_cubic_b1_negative(self):
        assert bohr_sommerfeld_b1(3, 30) < 0

    @pytest.mark.parametrize("dps", [15, 20, 21, 30, 45, 50, 60, 100])
    def test_b1_cubic_bit_identical_to_gamma_form(self, dps, monkeypatch):
        # the Gamma closed form the N = 3 coefficient had before the Beta
        # formula covered every N: -2^(4/3) pi^2 / (9 Gamma(1/3)^3)
        with mp.workdps(dps + 10):
            ref = -mp.power(2, mp.mpf(4) / 3) / 9 * mp.pi ** 2 \
                / mp.gamma(mp.mpf(1) / 3) ** 3
        with mp.workdps(dps):
            ref = +ref
        assert bohr_sommerfeld_b1(3, dps)._mpf_ == ref._mpf_
        # and the N = 3 tail fit takes that b1, bit for bit
        fitted, invert = [], zetafns._invert_counting
        monkeypatch.setattr(zetafns, "_invert_counting",
                            lambda b, mu: fitted.append(b) or invert(b, mu))
        zetafns._fit_tail_model(3, [(0, mp.mpf(1)), (2, mp.mpf(5))],
                                mp.mpf(5) / 6, dps)
        assert fitted[0][1]._mpf_ == ref._mpf_

    def test_b1_harmonic_is_exactly_zero(self):
        assert bohr_sommerfeld_b1(2, 30)._mpf_ == mp.mpf(0)._mpf_

    def test_b1_sextic_against_fitted_spectrum(self, spectra6):
        # with b0 exact, b1, b2 and b3 of the counting relation
        # 2 pi (k + 1/2) = b0 E^mu + b1 E^-mu + b2 E^-3mu + b3 E^-5mu solved
        # from the top three levels of each parity agree with the exact b1
        N = 6
        with mp.workdps(30):
            b0, b1 = bohr_sommerfeld_b0(N, 30), bohr_sommerfeld_b1(N, 30)
            mu = mp.mpf(N + 2) / (2 * N)
            for rec in spectra6:
                top = [(rec.full_index(j), e)
                       for j, e in enumerate(rec.eigenvalues)][-3:]
                rows = mp.matrix([[e ** (-(2 * i + 1) * mu) for i in range(3)]
                                  for _, e in top])
                rhs = mp.matrix([2 * mp.pi * (k + mp.mpf(1) / 2) - b0 * e ** mu
                                 for k, e in top])
                fitted = mp.lu_solve(rows, rhs)[0]
                assert abs(fitted / b1 - 1) < mp.mpf("1e-7"), rec.parity

    def test_b1_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            bohr_sommerfeld_b1(1, 30)


class TestZetaEM:
    def test_harmonic_full_vs_dirichlet_lambda(self, spectra2):
        with mp.workdps(40):
            for n in (2, 3, 4):
                zv = zeta_em(2, "full", n, spectra2, dps=30)
                ref = cf.dirichlet_lambda(n, 35)
                assert abs(zv.value - ref) \
                    < mp.mpf(10) ** (-zv.certified_digits)
                assert zv.certified_digits >= 20

    def test_harmonic_twisted_vs_dirichlet_beta(self, spectra2):
        with mp.workdps(40):
            for n in (1, 2, 3):
                zv = zeta_em(2, "twisted", n, spectra2, dps=30)
                ref = cf.dirichlet_beta(n, 35)
                assert abs(zv.value - ref) \
                    < mp.mpf(10) ** (-zv.certified_digits)

    def test_single_parity_needs_one_record(self, spectra2):
        plus, _ = spectra2
        zv = zeta_em(2, "plus", 2, plus, dps=30)
        with mp.workdps(40):
            # sum over (4j+1)^-2 = (zeta(2,1/4))/16
            ref = mp.zeta(2, mp.mpf("0.25")) / 16
            assert abs(zv.value - ref) < mp.mpf(10) ** (-zv.certified_digits)

    def test_pole_and_divergence_guards(self, spectra3):
        # the pole guard compares against the counting exponent
        # mu = (N + 2) / (2N) at the request's digits
        with mp.workdps(20):
            mu = mp.mpf(5) / 6
        with pytest.raises(SummationPoleError):
            zeta_em(3, "full", mu, spectra3, dps=20)
        with pytest.raises(DivergentSeriesError):
            zeta_em(3, "full", mp.mpf("0.5"), spectra3, dps=20)
        with pytest.raises(DivergentSeriesError):
            zeta_em(3, "twisted", 0, spectra3, dps=20)

    def test_missing_parity_rejected(self, spectra3):
        plus, _ = spectra3
        with pytest.raises(InsufficientTermsError):
            zeta_em(3, "full", 2, plus, dps=20)

    def test_certificate_is_honest(self, spectra3):
        # EM value vs the alternating closed form at s=1
        zv = zeta_em(3, "twisted", 1, spectra3, dps=30)
        with mp.workdps(40):
            ref = cf.zeta_one(3, "twisted", 35)
            assert abs(zv.value - ref) < mp.mpf(10) ** (-zv.certified_digits)


class TestZetaTable:
    def test_fits_each_record_once(self, spectra1, spectra2, spectra3,
                                   monkeypatch):
        calls = []
        fit = zetafns._fit_tail_model

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fit(*args, **kwargs)

        monkeypatch.setattr(zetafns, "_fit_tail_model", counted)
        for N, spectra, dps in ((1, spectra1, 30), (2, spectra2, 30),
                                (3, spectra3, 20)):
            calls.clear()
            table = em_zeta_table(N, spectra, 8, dps)
            # N=1 has the exact Airy tail model and fits nothing
            assert len(calls) == (0 if N == 1 else len(spectra))
            # the shared fits and powers give what one request alone
            # gives, bit for bit
            for (kind, n), zv in table.items():
                alone = zeta_em(N, kind, n, spectra, dps=dps)
                assert zv == alone
                assert zv.value._mpf_ == alone.value._mpf_

    def test_tail_expansion_once_per_record_and_order(self, spectra3,
                                                      monkeypatch):
        calls = []
        terms = zetafns._TailModel.inverse_power_terms

        def counted(self, s):
            calls.append((id(self), s))
            return terms(self, s)

        monkeypatch.setattr(zetafns._TailModel, "inverse_power_terms",
                            counted)
        # four kinds at each of orders 1..8 share two records' expansions
        assert len(em_zeta_table(3, spectra3, 8, 20)) == 32
        assert len(calls) == len(set(calls)) == 2 * 8

    def test_requests_checked_before_any_fit(self, spectra3, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before every request was checked")

        monkeypatch.setattr(zetafns, "_fit_tail_model", no_fit)
        with pytest.raises(ValueError):
            zetafns.zeta_values(3, spectra3, [("full", 2), ("bogus", 2)], 20)
        with pytest.raises(DivergentSeriesError):
            zetafns.zeta_values(3, spectra3, [("full", 2),
                                              ("full", mp.mpf("0.5"))], 20)
        with pytest.raises(InsufficientTermsError):
            zetafns.zeta_values(3, spectra3[0], [("plus", 2),
                                                 ("minus", 2)], 20)

    def test_cubic_battery_work(self, monkeypatch):
        fits, hypers = [], []
        fit, hyper = zetafns._fit_tail_model, cf.hyper_4f3

        def counted_fit(*args, **kwargs):
            fits.append(args[0])
            return fit(*args, **kwargs)

        def counted_hyper(*args, **kwargs):
            hypers.append(args)
            return hyper(*args, **kwargs)

        derive = verify.derive_sum_rules
        derived = []

        def counted_derive(*args, **kwargs):
            derived.append(args)
            return derive(*args, **kwargs)

        monkeypatch.setattr(zetafns, "_fit_tail_model", counted_fit)
        monkeypatch.setattr(cf, "hyper_4f3", counted_hyper)
        monkeypatch.setattr(verify, "derive_sum_rules", counted_derive)
        run_battery((3,), 20, 12)
        # one fit per record for the table and one per record for the
        # five-level reference run; each 4F3 closed form once; one
        # derivation serves the common and the cubic checks
        assert len(fits) == 4
        assert len(hypers) == 2
        assert derived == [(3, 6)]

    def test_no_hurwitz_call_to_mpmath_zeta(self, spectra1, spectra3,
                                             monkeypatch):
        zeta = mp.zeta

        def riemann_only(s, a=1, *args, **kwargs):
            if a != 1:
                raise AssertionError(f"mpmath.zeta({s}, {a}) called")
            return zeta(s, a, *args, **kwargs)

        monkeypatch.setattr(mp, "zeta", riemann_only)
        # 4 kinds at orders 1..8; only the twisted sum converges at s = 1
        # below mu = 3/2 (N=1), while mu = 5/6 for N=3
        assert len(em_zeta_table(1, spectra1, 8, 30)) == 29
        assert len(em_zeta_table(3, spectra3, 8, 20)) == 32
        assert run_battery((2,), 8, 5).passed


class TestTailModel:
    @pytest.mark.parametrize("alpha", [3, -2, mp.mpf(1) / 2,
                                       -mp.mpf(7) / 3, mp.mpf("-1.37")])
    def test_series_power_against_taylor(self, alpha):
        f = [mp.mpf(1), mp.mpf(5) / 48, -mp.mpf(5) / 36, mp.mpf("0.93"),
             mp.mpf("-15.5"), mp.mpf(2) / 7]
        with mp.workdps(40):
            got = zetafns._series_power(f, alpha)
            ref = mp.taylor(
                lambda u: sum(c * u ** r for r, c in enumerate(f)) ** alpha,
                0, len(f) - 1)
            assert len(got) == len(f)
            for p, q in zip(got, ref):
                assert abs(p - q) < mp.mpf("1e-25")

    @pytest.mark.parametrize("N", [1, 2, 3, 6])
    def test_table_bit_identical_to_snapshot(self, N, request):
        spectra = request.getfixturevalue(f"spectra{N}")
        for dps in (FIXTURE_DPS[N], 20):
            got = {}
            for (kind, n), zv in em_zeta_table(N, spectra, 14, dps).items():
                sign, man, exp, bc = zv.value._mpf_
                got[f"{N}.{kind}.{n}@{dps}"] = [sign, int(man), exp, bc,
                                                zv.certified_digits]
            want = {k: v for k, v in EM_SNAPSHOT.items()
                    if k.startswith(f"{N}.") and k.endswith(f"@{dps}")}
            assert got == want


class TestDeterminant:
    def harmonic_inputs(self, kind, M=120, dps=40):
        vals = [cf.harmonic_zeta(kind, n, dps) for n in range(1, M + 1)]
        return vals, cf.zeta_prime0(2, kind, dps)

    def test_full_determinant_closed_form(self):
        vals, zp0 = self.harmonic_inputs("full")
        with mp.workdps(40):
            for lam in ("-0.5", "0.3", "0.6"):
                d = determinant_series(mp.mpf(lam), vals, zp0, 30)
                ref = cf.harmonic_determinant("full", mp.mpf(lam), 35)
                assert abs(d - ref) < mp.mpf("1e-25")

    def test_radius_guard(self):
        vals, zp0 = self.harmonic_inputs("full", M=40)
        with pytest.raises(RadiusExceededError):
            determinant_series(mp.mpf("1.2"), vals, zp0, 30)

    def test_tail_guard(self):
        # too few terms for the requested precision near the disk edge
        vals, zp0 = self.harmonic_inputs("full", M=12)
        with pytest.raises(InsufficientTermsError):
            determinant_series(mp.mpf("0.9"), vals, zp0, 40)

    def test_complex_argument(self):
        vals, zp0 = self.harmonic_inputs("full")
        d = determinant_series(mp.mpc("0.2", "0.3"), vals, zp0, 30)
        assert isinstance(d, mp.mpc)


class TestFunctionalEquation:
    def test_harmonic_residual_tiny(self):
        M, dps = 120, 40
        pv = [cf.harmonic_zeta("plus", n, dps) for n in range(1, M + 1)]
        mv = [cf.harmonic_zeta("minus", n, dps) for n in range(1, M + 1)]
        pp = cf.zeta_prime0(2, "plus", dps)
        mm = cf.zeta_prime0(2, "minus", dps)
        for lam in ("0.25", "-0.2"):
            res = functional_eq_residual(2, mp.mpf(lam), pv, mv, pp, mm, 30)
            assert res < mp.mpf("1e-22")

    def test_wrong_inputs_give_large_residual(self):
        # corrupting one zeta value must be visible in the residual
        M, dps = 120, 40
        pv = [cf.harmonic_zeta("plus", n, dps) for n in range(1, M + 1)]
        mv = [cf.harmonic_zeta("minus", n, dps) for n in range(1, M + 1)]
        pp = cf.zeta_prime0(2, "plus", dps)
        mm = cf.zeta_prime0(2, "minus", dps)
        pv[0] = pv[0] + mp.mpf("1e-6")
        res = functional_eq_residual(2, mp.mpf("0.25"), pv, mv, pp, mm, 30)
        assert res > mp.mpf("1e-8")
