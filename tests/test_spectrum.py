"""Eigenvalue solver tests: exactly known spectra, structural invariants,
and the counting-function diagnostic."""

import json
import math
import os

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osczeta import cli, numerics, spectrum
from osczeta.errors import BracketFailureError, CertificationError
from osczeta.spectrum import (
    SpectrumRecord,
    counting_check,
    eigenvalues,
    merged_spectrum,
)
from osczeta.zetafns import bohr_sommerfeld_b0

# exact binary values (sign, mantissa, exponent, bitcount) of the first two
# eigenvalues per sector: N = 2..6 at 15 and 30 digits as returned by the
# bisection/secant solver the Newton polish replaced, N = 10 and the 50-digit
# sectors as returned by the Newton solver with the full-action inward sweep
SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "data",
                             "spectrum_snapshot.json")
with open(SNAPSHOT_PATH, encoding="utf-8") as _fh:
    SNAPSHOT = json.load(_fh)


class TestHarmonic:
    def test_odd_integers(self, spectra2):
        plus, minus = spectra2
        with mp.workdps(40):
            for j, e in enumerate(plus.eigenvalues):
                assert abs(e - (4 * j + 1)) < mp.mpf("1e-25")
            for j, e in enumerate(minus.eigenvalues):
                assert abs(e - (4 * j + 3)) < mp.mpf("1e-25")

    def test_merged_is_every_odd_integer(self, spectra2):
        merged = merged_spectrum(*spectra2)
        with mp.workdps(40):
            for k, e in enumerate(merged):
                assert abs(e - (2 * k + 1)) < mp.mpf("1e-25")


class TestAiry:
    def test_dirichlet_sector_is_airy_zeros(self, spectra1):
        _, minus = spectra1
        with mp.workdps(50):
            for j, e in enumerate(minus.eigenvalues[:6]):
                assert abs(e + mp.airyaizero(j + 1)) < mp.mpf("1e-40")

    def test_neumann_sector_is_airy_prime_zeros(self, spectra1):
        plus, _ = spectra1
        with mp.workdps(50):
            for j, e in enumerate(plus.eigenvalues[:6]):
                assert abs(e + mp.airyaizero(j + 1, derivative=1)) \
                    < mp.mpf("1e-40")

    def test_sectors_match_zero_snapshot(self, spectra1):
        # the shared N=1 fixture (30 levels at 45 digits) bit for bit against
        # the zeros the series-based Newton iteration gave
        path = os.path.join(os.path.dirname(__file__), "data",
                            "airy_zero_snapshot.json")
        with open(path, encoding="utf-8") as fh:
            snapshot = json.load(fh)
        plus, minus = spectra1
        for rec, key in ((plus, "1@45"), (minus, "0@45")):
            assert [list(e._mpf_) for e in rec.eigenvalues] == \
                snapshot[key][:30]

    def test_one_march_per_sector(self, monkeypatch):
        calls = []
        march = spectrum.airy_negative_zeros

        def counting(*args):
            calls.append(args)
            return march(*args)

        monkeypatch.setattr(spectrum, "airy_negative_zeros", counting)
        for parity, deriv in (("+", 1), ("-", 0)):
            rec = eigenvalues(1, parity, 12, 30)
            assert calls[-1] == (12, deriv, 30)
            assert len(rec) == 12
        assert len(calls) == 2

    def test_hundred_digit_sector(self):
        rec = eigenvalues(1, "-", 30, 100)
        with mp.workdps(110):
            for j in (0, 25, 29):
                ref = -mp.airyaizero(j + 1)
                assert abs(rec.eigenvalues[j] / ref - 1) < mp.mpf("1e-100")


class TestRecordStructure:
    def test_full_index(self, spectra3):
        plus, minus = spectra3
        assert [plus.full_index(j) for j in range(3)] == [0, 2, 4]
        assert [minus.full_index(j) for j in range(3)] == [1, 3, 5]

    def test_monotone_and_positive_enforced(self):
        with pytest.raises(ValueError):
            SpectrumRecord(3, "+", (mp.mpf(2), mp.mpf(1)), (10, 10))
        with pytest.raises(ValueError):
            SpectrumRecord(3, "+", (mp.mpf(-1), mp.mpf(1)), (10, 10))
        with pytest.raises(ValueError):
            SpectrumRecord(3, "x", (mp.mpf(1),), (10,))

    def test_parity_sectors_interleave(self, spectra3, spectra6):
        for plus, minus in (spectra3, spectra6):
            merged = merged_spectrum(plus, minus)
            assert all(a < b for a, b in zip(merged, merged[1:]))

    def test_json_round_trip(self, spectra3):
        plus, _ = spectra3
        rows = json.loads(json.dumps(plus.to_rows()))
        assert len(rows) == len(plus)
        with mp.workdps(40):
            for k, (row, e) in enumerate(zip(rows, plus.eigenvalues)):
                assert (row["N"], row["parity"], row["k"]) == (3, "+", k)
                assert abs(mp.mpf(row["E"]) - e) \
                    < mp.mpf(10) ** (-(row["certified_digits"] - 2))


class TestSolverConsistency:
    def test_counting_check_clean(self, spectra3, spectra6):
        for pair in (spectra3, spectra6):
            for rec in pair:
                ck = counting_check(rec)
                assert not ck["missed_eigenvalue_flag"]
                assert ck["max_abs_residual_tail"] < 0.1

    def test_counting_check_flags_a_gap(self, spectra3):
        plus, _ = spectra3
        gapped = SpectrumRecord(
            3, "+", plus.eigenvalues[:3] + plus.eigenvalues[4:],
            plus.certified_digits[:-1])
        assert counting_check(gapped)["missed_eigenvalue_flag"]

    @pytest.mark.parametrize("N", [7, 8, 9, 11, 12, 16])
    @pytest.mark.parametrize("parity", ["+", "-"])
    def test_large_degree_low_levels_in_order(self, N, parity):
        # at low levels of large N the semiclassical bracket window can hold
        # two levels; a skipped or repeated level leaves a Bohr-Sommerfeld
        # residual near 1
        rec = eigenvalues(N, parity, 3, 15)
        b0 = float(bohr_sommerfeld_b0(N, 20))
        mu = (N + 2) / (2 * N)
        for j, e in enumerate(rec.eigenvalues):
            residual = b0 / (2 * math.pi) * float(e) ** mu \
                - (rec.full_index(j) + 0.5)
            assert abs(residual) < 0.5

    def test_precision_doubling(self, spectra3):
        # a low-precision run must agree with the deep run on all its digits
        plus, _ = spectra3
        rough = eigenvalues(3, "+", 2, 15)
        with mp.workdps(40):
            for a, b in zip(rough.eigenvalues, plus.eigenvalues):
                assert abs(a - b) < mp.mpf("1e-14") * b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eigenvalues(0, "+", 3)
        with pytest.raises(ValueError):
            eigenvalues(3, "odd", 3)
        with pytest.raises(ValueError):
            eigenvalues(3, "+", 0)


def _reference_nodes(N, E, parity, longest=0.05, dps=15):
    """Nodes of the outward solution of psi'' = (q^N - E) psi on (0, qm],
    qm = 1.2 E^(1/N) as in the solver, counted by the sign of psi at the
    ends of equal Taylor-kernel steps no longer than `longest`."""
    with mp.workdps(dps + 15):
        P = mp.mp.prec + 8
        tol = int(mp.ldexp(mp.mpf(10) ** -dps, P))
    qm = int(math.ldexp(1.2 * E ** (1.0 / N), P))
    e_fix = int(math.ldexp(E, P))
    count = math.ceil(math.ldexp(qm, -P) / longest)
    state = [1 << P, 0] if parity == "+" else [0, 1 << P]
    nodes, positive = 0, True
    for i in range(count):
        q, h = qm * i // count, qm * (i + 1) // count - qm * i // count
        shift = max(abs(state[0]), abs(state[1] * h) >> P).bit_length() - P
        state = [v >> shift if shift > 0 else v << -shift for v in state]
        u = [math.comb(N, j) * q ** (N - j) * h ** (j + 2) >> (N + 1) * P
             for j in range(N + 1)]
        u[0] -= e_fix * h * h >> 2 * P
        psi, hdpsi = numerics._taylor_step(
            u, P, tol * h >> P, [(state[0], state[1] * h >> P)], h * h >> P)
        state = [psi, (hdpsi << P) // h]
        if psi and (psi > 0) != positive:
            nodes += 1
            positive = not positive
    return nodes


class TestSolverRegression:
    @pytest.mark.parametrize("key", sorted(SNAPSHOT))
    def test_bit_identical_to_snapshot(self, key):
        sector, dps = key.split("@")
        rec = eigenvalues(int(sector[:-1]), sector[-1], 2, int(dps))
        assert [list(e._mpf_) for e in rec.eigenvalues] == SNAPSHOT[key]

    def test_shoots_per_eigenvalue(self, monkeypatch):
        # Newton shoots at rising precision from the prediction, none above
        # dps, and 2 certificate shoots; the bracket grid does not run
        calls = []
        shoot = spectrum._shoot

        def counting(*args, **kwargs):
            calls.append(args)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(spectrum, "_shoot", counting)
        eigenvalues(3, "+", 1, 50)
        assert len(calls) <= 9

    # ids without the bound, so that lowering a bound keeps the test's name
    @pytest.mark.parametrize("N,parity,bound", [
        pytest.param(N, parity, bound, id=f"{N}{parity}") for N, parity, bound
        in [(3, "+", 74), (3, "-", 72), (6, "+", 66), (6, "-", 64)]])
    def test_shoots_per_sector(self, monkeypatch, N, parity, bound):
        # every shoot of a 12-level sector at 30 digits, each level started
        # from its own prediction
        calls = []
        shoot = spectrum._shoot

        def counting(*args, **kwargs):
            calls.append(args)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(spectrum, "_shoot", counting)
        eigenvalues(N, parity, 12, 30)
        assert len(calls) <= bound

    def test_taylor_steps_per_eigenvalue(self, monkeypatch):
        # Taylor steps of one 30-digit level: the outward sweep steps
        # min(1, 1/sqrt(E)) up to the turning point, the inward sweep
        # min(1, 10/rate) through the forbidden region, and the ladder
        # shoots work to their own digits; 55 steps in all
        calls = []
        step = spectrum._taylor_step

        def counting(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(spectrum, "_taylor_step", counting)
        eigenvalues(3, "+", 1, 30)
        assert len(calls) <= 55

    def test_sliver_final_outward_step(self, monkeypatch):
        # for N = 2 the long steps 1/sqrt(E) reach qt = sqrt(E) after E of
        # them, and h_osc = 1/(2 sqrt(E)) divides qm - qt = 0.2 sqrt(E)
        # 0.4 E times; at E = 5 and 15 both are whole, and the outward sweep
        # ends in a sliver, a step as long as the rounding of qm (near
        # 1e-16), which the Taylor kernel must finish without running out
        # of terms
        slivers = []
        step = spectrum._taylor_step

        def recording(u, P, tol_h, starts, h2):
            # h2 = h^2 in fixed point 2^-P: h < 2^-40
            slivers.append(h2 < 1 << (P - 80))
            return step(u, P, tol_h, starts, h2)

        monkeypatch.setattr(spectrum, "_taylor_step", recording)
        for E, parity, count in ((5, "+", 1), (15, "-", 3)):
            slivers.clear()
            w, nodes, _ = spectrum._shoot(2, mp.mpf(E), parity, 18)
            assert any(slivers)
            assert nodes == count and abs(w) < 1e-15

    def test_one_full_precision_newton_shoot_per_level(self, monkeypatch):
        # per level the only shoots at the certificate's dps + 10 digits are
        # its pair, which carries no dpsi/dE: the ladder stops short of them
        levels = []
        shoot, solve = spectrum._shoot, spectrum._solve_one

        def counting(N, E, parity, dps, slope=False):
            levels[-1].append((dps, slope))
            return shoot(N, E, parity, dps, slope=slope)

        def level(*args):
            levels.append([])
            return solve(*args)

        monkeypatch.setattr(spectrum, "_shoot", counting)
        monkeypatch.setattr(spectrum, "_solve_one", level)
        eigenvalues(3, "+", 4, 30)
        assert len(levels) == 4
        for calls in levels:
            full = [slope for dps, slope in calls if dps == 40]
            assert len(full) == 2 and not any(full)

    def test_pair_without_sign_change_takes_its_chord(self, monkeypatch):
        # a polish that stops 1e-22 off the root, outside the certificate's
        # half-width 10^-24/4 at 20 digits: the pair shows no sign change,
        # its chord is the next e, and the second pair certifies the level
        # with the bits of the unperturbed polish and no grid
        ref = eigenvalues(4, "-", 1, 20)
        polish, shoot = spectrum._polish, spectrum._shoot
        digits = []

        def off_root(N, parity, e, dps, window=None):
            e = polish(N, parity, e, dps, window)
            with mp.workdps(40):
                return e * (1 + mp.mpf("1e-22"))

        def counting(N, E, parity, dps, slope=False):
            digits.append(dps)
            return shoot(N, E, parity, dps, slope=slope)

        def refused(*args):
            raise AssertionError(f"bracket grid ran for {args[:3]}")

        monkeypatch.setattr(spectrum, "_polish", off_root)
        monkeypatch.setattr(spectrum, "_shoot", counting)
        monkeypatch.setattr(spectrum, "_bracket", refused)
        rec = eigenvalues(4, "-", 1, 20)
        assert [e._mpf_ for e in rec.eigenvalues] == \
            [e._mpf_ for e in ref.eigenvalues]
        assert digits.count(30) == 4

    @given(N=st.integers(min_value=2, max_value=48),
           E=st.floats(min_value=0.5, max_value=200),
           parity=st.sampled_from(spectrum.PARITIES))
    @settings(max_examples=40, deadline=None)
    def test_outward_node_count(self, N, E, parity):
        # the outward sweep's long steps below the turning point count the
        # same nodes as steps of at most 0.05
        _, nodes, _ = spectrum._shoot(N, mp.mpf(E), parity, 8)
        assert nodes == _reference_nodes(N, E, parity)

    @pytest.mark.parametrize("N,parity,pair", [
        (2, "+", "spectra2"), (3, "-", "spectra3"), (6, "+", "spectra6")])
    def test_full_action_inward_sweep_agrees(self, monkeypatch, request,
                                             N, parity, pair):
        # the inward start needs only half the action: its error decays
        # inward relative to the wanted solution as e^(-2A); the fixture is
        # built before the patch, which would otherwise slow its solves
        plus, minus = request.getfixturevalue(pair)
        choose = spectrum._choose_qmax
        monkeypatch.setattr(
            spectrum, "_choose_qmax",
            lambda N, E, qm, decades: choose(N, E, qm, 2 * decades))
        rec = eigenvalues(N, parity, 3, 30)
        ref = plus if parity == "+" else minus
        assert rec.eigenvalues == ref.eigenvalues[:3]

    @pytest.mark.parametrize("dps", [30, 50])
    @pytest.mark.parametrize("parity", spectrum.PARITIES)
    @pytest.mark.parametrize("N", [2, 3, 6])
    def test_relaxed_inward_steps_keep_every_bit(self, monkeypatch, N,
                                                 parity, dps):
        # inward steps summed to tol e^(1.8 A) give the eigenvalues that
        # steps summed to tol everywhere give
        relaxed = eigenvalues(N, parity, 3, dps)
        monkeypatch.setattr(spectrum, "INWARD_RELAX", 0.0)
        full = eigenvalues(N, parity, 3, dps)
        assert [e._mpf_ for e in relaxed.eigenvalues] == \
            [e._mpf_ for e in full.eigenvalues]

    @staticmethod
    def _shoot_terms(monkeypatch, E, dps):
        """(outward, inward) Taylor terms per kernel call of one N = 3
        shoot, and (tol_h, |h|) per call: u_3 = h^5 has the sign of h."""
        outward, inward, tols = [], [], []
        step = numerics._taylor_step

        def counting(u, P, tol_h, starts, h2):
            terms = []
            out = step(u, P, tol_h, starts, h2, terms)
            (inward if u[-1] < 0 else outward).append(len(terms))
            tols.append((tol_h, math.isqrt(h2 << P)))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "_taylor_step", counting)
            spectrum._shoot(3, E, "+", dps)
        return outward, inward, tols

    def test_relaxed_inward_steps_sum_fewer_terms(self, monkeypatch):
        # one certificate-grade shoot at 59 digits near level 1 of N = 3:
        # the outward sweep and the last inward step, which ends on qm, sum
        # the terms they summed before; the inward sweep sums fewer
        E = mp.mpf("6.37029321718085429746105716156")
        out, inn, _ = self._shoot_terms(monkeypatch, E, 59)
        monkeypatch.setattr(spectrum, "INWARD_RELAX", 0.0)
        out_full, inn_full, _ = self._shoot_terms(monkeypatch, E, 59)
        assert out == out_full
        assert inn[-1] == inn_full[-1]
        assert all(a <= b for a, b in zip(inn, inn_full))
        assert len(inn) == len(inn_full) and sum(inn) < sum(inn_full)

    @pytest.mark.parametrize("dps", [8, 30, 59])
    def test_no_step_coarser_than_guard(self, monkeypatch, dps):
        # tol_h = tol |h|: no Taylor step of a shoot is summed coarser than
        # 10^-GUARD.  Over half the action, e^(1.8 A) stays below 10^(0.9
        # dps); an inward sweep over the full action reaches the bound
        E = mp.mpf("6.37029321718085429746105716156")
        _, _, tols = self._shoot_terms(monkeypatch, E, dps)
        assert max(tol_h / h for tol_h, h in tols) < 1e-10 * 10 ** (-dps / 10)
        choose = spectrum._choose_qmax
        monkeypatch.setattr(
            spectrum, "_choose_qmax",
            lambda N, E, qm, decades: choose(N, E, qm, 2 * decades))
        _, _, tols = self._shoot_terms(monkeypatch, E, dps)
        assert 0.5e-10 <= max(tol_h / h for tol_h, h in tols) \
            <= 1e-10 * (1 + 1e-9)

    def test_prediction_half_a_level_off(self, monkeypatch):
        # predictions shifted by about half the sector's level spacing start
        # Newton between two levels and put each level near an edge of its
        # window: shifted up, every level of N = 3 '+' lies just above the
        # window's lower end (pair 0); shifted down by a little less, each
        # lies just below its upper end (pair 5), and level 0 above the
        # whole of its first window, which ends at the prediction of index
        # 0.01 (the level sits at 0.023).  With the start refused, the grid
        # finds them there, and either way the bits are those of the
        # unshifted prediction
        ref = eigenvalues(3, "+", 4, 20)
        predicted, polish, bracket = (spectrum._predicted_energy,
                                      spectrum._polish, spectrum._bracket)
        pairs = []

        def tracking(*args):
            found = bracket(*args)
            pairs.append(found and found[0])
            return found

        def grid_only(N, parity, e, dps, window=None):
            if window:
                raise CertificationError("start refused")
            return polish(N, parity, e, dps)

        for shift in (1, -0.99):
            monkeypatch.setattr(spectrum, "_predicted_energy",
                                lambda N, k: predicted(N, k + shift))
            rec = eigenvalues(3, "+", 4, 20)
            assert rec.eigenvalues == ref.eigenvalues
            with monkeypatch.context() as patch:
                patch.setattr(spectrum, "_bracket", tracking)
                patch.setattr(spectrum, "_polish", grid_only)
                rec = eigenvalues(3, "+", 4, 20)
            assert [list(e._mpf_) for e in rec.eigenvalues] == \
                [list(e._mpf_) for e in ref.eigenvalues]
        assert None in pairs and {0, 5} <= set(pairs)

    @staticmethod
    def _refusals(monkeypatch):
        """Patch the certificate to record the message of each refusal."""
        refused = []
        certified = spectrum._certified

        def recording(*args):
            try:
                return certified(*args)
            except CertificationError as err:
                refused.append(str(err))
                raise

        monkeypatch.setattr(spectrum, "_certified", recording)
        return refused

    def test_start_one_level_up_falls_back_to_grid(self, monkeypatch):
        # a Newton start and its window moved up one level of the sector
        # converge on the next eigenvalue; the node count refuses it, and
        # the grid path gives the snapshot's bits
        polish, predicted = spectrum._polish, spectrum._predicted_energy
        starts = []

        def moved(N, parity, e, dps, window=None):
            if window is None:
                return polish(N, parity, e, dps)
            kf = 2 * len(starts) + 1
            starts.append(e)
            up = predicted(N, kf + 2) / predicted(N, kf)
            return polish(N, parity, e * up, dps,
                          (window[0] * up, window[1] * up))

        refused = self._refusals(monkeypatch)
        monkeypatch.setattr(spectrum, "_polish", moved)
        rec = eigenvalues(3, "-", 2, 30)
        assert [list(e._mpf_) for e in rec.eigenvalues] == SNAPSHOT["3-@30"]
        assert len(starts) == 2
        assert len(refused) == 2 and all("node count" in m for m in refused)

    # the first 12 levels at 30 digits of both parities of N = 2, 3, 6, 10,
    # the first 2 of the steep N = 48 '+' at 15 digits, the first 6 of
    # N = 16 '-' at 15 digits, whose level 5 the 12-digit ladder shoot moves
    # by 7.4e-10, and the first 4 of N = 48 '-' at 30 digits, where the
    # Wronskian saturates a little away from each level
    @pytest.mark.parametrize("N,parity,count,dps", [
        pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in
        [(N, p, 12, 30) for N in (2, 3, 6, 10) for p in spectrum.PARITIES]
        + [(48, "+", 2, 15), (16, "-", 6, 15), (48, "-", 4, 30)]])
    def test_no_grid_from_the_prediction(self, monkeypatch, N, parity, count,
                                         dps):
        # Newton from each level's own b0 + b1 prediction certifies every
        # level without the bracket grid
        def refused(*args):
            raise AssertionError(f"bracket grid ran for {args[:3]}")

        monkeypatch.setattr(spectrum, "_bracket", refused)
        rec = eigenvalues(N, parity, count, dps)
        assert len(rec) == count
        if (N, dps) == (48, 30):
            ref = eigenvalues(N, parity, count, 15)
            assert all(abs(a - b) < 1e-14 * b for a, b in
                       zip(rec.eigenvalues, ref.eigenvalues))

    @pytest.mark.parametrize("dps", [5, 6, 7])
    def test_fewer_digits_than_the_first_shoots(self, dps):
        # below GRID_DPS the ladder's shoots stay at 8 digits, never fewer
        # than the last: shoots at dps digits could not vouch for the
        # dps + 7 digits the ladder stops at
        rec, ref = eigenvalues(3, "+", 2, dps), eigenvalues(3, "+", 2, 15)
        assert all(abs(a - b) < 10 ** -dps * b for a, b in
                   zip(rec.eigenvalues, ref.eigenvalues))

    def test_ladder_leaving_its_window_is_refused(self):
        # a window that stops short of the level refuses the Newton ladder
        # at its first iterate outside it
        e = spectrum._predicted_energy(3, 0)
        with pytest.raises(CertificationError, match="left its window"):
            spectrum._polish(3, "+", e, 20, (0.5 * e, 1.01 * e))

    def test_polish_from_wrong_level_is_refused(self, monkeypatch):
        # a prediction one level up starts Newton at the next eigenvalue of
        # the sector, which has one node too many; so does the grid the
        # same prediction places, and the level is refused
        refused = self._refusals(monkeypatch)
        predicted = spectrum._predicted_energy
        monkeypatch.setattr(spectrum, "_predicted_energy",
                            lambda N, k: predicted(N, k + 2))
        with pytest.raises(CertificationError, match="node count"):
            eigenvalues(3, "-", 1, 20)
        assert len(refused) == 2 and all("node count" in m for m in refused)

    def test_unconverged_polish_is_refused(self, monkeypatch):
        # an eigenvalue 1e-6 off its root fails the sign change, and its
        # chord moves it by more than 10^-GRID_DPS, so the certificate
        # refuses it at its first pair, from the start and again from the
        # grid
        polish, shoot = spectrum._polish, spectrum._shoot
        windows, certificate = [], []

        def off_root(N, parity, e, dps, window=None):
            windows.append(window)
            e = polish(N, parity, e, dps, window)
            with mp.workdps(40):
                return e * (1 + mp.mpf("1e-6"))

        def counting(N, E, parity, dps, slope=False):
            if dps == 30:
                certificate.append(E)
            return shoot(N, E, parity, dps, slope=slope)

        monkeypatch.setattr(spectrum, "_polish", off_root)
        monkeypatch.setattr(spectrum, "_shoot", counting)
        with pytest.raises(CertificationError, match="sign change"):
            eigenvalues(4, "-", 1, 20)
        assert windows[0] is not None and windows[1:] == [None]
        assert len(certificate) == 4

    def test_window_without_its_level_raises_bracket_failure(self,
                                                              monkeypatch):
        # predictions a hundredth of N = 2's put level 0 (E = 1) far above
        # its window and the window's widenings, which end below 0.07: the
        # ladder leaves the window, no grid pair changes sign, and the
        # spectrum command exits 2
        predicted = spectrum._predicted_energy
        monkeypatch.setattr(spectrum, "_predicted_energy",
                            lambda N, k: predicted(N, k) / 100)
        with pytest.raises(BracketFailureError, match="no sign change"):
            eigenvalues(2, "+", 1, 15)
        assert cli.main(["spectrum", "--N", "2", "--count", "1",
                         "--digits", "15"]) == 2
