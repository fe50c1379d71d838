"""Unit tests for the special-function layer."""

import json
import math
import os
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from osczeta import numerics, spectrum, zetafns
from osczeta.errors import (
    CertificationError,
    DivergentSeriesError,
    GammaPoleError,
    PrecisionUnreachableError,
    SummationPoleError,
    TailBoundError,
)
from osczeta.numerics import (
    airy_negative_zeros,
    airy_taylor_coefficient,
    alternating_hurwitz_many,
    bernoulli_number,
    euler_number,
    genocchi_number,
    gamma,
    hurwitz_many,
    hyper_4f3,
)
from osczeta.precision import GUARD, working


# the two 4F3 parameter sets of the N=3 closed forms (closedforms.py), and
# their exact binary values at 20, 30 and 50 digits, recorded with the
# quadrature and polygamma Euler-Maclaurin tail that the Hurwitz tail replaced
CATALOG_4F3 = {
    "cubic_full2": ([Fraction(4, 10), Fraction(5, 10), Fraction(6, 10), 1],
                    [Fraction(12, 10), Fraction(13, 10), Fraction(14, 10)]),
    "cubic_minus2": ([Fraction(6, 10), Fraction(7, 10), Fraction(8, 10), 1],
                     [Fraction(14, 10), Fraction(15, 10), Fraction(16, 10)]),
}
with open(os.path.join(os.path.dirname(__file__), "data",
                       "hyper_4f3_snapshot.json"), encoding="utf-8") as _fh:
    HYPER_4F3_SNAPSHOT = json.load(_fh)

# exact binary values (sign, mantissa, exponent, bitcount) of the first 60
# negative zeros of Ai ("0@dps") and Ai' ("1@dps"), as returned by the
# Newton iteration on the Airy series that the Taylor march replaced
AIRY_ZERO_SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "data",
                                       "airy_zero_snapshot.json")
with open(AIRY_ZERO_SNAPSHOT_PATH, encoding="utf-8") as _fh:
    AIRY_ZERO_SNAPSHOT = json.load(_fh)


def close(a, b, eps):
    return abs(mp.mpmathify(a) - mp.mpmathify(b)) < mp.mpf(eps)


def airy_march_precision(monkeypatch, dps):
    """(P, tol, working digits) of the march of Ai(-t) that
    `airy_negative_zeros(30, 0, dps)` runs: a fresh `_airy_march(P, tol)`,
    iterated inside `mp.workdps` of those digits, walks the same march."""
    march, seen = numerics._airy_march, []

    def spy(P, tol):
        seen.append((P, tol, mp.mp.dps))
        return march(P, tol)

    monkeypatch.setattr(numerics, "_airy_march", spy)
    airy_negative_zeros(30, 0, dps)
    (P, tol, working_dps), = seen
    return P, tol, working_dps


class TestGamma:
    def test_half_integer(self):
        with mp.workdps(40):
            assert close(gamma(mp.mpf("0.5"), 35), mp.sqrt(mp.pi), "1e-33")

    def test_factorial(self):
        assert close(gamma(6, 30), 120, "1e-27")

    @pytest.mark.parametrize("x", [0, -1, -7])
    def test_poles(self, x):
        with pytest.raises(GammaPoleError):
            gamma(x)


class TestIntegerSequences:
    def test_bernoulli(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(12) == Fraction(-691, 2730)
        assert bernoulli_number(7) == 0

    def test_bernoulli_against_mpmath(self):
        # the tangent-number recurrence gives every B_n exactly, odd n and
        # n = 1 included
        for n in range(201):
            p, q = mp.bernfrac(n)
            assert bernoulli_number(n) == Fraction(int(p), int(q)), n

    def test_euler(self):
        assert [euler_number(n) for n in range(0, 9, 2)] == \
            [1, -1, 5, -61, 1385]
        assert euler_number(3) == 0

    def test_genocchi_vs_bernoulli(self):
        # G_n = 2 (1 - 2^n) B_n
        for n in range(2, 16, 2):
            assert genocchi_number(n) == 2 * (1 - 2 ** n) * bernoulli_number(n)


def _alternating_partial_sum(s, a, digits):
    """sum_{k<K} (-1)^k (k+a)^(-s), with K large enough that the first
    omitted term, which bounds the remainder, is below 10^-digits of the
    first term."""
    K = int(a * mp.mpf(10) ** (mp.mpf(digits) / s)) + 1
    return mp.fsum((-1) ** k * (k + a) ** (-s) for k in range(K))


class TestAlternatingHurwitz:
    # below the pole, near it, on it (digamma form) and beyond
    @pytest.mark.parametrize("s", ["2/3", "31/32", "1", "2", "5/2", "3",
                                   "7/2"])
    @pytest.mark.parametrize("a", ["1/2", "11/2", "61/2"])
    def test_against_lerchphi(self, s, a):
        with mp.workdps(20):
            s, a = mp.mpmathify(Fraction(s)), mp.mpmathify(Fraction(a))
            ref = mp.re(mp.lerchphi(-1, s, a))
            value, = alternating_hurwitz_many([s], a)
            assert abs(value / ref - 1) < mp.mpf("1e-18")

    # mpmath's lerchphi rounds these tiny values to an absolute error, so
    # the reference is a direct partial sum with a bounded remainder
    @pytest.mark.parametrize("s", ["12", "25/2", "25", "79/2", "40"])
    @pytest.mark.parametrize("a", ["1/2", "11/2", "61/2"])
    def test_large_order_against_direct_sum(self, s, a):
        with mp.workdps(30):
            s, a = mp.mpmathify(Fraction(s)), mp.mpmathify(Fraction(a))
            ref = _alternating_partial_sum(s, a, 24)
            value, = alternating_hurwitz_many([s], a)
            assert abs(value / ref - 1) < mp.mpf("1e-20")

    def test_digamma_branch_is_continuous(self):
        # s = 1 takes the digamma form; its neighbours take the zeta form
        with mp.workdps(30):
            a = mp.mpf("5.5")
            at = alternating_hurwitz_many([1], a)[0]
            for ds in ("1e-12", "-1e-12"):
                near = alternating_hurwitz_many([1 + mp.mpf(ds)], a)[0]
                assert abs(near - at) < mp.mpf("1e-11")

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError):
            alternating_hurwitz_many([2], 0)


# the alternating grid above plus the runs e0 + 2r that the tail sums ask for
HURWITZ_EXPONENTS = ["2/3", "31/32", "3/2", "2", "5/2", "3", "7/2", "15/2",
                     "12", "25/2", "25", "79/2", "40"]
HURWITZ_SHIFTS = ["1/4", "1/2", "3/4", "21/4", "21/2", "61/4", "121/4",
                  "121/2"]


def _hurwitz_grid():
    """The exponent grid, plus the runs e0 + 2r (r = 0..4) for e0 = 10/3 and
    18/5, formed in mpf arithmetic as the tail sums form them."""
    out = [mp.mpmathify(Fraction(e)) for e in HURWITZ_EXPONENTS]
    for e0 in (Fraction(10, 3), Fraction(18, 5)):
        out += [mp.mpmathify(e0) + 2 * r for r in range(5)]
    return out


class TestHurwitzMany:
    @pytest.mark.parametrize("dps", [16, 30, 41, 75])
    @pytest.mark.parametrize("a", HURWITZ_SHIFTS)
    def test_within_one_ulp_of_doubled_precision(self, dps, a):
        with mp.workdps(dps):
            a = mp.mpmathify(Fraction(a))
            grid = _hurwitz_grid()
            vals = hurwitz_many(grid, a)
            for e, v in zip(grid, vals):
                # mpmath.zeta sums to an absolute tolerance: the reference
                # gets the magnitude of a^-e back as extra digits
                extra = max(0, int(e * mp.log10(a))) + 10
                with mp.workdps(2 * dps + extra):
                    ref = mp.zeta(e, a)
                ulp = mp.mpf(2) ** (mp.mag(v) - mp.mp.prec)
                assert abs(v - ref) <= ulp, (dps, a, e)

    @pytest.mark.parametrize("dps", [16, 41])
    @pytest.mark.parametrize("a", ["1/4", "21/4", "121/4"])
    def test_batch_equals_single_calls(self, dps, a):
        with mp.workdps(dps):
            a = mp.mpmathify(Fraction(a))
            grid = _hurwitz_grid()
            batch = hurwitz_many(grid, a)
            single = [hurwitz_many([e], a)[0] for e in grid]
            assert [v._mpf_ for v in batch] == [v._mpf_ for v in single]

    def test_zeta_25_at_61_over_4_to_30_relative_digits(self):
        with mp.workdps(30):
            v = hurwitz_many([25], mp.mpf("15.25"))[0]
        with mp.workdps(120):
            ref = mp.zeta(25, mp.mpf("15.25"))
            assert abs(v / ref - 1) < mp.mpf(10) ** -30

    def test_pole_raises(self):
        with pytest.raises(SummationPoleError):
            hurwitz_many([2, 1, 3], mp.mpf("0.5"))

    def test_nonpositive_exponent_raises(self):
        with pytest.raises(DivergentSeriesError):
            hurwitz_many([2, 0], mp.mpf("0.5"))

    def test_unreachable_tail_bound_raises(self):
        # 20000 digits need x = K + a past the head limit: refused up front
        with mp.workdps(20000):
            with pytest.raises(TailBoundError):
                hurwitz_many([2], mp.mpf("0.5"))

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError):
            hurwitz_many([2], 0)
        with pytest.raises(ValueError):
            hurwitz_many([2], -1)


def _reference_taylor_step(u, P, tol_h, starts, h2):
    """The Taylor kernel in its earlier formulation, which took a reversed
    slice of each series per term, with the kernel's stop rule of n = len(u)
    small terms in a row; None where it ran out of terms (it then returned
    the unconverged sum)."""
    n = len(u)
    series = [list(pair) for pair in starts]
    d = series[0]
    scale = max(abs(d[0]), abs(d[1]))
    limit = tol_h * scale >> P
    k = 0
    run = 0
    while k <= 400:
        window = slice(k, k - n, -1) if k >= n else slice(k, None, -1)
        den = (k + 1) * (k + 2)
        source = 0
        for s in series:
            s.append(((sum(map(int.__mul__, u, s[window])) - source) >> P)
                     // den)
            source = h2 * d[k]
        k += 1
        size = abs(d[-1])
        if size > scale:
            scale = size
            limit = tol_h * scale >> P
        run = run + 1 if (k + 1) * size < limit else 0
        if k > 4 and run >= n:
            break
    else:
        return None
    return [v for s in series
            for v in (sum(s), sum(map(int.__mul__, range(len(s)), s)))]


def _step_inputs(N, E, q, h, dps, state):
    """Kernel arguments as the shooting solver's `advance` builds them for
    a step h from q at energy E in a shoot at `dps` digits, from state
    [psi, psi'] or [psi, psi', dpsi/dE, dpsi'/dE] (all floats, h of either
    sign)."""
    with working(dps, 5) as ctx:
        P = ctx.prec + 8
        tol = int(mp.ldexp(mp.mpf(10) ** (-(dps + GUARD)), P))
    q, h, e_fix = (int(math.ldexp(x, P)) for x in (q, h, E))
    state = [int(math.ldexp(v, P)) for v in state]
    shift = max(abs(state[0]), abs(state[1] * h) >> P).bit_length() - P
    state = [v >> shift if shift > 0 else v << -shift for v in state]
    u = [math.comb(N, j) * q ** (N - j) * h ** (j + 2) >> (N + 1) * P
         for j in range(N + 1)]
    u[0] -= e_fix * h * h >> 2 * P
    starts = [(state[i], state[i + 1] * h >> P)
              for i in range(0, len(state), 2)]
    return u, P, tol * abs(h) >> P, starts, h * h >> P


@st.composite
def sweep_steps(draw):
    """A step of either sweep of the shooting solver: outward (h > 0)
    from q in [0, qm] with h up to min(1, 1/sqrt(E), qt - q), but never
    less than h_osc = min(1/4, 1/(2 sqrt(E))), below the turning point qt
    and up to h_osc past it, inward (h < 0) from q in [qm, qmax] with |h|
    up to min(1, 6/rate)."""
    N = draw(st.integers(min_value=1, max_value=48))
    E = draw(st.floats(min_value=0.5, max_value=80))
    dps = draw(st.sampled_from([8, 15, 25, 40, 60]))
    qt = E ** (1 / N)
    qm = 1.2 * qt
    fraction = draw(st.floats(min_value=0, max_value=1))
    shorten = draw(st.floats(min_value=1 / 64, max_value=1))
    if draw(st.booleans()):
        q = fraction * qm
        root = math.sqrt(max(E, 1.0))
        h_osc = min(0.25, 0.5 / root)
        h = shorten * max(min(1.0 / root, qt - q), h_osc)
    else:
        q = qm + fraction * (spectrum._choose_qmax(N, E, qm, dps) - qm)
        rate = math.sqrt(max(q ** N - E, 0.0))
        h = -shorten * min(1.0, 6.0 / rate if rate > 0 else 1.0)
    # a solution is never zero: (psi, psi') has some length r
    r = draw(st.floats(min_value=0.1, max_value=2))
    angle = draw(st.floats(min_value=0, max_value=2 * math.pi))
    state = [r * math.cos(angle), r * math.sin(angle)]
    if draw(st.booleans()):
        value = st.floats(min_value=-1e3, max_value=1e3)
        state += [draw(value), draw(value)]
    return _step_inputs(N, E, q, h, dps, state)


class TestTaylorKernel:
    @given(sweep_steps())
    @settings(max_examples=80, deadline=None)
    def test_matches_reversed_slice_formulation(self, args):
        u, P, tol_h, starts, h2 = args
        assert 2 <= len(u) <= 49 and abs(h2) <= 1 << P
        ref = _reference_taylor_step(u, P, tol_h, starts, h2)
        assume(ref is not None)
        assert numerics._taylor_step(u, P, tol_h, starts, h2) == ref

    def test_sliver_step_stops_on_rounding_residue(self):
        # a step a few units of 2^-P long has tol*|h| >> P = 0, so no term
        # meets the tolerance; it stops once the terms are down to the
        # floor division's residue instead of running out of terms
        u, P, tol_h, starts, h2 = _step_inputs(2, 5.0, 2.68, 2.0 ** -118,
                                               18, [0.5, -1.5, 3.0, 1.0])
        assert tol_h == 0
        out = numerics._taylor_step(u, P, tol_h, starts, h2)
        for (d0, d1), value in zip(starts, out[::2]):
            assert abs(value - d0 - d1) <= 8

    @pytest.mark.parametrize("h", [0.25, 0.758])
    def test_steep_first_outward_step_against_exact_series(self, h):
        # the first outward step of N = 32 near its lowest '+' level, in a
        # 15-digit certificate shoot: at q0 = 0 the potential is u = [u_0,
        # 0, ..., 0, u_32], so each q^32 contribution enters 32 terms after
        # its source and the sum must not stop on the small terms between
        N, E, dps = 32, 1.7435, 25
        u, P, tol_h, starts, h2 = _step_inputs(N, E, 0.0, h, dps, [1.0, 0.0])
        psi, hdpsi = numerics._taylor_step(u, P, tol_h, starts, h2)
        with mp.workdps(80):
            # c_(k+2) (k+1)(k+2) = -E c_k + c_(k-32), with psi(0) = 1,
            # psi'(0) = 0; E and h are the doubles the kernel was given
            c = [mp.mpf(1), mp.mpf(0)]
            for k in range(400):
                c.append((c[k - N] if k >= N else 0) - E * c[k])
                c[-1] /= (k + 1) * (k + 2)
            terms = [ck * mp.mpf(h) ** k for k, ck in enumerate(c)]
            assert abs(terms[-1]) < mp.mpf(10) ** -60
            exact = (mp.fsum(terms),
                     mp.fsum(k * t for k, t in enumerate(terms)))
            d0 = starts[0][0]
            for got, want in zip((psi, hdpsi), exact):
                assert abs(mp.mpf(got) / d0 - want) < \
                    mp.mpf(10) ** -(dps + GUARD)

    def test_step_too_long_raises(self):
        # q^10 - E is near 6e4 at q = 3, so the terms of a unit step grow
        # until k is near sqrt(6e4) = 245 and need about e times that to
        # fall back below the tolerance
        args = _step_inputs(10, 1.0, 3.0, 1.0, 25, [1.0, 0.0])
        with pytest.raises(PrecisionUnreachableError,
                           match="did not converge"):
            numerics._taylor_step(*args)


class TestAiry:
    def test_taylor_coefficient_origin(self):
        with mp.workdps(40):
            assert close(airy_taylor_coefficient(0, 35), mp.airyai(0), "1e-33")
            assert close(airy_taylor_coefficient(1, 35),
                         mp.airyai(0, derivative=1), "1e-33")
            # every third coefficient past the second vanishes
            assert airy_taylor_coefficient(2, 35) == 0
            assert airy_taylor_coefficient(5, 35) == 0

    def test_origin_from_agm_is_the_gamma_form(self):
        # Ai(0) and Ai'(0) from the AGM form of Gamma(1/3) equal the Gamma
        # closed form 3^((n-2)/3) / pi sin(2(n+1)pi/3) Gamma((n+1)/3), bit
        # for bit
        for dps in [*range(5, 301), 1000]:
            for n, sign in ((0, 1), (1, -1)):
                with working(dps):
                    ref = (sign * mp.power(3, mp.mpf(n - 2) / 3) / mp.pi
                           * mp.sqrt(3) / 2 * mp.gamma(mp.mpf(n + 1) / 3))
                with mp.workdps(dps):
                    ref = +ref
                assert airy_taylor_coefficient(n, dps)._mpf_ == ref._mpf_, \
                    (n, dps)

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    @pytest.mark.parametrize("deriv", [0, 1])
    def test_negative_zero(self, k, deriv):
        with mp.workdps(40):
            ref = -mp.airyaizero(k, derivative=deriv)
            assert close(airy_negative_zeros(k, deriv, 30)[-1], ref, "1e-27")

    def test_tail_model_approaches_zero_40(self):
        # at large index the N=1 tail model's asymptotic expansion alone is
        # already very accurate; the 40th zero of Ai is level 79 of the
        # merged spectrum ('-' parity), that of Ai' level 78 ('+')
        for deriv in (0, 1):
            with mp.workdps(30):
                model = zetafns._airy_tail_model(deriv == 1)
                approx = model.energy(2 * 40 - 1 - deriv)
                assert close(approx, -mp.airyaizero(40, derivative=deriv),
                             "1e-15")

    # deep on the negative axis the march of the 100-digit zeros must keep
    # every digit of Ai and Ai', not only where they vanish: its step start
    # below t = -x, one kernel step on to t = -x
    @pytest.mark.parametrize("x", ["-20", "-25", "-27"])
    @pytest.mark.parametrize("deriv", [0, 1])
    def test_eval_deep_negative_axis(self, monkeypatch, x, deriv):
        P, tol, working_dps = airy_march_precision(monkeypatch, 100)
        stop = int(mp.ldexp(-mp.mpf(x), P))
        with mp.workdps(working_dps):
            for t, h, y, yp, *_ in numerics._airy_march(P, tol):
                if t + h > stop:
                    break
        y, yp = numerics._airy_local(t, y, yp, stop - t, P, tol)
        with mp.workdps(130):
            ref = mp.airyai(mp.mpf(x), derivative=deriv)
            assert abs(mp.mpf((-yp if deriv else y, -P)) / ref - 1) \
                < mp.mpf("1e-97")


class TestAiryZeroMarch:
    @pytest.mark.parametrize("dps", [30, 45])
    @pytest.mark.parametrize("deriv", [0, 1])
    def test_first_thirty_against_mpmath(self, dps, deriv):
        zeros = airy_negative_zeros(30, deriv, dps)
        with mp.workdps(dps + 10):
            for k, z in enumerate(zeros, start=1):
                ref = -mp.airyaizero(k, derivative=deriv)
                assert abs(z / ref - 1) < mp.mpf(10) ** (-dps)

    @pytest.mark.parametrize("deriv", [0, 1])
    def test_hundred_digits_against_mpmath(self, deriv):
        # every digit at 100 digits, past the index (about 26) where the
        # series-based Newton iteration ran out of precision
        zeros = airy_negative_zeros(30, deriv, 100)
        with mp.workdps(110):
            for k in (1, 13, 26, 30):
                ref = -mp.airyaizero(k, derivative=deriv)
                assert abs(zeros[k - 1] / ref - 1) < mp.mpf("1e-100")

    def test_grid_points_against_mpmath(self, monkeypatch):
        # deep on the negative axis the march takes about 90 steps and must
        # keep every digit: each point (t, y, y') of y(t) = Ai(-t) up to the
        # first past t = 27, beyond the 30th zero of Ai, measured against
        # the envelope |Ai| + |Ai'|/max(1, sqrt t) of the oscillation, whose
        # slope grows like sqrt t
        P, tol, working_dps = airy_march_precision(monkeypatch, 100)
        grid = []
        with mp.workdps(working_dps):
            for t, h, y, yp, y_b, yp_b, _ in numerics._airy_march(P, tol):
                grid.append((t, y, yp))
                if t + h > 27 << P:
                    grid.append((t + h, y_b, yp_b))
                    break
        assert len(grid) > 90
        with mp.workdps(130):
            for t, y, yp in grid:
                t = mp.mpf((t, -P))
                ai = mp.airyai(-t)
                dai = -mp.airyai(-t, derivative=1)
                scale = max(1, mp.sqrt(t))
                envelope = abs(ai) + abs(dai) / scale
                err = max(abs(mp.mpf((y, -P)) - ai),
                          abs(mp.mpf((yp, -P)) - dai) / scale)
                assert err < mp.mpf("1e-100") * envelope, t

    @pytest.mark.parametrize("deriv", [0, 1])
    def test_hundred_zeros_in_order(self, deriv):
        # every zero up to t = 60 at its index: a 1-rad march step (sqrt(2)
        # rad below t = 1) skips none and counts none twice
        zeros = airy_negative_zeros(100, deriv, 30)
        with mp.workdps(40):
            for k, z in enumerate(zeros, start=1):
                ref = -mp.airyaizero(k, derivative=deriv)
                assert abs(z / ref - 1) < mp.mpf(10) ** -30, k

    @pytest.mark.parametrize("deriv", [0, 1])
    def test_prefix(self, deriv):
        assert airy_negative_zeros(30, deriv, 30)[:5] == \
            airy_negative_zeros(5, deriv, 30)

    @pytest.mark.parametrize("key", sorted(AIRY_ZERO_SNAPSHOT))
    def test_bit_identical_to_snapshot(self, key):
        deriv, dps = map(int, key.split("@"))
        zeros = airy_negative_zeros(60, deriv, dps)
        assert [list(z._mpf_) for z in zeros] == AIRY_ZERO_SNAPSHOT[key]

    @staticmethod
    def _count_kernel(monkeypatch, corrupt=None):
        """Patch the Taylor kernel to record its calls, and to pass each
        result through `corrupt(calls, out)` if given; returns the calls."""
        calls = []
        step = numerics._taylor_step

        def counting(*args):
            calls.append(args)
            out = step(*args)
            return corrupt(calls, out) if corrupt else out

        monkeypatch.setattr(numerics, "_taylor_step", counting)
        return calls

    @pytest.mark.parametrize("deriv", [0, 1])
    def test_taylor_steps_per_march(self, monkeypatch, deriv):
        # from a cold start, for either parity: the march steps to t = 27,
        # where the 30th zero of Ai lies, past the 30th of Ai', then one
        # certificate step per zero of each; Newton runs on the march step's
        # own terms, with no kernel call
        calls = self._count_kernel(monkeypatch)
        march, steps = numerics._airy_march, []

        def counting(P, tol):
            for step in march(P, tol):
                steps.append(step[0])
                yield step

        monkeypatch.setattr(numerics, "_airy_march", counting)
        airy_negative_zeros(30, deriv, 45)
        assert len(steps) == 93
        assert len(calls) == 93 + 2 * 30

    def test_horner_passes_per_march(self, monkeypatch):
        # both parities of 30 zeros at 45 digits from a cold start: Newton
        # runs first in floats on each zero's march step, so the fixed point
        # takes about 2.5 Horner passes per zero and its certificate one;
        # the kernel calls are the 93 march steps and 60 certificate steps
        calls = self._count_kernel(monkeypatch)
        passes = []
        series_at = numerics._series_at

        def counting(*args):
            passes.append(args)
            return series_at(*args)

        monkeypatch.setattr(numerics, "_series_at", counting)
        numerics._airy_zero_pair.cache_clear()
        airy_negative_zeros(30, 0, 45)
        assert len(passes) <= 220
        assert len(calls) == 153

    def test_second_parity_makes_no_kernel_call(self, monkeypatch):
        # one march found both parities' zeros: at the same (count, digits)
        # the other parity takes no kernel call, and gets the zeros a cold
        # call gets, bit for bit
        calls = self._count_kernel(monkeypatch)
        for deriv in (0, 1):
            numerics._airy_zero_pair.cache_clear()
            airy_negative_zeros(30, deriv, 45)
            calls.clear()
            kept = airy_negative_zeros(30, 1 - deriv, 45)
            assert not calls
            numerics._airy_zero_pair.cache_clear()
            cold = airy_negative_zeros(30, 1 - deriv, 45)
            assert [z._mpf_ for z in kept] == [z._mpf_ for z in cold]

    def test_other_digits_march_anew(self, monkeypatch):
        # only the last (count, digits) is kept: another one in between
        # makes the first march anew
        calls = self._count_kernel(monkeypatch)
        airy_negative_zeros(5, 0, 31)
        cold = len(calls)
        for other in ((5, 30), (6, 31)):
            airy_negative_zeros(other[0], 0, other[1])
            calls.clear()
            airy_negative_zeros(5, 0, 31)
            assert len(calls) == cold

    @pytest.mark.parametrize("deriv", [0, 1])
    def test_corrupted_certificate_is_refused(self, monkeypatch, deriv):
        # the certificate step of the first zero of the parity under test
        # comes back with its value (or slope) negated: the sign at the
        # upper end then matches the one its series gives at the lower end.
        # A cold call for one zero makes five kernel calls: the march steps
        # [0, 1] and [1, 2], which holds a'_1 = 1.02, the certificate of
        # a'_1, the march step [2, 2.71], which holds a_1 = 2.34, and the
        # certificate of a_1
        calls = self._count_kernel(monkeypatch)
        airy_negative_zeros(1, deriv, 30)
        assert len(calls) == 5
        numerics._airy_zero_pair.cache_clear()
        certificate = {0: 5, 1: 3}[deriv]

        def corrupted(calls, out):
            if len(calls) == certificate:
                out[deriv] = -out[deriv]
            return out

        self._count_kernel(monkeypatch, corrupted)
        with pytest.raises(CertificationError, match="no sign change"):
            airy_negative_zeros(1, deriv, 30)

    def test_spurious_sign_change_is_refused(self, monkeypatch):
        # the first grid step comes back with its value negated: the grid
        # shows a sign change, but Newton on the step's own series finds no
        # zero inside it
        step = numerics._taylor_step
        calls = []

        def corrupted(*args):
            out = step(*args)
            calls.append(args)
            if len(calls) == 1:
                out[0] = -out[0]
            return out

        monkeypatch.setattr(numerics, "_taylor_step", corrupted)
        with pytest.raises(CertificationError, match="left its grid step"):
            airy_negative_zeros(1, 0, 30)

    def test_lost_solution_is_refused(self, monkeypatch):
        # a kernel whose slope comes back 1000 times too steep marches a
        # solution that only grows; the march stops where the first zero
        # must lie instead of marching on
        step = numerics._taylor_step

        def steep(*args):
            out = step(*args)
            out[1] *= 1000
            return out

        monkeypatch.setattr(numerics, "_taylor_step", steep)
        with pytest.raises(CertificationError, match="found 0 of 1 zeros"):
            airy_negative_zeros(1, 0, 30)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            airy_negative_zeros(0, 0, 30)
        with pytest.raises(ValueError):
            airy_negative_zeros(3, 2, 30)


class TestHyper4F3:
    def test_against_mpmath(self):
        upper = [Fraction(4, 10), Fraction(5, 10), Fraction(6, 10), 1]
        lower = [Fraction(12, 10), Fraction(13, 10), Fraction(14, 10)]
        with mp.workdps(40):
            ref = mp.hyper([mp.mpf("0.4"), mp.mpf("0.5"), mp.mpf("0.6"), 1],
                           [mp.mpf("1.2"), mp.mpf("1.3"), mp.mpf("1.4")], 1)
            assert close(hyper_4f3(upper, lower, 30), ref, "1e-27")

    def test_precision_scaling(self):
        upper = [Fraction(6, 10), Fraction(7, 10), Fraction(8, 10), 1]
        lower = [Fraction(14, 10), Fraction(15, 10), Fraction(16, 10)]
        v_lo = hyper_4f3(upper, lower, 20)
        v_hi = hyper_4f3(upper, lower, 40)
        assert close(v_lo, v_hi, "1e-18")

    @pytest.mark.parametrize("key", sorted(HYPER_4F3_SNAPSHOT))
    def test_bit_identical_to_snapshot(self, key):
        name, dps = key.split("@")
        upper, lower = CATALOG_4F3[name]
        assert list(hyper_4f3(upper, lower, int(dps))._mpf_) == \
            HYPER_4F3_SNAPSHOT[key]

    def test_no_quadrature_or_polygamma(self, monkeypatch):
        # the tail is one Hurwitz batch in inverse powers of k
        def refuse(*args, **kwargs):
            raise AssertionError("hyper_4f3 must not call this")

        for name in ("quad", "psi", "loggamma"):
            monkeypatch.setattr(mp, name, refuse)
        upper, lower = CATALOG_4F3["cubic_full2"]
        assert list(hyper_4f3(upper, lower, 50)._mpf_) == \
            HYPER_4F3_SNAPSHOT["cubic_full2@50"]

    def test_short_tail_fails_the_second_cut(self, monkeypatch):
        # a tail summed with only three inverse powers (J = 3) misses by
        # about K^-3, which the cut at 2K sees
        batch = numerics.hurwitz_many
        monkeypatch.setattr(numerics, "hurwitz_many",
                            lambda exps, a: batch(exps[:3], a))
        upper, lower = CATALOG_4F3["cubic_minus2"]
        with pytest.raises(TailBoundError, match="disagree"):
            hyper_4f3(upper, lower, 30)

    def test_integer_parameters_sum_to_zeta3(self):
        # t_k = 1/(k+1)^3
        with mp.workdps(40):
            assert close(hyper_4f3([1, 1, 1, 1], [2, 2, 2], 30), mp.zeta(3),
                         "1e-29")

    def test_terminating_series_is_a_finite_sum(self):
        upper = [-3, Fraction(1, 2), Fraction(1, 3), 1]
        lower = [Fraction(5, 2), Fraction(7, 3), 2]
        with mp.workdps(40):
            ref = mp.hyper([-3, mp.mpf(1) / 2, mp.mpf(1) / 3, 1],
                           [mp.mpf(5) / 2, mp.mpf(7) / 3, 2], 1)
            assert close(hyper_4f3(upper, lower, 30), ref, "1e-29")
        assert hyper_4f3([0, 1, 1, 1], [2, 2, 2], 20) == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            hyper_4f3([1, 1, 1], [2, 2, 2], 20)
        with pytest.raises(DivergentSeriesError):
            hyper_4f3([1, 1, 1, 1], [1, 1, 1], 20)
        with pytest.raises(DivergentSeriesError):
            hyper_4f3([1, 1, 1, 1], [-2, 5, 5], 20)
