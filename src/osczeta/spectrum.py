"""High-precision eigenvalues of -d^2/dq^2 + |q|^N on the half line.

The Neumann condition at q=0 (parity '+') selects the even eigenfunctions of
the full-line operator, the Dirichlet condition (parity '-') the odd ones.
Eigenvalues are found by matching an outward power-series integration from
q=0 against an inward integration carrying decaying initial data.  One
kernel does all the integration: `numerics._taylor_step`, a high-order
Taylor recurrence on Python integers in fixed point, which on request also
carries dpsi/dE.  A shoot `_shoot(..., dps)` computes the matching Wronskian
W to about `dps` digits: dps + GUARD + 5 working digits, outward Taylor
steps summed to 10^-(dps+GUARD), and an inward start where the WKB action A
from the matching point reaches half of dps ln 10.  An error made inward at
action A dies by e^(-2A) relative to the wanted solution before it reaches
the matching point, except for its part along that solution, which only
rescales the inward state and cancels from W: so the start's error is down
to 10^-dps there, and an inward step whose inner end lies at A is summed to
10^-(dps+GUARD) e^(1.8 A), never coarser than 10^-GUARD.  The outward
sweep counts nodes by the sign of psi at step ends.  In Pruefer form, psi =
r sin(theta) and psi' = r sqrt(E) cos(theta), the phase obeys theta' <=
sqrt(E) and rises through every node, so below the turning point E^(1/N)
steps of min(1, 1/sqrt E) advance it by at most 1 rad < pi and still count
every node; past the turning point the steps shorten to min(1/4, 1/(2 sqrt
E)), which keeps the Taylor order bounded where q^N climbs.  The inward
sweep counts none and steps h = min(1, 10/rate), rate = sqrt(q^N - E),
because at high precision a longer step needs fewer Taylor terms per unit
length (Jorba & Zou, Exp. Math. 14, 2005).  Newton on the Wronskian starts
at the Bohr-Sommerfeld prediction b0 E^mu + b1 E^-mu = 2 pi (k + 1/2) of
the level itself, so no level depends on another, and climbs a ladder of
shoots at the digits the last step earned, until it has a few digits more
than the certificate's bracket.  That certificate is the only acceptance
test: a Wronskian sign change at dps + 10 digits across a relative bracket
of 10^-(dps+4)/2 around the ladder's last iterate, and a count of
eigenfunction nodes below it; the eigenvalue is the chord of that pair.  A
pair without a sign change is the last Newton step: its chord, if close,
is shot again.  That is the whole solver: a start that leaves the window
between the neighbouring predictions, does not converge or fails the
certificate raises CertificationError.

For N=1 the odd/even eigenvalues are exactly the negated zeros of Ai / Ai',
and the solver takes that fast path: `numerics.airy_negative_zeros` marches
Ai(-t) through all of them on the same kernel, in the outward sweep's steps
below the turning point, 1/sqrt(max(t, 1)), which the same Pruefer bound
keeps below sqrt(2) rad.  Both parities are zeros of the same function or
its derivative, so one march finds both, and the second parity at the same
count and digits costs no kernel call.  It finds each zero by Newton on the
Taylor series of the step that holds it, certifies it by a sign change
across it from one kernel step and that step's series, and its index by its
place in the march.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath
from mpmath import mpf

from .errors import BracketFailureError, CertificationError
from .numerics import _taylor_step, airy_negative_zeros
from .precision import DEFAULT_DPS, GUARD, rounded, working

PARITIES = ("+", "-")


@dataclasses.dataclass(frozen=True)
class SpectrumRecord:
    """First eigenvalues of one parity sector, with precision certificates."""
    N: int
    parity: str
    eigenvalues: tuple
    certified_digits: tuple

    def __post_init__(self):
        if self.parity not in PARITIES:
            raise ValueError("parity must be '+' or '-'")
        evs = self.eigenvalues
        if any(e <= 0 for e in evs):
            raise ValueError("eigenvalues must be positive")
        if any(b <= a for a, b in zip(evs, evs[1:])):
            raise ValueError("eigenvalues must be strictly increasing")

    def __len__(self):
        return len(self.eigenvalues)

    def prefix(self, count: int) -> "SpectrumRecord":
        """The first `count` levels."""
        return dataclasses.replace(
            self, eigenvalues=self.eigenvalues[:count],
            certified_digits=self.certified_digits[:count])

    def full_index(self, j: int) -> int:
        """Index of the j-th eigenvalue of this parity within the merged
        spectrum (even k for '+', odd k for '-')."""
        return 2 * j + (0 if self.parity == "+" else 1)

    def to_rows(self):
        return [
            {"N": self.N, "parity": self.parity, "k": j,
             "E": mpmath.nstr(e, d, strip_zeros=False),
             "certified_digits": d}
            for j, (e, d) in enumerate(zip(self.eigenvalues,
                                           self.certified_digits))
        ]


def merged_spectrum(plus: SpectrumRecord, minus: SpectrumRecord):
    """Interleave the two parity sectors into the full-line spectrum."""
    out = []
    for pair in zip(plus.eigenvalues, minus.eigenvalues):
        out.extend(pair)
    if len(plus) == len(minus) + 1:
        out.append(plus.eigenvalues[-1])
    return out


# --------------------------------------------------------------------------
# Semiclassical prediction
# --------------------------------------------------------------------------

def _b0_float(N: int) -> float:
    """Leading counting coefficient (float grade; exact version in zetafns)."""
    return (4.0 / N) * math.gamma(1.0 / N) * math.gamma(1.5) / math.gamma(1.0 / N + 1.5)


def _b1_float(N: int) -> float:
    """First counting correction, N >= 2 (float grade; exact in zetafns)."""
    a = 1.0 - 1.0 / N
    return (-(N - 1) * (N - 2) / (12.0 * N) * math.gamma(a) * math.gamma(0.5)
            / math.gamma(a + 0.5))


def _predicted_energy(N: int, k_full: float) -> float:
    """Bohr-Sommerfeld inversion of b0 E^mu + b1 E^-mu = 2pi (k + 1/2), the
    root x = E^mu > 0 of b0 x^2 - 2pi (k + 1/2) x + b1 (b1 <= 0): exact for
    N = 2, within 0.4% from level 1 on for N <= 10, 5-9% at level 0 of '+'."""
    mu = (N + 2) / (2.0 * N)
    b0, c = _b0_float(N), 2.0 * math.pi * (k_full + 0.5)
    x = (c + math.sqrt(c * c - 4.0 * b0 * _b1_float(N))) / (2.0 * b0)
    return x ** (1.0 / mu)


# --------------------------------------------------------------------------
# Power-series ODE stepping in integer fixed point
# --------------------------------------------------------------------------

def _forbidden_rate(N: int, E: float, q: float) -> float:
    return math.sqrt(max(q ** N - E, 0.0))


#: growth rate, per unit of WKB action from the matching point qm, of the
#: tolerance of an inward step (see `_shoot`): an error made at action A
#: dies by e^(-2A) on its way to qm, and 1.8 < 2 leaves it e^(-0.2 A) below
#: tol, a margin for the float estimate of A
INWARD_RELAX = 1.8


def _choose_qmax(N: int, E: float, qm: float, decades: float) -> float:
    """Smallest grid point where the WKB action from qm exceeds half the
    target number of decimal decades (float estimate; errors land far below
    the arithmetic noise floor).

    The inward sweep starts from decaying WKB data at qmax.  Its error there
    is some multiple of the other solution, which decays inward as e^(-A)
    while the wanted one grows as e^A, so at qm the contamination relative
    to the wanted solution is down by e^(-2A): A = decades ln(10) / 2 buys
    the full 10^-decades."""
    target = decades * math.log(10.0) / 2
    q = qm
    acc = 0.0
    step = max(0.1, 0.05 * qm)
    while acc < target:
        r0 = _forbidden_rate(N, E, q)
        r1 = _forbidden_rate(N, E, q + step)
        acc += 0.5 * (r0 + r1) * step
        q += step
        if q > qm + 1e4:
            raise BracketFailureError("forbidden region too shallow")
    return q


def _shoot(N: int, E, parity: str, dps: int, slope: bool = False):
    """Integrate outward and inward, returning (normalized Wronskian at the
    matching point, outward node count, Newton step -W/(dW/dE) or None),
    with W good to about `dps` digits: the arithmetic carries dps + GUARD +
    5 digits, each outward Taylor step is summed to 10^-(dps+GUARD), the
    inward sweep starts `dps` decades deep, and each inward step is summed
    to 10^-(dps+GUARD) e^(INWARD_RELAX A), A the WKB action from qm to its
    inner end (a float estimate, Simpson's rule on each step), but never
    coarser than 10^-GUARD.

    Positions, steps and E are integers in fixed point with P = prec + 8
    bits.  Each step first rescales the state [psi, psi'] (with `slope` also
    dpsi/dE, dpsi'/dE) by one power of two so max(|psi|, |psi' h|) has P
    bits."""
    with working(dps, 5) as ctx:
        P = ctx.prec + 8
        one = 1 << P
        tol = int(mpmath.ldexp(mpf(10) ** (-(dps + GUARD)), P))
        Ef = float(E)
        qt_f = Ef ** (1.0 / N)
        qm_f = 1.2 * qt_f
        qmax_f = _choose_qmax(N, Ef, qm_f, dps)
        e_fix = int(mpmath.ldexp(E, P))

        def advance(q, h, state, tol=tol):
            shift = max(abs(state[0]), abs(state[1] * h) >> P).bit_length() - P
            state[:] = [v >> shift if shift > 0 else v << -shift for v in state]
            u = [math.comb(N, j) * q ** (N - j) * h ** (j + 2) >> (N + 1) * P
                 for j in range(N + 1)]
            u[0] -= e_fix * h * h >> 2 * P
            starts = [(state[i], state[i + 1] * h >> P)
                      for i in range(0, len(state), 2)]
            sums = _taylor_step(u, P, tol * abs(h) >> P, starts, h * h >> P)
            # odd entries come back as h times the derivative
            state[:] = [v if i % 2 == 0 else (v << P) // h
                        for i, v in enumerate(sums)]

        # outward sweep, counting nodes by the sign of psi at step ends.
        # With psi = r sin(theta), psi' = r sqrt(E) cos(theta) the phase
        # obeys theta' = sqrt(E) cos^2 + (E - q^N)/sqrt(E) sin^2 <= sqrt(E),
        # and theta' > 0 where sin(theta) = 0, so a step of at most
        # 1/sqrt(max(E, 1)) advances theta by at most 1 rad < pi and passes
        # each node once.  Below the turning point qt the steps are that
        # long, up to qt; from there to qm they are h_osc, short enough that
        # the Taylor order stays bounded as q^N climbs (a step that would
        # stop short of qt by less than h_osc takes h_osc instead)
        root = math.sqrt(max(Ef, 1.0))
        h_long = int(mpmath.ldexp(min(1.0, 1.0 / root), P))
        h_osc = int(mpmath.ldexp(min(0.25, 0.5 / root), P))
        qt = int(mpmath.ldexp(qt_f, P))
        qm = int(mpmath.ldexp(qm_f, P))
        out = ([one, 0] if parity == "+" else [0, one]) + [0, 0] * slope
        q = 0
        nodes = 0
        positive = True  # psi starts at 1, or rises from 0 with slope 1
        while q < qm:
            h = min(max(min(h_long, qt - q), h_osc), qm - q)
            advance(q, h, out)
            q += h
            if out[0] and (out[0] > 0) != positive:
                nodes += 1
                positive = not positive

        # inward sweep with decaying WKB data; no node is counted here, so
        # a step may span up to 10 local decay lengths 1/rate.  A step whose
        # inner end lies at action A from qm is summed to tol e^(INWARD_RELAX
        # A), rounded down to a power of two, but never coarser than 10^-GUARD
        qmax = mpf(qmax_f)
        V = qmax ** N
        yp = -mpmath.sqrt(V - E) - N * qmax ** (N - 1) / (4 * (V - E))
        inn = [one, int(mpmath.ldexp(yp, P))] + [0, 0] * slope
        steps = []
        q = int(mpmath.ldexp(qmax, P))
        while q > qm:
            q_f = q / one
            rate = _forbidden_rate(N, Ef, q_f)
            h = min(1.0, 10.0 / rate if rate > 0 else 1.0)
            h = min(int(mpmath.ldexp(h, P)), q - qm)
            h_f = h / one
            # the step's action, by Simpson's rule
            action = h_f / 6 * (rate + _forbidden_rate(N, Ef, q_f - h_f)
                                + 4 * _forbidden_rate(N, Ef, q_f - h_f / 2))
            steps.append((q, h, action))
            q -= h
        coarsest = int(mpmath.ldexp(mpf(10) ** -GUARD, P))
        A = sum(action for *_, action in steps)
        for q, h, action in steps:
            A -= action         # at the step's inner end
            advance(q, -h, inn, min(
                tol << int(INWARD_RELAX / math.log(2) * A), coarsest))

        y_o, yp_o, y_i, yp_i = out[0], out[1], inn[0], inn[1]
        w = mpf(yp_o * y_i - y_o * yp_i)
        norm = mpmath.sqrt(mpf(y_o ** 2 + yp_o ** 2) * mpf(y_i ** 2 + yp_i ** 2))
        step = -w / (out[3] * y_i + yp_o * inn[2] - out[2] * yp_i
                     - y_o * inn[3]) if slope else None
        return w / norm, nodes, step


# Decimal digits of Newton's first shoots; a certificate pair's chord is shot
# again if it moves e by less than 10^-START_DPS.
START_DPS = 8

# Digits beyond d to which the Newton step of a ladder shoot at d digits is
# taken to leave the eigenvalue, when _polish decides whether its iterate is
# close enough to certify.  The shoot sums its Taylor steps to
# 10^-(d+GUARD), and over the N <= 10 levels at 30 and 50 digits its step
# was good to d + 4 to d + 7; a certificate pair that misses the root takes
# its chord as one more step.  A smaller value adds ladder shoots; a larger
# one adds certificate pairs.
LADDER_EXCESS = 8


def _polish(N: int, parity: str, e, dps: int, window):
    """Newton ladder on the matching Wronskian from the energy e.

    A step of relative size 10^-got leaves an error near 10^-2got, so the
    next shoot runs at min(dps, 2 got + 4) digits, never fewer than the
    last.  These shoots work to their own digits: one at d digits vouches
    for at most d digits of got and leaves e good to about
    min(2 got, d + LADDER_EXCESS) digits.  e is returned once that reaches
    dps + 7, two to three digits inside the certificate's half-width
    10^-(dps+4)/4; _certified accepts it or not.  A ladder iterate outside
    `window` (lo, hi) and a ladder that does not get there raise
    CertificationError; a start that converges to the wrong level is caught
    by the certificate's node count."""
    with working(dps, 15):
        e = mpf(e)
        digits = START_DPS
        for _ in range(dps + 60):
            _, _, step = _shoot(N, e, parity, digits, slope=True)
            rel = abs(step / e)
            e += step
            if not window[0] <= e <= window[1]:
                raise CertificationError(
                    f"Newton left its window for N={N} parity={parity}")
            got = min(int(-mpmath.log10(rel)) if rel else dps, digits)
            if min(2 * got, digits + LADDER_EXCESS) >= dps + 7:
                return e
            digits = max(digits, min(dps, 2 * got + 4))
    raise CertificationError(
        f"Newton polish did not converge for N={N} parity={parity}")


def _solve_one(N: int, parity: str, j: int, dps: int):
    """Locate the j-th eigenvalue of the parity sector and certify it: the
    Wronskian changes sign across e (1 +- 10^-(dps+4)/4) at full precision,
    and the outward solution below it has j nodes.  Newton starts at the
    level's own prediction, inside the window between the predictions of
    its neighbours in the merged spectrum (from a quarter of level 0's at
    the bottom)."""
    kf = 2 * j + (0 if parity == "+" else 1)
    lo = _predicted_energy(N, kf - 1) if kf >= 1 \
        else 0.25 * _predicted_energy(N, 0)
    hi = _predicted_energy(N, kf + 1)
    return _certified(N, parity, j, dps, _polish(
        N, parity, _predicted_energy(N, kf), dps, (lo, hi)))


def _certified(N: int, parity: str, j: int, dps: int, e):
    """The certificate of _solve_one, the only test that accepts a level:
    the Wronskian at dps + 10 digits changes sign across e (1 +- delta),
    delta = 10^-(dps+4)/4, and the outward solution at the lower end has j
    nodes.  Returns the chord of that pair, which lies inside it, rounded
    to dps digits.  A pair without a sign change is a Newton step: its
    chord becomes e, if it moves e by less than 10^-START_DPS, and is shot
    again, three pairs in all.  Otherwise CertificationError."""
    with working(dps, 15):
        delta = mpf(10) ** (-(dps + 4)) / 4
        for pair in range(3):
            lo, hi = e * (1 - delta), e * (1 + delta)
            w_lo, nodes, _ = _shoot(N, lo, parity, dps + 10)
            w_hi, _, _ = _shoot(N, hi, parity, dps + 10)
            chord = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
            if w_lo * w_hi <= 0:
                break
            if pair == 2 or not abs(chord - e) < e * mpf(10) ** -START_DPS:
                raise CertificationError(
                    f"no Wronskian sign change around {mpmath.nstr(e, 20)} "
                    f"for N={N} parity={parity}")
            e = chord
    if nodes != j:
        raise CertificationError(
            f"node count {nodes} != index {j} for N={N} parity={parity}")
    return rounded(chord, dps)


def _airy_record(parity: str, count: int, dps: int) -> SpectrumRecord:
    """N=1 closed route: eigenvalues are negated zeros of Ai (Dirichlet)
    or of Ai' (Neumann)."""
    evs = tuple(airy_negative_zeros(count, 1 if parity == "+" else 0, dps))
    return SpectrumRecord(1, parity, evs, (dps,) * count)


def eigenvalues(N: int, parity: str, count: int,
                dps: int = DEFAULT_DPS) -> SpectrumRecord:
    """First `count` eigenvalues of -d^2/dq^2 + q^N (q >= 0) with a Neumann
    ('+') or Dirichlet ('-') condition at the origin."""
    if N < 1 or count < 1:
        raise ValueError("need N >= 1 and count >= 1")
    if parity not in PARITIES:
        raise ValueError("parity must be '+' or '-'")
    if N == 1:
        return _airy_record(parity, count, dps)
    evs = tuple(_solve_one(N, parity, j, dps) for j in range(count))
    return SpectrumRecord(N, parity, evs, (dps,) * count)


# --------------------------------------------------------------------------
# Diagnostics
# --------------------------------------------------------------------------

def counting_check(record: SpectrumRecord) -> dict:
    """Compare each eigenvalue against the semiclassical counting function
    (b0/2pi) E^mu = k + 1/2; a jump of about one unit between consecutive
    residuals flags a missed (or spurious) eigenvalue."""
    if len(record) < 5:
        raise ValueError("need at least 5 eigenvalues")
    N = record.N
    mu = (N + 2) / (2.0 * N)
    b0 = _b0_float(N)
    residuals = []
    for j, e in enumerate(record.eigenvalues):
        kf = record.full_index(j)
        residuals.append(b0 / (2 * math.pi) * float(e) ** mu - (kf + 0.5))
    jumps = [abs(b - a) for a, b in zip(residuals, residuals[1:])]
    flagged = any(j > 0.6 for j in jumps)
    return {
        "N": N,
        "parity": record.parity,
        "residuals": residuals,
        "max_abs_residual_tail": max(abs(r) for r in residuals[2:]) if len(residuals) > 2 else None,
        "missed_eigenvalue_flag": flagged,
    }
