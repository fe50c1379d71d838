"""Cross-verification battery: every symbolic identity is re-evaluated
numerically and every closed form is checked against an independent route
(eigenvalue sums, series expansions, or a second exact expression).

The battery is organized as one list of CheckRecord per degree N; a
VerificationReport aggregates them with run metadata.  Reports are
deterministic for a fixed configuration.
"""

from __future__ import annotations

import dataclasses
import json

import mpmath as mp

from . import closedforms as cforms
from .precision import DEFAULT_DPS, agree_digits, working
from .spectrum import counting_check, eigenvalues
from .sumrules import derive_sum_rules, solved_form
from .sympoly import ZKind, ZSymbol
from .zetafns import (KINDS, bohr_sommerfeld_b0, determinant_series,
                      functional_eq_residual, zeta_values)

# past ~30 digits the Euler-Maclaurin tail, not the eigenvalue accuracy,
# limits every EM-based check, so higher spectral precision is wasted time
SPECTRAL_DPS_CAP = 30

# the Airy checks sum this many N=1 eigenvalues per parity
AIRY_LEVELS = 30

FUNCEQ_LAMBDAS = ("0.25", "-0.2", "0.12", "-0.08", "0.03")


@dataclasses.dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str                 # human-readable statement of the identity
    symbolic: str               # reference side, rendered at check precision
    numeric: str                # independently computed side
    residual: str
    digits_agreed: int
    tolerance: str
    passed: bool

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class VerificationReport:
    records: tuple
    digits: int
    eigencount: int
    n_list: tuple
    # {N: (plus_record, minus_record)} as solved; not serialized
    spectra: dict = dataclasses.field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self):
        return [r for r in self.records if not r.passed]

    def to_text(self) -> str:
        lines = [f"verification battery: digits={self.digits} "
                 f"eigencount={self.eigencount} N={list(self.n_list)}"]
        for r in self.records:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"[{mark}] {r.check_id:26s} residual={r.residual:>12s}"
                         f" tol={r.tolerance:>9s}  {r.anchor}")
        n_fail = len(self.failures())
        lines.append(f"{len(self.records)} checks, {n_fail} failure(s)")
        return "\n".join(lines)

    def to_json(self) -> str:
        meta = {"digits": self.digits, "eigencount": self.eigencount,
                "n_list": list(self.n_list)}
        return json.dumps({"meta": meta, "passed": self.passed,
                           "checks": [r.to_json_dict() for r in self.records]},
                          indent=2)


def _fmt(x, digits=20) -> str:
    return mp.nstr(mp.mpmathify(x), digits)


def _check(check_id, anchor, symbolic, numeric, tol) -> CheckRecord:
    # residual arithmetic at high fixed precision, independent of ambient dps
    with mp.mp.workdps(130):
        symbolic = mp.mpmathify(symbolic)
        numeric = mp.mpmathify(numeric)
        residual = abs(symbolic - numeric)
        agreed = agree_digits(symbolic, numeric)
        passed = bool(residual <= mp.mpf(tol))
    return CheckRecord(
        check_id=check_id, anchor=anchor,
        symbolic=_fmt(symbolic), numeric=_fmt(numeric),
        residual=_fmt(residual, 3), digits_agreed=agreed,
        tolerance=_fmt(tol, 3), passed=passed)


def _residual_check(check_id, anchor, residual, tol) -> CheckRecord:
    residual = abs(mp.mpmathify(residual))
    return CheckRecord(
        check_id=check_id, anchor=anchor, symbolic="0", numeric=_fmt(residual, 3),
        residual=_fmt(residual, 3), digits_agreed=0,
        tolerance=_fmt(tol, 3), passed=bool(residual <= mp.mpf(tol)))


def spectral_dps(N: int, digits: int) -> int:
    """Spectral precision for a run at `digits`: capped at SPECTRAL_DPS_CAP,
    except N=1, whose Airy-zero spectra stay cheap up to 45 digits."""
    return min(digits, 45 if N == 1 else SPECTRAL_DPS_CAP)


def compute_spectra(N: int, count: int, digits: int):
    dps = spectral_dps(N, digits)
    return (eigenvalues(N, "+", count, dps),
            eigenvalues(N, "-", count, dps))


def em_zeta_table(N, recs, n_max, dps):
    """{(kind, n): ZetaValue} for n = 1..n_max (orders below the abscissa
    of convergence are silently skipped)."""
    mu = mp.mpf(N + 2) / (2 * N)
    return zeta_values(N, recs, [(kind, n) for n in range(1, n_max + 1)
                                 for kind in KINDS
                                 if kind == "twisted" or n > mu], dps)


def _symbol_values(N, table, digits):
    """Numeric substitution map for derived identities: EM values where
    convergent, closed forms below the abscissa."""
    vals = {}
    n_max = max(n for _, n in table)
    for n in range(1, n_max + 1):
        for kind, zkind in (("full", ZKind.ZFULL), ("twisted", ZKind.ZTWISTED)):
            if (kind, n) in table:
                vals[ZSymbol(zkind, n)] = table[(kind, n)].value
            else:
                vals[ZSymbol(zkind, n)] = cforms.closed_form_eval(
                    f"Z1.{kind}", N, digits)
    return vals


def _em_tolerance(table, orders):
    """10^-(certified digits - 3): the weakest input's certificate with a
    small allowance for error amplification through the identity."""
    cert = min(table[k].certified_digits for k in orders if k in table)
    return mp.mpf(10) ** (-(cert - 3))


# ---------------------------------------------------------------------------
# per-N check builders
# ---------------------------------------------------------------------------

def _common_checks(N, recs, table, idents, digits):
    out = []
    cf = cforms.closed_form_eval

    # Z'(0) split consistency (closed forms only)
    tol = mp.mpf(10) ** (-(digits - 5))
    out.append(_check(
        f"N{N}.prime0.split", "Z'(0) = Z+'(0) + Z-'(0)",
        cf("Z0.fullPrime", N, digits),
        cf("Z0.plusPrime", N, digits) + cf("Z0.minusPrime", N, digits), tol))

    # twisted s=1 closed form vs eigenvalue sum
    zv = table[("twisted", 1)]
    out.append(_check(
        f"N{N}.zp1.em", "alternating zeta at 1: closed form vs spectrum",
        cf("Z1.twisted", N, digits), zv.value,
        mp.mpf(10) ** (-(zv.certified_digits - 2))))
    if N >= 3:
        zv = table[("full", 1)]
        out.append(_check(
            f"N{N}.z1.em", "zeta at 1: tan-ratio closed form vs spectrum",
            cf("Z1.full", N, digits), zv.value,
            mp.mpf(10) ** (-(zv.certified_digits - 2))))

    # the universal order-2 combination
    with working(digits):
        nu = mp.mpf(1) / (N + 2)
        combo = (mp.cos(nu * mp.pi) / mp.sin(nu * mp.pi)
                 * mp.sin(4 * nu * mp.pi) * table[("twisted", 2)].value
                 - mp.cos(4 * nu * mp.pi) * table[("full", 2)].value)
    out.append(_check(
        f"N{N}.order2.combo", "order-2 combination closed form",
        cf("ZN2", N, digits), combo, _em_tolerance(table, [("full", 2),
                                                           ("twisted", 2)])))

    # parity algebra on EM values
    for n in (2, 3):
        if ("full", n) in table:
            out.append(_check(
                f"N{N}.parity.{n}", f"full = plus + minus at s={n}",
                table[("full", n)].value,
                table[("plus", n)].value + table[("minus", n)].value,
                _em_tolerance(table, [("full", n), ("plus", n), ("minus", n)])))

    # eigenvalue-count consistency (no missed levels)
    for rec in recs:
        ck = counting_check(rec)
        out.append(_residual_check(
            f"N{N}.counting.{rec.parity}",
            "semiclassical counting function has no jumps",
            1 if ck["missed_eigenvalue_flag"] else 0, mp.mpf("0.5")))

    # derived sum rules, orders 1..6, against the same numeric values
    vals = _symbol_values(N, table, digits)
    tol = _em_tolerance(table, list(table))
    for ident in idents[1:]:
        if ident.degenerate:
            continue
        res = abs(ident.lhs.eval_numeric(vals, digits)
                  - ident.rhs.eval_numeric(vals, digits))
        out.append(_residual_check(
            f"N{N}.sumrule.{ident.order}",
            f"order-{ident.order} sum rule ({ident.classification})",
            res, tol))
    return out


def _funceq_checks(N, table, digits):
    """Bilinear functional-equation residuals at sample interior points."""
    out = []
    if N in (1, 2):
        # closed-form inputs: residual must vanish to near working precision
        M = max(40, digits * 2 + 20)
        if N == 1:
            plus, minus, pp, mm = cforms.airy_log_zetas(M, digits + 10)
            pv = [plus[n] for n in range(1, M + 1)]
            mv = [minus[n] for n in range(1, M + 1)]
        else:
            pv = cforms.harmonic_zeta("plus", range(1, M + 1), digits + 10)
            mv = cforms.harmonic_zeta("minus", range(1, M + 1), digits + 10)
            pp = cforms.zeta_prime0(2, "plus", digits + 10)
            mm = cforms.zeta_prime0(2, "minus", digits + 10)
        tol = mp.mpf(10) ** (-(digits - 12))
        route = "closed-form inputs"
        dps_eval = digits
    else:
        n_max = max(n for _, n in table)
        pv = [table[("plus", n)].value for n in range(1, n_max + 1)]
        mv = [table[("minus", n)].value for n in range(1, n_max + 1)]
        pp = cforms.zeta_prime0(N, "plus", digits)
        mm = cforms.zeta_prime0(N, "minus", digits)
        tol = mp.mpf(10) ** (-8)
        route = "spectrum inputs"
        # evaluate at a precision matched to the input accuracy so the
        # series-tail guard reflects the EM error, not the print precision
        dps_eval = 16
    for lam in FUNCEQ_LAMBDAS:
        res = functional_eq_residual(N, mp.mpf(lam), pv, mv, pp, mm,
                                     dps=dps_eval)
        out.append(_residual_check(
            f"N{N}.funceq.{lam}",
            f"bilinear determinant relation at lambda={lam} ({route})",
            res, tol))
    return out


def _airy_checks(airy, digits):
    """N=1 checks; `airy` is a pair of at least AIRY_LEVELS levels per
    parity at spectral_dps(1, digits)."""
    out = []
    cf = cforms.closed_form_eval
    rho_g = cf("RO", None, digits)
    # deep spectra are cheap here (Airy-zero fast path); the EM route must
    # hit the exact values on its own, independent of the closed forms
    dps = spectral_dps(1, digits)
    rec30 = tuple(rec.prefix(AIRY_LEVELS) for rec in airy)
    em = zeta_values(1, rec30, [("plus", 3), ("minus", 2)], dps)
    out.append(_check("N1.zplus3.em", "Z+(3) = 1 from a 30-eigenvalue sum",
                      1, em[("plus", 3)].value, mp.mpf("1e-20")))
    out.append(_check("N1.zminus2.em", "Z-(2) = rho^2 from eigenvalue sum",
                      rho_g ** 2, em[("minus", 2)].value, mp.mpf("1e-20")))
    rho_a = cf("RO.airy", None, digits)
    out.append(_check("N1.rho.paper", "rho reference value 0.729011133",
                      rho_g, mp.mpf("0.729011133"), mp.mpf("5e-10")))
    out.append(_check("N1.rho.mutual",
                      "Gamma closed form vs Airy ratio for rho",
                      rho_g, rho_a, mp.mpf(10) ** (-(digits - 10))))
    tol = mp.mpf(10) ** (-(digits - 12))
    out.append(_check("N1.zplus3", "Z+(3) = 1 exactly",
                      1, cf("Z1.plus.3", 1, digits), tol))
    out.append(_check("N1.zminus2", "Z-(2) = rho^2",
                      rho_g ** 2, cf("Z1.minus.2", 1, digits), tol))
    out.append(_check("N1.zminus3", "Z-(3) = 1/2 - rho^3",
                      mp.mpf(1) / 2 - rho_g ** 3,
                      cf("Z1.minus.3", 1, digits), tol))
    out.append(_check("N1.zminus1", "Z-(1) = -Z(1) = rho",
                      rho_g, -cf("Z1.full", 1, digits), tol))
    with working(digits):
        exp_plus = mp.log(mp.sqrt(3) / (2 * rho_g)) / 2
        exp_minus = mp.log(mp.sqrt(3) * rho_g / 2) / 2
    out.append(_check("N1.prime0.plus", "Z+'(0) = log(sqrt3/(2 rho))/2",
                      exp_plus, cf("Z0.plusPrime", 1, digits), tol))
    out.append(_check("N1.prime0.minus", "Z-'(0) = log(sqrt3 rho/2)/2",
                      exp_minus, cf("Z0.minusPrime", 1, digits), tol))
    return out


def _harmonic_checks(digits):
    out = []
    cf = cforms.closed_form_eval
    tol = mp.mpf(10) ** (-(digits - 10))
    out.append(_check("N2.z2", "Z(2) = pi^2/8",
                      mp.pi ** 2 / 8, cf("Z2.full.2", 2, digits), tol))
    for m_ in range(1, 11):
        out.append(_check(
            f"N2.genocchi.{m_}",
            f"Z(2m) Genocchi form vs Dirichlet lambda, m={m_}",
            cf(f"Z2.genocchi.{m_}", 2, digits),
            cf(f"Z2.full.{2 * m_}", 2, digits), tol))
        out.append(_check(
            f"N2.euler.{m_}",
            f"ZP(2m+1) Euler form vs Dirichlet beta, m={m_}",
            cf(f"Z2.euler.{m_}", 2, digits),
            cf(f"Z2.twisted.{2 * m_ + 1}", 2, digits), tol))
    # determinants: generating series vs Gamma closed forms on a lambda grid
    # |lambda| reaches 0.6 of the unit radius: 0.6^M must undercut 10^-(p-5)
    M = max(80, int((digits + 8) / mp.log10(mp.mpf(1) / mp.mpf("0.6"))) + 10)
    tolD = mp.mpf(10) ** (-(digits - 12))
    vals = {k: cforms.harmonic_zeta(k, range(1, M + 1), digits + 10)
            for k in ("full", "twisted")}
    primes = {"full": cforms.zeta_prime0(2, "full", digits + 10),
              "twisted": cforms.zeta_prime0(2, "twisted", digits + 10)}
    for kind in ("full", "twisted"):
        worst = mp.mpf(0)
        for lam in ("-0.6", "-0.3", "0.25", "0.45", "0.6"):
            d1 = determinant_series(mp.mpf(lam), vals[kind], primes[kind],
                                    digits)
            d2 = cforms.harmonic_determinant(kind, mp.mpf(lam), digits)
            worst = max(worst, abs(d1 - d2))
        out.append(_residual_check(
            f"N2.det.{kind}",
            f"{kind} determinant series vs Gamma closed form on grid",
            worst, tolD))
    out.append(_check("N2.det.sqrtpi", "full determinant at 1 is sqrt(pi)",
                      mp.sqrt(mp.pi),
                      cforms.harmonic_determinant("full", 1, digits), tolD))
    return out


def _cubic_checks(recs, table, idents, digits):
    out = []
    cf = cforms.closed_form_eval
    out.append(_check("N3.zp1.paper", "ZP(1) reference 0.7836009674833",
                      cf("Z1.twisted", 3, digits),
                      mp.mpf("0.7836009674833"), mp.mpf("5e-14")))
    out.append(_check("N3.z1.paper", "Z(1) reference 3.319386965494",
                      cf("Z1.full", 3, digits),
                      mp.mpf("3.319386965494"), mp.mpf("5e-13")))
    # the two 4F3 closed forms are the costly ones: evaluate each once
    z2, zminus2 = cf("Z32", 3, digits), cf("Z3minus2", 3, digits)
    out.append(_check("N3.z2.paper", "Z(2) hypergeometric form 1.098003371",
                      z2, mp.mpf("1.098003371"), mp.mpf("5e-10")))
    out.append(_check("N3.zminus2.paper",
                      "Z-(2) hypergeometric form 0.104481190",
                      zminus2, mp.mpf("0.104481190"), mp.mpf("5e-10")))
    out.append(_check("N3.zplus2.routes",
                      "Z+(2): golden-ratio form vs Z(2) - Z-(2)",
                      cf("Z3plus2", 3, digits), z2 - zminus2,
                      mp.mpf(10) ** (-(digits - 15))))
    # reference EM run with eigenvalues k <= 9 (5 per parity)
    refs = (("Z-(3) EM reference 0.025878", "minus", 3, "0.025878"),
            ("Z(3) EM reference 0.9646441", "full", 3, "0.9646441"),
            ("Z(4) EM reference 0.9210896", "full", 4, "0.9210896"))
    em9 = zeta_values(3, tuple(r.prefix(5) for r in recs),
                      [(kind, n) for _, kind, n, _ in refs],
                      spectral_dps(3, digits))
    for anchor, kind, n, quote in refs:
        out.append(_check(f"N3.em9.{kind}{n}", anchor, em9[(kind, n)].value,
                          mp.mpf(quote), mp.mpf("1e-6")))
    # order-5 full identity value
    vals = _symbol_values(3, table, digits)
    sym, rhs = solved_form(idents[5])
    out.append(_check("N3.z35.value",
                      "order-5 identity rhs reference 0.8949120",
                      rhs.eval_numeric(vals, digits), mp.mpf("0.8949120"),
                      mp.mpf("1e-6")))
    return out


def _sextic_checks(table, digits):
    out = []
    cf = cforms.closed_form_eval
    out.append(_check("N6.zp2.paper", "ZP(2) closed form 0.71895230",
                      cf("Z6P2", 6, digits), mp.mpf("0.71895230"),
                      mp.mpf("5e-9")))
    out.append(_check("N6.zp2.em", "ZP(2) closed form vs spectrum",
                      cf("Z6P2", 6, digits), table[("twisted", 2)].value,
                      _em_tolerance(table, [("twisted", 2)])))
    with working(digits):
        combo = ((1 + mp.sqrt(2)) * table[("twisted", 3)].value
                 + table[("full", 3)].value)
    out.append(_check("N6.order3.combo",
                      "(1+sqrt2) ZP(3) + Z(3) = 2.26279887",
                      cf("Z4E", 6, digits), combo,
                      _em_tolerance(table, [("twisted", 3), ("full", 3)])))
    return out


def run_battery(n_list=(1, 2, 3, 6), digits: int = DEFAULT_DPS,
                eigencount: int = 12) -> VerificationReport:
    """Run all checks for the given degrees.  Each degree solves one pair
    (for N=1 at least AIRY_LEVELS levels, for the Airy checks), and its
    zeta table takes the first `eigencount` levels."""
    records, spectra = [], {}
    # ambient precision for all inline reference arithmetic in the builders
    with working(digits, extra=20):
        b3 = bohr_sommerfeld_b0(3, digits)
        ref = mp.mpf(2) ** (mp.mpf(2) / 3) / 5 * mp.sqrt(3) \
            * mp.gamma(mp.mpf(1) / 3) ** 3 / mp.pi
        records.append(_check("b0.cubic", "general action integral b0 vs "
                              "2^(2/3) sqrt3 Gamma(1/3)^3/(5 pi)",
                              ref, b3, mp.mpf(10) ** (-(digits - 10))))
        for N in n_list:
            count = max(eigencount, AIRY_LEVELS) if N == 1 else eigencount
            pair = spectra[N] = compute_spectra(N, count, digits)
            recs = tuple(rec.prefix(eigencount) for rec in pair)
            # N >= 3 feeds the determinant series, which needs deep zeta tables
            table = em_zeta_table(N, recs, 26 if N >= 3 else 6,
                                  spectral_dps(N, digits))
            idents = derive_sum_rules(N, 6)   # shared by the builders
            records.extend(_common_checks(N, recs, table, idents, digits))
            records.extend(_funceq_checks(N, table, digits))
            if N == 1:
                records.extend(_airy_checks(pair, digits))
            elif N == 2:
                records.extend(_harmonic_checks(digits))
            elif N == 3:
                records.extend(_cubic_checks(recs, table, idents, digits))
            elif N == 6:
                records.extend(_sextic_checks(table, digits))
    records.sort(key=lambda r: r.check_id)
    return VerificationReport(records=tuple(records), digits=digits,
                              eigencount=eigencount, n_list=tuple(n_list),
                              spectra=spectra)
