"""Command-line harness: compute spectra and zeta tables, derive the exact
sum rules, run the verification battery, and render classification tables.

One argparse parser reads flags and config files alike: a file's `key =
value` lines are read as `--key=value` flags (see `parse_args`).  `main`
returns the exit code and never raises SystemExit: 0 all requested work
succeeded (and all checks passed for `verify`) or `--help`, 1 verification
failures, 2 configuration, computation or output errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from argparse import ArgumentTypeError

import mpmath as mp

from . import closedforms as cforms
from .errors import OsczetaError
from .precision import DEFAULT_DPS
from .spectrum import eigenvalues
from .sumrules import (autonomous_full_identities, classify_lhs,
                       derive_sum_rules, symmetry_order)
from .verify import compute_spectra, em_zeta_table, run_battery, spectral_dps

def _int_in(lo: int, hi: float = float("inf")):
    """An argparse type: an integer in [lo, hi]."""
    def integer(text):
        value = int(text)
        if not lo <= value <= hi:
            raise ArgumentTypeError(f"{value} is not in [{lo}, {hi}]")
        return value
    return integer


def _degrees(text: str) -> tuple:
    """An argparse type: a degree or a comma list of them, each >= 1."""
    return tuple(map(_int_in(1), text.split(",")))


#: each setting a command may read, by its flag and config key, as its
#: argparse keywords
SETTINGS = {
    "N": {"type": _degrees, "default": (1, 2, 3, 6),
          "help": "degree or comma list, e.g. 3 or 1,2,3,6"},
    "parity": {"choices": ["+", "-", "both"], "default": "both"},
    "count": {"type": _int_in(1), "default": 12,
              "help": "eigenvalues per parity"},
    "digits": {"type": _int_in(5, 1000), "default": DEFAULT_DPS,
               "help": "decimal precision"},
    "nmax": {"type": _int_in(0), "default": 8, "help": "maximum zeta order"},
}


def _config_flags(path: str) -> list:
    """An argparse type: the `key = value` lines of a config file (comments
    with '#') as `--key=value` flags.  A file cannot name another."""
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ArgumentTypeError(f"bad config line: {raw.rstrip()}")
                key, val = (p.strip() for p in line.split("=", 1))
                if key == "config":
                    raise ArgumentTypeError("--config cannot be set in a file")
                flags.append(f"--{key}={val}")
    except (OSError, UnicodeError) as exc:
        raise ArgumentTypeError(str(exc)) from None
    return flags


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_spectrum(args) -> int:
    parities = ("+", "-") if args.parity == "both" else (args.parity,)
    records = [eigenvalues(N, p, args.count, spectral_dps(N, args.digits))
               for N in args.N for p in parities]
    if args.format == "json":
        _emit(args, json.dumps([{"N": r.N, "parity": r.parity,
                                 "eigenvalues": r.to_rows()}
                                for r in records], indent=2))
    elif args.format == "csv":
        lines = ["N,parity,k,eigenvalue,certified_digits"]
        for r in records:
            lines.extend(",".join(map(str, row.values()))
                         for row in r.to_rows())
        _emit(args, "\n".join(lines))
    else:
        lines = []
        for r in records:
            lines.append(f"N={r.N} parity={r.parity}")
            for j, e in enumerate(r.eigenvalues):
                lines.append(f"  k={r.full_index(j):3d}  "
                             f"{mp.nstr(e, min(args.digits, 30))}")
        _emit(args, "\n".join(lines))
    return 0


def cmd_zeta(args) -> int:
    rows = []
    for N in args.N:
        recs = compute_spectra(N, args.count, args.digits)
        table = em_zeta_table(N, recs, args.nmax, spectral_dps(N, args.digits))
        rows.extend(table.values())
    if args.format == "json":
        _emit(args, json.dumps([r.to_row() for r in rows], indent=2))
    elif args.format == "csv":
        lines = ["N,kind,order,value,method,certified_digits"]
        for r in rows:
            d = r.to_row()
            lines.append(f"{d['N']},{d['kind']},{d['n']},{d['value']},"
                         f"{d['method']},{d['certified_digits']}")
        _emit(args, "\n".join(lines))
    else:
        lines = []
        for r in rows:
            # the digits the certificate backs, at most 25
            value = mp.nstr(r.value, min(r.certified_digits, 25),
                            strip_zeros=False)
            lines.append(f"N={r.N} {r.kind:8s} n={int(r.order)}  "
                         f"{value:30s} [{r.certified_digits} digits]")
        _emit(args, "\n".join(lines))
    return 0


def cmd_derive(args) -> int:
    chunks = []
    for N in args.N:
        idents = derive_sum_rules(N, args.nmax)
        # full-order identities restated in full zeta values only, all from
        # one pass that folds the twisted values away
        autonomous = autonomous_full_identities(N, args.nmax)
        if args.format == "json":
            chunk = [i.to_json_dict() for i in idents]
            for ident in autonomous:
                d = ident.to_json_dict()
                d["autonomous"] = True
                chunk.append(d)
            chunks.append(chunk)
        else:
            lines = [i.to_text() for i in idents]
            lines.extend(f"{i.to_text()}  (full-value basis)"
                         for i in autonomous)
            chunks.append("\n".join(lines))
    if args.format == "json":
        _emit(args, json.dumps(chunks, indent=2))
    else:
        _emit(args, "\n\n".join(chunks))
    return 0


def cmd_verify(args) -> int:
    report = run_battery(n_list=args.N, digits=args.digits,
                         eigencount=args.count)
    if args.format == "json":
        _emit(args, report.to_json())
    else:
        _emit(args, report.to_text())
    return 0 if report.passed else 1


_CLOSED_CELLS = {
    # (N, n) -> identifier of a fully closed-form value for that cell
    (2, 1): "Z2.twisted.1", (3, 2): "Z3plus2", (6, 2): "Z6P2",
}


def _cell_text(N: int, n: int, digits: int) -> str:
    cls = classify_lhs(N, n)
    if cls == "generic":
        return "generic"
    if n == 0:
        return "Z'(0) closed form"
    label = {"Zfull": f"Z_{N}({n})", "Ztwisted": f"Z_{N}^P({n})",
             "Zplus": f"Z_{N}^+({n})", "Zminus": f"Z_{N}^-({n})"}[cls]
    ident = _CLOSED_CELLS.get((N, n))
    if N == 1:
        kind = {"Zfull": "full", "Ztwisted": "twisted",
                "Zplus": "plus", "Zminus": "minus"}[cls]
        ident = f"Z1.{kind}.{n}"
    elif N == 2:
        kind = {"Zfull": "full", "Ztwisted": "twisted"}[cls]
        ident = f"Z2.{kind}.{n}"
    if ident is None:
        return f"{label}: no closed form"
    val = cforms.closed_form_eval(ident, N, digits)
    return f"{label} = {mp.nstr(val, min(digits, 10))}"


def cmd_table(args) -> int:
    lines = []
    for N in args.N:
        lines.append(f"N={N} (symmetry order L={symmetry_order(N)})")
        for n in range(args.nmax + 1):
            lines.append(f"  n={n:2d}  {_cell_text(N, n, args.digits)}")
    _emit(args, "\n".join(lines))
    return 0


#: each command as name: (help text, function, the formats it writes, the
#: settings it reads)
COMMANDS = {
    "spectrum": ("compute eigenvalues per (N, parity)", cmd_spectrum,
                 ("text", "json", "csv"), ("N", "parity", "count", "digits")),
    "zeta": ("compute zeta values from spectra", cmd_zeta,
             ("text", "json", "csv"), ("N", "count", "digits", "nmax")),
    "derive": ("derive the exact sum rules symbolically", cmd_derive,
               ("text", "json"), ("N", "nmax")),
    "verify": ("run the cross-verification battery", cmd_verify,
               ("text", "json"), ("N", "count", "digits")),
    "table": ("render the classification table per (N, n)", cmd_table,
              ("text",), ("N", "nmax", "digits")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osczeta",
        description="spectral zeta functions and exact sum rules for "
                    "homogeneous oscillators -d2/dq2 + |q|^N")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _, formats, reads) in COMMANDS.items():
        # no prefixes: a flag is refused unless spelled in full, as in a file
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        for key in reads:
            p.add_argument(f"--{key}", **SETTINGS[key])
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this path")
        p.add_argument("--config", type=_config_flags,
                       help="key = value file, read as --key=value flags")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The command and its settings.  A config file's flags go between the
    command and the command line's flags, and the whole is parsed again, so
    the command line wins.  Bad input raises argparse's SystemExit(2)."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        rest = argv[argv.index(args.command) + 1:]
        args = parser.parse_args([args.command, *args.config, *rest])
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code  # argparse's: 2 for bad input, 0 after --help
    try:
        return COMMANDS[args.command][1](args)
    except (OsczetaError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
