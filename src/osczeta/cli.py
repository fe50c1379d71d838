"""Command-line harness: compute spectra and zeta tables, derive the exact
sum rules, run the verification battery, and render classification tables.

Exit codes: 0 all requested work succeeded (and all checks passed for
`verify`), 1 verification failures, 2 configuration, computation or output
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import mpmath as mp

from . import closedforms as cforms
from .errors import OsczetaError
from .precision import DEFAULT_DPS
from .spectrum import eigenvalues
from .sumrules import (autonomous_full_identities, classify_lhs,
                       derive_sum_rules, symmetry_order)
from .verify import compute_spectra, em_zeta_table, run_battery, spectral_dps

DEFAULT_N_LIST = (1, 2, 3, 6)


@dataclasses.dataclass
class RunConfig:
    digits: int = DEFAULT_DPS
    count: int = 12
    n_list: tuple = DEFAULT_N_LIST
    parity: str = "both"
    n_max: int = 8
    fmt: str = "text"
    out: str = None

    def validate(self):
        if self.digits < 5 or self.digits > 1000:
            raise ValueError("digits must be in [5, 1000]")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if any(N < 1 for N in self.n_list):
            raise ValueError("N must be >= 1")
        if self.parity not in ("+", "-", "both"):
            raise ValueError("parity must be '+', '-' or 'both'")
        if self.n_max < 0:
            raise ValueError("nmax must be >= 0")
        if self.fmt not in ("text", "json", "csv"):
            raise ValueError("format must be text, json or csv")


#: each setting by its config key and command-line flag, as (RunConfig
#: field, parse, the flag's argparse keywords)
SETTINGS = {
    "N": ("n_list", lambda v: tuple(int(x) for x in v.split(",")),
          {"help": "degree or comma list, e.g. 3 or 1,2,3,6"}),
    "parity": ("parity", str, {"choices": ["+", "-", "both"]}),
    "count": ("count", int, {"type": int, "help": "eigenvalues per parity"}),
    "digits": ("digits", int, {"type": int, "help": "decimal precision"}),
    "nmax": ("n_max", int, {"type": int, "help": "maximum zeta order"}),
    "format": ("fmt", str, {"choices": ["text", "json", "csv"]}),
    "out": ("out", str, {"help": "write output to this path"}),
}


def load_config_file(path: str, keys) -> dict:
    """Parse a simple `key = value` config file (comments with '#'); a key
    outside `keys`, the settings of the command that reads the file, raises
    ValueError."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} (this "
                                 f"command takes: {', '.join(keys)})")
            out[key] = val
    return out


def _config_from_args(args) -> RunConfig:
    """The command's settings; a command-line flag wins over the config
    file's value."""
    cfg = RunConfig()
    keys = _settings_of(args.command)
    filecfg = load_config_file(args.config, keys) if args.config else {}
    for key in keys:
        field, parse, _ = SETTINGS[key]
        v = getattr(args, key)
        if v is None:
            v = filecfg.get(key)
        if v is not None:
            setattr(cfg, field, parse(v))
    cfg.validate()
    return cfg


def _emit(cfg: RunConfig, text: str):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_spectrum(cfg: RunConfig) -> int:
    parities = ("+", "-") if cfg.parity == "both" else (cfg.parity,)
    records = [eigenvalues(N, p, cfg.count, spectral_dps(N, cfg.digits))
               for N in cfg.n_list for p in parities]
    if cfg.fmt == "json":
        _emit(cfg, json.dumps([{"N": r.N, "parity": r.parity,
                                "eigenvalues": r.to_rows()} for r in records],
                              indent=2))
    elif cfg.fmt == "csv":
        lines = ["N,parity,k,eigenvalue,certified_digits"]
        for r in records:
            lines.extend(",".join(map(str, row.values()))
                         for row in r.to_rows())
        _emit(cfg, "\n".join(lines))
    else:
        lines = []
        for r in records:
            lines.append(f"N={r.N} parity={r.parity}")
            for j, e in enumerate(r.eigenvalues):
                lines.append(f"  k={r.full_index(j):3d}  "
                             f"{mp.nstr(e, min(cfg.digits, 30))}")
        _emit(cfg, "\n".join(lines))
    return 0


def cmd_zeta(cfg: RunConfig) -> int:
    rows = []
    for N in cfg.n_list:
        recs = compute_spectra(N, cfg.count, cfg.digits)
        table = em_zeta_table(N, recs, cfg.n_max, spectral_dps(N, cfg.digits))
        rows.extend(table.values())
    if cfg.fmt == "json":
        _emit(cfg, json.dumps([r.to_row() for r in rows], indent=2))
    elif cfg.fmt == "csv":
        lines = ["N,kind,order,value,method,certified_digits"]
        for r in rows:
            d = r.to_row()
            lines.append(f"{d['N']},{d['kind']},{d['n']},{d['value']},"
                         f"{d['method']},{d['certified_digits']}")
        _emit(cfg, "\n".join(lines))
    else:
        lines = []
        for r in rows:
            # the digits the certificate backs, at most 25
            value = mp.nstr(r.value, min(r.certified_digits, 25),
                            strip_zeros=False)
            lines.append(f"N={r.N} {r.kind:8s} n={int(r.order)}  "
                         f"{value:30s} [{r.certified_digits} digits]")
        _emit(cfg, "\n".join(lines))
    return 0


def cmd_derive(cfg: RunConfig) -> int:
    chunks = []
    for N in cfg.n_list:
        idents = derive_sum_rules(N, cfg.n_max)
        # full-order identities restated in full zeta values only, all from
        # one pass that folds the twisted values away
        autonomous = autonomous_full_identities(N, cfg.n_max)
        if cfg.fmt == "json":
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
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(chunks, indent=2))
    else:
        _emit(cfg, "\n\n".join(chunks))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    report = run_battery(n_list=cfg.n_list, digits=cfg.digits,
                         eigencount=cfg.count)
    if cfg.fmt == "json":
        _emit(cfg, report.to_json())
    else:
        _emit(cfg, report.to_text())
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


def cmd_table(cfg: RunConfig) -> int:
    lines = []
    for N in cfg.n_list:
        lines.append(f"N={N} (symmetry order L={symmetry_order(N)})")
        for n in range(cfg.n_max + 1):
            lines.append(f"  n={n:2d}  {_cell_text(N, n, cfg.digits)}")
    _emit(cfg, "\n".join(lines))
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


def _settings_of(command: str) -> tuple:
    """The settings a command takes: those it reads, then format and out."""
    return COMMANDS[command][3] + ("format", "out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osczeta",
        description="spectral zeta functions and exact sum rules for "
                    "homogeneous oscillators -d2/dq2 + |q|^N")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, *_) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for key in _settings_of(name):
            p.add_argument(f"--{key}", **SETTINGS[key][2])
        p.add_argument("--config", help="key = value config file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, command, formats, _ = COMMANDS[args.command]
    try:
        cfg = _config_from_args(args)
        if cfg.fmt not in formats:
            raise ValueError(f"{args.command} cannot write format "
                             f"{cfg.fmt!r} (it writes {', '.join(formats)})")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return command(cfg)
    except (OsczetaError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
