"""Regenerate the oracle data in perfbench/data/refs.json.

    python3 perfbench/make_refs.py

The eigenvalue references are computed at REF_DPS digits, well above the
highest precision any workload asks for, so that a workload result is judged
against digits it could not have produced itself.  The derive snapshots and
the verify check-id sets are taken from the current code; regenerate them
only when a change to the program's output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402

from osczeta import cli  # noqa: E402
from osczeta.spectrum import eigenvalues  # noqa: E402

import jobs  # noqa: E402

REF_DPS = 64


def _cli_text(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"osczeta {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def main():
    eigen = {}
    for N in jobs.REFERENCE_DEGREES:
        for parity in "+-":
            rec = eigenvalues(N, parity, 1, REF_DPS)
            eigen[f"{N}{parity}"] = [mpmath.nstr(e, REF_DPS, strip_zeros=False)
                                     for e in rec.eigenvalues]
            print(f"eigenvalues N={N} parity={parity} done", flush=True)
    derive = {str(N): _cli_text(["derive", "--N", str(N), "--nmax",
                                 str(jobs.DERIVE_NMAX)])
              for N in jobs.DERIVE_DEGREES}
    verify_ids = {}
    for N, digits in jobs.VERIFY_CALLS:
        report = json.loads(_cli_text(
            ["verify", "--N", str(N), "--digits", str(digits[0]), "--count",
             str(jobs.VERIFY_COUNT), "--format", "json"]))
        verify_ids[str(N)] = sorted(c["check_id"] for c in report["checks"])
    out = {"eigen_dps": REF_DPS, "eigen": eigen, "derive_nmax": jobs.DERIVE_NMAX,
           "derive": derive, "verify_check_ids": verify_ids}
    path = os.path.join(ROOT, "perfbench", "data", "refs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
