"""Judge each job item's output, independently of its timing.

* eigenvalues, N=2: exactly 2k+1 to the certified digits;
* eigenvalues, N=1: the negated zeros of Ai (parity '-') or Ai' ('+') from
  mpmath.airyaizero;
* eigenvalues, N>=3: the committed references in data/refs.json;
* derive: the text equals the committed per-degree snapshots, joined in the
  order the degrees were asked for;
* verify: exit code 0, "passed" true, and exactly the committed check ids.
  Check values are not compared, so honest certificates that change a
  printed digit are not failures; a dropped or added check is.

`check` returns None for a good output and a one-line reason otherwise.
"""

from __future__ import annotations

import functools
import json
import os

import mpmath

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "refs.json")


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _airy_eigenvalue(k: int, derivative: int, dps: int):
    with mpmath.workdps(dps):
        return -mpmath.airyaizero(k, derivative=derivative)


def _reference(item, j, dps, refs):
    N, parity = item["N"], item["parity"]
    k = 2 * j + (0 if parity == "+" else 1)
    if N == 2:
        return mpmath.mpf(2 * k + 1)
    if N == 1:
        return _airy_eigenvalue(j + 1, 1 if parity == "+" else 0, dps + 10)
    values = refs["eigen"].get(f"{N}{parity}", [])
    if j >= len(values) or dps > refs["eigen_dps"] - 5:
        return None
    return mpmath.mpf(values[j])


def check_eigenvalues(item, output, refs):
    values = output["eigenvalues"]
    digits = output["certified_digits"]
    if len(values) != item["count"] or len(digits) != item["count"]:
        return f"expected {item['count']} eigenvalues, got {len(values)}"
    for j, (raw, d) in enumerate(zip(values, digits)):
        if d > item["dps"]:
            return f"eigenvalue {j} claims {d} digits at dps {item['dps']}"
        with mpmath.workdps(max(d, item["dps"]) + 20):
            ref = _reference(item, j, d, refs)
            if ref is None:
                return f"no reference for N={item['N']} parity={item['parity']} j={j}"
            value = mpmath.mpf(tuple(raw))
            # half a unit in the d-th significant digit
            half_unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(ref))) - d + 1) / 2
            if abs(value - ref) > half_unit:
                return (f"eigenvalue {j} = {mpmath.nstr(value, d + 2)} is off "
                        f"{mpmath.nstr(ref, d + 2)} in its {d} certified digits")
    return None


def check_cli(item, output, refs):
    command = item["argv"][0]
    if output["code"] != 0:
        return f"osczeta {command} exited with {output['code']}"
    if command == "derive":
        expected = "\n\n".join(refs["derive"][str(N)][:-1]
                               for N in item["degrees"]) + "\n"
        if output["stdout"] != expected:
            return "derive text differs from the committed snapshot"
        return None
    report = json.loads(output["stdout"])
    if report.get("passed") is not True:
        return "verify report did not pass"
    ids = [c["check_id"] for c in report["checks"]]
    expected = refs["verify_check_ids"][str(item["degrees"][0])]
    if sorted(ids) != expected:
        return "verify check ids differ from the committed set"
    return None


def check(item, output, refs):
    if "error" in output:
        return output["error"]
    if item["call"] == "eigenvalues":
        return check_eigenvalues(item, output, refs)
    return check_cli(item, output, refs)
