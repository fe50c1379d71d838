"""Run one job list in this fresh interpreter and print one JSON line.

Reads {"items": [...], "trace": bool, "spans_path": str or null} on stdin,
from the repository root.  Reports the cold import time of osczeta.cli, the
job list's wall time, peak RSS and every item's output.  With an empty job
list it only measures the import.  With "trace" set, spans are recorded by
perfbench/spans.py and summarized after the clock stops.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _run(items, recorder):
    from osczeta import cli, spectrum
    raw = []
    start = time.perf_counter()
    for i, item in enumerate(items):
        if recorder is not None:
            recorder.item = i
        try:
            if item["call"] == "eigenvalues":
                raw.append(spectrum.eigenvalues(item["N"], item["parity"],
                                                item["count"], item["dps"]))
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(item["argv"])
                raw.append((code, buf.getvalue()))
        except Exception as exc:  # an item that raises is a failed item
            raw.append(exc)
    return time.perf_counter() - start, raw


def _output(result):
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    if isinstance(result, tuple):
        return {"code": result[0], "stdout": result[1]}
    # exact binary values: (sign, mantissa, exponent, bitcount)
    return {"eigenvalues": [[int(x) for x in e._mpf_] for e in result.eigenvalues],
            "certified_digits": list(result.certified_digits)}


def main():
    request = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import osczeta.cli  # noqa: F401  -- the cold import every CLI call pays
    out = {"import_s": time.perf_counter() - t0}
    items = request["items"]
    if items:
        recorder = None
        if request["trace"]:
            import spans
            recorder = spans.Recorder()
            spans.install(recorder)
        wall, raw = _run(items, recorder)
        out["wall_s"] = wall
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["outputs"] = [_output(r) for r in raw]
        if recorder is not None:
            out["layers"] = spans.layer_metrics(recorder.spans, recorder.counts, wall)
            if request.get("spans_path"):
                with open(request["spans_path"], "w", encoding="utf-8") as fh:
                    json.dump(recorder.spans, fh)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
