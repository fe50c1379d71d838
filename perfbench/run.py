"""osczeta benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload spectrum|derive|verify --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it imports osczeta from ./src.  Every
repetition of the workload's job list runs in a fresh worker process, so
mpmath's caches start cold as they do for a CLI call.  Repetitions continue
while the next one is expected to end within --seconds (at least one runs).
Every output is checked by perfbench/oracle.py.

--trace 0 reports the end-to-end metrics: wall_s (median job-list wall time,
without import or checking), setup_s (median cold `import osczeta.cli`),
peak_rss_mb (median worker peak RSS).  --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of perfbench/spans.py.
The last stdout line is the JSON result; the line before it records the
provenance of the numbers and the samples each median was taken over.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import jobs
import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
# fewest cold imports that set-up time is the median of
SETUP_PROBES = 9
# hard limit for a whole run, under the 180 s a run may take
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def _worker(items, trace=False, spans_path=None, timeout=RUN_LIMIT_S):
    """One fresh interpreter running `items`; returns its parsed result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    request = json.dumps({"items": items, "trace": trace, "spans_path": spans_path})
    try:
        proc = subprocess.run([sys.executable, WORKER], input=request,
                              capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerFailed(f"worker exited with {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def provenance(seed: int) -> dict:
    import mpmath
    src_lines = 0
    for name in sorted(os.listdir(os.path.join("src", "osczeta"))):
        if name.endswith(".py"):
            with open(os.path.join("src", "osczeta", name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "machine": platform.machine(), "seed": seed, "src_lines": src_lines}


class Run:
    """Repetitions of one job list, with every output checked."""

    def __init__(self, items, refs, deadline):
        self.items = items
        self.refs = refs
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def rep(self, trace=False, spans_path=None):
        self.attempted += len(self.items)
        try:
            result = _worker(self.items, trace, spans_path,
                             self.deadline - time.monotonic())
        except WorkerFailed as exc:
            self.failed += len(self.items)
            self.failures.append(str(exc))
            return None
        for item, output in zip(self.items, result["outputs"]):
            reason = oracle.check(item, output, self.refs)
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{item}: {reason}")
        return result


def _reps(run, seconds, kinds, spans_path=None, probes=None):
    """Alternate the repetition kinds (False untraced, True traced) while
    the next round is expected to end within `seconds`; one round always.
    With a `probes` list, each round first adds one cold import time to it,
    so that set-up is sampled across the run, not in one moment of it."""
    results = {kind: [] for kind in kinds}
    start = time.monotonic()
    longest = 0.0
    while True:
        if probes is not None:
            probes.append(_worker([])["import_s"])
        for kind in kinds:
            t = time.monotonic()
            res = run.rep(kind, spans_path if kind else None)
            longest = max(longest, time.monotonic() - t)
            if res is None:
                return results
            results[kind].append(res)
        elapsed = time.monotonic() - start
        if elapsed + longest * len(kinds) > seconds \
                or time.monotonic() + longest * len(kinds) > run.deadline:
            return results


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    run = Run(jobs.job_list(workload, seed), oracle.load_refs(), deadline)
    _worker([])  # writes bytecode caches; not a sample
    if not trace:
        imports = []
        reps = _reps(run, seconds, (False,), probes=imports)[False]
        imports += [r["import_s"] for r in reps]
        while len(imports) < SETUP_PROBES:
            imports.append(_worker([])["import_s"])
        samples = {"wall_s": [r["wall_s"] for r in reps], "setup_s": imports,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
        metrics = {name: _median(values) for name, values in samples.items()}
        units = dict(END_TO_END)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        results = _reps(run, seconds, (False, True), spans_path)
        plain, traced = results[False], results[True]
        metrics = {}
        for name, _unit in spans.PER_LAYER:
            if name not in spans.FROM_BENCHMARK:
                metrics[name] = _median([r["layers"][name] for r in traced])
        checks = [_verify_checks(r["outputs"]) for r in traced]
        metrics["verify.checks"] = _median([c[0] for c in checks])
        metrics["verify.checks_failed"] = _median([c[1] for c in checks])
        samples = {"untraced_wall_s": [r["wall_s"] for r in plain],
                   "traced_wall_s": [r["wall_s"] for r in traced]}
        untraced = _median(samples["untraced_wall_s"])
        metrics["trace.overhead_frac"] = (
            _median(samples["traced_wall_s"]) / untraced - 1 if untraced else 0.0)
        metrics["failed_frac"] = run.failed / run.attempted
        units = dict(spans.PER_LAYER)
    return run, samples, {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}


def _verify_checks(outputs):
    checks = failed = 0
    for out in outputs:
        text = out.get("stdout", "")
        if text.startswith("{"):
            report = json.loads(text)
            checks += len(report["checks"])
            failed += sum(1 for c in report["checks"] if not c["passed"])
    return checks, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "osczeta", "cli.py")):
        print("perfbench: no osczeta sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    run, samples, metrics = measure(args.workload, args.seed, args.seconds,
                                    args.trace)
    print(json.dumps({"provenance": provenance(args.seed), "samples": samples}))
    for reason in run.failures:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
