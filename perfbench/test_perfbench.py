"""Self-tests of the benchmark: the oracles reject perturbed outputs, the
tracer attributes nested spans, and BENCHMARK.json matches the code.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import mpmath
import pytest

import jobs
import oracle
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFS = oracle.load_refs()


def _eig_output(values, dps):
    with mpmath.workdps(dps):
        return {"eigenvalues": [[int(x) for x in (+mpmath.mpf(v))._mpf_]
                                for v in values],
                "certified_digits": [dps] * len(values)}


def _last_digit_off(value, dps):
    with mpmath.workdps(dps + 20):
        v = mpmath.mpf(value)
        return v + mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(v)) - dps + 1)


@pytest.mark.parametrize("N, parity, count, dps", [
    (2, "+", 2, 30), (2, "-", 2, 31), (3, "+", 1, 50), (5, "-", 1, 29),
    (1, "+", 3, 45), (1, "-", 3, 45)])
def test_eigenvalue_oracle_rejects_last_digit(N, parity, count, dps):
    item = {"call": "eigenvalues", "N": N, "parity": parity, "count": count,
            "dps": dps}
    with mpmath.workdps(dps + 20):
        exact = [oracle._reference(item, j, dps, REFS) for j in range(count)]
    assert oracle.check(item, _eig_output(exact, dps), REFS) is None
    bad = exact[:-1] + [_last_digit_off(exact[-1], dps)]
    assert oracle.check(item, _eig_output(bad, dps), REFS) is not None


def test_eigenvalue_oracle_needs_a_reference():
    item = {"call": "eigenvalues", "N": 7, "parity": "+", "count": 1, "dps": 20}
    assert "no reference" in oracle.check(item, _eig_output(["1.3"], 20), REFS)


def test_derive_oracle_rejects_one_changed_byte():
    item = jobs.derive_jobs(__import__("random").Random(0))[0]
    text = "\n\n".join(REFS["derive"][str(N)][:-1] for N in item["degrees"]) + "\n"
    assert oracle.check(item, {"code": 0, "stdout": text}, REFS) is None
    i = len(text) // 2
    changed = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
    assert oracle.check(item, {"code": 0, "stdout": changed}, REFS) is not None
    assert oracle.check(item, {"code": 2, "stdout": text}, REFS) is not None


@pytest.mark.parametrize("N", [1, 2])
def test_verify_oracle_rejects_a_missing_check(N):
    item = {"call": "cli", "argv": ["verify", "--N", str(N)], "degrees": [N]}
    ids = REFS["verify_check_ids"][str(N)]

    def report(check_ids, passed=True):
        checks = [{"check_id": c, "passed": passed} for c in check_ids]
        return {"code": 0, "stdout": json.dumps({"passed": passed,
                                                 "checks": checks})}
    assert oracle.check(item, report(ids), REFS) is None
    assert oracle.check(item, report(ids[1:]), REFS) is not None
    assert oracle.check(item, report(ids, passed=False), REFS) is not None


def test_nested_spans_self_time_is_total_minus_children():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    leaf_w = rec.span("m.leaf", leaf)

    def outer(n):
        return sum(leaf_w() for _ in range(n))

    outer_w = rec.span("m.outer", outer)
    assert outer_w(2) == 2
    # clock: outer starts 0, leaf 1-2, leaf 3-4, outer ends 5
    stats = spans.span_stats(rec.spans)
    assert stats["m.outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert stats["m.leaf"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}


def test_recursive_span_total_counts_outermost_only():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def fact(n):
        return 1 if n <= 1 else n * fact_w(n - 1)

    fact_w = rec.span("m.fact", fact)
    assert fact_w(3) == 6
    # starts 0, 1, 2; ends 3, 4, 5
    stats = spans.span_stats(rec.spans)
    assert stats["m.fact"] == {"calls": 3, "self_s": 5.0, "total_s": 5.0}


def test_install_wraps_every_binding_and_nests_across_modules():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from osczeta import closedforms, numerics, spectrum, verify
    rec = spans.Recorder()
    spans.install(rec)
    # verify.py binds its own copy of spectrum.eigenvalues
    assert verify.eigenvalues is spectrum.eigenvalues
    assert verify.eigenvalues.__wrapped__ is not None
    assert closedforms.gamma is numerics.gamma
    closedforms.cubic_plus2(15)
    names = [s[spans.NAME] for s in rec.spans]
    assert names[0] == "closedforms.cubic_plus2"
    assert "numerics.gamma" in names
    assert all(s[spans.PARENT] == 0 for s in rec.spans[1:]
               if s[spans.NAME] == "numerics.gamma")


def test_counter_counts_calls():
    rec = spans.Recorder()
    double = rec.counter("m.double", lambda x: 2 * x)
    assert [double(i) for i in range(3)] == [0, 2, 4]
    assert rec.counts == {"m.double": 3}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(spans.PER_LAYER)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_lists_are_seeded_and_checkable(workload):
    assert jobs.job_list(workload, 7) == jobs.job_list(workload, 7)
    for seed in range(20):
        for item in jobs.job_list(workload, seed):
            if item["call"] == "eigenvalues" and item["N"] >= 3:
                assert f"{item['N']}{item['parity']}" in REFS["eigen"]
            elif item["call"] == "cli" and item["argv"][0] == "derive":
                assert all(str(N) in REFS["derive"] for N in item["degrees"])
