"""Outside-in span recorder for the traced benchmark run.

`install` wraps every public function of each osczeta module, at every
module that binds it (``from .spectrum import eigenvalues`` in verify.py
binds its own copy), plus a few methods of the exact-arithmetic classes.
Each wrapped call records a span (name, start, end, parent span, job item,
argument key); the hottest operators only count their calls.  Spans stay in
memory and are summarized, and optionally written out, after the job list
has finished.  Nothing in the program itself changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# modules that hold measurable work; precision and errors hold none
LAYERS = ("numerics", "cyclo", "sympoly", "spectrum", "zetafns",
          "closedforms", "sumrules", "verify", "cli")

# (layer, class, attributes, span name): methods that get spans
METHOD_SPANS = (
    ("sympoly", "SymPoly", ("substitute",), "SymPoly.substitute"),
    ("sympoly", "SymPoly", ("eval_numeric",), "SymPoly.eval_numeric"),
    ("sympoly", "TruncSeries", ("__mul__", "__rmul__"), "TruncSeries.mul"),
    ("sympoly", "TruncSeries", ("exp",), "TruncSeries.exp"),
    ("sympoly", "TruncSeries", ("log",), "TruncSeries.log"),
)
# operators called hundreds of thousands of times: counted, not timed
METHOD_COUNTS = (
    ("sympoly", "SymPoly", ("__mul__", "__rmul__"), "SymPoly.mul"),
    ("cyclo", "CycloNumber", ("__mul__", "__rmul__"), "CycloNumber.mul"),
)
# spans whose bound arguments are kept, for distinct-input ratios
KEYED = ("spectrum.eigenvalues", "closedforms.closed_form_eval")

# every per-layer metric, in BENCHMARK.json order, with its unit
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS] + [
        ("spectrum.eigenvalues.calls", "count"),
        ("spectrum.eigenvalues.self_s", "s"),
        ("spectrum.eigenvalues.s_per_eig", "s"),
        ("spectrum.eigenvalues.distinct_frac", "1"),
        ("spectrum.counting_check.self_s", "s"),
        ("numerics.airy_negative_zero.calls", "count"),
        ("numerics.airy_negative_zero.self_s", "s"),
        ("zetafns.zeta_em.calls", "count"),
        ("zetafns.zeta_em.self_s", "s"),
        ("zetafns.determinant_series.calls", "count"),
        ("zetafns.determinant_series.self_s", "s"),
        ("zetafns.functional_eq_residual.self_s", "s"),
        ("closedforms.closed_form_eval.calls", "count"),
        ("closedforms.closed_form_eval.total_s", "s"),
        ("closedforms.closed_form_eval.distinct_frac", "1"),
        ("closedforms.harmonic_zeta.calls", "count"),
        ("closedforms.harmonic_zeta.self_s", "s"),
        ("sympoly.SymPoly.substitute.calls", "count"),
        ("sympoly.SymPoly.substitute.self_s", "s"),
        ("sympoly.TruncSeries.mul.self_s", "s"),
        ("sympoly.TruncSeries.exp.self_s", "s"),
        ("sympoly.SymPoly.eval_numeric.self_s", "s"),
        ("sympoly.SymPoly.mul.calls", "count"),
        ("cyclo.CycloNumber.mul.calls", "count"),
        ("sumrules.derive_sum_rules.calls", "count"),
        ("sumrules.derive_sum_rules.self_s", "s"),
        ("sumrules.derive_sum_rules.total_s", "s"),
        ("sumrules.derive_sum_rules.calls_per_request", "1"),
        ("sumrules.autonomous_full_identity.total_s", "s"),
        ("verify.em_zeta_table.total_s", "s"),
        ("verify.run_battery.self_s", "s"),
        ("verify.checks", "count"),
        ("verify.checks_failed", "count"),
        ("cli.main.self_s", "s"),
        ("trace.coverage", "1"),
        ("trace.overhead_frac", "1"),
        ("failed_frac", "1"),
    ])

NAME, START, END, PARENT, ITEM, KEY = range(6)


def _plain(value):
    return value if isinstance(value, (int, str, type(None))) else repr(value)


class Recorder:
    """Spans as [name, start, end, parent index, item, key] lists, and call
    counts; `item` is the job item being run, shared by all its spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.item = None
        self._stack = []

    def span(self, name: str, fn, keyed: bool = False):
        spans, stack, clock = self.spans, self._stack, self.clock
        signature = inspect.signature(fn) if keyed else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = {k: _plain(v) for k, v in bound.arguments.items()}
            rec = [name, 0.0, None, stack[-1] if stack else -1, self.item, key]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def install(recorder: Recorder, package: str = "osczeta") -> None:
    """Wrap the package's public functions and the listed methods."""
    modules = {layer: importlib.import_module(f"{package}.{layer}")
               for layer in LAYERS}
    everything = list(modules.values()) + [
        importlib.import_module(f"{package}.{m}") for m in ("precision", "errors")]
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrappers[id(obj)] = (obj, recorder.span(name, obj, name in KEYED))
    for mod in everything:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for table, make in ((METHOD_SPANS, recorder.span),
                        (METHOD_COUNTS, recorder.counter)):
        for layer, cls_name, attrs, label in table:
            cls = getattr(modules[layer], cls_name)
            wrapped = {}
            for attr in attrs:
                fn = vars(cls)[attr]
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = make(f"{layer}.{label}", fn)
                setattr(cls, attr, wrapped[id(fn)])


def span_stats(spans) -> dict:
    """{name: {"calls", "self_s", "total_s"}}.  Self time is a span's
    duration minus that of its direct children; total time counts only the
    outermost span of a name, so recursion is not counted twice."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        dur = s[END] - s[START]
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            st["total_s"] += dur
    return stats


# per-layer metrics that need the untraced run or the outputs
FROM_BENCHMARK = ("verify.checks", "verify.checks_failed",
                  "trace.overhead_frac", "failed_frac")
COUNTED = tuple(f"{layer}.{label}" for layer, _c, _a, label in METHOD_COUNTS)


def layer_metrics(spans, counts: dict, wall: float) -> dict:
    """Every per-layer metric that spans and counts give, for a job list
    whose traced run took `wall` seconds."""
    stats = span_stats(spans)
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if base in LAYERS:
            out[name] = sum(st["self_s"] for n, st in stats.items()
                            if n.split(".", 1)[0] == base)
        elif base in COUNTED:
            out[name] = counts.get(base, 0)
        elif field in zero and name not in FROM_BENCHMARK:
            out[name] = stats.get(base, zero)[field]

    keys = {n: [s[KEY] for s in spans if s[NAME] == n] for n in KEYED}
    for n, ks in keys.items():
        distinct = {tuple(sorted(k.items())) for k in ks}
        out[f"{n}.distinct_frac"] = len(distinct) / len(ks) if ks else 0.0
    eigs = sum(k["count"] for k in keys["spectrum.eigenvalues"])
    out["spectrum.eigenvalues.s_per_eig"] = (
        stats.get("spectrum.eigenvalues", zero)["total_s"] / eigs if eigs else 0.0)

    # a request is a derivation not asked for by another sum-rule routine
    requests = sum(1 for s in spans if s[NAME] == "sumrules.derive_sum_rules"
                   and (s[PARENT] < 0
                        or not spans[s[PARENT]][NAME].startswith("sumrules.")))
    calls = stats.get("sumrules.derive_sum_rules", zero)["calls"]
    out["sumrules.derive_sum_rules.calls_per_request"] = (
        calls / requests if requests else 0.0)
    out["trace.coverage"] = sum(st["self_s"] for st in stats.values()) / wall
    return out
