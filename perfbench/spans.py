"""The traced run: spans at the boundaries between `lukas` modules.

Only `run.py --trace 1` imports this module.  It installs its wrappers from
outside, after `lukas` is imported: each boundary's function is rebound, in
every `lukas` module that holds it, to a wrapper that records a span (name,
start, end, parent span, item) and counts calls.  A call made while the
same boundary is already open (recursion) opens no span and counts as a
node only.  Spans are kept in flat arrays and written out when the run ends;
self time is a span's length minus the length of its child spans.

Every metric is for the set-up plus one pass over the items.  The run first
sets up and makes one pass untraced, then imports `lukas` anew, installs the
wrappers, sets up and makes traced passes until `--seconds` have gone by.
Counts are those of the set-up and the first traced pass, so they repeat
exactly; later passes can skip work that lru caches kept.  Self times are
the set-up's plus the mean over the traced passes.  The run reports its own
overhead as the traced over the untraced timed seconds of a pass, less one,
in percent.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from functools import wraps

#: name, defining module, attribute, counts kept besides self time.
BOUNDARIES = [
    ("cli.main", "lukas.cli", "main", ("calls",)),
    ("complete_sets.manifest", "lukas.complete_sets", "manifest_context", ("calls",)),
    ("complete_sets.refute", "lukas.complete_sets", "build_refutation", ()),
    ("complete_sets.positive", "lukas.complete_sets", "build_positive_cpc", ()),
    ("complete_sets.jankov", "lukas.complete_sets", "jankov_formula", ()),
    ("transforms.symmetry", "lukas.transforms", "symmetry_transform", ("steps",)),
    ("transforms.convert", "lukas.transforms", "convert_ipc", ()),
    ("prover.search", "lukas.prover", "_Search.prove", ("calls", "proved", "nodes")),
    ("prover.elaborate", "lukas.prover", "_term_to_derivation", ("steps",)),
    ("prover.derive", "lukas.prover", "derive_from_hypotheses", ()),
    ("prover.countermodel", "lukas.prover", "countermodel_search", ()),
    ("semantics.posets", "lukas.semantics", "enumerate_rooted_posets", ("calls",)),
    ("semantics.frame_valid", "lukas.semantics", "frame_valid", ("calls",)),
    ("semantics.truth_mask", "lukas.semantics", "truth_mask", ("calls",)),
    ("kernel.check", "lukas.kernel", "check_inference", ("calls", "steps")),
    ("kernel.parse_script", "lukas.kernel", "parse_proof_script", ()),
    ("kernel.ipc_axioms", "lukas.kernel", "ipc_axioms", ("calls",)),
    ("formulas.parse", "lukas.formulas", "parse_formula", ("calls",)),
    ("formulas.has_box", "lukas.formulas", "has_box", ("calls",)),
    ("formulas.subst", "lukas.formulas", "apply_substitution", ()),
    ("formulas.match", "lukas.formulas", "match_instance", ()),
]

#: What a boundary's `steps` counts: the steps of its result, or of the
#: inference it was given.
STEPS = {
    "transforms.symmetry": lambda args, result: len(result[1].steps),
    "prover.elaborate": lambda args, result: len(result.steps),
    "kernel.check": lambda args, result: len(args[1].steps),
}

#: Per-layer metrics other than the boundaries' own.
OWN = [("trace.overhead_pct", "%"), ("trace.spans", "count")]


def metric_names() -> list:
    """Every per-layer metric, as (name, unit), in the order reported."""
    out = []
    for name, _module, _attr, counts in BOUNDARIES:
        out += [(f"{name}.{c}", "count") for c in counts]
        out.append((f"{name}.self_s", "s"))
    return out + OWN


class Tracer:
    def __init__(self):
        self.names = [b[0] for b in BOUNDARIES]
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.open: list = []
        self.depth = [0] * len(BOUNDARIES)
        self.counts = [dict.fromkeys(b[3], 0) for b in BOUNDARIES]
        self.current_item = -1
        self.paused = False
        self.absent: list = []

    def wrap(self, k: int, fn):
        name = self.names[k]
        counts = self.counts[k]
        steps = STEPS.get(name)
        perf = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if "nodes" in counts:
                counts["nodes"] += 1
            if self.depth[k]:
                return fn(*args, **kwargs)
            if "calls" in counts:
                counts["calls"] += 1
            index = len(self.start)
            self.kind.append(k)
            self.parent.append(self.open[-1] if self.open else -1)
            self.item.append(self.current_item)
            self.end.append(0.0)
            self.open.append(index)
            self.depth[k] += 1
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf()
                self.depth[k] -= 1
                self.open.pop()
            if steps:
                counts["steps"] += steps(args, result)
            if "proved" in counts and result is not None:
                counts["proved"] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Rebind each boundary in every `lukas` module that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "lukas" or n.startswith("lukas.")]
        for k, (name, module, attr, _counts) in enumerate(BOUNDARIES):
            owner = sys.modules.get(module)
            if "." in attr:                      # a method, wrapped on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(k, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def self_times(self) -> tuple:
        """Self time of each boundary, in seconds, summed over the set-up's
        spans and over the items' spans."""
        n = len(self.start)
        inner = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                inner[p] += self.end[i] - self.start[i]
        set_up = [0.0] * len(BOUNDARIES)
        items = [0.0] * len(BOUNDARIES)
        for i in range(n):
            totals = set_up if self.item[i] < 0 else items
            totals[self.kind[i]] += self.end[i] - self.start[i] - inner[i]
        return set_up, items

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart\tend\tparent\titem\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.kind[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.item[i]}\n")


def traced_run(tally, set_up, seconds: float, trace_path) -> dict:
    """An untraced set-up and pass, then a traced set-up and traced passes
    for `seconds`; the per-layer metrics."""
    tally.call = set_up()
    untraced = tally.one_pass()

    tracer = Tracer()
    check = tally.verify

    def paused_check(i, result):
        tracer.paused = True
        try:
            return check(i, result)
        finally:
            tracer.paused = False

    tally.verify = paused_check
    tally.call = set_up(after_import=tracer.install)
    mark = lambda i: setattr(tracer, "current_item", i)   # noqa: E731
    start = time.perf_counter()
    traced = [tally.one_pass(on_item=mark)]
    counted = [dict(c) for c in tracer.counts]
    spans = len(tracer.start)
    traced += tally.run_for(seconds - (time.perf_counter() - start), on_item=mark,
                            min_passes=1)
    tracer.paused = True
    passes = len(traced)

    set_up_self, pass_self = tracer.self_times()
    values = {}
    for k, (name, _module, _attr, counts) in enumerate(BOUNDARIES):
        for c in counts:
            values[f"{name}.{c}"] = counted[k][c]
        values[f"{name}.self_s"] = set_up_self[k] + pass_self[k] / passes
    per_pass = sum(traced) / passes
    values["trace.overhead_pct"] = 100 * (per_pass - untraced) / untraced
    values["trace.spans"] = spans
    tracer.write(trace_path)
    print(f"traced: {passes} passes of {len(tally.workload.items)} items, "
          f"{per_pass:.3f} s a pass traced, {untraced:.3f} s untraced, "
          f"{len(tracer.start)} spans written to {trace_path.name}")
    for name in tracer.absent:
        print(f"absent boundary: {name} (its metrics read 0)")
    for reason in tally.wrong:
        print(f"WRONG: {reason}")
    return {
        "correct": not tally.wrong,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_names()},
    }
