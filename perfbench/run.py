"""Benchmark of the `lukas` command line.

    python3 perfbench/run.py --workload standardness --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One run is one process.  It builds the workload's items from the seed, then
makes whole passes over the items until `--seconds` have gone by, give or
take half a pass.  Before each pass it times a set-up: importing `lukas`
anew from `src/` and the workload's fixed warm-up calls, so every pass does
the same work.  In a pass it calls `lukas.cli.main` on each item, timing the
call with `perf_counter` and checking the answer, outside the timed span,
against `reference`.  After the last pass it times three more set-ups.
Each item's time is the 90th percentile of its times over the passes (see
ITEM_QUANTILE).
The last line of standard output is a JSON object: `correct`, `attempted`,
`failed` and the end-to-end metrics, or with `--trace 1` the per-layer ones
(see spans.py).
`--workload all` runs every workload in a child process of its own, one
after the other, and prints one row per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Hash seed of every run.  It does not change what `lukas` prints, only
#: set and dict layouts, and so the time some items take.
HASH_SEED = "0"
SETUPS_AFTER = 3             # set-ups timed after the last pass
MIN_PASSES = 3
#: An item's time is this quantile (nearest rank) of its times over a run's
#: passes.  The host runs the same code at two speeds about 1.7 times apart,
#: and the fast one comes in phases of a few seconds whose share of a run
#: varies from none to about half.  The 90th percentile reads the usual,
#: slower speed whatever that share; the fastest time, the median and the
#: mean all move with it.  See "Which per-item figure" in README.md.
ITEM_QUANTILE = 0.9

END_TO_END = [("setup_s", "s"), ("items_per_s", "1/s"), ("latency_ms.p50", "ms"),
              ("latency_ms.p90", "ms"), ("peak_rss_mb", "MB")]


def caller(cli):
    """`call(argv) -> (exit code, stdout)` through `cli.main`, looked up on
    every call so that a traced run's wrapper is the one called."""

    def call(argv: list) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc(file=sys.__stderr__)
                code = None
        return code, out.getvalue()

    return call


def fresh_lukas():
    """Import `lukas.cli` anew from `src/`, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "lukas" or m.startswith("lukas.")]:
        del sys.modules[name]
    cli = importlib.import_module("lukas.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported lukas from {cli.__file__}, not from {SRC}")
    return cli


def percentile(sorted_values: list, share: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


class Tally:
    """Per-item times and outcomes over whole passes; each distinct answer
    of an item is checked once.  `samples[i]` holds item i's time in each
    pass, inf where it failed or was wrong."""

    def __init__(self, workload, call):
        self.workload = workload
        self.call = call
        self.checked: dict = {}
        self.times: list = []
        self.samples: list = [[] for _ in workload.items]
        self.failed = 0
        self.wrong: list = []
        self.passes = 0

    def one_pass(self, on_item=None) -> float:
        """Run every item once; return the timed seconds of the pass."""
        w = self.workload
        total = 0.0
        for i in range(len(w.items)):
            if on_item:
                on_item(i)
            t0 = time.perf_counter()
            result = w.run(self.call, i)
            elapsed = time.perf_counter() - t0
            total += elapsed
            key = (i, result)
            if key not in self.checked:
                self.checked[key] = self.verify(i, result)
            outcome = self.checked[key]
            self.times.append(elapsed if outcome is None else math.inf)
            self.samples[i].append(self.times[-1])
            if outcome is not None:
                if outcome == workloads.FAILED:
                    self.failed += 1
                elif outcome not in self.wrong:
                    self.wrong.append(outcome)
        self.passes += 1
        return total

    def run_for(self, seconds: float, on_item=None, before_pass=None,
                min_passes: int = MIN_PASSES) -> list:
        """Whole passes until `seconds` have gone by, give or take half a
        pass, and at least `min_passes` passes; the timed seconds of each.
        `before_pass()` runs ahead of every pass, inside the measured time."""
        timed = []
        start = last = time.perf_counter()
        pass_wall = 0.0
        while (len(timed) < min_passes
               or time.perf_counter() - start + pass_wall / 2 < seconds):
            if before_pass:
                before_pass()
            timed.append(self.one_pass(on_item))
            now = time.perf_counter()
            pass_wall, last = now - last, now
        return timed

    def verify(self, i: int, result) -> object:
        return self.workload.check(self.call, i, result)

    def item_times(self) -> list:
        """Each item's ITEM_QUANTILE time over the passes, sorted; inf for
        an item that ever failed."""
        return sorted(math.inf if math.inf in xs else percentile(sorted(xs), ITEM_QUANTILE)
                      for xs in self.samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "lukas" / "cli.py").is_file():
        raise SystemExit(f"error: no lukas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    work = OUT / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, work)

    def set_up(after_import=None):
        """Import `lukas` anew and warm the workload up; return `call`."""
        cli = fresh_lukas()
        if after_import:
            after_import()
        call = caller(cli)
        workload.warm_up(call)
        return call

    if trace:
        import spans
        return spans.traced_run(Tally(workload, None), set_up, seconds,
                                OUT / f"trace-{name}-{seed}.tsv.gz")

    setups = []
    tally = Tally(workload, None)

    def timed_set_up():
        gc.collect()
        t0 = time.perf_counter()
        tally.call = set_up()
        setups.append(time.perf_counter() - t0)

    timed = tally.run_for(seconds, before_pass=timed_set_up)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUPS_AFTER):
        timed_set_up()
    items = tally.item_times()
    good = [t for t in items if t != math.inf]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(good) / sum(good),
        "latency_ms.p50": 1000 * percentile(items, 0.5),
        "latency_ms.p90": 1000 * percentile(items, 0.9),
        "peak_rss_mb": peak_rss,
    }
    print(f"{name}: {tally.passes} passes of {len(workload.items)} items, "
          f"timed {', '.join(f'{t:.2f}' for t in timed)} s, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    for reason in tally.wrong:
        print(f"WRONG: {reason}")
    return {
        "correct": not tally.wrong,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process, one after the other."""
    rows = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    names = list(rows[0][1]["metrics"])
    header = ["workload", "correct", "attempted", "failed"] + [
        f"{m} ({rows[0][1]['metrics'][m]['unit']})" for m in names]
    print("\t".join(header))
    for name, record in rows:
        cells = [name, str(record["correct"]), str(record["attempted"]), str(record["failed"])]
        cells += [f"{record['metrics'][m]['value']:.6g}" for m in names]
        print("\t".join(cells))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["standardness", "jankov", "check", "ipc", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
