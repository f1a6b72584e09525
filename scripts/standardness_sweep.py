#!/usr/bin/env python3
"""Sweep a deterministic corpus of two-variable formulas through the
classical system: classically valid ones get positive proofs, the rest get
refutations, and every emitted inference is re-checked.  Reports the split
and proof-size statistics."""

import argparse
import random
import time

from lukas.complete_sets import build_positive_cpc, build_refutation, cpc_context
from lukas.formulas import render
from lukas.kernel import check_inference


def random_corpus(count: int, seed: int):
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from generators import random_formula

    rng = random.Random(seed)
    seen, corpus = set(), []
    while len(corpus) < count:
        f = random_formula(rng, ("p", "q"), depth=3)
        if f in seen:
            continue
        seen.add(f)
        corpus.append(f)
    return corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--show-failures", action="store_true")
    args = parser.parse_args()

    ds, oracle, family, _frame, _template = cpc_context()
    corpus = random_corpus(args.count, args.seed)
    start = time.monotonic()
    positive_sizes, negative_sizes, failures = [], [], 0
    for f in corpus:
        if oracle(f):
            inf = build_positive_cpc(f)
            positive_sizes.append(len(inf.steps))
        else:
            inf = build_refutation(ds, f, oracle, family)
            negative_sizes.append(len(inf.steps))
        if not check_inference(ds, inf).ok:
            failures += 1
            if args.show_failures:
                print("FAILED CHECK:", render(f))
    elapsed = time.monotonic() - start

    def stats(sizes):
        if not sizes:
            return "none"
        return (f"n={len(sizes)} min={min(sizes)} "
                f"mean={sum(sizes)/len(sizes):.1f} max={max(sizes)}")

    print(f"corpus: {len(corpus)} formulas in {elapsed:.1f}s")
    print(f"positive proofs: {stats(positive_sizes)}")
    print(f"refutations:     {stats(negative_sizes)}")
    print(f"re-check failures: {failures}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
