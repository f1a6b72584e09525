#!/usr/bin/env python3
"""Print every rooted poset up to a size bound with its Jankov formula, then
cross-tabulate frame validity against p-morphic reducibility.  The two tables
must be complementary; a mismatch means the construction is broken."""

import argparse

from lukas.complete_sets import jankov_formula
from lukas.formulas import render
from lukas.semantics import enumerate_rooted_posets, frame_valid, p_morphic_reduct_exists


def describe(frame) -> str:
    edges = []
    for i in range(frame.n):
        for j in range(frame.n):
            if i != j and frame.rel[i] & (1 << j):
                edges.append(f"{i}<{j}")
    return f"{frame.n} worlds" + (f" [{' '.join(edges)}]" if edges else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=4)
    args = parser.parse_args()

    frames = enumerate_rooted_posets(args.bound)
    print(f"{len(frames)} rooted posets up to {args.bound} worlds\n")
    for k, frame in enumerate(frames):
        print(f"F{k}: {describe(frame)}")
        print(f"    X(F{k}) = {render(jankov_formula(frame))}")
    print("\nvalidity of X(f) on g (rows g, cols f); '.' = valid, 'x' = fails")
    header = "      " + " ".join(f"F{k}" for k in range(len(frames)))
    print(header)
    mismatches = 0
    for gi, g in enumerate(frames):
        cells = []
        for f in frames:
            valid = frame_valid(g, jankov_formula(f))
            reducible = p_morphic_reduct_exists(g, f)
            if valid == reducible:
                mismatches += 1
            cells.append(" x" if reducible else " .")
        print(f"g=F{gi:<3}" + " ".join(cells))
    print(f"\nmismatches between the two tables: {mismatches}")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
