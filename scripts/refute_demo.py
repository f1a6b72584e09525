#!/usr/bin/env python3
"""End-to-end refutation demo: axiomatize the logic of a chain frame over
the Jankov family, refute a formula, print the proof script, and re-check
it through the kernel."""

import argparse

from lukas.complete_sets import build_refutation, build_system, jankov_family
from lukas.formulas import Mode, parse_formula, render
from lukas.kernel import check_inference, render_proof_script
from lukas.semantics import chain_frame, check_adequacy, tabular_oracle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("formula", nargs="?", default="p | ~p")
    parser.add_argument("--chain", type=int, default=2,
                        help="length of the defining chain frame")
    parser.add_argument("--bound", type=int, default=3)
    args = parser.parse_args()

    frame = chain_frame(args.chain)
    oracle = tabular_oracle([frame])
    family = jankov_family(args.bound)
    ds = build_system(oracle, family)
    adequate = check_adequacy(frame, ds)
    print(f"system over the {args.chain}-chain: "
          f"{len(ds.extra_positive)} extra axioms, "
          f"{len(ds.anti_axioms)} anti-axioms, adequate={adequate}")

    target = parse_formula(args.formula, Mode.INT)
    if oracle(target):
        print(f"{render(target)} is derivable in this logic; nothing to refute")
        return 1
    inf = build_refutation(ds, target, oracle, family)
    report = check_inference(ds, inf)
    print(f"refutation: {len(inf.steps)} steps, checker says: {report}")
    print()
    print(render_proof_script(Mode.INT, inf), end="")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
