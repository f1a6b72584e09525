"""Make the stored corpus of the `check` workload anew.

    python3 perfbench/make_corpus.py

Writes, under perfbench/corpus/: the classical manifest `cpc.ds` (by
`lukas axiomatize` on the one-point frame `point.frame`), one proof script
per seeded two-variable formula (by `lukas prove-cpc`, or by `lukas refute`
against `cpc.ds` when the answer is NOT-VALID), a copy of each script whose
final step has the opposite sign, and `index.tsv` naming each script's
formula.  Every run compares these stored bytes, so they do not change
with the commit under test.
"""

from __future__ import annotations

import random
import sys

from run import SRC, caller, fresh_lukas

import reference as R
from workloads import CORPUS, MANIFEST, STANDARDNESS_MIX

CORPUS_SEED = "corpus/20261018"
SIZE = 160


def flip_last(script: str) -> str:
    lines = script.rstrip("\n").split("\n")
    number, sign, rest = lines[-1].split(" ", 2)
    lines[-1] = f"{number} {'-' if sign == '+' else '+'} {rest}"
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(SRC))
    call = caller(fresh_lukas())
    scripts = CORPUS / "scripts"
    scripts.mkdir(parents=True, exist_ok=True)
    point = CORPUS / "point.frame"
    point.write_text("mode int\nworlds 1\n")
    code, manifest = call(["axiomatize", "--frames", str(point), "--bound", "3"])
    if code != 0:
        raise SystemExit(f"lukas axiomatize failed: exit {code}")
    MANIFEST.write_text(manifest)

    formulas = R.stratified_formulas(random.Random(CORPUS_SEED), ("p", "q"),
                                     R.quotas(STANDARDNESS_MIX, SIZE))
    index = []
    for k, f in enumerate(formulas):
        text = R.render(f)
        code, out = call(["prove-cpc", text])
        if code == 1:
            code, out = call(["refute", "--system", str(MANIFEST), text])
        verdict, _, script = out.partition("\n")
        if code != 0 or verdict not in ("PROVED", "REFUTED"):
            raise SystemExit(f"{text}: {verdict!r} (exit {code})")
        name = f"s{k:03d}"
        (scripts / f"{name}.proof").write_text(script)
        (scripts / f"{name}.flipped.proof").write_text(flip_last(script))
        index.append(f"{name}\t{text}\n")
    (CORPUS / "index.tsv").write_text("".join(index))
    print(f"wrote {len(index)} scripts and their flipped copies under {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
