"""The four workloads: their seeded items, the `lukas` command line each
item runs, and the check of each answer against `reference`.

An item's `run` is the timed part; it only calls the command line.
`check` runs outside the timed spans and returns None when the answer is
right, FAILED when the command gave up (exit 2 or 3, or an exception),
and otherwise a one-line description of the wrong answer.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable, Optional

import reference as R

FAILED = "failed"

#: `call(argv) -> (exit code, stdout)`; exit code None on an exception.
Call = Callable[[list], tuple]

CORPUS = Path(__file__).resolve().parent / "corpus"
MANIFEST = CORPUS / "cpc.ds"


def _verdict(out: str) -> tuple[str, str]:
    head, _, rest = out.partition("\n")
    return head.strip(), rest


def _gave_up(code: Optional[int]) -> bool:
    return code is None or code >= 2


def _check_script(call: Call, work: Path, script: str, sign: str, f: tuple,
                  system: Optional[Path]) -> Optional[str]:
    """The script concludes `sign f`, has no hypotheses, and the kernel
    checker (against `system`, or the intuitionistic basis) says OK."""
    if any(line.startswith("hyp ") for line in script.splitlines()):
        return "script has hypotheses"
    last = R.last_statement(script)
    if last != (sign, f):
        return f"script concludes {last}, wanted {sign} {R.render(f)}"
    path = work / "answer.proof"
    path.write_text(script)
    argv = ["check", str(path)] + (["--system", str(system)] if system else [])
    code, out = call(argv)
    verdict = out.strip().split(" ", 2)
    if code != 0 or verdict[:2] != ["OK", sign] or R.parse(verdict[2]) != f:
        return f"checker says {out.strip()!r} (exit {code})"
    return None


#: Percent of each (classical tautology, connectives) kind among distinct
#: formulas drawn as in criterion 6: over p and q, depth 3, at most six
#: connectives (measured on 5,000 draws).
STANDARDNESS_MIX = {
    (False, 0): 2.0, (False, 1): 7.88, (False, 2): 4.28, (False, 3): 16.14,
    (False, 4): 16.72, (False, 5): 8.82, (False, 6): 9.1,
    (True, 1): 2.16, (True, 2): 1.74, (True, 3): 8.22, (True, 4): 8.54,
    (True, 5): 6.28, (True, 6): 8.12,
}


class Standardness:
    """Two-variable formulas with at most six connectives, criterion 6's
    distribution: `prove-cpc`, then `refute` against the classical manifest
    when the answer is NOT-VALID.

    The formulas are one fixed draw, the same for every seed; the seed
    renames the variables of each formula and orders them.  So every seed
    gets the same mix of formulas and of the work they take."""

    per_pass = 100

    def __init__(self, seed: int, work: Path):
        self.work = work
        pool = R.stratified_formulas(random.Random("standardness/pool"), ("p", "q"),
                                     R.quotas(STANDARDNESS_MIX, self.per_pass))
        rng = random.Random(f"standardness/{seed}")
        self.items = R.renamed(pool, ("p", "q"), rng)
        rng.shuffle(self.items)
        self.truth = [R.tautology(f) for f in self.items]

    def warm_up(self, call: Call) -> None:
        call(["prove-cpc", "p"])
        call(["refute", "--system", str(MANIFEST), "p"])

    def run(self, call: Call, i: int) -> tuple:
        text = R.render(self.items[i])
        first = call(["prove-cpc", text])
        if first[0] != 1:
            return (first,)
        return first, call(["refute", "--system", str(MANIFEST), text])

    def check(self, call: Call, i: int, result: tuple) -> Optional[str]:
        f = self.items[i]
        (code, out), rest = result[0], result[1:]
        if _gave_up(code):
            return FAILED
        if code == 0:
            verdict, script = _verdict(out)
            if verdict != "PROVED" or not self.truth[i]:
                return f"prove-cpc said {verdict!r}; truth table says {self.truth[i]}"
            return _check_script(call, self.work, script, "+", f, MANIFEST)
        if out.strip() != "NOT-VALID" or self.truth[i]:
            return f"prove-cpc said {out.strip()!r}; truth table says {self.truth[i]}"
        code, out = rest[0]
        if _gave_up(code):
            return FAILED
        verdict, script = _verdict(out)
        if code != 0 or verdict != "REFUTED":
            return f"refute said {verdict!r} (exit {code})"
        return _check_script(call, self.work, script, "-", f, MANIFEST)


class Jankov:
    """`valid --frame g X(f)` for every pair of rooted posets f and g of at
    most four worlds, except pairs where both have four worlds: one of those
    enumerates up to 9^4 valuations and alone takes seconds.

    The pairs where X(f) is valid on g are written under a seeded
    relabelling of the worlds of f and g.  They enumerate every valuation,
    so the relabelling leaves their cost alone.  The invalid pairs keep one
    fixed labelling, because where their enumeration stops early depends on
    the labels."""

    def __init__(self, seed: int, work: Path):
        rng = random.Random(f"jankov/{seed}")
        posets = R.rooted_posets(4)
        n = len(posets)
        self.frames = []
        for k, poset in enumerate(posets):
            for tag, perm in (("", range(poset.n)), ("r", _shuffled(poset.n, rng))):
                path = work / f"frame{k}{tag}.frame"
                path.write_text(_frame_file(poset, list(perm)))
                self.frames.append(path)
        self.items = []
        self.valid = []
        for f in range(n):
            for g in range(n):
                if min(posets[f].n, posets[g].n) == 4:
                    continue
                valid = not R.p_morphic_image(posets[g], posets[f])
                self.items.append((2 * f + valid, 2 * g + valid))
                self.valid.append(valid)
        order = list(range(len(self.items)))
        rng.shuffle(order)
        self.items = [self.items[k] for k in order]
        self.valid = [self.valid[k] for k in order]
        self.formulas: list = []

    def warm_up(self, call: Call) -> None:
        """The Jankov formula of every frame, by `lukas jankov`, then a
        one-world pair."""
        self.formulas = []
        for path in self.frames:
            code, out = call(["jankov", "--frame", str(path)])
            if code != 0:
                raise RuntimeError(f"lukas jankov failed on {path.name}: exit {code}")
            self.formulas.append(out.strip())
        call(["valid", "--frame", str(self.frames[0]), self.formulas[0]])

    def run(self, call: Call, i: int) -> tuple:
        f, g = self.items[i]
        return call(["valid", "--frame", str(self.frames[g]), self.formulas[f]])

    def check(self, call: Call, i: int, result: tuple) -> Optional[str]:
        code, out = result
        if _gave_up(code):
            return FAILED
        want = self.valid[i]
        said = (code, out.strip())
        if said != ((0, "VALID") if want else (1, "INVALID")):
            return f"pair {self.items[i]}: lukas said {said}, p-morphism search says valid={want}"
        return None


def _shuffled(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _frame_file(poset: R.Poset, perm: list) -> str:
    """The frame file of `poset` with world w written as `perm[w]`."""
    lines = ["mode int", f"worlds {poset.n}"]
    lines += [f"rel {perm[i]} {perm[j]}" for i in range(poset.n)
              for j in sorted(poset.up[i]) if j != i]
    return "\n".join(lines) + "\n"


class Check:
    """`check --system` on every stored proof script of the corpus, in
    seeded order; for a seeded fifth of them the copy whose final step has
    the opposite sign is checked instead."""

    flipped_share = 5

    def __init__(self, seed: int, work: Path):
        entries = [line.split("\t") for line in
                   (CORPUS / "index.tsv").read_text().splitlines() if line]
        rng = random.Random(f"check/{seed}")
        rng.shuffle(entries)
        self.items = []
        for k, (name, text) in enumerate(entries):
            flipped = k % self.flipped_share == 0
            path = CORPUS / "scripts" / f"{name}{'.flipped' if flipped else ''}.proof"
            steps = sum(1 for line in path.read_text().splitlines()
                        if line.split(" ", 1)[0].isdigit())
            self.items.append((path, R.parse(text), flipped, steps))

    def warm_up(self, call: Call) -> None:
        call(["check", str(CORPUS / "scripts" / "s000.proof"), "--system", str(MANIFEST)])

    def run(self, call: Call, i: int) -> tuple:
        return call(["check", str(self.items[i][0]), "--system", str(MANIFEST)])

    def check(self, call: Call, i: int, result: tuple) -> Optional[str]:
        path, f, flipped, last = self.items[i]
        code, out = result
        if _gave_up(code):
            return FAILED
        words = out.strip().split(" ", 2)
        if flipped:
            if code != 1 or words[:2] != ["ERR", str(last)]:
                return f"{path.name}: {out.strip()!r} (exit {code}), wanted ERR {last}"
            return None
        sign = "+" if R.tautology(f) else "-"
        if code != 0 or words[:2] != ["OK", sign] or R.parse(words[2]) != f:
            return f"{path.name}: {out.strip()!r} (exit {code}), wanted OK {sign}"
        return None


#: Criterion 5: intuitionistic theorems, then classical-only formulas.
THEOREMS = [
    "p -> p", "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "p & q -> p", "p -> (q -> p & q)", "p -> p | q",
    "(p -> r) -> ((q -> r) -> (p | q -> r))", "bot -> p",
    "~~(p | ~p)", "~~(~~p -> p)", "(p -> q) -> (~q -> ~p)",
    "~(p | q) -> ~p & ~q", "~p & ~q -> ~(p | q)", "~p | ~q -> ~(p & q)",
    "p & (q | r) -> (p & q) | (p & r)", "(p & q) | (p & r) -> p & (q | r)",
    "p | (q & r) -> (p | q) & (p | r)", "(p | q) & (p | r) -> p | (q & r)",
    "~~~p -> ~p", "~p -> ~~~p",
    "(p -> (q -> r)) -> (q -> (p -> r))",
    "(p -> q) -> ((q -> r) -> (p -> r))",
    "p -> ~~p", "~~(p & q) -> ~~p & ~~q", "~~p & ~~q -> ~~(p & q)",
    "(p -> ~p) -> ~p", "(~p -> p) -> ~~p",
    "((p | ~p) -> q) -> ~~q", "~~(p -> q) -> (~~p -> ~~q)",
    "((p -> q) -> r) -> (p -> (q -> r))",
]
CLASSICAL_ONLY = [
    "p | ~p", "~~p -> p", "((p -> q) -> p) -> p",
    "~p | ~~p", "(p -> q) | (q -> p)", "(~q -> ~p) -> (p -> q)",
    "~(p & q) -> ~p | ~q", "(p -> q) -> (~p | q)",
    "((p -> q) -> q) -> p | q", "(~p -> q) -> (~q -> p)",
]
#: Five-variable formulas, the same in every run: two theorems and two
#: non-theorems.  `lukas ipc` exits 3 on the non-theorems today, because
#: its countermodel search refuses more than four variables.
FIVE_VARIABLES = [
    "p & q & r & s & t -> t",
    "(p -> q) -> (q -> r) -> (r -> s) -> (s -> t) -> p -> t",
    "(p | q | r | s | t) -> p",
    "((p -> q) -> p) -> p | q & r & s & t",
]


#: Percent of each (classical tautology, connectives) kind among distinct
#: depth-3 formulas in all of p, q and r with at most seven connectives
#: (measured on 4,000 draws).
IPC_MIX = {
    (False, 2): 1.8, (False, 3): 13.03, (False, 4): 20.4, (False, 5): 12.65,
    (False, 6): 17.27, (False, 7): 8.95,
    (True, 3): 2.23, (True, 4): 5.47, (True, 5): 5.38, (True, 6): 8.55, (True, 7): 4.28,
}


class Ipc:
    """`lukas ipc` on criterion 5's forty formulas, the four five-variable
    ones above and 56 three-variable formulas.  The three-variable formulas
    are one fixed draw, renamed and ordered by the seed like `standardness`
    items."""

    drawn = 56

    def __init__(self, seed: int, work: Path):
        self.work = work
        fixed = [R.parse(t) for t in THEOREMS + CLASSICAL_ONLY + FIVE_VARIABLES]
        pool = R.stratified_formulas(random.Random("ipc/pool"), ("p", "q", "r"),
                                     R.quotas(IPC_MIX, self.drawn),
                                     max_connectives=7, min_vars=3, exclude=fixed)
        rng = random.Random(f"ipc/{seed}")
        drawn = R.renamed(pool, ("p", "q", "r"), rng, taken=fixed)
        self.items = fixed + drawn
        self.expect = (["THEOREM"] * len(THEOREMS) + ["COUNTERMODEL"] * len(CLASSICAL_ONLY)
                       + ["THEOREM"] * 2 + ["COUNTERMODEL"] * 2 + [None] * len(drawn))
        order = list(range(len(self.items)))
        rng.shuffle(order)
        self.items = [self.items[k] for k in order]
        self.expect = [self.expect[k] for k in order]

    def warm_up(self, call: Call) -> None:
        call(["ipc", "p | ~p"])

    def run(self, call: Call, i: int) -> tuple:
        return call(["ipc", R.render(self.items[i])])

    def check(self, call: Call, i: int, result: tuple) -> Optional[str]:
        f = self.items[i]
        code, out = result
        if _gave_up(code):
            return FAILED
        verdict, payload = _verdict(out)
        if self.expect[i] not in (None, verdict):
            return f"{R.render(f)}: {verdict!r}, wanted {self.expect[i]}"
        if code == 0 and verdict == "THEOREM":
            if not R.tautology(f):
                return f"{R.render(f)}: THEOREM, but not a classical tautology"
            return _check_script(call, self.work, payload, "+", f, None)
        if code == 1 and verdict == "COUNTERMODEL":
            if not R.refutes(R.parse_model(payload), f):
                return f"{R.render(f)}: the countermodel forces it everywhere"
            return None
        return f"{R.render(f)}: {verdict!r} (exit {code})"


WORKLOADS = {"standardness": Standardness, "jankov": Jankov, "check": Check, "ipc": Ipc}
