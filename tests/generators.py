"""Seeded random generators shared by the fuzz tests and the acceptance
suite: random formulas, random mixed-sign inferences built forward (each
rule's conclusion computed here, not by the kernel's rule table), and
positive hypothesis-rooted inferences shaped so that the refutation
transformer is applicable.  Also a truth-table evaluator that does not go
through `lukas.semantics`, as an independent classical reference.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional, Sequence

from lukas.formulas import (
    BOT,
    And,
    Bottom,
    Formula,
    Implies,
    Mode,
    Or,
    Var,
    apply_substitution,
    render,
    subformulas,
    variables,
)
from lukas.kernel import (
    Axiom,
    AntiAxiom,
    DeductiveSystem,
    Hypothesis,
    Inference,
    Justification,
    MP,
    MT,
    NS,
    RS,
    Sb,
    Sign,
    Statement,
    Step,
    asserts,
    rejects,
)


def classical_value(a: Formula, env: dict[str, bool]) -> bool:
    """Truth value of a box-free formula under a boolean valuation."""
    if isinstance(a, Var):
        return env[a.name]
    if isinstance(a, Bottom):
        return False
    if isinstance(a, And):
        return classical_value(a.left, env) and classical_value(a.right, env)
    if isinstance(a, Or):
        return classical_value(a.left, env) or classical_value(a.right, env)
    if isinstance(a, Implies):
        return (not classical_value(a.left, env)) or classical_value(a.right, env)
    raise TypeError(f"not a propositional formula: {a!r}")


def tautology(a: Formula) -> bool:
    """Whether `a` is true under every boolean valuation of its variables."""
    names = sorted(variables(a))
    return all(classical_value(a, dict(zip(names, values)))
               for values in itertools.product((False, True), repeat=len(names)))


def random_formula(rng: random.Random, names: Sequence[str] = ("p", "q"),
                   depth: int = 3, mode: Mode = Mode.INT) -> Formula:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if rng.random() < 0.12:
            return BOT
        return Var(rng.choice(list(names)))
    connective = rng.randrange(4 if mode is Mode.INT else 5)
    if connective == 0:
        return And(random_formula(rng, names, depth - 1, mode),
                   random_formula(rng, names, depth - 1, mode))
    if connective == 1:
        return Or(random_formula(rng, names, depth - 1, mode),
                  random_formula(rng, names, depth - 1, mode))
    if connective in (2, 3):
        return Implies(random_formula(rng, names, depth - 1, mode),
                       random_formula(rng, names, depth - 1, mode))
    from lukas.formulas import Box
    return Box(random_formula(rng, names, depth - 1, mode))


def _size(f: Formula) -> int:
    return len(render(f))


def random_substitution(rng: random.Random, f: Formula,
                        names: Sequence[str] = ("p", "q"),
                        mode: Mode = Mode.INT) -> dict[str, Formula]:
    subst = {}
    for name in sorted(variables(f)):
        if rng.random() < 0.6:
            subst[name] = random_formula(rng, names, depth=1, mode=mode)
    return subst


def _generalise(rng: random.Random, f: Formula) -> tuple[Formula, Formula]:
    """A pattern P and the witnessing replaced subtree so that f = sigma(P)."""
    candidates = [g for g in subformulas(f)]
    target = rng.choice(candidates)
    used = variables(f)
    fresh = next(Var(f"w{i}") for i in range(len(used) + 1)
                 if f"w{i}" not in used)

    def replace(g: Formula) -> Formula:
        if g == target:
            return fresh
        if isinstance(g, And):
            return And(replace(g.left), replace(g.right))
        if isinstance(g, Or):
            return Or(replace(g.left), replace(g.right))
        if isinstance(g, Implies):
            return Implies(replace(g.left), replace(g.right))
        from lukas.formulas import Box
        if isinstance(g, Box):
            return Box(replace(g.inner))
        return g

    return replace(f), target


def random_mixed_inference(rng: random.Random,
                           ds: DeductiveSystem,
                           hypotheses: Sequence[Statement] = (),
                           length: int = 10,
                           max_size: int = 240) -> Inference:
    """Forward-built inference using every rule the system supports; all
    steps valid by construction."""
    steps: list[Step] = []

    def emit(statement: Statement, just: Justification) -> None:
        steps.append(Step(statement, just))

    def positives() -> list[int]:
        return [i for i, s in enumerate(steps, 1) if s.statement.sign is Sign.ASSERT]

    def negatives() -> list[int]:
        return [i for i, s in enumerate(steps, 1) if s.statement.sign is Sign.REJECT]

    axioms = sorted(ds.positive_axioms(), key=render)
    antis = sorted(ds.anti_axioms, key=render)
    for h in hypotheses:
        emit(h, Hypothesis())
    emit(asserts(rng.choice(axioms)), Axiom())
    if antis:
        emit(rejects(rng.choice(antis)), AntiAxiom())

    while len(steps) < length:
        move = rng.randrange(7)
        if move == 0:
            emit(asserts(rng.choice(axioms)), Axiom())
        elif move == 1 and antis:
            emit(rejects(rng.choice(antis)), AntiAxiom())
        elif move == 2:
            source = rng.choice(positives())
            f = steps[source - 1].statement.formula
            subst = random_substitution(rng, f, mode=ds.mode)
            result = apply_substitution(subst, f)
            if _size(result) <= max_size:
                emit(asserts(result), Sb.of(source, subst))
        elif move == 3:
            pos = positives()
            majors = [i for i in pos
                      if isinstance(steps[i - 1].statement.formula, Implies)]
            rng.shuffle(majors)
            done = False
            for major in majors:
                want = steps[major - 1].statement.formula.left
                for minor in pos:
                    if steps[minor - 1].statement.formula == want:
                        emit(asserts(steps[major - 1].statement.formula.right),
                             MP(major, minor))
                        done = True
                        break
                if done:
                    break
        elif move == 4:
            neg = negatives()
            if neg:
                majors = [i for i in positives()
                          if isinstance(steps[i - 1].statement.formula, Implies)]
                rng.shuffle(majors)
                done = False
                for major in majors:
                    want = steps[major - 1].statement.formula.right
                    for minor in neg:
                        if steps[minor - 1].statement.formula == want:
                            emit(rejects(steps[major - 1].statement.formula.left),
                                 MT(major, minor))
                            done = True
                            break
                    if done:
                        break
        elif move == 5:
            neg = negatives()
            if neg:
                source = rng.choice(neg)
                pattern, _ = _generalise(rng, steps[source - 1].statement.formula)
                emit(rejects(pattern), RS(source))
        elif move == 6 and ds.mode is Mode.K4:
            from lukas.formulas import Box
            source = rng.choice(positives())
            f = steps[source - 1].statement.formula
            if _size(f) <= max_size:
                emit(asserts(Box(f)), NS(source))
    return Inference(tuple(hypotheses), tuple(steps))


def _compact_support(inf: Inference, target: int) -> Inference:
    """Restrict an inference to the support closure of one step."""
    mapping: dict[int, int] = {}
    steps: list[Step] = []
    for old in sorted(inf.support(target)):
        step = inf.steps[old - 1]
        steps.append(Step(step.statement, step.justification.remap(mapping)))
        mapping[old] = len(steps)
    return Inference(inf.hypotheses, tuple(steps))


def random_refutable_instance(rng: random.Random,
                              ds: DeductiveSystem,
                              oracle: Callable[[Formula], bool],
                              names: Sequence[str] = ("p", "q"),
                              length: int = 9,
                              hyp_major_ok: bool = True,
                              ) -> Optional[Inference]:
    """A positive inference of an oracle-underivable formula from underivable
    hypotheses, shaped so the refutation transformer can always discharge it.

    Modus-ponens majors are either hypothesis-free (so their derivations can
    be replayed) or hypothesis formulas paired with classically refutable
    sides (so the rejection transfers through a boolean substitution).
    """
    mode = ds.mode
    hypotheses = []
    for _ in range(rng.randrange(1, 4)):
        for _attempt in range(40):
            f = random_formula(rng, names, depth=2, mode=mode)
            if not oracle(f):
                hypotheses.append(asserts(f))
                break
    if not hypotheses:
        return None

    steps: list[Step] = []
    hyp_free: list[bool] = []

    def emit(statement: Statement, just: Justification, free: bool) -> int:
        steps.append(Step(statement, just))
        hyp_free.append(free)
        return len(steps)

    for h in hypotheses:
        emit(h, Hypothesis(), False)
    axioms = sorted(ds.positive_axioms(), key=render)
    emit(asserts(rng.choice(axioms)), Axiom(), True)

    renames = {n: Var(rng.choice(list(names))) for n in names}

    while len(steps) < length:
        move = rng.randrange(6)
        pos = list(range(1, len(steps) + 1))
        if move == 0:
            emit(asserts(rng.choice(axioms)), Axiom(), True)
        elif move == 1:
            source = rng.choice(pos)
            f = steps[source - 1].statement.formula
            if hyp_free[source - 1]:
                subst = random_substitution(rng, f, names, mode)
            else:
                subst = {n: renames[n] for n in variables(f) if n in renames}
            result = apply_substitution(subst, f)
            if _size(result) <= 240:
                emit(asserts(result), Sb.of(source, subst),
                     hyp_free[source - 1])
        elif move in (2, 3):
            majors = [i for i in pos
                      if isinstance(steps[i - 1].statement.formula, Implies)
                      and (hyp_free[i - 1]
                           or (hyp_major_ok and _transferable(steps[i - 1].statement.formula,
                                                              oracle)))]
            rng.shuffle(majors)
            done = False
            for major in majors:
                want = steps[major - 1].statement.formula.left
                for minor in pos:
                    if steps[minor - 1].statement.formula == want:
                        emit(asserts(steps[major - 1].statement.formula.right),
                             MP(major, minor),
                             hyp_free[major - 1] and hyp_free[minor - 1])
                        done = True
                        break
                if done:
                    break
        elif move == 4 and mode is Mode.K4:
            from lukas.formulas import Box
            source = rng.choice(pos)
            f = steps[source - 1].statement.formula
            if _size(f) <= 240:
                emit(asserts(Box(f)), NS(source), hyp_free[source - 1])
        elif move == 5:
            # implication chain rooted anywhere: weakening instance plus MP
            source = rng.choice(pos)
            f = steps[source - 1].statement.formula
            other = random_formula(rng, names, depth=1, mode=mode)
            axiom_one = next((a for a in axioms if render(a) == "p -> (q -> p)"), None)
            if _size(f) <= 120 and axiom_one is not None:
                head = Implies(f, Implies(other, f))
                base = emit(asserts(axiom_one), Axiom(), True)
                inst = emit(asserts(head), Sb.of(base, {"p": f, "q": other}), True)
                emit(asserts(Implies(other, f)), MP(inst, source),
                     hyp_free[source - 1])

    # choose an underivable, hypothesis-rooted target
    for index in range(len(steps), 0, -1):
        statement = steps[index - 1].statement
        if hyp_free[index - 1]:
            continue
        if oracle(statement.formula):
            continue
        candidate = _compact_support(Inference(tuple(hypotheses), tuple(steps)), index)
        return candidate
    return None


def _transferable(major: Formula, oracle: Callable[[Formula], bool]) -> bool:
    """A hypothesis-justified major is safe when the boolean transfer of the
    rejection applies: one side must be classically refutable."""
    from lukas.formulas import has_box
    if oracle(major):
        return False
    if has_box(major):
        return False
    assert isinstance(major, Implies)
    names = sorted(variables(major))
    minor_refutable = False
    rhs_refutable = False
    for values in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, values))
        if not classical_value(major.left, env):
            minor_refutable = True
        elif not classical_value(major.right, env):
            rhs_refutable = True
    return minor_refutable or rhs_refutable
