"""Decision procedure for intuitionistic propositional validity plus bounded
Hilbert-style search for derivability from hypotheses with substitution.

The decision engine is a contraction-free root-first sequent search (the
terminating LJT-style calculus).  A successful run yields a typed lambda
term; lambdas are then eliminated by bracket abstraction over the Hilbert
basis, so the published artifact of a proof is always an axioms+MP+Sb
derivation.  A failed run is backed by an independent semantic countermodel
search over small rooted posets, so the two outcomes never rest on the same
code path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .formulas import (
    BOT,
    And,
    Bottom,
    Formula,
    Implies,
    Mode,
    Or,
    Var,
    apply_substitution,
    check_mode,
    match_instance,
    render,
    subformulas,
    variables,
)
from .kernel import IPC_AXIOMS
from .semantics import (
    Budget,
    Frame,
    KripkeModel,
    ResourceBoundError,
    chain_frame,
    enumerate_rooted_posets,
    falsifying_model,
    frame_from_pairs,
    frame_valid,
)

# axiom indices in the fixed basis (0-based)
_K_AX = 0
_S_AX = 1
_FST_AX = 2
_SND_AX = 3
_PAIR_AX = 4
_INL_AX = 5
_INR_AX = 6
_CASE_AX = 7
_EFQ_AX = 9


# --- typed proof terms ------------------------------------------------------


@dataclass(frozen=True)
class Term:
    type: Formula
    free: frozenset[str]


@dataclass(frozen=True)
class TmVar(Term):
    name: str


@dataclass(frozen=True)
class TmConst(Term):
    axiom: int


@dataclass(frozen=True)
class TmApp(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class TmLam(Term):
    var: str
    var_type: Formula
    body: Term


def _var(name: str, type_: Formula) -> TmVar:
    return TmVar(type_, frozenset((name,)), name)


def _const(axiom: int, type_: Formula) -> TmConst:
    return TmConst(type_, frozenset(), axiom)


def _app(fun: Term, arg: Term) -> TmApp:
    assert isinstance(fun.type, Implies) and fun.type.left == arg.type, \
        f"ill-typed application: {render(fun.type)} to {render(arg.type)}"
    return TmApp(fun.type.right, fun.free | arg.free, fun, arg)


def _lam(name: str, var_type: Formula, body: Term) -> TmLam:
    return TmLam(Implies(var_type, body.type), body.free - {name}, name, var_type, body)


def _axiom_instance(axiom: int, **binding: Formula) -> TmConst:
    base = IPC_AXIOMS[axiom]
    inst = apply_substitution(binding, base)
    return _const(axiom, inst)


def _mk_fst(pair: Term) -> Term:
    t = pair.type
    assert isinstance(t, And)
    return _app(_axiom_instance(_FST_AX, p=t.left, q=t.right), pair)


def _mk_snd(pair: Term) -> Term:
    t = pair.type
    assert isinstance(t, And)
    return _app(_axiom_instance(_SND_AX, p=t.left, q=t.right), pair)


def _mk_pair(a: Term, b: Term) -> Term:
    return _app(_app(_axiom_instance(_PAIR_AX, p=a.type, q=b.type), a), b)


def _mk_inl(a: Term, right: Formula) -> Term:
    return _app(_axiom_instance(_INL_AX, p=a.type, q=right), a)


def _mk_inr(b: Term, left: Formula) -> Term:
    return _app(_axiom_instance(_INR_AX, p=left, q=b.type), b)


def _mk_case(scrutinee: Term, left_fn: Term, right_fn: Term) -> Term:
    t = scrutinee.type
    assert isinstance(t, Or)
    assert isinstance(left_fn.type, Implies) and isinstance(right_fn.type, Implies)
    goal = left_fn.type.right
    head = _axiom_instance(_CASE_AX, p=t.left, q=t.right, r=goal)
    return _app(_app(_app(head, left_fn), right_fn), scrutinee)


def _mk_abort(t: Term, goal: Formula) -> Term:
    return _app(_axiom_instance(_EFQ_AX, p=goal), t)


# --- sequent search ---------------------------------------------------------


class _Search:
    def __init__(self, fuel: int):
        self.fuel = fuel
        self.fresh = 0

    def fresh_name(self) -> str:
        self.fresh += 1
        return f"h{self.fresh}"

    def prove(self, context: list[tuple[Formula, Term]], goal: Formula) -> Optional[Term]:
        self.fuel -= 1
        if self.fuel <= 0:
            raise ResourceBoundError("proof search fuel exhausted")

        inert: list[tuple[Formula, Term]] = []
        atoms: dict[Formula, Term] = {}
        seen: set[Formula] = set()
        work = list(context)

        def add(formula: Formula, term: Term) -> None:
            if formula not in seen:
                work.append((formula, term))

        def live_context() -> list[tuple[Formula, Term]]:
            return list(atoms.items()) + list(inert)

        while work:
            formula, term = work.pop(0)
            if formula in seen:
                continue
            if isinstance(formula, Bottom):
                return _mk_abort(term, goal)
            seen.add(formula)
            if isinstance(formula, Var):
                atoms[formula] = term
                still: list[tuple[Formula, Term]] = []
                for f, t in inert:
                    if isinstance(f, Implies) and f.left == formula:
                        add(f.right, _app(t, term))
                    else:
                        still.append((f, t))
                inert[:] = still
            elif isinstance(formula, And):
                add(formula.left, _mk_fst(term))
                add(formula.right, _mk_snd(term))
            elif isinstance(formula, Or):
                rest = live_context() + work
                xl, xr = self.fresh_name(), self.fresh_name()
                left = self.prove(rest + [(formula.left, _var(xl, formula.left))], goal)
                if left is None:
                    return None
                right = self.prove(rest + [(formula.right, _var(xr, formula.right))], goal)
                if right is None:
                    return None
                return _mk_case(term,
                                _lam(xl, formula.left, left),
                                _lam(xr, formula.right, right))
            elif isinstance(formula, Implies):
                ant = formula.left
                if isinstance(ant, Bottom):
                    continue
                if isinstance(ant, Var):
                    if ant in atoms:
                        add(formula.right, _app(term, atoms[ant]))
                    else:
                        inert.append((formula, term))
                elif isinstance(ant, And):
                    # (c & d -> b) becomes c -> (d -> b)
                    c, d, b = ant.left, ant.right, formula.right
                    xc, xd = self.fresh_name(), self.fresh_name()
                    curried = _lam(xc, c, _lam(xd, d, _app(term, _mk_pair(_var(xc, c), _var(xd, d)))))
                    add(Implies(c, Implies(d, b)), curried)
                elif isinstance(ant, Or):
                    c, d, b = ant.left, ant.right, formula.right
                    xc, xd = self.fresh_name(), self.fresh_name()
                    add(Implies(c, b), _lam(xc, c, _app(term, _mk_inl(_var(xc, c), d))))
                    add(Implies(d, b), _lam(xd, d, _app(term, _mk_inr(_var(xd, d), c))))
                else:
                    inert.append((formula, term))
            else:
                raise TypeError(f"unsupported formula in int search: {formula!r}")

        ctx = live_context()
        if isinstance(goal, And):
            left = self.prove(ctx, goal.left)
            if left is None:
                return None
            right = self.prove(ctx, goal.right)
            if right is None:
                return None
            return _mk_pair(left, right)
        if isinstance(goal, Implies):
            x = self.fresh_name()
            body = self.prove(ctx + [(goal.left, _var(x, goal.left))], goal.right)
            if body is None:
                return None
            return _lam(x, goal.left, body)
        if isinstance(goal, Var) and goal in atoms:
            return atoms[goal]

        # choice phase: disjunction goals and nested-implication left rules
        if isinstance(goal, Or):
            left = self.prove(ctx, goal.left)
            if left is not None:
                return _mk_inl(left, goal.right)
            right = self.prove(ctx, goal.right)
            if right is not None:
                return _mk_inr(right, goal.left)
        atom_items = list(atoms.items())
        for index, (formula, term) in enumerate(inert):
            if not (isinstance(formula, Implies) and isinstance(formula.left, Implies)):
                continue
            c, d = formula.left.left, formula.left.right
            b = formula.right
            rest = atom_items + inert[:index] + inert[index + 1:]
            xd, xc = self.fresh_name(), self.fresh_name()
            weakened = _lam(xd, d, _app(term, _lam(xc, c, _var(xd, d))))
            premise = self.prove(rest + [(Implies(d, b), weakened)], formula.left)
            if premise is None:
                continue
            result = self.prove(rest + [(b, _app(term, premise))], goal)
            if result is not None:
                return result
        return None


# --- bracket abstraction ----------------------------------------------------


def _abstract(name: str, var_type: Formula, term: Term) -> Term:
    """Eliminate one lambda binder from a lambda-free term."""
    if name not in term.free:
        return _app(_axiom_instance(_K_AX, p=term.type, q=var_type), term)
    if isinstance(term, TmVar):
        # identity combinator: S K K at the right instances
        s = _axiom_instance(_S_AX, p=var_type, q=Implies(var_type, var_type), r=var_type)
        k1 = _axiom_instance(_K_AX, p=var_type, q=Implies(var_type, var_type))
        k2 = _axiom_instance(_K_AX, p=var_type, q=var_type)
        return _app(_app(s, k1), k2)
    if isinstance(term, TmApp):
        if isinstance(term.arg, TmVar) and term.arg.name == name and name not in term.fun.free:
            return term.fun
        fun_abs = _abstract(name, var_type, term.fun)
        arg_abs = _abstract(name, var_type, term.arg)
        assert isinstance(term.fun.type, Implies)
        s = _axiom_instance(_S_AX, p=var_type, q=term.arg.type, r=term.type)
        return _app(_app(s, fun_abs), arg_abs)
    raise AssertionError(f"unexpected node under abstraction: {term!r}")


def _eliminate_lambdas(term: Term) -> Term:
    if isinstance(term, (TmVar, TmConst)):
        return term
    if isinstance(term, TmApp):
        return _app(_eliminate_lambdas(term.fun), _eliminate_lambdas(term.arg))
    if isinstance(term, TmLam):
        return _abstract(term.var, term.var_type, _eliminate_lambdas(term.body))
    raise TypeError(f"not a term: {term!r}")


# --- Hilbert derivations ----------------------------------------------------


@dataclass(frozen=True)
class HilbertStep:
    formula: Formula
    rule: str                                  # axiom | hyp | mp | sub
    refs: tuple[int, ...] = ()
    subst: tuple[tuple[str, Formula], ...] = ()


@dataclass(frozen=True)
class HilbertDerivation:
    """Hilbert-style derivation: axioms + hypotheses + MP + substitution."""

    hypotheses: tuple[Formula, ...]
    steps: tuple[HilbertStep, ...]

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula


class _DerivationBuilder:
    def __init__(self, hypotheses: Sequence[Formula] = ()):
        self.hypotheses = tuple(hypotheses)
        self.steps: list[HilbertStep] = []
        self.index: dict[Formula, int] = {}

    def _push(self, step: HilbertStep) -> int:
        existing = self.index.get(step.formula)
        if existing is not None:
            return existing
        self.steps.append(step)
        n = len(self.steps)
        self.index[step.formula] = n
        return n

    def axiom(self, axiom_index: int) -> int:
        return self._push(HilbertStep(IPC_AXIOMS[axiom_index], "axiom"))

    def hypothesis(self, formula: Formula) -> int:
        assert formula in self.hypotheses
        return self._push(HilbertStep(formula, "hyp"))

    def substitute(self, source: int, subst: dict[str, Formula]) -> int:
        target = apply_substitution(subst, self.steps[source - 1].formula)
        if target == self.steps[source - 1].formula:
            return source
        return self._push(HilbertStep(target, "sub", (source,), tuple(sorted(subst.items()))))

    def mp(self, major: int, minor: int) -> int:
        major_f = self.steps[major - 1].formula
        assert isinstance(major_f, Implies) and major_f.left == self.steps[minor - 1].formula
        return self._push(HilbertStep(major_f.right, "mp", (major, minor)))

    def load_term(self, term: Term) -> int:
        if isinstance(term, TmConst):
            base = IPC_AXIOMS[term.axiom]
            source = self.axiom(term.axiom)
            if term.type == base:
                return source
            binding = match_instance(base, term.type)
            assert binding is not None, "constant type is not an axiom instance"
            return self.substitute(source, binding)
        if isinstance(term, TmApp):
            major = self.load_term(term.fun)
            minor = self.load_term(term.arg)
            return self.mp(major, minor)
        raise AssertionError(f"open or unelaborated term: {term!r}")

    def replay(self, derivation: HilbertDerivation) -> int:
        """Append another derivation's steps, reusing shared formulas."""
        mapping: dict[int, int] = {}
        for i, step in enumerate(derivation.steps, start=1):
            if step.rule == "axiom":
                axiom_index = IPC_AXIOMS.index(step.formula)
                mapping[i] = self.axiom(axiom_index)
            elif step.rule == "hyp":
                mapping[i] = self.hypothesis(step.formula)
            elif step.rule == "sub":
                mapping[i] = self.substitute(mapping[step.refs[0]], dict(step.subst))
            elif step.rule == "mp":
                mapping[i] = self.mp(mapping[step.refs[0]], mapping[step.refs[1]])
            else:
                raise ValueError(f"unknown Hilbert rule {step.rule!r}")
        return mapping[len(derivation.steps)]

    def conclude(self, index: int) -> None:
        """Force the step at `index` into final position; deduplication may
        have left the intended conclusion in the middle of the list."""
        if index != len(self.steps):
            formula = self.steps[index - 1].formula
            self.steps.append(HilbertStep(formula, "sub", (index,), ()))

    def build(self) -> HilbertDerivation:
        return HilbertDerivation(self.hypotheses, tuple(self.steps))


def _term_to_derivation(term: Term) -> HilbertDerivation:
    closed = _eliminate_lambdas(term)
    assert not closed.free, "proof term has free variables"
    builder = _DerivationBuilder()
    final = builder.load_term(closed)
    builder.conclude(final)
    return builder.build()


# --- public API --------------------------------------------------------------


@dataclass(frozen=True)
class ProofResult:
    derivation: Optional[HilbertDerivation] = None
    countermodel: Optional[KripkeModel] = None

    @property
    def proved(self) -> bool:
        return self.derivation is not None


_COUNTERMODEL_BUDGET = Budget(max_worlds=5, max_vars=4)


def decide_ipc(a: Formula, fuel: int = 200_000) -> Optional[Term]:
    """Raw search verdict: a closed proof term, or None."""
    check_mode(a, Mode.INT)
    return _Search(fuel).prove([], a)


def countermodel_search(a: Formula, max_worlds: int = 5) -> Optional[KripkeModel]:
    """Smallest rooted poset model refuting `a`, or None within the bound."""
    check_mode(a, Mode.INT)
    if len(variables(a)) > _COUNTERMODEL_BUDGET.max_vars:
        raise ResourceBoundError("too many variables for countermodel search")
    for frame in enumerate_rooted_posets(max_worlds):
        model = falsifying_model(frame, a, _COUNTERMODEL_BUDGET)
        if model is not None:
            return model
    return None


def prove_ipc(a: Formula, fuel: int = 200_000) -> ProofResult:
    """Decide `a` over the intuitionistic basis.

    Returns a Hilbert derivation on success, otherwise a finite countermodel
    found by independent semantic search.  If neither materialises the two
    engines disagree and we refuse to guess.
    """
    term = decide_ipc(a, fuel)
    if term is not None:
        assert term.type == a
        return ProofResult(derivation=_term_to_derivation(term))
    model = countermodel_search(a)
    if model is None:
        raise ResourceBoundError(
            f"search refuted {render(a)} but no countermodel exists within "
            f"{_COUNTERMODEL_BUDGET.max_worlds} worlds")
    return ProofResult(countermodel=model)


# --- bounded search from hypotheses ------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    max_attempts: int = 4000
    prover_fuel: int = 60_000
    max_pairs: int = 200


_TOP = Implies(BOT, BOT)


@lru_cache(maxsize=1)
def _filter_frames() -> tuple[Frame, ...]:
    fork = frame_from_pairs(Mode.INT, 3, [(0, 1), (0, 2)])
    return (chain_frame(2), chain_frame(3), fork)


def _classically_valid(a: Formula) -> bool:
    names = sorted(variables(a))

    def eval_at(f: Formula, env: dict[str, bool]) -> bool:
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, Bottom):
            return False
        if isinstance(f, And):
            return eval_at(f.left, env) and eval_at(f.right, env)
        if isinstance(f, Or):
            return eval_at(f.left, env) or eval_at(f.right, env)
        if isinstance(f, Implies):
            return (not eval_at(f.left, env)) or eval_at(f.right, env)
        raise TypeError(f"not a propositional formula: {f!r}")

    return all(eval_at(a, dict(zip(names, values)))
               for values in itertools.product((False, True), repeat=len(names)))


def _plausibly_valid(a: Formula) -> bool:
    """Cheap necessary conditions before running the decision procedure."""
    if not _classically_valid(a):
        return False
    budget = Budget(max_worlds=4, max_vars=max(3, len(variables(a))))
    return all(frame_valid(f, a, budget) for f in _filter_frames())


def _candidate_pool(goal: Formula) -> list[Formula]:
    pool = {BOT, _TOP} | set(subformulas(goal))
    return sorted(pool, key=lambda f: (len(render(f)), render(f)))


def _instances(h: Formula, goal: Formula) -> list[dict[str, Formula]]:
    names = sorted(variables(h))
    pool = _candidate_pool(goal)
    if not names:
        return [{}]
    out = [dict(zip(names, choice))
           for choice in itertools.product(pool, repeat=len(names))]
    return out


def derive_from_hypotheses(hypotheses: Sequence[Formula],
                           goal: Formula,
                           budget: SearchBudget = SearchBudget()
                           ) -> Optional[HilbertDerivation]:
    """Bounded search for a Hilbert derivation of `goal` from `hypotheses`
    using the basis, MP, and substitution (of hypotheses and axioms).

    Sound always; complete only within the budget, so None never certifies
    underivability.
    """
    check_mode(goal, Mode.INT)
    for h in hypotheses:
        check_mode(h, Mode.INT)

    # no hypotheses needed at all
    term = _Search(budget.prover_fuel).prove([], goal)
    if term is not None:
        return _term_to_derivation(term)

    attempts = 0
    per_hyp: list[list[tuple[dict[str, Formula], Formula]]] = []
    for h in hypotheses:
        options = []
        for subst in _instances(h, goal):
            options.append((subst, apply_substitution(subst, h)))
        per_hyp.append(options)

    # one substitution instance of one hypothesis
    for h_index, options in enumerate(per_hyp):
        h = hypotheses[h_index]
        for subst, instance in options:
            attempts += 1
            if attempts > budget.max_attempts:
                return None
            if instance == goal:
                builder = _DerivationBuilder(hypotheses)
                source = builder.hypothesis(h)
                builder.conclude(builder.substitute(source, subst))
                return builder.build()
            lemma = Implies(instance, goal)
            if not _plausibly_valid(lemma):
                continue
            term = _Search(budget.prover_fuel).prove([], lemma)
            if term is None:
                continue
            builder = _DerivationBuilder(hypotheses)
            source = builder.hypothesis(h)
            inst_idx = builder.substitute(source, subst)
            lemma_idx = builder.replay(_term_to_derivation(term))
            builder.conclude(builder.mp(lemma_idx, inst_idx))
            return builder.build()

    # two instances, drawn from a reduced pool to stay within budget
    pairs = 0
    for i, options_i in enumerate(per_hyp):
        for j, options_j in enumerate(per_hyp):
            if j < i:
                continue
            for subst_i, inst_i in options_i[:20]:
                for subst_j, inst_j in options_j[:20]:
                    pairs += 1
                    if pairs > budget.max_pairs:
                        return None
                    lemma = Implies(inst_i, Implies(inst_j, goal))
                    if not _plausibly_valid(lemma):
                        continue
                    term = _Search(budget.prover_fuel).prove([], lemma)
                    if term is None:
                        continue
                    builder = _DerivationBuilder(hypotheses)
                    src_i = builder.substitute(builder.hypothesis(hypotheses[i]), subst_i)
                    src_j = builder.substitute(builder.hypothesis(hypotheses[j]), subst_j)
                    lemma_idx = builder.replay(_term_to_derivation(term))
                    mid = builder.mp(lemma_idx, src_i)
                    builder.conclude(builder.mp(mid, src_j))
                    return builder.build()
    return None
