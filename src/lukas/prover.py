"""Decision procedure for intuitionistic propositional validity plus bounded
Hilbert-style search for derivability from hypotheses with substitution.

The decision engine is a contraction-free root-first sequent search (the
terminating LJT-style calculus).  A successful run yields a typed lambda
term; lambdas are then eliminated by bracket abstraction over the Hilbert
basis, and the result is elaborated straight into the caller's
`ProofBuilder` as axiom, MP and substitution steps.  Each axiom constant
keeps the substitution it was instantiated by, and each term its type, so
elaboration writes every step down without deriving or matching it again;
the caller's `check_inference` is the one re-derivation.  A failed run is
backed by an independent semantic countermodel search over small rooted
posets, so the two outcomes never rest on the same code path.

`derive_into(builder, a)` is the one way into the search, and every search
runs on the one fuel `_FUEL`; `derive` concludes it on a fresh builder, and
`derive_lemma` filters speculative lemmas first.
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
    has_box,
    render,
    subformulas,
    variables,
)
from .kernel import (
    IPC_AXIOMS,
    MP,
    Axiom,
    Hypothesis,
    Inference,
    ProofBuilder,
    Sb,
    asserts,
    check_inference,
    system,
)
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
    point_frame,
)

#: `_Search.prove` calls one search may make before `ResourceBoundError`.
_FUEL = 400_000

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
    binding: tuple[tuple[str, Formula], ...]    # as in `Sb.mapping`


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


def _app(fun: Term, arg: Term) -> TmApp:
    assert isinstance(fun.type, Implies) and fun.type.left == arg.type, \
        f"ill-typed application: {render(fun.type)} to {render(arg.type)}"
    return TmApp(fun.type.right, fun.free | arg.free, fun, arg)


def _lam(name: str, var_type: Formula, body: Term) -> TmLam:
    return TmLam(Implies(var_type, body.type), body.free - {name}, name, var_type, body)


def _axiom_instance(axiom: int, **binding: Formula) -> TmConst:
    inst = apply_substitution(binding, IPC_AXIOMS[axiom])
    return TmConst(inst, frozenset(), axiom, tuple(sorted(binding.items())))


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
        fun, arg = _eliminate_lambdas(term.fun), _eliminate_lambdas(term.arg)
        return term if fun is term.fun and arg is term.arg else _app(fun, arg)
    if isinstance(term, TmLam):
        return _abstract(term.var, term.var_type, _eliminate_lambdas(term.body))
    raise TypeError(f"not a term: {term!r}")


# --- elaboration into an inference -------------------------------------------


def _load_term(builder: ProofBuilder, term: Term) -> int:
    statement = asserts(term.type)
    existing = builder.index.get(statement)
    if existing is not None:
        return existing
    if isinstance(term, TmConst):
        source = builder.add(asserts(IPC_AXIOMS[term.axiom]), Axiom())
        return builder.add(statement, Sb(source, term.binding))
    if isinstance(term, TmApp):
        major = _load_term(builder, term.fun)
        minor = _load_term(builder, term.arg)
        return builder.add(statement, MP(major, minor))
    raise AssertionError(f"open or unelaborated term: {term!r}")


# --- public API --------------------------------------------------------------


@dataclass(frozen=True)
class ProofResult:
    derivation: Optional[Inference] = None
    countermodel: Optional[KripkeModel] = None

    @property
    def proved(self) -> bool:
        return self.derivation is not None


_COUNTERMODEL_BUDGET = Budget(max_worlds=5, max_vars=4)
_INT = system(Mode.INT)


def derive_into(builder: ProofBuilder, a: Formula) -> Optional[int]:
    """Elaborate the search's proof of +a into `builder`, whose steps keep
    their indices, and return the index of +a; None, adding nothing, when
    the search refutes `a`."""
    check_mode(a, Mode.INT)
    term = _Search(_FUEL).prove([], a)
    if term is None:
        return None
    closed = _eliminate_lambdas(term)
    assert not closed.free, "proof term has free variables"
    return _load_term(builder, closed)


def derive(a: Formula) -> Optional[Inference]:
    """The all-positive, hypothesis-free inference of +a that the sequent
    search finds, or None when the search refutes `a`."""
    builder = ProofBuilder()
    index = derive_into(builder, a)
    return None if index is None else builder.conclude(index)


def derive_lemma(builder: ProofBuilder, a: Formula) -> Optional[int]:
    """`derive_into` for a speculative lemma: None without a search when
    `a` is boxed or fails on one of the small filter frames."""
    if has_box(a) or not _plausibly_valid(a):
        return None
    return derive_into(builder, a)


def countermodel_search(a: Formula) -> Optional[KripkeModel]:
    """Smallest rooted poset model refuting `a`, or None within the bound."""
    check_mode(a, Mode.INT)
    for frame in enumerate_rooted_posets(_COUNTERMODEL_BUDGET.max_worlds):
        model = falsifying_model(frame, a, _COUNTERMODEL_BUDGET)
        if model is not None:
            return model
    return None


def prove_ipc(a: Formula) -> ProofResult:
    """Decide `a` over the intuitionistic basis.

    Returns a checked inference of +a on success, otherwise a finite
    countermodel found by independent semantic search.  If neither
    materialises the two engines disagree and we refuse to guess.
    """
    inf = derive(a)
    if inf is not None:
        report = check_inference(_INT, inf)
        if not report.ok or report.conclusion != asserts(a):
            raise ValueError(f"elaborated derivation fails checking: {report}")
        return ProofResult(derivation=inf)
    model = countermodel_search(a)
    if model is None:
        raise ResourceBoundError(
            f"search refuted {render(a)} but no countermodel exists within "
            f"{_COUNTERMODEL_BUDGET.max_worlds} worlds")
    return ProofResult(countermodel=model)


# --- bounded search from hypotheses ------------------------------------------


#: Hypothesis instances tried before giving up.
_MAX_ATTEMPTS = 4000

_TOP = Implies(BOT, BOT)


@lru_cache(maxsize=1)
def _filter_frames() -> tuple[Frame, ...]:
    """The one-point frame first: it is the classical truth table."""
    fork = frame_from_pairs(Mode.INT, 3, [(0, 1), (0, 2)])
    return (point_frame(), chain_frame(2), chain_frame(3), fork)


def _plausibly_valid(a: Formula) -> bool:
    """Cheap necessary conditions before running the decision procedure."""
    budget = Budget(max_worlds=4, max_vars=max(3, len(variables(a))))
    return all(frame_valid(f, a, budget) for f in _filter_frames())


def _candidate_pool(goal: Formula) -> list[Formula]:
    pool = {BOT, _TOP} | set(subformulas(goal))
    return sorted(pool, key=lambda f: (len(render(f)), render(f)))


def _instances(h: Formula, goal: Formula) -> list[dict[str, Formula]]:
    names = sorted(variables(h))
    return [dict(zip(names, choice))
            for choice in itertools.product(_candidate_pool(goal), repeat=len(names))]


def derive_from_hypotheses(hypotheses: Sequence[Formula],
                           goal: Formula) -> Optional[Inference]:
    """Bounded search for an all-positive inference of +goal from
    +hypotheses using the basis, MP, and substitution (of hypotheses and
    axioms).

    Sound always; complete only within its bounds, so None never certifies
    underivability.
    """
    check_mode(goal, Mode.INT)
    for h in hypotheses:
        check_mode(h, Mode.INT)

    # no hypotheses needed at all
    derived = derive(goal)
    if derived is not None:
        return derived

    premises = tuple(asserts(h) for h in hypotheses)
    attempts = 0
    # one substitution instance of one hypothesis
    for premise in premises:
        for subst in _instances(premise.formula, goal):
            instance = apply_substitution(subst, premise.formula)
            attempts += 1
            if attempts > _MAX_ATTEMPTS:
                return None
            builder = ProofBuilder(premises)
            source = builder.add(premise, Hypothesis())
            inst_idx = builder.add(asserts(instance), Sb.of(source, subst))
            if instance == goal:
                return builder.conclude(inst_idx)
            lemma_idx = derive_lemma(builder, Implies(instance, goal))
            if lemma_idx is not None:
                return builder.conclude(builder.apply(MP(lemma_idx, inst_idx)))

    return None
