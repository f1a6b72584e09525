"""Decision procedure for intuitionistic propositional validity, with its
proofs elaborated into Hilbert-style steps.

The decision engine is a contraction-free root-first sequent search (the
terminating LJT-style calculus).  A successful run yields a typed lambda
term; lambdas are then eliminated by bracket abstraction over the Hilbert
basis, and the result is elaborated straight into the caller's
`ProofBuilder` as axiom, MP and substitution steps.  Each axiom constant
keeps the substitution it was instantiated by, and each term its type, so
elaboration writes every step down without deriving or matching it again;
the caller's `check_inference` is the one re-derivation.  A failed run is
backed by an independent semantic countermodel search over small rooted
posets, so the two outcomes never rest on the same code path.  That search
builds the posets one size at a time and tries them smallest first, so it
stops at the first size with a refuting frame and never builds the larger
ones.

`derive_into(builder, a)` is the one way into the search, and every search
runs on the one fuel `_FUEL`; `derive` concludes it on a fresh builder.
"""

from __future__ import annotations

from typing import Optional

from .formulas import (
    And,
    Bottom,
    Formula,
    Implies,
    Mode,
    Or,
    Record,
    Var,
    _init,
    apply_substitution,
    check_mode,
    render,
)
from .kernel import (
    IPC_AXIOMS,
    MP,
    Axiom,
    Inference,
    ProofBuilder,
    Sb,
    asserts,
    check_inference,
    system,
)
from .semantics import (
    MAX_POSET_WORLDS,
    KripkeModel,
    ResourceBoundError,
    falsifying_model,
    rooted_posets,
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


class Term(Record):
    __slots__ = ("type", "free")        # the formula proved, the free variables


class TmVar(Term):
    __slots__ = ("name",)

    def __init__(self, type: Formula, free: frozenset[str], name: str):
        _init(self, "type", type)
        _init(self, "free", free)
        _init(self, "name", name)


class TmConst(Term):
    __slots__ = ("axiom", "binding")        # `binding` as in `Sb.mapping`

    def __init__(self, type: Formula, free: frozenset[str], axiom: int,
                 binding: tuple[tuple[str, Formula], ...]):
        _init(self, "type", type)
        _init(self, "free", free)
        _init(self, "axiom", axiom)
        _init(self, "binding", binding)


class TmApp(Term):
    __slots__ = ("fun", "arg")

    def __init__(self, type: Formula, free: frozenset[str], fun: Term, arg: Term):
        _init(self, "type", type)
        _init(self, "free", free)
        _init(self, "fun", fun)
        _init(self, "arg", arg)


class TmLam(Term):
    __slots__ = ("var", "var_type", "body")

    def __init__(self, type: Formula, free: frozenset[str], var: str, var_type: Formula,
                 body: Term):
        _init(self, "type", type)
        _init(self, "free", free)
        _init(self, "var", var)
        _init(self, "var_type", var_type)
        _init(self, "body", body)


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
        i = 0                   # work[:i] is done; `add` appends past it

        def add(formula: Formula, term: Term) -> None:
            if formula not in seen:
                work.append((formula, term))

        def live_context() -> list[tuple[Formula, Term]]:
            return list(atoms.items()) + list(inert)

        while i < len(work):
            formula, term = work[i]
            i += 1
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
                rest = live_context() + work[i:]
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


class ProofResult(Record):
    __slots__ = ("derivation", "countermodel")

    def __init__(self, derivation: Optional[Inference] = None,
                 countermodel: Optional[KripkeModel] = None):
        _init(self, "derivation", derivation)
        _init(self, "countermodel", countermodel)

    @property
    def proved(self) -> bool:
        return self.derivation is not None


_INT = system(Mode.INT)


def derive_into(builder: ProofBuilder, a: Formula) -> Optional[int]:
    """Elaborate the search's proof of +a into `builder`, whose steps keep
    their indices, and return the index of +a; None, adding nothing, when
    the search refutes `a`.  Running out of stack in either layer is a
    ResourceBoundError that names the layer."""
    check_mode(a, Mode.INT)
    try:
        term = _Search(_FUEL).prove([], a)
    except RecursionError:
        raise ResourceBoundError("the sequent search exceeds the recursion limit") from None
    if term is None:
        return None
    try:
        closed = _eliminate_lambdas(term)
        assert not closed.free, "proof term has free variables"
        return _load_term(builder, closed)
    except RecursionError:
        raise ResourceBoundError("elaborating the proof term exceeds the recursion limit") from None


def derive(a: Formula) -> Optional[Inference]:
    """The all-positive, hypothesis-free inference of +a that the sequent
    search finds, or None when the search refutes `a`."""
    builder = ProofBuilder()
    index = derive_into(builder, a)
    return None if index is None else builder.conclude(index)


def countermodel_search(a: Formula) -> Optional[KripkeModel]:
    """Smallest rooted poset model refuting `a`, or None within the bound.
    Sizes are built and tried one at a time, smallest first, so the search
    stops at the first size with a refuting frame."""
    check_mode(a, Mode.INT)
    for n in range(1, MAX_POSET_WORLDS + 1):
        for frame in rooted_posets(n):
            model = falsifying_model(frame, a)
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
    try:
        model = countermodel_search(a)
    except ResourceBoundError as exc:
        raise ResourceBoundError(
            f"the sequent search refuted {render(a)}, but the countermodel search "
            f"stopped: {exc.message}") from exc
    if model is None:
        raise ResourceBoundError(
            f"search refuted {render(a)} but no countermodel exists within "
            f"{MAX_POSET_WORLDS} worlds")
    return ProofResult(countermodel=model)

