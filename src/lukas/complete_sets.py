"""Jankov formulas of finite rooted posets, the axiomatizer that turns a
tabular membership oracle into a deductive system over those formulas, and
the end-to-end builders that emit machine-checkable refutations and (for the
classical system) positive proofs.  A refutation uses the Ł-rules directly:
a rejected Jankov formula by antiax, Jankov's lemma, mt and rs.

The Jankov formula of a rooted poset F uses one variable per world and is
frame-valid on G exactly when no generated subframe of G maps onto F by a
surjective p-morphism.  That characterization is what the test suite checks
exhaustively; nothing here depends on trusting the construction.

The builders that search import the prover when they run, so reading a
manifest does not load it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence

from .formulas import (
    BOT,
    Formula,
    Implies,
    Mode,
    ParseError,
    Record,
    TOP,
    Var,
    apply_substitution,
    conj,
    disj,
    file_lines,
    has_box,
    neg,
    parse_formula,
    parse_formula_at,
    render,
)
from .kernel import (
    AntiAxiom,
    Axiom,
    DeductiveSystem,
    Inference,
    MP,
    MT,
    ProofBuilder,
    RS,
    Sb,
    Sign,
    asserts,
    check_inference,
    rejects,
    system,
)
from .semantics import (
    MAX_POSET_WORLDS,
    Frame,
    KripkeModel,
    ResourceBoundError,
    _bits,
    enumerate_rooted_posets,
    falsifying_model,
    forces,
    frame_from_pairs,
    point_frame,
    root_of,
    tabular_oracle,
)


class RefutationPreconditionError(ValueError):
    """The formula to refute is derivable according to the oracle."""


class TemplateUnavailableError(ValueError):
    """The classical-system proof template could not be constructed: a
    prover defect."""


# --- Jankov formulas ---------------------------------------------------------


def jankov_variables(frame: Frame) -> tuple[Var, ...]:
    return tuple(Var(f"x{i}") for i in range(frame.n))


def jankov_substitution(model: KripkeModel) -> dict[str, Formula]:
    """Jankov's substitution for a model on a rooted poset G: each variable
    p goes to the conjunction of the x_i over the worlds i outside V(p), or
    to TOP when V(p) is every world.  It holds under the Jankov valuation
    exactly where p holds in `model`, so if `a` fails at G's root then
    sigma(a) -> J(G) is an intuitionistic theorem (Jankov's lemma)."""
    xs = jankov_variables(model.frame)
    sigma = {}
    for name, mask in model.valuation:
        outside = [x for i, x in enumerate(xs) if not mask >> i & 1]
        sigma[name] = conj(outside) if outside else TOP
    return sigma


def jankov_formula(frame: Frame) -> Formula:
    """The frame formula of a rooted poset, over one variable per world.

    Variable x_i is meant to hold exactly at the worlds not below world i.
    Each world w gets a description phi_w of "being at or above w": the x_i
    of the worlds outside w's row, and a climb to w's covers (the minimal
    worlds strictly above w), or at a maximal world the negated x_i of its
    row.  The worlds are visited by the size of their rows, so each cover is
    described before the worlds below it.  The formula says the root
    description pushes up to a cover.
    """
    if frame.mode is not Mode.INT:
        raise ValueError("Jankov formulas are built over int-mode frames")
    root = root_of(frame)
    if root is None:
        raise ValueError("Jankov formulas need a rooted poset")
    xs = jankov_variables(frame)
    rel = frame.rel
    phi: dict[int, Formula] = {}
    psi: dict[int, Formula] = {}
    for w in sorted(range(frame.n), key=lambda w: rel[w].bit_count()):
        above = rel[w] & ~(1 << w)
        present = [x for i, x in enumerate(xs) if not rel[w] >> i & 1]
        fresh = [x for i, x in enumerate(xs) if rel[w] >> i & 1]
        if above:
            covers = [u for u in _bits(above)
                      if not any(rel[v] >> u & 1 for v in _bits(above) if v != u)]
            landing = disj([phi[u] for u in covers])
            climb = Implies(disj(fresh + [psi[u] for u in covers]), landing)
            phi[w] = conj(present + [climb])
        else:
            landing = BOT
            phi[w] = conj(present + [neg(x) for x in fresh])
        psi[w] = Implies(phi[w], landing)
    return psi[root]


class FamilyEntry(Record):
    __slots__ = ("frame", "formula")
    frame: Frame
    formula: Formula


@lru_cache(maxsize=None)
def jankov_family(max_worlds: int) -> tuple[FamilyEntry, ...]:
    """Jankov formulas of all rooted posets up to the size bound, in the
    deterministic (size, canonical frame) order, duplicate-free; cached."""
    return tuple(FamilyEntry(f, jankov_formula(f))
                 for f in enumerate_rooted_posets(max_worlds))


@lru_cache(maxsize=None)
def _family_by_text(max_worlds: int) -> dict[str, Formula]:
    """The formulas of `jankov_family(max_worlds)` by their rendering."""
    return {render(e.formula): e.formula for e in jankov_family(max_worlds)}


# --- the axiomatizer ---------------------------------------------------------


def build_system(oracle: Callable[[Formula], bool],
                 family: Sequence[FamilyEntry],
                 mode: Mode = Mode.INT) -> DeductiveSystem:
    """Intuitionistic basis plus, for each family formula, a positive axiom
    when the oracle accepts it and an anti-axiom otherwise."""
    signed = [(oracle(e.formula), e.formula) for e in family]
    return system(mode, [f for ok, f in signed if ok], [f for ok, f in signed if not ok])


# --- refutation and positive pipelines ----------------------------------------


def build_refutation(ds: DeductiveSystem,
                     a: Formula,
                     oracle: Callable[[Formula], bool],
                     family: Sequence[FamilyEntry]) -> Inference:
    """Produce a checked inference of -a with no hypotheses.

    Takes the first family entry whose formula C = J(G) the system rejects
    and whose frame G refutes `a` at its root.  With sigma the falsifying
    model's `jankov_substitution`, sigma(a) -> C is an intuitionistic
    theorem (Jankov's lemma).  The refutation is the paper's Ł-rules read
    off that lemma: -C by antiax, the lemma, -sigma(a) by mt, and -a by rs
    (no rs step when sigma(a) is `a`).

    Each entry must pair a frame with its Jankov formula, as `jankov_family`
    does, and `ds` must hold each entry's sign.  No trial search runs: a
    `ResourceBoundError` means exactly that no frame of the family with a
    rejected formula refutes `a`, so the family's bound is too small for
    it.  Boxed formulas raise `ValueError`, since the lemma is proved in
    Int.
    """
    from .prover import derive_into
    if oracle(a):
        raise RefutationPreconditionError(
            f"{render(a)} is derivable per the oracle; nothing to refute")
    if has_box(a):
        raise ValueError(f"cannot refute the boxed formula {render(a)}: refutations "
                         f"run over the int-mode Jankov family")
    for entry in family:
        if not ds.is_anti_axiom(entry.formula):
            continue
        # the first rejected frame that refutes `a` anywhere refutes it at
        # its root: a generated subframe is smaller, so it comes earlier in
        # the family, and its Jankov formula is rejected too
        model = falsifying_model(entry.frame, a)
        if model is None or forces(model, root_of(entry.frame), a):
            continue
        builder = ProofBuilder()
        anti = builder.add(rejects(entry.formula), AntiAxiom())
        lemma = Implies(apply_substitution(jankov_substitution(model), a), entry.formula)
        lemma_index = derive_into(builder, lemma)
        if lemma_index is None:
            raise ValueError(f"Jankov lemma {render(lemma)} did not prove; "
                             f"prover defect, or not a Jankov formula")
        instance = builder.apply(MT(lemma_index, anti))
        refutation = builder.conclude(builder.add(rejects(a), RS(instance)))
        report = check_inference(ds, refutation)
        if not report.ok:
            raise ValueError(f"refutation fails checking: {report}")
        return refutation
    bound = max((entry.frame.n for entry in family), default=0)
    raise ResourceBoundError(
        f"no frame of at most {bound} worlds with a rejected Jankov formula "
        f"refutes {render(a)}")


# --- the classical system ----------------------------------------------------

_CPC_BOUND = 3


@lru_cache(maxsize=1)
def cpc_context():
    """The classical-logic deductive system over the Jankov family, its
    one-point oracle, and the checker-verified stability template."""
    frame = point_frame()
    oracle = tabular_oracle([frame])
    family = jankov_family(_CPC_BOUND)
    ds = build_system(oracle, family)
    template = _stability_template(ds, family)
    return ds, oracle, family, frame, template


def _stability_template(ds: DeductiveSystem,
                        family: Sequence[FamilyEntry]) -> Inference:
    """A hypothesis-free inference of +(~~p -> p) in the classical system,
    driven by the positive two-chain Jankov axiom."""
    from .prover import derive_into
    two_chain = next((e for e in family if e.frame.n == 2), None)
    if two_chain is None or not ds.is_positive_axiom(two_chain.formula):
        raise TemplateUnavailableError("two-chain Jankov axiom is not positive")
    p = Var("p")
    root = root_of(two_chain.frame)
    assert root is not None
    subst = {f"x{i}": (p if i == root else neg(p)) for i in range(2)}
    instance = apply_substitution(subst, two_chain.formula)
    target = parse_formula("~~p -> p")
    builder = ProofBuilder()
    axiom = builder.add(asserts(two_chain.formula), Axiom())
    premise = builder.apply(Sb.of(axiom, subst))
    lemma_index = derive_into(builder, Implies(instance, target))
    if lemma_index is None:
        raise TemplateUnavailableError(
            "stability lemma is not intuitionistically derivable")
    template = builder.conclude(builder.apply(MP(lemma_index, premise)))
    report = check_inference(ds, template)
    if not report.ok:
        raise TemplateUnavailableError(f"template fails checking: {report}")
    return template


def build_positive_cpc(a: Formula) -> Inference:
    """A checked hypothesis-free inference of +a in the classical system,
    for classically valid `a`: prove ~~a intuitionistically, instantiate the
    stability template to ~~a -> a, and close with modus ponens."""
    from .prover import derive_into
    ds, oracle, _family, _frame, template = cpc_context()
    if not oracle(a):
        raise RefutationPreconditionError(
            f"{render(a)} is not classically valid")
    builder = ProofBuilder()
    index = derive_into(builder, a)
    if index is None:
        doubled_index = derive_into(builder, neg(neg(a)))
        if doubled_index is None:
            raise TemplateUnavailableError(
                f"double negation of {render(a)} did not prove; prover defect")
        stability = builder.splice(template)
        instance = builder.apply(Sb.of(stability, {"p": a}))
        index = builder.apply(MP(instance, doubled_index))
    inf = builder.conclude(index)
    report = check_inference(ds, inf)
    if not report.ok:
        raise TemplateUnavailableError(f"positive proof fails checking: {report}")
    return inf


# --- system manifests ---------------------------------------------------------


def render_manifest(ds: DeductiveSystem, frames: Sequence[Frame], bound: int,
                    family: Sequence[FamilyEntry]) -> str:
    """The manifest of `ds`, built by `build_system` from `frames` over
    `family`: each family formula is marked `-` iff `ds` rejects it."""
    lines = [f"mode {ds.mode}", f"bound {bound}"]
    for frame in frames:
        pairs = " ".join(f"{i}-{j}" for i in range(frame.n) for j in _bits(frame.rel[i]))
        lines.append(f"frame {frame.n} {pairs}".rstrip())
    for entry in family:
        sign = "-" if ds.is_anti_axiom(entry.formula) else "+"
        lines.append(f"{sign} {render(entry.formula)}")
    return "\n".join(lines) + "\n"


def _count(token: str, directive: str) -> int:
    if not token.isdecimal():
        raise ParseError(f"manifest directive {directive!r} needs a number, got {token!r}")
    return int(token)


def manifest_context(text: str, max_worlds: Optional[int] = None):
    """Read a system manifest and return its system, oracle and family.

    The frames fix every sign: the system is `build_system` over them and
    the family of the manifest's bound.  The `+`/`-` marks, in any order and
    spelling, must mark exactly that family, each formula with its sign in
    the system.  With `max_worlds`, a `frame` line of more worlds is a
    ResourceBoundError on its line, as in a frame file.
    """
    mode: Optional[Mode] = None
    bound: Optional[int] = None
    frames: list[Frame] = []
    marks: list[tuple[Sign, Formula]] = []
    try:
        for number, line in file_lines(text):
            parts = line.split()
            if parts[0] in ("mode", "bound", "frame", "+", "-") and len(parts) < 2:
                raise ParseError(f"manifest directive {parts[0]!r} needs a value")
            if parts[0] == "mode":
                if parts[1] not in ("int", "k4"):
                    raise ParseError(f"manifest directive 'mode' must be int or k4, "
                                     f"got {parts[1]!r}")
                mode = Mode(parts[1])
            elif parts[0] == "bound":
                bound = _count(parts[1], "bound")
            elif parts[0] == "frame":
                if mode is None:
                    raise ParseError("manifest must declare mode before frames")
                n = _count(parts[1], "frame")
                if max_worlds is not None and n > max_worlds:
                    raise ResourceBoundError(f"frame has {n} worlds, budget allows "
                                             f"{max_worlds}", line=number)
                pairs = []
                for token in parts[2:]:
                    i, dash, j = token.partition("-")
                    if not (dash and i.isdecimal() and j.isdecimal()):
                        raise ParseError(f"manifest directive 'frame' needs edges i-j, "
                                         f"got {token!r}")
                    pairs.append((int(i), int(j)))
                try:
                    frames.append(frame_from_pairs(mode, n, pairs))
                except ValueError as exc:
                    raise ParseError(f"manifest directive 'frame': {exc}") from None
            elif parts[0] in ("+", "-"):
                if mode is None:
                    raise ParseError("manifest must declare mode before formulas")
                sign = Sign.ASSERT if parts[0] == "+" else Sign.REJECT
                formula_text = line.split(None, 1)[1]
                # a family formula's own rendering is read without parsing
                by_text = (_family_by_text(bound)
                           if bound is not None and bound <= MAX_POSET_WORLDS else {})
                marks.append((sign, by_text.get(formula_text) or parse_formula_at(
                    formula_text, mode, len(line) - len(formula_text))))
            else:
                raise ParseError(f"unknown manifest directive {parts[0]!r}")
    except ParseError as exc:
        raise exc.on_line(number) from None
    if mode is None or bound is None or not frames:
        raise ParseError("manifest needs mode, bound and at least one frame")
    oracle = tabular_oracle(frames)
    family = jankov_family(bound)
    ds = build_system(oracle, family, mode)
    signs = {**dict.fromkeys(ds.extra_positive, Sign.ASSERT),
             **dict.fromkeys(ds.anti_axioms, Sign.REJECT)}
    for sign, formula in marks:
        if formula not in signs:
            raise ValueError(f"manifest marks {render(formula)}, which is not "
                             f"in the family of bound {bound}")
        if sign is not signs[formula]:
            raise ValueError(
                f"manifest sign for {render(formula)} disagrees with its frames")
    marked = {formula for _sign, formula in marks}
    for entry in family:
        if entry.formula not in marked:
            raise ValueError(f"manifest does not mark {render(entry.formula)}")
    return ds, oracle, family
