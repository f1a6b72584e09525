"""Jankov formulas of finite rooted posets, the axiomatizer that turns a
tabular membership oracle into a deductive system over those formulas, and
the end-to-end builders that emit machine-checkable refutations and (for the
classical system) positive proofs.

The Jankov formula of a rooted poset F uses one variable per world and is
frame-valid on G exactly when no generated subframe of G maps onto F by a
surjective p-morphism.  That characterization is what the test suite checks
exhaustively; nothing here depends on trusting the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .formulas import (
    Formula,
    Implies,
    Mode,
    ParseError,
    Var,
    apply_substitution,
    conj,
    disj,
    file_lines,
    neg,
    parse_formula,
    parse_formula_at,
    render,
)
from .kernel import (
    AntiAxiom,
    Axiom,
    DeductiveSystem,
    Hypothesis,
    Inference,
    MP,
    ProofBuilder,
    Sb,
    Sign,
    Step,
    asserts,
    check_inference,
    rejects,
    system,
)
from .prover import derive_from_hypotheses, derive_into
from .semantics import (
    MAX_POSET_WORLDS,
    Budget,
    Frame,
    ResourceBoundError,
    _bits,
    enumerate_rooted_posets,
    frame_from_pairs,
    point_frame,
    root_of,
    tabular_oracle,
)
from .transforms import symmetry_transform


class SearchExhaustedError(Exception):
    """No witnessing formula was found within the family and search bounds."""


class RefutationPreconditionError(ValueError):
    """The formula to refute is derivable according to the oracle."""


class TemplateUnavailableError(RuntimeError):
    """The classical-system proof template could not be constructed."""


# --- Jankov formulas ---------------------------------------------------------


def jankov_variables(frame: Frame) -> tuple[Var, ...]:
    return tuple(Var(f"x{i}") for i in range(frame.n))


def jankov_formula(frame: Frame) -> Formula:
    """The frame formula of a rooted poset, over one variable per world.

    Variable x_i is meant to hold exactly at the worlds not below world i;
    each world w then gets a description phi_w of "being at or above w", and
    the formula says the root description pushes up to a cover.
    """
    if frame.mode is not Mode.INT:
        raise ValueError("Jankov formulas are built over int-mode frames")
    root = root_of(frame)
    if root is None:
        raise ValueError("Jankov formulas need a rooted poset")
    if frame.n > 6:
        raise ResourceBoundError("Jankov construction is budgeted to 6 worlds")

    xs = jankov_variables(frame)
    n = frame.n
    below = [frozenset(j for j in range(n) if frame.rel[j] & (1 << i))
             for i in range(n)]

    def color(w: int) -> list[int]:
        return [i for i in range(n) if w not in below[i]]

    def covers(w: int) -> list[int]:
        out = []
        for u in _bits(frame.rel[w]):
            if u == w:
                continue
            between = [v for v in _bits(frame.rel[w])
                       if v != w and v != u and frame.rel[v] & (1 << u)]
            if not between:
                out.append(u)
        return sorted(out)

    phi: dict[int, Formula] = {}
    psi: dict[int, Formula] = {}

    def build(w: int) -> None:
        if w in phi:
            return
        succ = covers(w)
        for u in succ:
            build(u)
        present = [xs[i] for i in color(w)]
        if not succ:
            absent = [neg(xs[i]) for i in range(n) if i not in color(w)]
            phi[w] = conj(present + absent)
            psi[w] = neg(phi[w])
            return
        fresh = [xs[i] for i in range(n) if i not in color(w)]
        trigger = disj(fresh + [psi[u] for u in succ])
        landing = disj([phi[u] for u in succ])
        climb = Implies(trigger, landing)
        phi[w] = conj(present + [climb]) if present else climb
        psi[w] = Implies(phi[w], landing)

    build(root)
    return psi[root]


@dataclass(frozen=True)
class FamilyEntry:
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

    Searches the family for a rejected formula C with a positive inference
    of +C from +a, runs the refutation transformer on it to get -C |- -a,
    and discharges -C by the anti-axiom step.
    """
    if oracle(a):
        raise RefutationPreconditionError(
            f"{render(a)} is derivable per the oracle; nothing to refute")
    for entry in family:
        if oracle(entry.formula):
            continue
        if not ds.is_anti_axiom(entry.formula):
            continue
        positive = derive_from_hypotheses([a], entry.formula)
        if positive is None:
            continue
        index, refutation = symmetry_transform(positive, oracle)
        assert index == 1
        return _discharge(ds, refutation, entry.formula)
    raise SearchExhaustedError(
        f"no family witness found for {render(a)} within bounds")


def _discharge(ds: DeductiveSystem, refutation: Inference, anti: Formula) -> Inference:
    """Rewrite step 1 of a refutation from `- C ; hyp` to `- C ; antiax`,
    with no hypotheses left, and check the result."""
    first = Step(rejects(anti), Hypothesis())
    if refutation.steps[:1] != (first,):
        raise ValueError(f"discharged refutation fails checking: "
                         f"step 1 is not {first.statement} ; hyp")
    result = Inference((), (Step(first.statement, AntiAxiom()),) + refutation.steps[1:])
    report = check_inference(ds, result)
    if not report.ok:
        raise ValueError(f"discharged refutation fails checking: {report}")
    return result


# --- the classical system ----------------------------------------------------

_CPC_BOUND = 3
#: Enumeration budget of the classical and the manifest oracles.
_ORACLE_BUDGET = Budget(max_worlds=8, max_vars=8)


@lru_cache(maxsize=1)
def cpc_context():
    """The classical-logic deductive system over the Jankov family, its
    one-point oracle, and the checker-verified stability template."""
    frame = point_frame()
    oracle = tabular_oracle([frame], _ORACLE_BUDGET)
    family = jankov_family(_CPC_BOUND)
    ds = build_system(oracle, family)
    template = _stability_template(ds, family)
    return ds, oracle, family, frame, template


def _stability_template(ds: DeductiveSystem,
                        family: Sequence[FamilyEntry]) -> Inference:
    """A hypothesis-free inference of +(~~p -> p) in the classical system,
    driven by the positive two-chain Jankov axiom."""
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


def render_manifest(mode: Mode, frames: Sequence[Frame], bound: int,
                    family: Sequence[FamilyEntry],
                    oracle: Callable[[Formula], bool]) -> str:
    lines = [f"mode {mode}", f"bound {bound}"]
    for frame in frames:
        pairs = " ".join(f"{i}-{j}" for i in range(frame.n) for j in _bits(frame.rel[i]))
        lines.append(f"frame {frame.n} {pairs}".rstrip())
    for entry in family:
        sign = "+" if oracle(entry.formula) else "-"
        lines.append(f"{sign} {render(entry.formula)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Manifest:
    mode: Mode
    frames: tuple[Frame, ...]
    bound: int
    marks: tuple[tuple[Sign, Formula], ...]


def _count(token: str, directive: str) -> int:
    if not token.isdecimal():
        raise ParseError(f"manifest directive {directive!r} needs a number, got {token!r}")
    return int(token)


def parse_manifest(text: str) -> Manifest:
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
                if n > _ORACLE_BUDGET.max_worlds:
                    raise ResourceBoundError(f"frame has {n} worlds, budget allows "
                                             f"{_ORACLE_BUDGET.max_worlds}", line=number)
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
                family = (_family_by_text(bound)
                          if bound is not None and bound <= MAX_POSET_WORLDS else {})
                marks.append((sign, family.get(formula_text) or parse_formula_at(
                    formula_text, mode, len(line) - len(formula_text))))
            else:
                raise ParseError(f"unknown manifest directive {parts[0]!r}")
    except ParseError as exc:
        raise exc.on_line(number) from None
    if mode is None or bound is None or not frames:
        raise ParseError("manifest needs mode, bound and at least one frame")
    return Manifest(mode, tuple(frames), bound, tuple(marks))


def manifest_context(manifest: Manifest):
    """Rebuild oracle, family, and system from a manifest, verifying that
    it marks exactly the family, each formula with its sign in the system."""
    oracle = tabular_oracle(list(manifest.frames), _ORACLE_BUDGET)
    family = jankov_family(manifest.bound)
    ds = build_system(oracle, family, manifest.mode)
    signs = {**dict.fromkeys(ds.extra_positive, Sign.ASSERT),
             **dict.fromkeys(ds.anti_axioms, Sign.REJECT)}
    for sign, formula in manifest.marks:
        if formula not in signs:
            raise ValueError(f"manifest marks {render(formula)}, which is not "
                             f"in the family of bound {manifest.bound}")
        if sign is not signs[formula]:
            raise ValueError(
                f"manifest sign for {render(formula)} disagrees with its frames")
    marked = {formula for _sign, formula in manifest.marks}
    for entry in family:
        if entry.formula not in marked:
            raise ValueError(f"manifest does not mark {render(entry.formula)}")
    return ds, oracle, family
