"""Constructive passes over checked inferences: positive-step extraction,
and the refutation transformer that turns a positive derivation of an
underivable formula into a refutation of one of its hypotheses.

Neither pass checks what it is given or what it returns: its caller checks
the input and pushes every output it emits through `check_inference`, so
the transformer is never trusted on its own.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Optional

from .formulas import (
    BOT,
    Formula,
    Implies,
    Var,
    apply_substitution,
    has_box,
    render,
    variables,
)
from .kernel import (
    Axiom,
    Hypothesis,
    Inference,
    MP,
    MT,
    NS,
    RN,
    RS,
    ProofBuilder,
    Sb,
    Sign,
    Step,
    rejects,
)
from .prover import derive, derive_lemma
from .semantics import KripkeModel, point_frame, truth_mask


class TransformError(ValueError):
    """A transform precondition does not hold."""


class OracleInconsistencyError(TransformError):
    """The underivability oracle contradicts what the inference exhibits."""


class SymmetryDefectError(TransformError):
    """The transformer needed a positive derivation it cannot reconstruct."""


# --- positive extraction -----------------------------------------------------


def extract_positive(inf: Inference) -> Inference:
    """Delete all rejected steps and re-point the survivors' indices.

    Requires positive hypotheses and a positive conclusion; the result
    derives the same conclusion from the same hypotheses.
    """
    if any(h.sign is not Sign.ASSERT for h in inf.hypotheses):
        raise TransformError("extraction requires positive hypotheses")
    if not inf.steps or inf.conclusion.sign is not Sign.ASSERT:
        raise TransformError("extraction requires a positive conclusion")

    mapping: dict[int, int] = {}
    kept: list[Step] = []
    for old, step in enumerate(inf.steps, start=1):
        if step.statement.sign is not Sign.ASSERT:
            continue
        signs = step.justification.signs
        if signs is not None and signs[-1] is not Sign.ASSERT:
            raise TransformError(
                f"positive step {old} carries a rejection-rule justification")
        kept.append(Step(step.statement, step.justification.remap(mapping)))
        mapping[old] = len(kept)
    return Inference(inf.hypotheses, tuple(kept))


# --- the refutation transformer ----------------------------------------------

_TOP = Implies(BOT, BOT)
#: The rule that rejects the premise of a one-premise positive rule.
_REVERSE = {Sb: RS, NS: RN}
_POINT = point_frame()


@lru_cache(maxsize=1)
def _apply_template() -> Inference:
    """Derivation of p -> ((p -> q) -> q)."""
    template = derive(Implies(Var("p"), Implies(Implies(Var("p"), Var("q")), Var("q"))))
    assert template is not None
    return template


def _hypothesis_free(inf: Inference, target: int) -> bool:
    return not any(isinstance(inf.steps[i - 1].justification, Hypothesis)
                   for i in inf.support(target))


def require_all_positive(inf: Inference) -> None:
    """Raise `TransformError` unless `inf` is a nonempty all-positive
    inference from positive hypotheses, the input the transformer takes."""
    if not inf.steps:
        raise TransformError("empty inference")
    if any(s.statement.sign is not Sign.ASSERT for s in inf.steps):
        raise TransformError("transformer requires an all-positive inference")
    if any(h.sign is not Sign.ASSERT for h in inf.hypotheses):
        raise TransformError("transformer requires positive hypotheses")


def symmetry_transform(inf: Inference,
                       derivable: Callable[[Formula], bool],
                       ) -> tuple[int, Inference]:
    """Given an all-positive inference of +B from +A1..+An that checks,
    where the oracle says B is underivable, produce (i, ref) with ref an
    inference of -Ai from the single hypothesis -B; ref is not checked.

    `derivable` must soundly decide derivability in the system (a tabular
    semantic oracle at desk scale).
    """
    require_all_positive(inf)
    conclusion = inf.conclusion.formula
    if derivable(conclusion):
        raise OracleInconsistencyError(
            f"oracle derives the conclusion {render(conclusion)}")

    builder = ProofBuilder((rejects(conclusion),))
    builder.add(rejects(conclusion), Hypothesis())

    def splice_derivable(target_index: int, formula: Formula) -> int:
        if _hypothesis_free(inf, target_index):
            return builder.splice(inf, target_index)
        raise SymmetryDefectError(
            f"no hypothesis-free derivation available for {render(formula)}")

    def recurse(target_index: int, rejected_index: int) -> int:
        step = inf.steps[target_index - 1]
        formula = step.statement.formula
        just = step.justification

        if isinstance(just, Hypothesis):
            for i, hyp in enumerate(inf.hypotheses, start=1):
                if hyp.formula == formula:
                    return i
            raise TransformError("hypothesis step not among hypotheses")
        if isinstance(just, Axiom):
            raise OracleInconsistencyError(
                f"axiom {render(formula)} reached with an underivable target")
        reverse = _REVERSE.get(type(just))
        if reverse is not None:
            source = inf.steps[just.source - 1].statement.formula
            rejected = builder.add(rejects(source), reverse(rejected_index))
            return recurse(just.source, rejected)
        if isinstance(just, MP):
            major = inf.steps[just.major - 1].statement.formula
            minor = inf.steps[just.minor - 1].statement.formula
            assert just.conclusion(major, minor) == formula
            if derivable(major):
                if derivable(minor):
                    raise OracleInconsistencyError(
                        "oracle derives both premises of an underivable conclusion")
                major_index = splice_derivable(just.major, major)
                rejected = builder.apply(MT(major_index, rejected_index))
                return recurse(just.minor, rejected)
            return _transfer(rejected_index, just, major, minor, formula)
        raise TransformError(f"unsupported justification on a positive step: {just!r}")

    def _transfer(rejected_index: int, just: MP,
                  major: Formula, minor: Formula, formula: Formula) -> int:
        """The underivable-major branch: derive -major from -conclusion and
        recurse on the major's own derivation."""

        def reject_via_lemma(lemma_target: Formula, subst: dict[str, Formula],
                             source_index: int) -> Optional[int]:
            instance = apply_substitution(subst, lemma_target)
            lemma_index = derive_lemma(builder, Implies(instance, formula))
            if lemma_index is None:
                return None
            rejected_instance = builder.apply(MT(lemma_index, rejected_index))
            if instance == lemma_target:
                rejected = rejected_instance
            else:
                rejected = builder.add(rejects(lemma_target), RS(rejected_instance))
            return recurse(source_index, rejected)

        # direct: the rejected conclusion already refutes the major
        if not has_box(major):
            outcome = reject_via_lemma(major, {}, just.major)
            if outcome is not None:
                return outcome
            # boolean substitutions: refute the minor or the major classically,
            # one valuation (a one-world model) at a time
            names = sorted(variables(major))
            if len(names) <= 10:
                for values in itertools.product((0, 1), repeat=len(names)):
                    point = KripkeModel(_POINT, tuple(zip(names, values)))
                    subst = {n: (_TOP if v else BOT) for n, v in zip(names, values)}
                    if not truth_mask(point, minor):
                        if derivable(minor):
                            raise OracleInconsistencyError(
                                "oracle derives a classically refutable formula")
                        outcome = reject_via_lemma(
                            minor, {n: subst[n] for n in variables(minor)}, just.minor)
                        if outcome is not None:
                            return outcome
                    elif not truth_mask(point, formula):
                        outcome = reject_via_lemma(major, subst, just.major)
                        if outcome is not None:
                            return outcome
            # substitute the rejected conclusion itself for the variables
            if not derivable(minor):
                subst = {n: formula for n in variables(minor)}
                outcome = reject_via_lemma(minor, subst, just.minor)
                if outcome is not None:
                    return outcome
            subst = {n: formula for n in variables(major)}
            outcome = reject_via_lemma(major, subst, just.major)
            if outcome is not None:
                return outcome
        # internalised modus ponens from a derivable minor
        if derivable(minor):
            minor_index = splice_derivable(just.minor, minor)
            template_index = builder.splice(_apply_template())
            inst_index = builder.apply(Sb.of(template_index, {"p": minor, "q": formula}))
            peeled = builder.apply(MP(inst_index, minor_index))
            rejected = builder.apply(MT(peeled, rejected_index))
            return recurse(just.major, rejected)
        raise SymmetryDefectError(
            f"cannot transfer the rejection of {render(formula)} to {render(major)}")

    hypothesis_index = recurse(len(inf.steps), 1)
    target = rejects(inf.hypotheses[hypothesis_index - 1].formula)
    return hypothesis_index, builder.conclude(builder.index[target])
