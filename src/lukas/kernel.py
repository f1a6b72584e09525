"""Signed statements, deductive systems, and the inference checker.

Every proof the package emits is pushed through `check_inference` just
before it is emitted; the layers that build it (prover, transforms,
axiomatizer) do not check their own steps.  The trusted base is that
function and the rule table it reads, one justification class per rule;
nothing else in the package is trusted.

Proof scripts are a line-based text format:

    mode int|k4
    hyp +|- <formula>
    <n> +|- <formula> ; ax | antiax | hyp | mp <i> <j> | sb <i> { x := <f> ; ... }
                      | mt <i> <j> | rs <i> | ns <i> | rn <i>

Step numbers run consecutively from 1; rule indices point strictly backwards.

The reader parses each distinct formula text once per script, and enters
the cached rendering of every subformula it has read in the same per-call
table, so a substitution entry or statement that spells an earlier
subformula is looked up, not parsed.  An `mp`, `mt`, `sb`, `ns` or `rn`
statement is fixed by its premises, so when the conclusion that the rule
table gives renders as the step's text, the reader takes that formula
instead of parsing the text.  Either way it is the very object a parse
would return, since `parse_formula(render(f)) is f`.  Any other text is
parsed.  The reader trusts nothing it reads: `check_inference` still
checks every step.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, get_args

from .formulas import (
    Box,
    Formula,
    Implies,
    Mode,
    ParseError,
    Substitution,
    apply_substitution,
    check_mode,
    file_lines,
    index_renderings,
    is_variable_name,
    match_instance,
    parse_formula,
    parse_formula_at,
    render,
)


class Sign(enum.Enum):
    ASSERT = "+"
    REJECT = "-"

    def opposite(self) -> "Sign":
        return Sign.REJECT if self is Sign.ASSERT else Sign.ASSERT

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Statement:
    sign: Sign
    formula: Formula

    def opposite(self) -> "Statement":
        return Statement(self.sign.opposite(), self.formula)

    def __str__(self) -> str:
        return f"{self.sign} {render(self.formula)}"


def asserts(a: Formula) -> Statement:
    return Statement(Sign.ASSERT, a)


def rejects(a: Formula) -> Statement:
    return Statement(Sign.REJECT, a)


# --- justifications: the rule table ---------------------------------------
#
# Each justification class states its rule once, and the checker, the script
# reader and writer, the proof builder and the transforms all read it: the
# rule's script `tag`; the `arity` of the earlier steps it rests on (`refs`,
# re-pointed by `remap`); the `signs` of its premises and then of its
# conclusion, or None when either sign will do; whether it is `modal`, that
# is, only K4-mode systems have it; and what makes a step under it sound.  A
# rule that fixes its conclusion gives it by `conclusion`, or None when the
# premises do not fit, and a step under it `holds` when its formula is that
# conclusion; the other rules test membership or a match in `holds`.  A step
# that does not hold fails with the rule's `fault`.


class _Rule:
    tag: ClassVar[str]
    arity: ClassVar[int] = 0
    signs: ClassVar[Optional[tuple[Sign, ...]]]
    modal: ClassVar[bool] = False
    fault: ClassVar[str] = "formula-mismatch"

    def refs(self) -> tuple[int, ...]:
        return ()

    def remap(self, mapping: Mapping[int, int]) -> "Justification":
        return type(self)(*[mapping[r] for r in self.refs()])

    def conclusion(self, *premises: Formula) -> Optional[Formula]:
        return None

    def holds(self, ds: "DeductiveSystem", hyps: set[Statement],
              statement: Statement, premises: Sequence[Formula]) -> bool:
        return self.conclusion(*premises) == statement.formula


@dataclass(frozen=True)
class _OnePremise(_Rule):
    source: int
    arity = 1

    def refs(self) -> tuple[int, ...]:
        return (self.source,)


@dataclass(frozen=True)
class _TwoPremises(_Rule):
    major: int
    minor: int
    arity = 2

    def refs(self) -> tuple[int, ...]:
        return (self.major, self.minor)


@dataclass(frozen=True)
class Axiom(_Rule):
    tag = "ax"
    signs = (Sign.ASSERT,)
    fault = "axiom-not-in-system"

    def holds(self, ds, hyps, statement, premises):
        return ds.is_positive_axiom(statement.formula)


@dataclass(frozen=True)
class AntiAxiom(_Rule):
    tag = "antiax"
    signs = (Sign.REJECT,)
    fault = "axiom-not-in-system"

    def holds(self, ds, hyps, statement, premises):
        return ds.is_anti_axiom(statement.formula)


@dataclass(frozen=True)
class Hypothesis(_Rule):
    tag = "hyp"
    signs = None
    fault = "hypothesis-not-present"

    def holds(self, ds, hyps, statement, premises):
        return statement in hyps


@dataclass(frozen=True)
class MP(_TwoPremises):
    tag = "mp"
    signs = (Sign.ASSERT, Sign.ASSERT, Sign.ASSERT)

    def conclusion(self, major, minor):
        return major.right if isinstance(major, Implies) and major.left == minor else None


@dataclass(frozen=True)
class Sb(_OnePremise):
    mapping: tuple[tuple[str, Formula], ...]
    tag = "sb"
    signs = (Sign.ASSERT, Sign.ASSERT)

    @staticmethod
    def of(source: int, subst: Substitution) -> "Sb":
        return Sb(source, tuple(sorted(subst.items())))

    def remap(self, mapping: Mapping[int, int]) -> "Sb":
        return Sb(mapping[self.source], self.mapping)

    def conclusion(self, source):
        return apply_substitution(dict(self.mapping), source)


@dataclass(frozen=True)
class MT(_TwoPremises):
    tag = "mt"
    signs = (Sign.ASSERT, Sign.REJECT, Sign.REJECT)

    def conclusion(self, major, minor):
        return major.left if isinstance(major, Implies) and major.right == minor else None


@dataclass(frozen=True)
class RS(_OnePremise):
    tag = "rs"
    signs = (Sign.REJECT, Sign.REJECT)
    fault = "rs-no-match"

    def holds(self, ds, hyps, statement, premises):
        return match_instance(statement.formula, premises[0]) is not None


@dataclass(frozen=True)
class NS(_OnePremise):
    tag = "ns"
    signs = (Sign.ASSERT, Sign.ASSERT)
    modal = True

    def conclusion(self, source):
        return Box(source)


@dataclass(frozen=True)
class RN(_OnePremise):
    tag = "rn"
    signs = (Sign.REJECT, Sign.REJECT)
    modal = True

    def conclusion(self, source):
        return source.inner if isinstance(source, Box) else None


Justification = Axiom | AntiAxiom | Hypothesis | MP | Sb | MT | RS | NS | RN

_RULES: dict[str, type[_Rule]] = {rule.tag: rule for rule in get_args(Justification)}


@dataclass(frozen=True)
class Step:
    statement: Statement
    justification: Justification


@dataclass(frozen=True)
class Inference:
    """A justified statement sequence over a list of hypotheses."""

    hypotheses: tuple[Statement, ...]
    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def conclusion(self) -> Statement:
        if not self.steps:
            raise ValueError("empty inference has no conclusion")
        return self.steps[-1].statement

    def support(self, target: int) -> set[int]:
        """Step `target` and every step it rests on, in one backward sweep:
        references must point backwards, as in a builder or a checked inference."""
        out = {target}
        for i in range(target, 0, -1):
            if i in out:
                out.update(self.steps[i - 1].justification.refs())
        return out


class ProofBuilder:
    """Accumulates an inference, reusing the earlier step whenever a
    statement is added a second time, and emits only what a conclusion
    rests on: `conclude(index)` is the support of step `index`, in order.

    Untrusted, like everything outside `check_inference`: what it builds is
    only as good as the check its caller runs on the result.
    """

    def __init__(self, hypotheses: Sequence[Statement] = ()):
        self.hypotheses = tuple(hypotheses)
        self.steps: list[Step] = []
        self.index: dict[Statement, int] = {}

    def add(self, statement: Statement, just: Justification) -> int:
        """The index of `statement`, appended with `just` if it is new.
        Nothing here verifies that `just` yields `statement`."""
        existing = self.index.get(statement)
        if existing is not None:
            return existing
        self.steps.append(Step(statement, just))
        n = len(self.steps)
        self.index[statement] = n
        return n

    def apply(self, just: Justification) -> int:
        """`add` the conclusion that the rule of `just` draws from its premises."""
        conclusion = just.conclusion(*(self.steps[r - 1].statement.formula for r in just.refs()))
        assert conclusion is not None and just.signs is not None, f"{just} does not apply"
        return self.add(Statement(just.signs[-1], conclusion), just)

    def splice(self, inf: Inference, upto: Optional[int] = None) -> int:
        """Add the support of step `upto` of `inf`, its last step by default,
        re-pointed at the new indices; return the new index of `upto`.
        A statement the builder already holds is not copied again."""
        mapping: dict[int, int] = {}
        last = len(inf.steps) if upto is None else upto
        for old in sorted(inf.support(last)):
            step = inf.steps[old - 1]
            mapping[old] = self.add(step.statement, step.justification.remap(mapping))
        return mapping[last]

    def conclude(self, index: int) -> Inference:
        """The support of the statement at `index`, in order, so that it
        comes last; the steps built so far when they all are its support.
        Statements in a builder are distinct, so one pass renumbers them."""
        built = Inference(self.hypotheses, tuple(self.steps))
        support = sorted(built.support(index))
        if len(support) == len(built):
            return built
        renumber = {old: new for new, old in enumerate(support, start=1)}
        steps = (self.steps[old - 1] for old in support)
        return Inference(self.hypotheses, tuple(
            Step(s.statement, s.justification.remap(renumber)) for s in steps))


# --- deductive systems -----------------------------------------------------

_IPC_AXIOM_TEXT = (
    "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "p & q -> p",
    "p & q -> q",
    "p -> (q -> p & q)",
    "p -> p | q",
    "q -> p | q",
    "(p -> r) -> ((q -> r) -> (p | q -> r))",
    "(p -> q) -> ((p -> ~q) -> ~p)",
    "bot -> p",
)

_MODAL_AXIOM_TEXT = (
    "[](p -> q) -> ([]p -> []q)",
    "[]p -> [][]p",
)


#: The fixed 10-formula intuitionistic Hilbert basis (not schemes; the
#: substitution rule generates instances).
IPC_AXIOMS: tuple[Formula, ...] = tuple(parse_formula(t, Mode.INT) for t in _IPC_AXIOM_TEXT)

#: Distribution and transitivity axioms added to every K4-mode system.
MODAL_BASE_AXIOMS: tuple[Formula, ...] = tuple(parse_formula(t, Mode.K4)
                                               for t in _MODAL_AXIOM_TEXT)

_K4_BASE_AXIOMS = IPC_AXIOMS + MODAL_BASE_AXIOMS


@dataclass(frozen=True)
class DeductiveSystem:
    """Axioms plus anti-axioms under a fixed rule set.

    The intuitionistic basis is always part of the positive axioms, and in K4
    mode so are the distribution and transitivity axioms.  `extra_positive`
    and `anti_axioms` carry whatever the particular system adds on top.
    """

    mode: Mode
    extra_positive: frozenset[Formula] = frozenset()
    anti_axioms: frozenset[Formula] = frozenset()

    def __post_init__(self) -> None:
        for f in list(self.extra_positive) + list(self.anti_axioms):
            check_mode(f, self.mode)

    @property
    def base_axioms(self) -> tuple[Formula, ...]:
        return _K4_BASE_AXIOMS if self.mode is Mode.K4 else IPC_AXIOMS

    def positive_axioms(self) -> frozenset[Formula]:
        return frozenset(self.base_axioms) | self.extra_positive

    def is_positive_axiom(self, a: Formula) -> bool:
        return a in self.extra_positive or a in self.base_axioms

    def is_anti_axiom(self, a: Formula) -> bool:
        return a in self.anti_axioms


def system(mode: Mode = Mode.INT,
           positive: Sequence[Formula] = (),
           anti: Sequence[Formula] = ()) -> DeductiveSystem:
    return DeductiveSystem(mode, frozenset(positive), frozenset(anti))


# --- checking --------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    conclusion: Optional[Statement] = None
    step: Optional[int] = None
    reason: Optional[str] = None

    def __str__(self) -> str:
        if self.ok:
            assert self.conclusion is not None
            return f"OK {self.conclusion}"
        return f"ERR {self.step} {self.reason}"


def _fail(step: int, reason: str) -> CheckReport:
    return CheckReport(ok=False, step=step, reason=reason)


def check_inference(ds: DeductiveSystem, inf: Inference) -> CheckReport:
    """Verify every step against its rule; report the first failure."""
    steps = inf.steps
    if not steps:
        return _fail(0, "empty-inference")
    hyps = set(inf.hypotheses)
    k4 = ds.mode is Mode.K4

    for n, step in enumerate(steps, start=1):
        st, just = step.statement, step.justification
        if not k4 and st.formula.boxed:
            return _fail(n, "modal-formula-in-int-mode")
        if not isinstance(just, Justification):
            return _fail(n, "unknown-justification")
        refs = just.refs()
        premises = [steps[r - 1].statement for r in refs if 0 < r < n]
        if len(premises) < len(refs):
            return _fail(n, "index-out-of-range")
        if just.modal and not k4:
            return _fail(n, "modal-rule-in-int-mode")
        if just.signs is not None and (*[p.sign for p in premises], st.sign) != just.signs:
            return _fail(n, "sign-mismatch")
        if not just.holds(ds, hyps, st, [p.formula for p in premises]):
            return _fail(n, just.fault)

    return CheckReport(ok=True, conclusion=steps[-1].statement)


# --- proof script I/O ------------------------------------------------------


def _parse_sign(token: str, where: str) -> Sign:
    if token == "+":
        return Sign.ASSERT
    if token == "-":
        return Sign.REJECT
    raise ParseError(f"expected + or - in {where}")


def _parse_substitution(text: str, offset: int,
                        read: Callable[[str, int], Formula]) -> dict[str, Formula]:
    """The substitution `{ name := formula ; ... }` that starts at `offset`
    of its line; `read(text, offset)` reads each right-hand side."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("substitution must be wrapped in { }")
    subst: dict[str, Formula] = {}
    start = offset + 1
    for part in text[1:-1].split(";"):
        if ":=" in part:
            name, rhs = part.split(":=", 1)
            key = name.strip()
            if key in subst or not is_variable_name(key):
                fault = "repeats an earlier entry" if key in subst else "is not a variable name"
                raise ParseError(f"substitution entry {key!r} {fault}",
                                 column=start + len(name) - len(name.lstrip()) + 1)
            subst[key] = read(rhs, start + len(name) + 2)
        elif part.strip():
            raise ParseError(f"bad substitution entry {part.strip()!r}")
        start += len(part) + 1
    return subst


def _given(just: Justification, steps: Sequence[Step], mode: Mode,
           text: str) -> Optional[Formula]:
    """The conclusion that the premises of `just` give, if its rule fixes
    one, the mode has the rule, the premises are earlier steps, and the
    conclusion renders as `text`; otherwise None."""
    premises = [steps[r - 1].statement.formula for r in just.refs() if 0 < r <= len(steps)]
    if len(premises) < just.arity or (just.modal and mode is not Mode.K4):
        return None
    try:
        formula = just.conclusion(*premises)
        return formula if formula is not None and render(formula) == text else None
    except RecursionError:      # a long left-nested chain parses, but is too deep to walk
        return None


def parse_proof_script(text: str) -> tuple[Mode, Inference]:
    mode: Optional[Mode] = None
    hypotheses: list[Statement] = []
    steps: list[Step] = []
    expected = 1
    parsed: dict[str, Formula] = {}

    def read(formula_text: str, offset: int, just: Optional[Justification] = None) -> Formula:
        """The formula in `formula_text`, which starts at `offset` of its
        line: an earlier subformula that renders as the text, else the one
        that the premises of `just` give, if it renders as the text, else
        the text parsed.  Each distinct text is read once."""
        key = formula_text.strip()
        formula = parsed.get(key)
        if formula is None:
            if just is not None:
                formula = _given(just, steps, mode, key)
            if formula is None:
                formula = parse_formula_at(formula_text, mode, offset)
            index_renderings(formula, parsed)
            parsed[key] = formula
        return formula

    try:
        for number, line in file_lines(text):
            if mode is None:
                parts = line.split()
                if len(parts) != 2 or parts[0] != "mode" or parts[1] not in ("int", "k4"):
                    raise ParseError("first line must be 'mode int' or 'mode k4'")
                mode = Mode(parts[1])
                continue
            if line.lstrip().startswith("hyp "):
                if steps:
                    raise ParseError("hypotheses must precede steps")
                parts = line.split(None, 2)
                if len(parts) != 3:
                    raise ParseError(f"hyp needs a sign and a formula: {line.strip()!r}")
                _, sign_tok, formula_text = parts
                hypotheses.append(Statement(
                    _parse_sign(sign_tok, "hypothesis"),
                    read(formula_text, len(line) - len(formula_text))))
                continue
            if ";" not in line:
                raise ParseError(f"step line missing justification: {line.strip()!r}")
            head, just_text = line.split(";", 1)
            parts = head.split(None, 2)
            if len(parts) != 3:
                raise ParseError(f"malformed step line: {line.strip()!r}")
            step_number, sign_tok, formula_text = parts
            if not step_number.isdecimal() or int(step_number) != expected:
                raise ParseError(
                    f"step numbers must run consecutively from 1, got {step_number}")
            expected += 1
            sign = _parse_sign(sign_tok, "step")
            offset = len(head) - len(formula_text)
            try:
                just = _parse_justification(just_text, len(head) + 1, read)
            except ParseError:
                read(formula_text, offset)      # an error in the statement comes first
                raise
            steps.append(Step(Statement(sign, read(formula_text, offset, just)), just))
    except ParseError as exc:
        raise exc.on_line(number) from None
    if mode is None:
        raise ParseError("empty proof script")
    return mode, Inference(tuple(hypotheses), tuple(steps))


def _parse_justification(text: str, offset: int,
                         read: Callable[[str, int], Formula]) -> Justification:
    """The justification in `text`, which starts at `offset` of its line;
    `read(text, offset)` reads the formulas of a substitution."""
    parts = text.split(None, 1)
    if not parts:
        raise ParseError("missing justification")
    tag = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    rule = _RULES.get(tag)
    if rule is None:
        raise ParseError(f"unknown justification {tag!r}")
    if rule is Sb:
        sub_parts = rest.split(None, 1)
        if not sub_parts or not sub_parts[0].isdecimal():
            raise ParseError("sb needs a step index and a substitution")
        subst_text = sub_parts[1] if len(sub_parts) > 1 else "{}"
        subst = _parse_substitution(subst_text, offset + len(text) - len(subst_text), read)
        return Sb.of(int(sub_parts[0]), subst)
    nums = rest.split()
    if len(nums) != rule.arity or not all(map(str.isdecimal, nums)):
        noun = "index" if rule.arity == 1 else "indices"
        raise ParseError(f"{tag} takes {rule.arity} step {noun}")
    return rule(*map(int, nums))


def _render_justification(just: Justification) -> str:
    text = " ".join([just.tag, *map(str, just.refs())])
    if isinstance(just, Sb):
        entries = " ; ".join(f"{name} := {render(f)}" for name, f in just.mapping)
        text += f" {{ {entries} }}" if entries else " { }"
    return text


def render_proof_script(mode: Mode, inf: Inference) -> str:
    lines = [f"mode {mode}"]
    for h in inf.hypotheses:
        lines.append(f"hyp {h}")
    for n, step in enumerate(inf.steps, start=1):
        lines.append(f"{n} {step.statement} ; {_render_justification(step.justification)}")
    return "\n".join(lines) + "\n"
