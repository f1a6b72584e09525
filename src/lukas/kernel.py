"""Signed statements, deductive systems, and the inference checker.

Everything downstream (transforms, axiomatizer, CLI) must push its output
through `check_inference`; nothing else in the package is trusted.

Proof scripts are a line-based text format:

    mode int|k4
    hyp +|- <formula>
    <n> +|- <formula> ; ax | antiax | hyp | mp <i> <j> | sb <i> { x := <f> ; ... }
                      | mt <i> <j> | rs <i> | ns <i> | rn <i>

Step numbers run consecutively from 1; rule indices point strictly backwards.

The reader parses each distinct formula text once per script.  An `mp`,
`mt` or `sb` statement is fixed by its premises, so when the formula they
give renders as the step's text, the reader takes that formula instead of
parsing the text; it is the very object a parse would return.  Any other
text is parsed.  The reader trusts nothing it reads: `check_inference`
still checks every step.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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


# --- justifications --------------------------------------------------------
#
# Every justification names the earlier steps it rests on (`refs`) and can
# re-point them through an old-to-new index map (`remap`).


class _NoPremise:
    def refs(self) -> tuple[int, ...]:
        return ()

    def remap(self, mapping: Mapping[int, int]) -> "Justification":
        return self


@dataclass(frozen=True)
class _OnePremise:
    source: int

    def refs(self) -> tuple[int, ...]:
        return (self.source,)

    def remap(self, mapping: Mapping[int, int]) -> "Justification":
        return type(self)(mapping[self.source])


@dataclass(frozen=True)
class _TwoPremises:
    major: int
    minor: int

    def refs(self) -> tuple[int, ...]:
        return (self.major, self.minor)

    def remap(self, mapping: Mapping[int, int]) -> "Justification":
        return type(self)(mapping[self.major], mapping[self.minor])


@dataclass(frozen=True)
class Axiom(_NoPremise):
    pass


@dataclass(frozen=True)
class AntiAxiom(_NoPremise):
    pass


@dataclass(frozen=True)
class Hypothesis(_NoPremise):
    pass


@dataclass(frozen=True)
class MP(_TwoPremises):
    pass


@dataclass(frozen=True)
class Sb(_OnePremise):
    mapping: tuple[tuple[str, Formula], ...]

    @staticmethod
    def of(source: int, subst: Substitution) -> "Sb":
        return Sb(source, tuple(sorted(subst.items())))

    def substitution(self) -> dict[str, Formula]:
        return dict(self.mapping)

    def remap(self, mapping: Mapping[int, int]) -> "Sb":
        return Sb(mapping[self.source], self.mapping)


@dataclass(frozen=True)
class MT(_TwoPremises):
    pass


@dataclass(frozen=True)
class RS(_OnePremise):
    pass


@dataclass(frozen=True)
class NS(_OnePremise):
    pass


@dataclass(frozen=True)
class RN(_OnePremise):
    pass


Justification = Axiom | AntiAxiom | Hypothesis | MP | Sb | MT | RS | NS | RN


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
        """Step `target` and every step it rests on, transitively."""
        out: set[int] = set()
        stack = [target]
        while stack:
            i = stack.pop()
            if i not in out:
                out.add(i)
                stack.extend(self.steps[i - 1].justification.refs())
        return out


class ProofBuilder:
    """Accumulates an inference, reusing the earlier step whenever a
    statement is added a second time.

    Untrusted, like everything outside `check_inference`: what it builds is
    only as good as the check its caller runs on the result.  `steps` seeds
    the builder verbatim, duplicates included; each statement is then found
    at its first occurrence.
    """

    def __init__(self, hypotheses: Sequence[Statement] = (),
                 steps: Sequence[Step] = ()):
        self.hypotheses = tuple(hypotheses)
        self.steps: list[Step] = list(steps)
        self.index: dict[Statement, int] = {}
        for n, step in enumerate(self.steps, start=1):
            self.index.setdefault(step.statement, n)

    def add(self, statement: Statement, just: Justification) -> int:
        """The index of `statement`, appended with `just` if it is new."""
        existing = self.index.get(statement)
        if existing is not None:
            return existing
        self.steps.append(Step(statement, just))
        n = len(self.steps)
        self.index[statement] = n
        return n

    def splice(self, inf: Inference, upto: Optional[int] = None,
               mapping: Optional[dict[int, int]] = None) -> int:
        """Add the steps of `inf`, all of them or only the support of step
        `upto`, re-pointed at their new indices; return the new index of its
        last step or of `upto`.  Entries already in `mapping` stand for steps
        of `inf` that the builder holds; they are not copied, and `mapping`
        ends up holding every old-to-new index."""
        mapping = {} if mapping is None else mapping
        last = len(inf.steps) if upto is None else upto
        order = range(1, last + 1) if upto is None else sorted(inf.support(upto))
        for old in order:
            if old not in mapping:
                step = inf.steps[old - 1]
                mapping[old] = self.add(step.statement, step.justification.remap(mapping))
        return mapping[last]

    def conclude(self, index: int) -> Inference:
        """The inference built so far, ending in the statement at `index`.

        Deduplication may have left that statement mid-list; it is then
        repeated last, by an empty substitution when it is asserted and by a
        reverse substitution with the identity match when it is rejected.
        """
        if index != len(self.steps):
            statement = self.steps[index - 1].statement
            just: Justification = (Sb(index, ()) if statement.sign is Sign.ASSERT
                                   else RS(index))
            self.steps.append(Step(statement, just))
        return Inference(self.hypotheses, tuple(self.steps))


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
    """Verify every step against its justification; report the first failure."""
    steps = inf.steps
    if not steps:
        return _fail(0, "empty-inference")
    hyps = set(inf.hypotheses)

    def stmt(i: int) -> Statement:
        return steps[i - 1].statement

    for n, step in enumerate(steps, start=1):
        st, just = step.statement, step.justification

        if ds.mode is Mode.INT and st.formula.boxed:
            return _fail(n, "modal-formula-in-int-mode")

        if not isinstance(just, Justification):
            return _fail(n, "unknown-justification")
        if any(r < 1 or r >= n for r in just.refs()):
            return _fail(n, "index-out-of-range")

        if isinstance(just, Axiom):
            if st.sign is not Sign.ASSERT:
                return _fail(n, "sign-mismatch")
            if not ds.is_positive_axiom(st.formula):
                return _fail(n, "axiom-not-in-system")
        elif isinstance(just, AntiAxiom):
            if st.sign is not Sign.REJECT:
                return _fail(n, "sign-mismatch")
            if not ds.is_anti_axiom(st.formula):
                return _fail(n, "axiom-not-in-system")
        elif isinstance(just, Hypothesis):
            if st not in hyps:
                return _fail(n, "hypothesis-not-present")
        elif isinstance(just, MP):
            major, minor = stmt(just.major), stmt(just.minor)
            if major.sign is not Sign.ASSERT or minor.sign is not Sign.ASSERT or st.sign is not Sign.ASSERT:
                return _fail(n, "sign-mismatch")
            if not isinstance(major.formula, Implies):
                return _fail(n, "formula-mismatch")
            if major.formula.left != minor.formula or major.formula.right != st.formula:
                return _fail(n, "formula-mismatch")
        elif isinstance(just, Sb):
            source = stmt(just.source)
            if source.sign is not Sign.ASSERT or st.sign is not Sign.ASSERT:
                return _fail(n, "sign-mismatch")
            if apply_substitution(just.substitution(), source.formula) != st.formula:
                return _fail(n, "formula-mismatch")
        elif isinstance(just, MT):
            major, minor = stmt(just.major), stmt(just.minor)
            if major.sign is not Sign.ASSERT or minor.sign is not Sign.REJECT or st.sign is not Sign.REJECT:
                return _fail(n, "sign-mismatch")
            if not isinstance(major.formula, Implies):
                return _fail(n, "formula-mismatch")
            if major.formula.right != minor.formula or major.formula.left != st.formula:
                return _fail(n, "formula-mismatch")
        elif isinstance(just, RS):
            source = stmt(just.source)
            if source.sign is not Sign.REJECT or st.sign is not Sign.REJECT:
                return _fail(n, "sign-mismatch")
            if match_instance(st.formula, source.formula) is None:
                return _fail(n, "rs-no-match")
        elif isinstance(just, NS):
            if ds.mode is not Mode.K4:
                return _fail(n, "modal-rule-in-int-mode")
            source = stmt(just.source)
            if source.sign is not Sign.ASSERT or st.sign is not Sign.ASSERT:
                return _fail(n, "sign-mismatch")
            if st.formula != Box(source.formula):
                return _fail(n, "formula-mismatch")
        else:  # RN
            if ds.mode is not Mode.K4:
                return _fail(n, "modal-rule-in-int-mode")
            source = stmt(just.source)
            if source.sign is not Sign.REJECT or st.sign is not Sign.REJECT:
                return _fail(n, "sign-mismatch")
            if source.formula != Box(st.formula):
                return _fail(n, "formula-mismatch")

    return CheckReport(ok=True, conclusion=steps[-1].statement)


class RuleError(ValueError):
    """Premises do not fit the requested rule shape."""


def apply_rule(ds: DeductiveSystem,
               rule: str,
               premises: Sequence[Statement],
               payload: Union[Substitution, Formula, None] = None) -> Statement:
    """Forward application of one rule; returns exactly the statement the
    checker would accept for the matching justification."""
    if rule == "mp":
        if len(premises) != 2:
            raise RuleError("mp takes two premises")
        major, minor = premises
        if major.sign is not Sign.ASSERT or minor.sign is not Sign.ASSERT:
            raise RuleError("mp premises must be assertions")
        if not isinstance(major.formula, Implies) or major.formula.left != minor.formula:
            raise RuleError("mp premises do not match")
        return asserts(major.formula.right)
    if rule == "sb":
        if len(premises) != 1 or not isinstance(payload, dict):
            raise RuleError("sb takes one premise and a substitution payload")
        (premise,) = premises
        if premise.sign is not Sign.ASSERT:
            raise RuleError("sb premise must be an assertion")
        return asserts(apply_substitution(payload, premise.formula))
    if rule == "mt":
        if len(premises) != 2:
            raise RuleError("mt takes two premises")
        major, minor = premises
        if major.sign is not Sign.ASSERT or minor.sign is not Sign.REJECT:
            raise RuleError("mt premises must be an assertion and a rejection")
        if not isinstance(major.formula, Implies) or major.formula.right != minor.formula:
            raise RuleError("mt premises do not match")
        return rejects(major.formula.left)
    if rule == "rs":
        if len(premises) != 1 or not isinstance(payload, Formula):
            raise RuleError("rs takes one premise and a pattern payload")
        (premise,) = premises
        if premise.sign is not Sign.REJECT:
            raise RuleError("rs premise must be a rejection")
        if match_instance(payload, premise.formula) is None:
            raise RuleError("premise is not an instance of the pattern")
        return rejects(payload)
    if rule == "ns":
        if ds.mode is not Mode.K4:
            raise RuleError("ns is a modal rule")
        if len(premises) != 1:
            raise RuleError("ns takes one premise")
        (premise,) = premises
        if premise.sign is not Sign.ASSERT:
            raise RuleError("ns premise must be an assertion")
        return asserts(Box(premise.formula))
    if rule == "rn":
        if ds.mode is not Mode.K4:
            raise RuleError("rn is a modal rule")
        if len(premises) != 1:
            raise RuleError("rn takes one premise")
        (premise,) = premises
        if premise.sign is not Sign.REJECT or not isinstance(premise.formula, Box):
            raise RuleError("rn premise must be a rejected box formula")
        return rejects(premise.formula.inner)
    raise RuleError(f"unknown rule {rule!r}")


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
            subst[name.strip()] = read(rhs, start + len(name) + 2)
        elif part.strip():
            raise ParseError(f"bad substitution entry {part.strip()!r}")
        start += len(part) + 1
    return subst


def _given(just: Justification, steps: Sequence[Step], text: str) -> Optional[Formula]:
    """The formula that the premises of an `mp`, `mt` or `sb` step give, if
    they are earlier steps, an `mp` or `mt` major premise is an implication,
    and the formula renders as `text`; otherwise None."""
    if isinstance(just, (MP, MT)):
        if not 0 < just.major <= len(steps):
            return None
        major = steps[just.major - 1].statement.formula
        if not isinstance(major, Implies):
            return None
        formula = major.right if isinstance(just, MP) else major.left
    elif isinstance(just, Sb) and 0 < just.source <= len(steps):
        formula = steps[just.source - 1].statement.formula
    else:
        return None
    try:
        if isinstance(just, Sb):
            formula = apply_substitution(just.substitution(), formula)
        return formula if render(formula) == text else None
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
        line: the one that the premises of `just` give, if it renders as the
        text, else the text parsed.  Each distinct text is read once."""
        key = formula_text.strip()
        formula = parsed.get(key)
        if formula is None:
            if just is not None:
                formula = _given(just, steps, key)
            if formula is None:
                formula = parse_formula_at(formula_text, mode, offset)
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
    if tag == "ax":
        return Axiom()
    if tag == "antiax":
        return AntiAxiom()
    if tag == "hyp":
        return Hypothesis()
    if tag in ("mp", "mt"):
        nums = rest.split()
        if len(nums) != 2 or not all(n.isdecimal() for n in nums):
            raise ParseError(f"{tag} needs two step indices")
        cls = MP if tag == "mp" else MT
        return cls(int(nums[0]), int(nums[1]))
    if tag == "sb":
        sub_parts = rest.split(None, 1)
        if not sub_parts or not sub_parts[0].isdecimal():
            raise ParseError("sb needs a step index and a substitution")
        source = int(sub_parts[0])
        subst_text = sub_parts[1] if len(sub_parts) > 1 else "{}"
        subst = _parse_substitution(subst_text, offset + len(text) - len(subst_text), read)
        return Sb.of(source, subst)
    if tag in ("rs", "ns", "rn"):
        nums = rest.split()
        if len(nums) != 1 or not nums[0].isdecimal():
            raise ParseError(f"{tag} needs one step index")
        cls = {"rs": RS, "ns": NS, "rn": RN}[tag]
        return cls(int(nums[0]))
    raise ParseError(f"unknown justification {tag!r}")


def _render_justification(just: Justification) -> str:
    if isinstance(just, Axiom):
        return "ax"
    if isinstance(just, AntiAxiom):
        return "antiax"
    if isinstance(just, Hypothesis):
        return "hyp"
    if isinstance(just, MP):
        return f"mp {just.major} {just.minor}"
    if isinstance(just, Sb):
        if not just.mapping:
            return f"sb {just.source} {{ }}"
        entries = " ; ".join(f"{name} := {render(f)}" for name, f in just.mapping)
        return f"sb {just.source} {{ {entries} }}"
    if isinstance(just, MT):
        return f"mt {just.major} {just.minor}"
    if isinstance(just, RS):
        return f"rs {just.source}"
    if isinstance(just, NS):
        return f"ns {just.source}"
    if isinstance(just, RN):
        return f"rn {just.source}"
    raise TypeError(f"unknown justification {just!r}")


def render_proof_script(mode: Mode, inf: Inference) -> str:
    lines = [f"mode {mode}"]
    for h in inf.hypotheses:
        lines.append(f"hyp {h}")
    for n, step in enumerate(inf.steps, start=1):
        lines.append(f"{n} {step.statement} ; {_render_justification(step.justification)}")
    return "\n".join(lines) + "\n"
