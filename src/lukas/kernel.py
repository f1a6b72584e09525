"""Signed statements, deductive systems, and the inference checker.

Everything downstream (transforms, axiomatizer, CLI) must push its output
through `check_inference`; nothing else in the package is trusted.

Proof scripts are a line-based text format:

    mode int|k4
    hyp +|- <formula>
    <n> +|- <formula> ; ax | antiax | hyp | mp <i> <j> | sb <i> { x := <f> ; ... }
                      | mt <i> <j> | rs <i> | ns <i> | rn <i>

Step numbers run consecutively from 1; rule indices point strictly backwards.
"""

from __future__ import annotations

import enum
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
    match_instance,
    parse_formula,
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


@dataclass(frozen=True)
class Axiom:
    pass


@dataclass(frozen=True)
class AntiAxiom:
    pass


@dataclass(frozen=True)
class Hypothesis:
    pass


@dataclass(frozen=True)
class MP:
    major: int
    minor: int


@dataclass(frozen=True)
class Sb:
    source: int
    mapping: tuple[tuple[str, Formula], ...]

    @staticmethod
    def of(source: int, subst: Substitution) -> "Sb":
        return Sb(source, tuple(sorted(subst.items())))

    def substitution(self) -> dict[str, Formula]:
        return dict(self.mapping)


@dataclass(frozen=True)
class MT:
    major: int
    minor: int


@dataclass(frozen=True)
class RS:
    source: int


@dataclass(frozen=True)
class NS:
    source: int


@dataclass(frozen=True)
class RN:
    source: int


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


def ipc_axioms() -> tuple[Formula, ...]:
    """`IPC_AXIOMS`, the same tuple on every call."""
    return IPC_AXIOMS


def modal_base_axioms() -> tuple[Formula, ...]:
    """`MODAL_BASE_AXIOMS`, the same tuple on every call."""
    return MODAL_BASE_AXIOMS


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

        if isinstance(just, (MP, MT)):
            refs = (just.major, just.minor)
        elif isinstance(just, (Sb, RS, NS, RN)):
            refs = (just.source,)
        else:
            refs = ()
        if any(r < 1 or r >= n for r in refs):
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
        elif isinstance(just, RN):
            if ds.mode is not Mode.K4:
                return _fail(n, "modal-rule-in-int-mode")
            source = stmt(just.source)
            if source.sign is not Sign.REJECT or st.sign is not Sign.REJECT:
                return _fail(n, "sign-mismatch")
            if source.formula != Box(st.formula):
                return _fail(n, "formula-mismatch")
        else:
            return _fail(n, "unknown-justification")

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
    raise ParseError(f"expected + or - in {where}", 0)


def _parse_substitution(text: str, mode: Mode) -> dict[str, Formula]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("substitution must be wrapped in { }", 0)
    inner = text[1:-1].strip()
    subst: dict[str, Formula] = {}
    if not inner:
        return subst
    for part in inner.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":=" not in part:
            raise ParseError(f"bad substitution entry {part!r}", 0)
        name, rhs = part.split(":=", 1)
        name = name.strip()
        subst[name] = parse_formula(rhs, mode)
    return subst


def parse_proof_script(text: str) -> tuple[Mode, Inference]:
    mode: Optional[Mode] = None
    hypotheses: list[Statement] = []
    steps: list[Step] = []
    expected = 1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if mode is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "mode" or parts[1] not in ("int", "k4"):
                raise ParseError("first line must be 'mode int' or 'mode k4'", 0)
            mode = Mode(parts[1])
            continue
        if line.startswith("hyp "):
            if steps:
                raise ParseError("hypotheses must precede steps", 0)
            rest = line[4:].strip()
            sign_tok, formula_text = rest.split(None, 1)
            hypotheses.append(Statement(_parse_sign(sign_tok, "hypothesis"),
                                        parse_formula(formula_text, mode)))
            continue
        if ";" not in line:
            raise ParseError(f"step line missing justification: {line!r}", 0)
        head, just_text = line.split(";", 1)
        parts = head.split(None, 2)
        if len(parts) != 3:
            raise ParseError(f"malformed step line: {line!r}", 0)
        number, sign_tok, formula_text = parts
        if not number.isdigit() or int(number) != expected:
            raise ParseError(f"step numbers must run consecutively from 1, got {number}", 0)
        expected += 1
        statement = Statement(_parse_sign(sign_tok, "step"), parse_formula(formula_text, mode))
        steps.append(Step(statement, _parse_justification(just_text.strip(), mode)))
    if mode is None:
        raise ParseError("empty proof script", 0)
    return mode, Inference(tuple(hypotheses), tuple(steps))


def _parse_justification(text: str, mode: Mode) -> Justification:
    parts = text.split(None, 1)
    if not parts:
        raise ParseError("missing justification", 0)
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
        if len(nums) != 2 or not all(n.isdigit() for n in nums):
            raise ParseError(f"{tag} needs two step indices", 0)
        cls = MP if tag == "mp" else MT
        return cls(int(nums[0]), int(nums[1]))
    if tag == "sb":
        sub_parts = rest.split(None, 1)
        if not sub_parts or not sub_parts[0].isdigit():
            raise ParseError("sb needs a step index and a substitution", 0)
        source = int(sub_parts[0])
        subst = _parse_substitution(sub_parts[1] if len(sub_parts) > 1 else "{}", mode)
        return Sb.of(source, subst)
    if tag in ("rs", "ns", "rn"):
        nums = rest.split()
        if len(nums) != 1 or not nums[0].isdigit():
            raise ParseError(f"{tag} needs one step index", 0)
        cls = {"rs": RS, "ns": NS, "rn": RN}[tag]
        return cls(int(nums[0]))
    raise ParseError(f"unknown justification {tag!r}", 0)


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
