"""The formula parser that `lukas.formulas` used before it read each
formula in one scan: a token-at-a-time tokenizer and one method per
precedence level.  Kept unchanged as the reference for
`test_parser_differential.py`."""

import re

from lukas.formulas import BOT, And, Box, Formula, Implies, Mode, Or, ParseError, Var, neg


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<impl>->|→)
  | (?P<and>&|∧)
  | (?P<or>\||∨)
  | (?P<not>~|¬|∼)
  | (?P<box>\[\]|□)
  | (?P<bot>bot\b|⊥)
  | (?P<ident>[a-z][a-z0-9_]*)
  | (?P<lp>\()
  | (?P<rp>\))
""",
    re.VERBOSE,
)


class _Parser:
    def __init__(self, text: str, mode: Mode):
        self.text = text
        self.mode = mode
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            assert kind is not None
            if kind != "ws":
                self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.tokens.append(("eof", "", len(text)))
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Formula:
        f = self.implication()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {value!r}", pos)
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "impl":
            self.advance()
            right = self.implication()
            return Implies(left, right)
        return left

    def disjunction(self) -> Formula:
        acc = self.conjunction()
        while self.peek()[0] == "or":
            self.advance()
            acc = Or(acc, self.conjunction())
        return acc

    def conjunction(self) -> Formula:
        acc = self.unary()
        while self.peek()[0] == "and":
            self.advance()
            acc = And(acc, self.unary())
        return acc

    def unary(self) -> Formula:
        kind, _, pos = self.peek()
        if kind == "not":
            self.advance()
            return neg(self.unary())
        if kind == "box":
            if self.mode is Mode.INT:
                raise ParseError("modality not allowed in int mode", pos)
            self.advance()
            return Box(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.advance()
        if kind == "ident":
            return Var(value)
        if kind == "bot":
            return BOT
        if kind == "lp":
            f = self.implication()
            kind, value, pos = self.advance()
            if kind != "rp":
                raise ParseError("expected ')'", pos)
            return f
        raise ParseError(f"expected a formula, found {value!r}" if value else "unexpected end of input", pos)


def parse_formula(text: str, mode: Mode = Mode.INT) -> Formula:
    return _Parser(text, mode).parse()


def is_variable_name(text: str) -> bool:
    """Whether `text` is exactly one variable name."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.lastgroup == "ident"
