"""The one-scan parser of `lukas.formulas` against the token-at-a-time
parser it replaced (`reference_parser.py`): on seeded random token strings,
a text that parses gives the very same formula, and a text that does not
gives the same message at the same position."""

import random

import pytest
import reference_parser

from lukas.formulas import Mode, ParseError, is_variable_name, parse_formula

#: Tokens and their weights.  Names, `bot` and near misses, every connective
#: with its Unicode aliases, brackets, and characters no formula may hold.
TOKENS = {
    "p": 6, "q": 4, "x1": 2, "bot": 3, "bottom": 1, "bot_1": 1, "⊥": 2,
    "->": 5, "→": 2, "&": 4, "∧": 2, "|": 4, "∨": 2, "~": 3, "¬": 1, "∼": 1,
    "[]": 3, "□": 1, "(": 5, ")": 5,
    "-": 1, ">": 1, "[": 1, "]": 1, "A": 1, "1": 1, "é": 1, "_": 1, "{": 1,
}
SEPARATORS = ["", " ", " ", " ", "  ", "\t"]
TEXTS_PER_MODE = 50_000


def outcome(parse, text, mode):
    try:
        return parse(text, mode)
    except ParseError as exc:
        return (exc.message, exc.position)


ATOMS = ["p", "q", "x1", "bot", "bottom", "bot_1", "⊥"]
PREFIXES = ["~", "¬", "∼", "[]", "□"]
BINARIES = ["->", "→", "&", "∧", "|", "∨"]


def formula_tokens(rng, depth):
    """The tokens of a random well-formed K4 formula, some of it bracketed."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return [rng.choice(ATOMS)]
    if roll < 0.5:
        return [rng.choice(PREFIXES), *formula_tokens(rng, depth - 1)]
    if roll < 0.6:
        return ["(", *formula_tokens(rng, depth - 1), ")"]
    return [*formula_tokens(rng, depth - 1), rng.choice(BINARIES),
            *formula_tokens(rng, depth - 1)]


def random_texts(seed, count):
    """The empty text, then in turn: a string of up to 6, 12 or 30 random
    tokens; and a well-formed formula with, half the time, one or two
    tokens replaced, inserted or deleted.  Tokens are joined by nothing,
    blanks or a tab."""
    rng = random.Random(seed)
    tokens, weights = list(TOKENS), list(TOKENS.values())
    yield ""
    for n in range(count - 1):
        if n % 2:
            parts = rng.choices(tokens, weights, k=rng.randint(1, rng.choice((6, 12, 30))))
        else:
            parts = formula_tokens(rng, rng.randint(0, 5))
            for _ in range(rng.choice((0, 0, 1, 2))):
                at = rng.randrange(len(parts) + 1)
                edit = rng.choice(("replace", "insert", "delete"))
                if edit != "insert" and at < len(parts):
                    del parts[at]
                if edit != "delete":
                    parts.insert(at, rng.choices(tokens, weights)[0])
        yield "".join(part + rng.choice(SEPARATORS) for part in parts)


@pytest.mark.parametrize("mode", list(Mode), ids=str)
def test_parser_agrees_with_the_reference(mode):
    parsed = 0
    for text in random_texts(f"parse-{mode}", TEXTS_PER_MODE):
        expected = outcome(reference_parser.parse_formula, text, mode)
        got = outcome(parse_formula, text, mode)
        if isinstance(expected, tuple):
            assert got == expected, text
        else:
            assert got is expected, text
            parsed += 1
    assert TEXTS_PER_MODE // 5 < parsed < TEXTS_PER_MODE * 4 // 5   # both outcomes occur


@pytest.mark.parametrize("text", [
    "", "p", "x_1", "bot", "bot_1", "bottom", "⊥", "p ", " p", "p q", "A", "é", "1p", "p->",
])
def test_variable_names_agree_with_the_reference(text):
    assert is_variable_name(text) is reference_parser.is_variable_name(text)
