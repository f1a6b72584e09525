"""Propositional/modal formula trees, parsing, printing, substitution, matching.

Formulas are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006).  Each constructor looks its arguments up in a
weak-valued table of the live nodes of its class, so structurally equal
formulas are one and the same object: ``==`` is ``is``.  A formula parsed
back from its rendering, substituted with the empty map, copied, deep-copied
or unpickled is the object it came from.  Each node is immutable and stores,
when it is made, a structural hash computed from its children's hashes (not
from ``id``, so set and dict order is the same in every run) and a ``boxed``
flag; hashing, equality and `has_box` cost O(1).  Constructors may be
called from several threads at once.

A node also has a slot for its rendering, which `render` fills the first
time it reaches the node.  Later renders of the node, or of any formula
containing it, reuse that text and add only brackets, and the cache check
sits inside the one recursive walk, so nesting still costs one stack frame
per level.  Only renderings of at most `_TEXT_LIMIT` (80) characters are
kept: a formula of depth D and text size S would otherwise keep about D×S
bytes alive, since each node on a path holds the text of everything below
it (300 negations of a 0.6 MB conjunction kept 189 MB; with the limit,
4 MB).  A variable's text is its name.  Two threads may render one node at
once and both fill its slot; they store the same text, so either may win.

Negation is surface sugar only: ``~A`` parses to ``Implies(A, Bottom)`` and the
printer re-sugars that shape back to ``~A``.  The connective set is fixed to
{and, or, implies, bottom} plus box in K4 mode.
"""

from __future__ import annotations

import enum
import re
import threading
import weakref
import zlib
from collections.abc import Iterator, Mapping
from typing import Optional


class Mode(enum.Enum):
    INT = "int"
    K4 = "k4"

    def __str__(self) -> str:
        return self.value


class ParseError(ValueError):
    """Raised on malformed text.  An error in a formula carries the 0-based
    `position` in the formula's text.  An error in a file carries the 1-based
    `line` and, when a formula on that line is at fault, the 1-based
    `column`; an error about the file as a whole carries neither."""

    def __init__(self, message: str, position: Optional[int] = None,
                 line: Optional[int] = None, column: Optional[int] = None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
        elif position is not None:
            where = f"position {position}"
        else:
            where = None
        super().__init__(message if where is None else f"{message} (at {where})")
        self.message = message
        self.position = position
        self.line = line
        self.column = column

    def on_line(self, line: int) -> "ParseError":
        """This error, raised while reading `line` of a file."""
        return ParseError(self.message, line=line, column=self.column)


class ModeError(ValueError):
    """A formula uses connectives not available in the requested mode."""


# --- hash-consed nodes --------------------------------------------------------

_init = object.__setattr__

#: Serialises making and forgetting nodes, so two threads cannot make two
#: nodes for one formula.  Reentrant, because a node can die, and be
#: forgotten, while its thread holds the lock.
_lock = threading.RLock()


class _Ref(weakref.ref):
    """Weak reference to an interned node, keyed by its table entry."""

    __slots__ = ("key",)


def _intern_table() -> tuple[dict, object]:
    """A table of live nodes and the callback that drops a node's entry
    once the node is gone (unless a newer node has taken the key since)."""
    live: dict = {}
    lock = _lock          # held by the closure, for callbacks at shutdown

    def forget(ref: _Ref) -> None:
        with lock:
            if live.get(ref.key) is ref:
                del live[ref.key]

    return live, forget


def _interned(cls: type, key, values: tuple, h: int, boxed: bool,
              text: Optional[str] = None) -> "Formula":
    """The live node of `cls` under `key`, made from `values` (its fields, in
    `__match_args__` order) and cached rendering `text` if there is none.
    Constructors call this when their unlocked lookup finds no live node."""
    with _lock:
        ref = cls._live.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, values):
                _init(node, name, value)
            _init(node, "_hash", h)
            _init(node, "boxed", boxed)
            _init(node, "_text", text)
            ref = _Ref(node, cls._forget)
            ref.key = key
            cls._live[key] = ref
        return node


# precedence levels used by the printer; higher binds tighter
_PREC_IMPL = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


class Formula:
    """A formula node.  Only the six subclasses below are ever built, and
    only through their constructors, which intern them."""

    __slots__ = ("_hash", "boxed", "_text", "__weakref__")
    __match_args__: tuple[str, ...] = ()
    _prec = _PREC_UNARY

    def __hash__(self) -> int:
        return self._hash

    # `==` is the identity test inherited from `object`.

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return render(self)


# hash tags, one per node class
_VAR, _BOT, _AND, _OR, _IMPLIES, _BOX = range(6)


class Var(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    _live, _forget = _intern_table()

    def __new__(cls, name: str) -> "Var":
        ref = cls._live.get(name)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        return _interned(cls, name, (name,), hash((_VAR, zlib.crc32(name.encode()))), False,
                         name)


class Bottom(Formula):
    __slots__ = ()

    def __new__(cls) -> "Bottom":
        return BOT


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    _tag: int

    # Tables are keyed by the ids of the (interned) children: a live node
    # holds its children, so while its entry can be found their ids name
    # exactly them.
    def __new__(cls, left: Formula, right: Formula):
        key = (id(left), id(right))
        ref = cls._live.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        return _interned(cls, key, (left, right), hash((cls._tag, left._hash, right._hash)),
                         left.boxed or right.boxed)


class And(_Binary):
    __slots__ = ()
    _tag = _AND
    _prec, _symbol = _PREC_AND, " & "
    _live, _forget = _intern_table()


class Or(_Binary):
    __slots__ = ()
    _tag = _OR
    _prec, _symbol = _PREC_OR, " | "
    _live, _forget = _intern_table()


class Implies(_Binary):
    __slots__ = ()
    _tag = _IMPLIES
    _prec, _symbol = _PREC_IMPL, " -> "
    _live, _forget = _intern_table()


class Box(Formula):
    __slots__ = ("inner",)
    __match_args__ = ("inner",)
    _live, _forget = _intern_table()

    def __new__(cls, inner: Formula) -> "Box":
        key = id(inner)
        ref = cls._live.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        return _interned(cls, key, (inner,), hash((_BOX, inner._hash)), True)


BOT: Bottom = object.__new__(Bottom)
_init(BOT, "_hash", hash((_BOT,)))
_init(BOT, "boxed", False)
_init(BOT, "_text", "bot")

#: A substitution is a finite map from variable names to formulas.
Substitution = Mapping[str, Formula]


def neg(a: Formula) -> Formula:
    return Implies(a, BOT)


def conj(parts: list[Formula]) -> Formula:
    """Left-associated conjunction of a nonempty list."""
    acc = parts[0]
    for p in parts[1:]:
        acc = And(acc, p)
    return acc


def disj(parts: list[Formula]) -> Formula:
    """Left-associated disjunction of a nonempty list."""
    acc = parts[0]
    for p in parts[1:]:
        acc = Or(acc, p)
    return acc


def subformulas(a: Formula) -> Iterator[Formula]:
    """All subformulas, each distinct tree yielded once, outside-in."""
    seen: set[int] = set()
    stack = [a]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        yield f
        if isinstance(f, _Binary):
            stack.append(f.left)
            stack.append(f.right)
        elif isinstance(f, Box):
            stack.append(f.inner)


def variables(a: Formula) -> frozenset[str]:
    return frozenset(f.name for f in subformulas(a) if isinstance(f, Var))


def has_box(a: Formula) -> bool:
    return a.boxed


def check_mode(a: Formula, mode: Mode) -> None:
    if mode is Mode.INT and a.boxed:
        raise ModeError(f"modality not allowed in {mode} mode: {render(a)}")


def apply_substitution(s: Substitution, a: Formula) -> Formula:
    """Replace every mapped variable simultaneously; unmapped ones stay fixed."""
    if isinstance(a, Var):
        return s.get(a.name, a)
    if isinstance(a, _Binary):
        left = apply_substitution(s, a.left)
        right = apply_substitution(s, a.right)
        if left is a.left and right is a.right:
            return a
        return type(a)(left, right)
    if isinstance(a, Bottom):
        return a
    if isinstance(a, Box):
        inner = apply_substitution(s, a.inner)
        return a if inner is a.inner else Box(inner)
    raise TypeError(f"not a formula: {a!r}")


def match_instance(pattern: Formula, target: Formula) -> Optional[dict[str, Formula]]:
    """One-sided matching: the substitution on vars(pattern) sending pattern to
    target, or None if no such substitution exists."""
    binding: dict[str, Formula] = {}

    def walk(p: Formula, t: Formula) -> bool:
        if isinstance(p, Var):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = t
                return True
            return bound is t
        if isinstance(p, _Binary):
            return type(t) is type(p) and walk(p.left, t.left) and walk(p.right, t.right)
        if isinstance(p, Bottom):
            return p is t
        if isinstance(p, Box):
            return isinstance(t, Box) and walk(p.inner, t.inner)
        raise TypeError(f"not a formula: {p!r}")

    return binding if walk(pattern, target) else None


# ---------------------------------------------------------------------------
# Parsing

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


def file_lines(text: str) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a file with `#` comments and trailing blanks
    dropped, each with its 1-based number."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield number, line


def parse_formula_at(text: str, mode: Mode, offset: int) -> Formula:
    """`parse_formula` for text that starts at 0-based `offset` of a line in
    a file: an error carries its 1-based column in that line."""
    try:
        return parse_formula(text, mode)
    except ParseError as exc:
        raise ParseError(exc.message, column=offset + (exc.position or 0) + 1) from None


#: Longest rendering that a node keeps in its `_text` slot.
_TEXT_LIMIT = 80


def render(a: Formula) -> str:
    """ASCII rendering; parse_formula(render(a), mode) reproduces the tree.

    A node's rendering, once made, is kept on the node if it is at most
    `_TEXT_LIMIT` characters long, and every later render of the node or of
    a formula containing it reuses that text."""
    text = a._text
    if text is not None:
        return text
    cls = type(a)
    if cls is Box:
        inner = a.inner
        text = "[]" + _bracketed(render(inner), inner, _PREC_UNARY)
    elif cls is Implies and a.right is BOT:
        left = a.left
        text = "~" + _bracketed(render(left), left, _PREC_UNARY)
    elif isinstance(a, _Binary):
        left, right, prec = a.left, a.right, cls._prec
        # `->` groups to the right, `|` and `&` to the left
        left_prec, right_prec = (prec + 1, prec) if cls is Implies else (prec, prec + 1)
        text = (_bracketed(render(left), left, left_prec) + cls._symbol
                + _bracketed(render(right), right, right_prec))
    else:
        raise TypeError(f"not a formula: {a!r}")
    if len(text) <= _TEXT_LIMIT:
        _init(a, "_text", text)
    return text


def _bracketed(text: str, f: Formula, min_prec: int) -> str:
    """`text`, the rendering of `f`, in brackets if `f` binds less tightly
    than `min_prec`.  Negation binds like the unary connectives."""
    prec = f._prec
    if prec >= min_prec or (prec == _PREC_IMPL and f.right is BOT):
        return text
    return "(" + text + ")"


def index_renderings(a: Formula, table: dict[str, Formula]) -> None:
    """Enter each subformula of `a` that keeps its rendering (see `render`)
    in `table` under that text.  The walk does not go below a node whose
    text `table` already holds: its subformulas are taken to be there too.
    Of a formula too deep to render, only the subformulas rendered before
    are entered."""
    try:
        render(a)
    except RecursionError:
        pass
    stack = [a]
    while stack:
        f = stack.pop()
        text = f._text
        if text is not None:
            if text in table:
                continue
            table[text] = f
        if isinstance(f, _Binary):
            stack.append(f.left)
            stack.append(f.right)
        elif isinstance(f, Box):
            stack.append(f.inner)
