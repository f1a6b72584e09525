"""The benchmark's own inputs and answers, made apart from `lukas`.

Nothing here imports `lukas`: formulas are plain tuples, and every verdict
the benchmark checks the program against is computed by the small,
obviously-exhaustive routines below.

    ("var", name) | ("bot",) | ("and", a, b) | ("or", a, b) | ("imp", a, b)

`~a` is `("imp", a, ("bot",))`, as in the program's text format.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Optional, Sequence

BOT = ("bot",)


def var(name: str) -> tuple:
    return ("var", name)


def neg(a: tuple) -> tuple:
    return ("imp", a, BOT)


# --- text ---------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|→|&|∧|\||∨|~|¬|bot\b|⊥|[a-z][a-z0-9_]*|\(|\))")


def parse(text: str) -> tuple:
    """Parse the documented formula syntax; `->` is right-associative and
    binds loosest, then `|`, then `&`, then `~`."""
    tokens: list[str] = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad formula text at {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = 0

    def peek() -> str:
        return tokens[at]

    def take() -> str:
        nonlocal at
        at += 1
        return tokens[at - 1]

    def implication() -> tuple:
        left = disjunction()
        if peek() in ("->", "→"):
            take()
            return ("imp", left, implication())
        return left

    def disjunction() -> tuple:
        acc = conjunction()
        while peek() in ("|", "∨"):
            take()
            acc = ("or", acc, conjunction())
        return acc

    def conjunction() -> tuple:
        acc = unary()
        while peek() in ("&", "∧"):
            take()
            acc = ("and", acc, unary())
        return acc

    def unary() -> tuple:
        if peek() in ("~", "¬"):
            take()
            return neg(unary())
        tok = take()
        if tok in ("bot", "⊥"):
            return BOT
        if tok == "(":
            inner = implication()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses: {text!r}")
            return inner
        if re.fullmatch(r"[a-z][a-z0-9_]*", tok):
            return ("var", tok)
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    result = implication()
    if peek() != "":
        raise ValueError(f"trailing input in {text!r}")
    return result


def render(f: tuple) -> str:
    """Text that `lukas` and `parse` both read, with every binary
    subformula of a connective in parentheses."""
    tag = f[0]
    if tag == "var":
        return f[1]
    if tag == "bot":
        return "bot"
    if tag == "imp" and f[2] == BOT:
        return "~" + _wrap(f[1])
    op = {"and": " & ", "or": " | ", "imp": " -> "}[tag]
    return _wrap(f[1]) + op + _wrap(f[2])


def _wrap(f: tuple) -> str:
    bare = f[0] in ("var", "bot") or (f[0] == "imp" and f[2] == BOT)
    return render(f) if bare else f"({render(f)})"


def variables(f: tuple) -> frozenset:
    if f[0] == "var":
        return frozenset([f[1]])
    if f[0] == "bot":
        return frozenset()
    return variables(f[1]) | variables(f[2])


def connectives(f: tuple) -> int:
    if f[0] in ("var", "bot"):
        return 0
    return 1 + connectives(f[1]) + connectives(f[2])


# --- seeded formulas ------------------------------------------------------------


def random_formula(rng: random.Random, names: Sequence[str], depth: int) -> tuple:
    """A leaf with probability 0.35 (bot one leaf in eight), otherwise `&`,
    `|` or `->` over two smaller formulas, `->` twice as likely."""
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.12:
            return BOT
        return var(rng.choice(list(names)))
    connective = rng.randrange(4)
    tag = ("and", "or", "imp", "imp")[connective]
    return (tag, random_formula(rng, names, depth - 1),
            random_formula(rng, names, depth - 1))


def stratified_formulas(rng: random.Random, names: Sequence[str],
                        quotas: dict, depth: int = 3, max_connectives: int = 6,
                        min_vars: int = 0, exclude: Sequence[tuple] = ()) -> list:
    """Distinct seeded formulas, `quotas[(tautology, connectives)]` of each
    kind, in seeded order, so that every seed gets the same mix."""
    left = dict(quotas)
    seen = set(exclude)
    out: list[tuple] = []
    while any(left.values()):
        f = random_formula(rng, names, depth)
        size = connectives(f)
        if f in seen or size > max_connectives or len(variables(f)) < min_vars:
            continue
        kind = (tautology(f), size)
        if left.get(kind, 0) > 0:
            left[kind] -= 1
            seen.add(f)
            out.append(f)
    rng.shuffle(out)
    return out


def renamed(pool: Sequence[tuple], names: Sequence[str], rng: random.Random,
            taken: Sequence[tuple] = ()) -> list:
    """Each formula of `pool` under its own seeded permutation of `names`,
    the first one that gives a formula not yet taken.  One always exists,
    because the pool's formulas are distinct."""
    perms = list(itertools.permutations(names))
    seen = set(taken)
    out = []
    for f in pool:
        rng.shuffle(perms)
        g = next(g for g in (rename(f, dict(zip(names, perm))) for perm in perms)
                 if g not in seen)
        seen.add(g)
        out.append(g)
    return out


def rename(f: tuple, mapping: dict) -> tuple:
    if f[0] == "var":
        return var(mapping.get(f[1], f[1]))
    if f[0] == "bot":
        return f
    return (f[0], rename(f[1], mapping), rename(f[2], mapping))


def quotas(shares: dict, total: int) -> dict:
    """Whole counts summing to `total` in proportion to `shares`, by
    largest remainder."""
    scale = total / sum(shares.values())
    exact = {k: v * scale for k, v in shares.items()}
    out = {k: int(x) for k, x in exact.items()}
    short = total - sum(out.values())
    for k in sorted(exact, key=lambda k: (out[k] - exact[k], k))[:short]:
        out[k] += 1
    return out


# --- truth tables -----------------------------------------------------------------


def classical_value(f: tuple, env: dict) -> bool:
    tag = f[0]
    if tag == "var":
        return env[f[1]]
    if tag == "bot":
        return False
    if tag == "and":
        return classical_value(f[1], env) and classical_value(f[2], env)
    if tag == "or":
        return classical_value(f[1], env) or classical_value(f[2], env)
    return (not classical_value(f[1], env)) or classical_value(f[2], env)


def tautology(f: tuple) -> bool:
    names = sorted(variables(f))
    return all(classical_value(f, dict(zip(names, values)))
               for values in itertools.product((False, True), repeat=len(names)))


# --- Kripke models ------------------------------------------------------------------


class Model:
    """A finite intuitionistic Kripke model: `up[w]` is the set of worlds
    w sees (reflexive, transitive), `val[x]` an upward-closed set."""

    def __init__(self, n: int, up: list, val: dict):
        self.n = n
        self.up = up
        self.val = val


def _closure(n: int, pairs) -> list:
    up = [{i} for i in range(n)]
    for i, j in pairs:
        up[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = set().union(*(up[j] for j in up[i]))
            if grown != up[i]:
                up[i] = grown
                changed = True
    return up


def parse_model(text: str) -> Model:
    """Read the documented model-file format (`mode int`, `worlds n`,
    `rel i j`, `val x w...`), closing the relation reflexively and
    transitively and each valuation upward."""
    n = None
    pairs = []
    val: dict[str, set] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] == "mode":
            if line[1:] != ["int"]:
                raise ValueError("only int-mode models are read")
        elif line[0] == "worlds":
            n = int(line[1])
        elif line[0] == "rel":
            pairs.append((int(line[1]), int(line[2])))
        elif line[0] == "val":
            val.setdefault(line[1], set()).update(int(w) for w in line[2:])
        else:
            raise ValueError(f"unknown model directive {line[0]!r}")
    if n is None:
        raise ValueError("model file has no worlds line")
    up = _closure(n, pairs)
    closed = {x: set().union(*(up[w] for w in ws)) if ws else set()
              for x, ws in val.items()}
    return Model(n, up, closed)


def forces(model: Model, w: int, f: tuple) -> bool:
    tag = f[0]
    if tag == "var":
        return w in model.val.get(f[1], ())
    if tag == "bot":
        return False
    if tag == "and":
        return forces(model, w, f[1]) and forces(model, w, f[2])
    if tag == "or":
        return forces(model, w, f[1]) or forces(model, w, f[2])
    return all(not forces(model, v, f[1]) or forces(model, v, f[2])
               for v in model.up[w])


def refutes(model: Model, f: tuple) -> bool:
    """True iff some world of the model does not force `f`."""
    return any(not forces(model, w, f) for w in range(model.n))


# --- rooted posets -------------------------------------------------------------------


class Poset:
    """A rooted partial order on 0..n-1 with root 0: `up[w]` is the set of
    worlds at or above w."""

    def __init__(self, n: int, up: Sequence[frozenset]):
        self.n = n
        self.up = tuple(up)


def rooted_posets(max_worlds: int) -> list:
    """Every rooted poset of 1..max_worlds worlds, one per isomorphism class,
    ordered by size and then by canonical form."""
    out = []
    for n in range(1, max_worlds + 1):
        classes = {}
        pairs = [(i, j) for i in range(1, n) for j in range(1, n) if i < j]
        for picks in itertools.product((False, True), repeat=len(pairs)):
            up = [{i} for i in range(n)]
            up[0] = set(range(n))
            for (i, j), picked in zip(pairs, picks):
                if picked:
                    up[i].add(j)
            if any(not up[j] <= up[i] for i in range(n) for j in up[i]):
                continue            # not transitive; the closed form is met elsewhere
            classes.setdefault(_canonical(n, up), None)
        out.extend(Poset(n, [frozenset(r) for r in key]) for key in sorted(classes))
    return out


def _canonical(n: int, up: list) -> tuple:
    best = None
    for perm in itertools.permutations(range(1, n)):
        where = (0,) + perm
        rows = [None] * n
        for i in range(n):
            rows[where[i]] = tuple(sorted(where[j] for j in up[i]))
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


def p_morphic_image(g: Poset, f: Poset) -> bool:
    """True iff f is a p-morphic image of a generated subframe of g.

    f is rooted, so a p-morphism from an upset of g onto f restricts to one
    from the cone of any world mapped to f's root; it is enough to try each
    cone of g, mapping its least world to f's root, and to backtrack over
    the rest from larger cones to smaller, so that each world comes after
    the worlds below it.
    """
    for u in range(g.n):
        if len(g.up[u]) < f.n:
            continue
        order = sorted(g.up[u], key=lambda w: (-len(g.up[w]), w))
        if _assign(g, f, order, {}, 0):
            return True
    return False


def _assign(g: Poset, f: Poset, order: list, h: dict, at: int) -> bool:
    if at == len(order):
        if set(h.values()) != set(range(f.n)):
            return False
        for w, image in h.items():
            reached = {h[v] for v in g.up[w]}
            if reached != set(f.up[image]):      # forth and back at once
                return False
        return True
    w = order[at]
    below = [v for v in order[:at] if w in g.up[v]]
    choices = range(f.n) if at else (0,)
    for image in choices:
        if all(image in f.up[h[v]] for v in below):
            h[w] = image
            if _assign(g, f, order, h, at + 1):
                return True
            del h[w]
    return False


def last_statement(script: str) -> Optional[tuple]:
    """(sign, formula) of the final step of a proof script, or None."""
    steps = [line for line in script.splitlines()
             if line.strip() and line.split()[0].isdigit()]
    if not steps:
        return None
    head = steps[-1].split(";", 1)[0].split(None, 2)
    return head[1], parse(head[2])
