"""Finite Kripke frames and models: forcing, statement validity, frame
validity by exhaustive valuation enumeration, adequacy checks, tabular
membership oracles, rooted-poset enumeration, and p-morphic reducibility.

Sets of worlds are bitmasks throughout; truth sets are computed bottom-up for
the whole model at once, so a formula is evaluated in one pass regardless of
how many worlds ask about it.

Frame/model file format:

    mode int|k4
    worlds <n>
    rel <i> <j>        # repeated; int mode: reflexive-transitive closure
    val <var> <i> ...  # optional; int mode: upward closure applied
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .formulas import (
    And,
    Bottom,
    Box,
    Formula,
    Implies,
    Mode,
    Or,
    ParseError,
    Var,
    check_mode,
    file_lines,
    variables,
)
from .kernel import DeductiveSystem, Sign, Statement


class ResourceBoundError(Exception):
    """The requested check exceeds the configured enumeration budget."""


@dataclass(frozen=True)
class Budget:
    """Hard limits for exhaustive valuation enumeration."""

    max_worlds: int = 8
    max_vars: int = 3


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Frame:
    """Worlds 0..n-1 with the accessibility relation stored row-wise as
    bitmasks: bit j of rel[i] means i sees j.  In int mode the relation is a
    partial order (and rows include the diagonal)."""

    mode: Mode
    n: int
    rel: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.rel) != self.n:
            raise ValueError("relation size does not match world count")
        full = (1 << self.n) - 1
        for row in self.rel:
            if row & ~full:
                raise ValueError("relation mentions worlds out of range")
        for i in range(self.n):
            for j in _bits(self.rel[i]):
                if self.rel[j] & ~self.rel[i]:
                    raise ValueError("relation is not transitive")
        if self.mode is Mode.INT:
            for i in range(self.n):
                if not self.rel[i] & (1 << i):
                    raise ValueError("int-mode relation must be reflexive")
                for j in _bits(self.rel[i]):
                    if j != i and self.rel[j] & (1 << i):
                        raise ValueError("int-mode relation must be antisymmetric")

    def full_mask(self) -> int:
        return (1 << self.n) - 1


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def frame_from_pairs(mode: Mode, n: int, pairs: Iterable[tuple[int, int]]) -> Frame:
    """Build a frame from raw edges, applying the closure the mode needs:
    reflexive-transitive in int mode, transitive in k4 mode."""
    rel = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range")
        rel[i] |= 1 << j
    if mode is Mode.INT:
        for i in range(n):
            rel[i] |= 1 << i
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rel[i]
            for j in _bits(rel[i]):
                acc |= rel[j]
            if acc != rel[i]:
                rel[i] = acc
                changed = True
    return Frame(mode, n, tuple(rel))


def chain_frame(n: int, mode: Mode = Mode.INT) -> Frame:
    """The n-element chain 0 < 1 < ... < n-1."""
    return frame_from_pairs(mode, n, [(i, i + 1) for i in range(n - 1)])


def point_frame(mode: Mode = Mode.INT, reflexive: bool = True) -> Frame:
    pairs = [(0, 0)] if reflexive else []
    return frame_from_pairs(mode, 1, pairs)


@dataclass(frozen=True)
class KripkeModel:
    frame: Frame
    valuation: tuple[tuple[str, int], ...]

    @staticmethod
    def of(frame: Frame, valuation: Mapping[str, int]) -> "KripkeModel":
        closed: dict[str, int] = {}
        for name, mask in valuation.items():
            if mask & ~frame.full_mask():
                raise ValueError(f"valuation of {name} mentions missing worlds")
            if frame.mode is Mode.INT:
                mask = _upward_closure(frame, mask)
            closed[name] = mask
        return KripkeModel(frame, tuple(sorted(closed.items())))

    def var_mask(self, name: str) -> int:
        for var, mask in self.valuation:
            if var == name:
                return mask
        return 0


def _upward_closure(frame: Frame, mask: int) -> int:
    out = 0
    for w in _bits(mask):
        out |= frame.rel[w]
    return out | mask


def truth_mask(model: KripkeModel, a: Formula) -> int:
    """Bitmask of worlds forcing `a`; int mode uses intuitionistic clauses,
    k4 mode classical-at-a-world clauses with box over successors."""
    frame = model.frame
    full = frame.full_mask()
    intuitionistic = frame.mode is Mode.INT
    memo: dict[int, int] = {}

    def down_closure(mask: int) -> int:
        out = 0
        for w in range(frame.n):
            if frame.rel[w] & mask:
                out |= 1 << w
        return out

    def go(f: Formula) -> int:
        key = id(f)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, Var):
            result = model.var_mask(f.name)
        elif isinstance(f, Bottom):
            result = 0
        elif isinstance(f, And):
            result = go(f.left) & go(f.right)
        elif isinstance(f, Or):
            result = go(f.left) | go(f.right)
        elif isinstance(f, Implies):
            bad = go(f.left) & ~go(f.right)
            if intuitionistic:
                result = full & ~down_closure(bad)
            else:
                result = full & ~bad
        elif isinstance(f, Box):
            inner = go(f.inner)
            result = 0
            for w in range(frame.n):
                if not (frame.rel[w] & ~inner):
                    result |= 1 << w
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = result
        return result

    check_mode(a, frame.mode)
    return go(a)


def forces(model: KripkeModel, w: int, a: Formula) -> bool:
    if not 0 <= w < model.frame.n:
        raise ValueError(f"world {w} out of range")
    return bool(truth_mask(model, a) & (1 << w))


def model_validates(model: KripkeModel, statement: Statement) -> bool:
    """Eq-style statement validity: an assertion holds when the formula is
    forced everywhere, a rejection when it is not."""
    everywhere = truth_mask(model, statement.formula) == model.frame.full_mask()
    return everywhere if statement.sign is Sign.ASSERT else not everywhere


@lru_cache(maxsize=None)
def _admissible_sets(frame: Frame) -> tuple[int, ...]:
    """All upsets in int mode, all subsets in k4 mode."""
    full = frame.full_mask()
    if frame.mode is not Mode.INT:
        return tuple(range(full + 1))
    out = []
    for mask in range(full + 1):
        if _upward_closure(frame, mask) == mask:
            out.append(mask)
    return tuple(out)


def frame_valid(frame: Frame, a: Formula, budget: Budget = DEFAULT_BUDGET) -> bool:
    """True iff `a` is forced at every world under every admissible valuation
    of its variables.  Decided by exhaustive enumeration within `budget`."""
    return falsifying_model(frame, a, budget) is None


def falsifying_model(frame: Frame, a: Formula,
                     budget: Budget = DEFAULT_BUDGET) -> Optional[KripkeModel]:
    """A model on `frame` where `a` fails somewhere, or None if frame-valid."""
    check_mode(a, frame.mode)
    names = sorted(variables(a))
    if frame.n > budget.max_worlds:
        raise ResourceBoundError(
            f"frame has {frame.n} worlds, budget allows {budget.max_worlds}")
    if len(names) > budget.max_vars:
        raise ResourceBoundError(
            f"formula has {len(names)} variables, budget allows {budget.max_vars}")
    full = frame.full_mask()
    for choice in itertools.product(_admissible_sets(frame), repeat=len(names)):
        model = KripkeModel(frame, tuple(zip(names, choice)))
        if truth_mask(model, a) != full:
            return model
    return None


def frame_validates(frame: Frame, statement: Statement,
                    budget: Budget = DEFAULT_BUDGET) -> bool:
    """Statement validity with the frame standing for its whole model class:
    assertions must be frame-valid, rejections must not be."""
    valid = frame_valid(frame, statement.formula, budget)
    return valid if statement.sign is Sign.ASSERT else not valid


def check_adequacy(frame: Frame,
                   ds: DeductiveSystem,
                   budget: Budget = DEFAULT_BUDGET) -> bool:
    """True iff every positive axiom of `ds` is valid and every anti-axiom
    invalid in the frame.  Rule soundness then extends this to every
    derivable statement."""
    if frame.mode is not ds.mode:
        raise ValueError("frame and system modes differ")
    positive_ok = all(frame_valid(frame, a, budget) for a in ds.positive_axioms())
    negative_ok = all(not frame_valid(frame, a, budget) for a in ds.anti_axioms)
    return positive_ok and negative_ok


def tabular_oracle(frames: Sequence[Frame],
                   budget: Budget = DEFAULT_BUDGET) -> Callable[[Formula], bool]:
    """Membership predicate of the logic of `frames`: true iff frame-valid on
    every listed frame."""
    if not frames:
        raise ValueError("tabular oracle needs at least one frame")
    modes = {f.mode for f in frames}
    if len(modes) != 1:
        raise ValueError("tabular oracle frames must share a mode")

    def member(a: Formula) -> bool:
        return all(frame_valid(f, a, budget) for f in frames)

    return member


# --- poset enumeration and p-morphisms -------------------------------------


def _canonical_key(n: int, rel: Sequence[int]) -> tuple[int, ...]:
    best: Optional[tuple[int, ...]] = None
    for perm in itertools.permutations(range(n)):
        rows = [0] * n
        for i in range(n):
            for j in _bits(rel[i]):
                rows[perm[i]] |= 1 << perm[j]
        key = tuple(rows)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def _posets_on(n: int) -> list[tuple[int, ...]]:
    """All partial orders on n labeled points, one representative per
    isomorphism class, as reflexive bitmask rows."""
    if n == 0:
        return [()]
    diagonal = [1 << i for i in range(n)]
    off_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for picks in itertools.product((False, True), repeat=len(off_pairs)):
        rel = list(diagonal)
        for (i, j), picked in zip(off_pairs, picks):
            if picked:
                rel[i] |= 1 << j
        ok = True
        for i in range(n):
            if not ok:
                break
            for j in _bits(rel[i]):
                if rel[j] & ~rel[i] or (j != i and rel[j] & (1 << i)):
                    ok = False
                    break
        if not ok:
            continue
        key = _canonical_key(n, rel)
        if key not in seen:
            seen.add(key)
            out.append(key)
    out.sort()
    return out


@lru_cache(maxsize=None)
def enumerate_rooted_posets(max_worlds: int, mode: Mode = Mode.INT) -> tuple[Frame, ...]:
    """All rooted posets with 1..max_worlds points, one per isomorphism
    class, in a deterministic (size, canonical form) order.  Cached: every
    call with the same arguments returns the same tuple."""
    if mode is not Mode.INT:
        raise ValueError("rooted poset enumeration is int-mode machinery")
    if max_worlds > 5:
        raise ResourceBoundError("rooted poset enumeration is budgeted to 5 worlds")
    frames = []
    for n in range(1, max_worlds + 1):
        for inner in _posets_on(n - 1):
            rel = [(1 << n) - 1]          # fresh root sees everything
            for row in inner:
                rel.append(row << 1)      # shift the old points past the root
            frames.append(Frame(Mode.INT, n, _canonical_key(n, rel)))
    frames.sort(key=lambda f: (f.n, f.rel))
    return tuple(frames)


def root_of(frame: Frame) -> Optional[int]:
    """The least element, if the poset has one."""
    for w in range(frame.n):
        if frame.rel[w] == frame.full_mask():
            return w
    return None


def _upsets_of(frame: Frame) -> list[int]:
    return [m for m in _admissible_sets(frame) if m]


def p_morphic_reduct_exists(g: Frame, f: Frame) -> bool:
    """True iff some generated subframe of g maps onto f by a surjective
    p-morphism.  Exhaustive search over upsets and maps; desk scale only."""
    if g.mode is not Mode.INT or f.mode is not Mode.INT:
        raise ValueError("p-morphic reducibility is int-mode machinery")
    if g.n > 6 or f.n > 6:
        raise ResourceBoundError("p-morphism search is budgeted to 6 worlds")
    targets = list(range(f.n))
    full_f = f.full_mask()
    for upset in _upsets_of(g):
        domain = list(_bits(upset))
        if len(domain) < f.n:
            continue
        for assignment in itertools.product(targets, repeat=len(domain)):
            h = dict(zip(domain, assignment))
            image = 0
            for v in assignment:
                image |= 1 << v
            if image != full_f:
                continue
            ok = True
            for u in domain:
                hu = h[u]
                seen = 0
                for v in _bits(g.rel[u] & upset):
                    hv = h[v]
                    if not f.rel[hu] & (1 << hv):   # order-preserving
                        ok = False
                        break
                    seen |= 1 << hv
                if not ok:
                    break
                if f.rel[hu] & ~seen:               # back condition
                    ok = False
                    break
            if ok:
                return True
    return False


# --- file I/O ----------------------------------------------------------------


def parse_frame_file(text: str) -> Frame:
    frame, _ = _parse_frame_lines(text)
    return frame


def parse_model_file(text: str) -> KripkeModel:
    frame, valuation = _parse_frame_lines(text)
    return KripkeModel.of(frame, valuation)


def _parse_frame_lines(text: str) -> tuple[Frame, dict[str, int]]:
    mode: Optional[Mode] = None
    n: Optional[int] = None
    # world indices with the number of the line that names them, checked
    # against `n` once the file is read, since `worlds` may come later
    edges: list[tuple[int, int, int]] = []
    marks: list[tuple[int, str, list[int]]] = []
    try:
        for number, line in file_lines(text):
            parts = line.split()
            if parts[0] == "mode":
                if len(parts) != 2 or parts[1] not in ("int", "k4"):
                    raise ParseError("mode line must be 'mode int' or 'mode k4'")
                mode = Mode(parts[1])
            elif parts[0] == "worlds":
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise ParseError("worlds line must be 'worlds <n>'")
                n = int(parts[1])
            elif parts[0] == "rel":
                if len(parts) != 3 or not parts[1].isdecimal() or not parts[2].isdecimal():
                    raise ParseError("rel line must be 'rel <i> <j>'")
                edges.append((number, int(parts[1]), int(parts[2])))
            elif parts[0] == "val":
                if len(parts) < 2:
                    raise ParseError("val line must be 'val <var> <worlds...>'")
                for tok in parts[2:]:
                    if not tok.isdecimal():
                        raise ParseError(f"bad world index {tok!r}")
                marks.append((number, parts[1], [int(tok) for tok in parts[2:]]))
            else:
                raise ParseError(f"unknown directive {parts[0]!r}")
    except ParseError as exc:
        raise exc.on_line(number) from None
    if mode is None or n is None:
        raise ParseError("frame file needs 'mode' and 'worlds' lines")
    for number, i, j in edges:
        if i >= n or j >= n:
            raise ParseError(f"edge ({i},{j}) out of range", line=number)
    valuation: dict[str, int] = {}
    for number, name, worlds in marks:
        if any(w >= n for w in worlds):
            raise ParseError(f"valuation of {name} mentions missing worlds", line=number)
        mask = valuation.get(name, 0)
        for w in worlds:
            mask |= 1 << w
        valuation[name] = mask
    return frame_from_pairs(mode, n, [(i, j) for _, i, j in edges]), valuation


def render_frame_file(frame: Frame) -> str:
    lines = [f"mode {frame.mode}", f"worlds {frame.n}"]
    for i in range(frame.n):
        for j in _bits(frame.rel[i]):
            lines.append(f"rel {i} {j}")
    return "\n".join(lines) + "\n"


def render_model_file(model: KripkeModel) -> str:
    out = render_frame_file(model.frame)
    lines = []
    for name, mask in model.valuation:
        worlds = " ".join(str(w) for w in _bits(mask))
        lines.append(f"val {name} {worlds}".rstrip())
    return out + ("\n".join(lines) + "\n" if lines else "")
