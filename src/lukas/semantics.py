"""Finite Kripke frames and models: forcing, statement validity, frame
validity by exhaustive valuation enumeration, adequacy checks, tabular
membership oracles, rooted posets grown point by point, and p-morphisms.

Sets of worlds are bitmasks throughout.  A formula is evaluated bottom-up
over the bits of one int, a lane per (valuation, world) pair, so frame
validity takes a chunk of valuations in each pass; a model is the
one-valuation case.

Frame/model file format:

    mode int|k4
    worlds <n>
    rel <i> <j>        # repeated; int mode: reflexive-transitive closure
    val <var> <i> ...  # optional; int mode: upward closure applied
"""

from __future__ import annotations

import itertools
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
    Record,
    Var,
    check_mode,
    file_lines,
    is_variable_name,
)
from .kernel import DeductiveSystem, Sign, Statement


class ResourceBoundError(Exception):
    """The requested check exceeds a size or work bound.  One found while
    reading a file carries the 1-based `line`."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"{message} (at line {line})")
        self.message, self.line = message, line


class Frame(Record):
    """Worlds 0..n-1 with the accessibility relation stored row-wise as
    bitmasks: bit j of rel[i] means i sees j.  The relation is transitive,
    and in int mode a partial order (so rows include the diagonal).  These
    invariants are not checked here: every frame comes from
    `frame_from_pairs`, which closes and checks a relation, or from
    `rooted_posets`, whose rows are canonical posets."""

    __slots__ = ("mode", "n", "rel")
    mode: Mode
    n: int
    rel: tuple[int, ...]

    def full_mask(self) -> int:
        return (1 << self.n) - 1


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def frame_from_pairs(mode: Mode, n: int, pairs: Iterable[tuple[int, int]]) -> Frame:
    """Build a frame from raw edges, applying the closure the mode needs:
    reflexive-transitive in int mode, transitive in k4 mode.  The closure is
    Warshall's: one pass over the worlds k, each joining rel[k] into the
    rows of the worlds that see k.  An int-mode cycle is a ValueError."""
    rel = [0] * n
    sees = [0] * n          # sees[k]: the worlds other than k known to see k
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range")
        rel[i] |= 1 << j
        if i != j:
            sees[j] |= 1 << i
    if mode is Mode.INT:
        for i in range(n):
            rel[i] |= 1 << i
    for k in range(n):
        row, into = rel[k], sees[k]
        for i in _bits(into):
            rel[i] |= row
        for j in _bits(row):
            sees[j] |= into
    # i, or a world that i sees, lands in sees[i] only on a cycle through i
    if mode is Mode.INT and any(rel[i] & sees[i] for i in range(n)):
        raise ValueError("int-mode relation must be antisymmetric")
    return Frame(mode, n, tuple(rel))


def chain_frame(n: int) -> Frame:
    """The n-element int-mode chain 0 < 1 < ... < n-1."""
    return frame_from_pairs(Mode.INT, n, [(i, i + 1) for i in range(n - 1)])


def point_frame() -> Frame:
    """The one-point int-mode frame, the classical truth table."""
    return frame_from_pairs(Mode.INT, 1, [])


class KripkeModel(Record):
    __slots__ = ("frame", "valuation")
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


#: Lanes (valuation, world) that `falsifying_model` evaluates at once.
_LANES = 1 << 12


def _repeat(block: int, width: int, count: int) -> int:
    """`count` copies of the `width`-bit `block`, copy i at bit i * width."""
    return block * (((1 << width * count) - 1) // ((1 << width) - 1))


def _offsets(frame: Frame) -> dict[int, int]:
    """For each offset d = u - w of an edge w -> u, the worlds w with such
    an edge."""
    masks: dict[int, int] = {}
    for w in range(frame.n):
        for u in _bits(frame.rel[w]):
            masks[u - w] = masks.get(u - w, 0) | 1 << w
    return masks


def _program(a: Formula) -> tuple[list[tuple[type, object, int]], list[str]]:
    """`a` as straight-line code, its distinct subformulas each after its
    operands as (class, left slot or variable name, right slot), and its
    variables, sorted."""
    slots: dict[int, int] = {}
    code: list[tuple[type, object, int]] = []
    names: list[str] = []

    def go(f: Formula) -> int:
        slot = slots.get(id(f))
        if slot is None:
            kind = type(f)
            if kind is Var:
                names.append(f.name)
                step = (Var, f.name, 0)
            elif kind is Box:
                step = (Box, go(f.inner), 0)
            elif kind is Bottom:
                step = (Bottom, 0, 0)
            else:
                step = (kind, go(f.left), go(f.right))
            slots[id(f)] = slot = len(code)
            code.append(step)
        return slot

    go(a)
    return code, sorted(names)


def _run(code: Sequence[tuple[type, object, int]], intuitionistic: bool, full: int,
         offsets: Sequence[tuple[int, int]], var_lanes: Mapping[str, int]) -> int:
    """The lanes of `full` that force the formula `code` computes, with each
    variable true on its `var_lanes`.  Lane w of each block of n lanes is
    world w of one model; `offsets` holds, for each edge offset d, the
    lanes whose world has an edge to the world d lanes on."""

    def sees(mask: int) -> int:
        out = 0
        for d, lanes in offsets:
            out |= (mask >> d if d >= 0 else mask << -d) & lanes
        return out

    values: list[int] = []
    for kind, x, y in code:
        if kind is And:
            value = values[x] & values[y]
        elif kind is Or:
            value = values[x] | values[y]
        elif kind is Implies:
            bad = values[x] & ~values[y]
            value = full & ~(sees(bad) if intuitionistic else bad)
        elif kind is Var:
            value = var_lanes.get(x, 0)
        elif kind is Box:
            value = full & ~sees(full & ~values[x])
        else:
            value = 0
        values.append(value)
    return values[-1]


def truth_mask(model: KripkeModel, a: Formula) -> int:
    """Bitmask of worlds forcing `a`; int mode uses intuitionistic clauses,
    k4 mode classical-at-a-world clauses with box over successors."""
    frame = model.frame
    check_mode(a, frame.mode)
    return _run(_program(a)[0], frame.mode is Mode.INT, frame.full_mask(),
                list(_offsets(frame).items()), dict(model.valuation))


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


def frame_valid(frame: Frame, a: Formula) -> bool:
    """True iff `a` is forced at every world under every admissible valuation
    of its variables.  Decided by exhaustive enumeration."""
    return falsifying_model(frame, a) is None


#: The most lane steps, (world, valuation) lanes times program steps, that
#: one `falsifying_model` call may evaluate.  Apart from the tests of this
#: bound, the test suite needs at most 787,320 (30 steps over 4 variables
#: on a 4-world poset with 9 upsets; the most lanes, 73,205, are 4
#: variables on a 5-world poset with 11 upsets), the benchmark items at
#: most 56,250.  Near the cap, on a 2-vCPU host, a valid formula took
#: 0.16-0.33 s on the 8-world antichain, whose chunks hold 2,048 lanes, and
#: 1.6-5 s on an 8-world poset with 25 upsets, whose chunks hold 200.
_MAX_WORK = 10 ** 9


def falsifying_model(frame: Frame, a: Formula) -> Optional[KripkeModel]:
    """A model on `frame` where `a` fails somewhere, or None if frame-valid:
    the first in `itertools.product` order over the admissible sets of the
    sorted variables.  The valuations are evaluated a chunk at a time, one
    block of lanes each: the last `inner` variables run through all their
    values within a chunk, and the others are fixed in it.  Work over
    `_MAX_WORK` is a ResourceBoundError, raised before any is done."""
    check_mode(a, frame.mode)
    code, names = _program(a)
    n = frame.n
    if n == 0:
        return None
    sets = _admissible_sets(frame)
    m = len(sets)
    work = n * m ** len(names) * len(code)
    if work > _MAX_WORK:
        raise ResourceBoundError(
            f"enumeration of {n} worlds x {m}^{len(names)} valuations x {len(code)} "
            f"steps = {work:,} lane steps is over the enumeration budget of {_MAX_WORK:,}")
    inner = 0
    while inner < len(names) and m ** (inner + 1) * n <= _LANES:
        inner += 1
    outer = len(names) - inner
    blocks = m ** inner
    full = _repeat(frame.full_mask(), n, blocks)
    ones = _repeat(1, n, blocks)
    offsets = [(d, worlds * ones) for d, worlds in _offsets(frame).items()]
    patterns = {}
    for i, name in enumerate(names[outer:]):
        stride = m ** (inner - 1 - i)       # blocks per value
        run = sum(_repeat(s, n, stride) << d * stride * n for d, s in enumerate(sets))
        patterns[name] = _repeat(run, m * stride * n, m ** i)
    intuitionistic = frame.mode is Mode.INT
    for fixed in itertools.product(range(m), repeat=outer):
        var_lanes = dict(patterns)
        for name, d in zip(names, fixed):
            var_lanes[name] = sets[d] * ones
        failed = full & ~_run(code, intuitionistic, full, offsets, var_lanes)
        if failed:
            block = ((failed & -failed).bit_length() - 1) // n
            digits = fixed + tuple(block // m ** (inner - 1 - i) % m for i in range(inner))
            return KripkeModel(frame, tuple((name, sets[d]) for name, d in zip(names, digits)))
    return None


def check_adequacy(frame: Frame, ds: DeductiveSystem) -> bool:
    """True iff every positive axiom of `ds` is valid and every anti-axiom
    invalid in the frame.  Rule soundness then extends this to every
    derivable statement."""
    if frame.mode is not ds.mode:
        raise ValueError("frame and system modes differ")
    positive_ok = all(frame_valid(frame, a) for a in ds.positive_axioms())
    negative_ok = all(not frame_valid(frame, a) for a in ds.anti_axioms)
    return positive_ok and negative_ok


def tabular_oracle(frames: Sequence[Frame]) -> Callable[[Formula], bool]:
    """Membership predicate of the logic of `frames`: true iff frame-valid on
    every listed frame."""
    if not frames:
        raise ValueError("tabular oracle needs at least one frame")
    modes = {f.mode for f in frames}
    if len(modes) != 1:
        raise ValueError("tabular oracle frames must share a mode")

    def member(a: Formula) -> bool:
        return all(frame_valid(f, a) for f in frames)

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


MAX_POSET_WORLDS = 5        # the largest posets `rooted_posets` makes


@lru_cache(maxsize=None)
def rooted_posets(n: int) -> tuple[Frame, ...]:
    """All rooted posets with exactly n points, one per isomorphism class,
    in canonical-form order: those of size n - 1, each with a new maximal
    point above each nonempty down-set, since deleting a maximal non-root
    point leaves a rooted poset.  Cached per size, so a caller that stops
    at a small size never builds the larger ones."""
    if n > MAX_POSET_WORLDS:
        raise ResourceBoundError(f"rooted poset enumeration is budgeted to {MAX_POSET_WORLDS} worlds")
    if n < 1:
        return ()
    if n == 1:
        return (Frame(Mode.INT, 1, (1,)),)
    top = 1 << (n - 1)
    keys = set()
    for frame in rooted_posets(n - 1):
        for down in range(1, top):     # down-closed: no world outside sees into it
            if not any(frame.rel[w] & down for w in _bits(~down & (top - 1))):
                rows = [row | top if down >> w & 1 else row for w, row in enumerate(frame.rel)]
                keys.add(_canonical_key(n, rows + [top]))
    return tuple(Frame(Mode.INT, n, key) for key in sorted(keys))


@lru_cache(maxsize=None)
def enumerate_rooted_posets(max_worlds: int) -> tuple[Frame, ...]:
    """All rooted posets with 1..max_worlds points, one per isomorphism
    class, in a deterministic (size, canonical form) order: the
    `rooted_posets` of each size in turn.  Cached: every call with the same
    bound returns the same tuple."""
    return tuple(f for n in range(1, max_worlds + 1) for f in rooted_posets(n))


def root_of(frame: Frame) -> Optional[int]:
    """The least element, if the poset has one."""
    for w in range(frame.n):
        if frame.rel[w] == frame.full_mask():
            return w
    return None


def p_morphic_reduct_exists(g: Frame, f: Frame) -> bool:
    """True iff some generated subframe of g maps onto f by a surjective
    p-morphism.  Exhaustive search over upsets and maps; desk scale only."""
    if g.mode is not Mode.INT or f.mode is not Mode.INT:
        raise ValueError("p-morphic reducibility is int-mode machinery")
    if g.n > 6 or f.n > 6:
        raise ResourceBoundError("p-morphism search is budgeted to 6 worlds")
    targets = list(range(f.n))
    full_f = f.full_mask()
    for upset in _admissible_sets(g)[1:]:      # the nonempty upsets
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


def parse_frame_file(text: str, max_worlds: Optional[int] = None) -> Frame:
    """The frame of a frame file; with `max_worlds`, a larger `worlds` count
    is a ResourceBoundError on its line, raised before any world is built."""
    frame, _ = _parse_frame_lines(text, max_worlds)
    return frame


def parse_model_file(text: str) -> KripkeModel:
    frame, valuation = _parse_frame_lines(text)
    return KripkeModel.of(frame, valuation)


def _parse_frame_lines(text: str,
                       max_worlds: Optional[int] = None) -> tuple[Frame, dict[str, int]]:
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
                if max_worlds is not None and n > max_worlds:
                    raise ResourceBoundError(
                        f"frame has {n} worlds, budget allows {max_worlds}", line=number)
            elif parts[0] == "rel":
                if len(parts) != 3 or not parts[1].isdecimal() or not parts[2].isdecimal():
                    raise ParseError("rel line must be 'rel <i> <j>'")
                edges.append((number, int(parts[1]), int(parts[2])))
            elif parts[0] == "val":
                if len(parts) < 2:
                    raise ParseError("val line must be 'val <var> <worlds...>'")
                if not is_variable_name(parts[1]):
                    raise ParseError(f"bad variable name {parts[1]!r}")
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
    pairs = [(i, j) for _, i, j in edges]
    try:
        return frame_from_pairs(mode, n, pairs), valuation
    except ValueError as exc:       # an int-mode cycle: name the first edge on one
        closed = frame_from_pairs(Mode.K4, n, pairs).rel
        line = next(number for number, i, j in edges if i != j and closed[j] >> i & 1)
        raise ParseError(str(exc), line=line) from None


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
