import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import formula_strategy, frame_validates
from generators import random_mixed_inference
from lukas.formulas import (
    And,
    Bottom,
    Box,
    Implies,
    Mode,
    Or,
    ParseError,
    Var,
    parse_formula,
    variables,
)
from lukas import semantics
from lukas.kernel import asserts, rejects, system
from lukas.semantics import (
    KripkeModel,
    ResourceBoundError,
    chain_frame,
    check_adequacy,
    enumerate_rooted_posets,
    falsifying_model,
    forces,
    frame_from_pairs,
    frame_valid,
    model_validates,
    p_morphic_reduct_exists,
    parse_frame_file,
    parse_model_file,
    point_frame,
    render_frame_file,
    render_model_file,
    root_of,
    tabular_oracle,
    truth_mask,
)


def brute_forces(model, w, f):
    """Independent recursive forcing oracle, no bitmasks."""
    frame = model.frame
    succ = [v for v in range(frame.n) if frame.rel[w] & (1 << v)]
    if isinstance(f, Var):
        return bool(model.var_mask(f.name) & (1 << w))
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return brute_forces(model, w, f.left) and brute_forces(model, w, f.right)
    if isinstance(f, Or):
        return brute_forces(model, w, f.left) or brute_forces(model, w, f.right)
    if isinstance(f, Implies):
        if frame.mode is Mode.INT:
            return all(not brute_forces(model, v, f.left) or brute_forces(model, v, f.right)
                       for v in succ)
        return not brute_forces(model, w, f.left) or brute_forces(model, w, f.right)
    if isinstance(f, Box):
        return all(brute_forces(model, v, f.inner) for v in succ)
    raise TypeError(f)


def two_chain_model():
    return KripkeModel.of(chain_frame(2), {"p": 0b10})


def test_forces_two_chain_double_negation():
    m = two_chain_model()
    assert forces(m, 0, parse_formula("~~p"))
    assert not forces(m, 0, parse_formula("p"))
    assert not forces(m, 0, parse_formula("~~p -> p"))


def test_single_world_is_classical():
    m = KripkeModel.of(point_frame(), {"p": 0})
    assert forces(m, 0, parse_formula("p | ~p"))
    m2 = KripkeModel.of(point_frame(), {"p": 1})
    assert forces(m2, 0, parse_formula("p | ~p"))


def test_box_on_irreflexive_point():
    frame = frame_from_pairs(Mode.K4, 1, [])
    m = KripkeModel.of(frame, {})
    assert forces(m, 0, parse_formula("[]bot", Mode.K4))


def test_model_validates_dichotomy_examples():
    m = two_chain_model()
    assert model_validates(m, asserts(parse_formula("p -> p")))
    assert model_validates(m, rejects(parse_formula("~~p -> p")))


@given(formula_strategy(names=("p", "q"), max_depth=3), st.integers(0, 2))
def test_validity_dichotomy(f, seed):
    rng = random.Random(seed)
    frame = chain_frame(rng.randrange(1, 4))
    masks = {n: rng.randrange(1 << frame.n) for n in variables(f)}
    m = KripkeModel.of(frame, masks)
    assert model_validates(m, asserts(f)) != model_validates(m, rejects(f))


def test_int_valuations_upward_closed():
    m = KripkeModel.of(chain_frame(3), {"p": 0b010})
    assert m.var_mask("p") == 0b110


def test_frame_valid_examples():
    assert frame_valid(point_frame(), parse_formula("p | ~p"))
    # the three upsets of the 2-chain: {}, {1}, {0,1}
    assert not frame_valid(chain_frame(2), parse_formula("~~p -> p"))
    assert frame_valid(chain_frame(3), parse_formula("(p -> q) | (q -> p)"))
    assert not frame_valid(
        frame_from_pairs(Mode.INT, 3, [(0, 1), (0, 2)]),
        parse_formula("(p -> q) | (q -> p)"))


def test_frame_valid_budget(monkeypatch):
    """Enumeration is bounded by its work, worlds x valuations x program
    steps, not by the number of variables or worlds."""
    assert not frame_valid(chain_frame(2), parse_formula("(p & q & r) -> s"))
    assert frame_valid(point_frame(), parse_formula("a | b | c | d | e | f | g | h | i | ~a"))
    with pytest.raises(ResourceBoundError) as caught:
        frame_valid(frame_from_pairs(Mode.INT, 8, []), parse_formula("(a & b & c & d) -> a"))
    assert str(caught.value) == (
        "enumeration of 8 worlds x 256^4 valuations x 8 steps = 274,877,906,944 "
        "lane steps is over the enumeration budget of 1,000,000,000")
    # `p | q` on the 2-chain is 2 worlds x 3^2 valuations x 3 steps = 54
    monkeypatch.setattr(semantics, "_MAX_WORK", 54)
    assert not frame_valid(chain_frame(2), parse_formula("p | q"))
    monkeypatch.setattr(semantics, "_MAX_WORK", 53)
    with pytest.raises(ResourceBoundError, match=r"= 54 lane steps is over .* of 53$"):
        frame_valid(chain_frame(2), parse_formula("p | q"))


def test_frame_valid_agrees_with_brute_force():
    formulas = [parse_formula(t) for t in
                ["~~p -> p", "p | ~p", "(p -> q) | (q -> p)", "~p | ~~p",
                 "p -> (q -> p)", "((p -> q) -> p) -> p", "~(p & q)"]]
    for frame in enumerate_rooted_posets(4):
        sets = [m for m in range(1 << frame.n)
                if all(not (m & (1 << w)) or (frame.rel[w] & ~m) == 0
                       for w in range(frame.n))]
        for f in formulas:
            names = sorted(variables(f))
            expected = all(
                all(brute_forces(KripkeModel.of(frame, dict(zip(names, choice))), w, f)
                    for w in range(frame.n))
                for choice in itertools.product(sets, repeat=len(names)))
            assert frame_valid(frame, f) == expected


def admissible_sets(frame):
    """The upsets of an int-mode frame, every set of worlds of a k4 one, in
    increasing order."""
    return [m for m in range(1 << frame.n)
            if frame.mode is Mode.K4
            or all(not (m & (1 << w)) or (frame.rel[w] & ~m) == 0 for w in range(frame.n))]


def reference_falsifying_model(frame, f):
    """The first valuation, in `itertools.product` order over the sorted
    variables, whose `truth_mask` misses a world: one valuation at a time."""
    names = sorted(variables(f))
    for choice in itertools.product(admissible_sets(frame), repeat=len(names)):
        model = KripkeModel(frame, tuple(zip(names, choice)))
        if truth_mask(model, f) != frame.full_mask():
            return model
    return None


INT_TEXTS = ["~~p -> p", "p | ~p", "(p -> q) | (q -> p)", "~p | ~~p", "p -> (q -> p)",
             "((p -> q) -> p) -> p", "~(p & q) -> ~p | ~q", "(p -> q | r) -> (p -> q) | (p -> r)",
             "p & (q | r) -> (p & q) | r", "q -> p", "bot", "bot -> bot", "~bot", "~~bot -> bot"]

K4_TEXTS = ["[]p -> [][]p", "[]p -> p", "p -> []p", "[]bot", "~[]bot", "[]bot -> bot",
            "[]([]p -> p) -> []p", "[](p | q) -> []p | []q", "[](p -> q) -> ([]p -> []q)",
            "~[]p -> []~[]p", "p -> q"]


def test_falsifying_model_matches_the_one_valuation_enumerator():
    frames = list(enumerate_rooted_posets(4))
    formulas = [parse_formula(t) for t in INT_TEXTS]
    for frame in frames:
        for f in formulas:
            assert falsifying_model(frame, f) == reference_falsifying_model(frame, f)


def test_falsifying_model_matches_across_chunks():
    # 0 < 1, 0 < 2 < 3, 2 < 4: eight upsets, so four variables span many chunks
    frame = frame_from_pairs(Mode.INT, 5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    assert len(admissible_sets(frame)) ** 4 * frame.n > semantics._LANES
    for text in ["(p & q & r) -> s", "s -> p", "(p -> q) | (q -> r) | (r -> s)",
                 "(p & q & r & s) -> (s | p)", "~~s -> s", "((p -> q) -> r) -> s | ~s"]:
        f = parse_formula(text)
        assert falsifying_model(frame, f) == reference_falsifying_model(frame, f), text


def k4_frames():
    """Irreflexive worlds, dead ends, a cluster and a reflexive point."""
    return [frame_from_pairs(Mode.K4, n, pairs) for n, pairs in [
        (1, []), (1, [(0, 0)]), (2, [(0, 1)]), (3, [(0, 1), (1, 2)]),
        (3, [(0, 1), (0, 2), (1, 1)]), (3, [(0, 1), (1, 0), (1, 2)]),
        (4, [(0, 1), (0, 2), (2, 3), (3, 3)])]]


def test_falsifying_model_matches_on_k4_frames():
    formulas = [parse_formula(t, Mode.K4) for t in K4_TEXTS]
    for frame in k4_frames():
        for f in formulas:
            assert falsifying_model(frame, f) == reference_falsifying_model(frame, f)


def test_truth_mask_agrees_with_brute_force_on_k4_frames():
    formulas = [parse_formula(t, Mode.K4) for t in K4_TEXTS]
    for frame in k4_frames():
        for f in formulas:
            names = sorted(variables(f))
            for choice in itertools.product(admissible_sets(frame), repeat=len(names)):
                model = KripkeModel(frame, tuple(zip(names, choice)))
                expected = sum(1 << w for w in range(frame.n) if brute_forces(model, w, f))
                assert truth_mask(model, f) == expected


def test_zero_world_frames_validate_everything():
    for mode, texts in ((Mode.INT, INT_TEXTS), (Mode.K4, K4_TEXTS)):
        frame = frame_from_pairs(mode, 0, [])
        for text in texts:
            f = parse_formula(text, mode)
            assert falsifying_model(frame, f) is None
            assert reference_falsifying_model(frame, f) is None


@given(formula_strategy(names=("p", "q"), max_depth=3), st.integers(0, 5))
@settings(max_examples=60)
def test_persistence(f, seed):
    rng = random.Random(seed)
    frames = enumerate_rooted_posets(4)
    frame = frames[rng.randrange(len(frames))]
    masks = {}
    for n in variables(f):
        raw = rng.randrange(1 << frame.n)
        masks[n] = raw
    m = KripkeModel.of(frame, masks)
    mask = truth_mask(m, f)
    for w in range(frame.n):
        if mask & (1 << w):
            assert (frame.rel[w] & ~mask) == 0  # everything above also forces


def test_rule_soundness_fuzz():
    # substitution and reverse substitution preserve structure-level
    # validity only, so the frame stands in for its whole model class;
    # the pointwise rules are additionally checked per model
    from lukas.kernel import MP, MT, NS, RN
    ds = system(Mode.INT)
    rng = random.Random(13)
    frame = chain_frame(2)
    for _ in range(120):
        inf = random_mixed_inference(rng, ds, length=rng.randrange(2, 10))
        model_masks = {}
        for s in inf.steps:
            for n in variables(s.statement.formula):
                model_masks.setdefault(n, rng.choice([0b00, 0b10, 0b11]))
        m = KripkeModel.of(frame, model_masks)
        for n, step in enumerate(inf.steps, 1):
            just = step.justification
            refs = []
            if hasattr(just, "major"):
                refs = [just.major, just.minor]
            elif hasattr(just, "source"):
                refs = [just.source]
            if not refs:
                continue
            if all(frame_validates(frame, inf.steps[r - 1].statement)
                   for r in refs):
                assert frame_validates(frame, step.statement), str(step.statement)
            if isinstance(just, (MP, MT, NS, RN)) and \
                    all(model_validates(m, inf.steps[r - 1].statement) for r in refs):
                assert model_validates(m, step.statement), str(step.statement)


def test_check_adequacy_examples():
    stable = parse_formula("~~p -> p")
    ds = system(Mode.INT, positive=[stable])
    assert check_adequacy(point_frame(), ds)
    assert not check_adequacy(chain_frame(2), ds)
    bad = system(Mode.INT, anti=[parse_formula("p -> p")])
    assert not check_adequacy(chain_frame(2), bad)


def test_tabular_oracle_cpc_matches_truth_tables():
    oracle = tabular_oracle([point_frame()])
    rng = random.Random(2)
    from generators import random_formula, tautology
    for _ in range(200):
        f = random_formula(rng, ("p", "q"), depth=3)
        classical = tautology(f)
        assert oracle(f) == classical


def test_tabular_oracle_two_chain():
    oracle = tabular_oracle([chain_frame(2)])
    assert not oracle(parse_formula("~~p -> p"))
    assert oracle(parse_formula("~p | ~~p"))
    assert oracle(parse_formula("p -> p"))


def test_enumerate_rooted_posets_small():
    frames = enumerate_rooted_posets(2)
    assert [f.n for f in frames] == [1, 2]
    # counts per size follow the unlabeled poset numbers shifted by one
    counts = {}
    for f in enumerate_rooted_posets(5):
        counts[f.n] = counts.get(f.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 5, 5: 16}


def test_enumeration_is_cached():
    first = enumerate_rooted_posets(5)
    assert isinstance(first, tuple)
    assert enumerate_rooted_posets(5) is first


#: SHA-256 of `repr([(f.n, f.rel) for f in enumerate_rooted_posets(5)])`,
#: pinned when the enumeration was built in one sorted pass over all sizes.
ENUMERATION_DIGEST = "5f0252b01309ae2d365e33dcec1005e753104d82b8d59f8693a78d5902f2f5b3"


def test_enumeration_order_is_pinned():
    frames = [(f.n, f.rel) for f in enumerate_rooted_posets(5)]
    assert hashlib.sha256(repr(frames).encode()).hexdigest() == ENUMERATION_DIGEST


@pytest.mark.parametrize("k", range(1, 6))
def test_enumeration_concatenates_the_sizes(k):
    sizes = tuple(f for n in range(1, k + 1) for f in semantics.rooted_posets(n))
    assert enumerate_rooted_posets(k) == sizes
    assert all(f.n == n for n in range(1, k + 1) for f in semantics.rooted_posets(n))


def test_six_worlds_give_63_rooted_posets(monkeypatch):
    """Past the cap the enumeration stays isomorph-free and complete: 63
    rooted posets on 6 points, the count of posets on 5."""
    monkeypatch.setattr(semantics, "MAX_POSET_WORLDS", 6)
    semantics.rooted_posets.cache_clear()
    try:
        frames = semantics.rooted_posets(6)
    finally:
        semantics.rooted_posets.cache_clear()
    assert len(frames) == 63
    for frame in frames:
        pairs = [(i, j) for i in range(6) for j in semantics._bits(frame.rel[i])]
        assert frame_from_pairs(Mode.INT, 6, pairs) == frame     # a partial order
        assert root_of(frame) is not None
    assert len({semantics._canonical_key(6, frame.rel) for frame in frames}) == 63


def test_no_rooted_poset_has_no_worlds():
    assert semantics.rooted_posets(0) == () == enumerate_rooted_posets(0)


def test_enumeration_is_deterministic_and_canonical():
    first = enumerate_rooted_posets(4)
    second = enumerate_rooted_posets(4)
    assert [f.rel for f in first] == [f.rel for f in second]
    assert len({f.rel for f in first}) == len(first)


def test_p_morphic_examples():
    chain2, chain3 = chain_frame(2), chain_frame(3)
    assert p_morphic_reduct_exists(chain3, chain2)
    assert not p_morphic_reduct_exists(point_frame(), chain2)
    assert p_morphic_reduct_exists(chain2, point_frame())
    fork = frame_from_pairs(Mode.INT, 3, [(0, 1), (0, 2)])
    assert p_morphic_reduct_exists(fork, chain2)
    assert not p_morphic_reduct_exists(chain3, fork)


def test_frame_file_round_trip():
    text = "mode int\nworlds 2\nrel 0 1\n"
    frame = parse_frame_file(text)
    assert frame == chain_frame(2)
    assert parse_frame_file(render_frame_file(frame)) == frame


def test_model_file_applies_closures():
    text = "mode int\nworlds 3\nrel 0 1\nrel 1 2\nval p 1\n"
    model = parse_model_file(text)
    assert model.frame == chain_frame(3)
    assert model.var_mask("p") == 0b110
    again = parse_model_file(render_model_file(model))
    assert again == model


def test_frame_file_rejects_cycles_in_int_mode():
    with pytest.raises(ValueError):
        parse_frame_file("mode int\nworlds 2\nrel 0 1\nrel 1 0\n")


def naive_closure(mode, n, pairs):
    """The pairs (i, j) with a path of edges from i to j, by the triple loop;
    in int mode also every (i, i)."""
    seen = set(pairs) | ({(i, i) for i in range(n)} if mode is Mode.INT else set())
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if (i, k) in seen and (k, j) in seen:
                    seen.add((i, j))
    return seen


@pytest.mark.parametrize("mode", [Mode.INT, Mode.K4], ids=str)
def test_frame_from_pairs_matches_a_naive_closure(mode):
    rng = random.Random(16)
    cycles = 0
    for _ in range(1500):
        n = rng.randrange(7)
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randrange(2 * n + 1))] if n else []
        seen = naive_closure(mode, n, pairs)
        cycle = any(i != j and (j, i) in seen for i, j in seen)
        cycles += cycle
        if mode is Mode.INT and cycle:
            with pytest.raises(ValueError, match="int-mode relation must be antisymmetric"):
                frame_from_pairs(mode, n, pairs)
            continue
        rows = tuple(sum(1 << j for j in range(n) if (i, j) in seen) for i in range(n))
        assert frame_from_pairs(mode, n, pairs).rel == rows, (n, pairs)
    assert 100 < cycles < 1400


def test_frame_file_names_the_first_rel_line_on_a_cycle():
    """An int-mode cycle in a frame file is a `ParseError` on the first
    `rel` line whose edge i -> j, i != j, has a path back from j to i."""
    rng = random.Random(17)
    cycles = later = 0
    for _ in range(600):
        n = rng.randrange(1, 6)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 1))]
        seen = naive_closure(Mode.K4, n, pairs)
        on_cycle = [k for k, (i, j) in enumerate(pairs) if i != j and (j, i) in seen]
        text = f"mode int\nworlds {n}\n" + "".join(f"rel {i} {j}\n" for i, j in pairs)
        if not on_cycle:
            parse_frame_file(text)
            continue
        cycles += 1
        with pytest.raises(ParseError, match="int-mode relation must be antisymmetric") as err:
            parse_frame_file(text)
        assert err.value.line == on_cycle[0] + 3, (n, pairs)
        later += on_cycle[0] > 0
    assert 80 < cycles < 500 and later > 20, (cycles, later)


def test_frame_from_pairs_closes_a_long_chain_in_one_pass():
    n = 3000
    start = time.monotonic()
    frame = frame_from_pairs(Mode.INT, n, [(i, i + 1) for i in range(n - 1)])
    elapsed = time.monotonic() - start
    assert frame.rel[0] == frame.full_mask() and frame.rel[-1] == 1 << (n - 1)
    assert elapsed < 5.0, elapsed


def test_frame_validates_helper():
    assert frame_validates(point_frame(), asserts(parse_formula("p | ~p")))
    assert frame_validates(chain_frame(2), rejects(parse_formula("p | ~p")))
