import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import formula_strategy
from generators import random_mixed_inference
from lukas.formulas import (
    And,
    Bottom,
    Box,
    Implies,
    Mode,
    Or,
    Var,
    parse_formula,
    variables,
)
from lukas.kernel import asserts, rejects, system
from lukas.semantics import (
    Budget,
    KripkeModel,
    ResourceBoundError,
    chain_frame,
    check_adequacy,
    enumerate_rooted_posets,
    forces,
    frame_from_pairs,
    frame_valid,
    frame_validates,
    model_validates,
    p_morphic_reduct_exists,
    parse_frame_file,
    parse_model_file,
    point_frame,
    render_frame_file,
    render_model_file,
    tabular_oracle,
    truth_mask,
)

WIDE = Budget(max_worlds=8, max_vars=8)


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


def test_frame_valid_budget():
    with pytest.raises(ResourceBoundError):
        frame_valid(chain_frame(2), parse_formula("(p & q & r) -> s"))
    frame_valid(chain_frame(2), parse_formula("(p & q & r) -> s"), WIDE)


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
            assert frame_valid(frame, f, WIDE) == expected


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
            if all(frame_validates(frame, inf.steps[r - 1].statement, WIDE)
                   for r in refs):
                assert frame_validates(frame, step.statement, WIDE), str(step.statement)
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
    from lukas.transforms import _classical_value
    oracle = tabular_oracle([point_frame()], WIDE)
    rng = random.Random(2)
    from generators import random_formula
    for _ in range(200):
        f = random_formula(rng, ("p", "q"), depth=3)
        names = sorted(variables(f))
        classical = all(
            _classical_value(f, dict(zip(names, values)))
            for values in itertools.product((False, True), repeat=len(names)))
        assert oracle(f) == classical


def test_tabular_oracle_two_chain():
    oracle = tabular_oracle([chain_frame(2)], WIDE)
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


def test_frame_validates_helper():
    assert frame_validates(point_frame(), asserts(parse_formula("p | ~p")))
    assert frame_validates(chain_frame(2), rejects(parse_formula("p | ~p")))
