import pytest
from hypothesis import given, settings

from conftest import formula_strategy
from lukas.formulas import Mode, match_instance, parse_formula, render
from lukas.kernel import Hypothesis, ProofBuilder, Sb, asserts, check_inference, rejects, system
from lukas.prover import (
    countermodel_search,
    derive,
    derive_from_hypotheses,
    derive_into,
    prove_ipc,
)
from lukas.semantics import enumerate_rooted_posets, frame_valid, model_validates, Budget

INT = system(Mode.INT)

THEOREMS = [
    "p -> p",
    "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "p & q -> p",
    "p -> (q -> p & q)",
    "p -> p | q",
    "(p -> r) -> ((q -> r) -> (p | q -> r))",
    "bot -> p",
    "~~(p | ~p)",
    "~~(~~p -> p)",
    "(p -> q) -> (~q -> ~p)",
    "~(p | q) -> ~p & ~q",
    "~p & ~q -> ~(p | q)",
    "~p | ~q -> ~(p & q)",
    "p & (q | r) -> (p & q) | (p & r)",
    "(p & q) | (p & r) -> p & (q | r)",
    "p | (q & r) -> (p | q) & (p | r)",
    "(p | q) & (p | r) -> p | (q & r)",
    "~~~p -> ~p",
    "~p -> ~~~p",
    "(p -> (q -> r)) -> (q -> (p -> r))",
    "(p -> q) -> ((q -> r) -> (p -> r))",
    "((p -> q) -> r) -> (p -> (q -> r))",  # not minimal but valid: q -> (p -> q), chain
    "p -> ~~p",
    "~~(p & q) -> ~~p & ~~q",
    "~~p & ~~q -> ~~(p & q)",
    "(p -> ~p) -> ~p",
    "(~p -> p) -> ~~p",
    "((p | ~p) -> q) -> ~~q",
    "~~(p -> q) -> (~~p -> ~~q)",
]

CLASSICAL_ONLY = [
    "p | ~p",
    "~~p -> p",
    "((p -> q) -> p) -> p",
    "~p | ~~p",
    "(p -> q) | (q -> p)",
    "(~q -> ~p) -> (p -> q)",
    "~(p & q) -> ~p | ~q",
    "(p -> q) -> (~p | q)",
    "((p -> q) -> q) -> p | q",
    "(~p -> q) -> (~q -> p)",
]


@pytest.mark.parametrize("text", THEOREMS)
def test_theorems_prove_and_check(text):
    f = parse_formula(text)
    result = prove_ipc(f)
    assert result.proved, text
    assert result.derivation.conclusion == asserts(f)
    assert check_inference(INT, result.derivation).ok


def test_derivations_hold_only_what_their_conclusion_rests_on():
    five_variables = ["p & q & r & s & t -> t",
                      "(p -> q) -> (q -> r) -> (r -> s) -> (s -> t) -> p -> t"]
    for text in THEOREMS + five_variables:
        inf = prove_ipc(parse_formula(text)).derivation
        assert inf.support(len(inf)) == set(range(1, len(inf) + 1)), text


@pytest.mark.parametrize("text", CLASSICAL_ONLY)
def test_classical_only_formulas_get_countermodels(text):
    f = parse_formula(text)
    result = prove_ipc(f)
    assert not result.proved, text
    model = result.countermodel
    assert model is not None
    assert model.frame.n <= 5
    assert model_validates(model, rejects(f))


def test_known_minimal_countermodel_shape():
    result = prove_ipc(parse_formula("~~p -> p"))
    model = result.countermodel
    assert model.frame.n == 2
    # p holds exactly at the top of the two-chain
    top = [w for w in range(2) if model.frame.rel[w] == (1 << w)][0]
    assert model.var_mask("p") == 1 << top


def test_fmp_agreement_on_small_corpus():
    frames = enumerate_rooted_posets(4)
    wide = Budget(max_worlds=8, max_vars=8)
    corpus = [parse_formula(t) for t in THEOREMS[:12] + CLASSICAL_ONLY]
    for f in corpus:
        if derive(f) is not None:
            assert all(frame_valid(g, f, wide) for g in frames), render(f)


def test_derive_from_hypotheses_direct():
    p, goal = parse_formula("p"), parse_formula("q -> p")
    derivation = derive_from_hypotheses([p], goal)
    assert derivation is not None
    assert derivation.conclusion == asserts(goal)
    assert _inference_from(derivation, [p])


def test_derive_from_hypotheses_needs_substitution():
    hyp = parse_formula("~~p -> p")
    goal = parse_formula("q | ~q")
    derivation = derive_from_hypotheses([hyp], goal)
    assert derivation is not None
    assert derivation.conclusion == asserts(goal)
    assert _inference_from(derivation, [hyp])
    # the substituted stability instance appears along the way
    instance = parse_formula("~~(q | ~q) -> (q | ~q)")
    assert any(step.statement == asserts(instance) for step in derivation.steps)


def test_derive_from_hypotheses_tries_the_goal_first():
    p, goal = parse_formula("p"), parse_formula("q -> q")
    assert derive_from_hypotheses([p], goal) == prove_ipc(goal).derivation


def test_derive_from_hypotheses_gives_up_on_underivable():
    goal = parse_formula("~~p -> p")
    assert derive_from_hypotheses([], goal) is None


def _inference_from(inf, hypotheses):
    report = check_inference(INT, inf)
    assert report.ok
    assert set(h.formula for h in inf.hypotheses) == set(hypotheses)
    return True


def test_countermodel_search_is_sound():
    for text in CLASSICAL_ONLY:
        f = parse_formula(text)
        model = countermodel_search(f)
        assert model is not None
        assert model_validates(model, rejects(f))


def test_theorem_has_no_countermodel():
    assert countermodel_search(parse_formula("p -> p")) is None


def _sb_steps_carry_their_match(inf):
    """Every `sb` step of `inf` carries the substitution that matching its
    source against its statement finds, and `inf` checks."""
    assert check_inference(INT, inf).ok
    for step in inf.steps:
        if isinstance(step.justification, Sb):
            base = inf.steps[step.justification.source - 1].statement.formula
            binding = match_instance(base, step.statement.formula)
            assert step.justification.mapping == tuple(sorted(binding.items()))


def test_elaborated_substitutions_are_the_matched_ones():
    for text in THEOREMS:
        _sb_steps_carry_their_match(derive(parse_formula(text)))


@settings(max_examples=150, deadline=None)
@given(formula_strategy(max_depth=3))
def test_elaborated_substitutions_are_the_matched_ones_on_random_formulas(f):
    inf = derive(f)
    if inf is not None:
        _sb_steps_carry_their_match(inf)


def _builder_with_a_hypothesis_and_an_instance():
    """Steps 1 `+ p -> p ; hyp` and 2 `+ q -> q ; sb 1 { p := q }`."""
    hyp = asserts(parse_formula("p -> p"))
    builder = ProofBuilder((hyp,))
    source = builder.add(hyp, Hypothesis())
    builder.apply(Sb.of(source, {"p": parse_formula("q")}))
    return builder


def test_derive_into_adds_nothing_when_the_search_refutes():
    builder = _builder_with_a_hypothesis_and_an_instance()
    steps, index = list(builder.steps), dict(builder.index)
    assert derive_into(builder, parse_formula("p | ~p")) is None
    assert builder.steps == steps and builder.index == index


def test_derive_into_keeps_the_steps_already_built():
    for text in THEOREMS:
        f = parse_formula(text)
        builder = _builder_with_a_hypothesis_and_an_instance()
        before = list(builder.steps)
        index = derive_into(builder, f)
        assert builder.steps[:2] == before, text
        assert builder.steps[index - 1].statement == asserts(f), text
        report = check_inference(INT, builder.conclude(index))
        assert report.ok and report.conclusion == asserts(f), text
