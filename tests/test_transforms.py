import random

import pytest

from conftest import frame_validates
from generators import random_mixed_inference, random_refutable_instance
from lukas.complete_sets import build_system, jankov_family
from lukas.formulas import Mode, Var, parse_formula
from lukas.kernel import (
    AntiAxiom,
    Axiom,
    Hypothesis,
    Inference,
    MP,
    Sign,
    Step,
    asserts,
    check_inference,
    rejects,
    system,
)
from lukas.prover import derive_from_hypotheses
from lukas.semantics import (
    Budget,
    chain_frame,
    check_adequacy,
    point_frame,
    tabular_oracle,
)
from lukas.transforms import (
    OracleInconsistencyError,
    TransformError,
    extract_positive,
    symmetry_transform,
)

INT = system(Mode.INT)
WIDE = Budget(max_worlds=8, max_vars=8)


def test_extract_positive_identity_on_all_positive():
    inf = Inference(
        (asserts(Var("p")),),
        (
            Step(asserts(parse_formula("p -> (q -> p)")), Axiom()),
            Step(asserts(Var("p")), Hypothesis()),
            Step(asserts(parse_formula("q -> p")), MP(1, 2)),
        ),
    )
    assert extract_positive(inf) == inf


def test_extract_positive_repoints_indices():
    anti = parse_formula("~~p -> p")
    ds = system(Mode.INT, anti=[anti])
    inf = Inference(
        (asserts(Var("a")),),
        (
            Step(asserts(Var("a")), Hypothesis()),
            Step(rejects(anti), AntiAxiom()),
            Step(asserts(parse_formula("p -> (q -> p)")), Axiom()),
            Step(asserts(parse_formula("a -> (b -> a)")),
                 __import__("lukas.kernel", fromlist=["Sb"]).Sb.of(3, {"p": Var("a"), "q": Var("b")})),
        ),
    )
    assert check_inference(ds, inf).ok
    extracted = extract_positive(inf)
    assert len(extracted.steps) == 3
    report = check_inference(ds, extracted)
    assert report.ok
    assert report.conclusion == inf.conclusion


def test_extract_positive_requires_positive_ends():
    inf = Inference((rejects(Var("p")),), (Step(rejects(Var("p")), Hypothesis()),))
    with pytest.raises(TransformError):
        extract_positive(inf)


def test_extract_positive_fuzz_and_idempotence():
    anti = parse_formula("~~p -> p")
    ds = system(Mode.INT, anti=[anti])
    rng = random.Random(31)
    done = 0
    while done < 200:
        inf = random_mixed_inference(rng, ds, length=rng.randrange(3, 14))
        positives = [n for n, s in enumerate(inf.steps, 1)
                     if s.statement.sign is Sign.ASSERT]
        if not positives:
            continue
        trimmed = Inference(inf.hypotheses, inf.steps[:positives[-1]])
        if trimmed.conclusion.sign is not Sign.ASSERT:
            continue
        done += 1
        extracted = extract_positive(trimmed)
        report = check_inference(ds, extracted)
        assert report.ok
        assert report.conclusion == trimmed.conclusion
        assert len(extracted.steps) <= len(trimmed.steps)
        assert all(s.statement.sign is Sign.ASSERT for s in extracted.steps)
        assert extract_positive(extracted) == extracted


def test_derived_inference_simple_and_substituted():
    inf = derive_from_hypotheses([Var("p")], parse_formula("q -> p"))
    report = check_inference(INT, inf)
    assert report.ok
    assert str(report.conclusion) == "+ q -> p"

    hyp = parse_formula("~~p -> p")
    inf = derive_from_hypotheses([hyp], parse_formula("q | ~q"))
    assert check_inference(INT, inf).ok
    assert all(s.statement.sign is Sign.ASSERT for s in inf.steps)


def test_prover_inference_pipeline():
    from lukas.prover import prove_ipc
    corpus = ["p -> p", "~~(p | ~p)", "(p -> q) -> (~q -> ~p)",
              "p & q -> q & p", "p | q -> q | p", "~~~p -> ~p"]
    for text in corpus:
        f = parse_formula(text)
        result = prove_ipc(f)
        inf = result.derivation
        report = check_inference(INT, inf)
        assert report.ok
        assert report.conclusion == asserts(f)
        assert not inf.hypotheses


def test_symmetry_basis_case():
    oracle = tabular_oracle([point_frame()], WIDE)
    b = parse_formula("p & q")
    inf = Inference((asserts(b),), (Step(asserts(b), Hypothesis()),))
    index, ref = symmetry_transform(inf, oracle)
    assert index == 1
    assert ref.hypotheses == (rejects(b),)
    assert ref.conclusion == rejects(b)
    assert check_inference(INT, ref).ok


def test_symmetry_smallest_index_on_ties():
    oracle = tabular_oracle([point_frame()], WIDE)
    b = Var("p")
    inf = Inference(
        (asserts(Var("q")), asserts(b), asserts(b)),
        (Step(asserts(b), Hypothesis()),),
    )
    index, _ = symmetry_transform(inf, oracle)
    assert index == 2


def test_symmetry_rejects_derivable_conclusion():
    oracle = tabular_oracle([point_frame()], WIDE)
    inf = Inference((), (Step(asserts(parse_formula("p -> (q -> p)")), Axiom()),))
    with pytest.raises(OracleInconsistencyError):
        symmetry_transform(inf, oracle)


def test_symmetry_substitution_pipeline_example():
    frames = [chain_frame(2)]
    oracle = tabular_oracle(frames, WIDE)
    hyp = parse_formula("~~p -> p")
    goal = parse_formula("q | ~q")
    positive = derive_from_hypotheses([hyp], goal)
    index, ref = symmetry_transform(positive, oracle)
    assert index == 1
    report = check_inference(INT, ref)
    assert report.ok
    assert report.conclusion == rejects(hyp)
    assert ref.hypotheses == (rejects(goal),)


def test_symmetry_modus_ponens_both_subcases():
    oracle = tabular_oracle([point_frame()], WIDE)
    p, q = Var("p"), Var("q")
    # underivable major: hypothesis p -> q
    inf = Inference(
        (asserts(p), asserts(parse_formula("p -> q"))),
        (
            Step(asserts(parse_formula("p -> q")), Hypothesis()),
            Step(asserts(p), Hypothesis()),
            Step(asserts(q), MP(1, 2)),
        ),
    )
    index, ref = symmetry_transform(inf, oracle)
    assert check_inference(INT, ref).ok
    assert ref.conclusion == rejects(inf.hypotheses[index - 1].formula)

    # derivable major replayed from its own axiom chain
    weaken = parse_formula("p -> (q -> p)")
    inf2 = Inference(
        (asserts(p),),
        (
            Step(asserts(weaken), Axiom()),
            Step(asserts(p), Hypothesis()),
            Step(asserts(parse_formula("q -> p")), MP(1, 2)),
        ),
    )
    index2, ref2 = symmetry_transform(inf2, oracle)
    assert index2 == 1
    assert check_inference(INT, ref2).ok
    assert ref2.conclusion == rejects(p)


def test_symmetry_size_bound():
    ds, oracle = INT, tabular_oracle([point_frame()], WIDE)
    rng = random.Random(77)
    done = 0
    while done < 40:
        inst = random_refutable_instance(rng, ds, oracle)
        if inst is None:
            continue
        done += 1
        index, ref = symmetry_transform(inst, oracle)
        del index
        # linear in the input plus whatever positive derivations were spliced
        replayed = sum(1 for s in ref.steps
                       if s.statement.sign is Sign.ASSERT)
        assert len(ref.steps) <= 3 * len(inst.steps) + replayed + 3


def test_symmetry_output_respects_adequate_frames():
    family = jankov_family(3)
    frame = chain_frame(2)
    oracle = tabular_oracle([frame], WIDE)
    ds = build_system(oracle, family)
    assert check_adequacy(frame, ds, WIDE)
    rng = random.Random(123)
    done = 0
    while done < 25:
        inst = random_refutable_instance(rng, ds, oracle)
        if inst is None:
            continue
        done += 1
        _, ref = symmetry_transform(inst, oracle)
        assert check_inference(ds, ref).ok
        # structure-level validity: a frame adequate for the system that
        # validates the hypotheses validates every step
        if all(frame_validates(frame, h, WIDE) for h in ref.hypotheses):
            for step in ref.steps:
                assert frame_validates(frame, step.statement, WIDE)


def test_symmetry_requires_all_positive_input():
    inf = Inference((rejects(Var("p")),), (Step(rejects(Var("p")), Hypothesis()),))
    oracle = tabular_oracle([point_frame()], WIDE)
    with pytest.raises(TransformError):
        symmetry_transform(inf, oracle)
