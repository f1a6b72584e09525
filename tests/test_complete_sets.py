import random
from pathlib import Path

import pytest

from generators import random_formula, tautology
from lukas.complete_sets import (
    FamilyEntry,
    RefutationPreconditionError,
    build_positive_cpc,
    build_refutation,
    build_system,
    jankov_family,
    jankov_formula,
    manifest_context,
    parse_manifest,
    render_manifest,
)
from lukas.formulas import Mode, ParseError, parse_formula, render, variables
from lukas.kernel import AntiAxiom, Inference, ProofBuilder, Step, check_inference, rejects, system
from lukas.semantics import (
    Budget,
    chain_frame,
    check_adequacy,
    enumerate_rooted_posets,
    frame_from_pairs,
    frame_valid,
    p_morphic_reduct_exists,
    point_frame,
    tabular_oracle,
)

WIDE = Budget(max_worlds=8, max_vars=8)


def test_jankov_one_point_is_never_valid():
    x = jankov_formula(point_frame())
    for g in enumerate_rooted_posets(4):
        assert not frame_valid(g, x, WIDE)
        assert p_morphic_reduct_exists(g, point_frame())


def test_jankov_two_chain_instances():
    x = jankov_formula(chain_frame(2))
    assert frame_valid(point_frame(), x, WIDE)
    assert not frame_valid(chain_frame(2), x, WIDE)


def test_jankov_characterization_up_to_three_worlds():
    frames = enumerate_rooted_posets(3)
    for f in frames:
        x = jankov_formula(f)
        for g in frames:
            assert frame_valid(g, x, WIDE) == (not p_morphic_reduct_exists(g, f)), \
                (f.rel, g.rel)


def test_jankov_uses_one_variable_per_world():
    for f in enumerate_rooted_posets(4):
        assert len(variables(jankov_formula(f))) == f.n


def test_jankov_requires_rooted_poset():
    two_points = frame_from_pairs(Mode.INT, 2, [])
    with pytest.raises(ValueError):
        jankov_formula(two_points)


def test_family_is_deterministic_and_duplicate_free():
    family = jankov_family(3)
    again = jankov_family(3)
    assert [render(e.formula) for e in family] == [render(e.formula) for e in again]
    assert len({render(e.formula) for e in family}) == len(family)
    assert [e.frame.n for e in family] == [1, 2, 3, 3]


def test_build_system_cpc_and_two_chain_adequacy():
    family = jankov_family(3)
    cpc_oracle = tabular_oracle([point_frame()], WIDE)
    cpc = build_system(cpc_oracle, family)
    assert check_adequacy(point_frame(), cpc, WIDE)
    # the one-point frame reduces onto itself only, so exactly its Jankov
    # formula lands negative
    assert len(cpc.anti_axioms) == 1

    chain_oracle = tabular_oracle([chain_frame(2)], WIDE)
    two = build_system(chain_oracle, family)
    assert check_adequacy(chain_frame(2), two, WIDE)
    assert len(two.anti_axioms) == 2


def test_build_system_empty_family():
    oracle = tabular_oracle([point_frame()], WIDE)
    ds = build_system(oracle, ())
    assert ds == system(Mode.INT)


def test_refutation_precondition_guard(cpc):
    ds, oracle, family, _frame, _template = cpc
    with pytest.raises(RefutationPreconditionError):
        build_refutation(ds, parse_formula("~~p -> p"), oracle, family)


def test_refutation_over_intuitionistic_oracle():
    frames = enumerate_rooted_posets(4)
    oracle = tabular_oracle(frames, WIDE)
    family = jankov_family(3)
    ds = build_system(oracle, family)
    inf = build_refutation(ds, parse_formula("p | ~p"), oracle, family)
    report = check_inference(ds, inf)
    assert report.ok
    assert report.conclusion == rejects(parse_formula("p | ~p"))
    assert not inf.hypotheses


def test_refutation_corpus_over_cpc(cpc):
    ds, oracle, family, _frame, _template = cpc
    rng = random.Random(4)
    done = 0
    while done < 40:
        f = random_formula(rng, ("p", "q"), depth=3)
        if oracle(f):
            continue
        done += 1
        inf = build_refutation(ds, f, oracle, family)
        report = check_inference(ds, inf)
        assert report.ok and report.conclusion == rejects(f)
        assert not inf.hypotheses


def test_positive_cpc_examples(cpc):
    ds, _oracle, _family, _frame, _template = cpc
    for text in ["p -> p", "p | ~p", "((p -> q) -> p) -> p"]:
        f = parse_formula(text)
        inf = build_positive_cpc(f)
        report = check_inference(ds, inf)
        assert report.ok
        assert report.conclusion.formula == f
        assert not inf.hypotheses


def test_positive_cpc_rejects_invalid(cpc):
    with pytest.raises(RefutationPreconditionError):
        build_positive_cpc(parse_formula("p -> q"))


def test_standardness_sample(cpc):
    ds, oracle, family, _frame, _template = cpc
    rng = random.Random(6)
    for _ in range(60):
        f = random_formula(rng, ("p", "q"), depth=3)
        classical = tautology(f)
        if classical:
            inf = build_positive_cpc(f)
            assert check_inference(ds, inf).ok
            with pytest.raises(RefutationPreconditionError):
                build_refutation(ds, f, oracle, family)
        else:
            inf = build_refutation(ds, f, oracle, family)
            assert check_inference(ds, inf).ok
            with pytest.raises(RefutationPreconditionError):
                build_positive_cpc(f)


CPC_MANIFEST = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "cpc.ds"


def _discharge_by_splice(refutation, anti):
    """Reference for `_discharge`: the refutation copied step by step after
    an anti-axiom step that stands for its step 1."""
    builder = ProofBuilder()
    mapping = {1: builder.add(rejects(anti), AntiAxiom())}
    last = len(refutation.steps)
    for old in sorted(refutation.support(last)):
        if old not in mapping:
            step = refutation.steps[old - 1]
            mapping[old] = builder.add(step.statement, step.justification.remap(mapping))
    return builder.conclude(mapping[last])


def test_discharge_agrees_with_the_splice_it_replaced(monkeypatch):
    import lukas.complete_sets
    ds, oracle, family = manifest_context(parse_manifest(CPC_MANIFEST.read_text()))
    discharge = lukas.complete_sets._discharge
    seen = []

    def recorded(ds, refutation, anti):
        result = discharge(ds, refutation, anti)
        seen.append(result == _discharge_by_splice(refutation, anti))
        return result

    monkeypatch.setattr(lukas.complete_sets, "_discharge", recorded)
    rng = random.Random(12)
    while len(seen) < 40:
        f = random_formula(rng, ("p", "q"), depth=3)
        if not oracle(f):
            build_refutation(ds, f, oracle, family)
    assert all(seen)


def test_refute_exits_2_when_step_1_is_not_the_hypothesis(capsys, monkeypatch):
    import lukas.complete_sets
    from lukas.cli import main
    transform = lukas.complete_sets.symmetry_transform

    def misplaced(inf, oracle):
        index, ref = transform(inf, oracle)
        first = Step(ref.steps[0].statement, AntiAxiom())
        return index, Inference(ref.hypotheses, (first,) + ref.steps[1:])

    monkeypatch.setattr(lukas.complete_sets, "symmetry_transform", misplaced)
    code = main(["refute", "--system", str(CPC_MANIFEST), "p | ~q"])
    captured = capsys.readouterr()
    assert code == 2 and "REFUTED" not in captured.out
    assert captured.err.startswith("error: discharged refutation fails checking: step 1 ")


def test_refutation_k4_with_supplied_family():
    # the modal instantiation works over user-supplied box-free families
    point = frame_from_pairs(Mode.K4, 1, [(0, 0)])
    oracle = tabular_oracle([point], WIDE)
    entry = FamilyEntry(point, parse_formula("~~x0", Mode.K4))
    ds = build_system(oracle, [entry], Mode.K4)
    assert not oracle(entry.formula)
    for text in ["x0", "p & q", "p -> q"]:
        f = parse_formula(text, Mode.K4)
        inf = build_refutation(ds, f, oracle, [entry])
        report = check_inference(ds, inf)
        assert report.ok and report.conclusion == rejects(f)


def test_manifest_round_trip():
    frames = [chain_frame(2)]
    oracle = tabular_oracle(frames, WIDE)
    family = jankov_family(3)
    text = render_manifest(Mode.INT, frames, 3, family, oracle)
    manifest = parse_manifest(text)
    assert manifest.bound == 3
    assert manifest.frames == (chain_frame(2),)
    ds, oracle2, family2 = manifest_context(manifest)
    assert ds == build_system(oracle, family)
    assert [e.formula for e in family2] == [e.formula for e in family]
    assert oracle2(parse_formula("~p | ~~p"))


def test_manifest_rejects_tampered_signs():
    frames = [chain_frame(2)]
    oracle = tabular_oracle(frames, WIDE)
    family = jankov_family(2)
    text = render_manifest(Mode.INT, frames, 2, family, oracle)
    flipped = text.replace("\n- ", "\n+ ", 1)
    with pytest.raises(ValueError):
        manifest_context(parse_manifest(flipped))


def point_manifest(bound: int) -> str:
    frames = [point_frame()]
    return render_manifest(Mode.INT, frames, bound, jankov_family(bound),
                           tabular_oracle(frames, WIDE))


def respell(text: str) -> str:
    """`text` with Unicode connectives, more blanks and redundant brackets."""
    for ascii_, wide in (("->", " \u2192 "), ("&", "\u2227"), ("|", "  \u2228"), ("~", "\u00ac")):
        text = text.replace(ascii_, wide)
    return "((" + text + "))"


def test_manifest_marks_need_not_be_canonical():
    text = point_manifest(3)
    lines = [line if line[0] not in "+-" else f"{line[0]}   {respell(line[2:])}  "
             for line in text.splitlines()]
    assert lines != text.splitlines()
    manifest = parse_manifest("\n".join(lines) + "\n")
    assert manifest == parse_manifest(text)
    manifest_context(manifest)


def test_manifest_bound_may_follow_the_marks():
    text = point_manifest(3)
    lines = [line for line in text.splitlines() if not line.startswith("bound ")]
    manifest = parse_manifest("\n".join(lines + ["bound 3"]) + "\n")
    assert manifest == parse_manifest(text)
    manifest_context(manifest)


def test_manifest_mark_errors():
    flipped = point_manifest(3).replace("\n- ", "\n+ ", 1)
    with pytest.raises(ValueError, match="disagrees with its frames"):
        manifest_context(parse_manifest(flipped))
    outside = render(jankov_family(3)[-1].formula)
    with pytest.raises(ValueError, match="not in the family of bound 2"):
        manifest_context(parse_manifest(point_manifest(2) + f"+ {outside}\n"))
    with pytest.raises(ParseError) as caught:
        parse_manifest("mode int\nbound 1\nframe 1 0-0\n- ~~x0 &\n")
    assert (caught.value.line, caught.value.column) == (4, 9)
    assert str(caught.value) == "unexpected end of input (at line 4, column 9)"
