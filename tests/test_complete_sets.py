import hashlib
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
    jankov_substitution,
    manifest_context,
    render_manifest,
)
from lukas.formulas import (
    Implies,
    Mode,
    ParseError,
    apply_substitution,
    parse_formula,
    render,
    variables,
)
from lukas.kernel import (
    AntiAxiom,
    Hypothesis,
    Inference,
    MP,
    ProofBuilder,
    Sb,
    Step,
    asserts,
    check_inference,
    rejects,
    system,
)
from lukas import semantics
from lukas.prover import derive_into
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
    p_morphic_reduct_exists,
    point_frame,
    root_of,
    tabular_oracle,
)
from lukas.transforms import symmetry_transform



def test_jankov_one_point_is_never_valid():
    x = jankov_formula(point_frame())
    for g in enumerate_rooted_posets(4):
        assert not frame_valid(g, x)
        assert p_morphic_reduct_exists(g, point_frame())


def test_jankov_two_chain_instances():
    x = jankov_formula(chain_frame(2))
    assert frame_valid(point_frame(), x)
    assert not frame_valid(chain_frame(2), x)


def test_jankov_characterization_up_to_three_worlds():
    frames = enumerate_rooted_posets(3)
    for f in frames:
        x = jankov_formula(f)
        for g in frames:
            assert frame_valid(g, x) == (not p_morphic_reduct_exists(g, f)), \
                (f.rel, g.rel)


def test_jankov_uses_one_variable_per_world():
    for f in enumerate_rooted_posets(4):
        assert len(variables(jankov_formula(f))) == f.n


def test_jankov_requires_rooted_poset():
    two_points = frame_from_pairs(Mode.INT, 2, [])
    with pytest.raises(ValueError):
        jankov_formula(two_points)


#: sha256 of the renderings of `jankov_formula` over every rooted poset of
#: 1 to 6 worlds, each followed by three seeded relabellings of it.
JANKOV_DIGEST = "2907dacd5662126f2d5a4152745f65f6baacb3c44390901e09b439bf1feb370c"


def test_jankov_formulas_of_six_worlds_and_their_relabellings(monkeypatch):
    """A rewrite of the construction must give the very same formulas,
    whatever order the worlds of a frame come in."""
    monkeypatch.setattr(semantics, "MAX_POSET_WORLDS", 6)
    semantics.rooted_posets.cache_clear()
    try:
        frames = [f for n in range(1, 7) for f in semantics.rooted_posets(n)]
    finally:
        semantics.rooted_posets.cache_clear()
    rng = random.Random(1)
    renderings = []
    for frame in frames:
        pairs = [(i, j) for i in range(frame.n) for j in semantics._bits(frame.rel[i])]
        renderings.append(render(jankov_formula(frame)))
        for _ in range(3):
            perm = rng.sample(range(frame.n), frame.n)
            relabelled = frame_from_pairs(Mode.INT, frame.n,
                                          [(perm[i], perm[j]) for i, j in pairs])
            renderings.append(render(jankov_formula(relabelled)))
    assert len(renderings) == 352
    digest = hashlib.sha256("\n".join(renderings).encode()).hexdigest()
    assert digest == JANKOV_DIGEST


def test_family_is_deterministic_and_duplicate_free():
    family = jankov_family(3)
    again = jankov_family(3)
    assert [render(e.formula) for e in family] == [render(e.formula) for e in again]
    assert len({render(e.formula) for e in family}) == len(family)
    assert [e.frame.n for e in family] == [1, 2, 3, 3]


def test_build_system_cpc_and_two_chain_adequacy():
    family = jankov_family(3)
    cpc_oracle = tabular_oracle([point_frame()])
    cpc = build_system(cpc_oracle, family)
    assert check_adequacy(point_frame(), cpc)
    # the one-point frame reduces onto itself only, so exactly its Jankov
    # formula lands negative
    assert len(cpc.anti_axioms) == 1

    chain_oracle = tabular_oracle([chain_frame(2)])
    two = build_system(chain_oracle, family)
    assert check_adequacy(chain_frame(2), two)
    assert len(two.anti_axioms) == 2


def test_build_system_empty_family():
    oracle = tabular_oracle([point_frame()])
    ds = build_system(oracle, ())
    assert ds == system(Mode.INT)


def test_refutation_precondition_guard(cpc):
    ds, oracle, family, _frame, _template = cpc
    with pytest.raises(RefutationPreconditionError):
        build_refutation(ds, parse_formula("~~p -> p"), oracle, family)


def test_refutation_over_intuitionistic_oracle():
    frames = enumerate_rooted_posets(4)
    oracle = tabular_oracle(frames)
    family = jankov_family(3)
    ds = build_system(oracle, family)
    inf = build_refutation(ds, parse_formula("p | ~p"), oracle, family)
    report = check_inference(ds, inf)
    assert report.ok
    assert report.conclusion == rejects(parse_formula("p | ~p"))
    assert not inf.hypotheses


def test_jankov_lemma_holds_without_the_search():
    """Whenever a model on a rooted poset G refutes `a` at G's root,
    sigma(a) -> J(G) holds on every rooted poset of up to 4 worlds, where
    sigma is the model's Jankov substitution."""
    rng = random.Random(13)
    frames = enumerate_rooted_posets(4)
    checked = 0
    for g in enumerate_rooted_posets(3):
        jankov = jankov_formula(g)
        for _ in range(40):
            a = random_formula(rng, ("p", "q"), depth=3)
            model = KripkeModel.of(g, {n: rng.randrange(1 << g.n) for n in variables(a)})
            if forces(model, root_of(g), a):
                continue
            lemma = Implies(apply_substitution(jankov_substitution(model), a), jankov)
            assert all(frame_valid(h, lemma) for h in frames), render(lemma)
            checked += 1
    assert checked >= 40


def _refute_by_transform(ds, a, oracle, family):
    """Reference for `build_refutation`: the route it replaced.  A positive
    inference hyp +a, sb sigma, Jankov's lemma and mp goes through the
    refutation transformer, and step 1 of the result, - J(G) ; hyp, is then
    rewritten to an anti-axiom step."""
    for entry in family:
        if oracle(entry.formula) or not ds.is_anti_axiom(entry.formula):
            continue
        model = falsifying_model(entry.frame, a)
        if model is None or forces(model, root_of(entry.frame), a):
            continue
        sigma = jankov_substitution(model)
        builder = ProofBuilder((asserts(a),))
        instance = builder.apply(Sb.of(builder.add(asserts(a), Hypothesis()), sigma))
        lemma = derive_into(builder, Implies(apply_substitution(sigma, a), entry.formula))
        positive = builder.conclude(builder.apply(MP(lemma, instance)))
        index, refutation = symmetry_transform(positive, oracle)
        assert index == 1
        assert refutation.steps[0] == Step(rejects(entry.formula), Hypothesis())
        first = Step(rejects(entry.formula), AntiAxiom())
        return Inference((), (first,) + refutation.steps[1:])
    raise AssertionError(f"no rejected frame refutes {render(a)}")


DIAMOND = frame_from_pairs(Mode.INT, 4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_refutation_fails_exactly_when_no_rejected_frame_refutes():
    """Against the diamond's system at bound 3, `build_refutation` finds no
    refutation exactly when no frame of the family with a rejected Jankov
    formula refutes `a`; two of these twenty tautologies need the diamond
    itself."""
    oracle = tabular_oracle([DIAMOND])
    family = jankov_family(3)
    ds = build_system(oracle, family)
    rng = random.Random(11)
    found = []
    while len(found) < 20:
        f = random_formula(rng, ("p", "q", "r"), depth=4)
        if not tautology(f) or oracle(f):
            continue
        witnessed = any(ds.is_anti_axiom(e.formula) and falsifying_model(e.frame, f)
                        for e in family)
        try:
            inf = build_refutation(ds, f, oracle, family)
        except ResourceBoundError as exc:
            assert not witnessed, render(f)
            assert "at most 3 worlds" in str(exc)
            found.append(False)
            continue
        assert witnessed, render(f)
        assert inf == _refute_by_transform(ds, f, oracle, family), render(f)
        report = check_inference(ds, inf)
        assert report.ok and report.conclusion == rejects(f)
        found.append(True)
    assert found.count(False) == 2


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


def test_refutation_agrees_with_the_transformer_route_it_replaced():
    ds, oracle, family = manifest_context(CPC_MANIFEST.read_text())
    rng = random.Random(12)
    done = 0
    while done < 40:
        f = random_formula(rng, ("p", "q"), depth=3)
        if not oracle(f):
            expected = _refute_by_transform(ds, f, oracle, family)
            assert build_refutation(ds, f, oracle, family) == expected, render(f)
            done += 1


def test_refutation_reports_a_lemma_that_does_not_prove():
    """A family entry whose formula is not its frame's Jankov formula: the
    lemma x0 -> ~x0 is no theorem, and that is an error, not a budget exit."""
    entry = FamilyEntry(point_frame(), parse_formula("~x0"))
    oracle = tabular_oracle([point_frame()])
    ds = build_system(oracle, [entry])
    with pytest.raises(ValueError, match=r"^Jankov lemma x0 -> ~x0 did not prove; "):
        build_refutation(ds, parse_formula("p"), oracle, [entry])


def test_refutation_k4_with_supplied_family():
    # the modal instantiation works over user-supplied box-free families
    point = frame_from_pairs(Mode.K4, 1, [(0, 0)])
    oracle = tabular_oracle([point])
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
    oracle = tabular_oracle(frames)
    family = jankov_family(3)
    text = render_manifest(build_system(oracle, family), frames, 3, family)
    assert text.splitlines()[:3] == ["mode int", "bound 3", "frame 2 0-0 0-1 1-1"]
    ds, oracle2, family2 = manifest_context(text)
    assert ds == build_system(oracle, family)
    assert [e.formula for e in family2] == [e.formula for e in family]
    assert oracle2(parse_formula("~p | ~~p"))


def test_manifest_rejects_tampered_signs():
    frames = [chain_frame(2)]
    oracle = tabular_oracle(frames)
    family = jankov_family(2)
    text = render_manifest(build_system(oracle, family), frames, 2, family)
    flipped = text.replace("\n- ", "\n+ ", 1)
    with pytest.raises(ValueError):
        manifest_context(flipped)


def point_manifest(bound: int) -> str:
    frames = [point_frame()]
    family = jankov_family(bound)
    return render_manifest(build_system(tabular_oracle(frames), family), frames, bound, family)


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
    assert manifest_context("\n".join(lines) + "\n")[0] == manifest_context(text)[0]


def test_manifest_bound_may_follow_the_marks():
    text = point_manifest(3)
    lines = [line for line in text.splitlines() if not line.startswith("bound ")]
    moved = "\n".join(lines + ["bound 3"]) + "\n"
    assert manifest_context(moved)[0] == manifest_context(text)[0]


def test_manifest_mark_errors():
    flipped = point_manifest(3).replace("\n- ", "\n+ ", 1)
    with pytest.raises(ValueError, match="disagrees with its frames"):
        manifest_context(flipped)
    outside = render(jankov_family(3)[-1].formula)
    with pytest.raises(ValueError, match="not in the family of bound 2"):
        manifest_context(point_manifest(2) + f"+ {outside}\n")
    with pytest.raises(ParseError) as caught:
        manifest_context("mode int\nbound 1\nframe 1 0-0\n- ~~x0 &\n")
    assert (caught.value.line, caught.value.column) == (4, 9)
    assert str(caught.value) == "unexpected end of input (at line 4, column 9)"
