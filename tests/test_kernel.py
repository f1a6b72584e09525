import random
from pathlib import Path

import pytest

from generators import random_mixed_inference
from lukas.formulas import Box, Mode, ParseError, Var, file_lines, parse_formula, render
from lukas.kernel import (
    IPC_AXIOMS,
    AntiAxiom,
    Axiom,
    Hypothesis,
    Inference,
    MP,
    MT,
    NS,
    ProofBuilder,
    RN,
    RS,
    Sb,
    Sign,
    Statement,
    Step,
    asserts,
    check_inference,
    parse_proof_script,
    rejects,
    render_proof_script,
    system,
)


INT = system(Mode.INT)
K4 = system(Mode.K4)


def test_ipc_axioms_fixed_points():
    axioms = IPC_AXIOMS
    assert len(axioms) == 10
    assert axioms[0] == parse_formula("p -> (q -> p)")
    assert parse_formula("bot -> p") in axioms


def test_ipc_axioms_are_theorems():
    from lukas.prover import derive
    for axiom in IPC_AXIOMS:
        assert derive(axiom) is not None, render(axiom)


def test_k4_base_includes_distribution_and_transitivity():
    assert K4.is_positive_axiom(parse_formula("[](p -> q) -> ([]p -> []q)", Mode.K4))
    assert K4.is_positive_axiom(parse_formula("[]p -> [][]p", Mode.K4))
    assert not INT.is_positive_axiom(parse_formula("p | ~p"))


def _mp_example():
    return Inference(
        hypotheses=(asserts(Var("p")),),
        steps=(
            Step(asserts(parse_formula("p -> (q -> p)")), Axiom()),
            Step(asserts(Var("p")), Hypothesis()),
            Step(asserts(parse_formula("q -> p")), MP(1, 2)),
        ),
    )


def test_checker_accepts_mp_example():
    report = check_inference(INT, _mp_example())
    assert report.ok
    assert str(report) == "OK + q -> p"


def test_checker_rejects_foreign_axiom():
    inf = Inference((), (Step(asserts(parse_formula("p -> q")), Axiom()),))
    report = check_inference(INT, inf)
    assert not report.ok and report.step == 1
    assert report.reason == "axiom-not-in-system"


def test_checker_accepts_reverse_substitution():
    hyp = rejects(parse_formula("(a & b) -> (c -> (a & b))"))
    inf = Inference(
        hypotheses=(hyp,),
        steps=(
            Step(hyp, Hypothesis()),
            Step(rejects(parse_formula("p -> (q -> p)")), RS(1)),
        ),
    )
    report = check_inference(INT, inf)
    assert report.ok
    assert str(report.conclusion) == "- p -> q -> p"


def test_checker_flags_bad_indices_and_signs():
    inf = Inference((), (Step(asserts(Var("p")), MP(1, 2)),))
    assert check_inference(INT, inf).reason == "index-out-of-range"

    inf = Inference((), (
        Step(asserts(parse_formula("p -> (q -> p)")), Axiom()),
        Step(rejects(parse_formula("q -> p")), MP(1, 1)),
    ))
    assert check_inference(INT, inf).reason == "sign-mismatch"


def test_modal_rules_refused_in_int_mode():
    from lukas.kernel import NS
    inf = Inference((asserts(Var("p")),), (
        Step(asserts(Var("p")), Hypothesis()),
        Step(asserts(Box(Var("p"))), NS(1)),
    ))
    assert check_inference(INT, inf).reason == "modal-formula-in-int-mode"
    assert check_inference(K4, inf).ok
    # the rule itself is refused even on box-free statements
    boxfree = Inference((asserts(Var("p")),), (
        Step(asserts(Var("p")), Hypothesis()),
        Step(asserts(Var("p")), NS(1)),
    ))
    assert check_inference(INT, boxfree).reason == "modal-rule-in-int-mode"


def test_checker_forward_agreement():
    rng = random.Random(3)
    for _ in range(150):
        inf = random_mixed_inference(rng, INT, length=rng.randrange(2, 12))
        assert check_inference(INT, inf).ok


def test_monotonicity_in_hypotheses():
    inf = _mp_example()
    extended = Inference(inf.hypotheses + (asserts(Var("z")),), inf.steps)
    assert check_inference(INT, extended).ok


def test_prefix_closure():
    rng = random.Random(8)
    for _ in range(40):
        inf = random_mixed_inference(rng, INT, length=rng.randrange(3, 10))
        for cut in range(1, len(inf.steps) + 1):
            prefix = Inference(inf.hypotheses, inf.steps[:cut])
            report = check_inference(INT, prefix)
            assert report.ok
            assert report.conclusion == inf.steps[cut - 1].statement


GOLDEN_SCRIPT = """mode int
hyp + p
1 + p -> q -> p ; ax
2 + p ; hyp
3 + q -> p ; mp 1 2
"""


def test_script_round_trip_bit_exact():
    mode, inf = parse_proof_script(GOLDEN_SCRIPT)
    assert mode is Mode.INT
    assert render_proof_script(mode, inf) == GOLDEN_SCRIPT
    assert check_inference(INT, inf).ok


def test_script_with_substitution_and_comments():
    text = """mode int
# a substitution step
1 + p -> (q -> p) ; ax
2 + (a | b) -> (bot -> (a | b)) ; sb 1 { p := a | b ; q := bot }
"""
    mode, inf = parse_proof_script(text)
    report = check_inference(INT, inf)
    assert report.ok
    again = render_proof_script(mode, inf)
    _, reparsed = parse_proof_script(again)
    assert reparsed == inf


def test_script_rejects_bad_numbering():
    bad = "mode int\n2 + p ; hyp\n"
    with pytest.raises(ParseError):
        parse_proof_script(bad)


def test_random_scripts_round_trip():
    rng = random.Random(21)
    for _ in range(60):
        mode = rng.choice([Mode.INT, Mode.K4])
        ds = INT if mode is Mode.INT else K4
        inf = random_mixed_inference(rng, ds, length=rng.randrange(2, 9))
        text = render_proof_script(mode, inf)
        parsed_mode, parsed = parse_proof_script(text)
        assert parsed_mode is mode
        assert parsed == inf
        assert render_proof_script(parsed_mode, parsed) == text


def test_foreign_justification_is_unknown():
    inf = Inference((), (Step(asserts(Var("p")), "ax"),))
    assert str(check_inference(INT, inf)) == "ERR 1 unknown-justification"


def test_conclude_keeps_only_the_support_of_its_index():
    # 1 ax, 2 hyp, 3 mp 1 2, 4 sb 1 (dead), 5 sb 1, 6 mp 5 3, 7 sb 6 (later)
    hyp = asserts(Var("p"))
    builder = ProofBuilder((hyp,))
    axiom = builder.add(asserts(parse_formula("p -> (q -> p)")), Axiom())
    premise = builder.add(hyp, Hypothesis())
    weakened = builder.apply(MP(axiom, premise))
    builder.apply(Sb.of(axiom, {"p": Var("a"), "q": Var("b")}))
    q_p = parse_formula("q -> p")
    final = builder.apply(MP(builder.apply(Sb.of(axiom, {"p": q_p, "q": q_p})), weakened))
    builder.apply(Sb.of(final, {"q": Var("r")}))
    inf = builder.conclude(final)
    assert render_proof_script(Mode.INT, inf).splitlines()[1:] == [
        "hyp + p",
        "1 + p -> q -> p ; ax",
        "2 + p ; hyp",
        "3 + q -> p ; mp 1 2",
        "4 + (q -> p) -> (q -> p) -> q -> p ; sb 1 { p := q -> p ; q := q -> p }",
        "5 + (q -> p) -> q -> p ; mp 4 3",
    ]
    assert check_inference(INT, inf).conclusion == builder.steps[final - 1].statement
    # the built steps are left as they are, and a full support comes back whole
    assert len(builder.steps) == 7
    whole = ProofBuilder((hyp,))
    whole.splice(inf)
    assert whole.conclude(len(whole.steps)).steps == inf.steps


def test_splice_copies_only_the_support_of_upto():
    inf = _mp_example()             # 1 ax, 2 hyp, 3 mp 1 2
    dead = Inference(inf.hypotheses, inf.steps + (
        Step(asserts(parse_formula("a -> (b -> a)")),
             Sb.of(1, {"p": Var("a"), "q": Var("b")})),))
    builder = ProofBuilder()
    assert builder.splice(dead, upto=4) == 2
    assert [s.justification for s in builder.steps] == [
        Axiom(), Sb.of(1, {"p": Var("a"), "q": Var("b")})]
    assert dead.support(4) == {1, 4}

    # by default the support of the last step: steps 2 to 4 are left out
    last = Sb.of(1, {"p": Var("q")})
    ahead = Inference(inf.hypotheses, dead.steps + (
        Step(asserts(parse_formula("q -> q -> q")), last),))
    builder = ProofBuilder(inf.hypotheses)
    assert builder.splice(ahead) == 2
    assert [s.justification for s in builder.steps] == [Axiom(), last]
    # spliced again, every statement is already there
    assert builder.splice(ahead) == 2 and len(builder.steps) == 2


def _support_by_stack(inf, target):
    """Reference for `Inference.support`: a depth-first walk of the refs."""
    out, stack = set(), [target]
    while stack:
        i = stack.pop()
        if i not in out:
            out.add(i)
            stack.extend(inf.steps[i - 1].justification.refs())
    return out


def _conclude_by_splice(builder, index):
    """Reference for `ProofBuilder.conclude`: the support spliced, step by
    step, into a fresh builder."""
    built = Inference(builder.hypotheses, tuple(builder.steps))
    if index == len(built) and len(_support_by_stack(built, index)) == index:
        return built
    fresh, mapping = ProofBuilder(builder.hypotheses), {}
    for old in sorted(_support_by_stack(built, index)):
        step = built.steps[old - 1]
        mapping[old] = fresh.add(step.statement, step.justification.remap(mapping))
    return Inference(builder.hypotheses, tuple(fresh.steps))


def test_conclude_and_support_agree_with_their_references():
    rng = random.Random(5)
    for _ in range(200):
        builder = ProofBuilder((asserts(Var("h")),))
        for _ in range(rng.randrange(1, 30)):
            rules = [Axiom(), Hypothesis()]
            if builder.steps:
                i, j = (rng.randrange(1, len(builder.steps) + 1) for _ in range(2))
                rules += [MP(i, j), MT(j, i), Sb.of(i, {"p": Var("q")}), RS(j), NS(i)]
            just = rng.choice(rules)
            sign = Sign.ASSERT if rng.random() < 0.7 else Sign.REJECT
            builder.add(Statement(sign, Var(f"v{rng.randrange(40)}")), just)
        built = Inference(builder.hypotheses, tuple(builder.steps))
        for index in range(1, len(built) + 1):
            assert built.support(index) == _support_by_stack(built, index)
            assert builder.conclude(index) == _conclude_by_splice(builder, index)
    for _ in range(100):
        inf = random_mixed_inference(rng, INT, length=rng.randrange(2, 12))
        for index in range(1, len(inf) + 1):
            assert inf.support(index) == _support_by_stack(inf, index)


def test_remap_repoints_every_reference():
    mapping = {1: 5, 2: 7}
    assert MP(1, 2).remap(mapping) == MP(5, 7)
    assert RS(2).remap(mapping) == RS(7)
    assert Sb(1, (("p", Var("q")),)).remap(mapping) == Sb(5, (("p", Var("q")),))
    assert Axiom().remap(mapping) == Axiom() and Axiom().refs() == ()
    assert MP(1, 2).refs() == (1, 2) and RS(2).refs() == (2,)


# --- the script reader ------------------------------------------------------
#
# The reader takes an `mp`, `mt` or `sb` statement from its premises when
# the formula they give renders as the step's text, and parses every other
# text.  Either way a step must read as its own text parsed.

CORPUS_SCRIPTS = sorted(
    (Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "scripts").glob("*.proof"))


def _step_texts(text):
    """The formula text of each step line of a proof script."""
    return [line.split(";", 1)[0].split(None, 2)[2]
            for _number, line in file_lines(text)
            if line.split(None, 1)[0].isdecimal()]


def assert_steps_read_as_parsed(text):
    mode, inf = parse_proof_script(text)
    texts = _step_texts(text)
    assert len(texts) == len(inf.steps)
    for step, formula_text in zip(inf.steps, texts):
        assert step.statement.formula is parse_formula(formula_text, mode), formula_text


def test_corpus_steps_read_as_their_own_text():
    assert len(CORPUS_SCRIPTS) == 320
    for path in CORPUS_SCRIPTS:
        assert_steps_read_as_parsed(path.read_text())


READER_SCRIPT = """mode int
hyp + p & q -> ~r
hyp + p & q
1 + p & q -> ~r ; hyp
2 + p & q ; hyp
3 + {mp} ; mp 1 2
4 + {sb} ; sb 1 {{ p := {rhs} }}
"""
CANONICAL = {"mp": "~r", "sb": "(a -> b) & q -> ~r", "rhs": "a -> b"}


@pytest.mark.parametrize("field, text", [
    ("mp", "~ r"), ("mp", "(~r)"), ("mp", "¬r"), ("mp", "r -> bot"), ("mp", "((r → ⊥))"),
    ("sb", "(a -> b)  &  q  ->  ~r"), ("sb", "((a -> b) & q) -> (~r)"),
    ("sb", "(a → b) ∧ q → ¬r"), ("rhs", "(a → b)"), ("rhs", "  a->b  "),
])
def test_reader_falls_back_to_parsing_other_spellings(field, text):
    canonical = parse_proof_script(READER_SCRIPT.format(**CANONICAL))
    script = READER_SCRIPT.format(**{**CANONICAL, field: text})
    assert parse_proof_script(script) == canonical
    assert check_inference(INT, canonical[1]).ok
    assert_steps_read_as_parsed(script)


@pytest.mark.parametrize("lines, err", [
    (["hyp + p & q", "hyp + p", "1 + p & q ; hyp", "2 + p ; hyp", "3 + q ; mp 1 2"],
     "ERR 3 formula-mismatch"),
    (["hyp + p", "1 + p -> q -> p ; ax", "2 + p ; hyp", "3 + q -> q ; mp 1 2"],
     "ERR 3 formula-mismatch"),
    (["hyp + p", "1 + p ; hyp", "2 + q ; mp 3 1", "3 + p -> q ; ax"],
     "ERR 2 index-out-of-range"),
    (["1 + p -> q -> p ; ax", "2 + a -> b -> a ; sb 3 { p := a ; q := b }",
      "3 + p -> p ; ax"], "ERR 2 index-out-of-range"),
    (["1 + p -> q -> p ; ax", "2 + a -> b -> a ; sb 2 { p := a ; q := b }"],
     "ERR 2 index-out-of-range"),
    (["1 + p -> q -> p ; ax", "2 + a -> b -> a ; sb 9 { p := a ; q := b }"],
     "ERR 2 index-out-of-range"),
    (["1 + p -> q -> p ; ax", "2 + a -> b -> a ; sb 0 { p := a ; q := b }"],
     "ERR 2 index-out-of-range"),
    (["hyp + p & q", "hyp - q", "1 + p & q ; hyp", "2 - q ; hyp", "3 - p ; mt 1 2"],
     "ERR 3 formula-mismatch"),
], ids=["mp-major-not-implication", "mp-text-not-major-right", "mp-forward",
        "sb-forward", "sb-self", "sb-out-of-range", "sb-zero", "mt-major-not-implication"])
def test_reader_leaves_bad_steps_to_the_checker(lines, err):
    text = "mode int\n" + "\n".join(lines) + "\n"
    assert_steps_read_as_parsed(text)
    assert str(check_inference(INT, parse_proof_script(text)[1])) == err


def test_reader_takes_modal_conclusions_in_k4():
    text = ("mode k4\nhyp - [](p & q)\n1 + p -> q -> p ; ax\n2 + [](p -> q -> p) ; ns 1\n"
            "3 + [][](p -> q -> p) ; ns 2\n4 - [](p & q) ; hyp\n5 - p & q ; rn 4\n"
            "6 - p & q ; rn 3\n")
    assert_steps_read_as_parsed(text)
    assert str(check_inference(K4, parse_proof_script(text)[1])) == "ERR 6 sign-mismatch"


def test_builder_applies_a_rule_to_the_steps_it_names():
    hyp = rejects(parse_formula("b -> a"))
    builder = ProofBuilder((hyp,))
    axiom = builder.add(asserts(parse_formula("p -> (q -> p)")), Axiom())
    instance = builder.apply(Sb.of(axiom, {"p": Var("a"), "q": Var("b")}))
    assert builder.steps[instance - 1].statement == asserts(parse_formula("a -> b -> a"))
    rejected = builder.add(hyp, Hypothesis())
    conclusion = builder.apply(MT(instance, rejected))
    assert builder.steps[conclusion - 1].statement == rejects(Var("a"))
    assert builder.apply(MT(instance, rejected)) == conclusion == len(builder.steps)
    assert check_inference(INT, builder.conclude(conclusion)).ok


EARLIER = """mode int
hyp + (a | b) & c
1 + p -> q -> p ; ax
2 + (a | b) & c -> d -> (a | b) & c ; sb 1 {{ p := (a | b) & c ; q := d }}
3 + (a | b) & c ; hyp
4 + {mp} ; mp 2 3
5 + {sb} ; sb 1 {{ p := {rhs} ; q := c }}
"""
EARLIER_CANONICAL = {"mp": "d -> (a | b) & c", "sb": "a | b -> c -> a | b", "rhs": "a | b"}


def _recording(monkeypatch, name):
    """The argument tuples of every call to `lukas.kernel.<name>`."""
    import lukas.kernel
    calls = []
    inner = getattr(lukas.kernel, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(lukas.kernel, name, wrapper)
    return calls


def test_reader_takes_earlier_subformulas_without_parsing(monkeypatch):
    """An `mp` statement and a substitution entry that spell a subformula of
    an earlier step read as that formula, with neither the parser nor the
    rule table asked; they are the objects a parse gives.  So does the
    base axiom of the `ax` step."""
    text = EARLIER.format(**EARLIER_CANONICAL)
    parses, givens = _recording(monkeypatch, "parse_formula_at"), _recording(monkeypatch, "_given")
    _mode, inf = parse_proof_script(text)
    assert [text.strip() for text, _mode, _offset in parses] == ["(a | b) & c", "d"]
    assert [text for *_, text in givens] == [
        "(a | b) & c -> d -> (a | b) & c", "a | b -> c -> a | b"]
    assert dict(inf.steps[4].justification.mapping)["p"] is parse_formula("a | b")
    assert inf.steps[3].statement.formula is parse_formula("d -> (a | b) & c")
    assert check_inference(INT, inf).ok
    assert_steps_read_as_parsed(text)


def test_reader_takes_base_axioms_without_parsing(monkeypatch):
    """No `ax` step that states a base axiom of its script's mode, in any
    stored corpus script, reaches the parser."""
    parses = _recording(monkeypatch, "parse_formula_at")
    stated = 0
    for path in CORPUS_SCRIPTS:
        script = path.read_text()
        del parses[:]
        mode, inf = parse_proof_script(script)
        texts = {text.strip() for text, _mode, _offset in parses}
        base = system(mode).base_axioms
        for step, text in zip(inf.steps, _step_texts(script)):
            if isinstance(step.justification, Axiom) and step.statement.formula in base:
                stated += 1
                assert text.strip() not in texts, (path.name, text)
    assert stated > 1000


def test_reader_axiom_tables_keep_to_their_mode(monkeypatch):
    """A K4 axiom reads without a parse in a k4 script, and is still a
    modality error at its column in an int script."""
    line = "1 + []p -> [][]p ; ax\n"
    parses = _recording(monkeypatch, "parse_formula_at")
    mode, inf = parse_proof_script("mode k4\n" + line)
    assert parses == []
    assert inf.steps[0].statement.formula is parse_formula("[]p -> [][]p", Mode.K4)
    assert check_inference(K4, inf).ok
    with pytest.raises(ParseError) as err:
        parse_proof_script("mode int\n" + line)
    assert (err.value.message, err.value.line, err.value.column) == (
        "modality not allowed in int mode", 2, 5)


@pytest.mark.parametrize("field, text", [
    ("mp", "d  ->  (a | b) & c"), ("mp", "d -> ((a | b) & c)"), ("mp", "d → (a ∨ b) ∧ c"),
    ("rhs", "  a | b  "), ("rhs", "(a | b)"), ("rhs", "a ∨ b"), ("rhs", "a|b"),
])
def test_reader_parses_other_spellings_of_earlier_subformulas(field, text):
    canonical = parse_proof_script(EARLIER.format(**EARLIER_CANONICAL))
    script = EARLIER.format(**{**EARLIER_CANONICAL, field: text})
    assert parse_proof_script(script) == canonical
    assert_steps_read_as_parsed(script)


@pytest.mark.parametrize("field, text, column", [
    ("rhs", "(a | b", 46), ("rhs", "a | b)", 44), ("mp", "d -> (a | b) &", 20),
])
def test_reader_errors_near_earlier_subformulas_name_line_and_column(field, text, column):
    script = EARLIER.format(**{**EARLIER_CANONICAL, field: text})
    with pytest.raises(ParseError) as err:
        parse_proof_script(script)
    assert (err.value.line, err.value.column) == (6 if field == "mp" else 7, column)


def test_reader_parses_what_is_too_deep_to_render():
    # a left-nested chain parses without recursion, but renders with it
    chain = " & ".join(["q"] * 1500)
    text = (f"mode int\nhyp + p -> {chain}\nhyp + p\n"
            f"1 + p -> {chain} ; hyp\n2 + p ; hyp\n3 + {chain} ; mp 1 2\n"
            f"4 + {chain.replace('q', 'r')} ; sb 3 {{ q := r }}\n")
    _, inf = parse_proof_script(text)
    assert_steps_read_as_parsed(text)
    assert check_inference(INT, Inference(inf.hypotheses, inf.steps[:3])).ok


@pytest.mark.parametrize("step, column", [
    ("2 + []p ; mp 1 1", 5),
    ("2 + q -> p ; sb 1 { q := []q }", 26),
    ("2 + [](p -> q -> p) ; ns 1", 5),
])
def test_modality_in_an_int_script_names_line_and_column(tmp_path, capsys, step, column):
    from lukas.cli import main
    path = tmp_path / "box.proof"
    path.write_text(f"mode int\n1 + p -> q -> p ; ax\n{step}\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: modality not allowed in int mode (at line 3, column {column})"


# --- pinned verdicts --------------------------------------------------------
#
# The checker's verdict on every corpus script and on seeded mutations of
# each, pinned by digest: a rewrite of the checker must give byte-identical
# reports.

VERDICT_DIGEST = "676a3f5a53cbedef4af2e5c988f491e68bf415cef832c863b54f0cdcc983365e"
_SWAPS = (lambda a, b: Axiom(), lambda a, b: AntiAxiom(), lambda a, b: Hypothesis(),
          MP, MT, lambda a, b: Sb(a, ()), lambda a, b: RS(a), lambda a, b: NS(a),
          lambda a, b: RN(a))


def _mutate(rng, inf):
    """`inf` with one step's justification replaced, its sign flipped, or its
    justification or statement taken from another step; or None, for the
    unchanged inference checked in k4 mode."""
    steps = list(inf.steps)
    n, other = rng.randrange(len(steps)), rng.choice(steps)
    statement, just = steps[n].statement, steps[n].justification
    kind = rng.randrange(5)
    if kind == 0:
        just = rng.choice(_SWAPS)(rng.randrange(n + 3), rng.randrange(n + 3))
    elif kind == 1:
        statement = statement.opposite()
    elif kind == 2:
        just = other.justification
    elif kind == 3:
        statement = other.statement
    else:
        return None
    steps[n] = Step(statement, just)
    return Inference(inf.hypotheses, tuple(steps))


def test_checker_verdicts_on_mutated_corpus_are_pinned():
    import hashlib
    from lukas.complete_sets import manifest_context
    manifest = CORPUS_SCRIPTS[0].parent.parent / "cpc.ds"
    cpc, _oracle, _family = manifest_context(manifest.read_text())
    rng = random.Random(7)
    verdicts = []
    for path in CORPUS_SCRIPTS:
        _mode, inf = parse_proof_script(path.read_text())
        verdicts.append(str(check_inference(cpc, inf)))
        for _ in range(12):
            mutant = _mutate(rng, inf)
            verdicts.append(str(check_inference(cpc, mutant) if mutant
                                else check_inference(K4, inf)))
    assert len(verdicts) == 320 * 13
    assert {v.split()[0] if v.startswith("OK") else v.split()[2] for v in verdicts} == {
        "OK", "sign-mismatch", "formula-mismatch", "axiom-not-in-system",
        "index-out-of-range", "modal-rule-in-int-mode", "hypothesis-not-present",
        "rs-no-match"}
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert digest == VERDICT_DIGEST
