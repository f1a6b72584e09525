"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete."""

import contextlib
import io
import random
import time

from conftest import frame_validates
from generators import random_formula, random_mixed_inference, random_refutable_instance, tautology
from lukas.cli import main as cli_main
from lukas.complete_sets import (
    RefutationPreconditionError,
    build_positive_cpc,
    build_refutation,
    build_system,
    cpc_context,
    jankov_family,
    jankov_formula,
    render_manifest,
)
from lukas.formulas import Mode, parse_formula, render
from lukas.kernel import NS, RN, Sign, check_inference, rejects, render_proof_script, system
from lukas.semantics import (
    Budget,
    chain_frame,
    check_adequacy,
    enumerate_rooted_posets,
    frame_from_pairs,
    frame_valid,
    model_validates,
    p_morphic_reduct_exists,
    point_frame,
    tabular_oracle,
)
from lukas.transforms import extract_positive, symmetry_transform

WIDE = Budget(max_worlds=8, max_vars=8)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_rule_soundness():
    """10,000 fuzzed inferences in the classical system; every derived
    statement valid on the one-point characteristic frame; under 60 s."""
    ds, _oracle, _family, frame, _template = cpc_context()
    rng = random.Random(20260801)
    start = time.monotonic()
    violations = 0
    for k in range(10_000):
        inf = random_mixed_inference(rng, ds, length=rng.randrange(2, 12))
        report = check_inference(ds, inf)
        assert report.ok, str(report)
        for step in inf.steps:
            if not frame_validates(frame, step.statement, WIDE):
                violations += 1
    elapsed = time.monotonic() - start
    _report("criterion 1 (rule soundness)",
            violations == 0 and elapsed < 60,
            f"10000 inferences, {violations} violations, {elapsed:.1f}s")


def test_criterion_2_positive_extraction():
    """1,000 mixed inferences with positive hypotheses and conclusion;
    extraction checks, is all-positive, and never grows; under 30 s."""
    anti = parse_formula("~~p -> p")
    ds = system(Mode.INT, anti=[anti])
    from lukas.kernel import asserts
    rng = random.Random(77)
    start = time.monotonic()
    done = 0
    while done < 1000:
        hyps = tuple(asserts(random_formula(rng, ("a", "b"), depth=2))
                     for _ in range(rng.randrange(0, 3)))
        inf = random_mixed_inference(rng, ds, hypotheses=hyps,
                                     length=rng.randrange(3, 14))
        positives = [n for n, s in enumerate(inf.steps, 1)
                     if s.statement.sign is Sign.ASSERT]
        if not positives:
            continue
        trimmed_steps = inf.steps[:positives[-1]]
        from lukas.kernel import Inference
        trimmed = Inference(inf.hypotheses, trimmed_steps)
        done += 1
        extracted = extract_positive(trimmed)
        report = check_inference(ds, extracted)
        assert report.ok, str(report)
        assert report.conclusion == trimmed.conclusion
        assert all(s.statement.sign is Sign.ASSERT for s in extracted.steps)
        assert len(extracted.steps) <= len(trimmed.steps)
    elapsed = time.monotonic() - start
    _report("criterion 2 (positive extraction)",
            elapsed < 30, f"1000 extractions checked, {elapsed:.1f}s")


def test_criterion_3_symmetry_intuitionistic():
    """500 generated instances over the classical and three-chain tabular
    oracles; a checker-passing refutation of one hypothesis every time,
    under 2 s per case."""
    family = jankov_family(3)
    configs = [
        (tabular_oracle([point_frame()], WIDE),),
        (tabular_oracle([chain_frame(3)], WIDE),),
    ]
    start = time.monotonic()
    worst = 0.0
    total = 0
    for (oracle,) in configs:
        ds = build_system(oracle, family)
        rng = random.Random(42)
        done = 0
        while done < 250:
            inst = random_refutable_instance(rng, ds, oracle)
            if inst is None:
                continue
            done += 1
            total += 1
            t0 = time.monotonic()
            index, ref = symmetry_transform(inst, oracle)
            case = time.monotonic() - t0
            worst = max(worst, case)
            report = check_inference(ds, ref)
            assert report.ok, str(report)
            assert report.conclusion == rejects(inst.hypotheses[index - 1].formula)
            assert ref.hypotheses == (rejects(inst.conclusion.formula),)
    elapsed = time.monotonic() - start
    _report("criterion 3 (symmetry, Int)",
            total == 500 and worst < 2.0,
            f"500 cases, worst {worst*1000:.0f}ms, total {elapsed:.1f}s")


def test_criterion_3_symmetry_k4():
    """200 instances over the one-reflexive-point modal oracle with the
    necessitation case exercised; 100% checker-passing."""
    point = frame_from_pairs(Mode.K4, 1, [(0, 0)])
    oracle = tabular_oracle([point], WIDE)
    ds = system(Mode.K4)
    rng = random.Random(99)
    done = 0
    ns_cases = 0
    rn_used = 0
    start = time.monotonic()
    while done < 200:
        inst = random_refutable_instance(rng, ds, oracle,
                                         hyp_major_ok=False, length=11)
        if inst is None:
            continue
        done += 1
        if any(isinstance(s.justification, NS) for s in inst.steps):
            ns_cases += 1
        index, ref = symmetry_transform(inst, oracle)
        report = check_inference(ds, ref)
        assert report.ok, str(report)
        assert report.conclusion == rejects(inst.hypotheses[index - 1].formula)
        if any(isinstance(s.justification, RN) for s in ref.steps):
            rn_used += 1
    elapsed = time.monotonic() - start
    _report("criterion 3 (symmetry, K4)",
            ns_cases > 0 and rn_used > 0,
            f"200 cases, {ns_cases} with necessitation, "
            f"{rn_used} refutations via reverse necessitation, {elapsed:.1f}s")


def test_criterion_4_jankov_characterization():
    """Exhaustive over rooted posets up to 4 worlds: the Jankov formula of f
    fails on g exactly when f is a p-morphic reduct of g; under 5 min."""
    frames = enumerate_rooted_posets(4)
    start = time.monotonic()
    mismatches = 0
    for f in frames:
        x = jankov_formula(f)
        for g in frames:
            if frame_valid(g, x, WIDE) != (not p_morphic_reduct_exists(g, f)):
                mismatches += 1
    elapsed = time.monotonic() - start
    _report("criterion 4 (Jankov characterization)",
            mismatches == 0 and elapsed < 300,
            f"{len(frames)**2} pairs, {mismatches} mismatches, {elapsed:.1f}s")


THEOREMS = [
    "p -> p", "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "p & q -> p", "p -> (q -> p & q)", "p -> p | q",
    "(p -> r) -> ((q -> r) -> (p | q -> r))", "bot -> p",
    "~~(p | ~p)", "~~(~~p -> p)", "(p -> q) -> (~q -> ~p)",
    "~(p | q) -> ~p & ~q", "~p & ~q -> ~(p | q)", "~p | ~q -> ~(p & q)",
    "p & (q | r) -> (p & q) | (p & r)", "(p & q) | (p & r) -> p & (q | r)",
    "p | (q & r) -> (p | q) & (p | r)", "(p | q) & (p | r) -> p | (q & r)",
    "~~~p -> ~p", "~p -> ~~~p",
    "(p -> (q -> r)) -> (q -> (p -> r))",
    "(p -> q) -> ((q -> r) -> (p -> r))",
    "p -> ~~p", "~~(p & q) -> ~~p & ~~q", "~~p & ~~q -> ~~(p & q)",
    "(p -> ~p) -> ~p", "(~p -> p) -> ~~p",
    "((p | ~p) -> q) -> ~~q", "~~(p -> q) -> (~~p -> ~~q)",
    "((p -> q) -> r) -> (p -> (q -> r))",
]

CLASSICAL_ONLY = [
    "p | ~p", "~~p -> p", "((p -> q) -> p) -> p",
    "~p | ~~p", "(p -> q) | (q -> p)", "(~q -> ~p) -> (p -> q)",
    "~(p & q) -> ~p | ~q", "(p -> q) -> (~p | q)",
    "((p -> q) -> q) -> p | q", "(~p -> q) -> (~q -> p)",
]


def test_criterion_5_prover_regression():
    """30 theorems proved and their inferences checked;
    10 classical-only formulas get verified countermodels of at most 5
    worlds; under 60 s total."""
    from lukas.prover import prove_ipc
    ds = system(Mode.INT)
    assert len(THEOREMS) == 30 and len(CLASSICAL_ONLY) == 10
    start = time.monotonic()
    for text in THEOREMS:
        f = parse_formula(text)
        result = prove_ipc(f)
        assert result.proved, text
        report = check_inference(ds, result.derivation)
        assert report.ok and report.conclusion.formula == f, text
    for text in CLASSICAL_ONLY:
        f = parse_formula(text)
        result = prove_ipc(f)
        assert not result.proved, text
        model = result.countermodel
        assert model is not None and model.frame.n <= 5, text
        assert model_validates(model, rejects(f)), text
    elapsed = time.monotonic() - start
    _report("criterion 5 (prover regression)",
            elapsed < 60, f"30 theorems + 10 countermodels, {elapsed:.1f}s")


def _standardness_corpus(count: int = 2000) -> list:
    """Deterministic sample of distinct {p,q} formulas with <= 6 connectives."""
    rng = random.Random(1234)
    seen = set()
    corpus = []
    while len(corpus) < count:
        f = random_formula(rng, ("p", "q"), depth=3)
        connectives = render(f).count("&") + render(f).count("|") + \
            render(f).count("->") + render(f).count("~")
        if connectives > 6 or f in seen:
            continue
        seen.add(f)
        corpus.append(f)
    return corpus


def _refused(build) -> bool:
    """Whether `build()` declines with a RefutationPreconditionError."""
    try:
        build()
    except RefutationPreconditionError:
        return True
    return False


def test_criterion_6_standardness_at_desk_scale(tmp_path):
    """On ~2,000 two-variable formulas, exactly one of the positive builder
    and the refutation builder succeeds, the split matches the truth-table
    oracle, and every emitted proof passes the command-line checker; under
    10 min."""
    ds, oracle, family, frame, _template = cpc_context()
    manifest = tmp_path / "cpc.ds"
    manifest.write_text(render_manifest(Mode.INT, [frame], 3, family, oracle))
    proof_path = tmp_path / "current.proof"
    corpus = _standardness_corpus()
    start = time.monotonic()
    split_errors = 0
    check_errors = 0
    for f in corpus:
        classical = tautology(f)
        positive = lambda: build_positive_cpc(f)                     # noqa: E731
        negative = lambda: build_refutation(ds, f, oracle, family)   # noqa: E731
        expected, other = (positive, negative) if classical else (negative, positive)
        try:
            inf = expected()
        except RefutationPreconditionError:
            inf = None
        if inf is None or not _refused(other):
            split_errors += 1
        if inf is None:
            continue
        expected = ("+ " if classical else "- ") + render(f)
        proof_path.write_text(render_proof_script(Mode.INT, inf))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(["check", str(proof_path), "--system", str(manifest)])
        verdict = buffer.getvalue().splitlines()[0]
        if code != 0 or verdict != f"OK {expected}":
            check_errors += 1
    elapsed = time.monotonic() - start
    _report("criterion 6 (standardness at desk scale)",
            split_errors == 0 and check_errors == 0 and elapsed < 600,
            f"{len(corpus)} formulas, {split_errors} split errors, "
            f"{check_errors} check errors, {elapsed:.1f}s")


def test_criterion_7_adequacy_certification():
    """Axiomatizer output is adequate on its defining frames for the
    classical, two-chain, and three-chain logics; under 10 s."""
    family = jankov_family(3)
    start = time.monotonic()
    ok = True
    for frame in (point_frame(), chain_frame(2), chain_frame(3)):
        oracle = tabular_oracle([frame], WIDE)
        ds = build_system(oracle, family)
        ok = ok and check_adequacy(frame, ds, WIDE)
    elapsed = time.monotonic() - start
    _report("criterion 7 (adequacy certification)",
            ok and elapsed < 10, f"3 systems certified, {elapsed:.1f}s")
