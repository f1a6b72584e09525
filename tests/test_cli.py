import json
from pathlib import Path

import pytest

from lukas.cli import main
from lukas.formulas import Var
from lukas.kernel import Axiom, Hypothesis, Inference, Step, parse_proof_script, rejects

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ok.proof").write_text(
        "mode int\n"
        "hyp + p\n"
        "1 + p -> q -> p ; ax\n"
        "2 + p ; hyp\n"
        "3 + q -> p ; mp 1 2\n")
    (tmp_path / "bad.proof").write_text(
        "mode int\n"
        "1 + p -> q ; ax\n")
    (tmp_path / "chain2.frame").write_text(
        "mode int\nworlds 2\nrel 0 1\n")
    (tmp_path / "model.kripke").write_text(
        "mode int\nworlds 2\nrel 0 1\nval p 1\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_golden(workdir, capsys):
    code, out = run(capsys, "check", str(workdir / "ok.proof"))
    assert code == 0
    assert out.splitlines()[0] == "OK + q -> p"


def test_check_negative_verdict(workdir, capsys):
    code, out = run(capsys, "check", str(workdir / "bad.proof"))
    assert code == 1
    assert out.startswith("ERR 1 axiom-not-in-system")


def test_valid_frame(workdir, capsys):
    code, out = run(capsys, "valid", "--frame", str(workdir / "chain2.frame"),
                    "~~p -> p")
    assert code == 1 and out.strip() == "INVALID"
    code, out = run(capsys, "valid", "--frame", str(workdir / "chain2.frame"),
                    "~p | ~~p")
    assert code == 0 and out.strip() == "VALID"


def test_valid_model(workdir, capsys):
    code, out = run(capsys, "valid", "--model", str(workdir / "model.kripke"),
                    "~~p")
    assert code == 0 and out.strip() == "VALID"


def test_json_mirrors_text(workdir, capsys):
    code, out = run(capsys, "--format", "json", "valid",
                    "--frame", str(workdir / "chain2.frame"), "~~p -> p")
    assert code == 1
    assert json.loads(out) == {"verdict": "INVALID"}


def test_jankov_output(workdir, capsys):
    code, out = run(capsys, "jankov", "--frame", str(workdir / "chain2.frame"))
    assert code == 0
    from lukas.complete_sets import jankov_formula
    from lukas.formulas import render
    from lukas.semantics import chain_frame
    assert out.strip() == render(jankov_formula(chain_frame(2)))


def test_axiomatize_refute_check_pipeline(workdir, capsys):
    code, out = run(capsys, "axiomatize", "--frames", str(workdir / "chain2.frame"))
    assert code == 0
    manifest = workdir / "chain2.ds"
    manifest.write_text(out)

    code, out = run(capsys, "refute", "--system", str(manifest), "p | ~p")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "REFUTED"
    proof = workdir / "refutation.proof"
    proof.write_text("\n".join(lines[1:]) + "\n")

    code, out = run(capsys, "check", str(proof), "--system", str(manifest))
    assert code == 0
    assert out.strip() == "OK - p | ~p"


def test_refute_on_derivable_formula(workdir, capsys):
    code, out = run(capsys, "axiomatize", "--frames", str(workdir / "chain2.frame"))
    manifest = workdir / "chain2.ds"
    manifest.write_text(out)
    code, out = run(capsys, "refute", "--system", str(manifest), "p -> p")
    assert code == 1
    assert out.strip() == "DERIVABLE"


def test_prove_cpc_round_trip(workdir, capsys):
    code, out = run(capsys, "prove-cpc", "p | ~p")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PROVED"
    proof = workdir / "cpc.proof"
    proof.write_text("\n".join(lines[1:]) + "\n")
    # the script uses classical-system axioms, so check against its manifest
    from lukas.complete_sets import cpc_context, render_manifest
    from lukas.formulas import Mode
    ds, oracle, family, frame, _template = cpc_context()
    manifest = workdir / "cpc.ds"
    manifest.write_text(render_manifest(Mode.INT, [frame], 3, family, oracle))
    code, out = run(capsys, "check", str(proof), "--system", str(manifest))
    assert code == 0 and out.strip() == "OK + p | ~p"
    code, out = run(capsys, "prove-cpc", "p -> q")
    assert code == 1 and out.strip() == "NOT-VALID"


def test_ipc_theorem_and_countermodel(workdir, capsys):
    code, out = run(capsys, "ipc", "p -> p")
    assert code == 0
    assert out.splitlines()[0] == "THEOREM"
    proof = workdir / "ipc.proof"
    proof.write_text("\n".join(out.splitlines()[1:]) + "\n")
    code, out = run(capsys, "check", str(proof))
    assert code == 0

    code, out = run(capsys, "ipc", "~~p -> p")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "COUNTERMODEL"
    from lukas.semantics import parse_model_file, model_validates
    from lukas.kernel import rejects
    from lukas.formulas import parse_formula
    model = parse_model_file("\n".join(lines[1:]) + "\n")
    assert model_validates(model, rejects(parse_formula("~~p -> p")))


def test_transform_extract(workdir, capsys):
    (workdir / "mixed.proof").write_text(
        "mode int\n"
        "hyp + a\n"
        "1 + a ; hyp\n"
        "2 + p -> q -> p ; ax\n"
        "3 + a -> b -> a ; sb 2 { p := a ; q := b }\n"
        "4 + b -> a ; mp 3 1\n")
    code, out = run(capsys, "transform", "extract", str(workdir / "mixed.proof"))
    assert code == 0
    assert out.splitlines()[0] == "EXTRACTED"


def test_transform_symmetry(workdir, capsys):
    (workdir / "positive.proof").write_text(
        "mode int\n"
        "hyp + p\n"
        "hyp + p -> q\n"
        "1 + p -> q ; hyp\n"
        "2 + p ; hyp\n"
        "3 + q ; mp 1 2\n")
    code, out = run(capsys, "transform", "symmetry", str(workdir / "positive.proof"),
                    "--frames", str(workdir / "chain2.frame"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("REFUTATION")
    assert lines[1].startswith("# refutes hypothesis ")
    proof = workdir / "sym.proof"
    proof.write_text("\n".join(lines[1:]) + "\n")
    code, out = run(capsys, "check", str(proof))
    assert code == 0


def test_transform_symmetry_checks_its_input(workdir, capsys):
    # step 3 is dead, so only the check of the whole input can see it
    (workdir / "wrong.proof").write_text(
        "mode int\n"
        "hyp + p\n"
        "hyp + p -> q\n"
        "1 + p -> q ; hyp\n"
        "2 + p ; hyp\n"
        "3 + r ; mp 1 2\n"
        "4 + q ; mp 1 2\n")
    code = main(["transform", "symmetry", str(workdir / "wrong.proof"),
                 "--frames", str(workdir / "chain2.frame")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: input inference fails checking: ERR 3 formula-mismatch\n"


def test_transform_symmetry_checks_its_output(workdir, capsys, monkeypatch):
    import lukas.cli
    unsound = Inference((rejects(Var("q")),), (Step(rejects(Var("p")), Hypothesis()),))
    monkeypatch.setattr(lukas.cli, "symmetry_transform", lambda inf, oracle: (1, unsound))
    code = main(["transform", "symmetry", str(workdir / "ok.proof"),
                 "--frames", str(workdir / "chain2.frame")])
    captured = capsys.readouterr()
    assert code == 2 and "REFUTATION" not in captured.out
    assert captured.err == ("error: constructed refutation fails checking: "
                            "ERR 1 hypothesis-not-present\n")


def test_refute_reports_an_unsound_refutation_as_an_error(capsys, monkeypatch):
    """A refutation that fails its final check is a defect, not "not found"."""
    import lukas.complete_sets
    transform = lukas.complete_sets.symmetry_transform

    def broken(inf, oracle):
        index, ref = transform(inf, oracle)
        return index, Inference(ref.hypotheses,
                                ref.steps[:-1] + (Step(ref.conclusion, Axiom()),))

    monkeypatch.setattr(lukas.complete_sets, "symmetry_transform", broken)
    code = main(["refute", "--system", str(CORPUS / "cpc.ds"), "p | ~q"])
    captured = capsys.readouterr()
    assert code == 2 and "REFUTED" not in captured.out
    assert captured.err.startswith("error: discharged refutation fails checking: ERR ")


def test_usage_error_exit_code(workdir, capsys):
    assert main(["valid", "nonsense formula ->"]) == 2
    assert main(["check", str(workdir / "missing.proof")]) == 2
    assert main(["check", str(workdir)]) == 2


@pytest.mark.parametrize("directive", ["mode", "bound", "frame"])
def test_manifest_directive_without_value_is_a_parse_error(workdir, capsys, directive):
    lines = {"mode": "mode int", "bound": "bound 3", "frame": "frame 1 0-0"}
    lines[directive] = directive
    (workdir / "bare.ds").write_text("\n".join(lines.values()) + "\n")
    assert main(["check", str(workdir / "ok.proof"), "--system", str(workdir / "bare.ds")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(directive) in err


@pytest.mark.parametrize("bad, number", [
    ("mode xyz", 1), ("bound x", 2), ("frame 1 0_0", 3), ("frame 1 0-5", 3),
], ids=["mode", "bound", "frame-edge", "frame-range"])
def test_manifest_value_errors_name_the_line(workdir, capsys, bad, number):
    lines = ["mode int", "bound 3", "frame 1 0-0"]
    lines[number - 1] = bad
    (workdir / "bad.ds").write_text("\n".join(lines) + "\n")
    assert main(["check", str(workdir / "ok.proof"), "--system", str(workdir / "bad.ds")]) == 2
    err = capsys.readouterr().err
    directive = bad.split()[0]
    assert err.startswith(f"error: manifest directive {directive!r}")
    assert err.rstrip().endswith(f"(at line {number})")


@pytest.mark.parametrize("name, text, argv, stderr, record", [
    (None, None, ["ipc", "p -> "], "error: unexpected end of input (at position 5)",
     {"error": "unexpected end of input", "exit": 2, "position": 5}),
    ("step.proof", "mode int\n1 + p -> ; ax\n", ["check", "{path}"],
     "error: unexpected end of input (at line 2, column 10)",
     {"error": "unexpected end of input", "exit": 2, "line": 2, "column": 10}),
    ("deep.proof", "mode int\n1 + " + "~" * 5000 + "p ; ax\n", ["check", "{path}"],
     "resource bound: formula nesting exceeds the recursion limit",
     {"error": "formula nesting exceeds the recursion limit", "exit": 3}),
    ("empty.proof", "# nothing\n", ["check", "{path}"], "error: empty proof script",
     {"error": "empty proof script", "exit": 2}),
    ("short.ds", "mode int\nbound 1\n", ["check", "{dir}/ok.proof", "--system", "{path}"],
     "error: manifest needs mode, bound and at least one frame",
     {"error": "manifest needs mode, bound and at least one frame", "exit": 2}),
    ("k4.ds", "mode k4\nbound 1\nframe 1\n- ~~x0\n",
     ["check", "{dir}/ok.proof", "--system", "{path}"], "error: proof and system modes differ",
     {"error": "proof and system modes differ", "exit": 2}),
    (None, None, ["transform", "symmetry", "{dir}/ok.proof"],
     "error: transform symmetry needs --system or --frames",
     {"error": "transform symmetry needs --system or --frames", "exit": 2}),
], ids=["formula", "proof-script", "resource-bound", "empty-proof-script",
        "manifest-incomplete", "proof-system-modes-differ", "symmetry-without-oracle"])
def test_json_errors_are_records(workdir, capsys, name, text, argv, stderr, record):
    path = workdir / (name or "unused")
    if text is not None:
        path.write_text(text)
    code = main(["--format", "json"] + [a.format(path=path, dir=workdir) for a in argv])
    captured = capsys.readouterr()
    assert code == record["exit"]
    assert captured.err.rstrip("\n") == stderr
    assert json.loads(captured.out) == record


def test_hypothesis_without_formula_is_a_parse_error(workdir, capsys):
    (workdir / "hyp.proof").write_text("mode int\nhyp +\n1 + p ; hyp\n")
    assert main(["check", str(workdir / "hyp.proof")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: hyp needs a sign and a formula")


@pytest.mark.parametrize("extra, keep_marks", [("+ q\n", True), ("", False)],
                         ids=["extra-mark", "missing-mark"])
def test_manifest_must_mark_exactly_its_family(workdir, capsys, extra, keep_marks):
    (workdir / "point.frame").write_text("mode int\nworlds 1\n")
    code, out = run(capsys, "axiomatize", "--frames", str(workdir / "point.frame"),
                    "--bound", "1")
    assert code == 0
    lines = [line for line in out.splitlines(keepends=True)
             if keep_marks or line[0] not in "+-"]
    (workdir / "point.ds").write_text("".join(lines) + extra)
    assert main(["check", str(workdir / "ok.proof"),
                 "--system", str(workdir / "point.ds")]) == 2
    assert capsys.readouterr().err.startswith("error: manifest ")


@pytest.mark.parametrize("name, text, argv, where", [
    ("step.proof", "mode int\n1 + p -> ; ax\n", ["check", "{path}"],
     "(at line 2, column 10)"),
    ("rel.frame", "mode int\nworlds 2\n\nrel 0 x\n", ["valid", "--frame", "{path}", "p"],
     "(at line 4)"),
    ("sign.ds", "mode int\nbound 1\nframe 1 0-0\n+\n",
     ["check", "{dir}/ok.proof", "--system", "{path}"], "(at line 4)"),
    ("index.proof", "mode int\n1 + p ; ax\n2 + p ; mp 1 \u00b2\n", ["check", "{path}"],
     "(at line 3)"),
    ("worlds.frame", "mode int\nworlds \u00b2\n", ["valid", "--frame", "{path}", "p"],
     "(at line 2)"),
    ("range.frame", "mode int\nworlds 2\nrel 0 5\n", ["valid", "--frame", "{path}", "p"],
     "(at line 3)"),
    ("range.model", "mode int\nworlds 2\nval p 9\n", ["valid", "--model", "{path}", "p"],
     "(at line 3)"),
    ("name.proof", "mode int\n1 + p -> q -> p ; ax\n2 + r -> q -> r ; sb 1 { 1x := r }\n",
     ["check", "{path}"], "(at line 3, column 26)"),
    ("names.proof", "mode int\n1 + p -> q -> p ; ax\n2 + r -> q -> r ; sb 1 { p q := r }\n",
     ["check", "{path}"], "(at line 3, column 26)"),
    ("twice.proof",
     "mode int\n1 + p -> q -> p ; ax\n2 + r -> q -> r ; sb 1 { p := r ; p := s }\n",
     ["check", "{path}"], "(at line 3, column 35)"),
    ("arity.proof", "mode int\n1 + p -> q -> p ; ax 1\n", ["check", "{path}"], "(at line 2)"),
    ("late.proof", "mode int\n1 + p -> q -> p ; ax\nhyp + p\n", ["check", "{path}"],
     "hypotheses must precede steps (at line 3)"),
    ("bare.model", "mode int\nworlds 1\nval\n", ["valid", "--model", "{path}", "p"],
     "val line must be 'val <var> <worlds...>' (at line 3)"),
    ("marks.ds", "bound 1\n+ p\nmode int\n",
     ["check", "{dir}/ok.proof", "--system", "{path}"],
     "manifest must declare mode before formulas (at line 2)"),
    ("early.ds", "bound 1\nframe 1\nmode k4\n",
     ["check", "{dir}/ok.proof", "--system", "{path}"],
     "manifest must declare mode before frames (at line 2)"),
], ids=["proof", "frame", "manifest", "proof-index-digit", "frame-worlds-digit",
        "frame-rel-range", "model-val-range", "sb-name-not-a-variable", "sb-name-two-words",
        "sb-name-twice", "ax-with-index", "hyp-after-step", "model-val-bare",
        "manifest-mark-before-mode", "manifest-frame-before-mode"])
def test_file_parse_errors_name_the_line(workdir, capsys, name, text, argv, where):
    path = workdir / name
    path.write_text(text)
    assert main([a.format(path=path, dir=workdir) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(where)


@pytest.mark.parametrize("argv", [
    ["check", "{path}"],
    ["ipc", "~" * 3000 + "p"],
], ids=["check", "ipc"])
def test_deep_nesting_is_a_resource_bound(workdir, capsys, argv):
    path = workdir / "deep.proof"
    path.write_text("mode int\n1 + " + "~" * 5000 + "p ; ax\n")
    assert main([a.format(path=path) for a in argv]) == 3
    assert capsys.readouterr().err.startswith("resource bound:")


def test_removed_global_flags_are_usage_errors(workdir, capsys):
    for flag, value in (("--mode", "int"), ("--seed", "0"), ("--bound", "3")):
        assert main([flag, value, "ipc", "p -> p"]) == 2
    capsys.readouterr()


def test_bound_flag_after_subcommand(workdir, capsys):
    code, out = run(capsys, "axiomatize",
                    "--frames", str(workdir / "chain2.frame"), "--bound", "2")
    assert code == 0
    assert "bound 2" in out.splitlines()


def test_resource_bound_exit_code(workdir, capsys):
    lines = ["mode int", "worlds 9"] + [f"rel {i} {i + 1}" for i in range(8)]
    (workdir / "big.frame").write_text("\n".join(lines) + "\n")
    assert main(["valid", "--frame", str(workdir / "big.frame"), "p -> p"]) == 3


@pytest.mark.parametrize("name, text, argv", [
    ("big.frame", "mode int\nworlds 20000\n", ["valid", "--frame", "{path}", "p"]),
    ("big.frame", "mode int\nworlds 20000\n", ["axiomatize", "--frames", "{path}"]),
    ("big.ds", "mode int\nframe 20000\nbound 1\n",
     ["check", "{dir}/ok.proof", "--system", "{path}"]),
], ids=["valid-frame", "axiomatize-frames", "manifest-frame"])
def test_world_counts_over_the_budget_stop_on_their_line(workdir, capsys, name, text, argv):
    path = workdir / name
    path.write_text(text)
    argv = [a.format(path=path, dir=workdir) for a in argv]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "resource bound: frame has 20000 worlds, budget allows 8 (at line 2)\n")
    assert main(["--format", "json"] + argv) == 3
    assert json.loads(capsys.readouterr().out) == {
        "error": "frame has 20000 worlds, budget allows 8", "exit": 3, "line": 2}


def test_world_budget_leaves_models_alone(workdir, capsys):
    lines = ["mode int", "worlds 9"] + [f"rel {i} {i + 1}" for i in range(8)]
    (workdir / "big.kripke").write_text("\n".join(lines) + "\nval p 8\n")
    code, out = run(capsys, "valid", "--model", str(workdir / "big.kripke"), "p | ~p")
    assert code == 1 and out.strip() == "INVALID"
    code, out = run(capsys, "--budget", "2", "valid", "--model", str(workdir / "big.kripke"),
                    "~~p")
    assert code == 0 and out.strip() == "VALID"


#: sha256 of the standard output of each command, pinned so that a
#: refactor cannot change an emitted proof script or model by a byte.
#: `{frame}` is a one-point frame file, `{system}` the manifest that the
#: `axiomatize` line writes for it.  `{k4proof}` derives +[]q from a K4
#: hypothesis by modus ponens with a derivable minor, and `{k4frame}` is a
#: reflexive point on which that hypothesis fails.
GOLDEN_DIGESTS = [
    (("prove-cpc", "(p -> p) & (q | (q -> p))"),
     "3be6d648f489f56a574d3c399782ca259eb5951187668612132ddbdc8e23a435"),
    (("prove-cpc", "((p -> q) -> p) | (p -> q)"),
     "c9a6bd51022b5c790a3395f30551acbacfa7eb0c5c041e79eeb9d064f20ba371"),
    (("axiomatize", "--frames", "{frame}"),
     "82cbc59ba131bc027d312893e683759fe5124e3850d36f5f2395ac0c42e8a41f"),
    (("refute", "--system", "{system}", "(p -> q) -> p"),
     "5c722e226dfdaaea1ab0834ae793c55a4872878b1d85dae02058b16b017083c3"),
    (("refute", "--system", "{system}", "p | ~q"),
     "11614f09bf57d9ea397c790a71cb0fe98676e9d440129752bb1c228684db6349"),
    (("ipc", "(p -> q) -> (~q -> ~p)"),
     "69e58a64cfbee1e5e46533f0548113bd73107e09fbb73bb155c97b92ceb7c4ea"),
    (("ipc", "p & (q | r) -> (p & q) | (p & r)"),
     "73783167b870d74e48c529e2f69a82566fcdbea8043cb28d183687dfb24e92b9"),
    (("ipc", "~~(p | ~p)"),
     "0176565a56684a502f656e1fed1897298efd44747c7b114bfa65481371e64887"),
    (("transform", "symmetry", "{k4proof}", "--frames", "{k4frame}"),
     "663ee54e95463b34066543eb5280cac9a5e6de6c0633dca4a9e96d1e3174efba"),
    (("prove-cpc", "(p -> q) -> (~q -> ~p)"),
     "08aebaac201fa0e9d619297a86d7e5cf16e7ef208e62d3c63b54c72a3eeb5983"),
]


def test_golden_output_digests(workdir, capsys):
    import hashlib
    frame, system = workdir / "point.frame", workdir / "point.ds"
    frame.write_text("mode int\nworlds 1\n")
    k4proof, k4frame = workdir / "k4.proof", workdir / "k4.frame"
    k4proof.write_text(
        "mode k4\n"
        "hyp + (p -> (q -> p)) -> []q\n"
        "1 + (p -> (q -> p)) -> []q ; hyp\n"
        "2 + p -> (q -> p) ; ax\n"
        "3 + []q ; mp 1 2\n")
    k4frame.write_text("mode k4\nworlds 1\nrel 0 0\n")
    for argv, digest in GOLDEN_DIGESTS:
        argv = [a.format(frame=frame, system=system, k4proof=k4proof, k4frame=k4frame)
                for a in argv]
        code, out = run(capsys, *argv)
        if argv[0] == "axiomatize":
            system.write_text(out)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_emitted_scripts_hold_only_what_their_conclusion_rests_on(workdir, capsys):
    """Every fourth formula of the stored corpus, by prove-cpc or else by
    refute against its manifest, and the symmetry transform of a K4 proof."""
    k4proof, k4frame = workdir / "k4.proof", workdir / "k4.frame"
    k4proof.write_text(
        "mode k4\n"
        "hyp + (p -> (q -> p)) -> []q\n"
        "1 + (p -> (q -> p)) -> []q ; hyp\n"
        "2 + p -> (q -> p) ; ax\n"
        "3 + []q ; mp 1 2\n")
    k4frame.write_text("mode k4\nworlds 1\nrel 0 0\n")
    runs = [["transform", "symmetry", str(k4proof), "--frames", str(k4frame)]]
    for line in (CORPUS / "index.tsv").read_text().splitlines()[::4]:
        text = line.split("\t", 1)[1]
        runs.append(["prove-cpc", text])
        runs.append(["refute", "--system", str(CORPUS / "cpc.ds"), text])
    emitted = 0
    for argv in runs:
        code, out = run(capsys, *argv)
        if code != 0:
            continue
        _, inf = parse_proof_script(out.split("\n", 1)[1])
        assert inf.support(len(inf)) == set(range(1, len(inf) + 1)), argv
        emitted += 1
    assert emitted == 41
