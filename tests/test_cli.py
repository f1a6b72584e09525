import json
from pathlib import Path

import pytest

from lukas.cli import main
from lukas.formulas import Var
from lukas.kernel import Axiom, Hypothesis, Inference, Step, asserts, parse_proof_script, rejects

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


@pytest.mark.parametrize("n", [7, 8])
def test_jankov_obeys_the_world_budget(workdir, capsys, n):
    """At the default budget of 8, `jankov` prints the formula of a 7- and
    an 8-world chain; `--budget 6` stops the 7-chain on its worlds line."""
    from lukas.complete_sets import jankov_formula
    from lukas.formulas import render
    from lukas.semantics import chain_frame
    lines = ["mode int", f"worlds {n}"] + [f"rel {i} {i + 1}" for i in range(n - 1)]
    frame = workdir / f"c{n}.frame"
    frame.write_text("\n".join(lines) + "\n")
    path = str(frame)
    text = render(jankov_formula(chain_frame(n)))
    assert run(capsys, "jankov", "--frame", path) == (0, text + "\n")
    code, out = run(capsys, "--format", "json", "jankov", "--frame", path)
    assert (code, json.loads(out)) == (0, {"verdict": text})
    if n == 7:
        message = "frame has 7 worlds, budget allows 6"
        assert main(["--budget", "6", "jankov", "--frame", path]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"resource bound: {message} (at line 2)\n")
        assert main(["--format", "json", "--budget", "6", "jankov", "--frame", path]) == 3
        assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 3, "line": 2}


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


BD3 = "r | (r -> q | (q -> p | ~p))"


def test_refute_past_the_manifest_bound_is_a_budget_exit(workdir, capsys):
    """The 4-chain refutes bd3 only at its root, so a manifest of bound 3
    holds no rejected Jankov formula whose frame refutes it: that names the
    bound and exits 3, while its oracle says bd3 is not derivable."""
    (workdir / "c4.frame").write_text("mode int\nworlds 4\nrel 0 1\nrel 1 2\nrel 2 3\n")
    code, out = run(capsys, "axiomatize", "--frames", str(workdir / "c4.frame"))
    assert code == 0 and "bound 3" in out.splitlines()
    (workdir / "c4.ds").write_text(out)
    argv = ["refute", "--system", str(workdir / "c4.ds"), BD3]
    message = f"no frame of at most 3 worlds with a rejected Jankov formula refutes {BD3}"
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"resource bound: {message}\n")
    assert main(["--format", "json"] + argv) == 3
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 3}


def test_prove_cpc_round_trip(workdir, capsys):
    code, out = run(capsys, "prove-cpc", "p | ~p")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PROVED"
    proof = workdir / "cpc.proof"
    proof.write_text("\n".join(lines[1:]) + "\n")
    # the script uses classical-system axioms, so check against its manifest
    from lukas.complete_sets import cpc_context, render_manifest
    ds, _oracle, family, frame, _template = cpc_context()
    manifest = workdir / "cpc.ds"
    manifest.write_text(render_manifest(ds, [frame], 3, family))
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


@pytest.mark.parametrize("frames", [["{dir}/w20.frame"], ["{dir}/missing.frame"], []],
                         ids=["over-the-cap", "missing", "none"])
def test_transform_extract_takes_no_frames(workdir, capsys, frames):
    """Extraction consults no oracle, so no frame file is read for it."""
    (workdir / "w20.frame").write_text("mode int\nworlds 20\n")
    argv = (["transform", "extract", str(workdir / "ok.proof"), "--frames"]
            + [f.format(dir=workdir) for f in frames])
    message = "transform extract takes no --frames: it consults no oracle"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert main(["--format", "json"] + argv) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 2}
    code, out = run(capsys, "--budget", "0", "transform", "extract", str(workdir / "ok.proof"))
    assert code == 0 and out.startswith("EXTRACTED\n")


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_transform_symmetry_against_a_manifest(workdir, capsys, fmt):
    """The proof's `ax` step is a positive Jankov axiom of the 2-chain's
    manifest, so the input checks only against that system, and so does
    the refutation of the one hypothesis whose conclusion fails there."""
    code, manifest = run(capsys, "axiomatize", "--frames", str(workdir / "chain2.frame"))
    (workdir / "chain2.ds").write_text(manifest)
    jankov = next(line[2:] for line in manifest.splitlines() if line.startswith("+ "))
    (workdir / "ax.proof").write_text(
        f"mode int\nhyp + ({jankov}) -> p | ~p\n1 + {jankov} ; ax\n"
        f"2 + ({jankov}) -> p | ~p ; hyp\n3 + p | ~p ; mp 2 1\n")
    proof = str(workdir / "ax.proof")
    assert main(["transform", "symmetry", proof, "--frames", str(workdir / "chain2.frame")]) == 2
    assert capsys.readouterr().err == (
        "error: input inference fails checking: ERR 1 axiom-not-in-system\n")
    code, out = run(capsys, "--format", fmt, "transform", "symmetry", proof,
                    "--system", str(workdir / "chain2.ds"))
    assert code == 0
    if fmt == "json":
        record = json.loads(out)
        assert (record["verdict"], record["index"]) == ("REFUTATION", 1)
        script = record["payload"]
    else:
        header, script = out.split("\n", 1)
        assert header == "REFUTATION 1"
    assert script.startswith("# refutes hypothesis 1\nmode int\n")
    (workdir / "ref.proof").write_text(script)
    code, out = run(capsys, "check", str(workdir / "ref.proof"),
                    "--system", str(workdir / "chain2.ds"))
    assert (code, out) == (0, f"OK - ({jankov}) -> p | ~p\n")


#: One input for each way `symmetry_transform` moves the rejection of the
#: conclusion onto an underivable major: a one-world valuation that refutes
#: the conclusion, the conclusion substituted into the minor, and into the
#: major.  Each pins the refuted hypothesis and the output's sha256.
SYMMETRY_STRATEGIES = [
    (("(p | ~p) -> q", "p | ~p", "q"), 1,
     "1afef3b23a2759a11c36fd8a30bf5e0591178449b7d90156edba703c38853a9f"),
    (("(r | ~r) -> p | ~p", "r | ~r", "p | ~p"), 2,
     "0d7cb8f6f10dd7837138f3dc98f3275501818531b898d88653d621463f9c9d2c"),
    (("(p -> q) | (q -> p) -> p | ~p", "(p -> q) | (q -> p)", "p | ~p"), 1,
     "35d48102f339566503e03d20bc40851449975066a439de95fce0d6a60e3dae21"),
]


@pytest.mark.parametrize("texts, index, digest", SYMMETRY_STRATEGIES,
                         ids=["classical-major", "conclusion-into-minor",
                              "conclusion-into-major"])
def test_transform_symmetry_strategies(workdir, capsys, texts, index, digest):
    import hashlib
    from lukas.formulas import parse_formula, render
    major, minor, conclusion = texts
    (workdir / "mp.proof").write_text(
        f"mode int\nhyp + {major}\nhyp + {minor}\n"
        f"1 + {major} ; hyp\n2 + {minor} ; hyp\n3 + {conclusion} ; mp 1 2\n")
    code, out = run(capsys, "transform", "symmetry", str(workdir / "mp.proof"),
                    "--frames", str(workdir / "chain2.frame"))
    assert code == 0
    assert out.startswith(f"REFUTATION {index}\n# refutes hypothesis {index}\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    (workdir / "ref.proof").write_text(out.split("\n", 1)[1])
    code, out = run(capsys, "check", str(workdir / "ref.proof"))
    assert (code, out) == (0, f"OK - {render(parse_formula(texts[index - 1]))}\n")


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
    import lukas.transforms
    unsound = Inference((rejects(Var("q")),), (Step(rejects(Var("p")), Hypothesis()),))
    monkeypatch.setattr(lukas.transforms, "symmetry_transform", lambda inf, oracle: (1, unsound))
    code = main(["transform", "symmetry", str(workdir / "ok.proof"),
                 "--frames", str(workdir / "chain2.frame")])
    captured = capsys.readouterr()
    assert code == 2 and "REFUTATION" not in captured.out
    assert captured.err == ("error: constructed refutation fails checking: "
                            "ERR 1 hypothesis-not-present\n")


def test_refute_reports_an_unsound_refutation_as_an_error(capsys, monkeypatch):
    """A refutation that fails its final check is a defect, not a budget exit."""
    import lukas.prover

    def unproved(builder, a):
        return builder.add(asserts(a), Axiom())

    monkeypatch.setattr(lukas.prover, "derive_into", unproved)
    code = main(["refute", "--system", str(CORPUS / "cpc.ds"), "p | ~q"])
    captured = capsys.readouterr()
    assert code == 2 and "REFUTED" not in captured.out
    assert captured.err == "error: refutation fails checking: ERR 2 axiom-not-in-system\n"


def test_prove_cpc_reports_a_missing_template_as_an_error(capsys, monkeypatch):
    """A prover defect while building the classical template exits 2, not 1."""
    import lukas.prover
    from lukas.complete_sets import cpc_context

    monkeypatch.setattr(lukas.prover, "derive_into", lambda builder, a: None)
    cpc_context.cache_clear()
    message = "stability lemma is not intuitionistically derivable"
    assert main(["prove-cpc", "p | ~p"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert main(["--format", "json", "prove-cpc", "p | ~p"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 2}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_prove_cpc_asks_the_classical_oracle_once(capsys, monkeypatch, fmt):
    """The classical system has one frame, so one oracle call is one
    `frame_valid` call, whether the formula proves or not."""
    import lukas.semantics
    from lukas.complete_sets import cpc_context

    cpc_context()
    calls = []
    frame_valid = lukas.semantics.frame_valid
    monkeypatch.setattr(lukas.semantics, "frame_valid",
                        lambda frame, a: calls.append(a) or frame_valid(frame, a))
    for formula, code, verdict in (("p | ~p", 0, "PROVED"), ("p -> q", 1, "NOT-VALID")):
        calls.clear()
        assert main(["--format", fmt, "prove-cpc", formula]) == code
        out = capsys.readouterr().out
        assert (json.loads(out)["verdict"] if fmt == "json" else out.split("\n")[0]) == verdict
        assert len(calls) == 1, formula


@pytest.mark.parametrize("name", ["(", "P-Q", "bot", "0"])
def test_a_val_line_needs_a_variable_name(workdir, capsys, name):
    path = workdir / "named.kripke"
    path.write_text(f"mode int\nworlds 2\nrel 0 1\nval {name} 0\n")
    message = f"bad variable name {name!r}"
    assert main(["valid", "--model", str(path), "p"]) == 2
    assert capsys.readouterr() == ("", f"error: {message} (at line 4)\n")
    assert main(["--format", "json", "valid", "--model", str(path), "p"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 2, "line": 4}


@pytest.mark.parametrize("negations, layer", [
    (400, "elaborating the proof term"), (600, "the sequent search"),
], ids=["elaboration", "search"])
def test_ipc_names_the_layer_that_runs_out_of_stack(capsys, negations, layer):
    """`A -> A` for A a tower of negations of p: the parser reads it, and
    the prover's own recursion is what runs out."""
    a = "~" * negations + "p"
    message = f"{layer} exceeds the recursion limit"
    assert main(["ipc", f"{a} -> {a}"]) == 3
    assert capsys.readouterr() == ("", f"resource bound: {message}\n")
    assert main(["--format", "json", "ipc", f"{a} -> {a}"]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 3}


def test_axiomatize_rejects_a_negative_bound_before_reading_frames(workdir, capsys):
    argv = ["axiomatize", "--frames", str(workdir / "missing.frame"), "--bound", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --bound must be at least 0, got -1\n"
    assert main(["--format", "json"] + argv) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "--bound must be at least 0, got -1", "exit": 2}


def test_refute_over_k4_rejects_boxed_formulas_after_the_derivable_check(workdir, capsys):
    frame, manifest = workdir / "k4.frame", workdir / "k4.ds"
    frame.write_text("mode k4\nworlds 1\nrel 0 0\n")
    code, out = run(capsys, "axiomatize", "--frames", str(frame))
    assert code == 0 and out.startswith("mode k4\n")
    manifest.write_text(out)
    code, out = run(capsys, "refute", "--system", str(manifest), "[]p -> []p")
    assert code == 1 and out == "DERIVABLE\n"
    assert main(["refute", "--system", str(manifest), "[]p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot refute the boxed formula []p: refutations "
                            "run over the int-mode Jankov family\n")


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
    ("k4.ds", "mode k4\nbound 1\nframe 1\n- ~~x0\n",
     ["transform", "extract", "{dir}/ok.proof", "--system", "{path}"],
     "error: proof and system modes differ",
     {"error": "proof and system modes differ", "exit": 2}),
    ("k4.ds", "mode k4\nbound 1\nframe 1\n- ~~x0\n",
     ["transform", "symmetry", "{dir}/ok.proof", "--system", "{path}"],
     "error: proof and system modes differ",
     {"error": "proof and system modes differ", "exit": 2}),
    (None, None, ["transform", "symmetry", "{dir}/ok.proof"],
     "error: transform symmetry needs --system or --frames",
     {"error": "transform symmetry needs --system or --frames", "exit": 2}),
], ids=["formula", "proof-script", "resource-bound", "empty-proof-script",
        "manifest-incomplete", "proof-system-modes-differ", "extract-system-modes-differ",
        "symmetry-system-modes-differ", "symmetry-without-oracle"])
def test_json_errors_are_records(workdir, capsys, name, text, argv, stderr, record):
    path = workdir / (name or "unused")
    if text is not None:
        path.write_text(text)
    code = main(["--format", "json"] + [a.format(path=path, dir=workdir) for a in argv])
    captured = capsys.readouterr()
    assert code == record["exit"]
    assert captured.err.rstrip("\n") == stderr
    assert json.loads(captured.out) == record


def test_ipc_budget_exit_names_the_countermodel_budget(capsys):
    """Valid on every poset of depth 2, so the smallest countermodel has
    three worlds, where twelve variables are over the enumeration budget."""
    formula = "q | (q -> p | ~p) | a & b & c & d & e & f & g & h & i & j"
    message = (f"the sequent search refuted {formula}, but the countermodel search "
               f"stopped: enumeration of 3 worlds x 5^12 valuations x 27 steps = "
               f"19,775,390,625 lane steps is over the enumeration budget of 1,000,000,000")
    assert main(["ipc", formula]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"resource bound: {message}\n"
    assert captured.out == ""
    assert main(["--format", "json", "ipc", formula]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 3}


@pytest.mark.parametrize("formula, worlds", [
    ("(p | q | r | s | t) -> p", 1),
    ("((p -> q) -> p) -> p | q & r & s & t", 2),
    ("q | (q -> p | ~p) | a & b & c & d & e & f", 3),
])
def test_ipc_countermodels_of_many_variables(capsys, formula, worlds):
    from lukas.formulas import parse_formula
    from lukas.semantics import model_validates, parse_model_file
    code, out = run(capsys, "ipc", formula)
    assert code == 1 and out.startswith("COUNTERMODEL\n")
    model = parse_model_file(out.split("\n", 1)[1])
    assert model.frame.n == worlds
    assert model_validates(model, rejects(parse_formula(formula)))


def test_nine_variables_on_one_world_give_verdicts(workdir, capsys):
    (workdir / "point.frame").write_text("mode int\nworlds 1\n")
    code, out = run(capsys, "valid", "--frame", str(workdir / "point.frame"),
                    "a | b | c | d | e | f | g | h | i | ~a")
    assert (code, out) == (0, "VALID\n")
    formula = "a & b & c & d & e & f & g & h & i"
    code, out = run(capsys, "refute", "--system", str(CORPUS / "cpc.ds"), formula)
    assert code == 0 and out.startswith("REFUTED\n")
    (workdir / "nine.proof").write_text(out.split("\n", 1)[1])
    code, out = run(capsys, "check", str(workdir / "nine.proof"), "--system",
                    str(CORPUS / "cpc.ds"))
    assert (code, out) == (0, f"OK - {formula}\n")


#: Inputs whose enumerations would run for hours: the manifest of the
#: 8-world antichain at bound 4, and four variables on that antichain.
RUNAWAY = [
    ("m8.ds", "mode int\nbound 4\nframe 8\n",
     ["check", "{dir}/ok.proof", "--system", "{path}"], "8 worlds x 256^3 valuations x 19 steps "
     "= 2,550,136,832"),
    ("anti8.frame", "mode int\nworlds 8\n",
     ["valid", "--frame", "{path}", "(a & b & c & d) -> a"], "8 worlds x 256^4 valuations x 8 "
     "steps = 274,877,906,944"),
]


@pytest.mark.parametrize("name, text, argv, work", RUNAWAY, ids=["m8-check", "anti8-valid"])
def test_runaway_enumerations_exit_3_naming_the_budget(workdir, capsys, name, text, argv, work):
    import time
    path = workdir / name
    path.write_text(text)
    argv = [a.format(path=path, dir=workdir) for a in argv]
    message = (f"enumeration of {work} lane steps is over the enumeration budget "
               f"of 1,000,000,000")
    start = time.perf_counter()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"resource bound: {message}\n")
    assert main(["--format", "json"] + argv) == 3
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 3}
    assert time.perf_counter() - start < 5


def test_three_variables_on_the_antichain_stay_valid(workdir, capsys):
    (workdir / "anti8.frame").write_text("mode int\nworlds 8\n")
    code, out = run(capsys, "valid", "--frame", str(workdir / "anti8.frame"), "(a & b & c) -> a")
    assert (code, out) == (0, "VALID\n")


def test_hypothesis_without_formula_is_a_parse_error(workdir, capsys):
    (workdir / "hyp.proof").write_text("mode int\nhyp +\n1 + p ; hyp\n")
    assert main(["check", str(workdir / "hyp.proof")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: hyp needs a sign and a formula")


@pytest.mark.parametrize("line", ["hyp", "hyp\t+"], ids=["bare", "tab"])
def test_a_hyp_line_without_formula_says_so(workdir, capsys, line):
    (workdir / "hyp.proof").write_text(f"mode int\n{line}\n1 + p ; hyp\n")
    argv = ["check", str(workdir / "hyp.proof")]
    message = f"hyp needs a sign and a formula: {line!r}"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message} (at line 2)\n"
    assert main(["--format", "json"] + argv) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 2, "line": 2}


@pytest.mark.parametrize("line", ["hyp\t+ p", "\thyp  +\tp", "hyp +\tp"],
                         ids=["tab-after-hyp", "tabs-between", "tab-after-sign"])
def test_a_hyp_line_may_use_tabs(workdir, capsys, line):
    (workdir / "hyp.proof").write_text(f"mode int\n{line}\n1 + p ; hyp\n")
    argv = ["check", str(workdir / "hyp.proof")]
    assert run(capsys, *argv) == (0, "OK + p\n")
    assert run(capsys, "--format", "json", *argv) == (0, '{"verdict": "OK + p"}\n')


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


@pytest.mark.parametrize("worlds", [9, 10])
def test_a_manifest_frame_line_obeys_the_budget(workdir, capsys, worlds):
    """A manifest that `--budget n axiomatize` writes for n isolated worlds
    is read by `--budget n refute` and `check`; at the default budget of 8,
    its `frame` line on line 3 exits 3, as a frame file's `worlds` line does."""
    (workdir / "wide.frame").write_text(f"mode int\nworlds {worlds}\n")
    budget = ["--budget", str(worlds)]
    code, manifest = run(capsys, *budget, "axiomatize", "--frames", str(workdir / "wide.frame"),
                         "--bound", "1")
    assert code == 0
    assert manifest.splitlines()[2].startswith(f"frame {worlds} 0-0 1-1 ")
    system = workdir / "wide.ds"
    system.write_text(manifest)
    code, out = run(capsys, *budget, "refute", "--system", str(system), "p")
    assert code == 0 and out.startswith("REFUTED\nmode int\n")
    (workdir / "p.proof").write_text(out.split("\n", 1)[1])
    proof = str(workdir / "p.proof")
    code, out = run(capsys, *budget, "check", proof, "--system", str(system))
    assert (code, out) == (0, "OK - p\n")
    message = f"frame has {worlds} worlds, budget allows 8"
    for argv in (["refute", "--system", str(system), "p"], ["check", proof, "--system", str(system)]):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"resource bound: {message} (at line 3)\n"
        assert main(["--format", "json"] + argv) == 3
        assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 3, "line": 3}


@pytest.mark.parametrize("argv, budget", [
    (["--budget", "-1", "valid", "--frame", "{dir}/chain2.frame", "p"], -1),
    (["--budget", "-3", "valid", "--frame", "{dir}/chain2.frame", "p"], -3),
    (["--budget", "-2", "axiomatize", "--frames", "{dir}/chain2.frame"], -2),
], ids=["global", "valid", "axiomatize"])
def test_a_negative_budget_is_a_usage_error(workdir, capsys, argv, budget):
    argv = [a.format(dir=workdir) for a in argv]
    message = f"--budget must be at least 0, got {budget}"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert main(["--format", "json"] + argv) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 2}
    zero = ["0" if a == str(budget) else a for a in argv]
    assert main(["--format", "json"] + zero) == 3
    assert json.loads(capsys.readouterr().out) == {
        "error": "frame has 2 worlds, budget allows 0", "exit": 3, "line": 2}


@pytest.mark.parametrize("argv", [
    ["valid", "--frame", "{dir}/chain2.frame", "--budget", "3", "p"],
    ["axiomatize", "--frames", "{dir}/chain2.frame", "--budget", "3"],
    ["refute", "--budget", "3", "--system", str(CORPUS / "cpc.ds"), "p"],
], ids=["valid", "axiomatize", "refute"])
def test_budget_after_the_subcommand_is_a_usage_error(workdir, capsys, argv):
    """`--budget` is a global flag: after a subcommand it is an argument
    that the subcommand does not know."""
    argv = [a.format(dir=workdir) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: lukas ")
    message = captured.err.splitlines()[-1].split(": error: ", 1)[1]
    assert message.startswith("unrecognized arguments: --budget")
    assert main(["--format", "json"] + argv) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 2}


@pytest.mark.parametrize("spelling", [
    ["--format", "json"], ["--format=json"], ["--form", "json"], ["--f=json"]],
    ids=["apart", "joined", "abbreviated", "abbreviated-joined"])
def test_a_usage_error_in_json_prints_a_record(capsys, spelling):
    message = "the following arguments are required: proof"
    assert main(["check"]) == 2
    text = capsys.readouterr()
    assert text.out == ""
    assert text.err.startswith("usage: lukas check [-h]")
    assert text.err.endswith(f"\nlukas check: error: {message}\n")
    assert main(spelling + ["check"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": message, "exit": 2}
    assert captured.err == text.err
    assert main(spelling + ["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: lukas ")


@pytest.mark.parametrize("argv, cap", [
    (["jankov", "--frame", "{path}"], 8),
    (["transform", "symmetry", "{dir}/ok.proof", "--frames", "{path}"], 8),
    (["--budget", "3", "transform", "symmetry", "{dir}/ok.proof", "--frames", "{path}"], 3),
    (["--budget", "3", "valid", "--frame", "{path}", "p"], 3),
    (["--budget", "3", "axiomatize", "--frames", "{path}"], 3),
], ids=["jankov", "transform", "transform-budget", "valid-budget", "axiomatize-budget"])
def test_frame_files_over_their_cap_stop_on_the_worlds_line(workdir, capsys, argv, cap):
    lines = ["mode int", "worlds 1000"] + [f"rel {i} {i + 1}" for i in range(999)]
    path = workdir / "chain.frame"
    path.write_text("\n".join(lines) + "\n")
    assert main([a.format(path=path, dir=workdir) for a in argv]) == 3
    assert capsys.readouterr().err == (
        f"resource bound: frame has 1000 worlds, budget allows {cap} (at line 2)\n")


def test_world_budget_leaves_models_alone(workdir, capsys):
    lines = ["mode int", "worlds 9"] + [f"rel {i} {i + 1}" for i in range(8)]
    (workdir / "big.kripke").write_text("\n".join(lines) + "\nval p 8\n")
    code, out = run(capsys, "valid", "--model", str(workdir / "big.kripke"), "p | ~p")
    assert code == 1 and out.strip() == "INVALID"
    code, out = run(capsys, "--budget", "2", "valid", "--model", str(workdir / "big.kripke"),
                    "~~p")
    assert code == 0 and out.strip() == "VALID"


@pytest.mark.parametrize("argv, suffix", [
    (["jankov", "--frame", "{path}"], ".frame"),
    (["valid", "--model", "{path}", "p"], ".kripke"),
], ids=["jankov-frame", "valid-model"])
def test_int_mode_cycle_names_its_first_rel_line(workdir, capsys, argv, suffix):
    """Edge 0 -> 1 lies on no cycle; 1 -> 2 on line 4 is the first that does."""
    path = workdir / f"cycle{suffix}"
    path.write_text("mode int\nworlds 3\nrel 0 1\nrel 1 2\nrel 2 1\nval p 1\n")
    argv = [a.format(path=path) for a in argv]
    message = "int-mode relation must be antisymmetric"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} (at line 4)\n"
    assert main(["--format", "json"] + argv) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message, "exit": 2, "line": 4}


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
     "92fadf2f5cb7e84e93c62b2ea3e1ded602a3c5810eadec2d12f62641092182cf"),
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
