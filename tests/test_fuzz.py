"""Seeded mutation fuzz test of the command line.

Proof scripts, frames, models and manifests from the golden-digest commands
and the benchmark corpus are mutated by truncating, duplicating and swapping
tokens, and fed to `lukas.cli.main`.  Whatever the input, the command must
end with an exit code in {0, 1, 2, 3} and no uncaught exception; exit 1 is a
negative verdict printed on stdout, and exits 2 and 3 say why on stderr.
"""

import random
import re
from pathlib import Path

import pytest

from lukas.cli import main
from lukas.formulas import ParseError
from lukas.kernel import parse_proof_script
from test_kernel import assert_steps_read_as_parsed

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
CASES = 400

_TOKEN = re.compile(r"\s+|[A-Za-z0-9_]+|->|:=|\[\]|.")
_VERDICT = re.compile(r"(ERR \d+ [a-z-]+|INVALID)$")


def mutate(text: str, rng: random.Random) -> str:
    """`text` after one or two token edits: the file cut after a token or
    after its line, a token repeated (after a blank, so that numbers do not
    grow), or two tokens of one line and one kind (word or symbol)
    swapped."""
    tokens = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 2)):
        words = [k for k, t in enumerate(tokens) if not t.isspace()]
        if not words:
            break
        k = rng.choice(words)
        start = max((j for j in range(k) if "\n" in tokens[j]), default=-1) + 1
        end = next((j for j in range(k, len(tokens)) if "\n" in tokens[j]), len(tokens))
        edit = rng.choice(("truncate", "duplicate", "swap"))
        if edit == "truncate":
            tokens = tokens[:rng.choice((k, end)) + 1]
        elif edit == "duplicate":
            tokens[k + 1:k + 1] = [" ", tokens[k]]
        else:
            kind = tokens[k][0].isalnum()
            other = rng.choice([j for j in words
                                if start <= j < end and tokens[j][0].isalnum() == kind])
            tokens[k], tokens[other] = tokens[other], tokens[k]
    return "".join(tokens)


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) in (0, 1), argv
    return capsys.readouterr().out


def _emitted(capsys, *argv) -> str:
    """The file that a command prints after its verdict line."""
    return _stdout(capsys, *argv).split("\n", 1)[1]


def test_mutated_inputs_reach_a_verdict_or_a_named_error(tmp_path, capsys):
    point_frame = "mode int\nworlds 1\n"
    (tmp_path / "point.frame").write_text(point_frame)
    system = tmp_path / "point.ds"
    system.write_text(_stdout(capsys, "axiomatize", "--frames", str(tmp_path / "point.frame")))
    k4_proof = ("mode k4\n"
                "hyp + (p -> (q -> p)) -> []q\n"
                "1 + (p -> (q -> p)) -> []q ; hyp\n"
                "2 + p -> (q -> p) ; ax\n"
                "3 + []q ; mp 1 2\n")
    int_scripts = [
        _emitted(capsys, "prove-cpc", "(p -> q) -> (~q -> ~p)"),
        _emitted(capsys, "prove-cpc", "((p -> q) -> p) | (p -> q)"),
        _emitted(capsys, "refute", "--system", str(system), "p | ~q"),
        _emitted(capsys, "ipc", "p & (q | r) -> (p & q) | (p & r)"),
    ] + [(CORPUS / "scripts" / name).read_text()
         for name in ("s000.proof", "s001.proof", "s002.proof", "s000.flipped.proof")]
    corpus_script = CORPUS / "scripts" / "s000.proof"
    cpc = (CORPUS / "cpc.ds").read_text()
    # the classical manifest with its marks in Unicode, in redundant brackets
    unicode_marks = cpc.replace("->", "\u2192").replace("~", "\u00ac")
    respelled = re.sub(r"(?m)^([+-]) (.*)$", r"\1  ((\2))", unicode_marks)
    seeds = (
        [("script", text, ["check", "{path}", "--system", str(system)]) for text in int_scripts]
        + [("script", text, ["transform", "extract", "{path}"]) for text in int_scripts[:2]]
        + [("script", k4_proof, ["check", "{path}"])]
        + [("frame", text, ["valid", "--frame", "{path}", "~~p -> p"])
           for text in (point_frame, "mode k4\nworlds 1\nrel 0 0\n",
                        "mode int\nworlds 3\nrel 0 1\nrel 0 2\n")]
        + [("frame", "mode k4\nworlds 3\nrel 0 1\nrel 1 2\nrel 2 2\n",
            ["valid", "--frame", "{path}", "[]([]p -> p) -> []p"])]
        + [("frame", "mode int\nworlds 2\nrel 0 1\n", ["jankov", "--frame", "{path}"])]
        + [("model", _emitted(capsys, "ipc", "~~p -> p"),
            ["valid", "--model", "{path}", "~~p -> p"])]
        + [("model", "mode int\nworlds 3\nrel 0 1\nrel 0 2\nval p 1\nval q 2 1\n",
            ["valid", "--model", "{path}", "p | q -> q"])]
        + [("manifest", text, ["check", str(corpus_script), "--system", "{path}"])
           for text in (system.read_text(), cpc, respelled)]
        # enumerations over the enumeration budget: the 8-world antichain's
        # manifest at bound 4, and four variables on that antichain
        + [("manifest", "mode int\nbound 4\nframe 8\n",
            ["check", str(corpus_script), "--system", "{path}"])]
        + [("frame", "mode int\nworlds 8\n", ["valid", "--frame", "{path}", "(a & b & c & d) -> a"])]
    )
    rng = random.Random(20141)
    codes = set()
    for case in range(CASES):
        kind, text, argv = rng.choice(seeds)
        mutated = mutate(text, rng)
        path = tmp_path / f"case.{kind}"
        path.write_text(mutated)
        argv = [a.format(path=path) for a in argv]
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"case {case}: {argv} raised {exc!r} on\n{mutated}")
        out, err = capsys.readouterr()
        where = f"case {case}: {argv} exited {code} on\n{mutated}\nstdout {out!r}\nstderr {err!r}"
        assert code in (0, 1, 2, 3), where
        assert "Traceback" not in out + err, where
        if code == 1:
            assert _VERDICT.match(out.splitlines()[0] if out else ""), where
        elif code == 2:
            assert err.startswith("error: ") and not out, where
        elif code == 3:
            assert err.startswith("resource bound: ") and not out, where
        codes.add(code)
        if kind == "script":
            try:
                parse_proof_script(mutated)
            except ParseError:
                continue
            assert_steps_read_as_parsed(mutated)
    assert codes >= {0, 1, 2}
