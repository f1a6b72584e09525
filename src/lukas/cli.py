"""Command-line front end.

Exit codes: 0 positive verdict, 1 negative verdict (refuted / invalid /
derivable), 2 usage or parse error, 3 resource bound exceeded.

A command imports what only it needs when it runs, so `check` loads
neither the prover nor the transforms.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .complete_sets import (
    RefutationPreconditionError,
    build_positive_cpc,
    build_refutation,
    build_system,
    jankov_family,
    jankov_formula,
    manifest_context,
    render_manifest,
)
from .formulas import Mode, parse_formula, render
from .kernel import asserts, check_inference, parse_proof_script, render_proof_script, system
from .semantics import (
    ResourceBoundError,
    frame_valid,
    model_validates,
    parse_frame_file,
    parse_model_file,
    render_model_file,
    tabular_oracle,
)


class _Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def verdict(self, verdict: str, payload: Optional[str] = None, **fields) -> None:
        if self.as_json:
            record = {"verdict": verdict, **fields}
            if payload is not None:
                record["payload"] = payload
            print(json.dumps(record, sort_keys=True))
        else:
            line = verdict
            extra = " ".join(str(v) for v in fields.values())
            if extra:
                line = f"{verdict} {extra}"
            print(line)
            if payload is not None:
                print(payload, end="" if payload.endswith("\n") else "\n")

    def error(self, code: int, prefix: str, exc: Exception | str) -> int:
        """Report a failure on stderr and, in JSON, as a record on stdout
        with its exit code and where it is, when that is known."""
        message = str(exc)
        print(f"{prefix}: {message}", file=sys.stderr)
        if self.as_json:
            record = {"error": getattr(exc, "message", message), "exit": code}
            for key in ("line", "column", "position"):
                if getattr(exc, key, None) is not None:
                    record[key] = getattr(exc, key)
            print(json.dumps(record, sort_keys=True))
        return code


def _read(path: str) -> str:
    return Path(path).read_text()


def _proof_system(args, mode: Mode):
    """The system and oracle of the `--system` manifest, which must be in
    the proof's `mode`; without `--system`, the bare system of `mode` and
    no oracle."""
    if not args.system:
        return system(mode), None
    ds, oracle, _family = manifest_context(_read(args.system), args.budget)
    if ds.mode is not mode:
        raise ValueError("proof and system modes differ")
    return ds, oracle


def cmd_check(args, out: _Output) -> int:
    mode, inf = parse_proof_script(_read(args.proof))
    ds, _oracle = _proof_system(args, mode)
    report = check_inference(ds, inf)
    out.verdict(str(report))
    return 0 if report.ok else 1


def cmd_valid(args, out: _Output) -> int:
    if (args.model is None) == (args.frame is None):
        raise ValueError("valid needs exactly one of --model or --frame")
    if args.model:
        model = parse_model_file(_read(args.model))
        formula = parse_formula(args.formula, model.frame.mode)
        ok = model_validates(model, asserts(formula))
    else:
        frame = parse_frame_file(_read(args.frame), args.budget)
        formula = parse_formula(args.formula, frame.mode)
        ok = frame_valid(frame, formula)
    out.verdict("VALID" if ok else "INVALID")
    return 0 if ok else 1


def cmd_jankov(args, out: _Output) -> int:
    frame = parse_frame_file(_read(args.frame), args.budget)
    out.verdict(render(jankov_formula(frame)))
    return 0


def cmd_axiomatize(args, out: _Output) -> int:
    if args.bound < 0:
        raise ValueError(f"--bound must be at least 0, got {args.bound}")
    frames = [parse_frame_file(_read(p), args.budget) for p in args.frames]
    family = jankov_family(args.bound)
    ds = build_system(tabular_oracle(frames), family, frames[0].mode)
    print(render_manifest(ds, frames, args.bound, family), end="")
    return 0


def cmd_refute(args, out: _Output) -> int:
    ds, oracle, family = manifest_context(_read(args.system), args.budget)
    formula = parse_formula(args.formula, ds.mode)
    try:
        inf = build_refutation(ds, formula, oracle, family)
    except RefutationPreconditionError:
        out.verdict("DERIVABLE")
        return 1
    out.verdict("REFUTED", payload=render_proof_script(ds.mode, inf))
    return 0


def cmd_prove_cpc(args, out: _Output) -> int:
    formula = parse_formula(args.formula, Mode.INT)
    try:
        inf = build_positive_cpc(formula)
    except RefutationPreconditionError:
        out.verdict("NOT-VALID")
        return 1
    out.verdict("PROVED", payload=render_proof_script(Mode.INT, inf))
    return 0


def cmd_ipc(args, out: _Output) -> int:
    from .prover import prove_ipc

    formula = parse_formula(args.formula, Mode.INT)
    result = prove_ipc(formula)
    if result.proved:
        out.verdict("THEOREM", payload=render_proof_script(Mode.INT, result.derivation))
        return 0
    assert result.countermodel is not None
    out.verdict("COUNTERMODEL", payload=render_model_file(result.countermodel))
    return 1


def cmd_transform(args, out: _Output) -> int:
    from .transforms import (SymmetryDefectError, TransformError, extract_positive,
                             require_all_positive, symmetry_transform)

    if args.what == "extract" and args.frames is not None:
        raise ValueError("transform extract takes no --frames: it consults no oracle")
    mode, inf = parse_proof_script(_read(args.proof))
    ds, oracle = _proof_system(args, mode)
    if args.what == "extract":
        result = extract_positive(inf)
        report = check_inference(ds, result)
        if not report.ok:
            out.verdict(str(report))
            return 1
        out.verdict("EXTRACTED", payload=render_proof_script(mode, result))
        return 0
    if oracle is None:
        if not args.frames:
            raise ValueError("transform symmetry needs --system or --frames")
        oracle = tabular_oracle([parse_frame_file(_read(p), args.budget) for p in args.frames])
    require_all_positive(inf)
    report = check_inference(ds, inf)
    if not report.ok:
        raise TransformError(f"input inference fails checking: {report}")
    index, result = symmetry_transform(inf, oracle)
    report = check_inference(ds, result)
    if not report.ok:
        raise SymmetryDefectError(f"constructed refutation fails checking: {report}")
    script = f"# refutes hypothesis {index}\n" + render_proof_script(mode, result)
    out.verdict("REFUTATION", payload=script, index=index)
    return 0


class _UsageError(Exception):
    """A malformed command line: the `prog` of the parser that found it,
    which has printed its usage, and argparse's message."""


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that leaves its usage errors to `main`, which
    reports them in JSON too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(self.prog, message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _ArgumentParser(
        prog="lukas",
        description="proof and refutation calculi for intermediate logics and K4")
    parser.add_argument("--budget", type=int, default=8,
                        help="the most worlds a frame may have, in a frame file or a manifest")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a proof script")
    p.add_argument("proof")
    p.add_argument("--system", help="system manifest to check against")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("valid", help="evaluate a formula on a model or frame")
    p.add_argument("formula")
    p.add_argument("--model")
    p.add_argument("--frame")
    p.set_defaults(run=cmd_valid)

    p = sub.add_parser("jankov", help="print the Jankov formula of a frame")
    p.add_argument("--frame", required=True)
    p.set_defaults(run=cmd_jankov)

    p = sub.add_parser("axiomatize", help="emit a system manifest for frames")
    p.add_argument("--frames", nargs="+", required=True)
    p.add_argument("--bound", type=int, default=3,
                   help="frame-size bound for the Jankov family")
    p.set_defaults(run=cmd_axiomatize)

    p = sub.add_parser("refute", help="emit a refutation proof script")
    p.add_argument("--system", required=True)
    p.add_argument("formula")
    p.set_defaults(run=cmd_refute)

    p = sub.add_parser("prove-cpc", help="prove or refute in the classical system")
    p.add_argument("formula")
    p.set_defaults(run=cmd_prove_cpc)

    p = sub.add_parser("ipc", help="decide intuitionistic validity")
    p.add_argument("formula")
    p.set_defaults(run=cmd_ipc)

    p = sub.add_parser("transform", help="run a proof transform")
    p.add_argument("what", choices=["extract", "symmetry"])
    p.add_argument("proof")
    p.add_argument("--system")
    p.add_argument("--frames", nargs="*")
    p.set_defaults(run=cmd_transform)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # the namespace is filled as the words are read, so a usage error
    # finds there any `--format` read before it
    args = argparse.Namespace()
    try:
        build_parser().parse_args(argv, args)
    except SystemExit as exc:       # -h
        return 2 if exc.code not in (0, None) else 0
    except _UsageError as exc:
        prog, message = exc.args
        return _Output(args.format == "json").error(2, f"{prog}: error", message)
    out = _Output(args.format == "json")
    try:
        if args.budget < 0:
            raise ValueError(f"--budget must be at least 0, got {args.budget}")
        return args.run(args, out)
    except (OSError, ValueError) as exc:
        return out.error(2, "error", exc)
    except ResourceBoundError as exc:
        return out.error(3, "resource bound", exc)
    except RecursionError:
        return out.error(3, "resource bound", "formula nesting exceeds the recursion limit")


if __name__ == "__main__":
    sys.exit(main())
