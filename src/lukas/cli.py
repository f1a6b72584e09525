"""Command-line front end.

Exit codes: 0 positive verdict, 1 negative verdict (refuted / invalid /
not found), 2 usage or parse error, 3 resource bound exceeded.
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
    SearchExhaustedError,
    build_positive_cpc,
    build_refutation,
    cpc_context,
    jankov_family,
    jankov_formula,
    manifest_context,
    parse_manifest,
    render_manifest,
)
from .formulas import Mode, ModeError, ParseError, parse_formula, render
from .kernel import asserts, check_inference, parse_proof_script, render_proof_script, system
from .prover import prove_ipc
from .semantics import (
    Budget,
    ResourceBoundError,
    frame_valid,
    model_validates,
    parse_frame_file,
    parse_model_file,
    render_model_file,
    tabular_oracle,
)
from .transforms import (
    SymmetryDefectError,
    TransformError,
    extract_positive,
    require_all_positive,
    symmetry_transform,
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


def cmd_check(args, out: _Output) -> int:
    mode, inf = parse_proof_script(_read(args.proof))
    if args.system:
        ds, _oracle, _family = manifest_context(parse_manifest(_read(args.system)))
        if ds.mode is not mode:
            raise ValueError("proof and system modes differ")
    else:
        ds = system(mode)
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
        ok = frame_valid(frame, formula, Budget(args.budget, args.budget))
    out.verdict("VALID" if ok else "INVALID")
    return 0 if ok else 1


def cmd_jankov(args, out: _Output) -> int:
    frame = parse_frame_file(_read(args.frame))
    out.verdict(render(jankov_formula(frame)))
    return 0


def cmd_axiomatize(args, out: _Output) -> int:
    frames = [parse_frame_file(_read(p), args.budget) for p in args.frames]
    oracle = tabular_oracle(frames, Budget(max_worlds=args.budget, max_vars=8))
    family = jankov_family(args.bound)
    text = render_manifest(frames[0].mode, frames, args.bound, family, oracle)
    print(text, end="")
    return 0


def cmd_refute(args, out: _Output) -> int:
    ds, oracle, family = manifest_context(parse_manifest(_read(args.system)))
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
    _ds, oracle, _family, _frame, _template = cpc_context()
    if not oracle(formula):
        out.verdict("NOT-VALID")
        return 1
    inf = build_positive_cpc(formula)
    out.verdict("PROVED", payload=render_proof_script(Mode.INT, inf))
    return 0


def cmd_ipc(args, out: _Output) -> int:
    formula = parse_formula(args.formula, Mode.INT)
    result = prove_ipc(formula)
    if result.proved:
        out.verdict("THEOREM", payload=render_proof_script(Mode.INT, result.derivation))
        return 0
    assert result.countermodel is not None
    out.verdict("COUNTERMODEL", payload=render_model_file(result.countermodel))
    return 1


def cmd_transform(args, out: _Output) -> int:
    mode, inf = parse_proof_script(_read(args.proof))
    if args.system:
        ds, oracle, _family = manifest_context(parse_manifest(_read(args.system)))
    elif args.frames:
        frames = [parse_frame_file(_read(p)) for p in args.frames]
        oracle = tabular_oracle(frames, Budget(max_worlds=args.budget, max_vars=8))
        ds = system(mode)
    else:
        ds, oracle = system(mode), None
    if args.what == "extract":
        result = extract_positive(inf)
        report = check_inference(ds, result)
        if not report.ok:
            out.verdict(str(report))
            return 1
        out.verdict("EXTRACTED", payload=render_proof_script(mode, result))
        return 0
    if oracle is None:
        raise ValueError("transform symmetry needs --system or --frames")
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


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lukas",
        description="proof and refutation calculi for intermediate logics and K4")
    parser.add_argument("--budget", type=int, default=8,
                        help="world/variable budget for enumeration")
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
    p.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    p.set_defaults(run=cmd_valid)

    p = sub.add_parser("jankov", help="print the Jankov formula of a frame")
    p.add_argument("--frame", required=True)
    p.set_defaults(run=cmd_jankov)

    p = sub.add_parser("axiomatize", help="emit a system manifest for frames")
    p.add_argument("--frames", nargs="+", required=True)
    p.add_argument("--bound", type=int, default=3,
                   help="frame-size bound for the Jankov family")
    p.add_argument("--budget", type=int, default=argparse.SUPPRESS)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = _Output(args.format == "json")
    try:
        return args.run(args, out)
    except (ParseError, ModeError, OSError, ValueError) as exc:
        return out.error(2, "error", exc)
    except SearchExhaustedError as exc:
        return out.error(1, "not found", exc)
    except ResourceBoundError as exc:
        return out.error(3, "resource bound", exc)
    except RecursionError:
        return out.error(3, "resource bound", "formula nesting exceeds the recursion limit")


if __name__ == "__main__":
    sys.exit(main())
