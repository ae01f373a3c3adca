"""Batch command-line front-end over the engine.

Exit codes are stable: 0 ok, 1 parse/precondition failure, usage error or
an output that cannot be written, 2 dangling condition violated, 3 check
verdict false, 4 derivations dependent, 5 internal inconsistency.
Machine-readable JSON reports go to standard output; a human summary goes
to standard error unless ``--json`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from pathlib import Path
from typing import Callable

from . import io
from .diagrams import is_pullback, is_pushout_injective
from .errors import (
    DanglingConditionError,
    DependentDerivationsError,
    FormatError,
    InternalConsistencyError,
    PreconditionError,
    RewriteError,
)
from .graph import Graph, is_isomorphic, validate_graph
from .independence import (
    ParallelPair,
    blocking_items,
    commute,
    parallel_independent,
    verify_commutation_squares,
)
from .morphism import validate_morphism
from .rewriting import Match, apply, find_matches, validate_rule

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DANGLING = 2
EXIT_VERDICT_FALSE = 3
EXIT_DEPENDENT = 4
EXIT_INTERNAL = 5

# an error's exit code is that of the first class here it is an instance of,
# so a subclass comes before its base; an OSError is an output that cannot be
# written, as load_json turns every failed read into a FormatError, and the
# one other engine error, InternalConsistencyError, is an engine bug
EXIT_CODES = (
    (DependentDerivationsError, EXIT_DEPENDENT),
    (DanglingConditionError, EXIT_DANGLING),
    ((PreconditionError, FormatError, OSError), EXIT_PARSE),
    (RewriteError, EXIT_INTERNAL),
)


def _emit(doc: dict, summary: str, args: argparse.Namespace) -> None:
    io.write_json(doc, sys.stdout)
    if not args.json:
        print(summary, file=sys.stderr)


def _load_match(selector_index: int | None, selector_file: str | None, rule, host) -> Match:
    """The selected match. A match file is a morphism from L into the host,
    or :func:`io.load_morphism` rejects it; :func:`apply` checks its
    injectivity and the dangling condition."""
    if selector_file is not None:
        return Match(io.load_morphism(selector_file, source=rule.L, target=host))
    matches = find_matches(rule, host)
    index = selector_index or 0
    if not 0 <= index < len(matches):
        raise PreconditionError(f"match index {index} out of range ({len(matches)} matches)")
    return matches[index]


def _is_a_directory(path: str) -> OSError:
    return IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _beside(out: str, suffix: str) -> str:
    """The default path of a second output: ``out`` with ``suffix`` for its
    own. An ``out`` with an empty name, such as ``.``, names a directory
    and is refused here; :func:`_write_all` refuses any other directory."""
    if not Path(out).name:
        raise _is_a_directory(out)
    return str(Path(out).with_suffix("")) + suffix


def _write_all(outputs: list[tuple[str, Callable[[str], object]]]) -> None:
    """Call each writer on a temporary file beside its target, then move all
    the files into place: an output that cannot be written or moved, whose
    target is a directory, or whose target is another output's file, leaves
    no output and no temporary file behind. A move that fails puts back each
    target moved before it: its earlier bytes, or no file if it had none."""
    named: dict[str, str] = {}
    for target, _ in outputs:
        if os.path.isdir(target):
            raise _is_a_directory(target)
        real = os.path.realpath(target)
        if real in named:
            raise PreconditionError(f"outputs {named[real]} and {target} name one file")
        named[real] = target
    moves: list[tuple[str, str]] = []
    moved: list[tuple[str, bytes | None]] = []
    try:
        for i, (target, write) in enumerate(outputs):
            moves.append((f"{target}.{os.getpid()}.{i}.tmp", target))
            write(moves[-1][0])
        for tmp, target in moves:
            earlier = Path(target).read_bytes() if os.path.exists(target) else None
            os.replace(tmp, target)
            moved.append((target, earlier))
    except BaseException as exc:
        for tmp, _ in moves:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        for path, earlier in moved:
            with contextlib.suppress(OSError):
                if earlier is None:
                    os.remove(path)
                else:
                    Path(path).write_bytes(earlier)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the output that failed, not its temporary file
            raise OSError(exc.errno, exc.strerror, target) from exc
        raise


def _write_result(args: argparse.Namespace, g: Graph, side: str, doc: dict) -> None:
    """Write a verb's result graph ``g`` to ``--out``, ``doc`` to ``side``
    and, if ``--dot`` is given, ``g`` in DOT syntax: all or none
    (:func:`_write_all`)."""
    outputs = [
        (args.out, lambda path: io.save_graph(g, path)),
        (side, lambda path: io.save_json(doc, path)),
    ]
    if args.dot:
        outputs.append((args.dot, lambda path: Path(path).write_text(io.to_dot(g), encoding="utf-8")))
    _write_all(outputs)


def _parse_selector(value: str) -> tuple[int | None, str | None]:
    try:
        return int(value), None
    except ValueError:
        return None, value


def cmd_validate(args: argparse.Namespace) -> int:
    doc = io.load_json(args.path)
    if isinstance(doc, dict) and {"L", "K", "R"} <= set(doc):
        kind, report = "rule", validate_rule(*io.rule_parts_from_json(doc))
    elif isinstance(doc, dict) and "nodes" in doc:
        kind, report = "graph", validate_graph(io.graph_from_json(doc))
    elif isinstance(doc, dict) and "fv" in doc:
        kind, report = "morphism", validate_morphism(io.standalone_morphism(doc, args.path))
    else:
        raise FormatError("unrecognized document kind")
    _emit(
        {
            "kind": kind,
            "ok": bool(report),
            "violations": [{"clause": v.clause, "item": " ".join(map(str, v.item))} for v in report.violations],
        },
        f"{kind}: {'ok' if report else f'{len(report.violations)} violation(s)'}",
        args,
    )
    return EXIT_OK if report else EXIT_VERDICT_FALSE


def cmd_iso(args: argparse.Namespace) -> int:
    g = io.load_graph(args.graph1)
    h = io.load_graph(args.graph2)
    witness = is_isomorphic(g, h)
    _emit(
        {
            "isomorphic": witness is not None,
            "witness": io.iso_witness_to_json(witness) if witness else None,
        },
        "isomorphic" if witness else "not isomorphic",
        args,
    )
    return EXIT_OK if witness else EXIT_VERDICT_FALSE


def cmd_match(args: argparse.Namespace) -> int:
    rule = io.load_rule(args.rule)
    host = io.load_graph(args.graph)
    matches = find_matches(rule, host)
    _emit(
        {"count": len(matches), "matches": [io.morphism_to_json(m.m) for m in matches]},
        f"{len(matches)} match(es)",
        args,
    )
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    rule = io.load_rule(args.rule)
    host = io.load_graph(args.graph)
    derivation = apply(rule, _load_match(args.match_index, args.match, rule, host))
    trace_path = args.trace or _beside(args.out, ".trace.json")
    _write_result(args, derivation.H, trace_path, io.derivation_trace_json(derivation))
    _emit(
        {
            "out": str(args.out),
            "trace": str(trace_path),
            "nodes": len(derivation.H.nodes),
            "edges": len(derivation.H.edges),
        },
        f"wrote {args.out} ({len(derivation.H.nodes)} nodes, {len(derivation.H.edges)} edges)",
        args,
    )
    return EXIT_OK


def cmd_check_square(args: argparse.Namespace) -> int:
    square = io.load_square(args.square)
    check = is_pushout_injective if args.mode == "pushout" else is_pullback
    report = check(square)
    _emit(
        io.check_report_to_json(report),
        f"{args.mode}: {'yes' if report else f'no ({report.failed_clause})'}",
        args,
    )
    return EXIT_OK if report else EXIT_VERDICT_FALSE


def _build_pair(args: argparse.Namespace) -> ParallelPair:
    rule1 = io.load_rule(args.rule1)
    rule2 = io.load_rule(args.rule2)
    host = io.load_graph(args.graph)
    idx1, file1 = _parse_selector(args.match1)
    idx2, file2 = _parse_selector(args.match2)
    m1 = _load_match(idx1, file1, rule1, host)
    m2 = _load_match(idx2, file2, rule2, host)
    return ParallelPair(apply(rule1, m1), apply(rule2, m2))


def _report_dependent(pair: ParallelPair, args: argparse.Namespace) -> int:
    blocked = [{"triangle": v.clause, "item": list(v.item)} for v in blocking_items(pair).violations]
    _emit(
        {"independent": False, "blocked": blocked},
        f"dependent ({len(blocked)} blocking item(s))",
        args,
    )
    return EXIT_DEPENDENT


def cmd_independent(args: argparse.Namespace) -> int:
    pair = _build_pair(args)
    witness = parallel_independent(pair)
    if witness is None:
        return _report_dependent(pair, args)
    _emit(
        {
            "independent": True,
            "j1": io.morphism_to_json(witness.j1),
            "j2": io.morphism_to_json(witness.j2),
        },
        "parallel independent",
        args,
    )
    return EXIT_OK


def cmd_commute(args: argparse.Namespace) -> int:
    pair = _build_pair(args)
    witness = parallel_independent(pair)
    if witness is None:
        return _report_dependent(pair, args)
    result = commute(pair)
    squares = verify_commutation_squares(pair, witness, result)
    if not squares:
        raise InternalConsistencyError(f"commutation squares failed verification: {squares.failed_clause}", squares.counterexample)
    report = {
        "version": 2,
        "residual_match_2": io.morphism_to_json(result.e1.match.m),
        "residual_match_1": io.morphism_to_json(result.e2.match.m),
        "iso": io.iso_witness_to_json(result.iso),
        "squares": io.check_report_to_json(squares),
    }
    report_path = args.report or _beside(args.out, ".report.json")
    _write_result(args, result.Gp, report_path, report)
    _emit(
        {"out": str(args.out), "report": str(report_path), "nodes": len(result.Gp.nodes)},
        f"commuted; wrote {args.out}",
        args,
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 (:data:`EXIT_PARSE`):
    argparse's own code, 2, means a violated dangling condition here.
    Subparsers are built with the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpo", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine report only")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common], help="validate a graph, rule or morphism file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("iso", parents=[common], help="test two graph files for isomorphism")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("match", parents=[common], help="enumerate injective matches of a rule")
    p.add_argument("rule")
    p.add_argument("graph")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("apply", parents=[common], help="apply a rule at a match")
    p.add_argument("rule")
    p.add_argument("graph")
    selector = p.add_mutually_exclusive_group()
    selector.add_argument("--match-index", type=int, default=None)
    selector.add_argument("--match", default=None, help="explicit morphism file")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="trace file, default <out>.trace.json: version, rule, match, "
                   "deleted host ids, created R-id to H-id maps, comatch, both square checks")
    p.add_argument("--dot", default=None, help="also write the result in DOT syntax")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("check-square", parents=[common], help="check a square file as pushout or pullback")
    p.add_argument("square")
    p.add_argument("--mode", choices=("pushout", "pullback"), required=True)
    p.set_defaults(func=cmd_check_square)

    for verb, func, about in (
        ("independent", cmd_independent, "test two derivations for parallel independence"),
        ("commute", cmd_commute, "close the diamond of two independent derivations"),
    ):
        p = sub.add_parser(verb, parents=[common], help=about)
        p.add_argument("rule1")
        p.add_argument("rule2")
        p.add_argument("graph")
        p.add_argument("--match1", required=True, help="match index or morphism file")
        p.add_argument("--match2", required=True, help="match index or morphism file")
        if verb == "commute":
            p.add_argument("--out", required=True, help="the final graph G'")
            p.add_argument("--report", default=None, help="report file, default <out>.report.json: version, "
                           "both residual matches, the iso witness, the square check")
            p.add_argument("--dot", default=None, help="also write the final graph in DOT syntax")
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RewriteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    except Exception as exc:
        # an input the loaders let through and the engine cannot handle
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
