"""Command-line front end for the merging pipeline.

Subcommands: merge (full pipeline), explain (distance table, relaxation
trace and scenario scores), check (network consistency per input),
classify (entailed atomic facts per input), translate (one direction of
the ontology/network translation).  Exit codes: 0 success, 2 input
error, 3 internal error.  Output is deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .ontology import (
    _LINE_BREAK,
    Disjointness,
    Ontology,
    OntologyError,
    Subsumption,
    _Record,
    classify,
    format_ontology,
    format_statement,
    ontology_to_json,
    parse_ontology,
)

# Each command imports the other layers it runs inside its handler, so
# `classify` loads no network code and `check` no merging or selection;
# `json` is imported only where JSON is written.
if TYPE_CHECKING:
    from .merging import MergeTrace
    from .rcc5 import QCN, MaximalScenarios, Scenario
    from .selection import ScenarioScore
    from .translate import ForwardTranslation

__all__ = ["main", "build_parser", "PipelineError", "run_pipeline"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class PipelineError(Exception):
    """Input-level failure, tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def _read_text(path: str, stage: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise PipelineError(stage, f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise PipelineError(stage, f"cannot read {path}: not UTF-8 text ({exc})") from exc


def _load_ontology(path: str) -> Ontology:
    text = _read_text(path, "parse")
    try:
        return parse_ontology(text)
    except OntologyError as exc:
        raise PipelineError("parse", f"{path}: {exc}") from exc


def _input_paths(args: argparse.Namespace) -> list[str]:
    paths = list(args.inputs)
    if args.profile:
        profile_path = Path(args.profile)
        text = _read_text(args.profile, "profile")
        for line in _LINE_BREAK.split(text):
            line = line.strip(" \t")
            if not line or line.startswith("#"):
                continue
            entry = Path(line)
            if not entry.is_absolute():
                entry = profile_path.parent / entry
            paths.append(str(entry))
    if not paths:
        raise PipelineError("input", "no input ontologies given")
    return paths


class PipelineResult(_Record):
    """What `run_pipeline` computed.  `scenarios` lists the merged
    network's maximal scenarios only when it is iterated, indexed or
    counted; `selected` and its `score` come from `best_scenario`."""

    __slots__ = ()
    _fields = ("translations", "merged", "trace", "scenarios", "selected", "score", "result")
    translations: tuple[ForwardTranslation, ...]
    merged: QCN
    trace: MergeTrace
    scenarios: MaximalScenarios
    selected: Scenario
    score: ScenarioScore
    result: Ontology


def run_pipeline(sources: Sequence[Ontology]) -> PipelineResult:
    """Translate, merge, pick the representative scenario, translate back."""
    from .merging import merge
    from .rcc5 import MaximalScenarios
    from .selection import best_scenario
    from .translate import backward, forward

    union = tuple(dict.fromkeys(chain.from_iterable(o.concepts for o in sources)))
    if not union:
        raise PipelineError("translate-forward", "the sources declare no concepts")
    try:
        translations = tuple(forward(o, variables=union) for o in sources)
    except ValueError as exc:
        raise PipelineError("translate-forward", str(exc)) from exc
    merged, trace = merge([t.qcn for t in translations])
    selected, score = best_scenario(merged, sources)
    return PipelineResult(
        translations=translations,
        merged=merged,
        trace=trace,
        scenarios=MaximalScenarios(merged),
        selected=selected,
        score=score,
        result=backward(selected),
    )


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # a reader that closed the pipe early: send the rest of stdout,
            # and the interpreter's flush at exit, to devnull (see the
            # `signal` docs on SIGPIPE), so the status stays 2
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise PipelineError("output", f"cannot write to stdout: {exc.strerror or exc}") from exc
    else:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise PipelineError("output", f"cannot write {path}: {exc.strerror or exc}") from exc


def _dump_json(data: dict) -> str:
    import json

    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def cmd_merge(args: argparse.Namespace) -> str:
    from .rcc5 import qcn_to_dot, qcn_to_json

    sources = [_load_ontology(path) for path in _input_paths(args)]
    result = run_pipeline(sources)
    if args.emit_qcn:
        _write_output(qcn_to_json(result.merged), args.emit_qcn)
    if args.trace:
        _write_output(_dump_json(result.trace.to_json_dict()), args.trace)
    if args.emit_scenarios:
        from .selection import select_scenario

        _, report = select_scenario(result.scenarios, sources)
        _write_output(_dump_json(report.to_json_dict()), args.emit_scenarios)
    if args.dot:
        _write_output(qcn_to_dot(result.merged, name="merged"), args.dot)
    return ontology_to_json(result.result) if args.json else format_ontology(result.result)


def cmd_explain(args: argparse.Namespace) -> str:
    from .distance import render_distance_table
    from .selection import select_scenario

    sources = [_load_ontology(path) for path in _input_paths(args)]
    result = run_pipeline(sources)
    lines: list[str] = []
    lines.append("Distance table (relations x pairs):")
    lines.append(render_distance_table(result.trace.table, fmt="csv" if args.csv else "text").rstrip("\n"))
    pairs = [(pair, k) for k, t in enumerate(result.translations) for pair in t.conflicting_pairs]
    for (u, v), k in sorted(pairs):
        lines.append(f"warning: source {k + 1} has an empty constraint on {u}-{v}")
    lines.append("")
    lines.append("Relaxation trace:")
    initial = ", ".join(f"{u}-{v}: {rel!r}" for u, v, rel in result.trace.initial.items())
    lines.append(f"  initial: {initial}")
    for it in result.trace.iterations:
        pairs = ", ".join(f"{u}-{v}" for u, v in it.relaxed_pairs)
        labels = ", ".join(
            f"{u}-{v} -> {it.snapshot.constraint(u, v)!r}" for u, v in it.relaxed_pairs
        )
        lines.append(f"  iteration {it.index}: value {it.value}, relaxed {pairs} ({labels})")
    lines.append(f"  iterations: {len(result.trace.iterations)}")
    lines.append("")
    lines.append("Scenarios:")
    # the report scores every maximal scenario, so it lists them all
    _, report = select_scenario(result.scenarios, sources)
    for i, score in enumerate(report.scores):
        marker = " (selected)" if i == report.selected_index else ""
        body = ", ".join(f"{u}-{v}: {rel!r}" for u, v, rel in score.scenario.items())
        per_source = "+".join(str(n) for n in score.per_source)
        lines.append(f"  scenario {i + 1}: distance {score.distance} ({per_source}){marker}")
        lines.append(f"    {body}")
    if report.tied_indices:
        tied = ", ".join(str(i + 1) for i in report.tied_indices)
        lines.append(f"  tie between scenarios {tied}; lexicographically smallest selected")
    return "\n".join(lines) + "\n"


def cmd_check(args: argparse.Namespace) -> str:
    from .rcc5 import is_consistent
    from .translate import forward

    reports = []
    for path in _input_paths(args):
        translation = forward(_load_ontology(path))
        reports.append(
            {
                "path": path,
                "consistent": not translation.conflicting_pairs and is_consistent(translation.qcn),
                "conflicting_pairs": [list(p) for p in translation.conflicting_pairs],
                "dropped_role_axioms": len(translation.dropped_role_axioms),
            }
        )
    if args.json:
        return _dump_json({"inputs": reports})
    lines = []
    for report in reports:
        verdict = "consistent" if report["consistent"] else "inconsistent"
        pairs = ", ".join(f"{u}-{v}" for u, v in report["conflicting_pairs"])
        detail = f" (conflicting pairs: {pairs})" if pairs else ""
        lines.append(f"{report['path']}: {verdict}{detail}")
    return "\n".join(lines) + "\n"


def cmd_classify(args: argparse.Namespace) -> str:
    o = _load_ontology(args.input)
    facts = classify(o.tbox, concepts=o.concepts).to_json_dict()
    if args.json:
        return _dump_json(facts)
    lines = [format_statement(Subsumption(*pair)) for pair in facts["subsumptions"]]
    lines += [format_statement(Disjointness(*pair)) for pair in facts["disjointness"]]
    lines += [f"# unsatisfiable: {concept}" for concept in facts["unsatisfiable"]]
    return "\n".join(lines) + "\n"


def cmd_translate(args: argparse.Namespace) -> str:
    from .rcc5 import Scenario, is_consistent, qcn_from_json, qcn_to_json
    from .translate import backward, forward

    if args.direction == "forward":
        return qcn_to_json(forward(_load_ontology(args.input)).qcn)
    text = _read_text(args.input, "translate-backward")
    try:
        scenario = Scenario.from_qcn(qcn_from_json(text))
        if not is_consistent(scenario):
            raise ValueError("the scenario is inconsistent")
        result = backward(scenario)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; json.loads raises RecursionError on deeply
        # nested input (no network code recurses: is_consistent keeps an explicit stack)
        raise PipelineError("translate-backward", f"{args.input}: {exc}") from exc
    return ontology_to_json(result) if args.json else format_ontology(result)


def _add_io_arguments(parser: argparse.ArgumentParser, multi_input: bool) -> None:
    if multi_input:
        parser.add_argument("inputs", nargs="*", metavar="ONTOLOGY", help="ontology text files")
        parser.add_argument(
            "--profile", metavar="FILE", help="file listing ontology paths, one per line"
        )
    else:
        parser.add_argument("input", metavar="INPUT", help="input file")
    parser.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontomerge",
        description="Merge conflicting terminological knowledge bases through "
        "RCC-5 constraint networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="run the full merging pipeline")
    _add_io_arguments(p_merge, multi_input=True)
    p_merge.add_argument("--json", action="store_true", help="emit the result as JSON")
    p_merge.add_argument("--trace", metavar="FILE", help="write the relaxation trace as JSON")
    p_merge.add_argument("--emit-qcn", metavar="FILE", help="write the merged network as JSON")
    p_merge.add_argument(
        "--emit-scenarios", metavar="FILE", help="write scenario scores as JSON"
    )
    p_merge.add_argument("--dot", metavar="FILE", help="write the merged network as Graphviz")
    p_merge.set_defaults(handler=cmd_merge)

    p_explain = sub.add_parser(
        "explain", help="show the distance table, relaxation trace and scenario scores"
    )
    _add_io_arguments(p_explain, multi_input=True)
    p_explain.add_argument("--csv", action="store_true", help="render the table as CSV")
    p_explain.set_defaults(handler=cmd_explain)

    p_check = sub.add_parser("check", help="report consistency of each translated input")
    _add_io_arguments(p_check, multi_input=True)
    p_check.add_argument("--json", action="store_true", help="emit JSON")
    p_check.set_defaults(handler=cmd_check)

    p_classify = sub.add_parser("classify", help="dump entailed atomic facts of one input")
    _add_io_arguments(p_classify, multi_input=False)
    p_classify.add_argument("--json", action="store_true", help="emit JSON")
    p_classify.set_defaults(handler=cmd_classify)

    p_translate = sub.add_parser("translate", help="translate one input in one direction")
    p_translate.add_argument(
        "direction", choices=("forward", "backward"), help="ontology->network or back"
    )
    _add_io_arguments(p_translate, multi_input=False)
    p_translate.add_argument(
        "--json", action="store_true", help="emit backward results as JSON"
    )
    p_translate.set_defaults(handler=cmd_translate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], str] = args.handler
    try:
        _write_output(handler(args), args.output)
        return EXIT_OK
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
