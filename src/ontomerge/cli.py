"""Command-line front end for the merging pipeline.

Subcommands: merge (full pipeline), explain (distance table, relaxation
trace and scenario scores), check (network consistency per input),
classify (entailed atomic facts per input), translate (one direction of
the ontology/network translation).  Exit codes: 0 success, 2 input
error, 3 internal error.  Output is deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .distance import DistanceTable, render_distance_table
from .merging import MergeTrace, merge
from .ontology import (
    Classification,
    Ontology,
    OntologyError,
    classify,
    format_ontology,
    ontology_to_json,
    parse_ontology,
)
from .rcc5 import (
    QCN,
    Scenario,
    enumerate_scenarios,
    is_consistent,
    qcn_from_json,
    qcn_to_dot,
    qcn_to_json,
)
from .selection import ConflictReport, select_scenario
from .translate import ForwardTranslation, backward, forward

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
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PipelineError(stage, f"cannot read {path}: {exc.strerror or exc}") from exc


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
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entry = Path(line)
            if not entry.is_absolute():
                entry = profile_path.parent / entry
            paths.append(str(entry))
    if not paths:
        raise PipelineError("input", "no input ontologies given")
    return paths


@dataclass(frozen=True)
class PipelineResult:
    sources: tuple[Ontology, ...]
    translations: tuple[ForwardTranslation, ...]
    table: DistanceTable
    merged: QCN
    trace: MergeTrace
    scenarios: tuple[Scenario, ...]
    selected: Scenario
    report: ConflictReport
    result: Ontology


def run_pipeline(sources: Sequence[Ontology]) -> PipelineResult:
    """Translate, merge, pick the representative scenario, translate back."""
    union: list[str] = []
    for o in sources:
        for concept in o.concepts:
            if concept not in union:
                union.append(concept)
    if not union:
        raise PipelineError("translate-forward", "the sources declare no concepts")
    try:
        translations = tuple(forward(o, variables=union) for o in sources)
    except ValueError as exc:
        raise PipelineError("translate-forward", str(exc)) from exc
    merged, trace = merge([t.qcn for t in translations])
    scenarios = tuple(enumerate_scenarios(merged))
    assert scenarios, "a consistent merged network admits a scenario"
    selected, report = select_scenario(scenarios, list(sources))
    result = backward(selected)
    return PipelineResult(
        sources=tuple(sources),
        translations=translations,
        table=trace.table,
        merged=merged,
        trace=trace,
        scenarios=scenarios,
        selected=selected,
        report=report,
        result=result,
    )


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def cmd_merge(args: argparse.Namespace) -> int:
    sources = [_load_ontology(path) for path in _input_paths(args)]
    result = run_pipeline(sources)
    if args.emit_qcn:
        _write_output(qcn_to_json(result.merged), args.emit_qcn)
    if args.trace:
        _write_output(_dump_json(result.trace.to_json_dict()), args.trace)
    if args.emit_scenarios:
        _write_output(_dump_json(result.report.to_json_dict()), args.emit_scenarios)
    if args.dot:
        _write_output(qcn_to_dot(result.merged, name="merged"), args.dot)
    payload = ontology_to_json(result.result) if args.json else format_ontology(result.result)
    _write_output(payload, args.output)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    sources = [_load_ontology(path) for path in _input_paths(args)]
    result = run_pipeline(sources)
    lines: list[str] = []
    lines.append("Distance table (relations x pairs):")
    lines.append(render_distance_table(result.table, fmt="csv" if args.csv else "text").rstrip("\n"))
    for source_index, pair in result.table.empty_entries:
        lines.append(f"warning: source {source_index + 1} has an empty constraint on {pair}")
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
    for i, score in enumerate(result.report.scores):
        marker = " (selected)" if i == result.report.selected_index else ""
        body = ", ".join(f"{u}-{v}: {rel!r}" for u, v, rel in score.scenario.items())
        per_source = "+".join(str(n) for n in score.per_source)
        lines.append(f"  scenario {i + 1}: distance {score.distance} ({per_source}){marker}")
        lines.append(f"    {body}")
    if result.report.tied_indices:
        tied = ", ".join(str(i + 1) for i in result.report.tied_indices)
        lines.append(f"  tie between scenarios {tied}; lexicographically smallest selected")
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    paths = _input_paths(args)
    reports = []
    lines = []
    for path in paths:
        o = _load_ontology(path)
        translation = forward(o)
        consistent = is_consistent(translation.qcn)
        verdict = "consistent" if consistent else "inconsistent"
        detail = ""
        if translation.conflicting_pairs:
            pairs = ", ".join(f"{u}-{v}" for u, v in translation.conflicting_pairs)
            detail = f" (conflicting pairs: {pairs})"
        lines.append(f"{path}: {verdict}{detail}")
        reports.append(
            {
                "path": path,
                "consistent": consistent,
                "conflicting_pairs": [list(p) for p in translation.conflicting_pairs],
                "dropped_role_axioms": len(translation.dropped_role_axioms),
            }
        )
    payload = _dump_json({"inputs": reports}) if args.json else "\n".join(lines) + "\n"
    _write_output(payload, args.output)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    o = _load_ontology(args.input)
    classification: Classification = classify(o.tbox, concepts=o.concepts)
    if args.json:
        _write_output(_dump_json(classification.to_json_dict()), args.output)
        return EXIT_OK
    lines = []
    for sub in sorted([s.sub, s.sup] for s in classification.subsumptions):
        lines.append(f"{sub[0]} <= {sub[1]}")
    for pair in sorted([d.first, d.second] for d in classification.disjointness):
        lines.append(f"{pair[0]} & {pair[1]} <= bot")
    for concept in sorted(classification.unsatisfiable):
        lines.append(f"# unsatisfiable: {concept}")
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_translate(args: argparse.Namespace) -> int:
    if args.direction == "forward":
        o = _load_ontology(args.input)
        translation = forward(o)
        _write_output(qcn_to_json(translation.qcn), args.output)
        return EXIT_OK
    text = _read_text(args.input, "translate-backward")
    try:
        qcn = qcn_from_json(text)
        scenario = Scenario.from_qcn(qcn)
    except (ValueError, json.JSONDecodeError) as exc:
        raise PipelineError("translate-backward", f"{args.input}: {exc}") from exc
    result = backward(scenario)
    payload = ontology_to_json(result) if args.json else format_ontology(result)
    _write_output(payload, args.output)
    return EXIT_OK


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
    p_merge.add_argument("--seed", type=int, default=0, help="reserved; the pipeline is exact")
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
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
