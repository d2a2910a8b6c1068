"""The benchmark's workloads: which cases each one runs, and how outputs are checked.

Every case function takes source texts, runs the stages its workload
exercises and returns the output text together with the objects the
invariant checks need.  Functions of the program are looked up on their
modules at call time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from ontomerge import cli, distance, merging, ontology, rcc5, selection, translate

import generators

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNING_EXAMPLE = ROOT / "data" / "running_example"
GOLDEN = HERE / "golden" / "running_example.txt"
DIGESTS = HERE / "digests.json"


@dataclass(frozen=True)
class Case:
    key: str
    n: int
    texts: tuple[str, ...]


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()[:16]


def _union(sources: Sequence[ontology.Ontology]) -> list[str]:
    union: list[str] = []
    for o in sources:
        union += [c for c in o.concepts if c not in union]
    return union


def full_pipeline(texts: Sequence[str]) -> tuple[str, Any]:
    """Parse, run the whole pipeline and render the result, as `merge` does."""
    sources = [ontology.parse_ontology(t) for t in texts]
    result = cli.run_pipeline(sources)
    return ontology.format_ontology(result.result), result


def pipeline_invariants(result: Any) -> str | None:
    if not rcc5.is_consistent(result.merged):
        return "merged network is inconsistent"
    if result.selected not in result.scenarios:
        return "selected scenario is not among the candidates"
    again = ontology.parse_ontology(ontology.format_ontology(result.result))
    if (again.tbox, again.abox) != (result.result.tbox, result.result.abox):
        return "result does not round-trip through the text format"
    return None


def merge_stage(texts: Sequence[str]) -> tuple[str, Any]:
    """Translate forward, build the distance table and merge; no scenario stage."""
    sources = [ontology.parse_ontology(t) for t in texts]
    union = _union(sources)
    networks = [translate.forward(o, variables=union).qcn for o in sources]
    distance.distance_table(networks)
    merged, trace = merging.merge(networks)
    steps = [[it.index, it.value, [list(p) for p in it.relaxed_pairs]] for it in trace.iterations]
    return rcc5.qcn_to_json(merged) + json.dumps(steps) + "\n", merged


def merge_invariants(merged: Any) -> str | None:
    return None if rcc5.is_consistent(merged) else "merged network is inconsistent"


_SUBSET = rcc5.Relation([rcc5.PP, rcc5.EQ])
_SUPERSET = rcc5.Relation([rcc5.PPi, rcc5.EQ])
_EQUAL = rcc5.Relation([rcc5.EQ])
_DISJOINT = rcc5.Relation([rcc5.DR])
_OVERLAP = rcc5.Relation([rcc5.PO])


def classification_candidate(c: ontology.Classification, variables: list[str]) -> rcc5.Scenario:
    """The full-signature scenario that adopts one source's classification."""
    labels = {}
    for i, u in enumerate(variables):
        for v in variables[i + 1 :]:
            down = c.entails_subsumption(u, v)
            up = c.entails_subsumption(v, u)
            if down and up:
                labels[(u, v)] = _EQUAL
            elif down or up:
                labels[(u, v)] = _SUBSET if down else _SUPERSET
            else:
                labels[(u, v)] = _DISJOINT if c.entails_disjointness(u, v) else _OVERLAP
    return rcc5.Scenario(variables, labels)


def selection_stage(texts: Sequence[str]) -> tuple[str, Any]:
    """Classify source 1, adopt its classification and score it against every source."""
    sources = [ontology.parse_ontology(t) for t in texts]
    union = _union(sources)
    candidate = classification_candidate(ontology.classify(sources[0].tbox, concepts=union), union)
    selected, report = selection.select_scenario([candidate], sources)
    score = report.scores[report.selected_index]
    lines = [f"distance {score.distance} per_source {list(score.per_source)}"]
    lines += [f"{u} {v} {rel!r}" for u, v, rel in selected.items()]
    return "\n".join(lines) + "\n", (candidate, sources, score)


def selection_invariants(state: Any) -> str | None:
    """The score's distance against `scenario_distance`, which counts each pair's conflicts anew."""
    candidate, sources, score = state
    if score.distance != selection.scenario_distance(candidate, sources):
        return "distance differs from scenario_distance of the candidate"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Sequence[str]], tuple[str, Any]]
    invariants: Callable[[Any], str | None]
    #: Sizes of the fixed case set, `per_size` cases each, timed in every pass.
    sizes: tuple[int, ...]
    per_size: int
    #: Sizes tried once each, in order and `PROBE_CASES` cases a size, after
    #: the fixed set; the first failed case ends the probe.
    probe: tuple[int, ...]
    #: CLI arguments for one case, given its profile and first source file.
    cli_args: Callable[[Path, Path], list[str]]
    #: Share of the measuring window spent on whole-CLI subprocesses.
    cli_share: float

    def cases(self, seed: int) -> list[Case]:
        """The fixed case set; the running example ignores the seed."""
        if self.name == "running_example":
            texts = tuple(
                (RUNNING_EXAMPLE / f"source{i}.txt").read_text(encoding="utf-8") for i in (1, 2, 3, 4)
            )
            return [Case("running_example", 4, texts)]
        return [self.case(seed, n, i) for n in self.sizes for i in range(self.per_size)]

    def case(self, seed: int, n: int, index: int) -> Case:
        return Case(f"{seed}/{n}/{index}", n, tuple(generators.make_case(self.name, seed, n, index)))


PROBE_CASES = 3


def _merge_args(profile: Path, first: Path) -> list[str]:
    return ["merge", "--profile", str(profile)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("running_example", full_pipeline, pipeline_invariants, (4,), 1, (), _merge_args, 0.5),
        Workload(
            "dense_conflict", full_pipeline, pipeline_invariants, (4, 5), 8, tuple(range(6, 31)),
            _merge_args, 0.3,
        ),
        Workload(
            "sparse_merge", merge_stage, merge_invariants, (20, 30, 40), 3, tuple(range(50, 101, 10)),
            lambda profile, first: ["check", "--profile", str(profile)], 0.3,
        ),
        Workload(
            "taxonomy", selection_stage, selection_invariants, (40, 50, 60, 70, 80), 2, (),
            lambda profile, first: ["classify", str(first)], 0.3,
        ),
    )
}


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
