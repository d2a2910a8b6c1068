"""Choosing a representative scenario by counting ABox conflicts.

Each source contributes, per scenario constraint, the number of its
(closed) individuals that contradict the constraint: members of the
would-be subset missing from the superset for {PP,EQ}-like labels, the
mirror image for {PPi,EQ}-like labels, and common members for {DR}.  A
{PO} label counts how unbalanced those three figures are (max minus
min).  The representative scenario minimizes the grand total, with a
lexicographic tie-break on its labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Mapping, Sequence

from .ontology import ClosedABox, Ontology, deductive_closure
from .rcc5 import EQ, PO, PP, DR, PPi, Relation, Scenario

__all__ = [
    "PairConflicts",
    "pair_conflicts",
    "nb_conflicts",
    "scenario_distance",
    "ScenarioScore",
    "ConflictReport",
    "select_scenario",
]

#: The count each scenario label is charged, by label mask: the non-empty
#: subsets of {PP,EQ} the subset count, the other non-empty subsets of
#: {PPi,EQ} the superset count, {DR} the common count, {PO} the overlap.
_COUNT_OF_LABEL: dict[int, Callable[["PairConflicts"], int]] = {
    PP.value: attrgetter("subset_count"),
    EQ.value: attrgetter("subset_count"),
    PP.value | EQ.value: attrgetter("subset_count"),
    PPi.value: attrgetter("superset_count"),
    PPi.value | EQ.value: attrgetter("superset_count"),
    DR.value: attrgetter("common_count"),
    PO.value: attrgetter("overlap_count"),
}


@dataclass(frozen=True)
class PairConflicts:
    """Conflict counts of one source against one ordered concept pair.

    Holds the two concepts' instance sets as the closed ABox indexes them;
    the counts come from one intersection, and the witness lists are
    built only for the JSON report.
    """

    in_first: frozenset[str]
    in_second: frozenset[str]
    common_count: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "common_count", len(self.in_first & self.in_second))

    @property
    def subset_count(self) -> int:
        return len(self.in_first) - self.common_count

    @property
    def superset_count(self) -> int:
        return len(self.in_second) - self.common_count

    @property
    def overlap_count(self) -> int:
        counts = (self.subset_count, self.superset_count, self.common_count)
        return max(counts) - min(counts)

    def for_label(self, label: Relation) -> int:
        try:
            count = _COUNT_OF_LABEL[label.mask]
        except KeyError:
            raise ValueError(f"not a scenario label: {label!r}") from None
        return count(self)

    def to_json_dict(self) -> dict:
        return {
            "subset_like": sorted(self.in_first - self.in_second),
            "superset_like": sorted(self.in_second - self.in_first),
            "disjoint": sorted(self.in_first & self.in_second),
            "overlap_count": self.overlap_count,
        }


def pair_conflicts(closed: ClosedABox, first: str, second: str) -> PairConflicts:
    """Conflicts of one closed ABox on the ordered pair (first, second)."""
    return PairConflicts(closed.instances_of(first), closed.instances_of(second))


def nb_conflicts(closed: ClosedABox, pair: tuple[str, str], label: Relation) -> int:
    """Individuals of one source conflicting with a scenario label."""
    return pair_conflicts(closed, *pair).for_label(label)


def _check_signature(variables: Sequence[str], profile: Sequence[Ontology]) -> None:
    """The sources' concepts must be exactly the scenario variables."""
    union = set().union(*(o.concepts for o in profile))
    if union != set(variables):
        raise ValueError(
            f"signature mismatch: scenarios have {sorted(variables)}, sources cover {sorted(union)}"
        )


def scenario_distance(s: Scenario, profile: Sequence[Ontology]) -> int:
    """Total conflicts of all sources against all scenario constraints.

    Every unordered pair counts once, in canonical (lexicographic)
    orientation; each source is closed against its own TBox.
    """
    _check_signature(s.variables, profile)
    closures = [deductive_closure(o) for o in profile]
    total = 0
    for u, v, label in s.canonical_items():
        for closed in closures:
            total += nb_conflicts(closed, (u, v), label)
    return total


@dataclass(frozen=True)
class ScenarioScore:
    scenario: Scenario
    distance: int
    per_source: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "distance": self.distance,
            "per_source": list(self.per_source),
            "qcn": self.scenario.to_json_dict(),
        }


@dataclass(frozen=True)
class ConflictReport:
    """Scores for every candidate plus the per-(source, pair) counts."""

    counts: Mapping[tuple[int, tuple[str, str]], PairConflicts]
    scores: tuple[ScenarioScore, ...]
    selected_index: int
    tied_indices: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "scenarios": [
                {"index": i + 1, **score.to_json_dict()} for i, score in enumerate(self.scores)
            ],
            "selected": self.selected_index + 1,
            "tied": [i + 1 for i in self.tied_indices],
            "pair_counts": [
                {"source": source + 1, "pair": list(pair), **pc.to_json_dict()}
                for (source, pair), pc in sorted(self.counts.items())
            ],
        }


def select_scenario(
    candidates: Sequence[Scenario], profile: Sequence[Ontology]
) -> tuple[Scenario, ConflictReport]:
    """The candidate with minimal distance to the profile.

    Ties break by `QCN.sort_key`, the order `enumerate_scenarios` lists
    scenarios in; the report lists every tied candidate.
    """
    if not candidates:
        raise ValueError("no candidate scenarios")
    _check_signature(candidates[0].variables, profile)
    closures = [deductive_closure(o) for o in profile]

    counts: dict[tuple[int, tuple[str, str]], PairConflicts] = {}
    pairs = [(u, v) for u, v, _ in candidates[0].canonical_items()]
    for source_index, closed in enumerate(closures):
        for pair in pairs:
            counts[(source_index, pair)] = pair_conflicts(closed, *pair)

    scores = []
    for s in candidates:
        labelled = [((u, v), label) for u, v, label in s.canonical_items()]
        per_source = [
            sum(counts[(source_index, pair)].for_label(label) for pair, label in labelled)
            for source_index in range(len(closures))
        ]
        scores.append(
            ScenarioScore(scenario=s, distance=sum(per_source), per_source=tuple(per_source))
        )

    best = min(score.distance for score in scores)
    tied = tuple(i for i, score in enumerate(scores) if score.distance == best)
    selected = min(tied, key=lambda i: candidates[i].sort_key())
    report = ConflictReport(
        counts=counts,
        scores=tuple(scores),
        selected_index=selected,
        tied_indices=tied if len(tied) > 1 else (),
    )
    return candidates[selected], report
