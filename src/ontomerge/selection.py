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
from functools import cached_property
from operator import add
from typing import Iterator, Mapping, Sequence

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

#: The count each scenario label mask is charged, as an index into the
#: four counts (subset, superset, common, overlap) of a pair: the non-empty
#: subsets of {PP,EQ} the subset count, the other non-empty subsets of
#: {PPi,EQ} the superset count, {DR} the common count, {PO} the overlap;
#: None for a mask that is not a scenario label.
_COUNT_INDEX: tuple[int | None, ...] = tuple(
    map(
        {
            PP.value: 0,
            EQ.value: 0,
            PP.value | EQ.value: 0,
            PPi.value: 1,
            PPi.value | EQ.value: 1,
            DR.value: 2,
            PO.value: 3,
        }.get,
        range(32),
    )
)


def _count_index(label: Relation) -> int:
    index = _COUNT_INDEX[label.mask]
    if index is None:
        raise ValueError(f"not a scenario label: {label!r}")
    return index


def _four_counts(in_first: frozenset[str], in_second: frozenset[str]) -> tuple[int, int, int, int]:
    """The subset, superset, common and overlap counts of one ordered pair.

    Members of the first set missing from the second, the mirror image,
    the members of both, and how unbalanced those three figures are.
    """
    common = len(in_first & in_second)
    three = (len(in_first) - common, len(in_second) - common, common)
    return (*three, max(three) - min(three))


@dataclass(frozen=True)
class PairConflicts:
    """Conflict counts of one source against one ordered concept pair.

    Holds the two concepts' instance sets as the closed ABox indexes them;
    the counts come from one intersection, and the witness lists are
    built only for the JSON report.
    """

    in_first: frozenset[str]
    in_second: frozenset[str]
    counts: tuple[int, int, int, int] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _four_counts(self.in_first, self.in_second))

    @property
    def subset_count(self) -> int:
        return self.counts[0]

    @property
    def superset_count(self) -> int:
        return self.counts[1]

    @property
    def common_count(self) -> int:
        return self.counts[2]

    @property
    def overlap_count(self) -> int:
        return self.counts[3]

    def for_label(self, label: Relation) -> int:
        return self.counts[_count_index(label)]

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


class _PairCounts(Mapping):
    """The `PairConflicts` of every (source index, canonical pair), built when first read."""

    def __init__(self, closures: Sequence[ClosedABox], pairs: Sequence[tuple[str, str]]) -> None:
        self._closures = closures
        self._pairs = pairs

    @cached_property
    def _built(self) -> dict[tuple[int, tuple[str, str]], PairConflicts]:
        return {
            (source_index, pair): pair_conflicts(closed, *pair)
            for source_index, closed in enumerate(self._closures)
            for pair in self._pairs
        }

    def __getitem__(self, key: tuple[int, tuple[str, str]]) -> PairConflicts:
        return self._built[key]

    def __iter__(self) -> Iterator[tuple[int, tuple[str, str]]]:
        return iter(self._built)

    def __len__(self) -> int:
        return len(self._built)


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

    Each source's counts sit in one flat table, the four of each
    canonical pair in `_COUNT_INDEX` order.  A candidate's labels, read
    once from its mask matrix, become one list of table positions, and
    its score against a source is the sum of the table at those
    positions.  Ties break by `QCN.sort_key`, the order
    `enumerate_scenarios` lists scenarios in; the report lists every
    tied candidate and builds its per-(source, pair) counts only when
    they are read.
    """
    if not candidates:
        raise ValueError("no candidate scenarios")
    # the matrix cell of each canonical pair, per variable order
    cells: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for s in candidates:
        if s.variables not in cells:
            _check_signature(s.variables, profile)
            position = {v: i for i, v in enumerate(s.variables)}
            cells[s.variables] = [(position[u], position[v]) for u, v, _ in s.canonical_items()]
    closures = [deductive_closure(o) for o in profile]
    pairs = [(u, v) for u, v, _ in candidates[0].canonical_items()]
    tables = []
    for closed in closures:
        members = {u: closed.instances_of(u) for u in candidates[0].variables}
        tables.append([c for u, v in pairs for c in _four_counts(members[u], members[v])])

    starts = range(0, 4 * len(pairs), 4)
    scores = []
    for s in candidates:
        m = s._matrix
        codes = [_COUNT_INDEX[m[i][j]] for i, j in cells[s.variables]]
        if None in codes:  # raise for the first label that is not a scenario label
            for _, _, label in s.canonical_items():
                _count_index(label)
        index = list(map(add, starts, codes))
        per_source = tuple(sum(map(table.__getitem__, index)) for table in tables)
        scores.append(ScenarioScore(scenario=s, distance=sum(per_source), per_source=per_source))

    best = min(score.distance for score in scores)
    tied = tuple(i for i, score in enumerate(scores) if score.distance == best)
    selected = min(tied, key=lambda i: candidates[i].sort_key())
    report = ConflictReport(
        counts=_PairCounts(closures, pairs),
        scores=tuple(scores),
        selected_index=selected,
        tied_indices=tied if len(tied) > 1 else (),
    )
    return candidates[selected], report
