"""Choosing a representative scenario by counting ABox conflicts.

Each source contributes, per scenario constraint, the number of its
(closed) individuals that contradict the constraint: members of the
would-be subset missing from the superset for {PP,EQ}-like labels, the
mirror image for {PPi,EQ}-like labels, and common members for {DR}.  A
{PO} label counts how unbalanced those three figures are (max minus
min).  The representative scenario minimizes the grand total, with a
lexicographic tie-break on its labels: `select_scenario` picks it from
a list of candidates.  `best_scenario` picks it from a network's maximal
scenarios without listing them: it only prices each pair's labels, in
the pair's canonical orientation, and `rcc5` searches for the cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add, itemgetter, or_
from typing import Iterator, Sequence

from .ontology import ClosedABox, Ontology, deductive_closure
from .rcc5 import (
    DR,
    EQ,
    PO,
    PP,
    QCN,
    PPi,
    Relation,
    Scenario,
    _canonical_cells,
    _cheapest_scenario,
)

__all__ = [
    "nb_conflicts",
    "scenario_distance",
    "ScenarioScore",
    "ConflictReport",
    "select_scenario",
    "best_scenario",
]

#: The count each scenario label mask is charged, as an index into the
#: four counts (subset, superset, common, overlap) of a pair: the non-empty
#: subsets of {PP,EQ} the subset count, the other non-empty subsets of
#: {PPi,EQ} the superset count, {DR} the common count, {PO} the overlap;
#: None for a mask that is not a scenario label.
_COUNT_INDEX: tuple[int | None, ...] = tuple(
    map(
        {
            PP.mask: 0,
            EQ.mask: 0,
            PP.mask | EQ.mask: 0,
            PPi.mask: 1,
            PPi.mask | EQ.mask: 1,
            DR.mask: 2,
            PO.mask: 3,
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


def nb_conflicts(closed: ClosedABox, pair: tuple[str, str], label: Relation) -> int:
    """Individuals of one source conflicting with a scenario label."""
    u, v = pair
    return _four_counts(closed.instances_of(u), closed.instances_of(v))[_count_index(label)]


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
    """Scores for every candidate, plus what the per-(source, pair) counts come from.

    `closures` are the sources' closed ABoxes; `to_json_dict` renders the
    witness lists of each pair of the first candidate, in canonical order.
    """

    scores: tuple[ScenarioScore, ...]
    selected_index: int
    tied_indices: tuple[int, ...]
    closures: tuple[ClosedABox, ...] = field(compare=False, repr=False)

    def _pair_counts(self) -> Iterator[dict]:
        for source, closed in enumerate(self.closures):
            for u, v, _ in self.scores[0].scenario.canonical_items():
                in_first, in_second = closed.instances_of(u), closed.instances_of(v)
                yield {
                    "source": source + 1,
                    "pair": [u, v],
                    "subset_like": sorted(in_first - in_second),
                    "superset_like": sorted(in_second - in_first),
                    "disjoint": sorted(in_first & in_second),
                    "overlap_count": _four_counts(in_first, in_second)[3],
                }

    def to_json_dict(self) -> dict:
        return {
            "scenarios": [
                {"index": i + 1, **score.to_json_dict()} for i, score in enumerate(self.scores)
            ],
            "selected": self.selected_index + 1,
            "tied": [i + 1 for i in self.tied_indices],
            "pair_counts": list(self._pair_counts()),
        }


def _member_bits(closed: ClosedABox, concepts: Sequence[str]) -> list[int]:
    """Each concept's members in `closed` as one int, a bit per individual."""
    bit = {i: 1 << k for k, i in enumerate(set().union(*closed.members.values()))}
    return [reduce(or_, map(bit.__getitem__, closed.instances_of(c)), 0) for c in concepts]


def _count_tables(
    names: Sequence[str], canonical: Sequence[tuple[int, int]], closures: Sequence[ClosedABox]
) -> list[list[int]]:
    """Each source's counts as one flat table, the four of each canonical
    pair in `_COUNT_INDEX` order.

    The table is built in one pass over the pairs with int arithmetic
    only: each concept's members are an int bitset, the common count of
    a pair is the popcount of the two sets' intersection, the subset and
    superset counts are each side's size minus it, and the overlap count
    is the largest of the three minus the smallest.
    """
    tables = []
    for closed in closures:
        members = _member_bits(closed, names)
        sizes = [m.bit_count() for m in members]
        table: list[int] = []
        for i, j in canonical:
            common = (members[i] & members[j]).bit_count()
            subset, superset = sizes[i] - common, sizes[j] - common
            low, high = (subset, superset) if subset < superset else (superset, subset)
            if common > high:
                high = common
            elif common < low:
                low = common
            table += subset, superset, common, high - low
        tables.append(table)
    return tables


def _score(s: Scenario, cells: Sequence[tuple[int, int]], tables: Sequence[list[int]]) -> ScenarioScore:
    """`s` scored against each source's table; `cells` are its canonical pairs' cells."""
    m = s._matrix
    codes = [_COUNT_INDEX[m[i][j]] for i, j in cells]
    if None in codes:  # raise for the first label that is not a scenario label
        for _, _, label in s.canonical_items():
            _count_index(label)
    index = list(map(add, range(0, 4 * len(cells), 4), codes))
    per_source = tuple(sum(map(table.__getitem__, index)) for table in tables)
    return ScenarioScore(scenario=s, distance=sum(per_source), per_source=per_source)


def select_scenario(
    candidates: Sequence[Scenario], profile: Sequence[Ontology]
) -> tuple[Scenario, ConflictReport]:
    """The candidate with minimal distance to the profile.

    Each source's counts sit in one flat table (`_count_tables`).  A
    candidate's labels, read once from its mask matrix, become one list
    of table positions, and its score against a source is the sum of the
    table at those positions.  Ties break by `QCN.sort_key`, the order
    `enumerate_scenarios` lists scenarios in; the report lists every
    tied candidate and renders its per-(source, pair) counts only when
    it is serialized.
    """
    if not candidates:
        raise ValueError("no candidate scenarios")
    # the matrix cell of each canonical pair, per variable order
    cells: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for s in candidates:
        if s.variables not in cells:
            _check_signature(s.variables, profile)
            cells[s.variables] = list(_canonical_cells(s.variables))
    closures = [deductive_closure(o) for o in profile]
    names = candidates[0].variables
    tables = _count_tables(names, cells[names], closures)
    scores = [_score(s, cells[s.variables], tables) for s in candidates]

    best = min(score.distance for score in scores)
    tied = tuple(i for i, score in enumerate(scores) if score.distance == best)
    selected = min(tied, key=lambda i: candidates[i].sort_key()) if len(tied) > 1 else tied[0]
    report = ConflictReport(
        scores=tuple(scores),
        selected_index=selected,
        tied_indices=tied if len(tied) > 1 else (),
        closures=tuple(closures),
    )
    return candidates[selected], report


#: A pair's cost per label mask from its four counts; a mask that is not
#: a scenario label is never read, and takes the subset count.
_COST_ROW = itemgetter(*(index or 0 for index in _COUNT_INDEX))


def best_scenario(network: QCN, profile: Sequence[Ontology]) -> tuple[Scenario, ScenarioScore]:
    """The scenario `select_scenario` picks among the maximal scenarios
    of `network`, found without listing them, with its score.

    A label's cost on a pair is its count summed over the sources'
    tables; `rcc5` finds the first cheapest maximal scenario in
    `QCN.sort_key` order, the one the tie-break picks.
    """
    names = network.variables
    _check_signature(names, profile)
    cells = list(_canonical_cells(names))
    tables = _count_tables(names, cells, [deductive_closure(o) for o in profile])
    total = [sum(counts) for counts in zip(*tables)]
    selected = _cheapest_scenario(network, [_COST_ROW(total[k : k + 4]) for k in range(0, len(total), 4)])
    if selected is None:
        raise ValueError("the network admits no scenario")
    return selected, _score(selected, cells, tables)
