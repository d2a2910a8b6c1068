"""Choosing a representative scenario by counting ABox conflicts.

Each source contributes, per scenario constraint, the number of its
(closed) individuals that contradict the constraint: members of the
would-be subset missing from the superset for {PP,EQ}-like labels, the
mirror image for {PPi,EQ}-like labels, and common members for {DR}.  A
{PO} label counts how unbalanced those three figures are (max minus
min).  The representative scenario minimizes the grand total, with a
lexicographic tie-break on its labels: `select_scenario` picks it from
a list of candidates, `best_scenario` from a network's maximal
scenarios without listing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import add, or_
from typing import Iterator, Sequence

from .ontology import ClosedABox, Ontology, deductive_closure
from .rcc5 import (
    DR,
    EQ,
    PO,
    PP,
    QCN,
    SCENARIO_LABELS,
    PPi,
    Relation,
    Scenario,
    _ALLOWED,
    _CONV_MASK,
    _POSITIONS,
    _box_domains,
    _canonical_cells,
    _is_maximal,
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


#: The scenario labels in `QCN.sort_key` order: DR, PO, PP, {PP,EQ}, PPi, {PPi,EQ}, EQ.
_SORTED_LABELS = tuple(sorted((r.mask for r in SCENARIO_LABELS), key=_POSITIONS.__getitem__))
#: The labels of each label set (bit m for label mask m), in that order.
_LABELS_OF = {
    sum(1 << m for m in chosen): chosen
    for size in range(len(_SORTED_LABELS) + 1)
    for chosen in combinations(_SORTED_LABELS, size)
}


def best_scenario(network: QCN, profile: Sequence[Ontology]) -> tuple[Scenario, ScenarioScore]:
    """The scenario `select_scenario` picks among the maximal scenarios
    of `network`, found without listing them, with its score.

    Branch and bound over the boxes of the closed network (see
    `enumerate_scenarios`), depth first.  Pairs are fixed row by row,
    (0, 1), (0, 2), ..., each to the labels of its domain in sort-key
    order, so leaves arrive in increasing `QCN.sort_key`.  Fixing (i, j)
    completes the triangles (i, k, j) with i < k < j whose pair (k, j)
    is still open, and forward checking narrows the domain of (k, j) by
    `_ALLOWED`; an empty domain prunes the branch.  Every leaf is thus a
    valid box, and it counts when `_is_maximal`.

    A label's cost on a pair is its count summed over the sources'
    tables, read at the canonical pair (conversed when the names run
    against the variable order).  The bound of a node is the cost so
    far plus the cheapest label left on each open pair; it is kept
    incrementally, and each depth keeps an undo list of the domains
    its current label narrowed, restored before its next label.  A
    branch whose bound reaches the best score found is pruned: any leaf
    below it scores no less and comes later in sort-key order, so the
    first maximal leaf at the optimum wins the tie-break.
    """
    names = network.variables
    _check_signature(names, profile)
    domains = _box_domains(network)
    if domains is None:
        raise ValueError("the network admits no scenario")
    cells = list(_canonical_cells(names))
    tables = _count_tables(names, cells, [deductive_closure(o) for o in profile])
    total = [sum(counts) for counts in zip(*tables)]
    size = len(names)
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    depth_of = {pair: d for d, pair in enumerate(pairs)}
    cost = [[0] * 32 for _ in pairs]
    for p, (i, j) in enumerate(cells):
        d, flip = (depth_of[i, j], 0) if i < j else (depth_of[j, i], 1)
        for label in _SORTED_LABELS:
            cost[d][label] = total[4 * p + _COUNT_INDEX[_CONV_MASK[label] if flip else label]]
    # (depth of (k, j), k) for each pair (k, j) that fixing (i, j) narrows
    narrowed = [[(depth_of[k, j], k) for k in range(i + 1, j)] for i, j in pairs]

    box = [row[:] for row in network._matrix]
    if not pairs:  # a single variable: the closed network is its one scenario
        selected = Scenario._from_matrix(network, box)
        return selected, _score(selected, cells, tables)
    domain = [domains[i][j] for i, j in pairs]
    low = [min([cost[d][m] for m in _LABELS_OF[domain[d]]]) for d in range(len(pairs))]
    lowest: list[dict[int, int]] = [{} for _ in pairs]  # the cheapest label of each domain met, per pair
    best: float = float("inf")
    winner = None
    rest = sum(low[1:])  # the cheapest labels of the pairs after the current depth
    spent = [0] * len(pairs)  # cost of the labels fixed above each depth
    left = [iter(_LABELS_OF[domain[0]])] + [iter(())] * (len(pairs) - 1)
    # (depth, domain, low) before each narrowing by the label fixed at each depth
    undo: list[list[tuple[int, int, int]]] = [[] for _ in pairs]
    depth = 0
    while depth >= 0:
        narrowings = undo[depth]
        if narrowings:
            for d, domain[d], old in narrowings:
                rest += old - low[d]
                low[d] = old
            narrowings.clear()
        label = next(left[depth], None)
        if label is None:
            depth -= 1
            rest += low[depth + 1]
            continue
        i, j = pairs[depth]
        g = spent[depth] + cost[depth][label]
        if g + rest >= best:
            continue
        row = box[i]
        row[j] = label
        box[j][i] = _CONV_MASK[label]
        for d, k in narrowed[depth]:
            labels = domain[d] & _ALLOWED[row[k]][label]
            if labels != domain[d]:
                if not labels:
                    break
                narrowings.append((d, domain[d], low[d]))
                domain[d] = labels
                cheapest = lowest[d].get(labels)
                if cheapest is None:
                    cheapest = lowest[d][labels] = min([cost[d][m] for m in _LABELS_OF[labels]])
                rest += cheapest - low[d]
                low[d] = cheapest
        else:
            if g + rest >= best:
                continue
            if depth + 1 == len(pairs):
                if _is_maximal(box, domains):
                    best, winner = g, [row[:] for row in box]
                continue
            depth += 1
            spent[depth] = g
            rest -= low[depth]
            left[depth] = iter(_LABELS_OF[domain[depth]])
    if winner is None:  # the closure passed, yet no box is valid
        raise ValueError("the network admits no scenario")
    selected = Scenario._from_matrix(network, winner)
    return selected, _score(selected, cells, tables)
