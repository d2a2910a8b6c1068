"""Conceptual-neighborhood distances between relations and source profiles.

Two base relations are neighbors when a continuous deformation of two
regions moves directly between them; the induced graph has edge set
{DR-PO, PO-PP, PO-PPi, PP-EQ, PPi-EQ}.  Distances between a base relation
and a constraint, then a profile of constraints, are the min and sum
liftings of shortest-path length in that graph.  Everything here is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .rcc5 import EMPTY, EQ, PO, PP, DR, PPi, UNIVERSAL, BaseRelation, QCN, Relation

__all__ = [
    "NEIGHBORHOOD_EDGES",
    "base_distance",
    "constraint_distance",
    "profile_distance",
    "DistanceTable",
    "distance_table",
    "render_distance_table",
]

#: Conceptual-neighborhood edges over the five base relations.
NEIGHBORHOOD_EDGES: frozenset[frozenset[Relation]] = frozenset(
    frozenset(edge) for edge in ((DR, PO), (PO, PP), (PO, PPi), (PP, EQ), (PPi, EQ))
)


def _distance_rows() -> tuple[tuple[int, ...], ...]:
    """Row `mask`, column i: distance from ``BaseRelation[i]`` to the constraint `mask`.

    The ball around b grows by one neighbourhood step at a time until it
    covers every base relation; the distance to a non-empty constraint is
    the number of balls that miss it.  The empty constraint's row is 0.
    """
    reach = {b.mask: b.mask for b in BaseRelation}
    for a, c in NEIGHBORHOOD_EDGES:
        reach[a.mask] |= c.mask
        reach[c.mask] |= a.mask
    rows = [[0] * 5 for _ in range(32)]
    for col, b in enumerate(BaseRelation):
        ball = b.mask
        while ball != UNIVERSAL.mask:
            for mask in range(1, 32):
                if not mask & ball:
                    rows[mask][col] += 1
            grown = ball
            for bit, neighbours in reach.items():
                if bit & ball:
                    grown |= neighbours
            ball = grown
    return tuple(map(tuple, rows))


_DIST = _distance_rows()


def base_distance(b1: Relation, b2: Relation) -> int:
    """Shortest-path length between two base relations in the graph."""
    return _DIST[b2.mask][BaseRelation.index(b1)]


def constraint_distance(b: Relation, phi: Relation) -> int:
    """Distance from a base relation to a constraint: min over members.

    An empty constraint yields 0 so the operator stays total; callers that
    build tables flag the affected pairs (a self-contradictory source
    imposes no preference).
    """
    return _DIST[phi.mask][BaseRelation.index(b)]


def profile_distance(b: Relation, entries: Sequence[Relation]) -> int:
    """Distance from a base relation to a profile: sum over the entries."""
    return sum(constraint_distance(b, phi) for phi in entries)


@dataclass(frozen=True)
class DistanceTable:
    """Per-pair distances from every base relation to the profile.

    `columns` is keyed by the pairs in `QCN.canonical_items` order and
    orientation; `column` transposes PP and PPi when asked for the other
    orientation.
    """

    columns: Mapping[tuple[str, str], tuple[int, int, int, int, int]]
    empty_entries: tuple[tuple[int, tuple[str, str]], ...]

    def distances(self, u: str, v: str) -> tuple[int, int, int, int, int]:
        """Distances for the ordered pair (u, v), in `BaseRelation` order."""
        if (u, v) in self.columns:
            return self.columns[(u, v)]
        if (v, u) in self.columns:
            stored = self.columns[(v, u)]
            return (stored[0], stored[1], stored[3], stored[2], stored[4])
        raise KeyError(f"no distance column for pair ({u!r}, {v!r})")

    def column(self, u: str, v: str) -> dict[Relation, int]:
        """Distances for the ordered pair (u, v), keyed by base relation."""
        return dict(zip(BaseRelation, self.distances(u, v)))


def distance_table(profile: Sequence[QCN]) -> DistanceTable:
    """The full distance table for a profile of networks.

    All networks must share the variable set; entries that are empty
    relations (conflicting single sources) contribute distance 0 and are
    flagged in `empty_entries`.
    """
    if not profile:
        raise ValueError("profile must contain at least one QCN")
    varset = set(profile[0].variables)
    for k, qcn in enumerate(profile):
        if set(qcn.variables) != varset:
            raise ValueError(
                f"variable-set mismatch: source {k} has {sorted(qcn.variables)}, "
                f"expected {sorted(varset)}"
            )
    columns: dict[tuple[str, str], tuple[int, int, int, int, int]] = {}
    flagged: list[tuple[int, tuple[str, str]]] = []
    # most pairs repeat a column, so each distinct tuple of entries is summed once
    by_entries: dict[tuple[Relation, ...], tuple[int, int, int, int, int]] = {}
    for cells in zip(*(qcn.canonical_items() for qcn in profile)):
        pair = cells[0][:2]
        entries = tuple(entry for _, _, entry in cells)
        if EMPTY in entries:
            flagged.extend((k, pair) for k, entry in enumerate(entries) if entry is EMPTY)
        column = by_entries.get(entries)
        if column is None:
            column = by_entries[entries] = tuple(map(sum, zip(*(_DIST[entry.mask] for entry in entries))))
        columns[pair] = column
    return DistanceTable(columns=columns, empty_entries=tuple(flagged))


def _table_rows(table: DistanceTable) -> Iterator[tuple[str, ...]]:
    yield ("relation",) + tuple(f"{u}-{v}" for u, v in table.columns)
    for col, b in enumerate(BaseRelation):
        yield (b.name,) + tuple(str(column[col]) for column in table.columns.values())


def render_distance_table(table: DistanceTable, fmt: str = "text") -> str:
    """Rows are relations, columns are canonical pairs; text or CSV."""
    rows = list(_table_rows(table))
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format: {fmt!r}")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
