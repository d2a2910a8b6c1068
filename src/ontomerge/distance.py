"""Conceptual-neighborhood distances between relations and source profiles.

Two base relations are neighbors when a continuous deformation of two
regions moves directly between them; the induced graph has edge set
{DR-PO, PO-PP, PO-PPi, PP-EQ, PPi-EQ}.  Distances between a base relation
and a constraint, then a profile of constraints, are the min and sum
liftings of shortest-path length in that graph.  Everything here is exact
integer arithmetic.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .ontology import _Record
from .rcc5 import EQ, PO, PP, DR, PPi, UNIVERSAL, BaseRelation, QCN, Relation, _canonical_cells

__all__ = [
    "NEIGHBORHOOD_EDGES",
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


class DistanceTable(_Record):
    """Per-pair distances from every base relation to the profile.

    `columns` is keyed by the pairs in the canonical order and
    orientation; `column` transposes PP and PPi when asked for the other
    orientation.
    """

    __slots__ = ()
    columns: Mapping[tuple[str, str], tuple[int, int, int, int, int]]

    def column(self, u: str, v: str) -> dict[Relation, int]:
        """Distances for the ordered pair (u, v), keyed by base relation."""
        if (u, v) in self.columns:
            return dict(zip(BaseRelation, self.columns[(u, v)]))
        if (v, u) in self.columns:
            return {b.converse: d for b, d in zip(BaseRelation, self.columns[(v, u)])}
        raise KeyError(f"no distance column for pair ({u!r}, {v!r})")


def distance_table(profile: Sequence[QCN]) -> DistanceTable:
    """The full distance table for a profile of networks.

    All networks must share the variable set; an empty entry (a source
    contradicting itself, which `forward` reports) contributes distance 0.
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
    names = profile[0].variables
    pairs = [(names[i], names[j]) for i, j in _canonical_cells(names)]
    # each network lists its variables in its own order, so each reads its own cells
    entries = zip(*([qcn._matrix[i][j] for i, j in _canonical_cells(qcn.variables)] for qcn in profile))
    columns: dict[tuple[str, str], tuple[int, int, int, int, int]] = {}
    # most pairs repeat a column, so each distinct tuple of entry masks is summed once
    by_masks: dict[tuple[int, ...], tuple[int, int, int, int, int]] = {}
    for pair, masks in zip(pairs, entries):
        column = by_masks.get(masks)
        if column is None:
            column = by_masks[masks] = tuple(map(sum, zip(*map(_DIST.__getitem__, masks))))
        columns[pair] = column
    return DistanceTable(columns=columns)


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
