"""Distance-guided merging of a profile of constraint networks.

The merged network starts from the minimal-distance base relations on
every pair.  While it is inconsistent, the constraints with the highest
value (the largest distance over their members) are all relaxed at once
by adding the nearest missing base relations.  The all-full network is
consistent, so the loop terminates; the trace records each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .distance import DistanceTable, distance_table
from .rcc5 import EMPTY, QCN, BaseRelation, Relation, is_consistent

__all__ = ["relax", "val", "MergeIteration", "MergeTrace", "merge"]


def relax(phi: Relation, pair: tuple[str, str], table: DistanceTable) -> Relation:
    """Add every missing base relation of minimal distance for the pair."""
    column = table.column(*pair)
    missing = [b for b in BaseRelation if b not in phi]
    if not missing:
        return phi
    best = min(column[b] for b in missing)
    return phi | Relation(b for b in missing if column[b] == best)


def val(phi: Relation, pair: tuple[str, str], table: DistanceTable) -> int:
    """How contested a constraint is: the largest member distance."""
    if phi.is_empty:
        raise ValueError("val of an empty constraint is undefined")
    column = table.column(*pair)
    return max(column[b] for b in phi)


@dataclass(frozen=True)
class MergeIteration:
    index: int
    value: int
    relaxed_pairs: tuple[tuple[str, str], ...]
    snapshot: QCN

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "value": self.value,
            "relaxed_pairs": [list(pair) for pair in self.relaxed_pairs],
            "qcn": self.snapshot.to_json_dict(),
        }


@dataclass(frozen=True)
class MergeTrace:
    """The relaxation steps, plus the distance table that guided them."""

    initial: QCN
    iterations: tuple[MergeIteration, ...]
    final: QCN
    table: DistanceTable = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "initial": self.initial.to_json_dict(),
            "iterations": [it.to_json_dict() for it in self.iterations],
            "final": self.final.to_json_dict(),
        }


def merge(profile: Sequence[QCN]) -> tuple[QCN, MergeTrace]:
    """Merge a non-empty profile sharing one variable set.

    Returns the first consistent network reached together with the trace
    of relaxations (pairs are reported in canonical orientation).
    """
    table = distance_table(profile)
    variables = profile[0].variables
    current = QCN(variables)
    for pair in table.pairs:
        current = current.updated(*pair, relax(EMPTY, pair, table))
    initial = current

    iterations: list[MergeIteration] = []
    bound = 4 * len(table.pairs) + 1
    while not is_consistent(current):
        candidates = [
            pair for pair in table.pairs if not current.constraint(*pair).is_full
        ]
        assert candidates, "the all-full network is consistent"
        values = {pair: val(current.constraint(*pair), pair, table) for pair in candidates}
        highest = max(values.values())
        selected = tuple(pair for pair in table.pairs if values.get(pair) == highest)
        for pair in selected:
            current = current.updated(*pair, relax(current.constraint(*pair), pair, table))
        iterations.append(
            MergeIteration(
                index=len(iterations) + 1,
                value=highest,
                relaxed_pairs=selected,
                snapshot=current,
            )
        )
        assert len(iterations) <= bound, "relaxation failed to terminate"

    trace = MergeTrace(initial=initial, iterations=tuple(iterations), final=current, table=table)
    return current, trace
