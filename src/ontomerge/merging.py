"""Distance-guided merging of a profile of constraint networks.

The merged network starts from the minimal-distance base relations on
every pair, which is the empty constraint relaxed once.  While it is
inconsistent, the constraints with the highest value (the largest
distance over their members) are all relaxed at once by adding the
nearest missing base relations.  The all-full network is consistent, so
the loop terminates; the trace records each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .distance import DistanceTable, distance_table
from .rcc5 import EMPTY, QCN, UNIVERSAL, Relation, _POSITIONS, is_consistent

__all__ = ["relax", "val", "MergeIteration", "MergeTrace", "merge"]


def relax(phi: Relation, dist: Sequence[int]) -> Relation:
    """Add every missing base relation of minimal distance in the pair's column."""
    missing = _POSITIONS[(UNIVERSAL - phi).mask]
    if not missing:
        return phi
    best = min([dist[i] for i in missing])
    return Relation.from_mask(phi.mask | sum([1 << i for i in missing if dist[i] == best]))


def val(phi: Relation, dist: Sequence[int]) -> int:
    """How contested a constraint is: the largest member distance in the pair's column."""
    if phi.is_empty:
        raise ValueError("val of an empty constraint is undefined")
    return max([dist[i] for i in _POSITIONS[phi.mask]])


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
    columns = table.columns
    # a seed label depends on the pair's column only; most pairs share the zero column
    seeds: dict[tuple[int, ...], Relation] = {}
    labels = {}
    for pair, column in columns.items():
        if column not in seeds:
            seeds[column] = relax(EMPTY, column)
        if not seeds[column].is_full:
            labels[pair] = seeds[column]
    current = initial = QCN(profile[0].variables, labels)

    iterations: list[MergeIteration] = []
    bound = 4 * len(columns) + 1
    # relaxing a pair changes its value only, and deleting a full pair keeps
    # the order of the rest, so the selected pairs come in table order
    values = {pair: val(label, columns[pair]) for pair, label in labels.items()}
    while not is_consistent(current):
        if not values:
            raise RuntimeError("relaxation ran out of pairs, yet the all-full network is consistent")
        highest = max(values.values())
        selected = tuple(pair for pair, value in values.items() if value == highest)
        for pair in selected:
            label = labels[pair] = relax(labels[pair], columns[pair])
            if label.is_full:
                del values[pair]
            else:
                values[pair] = val(label, columns[pair])
        current = current.updated({pair: labels[pair] for pair in selected})
        iterations.append(
            MergeIteration(
                index=len(iterations) + 1,
                value=highest,
                relaxed_pairs=selected,
                snapshot=current,
            )
        )
        if len(iterations) > bound:
            raise RuntimeError(f"relaxation failed to terminate within {bound} iterations")

    trace = MergeTrace(initial=initial, iterations=tuple(iterations), final=current, table=table)
    return current, trace
