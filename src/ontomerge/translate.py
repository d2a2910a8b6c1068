"""Two-way translation between ontologies and constraint networks.

Forward: one region variable per concept name; each asserted subsumption
narrows its pair to {PP,EQ}, each asserted disjointness to {DR}; several
axioms on one pair intersect, and an empty intersection is kept and
reported rather than erased.  Role-form axioms carry no pair constraint
and are reported as dropped.

Backward: each quasi-atomic scenario label becomes a small axiom (and,
for strict labels, assertion) block over the pair, with fresh witness
concepts and individuals drawn from a deterministic pool.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .ontology import (
    Axiom,
    ConceptAssertion,
    Disjointness,
    Ontology,
    Statement,
    Subsumption,
    _Record,
    is_name,
    sorted_statements,
)
from .rcc5 import (
    EQ,
    PO,
    PP,
    DR,
    PPi,
    QCN,
    Relation,
    Scenario,
)

__all__ = [
    "ForwardTranslation",
    "forward",
    "FreshNamePool",
    "backward",
]

_SUBSUMPTION_LABEL = Relation([PP, EQ])
_DISJOINTNESS_LABEL = Relation([DR])


class ForwardTranslation(_Record):
    """A translated network plus notes about what did not translate."""

    __slots__ = ()
    _fields = ("qcn", "dropped_role_axioms", "conflicting_pairs")
    qcn: QCN
    dropped_role_axioms: tuple[Axiom, ...]
    conflicting_pairs: tuple[tuple[str, str], ...]


def forward(o: Ontology, variables: Sequence[str] | None = None) -> ForwardTranslation:
    """Translate the asserted TBox into a constraint network.

    Variables default to the ontology's concept names in first-occurrence
    order; passing a superset embeds the network into a shared variable
    space.  Pairs with an empty intersection (a source contradicting
    itself on one pair) are kept and listed in `conflicting_pairs`, as
    is (A, A) for each `A & A <= bot`, since a region is never empty.
    This is the one place such conflicts are found.
    """
    if variables is None:
        var_list = o.concepts
    else:
        var_list = tuple(variables)
        missing = set(o.concepts) - set(var_list)
        if missing:
            raise ValueError(f"variables must cover the signature; missing {sorted(missing)}")
    constraints: list[tuple[tuple[str, str], Relation]] = []
    dropped: list[Axiom] = []
    conflicts: set[tuple[str, str]] = set()
    for axiom in o.tbox:
        if isinstance(axiom, Subsumption):
            if axiom.sub == axiom.sup:
                continue
            constraints.append(((axiom.sub, axiom.sup), _SUBSUMPTION_LABEL))
        elif isinstance(axiom, Disjointness):
            if axiom.first == axiom.second:
                conflicts.add((axiom.first, axiom.first))
                continue
            constraints.append(((axiom.first, axiom.second), _DISJOINTNESS_LABEL))
        else:
            dropped.append(axiom)
    qcn = QCN(var_list, constraints)
    # only a pair two axioms constrain can empty; report it in canonical orientation
    for (u, v), _ in constraints:
        if qcn.constraint(u, v).is_empty:
            conflicts.add((u, v) if u < v else (v, u))
    return ForwardTranslation(
        qcn=qcn,
        dropped_role_axioms=tuple(sorted_statements(dropped)),
        conflicting_pairs=tuple(sorted(conflicts)),
    )


class FreshNamePool:
    """Deterministic fresh names for backward translation.

    Witness concepts are ``Sub<base>`` (numeric suffix on collision),
    overlap witnesses ``Int<left><right>``, individuals ``x_<k>`` with a
    global counter.  Generated names never collide with the reserved set
    or with each other.
    """

    def __init__(self, reserved: Iterable[str] = ()) -> None:
        self._used = set(reserved)
        self._counter = 0

    def _claim(self, base: str) -> str:
        if base not in self._used:
            self._used.add(base)
            return base
        k = 2
        while f"{base}{k}" in self._used:
            k += 1
        name = f"{base}{k}"
        self._used.add(name)
        return name

    def sub_concept(self, base: str) -> str:
        return self._claim(f"Sub{base}")

    def overlap_concept(self, left: str, right: str) -> str:
        return self._claim(f"Int{left}{right}")

    def individual(self) -> str:
        while True:
            self._counter += 1
            name = f"x_{self._counter}"
            if name not in self._used:
                self._used.add(name)
                return name


def _proper_part_block(part: str, whole: str, pool: FreshNamePool) -> list[Statement]:
    """part is strictly inside whole: subsumption plus a witness of strictness."""
    outside = pool.sub_concept(whole)
    d = pool.individual()
    c = pool.individual()
    return [
        Subsumption(part, whole),
        Subsumption(outside, whole),
        Disjointness(part, outside),
        ConceptAssertion(outside, d),
        ConceptAssertion(part, c),
        ConceptAssertion(whole, d),
        ConceptAssertion(whole, c),
    ]


def _overlap_block(u: str, v: str, pool: FreshNamePool) -> list[Statement]:
    """u and v overlap partially: witnesses for the middle and both sides."""
    middle = pool.overlap_concept(u, v)
    u_only = pool.sub_concept(u)
    v_only = pool.sub_concept(v)
    a = pool.individual()
    c = pool.individual()
    d = pool.individual()
    return [
        Subsumption(middle, u),
        Subsumption(middle, v),
        Subsumption(u_only, u),
        Disjointness(u_only, v),
        Subsumption(v_only, v),
        Disjointness(v_only, u),
        ConceptAssertion(middle, a),
        ConceptAssertion(u, c),
        ConceptAssertion(u, a),
        ConceptAssertion(v, d),
        ConceptAssertion(v, a),
        ConceptAssertion(u_only, c),
        ConceptAssertion(v_only, d),
    ]


#: The statement block of each scenario label mask on a canonical pair (u, v):
#: axioms first, then assertions.
_BLOCKS: dict[int, Callable[[str, str, FreshNamePool], list[Statement]]] = {
    EQ.mask: lambda u, v, pool: [Subsumption(u, v), Subsumption(v, u)],
    DR.mask: lambda u, v, pool: [Disjointness(u, v)],
    PP.mask | EQ.mask: lambda u, v, pool: [Subsumption(u, v)],
    PPi.mask | EQ.mask: lambda u, v, pool: [Subsumption(v, u)],
    PP.mask: _proper_part_block,
    PPi.mask: lambda u, v, pool: _proper_part_block(v, u, pool),
    PO.mask: _overlap_block,
}


def backward(s: Scenario) -> Ontology:
    """Translate a scenario back into a strict-normal-form ontology.

    Pairs are visited in lexicographic order; the emitted ontology is the
    union of the per-pair blocks.  A variable the text grammar cannot read
    as a name (``a-b``, ``some``) is a ValueError.
    """
    for var in s.variables:
        if not is_name(var):
            raise ValueError(f"variable {var!r} is not a name the ontology grammar can read")
    pool = FreshNamePool(reserved=s.variables)
    statements: list[Statement] = []
    for u, v, label in s.canonical_items():
        block = _BLOCKS.get(label.mask)
        if block is None:  # a plain QCN may carry any label
            raise ValueError(f"not a scenario label: {label!r}")
        statements += block(u, v, pool)
    return Ontology.from_statements(statements, concepts=s.variables)

