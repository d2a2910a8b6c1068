"""Independent semantic oracles for the test suite.

Everything here works directly from the set semantics (regions are
non-empty subsets of a finite universe, concepts are sets, roles are
pair sets) by brute-force enumeration, without touching the library's
composition table, closure, classification or conflict counting.  numpy
grids keep the exhaustive searches fast enough to run on every test run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ontomerge.ontology import (
    ConceptAssertion,
    Disjointness,
    ExistsLeft,
    ExistsRight,
    Ontology,
    RoleAssertion,
    Statement,
    Subsumption,
)
from ontomerge.rcc5 import DR, EQ, PO, PP, QCN, BaseRelation, PPi, Relation

# base-relation indices in canonical order DR, PO, PP, PPi, EQ
_DR, _PO, _PP, _PPI, _EQ = range(5)


def code_matrix(universe_size: int) -> np.ndarray:
    """Relation codes between all non-empty subset bitmasks (set semantics)."""
    count = (1 << universe_size) - 1
    masks = np.arange(1, count + 1, dtype=np.int64)
    a = masks[:, None]
    b = masks[None, :]
    inter = a & b
    codes = np.full((count, count), _PO, dtype=np.uint8)
    codes[inter == 0] = _DR
    codes[(inter == a) & (a != b)] = _PP
    codes[(inter == b) & (a != b)] = _PPI
    codes[a == b] = _EQ
    return codes


def generate_composition_table(
    universe_size: int = 7,
) -> dict[tuple[BaseRelation, BaseRelation], Relation]:
    """Regenerate weak composition by brute force over set triples.

    Seven points cover every Boolean cell of three regions, so the result
    is the true table; it must equal the shipped constant.
    """
    codes = code_matrix(universe_size)
    bases = tuple(BaseRelation)
    table = {}
    for b1 in bases:
        left = (codes == b1.index).astype(np.uint32)
        for b2 in bases:
            right = (codes == b2.index).astype(np.uint32)
            reachable = (left @ right) > 0
            out = np.unique(codes[reachable])
            table[(b1, b2)] = Relation(bases[i] for i in out)
    return table


def rel_of_sets(x: frozenset, y: frozenset) -> BaseRelation:
    """The unique base relation holding between two non-empty sets."""
    if not x or not y:
        raise ValueError("regions must be non-empty")
    if x == y:
        return EQ
    if not x & y:
        return DR
    if x < y:
        return PP
    if y < x:
        return PPi
    return PO


@dataclass(frozen=True)
class SetInterpretation:
    """A finite set-valued assignment realizing Table-style semantics."""

    universe: tuple[int, ...]
    assignment: dict[str, frozenset[int]]

    def __post_init__(self) -> None:
        points = set(self.universe)
        for var, region in self.assignment.items():
            if not region:
                raise ValueError(f"region for {var!r} is empty")
            if not region <= points:
                raise ValueError(f"region for {var!r} leaves the universe")

    def relation_between(self, u: str, v: str) -> BaseRelation:
        return rel_of_sets(self.assignment[u], self.assignment[v])

    def satisfies(self, qcn: QCN) -> bool:
        for u, v, rel in qcn.items():
            if self.relation_between(u, v) not in rel:
                return False
        return True


def find_set_model(n: QCN, universe_size: int) -> SetInterpretation | None:
    """Exhaustive search for a set assignment satisfying the network.

    Enumerates non-empty subsets of a `universe_size`-point universe for
    each variable (exponential; meant for small networks).  Returns the
    first model in mask-ascending order, or None.
    """
    if universe_size < 1:
        raise ValueError("universe_size must be positive")
    variables = n.variables
    count = (1 << universe_size) - 1
    if not variables:
        return SetInterpretation(tuple(range(universe_size)), {})
    codes = code_matrix(universe_size)
    index = {v: k for k, v in enumerate(variables)}
    allowed: dict[tuple[int, int], np.ndarray] = {}
    for u, v, rel in n.items():
        if rel.is_empty:
            return None
        selector = np.zeros(5, dtype=bool)
        for b in rel:
            selector[b.index] = True
        allowed[(index[u], index[v])] = selector[codes]

    chosen = [0] * len(variables)

    def extend(k: int) -> bool:
        if k == len(variables):
            return True
        candidates = np.ones(count, dtype=bool)
        for i in range(k):
            matrix = allowed.get((i, k))
            if matrix is not None:
                candidates &= matrix[chosen[i]]
        for idx in np.flatnonzero(candidates):
            chosen[k] = int(idx)
            if extend(k + 1):
                return True
        return False

    if not extend(0):
        return None
    assignment = {}
    for var, idx in zip(variables, chosen):
        mask = idx + 1
        assignment[var] = frozenset(p for p in range(universe_size) if mask >> p & 1)
    return SetInterpretation(tuple(range(universe_size)), assignment)


@dataclass(frozen=True)
class Interpretation:
    """A finite interpretation: universe, extensions, role graphs, names."""

    universe: frozenset[int]
    concepts: Mapping[str, frozenset[int]]
    roles: Mapping[str, frozenset[tuple[int, int]]]
    individuals: Mapping[str, int]

    def extension(self, concept: str) -> frozenset[int]:
        return self.concepts.get(concept, frozenset())

    def satisfies(self, stmt: Statement) -> bool:
        if isinstance(stmt, Subsumption):
            return self.extension(stmt.sub) <= self.extension(stmt.sup)
        if isinstance(stmt, Disjointness):
            return not (self.extension(stmt.first) & self.extension(stmt.second))
        if isinstance(stmt, ExistsRight):
            pairs = self.roles.get(stmt.role, frozenset())
            filler = self.extension(stmt.filler)
            witnesses = {x for x, y in pairs if y in filler}
            return self.extension(stmt.sub) <= witnesses
        if isinstance(stmt, ExistsLeft):
            pairs = self.roles.get(stmt.role, frozenset())
            filler = self.extension(stmt.filler)
            witnesses = {x for x, y in pairs if y in filler}
            return witnesses <= self.extension(stmt.sup)
        if isinstance(stmt, ConceptAssertion):
            return self.individuals[stmt.individual] in self.extension(stmt.concept)
        if isinstance(stmt, RoleAssertion):
            pair = (self.individuals[stmt.subject], self.individuals[stmt.object])
            return pair in self.roles.get(stmt.role, frozenset())
        raise TypeError(f"not a statement: {stmt!r}")

    def is_model(self, o: Ontology) -> bool:
        return all(self.satisfies(stmt) for stmt in list(o.tbox) + list(o.abox))

    def is_fulfilling(self, concepts: Iterable[str] | None = None) -> bool:
        names = self.concepts.keys() if concepts is None else concepts
        return all(self.extension(name) for name in names)


class NotFulfillingError(ValueError):
    """An interpretation leaves some concept empty."""


def flatten(
    interpretation: Interpretation, concepts: Sequence[str] | None = None
) -> SetInterpretation:
    """Region assignment read off a fulfilling interpretation's extensions."""
    names = tuple(concepts) if concepts is not None else tuple(interpretation.concepts)
    assignment = {}
    for name in names:
        extension = interpretation.extension(name)
        if not extension:
            raise NotFulfillingError(f"concept {name!r} has an empty extension")
        assignment[name] = extension
    return SetInterpretation(tuple(sorted(interpretation.universe)), assignment)


def inflate(
    solution: SetInterpretation,
    roles: Iterable[str] = (),
    individuals: Iterable[str] = (),
    role_assignment: Mapping[str, frozenset[tuple[int, int]]] | None = None,
    individual_assignment: Mapping[str, int] | None = None,
) -> Interpretation:
    """Interpretation blown up from a solution's regions.

    Concept extensions copy the regions.  Unless explicit assignments are
    supplied, every role is empty and every individual denotes the least
    point of the universe.
    """
    universe = frozenset(solution.universe)
    role_map: dict[str, frozenset[tuple[int, int]]] = {r: frozenset() for r in roles}
    if role_assignment:
        role_map.update(role_assignment)
    individual_map: dict[str, int] = {}
    names = list(individuals)
    if names and not universe:
        raise ValueError("cannot place individuals in an empty universe")
    default_point = min(universe) if universe else 0
    for name in names:
        individual_map[name] = default_point
    if individual_assignment:
        individual_map.update(individual_assignment)
    return Interpretation(
        universe=universe,
        concepts=dict(solution.assignment),
        roles=role_map,
        individuals=individual_map,
    )


def subset_matrix(universe_size: int) -> np.ndarray:
    count = (1 << universe_size) - 1
    masks = np.arange(1, count + 1, dtype=np.int64)
    return (masks[:, None] & masks[None, :]) == masks[:, None]


def disjoint_matrix(universe_size: int) -> np.ndarray:
    count = (1 << universe_size) - 1
    masks = np.arange(1, count + 1, dtype=np.int64)
    return (masks[:, None] & masks[None, :]) == 0


def _pair_grid(matrix: np.ndarray, i: int, j: int, axes: int) -> np.ndarray:
    """Broadcast an N x N pair matrix onto axes i and j of an axes-dim grid."""
    count = matrix.shape[0]
    if i == j:
        vec = matrix.diagonal()
        shape = [1] * axes
        shape[i] = count
        return vec.reshape(shape)
    source = matrix if i < j else matrix.T
    lo, hi = min(i, j), max(i, j)
    shape = [1] * axes
    shape[lo] = count
    shape[hi] = count
    return source.reshape(shape)


def model_grid(tbox: Iterable[Statement], concepts: Sequence[str], universe_size: int) -> np.ndarray:
    """Fulfilling models of a role-free TBox as a boolean grid.

    Axis k ranges over the non-empty subsets (bitmask order) interpreting
    concepts[k].
    """
    axes = len(concepts)
    index = {name: k for k, name in enumerate(concepts)}
    count = (1 << universe_size) - 1
    grid = np.ones((count,) * axes, dtype=bool)
    sub = subset_matrix(universe_size)
    dis = disjoint_matrix(universe_size)
    for axiom in tbox:
        if isinstance(axiom, Subsumption):
            grid = grid & _pair_grid(sub, index[axiom.sub], index[axiom.sup], axes)
        elif isinstance(axiom, Disjointness):
            grid = grid & _pair_grid(dis, index[axiom.first], index[axiom.second], axes)
        else:
            raise ValueError(f"model_grid handles role-free TBoxes only, got {axiom!r}")
    return grid


def solution_grid(qcn: QCN, concepts: Sequence[str], universe_size: int) -> np.ndarray:
    """Solutions of a QCN as a boolean grid over the same axes."""
    axes = len(concepts)
    index = {name: k for k, name in enumerate(concepts)}
    count = (1 << universe_size) - 1
    codes = code_matrix(universe_size)
    grid = np.ones((count,) * axes, dtype=bool)
    for u, v, rel in qcn.items():
        selector = np.zeros(5, dtype=bool)
        for b in rel:
            selector[b.index] = True
        grid = grid & _pair_grid(selector[codes], index[u], index[v], axes)
    return grid


def mask_value_grid(axes: int, k: int, universe_size: int) -> np.ndarray:
    """The subset bitmask interpreting concept k, broadcast over the grid."""
    count = (1 << universe_size) - 1
    shape = [1] * axes
    shape[k] = count
    return np.arange(1, count + 1, dtype=np.int64).reshape(shape)


def assertion_grid(
    o: Ontology, concepts: Sequence[str], universe_size: int
) -> np.ndarray:
    """Where every concept assertion can be witnessed by some individual.

    For each individual, the intersection of its asserted concepts must be
    non-empty; role assertions are not supported here (role-free oracle).
    """
    axes = len(concepts)
    index = {name: k for k, name in enumerate(concepts)}
    count = (1 << universe_size) - 1
    grid = np.ones((count,) * axes, dtype=bool)
    asserted: dict[str, list[str]] = {}
    for a in o.abox:
        if isinstance(a, RoleAssertion):
            raise ValueError("assertion_grid handles concept assertions only")
        asserted.setdefault(a.individual, []).append(a.concept)
    for names in asserted.values():
        meet = None
        for name in names:
            value = mask_value_grid(axes, index[name], universe_size)
            meet = value if meet is None else meet & value
        grid = grid & (meet != 0)
    return grid


def pair_code_grid(
    concepts: Sequence[str], u: str, v: str, universe_size: int
) -> np.ndarray:
    """Relation code between the regions of u and v, broadcast over the grid."""
    axes = len(concepts)
    index = {name: k for k, name in enumerate(concepts)}
    return _pair_grid(code_matrix(universe_size), index[u], index[v], axes)


def fulfilling_model_exists(
    tbox: Iterable[Statement], concepts: Sequence[str], max_universe: int
) -> bool:
    """Any fulfilling model over some universe of size <= max_universe?

    Padding with points outside every concept preserves models, so only
    the largest size needs to be searched.
    """
    return bool(model_grid(tbox, concepts, max_universe).any())


def satisfiable_3var(qcn: QCN, universe_size: int = 7) -> bool:
    """Brute-force satisfiability of a 3-variable network."""
    names = qcn.variables
    assert len(names) == 3
    codes = code_matrix(universe_size)

    def allowed(u: str, v: str) -> np.ndarray:
        selector = np.zeros(5, dtype=bool)
        for b in qcn.constraint(u, v):
            selector[b.index] = True
        return selector[codes]

    m01 = allowed(names[0], names[1])
    m02 = allowed(names[0], names[2])
    m12 = allowed(names[1], names[2])
    cube = m01[:, :, None] & m02[:, None, :] & m12[None, :, :]
    return bool(cube.any())


def realizable_bases_3var(qcn: QCN, universe_size: int = 7) -> dict[tuple[str, str], Relation]:
    """Per pair, the base relations some solution realizes (3 variables)."""
    names = qcn.variables
    assert len(names) == 3
    codes = code_matrix(universe_size)

    def allowed(u: str, v: str) -> np.ndarray:
        selector = np.zeros(5, dtype=bool)
        for b in qcn.constraint(u, v):
            selector[b.index] = True
        return selector[codes]

    m01 = allowed(names[0], names[1])
    m02 = allowed(names[0], names[2])
    m12 = allowed(names[1], names[2])
    cube = m01[:, :, None] & m02[:, None, :] & m12[None, :, :]
    out = {}
    for (ai, bi), axis in (((0, 1), 2), ((0, 2), 1), ((1, 2), 0)):
        witnessed = cube.any(axis=axis)
        present = np.unique(codes[witnessed])
        bases = tuple(BaseRelation)
        out[(names[ai], names[bi])] = Relation(bases[i] for i in present)
    return out


def iter_role_extensions(universe: Sequence[int]) -> Iterator[frozenset[tuple[int, int]]]:
    pairs = [(x, y) for x in universe for y in universe]
    for size_bits in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if size_bits >> k & 1)


def iter_interpretations(
    concepts: Sequence[str],
    roles: Sequence[str],
    individuals: Sequence[str],
    universe_size: int,
    fulfilling: bool = True,
) -> Iterator[Interpretation]:
    """Every interpretation over a fixed universe (use with tiny inputs)."""
    universe = tuple(range(universe_size))
    subsets = [
        frozenset(p for p in universe if mask >> p & 1)
        for mask in range(1 if fulfilling else 0, 1 << universe_size)
    ]
    if fulfilling:
        subsets = [s for s in subsets if s]
    role_choices = list(iter_role_extensions(universe)) if roles else [frozenset()]
    for concept_ext in itertools.product(subsets, repeat=len(concepts)):
        concept_map = dict(zip(concepts, concept_ext))
        for role_ext in itertools.product(role_choices, repeat=len(roles)):
            role_map = dict(zip(roles, role_ext))
            for points in itertools.product(universe, repeat=len(individuals)):
                yield Interpretation(
                    universe=frozenset(universe),
                    concepts=concept_map,
                    roles=role_map,
                    individuals=dict(zip(individuals, points)),
                )


def oracle_entails(
    o: Ontology, statement: Statement, universe_sizes: Iterable[int], fulfilling: bool = True
) -> bool:
    """Whether every (fulfilling) model over the given sizes satisfies it."""
    for size in universe_sizes:
        for interp in iter_interpretations(
            o.concepts, o.roles, o.individuals, size, fulfilling=fulfilling
        ):
            if interp.is_model(o) and not interp.satisfies(statement):
                return False
    return True


def random_region_interpretation(rng, variables: Sequence[str], universe_size: int) -> dict[str, frozenset[int]]:
    out = {}
    for var in variables:
        while True:
            region = frozenset(p for p in range(universe_size) if rng.random() < 0.5)
            if region:
                out[var] = region
                break
    return out


def atomic_qcn_of_regions(regions: dict[str, frozenset[int]]) -> QCN:
    """The atomic network a concrete region assignment realizes."""
    names = list(regions)
    constraints = {}
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            constraints[(u, v)] = Relation([rel_of_sets(regions[u], regions[v])])
    return QCN(names, constraints)


def equivalent_modulo_renaming(left: Ontology, right: Ontology, fixed: Iterable[str]) -> bool:
    """Structural equality after some bijective renaming of fresh names.

    Fixed names must map to themselves; fresh concepts map to fresh
    concepts and fresh individuals to fresh individuals.  Brute force,
    meant for the small translation gadgets.
    """
    fixed_set = set(fixed)
    left_concepts = sorted(set(left.concepts) - fixed_set)
    right_concepts = sorted(set(right.concepts) - fixed_set)
    left_individuals = sorted(set(left.individuals) - fixed_set)
    right_individuals = sorted(set(right.individuals) - fixed_set)
    if len(left_concepts) != len(right_concepts):
        return False
    if len(left_individuals) != len(right_individuals):
        return False
    if set(left.roles) != set(right.roles):
        return False

    def rename(stmt: Statement, mapping: dict[str, str]) -> Statement:
        get = lambda n: mapping.get(n, n)
        if isinstance(stmt, Subsumption):
            return Subsumption(get(stmt.sub), get(stmt.sup))
        if isinstance(stmt, Disjointness):
            return Disjointness(get(stmt.first), get(stmt.second))
        if isinstance(stmt, ExistsRight):
            return ExistsRight(get(stmt.sub), get(stmt.role), get(stmt.filler))
        if isinstance(stmt, ExistsLeft):
            return ExistsLeft(get(stmt.role), get(stmt.filler), get(stmt.sup))
        if isinstance(stmt, ConceptAssertion):
            return ConceptAssertion(get(stmt.concept), get(stmt.individual))
        return RoleAssertion(get(stmt.role), get(stmt.subject), get(stmt.object))

    target_tbox = set(right.tbox)
    target_abox = set(right.abox)
    for concept_perm in itertools.permutations(right_concepts):
        concept_map = dict(zip(left_concepts, concept_perm))
        renamed_tbox = {rename(a, concept_map) for a in left.tbox}
        if renamed_tbox != target_tbox:
            continue
        for individual_perm in itertools.permutations(right_individuals):
            mapping = dict(concept_map)
            mapping.update(zip(left_individuals, individual_perm))
            renamed_abox = {rename(a, mapping) for a in left.abox}
            if renamed_abox == target_abox:
                return True
    return False
