"""Independent semantic oracles for the test suite.

Everything here works directly from the set semantics (regions are
non-empty subsets of a finite universe, concepts are sets, roles are
pair sets) by brute-force enumeration, without touching the library's
composition table, closure, classification or conflict counting.  numpy
grids keep the exhaustive searches fast enough to run on every test run.

Slow references sit beside them: `reference_classify` and
`reference_closure` are the fixpoint-rescan versions of
`ontology.classify` and `ontology.deductive_closure` that the indexed
worklist saturation replaced, and `reference_close` is the algebraic
closure with two mirrored updates that the single update of
`rcc5._close` replaced, and `reference_comp_masks` the composition mask
table built by a triple loop over member pairs.  `reference_dist_rows`
finds each base relation's distance to a constraint by breadth-first
search over the neighbourhood graph, where `distance._DIST` grows a
ball around each base relation one step at a time.
`reference_distance_table` sums every pair's distance column afresh, where `distance.distance_table` sums each
distinct tuple of source entries once.  `reference_merge` recomputes
every open pair's value each round, where `merging.merge` seeds each
distinct column once and updates only the relaxed pairs' values.  Two
references check `rcc5.enumerate_scenarios`, which decides boxes
triangle by triangle: `levelwise_scenarios` merges sibling boxes level by level, starting
from the consistent atomic refinements that `_atomic_refinements`
lists, and `reference_scenarios` filters those refinements into boxes
and drops every box contained in another.  `reference_select` scores
scenarios from witness lists read straight off the closed ABox's facts.
`reference_pipeline` lists and scores every scenario of the merged
network, where `cli.run_pipeline` finds the selected one by branch and
bound (`selection.best_scenario`).
They are kept so the fast paths and the shorter paths can be checked
for agreement with them.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ontomerge.distance import _DIST, NEIGHBORHOOD_EDGES, DistanceTable, distance_table
from ontomerge.ontology import (
    Axiom,
    Classification,
    ClosedABox,
    ConceptAssertion,
    Disjointness,
    ExistsLeft,
    ExistsRight,
    Ontology,
    RoleAssertion,
    Statement,
    Subsumption,
    _by_class,
    _names_by_namespace,
    deductive_closure,
)
from ontomerge.rcc5 import (
    DR,
    EMPTY,
    EQ,
    PO,
    PP,
    QCN,
    BaseRelation,
    PPi,
    Relation,
    Scenario,
    _branches,
    _close,
    _COMP_MASK,
    _COMPOSITION_ENTRIES,
    _CONV_MASK,
    _put,
    is_consistent,
)
from ontomerge.merging import merge
from ontomerge.selection import ConflictReport, ScenarioScore, _check_signature, scenario_distance
from ontomerge.translate import backward, forward

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
) -> dict[tuple[Relation, Relation], Relation]:
    """Regenerate weak composition by brute force over set triples.

    Seven points cover every Boolean cell of three regions, so the result
    is the true table; it must equal the shipped constant.
    """
    codes = code_matrix(universe_size)
    table = {}
    for i1, b1 in enumerate(BaseRelation):
        left = (codes == i1).astype(np.uint32)
        for i2, b2 in enumerate(BaseRelation):
            right = (codes == i2).astype(np.uint32)
            reachable = (left @ right) > 0
            out = np.unique(codes[reachable])
            table[(b1, b2)] = Relation(BaseRelation[i] for i in out)
    return table


def rel_of_sets(x: frozenset, y: frozenset) -> Relation:
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

    def relation_between(self, u: str, v: str) -> Relation:
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
            selector[BaseRelation.index(b)] = True
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
            selector[BaseRelation.index(b)] = True
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
            selector[BaseRelation.index(b)] = True
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
            selector[BaseRelation.index(b)] = True
        return selector[codes]

    m01 = allowed(names[0], names[1])
    m02 = allowed(names[0], names[2])
    m12 = allowed(names[1], names[2])
    cube = m01[:, :, None] & m02[:, None, :] & m12[None, :, :]
    out = {}
    for (ai, bi), axis in (((0, 1), 2), ((0, 2), 1), ((1, 2), 0)):
        witnessed = cube.any(axis=axis)
        present = np.unique(codes[witnessed])
        out[(names[ai], names[bi])] = Relation(BaseRelation[i] for i in present)
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


# --- slow references for classification and closure -------------------------


def reference_classify(tbox: Iterable[Axiom], concepts: Iterable[str] = ()) -> Classification:
    """Saturate a strict-normal-form TBox into its atomic consequences.

    Rules: reflexivity, transitive subsumption, propagation through
    existential axioms (A <= some r.B, B <= B', some r.B' <= C entail
    A <= C, also along entailed chains), downward propagation of
    disjointness, and detection of unsatisfiable concepts, including
    through existential successors.  Unsatisfiable concepts are reported
    in the result, not raised.
    """
    by_class = _by_class(tbox)
    names = sorted(_names_by_namespace(by_class)["concept"].union(concepts))
    subs = by_class[Subsumption]
    disj = by_class[Disjointness]
    ex_right = by_class[ExistsRight]
    ex_left = by_class[ExistsLeft]

    supers: dict[str, set[str]] = {a: {a} for a in names}
    successors: set[tuple[str, str, str]] = set()
    changed = True
    while changed:
        changed = False
        for a in names:
            sa = supers[a]
            for axiom in subs:
                if axiom.sub in sa and axiom.sup not in sa:
                    sa.add(axiom.sup)
                    changed = True
            for axiom in ex_right:
                edge = (a, axiom.role, axiom.filler)
                if axiom.sub in sa and edge not in successors:
                    successors.add(edge)
                    changed = True
        for axiom in ex_left:
            for a, role, filler in list(successors):
                if role == axiom.role and axiom.filler in supers[filler]:
                    if axiom.sup not in supers[a]:
                        supers[a].add(axiom.sup)
                        changed = True

    pairs: set[frozenset[str]] = {frozenset((d.first, d.second)) for d in disj}
    changed = True
    while changed:
        changed = False
        for pair in list(pairs):
            members = tuple(pair)
            for a in names:
                for x in members:
                    if x in supers[a]:
                        other = members[1] if len(members) == 2 and x == members[0] else members[0]
                        derived = frozenset((a, other))
                        if derived not in pairs:
                            pairs.add(derived)
                            changed = True

    unsatisfiable: set[str] = set()
    for a in names:
        sa = supers[a]
        for pair in pairs:
            if pair <= sa:
                unsatisfiable.add(a)
                break
    changed = True
    while changed:
        changed = False
        for a, _, filler in successors:
            if filler in unsatisfiable and a not in unsatisfiable:
                unsatisfiable.add(a)
                changed = True
        for a in names:
            if a in unsatisfiable:
                continue
            if any(x in unsatisfiable for x in supers[a]):
                unsatisfiable.add(a)
                changed = True

    return Classification(
        supers={a: frozenset(supers[a]) for a in names},
        disjoint=frozenset(tuple(sorted(pair)) for pair in pairs if len(pair) == 2),
        unsatisfiable=frozenset(unsatisfiable),
    )


def reference_closure(o: Ontology) -> ClosedABox:
    """All entailed concept memberships of the named individuals."""
    cls = reference_classify(o.tbox, concepts=o.concepts)
    sup_map: dict[str, list[str]] = {}
    for s in cls.subsumptions:
        sup_map.setdefault(s.sub, []).append(s.sup)
    ex_left = _by_class(o.tbox)[ExistsLeft]
    assertions = _by_class(o.abox)
    role_edges: dict[str, list[tuple[str, str]]] = {}
    for r in assertions[RoleAssertion]:
        role_edges.setdefault(r.role, []).append((r.subject, r.object))

    facts: set[ConceptAssertion] = set(assertions[ConceptAssertion])
    changed = True
    while changed:
        changed = False
        for fact in list(facts):
            for sup in sup_map.get(fact.concept, ()):
                derived = ConceptAssertion(sup, fact.individual)
                if derived not in facts:
                    facts.add(derived)
                    changed = True
        for axiom in ex_left:
            for subject, obj in role_edges.get(axiom.role, ()):
                if ConceptAssertion(axiom.filler, obj) in facts:
                    derived = ConceptAssertion(axiom.sup, subject)
                    if derived not in facts:
                        facts.add(derived)
                        changed = True

    by_individual: dict[str, set[str]] = {}
    for fact in facts:
        by_individual.setdefault(fact.individual, set()).add(fact.concept)
    inconsistent: set[str] = set()
    for individual, members in by_individual.items():
        if members & cls.unsatisfiable:
            inconsistent.add(individual)
            continue
        found = False
        for d in cls.disjointness:
            if d.first in members and d.second in members:
                found = True
                break
        if found:
            inconsistent.add(individual)

    members: dict[str, set[str]] = {}
    for fact in facts:
        members.setdefault(fact.concept, set()).add(fact.individual)
    return ClosedABox(
        members={c: frozenset(found) for c, found in members.items()},
        roles=frozenset(assertions[RoleAssertion]),
        inconsistent_individuals=frozenset(inconsistent),
    )


# --- slow references for scenario enumeration --------------------------------


def _atomic_refinements(n: QCN) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """All consistent atomic refinements, as mask tuples over the pair list.

    The consistency search of `rcc5.is_consistent`, splitting every
    non-atomic label (the smallest first) and listing every leaf.  Since
    path consistency decides atomic RCC-5 networks, the leaves are the
    consistent atomic refinements.
    """
    size = len(n.variables)
    pair_list = [(i, j) for i in range(size) for j in range(i + 1, size)]
    solutions: list[tuple[int, ...]] = []
    root = [row[:] for row in n._matrix]
    if not _close(root, size):
        return pair_list, solutions
    stack = [iter((root,))]
    while stack:
        m = next(stack[-1], None)
        if m is None:
            stack.pop()
            continue
        open_pairs = [(m[i][j].bit_count(), (i, j)) for i, j in pair_list if m[i][j].bit_count() > 1]
        if open_pairs:
            stack.append(_branches(m, size, *min(open_pairs)[1]))
        else:
            solutions.append(tuple(m[i][j] for i, j in pair_list))
    return pair_list, solutions


#: For each atomic label that can widen: (sibling label, merged label).
#: Siblings differ at one pair only, and the merged box is their union.
_SIBLINGS: dict[int, tuple[tuple[int, int], ...]] = {
    PP.mask: ((EQ.mask, PP.mask | EQ.mask),),
    PPi.mask: ((EQ.mask, PPi.mask | EQ.mask),),
    EQ.mask: ((PP.mask, PP.mask | EQ.mask), (PPi.mask, PPi.mask | EQ.mask)),
}


def levelwise_scenarios(n: QCN) -> list[Scenario]:
    """Maximal quasi-atomic scenarios by merging sibling boxes level by level.

    Level 0 is the consistent atomic refinements; merging the sibling
    pairs of level k gives every valid box with k+1 two-element labels,
    and a box without a sibling is maximal (the prime implicants of
    McCluskey 1956).  Same order as `rcc5.enumerate_scenarios`.
    """
    pair_list, atoms = _atomic_refinements(n)
    maximal = []
    level = set(atoms)
    while level:
        merged = set()
        for box in level:
            alone = True
            for p, label in enumerate(box):
                for sibling_label, wide in _SIBLINGS.get(label, ()):
                    if box[:p] + (sibling_label,) + box[p + 1 :] in level:
                        alone = False
                        merged.add(box[:p] + (wide,) + box[p + 1 :])
            if alone:
                maximal.append(box)
        level = merged

    scenarios = []
    for box in maximal:
        m = [row[:] for row in n._matrix]
        for (i, j), mask in zip(pair_list, box):
            _put(m, i, j, mask)
        scenarios.append(Scenario._from_matrix(n, m))
    scenarios.sort(key=QCN.sort_key)
    return scenarios


def reference_scenarios(n: QCN) -> list[Scenario]:
    """Maximal quasi-atomic scenarios by box search and pairwise filtering.

    A depth-first search over label prefixes narrows the consistent atomic
    refinements at every node; a complete box is valid when it holds as
    many refinements as its labels' product, and valid boxes contained in
    another one are dropped.  Same order as `rcc5.enumerate_scenarios`.
    """
    pair_list, atoms = _atomic_refinements(n)
    if not atoms:
        return []
    quasi = (PP.mask | EQ.mask, PPi.mask | EQ.mask)
    label_options = []
    for u, v in itertools.combinations(n.variables, 2):
        mask = n.constraint(u, v).mask
        label_options.append(
            tuple(b.mask for b in Relation.from_mask(mask))
            + tuple(q for q in quasi if mask & q == q)
        )

    boxes = []

    def walk(chosen: tuple[int, ...], subset: list[tuple[int, ...]]) -> None:
        pos = len(chosen)
        if pos == len(pair_list):
            size = 1
            for label in chosen:
                size *= label.bit_count()
            if len(subset) == size:
                boxes.append(chosen)
            return
        for label in label_options[pos]:
            narrowed = [a for a in subset if a[pos] & label]
            if len({a[pos] for a in narrowed}) == label.bit_count():
                walk(chosen + (label,), narrowed)

    walk((), atoms)
    maximal = [
        box
        for box in boxes
        if not any(
            other != box and all(b & ~o == 0 for b, o in zip(box, other)) for other in boxes
        )
    ]
    maximal.sort(key=lambda box: tuple(Relation.from_mask(m).sort_key() for m in box))
    return [
        Scenario(
            n.variables,
            {pair: Relation.from_mask(m) for pair, m in zip(itertools.combinations(n.variables, 2), box)},
        )
        for box in maximal
    ]


# --- slow reference for scenario selection ------------------------------------


def _reference_charge(label: Relation, entry: Mapping) -> int:
    """The conflicts one scenario label is charged from a pair's witness lists."""
    if label in (Relation([PP]), Relation([EQ]), Relation([PP, EQ])):
        return len(entry["subset_like"])
    if label in (Relation([PPi]), Relation([PPi, EQ])):
        return len(entry["superset_like"])
    if label == Relation([DR]):
        return len(entry["disjoint"])
    if label == Relation([PO]):
        return entry["overlap_count"]
    raise ValueError(f"not a scenario label: {label!r}")


def reference_select(
    candidates: Sequence[Scenario], profile: Sequence[Ontology]
) -> tuple[Scenario, ConflictReport, list[dict]]:
    """Scenario selection from witness lists built up front.

    Each source's members per concept are read straight from
    `closed.facts`; each canonical pair gets its three witness lists and
    overlap count, and a candidate's score sums, pair by pair, what its
    label is charged from them.  Same contract as
    `selection.select_scenario`: minimal distance, ties broken by
    `QCN.sort_key`.  The report holds no closures; the third value is the
    `pair_counts` list of the report JSON, built here from the facts.
    """
    if not candidates:
        raise ValueError("no candidate scenarios")
    for s in candidates:
        _check_signature(s.variables, profile)
    closures = [deductive_closure(o) for o in profile]

    pairs = [(u, v) for u, v, _ in candidates[0].canonical_items()]
    entries = {}
    for source_index, closed in enumerate(closures):
        members: dict[str, set[str]] = {}
        for fact in closed.facts:
            members.setdefault(fact.concept, set()).add(fact.individual)
        for u, v in pairs:
            in_u, in_v = members.get(u, set()), members.get(v, set())
            witnesses = (sorted(in_u - in_v), sorted(in_v - in_u), sorted(in_u & in_v))
            sizes = [len(w) for w in witnesses]
            entries[(source_index, (u, v))] = {
                "source": source_index + 1,
                "pair": [u, v],
                "subset_like": witnesses[0],
                "superset_like": witnesses[1],
                "disjoint": witnesses[2],
                "overlap_count": max(sizes) - min(sizes),
            }

    scores = []
    for s in candidates:
        labelled = [((u, v), label) for u, v, label in s.canonical_items()]
        per_source = tuple(
            sum(_reference_charge(label, entries[(source_index, pair)]) for pair, label in labelled)
            for source_index in range(len(closures))
        )
        scores.append(ScenarioScore(scenario=s, distance=sum(per_source), per_source=per_source))

    best = min(score.distance for score in scores)
    tied = tuple(i for i, score in enumerate(scores) if score.distance == best)
    selected = min(tied, key=lambda i: candidates[i].sort_key())
    report = ConflictReport(
        scores=tuple(scores),
        selected_index=selected,
        tied_indices=tied if len(tied) > 1 else (),
        closures=(),
    )
    return candidates[selected], report, list(entries.values())


# --- slow reference for the composition mask table ---------------------------


def reference_comp_masks() -> tuple[tuple[int, ...], ...]:
    """The 32×32 composition mask table, each entry the union over every member pair.

    `rcc5._COMP_MASK` builds the same table by splitting off the lowest
    member of a union; this is the triple loop it replaced.
    """
    position = {b.name: i for i, b in enumerate(BaseRelation)}
    base_comp = [[0] * 5 for _ in range(5)]
    for (b1, b2), out in _COMPOSITION_ENTRIES.items():
        base_comp[position[b1]][position[b2]] = Relation.from_names(out).mask
    table = []
    for m1 in range(32):
        row = []
        for m2 in range(32):
            acc = 0
            for i in range(5):
                if m1 >> i & 1:
                    for j in range(5):
                        if m2 >> j & 1:
                            acc |= base_comp[i][j]
            row.append(acc)
        table.append(tuple(row))
    return tuple(table)


# --- slow reference for algebraic closure ------------------------------------


def reference_close(m: list[list[int]], n: int, queue: deque[tuple[int, int]] | None = None) -> bool:
    """Algebraic closure of a mask matrix with two mirrored updates.

    For a popped pair (i, j) and each third variable k it narrows r_ik by
    r_ij o r_jk and r_kj by r_ki o r_ij, each written with its converse,
    and it scans every pair for an empty constraint before propagating,
    also when it closes from a single queued pair.  Same contract as
    `rcc5._close`: False once a constraint empties.
    """
    for i in range(n):
        for j in range(i + 1, n):
            if not m[i][j]:
                return False
    comp = _COMP_MASK
    conv = _CONV_MASK
    if queue is None:
        queue = deque((i, j) for i in range(n) for j in range(i + 1, n))
    pending = set(queue)
    while queue:
        i, j = queue.popleft()
        pending.discard((i, j))
        rij = m[i][j]
        for k in range(n):
            if k == i or k == j:
                continue
            t = m[i][k] & comp[rij][m[j][k]]
            if t != m[i][k]:
                if not t:
                    m[i][k] = m[k][i] = 0
                    return False
                m[i][k] = t
                m[k][i] = conv[t]
                pair = (i, k) if i < k else (k, i)
                if pair not in pending:
                    pending.add(pair)
                    queue.append(pair)
            t = m[k][j] & comp[m[k][i]][rij]
            if t != m[k][j]:
                if not t:
                    m[k][j] = m[j][k] = 0
                    return False
                m[k][j] = t
                m[j][k] = conv[t]
                pair = (k, j) if k < j else (j, k)
                if pair not in pending:
                    pending.add(pair)
                    queue.append(pair)
    return True


def reference_distance_table(profile: Sequence[QCN]) -> DistanceTable:
    """The distance table with every pair's column summed over the sources.

    Same pairs and columns as `distance.distance_table`, for a profile
    sharing one variable set.
    """
    columns: dict[tuple[str, str], tuple[int, int, int, int, int]] = {}
    for cells in zip(*(qcn.canonical_items() for qcn in profile)):
        pair = cells[0][:2]
        columns[pair] = tuple(map(sum, zip(*(_DIST[entry.mask] for _, _, entry in cells))))
    return DistanceTable(columns=columns)


def reference_dist_rows() -> tuple[tuple[int, ...], ...]:
    """Row `mask`, column i: the distance from ``BaseRelation[i]`` to the constraint `mask`.

    Shortest-path lengths by breadth-first search over `NEIGHBORHOOD_EDGES`,
    the minimum over the constraint's members, and 0 for the empty constraint.
    """
    neighbours: dict[Relation, set[Relation]] = {b: set() for b in BaseRelation}
    for a, c in NEIGHBORHOOD_EDGES:
        neighbours[a].add(c)
        neighbours[c].add(a)
    hops: dict[Relation, dict[Relation, int]] = {}
    for source in BaseRelation:
        seen = {source: 0}
        queue = deque([source])
        while queue:
            b = queue.popleft()
            for c in neighbours[b]:
                if c not in seen:
                    seen[c] = seen[b] + 1
                    queue.append(c)
        hops[source] = seen
    return tuple(
        tuple(min((hops[b][m] for m in Relation.from_mask(mask).members), default=0) for b in BaseRelation)
        for mask in range(32)
    )


def reference_merge(
    profile: Sequence[QCN],
) -> tuple[QCN, QCN, list[tuple[int, int, tuple[tuple[str, str], ...], QCN]]]:
    """The merged network, the initial network and the rounds of `merging.merge`.

    Each round is (index, value, relaxed pairs, snapshot).  Every round
    recomputes the value of every open canonical pair from its column and
    relaxes all pairs of the highest value by their nearest missing bases.
    """
    table = distance_table(profile)
    columns = {pair: table.column(*pair) for pair in table.columns}

    def nearest(label: Relation, column: Mapping[Relation, int]) -> Relation:
        missing = [b for b in BaseRelation if b not in label]
        best = min(column[b] for b in missing)
        return Relation([label, *(b for b in missing if column[b] == best)])

    labels = {pair: nearest(EMPTY, column) for pair, column in columns.items()}
    current = initial = QCN(profile[0].variables, labels)
    rounds = []
    while not is_consistent(current):
        values = {
            pair: max(columns[pair][b] for b in label.members)
            for pair, label in labels.items()
            if not label.is_full
        }
        highest = max(values.values())
        selected = tuple(pair for pair, value in values.items() if value == highest)
        for pair in selected:
            labels[pair] = nearest(labels[pair], columns[pair])
        current = QCN(profile[0].variables, labels)
        rounds.append((len(rounds) + 1, highest, selected, current))
    return current, initial, rounds


# --- slow reference for the whole pipeline -------------------------------------


def reference_pipeline(sources: Sequence[Ontology]) -> Ontology:
    """What `cli.run_pipeline` returns as its result, with every scenario listed.

    Forward translation over the union of the sources' concepts, in order
    of first appearance, then `merging.merge`; `reference_scenarios`
    lists the merged network's maximal scenarios, `scenario_distance`
    scores each anew, and the minimum by (distance, `QCN.sort_key`) is
    translated back.
    """
    union = list(dict.fromkeys(c for o in sources for c in o.concepts))
    merged, _ = merge([forward(o, variables=union).qcn for o in sources])
    selected = min(
        reference_scenarios(merged), key=lambda s: (scenario_distance(s, sources), s.sort_key())
    )
    return backward(selected)
