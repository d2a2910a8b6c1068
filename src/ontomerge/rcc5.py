"""RCC-5 relation algebra and qualitative constraint network reasoning.

The five base relations compare two non-empty sets ("regions"): DR
(disjoint), PO (partial overlap), PP (proper part), PPi (proper part
inverse) and EQ (equal).  Exactly one base relation holds between any two
regions.  A constraint is a set of base relations, read disjunctively; a
qualitative constraint network (QCN) assigns a constraint to every pair of
variables, keeping the two orientations of a pair converse-coherent.

Reasoning services: weak composition, algebraic closure (path
consistency), consistency by backtracking over atomic refinements, and
enumeration of maximal quasi-atomic scenarios.
"""

from __future__ import annotations

import json
from collections import deque
from enum import Enum
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "BaseRelation",
    "DR",
    "PO",
    "PP",
    "PPi",
    "EQ",
    "Relation",
    "EMPTY",
    "UNIVERSAL",
    "SCENARIO_LABELS",
    "converse",
    "compose",
    "compose_relations",
    "QCN",
    "Scenario",
    "algebraic_closure",
    "is_consistent",
    "enumerate_scenarios",
    "qcn_to_json",
    "qcn_from_json",
    "qcn_to_dot",
]


class BaseRelation(Enum):
    """The five jointly exhaustive, pairwise disjoint base relations."""

    DR = 1
    PO = 2
    PP = 4
    PPi = 8
    EQ = 16

    def __repr__(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name

    @property
    def index(self) -> int:
        """Position in the canonical order DR, PO, PP, PPi, EQ."""
        return self.value.bit_length() - 1

    @property
    def converse(self) -> "BaseRelation":
        return _CONVERSE_BASE[self]


DR, PO, PP, PPi, EQ = BaseRelation

_BASES: tuple[BaseRelation, ...] = tuple(BaseRelation)
_BASE_BY_NAME = {b.name: b for b in _BASES}
_CONVERSE_BASE = {DR: DR, PO: PO, PP: PPi, PPi: PP, EQ: EQ}
_FULL_MASK = 0b11111
_SINGLETON_MASKS = (1, 2, 4, 8, 16)


def _converse_mask(mask: int) -> int:
    swapped = mask & ~(PP.value | PPi.value)
    if mask & PP.value:
        swapped |= PPi.value
    if mask & PPi.value:
        swapped |= PP.value
    return swapped


_CONV_MASK = tuple(_converse_mask(m) for m in range(32))


class Relation:
    """An immutable set of base relations; the constraint label type.

    The full set means "no information"; the empty set is an unsatisfiable
    constraint.  All 32 values are interned, so identity comparison works,
    but ``==`` and ``hash`` are defined on content anyway.
    """

    __slots__ = ("_mask",)
    _interned: tuple["Relation", ...] = ()

    def __new__(cls, members: Iterable[BaseRelation] = ()) -> "Relation":
        if isinstance(members, Relation):
            return members
        mask = 0
        for b in members:
            if not isinstance(b, BaseRelation):
                raise TypeError(f"expected BaseRelation members, got {b!r}")
            mask |= b.value
        return cls.from_mask(mask)

    @classmethod
    def from_mask(cls, mask: int) -> "Relation":
        if not 0 <= mask <= _FULL_MASK:
            raise ValueError(f"relation mask out of range: {mask}")
        return cls._interned[mask]

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Relation":
        members = []
        for name in names:
            try:
                members.append(_BASE_BY_NAME[name])
            except KeyError:
                raise ValueError(f"unknown base relation name: {name!r}") from None
        return cls(members)

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def members(self) -> tuple[BaseRelation, ...]:
        return tuple(b for b in _BASES if b.value & self._mask)

    def names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.members)

    @property
    def is_empty(self) -> bool:
        return self._mask == 0

    @property
    def is_full(self) -> bool:
        return self._mask == _FULL_MASK

    @property
    def is_singleton(self) -> bool:
        return self._mask.bit_count() == 1

    def converse(self) -> "Relation":
        return Relation.from_mask(_CONV_MASK[self._mask])

    def sort_key(self) -> tuple[int, ...]:
        return tuple(b.index for b in self.members)

    def __contains__(self, b: BaseRelation) -> bool:
        return bool(b.value & self._mask)

    def __iter__(self) -> Iterator[BaseRelation]:
        return iter(self.members)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def __or__(self, other: "Relation") -> "Relation":
        return Relation.from_mask(self._mask | other._mask)

    def __and__(self, other: "Relation") -> "Relation":
        return Relation.from_mask(self._mask & other._mask)

    def __sub__(self, other: "Relation") -> "Relation":
        return Relation.from_mask(self._mask & ~other._mask)

    def __le__(self, other: "Relation") -> bool:
        return self._mask & ~other._mask == 0

    def __lt__(self, other: "Relation") -> bool:
        return self <= other and self._mask != other._mask

    def issubset(self, other: "Relation") -> bool:
        return self <= other

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(("Relation", self._mask))

    def __reduce__(self):
        return (Relation.from_mask, (self._mask,))

    def __repr__(self) -> str:
        return "{%s}" % ",".join(self.names())


def _intern_relations() -> tuple[Relation, ...]:
    out = []
    for mask in range(32):
        obj = object.__new__(Relation)
        obj._mask = mask
        out.append(obj)
    return tuple(out)


Relation._interned = _intern_relations()

EMPTY = Relation.from_mask(0)
UNIVERSAL = Relation.from_mask(_FULL_MASK)

#: Labels a scenario constraint may carry: singletons plus the two
#: quasi-atomic disjunctions.
SCENARIO_LABELS = tuple(
    Relation.from_mask(m) for m in (*_SINGLETON_MASKS, PP.value | EQ.value, PPi.value | EQ.value)
)
_SCENARIO_MASKS = frozenset(r.mask for r in SCENARIO_LABELS)


def converse(rel: Relation) -> Relation:
    """Base-wise converse: PP and PPi swap, DR/PO/EQ are fixed."""
    return rel.converse()


# Weak composition of base relations, frozen as a constant.  The tests
# regenerate it from the set semantics over a 7-point universe.
_COMPOSITION_ENTRIES: dict[tuple[str, str], tuple[str, ...]] = {
    ("DR", "DR"): ("DR", "PO", "PP", "PPi", "EQ"),
    ("DR", "PO"): ("DR", "PO", "PP"),
    ("DR", "PP"): ("DR", "PO", "PP"),
    ("DR", "PPi"): ("DR",),
    ("DR", "EQ"): ("DR",),
    ("PO", "DR"): ("DR", "PO", "PPi"),
    ("PO", "PO"): ("DR", "PO", "PP", "PPi", "EQ"),
    ("PO", "PP"): ("PO", "PP"),
    ("PO", "PPi"): ("DR", "PO", "PPi"),
    ("PO", "EQ"): ("PO",),
    ("PP", "DR"): ("DR",),
    ("PP", "PO"): ("DR", "PO", "PP"),
    ("PP", "PP"): ("PP",),
    ("PP", "PPi"): ("DR", "PO", "PP", "PPi", "EQ"),
    ("PP", "EQ"): ("PP",),
    ("PPi", "DR"): ("DR", "PO", "PPi"),
    ("PPi", "PO"): ("PO", "PPi"),
    ("PPi", "PP"): ("PO", "PP", "PPi", "EQ"),
    ("PPi", "PPi"): ("PPi",),
    ("PPi", "EQ"): ("PPi",),
    ("EQ", "DR"): ("DR",),
    ("EQ", "PO"): ("PO",),
    ("EQ", "PP"): ("PP",),
    ("EQ", "PPi"): ("PPi",),
    ("EQ", "EQ"): ("EQ",),
}

COMPOSITION: dict[tuple[BaseRelation, BaseRelation], Relation] = {
    (_BASE_BY_NAME[a], _BASE_BY_NAME[b]): Relation.from_names(out)
    for (a, b), out in _COMPOSITION_ENTRIES.items()
}


def compose(b1: BaseRelation, b2: BaseRelation) -> Relation:
    """Weak composition of two base relations."""
    return COMPOSITION[(b1, b2)]


def _build_comp_masks() -> tuple[tuple[int, ...], ...]:
    base_comp = [[0] * 5 for _ in range(5)]
    for (b1, b2), rel in COMPOSITION.items():
        base_comp[b1.index][b2.index] = rel.mask
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


_COMP_MASK = _build_comp_masks()


def compose_relations(r1: Relation, r2: Relation) -> Relation:
    """Weak composition lifted to relation sets (union over members)."""
    return Relation.from_mask(_COMP_MASK[r1.mask][r2.mask])


class QCN:
    """A qualitative constraint network: variables plus pair constraints.

    Constraints are stored once per unordered pair (in variable-list
    order); the accessor returns the converse for the flipped
    orientation, so coherence holds by construction.  Instances are
    immutable; updates return new networks.
    """

    __slots__ = ("_variables", "_index", "_masks")

    def __init__(
        self,
        variables: Iterable[str],
        constraints: Mapping[tuple[str, str], Relation]
        | Iterable[tuple[tuple[str, str], Relation]] = (),
    ) -> None:
        vars_t = tuple(variables)
        if len(set(vars_t)) != len(vars_t):
            raise ValueError("duplicate variable names")
        self._variables = vars_t
        self._index = {v: i for i, v in enumerate(vars_t)}
        masks: dict[tuple[int, int], int] = {}
        n = len(vars_t)
        for i in range(n):
            for j in range(i + 1, n):
                masks[(i, j)] = _FULL_MASK
        items = constraints.items() if isinstance(constraints, Mapping) else constraints
        for (u, v), rel in items:
            i, j = self._pair_indices(u, v)
            rel = Relation(rel)
            if i < j:
                masks[(i, j)] &= rel.mask
            else:
                masks[(j, i)] &= rel.converse().mask
        self._masks = masks

    def _pair_indices(self, u: str, v: str) -> tuple[int, int]:
        try:
            i = self._index[u]
            j = self._index[v]
        except KeyError as exc:
            raise KeyError(f"unknown variable: {exc.args[0]!r}") from None
        if i == j:
            raise ValueError(f"constraints relate distinct variables, got ({u!r}, {v!r})")
        return i, j

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def constraint(self, u: str, v: str) -> Relation:
        """The relation on (u, v), in that orientation."""
        i, j = self._pair_indices(u, v)
        if i < j:
            return Relation.from_mask(self._masks[(i, j)])
        return Relation.from_mask(_CONV_MASK[self._masks[(j, i)]])

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All unordered pairs, oriented by variable-list order."""
        n = len(self._variables)
        for i in range(n):
            for j in range(i + 1, n):
                yield self._variables[i], self._variables[j]

    def items(self, omit_full: bool = True) -> Iterator[tuple[str, str, Relation]]:
        for (i, j), mask in sorted(self._masks.items()):
            if omit_full and mask == _FULL_MASK:
                continue
            yield self._variables[i], self._variables[j], Relation.from_mask(mask)

    def updated(self, u: str, v: str, rel: Relation) -> "QCN":
        """A copy with the (u, v) constraint replaced by `rel`."""
        i, j = self._pair_indices(u, v)
        masks = dict(self._masks)
        masks[(min(i, j), max(i, j))] = rel.mask if i < j else rel.converse().mask
        return self._from_parts(self._variables, masks, type(self))

    def refined(self, u: str, v: str, rel: Relation) -> "QCN":
        """A copy with the (u, v) constraint intersected with `rel`."""
        return self.updated(u, v, self.constraint(u, v) & rel)

    def expanded(self, variables: Iterable[str]) -> "QCN":
        """Embed into a larger variable set; new pairs are unconstrained."""
        vars_t = tuple(variables)
        missing = set(self._variables) - set(vars_t)
        if missing:
            raise ValueError(f"expanded variable set drops {sorted(missing)}")
        out = QCN(vars_t)
        masks = dict(out._masks)
        for u, v, rel in self.items():
            i, j = out._pair_indices(u, v)
            masks[(min(i, j), max(i, j))] = rel.mask if i < j else rel.converse().mask
        return self._from_parts(vars_t, masks, QCN)

    @staticmethod
    def _from_parts(variables: tuple[str, ...], masks: dict[tuple[int, int], int], cls) -> "QCN":
        obj = object.__new__(cls)
        obj._variables = variables
        obj._index = {v: i for i, v in enumerate(variables)}
        obj._masks = masks
        if cls is Scenario:
            obj._validate_quasi_atomic()
        return obj

    @property
    def has_empty_constraint(self) -> bool:
        return any(mask == 0 for mask in self._masks.values())

    @property
    def is_atomic(self) -> bool:
        return all(mask.bit_count() == 1 for mask in self._masks.values())

    @property
    def is_quasi_atomic(self) -> bool:
        return all(mask in _SCENARIO_MASKS for mask in self._masks.values())

    def _matrix(self) -> list[list[int]]:
        n = len(self._variables)
        m = [[EQ.value if i == j else _FULL_MASK for j in range(n)] for i in range(n)]
        for (i, j), mask in self._masks.items():
            m[i][j] = mask
            m[j][i] = _CONV_MASK[mask]
        return m

    @classmethod
    def _from_matrix(cls, variables: tuple[str, ...], m: Sequence[Sequence[int]]) -> "QCN":
        masks = {}
        n = len(variables)
        for i in range(n):
            for j in range(i + 1, n):
                masks[(i, j)] = m[i][j]
        return cls._from_parts(variables, masks, cls)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QCN):
            return NotImplemented
        return self._variables == other._variables and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self._variables, tuple(sorted(self._masks.items()))))

    def __repr__(self) -> str:
        parts = ", ".join(f"{u}{rel!r}{v}" for u, v, rel in self.items())
        return f"QCN({list(self._variables)}; {parts or 'no constraints'})"

    def to_json_dict(self) -> dict:
        constraints = []
        for u, v, rel in self.items():
            if u > v:
                u, v, rel = v, u, rel.converse()
            constraints.append({"from": u, "to": v, "rel": list(rel.names())})
        constraints.sort(key=lambda c: (c["from"], c["to"]))
        return {"variables": list(self._variables), "constraints": constraints}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QCN":
        """Read `to_json_dict` output; any malformed document is a ValueError."""
        malformed = "malformed QCN JSON: "
        try:
            variables, raw = data["variables"], data["constraints"]
        except (KeyError, TypeError):
            raise ValueError(malformed + "expected an object with variables and constraints") from None
        if not _is_list_of(variables, str):
            raise ValueError(malformed + "variables must be a list of names")
        if not _is_list_of(raw, dict):
            raise ValueError(malformed + "constraints must be a list of objects")
        known = set(variables)
        seen: set[frozenset[str]] = set()
        constraints = []
        for entry in raw:
            try:
                u, v, names = entry["from"], entry["to"], entry["rel"]
            except KeyError:
                raise ValueError(malformed + f"constraint {entry} needs from, to and rel") from None
            for name in (u, v):
                if not (isinstance(name, str) and name in known):
                    raise ValueError(malformed + f"constraint names an unknown variable {name!r}")
            if not _is_list_of(names, str):
                raise ValueError(malformed + f"rel of constraint {entry} must be a list of names")
            key = frozenset((u, v))
            if len(key) != 2:
                raise ValueError(f"constraint relates a variable to itself: {u!r}")
            if key in seen:
                raise ValueError(f"duplicate constraint for pair ({u!r}, {v!r})")
            seen.add(key)
            constraints.append(((u, v), Relation.from_names(names)))
        return cls(variables, constraints)


def _is_list_of(value: object, item_type: type) -> bool:
    return isinstance(value, list) and all(isinstance(item, item_type) for item in value)


class Scenario(QCN):
    """A quasi-atomic QCN: every label is a singleton, {PP,EQ} or {PPi,EQ}."""

    def __init__(self, variables, constraints=()) -> None:
        super().__init__(variables, constraints)
        self._validate_quasi_atomic()

    def _validate_quasi_atomic(self) -> None:
        for (i, j), mask in self._masks.items():
            if mask not in _SCENARIO_MASKS:
                u, v = self._variables[i], self._variables[j]
                raise ValueError(
                    f"not quasi-atomic: constraint ({u}, {v}) is {Relation.from_mask(mask)!r}"
                )

    @classmethod
    def from_qcn(cls, qcn: QCN) -> "Scenario":
        return cls(qcn.variables, {(u, v): rel for u, v, rel in qcn.items()})


def _close(m: list[list[int]], n: int, queue: deque[tuple[int, int]] | None = None) -> bool:
    """Propagate compositions to a fixpoint; False once a constraint empties."""
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


def algebraic_closure(n: QCN) -> QCN:
    """Intersect every constraint with the compositions over all triples.

    The result is pointwise contained in the input and converse-coherent.
    When a constraint empties, propagation stops and the network is
    returned with that empty constraint, which signals inconsistency.
    """
    m = n._matrix()
    _close(m, len(n.variables))
    return QCN._from_matrix(n.variables, m)


def _bits(mask: int) -> Iterator[int]:
    for bit in _SINGLETON_MASKS:
        if mask & bit:
            yield bit


def _choose_pair(m: list[list[int]], n: int) -> tuple[int, int] | None:
    best = None
    best_size = 6
    for i in range(n):
        for j in range(i + 1, n):
            size = m[i][j].bit_count()
            if 1 < size < best_size:
                best = (i, j)
                best_size = size
                if size == 2:
                    return best
    return best


def is_consistent(n: QCN) -> bool:
    """Whether some atomic refinement survives closure without emptying.

    Backtracking over atomic refinements with closure as forward
    checking; path consistency decides atomic RCC-5 networks, so a fully
    refined, closed network is a witness.
    """
    m = n._matrix()
    size = len(n.variables)
    if not _close(m, size):
        return False
    return _consistent_search(m, size)


def _consistent_search(m: list[list[int]], n: int) -> bool:
    pair = _choose_pair(m, n)
    if pair is None:
        return True
    i, j = pair
    for bit in _bits(m[i][j]):
        m2 = [row[:] for row in m]
        m2[i][j] = bit
        m2[j][i] = _CONV_MASK[bit]
        if _close(m2, n, deque([(i, j)])) and _consistent_search(m2, n):
            return True
    return False


def _atomic_refinements(n: QCN) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """All consistent atomic refinements, as mask tuples over the pair list."""
    size = len(n.variables)
    pair_list = [(i, j) for i in range(size) for j in range(i + 1, size)]
    solutions: list[tuple[int, ...]] = []
    m = n._matrix()
    if not _close(m, size):
        return pair_list, solutions

    def walk(m: list[list[int]]) -> None:
        pair = _choose_pair(m, size)
        if pair is None:
            solutions.append(tuple(m[i][j] for i, j in pair_list))
            return
        i, j = pair
        for bit in _bits(m[i][j]):
            m2 = [row[:] for row in m]
            m2[i][j] = bit
            m2[j][i] = _CONV_MASK[bit]
            if _close(m2, size, deque([(i, j)])):
                walk(m2)

    walk(m)
    return pair_list, solutions


def enumerate_scenarios(n: QCN) -> list[Scenario]:
    """All maximal quasi-atomic scenarios of `n`, in a fixed order.

    A candidate keeps a two-element label {PP,EQ} or {PPi,EQ} only when
    both of its atomic refinements are consistent together with the rest
    of the network; scenarios pointwise contained in another returned
    scenario are dropped.  Output is sorted lexicographically by the
    constraint labels in variable order.
    """
    pair_list, atoms = _atomic_refinements(n)
    if not atoms:
        return []
    quasi_pp = PP.value | EQ.value
    quasi_ppi = PPi.value | EQ.value
    input_matrix = n._matrix()
    label_options: list[tuple[int, ...]] = []
    for i, j in pair_list:
        cmask = input_matrix[i][j]
        options = [bit for bit in _SINGLETON_MASKS if cmask & bit]
        if cmask & quasi_pp == quasi_pp:
            options.append(quasi_pp)
        if cmask & quasi_ppi == quasi_ppi:
            options.append(quasi_ppi)
        label_options.append(tuple(options))

    boxes: list[tuple[int, ...]] = []

    def dfs(pos: int, chosen: list[int], subset: list[tuple[int, ...]]) -> None:
        if pos == len(pair_list):
            if len(subset) == prod(label.bit_count() for label in chosen):
                boxes.append(tuple(chosen))
            return
        for label in label_options[pos]:
            narrowed = [a for a in subset if a[pos] & label]
            if not narrowed:
                continue
            present = 0
            for a in narrowed:
                present |= a[pos]
            if present & label != label:
                continue
            chosen.append(label)
            dfs(pos + 1, chosen, narrowed)
            chosen.pop()

    dfs(0, [], atoms)

    maximal = [
        box
        for box in boxes
        if not any(
            other != box and all(b & ~o == 0 for b, o in zip(box, other)) for other in boxes
        )
    ]
    maximal.sort(key=lambda box: tuple(Relation.from_mask(m).sort_key() for m in box))

    scenarios = []
    for box in maximal:
        masks = {pair: mask for pair, mask in zip(pair_list, box)}
        scenarios.append(QCN._from_parts(n.variables, masks, Scenario))
    return scenarios


def qcn_to_json(qcn: QCN) -> str:
    return json.dumps(qcn.to_json_dict(), indent=2, sort_keys=True) + "\n"


def qcn_from_json(text: str) -> QCN:
    return QCN.from_json_dict(json.loads(text))


def qcn_to_dot(qcn: QCN, name: str = "qcn") -> str:
    """Graphviz rendering; fully unconstrained pairs are not drawn."""
    lines = [f"graph {name} {{"]
    for var in qcn.variables:
        lines.append(f'  "{var}";')
    for u, v, rel in qcn.items():
        if u > v:
            u, v, rel = v, u, rel.converse()
        lines.append(f'  "{u}" -- "{v}" [label="{rel!r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
