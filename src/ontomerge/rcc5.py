"""RCC-5 relation algebra and qualitative constraint network reasoning.

The five base relations compare two non-empty sets ("regions"): DR
(disjoint), PO (partial overlap), PP (proper part), PPi (proper part
inverse) and EQ (equal).  Exactly one base relation holds between any two
regions.  A constraint is a set of base relations, read disjunctively; a
qualitative constraint network (QCN) assigns a constraint to every pair of
variables, keeping the two orientations of a pair converse-coherent.

Reasoning services: weak composition, algebraic closure (path
consistency), consistency by backtracking until every open label contains
PO, and one branch and bound over quasi-atomic boxes, `_search`, checked
triangle by triangle, run here only.  It prunes a branch once some
fixed label is sure to widen, so every leaf it reaches is maximal.
Enumeration lists its every leaf, `MaximalScenarios`, a view that lists
on demand, decides membership by its first leaf over a candidate's own
labels, and `_cheapest_scenario` keeps the cheapest under `selection`'s
label prices, searching below the cost of a box that a greedy descent
(`_seed_box`) and large-neighbourhood search (`_improved`) found first.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from functools import cache, cached_property
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

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
    "QCN",
    "Scenario",
    "algebraic_closure",
    "is_consistent",
    "enumerate_scenarios",
    "MaximalScenarios",
    "qcn_to_json",
    "qcn_from_json",
    "qcn_to_dot",
]


_FULL_MASK = 0b11111
_BASE_NAMES = ("DR", "PO", "PP", "PPi", "EQ")
#: The member positions (also the sort key) and member bits of each mask.
_POSITIONS = tuple(tuple(i for i in range(5) if m >> i & 1) for m in range(32))
_BITS = tuple(tuple(1 << i for i in key) for key in _POSITIONS)
_NAMES = tuple(tuple(_BASE_NAMES[i] for i in key) for key in _POSITIONS)
_REPRS = tuple("{%s}" % ",".join(names) for names in _NAMES)


class Relation:
    """An immutable set of base relations; the constraint label type.

    A base relation is the singleton set holding it.  The full set means
    "no information"; the empty set is an unsatisfiable constraint.  All
    32 values are interned -- by ``__new__``, `from_mask` and
    ``__reduce__`` (copies and pickles) -- so equality and hashing are
    those of identity.
    """

    __slots__ = ("_mask",)
    _interned: tuple["Relation", ...] = ()

    def __new__(cls, members: Iterable["Relation"] = ()) -> "Relation":
        """The union of `members`; a relation is the union of its own members."""
        mask = 0
        for b in members:
            if not isinstance(b, Relation):
                raise TypeError(f"expected Relation members, got {b!r}")
            mask |= b._mask
        return cls.from_mask(mask)

    @classmethod
    def from_mask(cls, mask: int) -> "Relation":
        if not 0 <= mask <= _FULL_MASK:
            raise ValueError(f"relation mask out of range: {mask}")
        return cls._interned[mask]

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Relation":
        mask = 0
        for name in names:
            if name not in _BASE_NAMES:
                raise ValueError(f"unknown base relation name: {name!r}")
            mask |= 1 << _BASE_NAMES.index(name)
        return cls._interned[mask]

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def members(self) -> tuple["Relation", ...]:
        """The base relations in this set, in the order DR, PO, PP, PPi, EQ."""
        return tuple(self)

    def names(self) -> tuple[str, ...]:
        return _NAMES[self._mask]

    @property
    def name(self) -> str:
        """The member names joined by commas; a base relation's own name."""
        return ",".join(_NAMES[self._mask])

    @property
    def is_empty(self) -> bool:
        return self._mask == 0

    @property
    def is_full(self) -> bool:
        return self._mask == _FULL_MASK

    @property
    def converse(self) -> "Relation":
        return Relation.from_mask(_CONV_MASK[self._mask])

    def sort_key(self) -> tuple[int, ...]:
        return _POSITIONS[self._mask]

    def __contains__(self, b: "Relation") -> bool:
        return bool(b._mask & self._mask)

    def __iter__(self) -> Iterator["Relation"]:
        return map(Relation._interned.__getitem__, _BITS[self._mask])

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

    def __reduce__(self):
        return (Relation.from_mask, (self._mask,))

    def __repr__(self) -> str:
        return _REPRS[self._mask]


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

#: The five jointly exhaustive, pairwise disjoint base relations, as singletons.
BaseRelation: tuple[Relation, ...] = tuple(Relation.from_mask(1 << i) for i in range(5))
DR, PO, PP, PPi, EQ = BaseRelation


def _converse_mask(mask: int) -> int:
    swapped = mask & ~(PP.mask | PPi.mask)
    if mask & PP.mask:
        swapped |= PPi.mask
    if mask & PPi.mask:
        swapped |= PP.mask
    return swapped


_CONV_MASK = tuple(_converse_mask(m) for m in range(32))

#: Labels a scenario constraint may carry: singletons plus the two
#: quasi-atomic disjunctions.
SCENARIO_LABELS = (*BaseRelation, PP | EQ, PPi | EQ)
_SCENARIO_MASKS = frozenset(r.mask for r in SCENARIO_LABELS)


def converse(rel: Relation) -> Relation:
    """Base-wise converse: PP and PPi swap, DR/PO/EQ are fixed."""
    return rel.converse


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

def _build_comp_masks() -> tuple[tuple[int, ...], ...]:
    """Composition is a union over members, so each entry splits off its lowest member."""
    table = [[0] * 32 for _ in range(32)]
    for (b1, b2), out in _COMPOSITION_ENTRIES.items():
        m1, m2 = (Relation.from_names([b]).mask for b in (b1, b2))
        table[m1][m2] = Relation.from_names(out).mask
    for m1 in range(1, 32):
        low1 = m1 & -m1
        for m2 in range(1, 32):
            low2 = m2 & -m2
            if low1 != m1:
                table[m1][m2] = table[low1][m2] | table[m1 ^ low1][m2]
            elif low2 != m2:
                table[m1][m2] = table[m1][low2] | table[m1][m2 ^ low2]
    return tuple(map(tuple, table))


_COMP_MASK = _build_comp_masks()


def compose(r1: Relation, r2: Relation) -> Relation:
    """Weak composition: the union of the base compositions over member pairs."""
    return Relation.from_mask(_COMP_MASK[r1.mask][r2.mask])


class QCN:
    """A qualitative constraint network: variables plus pair constraints.

    Constraints live in one n×n matrix of relation masks indexed by
    variable position, the layout closure and search work on.  Entry
    (i, j) holds the constraint on (variables[i], variables[j]), entry
    (j, i) its converse and the diagonal EQ; every write sets both
    orientations, so coherence holds by construction.  Instances are
    immutable: the matrix is never written after construction, and
    updates return new networks.
    """

    __slots__ = ("_variables", "_index", "_matrix")

    def __init__(
        self,
        variables: Iterable[str],
        constraints: Mapping[tuple[str, str], Relation]
        | Iterable[tuple[tuple[str, str], Relation]] = (),
    ) -> None:
        vars_t = tuple(variables)
        if len(set(vars_t)) != len(vars_t):
            repeated = next(name for k, name in enumerate(vars_t) if name in vars_t[:k])
            raise ValueError(f"variable {repeated!r} repeated in the signature")
        self._variables = vars_t
        self._index = index = {v: i for i, v in enumerate(vars_t)}
        n = len(vars_t)
        m = [[_FULL_MASK] * n for _ in range(n)]
        for i, row in enumerate(m):
            row[i] = EQ.mask
        self._matrix = m
        conv = _CONV_MASK
        items = constraints.items() if isinstance(constraints, Mapping) else constraints
        for (u, v), rel in items:
            try:
                i, j = index[u], index[v]
            except KeyError:
                i = j = -1
            if i == j:  # an unknown or repeated variable: `_pair_indices` raises its error
                self._pair_indices(u, v)
            t = m[i][j] & rel._mask
            m[i][j] = t
            m[j][i] = conv[t]

    @classmethod
    def _from_matrix(cls, source: "QCN", m: list[list[int]]) -> "QCN":
        """A network over `source`'s variables with matrix `m`, unchecked; it shares their index."""
        obj = object.__new__(cls)
        obj._variables = source._variables
        obj._index = source._index
        obj._matrix = m
        return obj

    def _pair_indices(self, u: str, v: str) -> tuple[int, int]:
        try:
            i = self._index[u]
            j = self._index[v]
        except KeyError as exc:
            raise KeyError(f"unknown variable: {exc.args[0]!r}") from None
        if i == j:
            raise ValueError(f"constraints relate distinct variables, got ({u!r}, {v!r})")
        return i, j

    def _upper(self) -> Iterator[tuple[int, int, int]]:
        """(i, j, mask) for every pair with i < j, row by row."""
        m = self._matrix
        for i, row in enumerate(m):
            for j in range(i + 1, len(m)):
                yield i, j, row[j]

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def constraint(self, u: str, v: str) -> Relation:
        """The relation on (u, v), in that orientation."""
        i, j = self._pair_indices(u, v)
        return Relation.from_mask(self._matrix[i][j])

    def items(self) -> Iterator[tuple[str, str, Relation]]:
        """(u, v, constraint) for every constrained pair, oriented by variable-list order."""
        interned = Relation._interned
        for i, j, mask in self._upper():
            if mask == _FULL_MASK:
                continue
            yield self._variables[i], self._variables[j], interned[mask]

    def canonical_items(self) -> Iterator[tuple[str, str, Relation]]:
        """Every pair once as (u, v, constraint), u < v, in the order of `_canonical_cells`."""
        names, m = self._variables, self._matrix
        interned = Relation._interned
        for i, j in _canonical_cells(names):
            yield names[i], names[j], interned[m[i][j]]

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """The labels pair by pair in variable order, each as its member indices."""
        return tuple(_POSITIONS[mask] for i, row in enumerate(self._matrix) for mask in row[i + 1 :])

    def updated(self, changes: Mapping[tuple[str, str], Relation]) -> "QCN":
        """A copy with the constraint on each (u, v) of `changes` replaced.

        The copy is a plain `QCN`: a new label may leave the quasi-atomic class.
        """
        m = [row[:] for row in self._matrix]
        for (u, v), rel in changes.items():
            _put(m, *self._pair_indices(u, v), rel.mask)
        return QCN._from_matrix(self, m)

    def refined(self, u: str, v: str, rel: Relation) -> "QCN":
        """A copy with the (u, v) constraint intersected with `rel`."""
        return self.updated({(u, v): self.constraint(u, v) & rel})

    @property
    def has_empty_constraint(self) -> bool:
        return any(mask == 0 for _, _, mask in self._upper())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QCN):
            return NotImplemented
        return self._variables == other._variables and self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash((self._variables, tuple(map(tuple, self._matrix))))

    def __repr__(self) -> str:
        parts = ", ".join(f"{u}{rel!r}{v}" for u, v, rel in self.items())
        return f"QCN({list(self._variables)}; {parts or 'no constraints'})"

    def to_json_dict(self) -> dict:
        names, m = self._variables, self._matrix
        constraints = [
            {"from": names[i], "to": names[j], "rel": list(_NAMES[m[i][j]])}
            for i, j in _canonical_cells(names)
            if m[i][j] != _FULL_MASK
        ]
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
    """A quasi-atomic QCN: every label is a singleton, {PP,EQ} or {PPi,EQ}.

    Only the constructor and `from_qcn`, the input boundary, check this.
    """

    def __init__(self, variables, constraints=()) -> None:
        super().__init__(variables, constraints)
        self._validate_quasi_atomic()

    def _validate_quasi_atomic(self) -> None:
        # the diagonal is EQ and a converse is a scenario label exactly when its label is
        if _SCENARIO_MASKS.issuperset(chain.from_iterable(self._matrix)):
            return
        for i, j, mask in self._upper():
            if mask not in _SCENARIO_MASKS:
                u, v = self._variables[i], self._variables[j]
                raise ValueError(
                    f"not quasi-atomic: constraint ({u}, {v}) is {Relation.from_mask(mask)!r}"
                )

    @classmethod
    def from_qcn(cls, qcn: QCN) -> "Scenario":
        scenario = cls._from_matrix(qcn, qcn._matrix)
        scenario._validate_quasi_atomic()
        return scenario


def _canonical_cells(names: Sequence[str]) -> Iterator[tuple[int, int]]:
    """The canonical pair order, the one every stage walks pairs in: the
    matrix cell (i, j) of each pair once, names[i] < names[j], sorted."""
    return combinations(sorted(range(len(names)), key=names.__getitem__), 2)


def _put(m: list[list[int]], i: int, j: int, mask: int) -> None:
    """Set the (i, j) constraint of matrix `m` and its converse."""
    m[i][j] = mask
    m[j][i] = _CONV_MASK[mask]


def _close(m: list[list[int]], n: int, queue: deque[tuple[int, int]] | None = None) -> bool:
    """Propagate compositions to a fixpoint; False once a constraint empties.

    One update serves each queued pair (i, j) in both orientations (a, b):
    r_ak <- r_ak & (r_ab o r_bk) for every third variable k, written with
    its converse.  By the converse law, the (j, i) orientation narrows
    r_kj by r_ki o r_ij.  A changed pair is queued again.

    Universal constraints are skipped: r o UNIVERSAL and UNIVERSAL o r
    are UNIVERSAL for every non-empty r, so a universal r_ab or r_bk
    narrows nothing.  The closure is the unique greatest fixpoint below
    `m`, so skipping them changes no closed matrix and no verdict.

    Without a queue every non-universal pair starts queued, and an empty
    constraint in `m` is reported at once.  A queue is for a closed `m`
    in which only the queued pairs were narrowed, none of them to empty.
    """
    comp = _COMP_MASK
    conv = _CONV_MASK
    if queue is None:
        if any(not m[i][j] for i in range(n) for j in range(i + 1, n)):
            return False
        queue = deque((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] != _FULL_MASK)
    pending = set(queue)
    while queue:
        i, j = queue.popleft()
        pending.discard((i, j))
        for a, b in ((i, j), (j, i)):
            row_a, row_b = m[a], m[b]
            by_ab = comp[row_a[b]]
            for k in range(n):
                rbk = row_b[k]
                if rbk == _FULL_MASK or k == a or k == b:
                    continue
                t = row_a[k] & by_ab[rbk]
                if t != row_a[k]:
                    row_a[k] = t
                    m[k][a] = conv[t]
                    if not t:
                        return False
                    pair = (a, k) if a < k else (k, a)
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
    m = [row[:] for row in n._matrix]
    _close(m, len(n.variables))
    return QCN._from_matrix(n, m)


#: Labels the consistency search splits: the non-atomic ones without PO.
_SPLIT = tuple(m.bit_count() > 1 and not m & PO.mask for m in range(32))


def _branches(m: list[list[int]], n: int, i: int, j: int) -> Iterator[list[list[int]]]:
    """Closed copies of `m` with (i, j) fixed to each of its base relations.

    A copy in which a constraint empties is dropped.
    """
    for bit in _BITS[m[i][j]]:
        child = [row[:] for row in m]
        _put(child, i, j, bit)
        if _close(child, n, deque([(i, j)])):
            yield child


def is_consistent(n: QCN) -> bool:
    """Whether some atomic refinement of `n` is consistent.

    Backtracking with closure as forward checking (Renz & Nebel 2001):
    each node fixes the smallest non-atomic label without PO to one of
    its base relations, then closes from that pair.  A leaf is a closed,
    non-empty mask matrix whose open labels all contain PO, and it is
    consistent: fixing those labels to PO leaves it closed, as each
    triangle shows.

    - No fixed edge: the triangle was closed already.
    - Three fixed edges: PO o PO is universal.
    - Two fixed edges, third label X: PO is in PO o X and in X o PO.
    - One fixed edge (a, b), atoms X on (b, k) and Y on (a, k): closure
      left PO in Y o X^-1, and the cycle law of the composition table
      turns that into the other two conditions.

    The open child iterators sit on an explicit stack, so the depth of
    the search is bounded by memory, not by Python's recursion limit.
    """
    size = len(n.variables)
    root = [row[:] for row in n._matrix]
    if not _close(root, size):
        return False
    stack = [iter((root,))]
    while stack:
        m = next(stack[-1], None)
        if m is None:
            stack.pop()
            continue
        # split the first of the smallest labels without PO
        candidates = [
            (m[i][j].bit_count(), i, j) for i in range(size) for j in range(i + 1, size) if _SPLIT[m[i][j]]
        ]
        if not candidates:
            return True
        stack.append(_branches(m, size, *min(candidates)[1:]))
    return False


# A set of scenario labels is an int with bit m set for label mask m.
#: The scenario labels inside each constraint.
_FITS = tuple(sum(1 << s for s in _SCENARIO_MASKS if s & ~m == 0) for m in range(32))
#: The two-element scenario labels each atomic label widens to.
_WIDEN = tuple(sum(1 << w for w in _SCENARIO_MASKS if w != m and w & m == m) for m in range(32))


def _triangle_labels(a: int, b: int) -> int:
    """The scenario labels c on (i, j) that compose with a on (k, i) and b on (k, j).

    That is, z lies in x^-1 o y for every x in a, y in b and z in c.
    """
    common = _FULL_MASK
    for x in _BITS[a]:
        for y in _BITS[b]:
            common &= _COMP_MASK[_CONV_MASK[x]][y]
    return _FITS[common]


_ALLOWED = tuple(
    tuple(_triangle_labels(a, b) if a in _SCENARIO_MASKS and b in _SCENARIO_MASKS else 0 for b in range(32))
    for a in range(32)
)


def _box_domains(n: QCN) -> list[list[int]]:
    """The scenario labels inside each closed constraint of `n`, a label
    set per matrix cell; all empty when the closure empties a constraint."""
    m = [row[:] for row in n._matrix]
    closed = _close(m, len(m))
    return [[_FITS[mask] if closed else 0 for mask in row] for row in m]


def _widenings(box: list[list[int]], domains: list[list[int]], i: int, j: int) -> int:
    """The labels that (i, j) of the valid box `box` widens to validly.

    Validity is closed under shrinking, so a valid box is maximal among
    the boxes inside `domains` when no single label widens validly (PP
    or EQ to {PP,EQ}, PPi or EQ to {PPi,EQ}): the pair's widenings inside
    its domain are one label set, narrowed by `_ALLOWED` over the pair's
    triangles until it empties.  `box` holds both orientations, so any
    third k can be the apex of the triangle (k, i, j); every triangle
    through the pair must be fixed.
    """
    wider = domains[i][j] & _WIDEN[box[i][j]]
    for k, row in enumerate(box):
        if not wider:
            break
        if k != i and k != j:
            wider &= _ALLOWED[row[i]][row[j]]
    return wider


def _widens(box: list[list[int]], domains: list[list[int]], columns: Iterable[int]) -> bool:
    """Whether some pair (a, c), a < c, of `columns` has `_widenings`:
    whether `box` is not maximal there.  It runs at every row's end, so
    the loop of `_widenings` is inlined."""
    for c in columns:
        for a in range(c):
            wider = domains[a][c] & _WIDEN[box[a][c]]
            if wider:
                for k, row in enumerate(box):
                    if k != a and k != c:
                        wider &= _ALLOWED[row[a]][row[c]]
                        if not wider:
                            break
                else:
                    return True
    return False


class _Common(dict):
    """The labels c on (i, j) that `_ALLOWED` admits for every x in a
    label set xs on (k, i) and y in a label set ys on (k, j), filled on
    demand.  The key is xs << 26 | ys << 1, plus 1 when xs and ys hold
    the labels of (i, k) and (j, k) instead.
    """

    def __missing__(self, key: int) -> int:
        xs, ys, turned = key >> 26, key >> 1 & (1 << 25) - 1, key & 1
        labels = _FITS[_FULL_MASK]
        for x in _LABELS_OF[xs]:
            for y in _LABELS_OF[ys]:
                labels &= _ALLOWED[_CONV_MASK[x]][_CONV_MASK[y]] if turned else _ALLOWED[x][y]
        self[key] = labels
        return labels


_COMMON = _Common()


#: The scenario labels in `QCN.sort_key` order: DR, PO, PP, {PP,EQ}, PPi, {PPi,EQ}, EQ.
_SORTED_LABELS = tuple(sorted(_SCENARIO_MASKS, key=_POSITIONS.__getitem__))
#: The labels of each label set (bit m for label mask m), in that order.
_LABELS_OF = {
    sum(1 << m for m in chosen): chosen
    for size in range(len(_SORTED_LABELS) + 1)
    for chosen in combinations(_SORTED_LABELS, size)
}
#: A pair's cost row, a cost per label mask, read in the converse orientation.
_TURN = itemgetter(*_CONV_MASK)


@cache
def _row_order(size: int) -> tuple[tuple[tuple[int, int], ...], tuple, tuple, tuple]:
    """The pairs (i, j), i < j, row by row, and for each pair:

    - the (depth of (k, j), k) of every pair that fixing it narrows;
    - the (depth of (i, r), depth of (j, r)) of every third r after j;
    - the columns c whose pairs (a, c), a < c, have every triangle fixed
      once it is: a row's last pair completes the row's column, and the
      last pair the last two columns.

    Memoized per size, as tuples.
    """
    pairs = tuple(combinations(range(size), 2))
    depth_of = {pair: d for d, pair in enumerate(pairs)}
    narrowed = tuple(tuple((depth_of[k, j], k) for k in range(i + 1, j)) for i, j in pairs)
    beyond = tuple(tuple((depth_of[i, r], depth_of[j, r]) for r in range(j + 1, size)) for i, j in pairs)
    completes = tuple((i,) if j == size - 1 else () for i, j in pairs[:-1]) + (range(size - 2, size),)
    return pairs, narrowed, beyond, completes


def _search(
    domains: list[list[int]],
    cost: Sequence[Sequence[int]] | None = None,
    limit: float = math.inf,
    maximal_in: list[list[int]] | None = None,
) -> Iterator[list[list[int]]]:
    """Branch and bound, depth first, over the boxes inside `domains`.

    A box gives each pair a scenario label.  Path consistency decides
    atomic networks, so a box is valid (every atomic refinement inside
    it is consistent) when `_ALLOWED` passes every triangle.  Pairs are
    fixed row by row, each to the labels of its domain in sort-key
    order, so leaves arrive in increasing `QCN.sort_key`.  Fixing (i, j)
    completes the triangles (i, k, j), i < k < j, and forward checking
    narrows the open pair (k, j) by `_ALLOWED`; an empty domain prunes
    the branch.  Every leaf is thus valid.

    A leaf is yielded, as a copy of the box, when it is maximal among
    the boxes inside `maximal_in`, by default `domains`.  Two tests
    prune branches below which no leaf is: a pair just fixed to PP, PPi
    or EQ whose widening inside `maximal_in` passes `_ALLOWED` for every
    label still left on each of its triangles, and, once row i is
    complete, a pair (a, i) with `_widenings` (`_widens`), every triangle
    through it being fixed.  The last depth completes the last two
    columns, so a leaf that passes is maximal.

    A box costs the sum of `cost[d][label]` over its pairs, `cost[d]`
    being the row of the d-th pair fixed.  A node's bound, the cost so
    far plus the cheapest label left on each open pair, is kept
    incrementally; each depth's undo list restores the domains its label
    narrowed.  A branch whose bound reaches `limit` is pruned.  Without
    `cost` every box costs nothing and every maximal leaf is yielded;
    with it, each yielded leaf's cost becomes the limit, and the last
    leaf is the first cheapest one below the starting limit.
    """
    size = len(domains)
    box = [[EQ.mask] * size for _ in range(size)]
    if size < 2:  # a single variable: the empty box is its one leaf
        yield box
        return
    closed = domains if maximal_in is None else maximal_in
    every = cost is None
    pairs, narrowed, beyond, completes = _row_order(size)
    if every:
        cost = [(0,) * 32] * len(pairs)
    domain = [domains[i][j] for i, j in pairs]
    # whether each pair's domain is narrower than the constraint its maximality is judged in
    held = [closed[i][j] != labels for (i, j), labels in zip(pairs, domain)]
    low = [min([cost[d][m] for m in _LABELS_OF[domain[d]]], default=0) for d in range(len(pairs))]
    lowest: list[dict[int, int]] = [{} for _ in pairs]  # the cheapest label of each domain met, per pair
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
        if g + rest >= limit:
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
            if g + rest >= limit:
                continue
            # does a widening pass every label left on the pair's triangles?  The
            # domain, unless held to fewer labels, already passed those (r, i, j), r < i
            wider = _WIDEN[label] & (closed[i][j] if held[depth] else domain[depth])
            if wider:
                for r in range(i) if held[depth] else ():
                    wider &= _ALLOWED[box[r][i]][box[r][j]]
                for d, k in narrowed[depth] if wider else ():
                    wider &= _COMMON[1 << (box[k][i] + 26) | domain[d] << 1]
                for d, e in beyond[depth] if wider else ():
                    wider &= _COMMON[domain[d] << 26 | domain[e] << 1 | 1]
                if wider:
                    continue
            ends = completes[depth]
            if ends and _widens(box, closed, ends):
                continue
            if depth + 1 == len(pairs):
                yield [row[:] for row in box]
                if not every:
                    limit = g
                continue
            depth += 1
            spent[depth] = g
            rest -= low[depth]
            left[depth] = iter(_LABELS_OF[domain[depth]])


#: Steps of the greedy descent of `_seed_box`, each a label tried or a pair
#: run out of labels, before it gives up.
_SEED_NODES = 100_000
#: Concepts whose pairs a window search of `_improved` frees.
_WINDOW = 4


def _box_cost(box: list[list[int]], cost: Sequence[Sequence[int]]) -> int:
    """The cost of `box` under `_search`'s cost rows."""
    return sum(cost[d][box[i][j]] for d, (i, j) in enumerate(combinations(range(len(box)), 2)))


def _seed_box(domains: list[list[int]], cost: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """A maximal box inside `domains`, cheap but not always the cheapest,
    or None when `_SEED_NODES` steps turn up no valid box.

    One descent in row order tries each pair's labels cheapest first,
    with forward checking as in `_search`, and backtracks on an empty
    domain.  Its first leaf is valid; each pair in turn then takes its
    cheapest valid widening.  Widening only narrows what the others may
    widen to, so one pass leaves a maximal box.
    """
    size = len(domains)
    box = [[EQ.mask] * size for _ in range(size)]
    if size < 2:
        return box
    pairs, narrowed, _, _ = _row_order(size)
    by_cost = [cost[d].__getitem__ for d in range(len(pairs))]
    opened = [[domains[i][j] for i, j in pairs]]  # the domains before each depth
    left = [iter(sorted(_LABELS_OF[opened[0][0]], key=by_cost[0]))]
    for _ in range(_SEED_NODES):
        depth = len(left) - 1
        label = next(left[depth], None)
        if label is None:
            left.pop()
            opened.pop()
            if not left:
                return None
            continue
        i, j = pairs[depth]
        box[i][j] = label
        box[j][i] = _CONV_MASK[label]
        domain = opened[depth][:]
        for d, k in narrowed[depth]:
            domain[d] &= _ALLOWED[box[i][k]][label]
            if not domain[d]:
                break
        else:
            if depth + 1 == len(pairs):
                break
            opened.append(domain)
            left.append(iter(sorted(_LABELS_OF[domain[depth + 1]], key=by_cost[depth + 1])))
    else:
        return None
    for d, (i, j) in enumerate(pairs):
        wider = _widenings(box, domains, i, j)
        if wider:
            label = min(_LABELS_OF[wider], key=by_cost[d])
            box[i][j] = label
            box[j][i] = _CONV_MASK[label]
    return box


def _improved(box: list[list[int]], domains: list[list[int]], cost: Sequence[Sequence[int]]) -> list[list[int]]:
    """The maximal box `box`, made cheaper by large-neighbourhood search.

    A window search frees the pairs that touch `_WINDOW` concepts, holds
    every other pair to its label in `box` and runs `_search` below the
    box's cost, judging each leaf's maximality against the full
    `domains`; its cheapest leaf replaces the box.  The windows are
    {s + t·k mod n : t < `_WINDOW`} for every start s, in sweeps of step
    k = 1, 2, 3, and a sweep without gain ends the search.  With n ≤
    `_WINDOW` + 1 a window frees every pair, so none runs.
    """
    size = len(domains)
    if size <= _WINDOW + 1:
        return box
    spent = _box_cost(box, cost)
    for step in (1, 2, 3):
        gained = False
        for start in range(size):
            window = {(start + t * step) % size for t in range(_WINDOW)}
            free = [
                [domains[a][b] if a in window or b in window else 1 << label for b, label in enumerate(row)]
                for a, row in enumerate(box)
            ]
            cheaper = deque(_search(free, cost, spent, domains), maxlen=1)
            if cheaper:
                box = cheaper[0]
                spent = _box_cost(box, cost)
                gained = True
        if not gained:
            break
    return box


def _cheapest_scenario(network: QCN, cost: Sequence[Sequence[int]]) -> Scenario | None:
    """The first cheapest maximal scenario of `network` in `QCN.sort_key`
    order, or None when there is no scenario.

    `cost` holds one row per pair in `_canonical_cells` order, each label
    mask's cost in the pair's canonical orientation.  The search fixes
    the cells (i, j), i < j, in order; one whose canonical cell is (j, i)
    reads that row turned.  `_seed_box` and `_improved` find a cheap
    maximal box first, and the search runs below its cost plus one: the
    box is a leaf there, so the first cheapest leaf is still found.
    """
    canonical = dict(zip(_canonical_cells(network.variables), cost))
    pairs = combinations(range(len(network.variables)), 2)
    rows = [canonical[p] if p in canonical else _TURN(canonical[p[::-1]]) for p in pairs]
    domains = _box_domains(network)
    limit = math.inf
    seed = _seed_box(domains, rows)
    if seed is not None:
        limit = _box_cost(_improved(seed, domains, rows), rows) + 1
    for box in deque(_search(domains, rows, limit), maxlen=1):
        return Scenario._from_matrix(network, box)
    return None


def enumerate_scenarios(n: QCN) -> list[Scenario]:
    """All maximal quasi-atomic scenarios of `n`, sorted by `QCN.sort_key`:
    every leaf of `_search` over the closed constraints, at no cost."""
    return [Scenario._from_matrix(n, box) for box in _search(_box_domains(n))]


class MaximalScenarios(Sequence):
    """The maximal quasi-atomic scenarios of a network, as a read-only sequence.

    Their number can grow exponentially with the variables, so
    `enumerate_scenarios` lists them only when the sequence is iterated,
    indexed or counted, and only once: the listing is a cached property.
    Membership is decided without a listing: a network is a member when
    it has the network's variables, its labels form a valid box inside
    the closed constraints and that box is maximal there (`_search` over
    its own labels, judged against the closed constraints, reaches it).
    """

    def __init__(self, network: QCN) -> None:
        self._network = network

    @cached_property
    def _listed(self) -> list[Scenario]:
        return enumerate_scenarios(self._network)

    def __len__(self) -> int:
        return len(self._listed)

    def __getitem__(self, index):
        return self._listed[index]

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._listed)

    def __contains__(self, s: object) -> bool:
        if not isinstance(s, QCN) or s.variables != self._network.variables:
            return False
        domains, m = _box_domains(self._network), s._matrix
        # `s` is a maximal valid box when the search over its own labels,
        # judging maximality against the closed constraints, reaches it
        own = [[d & 1 << label for d, label in zip(*rows)] for rows in zip(domains, m)]
        return next(_search(own, maximal_in=domains), None) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaximalScenarios):
            return NotImplemented
        return self._network == other._network

    def __hash__(self) -> int:
        return hash(self._network)


def qcn_to_json(qcn: QCN) -> str:
    import json

    return json.dumps(qcn.to_json_dict(), indent=2, sort_keys=True) + "\n"


def qcn_from_json(text: str) -> QCN:
    import json

    return QCN.from_json_dict(json.loads(text))


def qcn_to_dot(qcn: QCN, name: str = "qcn") -> str:
    """Graphviz rendering; fully unconstrained pairs are not drawn."""
    lines = [f"graph {name} {{"]
    for var in qcn.variables:
        lines.append(f'  "{var}";')
    for u, v, rel in qcn.items():
        if u > v:
            u, v, rel = v, u, rel.converse
        lines.append(f'  "{u}" -- "{v}" [label="{rel!r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
