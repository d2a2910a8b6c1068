"""RCC-5 relation algebra and qualitative constraint network reasoning.

The five base relations compare two non-empty sets ("regions"): DR
(disjoint), PO (partial overlap), PP (proper part), PPi (proper part
inverse) and EQ (equal).  Exactly one base relation holds between any two
regions.  A constraint is a set of base relations, read disjunctively; a
qualitative constraint network (QCN) assigns a constraint to every pair of
variables, keeping the two orientations of a pair converse-coherent.

Reasoning services: weak composition, algebraic closure (path
consistency), consistency by backtracking until every open label contains
PO, and enumeration of maximal quasi-atomic scenarios by one box search
checked triangle by triangle, also as a view that lists them only on
demand and decides membership without a listing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import chain, combinations
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


def _box_domains(n: QCN) -> list[list[int]] | None:
    """The scenario labels inside each closed constraint of `n`, a label
    set per matrix cell; None when the closure empties a constraint."""
    m = [row[:] for row in n._matrix]
    if not _close(m, len(m)):
        return None
    return [[_FITS[mask] for mask in row] for row in m]


def _is_maximal(box: list[list[int]], domains: list[list[int]]) -> bool:
    """Whether the valid box `box` is maximal among the boxes inside `domains`.

    Validity is closed under shrinking, so a valid box is maximal when no
    single label widens validly (PP or EQ to {PP,EQ}, PPi or EQ to
    {PPi,EQ}): each pair's widenings inside its domain are one label
    set, narrowed by `_ALLOWED` over the pair's triangles until it
    empties.  `box` holds both orientations, so any third k can be the
    apex of the triangle (k, i, j).
    """
    rows = list(enumerate(box))
    for i, row_i in rows:
        for j in range(i + 1, len(rows)):
            wider = domains[i][j] & _WIDEN[row_i[j]]
            if not wider:
                continue
            for k, row in rows:
                if k != i and k != j:
                    wider &= _ALLOWED[row[i]][row[j]]
                    if not wider:
                        break
            else:
                return False
    return True


def enumerate_scenarios(n: QCN) -> list[Scenario]:
    """All maximal quasi-atomic scenarios of `n`, sorted by `QCN.sort_key`.

    A box gives each pair a scenario label.  Path consistency decides
    atomic networks, so a box is valid (every atomic refinement inside
    it is consistent) when its labels lie in the closed constraints and
    `_ALLOWED` passes every triangle.  A depth-first search fixes the
    pairs column by column, and fixing (i, j) completes the triangles
    (k, i, j) with k < i.  Each valid leaf is kept when `_is_maximal`.
    """
    fits = _box_domains(n)
    if fits is None:
        return []
    size = len(fits)
    labels = [row[:] for row in n._matrix]
    pairs = [(i, j) for j in range(size) for i in range(j)]
    options: list[int | None] = [None] * len(pairs)  # labels left to try, per depth
    scenarios = []
    depth = 0
    while depth >= 0:
        if depth == len(pairs):
            if _is_maximal(labels, fits):
                scenarios.append(Scenario._from_matrix(n, [row[:] for row in labels]))
            depth -= 1
            continue
        i, j = pairs[depth]
        left = options[depth]
        if left is None:
            left = fits[i][j]
            for k in range(i):
                left &= _ALLOWED[labels[k][i]][labels[k][j]]
        if not left:
            options[depth] = None
            depth -= 1
            continue
        options[depth] = left & (left - 1)
        _put(labels, i, j, (left & -left).bit_length() - 1)
        depth += 1
    scenarios.sort(key=QCN.sort_key)
    return scenarios


class MaximalScenarios(Sequence):
    """The maximal quasi-atomic scenarios of a network, as a read-only sequence.

    Their number can grow exponentially with the variables, so
    `enumerate_scenarios` lists them only when the sequence is iterated,
    indexed or counted, and only once.  Membership is decided without a
    listing: a network is a member when it has the network's variables,
    its labels form a valid box inside the closed constraints (every
    triangle passes `_ALLOWED`) and that box is maximal.
    """

    __slots__ = ("_network", "_domains", "_listed")

    def __init__(self, network: QCN) -> None:
        self._network = network
        self._domains: list[list[int]] | None = None
        self._listed: list[Scenario] | None = None

    def _scenarios(self) -> list[Scenario]:
        if self._listed is None:
            self._listed = enumerate_scenarios(self._network)
        return self._listed

    def __len__(self) -> int:
        return len(self._scenarios())

    def __getitem__(self, index):
        return self._scenarios()[index]

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios())

    def __contains__(self, s: object) -> bool:
        if not isinstance(s, QCN) or s.variables != self._network.variables:
            return False
        if self._domains is None:
            # a closure that empties a constraint leaves no label to fit
            size = len(s.variables)
            self._domains = _box_domains(self._network) or [[0] * size] * size
        domains, m = self._domains, s._matrix
        for j in range(len(m)):
            for i in range(j):
                label = m[i][j]
                if not domains[i][j] >> label & 1:
                    return False
                for k in range(i):
                    if not _ALLOWED[m[k][i]][m[k][j]] >> label & 1:
                        return False
        return _is_maximal(m, domains)

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
