"""Lightweight terminological knowledge bases in strict normal form.

An ontology is a TBox of axioms drawn from exactly four shapes --
``A <= B``, ``A & B <= bot``, ``A <= some r.B``, ``some r.A <= B`` with
atomic names -- plus an ABox of concept and role assertions.  This module
provides the data model, a line-oriented text parser, JSON export,
classification (entailed atomic subsumptions and disjointness) and the
deductive closure of the ABox.  Both run one saturation over named
nodes; the closure adds each individual as a node, reading ``C(i)`` as
``i <= C`` and ``r(i, j)`` as ``i <= some r.j`` (nominals, as in EL++).
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter
from os.path import commonprefix
from typing import Callable, Collection, Iterable, Iterator, Mapping

__all__ = [
    "OntologyError",
    "OntologySyntaxError",
    "NotNormalFormError",
    "NameClashError",
    "Subsumption",
    "Disjointness",
    "ExistsRight",
    "ExistsLeft",
    "Axiom",
    "ConceptAssertion",
    "RoleAssertion",
    "Assertion",
    "Statement",
    "Ontology",
    "Classification",
    "ClosedABox",
    "parse_ontology",
    "format_statement",
    "format_ontology",
    "ontology_to_json",
    "classify",
    "deductive_closure",
]


class OntologyError(Exception):
    """Base class for input-level ontology failures, located by line and column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        if line is not None:
            message = f"line {line}{'' if column is None else f', column {column}'}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class OntologySyntaxError(OntologyError):
    """A line the text grammar cannot read."""


class NotNormalFormError(OntologyError):
    """An axiom outside the four strict-normal-form shapes."""


class NameClashError(OntologyError):
    """One name used in two of the concept/role/individual namespaces."""


@dataclass(frozen=True)
class Subsumption:
    sub: str
    sup: str


@dataclass(frozen=True)
class Disjointness:
    """Disjointness of two concepts; the order of arguments is immaterial."""

    first: str
    second: str

    def __post_init__(self) -> None:
        if self.second < self.first:
            a, b = self.second, self.first
            object.__setattr__(self, "first", a)
            object.__setattr__(self, "second", b)


@dataclass(frozen=True)
class ExistsRight:
    """sub is subsumed by (some role.filler)."""

    sub: str
    role: str
    filler: str


@dataclass(frozen=True)
class ExistsLeft:
    """(some role.filler) is subsumed by sup."""

    role: str
    filler: str
    sup: str


Axiom = Subsumption | Disjointness | ExistsRight | ExistsLeft


@dataclass(frozen=True)
class ConceptAssertion:
    concept: str
    individual: str


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    object: str


Assertion = ConceptAssertion | RoleAssertion
Statement = Axiom | Assertion


@dataclass(frozen=True)
class _Kind:
    """How one statement class is written, read, named and exported.

    The field names come from the dataclass, and `namespaces` follows them.
    """

    cls: type
    pattern: str
    namespaces: tuple[str, ...]
    template: str
    tag: str
    field_names: tuple[str, ...] = field(init=False)
    values: Callable[[Statement], tuple[str, ...]] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "field_names", tuple(f.name for f in fields(self.cls)))
        object.__setattr__(self, "values", attrgetter(*self.field_names))

    def names(self, stmt: Statement) -> Iterator[tuple[str, str]]:
        """(name, namespace) of each field of `stmt`, in written order."""
        return zip(self.values(stmt), self.namespaces)


#: One row per statement class, in canonical order: class, token pattern,
#: namespace of each field, text template and JSON tag.  The name tokens
#: (``n``, see `_tokenize`) of each pattern carry the fields in declaration
#: order, so ``cls(*names)`` builds the statement, and they sort it.
_KINDS: dict[type, _Kind] = {
    kind.cls: kind
    for kind in (
        _Kind(Subsumption, "n<n", ("concept", "concept"), "{} <= {}", "subsumption"),
        _Kind(Disjointness, "n&n<b", ("concept", "concept"), "{} & {} <= bot", "disjointness"),
        _Kind(ExistsRight, "n<sn.n", ("concept", "role", "concept"), "{} <= some {}.{}", "exists_right"),
        _Kind(ExistsLeft, "sn.n<n", ("role", "concept", "concept"), "some {}.{} <= {}", "exists_left"),
        _Kind(ConceptAssertion, "n(n)", ("concept", "individual"), "{}({})", "concept"),
        _Kind(RoleAssertion, "n(n,n)", ("role", "individual", "individual"), "{}({},{})", "role"),
    )
}
_CLASS_OF_PATTERN = {kind.pattern: cls for cls, kind in _KINDS.items()}


def _kind(stmt: Statement) -> _Kind:
    try:
        return _KINDS[type(stmt)]
    except KeyError:
        raise TypeError(f"not a statement: {stmt!r}") from None


def _by_class(statements: Iterable[Statement]) -> defaultdict[type, list[Statement]]:
    groups: defaultdict[type, list[Statement]] = defaultdict(list)
    for stmt in statements:
        groups[type(stmt)].append(stmt)
    for group in groups.values():
        _kind(group[0])  # a TypeError unless the group holds statements
    return groups


def _names_by_namespace(groups: Mapping[type, list[Statement]]) -> dict[str, set[str]]:
    names: dict[str, set[str]] = {"concept": set(), "role": set(), "individual": set()}
    for cls, group in groups.items():
        for name, namespace in chain.from_iterable(map(_KINDS[cls].names, group)):
            names[namespace].add(name)
    return names


def sorted_statements(statements: Iterable[Statement]) -> list[Statement]:
    """Canonical order: by kind (the table's order), then by fields."""
    groups = _by_class(statements)
    out: list[Statement] = []
    for cls, kind in _KINDS.items():
        out += sorted(groups.get(cls, ()), key=kind.values)
    return out


@dataclass(frozen=True)
class Ontology:
    """A TBox/ABox pair with its signature in first-occurrence order."""

    tbox: frozenset[Axiom]
    abox: frozenset[Assertion]
    concepts: tuple[str, ...]
    roles: tuple[str, ...]
    individuals: tuple[str, ...]

    def __post_init__(self) -> None:
        by_kind = {
            "concept": set(self.concepts),
            "role": set(self.roles),
            "individual": set(self.individuals),
        }
        if by_kind["concept"] & by_kind["role"] or by_kind["concept"] & by_kind[
            "individual"
        ] or by_kind["role"] & by_kind["individual"]:
            raise NameClashError("concept, role and individual names must be disjoint")
        used = _names_by_namespace(_by_class(chain(self.tbox, self.abox)))
        for kind, names in used.items():
            if not names <= by_kind[kind]:
                raise ValueError(f"{kind} {min(names - by_kind[kind])!r} missing from the signature")

    @classmethod
    def from_statements(
        cls,
        statements: Iterable[Statement],
        concepts: Iterable[str] = (),
        roles: Iterable[str] = (),
        individuals: Iterable[str] = (),
    ) -> "Ontology":
        return _collect(((None, stmt) for stmt in statements), concepts, roles, individuals)

    def statements(self) -> list[Statement]:
        """All statements in canonical (kind, names) order."""
        return sorted_statements(chain(self.tbox, self.abox))


def _collect(
    numbered: Iterable[tuple[int | None, Statement]],
    concepts: Iterable[str] = (),
    roles: Iterable[str] = (),
    individuals: Iterable[str] = (),
) -> Ontology:
    """An ontology of (line number, statement) pairs; the line may be None.

    The signature is the given names of each namespace followed by the
    names the statements use, in first-occurrence order.  A name used in
    a second namespace is a NameClashError naming the statement's line.
    """
    order = {"concept": list(concepts), "role": list(roles), "individual": list(individuals)}
    kind_of: dict[str, str] = {}
    for kind, names in order.items():
        for name in names:
            kind_of.setdefault(name, kind)
    tbox: set[Axiom] = set()
    abox: set[Assertion] = set()
    for line_no, stmt in numbered:
        for name, kind in _kind(stmt).names(stmt):
            previous = kind_of.get(name)
            if previous is None:
                kind_of[name] = kind
                order[kind].append(name)
            elif previous != kind:
                was, now = (("an " if k[0] in "aeiou" else "a ") + k for k in (previous, kind))
                raise NameClashError(f"name {name!r} already used as {was}, here as {now}", line_no)
        if isinstance(stmt, Assertion):
            abox.add(stmt)
        else:
            tbox.add(stmt)
    return Ontology(
        tbox=frozenset(tbox),
        abox=frozenset(abox),
        concepts=tuple(order["concept"]),
        roles=tuple(order["role"]),
        individuals=tuple(order["individual"]),
    )


# --- text grammar -----------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
#: Token kinds are one character: ``n`` a name, ``s`` some, ``b`` bot,
#: ``<`` for ``<=``, and each punctuation mark stands for itself.
_RESERVED = {"some": "s", "bot": "b"}
_PUNCT = "&(),."
#: A conjunction of names, ``bot`` and existentials, of any arity and depth.
_LOOSE_SIDE = re.compile(r"(sn\.)*[nb](&(sn\.)*[nb])*")
#: Only these end a line, in ontology and profile files; `str.splitlines`
#: also splits on ``\f``, ``\u2028`` and more.
_LINE_BREAK = re.compile(r"\r\n?|\n")


def _line_expression() -> tuple[re.Pattern[str], dict[int, tuple[type, tuple[int, ...]]]]:
    """A whole-line regular expression, one named alternative per `_KINDS` pattern.

    It accepts exactly the lines `_tokenize` and `_match_statement` read
    without error; under ``re.ASCII``, ``\\w`` is a name character.  Also
    returns the class and name groups of each alternative, by its group index.
    """
    blank = "[ \t]*"
    token = {"n": rf"((?!(?:{'|'.join(_RESERVED)})\b)\w+)", "<": "<="}
    token.update((kind, word + r"\b") for word, kind in _RESERVED.items())
    alternatives = "|".join(
        f"(?P<{cls.__name__}>{blank.join(token.get(t, re.escape(t)) for t in kind.pattern)})"
        for cls, kind in _KINDS.items()
    )
    expression = re.compile(f"{blank}(?:{alternatives})?{blank}(?:#.*)?", re.ASCII)
    groups = {}
    for cls, kind in _KINDS.items():
        first = expression.groupindex[cls.__name__] + 1
        groups[first - 1] = (cls, tuple(range(first, first + kind.pattern.count("n"))))
    return expression, groups


_LINE_RE, _LINE_GROUPS = _line_expression()


def is_name(word: str) -> bool:
    """Whether the text grammar reads `word` as one name."""
    return _NAME_RE.fullmatch(word) is not None and word not in _RESERVED


def _tokenize(line: str, line_no: int) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(line):
        ch = line[pos]
        if ch in " \t":
            pos += 1
            continue
        if ch == "#":
            break
        if line.startswith("<=", pos):
            tokens.append(("<", "<=", pos + 1))
            pos += 2
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, pos + 1))
            pos += 1
            continue
        match = _NAME_RE.match(line, pos)
        if match:
            word = match.group()
            tokens.append((_RESERVED.get(word, "n"), word, pos + 1))
            pos = match.end()
            continue
        raise OntologySyntaxError(f"unexpected character {ch!r}", line_no, pos + 1)
    return tokens


def _match_statement(tokens: list[tuple[str, str, int]], line_no: int, line: str) -> Statement:
    kinds = "".join(kind for kind, _, _ in tokens)
    cls = _CLASS_OF_PATTERN.get(kinds)
    if cls is not None:
        return cls(*(text for kind, text, _ in tokens if kind == "n"))
    # a well-formed axiom outside the normal forms, not syntax garbage
    if kinds.count("<") == 1 and all(map(_LOOSE_SIDE.fullmatch, kinds.split("<"))):
        raise NotNormalFormError(
            f"axiom is not in strict normal form: {line.strip()!r}", line_no
        )
    best = max(len(commonprefix((kinds, pattern))) for pattern in _CLASS_OF_PATTERN)
    if best < len(tokens):
        _, text, column = tokens[best]
        raise OntologySyntaxError(f"unexpected token {text!r}", line_no, column)
    _, text, column = tokens[-1]
    raise OntologySyntaxError("incomplete statement", line_no, column + len(text))


def parse_ontology(text: str) -> Ontology:
    """Parse the line-oriented grammar; infer the signature from use.

    Raises OntologySyntaxError / NotNormalFormError / NameClashError with
    the offending line.
    """
    return _collect(_numbered_statements(text))


def _numbered_statements(text: str) -> Iterator[tuple[int, Statement]]:
    """Each line in one match of `_LINE_RE`; the tokenizer locates the errors."""
    for line_no, line in enumerate(_LINE_BREAK.split(text), start=1):
        match = _LINE_RE.fullmatch(line)
        if match is None:
            tokens = _tokenize(line, line_no)
            if tokens:
                yield line_no, _match_statement(tokens, line_no, line)
        elif match.lastindex:
            cls, groups = _LINE_GROUPS[match.lastindex]
            yield line_no, cls(*match.group(*groups))


def format_statement(stmt: Statement) -> str:
    kind = _kind(stmt)
    return kind.template.format(*kind.values(stmt))


def format_ontology(o: Ontology) -> str:
    """Render back into the text grammar, statements in canonical order."""
    return "\n".join(format_statement(stmt) for stmt in o.statements()) + "\n"


def _statement_json(stmt: Statement) -> dict:
    kind = _kind(stmt)
    data = dict(zip(kind.field_names, kind.values(stmt)))
    data["type"] = kind.tag
    return data


def ontology_to_json(o: Ontology) -> str:
    data = {
        "concepts": sorted(o.concepts),
        "roles": sorted(o.roles),
        "individuals": sorted(o.individuals),
        "tbox": [_statement_json(a) for a in sorted_statements(o.tbox)],
        "abox": [_statement_json(a) for a in sorted_statements(o.abox)],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# --- classification ---------------------------------------------------------


_NOTHING: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Classification:
    """Entailed atomic facts of a TBox.

    `supers` maps every classified concept to its supers, itself
    included.  `disjoint` holds each entailed disjoint pair once, as
    ``(a, b)`` with ``a < b``: the asserted disjointness closed downward
    under subsumption (self-disjointness is reported through
    `unsatisfiable` instead).  `subsumptions` and `disjointness` are the
    same facts as statements.
    """

    supers: Mapping[str, frozenset[str]]
    disjoint: frozenset[tuple[str, str]]
    unsatisfiable: frozenset[str]

    @property
    def subsumptions(self) -> frozenset[Subsumption]:
        return frozenset(Subsumption(a, b) for a, found in self.supers.items() for b in found)

    @property
    def disjointness(self) -> frozenset[Disjointness]:
        return frozenset(Disjointness(a, b) for a, b in self.disjoint)

    def supers_of(self, concept: str) -> frozenset[str]:
        return self.supers.get(concept, _NOTHING)

    def entails_subsumption(self, sub: str, sup: str) -> bool:
        return sup in self.supers_of(sub)

    def entails_disjointness(self, a: str, b: str) -> bool:
        return ((a, b) if a <= b else (b, a)) in self.disjoint

    def to_json_dict(self) -> dict:
        return {
            "subsumptions": sorted([a, b] for a, found in self.supers.items() for b in found),
            "disjointness": sorted(map(list, self.disjoint)),
            "unsatisfiable": sorted(self.unsatisfiable),
        }


def _saturate(
    nodes: Iterable[str], axioms: Mapping[type, list[Statement]]
) -> tuple[dict[str, set[str]], dict[str, list[tuple[str, str]]]]:
    """EL completion over named nodes: each node's supers and successor edges.

    `axioms` groups the axioms by class and may use only names in
    `nodes`; each node starts as its own super.  The rules are
    transitive subsumption and propagation through existential axioms
    (A <= some r.B, B <= B', some r.B' <= C entail A <= C, also along
    entailed chains).  The axioms are indexed by their left-hand side,
    and each newly derived ``(node, super)`` fact or successor edge fires
    only the axioms that mention it, so each fact is processed once
    (Baader, Brandt & Lutz, IJCAI 2005).  Returns the supers of every
    node and, for each node B, the (A, r) of every edge A -r-> B.
    """
    told: dict[str, list[str]] = {}  # A <= B, by A
    for axiom in axioms[Subsumption]:
        told.setdefault(axiom.sub, []).append(axiom.sup)
    exists_right: dict[str, list[tuple[str, str]]] = {}  # A <= some r.B, by A
    for axiom in axioms[ExistsRight]:
        exists_right.setdefault(axiom.sub, []).append((axiom.role, axiom.filler))
    exists_left: dict[tuple[str, str], list[str]] = {}  # some r.B <= C, by (r, B)
    for axiom in axioms[ExistsLeft]:
        exists_left.setdefault((axiom.role, axiom.filler), []).append(axiom.sup)

    supers: dict[str, set[str]] = {a: {a} for a in nodes}
    successors: set[tuple[str, str, str]] = set()
    predecessors: dict[str, list[tuple[str, str]]] = {}  # B -> (A, r) per edge A -r-> B
    queue = [(a, a) for a in supers]

    def derive(a: str, x: str) -> None:
        if x not in supers[a]:
            supers[a].add(x)
            queue.append((a, x))

    while queue:
        a, x = queue.pop()
        for y in told.get(x, ()):
            derive(a, y)
        for b, role in predecessors.get(a, ()):
            for y in exists_left.get((role, x), ()):
                derive(b, y)
        for role, filler in exists_right.get(x, ()):
            if (a, role, filler) in successors:
                continue
            successors.add((a, role, filler))
            predecessors.setdefault(filler, []).append((a, role))
            for z in list(supers[filler]):
                for y in exists_left.get((role, z), ()):
                    derive(a, y)
    return supers, predecessors


def _unsatisfiable(
    supers: Mapping[str, Collection[str]],
    predecessors: Mapping[str, list[tuple[str, str]]],
    disjointness: Iterable[Disjointness],
) -> set[str]:
    """The nodes that must be empty.

    A node is unsatisfiable when its supers hold both sides of an
    asserted ``x & y <= bot``.  Every node below an unsatisfiable one has
    its supers, so only successor edges spread unsatisfiability further:
    back from B to the A of every edge A -r-> B.
    """
    against: dict[str, list[str]] = {}
    for d in disjointness:
        against.setdefault(d.first, []).append(d.second)
    if not against:
        return set()
    unsatisfiable = {
        a
        for a, found in supers.items()
        if any(y in found for x in found for y in against.get(x, ()))
    }
    blocked = list(unsatisfiable)
    while blocked:
        for a, _ in predecessors.get(blocked.pop(), ()):
            if a not in unsatisfiable:
                unsatisfiable.add(a)
                blocked.append(a)
    return unsatisfiable


def classify(tbox: Iterable[Axiom], concepts: Iterable[str] = ()) -> Classification:
    """Saturate a strict-normal-form TBox into its atomic consequences.

    `_saturate` gives the reflexive and transitive subsumptions, also
    those entailed through existential axioms; `_unsatisfiable` the
    concepts that must be empty, also through existential successors.
    Disjointness propagates downward: a and b are disjoint when x is a
    super of a and y one of b for an asserted x & y <= bot, and a != b
    (self-disjointness is reported through `unsatisfiable`).
    Unsatisfiable concepts are reported, not raised; the caller decides.
    """
    by_class = _by_class(tbox)
    names = sorted(_names_by_namespace(by_class)["concept"].union(concepts))
    supers, predecessors = _saturate(names, by_class)

    disjoint: set[tuple[str, str]] = set()
    if by_class[Disjointness]:
        subs: dict[str, list[str]] = {}
        for a in names:
            for x in supers[a]:
                subs.setdefault(x, []).append(a)
        for d in by_class[Disjointness]:
            for a in subs[d.first]:
                for b in subs[d.second]:
                    if a != b:
                        disjoint.add((a, b) if a < b else (b, a))

    return Classification(
        supers={a: frozenset(supers[a]) for a in names},
        disjoint=frozenset(disjoint),
        unsatisfiable=frozenset(_unsatisfiable(supers, predecessors, by_class[Disjointness])),
    )


# --- deductive closure ------------------------------------------------------


@dataclass(frozen=True)
class ClosedABox:
    """The ABox saturated against its TBox.

    `members` maps each concept to its individuals, by every entailed
    membership ``C(i)``: the concepts among the supers of the nominal
    ``i`` when the TBox is saturated with the ABox read as axioms (see
    `deductive_closure`).  A concept without members has no entry, and
    `facts` is the same memberships as statements.  `roles` are the
    asserted role assertions, never derived.  Inconsistent individuals
    are recorded, not raised: conflicting sources are expected input.
    """

    members: Mapping[str, frozenset[str]]
    roles: frozenset[RoleAssertion]
    inconsistent_individuals: frozenset[str]

    @property
    def facts(self) -> frozenset[ConceptAssertion]:
        return frozenset(ConceptAssertion(c, i) for c, found in self.members.items() for i in found)

    def instances_of(self, concept: str) -> frozenset[str]:
        return self.members.get(concept, _NOTHING)


def deductive_closure(o: Ontology) -> ClosedABox:
    """All entailed concept memberships of the named individuals.

    The ABox is read through nominals (EL++): each individual i is one
    more node of `_saturate`, ``C(i)`` becomes ``i <= C`` and ``r(i, j)``
    becomes ``i <= some r.j``.  The memberships of i are then its supers
    minus i itself.  An individual is inconsistent when its memberships
    meet an unsatisfiable concept or hold both sides of an asserted
    ``x & y <= bot``; memberships are closed upward, so this is the same
    as meeting a derived disjointness.  Unsatisfiability also spreads
    back along role assertions, so `r(a, b)` with b inconsistent makes
    the node a unsatisfiable, but not the individual a inconsistent.
    """
    assertions = _by_class(o.abox)
    axioms = _by_class(
        chain(
            o.tbox,
            (Subsumption(f.individual, f.concept) for f in assertions[ConceptAssertion]),
            (ExistsRight(r.subject, r.role, r.object) for r in assertions[RoleAssertion]),
        )
    )
    supers, predecessors = _saturate(chain(o.concepts, o.individuals), axioms)
    unsatisfiable = _unsatisfiable(supers, predecessors, axioms[Disjointness])
    by_individual = {i: supers[i] - {i} for i in o.individuals if len(supers[i]) > 1}
    # no edges: only the individuals whose own memberships hold an asserted pair
    clashing = _unsatisfiable(by_individual, {}, axioms[Disjointness])
    inconsistent = {
        i
        for i, concepts in by_individual.items()
        if i in clashing or not concepts.isdisjoint(unsatisfiable)
    }
    members: dict[str, set[str]] = {}
    for i, concepts in by_individual.items():
        for c in concepts:
            members.setdefault(c, set()).add(i)

    return ClosedABox(
        members={c: frozenset(found) for c, found in members.items()},
        roles=frozenset(assertions[RoleAssertion]),
        inconsistent_individuals=frozenset(inconsistent),
    )
