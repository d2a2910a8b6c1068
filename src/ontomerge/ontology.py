"""Lightweight terminological knowledge bases in strict normal form.

An ontology is a TBox of axioms drawn from exactly four shapes --
``A <= B``, ``A & B <= bot``, ``A <= some r.B``, ``some r.A <= B`` with
atomic names -- plus an ABox of concept and role assertions.  This module
provides the data model, a line-oriented text parser, JSON export,
classification (saturation of atomic subsumptions and disjointness),
and deductive closure of the ABox.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "OntologyError",
    "OntologySyntaxError",
    "NotNormalFormError",
    "NameClashError",
    "UnsatisfiableConceptError",
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
    "closed_abox_to_json",
    "classify",
    "deductive_closure",
]


class OntologyError(Exception):
    """Base class for input-level ontology failures."""


class OntologySyntaxError(OntologyError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NotNormalFormError(OntologyError):
    """An axiom outside the four strict-normal-form shapes."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class NameClashError(OntologyError):
    """One name used in two of the concept/role/individual namespaces."""

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class UnsatisfiableConceptError(OntologyError):
    """Classification derived that a concept must be empty."""

    def __init__(self, concept: str) -> None:
        super().__init__(f"concept {concept!r} is unsatisfiable")
        self.concept = concept


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

    @property
    def concepts(self) -> frozenset[str]:
        return frozenset((self.first, self.second))


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


Axiom = Union[Subsumption, Disjointness, ExistsRight, ExistsLeft]


@dataclass(frozen=True)
class ConceptAssertion:
    concept: str
    individual: str


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    object: str


Assertion = Union[ConceptAssertion, RoleAssertion]
Statement = Union[Subsumption, Disjointness, ExistsRight, ExistsLeft, ConceptAssertion, RoleAssertion]


@dataclass(frozen=True)
class _Kind:
    """How one statement class is written, read, named and exported."""

    pattern: tuple[str, ...]
    fields: tuple[tuple[str, str], ...]
    template: str
    tag: str
    values: Callable[[Statement], tuple[str, ...]] = field(init=False)
    getters: tuple[tuple[Callable[[Statement], str], str], ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", attrgetter(*(name for name, _ in self.fields)))
        object.__setattr__(self, "getters", tuple((attrgetter(f), ns) for f, ns in self.fields))


#: One row per statement class, in canonical order: token pattern, fields
#: with their namespaces, text template and JSON tag.  The NAME tokens of
#: each pattern carry the fields in declaration order, so ``cls(*names)``
#: builds the statement, and the fields in that order are its sort key.
_KINDS: dict[type, _Kind] = {
    Subsumption: _Kind(
        ("NAME", "LE", "NAME"),
        (("sub", "concept"), ("sup", "concept")),
        "{} <= {}",
        "subsumption",
    ),
    Disjointness: _Kind(
        ("NAME", "AMP", "NAME", "LE", "BOT"),
        (("first", "concept"), ("second", "concept")),
        "{} & {} <= bot",
        "disjointness",
    ),
    ExistsRight: _Kind(
        ("NAME", "LE", "SOME", "NAME", "DOT", "NAME"),
        (("sub", "concept"), ("role", "role"), ("filler", "concept")),
        "{} <= some {}.{}",
        "exists_right",
    ),
    ExistsLeft: _Kind(
        ("SOME", "NAME", "DOT", "NAME", "LE", "NAME"),
        (("role", "role"), ("filler", "concept"), ("sup", "concept")),
        "some {}.{} <= {}",
        "exists_left",
    ),
    ConceptAssertion: _Kind(
        ("NAME", "LPAR", "NAME", "RPAR"),
        (("concept", "concept"), ("individual", "individual")),
        "{}({})",
        "concept",
    ),
    RoleAssertion: _Kind(
        ("NAME", "LPAR", "NAME", "COMMA", "NAME", "RPAR"),
        (("role", "role"), ("subject", "individual"), ("object", "individual")),
        "{}({},{})",
        "role",
    ),
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
    for cls, group in groups.items():
        if cls not in _KINDS:
            raise TypeError(f"not a statement: {group[0]!r}")
    return groups


def _names_by_namespace(groups: Mapping[type, list[Statement]]) -> dict[str, set[str]]:
    names: dict[str, set[str]] = {"concept": set(), "role": set(), "individual": set()}
    for cls, group in groups.items():
        for get, namespace in _KINDS[cls].getters:
            names[namespace].update(map(get, group))
    return names


def sorted_statements(statements: Iterable[Statement]) -> list[Statement]:
    """Canonical order: by kind (the table's order), then by fields."""
    groups = _by_class(statements)
    out: list[Statement] = []
    for cls, kind in _KINDS.items():
        out += sorted(groups.get(cls, ()), key=kind.values)
    return out


def _statement_names(stmt: Statement) -> list[tuple[str, str]]:
    """(name, namespace) occurrences of a statement, in written order."""
    return [(get(stmt), namespace) for get, namespace in _kind(stmt).getters]


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
        order = {"concept": list(concepts), "role": list(roles), "individual": list(individuals)}
        seen = {kind: set(names) for kind, names in order.items()}
        tbox: set[Axiom] = set()
        abox: set[Assertion] = set()
        for stmt in statements:
            for name, kind in _statement_names(stmt):
                clash = next((k for k, names in seen.items() if k != kind and name in names), None)
                if clash is not None:
                    raise NameClashError(f"name {name!r} used as both {clash} and {kind}")
                if name not in seen[kind]:
                    seen[kind].add(name)
                    order[kind].append(name)
            if isinstance(stmt, (ConceptAssertion, RoleAssertion)):
                abox.add(stmt)
            else:
                tbox.add(stmt)
        return cls(
            tbox=frozenset(tbox),
            abox=frozenset(abox),
            concepts=tuple(order["concept"]),
            roles=tuple(order["role"]),
            individuals=tuple(order["individual"]),
        )

    def statements(self) -> list[Statement]:
        """All statements in canonical (kind, names) order."""
        return sorted_statements(chain(self.tbox, self.abox))


# --- text grammar -----------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_RESERVED = {"some": "SOME", "bot": "BOT"}
_PUNCT = {"&": "AMP", "(": "LPAR", ")": "RPAR", ",": "COMMA", ".": "DOT"}

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
            tokens.append(("LE", "<=", pos + 1))
            pos += 2
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, pos + 1))
            pos += 1
            continue
        match = _NAME_RE.match(line, pos)
        if match:
            word = match.group()
            tokens.append((_RESERVED.get(word, "NAME"), word, pos + 1))
            pos = match.end()
            continue
        raise OntologySyntaxError(f"unexpected character {ch!r}", line_no, pos + 1)
    return tokens


def _loose_expression(kinds: tuple[str, ...]) -> bool:
    """Whether tokens form a conjunction of atoms/existentials (any arity).

    Used only to distinguish "axiom outside the four normal forms" from
    plain syntax garbage.
    """
    pos = 0

    def term() -> bool:
        nonlocal pos
        while pos < len(kinds) and kinds[pos] == "SOME":
            if pos + 2 >= len(kinds) or kinds[pos + 1] != "NAME" or kinds[pos + 2] != "DOT":
                return False
            pos += 3
        if pos < len(kinds) and kinds[pos] in ("NAME", "BOT"):
            pos += 1
            return True
        return False

    if not term():
        return False
    while pos < len(kinds):
        if kinds[pos] != "AMP":
            return False
        pos += 1
        if not term():
            return False
    return True


def _match_statement(tokens: list[tuple[str, str, int]], line_no: int, line: str) -> Statement:
    kinds = tuple(kind for kind, _, _ in tokens)
    cls = _CLASS_OF_PATTERN.get(kinds)
    if cls is not None:
        return cls(*(text for kind, text, _ in tokens if kind == "NAME"))
    if kinds.count("LE") == 1:
        split = kinds.index("LE")
        if _loose_expression(kinds[:split]) and _loose_expression(kinds[split + 1 :]):
            raise NotNormalFormError(
                f"axiom is not in strict normal form: {line.strip()!r}", line_no
            )
    best = 0
    for pattern in _CLASS_OF_PATTERN:
        k = 0
        while k < len(kinds) and k < len(pattern) and kinds[k] == pattern[k]:
            k += 1
        best = max(best, k)
    if best < len(tokens):
        _, text, column = tokens[best]
        raise OntologySyntaxError(f"unexpected token {text!r}", line_no, column)
    raise OntologySyntaxError("incomplete statement", line_no, len(line.rstrip()) + 1)


def parse_ontology(text: str) -> Ontology:
    """Parse the line-oriented grammar; infer the signature from use.

    Raises OntologySyntaxError / NotNormalFormError / NameClashError with
    the offending line.
    """
    order: dict[str, list[str]] = {"concept": [], "role": [], "individual": []}
    kind_of: dict[str, str] = {}
    tbox: set[Axiom] = set()
    abox: set[Assertion] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, line_no)
        if not tokens:
            continue
        stmt = _match_statement(tokens, line_no, line)
        for name, kind in _statement_names(stmt):
            previous = kind_of.get(name)
            if previous is None:
                kind_of[name] = kind
                order[kind].append(name)
            elif previous != kind:
                raise NameClashError(
                    f"name {name!r} already used as a {previous}, here as a {kind}", line_no
                )
        if isinstance(stmt, (ConceptAssertion, RoleAssertion)):
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


def format_statement(stmt: Statement) -> str:
    kind = _kind(stmt)
    return kind.template.format(*kind.values(stmt))


def format_ontology(o: Ontology) -> str:
    """Render back into the text grammar, statements in canonical order."""
    return "\n".join(format_statement(stmt) for stmt in o.statements()) + "\n"


def _statement_json(stmt: Statement) -> dict:
    kind = _kind(stmt)
    data = {name: value for (name, _), value in zip(kind.fields, kind.values(stmt))}
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


@dataclass(frozen=True)
class Classification:
    """Entailed atomic facts of a TBox.

    `subsumptions` includes the reflexive ones; `disjointness` is the
    asserted set closed downward under subsumption (self-disjointness is
    reported through `unsatisfiable` instead of as an axiom).
    """

    subsumptions: frozenset[Subsumption]
    disjointness: frozenset[Disjointness]
    unsatisfiable: frozenset[str]

    @property
    def axioms(self) -> frozenset[Axiom]:
        return self.subsumptions | self.disjointness

    def supers_of(self, concept: str) -> frozenset[str]:
        return frozenset(s.sup for s in self.subsumptions if s.sub == concept)

    def entails_subsumption(self, sub: str, sup: str) -> bool:
        return Subsumption(sub, sup) in self.subsumptions

    def entails_disjointness(self, a: str, b: str) -> bool:
        return Disjointness(a, b) in self.disjointness

    def to_json_dict(self) -> dict:
        return {
            "subsumptions": sorted([s.sub, s.sup] for s in self.subsumptions),
            "disjointness": sorted([d.first, d.second] for d in self.disjointness),
            "unsatisfiable": sorted(self.unsatisfiable),
        }


def classify(
    tbox: Iterable[Axiom],
    concepts: Iterable[str] = (),
    strict: bool = False,
) -> Classification:
    """Saturate a strict-normal-form TBox into its atomic consequences.

    Rules: reflexivity, transitive subsumption, propagation through
    existential axioms (A <= some r.B, B <= B', some r.B' <= C entail
    A <= C, also along entailed chains), downward propagation of
    disjointness, and detection of unsatisfiable concepts, including
    through existential successors.  With strict=True an unsatisfiable
    concept raises UnsatisfiableConceptError; otherwise it is reported in
    the result and the caller decides.
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

    pairs: set[frozenset[str]] = {d.concepts for d in disj}
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

    if strict and unsatisfiable:
        raise UnsatisfiableConceptError(min(unsatisfiable))

    return Classification(
        subsumptions=frozenset(
            Subsumption(a, b) for a in names for b in supers[a]
        ),
        disjointness=frozenset(
            Disjointness(x, y) for pair in pairs if len(pair) == 2 for x, y in [sorted(pair)]
        ),
        unsatisfiable=frozenset(unsatisfiable),
    )


# --- deductive closure ------------------------------------------------------


@dataclass(frozen=True)
class ClosedABox:
    """The ABox saturated against its TBox.

    `facts` is the least fixpoint of the instance rules (asserted facts,
    subsumption propagation, existential-left firing on asserted role
    edges); `roles` are the asserted role assertions, never derived.
    Individuals asserted into provably disjoint concepts are recorded,
    not raised: conflicting sources are expected input.
    """

    facts: frozenset[ConceptAssertion]
    roles: frozenset[RoleAssertion]
    inconsistent_individuals: frozenset[str]

    def holds(self, concept: str, individual: str) -> bool:
        return ConceptAssertion(concept, individual) in self.facts

    def instances_of(self, concept: str) -> frozenset[str]:
        return frozenset(f.individual for f in self.facts if f.concept == concept)

    def concepts_of(self, individual: str) -> frozenset[str]:
        return frozenset(f.concept for f in self.facts if f.individual == individual)

    def individuals(self) -> frozenset[str]:
        out = {f.individual for f in self.facts}
        for r in self.roles:
            out.add(r.subject)
            out.add(r.object)
        return frozenset(out)

    def to_json_dict(self) -> dict:
        return {
            "facts": [_statement_json(f) for f in sorted_statements(self.facts)],
            "roles": [_statement_json(r) for r in sorted_statements(self.roles)],
            "inconsistent_individuals": sorted(self.inconsistent_individuals),
        }


def closed_abox_to_json(closed: ClosedABox) -> str:
    return json.dumps(closed.to_json_dict(), indent=2, sort_keys=True) + "\n"


def deductive_closure(o: Ontology, classification: Classification | None = None) -> ClosedABox:
    """All entailed concept memberships of the named individuals."""
    cls = classification if classification is not None else classify(o.tbox, concepts=o.concepts)
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

    return ClosedABox(
        facts=frozenset(facts),
        roles=frozenset(assertions[RoleAssertion]),
        inconsistent_individuals=frozenset(inconsistent),
    )

