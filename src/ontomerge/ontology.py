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

import re
from collections import defaultdict
from itertools import chain
from operator import itemgetter
from os.path import commonprefix
from typing import Collection, Iterable, Iterator, Mapping

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


class _Record(tuple):
    """A read-only record: the tuple of its field values, in the order of `_fields`.

    It is built from the fields by position or by keyword, and each value
    is also read as the attribute its field names.  Every subclass sets
    ``__slots__ = ()``, so assigning any attribute raises AttributeError.
    Records are equal only within one class, so ``A <= B`` and ``A(B)``
    are two members of a set.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for k, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(k)))

    def __new__(cls, *args: object, **kwargs: object) -> "_Record":
        fields = cls._fields
        if kwargs:  # the fields after the positional ones
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if len(args) != len(fields) or kwargs:
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}, each once")
        return tuple.__new__(cls, args)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


# Each statement class declares, beside its fields, how it is written and
# read: `_pattern` is its token pattern (see `_tokenize`), whose name
# tokens ``n`` carry the fields in order; `_namespaces` the namespace of
# each field; `_template` its text and `_tag` its JSON type.


class Subsumption(_Record):
    __slots__ = ()
    _fields = ("sub", "sup")
    _pattern = "n<n"
    _namespaces = ("concept", "concept")
    _template = "{} <= {}"
    _tag = "subsumption"


class Disjointness(_Record):
    """Disjointness of two concepts; the order of arguments is immaterial."""

    __slots__ = ()
    _fields = ("first", "second")
    _pattern = "n&n<b"
    _namespaces = ("concept", "concept")
    _template = "{} & {} <= bot"
    _tag = "disjointness"

    def __new__(cls, first: str, second: str) -> "Disjointness":
        return tuple.__new__(cls, (second, first) if second < first else (first, second))


class ExistsRight(_Record):
    """sub is subsumed by (some role.filler)."""

    __slots__ = ()
    _fields = ("sub", "role", "filler")
    _pattern = "n<sn.n"
    _namespaces = ("concept", "role", "concept")
    _template = "{} <= some {}.{}"
    _tag = "exists_right"


class ExistsLeft(_Record):
    """(some role.filler) is subsumed by sup."""

    __slots__ = ()
    _fields = ("role", "filler", "sup")
    _pattern = "sn.n<n"
    _namespaces = ("role", "concept", "concept")
    _template = "some {}.{} <= {}"
    _tag = "exists_left"


Axiom = Subsumption | Disjointness | ExistsRight | ExistsLeft


class ConceptAssertion(_Record):
    __slots__ = ()
    _fields = ("concept", "individual")
    _pattern = "n(n)"
    _namespaces = ("concept", "individual")
    _template = "{}({})"
    _tag = "concept"


class RoleAssertion(_Record):
    __slots__ = ()
    _fields = ("role", "subject", "object")
    _pattern = "n(n,n)"
    _namespaces = ("role", "individual", "individual")
    _template = "{}({},{})"
    _tag = "role"


Assertion = ConceptAssertion | RoleAssertion
Statement = Axiom | Assertion

#: The statement classes in canonical order.
_KINDS = (Subsumption, Disjointness, ExistsRight, ExistsLeft, ConceptAssertion, RoleAssertion)
_CLASS_OF_PATTERN = {cls._pattern: cls for cls in _KINDS}


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
        for namespace, column in zip(cls._namespaces, zip(*group)):
            names[namespace].update(column)
    return names


def sorted_statements(statements: Iterable[Statement]) -> list[Statement]:
    """Canonical order: by class (the order of `_KINDS`), then by fields."""
    groups = _by_class(statements)
    out: list[Statement] = []
    for cls in _KINDS:
        out += sorted(groups.get(cls, ()), key=tuple)  # plain tuples compare fastest
    return out


class Ontology(_Record):
    """A TBox/ABox pair with its signature in first-occurrence order."""

    __slots__ = ()
    _fields = ("tbox", "abox", "concepts", "roles", "individuals")
    tbox: frozenset[Axiom]
    abox: frozenset[Assertion]
    concepts: tuple[str, ...]
    roles: tuple[str, ...]
    individuals: tuple[str, ...]

    def __new__(cls, *args: object, **kwargs: object) -> "Ontology":
        self = super().__new__(cls, *args, **kwargs)
        signature = {"concept": self.concepts, "role": self.roles, "individual": self.individuals}
        by_kind = {kind: set(names) for kind, names in signature.items()}
        for kind, names in signature.items():
            if len(by_kind[kind]) != len(names):
                repeated = next(name for k, name in enumerate(names) if name in names[:k])
                raise ValueError(f"{kind} {repeated!r} repeated in the signature")
        if len(set().union(*by_kind.values())) != sum(map(len, by_kind.values())):
            raise NameClashError("concept, role and individual names must be disjoint")
        used = _names_by_namespace(_by_class(chain(self.tbox, self.abox)))
        for kind, names in used.items():
            if not names <= by_kind[kind]:
                raise ValueError(f"{kind} {min(names - by_kind[kind])!r} missing from the signature")
        return self

    @classmethod
    def from_statements(cls, statements: Iterable[Statement], concepts: Iterable[str] = ()) -> "Ontology":
        return _collect(((None, stmt) for stmt in statements), concepts)

    def statements(self) -> list[Statement]:
        """All statements in canonical (kind, names) order."""
        return sorted_statements(chain(self.tbox, self.abox))


def _collect(numbered: Iterable[tuple[int | None, Statement]], concepts: Iterable[str] = ()) -> Ontology:
    """An ontology of (line number, statement) pairs; the line may be None.

    The signature is the given concepts followed by the names the
    statements use, each namespace in first-occurrence order and each
    name once.  A name used in a second namespace is a NameClashError
    naming the statement's line.
    """
    order: dict[str, list[str]] = {"concept": [*dict.fromkeys(concepts)], "role": [], "individual": []}
    kind_of = dict.fromkeys(order["concept"], "concept")
    tbox: set[Axiom] = set()
    abox: set[Assertion] = set()
    for line_no, stmt in numbered:
        for name, kind in zip(stmt, stmt._namespaces):
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
        f"(?P<{cls.__name__}>{blank.join(token.get(t, re.escape(t)) for t in cls._pattern)})"
        for cls in _KINDS
    )
    expression = re.compile(f"{blank}(?:{alternatives})?{blank}(?:#.*)?", re.ASCII)
    groups = {}
    for cls in _KINDS:
        first = expression.groupindex[cls.__name__] + 1
        groups[first - 1] = (cls, tuple(range(first, first + len(cls._fields))))
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
    return stmt._template.format(*stmt)


def format_ontology(o: Ontology) -> str:
    """Render back into the text grammar, statements in canonical order."""
    return "\n".join(format_statement(stmt) for stmt in o.statements()) + "\n"


def _statement_json(stmt: Statement) -> dict:
    return dict(zip(stmt._fields, stmt), type=stmt._tag)


def ontology_to_json(o: Ontology) -> str:
    import json

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


class Classification(_Record):
    """Entailed atomic facts of a TBox.

    `supers` maps every classified concept to its supers, itself
    included.  `disjoint` holds each entailed disjoint pair once, as
    ``(a, b)`` with ``a < b``: the asserted disjointness closed downward
    under subsumption (self-disjointness is reported through
    `unsatisfiable` instead).  `subsumptions` and `disjointness` are the
    same facts as statements.
    """

    __slots__ = ()
    _fields = ("supers", "disjoint", "unsatisfiable")
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
        return sup in self.supers.get(sub, _NOTHING)

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
    for sub, sup in axioms[Subsumption]:
        told.setdefault(sub, []).append(sup)
    exists_right: dict[str, list[tuple[str, str]]] = {}  # A <= some r.B, by A
    for sub, role, filler in axioms[ExistsRight]:
        exists_right.setdefault(sub, []).append((role, filler))
    exists_left: dict[tuple[str, str], list[str]] = {}  # some r.B <= C, by (r, B)
    for role, filler, sup in axioms[ExistsLeft]:
        exists_left.setdefault((role, filler), []).append(sup)

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


def _clashing(supers: Mapping[str, Collection[str]], disjointness: Iterable[Disjointness]) -> set[str]:
    """The nodes whose supers hold both sides of an asserted ``x & y <= bot``."""
    against: dict[str, list[str]] = {}
    for first, second in disjointness:
        against.setdefault(first, []).append(second)
    if not against:
        return set()
    return {a for a, found in supers.items() if any(y in found for x in found for y in against.get(x, ()))}


def _unsatisfiable(clashing: set[str], predecessors: Mapping[str, list[tuple[str, str]]]) -> set[str]:
    """The nodes that must be empty: the `clashing` ones and those with an edge into one.

    Every node below a clashing one has its supers, so only successor
    edges spread unsatisfiability further: back from B to the A of every
    edge A -r-> B.
    """
    unsatisfiable = set(clashing)
    blocked = list(clashing)
    while blocked:
        for a, _ in predecessors.get(blocked.pop(), ()):
            if a not in unsatisfiable:
                unsatisfiable.add(a)
                blocked.append(a)
    return unsatisfiable


def classify(tbox: Iterable[Axiom], concepts: Iterable[str] = ()) -> Classification:
    """Saturate a strict-normal-form TBox into its atomic consequences.

    `_saturate` gives the reflexive and transitive subsumptions, also
    those entailed through existential axioms; `_clashing` and
    `_unsatisfiable` the concepts that must be empty, also through
    existential successors.
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
        for first, second in by_class[Disjointness]:
            for a in subs[first]:
                for b in subs[second]:
                    if a != b:
                        disjoint.add((a, b) if a < b else (b, a))

    return Classification(
        supers={a: frozenset(supers[a]) for a in names},
        disjoint=frozenset(disjoint),
        unsatisfiable=frozenset(_unsatisfiable(_clashing(supers, by_class[Disjointness]), predecessors)),
    )


# --- deductive closure ------------------------------------------------------


class ClosedABox(_Record):
    """The ABox saturated against its TBox.

    `members` maps each concept to its individuals, by every entailed
    membership ``C(i)``: the concepts among the supers of the nominal
    ``i`` when the TBox is saturated with the ABox read as axioms (see
    `deductive_closure`).  A concept without members has no entry, and
    `facts` is the same memberships as statements.  `roles` are the
    asserted role assertions, never derived.  Inconsistent individuals
    are recorded, not raised: conflicting sources are expected input.
    """

    __slots__ = ()
    _fields = ("members", "roles", "inconsistent_individuals")
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
            (Subsumption(i, c) for c, i in assertions[ConceptAssertion]),
            (ExistsRight(i, role, j) for role, i, j in assertions[RoleAssertion]),
        )
    )
    supers, predecessors = _saturate(chain(o.concepts, o.individuals), axioms)
    # individual names are never concept names, so an individual clashes
    # exactly when its memberships hold both sides of an asserted pair
    clashing = _clashing(supers, axioms[Disjointness])
    unsatisfiable = _unsatisfiable(clashing, predecessors)
    by_individual = {i: supers[i] - {i} for i in o.individuals if len(supers[i]) > 1}
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
