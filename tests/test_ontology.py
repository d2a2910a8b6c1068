import ast
import copy
import itertools
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import ontology
from ontomerge.ontology import (
    Classification,
    ClosedABox,
    ConceptAssertion,
    Disjointness,
    ExistsLeft,
    ExistsRight,
    NameClashError,
    NotNormalFormError,
    Ontology,
    OntologyError,
    OntologySyntaxError,
    RoleAssertion,
    Statement,
    Subsumption,
    classify,
    deductive_closure,
    format_ontology,
    _collect,
    _KINDS,
    _Record,
    _LINE_RE,
    _match_statement,
    _tokenize,
    format_statement,
    ontology_to_json,
    parse_ontology,
)

from ontomerge.cli import PipelineResult
from ontomerge.distance import DistanceTable
from ontomerge.merging import MergeIteration, MergeTrace
from ontomerge.selection import ConflictReport, select_scenario
from ontomerge.translate import ForwardTranslation, forward

import oracles


class TestParser:
    def test_subsumption(self):
        o = parse_ontology("P <= T")
        assert o.tbox == {Subsumption("P", "T")}
        assert o.concepts == ("P", "T")

    def test_disjointness_is_orderless(self):
        o = parse_ontology("T & D <= bot")
        assert o.tbox == {Disjointness("D", "T")}
        assert Disjointness("T", "D") in o.tbox

    def test_role_axioms_and_assertions(self):
        o = parse_ontology("P <= some hasPart.B\nP(p1)\n")
        assert o.tbox == {ExistsRight("P", "hasPart", "B")}
        assert o.abox == {ConceptAssertion("P", "p1")}
        assert o.roles == ("hasPart",)
        assert o.individuals == ("p1",)

    def test_exists_left(self):
        o = parse_ontology("some r.A <= B")
        assert o.tbox == {ExistsLeft("r", "A", "B")}

    def test_role_assertion(self):
        o = parse_ontology("r(a,b)")
        assert o.abox == {RoleAssertion("r", "a", "b")}

    def test_comments_and_blank_lines(self):
        o = parse_ontology("# heading\n\nA <= B  # trailing\n")
        assert o.tbox == {Subsumption("A", "B")}

    def test_duplicates_collapse(self):
        o = parse_ontology("A <= B\nA <= B\n")
        assert len(o.tbox) == 1

    def test_signature_order_is_first_occurrence(self):
        o = parse_ontology("B <= D\nD <= P\nP <= T\n")
        assert o.concepts == ("B", "D", "P", "T")

    def test_syntax_error_carries_position(self):
        with pytest.raises(OntologySyntaxError) as err:
            parse_ontology("A <= B\nA ~ B\n")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_not_normal_form_names_line(self):
        with pytest.raises(NotNormalFormError) as err:
            parse_ontology("A <= B\nA & B <= C\n")
        assert err.value.line == 2

    def test_right_conjunction_rejected(self):
        with pytest.raises(NotNormalFormError):
            parse_ontology("A <= B & C")

    def test_bare_bottom_rejected(self):
        with pytest.raises(NotNormalFormError):
            parse_ontology("A <= bot")

    def test_name_clash_detected(self):
        with pytest.raises(NameClashError):
            parse_ontology("A <= B\nA(x)\nB(A)\n")

    @pytest.mark.parametrize("text", ["A <= B\x0cC <= D\n", "A <= B\x0c\nC <=\n", "A <= B\u2028C <= D\n"])
    def test_only_newline_and_carriage_return_end_a_line(self, text):
        with pytest.raises(OntologySyntaxError) as err:
            parse_ontology(text)
        assert str(err.value) == f"line 1, column 7: unexpected character {text[6]!r}"
        assert (err.value.line, err.value.column) == (1, 7)

    def test_crlf_and_cr_end_a_line(self):
        o = parse_ontology("A <= B\r\nC <= D\rE <= F\n")
        assert o.tbox == {Subsumption("A", "B"), Subsumption("C", "D"), Subsumption("E", "F")}

    def test_reserved_words_are_not_names(self):
        with pytest.raises(OntologySyntaxError):
            parse_ontology("some <= B")

    @pytest.mark.parametrize(
        "line, error, column, message",
        [
            ("A <= B & C", NotNormalFormError, None, "axiom is not in strict normal form: 'A <= B & C'"),
            ("A <= bot", NotNormalFormError, None, "axiom is not in strict normal form: 'A <= bot'"),
            ("some r.A & B <= C", NotNormalFormError, None, "axiom is not in strict normal form: 'some r.A & B <= C'"),
            ("A & B & C <= bot", NotNormalFormError, None, "axiom is not in strict normal form: 'A & B & C <= bot'"),
            ("A <= some r.some s.B", NotNormalFormError, None, "axiom is not in strict normal form: 'A <= some r.some s.B'"),
            ("A <= some r.", OntologySyntaxError, 13, "incomplete statement"),
            ("A <= B <= C", OntologySyntaxError, 8, "unexpected token '<='"),
            ("A &", OntologySyntaxError, 4, "incomplete statement"),
            ("A <= # why", OntologySyntaxError, 5, "incomplete statement"),
            ("A & <= B", OntologySyntaxError, 5, "unexpected token '<='"),
            ("A <= some r.B C", OntologySyntaxError, 15, "unexpected token 'C'"),
            ("some <= B", OntologySyntaxError, 6, "unexpected token '<='"),
            ("A ~ B", OntologySyntaxError, 3, "unexpected character '~'"),
        ],
    )
    def test_rejected_shapes(self, line, error, column, message):
        # a valid first line, so the error must name line 2
        with pytest.raises(OntologyError) as err:
            parse_ontology(f"P <= T\n{line}\n")
        assert type(err.value) is error
        assert err.value.line == 2
        assert getattr(err.value, "column", None) == column
        where = "line 2" if column is None else f"line 2, column {column}"
        assert str(err.value) == f"{where}: {message}"


    @given(
        st.one_of(
            st.lists(
                st.sampled_from(
                    ["A", "B", "r", "x", "some", "bot", "<=", "<", "=", "&", "(", ")", ",", ".",
                     " ", "\n", "é", "\x0c", "\t", "#"]
                ),
                max_size=24,
            ).map("".join),
            st.text(max_size=24),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_raises_ontology_error(self, text):
        try:
            o = parse_ontology(text)
        except OntologyError:
            return
        rendered = format_ontology(o)
        assert format_ontology(parse_ontology(rendered)) == rendered


def _tokenizer_reading(line: str) -> Statement | None | OntologyError:
    """What `_tokenize` and `_match_statement` make of one line, or the error they raise."""
    try:
        tokens = _tokenize(line, 1)
        return _match_statement(tokens, 1, line) if tokens else None
    except OntologyError as exc:
        return exc


def _parsed(build) -> Ontology | OntologyError:
    try:
        return build()
    except OntologyError as exc:
        return exc


_GRAMMAR_NAMES = ("A", "B", "r", "x", "some", "bot", "someR", "bot_", "Some")
_GRAMMAR_MARKS = ("<=", "<", "=", "&", "(", ")", ",", ".", "#", " ", "\t", "é")
_KIND_WORDS = {"s": "some", "b": "bot", "<": "<="}


def _grammar_line(rng: random.Random) -> str:
    """A statement of a random kind, its tokens perturbed; or tokens drawn at random."""
    pool = _GRAMMAR_NAMES + _GRAMMAR_MARKS
    if rng.random() < 0.15:
        return "".join(rng.choice(pool) for _ in range(rng.randrange(9)))
    pattern = rng.choice([cls._pattern for cls in _KINDS])
    words = [rng.choice(_GRAMMAR_NAMES) if t == "n" else _KIND_WORDS.get(t, t) for t in pattern]
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randrange(len(words) + 1)
        edit = rng.randrange(3)
        if edit == 0 and at < len(words):
            del words[at]
        elif edit == 1 and at < len(words):
            words[at] = rng.choice(pool)
        else:
            words.insert(at, rng.choice(pool))
    line = rng.choice(("", " ", "\t")) + words[0] if words else ""
    for word in words[1:]:
        line += rng.choice(("", "", " ", "\t", " \t ")) + word
    return line + rng.choice(("", "", "", " ", "#", " # note", "\t#é"))


class TestLineExpression:
    """The whole-line regular expression against the tokenizer it bypasses."""

    def test_both_paths_read_every_line_alike(self):
        rng = random.Random(1604)
        seen = dict.fromkeys([*_KINDS, OntologySyntaxError, NotNormalFormError, NameClashError], 0)
        for _ in range(100_000):
            line = _grammar_line(rng)
            read = _tokenizer_reading(line)
            assert (_LINE_RE.fullmatch(line) is not None) is not isinstance(read, OntologyError), line
            expected = read
            if not isinstance(read, OntologyError):
                expected = _parsed(lambda: _collect([(1, read)] if read else []))
            got = _parsed(lambda: parse_ontology(line))
            if isinstance(expected, OntologyError):
                assert type(got) is type(expected), line
                assert (str(got), got.line, got.column) == (str(expected), expected.line, expected.column), line
            else:
                assert got == expected, line
            kind = type(expected) if isinstance(expected, OntologyError) else type(read)
            if kind in seen:
                seen[kind] += 1
        assert all(count >= 500 for count in seen.values()), seen


class TestFormatting:
    def test_round_trip_is_stable(self):
        text = "P <= T\nT & D <= bot\nP <= some r.B\nsome r.B <= C\nP(p1)\nr(p1,p2)\n"
        o = parse_ontology(text)
        rendered = format_ontology(o)
        assert format_ontology(parse_ontology(rendered)) == rendered

    def test_json_is_deterministic_and_sorted(self):
        o = parse_ontology("B <= A\nA(x)\n")
        payload = ontology_to_json(o)
        data = json.loads(payload)
        assert data["concepts"] == ["A", "B"]
        assert list(data) == sorted(data)
        assert ontology_to_json(parse_ontology("A(x)\nB <= A\n")) == payload


#: One statement of each kind: its text, JSON tag and the namespace of each field.
KIND_PINS = {
    "Subsumption": ("A <= B", "subsumption", ("concept", "concept")),
    "Disjointness": ("A & B <= bot", "disjointness", ("concept", "concept")),
    "ExistsRight": ("A <= some r.B", "exists_right", ("concept", "role", "concept")),
    "ExistsLeft": ("some r.A <= B", "exists_left", ("role", "concept", "concept")),
    "ConceptAssertion": ("A(x)", "concept", ("concept", "individual")),
    "RoleAssertion": ("r(x,y)", "role", ("role", "individual", "individual")),
}


class TestStatementKinds:
    @pytest.mark.parametrize("cls", list(_KINDS), ids=lambda cls: cls.__name__)
    def test_fields_namespaces_and_name_tokens_agree(self, cls):
        text, tag, namespaces = KIND_PINS[cls.__name__]
        fields = list(cls._fields)
        assert len(fields) == len(cls._namespaces) == cls._pattern.count("n")
        o = parse_ontology(text)
        (stmt,) = o.statements()
        assert type(stmt) is cls
        assert format_statement(stmt) == text
        signature = {"concept": o.concepts, "role": o.roles, "individual": o.individuals}
        assert all(getattr(stmt, name) in signature[ns] for name, ns in zip(fields, namespaces))
        data = json.loads(ontology_to_json(o))
        assert data["tbox"] + data["abox"] == [{**{name: getattr(stmt, name) for name in fields}, "type": tag}]


def _clash_in_declared_signature():
    Ontology(tbox=frozenset(), abox=frozenset(), concepts=("A",), roles=("A",), individuals=())


@pytest.mark.parametrize(
    "build, error, message, line, column",
    [
        (lambda: parse_ontology("A <= B\nA ~ B\n"), OntologySyntaxError,
         "line 2, column 3: unexpected character '~'", 2, 3),
        (lambda: parse_ontology("A <= B\nA & B <= C\n"), NotNormalFormError,
         "line 2: axiom is not in strict normal form: 'A & B <= C'", 2, None),
        (lambda: parse_ontology("A <= B\n\nr(A,x)\n"), NameClashError,
         "line 3: name 'A' already used as a concept, here as an individual", 3, None),
        (_clash_in_declared_signature, NameClashError,
         "concept, role and individual names must be disjoint", None, None),
    ],
    ids=["syntax", "not-normal-form", "parsed-clash", "signature-clash"],
)
def test_error_location_is_pinned(build, error, message, line, column):
    with pytest.raises(OntologyError) as err:
        build()
    assert type(err.value) is error
    assert (str(err.value), err.value.line, getattr(err.value, "column", None)) == (message, line, column)


class TestOntologyType:
    def test_from_statements_infers_signature(self):
        o = Ontology.from_statements(
            [Subsumption("A", "B"), ConceptAssertion("A", "x")], concepts=["C"]
        )
        assert o.concepts == ("C", "A", "B")
        assert o.individuals == ("x",)

    def test_a_repeated_given_concept_is_kept_once(self):
        o = Ontology.from_statements([Subsumption("A", "B")], concepts=["A", "A"])
        assert o.concepts == ("A", "B")
        assert forward(o).qcn.variables == ("A", "B")

    @pytest.mark.parametrize("kind", ["concept", "role", "individual"])
    def test_constructor_rejects_a_repeated_name(self, kind):
        signature = {"concepts": (), "roles": (), "individuals": ()}
        signature[kind + "s"] = ("A", "B", "A")
        with pytest.raises(ValueError, match=f"^{kind} 'A' repeated in the signature$"):
            Ontology(tbox=frozenset(), abox=frozenset(), **signature)

    def test_from_statements_rejects_clashes(self):
        with pytest.raises(NameClashError):
            Ontology.from_statements([Subsumption("A", "B"), ConceptAssertion("x", "A")])

    def test_constructor_validates_signature(self):
        with pytest.raises(ValueError):
            Ontology(
                tbox=frozenset({Subsumption("A", "B")}),
                abox=frozenset(),
                concepts=("A",),
                roles=(),
                individuals=(),
            )


#: One record of each result class, and one statement, read off the
#: running example's pipeline run and its sources.
RECORD_SAMPLES = {
    "Ontology": lambda run, sources: run.result,
    "Classification": lambda run, sources: classify(run.result.tbox),
    "ClosedABox": lambda run, sources: deductive_closure(run.result),
    "ForwardTranslation": lambda run, sources: forward(run.result),
    "PipelineResult": lambda run, sources: run,
    "RoleAssertion": lambda run, sources: RoleAssertion("r", "x", "y"),
    "DistanceTable": lambda run, sources: run.trace.table,
    "MergeIteration": lambda run, sources: run.trace.iterations[0],
    "MergeTrace": lambda run, sources: run.trace,
    "ConflictReport": lambda run, sources: select_scenario(run.scenarios, sources)[1],
}


@pytest.fixture(params=list(RECORD_SAMPLES))
def record(request, pipeline, running_sources):
    return RECORD_SAMPLES[request.param](pipeline, running_sources)


class TestRecordSemantics:
    def test_record_is_built_by_position_or_by_keyword(self, record):
        cls, values = type(record), tuple(record)
        named = dict(zip(cls._fields, values))
        rest = dict(zip(cls._fields[1:], values[1:]))
        assert cls(*values) == record == cls(**named) == cls(values[0], **rest)
        for kwargs in ({}, rest, {**named, "extra": None}):
            with pytest.raises(TypeError):
                cls(**kwargs)
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values[:-1])

    def test_record_equals_only_records_of_its_class(self, record):
        values = tuple(record)
        twin = type("Twin", (_Record,), {"__slots__": (), "_fields": type(record)._fields})(*values)
        assert record != values and not record == values and values != record
        assert record != twin and not twin == record

    def test_record_survives_copy_and_pickle(self, record):
        for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert again == record and type(again) is type(record)

    def test_record_fields_cannot_be_assigned(self, record):
        for name in (*type(record)._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_unpickling_an_ontology_checks_its_signature(self):
        clash = tuple.__new__(Ontology, (frozenset(), frozenset(), ("A",), ("A",), ()))
        data = pickle.dumps(clash)
        with pytest.raises(NameClashError):
            pickle.loads(data)

    def test_statements_of_two_kinds_with_the_same_names_differ(self):
        sub, member = Subsumption("A", "B"), ConceptAssertion("A", "B")
        assert sub != member and not sub == member
        assert sub != ("A", "B") and not ("A", "B") == sub
        assert len({sub, member}) == 2

    def test_equal_statements_hash_equally(self):
        assert Subsumption("A", "B") == Subsumption("A", "B")
        assert hash(Subsumption("A", "B")) == hash(Subsumption("A", "B"))
        assert hash(Disjointness("B", "A")) == hash(Disjointness("A", "B"))

    def test_statements_are_tuples_of_their_names(self):
        stmt = RoleAssertion("r", "x", "y")
        assert tuple(stmt) == ("r", "x", "y") and stmt[1] == "x"
        assert (stmt.role, stmt.subject, stmt.object) == ("r", "x", "y")
        with pytest.raises(TypeError):
            Subsumption("A")

    def test_fields_cannot_be_assigned(self):
        o = parse_ontology("A <= B\n")
        with pytest.raises(AttributeError):
            Subsumption("A", "B").sub = "C"
        with pytest.raises(AttributeError):
            o.tbox = frozenset()

    def test_repr_is_pinned(self):
        assert repr(Disjointness("B", "A")) == "Disjointness(first='A', second='B')"
        assert repr(parse_ontology("A <= B\n")) == (
            "Ontology(tbox=frozenset({Subsumption(sub='A', sup='B')}), abox=frozenset(), "
            "concepts=('A', 'B'), roles=(), individuals=())"
        )

    @pytest.mark.parametrize("stmt", [Subsumption("A", "B"), Disjointness("B", "A"), RoleAssertion("r", "x", "y")])
    def test_copy_and_pickle_return_an_equal_statement(self, stmt):
        for again in (copy.copy(stmt), copy.deepcopy(stmt), pickle.loads(pickle.dumps(stmt))):
            assert again == stmt and type(again) is type(stmt)

    @pytest.mark.parametrize("cls", [Ontology, Classification, ClosedABox, ForwardTranslation, PipelineResult])
    def test_record_slots_follow_the_annotations(self, cls):
        assert vars(cls)["__slots__"] == () and cls._fields == tuple(cls.__annotations__)

    def test_records_declare_their_fields_once(self):
        # the result records take their fields from their annotations, in declaration order
        assert DistanceTable._fields == ("columns",)
        assert MergeIteration._fields == ("index", "value", "relaxed_pairs", "snapshot")
        assert MergeTrace._fields == ("initial", "iterations", "final", "table")
        assert ConflictReport._fields == ("scores", "selected_index", "tied_indices", "closures")
        # no class body both lists `_fields` and annotates fields
        for path in Path(ontology.__file__).parent.glob("*.py"):
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(cls, ast.ClassDef):
                    assigned = {ast.unparse(t) for s in cls.body if isinstance(s, ast.Assign) for t in s.targets}
                    annotated = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
                    assert not ("_fields" in assigned and annotated), cls.name

    def test_records_take_keywords_and_compare_field_by_field(self):
        o = Ontology(tbox=frozenset(), abox=frozenset(), concepts=("A",), roles=(), individuals=())
        assert o == Ontology(frozenset(), frozenset(), ("A",), (), individuals=())
        assert hash(o) == hash(pickle.loads(pickle.dumps(o)))
        facts = Classification(supers={"A": frozenset("A")}, disjoint=frozenset(), unsatisfiable=frozenset())
        assert facts.entails_subsumption("A", "A")
        closed = ClosedABox(members={}, roles=frozenset(), inconsistent_individuals=frozenset())
        assert closed.instances_of("A") == frozenset()
        with pytest.raises(TypeError):
            Ontology(frozenset(), tbox=frozenset(), abox=frozenset(), concepts=(), roles=(), individuals=())
        with pytest.raises(TypeError):
            Classification(supers={}, disjoint=frozenset())


class TestClassify:
    def test_transitivity(self):
        cls = classify(parse_ontology("P <= T\nT <= B\n").tbox)
        assert cls.entails_subsumption("P", "B")

    def test_reflexivity_included(self):
        cls = classify(parse_ontology("P <= T\n").tbox)
        assert cls.entails_subsumption("P", "P")

    def test_role_chain(self):
        o = parse_ontology("A <= some r.B\nsome r.B <= C\n")
        cls = classify(o.tbox)
        assert cls.entails_subsumption("A", "C")
        assert oracles.oracle_entails(o, Subsumption("A", "C"), universe_sizes=(1, 2, 3))

    def test_role_chain_through_entailed_filler(self):
        o = parse_ontology("A <= some r.B\nB <= B2\nsome r.B2 <= C\n")
        cls = classify(o.tbox)
        assert cls.entails_subsumption("A", "C")
        assert oracles.oracle_entails(o, Subsumption("A", "C"), universe_sizes=(1, 2, 3))

    def test_disjointness_propagates_downward(self):
        o = parse_ontology("P <= T\nT & D <= bot\n")
        cls = classify(o.tbox)
        assert cls.entails_disjointness("P", "D")
        assert oracles.oracle_entails(o, Disjointness("P", "D"), universe_sizes=(1, 2, 3))

    def test_unsatisfiable_by_disjoint_supers(self):
        cls = classify(parse_ontology("A <= B\nA <= C\nB & C <= bot\n").tbox)
        assert cls.unsatisfiable == {"A"}

    def test_unsatisfiable_through_successor(self):
        cls = classify(parse_ontology("A <= some r.B\nB & B <= bot\n").tbox)
        assert cls.unsatisfiable == {"A", "B"}

    def test_no_vacuous_consequences_for_unsatisfiable(self):
        cls = classify(parse_ontology("A & A <= bot\nB <= C\n").tbox)
        assert not cls.entails_subsumption("A", "B")
        assert not cls.entails_disjointness("A", "B")

    def test_abox_only_concepts_via_parameter(self):
        cls = classify(frozenset(), concepts=["C"])
        assert cls.entails_subsumption("C", "C")

    @given(
        st.sets(
            st.sampled_from(
                [Subsumption(a, b) for a, b in itertools.permutations("ABC", 2)]
                + [Disjointness(a, b) for a, b in itertools.combinations("ABC", 2)]
            ),
            max_size=6,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_idempotent_and_monotone(self, axioms):
        first = classify(frozenset(axioms), concepts="ABC")
        again = classify(first.subsumptions | first.disjointness | frozenset(axioms), concepts="ABC")
        assert first.subsumptions <= again.subsumptions
        assert again.subsumptions == first.subsumptions
        assert again.disjointness == first.disjointness

    def test_complete_against_model_oracle(self):
        rng = random.Random(2718)
        pool = [Subsumption(a, b) for a, b in itertools.permutations("ABC", 2)]
        pool += [Disjointness(a, b) for a, b in itertools.combinations("ABC", 2)]
        for _ in range(40):
            tbox = frozenset(rng.sample(pool, rng.randrange(0, 5)))
            cls = classify(tbox, concepts="ABC")
            if cls.unsatisfiable:
                continue
            o = Ontology.from_statements(tbox, concepts="ABC")
            for x, y in itertools.permutations("ABC", 2):
                entailed = oracles.oracle_entails(o, Subsumption(x, y), universe_sizes=(3,))
                assert cls.entails_subsumption(x, y) == entailed, (tbox, x, y)
            for x, y in itertools.combinations("ABC", 2):
                entailed = oracles.oracle_entails(o, Disjointness(x, y), universe_sizes=(3,))
                assert cls.entails_disjointness(x, y) == entailed, (tbox, x, y)

    def test_unsatisfiability_matches_oracle(self):
        # A is unsatisfiable exactly when no fulfilling model exists
        o = parse_ontology("A <= B\nA <= C\nB & C <= bot\n")
        assert not oracles.fulfilling_model_exists(o.tbox, o.concepts, 4)
        satisfiable = parse_ontology("A <= B\nB & C <= bot\n")
        assert oracles.fulfilling_model_exists(satisfiable.tbox, satisfiable.concepts, 4)
        assert not classify(satisfiable.tbox).unsatisfiable


class TestDeductiveClosure:
    def test_third_source_closure(self, running_sources):
        closed = deductive_closure(running_sources[2])
        expected = {
            ("P", "p3"), ("P", "b3"), ("P", "d3"),
            ("T", "t3"), ("T", "d3"), ("T", "b3"), ("T", "p3"),
            ("D", "d3"), ("D", "b3"),
            ("B", "b3"),
        }
        assert {(f.concept, f.individual) for f in closed.facts} == expected
        assert closed.inconsistent_individuals == frozenset()

    def test_no_rules_no_change(self):
        o = parse_ontology("C(a)")
        closed = deductive_closure(o)
        assert closed.facts == {ConceptAssertion("C", "a")}

    def test_existential_left_fires_on_role_edges(self):
        o = parse_ontology("some r.B <= C\nr(a,b)\nB(b)\n")
        closed = deductive_closure(o)
        assert ConceptAssertion("C", "a") in closed.facts
        assert oracles.oracle_entails(
            o, ConceptAssertion("C", "a"), universe_sizes=(1, 2, 3), fulfilling=False
        )

    def test_roles_are_kept_not_derived(self):
        o = parse_ontology("r(a,b)\n")
        closed = deductive_closure(o)
        assert closed.roles == {RoleAssertion("r", "a", "b")}
        assert closed.facts == frozenset()

    def test_facts_are_a_fixpoint_superset(self):
        o = parse_ontology("P <= T\nT <= B\nP(x)\nT(y)\n")
        closed = deductive_closure(o)
        asserted = {a for a in o.abox if isinstance(a, ConceptAssertion)}
        assert asserted <= closed.facts
        again = Ontology.from_statements(
            list(o.tbox) + sorted(closed.facts, key=lambda f: (f.concept, f.individual)),
        )
        assert deductive_closure(again).facts == closed.facts

    def test_inconsistent_individuals_recorded_not_raised(self):
        o = parse_ontology("T & D <= bot\nT(x)\nD(x)\nT(y)\n")
        closed = deductive_closure(o)
        assert closed.inconsistent_individuals == {"x"}

    def test_member_of_unsatisfiable_concept_is_inconsistent(self):
        # the second input holds no asserted pair: A is unsatisfiable only
        # through its successor edge into B
        for text in ("A <= B\nA <= C\nB & C <= bot\nA(x)\n", "A <= some r.B\nB & B <= bot\nA(x)\n"):
            closed = deductive_closure(parse_ontology(text))
            assert "x" in closed.inconsistent_individuals, text

    def test_closure_preserves_entailed_memberships(self):
        rng = random.Random(1618)
        pool = [Subsumption(a, b) for a, b in itertools.permutations("AB", 2)]
        pool += [Disjointness("A", "B")]
        facts_pool = [ConceptAssertion(c, i) for c in "AB" for i in ("u", "v")]
        for _ in range(25):
            tbox = frozenset(rng.sample(pool, rng.randrange(0, 3)))
            abox = frozenset(rng.sample(facts_pool, rng.randrange(1, 4)))
            o = Ontology.from_statements(list(tbox) + list(abox), concepts="AB")
            cls = classify(tbox, concepts="AB")
            closed = deductive_closure(o)
            if cls.unsatisfiable or closed.inconsistent_individuals:
                continue
            for c in "AB":
                for i in o.individuals:
                    entailed = oracles.oracle_entails(
                        o, ConceptAssertion(c, i), universe_sizes=(2,), fulfilling=True
                    )
                    assert (ConceptAssertion(c, i) in closed.facts) == entailed, (tbox, abox, c, i)


def _random_ontology(rng: random.Random) -> Ontology:
    """A small ontology using all four axiom shapes, role edges included.

    Half the cases get a chained existential pair (A <= some r.B and
    some r.B' <= C with B' a told super of B, or B itself).
    """
    concepts = "ABCDE"[: rng.choice((4, 5))]
    roles = ("r", "s")
    individuals = ("a", "b", "c")
    pick = lambda: rng.choice(concepts)
    statements = []
    statements += [Subsumption(pick(), pick()) for _ in range(rng.randrange(0, 5))]
    statements += [Disjointness(pick(), pick()) for _ in range(rng.randrange(0, 3))]
    statements += [ExistsRight(pick(), rng.choice(roles), pick()) for _ in range(rng.randrange(0, 3))]
    statements += [ExistsLeft(rng.choice(roles), pick(), pick()) for _ in range(rng.randrange(0, 3))]
    if rng.random() < 0.5:
        role, filler = rng.choice(roles), pick()
        statements.append(ExistsRight(pick(), role, filler))
        sup = pick()
        statements.append(Subsumption(filler, sup))
        statements.append(ExistsLeft(role, rng.choice((filler, sup)), pick()))
    statements += [ConceptAssertion(pick(), rng.choice(individuals)) for _ in range(rng.randrange(0, 6))]
    statements += [
        RoleAssertion(rng.choice(roles), rng.choice(individuals), rng.choice(individuals))
        for _ in range(rng.randrange(0, 5))
    ]
    return Ontology.from_statements(statements, concepts=concepts)


class TestReferenceAgreement:
    """The indexed worklist saturation against the rescanning code it replaced."""

    def test_classify_and_closure_agree_with_reference(self):
        rng = random.Random(4242)
        shapes = dict.fromkeys(
            (
                "satisfiable", "unsatisfiable", "self_disjoint", "derived_disjoint",
                "role_derived", "role_edges", "memberless_concept",
            ),
            0,
        )
        for _ in range(400):
            o = _random_ontology(rng)
            fast = classify(o.tbox, concepts=o.concepts)
            slow = oracles.reference_classify(o.tbox, concepts=o.concepts)
            assert fast.subsumptions == slow.subsumptions, o
            assert fast.disjointness == slow.disjointness, o
            assert fast.unsatisfiable == slow.unsatisfiable, o
            assert fast.to_json_dict() == slow.to_json_dict(), o
            for c in o.concepts:
                assert fast.supers_of(c) == {s.sup for s in slow.subsumptions if s.sub == c}

            closed = deductive_closure(o)
            reference = oracles.reference_closure(o)
            assert closed == reference, o
            assert closed.facts == reference.facts, o
            assert closed.members == reference.members, o
            assert closed.inconsistent_individuals == reference.inconsistent_individuals, o
            for c in o.concepts + ("Z",):
                expected = {f.individual for f in reference.facts if f.concept == c}
                assert closed.instances_of(c) == expected, (o, c)
            for a, b in itertools.product(o.concepts, repeat=2):
                assert fast.entails_disjointness(a, b) == (Disjointness(a, b) in fast.disjointness), (o, a, b)

            shapes["satisfiable"] += not slow.unsatisfiable
            shapes["unsatisfiable"] += bool(slow.unsatisfiable)
            shapes["derived_disjoint"] += not slow.disjointness <= o.tbox
            shapes["self_disjoint"] += any(d.first == d.second for d in o.tbox if isinstance(d, Disjointness))
            without_roles = {a for a in o.tbox if not isinstance(a, ExistsLeft)}
            shapes["role_derived"] += slow.subsumptions != oracles.reference_classify(
                without_roles, concepts=o.concepts
            ).subsumptions
            shapes["role_edges"] += any(isinstance(a, RoleAssertion) for a in o.abox)
            shapes["memberless_concept"] += any(not closed.instances_of(c) for c in o.concepts)
        assert all(count >= 20 for count in shapes.values()), shapes
