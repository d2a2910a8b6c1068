import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge.ontology import (
    ExistsLeft,
    ConceptAssertion,
    Disjointness,
    ExistsRight,
    Ontology,
    Subsumption,
    format_ontology,
    ontology_to_json,
    parse_ontology,
)
from ontomerge.rcc5 import (
    EMPTY,
    EQ,
    PO,
    PP,
    DR,
    PPi,
    UNIVERSAL,
    BaseRelation,
    QCN,
    Relation,
    Scenario,
    algebraic_closure,
    is_consistent,
    qcn_from_json,
)
from ontomerge.translate import FreshNamePool, backward, forward

import oracles
from oracles import Interpretation, NotFulfillingError, SetInterpretation, flatten, inflate


def rel(*bases):
    return Relation(bases)


class TestForward:
    def test_first_running_source(self, running_sources):
        result = forward(running_sources[0])
        qcn = result.qcn
        assert qcn.variables == ("P", "T", "D", "B")
        assert qcn.constraint("P", "T") == rel(PP, EQ)
        assert qcn.constraint("T", "D") == rel(DR)
        assert qcn.constraint("P", "B") == rel(PP, EQ)
        assert qcn.constraint("P", "D") == rel(DR)
        assert qcn.constraint("B", "D") == rel(DR)
        assert qcn.constraint("T", "B") == UNIVERSAL
        assert result.dropped_role_axioms == ()
        assert result.conflicting_pairs == ()

    def test_single_subsumption(self):
        result = forward(parse_ontology("C <= D"))
        assert result.qcn.constraint("C", "D") == rel(PP, EQ)

    def test_conflicting_axioms_keep_empty_pair(self):
        result = forward(parse_ontology("C <= D\nC & D <= bot\n"))
        assert result.qcn.constraint("C", "D") == EMPTY
        assert result.conflicting_pairs == (("C", "D"),)

    def test_role_axioms_are_dropped_and_reported(self):
        result = forward(parse_ontology("A <= some r.B\nsome r.B <= C\nA <= C\n"))
        assert result.qcn.constraint("A", "C") == rel(PP, EQ)
        assert result.qcn.constraint("A", "B") == UNIVERSAL
        assert set(result.dropped_role_axioms) == {
            ExistsRight("A", "r", "B"),
            ExistsLeft("r", "B", "C"),
        }

    def test_asserted_axioms_only(self):
        # entailed but unasserted subsumptions leave their pair unconstrained
        result = forward(parse_ontology("A <= B\nB <= C\n"))
        assert result.qcn.constraint("A", "C") == UNIVERSAL

    def test_self_disjointness_is_degenerate(self):
        # a region is never empty, so it is never disjoint from itself
        result = forward(parse_ontology("A & A <= bot\nA <= B\nB & C <= bot\nB <= C\n"))
        assert result.conflicting_pairs == (("A", "A"), ("B", "C"))
        assert result.qcn.constraint("A", "B") == rel(PP, EQ)

    def test_conflicts_match_a_full_scan_on_random_tboxes(self):
        # forward looks for empty labels only on the pairs its axioms constrain;
        # the self-disjoint concepts plus a scan of every pair find the same
        rng = random.Random(2424)
        shapes = ("both orientations", "subsumption and disjointness", "self-disjoint", "superset")
        seen = dict.fromkeys((*shapes, "conflict"), False)
        for _ in range(300):
            names = [f"C{i}" for i in range(rng.randint(3, 6))]
            axioms = set()
            for _ in range(rng.randint(1, 2 * len(names))):
                u, v = rng.choice(names), rng.choice(names)
                axioms.add(Subsumption(u, v) if rng.random() < 0.5 else Disjointness(u, v))
                if rng.random() < 0.2:  # a second axiom on the same pair
                    axioms.add(Subsumption(v, u) if rng.random() < 0.5 else Disjointness(v, u))
            o = Ontology.from_statements(axioms)
            variables = None
            if rng.random() < 0.3:
                variables = rng.sample([*o.concepts, "Extra"], len(o.concepts) + 1)
            result = forward(o, variables=variables)
            disjoint = {frozenset(a) for a in axioms if isinstance(a, Disjointness)}
            self_pairs = {(u, u) for u, *others in disjoint if not others}
            scanned = {(u, v) for u, v, label in result.qcn.canonical_items() if label.is_empty}
            assert result.conflicting_pairs == tuple(sorted(self_pairs | scanned))
            subsumed = {tuple(a) for a in axioms if isinstance(a, Subsumption) and a.sub != a.sup}
            seen["both orientations"] |= any((v, u) in subsumed for u, v in subsumed)
            seen["subsumption and disjointness"] |= any(frozenset(p) in disjoint for p in subsumed)
            seen["self-disjoint"] |= bool(self_pairs)
            seen["superset"] |= variables is not None
            seen["conflict"] |= bool(scanned)
        assert all(seen.values()), seen

    def test_variable_embedding(self):
        o = parse_ontology("C <= D")
        result = forward(o, variables=["X", "C", "D"])
        assert result.qcn.variables == ("X", "C", "D")
        with pytest.raises(ValueError):
            forward(o, variables=["C"])

    def test_reflexive_subsumption_is_ignored(self):
        result = forward(parse_ontology("A <= A\nA <= B\n"))
        assert result.qcn.constraint("A", "B") == rel(PP, EQ)


class TestFreshNamePool:
    def test_collision_suffixes(self):
        pool = FreshNamePool(reserved=["SubB"])
        assert pool.sub_concept("B") == "SubB2"
        assert pool.sub_concept("B") == "SubB3"
        assert pool.overlap_concept("A", "B") == "IntAB"

    def test_individual_counter_skips_reserved(self):
        pool = FreshNamePool(reserved=["x_1"])
        assert pool.individual() == "x_2"
        assert pool.individual() == "x_3"


class TestBackward:
    def test_equality_becomes_two_subsumptions(self):
        s = Scenario(["C", "D"], {("C", "D"): rel(EQ)})
        o = backward(s)
        assert o.tbox == {Subsumption("C", "D"), Subsumption("D", "C")}
        assert o.abox == frozenset()

    def test_disjointness(self):
        s = Scenario(["C", "D"], {("C", "D"): rel(DR)})
        o = backward(s)
        assert o.tbox == {Disjointness("C", "D")}

    def test_part_or_equal_is_one_subsumption(self):
        s = Scenario(["C", "D"], {("C", "D"): rel(PP, EQ)})
        assert backward(s).tbox == {Subsumption("C", "D")}
        s2 = Scenario(["C", "D"], {("C", "D"): rel(PPi, EQ)})
        assert backward(s2).tbox == {Subsumption("D", "C")}

    def test_strict_part_block(self):
        s = Scenario(["C", "D"], {("C", "D"): rel(PP)})
        o = backward(s)
        assert o.tbox == {
            Subsumption("C", "D"),
            Subsumption("SubD", "D"),
            Disjointness("C", "SubD"),
        }
        assert o.abox == {
            ConceptAssertion("SubD", "x_1"),
            ConceptAssertion("C", "x_2"),
            ConceptAssertion("D", "x_1"),
            ConceptAssertion("D", "x_2"),
        }

    def test_inverse_strict_part_mirrors(self):
        s = Scenario(["C", "D"], {("C", "D"): rel(PPi)})
        o = backward(s)
        assert o.tbox == {
            Subsumption("D", "C"),
            Subsumption("SubC", "C"),
            Disjointness("D", "SubC"),
        }
        # the witness of D lands in C as well, never in the disjoint part
        assert ConceptAssertion("C", "x_2") in o.abox
        assert ConceptAssertion("SubC", "x_1") in o.abox

    def test_overlap_block_shape(self):
        s = Scenario(["C", "D"], {("C", "D"): rel(PO)})
        o = backward(s)
        assert len(o.tbox) == 6
        assert len(o.abox) == 7
        assert Subsumption("IntCD", "C") in o.tbox
        assert Subsumption("IntCD", "D") in o.tbox
        assert Disjointness("D", "SubC") in o.tbox
        assert Disjointness("C", "SubD") in o.tbox
        assert ConceptAssertion("IntCD", "x_1") in o.abox

    def test_overlap_block_has_an_overlapping_model(self):
        s = Scenario(["C", "D"], {("C", "D"): rel(PO)})
        o = backward(s)
        interp = Interpretation(
            universe=frozenset({0, 1, 2}),
            concepts={
                "C": frozenset({0, 1}),
                "D": frozenset({1, 2}),
                "IntCD": frozenset({1}),
                "SubC": frozenset({0}),
                "SubD": frozenset({2}),
            },
            roles={},
            individuals={"x_1": 1, "x_2": 0, "x_3": 2},
        )
        assert interp.is_model(o)
        assert interp.is_fulfilling(o.concepts)

    def test_fresh_names_avoid_scenario_variables(self):
        s = Scenario(["SubB", "B"], {("SubB", "B"): rel(PP)})
        o = backward(s)
        fresh = set(o.concepts) - {"SubB", "B"}
        assert fresh == {"SubB2"}

    def test_round_trips_through_the_text_grammar(self):
        s = Scenario(
            ["A", "B", "C"],
            {("A", "B"): rel(PO), ("A", "C"): rel(PP), ("B", "C"): rel(DR)},
        )
        o = backward(s)
        assert parse_ontology(format_ontology(o)).tbox == o.tbox

    def test_non_scenario_label_rejected(self):
        # a plain QCN may carry any label; only scenario labels translate back
        with pytest.raises(ValueError, match="not a scenario label"):
            backward(QCN(["A", "B"], {("A", "B"): rel(PP, PO)}))


#: JSON values of any shape, for the places a QCN document expects something else.
_JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["", "A", "PP", "rel"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["from", "to", "rel", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _qcn_documents(variables):
    """QCN documents over `variables` with one constraint per pair; a label may name no relation."""
    relation_names = st.lists(
        st.sampled_from(["DR", "PO", "PP", "PPi", "EQ"] * 3 + ["XX"]), min_size=1, max_size=2
    )
    constraints = [
        st.fixed_dictionaries({"from": st.just(u), "to": st.just(v), "rel": relation_names})
        for u, v in itertools.combinations(variables, 2)
    ]
    return st.tuples(*constraints).map(lambda c: {"variables": variables, "constraints": list(c)})


# mostly distinct names; some repeat, are reserved or are not names the grammar reads
_VARIABLE = st.sampled_from(["A", "B", "C", "D", "x_1", "SubA", "IntAB", "some", "a-b", ""])
_QCN_DOCUMENT = (
    st.lists(_VARIABLE, max_size=4, unique=True) | st.lists(_VARIABLE, max_size=3)
).flatmap(_qcn_documents)


@given(
    st.one_of(
        _QCN_DOCUMENT.map(json.dumps),
        st.tuples(_QCN_DOCUMENT, st.sampled_from(["variables", "constraints"]), _JSON_JUNK).map(
            lambda t: json.dumps({**t[0], t[1]: t[2]})
        ),
        st.tuples(_QCN_DOCUMENT, _JSON_JUNK).map(
            lambda t: json.dumps({**t[0], "constraints": t[0]["constraints"] + [t[1]]})
        ),
        st.tuples(_QCN_DOCUMENT.map(json.dumps), st.integers(0, 80)).map(lambda t: t[0][: t[1]]),
        _JSON_JUNK.map(json.dumps),
        st.text(max_size=20),
    )
)
@settings(max_examples=300, deadline=None)
def test_any_json_translates_back_or_raises_value_error(text):
    try:
        o = backward(Scenario.from_qcn(qcn_from_json(text)))
    except ValueError:
        return
    assert set(json.loads(text)["variables"]) <= set(o.concepts)


#: Back-translation bytes: scenario, `format_ontology` text, `concepts` and
#: `individuals` in first-occurrence order, and the SHA-256 of `ontology_to_json`.
BACKWARD_PINS = {
    "EQ": (
        Scenario(["A", "B"], {("A", "B"): rel(EQ)}),
        "A <= B\nB <= A\n",
        ("A", "B"),
        (),
        "e402c9b7b909faa91f4d2e26244b6cc98e93c6158a30cc2747fca78b67f728bd",
    ),
    "DR": (
        Scenario(["A", "B"], {("A", "B"): rel(DR)}),
        "A & B <= bot\n",
        ("A", "B"),
        (),
        "6902dd624763d94bced2377b1024b36e55eb4a0df380d0a2c6d9f55a47e317cc",
    ),
    "PP,EQ": (
        Scenario(["A", "B"], {("A", "B"): rel(PP, EQ)}),
        "A <= B\n",
        ("A", "B"),
        (),
        "9c89f828e52de396847477b130129a58274bc70f1cbd9b09ca40d7812755f3d1",
    ),
    "PPi,EQ": (
        Scenario(["A", "B"], {("A", "B"): rel(PPi, EQ)}),
        "B <= A\n",
        ("A", "B"),
        (),
        "7f9cd817a72dfe9fd8ff46528978835df9a9fe572514ce39fa1bb9a246a63835",
    ),
    "PP": (
        Scenario(["A", "B"], {("A", "B"): rel(PP)}),
        "A <= B\nSubB <= B\nA & SubB <= bot\nA(x_2)\nB(x_1)\nB(x_2)\nSubB(x_1)\n",
        ("A", "B", "SubB"),
        ("x_1", "x_2"),
        "2b949b63bc6ff88b2e62353743046f731056249867f734093cb9c33572a03f8f",
    ),
    "PPi": (
        Scenario(["A", "B"], {("A", "B"): rel(PPi)}),
        "B <= A\nSubA <= A\nB & SubA <= bot\nA(x_1)\nA(x_2)\nB(x_2)\nSubA(x_1)\n",
        ("A", "B", "SubA"),
        ("x_1", "x_2"),
        "8eec5d8d02bbb8bb163cb44b3ff19600f5b34cb2c72ac4de3e4300958b2ba5ed",
    ),
    "PO": (
        Scenario(["A", "B"], {("A", "B"): rel(PO)}),
        "IntAB <= A\nIntAB <= B\nSubA <= A\nSubB <= B\nA & SubB <= bot\nB & SubA <= bot\n"
        "A(x_1)\nA(x_2)\nB(x_1)\nB(x_3)\nIntAB(x_1)\nSubA(x_2)\nSubB(x_3)\n",
        ("A", "B", "IntAB", "SubA", "SubB"),
        ("x_1", "x_2", "x_3"),
        "7805fda92918635554c336b8c05e3e60d5210046b1fe8f11962556587e297e78",
    ),
    # variables named like the fresh pool's output, listed out of name order;
    # the canonical pairs hold PP, PO and PPi, and the two blocks inside SubB
    # both claim SubSubB
    "pool-names": (
        Scenario(
            ["x_1", "SubB", "IntAB"],
            {("IntAB", "SubB"): rel(PP), ("x_1", "IntAB"): rel(PO), ("x_1", "SubB"): rel(PP)},
        ),
        "IntAB <= SubB\nIntIntABx_1 <= IntAB\nIntIntABx_1 <= x_1\nSubIntAB <= IntAB\n"
        "SubSubB <= SubB\nSubSubB2 <= SubB\nSubx_1 <= x_1\nx_1 <= SubB\n"
        "IntAB & SubSubB <= bot\nIntAB & Subx_1 <= bot\nSubIntAB & x_1 <= bot\nSubSubB2 & x_1 <= bot\n"
        "IntAB(x_3)\nIntAB(x_4)\nIntAB(x_5)\nIntIntABx_1(x_4)\nSubB(x_2)\nSubB(x_3)\nSubB(x_7)\n"
        "SubB(x_8)\nSubIntAB(x_5)\nSubSubB(x_2)\nSubSubB2(x_7)\nSubx_1(x_6)\nx_1(x_4)\nx_1(x_6)\nx_1(x_8)\n",
        ("x_1", "SubB", "IntAB", "SubSubB", "IntIntABx_1", "SubIntAB", "Subx_1", "SubSubB2"),
        ("x_2", "x_3", "x_4", "x_5", "x_6", "x_7", "x_8"),
        "79c0bb538215391a918262b53848b9f20f6a48a3f5bb0463d4fc87c418e3e767",
    ),
}


@pytest.mark.parametrize("name", BACKWARD_PINS)
def test_backward_bytes_are_pinned(name):
    scenario, text, concepts, individuals, json_sha256 = BACKWARD_PINS[name]
    o = backward(scenario)
    assert format_ontology(o) == text
    assert (o.concepts, o.individuals) == (concepts, individuals)
    assert hashlib.sha256(ontology_to_json(o).encode("utf-8")).hexdigest() == json_sha256


class TestFlattenInflate:
    def test_flatten_copies_extensions(self):
        interp = Interpretation(
            universe=frozenset({0, 1, 2}),
            concepts={"C": frozenset({0, 1}), "D": frozenset({0, 1, 2})},
            roles={},
            individuals={},
        )
        solution = flatten(interp)
        assert solution.assignment == {"C": frozenset({0, 1}), "D": frozenset({0, 1, 2})}

    def test_flatten_rejects_empty_concept(self):
        interp = Interpretation(
            universe=frozenset({0}), concepts={"C": frozenset()}, roles={}, individuals={}
        )
        with pytest.raises(NotFulfillingError):
            flatten(interp)

    def test_inflate_copies_regions_and_defaults(self):
        solution = SetInterpretation((0, 1), {"C": frozenset({1})})
        interp = inflate(solution, roles=["r"], individuals=["a"])
        assert interp.extension("C") == frozenset({1})
        assert interp.roles["r"] == frozenset()
        assert interp.individuals["a"] == 0

    def test_inflation_of_solution_is_fulfilling(self):
        solution = SetInterpretation((0, 1), {"C": frozenset({0}), "D": frozenset({0, 1})})
        assert inflate(solution).is_fulfilling(["C", "D"])

    def test_inflated_solution_models_the_source_axiom(self):
        o = parse_ontology("C <= D")
        qcn = forward(o).qcn
        for a_mask, b_mask in itertools.product(range(1, 8), repeat=2):
            regions = {
                "C": frozenset(p for p in range(3) if a_mask >> p & 1),
                "D": frozenset(p for p in range(3) if b_mask >> p & 1),
            }
            solution = SetInterpretation((0, 1, 2), regions)
            if solution.satisfies(qcn):
                assert inflate(solution).is_model(o)


def _random_tbox(rng, concepts):
    pool = [Subsumption(a, b) for a, b in itertools.permutations(concepts, 2)]
    pool += [Disjointness(a, b) for a, b in itertools.combinations(concepts, 2)]
    return frozenset(rng.sample(pool, rng.randrange(0, min(len(pool), 6) + 1)))


class TestForwardFaithfulness:
    def test_models_and_solutions_coincide_on_random_ontologies(self):
        rng = random.Random(31415)
        concepts = ("A", "B", "C")
        for _ in range(60):
            tbox = _random_tbox(rng, concepts)
            qcn = forward(Ontology.from_statements(tbox, concepts=concepts)).qcn
            for size in (1, 2, 3):
                models = oracles.model_grid(tbox, concepts, size)
                solutions = oracles.solution_grid(qcn, concepts, size)
                assert np.array_equal(models, solutions), (tbox, size)

    def test_models_still_solve_when_role_axioms_present(self):
        # role axioms carry no constraint, so models keep solving the network
        o = parse_ontology("A <= B\nA <= some r.C\nsome r.C <= B\n")
        qcn = forward(o).qcn
        for interp in oracles.iter_interpretations(o.concepts, o.roles, (), 2):
            if interp.is_model(o):
                assert flatten(interp, o.concepts).satisfies(qcn)


def _label_selector(label):
    out = np.zeros(5, dtype=bool)
    for b in label:
        out[BaseRelation.index(b)] = True
    return out


class TestBackwardFaithfulness:
    @pytest.mark.parametrize("label_masks", [(b.mask,) for b in BaseRelation] + [(4, 16), (8, 16)])
    def test_two_variable_scenarios_exact(self, label_masks):
        label = Relation.from_mask(sum(label_masks))
        s = Scenario(["C", "D"], {("C", "D"): label})
        o = backward(s)
        concepts = o.concepts
        universe = 3
        models = oracles.model_grid(o.tbox, concepts, universe)
        models &= oracles.assertion_grid(o, concepts, universe)
        codes = oracles.pair_code_grid(concepts, "C", "D", universe)
        satisfied = _label_selector(label)[codes]
        # every fulfilling model flattens to a solution of the scenario
        assert not (models & ~satisfied).any()
        # every solution extends to a fulfilling model of the translation
        axes = tuple(k for k, name in enumerate(concepts) if name not in ("C", "D"))
        projected = models.any(axis=axes) if axes else models
        label_2d = _label_selector(label)[oracles.code_matrix(universe)]
        assert np.array_equal(projected, label_2d)

    def test_three_variable_round_trip_samples(self):
        # The translations preserve the solution set: after a round trip,
        # the entailed label on every original pair equals the bases some
        # solution of the scenario actually realizes (computed by the
        # independent brute-force oracle).  For labels all of whose
        # branches are realizable this is the label itself.
        rng = random.Random(2024)
        labels = [rel(b) for b in BaseRelation] + [rel(PP, EQ), rel(PPi, EQ)]
        tried = 0
        while tried < 12:
            chosen = {
                ("X", "Y"): rng.choice(labels),
                ("X", "Z"): rng.choice(labels),
                ("Y", "Z"): rng.choice(labels),
            }
            candidate = QCN(["X", "Y", "Z"], chosen)
            if not is_consistent(candidate):
                continue
            tried += 1
            s = Scenario.from_qcn(candidate)
            realizable = oracles.realizable_bases_3var(s, universe_size=7)
            translated = forward(backward(s)).qcn
            closed = algebraic_closure(translated)
            for u, v in (("X", "Y"), ("X", "Z"), ("Y", "Z")):
                entailed = Relation(
                    b
                    for b in closed.constraint(u, v)
                    if is_consistent(closed.refined(u, v, rel(b)))
                )
                assert entailed == realizable[(u, v)], (chosen, u, v)
