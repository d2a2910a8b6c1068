import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    compose,
    compose_relations,
    converse,
    enumerate_scenarios,
    is_consistent,
    qcn_from_json,
    qcn_to_dot,
    qcn_to_json,
)

import oracles
from oracles import SetInterpretation, find_set_model, generate_composition_table

relations = st.builds(Relation.from_mask, st.integers(min_value=0, max_value=31))


def rel(*bases: BaseRelation) -> Relation:
    return Relation(bases)


class TestRelation:
    def test_members_in_canonical_order(self):
        assert rel(EQ, DR, PP).names() == ("DR", "PP", "EQ")

    def test_set_operations(self):
        assert rel(PP, EQ) & rel(DR) == EMPTY
        assert rel(PP) | rel(EQ) == rel(PP, EQ)
        assert UNIVERSAL - rel(DR, PO, PPi) == rel(PP, EQ)
        assert rel(PP) <= rel(PP, EQ)
        assert not rel(PP, EQ) <= rel(PP)

    def test_interning_and_equality(self):
        assert Relation([PP, EQ]) is Relation([EQ, PP])
        assert Relation([]) is EMPTY

    def test_from_names_rejects_unknown(self):
        with pytest.raises(ValueError):
            Relation.from_names(["XX"])


class TestConverse:
    def test_swaps_proper_part_directions(self):
        assert converse(rel(PP, EQ)) == rel(PPi, EQ)

    def test_full_set_is_fixed(self):
        assert converse(UNIVERSAL) == UNIVERSAL

    def test_disjoint_is_self_converse(self):
        assert converse(rel(DR)) == rel(DR)

    def test_involution_everywhere(self):
        for mask in range(32):
            r = Relation.from_mask(mask)
            assert converse(converse(r)) == r


class TestComposition:
    def test_equality_is_identity(self):
        for b in BaseRelation:
            assert compose(EQ, b) == rel(b)
            assert compose(b, EQ) == rel(b)

    def test_proper_part_chains(self):
        assert compose(PP, PP) == rel(PP)

    def test_disjoint_then_part(self):
        assert compose(DR, PP) == rel(DR, PO, PP)

    def test_converse_composition_law(self):
        for b1, b2 in itertools.product(BaseRelation, repeat=2):
            assert compose(b1, b2) == converse(compose(b2.converse, b1.converse))

    def test_set_composition_matches_base_table(self):
        for b1, b2 in itertools.product(BaseRelation, repeat=2):
            assert compose_relations(rel(b1), rel(b2)) == compose(b1, b2)
        assert compose_relations(UNIVERSAL, UNIVERSAL) == UNIVERSAL
        assert compose_relations(EMPTY, UNIVERSAL) == EMPTY

    def test_regenerated_table_matches_constant(self):
        regenerated = generate_composition_table(7)
        for pair, out in regenerated.items():
            assert compose(*pair) == out, pair


class TestQCN:
    def test_constraint_orientation(self):
        n = QCN(["a", "b"], {("b", "a"): rel(PP)})
        assert n.constraint("b", "a") == rel(PP)
        assert n.constraint("a", "b") == rel(PPi)

    def test_unconstrained_pairs_are_full(self):
        n = QCN(["a", "b", "c"])
        assert n.constraint("a", "c") == UNIVERSAL

    def test_constructor_intersects_duplicate_orientations(self):
        n = QCN(["a", "b"], [(("a", "b"), rel(PP, EQ)), (("b", "a"), rel(PPi))])
        assert n.constraint("a", "b") == rel(PP)

    def test_self_pair_rejected(self):
        n = QCN(["a", "b"])
        with pytest.raises(ValueError):
            n.constraint("a", "a")

    def test_updated_replaces(self):
        n = QCN(["a", "b"], {("a", "b"): rel(DR)})
        assert n.updated("a", "b", UNIVERSAL).constraint("a", "b") == UNIVERSAL

    def test_expanded_keeps_constraints(self):
        n = QCN(["a", "b"], {("a", "b"): rel(DR)})
        wide = n.expanded(["c", "a", "b"])
        assert wide.variables == ("c", "a", "b")
        assert wide.constraint("a", "b") == rel(DR)
        assert wide.constraint("c", "a") == UNIVERSAL

    def test_json_round_trip(self):
        n = QCN(["b", "a"], {("b", "a"): rel(PP, EQ), ("a", "b"): UNIVERSAL})
        again = qcn_from_json(qcn_to_json(n))
        assert again.constraint("b", "a") == rel(PP, EQ)
        data = n.to_json_dict()
        # stored once per pair, lexicographically smaller variable first
        assert data["constraints"] == [{"from": "a", "to": "b", "rel": ["PPi", "EQ"]}]

    def test_json_rejects_duplicates(self):
        text = qcn_to_json(QCN(["a", "b"], {("a", "b"): rel(DR)}))
        mangled = text.replace(
            '"constraints": [', '"constraints": [{"from": "b", "to": "a", "rel": ["PP"]},'
        )
        with pytest.raises(ValueError):
            qcn_from_json(mangled)

    def test_dot_omits_unconstrained_pairs(self):
        n = QCN(["a", "b", "c"], {("a", "b"): rel(DR)})
        dot = qcn_to_dot(n)
        assert '"a" -- "b" [label="{DR}"];' in dot
        assert '"a" -- "c"' not in dot
        assert '"c";' in dot


class TestScenarioType:
    def test_accepts_quasi_atomic_labels(self):
        Scenario(["a", "b"], {("a", "b"): rel(PP, EQ)})
        Scenario(["a", "b"], {("a", "b"): rel(DR)})

    def test_rejects_other_labels(self):
        with pytest.raises(ValueError):
            Scenario(["a", "b"], {("a", "b"): rel(DR, PO)})
        with pytest.raises(ValueError):
            Scenario(["a", "b", "c"])  # full constraints are not quasi-atomic


class TestAlgebraicClosure:
    def test_part_chain_propagates(self):
        n = QCN(["v1", "v2", "v3"], {("v1", "v2"): rel(PP), ("v2", "v3"): rel(PP)})
        assert algebraic_closure(n).constraint("v1", "v3") == rel(PP)

    def test_closed_network_is_fixpoint(self):
        n = QCN(["v1", "v2", "v3"], {("v1", "v2"): rel(PP), ("v2", "v3"): rel(PP)})
        closed = algebraic_closure(n)
        assert algebraic_closure(closed) == closed

    def test_conflicting_chain_empties(self):
        n = QCN(
            ["v1", "v2", "v3"],
            {("v1", "v2"): rel(PP, EQ), ("v2", "v3"): rel(PP, EQ), ("v1", "v3"): rel(DR)},
        )
        closed = algebraic_closure(n)
        assert closed.has_empty_constraint

    @given(
        st.dictionaries(
            st.sampled_from([("a", "b"), ("a", "c"), ("b", "c")]),
            relations,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_closure_is_pointwise_contained(self, constraints):
        n = QCN(["a", "b", "c"], constraints)
        closed = algebraic_closure(n)
        for u, v in n.pairs():
            assert closed.constraint(u, v) <= n.constraint(u, v)
            assert closed.constraint(u, v).converse() == closed.constraint(v, u)

    def test_closure_never_drops_realizable_bases(self):
        rng = random.Random(20240817)
        for _ in range(120):
            constraints = {
                pair: Relation.from_mask(rng.randrange(1, 32))
                for pair in [("a", "b"), ("a", "c"), ("b", "c")]
            }
            n = QCN(["a", "b", "c"], constraints)
            closed = algebraic_closure(n)
            realizable = oracles.realizable_bases_3var(n, universe_size=7)
            for pair, bases in realizable.items():
                assert bases <= closed.constraint(*pair), (constraints, pair)


class TestConsistency:
    def test_single_variable_is_consistent(self):
        assert is_consistent(QCN(["a"]))

    def test_unconstrained_network_is_consistent(self):
        assert is_consistent(QCN(["a", "b", "c", "d"]))

    def test_empty_constraint_is_inconsistent(self):
        assert not is_consistent(QCN(["a", "b"], {("a", "b"): EMPTY}))

    def test_matches_brute_force_on_random_networks(self):
        rng = random.Random(7312)
        for _ in range(80):
            constraints = {
                pair: Relation.from_mask(rng.randrange(1, 32))
                for pair in [("a", "b"), ("a", "c"), ("b", "c")]
            }
            n = QCN(["a", "b", "c"], constraints)
            assert is_consistent(n) == oracles.satisfiable_3var(n), constraints


class TestFindSetModel:
    def test_disjoint_pair(self):
        model = find_set_model(QCN(["v1", "v2"], {("v1", "v2"): rel(DR)}), 2)
        assert model is not None
        assert not model.assignment["v1"] & model.assignment["v2"]

    def test_mutual_proper_part_has_no_model(self):
        n = QCN(["v1", "v2"], [(("v1", "v2"), rel(PP)), (("v2", "v1"), rel(PP))])
        assert find_set_model(n, 4) is None

    def test_model_satisfies_network(self):
        n = QCN(
            ["a", "b", "c"],
            {("a", "b"): rel(PP), ("b", "c"): rel(PO), ("a", "c"): rel(DR, PO)},
        )
        model = find_set_model(n, 4)
        assert model is not None
        assert model.satisfies(n)

    def test_agrees_with_consistency_on_sampled_atomic_networks(self):
        triples = list(itertools.product(BaseRelation, repeat=3))
        rng = random.Random(99)
        for b1, b2, b3 in rng.sample(triples, 25):
            n = QCN(
                ["x", "y", "z"],
                {("x", "y"): rel(b1), ("y", "z"): rel(b2), ("x", "z"): rel(b3)},
            )
            assert (find_set_model(n, 7) is not None) == is_consistent(n)


class TestSetInterpretation:
    def test_rejects_empty_region(self):
        with pytest.raises(ValueError):
            SetInterpretation((0, 1), {"a": frozenset()})

    def test_relation_between(self):
        interp = SetInterpretation(
            (0, 1, 2), {"a": frozenset({0}), "b": frozenset({0, 1}), "c": frozenset({2})}
        )
        assert interp.relation_between("a", "b") == PP
        assert interp.relation_between("b", "a") == PPi
        assert interp.relation_between("a", "c") == DR


def _oracle_scenarios(n: QCN) -> set[tuple[int, ...]]:
    """Maximal quasi-atomic boxes computed via the brute-force oracle."""
    pair_names = list(n.pairs())
    options = []
    for u, v in pair_names:
        mask = n.constraint(u, v).mask
        labels = [b.value for b in BaseRelation if b.value & mask]
        for quasi in (PP.value | EQ.value, PPi.value | EQ.value):
            if quasi & mask == quasi:
                labels.append(quasi)
        options.append(labels)
    boxes = []
    for combo in itertools.product(*options):
        refinements = itertools.product(
            *[[b for b in (1, 2, 4, 8, 16) if b & label] for label in combo]
        )
        all_ok = True
        for refinement in refinements:
            atomic = QCN(
                n.variables,
                {
                    pair: Relation.from_mask(mask)
                    for pair, mask in zip(pair_names, refinement)
                },
            )
            if not oracles.satisfiable_3var(atomic, universe_size=7):
                all_ok = False
                break
        if all_ok:
            boxes.append(combo)
    return {
        box
        for box in boxes
        if not any(
            other != box and all(b & ~o == 0 for b, o in zip(box, other)) for other in boxes
        )
    }


class TestEnumerateScenarios:
    def test_atomic_network_returns_itself(self):
        n = QCN(
            ["x", "y", "z"],
            {("x", "y"): rel(PP), ("y", "z"): rel(PP), ("x", "z"): rel(PP)},
        )
        scenarios = enumerate_scenarios(n)
        assert len(scenarios) == 1
        assert scenarios[0] == Scenario.from_qcn(n)

    def test_two_variable_pair_keeps_quasi_label(self):
        n = QCN(["a", "b"], {("a", "b"): rel(PP, EQ)})
        scenarios = enumerate_scenarios(n)
        assert [s.constraint("a", "b") for s in scenarios] == [rel(PP, EQ)]

    def test_inconsistent_network_yields_nothing(self):
        n = QCN(["a", "b"], {("a", "b"): EMPTY})
        assert enumerate_scenarios(n) == []

    def test_scenarios_are_consistent_subnetworks(self):
        n = QCN(
            ["a", "b", "c"],
            {("a", "b"): rel(PP, EQ), ("a", "c"): rel(DR, PO), ("b", "c"): UNIVERSAL},
        )
        scenarios = enumerate_scenarios(n)
        assert scenarios
        for s in scenarios:
            assert is_consistent(s)
            for u, v in s.pairs():
                assert s.constraint(u, v) <= n.constraint(u, v)

    def test_matches_brute_force_boxes(self):
        rng = random.Random(4242)
        for _ in range(15):
            constraints = {
                pair: Relation.from_mask(rng.randrange(1, 32))
                for pair in [("a", "b"), ("a", "c"), ("b", "c")]
            }
            n = QCN(["a", "b", "c"], constraints)
            got = {
                tuple(s.constraint(u, v).mask for u, v in s.pairs())
                for s in enumerate_scenarios(n)
            }
            assert got == _oracle_scenarios(n), constraints

    def test_deterministic_order(self):
        n = QCN(["a", "b", "c"], {("a", "b"): rel(PP, EQ)})
        first = [s.to_json_dict() for s in enumerate_scenarios(n)]
        second = [s.to_json_dict() for s in enumerate_scenarios(n)]
        assert first == second
