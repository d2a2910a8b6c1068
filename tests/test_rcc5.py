import copy
import itertools
import pickle
import random
import re
import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import rcc5
from ontomerge.rcc5 import (
    _close,
    _put,
    EMPTY,
    EQ,
    PO,
    PP,
    DR,
    PPi,
    SCENARIO_LABELS,
    UNIVERSAL,
    BaseRelation,
    QCN,
    MaximalScenarios,
    Relation,
    Scenario,
    algebraic_closure,
    compose,
    converse,
    enumerate_scenarios,
    is_consistent,
    qcn_from_json,
    qcn_to_dot,
    qcn_to_json,
)

import oracles
from oracles import (
    SetInterpretation,
    _atomic_refinements,
    find_set_model,
    generate_composition_table,
)

relations = st.builds(Relation.from_mask, st.integers(min_value=0, max_value=31))


def rel(*bases: Relation) -> Relation:
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
        assert Relation(rel(PP, EQ)) is rel(PP, EQ)
        # the base relations are the singletons, in the order DR, PO, PP, PPi, EQ
        assert [b.mask for b in BaseRelation] == [1, 2, 4, 8, 16]
        for b in BaseRelation:
            assert Relation([b]) is b
            assert Relation.from_mask(b.mask) is b
            assert Relation.from_names([b.name]) is b
            assert list(b) == [b]
        # equality is identity, so copies and pickles must come back interned
        for mask in range(32):
            r = Relation.from_mask(mask)
            assert copy.copy(r) is r and copy.deepcopy(r) is r
            assert pickle.loads(pickle.dumps(r)) is r

    def test_members_must_be_relations(self):
        with pytest.raises(TypeError):
            Relation([PP, "EQ"])

    def test_from_names_rejects_unknown(self):
        with pytest.raises(ValueError):
            Relation.from_names(["XX"])

    def test_label_tables_match_base_relation_names(self):
        for mask in range(32):
            names = tuple(b.name for b in BaseRelation if b.mask & mask)
            assert Relation.from_mask(mask).names() == names
            assert Relation.from_mask(mask).name == ",".join(names)
            assert repr(Relation.from_mask(mask)) == "{" + ",".join(names) + "}"


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
        relations = [Relation.from_mask(mask) for mask in range(32)]
        for r1, r2 in itertools.product(relations, repeat=2):
            union = Relation(compose(b1, b2) for b1 in r1 for b2 in r2)
            assert compose(r1, r2) is union, (r1, r2)
        assert compose(UNIVERSAL, UNIVERSAL) is UNIVERSAL
        assert compose(EMPTY, UNIVERSAL) is EMPTY

    def test_mask_table_matches_reference_loop(self):
        reference = oracles.reference_comp_masks()
        for m1, m2 in itertools.product(range(32), repeat=2):
            assert rcc5._COMP_MASK[m1][m2] == reference[m1][m2], (m1, m2)
        assert len(rcc5._COMP_MASK) == 32 and all(len(row) == 32 for row in rcc5._COMP_MASK)

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
        n = QCN(["a", "b", "c"], {("c", "a"): rel(DR, PO, PPi), ("a", "c"): rel(PO, PPi, EQ)})
        assert (n.constraint("a", "c"), n.constraint("c", "a")) == (rel(PO), rel(PO))
        assert n.constraint("a", "b") == UNIVERSAL

    def test_self_pair_rejected(self):
        n = QCN(["a", "b"])
        with pytest.raises(ValueError):
            n.constraint("a", "a")
        with pytest.raises(ValueError, match=r"relate distinct variables, got \('b', 'b'\)"):
            QCN(["a", "b"], [(("a", "b"), rel(DR)), (("b", "b"), rel(EQ))])

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="^variable 'a' repeated in the signature$"):
            QCN(["a", "b", "a"])

    @pytest.mark.parametrize("pair", [("X", "b"), ("a", "X")])
    def test_unknown_variable_rejected(self, pair):
        for constraints in ({("a", "b"): rel(DR), pair: rel(PO)}, [(("a", "b"), rel(DR)), (pair, rel(PO))]):
            with pytest.raises(KeyError) as caught:
                QCN(["a", "b"], constraints)
            assert caught.value.args == ("unknown variable: 'X'",)

    def test_updated_replaces(self):
        n = QCN(["a", "b"], {("a", "b"): rel(DR)})
        assert n.updated({("a", "b"): UNIVERSAL}).constraint("a", "b") == UNIVERSAL

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
        with pytest.raises(ValueError, match="not quasi-atomic"):
            Scenario.from_qcn(QCN(["a", "b"], {("a", "b"): rel(DR, PO)}))

    @pytest.mark.parametrize(
        "bad, message",
        [
            # the first offending pair in row order, whichever orientation was given
            ({("d", "c"): rel(DR, PO), ("b", "a"): rel(PO, EQ)}, "constraint (a, b) is {PO,EQ}"),
            ({("c", "b"): rel(PP, PPi)}, "constraint (b, c) is {PP,PPi}"),
            # the last pair of the matrix
            ({("d", "c"): rel(PP, EQ, DR)}, "constraint (c, d) is {DR,PPi,EQ}"),
            ({("c", "d"): UNIVERSAL}, "constraint (c, d) is {DR,PO,PP,PPi,EQ}"),
        ],
    )
    def test_names_the_first_offending_pair(self, bad, message):
        variables = ["a", "b", "c", "d"]
        labels = {pair: rel(DR) for pair in itertools.combinations(variables, 2)}
        for pair, label in bad.items():
            labels.pop(tuple(sorted(pair)))
            labels[pair] = label
        expected = "^not quasi-atomic: " + re.escape(message) + "$"
        with pytest.raises(ValueError, match=expected):
            Scenario(variables, labels)
        with pytest.raises(ValueError, match=expected):
            Scenario.from_qcn(QCN(variables, labels))

    def test_updated_returns_a_plain_network(self):
        # an update may leave the quasi-atomic class, so it is no Scenario
        s = Scenario(["a", "b"], {("a", "b"): rel(DR)})
        wider = s.updated({("a", "b"): rel(DR, PO)})
        assert type(wider) is QCN
        assert wider.constraint("a", "b") == rel(DR, PO)
        assert type(s.refined("a", "b", rel(DR))) is QCN


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
        for u, v in itertools.combinations(n.variables, 2):
            assert closed.constraint(u, v) <= n.constraint(u, v)
            assert closed.constraint(u, v).converse == closed.constraint(v, u)

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

    def test_close_matches_reference_on_random_networks(self):
        # full closes, and closes from one pair after fixing it to one atom
        # as every search node does; matrices are compared when consistent
        rng = random.Random(1187)
        verdicts = {"full": set(), "single": set()}
        for _ in range(300):
            size = rng.randint(2, 8)
            m = _random_matrix(rng, size, rng.random())
            closed = _close_agrees(verdicts["full"], m, size)
            if closed is None:
                continue
            for i, j in itertools.combinations(range(size), 2):
                if closed[i][j].bit_count() > 1:
                    for b in Relation.from_mask(closed[i][j]):
                        child = [row[:] for row in closed]
                        _put(child, i, j, b.mask)
                        _close_agrees(verdicts["single"], child, size, (i, j))
        assert verdicts == {"full": {True, False}, "single": {True, False}}

    def test_universal_constraints_narrow_nothing(self):
        # the identity that lets _close skip a universal r_ab or r_bk
        for mask in range(1, 32):
            assert rcc5._COMP_MASK[mask][UNIVERSAL.mask] == UNIVERSAL.mask
            assert rcc5._COMP_MASK[UNIVERSAL.mask][mask] == UNIVERSAL.mask

    def test_close_matches_reference_on_sparse_networks(self):
        # 80-95% of the pairs universal, as in merged networks of many
        # concepts.  Labels lack PO, like those the consistency search
        # splits, and every open pair is fixed to each of its atoms in turn,
        # as are two universal pairs per network.
        rng = random.Random(5309)
        without_po = [mask for mask in range(1, 32) if not mask & PO.mask]
        verdicts = {"full": set(), "single": set()}
        for _ in range(60):
            size = rng.randint(10, 30)
            m = _random_matrix(rng, size, rng.uniform(0.80, 0.95), without_po)
            closed = _close_agrees(verdicts["full"], m, size)
            if closed is None:
                continue
            wide = [(i, j) for i, j in itertools.combinations(range(size), 2) if closed[i][j].bit_count() > 1]
            universal = [(i, j) for i, j in wide if closed[i][j] == UNIVERSAL.mask]
            fixed = [(i, j) for i, j in wide if closed[i][j] != UNIVERSAL.mask] + rng.sample(universal, 2)
            for i, j in fixed:
                for b in Relation.from_mask(closed[i][j]):
                    child = [row[:] for row in closed]
                    _put(child, i, j, b.mask)
                    _close_agrees(verdicts["single"], child, size, (i, j))
        assert verdicts == {"full": {True, False}, "single": {True, False}}


def _random_matrix(rng, size, universal, labels=range(1, 32)):
    """A mask matrix in which each pair stays universal with probability
    `universal` and otherwise draws from `labels`; one pair in ten networks
    is empty."""
    m = [[EQ.mask if i == j else UNIVERSAL.mask for j in range(size)] for i in range(size)]
    for i, j in itertools.combinations(range(size), 2):
        if rng.random() >= universal:
            _put(m, i, j, rng.choice(labels))
    if rng.random() < 0.1:
        _put(m, *rng.sample(range(size), 2), 0)
    return m


def _close_agrees(verdicts, m, size, pair=None):
    """Close copies of `m` with `_close` and `reference_close`, optionally
    from one queued pair; the verdicts agree, and so do the matrices when
    closed.  Adds the verdict to `verdicts`; returns the closed matrix or None."""
    mine, theirs = [row[:] for row in m], [row[:] for row in m]
    got = _close(mine, size, None if pair is None else deque([pair]))
    want = oracles.reference_close(theirs, size, None if pair is None else deque([pair]))
    assert got == want, (m, pair)
    if got:
        assert mine == theirs, (m, pair)
    verdicts.add(got)
    return theirs if got else None


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

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        assert is_consistent(QCN([f"v{i}" for i in range(60)]))

    def test_deep_search_runs_under_a_low_recursion_limit(self):
        # closure never narrows {DR,EQ}, which lacks PO, so the search fixes
        # one pair per level: 1,770 levels, against 200 frames of headroom
        names = [f"v{i}" for i in range(60)]
        n = QCN(names, {pair: rel(DR, EQ) for pair in itertools.combinations(names, 2)})
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 200)
        try:
            assert is_consistent(n)
        finally:
            sys.setrecursionlimit(limit)

    def test_atomic_refinements_match_closure_of_each_candidate(self):
        # path consistency decides atomic RCC-5 networks, so closing every
        # atomic candidate by itself is an oracle independent of the search
        rng = random.Random(5150)
        networks = []
        for _ in range(20):
            pairs = itertools.combinations("abcd", 2)
            networks.append({pair: rng.randrange(1, 32) for pair in pairs})
        # five variables, where fixing a pair empties a constraint during the search
        for masks in ((14, 3, 2, 4, 17, 25, 19, 12, 3, 2), (10, 2, 18, 30, 12, 3, 9, 12, 17, 28)):
            networks.append(dict(zip(itertools.combinations("abcde", 2), masks)))
        for masks in networks:
            constraints = {pair: Relation.from_mask(mask) for pair, mask in masks.items()}
            variables = sorted({v for pair in constraints for v in pair})
            n = QCN(variables, constraints)
            expected = set()
            for combo in itertools.product(*(rel.members for rel in constraints.values())):
                atomic = QCN(variables, dict(zip(constraints, (Relation([b]) for b in combo))))
                if not algebraic_closure(atomic).has_empty_constraint:
                    expected.add(tuple(b.mask for b in combo))
            pair_list, solutions = _atomic_refinements(n)
            assert pair_list == list(itertools.combinations(range(len(variables)), 2))
            assert len(solutions) == len(set(solutions)), masks
            assert set(solutions) == expected, masks
            assert is_consistent(n) == bool(expected), masks


class TestConsistencyWithOpenPOLabels:
    """A closed, non-empty network whose open labels all contain PO is consistent."""

    def test_po_composes_to_every_relation(self):
        assert compose(PO, PO) == UNIVERSAL

    def test_po_is_in_every_composition_with_po(self):
        for b in BaseRelation:
            assert PO in compose(PO, b)
            assert PO in compose(b, PO)

    def test_cycle_law(self):
        for b1, b2, b3 in itertools.product(BaseRelation, repeat=3):
            forward = b3 in compose(b1, b2)
            assert forward == (b1 in compose(b3, b2.converse)), (b1, b2, b3)
            assert forward == (b2 in compose(b1.converse, b3)), (b1, b2, b3)

    def test_closed_network_can_still_be_inconsistent(self):
        labels = {
            "ab": (DR, PPi, EQ), "ac": (PP, PPi), "ad": (DR, EQ), "ae": (PP, PPi),
            "bc": (DR, PPi), "bd": (PO, PP, PPi, EQ), "be": (DR, PO, PPi, EQ),
            "cd": (PP, PPi), "ce": (DR, PP, EQ), "de": (DR, PP),
        }
        n = QCN("abcde", {(u, v): rel(*bases) for (u, v), bases in labels.items()})
        assert algebraic_closure(n) == n
        assert not n.has_empty_constraint
        assert is_consistent(n) is False
        assert _atomic_refinements(n)[1] == []

    def test_agrees_with_the_atomic_search(self):
        rng = random.Random(2001)
        verdicts = set()
        split_needed = 0
        for _ in range(200):
            names = [f"v{i}" for i in range(rng.randint(4, 7))]
            pairs = itertools.combinations(names, 2)
            n = QCN(names, {pair: Relation.from_mask(rng.randrange(1, 32)) for pair in pairs})
            verdict = is_consistent(n)
            assert verdict == bool(_atomic_refinements(n)[1]), n
            verdicts.add(verdict)
            closed = algebraic_closure(n)
            if not closed.has_empty_constraint and any(
                len(label) > 1 and PO not in label for _, _, label in closed.items()
            ):
                split_needed += 1
        assert verdicts == {True, False}
        assert split_needed > 0

    def test_open_po_labels_need_no_branch(self, monkeypatch):
        calls = []
        branches = rcc5._branches

        def counting(*args):
            calls.append(args[2:])
            return branches(*args)

        monkeypatch.setattr(rcc5, "_branches", counting)
        rng = random.Random(40)
        with_po = [mask for mask in range(32) if mask & PO.mask]
        names = [f"v{i}" for i in range(40)]
        pairs = itertools.combinations(names, 2)
        n = QCN(names, {pair: Relation.from_mask(rng.choice(with_po)) for pair in pairs})
        assert is_consistent(n)
        assert calls == []


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
    pair_names = list(itertools.combinations(n.variables, 2))
    options = []
    for u, v in pair_names:
        mask = n.constraint(u, v).mask
        labels = [b.mask for b in BaseRelation if b.mask & mask]
        for quasi in (PP.mask | EQ.mask, PPi.mask | EQ.mask):
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
            for u, v in itertools.combinations(s.variables, 2):
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
                tuple(s.constraint(u, v).mask for u, v in itertools.combinations(s.variables, 2))
                for s in enumerate_scenarios(n)
            }
            assert got == _oracle_scenarios(n), constraints

    def test_triangle_table_matches_closure_of_each_atomic_triangle(self):
        # label a on (x, y), b on (x, z), c on (y, z), over all 7^3 label triples
        sides = [("x", "y"), ("x", "z"), ("y", "z")]
        verdicts = set()
        for a, b, c in itertools.product(SCENARIO_LABELS, repeat=3):
            expected = all(
                not algebraic_closure(QCN("xyz", zip(sides, map(rel, atoms)))).has_empty_constraint
                for atoms in itertools.product(a, b, c)
            )
            assert bool(rcc5._ALLOWED[a.mask][b.mask] >> c.mask & 1) == expected, (a, b, c)
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_single_pair_widens_towards_the_inverse(self):
        n = QCN(["a", "b"], {("a", "b"): rel(PPi, EQ)})
        assert [s.constraint("a", "b") for s in enumerate_scenarios(n)] == [rel(PPi, EQ)]

    def test_equal_widens_both_ways(self):
        n = QCN(["a", "b"], {("a", "b"): rel(PP, PPi, EQ)})
        labels = [s.constraint("a", "b") for s in enumerate_scenarios(n)]
        assert labels == [rel(PP, EQ), rel(PPi, EQ)]

    def test_two_independent_pairs_merge_over_two_levels(self):
        constraints = {pair: rel(DR) for pair in itertools.product("ab", "cd")}
        constraints.update({("a", "b"): rel(PP, EQ), ("c", "d"): rel(PP, EQ)})
        n = QCN(["a", "b", "c", "d"], constraints)
        assert enumerate_scenarios(n) == [Scenario.from_qcn(n)]

    def test_matches_reference_on_random_networks(self):
        rng = random.Random(2718)
        networks = [QCN("abcd")]
        for size, count in ((4, 200), (5, 20)):
            variables = "abcde"[:size]
            for _ in range(count):
                constraints = {
                    pair: Relation.from_mask(rng.randrange(1, 32))
                    for pair in itertools.combinations(variables, 2)
                }
                networks.append(QCN(variables, constraints))
        widest = 0
        for n in networks:
            scenarios = enumerate_scenarios(n)
            assert scenarios == oracles.reference_scenarios(n), n
            assert scenarios == oracles.levelwise_scenarios(n), n
            for s in scenarios:
                wide = sum(len(r) == 2 for _, _, r in s.items())
                widest = max(widest, wide)
        # the sample reaches boxes with two wide labels
        assert widest >= 2

    @pytest.mark.parametrize("size, count", [(3, 48), (4, 1005), (5, 43630)])
    def test_universal_network_counts(self, size, count):
        assert len(enumerate_scenarios(QCN("abcde"[:size]))) == count

    def test_deterministic_order(self):
        n = QCN(["a", "b", "c"], {("a", "b"): rel(PP, EQ)})
        first = [s.to_json_dict() for s in enumerate_scenarios(n)]
        second = [s.to_json_dict() for s in enumerate_scenarios(n)]
        assert first == second


class TestMaximalScenarios:
    def test_membership_matches_the_listing_for_every_3_variable_scenario(self, monkeypatch):
        rng = random.Random(577)
        variables = ("b", "c", "a")
        pairs = list(itertools.combinations(variables, 2))
        boxes = [
            QCN(variables, dict(zip(pairs, labels))) for labels in itertools.product(SCENARIO_LABELS, repeat=3)
        ]
        networks = [QCN(variables), QCN(variables, {pairs[0]: rel(EQ), pairs[1]: rel(EQ), pairs[2]: rel(DR)})]
        networks += [
            QCN(variables, {pair: Relation.from_mask(rng.randrange(1, 32) | rng.randrange(1, 32)) for pair in pairs})
            for _ in range(60)
        ]
        members = 0
        for network in networks:
            listed = set(enumerate_scenarios(network))
            view = MaximalScenarios(network)
            with monkeypatch.context() as patch:  # membership lists nothing
                patch.setattr(rcc5, "enumerate_scenarios", None)
                assert [box in view for box in boxes] == [box in listed for box in boxes], network
            members += len(listed)
            # another variable order or a non-network is never a member
            assert all(Scenario(variables[::-1], {(u, v): r for u, v, r in s.items()}) not in view for s in listed)
            assert "a" not in view
        assert members >= 200

    def test_lists_once_on_iteration_indexing_or_counting(self, monkeypatch):
        network = QCN(["a", "b", "c"], {("a", "b"): rel(PP, EQ)})
        calls = []
        monkeypatch.setattr(rcc5, "enumerate_scenarios", lambda n: calls.append(n) or enumerate_scenarios(n))
        view = MaximalScenarios(network)
        assert calls == [] and view == MaximalScenarios(network)
        assert list(view) == enumerate_scenarios(network)
        assert len(view) == len(enumerate_scenarios(network)) and view[0] == enumerate_scenarios(network)[0]
        assert view.index(view[-1]) == len(view) - 1
        assert calls == [network]
