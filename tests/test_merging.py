import itertools
import random

import pytest

from ontomerge.distance import distance_table
from ontomerge.merging import merge, relax, val
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
    is_consistent,
)

import oracles


def rel(*bases):
    return Relation(bases)


def col(table, u, v):
    """The (u, v) distance column in `BaseRelation` order, as `relax` and `val` take it."""
    column = table.column(u, v)
    return tuple(column[b] for b in BaseRelation)


@pytest.fixture(scope="module")
def running_table(pipeline):
    return pipeline.trace.table


class TestRelax:
    def test_from_empty_picks_minimal_bases(self, running_table):
        assert relax(EMPTY, col(running_table, "B", "D")) == rel(PP, EQ)

    def test_from_empty_keeps_every_tied_base(self):
        # source 1 gives {PP,EQ}, source 2 gives {DR}: DR, PO and PP are 2 away
        a = QCN(["A", "B"], {("A", "B"): rel(PP, EQ)})
        b = QCN(["A", "B"], {("A", "B"): rel(DR)})
        assert relax(EMPTY, col(distance_table([a, b]), "A", "B")) == rel(DR, PO, PP)

    def test_adds_next_closest_layer(self, running_table):
        assert relax(rel(PP, EQ), col(running_table, "B", "D")) == rel(PO, PP, PPi, EQ)

    def test_full_stays_full(self, running_table):
        assert relax(UNIVERSAL, col(running_table, "B", "D")) == UNIVERSAL

    def test_respects_orientation(self, running_table):
        # on the flipped pair the same step adds the converses
        assert relax(EMPTY, col(running_table, "D", "B")) == rel(PPi, EQ)


class TestVal:
    def test_contested_pair(self, running_table):
        assert val(rel(PP, EQ), col(running_table, "B", "D")) == 3

    def test_consensual_pair(self, running_table):
        assert val(rel(PPi, EQ), col(running_table, "T", "P")) == 0

    def test_initial_paper_document_constraint(self, running_table):
        assert val(rel(DR, PO, PPi), col(running_table, "P", "D")) == 4

    def test_empty_constraint_rejected(self, running_table):
        with pytest.raises(ValueError):
            val(EMPTY, col(running_table, "B", "D"))


class TestMergeRunningExample:
    def test_initial_network(self, pipeline):
        initial = pipeline.trace.initial
        assert initial.constraint("T", "P") == rel(PPi, EQ)
        assert initial.constraint("T", "B") == rel(DR, PO, PP)
        assert initial.constraint("T", "D") == rel(DR)
        assert initial.constraint("P", "B") == rel(PP, EQ)
        assert initial.constraint("P", "D") == rel(DR, PO, PPi)
        assert initial.constraint("B", "D") == rel(PP, EQ)

    def test_two_iterations(self, pipeline):
        trace = pipeline.trace
        assert len(trace.iterations) == 2
        first, second = trace.iterations
        assert first.relaxed_pairs == (("D", "P"),)
        assert first.value == 4
        assert first.snapshot.constraint("P", "D") == UNIVERSAL
        assert second.relaxed_pairs == (("B", "D"),)
        assert second.value == 3
        assert second.snapshot.constraint("B", "D") == rel(PO, PP, PPi, EQ)

    def test_intermediate_networks_are_still_inconsistent(self, pipeline):
        trace = pipeline.trace
        assert not is_consistent(trace.initial)
        assert not is_consistent(trace.iterations[0].snapshot)

    def test_final_is_consistent_and_monotone(self, pipeline):
        trace = pipeline.trace
        assert is_consistent(trace.final)
        networks = [trace.initial] + [it.snapshot for it in trace.iterations]
        for before, after in zip(networks, networks[1:]):
            for u, v in itertools.combinations(before.variables, 2):
                assert before.constraint(u, v) <= after.constraint(u, v)
        assert trace.final == networks[-1]

    def test_trace_serializes(self, pipeline):
        data = pipeline.trace.to_json_dict()
        assert [it["index"] for it in data["iterations"]] == [1, 2]
        assert data["iterations"][0]["relaxed_pairs"] == [["D", "P"]]


class TestMergeProperties:
    def test_rejects_empty_profile(self):
        with pytest.raises(ValueError):
            merge([])

    def test_single_consistent_source_is_returned_unchanged(self):
        source = QCN(["A", "B"], {("A", "B"): rel(PP, EQ)})
        merged, trace = merge([source])
        assert merged == source
        assert trace.iterations == ()

    def test_identical_atomic_profiles_merge_to_themselves(self):
        rng = random.Random(5150)
        for _ in range(25):
            regions = oracles.random_region_interpretation(rng, ["A", "B", "C", "D"], 4)
            source = oracles.atomic_qcn_of_regions(regions)
            merged, trace = merge([source] * 3)
            assert merged == source
            assert trace.iterations == ()

    def test_unanimous_pairs_survive(self):
        # both sources agree on (A, B); they disagree elsewhere
        a = QCN(["A", "B", "C"], {("A", "B"): rel(PP), ("A", "C"): rel(DR)})
        b = QCN(["A", "B", "C"], {("A", "B"): rel(PP), ("A", "C"): rel(PP, EQ)})
        merged, _ = merge([a, b])
        assert merged.constraint("A", "B") == rel(PP)

    def test_output_contains_initial_minimum(self):
        rng = random.Random(777)
        for _ in range(15):
            profile = []
            for _ in range(3):
                regions = oracles.random_region_interpretation(rng, ["A", "B", "C"], 3)
                profile.append(oracles.atomic_qcn_of_regions(regions))
            merged, trace = merge(profile)
            assert is_consistent(merged)
            table = distance_table(profile)
            for pair in table.columns:
                column = table.column(*pair)
                best = min(column.values())
                assert rel(*(b for b, d in column.items() if d == best)) <= merged.constraint(*pair)
            assert len(trace.iterations) <= 4 * len(table.columns)

    def test_conflicting_sources_relax_until_consistent(self):
        a = QCN(["A", "B"], {("A", "B"): rel(DR)})
        b = QCN(["A", "B"], {("A", "B"): rel(EQ)})
        merged, _ = merge([a, b])
        assert is_consistent(merged)

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge([QCN(["A", "B"]), QCN(["A", "C"])])

    def test_matches_reference_merge_on_random_profiles(self):
        # labels come from every mask, the empty one included, so sources
        # contradict themselves on some pairs; each source orders the variables its own way
        rng = random.Random(2020)
        seen = {"empty entry": False, "two rounds": False, "tied pairs": False}
        for _ in range(150):
            names = [f"v{i}" for i in range(rng.randint(3, 6))]
            profile = []
            for _ in range(rng.randint(1, 4)):
                order = rng.sample(names, len(names))
                constraints = {
                    pair: Relation.from_mask(rng.randrange(32))
                    for pair in itertools.combinations(order, 2)
                    if rng.random() < 0.6
                }
                profile.append(QCN(order, constraints))
            merged, trace = merge(profile)
            want, initial, rounds = oracles.reference_merge(profile)
            got = [(it.index, it.value, it.relaxed_pairs, it.snapshot) for it in trace.iterations]
            assert (merged, trace.initial, got) == (want, initial, rounds)
            seen["empty entry"] |= any(qcn.has_empty_constraint for qcn in profile)
            seen["two rounds"] |= len(rounds) >= 2
            seen["tied pairs"] |= any(len(pairs) >= 2 for _, _, pairs, _ in rounds)
        assert all(seen.values()), seen
