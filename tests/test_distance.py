import itertools
import random

import pytest

from ontomerge.distance import (
    _DIST,
    NEIGHBORHOOD_EDGES,
    distance_table,
    render_distance_table,
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
)

from ontomerge.ontology import parse_ontology
from ontomerge.translate import forward

from oracles import reference_dist_rows, reference_distance_table


def rel(*bases):
    return Relation(bases)


def pair_column(*entries):
    """The (A, B) distance column of a profile with one source per entry."""
    return distance_table([QCN(["A", "B"], {("A", "B"): entry}) for entry in entries]).column("A", "B")


def test_distance_rows_match_shortest_paths():
    assert _DIST == reference_dist_rows()


class TestBaseDistance:
    def test_graph_has_five_edges(self):
        assert len(NEIGHBORHOOD_EDGES) == 5

    def test_neighbors_are_one_apart(self):
        assert pair_column(PO)[DR] == 1

    def test_disjoint_to_equal_is_three(self):
        assert pair_column(EQ)[DR] == 3

    def test_part_to_inverse_part_is_two(self):
        assert pair_column(PPi)[PP] == 2

    def test_metric_properties(self):
        d = {b: pair_column(b) for b in BaseRelation}
        for a, b in itertools.product(BaseRelation, repeat=2):
            assert d[b][a] == d[a][b]
            assert (d[b][a] == 0) == (a == b)
        for a, b, c in itertools.product(BaseRelation, repeat=3):
            assert d[c][a] <= d[b][a] + d[c][b]

    def test_values_bounded_by_three(self):
        assert all(0 <= pair_column(b)[a] <= 3 for a, b in itertools.product(BaseRelation, repeat=2))


class TestConstraintDistance:
    def test_takes_the_minimum(self):
        assert pair_column(rel(PPi, EQ))[PP] == 1

    def test_full_set_costs_nothing(self):
        assert pair_column(UNIVERSAL)[PP] == 0

    def test_membership_costs_nothing(self):
        for b in BaseRelation:
            assert pair_column(b)[b] == 0

    def test_empty_constraint_costs_nothing(self):
        assert pair_column(EMPTY)[PP] == 0


class TestProfileDistance:
    # the (T, D) profile of the running example
    TD_PROFILE = [rel(DR), UNIVERSAL, rel(PPi, EQ), rel(DR)]

    def test_sums_entries(self):
        assert pair_column(*self.TD_PROFILE)[PP] == 5

    def test_disjoint_row(self):
        assert pair_column(*self.TD_PROFILE)[DR] == 2

    def test_all_full_profile_is_free(self):
        assert set(pair_column(*[UNIVERSAL] * 4).values()) == {0}

    def test_zero_iff_member_of_every_entry(self):
        entries = [rel(PP, EQ), rel(PP), rel(PP, PO)]
        column = pair_column(*entries)
        for b in BaseRelation:
            expected = all(b in e for e in entries)
            assert (column[b] == 0) == expected


def _profile_qcns():
    """Two-source profile with a contested pair and an empty constraint."""
    a = QCN(["A", "B", "C"], {("A", "B"): rel(PP, EQ), ("A", "C"): EMPTY})
    b = QCN(["C", "B", "A"], {("A", "B"): rel(DR)})
    return [a, b]


class TestDistanceTable:
    def test_requires_shared_variable_set(self):
        with pytest.raises(ValueError):
            distance_table([QCN(["A", "B"]), QCN(["A", "C"])])

    def test_requires_nonempty_profile(self):
        with pytest.raises(ValueError):
            distance_table([])

    def test_columns_are_canonical_and_convertible(self):
        table = distance_table(_profile_qcns())
        ab = table.column("A", "B")
        ba = table.column("B", "A")
        assert ab[PP] == ba[PPi]
        assert ab[PPi] == ba[PP]
        assert ab[DR] == ba[DR]

    def test_known_cells(self):
        table = distance_table(_profile_qcns())
        column = table.column("A", "B")
        # source 1 gives {PP,EQ}, source 2 gives {DR}
        assert column[DR] == 2
        assert column[PO] == 2
        assert column[PP] == 2
        assert column[PPi] == 3
        assert column[EQ] == 3

    def test_empty_entries_are_flagged_and_free(self):
        # forward flags the pair a source empties; the table charges it nothing
        translation = forward(parse_ontology("A <= B\nA <= C\nA & C <= bot\n"))
        assert translation.qcn == _profile_qcns()[0]
        assert translation.conflicting_pairs == (("A", "C"),)
        table = distance_table(_profile_qcns())
        assert table.column("A", "C")[EQ] == 0

    def test_unknown_pair(self):
        table = distance_table(_profile_qcns())
        with pytest.raises(KeyError):
            table.column("A", "Z")

    def test_matches_reference_on_random_profiles(self):
        # labels come from a small pool, and most pairs stay universal, so
        # columns repeat; each source lists the variables in its own order
        rng = random.Random(3301)
        pool = (0, 0b00001, 0b00110, 0b10100, 0b11111)
        seen = {"repeated column": False, "empty entry": False}
        for _ in range(200):
            names = [f"v{i}" for i in range(rng.randint(3, 8))]
            profile = []
            for _ in range(rng.randint(1, 4)):
                order = rng.sample(names, len(names))
                constraints = {
                    pair: Relation.from_mask(rng.choice(pool))
                    for pair in itertools.combinations(order, 2)
                    if rng.random() < 0.4
                }
                profile.append(QCN(order, constraints))
            got, want = distance_table(profile), reference_distance_table(profile)
            assert (list(got.columns), got.columns) == (list(want.columns), want.columns)
            seen["repeated column"] |= len(set(got.columns.values())) < len(got.columns)
            seen["empty entry"] |= any(qcn.has_empty_constraint for qcn in profile)
        assert all(seen.values()), seen


class TestRendering:
    def test_text_layout(self):
        table = distance_table(_profile_qcns())
        text = render_distance_table(table)
        lines = text.splitlines()
        assert lines[0].split() == ["relation", "A-B", "A-C", "B-C"]
        assert lines[1].split()[0] == "DR"
        assert len(lines) == 6

    def test_csv_layout(self):
        table = distance_table(_profile_qcns())
        csv = render_distance_table(table, fmt="csv")
        rows = [line.split(",") for line in csv.strip().splitlines()]
        assert rows[0] == ["relation", "A-B", "A-C", "B-C"]
        assert rows[1][0] == "DR"
        assert len(rows) == 6

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_distance_table(distance_table(_profile_qcns()), fmt="html")


class TestRunningExampleTable:
    def test_contested_pair_between_text_and_paper(self, pipeline):
        column = pipeline.trace.table.column("T", "P")
        assert [column[b] for b in BaseRelation] == [8, 4, 4, 0, 0]

    def test_book_document_column(self, pipeline):
        column = pipeline.trace.table.column("B", "D")
        assert [column[b] for b in BaseRelation] == [6, 4, 3, 4, 3]

    def test_paper_book_column(self, pipeline):
        column = pipeline.trace.table.column("P", "B")
        assert [column[b] for b in BaseRelation] == [2, 1, 0, 1, 0]
