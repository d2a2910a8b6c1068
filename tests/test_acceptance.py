"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import itertools
import random
import subprocess
import sys
import time

from ontomerge.distance import distance_table
from ontomerge.merging import merge
from ontomerge.ontology import Disjointness, Ontology, Subsumption, deductive_closure, parse_ontology
from ontomerge.rcc5 import (
    EQ,
    PO,
    PP,
    DR,
    PPi,
    BaseRelation,
    QCN,
    Relation,
    Scenario,
    algebraic_closure,
    compose,
    converse,
    enumerate_scenarios,
    is_consistent,
)
from ontomerge.selection import nb_conflicts, select_scenario
from ontomerge.translate import backward, forward

import oracles
from oracles import find_set_model, generate_composition_table


def rel(*bases):
    return Relation(bases)


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s")


EXPECTED_TABLE = {
    ("T", "P"): {"DR": 8, "PO": 4, "PP": 4, "PPi": 0, "EQ": 0},
    ("T", "B"): {"DR": 2, "PO": 2, "PP": 2, "PPi": 3, "EQ": 3},
    ("T", "D"): {"DR": 2, "PO": 3, "PP": 5, "PPi": 4, "EQ": 6},
    ("P", "B"): {"DR": 2, "PO": 1, "PP": 0, "PPi": 1, "EQ": 0},
    ("P", "D"): {"DR": 4, "PO": 4, "PP": 6, "PPi": 4, "EQ": 6},
    ("B", "D"): {"DR": 6, "PO": 4, "PP": 3, "PPi": 4, "EQ": 3},
}


def test_criterion_1_distance_table_reproduction(running_sources):
    started = time.perf_counter()
    union = ["P", "T", "D", "B"]
    qcns = [forward(o, variables=union).qcn for o in running_sources]
    table = distance_table(qcns)
    for (u, v), cells in EXPECTED_TABLE.items():
        column = table.column(u, v)
        for b in BaseRelation:
            assert column[b] == cells[b.name], (u, v, b)
    _report(1, "distance table, 30 cells", started, budget=1.0)


def test_criterion_2_relaxation_trace_reproduction(running_sources):
    started = time.perf_counter()
    union = ["P", "T", "D", "B"]
    qcns = [forward(o, variables=union).qcn for o in running_sources]
    _, trace = merge(qcns)
    initial = trace.initial
    assert initial.constraint("T", "P") == rel(PPi, EQ)
    assert initial.constraint("T", "B") == rel(DR, PO, PP)
    assert initial.constraint("T", "D") == rel(DR)
    assert initial.constraint("P", "B") == rel(PP, EQ)
    assert initial.constraint("P", "D") == rel(DR, PO, PPi)
    assert initial.constraint("B", "D") == rel(PP, EQ)
    assert len(trace.iterations) == 2
    first, second = trace.iterations
    assert first.relaxed_pairs == (("D", "P"),) and first.value == 4
    assert first.snapshot.constraint("P", "D").is_full
    assert second.relaxed_pairs == (("B", "D"),) and second.value == 3
    assert second.snapshot.constraint("B", "D") == rel(PO, PP, PPi, EQ)
    assert is_consistent(trace.final)
    _report(2, "two-step relaxation trace", started, budget=1.0)


def test_criterion_3_scenario_stage(pipeline, running_sources):
    started = time.perf_counter()
    scenarios = enumerate_scenarios(pipeline.merged)
    assert tuple(scenarios) == tuple(pipeline.scenarios)
    assert len(scenarios) == 4
    for s in scenarios:
        assert s.constraint("T", "P") <= rel(PPi, EQ)
        assert s.constraint("T", "D") == rel(DR)
        assert s.constraint("P", "B") == rel(PP)
    corners = {
        (s.constraint("T", "B"), s.constraint("B", "D")) for s in scenarios
    }
    assert corners == {
        (rel(PO), rel(PPi)),
        (rel(PO), rel(PO)),
        (rel(PP), rel(PPi)),
        (rel(PP), rel(PO)),
    }
    selected, report = select_scenario(scenarios, running_sources)
    assert sorted(score.distance for score in report.scores) == [18, 20, 22, 24]
    assert report.scores[report.selected_index].distance == 18
    expected_selected = {
        ("T", "P"): rel(PPi, EQ),
        ("T", "D"): rel(DR),
        ("P", "D"): rel(DR),
        ("T", "B"): rel(PP),
        ("P", "B"): rel(PP),
        ("B", "D"): rel(PPi),
    }
    for (u, v), label in expected_selected.items():
        assert selected.constraint(u, v) == label, (u, v)
    _report(3, "four scenarios, selection at 18", started, budget=5.0)


EXPECTED_RESULT_TEXT = "\n".join(
    [
        "D <= B",
        "P <= B",
        "P <= T",
        "SubB <= B",
        "SubB2 <= B",
        "SubB3 <= B",
        "T <= B",
        "D & P <= bot",
        "D & SubB <= bot",
        "D & T <= bot",
        "P & SubB2 <= bot",
        "SubB3 & T <= bot",
        "B(x_1)",
        "B(x_2)",
        "B(x_3)",
        "B(x_4)",
        "B(x_5)",
        "B(x_6)",
        "D(x_2)",
        "P(x_4)",
        "SubB(x_1)",
        "SubB2(x_3)",
        "SubB3(x_5)",
        "T(x_6)",
    ]
)

RENAMED_RESULT_TEXT = "\n".join(
    [
        "P <= T",
        "T & D <= bot",
        "P & D <= bot",
        "T <= B",
        "SubBo1 <= B",
        "SubBo1 & T <= bot",
        "P <= B",
        "SubBo2 <= B",
        "SubBo2 & P <= bot",
        "D <= B",
        "SubBo3 <= B",
        "SubBo3 & D <= bot",
        "T(t1)",
        "SubBo1(s1)",
        "B(t1)",
        "B(s1)",
        "P(p1)",
        "SubBo2(s2)",
        "B(p1)",
        "B(s2)",
        "D(d1)",
        "SubBo3(s3)",
        "B(d1)",
        "B(s3)",
    ]
)


def test_criterion_4_back_translation_golden(pipeline):
    started = time.perf_counter()
    result = pipeline.result
    assert len(result.tbox) == 12
    assert len(result.abox) == 12
    expected = parse_ontology(EXPECTED_RESULT_TEXT)
    assert result.tbox == expected.tbox
    assert result.abox == expected.abox
    renamed = parse_ontology(RENAMED_RESULT_TEXT)
    assert oracles.equivalent_modulo_renaming(
        result, renamed, fixed={"P", "T", "D", "B"}
    )
    _report(4, "back-translation golden, 12 axioms + 12 assertions", started, budget=5.0)


def _pair_axiom_pool(concepts):
    pool = [Subsumption(a, b) for a, b in itertools.permutations(concepts, 2)]
    pool += [Disjointness(a, b) for a, b in itertools.combinations(concepts, 2)]
    return pool


def test_criterion_5_translation_faithfulness():
    started = time.perf_counter()

    # forward: exhaustive over two concepts, then >= 500 random TBoxes
    counterexamples = []
    two_pool = _pair_axiom_pool("AB")
    cases = []
    for k in range(4):
        cases += [(frozenset(c), "AB") for c in itertools.combinations(two_pool, k)]
    rng = random.Random(60902)
    for _ in range(500):
        concepts = "ABC" if rng.random() < 0.5 else "ABCD"
        pool = _pair_axiom_pool(concepts)
        tbox = frozenset(rng.sample(pool, rng.randrange(0, min(len(pool), 8) + 1)))
        cases.append((tbox, concepts))
    for tbox, concepts in cases:
        o = Ontology.from_statements(tbox, concepts=concepts)
        network_consistent = is_consistent(forward(o).qcn)
        has_model = oracles.fulfilling_model_exists(tbox, concepts, max_universe=4)
        if network_consistent != has_model:
            counterexamples.append(tbox)
    assert not counterexamples, counterexamples[:3]

    # backward: every consistent quasi-atomic 3-variable network round-trips
    # to exactly the bases its solutions realize
    labels = [rel(b) for b in BaseRelation] + [rel(PP, EQ), rel(PPi, EQ)]
    names = ("X", "Y", "Z")
    pair_names = (("X", "Y"), ("X", "Z"), ("Y", "Z"))
    checked = 0
    for combo in itertools.product(labels, repeat=3):
        candidate = QCN(names, dict(zip(pair_names, combo)))
        if not is_consistent(candidate):
            continue
        checked += 1
        scenario = Scenario.from_qcn(candidate)
        realizable = oracles.realizable_bases_3var(scenario, universe_size=7)
        translated = forward(backward(scenario)).qcn
        closed = algebraic_closure(translated)
        for u, v in pair_names:
            entailed = Relation(
                b
                for b in closed.constraint(u, v)
                if is_consistent(closed.refined(u, v, rel(b)))
            )
            assert entailed == realizable[(u, v)], (combo, u, v)
            assert entailed <= scenario.constraint(u, v)
    assert checked > 100
    _report(5, f"faithfulness, {len(cases)} TBoxes + {checked} scenarios", started, budget=120.0)


def test_criterion_6_relation_algebra():
    started = time.perf_counter()
    for mask in range(32):
        r = Relation.from_mask(mask)
        assert converse(converse(r)) == r
    for b in BaseRelation:
        assert compose(EQ, b) == rel(b)
        assert compose(b, EQ) == rel(b)
    for b1, b2 in itertools.product(BaseRelation, repeat=2):
        assert compose(b1, b2) == converse(compose(b2.converse, b1.converse))
    regenerated = generate_composition_table(7)
    for pair, out in regenerated.items():
        assert compose(*pair) == out, pair
    mismatches = []
    for b1, b2, b3 in itertools.product(BaseRelation, repeat=3):
        n = QCN(
            ("x", "y", "z"),
            {("x", "y"): rel(b1), ("y", "z"): rel(b2), ("x", "z"): rel(b3)},
        )
        if (find_set_model(n, 7) is not None) != is_consistent(n):
            mismatches.append((b1, b2, b3))
    assert not mismatches, mismatches
    _report(6, "relation algebra + 125 atomic networks", started, budget=300.0)


def test_criterion_7_conflict_count_spot_checks(running_sources):
    started = time.perf_counter()
    closed = deductive_closure(running_sources[2])
    expected_facts = {
        ("P", "p3"), ("P", "b3"), ("P", "d3"),
        ("T", "t3"), ("T", "d3"), ("T", "b3"), ("T", "p3"),
        ("D", "d3"), ("D", "b3"),
        ("B", "b3"),
    }
    assert {(f.concept, f.individual) for f in closed.facts} == expected_facts
    assert nb_conflicts(closed, ("T", "B"), rel(PP)) == 3
    assert nb_conflicts(closed, ("T", "B"), rel(PO)) == 3
    _report(7, "conflict counts and closure", started, budget=5.0)


def test_criterion_8_determinism(running_example_dir):
    started = time.perf_counter()
    command = [
        sys.executable,
        "-m",
        "ontomerge",
        "merge",
        "--profile",
        str(running_example_dir / "profile.txt"),
    ]
    runs = [subprocess.run(command, capture_output=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout
    assert runs[0].returncode == 0
    _report(8, "byte-identical merge runs", started, budget=30.0)
