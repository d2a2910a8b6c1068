import ast
import functools
import importlib.util
import itertools
import math
import random
from pathlib import Path

import pytest

import oracles
from ontomerge import selection
from ontomerge.cli import run_pipeline
from ontomerge.ontology import classify, deductive_closure, format_ontology, parse_ontology
from ontomerge.rcc5 import EQ, PO, PP, DR, PPi, QCN, Relation, Scenario, enumerate_scenarios
from ontomerge.selection import (
    best_scenario,
    nb_conflicts,
    scenario_distance,
    select_scenario,
)


def rel(*bases):
    return Relation(bases)


@pytest.fixture(scope="module")
def closed_sources(running_sources):
    return [deductive_closure(o) for o in running_sources]


class TestNbConflicts:
    def test_strict_part_conflicts_in_third_source(self, closed_sources):
        # members of T that the closed third source keeps outside B
        assert nb_conflicts(closed_sources[2], ("T", "B"), rel(PP)) == 3

    def test_overlap_count_is_imbalance(self, closed_sources):
        assert nb_conflicts(closed_sources[2], ("T", "B"), rel(PO)) == 3

    def test_empty_abox_never_conflicts(self):
        closed = deductive_closure(parse_ontology("C <= D"))
        for label in (rel(PP), rel(PPi, EQ), rel(DR), rel(PO)):
            assert nb_conflicts(closed, ("C", "D"), label) == 0

    def test_subset_like_counts_missing_members(self):
        closed = deductive_closure(parse_ontology("C(a)\nC(b)\nD(b)\nD(c)\n"))
        assert nb_conflicts(closed, ("C", "D"), rel(PP, EQ)) == 1
        assert nb_conflicts(closed, ("C", "D"), rel(EQ)) == 1
        assert nb_conflicts(closed, ("C", "D"), rel(PPi)) == 1
        assert nb_conflicts(closed, ("C", "D"), rel(DR)) == 1
        assert nb_conflicts(closed, ("C", "D"), rel(PO)) == 0

    def test_rejects_non_scenario_labels(self, closed_sources):
        with pytest.raises(ValueError):
            nb_conflicts(closed_sources[0], ("T", "B"), rel(DR, PO))

    def test_overlap_is_max_minus_min_on_random_aboxes(self):
        rng = random.Random(1234)
        for _ in range(30):
            lines = []
            for individual in "abcdef":
                for concept in ("C", "D"):
                    if rng.random() < 0.5:
                        lines.append(f"{concept}({individual})")
            if not lines:
                continue
            closed = deductive_closure(parse_ontology("\n".join(lines)))
            three = [nb_conflicts(closed, ("C", "D"), rel(base)) for base in (PP, PPi, DR)]
            assert nb_conflicts(closed, ("C", "D"), rel(PO)) == max(three) - min(three)


class TestScenarioDistance:
    def test_running_example_scores(self, running_sources, pipeline):
        by_labels = {
            (s.constraint("T", "B").names(), s.constraint("B", "D").names()): s
            for s in pipeline.scenarios
        }
        expected = {
            (("PO",), ("PPi",)): 20,
            (("PO",), ("PO",)): 24,
            (("PP",), ("PPi",)): 18,
            (("PP",), ("PO",)): 22,
        }
        for key, want in expected.items():
            assert scenario_distance(by_labels[key], running_sources) == want

    def test_empty_aboxes_score_zero(self):
        sources = [parse_ontology("C <= D"), parse_ontology("C & D <= bot")]
        s = Scenario(["C", "D"], {("C", "D"): rel(PO)})
        assert scenario_distance(s, sources) == 0

    def test_added_conflict_raises_score_by_one(self):
        base = parse_ontology("C(a)\nD(a)\n")
        extended = parse_ontology("C(a)\nD(a)\nC(b)\n")
        s = Scenario(["C", "D"], {("C", "D"): rel(PP, EQ)})
        assert (
            scenario_distance(s, [extended]) == scenario_distance(s, [base]) + 1
        )

    def test_signature_mismatch_rejected(self, running_sources):
        s = Scenario(["C", "D"], {("C", "D"): rel(DR)})
        with pytest.raises(ValueError):
            scenario_distance(s, running_sources)


class TestSelectScenario:
    def test_running_example_selection(self, pipeline, running_sources):
        selected = pipeline.selected
        assert selected.constraint("T", "P") == rel(PPi, EQ)
        assert selected.constraint("T", "D") == rel(DR)
        assert selected.constraint("P", "D") == rel(DR)
        assert selected.constraint("T", "B") == rel(PP)
        assert selected.constraint("P", "B") == rel(PP)
        assert selected.constraint("B", "D") == rel(PPi)
        _, report = select_scenario(tuple(pipeline.scenarios), running_sources)
        assert report.scores[report.selected_index] == pipeline.score
        assert report.scores[report.selected_index].distance == 18
        assert sorted(score.distance for score in report.scores) == [18, 20, 22, 24]
        assert report.tied_indices == ()

    def test_single_candidate(self):
        sources = [parse_ontology("C <= D")]
        s = Scenario(["C", "D"], {("C", "D"): rel(PP, EQ)})
        selected, report = select_scenario([s], sources)
        assert selected is s
        assert report.scores[0].distance == 0

    def test_single_winner_computes_no_tie_key(self, monkeypatch):
        candidates = [Scenario(["A", "B"], {("A", "B"): rel(base)}) for base in (DR, PO, PP)]
        calls = []
        sort_key = QCN.sort_key
        monkeypatch.setattr(QCN, "sort_key", lambda self: calls.append(self) or sort_key(self))
        selected, report = select_scenario(candidates, [parse_ontology("A <= B\nA(x1)\n")])
        assert [score.distance for score in report.scores] == [1, 1, 0]
        assert selected is candidates[2] and report.tied_indices == () and calls == []

    def test_tie_breaks_lexicographically_and_is_marked(self):
        # closed source 1: x1 in both concepts; closed source 2: y1 in A,
        # y2 in B.  Scores: {DR}: 1+0, {PO}: 1+1, {PP}: 0+1 -> tie DR/PP.
        source1 = parse_ontology("A <= B\nA(x1)\n")
        source2 = parse_ontology("A(y1)\nB(y2)\n")
        candidates = [
            Scenario(["A", "B"], {("A", "B"): rel(base)}) for base in (DR, PO, PP)
        ]
        selected, report = select_scenario(candidates, [source1, source2])
        assert [score.distance for score in report.scores] == [1, 2, 1]
        assert selected.constraint("A", "B") == rel(DR)
        assert report.tied_indices == (0, 2)

    def test_selected_is_minimal_member(self, pipeline, running_sources):
        _, report = select_scenario(tuple(pipeline.scenarios), running_sources)
        best = min(score.distance for score in report.scores)
        assert report.scores[report.selected_index].distance == best
        assert pipeline.selected in [score.scenario for score in report.scores]

    def test_empty_candidates_rejected(self, running_sources):
        with pytest.raises(ValueError):
            select_scenario([], running_sources)

    def test_report_serializes(self, pipeline, running_sources):
        data = select_scenario(tuple(pipeline.scenarios), running_sources)[1].to_json_dict()
        assert data["selected"] in [s["index"] for s in data["scenarios"]]
        assert all("per_source" in s for s in data["scenarios"])
        assert data["pair_counts"]

    def test_every_variable_set_is_checked(self):
        candidates = [
            Scenario(["A", "B"], {("A", "B"): rel(PP)}),
            Scenario(["A", "C"], {("A", "C"): rel(PP)}),
        ]
        with pytest.raises(ValueError, match="signature mismatch"):
            select_scenario(candidates, [parse_ontology("A <= B\nA(x)\n")])

    def test_other_variable_order_scores_by_canonical_pair(self):
        # closed source 1: x1 in A and B; closed source 2: y1 in A, y2 and y3 in B.
        # On (A, B): PP charges 0+1, PPi 0+2, DR 1+0.
        sources = [parse_ontology("A <= B\nA(x1)\n"), parse_ontology("A(y1)\nB(y2)\nB(y3)\n")]
        candidates = [
            Scenario(["B", "A"], {("B", "A"): rel(PP)}),
            Scenario(["A", "B"], {("A", "B"): rel(PP)}),
            Scenario(["B", "A"], {("B", "A"): rel(DR)}),
        ]
        selected, report = select_scenario(candidates, sources)
        assert [score.per_source for score in report.scores] == [(0, 2), (0, 1), (1, 0)]
        assert report.tied_indices == (1, 2)
        assert selected is candidates[2]

    def test_non_scenario_label_rejected(self):
        network = QCN(["A", "B"], {("A", "B"): rel(PP, PO)})
        with pytest.raises(ValueError, match="not a scenario label"):
            select_scenario([network], [parse_ontology("A(x)\nB(y)\n")])


def _random_profile(rng, concepts):
    """1-4 sources over `concepts`, some with self-contradictory pairs."""
    sources = []
    for _ in range(rng.randint(1, 4)):
        lines = []
        for a, b in itertools.combinations(concepts, 2):
            draw = rng.random()
            if draw < 0.2:
                lines.append(f"{a} <= {b}")
            elif draw < 0.35:
                lines.append(f"{a} & {b} <= bot")
            elif draw < 0.45:
                lines += [f"{a} <= {b}", f"{a} & {b} <= bot"]
        lines += [f"{c}({x})" for x in "uvwxy" for c in concepts if rng.random() < 0.3]
        sources.append(lines)
    # every concept in the signature
    for c in concepts:
        rng.choice(sources).append(f"{c}(z)")
    return [parse_ontology("\n".join(lines)) for lines in sources]


def test_select_matches_reference_on_random_profiles():
    rng = random.Random(8128)
    checked = inconsistent = 0
    for _ in range(40):
        concepts = list("ABCDE"[: rng.randint(3, 5)])
        sources = _random_profile(rng, concepts)
        variables = concepts[:]
        rng.shuffle(variables)
        network = QCN(
            variables,
            {pair: Relation.from_mask(rng.randrange(1, 32)) for pair in itertools.combinations(variables, 2)},
        )
        candidates = enumerate_scenarios(network)
        if not candidates:
            continue
        # a few candidates again over another variable order
        for s in rng.sample(candidates, min(3, len(candidates))):
            order = variables[:]
            rng.shuffle(order)
            candidates.append(Scenario(order, {(u, v): r for u, v, r in s.items()}))
        selected, report = select_scenario(candidates, sources)
        ref_selected, ref, ref_pair_counts = oracles.reference_select(candidates, sources)
        assert selected is ref_selected
        assert report.scores == ref.scores
        assert (report.selected_index, report.tied_indices) == (ref.selected_index, ref.tied_indices)
        assert report.to_json_dict() == {**ref.to_json_dict(), "pair_counts": ref_pair_counts}
        assert report == ref
        for score in report.scores:
            assert score.distance == scenario_distance(score.scenario, sources)
        checked += 1
        inconsistent += any(deductive_closure(o).inconsistent_individuals for o in sources)
    # the sample holds candidates to score and individuals the closure finds inconsistent
    assert checked >= 20 and inconsistent >= 5


def _taxonomy_profile(rng, concepts, empty):
    """2-3 tree-shaped sources over `concepts`: dozens of individuals each in several concepts.

    The concepts in `empty` are leaves that no source asserts members of;
    one asserted disjoint pair per source with a member of both sides
    makes that individual inconsistent.
    """
    parents = [c for c in concepts if c not in empty]
    sources = []
    for _ in range(rng.randint(2, 3)):
        lines = [
            f"{c} <= {rng.choice([p for p in concepts[:k] if p not in empty])}"
            for k, c in enumerate(concepts[1:], 1)
            if c in empty or rng.random() < 0.8
        ]
        first, second = rng.sample(parents[1:], 2)
        lines += [f"{first} & {second} <= bot", f"{first}(clash)", f"{second}(clash)"]
        for k in range(rng.randint(30, 50)):
            lines += [f"{c}(i{k})" for c in rng.sample(parents, rng.randint(2, 5))]
        sources.append(lines)
    return [parse_ontology("\n".join(lines)) for lines in sources]


def test_select_matches_reference_at_taxonomy_scale():
    rng = random.Random(4242)
    labels = (rel(PP), rel(PPi), rel(EQ), rel(DR), rel(PO), rel(PP, EQ), rel(PPi, EQ))
    for size in (20, 31, 40):
        concepts = [f"C{k:02d}" for k in range(size)]
        empty = set(rng.sample(concepts[1:], 4))
        sources = _taxonomy_profile(rng, concepts, empty)
        closures = [deductive_closure(o) for o in sources]
        assert all(closed.inconsistent_individuals for closed in closures)
        assert all(not closed.instances_of(c) for closed in closures for c in empty)
        pairs = list(itertools.combinations(concepts, 2))
        candidates = [Scenario(concepts, {pair: rng.choice(labels) for pair in pairs}) for _ in range(4)]
        # the same labels again over a second variable order, so the best ties with its twin
        order = concepts[:]
        rng.shuffle(order)
        candidates += [Scenario(order, {(u, v): r for u, v, r in s.items()}) for s in candidates]
        selected, report = select_scenario(candidates, sources)
        assert len(report.tied_indices) == 2
        ref_selected, ref, ref_pair_counts = oracles.reference_select(candidates, sources)
        assert selected is ref_selected
        assert [s.per_source for s in report.scores] == [s.per_source for s in ref.scores]
        assert [s.distance for s in report.scores] == [s.distance for s in ref.scores]
        assert (report.selected_index, report.tied_indices) == (ref.selected_index, ref.tied_indices)
        assert report.to_json_dict() == {**ref.to_json_dict(), "pair_counts": ref_pair_counts}
        assert scenario_distance(selected, sources) == report.scores[report.selected_index].distance


def _select_among(candidates, sources):
    """The selected scenario and its score among `candidates`, or None without a candidate."""
    if not candidates:
        return None
    selected, report = select_scenario(candidates, sources)
    return selected, report.scores[report.selected_index]


def _best_or_none(network, sources):
    try:
        return best_scenario(network, sources)
    except ValueError as exc:
        assert str(exc) == "the network admits no scenario"
        return None


class TestBestScenario:
    # the candidates come from `oracles.levelwise_scenarios`: `enumerate_scenarios`
    # runs the same box search as `best_scenario`
    def test_matches_enumerate_then_select_on_every_3_variable_network(self, monkeypatch):
        # each source is closed once; the variable order flips two canonical pairs,
        # A-C and B-C, on which the summed subset and superset counts differ
        monkeypatch.setattr(selection, "deductive_closure", functools.lru_cache(deductive_closure))
        sources = [
            parse_ontology("A(x)\nB(x)\nC(y)\nA(z)\nA(t)\n"),
            parse_ontology("B(u)\nC(u)\nA(v)\nC(w)\nB(w)\nB(s)\n"),
        ]
        variables = ("C", "A", "B")
        pairs = list(itertools.combinations(variables, 2))
        selected = set()
        for masks in itertools.product(range(32), repeat=3):
            network = QCN(variables, {pair: Relation.from_mask(m) for pair, m in zip(pairs, masks)})
            expected = _select_among(oracles.levelwise_scenarios(network), sources)
            assert _best_or_none(network, sources) == expected, network
            if expected is not None:
                selected.add(expected[0])
        # every box of the universal network's scenarios is somewhere selected
        assert set(oracles.levelwise_scenarios(QCN(variables))) <= selected

    @pytest.mark.parametrize("size, count", [(4, 150), (5, 12)])
    def test_matches_enumerate_then_select_on_random_networks(self, size, count):
        rng = random.Random(size * 1009)
        concepts = list("ABCDE"[:size])
        ties = 0
        for _ in range(count):
            sources = _random_profile(rng, concepts)
            variables = concepts[:]
            rng.shuffle(variables)
            constraints = {
                pair: Relation.from_mask(rng.randrange(1, 32) | rng.randrange(1, 32))
                for pair in itertools.combinations(variables, 2)
            }
            network = QCN(variables, constraints)
            candidates = oracles.levelwise_scenarios(network)
            selected, report = select_scenario(candidates, sources)
            assert best_scenario(network, sources) == (selected, report.scores[report.selected_index])
            ties += len(report.tied_indices) > 1
        # the sample holds ties for the sort-key order to break
        assert ties >= 5

    def test_matches_enumerate_then_select_on_dense_conflict_fixed_sets(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
        spec = importlib.util.spec_from_file_location("dense_conflict_generators", path)
        generators = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generators)
        for seed in range(40):
            for n, index in itertools.product((4, 5), range(8)):
                texts = generators.make_case("dense_conflict", seed, n, index)
                sources = [parse_ontology(text) for text in texts]
                result = run_pipeline(sources)
                listed = oracles.levelwise_scenarios(result.merged)
                assert enumerate_scenarios(result.merged) == listed, (seed, n, index)
                expected = _select_among(listed, sources)
                assert (result.selected, result.score) == expected, (seed, n, index)

    def test_single_variable_and_inconsistent_networks(self):
        sources = [parse_ontology("A(x)\n")]
        scenario, score = best_scenario(QCN(["A"]), sources)
        assert scenario == Scenario(["A"]) and (score.distance, score.per_source) == (0, (0,))
        sources = [parse_ontology("A(x)\nB(y)\nC(z)\n")]
        # A = B = C, yet A is disjoint from C: the closure empties a constraint
        with pytest.raises(ValueError, match="^the network admits no scenario$"):
            best_scenario(QCN("ABC", {("A", "B"): rel(EQ), ("B", "C"): rel(EQ), ("A", "C"): rel(DR)}), sources)
        with pytest.raises(ValueError, match="signature mismatch"):
            best_scenario(QCN("AB"), sources)


def test_selection_leaves_the_box_search_to_rcc5():
    # selection prices labels; the box decision and the search stay behind rcc5
    tree = ast.parse(Path(selection.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rcc5" and node.level == 1
        for alias in node.names
    }
    assert not imported & {"_ALLOWED", "_is_maximal", "_search", "_box_domains", "_CONV_MASK"}
    assert "_cheapest_scenario" in imported


def test_pipeline_matches_the_reference_on_random_profiles():
    rng = random.Random(31337)
    seen = dict.fromkeys(
        ["5 concepts", "1 source", "4 sources", "conflicting pair", "unsatisfiable concept", "inconsistent individual"], 0
    )
    checked = 0
    while checked < 40:
        concepts = list("ABCDE"[: rng.randint(3, 5)])
        sources = _random_profile(rng, concepts)
        result = run_pipeline(sources)
        # the reference lists every consistent atomic refinement of the merged
        # network; a profile whose network has over 10,000 atomic labelings is drawn again
        merged = result.merged
        if math.prod(len(merged.constraint(u, v)) for u, v in itertools.combinations(concepts, 2)) > 10_000:
            continue
        assert format_ontology(result.result) == format_ontology(oracles.reference_pipeline(sources))
        checked += 1
        seen["5 concepts"] += len(concepts) == 5
        seen["1 source"] += len(sources) == 1
        seen["4 sources"] += len(sources) == 4
        seen["conflicting pair"] += any(t.conflicting_pairs for t in result.translations)
        seen["unsatisfiable concept"] += any(classify(o.tbox, concepts=o.concepts).unsatisfiable for o in sources)
        seen["inconsistent individual"] += any(deductive_closure(o).inconsistent_individuals for o in sources)
    assert min(seen.values()) >= 3, seen
