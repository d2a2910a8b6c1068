import json
import subprocess
import sys

import pytest

from ontomerge.cli import main
from ontomerge.ontology import classify, parse_ontology
from ontomerge.rcc5 import Relation, qcn_from_json

from oracles import equivalent_modulo_renaming


def run_cli(*argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def profile_path(running_example_dir):
    return str(running_example_dir / "profile.txt")


@pytest.fixture()
def source_paths(running_example_dir):
    return [str(running_example_dir / f"source{i}.txt") for i in (1, 2, 3, 4)]


class TestMergeCommand:
    def test_running_example_round_trips(self, profile_path, capsys):
        code, out, err = run_cli("merge", "--profile", profile_path, capsys=capsys)
        assert code == 0 and err == ""
        merged = parse_ontology(out)
        assert len(merged.tbox) == 12
        assert len(merged.abox) == 12

    def test_explicit_inputs_match_profile(self, profile_path, source_paths, capsys):
        code, by_profile, _ = run_cli("merge", "--profile", profile_path, capsys=capsys)
        assert code == 0
        code, by_paths, _ = run_cli("merge", *source_paths, capsys=capsys)
        assert code == 0
        assert by_paths == by_profile

    def test_artifact_flags(self, profile_path, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        qcn = tmp_path / "merged.json"
        scenarios = tmp_path / "scenarios.json"
        dot = tmp_path / "merged.dot"
        code, _, _ = run_cli(
            "merge",
            "--profile",
            profile_path,
            "--trace",
            str(trace),
            "--emit-qcn",
            str(qcn),
            "--emit-scenarios",
            str(scenarios),
            "--dot",
            str(dot),
            capsys=capsys,
        )
        assert code == 0
        trace_data = json.loads(trace.read_text())
        assert len(trace_data["iterations"]) == 2
        merged = qcn_from_json(qcn.read_text())
        assert merged.constraint("B", "D") == Relation.from_names(["PO", "PP", "PPi", "EQ"])
        scenario_data = json.loads(scenarios.read_text())
        assert sorted(s["distance"] for s in scenario_data["scenarios"]) == [18, 20, 22, 24]
        assert dot.read_text().startswith("graph merged {")

    def test_json_output(self, profile_path, capsys):
        code, out, _ = run_cli("merge", "--profile", profile_path, "--json", capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["tbox"]) == 12

    def test_seed_flag_is_accepted_and_inert(self, profile_path, capsys):
        code, default, _ = run_cli("merge", "--profile", profile_path, capsys=capsys)
        assert code == 0
        code, seeded, _ = run_cli("merge", "--profile", profile_path, "--seed", "7", capsys=capsys)
        assert code == 0
        assert seeded == default

    def test_single_consistent_input_keeps_its_consequences(self, tmp_path, capsys):
        # every concept pair is pinned by an axiom, so nothing is invented
        source = tmp_path / "single.txt"
        source.write_text("P <= T\nT & D <= bot\nP & D <= bot\n")
        code, out, _ = run_cli("merge", str(source), capsys=capsys)
        assert code == 0
        merged = parse_ontology(out)
        original = parse_ontology(source.read_text())
        got = classify(merged.tbox, concepts=original.concepts)
        want = classify(original.tbox, concepts=original.concepts)
        assert got.subsumptions == want.subsumptions
        assert got.disjointness == want.disjointness

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli("merge", "/nonexistent/ontology.txt", capsys=capsys)
        assert code == 2
        assert "cannot read" in err

    def test_bad_axiom_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("A & B <= C\n")
        code, _, err = run_cli("merge", str(bad), capsys=capsys)
        assert code == 2
        assert "strict normal form" in err

    def test_no_inputs_is_input_error(self, capsys):
        code, _, err = run_cli("merge", capsys=capsys)
        assert code == 2
        assert "no input" in err


class TestExplainCommand:
    def test_table_trace_and_scores(self, profile_path, capsys):
        code, out, _ = run_cli("explain", "--profile", profile_path, capsys=capsys)
        assert code == 0
        assert "Distance table" in out
        assert "iteration 1: value 4, relaxed D-P" in out
        assert "iteration 2: value 3, relaxed B-D" in out
        assert "distance 18" in out and "(selected)" in out
        for figure in ("20", "22", "24"):
            assert f"distance {figure}" in out

    def test_csv_table(self, profile_path, capsys):
        code, out, _ = run_cli("explain", "--profile", profile_path, "--csv", capsys=capsys)
        assert code == 0
        assert "relation,B-D,B-P,B-T,D-P,D-T,P-T" in out


class TestCheckCommand:
    def test_consistent_input(self, source_paths, capsys):
        code, out, _ = run_cli("check", source_paths[0], capsys=capsys)
        assert code == 0
        assert out.strip().endswith("consistent")

    def test_conflicting_input(self, tmp_path, capsys):
        conflicted = tmp_path / "conflict.txt"
        conflicted.write_text("C <= D\nC & D <= bot\n")
        code, out, _ = run_cli("check", str(conflicted), capsys=capsys)
        assert code == 0
        assert "inconsistent" in out
        assert "C-D" in out

    def test_json_report(self, tmp_path, capsys):
        conflicted = tmp_path / "conflict.txt"
        conflicted.write_text("C <= D\nC & D <= bot\n")
        code, out, _ = run_cli("check", str(conflicted), "--json", capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert data["inputs"][0]["consistent"] is False
        assert data["inputs"][0]["conflicting_pairs"] == [["C", "D"]]


class TestClassifyCommand:
    def test_dump_contains_entailments(self, source_paths, capsys):
        code, out, _ = run_cli("classify", source_paths[1], capsys=capsys)
        assert code == 0
        assert "D <= T" in out  # entailed through D <= P <= T

    def test_json_dump(self, source_paths, capsys):
        code, out, _ = run_cli("classify", source_paths[1], "--json", capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert ["D", "T"] in data["subsumptions"]
        assert data["unsatisfiable"] == []


class TestTranslateCommand:
    def test_forward_emits_network_json(self, source_paths, capsys):
        code, out, _ = run_cli("translate", "forward", source_paths[0], capsys=capsys)
        assert code == 0
        qcn = qcn_from_json(out)
        assert qcn.constraint("P", "T") == Relation.from_names(["PP", "EQ"])
        assert qcn.constraint("P", "B") == Relation.from_names(["PP", "EQ"])
        assert qcn.constraint("T", "D") == Relation.from_names(["DR"])
        assert qcn.constraint("P", "D") == Relation.from_names(["DR"])
        assert qcn.constraint("B", "D") == Relation.from_names(["DR"])
        assert qcn.constraint("T", "B").is_full

    def test_backward_requires_quasi_atomic(self, tmp_path, capsys):
        network = tmp_path / "qcn.json"
        network.write_text(
            json.dumps(
                {
                    "variables": ["A", "B"],
                    "constraints": [{"from": "A", "to": "B", "rel": ["DR", "PO"]}],
                }
            )
        )
        code, _, err = run_cli("translate", "backward", str(network), capsys=capsys)
        assert code == 2
        assert "quasi-atomic" in err
        malformed = [
            {"variables": ["A", "B"], "constraints": [{"from": "A", "rel": ["DR"]}]},
            {"variables": ["A", "B"], "constraints": [{"from": "A", "to": "C", "rel": ["DR"]}]},
            {"variables": "AB", "constraints": []},
            {"variables": ["A", "B"], "constraints": [{"from": "A", "to": "B", "rel": "PP"}]},
        ]
        for document in malformed:
            network.write_text(json.dumps(document))
            code, _, err = run_cli("translate", "backward", str(network), capsys=capsys)
            assert code == 2, document
            assert "translate-backward" in err and "malformed QCN JSON" in err, document

    def test_backward_translates_scenario(self, tmp_path, capsys):
        network = tmp_path / "qcn.json"
        network.write_text(
            json.dumps(
                {
                    "variables": ["A", "B"],
                    "constraints": [{"from": "A", "to": "B", "rel": ["PP", "EQ"]}],
                }
            )
        )
        code, out, _ = run_cli("translate", "backward", str(network), capsys=capsys)
        assert code == 0
        assert out == "A <= B\n"

    def test_forward_then_backward_round_trip(self, tmp_path, capsys):
        source = tmp_path / "tiny.txt"
        source.write_text("C <= D\nC & E <= bot\n")
        code, network_text, _ = run_cli("translate", "forward", str(source), capsys=capsys)
        assert code == 0
        network = tmp_path / "tiny.json"
        network.write_text(network_text)
        # the forward network is not quasi-atomic on the unconstrained pair
        code, _, err = run_cli("translate", "backward", str(network), capsys=capsys)
        assert code == 2


def test_import_loads_no_numpy():
    # a fresh interpreter, since the test process imports numpy for the oracles
    command = [sys.executable, "-c", "import sys, ontomerge; print('numpy' in sys.modules)"]
    result = subprocess.run(command, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


class TestDeterminism:
    def test_consecutive_runs_are_byte_identical(self, profile_path):
        command = [sys.executable, "-m", "ontomerge", "merge", "--profile", profile_path]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout


class TestRenamingEquivalence:
    def test_result_is_stable_under_the_fresh_name_scheme(self, pipeline):
        alternative = parse_ontology(
            "\n".join(
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
        )
        assert equivalent_modulo_renaming(
            pipeline.result, alternative, fixed={"P", "T", "D", "B"}
        )
