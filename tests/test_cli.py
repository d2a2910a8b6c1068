import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ontomerge
from ontomerge import cli, distance, merging, ontology, rcc5, selection, translate
from ontomerge.cli import build_parser, main
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

    def test_sources_without_concepts_are_input_error(self, tmp_path, capsys):
        roles_only = tmp_path / "roles.txt"
        roles_only.write_text("r(a,b)\n")
        code, out, err = run_cli("merge", str(roles_only), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: translate-forward: the sources declare no concepts\n"


class TestFileErrors:
    @pytest.mark.parametrize(
        "command, stage",
        [
            (["merge"], "parse"),
            (["check"], "parse"),
            (["classify"], "parse"),
            (["translate", "backward"], "translate-backward"),
            (["merge", "--profile"], "profile"),
        ],
    )
    def test_non_utf8_input_is_input_error(self, command, stage, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("Caf\xe9 <= Shop\n".encode("latin-1"))
        code, out, err = run_cli(*command, str(path), capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {stage}: cannot read {path}: not UTF-8 text")

    @pytest.mark.parametrize(
        "command, source, golden",
        [
            (["classify"], "data/running_example/source1.txt", "tests/golden/classify_source1.txt"),
            (["translate", "backward"], "tests/golden/selected_scenario.json", "tests/golden/backward.txt"),
            (["check", "--profile"], None, None),
        ],
        ids=["ontology", "scenario", "profile"],
    )
    def test_leading_byte_order_mark_is_skipped(self, command, source, golden, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        if source is None:
            listed = tmp_path / "a.txt"
            listed.write_text("A <= B\n")
            path.write_text(f"\ufeff{listed.name}\n", encoding="utf-8")
            expected = f"{listed}: consistent\n"
        else:
            path.write_text("\ufeff" + (REPO_ROOT / source).read_text(encoding="utf-8"), encoding="utf-8")
            expected = (REPO_ROOT / golden).read_text(encoding="utf-8")
        code, out, err = run_cli(*command, str(path), capsys=capsys)
        assert (code, out, err) == (0, expected, "")

    def test_byte_order_mark_after_the_start_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        path.write_text("A <= B\n\ufeffB <= C\n", encoding="utf-8")
        code, out, err = run_cli("classify", str(path), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: parse: {path}: line 2, column 1: unexpected character '\\ufeff'\n"

    @pytest.mark.parametrize("flag", ["-o", "--trace", "--emit-qcn", "--emit-scenarios", "--dot"])
    def test_unwritable_output_is_input_error(self, flag, profile_path, tmp_path, capsys):
        target = tmp_path / "no-such-directory" / "out.txt"
        code, out, err = run_cli("merge", "--profile", profile_path, flag, str(target), capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: output: cannot write {target}: ")

    @pytest.mark.parametrize("flags", [[], ["--emit-scenarios", "-"]], ids=["result", "emit-scenarios"])
    def test_closed_stdout_is_input_error(self, flags, profile_path, monkeypatch, capsys):
        # a reader that exits early, as `| head -1` does: the write raises
        # BrokenPipeError, and stdout is pointed at devnull, so the
        # interpreter's own flush at exit cannot fail again
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w", buffering=1) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["merge", *flags, "--profile", profile_path])
            stdout.write("more output\n")
        assert code == 2
        assert capsys.readouterr().err == "error: output: cannot write to stdout: Broken pipe\n"


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

    def test_tie_is_reported(self, tmp_path, capsys):
        # no ABox, so DR, PO and PP, the three nearest relations, all score 0
        first, second = tmp_path / "sub.txt", tmp_path / "disjoint.txt"
        first.write_text("A <= B\n")
        second.write_text("A & B <= bot\n")
        code, out, _ = run_cli("explain", str(first), str(second), capsys=capsys)
        assert code == 0
        assert out.endswith(
            "Scenarios:\n"
            "  scenario 1: distance 0 (0+0) (selected)\n"
            "    A-B: {DR}\n"
            "  scenario 2: distance 0 (0+0)\n"
            "    A-B: {PO}\n"
            "  scenario 3: distance 0 (0+0)\n"
            "    A-B: {PP}\n"
            "  tie between scenarios 1, 2, 3; lexicographically smallest selected\n"
        )

    def test_empty_source_constraint_is_warned(self, tmp_path, capsys):
        conflicted, plain, empty = (tmp_path / f"{name}.txt" for name in ("conflict", "plain", "empty"))
        conflicted.write_text("A <= B\nA & B <= bot\n")
        plain.write_text("A <= B\n")
        empty.write_text("A & A <= bot\nA <= B\n")
        code, out, _ = run_cli("explain", str(conflicted), str(plain), str(empty), capsys=capsys)
        assert code == 0
        # in (pair, source) order, the self-disjoint concept as the pair A-A
        assert [line for line in out.splitlines() if line.startswith("warning:")] == [
            "warning: source 3 has an empty constraint on A-A",
            "warning: source 1 has an empty constraint on A-B",
        ]
        assert "initial: A-B: {PP,EQ}\n" in out


class TestCheckCommand:
    def test_consistent_input(self, source_paths, capsys):
        code, out, _ = run_cli("check", source_paths[0], capsys=capsys)
        assert code == 0
        assert out.strip().endswith("consistent")

    def test_many_unrelated_concepts(self, tmp_path, capsys):
        # 50 concepts without axioms leave 1,225 open pairs for the search
        source = tmp_path / "wide.txt"
        source.write_text("".join(f"C{i}(x{i})\n" for i in range(50)))
        code, out, _ = run_cli("check", str(source), capsys=capsys)
        assert code == 0
        assert out.strip().endswith("consistent")
        assert "inconsistent" not in out

    def test_conflicting_input(self, tmp_path, capsys):
        conflicted = tmp_path / "conflict.txt"
        conflicted.write_text("C <= D\nC & D <= bot\n")
        code, out, _ = run_cli("check", str(conflicted), capsys=capsys)
        assert code == 0
        assert "inconsistent" in out
        assert "C-D" in out

    @pytest.mark.parametrize("mark", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_profile_lines_end_only_at_line_breaks(self, mark, tmp_path, capsys):
        # `str.splitlines` also ends a line at each of these marks
        source = tmp_path / f"odd{mark}name.txt"
        source.write_text("A <= B\n")
        profile = tmp_path / "profile.txt"
        profile.write_bytes(f"# sources\r{source.name}\r\n".encode())
        code, out, err = run_cli("check", "--profile", str(profile), capsys=capsys)
        assert (code, out, err) == (0, f"{source}: consistent\n", "")

    @pytest.mark.parametrize("mark", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_profile_entries_lose_only_spaces_and_tabs(self, mark, tmp_path, capsys):
        # the white space ontology lines accept; `str.strip` also removes these marks
        source = tmp_path / f"{mark}edge{mark}"
        source.write_text("A <= B\n")
        profile = tmp_path / "profile.txt"
        profile.write_bytes(f" \t{source.name}\t \n".encode())
        code, out, err = run_cli("check", "--profile", str(profile), capsys=capsys)
        assert (code, out, err) == (0, f"{source}: consistent\n", "")

    def test_json_report(self, tmp_path, capsys):
        conflicted = tmp_path / "conflict.txt"
        conflicted.write_text("C <= D\nC & D <= bot\n")
        code, out, _ = run_cli("check", str(conflicted), "--json", capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert data["inputs"][0]["consistent"] is False
        assert data["inputs"][0]["conflicting_pairs"] == [["C", "D"]]

    def test_self_disjoint_concept_is_a_conflicting_pair(self, tmp_path, capsys):
        source = tmp_path / "a.txt"
        source.write_text("A & A <= bot\n")
        code, out, _ = run_cli("check", str(source), capsys=capsys)
        assert (code, out) == (0, f"{source}: inconsistent (conflicting pairs: A-A)\n")
        code, out, _ = run_cli("check", "--json", str(source), capsys=capsys)
        assert code == 0
        (report,) = json.loads(out)["inputs"]
        assert report == {
            "path": str(source),
            "consistent": False,
            "conflicting_pairs": [["A", "A"]],
            "dropped_role_axioms": 0,
        }

    def test_verdict_is_satisfiability_of_every_concept(self, tmp_path, capsys):
        # EL-bottom models are closed under disjoint union, so a source has a
        # fulfilling model exactly when each of its concepts is satisfiable;
        # classification decides that without any RCC-5 search
        rng = random.Random(15)
        paths, expected = [], []
        for k in range(2000):
            names = [f"C{i}" for i in range(rng.randint(2, 30))]
            lines = []
            for _ in range(rng.randint(1, 2 * len(names))):
                a, b = rng.sample(names, 2)
                kind = rng.random()
                if kind < 0.6:
                    lines.append(f"{a} <= {b}")
                elif kind < 0.98:
                    lines.append(f"{a} & {b} <= bot")
                else:
                    lines.append(f"{a} & {a} <= bot")
            text = "\n".join(lines) + "\n"
            o = parse_ontology(text)
            expected.append(not classify(o.tbox, concepts=o.concepts).unsatisfiable)
            path = tmp_path / f"source{k}.txt"
            path.write_text(text)
            paths.append(str(path))
        code, out, _ = run_cli("check", "--json", *paths, capsys=capsys)
        assert code == 0
        verdicts = [report["consistent"] for report in json.loads(out)["inputs"]]
        assert verdicts == expected
        assert min(verdicts.count(True), verdicts.count(False)) >= 500


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

    def test_disjointness_and_unsatisfiable_lines(self, tmp_path, capsys):
        source = tmp_path / "clash.txt"
        source.write_text("A & B <= bot\nC <= A\nC <= B\n")
        code, out, _ = run_cli("classify", str(source), capsys=capsys)
        assert code == 0
        assert out == (
            "A <= A\nB <= B\nC <= A\nC <= B\nC <= C\n"
            "A & B <= bot\nA & C <= bot\nB & C <= bot\n"
            "# unsatisfiable: C\n"
        )


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
        unreadable = [
            ("some", {"variables": ["some", "B"], "rel": ["PP", "EQ"]}),
            ("a-b", {"variables": ["B", "a-b"], "rel": ["DR"]}),
        ]
        for name, document in unreadable:
            u, v = document["variables"]
            network.write_text(
                json.dumps(
                    {
                        "variables": document["variables"],
                        "constraints": [{"from": u, "to": v, "rel": document["rel"]}],
                    }
                )
            )
            code, out, err = run_cli("translate", "backward", str(network), capsys=capsys)
            assert code == 2 and out == "", document
            assert "translate-backward" in err and repr(name) in err, document

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

    def test_backward_rejects_an_inconsistent_scenario(self, tmp_path, capsys):
        # A inside B inside C, yet A apart from C: no regions realise it
        network = tmp_path / "qcn.json"
        network.write_text(
            json.dumps(
                {
                    "variables": ["A", "B", "C"],
                    "constraints": [
                        {"from": "A", "to": "B", "rel": ["PP"]},
                        {"from": "B", "to": "C", "rel": ["PP"]},
                        {"from": "A", "to": "C", "rel": ["DR"]},
                    ],
                }
            )
        )
        code, out, err = run_cli("translate", "backward", str(network), capsys=capsys)
        assert (code, out) == (2, "")
        assert err == f"error: translate-backward: {network}: the scenario is inconsistent\n"

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

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        network = tmp_path / "deep.json"
        network.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli("translate", "backward", str(network), capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: translate-backward: {network}: ")


REPO_ROOT = Path(__file__).resolve().parents[1]
PROFILE = "data/running_example/profile.txt"
SOURCES = [f"data/running_example/source{i}.txt" for i in (1, 2, 3, 4)]
SELECTED = "tests/golden/selected_scenario.json"
CONFLICTS = "data/conflicts/profile.txt"

#: golden stdout file, arguments, and {flag: golden file} for the files a run writes
GOLDEN_RUNS = [
    ("explain.txt", ["explain", "--profile", PROFILE], {}),
    ("explain_csv.txt", ["explain", "--csv", "--profile", PROFILE], {}),
    ("explain_conflicts.txt", ["explain", "--profile", CONFLICTS], {}),
    ("check.txt", ["check", "--profile", PROFILE], {}),
    ("check.json", ["check", "--json", "--profile", PROFILE], {}),
    *((f"classify_source{i}.txt", ["classify", path], {}) for i, path in enumerate(SOURCES, 1)),
    *((f"classify_source{i}.json", ["classify", "--json", path], {}) for i, path in enumerate(SOURCES, 1)),
    *((f"forward_source{i}.json", ["translate", "forward", path], {}) for i, path in enumerate(SOURCES, 1)),
    (
        "merge.json",
        ["merge", "--json", "--profile", PROFILE],
        {
            "--trace": "merge_trace.json",
            "--emit-qcn": "merge_qcn.json",
            "--emit-scenarios": "merge_scenarios.json",
            "--dot": "merge.dot",
        },
    ),
    ("backward.txt", ["translate", "backward", SELECTED], {}),
    ("backward.json", ["translate", "backward", "--json", SELECTED], {}),
]


@pytest.mark.parametrize("golden, argv, artifacts", GOLDEN_RUNS, ids=[run[0] for run in GOLDEN_RUNS])
def test_running_example_matches_golden(golden, argv, artifacts, tmp_path, monkeypatch, capsys):
    # relative paths, as the golden check output names its inputs
    monkeypatch.chdir(REPO_ROOT)
    written = [arg for flag, name in artifacts.items() for arg in (flag, str(tmp_path / name))]
    code, out, err = run_cli(*argv, *written, capsys=capsys)
    assert (code, err) == (0, "")
    goldens = REPO_ROOT / "tests" / "golden"
    assert out == (goldens / golden).read_text(encoding="utf-8")
    for name in artifacts.values():
        assert (tmp_path / name).read_text(encoding="utf-8") == (goldens / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "golden, argv", [run[:2] for run in GOLDEN_RUNS], ids=[run[0] for run in GOLDEN_RUNS]
)
def test_handler_returns_its_output(golden, argv, monkeypatch, capsys):
    # main alone writes a command's output; the handler only returns it
    monkeypatch.chdir(REPO_ROOT)
    args = build_parser().parse_args(argv)
    text = args.handler(args)
    assert capsys.readouterr() == ("", "")
    assert text == (REPO_ROOT / "tests" / "golden" / golden).read_text(encoding="utf-8")


def test_no_assert_in_the_package():
    # assert statements vanish under python -O, so no control flow may rest on them
    package = Path(ontomerge.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{module.name}: assert on lines {lines}"


CLI_MODULES = {"ontomerge", "ontomerge.cli", "ontomerge.ontology"}
NETWORK_MODULES = CLI_MODULES | {"ontomerge.translate", "ontomerge.rcc5"}
ALL_MODULES = NETWORK_MODULES | {"ontomerge.distance", "ontomerge.merging", "ontomerge.selection"}

#: What generating dataclass code imports; `classify`, `check` and `translate` build no dataclass.
CODE_GENERATION = {"dataclasses", "inspect"}
#: arguments of `ontomerge` (none: only `import ontomerge`), the package modules
#: they load, and the standard-library modules they must not load
MODULE_SETS = [
    ("import", [], {"ontomerge"}, CODE_GENERATION | {"json"}),
    ("classify", ["classify", SOURCES[0]], CLI_MODULES, CODE_GENERATION | {"json"}),
    ("check", ["check", "--profile", PROFILE], NETWORK_MODULES, CODE_GENERATION | {"json"}),
    ("translate-forward", ["translate", "forward", SOURCES[0]], NETWORK_MODULES, CODE_GENERATION),
    ("translate-backward", ["translate", "backward", SELECTED], NETWORK_MODULES, CODE_GENERATION),
    ("merge", ["merge", "--profile", PROFILE], ALL_MODULES, set()),
    ("explain", ["explain", "--profile", PROFILE], ALL_MODULES, set()),
]


@pytest.mark.parametrize("argv, expected, unwanted", [m[1:] for m in MODULE_SETS], ids=[m[0] for m in MODULE_SETS])
def test_import_loads_no_numpy(argv, expected, unwanted):
    # a fresh interpreter, since the test process imports numpy for the oracles;
    # a command loads only the package modules it runs, and every other module
    # it adds to the interpreter's start-up set comes from the standard library;
    # a module already in that set (`before`) is not held against the command
    script = "\n".join(
        [
            "import sys",
            "before = set(sys.modules)",
            "import ontomerge",
            "if sys.argv[1:]:",
            "    from ontomerge.cli import main",
            "    status = main(sys.argv[1:])",
            "    if status:",
            "        sys.exit(status)",
            "print(sorted(set(sys.modules) - before), file=sys.stderr)",
        ]
    )
    command = [sys.executable, "-c", script, *argv]
    result = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(result.stderr)
    assert "numpy" not in loaded
    assert {name for name in loaded if name.partition(".")[0] == "ontomerge"} == expected
    assert unwanted.isdisjoint(loaded)
    foreign = [
        name for name in loaded if name.partition(".")[0] not in sys.stdlib_module_names | {"ontomerge"}
    ]
    assert foreign == []


class TestPackageSurface:
    LIBRARY = [distance, merging, ontology, rcc5, selection, translate]
    EXPORTS = [name for module in LIBRARY for name in module.__all__]

    def test_each_export_is_the_module_attribute(self):
        for module in self.LIBRARY:
            for name in module.__all__:
                assert getattr(ontomerge, name) is getattr(module, name), (module.__name__, name)

    def test_star_import_binds_the_union_of_the_exports(self):
        namespace: dict = {}
        exec("from ontomerge import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(self.EXPORTS)
        assert sorted(ontomerge.__all__) == sorted(self.EXPORTS)

    def test_no_name_is_exported_twice(self):
        # star imports let the last module win and the lazy lookup the first,
        # so the two agree only while every name has one module
        assert len(self.EXPORTS) == len(set(self.EXPORTS))

    def test_submodules_dir_and_unknown_names(self):
        assert ontomerge.rcc5 is rcc5
        assert ontomerge.cli is cli
        assert {"merge", "parse_ontology", "rcc5", "cli", "__version__"} <= set(dir(ontomerge))
        with pytest.raises(AttributeError, match="'no_such_name'"):
            ontomerge.no_such_name


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
