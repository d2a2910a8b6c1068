"""Tests of the benchmark's own machinery: generators, span arithmetic, wrapping.

Run with ``python3 -m pytest perfbench/tests`` from the root of a checkout.
"""

import dataclasses
import hashlib
import subprocess
import sys

import pytest

import generators
import tracing
import workloads
from ontomerge import cli, ontology, rcc5


def _sha(texts):
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(generators.FAMILIES))
def test_same_seed_gives_same_bytes_in_another_process(family):
    here = _sha(generators.make_case(family, 7, 12, 1))
    code = (
        "import hashlib, generators; "
        f"texts = generators.make_case({family!r}, 7, 12, 1); "
        "print(hashlib.sha256('\\0'.join(texts).encode()).hexdigest())"
    )
    there = subprocess.run(
        [sys.executable, "-c", code], cwd=workloads.HERE, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert here == there
    assert _sha(generators.make_case(family, 8, 12, 1)) != here


@pytest.mark.parametrize("family", sorted(generators.FAMILIES))
def test_seed_renames_without_changing_structure(family):
    def shape(texts):
        sources = [ontology.parse_ontology(t) for t in texts]
        return sorted((len(o.tbox), len(o.abox), len(o.concepts)) for o in sources)

    assert shape(generators.make_case(family, 1, 10, 0)) == shape(generators.make_case(family, 2, 10, 0))


def test_written_case_replays_through_the_cli(tmp_path, capsys):
    texts = generators.make_case("dense_conflict", 3, 4, 0)
    profile = generators.write_case(texts, tmp_path)
    assert cli.main(["merge", "--profile", str(profile)]) == 0
    replayed = capsys.readouterr().out
    assert replayed == workloads.full_pipeline(texts)[0]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4] and b [3, 6]; a has child c [2, 3].
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 3, 6, 10]))
    root = tracer.open("cli.root")
    a = tracer.open("rcc5.a")
    c = tracer.open("rcc5.c")
    tracer.close(c)
    tracer.close(a)
    tracer.open("merging.b")  # overlaps a, as spans of two threads would
    tracer.close(tracer.spans[-1])
    tracer.close(root)
    own = tracing.self_times(tracer.spans)
    assert [s.parent for s in tracer.spans] == [None, root.id, a.id, root.id]
    assert own == {root.id: 5, a.id: 2, c.id: 1, 3: 3}


def test_failure_is_charged_to_the_innermost_span_only():
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.span("bench.case"):
            with tracer.span("rcc5.outer"):
                with tracer.span("rcc5.inner"):
                    raise ValueError("boom")
    assert [s.failed for s in tracer.spans] == [False, False, True]


def test_layer_metrics_report_absent_layers_as_no_calls():
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 3, 4]))
    outer = tracer.open("selection.select_scenario")
    inner = tracer.open("ontology.deductive_closure")
    tracer.close(inner, {"facts": 7})
    tracer.close(outer)
    m = tracing.layer_metrics(tracer.spans, passes=1, probe=[])
    assert m["selection.select_self_s"] == (2, "s")
    assert m["ontology.closure_s"] == (2, "s")
    assert m["ontology.closed_facts"] == (7, "count")
    assert m["rcc5.calls"] == (0, "count") and m["rcc5.scenarios_s"] == (0, "s")


CASES = [
    ("running_example", None),
    ("dense_conflict", (4, 0)),
    ("sparse_merge", (20, 0)),
    ("taxonomy", (40, 0)),
]


@pytest.mark.parametrize("name,size", CASES)
def test_wrapping_leaves_outputs_byte_identical(name, size):
    workload = workloads.WORKLOADS[name]
    case = workload.cases(5)[0] if size is None else workload.case(5, *size)
    plain = workload.run(case.texts)[0]
    originals = (cli.run_pipeline, rcc5.is_consistent)
    instrumentation = tracing.Instrumentation()
    instrumentation.install()
    try:
        instrumentation.tracer = tracer = tracing.Tracer()
        traced = workload.run(case.texts)[0]
    finally:
        instrumentation.tracer = None
        instrumentation.uninstall()
    assert traced == plain
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    assert (cli.run_pipeline, rcc5.is_consistent) == originals


def test_taxonomy_invariant_recounts_the_distance():
    case = workloads.WORKLOADS["taxonomy"].case(45, 40, 0)
    candidate, sources, score = workloads.selection_stage(case.texts)[1]
    assert workloads.selection_invariants((candidate, sources, score)) is None
    wrong = dataclasses.replace(score, distance=score.distance + 1)
    assert workloads.selection_invariants((candidate, sources, wrong)) is not None


def test_golden_is_the_acceptance_result():
    sys.path.insert(0, str(workloads.ROOT / "tests"))
    try:
        from test_acceptance import EXPECTED_RESULT_TEXT
    finally:
        sys.path.pop(0)
    golden = ontology.parse_ontology(workloads.GOLDEN.read_text(encoding="utf-8"))
    expected = ontology.parse_ontology(EXPECTED_RESULT_TEXT)
    assert (golden.tbox, golden.abox) == (expected.tbox, expected.abox)
    assert workloads.full_pipeline(workloads.WORKLOADS["running_example"].cases(0)[0].texts)[0] == (
        workloads.GOLDEN.read_text(encoding="utf-8")
    )
