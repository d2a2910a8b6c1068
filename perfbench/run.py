"""Benchmark of the ontomerge pipeline, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  All cases run one after another in
this process; whole-CLI runs and import timings use one child process at
a time.  The report goes to standard output; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See README.md beside this
file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Reported times are scaled to the speed of the machine the benchmark was
#: defined on (a 2-vCPU Xeon VM), where the in-process reference work took
#: REFERENCE_S and a child importing numpy CHILD_REFERENCE_S.  The speed of
#: a shared machine drifts by a quarter and more over seconds to minutes,
#: and import work drifts apart from computation; each reference, timed
#: around every block of cases or of child processes, moves with the work
#: it scales.
REFERENCE_S = 0.002
CHILD_REFERENCE_S = 0.2
#: Per-case time limit; a case still running then counts as a timeout.
CASE_LIMIT_S = 5.0
#: Fresh-interpreter imports per run; their median is `setup_s`.
SETUP_SAMPLES = 9
#: Whole-CLI runs per run, at least, whatever the window share allows.
MIN_CLI_SAMPLES = 5
#: A reference is timed again after this long of cases, or of child
#: processes.  The machine's speed shifts within seconds, so cases get
#: short blocks; the child reference costs a child process of its own.
BLOCK_S = 0.5
CHILD_BLOCK_S = 1.5
#: The probe starts no new case after this long.
PROBE_BUDGET_S = 15.0
#: Address-space cap for this process, so a runaway case fails with
#: MemoryError instead of starving the machine.
ADDRESS_SPACE_CAP = 4 << 30
CHILD_TIMEOUT_S = 60.0
#: Frames on the stack in a stage function (merge, select_scenario, ...)
#: under ``python -m ontomerge merge``, its own included: runpy's two,
#: __main__, main, cmd_merge, run_pipeline and the stage.
CLI_STAGE_DEPTH = 7

IMPORT_SNIPPET = "import time; t = time.perf_counter(); import ontomerge; print(time.perf_counter() - t)"


class CaseTimeout(BaseException):
    """Raised by the alarm in the running case.

    A BaseException, so that no ``except Exception`` in the program swallows it.
    """


def _alarm(signum, frame):
    raise CaseTimeout()


@dataclass
class Record:
    """One timed operation: a case run in process, a CLI subprocess or an import."""

    phase: str  # probe, warmup, pass, traced, cli, import
    key: str
    n: int
    status: str  # ok, timeout, error, mismatch
    wall: float
    where: str = ""
    #: Reference time around this operation: `child_reference_seconds` for
    #: subprocesses, `reference_seconds` for cases.
    ref: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def scaled(self) -> float:
        """Wall time at the speed where the matching reference takes its nominal time."""
        nominal = CHILD_REFERENCE_S if self.phase in ("cli", "import") else REFERENCE_S
        return self.wall * nominal / self.ref


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )


def _reference_work() -> int:
    """Fixed pure-Python work in the program's mix: tuples, dicts, sets, sorting."""
    index: dict[tuple[int, int], list[int]] = {}
    for i in range(4000):
        index.setdefault((i % 31, i % 17), []).append(i)
    seen: set[int] = set()
    total = 0
    for key in sorted(index):
        seen |= set(index[key])
        total += len(seen) + sum(index[key]) % 7
    return total


def reference_seconds() -> float:
    """Median of five timings of the reference work: how fast the machine is right now.

    The median tracks the cases' own times more closely than the best of
    a few timings, which dodges the interference the cases do not.
    """
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        _reference_work()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def child_reference_seconds() -> float:
    """Wall time of a child that imports numpy: start-up and import work, as every CLI call pays.

    numpy is the program's one dependency, fixed by the environment and
    not by the program, so a change to ontomerge's own import cost, or
    dropping numpy from it, shows in full.
    """
    start = time.perf_counter()
    _child(["-c", "import numpy"])
    return time.perf_counter() - start


def import_seconds() -> float:
    proc = _child(["-c", IMPORT_SNIPPET])
    if proc.returncode != 0:
        raise RuntimeError(f"import ontomerge failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def import_breakdown() -> tuple[float, float]:
    """Cumulative import seconds of ontomerge and of numpy, from -X importtime."""
    proc = _child(["-X", "importtime", "-c", "import ontomerge"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return cumulative["ontomerge"], cumulative.get("numpy", 0.0)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _frame_depth() -> int:
    """Frames on the stack from the caller's frame down."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def failure_site(tb) -> str:
    """The innermost public ontomerge function on the traceback, as layer.function."""
    site = "benchmark"
    for frame, _ in traceback.walk_tb(tb):
        module = frame.f_globals.get("__name__", "")
        name = frame.f_code.co_name
        if module.startswith("ontomerge.") and name.isidentifier() and not name.startswith("_"):
            site = f"{module.split('.', 1)[1]}.{name}"
    return site


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        import workloads  # needs src/ on the path, which main() puts there

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.records: list[Record] = []
        self.mismatches: list[str] = []
        self.digests = workloads.load_digests().get(workload.name, {})
        self.golden = workloads.GOLDEN.read_text(encoding="utf-8")
        self.first_output: dict[str, str] = {}
        self.instrumentation = tracing.Instrumentation() if trace else None
        self.recursion_limit = sys.getrecursionlimit()
        self.unscaled: list[Record] = []
        self.readings: list[float] = []
        self.child_readings: list[float] = []
        self.last_ref = 0.0
        self.last_mark = 0.0

    # --- one case ----------------------------------------------------------

    def run_case(self, case, phase: str) -> Record:
        # The program recurses once per open pair, so whether a case ends in
        # RecursionError depends on how deep it starts.  Give the stages the
        # stack headroom the CLI gives them, wherever this is called from.
        stage_depth = _frame_depth() + 2
        sys.setrecursionlimit(self.recursion_limit + stage_depth - CLI_STAGE_DEPTH)
        output = state = None
        tracer = self.instrumentation.tracer if self.instrumentation else None
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
        start = time.perf_counter()
        try:
            try:
                with tracer.span("bench.case") if tracer else contextlib.nullcontext():
                    output, state = self.workload.run(case.texts)
            finally:
                wall = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                sys.setrecursionlimit(self.recursion_limit)
            record = Record(phase, case.key, case.n, "ok", wall)
        except CaseTimeout as exc:
            site = failure_site(exc.__traceback__)
            record = Record(phase, case.key, case.n, "timeout", CASE_LIMIT_S, site)
        except Exception as exc:  # the program's failures are data here
            site = f"{failure_site(exc.__traceback__)}: {type(exc).__name__}"
            record = Record(phase, case.key, case.n, "error", wall, site)
        if record.ok:
            try:
                problem = self.check(case, output, state)
            except Exception as exc:  # e.g. the invariant's own is_consistent overflowing
                record.status = "error"
                site = failure_site(exc.__traceback__)
                record.where = f"invariant check: {site}: {type(exc).__name__}"
            else:
                if problem:
                    record.status, record.where = "mismatch", problem
                    self.mismatches.append(f"{case.key}: {problem}")
        self.records.append(record)
        self.unscaled.append(record)
        return record

    def check(self, case, output: str, state) -> str | None:
        """Golden bytes, recorded digest, or invariants, in that order of preference."""
        if case.key == "running_example":
            return None if output == self.golden else "output differs from the golden file"
        seen = self.first_output.get(case.key)
        if seen is not None:
            return None if self.wl.digest(output) == seen else "output changed between passes"
        self.first_output[case.key] = self.wl.digest(output)
        expected = self.digests.get(case.key)
        if expected is not None:
            if self.wl.digest(output) != expected:
                return "output differs from the recorded digest"
            return None
        paused = self.instrumentation.paused() if self.instrumentation else contextlib.nullcontext()
        with paused:
            return self.workload.invariants(state)

    # --- phases --------------------------------------------------------------

    def mark_speed(self) -> None:
        """Time the in-process reference; cases since the last mark get the mean of both readings."""
        now = reference_seconds()
        self.readings.append(now)
        for record in self.unscaled:
            record.ref = (self.last_ref + now) / 2 if self.last_ref else now
        self.unscaled.clear()
        self.last_ref = now
        self.last_mark = time.perf_counter()

    def run_pass(self, cases, phase: str) -> list[Record]:
        records = []
        for case in cases:
            records.append(self.run_case(case, phase))
            if time.perf_counter() - self.last_mark >= BLOCK_S:
                self.mark_speed()
        return records

    def passes_until(self, cases, deadline: float, phase: str) -> list[list[Record]]:
        """Passes over the fixed set until `deadline`; returns each pass's records."""
        passes: list[list[Record]] = []
        took = 0.0
        while not passes or time.perf_counter() + 0.5 * took < deadline:
            start = time.perf_counter()
            passes.append(self.run_pass(cases, phase))
            took = time.perf_counter() - start
        return passes

    def probe(self) -> None:
        """Try larger sizes in order until a case fails or the budget is spent."""
        start = time.perf_counter()
        for n in self.workload.probe:
            for index in range(self.wl.PROBE_CASES):
                if time.perf_counter() - start > PROBE_BUDGET_S:
                    return
                if not self.run_case(self.workload.case(self.seed, n, index), "probe").ok:
                    return

    def cli_jobs(self, cases, workdir: Path) -> list[tuple]:
        """CLI replays of the smallest cases.

        Each expects the golden file (running example) or else what
        `cli.main` prints in process for the same arguments.
        """
        jobs = []
        for k, case in enumerate(c for c in cases if c.n == cases[0].n):
            if case.key == "running_example":
                profile = self.wl.RUNNING_EXAMPLE / "profile.txt"
            else:
                profile = self.wl.generators.write_case(list(case.texts), workdir / f"case{k}")
            args = self.workload.cli_args(profile, profile.parent / "source1.txt")
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.wl.cli.main(args)
            expected = buffer.getvalue()
            if case.key == "running_example" and expected != self.golden:
                self.mismatches.append(f"{case.key}: in-process CLI output differs from the golden file")
                expected = self.golden
            if code != 0:
                self.mismatches.append(f"{case.key}: in-process CLI exited {code}")
            jobs.append((case, args, expected))
        return jobs

    def child_phase(self, jobs, end: float) -> tuple[list[Record], list[Record]]:
        """Whole-CLI runs until `end`, one child at a time, with fresh-interpreter imports spread among them.

        The children run in blocks of about `CHILD_BLOCK_S`; each sample is
        scaled by the mean of the child reference timed before and after
        its block.  Spreading the imports over several blocks keeps one
        off reading of the reference from moving every import.
        """
        setup: list[Record] = []
        cli: list[Record] = []
        block: list[Record] = []

        def more() -> bool:
            return len(setup) < SETUP_SAMPLES or len(cli) < MIN_CLI_SAMPLES or time.perf_counter() < end

        start = time.perf_counter()
        spacing = max(end - start, 0.0) / SETUP_SAMPLES
        before = child_reference_seconds()
        self.child_readings.append(before)
        while more():
            due = time.perf_counter() - start >= len(setup) * spacing
            if len(setup) < SETUP_SAMPLES and due:
                setup.append(self.import_once())
                block.append(setup[-1])
            else:
                cli.append(self.cli_once(jobs[len(cli) % len(jobs)]))
                block.append(cli[-1])
            if sum(r.wall for r in block) >= CHILD_BLOCK_S or not more():
                after = child_reference_seconds()
                self.child_readings.append(after)
                for record in block:
                    record.ref = (before + after) / 2
                block, before = [], after
        return setup, cli

    def cli_once(self, job) -> Record:
        case, args, expected = job
        start = time.perf_counter()
        proc = _child(["-m", "ontomerge", *args])
        wall = time.perf_counter() - start
        status = "ok" if proc.returncode == 0 and proc.stdout == expected else "mismatch"
        if status != "ok":
            self.mismatches.append(f"{case.key}: CLI exit {proc.returncode} or output differs")
        record = Record("cli", case.key, case.n, status, wall)
        self.records.append(record)
        return record

    def import_once(self) -> Record:
        """One fresh-interpreter import; not an operation of the program, so not in `records`."""
        return Record("import", "ontomerge", 0, "ok", import_seconds())

    # --- metrics -------------------------------------------------------------

    def max_concepts_solved(self) -> int:
        sizes = list(self.workload.sizes) + list(self.workload.probe)
        by_size: dict[int, list[Record]] = {}
        for r in self.records:
            if r.phase != "cli":
                by_size.setdefault(r.n, []).append(r)
        solved = 0
        for n in sizes:
            attempts = by_size.get(n, [])
            complete = n in self.workload.sizes or len(attempts) == self.wl.PROBE_CASES
            if not attempts or not complete or not all(r.ok for r in attempts):
                break
            solved = n
        return solved

    def end_to_end(
        self, setup: list[Record], cli: list[Record], passes: list[list[Record]], peak_rss_mb: float
    ) -> tuple[dict, int]:
        # Completed cases; failed ones show in `failed`, and count here only
        # if no case completed, so that the run still reports.
        cases = [r for p in passes for r in p]
        ended = [r.scaled for r in cases if r.ok] or [r.scaled for r in cases]
        totals = [sum(r.scaled for r in p) for p in passes]
        rates = [sum(r.ok for r in p) / total for p, total in zip(passes, totals)]
        cli_s = [r.scaled for r in cli]
        return {
            "setup_s": (statistics.median(r.scaled for r in setup), "s"),
            "cli_wall_s_p50": (statistics.median(cli_s), "s"),
            "cli_wall_s_p90": (percentile(cli_s, 0.9), "s"),
            "case_s_p50": (statistics.median(ended), "s"),
            "case_s_p90": (percentile(ended, 0.9), "s"),
            "work_s": (statistics.median(totals), "s"),
            "cases_per_s": (statistics.median(rates), "1/s"),
            "max_concepts_solved": (self.max_concepts_solved(), "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }, len(ended)

    def counts(self) -> tuple[int, int]:
        """Operations of the window: cases of the warm-up and of the passes, and CLI runs.

        Probe cases are not operations of the workload.  The probe looks
        for the size at which the program stops answering within the
        limit, so its last case fails by design; what it finds is
        `max_concepts_solved`, and the report says how that case ended.
        """
        operations = [r for r in self.records if r.phase != "probe"]
        return len(operations), sum(not r.ok for r in operations)

    # --- the run -------------------------------------------------------------

    def execute(self) -> tuple[dict, list[str]]:
        import_seconds()  # warm the file cache and any bytecode cache
        notes: list[str] = []
        cases = self.workload.cases(self.seed)
        if self.trace:
            breakdown = [import_breakdown() for _ in range(3)]
            window_end = time.perf_counter() + self.seconds
            self.run_pass(cases, "warmup")
            half = (time.perf_counter() + window_end) / 2
            untraced = [sum(r.wall for r in p) for p in self.passes_until(cases, half, "pass")]
            metrics, notes = self.traced_phase(cases, window_end, untraced)
            metrics["cli.import_s"] = (statistics.median(b[0] for b in breakdown), "s")
            metrics["cli.import_numpy_s"] = (statistics.median(b[1] for b in breakdown), "s")
            return metrics, notes
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            jobs = self.cli_jobs(cases, Path(workdir))
            window_end = time.perf_counter() + self.seconds
            cases_end = window_end - self.workload.cli_share * self.seconds
            self.mark_speed()
            self.run_pass(cases, "warmup")
            passes = self.passes_until(cases, cases_end, "pass")
            self.mark_speed()
            setup, cli = self.child_phase(jobs, window_end)
        # Read before the probe: the probe stops its last case at the time
        # limit, so the memory that case reaches depends on the machine's speed.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.probe()
        metrics, samples = self.end_to_end(setup, cli, passes, peak_rss_mb)
        raw = [sum(r.wall for r in p) for p in passes]
        notes += [
            f"samples: {len(setup)} imports, {len(cli)} CLI runs, {samples} completed case runs "
            f"in {len(passes)} timed passes of {len(cases)} cases",
            f"speed: in-process reference {statistics.median(self.readings) * 1e3:.3f} ms over "
            f"{len(self.readings)} readings, child reference "
            f"{statistics.median(self.child_readings) * 1e3:.1f} ms over {len(self.child_readings)}; "
            f"scaled to {REFERENCE_S * 1e3:g} and {CHILD_REFERENCE_S * 1e3:g} ms",
            f"unscaled: work_s {statistics.median(raw):.6g} s, "
            f"cli_wall_s_p50 {statistics.median(r.wall for r in cli):.6g} s, "
            f"setup_s {statistics.median(r.wall for r in setup):.6g} s",
        ]
        return metrics, notes

    def traced_phase(self, cases, window_end: float, untraced: list[float]) -> tuple[dict, list[str]]:
        self.instrumentation.install()
        try:
            probe_tracer = tracing.Tracer()
            self.instrumentation.tracer = probe_tracer
            self.probe()
            tracer = tracing.Tracer()
            self.instrumentation.tracer = tracer
            traced = [sum(r.wall for r in p) for p in self.passes_until(cases, window_end, "traced")]
        finally:
            self.instrumentation.tracer = None
            self.instrumentation.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, len(traced), probe_tracer.spans)
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / statistics.median(untraced), "fraction")
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace_{self.workload.name}_seed{self.seed}.json"
        dump.write_text(
            json.dumps({"probe": [s.to_json() for s in probe_tracer.spans],
                        "passes": [s.to_json() for s in tracer.spans]}),
            encoding="utf-8",
        )
        notes = [
            f"traced {len(traced)} passes against {len(untraced)} untraced; "
            f"spans in {dump.relative_to(ROOT)}",
            *tracing.layer_report(tracer.spans, len(traced)),
        ]
        return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "ontomerge" / "__init__.py", ROOT / "data" / "running_example" / "profile.txt"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a checkout of ontomerge, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = min(x for x in (soft, hard, ADDRESS_SPACE_CAP) if x != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _alarm)

    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    metrics, notes = run.execute()
    attempted, failed = run.counts()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} attempted, {failed} failed (failed_frac {failed / attempted:.4f})")
    for note in notes:
        print(f"  {note}")
    failures: dict[str, int] = {}
    for r in run.records:
        if r.phase == "probe" and not r.ok:
            print(f"  probe ended at n={r.n}, case {r.key}: {r.status} in {r.where}")
        elif not r.ok:
            label = f"{r.phase} n={r.n} {r.status} in {r.where}"
            failures[label] = failures.get(label, 0) + 1
    for label, count in sorted(failures.items()):
        print(f"  failed {count}x: {label}")
    for problem in run.mismatches:
        print(f"  MISMATCH {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
