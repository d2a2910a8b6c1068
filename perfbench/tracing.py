"""Spans around ontomerge's public functions, recorded from outside the package.

`Instrumentation.install` replaces every public function of the layer
modules with a wrapper, in every ``ontomerge`` module namespace that holds
it (``from .rcc5 import is_consistent`` copies the name into
``merging``, so patching ``rcc5`` alone would miss that call).  While a
`Tracer` is attached, each call records a span with its parent, its
interval and the counters its result yields; an exception leaving a span
is charged to the innermost open span only.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import FunctionType, ModuleType
from typing import Any, Callable, Iterator

LAYERS = ("cli", "ontology", "translate", "distance", "merging", "rcc5", "selection")

#: Helpers called once per pair or per base relation.  A span around each
#: call would cost more than the work it measures, so they stay unwrapped
#: and their time counts as self time of the caller.
PER_ELEMENT_HELPERS = frozenset(
    {
        "compose", "compose_relations", "converse", "rel_of_sets",
        "base_distance", "constraint_distance", "profile_distance",
        "relax", "val", "nb_conflicts", "format_statement",
    }
)


def _iterations(result: Any) -> dict[str, int]:
    _, trace = result
    return {
        "iterations": len(trace.iterations),
        "relaxed_pairs": sum(len(it.relaxed_pairs) for it in trace.iterations),
    }


#: Counters derived from a call's arguments and result: (args, result) -> counts.
COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "translate.backward": lambda args, r: {"statements": len(r.tbox) + len(r.abox)},
    "rcc5.enumerate_scenarios": lambda args, r: {"out": len(r)},
    "rcc5.is_consistent": lambda args, r: {"true": int(bool(r))},
    "merging.merge": lambda args, r: _iterations(r),
    "ontology.deductive_closure": lambda args, r: {"facts": len(r.facts)},
    "selection.select_scenario": lambda args, r: {"candidates": len(args[0])},
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    failed: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end,
            "counters": self.counters, "failed": self.failed,
        }


class Tracer:
    """Spans of one traced phase, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._charged: BaseException | None = None

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span, counters: dict[str, int] | None = None) -> None:
        span.end = self.clock()
        if counters:
            span.counters = counters
        # An alarm can interrupt a wrapper between open and its try block;
        # whatever it left open above `span` ends here too.
        while self._open and self._open.pop() is not span:
            pass

    def fail(self, span: Span, exc: BaseException) -> None:
        """Close `span` after `exc`; only the innermost span it leaves is charged."""
        span.failed = self._charged is not exc
        self._charged = exc
        self.close(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span opened by the benchmark itself, such as one case."""
        span = self.open(name)
        try:
            yield span
        except BaseException as exc:
            self.fail(span, exc)
            raise
        self.close(span)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            clipped = (max(s.start, parent.start), min(s.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(s.parent, []).append(clipped)
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, [])) for s in spans}


class Instrumentation:
    """Wrappers around the public functions of the ontomerge layer modules.

    The wrappers forward to the original when no tracer is attached, so
    invariant checks can run between traced cases under `paused`.
    """

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self._patched: list[tuple[ModuleType, str, Any]] = []

    def _wrap(self, name: str, fn: FunctionType) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer = self.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.fail(span, exc)
                raise
            tracer.close(span, counter(args, result) if counter else None)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("instrumentation is already installed")
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"ontomerge.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (
                    isinstance(fn, FunctionType)
                    and fn.__module__ == module.__name__
                    and attr not in PER_ELEMENT_HELPERS
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "ontomerge" and not name.startswith("ontomerge."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self) -> Iterator[None]:
        tracer, self.tracer = self.tracer, None
        try:
            yield
        finally:
            self.tracer = tracer


def _closed(spans: list[Span]) -> list[Span]:
    """Spans that were closed; one opened just as a case timed out may not be."""
    return [s for s in spans if s.end >= s.start]


def layer_metrics(spans: list[Span], passes: int, probe: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass over the fixed case set.

    Times and counts are averaged over `passes`; ``<layer>.failed`` adds
    the failures of the probe, which runs once.  A layer or function the
    workload never calls reads 0 with ``<layer>.calls`` 0.
    """
    spans = _closed(spans)
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name.get(name, ())) / passes

    def self_total(name: str) -> float:
        return sum(own[s.id] for s in by_name.get(name, ())) / passes

    def calls(name: str) -> float:
        return len(by_name.get(name, ())) / passes

    def counter(name: str, key: str) -> float:
        return sum(s.counters.get(key, 0) for s in by_name.get(name, ())) / passes

    consistency_calls = calls("rcc5.is_consistent")
    m = {
        "ontology.parse_s": (total("ontology.parse_ontology"), "s"),
        "translate.forward_s": (total("translate.forward"), "s"),
        "translate.backward_s": (total("translate.backward"), "s"),
        "translate.backward_statements": (counter("translate.backward", "statements"), "count"),
        "rcc5.scenarios_s": (total("rcc5.enumerate_scenarios"), "s"),
        "rcc5.scenarios_out": (counter("rcc5.enumerate_scenarios", "out"), "count"),
        "rcc5.consistency_s": (total("rcc5.is_consistent"), "s"),
        "rcc5.consistency_calls": (consistency_calls, "count"),
        "rcc5.consistent_frac": (
            counter("rcc5.is_consistent", "true") / consistency_calls if consistency_calls else 0.0,
            "fraction",
        ),
        "merging.merge_self_s": (self_total("merging.merge"), "s"),
        "merging.iterations": (counter("merging.merge", "iterations"), "count"),
        "merging.relaxed_pairs": (counter("merging.merge", "relaxed_pairs"), "count"),
        "distance.table_s": (total("distance.distance_table"), "s"),
        "distance.table_calls": (calls("distance.distance_table"), "count"),
        "ontology.classify_s": (total("ontology.classify"), "s"),
        "ontology.closure_s": (total("ontology.deductive_closure"), "s"),
        "ontology.closure_calls": (calls("ontology.deductive_closure"), "count"),
        "ontology.closed_facts": (counter("ontology.deductive_closure", "facts"), "count"),
        "selection.select_self_s": (self_total("selection.select_scenario"), "s"),
        "selection.pair_conflicts_s": (total("selection.pair_conflicts"), "s"),
        "selection.pair_conflicts_calls": (calls("selection.pair_conflicts"), "count"),
        "selection.candidates": (counter("selection.select_scenario", "candidates"), "count"),
    }
    probe_failed = [s for s in _closed(probe) if s.failed]
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.self_s"] = (sum(own[s.id] for s in mine) / passes, "s")
        m[f"{layer}.calls"] = (len(mine) / passes, "count")
        failed = sum(s.failed for s in mine) / passes + sum(s.layer == layer for s in probe_failed)
        m[f"{layer}.failed"] = (failed, "count")
    return m


def layer_report(spans: list[Span], passes: int) -> list[str]:
    """One line per layer: calls, self time and failures per pass, or absent."""
    spans = _closed(spans)
    own = self_times(spans)
    lines = []
    for layer in (*LAYERS, "bench"):
        mine = [s for s in spans if s.layer == layer]
        if not mine:
            lines.append(f"layer {layer:9s} absent")
            continue
        lines.append(
            f"layer {layer:9s} {len(mine) / passes:10.1f} calls  "
            f"{sum(own[s.id] for s in mine) / passes:.6f} s self  "
            f"{sum(s.failed for s in mine) / passes:.2f} failed  per pass"
        )
    return lines
