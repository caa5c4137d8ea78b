"""Spans around perfagent's public functions, recorded from outside.

``Tracer.install`` replaces each target function with a wrapper wherever
a loaded ``perfagent`` module binds it, so names imported with
``from ... import`` (``experiments.compare_outputs``,
``agent.classify_attempt``) are traced too; ``uninstall`` puts the
originals back, so traced and untraced calls can alternate. Spans stay
in memory until ``dump``.

A span is ``(name, start, end, parent, row, counters)``. ``parent`` is
the index of the enclosing span or -1, and ``row`` is the id carried by
the root span it was recorded under. A span's self time is its duration
minus the durations of its direct children. The calls are sequential, so
a self time is never negative, and the self times of a row's spans sum
to the row's wall time; the caller checks both.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _compile_counts(args, kwargs, result):
    return {"failed": 0 if result.ok else 1}


def _run_timed_counts(args, kwargs, result):
    return {"reps": len(result.wall_times_s), "kernel_s": sum(result.wall_times_s)}


def _compare_counts(args, kwargs, result):
    return {"tokens": result.compared_tokens, "bytes": len(args[0]) + len(args[1])}


def _classify_counts(args, kwargs, result):
    return {"category": result.value}


def _constraint_counts(args, kwargs, result):
    return {"bytes": len(args[0]) + len(args[1]), "flagged": 1 if result else 0}


def _source_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _agent_counts(args, kwargs, result):
    return {"iterations": len(result.iterations)}


# (module, function, counter) for every public function the benchmark
# traces; the span name is "<module>.<function>".
TARGETS = (
    ("manifest", "load_manifest", None),
    ("manifest", "prepare_sources", None),
    ("toolchain", "compile", _compile_counts),
    ("toolchain", "run_timed", _run_timed_counts),
    ("toolchain", "thread_sweep", None),
    ("verify", "compare_outputs", _compare_counts),
    ("verify", "classify_attempt", _classify_counts),
    ("llm_gateway", "request", None),
    ("llm_gateway", "extract_code", None),
    ("llm_gateway", "render_prompt", None),
    ("llm_gateway", "render_agent_prompt", None),
    ("llm_gateway", "check_constraints", _constraint_counts),
    ("patch", "list_functions", _source_bytes),
    ("patch", "active_text", None),
    ("patch", "extract_function", None),
    ("patch", "replace_function", None),
    ("profile", "import_profile", None),
    ("profile", "summarize_for_model", None),
    ("profile", "diff_metrics", None),
    ("agent", "run_agent", _agent_counts),
    ("agent", "build_memory_digest", None),
    ("experiments", "run_ex1", None),
    ("experiments", "run_ex2", None),
    ("experiments", "run_ex3", None),
    ("experiments", "aggregate", None),
    ("experiments", "emit_report", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.row = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._found = False

    def wrap(self, name: str, fn, counter=None):
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.row, {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans[index] = (name, start, end, parent, tracer.row, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, owner, attr: str, name: str, counter=None) -> None:
        """Trace ``owner.attr`` too while installed."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(name, original, counter)))

    def install(self) -> None:
        """Wrap every target wherever a perfagent module binds it."""
        if not self._found:
            self._found = True
            modules = [m for n, m in sys.modules.items() if n.startswith("perfagent") and m]
            for module_name, fn_name, counter in TARGETS:
                original = getattr(sys.modules[f"perfagent.{module_name}"], fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original, counter)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def root(self, name: str, row, fn, *args, **kwargs):
        """Call ``fn`` inside a root span that carries ``row``."""
        self.row = row
        try:
            return self.wrap(name, fn)(*args, **kwargs)
        finally:
            self.row = None

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, row, counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [s[2] - s[1] - child_time[i] for i, s in enumerate(self.spans)]

    def row_self_s(self) -> dict:
        """Summed self time of every row's spans."""
        totals: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[4]] += own
        return totals

    def summary(self, rows) -> dict:
        """Per-name calls, self time, total time and summed counters over
        the spans recorded under a row id in ``rows``."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        counters: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, row, counts), own in zip(self.spans, self.self_times()):
            if row not in rows:
                continue
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            for key, value in (counts or {}).items():
                if key == "category":
                    counters[f"verify.category.{value}"] += 1
                elif key != "error":
                    counters[f"{name}.{key}"] += value
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "counters": counters}

    def dump(self, path: Path) -> None:
        selfs = self.self_times()
        doc = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "row": s[4],
             "self_s": selfs[i], "counters": s[5]}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(doc), encoding="utf-8")
