"""Experiment drivers, result aggregation, and report emission.

Each driver walks a benchmark selection, runs one optimization protocol
per benchmark (single shot, five-turn conversation, or parallel sweep),
and collects one row per benchmark into a ResultsTable. Reports render
the table as plot-ready CSV, a human-readable Markdown summary, and a
JSON file that round-trips through load_table.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import platform
import shutil
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

from . import llm_gateway as gw
from . import manifest, patch
from . import toolchain as tc
from .llm_gateway import Experiment, OptimizationLabel, OptimizationLabelKind
from .manifest import BenchmarkSpec, Motif, want
from .verify import (
    CorrectnessCategory, MatchReport, classify_attempt, compare_outputs, pass_at_1,
)

log = logging.getLogger("perfagent.experiments")

# The default sweep is also the CSV's fixed thread columns; sweeps at
# other counts keep their extras in JSON only.
DEFAULT_THREAD_COUNTS = (4, 8, 16, 32)
CSV_COLUMNS = (
    "benchmark_id", "motif", "level", "experiment", "tool_id", "variant_tag",
    "category", "speedup", "na_flag",
    "thread_4", "thread_8", "thread_16", "thread_32", "labels",
)


class ExperimentError(Exception):
    """Base class for experiment-driver failures."""


class EmptySelection(ExperimentError):
    pass


class EmptyTable(ExperimentError):
    pass


class DuplicateRow(ExperimentError):
    pass


class InvalidRecord(ExperimentError):
    pass


class UnwritablePath(ExperimentError):
    pass


@dataclass(frozen=True)
class AttemptRecord:
    """One benchmark's outcome under one tool and experiment."""

    benchmark_id: str
    motif: Motif
    level: int
    experiment: Experiment
    tool_id: str
    variant_tag: str
    category: CorrectnessCategory
    speedup: float
    na_flag: bool
    labels: tuple[OptimizationLabel, ...] = ()
    thread_results: tuple[tuple[int, float | None], ...] | None = None

    def __post_init__(self):
        correct = self.category is CorrectnessCategory.CORRECT
        if self.na_flag == correct:
            raise InvalidRecord("na_flag must mark exactly the non-Correct rows")
        if self.na_flag and self.speedup != 1.0:
            raise InvalidRecord("NA rows carry speedup exactly 1.0")
        if self.thread_results is not None and self.experiment is not Experiment.EX3:
            raise InvalidRecord("thread_results only applies to EX3 rows")

    @property
    def thread_map(self) -> dict[int, float | None]:
        return dict(self.thread_results or ())


@dataclass(frozen=True)
class ResultsTable:
    rows: tuple[AttemptRecord, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            key = (row.benchmark_id, row.experiment, row.tool_id, row.variant_tag)
            if key in seen:
                raise DuplicateRow(str(key))
            seen.add(key)


def host_env(toolchain: tc.ToolchainConfig) -> dict[str, str]:
    """Prompt environment fields describing this machine."""
    compilers = ", ".join(
        sorted(info.version_string for info in toolchain.compilers.values())
    )
    return {
        "os": f"{platform.system()} {platform.release()}",
        "cpu": platform.processor() or platform.machine() or "unknown CPU",
        "compilers": compilers or "unknown",
    }


def _host_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _provenance(toolchain: tc.ToolchainConfig, tool_id: str) -> dict:
    return {
        "toolchain": {
            cid: info.version_string
            for cid, info in sorted(toolchain.compilers.items())
        },
        "tool_id": tool_id,
        "cpus": _host_cpus(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


class BaselineFailed(ExperimentError):
    """The original did not prepare, build or run cleanly."""


class BaselineRunFailed(BaselineFailed):
    """The original built but did not run cleanly."""


# The flags of a reply whose code does not parse, or that its caller could
# not apply (the agent's reply it cannot patch in), which is not built.
_UNPARSEABLE = "Unparseable"
_UNPATCHABLE = "Unpatchable"


@dataclass(frozen=True)
class _Attempt:
    """A row's attempt: a model reply, with code or without, or a tool's
    tree (no extraction). ``_Baseline.attempt`` makes it, and
    ``_Baseline.score`` returns it completed by ``_score``."""

    tag: str
    build: tc.PendingBuild | None
    extraction: gw.ExtractionResult | None
    flags: frozenset = frozenset()
    category: CorrectnessCategory | None = None
    stat: tc.SpeedupStat | None = None
    run: tc.RunSample | None = None
    thread_results: tuple[tuple[int, float | None], ...] | None = None
    labels: tuple[OptimizationLabel, ...] = ()


class _Baseline:
    """One row's untouched original, the path each attempt of the row
    takes. Construction prepares its sources into ``<ex>/prepared/``
    (``src_dir``; a tree an earlier run left is replaced), in which
    nothing runs, expanding macros with the compiler and default flags
    that build the row, and starts the original's build as ``<ex>/base``
    just as ``attempt`` starts each candidate's, from a fresh copy of
    that tree. Leaving the ``with`` block kills every build it started
    that nobody joined. ``score`` joins the candidates' builds and times
    them with the original; a candidate's build that outlived
    ``build.timeout_s`` is a compile error whose log says so, as
    ``tc.PendingBuild.wait`` returns it. The original's first run is the
    reference every output is checked against, and ``check`` its only
    run outside ``score``'s rounds. Every failure of the original, its
    build timeout too, is a BaselineFailed.

    Within the row, identical code is built and timed once: ``attempt``
    hands an attempt whose rewritten file repeats an earlier attempt's,
    or the original's, that attempt's build, and ``score`` times each
    distinct build once. Across rows only the compiler's work is kept:
    ``tc.start_compile`` reuses a variant's binary when a rerun into the
    same work directory lays out the same tree under the same tag with the
    same compiler, flags and build environment (headers outside the tree
    are not checked). Every row still runs and times its builds itself."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        toolchain: tc.ToolchainConfig,
        work_dir: Path,
        ex_tag: str,
        thread_count: int | None = None,
    ) -> None:
        self._spec = spec
        self._toolchain = toolchain
        self._work_dir = work_dir
        self._thread_count = thread_count
        self._builds: list[tc.PendingBuild] = []
        # The build of each (relative path, text) rewrite seen in the row.
        self._by_code: dict[tuple[str, str], tc.PendingBuild] = {}
        self._binary: Path | None = None
        self._outcome: tc.RunSample | BaselineFailed | None = None
        try:
            prepared = tc.variant_dir(work_dir, spec.id, f"{ex_tag}/prepared")
            if prepared.exists():
                shutil.rmtree(prepared)
            self.src_dir = manifest.prepare_sources(spec, prepared, toolchain.command(spec))
            self._build = self._start(f"{ex_tag}/base")
        except (tc.ToolNotFound, manifest.ManifestError) as exc:
            raise BaselineFailed(str(exc)) from exc

    def __enter__(self) -> _Baseline:
        return self

    def __exit__(self, *exc_info) -> None:
        for build in self._builds:
            build.kill()

    def _start(
        self, tag: str, code: tuple[str, str] | None = None, overlay: Path | None = None
    ) -> tc.PendingBuild:
        """Start building the variant ``tag`` from the prepared tree with
        ``code``, a (relative path, text) pair, written over one file and
        the ``overlay`` directory laid over it, as ``tc.start_compile``
        lays them out."""
        build = tc.start_compile(
            self._spec, self.src_dir, self._toolchain, tag, self._work_dir, code, overlay
        )
        self._builds.append(build)
        return build

    def attempt(
        self, tag: str, extraction: gw.ExtractionResult | None = None,
        experiment: Experiment | None = None, file: tuple[str, str] | None = None,
        code: str | None = None, overlay: Path | None = None,
    ) -> _Attempt:
        """A ``score`` attempt as ``tag``: a tool's ``overlay`` tree, or a
        reply whose ``code`` is written over ``file``, a (relative path,
        text) pair, and checked against that text by ``experiment``'s
        rules. A reply without code builds nothing, nor does its ``code``
        when None (its caller could not apply it, ``_UNPATCHABLE``) or
        when it does not parse (``_UNPARSEABLE``). Other code builds,
        flagged or not, so ``classify_attempt`` alone ranks a compile error
        over a broken rule. Code the row has built already, or that leaves
        the prepared file byte-identical, compiles nothing: it gets that
        build, or the original's, whose directory and build log then stand
        for ``tag``. An ``overlay`` build is never shared."""
        if overlay is not None:
            return _Attempt(tag, self._start(tag, overlay=overlay), None)
        if extraction.code is None:
            return _Attempt(tag, None, extraction)
        if code is None:
            return _Attempt(tag, None, extraction, frozenset({_UNPATCHABLE}))
        rel, original_text = file
        try:
            flags = gw.check_constraints(original_text, code, experiment)
        except gw.UnparseableCandidate:
            return _Attempt(tag, None, extraction, frozenset({_UNPARSEABLE}))
        if (rel, code) not in self._by_code:
            path = self.src_dir / rel
            unchanged = path.is_file() and path.read_bytes() == code.encode("utf-8")
            self._by_code[rel, code] = self._build if unchanged else self._start(tag, (rel, code))
        return _Attempt(tag, self._by_code[rel, code], extraction, frozenset(flags))

    def check(self) -> tc.RunSample:
        """The original's first run, one repetition alone if nothing has
        run it yet: the reference output, and a BaselineFailed as early as
        possible, cached and raised again on every later call."""
        return self._rounds(())[0]

    def score(
        self, attempts: Sequence[_Attempt], counts: Sequence[int] | None = None,
    ) -> list[_Attempt]:
        """Each attempt from ``attempt`` completed by ``_score``. Every
        build is joined first, in attempt order; then one ``tc.run_rounds``
        times the original and each distinct build that an attempt which
        built and broke no constraint holds, once or at each of
        ``counts``. Attempts that share a build
        share its samples. An attempt holding the original's own build is
        still timed as an arm of its own beside the original, so a null
        rewrite is measured, not assumed. With nothing to time, nothing
        runs.

        After the first round each candidate arm's output is compared
        with the reference, the original's first output (the one ``check``
        took, if it ran), once per arm however many attempts share it.
        Only the arms that matched run the later rounds, and the original
        only while one of them does: an arm that crashed or printed the
        wrong output can earn no speedup, so it keeps its one repetition.
        An output equal to the reference is compared as the reference
        itself, and its sample is made to hold the reference's ``Output``,
        its own file closed, before any attempt is scored, so a row keeps
        one file per distinct output and no attempt reads an output
        another closed."""
        outcomes = [None if a.build is None else self._wait(a.build) for a in attempts]
        timed_builds = list(dict.fromkeys(
            a.build for a, outcome in zip(attempts, outcomes) if _timed(outcome, a.flags)
        ))
        per_build = counts or (None,)
        arms = [(build.binary_path, count) for build in timed_builds for count in per_build]
        reports: list[MatchReport | None] = []
        equal: list[bool] = []

        def keep(outputs: list[tc.Output | None]) -> list[bool]:
            first, *candidates = outputs
            if first is None:  # the row is skipped: nothing runs on
                return [False] * len(outputs)
            reference = first if self._outcome is None else self._outcome.stdout
            for out in candidates:
                equal.append(out is not None and out == reference)
                # An equal output is compared as the reference itself, which
                # is not read again.
                reports.append(None if out is None else compare_outputs(
                    reference, reference if equal[-1] else out, self._spec.validation
                ))
            matched = [report is not None and report.matched for report in reports]
            return [any(matched), *matched]

        original, samples = self._rounds(arms, keep) if arms else (None, [])
        reference = None if original is None else self._outcome.stdout
        checked = [
            (_share_stdout(sample, reference) if same else sample, report)
            for sample, same, report in zip(samples, equal, reports)
        ]
        n = len(per_build)
        by_build = {build: checked[i * n:(i + 1) * n] for i, build in enumerate(timed_builds)}
        return [
            _score(outcome, attempt, original, by_build.get(attempt.build, []))
            for attempt, outcome in zip(attempts, outcomes)
        ]

    def binary_path(self) -> Path:
        """The original's binary, its build joined and ``check`` passed."""
        self.check()
        return self._binary

    def _rounds(
        self,
        arms: Sequence[tuple[Path, int | None]],
        keep: Callable[[list[tc.Output | None]], Sequence[bool]] | None = None,
    ) -> tuple[tc.RunSample, list[tc.RunSample]]:
        """The original's sample and one per arm, a (binary, thread count)
        pair, timed together as ``spec.run`` says, the original first, and
        ``keep`` passed to ``tc.run_rounds``. With no arms it runs once, if
        it has not run yet; its first run is kept as the reference.
        BaselineRunFailed when the original does not run cleanly."""
        if isinstance(self._outcome, BaselineFailed):
            raise self._outcome
        if not arms and self._outcome is not None:
            return self._outcome, []
        try:
            run = self._spec.run if arms else replace(self._spec.run, repetitions=1)
            original, *samples = tc.run_rounds(
                [(self._join(), self._thread_count), *arms], run, keep
            )
            if not original.ok:
                raise BaselineRunFailed(
                    f"{self._spec.id}: baseline run failed ({original.exit_status})"
                )
        except BaselineFailed as exc:
            if self._outcome is None:
                self._outcome = exc
            raise
        if self._outcome is None:
            self._outcome = original
        return original, samples

    def _wait(self, build: tc.PendingBuild) -> tc.BuildOutcome:
        """``build`` joined; the original's own failure a BaselineFailed."""
        if build is self._build:
            self._join()
        return build.wait()

    def _join(self) -> Path:
        if self._binary is None:
            outcome = self._build.wait()
            if not outcome.ok:
                raise BaselineFailed(
                    f"{self._spec.id}: baseline build failed\n{outcome.stderr[-2000:]}"
                )
            self._binary = outcome.binary_path
        return self._binary


def _defining_file(spec: BenchmarkSpec, src_dir: Path, name: str) -> tuple[str, str] | None:
    """(relative path, text) of the first source that defines ``name``."""
    for rel in spec.source_files:
        text = (src_dir / rel).read_text(encoding="utf-8", errors="replace")
        try:
            spans = patch.list_functions(text)
        except patch.PatchError:
            continue
        if any(span.name == name for span in spans):
            return rel, text
    return None


def _attachment(spec: BenchmarkSpec, src_dir: Path) -> tuple[str, str]:
    """The source file sent to the model and rewritten with its answer.

    Multi-file benchmarks attach the file defining the entry hotspot when
    one is named; otherwise the first listed source stands in.
    """
    rels = spec.source_files
    if spec.entry_hotspot and len(rels) > 1:
        found = _defining_file(spec, src_dir, spec.entry_hotspot)
        if found is not None:
            return found
    return rels[0], (src_dir / rels[0]).read_text(encoding="utf-8", errors="replace")


def _timed(build: tc.BuildOutcome | None, flags: frozenset) -> bool:
    """Whether an attempt is timed: it built and broke no constraint."""
    return build is not None and build.ok and not flags


def _score(
    build: tc.BuildOutcome | None,
    attempt: _Attempt,
    original: tc.RunSample | None,
    checked: Sequence[tuple[tc.RunSample, MatchReport | None]],
) -> _Attempt:
    """``attempt`` completed from what was built, as ``build`` (its joined
    build, or None), timed and compared; runs and compares nothing.

    An attempt with no build (a reply without code, or whose code was not
    applied or does not parse), a failed build or a constraint flag is
    classified as it stands, and ``original`` may be None. Otherwise ``checked`` holds its
    timed runs, each taken in rounds with ``original`` (one, or one per
    thread count in ascending order), with the report of comparing its
    output with the original's, None when its first run failed. A sample
    that did not run cleanly counts as unmatched. The category rests on
    the first sample whose output matches, else on the first sample.
    Each matching sample's speedup is ``measure_speedup(original,
    sample)``, and the attempt's is that of its fastest matching sample.
    ``checked`` comes from ``_Baseline.score``, which compares each
    distinct sample once, stops one that did not match after its first
    run, and has already made each sample whose output equals the
    original's hold it.
    """
    extraction = attempt.extraction
    if extraction is not None and extraction.code is not None and extraction.explanation:
        # none without code, and none without prose that claims one
        attempt = replace(attempt, labels=tuple(gw.classify_explanation(extraction.explanation)))
    if not _timed(build, attempt.flags):
        category = classify_attempt(build, extraction, None, None, attempt.flags)
        return replace(attempt, category=category)

    rated = []  # (sample, match, SpeedupStat if it matched) per sample
    for sample, match in checked:
        match = match if sample.ok else None
        gain = tc.measure_speedup(original, sample) if match is not None and match.matched else None
        rated.append((sample, match, gain))
    matching = [entry for entry in rated if entry[2] is not None]

    run, match, _ = (matching or rated)[0]
    category = classify_attempt(build, extraction, run, match, set())
    stat = None
    if category is CorrectnessCategory.CORRECT:
        stat = max((gain for *_, gain in matching), key=lambda gain: gain.speedup)
    thread_results = None
    if run.thread_count is not None:
        thread_results = tuple(
            (sample.thread_count, None if gain is None else gain.speedup)
            for sample, _, gain in rated
        )
    return replace(
        attempt, category=category, stat=stat, run=run, thread_results=thread_results
    )


def _fastest(stats: Sequence[tc.SpeedupStat | None]) -> int | None:
    """The position of the first of the fastest correct attempts by paired
    speedup, ``stats`` being None for each other attempt; else None."""
    correct = [i for i, stat in enumerate(stats) if stat is not None]
    return max(correct, key=lambda i: stats[i].speedup, default=None)


def _share_stdout(sample: tc.RunSample, reference: tc.Output) -> tc.RunSample:
    """``sample``, whose output equals ``reference``, holding ``reference``
    itself, its own output closed."""
    sample.stdout.close()
    return replace(sample, stdout=reference)


def _table(
    specs: Sequence[BenchmarkSpec],
    toolchain: tc.ToolchainConfig,
    work_dir: Path | str,
    experiment: Experiment,
    ex_tag: str,
    tool_id: str,
    attempts_of: Callable[[BenchmarkSpec, _Baseline], Sequence[_Attempt]],
    counts: tuple[int, ...] | None = None,
) -> ResultsTable:
    """One row per spec: the loop of every ex and import-tool row.

    Each row's ``_Baseline`` (1-thread when ``counts`` is given) starts
    the original's build; ``attempts_of(spec, base)`` gives the row's
    ``_Baseline.attempt`` records, and ``score`` times them (at each of
    ``counts``) with the original, which is then checked even when
    nothing was timed. The row is the ``_fastest`` correct attempt, else
    the last with speedup exactly 1.0. A spec whose original fails to
    prepare, build or run, or names no configured compiler, is skipped
    with an error logged; an exception escaping a row (a compiler that
    cannot be started, say) ends the call and kills every build in flight."""
    work_dir = Path(work_dir)
    threads = None if counts is None else 1
    rows = []
    for spec in specs:
        try:
            with _Baseline(spec, toolchain, work_dir, ex_tag, threads) as base:
                scored = base.score(attempts_of(spec, base), counts)
                base.check()
        except BaselineFailed as exc:
            log.error("%s: skipped, %s", spec.id, exc)
            continue
        best = _fastest([attempt.stat for attempt in scored])
        attempt = scored[-1 if best is None else best]
        correct = attempt.category is CorrectnessCategory.CORRECT
        rows.append(AttemptRecord(
            benchmark_id=spec.id, motif=spec.motif, level=spec.level,
            experiment=experiment, tool_id=tool_id, variant_tag=attempt.tag,
            category=attempt.category,
            speedup=attempt.stat.speedup if correct else 1.0, na_flag=not correct,
            labels=attempt.labels, thread_results=attempt.thread_results,
        ))
    return ResultsTable(tuple(rows), _provenance(toolchain, tool_id))


def _reply(
    provider: gw.Provider,
    prompt: gw.PromptBundle,
    history: list[tuple[str, str]] | None = None,
) -> tuple[gw.ModelResponse | None, gw.ExtractionResult, str]:
    """The one request rule of ex turns and agent iterations: the reply to
    ``prompt`` after ``history``, its extracted code, and a note. A
    ProviderError is logged as a warning and gives None, ``gw.NO_CODE``
    (a NoGeneratedCode attempt) and a "provider error: ..." note."""
    try:
        response = gw.request(provider, prompt, history)
    except gw.ProviderError as exc:
        note = f"provider error: {exc}"
        log.warning("%s", note)
        return None, gw.NO_CODE, note
    return response, gw.extract_code(response), ""


EX2_TURNS = 5


def _converse(
    selection: list[BenchmarkSpec],
    provider: gw.Provider,
    toolchain: tc.ToolchainConfig,
    work_dir: Path | str,
    experiment: Experiment,
    turns: tuple[tuple[Experiment, str], ...],
    env: dict[str, str] | None,
    counts: tuple[int, ...] | None = None,
) -> ResultsTable:
    """A ``_table`` of one conversation of ``turns``, (prompt template,
    variant tag) pairs, per benchmark, rendered with ``env`` or else
    ``host_env``.

    Each request (``_reply``) carries the earlier answered exchanges.
    Each reply is a ``_Baseline.attempt``, as an agent iteration is: its
    build starts at once, so builds run while later requests wait. When
    more turns follow, the original is
    checked (joined and run once, for the reference output) right after
    the first reply. Scoring every turn after the last gives the rows and
    categories of scoring each before the next request; ``score`` says
    which turns run past the first round, and ``attempt`` which share a
    build. A turn whose build outlives ``build.timeout_s`` is a
    compilation error. No timed run overlaps a build.
    """
    if not selection:
        raise EmptySelection("no benchmarks selected")
    env = env or host_env(toolchain)

    def attempts_of(spec: BenchmarkSpec, base: _Baseline):
        rel, original_text = _attachment(spec, base.src_dir)
        history: list[tuple[str, str]] = []
        attempts = []
        for template, tag in turns:
            prompt = gw.render_prompt(template, original_text, env)
            response, extraction, _ = _reply(provider, prompt, history)
            if not attempts and len(turns) > 1:
                base.check()
            if response is not None:
                history.append((prompt.user_text, response.raw_text))
            attempts.append(base.attempt(
                tag, extraction, experiment, (rel, original_text), extraction.code
            ))
        return attempts

    return _table(
        selection, toolchain, work_dir, experiment, experiment.value.lower(),
        provider.provider_id, attempts_of, counts,
    )


def run_ex1(
    selection: list[BenchmarkSpec],
    provider: gw.Provider,
    toolchain: tc.ToolchainConfig,
    work_dir: Path | str,
    env: dict[str, str] | None = None,
) -> ResultsTable:
    """One serial-optimization request per benchmark: a one-turn
    ``_converse``, which states how rows are built and timed."""
    return _converse(
        selection, provider, toolchain, work_dir, Experiment.EX1,
        ((Experiment.EX1, "ex1/cand"),), env,
    )


def run_ex2(
    selection: list[BenchmarkSpec],
    provider: gw.Provider,
    toolchain: tc.ToolchainConfig,
    work_dir: Path | str,
    env: dict[str, str] | None = None,
) -> ResultsTable:
    """Five-turn incremental conversation (``_converse``): the
    single-optimization instruction, then four additional-optimization
    turns, tagged ``ex2/turn<t>``; the row is the best correct turn."""
    turns = tuple(
        (Experiment.EX1 if t == 1 else Experiment.EX2, f"ex2/turn{t}")
        for t in range(1, EX2_TURNS + 1)
    )
    return _converse(selection, provider, toolchain, work_dir, Experiment.EX2, turns, env)


def run_ex3(
    selection: list[BenchmarkSpec],
    provider: gw.Provider,
    toolchain: tc.ToolchainConfig,
    work_dir: Path | str,
    counts: tuple[int, ...] = DEFAULT_THREAD_COUNTS,
    env: dict[str, str] | None = None,
) -> ResultsTable:
    """One parallel-optimization request per benchmark, thread-swept over
    ``counts``: a one-turn ``_converse``. Raises ValueError before any
    request when ``counts`` is empty or holds a count below 1."""
    counts = tuple(sorted(set(counts)))
    if not counts or counts[0] < 1:
        raise ValueError("counts must be non-empty positive integers")
    return _converse(
        selection, provider, toolchain, work_dir, Experiment.EX3,
        ((Experiment.EX3, "ex3/cand"),), env, counts,
    )


def import_external_tool_results(
    dir: Path | str,
    tool_id: str,
    selection: list[BenchmarkSpec],
    toolchain: tc.ToolchainConfig,
    work_dir: Path | str,
) -> ResultsTable:
    """Score pre-optimized source trees exactly like model variants: one
    ``_table`` row per tree, as ex rows are made.

    ``dir`` holds one subdirectory per benchmark id; its files overlay the
    prepared original, so a tree may ship only the sources it changed, and
    a subdirectory no selected benchmark owns is skipped with a warning.
    No model is involved, so constraint checks and labels do not apply.
    The tree builds beside the original (``_Baseline.attempt``); one that
    fails to build only checks its original. A ``dir`` that is not a
    directory is a ValueError.
    """
    if not manifest.is_plain_name(tool_id) or tool_id in ("base", "prepared"):
        raise ValueError(f"tool id {tool_id!r} must be one plain path component, "
                         "not base or prepared, the names of a row's own trees")
    dir = Path(dir)
    if not dir.is_dir():
        raise ValueError(f"{dir}: not a directory of tool trees")
    by_id = {spec.id: spec for spec in selection}
    provided = sorted(p.name for p in dir.iterdir() if p.is_dir())
    for bench_id in provided:
        if bench_id not in by_id:
            log.warning("%s: no benchmark with this id in the selection", bench_id)
    tag = f"import/{tool_id}"
    return _table(
        [by_id[b] for b in provided if b in by_id], toolchain, work_dir, Experiment.EX1,
        "import", tool_id,
        lambda spec, base: [base.attempt(tag, overlay=dir / spec.id)],
    )


_GROUP_DIMS = {
    "tool": ("tool_id", lambda r: r.tool_id),
    "motif": ("motif", lambda r: r.motif.value),
    "experiment": ("experiment", lambda r: r.experiment.value),
}


def aggregate(
    table: ResultsTable,
    group_by: tuple[str, ...] = ("tool",),
    mean: str = "arithmetic",
) -> list[dict]:
    """Mean speedup and pass@1 per group; NA rows enter the mean as 1.0."""
    if not table.rows:
        raise EmptyTable("nothing to aggregate")
    if mean not in ("arithmetic", "geometric"):
        raise ValueError(f"unknown mean kind {mean!r}")
    dims = []
    for name in group_by:
        if name not in _GROUP_DIMS:
            raise ValueError(f"unknown group dimension {name!r}")
        dims.append(_GROUP_DIMS[name])

    buckets: dict[tuple[str, ...], list[AttemptRecord]] = {}
    for row in table.rows:
        key = tuple(extract(row) for _, extract in dims)
        buckets.setdefault(key, []).append(row)

    summaries = []
    for key in sorted(buckets):
        group = buckets[key]
        speedups = [r.speedup for r in group]
        if mean == "arithmetic":
            value = sum(speedups) / len(speedups)
        else:
            value = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        summary = {name: part for (name, _), part in zip(dims, key)}
        summary["mean_speedup"] = value
        summary["pass_at_1"] = pass_at_1([r.category for r in group])
        summary["n"] = len(group)
        summary["mean_kind"] = mean
        summaries.append(summary)
    return summaries


def record_to_dict(row: AttemptRecord) -> dict:
    return {
        "benchmark_id": row.benchmark_id,
        "motif": row.motif.value,
        "level": row.level,
        "experiment": row.experiment.value,
        "tool_id": row.tool_id,
        "variant_tag": row.variant_tag,
        "category": row.category.value,
        "speedup": row.speedup,
        "na_flag": row.na_flag,
        "labels": [
            {"label": l.label.value, "evidence": l.evidence} for l in row.labels
        ],
        "thread_results": (
            None if row.thread_results is None
            else {str(count): value for count, value in row.thread_results}
        ),
    }


def record_from_dict(doc: dict) -> AttemptRecord:
    """The row ``doc`` describes; InvalidRecord names a key at fault."""
    fail = InvalidRecord
    threads = want(doc, "thread_results", dict, fail, None)
    return AttemptRecord(
        benchmark_id=want(doc, "benchmark_id", str, fail),
        motif=want(doc, "motif", Motif, fail),
        level=want(doc, "level", int, fail),
        experiment=want(doc, "experiment", Experiment, fail),
        tool_id=want(doc, "tool_id", str, fail),
        variant_tag=want(doc, "variant_tag", str, fail),
        category=want(doc, "category", CorrectnessCategory, fail),
        speedup=want(doc, "speedup", float, fail),
        na_flag=want(doc, "na_flag", bool, fail),
        labels=tuple(
            OptimizationLabel(
                want(label, f"labels[{i}].label", OptimizationLabelKind, fail),
                want(label, f"labels[{i}].evidence", str, fail),
            )
            for i, label in enumerate(want(doc, "labels", list, fail, []))
        ),
        thread_results=None if threads is None else tuple(sorted(
            (int(count), want(threads, f"thread_results.{count}", float, fail, None))
            for count in threads
        )),
    )


def load_table(path: Path | str) -> ResultsTable:
    """A saved ``report.json``; InvalidRecord names its file, and the row
    and key at fault in a document that is JSON."""

    def fail(reason: str) -> InvalidRecord:
        return InvalidRecord(f"{path}: {reason}")

    doc = manifest.read_json(path, fail)
    rows = []
    for i, row in enumerate(want(doc, "rows", list, fail)):
        try:
            rows.append(record_from_dict(row))
        except (InvalidRecord, ValueError) as exc:  # ValueError: a thread count not an int
            raise fail(f"rows[{i}]: {exc}") from None
    return ResultsTable(tuple(rows), want(doc, "provenance", dict, fail, {}))


def _csv_text(table: ResultsTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in table.rows:
        threads = row.thread_map
        cells = [
            row.benchmark_id,
            row.motif.value,
            str(row.level),
            row.experiment.value,
            row.tool_id,
            row.variant_tag,
            row.category.value,
            f"{row.speedup:.6f}",
            "1" if row.na_flag else "0",
        ]
        for count in DEFAULT_THREAD_COUNTS:
            value = threads.get(count)
            cells.append("" if value is None else f"{value:.6f}")
        cells.append(";".join(l.label.value for l in row.labels))
        writer.writerow(cells)
    return buf.getvalue()


def _md_table(headers: list[str], body: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for cells in body:
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def _markdown_text(table: ResultsTable, summaries: list[dict]) -> str:
    lines = ["# Results", ""]
    tool = table.provenance.get("tool_id")
    stamp = table.provenance.get("timestamp")
    versions = table.provenance.get("toolchain", {})
    bits = []
    if tool:
        bits.append(f"tool `{tool}`")
    if versions:
        bits.append("compilers " + "; ".join(
            v for _, v in sorted(versions.items())
        ))
    if stamp:
        bits.append(f"collected {stamp}")
    if bits:
        lines += ["Provenance: " + ", ".join(bits) + ".", ""]
    cpus = table.provenance.get("cpus")
    over = cpus is not None and sorted({
        count
        for r in table.rows if r.experiment is Experiment.EX3
        for count in r.thread_map if count > cpus
    })
    if over:
        lines += [
            f"EX3 thread counts {', '.join(map(str, over))} exceed the host's {cpus} CPUs, "
            "so they measure oversubscription.",
            "",
        ]

    lines += ["## Correctness", ""]
    columns = sorted({(r.tool_id, r.experiment.value) for r in table.rows})
    headers = ["Category"] + [f"{t} {e}" for t, e in columns]
    counts = Counter((r.tool_id, r.experiment.value, r.category) for r in table.rows)
    body = [
        [category.value] + [str(counts[t, e, category]) for t, e in columns]
        for category in CorrectnessCategory
    ]
    body.append(["Total"] + [
        str(sum(counts[t, e, category] for category in CorrectnessCategory)) for t, e in columns
    ])
    lines += _md_table(headers, body) + [""]

    kinds = sorted({s.get("mean_kind", "arithmetic") for s in summaries}) or ["arithmetic"]
    lines += ["## Mean speedup by motif", ""]
    by_motif = aggregate(table, ("motif", "tool", "experiment"), kinds[0]) if table.rows else []
    body = [
        [s["motif"], s["tool_id"], s["experiment"], f"{s['mean_speedup']:.2f}", str(s["n"])]
        for s in by_motif
    ]
    lines += _md_table(["Motif", "Tool", "Experiment", "Mean speedup", "n"], body)
    lines.append("")

    lines += ["## Summary", ""]
    if summaries:
        group_keys = [
            k for k in summaries[0]
            if k not in ("mean_speedup", "pass_at_1", "n", "mean_kind")
        ]
        headers = group_keys + ["mean_speedup", "pass_at_1", "n"]
        body = [
            [str(s[k]) for k in group_keys]
            + [f"{s['mean_speedup']:.2f}", f"{s['pass_at_1']:.2f}", str(s["n"])]
            for s in summaries
        ]
    else:
        headers = ["group", "mean_speedup", "pass_at_1", "n"]
        body = []
    lines += _md_table(headers, body) + [""]

    lines.append(
        f"Speedup means are {' and '.join(kinds)}; "
        "failed attempts enter as 1.00 (reverted to the original code)."
    )
    lines.append("")
    return "\n".join(lines)


def _json_text(table: ResultsTable, summaries: list[dict]) -> str:
    doc = {
        "provenance": table.provenance,
        "rows": [record_to_dict(r) for r in table.rows],
        "summaries": summaries,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Each report format's file name and renderer of (table, summaries).
_REPORTS = {
    "csv": ("results.csv", lambda table, _: _csv_text(table)),
    "markdown": ("report.md", _markdown_text),
    "json": ("report.json", _json_text),
}


def emit_report(
    table: ResultsTable,
    summaries: list[dict],
    out_dir: Path | str,
    formats: tuple[str, ...] = ("csv", "markdown", "json"),
) -> dict[str, Path]:
    """Write the table in each requested format; reruns are byte-identical."""
    unknown = [f for f in formats if f not in _REPORTS]
    if unknown:
        raise ValueError(f"unknown report formats: {unknown}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritablePath(str(out_dir)) from exc

    written: dict[str, Path] = {}
    for fmt in formats:
        name, render = _REPORTS[fmt]
        path = out_dir / name
        try:
            path.write_text(render(table, summaries), encoding="utf-8")
        except OSError as exc:
            raise UnwritablePath(str(path)) from exc
        written[fmt] = path
    return written
