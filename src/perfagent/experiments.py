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
import platform
import shutil
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from . import llm_gateway as gw
from . import manifest, patch
from . import toolchain as tc
from .llm_gateway import Experiment, OptimizationLabel, OptimizationLabelKind
from .manifest import BenchmarkSpec, Motif, RunRecipe, want
from .verify import CorrectnessCategory, classify_attempt, compare_outputs, pass_at_1

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


def _provenance(toolchain: tc.ToolchainConfig, tool_id: str) -> dict:
    return {
        "toolchain": {
            cid: info.version_string
            for cid, info in sorted(toolchain.compilers.items())
        },
        "tool_id": tool_id,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


class BaselineFailed(ExperimentError):
    """The original did not prepare, build or run cleanly."""


class BaselineRunFailed(BaselineFailed):
    """The original built but did not run cleanly."""


class _Baseline:
    """One row's untouched original, the path each attempt of the row
    takes. Construction prepares its sources (``src_dir``) and starts its
    build; ``build`` starts each candidate's, and leaving the ``with``
    block kills every build it started that nobody joined. ``score``
    joins the candidates' builds and times them with the original.
    ``sample`` is the original's first run, the reference every output
    is checked against. Every failure of the original is a BaselineFailed."""

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
        self._binary: Path | None = None
        self._outcome: tc.RunSample | BaselineFailed | None = None
        try:
            # Prepared straight into the variant's src/, which the build
            # then compiles in place instead of copying.
            base_dir = tc.variant_dir(work_dir, spec.id, f"{ex_tag}/base")
            self.src_dir = manifest.prepare_sources(spec, base_dir / "src")
            self._build = self.build(f"{ex_tag}/base")
        except (tc.ToolchainError, manifest.ManifestError) as exc:
            raise BaselineFailed(str(exc)) from exc

    def __enter__(self) -> _Baseline:
        return self

    def __exit__(self, *exc_info) -> None:
        for build in self._builds:
            build.kill()

    def build(
        self, tag: str, code: tuple[str, str] | None = None, overlay: Path | None = None
    ) -> tc.PendingBuild:
        """Start building the variant ``tag``, whose src/ is a copy of the
        prepared tree with ``code``, a (relative path, text) pair, written
        over one file, and every file under the ``overlay`` directory laid
        over it."""
        vsrc = tc.variant_dir(self._work_dir, self._spec.id, tag) / "src"
        if vsrc != self.src_dir:  # the original builds its tree in place
            if vsrc.exists():
                shutil.rmtree(vsrc)
            shutil.copytree(self.src_dir, vsrc)
        if code is not None:
            rel, text = code
            (vsrc / rel).write_text(text, encoding="utf-8")
        if overlay is not None:
            for path in sorted(overlay.rglob("*")):
                if path.is_file():
                    target = vsrc / path.relative_to(overlay)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copy2(path, target)
        build = tc.start_compile(self._spec, vsrc, self._toolchain, tag, self._work_dir)
        self._builds.append(build)
        return build

    def check(self) -> tc.RunSample:
        """The original run once, unless it has run already: the
        reference output, and a BaselineFailed as early as possible."""
        return self._rounds((), replace(self._spec.run, repetitions=1))[0]

    def sample(self) -> tc.RunSample:
        """The original's first run, timed alone with every repetition if
        nothing has run it yet. A failure is cached and raised again on
        every later call, so no caller can swallow it."""
        return self._rounds((), self._spec.run)[0]

    def score(
        self,
        attempts: Sequence[tuple[tc.PendingBuild | None, gw.ExtractionResult | None, set[str]]],
        counts: Sequence[int] | None = None,
    ) -> list[_Evaluation]:
        """Each (build from ``build`` or None, extraction, flags) attempt
        classified by ``_score``. Every build is joined first, in attempt
        order; then one ``tc.run_rounds`` times the original and every
        attempt that built and broke no constraint, once or at each of
        ``counts``. With nothing to time, nothing runs."""
        joined = [(None if build is None else build.wait(), *rest) for build, *rest in attempts]
        arms = [
            [(build.binary_path, count) for count in counts or (None,)]
            if _timed(build, flags) else []
            for build, _, flags in joined
        ]
        timed_arms = [arm for attempt in arms for arm in attempt]
        original, samples = self._rounds(timed_arms, self._spec.run) if timed_arms else (None, [])
        reference = None if original is None else self.sample().stdout
        timed = iter(samples)
        return [
            _score(self._spec, build, extraction, flags, reference, original,
                   [next(timed) for _ in attempt_arms])
            for (build, extraction, flags), attempt_arms in zip(joined, arms)
        ]

    def binary_path(self) -> Path:
        self.sample()
        return self._binary

    def _rounds(
        self, arms: Sequence[tuple[Path, int | None]], run: RunRecipe
    ) -> tuple[tc.RunSample, list[tc.RunSample]]:
        """The original's sample and one per arm, a (binary, thread count)
        pair, timed together as ``run`` says. The original's first run
        becomes ``sample``; with no arms, an original that has run is not
        run again. BaselineRunFailed when the original does not run cleanly."""
        if isinstance(self._outcome, BaselineFailed):
            raise self._outcome
        if not arms and self._outcome is not None:
            return self._outcome, []
        try:
            original, *samples = tc.run_rounds(
                [(self._join(), self._thread_count), *arms], run
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

    def _join(self) -> Path:
        if self._binary is None:
            try:
                outcome = self._build.wait()
            except tc.ToolchainError as exc:
                raise BaselineFailed(str(exc)) from exc
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


def _labels_for(extraction: gw.ExtractionResult) -> tuple[OptimizationLabel, ...]:
    # No prose, no claim to classify.
    if not extraction.explanation:
        return ()
    return tuple(gw.classify_explanation(extraction.explanation))


@dataclass(frozen=True)
class _Evaluation:
    category: CorrectnessCategory
    stat: tc.SpeedupStat | None
    thread_results: tuple[tuple[int, float | None], ...] | None
    labels: tuple[OptimizationLabel, ...]
    # The timed run the category rests on; None when nothing ran.
    run: tc.RunSample | None = None


# The flag of a reply whose code does not parse, which is not built.
_UNPARSEABLE = "Unparseable"


def _check_candidate(
    original_text: str,
    extraction: gw.ExtractionResult,
    experiment: Experiment,
) -> set[str]:
    """The reply's constraint flags, ``_UNPARSEABLE`` alone for code that
    does not parse; none for a reply without code."""
    if extraction.code is None:
        return set()
    try:
        return gw.check_constraints(original_text, extraction.code, experiment)
    except gw.UnparseableCandidate:
        return {_UNPARSEABLE}


def _timed(build: tc.BuildOutcome | None, flags: set[str]) -> bool:
    """Whether an attempt is timed: it built and broke no constraint."""
    return build is not None and build.ok and not flags


def _score(
    spec: BenchmarkSpec,
    build: tc.BuildOutcome | None,
    extraction: gw.ExtractionResult | None,
    flags: set[str],
    reference: tc.Output | None,
    original: tc.RunSample | None,
    samples: Sequence[tc.RunSample],
) -> _Evaluation:
    """Classify one attempt from what was built and timed; runs nothing.

    An attempt with no build (a reply without code, or whose code does
    not parse), a failed build or a constraint flag is classified as it
    stands, and ``reference`` and ``original`` may be None. Otherwise
    ``samples`` are its timed runs, each taken in rounds with
    ``original``: one, or one per thread count in ascending order. Every
    sample's output is compared with ``reference``, the original's; the
    category rests on the first sample whose output matches, else on the
    first sample. Each matching sample's speedup is
    ``measure_speedup(original, sample)``, and the attempt's is that of
    its fastest matching sample. ``extraction`` is None for code that
    came from outside a model reply (external tool trees). A sample
    whose stdout equals ``reference`` holds that ``Output`` and closes
    its own file, so a row keeps one file for each distinct output
    however many attempts reproduce it.
    """
    labels = () if extraction is None or extraction.code is None else _labels_for(extraction)
    if not _timed(build, flags):
        category = classify_attempt(build, extraction, None, None, flags)
        return _Evaluation(category, None, None, labels)

    checked = []  # (sample, match, SpeedupStat if it matched) per sample
    for sample in samples:
        sample = _share_stdout(sample, reference)
        match = compare_outputs(reference, sample.stdout, spec.validation) if sample.ok else None
        gain = tc.measure_speedup(original, sample) if match is not None and match.matched else None
        checked.append((sample, match, gain))
    matching = [entry for entry in checked if entry[2] is not None]

    run, match, _ = (matching or checked)[0]
    category = classify_attempt(build, extraction, run, match, set())
    stat = None
    if category is CorrectnessCategory.CORRECT:
        stat = max((gain for *_, gain in matching), key=lambda gain: gain.speedup)
    thread_results = None
    if run.thread_count is not None:
        thread_results = tuple(
            (sample.thread_count, None if gain is None else gain.speedup)
            for sample, _, gain in checked
        )
    return _Evaluation(category, stat, thread_results, labels, run)


def _share_stdout(sample: tc.RunSample, reference: tc.Output) -> tc.RunSample:
    """``sample`` holding ``reference`` itself when the two outputs are
    equal, its own output closed."""
    if sample.stdout is reference or sample.stdout != reference:
        return sample
    sample.stdout.close()
    return replace(sample, stdout=reference)


def _row_from_evaluation(
    spec: BenchmarkSpec,
    experiment: Experiment,
    tool_id: str,
    variant_tag: str,
    evaluation: _Evaluation,
) -> AttemptRecord:
    correct = evaluation.category is CorrectnessCategory.CORRECT
    return AttemptRecord(
        benchmark_id=spec.id,
        motif=spec.motif,
        level=spec.level,
        experiment=experiment,
        tool_id=tool_id,
        variant_tag=variant_tag,
        category=evaluation.category,
        speedup=evaluation.stat.speedup if correct else 1.0,
        na_flag=not correct,
        labels=evaluation.labels,
        thread_results=evaluation.thread_results,
    )


def _request_or_none(
    provider: gw.Provider,
    prompt: gw.PromptBundle,
    history: list[tuple[str, str]] | None = None,
) -> gw.ModelResponse | None:
    try:
        return gw.request(provider, prompt, history)
    except gw.ProviderError as exc:
        log.warning("provider error: %s", exc)
        return None


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
    """One conversation of ``turns``, (prompt template, variant tag)
    pairs, per benchmark; the row is its fastest correct turn, else its
    last turn with the speedup reverted to exactly 1.0.

    Each request carries the earlier answered exchanges. The original's
    build (``_Baseline``) starts before the first request, and each
    turn's code starts building as its own variant (``_Baseline.build``)
    as soon as its reply is in, so builds run while later requests wait.
    When more turns follow, the original is checked (``_Baseline.check``:
    joined and run once, for the reference output) right after the first
    reply. After the last turn, ``_Baseline.score`` joins every turn's
    build, times the original and every turn that built and broke no
    constraint in one set of rounds (ascending ``counts`` per turn
    against a 1-thread original, if given) and scores every turn in turn
    order, so requests, rows and categories are those of scoring each
    turn before the next request; a row with nothing to time only checks
    its original. No timed run overlaps a build. A benchmark whose
    original fails to prepare, build or run is skipped with an error
    logged, after its first request. If an exception escapes a row,
    every build in flight is killed and reaped.
    """
    if not selection:
        raise EmptySelection("no benchmarks selected")
    work_dir = Path(work_dir)
    env = env or host_env(toolchain)
    ex_tag = experiment.value.lower()
    baseline_threads = 1 if counts is not None else None

    rows = []
    for spec in selection:
        attempts: list[tuple[tc.PendingBuild | None, gw.ExtractionResult, set[str]]] = []
        try:
            with _Baseline(spec, toolchain, work_dir, ex_tag, baseline_threads) as base:
                rel, original_text = _attachment(spec, base.src_dir)
                history: list[tuple[str, str]] = []
                for turn, (template, tag) in enumerate(turns, start=1):
                    prompt = gw.render_prompt(template, original_text, env)
                    response = _request_or_none(provider, prompt, history)
                    if turn < len(turns):
                        base.check()
                    if response is None:
                        extraction = gw.NO_CODE
                    else:
                        history.append((prompt.user_text, response.raw_text))
                        extraction = gw.extract_code(response)
                    flags = _check_candidate(original_text, extraction, experiment)
                    build = None
                    if extraction.code is not None and _UNPARSEABLE not in flags:
                        build = base.build(tag, code=(rel, extraction.code))
                    attempts.append((build, extraction, flags))
                evaluations = base.score(attempts, counts)
                # With nothing timed, a broken original still skips the row.
                base.check()
        except BaselineFailed as exc:
            log.error("%s: skipped, %s", spec.id, exc)
            continue
        evaluated = [(tag, e) for (_, tag), e in zip(turns, evaluations)]
        correct = [(tag, e) for tag, e in evaluated if e.category is CorrectnessCategory.CORRECT]
        # The first of equally fast correct turns wins.
        best_tag, best = (
            max(correct, key=lambda pair: pair[1].stat.speedup) if correct else evaluated[-1]
        )
        rows.append(_row_from_evaluation(spec, experiment, provider.provider_id, best_tag, best))
    return ResultsTable(tuple(rows), _provenance(toolchain, provider.provider_id))


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
    """Score pre-optimized source trees exactly like model variants.

    ``dir`` holds one subdirectory per benchmark id; its files overlay the
    prepared original, so a tree may ship only the sources it changed.
    No model is involved, so constraint checks and labels do not apply.
    The original and the tree build side by side (``_Baseline.build``),
    and ``_Baseline.score`` joins both and times them together in rounds;
    a tree that fails to build only checks its original. A benchmark
    whose original fails to prepare, build or run is skipped with an
    error logged.
    """
    if not manifest.is_plain_name(tool_id):
        raise ValueError(f"tool id {tool_id!r} must be one plain path component")
    dir = Path(dir)
    work_dir = Path(work_dir)
    by_id = {spec.id: spec for spec in selection}
    provided = sorted(p.name for p in dir.iterdir() if p.is_dir()) if dir.exists() else []

    rows = []
    for bench_id in provided:
        spec = by_id.get(bench_id)
        if spec is None:
            log.warning("%s: no benchmark with this id in the selection", bench_id)
            continue
        tag = f"import/{tool_id}"
        try:
            with _Baseline(spec, toolchain, work_dir, "import") as base:
                build = base.build(tag, overlay=dir / bench_id)
                (evaluation,) = base.score([(build, None, set())])
                base.check()
        except BaselineFailed as exc:
            log.error("%s: skipped, %s", spec.id, exc)
            continue
        rows.append(_row_from_evaluation(spec, Experiment.EX1, tool_id, tag, evaluation))
    return ResultsTable(tuple(rows), _provenance(toolchain, tool_id))


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

    lines += ["## Correctness", ""]
    columns = sorted({(r.tool_id, r.experiment.value) for r in table.rows})
    headers = ["Category"] + [f"{t} {e}" for t, e in columns]
    body = []
    for category in CorrectnessCategory:
        cells = [category.value]
        for t, e in columns:
            n = sum(
                1 for r in table.rows
                if r.tool_id == t and r.experiment.value == e and r.category is category
            )
            cells.append(str(n))
        body.append(cells)
    total = ["Total"] + [
        str(sum(1 for r in table.rows if r.tool_id == t and r.experiment.value == e))
        for t, e in columns
    ]
    body.append(total)
    lines += _md_table(headers, body) + [""]

    lines += ["## Mean speedup by motif", ""]
    by_motif: dict[tuple[str, str, str], list[float]] = {}
    for r in table.rows:
        key = (r.motif.value, r.tool_id, r.experiment.value)
        by_motif.setdefault(key, []).append(r.speedup)
    body = [
        [m, t, e, f"{sum(vals) / len(vals):.2f}", str(len(vals))]
        for (m, t, e), vals in sorted(by_motif.items())
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

    kinds = sorted({s.get("mean_kind", "arithmetic") for s in summaries}) or ["arithmetic"]
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


_REPORT_NAMES = {
    "csv": "results.csv",
    "markdown": "report.md",
    "json": "report.json",
}


def emit_report(
    table: ResultsTable,
    summaries: list[dict],
    out_dir: Path | str,
    formats: tuple[str, ...] = ("csv", "markdown", "json"),
) -> dict[str, Path]:
    """Write the table in each requested format; reruns are byte-identical."""
    renderers = {
        "csv": lambda: _csv_text(table),
        "markdown": lambda: _markdown_text(table, summaries),
        "json": lambda: _json_text(table, summaries),
    }
    unknown = [f for f in formats if f not in renderers]
    if unknown:
        raise ValueError(f"unknown report formats: {unknown}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritablePath(str(out_dir)) from exc

    written: dict[str, Path] = {}
    for fmt in formats:
        path = out_dir / _REPORT_NAMES[fmt]
        try:
            path.write_text(renderers[fmt](), encoding="utf-8")
        except OSError as exc:
            raise UnwritablePath(str(path)) from exc
        written[fmt] = path
    return written
