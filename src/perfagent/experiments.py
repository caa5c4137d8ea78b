"""Experiment drivers, result aggregation, and report emission.

Each driver walks a benchmark selection, runs one optimization protocol
per benchmark (single shot, five-turn conversation, or parallel sweep),
and collects one row per benchmark into a ResultsTable. Reports render
the table as plot-ready CSV, a human-readable Markdown summary, and a
JSON file that round-trips through load_table.
"""

from __future__ import annotations

import contextlib
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

from . import llm_gateway as gw
from . import manifest, patch
from . import toolchain as tc
from .llm_gateway import Experiment, OptimizationLabel, OptimizationLabelKind
from .manifest import BenchmarkSpec, Motif
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


class _BaselineFailed(ExperimentError):
    pass


class _BaselineRunFailed(_BaselineFailed):
    """The original built but did not run cleanly."""


class _Baseline:
    """One row's untouched original. Construction prepares its sources
    (``src_dir``) and starts its build; ``sample`` joins the build and
    times it once, on first need. Every failure is a _BaselineFailed."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        toolchain: tc.ToolchainConfig,
        work_dir: Path,
        ex_tag: str,
        thread_count: int | None = None,
    ) -> None:
        self._spec = spec
        self._thread_count = thread_count
        self._outcome: tc.RunSample | _BaselineFailed | None = None
        try:
            # Prepared straight into the variant's src/, which the build
            # then compiles in place instead of copying.
            base_dir = tc.variant_dir(work_dir, spec.id, f"{ex_tag}/base")
            self.src_dir = manifest.prepare_sources(spec, base_dir / "src")
            self._build = tc.start_compile(
                spec, self.src_dir, toolchain, f"{ex_tag}/base", work_dir
            )
        except (tc.ToolchainError, manifest.ManifestError) as exc:
            raise _BaselineFailed(str(exc)) from exc

    def sample(self) -> tc.RunSample:
        """The original's timed run. A failure is cached and raised again
        on every later call, so no caller can swallow it."""
        if self._outcome is None:
            try:
                self._outcome = self._join_and_time()
            except _BaselineFailed as exc:
                self._outcome = exc
        if isinstance(self._outcome, _BaselineFailed):
            raise self._outcome
        return self._outcome

    def binary_path(self) -> Path:
        self.sample()
        return self._build.binary_path

    def kill(self) -> None:
        self._build.kill()

    def _join_and_time(self) -> tc.RunSample:
        spec = self._spec
        try:
            outcome = self._build.wait()
        except tc.ToolchainError as exc:
            raise _BaselineFailed(str(exc)) from exc
        if not outcome.ok:
            raise _BaselineFailed(f"{spec.id}: baseline build failed\n{outcome.stderr[-2000:]}")
        run = tc.run_timed(outcome.binary_path, spec.run, thread_count=self._thread_count)
        if not run.ok:
            raise _BaselineRunFailed(f"{spec.id}: baseline run failed ({run.exit_status})")
        return run


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


def _no_code_extraction() -> gw.ExtractionResult:
    return gw.ExtractionResult(None, None, gw.ExtractionRule.NONE)


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


def _stage_candidate(
    spec: BenchmarkSpec,
    src_dir: Path,
    work_dir: Path,
    tag: str,
    code: tuple[str, str] | None = None,
    overlay: Path | None = None,
) -> Path:
    """The variant's src/: a copy of the prepared tree with ``code``, a
    (relative path, text) pair, written over one file, and every file
    under the ``overlay`` directory laid over it."""
    vsrc = tc.variant_dir(work_dir, spec.id, tag) / "src"
    if vsrc.exists():
        shutil.rmtree(vsrc)
    shutil.copytree(src_dir, vsrc)
    if code is not None:
        rel, text = code
        (vsrc / rel).write_text(text, encoding="utf-8")
    if overlay is not None:
        for path in sorted(overlay.rglob("*")):
            if path.is_file():
                target = vsrc / path.relative_to(overlay)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(path, target)
    return vsrc


def _check_candidate(
    original_text: str,
    extraction: gw.ExtractionResult,
    experiment: Experiment,
) -> tuple[_Evaluation | None, set[str]]:
    """The verdict on a reply with nothing to build (no code, or code
    that does not parse), or else None and the constraint flags."""
    if extraction.code is None:
        category = classify_attempt(None, extraction, None, None, set())
        return _Evaluation(category, None, None, ()), set()
    try:
        return None, gw.check_constraints(original_text, extraction.code, experiment)
    except gw.UnparseableCandidate:
        category = classify_attempt(None, extraction, None, None, {"Unparseable"})
        return _Evaluation(category, None, None, _labels_for(extraction)), set()


def _score(
    spec: BenchmarkSpec,
    build: tc.BuildOutcome,
    extraction: gw.ExtractionResult | None,
    flags: set[str],
    baseline: tc.RunSample,
    counts: tuple[int, ...] | None = None,
) -> _Evaluation:
    """Classify a built candidate; time, validate and speed it up if it
    built and broke no constraint. ``counts`` thread-sweeps it instead.

    ``extraction`` is None for code that came from outside a model
    reply (external tool trees). A timed run whose stdout equals the
    original's holds the original's bytes object, not its own copy, so a
    row keeps one copy of each distinct output however many attempts
    reproduce it.
    """
    labels = _labels_for(extraction) if extraction is not None else ()
    if not build.ok or flags:
        category = classify_attempt(build, extraction, None, None, flags)
        return _Evaluation(category, None, None, labels)

    if counts is not None:
        return _evaluate_sweep(spec, extraction, build, baseline, counts, labels)

    run = _share_stdout(tc.run_timed(build.binary_path, spec.run), baseline)
    match = None
    if run.ok:
        match = compare_outputs(baseline.stdout, run.stdout, spec.validation)
    category = classify_attempt(build, extraction, run, match, set())
    stat = None
    if category is CorrectnessCategory.CORRECT:
        stat = tc.measure_speedup(baseline, run)
    return _Evaluation(category, stat, None, labels, run)


def _share_stdout(sample: tc.RunSample, baseline: tc.RunSample) -> tc.RunSample:
    """``sample`` holding ``baseline.stdout`` itself when the two are equal."""
    if sample.stdout == baseline.stdout:
        return replace(sample, stdout=baseline.stdout)
    return sample


def _evaluate_sweep(
    spec: BenchmarkSpec,
    extraction: gw.ExtractionResult | None,
    build: tc.BuildOutcome,
    baseline: tc.RunSample,
    counts: tuple[int, ...],
    labels: tuple[OptimizationLabel, ...],
) -> _Evaluation:
    """Thread-sweep a parallel candidate against the 1-thread baseline."""
    sweep = tc.thread_sweep(build.binary_path, spec.run, list(counts))
    per_count: list[tuple[int, float | None]] = []
    representative: tuple[tc.RunSample, object] | None = None
    fallback: tuple[tc.RunSample, object] | None = None

    for count in sorted(counts):
        sample = _share_stdout(sweep[count], baseline)
        match = None
        if sample.ok:
            match = compare_outputs(baseline.stdout, sample.stdout, spec.validation)
        if fallback is None:
            fallback = (sample, match)
        if sample.ok and match.matched:
            per_count.append((count, baseline.mean_s / sample.mean_s))
            if representative is None:
                representative = (sample, match)
        else:
            per_count.append((count, None))

    run, match = representative or fallback
    category = classify_attempt(build, extraction, run, match, set())
    stat = None
    if category is CorrectnessCategory.CORRECT:
        best = max(v for _, v in per_count if v is not None)
        stat = tc.SpeedupStat(baseline.mean_s, baseline.mean_s / best, best)
    return _Evaluation(category, stat, tuple(per_count), labels, run)


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


def _join_turn(
    spec: BenchmarkSpec,
    building: tuple[str, gw.ExtractionResult, set[str], tc.PendingBuild],
    base: _Baseline,
    counts: tuple[int, ...] | None,
) -> tuple[str, _Evaluation]:
    """Join a turn's build, then the original's, and score the turn."""
    tag, extraction, flags, build = building
    return tag, _score(spec, build.wait(), extraction, flags, base.sample(), counts)


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

    Each request carries the earlier answered exchanges. Each turn's
    code is built and scored as its own variant against the original,
    thread-swept over ``counts`` against a 1-thread original if given.
    The original's build starts before the first request; turn t's build
    starts, turn t+1's request is sent, and only then is turn t's build
    joined and scored. A turn's build is joined before the original's,
    and no timed run overlaps a build. When more turns follow, the
    original is timed right after the first reply; a single turn's
    candidate builds beside the original and the two are timed back to
    back. Requests, rows and categories are those of timing the original
    before the first request and building each turn before the next. A
    benchmark whose original fails to prepare, build or run is skipped
    with an error logged, after its first request. If an exception
    escapes a row, every build in flight is killed and reaped.
    """
    if not selection:
        raise EmptySelection("no benchmarks selected")
    work_dir = Path(work_dir)
    env = env or host_env(toolchain)
    ex_tag = experiment.value.lower()
    baseline_threads = 1 if counts is not None else None

    rows = []
    for spec in selection:
        evaluated: list[tuple[str, _Evaluation]] = []
        try:
            with contextlib.ExitStack() as in_flight:
                base = _Baseline(spec, toolchain, work_dir, ex_tag, baseline_threads)
                in_flight.callback(base.kill)
                rel, original_text = _attachment(spec, base.src_dir)
                history: list[tuple[str, str]] = []
                # (tag, extraction, flags, build) of the turn whose build is running
                building = None
                for turn, (template, tag) in enumerate(turns, start=1):
                    prompt = gw.render_prompt(template, spec, original_text, env)
                    response = _request_or_none(provider, prompt, history)
                    if turn < len(turns):
                        base.sample()
                    if building is not None:
                        evaluated.append(_join_turn(spec, building, base, counts))
                        building = None
                    if response is None:
                        extraction = _no_code_extraction()
                    else:
                        history.append((prompt.user_text, response.raw_text))
                        extraction = gw.extract_code(response)
                    verdict, flags = _check_candidate(original_text, extraction, experiment)
                    if verdict is not None:
                        evaluated.append((tag, verdict))
                        continue
                    vsrc = _stage_candidate(
                        spec, base.src_dir, work_dir, tag, code=(rel, extraction.code)
                    )
                    build = tc.start_compile(spec, vsrc, toolchain, tag, work_dir)
                    in_flight.callback(build.kill)
                    building = (tag, extraction, flags, build)
                if building is not None:
                    evaluated.append(_join_turn(spec, building, base, counts))
                # A row with nothing built is still skipped for a broken original.
                base.sample()
        except _BaselineFailed as exc:
            log.error("%s: skipped, %s", spec.id, exc)
            continue
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
    counts = tuple(counts)
    if not counts or min(counts) < 1:
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
    The original builds beside the tree; a benchmark whose original
    fails to prepare, build or run is skipped with an error logged.
    """
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
            with contextlib.ExitStack() as in_flight:
                base = _Baseline(spec, toolchain, work_dir, "import")
                in_flight.callback(base.kill)
                vsrc = _stage_candidate(spec, base.src_dir, work_dir, tag, overlay=dir / bench_id)
                build = tc.compile(spec, vsrc, toolchain, tag, work_dir)
                baseline = base.sample()
        except _BaselineFailed as exc:
            log.error("%s: skipped, %s", spec.id, exc)
            continue
        evaluation = _score(spec, build, None, set(), baseline)
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
    threads = doc.get("thread_results")
    return AttemptRecord(
        benchmark_id=doc["benchmark_id"],
        motif=Motif(doc["motif"]),
        level=doc["level"],
        experiment=Experiment(doc["experiment"]),
        tool_id=doc["tool_id"],
        variant_tag=doc["variant_tag"],
        category=CorrectnessCategory(doc["category"]),
        speedup=doc["speedup"],
        na_flag=doc["na_flag"],
        labels=tuple(
            OptimizationLabel(OptimizationLabelKind(l["label"]), l["evidence"])
            for l in doc.get("labels", [])
        ),
        thread_results=(
            None if threads is None
            else tuple(sorted((int(k), v) for k, v in threads.items()))
        ),
    )


def load_table(path: Path | str) -> ResultsTable:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = tuple(record_from_dict(d) for d in doc["rows"])
    return ResultsTable(rows, doc.get("provenance", {}))


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
