"""Iterative profile-guided optimization loop.

Each iteration profiles the last correct binary, shows the model the top
hotspots plus a digest of prior iterations, asks for an optimized hotspot
function, patches it in, rebuilds, validates against the original
program's output, and measures speedup. The loop ends at the iteration
cap, when the model declines with the decline sentinel, or on a fatal
harness failure. Incorrect iterations burn a slot but never become the
base for later ones.

The original and each candidate take the experiment drivers' path,
``experiments._Baseline``: it prepares and builds the original beside
the first request, builds each candidate and times it in rounds with
the original (see ``run_agent``). Traces keep a digest of each run's
stdout.

Profile acquisition is a callback so tests stay hermetic: they serve
synthetic cct-v1 fixtures keyed by variant tag, while production wiring
can shell out to a real profiler and converter.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable

from . import experiments as ex
from . import llm_gateway as gw
from . import patch, profile
from . import toolchain as tc
from .manifest import BenchmarkSpec
from .verify import CorrectnessCategory

log = logging.getLogger(__name__)

TRACE_FILE = "trace.json"
MEMORY_MARKER = "[memory truncated]"
TOP_K_HOTSPOTS = 3
MEMORY_BUDGET_CHARS = 1600


class AgentError(Exception):
    pass


class StopReason(Enum):
    THRESHOLD_REACHED = "ThresholdReached"
    MODEL_DECLINED = "ModelDeclined"
    FATAL_ERROR = "FatalError"


@dataclass(frozen=True)
class AgentConfig:
    """``env_context`` goes into the profile summary, ``prompt_env`` into
    the system prompt (empty: the host's, ``experiments.host_env``, as ex
    prompts have). ``metric_id`` ranks hotspots; without it the profile's
    default exclusive metric does."""

    max_iterations: int = 3
    env_context: dict = field(default_factory=dict)
    prompt_env: dict = field(default_factory=dict)
    metric_id: str | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    context_sent: str
    response: gw.ModelResponse
    extraction: gw.ExtractionResult
    category: CorrectnessCategory
    run: tc.RunSample | None = None
    speedup_vs_original: tc.SpeedupStat | None = None
    requested_metrics: tuple[str, ...] = ()
    profile_delta: profile.MetricDelta | None = None
    note: str = ""


@dataclass(frozen=True)
class AgentTrace:
    benchmark_id: str
    baseline: tc.RunSample
    iterations: tuple[IterationRecord, ...]
    stop_reason: StopReason
    best_iteration: int | None


@dataclass(frozen=True)
class ProfileRequest:
    """One variant to profile, run as ``spec.run`` says.

    For the original ("agent/base"), reading ``binary_path`` joins its
    build and runs it once, so a source that opens the binary can run it
    and one that never does lets the build go on beside the first request.
    """

    spec: BenchmarkSpec
    variant_tag: str
    binary: Callable[[], Path]
    metric_ids: tuple[str, ...] = ()

    @property
    def binary_path(self) -> Path:
        return self.binary()


ProfileSource = Callable[[ProfileRequest], profile.ProfileTree]


METRIC_ALIASES: dict[str, str] = {
    "l1 data cache load misses": "l1_dcache_miss",
    "l1 data cache misses": "l1_dcache_miss",
    "l1 cache misses": "l1_dcache_miss",
    "l1 misses": "l1_dcache_miss",
    "floating-point instructions": "fp_inst",
    "floating point instructions": "fp_inst",
    "fp instructions": "fp_inst",
    "frontend stalled cycles": "stalled_cycles_frontend",
    "front-end stalled cycles": "stalled_cycles_frontend",
    "stalled cycles frontend": "stalled_cycles_frontend",
    "backend stalled cycles": "stalled_cycles_backend",
    "back-end stalled cycles": "stalled_cycles_backend",
    "stalled cycles backend": "stalled_cycles_backend",
}

_REQUEST_CUES = ("measure", "metric", "counter", "collect", "profile")


def parse_metric_requests(response_text: str, catalog) -> list[str]:
    """Metric ids the model asked for, restricted to the known catalog.

    Matches catalog ids verbatim and a fixed alias table, both
    case-insensitively; ordered by first appearance in the text. Unknown
    requests are dropped with a logged note.
    """
    text = (response_text or "").lower()
    if not text:
        return []
    hits: dict[str, int] = {}
    # Aliases, then the catalog's own ids in its order: ids found at the
    # same position keep that order.
    for phrase, metric_id in [*METRIC_ALIASES.items(), *((m.lower(), m) for m in catalog)]:
        pos = text.find(phrase)
        if pos >= 0 and metric_id in catalog and pos < hits.get(metric_id, len(text)):
            hits[metric_id] = pos
    if not hits and any(cue in text for cue in _REQUEST_CUES):
        log.info("metric request matched nothing in catalog: %.80s", response_text)
    return sorted(hits, key=hits.get)


def _digest_line(record: IterationRecord) -> str:
    parts = [f"iter {record.index}: {record.category.value}"]
    if record.speedup_vs_original is not None:
        parts.append(f"speedup {record.speedup_vs_original.speedup:.2f}x")
    explanation = (record.extraction.explanation or "").strip()
    if explanation:
        parts.append(explanation.splitlines()[0].strip())
    if record.profile_delta is not None:
        for metric_id, entry in record.profile_delta.entries.items():
            if entry.relative_change is not None:
                parts.append(f"{metric_id} {entry.relative_change * 100:+.1f}%")
    return "; ".join(parts)


def build_memory_digest(iterations, budget: int) -> str:
    """Most-recent-first one-line-per-iteration history, capped at budget."""
    lines = [_digest_line(r) for r in reversed(list(iterations))]
    return profile.fit_lines(lines, budget, MEMORY_MARKER)


_AFFIRM_NO_CHANGE = re.compile(
    r"no (further|additional|more) (optimizations?|improvements?|changes?)"
    r"|already optimal|cannot be optimized further",
    re.IGNORECASE,
)


def _is_decline(raw_text: str, extraction: gw.ExtractionResult) -> bool:
    if gw.DECLINE_SENTINEL in raw_text:
        return True
    return (
        extraction.code is None
        and "```" not in raw_text
        and bool(_AFFIRM_NO_CHANGE.search(raw_text))
    )


def _fallback_tree(spec: BenchmarkSpec, hotspot_name: str, mean_s: float) -> profile.ProfileTree:
    """Single-node stand-in when no profiler is wired up."""
    metrics = {"time_excl": max(mean_s, 0.0)}
    frame = profile.Frame(hotspot_name, str(spec.source_files[0]), 0)
    return profile.ProfileTree(
        roots=(profile.ProfileNode(frame, metrics),),
        metric_catalog={"time_excl": profile.MetricInfo("s", profile.MetricKind.EXCLUSIVE)},
        total=dict(metrics),
    )


def _profile_or_fallback(
    profile_source: ProfileSource | None,
    request: ProfileRequest,
    spec: BenchmarkSpec,
    hotspot_name: str | None,
    mean_s: Callable[[], float],
) -> tuple[profile.ProfileTree, str]:
    """The source's tree for ``request``, or else a fallback tree for
    ``hotspot_name`` carrying ``mean_s()`` and a note on why the source
    failed; AgentError when there is no ``hotspot_name`` to fall back on.
    """
    note = ""
    if profile_source is not None:
        try:
            return profile_source(request), ""
        except Exception as exc:  # profiler trouble must not kill the run
            note = f"profile source failed: {exc}"
            log.warning("%s: %s", request.variant_tag, note)
    if hotspot_name is None:
        raise AgentError(f"no entry_hotspot in manifest and {note or 'no profile source'}")
    return _fallback_tree(spec, hotspot_name, mean_s()), note


def _resolve_hotspot(
    spec: BenchmarkSpec,
    profile_source: ProfileSource | None,
    original: ex._Baseline,
    cfg: AgentConfig,
) -> tuple[profile.ProfileTree, str, str, str]:
    """Baseline profile, a note on how it was got, the function name the
    loop will patch and the metric that ranks hotspots.

    The manifest's entry_hotspot wins; without one the baseline profile's
    hotspot is used, which then requires a working profile source.
    """
    tree, note = _profile_or_fallback(
        profile_source, ProfileRequest(spec, "agent/base", original.binary_path),
        spec, spec.entry_hotspot, lambda: original.check().mean_s,
    )
    metric_id = cfg.metric_id or profile.default_exclusive_metric(tree)
    name = spec.entry_hotspot or profile.hotspot(tree, metric_id).node.frame.fn
    return tree, note, name, metric_id


def _patch_hotspot(
    base_source: str, hotspot: str, extraction: gw.ExtractionResult,
) -> tuple[str | None, str]:
    """``base_source`` with the reply's one definition of ``hotspot``
    patched in, else None and why (one other name is a rename). It only
    patches: ``_Baseline.attempt`` checks the result against the rules."""
    try:
        new_function = patch.extract_function(extraction.code, hotspot)
    except patch.PatchError:
        return None, f"no definition of {hotspot!r} in reply"
    try:
        return patch.replace_function(base_source, hotspot, new_function), ""
    except patch.PatchError as exc:
        return None, f"patch failed: {exc}"


def run_agent(
    spec: BenchmarkSpec,
    profile_source: ProfileSource | None,
    provider: gw.Provider,
    cfg: AgentConfig,
    toolchain: tc.ToolchainConfig,
    work_dir: Path,
) -> AgentTrace:
    """Drive the full loop for one benchmark; returns the persisted trace.

    The original is prepared as its ``prep`` options say and its build
    started first. It is joined when first needed (by the fallback tree, a
    profile source reading its ``binary_path``, the first candidate timed
    or the trace's baseline) and runs alone once at most. Requests go
    through ``ex._reply``, as ex turns' do; the trace keeps an empty reply
    for a provider error. The system prompt describes ``cfg.prompt_env``,
    else the host (``ex.host_env``). Each reply is one
    ``_Baseline.attempt``, its patched source (``_patch_hotspot``) in
    place of its code, scored by ``_Baseline.score`` as an ex2 turn is; a
    decline is scored as a reply without code (``gw.NO_CODE``), and its
    record keeps what was extracted. A speedup is the ratio of two samples
    from the same rounds, and the best iteration is the first fastest
    correct one by it (``ex._fastest``). A candidate whose first output
    mismatches the original's runs once, and so does the original in those
    rounds: the iteration's ``run`` then holds one wall time, and so does
    the trace's ``baseline``, the original's first run, unless rounds with
    a matching candidate took it. ``ex.BaselineFailed`` propagates
    (``BaselineRunFailed`` when the original built but did not run
    cleanly), so with a profile source that does not read the binary a
    broken original is reported at the first candidate timed or after the
    last iteration. An escaping exception kills every unjoined build.
    """
    work_dir = Path(work_dir)
    cfg = replace(cfg, prompt_env=cfg.prompt_env or ex.host_env(toolchain))
    with ex._Baseline(spec, toolchain, work_dir, "agent") as original:
        iterations, stop_reason, best_iteration = _iterate(
            spec, original, profile_source, provider, cfg
        )
        trace = AgentTrace(spec.id, original.check(), iterations, stop_reason, best_iteration)
    save_trace(trace, trace_path(work_dir, spec.id))
    return trace


def trace_path(work_dir: Path | str, bench_id: str) -> Path:
    """Where ``run_agent`` saves the trace of ``bench_id`` run in ``work_dir``."""
    return Path(work_dir) / bench_id / "agent" / TRACE_FILE


def _iterate(
    spec: BenchmarkSpec,
    original: ex._Baseline,
    profile_source: ProfileSource | None,
    provider: gw.Provider,
    cfg: AgentConfig,
) -> tuple[tuple[IterationRecord, ...], StopReason, int | None]:
    """The loop's iterations, why it stopped, and the best iteration."""
    try:
        current_tree, profile_note, hotspot_name, metric_id = _resolve_hotspot(
            spec, profile_source, original, cfg
        )
        found = ex._defining_file(spec, original.src_dir, hotspot_name)
        if found is None:
            raise AgentError(f"hotspot {hotspot_name!r} not found in sources")
    except (AgentError, profile.ProfileError) as exc:
        log.error("%s: %s", spec.id, exc)
        return (), StopReason.FATAL_ERROR, None
    hotspot_rel, base_source = found

    iterations: list[IterationRecord] = []
    stop_reason = StopReason.THRESHOLD_REACHED

    for index in range(1, cfg.max_iterations + 1):
        try:
            # A metric the current profile lacks gives way to its default
            # one, for good unless the config names it.
            ranking = metric_id
            if ranking not in current_tree.metric_catalog:
                ranking = profile.default_exclusive_metric(current_tree)
            metric_id = cfg.metric_id or ranking
            summary = profile.summarize_for_model(
                current_tree, TOP_K_HOTSPOTS, cfg.env_context, metric_id=ranking
            )
            memory = build_memory_digest(iterations, MEMORY_BUDGET_CHARS)
            hotspot_code = patch.extract_function(base_source, hotspot_name)
        except (patch.PatchError, profile.ProfileError) as exc:
            log.error("%s iteration %d: %s", spec.id, index, exc)
            stop_reason = StopReason.FATAL_ERROR
            break
        bundle = gw.render_agent_prompt(hotspot_code, summary, memory, cfg.prompt_env)

        note, profile_note = profile_note, ""
        requested: tuple[str, ...] = ()
        delta = None
        tag = f"agent/iter{index}"
        response, extraction, error = ex._reply(provider, bundle)
        response = response or gw.ModelResponse("", provider.provider_id, 0.0)
        note = _join_notes(note, error)
        declined = _is_decline(response.raw_text, extraction)

        new_source, why = None, ""
        if declined:  # scored as a reply without code, whatever it carries
            why = "model declined further optimization"
            stop_reason = StopReason.MODEL_DECLINED
        elif extraction.code is not None:
            catalog = current_tree.metric_catalog
            requested = tuple(parse_metric_requests(response.raw_text, catalog))
            new_source, why = _patch_hotspot(base_source, hotspot_name, extraction)
        attempt = original.attempt(
            tag, gw.NO_CODE if declined else extraction, gw.Experiment.AGENT,
            (hotspot_rel, base_source), new_source,
        )
        flags = attempt.flags  # a ConstraintFlag each, or the str ex._UNPARSEABLE
        if new_source is not None and flags:
            why = "violated: " + ", ".join(sorted(getattr(f, "value", f) for f in flags))
        note = _join_notes(note, why)
        (scored,) = original.score([attempt])
        run = scored.run
        if run is not None and run.stdout is not original.check().stdout:
            # The trace keeps the output's size and digest, not its file.
            run.stdout.sha256()
            run.stdout.close()

        if scored.category is CorrectnessCategory.CORRECT:
            next_tree, fail_note = _profile_or_fallback(
                profile_source,
                ProfileRequest(spec, tag, lambda: scored.build.binary_path, requested),
                spec, hotspot_name, lambda: scored.run.mean_s,
            )
            note = _join_notes(note, fail_note)
            try:
                hotspot_fn_path = _find_fn_path(current_tree, hotspot_name)
                if hotspot_fn_path is not None:
                    delta = profile.diff_metrics(current_tree, next_tree, hotspot_fn_path)
            except profile.NodeNotFound as exc:
                note = _join_notes(note, f"profile diff unavailable: {exc}")
            base_source = new_source
            current_tree = next_tree

        iterations.append(IterationRecord(
            index=index, context_sent=bundle.user_text, response=response,
            extraction=extraction, category=scored.category, run=scored.run,
            speedup_vs_original=scored.stat, requested_metrics=requested,
            profile_delta=delta, note=note,
        ))
        if declined:
            break

    best = ex._fastest([record.speedup_vs_original for record in iterations])
    return tuple(iterations), stop_reason, None if best is None else iterations[best].index


def _join_notes(*notes: str) -> str:
    return "; ".join(n for n in notes if n)


def _find_fn_path(tree: profile.ProfileTree, fn: str) -> tuple[str, ...] | None:
    for path, node in profile.walk(tree):
        if node.frame.fn == fn:
            return tuple(f.fn for f in path)
    return None


def _run_sample_doc(run: tc.RunSample | None) -> dict | None:
    """An Output keeps its digest, so runs that share the original's
    output hash it once, streamed from its file."""
    if run is None:
        return None
    return {
        "wall_times_s": list(run.wall_times_s),
        "stdout_sha256": run.stdout.sha256(),
        "stdout_bytes": len(run.stdout),
        "stderr": run.stderr[-tc.STDERR_TAIL:].decode("latin-1"),
        "exit_status": run.exit_status,
        "thread_count": run.thread_count,
    }


def trace_to_dict(trace: AgentTrace) -> dict:
    doc = {
        "benchmark_id": trace.benchmark_id,
        "baseline": _run_sample_doc(trace.baseline),
        "stop_reason": trace.stop_reason.value,
        "best_iteration": trace.best_iteration,
        "iterations": [],
    }
    for record in trace.iterations:
        stat, delta = record.speedup_vs_original, record.profile_delta
        entry = {
            "index": record.index,
            "context_sent": record.context_sent,
            "response": asdict(record.response),
            "extraction": {
                "code": record.extraction.code,
                "explanation": record.extraction.explanation,
                "rule": record.extraction.extraction_rule_fired.value,
            },
            "category": record.category.value,
            "run": _run_sample_doc(record.run),
            "speedup_vs_original": None if stat is None else asdict(stat),
            "requested_metrics": list(record.requested_metrics),
            "profile_delta": None if delta is None else asdict(delta),
            "note": record.note,
        }
        doc["iterations"].append(entry)
    return doc


def save_trace(trace: AgentTrace, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace_to_dict(trace), indent=2), encoding="utf-8")
