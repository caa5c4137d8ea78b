"""Iterative profile-guided optimization loop.

Each iteration profiles the current best binary, shows the model the top
hotspots plus a digest of prior iterations, asks for an optimized hotspot
function, patches it in, rebuilds, validates against the original
program's output, and measures speedup. The loop ends at the iteration
cap, when the model declines with the configured sentinel, or on a fatal
harness failure. Incorrect iterations burn a slot but never become the
base for later ones.

The original and each candidate are prepared, staged, built and scored
on the experiment drivers' path; the original builds beside the first
request (see ``run_agent``). Traces keep a digest of each run's stdout.

Profile acquisition is a callback so tests stay hermetic: they serve
synthetic cct-v1 fixtures keyed by variant tag, while production wiring
can shell out to a real profiler and converter.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import re
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

from . import experiments as ex
from . import llm_gateway as gw
from . import patch, profile
from . import toolchain as tc
from .manifest import BenchmarkSpec
from .verify import CorrectnessCategory, classify_attempt

log = logging.getLogger(__name__)

TRACE_FILE = "trace.json"
MEMORY_MARKER = "[memory truncated]"


class AgentError(Exception):
    pass


class BaselineBuildFailed(AgentError):
    pass


class BaselineRunFailed(AgentError):
    pass


class MetricRequestPolicy(Enum):
    HONOR_MODEL_REQUESTS = "HonorModelRequests"
    FIXED_SET = "FixedSet"


class BasePolicy(Enum):
    LAST_CORRECT = "LastCorrect"
    BEST_CORRECT = "BestCorrect"


class StopReason(Enum):
    THRESHOLD_REACHED = "ThresholdReached"
    MODEL_DECLINED = "ModelDeclined"
    FATAL_ERROR = "FatalError"


@dataclass(frozen=True)
class AgentConfig:
    max_iterations: int = 3
    top_k_hotspots: int = 3
    env_context: dict = field(default_factory=dict)
    metric_request_policy: MetricRequestPolicy = MetricRequestPolicy.HONOR_MODEL_REQUESTS
    base_policy: BasePolicy = BasePolicy.LAST_CORRECT
    decline_sentinel: str = gw.DEFAULT_DECLINE_SENTINEL
    prompt_env: dict = field(default_factory=dict)
    metric_id: str | None = None
    fixed_metrics: tuple[str, ...] = ()
    summary_budget_chars: int = profile.DEFAULT_CHAR_BUDGET
    memory_budget_chars: int = 1600

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.top_k_hotspots < 1:
            raise ValueError("top_k_hotspots must be >= 1")


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
    """One variant to profile, run under ``run``, the run recipe.

    For the original ("agent/base"), reading ``binary_path`` joins and
    times its build, so a source that opens the binary gets an executable
    and one that never does lets the build go on beside the first request.
    """

    spec: BenchmarkSpec
    variant_tag: str
    binary: Callable[[], Path]
    run: object
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
    known = set(catalog)
    hits: dict[str, int] = {}
    for phrase, metric_id in METRIC_ALIASES.items():
        if metric_id not in known:
            continue
        pos = text.find(phrase)
        if pos >= 0 and (metric_id not in hits or pos < hits[metric_id]):
            hits[metric_id] = pos
    for metric_id in known:
        pos = text.find(metric_id.lower())
        if pos >= 0 and (metric_id not in hits or pos < hits[metric_id]):
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
    records = list(iterations)
    if not records:
        return ""
    lines = [_digest_line(r) for r in reversed(records)]
    text = "\n".join(lines)
    if len(text) <= budget:
        return text
    kept: list[str] = []
    used = 0
    for line in lines:
        cost = len(line) + (1 if kept else 0)
        if used + cost + len(MEMORY_MARKER) + 1 > budget:
            break
        kept.append(line)
        used += cost
    if not kept:
        return MEMORY_MARKER
    return "\n".join(kept) + "\n" + MEMORY_MARKER


_AFFIRM_NO_CHANGE = re.compile(
    r"no (further|additional|more) (optimizations?|improvements?|changes?)"
    r"|already optimal|cannot be optimized further",
    re.IGNORECASE,
)


def _is_decline(raw_text: str, extraction: gw.ExtractionResult, sentinel: str) -> bool:
    if sentinel and sentinel in raw_text:
        return True
    return (
        extraction.code is None
        and "```" not in raw_text
        and bool(_AFFIRM_NO_CHANGE.search(raw_text))
    )


def _fallback_tree(spec: BenchmarkSpec, hotspot_name: str, mean_s: float) -> profile.ProfileTree:
    """Single-node stand-in when no profiler is wired up."""
    doc = {
        "schema": profile.SCHEMA_ID,
        "metrics": [{"id": "time_excl", "unit": "s", "kind": "Exclusive"}],
        "roots": [{
            "frame": {"fn": hotspot_name,
                      "file": str(spec.source_files[0]), "line": 0},
            "metrics": {"time_excl": max(mean_s, 0.0)},
            "children": [],
        }],
    }
    return profile.import_profile(json.dumps(doc))


def _profile_or_fallback(
    profile_source: ProfileSource | None,
    request: ProfileRequest,
    spec: BenchmarkSpec,
    hotspot_name: str,
    mean_s: Callable[[], float],
) -> tuple[profile.ProfileTree, str]:
    """The source's tree for ``request``, or a fallback carrying ``mean_s()``."""
    if profile_source is None:
        return _fallback_tree(spec, hotspot_name, mean_s()), ""
    try:
        return profile_source(request), ""
    except Exception as exc:  # profiler trouble must not kill the run
        log.warning("profile source failed for %s: %s", request.variant_tag, exc)
        return (
            _fallback_tree(spec, hotspot_name, mean_s()),
            f"profile source failed: {exc}",
        )


def _resolve_hotspot(
    spec: BenchmarkSpec,
    profile_source: ProfileSource | None,
    original: ex._Baseline,
    cfg: AgentConfig,
) -> tuple[profile.ProfileTree, str, str]:
    """Baseline profile plus the function name the loop will patch.

    The manifest's entry_hotspot wins; without one the baseline profile's
    hotspot is used, which then requires a working profile source.
    """
    request = ProfileRequest(spec, "agent/base", original.binary_path, spec.run)
    if spec.entry_hotspot:
        tree, note = _profile_or_fallback(
            profile_source, request, spec, spec.entry_hotspot,
            lambda: original.sample().mean_s,
        )
        return tree, note, spec.entry_hotspot
    if profile_source is None:
        raise AgentError("no entry_hotspot in manifest and no profile source")
    tree = profile_source(request)
    metric_id = cfg.metric_id or profile.default_exclusive_metric(tree)
    report = profile.hotspot(tree, metric_id)
    return tree, "", report.node.frame.fn


def _patch_hotspot(
    base_source: str, hotspot: str, extraction: gw.ExtractionResult,
) -> tuple[str | None, CorrectnessCategory | None, str]:
    """``base_source`` with the reply's one definition of ``hotspot``
    patched in, or None, the reply's category and why it does not follow
    the instructions (a single differently-named definition is a rename).
    """
    unfollowed = CorrectnessCategory.FAILED_TO_FOLLOW_INSTRUCTIONS
    try:
        named = [span for span in patch.list_functions(extraction.code) if span.name == hotspot]
    except patch.PatchError:
        named = []
    if len(named) != 1:
        return None, unfollowed, f"no definition of {hotspot!r} in reply"
    try:
        new_function = patch.extract_function(extraction.code, hotspot)
        new_source = patch.replace_function(base_source, hotspot, new_function)
    except patch.PatchError as exc:
        return None, unfollowed, f"patch failed: {exc}"
    try:
        flags = gw.check_constraints(base_source, new_source, gw.Experiment.AGENT)
    except gw.UnparseableCandidate:
        flags = {gw.ConstraintFlag.ADDED_FUNCTION}
    if flags:
        category = classify_attempt(None, extraction, None, None, flags)
        return None, category, "violated: " + ", ".join(sorted(f.value for f in flags))
    return new_source, None, ""


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
    started first. It is joined and timed when first needed: by the
    fallback tree, by a profile source reading its ``binary_path``, by
    the first candidate's timed run (the two are then timed back to
    back) or at the end of the loop. BaselineBuildFailed and
    BaselineRunFailed are raised then, so with a profile source that
    does not read the binary a broken original is reported after the
    first request. An escaping exception kills the original's build.
    """
    work_dir = Path(work_dir)
    agent_dir = work_dir / spec.id / "agent"
    agent_dir.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.ExitStack() as in_flight:
            original = ex._Baseline(spec, toolchain, work_dir, "agent")
            in_flight.callback(original.kill)
            iterations, stop_reason, best_iteration = _iterate(
                spec, original, profile_source, provider, cfg, toolchain, work_dir
            )
            trace = AgentTrace(spec.id, original.sample(), iterations, stop_reason, best_iteration)
    except ex._BaselineRunFailed as exc:
        raise BaselineRunFailed(str(exc)) from exc
    except ex._BaselineFailed as exc:
        raise BaselineBuildFailed(str(exc)) from exc
    save_trace(trace, agent_dir / TRACE_FILE)
    return trace


def _iterate(
    spec: BenchmarkSpec,
    original: ex._Baseline,
    profile_source: ProfileSource | None,
    provider: gw.Provider,
    cfg: AgentConfig,
    toolchain: tc.ToolchainConfig,
    work_dir: Path,
) -> tuple[tuple[IterationRecord, ...], StopReason, int | None]:
    """The loop's iterations, why it stopped, and the best iteration."""
    try:
        current_tree, profile_note, hotspot_name = _resolve_hotspot(
            spec, profile_source, original, cfg
        )
        found = ex._defining_file(spec, original.src_dir, hotspot_name)
        if found is None:
            raise AgentError(f"hotspot {hotspot_name!r} not found in sources")
    except (AgentError, profile.ProfileError) as exc:
        log.error("%s: %s", spec.id, exc)
        return (), StopReason.FATAL_ERROR, None
    hotspot_rel, base_source = found
    metric_id = cfg.metric_id or profile.default_exclusive_metric(current_tree)

    iterations: list[IterationRecord] = []
    # (mean_s, index, source) of correct versions, in iteration order
    correct_versions: list[tuple[float, int, str]] = []
    stop_reason = StopReason.THRESHOLD_REACHED

    for index in range(1, cfg.max_iterations + 1):
        try:
            summary = profile.summarize_for_model(
                current_tree, cfg.top_k_hotspots, cfg.env_context,
                metric_id=metric_id if metric_id in current_tree.metric_catalog else None,
                char_budget=cfg.summary_budget_chars,
            )
            memory = build_memory_digest(iterations, cfg.memory_budget_chars)
            hotspot_code = patch.extract_function(base_source, hotspot_name)
        except (patch.PatchError, profile.ProfileError) as exc:
            log.error("%s iteration %d: %s", spec.id, index, exc)
            stop_reason = StopReason.FATAL_ERROR
            break
        bundle = gw.render_agent_prompt(
            hotspot_code, summary, memory, cfg.prompt_env, cfg.decline_sentinel
        )

        note, profile_note = profile_note, ""
        requested: tuple[str, ...] = ()
        new_source = run = speedup = delta = None
        category = CorrectnessCategory.NO_GENERATED_CODE
        try:
            response = gw.request(provider, bundle)
            extraction = gw.extract_code(response)
        except gw.ProviderError as exc:
            response = gw.ModelResponse("", provider.provider_id, 0.0)
            extraction = ex._no_code_extraction()
            note = _join_notes(note, f"provider error: {exc}")
        declined = _is_decline(response.raw_text, extraction, cfg.decline_sentinel)

        if declined:
            note = _join_notes(note, "model declined further optimization")
            stop_reason = StopReason.MODEL_DECLINED
        elif extraction.code is not None:
            catalog = current_tree.metric_catalog
            if cfg.metric_request_policy is MetricRequestPolicy.HONOR_MODEL_REQUESTS:
                requested = tuple(parse_metric_requests(response.raw_text, catalog))
            else:
                requested = tuple(m for m in cfg.fixed_metrics if m in catalog)
            new_source, category, why = _patch_hotspot(base_source, hotspot_name, extraction)
            note = _join_notes(note, why)

        if new_source is not None:
            tag = f"agent/iter{index}"
            vsrc = ex._stage_candidate(
                spec, original.src_dir, work_dir, tag, code=(hotspot_rel, new_source)
            )
            build = tc.compile(spec, vsrc, toolchain, tag, work_dir)
            evaluation = ex._score(spec, build, extraction, set(), original.sample())
            category, run, speedup = evaluation.category, evaluation.run, evaluation.stat

        if category is CorrectnessCategory.CORRECT:
            next_tree, fail_note = _profile_or_fallback(
                profile_source,
                ProfileRequest(spec, tag, lambda: build.binary_path, spec.run, requested),
                spec, hotspot_name, lambda: run.mean_s,
            )
            note = _join_notes(note, fail_note)
            try:
                hotspot_fn_path = _find_fn_path(current_tree, hotspot_name)
                if hotspot_fn_path is not None:
                    delta = profile.diff_metrics(current_tree, next_tree, hotspot_fn_path)
            except profile.NodeNotFound as exc:
                note = _join_notes(note, f"profile diff unavailable: {exc}")
            correct_versions.append((run.mean_s, index, new_source))
            if cfg.base_policy is BasePolicy.BEST_CORRECT:
                base_source = min(correct_versions)[2]
            else:
                base_source = new_source
            current_tree = next_tree
            if cfg.metric_id is None and metric_id not in next_tree.metric_catalog:
                metric_id = profile.default_exclusive_metric(next_tree)

        iterations.append(IterationRecord(
            index=index, context_sent=bundle.user_text, response=response,
            extraction=extraction, category=category, run=run,
            speedup_vs_original=speedup, requested_metrics=requested,
            profile_delta=delta, note=note,
        ))
        if declined:
            break

    best_iteration = min(correct_versions)[1] if correct_versions else None
    return tuple(iterations), stop_reason, best_iteration


def _join_notes(*notes: str) -> str:
    return "; ".join(n for n in notes if n)


def _find_fn_path(tree: profile.ProfileTree, fn: str) -> tuple[str, ...] | None:
    for path, node in profile.walk(tree):
        if node.frame.fn == fn:
            return tuple(f.fn for f in path)
    return None


def _run_sample_doc(run: tc.RunSample | None, digests: dict[int, str]) -> dict | None:
    """``digests`` maps ``id(stdout)`` to its SHA-256 for the stdout
    objects already hashed: runs that share the original's output hash
    it once."""
    if run is None:
        return None
    digest = digests.get(id(run.stdout))
    if digest is None:
        digest = digests[id(run.stdout)] = hashlib.sha256(run.stdout).hexdigest()
    return {
        "wall_times_s": list(run.wall_times_s),
        "stdout_sha256": digest,
        "stdout_bytes": len(run.stdout),
        "stderr": run.stderr[-4000:].decode("latin-1"),
        "exit_status": run.exit_status,
        "thread_count": run.thread_count,
    }


def _asdict_or_none(record) -> dict | None:
    return None if record is None else asdict(record)


def trace_to_dict(trace: AgentTrace) -> dict:
    # The trace holds every stdout, so no id is reused while this runs.
    digests: dict[int, str] = {}
    doc = {
        "benchmark_id": trace.benchmark_id,
        "baseline": _run_sample_doc(trace.baseline, digests),
        "stop_reason": trace.stop_reason.value,
        "best_iteration": trace.best_iteration,
        "iterations": [],
    }
    for record in trace.iterations:
        entry = {
            "index": record.index,
            "context_sent": record.context_sent,
            "response": {
                "raw_text": record.response.raw_text,
                "provider_id": record.response.provider_id,
                "latency_s": record.response.latency_s,
                "token_counts": record.response.token_counts,
            },
            "extraction": {
                "code": record.extraction.code,
                "explanation": record.extraction.explanation,
                "rule": record.extraction.extraction_rule_fired.value,
            },
            "category": record.category.value,
            "run": _run_sample_doc(record.run, digests),
            "speedup_vs_original": _asdict_or_none(record.speedup_vs_original),
            "requested_metrics": list(record.requested_metrics),
            "profile_delta": _asdict_or_none(record.profile_delta),
            "note": record.note,
        }
        doc["iterations"].append(entry)
    return doc


def save_trace(trace: AgentTrace, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace_to_dict(trace), indent=2), encoding="utf-8")
