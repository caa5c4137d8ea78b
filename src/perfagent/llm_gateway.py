"""Prompt rendering, model providers, response parsing, constraint checks.

Three providers are built in: a generic chat-completions HTTP client, a
deterministic replay provider answering from a recorded JSON transcript,
and a record provider that wraps another provider and writes such a
transcript. Replay keeps the whole pipeline hermetic under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import patch

SYSTEM_TEMPLATE = (
    "You are a code generation/optimization assistant. "
    "Given a prompt your output must only be a compilable source code. "
    "The computation environment is a Linux system ({os}) and a single {cpu}. "
    "The C/C++ language compilers available are: {compilers}"
)

EX1_INSTRUCTION = (
    "Provide the C/C++ code with a single serial optimization without "
    "removing any of the existing functions or header files and without "
    "adding any new functions or print statements."
)

EX2_INSTRUCTION = (
    "Propose an additional serial optimization that can be applied without "
    "removing any of the existing functions or header files and without "
    "adding any new functions or print statements."
)

EX3_INSTRUCTION = (
    "Based on the original code, provide optimized parallel C/C++ code "
    "without removing any of the existing functions or header files and "
    "without adding any new functions or print statements."
)

AGENT_INSTRUCTION = (
    "You are optimizing the hotspot function of a C/C++ program. Using the "
    "profiling summary and the iteration history below, provide an "
    "optimized implementation of the hotspot function without removing any "
    "of the existing functions or header files and without adding any new "
    "functions or print statements. Your output must only be compilable "
    "source code. You may also name additional performance metrics worth "
    "measuring next. If no further optimizations are possible, reply "
    "exactly: {sentinel}"
)

DEFAULT_DECLINE_SENTINEL = "NO FURTHER OPTIMIZATIONS"


class Experiment(Enum):
    EX1 = "EX1"
    EX2 = "EX2"
    EX3 = "EX3"
    AGENT = "Agent"


class GatewayError(Exception):
    """Base class for gateway failures."""


class UnknownExperiment(GatewayError):
    pass


class ProviderError(GatewayError):
    """Base class for provider failures; attempts become NoGeneratedCode."""


class ProviderUnreachable(ProviderError):
    pass


class ProviderTimeout(ProviderError):
    pass


class QuotaExceeded(ProviderError):
    pass


class TranscriptExhausted(ProviderTimeout):
    pass


class TranscriptMismatch(ProviderError):
    pass


class UnparseableCandidate(GatewayError):
    pass


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str
    experiment: Experiment
    attached_code: str


@dataclass(frozen=True)
class ModelResponse:
    raw_text: str
    provider_id: str
    latency_s: float
    token_counts: dict[str, int] | None = None


class ExtractionRule(Enum):
    FENCED_BLOCK = "FencedBlock"
    WHOLE_MESSAGE = "WholeMessage"
    NONE = "None"


@dataclass(frozen=True)
class ExtractionResult:
    code: str | None
    explanation: str | None
    extraction_rule_fired: ExtractionRule


class ConstraintFlag(Enum):
    REMOVED_FUNCTION = "RemovedFunction"
    REMOVED_HEADER = "RemovedHeader"
    ADDED_FUNCTION = "AddedFunction"
    ADDED_PRINT_STATEMENT = "AddedPrintStatement"
    MISSING_PARALLEL_CONSTRUCT = "MissingParallelConstruct"


class OptimizationLabelKind(Enum):
    LOOP_INTERCHANGE = "LoopInterchange"
    LOOP_FUSION = "LoopFusion"
    LOOP_FISSION = "LoopFission"
    LOOP_TILING = "LoopTiling"
    LOOP_UNROLLING = "LoopUnrolling"
    FUSED_MULTIPLY_ADD = "FusedMultiplyAdd"
    PRECISION_CHANGE = "PrecisionChange"
    MATH_SIMPLIFICATION = "MathSimplification"
    OMP_PARALLEL_FOR = "OmpParallelFor"
    OMP_SCOPING = "OmpScoping"
    OMP_SIMD = "OmpSimd"
    PREFETCH = "Prefetch"
    MEMORY_ACCESS_PATTERN = "MemoryAccessPattern"
    PRECOMPUTE_CONSTANTS = "PrecomputeConstants"
    FUNCTION_OVERHEAD_REDUCTION = "FunctionOverheadReduction"
    ALGORITHMIC_CHANGE = "AlgorithmicChange"
    OTHER = "Other"


@dataclass(frozen=True)
class OptimizationLabel:
    label: OptimizationLabelKind
    evidence: str


_INSTRUCTIONS = {
    Experiment.EX1: EX1_INSTRUCTION,
    Experiment.EX2: EX2_INSTRUCTION,
    Experiment.EX3: EX3_INSTRUCTION,
}


def render_system_text(env: dict[str, str]) -> str:
    return SYSTEM_TEMPLATE.format(
        os=env.get("os", "unknown"),
        cpu=env.get("cpu", "unknown CPU"),
        compilers=env.get("compilers", "unknown"),
    )


def render_prompt(
    experiment: Experiment,
    spec,
    code: str,
    env: dict[str, str],
) -> PromptBundle:
    """The experiment's fixed instruction with the code appended."""
    instruction = _INSTRUCTIONS.get(experiment)
    if instruction is None:
        raise UnknownExperiment(f"no template for {experiment!r}")
    if not code:
        raise ValueError("code must be non-empty")
    return PromptBundle(
        system_text=render_system_text(env),
        user_text=instruction + "\n\n" + code,
        experiment=experiment,
        attached_code=code,
    )


def render_agent_prompt(
    hotspot_code: str,
    profile_summary: str,
    memory_digest: str,
    env: dict[str, str],
    decline_sentinel: str = DEFAULT_DECLINE_SENTINEL,
) -> PromptBundle:
    """Iteration prompt: instruction, profile summary, memory, hotspot code."""
    sections = [AGENT_INSTRUCTION.format(sentinel=decline_sentinel)]
    sections.append("## Profiling summary\n" + profile_summary)
    if memory_digest:
        sections.append("## Prior iterations\n" + memory_digest)
    sections.append("## Hotspot function\n" + hotspot_code)
    return PromptBundle(
        system_text=render_system_text(env),
        user_text="\n\n".join(sections),
        experiment=Experiment.AGENT,
        attached_code=hotspot_code,
    )


def canonical_digest(messages: list[dict[str, str]]) -> str:
    blob = json.dumps(messages, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_messages(
    prompt: PromptBundle, history: list[tuple[str, str]] | None = None
) -> list[dict[str, str]]:
    """Chat messages: system, then prior exchanges, then the current turn."""
    messages = [{"role": "system", "content": prompt.system_text}]
    for user_text, assistant_text in history or []:
        messages.append({"role": "user", "content": user_text})
        messages.append({"role": "assistant", "content": assistant_text})
    messages.append({"role": "user", "content": prompt.user_text})
    return messages


class Provider(ABC):
    provider_id: str = "provider"

    @abstractmethod
    def complete(self, messages: list[dict[str, str]]) -> ModelResponse:
        raise NotImplementedError


class ReplayProvider(Provider):
    """Answers requests in order from a recorded transcript.

    Entries with a non-empty request_digest are checked against the
    incoming request; empty digests skip the check so tests can hand-write
    transcripts.
    """

    def __init__(self, transcript: list[dict] | Path | str, provider_id: str = "replay"):
        if isinstance(transcript, (Path, str)):
            transcript = json.loads(Path(transcript).read_text(encoding="utf-8"))
        self._entries = list(transcript)
        self._cursor = 0
        self._lock = threading.Lock()
        self.provider_id = provider_id
        self.received: list[list[dict[str, str]]] = []

    def complete(self, messages: list[dict[str, str]]) -> ModelResponse:
        with self._lock:
            if self._cursor >= len(self._entries):
                raise TranscriptExhausted(
                    f"transcript has only {len(self._entries)} entries"
                )
            entry = self._entries[self._cursor]
            self._cursor += 1
            self.received.append([dict(m) for m in messages])
        expected = entry.get("request_digest", "")
        if expected:
            actual = canonical_digest(messages)
            if actual != expected:
                raise TranscriptMismatch(
                    f"request digest {actual[:12]} != recorded {expected[:12]}"
                )
        return ModelResponse(
            raw_text=entry.get("response_text", ""),
            provider_id=self.provider_id,
            latency_s=float(entry.get("latency_s", 0.0)),
        )


class RecordProvider(Provider):
    """Wraps a provider and writes a replayable transcript as it goes."""

    def __init__(self, inner: Provider, transcript_path: Path | str):
        self._inner = inner
        self._path = Path(transcript_path)
        self._entries: list[dict] = []
        self._lock = threading.Lock()
        self.provider_id = inner.provider_id

    def complete(self, messages: list[dict[str, str]]) -> ModelResponse:
        response = self._inner.complete(messages)
        with self._lock:
            self._entries.append(
                {
                    "request_digest": canonical_digest(messages),
                    "response_text": response.raw_text,
                    "latency_s": response.latency_s,
                }
            )
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._path.write_text(json.dumps(self._entries, indent=2))
        return response


@dataclass(frozen=True)
class ProviderConfig:
    provider_id: str
    kind: str  # http | replay | record
    base_url: str = ""
    model: str = ""
    api_key_env: str = ""
    max_output_tokens: int | None = None
    temperature: float | None = None
    transcript_path: str | None = None


class HttpChatProvider(Provider):
    """Generic chat-completions client; the key comes only from the
    environment variable named in the config, never from the file."""

    def __init__(self, config: ProviderConfig):
        self.config = config
        self.provider_id = config.provider_id

    def complete(self, messages: list[dict[str, str]]) -> ModelResponse:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        payload: dict = {"model": self.config.model, "messages": messages}
        if self.config.max_output_tokens is not None:
            payload["max_tokens"] = self.config.max_output_tokens
        if self.config.temperature is not None:
            payload["temperature"] = self.config.temperature

        url = self.config.base_url.rstrip("/") + "/chat/completions"
        start = time.perf_counter()
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=300)
        except requests.Timeout as exc:
            raise ProviderTimeout(str(exc)) from None
        except requests.RequestException as exc:
            raise ProviderUnreachable(str(exc)) from None
        latency = time.perf_counter() - start

        if resp.status_code == 429:
            raise QuotaExceeded(resp.text[:500])
        if resp.status_code != 200:
            raise ProviderUnreachable(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            doc = resp.json()
            text = doc["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderUnreachable(f"malformed completion payload: {exc}") from None

        usage = doc.get("usage") or {}
        token_counts = None
        if "prompt_tokens" in usage or "completion_tokens" in usage:
            token_counts = {
                "input": int(usage.get("prompt_tokens", 0)),
                "output": int(usage.get("completion_tokens", 0)),
            }
        return ModelResponse(
            raw_text=text or "",
            provider_id=self.provider_id,
            latency_s=latency,
            token_counts=token_counts,
        )


def load_provider_config(path: Path | str) -> ProviderConfig:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return ProviderConfig(
        provider_id=doc["provider_id"],
        kind=doc["kind"],
        base_url=doc.get("base_url", ""),
        model=doc.get("model", ""),
        api_key_env=doc.get("api_key_env", ""),
        max_output_tokens=doc.get("max_output_tokens"),
        temperature=doc.get("temperature"),
        transcript_path=doc.get("transcript_path"),
    )


def build_provider(config: ProviderConfig, base_dir: Path | str = ".") -> Provider:
    """Instantiate a provider; relative transcript paths resolve against
    ``base_dir`` (conventionally the config file's directory)."""
    base_dir = Path(base_dir)

    def _resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base_dir / path

    if config.kind == "replay":
        if not config.transcript_path:
            raise GatewayError("replay provider needs transcript_path")
        return ReplayProvider(_resolve(config.transcript_path), config.provider_id)
    if config.kind == "http":
        return HttpChatProvider(config)
    if config.kind == "record":
        if not config.transcript_path:
            raise GatewayError("record provider needs transcript_path")
        return RecordProvider(HttpChatProvider(config), _resolve(config.transcript_path))
    raise GatewayError(f"unknown provider kind {config.kind!r}")


def request(
    provider: Provider,
    prompt: PromptBundle,
    history: list[tuple[str, str]] | None = None,
) -> ModelResponse:
    """Send one turn; history carries prior (user, assistant) exchanges."""
    return provider.complete(build_messages(prompt, history))


_FENCE_LINE = re.compile(r"^```", re.MULTILINE)
_FENCED_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```[ \t]*$", re.MULTILINE | re.DOTALL)

_TYPE_WORDS = {
    "int", "void", "double", "float", "char", "long", "short", "unsigned",
    "signed", "static", "extern", "inline", "const", "struct", "union",
    "enum", "typedef", "bool", "size_t", "template", "using", "namespace",
}


def extract_code(response: ModelResponse) -> ExtractionResult:
    """Pick the code out of a model reply.

    Rules, first match wins: largest closed fenced block; else the whole
    message when it starts like a translation unit (preprocessor
    directive, comment, or type keyword); else nothing. An odd number of
    fence lines means the final block never closed, i.e. the output was
    truncated, and nothing is extracted.
    """
    text = response.raw_text

    fence_lines = _FENCE_LINE.findall(text)
    if len(fence_lines) % 2 == 1:
        return ExtractionResult(None, None, ExtractionRule.NONE)

    blocks = list(_FENCED_BLOCK.finditer(text))
    if blocks:
        best = max(blocks, key=lambda m: len(m.group(1)))
        code = best.group(1)
        if not code.strip():
            return ExtractionResult(None, None, ExtractionRule.NONE)
        outside = (text[: best.start()] + text[best.end() :]).strip()
        return ExtractionResult(
            code=code,
            explanation=outside or None,
            extraction_rule_fired=ExtractionRule.FENCED_BLOCK,
        )

    stripped = text.strip()
    if stripped:
        head = stripped.splitlines()[0].lstrip()
        first_word = re.match(r"[A-Za-z_][A-Za-z0-9_]*", head)
        looks_like_code = (
            head.startswith("#")
            or head.startswith("//")
            or head.startswith("/*")
            or (first_word is not None and first_word.group(0) in _TYPE_WORDS)
        )
        if looks_like_code:
            return ExtractionResult(
                code=stripped,
                explanation=None,
                extraction_rule_fired=ExtractionRule.WHOLE_MESSAGE,
            )
    return ExtractionResult(None, None, ExtractionRule.NONE)


# An include directive from its "#"; it counts when only blanks precede
# the "#" on its line and the "#" is live.
_INCLUDE = re.compile(rb'#[ \t]*include[ \t]*[<"]([^>"\n]+)[>"]')


def include_names(source: str) -> set[str]:
    """Names of headers included by live (uncommented) directives."""
    return set(patch._derived(source, _include_names))


def _include_names(scan) -> frozenset[str]:
    # The raw bytes, not the zeroed copy: quote-form include names are
    # string literals and are zeroed there; only the "#" must be live.
    data = scan.data
    return frozenset(
        m.group(1).decode("utf-8", "replace")
        for m in _INCLUDE.finditer(data)
        if scan.literal[m.start()]
        and not data[data.rfind(b"\n", 0, m.start()) + 1 : m.start()].strip(b" \t")
    )


_WORD_CHAR = re.compile(r"\w")
# Word characters only, so a token occurs as a whole word exactly when
# it is one of the text's \w+ runs.
_PRINT_TOKENS = (
    "printf", "fprintf", "puts", "fputs", "putchar", "fputc", "putc",
    "perror", "cout", "cerr", "clog",
)

_PARALLEL_TOKENS = (
    "pthread_create", "std::thread", "std::jthread", "std::async",
    "std::execution::par", "tbb::parallel", "omp_set_num_threads",
)

_PRAGMA_OMP_LINE = re.compile(r"^[ \t]*#[ \t]*pragma[ \t]+omp\b", re.MULTILINE)


def _function_names(source: str, side: str) -> set[str]:
    try:
        return {s.name for s in patch.list_functions(source)}
    except patch.PatchError as exc:
        raise UnparseableCandidate(f"{side} source: {exc}") from None


def _print_kinds(source: str) -> frozenset[str]:
    return patch._derived(source, _print_kinds_of)


def _print_kinds_of(scan) -> frozenset[str]:
    # Inactive bytes are zeroed, so they end words as blanks would.
    text = scan.code.decode("utf-8", "replace")
    return frozenset(token for token in _PRINT_TOKENS if _occurs_as_word(text, token))


def _occurs_as_word(text: str, word: str) -> bool:
    """True when ``word`` is one of the \\w+ runs of ``text``."""
    i = text.find(word)
    while i >= 0:
        if not (i and _WORD_CHAR.match(text, i - 1) or _WORD_CHAR.match(text, i + len(word))):
            return True
        i = text.find(word, i + 1)
    return False


def has_parallel_construct(source: str) -> bool:
    visible = patch.active_text(source, keep_directives=True)
    if _PRAGMA_OMP_LINE.search(visible):
        return True
    active = patch.active_text(source)
    return any(token in active for token in _PARALLEL_TOKENS)


def check_constraints(
    original: str, candidate: str, experiment: Experiment
) -> set[ConstraintFlag]:
    """Instruction-following checks; heuristic, flagged as such in reports."""
    orig_fns = _function_names(original, "original")
    cand_fns = _function_names(candidate, "candidate")

    flags: set[ConstraintFlag] = set()
    if orig_fns - cand_fns:
        flags.add(ConstraintFlag.REMOVED_FUNCTION)
    if cand_fns - orig_fns:
        flags.add(ConstraintFlag.ADDED_FUNCTION)

    orig_headers = include_names(original)
    cand_headers = include_names(candidate)
    if orig_headers - cand_headers:
        flags.add(ConstraintFlag.REMOVED_HEADER)

    if _print_kinds(candidate) - _print_kinds(original):
        flags.add(ConstraintFlag.ADDED_PRINT_STATEMENT)

    if experiment is Experiment.EX3 and not has_parallel_construct(candidate):
        flags.add(ConstraintFlag.MISSING_PARALLEL_CONSTRUCT)

    return flags


# Phrase table for explanation classification; kinds are tried in enum
# order and each contributes at most one label. Plain "locality" wording
# is deliberately unmapped: it usually narrates another transformation.
_PHRASES: dict[OptimizationLabelKind, tuple[str, ...]] = {
    OptimizationLabelKind.LOOP_INTERCHANGE: (
        "loop interchange", "interchange the loops", "interchanging the loops",
        "swap the loops", "swapped the loops", "reorder the loops",
        "loop reordering", "loop order",
    ),
    OptimizationLabelKind.LOOP_FUSION: (
        "loop fusion", "fuse the loops", "fusing the loops", "fused the loops",
        "merge the loops", "merging the loops", "combine adjacent loops",
    ),
    OptimizationLabelKind.LOOP_FISSION: (
        "loop fission", "loop distribution", "split the loop", "splitting the loop",
    ),
    OptimizationLabelKind.LOOP_TILING: (
        "loop tiling", "tiling", "loop blocking", "cache blocking",
    ),
    OptimizationLabelKind.LOOP_UNROLLING: (
        "loop unrolling", "unroll", "unrolled",
    ),
    OptimizationLabelKind.FUSED_MULTIPLY_ADD: (
        "fused multiply-add", "fused multiply add", "fuse multiply", "fma",
    ),
    OptimizationLabelKind.PRECISION_CHANGE: (
        "precision change", "single precision", "single-precision",
        "lower precision", "reduced precision", "mixed precision",
        "float instead of double",
    ),
    OptimizationLabelKind.MATH_SIMPLIFICATION: (
        "algebraic simplification", "strength reduction",
        "simplify the expression", "simplify the computation",
        "simplified the math", "replace division with multiplication",
    ),
    OptimizationLabelKind.OMP_PARALLEL_FOR: (
        "omp parallel for", "omp for", "paralleliz", "parallelis",
        "openmp parallel", "pragma omp parallel",
    ),
    OptimizationLabelKind.OMP_SCOPING: (
        "firstprivate", "lastprivate", "private clause", "shared clause",
        "data scoping", "reduction clause",
    ),
    OptimizationLabelKind.OMP_SIMD: (
        "omp simd", "simd", "vectoriz", "vectoris",
    ),
    OptimizationLabelKind.PREFETCH: ("prefetch",),
    OptimizationLabelKind.MEMORY_ACCESS_PATTERN: (
        "memory access pattern", "access pattern", "contiguous access",
        "memory layout", "row-major access", "column-major access",
    ),
    OptimizationLabelKind.PRECOMPUTE_CONSTANTS: (
        "precompute", "pre-compute", "hoist", "loop-invariant", "loop invariant",
        "constant folding",
    ),
    OptimizationLabelKind.FUNCTION_OVERHEAD_REDUCTION: (
        "inlin", "function call overhead", "reduce function calls",
    ),
    OptimizationLabelKind.ALGORITHMIC_CHANGE: (
        "algorithmic change", "different algorithm", "better algorithm",
        "changed the algorithm", "asymptotic",
    ),
}


def classify_explanation(explanation: str | None) -> list[OptimizationLabel]:
    """Phrase-table classification of an optimization explanation."""
    text = (explanation or "").lower()
    labels: list[OptimizationLabel] = []
    for kind, phrases in _PHRASES.items():
        for phrase in phrases:
            if phrase in text:
                labels.append(OptimizationLabel(kind, phrase))
                break
    if not labels:
        return [OptimizationLabel(OptimizationLabelKind.OTHER, "")]
    return labels
