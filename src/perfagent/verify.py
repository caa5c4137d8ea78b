"""Output comparison and correctness classification.

An attempt lands in exactly one category, decided by a fixed precedence:
NoGeneratedCode, then CompilationError, then FailedToFollowInstructions,
then OutputMismatch, then Correct. Any non-Correct category makes the
attempt NA downstream: its speedup is recorded as 1.0 against itself,
since measurement reverts to the original code.

``compare_outputs`` reads both outputs in place: slice compares find
where they first differ, the equal lines before that are counted in
fixed-size chunks, and only the rest is split, a chunk at a time, and
paired lazily. It holds a few chunks at a time, or one line where a
line is longer than a chunk, whatever the outputs' size.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, zip_longest

from .manifest import ValidationMode, ValidationPolicy
from .toolchain import BuildOutcome, RunSample

_EXCERPT_LIMIT = 120
_END = "<end of output>"
# Size of the slices compared to find a first difference, and of the
# chunks tokens are counted in.
_CHUNK = 1 << 14
_BREAK = re.compile(rb"\r\n?|\n")

# Maps every byte that decodes (latin-1) to whitespace onto b" " and every
# other byte onto b"x", so a token starts at each b"x" after a b" ".
_TOKEN_CLASS = bytes(ord(" ") if chr(i).isspace() else ord("x") for i in range(256))


class CorrectnessCategory(Enum):
    CORRECT = "Correct"
    COMPILATION_ERROR = "CompilationError"
    NO_GENERATED_CODE = "NoGeneratedCode"
    OUTPUT_MISMATCH = "OutputMismatch"
    FAILED_TO_FOLLOW_INSTRUCTIONS = "FailedToFollowInstructions"


class VerifyError(Exception):
    """Base class for verification failures."""


class InconsistentInputs(VerifyError):
    pass


class EmptyList(VerifyError):
    pass


@dataclass(frozen=True)
class Divergence:
    line: int
    index: int  # byte column (ExactBytes) or token position on the line
    reference_excerpt: str
    candidate_excerpt: str


@dataclass(frozen=True)
class MatchReport:
    """``compared_tokens`` counts lines (ExactBytes) or tokens compared."""

    matched: bool
    first_divergence: Divergence | None
    compared_tokens: int


def _clip(text: str) -> str:
    return text if len(text) <= _EXCERPT_LIMIT else text[:_EXCERPT_LIMIT] + "..."


def _shared_line_start(data: bytes, agreed: int) -> int:
    """The last line start at or before ``agreed`` that every output equal
    to ``data`` on its first ``agreed`` bytes shares. A b"\\r" just before
    ``agreed`` ends a line only where no b"\\n" follows it."""
    if agreed == 0:
        return 0
    return max(data.rfind(b"\n", 0, agreed), data.rfind(b"\r", 0, agreed - 1)) + 1


def _filter_lines(data: bytes, start: int, end: int, patterns: tuple[re.Pattern, ...]):
    """Yield the lines of ``data[start:end]``, breaks included, that no
    pattern matches, as ``bytes.splitlines`` splits them; ``start`` must
    be a line start. Each yielded list comes from about ``_CHUNK`` bytes."""
    while start < end:
        brk = _BREAK.search(data, min(start + _CHUNK, end), end)
        cut = brk.end() if brk else end
        lines = data[start:cut].splitlines(keepends=True)
        for rx in patterns:
            lines = [raw for raw in lines if not rx.search(raw.rstrip(b"\r\n").decode("latin-1"))]
        yield lines
        start = cut


def _count_lines(data: bytes, end: int, patterns: tuple[re.Pattern, ...]) -> int:
    """Kept lines of ``data[:end]``; ``end`` is a line start or ``len(data)``."""
    if patterns:
        return sum(len(lines) for lines in _filter_lines(data, 0, end, patterns))
    count = data.count(b"\n", 0, end)
    if data.find(b"\r", 0, end) >= 0:
        count += data.count(b"\r", 0, end) - data.count(b"\r\n", 0, end)
    return count + (end > 0 and data[end - 1] not in b"\r\n")


def _count_tokens(data: bytes, end: int | None = None, patterns: tuple[re.Pattern, ...] = ()) -> int:
    """Tokens of the kept lines of ``data[:end]``: for no patterns
    ``len(data[:end].decode("latin-1").split())``, counted on fixed-size
    slices without building the tokens."""
    end = len(data) if end is None else end
    if patterns:
        return sum(_count_tokens(b"".join(lines)) for lines in _filter_lines(data, 0, end, patterns))
    count = 0
    before = b" "  # byte class just before the slice
    for i in range(0, end, _CHUNK):
        classes = data[i : min(i + _CHUNK, end)].translate(_TOKEN_CLASS)
        count += classes.count(b" x") + (before == b" " and classes.startswith(b"x"))
        before = classes[-1:]
    return count


def _mismatch(a: bytes, b: bytes) -> int:
    """Index of the first byte where ``a`` and ``b`` differ, or the
    shorter length when one is a prefix of the other.

    Compares fixed-size slices, then halves the first unequal one.
    """
    n = min(len(a), len(b))
    done = 0
    while done < n:
        step = min(_CHUNK, n - done)
        if a[done : done + step] == b[done : done + step]:
            done += step
            continue
        while step > 1:
            half = step // 2
            if a[done : done + half] == b[done : done + half]:
                done += half
                step -= half
            else:
                step = half
        return done
    return n


def _line_text(raw: bytes) -> str:
    return _clip(raw.decode("latin-1").rstrip("\r\n"))


def _compare_exact(ref_lines, cand_lines, line: int) -> MatchReport:
    """Pair the kept lines that follow ``line`` equal ones."""
    for ref, cand in zip_longest(ref_lines, cand_lines):
        if ref is None or cand is None:
            extra = _line_text(ref or cand)
            return MatchReport(
                False,
                Divergence(line + 1, 0, extra if ref else _END, extra if cand else _END),
                compared_tokens=line,
            )
        line += 1
        if ref != cand:
            return MatchReport(
                False,
                Divergence(line, _mismatch(ref, cand), _line_text(ref), _line_text(cand)),
                compared_tokens=line,
            )
    return MatchReport(True, None, compared_tokens=line)


def _parse_number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value


def _tokens(lines, line: int):
    """Yield (line, index, token) for every token of ``lines``, numbering
    them after the ``line`` kept before."""
    for raw in lines:
        line += 1
        for index, token in enumerate(raw.decode("latin-1").split(), start=1):
            yield line, index, token


def _numbers_match(r: float, c: float, policy: ValidationPolicy) -> bool:
    if r == c or (math.isnan(r) and math.isnan(c)):
        return True
    if math.isinf(r) or math.isinf(c):
        # A tolerance scaled by an infinite reference is infinite too.
        return False
    return abs(r - c) <= policy.abs_tol + policy.rel_tol * abs(r)


def _compare_numeric(
    ref_lines, cand_lines, line: int, compared: int, policy: ValidationPolicy
) -> MatchReport:
    """Pair the tokens of the kept lines that follow ``line`` equal ones
    holding ``compared`` tokens."""
    for ref, cand in zip_longest(_tokens(ref_lines, line), _tokens(cand_lines, line)):
        if ref is None or cand is None:
            line, index, token = ref or cand
            return MatchReport(
                False,
                Divergence(line, index, _clip(token) if ref else _END, _clip(token) if cand else _END),
                compared,
            )
        compared += 1
        line, index, r_tok = ref
        c_tok = cand[2]
        if r_tok == c_tok:
            continue
        r_num = _parse_number(r_tok)
        c_num = _parse_number(c_tok)
        if r_num is not None and c_num is not None and _numbers_match(r_num, c_num, policy):
            continue
        return MatchReport(
            False,
            Divergence(line, index, _clip(r_tok), _clip(c_tok)),
            compared,
        )
    return MatchReport(True, None, compared)


def compare_outputs(
    reference: bytes, candidate: bytes, policy: ValidationPolicy
) -> MatchReport:
    """Compare program outputs under the benchmark's validation policy.

    ExactBytes: byte equality after dropping lines matching any
    ignore_pattern. NumericTokens: whitespace tokens must pair up.
    Equal tokens always match, and so do numeric pairs of equal value,
    so ``inf`` matches ``inf`` and ``1e999``, and NaN matches NaN. Other
    numeric pairs match when |r - c| <= abs_tol + rel_tol * |r| (the
    reference is ground truth), and never when either side is infinite;
    other pairs must be byte-equal.

    Both outputs are read where they lie: no call builds a line list or
    copies a whole output. Equal outputs (an identity check when they are
    one object) are only counted. Otherwise fixed-size slice compares
    find the first differing byte, the walk backs up to the last line
    start both outputs share, and the lines and tokens before it are
    counted in fixed-size chunks. From there both outputs are split
    about ``_CHUNK`` bytes at a time, ignore_patterns drop lines one at a
    time, and lines (ExactBytes) or tokens are paired lazily up to the
    first divergence.
    """
    patterns = tuple(re.compile(p) for p in policy.ignore_patterns)
    exact = policy.mode is ValidationMode.EXACT_BYTES
    if reference == candidate:
        count = _count_lines if exact else _count_tokens
        return MatchReport(True, None, count(reference, len(reference), patterns))
    start = _shared_line_start(reference, _mismatch(reference, candidate))
    lines = _count_lines(reference, start, patterns)
    ref_lines = chain.from_iterable(_filter_lines(reference, start, len(reference), patterns))
    cand_lines = chain.from_iterable(_filter_lines(candidate, start, len(candidate), patterns))
    if exact:
        return _compare_exact(ref_lines, cand_lines, lines)
    tokens = _count_tokens(reference, start, patterns)
    return _compare_numeric(ref_lines, cand_lines, lines, tokens, policy)


def classify_attempt(
    build: BuildOutcome | None,
    extraction,
    run: RunSample | None,
    match: MatchReport | None,
    constraint_flags: set,
) -> CorrectnessCategory:
    """Map one attempt onto the correctness taxonomy.

    ``extraction`` needs only a ``code`` attribute; None means the code
    arrived outside a model response (external tool trees) and counts as
    present. Raises InconsistentInputs when the combination could not
    have come from a real pipeline run.
    """
    code_present = extraction is None or (
        getattr(extraction, "code", None) is not None and str(extraction.code).strip()
    )

    if not code_present:
        if run is not None or match is not None:
            raise InconsistentInputs("run/match recorded without generated code")
        return CorrectnessCategory.NO_GENERATED_CODE

    if build is None:
        # Pipelines that gate on constraints may skip the build entirely.
        if constraint_flags and run is None and match is None:
            return CorrectnessCategory.FAILED_TO_FOLLOW_INSTRUCTIONS
        raise InconsistentInputs("generated code but no build outcome")
    if not build.ok:
        if run is not None:
            raise InconsistentInputs("run recorded though build failed")
        return CorrectnessCategory.COMPILATION_ERROR

    if constraint_flags:
        return CorrectnessCategory.FAILED_TO_FOLLOW_INSTRUCTIONS

    if run is None:
        if match is not None:
            raise InconsistentInputs("match recorded without a run")
        raise InconsistentInputs("build succeeded but no run recorded")
    if run.crashed or run.timed_out:
        return CorrectnessCategory.OUTPUT_MISMATCH

    if match is None:
        raise InconsistentInputs("successful run but no output comparison")
    return CorrectnessCategory.CORRECT if match.matched else CorrectnessCategory.OUTPUT_MISMATCH


def pass_at_1(categories: list[CorrectnessCategory]) -> float:
    """Fraction of attempts whose single try is fully correct."""
    if not categories:
        raise EmptyList("no categories to score")
    correct = sum(1 for c in categories if c is CorrectnessCategory.CORRECT)
    return correct / len(categories)
