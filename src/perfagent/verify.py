"""Output comparison and correctness classification.

An attempt lands in exactly one category, decided by a fixed precedence:
NoGeneratedCode, then CompilationError, then FailedToFollowInstructions,
then OutputMismatch, then Correct. Any non-Correct category makes the
attempt NA downstream: its speedup is recorded as 1.0 against itself,
since measurement reverts to the original code.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest

from .manifest import ValidationMode, ValidationPolicy
from .toolchain import BuildOutcome, RunSample

_EXCERPT_LIMIT = 120

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


def _filter_lines(data: bytes, patterns: tuple[str, ...]) -> list[bytes]:
    if not patterns:
        return data.splitlines(keepends=True)
    compiled = [re.compile(p) for p in patterns]
    kept = []
    for raw in data.splitlines(keepends=True):
        text = raw.rstrip(b"\r\n").decode("latin-1")
        if any(rx.search(text) for rx in compiled):
            continue
        kept.append(raw)
    return kept


def _clip(text: str) -> str:
    return text if len(text) <= _EXCERPT_LIMIT else text[:_EXCERPT_LIMIT] + "..."


def _compare_exact(ref_lines: list[bytes], cand_lines: list[bytes]) -> MatchReport:
    count = min(len(ref_lines), len(cand_lines))
    for i in range(count):
        if ref_lines[i] != cand_lines[i]:
            col = next(
                (
                    j
                    for j, (a, b) in enumerate(zip(ref_lines[i], cand_lines[i]))
                    if a != b
                ),
                min(len(ref_lines[i]), len(cand_lines[i])),
            )
            return MatchReport(
                False,
                Divergence(
                    line=i + 1,
                    index=col,
                    reference_excerpt=_clip(ref_lines[i].decode("latin-1").rstrip("\r\n")),
                    candidate_excerpt=_clip(cand_lines[i].decode("latin-1").rstrip("\r\n")),
                ),
                compared_tokens=i + 1,
            )
    if len(ref_lines) != len(cand_lines):
        longer = ref_lines if len(ref_lines) > count else cand_lines
        extra = longer[count].decode("latin-1").rstrip("\r\n")
        return MatchReport(
            False,
            Divergence(
                line=count + 1,
                index=0,
                reference_excerpt=_clip(extra) if len(ref_lines) > count else "<end of output>",
                candidate_excerpt=_clip(extra) if len(cand_lines) > count else "<end of output>",
            ),
            compared_tokens=count,
        )
    return MatchReport(True, None, compared_tokens=count)


def _count_tokens(data: bytes) -> int:
    """``len(data.decode("latin-1").split())`` without building the tokens."""
    classes = data.translate(_TOKEN_CLASS)
    return classes.count(b" x") + classes.startswith(b"x")


def _parse_number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value


def _tokens_from(lines: list[bytes], start: int):
    """Yield (line, index, token) for every token from ``lines[start]`` on."""
    for line_no in range(start, len(lines)):
        text = lines[line_no].decode("latin-1")
        for idx, token in enumerate(text.split(), start=1):
            yield line_no + 1, idx, token


def _numbers_match(r: float, c: float, policy: ValidationPolicy) -> bool:
    if r == c or (math.isnan(r) and math.isnan(c)):
        return True
    if math.isinf(r) or math.isinf(c):
        # A tolerance scaled by an infinite reference is infinite too.
        return False
    return abs(r - c) <= policy.abs_tol + policy.rel_tol * abs(r)


def _compare_numeric(
    ref_lines: list[bytes], cand_lines: list[bytes], policy: ValidationPolicy
) -> MatchReport:
    # Byte-equal leading lines hold equal tokens at equal positions, and
    # equal tokens always match: count them without pairing.
    start = 0
    for r_raw, c_raw in zip(ref_lines, cand_lines):
        if r_raw != c_raw:
            break
        start += 1
    compared = _count_tokens(b"".join(ref_lines[:start]))

    pairs = zip_longest(_tokens_from(ref_lines, start), _tokens_from(cand_lines, start))
    for ref, cand in pairs:
        if ref is None or cand is None:
            line_no, idx, token = ref or cand
            ref_side = token if ref else "<end of output>"
            cand_side = token if cand else "<end of output>"
            return MatchReport(
                False,
                Divergence(line_no, idx, _clip(ref_side), _clip(cand_side)),
                compared,
            )
        compared += 1
        r_line, r_idx, r_tok = ref
        c_tok = cand[2]
        if r_tok == c_tok:
            continue
        r_num = _parse_number(r_tok)
        c_num = _parse_number(c_tok)
        if r_num is not None and c_num is not None and _numbers_match(r_num, c_num, policy):
            continue
        return MatchReport(
            False,
            Divergence(r_line, r_idx, _clip(r_tok), _clip(c_tok)),
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

    Work grows with what differs. Byte-identical NumericTokens outputs
    with no ignore_patterns match without being split into lines: their
    tokens are counted on a byte-class translation. Equal leading lines
    are counted the same way, and tokens are paired only from the first
    unequal line on.
    """
    if (
        policy.mode is ValidationMode.NUMERIC_TOKENS
        and not policy.ignore_patterns
        and reference == candidate
    ):
        return MatchReport(True, None, _count_tokens(reference))
    ref_lines = _filter_lines(reference, policy.ignore_patterns)
    cand_lines = _filter_lines(candidate, policy.ignore_patterns)
    if policy.mode is ValidationMode.EXACT_BYTES:
        return _compare_exact(ref_lines, cand_lines)
    return _compare_numeric(ref_lines, cand_lines, policy)


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
