"""Output comparison and correctness classification.

An attempt lands in exactly one category, decided by a fixed precedence:
NoGeneratedCode, then CompilationError, then FailedToFollowInstructions,
then OutputMismatch, then Correct. Any non-Correct category makes the
attempt NA downstream: its speedup is recorded as 1.0 against itself,
since measurement reverts to the original code.

``compare_outputs`` reaches both outputs only through bounded reads of
``toolchain.Output`` handles (bytes are wrapped in one), so an output
may stay in the file the program wrote it into. ``Output.first_difference``
compares them a read at a time; equal ones are then counted, and
otherwise the walk backs up from the first differing byte to the last
line start both share, counts what precedes it, and splits only the
rest, pairing lines lazily. One splitter, fed a read at a time, finds
every line that is counted or paired; tokens are counted on byte classes.
It holds a few reads at a time, or one line where a line is longer than
a read, whatever the outputs' size.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, zip_longest

from . import toolchain as tc
from .manifest import ValidationMode, ValidationPolicy
from .toolchain import BuildOutcome, Output, RunSample

_EXCERPT_LIMIT = 120
_END = "<end of output>"

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


def _cut(chunk: bytes, cr: bool) -> int:
    """Offset in the non-empty ``chunk`` of the last line start its bytes
    determine, or -1. A b"\\r" that ends ``chunk`` determines nothing
    yet, since a b"\\n" may follow; ``cr`` says the bytes before
    ``chunk`` ended in one, which ends a line unless ``chunk`` starts
    with b"\\n"."""
    cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
    return cut if cut or cr else -1


class _Lines:
    """Splits an output fed to it a chunk at a time into lines, breaks
    included, as ``bytes.splitlines`` splits the whole. It holds only the
    line not yet ended."""

    def __init__(self) -> None:
        self._open: list[bytes] = []
        self._cr = False

    def feed(self, chunk: bytes) -> list[bytes] | None:
        """The lines the non-empty ``chunk`` ends, or None if it ends none."""
        cut = _cut(chunk, self._cr)
        self._cr = chunk.endswith(b"\r")
        if cut < 0:
            self._open.append(chunk)
            return None
        lines = b"".join((*self._open, chunk[:cut])).splitlines(keepends=True)
        self._open = [chunk[cut:]]
        return lines

    def end(self) -> list[bytes]:
        """The lines left at the end of the output."""
        return b"".join(self._open).splitlines(keepends=True)


def _kept(lines: list[bytes], patterns: tuple[re.Pattern, ...]) -> list[bytes]:
    for rx in patterns:
        lines = [raw for raw in lines if not rx.search(raw.rstrip(b"\r\n").decode("latin-1"))]
    return lines


def _filter_lines(out: Output, start: int, end: int, patterns: tuple[re.Pattern, ...]):
    """Yield the lines of ``out[start:end]``, where ``start`` is a line
    start and ``end`` one or ``len(out)``, that no pattern matches,
    breaks included, as ``bytes.splitlines`` splits them: one list for
    each read that ends a line, and one for the end."""
    lines = _Lines()
    for pos in range(start, end, tc.READ_SIZE):
        ended = lines.feed(out.read(pos, min(pos + tc.READ_SIZE, end)))
        if ended is not None:
            yield _kept(ended, patterns)
    yield _kept(lines.end(), patterns)


def _count_tokens(data: bytes | Output, end: int | None = None) -> int:
    """``len(data[:end].decode("latin-1").split())``, counted on the byte
    classes of each read without building the tokens."""
    out = data if isinstance(data, Output) else Output(data)
    end = len(out) if end is None else end
    count = 0
    before = b" "  # byte class just before the read
    for pos in range(0, end, tc.READ_SIZE):
        classes = out.read(pos, min(pos + tc.READ_SIZE, end)).translate(_TOKEN_CLASS)
        # A token starts at each b"x" class after a b" " one.
        count += classes.count(b" x") + (before == b" " and classes.startswith(b"x"))
        before = classes[-1:]
    return count


def _count(out: Output, end: int, patterns: tuple[re.Pattern, ...], exact: bool) -> int:
    """Kept lines (``exact``) or their tokens in ``out[:end]``, where
    ``end`` is a line start or ``len(out)``."""
    if not (patterns or exact):
        return _count_tokens(out, end)
    kept = _filter_lines(out, 0, end, patterns)
    if exact:
        return sum(map(len, kept))
    return sum(_count_tokens(b"".join(lines)) for lines in kept)


def _shared_line_start(out: Output, agreed: int) -> int:
    """The last line start at or before ``agreed`` that every output equal
    to ``out`` on its first ``agreed`` bytes shares. A b"\\r" just before
    ``agreed`` ends a line only where no b"\\n" follows it. Reads back
    from ``agreed`` a read at a time."""
    end = agreed
    while end > 0:
        begin = max(0, end - tc.READ_SIZE)
        piece = out.read(begin, end)
        last = max(piece.rfind(b"\n"), piece.rfind(b"\r", 0, len(piece) - (end == agreed)))
        if last >= 0:
            return begin + last + 1
        end = begin
    return 0


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
                Divergence(
                    line, Output(ref).first_difference(Output(cand)), _line_text(ref), _line_text(cand)
                ),
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
    reference: bytes | Output, candidate: bytes | Output, policy: ValidationPolicy
) -> MatchReport:
    """Compare program outputs under the benchmark's validation policy.

    ExactBytes: byte equality after dropping lines matching any
    ignore_pattern. NumericTokens: whitespace tokens must pair up.
    Equal tokens always match, and so do numeric pairs of equal value,
    so ``inf`` matches ``inf`` and ``1e999``, and NaN matches NaN. Other
    numeric pairs match when |r - c| <= abs_tol + rel_tol * |r| (the
    reference is ground truth), and never when either side is infinite;
    other pairs must be byte-equal.

    Both outputs are read ``toolchain.READ_SIZE`` bytes at a time, at
    the same offsets, and no call holds a whole output. Equal outputs
    (not read at all when they are one object) are then only counted:
    kept lines (ExactBytes) or tokens. Otherwise halving finds the first
    differing byte in the first differing read, the walk backs up to the
    last line start both outputs share, and the lines and tokens before
    it are counted a read at a time. From there both
    outputs are split a read at a time, ignore_patterns drop lines one
    at a time, and lines or tokens are paired lazily up to the first
    divergence.
    """
    patterns = tuple(re.compile(p) for p in policy.ignore_patterns)
    exact = policy.mode is ValidationMode.EXACT_BYTES
    ref = reference if isinstance(reference, Output) else Output(reference)
    if candidate is reference:
        cand = ref
    else:
        cand = candidate if isinstance(candidate, Output) else Output(candidate)
    agreed = ref.first_difference(cand)
    if agreed == len(ref) == len(cand):
        return MatchReport(True, None, _count(ref, agreed, patterns, exact))
    start = _shared_line_start(ref, agreed)
    lines = _count(ref, start, patterns, exact=True)
    ref_lines = chain.from_iterable(_filter_lines(ref, start, len(ref), patterns))
    cand_lines = chain.from_iterable(_filter_lines(cand, start, len(cand), patterns))
    if exact:
        return _compare_exact(ref_lines, cand_lines, lines)
    tokens = _count(ref, start, patterns, exact=False)
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
