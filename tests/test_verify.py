"""Tests for output comparison and correctness classification."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from perfagent import toolchain as tc
from perfagent import verify
from perfagent.manifest import ValidationMode, ValidationPolicy
from perfagent.toolchain import BuildOutcome, BuildStatus, RunSample
from perfagent.verify import (
    CorrectnessCategory,
    EmptyList,
    InconsistentInputs,
    MatchReport,
    _count_tokens,
    classify_attempt,
    compare_outputs,
    pass_at_1,
)

import reference_impl
from conftest import file_output

EXACT = ValidationPolicy(mode=ValidationMode.EXACT_BYTES)


def numeric(abs_tol=0.0, rel_tol=0.0, ignore=()):
    return ValidationPolicy(
        mode=ValidationMode.NUMERIC_TOKENS,
        abs_tol=abs_tol,
        rel_tol=rel_tol,
        ignore_patterns=tuple(ignore),
    )


@dataclass
class FakeExtraction:
    code: str | None


GOOD_BUILD = BuildOutcome(BuildStatus.OK, Path("/tmp/x"), "$ cc")
BAD_BUILD = BuildOutcome(BuildStatus.COMPILE_ERROR, None, "error: oops")
GOOD_RUN = RunSample((0.5, 0.5), b"out\n", b"", 0)
CRASHED_RUN = RunSample((), b"", b"", 11)
TIMEOUT_RUN = RunSample((), b"", b"", "timeout")


def match_report(matched: bool):
    return compare_outputs(b"1\n", b"1\n" if matched else b"2\n", EXACT)


class TestCompareOutputs:
    def test_numeric_within_abs_tolerance(self):
        report = compare_outputs(b"1.000 2.000", b"1.0001 2.0", numeric(abs_tol=1e-3))
        assert report.matched

    def test_exact_identical(self):
        report = compare_outputs(b"abc\n1 2 3\n", b"abc\n1 2 3\n", EXACT)
        assert report.matched
        assert report.first_divergence is None

    def test_numeric_mismatch_reports_token(self):
        report = compare_outputs(b"3 4", b"3 5", numeric())
        assert not report.matched
        assert report.first_divergence.line == 1
        assert report.first_divergence.index == 2
        assert report.first_divergence.reference_excerpt == "4"
        assert report.first_divergence.candidate_excerpt == "5"

    def test_ignore_patterns_drop_lines(self):
        ref = b"result 10\nTime: 1.23 s\n"
        cand = b"result 10\nTime: 9.99 s\n"
        assert not compare_outputs(ref, cand, EXACT).matched
        filtered = ValidationPolicy(
            mode=ValidationMode.EXACT_BYTES, ignore_patterns=("^Time:",)
        )
        assert compare_outputs(ref, cand, filtered).matched

    def test_exact_divergence_line_and_column(self):
        report = compare_outputs(b"aaa\nabcd\n", b"aaa\nabXd\n", EXACT)
        assert not report.matched
        assert report.first_divergence.line == 2
        assert report.first_divergence.index == 2

    def test_extra_lines_detected(self):
        report = compare_outputs(b"a\n", b"a\nb\n", EXACT)
        assert not report.matched
        assert report.first_divergence.reference_excerpt == "<end of output>"

    def test_numeric_token_count_mismatch(self):
        report = compare_outputs(b"1 2 3", b"1 2", numeric(abs_tol=1.0))
        assert not report.matched
        assert report.first_divergence.candidate_excerpt == "<end of output>"

    def test_non_numeric_tokens_must_be_byte_equal(self):
        assert compare_outputs(b"ok 1.5", b"ok 1.5", numeric()).matched
        assert not compare_outputs(b"ok 1.5", b"OK 1.5", numeric(abs_tol=10)).matched

    def test_mixed_numeric_and_text_token(self):
        # "abc" vs "4": not a numeric pair, so byte equality decides.
        assert not compare_outputs(b"abc", b"4", numeric(abs_tol=100)).matched

    def test_nan_pairs_match(self):
        assert compare_outputs(b"nan", b"nan", numeric()).matched

    @pytest.mark.parametrize("rel_tol", [0.0, 1e-6])
    @pytest.mark.parametrize(
        "ref, cand, matched",
        [
            (b"x inf\n", b"x inf\n", True),
            (b"x -inf\n", b"x -inf\n", True),
            (b"x 1e999\n", b"x inf\n", True),
            (b"x inf\n", b"x -inf\n", False),
            (b"x inf\n", b"x 1e308\n", False),
            (b"x 1e308\n", b"x inf\n", False),
        ],
    )
    def test_infinities_match_only_themselves(self, ref, cand, matched, rel_tol):
        report = compare_outputs(ref, cand, numeric(rel_tol=rel_tol))
        assert report.matched is matched
        assert report.compared_tokens == 2

    def test_relative_tolerance_uses_reference(self):
        # 1% of reference 100 allows candidate 100.9, not reference-side 99 vs 100.9
        assert compare_outputs(b"100", b"100.9", numeric(rel_tol=0.01)).matched
        assert not compare_outputs(b"100", b"101.1", numeric(rel_tol=0.01)).matched

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_reflexive_under_both_policies(self, data):
        assert compare_outputs(data, data, EXACT).matched
        assert compare_outputs(data, data, numeric()).matched

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        deltas=st.lists(
            st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        abs_tol=st.floats(min_value=0, max_value=1.0),
        rel_tol=st.floats(min_value=0, max_value=0.01),
        abs_bump=st.floats(min_value=0, max_value=1.0),
        rel_bump=st.floats(min_value=0, max_value=0.01),
    )
    def test_tolerance_monotonicity(self, values, deltas, abs_tol, rel_tol, abs_bump, rel_bump):
        ref = " ".join(f"{v!r}" for v in values).encode()
        cand = " ".join(
            f"{v + d!r}" for v, d in zip(values, deltas + [0.0] * len(values))
        ).encode()
        tight = compare_outputs(ref, cand, numeric(abs_tol, rel_tol))
        loose = compare_outputs(ref, cand, numeric(abs_tol + abs_bump, rel_tol + rel_bump))
        if tight.matched:
            assert loose.matched

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=5),
        b=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=5),
        abs_tol=st.floats(min_value=0, max_value=10),
    )
    def test_abs_only_symmetry(self, a, b, abs_tol):
        ra = " ".join(f"{v!r}" for v in a).encode()
        rb = " ".join(f"{v!r}" for v in b).encode()
        policy = numeric(abs_tol=abs_tol)
        assert compare_outputs(ra, rb, policy).matched == compare_outputs(rb, ra, policy).matched


_WORDS = ("x", "ok", "inf", "-inf", "nan", "NaN", "1e999", "time:", "#", "\xe9")
# Token and line separators; \x85 and \xa0 are whitespace to str.split.
_GAPS = (b" ", b"  ", b"\t", b"\x85", b"\xa0", b"\x0b", b"\x1f")
_BREAKS = (b"\n", b"\r\n", b"\r")


@st.composite
def _token(draw):
    """A token's renderings; every rendering parses to the same value."""
    if draw(st.booleans()):
        return (draw(st.sampled_from(_WORDS)),)
    mantissa = draw(st.integers(-999, 999))
    exponent = draw(st.integers(-6, 6))
    value = float(f"{mantissa}e{exponent}")
    return (f"{mantissa}e{exponent}", f"{value:.6e}", repr(value), f"{value:.3e}")


@st.composite
def _style(draw):
    """Gaps and line breaks chosen by position, so equal lines render equal."""
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=1, max_size=5))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=1, max_size=3))
    return gaps, breaks, draw(st.booleans())


def _render(lines: list[list[str]], style) -> bytes:
    gaps, breaks, final_break = style
    out = []
    for i, line in enumerate(lines):
        for j, tok in enumerate(line):
            # Odd lines start with a gap; even ones can match "^#".
            if j or i % 2:
                out.append(gaps[(i + j) % len(gaps)])
            out.append(tok.encode("latin-1"))
        if i < len(lines) - 1 or final_break:
            out.append(breaks[i % len(breaks)])
    return b"".join(out)


@st.composite
def _output_pair(draw):
    """A reference output and a candidate made from it by one edit."""
    tokens = draw(st.lists(st.lists(_token(), max_size=5), max_size=8))
    ref = [[t[0] for t in line] for line in tokens]
    cand = [list(line) for line in ref]
    flat = [(i, j) for i, line in enumerate(cand) for j in range(len(line))]
    style = draw(_style())
    cand_style = style
    edit = draw(st.sampled_from(("equal", "change", "shorter", "longer", "rebreak", "reformat", "regap")))
    if edit == "change" and flat:
        where = draw(st.sampled_from((0, len(flat) // 2, len(flat) - 1)))
        i, j = flat[where]
        cand[i][j] = draw(_token())[-1]
    elif edit == "shorter" and flat:
        i, j = flat[draw(st.integers(0, len(flat) - 1))]
        del cand[i][j:]
        del cand[i + 1 :]
    elif edit == "longer":
        cand.append([t[-1] for t in draw(st.lists(_token(), min_size=1, max_size=3))])
    elif edit == "rebreak":
        words = [tok for line in cand for tok in line]
        cuts = sorted(draw(st.lists(st.integers(0, len(words)), max_size=4)))
        cand = [words[a:b] for a, b in zip([0, *cuts], [*cuts, len(words)])]
    elif edit == "reformat":
        cand = [[draw(st.sampled_from(t)) for t in line] for line in tokens]
    elif edit == "regap":
        cand_style = draw(_style())
    return _render(ref, style), _render(cand, cand_style)


class TestNumericEquivalence:
    """The line-skipping, lazily pairing comparison reports exactly what
    pairing every token of both outputs reports."""

    @settings(max_examples=400, deadline=None)
    @given(
        pair=_output_pair(),
        abs_tol=st.sampled_from((0.0, 1e-9, 0.5)),
        rel_tol=st.sampled_from((0.0, 1e-6)),
        ignore=st.sampled_from(((), ("^#",), ("time", "^$"))),
    )
    def test_same_report_as_reference(self, pair, abs_tol, rel_tol, ignore):
        ref, cand = pair
        policy = numeric(abs_tol, rel_tol, ignore)
        assert compare_outputs(ref, cand, policy) == reference_impl.compare_numeric(ref, cand, policy)
        assert compare_outputs(cand, ref, policy) == reference_impl.compare_numeric(cand, ref, policy)

    @pytest.mark.parametrize(
        "ref, cand",
        [
            (b"1 2\n3 4\n", b"1 2\n3 4\n"),
            (b"9 2\n3 4\n", b"1 2\n3 4\n"),
            (b"1 2\n3 4\n5 6\n", b"1 2\n3 9\n5 6\n"),
            (b"1 2\n3 4\n", b"1 2\n3 9\n"),
            (b"1 2\n3 4\n", b"1 2\n3\n"),
            (b"1 2\n3 4\n", b"1 2\n3 4\n5\n"),
            (b"1 2\n3 4\n", b"1\n2 3\n4"),
            (b"r 1.5e-01\n", b"r 1.50e-01\n"),
            (b"a\x85b\xa0c\n", b"a b c\n"),
            (b"a\x85b\xa0c\n1\n", b"a\x85b\xa0c\n2\n"),
        ],
    )
    def test_named_cases(self, ref, cand):
        policy = numeric()
        assert compare_outputs(ref, cand, policy) == reference_impl.compare_numeric(ref, cand, policy)


_IGNORES = ((), ("^#",), ("time", "^$"))


def _reference(ref: bytes, cand: bytes, policy: ValidationPolicy) -> MatchReport:
    if policy.mode is ValidationMode.EXACT_BYTES:
        return reference_impl.compare_exact(ref, cand, policy)
    return reference_impl.compare_numeric(ref, cand, policy)


class TestExactEquivalence:
    """The in-place ExactBytes walk reports exactly what comparing the two
    outputs' filtered line lists reports."""

    @settings(max_examples=400, deadline=None)
    @given(pair=_output_pair(), ignore=st.sampled_from(_IGNORES))
    def test_same_report_as_reference(self, pair, ignore):
        ref, cand = pair
        policy = ValidationPolicy(mode=ValidationMode.EXACT_BYTES, ignore_patterns=ignore)
        assert compare_outputs(ref, cand, policy) == reference_impl.compare_exact(ref, cand, policy)
        assert compare_outputs(cand, ref, policy) == reference_impl.compare_exact(cand, ref, policy)


class TestChunkBoundaries:
    """File-backed outputs read a few bytes at a time, so b"\\r\\n" pairs,
    tokens, lines and ignored lines straddle read edges, report what the
    reference reports on the same bytes, in both argument orders."""

    @settings(max_examples=150, deadline=None)
    @given(
        pair=_output_pair(),
        mode=st.sampled_from(list(ValidationMode)),
        abs_tol=st.sampled_from((0.0, 0.5)),
        ignore=st.sampled_from(_IGNORES),
    )
    def test_same_report_as_reference(self, pair, mode, abs_tol, ignore):
        policy = ValidationPolicy(mode=mode, abs_tol=abs_tol, ignore_patterns=ignore)
        ref, cand = pair
        ref_out, cand_out = file_output(ref), file_output(cand)
        for chunk in (1, 2, 3, 7):
            with mock.patch.object(tc, "READ_SIZE", chunk):
                assert compare_outputs(ref_out, cand_out, policy) == _reference(ref, cand, policy)
                assert compare_outputs(cand_out, ref_out, policy) == _reference(cand, ref, policy)
                assert compare_outputs(ref_out, ref_out, policy) == _reference(ref, ref, policy)


# An equal prefix longer than three of the chunks the walk reads.
_LONG = b"".join(b"%d 0.5 x\n" % i for i in range(4 * tc.READ_SIZE // 8))


class TestInPlaceWalk:
    """Named cases for where the first difference lies, in both modes,
    both argument orders, with and without ignore_patterns."""

    @pytest.mark.parametrize("ignore", _IGNORES)
    @pytest.mark.parametrize("mode", list(ValidationMode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "ref, cand",
        [
            # A line that ends in a bare \r on one side and \r\n on the other.
            (b"1 2\r3 4\n", b"1 2\r\n3 4\n"),
            (b"1 2\r", b"1 2\r\n"),
            (b"1\n2 3\r", b"1\n2 3\r\n4\n"),
            (b"a\r\rb\n", b"a\r\r\nb\n"),
            # The first byte, the last byte, past the end of the shorter output.
            (b"1 2\n3\n", b"9 2\n3\n"),
            (b"1 2\n3 4\n", b"1 2\n3 4\r"),
            (b"1 2\n3 4", b"1 2\n3 5"),
            (b"1 2\n", b"1 2\n3\n"),
            (b"1 2", b"1 2\n"),
            (b"1 2", b"1 2 3"),
            (b"", b"1\n"),
            (b"", b"\n"),
            # Equal prefixes longer than three chunks.
            (_LONG + b"7 1\n", _LONG + b"7 2\n"),
            (_LONG + b"# 1\n5\n", _LONG + b"# 2\n5\n"),
            (_LONG, _LONG + b"time 1\n"),
            (_LONG + b"1 2\r", _LONG + b"1 2\r\n"),
        ],
    )
    def test_same_report_as_reference(self, ref, cand, mode, ignore):
        policy = ValidationPolicy(mode=mode, ignore_patterns=ignore)
        assert compare_outputs(ref, cand, policy) == _reference(ref, cand, policy)
        assert compare_outputs(cand, ref, policy) == _reference(cand, ref, policy)

    @pytest.mark.parametrize("ignore", _IGNORES)
    @pytest.mark.parametrize("mode", list(ValidationMode), ids=lambda m: m.value)
    def test_late_mismatch_peak_memory(self, mode, ignore):
        line = b"1.234567e+00 2.345678e-01 3.456789e+02 4.567890e-03 5.678901e+04\n"
        body = line * (4_000_000 // len(line))
        ref, cand = body + b"9 9 9\n", body + b"9 9 8\n"
        policy = ValidationPolicy(mode=mode, ignore_patterns=ignore)
        compare_outputs(b"1\n", b"2\n", policy)  # compile the patterns
        tracemalloc.start()
        try:
            report = compare_outputs(ref, cand, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.matched
        assert report.first_divergence.line == body.count(b"\n") + 1
        assert peak < 1_000_000


# Every byte str.split treats as whitespace after a latin-1 decode, and a
# few that it does not.
_SPLIT_BYTES = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0" + b"a1.-\x00\x84\x86\x9f\xa1\xff"


class TestTokenCount:
    @settings(max_examples=400, deadline=None)
    @given(
        data=st.one_of(
            st.lists(st.sampled_from(_SPLIT_BYTES), max_size=60).map(bytes),
            st.binary(max_size=60),
        )
    )
    def test_counts_what_split_returns(self, data):
        assert _count_tokens(data) == len(data.decode("latin-1").split())

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_across_chunks(self, seed):
        rng = random.Random(seed)
        data = bytes(rng.choice(_SPLIT_BYTES) for _ in range(3 * tc.READ_SIZE + 7))
        assert _count_tokens(data) == len(data.decode("latin-1").split())

    def test_every_byte_value(self):
        for i in range(256):
            byte = bytes([i])
            for data in (byte, b"a" + byte, byte + b"a", b"a" + byte + b"a"):
                assert _count_tokens(data) == len(data.decode("latin-1").split()), data


class TestEqualOutputs:
    """Byte-identical outputs skip the line split but report what the
    reference reports, with and without ignore_patterns."""

    @settings(max_examples=200, deadline=None)
    @given(
        pair=_output_pair(),
        ignore=st.sampled_from(((), ("^#",), ("time", "^$"))),
    )
    def test_same_report_as_reference(self, pair, ignore):
        policy = numeric(ignore=ignore)
        for data in pair:
            report = compare_outputs(data, bytes(data), policy)
            assert report == reference_impl.compare_numeric(data, data, policy)
            assert report.matched

    def test_skips_line_split_without_ignore_patterns(self, monkeypatch):
        def no_split(*args):
            raise AssertionError("equal outputs were split into lines")

        monkeypatch.setattr(verify, "_filter_lines", no_split)
        data = b"1 2\x853\n4\xa05\r\n\x1c6"
        assert compare_outputs(data, data, numeric()) == MatchReport(True, None, 6)


class TestClassifyAttempt:
    def test_empty_extraction_is_no_generated_code(self):
        got = classify_attempt(None, FakeExtraction(None), None, None, set())
        assert got is CorrectnessCategory.NO_GENERATED_CODE

    def test_blank_extraction_is_no_generated_code(self):
        got = classify_attempt(None, FakeExtraction("   \n"), None, None, set())
        assert got is CorrectnessCategory.NO_GENERATED_CODE

    def test_compile_error(self):
        got = classify_attempt(BAD_BUILD, FakeExtraction("int main;"), None, None, set())
        assert got is CorrectnessCategory.COMPILATION_ERROR

    def test_compile_error_beats_constraint_flags(self):
        got = classify_attempt(
            BAD_BUILD, FakeExtraction("x"), None, None, {"RemovedFunction"}
        )
        assert got is CorrectnessCategory.COMPILATION_ERROR

    def test_constraint_flags_beat_output(self):
        got = classify_attempt(
            GOOD_BUILD, FakeExtraction("x"), GOOD_RUN, match_report(True),
            {"MissingParallelConstruct"},
        )
        assert got is CorrectnessCategory.FAILED_TO_FOLLOW_INSTRUCTIONS

    def test_crash_is_output_mismatch(self):
        got = classify_attempt(GOOD_BUILD, FakeExtraction("x"), CRASHED_RUN, None, set())
        assert got is CorrectnessCategory.OUTPUT_MISMATCH

    def test_timeout_is_output_mismatch(self):
        got = classify_attempt(GOOD_BUILD, FakeExtraction("x"), TIMEOUT_RUN, None, set())
        assert got is CorrectnessCategory.OUTPUT_MISMATCH

    def test_match_failure_is_output_mismatch(self):
        got = classify_attempt(
            GOOD_BUILD, FakeExtraction("x"), GOOD_RUN, match_report(False), set()
        )
        assert got is CorrectnessCategory.OUTPUT_MISMATCH

    def test_all_good_is_correct(self):
        got = classify_attempt(
            GOOD_BUILD, FakeExtraction("x"), GOOD_RUN, match_report(True), set()
        )
        assert got is CorrectnessCategory.CORRECT

    def test_external_code_without_extraction(self):
        got = classify_attempt(GOOD_BUILD, None, GOOD_RUN, match_report(True), set())
        assert got is CorrectnessCategory.CORRECT

    def test_run_after_failed_build_inconsistent(self):
        with pytest.raises(InconsistentInputs):
            classify_attempt(BAD_BUILD, FakeExtraction("x"), GOOD_RUN, None, set())

    def test_match_without_run_inconsistent(self):
        with pytest.raises(InconsistentInputs):
            classify_attempt(
                GOOD_BUILD, FakeExtraction("x"), None, match_report(True), set()
            )

    def test_missing_run_inconsistent(self):
        with pytest.raises(InconsistentInputs):
            classify_attempt(GOOD_BUILD, FakeExtraction("x"), None, None, set())

    def test_code_without_build_inconsistent(self):
        with pytest.raises(InconsistentInputs):
            classify_attempt(None, FakeExtraction("x"), None, None, set())

    def test_flagged_code_may_skip_the_build(self):
        got = classify_attempt(None, FakeExtraction("x"), None, None, {"AddedFunction"})
        assert got is CorrectnessCategory.FAILED_TO_FOLLOW_INSTRUCTIONS

    def test_successful_run_without_match_inconsistent(self):
        with pytest.raises(InconsistentInputs):
            classify_attempt(GOOD_BUILD, FakeExtraction("x"), GOOD_RUN, None, set())

    def test_category_counts_sum_to_attempts(self):
        attempts = [
            (None, FakeExtraction(None), None, None, set()),
            (BAD_BUILD, FakeExtraction("x"), None, None, set()),
            (GOOD_BUILD, FakeExtraction("x"), GOOD_RUN, match_report(True), {"AddedFunction"}),
            (GOOD_BUILD, FakeExtraction("x"), GOOD_RUN, match_report(False), set()),
            (GOOD_BUILD, FakeExtraction("x"), GOOD_RUN, match_report(True), set()),
        ]
        cats = [classify_attempt(*a) for a in attempts]
        counts = {c: cats.count(c) for c in CorrectnessCategory}
        assert sum(counts.values()) == len(attempts)
        assert counts[CorrectnessCategory.CORRECT] == 1


class TestPassAt1:
    def test_exact_decimal_fractions(self):
        mostly_correct = (
            [CorrectnessCategory.CORRECT] * 18 + [CorrectnessCategory.OUTPUT_MISMATCH] * 2
        )
        assert pass_at_1(mostly_correct) == 0.90
        three_in_five = [CorrectnessCategory.CORRECT] * 12 + [
            CorrectnessCategory.FAILED_TO_FOLLOW_INSTRUCTIONS
        ] * 8
        assert pass_at_1(three_in_five) == 0.60

    def test_all_correct(self):
        assert pass_at_1([CorrectnessCategory.CORRECT] * 5) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            pass_at_1([])

    @settings(max_examples=100, deadline=None)
    @given(cats=st.lists(st.sampled_from(list(CorrectnessCategory)), min_size=1, max_size=40))
    def test_fraction_in_unit_interval(self, cats):
        value = pass_at_1(cats)
        assert 0.0 <= value <= 1.0
        assert value == cats.count(CorrectnessCategory.CORRECT) / len(cats)
