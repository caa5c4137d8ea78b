"""Experiment drivers, aggregation, and report files."""

import csv
import gc
import json
import logging
import os
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfagent import agent as ag
from perfagent import experiments as ex
from perfagent import llm_gateway as gw
from perfagent import toolchain as tc
from perfagent.llm_gateway import Experiment
from perfagent.manifest import Motif, RunRecipe
from perfagent.verify import CorrectnessCategory as Cat
from perfagent.verify import classify_attempt, compare_outputs

from conftest import (
    assert_candidate_built_beside_original,
    assert_reaped,
    hang_build,
    load_single,
    open_fds,
    slow_original_gcc,
    wait_for_pids,
    wrapped_gcc,
    write_bench,
)
from kernels import (
    EXIT_NONZERO,
    SYNTAX_ERROR,
    fenced,
    hotspot_program,
    kernel_replacement,
    matmul_ijk,
    matmul_ikj,
    matmul_omp_ikj,
    matmul_serial_response,
    sleeper,
)
from test_agent import PROFILE_SOURCES

pytestmark = pytest.mark.usefixtures("toolchain_config")

# The matmul fixture's premise is that loop interchange pays. At N=512 the
# ijk inner loop walks B with a 4 KiB stride and cannot be vectorised, while
# the ikj inner loop is unit-stride; gcc -O2 binaries measured 2.4x on a
# 2-vCPU Xeon with 4 MiB L2. At N=256 the matrices sit in L2 and the gain
# was about 1.1x, below the 1.3 bound the tests assert.
N = 512


def replay(texts):
    return gw.ReplayProvider(
        [{"request_digest": "", "response_text": t, "latency_s": 0.0} for t in texts]
    )


def matmul_bench(root, openmp=False, **overrides):
    flags = ["-O2", "-fopenmp"] if openmp else ["-O2"]
    write_bench(
        root, "matmul",
        {"main.c": matmul_ijk(N)},
        build={"flags": flags},
        run={"repetitions": 2},
        **overrides,
    )
    return load_single(root, "matmul")


def sleep_bench(root, bench_id="sleepy", ms=120):
    write_bench(
        root, bench_id,
        {"main.c": sleeper(ms)},
        build={"flags": ["-O0"]},
        run={"repetitions": 2},
    )
    return load_single(root, bench_id)


def drive(name, specs, provider, toolchain, work):
    """Run one experiment driver; "import" scores a sleeper(60) tree
    per benchmark and ignores ``provider``."""
    if name == "import":
        ext = work.parent / "ext"
        for spec in specs:
            (ext / spec.id).mkdir(parents=True, exist_ok=True)
            (ext / spec.id / "main.c").write_text(sleeper(60))
        return ex.import_external_tool_results(ext, "srcfix", specs, toolchain, work)
    if name == "ex3":
        return ex.run_ex3(specs, provider, toolchain, work, counts=(1, 2))
    return {"ex1": ex.run_ex1, "ex2": ex.run_ex2}[name](specs, provider, toolchain, work)


def parallel(code):
    """``code`` with the OpenMP pragma ex3's instructions ask for; gcc
    ignores it without -fopenmp."""
    return code.replace("int main(void) {\n", "int main(void) {\n#pragma omp parallel\n", 1)


def make_record(bench_id="b1", category=Cat.CORRECT, speedup=2.0, tool="t",
                experiment=Experiment.EX1, variant="ex1/cand", motif=Motif.STENCILS,
                threads=None, labels=()):
    correct = category is Cat.CORRECT
    return ex.AttemptRecord(
        benchmark_id=bench_id,
        motif=motif,
        level=1,
        experiment=experiment,
        tool_id=tool,
        variant_tag=variant,
        category=category,
        speedup=speedup if correct else 1.0,
        na_flag=not correct,
        labels=tuple(labels),
        thread_results=threads,
    )


class TestRecordInvariants:
    def test_na_flag_must_match_category(self):
        with pytest.raises(ex.InvalidRecord):
            ex.AttemptRecord(
                "b", Motif.STENCILS, 1, Experiment.EX1, "t", "v",
                Cat.CORRECT, 2.0, na_flag=True,
            )

    def test_na_speedup_must_be_one(self):
        with pytest.raises(ex.InvalidRecord):
            ex.AttemptRecord(
                "b", Motif.STENCILS, 1, Experiment.EX1, "t", "v",
                Cat.OUTPUT_MISMATCH, 1.3, na_flag=True,
            )

    def test_thread_results_only_for_ex3(self):
        with pytest.raises(ex.InvalidRecord):
            make_record(experiment=Experiment.EX1, threads=((4, 2.0),))

    def test_duplicate_rows_rejected(self):
        row = make_record()
        with pytest.raises(ex.DuplicateRow):
            ex.ResultsTable((row, row))

    def test_round_trip(self):
        row = make_record(
            experiment=Experiment.EX3,
            variant="ex3/cand",
            threads=((4, 2.0), (8, None)),
            labels=[gw.OptimizationLabel(
                gw.OptimizationLabelKind.LOOP_INTERCHANGE, "loop interchange"
            )],
        )
        assert ex.record_from_dict(ex.record_to_dict(row)) == row
        # report.json files written before wallclock_log was dropped still load.
        legacy = {**ex.record_to_dict(row), "wallclock_log": ""}
        assert ex.record_from_dict(legacy) == row


class TestEx1:
    def test_empty_selection_is_fatal(self, tmp_path, toolchain_config):
        with pytest.raises(ex.EmptySelection):
            ex.run_ex1([], replay([]), toolchain_config, tmp_path / "w")

    def test_interchange_is_correct_and_faster(self, tmp_path, toolchain_config):
        spec = matmul_bench(tmp_path / "b")
        provider = replay([
            fenced(matmul_ikj(N), prose_before="Applied loop interchange."),
        ])
        table = ex.run_ex1([spec], provider, toolchain_config, tmp_path / "w")

        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.category is Cat.CORRECT
        assert row.speedup > 1.3
        assert not row.na_flag
        assert row.experiment is Experiment.EX1
        assert row.tool_id == "replay"
        assert row.variant_tag == "ex1/cand"
        assert row.thread_results is None
        kinds = {l.label for l in row.labels}
        assert gw.OptimizationLabelKind.LOOP_INTERCHANGE in kinds

    def test_prose_only_is_na(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b")
        table = ex.run_ex1(
            [spec], replay(["Buy a faster computer."]), toolchain_config, tmp_path / "w"
        )
        row = table.rows[0]
        assert row.category is Cat.NO_GENERATED_CODE
        assert row.speedup == 1.0
        assert row.na_flag

    def test_two_benchmarks_two_rows(self, tmp_path, toolchain_config):
        a = sleep_bench(tmp_path / "ba", "alpha")
        b = sleep_bench(tmp_path / "bb", "beta")
        provider = replay([fenced(sleeper(60)), fenced(sleeper(60))])
        table = ex.run_ex1([a, b], provider, toolchain_config, tmp_path / "w")
        assert [r.benchmark_id for r in table.rows] == ["alpha", "beta"]

    def test_bad_candidate_is_compilation_error(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b")
        table = ex.run_ex1(
            [spec], replay([fenced(SYNTAX_ERROR)]), toolchain_config, tmp_path / "w"
        )
        row = table.rows[0]
        assert row.category is Cat.COMPILATION_ERROR
        assert row.na_flag and row.speedup == 1.0

    def test_wrong_output_is_mismatch(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b")
        provider = replay([fenced(sleeper(50, message="result 99"))])
        table = ex.run_ex1([spec], provider, toolchain_config, tmp_path / "w")
        assert table.rows[0].category is Cat.OUTPUT_MISMATCH

    def test_added_function_is_flagged(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b")
        candidate = sleeper(50) + "\nstatic int helper(void) { return 1; }\n"
        table = ex.run_ex1(
            [spec], replay([fenced(candidate)]), toolchain_config, tmp_path / "w"
        )
        assert table.rows[0].category is Cat.FAILED_TO_FOLLOW_INSTRUCTIONS

    def test_broken_baseline_skips_the_row(self, tmp_path, toolchain_config, caplog):
        write_bench(tmp_path / "bb", "broken", {"main.c": SYNTAX_ERROR})
        broken = load_single(tmp_path / "bb", "broken")
        good = sleep_bench(tmp_path / "bg", "good")
        provider = replay([fenced(sleeper(60)), fenced(sleeper(60))])
        with caplog.at_level(logging.ERROR, logger="perfagent.experiments"):
            table = ex.run_ex1(
                [broken, good], provider, toolchain_config, tmp_path / "w"
            )
        assert [r.benchmark_id for r in table.rows] == ["good"]
        assert any("broken" in r.message for r in caplog.records)

    def test_provider_failure_becomes_na_row(self, tmp_path, toolchain_config):
        class DownProvider(gw.Provider):
            provider_id = "down"

            def complete(self, messages):
                raise gw.ProviderUnreachable("no route")

        spec = sleep_bench(tmp_path / "b")
        table = ex.run_ex1([spec], DownProvider(), toolchain_config, tmp_path / "w")
        row = table.rows[0]
        assert row.category is Cat.NO_GENERATED_CODE
        assert row.na_flag

    def test_prompt_carries_instruction_and_source(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b")
        provider = replay(["nothing"])
        ex.run_ex1([spec], provider, toolchain_config, tmp_path / "w")
        messages = provider.received[0]
        assert messages[0]["role"] == "system"
        assert "code generation/optimization assistant" in messages[0]["content"]
        assert messages[1]["content"].startswith("Provide the C/C++ code")
        assert "nanosleep" in messages[1]["content"]

    def test_multi_file_attaches_hotspot_file(self, tmp_path, toolchain_config):
        util = (
            "#include <time.h>\n"
            "void kernel(void) { /* unique_marker_util */\n"
            "    struct timespec ts; ts.tv_sec = 0; ts.tv_nsec = 1000000L;\n"
            "    nanosleep(&ts, 0);\n"
            "}\n"
        )
        main = (
            "#include <stdio.h>\n"
            "void kernel(void);\n"
            "int main(void) { kernel(); printf(\"done\\n\"); return 0; }\n"
        )
        write_bench(
            tmp_path / "b", "duo",
            {"main.c": main, "util.c": util},
            entry_hotspot="kernel",
            run={"repetitions": 2},
        )
        spec = load_single(tmp_path / "b", "duo")
        provider = replay(["nothing"])
        ex.run_ex1([spec], provider, toolchain_config, tmp_path / "w")
        user_text = provider.received[0][1]["content"]
        assert "unique_marker_util" in user_text
        assert "int main" not in user_text


class TestEx2:
    def test_argmax_correct_turn_wins(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b", ms=120)
        provider = replay([
            fenced(sleeper(100)),
            fenced(sleeper(60)),
            "This turn offers no code.",
            fenced(sleeper(80)),
            fenced(sleeper(110)),
        ])
        table = ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")

        row = table.rows[0]
        assert row.category is Cat.CORRECT
        assert row.variant_tag == "ex2/turn2"
        assert row.experiment is Experiment.EX2
        assert row.speedup > 1.5
        # one shared conversation: history grows by one exchange per answered turn
        assert [len(m) for m in provider.received] == [2, 4, 6, 8, 10]

    def test_all_incorrect_reverts_to_exactly_one(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b")
        provider = replay(["no code here"] * 5)
        table = ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")
        row = table.rows[0]
        assert row.na_flag
        assert row.speedup == 1.0
        assert row.category is Cat.NO_GENERATED_CODE
        assert row.variant_tag == "ex2/turn5"

    def test_later_turn_recovers_from_bad_first(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b", ms=120)
        provider = replay([
            "cannot help with that",
            fenced(sleeper(60)),
            "done", "done", "done",
        ])
        table = ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")
        row = table.rows[0]
        assert row.category is Cat.CORRECT
        assert row.variant_tag == "ex2/turn2"

    def test_a_row_leaves_no_file_open(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b", ms=5)
        texts = [fenced(sleeper(1)), fenced(sleeper(2, message="result 7")), "no code",
                 fenced(SYNTAX_ERROR), fenced(sleeper(3))]
        # An earlier test's Output files close when collected; collect them
        # now, so that no collection during the row moves the count.
        gc.collect()
        before = open_fds()
        table = ex.run_ex2([spec], replay(texts), toolchain_config, tmp_path / "w")
        assert table.rows[0].category is Cat.CORRECT
        del table
        assert open_fds() == before

    def test_turn_instructions(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b")
        provider = replay(["a"] * 5)
        ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")
        first_user = provider.received[0][-1]["content"]
        second_user = provider.received[1][-1]["content"]
        assert first_user.startswith("Provide the C/C++ code")
        assert second_user.startswith("Propose an additional serial optimization")


    def test_pipelined_turns_match_the_serial_protocol(self, tmp_path, toolchain_config,
                                                       monkeypatch):
        """Each turn's build overlaps the next request; the requests, the
        per-turn categories and the rows are those of the serial protocol."""
        env = {"os": "TestOS", "cpu": "TestCPU", "compilers": "gcc"}
        unbalanced = "int main(void) {\n    return 0;\n"
        helper = sleeper(50) + "\nstatic int helper(void) { return 1; }\n"
        # (reply, answered, category classified for the turn or None)
        plans = {
            "alpha": [
                (fenced(sleeper(60)), True, Cat.CORRECT),
                (fenced(SYNTAX_ERROR), True, Cat.COMPILATION_ERROR),
                (fenced(unbalanced), True, Cat.FAILED_TO_FOLLOW_INSTRUCTIONS),
                ("a reply to a request that does not match", False, Cat.NO_GENERATED_CODE),
                (fenced(sleeper(90)), True, Cat.CORRECT),
            ],
            "beta": [
                ("Buy a faster computer.", True, Cat.NO_GENERATED_CODE),
                (fenced(sleeper(50, message="result 99")), True, Cat.OUTPUT_MISMATCH),
                (fenced(SYNTAX_ERROR), True, Cat.COMPILATION_ERROR),
                (fenced(helper), True, Cat.FAILED_TO_FOLLOW_INSTRUCTIONS),
                (fenced(SYNTAX_ERROR), True, Cat.COMPILATION_ERROR),
            ],
        }
        specs = [sleep_bench(tmp_path / "b" / name, name) for name in plans]
        entries, expected_requests = [], []
        for spec in specs:
            original = (spec.root / "main.c").read_text()
            history = []
            for turn, (reply, answered, _) in enumerate(plans[spec.id], start=1):
                experiment = Experiment.EX1 if turn == 1 else Experiment.EX2
                prompt = gw.render_prompt(experiment, original, env)
                messages = gw.build_messages(prompt, history)
                expected_requests.append(messages)
                # A wrong digest makes the replay raise TranscriptMismatch,
                # a ProviderError, so the turn goes unanswered.
                digest = gw.canonical_digest(messages) if answered else "0" * 64
                entries.append(
                    {"request_digest": digest, "response_text": reply, "latency_s": 0.0}
                )
                if answered:
                    history.append((prompt.user_text, reply))

        classified = []

        def recording_classify(*args):
            category = classify_attempt(*args)
            classified.append(category)
            return category

        monkeypatch.setattr(ex, "classify_attempt", recording_classify)
        provider = gw.ReplayProvider(entries)
        table = ex.run_ex2(specs, provider, toolchain_config, tmp_path / "w", env=env)

        assert provider.received == expected_requests
        assert classified == [c for spec in specs for _, _, c in plans[spec.id] if c]
        assert [(r.benchmark_id, r.variant_tag, r.category) for r in table.rows] == [
            ("alpha", "ex2/turn1", Cat.CORRECT),
            ("beta", "ex2/turn5", Cat.COMPILATION_ERROR),
        ]
        assert table.rows[0].speedup > 1.5
        assert table.rows[1].speedup == 1.0 and table.rows[1].na_flag

    def test_score_completes_the_records_attempt_made(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        """``_Baseline.score`` returns the records ``_Baseline.attempt``
        made, in order, each completed with its category: the same tag,
        build, extraction and flags."""
        pairs, score = [], ex._Baseline.score

        def recording_score(base, attempts, counts=None):
            scored = score(base, attempts, counts)
            pairs.extend(zip(attempts, scored, strict=True))
            return scored

        monkeypatch.setattr(ex._Baseline, "score", recording_score)
        replies = [fenced(sleeper(60)), fenced(SYNTAX_ERROR), "no code",
                   fenced("int main(void) {\n"), fenced(sleeper(60, message="result 99"))]
        ex.run_ex2([sleep_bench(tmp_path / "b")], replay(replies), toolchain_config,
                   tmp_path / "w")
        assert [done.tag for _, done in pairs] == [f"ex2/turn{t}" for t in range(1, 6)]
        assert [done.category for _, done in pairs] == [
            Cat.CORRECT, Cat.COMPILATION_ERROR, Cat.NO_GENERATED_CODE,
            Cat.FAILED_TO_FOLLOW_INSTRUCTIONS, Cat.OUTPUT_MISMATCH,
        ]
        for made, done in pairs:
            assert made.category is None
            assert (done.tag, done.build, done.extraction, done.flags) == (
                made.tag, made.build, made.extraction, made.flags
            )

    def test_escaping_error_kills_the_build_in_flight(self, tmp_path, toolchain_config):
        pids = tmp_path / "turn2.pid"
        # Every build runs gcc, except turn 2's, which hangs until killed.
        wrapped = wrapped_gcc(tmp_path, toolchain_config, hang_build(pids, "/ex2/turn2/"))

        class FailsAtTurn3(gw.Provider):
            provider_id = "flaky"

            def __init__(self):
                self.calls = 0

            def complete(self, messages):
                self.calls += 1
                if self.calls == 3:
                    # Fail only once turn 2's compiler and its child run.
                    wait_for_pids(pids)
                    raise RuntimeError("provider bug")
                # A distinct reply per turn: a repeated one would share a build.
                reply = fenced(sleeper(60) + f"/* turn {self.calls} */\n")
                return gw.ModelResponse(reply, self.provider_id, 0.0)

        spec = sleep_bench(tmp_path / "b")
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="provider bug"):
            ex.run_ex2([spec], FailsAtTurn3(), wrapped, tmp_path / "w")
        assert time.perf_counter() - start < 10.0
        assert_reaped(pids)

    def test_escaping_error_kills_every_turn_build(self, tmp_path, toolchain_config):
        """No turn's build is joined before the row is scored, so two hung
        builds hold up no later request and die with the row."""
        pids = [tmp_path / "turn1.pid", tmp_path / "turn2.pid"]
        wrapped = wrapped_gcc(tmp_path, toolchain_config, "\n".join(
            hang_build(path, f"/ex2/turn{turn}/") for turn, path in enumerate(pids, start=1)
        ))

        class FailsAtTurn3(gw.Provider):
            provider_id = "flaky"

            def __init__(self):
                self.calls = 0

            def complete(self, messages):
                self.calls += 1
                if self.calls == 3:
                    # Fail only once both turns' compilers and their children run.
                    for path in pids:
                        wait_for_pids(path)
                    raise RuntimeError("provider bug")
                # A distinct reply per turn: a repeated one would share a build.
                reply = fenced(sleeper(60) + f"/* turn {self.calls} */\n")
                return gw.ModelResponse(reply, self.provider_id, 0.0)

        spec = sleep_bench(tmp_path / "b")
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="provider bug"):
            ex.run_ex2([spec], FailsAtTurn3(), wrapped, tmp_path / "w")
        assert time.perf_counter() - start < 10.0
        for path in pids:
            assert_reaped(path)


class TestEx3:
    def test_parallel_sweep_records_counts(self, tmp_path, toolchain_config):
        spec = matmul_bench(tmp_path / "b", openmp=True)
        provider = replay([fenced(matmul_omp_ikj(N))])
        table = ex.run_ex3(
            [spec], provider, toolchain_config, tmp_path / "w", counts=(4, 8)
        )
        row = table.rows[0]
        assert row.category is Cat.CORRECT
        assert row.experiment is Experiment.EX3
        threads = row.thread_map
        assert set(threads) == {4, 8}
        assert threads[8] is not None and threads[8] > 1.0
        assert row.speedup == max(v for v in threads.values() if v is not None)

    def test_serial_answer_fails_instructions(self, tmp_path, toolchain_config):
        spec = matmul_bench(tmp_path / "b", openmp=True)
        provider = replay([fenced(matmul_serial_response(N))])
        table = ex.run_ex3(
            [spec], provider, toolchain_config, tmp_path / "w", counts=(4, 8)
        )
        row = table.rows[0]
        assert row.category is Cat.FAILED_TO_FOLLOW_INSTRUCTIONS
        assert row.na_flag and row.speedup == 1.0
        assert row.thread_results is None

    def test_per_count_crash_recorded_per_count(self, tmp_path, toolchain_config):
        original = (
            "#include <stdio.h>\n"
            "int main(void) { printf(\"fine\\n\"); return 0; }\n"
        )
        candidate = (
            "#include <stdio.h>\n"
            "#include <stdlib.h>\n"
            "#include <string.h>\n"
            "int main(void) {\n"
            "    const char *v = getenv(\"OMP_NUM_THREADS\");\n"
            "#pragma omp parallel\n"
            "    { }\n"
            "    if (v && strcmp(v, \"8\") == 0) return 9;\n"
            "    printf(\"fine\\n\");\n"
            "    return 0;\n"
            "}\n"
        )
        write_bench(
            tmp_path / "b", "picky",
            {"main.c": original},
            build={"flags": ["-O0", "-fopenmp"]},
            run={"repetitions": 2},
        )
        spec = load_single(tmp_path / "b", "picky")
        table = ex.run_ex3(
            [spec], replay([fenced(candidate)]), toolchain_config, tmp_path / "w",
            counts=(4, 8),
        )
        row = table.rows[0]
        assert row.category is Cat.CORRECT
        threads = row.thread_map
        assert threads[4] is not None
        assert threads[8] is None

    @pytest.mark.parametrize("counts", [(), (0, 2)])
    def test_invalid_counts_rejected_before_any_request(self, tmp_path, toolchain_config,
                                                        counts):
        spec = sleep_bench(tmp_path / "b")
        provider = replay([fenced(parallel(sleeper(60)))])
        with pytest.raises(ValueError):
            ex.run_ex3([spec], provider, toolchain_config, tmp_path / "w", counts=counts)
        assert provider.received == []


def tool_attempt(build):
    """The ``_Baseline.attempt`` record of a tool's tree built as ``build``."""
    return ex._Attempt("cand", tc.PendingBuild.joined(build), None)


def checked(spec, reference, samples):
    """``samples`` as ``_Baseline.score`` hands them to ``_score``: each
    with the report of comparing its output with ``reference`` (None for
    one that did not run cleanly), one whose output equals ``reference``
    holding it."""
    result = []
    for sample in samples:
        equal = sample.ok and sample.stdout == reference
        report = compare_outputs(
            reference, reference if equal else sample.stdout, spec.validation
        ) if sample.ok else None
        result.append((ex._share_stdout(sample, reference) if equal else sample, report))
    return result


class TestScoreSharesOutput:
    """A timed run that prints the original's output, shared as
    ``_Baseline.score`` shares it, holds the original's Output and closes
    its own; one that prints something else keeps its own."""

    @pytest.mark.parametrize("counts", [None, (1, 2)])
    @pytest.mark.parametrize(
        "message, category",
        [("result 42", Cat.CORRECT), ("result 99", Cat.OUTPUT_MISMATCH)],
    )
    def test_equal_output_is_the_original_object(
        self, tmp_path, toolchain_config, message, category, counts
    ):
        spec = sleep_bench(tmp_path / "b", ms=5)
        original = tc.compile(spec, spec.root, toolchain_config, "base", tmp_path / "w")
        cand_dir = tmp_path / "cand"
        cand_dir.mkdir()
        (cand_dir / "main.c").write_text(sleeper(1, message=message))
        build = tc.compile(spec, cand_dir, toolchain_config, "cand", tmp_path / "w")

        # own: the samples as timed, before scoring shares an output
        baseline, *own = tc.run_rounds(
            [(original.binary_path, None if counts is None else 1),
             *((build.binary_path, count) for count in counts or (None,))],
            spec.run,
        )
        shared = checked(spec, baseline.stdout, own)
        scored = ex._score(build, tool_attempt(build), baseline, shared)
        assert scored.category is category
        assert scored.run.stdout == f"{message}\n".encode()
        assert (scored.run.stdout is baseline.stdout) is (category is Cat.CORRECT)
        # An equal output's own file is closed; the original's stays open.
        assert len(own) == (1 if counts is None else len(counts))
        assert all(sample.stdout.closed is (category is Cat.CORRECT) for sample in own)
        assert not baseline.stdout.closed


_BIG_OUTPUT = """\
#include <stdio.h>

int main(void) {
    for (int i = 0; i < 1000000; i++) printf("%%07d\\n", i);
    printf("last %s\\n");
    return 0;
}
"""


class TestScoreMemory:
    """Scoring compares an output where it lies, in its file: an 8 MB one
    costs the heap no copy, equal or not."""

    @pytest.mark.parametrize("mode", ["ExactBytes", "NumericTokens"])
    @pytest.mark.parametrize("last, category", [("A", Cat.CORRECT), ("B", Cat.OUTPUT_MISMATCH)])
    def test_peak_heap_stays_under_a_megabyte(self, tmp_path, toolchain_config, mode, last, category):
        write_bench(tmp_path / "b", "big", {"main.c": _BIG_OUTPUT % "A"},
                    run={"repetitions": 1}, validation={"mode": mode})
        spec = load_single(tmp_path / "b", "big")
        original = tc.compile(spec, spec.root, toolchain_config, "base", tmp_path / "w")
        cand_dir = tmp_path / "cand"
        cand_dir.mkdir()
        (cand_dir / "main.c").write_text(_BIG_OUTPUT % last)
        build = tc.compile(spec, cand_dir, toolchain_config, "cand", tmp_path / "w")

        tracemalloc.start()
        try:
            baseline, sample = tc.run_rounds(
                [(original.binary_path, None), (build.binary_path, None)], spec.run
            )
            shared = checked(spec, baseline.stdout, [sample])
            scored = ex._score(build, tool_attempt(build), baseline, shared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(baseline.stdout) >= 8_000_000
        assert scored.category is category
        assert peak < 1_000_000


class TestScoreSweep:
    """A sweep's category rests on its first matching sample, else its
    first sample; its speedup is its fastest matching sample's, to the
    bit of the best per-count ratio."""

    BASELINE = tc.RunSample((0.3, 0.4), b"42\n", b"", 0)

    def score(self, tmp_path, samples):
        spec = sleep_bench(tmp_path / "b", ms=5)
        build = tc.BuildOutcome(tc.BuildStatus.OK, tmp_path / "bin", "")
        return ex._score(
            build, tool_attempt(build), self.BASELINE,
            checked(spec, self.BASELINE.stdout, samples.values()),
        )

    def test_fastest_matching_count_sets_the_speedup(self, tmp_path):
        samples = {
            1: tc.RunSample((0.7,), b"41\n", b"", 0, 1),
            2: tc.RunSample((0.3, 0.1), b"42\n", b"", 0, 2),
            4: tc.RunSample((), b"", b"", -11, 4),
            8: tc.RunSample((0.1,), b"42\n", b"", 0, 8),
        }
        scored = self.score(tmp_path, samples)

        b = self.BASELINE.mean_s
        assert scored.category is Cat.CORRECT
        assert scored.run.thread_count == 2
        assert scored.thread_results == (
            (1, None), (2, b / samples[2].mean_s), (4, None), (8, b / samples[8].mean_s),
        )
        assert scored.stat == tc.SpeedupStat(b, samples[8].mean_s, b / samples[8].mean_s)
        assert scored.stat.speedup == max(v for _, v in scored.thread_results if v)

    def test_no_matching_count_rests_on_the_first(self, tmp_path):
        samples = {
            1: tc.RunSample((0.7,), b"41\n", b"", 0, 1),
            2: tc.RunSample((), b"", b"", -11, 2),
        }
        scored = self.score(tmp_path, samples)

        assert scored.category is Cat.OUTPUT_MISMATCH
        assert scored.run.thread_count == 1
        assert scored.thread_results == ((1, None), (2, None))
        assert scored.stat is None


class TestImport:
    def test_pre_optimized_tree_scores_like_a_variant(self, tmp_path, toolchain_config):
        spec = matmul_bench(tmp_path / "b")
        tree = tmp_path / "ext" / "matmul"
        tree.mkdir(parents=True)
        (tree / "main.c").write_text(matmul_ikj(N))

        table = ex.import_external_tool_results(
            tmp_path / "ext", "srcfix", [spec], toolchain_config, tmp_path / "w"
        )
        row = table.rows[0]
        assert row.tool_id == "srcfix"
        assert row.category is Cat.CORRECT
        assert row.speedup > 1.3
        assert row.variant_tag == "import/srcfix"
        assert row.labels == ()

    def test_empty_dir_empty_table(self, tmp_path, toolchain_config):
        (tmp_path / "ext").mkdir()
        spec = sleep_bench(tmp_path / "b")
        table = ex.import_external_tool_results(
            tmp_path / "ext", "srcfix", [spec], toolchain_config, tmp_path / "w"
        )
        assert table.rows == ()

    def test_broken_tree_is_compilation_error(self, tmp_path, toolchain_config):
        spec = sleep_bench(tmp_path / "b")
        tree = tmp_path / "ext" / "sleepy"
        tree.mkdir(parents=True)
        (tree / "main.c").write_text(SYNTAX_ERROR)
        table = ex.import_external_tool_results(
            tmp_path / "ext", "srcfix", [spec], toolchain_config, tmp_path / "w"
        )
        assert table.rows[0].category is Cat.COMPILATION_ERROR

    @pytest.mark.parametrize("tool_id", ["base", "prepared"])
    def test_a_row_s_own_tree_name_is_refused_before_anything_is_built(
            self, tmp_path, toolchain_config, tool_id):
        """``import/base`` and ``import/prepared`` would be the row's own
        original and prepared tree."""
        spec = sleep_bench(tmp_path / "b")
        tree = tmp_path / "ext" / "sleepy"
        tree.mkdir(parents=True)
        (tree / "main.c").write_text(sleeper(10))
        with pytest.raises(ValueError, match=f"'{tool_id}'"):
            ex.import_external_tool_results(
                tmp_path / "ext", tool_id, [spec], toolchain_config, tmp_path / "w"
            )
        assert not tc._unjoined
        assert not (tmp_path / "w" / "sleepy" / "import").exists()

    def test_unknown_tree_skipped_with_warning(self, tmp_path, toolchain_config, caplog):
        spec = sleep_bench(tmp_path / "b")
        tree = tmp_path / "ext" / "stranger"
        tree.mkdir(parents=True)
        (tree / "main.c").write_text(sleeper(50))
        with caplog.at_level(logging.WARNING, logger="perfagent.experiments"):
            table = ex.import_external_tool_results(
                tmp_path / "ext", "srcfix", [spec], toolchain_config, tmp_path / "w"
            )
        assert table.rows == ()
        assert any("stranger" in r.message for r in caplog.records)


class TestBaselineBesideCandidate:
    """Each driver builds the original while the model answers and the
    candidate compiles, and times both only once every build is joined."""

    @pytest.mark.parametrize("driver", ["ex1", "import"])
    def test_original_and_candidate_builds_overlap(self, tmp_path, toolchain_config, driver):
        builds = tmp_path / "builds.log"
        wrapped = slow_original_gcc(tmp_path, toolchain_config, builds)
        spec = sleep_bench(tmp_path / "b")
        table = drive(driver, [spec], replay([fenced(sleeper(60))]), wrapped, tmp_path / "w")

        assert table.rows[0].category is Cat.CORRECT
        assert_candidate_built_beside_original(builds)

    @pytest.mark.parametrize("experiment", [Experiment.EX1, Experiment.EX3])
    def test_requests_and_rows_match_the_serial_protocol(self, tmp_path, toolchain_config,
                                                         monkeypatch, experiment):
        """The requests, the per-attempt categories and the rows are those
        of building and timing the original before the request."""
        env = {"os": "TestOS", "cpu": "TestCPU", "compilers": "gcc"}
        shape = parallel if experiment is Experiment.EX3 else (lambda code: code)
        unbalanced = "int main(void) {\n    return 0;\n"
        # (benchmark, reply, answered, category classified)
        plans = [
            ("alpha", fenced(shape(sleeper(60))), True, Cat.CORRECT),
            ("beta", fenced(shape(SYNTAX_ERROR)), True, Cat.COMPILATION_ERROR),
            ("gamma", fenced(unbalanced), True, Cat.FAILED_TO_FOLLOW_INSTRUCTIONS),
            ("delta", "a reply to a request that does not match", False,
             Cat.NO_GENERATED_CODE),
            ("epsilon", fenced(shape(sleeper(50, message="result 99"))), True,
             Cat.OUTPUT_MISMATCH),
            ("zeta", "Buy a faster computer.", True, Cat.NO_GENERATED_CODE),
        ]
        specs = [sleep_bench(tmp_path / "b" / name, name) for name, *_ in plans]
        entries, expected_requests = [], []
        for spec, (_, reply, answered, _) in zip(specs, plans):
            original = (spec.root / "main.c").read_text()
            prompt = gw.render_prompt(experiment, original, env)
            messages = gw.build_messages(prompt, [])
            expected_requests.append(messages)
            # A wrong digest makes the replay raise TranscriptMismatch,
            # a ProviderError, so the request goes unanswered.
            digest = gw.canonical_digest(messages) if answered else "0" * 64
            entries.append({"request_digest": digest, "response_text": reply, "latency_s": 0.0})

        classified = []

        def recording_classify(*args):
            category = classify_attempt(*args)
            classified.append(category)
            return category

        monkeypatch.setattr(ex, "classify_attempt", recording_classify)
        provider = gw.ReplayProvider(entries)
        if experiment is Experiment.EX1:
            table = ex.run_ex1(specs, provider, toolchain_config, tmp_path / "w", env=env)
        else:
            table = ex.run_ex3(specs, provider, toolchain_config, tmp_path / "w",
                               counts=(1, 2), env=env)

        tag = f"{experiment.value.lower()}/cand"
        assert provider.received == expected_requests
        assert classified == [category for *_, category in plans]
        assert [(r.benchmark_id, r.variant_tag, r.category) for r in table.rows] == [
            (name, tag, category) for name, *_, category in plans
        ]
        assert table.rows[0].speedup > 1.5
        assert all(r.speedup == 1.0 and r.na_flag for r in table.rows[1:])
        if experiment is Experiment.EX3:
            assert set(table.rows[0].thread_map) == {1, 2}

    @pytest.mark.parametrize("driver", ["ex1", "ex2", "ex3"])
    def test_provider_error_kills_the_original_build(self, tmp_path, toolchain_config, driver):
        pids = tmp_path / "base.pid"
        wrapped = wrapped_gcc(tmp_path, toolchain_config, hang_build(pids, "/base/"))

        class FailsWhileBuilding(gw.Provider):
            provider_id = "flaky"

            def complete(self, messages):
                wait_for_pids(pids)
                raise RuntimeError("provider bug")

        spec = sleep_bench(tmp_path / "b")
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="provider bug"):
            drive(driver, [spec], FailsWhileBuilding(), wrapped, tmp_path / "w")
        assert time.perf_counter() - start < 10.0
        assert_reaped(pids)

    @pytest.mark.parametrize("driver", ["ex1", "ex2", "ex3", "import"])
    @pytest.mark.parametrize("broken_main", [SYNTAX_ERROR, EXIT_NONZERO], ids=["build", "run"])
    def test_broken_original_skips_its_row_and_leaves_nothing_unjoined(
        self, tmp_path, toolchain_config, caplog, driver, broken_main,
    ):
        write_bench(tmp_path / "bb", "broken", {"main.c": broken_main})
        broken = load_single(tmp_path / "bb", "broken")
        good = sleep_bench(tmp_path / "bg", "good")
        provider = replay([fenced(sleeper(60))] * 6)
        with caplog.at_level(logging.ERROR, logger="perfagent.experiments"):
            table = drive(driver, [broken, good], provider, toolchain_config, tmp_path / "w")
        assert [r.benchmark_id for r in table.rows] == ["good"]
        assert any("broken" in r.message for r in caplog.records)
        # A broken original is skipped after its row's first request; import sends none.
        carrying_broken = [
            messages for messages in provider.received
            if any(broken_main in m["content"] for m in messages)
        ]
        assert len(carrying_broken) == (0 if driver == "import" else 1)
        assert not tc._unjoined
        assert tc.run_timed("/bin/true", RunRecipe(repetitions=1, timeout_s=10)).ok


class TestBuildTimeout:
    """A candidate whose build outlives ``build.timeout_s`` is a
    CompilationError whose build log says so, and the run goes on with
    the compiler's processes reaped; an original's own timeout still
    skips only its row."""

    @staticmethod
    def benches(tmp_path, names):
        for name in names:
            write_bench(tmp_path / "b", name, {"main.c": sleeper(5)},
                        build={"flags": ["-O0"], "timeout_s": 1.0}, run={"repetitions": 2})
        return [load_single(tmp_path / "b", name) for name in names]

    @staticmethod
    def hanging(tmp_path, toolchain_config, path_parts):
        """A wrapped gcc whose build of each of ``path_parts`` hangs, and
        the pid file of each."""
        pids = [tmp_path / f"hang{i}.pid" for i in range(len(path_parts))]
        wrapped = wrapped_gcc(tmp_path, toolchain_config, "\n".join(
            hang_build(path, part) for path, part in zip(pids, path_parts)
        ))
        return wrapped, pids

    @staticmethod
    def record_builds(monkeypatch):
        builds, score = [], ex._score

        def recording(build, *rest):
            builds.append(build)
            return score(build, *rest)

        monkeypatch.setattr(ex, "_score", recording)
        return builds

    def test_ex1_rows_survive_a_slow_candidate_compile(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        specs = self.benches(tmp_path, ["alpha", "beta"])
        wrapped, pids = self.hanging(
            tmp_path, toolchain_config, ["/alpha/ex1/cand/", "/beta/ex1/cand/"]
        )
        builds = self.record_builds(monkeypatch)
        table = ex.run_ex1(specs, replay([fenced(sleeper(1))] * 2), wrapped, tmp_path / "w")
        assert [(r.benchmark_id, r.category) for r in table.rows] == [
            ("alpha", Cat.COMPILATION_ERROR), ("beta", Cat.COMPILATION_ERROR),
        ]
        for build, name in zip(builds, ["alpha", "beta"]):
            assert build.stderr.startswith("build exceeded 1.0s: ")
            assert f"/{name}/ex1/cand/src/main.c" in build.stderr
        for path in pids:
            assert_reaped(path)

    def test_ex2_turns_sharing_a_slow_build_are_compilation_errors(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        (spec,) = self.benches(tmp_path, ["sleepy"])
        wrapped, pids = self.hanging(tmp_path, toolchain_config, ["/ex2/turn2/"])
        builds = self.record_builds(monkeypatch)
        # Turn 4 repeats turn 2's code, so it shares the build that timed out.
        a, b, c, d = (fenced(sleeper(1) + f"/* reply {t} */\n") for t in "abcd")
        table = ex.run_ex2([spec], replay([a, b, c, b, d]), wrapped, tmp_path / "w")
        assert [build.ok for build in builds] == [True, False, True, False, True]
        assert builds[1] == builds[3]
        assert table.rows[0].category is Cat.CORRECT
        assert_reaped(pids[0])

    def test_agent_iteration_with_a_slow_build_is_a_compilation_error(
        self, tmp_path, toolchain_config
    ):
        write_bench(tmp_path / "b", "loopy", {"main.c": hotspot_program(5)},
                    entry_hotspot="kernel",
                    build={"flags": ["-O0"], "timeout_s": 1.0}, run={"repetitions": 2})
        spec = load_single(tmp_path / "b", "loopy")
        wrapped, pids = self.hanging(tmp_path, toolchain_config, ["/agent/iter1/"])
        trace = ag.run_agent(
            spec, lambda request: ag._fallback_tree(spec, "kernel", 0.1),
            replay([fenced(kernel_replacement(2)), fenced(kernel_replacement(1))]),
            ag.AgentConfig(max_iterations=2), wrapped, tmp_path / "w",
        )
        assert [r.category for r in trace.iterations] == [Cat.COMPILATION_ERROR, Cat.CORRECT]
        assert_reaped(pids[0])

    def test_original_with_a_slow_build_skips_only_its_row(
        self, tmp_path, toolchain_config, caplog
    ):
        specs = self.benches(tmp_path, ["broken", "good"])
        wrapped, pids = self.hanging(tmp_path, toolchain_config, ["/broken/ex1/base/"])
        with caplog.at_level(logging.ERROR, logger="perfagent.experiments"):
            table = ex.run_ex1(specs, replay([fenced(sleeper(1))] * 2), wrapped, tmp_path / "w")
        assert [(r.benchmark_id, r.category) for r in table.rows] == [("good", Cat.CORRECT)]
        assert any("broken" in r.message and "build exceeded" in r.message
                   for r in caplog.records)
        assert_reaped(pids[0])


def _counting_original(crash_on_run, message="result 42", runs="runs"):
    """An original that counts its runs in the file ``runs`` in its
    working directory, exits 3 on run ``crash_on_run`` and otherwise
    prints ``message``."""
    return (
        "#include <stdio.h>\n"
        "int main(void) {\n"
        "    int n = 0;\n"
        f"    FILE *f = fopen(\"{runs}\", \"r\");\n"
        "    if (f) { if (fscanf(f, \"%d\", &n) != 1) n = 0; fclose(f); }\n"
        f"    f = fopen(\"{runs}\", \"w\");\n"
        "    fprintf(f, \"%d\\n\", ++n);\n"
        "    fclose(f);\n"
        f"    if (n == {crash_on_run}) return 3;\n"
        f"    printf(\"{message}\\n\");\n"
        "    return 0;\n"
        "}\n"
    )


class TestRoundsPerRow:
    """A row times its original and every timed attempt, at every count,
    together in one ``run_rounds`` call; a multi-turn row checks its
    original with one run first."""

    @staticmethod
    def record_rounds(monkeypatch):
        calls = []  # per call: ((variant, thread count) of each arm, repetitions)
        run_rounds = tc.run_rounds

        def recording(arms, run, keep=None):
            calls.append((
                [(Path(binary).parent.parent.name, count) for binary, count in arms],
                run.repetitions,
            ))
            return run_rounds(arms, run, keep)

        monkeypatch.setattr(tc, "run_rounds", recording)
        return calls

    def test_ex2_times_every_built_turn_with_the_original(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        calls = self.record_rounds(monkeypatch)
        spec = sleep_bench(tmp_path / "b", ms=60)
        provider = replay([
            fenced(sleeper(30)),
            fenced(SYNTAX_ERROR),
            "no code",
            fenced(sleeper(20, message="result 99")),
            fenced(sleeper(40)),
        ])
        table = ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")
        assert (table.rows[0].variant_tag, table.rows[0].category) == ("ex2/turn1", Cat.CORRECT)
        # The original's one-run check after the first reply, then one call for the row.
        assert calls == [
            ([("base", None)], 1),
            ([("base", None), ("turn1", None), ("turn4", None), ("turn5", None)], 2),
        ]

    def test_ex3_times_every_count_with_the_original(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        calls = self.record_rounds(monkeypatch)
        spec = sleep_bench(tmp_path / "b", ms=60)
        table = ex.run_ex3(
            [spec], replay([fenced(parallel(sleeper(30)))]), toolchain_config, tmp_path / "w",
            counts=(2, 1, 2),
        )
        assert table.rows[0].category is Cat.CORRECT
        assert set(table.rows[0].thread_map) == {1, 2}
        assert calls == [([("base", 1), ("cand", 1), ("cand", 2)], 2)]

    def test_import_times_each_tree_with_its_original(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        calls = self.record_rounds(monkeypatch)
        specs = [sleep_bench(tmp_path / "b" / name, name, ms=20) for name in ("one", "two")]
        table = drive("import", specs, None, toolchain_config, tmp_path / "w")
        assert [r.category for r in table.rows] == [Cat.CORRECT, Cat.CORRECT]
        assert calls == [([("base", None), ("srcfix", None)], 2)] * 2

    def test_agent_times_each_built_iteration_with_the_original(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        """The profile source never reads the original's binary, and the
        first iteration does not build, so it runs nothing: the second
        iteration's rounds are the first to run the original, and the
        trace's baseline is its sample from them, with every repetition."""
        calls = self.record_rounds(monkeypatch)
        write_bench(tmp_path / "b", "loopy", {"main.c": hotspot_program(40)},
                    entry_hotspot="kernel", build={"flags": ["-O0"]}, run={"repetitions": 2})
        spec = load_single(tmp_path / "b", "loopy")
        provider = replay([
            fenced("void kernel(void) { this is not c code }"),
            fenced(kernel_replacement(20)),
            fenced(kernel_replacement(10)),
        ])
        trace = ag.run_agent(
            spec, lambda request: ag._fallback_tree(spec, "kernel", 0.1), provider,
            ag.AgentConfig(max_iterations=3), toolchain_config, tmp_path / "w",
        )
        assert [r.category for r in trace.iterations] == [
            Cat.COMPILATION_ERROR, Cat.CORRECT, Cat.CORRECT,
        ]
        assert calls == [
            ([("base", None), ("iter2", None)], 2),
            ([("base", None), ("iter3", None)], 2),
        ]
        assert len(trace.baseline.wall_times_s) == 2

    @pytest.mark.parametrize("timed", [True, False], ids=["timed", "nothing_timed"])
    @pytest.mark.parametrize("driver", ["ex1", "ex2", "ex3", "import"])
    def test_original_runs_per_row(self, tmp_path, toolchain_config, driver, timed):
        """A multi-turn row runs its original once for the check and then
        in every round; a one-turn row only in the rounds; a row that
        times nothing, once."""
        write_bench(tmp_path / "b", "counted", {"main.c": _counting_original(0)},
                    run={"repetitions": 3})
        spec = load_single(tmp_path / "b", "counted")
        shape = parallel if driver == "ex3" else (lambda code: code)
        code = shape(_counting_original(0) if timed else SYNTAX_ERROR)
        if driver == "import":
            tree = tmp_path / "ext" / "counted"
            tree.mkdir(parents=True)
            (tree / "main.c").write_text(code)
            table = ex.import_external_tool_results(
                tmp_path / "ext", "srcfix", [spec], toolchain_config, tmp_path / "w"
            )
        else:
            table = drive(driver, [spec], replay([fenced(code)] * 5), toolchain_config,
                          tmp_path / "w")
        assert table.rows[0].category is (Cat.CORRECT if timed else Cat.COMPILATION_ERROR)
        runs = tmp_path / "w" / "counted" / driver / "base" / "src" / "runs"
        expected = 1 if not timed else 3 + (driver == "ex2")
        assert int(runs.read_text()) == expected

    @pytest.mark.parametrize("timed", [True, False], ids=["one_correct", "nothing_timed"])
    @pytest.mark.parametrize("source", list(PROFILE_SOURCES))
    def test_agent_original_runs(self, tmp_path, toolchain_config, source, timed):
        """Outside its rounds the agent's original runs once at most: for
        the fallback tree, a profile source that opens its binary or the
        trace's baseline, whichever needs it before a candidate is timed.
        A source that never opens the binary leaves its first run to the
        rounds."""
        reps = 3
        write_bench(tmp_path / "b", "counted", {"main.c": _COUNTED_HOTSPOT},
                    entry_hotspot="kernel", build={"flags": ["-O0"]}, run={"repetitions": reps})
        spec = load_single(tmp_path / "b", "counted")
        reply = kernel_replacement(1) if timed else "void kernel(void) { this is not c code }"
        trace = ag.run_agent(
            spec, PROFILE_SOURCES[source], replay([fenced(reply)]),
            ag.AgentConfig(max_iterations=1), toolchain_config, tmp_path / "w",
        )
        assert trace.iterations[0].category is (Cat.CORRECT if timed else Cat.COMPILATION_ERROR)
        rounds_first = timed and source == "ignores_binary"
        runs = tmp_path / "w" / "counted" / "agent" / "base" / "src" / "runs"
        assert int(runs.read_text()) == (reps if rounds_first else 1 + reps * timed)
        assert len(trace.baseline.wall_times_s) == (reps if rounds_first else 1)

    @pytest.mark.parametrize("driver, crash_on_run", [("ex1", 2), ("ex2", 3)])
    def test_original_failing_in_the_rounds_skips_the_row(
        self, tmp_path, toolchain_config, caplog, monkeypatch, driver, crash_on_run
    ):
        """An original that fails only beside the candidates, after ex2's
        check of it passed, still skips its row."""
        write_bench(tmp_path / "bb", "flaky", {"main.c": _counting_original(crash_on_run)},
                    run={"repetitions": 2})
        flaky = load_single(tmp_path / "bb", "flaky")
        good = sleep_bench(tmp_path / "bg", "good", ms=20)
        # Candidates that never fail: timed beside the original.
        provider = replay([fenced(_counting_original(0))] * 5 + [fenced(sleeper(10))] * 5)
        calls = self.record_rounds(monkeypatch)
        with caplog.at_level(logging.ERROR, logger="perfagent.experiments"):
            table = drive(driver, [flaky, good], provider, toolchain_config, tmp_path / "w")
        assert len(calls[driver == "ex2"][0]) > 1
        assert [r.benchmark_id for r in table.rows] == ["good"]
        assert any("flaky" in r.message and "baseline run failed" in r.message
                   for r in caplog.records)
        assert not tc._unjoined


class TestSharedBuilds:
    """Within a row, code that repeats an earlier attempt's or the
    original's is built once and timed once; a null rewrite still gets an
    arm of its own beside the original."""

    @staticmethod
    def record(monkeypatch):
        """(compiled variant tags, ``run_rounds`` calls, evaluations)."""
        compiles, evaluations = [], []
        start_compile, score = tc.start_compile, ex._score

        def recording_compile(spec, src_dir, toolchain, variant_tag, work_dir, *layout):
            compiles.append(variant_tag)
            return start_compile(spec, src_dir, toolchain, variant_tag, work_dir, *layout)

        def recording_score(*args):
            evaluations.append(score(*args))
            return evaluations[-1]

        monkeypatch.setattr(tc, "start_compile", recording_compile)
        monkeypatch.setattr(ex, "_score", recording_score)
        return compiles, TestRoundsPerRow.record_rounds(monkeypatch), evaluations

    @staticmethod
    def unchanged(spec):
        """A reply whose code is byte for byte the original's main.c."""
        original = (spec.root / "main.c").read_text()
        reply = fenced(original[:-1])  # the fence's own newline ends the code
        assert gw.extract_code(gw.ModelResponse(reply, "x", 0.0)).code == original
        return reply

    def test_identical_turns_build_and_time_once(self, tmp_path, toolchain_config, monkeypatch):
        compiles, calls, evaluations = self.record(monkeypatch)
        spec = sleep_bench(tmp_path / "b", ms=60)
        table = ex.run_ex2([spec], replay([fenced(sleeper(30))] * 5), toolchain_config,
                           tmp_path / "w")
        assert compiles == ["ex2/base", "ex2/turn1"]
        assert calls == [
            ([("base", None)], 1),
            ([("base", None), ("turn1", None)], 2),
        ]
        assert [e.category for e in evaluations] == [Cat.CORRECT] * 5
        assert len({e.stat.speedup for e in evaluations}) == 1
        assert len({id(e.run) for e in evaluations}) == 1
        assert (table.rows[0].variant_tag, table.rows[0].category) == ("ex2/turn1", Cat.CORRECT)
        assert not (tmp_path / "w" / "sleepy" / "ex2" / "turn2").exists()

    def test_null_rewrite_is_timed_beside_the_original(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        compiles, calls, evaluations = self.record(monkeypatch)
        spec = sleep_bench(tmp_path / "b", ms=30)
        table = ex.run_ex2([spec], replay([self.unchanged(spec)] * 5), toolchain_config,
                           tmp_path / "w")
        assert compiles == ["ex2/base"]
        # Two arms, both the original's binary: the null rewrite is measured.
        assert calls == [
            ([("base", None)], 1),
            ([("base", None), ("base", None)], 2),
        ]
        assert [e.category for e in evaluations] == [Cat.CORRECT] * 5
        assert evaluations[0].stat is not None
        assert table.rows[0].variant_tag == "ex2/turn1"

    def test_alternating_turns_time_each_distinct_program_once(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        compiles, calls, evaluations = self.record(monkeypatch)
        spec = sleep_bench(tmp_path / "b", ms=60)
        a, b = fenced(sleeper(30)), fenced(sleeper(10))
        table = ex.run_ex2([spec], replay([a, b, a, b, a]), toolchain_config, tmp_path / "w")
        assert compiles == ["ex2/base", "ex2/turn1", "ex2/turn2"]
        assert calls == [
            ([("base", None)], 1),
            ([("base", None), ("turn1", None), ("turn2", None)], 2),
        ]
        runs = [e.run for e in evaluations]
        assert runs[0] is runs[2] is runs[4] and runs[1] is runs[3] and runs[0] is not runs[1]
        assert table.rows[0].variant_tag == "ex2/turn2"

    def test_identical_broken_turns_build_once(self, tmp_path, toolchain_config, monkeypatch):
        compiles, calls, evaluations = self.record(monkeypatch)
        spec = sleep_bench(tmp_path / "b")
        provider = replay([fenced(SYNTAX_ERROR)] * 2 + ["no code"] * 3)
        table = ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")
        assert compiles == ["ex2/base", "ex2/turn1"]
        assert calls == [([("base", None)], 1)]
        assert [e.category for e in evaluations[:2]] == [Cat.COMPILATION_ERROR] * 2
        assert table.rows[0].variant_tag == "ex2/turn5"

    def test_ex3_null_rewrite_gets_an_arm_per_count(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        compiles, calls, _ = self.record(monkeypatch)
        write_bench(tmp_path / "b", "omp", {"main.c": parallel(sleeper(20))},
                    build={"flags": ["-O0"]}, run={"repetitions": 2})
        spec = load_single(tmp_path / "b", "omp")
        table = ex.run_ex3([spec], replay([self.unchanged(spec)]), toolchain_config,
                           tmp_path / "w", counts=(1, 2))
        assert compiles == ["ex3/base"]
        assert calls == [([("base", 1), ("base", 1), ("base", 2)], 2)]
        assert table.rows[0].category is Cat.CORRECT
        assert set(table.rows[0].thread_map) == {1, 2}

    def test_agent_unchanged_hotspot_builds_nothing_and_is_timed(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        compiles, calls, _ = self.record(monkeypatch)
        write_bench(tmp_path / "b", "loopy", {"main.c": hotspot_program(20)},
                    entry_hotspot="kernel", build={"flags": ["-O0"]}, run={"repetitions": 2})
        spec = load_single(tmp_path / "b", "loopy")
        kernel = ag.patch.extract_function(hotspot_program(20), "kernel")
        trace = ag.run_agent(
            spec, lambda request: ag._fallback_tree(spec, "kernel", 0.1),
            replay([fenced(kernel)]), ag.AgentConfig(max_iterations=1), toolchain_config,
            tmp_path / "w",
        )
        assert compiles == ["agent/base"]
        assert calls == [([("base", None), ("base", None)], 2)]
        (iteration,) = trace.iterations
        assert iteration.category is Cat.CORRECT
        assert iteration.run is not None and iteration.speedup_vs_original is not None


# Counts its runs per thread count in ./runs_<OMP_NUM_THREADS>, and
# prints the wrong line at 2 threads.
_COUNTED_PER_COUNT = """\
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
int main(void) {
    const char *v = getenv("OMP_NUM_THREADS");
    char name[64];
    snprintf(name, sizeof name, "runs_%s", v ? v : "none");
    int n = 0;
    FILE *f = fopen(name, "r");
    if (f) { if (fscanf(f, "%d", &n) != 1) n = 0; fclose(f); }
    f = fopen(name, "w");
    fprintf(f, "%d\\n", ++n);
    fclose(f);
    printf(v && strcmp(v, "2") == 0 ? "result 99\\n" : "result 42\\n");
    return 0;
}
"""


class TestOnlyMatchingArmsRunOn:
    """After the first round only the candidate arms whose output matched
    run on, and the original only while one of them does: a program that
    crashed or printed the wrong output runs once. Runs are counted in
    each variant's src/ the way ``_counting_original`` counts them."""

    REPS = 3

    def bench(self, tmp_path):
        write_bench(tmp_path / "b", "counted", {"main.c": _counting_original(0)},
                    run={"repetitions": self.REPS})
        return load_single(tmp_path / "b", "counted")

    @staticmethod
    def runs(tmp_path, variant, name="runs"):
        return int((tmp_path / "w" / "counted" / variant / "src" / name).read_text())

    @pytest.mark.parametrize("candidate", [
        _counting_original(0, message="result 99"), _counting_original(1),
    ], ids=["mismatch", "crash"])
    def test_ex1_candidate_that_cannot_win_runs_once(self, tmp_path, toolchain_config,
                                                     candidate):
        """With the crash, the original no longer runs on alone."""
        spec = self.bench(tmp_path)
        table = ex.run_ex1([spec], replay([fenced(candidate)]), toolchain_config, tmp_path / "w")
        assert table.rows[0].category is Cat.OUTPUT_MISMATCH
        assert self.runs(tmp_path, "ex1/cand") == 1
        assert self.runs(tmp_path, "ex1/base") == 1

    def test_ex2_correct_turn_runs_every_round_and_a_wrong_one_once(
        self, tmp_path, toolchain_config
    ):
        spec = self.bench(tmp_path)
        # Each turn's src/ is a fresh copy of the prepared tree, in which
        # nothing runs, so a turn's count holds only its own runs.
        correct = _counting_original(0, runs="turn_runs")
        wrong = _counting_original(0, message="result 99", runs="turn_runs")
        provider = replay([fenced(correct), fenced(wrong)] + ["no code"] * 3)
        table = ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")
        assert (table.rows[0].variant_tag, table.rows[0].category) == ("ex2/turn1", Cat.CORRECT)
        assert self.runs(tmp_path, "ex2/turn1", "turn_runs") == self.REPS
        assert self.runs(tmp_path, "ex2/turn2", "turn_runs") == 1
        # The one-run check after the first reply, then every round.
        assert self.runs(tmp_path, "ex2/base") == 1 + self.REPS

    def test_ex3_count_that_mismatches_runs_once(self, tmp_path, toolchain_config):
        spec = self.bench(tmp_path)
        table = ex.run_ex3([spec], replay([fenced(parallel(_COUNTED_PER_COUNT))]),
                           toolchain_config, tmp_path / "w", counts=(1, 2))
        row = table.rows[0]
        assert row.category is Cat.CORRECT
        assert row.thread_map[1] is not None and row.thread_map[2] is None
        assert self.runs(tmp_path, "ex3/cand", "runs_1") == self.REPS
        assert self.runs(tmp_path, "ex3/cand", "runs_2") == 1
        assert self.runs(tmp_path, "ex3/base") == self.REPS

    def test_agent_mismatching_iteration_records_one_time(self, tmp_path, toolchain_config):
        """The profile source never reads the original's binary, so the
        first iteration's rounds are the first to run the original, and
        the trace's baseline is its one run from them."""
        write_bench(tmp_path / "b", "loopy", {"main.c": hotspot_program(20)},
                    entry_hotspot="kernel", build={"flags": ["-O0"]},
                    run={"repetitions": self.REPS})
        spec = load_single(tmp_path / "b", "loopy")
        wrong = 'void kernel(void) {\n    printf("noise\\n");\n}'
        trace = ag.run_agent(
            spec, lambda request: ag._fallback_tree(spec, "kernel", 0.1),
            replay([fenced(wrong), fenced(kernel_replacement(10))]),
            ag.AgentConfig(max_iterations=2), toolchain_config, tmp_path / "w",
        )
        first, second = trace.iterations
        assert first.category is Cat.OUTPUT_MISMATCH
        assert len(first.run.wall_times_s) == 1
        assert second.category is Cat.CORRECT
        assert len(second.run.wall_times_s) == self.REPS
        assert len(trace.baseline.wall_times_s) == 1

    def test_identical_mismatching_replies_are_compared_once(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        compared = []

        def counting(*args):
            compared.append(args)
            return compare_outputs(*args)

        monkeypatch.setattr(ex, "compare_outputs", counting)
        spec = sleep_bench(tmp_path / "b", ms=5)
        provider = replay([fenced(sleeper(1, message="result 99"))] * 5)
        table = ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")
        assert table.rows[0].category is Cat.OUTPUT_MISMATCH
        assert len(compared) == 1


# Counts its runs in ./runs like _counting_original, around a ``kernel``
# hotspot the agent can rewrite.
_COUNTED_HOTSPOT = """\
#include <stdio.h>
#include <time.h>

void kernel(void) {
    struct timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = 5L * 1000000L;
    nanosleep(&ts, 0);
}

int main(void) {
    int n = 0;
    FILE *f = fopen("runs", "r");
    if (f) { if (fscanf(f, "%d", &n) != 1) n = 0; fclose(f); }
    f = fopen("runs", "w");
    fprintf(f, "%d\\n", ++n);
    fclose(f);
    kernel();
    printf("energy 7.5000e+00\\n");
    return 0;
}
"""


class TestFreshTrees:
    """Every variant of a row, the original included, builds and runs in a
    fresh copy of the row's prepared tree, in which nothing runs: no
    variant starts from files another one wrote, in this run or an
    earlier one into the same work dir."""

    REPS = 3
    runs = staticmethod(TestOnlyMatchingArmsRunOn.runs)

    def bench(self, tmp_path, files=None, run=None, **overrides):
        write_bench(tmp_path / "b", "counted", files or {"main.c": _counting_original(0)},
                    run={"repetitions": self.REPS, **(run or {})}, **overrides)
        return load_single(tmp_path / "b", "counted")

    def test_ex2_turn_counts_only_its_own_runs(self, tmp_path, toolchain_config):
        """The check runs the original right after the first reply, before
        the turn's tree is laid out."""
        spec = self.bench(tmp_path)
        turn = "/* turn */\n" + _counting_original(0)
        provider = replay([fenced(turn)] + ["no code"] * 4)
        table = ex.run_ex2([spec], provider, toolchain_config, tmp_path / "w")
        assert (table.rows[0].variant_tag, table.rows[0].category) == ("ex2/turn1", Cat.CORRECT)
        assert self.runs(tmp_path, "ex2/turn1") == self.REPS
        assert self.runs(tmp_path, "ex2/base") == 1 + self.REPS
        assert not (tmp_path / "w" / "counted" / "ex2" / "prepared" / "runs").exists()

    def test_rerun_into_the_same_work_dir_replaces_the_trees(self, tmp_path, toolchain_config):
        """Between the runs the benchmark drops a file, which no tree of
        the second run holds."""
        spec = self.bench(tmp_path, {"main.c": _counting_original(0), "dropped.txt": "x\n"})
        cand = "/* cand */\n" + _counting_original(0)
        for _ in range(2):
            table = ex.run_ex1([spec], replay([fenced(cand)]), toolchain_config, tmp_path / "w")
            assert table.rows[0].category is Cat.CORRECT
            assert self.runs(tmp_path, "ex1/base") == self.REPS
            assert self.runs(tmp_path, "ex1/cand") == self.REPS
            (spec.root / "dropped.txt").unlink(missing_ok=True)
        ex_dir = tmp_path / "w" / "counted" / "ex1"
        assert not any(ex_dir.glob("*/dropped.txt")) and not any(ex_dir.glob("*/src/dropped.txt"))

    def test_agent_iteration_built_after_the_original_ran(self, tmp_path, toolchain_config):
        """A profile source that opens the original's binary runs it before
        the first iteration is built."""
        write_bench(tmp_path / "b", "counted", {"main.c": _COUNTED_HOTSPOT},
                    entry_hotspot="kernel", build={"flags": ["-O0"]},
                    run={"repetitions": self.REPS})
        spec = load_single(tmp_path / "b", "counted")
        ran_before_build = []

        def source(request):
            with open(request.binary_path, "rb"):
                if request.variant_tag == "agent/base":
                    ran_before_build.append(self.runs(tmp_path, "agent/base"))
                return ag._fallback_tree(spec, "kernel", 0.1)

        trace = ag.run_agent(
            spec, source, replay([fenced(kernel_replacement(1))]),
            ag.AgentConfig(max_iterations=1), toolchain_config, tmp_path / "w",
        )
        assert trace.iterations[0].category is Cat.CORRECT
        assert ran_before_build == [1]
        assert self.runs(tmp_path, "agent/iter1") == self.REPS

    def test_import_tree_lays_its_files_over_the_prepared_tree(
        self, tmp_path, toolchain_config
    ):
        """The tree ships a header that reads the result from a data file of
        its own, and no main.c: the build takes the prepared main.c, whose
        pragma line prep stripped, and prints the original's result only
        with both of the tree's files in place."""
        main = (
            "#include <stdio.h>\n"
            '#include "include/helper.h"\n'
            "#pragma omp parallel\n"
            "int main(void) {\n"
            '    printf("result %d\\n", value());\n'
            "    return 0;\n"
            "}\n"
        )
        spec = self.bench(
            tmp_path, {"main.c": main, "include/helper.h": "static int value(void) { return 42; }\n"},
            prep={"strip_omp_pragmas": True},
        )
        tree = tmp_path / "ext" / "counted"
        (tree / "include").mkdir(parents=True)
        (tree / "include" / "helper.h").write_text(
            "static int value(void) {\n"
            "    int v = 0;\n"
            '    FILE *f = fopen("data/value.txt", "r");\n'
            '    if (f) { if (fscanf(f, "%d", &v) != 1) v = 0; fclose(f); }\n'
            "    return v;\n"
            "}\n"
        )
        (tree / "data").mkdir()
        (tree / "data" / "value.txt").write_text("42\n")
        table = ex.import_external_tool_results(
            tmp_path / "ext", "hdr", [spec], toolchain_config, tmp_path / "w"
        )
        assert table.rows[0].category is Cat.CORRECT
        ex_dir = tmp_path / "w" / "counted" / "import"
        built = (ex_dir / "hdr" / "src" / "main.c").read_bytes()
        assert built == (ex_dir / "prepared" / "main.c").read_bytes()
        assert b"#pragma omp" not in built

    def test_ex1_feeds_the_manifest_stdin_file_to_every_repetition(
        self, tmp_path, toolchain_config, monkeypatch
    ):
        """A program that finds stdin empty exits 5, so a repetition that
        did not read the file fails the original or the candidate."""
        reader = (
            "#include <stdio.h>\n"
            "int main(void) {\n"
            "    int a, b;\n"
            '    if (scanf("%d %d", &a, &b) != 2) return 5;\n'
            '    printf("sum %d\\n", a + b);\n'
            "    return 0;\n"
            "}\n"
        )
        spec = self.bench(tmp_path, {"main.c": reader, "data/in.txt": "40 2\n"},
                          run={"stdin_file": "data/in.txt"})
        cand = "/* cand */\n" + reader
        calls = TestRoundsPerRow.record_rounds(monkeypatch)
        table = ex.run_ex1([spec], replay([fenced(cand)]), toolchain_config, tmp_path / "w")
        assert table.rows[0].category is Cat.CORRECT
        assert calls == [([("base", None), ("cand", None)], self.REPS)]


def test_macros_expand_with_the_compiler_that_builds_the_row(tmp_path, toolchain_config):
    """``prep.expand_macros`` runs the row's own compiler with the
    toolchain's default flags, not the first gcc on PATH."""
    log = tmp_path / "cc.log"
    toolchain = replace(
        wrapped_gcc(tmp_path, toolchain_config, f'echo "$*" >> "{log}"'),
        default_flags={"gcc": ("-DFROM_TOOLCHAIN=7",)},
    )
    main = 'int printf(const char *, ...);\nint main(void) { printf("%d\\n", FROM_TOOLCHAIN); }\n'
    write_bench(tmp_path / "b", "macro", {"main.c": main},
                build={"flags": ["-O0"]}, prep={"expand_macros": True})
    spec = load_single(tmp_path / "b", "macro")
    with ex._Baseline(spec, toolchain, tmp_path / "w", "ex1") as base:
        assert "FROM_TOOLCHAIN" not in (base.src_dir / "main.c").read_text()
        assert base.check().stdout == b"7\n"
    passes = [line.split() for line in log.read_text().splitlines()]
    assert [("-E" in argv, "-DFROM_TOOLCHAIN=7" in argv) for argv in passes] == [
        (True, True), (False, True),
    ]


class TestRerunReusesBuilds:
    """A rerun into the same work dir compiles nothing whose inputs did not
    change, and every row comes out as it did the first time."""

    @staticmethod
    def spawn_logging(tmp_path, toolchain_config):
        log = tmp_path / "spawns.log"
        return wrapped_gcc(tmp_path, toolchain_config, f'echo "$*" >> "{log}"'), log

    def test_second_ex1_run_spawns_no_compiler(self, tmp_path, toolchain_config):
        wrapped, log = self.spawn_logging(tmp_path, toolchain_config)
        specs = [sleep_bench(tmp_path / "b", name, ms=60) for name in ("alpha", "beta")]
        replies = [fenced(sleeper(30)), fenced(sleeper(30, "result 43"))]
        rows = []
        for _ in range(2):
            table = ex.run_ex1(specs, replay(replies), wrapped, tmp_path / "w")
            rows.append([(r.benchmark_id, r.category, r.variant_tag) for r in table.rows])
            assert not tc._unjoined
        assert rows[0] == [("alpha", Cat.CORRECT, "ex1/cand"),
                           ("beta", Cat.OUTPUT_MISMATCH, "ex1/cand")]
        assert rows[1] == rows[0]
        assert len(log.read_text().splitlines()) == 4

    def test_second_agent_run_spawns_no_compiler(self, tmp_path, toolchain_config):
        wrapped, log = self.spawn_logging(tmp_path, toolchain_config)
        write_bench(tmp_path / "b", "loopy", {"main.c": hotspot_program(60)},
                    entry_hotspot="kernel", build={"flags": ["-O0"]}, run={"repetitions": 2})
        spec = load_single(tmp_path / "b", "loopy")
        replies = [fenced(kernel_replacement(20)), fenced(kernel_replacement(40))]
        traces = []
        for _ in range(2):
            trace = ag.run_agent(spec, None, replay(replies), ag.AgentConfig(max_iterations=2),
                                 wrapped, tmp_path / "w")
            traces.append(([it.category for it in trace.iterations], trace.best_iteration))
        assert traces[0][0] == [Cat.CORRECT, Cat.CORRECT]
        assert traces[1] == traces[0]
        assert len(log.read_text().splitlines()) == 3


class TestAggregate:
    def test_na_counts_as_one(self):
        table = ex.ResultsTable((
            make_record("b1", speedup=2.0),
            make_record("b2", category=Cat.OUTPUT_MISMATCH),
        ))
        (summary,) = ex.aggregate(table, group_by=("tool",))
        assert summary["tool_id"] == "t"
        assert summary["mean_speedup"] == pytest.approx(1.5)
        assert summary["pass_at_1"] == pytest.approx(0.5)
        assert summary["n"] == 2

    def test_single_row_mean(self):
        table = ex.ResultsTable((make_record(speedup=5.46),))
        (summary,) = ex.aggregate(table)
        assert summary["mean_speedup"] == pytest.approx(5.46)

    def test_eighteen_of_twenty_pass_rate(self):
        rows = tuple(
            make_record(f"b{i}", category=Cat.CORRECT, speedup=1.1)
            for i in range(18)
        ) + tuple(
            make_record(f"b{i}", category=Cat.OUTPUT_MISMATCH) for i in range(18, 20)
        )
        (summary,) = ex.aggregate(ex.ResultsTable(rows))
        assert summary["pass_at_1"] == 0.90
        assert summary["n"] == 20

    def test_all_na_means_one(self):
        table = ex.ResultsTable((
            make_record("b1", category=Cat.COMPILATION_ERROR),
            make_record("b2", category=Cat.NO_GENERATED_CODE),
        ))
        (summary,) = ex.aggregate(table)
        assert summary["mean_speedup"] == 1.0
        assert summary["pass_at_1"] == 0.0

    def test_empty_table_raises(self):
        with pytest.raises(ex.EmptyTable):
            ex.aggregate(ex.ResultsTable(()))

    def test_geometric_mean(self):
        table = ex.ResultsTable((
            make_record("b1", speedup=2.0),
            make_record("b2", speedup=8.0),
        ))
        (summary,) = ex.aggregate(table, mean="geometric")
        assert summary["mean_speedup"] == pytest.approx(4.0)
        assert summary["mean_kind"] == "geometric"

    def test_grouping_splits_and_sorts(self):
        table = ex.ResultsTable((
            make_record("b1", tool="zeta", speedup=2.0),
            make_record("b2", tool="alpha", speedup=4.0),
            make_record("b1", tool="alpha", speedup=3.0, variant="other"),
        ))
        summaries = ex.aggregate(table, group_by=("tool",))
        assert [s["tool_id"] for s in summaries] == ["alpha", "zeta"]
        assert summaries[0]["n"] == 2

    def test_unknown_dimension(self):
        table = ex.ResultsTable((make_record(),))
        with pytest.raises(ValueError):
            ex.aggregate(table, group_by=("vibe",))

    def test_unknown_mean_kind(self):
        table = ex.ResultsTable((make_record(),))
        with pytest.raises(ValueError):
            ex.aggregate(table, mean="harmonic")

    @given(
        speeds=st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=1, max_size=12,
        ),
        na_count=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_mean_stays_within_bounds(self, speeds, na_count):
        rows = tuple(
            make_record(f"c{i}", speedup=s) for i, s in enumerate(speeds)
        ) + tuple(
            make_record(f"n{i}", category=Cat.OUTPUT_MISMATCH) for i in range(na_count)
        )
        (summary,) = ex.aggregate(ex.ResultsTable(rows))
        everything = list(speeds) + [1.0] * na_count
        # summation rounding may land a few ulps outside [min, max]
        slack = 1e-9 * max(everything)
        assert min(everything) - slack <= summary["mean_speedup"]
        assert summary["mean_speedup"] <= max(everything) + slack
        assert summary["pass_at_1"] == pytest.approx(len(speeds) / len(everything))


def small_table():
    rows = (
        make_record(
            "alpha", speedup=2.5,
            labels=[
                gw.OptimizationLabel(gw.OptimizationLabelKind.LOOP_INTERCHANGE, "x"),
                gw.OptimizationLabel(gw.OptimizationLabelKind.LOOP_TILING, "y"),
            ],
        ),
        make_record("beta", category=Cat.OUTPUT_MISMATCH),
        make_record(
            "gamma", experiment=Experiment.EX3, variant="ex3/cand", speedup=3.5,
            threads=((4, 2.0), (8, 3.5)),
        ),
    )
    return ex.ResultsTable(rows, {"tool_id": "t", "toolchain": {"gcc": "gcc 11"},
                                  "timestamp": "2026-08-16T00:00:00+00:00"})


class TestReports:
    def test_csv_shape(self, tmp_path):
        table = small_table()
        written = ex.emit_report(table, [], tmp_path, formats=("csv",))
        text = written["csv"].read_text()
        lines = text.splitlines()
        assert lines[0] == (
            "benchmark_id,motif,level,experiment,tool_id,variant_tag,category,"
            "speedup,na_flag,thread_4,thread_8,thread_16,thread_32,labels"
        )
        assert len(lines) == 1 + len(table.rows)
        parsed = list(csv.DictReader(text.splitlines()))
        assert parsed[0]["labels"] == "LoopInterchange;LoopTiling"
        assert parsed[0]["speedup"] == "2.500000"
        assert parsed[0]["thread_4"] == ""
        assert parsed[1]["na_flag"] == "1"
        assert parsed[1]["speedup"] == "1.000000"
        assert parsed[2]["thread_8"] == "3.500000"
        assert parsed[2]["thread_16"] == ""

    def test_markdown_tables(self, tmp_path):
        table = small_table()
        summaries = ex.aggregate(table, group_by=("tool", "experiment"))
        written = ex.emit_report(table, summaries, tmp_path, formats=("markdown",))
        text = written["markdown"].read_text()
        assert "## Correctness" in text
        assert "| Correct |" in text
        assert "| Total |" in text
        assert "## Mean speedup by motif" in text
        assert "Stencils" in text
        assert "arithmetic" in text

    def test_markdown_motif_means_follow_the_mean_kind(self, tmp_path):
        table = ex.ResultsTable((make_record("b1", speedup=1.0), make_record("b2", speedup=4.0)))
        summaries = ex.aggregate(table, mean="geometric")
        written = ex.emit_report(table, summaries, tmp_path, formats=("markdown",))
        lines = written["markdown"].read_text().splitlines()
        assert "| Stencils | t | EX1 | 2.00 | 2 |" in lines
        assert "| t | 2.00 | 1.00 | 2 |" in lines

    def test_markdown_counts_sum_to_total(self, tmp_path):
        table = small_table()
        written = ex.emit_report(table, [], tmp_path, formats=("markdown",))
        lines = written["markdown"].read_text().splitlines()
        start = lines.index("## Correctness") + 2
        block = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            block.append([c.strip() for c in line.strip("|").split("|")])
        header, _, *body = block
        for col in range(1, len(header)):
            counts = [int(r[col]) for r in body[:-1]]
            assert sum(counts) == int(body[-1][col])

    def test_json_round_trips(self, tmp_path):
        table = small_table()
        written = ex.emit_report(table, [], tmp_path, formats=("json",))
        loaded = ex.load_table(written["json"])
        assert loaded.rows == table.rows
        assert loaded.provenance == table.provenance

    @pytest.mark.parametrize("row, key, value, reason", [
        (0, "speedup", 0, "speedup must be > 0, not 0.0"),
        (0, "speedup", -2.5, "speedup must be > 0, not -2.5"),
        (2, "thread_results", {"4": 2.0, "8": -3.5}, "thread_results.8 must be > 0, not -3.5"),
        (2, "thread_results", {"4": 0.0}, "thread_results.4 must be > 0, not 0.0"),
    ], ids=["zero", "negative", "negative-thread", "zero-thread"])
    def test_load_rejects_a_speedup_not_above_zero(self, tmp_path, row, key, value, reason):
        """A speedup at or below 0 would reach the geometric mean as a
        math domain error and results.csv as written."""
        path = ex.emit_report(small_table(), [], tmp_path, formats=("json",))["json"]
        doc = json.loads(path.read_text())
        doc["rows"][row][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ex.InvalidRecord) as exc:
            ex.load_table(path)
        assert str(exc.value) == f"{path}: rows[{row}]: {reason}"

    def test_load_names_a_repeated_row(self, tmp_path):
        path = ex.emit_report(small_table(), [], tmp_path, formats=("json",))["json"]
        doc = json.loads(path.read_text())
        doc["rows"].append(doc["rows"][2])
        path.write_text(json.dumps(doc))
        with pytest.raises(ex.DuplicateRow) as exc:
            ex.load_table(path)
        assert str(exc.value) == (
            f"{path}: rows[3]: repeats rows[2]: benchmark 'gamma', EX3, tool 't', variant 'ex3/cand'"
        )

    def test_emission_is_deterministic(self, tmp_path):
        table = small_table()
        summaries = ex.aggregate(table)
        a = ex.emit_report(table, summaries, tmp_path / "a")
        b = ex.emit_report(table, summaries, tmp_path / "b")
        for fmt in ("csv", "markdown", "json"):
            assert a[fmt].read_bytes() == b[fmt].read_bytes()

    @pytest.mark.parametrize("ex3", [True, False], ids=["ex3", "no_ex3"])
    def test_counts_above_the_host_cpus_are_named(self, tmp_path, ex3):
        rows = [make_record("alpha")]
        if ex3:
            rows.append(make_record(
                "gamma", experiment=Experiment.EX3, variant="ex3/cand", speedup=1.5,
                threads=((1, 1.0), (2, 1.5), (4, 1.2), (8, None), (16, 0.9), (32, 0.8)),
            ))
        table = ex.ResultsTable(tuple(rows), {**small_table().provenance, "cpus": 2})
        written = ex.emit_report(table, [], tmp_path)
        named = [line for line in written["markdown"].read_text().splitlines()
                 if "oversubscription" in line]
        assert named == (
            ["EX3 thread counts 4, 8, 16, 32 exceed the host's 2 CPUs, "
             "so they measure oversubscription."] if ex3 else []
        )
        assert ex.load_table(written["json"]).provenance == table.provenance
        assert written["csv"].read_text().splitlines()[0].split(",") == list(ex.CSV_COLUMNS)

    def test_provenance_records_the_host_cpus(self, toolchain_config):
        cpus = ex._provenance(toolchain_config, "t")["cpus"]
        assert isinstance(cpus, int) and 1 <= cpus <= (os.cpu_count() or cpus)

    def test_empty_summaries_render_headers(self, tmp_path):
        written = ex.emit_report(small_table(), [], tmp_path, formats=("markdown",))
        text = written["markdown"].read_text()
        assert "| group | mean_speedup | pass_at_1 | n |" in text

    def test_unwritable_path(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ex.UnwritablePath):
            ex.emit_report(small_table(), [], blocker / "sub")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            ex.emit_report(small_table(), [], tmp_path, formats=("pdf",))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_csv_parses_back(self, tmp_path_factory, data):
        count = data.draw(st.integers(min_value=0, max_value=8))
        rows = []
        for i in range(count):
            category = data.draw(st.sampled_from(list(Cat)))
            speedup = data.draw(st.floats(min_value=0.1, max_value=9.0))
            rows.append(make_record(f"b{i}", category=category, speedup=speedup))
        table = ex.ResultsTable(tuple(rows))
        out = tmp_path_factory.mktemp("csvprop")
        written = ex.emit_report(table, [], out, formats=("csv",))
        parsed = list(csv.DictReader(written["csv"].read_text().splitlines()))
        assert len(parsed) == count
        for got, row in zip(parsed, table.rows):
            assert got["category"] == row.category.value
            assert got["na_flag"] == ("1" if row.na_flag else "0")
