"""Experiment drivers, aggregation, and report files."""

import csv
import json
import logging
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfagent import experiments as ex
from perfagent import llm_gateway as gw
from perfagent import toolchain as tc
from perfagent.llm_gateway import Experiment
from perfagent.manifest import Motif, RunRecipe
from perfagent.verify import CorrectnessCategory as Cat
from perfagent.verify import classify_attempt

from conftest import (
    assert_candidate_built_beside_original,
    assert_reaped,
    hang_build,
    load_single,
    slow_original_gcc,
    wait_for_pids,
    wrapped_gcc,
    write_bench,
)
from kernels import (
    EXIT_NONZERO,
    SYNTAX_ERROR,
    fenced,
    matmul_ijk,
    matmul_ikj,
    matmul_omp_ikj,
    matmul_serial_response,
    sleeper,
)

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
                prompt = gw.render_prompt(experiment, spec, original, env)
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
                return gw.ModelResponse(fenced(sleeper(60)), self.provider_id, 0.0)

        spec = sleep_bench(tmp_path / "b")
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="provider bug"):
            ex.run_ex2([spec], FailsAtTurn3(), wrapped, tmp_path / "w")
        assert time.perf_counter() - start < 10.0
        assert_reaped(pids)


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


class TestScoreSharesOutput:
    """A timed run that prints the original's output holds the original's
    bytes object; one that prints something else keeps its own."""

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
        baseline = tc.run_timed(original.binary_path, spec.run)
        cand_dir = tmp_path / "cand"
        cand_dir.mkdir()
        (cand_dir / "main.c").write_text(sleeper(1, message=message))
        build = tc.compile(spec, cand_dir, toolchain_config, "cand", tmp_path / "w")

        evaluation = ex._score(spec, build, None, set(), baseline, counts)
        assert evaluation.category is category
        assert evaluation.run.stdout == f"{message}\n".encode()
        assert (evaluation.run.stdout is baseline.stdout) is (category is Cat.CORRECT)


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
            prompt = gw.render_prompt(experiment, spec, original, env)
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

    def test_emission_is_deterministic(self, tmp_path):
        table = small_table()
        summaries = ex.aggregate(table)
        a = ex.emit_report(table, summaries, tmp_path / "a")
        b = ex.emit_report(table, summaries, tmp_path / "b")
        for fmt in ("csv", "markdown", "json"):
            assert a[fmt].read_bytes() == b[fmt].read_bytes()

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
