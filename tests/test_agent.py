"""Iteration loop behavior: stops, bases, categories, trace persistence."""

import hashlib
import json
import logging
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfagent import agent as ag
from perfagent import llm_gateway as gw
from perfagent import profile as pr
from perfagent import toolchain as tc
from perfagent.verify import CorrectnessCategory as Cat

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
from kernels import CRASH_MAIN, SYNTAX_ERROR, fenced, hotspot_program, kernel_replacement

pytestmark = pytest.mark.usefixtures("toolchain_config")


def hotspot_bench(tmp_path, kernel_ms=100, repetitions=2):
    write_bench(
        tmp_path, "loopy",
        {"main.c": hotspot_program(kernel_ms)},
        entry_hotspot="kernel",
        build={"flags": ["-O0"]},
        run={"repetitions": repetitions},
    )
    return load_single(tmp_path, "loopy")


def replay(texts):
    return gw.ReplayProvider(
        [{"request_digest": "", "response_text": t, "latency_s": 0.0} for t in texts]
    )


def run(spec, provider, toolchain_config, work, profile_source=None, **cfg_kw):
    cfg = ag.AgentConfig(**cfg_kw)
    return ag.run_agent(spec, profile_source, provider, cfg, toolchain_config, work)


class TestHappyPath:
    def test_three_correct_iterations(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced(kernel_replacement(30), prose_before="Interchanged the loops."),
            fenced(kernel_replacement(60), prose_before="Tiled the loop."),
            fenced(kernel_replacement(45), prose_before="Unrolled the loop."),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=3)

        assert [r.index for r in trace.iterations] == [1, 2, 3]
        assert [r.category for r in trace.iterations] == [Cat.CORRECT] * 3
        assert trace.stop_reason is ag.StopReason.THRESHOLD_REACHED
        assert trace.best_iteration == 1
        for record in trace.iterations:
            assert record.speedup_vs_original is not None
            assert record.run is not None
        assert trace.iterations[0].speedup_vs_original.speedup > 1.5

    def test_last_correct_base_chain(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced(kernel_replacement(30)),
            fenced(kernel_replacement(60)),
            fenced(kernel_replacement(45)),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=3)
        # iteration 1 sees the original, later ones the last correct body
        assert "100L" in trace.iterations[0].context_sent
        assert "30L" in trace.iterations[1].context_sent
        assert "60L" in trace.iterations[2].context_sent

    def test_best_correct_base_policy(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced(kernel_replacement(30)),
            fenced(kernel_replacement(60)),
            fenced(kernel_replacement(45)),
        ])
        trace = run(
            spec, provider, toolchain_config, tmp_path / "w",
            max_iterations=3, base_policy=ag.BasePolicy.BEST_CORRECT,
        )
        assert "30L" in trace.iterations[2].context_sent
        assert trace.best_iteration == 1

    def test_memory_digest_reaches_prompt(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced(kernel_replacement(30), prose_before="Interchanged the loops."),
            fenced(kernel_replacement(60), prose_before="Tiled the loop."),
            fenced(kernel_replacement(45)),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=3)
        last_context = trace.iterations[2].context_sent
        assert "iter 1:" in last_context
        assert "iter 2:" in last_context
        assert last_context.index("iter 2:") < last_context.index("iter 1:")
        assert "Interchanged the loops." in last_context

    def test_iteration_source_snapshots(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([fenced(kernel_replacement(30))])
        run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=1)
        snapshot = tmp_path / "w" / "loopy" / "agent" / "iter1" / "src" / "main.c"
        assert snapshot.exists()
        assert "30L" in snapshot.read_text()
        assert "setup" in snapshot.read_text()


class TestStops:
    def test_decline_sentinel_consumes_slot(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced(kernel_replacement(50)),
            "NO FURTHER OPTIMIZATIONS",
            fenced(kernel_replacement(30)),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=3)
        assert trace.stop_reason is ag.StopReason.MODEL_DECLINED
        assert len(trace.iterations) == 2
        assert trace.iterations[1].category is Cat.NO_GENERATED_CODE
        assert trace.best_iteration == 1

    def test_decline_by_affirmation_without_code(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            "There are no further optimizations that would help this kernel."
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=3)
        assert trace.stop_reason is ag.StopReason.MODEL_DECLINED
        assert len(trace.iterations) == 1
        assert trace.best_iteration is None

    def test_max_iterations_cap(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([fenced(kernel_replacement(ms)) for ms in (90, 80, 70, 60, 50)])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=2)
        assert len(trace.iterations) == 2
        assert trace.stop_reason is ag.StopReason.THRESHOLD_REACHED

    @pytest.mark.parametrize("source", ["none", "ignores_binary", "reads_binary"])
    def test_baseline_build_failure(self, tmp_path, toolchain_config, source):
        write_bench(tmp_path / "b", "broken", {"main.c": SYNTAX_ERROR})
        spec = load_single(tmp_path / "b", "broken")
        with pytest.raises(ag.BaselineBuildFailed):
            run(spec, replay([]), toolchain_config, tmp_path / "w",
                profile_source=PROFILE_SOURCES[source])
        assert not tc._unjoined

    @pytest.mark.parametrize("source", ["none", "ignores_binary", "reads_binary"])
    def test_baseline_run_failure(self, tmp_path, toolchain_config, source):
        write_bench(tmp_path / "b", "crashy", {"main.c": CRASH_MAIN})
        spec = load_single(tmp_path / "b", "crashy")
        with pytest.raises(ag.BaselineRunFailed):
            run(spec, replay([]), toolchain_config, tmp_path / "w",
                profile_source=PROFILE_SOURCES[source])
        assert not tc._unjoined


class TestFailedIterations:
    def test_compile_error_consumes_slot_and_base_stays(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced("void kernel(void) { this is not c code }"),
            fenced(kernel_replacement(40)),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=2)
        assert trace.iterations[0].category is Cat.COMPILATION_ERROR
        assert trace.iterations[1].category is Cat.CORRECT
        assert "100L" in trace.iterations[1].context_sent
        assert trace.best_iteration == 2

    def test_crash_is_output_mismatch_and_never_base(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced("void kernel(void) { __builtin_trap(); }"),
            fenced(kernel_replacement(40)),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=2)
        first = trace.iterations[0]
        assert first.category is Cat.OUTPUT_MISMATCH
        assert first.run is not None and first.run.crashed
        assert first.speedup_vs_original is None
        assert "100L" in trace.iterations[1].context_sent

    def test_prose_only_reply_is_no_generated_code(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            "Consider using a faster machine.",
            fenced(kernel_replacement(40)),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=2)
        assert trace.iterations[0].category is Cat.NO_GENERATED_CODE
        assert trace.iterations[1].category is Cat.CORRECT

    def test_truncated_fence_is_no_generated_code(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay(["```c\nvoid kernel(void) {\n"])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=1)
        assert trace.iterations[0].category is Cat.NO_GENERATED_CODE

    def test_new_print_kind_is_flagged(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced('void kernel(void) { puts("fast!"); }'),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=1)
        record = trace.iterations[0]
        assert record.category is Cat.FAILED_TO_FOLLOW_INSTRUCTIONS
        assert "AddedPrintStatement" in record.note

    def test_renamed_hotspot_is_flagged(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([fenced("void kernel_fast(void) { }")])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=1)
        record = trace.iterations[0]
        assert record.category is Cat.FAILED_TO_FOLLOW_INSTRUCTIONS
        assert "kernel" in record.note

    def test_provider_error_records_iteration(self, tmp_path, toolchain_config):
        class FlakyProvider(gw.Provider):
            provider_id = "flaky"

            def __init__(self):
                self.calls = 0

            def complete(self, messages):
                self.calls += 1
                if self.calls == 1:
                    raise gw.QuotaExceeded("try later")
                return gw.ModelResponse(
                    fenced(kernel_replacement(40)), self.provider_id, 0.0
                )

        spec = hotspot_bench(tmp_path / "b")
        trace = run(spec, FlakyProvider(), toolchain_config, tmp_path / "w",
                    max_iterations=2)
        assert trace.iterations[0].category is Cat.NO_GENERATED_CODE
        assert "provider error" in trace.iterations[0].note
        assert trace.iterations[1].category is Cat.CORRECT

    def test_exhausted_transcript_burns_remaining_slots(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([fenced(kernel_replacement(40))])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=3)
        assert [r.category for r in trace.iterations] == [
            Cat.CORRECT, Cat.NO_GENERATED_CODE, Cat.NO_GENERATED_CODE,
        ]
        assert trace.stop_reason is ag.StopReason.THRESHOLD_REACHED


def two_node_tree(kernel_excl, extra_metrics=None):
    metrics = {"time_excl": kernel_excl}
    metrics.update(extra_metrics or {})
    catalog = [{"id": "time_excl", "unit": "s", "kind": "Exclusive"}]
    for metric_id in (extra_metrics or {}):
        catalog.append({"id": metric_id, "unit": "1", "kind": "Exclusive"})
    doc = {
        "schema": "cct-v1",
        "metrics": catalog,
        "roots": [{
            "frame": {"fn": "main", "file": "main.c", "line": 30},
            "metrics": {"time_excl": 0.02},
            "children": [{
                "frame": {"fn": "kernel", "file": "main.c", "line": 12},
                "metrics": metrics,
                "children": [],
            }],
        }],
    }
    return pr.import_profile(json.dumps(doc))


def ignores_binary(request):
    """A profile source serving a saved tree; it never opens the binary."""
    return two_node_tree(0.100)


def reads_binary(request):
    """A profile source that opens the binary, as a real profiler does."""
    with open(request.binary_path, "rb"):
        return two_node_tree(0.100)


PROFILE_SOURCES = {"none": None, "ignores_binary": ignores_binary, "reads_binary": reads_binary}


class TestOriginalBesideCandidate:
    """The original builds while the first request is answered and the
    first candidate compiles, and is joined and timed only when needed."""

    def test_original_and_first_candidate_builds_overlap(self, tmp_path, toolchain_config):
        builds = tmp_path / "builds.log"
        wrapped = slow_original_gcc(tmp_path, toolchain_config, builds)
        spec = hotspot_bench(tmp_path / "b", kernel_ms=30)
        trace = run(spec, replay([fenced(kernel_replacement(10))]), wrapped, tmp_path / "w",
                    profile_source=ignores_binary, max_iterations=1)

        assert trace.iterations[0].category is Cat.CORRECT
        assert_candidate_built_beside_original(builds)

    def test_escaping_error_kills_the_original_build(self, tmp_path, toolchain_config):
        pids = tmp_path / "base.pid"
        wrapped = wrapped_gcc(tmp_path, toolchain_config, hang_build(pids, "/agent/base/"))

        class FailsWhileBuilding(gw.Provider):
            provider_id = "flaky"

            def complete(self, messages):
                wait_for_pids(pids)
                raise RuntimeError("provider bug")

        spec = hotspot_bench(tmp_path / "b", kernel_ms=30)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="provider bug"):
            run(spec, FailsWhileBuilding(), wrapped, tmp_path / "w",
                profile_source=ignores_binary)
        assert time.perf_counter() - start < 10.0
        assert_reaped(pids)

    def test_fallback_tree_times_the_original_before_the_first_request(
        self, tmp_path, toolchain_config, monkeypatch,
    ):
        fallback_means = []
        fallback_tree = ag._fallback_tree

        def recording_fallback(spec, hotspot_name, mean_s):
            fallback_means.append(mean_s)
            return fallback_tree(spec, hotspot_name, mean_s)

        class JoinedProvider(gw.Provider):
            """Replies in turn and records whether every build was joined."""

            provider_id = "joined"

            def __init__(self, texts):
                self.texts = list(texts)
                self.joined = []

            def complete(self, messages):
                self.joined.append(not tc._unjoined)
                return gw.ModelResponse(self.texts.pop(0), self.provider_id, 0.0)

        monkeypatch.setattr(ag, "_fallback_tree", recording_fallback)
        spec = hotspot_bench(tmp_path / "b", kernel_ms=30)
        provider = JoinedProvider([
            fenced(kernel_replacement(10)),
            fenced("void kernel(void) { this is not c code }"),
            "Consider using a faster machine.",
            fenced('void kernel(void) { puts("fast!"); }'),
            fenced("void kernel(void) { __builtin_trap(); }"),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=5)

        assert provider.joined[0]
        assert fallback_means[0] == trace.baseline.mean_s
        assert fallback_means[1] == trace.iterations[0].run.mean_s
        assert [r.category for r in trace.iterations] == [
            Cat.CORRECT, Cat.COMPILATION_ERROR, Cat.NO_GENERATED_CODE,
            Cat.FAILED_TO_FOLLOW_INSTRUCTIONS, Cat.OUTPUT_MISMATCH,
        ]

    def test_source_reading_the_original_gets_an_executable(self, tmp_path, toolchain_config):
        seen = {}

        def source(request):
            path = request.binary_path
            seen[request.variant_tag] = (path, path.is_file() and os.access(path, os.X_OK))
            return two_node_tree(0.100)

        spec = hotspot_bench(tmp_path / "b", kernel_ms=30)
        trace = run(spec, replay([fenced(kernel_replacement(10))]), toolchain_config,
                    tmp_path / "w", profile_source=source, max_iterations=1)

        assert trace.iterations[0].category is Cat.CORRECT
        base = tc.variant_dir(tmp_path / "w", "loopy", "agent/base") / "bin" / "loopy"
        assert seen["agent/base"] == (base, True)
        assert seen["agent/iter1"][1]


class TestPrep:
    def test_strip_omp_pragmas_applies_to_the_agent(self, tmp_path, toolchain_config):
        # Without -fopenmp this pragma fails the build, so the original
        # builds only from the prepared sources.
        source = hotspot_program(30).replace(
            "    nanosleep(&ts, 0);\n}\n\nint main", "    #pragma omp critical\n"
            "    nanosleep(&ts, 0);\n}\n\nint main",
        )
        assert "#pragma omp" in source
        write_bench(
            tmp_path / "b", "pragmatic", {"main.c": source},
            entry_hotspot="kernel",
            build={"flags": ["-O0", "-Werror=unknown-pragmas"]},
            run={"repetitions": 2},
            prep={"strip_omp_pragmas": True},
        )
        spec = load_single(tmp_path / "b", "pragmatic")
        trace = run(spec, replay([fenced(kernel_replacement(10))]), toolchain_config,
                    tmp_path / "w", max_iterations=1)

        assert trace.baseline.ok
        assert trace.iterations[0].category is Cat.CORRECT
        assert "kernel" in trace.iterations[0].context_sent
        assert "#pragma" not in trace.iterations[0].context_sent


class TestProfileWiring:
    def test_callback_requests_and_delta(self, tmp_path, toolchain_config):
        calls = []
        trees = {
            "agent/base": two_node_tree(0.100, {"l1_dcache_miss": 5000.0}),
            "agent/iter1": two_node_tree(0.030, {"l1_dcache_miss": 2000.0}),
        }

        def source(request):
            calls.append(request)
            return trees[request.variant_tag]

        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced(
                kernel_replacement(30),
                prose_after="Please measure L1 cache misses next.",
            ),
        ])
        trace = run(spec, provider, toolchain_config, tmp_path / "w",
                    profile_source=source, max_iterations=1)

        record = trace.iterations[0]
        assert record.requested_metrics == ("l1_dcache_miss",)
        assert [c.variant_tag for c in calls] == ["agent/base", "agent/iter1"]
        assert calls[1].metric_ids == ("l1_dcache_miss",)

        delta = record.profile_delta
        assert delta is not None
        assert delta.path == ("main", "kernel")
        assert delta.entries["time_excl"].before == 0.100
        assert delta.entries["time_excl"].after == 0.030
        assert delta.entries["l1_dcache_miss"].relative_change == pytest.approx(-0.6)

    def test_summary_in_context_uses_profile(self, tmp_path, toolchain_config):
        def source(request):
            return two_node_tree(0.100)

        spec = hotspot_bench(tmp_path / "b")
        provider = replay([fenced(kernel_replacement(30))])
        trace = run(spec, provider, toolchain_config, tmp_path / "w",
                    profile_source=source, max_iterations=1)
        context = trace.iterations[0].context_sent
        assert "kernel at main.c:12" in context
        assert "83.3%" in context  # 0.100 of 0.120

    def test_fixed_metric_policy_ignores_model_request(self, tmp_path, toolchain_config):
        def source(request):
            return two_node_tree(0.100, {"fp_inst": 1.0})

        spec = hotspot_bench(tmp_path / "b")
        provider = replay([
            fenced(kernel_replacement(30), prose_after="Measure L1 cache misses."),
        ])
        trace = run(
            spec, provider, toolchain_config, tmp_path / "w",
            profile_source=source, max_iterations=1,
            metric_request_policy=ag.MetricRequestPolicy.FIXED_SET,
            fixed_metrics=("fp_inst", "not_in_catalog"),
        )
        assert trace.iterations[0].requested_metrics == ("fp_inst",)

    def test_failing_profile_source_falls_back(self, tmp_path, toolchain_config):
        def source(request):
            raise OSError("profiler exploded")

        spec = hotspot_bench(tmp_path / "b")
        provider = replay([fenced(kernel_replacement(30))])
        trace = run(spec, provider, toolchain_config, tmp_path / "w",
                    profile_source=source, max_iterations=1)
        assert trace.iterations[0].category is Cat.CORRECT
        assert "profile source failed" in trace.iterations[0].note


class TestTracePersistence:
    def test_trace_json_written(self, tmp_path, toolchain_config):
        spec = hotspot_bench(tmp_path / "b")
        provider = replay([fenced(kernel_replacement(30)), "NO FURTHER OPTIMIZATIONS"])
        trace = run(spec, provider, toolchain_config, tmp_path / "w", max_iterations=3)

        path = tmp_path / "w" / "loopy" / "agent" / "trace.json"
        doc = json.loads(path.read_text())
        assert doc["benchmark_id"] == "loopy"
        assert doc["stop_reason"] == "ModelDeclined"
        assert doc["best_iteration"] == trace.best_iteration == 1
        assert len(doc["iterations"]) == 2
        assert doc["iterations"][0]["category"] == "Correct"
        assert doc["iterations"][0]["speedup_vs_original"]["speedup"] > 0
        assert doc["iterations"][1]["extraction"]["rule"] == "None"
        assert doc["baseline"]["exit_status"] == 0
        assert len(doc["baseline"]["wall_times_s"]) == 2
        assert doc["baseline"]["stdout_sha256"] == hashlib.sha256(
            trace.baseline.stdout).hexdigest()
        assert doc["baseline"]["stdout_bytes"] == len(trace.baseline.stdout) > 0
        assert doc["iterations"][1]["run"] is None

    def test_large_output_is_stored_as_a_digest(self, tmp_path, toolchain_config, monkeypatch):
        printing_kernel = (
            "void kernel(void) {\n"
            "    for (int i = 0; i < 200000; i++) printf(\"%06d\\n\", i);\n"
            "}"
        )
        source = ("#include <stdio.h>\n\n" + printing_kernel
                  + "\n\nint main(void) {\n    kernel();\n    return 0;\n}\n")
        write_bench(tmp_path / "b", "chatty", {"main.c": source}, entry_hotspot="kernel",
                    build={"flags": ["-O0"]}, run={"repetitions": 1})
        spec = load_single(tmp_path / "b", "chatty")
        trace = run(spec, replay([fenced(printing_kernel)]), toolchain_config,
                    tmp_path / "w", max_iterations=1)

        assert trace.iterations[0].category is Cat.CORRECT
        assert len(trace.baseline.stdout) > 1_000_000
        path = tmp_path / "w" / "chatty" / "agent" / "trace.json"
        assert path.stat().st_size < 64 * 1024
        doc = json.loads(path.read_text())
        for run_doc, sample in [(doc["baseline"], trace.baseline),
                                (doc["iterations"][0]["run"], trace.iterations[0].run)]:
            assert run_doc["stdout_sha256"] == hashlib.sha256(sample.stdout).hexdigest()
            assert run_doc["stdout_bytes"] == len(sample.stdout)
            assert "stdout" not in run_doc

        # The iteration printed the original's output, so the two runs hold
        # one bytes object and the trace hashes it once.
        assert trace.iterations[0].run.stdout is trace.baseline.stdout
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(ag.hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
        assert json.loads(json.dumps(ag.trace_to_dict(trace))) == doc
        assert len(hashed) == 1

    def test_replay_is_deterministic_up_to_timing(self, tmp_path, toolchain_config):
        texts = [
            fenced(kernel_replacement(30), prose_before="Interchange."),
            "no more ideas, but here:\n" + fenced(kernel_replacement(60)),
        ]
        spec_a = hotspot_bench(tmp_path / "a")
        spec_b = hotspot_bench(tmp_path / "b")
        trace_a = run(spec_a, replay(texts), toolchain_config, tmp_path / "wa",
                      max_iterations=2)
        trace_b = run(spec_b, replay(texts), toolchain_config, tmp_path / "wb",
                      max_iterations=2)

        assert [r.category for r in trace_a.iterations] == \
               [r.category for r in trace_b.iterations]
        assert [r.extraction for r in trace_a.iterations] == \
               [r.extraction for r in trace_b.iterations]
        assert trace_a.best_iteration == trace_b.best_iteration
        assert trace_a.stop_reason is trace_b.stop_reason
        assert [r.requested_metrics for r in trace_a.iterations] == \
               [r.requested_metrics for r in trace_b.iterations]


class TestConfigValidation:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            ag.AgentConfig(max_iterations=0)

    def test_zero_top_k_rejected(self):
        with pytest.raises(ValueError):
            ag.AgentConfig(top_k_hotspots=0)


CATALOG = {"l1_dcache_miss": None, "fp_inst": None, "time_excl": None,
           "stalled_cycles_frontend": None}


class TestParseMetricRequests:
    def test_l1_alias(self):
        got = ag.parse_metric_requests("please measure L1 cache misses next", CATALOG)
        assert got == ["l1_dcache_miss"]

    def test_empty_text(self):
        assert ag.parse_metric_requests("", CATALOG) == []

    def test_unknown_request_logs_note(self, caplog):
        with caplog.at_level(logging.INFO, logger="perfagent.agent"):
            got = ag.parse_metric_requests("measure quantum flux", CATALOG)
        assert got == []
        assert any("matched nothing" in r.message for r in caplog.records)

    def test_order_follows_text(self):
        text = "first the floating-point instructions, then L1 cache misses"
        got = ag.parse_metric_requests(text, CATALOG)
        assert got == ["fp_inst", "l1_dcache_miss"]

    def test_catalog_id_verbatim(self):
        assert ag.parse_metric_requests("also track time_excl", CATALOG) == ["time_excl"]

    def test_alias_filtered_by_catalog(self):
        assert ag.parse_metric_requests("L1 cache misses", {"fp_inst": None}) == []

    def test_case_insensitive_and_deduplicated(self):
        got = ag.parse_metric_requests("L1 CACHE MISSES and l1 misses", CATALOG)
        assert got == ["l1_dcache_miss"]

    def test_frontend_stalls_alias(self):
        got = ag.parse_metric_requests("check frontend stalled cycles", CATALOG)
        assert got == ["stalled_cycles_frontend"]


def make_record(index, category=Cat.CORRECT, speedup=None, explanation=None):
    extraction = gw.ExtractionResult(
        code="int x;" if category is not Cat.NO_GENERATED_CODE else None,
        explanation=explanation,
        extraction_rule_fired=gw.ExtractionRule.FENCED_BLOCK,
    )
    stat = None
    if speedup is not None:
        stat = tc.SpeedupStat(25.0, 25.0 / speedup, speedup)
    return ag.IterationRecord(
        index=index,
        context_sent="",
        response=gw.ModelResponse("", "p", 0.0),
        extraction=extraction,
        category=category,
        speedup_vs_original=stat,
    )


class TestMemoryDigest:
    def test_empty_is_empty(self):
        assert ag.build_memory_digest([], 500) == ""

    def test_two_records_recent_first(self):
        records = [
            make_record(1, speedup=8.22, explanation="Interchanged the loops\nmore"),
            make_record(2, speedup=4.39, explanation="Tiled the loop nest"),
        ]
        digest = ag.build_memory_digest(records, 500)
        assert "8.22x" in digest
        assert "4.39x" in digest
        assert digest.index("iter 2:") < digest.index("iter 1:")
        assert "Interchanged the loops" in digest
        assert "more" not in digest.splitlines()[1]

    def test_budget_zero_is_marker_only(self):
        records = [make_record(1, speedup=2.0)]
        assert ag.build_memory_digest(records, 0) == ag.MEMORY_MARKER

    def test_category_always_present(self):
        records = [make_record(1, category=Cat.COMPILATION_ERROR)]
        digest = ag.build_memory_digest(records, 500)
        assert "CompilationError" in digest

    def test_budget_respected_with_marker(self):
        records = [
            make_record(i, speedup=1.0 + i / 10, explanation=f"step number {i}")
            for i in range(1, 8)
        ]
        full = ag.build_memory_digest(records, 10_000)
        budget = len(full) // 2
        digest = ag.build_memory_digest(records, budget)
        assert len(digest) <= budget
        assert digest.endswith(ag.MEMORY_MARKER)
        assert "iter 7:" in digest  # most recent survives truncation

    @given(
        count=st.integers(min_value=0, max_value=8),
        budget=st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_never_exceeded_beyond_marker(self, count, budget):
        records = [make_record(i + 1, speedup=1.5) for i in range(count)]
        digest = ag.build_memory_digest(records, budget)
        assert len(digest) <= max(budget, len(ag.MEMORY_MARKER))
        if count == 0:
            assert digest == ""
