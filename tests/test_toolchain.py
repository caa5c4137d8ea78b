"""Tests for builds, timed runs, speedups, and thread sweeps."""

from __future__ import annotations

import math
import os
import signal
import stat
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from perfagent import toolchain as tc
from perfagent.manifest import RunRecipe

import kernels
from conftest import load_single, process_running, write_bench


def _spec(tmp_path, bench_id, files, **overrides):
    write_bench(tmp_path / "suite", bench_id, files, **overrides)
    return load_single(tmp_path / "suite", bench_id)


def test_compile_ok_and_layout(tmp_path, toolchain_config):
    spec = _spec(tmp_path, "mm", {"main.c": kernels.matmul_ijk(32)})
    out = tc.compile(spec, spec.root, toolchain_config, "base", tmp_path / "work")
    assert out.status is tc.BuildStatus.OK
    assert out.binary_path is not None and out.binary_path.exists()
    assert os.access(out.binary_path, os.X_OK)
    assert out.stderr.startswith("$ ")

    vdir = tmp_path / "work" / "mm" / "base"
    assert (vdir / "src" / "main.c").exists()
    assert (vdir / "bin" / "mm").exists()
    assert (vdir / "logs" / "build.log").read_text().startswith("$ ")


def test_compile_error_captures_diagnostics(tmp_path, toolchain_config):
    spec = _spec(tmp_path, "bad", {"main.c": kernels.SYNTAX_ERROR})
    out = tc.compile(spec, spec.root, toolchain_config, "base", tmp_path / "work")
    assert out.status is tc.BuildStatus.COMPILE_ERROR
    assert out.binary_path is None
    assert "error" in out.stderr.lower()


def test_two_compilers_build_distinct_binaries(tmp_path, toolchain_config):
    if "clang" not in toolchain_config.compilers:
        pytest.skip("clang not available")
    gcc_spec = _spec(tmp_path, "mm", {"main.c": kernels.matmul_ijk(32)})
    clang_spec = _spec(
        tmp_path / "other", "mm", {"main.c": kernels.matmul_ijk(32)},
        build={"compiler_id": "clang"},
    )
    a = tc.compile(gcc_spec, gcc_spec.root, toolchain_config, "gcc-build", tmp_path / "work")
    b = tc.compile(clang_spec, clang_spec.root, toolchain_config, "clang-build", tmp_path / "work")
    assert a.status is tc.BuildStatus.OK and b.status is tc.BuildStatus.OK
    assert a.binary_path != b.binary_path


def test_compile_twice_same_status(tmp_path, toolchain_config):
    spec = _spec(tmp_path, "mm", {"main.c": kernels.matmul_ijk(32)})
    a = tc.compile(spec, spec.root, toolchain_config, "v1", tmp_path / "work")
    b = tc.compile(spec, spec.root, toolchain_config, "v2", tmp_path / "work")
    assert a.status == b.status


def test_unknown_compiler_id(tmp_path, toolchain_config):
    spec = _spec(tmp_path, "mm", {"main.c": kernels.matmul_ijk(32)},
                 build={"compiler_id": "icx"})
    with pytest.raises(tc.ToolNotFound):
        tc.compile(spec, spec.root, toolchain_config, "base", tmp_path / "work")


def _build(tmp_path, toolchain_config, source, bench_id="fix", **overrides):
    spec = _spec(tmp_path, bench_id, {"main.c": source}, **overrides)
    out = tc.compile(spec, spec.root, toolchain_config, "base", tmp_path / "work")
    assert out.status is tc.BuildStatus.OK, out.stderr
    return spec, out.binary_path


def test_run_timed_sleep_lower_bound(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.SLEEP_FRACTION)
    sample = tc.run_timed(binary, RunRecipe(repetitions=3, timeout_s=10))
    assert sample.ok
    assert len(sample.wall_times_s) == 3
    assert all(t >= 0.1 for t in sample.wall_times_s)
    assert sample.stdout == b"slept\n"


def test_run_timed_sets_thread_env(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.ENV_ECHO)
    sample = tc.run_timed(binary, RunRecipe(repetitions=1, timeout_s=10), thread_count=8)
    assert sample.stdout == b"threads=8\n"
    assert sample.thread_count == 8


_ENV_LOG = """\
#include <stdio.h>
#include <stdlib.h>

static const char *get(const char *name) {
    const char *v = getenv(name);
    return v ? v : "unset";
}

int main(void) {
    FILE *log = fopen("env.log", "a");
    if (!log) return 1;
    fprintf(log, "%s %s %s\\n", get("PERFAGENT_TEST_INHERITED"),
            get("PERFAGENT_TEST_RUN"), get("OMP_NUM_THREADS"));
    return fclose(log) != 0;
}
"""


@pytest.mark.parametrize(
    "run_env, thread_count, expected",
    [
        ((), None, "inherited unset unset"),
        ((("PERFAGENT_TEST_RUN", "from-run"),), None, "inherited from-run unset"),
        ((("PERFAGENT_TEST_RUN", "from-run"),), 2, "inherited from-run 2"),
        ((), 3, "inherited unset 3"),
    ],
)
def test_run_timed_env_reaches_every_repetition(
    tmp_path, toolchain_config, monkeypatch, run_env, thread_count, expected
):
    monkeypatch.setenv("PERFAGENT_TEST_INHERITED", "inherited")
    monkeypatch.delenv("PERFAGENT_TEST_RUN", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    spec, binary = _build(tmp_path, toolchain_config, _ENV_LOG)
    sample = tc.run_timed(
        binary, RunRecipe(repetitions=3, timeout_s=10, env=run_env), thread_count=thread_count
    )
    assert sample.ok, sample.stderr
    log = binary.parent.parent / "src" / "env.log"
    assert log.read_text().splitlines() == [expected] * 3


def test_run_timed_records_crash(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.EXIT_NONZERO)
    sample = tc.run_timed(binary, RunRecipe(repetitions=3, timeout_s=10))
    assert sample.crashed
    assert sample.exit_status == 3
    assert not sample.ok
    assert sample.wall_times_s == ()
    assert sample.stdout == b"partial\n"


def test_run_timed_records_timeout(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.SLEEP_5S)
    sample = tc.run_timed(binary, RunRecipe(repetitions=2, timeout_s=0.3))
    assert sample.timed_out
    assert not sample.ok
    assert sample.wall_times_s == ()


def test_measure_speedup_known_ratios():
    baseline = tc.RunSample((25.00,), b"", b"", 0)
    fast = tc.RunSample((4.58,), b"", b"", 0)
    faster = tc.RunSample((3.04,), b"", b"", 0)

    s1 = tc.measure_speedup(baseline, fast)
    assert math.isclose(s1.speedup, 25.00 / 4.58, rel_tol=0, abs_tol=1e-9)
    assert f"{s1.speedup:.2f}" == "5.46"

    s2 = tc.measure_speedup(baseline, faster)
    assert math.isclose(s2.speedup, 25.00 / 3.04, rel_tol=0, abs_tol=1e-9)
    assert f"{s2.speedup:.2f}" == "8.22"


def test_self_speedup_is_exactly_one():
    sample = tc.RunSample((1.25, 1.3, 1.2), b"", b"", 0)
    assert tc.measure_speedup(sample, sample).speedup == 1.0


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=10),
    b=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=10),
)
def test_speedup_antisymmetry(a, b):
    sa = tc.RunSample(tuple(a), b"", b"", 0)
    sb = tc.RunSample(tuple(b), b"", b"", 0)
    forward = tc.measure_speedup(sa, sb).speedup
    backward = tc.measure_speedup(sb, sa).speedup
    assert abs(forward * backward - 1.0) < 1e-12


def test_empty_sample_rejected():
    empty = tc.RunSample((), b"", b"", 1)
    full = tc.RunSample((1.0,), b"", b"", 0)
    with pytest.raises(tc.EmptySample):
        tc.measure_speedup(empty, full)
    with pytest.raises(tc.EmptySample):
        tc.measure_speedup(full, empty)


def test_thread_sweep_keys_and_order(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.ENV_ECHO)
    recipe = RunRecipe(repetitions=1, timeout_s=10)
    results = tc.thread_sweep(binary, recipe, [16, 4, 32, 8])
    assert list(results) == [4, 8, 16, 32]
    for count, sample in results.items():
        assert sample.stdout == f"threads={count}\n".encode()


def test_thread_sweep_single_count_matches_run_timed(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.sleeper(10))
    recipe = RunRecipe(repetitions=2, timeout_s=10)
    swept = tc.thread_sweep(binary, recipe, [1])
    assert list(swept) == [1]
    assert swept[1].ok and len(swept[1].wall_times_s) == 2


def test_thread_sweep_isolates_failing_count(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.CRASH_IF_8_THREADS)
    recipe = RunRecipe(repetitions=1, timeout_s=10)
    results = tc.thread_sweep(binary, recipe, [4, 8, 16])
    assert results[4].ok
    assert results[8].crashed and results[8].exit_status == 9
    assert results[16].ok


def test_thread_sweep_validates_counts(tmp_path):
    with pytest.raises(ValueError):
        tc.thread_sweep("/bin/true", RunRecipe(), [])
    with pytest.raises(ValueError):
        tc.thread_sweep("/bin/true", RunRecipe(), [0, 4])


def test_run_timed_large_stdout_byte_exact(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.BIG_OUTPUT)
    sample = tc.run_timed(binary, RunRecipe(repetitions=2, timeout_s=30))
    assert sample.ok and len(sample.wall_times_s) == 2
    assert len(sample.stdout) >= 1_000_000
    assert sample.stdout == kernels.BIG_OUTPUT_BYTES


def test_run_timed_keeps_first_stdout_when_second_crashes(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.COUNTED_RUNS)
    sample = tc.run_timed(binary, RunRecipe(args=("2",), repetitions=3, timeout_s=10))
    assert sample.crashed and sample.exit_status == 5
    assert len(sample.wall_times_s) == 1
    assert sample.stdout == b"run 1\n"
    assert sample.stderr == b"err 2\n"


def test_run_timed_stderr_is_last_repetitions(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.COUNTED_RUNS)
    sample = tc.run_timed(binary, RunRecipe(repetitions=3, timeout_s=10))
    assert sample.ok and len(sample.wall_times_s) == 3
    assert sample.stdout == b"run 1\n"
    assert sample.stderr == b"err 3\n"


def test_run_timed_feeds_stdin_to_every_repetition(tmp_path, toolchain_config):
    text = "4 8 15\n16 23 42\n"
    spec, binary = _build(tmp_path, toolchain_config, kernels.STDIN_ECHO)
    data = tmp_path / "input.txt"
    data.write_text(text)
    sample = tc.run_timed(binary, RunRecipe(repetitions=2, timeout_s=10, stdin_file=str(data)))
    assert sample.ok
    assert sample.stdout == text.encode()
    assert sample.stderr == text.encode()


def test_run_timed_timeout_returns_promptly(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.SLEEP_5S)
    start = time.perf_counter()
    sample = tc.run_timed(binary, RunRecipe(repetitions=2, timeout_s=0.3))
    assert time.perf_counter() - start < 0.3 + 1.0
    assert sample.timed_out
    assert sample.stdout == b""


def test_run_timed_earlier_deadline_is_kept(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.SLEEP_5S)
    assert tc.run_timed("/bin/true", RunRecipe(repetitions=1, timeout_s=60)).ok
    start = time.perf_counter()
    sample = tc.run_timed(binary, RunRecipe(repetitions=1, timeout_s=0.3))
    assert time.perf_counter() - start < 0.3 + 1.0
    assert sample.timed_out


def test_run_timed_earlier_deadline_kills_nothing_later(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.SLEEP_FRACTION)
    # The 0.1 s repetition keeps the watchdog armed until it has seen the
    # 0.3 s deadline, which then passes during the next call.
    assert tc.run_timed(binary, RunRecipe(repetitions=1, timeout_s=0.3)).ok
    sample = tc.run_timed(binary, RunRecipe(repetitions=3, timeout_s=10))
    assert sample.ok and len(sample.wall_times_s) == 3


def test_run_timed_from_many_threads_times_out_only_the_sleeper(tmp_path, toolchain_config):
    """Threads outnumbering the CPUs share the one watchdog: every
    sleeper times out, and no deadline is applied to another run."""
    spec, sleeper = _build(tmp_path, toolchain_config, kernels.SLEEP_5S)
    quick_runs: list[tc.RunSample] = []
    sleeper_runs: list[tc.RunSample] = []

    def sleep() -> None:
        for _ in range(3):
            sleeper_runs.append(tc.run_timed(sleeper, RunRecipe(repetitions=1, timeout_s=0.2)))

    def quick(timeout_s: float) -> None:
        # Outlasts the sleeper, so deadlines also pass while quick runs alone.
        while time.monotonic() < stop:
            quick_runs.append(
                tc.run_timed("/bin/true", RunRecipe(repetitions=3, timeout_s=timeout_s)))

    stop = time.monotonic() + 1.5
    threads = [threading.Thread(target=sleep)]
    threads += [threading.Thread(target=quick, args=(t,)) for t in (0.3, 1.0, 30.0)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(sleeper_runs) == 3 and all(s.timed_out for s in sleeper_runs)
    assert quick_runs and all(s.ok for s in quick_runs)


def test_run_timed_timeout_kills_grandchildren(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.FORK_AND_SLEEP)
    sample = tc.run_timed(binary, RunRecipe(repetitions=1, timeout_s=0.5))
    assert sample.timed_out
    pid_file = binary.parent.parent / "src" / "grandchild.pid"
    assert pid_file.exists(), "the grandchild never wrote its pid"
    pid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 1.0
        while process_running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not process_running(pid), f"grandchild {pid} outlived the timeout"
    finally:
        if process_running(pid):
            os.kill(pid, signal.SIGKILL)


def _fake_compiler(tmp_path: Path, body: str) -> tc.ToolchainConfig:
    """A toolchain whose "gcc" is the shell script ``body``."""
    script = tmp_path / "fake-cc"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    info = tc.CompilerInfo(str(script), str(script), "fake")
    return tc.ToolchainConfig(compilers={"gcc": info}, default_flags={})


def test_build_timeout_kills_the_compiler_process_group(tmp_path):
    pids = tmp_path / "sleepers.pid"
    # Like a gcc driver whose cc1 and as outlive it: both sleepers are
    # children of the shell that the build starts.
    fake = _fake_compiler(
        tmp_path,
        f'sleep 4.37 & echo $! >> "{pids}"\n'
        f'sleep 4.37 & echo $! >> "{pids}"\n'
        "wait\n",
    )
    spec = _spec(tmp_path, "slow", {"main.c": kernels.sleeper(0)}, build={"timeout_s": 0.5})
    start = time.perf_counter()
    with pytest.raises(tc.BuildTimeout):
        tc.compile(spec, spec.root, fake, "base", tmp_path / "work")
    assert time.perf_counter() - start < 0.5 + 1.0
    sleepers = [int(line) for line in pids.read_text().split()]
    assert len(sleepers) == 2
    try:
        time.sleep(0.2)
        assert not any(process_running(pid) for pid in sleepers), "a compiler child outlived the timeout"
    finally:
        for pid in sleepers:
            if process_running(pid):
                os.kill(pid, signal.SIGKILL)


def test_build_joined_after_its_deadline_is_not_a_timeout(tmp_path, toolchain_config):
    spec = _spec(tmp_path, "quick", {"main.c": kernels.sleeper(0)}, build={"timeout_s": 0.5})
    build = tc.start_compile(spec, spec.root, toolchain_config, "base", tmp_path / "work")
    time.sleep(1.0)
    out = build.wait()
    assert out.status is tc.BuildStatus.OK, out.stderr
    assert tc.run_timed(out.binary_path, RunRecipe(repetitions=1, timeout_s=10)).ok


def test_large_diagnostics_joined_late_are_kept_whole(tmp_path):
    # 2000 lines of 60 bytes: more than a 64 KiB pipe could hold unread.
    fake = _fake_compiler(
        tmp_path,
        "i=1000\n"
        "while [ $i -lt 3000 ]; do\n"
        '  echo "main.c:$i:1: warning: diagnostic number $i, padded out to sixty" >&2\n'
        "  i=$((i + 1))\n"
        "done\n"
        "exit 1\n",
    )
    spec = _spec(tmp_path, "noisy", {"main.c": kernels.sleeper(0)})
    build = tc.start_compile(spec, spec.root, fake, "base", tmp_path / "work")
    time.sleep(0.5)
    out = build.wait()
    assert out.status is tc.BuildStatus.COMPILE_ERROR
    command, diagnostics = out.stderr.split("\n", 1)
    assert command.startswith("$ ")
    expected = "".join(
        f"main.c:{i}:1: warning: diagnostic number {i}, padded out to sixty\n"
        for i in range(1000, 3000)
    )
    assert len(expected) > 64 * 1024
    assert diagnostics == expected
    assert (tmp_path / "work" / "noisy" / "base" / "logs" / "build.log").read_text() == out.stderr


def test_run_timed_refuses_while_a_build_is_unjoined(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.sleeper(0))
    build = tc.start_compile(spec, spec.root, toolchain_config, "pending", tmp_path / "work")
    try:
        with pytest.raises(tc.ToolchainError):
            tc.run_timed(binary, RunRecipe(repetitions=1, timeout_s=10))
    finally:
        assert build.wait().ok
    assert tc.run_timed(binary, RunRecipe(repetitions=1, timeout_s=10)).ok


def test_kill_after_a_timed_out_join_does_nothing(tmp_path):
    fake = _fake_compiler(tmp_path, "exec sleep 5\n")
    spec = _spec(tmp_path, "hang", {"main.c": kernels.sleeper(0)}, build={"timeout_s": 0.3})
    build = tc.start_compile(spec, spec.root, fake, "base", tmp_path / "work")
    with pytest.raises(tc.BuildTimeout):
        build.wait()
    build.kill()
    assert tc.run_timed("/bin/true", RunRecipe(repetitions=1, timeout_s=10)).ok
