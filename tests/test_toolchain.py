"""Tests for builds, timed runs, speedups, and thread sweeps."""

from __future__ import annotations

import ast
import hashlib
import importlib
import json
import math
import os
import re
import shutil
import signal
import stat
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from perfagent import toolchain as tc
from perfagent.manifest import RunRecipe

import kernels
from conftest import (
    file_output, load_single, open_fds, process_running, wrapped_gcc, write_bench,
)


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


def test_start_compile_lays_code_and_overlay_over_a_fresh_copy(tmp_path, toolchain_config):
    """src/ is the given tree with ``code`` written over one file and the
    overlay laid over that; a file an earlier build left there is gone,
    and the given tree is not touched."""
    main = (
        '#include "lib/value.h"\n#include <stdio.h>\n'
        'int main(void) { printf("%d\\n", VALUE); return 0; }\n'
    )
    spec = _spec(tmp_path, "lay", {
        "main.c": "#error not this one\n", "lib/value.h": "#define VALUE 1\n",
        "data/keep.txt": "keep\n",
    })
    overlay = tmp_path / "overlay"
    (overlay / "lib").mkdir(parents=True)
    (overlay / "lib" / "value.h").write_text("#define VALUE 7\n")
    (overlay / "data" / "new").mkdir(parents=True)
    (overlay / "data" / "new" / "added.txt").write_text("added\n")
    vsrc = tmp_path / "work" / "lay" / "cand" / "src"
    vsrc.mkdir(parents=True)
    (vsrc / "stale.txt").write_text("from an earlier build\n")
    before = {p: p.read_bytes() for p in spec.root.rglob("*") if p.is_file()}

    out = tc.start_compile(spec, spec.root, toolchain_config, "cand", tmp_path / "work",
                           code=("main.c", main), overlay=overlay).wait()
    assert out.status is tc.BuildStatus.OK, out.stderr
    assert sorted(str(p.relative_to(vsrc)) for p in vsrc.rglob("*") if p.is_file()) == [
        "bench.json", "data/keep.txt", "data/new/added.txt", "lib/value.h", "main.c",
    ]
    assert (vsrc / "main.c").read_text() == main
    assert (vsrc / "lib" / "value.h").read_text() == "#define VALUE 7\n"
    assert tc.run_timed(out.binary_path, RunRecipe(repetitions=1)).stdout == b"7\n"
    assert {p: p.read_bytes() for p in spec.root.rglob("*") if p.is_file()} == before


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



def test_compiler_that_cannot_be_started_is_named(tmp_path):
    """A compiler file that is not executable, or is missing, is reported
    by its path and the OS error; neither is ToolNotFound."""
    wrapper = tmp_path / "cc"
    wrapper.write_text('#!/bin/sh\nexec gcc "$@"\n')
    wrapper.chmod(0o644)
    config = tmp_path / "toolchain.json"
    config.write_text(json.dumps({"compilers": {"gcc": {
        "c_path": str(wrapper), "version_string": "wrapped gcc",
    }}}))
    spec = _spec(tmp_path, "mm", {"main.c": kernels.matmul_ijk(32)})
    with pytest.raises(tc.ToolchainError) as failure:
        tc.compile(spec, spec.root, tc.load(config), "base", tmp_path / "work")
    assert not isinstance(failure.value, tc.ToolNotFound)
    assert str(failure.value) == f"cannot run compiler {wrapper}: Permission denied"
    wrapper.unlink()
    with pytest.raises(tc.ToolchainError) as failure:
        tc.compile(spec, spec.root, tc.load(config), "base", tmp_path / "work")
    assert not isinstance(failure.value, tc.ToolNotFound)
    assert str(failure.value) == f"cannot run compiler {wrapper}: No such file or directory"


def test_relative_compiler_path_resolves_where_the_toolchain_loads(
    tmp_path, toolchain_config, monkeypatch
):
    """``"c_path": "./cc"`` names the cc of the directory the toolchain
    was loaded in, for its version probe and for builds started later
    from anywhere."""
    launch = tmp_path / "launch"
    launch.mkdir()
    wrapper = launch / "cc"
    wrapper.write_text(f'#!/bin/sh\nexec "{toolchain_config.compilers["gcc"].c_path}" "$@"\n')
    wrapper.chmod(0o755)
    (launch / "toolchain.json").write_text(json.dumps({"compilers": {"gcc": {"c_path": "./cc"}}}))
    spec = _spec(tmp_path, "mm", {"main.c": kernels.sleeper(0)})
    monkeypatch.chdir(launch)
    toolchain = tc.load("toolchain.json")
    info = toolchain.compilers["gcc"]
    wrapper = wrapper.resolve()
    assert info.c_path == info.cxx_path == str(wrapper)
    assert info.version_string == toolchain_config.compilers["gcc"].version_string
    monkeypatch.chdir(tmp_path)
    out = tc.compile(spec, spec.root, toolchain, "base", "work")
    assert out.status is tc.BuildStatus.OK, out.stderr
    assert out.stderr.startswith(f"$ {wrapper} ")


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


def test_run_timed_kills_what_a_repetition_leaves_running(tmp_path, toolchain_config):
    """A child forked by a repetition that exits normally is killed with
    its group before the next repetition, so it neither runs on nor
    writes into the kept output."""
    spec, binary = _build(tmp_path, toolchain_config, kernels.FORK_AND_PRINT_LATE)
    start = time.monotonic()
    sample = tc.run_timed(binary, RunRecipe(repetitions=2, timeout_s=10))
    assert sample.ok
    pid = int(bytes(sample.stdout).split()[1])
    try:
        deadline = time.monotonic() + 1.0
        while process_running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not process_running(pid), f"child {pid} outlived its repetition"
    finally:
        if process_running(pid):
            os.kill(pid, signal.SIGKILL)
    time.sleep(max(0.0, start + 0.6 - time.monotonic()))
    assert not (binary.parent.parent / "src" / "late.marker").exists()
    assert bytes(sample.stdout) == b"leader %d\n" % pid


def test_run_timed_keeps_the_tail_of_stderr(tmp_path, toolchain_config):
    spec, binary = _build(tmp_path, toolchain_config, kernels.STDERR_FLOOD)
    sample = tc.run_timed(binary, RunRecipe(repetitions=1, timeout_s=30))
    assert sample.ok
    flood = b"".join(b"%011d\n" % i for i in range(kernels.STDERR_FLOOD_LINES))
    assert len(flood) > 8_000_000
    assert tc.STDERR_TAIL == 4000
    assert sample.stderr == flood[-4000:]
    assert sample.stderr.endswith(b"%011d\n" % (kernels.STDERR_FLOOD_LINES - 1))


_TAGGED = """\
#include <stdio.h>
#include <unistd.h>

/* Appends its tag to the log, then runs the body, then prints the tag. */
int main(void) {{
    FILE *log = fopen("{log}", "a");
    fprintf(log, "{tag}\\n");
    fclose(log);
{body}
    printf("{tag}\\n");
    return 0;
}}
"""

_CRASH = "    return 7;"
_HANG = "    sleep(5);"
# The child appends "late" to the log 0.3 s after its parent exited.
_FORK = """\
    pid_t pid = fork();
    if (pid == 0) {{
        usleep(300000);
        FILE *late = fopen("{log}", "a");
        fprintf(late, "late\\n");
        fclose(late);
        return 0;
    }}
    printf("child %d\\n", (int)pid);"""


class TestRounds:
    """run_rounds times its arms interleaved, in arm order on even rounds
    and reversed on odd ones; a failing arm leaves the others running."""

    @staticmethod
    def arms(tmp_path, toolchain_config, bodies):
        """One (binary, None) arm per tag in ``bodies``, and the log file."""
        log = tmp_path / "rounds.log"
        arms = []
        for tag, body in bodies.items():
            source = _TAGGED.format(log=log, tag=tag, body=body.format(log=log))
            arms.append((_build(tmp_path, toolchain_config, source, bench_id=tag.lower())[1], None))
        return arms, log

    def test_order_alternates_between_rounds(self, tmp_path, toolchain_config):
        arms, log = self.arms(tmp_path, toolchain_config, {"A": "", "B": "", "C": ""})
        samples = tc.run_rounds(arms, RunRecipe(repetitions=3, timeout_s=10))
        assert log.read_text().split() == ["A", "B", "C", "C", "B", "A", "A", "B", "C"]
        assert [bytes(s.stdout) for s in samples] == [b"A\n", b"B\n", b"C\n"]
        assert all(s.ok and len(s.wall_times_s) == 3 for s in samples)

        log.unlink()
        tc.run_rounds(arms[:2], RunRecipe(repetitions=3, timeout_s=10))
        assert log.read_text().split() == ["A", "B", "B", "A", "A", "B"]

    def test_crash_drops_only_that_arm(self, tmp_path, toolchain_config):
        arms, log = self.arms(tmp_path, toolchain_config, {"A": "", "B": _CRASH, "C": ""})
        a, b, c = tc.run_rounds(arms, RunRecipe(repetitions=3, timeout_s=10))
        assert log.read_text().split() == ["A", "B", "C", "C", "A", "A", "C"]
        assert b.crashed and b.exit_status == 7 and b.wall_times_s == ()
        assert b.stdout == b""
        assert a.ok and c.ok and len(a.wall_times_s) == len(c.wall_times_s) == 3

    def test_timeout_drops_only_that_arm(self, tmp_path, toolchain_config):
        arms, log = self.arms(tmp_path, toolchain_config, {"A": "", "B": _HANG})
        start = time.perf_counter()
        a, b = tc.run_rounds(arms, RunRecipe(repetitions=3, timeout_s=0.3))
        assert time.perf_counter() - start < 0.3 + 1.0
        assert log.read_text().split() == ["A", "B", "A", "A"]
        assert b.timed_out and b.wall_times_s == () and b.stdout == b""
        assert a.ok and len(a.wall_times_s) == 3

    def test_forked_child_dies_with_its_group(self, tmp_path, toolchain_config):
        arms, log = self.arms(tmp_path, toolchain_config, {"A": "", "B": _FORK})
        start = time.monotonic()
        a, b = tc.run_rounds(arms, RunRecipe(repetitions=2, timeout_s=10))
        assert a.ok and b.ok
        pid = int(bytes(b.stdout).split()[1])
        try:
            deadline = time.monotonic() + 1.0
            while process_running(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not process_running(pid), f"child {pid} outlived its repetition"
        finally:
            if process_running(pid):
                os.kill(pid, signal.SIGKILL)
        time.sleep(max(0.0, start + 0.6 - time.monotonic()))
        assert log.read_text().split() == ["A", "B", "B", "A"]

    def test_no_arms_time_nothing(self):
        assert tc.run_rounds([], RunRecipe(repetitions=3)) == []

    def test_an_untimed_do_nothing_spawn_comes_first(self, tmp_path, toolchain_config,
                                                     monkeypatch):
        """The cold-spawn cost falls on a spawn of ``true`` before round 1,
        not on the first repetition, which is always arm 0's."""
        arms, log = self.arms(tmp_path, toolchain_config, {"A": "", "B": ""})
        spawned = []
        real_spawn = tc._spawn

        def spawn(argv, deadline, **kwargs):
            spawned.append(argv)
            if argv == ["true"]:
                time.sleep(0.3)  # would show in any sample that timed it
            return real_spawn(argv, deadline, **kwargs)

        monkeypatch.setattr(tc, "_spawn", spawn)
        a, b = tc.run_rounds(arms, RunRecipe(repetitions=3, timeout_s=10))
        binaries = [str(Path(binary).absolute()) for binary, _ in arms]
        assert spawned[0] == ["true"]
        assert [argv[0] for argv in spawned[1:]] == [*binaries, *binaries[::-1], *binaries]
        assert log.read_text().split() == ["A", "B", "B", "A", "A", "B"]
        assert all(s.ok and len(s.wall_times_s) == 3 for s in (a, b))
        assert max(a.wall_times_s + b.wall_times_s) < 0.3

    def test_keep_stops_the_arms_it_drops_after_the_first_round(self, tmp_path, toolchain_config):
        arms, log = self.arms(tmp_path, toolchain_config, {"A": "", "B": "", "C": "", "D": ""})
        seen = []

        def keep(outputs):
            seen.append(outputs)
            return [True, False, True, True]

        a, b, c, d = tc.run_rounds(arms, RunRecipe(repetitions=4, timeout_s=10), keep)
        # The kept arms alternate as if the dropped one had never been there.
        assert log.read_text().split() == [
            "A", "B", "C", "D", "D", "C", "A", "A", "C", "D", "D", "C", "A",
        ]
        assert len(seen) == 1 and [bytes(out) for out in seen[0]] == [b"A\n", b"B\n", b"C\n", b"D\n"]
        assert b.ok and b.exit_status == 0 and len(b.wall_times_s) == 1
        assert b.stdout is seen[0][1] and b.stdout == b"B\n"
        assert all(s.ok and len(s.wall_times_s) == 4 for s in (a, c, d))

        log.unlink()
        a, b = tc.run_rounds(arms[:2], RunRecipe(repetitions=3, timeout_s=10),
                             lambda outputs: [False, False])
        assert log.read_text().split() == ["A", "B"]
        assert all(s.ok and len(s.wall_times_s) == 1 for s in (a, b))

    def test_keep_sees_none_for_an_arm_that_failed_its_first_run(self, tmp_path, toolchain_config):
        arms, log = self.arms(tmp_path, toolchain_config, {"A": "", "B": _CRASH, "C": _HANG})
        seen = []

        def keep(outputs):
            seen.append(outputs)
            return [True, True, True]  # keeping a failed arm does not revive it

        a, b, c = tc.run_rounds(arms, RunRecipe(repetitions=3, timeout_s=0.3), keep)
        assert len(seen) == 1
        first, crashed, hung = seen[0]
        assert first is a.stdout and crashed is None and hung is None
        assert log.read_text().split() == ["A", "B", "C", "A", "A"]
        assert b.crashed and c.timed_out
        assert a.ok and len(a.wall_times_s) == 3


class TestOutput:
    DATA = b"".join(b"%06d\n" % i for i in range(30000))  # 210 kB, several reads

    @pytest.mark.parametrize("make", [tc.Output, file_output], ids=["bytes", "file"])
    def test_reads(self, make):
        out = make(self.DATA)
        assert len(out) == len(self.DATA)
        assert bytes(out) == self.DATA
        assert out.read(7, 14) == self.DATA[7:14]
        assert out.read(len(self.DATA) - 3, len(self.DATA) + 100) == self.DATA[-3:]
        assert out.read(10, 10) == out.read(len(self.DATA), len(self.DATA) + 5) == b""
        assert out.sha256() == hashlib.sha256(self.DATA).hexdigest()
        assert out == self.DATA and self.DATA == out
        assert out == file_output(self.DATA) and out == tc.Output(self.DATA)
        assert out != self.DATA[:-1] and out != self.DATA[:-1] + b"x"
        assert out != file_output(self.DATA[:-1] + b"x")
        assert out != self.DATA.decode()
        with pytest.raises(TypeError):
            hash(out)

    @pytest.mark.parametrize("make", [tc.Output, file_output], ids=["bytes", "file"])
    def test_closed_output_refuses_reads(self, make):
        out = make(b"abc\n")
        assert not out.closed
        out.close()
        out.close()
        assert out.closed
        with pytest.raises(ValueError):
            out.read()
        assert len(out) == 4

    @pytest.mark.parametrize("make", [tc.Output, file_output], ids=["bytes", "file"])
    def test_digest_outlives_the_file(self, make):
        out = make(self.DATA)
        digest = out.sha256()
        out.close()
        assert out.sha256() == digest == hashlib.sha256(self.DATA).hexdigest()
        unhashed = make(self.DATA)
        unhashed.close()
        with pytest.raises(ValueError):
            unhashed.sha256()

    def test_file_closes_with_its_handle(self):
        before = open_fds()
        out = file_output(self.DATA)
        assert open_fds() == before + 1
        del out
        assert open_fds() == before
        out = file_output(self.DATA)
        out.close()
        assert open_fds() == before

    def test_run_sample_wraps_bytes(self):
        sample = tc.RunSample((1.0,), b"42\n", b"", 0)
        assert isinstance(sample.stdout, tc.Output)
        assert sample.stdout == b"42\n"
        assert sample == tc.RunSample((1.0,), b"42\n", b"", 0)


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
    out = tc.compile(spec, spec.root, fake, "base", tmp_path / "work")
    assert time.perf_counter() - start < 0.5 + 1.0
    assert out.status is tc.BuildStatus.COMPILE_ERROR and out.binary_path is None
    assert out.stderr.startswith("build exceeded 0.5s: " + fake.compilers["gcc"].c_path)
    assert (tmp_path / "work" / "slow" / "base" / "logs" / "build.log").read_text() == out.stderr
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
    assert build.wait().status is tc.BuildStatus.COMPILE_ERROR
    build.kill()
    assert tc.run_timed("/bin/true", RunRecipe(repetitions=1, timeout_s=10)).ok


@pytest.mark.parametrize("main", [kernels.sleeper(0), kernels.SYNTAX_ERROR], ids=["ok", "error"])
def test_joining_twice_gives_one_outcome(tmp_path, toolchain_config, main):
    spec = _spec(tmp_path, "twice", {"main.c": main})
    build = tc.start_compile(spec, spec.root, toolchain_config, "base", tmp_path / "work")
    first = build.wait()
    assert build.wait() is first
    build.kill()
    assert build.wait() is first


def test_joining_a_timed_out_build_twice_gives_one_outcome(tmp_path):
    fake = _fake_compiler(tmp_path, "exec sleep 5\n")
    spec = _spec(tmp_path, "hang", {"main.c": kernels.sleeper(0)}, build={"timeout_s": 0.3})
    build = tc.start_compile(spec, spec.root, fake, "base", tmp_path / "work")
    first = build.wait()
    assert first.stderr.startswith("build exceeded 0.3s: ")
    start = time.perf_counter()
    assert build.wait() is first
    assert time.perf_counter() - start < 0.1


def test_version_probe_leaves_no_child_behind(tmp_path):
    """A compiler whose ``--version`` leaves a child running is read as
    soon as it exits, and the child is killed with its group."""
    pid_file = tmp_path / "sleeper.pid"
    wrapper = tmp_path / "cc"
    wrapper.write_text(
        f'#!/bin/sh\nsleep 3 & echo $! > "{pid_file}"\necho "wrapped cc 1.0"\necho more\n'
    )
    wrapper.chmod(0o755)
    config = tmp_path / "toolchain.json"
    config.write_text(json.dumps({"compilers": {"gcc": {"c_path": str(wrapper)}}}))
    start = time.perf_counter()
    toolchain = tc.load(config)
    assert time.perf_counter() - start < 1.0
    assert toolchain.compilers["gcc"].version_string == "wrapped cc 1.0"
    sleeper = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 1.0
        while process_running(sleeper) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not process_running(sleeper), "the probe's child outlived it"
    finally:
        if process_running(sleeper):
            os.kill(sleeper, signal.SIGKILL)


# Calls that start a child process, by module.
_SPAWNING_CALLS = {
    "subprocess": {"run", "Popen", "call", "check_call", "check_output"},
    "os": {"system", "popen", "fork", "posix_spawn", "posix_spawnp"},
}


class _SpawningCalls(ast.NodeVisitor):
    """Each call of ``_SPAWNING_CALLS`` in a module, with the dotted name
    of the function or class around it."""

    def __init__(self, module: str) -> None:
        self.scope = [module]
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.attr in _SPAWNING_CALLS.get(func.value.id, ())):
            self.found.append((".".join(self.scope), f"{func.value.id}.{func.attr}"))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in _SPAWNING_CALLS.get(node.module, ()):
                self.found.append((".".join(self.scope), f"from {node.module} import {alias.name}"))


def test_only_spawn_starts_a_child():
    """Every child of the package is started by ``toolchain._spawn``, so
    its session, watchdog and any limit on children are set in one place."""
    found = []
    for path in sorted(Path(tc.__file__).parent.glob("*.py")):
        calls = _SpawningCalls(path.stem)
        calls.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        found += calls.found
    assert found == [("toolchain._spawn", "subprocess.Popen")]


def test_only_patch_reads_directives():
    """No module-level pattern outside ``patch`` matches a directive, so
    which lines are directives is decided by one rule."""
    lines = ("#pragma omp parallel", "#include <x.h>", "# define X 1")
    found = []
    for path in sorted(Path(tc.__file__).parent.glob("*.py")):
        if path.stem == "patch":
            continue
        module = importlib.import_module(
            "perfagent" if path.stem == "__init__" else f"perfagent.{path.stem}"
        )
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                text = lines if isinstance(value.pattern, str) else [line.encode() for line in lines]
                found += [(path.stem, name, line) for line in text if value.match(line)]
    assert found == []


_INCLUDING_MAIN = """\
#include <stdio.h>
#include "k.h"

int main(void) {
    printf("%d\\n", K);
    return 0;
}
"""


def test_relative_include_flag_names_the_tree(tmp_path, toolchain_config, monkeypatch):
    """``-Iinc`` names the benchmark's inc/, not one where the harness runs."""
    spec = _spec(tmp_path, "inc", {"main.c": _INCLUDING_MAIN, "inc/k.h": "#define K 5\n"},
                 build={"flags": ["-O2", "-Iinc"]})
    monkeypatch.chdir(tmp_path)
    out = tc.compile(spec, spec.root, toolchain_config, "base", "work")
    assert out.status is tc.BuildStatus.OK, out.stderr
    assert tc.run_timed(out.binary_path, RunRecipe(repetitions=1)).stdout == b"5\n"


class TestBuildReuse:
    """A variant built again from the same inputs spawns no compiler and
    gives the logged outcome; any changed input, or a binary that is not
    the stamped one, builds it again."""

    FILES = {"main.c": _INCLUDING_MAIN, "inc/k.h": "#define K 5\n"}

    def make(self, tmp_path, toolchain_config, prelude=""):
        """A bench, and a wrapped gcc that logs each spawn into ``self.log``
        and then runs ``prelude``."""
        self.log = tmp_path / "spawns.log"
        self.spec = _spec(tmp_path, "keyed", self.FILES, build={"flags": ["-O2", "-Iinc"]})
        self.toolchain = wrapped_gcc(tmp_path, toolchain_config,
                                     f'echo "$*" >> "{self.log}"\n{prelude}')
        self.work = tmp_path / "work"
        self.logs = self.work / "keyed" / "base" / "logs"

    def start(self, spec=None, toolchain=None, **kw):
        return tc.start_compile(spec or self.spec, (spec or self.spec).root,
                                toolchain or self.toolchain, "base", self.work, **kw)

    def spawns(self) -> int:
        return len(self.log.read_text().splitlines()) if self.log.exists() else 0

    def test_rerun_spawns_nothing_and_gives_the_logged_outcome(self, tmp_path, toolchain_config):
        self.make(tmp_path, toolchain_config)
        first = self.start().wait()
        assert first.ok, first.stderr
        assert (self.logs / "build.key").exists()
        build = self.start()
        assert self.spawns() == 1
        assert build not in tc._unjoined
        again = build.wait()
        assert again == first
        build.kill()
        assert build.wait() == first
        assert tc.run_timed(again.binary_path, RunRecipe(repetitions=1)).stdout == b"5\n"

    def test_a_build_searches_no_path(self, tmp_path, toolchain_config, monkeypatch):
        """The compiler file was resolved with the toolchain: neither a
        build nor its key searches PATH again."""
        self.make(tmp_path, toolchain_config)

        def no_search(*args, **kwargs):
            raise AssertionError("PATH searched during a build")

        monkeypatch.setattr(shutil, "which", no_search)
        assert self.start().wait().ok
        assert self.start().wait().ok
        assert self.spawns() == 1

    @pytest.mark.parametrize("change", [
        "source byte", "unlisted header", "flag", "version string", "compiler file",
        "overlay file", "environment",
    ])
    def test_a_changed_input_rebuilds(self, tmp_path, toolchain_config, monkeypatch, change):
        self.make(tmp_path, toolchain_config)
        overlay = tmp_path / "overlay"
        (overlay / "inc").mkdir(parents=True)
        (overlay / "inc" / "k.h").write_text("#define K 6\n")
        kw = {"overlay": overlay} if change == "overlay file" else {}
        assert self.start(**kw).wait().ok
        assert self.start(**kw).wait().ok
        assert self.spawns() == 1
        spec, toolchain = self.spec, self.toolchain
        if change == "source byte":
            kw["code"] = ("main.c", _INCLUDING_MAIN.replace("%d", "%i"))
        elif change == "unlisted header":
            (spec.root / "inc" / "k.h").write_text("#define K 7\n")
        elif change == "flag":
            spec = replace(spec, build=replace(spec.build, flags=("-O1", "-Iinc")))
        elif change == "version string":
            info = replace(self.toolchain.compilers["gcc"], version_string="wrapped gcc 2")
            toolchain = replace(self.toolchain, compilers={"gcc": info})
        elif change == "compiler file":  # reinstalled in place, same size and version string
            wrapper = Path(self.toolchain.compilers["gcc"].c_path)
            mtime = wrapper.stat().st_mtime_ns + 10**9
            os.utime(wrapper, ns=(mtime, mtime))
        elif change == "overlay file":
            (overlay / "inc" / "k.h").write_text("#define K 8\n")
        else:
            monkeypatch.setenv("SOURCE_DATE_EPOCH", "1")
        out = self.start(spec, toolchain, **kw).wait()
        assert out.ok, out.stderr
        assert self.spawns() == 2

    @pytest.mark.parametrize("binary", ["replaced", "deleted"])
    def test_a_changed_binary_rebuilds(self, tmp_path, toolchain_config, binary):
        self.make(tmp_path, toolchain_config)
        path = self.start().wait().binary_path
        if binary == "replaced":
            path.write_bytes(path.read_bytes() + b"\0")
        else:
            path.unlink()
        out = self.start().wait()
        assert out.ok, out.stderr
        assert self.spawns() == 2
        assert tc.run_timed(out.binary_path, RunRecipe(repetitions=1)).stdout == b"5\n"

    @pytest.mark.parametrize("failure", ["compile error", "timeout", "killed"])
    def test_a_failed_build_leaves_no_stamp(self, tmp_path, toolchain_config, failure):
        """The variant was built before; a build of other code that fails
        removes that stamp, and a rerun of the failed code compiles."""
        hang = tmp_path / "hang"
        self.make(tmp_path, toolchain_config, f'[ -e "{hang}" ] && exec sleep 5')
        assert self.start().wait().ok
        assert (self.logs / "build.key").exists()
        spec = replace(self.spec, build=replace(self.spec.build, timeout_s=1.0))
        code = ("main.c", kernels.SYNTAX_ERROR if failure == "compile error"
                else _INCLUDING_MAIN.replace("%d", "%i"))
        if failure != "compile error":
            hang.touch()
        build = self.start(spec, code=code)
        if failure == "compile error":
            assert build.wait().status is tc.BuildStatus.COMPILE_ERROR
        elif failure == "timeout":
            assert build.wait().stderr.startswith("build exceeded 1.0s: ")
        else:
            deadline = time.monotonic() + 5.0
            while self.spawns() < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            build.kill()
        assert not (self.logs / "build.key").exists()
        hang.unlink(missing_ok=True)
        out = self.start(spec, code=code).wait()
        assert out.ok is (failure != "compile error")
        assert self.spawns() == 3
