"""Compiler detection, variant builds, and serialized timed runs.

Timed runs take a process-wide lock so measurements never overlap; the
speedup protocol assumes an otherwise unloaded machine. Build and run
failures that describe the candidate (bad code, crash, timeout) are
encoded in the returned records; failures that describe the harness
itself (missing compiler, build timeout) raise.

A timed repetition writes stdout and stderr into anonymous temporary
files, not pipes, so no output passes through Python while the clock
runs; only repetition 1's stdout and the last repetition's stderr are
ever read back. Each repetition leads its own session, and a watchdog
thread kills its whole process group at the deadline, so a candidate's
forked children cannot outlive its timeout.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .manifest import BenchmarkSpec, Language, RunRecipe

OMP_THREADS_VAR = "OMP_NUM_THREADS"

# Exit-status sentinel for a repetition killed at run.timeout_s.
TIMEOUT = "timeout"

_timed_run_lock = threading.Lock()


class ToolchainError(Exception):
    """Base class for toolchain failures."""


class ToolNotFound(ToolchainError):
    def __init__(self, compiler_id: str):
        super().__init__(f"no configured compiler with id {compiler_id!r}")
        self.compiler_id = compiler_id


class BuildTimeout(ToolchainError):
    def __init__(self, command: list[str], timeout_s: float):
        super().__init__(f"build exceeded {timeout_s}s: {' '.join(command)}")
        self.command = command
        self.timeout_s = timeout_s


class EmptySample(ToolchainError):
    def __init__(self) -> None:
        super().__init__("run sample has no completed repetitions")


@dataclass(frozen=True)
class CompilerInfo:
    c_path: str
    cxx_path: str
    version_string: str


@dataclass(frozen=True)
class ToolchainConfig:
    compilers: dict[str, CompilerInfo]
    default_flags: dict[str, tuple[str, ...]]

    def resolve(self, compiler_id: str, language: Language) -> str:
        info = self.compilers.get(compiler_id)
        if info is None:
            raise ToolNotFound(compiler_id)
        return info.c_path if language is Language.C else info.cxx_path

    def flags_for(self, compiler_id: str) -> tuple[str, ...]:
        return self.default_flags.get(compiler_id, ())


class BuildStatus(Enum):
    OK = "Ok"
    COMPILE_ERROR = "CompileError"


@dataclass(frozen=True)
class BuildOutcome:
    status: BuildStatus
    binary_path: Path | None
    stderr: str
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.status is BuildStatus.OK


@dataclass(frozen=True)
class RunSample:
    """Timed executions of one binary.

    ``wall_times_s`` holds one entry per successful repetition, each from
    just before the spawn to the reaping of the child; execution stops at
    the first repetition that crashes or times out, leaving its status in
    ``exit_status`` (an integer, negative for a signal, or the TIMEOUT
    sentinel). ``stdout`` is the first repetition's output, the one
    validation uses, read after it ends; it is empty when that repetition
    timed out. ``stderr`` is the last repetition's, the one that stopped
    the run if any, and on timeout holds what it wrote before its process
    group was killed.
    """

    wall_times_s: tuple[float, ...]
    stdout: bytes
    stderr: bytes
    exit_status: int | str
    thread_count: int | None = None

    @property
    def ok(self) -> bool:
        return self.exit_status == 0 and bool(self.wall_times_s)

    @property
    def timed_out(self) -> bool:
        return self.exit_status == TIMEOUT

    @property
    def crashed(self) -> bool:
        return isinstance(self.exit_status, int) and self.exit_status != 0

    @property
    def mean_s(self) -> float:
        if not self.wall_times_s:
            raise EmptySample()
        return sum(self.wall_times_s) / len(self.wall_times_s)

    @property
    def min_s(self) -> float:
        if not self.wall_times_s:
            raise EmptySample()
        return min(self.wall_times_s)

    @property
    def stddev_s(self) -> float:
        if not self.wall_times_s:
            raise EmptySample()
        if len(self.wall_times_s) < 2:
            return 0.0
        return statistics.stdev(self.wall_times_s)


@dataclass(frozen=True)
class SpeedupStat:
    baseline_mean_s: float
    candidate_mean_s: float
    speedup: float


def _probe_version(path: str) -> str:
    try:
        proc = subprocess.run([path, "--version"], capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    first = proc.stdout.decode(errors="replace").splitlines()
    return first[0] if first else "unknown"


def detect() -> ToolchainConfig:
    """Probe PATH for the usual gcc and clang pairs."""
    compilers: dict[str, CompilerInfo] = {}
    for cid, c_name, cxx_name in (("gcc", "gcc", "g++"), ("clang", "clang", "clang++")):
        c_path = shutil.which(c_name)
        cxx_path = shutil.which(cxx_name)
        if c_path and cxx_path:
            compilers[cid] = CompilerInfo(c_path, cxx_path, _probe_version(c_path))
    if "gcc" in compilers:
        compilers.setdefault("g++", compilers["gcc"])
    return ToolchainConfig(compilers=compilers, default_flags={})


def load(path: Path | str) -> ToolchainConfig:
    """Toolchain config from JSON: compiler paths and default flags."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    compilers = {}
    for cid, entry in doc.get("compilers", {}).items():
        c_path = entry["c_path"]
        compilers[cid] = CompilerInfo(
            c_path=c_path,
            cxx_path=entry.get("cxx_path", c_path),
            version_string=entry.get("version_string") or _probe_version(c_path),
        )
    default_flags = {
        cid: tuple(flags) for cid, flags in doc.get("default_flags", {}).items()
    }
    return ToolchainConfig(compilers=compilers, default_flags=default_flags)


def variant_dir(work_dir: Path | str, bench_id: str, variant_tag: str) -> Path:
    return Path(work_dir) / bench_id / variant_tag


def compile(
    spec: BenchmarkSpec,
    src_dir: Path | str,
    toolchain: ToolchainConfig,
    variant_tag: str,
    work_dir: Path | str,
) -> BuildOutcome:
    """Build one variant into ``<work>/<bench_id>/<variant_tag>/``.

    The variant directory gets src/ (a copy of ``src_dir``), bin/, and
    logs/; the full compiler command line is the first line of the
    outcome's stderr and of logs/build.log.
    """
    src_dir = Path(src_dir)
    vdir = variant_dir(work_dir, spec.id, variant_tag)
    vsrc = vdir / "src"
    vbin = vdir / "bin"
    vlogs = vdir / "logs"
    for d in (vbin, vlogs):
        d.mkdir(parents=True, exist_ok=True)
    if vsrc.resolve() != src_dir.resolve():
        if vsrc.exists():
            shutil.rmtree(vsrc)
        shutil.copytree(src_dir, vsrc)

    compiler = toolchain.resolve(spec.build.compiler_id, spec.language)
    binary = vbin / spec.id
    argv = [
        compiler,
        *toolchain.flags_for(spec.build.compiler_id),
        *spec.build.flags,
        *(str(vsrc / rel) for rel in spec.source_files),
        *(str(vsrc / obj) for obj in spec.build.extra_objects),
        "-o",
        str(binary),
    ]

    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=spec.build.timeout_s)
    except subprocess.TimeoutExpired:
        raise BuildTimeout(argv, spec.build.timeout_s) from None
    except OSError as exc:
        raise ToolNotFound(spec.build.compiler_id) from exc
    elapsed = time.perf_counter() - start

    log_text = "$ " + " ".join(argv) + "\n" + proc.stderr.decode(errors="replace")
    (vlogs / "build.log").write_text(log_text)

    if proc.returncode != 0 or not binary.exists():
        return BuildOutcome(BuildStatus.COMPILE_ERROR, None, log_text, elapsed)
    binary.chmod(0o755)
    return BuildOutcome(BuildStatus.OK, binary, log_text, elapsed)


def _resolve_stdin(binary: Path, run: RunRecipe) -> Path | None:
    if run.stdin_file is None:
        return None
    candidate = Path(run.stdin_file)
    if candidate.is_absolute():
        return candidate
    src_dir = binary.parent.parent / "src"
    if (src_dir / candidate).exists():
        return src_dir / candidate
    return candidate


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class _Watchdog:
    """Kills the process group of the repetition in flight at its deadline.

    One daemon thread serves every timed run, since _timed_run_lock lets
    only one repetition run at a time. It sleeps until the deadline it
    last saw and is woken only when a repetition is armed with an earlier
    one, so repetitions that end in time cost no wake-up of their own.
    The caller disarms right after it reaps the child; pids are handed
    out cyclically, so in that window the group id cannot yet name a new
    group.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._thread: threading.Thread | None = None
        self._pid: int | None = None
        self._deadline = 0.0
        self._sleeping_until = math.inf
        self._fired = False

    def arm(self, pid: int, deadline: float) -> None:
        with self._cond:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._watch, name="perfagent-watchdog", daemon=True
                )
                self._thread.start()
            self._pid, self._deadline, self._fired = pid, deadline, False
            if deadline < self._sleeping_until:
                self._cond.notify()

    def disarm(self) -> bool:
        """Stop watching; True if the deadline passed and the group was killed."""
        with self._cond:
            self._pid = None
            return self._fired

    def _watch(self) -> None:
        with self._cond:
            while True:
                if self._pid is None:
                    self._sleeping_until = math.inf
                    self._cond.wait()
                    continue
                remaining = self._deadline - time.perf_counter()
                if remaining > 0:
                    self._sleeping_until = self._deadline
                    self._cond.wait(remaining)
                    continue
                _kill_group(self._pid)
                self._fired = True
                self._pid = None


_watchdog = _Watchdog()


def _read_all(fd: int) -> bytes:
    return os.pread(fd, os.fstat(fd).st_size, 0)


def run_timed(
    binary: Path | str,
    run: RunRecipe,
    thread_count: int | None = None,
) -> RunSample:
    """Execute ``run.repetitions`` sequential timed repetitions.

    The child runs in the variant's src/ directory when present (data
    files resolve relatively) with OMP_NUM_THREADS set from
    ``thread_count``. Crash and timeout are recorded in the sample, not
    raised, so classification can see them.

    Each repetition writes its stdout and stderr into two anonymous
    temporary files, emptied before it starts, instead of pipes, so no
    output passes through Python while the clock runs. The clock runs
    from just before the spawn to the reaping of the child in a blocking
    ``wait``; at ``run.timeout_s`` the watchdog kills the repetition's
    process group (each repetition leads a new session), which ends the
    wait. Repetition 1's stdout is read after it ends, the last
    repetition's stderr after the loop.
    """
    binary = Path(binary)
    env = dict(os.environ)
    env.update(run.env_dict())
    if thread_count is not None:
        env[OMP_THREADS_VAR] = str(thread_count)

    cwd = binary.parent.parent / "src"
    if not cwd.is_dir():
        cwd = binary.parent

    stdin_path = _resolve_stdin(binary, run)
    argv = [str(binary), *run.args]

    wall_times: list[float] = []
    first_stdout = b""
    exit_status: int | str = 0

    with contextlib.ExitStack() as files, _timed_run_lock:
        out, err = (
            files.enter_context(tempfile.TemporaryFile(buffering=0)).fileno()
            for _ in range(2)
        )
        stdin = files.enter_context(stdin_path.open("rb")) if stdin_path else subprocess.DEVNULL
        for rep in range(run.repetitions):
            if rep:
                for fd in (out, err):
                    os.ftruncate(fd, 0)
                    os.lseek(fd, 0, os.SEEK_SET)
                if stdin_path:
                    stdin.seek(0)
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=stdin, stdout=out, stderr=err, env=env, cwd=cwd,
                start_new_session=True,
            )
            _watchdog.arm(proc.pid, start + run.timeout_s)
            try:
                returncode = proc.wait()
                elapsed = time.perf_counter() - start
            finally:
                timed_out = _watchdog.disarm()
                if proc.returncode is None:
                    _kill_group(proc.pid)
                    proc.wait()

            if timed_out:
                exit_status = TIMEOUT
                break
            if rep == 0:
                first_stdout = _read_all(out)
            if returncode != 0:
                exit_status = returncode
                break
            wall_times.append(elapsed)
        last_stderr = _read_all(err)

    return RunSample(
        wall_times_s=tuple(wall_times),
        stdout=first_stdout,
        stderr=last_stderr,
        exit_status=exit_status,
        thread_count=thread_count,
    )


def measure_speedup(baseline: RunSample, candidate: RunSample) -> SpeedupStat:
    """Arithmetic-mean wall time ratio, full precision."""
    if not baseline.wall_times_s or not candidate.wall_times_s:
        raise EmptySample()
    b = baseline.mean_s
    c = candidate.mean_s
    return SpeedupStat(baseline_mean_s=b, candidate_mean_s=c, speedup=b / c)


def thread_sweep(
    binary: Path | str,
    run: RunRecipe,
    counts: list[int],
) -> dict[int, RunSample]:
    """One timed sample per thread count, ascending; failures recorded."""
    if not counts or any(c < 1 for c in counts):
        raise ValueError("counts must be non-empty positive integers")
    results: dict[int, RunSample] = {}
    for count in sorted(counts):
        results[count] = run_timed(binary, run, thread_count=count)
    return results
