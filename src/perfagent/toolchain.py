"""Compiler detection, variant builds, and serialized timed runs.

Timed runs take a process-wide lock so measurements never overlap; the
speedup protocol assumes an otherwise unloaded machine. A build may run
while the harness waits on the model (``start_compile`` returns before
the compiler ends), but never during a timed repetition: ``run_timed``
refuses to start while a build is not joined. Build and run failures
that describe the candidate (bad code, crash, timeout) are encoded in
the returned records; failures that describe the harness itself
(missing compiler, build timeout) raise.

Compilers and timed repetitions are started the same way. Each child
leads its own session and writes into anonymous temporary files, not
pipes, so no output passes through Python while it runs; one watchdog
thread kills a child's whole process group at its deadline, so neither a
candidate's forked children nor a compiler's cc1, as and ld outlive a
timeout. Only a build's stderr, repetition 1's stdout and the last
repetition's stderr are ever read back.
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
from typing import IO

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


class PendingBuild:
    """A compiler started by ``start_compile`` and not yet joined.

    ``wait`` joins it and ``kill`` abandons it. Until one of them has
    run, ``run_timed`` raises, so a build never shares the CPU with a
    timed repetition.
    """

    def __init__(
        self,
        proc: subprocess.Popen,
        argv: list[str],
        stderr: IO[bytes],
        binary: Path,
        log_path: Path,
        timeout_s: float,
    ) -> None:
        self._proc = proc
        self._argv = argv
        self._stderr = stderr
        self._binary = binary
        self._log_path = log_path
        self._timeout_s = timeout_s

    def wait(self) -> BuildOutcome:
        """Reap the compiler in one blocking wait and classify the build.

        Raises BuildTimeout when the watchdog killed the compiler's
        process group at ``build.timeout_s`` from spawn. A compiler that
        ended in time is never a timeout, however late it is joined.
        """
        with self._stderr:
            try:
                returncode = self._proc.wait()
            finally:
                timed_out = self._release()
            if timed_out:
                raise BuildTimeout(self._argv, self._timeout_s)
            diagnostics = _read_all(self._stderr.fileno())
        log_text = "$ " + " ".join(self._argv) + "\n" + diagnostics.decode(errors="replace")
        self._log_path.write_text(log_text)
        if returncode != 0 or not self._binary.exists():
            return BuildOutcome(BuildStatus.COMPILE_ERROR, None, log_text)
        self._binary.chmod(0o755)
        return BuildOutcome(BuildStatus.OK, self._binary, log_text)

    def kill(self) -> None:
        """Kill the compiler's process group and reap it; no outcome.

        Does nothing to a build that is already joined.
        """
        self._release()
        self._stderr.close()

    def _release(self) -> bool:
        _unjoined.discard(self)
        return _reap(self._proc)


# Builds started by start_compile and not yet joined or killed.
_unjoined: set[PendingBuild] = set()


def start_compile(
    spec: BenchmarkSpec,
    src_dir: Path | str,
    toolchain: ToolchainConfig,
    variant_tag: str,
    work_dir: Path | str,
) -> PendingBuild:
    """Start building one variant into ``<work>/<bench_id>/<variant_tag>/``.

    The variant directory gets src/ (a copy of ``src_dir``), bin/, and
    logs/. The compiler leads a new session with stdout discarded and
    stderr in an anonymous file, and the watchdog kills its process group
    at ``build.timeout_s`` from now. The caller may do other work, such
    as waiting on the model, before it joins the build with
    ``PendingBuild.wait``; the full compiler command line is then the
    first line of the outcome's stderr and of logs/build.log.
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

    stderr = tempfile.TemporaryFile(buffering=0)
    try:
        proc = _spawn(
            argv, time.perf_counter() + spec.build.timeout_s,
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
    except OSError as exc:
        stderr.close()
        raise ToolNotFound(spec.build.compiler_id) from exc
    build = PendingBuild(proc, argv, stderr, binary, vlogs / "build.log", spec.build.timeout_s)
    _unjoined.add(build)
    return build


def compile(
    spec: BenchmarkSpec,
    src_dir: Path | str,
    toolchain: ToolchainConfig,
    variant_tag: str,
    work_dir: Path | str,
) -> BuildOutcome:
    """Build one variant and wait for it: ``start_compile(...).wait()``."""
    return start_compile(spec, src_dir, toolchain, variant_tag, work_dir).wait()


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
    """Kills the process group of each armed child at its deadline.

    One daemon thread serves every child: the timed repetition in flight
    (``_timed_run_lock`` lets only one run at a time) and any builds
    started by ``start_compile``. It sleeps until the earliest deadline
    it knows and is woken only when a child is armed with an earlier
    one, so children that end in time cost no wake-up of their own. At a
    deadline it polls the child first: a child that already exited and
    waits to be joined (a build joined late) is reaped there, not killed.
    The caller disarms right after it reaps the child; pids are handed
    out cyclically, so in that window the group id cannot yet name a new
    group.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._thread: threading.Thread | None = None
        self._deadlines: dict[subprocess.Popen, float] = {}
        self._killed: set[subprocess.Popen] = set()
        self._sleeping_until = math.inf

    def arm(self, proc: subprocess.Popen, deadline: float) -> None:
        with self._cond:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._watch, name="perfagent-watchdog", daemon=True
                )
                self._thread.start()
            self._deadlines[proc] = deadline
            if deadline < self._sleeping_until:
                self._cond.notify()

    def disarm(self, proc: subprocess.Popen) -> bool:
        """Stop watching ``proc``; True if its deadline passed and its group was killed."""
        with self._cond:
            self._deadlines.pop(proc, None)
            if proc in self._killed:
                self._killed.remove(proc)
                return True
            return False

    def _watch(self) -> None:
        with self._cond:
            while True:
                if not self._deadlines:
                    self._sleeping_until = math.inf
                    self._cond.wait()
                    continue
                proc = min(self._deadlines, key=self._deadlines.__getitem__)
                deadline = self._deadlines[proc]
                remaining = deadline - time.perf_counter()
                if remaining > 0:
                    self._sleeping_until = deadline
                    self._cond.wait(remaining)
                    continue
                del self._deadlines[proc]
                # poll() answers None while the caller is blocked reaping
                # the child, so a running child is always killed.
                if proc.poll() is None:
                    _kill_group(proc.pid)
                    self._killed.add(proc)


_watchdog = _Watchdog()


def _spawn(argv: list[str], deadline: float, **popen_kwargs) -> subprocess.Popen:
    """Start ``argv`` as the leader of a new session, watched until ``deadline``."""
    proc = subprocess.Popen(argv, start_new_session=True, **popen_kwargs)
    _watchdog.arm(proc, deadline)
    return proc


def _reap(proc: subprocess.Popen) -> bool:
    """Stop watching ``proc`` and make sure it is reaped, killing its
    process group first if it still runs; True if its deadline killed it."""
    timed_out = _watchdog.disarm(proc)
    if proc.returncode is None:
        _kill_group(proc.pid)
        proc.wait()
    return timed_out


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

    Raises ToolchainError while a build from ``start_compile`` is not
    joined: a compiler must not share the CPU with a timed repetition.
    """
    if _unjoined:
        raise ToolchainError("a build started by start_compile is not joined yet")
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
            proc = _spawn(
                argv, start + run.timeout_s,
                stdin=stdin, stdout=out, stderr=err, env=env, cwd=cwd,
            )
            try:
                returncode = proc.wait()
                elapsed = time.perf_counter() - start
            finally:
                timed_out = _reap(proc)

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
