"""Compiler detection, variant builds, and serialized timed runs.

Timed runs take a process-wide lock so measurements never overlap; the
speedup protocol assumes an otherwise unloaded machine. Build and run
failures that describe the candidate (bad code, crash, timeout) are
encoded in the returned records; failures that describe the harness
itself (missing compiler, build timeout) raise.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
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

    ``wall_times_s`` holds one entry per successful repetition; execution
    stops at the first repetition that crashes or times out, leaving its
    status in ``exit_status`` (an integer, or the TIMEOUT sentinel).
    ``stdout`` is the first repetition's output, the one validation uses.
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
    last_stderr = b""
    exit_status: int | str = 0

    with _timed_run_lock:
        for rep in range(run.repetitions):
            stdin_handle = stdin_path.open("rb") if stdin_path else subprocess.DEVNULL
            try:
                start = time.perf_counter()
                try:
                    proc = subprocess.run(
                        argv,
                        stdin=stdin_handle,
                        capture_output=True,
                        timeout=run.timeout_s,
                        env=env,
                        cwd=cwd,
                    )
                except subprocess.TimeoutExpired as exc:
                    last_stderr = exc.stderr or b""
                    exit_status = TIMEOUT
                    break
                elapsed = time.perf_counter() - start
            finally:
                if stdin_path:
                    stdin_handle.close()

            last_stderr = proc.stderr
            if rep == 0:
                first_stdout = proc.stdout
            if proc.returncode != 0:
                exit_status = proc.returncode
                break
            wall_times.append(elapsed)

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
