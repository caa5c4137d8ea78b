"""Compiler detection, variant builds, and serialized timed runs.

Every timed run goes through ``run_rounds``, which times several
binaries together: a row's original and each of its candidates run in
interleaved rounds, A B, B A, A B, so that a slow phase of the host
falls on both sides of a speedup instead of on one (Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013). ``run_timed`` is
one binary's rounds. Timed runs take a process-wide lock so measurements
never overlap; the speedup protocol assumes an otherwise unloaded
machine. Builds may run while the harness waits on the model and beside
one another (``start_compile`` returns before the compiler ends, so the
experiment drivers build a row's original while the model answers and
the candidate compiles), but never during a timed repetition:
``run_rounds`` refuses to start while any build is not joined. Build and
run failures (bad code, crash, a build or run past its timeout) are
encoded in the returned records; only a compiler id the toolchain does
not name, or a compiler that cannot be started, raises.

Every child is started by ``_spawn``: compilers, timed repetitions, the
macro-expanding preprocessor of ``manifest.prepare_sources`` and the
``--version`` probe. Each leads its own session and writes into
anonymous temporary files, not pipes, so no output passes through Python
while it runs. Every child but a build is waited for by ``_run``. One
watchdog thread kills a child's whole process group at its deadline; a
child that ends on its own is left unreaped until its group has been
killed too, so neither a candidate's forked children nor a compiler's
cc1, as and ld outlive the child that started them. A build's stderr and
the preprocessor's output are read back whole, and an arm's last
repetition's stderr only as its last ``STDERR_TAIL`` bytes. An arm's
first stdout is never read back here: ``RunSample.stdout`` is an
``Output``, a handle on the file it was written into, which callers
compare, hash or read a slice at a time.

A variant is rebuilt only when an input of its build changed, the
verifying-trace rule of Mokhov, Mitchell & Peyton Jones, "Build Systems
à la Carte" (ICFP 2018). ``start_compile`` keys each build on the
compiler's version string, the real path, size and modification time
of the compiler file, the full command line, the values of
``BUILD_ENV_VARS`` and the relative path and bytes of every file in the
variant's freshly laid-out src/. A successful join writes the key and
the binary's SHA-256 into logs/build.key; a later ``start_compile`` of
the same variant that finds that key and that binary spawns nothing and
hands back the logged outcome. Compile errors, build timeouts and killed
builds leave no stamp. Not in the key: headers and libraries outside
the variant's tree, the compiler's own helpers (cc1, as, ld), whether a
hand-written ``version_string`` is true, and the host CPU. After a
toolchain upgrade that keeps the compiler file, or when a work
directory moves to another host, build into a fresh work directory.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Sequence

from .manifest import BenchmarkSpec, Language, RunRecipe, read_json, want

OMP_THREADS_VAR = "OMP_NUM_THREADS"

# Exit-status sentinel for a repetition killed at run.timeout_s.
TIMEOUT = "timeout"

# Bytes of a repetition's stderr that a RunSample keeps: its end.
STDERR_TAIL = 4000

# Size of the reads that compare, hash, count and split outputs, here
# and in verify.
READ_SIZE = 1 << 14

# Environment variables that change what gcc builds from one command
# line (GCC manual, "Environment Variables Affecting GCC"); their values
# are part of every build's key.
BUILD_ENV_VARS = (
    "CPATH", "C_INCLUDE_PATH", "CPLUS_INCLUDE_PATH", "LIBRARY_PATH",
    "COMPILER_PATH", "GCC_EXEC_PREFIX", "SOURCE_DATE_EPOCH",
)

_timed_run_lock = threading.Lock()


class ToolchainError(Exception):
    """Base class for toolchain failures."""


class ToolNotFound(ToolchainError):
    def __init__(self, compiler_id: str):
        super().__init__(f"no configured compiler with id {compiler_id!r}")
        self.compiler_id = compiler_id


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

    def command(self, spec: BenchmarkSpec) -> list[str]:
        """The compiler that builds ``spec`` and its default flags. A
        compiler named by a relative path is made absolute from the launch
        directory, since builds and the preprocessor run elsewhere."""
        compiler = self.resolve(spec.build.compiler_id, spec.language)
        if os.sep in compiler:
            compiler = os.path.abspath(compiler)
        return [compiler, *self.flags_for(spec.build.compiler_id)]


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


def _closed_read(n: int, offset: int) -> bytes:
    raise ValueError("read from a closed Output")


class Output:
    """A program's output, read on demand and never changed.

    ``run_rounds`` hands out a handle on the anonymous file a repetition
    wrote into (``from_fd``); ``Output(data)`` wraps bytes made in
    memory, so both are read the same way. ``len()`` is the size in
    bytes, ``read(start, stop)`` one bounded slice, ``==`` (against bytes
    or another Output) and ``sha256()`` stream ``READ_SIZE`` bytes at a
    time, and ``bytes()`` reads it whole. ``sha256()`` hashes once and
    keeps the digest. The file closes when the handle is dropped or
    ``close`` is called; a closed Output still gives its length and a
    digest taken before it closed, and reading it raises ValueError.
    Outputs compare like bytes but, being possibly large and
    file-backed, are not hashable.
    """

    __slots__ = ("_size", "_pread", "_finalizer", "_digest", "__weakref__")

    def __init__(self, data: bytes = b"") -> None:
        self._size = len(data)
        self._pread = lambda n, offset: data[offset : offset + n]
        self._finalizer = None
        self._digest = None

    @classmethod
    def from_fd(cls, fd: int) -> Output:
        """A handle on the file open as ``fd``, as it is now: its own
        duplicate of the descriptor, closed with the handle."""
        out = cls.__new__(cls)
        own = os.dup(fd)
        out._size = os.fstat(own).st_size
        out._pread = functools.partial(os.pread, own)
        out._finalizer = weakref.finalize(out, os.close, own)
        out._digest = None
        return out

    def __len__(self) -> int:
        return self._size

    def read(self, start: int = 0, stop: int | None = None) -> bytes:
        """Bytes ``start:stop`` (clipped to the output) in one read."""
        stop = self._size if stop is None else min(stop, self._size)
        if start >= stop:
            return b""
        return self._pread(stop - start, start)

    def __bytes__(self) -> bytes:
        return self.read()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, bytes):
            other = Output(other)
        if not isinstance(other, Output):
            return NotImplemented
        if other is self:
            return True
        if len(other) != self._size:
            return False
        return all(
            self.read(start, start + READ_SIZE) == other.read(start, start + READ_SIZE)
            for start in range(0, self._size, READ_SIZE)
        )

    def sha256(self) -> str:
        """Hex SHA-256 of the whole output, hashed on the first call."""
        if self._digest is None:
            digest = hashlib.sha256()
            for start in range(0, self._size, READ_SIZE):
                digest.update(self.read(start, start + READ_SIZE))
            self._digest = digest.hexdigest()
        return self._digest

    def close(self) -> None:
        self._pread = _closed_read
        if self._finalizer is not None:
            self._finalizer()

    @property
    def closed(self) -> bool:
        return self._pread is _closed_read

    def __repr__(self) -> str:
        if self.closed:
            return "Output(<closed>)"
        if self._size <= 64:
            return f"Output({self.read()!r})"
        return f"Output(<{self._size} bytes>)"


@dataclass(frozen=True)
class RunSample:
    """Timed executions of one binary.

    ``wall_times_s`` holds one entry per successful repetition, each from
    just before the spawn to the exit of the child, seen before it is
    reaped; execution stops at the first repetition that crashes or times
    out, leaving its status in ``exit_status`` (an integer, negative for
    a signal, or the TIMEOUT sentinel), and after the first repetition
    when ``run_rounds``' ``keep`` drops the arm, with status 0. The
    experiment drivers drop a candidate whose first output fails
    validation, and the original once no candidate runs on, so such a
    sample holds one time: a mismatching agent iteration's ``run``, and
    an agent trace's ``baseline`` when the original ran alone first or
    no candidate timed in its first rounds matched. ``stdout`` is the first
    repetition's output, the one validation uses: from ``run_rounds``, a
    handle on the file it wrote into, empty when that repetition timed
    out. Bytes given here are wrapped in an ``Output`` too. ``stderr`` is
    the last ``STDERR_TAIL`` bytes of the last repetition's stderr, the
    one that stopped the run if any, and on timeout ends with what it
    wrote before its process group was killed.
    """

    wall_times_s: tuple[float, ...]
    stdout: Output
    stderr: bytes
    exit_status: int | str
    thread_count: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.stdout, Output):
            object.__setattr__(self, "stdout", Output(self.stdout))

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


@dataclass(frozen=True)
class SpeedupStat:
    baseline_mean_s: float
    candidate_mean_s: float
    speedup: float


def _probe_version(path: str) -> str:
    """The first line ``path --version`` prints within 10 s, else "unknown"."""
    with tempfile.TemporaryFile(buffering=0) as out:
        try:
            status, _ = _run(
                [path, "--version"], 10,
                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL,
            )
        except OSError:
            return "unknown"
        first = _read_all(out.fileno()).decode(errors="replace").splitlines()
    return first[0] if first and status != TIMEOUT else "unknown"


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
    """Toolchain config from JSON: compiler paths and default flags. A
    file that is not JSON, or a document of another shape, is a
    ToolchainError naming the file (and the key)."""

    def fail(reason: str) -> ToolchainError:
        return ToolchainError(f"{path}: {reason}")

    doc = read_json(path, fail)
    compilers = {}
    for cid, entry in want(doc, "compilers", dict, fail, {}).items():
        c_path = want(entry, f"compilers.{cid}.c_path", str, fail)
        compilers[cid] = CompilerInfo(
            c_path=c_path,
            cxx_path=want(entry, f"compilers.{cid}.cxx_path", str, fail, c_path),
            version_string=(
                want(entry, f"compilers.{cid}.version_string", str, fail, None)
                or _probe_version(c_path)
            ),
        )
    flags = want(doc, "default_flags", dict[str, list[str]], fail, {})
    return ToolchainConfig(compilers, {cid: tuple(f) for cid, f in flags.items()})


def variant_dir(work_dir: Path | str, bench_id: str, variant_tag: str) -> Path:
    return Path(work_dir) / bench_id / variant_tag


class PendingBuild:
    """A compiler started by ``start_compile`` and not yet joined.

    ``wait`` joins it and ``kill`` abandons it. Until one of them has
    run, ``run_rounds`` raises, so a build never shares the CPU with a
    timed repetition. ``binary_path`` is where the executable appears
    once a successful build is joined. A build may be joined more than
    once: every later ``wait`` gives the first one's outcome. A build
    that ``start_compile`` reused is joined from the start. A build the
    watchdog killed at ``build.timeout_s`` is a compile error like any
    other, not an exception.
    """

    def __init__(
        self,
        proc: subprocess.Popen,
        argv: list[str],
        stderr: IO[bytes],
        binary: Path,
        logs: Path,
        timeout_s: float,
        key: str,
    ) -> None:
        self._proc = proc
        self._argv = argv
        self._stderr = stderr
        self.binary_path = binary
        self._logs = logs
        self._timeout_s = timeout_s
        self._key = key
        self._outcome: BuildOutcome | None = None

    @classmethod
    def joined(cls, outcome: BuildOutcome) -> PendingBuild:
        """A build that spawned nothing: ``wait`` gives ``outcome``."""
        build = cls.__new__(cls)
        build.binary_path = outcome.binary_path
        build._outcome = outcome
        return build

    def wait(self) -> BuildOutcome:
        """Join the compiler in one blocking wait and classify the build;
        a later call returns the same outcome.

        The outcome's text, also written to logs/build.log, is the
        command line and then the compiler's stderr. The command line
        follows ``$ ``, or ``build exceeded <t>s: `` when the watchdog
        killed the compiler's process group at ``build.timeout_s`` from
        spawn: that build is a compile error. A compiler that ended in
        time is never a timeout, however late it is joined.
        """
        if self._outcome is None:
            self._outcome = self._join()
        return self._outcome

    def _join(self) -> BuildOutcome:
        with self._stderr:
            try:
                _wait_exit(self._proc)
            finally:
                timed_out = self._release()
            returncode = self._proc.returncode
            diagnostics = _read_all(self._stderr.fileno())
        head = f"build exceeded {self._timeout_s}s: " if timed_out else "$ "
        log_text = head + " ".join(self._argv) + "\n" + diagnostics.decode(errors="replace")
        (self._logs / BUILD_LOG).write_text(log_text)
        if timed_out or returncode != 0 or not self.binary_path.exists():
            return BuildOutcome(BuildStatus.COMPILE_ERROR, None, log_text)
        self.binary_path.chmod(0o755)
        binary_sha256 = _hash_file(hashlib.sha256(), self.binary_path).hexdigest()
        (self._logs / BUILD_STAMP).write_text(f"{self._key} {binary_sha256}\n")
        return BuildOutcome(BuildStatus.OK, self.binary_path, log_text)

    def kill(self) -> None:
        """Kill the compiler's process group and reap it; no outcome.

        Does nothing to a build that is already joined.
        """
        if self._outcome is None:
            self._release()
            self._stderr.close()

    def _release(self) -> bool:
        _unjoined.discard(self)
        return _reap(self._proc)


# Builds started by start_compile and not yet joined or killed.
_unjoined: set[PendingBuild] = set()

# A variant's build log, and the stamp of its last successful build,
# both under its logs/.
BUILD_LOG = "build.log"
BUILD_STAMP = "build.key"


def _hash_file(digest, path: Path):
    """``digest`` fed ``path``'s bytes, ``READ_SIZE`` bytes at a time."""
    with path.open("rb") as f:
        for chunk in iter(functools.partial(f.read, READ_SIZE), b""):
            digest.update(chunk)
    return digest


def _compiler_identity(compiler: str) -> list | None:
    """Real path, size and modification time of the compiler file that
    ``compiler`` names, or None when no such file is found."""
    found = shutil.which(compiler)
    if found is None:
        return None
    path = os.path.realpath(found)
    st = os.stat(path)
    return [path, st.st_size, st.st_mtime_ns]


def _build_key(version: str, argv: list[str], src: Path) -> str:
    """Hex SHA-256 of a build's inputs: the compiler's version string and
    file identity, its command line, the values of ``BUILD_ENV_VARS``,
    and the relative path, size and bytes of every file under ``src``,
    in path order."""
    digest = hashlib.sha256()
    env = {name: os.environ.get(name) for name in BUILD_ENV_VARS}
    digest.update(json.dumps([version, _compiler_identity(argv[0]), argv, env]).encode())
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        rel = path.relative_to(src).as_posix()
        digest.update(f"\0{rel}\0{path.stat().st_size}\0".encode())
        _hash_file(digest, path)
    return digest.hexdigest()


def _reused(key: str, binary: Path, logs: Path) -> BuildOutcome | None:
    """The logged outcome of the variant's last successful build, if its
    stamp holds ``key`` and ``binary`` is the one that build wrote."""
    try:
        stamped_key, binary_sha256 = (logs / BUILD_STAMP).read_text().split()
        if stamped_key != key or _hash_file(hashlib.sha256(), binary).hexdigest() != binary_sha256:
            return None
        return BuildOutcome(BuildStatus.OK, binary, (logs / BUILD_LOG).read_text())
    except (OSError, ValueError):
        return None


def start_compile(
    spec: BenchmarkSpec,
    src_dir: Path | str,
    toolchain: ToolchainConfig,
    variant_tag: str,
    work_dir: Path | str,
    code: tuple[str, str] | None = None,
    overlay: Path | str | None = None,
) -> PendingBuild:
    """Start building one variant into ``<work>/<bench_id>/<variant_tag>/``.

    The variant directory gets bin/, logs/ and src/: a fresh copy of
    ``src_dir``, replacing any earlier one, with ``code``, a (relative
    path, text) pair, written over one file and the ``overlay`` directory
    laid over it. ``src_dir`` itself is never written. The compiler runs
    in src/, so a relative flag such as ``-Iinc`` names a directory of
    the tree, and leads a new session with stdout discarded and stderr in
    an anonymous file; the watchdog kills its process group at
    ``build.timeout_s`` from now. The caller may do other work, such as
    waiting on the model, before it joins the build with
    ``PendingBuild.wait``; the full compiler command line is then the
    first line of the outcome's stderr and of logs/build.log.

    When logs/build.key holds this build's key (see the module
    docstring) and bin/ still holds the binary it stamped, nothing is
    spawned: the build returned is joined already, with the logged
    outcome. Otherwise the stamp is removed before the compiler starts.
    """
    vdir = variant_dir(Path(work_dir).absolute(), spec.id, variant_tag)
    vsrc = vdir / "src"
    vbin = vdir / "bin"
    vlogs = vdir / "logs"
    for d in (vbin, vlogs):
        d.mkdir(parents=True, exist_ok=True)
    if vsrc.exists():
        shutil.rmtree(vsrc)
    shutil.copytree(src_dir, vsrc)
    if code is not None:
        rel, text = code
        (vsrc / rel).write_text(text, encoding="utf-8")
    if overlay is not None:
        shutil.copytree(overlay, vsrc, dirs_exist_ok=True)

    binary = vbin / spec.id
    argv = [
        *toolchain.command(spec),
        *spec.build.flags,
        *(str(vsrc / rel) for rel in spec.source_files),
        *(str(vsrc / obj) for obj in spec.build.extra_objects),
        "-o",
        str(binary),
    ]
    version = toolchain.compilers[spec.build.compiler_id].version_string
    key = _build_key(version, argv, vsrc)
    outcome = _reused(key, binary, vlogs)
    if outcome is not None:
        return PendingBuild.joined(outcome)
    (vlogs / BUILD_STAMP).unlink(missing_ok=True)

    stderr = tempfile.TemporaryFile(buffering=0)
    try:
        proc = _spawn(
            argv, time.perf_counter() + spec.build.timeout_s,
            stdout=subprocess.DEVNULL, stderr=stderr, cwd=vsrc,
        )
    except OSError as exc:
        stderr.close()
        if isinstance(exc, FileNotFoundError):
            raise ToolNotFound(spec.build.compiler_id) from exc
        raise ToolchainError(f"cannot run compiler {argv[0]}: {exc.strerror or exc}") from exc
    build = PendingBuild(proc, argv, stderr, binary, vlogs, spec.build.timeout_s, key)
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


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class _Watchdog:
    """Kills the process group of each armed child at its deadline.

    One daemon thread serves every child ``_spawn`` starts: the timed
    repetition in flight (``_timed_run_lock`` lets only one run at a
    time), any builds started by ``start_compile``, a preprocessor and a
    version probe. It sleeps until the earliest deadline
    it knows and is woken only when a child is armed with an earlier
    one, so children that end in time cost no wake-up of their own. At a
    deadline it checks the child without reaping it: a child that already
    exited and waits to be joined (a build joined late) is left alone,
    not killed. Only ``_reap`` reaps a watched child, after disarming it,
    so while the watchdog may kill a group, the group's leader is alive
    or an unreaped zombie, and its id cannot name another group.
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
                if not _exited(proc):
                    _kill_group(proc.pid)
                    self._killed.add(proc)


_watchdog = _Watchdog()


def _spawn(argv: list[str], deadline: float, **popen_kwargs) -> subprocess.Popen:
    """Start ``argv`` as the leader of a new session, watched until ``deadline``."""
    proc = subprocess.Popen(argv, start_new_session=True, **popen_kwargs)
    _watchdog.arm(proc, deadline)
    return proc


def _exited(proc: subprocess.Popen) -> bool:
    """True once ``proc`` has exited; it is left unreaped."""
    return os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def _wait_exit(proc: subprocess.Popen) -> None:
    """Block until ``proc`` exits, leaving it an unreaped zombie that
    still holds its process group's id for ``_reap``."""
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)


def _reap(proc: subprocess.Popen) -> bool:
    """Stop watching ``proc``, kill its process group (whatever the
    leader left running, or the leader itself if it still runs) and reap
    it; True if its deadline killed it. Does nothing to a reaped child."""
    timed_out = _watchdog.disarm(proc)
    if proc.returncode is None:
        _kill_group(proc.pid)
        proc.wait()
    return timed_out


def _run(argv: list[str], timeout_s: float, **popen_kwargs) -> tuple[int | str, float]:
    """Run ``argv`` to its end as ``_spawn`` starts it: its exit status
    (TIMEOUT when the watchdog killed it at ``timeout_s``) and the
    seconds from just before the spawn to its exit, seen before it is
    reaped. Its process group is killed before it is reaped. The one
    wait of every child but a build, which ``PendingBuild`` joins."""
    start = time.perf_counter()
    proc = _spawn(argv, start + timeout_s, **popen_kwargs)
    try:
        _wait_exit(proc)
        elapsed = time.perf_counter() - start
    finally:
        timed_out = _reap(proc)
    return TIMEOUT if timed_out else proc.returncode, elapsed


def _read_all(fd: int) -> bytes:
    return os.pread(fd, os.fstat(fd).st_size, 0)


def _read_tail(fd: int) -> bytes:
    """The last ``STDERR_TAIL`` bytes of the file open as ``fd``."""
    size = os.fstat(fd).st_size
    return os.pread(fd, min(size, STDERR_TAIL), max(0, size - STDERR_TAIL))


class _Arm:
    """One binary's files and results across the rounds of ``run_rounds``;
    it runs in its variant's src/, where a relative ``run.stdin_file`` opens."""

    def __init__(
        self,
        binary: Path | str,
        thread_count: int | None,
        run: RunRecipe,
        files: contextlib.ExitStack,
    ) -> None:
        binary = Path(binary).absolute()
        extra = run.env_dict()
        if thread_count is not None:
            extra[OMP_THREADS_VAR] = str(thread_count)
        # Without additions every repetition inherits the environment as it
        # is, instead of re-encoding all of it inside the timed window.
        self.env = {**os.environ, **extra} if extra else None
        cwd = binary.parent.parent / "src"
        self.cwd = cwd if cwd.is_dir() else binary.parent
        self.argv = [str(binary), *run.args]
        self.stdin = (
            None if run.stdin_file is None
            else files.enter_context((self.cwd / run.stdin_file).open("rb"))
        )
        self.kept, self.err = (_temp_fd(files) for _ in range(2))
        self.thread_count = thread_count
        self.wall_times: list[float] = []
        self.stdout = Output()
        self.exit_status: int | str = 0

    def repeat(self, out: int, timeout_s: float, first: bool) -> None:
        """One timed repetition with stdout into ``out``; a crash or a
        timeout ends the arm."""
        status, elapsed = _run(
            self.argv, timeout_s,
            stdin=self.stdin or subprocess.DEVNULL, stdout=out, stderr=self.err,
            env=self.env, cwd=self.cwd,
        )
        if first and status != TIMEOUT:
            self.stdout = Output.from_fd(self.kept)
        if status == 0:
            self.wall_times.append(elapsed)
        else:
            self.exit_status = status

    def result(self) -> RunSample:
        return RunSample(
            wall_times_s=tuple(self.wall_times),
            stdout=self.stdout,
            stderr=_read_tail(self.err),
            exit_status=self.exit_status,
            thread_count=self.thread_count,
        )


def _temp_fd(files: contextlib.ExitStack) -> int:
    return files.enter_context(tempfile.TemporaryFile(buffering=0)).fileno()


def _empty(fd: int) -> None:
    os.ftruncate(fd, 0)
    os.lseek(fd, 0, os.SEEK_SET)


def run_rounds(
    arms: Sequence[tuple[Path | str, int | None]],
    run: RunRecipe,
    keep: Callable[[list[Output | None]], Sequence[bool]] | None = None,
) -> list[RunSample]:
    """Time ``arms``, (binary, thread count) pairs, in ``run.repetitions``
    interleaved rounds; one RunSample per arm, in arm order.

    Each round runs every live arm once, in arm order on even rounds and
    in reverse on odd ones, so two arms run A B, B A, A B: a slow phase of
    the host falls on both alike. Just before the first round, one
    untimed spawn of the do-nothing program ``true`` pays the cold-spawn
    cost that would otherwise fall on the first repetition alone, always
    arm 0's (a row's original), and read as a false speedup on short
    programs. An arm that crashes or times out is dropped from later
    rounds with its status recorded, not raised, so classification can
    see it; the other arms go on. After the first round, outside every
    timed window, ``keep`` (if given) is called once with each arm's
    first output, None for an arm that crashed or timed out, and says
    for each arm whether it runs on: an arm it drops keeps its one
    repetition and exit status 0, and the arms it keeps run every later
    round in the same alternating order.

    A child runs in its variant's src/ directory when present (data files
    resolve relatively; the binary by its absolute path) with
    OMP_NUM_THREADS set from its thread count. Each repetition writes its
    stdout and stderr into anonymous temporary files instead of pipes, so
    no output passes through Python while the clock runs: an arm's first
    repetition's stdout into a file of its own, which its sample keeps as
    an ``Output`` and nothing reads here, and later repetitions' into one
    scratch file emptied before each; an arm's stderr into a file of its
    own, emptied likewise. The clock runs from just before the spawn to
    the exit of the child, seen by a blocking wait that leaves it
    unreaped; at ``run.timeout_s`` the watchdog kills the repetition's
    process group (each repetition leads a new session), which ends the
    wait. After the clock stops, the group is killed, so nothing the
    repetition forked runs on into the next one or writes into a kept
    output, and then the child is reaped. The tail of each arm's last
    repetition's stderr is read after the rounds.

    Raises ToolchainError while a build from ``start_compile`` is not
    joined: a compiler must not share the CPU with a timed repetition.
    """
    if _unjoined:
        raise ToolchainError("a build started by start_compile is not joined yet")
    with contextlib.ExitStack() as files, _timed_run_lock:
        every = [_Arm(binary, count, run, files) for binary, count in arms]
        if every:  # the untimed warm-up spawn
            _run(["true"], run.timeout_s)
        live = every
        scratch = None
        for round_ in range(run.repetitions):
            for arm in live if round_ % 2 == 0 else reversed(live):
                if round_:
                    if scratch is None:
                        scratch = _temp_fd(files)
                    _empty(scratch)
                    _empty(arm.err)
                    if arm.stdin:
                        arm.stdin.seek(0)
                arm.repeat(scratch if round_ else arm.kept, run.timeout_s, first=not round_)
            live = [arm for arm in live if arm.exit_status == 0]
            if keep is not None and not round_:
                kept = keep([arm.stdout if arm.exit_status == 0 else None for arm in every])
                live = [arm for arm, go_on in zip(every, kept) if go_on and arm.exit_status == 0]
        return [arm.result() for arm in every]


def run_timed(
    binary: Path | str,
    run: RunRecipe,
    thread_count: int | None = None,
) -> RunSample:
    """``run.repetitions`` timed repetitions of one binary: a one-arm
    ``run_rounds``, whose protocol it follows."""
    return run_rounds([(binary, thread_count)], run)[0]


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
    """One timed sample per thread count, ascending, the counts timed
    together in ``run_rounds``; failures recorded."""
    if not counts or any(c < 1 for c in counts):
        raise ValueError("counts must be non-empty positive integers")
    counts = sorted(set(counts))
    return dict(zip(counts, run_rounds([(binary, count) for count in counts], run)))
