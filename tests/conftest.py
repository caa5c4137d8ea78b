"""Shared fixtures: benchmark directory builders and a real toolchain."""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
from pathlib import Path

import pytest

from perfagent import toolchain as tc
from perfagent.manifest import RunRecipe, load_manifest

DEFAULT_MANIFEST = {
    "motif": "DenseLinearAlgebra",
    "level": 1,
    "language": "C",
    "build": {"compiler_id": "gcc", "flags": ["-O2"], "timeout_s": 120},
    "run": {"args": [], "repetitions": 3, "timeout_s": 30, "env": {}},
    "validation": {"mode": "ExactBytes", "abs_tol": 0.0, "rel_tol": 0.0, "ignore_patterns": []},
    "prep": {"strip_omp_pragmas": False, "expand_macros": False},
}


def deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def write_bench(root: Path, bench_id: str, files: dict[str, str], **overrides) -> Path:
    """Create one benchmark directory with manifest and sources."""
    bench_dir = root / bench_id
    bench_dir.mkdir(parents=True, exist_ok=True)
    doc = deep_merge(DEFAULT_MANIFEST, overrides)
    doc["id"] = bench_id
    doc.setdefault("sources", [n for n in files if n.endswith((".c", ".cc", ".cpp"))])
    for name, text in files.items():
        target = bench_dir / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    (bench_dir / "bench.json").write_text(json.dumps(doc, indent=2))
    return bench_dir


def load_single(root: Path, bench_id: str):
    specs = load_manifest(root)
    matches = [s for s in specs if s.id == bench_id]
    assert len(matches) == 1
    return matches[0]


def file_output(data: bytes) -> tc.Output:
    """``data`` as a file-backed Output, the kind ``run_timed`` returns."""
    with tempfile.TemporaryFile() as f:
        f.write(data)
        f.flush()
        return tc.Output.from_fd(f.fileno())


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def process_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return not Path("/proc/self").exists()
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wrapped_gcc(tmp_path, toolchain_config, prelude):
    """A toolchain whose compiler is a shell script that runs ``prelude``
    (the compiler's arguments are in "$*") and then gcc."""
    gcc = toolchain_config.compilers["gcc"].c_path
    script = tmp_path / "cc"
    script.write_text(f'#!/bin/sh\n{prelude}\nexec "{gcc}" "$@"\n')
    script.chmod(0o755)
    info = tc.CompilerInfo(str(script), str(script), "wrapped gcc")
    return tc.ToolchainConfig(compilers={"gcc": info}, default_flags={})


def hang_build(pids, path_part):
    """Prelude that makes the build whose arguments contain ``path_part``
    record its pid and a forked child's in ``pids`` and hang until killed."""
    return (
        'case "$*" in\n'
        f'  *{path_part}*) echo $$ >> "{pids}"; sleep 20 & echo $! >> "{pids}"; wait ;;\n'
        "esac"
    )


def slow_original_gcc(tmp_path, toolchain_config, builds):
    """A wrapped gcc whose build of the original (its arguments hold
    "/base/") waits until another build has started, polling for at most
    10 s. Every other build marks its start before it compiles. A
    driver that builds a candidate only once the original is built
    cannot overlap the two, and waits out the bound. Each build appends
    its start and end times, whether the original's poll found the mark
    ("found" or "timeout"; "-" for other builds) and its arguments to
    ``builds``."""
    started = tmp_path / "candidate.started"
    return wrapped_gcc(
        tmp_path, toolchain_config,
        'start=$(date +%s.%N)\n'
        'poll=-\n'
        'case "$*" in\n'
        f'  */base/*) i=0; while [ ! -e "{started}" ] && [ $i -lt 1000 ]; do'
        ' sleep 0.01; i=$((i + 1)); done\n'
        f'    if [ -e "{started}" ]; then poll=found; else poll=timeout; fi ;;\n'
        f'  *) : > "{started}" ;;\n'
        'esac\n'
        f'"{toolchain_config.compilers["gcc"].c_path}" "$@" || exit $?\n'
        f'echo "$start $(date +%s.%N) $poll $*" >> "{builds}"\n'
        "exit 0",
    )


def assert_candidate_built_beside_original(builds):
    """``builds``, as logged by ``slow_original_gcc``, holds the original's
    build and one candidate build, which started while the original's ran:
    the original's poll found the candidate's mark, and the candidate
    started before the original's build ended. The two start times are
    not compared: each is taken when its shell first runs, which says
    more about the scheduler than about the driver."""
    spans = {}
    for line in builds.read_text().splitlines():
        start, end, poll, args = line.split(" ", 3)
        spans["base" if "/base/" in args else "cand"] = (float(start), float(end), poll)
    assert set(spans) == {"base", "cand"}
    (_, base_end, poll), (cand_start, _, _) = spans["base"], spans["cand"]
    assert poll == "found"
    assert cand_start < base_end


def wait_for_pids(pids, count=2, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and not (
        pids.exists() and len(pids.read_text().split()) == count
    ):
        time.sleep(0.01)


def assert_reaped(pids):
    """Every process listed in ``pids`` is gone, and timed runs are
    allowed again because no build is left unjoined."""
    children = [int(line) for line in pids.read_text().split()]
    assert len(children) == 2
    try:
        deadline = time.monotonic() + 1.0
        while any(process_running(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(process_running(pid) for pid in children), "a build outlived the driver"
    finally:
        for pid in children:
            if process_running(pid):
                os.kill(pid, signal.SIGKILL)
    assert not tc._unjoined
    assert tc.run_timed("/bin/true", RunRecipe(repetitions=1, timeout_s=10)).ok


# A full-size suite layout: (id, motif, level, language), 24 rows.
FULL_SUITE_LAYOUT = [
    ("durbin", "DenseLinearAlgebra", 1, "C"),
    ("doitgen", "DenseLinearAlgebra", 1, "C"),
    ("cholesky", "DenseLinearAlgebra", 1, "C"),
    ("2mm", "DenseLinearAlgebra", 1, "C"),
    ("correlation", "DenseLinearAlgebra", 1, "C"),
    ("matmul", "DenseLinearAlgebra", 1, "C"),
    ("trisolv", "SparseLinearAlgebra", 1, "C"),
    ("bicg", "SparseLinearAlgebra", 1, "C"),
    ("atmux", "SparseLinearAlgebra", 2, "C"),
    ("npb_cg", "SparseLinearAlgebra", 3, "C"),
    ("deriche", "SpectralMethods", 1, "C"),
    ("pi", "MonteCarlo", 1, "C"),
    ("xsbench", "MonteCarlo", 3, "C"),
    ("nussinov", "DynamicProgramming", 1, "C"),
    ("adi", "StructuredGrids", 1, "C"),
    ("srad", "StructuredGrids", 1, "C"),
    ("hotspot", "StructuredGrids", 2, "C"),
    ("hotspot3d", "StructuredGrids", 2, "C"),
    ("coulomb", "NBody", 2, "C"),
    ("particlefilter", "NBody", 2, "C"),
    ("haccmk", "NBody", 2, "Cpp"),
    ("jacobi1d", "Stencils", 1, "C"),
    ("lbm_d2q37", "Stencils", 3, "C"),
    ("minisweep", "RadiationTransport", 3, "C"),
]


def write_full_suite(root: Path) -> Path:
    stub = "#include <stdio.h>\n\nint main(void) {\n    printf(\"ok\\n\");\n    return 0;\n}\n"
    for bench_id, motif, level, lang in FULL_SUITE_LAYOUT:
        name = "main.cc" if lang == "Cpp" else "main.c"
        write_bench(
            root,
            bench_id,
            {name: stub},
            motif=motif,
            level=level,
            language=lang,
            build={"compiler_id": "g++" if lang == "Cpp" else "gcc"},
        )
    return root


def write_transcript(path: Path, texts: list[str], digests: list[str] | None = None) -> Path:
    entries = []
    for i, text in enumerate(texts):
        entries.append(
            {
                "request_digest": digests[i] if digests else "",
                "response_text": text,
                "latency_s": 0.0,
            }
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2))
    return path


@pytest.fixture(scope="session")
def toolchain_config() -> "tc.ToolchainConfig":
    config = tc.detect()
    if "gcc" not in config.compilers:
        pytest.skip("gcc not available")
    return config
