"""Shared fixtures: benchmark directory builders and a real toolchain."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from perfagent import toolchain as tc
from perfagent.manifest import load_manifest

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
