"""Benchmark registry: manifest loading, filtering, and source preparation.

Each benchmark lives in its own directory containing a ``bench.json``
manifest plus sources; adding a benchmark means dropping a directory, no
central registry edits. Manifests validate eagerly so experiment drivers
can assume well-formed specs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from . import patch

MANIFEST_NAME = "bench.json"

_C_FAMILY_SUFFIXES = {
    ".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".hh", ".hxx", ".C", ".H",
}
_PRAGMA_OMP = re.compile(rb"^[ \t]*#[ \t]*pragma[ \t]+omp\b")


class Motif(Enum):
    DENSE_LINEAR_ALGEBRA = "DenseLinearAlgebra"
    SPARSE_LINEAR_ALGEBRA = "SparseLinearAlgebra"
    SPECTRAL_METHODS = "SpectralMethods"
    MONTE_CARLO = "MonteCarlo"
    DYNAMIC_PROGRAMMING = "DynamicProgramming"
    STRUCTURED_GRIDS = "StructuredGrids"
    NBODY = "NBody"
    STENCILS = "Stencils"
    RADIATION_TRANSPORT = "RadiationTransport"


class Language(Enum):
    C = "C"
    CPP = "Cpp"


class ValidationMode(Enum):
    EXACT_BYTES = "ExactBytes"
    NUMERIC_TOKENS = "NumericTokens"


class ManifestError(Exception):
    """Base class for manifest problems."""


class MalformedManifest(ManifestError):
    def __init__(self, path: Path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class MissingSource(ManifestError):
    def __init__(self, path: Path):
        super().__init__(f"source file missing: {path}")
        self.path = path


class DuplicateId(ManifestError):
    def __init__(self, bench_id: str):
        super().__init__(f"duplicate benchmark id: {bench_id}")
        self.bench_id = bench_id


class PreprocessFailure(ManifestError):
    def __init__(self, stderr: str):
        super().__init__(f"preprocessor failed: {stderr[:500]}")
        self.stderr = stderr


@dataclass(frozen=True)
class BuildRecipe:
    compiler_id: str
    flags: tuple[str, ...] = ()
    extra_objects: tuple[str, ...] = ()
    timeout_s: float = 120.0


@dataclass(frozen=True)
class RunRecipe:
    args: tuple[str, ...] = ()
    stdin_file: str | None = None
    repetitions: int = 10
    timeout_s: float = 60.0
    env: tuple[tuple[str, str], ...] = ()

    def env_dict(self) -> dict[str, str]:
        return dict(self.env)


@dataclass(frozen=True)
class ValidationPolicy:
    mode: ValidationMode = ValidationMode.EXACT_BYTES
    abs_tol: float = 0.0
    rel_tol: float = 0.0
    ignore_patterns: tuple[str, ...] = ()


@dataclass(frozen=True)
class PrepOptions:
    strip_omp_pragmas: bool = False
    expand_macros: bool = False


@dataclass(frozen=True)
class BenchmarkSpec:
    id: str
    motif: Motif
    level: int
    language: Language
    source_files: tuple[str, ...]
    entry_hotspot: str | None
    build: BuildRecipe
    run: RunRecipe
    validation: ValidationPolicy
    prep: PrepOptions
    root: Path


_LANGUAGE_SPELLINGS = {
    "C": Language.C,
    "c": Language.C,
    "Cpp": Language.CPP,
    "cpp": Language.CPP,
    "C++": Language.CPP,
    "cxx": Language.CPP,
}


def _want(doc: dict, key: str, kind, path: Path):
    if key not in doc:
        raise MalformedManifest(path, f"missing key {key!r}")
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise MalformedManifest(path, f"key {key!r} must be {kind.__name__}")
    return value


def _str_list(doc: dict, key: str, path: Path, default=None) -> list[str]:
    if key not in doc:
        if default is not None:
            return list(default)
        raise MalformedManifest(path, f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise MalformedManifest(path, f"key {key!r} must be a list of strings")
    return value


def spec_from_dict(doc: dict, root: Path, manifest_path: Path | None = None) -> BenchmarkSpec:
    """Validate a parsed manifest document into a BenchmarkSpec."""
    path = manifest_path or root / MANIFEST_NAME
    if not isinstance(doc, dict):
        raise MalformedManifest(path, "top level must be an object")

    bench_id = _want(doc, "id", str, path)
    if not bench_id:
        raise MalformedManifest(path, "id must be non-empty")

    motif_name = _want(doc, "motif", str, path)
    try:
        motif = Motif(motif_name)
    except ValueError:
        raise MalformedManifest(path, f"unknown motif {motif_name!r}") from None

    level = _want(doc, "level", int, path)
    if level not in (1, 2, 3):
        raise MalformedManifest(path, f"level must be 1, 2, or 3, got {level}")

    lang_name = _want(doc, "language", str, path)
    language = _LANGUAGE_SPELLINGS.get(lang_name)
    if language is None:
        raise MalformedManifest(path, f"unknown language {lang_name!r}")

    sources = _str_list(doc, "sources", path)
    if not sources:
        raise MalformedManifest(path, "sources must be non-empty")
    for rel in sources:
        p = Path(rel)
        if p.is_absolute() or ".." in p.parts:
            raise MalformedManifest(path, f"source path escapes root: {rel}")
        if not (root / rel).is_file():
            raise MissingSource(root / rel)

    entry_hotspot = doc.get("entry_hotspot")
    if entry_hotspot is not None and not isinstance(entry_hotspot, str):
        raise MalformedManifest(path, "entry_hotspot must be a string")
    if entry_hotspot:
        defs = 0
        for rel in sources:
            text = (root / rel).read_text(encoding="utf-8", errors="replace")
            defs += sum(1 for s in patch.list_functions(text) if s.name == entry_hotspot)
        if defs != 1:
            raise MalformedManifest(
                path,
                f"entry_hotspot {entry_hotspot!r} defined {defs} times across sources, need exactly 1",
            )

    bdoc = _want(doc, "build", dict, path)
    compiler_id = _want(bdoc, "compiler_id", str, path)
    build_timeout = float(bdoc.get("timeout_s", 120))
    if build_timeout <= 0:
        raise MalformedManifest(path, "build.timeout_s must be > 0")
    build = BuildRecipe(
        compiler_id=compiler_id,
        flags=tuple(_str_list(bdoc, "flags", path, default=[])),
        extra_objects=tuple(_str_list(bdoc, "extra_objects", path, default=[])),
        timeout_s=build_timeout,
    )

    rdoc = _want(doc, "run", dict, path)
    repetitions = rdoc.get("repetitions", 10)
    if not isinstance(repetitions, int) or isinstance(repetitions, bool) or repetitions < 1:
        raise MalformedManifest(path, "run.repetitions must be an integer >= 1")
    run_timeout = float(rdoc.get("timeout_s", 60))
    if run_timeout <= 0:
        raise MalformedManifest(path, "run.timeout_s must be > 0")
    stdin_file = rdoc.get("stdin_file")
    if stdin_file is not None:
        if not isinstance(stdin_file, str):
            raise MalformedManifest(path, "run.stdin_file must be a string")
        if not (root / stdin_file).is_file():
            raise MissingSource(root / stdin_file)
    env_doc = rdoc.get("env", {})
    if not isinstance(env_doc, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in env_doc.items()
    ):
        raise MalformedManifest(path, "run.env must map strings to strings")
    run = RunRecipe(
        args=tuple(_str_list(rdoc, "args", path, default=[])),
        stdin_file=stdin_file,
        repetitions=repetitions,
        timeout_s=run_timeout,
        env=tuple(sorted(env_doc.items())),
    )

    vdoc = _want(doc, "validation", dict, path)
    mode_name = _want(vdoc, "mode", str, path)
    try:
        mode = ValidationMode(mode_name)
    except ValueError:
        raise MalformedManifest(path, f"unknown validation mode {mode_name!r}") from None
    abs_tol = float(vdoc.get("abs_tol", 0.0))
    rel_tol = float(vdoc.get("rel_tol", 0.0))
    if abs_tol < 0 or rel_tol < 0:
        raise MalformedManifest(path, "validation tolerances must be >= 0")
    patterns = tuple(_str_list(vdoc, "ignore_patterns", path, default=[]))
    for pat in patterns:
        try:
            re.compile(pat)
        except re.error as exc:
            raise MalformedManifest(path, f"bad ignore pattern {pat!r}: {exc}") from None
    validation = ValidationPolicy(mode=mode, abs_tol=abs_tol, rel_tol=rel_tol, ignore_patterns=patterns)

    pdoc = doc.get("prep", {})
    if not isinstance(pdoc, dict):
        raise MalformedManifest(path, "prep must be an object")
    prep = PrepOptions(
        strip_omp_pragmas=bool(pdoc.get("strip_omp_pragmas", False)),
        expand_macros=bool(pdoc.get("expand_macros", False)),
    )

    return BenchmarkSpec(
        id=bench_id,
        motif=motif,
        level=level,
        language=language,
        source_files=tuple(sources),
        entry_hotspot=entry_hotspot or None,
        build=build,
        run=run,
        validation=validation,
        prep=prep,
        root=root,
    )


def spec_to_dict(spec: BenchmarkSpec) -> dict:
    """Manifest-shaped document; load(spec_to_dict(s)) equals s."""
    doc = {
        "id": spec.id,
        "motif": spec.motif.value,
        "level": spec.level,
        "language": spec.language.value,
        "sources": list(spec.source_files),
        "build": {
            "compiler_id": spec.build.compiler_id,
            "flags": list(spec.build.flags),
            "extra_objects": list(spec.build.extra_objects),
            "timeout_s": spec.build.timeout_s,
        },
        "run": {
            "args": list(spec.run.args),
            "repetitions": spec.run.repetitions,
            "timeout_s": spec.run.timeout_s,
            "env": {k: v for k, v in spec.run.env},
        },
        "validation": {
            "mode": spec.validation.mode.value,
            "abs_tol": spec.validation.abs_tol,
            "rel_tol": spec.validation.rel_tol,
            "ignore_patterns": list(spec.validation.ignore_patterns),
        },
        "prep": {
            "strip_omp_pragmas": spec.prep.strip_omp_pragmas,
            "expand_macros": spec.prep.expand_macros,
        },
    }
    if spec.entry_hotspot:
        doc["entry_hotspot"] = spec.entry_hotspot
    if spec.run.stdin_file:
        doc["run"]["stdin_file"] = spec.run.stdin_file
    return doc


def load_manifest(root: Path | str) -> list[BenchmarkSpec]:
    """All valid benchmark specs under ``root``, ordered by id."""
    root = Path(root)
    specs: list[BenchmarkSpec] = []
    seen: set[str] = set()
    for manifest_path in sorted(root.glob(f"*/{MANIFEST_NAME}")):
        bench_root = manifest_path.parent
        try:
            doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedManifest(manifest_path, str(exc)) from None
        spec = spec_from_dict(doc, bench_root, manifest_path)
        if spec.id in seen:
            raise DuplicateId(spec.id)
        seen.add(spec.id)
        specs.append(spec)
    specs.sort(key=lambda s: s.id)
    return specs


def select(
    specs: list[BenchmarkSpec],
    levels: set[int] | None = None,
    motifs: set[Motif] | None = None,
    ids: set[str] | None = None,
) -> list[BenchmarkSpec]:
    """Order-preserving subset matching every provided filter."""
    out = []
    for spec in specs:
        if levels is not None and spec.level not in levels:
            continue
        if motifs is not None and spec.motif not in motifs:
            continue
        if ids is not None and spec.id not in ids:
            continue
        out.append(spec)
    return out


def _strip_omp_lines(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    return b"".join(ln for ln in lines if not _PRAGMA_OMP.match(ln))


def _default_preprocessor(language: Language) -> list[str]:
    names = ["gcc", "cc", "clang"] if language is Language.C else ["g++", "c++", "clang++"]
    for name in names:
        found = shutil.which(name)
        if found:
            return [found]
    raise PreprocessFailure(f"no preprocessor found among {names}")


def _preprocess(argv: list[str], timeout_s: float) -> bytes:
    """The preprocessor's stdout. It runs like a compiler: in its own
    session, into anonymous files, its process group killed at
    ``timeout_s``."""
    # toolchain imports this module, so its child helpers load late.
    from .toolchain import _read_all, _reap, _spawn

    with tempfile.TemporaryFile(buffering=0) as out, tempfile.TemporaryFile(buffering=0) as err:
        try:
            proc = _spawn(
                argv, time.perf_counter() + timeout_s,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
        except OSError as exc:
            raise PreprocessFailure(str(exc)) from None
        try:
            returncode = proc.wait()
        finally:
            timed_out = _reap(proc)
        if timed_out:
            raise PreprocessFailure(f"timed out after {timeout_s}s: {' '.join(argv)}")
        if returncode != 0:
            raise PreprocessFailure(_read_all(err.fileno()).decode(errors="replace"))
        return _read_all(out.fileno())


def prepare_sources(
    spec: BenchmarkSpec,
    work_dir: Path | str,
    preprocessor: list[str] | None = None,
) -> Path:
    """Copy the benchmark into ``work_dir`` and apply prep options.

    With all options off the copy is byte-identical. Pragma stripping
    drops whole lines that begin (after whitespace) with ``#pragma omp``.
    Macro expansion runs each listed source through the preprocessor
    (``-E -P``) and runs after stripping so removed pragmas stay removed.
    A preprocessor still running at ``build.timeout_s`` is killed with
    its whole process group and raises PreprocessFailure.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    shutil.copytree(
        spec.root,
        work_dir,
        ignore=shutil.ignore_patterns(MANIFEST_NAME),
        dirs_exist_ok=True,
    )

    if spec.prep.strip_omp_pragmas:
        for path in sorted(work_dir.rglob("*")):
            if path.is_file() and path.suffix in _C_FAMILY_SUFFIXES:
                path.write_bytes(_strip_omp_lines(path.read_bytes()))

    if spec.prep.expand_macros:
        command = preprocessor or _default_preprocessor(spec.language)
        for rel in spec.source_files:
            src = work_dir / rel
            argv = [*command, "-E", "-P", *spec.build.flags, f"-I{src.parent}", str(src)]
            src.write_bytes(_preprocess(argv, spec.build.timeout_s))

    return work_dir
