"""Benchmark registry: manifest loading, filtering, and source preparation.

Each benchmark lives in its own directory containing a ``bench.json``
manifest plus sources; adding a benchmark means dropping a directory, no
central registry edits. Manifests validate eagerly so experiment drivers
can assume well-formed specs.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from enum import Enum, EnumMeta
from pathlib import Path
from types import GenericAlias

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


_REQUIRED = object()  # ``want``'s default for a key that must be present

_KIND_NAMES = {
    str: "a string", int: "an integer", bool: "true or false",
    float: "a finite number", dict: "an object", list: "a list",
}


def _fits(value, kind) -> bool:
    if isinstance(kind, GenericAlias):  # list[str], dict[str, list[str]], ...
        items = value.values() if isinstance(value, dict) else value
        return isinstance(value, kind.__origin__) and all(_fits(v, kind.__args__[-1]) for v in items)
    if kind is float:
        return isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def want(doc, name: str, kind, fail, default=_REQUIRED):
    """``doc[key]`` for ``name`` = ``"section.key"`` (or ``"key"``) if it is
    a ``kind``, else raise ``fail(reason)`` with a reason naming ``name``.

    Kinds: str, int, bool, dict, list; float, a finite number (an integer
    is converted); ``list[str]`` and ``dict[str, T]``, items checked as
    kinds; an Enum, by value. An absent key, or a null one whose
    ``default`` is None, gives ``default``; with none given it fails.
    """
    section, _, key = name.rpartition(".")
    if not isinstance(doc, dict):
        raise fail(f"{section or 'top level'} must be an object")
    value = doc.get(key)
    if key not in doc or value is None and default is None:
        if default is _REQUIRED:
            raise fail(f"missing key {name!r}")
        return default
    if isinstance(kind, EnumMeta):
        try:
            return kind(value)
        except ValueError:
            names = ", ".join(member.value for member in kind)
            raise fail(f"key {name!r} must be one of {names}, not {value!r}") from None
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if not _fits(value, kind):
        raise fail(f"key {name!r} must be {_KIND_NAMES.get(kind, kind)}")
    return value


def read_json(path: Path | str, fail):
    """The JSON document in the file at ``path``; a file that is not
    UTF-8, or text that is not JSON, raises ``fail(reason)`` with the
    decoder's reason."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise fail(f"not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise fail(f"not valid JSON: {exc}") from None


def is_plain_name(name: str) -> bool:
    """True when ``name`` is one path component that stays where it is
    joined: not empty, not "." or "..", without "/" or NUL."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


def spec_from_dict(doc: dict, root: Path, manifest_path: Path | None = None) -> BenchmarkSpec:
    """Validate a parsed manifest document into a BenchmarkSpec."""
    path = manifest_path or root / MANIFEST_NAME

    def fail(reason: str) -> MalformedManifest:
        return MalformedManifest(path, reason)

    bench_id = want(doc, "id", str, fail)
    if not is_plain_name(bench_id):
        raise fail(f"id {bench_id!r} must be one plain path component")
    motif = want(doc, "motif", Motif, fail)

    level = want(doc, "level", int, fail)
    if level not in (1, 2, 3):
        raise fail(f"level must be 1, 2, or 3, got {level}")

    lang_name = want(doc, "language", str, fail)
    language = _LANGUAGE_SPELLINGS.get(lang_name)
    if language is None:
        raise fail(f"unknown language {lang_name!r}")

    def under_root(name: str, rel: str) -> str:
        """``rel``, the key ``name``'s path, if it names a file under the root."""
        if Path(rel).is_absolute() or ".." in Path(rel).parts:
            raise fail(f"key {name!r}: path escapes root: {rel}")
        if not (root / rel).is_file():
            raise MissingSource(root / rel)
        return rel

    sources = want(doc, "sources", list[str], fail)
    if not sources:
        raise fail("sources must be non-empty")
    for rel in sources:
        under_root("sources", rel)

    entry_hotspot = want(doc, "entry_hotspot", str, fail, None)
    if entry_hotspot:
        defs = 0
        for rel in sources:
            text = (root / rel).read_text(encoding="utf-8", errors="replace")
            try:
                spans = patch.list_functions(text)
            except patch.UnbalancedBraces as exc:
                raise fail(f"{rel}: {exc}") from None
            defs += sum(1 for s in spans if s.name == entry_hotspot)
        if defs != 1:
            raise fail(
                f"entry_hotspot {entry_hotspot!r} defined {defs} times across sources, need exactly 1"
            )

    bdoc = want(doc, "build", dict, fail)
    compiler_id = want(bdoc, "build.compiler_id", str, fail)
    build_timeout = want(bdoc, "build.timeout_s", float, fail, 120.0)
    if build_timeout <= 0:
        raise fail("build.timeout_s must be > 0")
    objects = want(bdoc, "build.extra_objects", list[str], fail, [])
    build = BuildRecipe(
        compiler_id=compiler_id,
        flags=tuple(want(bdoc, "build.flags", list[str], fail, [])),
        extra_objects=tuple(under_root("build.extra_objects", rel) for rel in objects),
        timeout_s=build_timeout,
    )

    rdoc = want(doc, "run", dict, fail)
    repetitions = want(rdoc, "run.repetitions", int, fail, 10)
    if repetitions < 1:
        raise fail("run.repetitions must be >= 1")
    run_timeout = want(rdoc, "run.timeout_s", float, fail, 60.0)
    if run_timeout <= 0:
        raise fail("run.timeout_s must be > 0")
    stdin_file = want(rdoc, "run.stdin_file", str, fail, None)
    if stdin_file is not None:
        under_root("run.stdin_file", stdin_file)
    run = RunRecipe(
        args=tuple(want(rdoc, "run.args", list[str], fail, [])),
        stdin_file=stdin_file,
        repetitions=repetitions,
        timeout_s=run_timeout,
        env=tuple(sorted(want(rdoc, "run.env", dict[str, str], fail, {}).items())),
    )

    vdoc = want(doc, "validation", dict, fail)
    mode = want(vdoc, "validation.mode", ValidationMode, fail)
    abs_tol = want(vdoc, "validation.abs_tol", float, fail, 0.0)
    rel_tol = want(vdoc, "validation.rel_tol", float, fail, 0.0)
    if abs_tol < 0 or rel_tol < 0:
        raise fail("validation tolerances must be >= 0")
    patterns = tuple(want(vdoc, "validation.ignore_patterns", list[str], fail, []))
    for pat in patterns:
        try:
            re.compile(pat)
        except re.error as exc:
            raise fail(f"bad ignore pattern {pat!r}: {exc}") from None
    validation = ValidationPolicy(mode=mode, abs_tol=abs_tol, rel_tol=rel_tol, ignore_patterns=patterns)

    pdoc = want(doc, "prep", dict, fail, {})
    prep = PrepOptions(
        strip_omp_pragmas=want(pdoc, "prep.strip_omp_pragmas", bool, fail, False),
        expand_macros=want(pdoc, "prep.expand_macros", bool, fail, False),
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


def load_manifest(root: Path | str) -> list[BenchmarkSpec]:
    """All valid benchmark specs under ``root``, ordered by id; a ``root``
    that is not a directory is a ManifestError."""
    root = Path(root)
    if not root.is_dir():
        raise ManifestError(f"{root}: not a directory")
    specs: list[BenchmarkSpec] = []
    seen: set[str] = set()
    for manifest_path in sorted(root.glob(f"*/{MANIFEST_NAME}")):
        bench_root = manifest_path.parent
        try:
            doc = read_json(manifest_path, lambda reason: MalformedManifest(manifest_path, reason))
        except OSError as exc:
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


def _preprocess(argv: list[str], cwd: Path, timeout_s: float) -> bytes:
    """The preprocessor's stdout. It runs like a compiler: in ``cwd``, in
    its own session, into anonymous files, its process group killed at
    ``timeout_s``."""
    # toolchain imports this module, so its child helpers load late.
    from .toolchain import TIMEOUT, _read_all, _run

    with tempfile.TemporaryFile(buffering=0) as out, tempfile.TemporaryFile(buffering=0) as err:
        try:
            status, _ = _run(
                argv, timeout_s, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd,
            )
        except OSError as exc:
            raise PreprocessFailure(str(exc)) from None
        if status == TIMEOUT:
            raise PreprocessFailure(f"timed out after {timeout_s}s: {' '.join(argv)}")
        if status != 0:
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
    Macro expansion runs each listed source through ``preprocessor``
    (``-E -P``), the command that builds it (``tc.ToolchainConfig.command``),
    or else the first gcc, cc or clang on PATH (g++, c++ or clang++ for
    C++). It runs in the root of the prepared tree, so a relative flag
    such as ``-Iinc`` names a directory of the tree, and after stripping
    so removed pragmas stay removed.
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
        root = work_dir.absolute()
        for rel in spec.source_files:
            src = root / rel
            argv = [*command, "-E", "-P", *spec.build.flags, f"-I{src.parent}", str(src)]
            src.write_bytes(_preprocess(argv, root, spec.build.timeout_s))

    return work_dir
