"""Tests for manifest loading, selection, and source preparation."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import time

import pytest
from hypothesis import given, settings, strategies as st

from perfagent.manifest import (
    BenchmarkSpec,
    DuplicateId,
    MalformedManifest,
    ManifestError,
    MissingSource,
    Motif,
    PreprocessFailure,
    ValidationMode,
    load_manifest,
    prepare_sources,
    select,
)

import kernels
from conftest import process_running, write_bench, write_full_suite

TRIVIAL_MAIN = "int main(void) { return 0; }\n"


def test_load_orders_by_id(tmp_path):
    write_bench(tmp_path, "matmul", {"main.c": TRIVIAL_MAIN})
    write_bench(tmp_path, "jacobi1d", {"main.c": TRIVIAL_MAIN}, motif="Stencils")
    specs = load_manifest(tmp_path)
    assert [s.id for s in specs] == ["jacobi1d", "matmul"]


def test_missing_root_rejected(tmp_path):
    (tmp_path / "file").write_text("")
    for root in (tmp_path / "absent", tmp_path / "file"):
        with pytest.raises(ManifestError) as info:
            load_manifest(root)
        assert str(info.value) == f"{root}: not a directory"


def test_missing_source_rejected(tmp_path):
    write_bench(tmp_path, "broken", {"main.c": TRIVIAL_MAIN}, sources=["gone.c"])
    with pytest.raises(MissingSource):
        load_manifest(tmp_path)


def test_duplicate_id_rejected(tmp_path):
    write_bench(tmp_path, "a_dir", {"main.c": TRIVIAL_MAIN}, id="same")
    write_bench(tmp_path, "b_dir", {"main.c": TRIVIAL_MAIN}, id="same")
    # write_bench sets id after merge; rewrite manifests to force the clash
    for d in ("a_dir", "b_dir"):
        mpath = tmp_path / d / "bench.json"
        doc = json.loads(mpath.read_text())
        doc["id"] = "same"
        mpath.write_text(json.dumps(doc))
    with pytest.raises(DuplicateId):
        load_manifest(tmp_path)


def test_unknown_motif_rejected(tmp_path):
    write_bench(tmp_path, "odd", {"main.c": TRIVIAL_MAIN}, motif="QuantumLeaps")
    with pytest.raises(MalformedManifest):
        load_manifest(tmp_path)


def test_bad_level_rejected(tmp_path):
    write_bench(tmp_path, "odd", {"main.c": TRIVIAL_MAIN}, level=4)
    with pytest.raises(MalformedManifest):
        load_manifest(tmp_path)


def test_malformed_json_rejected(tmp_path):
    bench = tmp_path / "bad"
    bench.mkdir()
    (bench / "bench.json").write_text("{not json")
    with pytest.raises(MalformedManifest):
        load_manifest(tmp_path)


def test_full_suite_shape(tmp_path):
    write_full_suite(tmp_path)
    specs = load_manifest(tmp_path)
    assert len(specs) == 24
    assert {s.motif for s in specs} == set(Motif)
    assert [s.id for s in specs] == sorted(s.id for s in specs)


def test_level_one_selection_matches_table(tmp_path):
    write_full_suite(tmp_path)
    specs = load_manifest(tmp_path)
    assert len(select(specs, levels={1})) == 14
    assert len(select(specs, levels={2})) == 6
    assert len(select(specs, levels={3})) == 4


def test_empty_filter_is_identity(tmp_path):
    write_full_suite(tmp_path)
    specs = load_manifest(tmp_path)
    assert select(specs) == specs


def test_motif_filter(tmp_path):
    write_full_suite(tmp_path)
    specs = load_manifest(tmp_path)
    stencils = select(specs, motifs={Motif.STENCILS})
    assert [s.id for s in stencils] == ["jacobi1d", "lbm_d2q37"]


def test_entry_hotspot_must_be_defined_once(tmp_path):
    src = "void work(void) { }\nint main(void) { work(); return 0; }\n"
    write_bench(tmp_path, "good", {"main.c": src}, entry_hotspot="work")
    specs = load_manifest(tmp_path)
    assert specs[0].entry_hotspot == "work"

    write_bench(tmp_path / "bad1", "nodef", {"main.c": src}, entry_hotspot="missing")
    with pytest.raises(MalformedManifest):
        load_manifest(tmp_path / "bad1")

    write_bench(
        tmp_path / "bad2",
        "twodefs",
        {"a.c": "void work(void) { }\n", "b.c": "void work(void) { }\n"},
        entry_hotspot="work",
        sources=["a.c", "b.c"],
    )
    with pytest.raises(MalformedManifest):
        load_manifest(tmp_path / "bad2")


def test_prepare_verbatim_copy(tmp_path):
    files = {"main.c": kernels.matmul_ijk(16), "util.h": "#define UNUSED 1\n"}
    write_bench(tmp_path / "suite", "plain", {**files})
    spec = load_manifest(tmp_path / "suite")[0]
    out = prepare_sources(spec, tmp_path / "work")
    for name, text in files.items():
        assert (out / name).read_bytes() == text.encode()
    assert not (out / "bench.json").exists()


# A directive continued over a second line, as ``reduction(+:s)``
# often is.
CONTINUED_OMP = """\
#include <stdio.h>

int main(void) {
    long s = 0;
    #pragma omp parallel for \\
        reduction(+:s)
    for (long i = 1; i <= 1000; i++)
        s += i;
    printf("%ld\\n", s);
    return 0;
}
"""


# Directives with comments before and inside them, which C reads as
# blanks, and the same source without them.
COMMENTED_OMP = """\
#include <stdio.h>

int main(void) {
    long s = 0;
#/**/pragma omp parallel for
    for (long i = 1; i <= 1000; i++) {
        #pragma /* c */ omp atomic
        s += i;
    }
    /* lead */ #pragma omp parallel
    printf("%ld\\n", s);
    return 0;
}
"""
COMMENTED_SERIAL = """\
#include <stdio.h>

int main(void) {
    long s = 0;
    for (long i = 1; i <= 1000; i++) {
        s += i;
    }
    printf("%ld\\n", s);
    return 0;
}
"""


@pytest.mark.parametrize("src, expected", [
    (kernels.matmul_omp_ikj(16), kernels.matmul_ikj(16)),
    (CONTINUED_OMP,
     CONTINUED_OMP.replace("    #pragma omp parallel for \\\n        reduction(+:s)\n", "")),
    (COMMENTED_OMP, COMMENTED_SERIAL),
], ids=["one-line", "continued", "commented"])
def test_prepare_strips_omp_pragma_lines_only(tmp_path, src, expected):
    """Each directive goes whole, and nothing else does; the stripped
    source builds and prints what the original prints built serially."""
    assert expected != src
    write_bench(
        tmp_path / "suite", "omp", {"main.c": src}, prep={"strip_omp_pragmas": True}
    )
    spec = load_manifest(tmp_path / "suite")[0]
    out = prepare_sources(spec, tmp_path / "work")
    got = (out / "main.c").read_text()
    assert "#pragma omp" not in got
    assert got == expected

    gcc = shutil.which("gcc")
    assert gcc, "gcc required"
    printed = []
    for name, text in (("serial", src), ("stripped", got)):
        (tmp_path / f"{name}.c").write_text(text)
        subprocess.run([gcc, "-O0", "-o", tmp_path / name, tmp_path / f"{name}.c"], check=True)
        printed.append(subprocess.run([tmp_path / name], capture_output=True, check=True).stdout)
    assert printed[0] == printed[1] != b""


def test_prepare_expands_macros_like_the_preprocessor(tmp_path):
    src = "#define N 4\nint arr[N];\nint main(void) { return N; }\n"
    write_bench(
        tmp_path / "suite", "macro", {"main.c": src}, prep={"expand_macros": True}
    )
    spec = load_manifest(tmp_path / "suite")[0]

    gcc = shutil.which("gcc")
    assert gcc, "gcc required"
    oracle = subprocess.run(
        [gcc, "-E", "-P", "-O2", str(tmp_path / "suite" / "macro" / "main.c")],
        capture_output=True,
        check=True,
    ).stdout

    out = prepare_sources(spec, tmp_path / "work", preprocessor=[gcc])
    got = (out / "main.c").read_bytes()
    assert got == oracle
    assert b"int arr[4]" in got.replace(b"  ", b" ")


def test_expansion_resolves_relative_flags_in_the_tree(tmp_path, monkeypatch):
    """``-Iinc`` names the benchmark's inc/, wherever the harness was started."""
    src = '#include "k.h"\nint main(void) { return K; }\n'
    write_bench(
        tmp_path / "suite", "inc", {"main.c": src, "inc/k.h": "#define K 5\n"},
        build={"flags": ["-Iinc"]}, prep={"expand_macros": True},
    )
    spec = load_manifest(tmp_path / "suite")[0]
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    out = prepare_sources(spec, "work", preprocessor=[shutil.which("gcc")])
    assert b"return 5;" in (out / "main.c").read_bytes()


def test_preprocess_failure_reported(tmp_path):
    src = "#include \"nowhere_to_be_found.h\"\nint main(void) { return 0; }\n"
    write_bench(
        tmp_path / "suite", "bad", {"main.c": src}, prep={"expand_macros": True}
    )
    spec = load_manifest(tmp_path / "suite")[0]
    with pytest.raises(PreprocessFailure):
        prepare_sources(spec, tmp_path / "work", preprocessor=[shutil.which("gcc")])


def test_preprocessor_timeout_kills_its_process_group(tmp_path):
    pids = tmp_path / "pids"
    fake = tmp_path / "cpp"
    fake.write_text(
        "#!/bin/sh\n"
        f'sleep 4.37 & echo $! >> "{pids}"\n'
        f'echo $$ >> "{pids}"\n'
        "exec sleep 4.37\n"
    )
    fake.chmod(0o755)
    write_bench(
        tmp_path / "suite", "slow", {"main.c": TRIVIAL_MAIN},
        build={"timeout_s": 0.5}, prep={"expand_macros": True},
    )
    spec = load_manifest(tmp_path / "suite")[0]

    start = time.perf_counter()
    with pytest.raises(PreprocessFailure, match="timed out"):
        prepare_sources(spec, tmp_path / "work", preprocessor=[str(fake)])
    assert time.perf_counter() - start < 3.0
    time.sleep(0.2)
    sleepers = [int(line) for line in pids.read_text().split()]
    try:
        assert len(sleepers) == 2
        assert not any(process_running(pid) for pid in sleepers), "a sleeper outlived the timeout"
    finally:
        for pid in sleepers:
            if process_running(pid):
                os.kill(pid, signal.SIGKILL)


def test_spec_roundtrip(tmp_path):
    """What the manifest states reaches the loaded spec."""
    write_bench(
        tmp_path,
        "round",
        {"main.c": "void work(void) { }\nint main(void) { return 0; }\n"},
        entry_hotspot="work",
        run={"repetitions": 7, "env": {"SEED": "1"}},
        validation={"mode": "NumericTokens", "abs_tol": 1e-6, "rel_tol": 1e-9,
                    "ignore_patterns": ["^Time"]},
    )
    spec = load_manifest(tmp_path)[0]
    assert spec.entry_hotspot == "work"
    assert spec.run.repetitions == 7
    assert spec.run.env == (("SEED", "1"),)
    assert spec.run.env_dict() == {"SEED": "1"}
    assert spec.validation.mode is ValidationMode.NUMERIC_TOKENS
    assert (spec.validation.abs_tol, spec.validation.rel_tol) == (1e-6, 1e-9)
    assert spec.validation.ignore_patterns == ("^Time",)


def test_repetitions_default_is_ten(tmp_path):
    bench = write_bench(tmp_path, "defaults", {"main.c": TRIVIAL_MAIN})
    doc = json.loads((bench / "bench.json").read_text())
    del doc["run"]["repetitions"]
    (bench / "bench.json").write_text(json.dumps(doc))
    spec = load_manifest(tmp_path)[0]
    assert spec.run.repetitions == 10


def test_null_optional_fields_are_absent(tmp_path):
    write_bench(tmp_path, "nulls", {"main.c": TRIVIAL_MAIN},
                entry_hotspot=None, run={"stdin_file": None})
    spec = load_manifest(tmp_path)[0]
    assert spec.entry_hotspot is None
    assert spec.run.stdin_file is None


@pytest.mark.parametrize("section, values", [
    ("build", {"timeout_s": [5]}),
    ("build", {"timeout_s": float("nan")}),
    ("run", {"timeout_s": float("inf")}),
    ("run", {"timeout_s": "30"}),
    ("run", {"timeout_s": 10**400}),
    ("validation", {"abs_tol": float("nan")}),
    ("validation", {"rel_tol": [1e-9]}),
    ("prep", {"strip_omp_pragmas": "false"}),
    ("prep", {"expand_macros": 1}),
    ("build", {"flags": "-O2"}),
    ("build", {"extra_objects": [1]}),
    ("run", {"args": 5}),
    ("run", {"repetitions": "3"}),
    ("run", {"env": {"A": 1}}),
    ("validation", {"ignore_patterns": "x"}),
    ("run", {"stdin_file": "/etc/hostname"}),
    ("run", {"stdin_file": "../../outside.txt"}),
    ("build", {"extra_objects": ["../../outside.txt"]}),
    ("build", {"extra_objects": ["/etc/hostname"]}),
])
def test_numbers_must_be_finite_and_flags_boolean(tmp_path, section, values):
    write_bench(tmp_path, "odd", {"main.c": TRIVIAL_MAIN}, **{section: values})
    key = f"'{section}.{next(iter(values))}'"
    with pytest.raises(MalformedManifest, match=key):
        load_manifest(tmp_path)


@pytest.mark.parametrize("section, key, value", [
    ("run", "stdin_file", lambda rel: rel),
    ("build", "extra_objects", lambda rel: [rel]),
])
def test_paths_follow_the_sources_rule(tmp_path, section, key, value):
    """Like a source, the path must name a file under the root: one outside
    it is refused even when it exists, and a missing one is a
    MissingSource."""
    root = tmp_path / "suite"
    outside = tmp_path / "outside.txt"
    outside.write_text("x\n")
    for rel in ("../../outside.txt", str(outside)):
        write_bench(root, "odd", {"main.c": TRIVIAL_MAIN}, **{section: {key: value(rel)}})
        with pytest.raises(MalformedManifest, match=f"'{section}.{key}'"):
            load_manifest(root)
    write_bench(root, "odd", {"main.c": TRIVIAL_MAIN}, **{section: {key: value("missing.o")}})
    with pytest.raises(MissingSource):
        load_manifest(root)
    (root / "odd" / "missing.o").write_text("")
    spec = load_manifest(root)[0]
    assert getattr(getattr(spec, section), key) == (
        "missing.o" if key == "stdin_file" else ("missing.o",)
    )


@pytest.fixture(scope="module")
def suite_specs(tmp_path_factory) -> list[BenchmarkSpec]:
    root = tmp_path_factory.mktemp("suite")
    write_full_suite(root)
    return load_manifest(root)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_select_is_pure_order_preserving_filter(suite_specs, data):
    specs = suite_specs
    levels = data.draw(st.one_of(st.none(), st.sets(st.sampled_from([1, 2, 3]))))
    motifs = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(list(Motif)))))
    ids = data.draw(
        st.one_of(st.none(), st.sets(st.sampled_from([s.id for s in specs])))
    )
    picked = select(specs, levels=levels, motifs=motifs, ids=ids)

    brute = [
        s
        for s in specs
        if (levels is None or s.level in levels)
        and (motifs is None or s.motif in motifs)
        and (ids is None or s.id in ids)
    ]
    assert picked == brute
    positions = [specs.index(s) for s in picked]
    assert positions == sorted(positions)
