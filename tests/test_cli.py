"""End-to-end command-line runs against fixture benchmarks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfagent.cli import main

from conftest import wrapped_gcc, write_bench, write_transcript
from kernels import fenced, hotspot_program, kernel_replacement, sleeper

pytestmark = pytest.mark.usefixtures("toolchain_config")


def suite(root):
    write_bench(root, "alpha", {"main.c": sleeper(100)},
                build={"flags": ["-O0"]}, run={"repetitions": 2})
    write_bench(root, "beta", {"main.c": sleeper(100)},
                build={"flags": ["-O0"]}, run={"repetitions": 2}, level=2)
    return root


def replay_config(dir, texts):
    write_transcript(dir / "transcript.json", texts)
    config = dir / "provider.json"
    config.write_text(json.dumps({
        "provider_id": "replay",
        "kind": "replay",
        "transcript_path": "transcript.json",
    }))
    return config


class TestBench:
    def test_list_prints_every_benchmark(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        assert main(["bench", "list", "--root", str(tmp_path / "suite")]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out
        assert "level 2" in out

    def test_list_filters(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        main(["bench", "list", "--root", str(tmp_path / "suite"), "--level", "2"])
        out = capsys.readouterr().out
        assert "beta" in out and "alpha" not in out

    def test_prepare_copies_sources(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        out_dir = tmp_path / "prepped"
        code = main([
            "bench", "prepare", "--root", str(tmp_path / "suite"),
            "--out", str(out_dir), "--select", "alpha",
        ])
        assert code == 0
        assert (out_dir / "alpha" / "main.c").exists()
        assert not (out_dir / "beta").exists()

    def test_prepare_nothing_selected_fails(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        code = main([
            "bench", "prepare", "--root", str(tmp_path / "suite"),
            "--out", str(tmp_path / "out"), "--select", "nope",
        ])
        assert code == 1


class TestExperimentCommands:
    def test_ex1_writes_reports(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, [fenced(sleeper(50)), fenced(sleeper(50))])
        out_dir = tmp_path / "out"
        code = main([
            "ex1", "--root", str(tmp_path / "suite"),
            "--provider", str(config), "--out", str(out_dir),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "alpha: Correct" in stdout
        for name in ("results.csv", "report.md", "report.json"):
            assert (out_dir / name).exists()
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_ex1_with_relative_paths(self, tmp_path, capsys, monkeypatch):
        suite(tmp_path / "suite")
        replay_config(tmp_path, [fenced(sleeper(50)), fenced(sleeper(50))])
        monkeypatch.chdir(tmp_path)
        code = main(["ex1", "--root", "suite", "--provider", "provider.json", "--out", "out"])
        assert code == 0
        assert "alpha: Correct" in capsys.readouterr().out
        assert (tmp_path / "out" / "report.json").exists()

    def test_ex1_rerun_into_one_work_dir_compiles_nothing(
        self, tmp_path, capsys, toolchain_config
    ):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, [fenced(sleeper(50)), fenced(sleeper(50))])
        log = tmp_path / "spawns.log"
        script = wrapped_gcc(tmp_path, toolchain_config, f'echo "$*" >> "{log}"')
        toolchain = tmp_path / "toolchain.json"
        toolchain.write_text(json.dumps({"compilers": {"gcc": {
            "c_path": script.compilers["gcc"].c_path, "version_string": "wrapped gcc",
        }}}))
        spawns, rows = [], []
        for out in ("out1", "out2"):
            code = main([
                "ex1", "--root", str(tmp_path / "suite"), "--provider", str(config),
                "--toolchain", str(toolchain), "--out", str(tmp_path / out),
                "--work", str(tmp_path / "work"),
            ])
            assert code == 0
            assert "alpha: Correct" in capsys.readouterr().out
            spawns.append(len(log.read_text().splitlines()))
            doc = json.loads((tmp_path / out / "report.json").read_text())
            rows.append([(r["benchmark_id"], r["category"], r["variant_tag"])
                         for r in doc["rows"]])
        assert spawns == [4, 4]
        assert rows[1] == rows[0]

    def test_ex3_counts_flag(self, tmp_path, capsys):
        root = tmp_path / "suite"
        write_bench(root, "solo", {"main.c": sleeper(60)},
                    build={"flags": ["-O0", "-fopenmp"]}, run={"repetitions": 2})
        parallel = sleeper(30).replace(
            "    work();", "#pragma omp parallel\n    { }\n    work();"
        )
        config = replay_config(tmp_path, [fenced(parallel)])
        out_dir = tmp_path / "out"
        code = main([
            "ex3", "--root", str(root), "--provider", str(config),
            "--out", str(out_dir), "--counts", "2,4",
        ])
        assert code == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["rows"][0]["thread_results"].keys() == {"2", "4"}

    def test_bad_counts_fail_cleanly(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, ["x"])
        code = main([
            "ex3", "--root", str(tmp_path / "suite"),
            "--provider", str(config), "--out", str(tmp_path / "out"),
            "--counts", ",",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_provider_config(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        code = main([
            "ex1", "--root", str(tmp_path / "suite"),
            "--provider", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["provider_id", "kind"])
    def test_provider_config_missing_key_fails_cleanly(self, tmp_path, capsys, missing):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, ["x"])
        doc = json.loads(config.read_text())
        del doc[missing]
        config.write_text(json.dumps(doc))
        code = main([
            "ex1", "--root", str(tmp_path / "suite"),
            "--provider", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and missing in err

    @pytest.mark.parametrize("doc, named", [
        ({"compilers": {"gcc": {"cxx_path": "g++"}}}, "c_path"),
        ([], "object"),
        ({"compilers": []}, "compilers"),
        ({"default_flags": {"gcc": 5}}, "default_flags"),
        ({"compilers": {"gcc": {"c_path": "gcc", "version_string": 5}}},
         "toolchain.json: key 'compilers.gcc.version_string'"),
        ({"compilers": {"gcc": {"c_path": "gcc", "cxx_path": 5}}},
         "toolchain.json: key 'compilers.gcc.cxx_path'"),
        ('{"compilers": ', "toolchain.json: not valid JSON"),
    ])
    def test_malformed_toolchain_config_fails_cleanly(self, tmp_path, capsys, doc, named):
        """``doc`` is written as JSON, or as it is when it is text."""
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, ["x"])
        toolchain = tmp_path / "toolchain.json"
        toolchain.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main([
            "ex1", "--root", str(tmp_path / "suite"), "--provider", str(config),
            "--toolchain", str(toolchain), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]

    def test_compiler_that_cannot_be_started_fails_cleanly(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, ["x"])
        wrapper = tmp_path / "cc"
        wrapper.write_text('#!/bin/sh\nexec gcc "$@"\n')
        wrapper.chmod(0o644)
        toolchain = tmp_path / "toolchain.json"
        toolchain.write_text(json.dumps({"compilers": {"gcc": {
            "c_path": str(wrapper), "version_string": "wrapped gcc",
        }}}))
        code = main([
            "ex1", "--root", str(tmp_path / "suite"), "--provider", str(config),
            "--toolchain", str(toolchain), "--out", str(tmp_path / "out"),
            "--work", str(tmp_path / "work"),
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: cannot run compiler {wrapper}: Permission denied"]

    @pytest.mark.parametrize("key, value", [("transcript_path", 5), ("temperature", "hot")])
    def test_mistyped_provider_config_fails_cleanly(self, tmp_path, capsys, key, value):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, ["x"])
        config.write_text(json.dumps({**json.loads(config.read_text()), key: value}))
        code = main([
            "ex1", "--root", str(tmp_path / "suite"),
            "--provider", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"provider.json: key '{key}'" in lines[0]

    def test_import_tool(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        tree = tmp_path / "ext" / "alpha"
        tree.mkdir(parents=True)
        (tree / "main.c").write_text(sleeper(50))
        out_dir = tmp_path / "out"
        code = main([
            "import-tool", "--root", str(tmp_path / "suite"),
            "--dir", str(tmp_path / "ext"), "--tool-id", "srcfix",
            "--out", str(out_dir),
        ])
        assert code == 0
        assert "alpha: Correct" in capsys.readouterr().out
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["rows"][0]["tool_id"] == "srcfix"


class TestReportCommand:
    def test_rerender_is_byte_identical(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, [fenced(sleeper(50)), fenced(sleeper(50))])
        out_dir = tmp_path / "out"
        main([
            "ex1", "--root", str(tmp_path / "suite"),
            "--provider", str(config), "--out", str(out_dir),
        ])
        again = tmp_path / "again"
        code = main([
            "report", "--in", str(out_dir / "report.json"),
            "--format", "markdown", "--out", str(again),
        ])
        assert code == 0
        assert (again / "report.md").read_bytes() == \
               (out_dir / "report.md").read_bytes()


def _unbalanced_hotspot(tmp_path):
    source = "void kernel(void) {\nint main(void) { return 0; }\n"
    write_bench(tmp_path / "suite", "open", {"main.c": source}, entry_hotspot="kernel")
    return ["bench", "list", "--root", str(tmp_path / "suite")], "bench.json"


def _escaping_manifest_id(tmp_path):
    bench = write_bench(tmp_path / "suite", "alpha", {"main.c": sleeper(10)})
    doc = json.loads((bench / "bench.json").read_text())
    doc["id"] = "../../escape"
    (bench / "bench.json").write_text(json.dumps(doc))
    return ["bench", "list", "--root", str(tmp_path / "suite")], "bench.json"


def _escaping_stdin_file(tmp_path):
    write_bench(tmp_path / "suite", "alpha", {"main.c": sleeper(10)},
                run={"stdin_file": "../outside.txt"})
    (tmp_path / "suite" / "outside.txt").write_text("1 2\n")
    return [
        "bench", "prepare", "--root", str(tmp_path / "suite"), "--out", str(tmp_path / "out"),
    ], "'run.stdin_file'"


def _escaping_tool_id(tmp_path):
    suite(tmp_path / "suite")
    tree = tmp_path / "ext" / "alpha"
    tree.mkdir(parents=True)
    (tree / "main.c").write_text(sleeper(10))
    return [
        "import-tool", "--root", str(tmp_path / "suite"), "--dir", str(tmp_path / "ext"),
        "--tool-id", "../../../escape", "--out", str(tmp_path / "out"),
    ], "escape"


def _missing_tool_dir(tmp_path):
    suite(tmp_path / "suite")
    return [
        "import-tool", "--root", str(tmp_path / "suite"), "--dir", str(tmp_path / "absent"),
        "--tool-id", "srcfix", "--out", str(tmp_path / "out"),
    ], "absent: not a directory"


def _missing_root(tmp_path):
    return ["bench", "list", "--root", str(tmp_path / "absent")], "absent: not a directory"


def _own_tree_tool_id(tool_id):
    """An import whose tool id names the row's own original or prepared tree."""
    def write(tmp_path):
        argv, _ = _escaping_tool_id(tmp_path)
        argv[argv.index("--tool-id") + 1] = tool_id
        return argv, f"'{tool_id}'"
    return write


def _truncated_manifest(tmp_path):
    bench = write_bench(tmp_path / "suite", "alpha", {"main.c": sleeper(10)})
    (bench / "bench.json").write_text('{"id": ')
    return ["bench", "list", "--root", str(tmp_path / "suite")], "bench.json: not valid JSON"


def _manifest_not_utf8(tmp_path):
    bench = write_bench(tmp_path / "suite", "alpha", {"main.c": sleeper(10)})
    (bench / "bench.json").write_bytes(b'{"id": "\xff"}')
    return ["bench", "list", "--root", str(tmp_path / "suite")], "bench.json: not UTF-8"


def _ex1_with(name, text, named):
    """An ex1 run whose provider config, transcript or --prompt-env file
    ``name`` holds ``text``."""
    def write(tmp_path):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, [fenced(sleeper(50))])
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"os": "TestOS", "cpu": "TestCPU", "compilers": "gcc"}))
        (tmp_path / name).write_text(text)
        return [
            "ex1", "--root", str(tmp_path / "suite"), "--provider", str(config),
            "--prompt-env", str(env), "--out", str(tmp_path / "out"),
        ], named
    return write


def _counts_not_int(tmp_path):
    suite(tmp_path / "suite")
    config = replay_config(tmp_path, [fenced(sleeper(50))])
    return [
        "ex3", "--root", str(tmp_path / "suite"), "--provider", str(config),
        "--counts", "4,x", "--out", str(tmp_path / "out"),
    ], "--counts"


def _report(doc, named="report.json"):
    """A report command on ``doc``, written as JSON, or as it is when it
    is text."""
    def write(tmp_path):
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (tmp_path / "report.json").write_text(text)
        return [
            "report", "--in", str(tmp_path / "report.json"), "--format", "csv",
            "--out", str(tmp_path / "out"),
        ], named
    return write


def _report_row(**changes):
    row = {
        "benchmark_id": "alpha", "motif": "Stencils", "level": 1, "experiment": "EX1",
        "tool_id": "t", "variant_tag": "ex1", "category": "Correct", "speedup": 2.0,
        "na_flag": False, "labels": [], "thread_results": None,
    }
    key = next(iter(changes))
    return _report({"rows": [{**row, **changes}], "provenance": {}},
                   f"report.json: rows[0]: key '{key}'")


@pytest.mark.parametrize("bad_input", [
    _unbalanced_hotspot,
    _escaping_manifest_id,
    _truncated_manifest,
    _manifest_not_utf8,
    _escaping_tool_id,
    _missing_tool_dir,
    _missing_root,
    _own_tree_tool_id("base"),
    _own_tree_tool_id("prepared"),
    _report({"provenance": {}}),
    _report({"rows": [{"benchmark_id": "alpha"}], "provenance": {}}),
    _report_row(speedup="2.0"),
    _report_row(motif="Bogus"),
    _report('{"rows": [', "report.json: not valid JSON"),
    _ex1_with("provider.json", '{"kind": ', "provider.json: not valid JSON"),
    _ex1_with("transcript.json", '[{"response_text": ', "transcript.json: not valid JSON"),
    _ex1_with("transcript.json", '[{"response_text": "r", "latency_s": "slow"}]',
              "transcript.json: key 'entries[0].latency_s'"),
    _ex1_with("env.json", '{"os": ', "env.json: not valid JSON"),
    _ex1_with("env.json", "[1, 2]", "env.json: key '--prompt-env'"),
    _ex1_with("env.json", '{"os": 5}', "env.json: key '--prompt-env'"),
    _escaping_stdin_file,
    _counts_not_int,
], ids=["unbalanced_hotspot_source", "manifest_id", "manifest_truncated", "manifest_not_utf8", "tool_id",
        "tool_dir_missing", "root_missing", "tool_id_base", "tool_id_prepared",
        "report_without_rows", "report_row_missing_key", "report_row_speedup_string",
        "report_row_unknown_motif", "report_truncated", "provider_config_truncated",
        "transcript_truncated", "transcript_latency_string", "prompt_env_truncated",
        "prompt_env_list", "prompt_env_value_number", "manifest_stdin_file",
        "counts_not_int"])
def test_bad_input_is_one_error_line(tmp_path, capsys, bad_input):
    """Each bad input is refused with one line naming it, before anything
    is built or written."""
    argv, named = bad_input(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]
    assert not (tmp_path / "out").exists()


class TestAgentCommand:
    def test_agent_runs_and_writes_trace(self, tmp_path, capsys):
        root = tmp_path / "suite"
        write_bench(root, "loopy", {"main.c": hotspot_program(100)},
                    entry_hotspot="kernel",
                    build={"flags": ["-O0"]}, run={"repetitions": 2})
        config = replay_config(tmp_path, [fenced(kernel_replacement(40))])
        work = tmp_path / "work"
        code = main([
            "agent", "--root", str(root), "--bench", "loopy",
            "--provider", str(config), "--max-iters", "1",
            "--work", str(work),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "iter 1: Correct" in stdout
        assert "stop: ThresholdReached" in stdout
        assert (work / "loopy" / "agent" / "trace.json").exists()

    def test_agent_default_work_dir(self, tmp_path, capsys, monkeypatch):
        write_bench(tmp_path / "suite", "loopy", {"main.c": hotspot_program(100)},
                    entry_hotspot="kernel",
                    build={"flags": ["-O0"]}, run={"repetitions": 2})
        replay_config(tmp_path, [fenced(kernel_replacement(40))])
        monkeypatch.chdir(tmp_path)
        code = main([
            "agent", "--root", "suite", "--bench", "loopy",
            "--provider", "provider.json", "--max-iters", "1",
        ])
        assert code == 0
        assert "iter 1: Correct" in capsys.readouterr().out
        assert (tmp_path / "perfagent-work" / "loopy" / "agent" / "trace.json").exists()

    def test_unknown_benchmark(self, tmp_path, capsys):
        suite(tmp_path / "suite")
        config = replay_config(tmp_path, ["x"])
        code = main([
            "agent", "--root", str(tmp_path / "suite"), "--bench", "missing",
            "--provider", str(config), "--work", str(tmp_path / "w"),
        ])
        assert code == 1
        assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("script", ["replay_demo.py", "agent_demo.py"])
def test_demo_refuses_a_non_empty_out(tmp_path, script):
    """A demo run into a directory that holds something exits 2 with one
    error line, before it writes anything there."""
    repo = Path(__file__).resolve().parent.parent
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("earlier run\n")
    done = subprocess.run(
        [sys.executable, str(repo / "scripts" / script), "--out", str(out)],
        cwd=repo, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(out) in lines[0]
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "earlier run\n"
