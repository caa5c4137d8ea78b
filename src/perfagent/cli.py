"""Command-line front end over the benchmark and experiment drivers."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import agent as agent_mod
from . import experiments as exp
from . import llm_gateway as gw
from . import manifest, profile
from . import toolchain as tc
from .manifest import Motif

log = logging.getLogger("perfagent.cli")


def _load_toolchain(value: str) -> tc.ToolchainConfig:
    if value == "detect":
        return tc.detect()
    return tc.load(value)


def _build_provider(path: str) -> gw.Provider:
    config = gw.load_provider_config(path)
    return gw.build_provider(config, Path(path).parent)


def _selection(args) -> list[manifest.BenchmarkSpec]:
    specs = manifest.load_manifest(args.root)
    ids = None
    if args.select:
        ids = {part.strip() for part in args.select.split(",") if part.strip()}
    levels = set(args.level) if args.level else None
    motifs = {Motif(m) for m in args.motif} if args.motif else None
    return manifest.select(specs, levels=levels, motifs=motifs, ids=ids)


def _prompt_env(path: str | None) -> dict[str, str] | None:
    """The ``--prompt-env`` file: one JSON object of string fields. Any
    other file is a ValueError naming it."""
    if path is None:
        return None

    def fail(reason: str) -> ValueError:
        return ValueError(f"{path}: {reason}")

    doc = manifest.read_json(path, fail)
    return manifest.want({"--prompt-env": doc}, "--prompt-env", dict[str, str], fail)


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--counts {text!r}: not comma-separated integers") from None
    if not counts:
        raise ValueError("--counts needs at least one thread count")
    return counts


def _add_selection_args(parser):
    parser.add_argument("--root", default=".", help="benchmark suite root")
    parser.add_argument("--select", default="", help="comma-separated benchmark ids")
    parser.add_argument("--level", action="append", type=int,
                        help="keep only this level (repeatable)")
    parser.add_argument("--motif", action="append",
                        help="keep only this motif (repeatable)")


def _add_table_args(parser):
    """The flags ex1, ex2, ex3 and import-tool share."""
    _add_selection_args(parser)
    parser.add_argument("--toolchain", default="detect",
                        help="toolchain config JSON, or 'detect'")
    parser.add_argument("--out", required=True, help="report output directory")
    parser.add_argument("--work", help="scratch dir (default: <out>/work)")
    parser.add_argument("--mean", choices=("arithmetic", "geometric"),
                        default="arithmetic", help="summary mean kind")


def _add_experiment_args(parser):
    _add_table_args(parser)
    parser.add_argument("--provider", required=True,
                        help="provider config JSON (kind: http, replay, record)")
    parser.add_argument("--prompt-env",
                        help="JSON file with os/cpu/compilers prompt fields")


def _work_dir(args) -> Path:
    return Path(args.work) if args.work else Path(args.out) / "work"


def _finish_table(table: exp.ResultsTable, args) -> int:
    for row in table.rows:
        mark = "NA" if row.na_flag else f"{row.speedup:.2f}x"
        print(f"{row.benchmark_id}: {row.category.value} {mark}")
    summaries = exp.aggregate(table, ("tool",), args.mean) if table.rows else []
    written = exp.emit_report(table, summaries, args.out)
    for fmt in ("csv", "markdown", "json"):
        print(f"wrote {written[fmt]}")
    return 0


def cmd_bench_list(args) -> int:
    for spec in _selection(args):
        files = ",".join(spec.source_files)
        print(f"{spec.id}\t{spec.motif.value}\tlevel {spec.level}\t{files}")
    return 0


def cmd_bench_prepare(args) -> int:
    selection = _selection(args)
    out = Path(args.out)
    for spec in selection:
        dest = manifest.prepare_sources(spec, out / spec.id)
        print(f"prepared {spec.id} -> {dest}")
    if not selection:
        print("nothing selected", file=sys.stderr)
        return 1
    return 0


def _run_experiment(args, runner, **extra) -> int:
    selection = _selection(args)
    provider = _build_provider(args.provider)
    toolchain = _load_toolchain(args.toolchain)
    table = runner(
        selection, provider, toolchain, _work_dir(args),
        env=_prompt_env(args.prompt_env), **extra,
    )
    return _finish_table(table, args)


def cmd_ex1(args) -> int:
    return _run_experiment(args, exp.run_ex1)


def cmd_ex2(args) -> int:
    return _run_experiment(args, exp.run_ex2)


def cmd_ex3(args) -> int:
    counts = _parse_counts(args.counts)
    return _run_experiment(args, exp.run_ex3, counts=counts)


def cmd_import_tool(args) -> int:
    selection = _selection(args)
    toolchain = _load_toolchain(args.toolchain)
    table = exp.import_external_tool_results(
        args.dir, args.tool_id, selection, toolchain, _work_dir(args)
    )
    return _finish_table(table, args)


def _dir_profile_source(profile_dir: Path) -> agent_mod.ProfileSource:
    """Read <dir>/<variant_tag with slashes flattened>.json per request."""

    def source(request: agent_mod.ProfileRequest) -> profile.ProfileTree:
        name = request.variant_tag.replace("/", "_") + ".json"
        return profile.import_profile(
            (profile_dir / name).read_text(encoding="utf-8")
        )

    return source


def cmd_agent(args) -> int:
    specs = manifest.load_manifest(args.root)
    matches = [s for s in specs if s.id == args.bench]
    if not matches:
        print(f"no benchmark named {args.bench!r} under {args.root}", file=sys.stderr)
        return 1
    spec = matches[0]
    provider = _build_provider(args.provider)
    toolchain = _load_toolchain(args.toolchain)
    source = _dir_profile_source(Path(args.profile_dir)) if args.profile_dir else None
    cfg = agent_mod.AgentConfig(
        max_iterations=args.max_iters,
        metric_id=args.metric,
        prompt_env=_prompt_env(args.prompt_env) or {},
    )
    trace = agent_mod.run_agent(spec, source, provider, cfg, toolchain, args.work)

    for record in trace.iterations:
        mark = ""
        if record.speedup_vs_original is not None:
            mark = f" {record.speedup_vs_original.speedup:.2f}x"
        print(f"iter {record.index}: {record.category.value}{mark}")
    best = "none" if trace.best_iteration is None else str(trace.best_iteration)
    print(f"stop: {trace.stop_reason.value}; best iteration: {best}")
    print(f"trace: {agent_mod.trace_path(args.work, spec.id)}")
    return 0


def cmd_report(args) -> int:
    table = exp.load_table(args.infile)
    summaries = exp.aggregate(table, ("tool",), args.mean) if table.rows else []
    out = Path(args.out) if args.out else Path(args.infile).parent
    written = exp.emit_report(table, summaries, out, formats=(args.format,))
    print(f"wrote {written[args.format]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfagent",
        description="Evaluate model-optimized C/C++ benchmark kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="inspect or prepare benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_list = bench_sub.add_parser("list", help="list benchmarks in a suite")
    _add_selection_args(bench_list)
    bench_list.set_defaults(func=cmd_bench_list)
    bench_prepare = bench_sub.add_parser(
        "prepare", help="copy benchmarks and apply prep options"
    )
    _add_selection_args(bench_prepare)
    bench_prepare.add_argument("--out", required=True)
    bench_prepare.set_defaults(func=cmd_bench_prepare)

    ex1 = sub.add_parser("ex1", help="single serial-optimization pass")
    _add_experiment_args(ex1)
    ex1.set_defaults(func=cmd_ex1)

    ex2 = sub.add_parser("ex2", help="five-turn incremental optimization")
    _add_experiment_args(ex2)
    ex2.set_defaults(func=cmd_ex2)

    ex3 = sub.add_parser("ex3", help="parallel optimization with thread sweep")
    _add_experiment_args(ex3)
    ex3.add_argument("--counts", default="4,8,16,32",
                     help="comma-separated thread counts")
    ex3.set_defaults(func=cmd_ex3)

    imp = sub.add_parser("import-tool", help="score pre-optimized source trees")
    _add_table_args(imp)
    imp.add_argument("--dir", required=True, help="directory of per-benchmark trees")
    imp.add_argument("--tool-id", required=True)
    imp.set_defaults(func=cmd_import_tool)

    agent = sub.add_parser("agent", help="iterative profile-guided optimization")
    agent.add_argument("--root", default=".", help="benchmark suite root")
    agent.add_argument("--bench", required=True, help="benchmark id")
    agent.add_argument("--provider", required=True)
    agent.add_argument("--max-iters", type=int, default=3)
    agent.add_argument("--toolchain", default="detect")
    agent.add_argument("--work", default="perfagent-work")
    agent.add_argument("--metric", help="profile metric id for hotspot ranking")
    agent.add_argument("--profile-dir",
                       help="directory of per-variant profile JSON files")
    agent.add_argument("--prompt-env",
                       help="JSON file with os/cpu/compilers prompt fields")
    agent.set_defaults(func=cmd_agent)

    report = sub.add_parser("report", help="re-render a saved results table")
    report.add_argument("--in", dest="infile", required=True,
                        help="report.json from a previous run")
    report.add_argument("--format", choices=("csv", "markdown", "json"),
                        required=True)
    report.add_argument("--out", help="output directory (default: beside --in)")
    report.add_argument("--mean", choices=("arithmetic", "geometric"),
                        default="arithmetic")
    report.set_defaults(func=cmd_report)

    return parser


_KNOWN_ERRORS = (
    manifest.ManifestError,
    exp.ExperimentError,
    gw.GatewayError,
    tc.ToolchainError,
    profile.ProfileError,
    ValueError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
