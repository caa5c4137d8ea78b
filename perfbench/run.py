"""perfagent's benchmark: evaluation throughput, harness CPU and speedup fidelity.

    python3 perfbench/run.py --workload single_shot --seed 1 --seconds 20 --trace 0

Run from the repository root. Generates the seeded workload (see gen.py),
runs its rows through perfagent's public drivers in a closed loop (one
row at a time, nothing else concurrent) for at least ``--seconds`` and at
least MIN_ROWS rows, checks every
classification against the category planted by the generator, and
prints each metric with its unit. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload in turn. The exit
status is non-zero when any check fails. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import spans as tracing  # noqa: E402

SETUP_REPEATS = 5
FLOOR_REPETITIONS = 31
# row_s.tail is the upper quartile of the row wall times. Every untraced
# run measures at least MIN_ROWS rows, so at least TAIL_BEYOND rows lie
# beyond it on every run and the statistic is the same whatever the
# number of blocks.
TAIL_PERCENT = 75
TAIL_BEYOND = 10
MIN_ROWS = math.ceil(TAIL_BEYOND / (1 - TAIL_PERCENT / 100))
# Largest gap allowed between a traced row's wall time and the summed
# self times of its spans: the cost of entering and leaving the root span.
ROW_SELF_TOLERANCE_S = 0.002
FLOOR_SOURCE = "int main(void) {\n    return 0;\n}\n"


def _load_perfagent():
    """The perfagent modules from this checkout's src/, or None."""
    try:
        import perfagent
        from perfagent import agent, experiments, llm_gateway, manifest, profile, toolchain
    except ImportError as exc:
        print(f"perfbench: cannot import perfagent from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if Path(perfagent.__file__).resolve().parent != ROOT / "src" / "perfagent":
        print(f"perfbench: perfagent imported from {perfagent.__file__}, not this checkout",
              file=sys.stderr)
        return None
    return agent, experiments, llm_gateway, manifest, profile, toolchain


_modules = _load_perfagent()
if _modules is None:
    sys.exit(2)
ag, ex, gw, mf, prof, tc = _modules


class PlannedProvider(gw.Provider):
    """Replay-style provider: serves the current row's planned replies in
    order, sleeping each reply's planned delay before answering."""

    def __init__(self):
        self.provider_id = "planned"
        self._queue: list[dict] = []

    def load(self, attempts: list[dict], provider_id: str) -> None:
        self._queue = list(attempts)
        self.provider_id = provider_id

    def complete(self, messages):
        if not self._queue:
            raise gw.TranscriptExhausted("no planned reply left for this row")
        attempt = self._queue.pop(0)
        if attempt["delay_s"]:
            time.sleep(attempt["delay_s"])
        return gw.ModelResponse(attempt["reply"], self.provider_id, attempt["delay_s"])


class FixtureProfiles:
    """Agent profile source serving the generated cct-v1 tree for each variant."""

    def __init__(self, root: Path):
        self.root = root

    def __call__(self, request):
        name = request.variant_tag.rsplit("/", 1)[-1]
        return prof.import_profile((self.root / request.spec.id / f"{name}.json").read_bytes())


@dataclass
class Suite:
    plan: dict
    specs: dict
    toolchain: object
    floor_binary: Path
    profiles: FixtureProfiles
    env: dict
    digest: str
    work: Path


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup(workload: str, seed: int, out: Path) -> tuple[Suite, float]:
    """Generate inputs, detect the toolchain, load manifests, warm the compiler.

    The warm-up build is the do-nothing program that later calibrates the
    spawn floor. Returns the suite and the seconds all of that took.
    """
    start = time.perf_counter()
    plan = gen.generate(workload, seed, out / "inputs")
    toolchain = tc.detect()
    specs = {spec.id: spec for spec in mf.load_manifest(out / "inputs" / "suite")}
    floor_src = out / "floor"
    floor_src.mkdir()
    (floor_src / "main.c").write_text(FLOOR_SOURCE, encoding="utf-8")
    floor_spec = mf.spec_from_dict({
        "id": "spawn_floor", "motif": "StructuredGrids", "level": 1, "language": "C",
        "sources": ["main.c"], "build": {"compiler_id": "gcc", "flags": ["-O2"]},
        "run": {}, "validation": {"mode": "ExactBytes"},
    }, floor_src)
    build = tc.compile(floor_spec, floor_src, toolchain, "warmup", out / "work")
    elapsed = time.perf_counter() - start
    if not build.ok:
        raise RuntimeError(f"warm-up build failed:\n{build.stderr}")
    suite = Suite(
        plan=plan, specs=specs, toolchain=toolchain, floor_binary=build.binary_path,
        profiles=FixtureProfiles(out / "inputs" / "profiles"),
        env=ex.host_env(toolchain), digest=_digest(out / "inputs"), work=out / "work",
    )
    return suite, elapsed


def spawn_floor_s(suite: Suite) -> float:
    """Median repetition time of the do-nothing binary, through run_timed."""
    sample = tc.run_timed(suite.floor_binary, mf.RunRecipe(repetitions=FLOOR_REPETITIONS))
    return statistics.median(sample.wall_times_s)


def thread_counts() -> tuple[int, ...]:
    """ex3 sweep counts: 1 and 2 threads, never more than this host's CPUs.

    The paper sweeps 4-32 threads; on a 2-vCPU host those would only
    measure oversubscription.
    """
    return tuple(c for c in (1, 2) if c <= len(os.sched_getaffinity(0)))


@dataclass
class RowResult:
    key: str
    driver: str
    planted: tuple  # category of every attempt, in request order
    wall_s: float
    failed: int = 0
    problems: list = field(default_factory=list)
    observed: tuple = ()
    fidelity: list = field(default_factory=list)  # (reported, ideal) pairs
    records: tuple = ()

    @property
    def attempts(self) -> int:
        return len(self.planted)


def _call_driver(suite: Suite, row: dict, provider: PlannedProvider):
    spec = suite.specs[row["bench_id"]]
    driver = row["driver"]
    if driver == "ex1":
        return ex.run_ex1([spec], provider, suite.toolchain, suite.work, env=suite.env)
    if driver == "ex2":
        return ex.run_ex2([spec], provider, suite.toolchain, suite.work, env=suite.env)
    if driver == "ex3":
        return ex.run_ex3([spec], provider, suite.toolchain, suite.work,
                          counts=thread_counts(), env=suite.env)
    cfg = ag.AgentConfig(
        max_iterations=gen.AGENT_ITERATIONS,
        env_context={"threads": 1, "hardware": platform.machine()},
        prompt_env=suite.env,
    )
    return ag.run_agent(spec, suite.profiles, provider, cfg, suite.toolchain, suite.work)


def run_row(suite: Suite, row: dict, block: int, provider: PlannedProvider,
            tracer: tracing.Tracer | None = None) -> RowResult:
    """Run one planned row and check it against what was planted."""
    key = f"b{block}/r{row['row']}:{row['bench_id']}/{row['driver']}"
    attempts = row["attempts"]
    provider.load(attempts, f"planned-b{block}")
    start = time.perf_counter()
    try:
        if tracer is None:
            out = _call_driver(suite, row, provider)
        else:
            out = tracer.root("bench.row", key, _call_driver, suite, row, provider)
        error = None
    except Exception as exc:  # an escaped exception is a failed operation
        out, error = None, f"{type(exc).__name__}: {exc}"
    result = RowResult(key, row["driver"], tuple(a["category"] for a in attempts),
                       time.perf_counter() - start)
    if error:
        result.failed = len(attempts)
        result.problems.append(f"driver raised {error}")
    elif row["driver"] == "agent":
        _check_agent(result, attempts, out)
    else:
        _check_table(result, row, out)
    return result


def _check_table(result: RowResult, row: dict, table) -> None:
    if len(table.rows) != 1:
        result.failed = result.attempts
        result.problems.append(f"driver returned {len(table.rows)} rows for one benchmark")
        return
    record = table.rows[0]
    result.records = table.rows
    # The kept turn is only determined when exactly one turn is correct.
    kept = record.variant_tag if row["best_turn"] is not None else None
    result.observed = (record.category.value, kept)
    wrong = record.category.value != row["category"]
    if wrong:
        result.problems.append(f"category {record.category.value}, planted {row['category']}")
    if row["best_turn"] is not None and record.variant_tag != f"ex2/turn{row['best_turn']}":
        wrong = True
        result.problems.append(f"kept {record.variant_tag}, planted ex2/turn{row['best_turn']}")
    if wrong:
        result.failed = result.attempts
        return
    ideals = {a["ideal"] for a in row["attempts"]}
    if record.category.value == gen.CORRECT and len(ideals) == 1 and None not in ideals:
        result.fidelity.append((record.speedup, ideals.pop()))


def _check_agent(result: RowResult, attempts: list[dict], trace) -> None:
    result.observed = tuple(it.category.value for it in trace.iterations)
    for index, attempt in enumerate(attempts):
        if index >= len(trace.iterations):
            result.failed += 1
            result.problems.append(f"iteration {index + 1} missing ({trace.stop_reason.value})")
            continue
        iteration = trace.iterations[index]
        if iteration.category.value != attempt["category"]:
            result.failed += 1
            result.problems.append(
                f"iteration {index + 1}: {iteration.category.value}, planted {attempt['category']}"
                + (f" ({iteration.note})" if iteration.note else "")
            )
        elif attempt["ideal"] is not None:
            result.fidelity.append((iteration.speedup_vs_original.speedup, attempt["ideal"]))


@dataclass
class Block:
    """One pass over the plan's rows, with its wall and harness CPU time."""

    rows: list[RowResult]
    wall_s: float
    cpu_s: float

    @property
    def attempts(self) -> int:
        return sum(r.attempts for r in self.rows)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_rows(suite: Suite, seconds: float) -> list[Block]:
    """Closed loop over the plan, a whole block at a time, until
    ``seconds`` have passed and at least MIN_ROWS rows have run."""
    provider = PlannedProvider()
    done: list[Block] = []
    rows_done = 0
    start = time.perf_counter()
    while rows_done < MIN_ROWS or time.perf_counter() - start < seconds:
        block_start, cpu_start = time.perf_counter(), _cpu_s()
        rows = [run_row(suite, row, len(done), provider) for row in suite.plan["rows"]]
        done.append(Block(rows, time.perf_counter() - block_start, _cpu_s() - cpu_start))
        rows_done += len(rows)
    return done


def run_pairs(suite: Suite, tracer: tracing.Tracer,
              seconds: float) -> tuple[list[RowResult], list[RowResult], int]:
    """Whole blocks in which every row runs once untraced and once traced,
    back to back so that host drift hits both alike, with the order
    alternating from row to row. Returns both passes' rows and the
    number of blocks."""
    provider = PlannedProvider()
    untraced: list[RowResult] = []
    results: list[RowResult] = []
    start = time.perf_counter()
    block = 0
    while block == 0 or time.perf_counter() - start < seconds:
        for row in suite.plan["rows"]:
            if (block + row["row"]) % 2:
                untraced.append(run_row(suite, row, block, provider))
            tracer.install()
            try:
                results.append(run_row(suite, row, block, provider, tracer))
            finally:
                tracer.uninstall()
            if not (block + row["row"]) % 2:
                untraced.append(run_row(suite, row, block, provider))
        block += 1
    return untraced, results, block


def report(suite: Suite, results: list[RowResult], out: Path) -> list[str]:
    """Aggregate and emit the drivers' report; check it round-trips."""
    records = tuple(r for res in results for r in res.records)
    if not records:
        return []
    table = ex.ResultsTable(records, {"tool_id": "planned"})
    summaries = ex.aggregate(table, group_by=("tool", "experiment"))
    written = ex.emit_report(table, summaries, out)
    if ex.load_table(written["json"]).rows != table.rows:
        return ["report.json does not round-trip the results table"]
    return []


def check_turns(tracer: tracing.Tracer, results: list[RowResult]) -> list[str]:
    """Every classify_attempt result of an ex1/ex2/ex3 row, in order,
    against the planted category of each reply. (The agent records its
    categories in the trace it returns, checked for every run.)"""
    seen: dict[str, list[str]] = {}
    for name, _, _, _, row, counts in tracer.spans:
        if name == "verify.classify_attempt" and counts and "category" in counts:
            seen.setdefault(row, []).append(counts["category"])
    return [
        f"{r.key}: classify_attempt gave {seen.get(r.key, [])}, planted {list(r.planted)}"
        for r in results
        if r.driver != "agent" and seen.get(r.key, []) != list(r.planted)
    ]


def tail(values: list[float]) -> float:
    """The TAIL_PERCENT percentile, interpolated between the two nearest rows."""
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENT - 1]


def fidelity(results: list[RowResult]) -> tuple[float, int]:
    scores = [min(r / i, i / r) for res in results for r, i in res.fidelity]
    return (statistics.median(scores), len(scores)) if scores else (0.0, 0)


def provenance(seed: int) -> dict:
    version = subprocess.run(["gcc", "--version"], capture_output=True, text=True).stdout
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "gcc": version.splitlines()[0] if version else "missing",
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the whole host since boot, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return fields[7], sum(fields)


def _busy(prov: dict) -> bool:
    """Visibly busy: the 1-minute load already filled three quarters of
    the CPUs before the run, or the hypervisor took more than a tenth of
    the CPU time during it."""
    return prov["load1_before"] > 0.75 * prov["nproc"] or prov["steal_share"] > 0.1


@dataclass
class Outcome:
    """What one measured run produced, before printing."""

    suite: Suite
    metrics: dict  # name -> (value, unit)
    notes: dict  # name -> text printed beside it
    results: list  # every RowResult, both passes of a traced run
    problems: list  # failed checks outside any row
    blocks: list = field(default_factory=list)


def measure_plain(workload: str, seed: int, seconds: int, out: Path) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    problems = []
    setups = [setup(workload, seed, out / f"setup{k}") for k in range(SETUP_REPEATS)]
    if len({s.digest for s, _ in setups}) != 1:
        problems.append("the same seed generated different inputs")
    suite = setups[-1][0]
    floor = spawn_floor_s(suite)
    blocks = run_rows(suite, seconds)
    results = [r for b in blocks for r in b.rows]
    problems += report(suite, results, out / "report")
    walls = [r.wall_s for r in results]
    fid, fid_n = fidelity(results)
    metrics = {
        "attempts_per_s": (statistics.median(b.attempts / b.wall_s for b in blocks), "1/s"),
        "row_s.p50": (statistics.median(walls), "s"),
        "row_s.tail": (tail(walls), "s"),
        "harness_cpu_ms_per_attempt": (
            statistics.median(1000.0 * b.cpu_s / b.attempts for b in blocks), "ms"),
        "speedup_fidelity": (fid, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(t for _, t in setups), "s"),
    }
    notes = {
        "attempts_per_s": f"median of {len(blocks)} blocks; {sum(r.attempts for r in results)} "
                          f"attempts in {sum(b.wall_s for b in blocks):.2f} s",
        "harness_cpu_ms_per_attempt": f"median of {len(blocks)} blocks",
        "row_s.p50": f"{len(walls)} rows",
        "row_s.tail": f"p{TAIL_PERCENT} of {len(walls)} rows "
                      f"(at least {MIN_ROWS}, so at least {TAIL_BEYOND} beyond it)",
        "speedup_fidelity": f"median of {fid_n} known-ratio rows; "
                            f"toolchain.spawn_floor_s {floor:.6f} s",
        "setup_s": f"median of {SETUP_REPEATS} setups",
    }
    return Outcome(suite, metrics, notes, results, problems, blocks)


def measure_traced(workload: str, seed: int, seconds: int, out: Path) -> Outcome:
    """Traced run: the per-layer metrics, the tracing overhead, and checks
    that tracing changes no category and that every row's spans account
    for its wall time."""
    tracer = tracing.Tracer()
    tracer.add(PlannedProvider, "complete", "provider.complete")
    tracer.install()
    try:
        suite, _ = tracer.root("bench.setup", "setup", setup, workload, seed, out)
        floor = tracer.root("bench.calibrate", "calibrate", spawn_floor_s, suite)
    finally:
        tracer.uninstall()
    untraced, results, blocks = run_pairs(suite, tracer, seconds / 2)
    tracer.install()
    try:
        problems = tracer.root("bench.report", "report", report, suite, results, out / "report")
    finally:
        tracer.uninstall()
    tracer.dump(out / "spans.json")

    for before, after in zip(untraced, results):
        if before.observed != after.observed:
            problems.append(f"{after.key}: traced categories {after.observed} "
                            f"!= untraced {before.observed}")
    problems += check_turns(tracer, results)
    problems += check_self_times(tracer, results)
    traced_s = sum(r.wall_s for r in results)
    untraced_s = sum(r.wall_s for r in untraced)
    metrics, notes = per_layer(tracer, results, blocks, floor, (traced_s - untraced_s) / blocks)
    notes["trace.overhead_s"] = (f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s "
                                 f"over {len(results)} rows, per block")
    return Outcome(suite, metrics, notes, untraced + results, problems)


def check_self_times(tracer: tracing.Tracer, results: list[RowResult]) -> list[str]:
    """No span has a negative self time, and the self times of each traced
    row's spans sum to the row's measured wall time."""
    problems = [f"{s[4]}: {s[0]} has self time {own:.3e} s"
                for s, own in zip(tracer.spans, tracer.self_times()) if own < -1e-9]
    row_self = tracer.row_self_s()
    for r in results:
        gap = r.wall_s - row_self.get(r.key, 0.0)
        if not 0.0 <= gap <= ROW_SELF_TOLERANCE_S:
            problems.append(f"{r.key}: self times sum to {row_self.get(r.key, 0.0):.6f} s, "
                            f"row wall time {r.wall_s:.6f} s")
    return problems


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> int:
    """Measure one workload, print every metric and the result line."""
    prov = provenance(seed)
    prov["load1_before"] = os.getloadavg()[0]
    steal_before, total_before = cpu_ticks()
    out = ROOT / ".bench_work" / workload
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    # gcc writes its intermediate files under TMPDIR; keep them in the checkout.
    (out / "tmp").mkdir()
    os.environ["TMPDIR"] = str(out / "tmp")

    run = (measure_traced if traced else measure_plain)(workload, seed, seconds, out)

    prov["load1_after"] = os.getloadavg()[0]
    steal_after, total_after = cpu_ticks()
    prov["steal_share"] = (steal_after - steal_before) / max(total_after - total_before, 1)
    prov["busy_host"] = _busy(prov)
    prov["inputs_sha256"] = run.suite.digest
    attempted = sum(r.attempts for r in run.results)
    # A check outside any row (inputs, report, tracing) fails one operation.
    failed = sum(r.failed for r in run.results) + len(run.problems)
    offending = [f"{r.key}: {'; '.join(r.problems)}" for r in run.results if r.problems]

    lines = [f"workload {workload}  seed {seed}  trace {int(traced)}",
             "provenance " + json.dumps(prov, sort_keys=True)]
    if prov["busy_host"]:
        lines.append("WARNING: the host was busy during the run; figures are suspect")
    for name, (value, unit) in run.metrics.items():
        lines.append(f"  {name:<44} {value:>14.6f} {unit:<6} {run.notes.get(name, '')}")
    for name in sorted(set(run.notes) - set(run.metrics)):
        lines.append(f"  {name:<44} {run.notes[name]}")
    lines.append(f"  {'failed_share':<44} {failed / attempted:>14.6f} ratio  "
                 f"{failed} failed of {attempted} attempts")
    lines += [f"  FAILED {text}" for text in run.problems + offending]
    print("\n".join(lines))

    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in run.metrics.items()},
    }
    (out / f"result-trace{int(traced)}.json").write_text(json.dumps({
        "provenance": prov,
        "result": doc,
        "failed": run.problems + offending,
        "blocks": [{"wall_s": b.wall_s, "cpu_s": b.cpu_s, "attempts": b.attempts}
                   for b in run.blocks],
        "rows": [{"key": r.key, "wall_s": r.wall_s, "fidelity": r.fidelity}
                 for r in run.results],
    }, indent=1), encoding="utf-8")
    print(json.dumps(doc))
    return 0 if failed == 0 else 1


COUNTER_UNITS = {
    "toolchain.compile.failed": "count",
    "toolchain.run_timed.reps": "count",
    "toolchain.run_timed.kernel_s": "s",
    "verify.compare_outputs.tokens": "count",
    "verify.compare_outputs.bytes": "B",
    "llm_gateway.check_constraints.bytes": "B",
    "llm_gateway.check_constraints.flagged": "count",
    "patch.list_functions.bytes": "B",
    "agent.run_agent.iterations": "count",
    **{f"verify.category.{c}": "count" for c in gen.CATEGORIES},
}
DRIVERS = ("experiments.run_ex1", "experiments.run_ex2", "experiments.run_ex3", "agent.run_agent")
# Spans outside the rows: load_manifest runs in set-up (once per run),
# aggregate and emit_report once over the whole run. Every other figure
# is per block of rows, so it does not grow with the number of blocks
# that fit in the run.
ONCE_PER_RUN = {
    "manifest.load_manifest": "setup",
    "experiments.aggregate": "report",
    "experiments.emit_report": "report",
}
# Figures fixed by the categories the generator planted: printed as
# checks, not carried as metrics.
PLANTED = (
    "toolchain.compile.failed", "toolchain.compile.ok_ratio", "verify.correct_ratio",
    "llm_gateway.check_constraints.flagged", *(f"verify.category.{c}" for c in gen.CATEGORIES),
)
# The result line carries the per-layer metrics every workload exercises;
# the printed table adds the layers only some workloads reach (prepare
# sources, thread sweeps, the agent's patching and profiles, reports).
RESULT_LINE = (
    *(f"{layer}.{stat}" for layer in (
        "manifest.load_manifest", "toolchain.compile", "toolchain.run_timed",
        "verify.compare_outputs", "verify.classify_attempt", "llm_gateway.request",
        "llm_gateway.extract_code", "llm_gateway.render_prompt",
        "llm_gateway.check_constraints", "patch.list_functions", "patch.active_text", "driver",
    ) for stat in ("calls", "self_s")),
    *(name for name in COUNTER_UNITS if not name.startswith("agent.") and name not in PLANTED),
    "toolchain.run_timed.outside_reps_s", "toolchain.spawn_floor_s",
    "llm_gateway.request.wait_s", "trace.overhead_s",
)


def per_layer(tracer: tracing.Tracer, results: list[RowResult], blocks: int,
              floor: float, overhead: float):
    """(result-line metrics, printed notes) from the spans."""
    rows = tracer.summary({r.key for r in results})
    once = {root: tracer.summary({root}) for root in ("setup", "report")}
    table: dict[str, tuple[float, str]] = {}
    for module, fn, _ in tracing.TARGETS:
        name = f"{module}.{fn}"
        root = ONCE_PER_RUN.get(name)
        scope, n, per = (once[root], 1, "run") if root else (rows, blocks, "block")
        table[f"{name}.calls"] = (scope["calls"].get(name, 0) / n, f"count/{per}")
        table[f"{name}.self_s"] = (scope["self_s"].get(name, 0.0) / n, f"s/{per}")
    for name, unit in COUNTER_UNITS.items():
        table[name] = (rows["counters"].get(name, 0) / blocks, f"{unit}/block")
    table["toolchain.run_timed.outside_reps_s"] = (
        rows["total_s"].get("toolchain.run_timed", 0.0) / blocks
        - table["toolchain.run_timed.kernel_s"][0], "s/block")
    table["toolchain.spawn_floor_s"] = (floor, "s")
    table["llm_gateway.request.wait_s"] = (
        rows["total_s"].get("provider.complete", 0.0) / blocks, "s/block")
    compiles = rows["calls"].get("toolchain.compile", 0)
    failed = rows["counters"].get("toolchain.compile.failed", 0)
    table["toolchain.compile.ok_ratio"] = (
        (compiles - failed) / compiles if compiles else 0.0, "ratio")
    classified = rows["calls"].get("verify.classify_attempt", 0)
    table["verify.correct_ratio"] = (
        rows["counters"].get("verify.category.Correct", 0) / classified if classified else 0.0,
        "ratio")
    # The two prompt renderers and the four drivers are one layer each.
    for stat, unit in (("calls", "count/block"), ("self_s", "s/block")):
        table[f"llm_gateway.render_prompt.{stat}"] = (
            sum(table[f"llm_gateway.{n}.{stat}"][0] for n in ("render_prompt", "render_agent_prompt")),
            unit,
        )
        table[f"driver.{stat}"] = (sum(table[f"{n}.{stat}"][0] for n in DRIVERS), unit)
    table["trace.overhead_s"] = (overhead, "s/block")

    notes = {
        "toolchain.compile.calls": f"{blocks} traced blocks",
        "llm_gateway.render_prompt.calls": "render_prompt + render_agent_prompt",
        "driver.self_s": "run_ex1/run_ex2/run_ex3/run_agent orchestration, staging included",
    }
    bases = {"toolchain.compile.ok_ratio": f"base: {compiles} compiles",
             "verify.correct_ratio": f"base: {classified} classified attempts"}
    for name in sorted(set(table) - set(RESULT_LINE)):
        kind = "planted, a check" if name in PLANTED else "printed only"
        notes[name] = (f"{table[name][0]:.6g} {table[name][1]} ({kind})"
                       + (f" {bases[name]}" if name in bases else ""))
    return {name: table[name] for name in RESULT_LINE}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if shutil.which("gcc") is None:
        print("perfbench: gcc not found on PATH", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in gen.WORKLOADS:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            status = max(status, subprocess.run(argv).returncode)
        return status
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
