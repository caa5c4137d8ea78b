"""End-to-end single-shot demo with a canned model response.

Builds a matmul benchmark in a scratch directory, replays a stored
"optimization" (loop interchange), and writes the three report formats.
Then scores the same interchanged source as an external tool's tree
(``import-tool``). No network, no API key, no external benchmark suite
required. Exits 1 unless both rows are Correct, and 2 before building
anything when ``--out`` names something other than an empty directory.

    python3 scripts/replay_demo.py [--out DIR] [--n 512] [--reps 3]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from perfagent import experiments as exp
from perfagent import llm_gateway as gw
from perfagent import manifest as mf
from perfagent import toolchain as tc
from perfagent.verify import CorrectnessCategory

MATMUL = """\
#include <stdio.h>

#define N {n}

static double A[N * N];
static double B[N * N];
static double C[N * N];

void init_matrices(void) {{
    for (int i = 0; i < N; i++) {{
        for (int j = 0; j < N; j++) {{
            A[i * N + j] = (double)((i * 7 + j * 3) % 10) / 10.0;
            B[i * N + j] = (double)((i * 3 + j * 11) % 13) / 13.0;
            C[i * N + j] = 0.0;
        }}
    }}
}}

void matmul(void) {{
    for (int i = 0; i < N; i++) {{
        for (int j = 0; j < N; j++) {{
            for (int k = 0; k < N; k++) {{
                C[i * N + j] += A[i * N + k] * B[k * N + j];
            }}
        }}
    }}
}}

double checksum(void) {{
    double s = 0.0;
    for (int i = 0; i < N * N; i++) {{
        s += C[i];
    }}
    return s;
}}

int main(void) {{
    init_matrices();
    matmul();
    printf("checksum %.10e\\n", checksum());
    return 0;
}}
"""

# Interchange keeps the per-element accumulation order, so the checksum
# stays byte-identical under ExactBytes validation.
JK = """\
        for (int j = 0; j < N; j++) {
            for (int k = 0; k < N; k++) {"""
KJ = """\
        for (int k = 0; k < N; k++) {
            for (int j = 0; j < N; j++) {"""


def write_bench(root: Path, n: int, reps: int) -> None:
    bench = root / "matmul"
    bench.mkdir(parents=True)
    (bench / "main.c").write_text(MATMUL.format(n=n))
    (bench / "bench.json").write_text(json.dumps({
        "id": "matmul",
        "motif": "DenseLinearAlgebra",
        "level": 1,
        "language": "C",
        "sources": ["main.c"],
        "build": {"compiler_id": "gcc", "flags": ["-O2"], "timeout_s": 120},
        "run": {"args": [], "repetitions": reps, "timeout_s": 60, "env": {}},
        "validation": {"mode": "ExactBytes"},
    }, indent=2))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    if args.out is not None and args.out.exists() and (
        not args.out.is_dir() or any(args.out.iterdir())
    ):
        print(f"error: --out {args.out} is not an empty directory", file=sys.stderr)
        return 2

    out = args.out or Path(tempfile.mkdtemp(prefix="replay-demo-"))
    write_bench(out / "suite", args.n, args.reps)
    specs = mf.load_manifest(out / "suite")

    candidate = MATMUL.format(n=args.n).replace(JK, KJ)
    provider = gw.ReplayProvider([{
        "request_digest": "",
        "response_text": "Interchanged the inner loops.\n\n```c\n" + candidate + "```\n",
        "latency_s": 0.0,
    }])

    toolchain = tc.detect()
    table = exp.run_ex1(specs, provider, toolchain, out / "work")
    for row in table.rows:
        print(f"{row.benchmark_id}: {row.category.value} {row.speedup:.2f}x")

    paths = exp.emit_report(table, exp.aggregate(table), out / "reports")
    for fmt in sorted(paths):
        print(f"wrote {paths[fmt]}")

    tree = out / "tool" / "matmul"
    tree.mkdir(parents=True)
    (tree / "main.c").write_text(candidate)
    imported = exp.import_external_tool_results(
        out / "tool", "interchange", specs, toolchain, out / "work"
    )
    for row in imported.rows:
        print(f"{row.benchmark_id} ({row.tool_id}): {row.category.value} {row.speedup:.2f}x")

    ok = [CorrectnessCategory.CORRECT]
    if [row.category for row in table.rows] != ok:
        print("error: the interchanged matmul was not Correct", file=sys.stderr)
        return 1
    if [row.category for row in imported.rows] != ok:
        print("error: the imported interchanged matmul was not Correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
