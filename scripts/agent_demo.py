"""Iterative optimization loop demo with canned model responses.

Runs the profile-guided agent against a two-phase program (cheap setup,
tunable kernel) using three stored kernel rewrites. Shows the memory
digest growing across turns and the trace landing on the best iteration.

    python3 scripts/agent_demo.py [--out DIR] [--iters 3]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from perfagent import agent as ag
from perfagent import llm_gateway as gw
from perfagent import manifest as mf
from perfagent import toolchain as tc

PROGRAM = """\
#include <stdio.h>
#include <time.h>

static void wait_ms(long ms) {
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = (ms % 1000) * 1000000L;
    nanosleep(&ts, 0);
}

void setup(void) {
    wait_ms(20);
}

void kernel(void) {
    wait_ms(100);
}

int main(void) {
    setup();
    kernel();
    printf("energy 7.5000e+00\\n");
    return 0;
}
"""

KERNEL = """\
void kernel(void) {{
    wait_ms({ms});
}}
"""


def write_bench(root: Path) -> None:
    bench = root / "twophase"
    bench.mkdir(parents=True)
    (bench / "main.c").write_text(PROGRAM)
    (bench / "bench.json").write_text(json.dumps({
        "id": "twophase",
        "motif": "StructuredGrids",
        "level": 1,
        "language": "C",
        "sources": ["main.c"],
        "entry_hotspot": "kernel",
        "build": {"compiler_id": "gcc", "flags": ["-O0"], "timeout_s": 120},
        "run": {"args": [], "repetitions": 2, "timeout_s": 30, "env": {}},
        "validation": {"mode": "ExactBytes"},
    }, indent=2))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--iters", type=int, default=3)
    args = parser.parse_args()

    out = args.out or Path(tempfile.mkdtemp(prefix="agent-demo-"))
    write_bench(out / "suite")
    spec = mf.load_manifest(out / "suite")[0]

    rewrites = [
        ("Shortened the kernel wait.", 40),
        ("Tried a longer wait to test sensitivity.", 80),
        ("Settled between the two.", 60),
    ]
    provider = gw.ReplayProvider([{
        "request_digest": "",
        "response_text": f"{prose}\n\n```c\n{KERNEL.format(ms=ms)}```\n",
        "latency_s": 0.0,
    } for prose, ms in rewrites])

    cfg = ag.AgentConfig(max_iterations=args.iters)
    trace = ag.run_agent(spec, None, provider, cfg, tc.detect(), out / "work")

    for record in trace.iterations:
        speed = record.speedup_vs_original
        shown = f"{speed.speedup:.2f}x" if speed else "NA"
        print(f"iter {record.index}: {record.category.value} {shown}")
    print(f"stop: {trace.stop_reason.value}; best iteration: {trace.best_iteration}")
    print(f"trace: {out / 'work' / spec.id / 'agent' / 'trace.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
