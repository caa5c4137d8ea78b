"""Seeded inputs for the perfagent benchmark.

``generate(workload, seed, out_dir)`` writes everything one run needs:

- ``suite/<bench_id>/{bench.json, main.c}``: the benchmark suite;
- ``profiles/<bench_id>/<tag>.json``: cct-v1 trees for the agent's
  fixture profile source (agent workload only);
- ``plan.json``: the row schedule. Every row names its driver and
  benchmark and lists the replay replies in request order, each with the
  category it was planted to produce, the ideal speedup where one is
  known by construction, and the provider delay.

The same seed gives byte-identical files. Seeds vary names, constants,
comment noise, reply wording, delays and the order of rows inside a
block; the multiset of row kinds and kernel sizes in a block is fixed,
so whole-block runs on different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CORRECT = "Correct"
COMPILE_ERROR = "CompilationError"
OUTPUT_MISMATCH = "OutputMismatch"
NOT_FOLLOWED = "FailedToFollowInstructions"
NO_CODE = "NoGeneratedCode"
CATEGORIES = (CORRECT, COMPILE_ERROR, OUTPUT_MISMATCH, NOT_FOLLOWED, NO_CODE)

WORKLOADS = ("single_shot", "ex2_model_wait", "agent_large_tu")
EX2_TURNS = 5
AGENT_ITERATIONS = 2
AGENT_HOTSPOT = "relax"
REPETITIONS = 3

_PROSE = (
    "I applied loop unrolling to the inner loop.",
    "Hoisting the loop-invariant terms reduces work per iteration.",
    "Strength reduction replaces the multiply with a shift.",
    "This version improves the memory access pattern.",
    "Precompute the constants outside the loop.",
    "Reordered the loops for contiguous access.",
)
_NO_CODE_PROSE = (
    "I would need to see the input sizes before suggesting a change.",
    "Please share the build flags so I can tune this kernel.",
    "The kernel looks memory bound; a profile would tell us more.",
)
_NOISE = (
    "brace } inside", "{ open only", "paren ( drift", "// not a comment }",
    "/* not a comment { */", "semi ; colon", "}}}} {{{{",
)


# -- small kernels (single_shot, ex2_model_wait) ------------------------------

_SMALL_HEAD = """\
/* {motif} kernel {name}: {noise} */
#include <stdio.h>
#include <stdlib.h>
"""

_STENCIL = _SMALL_HEAD + """
#define CELLS {cells}
#define STEPS {steps}

static unsigned a[CELLS], b[CELLS];

void init(void) {{
    unsigned x = {salt}u;
    for (int i = 0; i < CELLS; i++) {{
        x = x * 1664525u + 1013904223u;
        a[i] = x >> 8;
    }}
}}

void kernel(void) {{
{body}}}

unsigned checksum(void) {{
    unsigned s = 0;
    for (int i = 0; i < CELLS; i++)
        s = s * 31u + a[i];
    return s;
}}

int main(void) {{
    init();
    kernel();
    printf("{name} %u\\n", checksum(){skew});
    return 0;
}}
"""

_STENCIL_BODY = """\
    for (int t = 0; t < STEPS; t++) {
        for (int i = 1; i < CELLS - 1; i++)
            b[i] = (a[i - 1] + 2u * a[i] + a[i + 1]) >> 2;
        for (int i = 1; i < CELLS - 1; i++)
            a[i] = b[i];
    }
"""

_STENCIL_FAST = """\
    for (int t = 0; t < STEPS; t++) {
        for (int i = 1; i < CELLS - 1; i++)
            b[i] = (a[i - 1] + (a[i] << 1) + a[i + 1]) >> 2;
        for (int i = 1; i < CELLS - 1; i++)
            a[i] = b[i];
    }
"""

_DP = _SMALL_HEAD + """
#define LEN {length}

static unsigned char x[LEN], y[LEN];
static int row[LEN + 1];

void init(void) {{
    unsigned s = {salt}u;
    for (int i = 0; i < LEN; i++) {{
        s = s * 1103515245u + 12345u;
        x[i] = (s >> 16) & 3u;
        s = s * 1103515245u + 12345u;
        y[i] = (s >> 16) & 3u;
    }}
}}

void kernel(void) {{
{body}}}

unsigned checksum(void) {{
    unsigned s = 0;
    for (int j = 0; j <= LEN; j++)
        s = s * 131u + (unsigned) row[j];
    return s;
}}

int main(void) {{
    init();
    kernel();
    printf("{name} %u\\n", checksum(){skew});
    return 0;
}}
"""

_DP_BODY = """\
    for (int j = 0; j <= LEN; j++)
        row[j] = 0;
    for (int i = 1; i <= LEN; i++) {
        int diag = 0;
        for (int j = 1; j <= LEN; j++) {
            int up = row[j];
            int left = row[j - 1];
            int best = x[i - 1] == y[j - 1] ? diag + 1 : (up > left ? up : left);
            diag = up;
            row[j] = best;
        }
    }
"""

_DP_FAST = """\
    for (int j = 0; j <= LEN; j++)
        row[j] = 0;
    for (int i = 1; i <= LEN; i++) {
        const unsigned char xi = x[i - 1];
        int diag = 0;
        for (int j = 1; j <= LEN; j++) {
            int up = row[j];
            int left = row[j - 1];
            int best = xi == y[j - 1] ? diag + 1 : (up > left ? up : left);
            diag = up;
            row[j] = best;
        }
    }
"""

_MONTE = _SMALL_HEAD + """
#define SAMPLES {samples}L

static unsigned hits;

void kernel(void) {{
{body}}}

int main(void) {{
    kernel();
    printf("{name} %u\\n", hits{skew});
    return 0;
}}
"""

_MONTE_LOOP = """\
    for (long s = 0; s < SAMPLES; s++) {
        unsigned v = (unsigned) s * 2654435761u + SALT;
        v ^= v >> 13;
        v *= 0x5bd1e995u;
        v ^= v >> 15;
        unsigned px = v >> 16, py = v & 0xffffu;
        total += (px * px + py * py) >> 31;
    }
"""

_MONTE_BODY = "    unsigned total = 0;\n" + _MONTE_LOOP + "    hits = total;\n"
_MONTE_FAST = (
    "    unsigned total = 0;\n"
    + _MONTE_LOOP.replace("(px * px + py * py) >> 31", "(unsigned) ((px * px + py * py) >> 31)")
    + "    hits = total;\n"
)
_MONTE_OMP = (
    "    unsigned total = 0;\n"
    "    #pragma omp parallel for reduction(+:total)\n"
    + _MONTE_LOOP + "    hits = total;\n"
)

_SLEEP = _SMALL_HEAD + """#include <time.h>

void pause_us(long us) {{
    struct timespec ts;
    ts.tv_sec = us / 1000000L;
    ts.tv_nsec = (us % 1000000L) * 1000L;
    nanosleep(&ts, 0);
}}

void kernel(void) {{
{body}}}

int main(void) {{
    kernel();
    printf("{name} done\\n");
    return 0;
}}
"""

_SPIN = _SMALL_HEAD + """
void kernel(void) {{
{body}}}

int main(void) {{
    kernel();
    printf("{name} done\\n");
    return 0;
}}
"""


def _sleep_body(us: int) -> str:
    return f"    pause_us({us}L);\n"


def _spin_body(iters: int) -> str:
    return (
        "    volatile unsigned long sink = 0;\n"
        f"    for (unsigned long i = 0; i < {iters}UL; i++)\n"
        "        sink += i;\n"
    )


class _Kernel:
    """One small benchmark: its source and the candidate sources of each kind."""

    def __init__(self, rng: random.Random, bench_id: str, shape: str, size: int):
        self.id = bench_id
        self.shape = shape
        self.flags = ["-O2"]
        fill = {
            "name": bench_id,
            "noise": rng.choice(_NOISE).replace("*/", "* /"),
            "salt": rng.randrange(1, 1 << 30),
        }
        if shape == "stencil":
            self.motif = "Stencils"
            self._template = _STENCIL
            fill.update(cells=4096, steps=size)
            self._bodies = {"base": _STENCIL_BODY, "fast": _STENCIL_FAST}
        elif shape == "dp":
            self.motif = "DynamicProgramming"
            self._template = _DP
            fill.update(length=size)
            self._bodies = {"base": _DP_BODY, "fast": _DP_FAST}
        elif shape == "monte":
            self.motif = "MonteCarlo"
            self.flags = ["-O2", "-fopenmp"]
            salt = f"{fill['salt']}u"
            self._template = _MONTE
            fill.update(samples=size)
            self._bodies = {
                "base": _MONTE_BODY.replace("SALT", salt),
                "fast": _MONTE_FAST.replace("SALT", salt),
                "omp": _MONTE_OMP.replace("SALT", salt),
            }
        elif shape == "sleep":
            self.motif = "StructuredGrids"
            self._template = _SLEEP
            self._bodies = {"base": _sleep_body(size), "half": _sleep_body(size // 2)}
        elif shape == "spin":
            self.motif = "NBody"
            self._template = _SPIN
            self._bodies = {"base": _spin_body(size), "half": _spin_body(size // 2)}
        else:
            raise ValueError(shape)
        self._fill = fill
        self.source = self.render("base")

    def render(self, body: str, skew: str = "", extra: str = "") -> str:
        text = self._template.format(
            body=self._bodies[body], skew=skew, motif=self.motif, **self._fill
        )
        if extra:
            text = text.replace("void kernel(void) {", extra + "\nvoid kernel(void) {", 1)
        return text

    def manifest(self) -> dict:
        return {
            "id": self.id,
            "motif": self.motif,
            "level": 1,
            "language": "C",
            "sources": ["main.c"],
            "build": {"compiler_id": "gcc", "flags": self.flags, "timeout_s": 60},
            "run": {"args": [], "repetitions": REPETITIONS, "timeout_s": 30},
            "validation": {"mode": "ExactBytes"},
        }

    def candidate(self, rng: random.Random, kind: str) -> tuple[str, str, float | None]:
        """(reply text, planted category, ideal speedup) for one reply kind."""
        prose = rng.choice(_PROSE)
        if kind == "null":
            return _fenced(prose, self.source), CORRECT, 1.0
        if kind == "half":
            return _fenced(prose, self.render("half")), CORRECT, 2.0
        if kind == "fast":
            return _fenced(prose, self.render("fast")), CORRECT, None
        if kind == "omp":
            return _fenced("Parallelized the sample loop.", self.render("omp")), CORRECT, None
        if kind == "serial":
            # A serial rewrite answering a parallel request.
            return _fenced(prose, self.render("fast")), NOT_FOLLOWED, None
        if kind == "compile_error":
            broken = self.render("base").replace(
                "void kernel(void) {\n", f"void kernel(void) {{\n    undeclared_{rng.randrange(999)}++;\n", 1
            )
            return _fenced(prose, broken), COMPILE_ERROR, None
        if kind == "mismatch":
            return _fenced(prose, self.render("base", skew=" + 1u")), OUTPUT_MISMATCH, None
        if kind == "added_function":
            helper = f"unsigned mix_{rng.randrange(999)}(unsigned v) {{\n    return v ^ (v >> 7);\n}}\n"
            return _fenced(prose, self.render("base", extra=helper)), NOT_FOLLOWED, None
        if kind == "no_code":
            if rng.random() < 0.5:
                return rng.choice(_NO_CODE_PROSE), NO_CODE, None
            # An odd number of fence lines: the reply was cut off.
            return _fenced(prose, self.source).rsplit("```", 1)[0], NO_CODE, None
        raise ValueError(kind)


def _fenced(prose: str, code: str) -> str:
    return f"{prose}\n\n```c\n{code}```\n"


# Kernel sizes, in the shape's own unit. Approximate kernel times on a
# 2-vCPU x86 host with gcc 12 -O2: stencil 1 ms per 200 steps, dp 35 ms
# at length 4000 (quadratic), monte 3 ms per 1M samples, spin 1.5 ms per
# 1M iterations, sleep in microseconds. They span a few ms to ~100 ms.
_SINGLE_BLOCK = (
    # (driver, shape, size, reply kind)
    ("ex1", "sleep", 4_000, "half"),
    ("ex1", "sleep", 60_000, "half"),
    ("ex1", "spin", 30_000_000, "half"),
    ("ex1", "stencil", 2_000, "null"),
    ("ex1", "dp", 5_000, "null"),
    ("ex1", "stencil", 8_000, "fast"),
    ("ex1", "dp", 2_000, "compile_error"),
    ("ex1", "stencil", 1_000, "mismatch"),
    ("ex1", "dp", 3_000, "added_function"),
    ("ex1", "stencil", 600, "no_code"),
    ("ex3", "monte", 8_000_000, "omp"),
    ("ex3", "monte", 4_000_000, "serial"),
)

# ex2 rows: five replies each; the row category is the best correct turn,
# or the last turn's category when no turn is correct.
_EX2_BLOCK = (
    ("sleep", 8_000, ("half",) * EX2_TURNS),
    ("spin", 6_000_000, ("half",) * EX2_TURNS),
    ("stencil", 200, ("null",) * EX2_TURNS),
    ("dp", 1_500, ("no_code", "compile_error", "fast", "mismatch", "added_function")),
    ("stencil", 300, ("mismatch", "no_code", "added_function", "no_code", "compile_error")),
    ("dp", 1_000, ("compile_error", "added_function", "no_code", "compile_error", "mismatch")),
    ("stencil", 250, ("no_code", "mismatch", "compile_error", "mismatch", "added_function")),
    ("dp", 1_200, ("added_function", "compile_error", "mismatch", "added_function", "no_code")),
)
# Per-request provider delays in seconds; each ex2 row uses them in a
# seeded order, so every row waits the same total.
_EX2_DELAYS = (0.06, 0.08, 0.10, 0.12, 0.14)


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _attempt(reply: str, category: str, ideal: float | None, delay_s: float = 0.0) -> dict:
    return {"reply": reply, "category": category, "ideal": ideal, "delay_s": delay_s}


def _write_kernel(suite: Path, kernel: _Kernel) -> None:
    bench = suite / kernel.id
    bench.mkdir(parents=True)
    (bench / "main.c").write_text(kernel.source, encoding="utf-8")
    (bench / "bench.json").write_text(json.dumps(kernel.manifest(), indent=2), encoding="utf-8")


def _single_shot(rng: random.Random, suite: Path) -> list[dict]:
    rows = []
    for index, (driver, shape, size, kind) in enumerate(_shuffled(rng, _SINGLE_BLOCK)):
        kernel = _Kernel(rng, f"k{index:02d}_{shape}", shape, size)
        _write_kernel(suite, kernel)
        reply, category, ideal = kernel.candidate(rng, kind)
        rows.append({
            "driver": driver,
            "bench_id": kernel.id,
            "attempts": [_attempt(reply, category, ideal)],
            "category": category,
            "best_turn": None,
        })
    return rows


def _ex2(rng: random.Random, suite: Path) -> list[dict]:
    rows = []
    for index, (shape, size, kinds) in enumerate(_shuffled(rng, _EX2_BLOCK)):
        kernel = _Kernel(rng, f"c{index:02d}_{shape}", shape, size)
        _write_kernel(suite, kernel)
        if len(set(kinds)) > 1:
            kinds = _shuffled(rng, kinds)
        delays = _shuffled(rng, _EX2_DELAYS)
        attempts = []
        for kind, delay in zip(kinds, delays):
            reply, category, ideal = kernel.candidate(rng, kind)
            attempts.append(_attempt(reply, category, ideal, delay))
        correct = [i for i, a in enumerate(attempts) if a["category"] == CORRECT]
        rows.append({
            "driver": "ex2",
            "bench_id": kernel.id,
            "attempts": attempts,
            "category": CORRECT if correct else attempts[-1]["category"],
            # Identical correct turns make the fastest one a coin toss.
            "best_turn": correct[0] + 1 if len(correct) == 1 else None,
        })
    return rows


# -- large translation units (agent_large_tu) ----------------------------------

_TU_HEAD = """\
/*
 * Generated translation unit {name}. {noise}
 * {{ braces in comments }} and "quotes' stay inert.
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define NX 200
#define NY 500
#define OPEN_TEXT "{{"
#define CLOSE_TEXT "}}"
#define SQ(v) ((v) * (v))
#define BLOCK_BEGIN {{
#define BLOCK_END }}
#define CLAMP(v, lo, hi) ((v) < (lo) ? (lo) : (v) > (hi) ? (hi) : (v))

static double field[NY][NX];
static double next_field[NY][NX];
static char outbuf[NY * NX * 16 + 64];
static size_t outlen;
"""

_TU_HELPER = """\
/* helper {i}: {noise} */
double helper_{i}(double v) {{
    // line comment with {noise2}
    const char *tag = "{text}";
    char mark = '{char}';
    double w = v * {a} + {b};
    if (tag[0] == mark) w += SQ({c});
    return CLAMP(w, -1.0e6, 1.0e6);
}}
"""

_TU_TAIL = """\
void init_field(void) {{
    unsigned s = {salt}u;
    for (int j = 0; j < NY; j++)
        for (int i = 0; i < NX; i++) {{
            s = s * 1664525u + 1013904223u;
            field[j][i] = (double) (s >> 8) / 16777216.0;
        }}
}}

{hotspot}
int main(void) {{
    double acc = 0.0;
    init_field();
{calls}    relax();
    fwrite(outbuf, 1, outlen, stdout);
    printf("%.9e\\n", acc);
    return 0;
}}
"""

# The hotspot redoes the whole sweep-and-format work PASSES times from the
# same initial state, so the output is independent of PASSES and halving
# it halves the work inside the process. The macro-defined braces and the
# brace characters in strings are there for the lexical scanners.
_HOTSPOT = """\
void relax(void) {{
    const char *note = "relax {{ sweep }}";
    for (int pass = 0; pass < {passes}; pass++) BLOCK_BEGIN
        memcpy(next_field, field, sizeof field);
        for (int sweep = 0; sweep < 2; sweep++)
            for (int j = 1; j < NY - 1; j++)
                for (int i = 1; i < NX - 1; i++)
                    next_field[j][i] = {w} * (next_field[j - 1][i] + next_field[j + 1][i]
                        + next_field[j][i - 1] + next_field[j][i + 1]){tail};
        outlen = 0;
        for (int j = 0; j < NY; j++)
            for (int i = 0; i < NX; i += 5)
                outlen += (size_t) snprintf(outbuf + outlen, sizeof outbuf - outlen,
                    "%.6e %.6e %.6e %.6e %.6e\\n", next_field[j][i], next_field[j][i + 1],
                    next_field[j][i + 2], next_field[j][i + 3], next_field[j][i + 4]);
    BLOCK_END
    (void) note;
}}
"""


def _hotspot(passes: int, w: str = "0.25", tail: str = "", extra: str = "") -> str:
    text = _HOTSPOT.format(passes=passes, w=w, tail=tail)
    if extra:
        text = text.replace("    (void) note;", extra + "    (void) note;", 1)
    return text


_CHARS = ("{", "}", "(", ")", ";", "\\'")


def _translation_unit(rng: random.Random, name: str, helpers: int) -> str:
    parts = [_TU_HEAD.format(name=name, noise=rng.choice(_NOISE).replace("*/", "* /"))]
    for i in range(helpers):
        parts.append(_TU_HELPER.format(
            i=i,
            noise=rng.choice(_NOISE).replace("*/", "* /"),
            noise2=rng.choice(_NOISE),
            text=rng.choice(_NOISE),
            char=rng.choice(_CHARS),
            a=f"{rng.uniform(0.5, 1.5):.6f}",
            b=f"{rng.uniform(-2, 2):.6f}",
            c=f"{rng.uniform(0, 1):.6f}",
        ))
    calls = "".join(f"    acc += helper_{i}({i}.5);\n" for i in range(helpers))
    parts.append(_TU_TAIL.format(salt=rng.randrange(1, 1 << 30), hotspot=_hotspot(2), calls=calls))
    return "\n".join(parts)


_AGENT_BLOCK = (
    # Reply kinds for the two iterations of one agent run.
    ("null", "compile_error"),
    ("half", "mismatch"),
    ("renamed", "fast"),
    ("no_code", "half"),
    ("added_print", "null"),
)
_AGENT_HELPERS = 60


def _agent_reply(rng: random.Random, kind: str) -> tuple[str, str, float | None]:
    prose = rng.choice(_PROSE) + " Please also measure l1 data cache misses next."
    if kind == "null":
        return _fenced(prose, _hotspot(2)), CORRECT, 1.0
    if kind == "half":
        return _fenced(prose, _hotspot(1)), CORRECT, 2.0
    if kind == "fast":
        return _fenced(prose, _hotspot(2, w="(1.0 / 4.0)")), CORRECT, None
    if kind == "compile_error":
        return _fenced(prose, _hotspot(2, extra="    undeclared_gain *= 2.0;\n")), COMPILE_ERROR, None
    if kind == "mismatch":
        return _fenced(prose, _hotspot(2, tail=" * 1.001")), OUTPUT_MISMATCH, None
    if kind == "added_print":
        noisy = _hotspot(2, extra='    fputs("relaxed\\n", stderr);\n')
        return _fenced(prose, noisy), NOT_FOLLOWED, None
    if kind == "renamed":
        renamed = _hotspot(1).replace("void relax(void)", "void relax_fast(void)", 1)
        return _fenced(prose, renamed), NOT_FOLLOWED, None
    if kind == "no_code":
        return _fenced(prose, _hotspot(1)).rsplit("```", 1)[0], NO_CODE, None
    raise ValueError(kind)


def _profile_tree(rng: random.Random, fanout: int, depth: int, hot_scale: float) -> str:
    """A cct-v1 document: main -> init_field, relax, helpers -> callees."""
    metrics = [
        {"id": "time_excl", "unit": "s", "kind": "Exclusive"},
        {"id": "time_incl", "unit": "s", "kind": "Inclusive"},
        {"id": "l1_dcache_miss", "unit": "count", "kind": "Exclusive"},
        {"id": "fp_inst", "unit": "count", "kind": "Exclusive"},
    ]

    def node(fn: str, level: int, excl: float) -> dict:
        children = []
        if level < depth:
            for k in range(fanout):
                children.append(node(f"{fn}_c{k}", level + 1, rng.uniform(1e-5, 1e-3)))
        incl = excl + sum(c["metrics"]["time_incl"] for c in children)
        return {
            "frame": {"fn": fn, "file": "main.c", "line": rng.randrange(1, 2000)},
            "metrics": {
                "time_excl": excl,
                "time_incl": incl,
                "l1_dcache_miss": float(rng.randrange(1000, 10**6)),
                "fp_inst": float(rng.randrange(10**4, 10**8)),
            },
            "children": children,
        }

    callees = [node(AGENT_HOTSPOT, 1, 0.03 * hot_scale), node("init_field", 1, 0.002)]
    callees += [node(f"helper_{i}", 1, rng.uniform(1e-6, 1e-4)) for i in range(12)]
    main = {
        "frame": {"fn": "main", "file": "main.c", "line": 1},
        "metrics": {"time_excl": 1e-4, "time_incl": 1e-4 + sum(c["metrics"]["time_incl"] for c in callees),
                    "l1_dcache_miss": 10.0, "fp_inst": 10.0},
        "children": callees,
    }
    return json.dumps({"schema": "cct-v1", "metrics": metrics, "roots": [main]})


def _agent(rng: random.Random, suite: Path, profiles: Path) -> list[dict]:
    rows = []
    for index, kinds in enumerate(_shuffled(rng, _AGENT_BLOCK)):
        bench_id = f"tu{index:02d}"
        bench = suite / bench_id
        bench.mkdir(parents=True)
        (bench / "main.c").write_text(
            _translation_unit(rng, bench_id, _AGENT_HELPERS), encoding="utf-8"
        )
        (bench / "bench.json").write_text(json.dumps({
            "id": bench_id,
            "motif": "StructuredGrids",
            "level": 2,
            "language": "C",
            "sources": ["main.c"],
            "entry_hotspot": AGENT_HOTSPOT,
            "build": {"compiler_id": "gcc", "flags": ["-O0"], "timeout_s": 60},
            "run": {"args": [], "repetitions": REPETITIONS, "timeout_s": 30},
            "validation": {"mode": "NumericTokens", "abs_tol": 1e-12, "rel_tol": 1e-9},
        }, indent=2), encoding="utf-8")
        tree_dir = profiles / bench_id
        tree_dir.mkdir(parents=True)
        for tag, scale in (("base", 1.0), ("iter1", 0.6), ("iter2", 0.5)):
            (tree_dir / f"{tag}.json").write_text(
                _profile_tree(rng, fanout=3, depth=4, hot_scale=scale), encoding="utf-8"
            )
        attempts = [_attempt(*_agent_reply(rng, kind)) for kind in kinds]
        rows.append({
            "driver": "agent",
            "bench_id": bench_id,
            "attempts": attempts,
            "category": None,
            "best_turn": None,
        })
    return rows


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs under ``out_dir`` and return the plan."""
    rng = random.Random(f"{workload}:{seed}")
    suite = out_dir / "suite"
    suite.mkdir(parents=True)
    if workload == "single_shot":
        rows = _single_shot(rng, suite)
    elif workload == "ex2_model_wait":
        rows = _ex2(rng, suite)
    elif workload == "agent_large_tu":
        rows = _agent(rng, suite, out_dir / "profiles")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for index, row in enumerate(rows):
        row["row"] = index
    plan = {"workload": workload, "seed": seed, "rows": rows}
    (out_dir / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True), encoding="utf-8")
    return plan
