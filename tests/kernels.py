"""C sources used as benchmark fixtures across the test suite.

The matmul family keeps every variant derivable from the naive one by a
single textual substitution, so candidate "optimizations" differ from the
baseline only in the loop-order lines (and optionally one pragma). All
variants print the same checksum, making them interchangeable under
output validation. The default size is N=512, where the ijk inner loop walks
B with a 4 KiB stride and ikj measures over 2x faster; at N=256 the
matrices fit in L2 and the gain (about 1.1x) is too small to assert on.
"""

from __future__ import annotations

MATMUL_IJK_TEMPLATE = """\
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

_JK_LINES = """\
        for (int j = 0; j < N; j++) {
            for (int k = 0; k < N; k++) {"""

_KJ_LINES = """\
        for (int k = 0; k < N; k++) {
            for (int j = 0; j < N; j++) {"""


def matmul_ijk(n: int = 512) -> str:
    return MATMUL_IJK_TEMPLATE.format(n=n)


def matmul_ikj(n: int = 512) -> str:
    """Loop-interchanged variant; same per-element accumulation order."""
    src = matmul_ijk(n)
    out = src.replace(_JK_LINES, _KJ_LINES)
    assert out != src
    return out


def matmul_omp_ikj(n: int = 512) -> str:
    """Parallel variant: omp pragma on the outer loop plus interchange."""
    src = matmul_ikj(n)
    out = src.replace(
        "void matmul(void) {\n    for (int i = 0; i < N; i++) {",
        "void matmul(void) {\n#pragma omp parallel for\n    for (int i = 0; i < N; i++) {",
    )
    assert out != src
    return out


def matmul_serial_response(n: int = 512) -> str:
    """An EX3 answer that ignores the parallelism requirement."""
    return matmul_ikj(n)


SLEEP_TEMPLATE = """\
#include <stdio.h>
#include <time.h>

static void work(void) {{
    struct timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = {ms}L * 1000000L;
    nanosleep(&ts, 0);
}}

int main(void) {{
    work();
    printf("{message}\\n");
    return 0;
}}
"""


def sleeper(ms: int, message: str = "result 42") -> str:
    """Binary whose runtime is engineered and output is fixed."""
    assert 0 <= ms < 1000
    return SLEEP_TEMPLATE.format(ms=ms, message=message)


CRASH_MAIN = """\
#include <stdlib.h>

int main(void) {
    abort();
}
"""

EXIT_NONZERO = """\
#include <stdio.h>

int main(void) {
    printf("partial\\n");
    return 3;
}
"""

ENV_ECHO = """\
#include <stdio.h>
#include <stdlib.h>

int main(void) {
    const char *v = getenv("OMP_NUM_THREADS");
    printf("threads=%s\\n", v ? v : "unset");
    return 0;
}
"""

CRASH_IF_8_THREADS = """\
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int main(void) {
    const char *v = getenv("OMP_NUM_THREADS");
    if (v && strcmp(v, "8") == 0) {
        return 9;
    }
    printf("fine\\n");
    return 0;
}
"""

SYNTAX_ERROR = """\
#include <stdio.h>

int main(void) {
    printf("never compiles\\n"
    return 0;
}
"""

SLEEP_5S = """\
#include <stdio.h>
#include <time.h>

int main(void) {
    struct timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = 500000000L;
    for (int i = 0; i < 10; i++) {
        nanosleep(&ts, 0);
    }
    printf("woke\\n");
    return 0;
}
"""

SLEEP_FRACTION = """\
#include <stdio.h>
#include <time.h>

int main(void) {
    struct timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = 100000000L;
    nanosleep(&ts, 0);
    printf("slept\\n");
    return 0;
}
"""

HOTSPOT_LOOP_TEMPLATE = """\
#include <stdio.h>
#include <time.h>

static void setup(void) {{
    struct timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = 20L * 1000000L;
    nanosleep(&ts, 0);
}}

void kernel(void) {{
    struct timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = {ms}L * 1000000L;
    nanosleep(&ts, 0);
}}

int main(void) {{
    setup();
    kernel();
    printf("energy 7.5000e+00\\n");
    return 0;
}}
"""


def hotspot_program(kernel_ms: int) -> str:
    """Fixed 20 ms setup plus a tunable ``kernel`` hotspot."""
    return HOTSPOT_LOOP_TEMPLATE.format(ms=kernel_ms)


def kernel_replacement(ms: int) -> str:
    """A drop-in ``kernel`` definition with a different engineered cost."""
    return (
        "void kernel(void) {\n"
        "    struct timespec ts;\n"
        "    ts.tv_sec = 0;\n"
        f"    ts.tv_nsec = {ms}L * 1000000L;\n"
        "    nanosleep(&ts, 0);\n"
        "}"
    )


def fenced(code: str, lang: str = "c", prose_before: str = "", prose_after: str = "") -> str:
    """Wrap code in a markdown fence the way chat models answer."""
    parts = []
    if prose_before:
        parts.append(prose_before)
    parts.append(f"```{lang}\n{code}\n```")
    if prose_after:
        parts.append(prose_after)
    return "\n\n".join(parts)


BIG_OUTPUT = """\
#include <stdio.h>

int main(void) {
    for (int i = 0; i < 200000; i++) {
        printf("%06d\\n", i);
    }
    return 0;
}
"""
# What BIG_OUTPUT prints: 1.4 MB.
BIG_OUTPUT_BYTES = b"".join(b"%06d\n" % i for i in range(200000))

COUNTED_RUNS = """\
#include <stdio.h>
#include <stdlib.h>

/* Counts its runs in ./runs. Prints "run N" on stdout and "err N" on
   stderr, then exits 5 if N equals argv[1]. */
int main(int argc, char **argv) {
    int n = 0;
    FILE *f = fopen("runs", "r");
    if (f) {
        if (fscanf(f, "%d", &n) != 1) n = 0;
        fclose(f);
    }
    n++;
    f = fopen("runs", "w");
    fprintf(f, "%d\\n", n);
    fclose(f);
    printf("run %d\\n", n);
    fprintf(stderr, "err %d\\n", n);
    return argc > 1 && n == atoi(argv[1]) ? 5 : 0;
}
"""

STDIN_ECHO = """\
#include <stdio.h>

/* Copies stdin to stdout and to stderr. */
int main(void) {
    int c;
    while ((c = getchar()) != EOF) {
        putchar(c);
        fputc(c, stderr);
    }
    return 0;
}
"""

FORK_AND_SLEEP = """\
#include <stdio.h>
#include <unistd.h>

/* Forks one grandchild that writes its pid to ./grandchild.pid; then
   both sleep for 30 s. */
int main(void) {
    pid_t pid = fork();
    if (pid == 0) {
        FILE *f = fopen("grandchild.pid.tmp", "w");
        fprintf(f, "%d\\n", (int)getpid());
        fclose(f);
        rename("grandchild.pid.tmp", "grandchild.pid");
    }
    sleep(30);
    return 0;
}
"""

FORK_AND_PRINT_LATE = """\
#include <stdio.h>
#include <unistd.h>

/* The leader prints its child's pid and exits at once; the child sleeps
   0.3 s, then prints a line and creates ./late.marker. */
int main(void) {
    pid_t pid = fork();
    if (pid == 0) {
        usleep(300000);
        printf("late\\n");
        fflush(stdout);
        fclose(fopen("late.marker", "w"));
        return 0;
    }
    printf("leader %d\\n", (int)pid);
    return 0;
}
"""

# 8.4 MB on stderr, one numbered line at a time.
STDERR_FLOOD_LINES = 700000
STDERR_FLOOD = """\
#include <stdio.h>

int main(void) {
    for (int i = 0; i < %d; i++) fprintf(stderr, "%%011d\\n", i);
    return 0;
}
""" % STDERR_FLOOD_LINES
