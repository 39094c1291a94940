import os
import sys

# Pin the BLAS and OpenMP pools to one thread before numpy loads, as
# perfbench does. On a shared 2-CPU machine, Tier-1 beside a second
# pytest process took 148-150 s unpinned and 88-90 s pinned (ARPACK in
# c04a-ceiling: 70-74 s against 26-29 s); run alone it took 72-75 s
# unpinned and 81-82 s pinned.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance checklist")
        for line in lines:
            terminalreporter.write_line(line)
