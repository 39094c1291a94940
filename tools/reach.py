"""List the lines of src/ that no CLI report and no acceptance check reaches.

Runs every argv of tools/report_argvs.txt in this process through
`expanderlab.cli.main`, once plain and once with `--out report.json`, then
tests/test_acceptance.py under `pytest.main`, all under one `sys.settrace`
line tracer.  It then prints, for each function of src/expanderlab, the
executable lines of its body that neither run reached, and a total:

    python tools/reach.py

A line counts as reached when any code on it ran, including the lambdas,
comprehensions and generator expressions it holds; a function's `def` line
and module- and class-level lines are not counted.
"""
import contextlib
import inspect
import io
import os
import shlex
import sys
import tempfile
import types
from collections import defaultdict

import pytest

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "expanderlab")
NESTED = ("<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def functions(path: str) -> dict[str, set[int]]:
    """Each function's body lines, by qualified name, with its nested anonymous code folded in."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    body = defaultdict(set)

    def visit(code: types.CodeType, owner: str | None) -> None:
        if code.co_name in NESTED and owner is not None:
            name = owner
        elif code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            name = code.co_qualname
        else:
            name = None
        if name is not None:
            body[name] |= {line for _, _, line in code.co_lines() if line is not None and line != code.co_firstlineno}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const, name)

    visit(module, None)
    return body


def trace_runs() -> set[tuple[str, int]]:
    """(file, line) of every line of the package that the report argvs and the acceptance checks ran."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from expanderlab import cli

    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    os.chdir(ROOT)  # the argvs name generator files relative to the root
    with open(os.path.join(ROOT, "tools", "report_argvs.txt")) as fh:
        argvs = [argv for argv in (shlex.split(line, comments=True) for line in fh) if argv]
    sys.settrace(calls)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            out = os.path.join(tmp, "report.json")
            for argv in argvs:
                cli.main(argv)
                cli.main([*argv, "--out", out])
            checks = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests", "test_acceptance.py")])
    finally:
        sys.settrace(None)
    print(f"{len(argvs)} report argvs run twice; acceptance checks exit {int(checks)}")
    return hits


def main() -> int:
    hits = trace_runs()
    unreached = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        for function, lines in functions(path).items():
            missed = sorted(line for line in lines if (path, line) not in hits)
            total += len(lines)
            unreached += len(missed)
            if missed:
                print(f"src/expanderlab/{name}::{function}: {len(missed)} of {len(lines)}: {' '.join(map(str, missed))}")
    print(f"total: {unreached} of {total} function-body lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
