"""Digest CLI reports, one fresh `python -m expanderlab` process per argv.

Reads argvs one per line, shell-quoted ('#' starts a comment, blank lines
are skipped), from the file named on the command line or from stdin, and
prints one line per argv: sha256(stdout) sha256(stderr) sha256(json)
exit-code argv.  The json digest is that of the report the same argv
writes with `--out report.json` (the format the benchmark reads), in a
second process; "-" when that run writes none.
The package is loaded from the src/ beside this script, so the same argv
list run in two checkouts, from the same working directory, gives output
that differs only where a report does:

    python tools/report_digests.py argvs.txt > change.txt
    python ../parent/tools/report_digests.py argvs.txt > parent.txt
    diff parent.txt change.txt
"""
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "expanderlab", *argv], capture_output=True, env=env)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    source = open(sys.argv[1]) if len(sys.argv) > 1 else sys.stdin
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for line in source:
            argv = shlex.split(line, comments=True)
            if argv:
                plain = run(argv, env)
                run([*argv, "--out", report], env)
                as_json = "-"
                if os.path.exists(report):
                    with open(report, "rb") as fh:
                        as_json = sha256(fh.read())
                    os.remove(report)
                digests = sha256(plain.stdout), sha256(plain.stderr), as_json
                print(*digests, plain.returncode, shlex.join(argv), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
