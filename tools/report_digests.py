"""Digest CLI reports, one fresh `python -m expanderlab` process per argv.

Reads argvs one per line, shell-quoted ('#' starts a comment, blank lines
are skipped), from the file named on the command line or from stdin, and
prints one line per argv: sha256(stdout) sha256(stderr) exit-code argv.
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

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    source = open(sys.argv[1]) if len(sys.argv) > 1 else sys.stdin
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for line in source:
        argv = shlex.split(line, comments=True)
        if argv:
            run = subprocess.run([sys.executable, "-m", "expanderlab", *argv], capture_output=True, env=env)
            digests = (hashlib.sha256(b).hexdigest() for b in (run.stdout, run.stderr))
            print(*digests, run.returncode, shlex.join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
