"""Regenerate perfbench/reference.json.gz: run every op of every
workload's grid once and store its exit code and JSON report.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference; a later change
that is meant to keep every report must not regenerate it.
"""
from __future__ import annotations

import json
import os
import sys
import time

import reference
import run
from workloads import OUT_DIR, WORKLOADS, write_gens_files


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    write_gens_files()
    runner = run.Runner({}, time.perf_counter())
    entries = {}
    for w in WORKLOADS.values():
        grid = w.grid()
        t0 = time.perf_counter()
        for argv in grid:
            res = runner.run_op(argv)
            if res["rc"] not in (0, 2) or res["report"] is None:
                print(f"error: {' '.join(argv)} exited {res['rc']}", file=sys.stderr)
                return 1
            entries[reference.op_key(argv)] = {"exit": res["rc"], "report": json.loads(res["report"])}
        print(f"{w.name}: {len(grid)} ops in {time.perf_counter() - t0:.1f} s")
    reference.save(entries)
    print(f"wrote {len(entries)} entries to {reference.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
