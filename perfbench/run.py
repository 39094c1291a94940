"""expanderlab benchmark: one simulated researcher running CLI experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The loop is closed and single-process:
each op is one in-process call of expanderlab.cli.main(argv + ["--out",
PATH]), started when the previous one has finished, so an op costs what
a user's experiment costs (table build, measurement, report write).
Every report is checked against perfbench/reference.json.gz.

--trace 0 prints the end-to-end metrics, with every timing scaled to the
speed of a reference machine by a probe timed between ops (speed.py).
--trace 1 runs the same ops twice, untraced and then with spans around
the layer functions, and prints the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  README.md in this
directory defines every metric and workload.
"""
from __future__ import annotations

import os
import sys

# Pin the BLAS/OpenMP pools before numpy loads, with the variables the
# CLI's --threads flag sets.  More than one thread makes small dense
# eigensolves slower and erratic on a shared 2-CPU machine.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import reference  # noqa: E402
from speed import SpeedTrack  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, write_gens_files  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REPORT_PATH = os.path.join(OUT_DIR, "report.json")
SETUP_REPORT_PATH = os.path.join(OUT_DIR, "setup.json")
SETUP_SAMPLES = 7
# no new op starts after this many seconds, so a run that has become
# very slow still ends within the 180 s a run may take
OP_DEADLINE_S = 150.0
TAIL_BEYOND = 10


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


class Runner:
    """Runs ops in this process and checks each report."""

    def __init__(self, ref: dict, started: float):
        from expanderlab import cli

        self._main = cli.main
        self.ref = ref
        self.started = started
        # when set, the machine-speed probe runs before every op
        self.track: SpeedTrack | None = None

    def run_op(self, argv: list[str]) -> dict:
        _remove(REPORT_PATH)
        # garbage left by the previous op is collected outside the timed
        # region: a user's fresh process would not carry it
        gc.collect()
        if self.track is not None:
            self.track.sample()
        error = None
        rc = None
        t0 = time.perf_counter()
        try:
            rc = self._main(argv + ["--out", REPORT_PATH])
        except Exception as e:  # an op that raises is a failed op, not a crash
            error = f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        text = _read(REPORT_PATH)
        reason = error or reference.check(self.ref.get(reference.op_key(argv)), rc, text)
        return {"argv": argv, "start": t0, "seconds": seconds, "rc": rc, "report": text,
                "failure": reason}

    def past_deadline(self) -> bool:
        return time.perf_counter() - self.started > OP_DEADLINE_S

    def run_ops(self, ops: list[list[str]]) -> list[dict]:
        results = []
        for i, argv in enumerate(ops):
            if self.past_deadline():
                print(f"deadline: {len(ops) - i} ops not started", file=sys.stderr)
                break
            results.append(self.run_op(argv))
        return results


def measure_setup(argv: list[str], ref: dict) -> tuple[float, float, str | None]:
    """Start and wall time of one op in a fresh interpreter, invoked as a
    user would: python -m expanderlab ARGS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "expanderlab", *argv, "--out", SETUP_REPORT_PATH]
    _remove(SETUP_REPORT_PATH)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    seconds = time.perf_counter() - t0
    reason = reference.check(ref.get(reference.op_key(argv)), proc.returncode,
                             _read(SETUP_REPORT_PATH))
    if reason:
        reason = f"set-up op {' '.join(argv)}: {reason} {proc.stderr.strip()}"
    return t0, seconds, reason


def throughput(results: list[dict], durations: list[float] | None = None) -> float:
    if durations is None:
        durations = [r["seconds"] for r in results]
    busy = sum(durations)
    ok = sum(1 for r in results if r["failure"] is None)
    return ok / busy if busy > 0 else 0.0


def tail(durations: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND ops
    beyond it; the maximum when there are too few ops."""
    d = sorted(durations)
    rank = len(d) - TAIL_BEYOND if len(d) > TAIL_BEYOND else len(d)
    return d[rank - 1], 100.0 * rank / len(d)


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(mod) -> str:
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "threads": THREADS,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(git, ref))
    if sha:
        return sha.strip()
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(w, ops, runner, ref, seed) -> tuple[dict, list[dict], list[str]]:
    # the set-up samples are spread over the run, so that one slow spell
    # of a shared machine does not hit all of them
    track = runner.track = SpeedTrack()
    setups, setup_failures, results = [], [], []
    step = len(ops) / SETUP_SAMPLES
    for k in range(SETUP_SAMPLES):
        track.sample()
        start, seconds, failure = measure_setup(list(w.setup_op), ref)
        setups.append((start, seconds))
        setup_failures += [failure] if failure else []
        results += runner.run_ops(ops[round(k * step):round((k + 1) * step)])
    track.sample()
    runner.track = None
    with open(os.path.join(OUT_DIR, f"speed-{w.name}-{seed}.json"), "w") as fh:
        json.dump({"probes": list(zip(track.stamps, track.values)), "setups": setups}, fh)
    # every timing is scaled to the reference machine speed (speed.py)
    durations = [track.scale(r["start"], r["seconds"]) for r in results]
    setup_times = [track.scale(start, seconds) for start, seconds in setups]
    for r, d in zip(results, durations):
        r["scaled"] = d
    tail_s, tail_pct = tail(durations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": metric(throughput(results, durations), "1/s"),
        "op_p50_s": metric(statistics.median(durations), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    raw = [r["seconds"] for r in results]
    print(f"machine speed: probe median {track.factor():.3f}x the reference "
          f"({len(track.values)} probes); unscaled ops_per_s {throughput(results):.4f} "
          f"op_p50_s {statistics.median(raw):.4f} op_tail_s {tail(raw)[0]:.4f} "
          f"setup_s {statistics.median(s for _, s in setups):.4f}")
    print(f"op_tail_s is p{tail_pct:.1f} of {len(durations)} ops")
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_times))
    return metrics, results, setup_failures


def run_traced(w, ops, runner, args) -> tuple[dict, list[dict], list[str]]:
    """Run each op untraced and traced back to back, alternating which
    goes first, so both passes see the same machine and warm caches
    favour neither; the difference is the cost of tracing."""
    from tracing import METRICS, Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = [], []
    for i, argv in enumerate(ops):
        if runner.past_deadline():
            print(f"deadline: {len(ops) - i} ops not started", file=sys.stderr)
            break
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(runner.run_op(argv))
                continue
            tracer.install()
            tracer.begin_op(i, argv)
            try:
                res = runner.run_op(argv)
            finally:
                tracer.uninstall()
            tracer.end_op(res["failure"] is not None and res["rc"] is None)
            traced.append(res)
    failures = [
        f"traced report differs from untraced: {' '.join(t['argv'])}"
        for p, t in zip(plain, traced)
        if t["failure"] is None and t["report"] != p["report"]
    ]
    values = layer_metrics(tracer.spans)
    untraced_rate, traced_rate = throughput(plain), throughput(traced)
    values["trace.overhead_ops_per_s"] = traced_rate - untraced_rate
    values["trace.spans"] = float(len(tracer.spans))
    print(f"ops_per_s untraced {untraced_rate:.4f}, traced {traced_rate:.4f}")
    metrics = {name: metric(values[name], unit) for name, unit, _, _ in METRICS}
    trace_path = os.path.join(OUT_DIR, f"trace-{w.name}-{args.seed}.jsonl")
    tracer.write(trace_path, {"workload": w.name, "seed": args.seed, "env": environment()})
    print(f"spans written to {trace_path}")
    return metrics, plain + traced, failures


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "expanderlab", "cli.py")):
        print(f"error: no expanderlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    write_gens_files()
    ref = reference.load()

    # the layer modules, numpy and scipy are loaded before timing: their
    # import cost is setup_s, measured in fresh interpreters
    import scipy.sparse.linalg  # noqa: F401
    from expanderlab import cli, exact, growth, quotient, spectral, words  # noqa: F401

    w = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    rounds = max(1, int(args.seconds // w.round_s))
    if args.trace:
        rounds = max(1, rounds // 2)
    ops = [op for _ in range(rounds) for op in w.round_ops(rng)]
    runner = Runner(ref, started)
    print("env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"workload={w.name} seed={args.seed} rounds={rounds} ops={len(ops)} trace={args.trace}")

    # One untimed op first: lazy initialisation in numpy and LAPACK (the
    # first eigensolve of a process takes ~80 ms extra) is part of setup_s,
    # which measures it in fresh interpreters, so the timed loop starts warm.
    warmup = runner.run_op(list(w.setup_op))
    if args.trace:
        metrics, results, extra = run_traced(w, ops, runner, args)
    else:
        metrics, results, extra = run_plain(w, ops, runner, ref, args.seed)
    failures = [f"{' '.join(r['argv'])}: {r['failure']}"
                for r in [warmup] + results if r["failure"]] + extra
    ops_path = os.path.join(OUT_DIR, f"ops-{w.name}-{args.seed}-trace{args.trace}.jsonl")
    with open(ops_path, "w") as fh:
        for r in results:
            fh.write(json.dumps({k: r.get(k) for k in ("argv", "start", "seconds", "scaled", "rc", "failure")})
                     + "\n")
    attempted = 1 + len(results) + (0 if args.trace else SETUP_SAMPLES)
    for f in failures:
        print("FAILED " + f)
    print(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
