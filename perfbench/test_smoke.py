"""Smoke test of the benchmark: one op per workload passes its reference
check, and a corrupted report counts as a failed op.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import os
import sys
import time
import types

import pytest

import run  # first: pins the BLAS pools before numpy loads
import reference
from speed import REF_PROBE_S, SpeedTrack
from tracing import Tracer, words_visited
from workloads import OUT_DIR, WORKLOADS, write_gens_files


@pytest.fixture(scope="module")
def runner():
    os.chdir(run.ROOT)
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    write_gens_files()
    return run.Runner(reference.load(), time.perf_counter())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_per_workload(runner, name):
    (res,) = runner.run_ops([list(WORKLOADS[name].setup_op)])
    assert res["failure"] is None
    assert res["seconds"] > 0


def test_corrupted_report_counts_as_failed(runner, monkeypatch):
    argv = list(WORKLOADS["tables"].setup_op)
    main = runner._main

    def main_then_corrupt(args):
        rc = main(args)
        path = args[args.index("--out") + 1]
        with open(path) as fh:
            doc = json.load(fh)
        doc["rows"][5]["l2_norm"] *= 1 + 1e-6
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return rc

    monkeypatch.setattr(runner, "_main", main_then_corrupt)
    (res,) = runner.run_ops([argv])
    assert res["failure"] is not None and "l2_norm" in res["failure"]


def test_comparator_tolerances():
    want = {"config": "lam2 = 0.935261933012", "rows": [{"x": 0.25, "n": 3, "ok": True}]}
    same = json.loads(json.dumps(want))
    same["rows"][0]["x"] = 0.25 * (1 + 1e-12)
    same["config"] = "lam2 = 0.935261933013"
    assert reference.diff(same, want) is None
    for path, value in (("x", 0.25 * (1 + 1e-8)), ("n", 4), ("ok", False), ("n", 3.0)):
        bad = json.loads(json.dumps(want))
        bad["rows"][0][path] = value
        assert reference.diff(bad, want) is not None
    assert reference.diff({**want, "config": "lam2 = 0.9352"}, want) is not None
    assert reference.check({"exit": 1, "report": want}, 1, json.dumps(want)) is not None


def test_words_visited_matches_free_count():
    # M = 2 free generators: 4 * 3^(l-1) reduced words of length l
    assert words_visited(2, 3, None) == 4 + 12 + 36
    # witness (1, 2, -1, 2, 1, -2) at L = 6: counted by instrumenting the search
    assert words_visited(2, 6, (1, 2, -1, 2, 1, -2)) == 182


def test_tracer_survives_renamed_functions_and_changed_signatures(capsys):
    mod = types.ModuleType("fake")
    mod.f = orig = lambda x: x + 1
    tracer = Tracer()
    tracer._wrap(mod, "f", "fake.f", lambda a, k, out: {"n": a[5]})
    tracer._wrap(mod, "gone", "fake.gone")
    assert mod.f(1) == 2
    assert tracer.spans[0]["name"] == "fake.f" and "counts_error" in tracer.spans[0]
    assert "fake.gone not found" in capsys.readouterr().err
    tracer.uninstall()
    assert mod.f is orig


def test_speed_track_scales_by_nearby_probes():
    track = SpeedTrack()
    track.stamps = [float(t) for t in range(40)]
    track.values = [REF_PROBE_S] * 20 + [2 * REF_PROBE_S] * 20
    assert track.scale(2.0, 1.0) == pytest.approx(1.0)
    assert track.scale(30.0, 1.0) == pytest.approx(0.5)
    assert track.factor() == pytest.approx(1.5)
