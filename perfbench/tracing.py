"""Spans around the public functions of expanderlab's layers.

The wrappers are installed from the benchmark, not inside the program:
each function is replaced where callers look it up.  Methods are
replaced on their class (GroupTable, CayleyGraph); module functions in
the namespace of the module that calls them, e.g. spectral.walk_step,
which walk_powers and escape_profile look up as a global, and
quotient.crt_tuple, which quotient imported by name.

A span records name, id, parent id, op id, start and end, plus counts
taken from the call's arguments and result.  Spans stay in memory until
the run writes them out as JSON lines.  A layer's self time is its
spans' duration minus the time their direct child spans cover.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "quotient", "spectral", "growth", "words", "exact")


def _sphere_subtree(M: int, n: int) -> int:
    """Nodes in a reduced-word subtree of depth n below one word."""
    return sum((2 * M - 1) ** i for i in range(n + 1))


def words_visited(M: int, L: int, witness) -> int:
    """Words certify_free multiplies out before it returns.

    The search is a depth-first walk over reduced words of length <= L in
    the letter order 1, -1, 2, -2, ...; it stops at the first word equal
    to a scalar matrix.  With no witness it visits every reduced word,
    sum_{l<=L} 2M(2M-1)^(l-1) of them.  With a witness it visits the
    witness's prefixes and, in full, every subtree that comes before it.
    """
    if witness is None:
        return sum(2 * M * (2 * M - 1) ** (l - 1) for l in range(1, L + 1))
    letters = [a for i in range(1, M + 1) for a in (i, -i)]
    total = len(witness)
    prev = None
    for depth, a in enumerate(witness, start=1):
        earlier = [b for b in letters[: letters.index(a)] if prev is None or b != -prev]
        total += len(earlier) * _sphere_subtree(M, L - depth)
        prev = a
    return total


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self._op = None
        self._op_span: dict | None = None
        self._perms: dict[int, tuple[object, dict]] = {}
        self._t0 = time.perf_counter()

    # ----- spans -----
    def _open(self, name: str) -> dict:
        span = {
            "name": name,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter() - self._t0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    def begin_op(self, op_id: int, argv) -> None:
        self._op = op_id
        self._perms.clear()
        self._op_span = self._open("cli.main")
        self._op_span["argv"] = " ".join(argv)

    def end_op(self, error: bool) -> None:
        if error:
            self._op_span["error"] = True
        self._close(self._op_span)
        self._perms.clear()

    # ----- wrapping -----
    def _wrap(self, owner, attr: str, name: str, counts=None) -> None:
        # a function a later version renames or removes is reported and
        # left untraced: its metrics read 0 rather than the run failing
        where = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in where:
            print(f"trace: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        orig = where[attr]

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                self._close(span)
            if counts is not None:
                # counts read the call's arguments; a changed signature
                # must not fail the op, so it marks the span instead
                try:
                    span.update(counts(args, kwargs, out))
                except Exception as e:
                    span["counts_error"] = f"{type(e).__name__}: {e}"
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def install(self) -> None:
        from expanderlab import cli, exact, growth, quotient, spectral, words

        GT, CG = quotient.GroupTable, spectral.CayleyGraph
        w = self._wrap
        w(quotient, "generate_group", "quotient.generate_group",
          lambda a, k, out: {"elems": out.order})
        w(GT, "left_perm", "quotient.left_perm", self._left_perm_counts)
        w(GT, "id_of_rows", "quotient.id_of_rows",
          lambda a, k, out: {"rows": int(np.atleast_2d(a[1]).shape[0])})
        w(GT, "mul_vec", "quotient.mul_vec",
          lambda a, k, out: {"pairs": int(np.size(out))})
        w(GT, "inv_vec", "quotient.inv_vec")
        w(quotient, "normal_subgroups", "quotient.normal_subgroups")
        w(quotient, "crt_tuple", "exact.crt_tuple")
        w(exact, "crt_tuple", "exact.crt_tuple")
        w(spectral, "coset_labels", "spectral.coset_labels")
        w(spectral, "walk_step", "spectral.walk_step", self._walk_step_counts)
        w(spectral, "spectrum", "spectral.spectrum",
          lambda a, k, out: {"name": "spectral.spectrum." + ("krylov" if out.partial else "dense")})
        w(CG, "apply", "spectral.CayleyGraph.apply")
        w(CG, "dense_operator", "spectral.CayleyGraph.dense_operator")
        w(growth, "random_symmetric_set", "growth.random_symmetric_set")
        w(growth, "product_set", "growth.product_set",
          lambda a, k, out: {"pairs": a[0].size * a[1].size, "out": out.size})
        w(words, "certify_free", "words.certify_free",
          lambda a, k, out: {"words": words_visited(len(a[0]), a[1], out[1])})
        w(words, "kesten_return", "words.kesten_return")
        w(cli, "parse_generators", "cli.parse_generators")
        w(cli, "emit_report", "cli.emit_report",
          lambda a, k, out: {"bytes": len(out.encode())})

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _left_perm_counts(self, args, kwargs, out) -> dict:
        # a cache hit hands back the same array object as the first call
        # for that table and element; tables are held until the op ends
        table, gid = args[0], int(args[1])
        held = self._perms.get(id(table))
        if held is None:
            held = self._perms[id(table)] = (table, {})
        built = held[1].get(gid) is not out
        held[1][gid] = out
        return {"build": int(built)}

    @staticmethod
    def _walk_step_counts(args, kwargs, out) -> dict:
        mu = args[0]
        kind = "exact" if mu.exact else "float"
        return {"name": "spectral.walk_step." + kind, "elems": mu.table.order}

    # ----- output -----
    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def _aggregate(spans: list[dict]) -> dict[str, dict]:
    child_time = defaultdict(float)
    child_error = set()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
            if s.get("error"):
                child_error.add(s["parent"])
    agg: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s["name"]]
        dur = s["end"] - s["start"]
        a["calls"] += 1
        a["incl"] += dur
        a["self"] += dur - child_time[s["id"]]
        for k in ("elems", "rows", "pairs", "out", "words", "bytes", "build"):
            a[k] += s.get(k, 0)
        # an error counts once, in the innermost traced call it left
        if s.get("error") and s["id"] not in child_error:
            agg["errors:" + s["name"].split(".")[0]]["calls"] += 1
    return agg


def _ratio(n: float, d: float) -> float:
    return n / d if d > 0 else 0.0


# Each per-layer metric as (name, unit, better, value), where value maps
# an accessor get(span_name, key) over the aggregated spans to a number.
# key is "calls", "incl" (inclusive seconds), "self" (self seconds) or a
# count recorded on the spans.  The trace.* metrics have no value here:
# the run computes them from its untraced and traced passes.
def _self(span):
    return lambda get: get(span, "self")


def _sum(span, key):
    return lambda get: get(span, key)


def _per_s(span, key):
    return lambda get: _ratio(get(span, key), get(span, "incl"))


def _per(span, key, base):
    return lambda get: _ratio(get(span, key), get(span, base))


def _hit_ratio(get) -> float:
    calls = get("quotient.left_perm", "calls")
    return 1.0 - _ratio(get("quotient.left_perm", "build"), calls) if calls else 0.0


METRICS = (
    ("quotient.generate_group.s", "s", "lower", _self("quotient.generate_group")),
    ("quotient.generate_group.elems_per_s", "1/s", "higher",
     _per_s("quotient.generate_group", "elems")),
    ("quotient.left_perm.s", "s", "lower", _self("quotient.left_perm")),
    ("quotient.left_perm.builds", "count", "lower", _sum("quotient.left_perm", "build")),
    ("quotient.left_perm.hit_ratio", "ratio", "higher", _hit_ratio),
    ("quotient.id_of_rows.s", "s", "lower", _self("quotient.id_of_rows")),
    ("quotient.id_of_rows.rows_per_s", "1/s", "higher", _per_s("quotient.id_of_rows", "rows")),
    ("spectral.coset_labels.s", "s", "lower", _self("spectral.coset_labels")),
) + tuple(
    metric
    for kind in ("float", "exact")
    for metric in (
        (f"spectral.walk_step.{kind}.s", "s", "lower", _self(f"spectral.walk_step.{kind}")),
        (f"spectral.walk_step.{kind}.calls", "count", "lower",
         _sum(f"spectral.walk_step.{kind}", "calls")),
        (f"spectral.walk_step.{kind}.elems_per_s", "1/s", "higher",
         _per_s(f"spectral.walk_step.{kind}", "elems")),
    )
) + (
    ("spectral.spectrum.dense_s", "s", "lower", _self("spectral.spectrum.dense")),
    ("spectral.spectrum.krylov_s", "s", "lower", _self("spectral.spectrum.krylov")),
    ("spectral.CayleyGraph.apply.calls", "count", "lower",
     _sum("spectral.CayleyGraph.apply", "calls")),
    ("spectral.CayleyGraph.apply.s", "s", "lower", _self("spectral.CayleyGraph.apply")),
    ("spectral.CayleyGraph.dense_operator.s", "s", "lower",
     _self("spectral.CayleyGraph.dense_operator")),
    ("quotient.mul_vec.s", "s", "lower", _self("quotient.mul_vec")),
    ("quotient.mul_vec.calls", "count", "lower", _sum("quotient.mul_vec", "calls")),
    ("quotient.mul_vec.pairs_per_s", "1/s", "higher", _per_s("quotient.mul_vec", "pairs")),
    ("quotient.mul_vec.pairs_per_call", "count", "higher",
     _per("quotient.mul_vec", "pairs", "calls")),
    ("quotient.inv_vec.s", "s", "lower", _self("quotient.inv_vec")),
    ("quotient.normal_subgroups.s", "s", "lower", _self("quotient.normal_subgroups")),
    ("growth.random_symmetric_set.s", "s", "lower", _self("growth.random_symmetric_set")),
    ("growth.product_set.s", "s", "lower", _self("growth.product_set")),
    ("growth.product_set.pairs_per_s", "1/s", "higher", _per_s("growth.product_set", "pairs")),
    ("growth.product_set.yield", "ratio", "higher", _per("growth.product_set", "out", "pairs")),
    ("words.certify_free.s", "s", "lower", _self("words.certify_free")),
    ("words.certify_free.words_per_s", "1/s", "higher", _per_s("words.certify_free", "words")),
    ("exact.crt_tuple.s", "s", "lower", _self("exact.crt_tuple")),
    ("words.kesten_return.s", "s", "lower", _self("words.kesten_return")),
    ("cli.parse_generators.s", "s", "lower", _self("cli.parse_generators")),
    ("cli.emit_report.s", "s", "lower", _self("cli.emit_report")),
    ("cli.emit_report.bytes", "B", "lower", _sum("cli.emit_report", "bytes")),
    ("cli.main.s", "s", "lower", _self("cli.main")),
) + tuple(
    (f"{layer}.errors", "count", "lower", _sum("errors:" + layer, "calls")) for layer in LAYERS
) + (
    ("trace.spans", "count", "lower", None),
    ("trace.overhead_ops_per_s", "1/s", "higher", None),
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric that the spans determine."""
    agg = _aggregate(spans)

    def get(name: str, key: str) -> float:
        return agg[name][key] if name in agg else 0.0

    return {name: float(value(get)) for name, _, _, value in METRICS if value is not None}
