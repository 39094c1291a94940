"""Workload grids for the expanderlab benchmark.

A workload is a list of slots.  Each slot is one CLI experiment whose
free parameters are drawn from a small finite set; one pass over the
slots is a round.  The seed picks the parameters and the order of the
ops, so the inputs change with the seed while every round does about
the same amount of work.  That keeps throughput comparable across seeds.

Every op of every grid has a stored reference report (see reference.py),
produced by make_reference.py.
"""
from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

BENCH_DIR = "perfbench"
OUT_DIR = os.path.join(BENCH_DIR, "out")
GENS_DIR = os.path.join(OUT_DIR, "gens")

BUILTINS = ("lubotzky3", "sanov2")
# the pairs (1 t; 0 1), (1 0; t 1); t = 2, 3, 4, 2/3 are free through
# length 11, t = 1/2 and t = 1 have a relation
T_VALUES = ("2", "3", "4", "2/3", "1/2", "1")
FREE_T = ("2", "3", "4", "2/3")


def gens_path(t: str) -> str:
    return os.path.join(GENS_DIR, "t_" + t.replace("/", "_") + ".txt")


def write_gens_files() -> None:
    """Generator files live at fixed relative paths: the CLI echoes the
    path into every report, so it must not change between runs."""
    os.makedirs(GENS_DIR, exist_ok=True)
    for t in T_VALUES:
        den = t.split("/")[1] if "/" in t else ""
        text = f"dim 2\nprimes {den}\n1 {t} 0 1\n1 0 {t} 1\n".replace(" \n", "\n")
        with open(gens_path(t), "w") as fh:
            fh.write(text)


def builtin(name: str) -> tuple[str, ...]:
    return ("--builtin", name)


def gens_file(t: str) -> tuple[str, ...]:
    return ("--gens", gens_path(t))


BUILTIN_SETS = tuple(builtin(b) for b in BUILTINS)
ALL_SETS = BUILTIN_SETS + tuple(gens_file(t) for t in T_VALUES)


@dataclass(frozen=True)
class Slot:
    """argv template; a "{name}" token is replaced by a draw from
    choices[name], and a tuple choice is spliced in as several tokens."""

    template: tuple[str, ...]
    choices: tuple[tuple[str, tuple], ...] = ()

    def expand(self, picks: dict) -> list[str]:
        argv: list[str] = []
        for tok in self.template:
            if tok.startswith("{") and tok.endswith("}"):
                v = picks[tok[1:-1]]
                argv.extend(v if isinstance(v, tuple) else (str(v),))
            else:
                argv.append(tok)
        return argv

    def draw(self, rng: random.Random) -> list[str]:
        return self.expand({k: rng.choice(vals) for k, vals in self.choices})

    def grid(self):
        keys = [k for k, _ in self.choices]
        for combo in itertools.product(*(vals for _, vals in self.choices)):
            yield self.expand(dict(zip(keys, combo)))


def _slot(*template: str, **choices) -> Slot:
    return Slot(tuple(template), tuple(choices.items()))


def _tables() -> list[Slot]:
    # Cost classes, so that op_p50_s and op_tail_s each sit in the middle
    # of ten or so ops of one cost, not on the edge between two costs.
    # 15 light ops (0.1-0.25 s); 9 walks at q = 41 (0.3 s), whose fifth
    # is the median of the 39; 10 walks at q = 47 (0.5 s), whose fifth
    # has ten slower ones after it; 5 heavy ops (1-5 s).  The heaviest,
    # q = 97 with 912,576 elements, opens the round (see LEAD).
    # Walk lengths are fixed, because they move an op's cost.
    def walk(q: int, lmax: int) -> Slot:
        return _slot("walk", "{g}", "--q", str(q), "--lmax", str(lmax), g=BUILTIN_SETS)

    slots = [walk(29, lmax) for lmax in (50, 70) for _ in range(3)]
    slots += [walk(31, lmax) for lmax in (50, 70, 50, 70, 50, 70, 50)]
    slots += [_slot("quotient", "{g}", "--q", "35", g=BUILTIN_SETS)]
    slots += [_slot("walk", "--exact", "{g}", "--q", "7", "--lmax", "40", g=BUILTIN_SETS)]
    slots += [walk(41, lmax) for lmax in (50, 70, 50, 70, 50, 70, 50, 70, 50)]
    slots += [walk(47, lmax) for lmax in (50, 70) for _ in range(5)]
    slots += [_slot("walk", "--exact", "{g}", "--q", "11", "--lmax", "40", g=BUILTIN_SETS)]
    slots += [_slot("quotient", "{g}", "--q", str(q), g=BUILTIN_SETS) for q in (65, 77)]
    slots += [_slot("escape", "--subgroup", "borel", "{g}", "--q", "61", "--lmax", "40",
                    g=BUILTIN_SETS)]
    return slots


def _spectra() -> list[Slot]:
    # Small dense solves, the largest dense case (p = 17, 4,896 vertices,
    # just under DENSE_EIG_CAP) and Krylov cases.  Krylov cost depends on
    # the generators, so its generator sets are fixed.  The twelve p = 11
    # ops hold both the median op and the op with ten slower ones after it.
    slots = [_slot("spectrum", *g, "--q", "5") for g in BUILTIN_SETS for _ in range(2)]
    slots += [_slot("spectrum", *g, "--q", "7") for g in ALL_SETS]
    slots += [_slot("spectrum", *g, "--q", "11") for g in ALL_SETS + BUILTIN_SETS * 2]
    slots += [_slot("spectrum", *g, "--q", str(p)) for g in BUILTIN_SETS for p in (13, 19)]
    slots.append(_slot("spectrum", "--builtin", "lubotzky3", "--q", "29"))
    slots.append(_slot("spectrum", "{g}", "--q", "17", g=BUILTIN_SETS))
    return slots


def _small_groups() -> list[Slot]:
    # Cost classes as in tables: 21 light product sets (q = 5 at set size
    # 20 and 30, q = 7 at 20); 12 at q = 7, size 30, whose middle is the
    # median of the 54; 6 at q = 7, size 40; 10 at q = 11, size 60, whose
    # fifth has ten slower ones after it; 4 at q = 13, size 60, and one
    # lemmas --p 5, which takes a third of the run.  One op that long
    # tracks the speed probe (speed.py) poorly, so a larger share of it
    # made ops_per_s noisy.  The lemmas seed is fixed: its cost ranges
    # over 8-10.5 s with the seed.
    def growth(q: int, size: int) -> Slot:
        return _slot("growth", "{g}", "--q", str(q), "--set-size", str(size),
                     "--samples", "20", "--seed", "{seed}",
                     g=BUILTIN_SETS, seed=(0, 100, 200, 300))

    slots = [growth(q, size) for q, size in ((5, 20), (5, 30), (7, 20)) for _ in range(7)]
    slots += [growth(7, 30) for _ in range(12)] + [growth(7, 40) for _ in range(6)]
    slots += [growth(11, 60) for _ in range(10)] + [growth(13, 60) for _ in range(4)]
    slots.append(_slot("lemmas", "--p", "5", "--seed", "0"))
    return slots


def _freeness() -> list[Slot]:
    # Cost classes as in tables, per round of 46 ops: 18 searches that stop
    # early at a witness (t = 1 at lmax 9-11, t = 1/2 at lmax 10; 0.01-0.05
    # s); 10 of t = 1/2 at lmax 11 (0.1 s; it is free through length 9);
    # 16 free pairs at lmax 9 (0.3 s); 2 free pairs at lmax 10 (1 s).  A
    # run does two rounds: the median of its 92 ops is the middle of the
    # 20 t = 1/2 searches at lmax 11, and the op with ten slower ones after
    # it is the 26th of the 32 free pairs at lmax 9.  Each free pair at
    # lmax 9 visits the same words, so that class is fixed.
    slots = [_slot("freeness", *gens_file("1"), "--lmax", "{lmax}", lmax=(9, 10, 11))
             for _ in range(12)]
    slots += [_slot("freeness", *gens_file("1/2"), "--lmax", "10") for _ in range(6)]
    slots += [_slot("freeness", *gens_file("1/2"), "--lmax", "11") for _ in range(10)]
    slots += [_slot("freeness", *gens_file(t), "--lmax", "9") for t in FREE_T for _ in range(4)]
    slots += [_slot("freeness", "{g}", "--lmax", "10", g=tuple(gens_file(t) for t in FREE_T))
              for _ in range(2)]
    return slots


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]
    # seconds one round takes on the reference machine (2 vCPU, one BLAS
    # thread); a run does max(1, seconds // round_s) rounds, so the work
    # in a run, and hence its op mix, does not depend on machine speed
    round_s: float
    # the cheapest op, run in a fresh interpreter to measure set-up time
    setup_op: tuple[str, ...]
    # slots that open every round in this order, before the shuffled rest:
    # a table large enough to set the peak RSS goes first, so that heap
    # left by the ops before it cannot move that peak with the seed
    lead: tuple[Slot, ...] = ()

    def round_ops(self, rng: random.Random) -> list[list[str]]:
        ops = [s.draw(rng) for s in self.slots]
        rng.shuffle(ops)
        return [s.draw(rng) for s in self.lead] + ops

    def grid(self) -> list[list[str]]:
        seen: dict[tuple[str, ...], None] = {}
        for s in self.lead + self.slots:
            for argv in s.grid():
                seen.setdefault(tuple(argv), None)
        seen.setdefault(tuple(self.setup_op), None)
        return [list(a) for a in seen]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tables",
            "BFS build, id lookup and walk steps on SL2 quotients up to q = 97; no eigensolve",
            tuple(_tables()), 18.0,
            ("walk", "--builtin", "lubotzky3", "--q", "29", "--lmax", "40"),
            (_slot("walk", "{g}", "--q", "97", "--lmax", "20", g=BUILTIN_SETS),),
        ),
        Workload(
            "spectra",
            "eigensolves: dense for p <= 17, ARPACK for p = 19 and 29; BFS and perm build are minor",
            tuple(_spectra()), 19.0,
            ("spectrum", "--builtin", "lubotzky3", "--q", "5"),
        ),
        Workload(
            "small-groups",
            "many small mul_vec calls on tiny tables: product sets and normal-subgroup search",
            tuple(_small_groups()), 26.0,
            ("growth", "--builtin", "lubotzky3", "--q", "5", "--set-size", "20",
             "--samples", "20", "--seed", "0"),
        ),
        Workload(
            "freeness",
            "big-integer reduced-word search in words and exact; no group table",
            tuple(_freeness()), 9.0,
            ("freeness", "--gens", gens_path("1"), "--lmax", "9"),
        ),
    )
}
