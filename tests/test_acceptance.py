"""Release acceptance checklist.

Each numbered check prints one PASS/FAIL line (collected into the
terminal summary by conftest) and then asserts.  Expected values are
frozen; a failing check here means the library no longer reproduces a
quantity it is contractually supposed to reproduce.

Each check asserts only what the mathematics guarantees at the sizes it
uses.  Two of them rest on limits and are stated in finite-range form:

* 02a: at k = 400 steps (n = 200) the plain root P_2n(e)^(1/n) is
  0.722582, held below Kesten's limit 3/4 by the polynomial factor
  n^(-3/2) of the local limit theorem on trees.  The window [0.73, 0.77]
  applies to the corrected root (P_2n(e) n^(3/2))^(1/n) = 0.751873.  The
  check also asserts, for every n <= 200, that P_2n(e) equals the
  closed-walk count of the 4-regular tree and lies below
  `kesten_upper_bound(2, n)`.
* 04a-trend: lam2(SL2(F_p)) fluctuates with p rather than drifting, so
  the check compares how much of the spectral gap survives from the
  smaller five to the larger six primes against the abelian control of
  04b, whose gap closes.  04a-schreier confirms the lam2 values with an
  independent dense solve of the Schreier graph on F_p^2 minus 0.

Runtime for the whole module is a couple of minutes; the heavy fixtures
(group tables, eigenvalue sweeps) are cached at module scope.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from expanderlab import spectral
from expanderlab.cli import builtin_generators, main
from expanderlab.exact import RationalMatrix
from expanderlab.growth import chain_inequality, gowers_cover, random_symmetric_set
from expanderlab.quotient import (
    borel_subgroup,
    cyclic_group,
    direct_product,
    generate_group,
    product_decompose,
)
from expanderlab.spectral import (
    CayleyGraph,
    cheeger_bracket,
    edge_expansion_exact,
    escape_profile,
    spectrum,
    trace_moment,
    walk_powers,
    walk_trace_side,
)
from expanderlab.words import (
    ball_size,
    certify_free,
    kesten_series,
    kesten_upper_bound,
    radial_distribution,
    reduced_words,
)

REPORT_LINES: list[str] = []

GAP_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
SWEEP_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
CONTROL_PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
MULTIPLICITY_PRIMES = (5, 7, 11, 13, 17, 19, 23)
UNIPOTENT = RationalMatrix([["1", "1"], ["0", "1"]])


def record(label: str, ok: bool, detail: str) -> None:
    line = f"criterion {label} {'PASS' if ok else 'FAIL'}: {detail}"
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


@lru_cache(maxsize=None)
def sl2(q: int):
    return generate_group(builtin_generators("lubotzky3"), q)


@lru_cache(maxsize=None)
def lam2_sweep() -> dict[int, float]:
    return {p: spectrum(CayleyGraph(sl2(p))).lam2 for p in GAP_PRIMES}


def gap_shrink(gaps: dict[int, float]) -> float:
    """Share of the spectral gap 1 - max lam2 over the smaller five
    GAP_PRIMES that is left over the larger six."""
    small = max(gaps[p] for p in GAP_PRIMES[:5])
    large = max(gaps[p] for p in GAP_PRIMES[5:])
    return (1.0 - large) / (1.0 - small)


def schreier_lam2(p: int) -> float:
    """lam2 of the lubotzky3 walk on F_p^2 minus 0, by a dense solve on
    integer 2-vectors mod p.  The Cayley walk on SL2(F_p) projects onto
    this graph, so its lam2 is a lower bound for the Cayley lam2."""
    n = p * p - 1
    x, y = np.divmod(np.arange(1, p * p), p)
    A = np.zeros((n, n))
    for a, b, c, d in ((1, 3, 0, 1), (1, -3, 0, 1), (1, 0, 3, 1), (1, 0, -3, 1)):
        target = ((a * x + b * y) % p) * p + (c * x + d * y) % p - 1
        A[np.arange(n), target] += 0.25
    return float(np.linalg.eigvalsh(A)[-2])


def tree_return(M: int, n: int) -> Fraction:
    """P_2n(e) on the 2M-regular tree from its closed-walk count
    sum_{k=1..n} k/(2n-k) C(2n-k, n) (2M)^k (2M-1)^(n-k)."""
    D = 2 * M
    walks = sum(Fraction(k, 2 * n - k) * math.comb(2 * n - k, n)
                * D**k * (D - 1) ** (n - k) for k in range(1, n + 1))
    return walks / D ** (2 * n)


def positive_pair(t: str) -> list[RationalMatrix]:
    return [
        RationalMatrix([["1", t], ["0", "1"]]),
        RationalMatrix([["1", "0"], [t, "1"]]),
    ]


def cyclic_ids(G, residues) -> list[int]:
    rows = np.array([[r] for r in residues], dtype=np.int64)
    return [int(i) for i in G.id_of_rows(rows)]


def test_c01_ball_formula():
    worst = None
    for M in (2, 3):
        for l in range(1, 11):
            got = sum(1 for _ in reduced_words(M, l))
            want = 2 * M * (2 * M - 1) ** (l - 1)
            assert ball_size(M, l) == want
            if got != want:
                worst = (M, l, got, want)
    record("01", worst is None,
           f"sphere counts match 2M(2M-1)^(l-1) for M in (2,3), l <= 10"
           + ("" if worst is None else f"; first mismatch {worst}"))


def test_c02a_kesten_window():
    M, n = 2, 200
    returns = dict(enumerate(kesten_series(M, n), start=1))
    closed_form = all(P == tree_return(M, m) for m, P in returns.items())
    below_bound = all(P <= kesten_upper_bound(M, m) for m, P in returns.items())
    plain = float(returns[n]) ** (1.0 / n)
    val = (float(returns[n]) * n**1.5) ** (1.0 / n)
    ok = closed_form and below_bound and 0.73 <= val <= 0.77
    record("02a", ok,
           f"k = {2 * n} steps, n = {n}: (P_k(e) n^(3/2))^(1/n) = {val:.12f} "
           f"(plain root {plain:.6f}), window [0.73, 0.77], target 0.75; "
           f"for n <= {n}: equals the {2 * M}-regular tree closed form "
           f"{closed_form}, P_2n(e) <= ((2M-1)/M^2)^n {below_bound}")


def test_c02b_partition_and_return_dominance():
    partition_ok = True
    dominance_ok = True
    for k in range(1, 51):
        probs = radial_distribution(2, k)
        total = sum(ball_size(2, l) * probs[l] for l in range(k + 1))
        if total != Fraction(1):
            partition_ok = False
        if k % 2 == 0 and any(probs[l] > probs[0] for l in range(1, k + 1)):
            dominance_ok = False
    record("02b", partition_ok and dominance_ok,
           f"partition identity exact for k <= 50: {partition_ok}; "
           f"P_k(l) <= P_k(0) at even k: {dominance_ok}")


def test_c03_strong_approximation():
    bad = []
    for p in SWEEP_PRIMES:
        if sl2(p).order != p * (p * p - 1):
            bad.append(p)
    G35 = sl2(35)
    _, meta = product_decompose(G35)
    ok = not bad and G35.order == 40320 and meta["bijective"]
    record("03", ok,
           f"|SL2(F_p)| = p(p^2-1) for all {len(SWEEP_PRIMES)} primes in [5, 97]"
           f"{' except ' + str(bad) if bad else ''}; "
           f"mod 35 order {G35.order}, decomposition bijective {meta['bijective']}")


def test_c04a_gap_ceiling():
    gaps = lam2_sweep()
    worst = max(gaps.values())
    record("04a-ceiling", worst <= 0.99,
           f"max lam2 over p in {GAP_PRIMES} is {worst:.6f} <= 0.99")


def test_c04a_gap_trend():
    abelian = {p: spectrum(CayleyGraph(generate_group([UNIPOTENT], p))).lam2
               for p in GAP_PRIMES}
    sl2_shrink = gap_shrink(lam2_sweep())
    abelian_shrink = gap_shrink(abelian)
    record("04a-trend", sl2_shrink > abelian_shrink,
           f"gap 1 - max lam2 kept from the smaller five primes to the larger "
           f"six: SL2 {sl2_shrink:.4f} > abelian control <u> {abelian_shrink:.4f}")


def test_c04a_schreier_crosscheck():
    gaps = lam2_sweep()
    worst = max(abs(gaps[p] - schreier_lam2(p)) for p in GAP_PRIMES)
    record("04a-schreier", worst <= 1e-9,
           f"lam2 equals the dense Schreier lam2 on F_p^2 minus 0 for p in "
           f"{GAP_PRIMES}: worst difference {worst:.2e}")


def test_c04b_abelian_control():
    worst_dev = 0.0
    min_gap = 1.0
    for p in CONTROL_PRIMES:
        G = generate_group([UNIPOTENT], p)
        assert G.order == p
        lam2 = spectrum(CayleyGraph(G)).lam2
        worst_dev = max(worst_dev, abs(lam2 - math.cos(2 * math.pi / p)))
        min_gap = min(min_gap, lam2)
    ok = worst_dev <= 1e-9 and min_gap > 0.99
    record("04b", ok,
           f"cyclic quotients p >= 53: lam2 matches cos(2pi/p) to "
           f"{worst_dev:.2e}, smallest lam2 {min_gap:.6f} > 0.99")


def test_c05_multiplicity_floor(monkeypatch):
    # the full block spectrum at every p, above the CLI's dense cap too
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", sl2(23).order)
    bad = []
    for p in MULTIPLICITY_PRIMES:
        rep = spectrum(CayleyGraph(sl2(p)))
        assert not rep.partial
        floor = (p - 1) // 2
        for value, size in rep.clusters:
            if abs(value - 1.0) > 1e-6 and size < floor:
                bad.append((p, value, size))
    record("05", not bad,
           "every non-unit eigenvalue cluster has size >= (p-1)/2 for "
           f"p in {MULTIPLICITY_PRIMES}" + ("" if not bad else f"; violations {bad}"))


def test_c06_trace_identity():
    graph = CayleyGraph(sl2(7))
    rep = spectrum(graph)
    worst = 0.0
    for l in range(1, 9):
        lhs = trace_moment(graph, l, rep)
        rhs = walk_trace_side(graph, l)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    record("06", worst <= 1e-6,
           f"Tr(T^2l) vs |G| * walk norm on SL2(F_7), l <= 8: "
           f"worst relative error {worst:.2e}")


def test_c07_escape_from_borel():
    G = sl2(61)
    H = borel_subgroup(G)
    rep = escape_profile(G, H, 40)
    series = rep.max_coset_series()
    dev = abs(series[39] - 1.0 / 62.0)
    monotone = all(series[l] <= series[l - 1] + 1e-12 for l in range(20, 40))
    ok = rep.index == 62 and dev <= 0.01 and monotone
    record("07", ok,
           f"Borel escape in SL2(F_61): index {rep.index}, m_40 = "
           f"{series[39]:.8f} (dev {dev:.2e} <= 0.01), "
           f"non-increasing past l = 20: {monotone}")


def test_c08_flattening_to_uniform():
    G = sl2(41)
    series = walk_powers(G, 200)
    l2 = series.l2_series()
    target = 1.0 / math.sqrt(G.order)
    within = [l for l in range(2, 201, 2) if l2[l - 1] <= 1.01 * target]
    first = within[0] if within else None
    strict = (first is not None
              and all(l2[l + 1] < l2[l - 1] for l in range(2, first, 2)))
    terminal = l2[199] / target
    ok = strict and abs(terminal - 1.0) <= 0.01
    record("08", ok,
           f"SL2(F_41) walk: strict even-step l2 decrease until within 1% of "
           f"|G|^-1/2 (reached at l = {first}), terminal ratio {terminal:.9f}")


def test_c09_growth_properties():
    rng = np.random.default_rng(20260817)
    G5 = sl2(5)
    chain_fails = 0
    for _ in range(1000):
        A = random_symmetric_set(G5, int(rng.integers(4, 60)), rng)
        if not chain_inequality(A, 5)["holds"]:
            chain_fails += 1
    G7 = sl2(7)
    gowers_fails = 0
    checked = 0
    for _ in range(200):
        sizes = rng.integers(240, 301, size=3)
        B1, B2, B3 = (random_symmetric_set(G7, int(s), rng) for s in sizes)
        rep = gowers_cover(B1, B2, B3, 3)
        assert rep["above_threshold"], sizes
        checked += 1
        if not (rep["covers"] and rep["consistent"]):
            gowers_fails += 1
    ok = chain_fails == 0 and gowers_fails == 0
    record("09", ok,
           f"chain inequality C = 5: {chain_fails}/1000 failures; "
           f"triple-product cover: {gowers_fails}/{checked} counterexamples")


def test_c10_structural_suite(tmp_path):
    out = tmp_path / "lemmas.csv"
    rc = main(["lemmas", "--p", "5", "--samples", "100", "--out", str(out)])
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("check,")]
    failed = [r.split(",")[0] for r in rows if not r.endswith(",true")]
    ok = rc == 0 and len(rows) >= 6 and not failed
    record("10", ok,
           f"structural suite exit code {rc}, {len(rows)} checks"
           + ("" if not failed else f", failed: {failed}"))


def test_c11_freeness_certificates():
    free, witness = certify_free(positive_pair("3"), 12)
    nonfree, relator = certify_free(positive_pair("1"), 6)
    ok = free and witness is None and not nonfree and relator is not None \
        and len(relator) <= 6
    record("11", ok,
           f"t = 3 pair free through length 12: {free}; t = 1 pair witness "
           f"{relator} at length {len(relator) if relator else '-'}")


def test_c12_cheeger_bracket():
    graphs = []
    for n in range(4, 19):
        graphs.append((f"cycle-{n}", CayleyGraph(cyclic_group(n))))
    for n in (6, 9, 12, 15, 18):
        G = cyclic_group(n)
        ids = cyclic_ids(G, (1, 2, n - 2, n - 1))
        graphs.append((f"circulant-{n}-12", CayleyGraph(G, ids)))
    G4 = cyclic_group(4)
    graphs.append(("K4", CayleyGraph(G4, cyclic_ids(G4, (1, 2, 3)))))
    G5 = cyclic_group(5)
    graphs.append(("K5", CayleyGraph(G5, cyclic_ids(G5, (1, 2, 3, 4)))))
    graphs.append(("Z3xZ4", CayleyGraph(direct_product(cyclic_group(3), cyclic_group(4)))))
    graphs.append(("Z2xZ9", CayleyGraph(direct_product(cyclic_group(2), cyclic_group(9)))))
    graphs.append(("Z4xZ4", CayleyGraph(direct_product(cyclic_group(4), cyclic_group(4)))))
    bad = []
    for name, graph in graphs:
        assert graph.order <= 18
        c = edge_expansion_exact(graph)
        degree = len(graph.perms)
        lo, hi = cheeger_bracket(spectrum(graph).lam2, degree)
        if not (lo - 1e-9 <= c <= hi + 1e-9):
            bad.append((name, c, lo, hi))
    record("12", not bad,
           f"exact expansion inside the spectral bracket on all "
           f"{len(graphs)} graphs with |V| <= 18"
           + ("" if not bad else f"; violations {bad}"))
