"""Measures, convolution walks, and Cayley graph spectra.

Walks are driven by the normalized counting measure on a symmetric
generator multiset S.  One step sends mu to the average of its left
translates by S, so step l of the walk is the l-fold convolution power
chi_S^(l).  Exact walks count words as Python ints and divide once by
k^l per reported value; everything else runs in float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import math

import numpy as np

from .errors import SizeCapExceeded, TableMismatch
from .quotient import GroupTable, SubgroupRecord, coset_labels

EXACT_CAP = 10_000
DENSE_EIG_CAP = 5000
MAX_EIGS = 20
CLUSTER_TOL = 1e-6
ESCAPE_EPSILON = 0.01


def _zeros(n: int, exact: bool) -> np.ndarray:
    return np.array([Fraction(0)] * n, dtype=object) if exact else np.zeros(n)


class Measure:
    """Probability measure on a group table, dense weights indexed by id."""

    def __init__(self, table: GroupTable, weights: np.ndarray, exact: bool = False):
        self.table = table
        self.weights = weights
        self.exact = exact

    @classmethod
    def point(cls, table: GroupTable, gid: int = 0, exact: bool = False) -> "Measure":
        return cls.uniform_on(table, [gid], exact)

    @classmethod
    def uniform_on(cls, table: GroupTable, ids: Sequence[int], exact: bool = False) -> "Measure":
        w = _zeros(table.order, exact)
        # a multiset is allowed: repeated ids accumulate weight
        share = Fraction(1, len(ids)) if exact else 1.0 / len(ids)
        np.add.at(w, np.asarray(ids, dtype=np.int64), share)
        return cls(table, w, exact)

    @classmethod
    def uniform(cls, table: GroupTable, exact: bool = False) -> "Measure":
        return cls.uniform_on(table, np.arange(table.order), exact)

    def mass(self) -> float | Fraction:
        return self.weights.sum()

    def l2_squared(self) -> float | Fraction:
        return (self.weights * self.weights).sum()

    def l2(self) -> float:
        return math.sqrt(float(self.l2_squared()))

    def linf(self) -> float | Fraction:
        return self.weights.max()


def convolve(mu: Measure, nu: Measure) -> Measure:
    """(mu*nu)(g) = sum_h mu(g h^-1) nu(h).

    Runs in O(|G| * min(|supp mu|, |supp nu|)) by looping over the
    sparser factor; the translation tables are built on the fly so a
    dense support cannot flood the permutation cache.
    """
    if mu.table is not nu.table:
        raise TableMismatch("measures live on different tables")
    G = mu.table
    if mu.exact != nu.exact:
        raise TableMismatch("cannot mix exact and float measures")
    out = _zeros(G.order, mu.exact)
    supp_mu = np.nonzero(mu.weights)[0]
    supp_nu = np.nonzero(nu.weights)[0]
    if len(supp_nu) <= len(supp_mu):
        # loop over h: add nu(h) * (right translate of mu by h)
        hinv = G.inv_vec(supp_nu)
        for h, hi in zip(supp_nu.tolist(), hinv.tolist()):
            out = out + nu.weights[h] * mu.weights[G.translation(hi, right=True)]
    else:
        # same sum rearranged: sum_x mu(x) nu(x^-1 g)
        xinv = G.inv_vec(supp_mu)
        for x, xi in zip(supp_mu.tolist(), xinv.tolist()):
            out = out + mu.weights[x] * nu.weights[G.translation(xi, right=False)]
    return Measure(G, out, mu.exact)


def generator_measure(table: GroupTable, gen_ids: Sequence[int] | None = None, exact: bool = False) -> Measure:
    """chi_S: the normalized counting measure on the generator multiset."""
    ids = table.generator_ids if gen_ids is None else np.asarray(gen_ids, dtype=np.int64)
    return Measure.uniform_on(table, ids, exact)


def walk_step(mu: Measure, gen_ids: Sequence[int]) -> Measure:
    """One convolution by chi_S, via cached left-translation permutations."""
    G = mu.table
    # 0 + t0 is t0, so the sum adds the terms in the order of gen_ids; an
    # exact sum of Fractions over an int stays a Fraction
    acc = sum(mu.weights[G.left_perm(int(s))] for s in gen_ids)
    return Measure(G, acc / len(gen_ids), mu.exact)


@dataclass
class WalkRow:
    l: int
    l2_norm: float
    linf: float
    mass_on_H: float


@dataclass
class WalkSeries:
    rows: list[WalkRow]
    final: Measure
    gen_ids: list[int]

    def l2_series(self) -> list[float]:
        return [r.l2_norm for r in self.rows]


def walk_powers(
    table: GroupTable,
    l_max: int,
    gen_ids: Sequence[int] | None = None,
    H: SubgroupRecord | None = None,
    exact: bool = False,
) -> WalkSeries:
    """Iterate chi_S^(l) for l = 1..l_max, recording norms per step.

    mass_on_H is the weight of the subgroup itself (identity coset);
    with no subgroup given it degenerates to the return probability
    chi^(l)(identity).
    """
    if exact and table.order > EXACT_CAP:
        raise SizeCapExceeded(f"exact walks capped at {EXACT_CAP} elements")
    ids = [int(x) for x in (table.generator_ids if gen_ids is None else gen_ids)]
    if H is not None and H.parent is not table:
        raise TableMismatch("subgroup belongs to a different table")
    rows = []
    for l, w in _walk(table, ids, l_max, exact):
        # exact weights are word counts: one division by k^l rounds correctly
        scale = len(ids) ** l if exact else 1
        if l:
            h = w[table.identity_id] if H is None else w[H.member].sum()
            l2 = math.sqrt((w * w).sum() / scale**2)
            rows.append(WalkRow(l, l2, float(w.max() / scale), float(h / scale)))
    if exact:
        w = np.array([Fraction(c, scale) for c in w.tolist()], dtype=object)
    return WalkSeries(rows=rows, final=Measure(table, w, exact), gen_ids=ids)


def _walk(table: GroupTable, ids: list[int], l_max: int, exact: bool):
    """Yield (l, chi_S^(l)) for l = 0..l_max from the identity; exact mode
    yields the Python-int word counts k^l chi_S^(l).

    Step l is supported on S^-l; when S^-1 is among the BFS generators
    that is inside the ball B_l, the first level_ends[l] ids, and only
    that prefix is gathered.  Entries past it stay +0.0, as in walk_step.
    """
    if l_max < 0:
        raise ValueError(f"walk length must be >= 0, got {l_max}")
    perms = [table.left_perm(s) for s in ids]
    ends = table.level_ends if np.isin(table.inv_vec(ids), table.generator_ids).all() else []
    w = np.zeros(table.order, dtype=object if exact else float)
    w[table.identity_id] = 1
    yield 0, w
    for l in range(1, l_max + 1):
        end = ends[l] if l < len(ends) else table.order
        acc = sum(w[p[:end]] for p in perms)  # as walk_step adds
        w = np.zeros(table.order, dtype=w.dtype)
        w[:end] = acc if exact else acc / len(ids)
        yield l, w


@dataclass
class FlattenReport:
    lhs: float
    rhs: float
    delta_hat: float


def flatten_check(mu: Measure, nu: Measure) -> FlattenReport:
    """Both sides of the flattening inequality plus the implied exponent.

    lhs = ||mu*nu||_2, rhs = ||mu||_2^(1/2) ||nu||_2^(1/2), and delta_hat
    solves lhs = ||mu||_2^(1/2+delta) ||nu||_2^(1/2).  A point mass has
    ||mu||_2 = 1 and carries no flattening information; the exponent is
    reported as 0.0 in that degenerate case.
    """
    prod = convolve(mu, nu)
    lhs = prod.l2()
    m2 = mu.l2()
    n2 = nu.l2()
    rhs = math.sqrt(m2) * math.sqrt(n2)
    log_m = math.log(m2) if m2 > 0 else 0.0
    if abs(log_m) < 1e-12:
        delta = 0.0
    else:
        delta = math.log(lhs / rhs) / log_m
    return FlattenReport(lhs=lhs, rhs=rhs, delta_hat=delta)


def walk_flatten_exponent(series: WalkSeries, l: int) -> FlattenReport:
    """Flattening report for mu = nu = chi^(l), read off the walk series.

    chi^(l) * chi^(l) = chi^(2l), so both sides of the inequality come
    from the recorded norms; the series must reach step 2l.
    """
    if 2 * l > len(series.rows):
        raise ValueError(f"series must reach step {2 * l}")
    m2 = series.rows[l - 1].l2_norm
    lhs = series.rows[2 * l - 1].l2_norm
    rhs = m2  # sqrt(m2) * sqrt(m2)
    log_m = math.log(m2)
    delta = math.log(lhs / rhs) / log_m if abs(log_m) > 1e-12 else 0.0
    return FlattenReport(lhs=lhs, rhs=rhs, delta_hat=delta)


@dataclass
class EscapeRow:
    l: int
    l2_norm: float
    linf: float
    mass_on_H: float
    max_coset_mass: float


@dataclass
class EscapeReport:
    rows: list[EscapeRow]
    index: int
    settled: bool

    def max_coset_series(self) -> list[float]:
        return [r.max_coset_mass for r in self.rows]


def escape_profile(
    G: GroupTable,
    H: SubgroupRecord,
    l_max: int,
    gen_ids: Sequence[int] | None = None,
) -> EscapeReport:
    """Track m_l = max_g chi^(l)(gH) along the walk.

    The walk has escaped once the heaviest coset carries no more than
    2/[G:H] + ESCAPE_EPSILON, the stationary share with room to spare.
    """
    ids = [int(x) for x in (G.generator_ids if gen_ids is None else gen_ids)]
    labels = coset_labels(G, H.element_ids)
    rows = []
    for l, w in _walk(G, ids, l_max, False):
        if not l:
            continue
        coset_mass = np.bincount(labels, weights=w, minlength=H.index)
        rows.append(
            EscapeRow(
                l=l,
                l2_norm=math.sqrt((w * w).sum()),
                linf=float(w.max()),
                mass_on_H=float(coset_mass[labels[G.identity_id]]),
                max_coset_mass=float(coset_mass.max()),
            )
        )
    target = 2.0 / H.index + ESCAPE_EPSILON
    settled = bool(rows and rows[-1].max_coset_mass <= target)
    return EscapeReport(rows=rows, index=H.index, settled=settled)


# ---------------------------------------------------------------------------
# spectra


class CayleyGraph:
    """k-regular multigraph on the group, x adjacent to sx for s in S."""

    def __init__(self, table: GroupTable, s_ids: Sequence[int] | None = None):
        self.table = table
        ids = table.generator_ids if s_ids is None else np.asarray(s_ids, dtype=np.int64)
        self.s_ids = np.asarray([int(x) for x in ids], dtype=np.int64)
        inv = set(int(x) for x in table.inv_vec(self.s_ids))
        if inv != set(int(x) for x in self.s_ids):
            raise ValueError("generator multiset must be symmetric")
        self.degree = len(self.s_ids)
        self.perms = [table.left_perm(int(s)) for s in self.s_ids]

    @property
    def order(self) -> int:
        return self.table.order

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """T v, with T the degree-normalized adjacency operator."""
        acc = np.zeros_like(vec, dtype=np.float64)
        for p in self.perms:
            acc += vec[p]
        return acc / self.degree

    def dense_operator(self) -> np.ndarray:
        n = self.order
        if n > DENSE_EIG_CAP:
            raise SizeCapExceeded(f"dense operator capped at {DENSE_EIG_CAP} vertices")
        T = np.zeros((n, n))
        rows = np.arange(n)
        for p in self.perms:
            np.add.at(T, (rows, p), 1.0)
        return T / self.degree


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray  # descending; the full spectrum unless partial
    clusters: list[tuple[float, int]] = field(default_factory=list)
    lam2: float = 0.0
    lam_star: float = 0.0
    partial: bool = False
    bottom: np.ndarray | None = None  # most negative eigenvalues, ascending


def _cluster(values: np.ndarray) -> list[tuple[float, int]]:
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i - 1] - values[i] > CLUSTER_TOL:
            block = values[start:i]
            clusters.append((float(block.mean()), len(block)))
            start = i
    return clusters


def _cycle_length(perm: np.ndarray) -> int:
    """Length of the identity's cycle under perm: the order of g for x -> x g."""
    x, m = int(perm[0]), 1
    while x != 0:
        x, m = int(perm[x]), m + 1
    return m


def _split_element(graph: CayleyGraph) -> tuple[np.ndarray, int]:
    """The map x -> x g and the order m of g, for the g = s z of largest
    order with s in S and z central (on SL2(F_p), a unipotent s times -I).
    ord(s z) divides lcm(ord(s), E), E = |Z| or, on an abelian table, the
    lcm of the generator orders; the search stops at the largest such bound.
    """
    G = graph.table
    gens = G.generator_ids.tolist()
    centre = np.flatnonzero(np.logical_and.reduce([G.left_perm(s) == G.right_perm(s) for s in gens]))
    E = math.lcm(*map(_cycle_length, map(G.right_perm, gens))) if len(centre) == G.order else len(centre)
    S = dict.fromkeys(graph.s_ids.tolist())
    bound, m = max(math.lcm(_cycle_length(G.right_perm(s)), E) for s in S), 0
    for z in centre.tolist():
        by_z = G.translation(z, right=False)  # x s z = z x s; uncached: abelian tables have n
        for s in S:
            perm = G.right_perm(s)[by_z]
            if (order := _cycle_length(perm)) > m:
                m, best = order, perm
            if m == bound:
                return best, m
    return best, m


def _block_eigenvalues(graph: CayleyGraph) -> np.ndarray:
    """Full spectrum of T, descending, from Hermitian blocks of size n/m.

    T sums left translations, so it commutes with x -> xg for the g of
    order m that _split_element picks.  On the f with f(x g^a) = w^(ka) f(x),
    w = exp(2 pi i/m), T is B_k[i, j] = (1/|S|) sum of w^(kb) over the s
    with s r_i = r_j g^b; r_i is the least id in its coset r_i<g>.
    B_(m-k) is the conjugate of B_k, so only k <= m/2 is solved.
    """
    n = graph.order
    right, m = _split_element(graph)
    rep, exp, cur = np.arange(n), np.zeros(n, dtype=np.int64), np.arange(n)
    for a in range(1, m):
        cur = right[cur]  # x g^a
        less = cur < rep
        rep[less], exp[less] = cur[less], m - a  # x = rep g^(m-a)
    reps = np.flatnonzero(rep == np.arange(n))
    hit = np.stack(graph.perms)[:, reps]  # s r_i, one row per generator
    rows = np.broadcast_to(np.arange(len(reps)), hit.shape)
    cols, b = np.searchsorted(reps, rep[hit]), exp[hit]
    vals = []
    for k in range(m // 2 + 1):
        w = np.exp(2j * np.pi * (k * b % m) / m)
        real = 2 * k % m == 0
        B = np.zeros((len(reps), len(reps)), dtype=np.float64 if real else np.complex128)
        np.add.at(B, (rows, cols), w.real if real else w)
        vals += [np.linalg.eigvalsh(B / graph.degree)] * (1 if real else 2)
    return np.sort(np.concatenate(vals))[::-1]


def spectrum(graph: CayleyGraph) -> SpectrumReport:
    """Eigenvalues of the normalized adjacency operator.

    Graphs of at most DENSE_EIG_CAP vertices get the full spectrum from
    n/m-sized blocks, split off by an s z of order m with z central (see
    _block_eigenvalues).  Larger ones fall back to an implicitly restarted
    Lanczos run (ARPACK) on the permutation-action operator, returning the
    top MAX_EIGS eigenvalues and the bottom few, flagged as partial.
    """
    n = graph.order
    if n <= DENSE_EIG_CAP:
        report = SpectrumReport(eigenvalues=_block_eigenvalues(graph))
    else:
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator((n, n), matvec=graph.apply, dtype=np.float64)
        k = min(MAX_EIGS, n - 2)
        v0 = np.cos(np.arange(n) * 0.7) + 1.3  # deterministic start
        top = eigsh(op, k=k, which="LA", v0=v0, tol=1e-11, return_eigenvectors=False)
        bot = eigsh(op, k=min(4, k), which="SA", v0=v0, tol=1e-11, return_eigenvectors=False)
        w = np.sort(top)[::-1]
        report = SpectrumReport(eigenvalues=w, partial=True, bottom=np.sort(bot))
    vals = report.eigenvalues
    if abs(vals[0] - 1.0) > 1e-9:
        raise ValueError("leading eigenvalue is not 1; operator is broken")
    report.clusters = _cluster(vals)
    report.lam2 = float(vals[1]) if len(vals) > 1 else float("nan")
    low = report.bottom[0] if report.partial else vals[-1]
    report.lam_star = float(max(abs(report.lam2), abs(low)))
    return report


def trace_moment(graph: CayleyGraph, l: int, report: SpectrumReport | None = None) -> float:
    """Tr(T^{2l}) = sum_i lambda_i^{2l}, from the full spectrum."""
    if report is None:
        report = spectrum(graph)
    if report.partial:
        raise SizeCapExceeded("trace moment needs the full spectrum")
    return float((report.eigenvalues ** (2 * l)).sum())


def walk_trace_side(graph: CayleyGraph, l: int) -> float:
    """|G| * ||chi^(l)||_2^2, the walk side of the trace identity."""
    if l == 0:
        return float(graph.order)
    series = walk_powers(graph.table, l, gen_ids=graph.s_ids)
    return graph.order * series.rows[-1].l2_norm ** 2


EXPANSION_CAP = 20


def edge_expansion_exact(graph: CayleyGraph) -> float:
    """Exact c = min |boundary(X)| / |X| over nonempty X, |X| <= |V|/2.

    Boundary edges are counted in the multigraph sense: one per pair
    (x in X, s in S) with sx outside X.  Exhaustive over all 2^n subsets,
    so the graph is capped at 20 vertices.
    """
    n = graph.order
    if n > EXPANSION_CAP:
        raise SizeCapExceeded(f"exact expansion capped at {EXPANSION_CAP} vertices")
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    size = np.zeros(len(masks), dtype=np.uint8)
    for x in range(n):
        size += ((masks >> x) & 1).astype(np.uint8)
    boundary = np.zeros(len(masks), dtype=np.uint16)
    for p in graph.perms:
        for x in range(n):
            inside = (masks >> x) & 1
            out = 1 - ((masks >> int(p[x])) & 1)
            boundary += (inside & out).astype(np.uint16)
    keep = size <= n // 2
    ratios = boundary[keep] / size[keep]
    return float(ratios.min())


def cheeger_bracket(lam2: float, degree: int) -> tuple[float, float]:
    """Dodziuk-style two-sided bound on edge expansion for a k-regular
    graph with normalized second eigenvalue lam2."""
    gap = 1.0 - lam2
    return (degree * gap / 2.0, degree * math.sqrt(max(2.0 * gap, 0.0)))
