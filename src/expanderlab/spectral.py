"""Random walks, escape from subgroups, and Cayley graph spectra.

Walks are driven by the normalized counting measure on a symmetric
generator multiset S.  One step sends mu to the average of its left
translates by S, so step l of the walk is the l-fold convolution power
chi_S^(l).  Exact walks count words as Python ints and divide once by
k^l per reported value; everything else runs in float64.

The walk and block-spectrum kernels read only permutations of a vertex
set (the left translations by S on a table, or moves on any set they
act on); a walk starts at vertex 0, the identity of a table.  The full
spectrum splits the operator by the characters k of a cyclic <g> and solves
one block per orbit of k under -1 and the c with g^c conjugate to g: right
translation by an h with h^-1 g h = g^c commutes with the walk and maps
block k onto block kc, so the two have one spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import math

import numpy as np

from .errors import SizeCapExceeded
from .quotient import GroupTable, SubgroupRecord, _centre, _ids_in, _subgroup_of, coset_labels

EXACT_CAP = 10_000
DENSE_EIG_CAP = 5000
MAX_EIGS = 20
CLUSTER_TOL = 1e-6
ESCAPE_EPSILON = 0.01


@dataclass
class WalkRow:
    l: int
    l2_norm: float
    linf: float
    mass_on_H: float


@dataclass
class WalkSeries:
    rows: list[WalkRow]

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
    ids, perms, ends = _walk_inputs(table, gen_ids, H)
    rows = []
    for l, w in _walk(perms, ends, l_max, exact):
        # exact weights are word counts: one division by k^l rounds correctly
        scale = len(ids) ** l if exact else 1
        if l:
            h = w[table.identity_id] if H is None else w[H.member].sum()
            l2 = math.sqrt((w * w).sum() / scale**2)
            rows.append(WalkRow(l, l2, float(w.max() / scale), float(h / scale)))
    return WalkSeries(rows=rows)


def _walk_inputs(table: GroupTable, gen_ids, H: SubgroupRecord | None = None):
    """Ids of S (default: the table generators; NotInGroup for one outside the table), their left
    perms, and the table's level_ends if S^-1 is among the BFS generators (s t is the identity for
    a generator t), else []."""
    if H is not None:
        _subgroup_of(table, H)
    ids = _ids_in(table, table.generator_ids if gen_ids is None else gen_ids).tolist()
    if not ids:
        raise ValueError("the generator multiset is empty")
    perms = [table.left_perm(s) for s in ids]
    ends = table.level_ends if all(table.identity_id in p[table.generator_ids] for p in perms) else []
    return ids, perms, ends


def _step(prev: np.ndarray, perms: list[np.ndarray], out: np.ndarray, end: int, divide: bool) -> np.ndarray:
    """out[:end] = sum of prev[p[:end]] over the perms in order, over their number if divide;
    out past end keeps its values.  The perms are permutations of range(len(prev)), so the
    gathers clip no index: mode="clip" only spares np.take a buffered copy of its output, and
    one scratch vector takes the gathers of the perms after the first."""
    np.take(prev, perms[0][:end], axis=0, out=out[:end], mode="clip")
    scratch = None
    for p in perms[1:]:
        scratch = np.take(prev, p[:end], axis=0, out=scratch, mode="clip")
        out[:end] += scratch
    if divide:
        out[:end] /= len(perms)
    return out


def _walk(perms: list[np.ndarray], ends, l_max: int, exact: bool):
    """Yield (l, chi_S^(l)) for l = 0..l_max from vertex 0; exact mode yields the
    Python-int word counts k^l chi_S^(l).  Step l is supported on S^-l; when that lies
    in the first ends[l] vertices (the ball B_l of a table), only those are gathered and the
    rest stay +0.0, which a full gather gives there too: a sum of +0.0 weights, over k, is +0.0.
    Two buffers alternate: step l is written over step l - 2, whose support B_(l-2) lies in
    B_l, so a yielded array is rewritten two steps later, and a caller that keeps one copies it."""
    if l_max < 0:
        raise ValueError(f"walk length must be >= 0, got {l_max}")
    w = np.zeros(len(perms[0]), dtype=object if exact else float)
    w[0] = 1
    yield 0, w
    spare = np.zeros_like(w)
    for l in range(1, l_max + 1):
        end = ends[l] if l < len(ends) else len(w)
        w, spare = _step(w, perms, spare, end, not exact), w
        yield l, w


@dataclass
class EscapeRow(WalkRow):
    max_coset_mass: float


@dataclass
class EscapeReport:
    rows: list[EscapeRow]
    index: int
    settled: bool

    def max_coset_series(self) -> list[float]:
        return [r.max_coset_mass for r in self.rows]


def escape_profile(G: GroupTable, H: SubgroupRecord, l_max: int) -> EscapeReport:
    """Track m_l = max_g chi^(l)(gH) along the walk by the generators of G.

    The walk has escaped once the heaviest coset carries no more than
    2/[G:H] + ESCAPE_EPSILON, the stationary share with room to spare.
    """
    _, perms, ends = _walk_inputs(G, None, H)
    labels = coset_labels(G, H.element_ids)
    rows = []
    for l, w in _walk(perms, ends, l_max, False):
        if l:
            mass = np.bincount(labels, weights=w, minlength=H.index)
            rows.append(EscapeRow(l, math.sqrt((w * w).sum()), float(w.max()),
                                  float(mass[labels[G.identity_id]]), float(mass.max())))
    target = 2.0 / H.index + ESCAPE_EPSILON
    settled = bool(rows and rows[-1].max_coset_mass <= target)
    return EscapeReport(rows=rows, index=H.index, settled=settled)


# ---------------------------------------------------------------------------
# spectra


class CayleyGraph:
    """k-regular multigraph on the group, x adjacent to sx for s in S."""

    def __init__(self, table: GroupTable, s_ids: Sequence[int] | None = None):
        self.table = table
        ids, self.perms, _ = _walk_inputs(table, s_ids)
        self.s_ids = np.asarray(ids, dtype=np.int64)
        if not all(table.identity_id in p[self.s_ids] for p in self.perms):
            raise ValueError("generator multiset must be symmetric")
        self.degree = len(self.s_ids)

    @property
    def order(self) -> int:
        return self.table.order

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """T v, with T the degree-normalized adjacency operator: one walk step."""
        return _step(vec, self.perms, np.empty_like(vec, dtype=np.float64), len(vec), True)

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
    """(mean, size) of the runs of descending values split at gaps above CLUSTER_TOL."""
    starts = np.append(0, np.flatnonzero(values[:-1] - values[1:] > CLUSTER_TOL) + 1)
    sizes = np.diff(starts, append=len(values))
    return list(zip((np.add.reduceat(values, starts) / sizes).tolist(), sizes.tolist()))


def _cycle_length(perm: np.ndarray) -> int:
    """Length of the identity's cycle under perm: the order of g for x -> x g."""
    x, m = int(perm[0]), 1
    while x != 0:
        x, m = int(perm[x]), m + 1
    return m


def _split_element(graph: CayleyGraph) -> tuple[np.ndarray, int, list[int]]:
    """The map x -> x g and the order m of g, for the g = s z of largest
    order with s in S and z central (on SL2(F_p), a unipotent s times -I),
    and the units c mod m with g^c conjugate to g (see _block_eigenvalues).
    ord(s z) divides lcm(ord(s), E), E = |Z| or, on an abelian table, the
    lcm of the generator orders; the search stops at the largest such bound.
    """
    G = graph.table
    gens = G.generator_ids.tolist()
    centre = np.flatnonzero(_centre(G))
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
                return best, m, _conjugate_powers(G, best, m)
    return best, m, _conjugate_powers(G, best, m)


def _conjugate_powers(G: GroupTable, right: np.ndarray, m: int) -> list[int]:
    """The c mod m with g^c conjugate to g, for right the map x -> x g of a g of order m.
    Such a c is prime to m, as a conjugate of g has order m, and g^c = x^-1 g x means
    x g^c = g x: the c at which the map x -> x g^c agrees with x -> g x somewhere."""
    left, cur, units = G.translation(int(right[0]), right=False), right, [1]
    for c in range(2, m):
        cur = right[cur]  # x g^c
        if math.gcd(c, m) == 1 and (cur == left).any():
            units.append(c)
    return units


def _block_eigenvalues(
    perms: list[np.ndarray], right: np.ndarray, m: int, degree: int, units: Sequence[int] = ()
) -> np.ndarray:
    """Full spectrum of T = (1/degree) sum of the perms, descending, from Hermitian
    blocks of size n/m.  right, x -> x g, commutes with every perm and has orbits of
    size m (on a table, the right translation by the g of _split_element).  On the f
    with f(x g^a) = w^(ka) f(x), w = exp(2 pi i/m), T is B_k[i, j] = (1/degree) sum of
    w^(kb) over the s with s r_i = r_j g^b; r_i is the least vertex of its orbit.
    B_(m-k) is the conjugate of B_k.  The units are a group of c mod m with g^c = h^-1 g h
    for some h (on a table; _split_element finds them): then f -> f(. h) commutes with T
    and maps V_k onto V_(kc), as f(x g h) = f(x h g^c), so B_(kc) has B_k's spectrum.  Each
    orbit of k under the units and -1 (without units, {k, m - k}) is solved once, at its
    least k, and its eigenvalues count once per member.
    """
    n = len(right)
    rep, exp, cur = np.arange(n), np.zeros(n, dtype=np.int64), np.arange(n)
    for a in range(1, m):
        cur = right[cur]  # x g^a
        less = cur < rep
        rep[less], exp[less] = cur[less], m - a  # x = rep g^(m-a)
    reps = np.flatnonzero(rep == np.arange(n))
    hit = np.stack(perms)[:, reps]  # s r_i, one row per generator
    rows = np.broadcast_to(np.arange(len(reps)), hit.shape)
    cols, b = np.searchsorted(reps, rep[hit]), exp[hit]
    vals, seen = [], set()
    for k in range(m):
        if k in seen:
            continue
        orbit = {k * c * e % m for c in (1, *units) for e in (1, -1)}
        seen |= orbit
        w = np.exp(2j * np.pi * (k * b % m) / m)
        real = 2 * k % m == 0
        B = np.zeros((len(reps), len(reps)), dtype=np.float64 if real else np.complex128)
        np.add.at(B, (rows, cols), w.real if real else w)
        vals += [np.linalg.eigvalsh(B / degree)] * len(orbit)
    return np.sort(np.concatenate(vals))[::-1]


def spectrum(graph: CayleyGraph) -> SpectrumReport:
    """Eigenvalues of the normalized adjacency operator.

    Graphs of at most DENSE_EIG_CAP vertices get the full spectrum from
    n/m-sized blocks, split off by an s z of order m with z central, with
    one block solved per orbit of isospectral blocks (see _block_eigenvalues).
    Larger ones fall back to an implicitly restarted Lanczos run (ARPACK) on
    the permutation-action operator, returning the top MAX_EIGS eigenvalues
    and the bottom few, flagged as partial.
    """
    n = graph.order
    if n <= DENSE_EIG_CAP:
        right, m, units = _split_element(graph)
        vals = _block_eigenvalues(graph.perms, right, m, graph.degree, units)
        report = SpectrumReport(eigenvalues=vals)
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
    if l < 0:
        raise ValueError(f"trace moment needs l >= 0, got {l}")
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
