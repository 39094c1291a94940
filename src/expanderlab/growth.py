"""Product-set growth experiments and unipotent-radical recovery ops.

Sets of group elements are dense boolean masks over a GroupTable.
Product sets are computed by exact table lookups over all pairs, in
chunks, so the cost is the literal pair count, which PAIR_WORK_CAP
bounds; searches for the least power c or t stop at PRODUCT_DEPTH_CAP.
A product frame reads the Levi projection beta: L x U -> L of each
semidirect factor, and its kernel U, from quotient's one reader of the
Levi block, as Levi codes.
The module-action operations (orbit sums, fixed vectors) run exact
linear algebra mod p on small coordinate arrays.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BadPrime,
    FixedVectorExists,
    HypothesisViolated,
    NotInGroup,
    NotPGroup,
    ProjectionNotOnto,
    SizeCapExceeded,
    TableMismatch,
    ZeroVector,
)
from .exact import prime_factors, row_reduce_mod_p
from .quotient import (
    GroupTable,
    SubgroupRecord,
    _distinct,
    _element_cap,
    _ids_in,
    _levi,
    _radix_weights,
    _vector_orbit,
    coset_labels,
    levi_mask,
    lower_central_series,
    normal_closure,
)

PAIR_WORK_CAP = 100_000_000
PRODUCT_DEPTH_CAP = 24
CHUNK = 1 << 20


@dataclass
class ElementSet:
    """Subset of a group table as its sorted ids; membership and symmetry are worked out on first read."""

    parent: GroupTable
    ids: np.ndarray

    @classmethod
    def from_ids(cls, table: GroupTable, ids: Sequence[int]) -> "ElementSet":
        return cls(table, _distinct(_ids_in(table, list(ids))))

    @classmethod
    def whole_group(cls, table: GroupTable) -> "ElementSet":
        return cls.from_ids(table, np.arange(table.order))

    @property
    def size(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def member(self) -> np.ndarray:
        return self.parent.mask(self.ids)

    @functools.cached_property
    def symmetric(self) -> bool:
        return bool(self.member[self.parent.inv_vec(self.ids)].all())

    def symmetrized(self) -> "ElementSet":
        return ElementSet.from_ids(self.parent, np.concatenate([self.ids, self.parent.inv_vec(self.ids)]))

    def with_identity(self) -> "ElementSet":
        G = self.parent
        return self if self.member[G.identity_id] else ElementSet.from_ids(G, np.append(self.ids, G.identity_id))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.parent is other.parent and np.array_equal(self.ids, other.ids)


def random_symmetric_set(table: GroupTable, size: int, rng: np.random.Generator) -> ElementSet:
    """Symmetric set containing the identity, of at least the asked size."""
    if size > table.order:
        raise ValueError(f"a set of {size} elements does not fit in a group of order {table.order}")
    picks = rng.integers(0, table.order, size=max(size // 2, 1))
    member = table.mask(np.concatenate([picks, table.inv_vec(picks), [table.identity_id]]))
    count = int(member.sum())
    while count < size:
        extra = int(rng.integers(0, table.order))
        if not member[extra]:  # the set stays symmetric: a member's inverse is one too
            inv = table.inv(extra)
            member[[extra, inv]] = True
            count += 1 + (inv != extra)
    return ElementSet.from_ids(table, np.flatnonzero(member))


def product_set(A: ElementSet, B: ElementSet) -> ElementSet:
    """A.B = {ab}, exact, chunked over all |A|*|B| pairs."""
    if A.parent is not B.parent:
        raise TableMismatch("sets live on different tables")
    G = A.parent
    pairs = A.size * B.size
    if pairs > PAIR_WORK_CAP:
        raise SizeCapExceeded(f"product set needs {pairs} pair lookups, cap {PAIR_WORK_CAP}")
    member = np.zeros(G.order, dtype=bool)
    step = max(1, CHUNK // max(B.size, 1))
    for lo in range(0, A.size, step):
        member[G.mul_vec(A.ids[lo : lo + step, None], B.ids)] = True
    return ElementSet(G, np.flatnonzero(member))


def product_power(A: ElementSet, n: int) -> ElementSet:
    """The n-fold product set A.A...A."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = A
    for _ in range(n - 1):
        out = product_set(out, A)
    return out


@dataclass
class TriplingReport:
    size: int
    triple_size: int
    exponent: float
    covers_group: bool
    identity_added: bool


def tripling_report(A: ElementSet) -> TriplingReport:
    """|A|, |AAA| and the growth exponent log|AAA| / log|A|."""
    if not A.symmetric:
        raise ValueError("tripling is measured on symmetric sets")
    identity_added = not A.member[A.parent.identity_id]
    if identity_added:
        A = A.with_identity()
    triple = product_power(A, 3)
    if A.size > 1:
        exponent = math.log(triple.size) / math.log(A.size)
    else:
        exponent = 1.0
    return TriplingReport(
        size=A.size,
        triple_size=triple.size,
        exponent=exponent,
        covers_group=triple.size == A.parent.order,
        identity_added=identity_added,
    )


def chain_inequality(A: ElementSet, C: int) -> dict:
    """|prod_C A| <= (|AAA|/|A|)^(C-2) |A|, compared in exact integers."""
    if C < 3:
        raise ValueError("chain length starts at 3")
    if not A.symmetric:
        raise ValueError("the chain inequality is stated for symmetric sets")
    triple = product_power(A, 3)
    chain = product_power(A, C)
    # |P_C| * |A|^(C-3) <= |AAA|^(C-2), all integers
    lhs = chain.size * A.size ** (C - 3)
    rhs = triple.size ** (C - 2)
    return {
        "C": C,
        "size": A.size,
        "triple_size": triple.size,
        "chain_size": chain.size,
        "holds": lhs <= rhs,
    }


def gowers_cover(B1: ElementSet, B2: ElementSet, B3: ElementSet, d_min: int) -> dict:
    """Covering criterion |B1||B2||B3| >= |G|^3 / d_min, checked exactly."""
    G = B1.parent
    if B2.parent is not G or B3.parent is not G:
        raise TableMismatch("sets live on different tables")
    above = B1.size * B2.size * B3.size * d_min >= G.order**3
    prod = product_set(product_set(B1, B2), B3)
    covers = prod.size == G.order
    return {
        "above_threshold": above,
        "covers": covers,
        "consistent": covers or not above,
        "product_size": prod.size,
    }


# ---------------------------------------------------------------------------
# product frames: subsets of G_1 x ... x G_k without enumerating the product


class ProductFrame:
    """Rows of per-factor element ids standing for elements of a direct
    product of semidirect tables, with the Levi projection beta, read per
    factor as Levi codes: the kernel of beta is where each factor's code is
    the identity's, and |L| = |G| / |Ker beta|, as |G| = |L||U|."""

    def __init__(self, factors: Sequence[GroupTable]):
        self.factors = list(factors)
        if not self.factors:
            raise TableMismatch("a product frame needs at least one factor")
        self.orders = np.array([t.order for t in self.factors], dtype=np.int64)
        self.weights = _radix_weights(self.orders)
        self._levi_codes = [_levi(t)[0] for t in self.factors]  # raises TableMismatch for non-semidirect factors
        self.kernel_sizes = [int((c == c[t.identity_id]).sum()) for t, c in zip(self.factors, self._levi_codes)]
        self.levi_sizes = [t.order // k for t, k in zip(self.factors, self.kernel_sizes)]

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self._rows(a), self._rows(b)
        return np.stack([t.mul_vec(x, y) for t, x, y in zip(self.factors, a.T, b.T)], axis=1)

    def inv(self, a: np.ndarray) -> np.ndarray:
        return np.stack([t.inv_vec(x) for t, x in zip(self.factors, self._rows(a).T)], axis=1)

    def _rows(self, rows) -> np.ndarray:
        """The rows as int64, one column per factor; NotInGroup for another row width, whose
        mixed-radix code would fold coordinates together, or for an id outside its factor."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.num_factors:
            raise NotInGroup(f"frame rows must have {self.num_factors} coordinates, got shape {rows.shape}")
        return np.stack([_ids_in(t, c) for t, c in zip(self.factors, rows.T)], axis=1)

    def codes(self, rows: np.ndarray) -> np.ndarray:
        return self._rows(rows) @ self.weights

    def dedup(self, rows: np.ndarray) -> np.ndarray:
        """Each distinct row once, in code order."""
        return np.stack(np.unravel_index(_distinct(self.codes(rows)), self.orders, order="F"), axis=1)

    def in_kernel(self, rows: np.ndarray) -> np.ndarray:
        """Mask of rows with trivial Levi part in every factor."""
        rows = self._rows(rows)
        mask = np.ones(len(rows), dtype=bool)
        for t, c, r in zip(self.factors, self._levi_codes, rows.T):
            mask &= c[r] == c[t.identity_id]
        return mask

    def levi_code(self, rows: np.ndarray) -> np.ndarray:
        """Combined code of the per-factor Levi projections, in the radix of
        the factor orders (a safe bound on the distinct Levi codes)."""
        return sum(w * c[r] for c, w, r in zip(self._levi_codes, self.weights, self._rows(rows).T))

    def projection_onto_levi(self, rows: np.ndarray) -> bool:
        return len(_distinct(self.levi_code(rows))) == math.prod(self.levi_sizes)

    def product_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self._rows(a), self._rows(b)
        pairs = len(a) * len(b)
        if pairs > PAIR_WORK_CAP:
            raise SizeCapExceeded(f"frame product needs {pairs} pair lookups")
        # code i len(b) + j is that of a_i b_j, summed factor by factor
        codes = sum(w * t.mul_vec(x[:, None], y).ravel() for t, w, x, y in zip(self.factors, self.weights, a.T, b.T))
        return np.stack(np.unravel_index(_distinct(codes), self.orders, order="F"), axis=1)

    def section_rows(self) -> np.ndarray:
        """The homomorphism-section subgroup: all rows with trivial
        unipotent part in every factor."""
        per = [np.nonzero(levi_mask(t))[0].astype(np.int64) for t in self.factors]
        grids = np.meshgrid(*per, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def normal_closure_product(frame: ProductFrame, rows: np.ndarray, g_row: Sequence[int]) -> dict:
    """Smallest c with prod_c {h g h^-1 : h in A} containing the normal
    closure of g.  Preconditions: beta(A) = L, beta(g) = 1, elementary
    abelian kernels acting without one-dimensional composition factors.
    """
    rows = frame.dedup(rows)
    g_row = frame._rows([g_row])
    if not frame.projection_onto_levi(rows):
        raise ProjectionNotOnto("the set does not project onto the Levi part")
    if not frame.in_kernel(g_row)[0]:
        raise HypothesisViolated("g must lie in the kernel of beta")
    for t in frame.factors:
        if t.meta.get("u_kind") != "vector":
            raise HypothesisViolated("kernels must be elementary abelian")
        _check_no_one_dim_factor(t)
    # conjugates of g by the rows
    n = len(rows)
    g_rep = np.repeat(g_row, n, axis=0)
    conj = frame.mul(frame.mul(rows, g_rep), frame.inv(rows))
    conj = frame.dedup(conj)
    # the product of g's per-factor normal closures holds every product of conjugates of g,
    # so a power covers it exactly when it has as many rows
    closure_size = math.prod(len(normal_closure(t, [gi])) for t, gi in zip(frame.factors, g_row[0].tolist()))
    power = conj
    for c in range(1, PRODUCT_DEPTH_CAP + 1):
        if len(power) == closure_size:
            return {"c": c, "conjugates": len(conj), "closure_size": closure_size}
        power = frame.product_rows(power, conj)
    return {"c": None, "conjugates": len(conj), "closure_size": closure_size}


def _check_no_one_dim_factor(t: GroupTable) -> None:
    """Reject semidirect tables whose Levi part acts on the unipotent part
    with a one-dimensional submodule or quotient (see _reject_one_dim_module)."""
    if t.meta.get("action") == "trivial":
        raise HypothesisViolated("trivial action has one-dimensional factors")
    _reject_one_dim_module(ModuleAction(t.meta["p"], t.meta["dim"], list(_levi(t)[2])))


def _invariant_line(mats: list[np.ndarray], p: int, d: int) -> tuple | None:
    """The first projective point fixed by every matrix, or None: m v is parallel
    to v iff every 2x2 minor of [m v, v] vanishes mod p."""
    v = _projective_points(p, d)
    fixed = np.ones(len(v), dtype=bool)
    for m in mats:
        mv = v @ np.asarray(m, dtype=np.int64).T % p
        fixed &= ((mv[:, :, None] * v[:, None] - v[:, :, None] * mv[:, None]) % p == 0).all(axis=(1, 2))
    hits = np.flatnonzero(fixed)
    return tuple(v[hits[0]].tolist()) if len(hits) else None


def _projective_points(p: int, d: int) -> np.ndarray:
    """One representative per line of F_p^d (first nonzero coord = 1), as rows
    ordered by the lead coordinate, then by the rest read little-endian."""
    return np.concatenate([
        np.hstack([np.zeros((p**tail, d - tail - 1), dtype=np.int64), np.ones((p**tail, 1), dtype=np.int64),
                   np.arange(p**tail)[:, None] // p ** np.arange(tail) % p])
        for tail in range(d - 1, -1, -1)
    ])


# ---------------------------------------------------------------------------
# module actions: exact linear algebra over F_p


@dataclass
class ModuleAction:
    """H <= GL_m(F_p) acting on F_p^m, generators as integer matrices."""

    p: int
    dim: int
    generators: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if prime_factors(self.p) != [self.p]:
            raise BadPrime(f"a module over F_p needs a prime p, got {self.p}")
        mats = []
        for g in self.generators:
            m = np.asarray(g, dtype=np.int64) % self.p
            if m.shape != (self.dim, self.dim):
                raise ValueError("generator shape does not match the dimension")
            if len(row_reduce_mod_p(m.tolist(), self.p)[1]) != self.dim:
                raise ValueError("generators must be invertible mod p")
            mats.append(m)
        self.generators = mats

    def has_fixed_vector(self) -> bool:
        """Nonzero v with gv = v for all generators, by exact rank."""
        eye = np.eye(self.dim, dtype=np.int64)
        stacked = np.array([(g - eye) % self.p for g in self.generators]).reshape(-1, self.dim)  # (0, m) for none
        return len(row_reduce_mod_p(stacked.tolist(), self.p)[1]) < self.dim

    def orbit(self, v: np.ndarray) -> np.ndarray:
        """All images of v under the generated group, as (n, m) coords, in BFS
        level then code order."""
        mats = np.array(self.generators, dtype=np.int64).reshape(-1, self.dim, self.dim)
        v = np.asarray(v, dtype=np.int64).reshape(1, -1) % self.p
        return _vector_orbit(mats, v, self.p, _element_cap())[0]

    def submodule_spanned_by(self, v: np.ndarray) -> np.ndarray:
        """All p^r vectors of the H-submodule generated by v."""
        orb = self.orbit(v)
        basis, _ = row_reduce_mod_p(orb.tolist(), self.p)
        return _span_vectors(np.array(basis, dtype=np.int64).reshape(-1, self.dim), self.p)


def _span_vectors(basis: np.ndarray, p: int) -> np.ndarray:
    r, m = basis.shape
    if r == 0:
        return np.zeros((1, m), dtype=np.int64)
    coeffs = np.indices((p,) * r).reshape(r, -1).T
    return coeffs @ basis % p


def _vector_codes(rows: np.ndarray, p: int) -> np.ndarray:
    return rows @ _radix_weights(np.full(rows.shape[1], p))


def _add_orbit(current: np.ndarray, orbit: np.ndarray, p: int) -> np.ndarray:
    """The sumset current + (orbit and 0), each vector once, in code order."""
    sums = (current[:, None, :] + orbit[None, :, :]) % p
    both = np.concatenate([current, sums.reshape(-1, current.shape[1])], axis=0)
    return np.stack(np.unravel_index(_distinct(_vector_codes(both, p)), (p,) * both.shape[1], order="F"), axis=1)


def orbit_sum_subspace(action: ModuleAction, v) -> dict:
    """Smallest c for which the c-fold sumset of the orbit H.v contains a
    nonzero H-subspace.  Sums of at most c orbit elements, empty sum
    included, so 0 always belongs."""
    v = np.asarray(v, dtype=np.int64) % action.p
    if not v.any():
        raise ZeroVector("orbit sums start from a nonzero vector")
    if action.has_fixed_vector():
        raise FixedVectorExists("the action fixes a nonzero vector")
    p = action.p
    orbit = action.orbit(v)
    current = np.zeros((1, action.dim), dtype=np.int64)  # empty sum
    for c in range(1, PRODUCT_DEPTH_CAP + 1):
        current = _add_orbit(current, orbit, p)
        found = _contained_subspace(action, current)
        if found is not None:
            return {"c": c, "subspace": found, "sumset_size": len(current)}
    return {"c": None, "subspace": None, "sumset_size": len(current)}


def _contained_subspace(action: ModuleAction, vectors: np.ndarray) -> np.ndarray | None:
    """A nonzero H-submodule inside a sumset of _add_orbit (code order, so 0 first), if one
    exists: the submodule generated by any member must itself be inside the set."""
    p = action.p
    codes = _vector_codes(vectors, p)
    for w in vectors[1:]:
        sub = action.submodule_spanned_by(w)
        if np.isin(_vector_codes(sub, p), codes).all():
            return sub
    return None


def orbit_sum_span(action: ModuleAction, v) -> dict:
    """Minimal c <= PRODUCT_DEPTH_CAP with the c-fold orbit sumset equal
    to the H-submodule generated by v."""
    _reject_one_dim_module(action)
    v = np.asarray(v, dtype=np.int64) % action.p
    if not v.any():
        return {"c": 0, "holds": True, "submodule_size": 1}
    p = action.p
    size = len(action.submodule_spanned_by(v))  # the span of a row-reduced basis: p^rank distinct vectors
    orbit = action.orbit(v)
    current = np.zeros((1, action.dim), dtype=np.int64)
    for c in range(1, PRODUCT_DEPTH_CAP + 1):
        current = _add_orbit(current, orbit, p)
        if len(current) == size:
            return {"c": c, "holds": True, "submodule_size": size}
    return {"c": None, "holds": False, "submodule_size": size}


def _reject_one_dim_module(action: ModuleAction) -> None:
    """Reject a module with a one-dimensional submodule or quotient, witnessed by an invariant line of
    the action or of its dual (the inverse transposes, which fix the lines the transposes fix).  That is
    every one-dimensional composition factor only up to dimension 4: from dimension 5 a factor can lie
    between invariant subspaces of dimensions 2 and 3, and the module passes."""
    gens = action.generators
    for mats in (gens, [g.T for g in gens]):
        line = _invariant_line(mats, action.p, action.dim)
        if line is not None:
            raise HypothesisViolated(
                f"one-dimensional composition factor witnessed by line {line}"
            )


# ---------------------------------------------------------------------------
# nilpotent recovery and identities


def _derived_cosets(U: GroupTable) -> tuple[np.ndarray, int]:
    """Coset labels of the derived subgroup [U, U] of the p-group U, and
    the number of cosets; the labels are cached on U."""
    # gamma_2 of the series, or gamma_1 when U is trivial
    labels = U._cached(("D", 0), lambda: coset_labels(U, lower_central_series(U)[:2][-1]))
    return labels, int(labels.max()) + 1


def nilpotent_recover(U: GroupTable, A: ElementSet) -> dict:
    """Minimal t with the t-fold product of A equal to the p-group U.

    A must cover every coset of [U, U]; the series check makes the
    hypothesis exact.
    """
    if A.parent is not U:
        raise TableMismatch("set lives on a different table")
    labels, n_cosets = _derived_cosets(U)
    covered = _distinct(labels[A.ids])
    if len(covered) != n_cosets:
        raise HypothesisViolated(
            f"set covers {len(covered)} of {n_cosets} cosets of the derived subgroup"
        )
    power = A
    for t in range(1, PRODUCT_DEPTH_CAP + 1):
        if power.size == U.order:
            return {"t": t, "covered": True}
        power = product_set(power, A)
    return {"t": None, "covered": False}


def random_transversal(U: GroupTable, rng: np.random.Generator) -> ElementSet:
    """One random representative from each coset of [U, U]."""
    labels = _derived_cosets(U)[0]
    by_coset, sizes = np.argsort(labels, kind="stable"), np.bincount(labels)  # each coset's ids ascending
    return ElementSet.from_ids(U, by_coset[np.cumsum(sizes) - sizes + rng.integers(0, sizes)])


def commutator_identities_check(G: GroupTable, trials: int, seed: int = 0) -> bool:
    """[x,yz] = [x,z][x,y]^z and [xy,z] = [x,z]^y [y,z] on random triples."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, G.order, size=trials)
    y = rng.integers(0, G.order, size=trials)
    z = rng.integers(0, G.order, size=trials)

    def conj(a, b):  # a^b = b^-1 a b
        return G.mul_vec(G.mul_vec(G.inv_vec(b), a), b)

    lhs1 = G.comm_vec(x, G.mul_vec(y, z))
    rhs1 = G.mul_vec(G.comm_vec(x, z), conj(G.comm_vec(x, y), z))
    lhs2 = G.comm_vec(G.mul_vec(x, y), z)
    rhs2 = G.mul_vec(conj(G.comm_vec(x, z), y), G.comm_vec(y, z))
    return bool(np.array_equal(lhs1, rhs1) and np.array_equal(lhs2, rhs2))
