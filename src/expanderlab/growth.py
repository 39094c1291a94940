"""Product-set growth experiments and unipotent-radical recovery ops.

Sets of group elements are sorted ids over a GroupTable, with a
membership mask worked out on first read.
Product sets are computed by exact table lookups in chunks, over all
pairs of A.B or, when that is fewer, over A.b0 and the membership in A
of x b^-1 for each x outside it; either way the work is at most
|A|*|B| pair lookups, and PAIR_WORK_CAP bounds |A|*|B|. Searches for
the least power c or t stop at PRODUCT_DEPTH_CAP.
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
    SizeCapExceeded,
    TableMismatch,
    ZeroVector,
)
from .exact import prime_factors, row_reduce_mod_p
from .quotient import (
    GroupTable,
    _distinct,
    _element_cap,
    _ids_in,
    _radix_weights,
    _vector_orbit,
    coset_labels,
    lower_central_series,
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
    return ElementSet(table, np.flatnonzero(member))


def product_set(A: ElementSet, B: ElementSet) -> ElementSet:
    """A.B = {ab}, exact, chunked over all |A|*|B| pairs, or, when that is fewer
    lookups, over A.b0 and then each x outside it times every b^-1: x = ab
    exactly when x b^-1 = a lies in A."""
    if A.parent is not B.parent:
        raise TableMismatch("sets live on different tables")
    G = A.parent
    pairs = A.size * B.size
    if pairs > PAIR_WORK_CAP:
        raise SizeCapExceeded(f"product set needs {pairs} pair lookups, cap {PAIR_WORK_CAP}")
    step = max(1, CHUNK // max(B.size, 1))
    if A.size + (G.order - A.size) * B.size < pairs:
        member = G.mask(G.mul_vec(A.ids, B.ids[0]))
        missed, inverses = np.flatnonzero(~member), G.inv_vec(B.ids)
        for lo in range(0, len(missed), step):
            x = missed[lo : lo + step]
            member[x] = A.member[G.mul_vec(x[:, None], inverses)].any(axis=1)
    else:
        member = np.zeros(G.order, dtype=bool)
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


def _powers(first, step):
    """(c, P_c) for c = 1..PRODUCT_DEPTH_CAP, P_1 = first, P_(c+1) = step(P_c), each formed when asked for."""
    yield 1, first
    for c in range(2, PRODUCT_DEPTH_CAP + 1):
        first = step(first)
        yield c, first


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
    triple = chain = product_power(A, 3)
    for _ in range(C - 3):
        chain = product_set(chain, A)
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
# module actions: exact linear algebra over F_p


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


@dataclass
class ModuleAction:
    """H <= GL_m(F_p) acting on F_p^m, generators as integer matrices."""

    p: int
    dim: int
    generators: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if prime_factors(self.p) != [self.p]:
            raise BadPrime(f"a module over F_p needs a prime p, got {self.p}")
        if self.dim < 1:
            raise ValueError(f"a module needs a dimension of at least 1, got {self.dim}")
        mats = []
        for g in self.generators:
            m = np.asarray(g, dtype=np.int64) % self.p
            if m.shape != (self.dim, self.dim):
                raise ValueError("generator shape does not match the dimension")
            if len(row_reduce_mod_p(m, self.p)[1]) != self.dim:
                raise ValueError("generators must be invertible mod p")
            mats.append(m)
        self.generators = mats

    def has_fixed_vector(self) -> bool:
        """Nonzero v with gv = v for all generators, by exact rank."""
        eye = np.eye(self.dim, dtype=np.int64)
        stacked = np.array([(g - eye) % self.p for g in self.generators]).reshape(-1, self.dim)  # (0, m) for none
        return len(row_reduce_mod_p(stacked, self.p)[1]) < self.dim

    def orbit(self, v: np.ndarray) -> np.ndarray:
        """All images of v under the generated group, as (n, m) coords, in BFS
        level then code order."""
        mats = np.array(self.generators, dtype=np.int64).reshape(-1, self.dim, self.dim)
        return _vector_orbit(mats, self._vector(v)[None], self.p, _element_cap())[0]

    def _vector(self, v) -> np.ndarray:
        """v's coordinates mod p, refused unless there are dim of them."""
        v = np.asarray(v, dtype=np.int64).ravel()
        if len(v) != self.dim:
            raise ValueError(f"a vector of this module has {self.dim} coordinates, got {len(v)}")
        return v % self.p

    def submodule_spanned_by(self, v: np.ndarray) -> np.ndarray:
        """All p^r vectors of the H-submodule generated by v."""
        return _span_vectors(row_reduce_mod_p(self.orbit(v), self.p)[0], self.p)


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


def _orbit_sums(action: ModuleAction, v: np.ndarray):
    """(c, the sums of at most c vectors of the orbit H.v, 0 included) from _powers."""
    add = functools.partial(_add_orbit, orbit=action.orbit(v), p=action.p)
    return _powers(add(np.zeros((1, action.dim), dtype=np.int64)), add)


def orbit_sum_subspace(action: ModuleAction, v) -> dict:
    """Smallest c for which the c-fold sumset of the orbit H.v contains a
    nonzero H-subspace.  Sums of at most c orbit elements, empty sum
    included, so 0 always belongs."""
    v = action._vector(v)
    if not v.any():
        raise ZeroVector("orbit sums start from a nonzero vector")
    if action.has_fixed_vector():
        raise FixedVectorExists("the action fixes a nonzero vector")
    for c, current in _orbit_sums(action, v):
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
    """Minimal c with the c-fold orbit sumset equal to the H-submodule generated by v."""
    _reject_one_dim_module(action)
    v = action._vector(v)
    if not v.any():
        return {"c": 0, "holds": True, "submodule_size": 1}
    size = len(action.submodule_spanned_by(v))  # the span of a row-reduced basis: p^rank distinct vectors
    for c, current in _orbit_sums(action, v):
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
    for t, power in _powers(A, lambda P: product_set(P, A)):
        if power.size == U.order:
            return {"t": t, "covered": True}
    return {"t": None, "covered": False}


def random_transversal(U: GroupTable, rng: np.random.Generator) -> ElementSet:
    """One random representative from each coset of [U, U]."""
    labels = _derived_cosets(U)[0]
    by_coset, sizes = np.argsort(labels, kind="stable"), np.bincount(labels)  # each coset's ids ascending
    return ElementSet.from_ids(U, by_coset[np.cumsum(sizes) - sizes + rng.integers(0, sizes)])

