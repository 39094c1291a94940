"""Finite congruence quotients as explicit indexed groups.

A GroupTable stores one row of small nonnegative "digits" per element
(matrix entries mod p, concatenated over the prime factors of q, or the
coordinates of a nilpotent/semidirect element) together with vectorized
multiplication and inversion callbacks acting on digit rows.  Element
ids are assigned in BFS order from the identity, ties broken by the
mixed-radix encoding of the digit row, so tables are deterministic.

The BFS builds the table's one id lookup as it assigns ids, and the same
structure serves as its seen-set.  A code space of at most ID_INDEX_CAP =
2^25 codes gets a dense int32 code-to-id array, 4 bytes per code (71 MB
for SL2 mod 65); a larger one (SL2 mod 77 or 97) gets the sorted codes
with their ids alongside, searched with searchsorted.  It multiplies on
the left: level l, the sphere of word length l, is the same from either
side, and the ids of the products g x seed left_perm(g).  It keeps only
product codes, decoding each new level's rows from them, and gives the
table its level_ends: the first level_ends[l] ids are the ball B_l.

A table of at most PRODUCT_TABLE_CAP = 4096 elements answers mul_vec
from an int16 product table, 2 bytes per pair, built on first use from
the recorded generator translations (the row of g x is L_g applied to
the row of x), and inv_vec from a cached inverse permutation.

A larger table mod a composite q (inside the product of its per-prime images,
by the CRT) or direct product has factor tables and factor ids, built on first
use; when each factor fits PRODUCT_TABLE_CAP, mul_vec and inv_vec gather in
those tables and map back by a dense pair index (<= ID_INDEX_CAP).

Subgroups, normal closures and commutator subgroups come from one BFS
from the identity that multiplies by the generators and conjugates by a
second id set in each step, deduplicated by a mask, until past half the group.
Conjugacy classes come from one labelling that lowers each element's label
to its class's least element; normal subgroups are the normal closures of
one element per class, joined in pairs unless a found one is the join.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BadPrime,
    HypothesisViolated,
    NotComposite,
    NotInGroup,
    NotNormal,
    NotPGroup,
    SingularMatrix,
    SizeCapExceeded,
    TableMismatch,
)
from .exact import (
    ModMatrix,
    RationalMatrix,
    crt_tuple,
    mod_inv,
    prime_factors,
    square_free_factors,
)

DEFAULT_ELEMENT_CAP = 2_000_000  # EXPANDERLAB_CAP_ELEMS overrides it
ID_INDEX_CAP = 1 << 25
PRODUCT_TABLE_CAP = 4096
NORMAL_SUBGROUP_CAP = 100_000
CENTRAL_SERIES_CAP = 4096
MIN_PRIME = 5


def _modpow_vec(base: np.ndarray, exp: int, p: int) -> np.ndarray:
    """Elementwise base**exp mod p by binary exponentiation."""
    result = np.ones_like(base)
    b = base % p
    e = exp
    while e:
        if e & 1:
            result = result * b % p
        b = b * b % p
        e >>= 1
    return result


class _IdIndex:
    """Code-to-id lookup, filled by the BFS one level at a time: a dense
    int32 array (-1 for codes without an id) when the code space has at
    most ID_INDEX_CAP codes, else sorted codes with their ids alongside."""

    def __init__(self, space: int, start_code: int):
        self.order = 1
        if space <= ID_INDEX_CAP:
            self.codes = None
            self.ids = np.full(space, -1, dtype=np.int32)
            self.ids[start_code] = 0
        else:
            self.codes = np.array([start_code], dtype=np.int64)
            self.ids = np.zeros(1, dtype=np.int64)

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Ids of codes inside the code space, -1 for codes without one."""
        if self.codes is None:
            return self.ids[codes].astype(np.int64)
        pos = np.searchsorted(self.codes, codes).clip(0, self.order - 1)
        return np.where(self.codes[pos] == codes, self.ids[pos], -1)

    def add(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Give the next ids, in code order, to the codes without one among
        the sorted distinct codes; returns the mask of those codes and the
        ids of all the codes."""
        ids = self.lookup(codes)
        fresh = ids < 0
        new = codes[fresh]
        ids[fresh] = np.arange(self.order, self.order + len(new))
        if self.codes is None:
            self.ids[new] = ids[fresh]
        else:
            pos = np.searchsorted(self.codes, new)
            self.codes = np.insert(self.codes, pos, new)
            self.ids = np.insert(self.ids, pos, ids[fresh])
        self.order += len(new)
        return fresh, ids


class GroupTable:
    """Immutable element table for a finite group with O(1) multiplication."""

    def __init__(
        self,
        digits: np.ndarray,
        radices: np.ndarray,
        mul_rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
        inv_rows: Callable[[np.ndarray], np.ndarray],
        generator_ids: np.ndarray,
        kind: str,
        meta: dict,
        index: _IdIndex,
        level_ends: np.ndarray,
    ):
        self.digits = digits
        self.radices = radices
        self._mul_rows = mul_rows
        self._inv_rows = inv_rows
        self.generator_ids = np.asarray(generator_ids, dtype=np.int64)
        self.kind = kind
        self.meta = meta
        self._weights = _radix_weights(radices)
        self._index = index
        self.level_ends = level_ends
        self._digit_bounds = radices.astype(np.uint64)
        self._perm_cache: dict[tuple[str, int], np.ndarray] = {}

    @property
    def order(self) -> int:
        return self.digits.shape[0]

    identity_id = 0

    # ----- id resolution -----
    def id_of_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        # read as unsigned, a negative digit fails the bound as well; a digit
        # out of range would give another element's code, or one outside the
        # index (where numpy wraps a negative code without an error)
        if (rows.view(np.uint64) >= self._digit_bounds).any():
            raise NotInGroup("element not in group table")
        ids = self._index.lookup(rows @ self._weights)
        if (ids < 0).any():
            raise NotInGroup("element not in group table")
        return ids

    def rows_of(self, ids: np.ndarray | int) -> np.ndarray:
        return self.digits[np.asarray(ids, dtype=np.int64)]

    def mask(self, ids) -> np.ndarray:
        """Boolean membership array over the table, True at the given ids."""
        member = np.zeros(self.order, dtype=bool)
        member[ids] = True
        return member

    # ----- products -----
    def mul_vec(self, a_ids, b_ids) -> np.ndarray:
        """Ids of the products a b, with a_ids and b_ids broadcast against
        each other: mul_vec(a[:, None], b) is the (len(a), len(b)) array
        of all pairwise products, and a scalar against an array is one
        translate of it."""
        a = np.asarray(a_ids, dtype=np.int64)
        b = np.asarray(b_ids, dtype=np.int64)
        a, b = np.broadcast_arrays(a, b)
        if self.order <= PRODUCT_TABLE_CAP:
            return np.asarray(self._products()[a, b], dtype=np.int64)
        if (ab := self._via_factors("mul_vec", a, b)) is not None:
            return ab
        rows = self._mul_rows(self.digits[a.ravel()], self.digits[b.ravel()])
        return self.id_of_rows(rows).reshape(a.shape)

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_vec(np.array([i]), np.array([j]))[0])

    def inv_vec(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if self.order <= PRODUCT_TABLE_CAP:
            inverse = self._cached(("I", 0), lambda: self.id_of_rows(self._inv_rows(self.digits)))
            return np.asarray(inverse[ids])
        if (inverse := self._via_factors("inv_vec", ids)) is not None:
            return inverse
        rows = self._inv_rows(self.digits[ids.ravel()])
        return self.id_of_rows(rows).reshape(ids.shape)

    def inv(self, i: int) -> int:
        return int(self.inv_vec(np.array([i]))[0])

    def comm_vec(self, a_ids, b_ids) -> np.ndarray:
        """Elementwise commutators [a, b] = a^-1 b^-1 a b."""
        return self.mul_vec(
            self.mul_vec(self.inv_vec(a_ids), self.inv_vec(b_ids)), self.mul_vec(a_ids, b_ids)
        )

    # ----- permutation actions -----
    def translation(self, gid: int, right: bool) -> np.ndarray:
        """Array mapping x to id(x g) if right, else to id(g x); built
        afresh on every call."""
        g = np.broadcast_to(self.digits[gid], self.digits.shape)
        rows = self._mul_rows(self.digits, g) if right else self._mul_rows(g, self.digits)
        return self.id_of_rows(rows)

    def _cached(self, key: tuple[str, int], build: Callable[[], np.ndarray]) -> np.ndarray:
        if key not in self._perm_cache:
            self._perm_cache[key] = build()
        return self._perm_cache[key]

    def _products(self) -> np.ndarray:
        """The (order, order) int16 array of the ids x y, cached; rows are
        filled outward from the identity's, the row of g x as L_g[row x]."""

        def build() -> np.ndarray:
            table = np.empty((self.order, self.order), dtype=np.int16)
            table[0] = np.arange(self.order)
            done = self.mask(self.identity_id)
            frontier = np.array([self.identity_id])
            perms = map(self.left_perm, self.generator_ids.tolist())
            moves = [(perm, perm.astype(np.int16)) for perm in perms]
            while len(frontier):
                found = []
                for perm, perm16 in moves:
                    kids = perm[frontier]
                    new = ~done[kids]
                    kids, first = np.unique(kids[new], return_index=True)
                    table[kids] = perm16[table[frontier[new][first]]]
                    done[kids] = True
                    found.append(kids)
                frontier = np.concatenate(found)
            return table

        return self._cached(("P", 0), build)

    @functools.cached_property
    def _factors(self) -> list[GroupTable]:
        """The factor tables of a composite table: the per-prime images of a
        matrix table mod two or more primes, each closed mod its prime, or
        the factors of a direct product; none for any other table."""
        if self.kind == "product":
            return list(self.meta["factors"])
        if self.kind != "matrix" or len(self.meta["primes"]) < 2:
            return []
        d, rows = self.meta["dim"], self.digits[self.generator_ids]
        gens = [(p, [ModMatrix(r.reshape(d, d).tolist(), p) for r in rows[:, c]]) for p, c in _prime_blocks(self)]
        return [generate_group(mats, p) for p, mats in gens]

    @functools.cached_property
    def _factor_ids(self) -> np.ndarray:
        """The (r, n) ids of the elements' images in the r factors: row i
        reads factor i's digit columns, which follow those of factors < i."""
        widths = [F.digits.shape[1] for F in self._factors]
        blocks = np.split(self.digits, np.cumsum(widths)[:-1], axis=1)
        return np.stack([F.id_of_rows(b) for F, b in zip(self._factors, blocks)])

    @functools.cached_property
    def _pair_index(self) -> np.ndarray:
        """Element id of each factor-id tuple's radix code, -1 off the table."""
        orders = [F.order for F in self._factors]
        pairs = np.full(math.prod(orders), -1, np.int32)
        pairs[_radix_weights(orders) @ self._factor_ids] = np.arange(self.order)
        return pairs

    def _via_factors(self, method: str, *ids: np.ndarray) -> np.ndarray | None:
        """mul_vec or inv_vec through the factor tables; None off that path."""
        orders = np.array([F.order for F in self._factors])
        if not orders.size or orders.max() > PRODUCT_TABLE_CAP or orders.prod() > ID_INDEX_CAP:
            return None
        fids, weights = self._factor_ids, _radix_weights(orders)
        codes = sum(w * getattr(F, method)(*(f[x] for x in ids)) for F, f, w in zip(self._factors, fids, weights))
        return np.asarray(self._pair_index[codes], dtype=np.int64)

    def left_perm(self, gid: int) -> np.ndarray:
        """Array mapping x to id(g x), cached."""
        return self._cached(("L", int(gid)), lambda: self.translation(gid, right=False))

    def right_perm(self, gid: int) -> np.ndarray:
        """Array mapping x to id(x g), cached."""
        return self._cached(("R", int(gid)), lambda: self.translation(gid, right=True))

    def conj_perm(self, gid: int) -> np.ndarray:
        """Array mapping x to id(g x g^-1)."""
        return self._cached(
            ("C", int(gid)), lambda: self.left_perm(gid)[self.right_perm(self.inv(gid))]
        )

    def element_str(self, i: int) -> str:
        row = self.digits[i]
        if self.kind == "matrix":
            d = self.meta["dim"]
            return "|".join(
                f"mod{p}:" + ";".join(",".join(str(x) for x in r) for r in row[cols].reshape(d, d))
                for p, cols in _prime_blocks(self)
            )
        return ",".join(str(x) for x in row)

    def __repr__(self) -> str:
        return f"GroupTable({self.kind}, order={self.order})"


def _prime_blocks(G: GroupTable) -> list[tuple[int, slice]]:
    """(p, digit columns of the mod-p matrix) per prime factor of the q of
    a matrix table."""
    dd = G.meta["dim"] ** 2
    return [(p, slice(i * dd, (i + 1) * dd)) for i, p in enumerate(G.meta["primes"])]


def _radix_weights(radices: np.ndarray) -> np.ndarray:
    w = np.ones(len(radices), dtype=np.int64)
    space = 1
    for i, r in enumerate(radices):
        w[i] = space
        space *= int(r)
        if space > (1 << 62):
            raise SizeCapExceeded("element code space exceeds 2^62")
    return w


# ---------------------------------------------------------------------------
# digit backends


def _matrix_mul_factory(primes: Sequence[int], d: int):
    blocks = [(i * d * d, p) for i, p in enumerate(primes)]

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        for off, p in blocks:
            x = a[:, off : off + d * d].reshape(-1, d, d)
            y = b[:, off : off + d * d].reshape(-1, d, d)
            out[:, off : off + d * d] = _block_mul(x, y, p).reshape(-1, d * d)
        return out

    def inv(a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        for off, p in blocks:
            x = a[:, off : off + d * d].reshape(-1, d, d)
            out[:, off : off + d * d] = _inv_block(x, p).reshape(-1, d * d)
        return out

    return mul, inv


def _block_mul(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Stacked products (x @ y) mod p of (n, d, d) blocks by (n, d, d) blocks
    or (n, d, 1) columns; integer-exact while d p^2 stays below 2^63."""
    return (x @ y) % p


def _inv_block(x: np.ndarray, p: int) -> np.ndarray:
    d = x.shape[1]
    if d == 2:
        det = (x[:, 0, 0] * x[:, 1, 1] - x[:, 0, 1] * x[:, 1, 0]) % p
        if not det.all():
            raise SingularMatrix(f"matrix singular mod {p}")
        di = _modpow_vec(det, p - 2, p)
        out = np.empty_like(x)
        out[:, 0, 0] = x[:, 1, 1] * di % p
        out[:, 0, 1] = (p - x[:, 0, 1]) * di % p
        out[:, 1, 0] = (p - x[:, 1, 0]) * di % p
        out[:, 1, 1] = x[:, 0, 0] * di % p
        return out
    # general small dimension: per-element elimination
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        out[i] = np.array(mod_inv(ModMatrix(x[i].tolist(), p)).rows, dtype=np.int64)
    return out


def _heisenberg_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Rows (v, t) multiplied as (v,t)(v',t') = (v+v', t+t'+h(v,v')), with
    the symplectic form h((a,b),(c,d)) = ad - bc."""
    out = np.empty_like(a)
    out[:, 0] = (a[:, 0] + b[:, 0]) % p
    out[:, 1] = (a[:, 1] + b[:, 1]) % p
    out[:, 2] = (a[:, 2] + b[:, 2] + a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) % p
    return out


# ---------------------------------------------------------------------------
# BFS construction


def _bfs_table(
    start_row: np.ndarray,
    gen_rows: np.ndarray,
    radices: np.ndarray,
    mul_rows,
    inv_rows,
    kind: str,
    meta: dict,
) -> GroupTable:
    cap = int(os.environ.get("EXPANDERLAB_CAP_ELEMS") or DEFAULT_ELEMENT_CAP)
    weights = _radix_weights(radices)
    index = _IdIndex(int(weights[-1]) * int(radices[-1]), int(start_row @ weights))
    levels = [start_row.reshape(1, -1)]
    frontier = levels[0]
    moves: list[list[np.ndarray]] = [[] for _ in gen_rows]  # id(g x), level by level
    while frontier.shape[0]:
        n = frontier.shape[0]
        g_x = (mul_rows(np.broadcast_to(g, frontier.shape), frontier) for g in gen_rows)
        codes, inverse = np.unique(np.concatenate([r @ weights for r in g_x]), return_inverse=True)
        fresh, ids = index.add(codes)
        if index.order > cap:
            raise SizeCapExceeded(f"group closure exceeded cap of {cap} elements")
        for j, ids_j in enumerate(moves):
            ids_j.append(ids[inverse[j * n : (j + 1) * n]])
        frontier = codes[fresh][:, None] // weights % radices
        levels.append(frontier)
    table = GroupTable(
        digits=np.concatenate(levels, axis=0),
        radices=radices,
        mul_rows=mul_rows,
        inv_rows=inv_rows,
        generator_ids=index.lookup(gen_rows @ weights),
        kind=kind,
        meta=meta,
        index=index,
        level_ends=np.cumsum([len(lv) for lv in levels[:-1]]),
    )
    for j, gid in enumerate(table.generator_ids.tolist()):
        table._perm_cache["L", gid] = np.concatenate(moves[j])
        moves[j] = []
    return table


def _first_rows(rows: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The first row with each code, in row order."""
    _, first = np.unique(codes, return_index=True)
    return rows[np.sort(first)]


def _symmetrize_rows(rows: np.ndarray, inv_rows, weights) -> np.ndarray:
    both = np.concatenate([rows, inv_rows(rows)], axis=0)
    return _first_rows(both, both @ weights)


def generate_group(gens: Sequence, q: int | None = None, *, symmetrize: bool = True) -> GroupTable:
    """BFS closure of the generators inside the mod-q matrix group.

    gens may be RationalMatrix values (reduced mod every prime factor of
    q), or tuples of ModMatrix lined up with the prime factorization.
    The element ordering is BFS layer first, then the mixed-radix
    encoding of the digit row, so identical input always produces an
    identical table.
    """
    if q is None:
        raise ValueError("modulus q is required")
    if not gens:
        raise ValueError("need at least one generator")
    primes = square_free_factors(q)
    low = [p for p in primes if p < MIN_PRIME]
    if low:
        raise BadPrime(f"prime factors {low} below the working threshold {MIN_PRIME}")
    mats: list[list[ModMatrix]] = []
    denom_primes: set[int] = set()
    for g in gens:
        if isinstance(g, RationalMatrix):
            denom_primes.update(g.denominator_support())
            mats.append(crt_tuple(g, q))
        else:
            tup = [g] if isinstance(g, ModMatrix) else list(g)
            moduli = [m.p for m in tup]
            if moduli != primes:
                raise ValueError(f"generator moduli {moduli} differ from the primes {primes} of q")
            mats.append(tup)
    bad = denom_primes & set(primes)
    if bad:
        raise BadPrime(f"q shares prime factors {sorted(bad)} with generator denominators")
    dims = {m.dim for tup in mats for m in tup}
    if len(dims) != 1:
        raise ValueError(f"generators of mixed dimension {sorted(dims)}")
    d = dims.pop()
    rows = np.array(
        [[x for m in tup for row in m.rows for x in row] for tup in mats],
        dtype=np.int64,
    )
    radices = np.array([p for p in primes for _ in range(d * d)], dtype=np.int64)
    mul_rows, inv_rows = _matrix_mul_factory(primes, d)
    inv_rows(rows)  # raises SingularMatrix on a generator singular mod a prime of q
    if symmetrize:
        rows = _symmetrize_rows(rows, inv_rows, _radix_weights(radices))
    ident = np.array(
        [int(i == j) for _ in primes for i in range(d) for j in range(d)],
        dtype=np.int64,
    )
    meta = {
        "q": q,
        "primes": primes,
        "dim": d,
        "denominator_primes": sorted(denom_primes),
    }
    return _bfs_table(ident, rows, radices, mul_rows, inv_rows, "matrix", meta)


def ids_of_matrices(G: GroupTable, mats: Sequence[RationalMatrix]) -> np.ndarray:
    """Ids in the matrix table G of the reductions of rational matrices
    mod its q; raises NotInGroup for a matrix whose image is not in G."""
    q = G.meta["q"]
    rows = [[x for m in crt_tuple(mat, q) for r in m.rows for x in r] for mat in mats]
    return G.id_of_rows(np.array(rows, dtype=np.int64))


def cyclic_group(n: int) -> GroupTable:
    """Z/n with generator 1, for analytic cross-checks on small graphs."""
    if n < 2:
        raise ValueError("need n >= 2")

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % n

    def inv(a: np.ndarray) -> np.ndarray:
        return (n - a) % n

    radices = np.array([n], dtype=np.int64)
    gens = np.array([[1], [n - 1]], dtype=np.int64)
    ident = np.zeros(1, dtype=np.int64)
    return _bfs_table(ident, gens, radices, mul, inv, "cyclic", {"n": n})


def heisenberg_group(p: int) -> GroupTable:
    """The group of order p^3 on pairs (v, t), v in F_p^2, t in F_p, with
    (v,t)(v',t') = (v+v', t+t'+h(v,v')) for the symplectic form
    h((a,b),(c,d)) = ad - bc.  Odd p only."""
    if p < 3 or prime_factors(p) != [p]:
        raise ValueError("need an odd prime")

    def mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _heisenberg_mul(a, b, p)

    def inv_rows(a: np.ndarray) -> np.ndarray:
        return (p - a) % p

    radices = np.array([p, p, p], dtype=np.int64)
    gens = np.array(
        [[1, 0, 0], [p - 1, 0, 0], [0, 1, 0], [0, p - 1, 0]], dtype=np.int64
    )
    ident = np.zeros(3, dtype=np.int64)
    meta = {"p": p}
    return _bfs_table(ident, gens, radices, mul_rows, inv_rows, "heisenberg", meta)


@dataclass
class SemidirectSpec:
    """Levi-times-unipotent construction data: L acts on U, elements are
    pairs (A, u) with (A,u)(B,w) = (AB, u + A.w)."""

    p: int
    l_gens: list[ModMatrix]
    u_kind: str = "vector"  # "vector" | "heisenberg"
    u_dim: int = 2
    action: str = "natural"  # "natural" | "trivial"

    def __post_init__(self):
        if self.u_kind not in ("vector", "heisenberg"):
            raise ValueError("u_kind must be vector or heisenberg")
        if self.action not in ("natural", "trivial"):
            raise ValueError("action must be natural or trivial")
        if self.u_kind == "heisenberg" and self.action == "natural":
            # the twist must preserve the symplectic form
            for m in self.l_gens:
                a, b = m.rows[0]
                c, d = m.rows[1]
                if (a * d - b * c) % self.p != 1:
                    raise HypothesisViolated(
                        "natural action on the Heisenberg part needs det = 1"
                    )


def semidirect_group(spec: SemidirectSpec) -> GroupTable:
    p = spec.p
    d = spec.l_gens[0].dim
    u_len = 3 if spec.u_kind == "heisenberg" else spec.u_dim
    dd = d * d
    natural = spec.action == "natural"
    heis = spec.u_kind == "heisenberg"

    def act(l_block: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Apply the L-part (n,d,d) to the U-part coordinates; a Heisenberg
        U part keeps its central coordinate."""
        if not natural:
            return u
        k = 2 if heis else u_len
        return np.concatenate([_block_mul(l_block, u[:, :k, None], p)[:, :, 0], u[:, k:]], axis=1)

    def u_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _heisenberg_mul(x, y, p) if heis else (x + y) % p

    def u_neg(x: np.ndarray) -> np.ndarray:
        return (p - x) % p

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        la = a[:, :dd].reshape(-1, d, d)
        lb = b[:, :dd].reshape(-1, d, d)
        out[:, :dd] = _block_mul(la, lb, p).reshape(-1, dd)
        out[:, dd:] = u_add(a[:, dd:], act(la, b[:, dd:]))
        return out

    def inv(a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        li = _inv_block(a[:, :dd].reshape(-1, d, d), p)
        out[:, :dd] = li.reshape(-1, dd)
        out[:, dd:] = u_neg(act(li, a[:, dd:]))
        return out

    radices = np.full(dd + u_len, p, dtype=np.int64)
    ident_l = [int(i == j) for i in range(d) for j in range(d)]
    gen_rows = []
    for m in spec.l_gens:
        gen_rows.append([x for row in m.rows for x in row] + [0] * u_len)
    for i in range(2 if heis else u_len):
        u = [0] * u_len
        u[i] = 1
        gen_rows.append(ident_l + u)
    rows = np.array(gen_rows, dtype=np.int64)
    rows = _symmetrize_rows(rows, inv, _radix_weights(radices))
    ident = np.array(ident_l + [0] * u_len, dtype=np.int64)
    meta = {
        "p": p,
        "dim": d,
        "u_kind": spec.u_kind,
        "u_len": u_len,
        "action": spec.action,
        "l_digits": dd,
    }
    return _bfs_table(ident, rows, radices, mul, inv, "semidirect", meta)


def direct_product(t1: GroupTable, t2: GroupTable) -> GroupTable:
    """Explicit direct product table (for modest factor sizes)."""
    k1 = t1.digits.shape[1]

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        left = t1._mul_rows(a[:, :k1], b[:, :k1])
        right = t2._mul_rows(a[:, k1:], b[:, k1:])
        return np.concatenate([left, right], axis=1)

    def inv(a: np.ndarray) -> np.ndarray:
        return np.concatenate([t1._inv_rows(a[:, :k1]), t2._inv_rows(a[:, k1:])], axis=1)

    radices = np.concatenate([t1.radices, t2.radices])
    gens = []
    id1 = t1.digits[0]
    id2 = t2.digits[0]
    for g in t1.generator_ids:
        gens.append(np.concatenate([t1.digits[g], id2]))
    for g in t2.generator_ids:
        gens.append(np.concatenate([id1, t2.digits[g]]))
    rows = np.array(gens, dtype=np.int64)
    ident = np.concatenate([id1, id2])
    meta = {
        "factor_primes": list(t1.meta.get("primes", [t1.meta.get("p")]))
        + list(t2.meta.get("primes", [t2.meta.get("p")])),
        "factors": (t1, t2),
    }
    return _bfs_table(ident, rows, radices, mul, inv, "product", meta)


# ---------------------------------------------------------------------------
# subgroups


@dataclass
class SubgroupRecord:
    parent: GroupTable
    generator_ids: np.ndarray
    element_ids: np.ndarray
    member: np.ndarray
    index: int
    normal: bool
    perfect: bool = field(default=False)

    @property
    def size(self) -> int:
        return len(self.element_ids)

    def __contains__(self, i: int) -> bool:
        return bool(self.member[i])


def _closure_ids(G: GroupTable, gen_ids, conj_ids=()) -> np.ndarray:
    """Element ids of the smallest subgroup holding gen_ids and closed under
    conjugation by conj_ids, by one BFS from the identity.

    Each step takes the union of right multiplication by the symmetrized
    generators and conjugation by each conj_ids element.  A set holding e
    and closed under both holds y (c s c^-1) = c ((c^-1 y c) s) c^-1, as
    conjugation by c^-1 is a power of conjugation by c, so it is a group.
    The walk stops once it covers more than half the group: subgroup
    orders divide the group order, so such a subgroup is the whole group.
    """
    gens = np.unique(np.asarray(gen_ids, dtype=np.int64))
    gens = np.unique(np.concatenate([gens, G.inv_vec(gens)]))
    conj = [G.conj_perm(int(c)) for c in np.unique(np.asarray(conj_ids, dtype=np.int64))]
    member = G.mask(G.identity_id)
    frontier = np.array([G.identity_id], dtype=np.int64)
    while frontier.size:
        moves = [G.mul_vec(frontier[:, None], gens).ravel()] + [cp[frontier] for cp in conj]
        fresh = G.mask(np.concatenate(moves)) & ~member
        member |= fresh
        frontier = np.flatnonzero(fresh)
        if 2 * member.sum() > G.order:
            return np.arange(G.order, dtype=np.int64)
    return np.flatnonzero(member).astype(np.int64)


def subgroup_closure(G: GroupTable, gen_ids: Sequence[int], *, flags: bool = True) -> SubgroupRecord:
    gen_ids = np.asarray(sorted(set(int(g) for g in gen_ids)), dtype=np.int64)
    ids = _closure_ids(G, gen_ids)
    member = G.mask(ids)
    return SubgroupRecord(
        parent=G,
        generator_ids=gen_ids,
        element_ids=ids,
        member=member,
        index=G.order // len(ids),
        normal=flags and _is_normal_set(G, gen_ids, member),
        perfect=flags and _is_perfect(G, gen_ids, len(ids)),
    )


def coset_labels(G: GroupTable, h_ids: np.ndarray) -> np.ndarray:
    """labels[g] = index of the left coset gH, for the subgroup H with
    element ids h_ids; cosets are numbered by their least id, so the
    identity coset is 0."""
    labels = np.full(G.order, -1, dtype=np.int64)
    nxt = 0
    for g in range(G.order):
        if labels[g] >= 0:
            continue
        labels[G.mul_vec(g, h_ids)] = nxt
        nxt += 1
    return labels


def _is_normal_set(G: GroupTable, gen_ids: np.ndarray, member: np.ndarray) -> bool:
    """H is normal iff conjugating its generators by the group generators
    stays inside H (conjugation by a generating set reaches all of G)."""
    for s in G.generator_ids:
        if not member[G.conj_perm(int(s))[gen_ids]].all():
            return False
    return True


def _is_perfect(G: GroupTable, gen_ids: np.ndarray, order: int) -> bool:
    """Whether the subgroup of the given order generated by gen_ids is its
    own commutator subgroup: the closure of [gens, gens] under conjugation
    by gens has that order."""
    return len(_closure_ids(G, G.comm_vec(gen_ids[:, None], gen_ids), gen_ids)) == order


def normal_closure(G: GroupTable, seed_ids: Sequence[int]) -> np.ndarray:
    """Element ids of the smallest normal subgroup containing the seeds."""
    return _closure_ids(G, seed_ids, G.generator_ids)


def is_perfect(G: GroupTable) -> bool:
    """Whether G equals its commutator subgroup."""
    return _is_perfect(G, G.generator_ids, G.order)


def conjugacy_classes(G: GroupTable) -> list[np.ndarray]:
    """Conjugation orbits, ordered by least element, each sorted.

    Each round lowers every label to its conjugates' labels under the
    generators, then to its label's label.  A label only falls and never
    leaves its class; once a round changes nothing, labels are constant
    on classes, so each is its class's least element.
    """
    conj_perms = [G.conj_perm(int(s)) for s in G.generator_ids]
    label, prev = np.arange(G.order, dtype=np.int64), None
    while not np.array_equal(label, prev):
        prev = label
        for cp in conj_perms:
            label = np.minimum(label, label[cp])
        label = label[label]
    by_class = np.argsort(label, kind="stable")
    return np.split(by_class, np.flatnonzero(np.diff(label[by_class])) + 1)


def normal_subgroups(G: GroupTable) -> list[SubgroupRecord]:
    """All normal subgroups, as joins of normal closures of conjugacy classes.

    Each sweep joins the pairs whose later side is new since the last one.
    A pair runs no closure when a found subgroup holds both sides and has
    their join's order |N_i||N_j| / |N_i & N_j|: that subgroup is the join.
    """
    if G.order > NORMAL_SUBGROUP_CAP:
        raise SizeCapExceeded(f"normal subgroup enumeration capped at {NORMAL_SUBGROUP_CAP}")
    found: dict[bytes, tuple[list[int], np.ndarray, np.ndarray]] = {}

    def register(seeds: list[int]) -> None:
        ids = _closure_ids(G, seeds, G.generator_ids)
        found.setdefault(ids.tobytes(), (seeds, ids, G.mask(ids)))

    register([])
    for cls in conjugacy_classes(G):
        register([int(cls[0])])
    done = 0
    while done < len(found):
        items = list(found.values())
        for i, (si, ids_i, mi) in enumerate(items):
            for sj, ids_j, _ in items[max(i + 1, done):]:
                seeds = sorted(set(si + sj))
                order = ids_i.size * ids_j.size // int(mi[ids_j].sum())
                if not any(ids.size == order and m[seeds].all() for _, ids, m in found.values()):
                    register(seeds)
        done = len(items)
    records = [
        SubgroupRecord(G, np.array(seeds, dtype=np.int64), ids, member, G.order // ids.size, normal=True)
        for seeds, ids, member in found.values()
    ]
    return sorted(records, key=lambda r: (r.size, r.element_ids.tobytes()))


# ---------------------------------------------------------------------------
# decomposition and structure checks


def product_decompose(G: GroupTable) -> tuple[list[GroupTable], dict]:
    """Per-prime projections of a mod-q table plus a bijectivity report."""
    if G.kind != "matrix" or len(G.meta["primes"]) < 2:
        raise NotComposite("decomposition needs a matrix table with composite q")
    orders = [t.order for t in G._factors]
    prod = math.prod(orders)
    report = {
        "orders": orders,
        "product_of_orders": prod,
        "group_order": G.order,
        "bijective": prod == G.order,
    }
    return list(G._factors), report


def index_product_check(G: GroupTable, H: SubgroupRecord, delta: float = 0.25) -> dict:
    """Compare prod_p [G_p : pi_p(H)] against [G:H]^delta."""
    primes = G.meta.get("factor_primes", [])
    if len(set(primes)) != len(primes):
        raise HypothesisViolated("index product bound assumes pairwise distinct primes")
    if not G._factors:
        raise NotComposite("index_product_check needs a matrix table with composite q or a direct product")
    # [G_p : pi_p(H)], with pi_p(H) counted as the distinct factor ids
    fids = G._factor_ids[:, H.element_ids]
    lhs = math.prod(F.order // int(F.mask(f).sum()) for F, f in zip(G._factors, fids))
    rhs = H.index
    if rhs == 1:
        delta_hat = float("inf")
    else:
        delta_hat = math.log(lhs) / math.log(rhs)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "delta_hat": delta_hat,
        "holds": lhs >= rhs**delta,
        "delta": delta,
    }


def small_lifts(
    ball: Iterable[tuple[tuple, RationalMatrix]],
    G: GroupTable,
    H: SubgroupRecord,
    delta: float,
) -> list[tuple[tuple, RationalMatrix]]:
    """Filter the ball down to lifts of H with S-norm below [G:H]^delta."""
    from .exact import PrimeSet, s_norm

    S = PrimeSet(G.meta.get("denominator_primes", []))
    bound = float(H.index) ** delta
    out = []
    for word, mat in ball:
        if s_norm(mat, S) >= bound:
            continue
        try:
            gid = int(ids_of_matrices(G, [mat])[0])
        except NotInGroup:
            continue
        if H.member[gid]:
            out.append((word, mat))
    return out


def lower_central_series(U: GroupTable) -> list[np.ndarray]:
    """Chain gamma_1 = U, gamma_{i+1} = <[U, gamma_i]>, down to the identity.

    gamma_{i+1} is the normal closure of the [s, x], s a generator and x in
    gamma_i, as [st, x] = [s, x]^t [t, x]; exact, for small p-groups.
    """
    fac = prime_factors(U.order)
    if len(fac) != 1:
        raise NotPGroup(f"order {U.order} is not a prime power")
    if U.order > CENTRAL_SERIES_CAP:
        raise SizeCapExceeded(f"lower central series capped at {CENTRAL_SERIES_CAP} elements")
    chain = [np.arange(U.order, dtype=np.int64)]
    S = U.generator_ids
    while len(chain[-1]) > 1:
        nxt = _closure_ids(U, U.comm_vec(S[:, None], chain[-1]), S)
        if len(nxt) == len(chain[-1]):
            raise NotPGroup("series did not descend; group is not nilpotent")
        chain.append(nxt)
    return chain


# ----- semidirect structure helpers -----


def levi_mask(G: GroupTable) -> np.ndarray:
    """Mask of elements with trivial unipotent part."""
    if G.kind != "semidirect":
        raise TableMismatch("levi/unipotent split needs a semidirect table")
    dd = G.meta["l_digits"]
    return (G.digits[:, dd:] == 0).all(axis=1)


def unipotent_mask(G: GroupTable) -> np.ndarray:
    """Mask of elements with identity Levi part."""
    if G.kind != "semidirect":
        raise TableMismatch("levi/unipotent split needs a semidirect table")
    dd = G.meta["l_digits"]
    return (G.digits[:, :dd] == G.digits[G.identity_id, :dd]).all(axis=1)


def verify_product_form(G: GroupTable, H: SubgroupRecord) -> dict:
    """Check H = (H cap L)(H cap U) with H cap L acting trivially on U/(H cap U)."""
    if not H.normal:
        raise NotNormal("product form is asserted for normal subgroups")
    lmask = levi_mask(G)
    umask = unipotent_mask(G)
    hl = H.element_ids[lmask[H.element_ids]]
    hu = H.element_ids[umask[H.element_ids]]
    # product set (H cap L)(H cap U)
    prod = np.unique(G.mul_vec(hl[:, None], hu))
    splits = prod.size == H.size and bool(H.member[prod].all())
    # trivial action on U/(H cap U): commutators [h, u] must fall in H cap U
    u_ids = np.flatnonzero(umask)
    hu_member = G.mask(hu)
    acts_trivially = True
    witness = None
    for h in hl:
        bad = ~hu_member[G.comm_vec(h, u_ids)]
        if bad.any():
            acts_trivially = False
            witness = (int(h), int(u_ids[np.nonzero(bad)[0][0]]))
            break
    return {
        "splits": splits,
        "acts_trivially": acts_trivially,
        "passed": splits and acts_trivially,
        "witness": witness,
        "h_cap_l": len(hl),
        "h_cap_u": len(hu),
    }


def _primitive_root(p: int) -> int:
    order_factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors):
            return g
    raise BadPrime(f"no primitive root found mod {p}")


def _single_prime_dim2(G: GroupTable) -> int:
    if G.kind != "matrix" or len(G.meta["primes"]) != 1 or G.meta["dim"] != 2:
        raise TableMismatch("named subgroups need a 2x2 table over one prime")
    return G.meta["primes"][0]


def _named_subgroup(G: GroupTable, name: str, rows: list[list[int]]) -> SubgroupRecord:
    try:
        ids = G.id_of_rows(np.array(rows, dtype=np.int64))
    except NotInGroup:
        raise NotInGroup(
            f"the {name} subgroup is not inside this group of order {G.order}; "
            "name a subgroup with --subgroup file:PATH"
        ) from None
    return subgroup_closure(G, ids, flags=False)


def borel_subgroup(G: GroupTable) -> SubgroupRecord:
    """Upper triangular subgroup of a 2x2 mod-p table, order p(p-1)."""
    p = _single_prime_dim2(G)
    g0 = _primitive_root(p)
    return _named_subgroup(G, "borel", [[g0, 0, 0, pow(g0, p - 2, p)], [1, 1, 0, 1]])


def torus_subgroup(G: GroupTable) -> SubgroupRecord:
    """Diagonal subgroup of a 2x2 mod-p table, order p-1."""
    p = _single_prime_dim2(G)
    g0 = _primitive_root(p)
    return _named_subgroup(G, "torus", [[g0, 0, 0, pow(g0, p - 2, p)]])


def verify_normal_perfect(G: GroupTable) -> dict:
    """For a perfect semidirect table, check that every normal subgroup
    surjecting onto the Levi part is the whole group."""
    if not is_perfect(G):
        return {"applicable": False, "passed": False, "reason": "group is not perfect"}
    l_count = int(levi_mask(G).sum())
    dd = G.meta["l_digits"]
    failures = []
    for H in normal_subgroups(G):
        levi_parts = np.unique(G.digits[H.element_ids, :dd], axis=0)
        if len(levi_parts) == l_count and H.size < G.order:
            failures.append(H.size)
    return {"applicable": True, "passed": not failures, "failures": failures}


def verify_factor_product_form(G: GroupTable, H: SubgroupRecord) -> dict:
    """Check that H equals (product of the embedded factors it contains)
    times a central subgroup.

    That is the only shape a normal subgroup of a product of quasi-simple
    factors can take; the factor index set may be empty.
    """
    if G.kind != "matrix" or len(G.meta["primes"]) < 2:
        raise NotComposite("product form over factors needs a composite matrix table")
    at_ident = G._factor_ids == 0
    center = np.ones(G.order, dtype=bool)
    for s in G.generator_ids:
        center &= G.conj_perm(int(s)) == np.arange(G.order)
    inside = []
    core = np.array([G.identity_id], dtype=np.int64)
    for i in range(len(at_ident)):
        # embedded copy of factor i: identity in every other factor
        f_ids = np.flatnonzero(np.delete(at_ident, i, axis=0).all(axis=0))
        if H.member[f_ids].all():
            inside.append(i)
            core = np.unique(G.mul_vec(core[:, None], f_ids))
    z_ids = np.flatnonzero(center & H.member)
    full = np.unique(G.mul_vec(core[:, None], z_ids))
    passed = full.size == H.size and bool(H.member[full].all())
    return {
        "passed": passed,
        "factors_inside": inside,
        "central_size": len(z_ids),
        "rebuilt_size": int(full.size),
    }
