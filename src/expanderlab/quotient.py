"""Finite congruence quotients as explicit indexed groups.

A GroupTable stores one row of small nonnegative "digits" per element
(matrix entries mod p, concatenated over the prime factors of q, or the
coordinates of a nilpotent/semidirect element) and, unless it has factors,
vectorized multiplication and inversion callbacks on digit rows.  Element
ids are assigned in BFS order from the identity, ties broken by the
mixed-radix encoding of the digit row, so tables are deterministic.

One BFS routine builds every table kind and its one id lookup, also its
seen-set: a dense int32 key-to-id array for a key space of at most
ID_INDEX_CAP = 2^23 keys, else int32 ids beside sorted keys, int32 below 2^31
(SL2 mod 59-97), which a level costs one search and one in-place sort of int64
values key << b | position (b bits for a position), or an argsort of the keys
where those could pass 62 bits (int64 keys: a 4x4 table mod 13).  A key is the
mixed-radix code of the digit row; in a table with factors, the ranks of its
factor ids in mixed radix over the factor orders, which sort as the codes do
(262,080 keys for SL2 mod 65).  A table with factors is the subgroup of their
product that rows of factor ids generate: mod a composite q, inside the product
of its per-prime images by the CRT, the generators' ids in the tables mod each
prime, built first from their reduced rows; in a direct product, (g, e) and
(e, h).  The BFS multiplies on the left (a sphere is the same from either
side), and the products g x seed left_perm(g); the first level_ends[l] ids are
the ball B_l.  As g x acts on each column of x apart, a matrix table mod a
prime first maps to the orbit of the identity's columns (9,408 vectors mod 97),
and its BFS runs on rows of column ids: each product one gather, each code a
sum of lookups; a table with factors runs it on rows of factor ids, in the
factors' recorded translations, and keeps them; other tables decode digit rows
from their keys on first read, which a walk never does (SL2 mod 97 holds
36.5 MB).

A table of n <= PRODUCT_TABLE_CAP = 4096 elements answers mul_vec as a
larger one does (below) until a call asks for n pairs or the n-th call comes.
That call builds an int16 product table, 2 bytes per pair, which answers it
and every later one: row b is x -> x b (a product set A B reads |B| rows),
filled outward from the identity's row, the row of g y as the row of y at the
ids x g.  Such a table answers inv_vec from a cached inverse permutation.

Other products and inverses, the inverse permutation and every translation
come, in a table with factors, from the same operation in each factor at its
factor ids, mapped back by rank; in any other table, from its callbacks.

A subgroup comes from one BFS from the identity that multiplies by its generators,
deduplicated by a mask, until past half the group; a record reads its normality and
perfection off products of generators, s x s^-1 and [s, h].  Conjugacy classes come
from one labelling that lowers each element's label to its class's least element, kept
on the table; a normal closure is a BFS over classes, and normal subgroups are the normal
closures of one element per class, joined in pairs unless a found one is the join.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

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
    RationalMatrix,
    _dimension,
    _inverses_mod,
    crt_tuple,
    prime_factors,
    row_reduce_mod_p,
    square_free_factors,
)

DEFAULT_ELEMENT_CAP = 2_000_000  # EXPANDERLAB_CAP_ELEMS overrides it
ID_INDEX_CAP = 1 << 23
PRODUCT_TABLE_CAP = 4096
NORMAL_SUBGROUP_CAP = 100_000
CENTRAL_SERIES_CAP = 4096
MIN_PRIME = 5


class _IdIndex:
    """Key-to-id lookup, filled by the BFS one level at a time: a dense int32 array over the
    key space (-1 for keys without an id), or sorted keys ("codes"), int32 below 2^31 and else
    int64, with int32 ids alongside; a query takes their dtype, or searchsorted widens a copy."""

    def __init__(self, space: int, start_codes: np.ndarray, dense: bool):
        self.order = len(start_codes)  # sorted and distinct, given ids 0, 1, ...
        self.bits = (space - 1).bit_length()  # of a key
        self.dtype = np.dtype(np.int32 if not dense and space <= 1 << 31 else np.int64)  # of the keys
        self.codes = None if dense else np.array(start_codes, dtype=self.dtype)
        self.ids = np.full(space, -1, dtype=np.int32) if dense else np.arange(self.order, dtype=np.int32)
        if dense:
            self.ids[start_codes] = np.arange(self.order)

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Ids of codes inside the code space, -1 for codes without one."""
        if self.codes is None:
            return self.ids[codes].astype(np.int64)
        pos = np.minimum(self.codes.searchsorted(codes.astype(self.dtype)), self.order - 1)
        return np.where(self.codes[pos] == codes, self.ids[pos].astype(np.int64), -1)

    def keys(self) -> np.ndarray:
        """The key of each id."""
        keys = (self.ids >= 0).nonzero()[0] if self.codes is None else self.codes
        by_id = np.empty(self.order, dtype=np.int64)
        by_id[self.ids[keys] if self.codes is None else self.ids] = keys
        return by_id

    def add(self, codes: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Ids of the codes, the next ids going in code order to codes without one, and the first position
        of each new code, in order; None, with nothing added, if they would take the order past limit.  The
        codes to place (a dense index's misses, else all, whose ids a sorted index writes over them) cost one
        in-place sort of the int64 values code << b | position, b the bits of a position, or an argsort where
        those would pass 62 bits (int64 keys), and a sorted index one search of their distinct codes."""
        dense = self.codes is None
        codes = codes if dense else codes.astype(self.dtype, copy=False)
        ids = self.ids[codes] if dense else codes
        pos = (ids < 0).nonzero()[0] if dense else None  # the misses
        todo = codes[pos] if dense else codes
        if self.bits + (b := len(codes).bit_length()) < 63:
            packed = todo.astype(np.int64, copy=not dense)  # a sorted index's codes are its ids
            packed <<= b
            packed |= pos if dense else np.arange(len(codes))
            packed.sort()
            # a sorted index reads its codes no more, so the sorted ones go over them
            new = packed >> b if dense else np.right_shift(packed, b, out=codes, casting="unsafe")
            pos = np.bitwise_and(packed, (1 << b) - 1, out=packed)
        else:
            order = todo.argsort(kind="stable")  # ties at their first position, as in the packed sort
            new, pos = todo[order], pos[order] if dense else order
        head = np.ones(len(pos) + 1, dtype=bool)  # and one past the end
        np.not_equal(new[1:], new[:-1], out=head[1:-1])
        bounds = head.nonzero()[0]  # of the runs of equal codes
        new = new[bounds[:-1]].astype(self.dtype, copy=False)
        at = new if dense else self.codes.searchsorted(new)  # where the id of a held code is, and a new one goes
        found = np.where(dense or self.codes.take(at, mode="clip") == new, self.ids.take(at, mode="clip"), -1)
        fresh = (found < 0).nonzero()[0]
        if self.order + len(fresh) > limit:
            return None
        new, first, at = new[fresh], pos[bounds[fresh]], at[fresh]
        found[fresh] = np.arange(self.order, self.order + len(new))
        ids[pos] = np.repeat(found, bounds[1:] - bounds[:-1])
        if dense:
            self.ids[new] = found[fresh]
        else:
            self.codes, self.ids = np.insert(self.codes, at, new), np.insert(self.ids, at, found[fresh])
        self.order += len(new)
        return ids, first


class GroupTable:
    """Immutable element table for a finite group with O(1) multiplication."""

    def __init__(
        self,
        digits: Callable[[], np.ndarray],
        radices: np.ndarray,
        mul_rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
        inv_rows: Callable[[np.ndarray], np.ndarray],
        generator_ids: np.ndarray,
        kind: str,
        meta: dict,
        index: _IdIndex,
        level_ends: np.ndarray,
    ):
        self._digit_rows = digits  # a builder of the digit rows, run on first read
        self.radices = radices
        self._mul_rows = mul_rows  # the row kernels, None in a table with factors
        self._inv_rows = inv_rows
        self.generator_ids = np.asarray(generator_ids, dtype=np.int64)
        self.kind = kind
        self.meta = meta
        self._index = index
        self.level_ends = level_ends
        self._digit_bounds = radices.astype(np.uint64)
        self._perm_cache: dict[tuple[str, int], np.ndarray] = {}
        self._kernel_calls = 0  # mul_vec calls made before the product table exists
        self._factors, self._factor_ids = [], None  # the factor tables and (r, order) ids, set by _factor_table

    @functools.cached_property
    def digits(self) -> np.ndarray:
        """The digit rows by id, built on first read."""
        build, self._digit_rows = self._digit_rows, None
        return build()

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        """The weights of the digit code, read by a table without factors."""
        return _radix_weights(self.radices)

    @property
    def order(self) -> int:
        return int(self.level_ends[-1])

    identity_id = 0

    # ----- id resolution -----
    def id_of_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        if rows.shape[-1] != len(self.radices):  # a matrix of another dimension, or no row
            raise NotInGroup(f"rows of {rows.shape[-1]} digits, not the table's {len(self.radices)}")
        # read as unsigned, a negative digit fails the bound as well; a digit
        # out of range would give another element's code, or one outside the
        # index (where numpy wraps a negative code without an error)
        if (rows.view(np.uint64) >= self._digit_bounds).any():
            raise NotInGroup("element not in group table")
        ids = self._index.lookup(_row_keys(self._factors, rows) if self._factors else rows @ self._weights)
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
        if self.order > PRODUCT_TABLE_CAP:
            return self._apply("mul_vec", a, b)
        if ("P", 0) not in self._perm_cache:
            # the n^2 table pays once a call asks for n pairs or the n-th call comes: a few small
            # calls (the normal subgroups of the lemmas group) read far fewer of its entries
            self._kernel_calls += 1
            if self._kernel_calls < self.order and math.prod(np.broadcast_shapes(a.shape, b.shape)) < self.order:
                return self._apply("mul_vec", a, b)
        P = self._products()  # row b is x -> x b
        # an outer product copies b's rows and reads a's ids in them, unless b is the longer
        # side: then (a few ids times a subgroup) the copy would be most of the table
        if a.ndim == 2 and a.shape[1] == 1 and b.ndim == 1 and len(b) <= len(a):
            return np.asarray(P[b][:, a[:, 0]].T, dtype=np.int64)
        return np.asarray(P[b, a], dtype=np.int64)

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_vec(np.array([i]), np.array([j]))[0])

    def inv_vec(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if self.order <= PRODUCT_TABLE_CAP:
            return np.asarray(self._cached(("I", 0), lambda: self._apply("inv_vec", slice(None)))[ids])
        return self._apply("inv_vec", ids)

    def inv(self, i: int) -> int:
        return int(self.inv_vec(np.array([i]))[0])

    def comm_vec(self, a_ids, b_ids) -> np.ndarray:
        """Elementwise commutators [a, b] = a^-1 b^-1 a b."""
        return self.mul_vec(
            self.mul_vec(self.inv_vec(a_ids), self.inv_vec(b_ids)), self.mul_vec(a_ids, b_ids)
        )

    # ----- permutation actions -----
    def translation(self, gid: int, right: bool) -> np.ndarray:
        """Array mapping x to id(x g) if right, else to id(g x); built afresh on every call."""
        if self._factors:  # the ranks of each factor's own translation by g's factor id, at the factor ids
            ranks = [F._rank[F.translation(int(f[gid]), right)][f] for F, f in zip(self._factors, self._factor_ids)]
            return self._index.lookup(np.ravel_multi_index(ranks, [F.order for F in self._factors], order="F"))
        return self._apply("mul_vec", *((slice(None), gid) if right else (gid, slice(None))))

    def _apply(self, method: str, *ids) -> np.ndarray:
        """The ids of mul_vec or inv_vec at ids (id arrays that broadcast, or
        slice(None) for every element) without the product table: in a table
        with factors, the same method in each factor at the factor ids, mapped
        back by rank; else the row kernels on digit rows."""
        if self._factors:
            fids = [getattr(F, method)(*(f[x] for x in ids)) for F, f in zip(self._factors, self._factor_ids)]
            return np.asarray(self._index.lookup(_rank_keys(self._factors, fids)))
        rows = [self.digits[x] for x in ids]
        shape = np.broadcast_shapes(*(r.shape for r in rows))
        kernel = self._mul_rows if method == "mul_vec" else self._inv_rows
        out = kernel(*(np.broadcast_to(r, shape).reshape(-1, shape[-1]) for r in rows))
        return self.id_of_rows(out).reshape(shape[:-1])

    def _cached(self, key: tuple[str, int], build: Callable[[], np.ndarray]) -> np.ndarray:
        if key not in self._perm_cache:
            self._perm_cache[key] = build()
        return self._perm_cache[key]

    def _products(self) -> np.ndarray:
        """The (order, order) int16 array whose row y is the right translation
        x -> x y, cached; rows are filled outward from the identity's, the row
        of g y, which is x -> x g y, as row y read at the ids of R_g."""

        def build() -> np.ndarray:
            table = np.empty((self.order, self.order), dtype=np.int16)
            table[0] = np.arange(self.order)
            done = self.mask(self.identity_id)
            frontier = np.array([self.identity_id])
            moves = [(self.left_perm(g), self.right_perm(g)) for g in self.generator_ids.tolist()]
            while len(frontier):
                found = []
                for left, right in moves:
                    kids = left[frontier]
                    new = ~done[kids]
                    kids = kids[new]  # distinct: left is one-to-one and the frontier distinct
                    table[kids] = table[frontier[new]].take(right, axis=1)
                    done[kids] = True
                    found.append(kids)
                frontier = np.concatenate(found)
            return table

        return self._cached(("P", 0), build)

    @functools.cached_property
    def _rank(self) -> np.ndarray:
        """Each id's position in key order, which is digit code order."""
        return np.argsort(np.argsort(self._index.keys()))  # the inverse of the ids in key order

    @functools.cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each id's conjugacy class, numbered by least element, the ids by class, and each class's
        start in them and size.  Each round lowers every label to its conjugates' labels under the
        generators, then to its label's label: labels only fall and stay in their class, so
        once a round changes nothing, each is its class's least element."""
        conj_perms = [self.conj_perm(s) for s in self.generator_ids.tolist()]
        label, prev = np.arange(self.order, dtype=np.int64), None
        while not np.array_equal(label, prev):
            prev = label
            for cp in conj_perms:
                label = np.minimum(label, label[cp])
            label = label[label]
        label = (np.cumsum(label == np.arange(self.order)) - 1)[label]
        sizes = np.bincount(label)
        return label, np.argsort(label, kind="stable"), np.cumsum(sizes) - sizes, sizes

    def left_perm(self, gid: int) -> np.ndarray:
        """Array mapping x to id(g x), cached."""
        return self._cached(("L", int(gid)), lambda: self.translation(gid, right=False))

    def right_perm(self, gid: int) -> np.ndarray:
        """Array mapping x to id(x g), cached."""
        return self._cached(("R", int(gid)), lambda: self.translation(gid, right=True))

    def conj_perm(self, gid: int) -> np.ndarray:
        """Array mapping x to id(g x g^-1): x = y g goes to g y, so one scatter with no inverse."""

        def build() -> np.ndarray:
            out = np.empty(self.order, dtype=np.int64)
            out[self.right_perm(gid)] = self.left_perm(gid)
            return out

        return self._cached(("C", int(gid)), build)

    def __repr__(self) -> str:
        return f"GroupTable({self.kind}, order={self.order})"


def _rank_keys(factors: list[GroupTable], ids: list[np.ndarray]) -> np.ndarray:
    """Index keys of a table with factors from its elements' factor ids: their
    ranks in their factors' key order, in mixed radix over the factor orders."""
    return np.ravel_multi_index([F._rank[i] for F, i in zip(factors, ids)], [F.order for F in factors], order="F")


def _row_keys(factors: list[GroupTable], rows: np.ndarray) -> np.ndarray:
    """Index keys of digit rows of a table with factors: the rank keys of the factors'
    ids of their digit blocks, which raise NotInGroup for a block off its factor."""
    blocks = np.split(rows, np.cumsum([len(F.radices) for F in factors])[:-1], axis=1)
    return _rank_keys(factors, [F.id_of_rows(b) for F, b in zip(factors, blocks)])


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


def _matrix_mul_factory(p: int, d: int):
    """The row kernels of d x d matrices mod the prime p."""

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _block_mul(a.reshape(-1, d, d), b.reshape(-1, d, d), p).reshape(-1, d * d)

    def inv(a: np.ndarray) -> np.ndarray:
        return _inv_block(a.reshape(-1, d, d), p).reshape(-1, d * d)

    return mul, inv


def _block_mul(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Stacked products (x @ y) mod p of (n, d, d) blocks by (n, d, d) blocks
    or (n, d, 1) columns; integer-exact while d p^2 stays below 2^63."""
    return (x @ y) % p


def _inv_block(x: np.ndarray, p: int) -> np.ndarray:
    """Stacked inverses mod p of (n, d, d) blocks: the adjugate over the determinant at d = 2,
    else one reduction of the stack [x | I]; raises SingularMatrix."""
    d = x.shape[1]
    if d == 2:
        det = (x[:, 0, 0] * x[:, 1, 1] - x[:, 0, 1] * x[:, 1, 0]) % p
        if not det.all():
            raise SingularMatrix(f"matrix singular mod {p}")
        di = _inverses_mod(det, p)
        out = np.empty_like(x)
        out[:, 0, 0] = x[:, 1, 1] * di % p
        out[:, 0, 1] = (p - x[:, 0, 1]) * di % p
        out[:, 1, 0] = (p - x[:, 1, 0]) * di % p
        out[:, 1, 1] = x[:, 0, 0] * di % p
        return out
    eye = np.broadcast_to(np.eye(d, dtype=x.dtype), x.shape)
    rows, pivots = row_reduce_mod_p(np.concatenate([x, eye], axis=2), p)
    if pivots != list(range(d)):
        raise SingularMatrix(f"matrix singular mod {p}")
    return rows[:, :, d:]


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


def _bfs(start: np.ndarray, index: _IdIndex, k: int, step, image_codes, cap: int):
    """Orbit of the start rows (codes in index) under k generators, ids in level
    then code order: image_codes(x) gives the (k, len(x)) codes of the products
    of rows x by each generator, step(j, x) the products by generator j[i] of
    x[i].  Returns the rows by id, the level ends and, per generator, g x ids."""
    levels, frontier, moves = [start], start, [[] for _ in range(k)]
    while len(frontier):
        n = len(frontier)
        if (added := index.add(image_codes(frontier).ravel(), cap * len(start))) is None:
            raise SizeCapExceeded(f"group closure exceeded cap of {cap} elements")
        ids, first = added
        for moves_j, ids_j in zip(moves, ids.reshape(k, n)):
            moves_j.append(ids_j.astype(np.int32))  # a copy, so that each list frees its own
        levels.append(frontier := step(first // n, frontier[first % n]))
    return np.concatenate(levels), np.cumsum([len(lv) for lv in levels[:-1]]), moves


def _element_cap() -> int:
    """DEFAULT_ELEMENT_CAP, or EXPANDERLAB_CAP_ELEMS when that is set."""
    return int(os.environ.get("EXPANDERLAB_CAP_ELEMS") or DEFAULT_ELEMENT_CAP)


def _vector_orbit(mats: np.ndarray, start: np.ndarray, q: int, cap: int):
    """Orbit mod q of the start vectors (distinct, in code order) under the
    (k, d, d) matrices, at most cap vectors per start vector, in level then
    code order, and per matrix the ids of its images of each level."""
    weights = _radix_weights(np.full(start.shape[1], q))
    space = int(weights[-1]) * q  # a dense index only as large as the orbit may be
    index = _IdIndex(space, start @ weights, space <= min(ID_INDEX_CAP, cap * len(start)))
    orbit, _, moves = _bfs(start, index, len(mats),
                           lambda j, v: _block_mul(mats[j], v[:, :, None], q)[:, :, 0],
                           lambda v: np.stack([weights @ _block_mul(m, v.T, q) for m in mats]), cap)
    return orbit, moves


def _column_bfs(gen_rows: np.ndarray, meta: dict, weights: np.ndarray, cap: int, dtype: np.dtype):
    """Start, step and image codes (of the dtype) of a mod-p matrix table's BFS on ids
    in the orbit O of the identity's columns, closed first as vectors mod p under
    the generators and their 2^i-th powers (2^i < p: 7 levels, not 5,004, for a
    unipotent mod 10,007): g x is L_g[x], with the code sum_c E_c[L_g[x_c]]."""
    p, d, k = meta["q"], meta["dim"], len(gen_rows)
    mats = gen_rows.reshape(k, d, d)
    for _ in range(p.bit_length() - 1):
        mats = np.concatenate([mats, _block_mul(mats[-k:], mats[-k:], p)])
    cols, moves = _vector_orbit(mats, np.eye(d, dtype=np.int64), p, cap)
    L = np.array([np.concatenate(m) for m in moves[:k]])
    E_L = (cols @ weights.reshape(d, d))[L].transpose(2, 0, 1).astype(dtype)
    return (np.arange(d, dtype=np.int32)[None], lambda j, x: L[j, x.T].T,
            lambda x: functools.reduce(np.add, (np.take(E_L[c], x[:, c], axis=1, mode="clip") for c in range(d))))


def _bfs_table(start_row, gen_rows, radices, mul_rows, inv_rows, kind: str, meta: dict) -> GroupTable:
    """A table without factors, the orbit of the start row under the generator rows: a matrix
    table (over one prime) runs on column ids, any other on digit rows by its row kernels."""
    cap = _element_cap()
    weights = _radix_weights(radices)
    space = int(weights[-1]) * int(radices[-1])
    index = _IdIndex(space, start_row[None] @ weights, space <= ID_INDEX_CAP)
    if kind == "matrix":  # its image codes take the index's dtype
        start, step, image_codes = _column_bfs(gen_rows, meta, weights, cap, index.dtype)
    else:
        start = start_row[None]
        step = lambda j, x: mul_rows(np.broadcast_to(gen_rows[j], x.shape), x)
        image_codes = lambda x: np.stack([step(j, x) @ weights for j in range(len(gen_rows))])
    _, level_ends, moves = _bfs(start, index, len(gen_rows), step, image_codes, cap)
    # the keys are the digit codes
    table = GroupTable(lambda: index.keys()[:, None] // weights % radices, radices, mul_rows, inv_rows,
                       index.lookup(gen_rows @ weights), kind, meta, index, level_ends)
    return _record_moves(table, moves)


def _factor_table(gen_fids: np.ndarray, factors: list[GroupTable], kind: str, meta: dict) -> GroupTable:
    """The subgroup of the product of the factors generated by the rows of factor ids gen_fids,
    by a BFS on rows of factor ids from the identity's (id 0 in each factor): g x has the ids
    L_gi[x_i], L_gi the left translation by g's id in factor i, and the key sum_i w_i R_i[L_gi[x_i]],
    R_i the ranks of factor i's ids.  Its digit rows are its factors' side by side.  The identity's
    translation is taken as the identity, which spares a factor a product and its digit rows."""
    L = [np.array([F.left_perm(g) if g else np.arange(F.order) for g in f], dtype=np.int32)
         for F, f in zip(factors, gen_fids.T.tolist())]
    K = [w * F._rank[L_i] for F, L_i, w in zip(factors, L, _radix_weights([F.order for F in factors]))]
    start = np.zeros((1, len(factors)), dtype=np.int32)
    space = math.prod(F.order for F in factors)
    index = _IdIndex(space, _rank_keys(factors, start.T), space <= ID_INDEX_CAP)
    rows, level_ends, moves = _bfs(
        start, index, len(gen_fids), lambda j, x: np.stack([L_i[j, x[:, i]] for i, L_i in enumerate(L)], axis=1),
        lambda x: functools.reduce(np.add, (K_i[:, x[:, i]] for i, K_i in enumerate(K))), _element_cap())
    fids = np.ascontiguousarray(rows.T)
    table = GroupTable(lambda: np.concatenate([F.digits[f] for F, f in zip(factors, fids)], axis=1),
                       np.concatenate([F.radices for F in factors]), None, None,
                       index.lookup(_rank_keys(factors, gen_fids.T)), kind, meta, index, level_ends)
    table._factors, table._factor_ids = factors, fids
    return _record_moves(table, moves)


def _record_moves(table: GroupTable, moves: list[list[np.ndarray]]) -> GroupTable:
    """The table, with each generator's left translation, the g x ids of its BFS, recorded."""
    for j, gid in enumerate(table.generator_ids.tolist()):
        table._perm_cache["L", gid] = np.concatenate(moves[j], dtype=np.int64)
        moves[j] = []
    return table


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct ids, flattened and ascending, by one sort (numpy 2.4's unique is 10-50x
    slower on ids): the one dedup of ids and codes."""
    ids = np.sort(ids, axis=None)
    return ids[np.diff(ids, prepend=ids[:1] - 1) != 0]


def _symmetrize_rows(rows: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """The rows, then their inverses, each distinct row once, in first-appearance order: the
    generators' order fixes the order in which a walk sums its gathers, so a report's bytes."""
    both = np.concatenate([rows, inverse], axis=0)
    return both[np.sort(np.unique(both, axis=0, return_index=True)[1])]


def _prime_table(rows: np.ndarray, p: int, d: int, symmetrize: bool) -> GroupTable:
    """The table mod the prime p generated by the digit rows of d x d matrices mod p."""
    mul_rows, inv_rows = _matrix_mul_factory(p, d)
    inverse = inv_rows(rows)  # raises SingularMatrix on a generator singular mod p
    if symmetrize:
        rows = _symmetrize_rows(rows, inverse)
    ident = np.eye(d, dtype=np.int64).ravel()
    meta = {"q": p, "primes": [p], "dim": d}
    return _bfs_table(ident, rows, np.full(d * d, p, dtype=np.int64), mul_rows, inv_rows, "matrix", meta)


def generate_group(gens: Sequence[RationalMatrix], q: int, *, symmetrize: bool = True) -> GroupTable:
    """BFS closure of the RationalMatrix generators, reduced mod every prime of q, inside the
    mod-q matrix group.  The element ordering is BFS layer first, then the mixed-radix encoding
    of the digit row, so identical input always produces an identical table.  Mod a composite q
    the table has factors: the tables mod each prime, each generated by the symmetrized reductions.
    """
    primes = square_free_factors(q)
    low = [p for p in primes if p < MIN_PRIME]
    if low:
        raise BadPrime(f"prime factors {low} below the working threshold {MIN_PRIME}")
    rows = _matrix_rows(gens, q)
    d = gens[0].dim
    if len(primes) == 1:
        return _prime_table(rows, q, d, symmetrize)
    blocks = np.split(rows, len(primes), axis=1)
    factors = [_prime_table(b, p, d, True) for b, p in zip(blocks, primes)]
    fids = np.stack([F.id_of_rows(b) for F, b in zip(factors, blocks)], axis=1)
    if symmetrize:  # rows of factor ids and digit rows are in bijection, so this keeps the generator order
        inverse = np.stack([F.id_of_rows(F._inv_rows(b)) for F, b in zip(factors, blocks)], axis=1)
        fids = _symmetrize_rows(fids, inverse)
    return _factor_table(fids, factors, "matrix", {"q": q, "primes": primes, "dim": d})


def _matrix_rows(mats: Sequence[RationalMatrix], q: int) -> np.ndarray:
    """The digit rows of the matrices mod q: the entries of their reductions mod each prime
    of q (crt_tuple), row by row, side by side."""
    reductions = [crt_tuple(m, q) for m in mats]
    _dimension(mats)  # after the reductions, which refuse anything but a RationalMatrix with TypeError
    return np.array([[x for m in tup for row in m for x in row] for tup in reductions], dtype=np.int64)


def ids_of_matrices(G: GroupTable, mats: Sequence[RationalMatrix]) -> np.ndarray:
    """Ids in the matrix table G of the reductions of rational matrices mod its q; raises
    NotInGroup for a matrix whose image is not in G, TableMismatch for a G of another kind."""
    if G.kind != "matrix":
        raise TableMismatch("ids of matrices need a matrix table")
    return G.id_of_rows(_matrix_rows(mats, G.meta["q"]))


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
    l_gens: list[RationalMatrix]
    u_kind: str = "vector"  # "vector" | "heisenberg"
    u_dim: int = 2
    action: str = "natural"  # "natural" | "trivial"

    def __post_init__(self):
        if prime_factors(self.p) != [self.p]:  # the Levi inverses need the field F_p
            raise BadPrime(f"a semidirect group over F_p needs a prime p, got {self.p}")
        if self.u_kind not in ("vector", "heisenberg"):
            raise ValueError("u_kind must be vector or heisenberg")
        if self.action not in ("natural", "trivial"):
            raise ValueError("action must be natural or trivial")
        rows = _matrix_rows(self.l_gens, self.p)
        d = self.l_gens[0].dim
        acted = 2 if self.u_kind == "heisenberg" else self.u_dim
        if self.action == "natural" and acted != d:
            raise HypothesisViolated(f"the natural action of {d}x{d} Levi generators on {acted} coordinates")
        if self.u_kind == "heisenberg" and self.action == "natural":
            # the twist must preserve the symplectic form
            for a, b, c, d in rows.tolist():
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
    gen_rows = [row + [0] * u_len for row in _matrix_rows(spec.l_gens, p).tolist()]
    for i in range(2 if heis else u_len):
        u = [0] * u_len
        u[i] = 1
        gen_rows.append(ident_l + u)
    rows = np.array(gen_rows, dtype=np.int64)
    rows = _symmetrize_rows(rows, inv(rows))
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
    """Explicit direct product table (for modest factor sizes), generated by the (g, e) and then
    the (e, h), g and h the generators of t1 and t2."""
    gen_fids = [(g, 0) for g in t1.generator_ids.tolist()] + [(0, h) for h in t2.generator_ids.tolist()]
    return _factor_table(np.array(gen_fids, dtype=np.int64), [t1, t2], "product", {})


# ---------------------------------------------------------------------------
# subgroups


@dataclass
class SubgroupRecord:
    """A subgroup of a table as its sorted element ids and the ids that generate it: as a
    subgroup from subgroup_closure, as a normal subgroup from normal_subgroups.  Membership,
    index, normality and perfection are worked out from these on first read."""

    parent: GroupTable
    generator_ids: np.ndarray
    element_ids: np.ndarray

    @property
    def size(self) -> int:
        return len(self.element_ids)

    @property
    def index(self) -> int:
        return self.parent.order // self.size

    @functools.cached_property
    def member(self) -> np.ndarray:
        return self.parent.mask(self.element_ids)

    @functools.cached_property
    def normal(self) -> bool:
        """Whether s x s^-1 lies in H for every generator s of G and x of H: then s H s^-1, generated
        by those, is H, and products of the s reach all of G.  (A normal record holds them anyway.)"""
        G, S = self.parent, self.parent.generator_ids
        conjugates = G.mul_vec(G.mul_vec(S[:, None], self.generator_ids), G.inv_vec(S)[:, None])
        return bool(self.member[conjugates].all())

    @functools.cached_property
    def perfect(self) -> bool:
        """Whether H = [H, H].  The [s, h], s a generator of H and h in H, generate [H, H]: as
        [s, h h'] = [s, h'] [s, h]^h', they generate a normal N of H, and H / N is abelian, generated
        by the central s N.  A normal record's generators generate H only as a normal subgroup; there
        [H, H], normal in G, is the normal closure of the [s, h], as modulo it the s and their
        conjugates, which generate H, are central."""
        G, S = self.parent, self.generator_ids
        commutators = G.comm_vec(S[:, None], self.element_ids)
        closure = normal_closure(G, commutators) if self.normal else _closure_ids(G, commutators)
        return len(closure) == self.size

    def __contains__(self, i: int) -> bool:
        return bool(self.member[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubgroupRecord):
            return NotImplemented
        return self.parent is other.parent and np.array_equal(self.element_ids, other.element_ids)


def _closure_ids(G: GroupTable, gen_ids) -> np.ndarray:
    """Element ids of the subgroup generated by gen_ids, by one BFS from the identity: each step
    multiplies on the right by the symmetrized generators.  The walk stops past half the group,
    which is then the whole group."""
    gens = _distinct(np.asarray(gen_ids, dtype=np.int64))
    gens = _distinct(np.concatenate([gens, G.inv_vec(gens)]))
    member = G.mask(G.identity_id)
    frontier = np.array([G.identity_id], dtype=np.int64)
    while frontier.size:
        fresh = G.mask(G.mul_vec(frontier[:, None], gens)) & ~member
        member |= fresh
        frontier = np.flatnonzero(fresh)
        if 2 * member.sum() > G.order:
            return np.arange(G.order, dtype=np.int64)
    return np.flatnonzero(member).astype(np.int64)


def _ids_in(G: GroupTable, ids) -> np.ndarray:
    """The ids as an int64 array; NotInGroup for ids not of integer kind, which a cast would truncate
    (a float) or read as 0 and 1 (a bool), and for one outside 0..order-1, which an index would wrap."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise NotInGroup(f"element ids must be integers, got {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    if ((ids < 0) | (ids >= G.order)).any():
        raise NotInGroup(f"element ids must lie in 0..{G.order - 1}")
    return ids


def _subgroup_of(G: GroupTable, H: SubgroupRecord) -> None:
    """TableMismatch unless H is a subgroup of G itself: its ids index no other table."""
    if H.parent is not G:
        raise TableMismatch("subgroup belongs to a different table")


def subgroup_closure(G: GroupTable, gen_ids: Sequence[int]) -> SubgroupRecord:
    gen_ids = _distinct(_ids_in(G, gen_ids))
    return SubgroupRecord(G, gen_ids, _closure_ids(G, gen_ids))


def coset_labels(G: GroupTable, h_ids: np.ndarray) -> np.ndarray:
    """labels[g] = index of the left coset gH, for the subgroup H with element ids h_ids; cosets
    are numbered by their least id, so the identity coset is 0.  As s(gH) = (sg)H, a BFS from H
    along the generators' recorded left translations reaches every coset, one row of ids each; a
    generator takes distinct cosets to distinct cosets, so a row is new when its first id is."""
    least = np.full(G.order, -1, dtype=np.int64)
    frontier = np.asarray(h_ids, dtype=np.int64)[None]
    least[frontier] = frontier.min()
    while frontier.size:
        level = []
        for s in G.generator_ids.tolist():
            rows = G.left_perm(s)[frontier]
            rows = rows[least[rows[:, 0]] < 0]
            least[rows] = rows.min(axis=1, keepdims=True)
            level.append(rows)
        frontier = np.concatenate(level)
    return (np.cumsum(least == np.arange(G.order)) - 1)[least]


def _centre(G: GroupTable) -> np.ndarray:
    """Mask of the central elements: the x with s x = x s for every generator s."""
    return np.logical_and.reduce([G.left_perm(s) == G.right_perm(s) for s in G.generator_ids.tolist()])


def _class_closure(G: GroupTable, seed_ids) -> np.ndarray:
    """Mask over the conjugacy classes of G of the normal closure of the seeds: the union of the
    products C_1 ... C_n of their classes.  K C is the union of the classes of K c0 for one c0 in C,
    as k (g c0 g^-1) = g ((g^-1 k g) c0) g^-1, so also of C k0, as k c is conjugate to c k.  A BFS
    level is one mul_vec: the members of the smaller class of each (new class, seed class) pair times
    the larger one's least element; it stops past half the group, which is then the whole group."""
    label, by_class, starts, sizes = G._classes
    frontier = seeds = _distinct(label[np.asarray(seed_ids, dtype=np.int64)])
    inside = np.bincount(np.append(0, seeds), minlength=len(sizes)) > 0  # 0 is the identity's class
    while frontier.size and 2 * sizes[inside].sum() <= G.order:
        K, C = np.repeat(frontier, len(seeds)), np.tile(seeds, len(frontier))
        small, large = np.where(sizes[K] <= sizes[C], [K, C], [C, K])
        n = sizes[small]
        at = np.arange(n.sum()) + np.repeat(starts[small] - np.cumsum(n) + n, n)  # the members of each small
        products = G.mul_vec(by_class[at], np.repeat(by_class[starts[large]], n))
        reached = np.bincount(label[products], minlength=len(sizes)) > 0
        frontier = np.flatnonzero(reached > inside)
        inside |= reached
    return inside | (2 * sizes[inside].sum() > G.order)


def normal_closure(G: GroupTable, seed_ids: Sequence[int]) -> np.ndarray:
    """Element ids of the smallest normal subgroup containing the seeds."""
    return np.flatnonzero(_class_closure(G, _ids_in(G, seed_ids))[G._classes[0]])


def is_perfect(G: GroupTable) -> bool:
    """Whether G equals its commutator subgroup, the normal closure of its generators' commutators."""
    S = G.generator_ids
    return len(normal_closure(G, G.comm_vec(S[:, None], S))) == G.order


def conjugacy_classes(G: GroupTable) -> list[np.ndarray]:
    """Conjugation orbits, ordered by least element, each sorted."""
    _, by_class, starts, _ = G._classes
    return np.split(by_class.copy(), starts[1:])  # a copy, as the table keeps by_class


def normal_subgroups(G: GroupTable) -> list[SubgroupRecord]:
    """All normal subgroups, as joins of normal closures of conjugacy classes, kept as masks over
    the classes.  Each sweep joins the pairs whose later side is new since the last one.  A pair
    runs no closure when a found subgroup holds both sides and has their join's order
    |N_i||N_j| / |N_i & N_j|: that subgroup is the join.  A record's generator_ids are the seeds
    of its closure, which generate it as a normal subgroup."""
    if G.order > NORMAL_SUBGROUP_CAP:
        raise SizeCapExceeded(f"normal subgroup enumeration capped at {NORMAL_SUBGROUP_CAP}")
    label, by_class, starts, sizes = G._classes
    found: dict[bytes, tuple[list[int], np.ndarray, int]] = {}
    by_order: dict[int, list[np.ndarray]] = {}  # the found class masks of each order

    def register(seeds: list[int]) -> None:
        inside = _class_closure(G, seeds)
        n = int(sizes[inside].sum())
        if found.setdefault(inside.tobytes(), (seeds, inside, n))[1] is inside:  # a new subgroup
            by_order.setdefault(n, []).append(inside)

    register([])
    for least in by_class[starts].tolist():
        register([least])
    done = 0
    while done < len(found):
        items = list(found.values())
        for i, (si, mi, ni) in enumerate(items):
            for sj, mj, nj in items[max(i + 1, done):]:
                seeds = sorted(set(si + sj))
                order = ni * nj // int(sizes[mi & mj].sum())
                if not any(m[label[seeds]].all() for m in by_order.get(order, [])):
                    register(seeds)
        done = len(items)
    records = [SubgroupRecord(G, np.array(seeds, dtype=np.int64), np.flatnonzero(inside[label]))
               for seeds, inside, _ in found.values()]
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
    _subgroup_of(G, H)
    # a matrix factor's primes, a Heisenberg or semidirect factor's p
    primes = [p for F in G._factors for p in F.meta.get("primes", [F.meta.get("p")]) if p is not None]
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


def lower_central_series(U: GroupTable) -> list[np.ndarray]:
    """Chain gamma_1 = U, gamma_{i+1} = <[U, gamma_i]>, down to the identity.

    gamma_{i+1} is the normal closure of the [s, x], s a generator and x in
    gamma_i, as [st, x] = [s, x]^t [t, x]; exact, for small p-groups, which are
    nilpotent: gamma_{i+1} < gamma_i until gamma_i is trivial.
    """
    fac = prime_factors(U.order)
    if len(fac) != 1:
        raise NotPGroup(f"order {U.order} is not a prime power")
    if U.order > CENTRAL_SERIES_CAP:
        raise SizeCapExceeded(f"lower central series capped at {CENTRAL_SERIES_CAP} elements")
    chain = [np.arange(U.order, dtype=np.int64)]
    S = U.generator_ids
    while len(chain[-1]) > 1:
        chain.append(normal_closure(U, U.comm_vec(S[:, None], chain[-1])))
    return chain


# ----- semidirect structure helpers -----


def levi_mask(G: GroupTable) -> np.ndarray:
    """Mask of elements with trivial unipotent part."""
    return _levi(G)[1] == 0


def _levi(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """The Levi projection beta: L x U -> L of a semidirect table as each element's Levi digit code, and
    its U digit code (a row holds its Levi part in its first l_digits digits, so its code is
    beta + p^l_digits U).  TableMismatch for any other table."""
    if G.kind != "semidirect":
        raise TableMismatch("levi/unipotent split needs a semidirect table")
    u_code, beta = np.divmod(G.digits @ G._weights, G._weights[G.meta["l_digits"]])
    return beta, u_code


def unipotent_mask(G: GroupTable) -> np.ndarray:
    """Mask of elements with identity Levi part: the kernel of beta."""
    beta = _levi(G)[0]
    return beta == beta[G.identity_id]


def verify_product_form(G: GroupTable, H: SubgroupRecord) -> dict:
    """Check H = (H cap L)(H cap U) with H cap L acting trivially on U/(H cap U).  As L cap U = {e},
    (l, u) -> l u is one-to-one, so H, which holds every such product, splits when |H cap L||H cap U| = |H|.
    The action is trivial for every normal H, so acts_trivially is True and witness None: for h in H
    and u in U, [h, u] = h^-1 (u^-1 h u) lies in H and (h^-1 u^-1 h) u in U, so in H cap U."""
    _subgroup_of(G, H)
    if not H.normal:
        raise NotNormal("product form is asserted for normal subgroups")
    hl = H.element_ids[levi_mask(G)[H.element_ids]]
    hu = H.element_ids[unipotent_mask(G)[H.element_ids]]
    splits = len(hl) * len(hu) == H.size
    return {
        "splits": splits,
        "acts_trivially": True,
        "passed": splits,
        "witness": None,
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
    return subgroup_closure(G, ids)


def borel_subgroup(G: GroupTable) -> SubgroupRecord:
    """Upper triangular subgroup of a 2x2 mod-p table, order p(p-1)."""
    p = _single_prime_dim2(G)
    g0 = _primitive_root(p)
    return _named_subgroup(G, "borel", [[g0, 0, 0, pow(g0, -1, p)], [1, 1, 0, 1]])


def torus_subgroup(G: GroupTable) -> SubgroupRecord:
    """Diagonal subgroup of a 2x2 mod-p table, order p-1."""
    p = _single_prime_dim2(G)
    g0 = _primitive_root(p)
    return _named_subgroup(G, "torus", [[g0, 0, 0, pow(g0, -1, p)]])


def verify_normal_perfect(G: GroupTable) -> dict:
    """For a perfect semidirect table, check that every normal subgroup H surjecting onto the Levi
    part L = G / Ker beta, so with |H| / |H cap Ker beta| = |G| / |Ker beta|, is the whole group."""
    if not is_perfect(G):
        return {"applicable": False, "passed": False, "reason": "group is not perfect"}
    kernel = unipotent_mask(G)
    k = int(kernel.sum())
    failures = [H.size for H in normal_subgroups(G)
                if H.size < G.order and H.size * k == G.order * int(kernel[H.element_ids].sum())]
    return {"applicable": True, "passed": not failures, "failures": failures}


def verify_factor_product_form(G: GroupTable, H: SubgroupRecord) -> dict:
    """Check that H equals (product of the embedded factors it contains)
    times a central subgroup.

    That is the only shape a normal subgroup of a product of quasi-simple
    factors can take; the factor index set may be empty.  The copies commute and
    meet in e: their product, the core, is the x with factor ids in the copies inside
    H and e elsewhere, and H holds core Z_H, of order |core||Z_H| / |core & Z_H|.
    """
    _subgroup_of(G, H)
    if G.kind != "matrix" or len(G.meta["primes"]) < 2:
        raise NotComposite("product form over factors needs a composite matrix table")
    inside, core = [], np.ones(G.order, dtype=bool)
    for i, (F, f) in enumerate(zip(G._factors, G._factor_ids)):
        # embedded copy of factor i: identity in every other factor
        copy = (np.delete(G._factor_ids, i, axis=0) == 0).all(axis=0)
        if H.member[copy].all():
            inside.append(i)
            core &= F.mask(f[copy])[f]
        else:
            core &= f == 0
    z = _centre(G) & H.member
    rebuilt = int(core.sum()) * int(z.sum()) // int((core & z).sum())
    return {
        "passed": rebuilt == H.size,
        "factors_inside": inside,
        "central_size": int(z.sum()),
        "rebuilt_size": rebuilt,
    }
