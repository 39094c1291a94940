"""Exact rational and modular matrix arithmetic.

Everything in this module is exact: scalars are `fractions.Fraction`,
modular entries are Python ints.  Row reduction mod p works on int64
arrays below p = 2^31 and on Python ints above, and loads numpy on its
first call; a modulus below 2, or a residue it cannot invert, raises
BadPrime.  Floating point is confined to the spectral module.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import BadPrime, NotSquareFree, SingularMatrix

MAX_DIM = 8


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| by trial division (inputs here are small)."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def square_free_factors(q: int) -> list[int]:
    """Prime factors of q, raising NotSquareFree on a repeated factor."""
    if q < 2:
        raise NotSquareFree(f"modulus must be >= 2, got {q}")
    factors = prime_factors(q)
    prod = 1
    for p in factors:
        prod *= p
    if prod != q:
        raise NotSquareFree(f"{q} has a repeated prime factor")
    return factors


class RationalMatrix:
    """Square matrix over Q with exact entries.

    Entries are stored as a tuple of row tuples of Fractions, so instances
    are hashable and safe to share.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        d = len(rows)
        if not 2 <= d <= MAX_DIM or any(len(r) != d for r in rows):
            raise ValueError(f"need a square matrix with 2 <= dim <= {MAX_DIM}")
        self.dim = d
        self.rows = rows

    @classmethod
    def identity(cls, d: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim
        b = other.rows
        return RationalMatrix(
            [
                [sum(self.rows[i][k] * b[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)
            ]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix({body})"

    def inverse(self) -> "RationalMatrix":
        d = self.dim
        m = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(self.rows)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if m[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrix("matrix not invertible over Q")
            m[col], m[pivot] = m[pivot], m[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(d):
                if r != col and m[r][col]:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return RationalMatrix([row[d:] for row in m])

    def denominator_support(self) -> set[int]:
        """Primes dividing any entry denominator."""
        support: set[int] = set()
        for row in self.rows:
            for x in row:
                if x.denominator > 1:
                    support.update(prime_factors(x.denominator))
        return support


class PrimeSet:
    """A sorted set of distinct primes, the declared denominator support."""

    __slots__ = ("primes",)

    def __init__(self, primes: Iterable[int] = ()):
        ps = sorted(set(int(p) for p in primes))
        for p in ps:
            if p < 2 or prime_factors(p) != [p]:
                raise ValueError(f"{p} is not prime")
        self.primes = tuple(ps)

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __repr__(self) -> str:
        return f"PrimeSet({list(self.primes)})"


class ModMatrix:
    """Square matrix over Z/pZ, entries reduced to [0, p)."""

    __slots__ = ("p", "rows")

    def __init__(self, rows: Iterable[Iterable[int]], p: int):
        if p < 2:
            raise BadPrime(f"a modulus must be at least 2, got {p}")
        self.p = p
        self.rows = tuple(tuple(int(x) % p for x in row) for row in rows)
        d = len(self.rows)
        if any(len(r) != d for r in self.rows):
            raise ValueError("rows must form a square matrix")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int, p: int) -> "ModMatrix":
        return cls([[int(i == j) for j in range(d)] for i in range(d)], p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModMatrix) and self.p == other.p and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.p, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ModMatrix({body} mod {self.p})"


def mod_mul(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    if a.p != b.p:
        raise ValueError("modulus mismatch")
    d = a.dim
    p = a.p
    return ModMatrix(
        [
            [sum(a.rows[i][k] * b.rows[k][j] for k in range(d)) % p for j in range(d)]
            for i in range(d)
        ],
        p,
    )


def _inverses_mod(values, p: int):
    """x^-1 mod the prime p for each entry of the int array values, none
    0 mod p: one `pow` per distinct value.  A residue without an inverse
    shares a factor with p, which raises BadPrime."""
    import numpy as np

    distinct, at = np.unique(values, return_inverse=True)
    try:
        inverses = [pow(int(x), -1, p) for x in distinct]
    except ValueError:
        raise BadPrime(f"a residue has no inverse mod {p}, so {p} is not prime") from None
    return np.array(inverses, dtype=values.dtype)[at.reshape(values.shape)]


def row_reduce_mod_p(rows, p: int) -> tuple:
    """Reduced row echelon form over F_p, p prime, of one (r, c) matrix or a stack (n, r, c).

    Returns the nonzero reduced rows, (rank, c) or (n, rank, c), each with a 1 at its pivot
    column and 0 there in every other row, and the ascending pivot columns.  In a stack a
    column takes a pivot only where every matrix has a nonzero entry at or below the next
    pivot row, as every column of an invertible stack does.  Entries are int64 below
    p = 2^31, where a product of two stays below 2^62, and Python ints above.
    """
    import numpy as np

    m = np.array(rows, dtype=np.int64 if p < 1 << 31 else object) % p
    a = m if m.ndim == 3 else m[None]
    pivots: list[int] = []
    for c in range(a.shape[2]):
        k = len(pivots)
        if k == a.shape[1]:
            break
        nonzero = a[:, k:, c] != 0
        if not nonzero.any(axis=1).all():
            continue
        at = np.arange(len(a)), k + nonzero.argmax(axis=1)
        pivot = a[at]
        row = pivot * _inverses_mod(pivot[:, c], p)[:, None] % p
        a[at] = a[:, k]  # the swap; row k is overwritten below
        a = (a - a[:, :, c, None] * row[:, None, :]) % p
        a[:, k] = row
        pivots.append(c)
    return (a if m.ndim == 3 else a[0])[..., : len(pivots), :], pivots


def mod_inv(a: ModMatrix) -> ModMatrix:
    """Inverse mod p by row reduction of [a | I]; raises SingularMatrix."""
    d, p = a.dim, a.p
    rows, pivots = row_reduce_mod_p(
        [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(a.rows)], p
    )
    if pivots != list(range(d)):
        raise SingularMatrix(f"matrix singular mod {p}")
    return ModMatrix(rows[:, d:].tolist(), p)


def reduce_mod_p(M: RationalMatrix, p: int) -> ModMatrix:
    """Entrywise reduction a/b -> a * b^(-1) mod p.

    This is a ring homomorphism on matrices whose denominators avoid p,
    so reduce(MN) = reduce(M) reduce(N).
    """
    if prime_factors(p) != [p]:  # a/b mod p needs the field F_p
        raise BadPrime(f"reduction mod p needs a prime p, got {p}")
    rows = []
    for row in M.rows:
        out = []
        for x in row:
            if x.denominator % p == 0:
                raise BadPrime(f"{p} divides a denominator of {x}")
            out.append(x.numerator * pow(x.denominator, -1, p) % p)
        rows.append(out)
    return ModMatrix(rows, p)


def crt_tuple(M: RationalMatrix, q: int) -> list[ModMatrix]:
    """Per-prime reductions of M for the square-free modulus q, ordered by prime."""
    return [reduce_mod_p(M, p) for p in square_free_factors(q)]
