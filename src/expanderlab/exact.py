"""Exact rational and modular matrix arithmetic.

Everything in this module is exact: scalars are `fractions.Fraction`,
modular entries are Python ints.  Row reduction mod p works on int64
arrays below p = 2^31 and on Python ints above, and loads numpy on its
first call; a residue it cannot invert raises BadPrime.  Floating
point is confined to the spectral module.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import BadPrime, NotSquareFree, SingularMatrix, SizeCapExceeded

MAX_DIM = 8
# largest trial divisor: a prime p above it gives a d >= 2 table mod p a code
# space of p^4 or more, above 2^62, so no table needs a larger one
FACTOR_CAP = 46_341


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| by trial division up to FACTOR_CAP.  What is
    left then, if it is at least the square of the next divisor, may not be prime
    and raises SizeCapExceeded."""
    n = abs(n)
    whole = n
    out = []
    d = 2
    while d * d <= n:
        if d > FACTOR_CAP:
            raise SizeCapExceeded(f"trial division of {whole} stops at {FACTOR_CAP}, leaving {n} unfactored")
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
    are hashable and safe to share.  The inverse is kept once computed.
    """

    __slots__ = ("dim", "rows", "_inverse")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        d = len(rows)
        if not 2 <= d <= MAX_DIM or any(len(r) != d for r in rows):
            raise ValueError(f"need a square matrix with 2 <= dim <= {MAX_DIM}")
        self.dim = d
        self.rows = rows
        self._inverse = None

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
        if self._inverse is not None:
            return self._inverse
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
        self._inverse = RationalMatrix([row[d:] for row in m])
        return self._inverse


def _dimension(mats) -> int:
    """The common dim of a nonempty list of matrices."""
    if not mats:
        raise ValueError("need at least one generator")
    if len(dims := sorted({m.dim for m in mats})) > 1:
        raise ValueError(f"generators of mixed dimension {dims}")
    return dims[0]


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


def reduce_mod_p(M: RationalMatrix, p: int) -> tuple[tuple[int, ...], ...]:
    """Entrywise reduction a/b -> a * b^(-1) mod p, as row tuples of ints in [0, p).

    This is a ring homomorphism on matrices whose denominators avoid p,
    so reduce(MN) = reduce(M) reduce(N).
    """
    if not isinstance(M, RationalMatrix):  # residues already reduced would be read as integers
        raise TypeError(f"reduction mod p needs a RationalMatrix, got {type(M).__name__}")
    if prime_factors(p) != [p]:  # a/b mod p needs the field F_p
        raise BadPrime(f"reduction mod p needs a prime p, got {p}")
    rows = []
    for row in M.rows:
        out = []
        for x in row:
            if x.denominator % p == 0:
                raise BadPrime(f"{p} divides a denominator of {x}")
            out.append(x.numerator * pow(x.denominator, -1, p) % p)
        rows.append(tuple(out))
    return tuple(rows)


def crt_tuple(M: RationalMatrix, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """Per-prime reductions of M for the square-free modulus q, ordered by prime."""
    return [reduce_mod_p(M, p) for p in square_free_factors(q)]
