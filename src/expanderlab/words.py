"""Reduced-word combinatorics over a free alphabet.

Letters of the alphabet on M symbols are the nonzero integers
-M..-1, 1..M, with -i the formal inverse of i.  A word is a tuple of
letters with no adjacent cancelling pair.  B_l denotes the set of
reduced words of length exactly l.  Words are ordered letter by letter
under 1 < -1 < 2 < -2 < ...; inside _spheres and certify_free a letter
is its rank in that order (0, 1, 2, 3, ...), so r ^ 1 is the inverse of
r and rank tuples compare as the words do, and a letter's matrix is D A
in integers, with D the lcm of the entry denominators of every letter A.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, repeat
from typing import Iterator, Sequence

from .errors import SizeCapExceeded
from .exact import RationalMatrix, _dimension

FREE_LENGTH_CAP = 16  # longest relation certify_free searches for
FREE_BALL_CAP = 10**6  # most words certify_free hashes
_add = partial(map, operator.add)  # elementwise sum of two iterables

Word = tuple[int, ...]


def ball_size(M: int, l: int) -> int:
    """Number of reduced words of length exactly l: 2M(2M-1)^(l-1), and 1 at l=0."""
    if M < 1:
        raise ValueError("generator count must be at least 1")
    if l < 0:
        raise ValueError("length must be nonnegative")
    if l == 0:
        return 1
    return 2 * M * (2 * M - 1) ** (l - 1)


def reduced_words(M: int, l: int) -> Iterator[Word]:
    """An iterator over the words of B_l, in lexicographic order of the
    letter sequence under the ordering 1 < -1 < 2 < -2 < ... < M < -M."""
    if M < 2:
        raise ValueError("need at least two free generators")
    if l < 0:
        raise ValueError("length must be nonnegative")
    # a word is a head from a materialised sphere and a suffix of length
    # tail that does not start with the inverse of the head's last letter;
    # extending each word of a sphere by every letter but the inverse of
    # its last, in letter order, keeps the next sphere in lexicographic order
    letters = [a for i in range(1, M + 1) for a in (i, -i)]
    tail = min(l, 4)
    heads, suffixes = (
        reduce(lambda ws, _: [w + (a,) for w in ws for a in letters if w[-1:] != (-a,)], range(k), [()])
        for k in (l - tail, tail)
    )
    after = {a: [s for s in suffixes if s[:1] != (-a,)] for a in letters}
    return chain.from_iterable(map(h.__add__, after[h[-1]] if h else suffixes) for h in heads)


def _sphere_numerators(M: int, k: int) -> Iterator[list[int]]:
    """Integer numerators n[l] of the total mass on the distance-l sphere
    after j steps of the uniform walk, yielded for j = 0..k; the common
    denominator after j steps is (2M)^j.

    One step from distance 0 goes to distance 1 with probability 1; from
    distance l >= 1 it drops to l-1 with probability 1/(2M) and grows to
    l+1 with probability (2M-1)/(2M).  M below 1 and a negative k are refused.
    """
    if M < 1:
        raise ValueError("generator count must be at least 1")
    if k < 0:
        raise ValueError("step count must be nonnegative")
    D = 2 * M
    n = [0] * (k + 2)
    n[0] = 1
    yield n
    for _ in range(k):
        new = [0] * (k + 2)
        for l in range(k + 1):
            mass = n[l]
            if not mass:
                continue
            if l == 0:
                new[1] += D * mass
            else:
                new[l - 1] += mass
                new[l + 1] += (D - 1) * mass
        n = new
        yield n


def kesten_return(M: int, k: int) -> Fraction:
    """Exact return probability of the uniform walk on the free group F_M
    after k steps (zero for odd k)."""
    for n in _sphere_numerators(M, k):
        pass
    return Fraction(n[0], (2 * M) ** k)


def kesten_series(M: int, n: int) -> list[Fraction]:
    """The even-step return probabilities [P_2, P_4, ..., P_2n] of the
    uniform walk on F_M, from one sweep; P_2k equals kesten_return(M, 2k)."""
    D = 2 * M
    return [
        Fraction(num[0], D**j)
        for j, num in enumerate(_sphere_numerators(M, 2 * n))
        if j and j % 2 == 0
    ]


def radial_distribution(M: int, k: int) -> list[Fraction]:
    """Per-vertex landing probabilities (P(l))_{l=0..k} after k steps.

    P(l) is the probability of ending on one fixed reduced word of length
    l; by symmetry it does not depend on the word.  The sphere masses
    satisfy the partition identity sum_l |B_l| P(l) = 1 exactly.
    """
    for n in _sphere_numerators(M, k):
        pass
    den = (2 * M) ** k
    return [Fraction(n[l], den) / ball_size(M, l) for l in range(k + 1)]


def kesten_upper_bound(M: int, k: int) -> Fraction:
    """The model upper bound ((2M-1)/M^2)^k for the 2k-step return probability.

    The bound holds at every k, not only in the limit.  Return
    probabilities are supermultiplicative, P_2(j+k) >= P_2j P_2k, so by
    Fekete's lemma P_2k^(1/k) never exceeds its limit, which is Kesten's
    (2M-1)/M^2.
    """
    if M < 1:
        raise ValueError("generator count must be at least 1")
    if k < 0:
        raise ValueError("step count must be nonnegative")
    return Fraction(2 * M - 1, M * M) ** k


def _spheres(letters: Sequence[Sequence[Sequence[int]]], radius: int) -> Iterator[list]:
    """The spheres 0..radius of reduced words in letters (integer matrices as rows, by rank: r ^ 1
    is the inverse of r), each as blocks (last rank, [words, *entries]) by last letter, -1 for the
    empty word.  A word's entries are those of the product of its letters in order.  The extension
    by a joins every block but that of a^-1 and multiplies them by a's coefficients."""
    d = len(letters[0])
    coeffs = [[[row[j] for row in mat] for j in range(d)] for mat in letters]  # per rank, the columns
    sphere = [(-1, [[()], *([int(i == j)] for i in range(d) for j in range(d))])]
    yield sphere
    for _ in range(radius):
        grown = []
        for a, cs in enumerate(coeffs):
            parts = zip(*(block for last, block in sphere if last != a ^ 1))
            ws, *cols = (list(chain.from_iterable(part)) for part in parts)
            prod = [list(reduce(_add, (col if c == 1 else map(c.__mul__, col)
                                       for col, c in zip(cols[i:i + d], cs[j]) if c)))
                    for i in range(0, len(cols), d) for j in range(d)]
            grown.append((a, [list(map(operator.add, ws, repeat((a,)))), *prod]))
        sphere = grown
        yield sphere


def certify_free(gens: Sequence[RationalMatrix], L: int) -> tuple[bool, Word | None]:
    """Check that no nonempty reduced word of length <= L in the given
    generators evaluates to the identity.

    Returns (True, None) if the generators are free up to length L, else
    (False, witness).  The certificate is exact (big-integer arithmetic)
    but only covers words up to length L.

    The search meets in the middle.  A relation w of length n <= L is
    u v^-1 with u = w[:ceil(n/2)] and v the inverse of the rest: reduced
    words with one matrix, |u| - |v| in {0, 1}, not ending in the same
    letter; conversely such a pair joins to a relation.  So the ball of
    radius R = ceil(L/2) is hashed once by exact matrix, whatever the
    answer, and the witness is the lexicographically first u v^-1 over
    colliding pairs (letters 1 < -1 < 2 < -2 < ..., a prefix first; the
    first identity word in preorder, not always the shortest).  A word w of
    length l carries D^l M(w) and is keyed by D^(R-l) D^l M(w), so equal
    keys are equal matrices.  A ball of more than FREE_BALL_CAP words
    raises SizeCapExceeded before any word is built.
    """
    _dimension(gens)
    if not 0 <= L <= FREE_LENGTH_CAP:
        raise ValueError(f"word length must be in 0..{FREE_LENGTH_CAP}")
    R = (L + 1) // 2
    size = sum(ball_size(len(gens), l) for l in range(R + 1))
    if size > FREE_BALL_CAP:
        raise SizeCapExceeded(f"word ball of radius {R} holds {size} words, above the cap of {FREE_BALL_CAP}")
    letters = [m.rows for g in gens for m in (g, g.inverse())]
    D = math.lcm(*(x.denominator for rows in letters for row in rows for x in row))
    firsts = {}  # per entries of D^R M(w): the first word
    buckets = {}  # per entries that more than one word takes: all its words
    for l, sphere in enumerate(_spheres([[[int(x * D) for x in row] for row in rows] for rows in letters], R)):
        scale = D ** (R - l)
        for _, (ws, *cols) in sphere:
            if scale != 1:
                cols = [list(map(scale.__mul__, col)) for col in cols]
            for key, w in zip(zip(*cols), ws):
                held = firsts.setdefault(key, w)
                if held is not w:  # distinct words are distinct tuples
                    buckets.setdefault(key, [held]).append(w)

    # a relation u v^-1 of a bucket starts with one of its nonempty words, so
    # buckets go in order of their first such word until one passes the witness
    witness = end = (len(letters),)  # after every word
    for first, ws in sorted((min(filter(None, ws)), ws) for ws in buckets.values()):
        if witness <= first:
            break
        top = {}  # per length, the first two v^-1 that start with different letters
        for vi in sorted(tuple(r ^ 1 for r in reversed(v)) for v in ws):
            kept = top.setdefault(len(vi), [])
            if not kept or (len(kept) == 1 and kept[0][0] != vi[0]):
                kept.append(vi)
        witness = min([witness, *(
            u + vi for u in ws if u for vi in top[len(u)] + top.get(len(u) - 1, [])
            if len(u) + len(vi) <= L and vi[:1] != (u[-1] ^ 1,)
        )])
    if witness == end:
        return True, None
    return False, tuple(-(r // 2 + 1) if r & 1 else r // 2 + 1 for r in witness)

