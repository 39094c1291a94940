"""Reduced-word combinatorics over a free alphabet.

Letters of the alphabet on M symbols are the nonzero integers
-M..-1, 1..M, with -i the formal inverse of i.  A word is a tuple of
letters with no adjacent cancelling pair.  B_l denotes the set of
reduced words of length exactly l.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import ZeroVector
from .exact import RationalMatrix

BALL_SCAN_CAP = 12  # longest word fixed_line_fraction and fixed_point_fraction scan
FREE_LENGTH_CAP = 16  # longest relation certify_free searches for

Word = tuple[int, ...]
State = TypeVar("State")


def ball_size(M: int, l: int) -> int:
    """Number of reduced words of length exactly l: 2M(2M-1)^(l-1), and 1 at l=0."""
    if l < 0:
        raise ValueError("length must be nonnegative")
    if l == 0:
        return 1
    return 2 * M * (2 * M - 1) ** (l - 1)


def _walk(
    M: int, L: int, start: State, step: Callable[[State, int], State]
) -> Iterator[tuple[list[int], State]]:
    """Depth-first preorder over the reduced words of length 1..L on M
    generators, letters ordered 1, -1, 2, -2, ..., M, -M.

    Yields (word, state) per word, where state = step(state of the word
    without its last letter, last letter) and the empty word has start.
    word is one live list, changed by the walk after the consumer
    resumes it; copy it to keep it.
    """
    letters = [a for i in range(1, M + 1) for a in (i, -i)]
    word: list[int] = []
    states = [start]
    pending = [iter(letters)] if L >= 1 else []
    while pending:
        for a in pending[-1]:
            if word and word[-1] == -a:
                continue
            state = step(states[-1], a)
            word.append(a)
            yield word, state
            if len(word) < L:
                states.append(state)
                pending.append(iter(letters))
                break
            word.pop()
        else:
            pending.pop()
            states.pop()
            if word:
                word.pop()


def reduced_words(M: int, l: int) -> Iterator[Word]:
    """Yield the words of B_l lazily, in lexicographic order of the letter
    sequence under the ordering 1 < -1 < 2 < -2 < ... < M < -M."""
    if M < 2:
        raise ValueError("need at least two free generators")
    if l == 0:
        yield ()
        return
    for word, _ in _walk(M, l, None, lambda state, a: None):
        if len(word) == l:
            yield tuple(word)


def _sphere_numerators(M: int, k: int) -> Iterator[list[int]]:
    """Integer numerators n[l] of the total mass on the distance-l sphere
    after j steps of the uniform walk, yielded for j = 0..k; the common
    denominator after j steps is (2M)^j.

    One step from distance 0 goes to distance 1 with probability 1; from
    distance l >= 1 it drops to l-1 with probability 1/(2M) and grows to
    l+1 with probability (2M-1)/(2M).
    """
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
    if k < 0:
        raise ValueError("step count must be nonnegative")
    for n in _sphere_numerators(M, k):
        pass
    return Fraction(n[0], (2 * M) ** k)


def kesten_series(M: int, n: int) -> list[Fraction]:
    """The even-step return probabilities [P_2, P_4, ..., P_2n] of the
    uniform walk on F_M, from one sweep; P_2k equals kesten_return(M, 2k)."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
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
    return Fraction(2 * M - 1, M * M) ** k


def _as_integer_pairs(gens: Sequence[RationalMatrix]):
    """Clear denominators: return (int_matrix, den) for each generator and
    its inverse, so word products can run on plain integers."""
    pairs = {}
    for i, g in enumerate(gens, start=1):
        for letter, mat in ((i, g), (-i, g.inverse())):
            den = 1
            for row in mat.rows:
                for x in row:
                    den = den * x.denominator // math.gcd(den, x.denominator)
            rows = tuple(
                tuple(int(x * den) for x in row) for row in mat.rows
            )
            pairs[letter] = (rows, den)
    return pairs


def _int_mat_mul(a, b, d):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


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
    radius ceil(L/2) is hashed once by exact matrix, whatever the answer,
    and the witness is the lexicographically first u v^-1 over colliding
    pairs (letters 1 < -1 < 2 < -2 < ..., a prefix first; the first
    identity word in preorder, not always the shortest).
    """
    if not gens:
        raise ValueError("need at least one generator")
    if not 0 <= L <= FREE_LENGTH_CAP:
        raise ValueError(f"word length must be in 0..{FREE_LENGTH_CAP}")
    d = gens[0].dim
    pairs = _as_integer_pairs(gens)
    ident = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))

    def step(state, a):
        mat, dg = pairs[a]
        return _int_mat_mul(state[0], mat, d), state[1] * dg

    def rank(w):  # preorder is lexicographic order of the letter ranks
        return tuple(2 * abs(a) - (a > 0) for a in w)

    buckets = {(ident, 1): [()]}
    for word, (prod, den) in _walk(len(gens), (L + 1) // 2, (ident, 1), step):
        g = math.gcd(den, *(x for row in prod for x in row))
        key = (tuple(tuple(x // g for x in row) for row in prod), den // g)
        buckets.setdefault(key, []).append(tuple(word))

    def relations(words):  # the u v^-1 of one bucket that can come first
        top = {}  # per length, the first two v^-1 that start with different letters
        for vi in sorted((tuple(-a for a in reversed(v)) for v in words), key=rank):
            kept = top.setdefault(len(vi), [])
            if not kept or (len(kept) == 1 and kept[0][0] != vi[0]):
                kept.append(vi)
        return (
            u + vi for u in words if u
            for vi in top[len(u)] + top.get(len(u) - 1, [])
            if len(u) + len(vi) <= L and vi[:1] != (-u[-1],)
        )

    found = (w for ws in buckets.values() if len(ws) > 1 for w in relations(ws))
    witness = min(found, key=rank, default=None)
    return witness is None, witness


def _adjoint_matrices(g: RationalMatrix) -> RationalMatrix:
    """Matrix of X -> g X g^(-1) on the trace-zero basis E, H, F (dim 2 input)."""
    if g.dim != 2:
        raise ValueError("adjoint representation implemented for dim 2 only")
    gi = g.inverse()
    basis = [
        RationalMatrix([[0, 1], [0, 0]]),
        RationalMatrix([[1, 0], [0, -1]]),
        RationalMatrix([[0, 0], [1, 0]]),
    ]

    def coords(m: RationalMatrix):
        # a*E + b*H + c*F = [[b, a], [c, -b]]
        return (m.rows[0][1], m.rows[0][0], m.rows[1][0])

    cols = [coords(g * x * gi) for x in basis]
    return RationalMatrix([[cols[j][i] for j in range(3)] for i in range(3)])


def _collinear(v: Sequence[Fraction], w: Sequence[Fraction]) -> bool:
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if v[i] * w[j] != v[j] * w[i]:
                return False
    return True


def fixed_line_fraction(
    gens: Sequence[RationalMatrix],
    rep: str,
    w: Sequence,
    l: int,
) -> dict:
    """Count words g in B_l whose representation image fixes the line [w].

    rep is "natural" (the matrices themselves) or "adjoint" (conjugation on
    trace-zero matrices, dim 2 generators only).  The projective test is
    exact: all 2x2 minors of the pair (rho(g) w, w) must vanish.
    """
    w = [Fraction(x) for x in w]
    if all(x == 0 for x in w):
        raise ZeroVector("fixed-line test needs a nonzero vector")
    if l > BALL_SCAN_CAP:
        raise ValueError(f"ball scan cap is l <= {BALL_SCAN_CAP}")
    if rep == "natural":
        mats = list(gens)
    elif rep == "adjoint":
        mats = [_adjoint_matrices(g) for g in gens]
    else:
        raise ValueError(f"unknown representation {rep!r}")
    return _count_fixing_words(
        mats, l, w, lambda vec: _collinear(vec, w)
    )


def fixed_point_fraction(
    gens: Sequence[RationalMatrix],
    translations: Sequence[Sequence],
    w: Sequence,
    l: int,
) -> dict:
    """Count words g in B_l whose affine action x -> rho(g)x + v(g) fixes w."""
    w = [Fraction(x) for x in w]
    if l > BALL_SCAN_CAP:
        raise ValueError(f"ball scan cap is l <= {BALL_SCAN_CAP}")
    if len(translations) != len(gens):
        raise ValueError("one translation part per generator required")
    return _count_fixing_words(
        list(gens),
        l,
        w,
        lambda vec: vec == w,
        translations=[[Fraction(x) for x in t] for t in translations],
    )


def _count_fixing_words(
    mats: Sequence[RationalMatrix],
    l: int,
    w: Sequence[Fraction],
    hit: Callable[[list[Fraction]], bool],
    translations: Sequence[Sequence[Fraction]] | None = None,
) -> dict:
    """Shared DFS over B_l tracking the image of w under the word action."""
    d = mats[0].dim
    action = {}
    for i, m in enumerate(mats, start=1):
        mi = m.inverse()
        if translations is None:
            action[i] = (m.rows, None)
            action[-i] = (mi.rows, None)
        else:
            v = list(translations[i - 1])
            action[i] = (m.rows, v)
            vi = [-sum(mi.rows[r][c] * v[c] for c in range(d)) for r in range(d)]
            action[-i] = (mi.rows, vi)

    def step(vec: list[Fraction], a: int) -> list[Fraction]:
        rows, trans = action[a]
        new = [sum(rows[r][c] * vec[c] for c in range(d)) for r in range(d)]
        if trans is not None:
            new = [x + t for x, t in zip(new, trans)]
        return new

    if l == 0:
        count = 1 if hit(list(w)) else 0
    else:
        count = sum(
            1 for word, vec in _walk(len(mats), l, list(w), step)
            if len(word) == l and hit(vec)
        )
    total = ball_size(len(mats), l)
    exponent = math.log(count) / math.log(total) if count > 1 and total > 1 else 0.0
    return {
        "count": count,
        "ball": total,
        "fraction": Fraction(count, total),
        "exponent": exponent,
        "degenerate": count == total,
    }
