"""Word combinatorics: the oracles here recount everything by brute
force on small parameters before trusting the closed forms."""
from fractions import Fraction

import pytest

from expanderlab import words
from expanderlab.exact import RationalMatrix
from expanderlab.words import (
    ball_size,
    certify_free,
    kesten_return,
    kesten_series,
    kesten_upper_bound,
    radial_distribution,
    reduced_words,
)


def lubotzky_pair(t=3):
    return [
        RationalMatrix([[1, t], [0, 1]]),
        RationalMatrix([[1, 0], [t, 1]]),
    ]


def test_ball_size_matches_enumeration():
    for M in (2, 3):
        for l in range(0, 7):
            words = list(reduced_words(M, l))
            assert len(words) == ball_size(M, l)
            assert len(set(words)) == len(words)


def test_reduced_words_have_no_cancellation():
    for w in reduced_words(2, 5):
        assert all(w[i] != -w[i + 1] for i in range(4))


def test_kesten_return_brute_force():
    # walk on the free group itself, words as states
    for M in (2, 3):
        dist = {(): Fraction(1)}
        letters = [s * i for i in range(1, M + 1) for s in (1, -1)]
        for k in range(1, 7):
            new = {}
            for w, mass in dist.items():
                for a in letters:
                    if w and w[-1] == -a:
                        nxt = w[:-1]
                    else:
                        nxt = w + (a,)
                    new[nxt] = new.get(nxt, Fraction(0)) + mass / (2 * M)
            dist = new
            assert kesten_return(M, k) == dist.get((), Fraction(0))


def test_kesten_series_matches_kesten_return():
    for M in (2, 3):
        assert kesten_series(M, 0) == []
        assert kesten_series(M, 15) == [kesten_return(M, 2 * k) for k in range(1, 16)]


def test_kesten_return_odd_steps_zero():
    assert kesten_return(2, 3) == 0
    assert kesten_return(2, 2) == Fraction(1, 4)
    assert kesten_return(2, 4) == Fraction(7, 64)


def test_partition_identity():
    for k in (1, 2, 5, 10, 25):
        probs = radial_distribution(2, k)
        total = sum(ball_size(2, l) * probs[l] for l in range(k + 1))
        assert total == 1


def test_radial_distribution_matches_brute_force():
    dist = {(): Fraction(1)}
    letters = [1, -1, 2, -2]
    for _ in range(6):
        new = {}
        for w, mass in dist.items():
            for a in letters:
                nxt = w[:-1] if (w and w[-1] == -a) else w + (a,)
                new[nxt] = new.get(nxt, Fraction(0)) + mass / 4
        dist = new
    probs = radial_distribution(2, 6)
    for w, mass in dist.items():
        assert probs[len(w)] == mass


def test_kesten_upper_bound_dominates():
    for k in range(1, 30):
        assert kesten_return(2, 2 * k) <= kesten_upper_bound(2, k)


@pytest.mark.parametrize("count", [kesten_return, kesten_series, radial_distribution, kesten_upper_bound])
def test_step_counts_below_zero_are_refused(count):
    # at k = -1 the closed forms give radial_distribution [] and kesten_upper_bound 4/3, a bound above 1
    with pytest.raises(ValueError, match="^step count must be nonnegative$"):
        count(2, -1)


@pytest.mark.parametrize("count", [kesten_return, kesten_series, radial_distribution, kesten_upper_bound, ball_size])
@pytest.mark.parametrize("M", [0, -1, -2])
def test_generator_counts_below_one_are_refused(count, M):
    # M = -1 gave kesten_return(-1, 2) = -1/2, a negative probability, and ball_size(-1, 2) = 6;
    # M = 0 divided by (2M)^k = 0
    with pytest.raises(ValueError, match="^generator count must be at least 1$"):
        count(M, 2)


def test_certify_free_lubotzky():
    free, witness = certify_free(lubotzky_pair(3), 10)
    assert free and witness is None


def test_certify_free_sanov():
    free, witness = certify_free(lubotzky_pair(2), 10)
    assert free and witness is None


def test_certify_free_elementary_witness():
    free, witness = certify_free(lubotzky_pair(1), 6)
    assert not free
    assert witness == (1, 2, -1, 2, 1, -2)
    # replay the witness exactly
    a, b = lubotzky_pair(1)
    by_letter = {1: a, -1: a.inverse(), 2: b, -2: b.inverse()}
    prod = RationalMatrix.identity(2)
    for letter in witness:
        prod = prod * by_letter[letter]
    assert prod == RationalMatrix.identity(2)


def test_certify_free_sanov_at_the_cap():
    # Sanov's ping-pong lemma: (1 2; 0 1) and (1 0; 2 1) generate a free
    # group, so there is no relation at any length
    assert certify_free(lubotzky_pair(2), 16) == (True, None)


def test_free_length_cap(monkeypatch):
    gens = lubotzky_pair(2)
    with pytest.raises(ValueError, match=r"word length must be in 0\.\.16$"):
        certify_free(gens, 17)
    monkeypatch.setattr(words, "FREE_LENGTH_CAP", 2)
    assert certify_free(gens, 2) == (True, None)
    with pytest.raises(ValueError, match=r"word length must be in 0\.\.2$"):
        certify_free(gens, 3)


def evaluate(gens, word):
    prod = RationalMatrix.identity(gens[0].dim)
    for letter in word:
        g = gens[abs(letter) - 1]
        prod = prod * (g if letter > 0 else g.inverse())
    return prod


def test_certify_free_odd_length_edge():
    # the first relation has length 10, so at L = 9 two words of length 5
    # share a matrix, but 5 + 5 > 9 and they prove nothing
    gens = lubotzky_pair(Fraction(1, 2))
    assert certify_free(gens, 9) == (True, None)
    witness = (1, 1, 2, -1, -1, 2, 2, 1, -2, -2)
    assert certify_free(gens, 10) == (False, witness)
    assert evaluate(gens, witness) == RationalMatrix.identity(2)


def test_certify_free_degenerate_generators():
    a, b = lubotzky_pair(3)
    flip = RationalMatrix([[0, 1], [1, 0]])
    ident = RationalMatrix.identity(2)
    cases = [
        # a duplicated generator: (1, -2) is shortest, but not first in preorder
        ([a, a], 4, (1, 1, -2, -1)),
        ([flip, a], 4, (1, 1)),  # an involution
        ([a, flip], 4, (1, 2, 2, -1)),
        ([ident, a], 4, (1,)),  # the identity as a generator
        ([ident, a], 1, (1,)),
        ([a, ident], 4, (1, 2, -1)),
        ([a, b, a * b], 6, (1, 1, 2, -3, -1)),  # M = 3
        ([a, b, b * a * b], 6, (1, 1, 2, -3, 2, -1)),
    ]
    for gens, L, witness in cases:
        assert certify_free(gens, L) == (False, witness)
        assert evaluate(gens, witness) == ident


def test_certify_free_deep_witnesses():
    # the first identity word in preorder, as a depth-first scan over
    # every reduced word of length <= L names it: deep witnesses near the
    # cap, and one of length 1 that the whole ball is hashed for
    a, b = lubotzky_pair(3)
    half, one = lubotzky_pair(Fraction(1, 2)), lubotzky_pair(1)
    cases = [
        (half, 15, (1, 1, 1, 1, 2, -1, -1, -1, -1, 2, 1, 1, 1, 1, -2)),
        (half, 16, (1, 1, 1, 1, 1, 2, -1, -1, 2, 2, 1, -2, -2, -1, -1, -1)),
        (one, 16, (1, 1, 1, 1, 1, 1, 2, -1, 2, 1, -2, -1, -1, -1, -1, -1)),
        ([RationalMatrix.identity(2), a], 16, (1,)),
        ([a, b, a * b], 10, (1, 1, 1, 1, 2, -3, -1, -1, -1)),  # M = 3
        (one + [RationalMatrix([[0, -1], [1, 0]])], 9, (1, 1, 1, -2, 1, 2, 2, 3)),
    ]
    for gens, L, witness in cases:
        assert certify_free(gens, L) == (False, witness)
        assert evaluate(gens, witness) == RationalMatrix.identity(2)


def test_certify_free_compares_reduced_fractions():
    # conjugate to the t = 1 pair by diag(2, 1); the two halves of the
    # relation carry different powers of 2 in their denominators, so the
    # certificate must compare their matrices as reduced fractions
    gens = [RationalMatrix([[1, 2], [0, 1]]), RationalMatrix([[1, 0], ["1/2", 1]])]
    assert certify_free(gens, 6) == (False, (1, 2, -1, 2, 1, -2))


def test_certify_free_word_cap():
    for L in (-1, 17):
        with pytest.raises(ValueError):
            certify_free(lubotzky_pair(3), L)


def test_certify_free_rejects_mixed_dimensions():
    # a 3x3 generator beside a 2x2 one must not be read through its
    # top-left block, in either order
    pair = [RationalMatrix([[1, 2], [0, 1]]), RationalMatrix.identity(3)]
    for gens in (pair, pair[::-1]):
        with pytest.raises(ValueError, match=r"^generators of mixed dimension \[2, 3\]$"):
            certify_free(gens, 4)


def test_certify_free_at_length_0_checks_no_word():
    # only the empty word has length 0, so even the identity as a
    # generator proves no relation there
    gens = [RationalMatrix.identity(2), RationalMatrix([[1, 2], [0, 1]])]
    assert certify_free(gens, 0) == (True, None)

