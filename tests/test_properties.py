"""Property tests for the reduced-word walker and the fixed-line and
fixed-point counts over it, the module orbits, the centre, the mod-p row reducer,
the coset labeller, the table id lookup, the block spectrum, the
translations and ball radii the BFS records and the walks that use them,
the products through the per-prime factors of composite tables and their
factor-rank id index, the measure constructors, the subgroup and normal
closures and the lower central series, the Levi and unipotent masks, the
splitting and factor product-form checks, each against a brute-force oracle,
plus guards on the BFS element order and the package's public names and
signatures."""
import functools
import hashlib
import inspect
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import expanderlab
from expanderlab import growth, quotient
from expanderlab.cli import builtin_generators, parse_generators
from expanderlab.errors import (
    HypothesisViolated,
    NotInGroup,
    NotNormal,
    SingularMatrix,
    SizeCapExceeded,
)
from expanderlab.exact import ModMatrix, RationalMatrix, crt_tuple, mod_inv, mod_mul, row_reduce_mod_p
from expanderlab.growth import (
    ElementSet,
    ModuleAction,
    orbit_sum_subspace,
    product_set,
)
from expanderlab.quotient import (
    ID_INDEX_CAP,
    SemidirectSpec,
    SubgroupRecord,
    borel_subgroup,
    conjugacy_classes,
    coset_labels,
    cyclic_group,
    direct_product,
    generate_group,
    heisenberg_group,
    ids_of_matrices,
    is_perfect,
    levi_mask,
    lower_central_series,
    normal_closure,
    normal_subgroups,
    product_decompose,
    semidirect_group,
    subgroup_closure,
    torus_subgroup,
    unipotent_mask,
    verify_factor_product_form,
    verify_normal_perfect,
    verify_product_form,
)
from expanderlab.spectral import (
    CayleyGraph,
    EscapeRow,
    WalkRow,
    _block_eigenvalues,
    _cluster,
    _split_element,
    _walk,
    _walk_inputs,
    escape_profile,
    spectrum,
    trace_moment,
    walk_powers,
    walk_trace_side,
)
from expanderlab.words import ball_size, certify_free, reduced_words
import oracles
from oracles import ping_pong_free, walk_step

FEW = settings(max_examples=25, deadline=None)


def letters(M):
    return [a for i in range(1, M + 1) for a in (i, -i)]


def brute_reduced_words(M, l):
    """Every reduced word of length l, in itertools.product order, which
    is lexicographic in the letter order 1, -1, 2, -2, ..."""
    return [
        w for w in itertools.product(letters(M), repeat=l)
        if all(w[i] != -w[i + 1] for i in range(l - 1))
    ]


# ----- walker -----


@FEW
@given(M=st.sampled_from([2, 3]), l=st.integers(0, 6))
def test_reduced_words_are_the_ball_in_lexicographic_order(M, l):
    words = list(reduced_words(M, l))
    assert len(words) == ball_size(M, l) == len(set(words))
    assert words == brute_reduced_words(M, l)


GENERATOR_POOL = [
    RationalMatrix([[1, 1], [0, 1]]),
    RationalMatrix([[1, 0], [1, 1]]),
    RationalMatrix([[1, 2], [0, 1]]),
    RationalMatrix([[1, 0], [2, 1]]),
    RationalMatrix([["1", "1/2"], [0, 1]]),
    RationalMatrix([[1, 0], ["1/2", 1]]),
    RationalMatrix([[0, -1], [1, 0]]),  # order 4
    RationalMatrix([[0, -1], [1, -1]]),  # order 3
    RationalMatrix([[2, 0], [0, "1/2"]]),
]

GENERATOR_POOL_3 = [
    RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    RationalMatrix([[1, 0, 0], [0, 1, 2], [0, 0, 1]]),
    RationalMatrix([[1, 0, 0], [0, 1, 0], ["1/2", 0, 1]]),
    RationalMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),  # order 3
    RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
]


@FEW
@given(
    picks=st.lists(st.integers(0, len(GENERATOR_POOL) - 1), min_size=1, max_size=2, unique=True),
    L=st.integers(1, 6),
)
def test_certify_free_witness_is_the_first_identity_word(picks, L):
    gens = [GENERATOR_POOL[i] for i in picks]
    by_letter = {}
    for i, g in enumerate(gens, start=1):
        by_letter[i], by_letter[-i] = g, g.inverse()
    ident = RationalMatrix.identity(2)
    # all reduced words of length 1..L in walk order: a prefix comes
    # before its extensions, siblings in letter order
    rank = {a: r for r, a in enumerate(letters(len(gens)))}
    words = sorted(
        (w for l in range(1, L + 1) for w in brute_reduced_words(len(gens), l)),
        key=lambda w: [rank[a] for a in w],
    )
    prods = {(): ident}
    expected = None
    for w in words:
        prods[w] = prods[w[:-1]] * by_letter[w[-1]]
        if prods[w] == ident:
            expected = w
            break
    assert certify_free(gens, L) == (expected is None, expected)


def first_identity_word(gens, L):
    """Recursive preorder scan of the reduced words of length 1..L,
    letters in the order 1, -1, 2, -2, ...; the first identity or None."""
    by_letter = {}
    for i, g in enumerate(gens, start=1):
        by_letter[i], by_letter[-i] = g, g.inverse()
    ident = RationalMatrix.identity(gens[0].dim)

    def scan(word, prod):
        for a in letters(len(gens)):
            if word and word[-1] == -a:
                continue
            w, p = word + (a,), prod * by_letter[a]
            if p == ident:
                return w
            if len(w) < L:
                found = scan(w, p)
                if found:
                    return found
        return None

    return scan((), ident)


@FEW
@given(data=st.data())
def test_certify_free_agrees_with_a_preorder_scan(data):
    # 2x2 or 3x3 sets of one to three generators; three 3x3 generators
    # stop at length 5, where a free set already costs the scan 4,686 products
    pool = data.draw(st.sampled_from([GENERATOR_POOL, GENERATOR_POOL_3]))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3, unique=True))
    gens = [pool[i] for i in picks]
    L = data.draw(st.integers(1, 5 if gens[0].dim == 3 and len(gens) == 3 else 8))
    expected = first_identity_word(gens, L)
    assert certify_free(gens, L) == (expected is None, expected)
    assert certify_free(gens, 0) == (True, None)


# denominators 2, 3 and 5 in one pool, so the common denominator D of a
# set's letters reaches 30 in 2x2 and in 3x3; each pool holds an element of
# order 3, whose relation of odd length has halves of different lengths
DENOMINATOR_POOLS = [
    [
        RationalMatrix([[1, "1/2"], [0, 1]]),
        RationalMatrix([[1, 0], ["1/3", 1]]),
        RationalMatrix([[1, "2/5"], [0, 1]]),
        RationalMatrix([[0, "-2/3"], ["3/2", -1]]),  # order 3
        RationalMatrix([[0, -5], ["1/5", 0]]),  # order 4
        RationalMatrix([[3, 0], [0, "1/3"]]),
    ],
    [
        RationalMatrix([[1, "1/2", 0], [0, 1, 0], [0, 0, 1]]),
        RationalMatrix([[1, 0, 0], [0, 1, "1/3"], [0, 0, 1]]),
        RationalMatrix([[1, 0, 0], [0, 1, 0], ["2/5", 0, 1]]),
        RationalMatrix([[0, 0, "1/5"], [3, 0, 0], [0, "5/3", 0]]),  # order 3
        RationalMatrix([[2, 0, 0], [0, "1/3", 0], [0, 0, "3/2"]]),
    ],
]


@FEW
@given(data=st.data())
def test_certify_free_over_mixed_denominators_agrees_with_a_preorder_scan(data):
    # the scan multiplies Fractions in lowest terms, the certificate integer
    # matrices over the common denominator; three generators stop at length
    # 5, where a free 2x2 set costs the scan 4,686 products
    pool = data.draw(st.sampled_from(DENOMINATOR_POOLS))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3, unique=True))
    gens = [pool[i] for i in picks]
    L = data.draw(st.integers(1, 5 if len(gens) == 3 else 7))
    expected = first_identity_word(gens, L)
    assert certify_free(gens, L) == (expected is None, expected)


def test_certify_free_finds_torsion():
    # a rotation of order 4 gives the witness a^4 before anything longer
    assert certify_free([GENERATOR_POOL[6], GENERATOR_POOL[0]], 5) == (False, (1, 1, 1, 1))


SMALL_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@FEW
@given(
    a=SMALL_RATIONALS.filter(bool), b=SMALL_RATIONALS, shared=st.booleans(),
    signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
    g=st.lists(SMALL_RATIONALS, min_size=4, max_size=4).filter(lambda e: e[0] * e[3] != e[1] * e[2]),
)
def test_ping_pong_is_unchanged_by_conjugation_and_certify_free_agrees(a, b, shared, signs, g):
    # +-(1 a; 0 1) and +-(1 0; b 1), proved free when |ab| >= 4, or +-(1 b; 0 1), which
    # shares the fixed point of the first and commutes with it
    A = RationalMatrix([[signs[0], signs[0] * a], [0, signs[0]]])
    B = RationalMatrix([[signs[1], signs[1] * b if shared else 0], [0 if shared else signs[1] * b, signs[1]]])
    proved = ping_pong_free(A, B)
    assert proved == (None if shared or abs(a * b) < 4 else True)
    P = RationalMatrix([g[:2], g[2:]])
    conjugated = [P * M * P.inverse() for M in (A, B)]
    assert ping_pong_free(*conjugated) == proved
    if proved:
        assert certify_free(conjugated, 12) == (True, None)


# ----- row reducer -----


def row_space(rows, p):
    """Every F_p-combination of the rows, as a set of tuples."""
    n = len(rows[0])
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        out.add(tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n)))
    return out


def det_mod(a, p):
    """Leibniz determinant mod p."""
    d = len(a)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term = -1 if inversions % 2 else 1
        for i in range(d):
            term *= a[i][perm[i]]
        total += term
    return total % p


small_matrix = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-12, 12), min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
)


@FEW
@given(rows=small_matrix, p=st.sampled_from([5, 7, 11]))
def test_rank_is_the_dimension_of_the_row_space(rows, p):
    reduced, pivots = row_reduce_mod_p(rows, p)
    space = row_space(rows, p)
    assert len(space) == p ** len(pivots)
    assert len(reduced) == len(pivots) and pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert reduced[i][c] == 1 and all(reduced[j][c] == 0 for j in range(len(reduced)) if j != i)
    if len(reduced):
        assert row_space(reduced, p) == space


@FEW
@given(
    d=st.integers(2, 3),
    p=st.sampled_from([5, 7, 11]),
    data=st.data(),
)
def test_mod_inv_inverts_or_raises(d, p, data):
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d))
    a = [entries[i * d : (i + 1) * d] for i in range(d)]
    if det_mod(a, p) == 0:
        with pytest.raises(SingularMatrix):
            mod_inv(ModMatrix(a, p))
        return
    inv = mod_inv(ModMatrix(a, p)).rows
    prod = [[sum(inv[i][k] * a[k][j] for k in range(d)) % p for j in range(d)] for i in range(d)]
    assert prod == [[int(i == j) for j in range(d)] for i in range(d)]


REDUCER_PRIMES = [2, 3, 5, 7, 11, (1 << 61) - 1]  # the last above 2^31, so in Python ints


@FEW
@given(p=st.sampled_from(REDUCER_PRIMES), data=st.data())
def test_row_reduce_mod_p_is_the_row_by_row_reduction(p, data):
    n, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    entries = st.just(0) | st.integers(-12, 12) | st.integers(-2 * p, 2 * p)  # zeros make row swaps
    rows = data.draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=n, max_size=n))
    reduced, pivots = row_reduce_mod_p(rows, p)
    want, want_pivots = oracles.row_reduce_mod_p(rows, p)
    assert reduced.tolist() == want and pivots == want_pivots
    assert {type(x) for row in reduced.tolist() for x in row} <= {int}
    assert reduced.dtype == (np.int64 if p < 1 << 31 else object)


def invertible_stacks(p, d, n):
    """Stacks of n invertible d x d matrices mod p, each drawn as P L U: a permutation, a unit
    lower triangular and an upper triangular matrix with a nonzero diagonal."""
    def plu(perm, low, up, diag):
        L = [[1 if i == j else low[i * d + j] if j < i else 0 for j in range(d)] for i in range(d)]
        U = [[diag[i] if i == j else up[i * d + j] if j > i else 0 for j in range(d)] for i in range(d)]
        LU = [[sum(L[i][k] * U[k][j] for k in range(d)) % p for j in range(d)] for i in range(d)]
        return [LU[perm[i]] for i in range(d)]

    entries = st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d)
    one = st.builds(plu, st.permutations(range(d)), entries, entries,
                    st.lists(st.integers(1, p - 1), min_size=d, max_size=d))
    return st.lists(one, min_size=n, max_size=n)


@FEW
@given(p=st.sampled_from(REDUCER_PRIMES), d=st.integers(1, 4), n=st.integers(1, 4),
       extra=st.integers(0, 3), data=st.data())
def test_a_stack_reduces_as_each_matrix_alone(p, d, n, extra, data):
    xs = data.draw(invertible_stacks(p, d, n))
    ys = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=d * extra, max_size=d * extra),
                            min_size=n, max_size=n))
    stack = [[x[i] + y[i * extra:(i + 1) * extra] for i in range(d)] for x, y in zip(xs, ys)]
    reduced, pivots = row_reduce_mod_p(stack, p)
    assert pivots == list(range(d)) and reduced.shape == (n, d, d + extra)
    for got, m in zip(reduced.tolist(), stack):
        assert (got, pivots) == oracles.row_reduce_mod_p(m, p)


@FEW
@given(p=st.sampled_from([5, 7, 11]), d=st.sampled_from([1, 3, 4]), n=st.integers(1, 4), data=st.data())
def test_block_inverses_off_the_2x2_path_are_mod_inv_block_by_block(p, d, n, data):
    x = np.array(data.draw(invertible_stacks(p, d, n)), dtype=np.int64)
    inv = quotient._inv_block(x, p)
    assert inv.dtype == np.int64 and inv.shape == (n, d, d)
    for a, b in zip(x.tolist(), inv.tolist()):
        assert ModMatrix(b, p) == mod_inv(ModMatrix(a, p))
        assert mod_mul(ModMatrix(b, p), ModMatrix(a, p)) == ModMatrix.identity(d, p)
    # one singular block, a zero row anywhere in the stack, makes the whole stack singular
    bad = x.copy()
    bad[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))] = 0
    with pytest.raises(SingularMatrix):
        quotient._inv_block(bad, p)


# ----- coset labeller -----


def sl2_7():
    return generate_group([RationalMatrix([[1, 1], [0, 1]]), RationalMatrix([[1, 0], [1, 1]])], 7)


def labelled_cases():
    G = sl2_7()
    U = heisenberg_group(5)
    return [
        (G, borel_subgroup(G).element_ids),
        (G, torus_subgroup(G).element_ids),
        (U, lower_central_series(U)[1]),
    ]


CASES = labelled_cases()


@pytest.mark.parametrize("case", range(len(CASES)))
def test_coset_classes_have_subgroup_size(case):
    G, h_ids = CASES[case]
    counts = np.bincount(coset_labels(G, h_ids))
    assert len(counts) == G.order // len(h_ids)
    assert (counts == len(h_ids)).all()


def labels_by_every_element(G, h_ids):
    """The coset labeller's definition: each element in id order that is
    still unlabelled labels its translate g h_ids with the next label."""
    labels = np.full(G.order, -1, dtype=np.int64)
    nxt = 0
    for g in range(G.order):
        if labels[g] < 0:
            labels[G.mul_vec(g, h_ids)] = nxt
            nxt += 1
    return labels


@FEW
@given(case=st.integers(0, len(CASES) - 1), data=st.data())
def test_coset_labels_follow_their_definition(case, data):
    G = CASES[case][0]
    ids = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    h_ids = subgroup_closure(G, ids).element_ids
    assert np.array_equal(coset_labels(G, h_ids), labels_by_every_element(G, h_ids))


def labels_coset_by_coset(G, h_ids):
    """The labeller that multiplies out one translate g h_ids per coset, g the least
    unlabelled id, found by scanning in doubling windows."""
    labels = np.full(G.order, -1, dtype=np.int64)
    g = label = 0
    while g < G.order:
        labels[G.mul_vec(g, h_ids)] = label
        label += 1
        g, width = g + 1, len(h_ids)
        while g < G.order and labels[g] >= 0:
            free = np.flatnonzero(labels[g : g + width] < 0)
            g, width = (g + int(free[0]), width) if len(free) else (g + width, 2 * width)
    return labels


@pytest.mark.parametrize("name", ["lubotzky3", "sanov2"])
def test_coset_labels_are_the_translates_on_the_named_subgroups_mod_61(name):
    # past the product-table cap, with 62 cosets of the Borel and 3,782 of the torus
    G = generate_group(builtin_generators(name), 61)
    for H in (borel_subgroup(G), torus_subgroup(G)):
        assert np.array_equal(coset_labels(G, H.element_ids), labels_coset_by_coset(G, H.element_ids))


def test_coset_labels_multiply_nothing(monkeypatch):
    G, U = generate_group(builtin_generators("lubotzky3"), 13), heisenberg_group(5)
    cases = [(G, borel_subgroup(G).element_ids), (G, torus_subgroup(G).element_ids),
             (U, lower_central_series(U)[1]), (U, np.array([0]))]
    expected = [labels_by_every_element(T, h_ids) for T, h_ids in cases]
    for method in ("mul_vec", "_apply"):
        monkeypatch.setattr(quotient.GroupTable, method, lambda *a: pytest.fail("a product was multiplied out"))
    for (T, h_ids), labels in zip(cases, expected):
        assert np.array_equal(coset_labels(T, h_ids), labels)


@FEW
@given(case=st.integers(0, len(CASES) - 1), data=st.data())
def test_same_label_iff_same_left_coset(case, data):
    G, h_ids = CASES[case]
    labels = coset_labels(G, h_ids)
    member = np.zeros(G.order, dtype=bool)
    member[h_ids] = True
    x = data.draw(st.integers(0, G.order - 1))
    h = int(h_ids[data.draw(st.integers(0, len(h_ids) - 1))])
    z = data.draw(st.integers(0, G.order - 1))
    for y in (G.mul(x, h), z):
        assert (labels[x] == labels[y]) == bool(member[G.mul(G.inv(x), y)])


# ----- id lookup -----

UNITRIANGULAR = [
    RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
]

# the 3x3 upper unitriangular group, of order p^3: its code space p^9 takes
# the dense code-to-id array mod 5 and the sorted codes mod 7
LOOKUP_TABLES = {p: generate_group(UNITRIANGULAR, p) for p in (5, 7)}


def as_matrix(G, i):
    return ModMatrix(G.digits[i].reshape(3, 3).tolist(), G.meta["q"])


def test_lookup_tables_sit_on_both_sides_of_the_dense_cap():
    assert 5**9 <= ID_INDEX_CAP < 7**9
    assert [G.order for G in LOOKUP_TABLES.values()] == [125, 343]


@pytest.mark.parametrize("p", sorted(LOOKUP_TABLES))
def test_id_of_rows_inverts_the_digit_table(p):
    G = LOOKUP_TABLES[p]
    ids = G.id_of_rows(G.digits)
    assert ids.dtype == np.int64
    assert (ids == np.arange(G.order)).all()


@FEW
@given(p=st.sampled_from(sorted(LOOKUP_TABLES)), data=st.data())
def test_products_and_inverses_agree_with_matrix_arithmetic(p, data):
    G = LOOKUP_TABLES[p]
    a = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=8))
    b = data.draw(st.lists(st.integers(0, G.order - 1), min_size=len(a), max_size=len(a)))
    for i, j, k in zip(a, b, G.mul_vec(a, b)):
        assert as_matrix(G, k) == mod_mul(as_matrix(G, i), as_matrix(G, j))
    for i, k in zip(a, G.inv_vec(a)):
        assert as_matrix(G, k) == mod_inv(as_matrix(G, i))


@FEW
@given(p=st.sampled_from(sorted(LOOKUP_TABLES)), data=st.data())
def test_id_of_rows_rejects_rows_outside_the_table(p, data):
    G = LOOKUP_TABLES[p]
    with pytest.raises(NotInGroup):
        ids_of_matrices(G, [RationalMatrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])])
    # the same residues with one digit out of [0, p): its code is another
    # element's, another code or one outside the code space
    row = G.digits[data.draw(st.integers(0, G.order - 1))].copy()
    j = data.draw(st.integers(0, 8))
    row[j] += p * data.draw(st.sampled_from([-3, -2, -1, 1, 2]))
    with pytest.raises(NotInGroup):
        G.id_of_rows(row)


# sha256 of G.digits.tobytes(): the element order is BFS level first, then
# code order within a level, and any change to either changes the digest
BFS_ORDER_DIGESTS = [
    ("lubotzky3", 7, "ecea5e746080d3deebb0771eed536469b7b1f34ed53fa763b795d602711763ee"),
    ("lubotzky3", 35, "d25fe0011431c9590cdf2c8b2f94f51090719a56f1013ee1f9eec9cd9e0806d1"),
    ("unitriangular", 7, "fff82ceb7977aa5c6089da66e2f3ee91bd5ca2010b8e5dc78862532dc30213f5"),
    # the sorted code index
    ("sanov2", 77, "05dd48c317937862a597f53f9efa60ec70162b822af050589588a8bf21b049e4"),
]


@pytest.mark.parametrize("name,q,digest", BFS_ORDER_DIGESTS)
def test_bfs_element_order_is_pinned(name, q, digest):
    if name == "unitriangular":
        G = LOOKUP_TABLES[q]
    else:
        G = generate_group(builtin_generators(name), q)
    assert hashlib.sha256(G.digits.tobytes()).hexdigest() == digest


def kernel_rows(G, method, *rows):
    """Digit rows of G.method (mul_vec on two row arrays, inv_vec on one) by
    row kernels alone: G's own, or in a table with factors each factor's on
    its digit block, through nested products."""
    if not G._factors:
        return (G._mul_rows if method == "mul_vec" else G._inv_rows)(*rows)
    cut = np.cumsum([len(F.radices) for F in G._factors])[:-1]
    blocks = zip(*(np.split(r, cut, axis=1) for r in rows))
    return np.concatenate([kernel_rows(F, method, *b) for F, b in zip(G._factors, blocks)], axis=1)


def kernel_ids(G, method, *ids):
    """G.method(*ids) by kernel_rows on the digit rows, read back with G.id_of_rows."""
    ids = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in ids))
    rows = kernel_rows(G, method, *(G.digits[x.ravel()] for x in ids))
    return G.id_of_rows(rows).reshape(ids[0].shape)


def oracle_bfs(G, gen_rows):
    """A plain BFS of G's identity under the generator rows, one level at
    a time, with a dict from codes to ids: ids go in level order, then in
    code order within a level.  Returns the digit rows, the level ends and,
    per generator g, the ids of the products g x."""
    code = lambda row: int(row @ G._weights)
    rows, ends = [G.digits[0]], []
    ids, frontier, to = {code(rows[0]): 0}, [0], [{} for _ in gen_rows]
    while frontier:
        ends.append(len(rows))
        xs, found = np.array([rows[x] for x in frontier]), {}
        for g, to_g in zip(gen_rows, to):
            for x, y in zip(frontier, kernel_rows(G, "mul_vec", np.tile(g, (len(xs), 1)), xs)):
                to_g[x] = code(y)
                if to_g[x] not in ids:
                    found[to_g[x]] = y
        frontier = list(range(len(rows), len(rows) + len(found)))
        for c in sorted(found):
            ids[c] = len(rows)
            rows.append(found[c])
    return np.array(rows), np.array(ends), [[ids[to_g[x]] for x in range(len(rows))] for to_g in to]


def units(q):
    return [u for u in range(1, q) if math.gcd(u, q) == 1]


@st.composite
def small_generated_groups(draw):
    """(generators, q) from families of groups with at most 2,200 elements:
    GL2 mod 5 or 7, the affine group (1 a; 0 u) mod 35 or 55, the 3x3
    unitriangular group mod 5 or 7 and the translations (1 a b; 0 1 0;
    0 0 1) mod 35; the identity and repeats among them."""
    family = draw(st.sampled_from(["gl2", "affine", "unitriangular", "translations"]))
    entry = lambda q: st.integers(0, q - 1)
    if family == "gl2":
        q = draw(st.sampled_from([5, 7]))
        mat = st.lists(entry(q), min_size=4, max_size=4).filter(lambda e: (e[0] * e[3] - e[1] * e[2]) % q)
        mat = mat.map(lambda e: [e[:2], e[2:]])
    elif family == "affine":
        q = draw(st.sampled_from([35, 55]))
        mat = st.tuples(entry(q), st.sampled_from(units(q))).map(lambda t: [[1, t[0]], [0, t[1]]])
    else:
        q = draw(st.sampled_from([5, 7] if family == "unitriangular" else [35]))
        corner = entry(q) if family == "unitriangular" else st.just(0)
        mat = st.tuples(entry(q), entry(q), corner).map(lambda t: [[1, t[0], t[1]], [0, 1, t[2]], [0, 0, 1]])
    d = 3 if family in ("unitriangular", "translations") else 2
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    mats = draw(st.lists(st.one_of(mat, st.just(identity)), min_size=1, max_size=4))
    if draw(st.booleans()):
        mats.append(mats[0])
    return [RationalMatrix(m) for m in mats], q


def assert_bfs_matches_the_oracle(gens, q):
    G = generate_group(gens, q, symmetrize=False)
    gen_rows = np.array([[x for m in crt_tuple(g, q) for r in m.rows for x in r] for g in gens])
    rows, ends, perms = oracle_bfs(G, gen_rows)
    assert np.array_equal(G.digits, rows)
    assert np.array_equal(G.level_ends, ends)
    assert G.generator_ids.tolist() == [int(G.id_of_rows(r)[0]) for r in gen_rows]
    for s, perm in zip(G.generator_ids.tolist(), perms):
        assert np.array_equal(G._perm_cache["L", s], perm)
        assert np.array_equal(G._perm_cache["L", s], G.translation(s, right=False))


@FEW
@given(case=small_generated_groups())
def test_bfs_matches_a_plain_dict_bfs(case):
    assert_bfs_matches_the_oracle(*case)
    # symmetrized, the generators are the given ones, then their inverses,
    # each distinct element once, in that order
    G, sym = (generate_group(*case, symmetrize=flag) for flag in (False, True))
    firsts = dict.fromkeys(G.generator_ids.tolist() + kernel_ids(G, "inv_vec", G.generator_ids).tolist())
    assert np.array_equal(sym.rows_of(sym.generator_ids), G.rows_of(list(firsts)))


def test_bfs_matches_a_plain_dict_bfs_on_a_long_unipotent_orbit():
    # one generator and its inverse mod 10,007: 5,004 levels, a column orbit
    # of 10,008 vectors and both sorted code indexes
    assert_bfs_matches_the_oracle([RationalMatrix([[1, 2], [0, 1]]), RationalMatrix([[1, -2], [0, 1]])], 10007)


def assert_table_matches_the_oracle(G, gen_rows):
    """G's digit rows, level ends, generator ids and recorded left translations
    equal those of oracle_bfs under the generator rows."""
    rows, ends, perms = oracle_bfs(G, gen_rows)
    assert np.array_equal(G.digits, rows)
    assert np.array_equal(G.level_ends, ends)
    assert G.generator_ids.tolist() == G.id_of_rows(gen_rows).tolist()
    for s, perm in zip(G.generator_ids.tolist(), perms):
        assert np.array_equal(G._perm_cache["L", s], perm)


@pytest.mark.parametrize("build", [
    lambda: (heisenberg_group(3), cyclic_group(4)),
    lambda: (cyclic_group(7), heisenberg_group(3)),
    lambda: (generate_group(builtin_generators("lubotzky3"), 5), cyclic_group(2)),
    lambda: (cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2))),
], ids=["heisenberg 3 x cyclic 4", "cyclic 7 x heisenberg 3", "sl2 mod 5 x cyclic 2", "cyclic 2 x cyclic 2^2"])
def test_direct_products_match_a_plain_dict_bfs(build):
    # the BFS of a direct product under its generators (g, e), then (e, h),
    # which reads no digit rows of its factors
    t1, t2 = build()
    G = direct_product(t1, t2)
    assert "digits" not in vars(t1) and "digits" not in vars(t2)
    gen_rows = [np.concatenate([t1.digits[g], t2.digits[0]]) for g in t1.generator_ids.tolist()]
    gen_rows += [np.concatenate([t1.digits[0], t2.digits[h]]) for h in t2.generator_ids.tolist()]
    assert_table_matches_the_oracle(G, np.array(gen_rows))


def test_factor_tables_whose_generators_meet_mod_one_prime():
    # (1 5; 0 1) is I mod 5 but not mod 35, so the table mod 5 lists I among its
    # generators, and mod 5 the pair and its inverses are three distinct elements
    gens = rational([[1, 5], [0, 1]], [[1, 0], [1, 1]])
    G = generate_group(gens, 35)
    listed = [crt_tuple(m, 35) for m in gens + [g.inverse() for g in gens]]
    for i, F in enumerate(G._factors):
        firsts = dict.fromkeys(tuple(x for r in tup[i].rows for x in r) for tup in listed)
        assert F.rows_of(F.generator_ids).tolist() == [list(row) for row in firsts]
    assert len(G._factors[0].generator_ids) == 3 and G._factors[0].generator_ids[0] == G.identity_id
    assert_table_matches_the_oracle(G, np.array([[x for m in tup for r in m.rows for x in r] for tup in listed]))
    assert product_decompose(G)[1] == {
        "orders": [5, 336], "product_of_orders": 1680, "group_order": 1680, "bijective": True,
    }


@pytest.mark.parametrize("cap", [60, 100])
def test_element_cap_holds_for_the_column_orbit_and_the_group(cap, monkeypatch):
    # SL2 mod 13 has 168 nonzero columns and 2,184 elements: at cap 60 the
    # column orbit passes twice the cap, at 100 only the group passes it
    monkeypatch.delenv("EXPANDERLAB_CAP_ELEMS", raising=False)
    monkeypatch.setattr(quotient, "DEFAULT_ELEMENT_CAP", cap)
    with pytest.raises(SizeCapExceeded, match=rf"^group closure exceeded cap of {cap} elements$"):
        generate_group(builtin_generators("lubotzky3"), 13)
    monkeypatch.setattr(quotient, "DEFAULT_ELEMENT_CAP", 2184)
    assert generate_group(builtin_generators("lubotzky3"), 13).order == 2184


# ----- block spectrum -----


def rational(*rows):
    return [RationalMatrix(m) for m in rows]


# one table from every constructor, all small enough for the dense oracle
SPECTRUM_BUILDS = {
    "cyclic 2": lambda: cyclic_group(2),
    "cyclic 97": lambda: cyclic_group(97),  # generator 1: a single coset of size 97
    "heisenberg 5": lambda: heisenberg_group(5),
    "semidirect borel 5": lambda: semidirect_group(
        SemidirectSpec(p=5, l_gens=[ModMatrix([[1, 1], [0, 1]], 5), ModMatrix([[2, 0], [0, 3]], 5)])
    ),
    "direct product": lambda: direct_product(heisenberg_group(3), cyclic_group(4)),
    "sl2 mod 7": sl2_7,
    "borel mod 35": lambda: generate_group(rational([[2, 0], [0, 18]], [[1, 1], [0, 1]]), 35),
    "involutions mod 7": lambda: generate_group(
        rational([[0, 1], [1, 0]], [[-1, 1], [0, 1]], [[1, 0], [2, -1]]), 7
    ),
}
SPECTRUM_TABLES = {name: build() for name, build in SPECTRUM_BUILDS.items()}


def assert_spectrum_matches_the_dense_solve(G, s_ids):
    graph = CayleyGraph(G, s_ids)
    dense = np.linalg.eigvalsh(graph.dense_operator())[::-1]
    report = spectrum(graph)
    assert not report.partial
    assert np.abs(report.eigenvalues - dense).max() <= 1e-12
    assert [m for _, m in report.clusters] == [m for _, m in _cluster(dense)]


@pytest.mark.parametrize("name", sorted(SPECTRUM_TABLES))
def test_spectrum_of_the_table_generators_matches_the_dense_solve(name):
    G = SPECTRUM_TABLES[name]
    assert_spectrum_matches_the_dense_solve(G, G.generator_ids)


def test_spectrum_with_the_identity_matches_the_dense_solve():
    G = SPECTRUM_TABLES["involutions mod 7"]
    # every generator has order 2, so the table generators give the two
    # real blocks (checked in the test above)
    assert G.order == 672 and (G.mul_vec(G.generator_ids, G.generator_ids) == 0).all()
    # S = {e}: the split element is -I, so T = I is solved in two blocks
    assert_spectrum_matches_the_dense_solve(G, [G.identity_id])
    assert_spectrum_matches_the_dense_solve(G, [G.identity_id, *G.generator_ids])


@pytest.mark.parametrize("name", sorted(SPECTRUM_TABLES))
def test_centre_is_the_elements_that_commute_with_every_element(name):
    G = SPECTRUM_TABLES[name]
    every = np.arange(G.order)
    brute = [(G.mul_vec(x, every) == G.mul_vec(every, x)).all() for x in range(G.order)]
    assert np.array_equal(quotient._centre(G), brute)


def assert_split_element(graph, order):
    """_split_element gives the right translation by an s z of the order."""
    G = graph.table
    perm, m, _ = _split_element(graph)
    h = int(perm[0])
    assert m == order and np.array_equal(perm, G.right_perm(h))
    power, k = h, 1
    while power != G.identity_id:
        power, k = G.mul(power, h), k + 1
    assert k == order
    # h = s z for some s in S and some z that commutes with every element
    every = np.arange(G.order)
    zs = G.mul_vec(G.inv_vec(graph.s_ids), h).tolist()
    assert any((G.mul_vec(z, every) == G.mul_vec(every, z)).all() for z in zs)


@pytest.mark.parametrize("name", ["lubotzky3", "sanov2"])
@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_the_split_element_of_sl2_has_order_2p(name, p):
    # a unipotent generator (order p) times -I
    assert_split_element(CayleyGraph(generate_group(builtin_generators(name), p)), 2 * p)


@pytest.mark.parametrize("name", ["lubotzky3", "sanov2"])
@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_one_block_per_orbit_gives_the_spectrum_of_every_block(name, p):
    # the solve with the units against the solve of every pair {k, m - k}: the eigenvalues
    # repeated across an orbit are those of its other blocks
    graph = CayleyGraph(generate_group(builtin_generators(name), p))
    right, m, units = _split_element(graph)
    assert len(units) == (p - 1) // 2
    reduced = _block_eigenvalues(graph.perms, right, m, graph.degree, units)
    every = _block_eigenvalues(graph.perms, right, m, graph.degree)
    assert np.abs(reduced - every).max() <= 1e-12
    assert [k for _, k in _cluster(reduced)] == [k for _, k in _cluster(every)]


@pytest.mark.parametrize("name", sorted(SPECTRUM_TABLES))
def test_the_units_are_the_powers_in_the_class_of_the_split_element(name):
    # against the classes of quotient's label propagation: the c with g^c in the class of g
    G = SPECTRUM_TABLES[name]
    right, m, units = _split_element(CayleyGraph(G))
    classes = quotient.conjugacy_classes(G)
    cls = next(c for c in classes if right[0] in c)
    power, powers = 0, []
    for _ in range(m):
        powers.append(power)
        power = int(right[power])
    assert units == [c for c in range(m) if powers[c] in cls]


SPLIT_CASES = [
    # S = {e}: the split element is a central element times e
    ("sl2 mod 7", "identity", 2),
    ("borel mod 35", "identity", 2),
    ("direct product", "identity", 12),
    # the centre, of order 5, lies outside every <s>; any s z has order 5
    ("heisenberg 5", "table", 5),
    # Z(H_3) x C_4 of order 12, against generator orders 3 and 4
    ("direct product", "table", 12),
    ("borel mod 35", "table", 70),
]


@pytest.mark.parametrize("name,gens,order", SPLIT_CASES)
def test_spectrum_split_by_a_generator_times_a_central_element(name, gens, order):
    G = SPECTRUM_TABLES[name]
    s_ids = [G.identity_id] if gens == "identity" else G.generator_ids
    assert_split_element(CayleyGraph(G, s_ids), order)
    assert_spectrum_matches_the_dense_solve(G, s_ids)


@FEW
@given(name=st.sampled_from(sorted(SPECTRUM_TABLES)), data=st.data())
def test_spectrum_of_random_symmetric_multisets_matches_the_dense_solve(name, data):
    G = SPECTRUM_TABLES[name]
    picks = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    s_ids = picks + G.inv_vec(picks).tolist()
    if data.draw(st.booleans()):
        s_ids.append(G.identity_id)
    assert_spectrum_matches_the_dense_solve(G, s_ids)


# ----- group laws, CRT orders and walks -----


@FEW
@given(name=st.sampled_from(sorted(SPECTRUM_TABLES)), data=st.data())
def test_mul_vec_has_an_identity_inverses_and_associativity(name, data):
    G = SPECTRUM_TABLES[name]
    every = np.arange(G.order)
    e = np.full(G.order, G.identity_id)
    assert (G.mul_vec(every, e) == every).all() and (G.mul_vec(e, every) == every).all()
    inv = G.inv_vec(every)
    assert (G.mul_vec(every, inv) == e).all() and (G.mul_vec(inv, every) == e).all()
    triples = st.lists(st.integers(0, G.order - 1), min_size=16, max_size=16)
    a, b, c = (np.array(data.draw(triples)) for _ in range(3))
    assert (G.mul_vec(G.mul_vec(a, b), c) == G.mul_vec(a, G.mul_vec(b, c))).all()
    # the broadcast all-pairs form against the pairs written out
    pairs = G.mul_vec(np.repeat(a, len(b)), np.tile(b, len(a)))
    assert np.array_equal(G.mul_vec(a[:, None], b).ravel(), pairs)
    g = int(c[0])
    assert np.array_equal(G.translation(g, right=True), G.mul_vec(every, g))
    assert np.array_equal(G.translation(g, right=False), G.mul_vec(g, every))
    assert np.array_equal(G.right_perm(g), G.mul_vec(every, g))
    assert np.array_equal(G.left_perm(g), G.mul_vec(g, every))
    assert np.array_equal(np.flatnonzero(G.mask(a)), np.unique(a))


@pytest.mark.parametrize("name", sorted(SPECTRUM_TABLES))
def test_trace_moments_equal_the_walk_side(name):
    # Tr(T^2l) = |G| ||chi^(l)||_2^2: both count the closed walks of length 2l
    graph = CayleyGraph(SPECTRUM_TABLES[name])
    report = spectrum(graph)
    for l in range(1, 5):
        assert trace_moment(graph, l, report) == pytest.approx(walk_trace_side(graph, l), rel=1e-9)


def element_orders(G):
    """The order of every element of G, by repeated multiplication."""
    every = np.arange(G.order)
    orders = np.zeros(G.order, dtype=np.int64)
    power, k = every, 1
    while not orders.all():
        orders[(power == G.identity_id) & (orders == 0)] = k
        power, k = G.mul_vec(power, every), k + 1
    return orders


# the image mod 35 is the whole product of the images mod 5 and 7: for
# SL2 because SL2(F_5) and SL2(F_7) share no nontrivial quotient
# (Goursat), for the Borel pair because the factor orders 20 and 21 are
# coprime
@pytest.mark.parametrize("gens", [
    builtin_generators("lubotzky3"),
    rational([[2, 0], [0, 18]], [[1, 1], [0, 1]]),
], ids=["lubotzky3", "borel"])
def test_orders_multiply_across_the_crt_factors(gens):
    G = generate_group(gens, 35)
    F5, F7 = (generate_group(gens, p) for p in (5, 7))
    assert (F5.order, F7.order) == ((120, 336) if len(gens) == 4 else (20, 21))
    assert G.order == F5.order * F7.order
    # the residues of each element mod 5 and mod 7, as ids of the factors
    i5, i7 = F5.id_of_rows(G.digits[:, :4]), F7.id_of_rows(G.digits[:, 4:])
    assert len(np.unique(i5 * F7.order + i7)) == G.order
    assert (element_orders(G) == np.lcm(element_orders(F5)[i5], element_orders(F7)[i7])).all()


# ----- BFS-recorded translations and the walks that use them -----


def assert_translations_recorded(G):
    for s in G.generator_ids.tolist():
        assert ("L", s) in G._perm_cache  # seeded by the BFS, not built on demand
        assert np.array_equal(G.left_perm(s), G.translation(s, right=False))


@pytest.mark.parametrize("name", sorted(SPECTRUM_TABLES))
def test_bfs_records_the_generator_translations(name):
    assert_translations_recorded(SPECTRUM_TABLES[name])


def test_bfs_records_the_translations_with_the_sorted_code_index(monkeypatch):
    dense = sl2_7()
    monkeypatch.setattr(quotient, "ID_INDEX_CAP", 100)
    G = sl2_7()
    assert G._index.codes is not None and dense._index.codes is None
    assert_translations_recorded(G)
    assert np.array_equal(G.digits, dense.digits)
    assert np.array_equal(G.level_ends, dense.level_ends)


@pytest.mark.parametrize("name", sorted(SPECTRUM_TABLES))
def test_level_ends_are_the_word_length_spheres(name):
    G = SPECTRUM_TABLES[name]
    ends = G.level_ends
    assert ends[0] == 1 and ends[-1] == G.order and (np.diff(ends) > 0).all()
    level = np.searchsorted(ends, np.arange(G.order), side="right")
    # the generator sets are symmetric, so the neighbours s x are the s^-1 x
    nearest = np.min([level[G.left_perm(s)] for s in G.generator_ids.tolist()], axis=0)
    assert (nearest[1:] == level[1:] - 1).all()
    # and the spheres are those of the plain BFS that multiplies on the right
    dist, frontier, d = np.full(G.order, -1), np.array([G.identity_id]), 0
    dist[frontier] = 0
    while len(frontier):
        d += 1
        frontier = np.unique(G.mul_vec(frontier[:, None], G.generator_ids))
        frontier = frontier[dist[frontier] < 0]
        dist[frontier] = d
    assert (level == dist).all()


def check_walks_against_full_steps(G, gen_ids, l_max, exact, H):
    """walk_powers (with and without H), the last vector of spectral._walk and, for float
    walks by the table's generators, escape_profile against a plain loop of full walk_step
    calls, compared with ==."""
    S = G.generator_ids.tolist() if gen_ids is None else gen_ids
    ws = [np.array([Fraction(int(i == G.identity_id)) for i in range(G.order)], dtype=object if exact else float)]
    for _ in range(l_max):
        ws.append(walk_step(G, ws[-1], S))

    def l2(w):
        return math.sqrt(float((w * w).sum()))

    for sub, mass in ((None, lambda w: w[G.identity_id]), (H, lambda w: w[H.member].sum())):
        series = walk_powers(G, l_max, gen_ids, H=sub, exact=exact)
        assert series.rows == [WalkRow(l, l2(w), float(w.max()), float(mass(w))) for l, w in enumerate(ws) if l]
    # exact walks yield Python-int word counts, k^l times the weights
    ids, perms, ends = _walk_inputs(G, gen_ids)
    *_, (_, last) = _walk(perms, ends, l_max, exact)
    assert {type(x) for x in last.tolist()} == {int if exact else float}
    got = [Fraction(c, len(ids) ** l_max) for c in last.tolist()] if exact else last.tolist()
    assert got == ws[-1].tolist()
    if not exact and gen_ids is None:
        labels = coset_labels(G, H.element_ids)
        want = []
        for l, w in enumerate(ws[1:], 1):
            m = np.bincount(labels, weights=w, minlength=H.index)
            want.append(EscapeRow(l, l2(w), float(w.max()), float(m[labels[0]]), float(m.max())))
        assert escape_profile(G, H, l_max).rows == want


@FEW
@given(name=st.sampled_from(sorted(SPECTRUM_TABLES)), exact=st.booleans(), data=st.data())
def test_walks_equal_full_walk_steps(name, exact, data):
    G = SPECTRUM_TABLES[name]
    gens = G.generator_ids.tolist()
    gen_ids = data.draw(st.one_of(
        st.none(),
        # a multiset inside S takes the ball-prefix steps, any other the full gathers
        st.lists(st.sampled_from(gens), min_size=1, max_size=5),
        st.lists(st.integers(0, G.order - 1), min_size=1, max_size=4),
    ))
    H = subgroup_closure(G, [data.draw(st.integers(0, G.order - 1))])
    check_walks_against_full_steps(G, gen_ids, data.draw(st.integers(0, 10)), exact, H)


@pytest.mark.parametrize("exact", [True, False])
def test_walks_with_repeats_and_non_generators_equal_full_walk_steps(exact):
    G = SPECTRUM_TABLES["sl2 mod 7"]
    s = int(G.generator_ids[0])
    x = next(i for i in range(1, G.order) if not np.isin(G.inv_vec([i]), G.generator_ids).any())
    H = borel_subgroup(G)
    check_walks_against_full_steps(G, [s, s, x, s], 12, exact, H)
    check_walks_against_full_steps(G, [s, s, G.inv(s)], 12, exact, H)
    # without its inverses a generator set walks outside the balls of its BFS
    A = generate_group(rational([[1, 1], [0, 1]], [[1, 0], [1, 1]]), 7, symmetrize=False)
    check_walks_against_full_steps(A, None, 12, exact, borel_subgroup(A))


def test_a_walk_leaves_the_digit_rows_unbuilt():
    G = generate_group(builtin_generators("lubotzky3"), 29)
    walk_powers(G, 20)
    assert "digits" not in vars(G) and callable(G._digit_rows)
    every = np.arange(G.order)
    assert G.digits.shape == (G.order, 4) and "digits" in vars(G)
    assert np.array_equal(G.id_of_rows(G.rows_of(every)), every)
    assert np.array_equal(G.rows_of(G.id_of_rows(G.digits)), G.digits)


# ----- the sorted id index: int32 keys below 2^31 -----

UNITRIANGULAR_13 = generate_group(UNITRIANGULAR, 13)

# sha256 of G.digits.tobytes(): a table without factors decodes its digit
# rows from its index keys, and these are the rows of its BFS
DIGIT_DIGESTS = {
    "borel mod 35": "1b392eefe8f9d2294cd5bbf00d15c264319f4f405095a4f8d562fac161d40c19",
    "cyclic 2": "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    "cyclic 97": "2f97dc1bbb86e6bf5a52f8b1f23842846f83e0a1d3fc05c2bd9c36756eb7e0b9",
    "direct product": "696df82cbe44c33b0614df5ce0214768659875412ef9e9c8a657af5f32f8a8d9",
    "heisenberg 5": "55017aec79caa7a6a886442cc1b41eff243f48d9e7e36c7dd08abee31b316d2b",
    "involutions mod 7": "d4bb8a02338dea210861d1f18eb7fa7b0c3b14cddfc795a4dd4b2eb2408ebb4f",
    "semidirect borel 5": "de9b68c33b83a29b4bc5b12a0c4d2bd113ca3b4ba2a7823d4c3ef614b77c300c",
    "sl2 mod 7": "c5d6171cff370f8e3bedddbbf1c1fcc178d6398e02af0d825d5d2eea4df057eb",
    "unitriangular mod 13": "c1e469e95865cbb992dee3748983fa32c4f7aad012e394fc8752d1f61bf20e33",
}


@pytest.mark.parametrize("name", sorted(DIGIT_DIGESTS))
def test_the_digit_rows_are_pinned(name):
    G = UNITRIANGULAR_13 if name == "unitriangular mod 13" else SPECTRUM_TABLES[name]
    assert hashlib.sha256(G.digits.tobytes()).hexdigest() == DIGIT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SPECTRUM_BUILDS))
def test_the_sorted_index_builds_the_dense_index_table(name, monkeypatch):
    dense = SPECTRUM_TABLES[name]
    monkeypatch.setattr(quotient, "ID_INDEX_CAP", 0)
    G = SPECTRUM_BUILDS[name]()
    assert dense._index.codes is None and G._index.codes.dtype == G._index.ids.dtype == np.int32
    assert np.array_equal(G.level_ends, dense.level_ends)
    assert np.array_equal(G.generator_ids, dense.generator_ids)
    for s in G.generator_ids.tolist():
        assert np.array_equal(G._perm_cache["L", s], dense._perm_cache["L", s])
    assert np.array_equal(G.digits, dense.digits)
    # every key of the space, the ones without an id as well
    keys = np.arange(len(dense._index.ids))
    assert G._index.lookup(keys).dtype == np.int64
    assert np.array_equal(G._index.lookup(keys), dense._index.lookup(keys))


def test_sl2_mod_61_takes_the_sorted_index_and_builds_the_dense_index_table(monkeypatch):
    gens = builtin_generators("lubotzky3")
    assert 47**4 <= ID_INDEX_CAP < 59**4
    G = generate_group(gens, 61)
    monkeypatch.setattr(quotient, "ID_INDEX_CAP", 1 << 25)
    dense = generate_group(gens, 61)
    assert G._index.codes is not None and G._index.codes.dtype == np.int32 and dense._index.codes is None
    assert np.array_equal(G._index.keys(), dense._index.keys())
    assert np.array_equal(G.level_ends, dense.level_ends)
    assert np.array_equal(G.generator_ids, dense.generator_ids)
    for s in G.generator_ids.tolist():
        assert np.array_equal(G._perm_cache["L", s], dense._perm_cache["L", s])
    assert np.array_equal(G.digits, dense.digits)


@pytest.mark.parametrize("p,dtype", [(7, np.int32), (13, np.int64)])
def test_the_sorted_index_keys_are_int32_below_2_to_the_31(p, dtype):
    assert ID_INDEX_CAP < 7**9 < 2**31 < 13**9
    G = LOOKUP_TABLES[7] if p == 7 else UNITRIANGULAR_13
    assert G._index.codes.dtype == dtype and G._index.ids.dtype == np.int32
    assert_bfs_matches_the_oracle(UNITRIANGULAR, p)
    codes = G.digits @ G._weights
    held = dict(zip(codes.tolist(), range(G.order)))
    probe = np.concatenate([codes, codes + 1, [0, p**9 - 1]])
    ids = G._index.lookup(probe)
    assert ids.dtype == np.int64 and ids.tolist() == [held.get(c, -1) for c in probe.tolist()]


@pytest.mark.parametrize("space,dense", [(1000, True), (1000, False), (1 << 40, False), (1 << 62, False)])
def test_a_level_past_the_limit_leaves_the_index_unchanged(space, dense):
    index = quotient._IdIndex(space, np.array([3, 10, space - 1]), dense)
    assert index.dtype == (np.int32 if space < 2**31 and not dense else np.int64)
    codes = np.array([7, 10, 2, 7, space - 2])
    state = {k: np.copy(v) if isinstance(v, np.ndarray) else v for k, v in vars(index).items()}
    # the new codes 2, 7 and space - 2 take three held ids to six, past a limit of five
    assert index.add(codes.copy(), 5) is None
    assert vars(index).keys() == state.keys()
    assert all(np.array_equal(v, state[k]) for k, v in vars(index).items())
    ids, first = index.add(codes.copy(), 6)
    assert ids.tolist() == [4, 1, 3, 4, 5] and codes[first].tolist() == [2, 7, space - 2]
    found = index.lookup(np.array([2, 3, 4, 7, 10, space - 2, space - 1]))
    assert found.dtype == np.int64 and found.tolist() == [3, 0, -1, 4, 1, 5, 2]


@FEW
@given(start=st.sets(st.integers(0, 999), min_size=1, max_size=20),
       level=st.lists(st.integers(0, 999), min_size=1, max_size=60))
def test_the_packed_sort_and_the_argsort_place_a_level_alike(start, level):
    """One level into a sorted index of space 2^40, which sorts packed values code << b | position,
    one of space 2^62, whose packed values would pass 62 bits, and a dense one, which packs its misses."""
    start, level = np.array(sorted(start)), np.array(level)
    b = len(level).bit_length()
    indexes = [quotient._IdIndex(1 << 40, start, False), quotient._IdIndex(1 << 62, start, False),
               quotient._IdIndex(1000, start, True)]
    assert indexes[0].bits + b < 63 <= indexes[1].bits + b
    held = dict(zip(start.tolist(), itertools.count()))
    new = sorted(set(level.tolist()) - held.keys())
    held.update(zip(new, itertools.count(len(held))))
    for ids, first in [index.add(level.copy(), 2000) for index in indexes]:
        assert ids.tolist() == [held[c] for c in level.tolist()]
        # a new code's first position is its lowest, whichever sort placed it
        assert first.tolist() == [level.tolist().index(c) for c in new]
    packed, by_argsort, dense = indexes
    assert np.array_equal(packed.codes, by_argsort.codes) and np.array_equal(packed.ids, by_argsort.ids)
    for index in indexes:
        assert index.order == len(held) and index.keys().tolist() == list(held)


# ----- the product table of small groups -----


def lemmas_semidirect_5():
    """The semidirect group of the lemmas subcommand at p = 5, of order 3,000."""
    return semidirect_group(
        SemidirectSpec(p=5, l_gens=[ModMatrix([[1, 3], [0, 1]], 5), ModMatrix([[1, 0], [3, 1]], 5)])
    )


PRODUCT_TABLES = {
    **SPECTRUM_TABLES,
    "unsymmetrized mod 7": generate_group(
        rational([[1, 1], [0, 1]], [[1, 0], [1, 1]]), 7, symmetrize=False
    ),
    "sl2 mod 5": generate_group(builtin_generators("lubotzky3"), 5),
    "lemmas semidirect 5": lemmas_semidirect_5(),
}


def assert_table_path_is_the_kernel_path(G, method, *args):
    """G.method(*args) from the product table and inverse permutation
    against the path past the cap, which every table takes with the cap at
    0: the digit kernels, or in a table with factors its factors' kernels."""
    got = getattr(G, method)(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotient, "PRODUCT_TABLE_CAP", 0)
        want = getattr(G, method)(*args)
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(PRODUCT_TABLES))
def test_the_product_table_answers_as_the_kernels_on_every_element(name):
    G = PRODUCT_TABLES[name]
    assert G.order <= quotient.PRODUCT_TABLE_CAP
    every = np.arange(G.order)
    assert_table_path_is_the_kernel_path(G, "inv_vec", every)
    if G.order <= 400:
        assert_table_path_is_the_kernel_path(G, "mul_vec", every[:, None], every)


@FEW
@given(name=st.sampled_from(sorted(PRODUCT_TABLES)), data=st.data())
def test_the_product_table_answers_as_the_kernels_on_random_ids(name, data):
    G = PRODUCT_TABLES[name]
    # -1 wraps to the last id on both paths
    ids = st.lists(st.integers(-1, G.order - 1), max_size=32)
    a, b = (np.array(data.draw(ids), dtype=np.int64) for _ in range(2))
    g = data.draw(st.integers(-1, G.order - 1))
    check = assert_table_path_is_the_kernel_path
    # an outer product reads the table's rows when its row side is the shorter one
    check(G, "mul_vec", a[:, None], b)
    check(G, "mul_vec", b[:, None], a)
    check(G, "mul_vec", a[: len(b)], b[: len(a)])
    check(G, "mul_vec", g, b)
    check(G, "mul_vec", a, g)
    check(G, "mul_vec", g, -1)
    check(G, "mul_vec", a[:0, None], b)
    check(G, "inv_vec", a)
    check(G, "inv_vec", g)


LEMMAS_LEVI_5 = [ModMatrix([[1, 3], [0, 1]], 5), ModMatrix([[1, 0], [3, 1]], 5)]
SEMIDIRECT_TABLES = {
    "semidirect borel 5": SPECTRUM_TABLES["semidirect borel 5"],
    "lemmas semidirect 5": PRODUCT_TABLES["lemmas semidirect 5"],
    "lemmas semidirect 5, trivial action": semidirect_group(
        SemidirectSpec(p=5, l_gens=LEMMAS_LEVI_5, action="trivial")),
    "sl2 mod 3 on heisenberg 3": semidirect_group(SemidirectSpec(
        p=3, l_gens=[ModMatrix([[1, 1], [0, 1]], 3), ModMatrix([[1, 0], [1, 1]], 3)], u_kind="heisenberg")),
}


@pytest.mark.parametrize("name", sorted(SEMIDIRECT_TABLES))
def test_the_unipotent_mask_is_the_written_out_kernel(name):
    t = SEMIDIRECT_TABLES[name]
    d, p, u_len = t.meta["dim"], t.meta["p"], t.meta["u_len"]
    # the kernel of beta written out: the rows (identity, u) for every u
    u = np.indices((p,) * u_len).reshape(u_len, -1).T
    kernel = t.mask(t.id_of_rows(np.hstack([np.tile(np.eye(d, dtype=np.int64).ravel(), (len(u), 1)), u])))
    assert np.array_equal(unipotent_mask(t), kernel)
    assert levi_mask(t).sum() * kernel.sum() == t.order  # |G| = |L||U|


@pytest.mark.parametrize("name", sorted(PRODUCT_TABLES))
def test_the_product_table_rows_are_the_right_translations(name):
    G = PRODUCT_TABLES[name]
    P = G._products()
    for b in [*range(0, G.order, max(1, G.order // 64)), G.order - 1]:
        assert np.array_equal(P[b], G.translation(b, right=True))


@FEW
@given(name=st.sampled_from(sorted(PRODUCT_TABLES)), data=st.data())
def test_product_sets_are_the_kernel_products(name, data):
    G = PRODUCT_TABLES[name]
    ids = st.lists(st.integers(0, G.order - 1), min_size=1, max_size=80)
    A, B = (ElementSet.from_ids(G, data.draw(ids)) for _ in range(2))
    want = np.unique(G._apply("mul_vec", A.ids[:, None], B.ids))
    assert np.array_equal(product_set(A, B).ids, want)


@FEW
@given(name=st.sampled_from(sorted(PRODUCT_TABLES)), b_kind=st.sampled_from(["with 1", "without 1", "one id"]),
       data=st.data())
def test_product_sets_of_a_dense_set_are_the_kernel_products(name, b_kind, data):
    G = PRODUCT_TABLES[name]
    if b_kind == "with 1":
        B = ElementSet.from_ids(G, [G.identity_id, *data.draw(st.lists(st.integers(0, G.order - 1), max_size=8))])
    elif b_kind == "without 1":
        B = ElementSet.from_ids(G, data.draw(st.lists(st.integers(1, G.order - 1), min_size=1, max_size=8)))
    else:
        B = ElementSet.from_ids(G, [data.draw(st.integers(0, G.order - 1))])
    # A is the complement of a few ids and of x B^-1, so x lies outside A.B, which is
    # then found by testing what A.b0 misses
    x = data.draw(st.integers(0, G.order - 1))
    holes = [*data.draw(st.lists(st.integers(0, G.order - 1), max_size=80)), *G.mul_vec(x, G.inv_vec(B.ids)).tolist()]
    A = ElementSet(G, np.flatnonzero(~G.mask(holes)))
    want = np.unique(G._apply("mul_vec", A.ids[:, None], B.ids))
    assert np.array_equal(product_set(A, B).ids, want)


def test_the_product_table_is_built_only_by_mul_vec_and_only_up_to_the_cap():
    G = generate_group(builtin_generators("lubotzky3"), 13)
    spectrum(CayleyGraph(G))
    walk_powers(G, 6)
    walk_powers(G, 6, exact=True)
    # spectra and walks never multiply ids, so they never pay for the n^2 table
    assert ("P", 0) not in G._perm_cache
    # a call of fewer than order pairs takes the row kernels, and one of order pairs builds the table
    G.mul_vec(0, 1)
    G.mul_vec(np.arange(G.order - 1), 1)
    assert ("P", 0) not in G._perm_cache
    G.mul_vec(1, np.arange(G.order))
    assert G._perm_cache["P", 0].dtype == np.int16
    assert G._perm_cache["P", 0].shape == (G.order, G.order)
    # so does the order-th call, however small
    H = generate_group(builtin_generators("lubotzky3"), 5)
    for x in range(H.order - 1):
        H.mul_vec(x, 1)
    assert ("P", 0) not in H._perm_cache
    H.mul_vec(0, 1)
    assert H._perm_cache["P", 0].shape == (H.order, H.order)
    big = heisenberg_group(17)
    assert big.order > quotient.PRODUCT_TABLE_CAP
    every = np.arange(big.order)
    assert (big.mul_vec(every, big.inv_vec(every)) == big.identity_id).all()
    assert ("P", 0) not in big._perm_cache and ("I", 0) not in big._perm_cache


# the product table is built on the first call of at least order pairs, or on the order-th call
KERNELS_FIRST = {"lemmas semidirect 5": lemmas_semidirect_5, "sl2 mod 7": sl2_7}


@FEW
@given(name=st.sampled_from(sorted(KERNELS_FIRST)), data=st.data())
def test_mul_vec_gives_the_same_ids_before_and_after_the_product_table(name, data):
    G = KERNELS_FIRST[name]()
    ids = st.lists(st.integers(0, G.order - 1), max_size=16).map(lambda x: np.array(x, dtype=np.int64))
    a, b = data.draw(ids), data.draw(ids)
    g = data.draw(st.integers(0, G.order - 1))
    calls = [(a[:, None], b), (a[: len(b)], b[: len(a)]), (g, b), (a, g), (g, g), (a[:0, None], b)]
    before = [G.mul_vec(*args) for args in calls]
    assert ("P", 0) not in G._perm_cache
    G.mul_vec(np.arange(G.order), g)
    assert ("P", 0) in G._perm_cache
    for args, want in zip(calls, before):
        got = G.mul_vec(*args)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want)


# ----- products through the per-prime factors of composite tables -----

# with the product-table cap at 48 these tables lie above it and their
# per-prime factors below it, and they are small enough for all pairs
FACTORED_CAP = 48
FACTORED_TABLES = {
    # B_5 x B_7, order 840: one diagonal generator per prime
    "borel mod 35": generate_group(rational([[22, 0], [0, 8]], [[31, 0], [0, 26]], [[1, 1], [0, 1]]), 35),
    # diag(17, 33) has orders 4 mod 5 and 6 mod 7, so this is the subgroup
    # of index 2 in B_5 x B_7
    "index-2 borel mod 35": generate_group(rational([[17, 0], [0, 33]], [[1, 1], [0, 1]]), 35),
    # -u has orders 10, 14 and 22 mod 5, 7 and 11: cyclic, of order 70 in a
    # product of order 140, and of order 770 in one of order 3,080
    "cyclic mod 35": generate_group(rational([[34, 34], [0, 34]]), 35),
    "cyclic mod 385": generate_group(rational([[384, 384], [0, 384]]), 385),
    # a product table, of order 189, with factors of orders 7 and 27
    "cyclic 7 x heisenberg 3": direct_product(cyclic_group(7), heisenberg_group(3)),
}
# above the default cap, with factors of orders 120 and 336 below it
SL2_35 = generate_group(builtin_generators("lubotzky3"), 35)
# above the default cap, with a factor of order 4,913 above it too
HEISENBERG_17_X_2 = direct_product(heisenberg_group(17), cyclic_group(2))


def assert_factored_path_is_the_kernel_path(G, method, *args, cap=FACTORED_CAP):
    """G.method(*args) with the product-table cap at cap, through the
    factors, as G holds no row kernels, against the factors' row kernels."""
    assert G._mul_rows is None and G._inv_rows is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotient, "PRODUCT_TABLE_CAP", cap)
        got = getattr(G, method)(*args)
    want = kernel_ids(G, method, *args)
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(FACTORED_TABLES))
def test_the_factored_path_answers_as_the_kernels_on_every_element(name):
    G = FACTORED_TABLES[name]
    # product_decompose refuses a product table, whose factors the projection holds
    if G.kind == "matrix":
        factors, report = product_decompose(G)
        assert factors == G._factors and report["bijective"] == (name == "borel mod 35")
    orders = [F.order for F in G._factors]
    assert FACTORED_CAP < G.order and max(orders) <= FACTORED_CAP
    assert (math.prod(orders) == G.order) == (name in ("borel mod 35", "cyclic 7 x heisenberg 3"))
    every = np.arange(G.order)
    assert_factored_path_is_the_kernel_path(G, "inv_vec", every)
    assert_factored_path_is_the_kernel_path(G, "mul_vec", every[:, None], every)
    # keyed by factor ranks, the dense index holds -1 off the table
    assert G._index.codes is None and len(G._index.ids) == math.prod(orders)
    assert (G._index.ids >= 0).sum() == G.order


@FEW
@given(name=st.sampled_from(sorted(FACTORED_TABLES) + ["sl2 mod 35", "heisenberg 17 x cyclic 2"]), data=st.data())
def test_the_factored_path_answers_as_the_kernels_on_random_ids(name, data):
    if name == "sl2 mod 35":
        G, cap = SL2_35, quotient.PRODUCT_TABLE_CAP
    elif name == "heisenberg 17 x cyclic 2":
        G, cap = HEISENBERG_17_X_2, quotient.PRODUCT_TABLE_CAP
    else:
        G, cap = FACTORED_TABLES[name], FACTORED_CAP
    # -1 wraps to the last id on both paths
    ids = st.lists(st.integers(-1, G.order - 1), max_size=32)
    a, b = (np.array(data.draw(ids), dtype=np.int64) for _ in range(2))
    g = data.draw(st.integers(-1, G.order - 1))
    for method, *args in [
        ("mul_vec", a[:, None], b),
        ("mul_vec", a[: len(b)], b[: len(a)]),
        ("mul_vec", g, b),
        ("mul_vec", a, g),
        ("mul_vec", g, -1),
        ("mul_vec", a[:0, None], b),
        ("inv_vec", a),
        ("inv_vec", g),
    ]:
        assert_factored_path_is_the_kernel_path(G, method, *args, cap=cap)


def test_a_table_with_factors_multiplies_without_its_digit_rows():
    G = direct_product(heisenberg_group(17), cyclic_group(2))
    assert G.order == 9826 and G._factors[0].order > quotient.PRODUCT_TABLE_CAP
    every, g = np.arange(G.order), 4913
    got = [G.mul_vec(every, every[::-1]), G.inv_vec(every), G.right_perm(g), G.conj_perm(g)]
    assert "digits" not in G.__dict__
    g_x_g_inv = kernel_ids(G, "mul_vec", kernel_ids(G, "mul_vec", g, every), kernel_ids(G, "inv_vec", g))
    want = [kernel_ids(G, "mul_vec", every, every[::-1]), kernel_ids(G, "inv_vec", every),
            kernel_ids(G, "mul_vec", every, g), g_x_g_inv]
    assert all(np.array_equal(x, y) for x, y in zip(got, want))
    # the centre of SL2 mod 35 reads the right translations of its generators
    S = generate_group(builtin_generators("lubotzky3"), 35)
    centre = np.flatnonzero(quotient._centre(S))
    assert "digits" not in S.__dict__
    assert sorted(S.rows_of(centre).tolist()) == [[a, 0, 0, a, b, 0, 0, b] for a in (1, 4) for b in (1, 6)]


@pytest.mark.parametrize("name", sorted(SPECTRUM_TABLES) + ["sl2 mod 85"])
def test_a_translation_is_mul_vec_on_every_element(name):
    # a table with factors gathers each factor's translation at the factor ids,
    # where _apply runs mul_vec in each factor on one id per element
    G = generate_group(builtin_generators("lubotzky3"), 85) if name == "sl2 mod 85" else SPECTRUM_TABLES[name]
    every = np.arange(G.order)
    for g in [*G.generator_ids.tolist(), G.order - 1]:
        assert np.array_equal(G.translation(g, right=True), G._apply("mul_vec", every, g))
        assert np.array_equal(G.translation(g, right=False), G._apply("mul_vec", g, every))


# ----- the id index of composite tables, keyed by factor ranks -----

COMPOSITE_SL2 = {(name, q): generate_group(builtin_generators(name), q)
                 for name in ("lubotzky3", "sanov2") for q in (35, 55)}


@pytest.mark.parametrize("name,q", sorted(COMPOSITE_SL2))
def test_the_factor_rank_index_keeps_the_digit_code_order(name, q):
    G = COMPOSITE_SL2[name, q]
    assert G._index.codes is None and len(G._index.ids) == G.order
    # within each BFS level, ids go in increasing digit code order
    codes = G.digits @ G._weights
    for lo, hi in zip([0, *G.level_ends[:-1]], G.level_ends):
        assert (np.diff(codes[lo:hi]) > 0).all()
    assert np.array_equal(G.id_of_rows(G.digits), np.arange(G.order))
    # each element's factor ids are the ids of its mod-p blocks
    blocks = np.split(G.digits, len(G._factors), axis=1)
    assert np.array_equal(G._factor_ids, [F.id_of_rows(b) for F, b in zip(G._factors, blocks)])


def test_a_row_in_a_hole_of_the_factor_rank_index_is_not_in_the_table():
    # <-I> mod 35 has order 2 inside the product of its images, of order 4
    G = generate_group(rational([[-1, 0], [0, -1]]), 35)
    assert G.order == 2 and [F.order for F in G._factors] == [2, 2]
    assert G.id_of_rows([[1, 0, 0, 1, 1, 0, 0, 1], [4, 0, 0, 4, 6, 0, 0, 6]]).tolist() == [0, 1]
    for row in ([1, 0, 0, 1, 6, 0, 0, 6], [4, 0, 0, 4, 1, 0, 0, 1]):
        with pytest.raises(NotInGroup):
            G.id_of_rows([row])


# ----- subgroup and normal closures -----

CLOSURE_TABLES = {
    "sl2 mod 5": PRODUCT_TABLES["sl2 mod 5"],
    "heisenberg 5": SPECTRUM_TABLES["heisenberg 5"],
    "lemmas semidirect 5": PRODUCT_TABLES["lemmas semidirect 5"],
    "cyclic 4 x cyclic 6": direct_product(cyclic_group(4), cyclic_group(6)),
}


def brute_subgroup(G, ids):
    """The subgroup generated by ids: {e} and ids, squared as a set until
    it stops growing, so closed under products with no BFS or inverses."""
    S = np.union1d([G.identity_id], np.asarray(ids, dtype=np.int64))
    while True:
        T = np.flatnonzero(G.mask(G.mul_vec(S[:, None], S)))
        if len(T) == len(S):
            return S
        S = T


def all_conjugates(G, ids):
    """g x g^-1 for every g in G (rows) and x in ids (columns)."""
    every = np.arange(G.order)
    return G.mul_vec(G.mul_vec(every[:, None], ids), G.inv_vec(every)[:, None])


def closure_seeds(G, data):
    return np.array(data.draw(st.lists(st.integers(0, G.order - 1), max_size=3)), dtype=np.int64)


@FEW
@given(name=st.sampled_from(sorted(CLOSURE_TABLES)), data=st.data())
def test_normal_closure_is_the_subgroup_of_all_conjugates(name, data):
    G = CLOSURE_TABLES[name]
    seeds = closure_seeds(G, data)
    conjugates = all_conjugates(G, seeds).ravel()
    want = subgroup_closure(G, conjugates).element_ids
    assert np.array_equal(want, brute_subgroup(G, conjugates))
    got = normal_closure(G, seeds)
    assert got.dtype == np.int64 and np.array_equal(got, want)


LEMMAS_SL2_35 = generate_group(builtin_generators("lubotzky3"), 35)

# the two tables whose normal subgroups the lemmas subcommand lists at p = 5,
# each with a pool of ids whose normal closures are proper: the elements
# trivial in one prime factor, and the unipotent part
NORMAL_CLOSURE_POOLS = {
    "sl2 mod 35": (LEMMAS_SL2_35, np.flatnonzero((LEMMAS_SL2_35._factor_ids == 0).any(axis=0))),
    "lemmas semidirect 5": (CLOSURE_TABLES["lemmas semidirect 5"],
                            np.flatnonzero(quotient.unipotent_mask(CLOSURE_TABLES["lemmas semidirect 5"]))),
}


@FEW
@given(name=st.sampled_from(sorted(NORMAL_CLOSURE_POOLS)), proper=st.booleans(), data=st.data())
def test_normal_closure_over_classes_is_the_conjugation_closure(name, proper, data):
    G, pool = NORMAL_CLOSURE_POOLS[name]
    picks = st.sampled_from(pool.tolist()) if proper else st.integers(0, G.order - 1)
    seeds = np.array(data.draw(st.lists(picks, max_size=3)), dtype=np.int64)
    got = normal_closure(G, seeds)
    assert got.dtype == np.int64 and (np.diff(got) > 0).all()
    assert np.array_equal(got, subgroup_closure(G, all_conjugates(G, seeds).ravel()).element_ids)
    member = G.mask(got)
    assert all(member[c].all() or not member[c].any() for c in conjugacy_classes(G))


def flags_by_their_definitions(G, H):
    """(normal, perfect): g h g^-1 in H for every g in G and h in H, and H generated by the [h, h']."""
    derived = brute_subgroup(G, G.comm_vec(H.element_ids[:, None], H.element_ids).ravel())
    return bool(H.member[all_conjugates(G, H.element_ids)].all()), len(derived) == H.size


@FEW
@given(name=st.sampled_from(sorted(CLOSURE_TABLES)), data=st.data())
def test_subgroup_flags_match_their_definitions(name, data):
    G = CLOSURE_TABLES[name]
    seeds = closure_seeds(G, data)
    H = subgroup_closure(G, seeds)
    assert np.array_equal(H.element_ids, brute_subgroup(G, seeds))
    assert (H.normal, H.perfect) == flags_by_their_definitions(G, H)


def flags_with_no_conjugation_permutation(H):
    """(normal, perfect) of H, read while conj_perm fails."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quotient.GroupTable, "conj_perm", lambda *a: pytest.fail("a conjugation permutation was built"))
        return H.normal, H.perfect


SL2_13 = generate_group(builtin_generators("lubotzky3"), 13)


@pytest.mark.parametrize("record", [borel_subgroup, torus_subgroup], ids=["borel", "torus"])
def test_named_subgroup_flags_are_products_of_generators(record):
    H = record(SL2_13)
    assert flags_with_no_conjugation_permutation(H) == flags_by_their_definitions(SL2_13, H) == (False, False)


@FEW
@given(data=st.data())
def test_flags_of_subgroups_that_are_not_normal_are_products_of_generators(data):
    # Levi elements generate a subgroup of L, which moves U; with a unipotent one it may reach G
    G = CLOSURE_TABLES["lemmas semidirect 5"]
    levi, unipotent = np.flatnonzero(levi_mask(G)).tolist(), np.flatnonzero(unipotent_mask(G)).tolist()
    seeds = data.draw(st.lists(st.sampled_from(levi), min_size=1, max_size=2)) + data.draw(
        st.lists(st.sampled_from(unipotent), max_size=1))
    H = subgroup_closure(G, seeds)
    assume(H.size < G.order)
    want = flags_by_their_definitions(G, H)
    assume(not want[0])
    assert flags_with_no_conjugation_permutation(H) == want


@pytest.mark.parametrize("name", ["sl2 mod 5", "lemmas semidirect 5"])
def test_normal_subgroup_records_read_their_perfection(name):
    # a record's seeds generate it only as a normal subgroup
    G = CLOSURE_TABLES[name]
    records = normal_subgroups(G)
    for H in records:
        derived = brute_subgroup(G, G.comm_vec(H.element_ids[:, None], H.element_ids).ravel())
        assert H.perfect == (len(derived) == H.size), H.size
    assert records[-1].size == G.order and records[-1].perfect


@pytest.mark.parametrize("name,perfect", [
    ("sl2 mod 5", True), ("heisenberg 5", False),
    ("lemmas semidirect 5", True), ("cyclic 4 x cyclic 6", False),
])
def test_is_perfect_matches_the_derived_subgroup(name, perfect):
    G = CLOSURE_TABLES[name]
    every = np.arange(G.order)
    derived = brute_subgroup(G, G.comm_vec(every[:, None], every).ravel())
    assert (len(derived) == G.order) == perfect
    assert is_perfect(G) == perfect


@pytest.mark.parametrize("U", [
    heisenberg_group(3),
    heisenberg_group(7),
    # a 3-group of class 3: the unipotent Levi part acting on the Heisenberg group
    semidirect_group(SemidirectSpec(p=3, l_gens=[ModMatrix([[1, 1], [0, 1]], 3)], u_kind="heisenberg")),
], ids=["heisenberg 3", "heisenberg 7", "class-3 group of order 81"])
def test_lower_central_series_is_the_chain_of_all_commutator_subgroups(U):
    every = np.arange(U.order)
    want = [every]
    while len(want[-1]) > 1:
        want.append(brute_subgroup(U, U.comm_vec(every[:, None], want[-1]).ravel()))
    got = lower_central_series(U)
    assert [len(c) for c in got] == [len(c) for c in want]
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


# ----- the structure checks, decided by count -----

TOOLS = Path(__file__).parents[1] / "tools"

# the mod-35 tables whose normal subgroups the lemmas subcommand checks for product form: SL2
# from both builtins, the solvable Borel pair, a parabolic pair, and a cyclic group of order 70
# inside factors of orders 10 and 14, whose embedded copies are smaller than the factors
FACTOR_FORM_TABLES = {
    "lubotzky3": LEMMAS_SL2_35,
    "sanov2": generate_group(builtin_generators("sanov2"), 35),
    **{name: generate_group(parse_generators(str(TOOLS / f"{name}.txt"))[0], 35)
       for name in ("borel_half", "parabolic_2_3", "cyclic_70_4x4")},
}


# with a unipotent Levi part, some normal subgroups do not split: the diagonals of Z/5 x Z/5, and
# four subgroups of order 25 of the group of order 125 in which (1 1; 0 1) moves F_5^2
UNIPOTENT_5 = [ModMatrix([[1, 1], [0, 1]], 5)]
SPLITTING_TABLES = {
    **SEMIDIRECT_TABLES,
    "unipotent 5 on F_5, trivial action": semidirect_group(
        SemidirectSpec(p=5, l_gens=UNIPOTENT_5, u_dim=1, action="trivial")),
    "unipotent 5 on F_5^2": semidirect_group(SemidirectSpec(p=5, l_gens=UNIPOTENT_5)),
}


def digit_slice_masks(G):
    """The Levi subgroup and the unipotent part of a semidirect table read off its digit rows:
    the rows whose U digits are 0, and those whose Levi digits are the identity's."""
    dd = G.meta["l_digits"]
    return (G.digits[:, dd:] == 0).all(axis=1), (G.digits[:, :dd] == G.digits[G.identity_id, :dd]).all(axis=1)


def product_form_by_the_product_set(G, H):
    """verify_product_form with H rebuilt as the product set (H cap L)(H cap U) of the
    digit-slice masks, beside the same commutator scan."""
    if not H.normal:
        raise NotNormal("product form is asserted for normal subgroups")
    lmask, umask = digit_slice_masks(G)
    hl, hu = H.element_ids[lmask[H.element_ids]], H.element_ids[umask[H.element_ids]]
    prod = np.unique(G.mul_vec(hl[:, None], hu))
    splits = prod.size == H.size and bool(H.member[prod].all())
    u_ids = np.flatnonzero(umask)
    bad = np.argwhere(~G.mask(hu)[G.comm_vec(hl[:, None], u_ids)])
    witness = (int(hl[bad[0, 0]]), int(u_ids[bad[0, 1]])) if len(bad) else None
    return {"splits": splits, "acts_trivially": witness is None, "passed": splits and witness is None,
            "witness": witness, "h_cap_l": len(hl), "h_cap_u": len(hu)}


def factor_form_by_the_product_set(G, H):
    """verify_factor_product_form with H rebuilt as the product set of the embedded factor
    copies inside H times the central elements of H."""
    at_ident = G._factor_ids == 0
    inside, core = [], np.array([G.identity_id])
    for i in range(len(at_ident)):
        f_ids = np.flatnonzero(np.delete(at_ident, i, axis=0).all(axis=0))
        if H.member[f_ids].all():
            inside.append(i)
            core = np.unique(G.mul_vec(core[:, None], f_ids))
    z_ids = np.flatnonzero(quotient._centre(G) & H.member)
    full = np.unique(G.mul_vec(core[:, None], z_ids))
    return {"passed": full.size == H.size and bool(H.member[full].all()), "factors_inside": inside,
            "central_size": len(z_ids), "rebuilt_size": int(full.size)}


def check_or_refusal(check, G, H):
    try:
        return check(G, H)
    except NotNormal:
        return "not normal"


@pytest.mark.parametrize("name", sorted(FACTOR_FORM_TABLES))
def test_the_factor_form_count_is_the_product_set_on_every_normal_subgroup(name):
    G = FACTOR_FORM_TABLES[name]
    for H in normal_subgroups(G):
        assert verify_factor_product_form(G, H) == factor_form_by_the_product_set(G, H), H.size


@pytest.mark.parametrize("name", sorted(SPLITTING_TABLES))
def test_the_splitting_count_is_the_product_set_on_every_normal_subgroup(name):
    G = SPLITTING_TABLES[name]
    for H in normal_subgroups(G):
        assert verify_product_form(G, H) == product_form_by_the_product_set(G, H), H.size


def product_form_with_the_commutator_scan(G, H):
    """verify_product_form with its action check written out: the splitting count beside a scan
    of every commutator [h, u], h in H cap L and u in U, for the first one outside H cap U."""
    if not H.normal:
        raise NotNormal("product form is asserted for normal subgroups")
    hl = H.element_ids[levi_mask(G)[H.element_ids]]
    hu = H.element_ids[unipotent_mask(G)[H.element_ids]]
    splits = len(hl) * len(hu) == H.size
    u_ids = np.flatnonzero(unipotent_mask(G))
    bad = np.argwhere(~G.mask(hu)[G.comm_vec(hl[:, None], u_ids)])  # in row-major order
    witness = (int(hl[bad[0, 0]]), int(u_ids[bad[0, 1]])) if len(bad) else None
    return {"splits": splits, "acts_trivially": witness is None, "passed": splits and witness is None,
            "witness": witness, "h_cap_l": len(hl), "h_cap_u": len(hu)}


@pytest.mark.parametrize("name", sorted(SEMIDIRECT_TABLES) + ["lemmas semidirect 7"])
def test_the_splitting_check_is_the_commutator_scan_on_every_normal_subgroup(name, monkeypatch):
    lemmas_levi_7 = [ModMatrix([[1, 3], [0, 1]], 7), ModMatrix([[1, 0], [3, 1]], 7)]
    G = (SEMIDIRECT_TABLES[name] if name in SEMIDIRECT_TABLES
         else semidirect_group(SemidirectSpec(p=7, l_gens=lemmas_levi_7)))
    normals = normal_subgroups(G)
    expected = [product_form_with_the_commutator_scan(G, H) for H in normals]
    monkeypatch.setattr(quotient.GroupTable, "comm_vec", lambda *a: pytest.fail("a commutator was formed"))
    assert [verify_product_form(G, H) for H in normals] == expected


@FEW
@given(name=st.sampled_from(sorted(FACTOR_FORM_TABLES) + sorted(SPLITTING_TABLES)), normal=st.booleans(),
       data=st.data())
def test_the_structure_counts_are_the_product_sets_on_drawn_closures(name, normal, data):
    # seeds trivial in a factor, or in the Levi part, give proper closures more often
    if name in FACTOR_FORM_TABLES:
        G, check, oracle = FACTOR_FORM_TABLES[name], verify_factor_product_form, factor_form_by_the_product_set
        pool = np.flatnonzero((G._factor_ids == 0).any(axis=0))
    else:
        G, check, oracle = SPLITTING_TABLES[name], verify_product_form, product_form_by_the_product_set
        pool = np.flatnonzero(digit_slice_masks(G)[1])
    picks = st.sampled_from(pool.tolist()) | st.integers(0, G.order - 1)
    seeds = np.array(data.draw(st.lists(picks, max_size=3)), dtype=np.int64)
    H = SubgroupRecord(G, seeds, normal_closure(G, seeds)) if normal else subgroup_closure(G, seeds)
    assert check_or_refusal(check, G, H) == check_or_refusal(oracle, G, H)


@pytest.mark.parametrize("name", sorted(SPLITTING_TABLES))
def test_the_levi_and_unipotent_masks_are_the_digit_slices(name):
    G = SPLITTING_TABLES[name]
    levi, unipotent = digit_slice_masks(G)
    assert np.array_equal(levi_mask(G), levi) and np.array_equal(unipotent_mask(G), unipotent)


@pytest.mark.parametrize("name", ["lubotzky3", "cyclic_70_4x4"])
def test_the_factor_form_check_multiplies_no_elements(name, monkeypatch):
    G = FACTOR_FORM_TABLES[name]
    cases = [(H, factor_form_by_the_product_set(G, H)) for H in normal_subgroups(G)]

    def refuse(self, a_ids, b_ids):
        raise AssertionError("mul_vec called")

    monkeypatch.setattr(quotient.GroupTable, "mul_vec", refuse)
    for H, want in cases:
        assert verify_factor_product_form(G, H) == want


# ----- conjugacy classes and normal subgroups -----

CLASS_TABLES = {
    "sl2 mod 5": CLOSURE_TABLES["sl2 mod 5"],
    "sl2 mod 7": generate_group(builtin_generators("lubotzky3"), 7),
    "heisenberg 5": SPECTRUM_TABLES["heisenberg 5"],
    "cyclic 4 x cyclic 6": CLOSURE_TABLES["cyclic 4 x cyclic 6"],
    # no inverses among the generators, so conjugation by them alone must
    # reach every conjugate
    "non-symmetric pair mod 7": generate_group(
        rational([[1, 1], [0, 1]], [[1, 0], [1, 1]]), 7, symmetrize=False
    ),
}


def brute_classes(G):
    """The sets {g x g^-1 : g in G}, ordered by least element."""
    conj = all_conjugates(G, np.arange(G.order))
    return sorted({tuple(np.unique(conj[:, x]).tolist()) for x in range(G.order)})


@pytest.mark.parametrize("name", sorted(CLASS_TABLES))
def test_conjugacy_classes_are_the_sets_of_all_conjugates(name):
    G = CLASS_TABLES[name]
    got = conjugacy_classes(G)
    assert all(c.dtype == np.int64 for c in got)
    assert [tuple(c.tolist()) for c in got] == brute_classes(G)


@pytest.mark.parametrize("G", [
    CLASS_TABLES["sl2 mod 5"], heisenberg_group(3), cyclic_group(12),
    direct_product(cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2))),
], ids=["sl2 mod 5", "heisenberg 3", "cyclic 12", "cyclic 2 cubed"])
def test_normal_subgroups_are_the_unions_of_classes_closed_under_products(G):
    classes = [np.array(c, dtype=np.int64) for c in brute_classes(G) if c != (G.identity_id,)]
    want = []
    for picks in itertools.product([False, True], repeat=len(classes)):
        S = np.sort(np.concatenate([[G.identity_id]] + [c for c, on in zip(classes, picks) if on]))
        if np.isin(G.mul_vec(S[:, None], S), S).all():
            want.append(S)
    want.sort(key=lambda S: (S.size, S.tobytes()))
    got = normal_subgroups(G)
    assert [H.element_ids.tolist() for H in got] == [S.tolist() for S in want]
    for H in got:
        assert np.array_equal(H.element_ids, normal_closure(G, H.generator_ids))
        assert np.array_equal(H.member, G.mask(H.element_ids))
        assert H.normal and H.index == G.order // H.size


# ----- orbit sums -----


@FEW
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), dim=st.integers(1, 3), k=st.integers(1, 3))
def test_module_orbit_is_the_plain_bfs_orbit(data, p, dim, k):
    entries = st.lists(st.integers(0, p - 1), min_size=dim * dim, max_size=dim * dim)
    gens = [np.array(data.draw(entries)).reshape(dim, dim) for _ in range(k)]
    assume(all(len(row_reduce_mod_p(g.tolist(), p)[1]) == dim for g in gens))
    v = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)))
    seen, queue = {v: None}, [v]
    for u in queue:
        for g in gens:
            image = tuple(int(x) for x in g @ np.array(u) % p)
            if image not in seen:
                seen[image] = None
                queue.append(image)
    orbit = ModuleAction(p, dim, gens).orbit(np.array(v))
    assert len(orbit) == len(seen) and set(map(tuple, orbit.tolist())) == set(seen)


def test_orbit_sum_subspace_is_an_invariant_line():
    # diag(3, 5) on F_7^2 has exactly the two coordinate axes as invariant
    # lines; the reducer may list the subspace in any row order
    act = ModuleAction(7, 2, [np.array([[3, 0], [0, 5]])])
    sub = {tuple(int(x) for x in v) for v in orbit_sum_subspace(act, [1, 1])["subspace"]}
    axes = [{(k, 0) for k in range(7)}, {(0, k) for k in range(7)}]
    assert sub in axes


# ----- the lemma checks against their sort, set, inverse and per-row forms -----


def normal_perfect_by_the_distinct_levi_images(G):
    """verify_normal_perfect with |beta(H)| and |L| counted as distinct Levi codes."""
    if not is_perfect(G):
        return {"applicable": False, "passed": False, "reason": "group is not perfect"}
    beta = quotient._levi(G)[0]
    l_count = len(np.unique(beta))
    failures = [H.size for H in normal_subgroups(G)
                if H.size < G.order and len(np.unique(beta[H.element_ids])) == l_count]
    return {"applicable": True, "passed": not failures, "failures": failures}


@functools.cache
def lemmas_semidirect_7():
    return semidirect_group(SemidirectSpec(p=7, l_gens=[ModMatrix([[1, 3], [0, 1]], 7), ModMatrix([[1, 0], [3, 1]], 7)]))


@pytest.mark.parametrize("name", sorted(SEMIDIRECT_TABLES) + ["lemmas semidirect 7"])
def test_the_surjection_count_is_the_distinct_levi_images(name):
    G = SEMIDIRECT_TABLES[name] if name in SEMIDIRECT_TABLES else lemmas_semidirect_7()
    assert verify_normal_perfect(G) == normal_perfect_by_the_distinct_levi_images(G)


def one_dim_refusal_by_inverse_transposes(action):
    """The message of _reject_one_dim_module with the dual as the inverse transposes, or None."""
    gens, p, d = action.generators, action.p, action.dim
    dual = quotient._inv_block(np.array(gens, dtype=np.int64).reshape(-1, d, d), p).transpose(0, 2, 1)
    for mats in (gens, list(dual)):
        line = growth._invariant_line(mats, p, d)
        if line is not None:
            return f"one-dimensional composition factor witnessed by line {line}"
    return None


def drawn_module(data, primes, max_dim):
    """A ModuleAction of 1-3 invertible generators; half the time each leaves <e_1 .. e_s> invariant."""
    p, d = data.draw(st.sampled_from(primes)), data.draw(st.integers(1, max_dim))
    s = data.draw(st.integers(0, d - 1)) if data.draw(st.booleans()) else 0
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        g = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d))).reshape(d, d)
        g[s:, :s] = 0
        assume(len(row_reduce_mod_p(g.tolist(), p)[1]) == d)
        gens.append(g)
    return ModuleAction(p, d, gens)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dual_lines_from_transposes_are_those_of_the_inverse_transposes(data):
    action = drawn_module(data, [5, 7, 11], 4)
    try:
        growth._reject_one_dim_module(action)
        got = None
    except HypothesisViolated as e:
        got = str(e)
    assert got == one_dim_refusal_by_inverse_transposes(action)


def orbit_sum_subspace_by_code_sets(action, v):
    """orbit_sum_subspace with the sumset held as a Python set of codes, zero skipped by value."""
    p, v = action.p, np.asarray(v, dtype=np.int64) % action.p
    orbit, current = action.orbit(v), np.zeros((1, action.dim), dtype=np.int64)
    for c in range(1, growth.PRODUCT_DEPTH_CAP + 1):
        current = growth._add_orbit(current, orbit, p)
        code_set = set(growth._vector_codes(current, p).tolist())
        for w in current:
            if w.any():
                sub = action.submodule_spanned_by(w)
                if all(int(x) in code_set for x in growth._vector_codes(sub, p).tolist()):
                    return {"c": c, "subspace": sub.tolist(), "sumset_size": len(current)}
    return {"c": None, "subspace": None, "sumset_size": len(current)}


@FEW
@given(data=st.data())
def test_orbit_sum_subspaces_found_by_code_are_those_of_the_code_sets(data):
    action = drawn_module(data, [3, 5], 3)
    v = np.array(data.draw(st.lists(st.integers(0, action.p - 1), min_size=action.dim, max_size=action.dim)))
    assume(v.any() and not action.has_fixed_vector())
    got = orbit_sum_subspace(action, v)
    got["subspace"] = None if got["subspace"] is None else got["subspace"].tolist()
    assert got == orbit_sum_subspace_by_code_sets(action, v)


# ----- public names -----

PUBLIC = [
    "CayleyGraph", "ElementSet", "GroupTable", "ModMatrix", "ModuleAction",
    "PrimeSet", "RationalMatrix", "SemidirectSpec", "SubgroupRecord",
    "ball_size", "borel_subgroup", "certify_free", "chain_inequality", "cheeger_bracket",
    "conjugacy_classes", "crt_tuple", "cyclic_group", "direct_product",
    "edge_expansion_exact", "escape_profile",
    "generate_group", "gowers_cover", "heisenberg_group", "index_product_check",
    "is_perfect", "kesten_return", "kesten_series",
    "kesten_upper_bound", "lower_central_series", "nilpotent_recover", "normal_closure",
    "normal_subgroups", "orbit_sum_span", "orbit_sum_subspace",
    "product_decompose", "product_set", "radial_distribution", "random_symmetric_set",
    "random_transversal", "reduce_mod_p", "reduced_words", "semidirect_group",
    "spectrum", "square_free_factors", "subgroup_closure", "torus_subgroup",
    "trace_moment", "tripling_report", "verify_factor_product_form", "verify_normal_perfect",
    "verify_product_form", "walk_powers", "walk_trace_side",
]


def test_public_names_are_stable_and_resolve():
    assert expanderlab.__all__ == sorted(PUBLIC) + ["__version__", "errors"]
    for name in expanderlab._EXPORTS:
        assert getattr(expanderlab, name) is not None


# parameters and defaults of every public callable, annotations left out;
# a new parameter or a changed default is a deliberate API change
SIGNATURES = {
    "RationalMatrix": "(rows)",
    "PrimeSet": "(primes=())",
    "ModMatrix": "(rows, p)",
    "reduce_mod_p": "(M, p)",
    "crt_tuple": "(M, q)",
    "square_free_factors": "(q)",
    "ball_size": "(M, l)",
    "reduced_words": "(M, l)",
    "kesten_return": "(M, k)",
    "kesten_series": "(M, n)",
    "kesten_upper_bound": "(M, k)",
    "radial_distribution": "(M, k)",
    "certify_free": "(gens, L)",
    "GroupTable": "(digits, radices, mul_rows, inv_rows, generator_ids, kind, meta, index, level_ends)",
    "generate_group": "(gens, q, *, symmetrize=True)",
    "cyclic_group": "(n)",
    "heisenberg_group": "(p)",
    "SemidirectSpec": "(p, l_gens, u_kind='vector', u_dim=2, action='natural')",
    "semidirect_group": "(spec)",
    "direct_product": "(t1, t2)",
    "SubgroupRecord": "(parent, generator_ids, element_ids)",
    "subgroup_closure": "(G, gen_ids)",
    "normal_closure": "(G, seed_ids)",
    "normal_subgroups": "(G)",
    "conjugacy_classes": "(G)",
    "is_perfect": "(G)",
    "product_decompose": "(G)",
    "index_product_check": "(G, H, delta=0.25)",
    "lower_central_series": "(U)",
    "verify_product_form": "(G, H)",
    "verify_normal_perfect": "(G)",
    "verify_factor_product_form": "(G, H)",
    "borel_subgroup": "(G)",
    "torus_subgroup": "(G)",
    "walk_powers": "(table, l_max, gen_ids=None, H=None, exact=False)",
    "escape_profile": "(G, H, l_max)",
    "CayleyGraph": "(table, s_ids=None)",
    "spectrum": "(graph)",
    "trace_moment": "(graph, l, report=None)",
    "walk_trace_side": "(graph, l)",
    "edge_expansion_exact": "(graph)",
    "cheeger_bracket": "(lam2, degree)",
    "ElementSet": "(parent, ids)",
    "random_symmetric_set": "(table, size, rng)",
    "product_set": "(A, B)",
    "tripling_report": "(A)",
    "chain_inequality": "(A, C)",
    "gowers_cover": "(B1, B2, B3, d_min)",
    "ModuleAction": "(p, dim, generators=<factory>)",
    "orbit_sum_subspace": "(action, v)",
    "orbit_sum_span": "(action, v)",
    "nilpotent_recover": "(U, A)",
    "random_transversal": "(U, rng)",
}


def test_public_signatures_are_stable():
    def bare(obj):
        sig = inspect.signature(obj)
        params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
        return str(sig.replace(parameters=params, return_annotation=sig.empty))

    assert {name: bare(getattr(expanderlab, name)) for name in expanderlab._EXPORTS} == SIGNATURES
