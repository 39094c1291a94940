"""Property tests for the reduced-word walker, the mod-p row reducer,
the coset labeller, the table id lookup, the block spectrum, the
translations and ball radii the BFS records and the walks that use them,
the products through the per-prime factors of composite tables, the
measure constructors, the subgroup and normal closures and the lower
central series, each against a brute-force oracle, plus guards on the
BFS element order and the package's public names and signatures."""
import hashlib
import inspect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expanderlab
from expanderlab import quotient
from expanderlab.cli import builtin_generators
from expanderlab.errors import NotInGroup, SingularMatrix
from expanderlab.exact import ModMatrix, RationalMatrix, mod_inv, mod_mul, row_reduce_mod_p
from expanderlab.growth import ModuleAction, ProductFrame, orbit_sum_subspace
from expanderlab.quotient import (
    ID_INDEX_CAP,
    SemidirectSpec,
    borel_subgroup,
    conjugacy_classes,
    coset_labels,
    cyclic_group,
    direct_product,
    generate_group,
    heisenberg_group,
    ids_of_matrices,
    is_perfect,
    lower_central_series,
    normal_closure,
    normal_subgroups,
    product_decompose,
    semidirect_group,
    subgroup_closure,
    torus_subgroup,
)
from expanderlab.spectral import (
    CayleyGraph,
    EscapeRow,
    Measure,
    WalkRow,
    _cluster,
    _split_element,
    convolve,
    escape_profile,
    generator_measure,
    spectrum,
    trace_moment,
    walk_powers,
    walk_step,
    walk_trace_side,
)
from expanderlab.words import ball_size, certify_free, reduced_words

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


def test_certify_free_finds_torsion():
    # a rotation of order 4 gives the witness a^4 before anything longer
    assert certify_free([GENERATOR_POOL[6], GENERATOR_POOL[0]], 5) == (False, (1, 1, 1, 1))


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
    for r, c in zip(reduced, pivots):
        assert r[c] == 1 and all(other[c] == 0 for other in reduced if other is not r)
    if reduced:
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
]


@pytest.mark.parametrize("name,q,digest", BFS_ORDER_DIGESTS)
def test_bfs_element_order_is_pinned(name, q, digest):
    if name == "unitriangular":
        G = LOOKUP_TABLES[q]
    else:
        G = generate_group(builtin_generators(name), q)
    assert hashlib.sha256(G.digits.tobytes()).hexdigest() == digest


# ----- block spectrum -----


def rational(*rows):
    return [RationalMatrix(m) for m in rows]


# one table from every constructor, all small enough for the dense oracle
SPECTRUM_TABLES = {
    "cyclic 2": cyclic_group(2),
    "cyclic 97": cyclic_group(97),  # generator 1: a single coset of size 97
    "heisenberg 5": heisenberg_group(5),
    "semidirect borel 5": semidirect_group(
        SemidirectSpec(p=5, l_gens=[ModMatrix([[1, 1], [0, 1]], 5), ModMatrix([[2, 0], [0, 3]], 5)])
    ),
    "direct product": direct_product(heisenberg_group(3), cyclic_group(4)),
    "sl2 mod 7": sl2_7(),
    "borel mod 35": generate_group(rational([[2, 0], [0, 18]], [[1, 1], [0, 1]]), 35),
    "involutions mod 7": generate_group(
        rational([[0, 1], [1, 0]], [[-1, 1], [0, 1]], [[1, 0], [2, -1]]), 7
    ),
}


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


def assert_split_element(graph, order):
    """_split_element gives the right translation by an s z of the order."""
    G = graph.table
    perm, m = _split_element(graph)
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


@FEW
@given(name=st.sampled_from(sorted(SPECTRUM_TABLES)), data=st.data())
def test_exact_walk_steps_keep_mass_1_and_are_convolutions(name, data):
    G = SPECTRUM_TABLES[name]
    picks = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    s_ids = picks + G.inv_vec(picks).tolist()
    chi = generator_measure(G, s_ids, exact=True)
    mu = Measure.point(G, G.identity_id, exact=True)
    for _ in range(data.draw(st.integers(1, 3))):
        # from the identity the walk is chi_S^(k), which commutes with chi_S
        step = walk_step(mu, s_ids)
        assert (step.weights == convolve(mu, chi).weights).all()
        mu = step
        assert mu.mass() == 1
    # for any measure and any multiset S, one step is chi_(S^-1) * mu
    support = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=4))
    nu = Measure.uniform_on(G, support, exact=True)
    chi_inv = generator_measure(G, G.inv_vec(picks), exact=True)
    assert (walk_step(nu, picks).weights == convolve(chi_inv, nu).weights).all()


C24 = cyclic_group(24)


@FEW
@given(ids=st.lists(st.integers(0, 23), min_size=1, max_size=12), g=st.integers(0, 23))
def test_uniform_on_weighs_each_id_by_its_count_and_point_is_one_id(ids, g):
    G = C24
    w = Measure.uniform_on(G, ids, exact=True).weights
    assert all(type(x) is Fraction for x in w)
    assert w.tolist() == [Fraction(ids.count(i), len(ids)) for i in range(G.order)]
    assert sum(w) == 1
    for exact in (False, True):
        point, one = Measure.point(G, g, exact).weights, Measure.uniform_on(G, [g], exact).weights
        assert point.dtype == one.dtype and [type(x) for x in point] == [type(x) for x in one]
        assert point.tolist() == one.tolist() == [int(i == g) for i in range(G.order)]


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
    """walk_powers (with and without H) and, for float walks, escape_profile
    against a plain loop of full walk_step calls, compared with ==."""
    S = G.generator_ids.tolist() if gen_ids is None else gen_ids
    mus = [Measure.point(G, G.identity_id, exact)]
    for _ in range(l_max):
        mus.append(walk_step(mus[-1], S))
    for sub, mass in ((None, lambda w: w[G.identity_id]), (H, lambda w: w[H.member].sum())):
        series = walk_powers(G, l_max, gen_ids, H=sub, exact=exact)
        assert series.rows == [
            WalkRow(l, mu.l2(), float(mu.linf()), float(mass(mu.weights)))
            for l, mu in enumerate(mus) if l
        ]
        assert series.final.exact == exact
        assert series.final.weights.tolist() == mus[-1].weights.tolist()
        assert {type(x) for x in series.final.weights.tolist()} == {Fraction if exact else float}
    if not exact:
        labels = coset_labels(G, H.element_ids)
        want = []
        for l, mu in enumerate(mus[1:], 1):
            m = np.bincount(labels, weights=mu.weights, minlength=H.index)
            want.append(EscapeRow(l, mu.l2(), float(mu.linf()), float(m[labels[0]]), float(m.max())))
        assert escape_profile(G, H, l_max, gen_ids).rows == want


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
    H = subgroup_closure(G, [data.draw(st.integers(0, G.order - 1))], flags=False)
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


# ----- the product table of small groups -----

PRODUCT_TABLES = {
    **SPECTRUM_TABLES,
    "unsymmetrized mod 7": generate_group(
        rational([[1, 1], [0, 1]], [[1, 0], [1, 1]]), 7, symmetrize=False
    ),
}


def assert_table_path_is_the_kernel_path(G, method, *args):
    """G.method(*args) from the product table and inverse permutation
    against the digit kernels, which every table uses with the cap at 0."""
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
    check(G, "mul_vec", a[:, None], b)
    check(G, "mul_vec", a[: len(b)], b[: len(a)])
    check(G, "mul_vec", g, b)
    check(G, "mul_vec", a, g)
    check(G, "mul_vec", g, -1)
    check(G, "mul_vec", a[:0, None], b)
    check(G, "inv_vec", a)
    check(G, "inv_vec", g)


@FEW
@given(data=st.data())
def test_frame_products_are_the_pairs_written_out_in_order(data):
    borel = SPECTRUM_TABLES["semidirect borel 5"]
    frame = ProductFrame([borel, borel])
    rows = st.lists(st.tuples(*(st.integers(0, t.order - 1) for t in frame.factors)), max_size=12)
    a, b = (np.array(data.draw(rows), dtype=np.int64).reshape(-1, 2) for _ in range(2))
    pairs = frame.mul(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1)))
    assert np.array_equal(frame.product_rows(a, b), frame.dedup(pairs))


def test_the_product_table_is_built_only_by_mul_vec_and_only_up_to_the_cap():
    G = generate_group(builtin_generators("lubotzky3"), 13)
    spectrum(CayleyGraph(G))
    walk_powers(G, 6)
    walk_powers(G, 6, exact=True)
    # spectra and walks never multiply ids, so they never pay for the n^2 table
    assert ("P", 0) not in G._perm_cache
    G.mul_vec(0, 1)
    assert G._perm_cache["P", 0].dtype == np.int16
    assert G._perm_cache["P", 0].shape == (G.order, G.order)
    big = heisenberg_group(17)
    assert big.order > quotient.PRODUCT_TABLE_CAP
    every = np.arange(big.order)
    assert (big.mul_vec(every, big.inv_vec(every)) == big.identity_id).all()
    assert ("P", 0) not in big._perm_cache and ("I", 0) not in big._perm_cache


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


def assert_factored_path_is_the_kernel_path(G, method, *args, cap=FACTORED_CAP):
    """G.method(*args) with the product-table cap at cap, through the
    factors and with G's own digit kernels switched off, against the
    kernels, which every table uses with the cap at 0."""
    def no_kernel(*rows):
        raise AssertionError("the factored path used the digit kernels")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotient, "PRODUCT_TABLE_CAP", cap)
        mp.setattr(G, "_mul_rows", no_kernel)
        mp.setattr(G, "_inv_rows", no_kernel)
        got = getattr(G, method)(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotient, "PRODUCT_TABLE_CAP", 0)
        want = getattr(G, method)(*args)
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
    # off the table the pair index holds -1
    assert (G._pair_index >= 0).sum() == G.order


@FEW
@given(name=st.sampled_from(sorted(FACTORED_TABLES) + ["sl2 mod 35"]), data=st.data())
def test_the_factored_path_answers_as_the_kernels_on_random_ids(name, data):
    if name == "sl2 mod 35":
        G, cap = SL2_35, quotient.PRODUCT_TABLE_CAP
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


# ----- subgroup and normal closures -----

CLOSURE_TABLES = {
    "sl2 mod 5": generate_group(builtin_generators("lubotzky3"), 5),
    "heisenberg 5": SPECTRUM_TABLES["heisenberg 5"],
    # the semidirect group of the lemmas subcommand at p = 5
    "lemmas semidirect 5": semidirect_group(
        SemidirectSpec(p=5, l_gens=[ModMatrix([[1, 3], [0, 1]], 5), ModMatrix([[1, 0], [3, 1]], 5)])
    ),
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
    want = subgroup_closure(G, conjugates, flags=False).element_ids
    assert np.array_equal(want, brute_subgroup(G, conjugates))
    got = normal_closure(G, seeds)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@FEW
@given(name=st.sampled_from(sorted(CLOSURE_TABLES)), data=st.data())
def test_subgroup_flags_match_their_definitions(name, data):
    G = CLOSURE_TABLES[name]
    seeds = closure_seeds(G, data)
    H = subgroup_closure(G, seeds)
    assert np.array_equal(H.element_ids, brute_subgroup(G, seeds))
    assert H.normal == bool(H.member[all_conjugates(G, H.element_ids)].all())
    derived = brute_subgroup(G, G.comm_vec(H.element_ids[:, None], H.element_ids).ravel())
    assert H.perfect == (len(derived) == H.size)


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


# ----- conjugacy classes and normal subgroups -----

CLASS_TABLES = {
    "sl2 mod 5": CLOSURE_TABLES["sl2 mod 5"],
    "sl2 mod 7": generate_group(builtin_generators("lubotzky3"), 7),
    "heisenberg 5": SPECTRUM_TABLES["heisenberg 5"],
    "cyclic 4 x cyclic 6": CLOSURE_TABLES["cyclic 4 x cyclic 6"],
    # no inverses among the generators, so conjugation by them alone must
    # reach every conjugate
    "non-symmetric pair mod 7": generate_group(
        [ModMatrix([[1, 1], [0, 1]], 7), ModMatrix([[1, 0], [1, 1]], 7)], 7, symmetrize=False
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


def test_orbit_sum_subspace_is_an_invariant_line():
    # diag(3, 5) on F_7^2 has exactly the two coordinate axes as invariant
    # lines; the reducer may list the subspace in any row order
    act = ModuleAction(7, 2, [np.array([[3, 0], [0, 5]])])
    sub = {tuple(int(x) for x in v) for v in orbit_sum_subspace(act, [1, 1])["subspace"]}
    axes = [{(k, 0) for k in range(7)}, {(0, k) for k in range(7)}]
    assert sub in axes


# ----- public names -----

PUBLIC = [
    "CayleyGraph", "ElementSet", "GroupTable", "Measure", "ModMatrix", "ModuleAction",
    "PrimeSet", "ProductFrame", "RationalMatrix", "SemidirectSpec", "SubgroupRecord",
    "ball_size", "borel_subgroup", "certify_free", "chain_inequality", "cheeger_bracket",
    "commutator_identities_check", "conjugacy_classes", "convolve", "crt_tuple",
    "cyclic_group", "direct_product", "edge_expansion_exact", "escape_profile",
    "farah_distance", "fixed_line_fraction", "fixed_point_fraction", "flatten_check",
    "generate_group", "gowers_cover", "heisenberg_group", "index_product_check",
    "is_perfect", "kernel_displacement", "kesten_return", "kesten_series",
    "kesten_upper_bound", "lower_central_series", "nilpotent_recover", "normal_closure",
    "normal_closure_product", "normal_subgroups", "orbit_sum_span", "orbit_sum_subspace",
    "product_decompose", "product_set", "radial_distribution", "random_symmetric_set",
    "random_transversal", "reduce_mod_p", "reduced_words", "s_norm", "semidirect_group",
    "small_lifts", "spectrum", "square_free_factors", "subgroup_closure", "torus_subgroup",
    "trace_moment", "tripling_report", "verify_factor_product_form", "verify_normal_perfect",
    "verify_product_form", "walk_flatten_exponent", "walk_powers", "walk_trace_side",
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
    "s_norm": "(M, S)",
    "square_free_factors": "(q)",
    "ball_size": "(M, l)",
    "reduced_words": "(M, l)",
    "kesten_return": "(M, k)",
    "kesten_series": "(M, n)",
    "kesten_upper_bound": "(M, k)",
    "radial_distribution": "(M, k)",
    "certify_free": "(gens, L)",
    "fixed_line_fraction": "(gens, rep, w, l)",
    "fixed_point_fraction": "(gens, translations, w, l)",
    "GroupTable": "(digits, radices, mul_rows, inv_rows, generator_ids, kind, meta, index, level_ends)",
    "generate_group": "(gens, q=None, *, symmetrize=True)",
    "cyclic_group": "(n)",
    "heisenberg_group": "(p)",
    "SemidirectSpec": "(p, l_gens, u_kind='vector', u_dim=2, action='natural')",
    "semidirect_group": "(spec)",
    "direct_product": "(t1, t2)",
    "SubgroupRecord": "(parent, generator_ids, element_ids, member, index, normal, perfect=False)",
    "subgroup_closure": "(G, gen_ids, *, flags=True)",
    "normal_closure": "(G, seed_ids)",
    "normal_subgroups": "(G)",
    "conjugacy_classes": "(G)",
    "is_perfect": "(G)",
    "product_decompose": "(G)",
    "index_product_check": "(G, H, delta=0.25)",
    "small_lifts": "(ball, G, H, delta)",
    "lower_central_series": "(U)",
    "verify_product_form": "(G, H)",
    "verify_normal_perfect": "(G)",
    "verify_factor_product_form": "(G, H)",
    "borel_subgroup": "(G)",
    "torus_subgroup": "(G)",
    "Measure": "(table, weights, exact=False)",
    "convolve": "(mu, nu)",
    "walk_powers": "(table, l_max, gen_ids=None, H=None, exact=False)",
    "flatten_check": "(mu, nu)",
    "walk_flatten_exponent": "(series, l)",
    "escape_profile": "(G, H, l_max, gen_ids=None)",
    "CayleyGraph": "(table, s_ids=None)",
    "spectrum": "(graph)",
    "trace_moment": "(graph, l, report=None)",
    "walk_trace_side": "(graph, l)",
    "edge_expansion_exact": "(graph)",
    "cheeger_bracket": "(lam2, degree)",
    "ElementSet": "(parent, ids, member, symmetric)",
    "random_symmetric_set": "(table, size, rng)",
    "product_set": "(A, B)",
    "tripling_report": "(A)",
    "chain_inequality": "(A, C)",
    "gowers_cover": "(B1, B2, B3, d_min)",
    "ProductFrame": "(factors)",
    "farah_distance": "(g1, g2, kernel_sizes)",
    "kernel_displacement": "(frame, rows)",
    "normal_closure_product": "(frame, rows, g_row)",
    "ModuleAction": "(p, dim, generators=<factory>)",
    "orbit_sum_subspace": "(action, v)",
    "orbit_sum_span": "(action, v)",
    "nilpotent_recover": "(U, A)",
    "random_transversal": "(U, rng)",
    "commutator_identities_check": "(G, trials, seed=0)",
}


def test_public_signatures_are_stable():
    def bare(obj):
        sig = inspect.signature(obj)
        params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
        return str(sig.replace(parameters=params, return_annotation=sig.empty))

    assert {name: bare(getattr(expanderlab, name)) for name in expanderlab._EXPORTS} == SIGNATURES
