import hashlib

import numpy as np
import pytest

from expanderlab import quotient
from expanderlab.cli import builtin_generators
from expanderlab.errors import (
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
from expanderlab.exact import ModMatrix, RationalMatrix
from expanderlab.quotient import (
    SemidirectSpec,
    borel_subgroup,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    generate_group,
    heisenberg_group,
    ids_of_matrices,
    index_product_check,
    is_perfect,
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
from expanderlab.growth import ElementSet
from expanderlab.spectral import CayleyGraph, walk_powers


def lubotzky_gens(t=3):
    return [
        RationalMatrix([[1, t], [0, 1]]),
        RationalMatrix([[1, 0], [t, 1]]),
    ]


def sl2_order(p):
    return p * (p * p - 1)


@pytest.fixture(scope="module")
def sl2_5():
    return generate_group(lubotzky_gens(), 5)


@pytest.fixture(scope="module")
def sl2_35():
    return generate_group(lubotzky_gens(), 35)


def test_generate_group_orders(sl2_5):
    assert sl2_5.order == 120
    assert generate_group(lubotzky_gens(), 7).order == 336


def test_mod35_order_and_identity(sl2_35):
    assert sl2_35.order == 40320
    assert sl2_35.identity_id == 0
    ident = sl2_35.rows_of(np.array([0]))[0]
    assert list(ident) == [1, 0, 0, 1, 1, 0, 0, 1]


def test_generate_group_rejects_small_primes():
    with pytest.raises(BadPrime):
        generate_group(lubotzky_gens(), 3)
    with pytest.raises(BadPrime):
        generate_group(lubotzky_gens(), 15)


def test_generate_group_rejects_denominator_overlap():
    g = RationalMatrix([[1, Fraction(1, 5)], [0, 1]])
    with pytest.raises(BadPrime):
        generate_group([g], 5)
    # the reduction mod 5 rejects it inside a composite q as well
    with pytest.raises(BadPrime, match="5 divides a denominator of 1/5"):
        generate_group([g], 35)


from fractions import Fraction  # noqa: E402


def test_generate_group_rejects_singular_generators():
    # det 5 vanishes mod 5; the check does not rely on symmetrizing
    with pytest.raises(SingularMatrix):
        generate_group([RationalMatrix([[1, 0], [0, 5]])], 5, symmetrize=False)
    # singular mod 7 only, inside q = 35
    with pytest.raises(SingularMatrix):
        generate_group([RationalMatrix([[1, 1], [0, 1]]), RationalMatrix([[1, 0], [0, 7]])], 35)
    # dimension 3 goes through per-element elimination
    with pytest.raises(SingularMatrix):
        generate_group([RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]])], 5, symmetrize=False)


def test_generate_group_rejects_moduli_other_than_the_primes_of_q():
    # mod-7 matrices must not be read mod 5: the group layer reduces only rational matrices
    with pytest.raises(TypeError):
        generate_group([ModMatrix([[1, 2], [0, 1]], 7), ModMatrix([[1, 0], [2, 1]], 7)], 5)
    with pytest.raises(TypeError):
        generate_group([(ModMatrix([[1, 2], [0, 1]], 5), ModMatrix([[1, 2], [0, 1]], 7))], 35)


def test_ids_of_matrices_refuses_a_matrix_already_reduced():
    # the residues 1, 3, 0, 1 mod 7 were read as integers mod 5: id 2, no error
    G = generate_group(builtin_generators("lubotzky3"), 5)
    with pytest.raises(TypeError):
        ids_of_matrices(G, [ModMatrix([[1, 3], [0, 1]], 7)])


def test_id_of_rows_refuses_rows_of_another_width():
    # numpy's broadcast ValueError escaped; a 3x3 matrix mod 35 has 18 digits, not 8
    for q in (5, 35):
        G = generate_group(builtin_generators("lubotzky3"), q)
        for rows in ([1, 0, 0], [], np.zeros((2, 9 * len(G.meta["primes"])), dtype=np.int64)):
            with pytest.raises(NotInGroup):
                G.id_of_rows(rows)
        assert G.id_of_rows(np.zeros((0, len(G.radices)), dtype=np.int64)).tolist() == []


def test_generate_group_rejects_empty_and_mixed_input():
    with pytest.raises(ValueError):
        generate_group([], 5)
    with pytest.raises(ValueError):
        generate_group([RationalMatrix.identity(2), RationalMatrix.identity(3)], 5)


def test_generate_group_cap(monkeypatch):
    monkeypatch.delenv("EXPANDERLAB_CAP_ELEMS", raising=False)
    monkeypatch.setattr(quotient, "DEFAULT_ELEMENT_CAP", 1000)
    with pytest.raises(SizeCapExceeded, match="cap of 1000 elements"):
        generate_group(lubotzky_gens(), 35)
    # the environment variable wins over the constant; the cap is inclusive
    monkeypatch.setenv("EXPANDERLAB_CAP_ELEMS", "40320")
    assert generate_group(lubotzky_gens(), 35).order == 40320


def test_group_table_multiplication(sl2_5):
    G = sl2_5
    n = G.order
    rng = np.random.default_rng(1)
    a = rng.integers(0, n, 50)
    b = rng.integers(0, n, 50)
    c = rng.integers(0, n, 50)
    left = G.mul_vec(G.mul_vec(a, b), c)
    right = G.mul_vec(a, G.mul_vec(b, c))
    assert (left == right).all()
    assert (G.mul_vec(a, G.inv_vec(a)) == 0).all()


def test_id_of_rows_unknown_row_raises(sl2_5):
    bad = np.array([[9, 9, 9, 9]], dtype=np.int64)
    with pytest.raises(KeyError):
        sl2_5.id_of_rows(bad)


def test_id_of_rows_raises_not_in_group(sl2_5):
    with pytest.raises(NotInGroup):
        sl2_5.id_of_rows(np.array([[2, 0, 0, 1]], dtype=np.int64))


def test_perms_are_permutations(sl2_5):
    G = sl2_5
    s = int(G.generator_ids[0])
    for perm in (G.left_perm(s), G.right_perm(s), G.conj_perm(s)):
        assert len(np.unique(perm)) == G.order
    # x = y s goes to s y: the first conjugation on a fresh table builds no inverse table
    fresh = generate_group(lubotzky_gens(), 5)
    fresh.conj_perm(s)
    assert ("I", 0) not in fresh._perm_cache


def test_bfs_is_deterministic():
    a = generate_group(lubotzky_gens(), 7)
    b = generate_group(lubotzky_gens(), 7)
    assert (a.digits == b.digits).all()
    assert (a.generator_ids == b.generator_ids).all()


def test_cyclic_group():
    G = cyclic_group(12)
    assert G.order == 12
    # ids follow BFS order, so addition must be read off the digit rows
    i = int(G.id_of_rows(np.array([[5]], dtype=np.int64))[0])
    j = int(G.id_of_rows(np.array([[9]], dtype=np.int64))[0])
    k = G.mul(i, j)
    assert int(G.rows_of(np.array([k]))[0][0]) == (5 + 9) % 12
    assert int(G.rows_of(np.array([G.inv(i)]))[0][0]) == 7


def test_heisenberg_group():
    U = heisenberg_group(5)
    assert U.order == 125
    # (a,b,t)(a',b',t'): third coordinate picks up ab' - ba'
    r = U.rows_of(np.arange(U.order))
    i = int(U.id_of_rows(np.array([[1, 0, 0]], dtype=np.int64))[0])
    j = int(U.id_of_rows(np.array([[0, 1, 0]], dtype=np.int64))[0])
    prod = U.rows_of(np.array([U.mul(i, j)]))[0]
    assert list(prod) == [1, 1, 1]
    assert r.shape == (125, 3)


def test_semidirect_group_order():
    p = 5
    lmats = [ModMatrix([[1, 3], [0, 1]], p), ModMatrix([[1, 0], [3, 1]], p)]
    G = semidirect_group(SemidirectSpec(p=p, l_gens=lmats))
    assert G.order == sl2_order(p) * p * p
    assert G.kind == "semidirect"
    assert int(unipotent_mask(G).sum()) == p * p


def test_semidirect_trivial_action():
    p = 5
    lmats = [ModMatrix([[1, 3], [0, 1]], p), ModMatrix([[1, 0], [3, 1]], p)]
    G = semidirect_group(SemidirectSpec(p=p, l_gens=lmats, action="trivial"))
    assert G.order == sl2_order(p) * p * p
    assert not is_perfect(G)


def test_semidirect_spec_validation():
    p = 5
    lmats = [ModMatrix([[1, 3], [0, 1]], p)]
    with pytest.raises(ValueError):
        SemidirectSpec(p=p, l_gens=lmats, u_kind="nope")
    with pytest.raises(ValueError):
        SemidirectSpec(p=p, l_gens=lmats, action="sideways")


def test_semidirect_spec_refuses_no_levi_generators():
    with pytest.raises(ValueError, match="^need at least one generator$"):
        SemidirectSpec(p=5, l_gens=[])


def test_semidirect_spec_refuses_levi_generators_of_mixed_dimension():
    lmats = [ModMatrix([[1, 1], [0, 1]], 5), ModMatrix.identity(3, 5)]
    with pytest.raises(ValueError, match=r"^generators of mixed dimension \[2, 3\]$"):
        SemidirectSpec(p=5, l_gens=lmats, action="trivial")


def test_semidirect_spec_refuses_a_natural_action_off_the_levi_dimension():
    lmats = [ModMatrix([[1, 1], [0, 1]], 5)]
    with pytest.raises(HypothesisViolated):
        SemidirectSpec(p=5, l_gens=lmats, u_dim=3)
    with pytest.raises(HypothesisViolated):
        SemidirectSpec(p=5, l_gens=[ModMatrix.identity(3, 5)], u_kind="heisenberg")
    # the trivial action reads no dimension
    assert semidirect_group(SemidirectSpec(p=5, l_gens=lmats, u_dim=3, action="trivial")).order == 5 * 125


def test_semidirect_spec_refuses_levi_generators_mod_another_prime():
    lmats = [ModMatrix([[1, 6], [0, 1]], 7)]
    with pytest.raises(ValueError, match=r"^generator moduli \[7\] differ from p = 5$"):
        SemidirectSpec(p=5, l_gens=lmats)


def test_semidirect_spec_refuses_a_modulus_that_is_not_prime():
    # Z/9 is no field (3 has no inverse mod 9), and the Levi inverses row reduce over F_p
    with pytest.raises(BadPrime, match="^a semidirect group over F_p needs a prime p, got 9$"):
        SemidirectSpec(p=9, l_gens=[ModMatrix([[2, 0], [0, 1]], 9)], action="trivial")
    # p = 3 stays: SL2 mod 3 acting on the Heisenberg group mod 3
    lmats = [ModMatrix([[1, 1], [0, 1]], 3), ModMatrix([[1, 0], [1, 1]], 3)]
    assert semidirect_group(SemidirectSpec(p=3, l_gens=lmats, u_kind="heisenberg")).order == 24 * 27


@pytest.mark.parametrize("bad", [-1, 120])
def test_closures_refuse_ids_outside_the_table(sl2_5, bad):
    # -1 would wrap to the last element, and the order is past it
    with pytest.raises(NotInGroup):
        subgroup_closure(sl2_5, [bad])
    with pytest.raises(NotInGroup):
        normal_closure(sl2_5, [0, bad])


@pytest.mark.parametrize("bad", [[1.7], [0, 2.0], np.array([True, False, True]), np.array([0.0])],
                         ids=["a float", "a float among ints", "a bool mask", "a float array"])
def test_ids_not_of_integer_kind_are_refused(bad):
    # a cast would close over id 1 for 1.7 and read the mask as the ids 0 and 1
    G = cyclic_group(6)
    calls = [subgroup_closure, normal_closure, ElementSet.from_ids, CayleyGraph,
             lambda G, ids: walk_powers(G, 2, gen_ids=ids)]
    for call in calls:
        with pytest.raises(NotInGroup, match="element ids must be integers, got (float64|bool)"):
            call(G, bad)


def test_an_empty_id_list_is_still_taken():
    G = cyclic_group(6)
    assert subgroup_closure(G, []).size == 1
    assert normal_closure(G, []).tolist() == [0]
    assert ElementSet.from_ids(G, []).size == 0


def test_ids_of_matrices_refuses_a_table_that_is_not_a_matrix_table():
    # a cyclic table has no modulus q: a bare KeyError: 'q' escaped
    G, one = cyclic_group(5), RationalMatrix([[1, 0], [0, 1]])
    with pytest.raises(TableMismatch, match="^ids of matrices need a matrix table$"):
        ids_of_matrices(G, [one])


def test_direct_product():
    G = direct_product(cyclic_group(4), cyclic_group(9))
    assert G.order == 36
    assert G.kind == "product"
    # element (1, 1) has order lcm(4, 9)
    gid = int(G.id_of_rows(np.array([[1, 1]], dtype=np.int64))[0])
    power = gid
    order = 1
    while power != G.identity_id:
        power = G.mul(power, gid)
        order += 1
    assert order == 36


def test_subgroup_closure_flags(sl2_5):
    G = sl2_5
    H = borel_subgroup(G)
    assert H.size == 20 and H.index == 6
    assert not H.normal
    T = torus_subgroup(G)
    assert T.size == 4 and T.index == 30
    assert not H.perfect and not T.normal and not T.perfect
    whole = subgroup_closure(G, [int(i) for i in G.generator_ids])
    assert whole.size == 120 and whole.normal and whole.perfect


def test_subgroup_records_compare_by_table_and_elements(sl2_5):
    G = sl2_5
    assert subgroup_closure(G, [1, 2]) == subgroup_closure(G, [1, 2])
    # other generators of the same subgroup give an equal record
    whole = subgroup_closure(G, [int(i) for i in G.generator_ids])
    assert whole == subgroup_closure(G, range(G.order))
    assert borel_subgroup(G) != torus_subgroup(G)
    # equal ids on another table are another subgroup
    assert whole != subgroup_closure(generate_group(lubotzky_gens(), 5), [int(i) for i in G.generator_ids])
    assert whole != whole.element_ids.tolist()


def test_normal_closure_of_noncentral_element(sl2_5):
    G = sl2_5
    s = int(G.generator_ids[0])
    assert len(normal_closure(G, [s])) == G.order


def test_conjugacy_classes(sl2_5):
    classes = conjugacy_classes(sl2_5)
    assert len(classes) == 9
    assert sum(len(c) for c in classes) == 120
    assert sorted(len(c) for c in classes)[:2] == [1, 1]


def test_normal_subgroups_sl2_5(sl2_5):
    sizes = [H.size for H in normal_subgroups(sl2_5)]
    assert sizes == [1, 2, 120]


def test_normal_subgroups_cap(sl2_5, monkeypatch):
    monkeypatch.setattr(quotient, "NORMAL_SUBGROUP_CAP", 119)
    with pytest.raises(SizeCapExceeded, match="enumeration capped at 119"):
        normal_subgroups(sl2_5)
    monkeypatch.setattr(quotient, "NORMAL_SUBGROUP_CAP", 120)
    assert [H.size for H in normal_subgroups(sl2_5)] == [1, 2, 120]


def test_normal_subgroups_mod35(sl2_35):
    sizes = [H.size for H in normal_subgroups(sl2_35)]
    assert sizes == [1, 2, 2, 2, 4, 120, 240, 336, 672, 40320]


@pytest.mark.parametrize("make,records", [
    (lambda: generate_group(builtin_generators("lubotzky3"), 35),
     [(1, []), (2, [40201]), (2, [40212]), (2, [40319]), (4, [40201, 40212]),
      (120, [1579]), (240, [139]), (336, [203]), (672, [596]), (40320, [1])]),
    (lambda: generate_group(builtin_generators("sanov2"), 35),
     [(1, []), (2, [40269]), (2, [611]), (2, [21186]), (4, [611, 21186]),
      (120, [1764]), (240, [9730]), (336, [210]), (672, [492]), (40320, [1])]),
    # the whole group is a join of joins, found in the second sweep
    (lambda: direct_product(cyclic_group(2), direct_product(cyclic_group(2), cyclic_group(2))),
     [(1, [])] + [(2, [i]) for i in range(1, 8)]
     + [(4, [1, 2]), (4, [1, 3]), (4, [1, 6]), (4, [2, 3]), (4, [2, 5]), (4, [3, 4]), (4, [4, 5]),
        (8, [1, 2, 3])]),
], ids=["lubotzky3 mod 35", "sanov2 mod 35", "cyclic 2 cubed"])
def test_normal_subgroup_records_are_pinned(make, records):
    assert [(H.size, H.generator_ids.tolist()) for H in normal_subgroups(make())] == records


def ids_digest(ids):
    """The ids of a subgroup of at most 4 elements, else a sha256 prefix of their int64 bytes."""
    return ids.tolist() if len(ids) <= 4 else hashlib.sha256(ids.astype(np.int64).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("builtin,elements", [
    ("lubotzky3", [[0], [0, 40201], [0, 40212], [0, 40319], [0, 40201, 40212, 40319],
                   "61c2a3c9b62dd3a9", "66068b284b462dc5", "16b9b69d1a9d00de", "7879c915a545e387",
                   "1e0d1f589129993e"]),
    ("sanov2", [[0], [0, 40269], [0, 611], [0, 21186], [0, 611, 21186, 40269],
                "aea34d20d273574b", "d77b2176d2151fba", "734f23078328f730", "f62c46cab5b2d5a7",
                "1e0d1f589129993e"]),
])
def test_normal_subgroup_elements_mod35_are_pinned(builtin, elements):
    G = generate_group(builtin_generators(builtin), 35)
    records = normal_subgroups(G)
    assert [H.size for H in records] == [1, 2, 2, 2, 4, 120, 240, 336, 672, 40320]
    assert [ids_digest(H.element_ids) for H in records] == elements
    for H in records:
        assert H.element_ids.dtype == np.int64 and np.array_equal(H.member, G.mask(H.element_ids))
        assert H.index * H.size == G.order and H.normal


def test_factor_product_form(sl2_35):
    for H in normal_subgroups(sl2_35):
        rep = verify_factor_product_form(sl2_35, H)
        assert rep["passed"], (H.size, rep)


def test_factor_product_form_needs_composite(sl2_5):
    H = normal_subgroups(sl2_5)[1]
    with pytest.raises(NotComposite):
        verify_factor_product_form(sl2_5, H)


def test_is_perfect(sl2_5):
    assert is_perfect(sl2_5)
    assert not is_perfect(cyclic_group(7))


def test_product_decompose(sl2_35, sl2_5):
    factors, report = product_decompose(sl2_35)
    assert report["orders"] == [120, 336]
    assert report["bijective"]
    assert factors[0].order == 120
    with pytest.raises(NotComposite):
        product_decompose(sl2_5)


def test_composite_tables_have_one_factor_path(monkeypatch, capsys):
    from expanderlab import quotient
    from expanderlab.cli import main

    G = generate_group(lubotzky_gens(), 35)
    factors, report = product_decompose(G)
    assert report == {
        "orders": [120, 336], "product_of_orders": 40320, "group_order": 40320, "bijective": True,
    }
    # the BFS built the factor tables, and its rows are the elements' factor ids
    assert G._factor_ids.shape == (2, G.order)

    def no_table(*args, **kwargs):
        raise AssertionError("a factor table was built again")

    monkeypatch.setattr(quotient, "generate_group", no_table)
    again, again_report = product_decompose(G)
    assert again_report == report and all(F is F2 for F, F2 in zip(factors, again))
    assert G.mul_vec(1, 2) == G.mul(1, 2) and G.inv_vec(3) == G.inv(3)
    # products and inverses went through the same factors: one-pair products by their kernels,
    # inverses by their inverse permutations
    assert all(("P", 0) not in F._perm_cache and ("I", 0) in F._perm_cache for F in factors)
    # a call of order pairs builds a factor's product table, and so does its order-th call
    small, big = factors
    G.mul_vec(np.arange(small.order), 2)
    assert ("P", 0) in small._perm_cache and ("P", 0) not in big._perm_cache
    for _ in range(big.order - 4):  # after the three calls above
        G.mul_vec(1, 2)
    assert ("P", 0) not in big._perm_cache
    G.mul_vec(1, 2)
    assert ("P", 0) in big._perm_cache
    H = subgroup_closure(G, [int(i) for i in G.generator_ids])
    assert index_product_check(G, H)["lhs"] == 1
    monkeypatch.undo()

    # the quotient report never multiplies and never builds the digit rows
    def no_pairs(self, *args):
        raise AssertionError("a product was taken or the digit rows were built")

    monkeypatch.setattr(quotient.GroupTable, "_apply", no_pairs)
    monkeypatch.setattr(quotient.GroupTable, "digits", property(no_pairs))
    assert main(["quotient", "--builtin", "lubotzky3", "--q", "35"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == ["5,120,", "7,336,", "35,40320,true"]


def test_a_4x4_table_mod_35_needs_no_code_over_its_digits(capsys):
    from pathlib import Path

    from expanderlab.cli import main, parse_generators

    # -I_4 and I_4 + E_12: a cyclic group of order 70, though 35^16 > 2^62
    path = str(Path(__file__).parents[1] / "tools" / "cyclic_70_4x4.txt")
    G = generate_group(parse_generators(path)[0], 35)
    assert G.order == 70 and [F.order for F in G._factors] == [10, 14]
    assert main(["quotient", "--gens", path, "--q", "35"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == ["5,10,", "7,14,", "35,70,false"]


def test_index_product_check(sl2_35):
    G = sl2_35
    H = subgroup_closure(G, [int(i) for i in G.generator_ids])
    rep = index_product_check(G, H)
    assert rep["lhs"] == 1 and rep["rhs"] == 1
    assert rep["delta_hat"] == float("inf")
    # a proper subgroup: diagonal copy via the graph of the projections
    # is awkward to build; use the mod-5 kernel instead
    ker_ids = np.nonzero(
        (G.digits[:, :4] == [1, 0, 0, 1]).all(axis=1)
    )[0]
    K = subgroup_closure(G, [int(i) for i in ker_ids[:6]])
    rep = index_product_check(G, K)
    assert rep["holds"] == (rep["lhs"] >= rep["rhs"] ** rep["delta"])
    assert rep["lhs"] >= 1


def test_index_product_check_on_a_product_table():
    F5, F7 = (generate_group(builtin_generators("lubotzky3"), p) for p in (5, 7))
    G = direct_product(F5, F7)
    gens = [int(i) for i in G.generator_ids]
    # B_5 x B_7 mod 35, of order 20 x 42; diag(22, 8) has order 4 mod 5 and
    # is the identity mod 7, the unipotent u has order 35
    diag, u = (RationalMatrix(m) for m in ([[22, 0], [0, 8]], [[1, 1], [0, 1]]))
    borel = generate_group([diag, RationalMatrix([[31, 0], [0, 26]]), u], 35)
    diag_id, u_id = (int(i) for i in ids_of_matrices(borel, [diag, u]))
    cases = [
        # <first two generators> is a cyclic group of order 5 inside the SL2(F_5) factor
        (G, (F5.order, F7.order), F5.digits.shape[1], gens[:2], 8064),
        (G, (F5.order, F7.order), F5.digits.shape[1], gens, 1),
        (borel, (20, 42), 4, [diag_id], 210),
        (borel, (20, 42), 4, [u_id], 24),
    ]
    for T, orders, k1, ids, index in cases:
        H = subgroup_closure(T, ids)
        rows = T.digits[H.element_ids].tolist()
        # [G_p : pi_p(H)] from the distinct projections, one element at a time
        images = len({tuple(r[:k1]) for r in rows}), len({tuple(r[k1:]) for r in rows})
        lhs = orders[0] // images[0] * (orders[1] // images[1])
        rep = index_product_check(T, H)
        assert rep["lhs"] == lhs == index and rep["rhs"] == H.index == index


def test_index_product_check_duplicate_primes():
    t = generate_group(lubotzky_gens(), 5)
    GG = direct_product(t, t)
    H = subgroup_closure(GG, [int(i) for i in GG.generator_ids])
    with pytest.raises(HypothesisViolated):
        index_product_check(GG, H)


def test_index_product_check_reads_the_primes_of_the_factors():
    # cyclic factors have no prime, so Z/4 x Z/9 raises no objection; H = Z/4 x 1
    # projects onto Z/4 and onto the identity of Z/9, so both sides are 9
    G = direct_product(cyclic_group(4), cyclic_group(9))
    H = subgroup_closure(G, [int(G.generator_ids[0])])
    rep = index_product_check(G, H)
    assert rep["lhs"] == rep["rhs"] == 9
    # a Heisenberg factor's p is a prime of the product
    GG = direct_product(heisenberg_group(5), generate_group(lubotzky_gens(), 5))
    with pytest.raises(HypothesisViolated, match="pairwise distinct primes"):
        index_product_check(GG, subgroup_closure(GG, [int(GG.generator_ids[0])]))


@pytest.mark.parametrize("table", ["sl2 mod 5", "cyclic 7"])
def test_index_product_check_needs_a_composite_table(table, sl2_5):
    G = sl2_5 if table == "sl2 mod 5" else cyclic_group(7)
    H = subgroup_closure(G, [int(i) for i in G.generator_ids])
    with pytest.raises(NotComposite) as err:
        index_product_check(G, H)
    assert str(err.value) == "index_product_check needs a matrix table with composite q or a direct product"


@pytest.fixture(scope="module")
def sl2_65():
    return generate_group(lubotzky_gens(), 65)


def first_generator_subgroups(*tables):
    return [subgroup_closure(G, G.generator_ids[:1]) for G in tables]


def lemmas_semidirect(p):
    return semidirect_group(SemidirectSpec(p=p, l_gens=[ModMatrix([[1, 3], [0, 1]], p), ModMatrix([[1, 0], [3, 1]], p)]))


# a subgroup's ids index its own table only: read in another, they name other elements or none
def test_index_product_check_refuses_a_subgroup_of_another_table(sl2_35, sl2_65):
    H35, H65 = first_generator_subgroups(sl2_35, sl2_65)
    for G, H in ((sl2_65, H35), (sl2_35, H65)):
        with pytest.raises(TableMismatch, match="subgroup belongs to a different table"):
            index_product_check(G, H)


def test_verify_product_form_refuses_a_subgroup_of_another_table():
    G5, G7 = lemmas_semidirect(5), lemmas_semidirect(7)
    H5 = next(H for H in normal_subgroups(G5) if 1 < H.size < G5.order)
    with pytest.raises(TableMismatch, match="subgroup belongs to a different table"):
        verify_product_form(G7, H5)


def test_verify_factor_product_form_refuses_a_subgroup_of_another_table(sl2_35, sl2_65):
    (H35,) = first_generator_subgroups(sl2_35)
    with pytest.raises(TableMismatch, match="subgroup belongs to a different table"):
        verify_factor_product_form(sl2_65, H35)


def test_lower_central_series_heisenberg():
    U = heisenberg_group(5)
    chain = lower_central_series(U)
    assert [len(c) for c in chain] == [125, 5, 1]
    # the centre, pinned by id
    assert chain[1].tolist() == [0, 69, 82, 123, 124] and chain[2].tolist() == [0]
    assert all(c.dtype == np.int64 for c in chain)


@pytest.mark.parametrize("p", [5, 7])
def test_is_perfect_on_the_lemmas_semidirect_tables(p):
    lmats = [ModMatrix([[1, 3], [0, 1]], p), ModMatrix([[1, 0], [3, 1]], p)]
    assert is_perfect(semidirect_group(SemidirectSpec(p=p, l_gens=lmats)))
    assert not is_perfect(semidirect_group(SemidirectSpec(p=p, l_gens=lmats, action="trivial")))


def test_lower_central_series_cap(monkeypatch):
    U = heisenberg_group(5)
    monkeypatch.setattr(quotient, "CENTRAL_SERIES_CAP", 124)
    with pytest.raises(SizeCapExceeded, match="capped at 124 elements"):
        lower_central_series(U)
    monkeypatch.setattr(quotient, "CENTRAL_SERIES_CAP", 125)
    assert [len(c) for c in lower_central_series(U)] == [125, 5, 1]


def test_lower_central_series_rejects_non_p_group(sl2_5):
    with pytest.raises(NotPGroup):
        lower_central_series(sl2_5)


def test_verify_product_form_semidirect():
    p = 5
    lmats = [ModMatrix([[1, 3], [0, 1]], p), ModMatrix([[1, 0], [3, 1]], p)]
    G = semidirect_group(SemidirectSpec(p=p, l_gens=lmats))
    for H in normal_subgroups(G):
        rep = verify_product_form(G, H)
        assert rep["passed"], (H.size, rep)
    # the unipotent part as a plain closure reads its normality as well
    U = subgroup_closure(G, np.flatnonzero(unipotent_mask(G)))
    assert U.size == 25 and U.normal and not U.perfect
    assert verify_product_form(G, U)["passed"]


def test_verify_product_form_requires_normal(sl2_5):
    with pytest.raises(TableMismatch):
        # matrix tables have no levi split
        verify_product_form(sl2_5, normal_subgroups(sl2_5)[0])


def test_verify_product_form_not_normal():
    p = 5
    lmats = [ModMatrix([[1, 3], [0, 1]], p), ModMatrix([[1, 0], [3, 1]], p)]
    G = semidirect_group(SemidirectSpec(p=p, l_gens=lmats))
    # a random non-normal subgroup
    H = subgroup_closure(G, [int(G.generator_ids[0])])
    if not H.normal:
        with pytest.raises(NotNormal):
            verify_product_form(G, H)


def test_verify_normal_perfect():
    p = 5
    lmats = [ModMatrix([[1, 3], [0, 1]], p), ModMatrix([[1, 0], [3, 1]], p)]
    G = semidirect_group(SemidirectSpec(p=p, l_gens=lmats))
    rep = verify_normal_perfect(G)
    assert rep["applicable"] and rep["passed"]
    trivial = semidirect_group(SemidirectSpec(p=p, l_gens=lmats, action="trivial"))
    rep = verify_normal_perfect(trivial)
    assert not rep["applicable"]
