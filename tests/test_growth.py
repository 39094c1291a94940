import hashlib
import math

import numpy as np
import pytest

from expanderlab import growth, quotient
from expanderlab.cli import builtin_generators
from expanderlab.errors import (
    BadPrime,
    FixedVectorExists,
    HypothesisViolated,
    NotInGroup,
    SizeCapExceeded,
    TableMismatch,
    ZeroVector,
)
from expanderlab.exact import RationalMatrix
from expanderlab.growth import (
    ElementSet,
    _derived_cosets,
    ModuleAction,
    chain_inequality,
    gowers_cover,
    nilpotent_recover,
    orbit_sum_span,
    orbit_sum_subspace,
    product_power,
    product_set,
    random_symmetric_set,
    random_transversal,
    tripling_report,
)
from expanderlab.quotient import (
    coset_labels,
    cyclic_group,
    generate_group,
    heisenberg_group,
    lower_central_series,
)


def lubotzky_gens(t=3):
    return [
        RationalMatrix([[1, t], [0, 1]]),
        RationalMatrix([[1, 0], [t, 1]]),
    ]


@pytest.fixture(scope="module")
def sl2_5():
    return generate_group(lubotzky_gens(), 5)


@pytest.fixture(scope="module")
def sl2_7():
    return generate_group(lubotzky_gens(), 7)


# ----- element sets and products -----


def test_element_set_roundtrip(sl2_5):
    A = ElementSet.from_ids(sl2_5, [0, 3, 5, 3])
    assert A.size == 3
    assert A.member[3] and not A.member[1]
    B = A.with_identity()
    assert B.member[0]


def test_element_set_equality(sl2_5):
    A = ElementSet.from_ids(sl2_5, [0, 3, 5])
    assert A == ElementSet.from_ids(sl2_5, [5, 3, 0, 3])
    assert A != ElementSet.from_ids(sl2_5, [0, 3])
    assert A != 3 and A != [0, 3, 5]


def test_symmetrized(sl2_5):
    s = int(sl2_5.generator_ids[0])
    A = ElementSet.from_ids(sl2_5, [s])
    S = A.symmetrized()
    assert S.symmetric
    assert S.member[sl2_5.inv(s)]


def test_random_symmetric_set(sl2_5):
    rng = np.random.default_rng(7)
    A = random_symmetric_set(sl2_5, 10, rng)
    assert A.symmetric
    assert A.member[0]
    inv = sl2_5.inv_vec(A.ids)
    assert A.member[inv].all()


def test_random_symmetric_set_at_most_the_group(sl2_5):
    # size == order draws the whole group; one more cannot be drawn
    assert random_symmetric_set(sl2_5, 120, np.random.default_rng(0)).size == 120
    with pytest.raises(ValueError, match="a set of 121 elements does not fit in a group of order 120"):
        random_symmetric_set(sl2_5, 121, np.random.default_rng(0))


# sha256 of the drawn ids followed by the next 8 bytes of the generator:
# the set and the draws it consumes are both pinned, so every growth
# report built on these sets stays the same.  A q of 5 to 11 is SL2(F_q)
# from lubotzky3, a larger one the cyclic group Z/q; "cyclic", q = 8, size
# 7 and seed 1 draws the involution 4 when one element short of the size.
RANDOM_SET_DIGESTS = [
    ("sl2", 5, 40, 0, "d91533b8204ef952f2f95d58b40b02a9fbef1e8078022d26aa3c6c9ec302c858"),
    ("sl2", 5, 100, 3, "09c91a224636f96b62da1567e7a2953cf5e78644fd87e8fc2480f31af6db2f00"),
    ("sl2", 7, 20, 1, "a9163ba1bb726a1b1b8589173bf6daf0ba26d73fbf2f1a76db4dbaf5db003e1c"),
    ("sl2", 11, 60, 2, "a9338ee0f143b21a3ed34bc20f307cd5bbc737c3cf9c096bf9ce9ab7b730f834"),
    ("cyclic", 30, 25, 4, "2eab2ae3718594d0090f9d78c4870937f4af79ad36c6feeb8296e9b2a475740e"),
    ("cyclic", 8, 7, 1, "9e359150450e1cb034344ee6a0ec4eeee6c48f940b51a7166a8fd596200f0e52"),
]


@pytest.mark.parametrize("kind,q,size,seed,digest", RANDOM_SET_DIGESTS)
def test_random_symmetric_set_is_pinned(kind, q, size, seed, digest):
    G = cyclic_group(q) if kind == "cyclic" else generate_group(builtin_generators("lubotzky3"), q)
    rng = np.random.default_rng(seed)
    A = random_symmetric_set(G, size, rng)
    assert A.size >= size and A.symmetric and A.member[G.identity_id]
    assert hashlib.sha256(A.ids.tobytes() + rng.bytes(8)).hexdigest() == digest


def test_product_set_matches_brute_force():
    G = cyclic_group(10)
    rng = np.random.default_rng(3)
    a = np.unique(rng.integers(0, 10, 4))
    b = np.unique(rng.integers(0, 10, 3))
    A = ElementSet.from_ids(G, a)
    B = ElementSet.from_ids(G, b)
    got = set(product_set(A, B).ids.tolist())
    want = {G.mul(int(x), int(y)) for x in a for y in b}
    assert got == want


def test_product_power(sl2_5):
    rng = np.random.default_rng(0)
    A = random_symmetric_set(sl2_5, 6, rng)
    AA = product_set(A, A)
    AAA = product_set(AA, A)
    assert set(product_power(A, 3).ids.tolist()) == set(AAA.ids.tolist())


def test_product_set_work_cap(sl2_5, monkeypatch):
    A = ElementSet.whole_group(sl2_5)
    monkeypatch.setattr(growth, "PAIR_WORK_CAP", 100)
    with pytest.raises(SizeCapExceeded, match="14400 pair lookups, cap 100"):
        product_set(A, A)
    with pytest.raises(SizeCapExceeded):
        product_power(A, 2)


def test_a_dense_set_times_b_looks_up_only_the_pairs_of_what_a_b0_misses(sl2_5, monkeypatch):
    B = random_symmetric_set(sl2_5, 8, np.random.default_rng(5))
    calls = counted(monkeypatch, sl2_5, "mul_vec")
    for A in (ElementSet(sl2_5, np.arange(10)), ElementSet(sl2_5, np.arange(10, sl2_5.order))):
        calls.clear()
        got = product_set(A, B)
        pairs = sum(math.prod(np.broadcast_shapes(np.shape(a), np.shape(b))) for a, b in calls)
        # 10 ids: all 10 |B| pairs; 110 ids: A.b0, then the 10 ids outside it times B^-1, not 110 |B|
        assert pairs == min(A.size * B.size, A.size + (sl2_5.order - A.size) * B.size)
        assert np.array_equal(got.ids, np.unique(sl2_5._apply("mul_vec", A.ids[:, None], B.ids)))


def test_tripling_report(sl2_5):
    rng = np.random.default_rng(11)
    A = random_symmetric_set(sl2_5, 8, rng)
    rep = tripling_report(A)
    assert rep.size == A.size
    assert rep.exponent == pytest.approx(
        math.log(rep.triple_size) / math.log(rep.size)
    )
    # a singleton triples to itself
    single = ElementSet.from_ids(sl2_5, [0])
    rep = tripling_report(single)
    assert rep.triple_size == 1 and rep.exponent == 1.0


def test_tripling_whole_group(sl2_5):
    rep = tripling_report(ElementSet.whole_group(sl2_5))
    assert rep.covers_group
    assert rep.exponent == pytest.approx(1.0)


def test_tripling_requires_symmetric(sl2_5):
    s = int(sl2_5.generator_ids[0])
    A = ElementSet.from_ids(sl2_5, [0, s])
    if not A.symmetric:
        with pytest.raises(ValueError):
            tripling_report(A)


def test_chain_inequality(sl2_5):
    rng = np.random.default_rng(2)
    for _ in range(25):
        A = random_symmetric_set(sl2_5, int(rng.integers(2, 16)), rng)
        rep = chain_inequality(A, 5)
        assert rep["holds"], rep
        # exact integers throughout
        assert rep["chain_size"] * A.size**2 <= rep["triple_size"] ** 3
    with pytest.raises(ValueError):
        chain_inequality(random_symmetric_set(sl2_5, 4, rng), 2)


def test_gowers_cover(sl2_7):
    rng = np.random.default_rng(4)
    d_min = 3
    big = [random_symmetric_set(sl2_7, 250, rng) for _ in range(3)]
    rep = gowers_cover(*big, d_min)
    assert rep["above_threshold"]
    assert rep["covers"]
    assert rep["consistent"]
    small = [random_symmetric_set(sl2_7, 40, rng) for _ in range(3)]
    rep = gowers_cover(*small, d_min)
    assert not rep["above_threshold"]
    assert rep["consistent"]


# ----- module actions and orbit sums -----


def sl2_f7_action():
    return ModuleAction(
        7, 2, [np.array([[1, 3], [0, 1]]), np.array([[1, 0], [3, 1]])]
    )


def test_module_action_orbit():
    act = sl2_f7_action()
    orbit = act.orbit(np.array([1, 0]))
    assert len(orbit) == 48  # all nonzero vectors of F_7^2
    assert not act.has_fixed_vector()


def test_module_action_fixed_vector():
    act = ModuleAction(7, 2, [np.array([[1, 1], [0, 1]])])
    assert act.has_fixed_vector()


def test_module_action_rejects_singular():
    with pytest.raises(ValueError):
        ModuleAction(7, 2, [np.array([[1, 1], [2, 2]])])


def test_module_action_refuses_a_modulus_that_is_not_prime():
    # mod 9 the orbit of (1, 0) spans 27 vectors, though a row reduction mod 9 gives all 81
    with pytest.raises(BadPrime, match="^a module over F_p needs a prime p, got 9$"):
        ModuleAction(9, 2, [np.array([[1, 3], [0, 1]]), np.array([[1, 0], [3, 1]])])


def test_module_action_refuses_a_dimension_below_one():
    with pytest.raises(ValueError, match="^a module needs a dimension of at least 1, got 0$"):
        ModuleAction(7, 0, [])


@pytest.mark.parametrize("op", [ModuleAction.orbit, orbit_sum_subspace, orbit_sum_span])
@pytest.mark.parametrize("v", [[1, 0, 0], [0, 0, 0], [1]])
def test_module_vectors_of_another_length_are_refused(op, v):
    # else numpy's reshape or matmul error would surface, and the zero vector of F_7^3 would pass as one of F_7^2
    with pytest.raises(ValueError, match=f"^a vector of this module has 2 coordinates, got {len(v)}$"):
        op(sl2_f7_action(), v)


def test_a_module_with_no_generators_has_invariant_lines():
    with pytest.raises(HypothesisViolated):
        orbit_sum_span(ModuleAction(7, 2, []), [1, 0])


def test_orbit_sum_span_rejects_a_line_of_the_dual():
    # F_7^3 = W + <e_3>, W = <e_1, e_2> turned by a rotation of order 4 that fixes no line mod 7,
    # and a shear moving e_3 into W: no line is invariant, but W is, so the dual fixes the line e_3
    rot = np.array([[0, 6, 0], [1, 0, 0], [0, 0, 1]])
    shear = np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(HypothesisViolated, match=r"line \(0, 0, 1\)$"):
        orbit_sum_span(ModuleAction(7, 3, [rot, shear]), [1, 0, 0])


def test_a_middle_one_dimensional_factor_passes_the_line_check():
    # F_5^5 with invariant subspaces <e1, e2> < <e1, e2, e3>, so the composition factor <e3> in the
    # middle; SL2(F_5) acts on the bottom and top planes, and neither the module nor its dual has an
    # invariant line.  The check finds one-dimensional submodules and quotients only.
    a = np.array([[1, 1, 2, 2, 3], [0, 1, 4, 0, 0], [0, 0, 1, 4, 4], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]])
    b = np.array([[1, 0, 1, 1, 4], [1, 1, 2, 1, 4], [0, 0, 1, 1, 2], [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]])
    for g in (a, b):
        assert not g[2:, :2].any() and not g[3:, :3].any()
    growth._reject_one_dim_module(ModuleAction(5, 5, [a, b]))


def test_orbit_sum_subspace_sl2():
    rep = orbit_sum_subspace(sl2_f7_action(), [1, 0])
    assert rep["c"] == 1
    assert len(rep["subspace"]) == 49
    assert rep["sumset_size"] == 49


def test_orbit_sum_subspace_diagonal():
    act = ModuleAction(7, 2, [np.array([[3, 0], [0, 5]])])
    rep = orbit_sum_subspace(act, [1, 1])
    assert rep["c"] == 3
    assert len(rep["subspace"]) == 7
    assert rep["sumset_size"] == 37


def test_orbit_sum_subspace_errors():
    with pytest.raises(ZeroVector):
        orbit_sum_subspace(sl2_f7_action(), [0, 0])
    fixed = ModuleAction(7, 2, [np.array([[1, 1], [0, 1]])])
    with pytest.raises(FixedVectorExists):
        orbit_sum_subspace(fixed, [1, 0])
    # with no generators every vector is fixed
    assert ModuleAction(7, 2, []).has_fixed_vector()
    with pytest.raises(FixedVectorExists):
        orbit_sum_subspace(ModuleAction(7, 2, []), [1, 0])


def test_orbit_sum_span_sl2():
    rep = orbit_sum_span(sl2_f7_action(), [1, 0])
    assert rep == {"c": 1, "holds": True, "submodule_size": 49}
    assert orbit_sum_span(sl2_f7_action(), [0, 0])["c"] == 0


def test_orbit_sum_span_rejects_one_dim():
    act = ModuleAction(7, 2, [np.array([[3, 0], [0, 5]])])
    with pytest.raises(HypothesisViolated):
        orbit_sum_span(act, [1, 1])


def test_the_lemma_checks_take_no_block_inverse(monkeypatch):
    # the dual lines read transposes
    assert "_inv_block" not in vars(growth)
    monkeypatch.setattr(quotient, "_inv_block", lambda *a: pytest.fail("a block inverse was taken"))
    assert orbit_sum_span(sl2_f7_action(), [1, 0])["holds"]


def test_product_depth_cap_leaves_the_power_unfound(monkeypatch):
    monkeypatch.setattr(growth, "PRODUCT_DEPTH_CAP", 1)
    U = heisenberg_group(5)
    tr = random_transversal(U, np.random.default_rng(9))
    assert nilpotent_recover(U, tr) == {"t": None, "covered": False}  # t = 2 uncapped
    monkeypatch.setattr(growth, "PRODUCT_DEPTH_CAP", 2)
    act = ModuleAction(7, 2, [np.array([[3, 0], [0, 5]])])
    rep = orbit_sum_subspace(act, [1, 1])  # c = 3 uncapped
    assert rep["c"] is None and rep["subspace"] is None
    # a rotation of order 4 on F_7^2 has no invariant line: sums of at most
    # c of the four vectors +-e_1, +-e_2 reach every vector only at c = 6
    rot = ModuleAction(7, 2, [np.array([[0, 6], [1, 0]])])
    monkeypatch.setattr(growth, "PRODUCT_DEPTH_CAP", 5)
    assert orbit_sum_span(rot, [1, 0]) == {"c": None, "holds": False, "submodule_size": 49}
    monkeypatch.setattr(growth, "PRODUCT_DEPTH_CAP", 6)
    assert orbit_sum_span(rot, [1, 0]) == {"c": 6, "holds": True, "submodule_size": 49}


def counted(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its arguments to the returned list."""
    calls, f = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or f(*args))
    return calls


def test_a_least_power_search_forms_only_the_powers_it_tests(monkeypatch):
    U = heisenberg_group(5)
    tr = random_transversal(U, np.random.default_rng(9))
    sets = counted(monkeypatch, growth, "product_set")
    # found at t = 2: P_2 takes one product
    assert nilpotent_recover(U, tr)["t"] == 2 and len(sets) == 1
    # capped at 1, the search tests P_1 alone and forms no product
    monkeypatch.setattr(growth, "PRODUCT_DEPTH_CAP", 1)
    sets.clear()
    assert nilpotent_recover(U, tr)["t"] is None and sets == []


@pytest.mark.parametrize("C", [3, 4, 6])
def test_chain_inequality_forms_each_power_once(sl2_5, C, monkeypatch):
    A = random_symmetric_set(sl2_5, 6, np.random.default_rng(C))
    want = product_power(A, C).size
    sets = counted(monkeypatch, growth, "product_set")
    assert chain_inequality(A, C)["chain_size"] == want
    assert len(sets) == C - 1  # A^2 and A^3, then one more per power up to A^C


# ----- nilpotent recovery -----


def test_nilpotent_recover():
    U = heisenberg_group(5)
    rng = np.random.default_rng(9)
    for _ in range(5):
        tr = random_transversal(U, rng)
        rep = nilpotent_recover(U, tr)
        assert rep["covered"]
        assert rep["t"] is not None and rep["t"] <= 24


@pytest.mark.parametrize("ids", [[6, -1], [7]])
def test_element_sets_refuse_ids_outside_the_table(ids):
    # -1 would wrap to the last element, and the order is past it
    with pytest.raises(NotInGroup):
        ElementSet.from_ids(cyclic_group(7), ids)


def test_nilpotent_recover_requires_cover():
    U = heisenberg_group(5)
    A = ElementSet.from_ids(U, [0, 1])
    with pytest.raises(HypothesisViolated):
        nilpotent_recover(U, A)


def test_nilpotent_recover_table_mismatch(sl2_5):
    U = heisenberg_group(5)
    A = ElementSet.from_ids(sl2_5, [0])
    with pytest.raises(TableMismatch):
        nilpotent_recover(U, A)


def test_random_transversal_covers():
    U = heisenberg_group(5)
    rng = np.random.default_rng(1)
    tr = random_transversal(U, rng)
    assert tr.size == 25  # one per coset of the derived subgroup


def test_random_transversal_draws_one_member_of_every_coset():
    U = heisenberg_group(5)
    labels, n_cosets = _derived_cosets(U)
    for seed in range(50):
        tr = random_transversal(U, np.random.default_rng(seed))
        assert sorted(labels[tr.ids].tolist()) == list(range(n_cosets))


def test_derived_cosets_are_cached_on_the_table():
    U = heisenberg_group(5)
    labels, n_cosets = _derived_cosets(U)
    assert np.array_equal(labels, coset_labels(U, lower_central_series(U)[1]))
    assert n_cosets == 25
    assert _derived_cosets(U)[0] is labels  # the second call reuses the first
    # another table gets its own labels
    V = heisenberg_group(3)
    labels3, n_cosets3 = _derived_cosets(V)
    assert n_cosets3 == 9
    assert np.array_equal(labels3, coset_labels(V, lower_central_series(V)[1]))
