import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expanderlab import spectral
from expanderlab.cli import builtin_generators
from expanderlab.errors import NotInGroup, SizeCapExceeded, TableMismatch
from expanderlab.exact import RationalMatrix
from expanderlab.quotient import (
    _centre,
    _vector_orbit,
    borel_subgroup,
    cyclic_group,
    direct_product,
    generate_group,
    heisenberg_group,
)
from expanderlab.spectral import (
    CayleyGraph,
    EscapeRow,
    WalkRow,
    _block_eigenvalues,
    _cluster,
    _cycle_length,
    _split_element,
    _walk,
    cheeger_bracket,
    coset_labels,
    edge_expansion_exact,
    escape_profile,
    spectrum,
    trace_moment,
    walk_powers,
    walk_trace_side,
)
from oracles import character_block, walk_step


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


# ----- walk series -----


def test_walk_powers_decay(sl2_7):
    series = walk_powers(sl2_7, 30)
    norms = series.l2_series()
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.1
    assert series.rows[0].l == 1


def test_walk_powers_exact_small():
    G = cyclic_group(5)
    series = walk_powers(G, 4, exact=True)
    # exact arithmetic: row values are floats of exact rationals; the +-1 walk on Z/5
    # returns in 2 of 4 words at l = 2 and in 6 of 16 at l = 4
    assert [r.mass_on_H for r in series.rows] == [0.0, 0.5, 0.0, 0.375]
    assert series.rows[1].l2_norm == math.sqrt(float(Fraction(1, 2) ** 2 + 2 * Fraction(1, 4) ** 2))


def test_walk_powers_mass_on_subgroup(sl2_5):
    H = borel_subgroup(sl2_5)
    series = walk_powers(sl2_5, 10, H=H)
    for row in series.rows:
        assert 0.0 <= row.mass_on_H <= 1.0


# ----- empty multisets and subgroups of another table -----


def test_an_empty_multiset_is_refused(sl2_5):
    with pytest.raises(ValueError, match="generator multiset is empty"):
        walk_powers(sl2_5, 5, gen_ids=[])
    with pytest.raises(ValueError, match="generator multiset is empty"):
        spectrum(CayleyGraph(sl2_5, []))


def test_walk_step_refuses_an_empty_multiset():
    with pytest.raises(ValueError, match="generator multiset is empty"):
        walk_step(cyclic_group(6), np.eye(6)[0], [])


@pytest.mark.parametrize("other", [("sanov2", 7), ("lubotzky3", 11)])
def test_walks_refuse_a_subgroup_of_another_table(other):
    # the same group SL2(F_7) numbered another way, and a subgroup mod 11
    G = generate_group(builtin_generators("lubotzky3"), 7)
    H = borel_subgroup(generate_group(builtin_generators(other[0]), other[1]))
    with pytest.raises(TableMismatch):
        escape_profile(G, H, 5)
    with pytest.raises(TableMismatch):
        walk_powers(G, 5, H=H)


# ----- escape -----


def test_coset_labels(sl2_5):
    H = borel_subgroup(sl2_5)
    labels = coset_labels(sl2_5, H.element_ids)
    assert labels[sl2_5.identity_id] == 0
    counts = np.bincount(labels)
    assert (counts == H.size).all()
    assert len(counts) == H.index


def test_escape_profile(sl2_5):
    H = borel_subgroup(sl2_5)
    report = escape_profile(sl2_5, H, 20)
    assert report.index == 6
    m = report.max_coset_series()
    assert m[-1] <= 2 / 6 + 0.01
    assert report.settled
    # early steps are concentrated, late steps near 1/6
    assert m[0] > m[-1]
    assert abs(m[-1] - 1 / 6) < 0.05


def test_escape_epsilon_is_read_per_call(sl2_5, monkeypatch):
    H = borel_subgroup(sl2_5)
    # after two steps the heaviest coset holds 0.375 > 2/6 + 0.01
    assert not escape_profile(sl2_5, H, 2).settled
    monkeypatch.setattr(spectral, "ESCAPE_EPSILON", 0.05)
    assert escape_profile(sl2_5, H, 2).settled


@pytest.mark.parametrize("bad", [-1, 120])
def test_walks_refuse_generator_ids_outside_the_table(sl2_5, bad):
    # -1 would wrap to the last element, and the order is past it
    s = [int(sl2_5.generator_ids[0]), bad]
    with pytest.raises(NotInGroup):
        walk_powers(sl2_5, 3, gen_ids=s)
    with pytest.raises(NotInGroup):
        CayleyGraph(sl2_5, [bad])


def test_an_escape_row_is_a_walk_row_with_its_heaviest_coset():
    row = EscapeRow(3, 0.5, 0.25, 0.125, 0.375)
    assert isinstance(row, WalkRow) and (row.l, row.mass_on_H, row.max_coset_mass) == (3, 0.125, 0.375)
    assert repr(row) == "EscapeRow(l=3, l2_norm=0.5, linf=0.25, mass_on_H=0.125, max_coset_mass=0.375)"
    assert row == EscapeRow(3, 0.5, 0.25, 0.125, 0.375) and row != WalkRow(3, 0.5, 0.25, 0.125)


# ----- spectra -----


def test_cyclic_spectrum_analytic():
    for n in (5, 13):
        G = cyclic_group(n)
        rep = spectrum(CayleyGraph(G))
        assert abs(rep.lam2 - math.cos(2 * math.pi / n)) < 1e-9
        assert rep.eigenvalues[0] == pytest.approx(1.0)


def test_cyclic_3_spectrum_values():
    rep = spectrum(CayleyGraph(cyclic_group(3)))
    assert np.allclose(sorted(rep.eigenvalues), [-0.5, -0.5, 1.0], atol=1e-12)


def test_sl2_5_gap(sl2_5):
    rep = spectrum(CayleyGraph(sl2_5))
    assert rep.lam2 == pytest.approx(0.809016994375, abs=1e-9)
    top = [c for c in rep.clusters if abs(c[0] - rep.lam2) < 1e-6]
    assert top and top[0][1] == 3
    assert not rep.partial


def test_spectrum_lam_star(sl2_5):
    rep = spectrum(CayleyGraph(sl2_5))
    assert rep.lam_star >= abs(rep.eigenvalues[-1]) - 1e-12
    assert rep.lam_star >= rep.lam2 - 1e-12


def test_apply_is_the_dense_operator_on_vectors_and_columns(sl2_5):
    graph = CayleyGraph(sl2_5)
    v = np.random.default_rng(0).standard_normal(graph.order)
    Tv = graph.dense_operator() @ v
    assert np.abs(graph.apply(v) - Tv).max() <= 1e-15
    assert np.array_equal(graph.apply(v[:, None]), graph.apply(v)[:, None])


def test_trace_identity(sl2_7):
    graph = CayleyGraph(sl2_7)
    rep = spectrum(graph)
    for l in range(1, 9):
        lhs = trace_moment(graph, l, rep)
        rhs = walk_trace_side(graph, l)
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_trace_moment_small_cyclic():
    graph = CayleyGraph(cyclic_group(5))
    rep = spectrum(graph)
    assert trace_moment(graph, 1, rep) == pytest.approx(2.5)


def test_trace_moment_needs_a_nonnegative_l(sl2_7):
    graph = CayleyGraph(sl2_7)
    with pytest.raises(ValueError, match="l >= 0"):
        trace_moment(graph, -1)
    with pytest.raises(ValueError):
        walk_trace_side(graph, -1)


def test_trace_moment_partial_raises(monkeypatch):
    # force a partial spectrum by shrinking the dense cap
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", 10)
    monkeypatch.setattr(spectral, "MAX_EIGS", 6)
    G = cyclic_group(40)
    rep = spectrum(CayleyGraph(G))
    assert rep.partial and len(rep.eigenvalues) == 6
    with pytest.raises(SizeCapExceeded):
        trace_moment(CayleyGraph(G), 2, rep)


def test_partial_spectrum_matches_dense(monkeypatch):
    G = cyclic_group(60)
    full = spectrum(CayleyGraph(G))
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", 10)
    monkeypatch.setattr(spectral, "MAX_EIGS", 8)
    part = spectrum(CayleyGraph(G))
    assert part.partial and len(part.eigenvalues) == 8
    assert part.lam2 == pytest.approx(full.lam2, abs=1e-9)
    for a, b in zip(part.eigenvalues[:6], full.eigenvalues[:6]):
        assert a == pytest.approx(b, abs=1e-9)


def test_cluster_tolerance_is_read_per_call(monkeypatch):
    graph = CayleyGraph(cyclic_group(5))
    assert [m for _, m in spectrum(graph).clusters] == [1, 2, 2]
    monkeypatch.setattr(spectral, "CLUSTER_TOL", 2.0)
    assert [m for _, m in spectrum(graph).clusters] == [5]


# ----- the kernels on a vertex set that is not a group -----


def schreier_graph(name, p):
    """The table generators of a builtin as moves on F_p^2 minus 0 (the orbit of
    e_1, vertex 0), their level ends, and v -> c v for a primitive root c."""
    G = generate_group(builtin_generators(name), p)
    orbit, moves = _vector_orbit(G.digits[G.generator_ids].reshape(-1, 2, 2), np.array([[1, 0]]), p, p * p)
    assert len(orbit) == p * p - 1
    c = next(c for c in range(2, p) if len({pow(c, a, p) for a in range(p - 1)}) == p - 1)
    codes = orbit @ [p, 1]
    order = np.argsort(codes)
    right = order[np.searchsorted(codes, (c * orbit % p) @ [p, 1], sorter=order)]
    return G, [np.concatenate(m) for m in moves], np.cumsum([len(m) for m in moves[0]]), right


def test_split_element_falls_through_when_no_s_z_meets_the_bound():
    # H_3 x C_2 x C_6: a centre of order 36 and exponent 6, so every s z has order at most 6
    # and the search never meets its bound lcm(ord(s), 36) >= 36: it ends on the last z
    G = direct_product(heisenberg_group(3), direct_product(cyclic_group(2), cyclic_group(6)))
    graph = CayleyGraph(G)
    right, m, _ = _split_element(graph)
    centre = np.flatnonzero(_centre(G)).tolist()
    assert G.order == 324 and len(centre) == 36
    orders = [_cycle_length(G.translation(G.mul(s, z), True)) for s in graph.s_ids.tolist() for z in centre]
    assert m == max(orders) == 6
    assert _cycle_length(right) == m
    report = spectrum(graph)
    dense = np.linalg.eigvalsh(graph.dense_operator())[::-1]
    assert np.abs(report.eigenvalues - dense).max() <= 1e-12
    assert [k for _, k in report.clusters] == [k for _, k in _cluster(dense)]


@pytest.mark.parametrize("name", ["lubotzky3", "sanov2"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_block_eigenvalues_of_a_schreier_graph(name, p):
    G, perms, _, right = schreier_graph(name, p)
    n, k = len(right), len(perms)
    vals = _block_eigenvalues(perms, right, p - 1, k)
    A = np.zeros((n, n))
    for q in perms:
        np.add.at(A, (np.arange(n), q), 1.0)
    assert np.abs(vals - np.linalg.eigvalsh(A / k)[::-1]).max() <= 1e-12
    # the Schreier spectrum is a sub-multiset of the Cayley spectrum
    cayley = spectrum(CayleyGraph(G)).eigenvalues
    assert np.abs(vals[:, None] - cayley[None, :]).min(axis=1).max() <= 1e-12


@pytest.mark.parametrize("name", ["lubotzky3", "sanov2"])
@pytest.mark.parametrize("p", [7, 11, 13])
def test_the_blocks_of_an_orbit_are_isospectral(name, p):
    # every block B_k, built by plain loops, has the spectrum of the least k of its orbit under
    # the units and -1, the one block of the orbit that the builder solves
    graph = CayleyGraph(generate_group(builtin_generators(name), p))
    right, m, units = _split_element(graph)
    blocks = [np.linalg.eigvalsh(np.array(character_block(graph.perms, right, m, graph.degree, k))) for k in range(m)]
    for k in range(m):
        least = min(k * c * e % m for c in units for e in (1, -1))
        assert np.abs(blocks[k] - blocks[least]).max() <= 1e-12
        # the constants, eigenvalue 1 of the connected graph, lie in block 0 alone
        assert (blocks[k].max() > 1 - 1e-9) == (k == 0)


@pytest.mark.parametrize("name", ["lubotzky3", "sanov2"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_the_units_on_sl2_are_the_squares_prime_to_2p(name, p):
    # g = u (-I), u unipotent: g^c = (-1)^c u^c is conjugate to g when c is odd and u^c ~ u,
    # that is when c is a nonzero square mod p
    _, m, units = _split_element(CayleyGraph(generate_group(builtin_generators(name), p)))
    squares = {a * a % p for a in range(1, p)}
    assert m == 2 * p
    assert units == [c for c in range(m) if math.gcd(c, m) == 1 and c % p in squares]


@pytest.mark.parametrize("G,order", [(heisenberg_group(5), 5), (cyclic_group(12), 12)],
                         ids=["heisenberg 5", "cyclic 12"])
def test_a_split_element_conjugate_to_no_other_power_has_the_unit_1_alone(G, order):
    # a noncentral g of order 5 in H_5 is conjugate only to the g z, z central, and g^c is not
    # one of them for c != 1; an abelian g is conjugate to itself alone
    _, m, units = _split_element(CayleyGraph(G))
    assert (m, units) == (order, [1])


def test_cluster_sizes_and_means_are_those_of_the_split_runs():
    values = spectrum(CayleyGraph(generate_group(builtin_generators("sanov2"), 11))).eigenvalues
    runs = np.split(values, np.flatnonzero(values[:-1] - values[1:] > spectral.CLUSTER_TOL) + 1)
    clusters = _cluster(values)
    assert len(runs) == 78 and [k for _, k in clusters] == [len(r) for r in runs]
    # reduceat sums in another order than mean
    assert np.abs(np.array([v for v, _ in clusters]) - [r.mean() for r in runs]).max() <= 1e-12
    assert _cluster(np.array([1.0])) == [(1.0, 1)]


@pytest.mark.parametrize("name", ["lubotzky3", "sanov2"])
def test_walk_on_a_schreier_graph_is_a_matrix_power(name):
    _, perms, ends, right = schreier_graph(name, 7)
    n, k = len(right), len(perms)
    A = np.zeros((n, n), dtype=np.int64)
    for q in perms:
        np.add.at(A, (np.arange(n), q), 1)
    counts = np.eye(n, dtype=np.int64)[0]
    walks = zip(_walk(perms, ends, 12, True), _walk(perms, [], 12, True), _walk(perms, ends, 12, False))
    for (l, exact), (_, whole), (_, floats) in walks:
        assert exact.tolist() == whole.tolist() == counts.tolist()
        assert np.abs(floats - counts / k**l).max() <= 1e-15
        counts = A @ counts


@functools.cache
def schreier_moves(name, p):
    return schreier_graph(name, p)[1:3]


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["lubotzky3", "sanov2"]), p=st.sampled_from([5, 7, 11]), exact=st.booleans(),
       data=st.data())
def test_the_walk_is_a_plain_loop_of_gathers(name, p, exact, data):
    """_walk on the Schreier moves, with their level ends, or on a multiset of them, without, against
    sum(prev[q] for q in perms) / k compared with ==; a yielded array stays intact while the next
    step is yielded, and the step after that is written over it."""
    moves, ends = schreier_moves(name, p)
    picks = data.draw(st.none() | st.lists(st.integers(0, len(moves) - 1), min_size=1, max_size=5))
    perms, ends = (moves, ends) if picks is None else ([moves[i] for i in picks], [])
    want = np.zeros(len(moves[0]), dtype=object if exact else float)
    want[0] = 1
    yielded = []
    for l, w in _walk(perms, ends, data.draw(st.integers(0, 12)), exact):
        if l:
            want = sum(want[q] for q in perms)
            if not exact:
                want /= len(perms)
            assert yielded[-1][0].tolist() == yielded[-1][1]
        assert w.dtype == want.dtype and w.tolist() == want.tolist()
        assert {type(x) for x in w.tolist()} == {int if exact else float}
        if l >= 2:
            assert w is yielded[-2][0]
        yielded.append((w, w.tolist()))


# ----- expansion -----


def test_edge_expansion_cycle_values():
    assert edge_expansion_exact(CayleyGraph(cyclic_group(4))) == pytest.approx(1.0)
    assert edge_expansion_exact(CayleyGraph(cyclic_group(16))) == pytest.approx(0.25)


def test_edge_expansion_complete_graph():
    G = cyclic_group(4)
    graph = CayleyGraph(G, s_ids=[1, 2, 3])
    assert edge_expansion_exact(graph) == pytest.approx(2.0)


def test_edge_expansion_cap():
    with pytest.raises(SizeCapExceeded):
        edge_expansion_exact(CayleyGraph(cyclic_group(30)))


def test_cheeger_bracket_contains_expansion():
    for n in (4, 8, 12, 16):
        G = cyclic_group(n)
        graph = CayleyGraph(G)
        rep = spectrum(graph)
        c = edge_expansion_exact(graph)
        lo, hi = cheeger_bracket(rep.lam2, graph.degree)
        assert lo - 1e-9 <= c <= hi + 1e-9
