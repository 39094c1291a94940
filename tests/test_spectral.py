import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expanderlab import growth, spectral
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
    Measure,
    WalkRow,
    _block_eigenvalues,
    _cluster,
    _cycle_length,
    _split_element,
    _walk,
    cheeger_bracket,
    convolve,
    coset_labels,
    edge_expansion_exact,
    escape_profile,
    flatten_check,
    generator_measure,
    spectrum,
    trace_moment,
    walk_flatten_exponent,
    walk_powers,
    walk_trace_side,
)
import oracles
from oracles import walk_step


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


# ----- measures and convolution -----


def test_measure_basics(sl2_5):
    u = Measure.uniform(sl2_5)
    assert abs(u.mass() - 1.0) < 1e-12
    assert abs(u.l2() - 1 / math.sqrt(120)) < 1e-15
    pt = Measure.point(sl2_5)
    assert pt.l2() == 1.0
    assert pt.linf() == 1.0


def test_measure_exact(sl2_5):
    u = Measure.uniform(sl2_5, exact=True)
    assert u.mass() == Fraction(1)
    assert u.l2_squared() == Fraction(1, 120)


def test_uniform_on_multiset(sl2_5):
    ids = [0, 0, 3]
    m = Measure.uniform_on(sl2_5, ids)
    assert abs(m.weights[0] - 2 / 3) < 1e-15
    assert abs(m.weights[3] - 1 / 3) < 1e-15


def test_convolve_matches_dense_oracle():
    G = cyclic_group(6)
    rng = np.random.default_rng(0)
    w1 = rng.random(6)
    w1 /= w1.sum()
    w2 = rng.random(6)
    w2 /= w2.sum()
    mu = Measure(G, w1.copy())
    nu = Measure(G, w2.copy())
    out = convolve(mu, nu)
    # (mu*nu)(g) = sum_h mu(g h^-1) nu(h)
    expect = np.zeros(6)
    for g in range(6):
        for h in range(6):
            expect[g] += w1[G.mul(g, G.inv(h))] * w2[h]
    assert np.allclose(out.weights, expect, atol=1e-14)


def test_convolve_point_is_translation(sl2_5):
    G = sl2_5
    s = int(G.generator_ids[0])
    mu = Measure.point(G, s)
    nu = Measure.point(G, G.inv(s))
    out = convolve(mu, nu)
    assert out.weights[G.identity_id] == pytest.approx(1.0)


def test_convolve_exact_matches_float():
    G = cyclic_group(5)
    mu = Measure.uniform_on(G, [0, 1], exact=True)
    nu = Measure.uniform_on(G, [1, 2], exact=True)
    out = convolve(mu, nu)
    assert out.mass() == Fraction(1)
    muf = Measure.uniform_on(G, [0, 1])
    nuf = Measure.uniform_on(G, [1, 2])
    outf = convolve(muf, nuf)
    for i in range(5):
        assert abs(float(out.weights[i]) - outf.weights[i]) < 1e-14


@pytest.fixture(scope="module")
def sl2_17():
    return generate_group(lubotzky_gens(), 17)  # 4,896 elements, above PRODUCT_TABLE_CAP


def random_measure(G, size, exact, rng):
    """A measure on size distinct random ids with random positive weights."""
    ids = rng.choice(G.order, size=size, replace=False)
    raw = rng.integers(1, 10, size=size).tolist()
    w = np.array([Fraction(0)] * G.order, dtype=object) if exact else np.zeros(G.order)
    w[ids] = [Fraction(r, sum(raw)) for r in raw] if exact else np.array(raw) / sum(raw)
    return Measure(G, w)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("table", ["sl2_7", "sl2_17"])
def test_convolve_is_the_sum_over_pairs_of_the_supports(table, exact, request, monkeypatch):
    G = request.getfixturevalue(table)
    rng = np.random.default_rng(G.order)
    mu, nu = random_measure(G, 25, exact, rng), random_measure(G, 12, exact, rng)
    want = oracles.convolve(mu, nu)
    calls = []
    mul_vec = G.mul_vec
    monkeypatch.setattr(G, "mul_vec", lambda a, b: calls.append(a.shape) or mul_vec(a, b))
    # one chunk of all 300 pairs, then chunks of 30 pairs: 2 ids of mu against the 12 of nu
    for chunk, shapes in ((growth.CHUNK, [(25, 1)]), (30, [(2, 1)] * 12 + [(1, 1)])):
        monkeypatch.setattr(growth, "CHUNK", chunk)
        calls.clear()
        out = convolve(mu, nu)
        assert calls == shapes and out.exact == exact
        if exact:
            assert out.weights.tolist() == want and out.mass() == 1
        else:
            assert np.abs(out.weights - want).max() <= 1e-14


def test_measure_refuses_weights_of_another_length(sl2_5):
    with pytest.raises(TableMismatch, match="5 weights for a table of order 120"):
        Measure(sl2_5, np.ones(5) / 5)
    assert not Measure(sl2_5, np.ones(120) / 120).exact
    assert Measure(sl2_5, np.array([Fraction(1, 120)] * 120, dtype=object)).exact


def test_walk_step_is_convolution_by_generator_measure(sl2_5):
    G = sl2_5
    gen_ids = [int(i) for i in G.generator_ids]
    mu = Measure.point(G)
    for _ in range(3):
        mu = walk_step(mu, gen_ids)
    nu = Measure.point(G)
    chi = generator_measure(G)
    for _ in range(3):
        nu = convolve(nu, chi)
    assert np.allclose(mu.weights, nu.weights, atol=1e-14)


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
    # exact arithmetic: row norms are floats of exact rationals
    assert series.final.mass() == Fraction(1)


def test_walk_powers_mass_on_subgroup(sl2_5):
    H = borel_subgroup(sl2_5)
    series = walk_powers(sl2_5, 10, H=H)
    for row in series.rows:
        assert 0.0 <= row.mass_on_H <= 1.0


def test_flatten_check_point_degenerate(sl2_5):
    pt = Measure.point(sl2_5)
    rep = flatten_check(pt, pt)
    assert rep.delta_hat == 0.0


def test_flatten_check_uniform(sl2_5):
    u = Measure.uniform(sl2_5)
    rep = flatten_check(u, u)
    # uniform measure is a fixed point: no flattening left, delta = 0
    assert rep.lhs == pytest.approx(1 / math.sqrt(120))
    assert rep.delta_hat == pytest.approx(0.0, abs=1e-12)


def test_walk_flatten_exponent_consistency(sl2_7):
    series = walk_powers(sl2_7, 20)
    rep = walk_flatten_exponent(series, 5)
    assert rep.lhs == pytest.approx(series.rows[9].l2_norm)
    assert rep.rhs == pytest.approx(series.rows[4].l2_norm)
    direct = flatten_check(series_measure(sl2_7, 5), series_measure(sl2_7, 5))
    assert rep.lhs == pytest.approx(direct.lhs, rel=1e-10)
    assert rep.delta_hat > 0


def series_measure(G, l):
    mu = Measure.point(G)
    ids = [int(i) for i in G.generator_ids]
    for _ in range(l):
        mu = walk_step(mu, ids)
    return mu


def test_walk_flatten_exponent_needs_long_series(sl2_5):
    series = walk_powers(sl2_5, 6)
    with pytest.raises(ValueError):
        walk_flatten_exponent(series, 4)


@pytest.mark.parametrize("l", [-1, 0])
def test_walk_flatten_exponent_needs_a_positive_step(sl2_7, l):
    # l = -1 and 0 would read rows -3/-2 and -1/-1 from the end of the series
    with pytest.raises(ValueError, match="must be in 1..10"):
        walk_flatten_exponent(walk_powers(sl2_7, 20), l)


# ----- empty multisets and subgroups of another table -----


def test_an_empty_multiset_is_refused(sl2_5):
    with pytest.raises(ValueError, match="generator multiset is empty"):
        walk_powers(sl2_5, 5, gen_ids=[])
    with pytest.raises(ValueError, match="generator multiset is empty"):
        escape_profile(sl2_5, borel_subgroup(sl2_5), 5, gen_ids=[])
    with pytest.raises(ValueError, match="generator multiset is empty"):
        spectrum(CayleyGraph(sl2_5, []))
    with pytest.raises(ValueError, match="at least one id"):
        Measure.uniform_on(sl2_5, [])


def test_walk_step_refuses_an_empty_multiset():
    with pytest.raises(ValueError, match="generator multiset is empty"):
        walk_step(Measure.point(cyclic_group(6)), [])


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


@pytest.mark.parametrize("bad", [-1, 7])
def test_measures_refuse_ids_outside_the_table(bad):
    # -1 would put its mass on element 6, and the order is past the last element
    G = cyclic_group(7)
    with pytest.raises(NotInGroup):
        Measure.uniform_on(G, [0, bad])
    with pytest.raises(NotInGroup):
        Measure.point(G, bad)
    with pytest.raises(NotInGroup):
        generator_measure(G, [bad], exact=True)


@pytest.mark.parametrize("bad", [-1, 120])
def test_walks_refuse_generator_ids_outside_the_table(sl2_5, bad):
    # -1 would wrap to the last element, and the order is past it
    s = [int(sl2_5.generator_ids[0]), bad]
    with pytest.raises(NotInGroup):
        walk_powers(sl2_5, 3, gen_ids=s)
    with pytest.raises(NotInGroup):
        escape_profile(sl2_5, borel_subgroup(sl2_5), 3, gen_ids=s)
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
    right, m = _split_element(graph)
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
