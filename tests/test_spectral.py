import math
from fractions import Fraction

import numpy as np
import pytest

from expanderlab import spectral
from expanderlab.errors import SizeCapExceeded
from expanderlab.exact import RationalMatrix
from expanderlab.quotient import (
    borel_subgroup,
    cyclic_group,
    generate_group,
)
from expanderlab.spectral import (
    CayleyGraph,
    Measure,
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
    walk_step,
    walk_trace_side,
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
    report = escape_profile(sl2_5, H, 2)
    assert report.settled and report.epsilon == 0.05


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
