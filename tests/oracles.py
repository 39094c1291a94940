"""Plain-loop oracles that the property and spectral tests compare the
library's kernels against: one walk step, a convolution and the mod-p row
reduction."""
from fractions import Fraction

import numpy as np

from expanderlab.spectral import Measure


def walk_step(mu: Measure, gen_ids) -> Measure:
    """One convolution by chi_S, a full gather through the left translation of each
    s in gen_ids: the step that spectral._walk must equal with ==."""
    if not len(gen_ids):
        raise ValueError("the generator multiset is empty")
    G = mu.table
    # 0 + t0 is t0, so the sum adds the terms in the order of gen_ids; an
    # exact sum of Fractions over an int stays a Fraction
    acc = sum(mu.weights[G.left_perm(int(s))] for s in gen_ids)
    return Measure(G, acc / len(gen_ids))


def convolve(mu: Measure, nu: Measure) -> list:
    """The weights of mu * nu as a list, one pair of the two supports at a time: mu(x) nu(h)
    added at x h, with x in ascending order and h ascending within it."""
    G = mu.table
    out = [Fraction(0) if mu.exact else 0.0] * G.order
    for x in np.flatnonzero(mu.weights).tolist():
        for h in np.flatnonzero(nu.weights).tolist():
            out[G.mul(x, h)] += mu.weights[x] * nu.weights[h]
    return out


def row_reduce_mod_p(rows, p):
    """Reduced row echelon form over F_p of one matrix, row by row in Python
    ints: the nonzero reduced rows and the ascending pivot columns that
    exact.row_reduce_mod_p must equal."""
    m = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)  # Fermat's inverse, p prime
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots
