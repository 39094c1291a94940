"""Plain-loop oracles that the property and spectral tests compare the
library's kernels against: one walk step, one character block of the spectrum,
the mod-p row reduction and the mod-p matrix product and inverse; and a
ping-pong proof of freeness that the length-bounded certificate must agree with."""
import cmath

from expanderlab.errors import SingularMatrix


def walk_step(G, weights, gen_ids):
    """The weights after one convolution by chi_S, a full gather through the left
    translation of each s in gen_ids: the step that spectral._walk must equal with ==."""
    if not len(gen_ids):
        raise ValueError("the generator multiset is empty")
    # 0 + t0 is t0, so the sum adds the terms in the order of gen_ids; an
    # exact sum of Fractions over an int stays a Fraction
    return sum(weights[G.left_perm(int(s))] for s in gen_ids) / len(gen_ids)


def character_block(perms, right, m, degree, k):
    """The block B_k that spectral._block_eigenvalues solves, as a list of rows: T = (1/degree)
    sum of the perms on the f with f(x g^a) = w^(ka) f(x), w = exp(2 pi i/m), in the basis of
    the orbits of right (x -> x g), each vertex written r g^a from its orbit's least vertex r."""
    rep, power = {}, {}
    for x in range(len(right)):
        y = x
        for a in range(0 if x in rep else m):
            rep[y], power[y] = x, a
            y = int(right[y])
    index = {r: i for i, r in enumerate(sorted(set(rep.values())))}
    B = [[0j] * len(index) for _ in index]
    for r, i in index.items():
        for p in perms:
            y = int(p[r])  # s r = rep[y] g^power[y]
            B[i][index[rep[y]]] += cmath.exp(2j * cmath.pi * k * power[y] / m) / degree
    return B


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


def mod_mul(a, b, p):
    """The product of the square matrices a and b mod p, as row tuples in [0, p)."""
    d = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(d)) % p for j in range(d)) for i in range(d))


def mod_inv(a, p):
    """The inverse of the square matrix a mod the prime p, as row tuples, from the
    row reduction of [a | I]; raises SingularMatrix."""
    d = len(a)
    rows, pivots = row_reduce_mod_p([list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(a)], p)
    if pivots != list(range(d)):
        raise SingularMatrix(f"matrix singular mod {p}")
    return tuple(tuple(row[d:]) for row in rows)


def ping_pong_free(A, B):
    """True when ping-pong proves the 2x2 rational matrices A and B free, else None (no conclusion).

    With det 1, traces +-2 and neither +-I, both are +-parabolics with rational fixed points.
    Distinct fixed points conjugate them over Q to +-(1 a; 0 1) and +-(1 0; b 1); a shared one
    makes tr(AB) = +-2.  The signs do not change the image in PSL2, and with both traces made 2,
    tr(AB) = 2 + ab.  When |ab| >= 4, every A^n (n != 0) maps the slopes {|u| < |a|/2} of P^1(Q)
    into {|u| > |a|/2} and every B^n maps them back, so <A, B> is free (Klein; Lyndon and Ullman
    1969; de la Harpe 2000, II.B)."""
    (a, b), (c, d) = A.rows
    (e, f), (g, h) = B.rows
    if a * d - b * c != 1 or e * h - f * g != 1 or abs(a + d) != 2 or abs(e + h) != 2:
        return None
    if not (b or c) or not (f or g):  # with trace +-2 and det 1, +-I
        return None
    normalised = (a + d) * (e + h) / 4 * (a * e + b * g + c * f + d * h)
    return True if abs(normalised - 2) >= 4 else None
