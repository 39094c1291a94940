"""Plain-loop oracles that the property and spectral tests compare the
library's kernels against."""
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
    return Measure(G, acc / len(gen_ids), mu.exact)
