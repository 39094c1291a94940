"""Exact-arithmetic laboratory for expansion in finite quotients of
matrix groups: congruence tables, spectral gaps, random-walk flattening,
escape from subgroups, product-set growth, and free-word combinatorics.

Submodule imports are lazy so the command line can pin thread counts
before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # exact
    "RationalMatrix": "exact",
    "reduce_mod_p": "exact",
    "crt_tuple": "exact",
    "square_free_factors": "exact",
    # words
    "ball_size": "words",
    "reduced_words": "words",
    "kesten_return": "words",
    "kesten_series": "words",
    "kesten_upper_bound": "words",
    "radial_distribution": "words",
    "certify_free": "words",
    # quotient
    "GroupTable": "quotient",
    "generate_group": "quotient",
    "cyclic_group": "quotient",
    "heisenberg_group": "quotient",
    "SemidirectSpec": "quotient",
    "semidirect_group": "quotient",
    "direct_product": "quotient",
    "SubgroupRecord": "quotient",
    "subgroup_closure": "quotient",
    "normal_closure": "quotient",
    "normal_subgroups": "quotient",
    "conjugacy_classes": "quotient",
    "is_perfect": "quotient",
    "product_decompose": "quotient",
    "index_product_check": "quotient",
    "lower_central_series": "quotient",
    "verify_product_form": "quotient",
    "verify_normal_perfect": "quotient",
    "verify_factor_product_form": "quotient",
    "borel_subgroup": "quotient",
    "torus_subgroup": "quotient",
    # spectral
    "walk_powers": "spectral",
    "escape_profile": "spectral",
    "CayleyGraph": "spectral",
    "spectrum": "spectral",
    "trace_moment": "spectral",
    "walk_trace_side": "spectral",
    "edge_expansion_exact": "spectral",
    "cheeger_bracket": "spectral",
    # growth
    "ElementSet": "growth",
    "random_symmetric_set": "growth",
    "product_set": "growth",
    "tripling_report": "growth",
    "chain_inequality": "growth",
    "gowers_cover": "growth",
    "ModuleAction": "growth",
    "orbit_sum_subspace": "growth",
    "orbit_sum_span": "growth",
    "nilpotent_recover": "growth",
    "random_transversal": "growth",
}

__all__ = sorted(_EXPORTS) + ["__version__", "errors"]


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        mod = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(mod, name)
        globals()[name] = value
        return value
    if name == "errors":
        import importlib

        return importlib.import_module(".errors", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
