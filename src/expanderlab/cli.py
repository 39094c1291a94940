"""Command line front end: parse generators, run named experiments,
emit deterministic CSV or JSON reports.

Exit codes: 0 success, 2 a measured property failed its assertion,
1 bad input or an operational error.  Output is byte-identical for
identical config and seed: no timestamps, floats at 12 significant
digits (in JSON, Python's repr of the rounded value), sorted config echo.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ASSERTION = 2

LEMMAS_TRIAL_CAP = 100  # most nilpotent-recovery trials a lemmas run takes

BUILTIN_GENS = {"lubotzky3": 3, "sanov2": 2, "sl2-elementary": 1}  # name: the t of builtin_generators


def builtin_generators(name: str):
    """Named generator sets, symmetric by construction."""
    from .exact import RationalMatrix

    if name not in BUILTIN_GENS:
        raise ValueError(f"unknown builtin '{name}', have {sorted(BUILTIN_GENS)}")
    t = BUILTIN_GENS[name]
    f = Fraction
    mats = [
        [[f(1), f(t)], [f(0), f(1)]],
        [[f(1), f(-t)], [f(0), f(1)]],
        [[f(1), f(0)], [f(t), f(1)]],
        [[f(1), f(0)], [f(-t), f(1)]],
    ]
    return [RationalMatrix(m) for m in mats]


def parse_generators(path: str):
    """Read a generator file: 'dim d', 'primes p1 p2 ...', then one
    matrix per line as d*d rational tokens in row-major order."""
    from .errors import DenominatorOutsideS, ParseError
    from .exact import RationalMatrix, prime_factors

    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw)]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty generator file", 1)
    n0, first = lines[0]
    parts = first.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ParseError("expected 'dim d' on the first line", n0)
    try:
        d = int(parts[1])
    except ValueError:
        raise ParseError(f"bad dimension token {parts[1]!r}", n0)
    if len(lines) < 2:
        raise ParseError("missing 'primes' line", n0)
    n1, second = lines[1]
    sparts = second.split()
    if not sparts or sparts[0] != "primes":
        raise ParseError("expected 'primes p1 p2 ...' on the second line", n1)
    try:
        declared = tuple(sorted({int(x) for x in sparts[1:]}))
    except ValueError as e:
        raise ParseError(str(e), n1)
    for p in declared:
        if prime_factors(p) != [p]:
            raise ParseError(f"{p} is not prime", n1)
    mats = []
    for n, ln in lines[2:]:
        toks = ln.split()
        if len(toks) != d * d:
            raise ParseError(f"expected {d * d} entries, got {len(toks)}", n)
        # Fraction reads exponents, so '1e9999999' would cost unbounded time
        if any("e" in t.lower() for t in toks):
            raise ParseError("bad rational token", n)
        try:
            vals = [Fraction(t) for t in toks]
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad rational token", n)
        rows = [vals[i * d : (i + 1) * d] for i in range(d)]
        mats.append(RationalMatrix(rows))
    if not mats:
        raise ParseError("no generator matrices", lines[-1][0])
    outside = set()  # the denominators with the declared primes divided out
    for b in {x.denominator for m in mats for row in m.rows for x in row}:
        for p in declared:
            while b % p == 0:
                b //= p
        outside.add(b)
    if outside != {1}:
        extra = sorted({p for b in outside for p in prime_factors(b)})
        raise DenominatorOutsideS(f"denominator primes {extra} outside the declared set")
    return mats, declared


def echo(cfg: argparse.Namespace) -> str:
    """The sorted config line of a report.  out and threads do not affect
    results; leaving them out keeps reports byte-identical across
    destinations."""
    return " ".join(
        f"{k}={fmt_value(v)}"
        for k, v in sorted(vars(cfg).items())
        if k not in ("out", "threads") and v is not None and v is not False
    )


def fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _json_cell(v) -> str:
    """One JSON report cell; a float is Python's repr of it at 12 significant digits."""
    if type(v) is int:
        return str(v)
    if isinstance(v, float):
        t = f"{v:.12g}"  # with a point and no exponent, this text already is that repr
        return t if "." in t and "e" not in t else json.dumps(float(t))
    return json.dumps(v)


def emit_report(
    columns: list[str],
    rows: list[tuple],
    config: argparse.Namespace,
    extra_comments: list[str] | None = None,
) -> str:
    """Render a report deterministically; .json output paths get JSON,
    everything else CSV with a version stamp and config echo."""
    as_json = bool(config.out and config.out.endswith(".json"))
    if as_json:
        # the indented encoding of each dict(zip(columns, row)), column by column
        keep = sorted({c: j for j, c in enumerate(columns)}.items())
        cells = [[_json_cell(row[j]) for row in rows] for _, j in keep]
        fields = ",\n      ".join(json.dumps(c).replace("%", "%%") + ": %s" for c, _ in keep)
        body = ",\n".join(map(("    {\n      " + fields + "\n    }").__mod__, zip(*cells)))
        payload = {"version": VERSION, "config": echo(config), "columns": columns, "rows": None}
        if extra_comments:
            payload["notes"] = extra_comments
        # json escapes newlines in strings, so '"rows": null' is the payload's own key
        text = json.dumps(payload, sort_keys=True, indent=2)
        text = text.replace('"rows": null', '"rows": ' + (f"[\n{body}\n  ]" if rows else "[]"), 1) + "\n"
    else:
        out = [f"# expanderlab {VERSION}", f"# config: {echo(config)}"]
        for c in extra_comments or []:
            out.append(f"# {c}")
        out.append(",".join(columns))
        for row in rows:
            out.append(",".join(fmt_value(v) for v in row))
        text = "\n".join(out) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def load_generators(cfg: argparse.Namespace):
    if cfg.gens:
        mats, _ = parse_generators(cfg.gens)
        return mats
    return builtin_generators(cfg.builtin or "lubotzky3")


def load_group(cfg: argparse.Namespace):
    """The group the generators generate mod --q."""
    from . import quotient as Q

    gens = load_generators(cfg)
    if cfg.q is None:
        raise ValueError(f"{cfg.command} needs --q")
    return Q.generate_group(gens, cfg.q)


def resolve_subgroup(G, spec: str | None):
    from . import quotient as Q

    if spec is None or spec == "trivial":
        return None
    if spec == "borel":
        return Q.borel_subgroup(G)
    if spec == "torus":
        return Q.torus_subgroup(G)
    if spec.startswith("file:"):
        mats, _ = parse_generators(spec[5:])
        ids = Q.ids_of_matrices(G, mats)
        return Q.subgroup_closure(G, [int(i) for i in ids])
    raise ValueError(f"unknown subgroup spec {spec!r}")


# ---------------------------------------------------------------------------
# commands


def cmd_quotient(cfg: argparse.Namespace) -> int:
    from . import quotient as Q

    G = load_group(cfg)
    rows = []
    bijective = True
    if len(G.meta["primes"]) > 1:
        _, rep = Q.product_decompose(G)
        for p, o in zip(G.meta["primes"], rep["orders"]):
            rows.append((p, o, ""))
        bijective = rep["bijective"]
    rows.append((cfg.q, G.order, bijective))
    emit_report(["modulus", "order", "bijective"], rows, cfg)
    return EXIT_OK


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    from . import spectral as S

    G = load_group(cfg)
    graph = S.CayleyGraph(G)
    report = S.spectrum(graph)
    mults = [m for _, m in report.clusters for _ in range(m)]  # the clusters cover the values in order
    rows = [(i, v, m) for i, (v, m) in enumerate(zip(report.eigenvalues.tolist(), mults))]
    lo, hi = S.cheeger_bracket(report.lam2, graph.degree)
    notes = [
        f"lam2 = {report.lam2:.12g}",
        f"lam_star = {report.lam_star:.12g}",
        f"cheeger_bracket = [{lo:.12g}, {hi:.12g}]",
        f"partial = {fmt_value(report.partial)}",
    ]
    emit_report(["index", "eigenvalue", "multiplicity"], rows, cfg, notes)
    return EXIT_OK


def cmd_walk(cfg: argparse.Namespace) -> int:
    from . import spectral as S

    G = load_group(cfg)
    H = resolve_subgroup(G, cfg.subgroup)
    l_max = cfg.lmax if cfg.lmax is not None else 40
    series = S.walk_powers(G, l_max, H=H, exact=cfg.exact)
    rows = [(r.l, r.l2_norm, r.linf, r.mass_on_H) for r in series.rows]
    target = 1.0 / G.order**0.5
    emit_report(
        ["l", "l2_norm", "linf", "mass_on_H"],
        rows,
        cfg,
        [f"uniform_l2 = {target:.12g}"],
    )
    return EXIT_OK


def cmd_escape(cfg: argparse.Namespace) -> int:
    from . import spectral as S

    G = load_group(cfg)
    H = resolve_subgroup(G, cfg.subgroup or "borel")
    if H is None:
        raise ValueError("escape needs a nontrivial subgroup")
    report = S.escape_profile(G, H, cfg.lmax if cfg.lmax is not None else 40)
    rows = [
        (r.l, r.l2_norm, r.linf, r.mass_on_H, r.max_coset_mass)
        for r in report.rows
    ]
    notes = [
        f"index = {report.index}",
        f"stationary = {1.0 / report.index:.12g}",
        f"settled = {fmt_value(report.settled)}",
    ]
    emit_report(
        ["l", "l2_norm", "linf", "mass_on_H", "max_coset_mass"], rows, cfg, notes
    )
    return EXIT_ASSERTION if not report.settled else EXIT_OK


def cmd_growth(cfg: argparse.Namespace) -> int:
    import numpy as np

    from . import growth as GR

    if cfg.samples < 0 or cfg.set_size < 1:
        raise ValueError("growth needs --samples >= 0 and --set-size >= 1")
    G = load_group(cfg)
    rows = []
    for i in range(cfg.samples):
        seed = cfg.seed + i
        rng = np.random.default_rng(seed)
        A = GR.random_symmetric_set(G, cfg.set_size, rng)
        rep = GR.tripling_report(A)
        rows.append((seed, rep.size, rep.triple_size, rep.exponent))
    emit_report(["seed", "size_A", "size_AAA", "exponent"], rows, cfg)
    return EXIT_OK


def cmd_freeness(cfg: argparse.Namespace) -> int:
    from . import words as W

    gens = load_generators(cfg)
    # drop redundant inverses: a symmetric file set would otherwise hand
    # the word search a length-2 identity
    positives = []
    seen = set()
    for g in gens:
        if g in seen:
            continue
        positives.append(g)
        seen.add(g)
        seen.add(g.inverse())
    length = cfg.lmax if cfg.lmax is not None else 12
    free, witness = W.certify_free(positives, length)
    m = len(positives)
    rows = [
        (k, float(P), float(W.kesten_upper_bound(m, k)))
        for k, P in enumerate(W.kesten_series(m, length), start=1)
    ]
    notes = [
        f"generators = {m}",
        f"free_up_to = {length}",
        f"free = {fmt_value(free)}",
        f"witness = {list(witness) if witness else 'none'}",
    ]
    emit_report(["k", "P_k_0", "bound"], rows, cfg, notes)
    return EXIT_OK if free else EXIT_ASSERTION


def cmd_lemmas(cfg: argparse.Namespace) -> int:
    import numpy as np

    from . import growth as GR, quotient as Q
    from .errors import BadPrime
    from .exact import RationalMatrix, prime_factors

    p = 5 if cfg.p is None else cfg.p
    if p < Q.MIN_PRIME or prime_factors(p) != [p]:
        raise BadPrime(f"--p must be a prime >= {Q.MIN_PRIME}, got {p}")
    if cfg.samples < 1:
        raise ValueError(f"lemmas needs --samples >= 1, got {cfg.samples}")
    if cfg.samples > LEMMAS_TRIAL_CAP:
        raise ValueError(f"lemmas runs at most {LEMMAS_TRIAL_CAP} trials, got --samples {cfg.samples}")
    gens = load_generators(cfg)
    checks: list[tuple[str, bool]] = []

    # product-form for the two-prime quotient
    q2 = p * 7 if p != 7 else 35
    G2 = Q.generate_group(gens, q2)
    normals = Q.normal_subgroups(G2)
    ok = all(
        Q.verify_factor_product_form(G2, H)["passed"] for H in normals
    )
    checks.append((f"normal subgroups of the mod-{q2} quotient are product-form", ok))

    # semidirect splitting and the perfect-surjection lemma
    lmats = [RationalMatrix([[1, 3], [0, 1]]), RationalMatrix([[1, 0], [3, 1]])]
    GS = Q.semidirect_group(Q.SemidirectSpec(p=p, l_gens=lmats))
    split_ok = True
    for H in Q.normal_subgroups(GS):
        rep = Q.verify_product_form(GS, H)
        split_ok = split_ok and rep["passed"]
    checks.append(("normal subgroups of the semidirect group split", split_ok))
    rep = Q.verify_normal_perfect(GS)
    checks.append(("no proper normal subgroup surjects onto the Levi part", rep["passed"]))

    # lower central series and nilpotent recovery
    U = Q.heisenberg_group(p)
    chain = Q.lower_central_series(U)
    checks.append(
        (f"lower central series orders ({p}^3, {p}, 1)",
         [len(c) for c in chain] == [p**3, p, 1])
    )
    rng = np.random.default_rng(cfg.seed)
    t_vals = []
    for _ in range(cfg.samples):
        tr = GR.random_transversal(U, rng)
        t_vals.append(GR.nilpotent_recover(U, tr)["t"])
    checks.append(("nilpotent recovery within t_max on random transversals",
                   None not in t_vals))

    # orbit sums for SL2(F7) on F7^2
    act = GR.ModuleAction(7, 2, [np.array([[1, 3], [0, 1]]), np.array([[1, 0], [3, 1]])])
    r1 = GR.orbit_sum_subspace(act, [1, 0])
    r2 = GR.orbit_sum_span(act, [1, 0])
    checks.append(("orbit sums reach an invariant subspace and the full submodule",
                   r1["c"] is not None and r2["holds"]))

    rows = list(checks)
    emit_report(["check", "passed"], rows, cfg)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_ASSERTION


COMMANDS = {
    "quotient": cmd_quotient,
    "spectrum": cmd_spectrum,
    "walk": cmd_walk,
    "escape": cmd_escape,
    "growth": cmd_growth,
    "freeness": cmd_freeness,
    "lemmas": cmd_lemmas,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it,
    and building it costs several times the parse."""
    ap = argparse.ArgumentParser(
        prog="expanderlab",
        description="exact expansion experiments on congruence quotients",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--gens", help="generator file path")
    ap.add_argument("--builtin", help="named generator set: lubotzky3, sanov2, sl2-elementary")
    ap.add_argument("--q", type=int, help="square-free modulus")
    ap.add_argument("--p", type=int, help="prime for the lemma suite")
    ap.add_argument("--lmax", type=int, help="walk length (default 40) / word length (default 12)")
    ap.add_argument("--subgroup", help="borel | torus | file:PATH")
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--set-size", dest="set_size", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--exact", action="store_true", help="exact rational walk weights")
    ap.add_argument("--out", help="output path (.json for JSON, else CSV)")
    ap.add_argument("--threads", type=int, help="cap BLAS/OpenMP threads")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; 2 is reserved for assertion
        # failures here, so remap
        return EXIT_OK if e.code in (0, None) else EXIT_ERROR
    from .errors import ExpanderLabError

    try:
        if ns.threads is not None:
            if ns.threads < 1:
                raise ValueError(f"--threads must be at least 1, got {ns.threads}")
            # argparse and errors load no numpy, so the BLAS/OpenMP pools
            # numpy starts later in this process respect the cap
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(ns.threads)
        return COMMANDS[ns.command](ns)
    except (ExpanderLabError, ValueError, OSError) as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
