import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from expanderlab import cli, quotient
from expanderlab.cli import (
    EXIT_ASSERTION,
    EXIT_ERROR,
    EXIT_OK,
    VERSION,
    build_parser,
    builtin_generators,
    echo,
    emit_report,
    fmt_value,
    main,
    parse_generators,
)
from expanderlab.errors import DenominatorOutsideS, ParseError
from expanderlab.exact import RationalMatrix

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"

GOOD_FILE = """dim 2
primes 3
1 1/3 0 1
1 0 1/3 1
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ----- generator files -----


def test_parse_generators(tmp_path):
    path = write(tmp_path, "g.txt", GOOD_FILE)
    mats, primes = parse_generators(path)
    assert len(mats) == 2
    assert list(primes) == [3]
    assert mats[0] == RationalMatrix([["1", "1/3"], ["0", "1"]])


def test_parse_generators_comments_and_blanks(tmp_path):
    text = "# a comment\n\ndim 2\nprimes\n\n1 2 0 1\n"
    mats, primes = parse_generators(write(tmp_path, "g.txt", text))
    assert len(mats) == 1 and len(primes) == 0


def test_parse_generators_reads_the_primes_line_sorted_and_distinct(tmp_path):
    _, primes = parse_generators(write(tmp_path, "g.txt", "dim 2\nprimes 7 3 3\n1 2 0 1\n"))
    assert primes == (3, 7)


@pytest.mark.parametrize(
    "line, message",
    [("primes 4", "4 is not prime"), ("primes 4 1", "1 is not prime"), ("primes -3", "-3 is not prime"),
     ("primes 3 x", "invalid literal for int() with base 10: 'x'")],
)
def test_parse_generators_refuses_the_first_entry_not_prime(tmp_path, line, message):
    with pytest.raises(ParseError) as e:
        parse_generators(write(tmp_path, "g.txt", f"dim 2\n{line}\n1 2 0 1\n"))
    assert (str(e.value), e.value.line) == (f"line 2: {message}", 2)


def test_parse_generators_bad_header(tmp_path):
    path = write(tmp_path, "g.txt", "dimension 2\nprimes\n1 0 0 1\n")
    with pytest.raises(ParseError) as e:
        parse_generators(path)
    assert e.value.line == 1


def test_parse_generators_wrong_entry_count(tmp_path):
    path = write(tmp_path, "g.txt", "dim 2\nprimes\n1 0 0\n")
    with pytest.raises(ParseError) as e:
        parse_generators(path)
    assert e.value.line == 3


def test_parse_generators_bad_token(tmp_path):
    path = write(tmp_path, "g.txt", "dim 2\nprimes\n1 x 0 1\n")
    with pytest.raises(ParseError) as e:
        parse_generators(path)
    assert e.value.line == 3


@pytest.mark.parametrize("token", ["1e9999999", "1E5", "2.5e-3"])
def test_exponent_token_exits_1_without_a_traceback(tmp_path, capsys, token):
    # Fraction would read the exponent and build a 10-million-digit integer
    gens = write(tmp_path, "g.txt", f"dim 2\nprimes\n1 {token} 0 1\n")
    assert main(["quotient", "--gens", gens, "--q", "7"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error[ParseError]: line 3: bad rational token\n"
    assert "Traceback" not in err


def test_parse_generators_declared_support_accepts(tmp_path):
    # entry 1/3 with declared {3}: fine
    path = write(tmp_path, "g.txt", "dim 2\nprimes 3\n1 1/3 0 1\n")
    mats, _ = parse_generators(path)
    assert len(mats) == 1


def test_parse_generators_undeclared_denominator(tmp_path):
    # the same entry with an empty declared set is rejected
    path = write(tmp_path, "g.txt", "dim 2\nprimes\n1 1/3 0 1\n")
    with pytest.raises(DenominatorOutsideS):
        parse_generators(path)


def test_parse_generators_names_the_undeclared_denominator_primes(tmp_path):
    path = write(tmp_path, "g.txt", "dim 2\nprimes 3\n1/6 0 0 3/5\n1 1/9 0 1\n")
    with pytest.raises(DenominatorOutsideS) as e:
        parse_generators(path)
    assert str(e.value) == "denominator primes [2, 5] outside the declared set"


def test_parse_generators_divides_denominators_by_the_declared_primes(tmp_path):
    # 1000003^2 is too large to factor by trial division, but only its
    # declared prime divides it
    path = write(tmp_path, "g.txt", "dim 2\nprimes 1000003\n1 1/1000006000009 0 1\n")
    mats, primes = parse_generators(path)
    assert len(mats) == 1 and primes == (1000003,)


M61 = 2**61 - 1  # a prime too large to be known prime by trial division to FACTOR_CAP


@pytest.mark.parametrize("argv", [
    ["quotient", "--builtin", "lubotzky3", "--q", str(M61)],
    ["lemmas", "--p", str(M61)],
    ["quotient", "--gens", str(TOOLS / "huge_declared_prime.txt"), "--q", "5"],
    ["quotient", "--gens", str(TOOLS / "huge_denominator.txt"), "--q", "5"],
], ids=["q", "p", "primes-line", "denominator"])
def test_integers_too_large_to_factor_exit_1_at_once(argv, capsys):
    t0 = time.perf_counter()
    assert main(argv) == EXIT_ERROR
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[SizeCapExceeded]: trial division of {M61} stops at 46341, leaving {M61} unfactored\n"


def test_builtin_generators():
    for name in ("lubotzky3", "sanov2", "sl2-elementary"):
        mats = builtin_generators(name)
        assert len(mats) == 4
        for m in mats:
            assert m.inverse() in mats
    with pytest.raises(ValueError):
        builtin_generators("nope")


# ----- commands, exit codes, determinism -----


def test_quotient_output(capsys):
    rc = main(["quotient", "--builtin", "lubotzky3", "--q", "35"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("# expanderlab ")
    assert lines[1].startswith("# config: ")
    assert lines[2] == "modulus,order,bijective"
    assert lines[3] == "5,120,"
    assert lines[4] == "7,336,"
    assert lines[5] == "35,40320,true"


def test_spectrum_row_count(capsys):
    rc = main(["spectrum", "--builtin", "lubotzky3", "--q", "5"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    data = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert data[0] == "index,eigenvalue,multiplicity"
    assert len(data) == 1 + 120
    assert any(l.startswith("# lam2 = 0.809016994375") for l in out.splitlines())


def test_walk_columns(capsys):
    rc = main(["walk", "--builtin", "lubotzky3", "--q", "5", "--lmax", "3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data[0] == "l,l2_norm,linf,mass_on_H"
    assert data[1] == "1,0.5,0.25,0"


def test_escape_runs(capsys):
    rc = main(
        ["escape", "--builtin", "lubotzky3", "--q", "11", "--subgroup", "borel",
         "--lmax", "15"]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "l,l2_norm,linf,mass_on_H,max_coset_mass" in out
    assert "# index = 12" in out


def test_growth_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["growth", "--builtin", "lubotzky3", "--q", "7", "--samples", "3",
            "--seed", "9", "--set-size", "14"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    other = tmp_path / "c.csv"
    args[-3] = "10"  # different seed
    assert main(args + ["--out", str(other)]) == EXIT_OK
    assert a.read_bytes() != other.read_bytes()


def test_growth_set_larger_than_the_group_exits_1(capsys):
    # SL2(F_5) has 120 elements: 120 is the whole group, 121 cannot be drawn
    base = ["growth", "--builtin", "lubotzky3", "--q", "5", "--samples", "1", "--set-size"]
    assert main([*base, "120"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "0,120,120,1"
    assert main([*base, "121"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[ValueError]: a set of 121 elements does not fit in a group of order 120\n"


def test_json_output(tmp_path):
    out = tmp_path / "walk.json"
    rc = main(["walk", "--builtin", "lubotzky3", "--q", "5", "--lmax", "2",
               "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["l", "l2_norm", "linf", "mass_on_H"]
    assert payload["rows"][0]["l2_norm"] == 0.5
    assert "version" in payload and "config" in payload


# report cells: the floats the reports print (and the ones fmt_value
# rounds to nan, inf or -0), and strings holding what the writer splices on
CELLS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300]),
    st.floats(),
    st.sampled_from(['"', "\n", "},\n      {", '"rows": null', "", "λ ≥ √2"]),
    st.text(max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(
    columns=st.lists(st.text(max_size=6), min_size=1, max_size=4),
    notes=st.none() | st.lists(st.sampled_from(['"rows": null', "a\nb", "λ"]) | st.text(max_size=8), max_size=2),
    data=st.data(),
)
def test_json_report_equals_the_indented_encoding(columns, notes, data):
    # columns mix types across rows, as quotient's "" and bool do
    rows = data.draw(st.lists(st.tuples(*[CELLS] * len(columns)), max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = argparse.Namespace(out=os.path.join(tmp, "r.json"), q=7, note="},\n")
        text = emit_report(columns, rows, cfg, notes)
        written = pathlib.Path(cfg.out).read_text()
    payload = {
        "version": VERSION,
        "config": echo(cfg),
        "columns": columns,
        "rows": [
            {c: (float(fmt_value(v)) if isinstance(v, float) else v) for c, v in zip(columns, row)}
            for row in rows
        ],
    }
    if notes:
        payload["notes"] = notes
    assert written == text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def dict_encoding(columns, rows, cfg, notes=None):
    """A JSON report as one dict per row, floats parsed back from their
    12-digit text, encoded by json.dumps with sorted keys and indent 2."""
    payload = {
        "version": VERSION,
        "config": echo(cfg),
        "columns": columns,
        "rows": [
            {c: (float(fmt_value(v)) if isinstance(v, float) else v) for c, v in zip(columns, row)}
            for row in rows
        ],
    }
    if notes:
        payload["notes"] = notes
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("columns", [
    ["a", "b", "a"],
    ["", ""],
    ["x", "x", "x"],
    ["%", "%s", "100%", "%(a)s", "%%"],
    ['"', 'say "hi"', "\\"],
    ["λ", "λ ≥ √2", "é", "日本"],
    ["z", "%s", "λ", "z", '"'],
])
def test_json_report_column_names_match_the_dict_encoding(columns, tmp_path):
    # a repeated name keeps its last cell, as a dict does; % is not a template slot
    rows = [tuple(range(i, i + len(columns))) for i in range(3)]
    rows.append(tuple([0.5, "%s", True, None, "λ"][j % 5] for j in range(len(columns))))
    cfg = argparse.Namespace(out=str(tmp_path / "r.json"), q=7)
    assert emit_report(columns, rows, cfg, ["%s"]) == dict_encoding(columns, rows, cfg, ["%s"])


# floats on both sides of the fast token (the 12-digit text with a point
# and no exponent): integer values, signed zero, a 13th digit that rounds
# away, the fixed/exponent edges of .12g and of repr, and non-finite values
EDGE_FLOATS = [
    0.0, -0.0, 1.0, -2.0, 3.0, 1e3, 123456789012.5, 123456789012.0, 12345678901.5,
    1e11, -1e11, 1e12, 9.99999999999e11, 999999999999.5, 1e15, 1e16, 1e17, 1.5e16,
    1e-5, 1e-4, 1.5e-5, 9.9999999999999e-5, 0.000123456789012345, -1e-4,
    0.1 + 0.2, 1 / 3, 2 / 3, 0.84427, 1e-300, 1e300, 5e-324, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("value", EDGE_FLOATS, ids=repr)
def test_json_float_cells_match_the_dict_encoding(value, tmp_path):
    rows = [(0, value, 1), (1, -value, value)]
    cfg = argparse.Namespace(out=str(tmp_path / "r.json"), q=7)
    text = emit_report(["index", "eigenvalue", "multiplicity"], rows, cfg)
    assert text == dict_encoding(["index", "eigenvalue", "multiplicity"], rows, cfg)


def test_json_cells_of_float_and_int_subclasses_match_the_dict_encoding(tmp_path):
    import numpy as np

    columns = ["f64", "flag", "big", "nothing"]
    rows = [(np.float64(0.1) + np.float64(0.2), True, 2**70, None),
            (np.float64(-0.0), False, -(2**63), None),
            (np.float64(1e11), True, 0, "")]
    cfg = argparse.Namespace(out=str(tmp_path / "r.json"), q=7)
    assert emit_report(columns, rows, cfg) == dict_encoding(columns, rows, cfg)


@settings(max_examples=100, deadline=None)
@given(
    columns=st.lists(st.text(max_size=6), min_size=1, max_size=4),
    notes=st.none() | st.lists(st.text(max_size=8), max_size=2),
    data=st.data(),
)
def test_csv_report_is_comments_header_and_fmt_value_rows(columns, notes, data):
    rows = data.draw(st.lists(st.tuples(*[CELLS] * len(columns)), max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = argparse.Namespace(out=os.path.join(tmp, "r.csv"), q=7, note="},\n")
        text = emit_report(columns, rows, cfg, notes)
        with open(cfg.out, newline="") as fh:
            written = fh.read()
    lines = [f"# expanderlab {VERSION}", f"# config: {echo(cfg)}"]
    lines += [f"# {c}" for c in notes or []]
    lines.append(",".join(columns))
    lines += [",".join(fmt_value(v) for v in row) for row in rows]
    assert written == text == "\n".join(lines) + "\n"


def test_empty_csv_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    rc = main(["growth", "--builtin", "lubotzky3", "--q", "7", "--samples", "0",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[-1] == "seed,size_A,size_AAA,exponent"
    assert all(l.startswith("#") for l in lines[:-1])


def test_freeness_exit_codes(capsys):
    assert main(["freeness", "--builtin", "lubotzky3", "--lmax", "6"]) == EXIT_OK
    capsys.readouterr()
    # the t = 1 pair is not free: witness at length 6, exit 2
    rc = main(["freeness", "--builtin", "sl2-elementary", "--lmax", "6"])
    out = capsys.readouterr().out
    assert rc == EXIT_ASSERTION
    assert "# free = false" in out
    assert "# witness = [1, 2, -1, 2, 1, -2]" in out


def test_freeness_lmax_range(tmp_path, capsys):
    # the identity among the generators is a relation of length 1, which
    # --lmax 0 does not reach
    gens = write(tmp_path, "g.txt", "dim 2\nprimes\n1 0 0 1\n1 2 0 1\n")
    assert main(["freeness", "--gens", gens, "--lmax", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# free = true" in out and "# witness = none" in out
    assert main(["freeness", "--gens", gens, "--lmax", "-2"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error[ValueError]: word length must be in 0..16")
    assert "Traceback" not in err


def test_freeness_inverts_each_generator_once(monkeypatch, capsys):
    # the dedup of inverses and the word search both read each generator's
    # inverse; it is computed once, so every call after the first returns
    # the same matrix
    results = []
    inverse = RationalMatrix.inverse

    def recorded(self):
        results.append(inverse(self))
        return results[-1]

    monkeypatch.setattr(RationalMatrix, "inverse", recorded)
    assert main(["freeness", "--builtin", "lubotzky3", "--lmax", "8"]) == EXIT_OK
    capsys.readouterr()
    assert len(results) == 4 and len({id(r) for r in results}) == 2


def test_freeness_ball_over_the_cap_exits_1(tmp_path, monkeypatch, capsys):
    # four generators at --lmax 16 would hash 7,686,401 words; the search
    # refuses before it builds one, with a typed error and exit 1
    from expanderlab import words

    def no_ball(*args):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(words, "_spheres", no_ball)
    gens = write(tmp_path, "g.txt", "dim 2\nprimes\n1 2 0 1\n1 0 2 1\n1 4 2 5\n5 2 2 1\n")
    assert main(["freeness", "--gens", gens, "--lmax", "16"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error[SizeCapExceeded]: word ball of radius 8 holds 7686401 words, "
                            f"above the cap of {words.FREE_BALL_CAP}\n")


def test_freeness_loads_no_numpy(tmp_path):
    # importing numpy would more than triple a fresh freeness process's
    # start-up, so parsing a file, the word search and the JSON report
    # must all run without it
    gens = write(tmp_path, "g.txt", GOOD_FILE)
    code = ("import sys; from expanderlab.cli import main; rc = main(sys.argv[1:]); "
            "sys.exit('numpy loaded' if 'numpy' in sys.modules else rc)")
    runs = [(["--gens", gens, "--lmax", "8"], EXIT_OK),
            (["--builtin", "sl2-elementary", "--lmax", "6"], EXIT_ASSERTION)]
    for i, (argv, rc) in enumerate(runs):
        out = tmp_path / f"r{i}.json"
        proc = subprocess.run(
            [sys.executable, "-c", code, "freeness", *argv, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == rc, proc.stderr
        assert "command=freeness" in json.loads(out.read_text())["config"]


def test_walk_lmax_range(capsys):
    # --lmax 0 reports no steps; a negative length is an error, not an
    # empty report or a verdict on a walk that never ran
    base = ["--builtin", "lubotzky3", "--q", "7", "--lmax"]
    assert main(["walk", *base, "0"]) == EXIT_OK
    assert main(["escape", *base, "0"]) == EXIT_ASSERTION
    out = capsys.readouterr().out
    assert out.count("# uniform_l2 = ") == 1 and "# settled = false" in out
    assert not [l for l in out.splitlines() if l[:1].isdigit()]
    for argv in (["walk", *base, "-3"], ["walk", "--exact", *base, "-3"], ["escape", *base, "-3"]):
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[ValueError]: walk length must be >= 0, got -3")
        assert "Traceback" not in captured.err

def test_freeness_kesten_rows(capsys):
    main(["freeness", "--builtin", "lubotzky3", "--lmax", "4"])
    out = capsys.readouterr().out
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data[0] == "k,P_k_0,bound"
    assert data[1] == "1,0.25,0.75"


def test_error_exit_codes(tmp_path, capsys):
    # missing --q
    assert main(["quotient", "--builtin", "lubotzky3"]) == EXIT_ERROR
    # parse error with line number on stderr
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 2\nprimes\n1 0 0\n")
    assert main(["quotient", "--gens", str(bad), "--q", "5"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "ParseError" in err
    # missing file
    assert main(["quotient", "--gens", str(tmp_path / "no.txt"), "--q", "5"]) == EXIT_ERROR
    # unknown builtin
    assert main(["quotient", "--builtin", "zzz", "--q", "5"]) == EXIT_ERROR
    # argparse usage errors are remapped to 1
    assert main(["not-a-command"]) == EXIT_ERROR
    capsys.readouterr()


def test_singular_generator_exits_1(tmp_path, capsys):
    # det 5 vanishes mod 5: the matrix has no inverse there
    gens = write(tmp_path, "g.txt", "dim 2\nprimes\n1 0 0 5\n")
    assert main(["quotient", "--gens", gens, "--q", "5"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error[SingularMatrix]")
    assert "Traceback" not in err


ENTRIES = st.sampled_from(["0", "1", "-1", "2", "1/3", "-2/3"])
# no all-digit token, so none reads as a rational except through an
# exponent such as '1e9', which the parser rejects; and no '#', which
# would turn the line into a comment
BAD_TOKENS = st.text(alphabet="0123456789eabxyz?!%&*", min_size=1, max_size=4).filter(
    lambda t: not t.isdigit()
)
BAD_HEADERS = [
    [], ["dim 2"], ["dim", "primes 3"], ["dim two", "primes 3"], ["dimension 2", "primes 3"],
    ["dim 2", "prime 3"], ["dim 2", "primes 4"], ["dim 2", "primes x"],
]


@st.composite
def malformed_generator_files(draw):
    """A well-formed file of 2x2 generators, given exactly one fault."""
    header = ["dim 2", "primes 3"]
    mats = draw(st.lists(st.lists(ENTRIES, min_size=4, max_size=4), min_size=1, max_size=3))
    row = draw(st.integers(0, len(mats) - 1))
    col = draw(st.integers(0, 3))
    fault = draw(st.sampled_from(["token", "count", "zero", "dim", "mixed", "undeclared", "header"]))
    if fault == "token":
        mats[row][col] = draw(BAD_TOKENS)
    elif fault == "count":  # 1 to 3 entries short or over; never an empty line
        k = draw(st.integers(1, 3))
        mats[row] = mats[row][k:] if draw(st.booleans()) else mats[row] + mats[row][:k]
    elif fault == "zero":
        mats[row][col] = f"{draw(st.integers(-5, 5))}/0"
    elif fault == "dim":
        header[0] = f"dim {draw(st.sampled_from([-1, 0, 1, 3, 4]))}"
    elif fault == "mixed":  # a 3x3 generator among the 2x2 ones
        mats.insert(row, draw(st.lists(ENTRIES, min_size=9, max_size=9)))
    elif fault == "undeclared":
        header[1] = "primes 5"
        mats[row][col] = "1/3"
    else:
        header = draw(st.sampled_from(BAD_HEADERS))
    return "\n".join(header + [" ".join(m) for m in mats]) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=malformed_generator_files())
def test_malformed_generator_files_exit_1_without_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["quotient", "--gens", path, "--q", "7"])
    assert rc == EXIT_ERROR, text
    assert err.getvalue().startswith("error["), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_subgroup_file_outside_group_exits_1(tmp_path, capsys):
    # diag(2, 1) has det 2, so it is not in SL2(F_7)
    sub = write(tmp_path, "sub.txt", "dim 2\nprimes\n2 0 0 1\n")
    rc = main(["escape", "--builtin", "lubotzky3", "--q", "7", "--subgroup", f"file:{sub}"])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    assert err.startswith("error[NotInGroup]: element not in group table")


@pytest.mark.parametrize("q", [7, 35])
def test_subgroup_file_of_another_dimension_exits_1(tmp_path, capsys, q):
    # 3x3 matrices against a 2x2 table: numpy's broadcast ValueError escaped
    sub = write(tmp_path, "sub.txt", "dim 3\nprimes\n1 2 0 0 1 0 0 0 1\n")
    rc = main(["escape", "--builtin", "lubotzky3", "--q", str(q), "--subgroup", f"file:{sub}"])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error[NotInGroup]")


def test_subgroup_file_reads_its_normality(tmp_path):
    # the centre {I, -I} of SL2(F_13)
    G = quotient.generate_group(builtin_generators("lubotzky3"), 13)
    H = cli.resolve_subgroup(G, "file:" + write(tmp_path, "centre.txt", "dim 2\nprimes\n12 0 0 12\n"))
    assert H.size == 2 and H.index == 1092 and H.normal and not H.perfect


def test_escape_trivial_subgroup_exits_1(capsys):
    rc = main(["escape", "--builtin", "lubotzky3", "--q", "7", "--subgroup", "trivial", "--lmax", "5"])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    assert err.startswith("error[ValueError]: escape needs a nontrivial subgroup")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["escape", "walk"])
@pytest.mark.parametrize("name", ["borel", "torus"])
def test_named_subgroup_outside_the_group_exits_1(command, name, tmp_path, capsys):
    gens = tmp_path / "unipotent.txt"
    gens.write_text("dim 2\nprimes\n1 2 0 1\n1 2 0 1\n")  # order 13 mod 13
    assert main([command, "--q", "13", "--gens", str(gens), "--subgroup", name]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error[NotInGroup]: the {name} subgroup is not inside this group of order 13; "
        "name a subgroup with --subgroup file:PATH\n"
    )


@pytest.mark.parametrize("p", ["0", "1", "4", "6"])
def test_lemmas_p_must_be_a_prime_from_5(p, monkeypatch, capsys):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(quotient, "_bfs_table", no_table)
    assert main(["lemmas", "--p", p]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[BadPrime]: --p must be a prime >= 5, got {p}\n"


@pytest.mark.parametrize("samples", ["101", "500"])
def test_lemmas_rejects_more_samples_than_it_runs(samples, monkeypatch, capsys):
    # lemmas runs at most 100 recovery trials, so a larger count would be
    # echoed in the report without being run
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(quotient, "_bfs_table", no_table)
    assert main(["lemmas", "--samples", samples]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[ValueError]: lemmas runs at most 100 trials, got --samples {samples}\n"


def test_lemmas_reads_its_trial_cap_when_it_runs(monkeypatch, capsys):
    monkeypatch.setattr(cli, "LEMMAS_TRIAL_CAP", 3)
    assert main(["lemmas", "--samples", "4"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error[ValueError]: lemmas runs at most 3 trials, got --samples 4\n"


def test_lemmas_leaves_the_product_table_of_its_semidirect_group_unbuilt(monkeypatch, capsys):
    # its normal subgroups read a few thousand of the 9M products of the order-3,000 group
    build, built = quotient.semidirect_group, []
    monkeypatch.setattr(quotient, "semidirect_group", lambda spec: built.append(build(spec)) or built[-1])
    assert main(["lemmas", "--p", "5", "--samples", "3"]) == EXIT_OK
    capsys.readouterr()
    [GS] = built
    assert GS.order == 3000 and ("P", 0) not in GS._perm_cache


@pytest.mark.parametrize("argv,message", [
    (["lemmas", "--samples", "0"], "lemmas needs --samples >= 1, got 0"),
    (["lemmas", "--samples", "-1"], "lemmas needs --samples >= 1, got -1"),
    (["growth", "--samples", "-2"], "growth needs --samples >= 0 and --set-size >= 1"),
    (["growth", "--set-size", "-4"], "growth needs --samples >= 0 and --set-size >= 1"),
    (["growth", "--set-size", "0"], "growth needs --samples >= 0 and --set-size >= 1"),
])
def test_vacuous_sample_counts_exit_1(argv, message, capsys):
    # zero lemma trials would report recovery as true, and a negative
    # count or set size would print a report of nothing
    assert main(argv + ["--builtin", "lubotzky3", "--q", "7"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[ValueError]: {message}\n"


def test_element_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("EXPANDERLAB_CAP_ELEMS", "1000")
    rc = main(["quotient", "--builtin", "lubotzky3", "--q", "35"])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    assert "SizeCapExceeded" in err


def test_subgroup_file(tmp_path, capsys):
    sub = tmp_path / "sub.txt"
    sub.write_text("dim 2\nprimes\n1 1 0 1\n")
    rc = main(["escape", "--builtin", "lubotzky3", "--q", "11",
               "--subgroup", f"file:{sub}", "--lmax", "25"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "# index = 120" in out  # the unipotent line has order 11 in SL2(F11)


def test_console_script_installed(tmp_path):
    out = tmp_path / "q.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "expanderlab", "quotient", "--builtin",
         "lubotzky3", "--q", "5", "--out", str(out), "--threads", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().strip().splitlines()[-1] == "5,120,true"


def test_threads_flag_sets_the_blas_variables(monkeypatch, capsys):
    args = ["quotient", "--builtin", "lubotzky3", "--q", "5"]
    assert main(args) == EXIT_OK
    report = capsys.readouterr().out
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in names:
        monkeypatch.delenv(var, raising=False)
    assert main(args + ["--threads", "3"]) == EXIT_OK
    assert capsys.readouterr().out == report
    assert [os.environ.get(var) for var in names] == ["3", "3", "3"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_1_before_setting_a_variable(threads, monkeypatch, capsys):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in names:
        monkeypatch.delenv(var, raising=False)
    assert main(["quotient", "--builtin", "lubotzky3", "--q", "5", "--threads", threads]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[ValueError]: --threads must be at least 1, got {threads}\n"
    assert [os.environ.get(var) for var in names] == [None, None, None]


# Every CLI flag: adding or removing one is a deliberate edit here
OPTIONS = [
    "--builtin", "--exact", "--gens", "--lmax", "--out", "--p", "--q", "--samples",
    "--seed", "--set-size", "--subgroup", "--threads",
]


def test_option_list_is_stable():
    actions = build_parser()._actions
    flags = [f for a in actions for f in a.option_strings if f not in ("-h", "--help")]
    assert sorted(flags) == OPTIONS
    assert [a.dest for a in actions if not a.option_strings] == ["command"]


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()
    assert build_parser() is not build_parser.__wrapped__()


def test_flags_set_in_one_call_are_at_their_defaults_in_the_next():
    fresh = vars(build_parser.__wrapped__().parse_args(["walk"]))
    flags = {"exact": [], "subgroup": ["borel"], "lmax": ["7"], "seed": ["3"], "samples": ["4"],
             "set_size": ["5"], "threads": ["1"]}
    argv = ["walk"] + [x for dest, v in flags.items() for x in ["--" + dest.replace("_", "-"), *v]]
    parsed = vars(build_parser().parse_args(argv))
    assert all(parsed[dest] != fresh[dest] for dest in flags)
    assert vars(build_parser().parse_args(["walk"])) == fresh


def test_usage_errors_and_help_leave_the_parser_usable(capsys):
    assert main(["walk", "--q", "x"]) == EXIT_ERROR
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    argv = ["walk", "--q", "7", "--lmax", "3"]
    assert vars(build_parser().parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))


def first_report_argv_per_command(max_q=40):
    """The first argv of each subcommand in tools/report_argvs.txt whose --q, if any, is below max_q."""
    first = {}
    for line in (TOOLS / "report_argvs.txt").read_text().splitlines():
        argv = shlex.split(line, comments=True)
        q = argv[argv.index("--q") + 1] if "--q" in argv else None
        if argv and (q is None or int(q) < max_q):
            first.setdefault(argv[0], argv)
    return list(first.values())


def test_reports_do_not_depend_on_the_calls_before_them_in_one_process(tmp_path, monkeypatch, capsys):
    # tools/report_digests.py runs one fresh process per argv, so it cannot
    # see state one in-process call leaves for the next
    monkeypatch.chdir(ROOT)
    argvs = first_report_argv_per_command()
    assert sorted(a[0] for a in argvs) == sorted(cli.COMMANDS)

    def run(i):
        out = tmp_path / f"{i}.json"
        rc = main(argvs[i] + ["--out", str(out)])
        return rc, out.read_bytes() if out.exists() else None

    forward = [run(i) for i in range(len(argvs))]
    backward = [run(i) for i in reversed(range(len(argvs)))][::-1]
    capsys.readouterr()
    assert all(report is not None for _, report in forward)
    assert backward == forward


def test_readme_python_blocks_run(capsys):
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    # SL2(F_13), whose spectrum is all dense blocks
    assert capsys.readouterr().out.startswith("2184 0.84427")
