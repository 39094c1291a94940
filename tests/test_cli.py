import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from expanderlab.cli import (
    EXIT_ASSERTION,
    EXIT_ERROR,
    EXIT_OK,
    builtin_generators,
    main,
    parse_generators,
)
from expanderlab.errors import DenominatorOutsideS, ParseError
from expanderlab.exact import RationalMatrix

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


def test_parse_generators_symmetrize(tmp_path):
    path = write(tmp_path, "g.txt", GOOD_FILE)
    mats, _ = parse_generators(path, symmetrize=True)
    assert len(mats) == 4
    assert mats[0].inverse() in mats


def test_parse_generators_comments_and_blanks(tmp_path):
    text = "# a comment\n\ndim 2\nprimes\n\n1 2 0 1\n"
    mats, primes = parse_generators(write(tmp_path, "g.txt", text))
    assert len(mats) == 1 and len(primes) == 0


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


def test_json_output(tmp_path):
    out = tmp_path / "walk.json"
    rc = main(["walk", "--builtin", "lubotzky3", "--q", "5", "--lmax", "2",
               "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["l", "l2_norm", "linf", "mass_on_H"]
    assert payload["rows"][0]["l2_norm"] == 0.5
    assert "version" in payload and "config" in payload


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


def test_escape_trivial_subgroup_exits_1(capsys):
    rc = main(["escape", "--builtin", "lubotzky3", "--q", "7", "--subgroup", "trivial", "--lmax", "5"])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    assert err.startswith("error[ValueError]: escape needs a nontrivial subgroup")
    assert "Traceback" not in err


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
