"""Reference reports and the comparator that checks an op against them.

The reference file maps each op's argv (joined by spaces) to the exit
code and JSON report that the program gave for it.  Ints, bools and
strings must match exactly and floats to a relative 1e-9.  Numbers
inside strings (the notes, e.g. "lam2 = 0.935261933") are compared as
floats too.  A float that is zero in exact arithmetic comes out as
rounding noise of order 1e-16, so differences below 1e-12 pass as well.
"""
from __future__ import annotations

import gzip
import json
import math
import os
import re

REFERENCE_PATH = os.path.join("perfbench", "reference.json.gz")
REL_TOL = 1e-9
ABS_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def op_key(argv) -> str:
    return " ".join(argv)


def load(path: str = REFERENCE_PATH) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save(entries: dict, path: str = REFERENCE_PATH) -> None:
    text = json.dumps(entries, sort_keys=True, separators=(",", ":")) + "\n"
    # mtime=0 keeps the file byte-identical when the content is
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode())


def _float_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _string_close(a: str, b: str) -> bool:
    if a == b:
        return True
    if _NUMBER.split(a) != _NUMBER.split(b):
        return False
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    return len(na) == len(nb) and all(_float_close(float(x), float(y)) for x, y in zip(na, nb))


def diff(got, want, where: str = "report") -> str | None:
    """First difference between two decoded JSON values, or None."""
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else f"{where}: {got!r} != {want!r}"
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return f"{where}: {got!r} != {want!r}"
        if type(got) is not type(want):
            return f"{where}: type {type(got).__name__} != {type(want).__name__}"
        return None if _float_close(got, want) else f"{where}: {got!r} != {want!r}"
    if isinstance(want, str):
        ok = isinstance(got, str) and _string_close(got, want)
        return None if ok else f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for k in want:
            d = diff(got[k], want[k], f"{where}.{k}")
            if d:
                return d
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            d = diff(g, w, f"{where}[{i}]")
            if d:
                return d
        return None
    return None if got == want and type(got) is type(want) else f"{where}: {got!r} != {want!r}"


def check(entry: dict | None, rc, report_text: str | None) -> str | None:
    """Why an op's outcome differs from its reference entry, or None.

    Exit 1 always fails; exit 2 passes when the reference also exits 2.
    """
    if entry is None:
        return "no reference for this op"
    if rc not in (0, 2):
        return f"exit code {rc}"
    if rc != entry["exit"]:
        return f"exit code {rc} != {entry['exit']}"
    if report_text is None:
        return "no report written"
    try:
        got = json.loads(report_text)
    except ValueError as e:
        return f"report is not JSON: {e}"
    return diff(got, entry["report"])
