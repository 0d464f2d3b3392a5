"""Correctness gates on the CLI's outputs.

The gates parse the text the CLI prints and use no seprkit code, so they
stay independent of the program they check.  Each returns a list of
problems; an empty list means the call passed.
"""

from __future__ import annotations

import re

import matrices

TERM = re.compile(r"A\*|A\+|A-|S\*|S\+|S-|N")
COMPUTE_LINE = re.compile(r"epr: ([ANS]+) / sepr: (\S+) / forbidden windows: none")
CATALOG_SIZE = 75
# (order, field) -> patterns the census must witness, all of them
CENSUS_TOTALS = {("2", "hermitian"): 45, ("2", "real"): 45, ("3", "hermitian"): 251, ("3", "real"): 242}


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def check_properties(argv, out, err):
    samples = _option(argv, "--samples")
    lines = out.splitlines()
    problems = []
    if not lines or lines[0] != f"samples\t{samples}":
        problems.append(f"expected 'samples\\t{samples}' first")
    if "violations\t0" not in lines:
        problems.append("violations reported")
    if not any(line.startswith("check\t") for line in lines):
        problems.append("no check counts")
    return problems


def check_catalog(argv, out, err):
    lines = out.splitlines()
    rows = [line for line in lines if line.count("\t") == 3]
    passed = sum(1 for line in rows if line.endswith("\tpass"))
    if passed != CATALOG_SIZE or len(rows) != CATALOG_SIZE:
        return [f"{passed}/{len(rows)} catalog rows pass, expected {CATALOG_SIZE}"]
    if lines[-1] != f"catalog: {CATALOG_SIZE}/{CATALOG_SIZE} witnesses verified":
        return [f"catalog summary reads {lines[-1]!r}"]
    return []


def check_census(argv, out, err):
    expected = CENSUS_TOTALS[(_option(argv, "--order"), _option(argv, "--field"))]
    rows = [line.split("\t") for line in out.splitlines()]
    witnessed = sum(1 for row in rows if len(row) == 3 and row[1] == "witnessed")
    problems = []
    if witnessed != expected or len(rows) != expected:
        problems.append(f"{witnessed}/{len(rows)} patterns witnessed, expected {expected}/{expected}")
    if f"{expected}/{expected} patterns witnessed" not in err:
        problems.append("census summary does not report every pattern witnessed")
    if "violation:" in err:
        problems.append("census reported a violation")
    return problems


def check_compute(argv, out, err, kind, n):
    match = COMPUTE_LINE.fullmatch(out.strip())
    if match is None:
        return [f"unexpected compute output {out.strip()!r}"]
    epr, sepr = match.groups()
    terms = TERM.findall(sepr)
    problems = []
    if "".join(terms) != sepr or len(terms) != n:
        problems.append(f"sepr {sepr} is not {n} terms")
    elif epr != "".join(t[0] for t in terms):
        problems.append(f"epr {epr} is not the underlying sequence of {sepr}")
    bound = matrices.rank_bound(kind, n)
    if bound is not None and any(t != "N" for t in terms[bound:]):
        problems.append(f"{kind} matrix of rank <= {bound} has a nonzero minor above order {bound}: {sepr}")
    if kind == "dense" and any(t[0] != "A" for t in terms):
        problems.append(f"diagonally dominant matrix has a zero minor: {sepr}")
    return problems


def check_call(call, kind):
    """Every problem with one recorded CLI call of a workload of ``kind``."""
    argv, rc, out, err = call["argv"], call["rc"], call["stdout"], call["stderr"]
    if rc != 0:
        return [f"exit status {rc}: {err.strip()[-300:]}"]
    command = argv[0]
    if command == "properties":
        return check_properties(argv, out, err)
    if command == "catalog":
        return check_catalog(argv, out, err)
    if command == "search":
        return check_census(argv, out, err)
    if command == "compute":
        return check_compute(argv, out, err, kind, matrices.order_of(argv[1]))
    return [f"unexpected command {command}"]
