"""Mutation checks: does the test suite notice a deliberately broken kernel?

Each mutant below is one exact text substitution in one source file, with
the fast test selection expected to catch it.  The script applies each
mutant to a fresh temporary copy of ``src/`` and ``tests/``, runs that
selection there with pytest, and reports ``killed`` (the selection failed)
or ``survived`` (it passed).  A survivor is a finding about the tests; it
is never a reason to drop or edit the mutant.

Run from anywhere:

    python3 mutants/run.py

The exit status is 1 when any mutant survives, its old text does not
occur exactly once, or its selection does not run (pytest exits neither
0 nor 1), and 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


CLASSIFY = "src/seprkit/classify.py"
CONFTEST = "tests/conftest.py"
MATRIX = "src/seprkit/matrix.py"
PROPERTIES = "src/seprkit/properties.py"
SEARCH = "src/seprkit/search.py"
SEPR = "src/seprkit/sepr.py"
LEAF = ("tests/test_matrix.py::test_two_level_leaf_matches_oracle",)
PIVOT = ("tests/test_matrix.py::test_two_by_two_pivot_matches_oracle",)
DELETIONS = ("tests/test_matrix.py::test_deletion_branches_match_scratch_elimination",)
TRANSFORM_RULES = ("tests/test_sepr.py::test_transform_rules_match_engine",)
INHERITANCE = ("tests/test_properties.py::test_inheritance_lists_every_escape_in_walk_order",)
COMPLETIONS = (
    "tests/test_search.py::test_singular_completions_are_singular",
    "tests/test_search.py::test_singular_completions_match_rational_solver",
    "tests/test_search.py::test_completions_reach_every_sequence_of_the_full_enumeration",
)

MUTANTS = (
    # the packed sign fields of the inheritance check
    Mutant(
        "inheritance-no-own-sign",
        PROPERTIES,
        "fields = 1 << (sign_by_mask[mask] + 1 + 3 * (mask.bit_count() - 1))",
        "fields = 0",
        INHERITANCE,
    ),
    Mutant(
        "inheritance-skips-lowest-submask",
        PROPERTIES,
        "        rest = mask\n",
        "        rest = mask & (mask - 1)\n",
        INHERITANCE,
    ),
    Mutant(
        "inheritance-fields-one-order-up",
        PROPERTIES,
        "+ 3 * (mask.bit_count() - 1))",
        "+ 3 * mask.bit_count())",
        INHERITANCE,
    ),
    # the two-level leaf of the sign walk
    Mutant(
        "leaf-int-sign",
        MATRIX,
        "table[child | q | r] = ((det > 0) - (det < 0)) * s",
        "table[child | q | r] = ((det > 0) - (det < 0)) * psign",
        LEAF,
    ),
    Mutant(
        "leaf-pair-sign",
        MATRIX,
        "if d < 0 and not det[1] else _sign(det, d)) * s",
        "if d < 0 and not det[1] else _sign(det, d)) * psign",
        LEAF,
    ),
    Mutant(
        "leaf-int-child-sign",
        MATRIX,
        "table[child | q] = ((nqq > 0) - (nqq < 0)) * psign",
        "table[child | q] = ((nqq > 0) - (nqq < 0)) * s",
        LEAF,
    ),
    Mutant(
        "leaf-pair-child-sign",
        MATRIX,
        "if d < 0 and not nqq[1] else _sign(nqq, d)) * psign",
        "if d < 0 and not nqq[1] else _sign(nqq, d)) * s",
        LEAF,
    ),
    Mutant(
        "leaf-bqa-unconjugated",
        MATRIX,
        "qc, rc = (-qb, -rb) if d < 0 else (qb, rb)",
        "qc, rc = (qb, -rb) if d < 0 else (qb, rb)",
        LEAF,
    ),
    Mutant(
        "leaf-nrq-unconjugated",
        MATRIX,
        "mb = -nb if d < 0 else nb",
        "mb = nb",
        LEAF,
    ),
    # the inline sign of a Z[i] minor keeps the non-real check
    Mutant(
        "walk-pairs-real-part-only",
        MATRIX,
        "(piv[0] > 0) - (piv[0] < 0) if d < 0 and not piv[1] else _sign(piv, d)",
        "(piv[0] > 0) - (piv[0] < 0) if d < 0 else _sign(piv, d)",
        ("tests/test_matrix.py::test_sign_walk_rejects_non_real_minor",),
    ),
    # the certified sign of a Z[sqrt 5] minor
    Mutant(
        "sign-sqrt5-flipped",
        MATRIX,
        "        return Sqrt5Rational(*value).sign()\n",
        "        return -Sqrt5Rational(*value).sign()\n",
        LEAF,
    ),
    # the Bareiss step of the pair walk
    Mutant(
        "reduce-pairs-flipped-sign",
        MATRIX,
        "((va * xa - la * ya - dlb * yb) // pa,",
        "((va * xa - la * ya + dlb * yb) // pa,",
        LEAF,
    ),
    # the 2 x 2 pivot of the sign walk at a zero pivot
    Mutant(
        "pivot-int-sign",
        MATRIX,
        "        table[pivot] = -psign\n        _walk_ints(tblock, [bits[r] for r in keep], pivot, -nrm // prev, -psign, table)",
        "        table[pivot] = psign\n        _walk_ints(tblock, [bits[r] for r in keep], pivot, -nrm // prev, psign, table)",
        PIVOT,
    ),
    Mutant(
        "pivot-pair-sign",
        MATRIX,
        "        table[pivot] = -psign\n        _walk_pairs(tblock, [bits[r] for r in keep], pivot, tprev, -psign, table, d)",
        "        table[pivot] = psign\n        _walk_pairs(tblock, [bits[r] for r in keep], pivot, tprev, psign, table, d)",
        PIVOT,
    ),
    Mutant(
        "pivot-bwa-unconjugated",
        MATRIX,
        "wc = -wb if d < 0 else wb",
        "wc = wb",
        PIVOT,
    ),
    Mutant(
        "pivot-int-single-division",
        MATRIX,
        "    square = prev * prev\n",
        "    square = prev\n",
        PIVOT,
    ),
    Mutant(
        "pivot-pair-single-division",
        MATRIX,
        "    sa, sb = pa * pa + d * pb * pb, 2 * pa * pb  # (det S)**2\n",
        "    sa, sb = pa, pb\n",
        PIVOT,
    ),
    Mutant(
        "pivot-partners-kept",
        MATRIX,
        "keep = [r for r in later if r > w or (r < w and not row[r - a])]",
        "keep = list(later)",
        PIVOT,
    ),
    Mutant(
        "pivot-no-zero-fill",
        MATRIX,
        "    sub = zeros\n    while sub:\n",
        "    sub = 0\n    while sub:\n",
        PIVOT,
    ),
    # the shared elimination prefix of the rank-drop check
    Mutant(
        "deletions-branch-after-column",
        MATRIX,
        "        out.append(_eliminate(d, [row[j + 1 :] for row in rows], None, *state))\n"
        "        state = _eliminate(d, rows, range(j, j + 1), *state)\n",
        "        state = _eliminate(d, rows, range(j, j + 1), *state)\n"
        "        out.append(_eliminate(d, [row[j + 1 :] for row in rows], None, *state))\n",
        DELETIONS,
    ),
    Mutant(
        "deletions-branch-uncopied",
        MATRIX,
        "out.append(_eliminate(d, [row[j + 1 :] for row in rows], None, *state))",
        "out.append(_eliminate(d, rows, range(j + 1, width), *state))",
        DELETIONS,
    ),
    # the division by the previous pivot in the pair elimination
    Mutant(
        "eliminate-pairs-pb-swapped",
        MATRIX,
        "            if pb:\n                for j in later:\n",
        "            if not pb:\n                for j in later:\n",
        ("tests/test_matrix.py::test_sqrt5_witness_inverse",),
    ),
    # canonical grids: _adopt divides a common factor out of scale and grid
    Mutant(
        "adopt-no-gcd",
        MATRIX,
        "            if g != 1:\n",
        "            if False:\n",
        (
            "tests/test_matrix.py::test_equal_matrices_have_equal_grids",
            "tests/test_matrix.py::test_json_loader_matches_scalar_construction",
        ),
    ),
    # the test oracles' own Q(sqrt d) field: a broken oracle must fail the
    # fixed-case oracle tests
    Mutant(
        "oracle-field-product-term-flipped",
        CONFTEST,
        "self.a * y.a + self.d * self.b * y.b",
        "self.a * y.a - self.d * self.b * y.b",
        PIVOT,
    ),
    Mutant(
        "oracle-field-division-unconjugated",
        CONFTEST,
        "return self * type(self)(y.a / norm, -y.b / norm)",
        "return self * type(self)(y.a / norm, y.b / norm)",
        PIVOT,
    ),
    Mutant(
        "oracle-field-sign-by-rational-part",
        CONFTEST,
        "lead = self.a if self.a * self.a > self.d * self.b * self.b else self.b",
        "lead = self.a or self.b",
        LEAF,
    ),
    # the det-zero completions' similarity-class reduction
    Mutant(
        "completions-b-over-whole-pool",
        SEARCH,
        "product(ints, ints, ints, nonnegative, nonnegative)",
        "product(ints, ints, ints, nonnegative, ints)",
        COMPLETIONS,
    ),
    Mutant(
        "completions-c-negated",
        SEARCH,
        "(a * den, y * den, num), (b * den, num, z * den)",
        "(a * den, y * den, -num), (b * den, -num, z * den)",
        COMPLETIONS,
    ),
    # the order-3 rule families built from their rules
    Mutant(
        "order2-window-one-side",
        CLASSIFY,
        "for terms in ((a, b, x), (x, a, b))",
        "for terms in ((a, b, x),)",
        ("tests/test_classify.py::test_order3_hermitian_matches_fixture",),
    ),
    Mutant(
        "underlying-epr-letter",
        CLASSIFY,
        "if t.underlying is c]",
        "if t.underlying is (EprTerm.A if c is EprTerm.S else c)]",
        ("tests/test_classify.py::test_underlying_family_consistent_with_epr_set",),
    ),
    # the census builds a base's transform only when its predicted
    # sequence holds a missing window
    Mutant(
        "census-transform-skip-inverted",
        SEARCH,
        "if any(w in missing for w in windows):",
        "if not any(w in missing for w in windows):",
        ("tests/test_cli.py::test_census_stdout_pinned",),
    ),
    Mutant(
        "census-inverse-of-unnegated",
        SEARCH,
        "inverse_rule(s),",
        "inverse_rule(seq),",
        ("tests/test_search.py::test_census_transforms_match_their_rules",),
    ),
    # the sequence rules the property checks and the census read
    Mutant(
        "direct-sum-without-empty-minor",
        SEPR,
        "return (frozenset((1,)),) + tuple(t.signs for t in seq.terms)",
        "return (frozenset(),) + tuple(t.signs for t in seq.terms)",
        ("tests/test_sepr.py::test_direct_sum_rule_matches_engine",),
    ),
    Mutant(
        "negation-swaps-even-orders",
        SEPR,
        "t.negated if k % 2 else t",
        "t if k % 2 else t.negated",
        TRANSFORM_RULES,
    ),
    Mutant(
        "inverse-without-swap",
        SEPR,
        "    if last is SeprTerm.A_MINUS:\n",
        "    if False:\n",
        TRANSFORM_RULES,
    ),
    Mutant(
        "duplicate-last-weakens-term-1",
        SEPR,
        "[first] + [classify_signs(t.signs | {0}) for t in rest]",
        "[classify_signs(t.signs | {0}) for t in seq.terms]",
        TRANSFORM_RULES,
    ),
)


def run(mutant: Mutant, workdir: Path) -> str:
    """Apply ``mutant`` to a copy of the sources under ``workdir`` and run
    its selection: 'killed', 'survived', 'no-match' or 'error'."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, workdir / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", workdir)
    target = workdir / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "no-match"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    # the copy, not an installed seprkit, must be the one the tests import
    probe = "import seprkit, sys; sys.exit(not seprkit.__file__.startswith(sys.argv[1]))"
    if subprocess.run([sys.executable, "-c", probe, str(workdir)], cwd=workdir, env=env).returncode:
        return "error"
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
    code = subprocess.run(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="seprkit-mutant-") as tmp:
            verdict = run(mutant, Path(tmp))
        bad += verdict != "killed"
        print(f"{mutant.name}\t{verdict}\t{time.perf_counter() - start:.1f}s", flush=True)
    print(f"mutants: {len(MUTANTS) - bad}/{len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
