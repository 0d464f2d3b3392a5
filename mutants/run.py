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
LEAF3 = ("tests/test_matrix.py::test_three_level_leaf_matches_oracle",)
NON_REAL = ("tests/test_matrix.py::test_sign_walk_rejects_non_real_minor",)
PIVOT = ("tests/test_matrix.py::test_two_by_two_pivot_matches_oracle",)
ZERO_LEAF = ("tests/test_matrix.py::test_zero_pivot_leaf_matches_oracle",)
LARGE_BLOCKS = ("tests/test_matrix.py::test_large_blocks_agree_across_kernels",)
TRANSFORM_RULES = ("tests/test_sepr.py::test_transform_rules_match_engine",)
DIRECT_SUM_RULE = ("tests/test_sepr.py::test_direct_sum_rule_matches_engine",)
INHERITANCE = ("tests/test_properties.py::test_inheritance_names_the_first_wrong_cached_sign",)
INHERITANCE_CLEAN = ("tests/test_properties.py::test_inheritance_clean_on_random_draws",)
PERMUTATION = ("tests/test_properties.py::test_permutation_names_the_first_wrong_cached_sign",)
PERMUTATION_CLEAN = ("tests/test_properties.py::test_permutation_clean_on_random_draws",)
RANK_DROP = ("tests/test_properties.py::test_rank_drop_names_each_deletion_a_wrong_cached_sign_reaches",)
COMPLETIONS = (
    "tests/test_search.py::test_singular_completions_are_singular",
    "tests/test_search.py::test_singular_completions_emit_510_matrices",
    "tests/test_search.py::test_completions_reach_every_sequence_of_the_full_enumeration",
)

MUTANTS = (
    # the inheritance check compares the cached table with a fresh walk of
    # the leading order-(n - 2) submatrix, on that submatrix's masks
    Mutant(
        "inheritance-never-fails",
        PROPERTIES,
        "if n < 3:",
        "if True:",
        INHERITANCE,
    ),
    Mutant(
        "inheritance-rereads-the-cache",
        PROPERTIES,
        'submatrix", sub._mask_signs(),',
        'submatrix", matrix._mask_signs()[: 1 << k],',
        INHERITANCE,
    ),
    Mutant(
        "inheritance-compares-the-wrong-slice",
        PROPERTIES,
        "matrix._mask_signs()[: 1 << k]",
        "matrix._mask_signs()[-(1 << k) :]",
        INHERITANCE,
    ),
    # the rank-drop check eliminates the principal deletion of i and
    # reads the table on the masks without i
    Mutant(
        "rank-drop-keeps-column-i",
        PROPERTIES,
        "[list(row[:i] + row[i + 1 :]) for q, row in enumerate(grid) if q != i]",
        "[list(row) for q, row in enumerate(grid) if q != i]",
        ("tests/test_properties.py::test_individual_checks_pass_on_catalog",),
    ),
    Mutant(
        "rank-drop-reads-every-mask",
        PROPERTIES,
        "next(mask for mask in nonzero if not mask >> i & 1)",
        "nonzero[0]",
        RANK_DROP,
    ),
    # the permutation check compares the permuted copy's table at mask M
    # with the matrix's table at the image of M, which sepr's permutation
    # rule reads
    Mutant(
        "permutation-image-from-inverse",
        SEPR,
        "for p in perm:",
        "for p in sorted(range(1, len(perm) + 1), key=lambda k: perm[k - 1]):",
        PERMUTATION,
    ),
    Mutant(
        "permutation-table-inverts-the-image",
        SEPR,
        "return [table[mask] for mask in image]",
        "return [table[image.index(mask)] for mask in range(len(table))]",
        TRANSFORM_RULES,
    ),
    Mutant(
        "permutation-reads-own-mask",
        PROPERTIES,
        "permutation_table(matrix._mask_signs(), perm)",
        "matrix._mask_signs()",
        PERMUTATION_CLEAN,
    ),
    # the one-level leaf of the integer walk, caught by the inheritance
    # check alone: the hunt's own check sees faults in the walk
    Mutant(
        "leaf1-int-sign",
        MATRIX,
        "table[child | bits[-1]] = ((num > 0) - (num < 0)) * psign",
        "table[child | bits[-1]] = ((num > 0) - (num < 0)) * s",
        INHERITANCE_CLEAN,
    ),
    # the two-level leaf of the sign walk
    Mutant(
        "leaf-int-sign",
        MATRIX,
        "= ((nrr > 0) - (nrr < 0)) * psign\n                table[child | q | r] = ((det > 0) - (det < 0)) * s\n",
        "= ((nrr > 0) - (nrr < 0)) * psign\n                table[child | q | r] = ((det > 0) - (det < 0)) * psign\n",
        LEAF,
    ),
    Mutant(
        "leaf-pair-sign",
        MATRIX,
        "if zb else (nrr > 0) - (nrr < 0)) * psign\n                table[child | q | r] = ((det > 0) - (det < 0)) * s\n",
        "if zb else (nrr > 0) - (nrr < 0)) * psign\n                table[child | q | r] = ((det > 0) - (det < 0)) * psign\n",
        LEAF,
    ),
    Mutant(
        "leaf-int-child-sign",
        MATRIX,
        "q, r = bits[-2], bits[-1]\n                table[child | q] = ((nqq > 0) - (nqq < 0)) * psign",
        "q, r = bits[-2], bits[-1]\n                table[child | q] = ((nqq > 0) - (nqq < 0)) * s",
        LEAF,
    ),
    Mutant(
        "leaf-pair-child-sign",
        MATRIX,
        "if xb else (nqq > 0) - (nqq < 0)) * psign",
        "if xb else (nqq > 0) - (nqq < 0)) * s",
        LEAF,
    ),
    Mutant(
        "leaf-bqa-unconjugated",
        MATRIX,
        "nqq = va * xa - qa * qa - qb * qb\n"
        "                nrr = va * za - ra * ra - rb * rb\n"
        "                na, nb = va * ya - qa * ra - qb * rb, va * yb - qa * rb + qb * ra",
        "nqq = va * xa - qa * qa + qb * qb\n"
        "                nrr = va * za - ra * ra - rb * rb\n"
        "                na, nb = va * ya - qa * ra + qb * rb, va * yb - qa * rb - qb * ra",
        LEAF,
    ),
    Mutant(
        "leaf-nrq-unconjugated",
        MATRIX,
        "det = nqq * nrr - na * na - nb * nb",
        "det = nqq * nrr - na * na + nb * nb",
        LEAF,
    ),
    # the three-level leaf of the sign walk: S+a+q+r+t takes sign det S,
    # the Z[i] 3 x 3 determinant reads Re(N_qr N_rt conj N_qt), each of the
    # seven sets is written (an unwritten one reads 0), and each N_xx is
    # checked for a nonzero imaginary part before any sign
    Mutant(
        "leaf3-int-det-sign",
        MATRIX,
        "table[child | q] = ((nqq > 0) - (nqq < 0)) * psign\n"
        "                table[child | q | r] = ((dqr > 0) - (dqr < 0)) * s\n"
        "                table[child | q | t] = ((dqt > 0) - (dqt < 0)) * s\n"
        "                table[child | q | r | t] = ((det > 0) - (det < 0)) * psign\n",
        "table[child | q] = ((nqq > 0) - (nqq < 0)) * psign\n"
        "                table[child | q | r] = ((dqr > 0) - (dqr < 0)) * s\n"
        "                table[child | q | t] = ((dqt > 0) - (dqt < 0)) * s\n"
        "                table[child | q | r | t] = ((det > 0) - (det < 0)) * s\n",
        LEAF3,
    ),
    Mutant(
        "leaf3-pair-det-sign",
        MATRIX,
        "table[child | q] = sq * psign\n"
        "                table[child | q | r] = ((dqr > 0) - (dqr < 0)) * s\n"
        "                table[child | q | t] = ((dqt > 0) - (dqt < 0)) * s\n"
        "                table[child | q | r | t] = ((det > 0) - (det < 0)) * psign\n",
        "table[child | q] = sq * psign\n"
        "                table[child | q | r] = ((dqr > 0) - (dqr < 0)) * s\n"
        "                table[child | q | t] = ((dqt > 0) - (dqt < 0)) * s\n"
        "                table[child | q | r | t] = ((det > 0) - (det < 0)) * s\n",
        LEAF3,
    ),
    Mutant(
        "leaf3-pair-triple-unconjugated",
        MATRIX,
        "2 * (pa * fa + pb * fb)",
        "2 * (pa * fa - pb * fb)",
        LEAF3,
    ),
    Mutant(
        "leaf3-int-pair-unwritten",
        MATRIX,
        "table[child | r] = ((nrr > 0) - (nrr < 0)) * psign\n"
        "                table[child | r | t] = ((drt > 0) - (drt < 0)) * s\n",
        "table[child | r] = ((nrr > 0) - (nrr < 0)) * psign\n",
        LEAF3,
    ),
    Mutant(
        "leaf3-nonreal-unchecked",
        MATRIX,
        "                sq = _sign((nqq, va * qqb), -1) if qqb else (nqq > 0) - (nqq < 0)\n"
        "                sr = _sign((nrr, va * rrb), -1) if rrb else (nrr > 0) - (nrr < 0)\n"
        "                st = _sign((ntt, va * ttb), -1) if ttb else (ntt > 0) - (ntt < 0)\n",
        "                sq = (nqq > 0) - (nqq < 0)\n"
        "                sr = (nrr > 0) - (nrr < 0)\n"
        "                st = (ntt > 0) - (ntt < 0)\n",
        NON_REAL,
    ),
    # the inline sign of a Z[i] minor keeps the non-real check
    Mutant(
        "walk-pairs-real-part-only",
        MATRIX,
        "(piv[0] > 0) - (piv[0] < 0) if not piv[1] else _sign(piv, -1)",
        "(piv[0] > 0) - (piv[0] < 0)",
        NON_REAL,
    ),
    # the certified sign of a Z[sqrt 5] minor, and the swap sign of the
    # elimination that gives it
    Mutant(
        "sign-sqrt5-flipped",
        MATRIX,
        "        return Sqrt5Rational(*value).sign()\n",
        "        return -Sqrt5Rational(*value).sign()\n",
        LEAF,
    ),
    Mutant(
        "sqrt5-table-no-swap-sign",
        MATRIX,
        "table[mask] = sign * _sign(last, d) if",
        "table[mask] = _sign(last, d) if",
        LEAF,
    ),
    # the Bareiss step of the pair walk
    Mutant(
        "reduce-pairs-flipped-sign",
        MATRIX,
        "((va * xa - la * ya - lb * yb) // prev,",
        "((va * xa - la * ya + lb * yb) // prev,",
        LEAF,
    ),
    # the cached index triples of a Bareiss step on a flat block: (a, r)
    # and (a, t) swapped conjugates the wrong factor of a Z[i] product
    Mutant(
        "step-pair-factors-swapped",
        MATRIX,
        "(start[r] + t - r, row + r, row + t)",
        "(start[r] + t - r, row + t, row + r)",
        LARGE_BLOCKS,
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
        "        table[pivot] = -psign\n        _walk_pairs(tblock, [bits[r] for r in keep], pivot, -nrm // prev, -psign, table)",
        "        table[pivot] = psign\n        _walk_pairs(tblock, [bits[r] for r in keep], pivot, -nrm // prev, psign, table)",
        PIVOT,
    ),
    Mutant(
        "pivot-bwa-unconjugated",
        MATRIX,
        "nrm = wa * wa + wb * wb",
        "nrm = wa * wa - wb * wb",
        PIVOT,
    ),
    Mutant(
        "pivot-int-single-division",
        MATRIX,
        "    square = prev * prev\n    low = []",
        "    square = prev\n    low = []",
        PIVOT,
    ),
    Mutant(
        "pivot-pair-single-division",
        MATRIX,
        "    square = prev * prev\n    for w",
        "    square = prev\n    for w",
        PIVOT,
    ),
    Mutant(
        "pivot-partners-kept",
        MATRIX,
        "keep = (*low, *range(w + 1, m))\n        u = [block[at + r] for r in keep]",
        "keep = tuple(range(a + 1, m))\n        u = [block[at + r] for r in keep]",
        PIVOT,
    ),
    # the cached index triples of a 2 x 2 pivot's block: (i, j) swapped
    # conjugates the wrong factors of a Z[i] entry
    Mutant(
        "pairs-index-swapped",
        MATRIX,
        "(i, j, start[r] + t - r)",
        "(j, i, start[r] + t - r)",
        PIVOT,
    ),
    # the zero-pivot leaves of the sign walk: a single takes -sign(det S),
    # a Z[i] pair reads Re(u_q C_qr conj u_r), the triple takes sign(det S),
    # and each C_xx is checked for a nonzero imaginary part before any sign
    Mutant(
        "zero-leaf-int-single-sign",
        MATRIX,
        "q, r = bits[-2], bits[-1]\n                    table[child | q] = -psign if uq else 0",
        "q, r = bits[-2], bits[-1]\n                    table[child | q] = psign if uq else 0",
        ZERO_LEAF,
    ),
    Mutant(
        "zero-leaf-pair-unconjugated",
        MATRIX,
        "pa, pb = qa * ra + qb * rb, qb * ra - qa * rb",
        "pa, pb = qa * ra - qb * rb, qb * ra + qa * rb",
        ZERO_LEAF,
    ),
    Mutant(
        "zero-leaf-int-triple-sign",
        MATRIX,
        "table[child | q] = -psign if uq else 0\n"
        "                    table[child | q | r] = (mqr > 0) - (mqr < 0)\n"
        "                    table[child | q | t] = (mqt > 0) - (mqt < 0)\n"
        "                    table[child | q | r | t] = ((mqrt > 0) - (mqrt < 0)) * psign\n",
        "table[child | q] = -psign if uq else 0\n"
        "                    table[child | q | r] = (mqr > 0) - (mqr < 0)\n"
        "                    table[child | q | t] = (mqt > 0) - (mqt < 0)\n"
        "                    table[child | q | r | t] = (mqrt > 0) - (mqrt < 0)\n",
        ZERO_LEAF,
    ),
    Mutant(
        "zero-leaf-nonreal-unchecked",
        MATRIX,
        "                    if xb or yb or zb:\n"
        "                        for diagonal in (xa, xb), (ya, yb), (za, zb):\n"
        "                            _sign(diagonal, -1)\n",
        "",
        NON_REAL,
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
    # the JSON loader parses each distinct text of a document once: a parse
    # stored under another text, or a part that is no string used as a key
    Mutant(
        "loader-memo-stores-under-wrong-text",
        MATRIX,
        "got = ratios[part] = parse_ratio(part)",
        'got = ratios[part.lstrip("-")] = parse_ratio(part)',
        ("tests/test_matrix.py::test_json_loader_repeated_texts_match_per_cell_parse",),
    ),
    Mutant(
        "loader-memo-keys-every-part",
        MATRIX,
        "if not isinstance(part, str):",
        "if False:",
        ("tests/test_cli.py::test_compute_list_valued_part_is_a_located_usage_error",),
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
    # the det-zero completions' diagonal solve and similarity-class reduction
    Mutant(
        "completions-b-over-whole-pool",
        SEARCH,
        "product(ints, ints, ints, nonnegative, nonnegative)",
        "product(ints, ints, ints, ints, nonnegative)",
        COMPLETIONS,
    ),
    Mutant(
        "completions-b33-negated",
        SEARCH,
        "(b * den, c * den, num))",
        "(b * den, c * den, -num))",
        COMPLETIONS,
    ),
    Mutant(
        "completions-no-swap",
        SEARCH,
        "if den == 0 or (x, b) > (y, c):",
        "if den == 0:",
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
    # each pattern's rule is the first family naming it, and the real
    # S,N,A window must fit inside the first n - 2 terms
    Mutant(
        "rule-table-last-rule-wins",
        CLASSIFY,
        "table.setdefault(pattern, rule)",
        "table[pattern] = rule",
        ("tests/test_classify.py::test_rule_assignment_matches_rederivation",),
    ),
    Mutant(
        "sna-window-touches-tail",
        CLASSIFY,
        "range(len(terms) - 4)",
        "range(len(terms) - 2)",
        ("tests/test_classify.py::test_scan_real_sna_window",),
    ),
    # the census builds a rule-predicted construction only when its
    # predicted sequence holds a missing window
    Mutant(
        "census-transform-skip-inverted",
        SEARCH,
        "if any(w in missing for w in windows):",
        "if not any(w in missing for w in windows):",
        ("tests/test_cli.py::test_census_stdout_pinned",),
    ),
    # the sweep grades raw grids and builds a matrix only for the first
    # grid of each sequence
    Mutant(
        "sweep-keeps-last-grid",
        SEARCH,
        "if text not in found:",
        "if True:",
        ("tests/test_search.py::test_sweep_keeps_the_first_canonical_grid_of_each_sequence",),
    ),
    # the sweep and absorb() summarise each distinct sign table once; a
    # repeated table still reports its forbidden windows under its source
    Mutant(
        "sweep-summarises-every-grid",
        SEARCH,
        "        tables.add(table)\n",
        "",
        ("tests/test_search.py::test_sweep_summarises_each_distinct_table_once",),
    ),
    Mutant(
        "census-repeat-drops-violations",
        SEARCH,
        "            s, bad = graded[table]\n",
        "            return\n",
        ("tests/test_search.py::test_census_reports_a_forbidden_window_per_repeated_table",),
    ),
    # every rule-predicted census construction passes one gate, which
    # scans its prediction for forbidden windows
    Mutant(
        "census-gate-no-forbidden-scan",
        SEARCH,
        "        violations.extend(\n"
        '            f"forbidden pattern {w} predicted in {predicted} for {source}" for w in windows if w in forbidden\n'
        "        )\n",
        "",
        (
            "tests/test_search.py::test_census_scans_predictions_for_forbidden_windows",
            "tests/test_search.py::test_census_scans_direct_sum_predictions",
        ),
    ),
    # the transforms of a base's negation are predicted from the negation's
    # table, not the base's
    Mutant(
        "census-transform-of-unnegated",
        SEARCH,
        "t.table(operand_table)",
        "t.table(table)",
        ("tests/test_search.py::test_census_transforms_match_their_rules",),
    ),
    # the hunt's two-walk checks share one table comparison
    Mutant(
        "transform-check-never-fails",
        PROPERTIES,
        "if got == expected:",
        "if True:",
        ("tests/test_properties.py::test_suite_catches_seeded_defect",),
    ),
    # the coarse terms read each order's sign set
    Mutant(
        "epr-terms-all-zero-reads-S",
        SEPR,
        "s: EprTerm.N if s == {0}",
        "s: EprTerm.S if s == {0}",
        ("tests/test_sepr.py::test_epr_terms_read_each_orders_sign_set",),
    ),
    # compute_sepr and compute_epr share one summary of the sign table
    Mutant(
        "sign-sets-not-cached",
        MATRIX,
        'object.__setattr__(self, "_sets", cached)',
        "pass",
        ("tests/test_sepr.py::test_compute_sepr_and_epr_split_the_table_once",),
    ),
    # a chunk of the table is read at the popcount of its index
    Mutant(
        "sign-sets-chunk-base-is-index",
        MATRIX,
        "enumerate(getters, index.bit_count() - 1)",
        "enumerate(getters, index - 1)",
        ("tests/test_matrix.py::test_sign_sets_match_popcount_reference",),
    ),
    Mutant(
        "classify-signs-drops-unknown-values",
        SEPR,
        "term = _TERM_BY_SIGNS.get(present)",
        "term = _TERM_BY_SIGNS.get(present & {-1, 0, 1})",
        ("tests/test_sepr.py::test_classify_rejects_values_other_than_signs",),
    ),
    # the table rules that the hunt's transform checks and the census read
    Mutant(
        "direct-sum-table-operands-swapped",
        SEPR,
        "[y * x for y in b for x in a]",
        "[y * x for x in a for y in b]",
        DIRECT_SUM_RULE,
    ),
    Mutant(
        "direct-sum-table-ignores-second-operand",
        SEPR,
        "[y * x for y in b for x in a]",
        "[x for y in b for x in a]",
        DIRECT_SUM_RULE,
    ),
    Mutant(
        "negation-table-negates-even-orders",
        SEPR,
        "-sign if mask.bit_count() & 1 else sign",
        "sign if mask.bit_count() & 1 else -sign",
        TRANSFORM_RULES,
    ),
    Mutant(
        "duplicate-last-table-keeps-both-copies",
        SEPR,
        "return table + table[h:] + [0] * h",
        "return table + table[h:] + table[h:]",
        TRANSFORM_RULES,
    ),
    Mutant(
        "inverse-table-ignores-determinant-sign",
        SEPR,
        "return table[::-1] if table[-1] > 0 else [-sign for sign in reversed(table)]",
        "return table[::-1]",
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
