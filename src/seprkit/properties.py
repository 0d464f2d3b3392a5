"""Executable structural checks for sign sequences of principal minors.

Each check inspects one matrix and returns a list of violation messages
(empty means the property held).  The checks encode facts that are
mathematically guaranteed, so any violation indicates a defect in the
exact arithmetic, the minor enumeration, or the classification logic.
The two-walk checks (inheritance, permutation, transforms) share one
comparison: a walked image's sign table against the table a rule gives,
reported at the first differing mask in one message form.  The transform
checks and the census in ``search`` read one table, ``TRANSFORMS``, which
pairs each transform with its table rule in ``sepr`` and reads from the
operand's sign table whether it applies; the census predicts the built
matrix's sequence by summarising that rule's table.
The checks:

* the last term of a sequence is always A+, A- or N;
* two consecutive N terms force N forever after;
* certain pairs never start a sequence;
* rank equals the largest order with a nonzero principal minor;
* all nonzero minors of order rank(B) share one sign;
* deleting row and column i leaves a matrix whose elimination rank is
  the largest order of a nonzero minor on the masks without i, and at
  least rank - 2;
* the leading order-(n-2) principal submatrix, walked on its own,
  has the matrix's signs on its masks;
* the minor of the inverse at a mask is the minor at its complement
  times the determinant's sign;
* negating the matrix negates exactly the odd-order minors;
* a simultaneous row/column permutation carries the minor at each mask
  to the matrix's minor at the mask's image;
* bordering with a zero row/column keeps every minor and adds zero ones;
* duplicating the last row/column repeats every minor that holds the last
  index with the copy in its place, and zeroes those that hold both;
* over the reals, the coarse S,N,A window never fits in the first n-2
  terms;
* no forbidden window ever appears;
* stripping superscripts reproduces the coarse sequence.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import compress
from operator import methodcaller
from typing import Callable, Dict, List, NamedTuple, Tuple

from .classify import Field, real_sna_starts, scan_for_forbidden, INITIAL_FORBIDDEN_PAIRS
from .matrix import (
    HermitianMatrix,
    MatrixFormatError,
    SingularMatrixError,
    _eliminate,
    matrix_to_json,
)
from .sepr import (
    SeprSequence,
    SeprTerm,
    classify_signs,
    compute_epr,
    compute_sepr,
    direct_sum_table,
    duplicate_last_table,
    inverse_table,
    negation_table,
    permutation_table,
)


def _describe(matrix: HermitianMatrix) -> str:
    """The matrix's JSON document, or its repr when an irrational Q(sqrt 5)
    entry has no JSON form."""
    try:
        return matrix_to_json(matrix)
    except MatrixFormatError:
        return repr(matrix)


def _compare(name: str, got: list, expected: list, matrix: HermitianMatrix) -> List[str]:
    """The two-walk checks' one comparison of the image ``name``'s walked
    table with a rule's: [] if equal, else the first differing mask."""
    if got == expected:
        return []
    m = next(i for i, (g, e) in enumerate(zip(got, expected)) if g != e)
    return [f"{name} has sign {got[m]} at mask {m:#x}, the table rule gives {expected[m]}: {_describe(matrix)}"]


def check_last_term(seq: SeprSequence) -> List[str]:
    last = seq.terms[-1]
    if last in (SeprTerm.A_PLUS, SeprTerm.A_MINUS, SeprTerm.N):
        return []
    return [f"last term {last} is impossible for a single top-order minor: {seq}"]


def check_double_n_tail(seq: SeprSequence) -> List[str]:
    terms = seq.terms
    for k in range(len(terms) - 1):
        if terms[k] is SeprTerm.N and terms[k + 1] is SeprTerm.N:
            if any(t is not SeprTerm.N for t in terms[k + 1 :]):
                return [f"NN at order {k + 1} not followed by all N: {seq}"]
            return []
    return []


def check_initial_pair(seq: SeprSequence) -> List[str]:
    if len(seq) < 2:
        return []
    head = seq[0:2]
    if head in INITIAL_FORBIDDEN_PAIRS:
        return [f"sequence starts with never-initial pair {head}: {seq}"]
    return []


def check_rank_is_principal(matrix: HermitianMatrix) -> List[str]:
    r = matrix.rank()
    table = matrix._mask_signs()
    largest = max(map(int.bit_count, compress(range(len(table)), table)))
    if largest != r:
        return [
            f"elimination rank {r} != largest nonsingular principal order "
            f"{largest} for {_describe(matrix)}"
        ]
    return []


def check_same_sign_at_rank(matrix: HermitianMatrix) -> List[str]:
    r = matrix.rank()
    if r == 0:
        return []
    if len(matrix.minor_sign_sets()[r - 1] - {0}) > 1:
        return [f"mixed signs among order-{r} (rank) minors of {_describe(matrix)}"]
    return []


def check_rank_drop_on_deletion(matrix: HermitianMatrix) -> List[str]:
    """Deleting row and column i leaves a Hermitian matrix, whose rank by
    elimination must be the largest order of a nonzero minor in the
    matrix's table on the masks without i, and at least rank - 2.  Over Z
    and Z[i] the elimination shares no code with the walk that wrote the
    table, so each kernel checks the other; each bad i gets one message.
    The nonzero masks are sorted once, largest order first, so the first
    one without i has the largest order (mask 0, the empty minor, lacks
    every i)."""
    r = matrix.rank()
    table = matrix._mask_signs()
    nonzero = sorted(compress(range(len(table)), table), key=int.bit_count, reverse=True)
    d, grid = matrix._d, matrix._grid
    bad = []
    for i in range(matrix.n):
        rank = _eliminate(d, [list(row[:i] + row[i + 1 :]) for q, row in enumerate(grid) if q != i])[0]
        largest = next(mask for mask in nonzero if not mask >> i & 1).bit_count()
        if rank != largest or rank < r - 2:
            bad.append(
                f"deleting row and column {i + 1} leaves elimination rank {rank}, largest "
                f"nonsingular principal order {largest}, matrix rank {r}: {_describe(matrix)}"
            )
    return bad


def check_inheritance(matrix: HermitianMatrix) -> List[str]:
    """The leading order-(n - 2) principal submatrix, walked on its own,
    has the matrix's signs on the masks without index n - 1 or n: its
    minors are principal minors of the matrix.  The two walks reach a mask
    through different leaves and pivots, so a fault in the walk shows as
    a mismatch."""
    n = matrix.n
    if n < 3:
        return []
    k = n - 2
    sub = HermitianMatrix._of(matrix._d, matrix._scale, tuple(row[:k] for row in matrix._grid[:k]))
    return _compare(f"leading order-{k} submatrix", sub._mask_signs(), matrix._mask_signs()[: 1 << k], matrix)


def not_invertible(last: SeprTerm, where: str) -> str:
    """The violation for an inverse the engine refuses although the last
    term, the determinant's sign, is A+ or A-."""
    return f"last term {last} but matrix not invertible: {where}"


class Transform(NamedTuple):
    """A matrix transform whose sign table a table rule of ``sepr``
    predicts from its operand's table; the hunt compares that table with
    the built matrix's walk, and the census summarises it.  ``build`` looks
    its HermitianMatrix method up when called, so a patched or wrapped
    method is the one run."""

    check: str  # the hunt's check name
    tag: str  # the census's source tag
    build: Callable[[HermitianMatrix], HermitianMatrix]
    table: Callable[[list], list]  # the table rule
    image: str  # the built matrix, as the hunt's violation names it
    applies: Callable[[list], bool] = lambda table: True  # given the operand's table


_ZERO_1 = [1, 0]  # the sign table of the 1x1 zero matrix

# The rule-predicted transforms, keyed by census tag, in the census's order.
TRANSFORMS: Dict[str, Transform] = {
    t.tag: t
    for t in (
        Transform("negation-rule", "negate", methodcaller("negate"), negation_table, "negated matrix"),
        Transform(
            "append-zero", "append-zero", lambda m: m.direct_sum(HermitianMatrix.zero(1)),
            lambda table: direct_sum_table(table, _ZERO_1), "zero-appended matrix",
        ),
        Transform(
            "append-duplicate", "duplicate-last", methodcaller("duplicate_last"), duplicate_last_table,
            "last-row duplicate",
        ),
        Transform(
            "inverse-relation", "inverse", methodcaller("inverse"), inverse_table, "inverse",
            lambda table: table[-1] != 0,
        ),
    )
}


def _check_transform(transform: Transform, matrix: HermitianMatrix) -> List[str]:
    """The built matrix's walked sign table is the table rule applied to
    the matrix's own walked table; the two walks check each other."""
    table = matrix._mask_signs()
    if not transform.applies(table):
        return []
    try:
        image = transform.build(matrix)
    except SingularMatrixError:
        return [not_invertible(classify_signs((table[-1],)), _describe(matrix))]
    return _compare(transform.image, image._mask_signs(), transform.table(table), matrix)


check_inverse_relation = partial(_check_transform, TRANSFORMS["inverse"])
check_negation_rule = partial(_check_transform, TRANSFORMS["negate"])
check_append_zero = partial(_check_transform, TRANSFORMS["append-zero"])
check_append_duplicate = partial(_check_transform, TRANSFORMS["duplicate-last"])


def check_permutation_invariance(matrix: HermitianMatrix, rng: random.Random) -> List[str]:
    """A simultaneous row/column permutation carries the minor at mask M to
    the matrix's minor at the image of M (``sepr.permutation_table``).  One
    permuted copy drawn from ``rng`` is walked; the walk reaches each mask
    through another pivot order, so the two walks check each other."""
    perm = rng.sample(range(1, matrix.n + 1), matrix.n)
    expected = permutation_table(matrix._mask_signs(), perm)
    return _compare(f"permutation {perm}", matrix.permute(perm)._mask_signs(), expected, matrix)


def check_real_sna_window(matrix: HermitianMatrix, seq: SeprSequence) -> List[str]:
    n = matrix.n
    if n < 5 or not matrix.is_real:
        return []
    # underlying-consistency pins seq.underlying() to compute_epr(matrix)
    starts = real_sna_starts(seq.underlying())
    if starts:
        return [
            f"coarse S,N,A window at position {starts[0]} inside first {n - 2} "
            f"terms of a real matrix: {_describe(matrix)}"
        ]
    return []


def check_scan_clean(seq: SeprSequence, field: Field, matrix: HermitianMatrix) -> List[str]:
    hits = scan_for_forbidden(seq, field)
    return [f"forbidden hit {h} in {seq} from {_describe(matrix)}" for h in hits]


def check_underlying_consistency(matrix: HermitianMatrix, seq: SeprSequence) -> List[str]:
    if seq.underlying() != compute_epr(matrix):
        return [
            f"underlying({seq}) != coarse sequence for {_describe(matrix)}"
        ]
    return []


SUITE_CHECKS = (
    "last-term",
    "double-N-tail",
    "initial-pair",
    "rank-is-principal",
    "same-sign-at-rank",
    "rank-drop-on-deletion",
    "inheritance",
    "inverse-relation",
    "negation-rule",
    "permutation-invariance",
    "append-zero",
    "append-duplicate",
    "real-SNA-window",
    "scan-clean",
    "underlying-consistency",
)


def run_suite(matrix: HermitianMatrix, field: Field, rng: random.Random) -> Tuple[Dict[str, int], List[str]]:
    """Run every applicable check on one matrix.

    Returns (counts, violations): counts maps check names to the number of
    times each was actually exercised.
    """
    seq = compute_sepr(matrix)
    counts: Dict[str, int] = {}
    violations: List[str] = []

    def run(name, result):
        counts[name] = counts.get(name, 0) + 1
        violations.extend(result)

    run("last-term", check_last_term(seq))
    run("double-N-tail", check_double_n_tail(seq))
    run("initial-pair", check_initial_pair(seq))
    run("rank-is-principal", check_rank_is_principal(matrix))
    run("same-sign-at-rank", check_same_sign_at_rank(matrix))
    run("rank-drop-on-deletion", check_rank_drop_on_deletion(matrix))
    run("inheritance", check_inheritance(matrix))
    if TRANSFORMS["inverse"].applies(matrix._mask_signs()):
        run("inverse-relation", check_inverse_relation(matrix))
    run("negation-rule", check_negation_rule(matrix))
    run("permutation-invariance", check_permutation_invariance(matrix, rng))
    run("append-zero", check_append_zero(matrix))
    run("append-duplicate", check_append_duplicate(matrix))
    if field is Field.REAL_SYMMETRIC:
        run("real-SNA-window", check_real_sna_window(matrix, seq))
    run("scan-clean", check_scan_clean(seq, field, matrix))
    run("underlying-consistency", check_underlying_consistency(matrix, seq))
    return counts, violations
