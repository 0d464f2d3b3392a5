"""Executable structural checks for sign sequences of principal minors.

Each check inspects one matrix and returns a list of violation messages
(empty means the property held).  The checks encode facts that are
mathematically guaranteed, so any violation indicates a defect in the
exact arithmetic, the minor enumeration, or the classification logic.
The transform checks take their expected sequences from the rules in
``sepr`` (``inverse_rule``, ``negation_rule``, ``direct_sum_rule``,
``duplicate_last_rule``), which read only the parent's sequence, never
its minor table:

* the last term of a sequence is always A+, A- or N;
* two consecutive N terms force N forever after;
* certain pairs never start a sequence;
* rank equals the largest order with a nonzero principal minor;
* all nonzero minors of order rank(B) share one sign;
* deleting one row and one column lowers rank by at most 2;
* N / A+ / A- terms are inherited by principal submatrices, and
  S+ / S- weaken only to {A+, N, S+} / {A-, N, S-};
* the sequence of the inverse is the reversed (and, for negative
  determinant, sign-swapped) sequence;
* negating the matrix swaps + and - exactly on odd orders;
* simultaneous row/column permutation changes nothing;
* bordering with a zero row/column weakens every A to S and appends N;
* duplicating the last row/column does the same from the second term on;
* over the reals, the coarse S,N,A window never fits in the first n-2
  terms;
* no forbidden window ever appears;
* stripping superscripts reproduces the coarse sequence.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .classify import Field, scan_for_forbidden, INITIAL_FORBIDDEN_PAIRS
from .matrix import HermitianMatrix, MatrixFormatError, SingularMatrixError, _column_deletions, matrix_to_json
from .sepr import (
    EprTerm,
    SeprSequence,
    SeprTerm,
    classify_signs,
    compute_epr,
    compute_sepr,
    direct_sum_rule,
    duplicate_last_rule,
    inverse_rule,
    negation_rule,
)


def _describe(matrix: HermitianMatrix) -> str:
    """The matrix's JSON document, or its repr when an irrational Q(sqrt 5)
    entry has no JSON form."""
    try:
        return matrix_to_json(matrix)
    except MatrixFormatError:
        return repr(matrix)


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
    largest = 0
    for k, signs in enumerate(matrix.minor_signs_by_order(), start=1):
        if any(s != 0 for s in signs):
            largest = k
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
    signs = {s for s in matrix.minor_signs_by_order()[r - 1] if s != 0}
    if len(signs) > 1:
        return [f"mixed signs among order-{r} (rank) minors of {_describe(matrix)}"]
    return []


def check_rank_drop_on_deletion(matrix: HermitianMatrix) -> List[str]:
    n = matrix.n
    if n < 2:
        return []
    r = matrix.rank()
    if r <= 2:
        return []
    bad = []
    d, grid = matrix._d, matrix._grid
    for i in range(n):
        rows = [list(row) for q, row in enumerate(grid) if q != i]
        for j, (rank, _, _) in enumerate(_column_deletions(d, rows)):
            if rank < r - 2:
                bad.append(
                    f"deleting row {i + 1}, column {j + 1} dropped rank below "
                    f"{r - 2} for {_describe(matrix)}"
                )
    return bad


_INHERIT_ALLOWED = {
    SeprTerm.N: {SeprTerm.N},
    SeprTerm.A_PLUS: {SeprTerm.A_PLUS},
    SeprTerm.A_MINUS: {SeprTerm.A_MINUS},
    SeprTerm.S_PLUS: {SeprTerm.A_PLUS, SeprTerm.N, SeprTerm.S_PLUS},
    SeprTerm.S_MINUS: {SeprTerm.A_MINUS, SeprTerm.N, SeprTerm.S_MINUS},
}


# A set of minor signs packs into a 3-bit field: bit s + 1 is set when a
# minor of sign s (-1, 0 or 1) is present.  Every nonempty field names one term.
_FIELD_TERM = (None,) + tuple(
    classify_signs(s for s in (-1, 0, 1) if field >> (s + 1) & 1) for field in range(1, 8)
)

# The sign bits a term's images must not show.  Each allowed set above holds
# every term whose signs lie inside its union, so a nonempty field lands in
# the allowed set exactly when it shares no bit with these.
_INHERIT_BAD = {
    term: 7 ^ sum(1 << (s + 1) for s in frozenset().union(*(t.signs for t in allowed)))
    for term, allowed in _INHERIT_ALLOWED.items()
}


def check_inheritance(matrix: HermitianMatrix, seq: SeprSequence) -> List[str]:
    """Every principal submatrix's terms stay inside the allowed images.

    Each mask gets one packed int holding a 3-bit sign field per order k
    (bits 3(k-1) to 3k-1) for the order-k principal minors inside the
    mask: its own minor's sign bit OR the ints of its one-smaller
    submasks, filled in increasing mask order.
    """
    n = matrix.n
    if n < 2:
        return []
    sign_by_mask = matrix._mask_signs()
    full = (1 << n) - 1
    packed = [0] * full
    for mask in range(1, full):
        fields = 1 << (sign_by_mask[mask] + 1 + 3 * (mask.bit_count() - 1))
        rest = mask
        while rest:
            low = rest & -rest
            fields |= packed[mask ^ low]
            rest ^= low
        packed[mask] = fields
    terms = seq.terms
    bad_bits = 0
    for j, term in enumerate(terms):
        bad_bits |= _INHERIT_BAD.get(term, 0) << 3 * j
    bad = []
    for mask in sign_by_mask:
        if mask == full or not packed[mask] & bad_bits:
            continue
        fields = packed[mask]
        for j in range(mask.bit_count()):
            field = fields >> 3 * j & 7
            if field & _INHERIT_BAD.get(terms[j], 0):
                bad.append(
                    f"order-{j + 1} term {terms[j]} of {_describe(matrix)} "
                    f"became {_FIELD_TERM[field]} in principal submatrix mask {mask:#x}"
                )
    return bad


def check_inverse_relation(matrix: HermitianMatrix, seq: SeprSequence) -> List[str]:
    last = seq.terms[-1]
    if last not in (SeprTerm.A_PLUS, SeprTerm.A_MINUS):
        return []
    try:
        inv = matrix.inverse()
    except SingularMatrixError:
        return [f"last term {last} but matrix not invertible: {_describe(matrix)}"]
    got = compute_sepr(inv)
    expected = inverse_rule(seq)
    if got != expected:
        return [
            f"inverse sequence {got} != expected {expected} for {_describe(matrix)}"
        ]
    return []


def check_negation_rule(matrix: HermitianMatrix, seq: SeprSequence) -> List[str]:
    got = compute_sepr(matrix.negate())
    expected = negation_rule(seq)
    if got != expected:
        return [f"negated matrix gave {got}, expected {expected}: {_describe(matrix)}"]
    return []


def check_permutation_invariance(
    matrix: HermitianMatrix, seq: SeprSequence, rng: random.Random, samples: int = 5
) -> List[str]:
    n = matrix.n
    bad = []
    for _ in range(samples):
        perm = rng.sample(range(1, n + 1), n)
        got = compute_sepr(matrix.permute(perm))
        if got != seq:
            bad.append(
                f"permutation {perm} changed sequence to {got}: {_describe(matrix)}"
            )
    return bad


_ZERO_1 = SeprSequence((SeprTerm.N,))


def check_append_zero(matrix: HermitianMatrix, seq: SeprSequence) -> List[str]:
    got = compute_sepr(matrix.direct_sum(HermitianMatrix.zero(1)))
    expected = direct_sum_rule(seq, _ZERO_1)
    if got != expected:
        return [
            f"zero append gave {got}, expected {expected}: {_describe(matrix)}"
        ]
    return []


def check_append_duplicate(matrix: HermitianMatrix, seq: SeprSequence) -> List[str]:
    got = compute_sepr(matrix.duplicate_last())
    expected = duplicate_last_rule(seq)
    if got != expected:
        return [
            f"last-row duplication gave {got}, expected {expected}: {_describe(matrix)}"
        ]
    return []


def check_real_sna_window(matrix: HermitianMatrix) -> List[str]:
    n = matrix.n
    if n < 5 or not matrix.is_real:
        return []
    coarse = compute_epr(matrix)
    sna = (EprTerm.S, EprTerm.N, EprTerm.A)
    for p in range(n - 4):
        if coarse.terms[p : p + 3] == sna:
            return [
                f"coarse S,N,A window at position {p + 1} inside first {n - 2} "
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


def run_suite(
    matrix: HermitianMatrix,
    field: Field,
    rng: random.Random,
    permutation_samples: int = 5,
) -> Tuple[Dict[str, int], List[str]]:
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
    run("inheritance", check_inheritance(matrix, seq))
    if seq.terms[-1] in (SeprTerm.A_PLUS, SeprTerm.A_MINUS):
        run("inverse-relation", check_inverse_relation(matrix, seq))
    run("negation-rule", check_negation_rule(matrix, seq))
    run(
        "permutation-invariance",
        check_permutation_invariance(matrix, seq, rng, permutation_samples),
    )
    run("append-zero", check_append_zero(matrix, seq))
    run("append-duplicate", check_append_duplicate(matrix, seq))
    if field is Field.REAL_SYMMETRIC:
        run("real-SNA-window", check_real_sna_window(matrix))
    run("scan-clean", check_scan_clean(seq, field, matrix))
    run("underlying-consistency", check_underlying_consistency(matrix, seq))
    return counts, violations
