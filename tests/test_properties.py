import random

from conftest import random_hermitian
from seprkit.catalog import build_witness, witness_ids
from seprkit.classify import Field
from seprkit import properties
from seprkit.matrix import HermitianMatrix, matrix_to_json
from seprkit.properties import (
    SUITE_CHECKS,
    check_append_duplicate,
    check_append_zero,
    check_double_n_tail,
    check_inheritance,
    check_inverse_relation,
    check_last_term,
    check_negation_rule,
    check_permutation_invariance,
    check_rank_drop_on_deletion,
    check_rank_is_principal,
    check_same_sign_at_rank,
    run_suite,
)
from seprkit.sepr import SeprSequence, compute_sepr, parse_sequence


def test_transform_oracles_on_known_matrices():
    # appending a zero block weakens A-terms and appends N
    d = HermitianMatrix.diagonal([1, -1, -1])
    assert str(compute_sepr(d)) == "A*A*A+"
    appended = d.direct_sum(HermitianMatrix.zero(1))
    assert str(compute_sepr(appended)) == "S*S*S+N"
    assert check_append_zero(d, compute_sepr(d)) == []
    # duplicating the last row/column keeps the first term
    i2 = HermitianMatrix.identity(2)
    assert str(compute_sepr(i2.duplicate_last())) == "A+S+N"
    assert check_append_duplicate(i2, compute_sepr(i2)) == []


def test_violation_on_sqrt5_matrix_names_it():
    # an irrational Q(sqrt 5) entry has no JSON form, so a violation names
    # the matrix by its repr instead of failing to describe it
    m = build_witness("VierFour.9")
    (message,) = check_append_duplicate(m, SeprSequence.parse("A+A+A+A+"))
    assert message.startswith("last-row duplication gave S*S*S*S+N, expected A+S+S+S+N: ")
    assert message.endswith(repr(m))


def test_negation_rule_example():
    m = build_witness("NSFreal.2")  # sequence A-NS+NA-
    assert str(compute_sepr(m.negate())) == "A+NS-NA+"
    assert check_negation_rule(m, compute_sepr(m)) == []


def test_inverse_branches_on_witnesses():
    # positive-determinant branch: plain reversal
    m = build_witness("Complex.3")  # NA-S*A+
    assert str(compute_sepr(m.inverse())) == "S*A-NA+"
    assert check_inverse_relation(m, compute_sepr(m)) == []
    # negative-determinant branch: reversal plus sign swap
    m = build_witness("VierOne.7")  # A+S*A*A-
    assert str(compute_sepr(m.inverse())) == "A*S*A-A-"
    assert check_inverse_relation(m, compute_sepr(m)) == []


def test_individual_checks_pass_on_catalog():
    rng = random.Random(1)
    for wid in witness_ids():
        m = build_witness(wid)
        s = compute_sepr(m)
        assert check_last_term(s) == []
        assert check_double_n_tail(s) == []
        assert check_rank_is_principal(m) == []
        assert check_same_sign_at_rank(m) == []
        assert check_rank_drop_on_deletion(m) == []
        assert check_inheritance(m, s) == []
        assert check_permutation_invariance(m, s, rng, samples=2) == []


def test_rank_drop_lists_every_deletion_in_order(monkeypatch):
    # Negative control: with every branch of the shared elimination
    # reporting rank 0, each of the n**2 deletions of a rank-4 matrix is a
    # violation, listed row by row with its located message.
    m = HermitianMatrix.diagonal([1, -1, 2, 3])
    monkeypatch.setattr(properties, "_column_deletions", lambda d, rows: [(0, 1, 1)] * len(rows[0]))
    assert check_rank_drop_on_deletion(m) == [
        f"deleting row {i}, column {j} dropped rank below 2 for {matrix_to_json(m)}"
        for i in range(1, 5)
        for j in range(1, 5)
    ]


def test_run_suite_counts():
    rng = random.Random(2)
    m = HermitianMatrix.diagonal([1, -1, -1, 0])
    counts, violations = run_suite(m, Field.REAL_SYMMETRIC, rng)
    assert violations == []
    assert set(counts) <= set(SUITE_CHECKS)
    assert counts["scan-clean"] == 1
    assert "inverse-relation" not in counts  # singular: branch not applicable
    m = HermitianMatrix.identity(3)
    counts, violations = run_suite(m, Field.HERMITIAN, rng)
    assert violations == []
    assert counts["inverse-relation"] == 1
    assert "real-SNA-window" not in counts  # complex field: rule out of scope


def test_suite_random_small():
    rng = random.Random(3)
    gen = random.Random(4)
    for _ in range(60):
        n = gen.randint(1, 5)
        real = bool(gen.getrandbits(1))
        m = random_hermitian(gen, n, real=real)
        field = Field.REAL_SYMMETRIC if real else Field.HERMITIAN
        counts, violations = run_suite(m, field, rng, permutation_samples=2)
        assert violations == [], violations


def test_suite_catches_seeded_defect():
    """Negative control: a wrong 'claimed' sequence trips the oracles."""
    m = HermitianMatrix.diagonal([1, -1, -1, 0])
    wrong = parse_sequence("S*S*S-N")
    assert check_append_zero(m, wrong) != []
    assert check_negation_rule(m, wrong) != []


def test_inheritance_lists_every_escape_in_walk_order():
    # Negative control: diag(1, -1, 0) has sequence S*S-N.  Paired with
    # NS+A+, the order-1 term N escapes in every submatrix holding index 1
    # or 2, and the order-2 term S+ in mask 0x3 (minor -1).  Messages come
    # mask by mask in the minor table's walk order, orders ascending.
    m = HermitianMatrix.diagonal([1, -1, 0])
    assert str(compute_sepr(m)) == "S*S-N"
    expected = [
        (1, "N", "A+", 0x1),
        (1, "N", "A*", 0x3),
        (2, "S+", "A-", 0x3),
        (1, "N", "S+", 0x5),
        (1, "N", "A-", 0x2),
        (1, "N", "S-", 0x6),
    ]
    assert check_inheritance(m, parse_sequence("NS+A+")) == [
        f"order-{k} term {term} of {matrix_to_json(m)} became {got} in principal submatrix mask {mask:#x}"
        for k, term, got, mask in expected
    ]
