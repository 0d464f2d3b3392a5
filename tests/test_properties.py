import random

from conftest import random_hermitian
from seprkit.catalog import build_witness, witness_ids
from seprkit.classify import Field
from seprkit.matrix import HermitianMatrix, SingularMatrixError, matrix_to_json
from seprkit.properties import (
    SUITE_CHECKS,
    TRANSFORMS,
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
from seprkit.search import COMPLEX_DEFAULT_POOL, REAL_DEFAULT_POOL, grid_pool, random_matrix
from seprkit.sepr import compute_sepr


def test_transform_oracles_on_known_matrices():
    # appending a zero block weakens A-terms and appends N
    d = HermitianMatrix.diagonal([1, -1, -1])
    assert str(compute_sepr(d)) == "A*A*A+"
    appended = d.direct_sum(HermitianMatrix.zero(1))
    assert str(compute_sepr(appended)) == "S*S*S+N"
    assert check_append_zero(d) == []
    # duplicating the last row/column keeps the first term
    i2 = HermitianMatrix.identity(2)
    assert str(compute_sepr(i2.duplicate_last())) == "A+S+N"
    assert check_append_duplicate(i2) == []


def _plant(matrix, mask, sign):
    """A fresh copy of ``matrix`` whose cached sign table reads ``sign`` at
    ``mask``, which the true table does not."""
    copy = HermitianMatrix._of(matrix._d, matrix._scale, matrix._grid)
    table = list(copy._mask_signs())
    assert table[mask] != sign
    table[mask] = sign
    object.__setattr__(copy, "_minor_cache", table)
    return copy


def test_violation_on_sqrt5_matrix_names_it():
    # an irrational Q(sqrt 5) entry has no JSON form, so a violation names
    # the matrix by its repr instead of failing to describe it; the wrong
    # sign is planted in a copy, never in the catalog's cached witness
    w = build_witness("VierFour.9")
    m = _plant(w, 0x2, 1)
    (message,) = check_append_duplicate(m)
    assert message.startswith("last-row duplicate has sign -1 at mask 0x2, the table rule gives 1: ")
    assert message.endswith(repr(m))


def test_negation_rule_example():
    m = build_witness("NSFreal.2")  # sequence A-NS+NA-
    assert str(compute_sepr(m.negate())) == "A+NS-NA+"
    assert check_negation_rule(m) == []


def test_inverse_branches_on_witnesses():
    # positive-determinant branch: plain reversal
    m = build_witness("Complex.3")  # NA-S*A+
    assert str(compute_sepr(m.inverse())) == "S*A-NA+"
    assert check_inverse_relation(m) == []
    # negative-determinant branch: reversal plus sign swap
    m = build_witness("VierOne.7")  # A+S*A*A-
    assert str(compute_sepr(m.inverse())) == "A*S*A-A-"
    assert check_inverse_relation(m) == []


def test_inverse_check_reports_a_refused_inverse(monkeypatch):
    # an inverse the engine refuses although the determinant's sign, read
    # from the table, is nonzero is a violation naming the last term
    def refuse(self):
        raise SingularMatrixError("matrix is singular")

    m = build_witness("VierOne.7")  # A+S*A*A-
    monkeypatch.setattr(HermitianMatrix, "inverse", refuse)
    assert check_inverse_relation(m) == [f"last term A- but matrix not invertible: {matrix_to_json(m)}"]


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
        assert check_inheritance(m) == []
        assert check_permutation_invariance(m, rng) == []


def test_rank_drop_names_each_deletion_a_wrong_cached_sign_reaches():
    # Negative control: one wrong sign planted in the cached table at mask
    # 0x6 (the minor on indices 2 and 3, truly 0) raises the largest
    # nonzero order to 2 inside the two deletions whose masks hold 0x6,
    # those of indices 1 and 4, while their eliminations still give rank
    # 0 and 1.  Deleting index 2 or 3 never reads mask 0x6.
    m = HermitianMatrix.diagonal([1, 0, 0, 0])
    table = list(m._mask_signs())
    assert table[0x6] == 0
    table[0x6] = 1
    object.__setattr__(m, "_minor_cache", table)
    assert check_rank_drop_on_deletion(m) == [
        f"deleting row and column {i} leaves elimination rank {rank}, largest "
        f"nonsingular principal order 2, matrix rank 1: {matrix_to_json(m)}"
        for i, rank in ((1, 0), (4, 1))
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


def test_transform_table_feeds_the_suite():
    # each rule-predicted transform is a suite check, run once per matrix
    # it applies to: a nonsingular matrix gets all four
    assert {t.check for t in TRANSFORMS.values()} <= set(SUITE_CHECKS)
    m = HermitianMatrix.diagonal([1, -1, 2])
    assert all(t.applies(m._mask_signs()) for t in TRANSFORMS.values())
    counts, violations = run_suite(m, Field.REAL_SYMMETRIC, random.Random(5))
    assert violations == []
    assert [counts[t.check] for t in TRANSFORMS.values()] == [1, 1, 1, 1]


def test_suite_random_small():
    rng = random.Random(3)
    gen = random.Random(4)
    for _ in range(60):
        n = gen.randint(1, 5)
        real = bool(gen.getrandbits(1))
        m = random_hermitian(gen, n, real=real)
        field = Field.REAL_SYMMETRIC if real else Field.HERMITIAN
        counts, violations = run_suite(m, field, rng)
        assert violations == [], violations


def test_suite_catches_seeded_defect():
    # Negative control: one wrong sign planted in the cached table at mask
    # 0x3 (the leading 2 x 2 minor, -3) makes every table rule predict 1
    # where the built matrix's own walk has -1 on that mask; the inverse
    # reads it at the complement 0xc, times the negative determinant's sign.
    m = _plant(HermitianMatrix([[2, 1, 0, 1], [1, -1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 3]]), 0x3, 1)
    described = matrix_to_json(m)
    assert check_negation_rule(m) == [
        f"negated matrix has sign -1 at mask 0x3, the table rule gives 1: {described}"
    ]
    assert check_append_zero(m) == [
        f"zero-appended matrix has sign -1 at mask 0x3, the table rule gives 1: {described}"
    ]
    assert check_append_duplicate(m) == [
        f"last-row duplicate has sign -1 at mask 0x3, the table rule gives 1: {described}"
    ]
    assert check_inverse_relation(m) == [
        f"inverse has sign 1 at mask 0xc, the table rule gives -1: {described}"
    ]


def test_transform_tables_clean_on_random_draws():
    # Positive control: each built matrix's walk agrees with its table rule
    # applied to the operand's walk, on draws from both default pools at
    # orders 1 to 7.
    rng = random.Random(11)
    checks = (check_negation_rule, check_append_zero, check_append_duplicate, check_inverse_relation)
    for pool in (REAL_DEFAULT_POOL, COMPLEX_DEFAULT_POOL):
        scaled = grid_pool(pool)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 7), scaled)
            for check in checks:
                assert check(m) == []


def test_inheritance_names_the_first_wrong_cached_sign():
    # Negative control: one wrong sign planted in the cached table at mask
    # 0x3 (the leading 2 x 2 minor, -3) disagrees with the fresh walk of
    # the leading order-2 submatrix, and the message names that mask in
    # the form every two-walk check shares.
    m = HermitianMatrix([[2, 1, 0, 1], [1, -1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 3]])
    table = list(m._mask_signs())
    assert table[0x3] == -1
    table[0x3] = 1
    object.__setattr__(m, "_minor_cache", table)
    assert check_inheritance(m) == [
        f"leading order-2 submatrix has sign -1 at mask 0x3, the table rule gives 1: {matrix_to_json(m)}"
    ]


def test_inheritance_clean_on_random_draws():
    # Positive control: the walk of the leading submatrix agrees with the
    # matrix's own walk on draws from both default pools at orders 1 to 7.
    rng = random.Random(11)
    for pool in (REAL_DEFAULT_POOL, COMPLEX_DEFAULT_POOL):
        scaled = grid_pool(pool)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 7), scaled)
            assert check_inheritance(m) == []


def test_permutation_names_the_first_wrong_cached_sign():
    # Negative control: random.Random(0) draws the permutation [4, 2, 1, 3],
    # which carries mask 0x6 (indices 2 and 3) of the permuted copy to mask
    # 0x3 (indices 2 and 1) of the matrix.  One wrong sign planted in the
    # cached table at mask 0x3 (the leading 2 x 2 minor, -3) disagrees with
    # the permuted walk there; the message names the permuted copy's mask
    # in the form every two-walk check shares.
    m = HermitianMatrix([[2, 1, 0, 1], [1, -1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 3]])
    table = list(m._mask_signs())
    assert table[0x3] == -1
    table[0x3] = 1
    object.__setattr__(m, "_minor_cache", table)
    assert check_permutation_invariance(m, random.Random(0)) == [
        f"permutation [4, 2, 1, 3] has sign -1 at mask 0x6, the table rule gives 1: {matrix_to_json(m)}"
    ]


def test_permutation_clean_on_random_draws():
    # Positive control: the walk of a randomly permuted copy agrees with the
    # matrix's own walk at the image of every mask, on draws from both
    # default pools at orders 1 to 7.
    rng = random.Random(11)
    for pool in (REAL_DEFAULT_POOL, COMPLEX_DEFAULT_POOL):
        scaled = grid_pool(pool)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 7), scaled)
            assert check_permutation_invariance(m, rng) == []
