import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import lift, oracle_det
from seprkit import search
from seprkit.classify import Field, forbidden_order2, forbidden_order3
from seprkit.cli import main
from seprkit.exact import GaussianRational, I
from seprkit.matrix import HermitianMatrix, SingularMatrixError
from seprkit.properties import TRANSFORMS
from seprkit.search import (
    COMPLEX_DEFAULT_POOL,
    REAL_DEFAULT_POOL,
    SearchConfig,
    attainability_census,
    exhaustive_matrices,
    find_witness,
    full_sequence_sweep,
    grid_pool,
    hunt_counterexamples,
    random_matrix,
    singular_completions,
    _census_bases,
    _derived_matrices,
    _sweep_pool,
)
from seprkit.sepr import classify_signs, compute_sepr, parse_sequence, table_sequence


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=2, pool=(), field=Field.HERMITIAN)
    with pytest.raises(ValueError):
        SearchConfig(n=2, pool=(I,), field=Field.REAL_SYMMETRIC)
    with pytest.raises(ValueError):
        SearchConfig(n=0, pool=REAL_DEFAULT_POOL, field=Field.HERMITIAN)
    with pytest.raises(ValueError):
        SearchConfig(n=2, pool=REAL_DEFAULT_POOL, field=Field.HERMITIAN, mode="walk")
    with pytest.raises(ValueError):
        SearchConfig(n=(2, 3), pool=REAL_DEFAULT_POOL, field=Field.HERMITIAN, mode="exhaustive")
    for bad in (0.5, "1", None):
        with pytest.raises(ValueError, match=f"pool entry {bad!r} is not an exact"):
            SearchConfig(n=2, pool=(0, bad), field=Field.HERMITIAN)


def test_int_and_fraction_pools_are_gaussian_pools():
    pool = (GaussianRational(0), GaussianRational(1), GaussianRational(Fraction(1, 2)))
    cfg = SearchConfig(n=2, pool=(0, 1, Fraction(1, 2)), field=Field.REAL_SYMMETRIC)
    assert cfg.pool == pool and all(isinstance(v, GaussianRational) for v in cfg.pool)
    for mode in ("random", "exhaustive"):
        report = hunt_counterexamples(
            SearchConfig(n=2, pool=(0, 1), field=Field.REAL_SYMMETRIC, mode=mode, budget=20)
        )
        assert report.samples == (20 if mode == "random" else 2**3) and report.clean


def test_exhaustive_enumeration_counts():
    # real 3x3 over {-1,0,1}: 3 diagonal + 3 upper slots, 3 values each
    pool = tuple(GaussianRational(v) for v in (-1, 0, 1))
    count = sum(1 for _ in exhaustive_matrices(3, pool))
    assert count == 3**6
    # complex 2x2 over {0, 1, -1, i, -i}: diagonal uses the 3 distinct real
    # parts, the single upper slot all 5 entries
    cpool = (
        GaussianRational(0),
        GaussianRational(1),
        GaussianRational(-1),
        I,
        -I,
    )
    count = sum(1 for _ in exhaustive_matrices(2, cpool))
    assert count == 3 * 3 * 5


def test_find_zero_matrix():
    cfg = SearchConfig(
        n=2,
        pool=(GaussianRational(0),),
        field=Field.HERMITIAN,
        target=parse_sequence("NN"),
        mode="exhaustive",
        budget=10,
    )
    hit = find_witness(cfg)
    assert hit is not None
    assert hit.matrix == HermitianMatrix.zero(2)
    assert str(hit.sepr) == "NN" and hit.position == 1


@pytest.mark.parametrize("n", (2, (1, 2)), ids=("fixed", "range"))
def test_subsequence_target_longer_than_every_order_is_refused(n):
    # a window of length 3 never occurs in a sequence of order <= 2, so the
    # search is refused instead of spending its budget
    cfg = SearchConfig(
        n=n,
        pool=REAL_DEFAULT_POOL,
        field=Field.REAL_SYMMETRIC,
        target=parse_sequence("A+A+A+"),
        subsequence=True,
    )
    with pytest.raises(ValueError, match="target of length 3 cannot be a window .* order ≤ 2$"):
        find_witness(cfg)


@pytest.mark.parametrize(
    "n, orders", ((2, "an order-2 matrix"), ((1, 2), "a matrix of order 1 to 2")), ids=("fixed", "range")
)
def test_full_target_of_no_order_is_refused(n, orders):
    cfg = SearchConfig(n=n, pool=REAL_DEFAULT_POOL, field=Field.REAL_SYMMETRIC, target=parse_sequence("A+A+A+"))
    with pytest.raises(ValueError) as info:
        find_witness(cfg)
    assert str(info.value) == f"target of length 3 cannot be the full sequence of {orders}"


def test_forbidden_target_never_found():
    pool = tuple(GaussianRational(v) for v in (-1, 0, 1))
    for n in (2, 3):
        cfg = SearchConfig(
            n=n,
            pool=pool,
            field=Field.REAL_SYMMETRIC,
            target=parse_sequence("A*N"),
            mode="exhaustive",
            budget=10**6,
            subsequence=True,
        )
        assert find_witness(cfg) is None


def test_find_witness_soundness_and_determinism():
    cfg = SearchConfig(
        n=(3, 5),
        pool=COMPLEX_DEFAULT_POOL,
        field=Field.HERMITIAN,
        target=parse_sequence("NA+"),
        mode="random",
        budget=4000,
        seed=99,
        subsequence=True,
    )
    hit1 = find_witness(cfg)
    hit2 = find_witness(cfg)
    assert hit1 is not None
    assert hit1.matrix == hit2.matrix and hit1.position == hit2.position
    # soundness: the reported sequence re-verifies and contains the target
    s = compute_sepr(hit1.matrix)
    assert s == hit1.sepr
    assert s.find(parse_sequence("NA+")) == hit1.position


def test_negation_closure_of_found_witness():
    cfg = SearchConfig(
        n=3,
        pool=REAL_DEFAULT_POOL,
        field=Field.REAL_SYMMETRIC,
        target=parse_sequence("A+A*A-"),
        mode="random",
        budget=5000,
        seed=5,
    )
    hit = find_witness(cfg)
    assert hit is not None
    negged = compute_sepr(hit.matrix.negate())
    expected = [classify_signs(-x for x in t.signs) if j % 2 == 0 else t for j, t in enumerate(hit.sepr.terms)]
    assert list(negged.terms) == expected


def test_hunt_determinism_and_cleanliness():
    cfg = SearchConfig(
        n=(1, 4),
        pool=REAL_DEFAULT_POOL,
        field=Field.REAL_SYMMETRIC,
        mode="random",
        budget=120,
        seed=321,
    )
    rep1 = hunt_counterexamples(cfg)
    rep2 = hunt_counterexamples(cfg)
    assert rep1.samples == rep2.samples == 120
    assert rep1.check_counts == rep2.check_counts
    assert rep1.clean and rep2.clean


def test_hunt_exhaustive_small():
    pool = tuple(GaussianRational(v) for v in (-1, 0, 1))
    cfg = SearchConfig(
        n=2,
        pool=pool,
        field=Field.REAL_SYMMETRIC,
        mode="exhaustive",
        budget=10**6,
    )
    rep = hunt_counterexamples(cfg)
    assert rep.samples == 3**3
    assert rep.clean


GENERATOR_POOLS = {
    "integral": (GaussianRational(0), GaussianRational(1), GaussianRational(-1), I, -I),
    "fractional-real": tuple(GaussianRational(v) for v in (Fraction(-1, 2), 0, Fraction(1, 3), 2)),
    "fractional-gaussian": (
        GaussianRational(Fraction(1, 2)),
        GaussianRational(0, Fraction(-1, 3)),
        GaussianRational(Fraction(1, 2), Fraction(1, 3)),
        GaussianRational(0),
    ),
}


def _assert_canonical(m):
    # a generated grid must be the one the entry constructor builds
    rebuilt = HermitianMatrix([list(row) for row in m.entries])
    assert (m._d, m._scale, m._grid) == (rebuilt._d, rebuilt._scale, rebuilt._grid)
    assert hash(m) == hash(rebuilt)


@pytest.mark.parametrize("pool", GENERATOR_POOLS.values(), ids=GENERATOR_POOLS.keys())
def test_generators_emit_canonical_grids(pool):
    rng = random.Random(11)
    scaled = grid_pool(pool)
    for _ in range(300):
        _assert_canonical(random_matrix(rng, rng.randint(1, 5), scaled))
    for n in (1, 2, 3):
        for m in exhaustive_matrices(n, pool):
            _assert_canonical(m)


def test_singular_completions_are_singular():
    for den, grid in singular_completions():
        m = HermitianMatrix._of(0, den, grid)
        assert oracle_det(lift(m.entries)) == 0
        _assert_canonical(m)


def test_singular_completions_emit_510_matrices():
    # one matrix per tuple with xy != a^2, b >= 0, c >= 0 and (x, b) <= (y, c)
    assert sum(1 for _ in singular_completions()) == 510


def _fraction_completions(values):
    """The det = 0 completions of the unreduced domain, solved over the
    rationals: x, y, a, b and c over the pool's values, and
    b33 = (x c^2 + y b^2 - 2abc) / (xy - a^2) whenever xy != a^2."""
    vals = sorted({Fraction(v.re) for v in values})
    for x, y, a, b, c in product(vals, repeat=5):
        if x * y != a * a:
            z = (x * c * c + y * b * b - 2 * a * b * c) / (x * y - a * a)
            yield HermitianMatrix([[x, a, b], [a, y, c], [b, c, z]])


def test_completions_reach_every_sequence_of_the_full_enumeration():
    # the sign flips and the index swap only reorder principal minors, so
    # the reduced domain reaches exactly the unreduced domain's sequences,
    # among them the two order-3 patterns the census takes from this rung
    got = {str(compute_sepr(HermitianMatrix._of(0, den, grid))) for den, grid in singular_completions()}
    assert got == {str(compute_sepr(m)) for m in _fraction_completions(REAL_DEFAULT_POOL)}
    assert {"A+A-N", "A-A-N"} <= got


@pytest.mark.parametrize("order", (1, 2, 3))
@pytest.mark.parametrize("field", Field, ids=lambda f: f.name)
def test_sweep_finds_every_sequence_of_the_full_enumeration(order, field):
    # the canonical sweep keeps one grid per signed-permutation similarity
    # class, so it must reach exactly the sequences of all grids
    enumerated = set(exhaustive_matrices(order, _sweep_pool(field)))
    sweep = full_sequence_sweep(order, field)
    assert set(sweep) == {str(compute_sepr(m)) for m in enumerated}
    for text, m in sweep.items():
        assert m in enumerated and str(compute_sepr(m)) == text


# canonical grids per sweep: the real pool's 5 diagonal candidates and 3
# real nonnegative values, the complex pool's 3 and 2, and 5 pool values
SWEEP_GRIDS = {
    1: {Field.REAL_SYMMETRIC: 5, Field.HERMITIAN: 3},
    2: {Field.REAL_SYMMETRIC: 15 * 3, Field.HERMITIAN: 6 * 2},
    3: {Field.REAL_SYMMETRIC: 35 * 3**2 * 5, Field.HERMITIAN: 10 * 2**2 * 5},
}


@pytest.mark.parametrize("order", (1, 2, 3))
@pytest.mark.parametrize("field", Field, ids=lambda f: f.name)
def test_sweep_grids_walk_raw_as_their_matrices(order, field, monkeypatch):
    # the sweep grades its grids without building them: each must be a
    # grid the matrix constructor accepts, kept as given unless it is a
    # real grid in Gaussian form, and walk to the matrix's own signs
    d, scale = grid_pool(_sweep_pool(field))[:2]
    walked, odometer = [], search._grid_tuples

    def recording(*args):
        for grid in odometer(*args):
            walked.append(grid)
            yield grid

    monkeypatch.setattr(search, "_grid_tuples", recording)
    full_sequence_sweep(order, field)
    assert len(walked) == SWEEP_GRIDS[order][field]
    for grid in walked:
        m = HermitianMatrix._of(d, scale, grid)
        if m._d == d:
            assert (m._scale, m._grid) == (scale, grid)
        assert m._mask_signs() == search._sign_walk(grid, d)


# (distinct sign tables, sequences) of the order-3 canonical grids, of
# which there are 1,575 real and 200 Hermitian
SWEEP_TABLES = {Field.REAL_SYMMETRIC: (149, 62), Field.HERMITIAN: (76, 42)}


@pytest.mark.parametrize("field", Field, ids=lambda f: f.name)
def test_sweep_summarises_each_distinct_table_once(field, monkeypatch):
    # a grid whose sign table was already met cannot bring a new sequence,
    # so the sweep summarises each table once
    summarised, summarise = [], search.table_sequence

    def counting(table):
        summarised.append(table)
        return summarise(table)

    monkeypatch.setattr(search, "table_sequence", counting)
    sequences = full_sequence_sweep(3, field)
    assert (len(summarised), len(sequences)) == SWEEP_TABLES[field]


@pytest.mark.parametrize("order", (1, 2, 3))
@pytest.mark.parametrize("field", Field, ids=lambda f: f.name)
def test_sweep_keeps_the_first_canonical_grid_of_each_sequence(order, field):
    # canonical: a nondecreasing diagonal and a real nonnegative first row;
    # the full enumeration's odometer order restricted to canonical grids
    # is the sweep's order, so its first grid per sequence is the sweep's
    expected = {}
    for m in exhaustive_matrices(order, _sweep_pool(field)):
        rows = m.entries
        diagonal = [rows[i][i].re for i in range(order)]
        if diagonal == sorted(diagonal) and all(v.im == 0 and v.re >= 0 for v in rows[0][1:]):
            expected.setdefault(str(compute_sepr(m)), m)
    assert list(full_sequence_sweep(order, field).items()) == list(expected.items())


def test_census_order2():
    for field in Field:
        rep = attainability_census(2, field)
        assert rep.total == 45
        assert rep.witnessed == 45
        assert rep.violations == []
        assert {r.pattern: r.status for r in rep.rows}[parse_sequence("NN")] == "witnessed"
        lines = list(rep.lines())
        assert len(lines) == 45
        assert all(len(line.split("\t")) == 3 for line in lines)


def test_census_determinism(monkeypatch):
    # the census draws no random matrix, so its report is a function of
    # the order and the field alone
    def no_draws(*args):
        raise AssertionError("the census drew a random matrix")

    monkeypatch.setattr(search, "random_matrix", no_draws)
    rep1 = attainability_census(3, Field.REAL_SYMMETRIC)
    rep2 = attainability_census(3, Field.REAL_SYMMETRIC)
    assert [r.line() for r in rep1.rows] == [r.line() for r in rep2.rows]
    assert rep1.witnessed == rep1.total == 242


def test_census_rejects_bad_order():
    with pytest.raises(ValueError):
        attainability_census(4, Field.HERMITIAN)


def test_census_targets_exclude_forbidden():
    rep = attainability_census(2, Field.HERMITIAN)
    patterns = {r.pattern for r in rep.rows}
    assert patterns.isdisjoint(forbidden_order2(Field.HERMITIAN))
    rep = attainability_census(3, Field.REAL_SYMMETRIC)
    assert {r.pattern for r in rep.rows}.isdisjoint(forbidden_order3(Field.REAL_SYMMETRIC))


def test_census_transforms_match_their_rules():
    # the census builds a transform only when its predicted sequence holds
    # a missing window; every prediction, built or not, must be the
    # sequence of the matrix it stands for
    checked, tags = 0, set()
    for field in Field:
        for label, base in _census_bases(field):
            for source, predicted, build in _derived_matrices(label, base):
                assert compute_sepr(build()) == predicted, source
                tags.add(source[len("transform:") : source.index("(")])
                checked += 1
    assert checked == 1082
    assert tags == set(TRANSFORMS)  # the sources name exactly the table's transforms


def test_census_reports_a_failed_inverse(monkeypatch, capsys):
    # an inverse the engine refuses although the sequence ends in A+ or A-
    # is an engine inconsistency, reported with its source, never skipped
    bases = _census_bases(Field.HERMITIAN)  # some catalog witnesses are inverses
    monkeypatch.setattr(search, "_census_bases", lambda field: bases)

    def refuse(self):
        raise SingularMatrixError("matrix is singular")

    monkeypatch.setattr(HermitianMatrix, "inverse", refuse)
    assert main(["search", "--census", "--order", "3", "--field", "hermitian"]) == 1
    err = capsys.readouterr().err
    assert "violation: last term A+ but matrix not invertible: transform:inverse(" in err


# A*A*N, the first forbidden real order-3 pattern: both signs on orders 1
# and 2, and a zero top minor
BAD_TABLE = [1, 1, -1, 1, 1, -1, 1, 0]


def test_census_scans_predictions_for_forbidden_windows(monkeypatch):
    # a prediction is checked for forbidden windows even when its matrix
    # is never built
    bad = min(forbidden_order3(Field.REAL_SYMMETRIC), key=str)
    assert table_sequence(BAD_TABLE) == bad
    negate = TRANSFORMS["negate"]._replace(table=lambda table: BAD_TABLE)
    monkeypatch.setattr(search, "TRANSFORMS", {**TRANSFORMS, "negate": negate})
    rep = attainability_census(3, Field.REAL_SYMMETRIC)
    assert f"forbidden pattern {bad} predicted in {bad} for transform:negate(stock:O1)" in rep.violations


def test_census_scans_direct_sum_predictions(monkeypatch):
    # direct sums pass the same gate as the transforms: a forbidden
    # window in a sum's prediction is a violation naming the sum
    bad = min(forbidden_order3(Field.REAL_SYMMETRIC), key=str)
    assert table_sequence(BAD_TABLE) == bad
    monkeypatch.setattr(search, "direct_sum_table", lambda a, b: BAD_TABLE)
    rep = attainability_census(3, Field.REAL_SYMMETRIC)
    assert any(
        v.startswith(f"forbidden pattern {bad} predicted in {bad} for construction:direct-sum(") for v in rep.violations
    )


def test_census_reports_a_forbidden_window_per_repeated_table(monkeypatch):
    # absorb grades each distinct sign table once, yet a matrix repeating
    # a table with a forbidden window is still a violation naming its own
    # source; A+A-N declared forbidden stands for a failing engine
    bad = parse_sequence("A+A-N")
    forbidden = forbidden_order3(Field.REAL_SYMMETRIC) | {bad}
    monkeypatch.setattr(search, "forbidden_order3", lambda field: forbidden)
    rep = attainability_census(3, Field.REAL_SYMMETRIC)
    completions = [HermitianMatrix._of(0, den, grid) for den, grid in singular_completions()]
    holding = [m for m in completions if compute_sepr(m) == bad]  # order 3: one window
    assert len(holding) > len({tuple(m._mask_signs()) for m in holding})  # a table repeats
    message = f"forbidden pattern {bad} appeared in {bad} from construction:det-zero-completion"
    assert rep.violations.count(message) == len(holding)
