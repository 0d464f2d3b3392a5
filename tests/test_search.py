import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from conftest import lift, oracle_det
from seprkit import search
from seprkit.classify import Field, forbidden_order2, forbidden_order3
from seprkit.cli import main
from seprkit.exact import GaussianRational, I
from seprkit.matrix import HermitianMatrix, SingularMatrixError
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
from seprkit.sepr import compute_sepr, parse_sequence


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
    expected = [t.negated if j % 2 == 0 else t for j, t in enumerate(hit.sepr.terms)]
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
    rep = hunt_counterexamples(cfg, permutation_samples=2)
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
    seen = 0
    for m in singular_completions():
        assert oracle_det(lift(m.entries)) == 0
        _assert_canonical(m)
        seen += 1
    assert seen == 460


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def _fraction_completions(values):
    """Entry rows of the det = 0 completions, solved over the rationals:
    the rational roots c of -x c^2 + 2ab c + (xyz - y b^2 - z a^2), with
    (-qb + sqrt disc) / 2qa first, or every value when the polynomial
    vanishes; first occurrence kept."""
    vals = sorted({Fraction(v.re) for v in values})
    out, seen = [], set()
    for x, y, z, a, b in product(vals, repeat=5):
        qa, qb, qc = -x, 2 * a * b, x * y * z - y * b * b - z * a * a
        if qa == 0:
            roots = (-qc / qb,) if qb else (vals if qc == 0 else ())
        else:
            root = _rational_sqrt(qb * qb - 4 * qa * qc)
            if root is None:
                roots = ()
            elif root == 0:
                roots = (-qb / (2 * qa),)
            else:
                roots = ((-qb + root) / (2 * qa), (-qb - root) / (2 * qa))
        for c in roots:
            rows = ((x, a, b), (a, y, c), (b, c, z))
            if rows not in seen:
                seen.add(rows)
                out.append(rows)
    return out


def _completion_rows():
    return [tuple(tuple(v.re for v in row) for row in m.entries) for m in singular_completions()]


def _similar_rows(rows):
    """The rows of D B D for D = diag(1, +-1, +-1), and of those with
    indices 2 and 3 exchanged."""
    (x, a, b), (_, y, c), (_, _, z) = rows
    for sa, sb in product((1, -1), repeat=2):
        a2, b2, c2 = sa * a, sb * b, sa * sb * c
        yield ((x, a2, b2), (a2, y, c2), (b2, c2, z))
        yield ((x, b2, a2), (b2, z, c2), (a2, c2, y))


def test_singular_completions_match_rational_solver():
    # every completion of the full 5^5 enumeration is similar to an
    # emitted one by the sign flips and the index swap
    got = _completion_rows()
    assert len(got) == 460
    assert all(oracle_det(rows) == 0 for rows in got)
    assert {image for rows in got for image in _similar_rows(rows)} == set(
        _fraction_completions(REAL_DEFAULT_POOL)
    )


def test_completions_reach_every_sequence_of_the_full_enumeration():
    # one (x, y, z, a, b) tuple per class of the sign flips of a and b and
    # the swap of (y, a) with (z, b): the representatives come in oracle
    # order, and reach exactly the sequences of all completions
    oracle = _fraction_completions(REAL_DEFAULT_POOL)
    representatives = [
        rows for rows in oracle
        if rows[0][1] >= 0 and rows[0][2] >= 0 and (rows[1][1], rows[0][1]) <= (rows[2][2], rows[0][2])
    ]
    assert _completion_rows() == representatives
    assert {str(compute_sepr(m)) for m in singular_completions()} == {
        str(compute_sepr(HermitianMatrix([list(row) for row in rows]))) for rows in oracle
    }


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
    checked = 0
    for field in Field:
        for label, base in _census_bases(field):
            for source, predicted, build in _derived_matrices(label, base):
                assert compute_sepr(build()) == predicted, source
                checked += 1
    assert checked == 1082


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


def test_census_scans_predictions_for_forbidden_windows(monkeypatch):
    # a prediction is checked for forbidden windows even when its matrix
    # is never built
    bad = min(forbidden_order3(Field.REAL_SYMMETRIC), key=str)
    monkeypatch.setattr(search, "negation_rule", lambda seq: bad)
    rep = attainability_census(3, Field.REAL_SYMMETRIC)
    assert f"forbidden pattern {bad} predicted in {bad} for transform:negate(stock:O1)" in rep.violations
