"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Everything is exact arithmetic (zero tolerance); the single
quadratic-extension witness uses certified sign decisions.  The randomized
suites use the package's published default seed and finish in minutes.
"""

import time

import pytest

from test_classify import NINE_REAL_ONLY, ORDER3_FORBIDDEN_HERMITIAN_FIXTURE

from seprkit.catalog import build_witness, get_record, verify_all, witness_ids
from seprkit.classify import (
    Field,
    epr_forbidden_order3,
    forbidden_order2,
    forbidden_order3,
)
from seprkit.exact import GaussianRational, I
from seprkit.matrix import HermitianMatrix
from seprkit.search import (
    COMPLEX_DEFAULT_POOL,
    DEFAULT_SEED,
    REAL_DEFAULT_POOL,
    SearchConfig,
    attainability_census,
    hunt_counterexamples,
)
from seprkit.sepr import compute_sepr

PROPERTY_SAMPLES = 10_000

PER_SAMPLE_CHECKS = (
    "last-term",
    "double-N-tail",
    "initial-pair",
    "rank-is-principal",
    "same-sign-at-rank",
    "rank-drop-on-deletion",
    "inheritance",
    "negation-rule",
    "permutation-invariance",
    "append-zero",
    "append-duplicate",
    "scan-clean",
    "underlying-consistency",
)


def _report(criterion: int, text: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def hermitian_hunt():
    cfg = SearchConfig(
        n=(1, 6),
        pool=COMPLEX_DEFAULT_POOL,
        field=Field.HERMITIAN,
        mode="random",
        budget=PROPERTY_SAMPLES,
        seed=DEFAULT_SEED,
    )
    return hunt_counterexamples(cfg)


@pytest.fixture(scope="module")
def real_hunt():
    cfg = SearchConfig(
        n=(1, 6),
        pool=REAL_DEFAULT_POOL,
        field=Field.REAL_SYMMETRIC,
        mode="random",
        budget=PROPERTY_SAMPLES,
        seed=DEFAULT_SEED,
    )
    return hunt_counterexamples(cfg)


def test_criterion_1_catalog_verification():
    t0 = time.time()
    report = verify_all()
    elapsed = time.time() - t0
    assert len(report.rows) == 75
    assert report.passed == 75, [r for r in report.rows if not r[3]]
    inverse_defined = [
        wid
        for wid in witness_ids()
        if get_record(wid).family in ("FiveOne", "FiveTwo", "SixOne")
    ]
    assert len(inverse_defined) == 26
    assert elapsed < 10.0
    _report(1, f"all 75 witnesses reproduce their sequences exactly in {elapsed:.2f}s")


def test_criterion_2_forbidden_set_cardinalities():
    for field in Field:
        assert {str(p) for p in forbidden_order2(field)} == {"A*N", "NA*", "NS*", "S*N"}
    herm = forbidden_order3(Field.HERMITIAN)
    real = forbidden_order3(Field.REAL_SYMMETRIC)
    assert len(herm) == 92
    assert {str(p) for p in herm} == set(ORDER3_FORBIDDEN_HERMITIAN_FIXTURE)
    assert len(real) == 101
    assert {str(p) for p in real - herm} == set(NINE_REAL_ONLY)
    assert {str(p) for p in epr_forbidden_order3(Field.HERMITIAN)} == {"NNA", "NNS", "NSA"}
    assert {str(p) for p in epr_forbidden_order3(Field.REAL_SYMMETRIC)} == {
        "NAN", "NAS", "NNA", "NNS", "NSA",
    }
    _report(2, "order-2 sets of 4, order-3 sets of 92 (fixture-equal) and 101 (+9), coarse sets of 3 and 5")


def test_criterion_3_specific_values():
    assert str(compute_sepr(HermitianMatrix.zero(2))) == "NN"
    assert str(compute_sepr(HermitianMatrix.diagonal([1, -1, -1, 0]))) == "S*S*S+N"
    assert str(compute_sepr(build_witness("VierOne.1"))) == "A+A*A*A+"
    assert str(compute_sepr(build_witness("Complex.3"))) == "NA-S*A+"  # G(i)
    assert str(compute_sepr(build_witness("Complex.4"))) == "NA-S+A+"  # G(-i)
    assert str(compute_sepr(build_witness("NSFcom.2"))) == "NA-NA+N"
    _report(3, "pinned sequences for the zero, diagonal, bordered and non-real witnesses all match")


def test_criterion_4_property_suites(hermitian_hunt, real_hunt):
    for name, report in (("hermitian", hermitian_hunt), ("real", real_hunt)):
        assert report.samples == PROPERTY_SAMPLES
        assert report.violations == [], (name, report.violations[:3])
        for check in PER_SAMPLE_CHECKS:
            assert report.check_counts.get(check) == PROPERTY_SAMPLES, check
        # the inverse branch applies exactly to the nonsingular samples
        assert 0 < report.check_counts.get("inverse-relation", 0) <= PROPERTY_SAMPLES
    assert real_hunt.check_counts.get("real-SNA-window") == PROPERTY_SAMPLES
    total = sum(hermitian_hunt.check_counts.values()) + sum(
        real_hunt.check_counts.values()
    )
    _report(
        4,
        f"{2 * PROPERTY_SAMPLES} random matrices (n <= 6, seed {DEFAULT_SEED}), "
        f"{total} checks, zero violations",
    )


def test_criterion_5_counterexample_hunt(hermitian_hunt, real_hunt):
    # randomized scans: the per-sample scan-clean check covers every sample
    for report in (hermitian_hunt, real_hunt):
        assert report.check_counts.get("scan-clean") == PROPERTY_SAMPLES
        assert not any("forbidden hit" in v for v in report.violations)
    # exhaustive real symmetric 3x3 over {-1, 0, 1}
    pool = tuple(GaussianRational(v) for v in (-1, 0, 1))
    cfg = SearchConfig(
        n=3, pool=pool, field=Field.REAL_SYMMETRIC, mode="exhaustive", budget=10**6
    )
    rep = hunt_counterexamples(cfg)
    assert rep.samples == 729
    assert rep.clean
    # exhaustive complex Hermitian 2x2 over {0, +-1, +-i}
    cpool = (GaussianRational(0), GaussianRational(1), GaussianRational(-1), I, -I)
    cfg = SearchConfig(
        n=2, pool=cpool, field=Field.HERMITIAN, mode="exhaustive", budget=10**6
    )
    crep = hunt_counterexamples(cfg)
    assert crep.samples == 45
    assert crep.clean
    _report(
        5,
        f"zero forbidden hits over {2 * PROPERTY_SAMPLES} random samples plus "
        f"exhaustive censuses (729 real 3x3, {crep.samples} complex 2x2)",
    )


def _catalog_window_patterns(order: int, field: Field):
    out = set()
    for wid in witness_ids():
        rec = get_record(wid)
        if field is Field.REAL_SYMMETRIC and rec.field != "real":
            continue
        s = compute_sepr(build_witness(wid))
        for _, w in s.windows(order):
            out.add(w)
    return out


def test_criterion_6_attainability_census():
    summaries = []
    for field in Field:
        rep2 = attainability_census(2, field)
        assert rep2.total == 45
        assert rep2.witnessed == 45, [str(p) for p in rep2.open_patterns]
        assert rep2.violations == []

        rep3 = attainability_census(3, field)
        assert rep3.violations == []
        assert rep3.total == (242 if field is Field.REAL_SYMMETRIC else 251)
        # everything visible in catalog windows must be witnessed
        status = {r.pattern: r.status for r in rep3.rows}
        for pattern in _catalog_window_patterns(3, field):
            assert status[pattern] == "witnessed", str(pattern)
        # budgets are recorded and the open list is explicit
        assert "completions-tried" in rep3.budgets
        open_list = [str(p) for p in rep3.open_patterns]
        assert rep3.witnessed + len(open_list) == rep3.total
        summaries.append(
            f"{field.value}: order-2 {rep2.witnessed}/45, "
            f"order-3 {rep3.witnessed}/{rep3.total}"
            + (f" (open: {', '.join(open_list)})" if open_list else "")
        )
    _report(6, "; ".join(summaries))


def test_criterion_7_cross_consistency(hermitian_hunt, real_hunt):
    # every order-3 pattern whose coarse form is forbidden lies in the
    # generated order-3 set, and its coarse form is in the coarse set
    eset = epr_forbidden_order3(Field.HERMITIAN)
    from seprkit.classify import _UNDERLYING_EPR_SET

    for p in _UNDERLYING_EPR_SET:
        assert p.underlying() in eset
        assert p in forbidden_order3(Field.HERMITIAN)
    # stripping superscripts agreed with the directly computed coarse
    # sequence on every sample
    for report in (hermitian_hunt, real_hunt):
        assert report.check_counts.get("underlying-consistency") == PROPERTY_SAMPLES
        assert not any("underlying" in v for v in report.violations)
    _report(7, "coarse-level sets and superscript stripping agree on all samples")
