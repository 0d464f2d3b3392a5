import time

import pytest

from conftest import Root5, lift, lower, oracle_det
from seprkit.catalog import (
    WitnessRecord,
    build_witness,
    families,
    get_record,
    verify_all,
    verify_witness,
    witness_ids,
)
from seprkit.classify import Field, scan_for_forbidden
from seprkit.exact import GaussianRational, Sqrt5Rational
from seprkit.matrix import HermitianMatrix
from seprkit.sepr import SeprTerm, compute_sepr, parse_sequence

EXPECTED_FAMILY_SIZES = {
    "VierOne": 10,
    "VierTwo": 3,
    "VierThree": 3,
    "VierFour": 15,
    "VierFive": 4,
    "VierSix": 2,
    "FiveOne": 6,
    "FiveTwo": 16,
    "SixOne": 4,
    "NSFreal": 6,
    "Complex": 4,
    "NSFcom": 2,
}


def test_catalog_shape():
    ids = witness_ids()
    assert len(ids) == 75
    assert len(set(ids)) == 75
    sizes = {}
    for wid in ids:
        fam = get_record(wid).family
        sizes[fam] = sizes.get(fam, 0) + 1
    assert sizes == EXPECTED_FAMILY_SIZES
    assert set(families()) == set(EXPECTED_FAMILY_SIZES)


def test_claimed_length_matches_order():
    for wid in witness_ids():
        rec = get_record(wid)
        m = build_witness(wid)
        assert len(rec.claimed) == m.n


def test_field_tags_match_entries():
    for wid in witness_ids():
        rec = get_record(wid)
        m = build_witness(wid)
        if rec.field == "real":
            assert m.is_real, wid
        else:
            assert not m.is_real, wid


def test_verify_witness_examples():
    computed, ok = verify_witness("VierTwo.3")
    assert ok and str(computed) == "A-S+A+N"
    computed, ok = verify_witness("Complex.3")
    assert ok and str(computed) == "NA-S*A+"
    computed, ok = verify_witness("NSFreal.2")
    assert ok and str(computed) == "A-NS+NA-"


def test_build_witness_examples():
    m = build_witness("VierOne.1")
    assert m.entries[0][0] == GaussianRational(2)
    assert m.entries[0][1] == GaussianRational(5)
    assert m.n == 4
    m = build_witness("NSFcom.2")
    assert m.n == 5
    assert all(m.entries[i][i] == GaussianRational(0) for i in range(5))
    with pytest.raises(KeyError):
        build_witness("NoSuchFamily.1")


def test_sqrt5_witness_exact():
    rec = get_record("VierFour.9")
    assert any(isinstance(p, Sqrt5Rational) for p in rec.params)
    m = build_witness("VierFour.9")
    assert isinstance(m.entries[0][1], Sqrt5Rational)
    det = oracle_det(lift(m.entries))
    assert det == Root5(21, 4)
    assert str(lower(det)) == "21+4*sqrt(5)"
    computed, ok = verify_witness("VierFour.9")
    assert ok and str(computed) == "S*A*S*A+"


def test_verify_all_families():
    report = verify_all(family="FiveTwo")
    assert len(report.rows) == 16
    assert report.all_ok
    report = verify_all(witness_id="FiveOne.1")
    assert report.all_ok and len(report.rows) == 1
    with pytest.raises(KeyError):
        verify_all(family="Nonexistent")


def test_full_catalog_verifies_quickly():
    t0 = time.time()
    report = verify_all()
    elapsed = time.time() - t0
    assert report.passed == 75 and report.failed == 0
    assert elapsed < 10.0
    lines = list(report.lines())
    assert len(lines) == 75
    assert all(line.endswith("pass") for line in lines)


def test_corrupted_claim_is_reported(monkeypatch):
    # negative control: a tampered record must surface as a fail row
    import seprkit.catalog as catalog_mod

    rec = get_record("VierOne.1")
    tampered = WitnessRecord(
        id=rec.id,
        family=rec.family,
        params=rec.params,
        field=rec.field,
        claimed=parse_sequence("A-A*A*A+"),
        source=rec.source,
    )
    monkeypatch.setitem(catalog_mod._RECORDS, "VierOne.1", tampered)
    report = verify_all(witness_id="VierOne.1")
    assert not report.all_ok and report.failed == 1
    (line,) = report.lines()
    assert line.endswith("\tfail")
    assert "catalog: 0/1" in report.summary()


def test_catalog_scan_clean_per_field():
    for wid in witness_ids():
        rec = get_record(wid)
        s = compute_sepr(build_witness(wid))
        field = Field.REAL_SYMMETRIC if rec.field == "real" else Field.HERMITIAN
        assert scan_for_forbidden(s, field) == [], wid


def test_inverse_defined_witnesses_link_to_base():
    # the base and its inverse are tied by the reversal law whenever the
    # base's last term is definite; an inverse-defined witness's base is its
    # inverse, and every other nonsingular witness is checked the same way
    for wid in witness_ids():
        inv = build_witness(wid)
        if compute_sepr(inv).terms[-1] not in (SeprTerm.A_PLUS, SeprTerm.A_MINUS):
            continue
        base = inv.inverse()
        s_base = compute_sepr(base)
        s_inv = compute_sepr(inv)
        last = s_base.terms[-1]
        assert last in (SeprTerm.A_PLUS, SeprTerm.A_MINUS)  # bases are nonsingular
        front = list(reversed(s_base.terms[:-1]))
        from seprkit.sepr import SeprSequence

        expected = SeprSequence(front + [last])
        if last is SeprTerm.A_MINUS:
            expected = SeprSequence([t.negated for t in front] + [last])
        assert s_inv == expected, wid


def test_inverse_base_singular_raises():
    from seprkit.matrix import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        HermitianMatrix.diagonal([1, 0]).inverse()
