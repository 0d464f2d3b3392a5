"""The package's record types and what importing the CLI costs.

The six immutable records are NamedTuples and the three reports are plain
classes; callers rely on keyword and positional construction with the same
defaults, on the repr text the README shows, on assignment to an immutable
record failing, and on the checks Verdict and SearchConfig make when built.
Every CLI command starts a fresh process, so importing ``seprkit.cli`` and
building the forbidden sets must not load ``dataclasses`` (and with it
``inspect``, ``ast``, ``dis`` and ``tokenize``).
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from seprkit.catalog import CatalogReport, WitnessRecord
from seprkit.classify import Field, ForbiddenHit, Verdict
from seprkit.exact import GaussianRational, I
from seprkit.matrix import HermitianMatrix
from seprkit.search import CensusReport, CensusRow, HuntReport, SearchConfig, SearchHit
from seprkit.sepr import parse_sequence

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SEQ = parse_sequence("A+A+")
POOL_REPR = "(GaussianRational(Fraction(0, 1), Fraction(0, 1)), GaussianRational(Fraction(1, 1), Fraction(0, 1)))"

# (type, keyword arguments, repr of the keyword-built record)
IMMUTABLE = [
    (Verdict, dict(forbidden=True, rule="real-NA+A*"), "Verdict(forbidden=True, rule='real-NA+A*')"),
    (Verdict, dict(forbidden=False), "Verdict(forbidden=False, rule=None)"),
    (
        ForbiddenHit,
        dict(position=2, pattern=SEQ, rule="order2-pair"),
        "ForbiddenHit(position=2, pattern=SeprSequence('A+A+'), rule='order2-pair')",
    ),
    (
        SearchConfig,
        dict(n=2, pool=(0, 1), field=Field.REAL_SYMMETRIC),
        f"SearchConfig(n=2, pool={POOL_REPR}, field=<Field.REAL_SYMMETRIC: 'real-symmetric'>, "
        "target=None, mode='random', budget=10000, seed=1729, subsequence=False)",
    ),
    (
        SearchHit,
        dict(matrix=HermitianMatrix.identity(2), sepr=SEQ, position=1),
        "SearchHit(matrix=HermitianMatrix(2x2: 1 0; 0 1), sepr=SeprSequence('A+A+'), position=1)",
    ),
    (
        CensusRow,
        dict(pattern=SEQ, status="open", source="-"),
        "CensusRow(pattern=SeprSequence('A+A+'), status='open', source='-')",
    ),
    (
        WitnessRecord,
        dict(id="X.1", family="X", params=(1,), field="real", claimed=SEQ, source="s"),
        "WitnessRecord(id='X.1', family='X', params=(1,), field='real', claimed=SeprSequence('A+A+'), source='s')",
    ),
]

# (type, keyword arguments, the attributes they leave at their defaults)
MUTABLE = [
    (
        HuntReport,
        dict(field=Field.HERMITIAN, mode="random", seed=7),
        dict(samples=0, check_counts={}, violations=[]),
    ),
    (CensusReport, dict(order=2, field=Field.HERMITIAN, rows=[], budgets={}, violations=[]), {}),
    (CatalogReport, dict(rows=[]), {}),
]


@pytest.mark.parametrize("kind, kwargs, text", IMMUTABLE, ids=[case[0].__name__ for case in IMMUTABLE])
def test_immutable_records(kind, kwargs, text):
    record = kind(**kwargs)
    assert repr(record) == text
    assert kind(*kwargs.values()) == record
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("kind, kwargs, defaults", MUTABLE, ids=[case[0].__name__ for case in MUTABLE])
def test_mutable_reports(kind, kwargs, defaults):
    report = kind(**kwargs)
    assert kind(*kwargs.values()).__dict__ == report.__dict__
    assert report.__dict__ == {**kwargs, **defaults}
    for name in kwargs:
        setattr(report, name, None)
        assert getattr(report, name) is None


def test_hunt_reports_share_no_default_containers():
    first, second = (HuntReport(field=Field.REAL_SYMMETRIC, mode="random", seed=1) for _ in range(2))
    first.merge_counts({"check": 2})
    first.violations.append("v")
    assert second.check_counts == {} and second.violations == []


def test_forbidden_verdict_needs_a_rule():
    for args, kwargs in (((True,), {}), ((), {"forbidden": True}), ((True, ""), {}), ((1,), {"rule": None})):
        with pytest.raises(ValueError, match="a forbidden verdict must name its rule"):
            Verdict(*args, **kwargs)


def test_search_config_checks_and_coerces_positionally():
    cfg = SearchConfig(2, (0, Fraction(1, 2), I), Field.HERMITIAN, None, "exhaustive", 5, 3, True)
    assert cfg.pool == (GaussianRational(0), GaussianRational(Fraction(1, 2)), I)
    assert all(type(v) is GaussianRational for v in cfg.pool)
    assert (cfg.mode, cfg.budget, cfg.seed, cfg.subsequence) == ("exhaustive", 5, 3, True)
    with pytest.raises(ValueError, match="budget must be positive"):
        SearchConfig(2, (0,), Field.REAL_SYMMETRIC, None, "random", 0)
    with pytest.raises(ValueError, match="real-symmetric search cannot use non-real pool entry"):
        SearchConfig(2, (0, I), Field.REAL_SYMMETRIC)


def test_cli_import_loads_no_dataclasses():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import seprkit.cli\n"
        "from seprkit.classify import Field, forbidden_order2, forbidden_order3\n"
        "for field in Field:\n"
        "    forbidden_order2(field), forbidden_order3(field)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
