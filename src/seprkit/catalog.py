"""The witness catalog: 75 matrices with known sign sequences.

Each record stores a family constructor plus parameters rather than a
hand-expanded grid, so a transcription slip stays localized to one line.
Families ``FiveOne``, ``FiveTwo`` and ``SixOne`` are *inverse-defined*: the
witness is the exact inverse of the stated base matrix.  ``VierFour.9`` is
the single witness that leaves the Gaussian rationals; its off-diagonal
parameter is 2 + sqrt(5), carried exactly by :class:`Sqrt5Rational`.

Record ids look like ``VierSix.2``: family name, dot, 1-based position.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exact import GaussianRational, I, Sqrt5Rational
from .matrix import HermitianMatrix
from .sepr import SeprSequence, compute_sepr

Q = Fraction


def _vier_one(x, y, a):
    return [
        [x, 5, 1, 1],
        [5, y, 1, 1],
        [1, 1, 1, a],
        [1, 1, a, 1],
    ]


def _vier_two(x, y, a):
    return [
        [-2, 2, 2, 0],
        [2, -2, 0, 2],
        [2, 0, x, a],
        [0, 2, a, y],
    ]


def _vier_three(x, y, z, a):
    return [
        [x, 1, 1, -1],
        [1, y, 1, 1],
        [1, 1, z, a],
        [-1, 1, a, 0],
    ]


def _vier_four(x, a, b):
    return [
        [0, a, 2, 1],
        [a, x, 1, 2],
        [2, 1, 1, b],
        [1, 2, b, 1],
    ]


def _vier_five(x, a, b):
    return [
        [0, a, 1, 2],
        [a, -1, 1, 1],
        [1, 1, 1, b],
        [2, 1, b, x],
    ]


def _vier_six(x, a):
    return [
        [0, 0, 1, 0],
        [0, -1, 0, 1],
        [1, 0, 1, a],
        [0, 1, a, x],
    ]


def _five_one_base(a, b):
    return [
        [1, a, 2, 1, 1],
        [a, 1, 2, 1, 1],
        [2, 2, 1, 1, 1],
        [1, 1, 1, -1, b],
        [1, 1, 1, b, -1],
    ]


def _five_two_base(x, y, a, b, c):
    return [
        [x, a, b, 1, 1],
        [a, y, c, 1, 1],
        [b, c, 0, 1, 1],
        [1, 1, 1, 0, 1],
        [1, 1, 1, 1, 0],
    ]


def _six_one_base(x, y):
    return [
        [1, -9, -2, 5, 2, 2],
        [-9, x, -2, 2, 5, 2],
        [-2, -2, y, 2, 2, 5],
        [5, 2, 2, 1, -9, -2],
        [2, 5, 2, -9, 1, -2],
        [2, 2, 5, -2, -2, -1],
    ]


def _complex_f(a, b):
    a = GaussianRational._coerce(a)
    b = GaussianRational._coerce(b)
    return [
        [0, 0, I, -I, 1, a],
        [0, 0, 0, b, 1, -I],
        [-I, 0, 0, 0, 1, 1],
        [I, b.conjugate(), 0, 0, 0, -2],
        [1, 1, 1, 0, 0, 0],
        [a.conjugate(), I, 1, -2, 0, 0],
    ]


def _complex_g(a):
    a = GaussianRational._coerce(a)
    return [
        [0, 1, 1, 1],
        [1, 0, I, 1],
        [1, -I, 0, a],
        [1, 1, a.conjugate(), 0],
    ]


def _complex(*params):
    """The Complex family's two shapes: f(a, b) of order 6, g(a) of order 4."""
    return _complex_f(*params) if len(params) == 2 else _complex_g(*params)


_NSF_REAL_GRIDS = (
    [
        [1, 0, 1, 1],
        [0, 1, -1, 1],
        [1, -1, 1, 0],
        [1, 1, 0, 1],
    ],
    [
        [-1, 1, 1, 1, 1],
        [1, -1, -1, 1, 1],
        [1, -1, -1, -1, 1],
        [1, 1, -1, -1, -1],
        [1, 1, 1, -1, -1],
    ],
    [
        [-5, 5, -5, 1, -1],
        [5, -9, -1, 1, 3],
        [-5, -1, -9, 3, 1],
        [1, 1, 3, -1, -1],
        [-1, 3, 1, -1, -1],
    ],
    [
        [-2, -7, -9, 9, 18, 18],
        [-7, -21, -28, 28, 56, 56],
        [-9, -28, -37, 38, 76, 76],
        [9, 28, 38, -40, -79, -81],
        [18, 56, 76, -79, -156, -159],
        [18, 56, 76, -81, -159, -162],
    ],
    [
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 1, 0, 1, 0],
        [0, 0, 0, 1, 0, -1],
        [1, 1, 0, 0, -1, 0],
    ],
    [
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 1, 0, 1, 0],
        [0, 0, 0, 1, 0, 2],
        [1, 1, 0, 0, 2, 0],
    ],
)

_NSF_COM_GRIDS = (
    [
        [-1, 1, 1, 1, 1],
        [1, -1, 1, 1, 1],
        [1, 1, -1, -I, I],
        [1, 1, I, -1, -I],
        [1, 1, -I, I, -1],
    ],
    [
        [0, I, I, I, I],
        [-I, 0, I, I, I],
        [-I, -I, 0, I, I],
        [-I, -I, -I, 0, I],
        [-I, -I, -I, -I, 0],
    ],
)


# family name -> (builder, inverse-defined?, field, [(claimed, params), ...])
_FAMILIES: Dict[str, tuple] = {
    "VierOne": (
        _vier_one,
        False,
        "real",
        [
            ("A+A*A*A+", (2, Q(1, 2), 2)),
            ("A+A+A*A-", (6, 6, Q(-3, 4))),
            ("A+A-A*A+", (Q(1, 2), Q(1, 2), 2)),
            ("A*A*A+N", (-6, -5, Q(-47, 5))),
            ("A+A*S-N", (4, 5, Q(-3, 5))),
            ("A*S*A*A+", (-5, -5, 0)),
            ("A+S*A*A-", (1, 3, 0)),
            ("A+S+A*A-", (1, 25, Q(1, 2))),
            ("A+S+A-A-", (Q(5, 2), 10, Q(-9, 10))),
            ("A+S-A*A+", (1, Q(3, 4), Q(4, 3))),
        ],
    ),
    "VierTwo": (
        _vier_two,
        False,
        "real",
        [
            ("A*S*A+N", (-2, 2, 1)),
            ("A*S-A+N", (2, 2, 3)),
            ("A-S+A+N", (-2, -2, -1)),
        ],
    ),
    "VierThree": (
        _vier_three,
        False,
        "real",
        [
            ("NA-A*A+", (0, 0, 0, 1)),
            ("NS-S*A+", (0, 0, 0, 0)),
            ("S+A*A*A-", (2, 2, 4, 1)),
        ],
    ),
    "VierFour": (
        _vier_four,
        False,
        "real",
        [
            ("S*A*A*A+", (-1, 1, 0)),
            ("S*A-A+A+", (-1, 2, 5)),
            ("S*A-A+A-", (-1, 2, 2)),
            ("S+A*A*A+", (0, 1, 0)),
            ("S+A-A+A+", (0, Q(1, 2), 2)),
            ("S+A-A+A-", (0, 2, 2)),
            ("S+A-A-A+", (0, 5, -2)),
            ("S+A-A-A-", (0, -1, -2)),
            ("S*A*S*A+", (-1, Sqrt5Rational(2, 1), 0)),
            ("S+A*S-A+", (0, 4, 0)),
            ("S*S*A*A+", (-1, 0, 0)),
            ("S*S-A+A+", (-1, 0, 2)),
            ("S*S-A+A-", (-1, 0, 4)),
            ("S+S*A*A+", (1, 3, 0)),
            ("S+S-A*A+", (1, 3, 1)),
        ],
    ),
    "VierFive": (
        _vier_five,
        False,
        "real",
        [
            ("S*A*A+A+", (-2, 1, 10)),
            ("S*A*A+A-", (-5, 1, 1)),
            ("S*A*S+A+", (-2, 2, Q(1, 2))),
            ("S*S*A+A+", (-2, 0, Q(3, 5))),
        ],
    ),
    "VierSix": (
        _vier_six,
        False,
        "real",
        [
            ("S*S*S*A+", (4, 1)),
            ("S*S*S+A-", (-5, 2)),
        ],
    ),
    "FiveOne": (
        _five_one_base,
        True,
        "real",
        [
            ("A*A*A+A*A-", (-2, 2)),
            ("A*A*S+A*A-", (-2, 1)),
            ("A*S*A+A*A-", (-3, 2)),
            ("A*S-A+A*A-", (7, 2)),
            ("A*S*S+A*A-", (-3, 1)),
            ("A*S-S+A*A-", (7, 1)),
        ],
    ),
    "FiveTwo": (
        _five_two_base,
        True,
        "real",
        [
            ("A*A*A+S*A-", (1, -1, -1, 1, 1)),
            ("A*A*A+S+A-", (-1, 0, -1, 1, 1)),
            ("A*A*A+S-A-", (1, 0, 1, 1, 3)),
            ("A*A*S+S*A-", (1, -1, -1, 1, 0)),
            ("A*A*S+S+A-", (-1, 0, 0, 1, -1)),
            ("A*A*S+S-A-", (1, 0, 0, 1, 1)),
            ("A*S*A+S*A-", (1, -1, -1, Q(1, 2), 1)),
            ("A*S*A+S+A-", (-1, 0, -1, 1, 2)),
            ("A*S*A+S-A-", (1, 0, Q(1, 2), 1, -1)),
            ("A*S-A+S*A-", (1, -1, 1, Q(1, 2), 1)),
            ("A*S-A+S+A-", (-1, 0, Q(-1, 2), 1, 1)),
            ("A*S-A+S-A-", (1, 0, Q(1, 2), 1, 1)),
            ("A*S*S+S*A-", (1, -1, -1, 0, 0)),
            ("S*S*S+S+A-", (-1, 0, 0, -1, 0)),
            ("S*S*S+S-A-", (1, 0, 0, 1, 0)),
            ("S*S-S+S*A-", (1, -1, 0, 1, 0)),
        ],
    ),
    "SixOne": (
        _six_one_base,
        True,
        "real",
        [
            ("A-A*S+A+A*A-", (1, -1)),
            ("A-A*S+A+S*A-", (1, 0)),
            ("A-A*S+S+A*A-", (4, -1)),
            ("A-A*S+S+S*A-", (4, 0)),
        ],
    ),
    "NSFreal": (
        lambda k: _NSF_REAL_GRIDS[k],
        False,
        "real",
        [
            ("A+S+A-A+", (0,)),
            ("A-NS+NA-", (1,)),
            ("A-S+A+S-A-", (2,)),
            ("A-S*S+A+S+A-", (3,)),
            ("NS-NS+S*A-", (4,)),
            ("NS-NS+S+A-", (5,)),
        ],
    ),
    "Complex": (
        _complex,
        False,
        "complex",
        [
            ("NS-NA+S*A-", (-4, 1)),
            ("NS-NA+S+A-", (2, -1)),
            ("NA-S*A+", (I,)),
            ("NA-S+A+", (-I,)),
        ],
    ),
    "NSFcom": (
        lambda k: _NSF_COM_GRIDS[k],
        False,
        "complex",
        [
            ("A-NA+A*A-", (0,)),
            ("NA-NA+N", (1,)),
        ],
    ),
}


class WitnessRecord(NamedTuple):
    id: str
    family: str
    params: tuple
    field: str  # "real" or "complex"
    claimed: SeprSequence
    source: str


def _build_records() -> Dict[str, WitnessRecord]:
    records: Dict[str, WitnessRecord] = {}
    for family, (_, inverse_defined, field, rows) in _FAMILIES.items():
        for k, (claimed, params) in enumerate(rows, start=1):
            wid = f"{family}.{k}"
            kind = "inverse of the stated base matrix" if inverse_defined else "explicit grid"
            records[wid] = WitnessRecord(
                id=wid,
                family=family,
                params=tuple(params),
                field=field,
                claimed=SeprSequence.parse(claimed),
                source=f"catalog family {family}, entry {k} ({kind})",
            )
    return records


_RECORDS = _build_records()


def witness_ids() -> Tuple[str, ...]:
    return tuple(_RECORDS)


def families() -> Tuple[str, ...]:
    return tuple(_FAMILIES)


def get_record(witness_id: str) -> WitnessRecord:
    try:
        return _RECORDS[witness_id]
    except KeyError:
        raise KeyError(f"unknown witness id {witness_id!r}") from None


def _base_matrix(rec: WitnessRecord) -> HermitianMatrix:
    return HermitianMatrix(_FAMILIES[rec.family][0](*rec.params))


def build_witness(witness_id: str) -> HermitianMatrix:
    """Construct the exact witness matrix for a catalog id."""
    rec = get_record(witness_id)
    base = _base_matrix(rec)
    return base.inverse() if _FAMILIES[rec.family][1] else base


def verify_witness(witness_id: str) -> Tuple[SeprSequence, bool]:
    """Recompute the witness's sign sequence and compare with the claim."""
    rec = get_record(witness_id)
    computed = compute_sepr(build_witness(witness_id))
    return computed, computed == rec.claimed


class CatalogReport:
    def __init__(self, rows: List[Tuple[str, str, str, bool]]):
        self.rows = rows  # (id, claimed, computed, ok)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r[3])

    @property
    def failed(self) -> int:
        return len(self.rows) - self.passed

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def lines(self):
        for wid, claimed, computed, ok in self.rows:
            yield f"{wid}\t{claimed}\t{computed}\t{'pass' if ok else 'fail'}"

    def summary(self) -> str:
        return f"catalog: {self.passed}/{len(self.rows)} witnesses verified"


def verify_all(family: Optional[str] = None, witness_id: Optional[str] = None) -> CatalogReport:
    """Verify the whole catalog, one family, or one id."""
    if witness_id is not None:
        ids = [witness_id]
        get_record(witness_id)
    elif family is not None:
        if family not in _FAMILIES:
            raise KeyError(f"unknown family {family!r}")
        ids = [wid for wid in _RECORDS if _RECORDS[wid].family == family]
    else:
        ids = list(_RECORDS)
    rows = []
    for wid in ids:
        rec = _RECORDS[wid]
        computed, ok = verify_witness(wid)
        rows.append((wid, str(rec.claimed), str(computed), ok))
    return CatalogReport(rows)
