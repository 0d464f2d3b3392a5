"""Search for matrices attaining target sign patterns, randomized
counterexample hunting, and the attainability census.

Randomness in target search and the hunt is fully seeded: identical
configurations produce identical reports.  Random matrices draw the
diagonal (real part only) and the upper triangle independently and
uniformly from the entry pool; the lower triangle follows by conjugate
symmetry.  Exhaustive mode enumerates the
same free entries in odometer order, diagonal candidates being the
distinct real parts occurring in the pool.

The census sweep enumerates only canonical grids, with a nondecreasing
diagonal and a real nonnegative first row; every class of signed
permutation similarity over the sweep's closed pools has one.  Such
similarities only reorder the principal minors of each order, so the
sweep finds every sequence of the full enumeration; the representative of
a sequence is the first canonical grid attaining it (see
full_sequence_sweep).

Every generator builds scaled integer grids directly: a pool is scaled
into a GridPool once per search, not once per matrix, and the det = 0
completions are solved in integers, one per similarity class.  Each grid
still goes through HermitianMatrix's checks and gets its own sign walk.

The attainability census draws no random matrix: after its stock and
catalog bases it climbs a fixed ladder of transforms, sweeps,
duplicate-last constructions, det = 0 completions and direct sums (see
attainability_census), so its report depends on nothing but the order
and the field.  Transforms and direct sums are predicted by the rules of
seprkit.sepr first, and a matrix is built and walked only when its
prediction holds a pattern still missing; every witness the census
reports is a matrix it built and walked.

Absence of a witness within a budget is only ever reported as "not found",
never as impossibility.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations_with_replacement, islice, product
from math import isqrt
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .catalog import build_witness, get_record, witness_ids
from .classify import Field, all_patterns, forbidden_order2, forbidden_order3
from .exact import GaussianRational, I
from .matrix import HermitianMatrix, SingularMatrixError, _scale
from .properties import run_suite
from .sepr import (
    SeprSequence,
    SeprTerm,
    compute_sepr,
    direct_sum_rule,
    duplicate_last_rule,
    inverse_rule,
    negation_rule,
)

DEFAULT_SEED = 1729

REAL_DEFAULT_POOL: Tuple[GaussianRational, ...] = tuple(
    GaussianRational(v) for v in (-2, -1, 0, 1, 2)
)
COMPLEX_DEFAULT_POOL: Tuple[GaussianRational, ...] = REAL_DEFAULT_POOL + (
    I,
    -I,
    GaussianRational(0, 2),
    GaussianRational(0, -2),
    GaussianRational(1, 1),
    GaussianRational(1, -1),
)


OrderSpec = Union[int, Tuple[int, int]]


class _SearchFields(NamedTuple):
    n: OrderSpec
    pool: Tuple[GaussianRational, ...]
    field: Field
    target: Optional[SeprSequence] = None
    mode: str = "random"  # "random" or "exhaustive"
    budget: int = 10000
    seed: int = DEFAULT_SEED
    subsequence: bool = False


class SearchConfig(_SearchFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        """Reject an unknown mode, a sample budget below 1, an empty pool, a
        pool entry that is no exact rational or Gaussian rational, or a
        non-real entry for a real-symmetric search (ValueError); the pool
        becomes a tuple of GaussianRationals."""
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in ("random", "exhaustive"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if not self.pool:
            raise ValueError("entry pool is empty")
        entries = []
        for v in self.pool:
            entry = GaussianRational._coerce(v)
            if entry is None:
                raise ValueError(f"pool entry {v!r} is not an exact rational or Gaussian rational")
            if self.field is Field.REAL_SYMMETRIC and entry.im != 0:
                raise ValueError(f"real-symmetric search cannot use non-real pool entry {entry}")
            entries.append(entry)
        if isinstance(self.n, tuple):
            lo, hi = self.n
            if lo < 1 or hi < lo:
                raise ValueError(f"bad order range {self.n!r}")
            if self.mode == "exhaustive":
                raise ValueError("exhaustive mode needs a fixed order")
        elif self.n < 1:
            raise ValueError("order must be at least 1")
        return self._replace(pool=tuple(entries))


class GridPool(NamedTuple):
    """An entry pool in _scale's form, scaled once per search: the ring
    d, one common scale, each value as its (v, conj v) grid pair and its
    real part's grid value, both in pool order, and the diagonal
    candidates, the distinct real parts in ascending order."""

    d: int
    scale: int
    pairs: tuple
    reals: tuple
    diag: tuple


def grid_pool(pool) -> GridPool:
    """The GridPool of a tuple of GaussianRationals."""
    d, scale, (row,) = _scale([pool])
    if d == -1:
        pairs = tuple((v, (v[0], -v[1])) for v in row)
        reals = tuple((v[0], 0) for v in row)
    else:
        pairs, reals = tuple((v, v) for v in row), row
    return GridPool(d, scale, pairs, reals, tuple(sorted(set(reals))))


def random_matrix(rng: random.Random, n: int, pool: GridPool) -> HermitianMatrix:
    """One random Hermitian matrix: uniform pool draws, diagonal keeping
    only the real part."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(pool.reals)
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = rng.choice(pool.pairs)
    return HermitianMatrix._of(pool.d, pool.scale, tuple(map(tuple, rows)))


def _grids(d: int, scale: int, diagonals, choices) -> Iterator[HermitianMatrix]:
    """Odometer over free entries: for each diagonal in turn, every upper
    triangle, row-major, upper slot k ranging over the (v, conj v) grid
    pairs choices[k]."""
    for diag in diagonals:
        n = len(diag)
        upper_slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for vals in product(*choices):
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            for (i, j), (v, conjugate) in zip(upper_slots, vals):
                rows[i][j] = v
                rows[j][i] = conjugate
            yield HermitianMatrix._of(d, scale, tuple(map(tuple, rows)))


def exhaustive_matrices(n: int, pool) -> Iterator[HermitianMatrix]:
    """Deterministic odometer enumeration over free entries: n diagonal
    slots over the pool's distinct real parts, then the upper triangle
    row-major over the pool."""
    d, scale, pairs, _, diag_values = grid_pool(pool)
    return _grids(d, scale, product(diag_values, repeat=n), [pairs] * (n * (n - 1) // 2))


def _orders(spec: OrderSpec) -> Tuple[int, int]:
    if isinstance(spec, tuple):
        return spec
    return (spec, spec)


def _iter_config(cfg: SearchConfig) -> Iterator[HermitianMatrix]:
    if cfg.mode == "exhaustive":
        yield from islice(exhaustive_matrices(cfg.n, cfg.pool), cfg.budget)
        return
    rng = random.Random(cfg.seed)
    lo, hi = _orders(cfg.n)
    pool = grid_pool(cfg.pool)
    for _ in range(cfg.budget):
        n = lo if lo == hi else rng.randint(lo, hi)
        yield random_matrix(rng, n, pool)


class SearchHit(NamedTuple):
    matrix: HermitianMatrix
    sepr: SeprSequence
    position: int  # 1-based window start


def find_witness(cfg: SearchConfig) -> Optional[SearchHit]:
    """First matrix whose sequence equals the target (or contains it as a
    window, in subsequence mode); None if the budget runs out."""
    if cfg.target is None:
        raise ValueError("find_witness needs a target sequence")
    lo, hi = _orders(cfg.n)
    if not cfg.subsequence and not (lo <= len(cfg.target) <= hi):
        raise ValueError(
            f"target of length {len(cfg.target)} cannot be the full sequence "
            f"of an order-{cfg.n} matrix"
        )
    for m in _iter_config(cfg):
        s = compute_sepr(m)
        if cfg.subsequence:
            pos = s.find(cfg.target)
            if pos is not None:
                return SearchHit(m, s, pos)
        elif s == cfg.target:
            return SearchHit(m, s, 1)
    return None


class HuntReport:
    def __init__(
        self, field: Field, mode: str, seed: int, samples: int = 0, check_counts=None, violations=None
    ):
        self.field, self.mode, self.seed, self.samples = field, mode, seed, samples
        self.check_counts: Dict[str, int] = {} if check_counts is None else check_counts
        self.violations: List[str] = [] if violations is None else violations

    @property
    def clean(self) -> bool:
        return not self.violations

    def merge_counts(self, counts: Dict[str, int]):
        for k, v in counts.items():
            self.check_counts[k] = self.check_counts.get(k, 0) + v

    def lines(self):
        yield f"samples\t{self.samples}"
        for name in sorted(self.check_counts):
            yield f"check\t{name}\t{self.check_counts[name]}"
        yield f"violations\t{len(self.violations)}"
        for v in self.violations:
            yield f"violation\t{v}"

    def summary(self) -> str:
        total = sum(self.check_counts.values())
        return (
            f"{self.samples} matrices, {total} checks, "
            f"{len(self.violations)} violations"
        )


def hunt_counterexamples(
    cfg: SearchConfig, permutation_samples: int = 5
) -> HuntReport:
    """Sample matrices per the configuration and run the full property
    suite (including the forbidden-window scan) on each."""
    report = HuntReport(field=cfg.field, mode=cfg.mode, seed=cfg.seed)
    rng = random.Random(cfg.seed ^ 0x5EB2)  # separate stream for permutations
    for m in _iter_config(cfg):
        report.samples += 1
        counts, violations = run_suite(
            m, cfg.field, rng, permutation_samples=permutation_samples
        )
        report.merge_counts(counts)
        report.violations.extend(violations)
    return report


# ---------------------------------------------------------------------------
# attainability census
# ---------------------------------------------------------------------------


class CensusRow(NamedTuple):
    pattern: SeprSequence
    status: str  # "witnessed" or "open"
    source: str

    def line(self) -> str:
        return f"{self.pattern}\t{self.status}\t{self.source}"


class CensusReport:
    def __init__(
        self, order: int, field: Field, rows: List[CensusRow], budgets: Dict[str, int], violations: List[str]
    ):
        self.order, self.field, self.rows = order, field, rows
        self.budgets, self.violations = budgets, violations

    @property
    def witnessed(self) -> int:
        return sum(1 for r in self.rows if r.status == "witnessed")

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def open_patterns(self) -> List[SeprSequence]:
        return [r.pattern for r in self.rows if r.status == "open"]

    def lines(self):
        for r in self.rows:
            yield r.line()

    def summary(self) -> str:
        budget = ", ".join(f"{k}={v}" for k, v in sorted(self.budgets.items()))
        return (
            f"census order {self.order} over {self.field.human}: "
            f"{self.witnessed}/{self.total} patterns witnessed "
            f"({len(self.open_patterns)} open; budgets: {budget})"
        )


_STOCK: Tuple[Tuple[str, HermitianMatrix], ...] = (
    ("O1", HermitianMatrix.zero(1)),
    ("O2", HermitianMatrix.zero(2)),
    ("O3", HermitianMatrix.zero(3)),
    ("I1", HermitianMatrix.identity(1)),
    ("I2", HermitianMatrix.identity(2)),
    ("I3", HermitianMatrix.identity(3)),
    ("diag(1,-1)", HermitianMatrix.diagonal([1, -1])),
    ("diag(1,-1,-1,0)", HermitianMatrix.diagonal([1, -1, -1, 0])),
)


def _sweep_pool(field: Field) -> Tuple[GaussianRational, ...]:
    if field is Field.REAL_SYMMETRIC:
        return REAL_DEFAULT_POOL
    return (
        GaussianRational(0),
        GaussianRational(1),
        GaussianRational(-1),
        I,
        -I,
    )


def full_sequence_sweep(order: int, field: Field) -> Dict[str, HermitianMatrix]:
    """Index every full sign sequence of an order-n matrix over
    _sweep_pool(field) by one matrix attaining it.

    Only canonical grids are enumerated: a nondecreasing diagonal
    (combinations with replacement of the diagonal candidates), first-row
    entries b_1j among the pool's real nonnegative values, and every other
    upper entry over the whole pool, in odometer order.  The first
    canonical grid with a given sequence represents it.

    The reduction is exact because of _sweep_pool's closed pools,
    {-2..2} and {0, +-1, +-i}: each is closed under conjugation and under
    multiplication by the units U = {+-1} (real) or {+-1, +-i}
    (Hermitian), and contains |v| for each entry v.  So every grid of
    exhaustive_matrices(order, pool) is (DP)* C (DP) for a canonical
    grid C, a permutation matrix P (sorting the diagonal) and a diagonal D
    with entries in U (making b_1j = |b_1j|).  Permutation similarity only
    permutes the principal minors of each order, and D* B D has B's
    principal minors, so both grids have one sequence: the key set is the
    full enumeration's, only the representatives differ.  A pool without
    these closures would lose sequences, so the pool is not a parameter.
    """
    pool = _sweep_pool(field)
    d, scale, pairs, _, diag_values = grid_pool(pool)
    first_row = tuple(p for v, p in zip(pool, pairs) if v.im == 0 and v.re >= 0)
    choices = [first_row] * (order - 1) + [pairs] * ((order - 1) * (order - 2) // 2)
    found: Dict[str, HermitianMatrix] = {}
    for m in _grids(d, scale, combinations_with_replacement(diag_values, order), choices):
        found.setdefault(str(compute_sepr(m)), m)
    return found


def singular_completions() -> Iterator[HermitianMatrix]:
    """Real symmetric 3x3 matrices [[x,a,b],[a,y,c],[b,c,z]], x, y, z, a and
    b over REAL_DEFAULT_POOL, with c solved for exactly (rational roots of
    the det = 0 quadratic, in integers): witnesses with one entry far
    outside any small pool.  Only a >= 0, b >= 0 and (y, a) <= (z, b) are
    tried: similarity by diag(1, -1, 1) or diag(1, 1, -1) flips the sign of
    a or b (and c), and exchanging indices 2 and 3 swaps (y, a) with (z, b);
    both only reorder the principal minors, and the pool is closed under
    negation, so every sequence of the full 5^5 enumeration is reached (460
    matrices, not 1,929).  Deterministic; duplicates skipped.
    """
    ints = sorted(int(v.re) for v in REAL_DEFAULT_POOL)
    nonnegative = [v for v in ints if v >= 0]
    seen = set()
    for x, y, z, a, b in product(ints, ints, ints, nonnegative, nonnegative):
        if (y, a) > (z, b):
            continue
        # det = -x c**2 + 2ab c + k; a root c = num / den gives scale den
        k = x * y * z - y * b * b - z * a * a
        if x:
            disc = a * a * b * b + x * k  # a quarter of the discriminant
            r = isqrt(max(disc, 0))
            if r * r != disc:
                continue
            roots = ((a * b - r, x), (a * b + r, x)) if r else ((a * b, x),)
        elif a and b:
            roots = ((-k, 2 * a * b),)
        else:
            roots = tuple((c, 1) for c in ints) if k == 0 else ()
        for num, den in roots:
            if den < 0:
                num, den = -num, -den
            grid = ((x * den, a * den, b * den), (a * den, y * den, num), (b * den, num, z * den))
            m = HermitianMatrix._of(0, den, grid)
            if m not in seen:
                seen.add(m)
                yield m


def _census_bases(field: Field) -> List[Tuple[str, HermitianMatrix]]:
    """The stock matrices and the field's catalog witnesses, labelled."""
    stock = [(f"stock:{label}", m) for label, m in _STOCK]
    return stock + [
        (f"catalog:{wid}", build_witness(wid))
        for wid in witness_ids()
        if field is Field.HERMITIAN or get_record(wid).field == "real"
    ]


_APPENDED_ZERO = SeprSequence.parse("N")  # the sequence of the 1x1 zero matrix


def _derived_matrices(
    label: str, matrix: HermitianMatrix
) -> Iterator[Tuple[str, SeprSequence, Callable[[], HermitianMatrix]]]:
    """The structural transforms of a base as (source, predicted sequence,
    build): its negation, then append-zero, duplicate-last and, for a
    sequence ending in A+ or A-, inverse of the base and of its negation.
    Each sequence follows from the base's walked sequence by the rules of
    seprkit.sepr; build() makes the matrix, negating the base at most once."""
    seq = compute_sepr(matrix)
    negated = cache(matrix.negate)
    yield f"transform:negate({label})", negation_rule(seq), negated
    for tag, s, operand in (("", seq, lambda: matrix), ("negate:", negation_rule(seq), negated)):
        yield (
            f"transform:append-zero({tag}{label})",
            direct_sum_rule(s, _APPENDED_ZERO),
            lambda operand=operand: operand().direct_sum(HermitianMatrix.zero(1)),
        )
        yield (
            f"transform:duplicate-last({tag}{label})",
            duplicate_last_rule(s),
            lambda operand=operand: operand().duplicate_last(),
        )
        if s.terms[-1] in (SeprTerm.A_PLUS, SeprTerm.A_MINUS):
            yield (
                f"transform:inverse({tag}{label})",
                inverse_rule(s),
                lambda operand=operand: operand().inverse(),
            )


def _census_ladder(
    order: int,
    field: Field,
    bases,
    forbidden: frozenset,
    missing: set,
    recorded: dict,
    budgets: dict,
    violations: list,
) -> Iterator[Tuple[Optional[str], str, HermitianMatrix]]:
    """The census's witness sources after its bases, in preference order,
    as (budget counter or None, source, matrix).  A rung starts only when
    the census pulls past the rung before it.

    The first rung predicts each structural transform of each base (see
    _derived_matrices) and builds its matrix only when the prediction
    holds a missing window: a transform whose windows are all witnessed
    already can witness nothing new.  A forbidden window in a prediction,
    and an inverse the engine refuses though the sequence ends in A+ or
    A-, are violations naming the transform."""
    for label, base in bases:
        for source, predicted, build in _derived_matrices(label, base):
            windows = [w for _, w in predicted.windows(order)]
            violations.extend(
                f"forbidden pattern {w} predicted in {predicted} for {source}"
                for w in windows
                if w in forbidden
            )
            if any(w in missing for w in windows):
                try:
                    m = build()
                except SingularMatrixError:
                    violations.append(
                        f"last term {predicted.terms[-1]} but matrix not invertible: {source}"
                    )
                    continue
                yield None, source, m

    # exhaustive small-matrix sweeps; real matrices also count for Hermitian
    sweep_rungs = [("sweep-real", Field.REAL_SYMMETRIC)]
    if field is Field.HERMITIAN:
        sweep_rungs.append(("sweep-complex", Field.HERMITIAN))
    sweeps = []
    for size, sweep_field in sweep_rungs:
        sweeps.append(full_sequence_sweep(order, sweep_field))
        budgets[size] = len(sweeps[-1])
        for m in sweeps[-1].values():
            yield None, f"search:exhaustive-{order}x{order}", m

    # duplicate-last constructions: a sweep sequence whose image under the
    # rule starts with a missing pattern (real sweep first)
    index: Dict[SeprSequence, Tuple[str, HermitianMatrix]] = {}
    for sweep in sweeps:
        for text, m in sweep.items():
            index.setdefault(duplicate_last_rule(SeprSequence.parse(text))[:order], (text, m))
    for pattern in sorted(missing, key=str):
        if pattern in index:
            base, m = index[pattern]
            yield None, f"construction:duplicate-last(base={base})", m.duplicate_last()

    # det = 0 completions reach trailing-N patterns whose witnesses need
    # one large entry
    for m in singular_completions():
        yield "completions-tried", "construction:det-zero-completion", m

    # direct sums of recorded sequences, predicted by the rule and built
    # only when the prediction holds a missing window
    yield from _direct_sums(order, missing, recorded)


# Longest direct sum the census walks.  A*A*A*, the one pattern no earlier
# rung reaches, falls at total length 4.  An order-3 census records about
# 250 sequences (those of the matrices it built), so when no sum supplies a
# missing pattern the walk predicts about 540 pairs up to length 5, 3,100 up
# to length 6 and some 33,000 without a bound: the bound caps that worst
# case.
MAX_SUM_ORDER = 5


def _direct_sums(
    order: int, missing: set, recorded: Dict[SeprSequence, HermitianMatrix]
) -> Iterator[Tuple[str, str, HermitianMatrix]]:
    """Direct sums a (+) b of the recorded sequences, unordered pairs by
    increasing total length up to MAX_SUM_ORDER, then by (length, text) of
    a and b.  A sum's sequence is predicted by direct_sum_rule; its matrix
    is built only when the prediction has a missing window, and the census
    grades that matrix by its own sign walk."""
    by_length: Dict[int, List[SeprSequence]] = {}
    for s in sorted(recorded, key=str):
        by_length.setdefault(len(s), []).append(s)
    for total in range(2, MAX_SUM_ORDER + 1):
        for na in range(1, total // 2 + 1):
            left, right = by_length.get(na, []), by_length.get(total - na, [])
            for i, a in enumerate(left):
                for b in right[i:] if left is right else right:
                    predicted = direct_sum_rule(a, b)
                    if any(w in missing for _, w in predicted.windows(order)):
                        m = recorded[a].direct_sum(recorded[b])
                        yield "direct-sums-tried", f"construction:direct-sum({a},{b})", m


def attainability_census(order: int, field: Field) -> CensusReport:
    """Try to witness every non-forbidden pattern of the given order.

    Every stock matrix and catalog witness is scanned in full.  While
    patterns are missing, the sources follow in this order, all of them
    deterministic: structural transforms of those bases, each predicted
    by its rule and built only when the prediction holds a missing window
    (see _census_ladder); every matrix of the exhaustive canonical sweep
    over real matrices, then (Hermitian census) over complex ones;
    duplicate-last constructions on sweep matrices; det = 0 completions of
    real 3x3 matrices, one per similarity class (see singular_completions);
    and direct sums of the sequences of the bases and of the matrices the
    census built, predicted symbolically (see _direct_sums).  Patterns still missing are
    reported as open, never as impossible.
    """
    if order not in (2, 3):
        raise ValueError("census supports orders 2 and 3")
    forbidden = forbidden_order2(field) if order == 2 else forbidden_order3(field)
    targets = [p for p in all_patterns(order) if p not in forbidden]
    missing = set(targets)
    found: Dict[SeprSequence, str] = {}
    recorded: Dict[SeprSequence, HermitianMatrix] = {}
    violations: List[str] = []
    budgets = {"completions-tried": 0, "direct-sums-tried": 0}

    def absorb(source: str, matrix: HermitianMatrix):
        s = compute_sepr(matrix)
        recorded.setdefault(s, matrix)
        for _, w in s.windows(order):
            if w in forbidden:
                violations.append(f"forbidden pattern {w} appeared in {s} from {source}")
            elif w in missing:
                missing.discard(w)
                found[w] = source

    bases = _census_bases(field)
    for label, m in bases:
        absorb(label, m)
    if missing:
        for counter, source, m in _census_ladder(
            order, field, bases, forbidden, missing, recorded, budgets, violations
        ):
            if counter is not None:
                budgets[counter] += 1
            absorb(source, m)
            if not missing:
                break

    rows = [
        CensusRow(p, "witnessed", found[p]) if p in found else CensusRow(p, "open", "-")
        for p in targets
    ]
    return CensusReport(order=order, field=field, rows=rows, budgets=budgets, violations=violations)
