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
into a GridPool once per search, not once per matrix, and each det = 0
completion solves one linear equation for a diagonal entry and scales
its integer grid by the denominator, one per similarity class.  A sweep
grid is walked raw, with no matrix built, and only the first grid of
each sequence becomes a HermitianMatrix; a test pins that a sweep grid
passes HermitianMatrix's checks and that its raw walk is the matrix's.
Every other generated grid goes through HermitianMatrix's checks and
gets its own sign walk.

The attainability census draws no random matrix: after its stock and
catalog bases it climbs a fixed ladder of transforms, sweeps,
duplicate-last constructions, det = 0 completions and direct sums (see
attainability_census), so its report depends on nothing but the order
and the field.  Each construction is predicted by summarising a table
rule's table: transforms and duplicate-last constructions by the rules of
seprkit.properties.TRANSFORMS, which the hunt's transform checks also
read, and direct sums by seprkit.sepr's direct_sum_table.
All pass one gate: each prediction is scanned for forbidden windows, and a
matrix is built and walked only when its prediction holds a pattern still
missing.  Every witness the census reports is a matrix it built and walked.

Absence of a witness within a budget is only ever reported as "not found",
never as impossibility.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import combinations_with_replacement, islice, product
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .catalog import build_witness, get_record, witness_ids
from .classify import Field, all_patterns, forbidden_order2, forbidden_order3
from .exact import GaussianRational, I
from .matrix import HermitianMatrix, SingularMatrixError, _scale, _sign_walk
from .properties import TRANSFORMS, not_invertible, run_suite
from .sepr import SeprSequence, compute_sepr, direct_sum_table, table_sequence

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


def _grid_tuples(diagonals, choices) -> Iterator[tuple]:
    """Odometer over free entries: for each diagonal in turn, every upper
    triangle, row-major, upper slot k ranging over the (v, conj v) grid
    pairs choices[k]; each grid in _scale's form."""
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
            yield tuple(map(tuple, rows))


def exhaustive_matrices(n: int, pool) -> Iterator[HermitianMatrix]:
    """Deterministic odometer enumeration over free entries: n diagonal
    slots over the pool's distinct real parts, then the upper triangle
    row-major over the pool."""
    d, scale, pairs, _, diag_values = grid_pool(pool)
    grids = _grid_tuples(product(diag_values, repeat=n), [pairs] * (n * (n - 1) // 2))
    return map(partial(HermitianMatrix._of, d, scale), grids)


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
    window, in subsequence mode); None if the budget runs out.  A target
    no order of the configuration can hold is a ValueError, before any
    matrix is drawn."""
    if cfg.target is None:
        raise ValueError("find_witness needs a target sequence")
    lo, hi = _orders(cfg.n)
    if cfg.subsequence and len(cfg.target) > hi:
        raise ValueError(
            f"target of length {len(cfg.target)} cannot be a window "
            f"of the sequence of a matrix of order ≤ {hi}"
        )
    if not cfg.subsequence and not (lo <= len(cfg.target) <= hi):
        orders = f"an order-{lo} matrix" if lo == hi else f"a matrix of order {lo} to {hi}"
        raise ValueError(f"target of length {len(cfg.target)} cannot be the full sequence of {orders}")
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


def hunt_counterexamples(cfg: SearchConfig) -> HuntReport:
    """Sample matrices per the configuration and run the full property
    suite (including the forbidden-window scan) on each."""
    report = HuntReport(field=cfg.field, mode=cfg.mode, seed=cfg.seed)
    rng = random.Random(cfg.seed ^ 0x5EB2)  # separate stream for permutations
    for m in _iter_config(cfg):
        report.samples += 1
        counts, violations = run_suite(m, cfg.field, rng)
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
    canonical grid with a given sequence represents it.  A grid is graded
    by the signs of its own _sign_walk, with no matrix built; only the
    first grid of each sequence becomes a HermitianMatrix.  Each distinct
    sign table is summarised once: a grid whose table was already met
    cannot bring a new sequence and is skipped.  At order 3 the sweep
    walks 1,575 real and 200 Hermitian grids, which hold 149 and 76 tables
    and give 62 and 42 sequences.

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
    tables = set()
    for grid in _grid_tuples(combinations_with_replacement(diag_values, order), choices):
        table = tuple(_sign_walk(grid, d))
        if table in tables:
            continue
        tables.add(table)
        text = str(table_sequence(table))
        if text not in found:
            found[text] = HermitianMatrix._of(d, scale, grid)
    return found


def singular_completions() -> Iterator[Tuple[int, tuple]]:
    """Singular real symmetric 3x3 matrices [[x,a,b],[a,y,c],[b,c,z]], as
    the (scale, grid) of each in _scale's form, with no matrix built:
    x, y and a over REAL_DEFAULT_POOL, b and c over its nonnegative values,
    and z solved for.  Laplace expansion along row 3 gives
    det B = z (xy - a^2) - (x c^2 + y b^2 - 2abc), linear in z, so each
    tuple with xy != a^2 has exactly one z making B singular, a rational
    that may lie far outside any small pool.

    Only b >= 0, c >= 0 and (x, b) <= (y, c) are tried: similarity by
    diag(1, 1, -1) flips b and c, diag(-1, 1, 1) flips a and b and
    diag(1, -1, 1) flips a and c, and exchanging indices 1 and 2 swaps
    (x, b) with (y, c).  Each only reorders the principal minors and leaves
    z unchanged, and the pool is closed under negation, so every sequence
    of the unreduced 5^5 domain is reached (510 matrices, not 2,700).
    Deterministic; distinct tuples give distinct matrices, and
    HermitianMatrix._of(0, scale, grid) builds one.
    """
    ints = sorted(int(v.re) for v in REAL_DEFAULT_POOL)
    nonnegative = [v for v in ints if v >= 0]
    for x, y, a, b, c in product(ints, ints, ints, nonnegative, nonnegative):
        den = x * y - a * a  # det B[{1,2}]
        if den == 0 or (x, b) > (y, c):
            continue
        num = x * c * c + y * b * b - 2 * a * b * c  # -det B with z = 0
        if den < 0:
            num, den = -num, -den
        grid = ((x * den, a * den, b * den), (a * den, y * den, c * den), (b * den, c * den, num))
        yield den, grid


def _census_bases(field: Field) -> List[Tuple[str, HermitianMatrix]]:
    """The stock matrices and the field's catalog witnesses, labelled."""
    stock = [(f"stock:{label}", m) for label, m in _STOCK]
    return stock + [
        (f"catalog:{wid}", build_witness(wid))
        for wid in witness_ids()
        if field is Field.HERMITIAN or get_record(wid).field == "real"
    ]


def _derived_matrices(
    label: str, matrix: HermitianMatrix
) -> Iterator[Tuple[str, SeprSequence, Callable[[], HermitianMatrix]]]:
    """The TRANSFORMS of a base as (source, predicted sequence, build): its
    negation, then the other transforms of the base and of its negation, in
    the table's order.  Each sequence summarises a table rule applied to
    the base's walked sign table or to the negation's table of it; build()
    makes the matrix, negating the base at most once."""
    table = matrix._mask_signs()
    negate = TRANSFORMS["negate"]
    negated_table, negated = negate.table(table), cache(partial(negate.build, matrix))
    yield f"transform:{negate.tag}({label})", table_sequence(negated_table), negated
    for prefix, operand_table, operand in (("", table, lambda: matrix), (f"{negate.tag}:", negated_table, negated)):
        for t in TRANSFORMS.values():
            if t is not negate and t.applies(operand_table):
                predicted = table_sequence(t.table(operand_table))
                yield f"transform:{t.tag}({prefix}{label})", predicted, lambda t=t, operand=operand: t.build(operand())


# Longest direct sum the census walks.  A*A*A*, the one pattern no earlier
# rung reaches, falls at total length 4.  An order-3 census records about
# 250 sequences (those of the matrices it built), so when no sum supplies a
# missing pattern the walk predicts about 540 pairs up to length 5, 3,100 up
# to length 6 and some 33,000 without a bound: the bound caps that worst
# case.
MAX_SUM_ORDER = 5


def _direct_sums(
    recorded: Dict[SeprSequence, HermitianMatrix]
) -> Iterator[Tuple[str, SeprSequence, Callable[[], HermitianMatrix]]]:
    """Direct sums a (+) b of the recorded sequences as (source, predicted
    sequence, build): unordered pairs by increasing total length up to
    MAX_SUM_ORDER, then by (length, text) of a and b.  Each sequence
    summarises direct_sum_table of the recorded matrices' sign tables;
    build() sums the recorded matrices."""
    by_length: Dict[int, List[SeprSequence]] = {}
    for s in sorted(recorded, key=str):
        by_length.setdefault(len(s), []).append(s)
    for total in range(2, MAX_SUM_ORDER + 1):
        for na in range(1, total // 2 + 1):
            left, right = by_length.get(na, []), by_length.get(total - na, [])
            for i, a in enumerate(left):
                for b in right[i:] if left is right else right:
                    ma, mb = recorded[a], recorded[b]
                    predicted = table_sequence(direct_sum_table(ma._mask_signs(), mb._mask_signs()))
                    yield f"construction:direct-sum({a},{b})", predicted, partial(ma.direct_sum, mb)


def attainability_census(order: int, field: Field) -> CensusReport:
    """Try to witness every non-forbidden pattern of the given order.

    Every stock matrix and catalog witness is scanned in full.  While
    patterns are missing, and only until none is, these rungs follow:
    (1) structural transforms of the bases (see _derived_matrices); (2)
    every matrix of the exhaustive canonical sweep over real matrices,
    then (Hermitian census) over complex ones; (3) duplicate-last
    constructions on sweep matrices whose prediction starts with a
    missing pattern; (4) singular 3x3 matrices whose last diagonal entry
    is solved from det = 0 (see singular_completions);
    (5) direct sums of the sequences recorded so far (see _direct_sums).

    absorb() grades the sign table of a matrix's or a grid's own walk.
    Rungs 1, 3 and 5 predict each sequence by summarising a table rule of
    TRANSFORMS or direct_sum_table, applied to the operands' walked sign
    tables, and pass one gate, offer(): a forbidden window in the
    prediction is a violation naming the source, the matrix is built only
    when the prediction holds a missing window, an inverse the engine
    refuses although the sequence ends in A+ or A- is a violation, and a
    built matrix is absorbed.
    absorb() summarises each distinct sign table once, and calls its
    build() only for a table whose sequence no recorded matrix holds yet
    (rung 4 walks 510 completion grids, which hold 40 tables, and builds
    2 matrices): a repeated table can witness nothing new, so it only
    reports the forbidden windows cached with it, each as a violation
    naming its own source.
    Patterns still missing are reported open, never impossible.
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
    # sign table -> (its sequence, the forbidden windows of that sequence)
    graded: Dict[tuple, Tuple[SeprSequence, List[SeprSequence]]] = {}

    def absorb(source: str, table: tuple, build: Callable[[], HermitianMatrix]):
        if table in graded:
            s, bad = graded[table]
        else:
            s, bad = table_sequence(table), []
            if s not in recorded:
                recorded[s] = build()
            for _, w in s.windows(order):
                if w in forbidden:
                    bad.append(w)
                elif w in missing:
                    missing.discard(w)
                    found[w] = source
            graded[table] = s, bad
        violations.extend(f"forbidden pattern {w} appeared in {s} from {source}" for w in bad)

    def absorb_matrix(source: str, matrix: HermitianMatrix):
        absorb(source, tuple(matrix._mask_signs()), lambda: matrix)

    def offer(source: str, predicted: SeprSequence, build: Callable[[], HermitianMatrix], counter=None):
        windows = [w for _, w in predicted.windows(order)]
        violations.extend(
            f"forbidden pattern {w} predicted in {predicted} for {source}" for w in windows if w in forbidden
        )
        if any(w in missing for w in windows):
            try:
                matrix = build()
            except SingularMatrixError:
                violations.append(not_invertible(predicted.terms[-1], source))
                return
            if counter is not None:
                budgets[counter] += 1
            absorb_matrix(source, matrix)

    bases = _census_bases(field)
    for label, m in bases:
        absorb_matrix(label, m)
    for construction in (t for label, base in bases for t in _derived_matrices(label, base)):
        if not missing:
            break
        offer(*construction)

    sweeps = []  # real matrices also count for a Hermitian census
    sweep_rungs = [("sweep-real", Field.REAL_SYMMETRIC), ("sweep-complex", Field.HERMITIAN)]
    for size, sweep_field in sweep_rungs if field is Field.HERMITIAN else sweep_rungs[:1]:
        if not missing:
            break
        sweeps.append(full_sequence_sweep(order, sweep_field))
        budgets[size] = len(sweeps[-1])
        for m in sweeps[-1].values():
            if not missing:
                break
            absorb_matrix(f"search:exhaustive-{order}x{order}", m)

    # a sweep matrix's duplicate-last construction, indexed by the pattern
    # its predicted sequence starts with (real sweep first)
    duplicate = TRANSFORMS["duplicate-last"]
    index = {}
    for sweep in sweeps:
        for text, m in sweep.items():
            predicted = table_sequence(duplicate.table(m._mask_signs()))
            source = f"construction:{duplicate.tag}(base={text})"
            index.setdefault(predicted[:order], (source, predicted, partial(duplicate.build, m)))
    for pattern in sorted(missing, key=str):
        if not missing:
            break
        if pattern in index:
            offer(*index[pattern])

    for den, grid in singular_completions():
        if not missing:
            break
        budgets["completions-tried"] += 1
        table = tuple(_sign_walk(grid, 0))
        absorb("construction:det-zero-completion", table, partial(HermitianMatrix._of, 0, den, grid))

    for construction in _direct_sums(recorded):
        if not missing:
            break
        offer(*construction, "direct-sums-tried")

    rows = [CensusRow(p, "witnessed", found[p]) if p in found else CensusRow(p, "open", "-") for p in targets]
    return CensusReport(order=order, field=field, rows=rows, budgets=budgets, violations=violations)
