"""Command-line interface.

Exit status: 0 on success, 1 on verification failure (catalog mismatch,
forbidden windows, property violations, search miss), 2 on usage or parse
errors.  Machine-readable output is tab-separated on stdout; diagnostics
go to stderr.

``main(argv)`` may be called many times in one process: the argparse tree
is built on the first call (nothing at import) and reused by every later
call, since parsing leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .catalog import verify_all
from .classify import Field, classify_sequence, epr_forbidden_order3, forbidden_order2, forbidden_order3, scan_for_forbidden
from .exact import parse_pool_token
from .matrix import load_matrix, matrix_to_json
from .search import (
    COMPLEX_DEFAULT_POOL,
    DEFAULT_SEED,
    REAL_DEFAULT_POOL,
    SearchConfig,
    attainability_census,
    find_witness,
    hunt_counterexamples,
)
from .sepr import compute_epr, compute_sepr, parse_sequence

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1

def parse_pool(spec: str, field: Field):
    if spec == "real-default":
        return REAL_DEFAULT_POOL
    if spec == "complex-default":
        return COMPLEX_DEFAULT_POOL
    if spec == "default":
        return REAL_DEFAULT_POOL if field is Field.REAL_SYMMETRIC else COMPLEX_DEFAULT_POOL
    return tuple(parse_pool_token(t) for t in spec.split(",") if t.strip())


def _field_arg(parser, required=True, default=None):
    parser.add_argument(
        "--field",
        type=str,
        required=required,
        default=default,
        help="matrix field: 'hermitian' (complex) or 'real' (real symmetric)",
    )


def cmd_compute(args) -> int:
    matrix = load_matrix(args.file)
    if args.field == "auto":
        field = Field.REAL_SYMMETRIC if matrix.is_real else Field.HERMITIAN
    else:
        field = Field.parse(args.field)
        if field is Field.REAL_SYMMETRIC and not matrix.is_real:
            print("error: --field real given for a non-real matrix", file=sys.stderr)
            return USAGE_ERROR
    seq = compute_sepr(matrix)
    coarse = compute_epr(matrix)
    hits = scan_for_forbidden(seq, field)
    shown = "none" if not hits else "; ".join(str(h) for h in hits)
    print(f"epr: {coarse} / sepr: {seq} / forbidden windows: {shown}")
    return 0 if not hits else VERIFICATION_FAILURE


def cmd_classify(args) -> int:
    field = Field.parse(args.field)
    pattern = parse_sequence(args.sequence)
    if len(pattern) not in (2, 3):
        print(
            f"error: classification supports orders 2 and 3, got {len(pattern)}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    verdict = classify_sequence(pattern, field)
    if verdict.forbidden:
        print(f"FORBIDDEN ({field.human}): {verdict.rule}")
    else:
        print(f"NOT FORBIDDEN ({field.human})")
    return 0


def cmd_enumerate(args) -> int:
    field = Field.parse(args.field)
    if args.epr:
        if args.order != 3:
            print("error: coarse-level sets are available for order 3", file=sys.stderr)
            return USAGE_ERROR
        patterns = sorted(epr_forbidden_order3(field), key=str)
    elif args.order == 2:
        patterns = sorted(forbidden_order2(field), key=str)
    else:
        patterns = sorted(forbidden_order3(field), key=str)
    for p in patterns:
        print(p)
    return 0


def cmd_catalog(args) -> int:
    if args.action != "verify":
        print(f"error: unknown catalog action {args.action!r}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report = verify_all(family=args.family, witness_id=args.id)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    for line in report.lines():
        print(line)
    print(report.summary())
    if not report.all_ok:
        for wid, claimed, computed, ok in report.rows:
            if not ok:
                print(f"mismatch: {wid} claimed {claimed} computed {computed}", file=sys.stderr)
        return VERIFICATION_FAILURE
    return 0


def _parse_order_spec(text: str):
    """``--order-n`` value: N, or LO:HI for a range of orders."""
    try:
        orders = tuple(int(part) for part in text.split(":", 1))
    except ValueError:
        raise ValueError(f"--order-n: expected N or LO:HI, got {text!r}") from None
    if min(orders) < 1:
        raise ValueError(f"--order-n: expected orders ≥ 1, got {text!r}")
    if orders[0] > orders[-1]:
        raise ValueError(f"--order-n: expected LO ≤ HI, got {text!r}")
    return orders if len(orders) == 2 else orders[0]


def cmd_search(args) -> int:
    field = Field.parse(args.field)
    if args.census:
        if args.order is None:
            print("error: --census needs --order 2 or 3", file=sys.stderr)
            return USAGE_ERROR
        for flag, given in (
            ("--target", args.target is not None),
            ("--order-n", args.order_n is not None),
            ("--mode", args.mode is not None),
            ("--subsequence", args.subsequence),
            ("--pool", args.pool is not None),
            ("--budget", args.budget is not None),
        ):
            if given:
                print(f"error: {flag} does not apply to --census", file=sys.stderr)
                return USAGE_ERROR
        # --seed is accepted and ignored: the census draws no random matrix
        report = attainability_census(args.order, field)
        for line in report.lines():
            print(line)
        print(report.summary(), file=sys.stderr)
        if report.violations:
            for v in report.violations:
                print(f"violation: {v}", file=sys.stderr)
            return VERIFICATION_FAILURE
        return 0
    if args.order is not None:
        print("error: --order applies only to --census", file=sys.stderr)
        return USAGE_ERROR
    if args.target is None:
        print("error: search needs --target SEQ (or --census)", file=sys.stderr)
        return USAGE_ERROR
    target = parse_sequence(args.target)
    if args.order_n is None:
        print("error: search needs --order-n", file=sys.stderr)
        return USAGE_ERROR
    cfg = SearchConfig(
        n=_parse_order_spec(args.order_n),
        pool=parse_pool(args.pool or "default", field),
        field=field,
        target=target,
        mode=args.mode or "random",
        budget=10000 if args.budget is None else args.budget,
        seed=args.seed,
        subsequence=args.subsequence,
    )
    hit = find_witness(cfg)
    if hit is None:
        print(f"not-found\tbudget={cfg.budget}")
        return VERIFICATION_FAILURE
    print(f"found\t{hit.sepr}\t{hit.position}")
    print(matrix_to_json(hit.matrix))
    return 0


def cmd_properties(args) -> int:
    for flag, value in (("--samples", args.samples), ("--max-n", args.max_n)):
        if value is not None and value < 1:
            print(f"error: {flag}: expected an integer ≥ 1, got {value}", file=sys.stderr)
            return USAGE_ERROR
    if args.max_n is not None and (args.order_n is not None or args.mode == "exhaustive"):
        print("error: --max-n applies only to random mode without --order-n", file=sys.stderr)
        return USAGE_ERROR
    field = Field.parse(args.field)
    pool = parse_pool(args.pool, field)
    if args.mode == "exhaustive":
        if args.order_n is None:
            print("error: exhaustive mode needs --order-n", file=sys.stderr)
            return USAGE_ERROR
        n = _parse_order_spec(args.order_n)
    else:
        n = (1, args.max_n or 6) if args.order_n is None else _parse_order_spec(args.order_n)
    cfg = SearchConfig(
        n=n,
        pool=pool,
        field=field,
        mode=args.mode,
        budget=args.samples,
        seed=args.seed,
    )
    report = hunt_counterexamples(cfg)
    for line in report.lines():
        print(line)
    print(report.summary(), file=sys.stderr)
    return 0 if report.clean else VERIFICATION_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every later
    one; callers share it, so they must not add to or change it."""
    parser = argparse.ArgumentParser(
        prog="seprkit",
        description="Exact sign patterns of principal minors of Hermitian matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="sequences and forbidden-window scan of a matrix file")
    p.add_argument("file", help="matrix JSON document")
    p.add_argument("--field", default="auto", help="auto (default), hermitian, or real")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("classify", help="is a length-2/3 pattern forbidden?")
    p.add_argument("sequence", help="pattern text, e.g. \"NA+A*\"")
    _field_arg(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate-forbidden", help="print a forbidden set, sorted")
    p.add_argument("--order", type=int, choices=(2, 3), required=True)
    _field_arg(p)
    p.add_argument("--epr", action="store_true", help="coarse three-letter level")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("catalog", help="witness catalog operations")
    p.add_argument("action", choices=("verify",))
    p.add_argument("--family", default=None)
    p.add_argument("--id", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("search", help="find witnesses / attainability census")
    p.add_argument("--target", default=None, help="target pattern text")
    p.add_argument("--census", action="store_true", help="attainability census mode")
    p.add_argument("--order", type=int, choices=(2, 3), default=None, help="census pattern order")
    p.add_argument("--order-n", default=None, help="matrix order, N or LO:HI")
    _field_arg(p)
    p.add_argument("--pool", default=None, help="comma-separated entries, or default (the default)/real-default/complex-default")
    p.add_argument("--mode", choices=("random", "exhaustive"), default=None, help="random (default) or exhaustive")
    p.add_argument("--budget", type=int, default=None, help="samples to try (default 10000)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random-mode seed; a census ignores it")
    p.add_argument("--subsequence", action="store_true", help="match as a window instead of the full sequence")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("properties", help="randomized property suite / counterexample hunt")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--max-n", type=int, default=None, help="largest random order, 1:K (default 6)")
    p.add_argument("--order-n", default=None, help="fix the matrix order (or LO:HI)")
    _field_arg(p)
    p.add_argument("--pool", default="default")
    p.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_properties)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        # a path that cannot be read (missing, a directory, no permission)
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
