"""`cubeharm crosscheck`: the exact engine against the quadrature oracle;
prints the largest deviation."""

from __future__ import annotations

import math
import random

from ._cli_common import (
    UsageError,
    _check_weight_degree,
    _degree_limit,
    _domain,
    _emit,
    _float17,
    _parse_exponents,
    _parse_input,
)

# Work `crosscheck` may do, in units of about 0.2-0.5 us.  One integral of
# a polynomial of degree deg in dimension n (up to 10 random terms) costs
# about 300 + n^3 + 5 q deg units at q points per axis: a fixed part, cell
# sums that grow as n^3 and one-dimensional tables that grow as q deg; a
# power weight u^k/k! adds q k (about 3 ms an integral at k = 1000, q = 24).
# Each polynomial takes 1 + 2 len(--k) integrals, which share its degree
# sums.  Re-timed at the default --seed 0 (7 terms each) as whole processes
# on a 2-core x86_64 VM: n = 112 at degree 6 with --k 0,1,2 took 0.12-0.15 s
# (9.8 M units), n = 2 at degree 27,000 with --k 0 0.13-0.14 s (9.7 M
# units), n = 2 at degree 2600 with --k 0 and q = 256 0.18-0.20 s (10.0 M
# units), and 300 random polynomials at n = 2, degree 0 and --k 0 took
# 0.13-0.20 ms each in process (0.9 K units).  The slowest request found
# under the budget, --k 0,1,...,600 at n = 2 and degree 0 (9.0 M units),
# took 0.8-0.9 s in process.  So this is well under 4 s of work.
MAX_CROSSCHECK_WORK = 10_000_000


def run(args) -> int:
    d = _domain(args)
    ks = _parse_exponents(args.k)
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    if args.tol is not None and not args.tol >= 0:  # a NaN compares false with any deviation
        raise UsageError(f"--tol must be >= 0, got {args.tol}")
    if args.poly:
        count, deg = 1, _degree_limit(args)
    else:
        if args.deg < 0:
            raise UsageError(f"--deg must be >= 0, got {args.deg}")
        count, deg = args.count, args.deg
    _check_weight_degree("--k", max(ks), max(ks))
    q = args.points_per_axis
    work = count * ((1 + 2 * len(ks)) * (300 + args.n**3 + 5 * q * deg) + 2 * q * sum(ks))
    if work > MAX_CROSSCHECK_WORK:
        raise UsageError(
            f"crosscheck of {count} polynomials of degree up to {deg} in dimension {args.n} "
            f"with {len(ks)} weight exponents at {q} points per axis costs {work} work "
            f"units, above the limit of {MAX_CROSSCHECK_WORK}"
        )
    from .integrate import Weight, integrate_boundary, integrate_cube, integrate_diagonal
    from .oracle import (
        QuadratureSpec,
        numeric_integrate_boundary,
        numeric_integrate_cube_many,
        numeric_integrate_diagonal_many,
    )

    spec = QuadratureSpec(points_per_axis=q)
    if args.poly:
        polys = [_parse_input(args, args.poly)]
    else:
        from .sampling import random_poly

        rng = random.Random(args.seed)
        polys = [random_poly(rng, args.n, max_degree=deg) for _ in range(count)]
    weights = [Weight.power(k) for k in ks]
    worst = 0.0
    try:
        for p in polys:
            pairs = [(integrate_boundary(p, d), numeric_integrate_boundary(p, d, spec))]
            cube = numeric_integrate_cube_many(p, d, weights, spec)
            diagonal = numeric_integrate_diagonal_many(p, d, weights, spec)
            for w, c, g in zip(weights, cube, diagonal):
                pairs.append((integrate_cube(p, d, w), c))
                pairs.append((integrate_diagonal(p, d, w), g))
            for exact, numeric in pairs:
                if not math.isfinite(numeric):  # an oracle product overflowed
                    raise OverflowError
                dev = abs(float(exact) - numeric) / max(1.0, abs(float(exact)))
                worst = max(worst, dev)
    except OverflowError:
        # the oracle and the deviation work in floats; the exact engine does
        # not.  The oracle reads only terms even on every axis.
        from .poly import _term_to_text

        for p in polys:
            for alpha, c in p.sorted_terms():
                if any(e % 2 for e in alpha):
                    continue
                try:
                    float(c)  # as the oracle reads it
                except OverflowError:
                    term = _term_to_text(alpha, 1).partition("*")[2] or "1"
                    raise UsageError(f"crosscheck coefficient of {term} leaves the float range")
        raise UsageError(f"crosscheck values at radius {args.r} leave the float range")
    _emit(args, _float17(worst) + "\n")
    return 2 if args.tol is not None and worst > args.tol else 0
