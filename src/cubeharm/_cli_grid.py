"""`cubeharm grid`: CSV samples of f, h and f - h on a square grid."""

from __future__ import annotations

import csv
import math
import operator
import sys

from ._cli_common import UsageError, _domain, _float17, _output, _parse_input
from .poly import lattice_terms

# Work `grid` may do, in term evaluations: every point evaluates each term of
# f and h and writes a CSV row that counts as two more.  On the integer
# lattice a term costs about 0.1-0.4 us a point and a row about 6 us, so a
# unit costs at most about 2 us (f = x1, h = 0, where rows dominate).  This
# is at most about 3.5 s of work and 530,000 rows (about 85 bytes each) of
# CSV, and admits a dense degree-16 f at the default --res.  Rows are
# written as they are made and one x1 row of values is held at a time.
MAX_GRID_TERM_EVALS = 1_600_000


def run(args) -> int:
    if args.n != 2:
        raise UsageError("grid emission is implemented for n == 2 surfaces")
    d = _domain(args)
    f = _parse_input(args, args.f)
    h = _parse_input(args, args.h)
    res = args.res
    if res < 1:
        raise UsageError(f"grid resolution must be >= 1, got {res}")
    per_point = len(f.terms) + len(h.terms) + 2
    if res * res * per_point > MAX_GRID_TERM_EVALS:
        raise UsageError(
            f"grid resolution {res} gives {res * res} points of {per_point} term evaluations "
            f"each, above the limit of {MAX_GRID_TERM_EVALS} in all"
        )
    # every sample and value is at most r, or sum |c| r^|alpha| over the
    # terms of f and h, in absolute value; refused before any row is written
    bound = sum(abs(c) * d.r ** sum(e) for p in (f, h) for e, c in p.terms.items())
    if max(d.r, bound) > sys.float_info.max:
        raise UsageError(f"grid values at radius {args.r} may leave the float range")
    # the samples are step * m for integer m (res == 1 samples only m = 0),
    # so f and h are integer polynomials over one common denominator there
    step = d.r / max(res - 1, 1)
    ms = range(1 - res, res, 2)
    f_ints, f_denom = lattice_terms(f, step)
    h_ints, h_denom = lattice_terms(h, step)
    denom = math.lcm(f_denom, h_denom)
    top = max((max(exps) for exps in (*f_ints, *h_ints)), default=0)
    powers = [[m**e for m in ms] for e in range(top + 1)]

    def rows(ints: dict[tuple[int, ...], int], own_denom: int):
        # the values P(m1, m2) * denom / own_denom, one x1 row at a time
        scale = denom // own_denom
        for i in range(res):
            coeffs: dict[int, int] = {}
            for (e1, e2), c in ints.items():
                coeffs[e2] = coeffs.get(e2, 0) + c * scale * powers[e1][i]
            row = [0] * res
            for e2, c in coeffs.items():
                row = list(map(operator.add, row, map(c.__mul__, powers[e2])))
            yield row

    # int / int is correctly rounded, as float() of the exact Fraction is
    labels = [_float17(float(step * m)) for m in ms]
    with _output(args) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "f", "h", "f_minus_h"])
        for x1, f_row, h_row in zip(labels, rows(f_ints, f_denom), rows(h_ints, h_denom)):
            writer.writerows(
                [x1, x2, _float17(fv / denom), _float17(hv / denom), _float17((fv - hv) / denom)]
                for x2, fv, hv in zip(labels, f_row, h_row)
            )
    return 0
