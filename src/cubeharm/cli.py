"""Command-line front door.

Subcommands map one-to-one onto library capabilities:

  verify      run identity suites over generated bases or a given polynomial
  basis       emit harmonic / polyharmonic bases
  integrate   one exact integral, printed as "p/q"
  approx      one-sided approximation certificate as JSON
  crosscheck  exact engine vs quadrature oracle, prints max relative deviation
  grid        CSV samples of f, h, f-h for external plotting

Exit codes are a stable contract: 0 all good, 1 usage or input error,
2 verification failure (a nonzero residual, or a crosscheck above --tol).
Reports are written atomically (temp file + rename; a device or FIFO is
written in place) and are byte-identical for identical configurations.  All
rationals in output are "p/q" strings; the only floats are crosscheck
deviations and grid samples, printed with 17 significant digits.

Start-up dominates a CLI process, so this module loads only the parser and
the polynomial layer, and a `cmd_*` function imports the rest when it needs
them.  The value classes are hand-written __slots__ classes, so no process
imports `inspect` or execs generated class source at start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import operator
import os
import random
import sys
import tempfile
from fractions import Fraction
from typing import TYPE_CHECKING

from .parser import ExprSource, ExprSyntaxError, parse_poly, parse_unipoly
from .poly import MAX_DIGITS, Limits, Poly, lattice_terms, poly_to_text, rational_to_text

if TYPE_CHECKING:
    from .integrate import CubeDomain

# Work `grid` may do, in term evaluations: every point evaluates each term of
# f and h and writes a CSV row that counts as two more.  On the integer
# lattice a term costs about 0.1-0.4 us a point and a row about 6 us, so a
# unit costs at most about 2 us (f = x1, h = 0, where rows dominate).  This
# is at most about 3.5 s of work and 530,000 rows (about 85 bytes each) of
# CSV, and admits a dense degree-16 f at the default --res.  Rows are
# written as they are made and one x1 row of values is held at a time.
MAX_GRID_TERM_EVALS = 1_600_000

# Work `crosscheck` may do, in units of about 0.2-0.5 us.  One integral of
# a polynomial of degree deg in dimension n (up to 10 random terms) costs
# about 300 + n^3 + 5 q deg units at q points per axis: a fixed part, cell
# sums that grow as n^3 and one-dimensional tables that grow as q deg; a
# power weight u^k/k! adds q k (about 3 ms an integral at k = 1000, q = 24).
# Each polynomial takes 1 + 2 len(--k) integrals.  Measured with 10 terms: n = 112
# at degree 6 with --k 0,1,2 took 2.4 s (9.8 M units), n = 2 at degree
# 27,000 with --k 0 took 3.7 s (9.7 M units), n = 2 at degree 2600 with
# --k 0 and q = 256 took 1.2 s (10.0 M units), and 300 random polynomials
# at n = 2, degree 0 and --k 0 took 0.35 ms each (0.9 K units).  So this is
# at most about 4 s of work.
MAX_CROSSCHECK_WORK = 10_000_000

# Largest degree limit `verify` parses --poly and --phi with (--deg above 16
# raises the limit to it).  A power costs one polynomial product per unit of
# its exponent, and the suite computes a radial factor, with factorials of
# the degree, per degree of the input and per coefficient of a profile.
# Measured as whole processes at degree 100: `--n 8 --poly (1+x1+x2)^100`
# (5151 terms) took 4.0 s, and the quadrature profile t^2 (1+t)^98 against
# (1+x1)^100 took 1.0 s, but 32 s at degree 200.  So this is at most about
# 4 s of work for one expression and one profile.
MAX_VERIFY_DEGREE = 100

# The largest weight profile degree that --k (u^k/k!, u^(k+1)/(k+1)! on a
# volume mean's diagonal) or --m (t^(2m+j)/(2m+j)!, j <= 2) may ask for, and
# the most integrals `verify` may evaluate: per basis element (a monomial of
# degree <= --deg, or --poly) 2 for a surface mean and per --k value or
# quadrature profile, and m + 1 per Pizzetti profile.  Values carry factorials
# of the degree: `integrate --n 2 --region cube --poly 1 --k 1000` prints 2,576
# bytes, and near k = 1600 passes the 4300 digits Python prints.  As whole
# processes, `verify --n 2 --deg 8 --identities pizzetti --m 499` (67,500
# integrals) took 2.3 s and `verify --n 8 --deg 6 --k 0,1,...,19` (126,000
# integrals, a 10 MB report) 0.55 s.
MAX_WEIGHT_DEGREE = 1000
MAX_VERIFY_INTEGRALS = 200_000

# Largest --n for the commands that take a cube.  Exact values grow with the
# dimension: `integrate --region diagonal --poly x1^2` prints 614 bytes at
# n = 2000 and r = 1, and 3,703 bytes at r = 7/5.  Python refuses to print
# an integer of more than 4300 digits, which that integral passes near
# n = 14,260 at r = 1 and n = 3,745 at r = 7/5.
MAX_DIM = 2000

# `verify` and `approx` print r, so its numerator and denominator must have
# at most MAX_DIGITS digits, as every printed exact value must.  The exact
# values of `verify` and `integrate` carry powers of r up to
# r^(n + degree limit + largest weight degree), and a value costs more than
# its bits (a gcd of such numbers normalises each Fraction).  As whole
# processes, `verify --n 2000 --poly x1^2-x2^2 --identities surface,volume
# --k 0` (r^2032) took 2.0 s at --r 1e400 (2.7 M bits), 3.3 s at 1e592
# (4.0 M bits), 5.6 s at 1e800 and 10 s at 1e1200.  So such a request takes
# at most about 4 s; the bound is per value, so one with many weight profiles
# or degrees takes a multiple of that.  `approx`, `grid` and `crosscheck` are
# bound by the digit limit, their grid and the float range.
MAX_RADIUS_POWER_BITS = 4_000_000

# Characters of a job file; a job is a few hundred.
MAX_JOB_CHARS = 1_000_000

# --identities token -> name of its identities.Identity member
_IDENTITY_TOKENS = {
    "surface": "SURFACE_MEAN",
    "volume": "VOLUME_MEAN",
    "quadrature": "WEIGHTED_QUADRATURE",
    "pizzetti": "PIZZETTI",
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve 2
        raise UsageError(message)


def _parse_radius(text: str) -> Fraction:
    """r, refused when its numerator or denominator has more than
    MAX_DIGITS digits.  Fraction("1e<k>") builds 10**k first, so an
    exponent that puts every nonzero r past the limit (each part of the
    mantissa has at most MAX_DIGITS digits) is refused before it is built."""
    _, e, exponent = text.lower().rpartition("e")
    too_long = False
    with contextlib.suppress(ValueError):  # no integer exponent: Fraction decides
        too_long = bool(e) and abs(int(exponent)) > 3 * MAX_DIGITS
    if not too_long:
        try:
            r = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"not a rational: {text!r} ({exc})")
        too_long = max(abs(r.numerator), r.denominator) >= 10**MAX_DIGITS
    if too_long:
        raise UsageError(
            f"radius has more than {MAX_DIGITS} digits in its numerator or denominator"
        )
    return r


def _check_radius_power(d: CubeDomain, degree: int) -> None:
    bits = max(d.r.numerator.bit_length(), d.r.denominator.bit_length()) * degree
    if bits > MAX_RADIUS_POWER_BITS:
        raise UsageError(
            f"r^{degree} at this radius has about {bits} bits, "
            f"above the limit of {MAX_RADIUS_POWER_BITS}"
        )


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")
    if min(ks) < 0:
        raise UsageError("weight exponents must be >= 0")
    return ks


def _check_weight_degree(flag: str, value: int, degree: int) -> int:
    if degree > MAX_WEIGHT_DEGREE:
        raise UsageError(
            f"{flag} {value} asks for a weight profile of degree {degree}, "
            f"above the limit of {MAX_WEIGHT_DEGREE}"
        )
    return degree


def _domain(args) -> CubeDomain:
    r = _parse_radius(args.r)
    if args.n > MAX_DIM:
        raise UsageError(f"dimension must be <= {MAX_DIM}, got {args.n}")
    from .integrate import CubeDomain

    return CubeDomain(args.n, r)


def _input_limits(args) -> Limits:
    # The CLI's own arguments are the escape hatch past the desk defaults.
    deg = getattr(args, "deg", None) or 0
    return Limits(max_dim=max(8, args.n), max_degree=max(16, deg))


@contextlib.contextmanager
def _write_atomic(path: str):
    """A file to write to that replaces `path` only once the block ends
    without error; on an error it is removed and `path` is left as it was.
    A `path` that exists and is not a regular file (a device or a FIFO) is
    written in place, never replaced."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            yield fh
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cubeharm-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _output(args):
    """Where a command writes: the --out path (atomically) or stdout."""
    if getattr(args, "out", None):
        return _write_atomic(args.out)
    return contextlib.nullcontext(sys.stdout)


def _emit(args, data: str) -> None:
    with _output(args) as fh:
        fh.write(data)


def _float17(x: float) -> str:
    return format(x, ".17g")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# job file field -> (what its JSON value must be, check)
_JOB_FIELDS = {
    "n": ("an integer", _is_int),
    "r": ("a rational string or a number", lambda v: isinstance(v, (str, float)) or _is_int(v)),
    "deg": ("an integer", _is_int),
    "k": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "m": ("an integer", _is_int),
    "identities": ("a list of strings", _is_str_list),
    "phi": ("a list of strings", _is_str_list),
    "poly": ("a string", lambda v: isinstance(v, str)),
    "format": ('"json" or "csv"', lambda v: v in ("json", "csv")),
    "out": ("a string", lambda v: isinstance(v, str)),
}


def _load_job(args) -> None:
    """Fill the verify namespace from a JSON job file.

    The file is the whole configuration: {"n": 2, "r": "1/1", "deg": 8,
    "k": [0, 1], "m": 1, "identities": ["surface"], "phi": ["t^2/2"],
    "poly": "x1^2", "format": "json", "out": "report.json"}.  Unknown keys
    are rejected so typos fail loudly, and so is a value of the wrong JSON
    type.  A file of more than MAX_JOB_CHARS characters, or one nested
    deeper than the JSON reader recurses, cannot be read.
    """
    try:
        with open(args.job) as fh:
            text = fh.read(MAX_JOB_CHARS + 1)  # a device such as /dev/zero never ends
        if len(text) > MAX_JOB_CHARS:
            raise ValueError(f"more than {MAX_JOB_CHARS} characters")
        payload = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise UsageError(f"cannot read job file {args.job!r}: {exc}")
    if not isinstance(payload, dict):
        raise UsageError("job file must hold a JSON object")
    unknown = set(payload) - set(_JOB_FIELDS)
    if unknown:
        raise UsageError(f"unknown job file fields: {sorted(unknown)}")
    for name, value in payload.items():
        expected, valid = _JOB_FIELDS[name]
        if not valid(value):
            raise UsageError(f"job file field {name!r} must be {expected}, got {json.dumps(value)}")
        if name in ("k", "identities"):
            value = ",".join(str(v) for v in value)
        elif name == "r":
            value = str(value)
        setattr(args, name, value)


def cmd_verify(args) -> int:
    if args.job:
        _load_job(args)
    if args.n is None:
        raise UsageError("--n is required (as a flag or a job file field)")
    d = _domain(args)
    names = []
    for token in args.identities.split(","):
        token = token.strip()
        if token not in _IDENTITY_TOKENS:
            raise UsageError(
                f"unknown identity {token!r}; choose from {','.join(_IDENTITY_TOKENS)}"
            )
        names.append(_IDENTITY_TOKENS[token])
    ks = _parse_exponents(args.k)
    limits = _input_limits(args)
    if (args.poly or args.phi) and limits.max_degree > MAX_VERIFY_DEGREE:
        # checked before parsing: a power costs one product per unit of its exponent
        raise UsageError(
            f"--deg {args.deg} raises the degree limit of --poly and --phi to {limits.max_degree}, "
            f"above the limit of {MAX_VERIFY_DEGREE}"
        )
    from .identities import Identity, SuiteConfig, run_suite
    from .kernel import BasisRequest, graded_basis

    request = BasisRequest(n=args.n, max_degree=args.deg, m=args.m)
    if not args.poly:
        request.validate(limits)  # bounds the monomial count below
    # the degree limit also bounds a --phi profile and the default quadrature ones
    weight_degree = limits.max_degree
    if "VOLUME_MEAN" in names:
        weight_degree = max(weight_degree, _check_weight_degree("--k", max(ks), max(ks) + 1))
    if "PIZZETTI" in names and not args.phi:
        weight_degree = max(weight_degree, _check_weight_degree("--m", args.m, 2 * args.m + 2))
    profiles = len(args.phi or ())  # else 5 default quadrature and 3 Pizzetti ones
    per_element = {
        "SURFACE_MEAN": 2,
        "VOLUME_MEAN": 2 * len(ks),
        "WEIGHTED_QUADRATURE": 2 * (profiles or 5),
        "PIZZETTI": (args.m + 1) * (profiles or 3),
    }
    elements = 1 if args.poly else math.comb(args.n + args.deg, args.deg)
    integrals = elements * sum(per_element[name] for name in names)
    if integrals > MAX_VERIFY_INTEGRALS:
        raise UsageError(
            f"verify takes {integrals} integrals, above the limit of {MAX_VERIFY_INTEGRALS}"
        )
    _check_radius_power(d, args.n + limits.max_degree + weight_degree)
    phis = tuple(parse_unipoly(text, limits=limits) for text in args.phi) if args.phi else None
    identities = [Identity[name] for name in names]
    config = SuiteConfig(ks=ks, m=args.m, phis=phis)
    if args.poly:
        p = parse_poly(ExprSource(args.poly, expected_dim=args.n), limits=limits)
        report = run_suite([("user[0]", p)], d, identities, config)
    else:
        report = run_suite(graded_basis(request, limits), d, identities, config)
    data = report.to_csv() if args.format == "csv" else report.to_json()
    _emit(args, data)
    return 0 if report.all_pass else 2


def cmd_basis(args) -> int:
    from .kernel import BasisRequest, graded_basis

    request = BasisRequest(n=args.n, max_degree=args.deg, m=args.m)
    basis = graded_basis(request, limits=_input_limits(args))
    lines = [poly_to_text(p) for p in basis.elements]
    if args.format == "json":
        data = json.dumps(lines, indent=2) + "\n"
    else:
        data = "".join(line + "\n" for line in lines)
    _emit(args, data)
    return 0


def cmd_integrate(args) -> int:
    d = _domain(args)
    if args.phi is None:
        _check_weight_degree("--k", args.k, args.k)
    limits = _input_limits(args)
    p = parse_poly(ExprSource(args.poly, expected_dim=args.n), limits=limits)
    from .integrate import Weight, integrate_boundary, integrate_cube, integrate_diagonal

    if args.phi is not None:
        weight = Weight.from_profile(parse_unipoly(args.phi))
    else:
        weight = Weight.power(args.k)
    _check_radius_power(d, args.n + limits.max_degree + weight.profile.degree)
    region = args.region
    if region == "cube":
        value = integrate_cube(p, d, weight)
    elif region == "diagonal":
        value = integrate_diagonal(p, d, weight)
    else:
        if args.phi is not None or args.k != 0:
            raise UsageError("boundary integrals are unweighted; drop --k/--phi")
        value = integrate_boundary(p, d)
    _emit(args, rational_to_text(value) + "\n")
    return 0


def cmd_approx(args) -> int:
    d = _domain(args)
    limits = _input_limits(args)
    f = parse_poly(ExprSource(args.f, expected_dim=args.n), limits=limits)
    h = parse_poly(ExprSource(args.h, expected_dim=args.n), limits=limits)
    from .onesided import certify_best_approx

    cert = certify_best_approx(f, h, d, grid_points_per_axis=args.grid)
    payload = cert.to_dict()
    if args.phi is not None:
        phi = parse_unipoly(args.phi)
        payload["phi"] = args.phi
        payload["weighted_l1_error"] = rational_to_text(cert.weighted_l1_error(phi))
    data = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _emit(args, data)
    return 0


def cmd_crosscheck(args) -> int:
    d = _domain(args)
    ks = _parse_exponents(args.k)
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    limits = _input_limits(args)
    if args.poly:
        count, deg = 1, limits.max_degree
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
        polys = [parse_poly(ExprSource(args.poly, expected_dim=args.n), limits=limits)]
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
        # the oracle and the deviation work in floats; the exact engine does not
        raise UsageError(f"crosscheck values at radius {args.r} leave the float range")
    sys.stdout.write(_float17(worst) + "\n")
    if args.tol is not None and worst > args.tol:
        return 2
    return 0


def cmd_grid(args) -> int:
    if args.n != 2:
        raise UsageError("grid emission is implemented for n == 2 surfaces")
    d = _domain(args)
    limits = _input_limits(args)
    f = parse_poly(ExprSource(args.f, expected_dim=2), limits=limits)
    h = parse_poly(ExprSource(args.h, expected_dim=2), limits=limits)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubeharm", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_required=True):
        p.add_argument("--n", type=int, required=n_required, help="ambient dimension")
        p.add_argument("--r", default="1", help='cube radius as a rational "p/q"')
        p.add_argument("--out", help="write output to this path (atomic)")

    p = sub.add_parser("verify", help="run identity suites")
    common(p, n_required=False)
    p.add_argument("--job", help="JSON job file holding the whole configuration")
    p.add_argument("--deg", type=int, default=8, help="max basis degree")
    p.add_argument("--k", default="0,1,2,3", help="weight exponents, comma separated")
    p.add_argument("--m", type=int, default=1, help="polyharmonic order")
    p.add_argument(
        "--identities",
        default="surface,volume",
        help="comma separated: surface,volume,quadrature,pizzetti",
    )
    p.add_argument("--phi", action="append", help="weight profile in t (repeatable)")
    p.add_argument("--poly", help="verify this polynomial instead of a generated basis")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", help="emit harmonic / polyharmonic bases")
    common(p)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("integrate", help="one exact integral")
    common(p)
    p.add_argument("--region", choices=("cube", "boundary", "diagonal"), required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--phi", help="weight profile in t (overrides --k)")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("approx", help="one-sided approximation certificate")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--phi", help="also report the weighted error for this profile")
    p.add_argument("--grid", type=int, default=41, help="heuristic grid points per axis")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("crosscheck", help="exact engine vs quadrature oracle")
    common(p)
    p.add_argument("--poly", help="check this polynomial")
    p.add_argument("--count", type=int, default=20, help="random polynomials to check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deg", type=int, default=6)
    p.add_argument("--k", default="0,1,2")
    p.add_argument("--points-per-axis", type=int, default=24)
    p.add_argument("--tol", type=float, help="exit 2 when the deviation exceeds this")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("grid", help="CSV samples of f, h, f-h")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--h", default="0")
    p.add_argument("--res", type=int, default=101, help="points per axis")
    p.set_defaults(func=cmd_grid)

    return parser


def _join_flag_values(argv: list[str]) -> list[str]:
    """Join "--f" "-1/4*x1^4" into "--f=-1/4*x1^4": every option takes a value
    and none is short, so a token with one leading "-" after a "--flag"
    without "=" is that flag's value, which argparse would take for an option."""
    out: list[str] = []
    for tok in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_flag_values(argv)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ExprSyntaxError as exc:
        print(f"error: invalid expression {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
