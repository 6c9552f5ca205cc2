"""What the CLI's subcommand handlers share: the usage error, the cube and
its radius, the parsing of input expressions, the budgets of more than one
command, and where output goes.

`cli` runs as `__main__` under `python -m cubeharm.cli`, so a handler that
imported from `.cli` would load and compile it a second time; the handlers
and `cli` import from here instead.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
from fractions import Fraction
from typing import TYPE_CHECKING

from .poly import MAX_DIGITS

if TYPE_CHECKING:
    from .integrate import CubeDomain

# The largest weight profile degree that --k (u^k/k!, u^(k+1)/(k+1)! on a
# volume mean's diagonal) or --m (t^(2m+j)/(2m+j)!, j <= 2) may ask for.
# Values carry factorials of the degree: `integrate --n 2 --region cube
# --poly 1 --k 1000` prints 2,576 bytes, and near k = 1600 passes the 4300
# digits Python prints.
MAX_WEIGHT_DEGREE = 1000

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
# its bits: its products and the digits it prints grow with the power.  Each
# radial factor takes the power that grows with the dimension last, in
# Fraction products, so no Fraction normalises by a gcd of two numbers of
# that size, even when both of r's numerator and denominator are large.  As
# whole processes, `verify --n 2000 --poly x1^2-x2^2 --identities
# surface,volume --k 0` (r^2032) took 1.1 s at --r 1e400 (2.7 M bits),
# 2.0-2.1 s at 1e592 (4.0 M bits) and 2.3-2.4 s at (10^400+1)/(10^400-1);
# with the power inside each factor's one Fraction they took 1.7 s, 3.0 s
# and 30 s, and when this bound was set 5.6 s at 1e800 and 10 s at 1e1200.
# So such a request takes at most about 4 s; the bound is per value, and
# `verify` bounds the bits of all its values together as well.  `approx`, `grid` and `crosscheck` are bound by the digit
# limit, their grid and the float range.
MAX_RADIUS_POWER_BITS = 4_000_000


class UsageError(ValueError):
    pass


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


def _radius_bits(d: CubeDomain) -> int:
    return max(d.r.numerator.bit_length(), d.r.denominator.bit_length())


def _check_radius_power(d: CubeDomain, degree: int) -> None:
    bits = _radius_bits(d) * degree
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


def _degree_limit(args) -> int:
    """The largest degree of a parsed input: 16, or --deg where the command
    takes one and it is larger."""
    return max(16, getattr(args, "deg", None) or 0)


def _parse_input(args, text: str, profile: bool = False):
    """--poly, --f or --h as a polynomial in dimension --n, or a --phi
    profile in t, of degree at most _degree_limit(args)."""
    from . import parser

    if profile:
        return parser.parse_unipoly(text, max_degree=_degree_limit(args))
    source = parser.ExprSource(text, expected_dim=args.n)
    return parser.parse_poly(source, max_degree=_degree_limit(args))


@contextlib.contextmanager
def _write_atomic(path: str):
    """A file to write to that replaces `path` only once the block ends
    without error; on an error it is removed and `path` is left as it was.
    A `path` that exists and is not a regular file (a device or a FIFO) is
    written in place, never replaced.  An error in making the temp file or
    in moving it onto `path` names `path`, not the temp file's random name,
    so the message is the same on every run."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            yield fh
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cubeharm-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
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
