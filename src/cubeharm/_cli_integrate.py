"""`cubeharm integrate`: one exact integral, printed as "p/q"."""

from __future__ import annotations

from ._cli_common import (
    UsageError,
    _check_radius_power,
    _check_weight_degree,
    _degree_limit,
    _domain,
    _emit,
    _parse_input,
)
from .poly import rational_to_text


def run(args) -> int:
    d = _domain(args)
    if args.phi is None:
        _check_weight_degree("--k", args.k, args.k)
    p = _parse_input(args, args.poly)
    from .integrate import Weight, integrate_boundary, integrate_cube, integrate_diagonal

    if args.phi is not None:
        weight = _parse_input(args, args.phi, profile=True)
    else:
        weight = Weight.power(args.k)
    _check_radius_power(d, args.n + _degree_limit(args) + weight.degree)
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
