"""`cubeharm approx`: a one-sided approximation certificate as JSON."""

from __future__ import annotations

import json

from ._cli_common import _domain, _emit, _input_limits
from .poly import rational_to_text


def run(args) -> int:
    d = _domain(args)
    limits = _input_limits(args)
    from .parser import ExprSource, parse_poly, parse_unipoly

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
