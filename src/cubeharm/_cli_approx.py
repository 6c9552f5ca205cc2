"""`cubeharm approx`: a one-sided approximation certificate as JSON."""

from __future__ import annotations

import json

from ._cli_common import _domain, _emit, _parse_input
from .poly import rational_to_text


def run(args) -> int:
    d = _domain(args)
    f = _parse_input(args, args.f)
    h = _parse_input(args, args.h)
    from .onesided import certify_best_approx

    cert = certify_best_approx(f, h, d, grid_points_per_axis=args.grid)
    payload = cert.to_dict()
    if args.phi is not None:
        phi = _parse_input(args, args.phi, profile=True)
        payload["phi"] = args.phi
        payload["weighted_l1_error"] = rational_to_text(cert.weighted_l1_error(phi))
    data = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _emit(args, data)
    return 0
