"""`cubeharm basis`: a harmonic or polyharmonic basis, one polynomial a line
or as a JSON list."""

from __future__ import annotations

from ._cli_common import _emit
from .poly import poly_to_text


def run(args) -> int:
    from .kernel import BasisRequest, graded_basis

    request = BasisRequest(n=args.n, max_degree=args.deg, m=args.m)
    basis = graded_basis(request)
    lines = [poly_to_text(p) for p in basis.elements]
    if args.format == "json":
        import json

        data = json.dumps(lines, indent=2) + "\n"
    else:
        data = "".join(line + "\n" for line in lines)
    _emit(args, data)
    return 0
