"""Polynomials on the integer lattice, in Python ints: the integer form of
p(step * m) for integer points m, and the values of a polynomial in the
last axis along one row of grid points.  The one-sided grid walk and the
`grid` command evaluate with them, so nothing there can overflow or round.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .poly import Exponent, Poly, _integer_terms


def lattice_terms(p: Poly, step: Fraction) -> tuple[dict[Exponent, int], int]:
    """p on the lattice x = step * m (integer m) as integers over one
    common denominator: the integer coefficients P and D > 0 with
    p(step * m) = P(m) / D for every integer point m.

    P's coefficients are c_alpha * step^|alpha| * D, and D is the least
    common denominator of the c_alpha * step^|alpha|.
    """
    return _integer_terms({exps: coeff * step ** sum(exps) for exps, coeff in p.terms.items()})


def lattice_row(terms: dict[Exponent, int], powers: list[list[int]]) -> list[int]:
    """The values sum_e c_e m_i^e of the last-axis terms {(e,): c_e} at
    every point m_i of a row, from the power table powers[e][i] = m_i^e."""
    row = [0] * len(powers[0])
    for (e,), c in terms.items():
        if c:
            row = list(map(operator.add, row, map(c.__mul__, powers[e])))
    return row
