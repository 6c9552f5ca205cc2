"""Seeded random polynomial generation for cross-checks and fuzzing."""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import Poly


def random_poly(
    rng: random.Random,
    dim: int,
    max_degree: int = 6,
    max_terms: int = 10,
) -> Poly:
    """A random sparse polynomial whose terms have coefficients p/q with
    |p| <= 10 and 1 <= q <= 10."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        remaining = rng.randint(0, max_degree)
        exps = []
        for axis in range(dim - 1):
            e = rng.randint(0, remaining)
            exps.append(e)
            remaining -= e
        exps.append(remaining)
        rng.shuffle(exps)
        coeff = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return Poly(dim, terms)
