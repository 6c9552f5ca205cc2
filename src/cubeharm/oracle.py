"""Independent floating-point oracle: Gauss-Legendre quadrature on the
argmax cells, summed by factorization.

This module cross-validates the exact engine through a separate code path.
It shares only the cell-decomposition geometry (split the cube at the argmax
coordinate, parametrize diagonal sheets by the tied value); all integral
values come from quadrature, never from the exact closed forms.

The max-based weight is only piecewise smooth on the whole cube, so naive
tensor quadrature would converge algebraically.  Splitting into argmax cells
restores smoothness: on each cell the integrand is a polynomial in the cell
coordinates, which an N-point rule integrates exactly (up to rounding) once
2N - 1 clears the degree.  With the default 24 points per axis, agreement
with the exact engine is limited only by float64 accumulation, comfortably
below 1e-9 relative for desk-scale inputs.

The rule is the tensor product of one radial rule in t = |x_i| and one box
rule per free axis, with the box [-t, t] mapped to [-1, 1].  On that product
grid a monomial separates, so its quadrature sum is a product of
one-dimensional sums (sum-factorization, as in spectral-element codes,
Orszag 1980, J. Comput. Phys. 37):

    box moments   M[e] = sum_q w_q s_q^e
    radial sums   R[e] = sum_t w_t t^(e + j) phi(r - t)

with j = n - 1 on the cube cells and n - 2 on the diagonal sheets (the
Jacobian of the box scaling).  A face is the third case of the same path:
it is the cube cell's end t = r, whose radial table is R[e] = r^(e + n - 1).
A cell with fixed axes S and signs sigma then sums to

    sum_alpha c_alpha * prod_(k in S) sigma_k^alpha_k * R[|alpha|]
                      * prod_(k not in S) M[alpha_k],

which is the tensor rule's value in exact arithmetic, at O(n q) work per
term instead of O(q^n), with no point grid and no pointwise evaluation.

Newton iteration on the Legendre recurrence finds the positive nodes; the
rule adds their mirror images (and 0 at odd sizes), so it is exactly
symmetric (Golub and Welsch 1969, Math. Comp. 23) and every odd box moment
is an exact zero.  Every sum over nodes, terms and cells is a math.fsum, a
correctly rounded sum of the same products in any term order, which makes
two savings exact:

- Only terms even on every axis are summed.  An odd free exponent has the
  box moment 0, and an odd fixed one gives +v and -v equally often, which
  cancel.  An even term gives 2^fixed equal copies of v per cell, which are
  one summand scaled by a power of two, itself exact.
- The one-dimensional tables are shared, and radial rows are built only
  for the degrees of the even terms, so no unread row can overflow.  The
  box moments are cached per (q, degree); one table of t^(e + j) serves
  every weight of a call, the same c * t^(e + j) floats either way.

The nodes and weights are Python floats, so the oracle needs no numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Sequence

from .integrate import CubeDomain
from .poly import Poly, UniPoly, Value, _set

MAX_POINTS_PER_AXIS = 256  # the Newton node build is O(q^2) in Python


class QuadratureSpec(Value):
    __slots__ = ("points_per_axis",)

    def __init__(self, points_per_axis: int = 24):
        if not 2 <= points_per_axis <= MAX_POINTS_PER_AXIS:
            raise ValueError(
                f"points_per_axis must be in [2, {MAX_POINTS_PER_AXIS}], got {points_per_axis}"
            )
        _set(self, "points_per_axis", points_per_axis)


@lru_cache(maxsize=32)
def gauss_legendre(npts: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the npts-point rule on [-1, 1], nodes ascending.

    Newton iteration on P_n from the cosine guess finds the positive nodes;
    the rest are their mirror images (same weights) and, for odd npts, 0.
    """
    if npts < 1:
        raise ValueError("need at least one node")
    positive = []
    for i in range(npts // 2):
        x = math.cos(math.pi * (i + 0.75) / (npts + 0.5))
        for _ in range(100):
            pn, dpn = _legendre_with_derivative(npts, x)
            dx = -pn / dpn
            x += dx
            if abs(dx) < 1e-15:
                break
        positive.append(x)
    rule = []
    for x in positive + [0.0] * (npts % 2):
        _, dpn = _legendre_with_derivative(npts, x)
        w = 2.0 / ((1.0 - x * x) * dpn * dpn)
        rule += [(x, w), (-x, w)] if x else [(x, w)]
    return tuple(zip(*sorted(rule)))


def _legendre_with_derivative(n: int, x: float) -> tuple[float, float]:
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=64)
def _box_moments(npts: int, top: int) -> tuple[float, ...]:
    """M[e] = sum_q w_q s_q^e for e = 0..top."""
    pairs = list(zip(*gauss_legendre(npts)))
    return tuple(math.fsum(w * s**e for s, w in pairs) for e in range(top + 1))


def _radial_sums(
    profiles: Sequence[UniPoly], r: float, npts: int, jacobian: int, degrees: list
) -> list[dict[int, float]]:
    """R[e] = sum_t w_t t^(e + jacobian) phi(r - t) for each e in degrees, on
    the rule mapped to t in [0, r], one table per profile phi; the powers of
    t are shared by every profile.  phi is evaluated by Horner's rule over
    every power from its degree down, a power without a term adding 0.0."""
    if not (profiles and degrees):
        return [{} for _ in profiles]
    nodes, weights = gauss_legendre(npts)
    t = [r * (x + 1.0) / 2.0 for x in nodes]
    us = [r - x for x in t]
    powers = {e: [x ** (e + jacobian) for x in t] for e in degrees}
    tables = []
    for profile in profiles:
        phi = [0.0] * npts
        for b in range(profile.degree, -1, -1):  # Horner, one pass over the nodes each
            c = float(profile.terms.get(b, 0))
            phi = [v * u + c for v, u in zip(phi, us)]
        wphi = [w * r / 2.0 * v for w, v in zip(weights, phi)]
        tables.append({e: math.fsum(map(mul, wphi, row)) for e, row in powers.items()})
    return tables


def _even_terms(p: Poly) -> tuple[list, list[int]]:
    """(alpha, |alpha|, c) for the terms even on every axis, and their degrees."""
    terms = [(a, sum(a), float(c)) for a, c in p.terms.items() if not any(e % 2 for e in a)]
    return terms, sorted({e for _, e, _ in terms})


def _cell_sums(
    terms: list, n: int, fixed: int, box: Sequence[float], radials: Sequence[dict[int, float]]
) -> list[float]:
    """The factorized rule over every cell, once per radial table R.

    A cell fixes `fixed` axes with a sign each (1: the 2n argmax cells or
    faces; 2: the diagonal sheets); term alpha contributes
    c * (+-1)^(alpha on the fixed axes) * R[|alpha|] * prod_free M[alpha_k].
    Each even term is summed once per cell, scaled by 2^fixed: the same
    floats as every term and sign pattern (see the module docstring).
    Raises OverflowError whenever a value it would return is not finite.
    """
    parts = []  # (|alpha|, c * prod_free M[alpha_k]) per cell and even term
    for axes in combinations(range(n), fixed):
        free = [k for k in range(n) if k not in axes]
        for alpha, e, value in terms:
            for k in free:
                value *= box[alpha[k]]
            parts.append((e, value))
    try:
        sums = [math.fsum(math.ldexp(v * table[e], fixed) for e, v in parts) for table in radials]
    except ValueError:  # parts that overflowed to opposite infinities
        sums = [math.nan]
    if all(map(math.isfinite, sums)):
        return sums
    raise OverflowError("an oracle value leaves the float range")


def _weighted_sums(
    p: Poly, d: CubeDomain, weights: list[UniPoly] | None, spec: QuadratureSpec, fixed: int
) -> list[float]:
    """Cube (fixed = 1) or diagonal (fixed = 2) integrals, one per weight
    profile; the box scaling leaves the Jacobian t^(n - fixed).  With
    weights None and fixed = 1, the face integral alone, from the face
    table R[e] = r^(e + n - 1)."""
    d.check_dim(p)
    terms, degrees = _even_terms(p)
    q, r, jacobian = spec.points_per_axis, float(d.r), d.n - fixed
    if weights is None:
        radials = [{e: r ** (e + jacobian) for e in degrees}]
    else:
        radials = _radial_sums(weights, r, q, jacobian, degrees)
    return _cell_sums(terms, d.n, fixed, _box_moments(q, p.total_degree), radials)


def numeric_integrate_cube_many(
    p: Poly, d: CubeDomain, weights: list[UniPoly], spec: QuadratureSpec = QuadratureSpec()
) -> list[float]:
    """Cube integrals of p against several weight profiles, sharing the box
    factors."""
    return _weighted_sums(p, d, weights, spec, 1)


def numeric_integrate_boundary(
    p: Poly, d: CubeDomain, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Surface integral of p over the 2n faces; a face is the cell end t = r."""
    return _weighted_sums(p, d, None, spec, 1)[0]


def numeric_integrate_diagonal_many(
    p: Poly, d: CubeDomain, weights: list[UniPoly], spec: QuadratureSpec = QuadratureSpec()
) -> list[float]:
    """Diagonal-set integrals (projected measure) against several weight
    profiles."""
    return _weighted_sums(p, d, weights, spec, 2)
