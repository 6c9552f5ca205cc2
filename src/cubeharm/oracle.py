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
Jacobian of the box scaling); a face has the radial factor r^(e + n - 1).
A cell with fixed axes S and signs sigma then sums to

    sum_alpha c_alpha * prod_(k in S) sigma_k^alpha_k * R[|alpha|]
                      * prod_(k not in S) M[alpha_k],

which is the tensor rule's value in exact arithmetic, at O(n q) work per
term instead of O(q^n).  `numeric_l1` is the one pointwise path: |f - h|
does not separate, so it still evaluates f - h on every node of the cell
grid, through `_kernels.evaluate_terms`.

Node generation follows the classic Newton iteration on the Legendre
recurrence rather than any table.  In the factorized path every sum over
nodes, terms and cells is a math.fsum, so results are correctly rounded
sums of the same products, independent of term order and stable run to
run; the one-dimensional tables are built afresh on every call, in
O(q * degree) work.  The nodes and weights are Python floats.  numpy is an
optional dependency (the `oracle` extra), imported only where `numeric_l1`
builds its point grids, so the package and the factorized integrals neither
need nor load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import TYPE_CHECKING, Sequence

from .integrate import CubeDomain, Weight
from .poly import Poly, Value, _set, grlex_key

if TYPE_CHECKING:
    import numpy as np

MAX_POINTS_PER_AXIS = 256  # the Newton node build is O(q^2) in Python
MAX_CELL_POINTS = 10**6  # nodes numeric_l1 may evaluate on one cell (q^n)


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

    Newton iteration on P_n with the cosine initial guess; converges to
    machine precision in a handful of steps.
    """
    if npts < 1:
        raise ValueError("need at least one node")
    rule = []
    for i in range(npts):
        x = math.cos(math.pi * (i + 0.75) / (npts + 0.5))
        for _ in range(100):
            pn, dpn = _legendre_with_derivative(npts, x)
            dx = -pn / dpn
            x += dx
            if abs(dx) < 1e-15:
                break
        pn, dpn = _legendre_with_derivative(npts, x)
        rule.append((x, 2.0 / ((1.0 - x * x) * dpn * dpn)))
    nodes, weights = zip(*sorted(rule))
    return nodes, weights


def _legendre_with_derivative(n: int, x: float) -> tuple[float, float]:
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _poly_arrays(p: Poly) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    terms = sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    if not terms:
        return np.zeros((0, p.dim), dtype=np.int64), np.zeros(0)
    exps = np.array([t[0] for t in terms], dtype=np.int64)
    coeffs = np.array([float(t[1]) for t in terms])
    return exps, coeffs


def _box_grid(naxes: int, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference tensor grid on [-1, 1]^naxes: (q^naxes, naxes) nodes and
    the product weights."""
    import numpy as np

    nodes, weights = map(np.array, gauss_legendre(npts))
    if naxes == 0:
        return np.zeros((1, 0)), np.ones(1)
    grids = np.meshgrid(*([nodes] * naxes), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * naxes), indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.reshape(-1)
    return pts, w


def _horner(coeffs: list[float], u: float) -> float:
    """phi(u) for the profile with the given float coefficients."""
    value = 0.0
    for c in reversed(coeffs):
        value = value * u + c
    return value


def _box_moments(npts: int, top: int) -> tuple[float, ...]:
    """M[e] = sum_q w_q s_q^e for e = 0..top."""
    pairs = list(zip(*gauss_legendre(npts)))
    return tuple(math.fsum(w * s**e for s, w in pairs) for e in range(top + 1))


def _radial_sums(
    coeffs: tuple[Fraction, ...], r: float, npts: int, jacobian: int, top: int
) -> tuple[float, ...]:
    """R[e] = sum_t w_t t^(e + jacobian) phi(r - t) for e = 0..top, on the
    rule mapped to t in [0, r], for the profile phi with the given
    coefficients."""
    nodes, weights = gauss_legendre(npts)
    phi = [float(c) for c in coeffs]
    t = [r * (x + 1.0) / 2.0 for x in nodes]
    wphi = [w * r / 2.0 * _horner(phi, r - x) for x, w in zip(t, weights)]
    return tuple(
        math.fsum(c * x ** (e + jacobian) for c, x in zip(wphi, t)) for e in range(top + 1)
    )


def _cell_sums(
    p: Poly, fixed: int, box: Sequence[float], radials: list[Sequence[float]]
) -> list[float]:
    """The factorized rule over every cell, once per radial table R.

    A cell fixes `fixed` axes with a sign each (1: the 2n argmax cells or
    faces; 2: the diagonal sheets); term alpha contributes
    c * (+-1)^(alpha on the fixed axes) * R[|alpha|] * prod_free M[alpha_k].
    """
    n = p.dim
    sums: list[list[float]] = [[] for _ in radials]
    for axes in combinations(range(n), fixed):
        free = [k for k in range(n) if k not in axes]
        parts = []  # (|alpha|, c * prod_free M[alpha_k], alpha on the fixed axes)
        for alpha, c in p.terms.items():
            value = float(c)
            for k in free:
                value *= box[alpha[k]]
            parts.append((sum(alpha), value, [alpha[k] for k in axes]))
        for signs in product((1, -1), repeat=fixed):
            signed = [(e, value * math.prod(map(pow, signs, tied))) for e, value, tied in parts]
            for table, out in zip(radials, sums):
                out.extend(value * table[e] for e, value in signed)
    return [math.fsum(s) for s in sums]


def _check_dim(p: Poly, d: CubeDomain) -> None:
    if p.dim != d.n:
        raise ValueError(f"dimension mismatch: {p.dim} vs {d.n}")


def _weighted_sums(
    p: Poly, d: CubeDomain, weights: list[Weight], spec: QuadratureSpec, fixed: int
) -> list[float]:
    """Cube (fixed = 1) or diagonal (fixed = 2) integrals, one per weight;
    the box scaling leaves the Jacobian t^(n - fixed)."""
    _check_dim(p, d)
    q, r, top = spec.points_per_axis, float(d.r), p.total_degree
    radials = [_radial_sums(w.profile.coeffs, r, q, d.n - fixed, top) for w in weights]
    return _cell_sums(p, fixed, _box_moments(q, top), radials)


def numeric_integrate_cube_many(
    p: Poly, d: CubeDomain, weights: list[Weight], spec: QuadratureSpec = QuadratureSpec()
) -> list[float]:
    """Cube integrals of p against several weights, sharing the box factors."""
    return _weighted_sums(p, d, weights, spec, 1)


def numeric_integrate_cube(
    p: Poly, d: CubeDomain, w: Weight, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    return numeric_integrate_cube_many(p, d, [w], spec)[0]


def numeric_integrate_boundary(
    p: Poly, d: CubeDomain, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Surface integral of p over the 2n faces; a face is the cell end t = r."""
    _check_dim(p, d)
    r, top = float(d.r), p.total_degree
    radial = [r ** (e + d.n - 1) for e in range(top + 1)]
    return _cell_sums(p, 1, _box_moments(spec.points_per_axis, top), [radial])[0]


def numeric_integrate_diagonal_many(
    p: Poly, d: CubeDomain, weights: list[Weight], spec: QuadratureSpec = QuadratureSpec()
) -> list[float]:
    """Diagonal-set integrals (projected measure) against several weights."""
    return _weighted_sums(p, d, weights, spec, 2)


def numeric_integrate_diagonal(
    p: Poly, d: CubeDomain, w: Weight, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    return numeric_integrate_diagonal_many(p, d, [w], spec)[0]


def numeric_l1(
    f: Poly, h: Poly, d: CubeDomain, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Quadrature of |f - h| over the cube.

    The absolute value reintroduces a kink wherever f - h changes sign, so
    away from the one-sided case this is an estimate, not an exact value.
    |f - h| does not separate, so each cell's q^n nodes are evaluated point
    by point; a rule that would put more than MAX_CELL_POINTS nodes on one
    cell is refused before anything is allocated.
    """
    diff = f - h
    if diff.is_zero:
        return 0.0
    n, q = d.n, spec.points_per_axis
    if q**n > MAX_CELL_POINTS:
        raise ValueError(
            f"{q} points per axis in dimension {n} put {q**n} nodes on a cell, "
            f"above the limit of {MAX_CELL_POINTS}"
        )
    try:
        import numpy as np
    except ImportError as exc:
        raise ImportError("numeric_l1 needs numpy: install cubeharm[oracle]") from exc

    from ._kernels import evaluate_terms

    r = float(d.r)
    exps, coeffs = _poly_arrays(diff)
    t_nodes, t_weights = map(np.array, gauss_legendre(q))
    t = r * (t_nodes + 1.0) / 2.0
    wt = t_weights * r / 2.0
    box_pts, box_w = _box_grid(n - 1, q)
    nbox = box_pts.shape[0]
    cells = []
    for i in range(n):
        others = [k for k in range(n) if k != i]
        for sigma in (1.0, -1.0):
            pts = np.empty((q * nbox, n))
            wvec = np.empty(q * nbox)
            for ti in range(q):
                block = slice(ti * nbox, (ti + 1) * nbox)
                pts[block, i] = sigma * t[ti]
                for axis_pos, k in enumerate(others):
                    pts[block, k] = t[ti] * box_pts[:, axis_pos]
                wvec[block] = wt[ti] * (t[ti] ** (n - 1)) * box_w
            vals = evaluate_terms(pts, exps, coeffs)
            cells.append(float(np.dot(np.abs(vals), wvec)))
    return math.fsum(cells)
