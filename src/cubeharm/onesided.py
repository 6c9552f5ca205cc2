"""Certificates for best one-sided L1 approximation from below by harmonic
polynomials on the cube.

The optimality criterion: if h is harmonic, h <= f on the cube, and f - h
vanishes on the whole diagonal set, then h minimizes the L1 distance to f
among harmonic minorants, and the error is the plain integral of f - h.

Vanishing on the diagonal set is decided exactly by substitution.  Each
sheet {|x_k| <= |x_i| = |x_j|} with x_i = s x_j (s = +-1) is a relatively
open piece of the hyperplane x_i = s x_j, so a polynomial vanishes on it
exactly when substituting x_i := s x_j leaves the zero polynomial.  The
gradient condition applies the same test to every partial derivative.

One-sidedness (h <= f everywhere) is genuinely hard for general polynomials,
so it is reported at one of three strengths:

  certified   f - h factors exactly as g * prod_{i<j} (x_i^2 - x_j^2)^2 with
              g certified nonnegative (even powers with nonnegative
              coefficients, or an exact polynomial square); sound proof.
              The product is homogeneous of degree 2n(n-1), so f - h with a
              nonzero term of lower degree is no multiple of it and is sent
              to the grid without building or dividing anything
  heuristic   f - h was nonnegative on a uniform rational grid; no proof.
              The grid is walked exactly as an integer lattice: scaling
              x = r/(N-1) * m with integer m turns f - h into an integer
              polynomial over one common denominator, evaluated in Python
              ints one axis at a time.  The walk skips every sub-box whose
              exact term-wise lower bound is already at or above the
              running minimum, which never changes the verdict, grid_min or
              the witness
  failed      a grid point with a negative value was found (with witness)

A certified f - h is a multiple of every (x_i - x_j)^2 (x_i + x_j)^2, so it
and its gradient vanish on the diagonal set without a further check.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from itertools import combinations

from .integrate import (
    CubeDomain,
    Weight,
    WeightConditionError,
    _vanishing_failure,
    integrate_cube,
)
from .kernel import is_polyharmonic
from .lattice import lattice_row, lattice_terms
from .poly import (
    Poly,
    UniPoly,
    Value,
    divide_exact,
    partial,
    poly_sqrt,
    poly_to_text,
    rational_to_text,
    uni_negative_point,
)

CERTIFIED = "certified"
HEURISTIC = "heuristic"
FAILED = "failed"

DEFAULT_GRID = 41
MAX_GRID_POINTS = 10**6


def vanishes_on_diagonal(p: Poly, d: CubeDomain) -> bool:
    """True iff p is identically zero on the diagonal set.

    For each pair i < j, the substitutions x_i := x_j and x_i := -x_j give
    E + O and E - O, where E and O collect the terms with even and odd x_i
    exponent; both are zero exactly when E and O are.  So one pass per pair
    decides both sheets, and the first pair with a nonzero sum ends the
    check.
    """
    d.check_dim(p)
    terms = p.terms.items()
    for i, j in combinations(range(d.n), 2):
        sums: dict[tuple, Fraction] = {}
        for exps, coeff in terms:
            e = exps[i]
            key = (e & 1, exps[:i], exps[i + 1 : j], exps[j] + e, exps[j + 1 :])
            sums[key] = sums.get(key, 0) + coeff
        if any(sums.values()):
            return False
    return True


def gradient_vanishes_on_diagonal(p: Poly, d: CubeDomain) -> bool:
    """True iff every partial derivative of p vanishes on the diagonal set."""
    return all(
        vanishes_on_diagonal(partial(p, axis), d) for axis in range(1, p.dim + 1)
    )


@functools.lru_cache(maxsize=8)
def pair_square_product(dim: int) -> Poly:
    """prod over i < j of (x_i^2 - x_j^2)^2 in the given dimension, built
    once per dimension."""
    out = Poly.const(dim, 1)
    for i, j in combinations(range(1, dim + 1), 2):
        out = out * (Poly.variable(dim, i) ** 2 - Poly.variable(dim, j) ** 2) ** 2
    return out


def _pair_square_cofactor(p: Poly) -> Poly | None:
    """g with p = g * pair_square_product(p.dim), or None when p is not a
    multiple.  A multiple of the homogeneous product of degree 2n(n-1) has
    no nonzero term of lower degree, so such a term answers None at once."""
    n = p.dim
    if p.is_zero:
        return p
    if min(map(sum, p.terms)) < 2 * n * (n - 1):
        return None
    quotient, remainder = divide_exact(p, pair_square_product(n))
    return quotient if remainder.is_zero else None


def _certified_nonnegative(g: Poly) -> bool:
    """Even powers with positive coefficients (or none: g = 0), or an exact
    polynomial square."""
    return all(
        coeff > 0 and not any(e % 2 for e in exps) for exps, coeff in g.terms.items()
    ) or poly_sqrt(g) is not None


def _lattice_walk(p: Poly, r: Fraction, npts: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact values of p on the uniform grid of npts points per axis over
    [-r, r]^n, walked in C order: the first negative value and its point, or
    else the first minimum and its point.

    Grid coordinates are step * m with step = r/(npts-1) and integer
    m = 2i - (npts-1), so p(step * m) = P(m) / D for the integer polynomial
    P and denominator D of `lattice_terms`.  The walk fixes one axis at a
    time, substituting m into the remaining integer coefficients, and adds
    up the last axis from the power table powers[e][i] = m_i^e; everything
    inside the loop is a Python int, so nothing can overflow or round.

    Before it enters a sub-box (one more fixed axis), the walk bounds the
    substituted polynomial from below over the rest of the grid, term by
    term.  With |m| <= M = npts - 1, a monomial m^e lies in [-M^|e|, M^|e|]
    when some exponent is odd, and otherwise in [low, M^|e|], where low is 0
    when the grid holds m = 0 (odd npts) and the monomial is not constant,
    and 1 otherwise.  The running minimum is >= 0, or the walk would have
    stopped, so a sub-box whose bound is >= it holds no negative value and
    none below it, and is skipped.  A tie later in C order never replaces
    the first minimum, so the result is that of the walk over every point.
    """
    step = r / (npts - 1)
    ints, denom = lattice_terms(p, step)
    top = max((max(exps) for exps in ints), default=0)
    ms = range(1 - npts, npts, 2)
    powers = [[m**e for m in ms] for e in range(top + 1)]
    last = p.dim - 1
    best: int | None = None
    best_at: tuple[int, ...] = ()

    # remaining exponents -> (low, high) of the monomial over the grid
    ranges: dict[tuple[int, ...], tuple[int, int]] = {}

    def lower_bound(terms: dict[tuple[int, ...], int]) -> int:
        total = 0
        for exps, c in terms.items():
            bounds = ranges.get(exps)
            if bounds is None:
                high = (npts - 1) ** sum(exps)
                if any(e & 1 for e in exps):
                    low = -high
                else:
                    low = 0 if npts & 1 and any(exps) else 1
                bounds = ranges[exps] = (low, high)
            total += c * bounds[c < 0]  # a negative coefficient takes the high end
        return total

    def walk(terms: dict[tuple[int, ...], int], at: tuple[int, ...]) -> bool:
        # True once a negative value has been found, which ends the walk
        nonlocal best, best_at
        if len(at) == last:
            row = lattice_row(terms, powers)
            low = min(row)
            if low < 0:
                i = next(i for i, v in enumerate(row) if v < 0)
                best, best_at = row[i], at + (i,)
                return True
            if best is None or low < best:
                best, best_at = low, at + (row.index(low),)
            return False
        for i in range(npts):
            sub: dict[tuple[int, ...], int] = {}
            for exps, c in terms.items():
                rest = exps[1:]
                sub[rest] = sub.get(rest, 0) + c * powers[exps[0]][i]
            if best is not None and lower_bound(sub) >= best:
                continue
            if walk(sub, at + (i,)):
                return True
        return False

    walk(ints, ())
    assert best is not None
    return Fraction(best, denom), tuple(step * ms[i] for i in best_at)


class OneSidedness(Value):
    """Outcome of a nonnegativity check of f - h on the cube."""

    # kind: certified | heuristic | failed; the rest are a grid size, Fractions and a Poly, or None
    __slots__ = ("kind", "grid_points_per_axis", "grid_min", "negative_witness", "cofactor")
    _defaults = dict.fromkeys(__slots__[1:])

    def to_dict(self) -> dict:
        out: dict = {"status": self.kind}
        if self.grid_points_per_axis is not None:
            out["grid_points_per_axis"] = self.grid_points_per_axis
        if self.grid_min is not None:
            out["grid_min"] = rational_to_text(self.grid_min)
        if self.negative_witness is not None:
            out["negative_witness"] = [rational_to_text(v) for v in self.negative_witness]
        if self.cofactor is not None:
            out["cofactor"] = poly_to_text(self.cofactor)
        return out


def check_onesided(
    f_minus_h: Poly,
    d: CubeDomain,
    grid_points_per_axis: int = DEFAULT_GRID,
) -> OneSidedness:
    """Decide (or sample) nonnegativity of f - h on the cube.

    The certified path divides out the squared pairwise factor shared by all
    diagonal-vanishing squares; the heuristic path is an exact integer walk
    over the scaled lattice of a uniform rational grid, shrunk if its total
    size would exceed MAX_GRID_POINTS.  A ValueError refuses the request
    before anything is built when grid_points_per_axis is below 2, and
    before any walk when even 2 points per axis exceed MAX_GRID_POINTS.  The
    walk stops at the first negative value in C order (reported with its
    point); otherwise grid_min is the first minimum.
    """
    d.check_dim(f_minus_h)
    if grid_points_per_axis < 2:
        raise ValueError(
            f"the one-sided grid needs at least 2 points per axis, got {grid_points_per_axis}"
        )
    cofactor = _pair_square_cofactor(f_minus_h)
    if cofactor is not None and _certified_nonnegative(cofactor):
        return OneSidedness(kind=CERTIFIED, cofactor=cofactor)

    if 2**d.n > MAX_GRID_POINTS:
        raise ValueError(
            f"the one-sided grid needs at least 2^{d.n} = {2**d.n} points, "
            f"above the limit of {MAX_GRID_POINTS}"
        )
    npts = grid_points_per_axis
    if npts**d.n > MAX_GRID_POINTS:
        # the largest side within the cap; int() of the float root is at most
        # one below it
        npts = int(MAX_GRID_POINTS ** (1 / d.n)) + 1
        while npts**d.n > MAX_GRID_POINTS:
            npts -= 1
    best, witness = _lattice_walk(f_minus_h, d.r, npts)
    if best < 0:
        return OneSidedness(
            kind=FAILED,
            grid_points_per_axis=npts,
            grid_min=best,
            negative_witness=witness,
        )
    return OneSidedness(kind=HEURISTIC, grid_points_per_axis=npts, grid_min=best)


class ApproxCertificate(Value):
    """Checked hypotheses and exact error for a candidate best approximant."""

    __slots__ = (
        "f", "h", "domain", "harmonic_ok", "vanishes_on_diagonal",
        "gradient_vanishes_on_diagonal", "onesided", "l1_error"
    )

    @property
    def optimality_certified(self) -> bool:
        """Sound proof of best-approximant optimality from below."""
        return (
            self.harmonic_ok
            and self.vanishes_on_diagonal
            and self.onesided.kind == CERTIFIED
        )

    def to_dict(self) -> dict:
        return {
            "f": poly_to_text(self.f),
            "h": poly_to_text(self.h),
            "n": self.domain.n,
            "r": rational_to_text(self.domain.r),
            "harmonic_ok": self.harmonic_ok,
            "vanishes_on_diagonal": self.vanishes_on_diagonal,
            "gradient_vanishes_on_diagonal": self.gradient_vanishes_on_diagonal,
            "onesided": self.onesided.to_dict(),
            "optimality_certified": self.optimality_certified,
            "l1_error": None if self.l1_error is None else rational_to_text(self.l1_error),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def weighted_l1_error(self, phi: UniPoly) -> Fraction:
        """The module's weighted_l1_error for this f, h and domain, decided
        by this certificate's one-sided verdict instead of a second walk."""
        return _weighted_error(self.f - self.h, self.domain, phi, self.onesided)


def certify_best_approx(
    f: Poly,
    h: Poly,
    d: CubeDomain,
    grid_points_per_axis: int = DEFAULT_GRID,
) -> ApproxCertificate:
    """Check every hypothesis of the diagonal-interpolation optimality
    criterion and compute the exact L1 error when f - h is not known to dip
    negative."""
    diff = f - h
    onesided = check_onesided(diff, d, grid_points_per_axis=grid_points_per_axis)
    l1_error = None
    if onesided.kind in (CERTIFIED, HEURISTIC):
        l1_error = integrate_cube(diff, d, Weight.power(0))
    # a certified diff is a multiple of prod (x_i^2 - x_j^2)^2, see the module
    certified = onesided.kind == CERTIFIED
    return ApproxCertificate(
        f=f,
        h=h,
        domain=d,
        harmonic_ok=is_polyharmonic(h, 1),
        vanishes_on_diagonal=certified or vanishes_on_diagonal(diff, d),
        gradient_vanishes_on_diagonal=certified
        or gradient_vanishes_on_diagonal(diff, d),
        onesided=onesided,
        l1_error=l1_error,
    )


def weighted_l1_error(
    f: Poly,
    h: Poly,
    d: CubeDomain,
    phi: UniPoly,
) -> Fraction:
    """Exact weighted error int (f - h) phi''(r - M) over the cube.

    Requires phi(0) = phi'(0) = 0 (symbolic check) and phi', phi'' >= 0 on
    [0, r], decided exactly by Sturm-sequence root isolation; a violation is
    reported with a rational witness u.  f - h must not be negative anywhere
    on the grid of check_onesided.
    """
    return _weighted_error(f - h, d, phi, None)


def _weighted_error(
    diff: Poly,
    d: CubeDomain,
    phi: UniPoly,
    onesided: OneSidedness | None,
) -> Fraction:
    """weighted_l1_error of diff = f - h, given check_onesided's verdict on
    diff, or None to walk the grid once the weight conditions hold."""
    failure = _vanishing_failure(phi, 2)
    if failure is not None:
        raise WeightConditionError(failure)
    d2 = phi.derivative(2)
    for name, g in (("phi'", phi.derivative(1)), ("phi''", d2)):
        u = uni_negative_point(g, Fraction(0), d.r)
        if u is not None:
            raise WeightConditionError(f"{name} is negative at u = {u}: {g(u)}")
    if onesided is None:
        onesided = check_onesided(diff, d)
    if onesided.kind == FAILED:
        raise ValueError(
            f"f - h is negative at {tuple(map(str, onesided.negative_witness or ()))}"
        )
    return integrate_cube(diff, d, Weight.from_profile(d2))
