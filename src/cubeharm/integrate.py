"""Exact weighted integration over the hypercube, its boundary, and the
diagonal set where two coordinates tie for the maximum absolute value.

Geometry.  Write M(x) = max_i |x_i| for x in the cube [-r, r]^n.  The cube
splits into 2n cells on which a fixed signed coordinate attains M; on such a
cell the substitution t = |x_i| leaves a box [-t, t]^(n-1) in the remaining
coordinates.  The diagonal sheets split the same way with two tied
coordinates, and the boundary faces are the cells' outer ends t = r.  So
every region reduces to one closed form.  For a monomial x^alpha with all
exponents even (odd ones integrate to zero by symmetry), a profile phi and

    C_s(alpha) = 2^s * sum_{|S|=s} prod_{k not in S} 2 / (alpha_k + 1)
               = B(alpha) * e_s(alpha_1 + 1, ..., alpha_n + 1),
    R_phi(a, r) = int_0^r t^a phi(r - t) dt,

with B(alpha) = prod_k 2 / (alpha_k + 1) the box moment on [-1, 1]^n and
e_s the elementary symmetric polynomial of order s, the moments are

    cube      C_1(alpha) * R_phi(|alpha| + n - 1, r)
    diagonal  C_2(alpha) * R_phi(|alpha| + n - 2, r)
    boundary  C_1(alpha) * r^(|alpha| + n - 1)

and R_phi follows from expanding phi in powers of (r - t) and

    int_0^r t^a (r - t)^b dt = a! b! r^(a+b+1) / (a+b+1)!.

R_phi depends on alpha only through a = |alpha|, so every integral is
sum_a S_s(a) * R_phi(a + n - s, r) (r^(a + n - 1) on the boundary) over
the weight-free degree sums S_s(a) = sum_{|alpha|=a} c_alpha C_s(alpha).
The cell factors are memoized by exponent.  The degree sums are added in
integers: the terms of one degree that share a coefficient denominator
form a group summed over the lcm of their cell factors' denominators, and
a degree's groups are then added as Fractions, one per group.  Tie sets
are lower dimensional and carry no mass.  A constant factor (the
reciprocal of a mass, or the 2 on a quadrature diagonal) folds into the
radial factors, so each residual in `identities` is one linear functional
of the degree sums.  A
polynomial each of whose terms has an odd exponent has empty degree sums,
which `integral` maps to the exact integer 0 with no Fraction arithmetic;
the public integrate_* functions and `measure` return Fractions.

Diagonal measure convention.  The diagonal set is the union over pairs
i < j of the sheets {|x_k| <= |x_i| = |x_j|}.  Each pair contributes four
sheets (one per sign pattern of the tied coordinates), parametrized by
t in [0, r] and the free box [-t, t]^(n-2), and carries the PROJECTED
measure dt * prod dx_k obtained by projecting out one tied coordinate.
This is NOT the Euclidean surface measure (for n = 2, r = 1 the Euclidean
length is 4*sqrt(2) while the projected mass is 4).  The projected
convention is the one under which the closed-form masses and the mean-value
identities in `identities` hold exactly; switching to Euclidean measure
would scale all diagonal masses by sqrt(2) and leave every mean unchanged.

Boundary weights.  The power weight (r - M)^k / k! vanishes identically on
the boundary for k >= 1, since M = r there.  The boundary masses reported by
`measure` therefore evaluate the weight from each face's own in-face
maximum (the distance from the face point to the face's rim), which agrees
with the plain surface measure at k = 0 and is the convention under which
the boundary mass closed form 2^n n! r^(n+k-1) / (n+k-1)! is verifiable.

Everything here is exact rational arithmetic; no floats.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Callable

from .poly import DimensionMismatchError, Exponent, Poly, UniPoly, Value, _set

RationalLike = Fraction | int | str


class CubeDomain(Value):
    """The cube [-r, r]^n together with its boundary and diagonal set."""

    __slots__ = ("n", "r")

    def __init__(self, n: int, r: RationalLike):
        r = Fraction(r)
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        _set(self, "n", n)
        _set(self, "r", r)

    def check_dim(self, p: Poly) -> None:
        """Refuse a polynomial whose dimension is not the cube's."""
        if p.dim != self.n:
            raise DimensionMismatchError(
                f"polynomial dimension {p.dim} does not match domain dimension {self.n}"
            )


class Region(enum.Enum):
    CUBE = "cube"
    BOUNDARY = "boundary"
    DIAGONAL = "diagonal"


class Weight(Value):
    """A radial weight profile evaluated at u = r - M(x).

    `power(k)` builds the profile u^k / k!; `from_profile` wraps an arbitrary
    polynomial profile.  Both run through the same integration path.
    """

    __slots__ = ("profile",)

    def __init__(self, profile: UniPoly):
        _set(self, "profile", profile)

    @classmethod
    def power(cls, k: int) -> "Weight":
        if k < 0:
            raise ValueError(f"weight exponent must be >= 0, got {k}")
        return cls(UniPoly.monomial(k, Fraction(1, math.factorial(k))))

    @classmethod
    def from_profile(cls, phi: UniPoly) -> "Weight":
        return cls(phi)


class WeightConditionError(ValueError):
    """The weight profile violates a required vanishing condition at 0."""


def _vanishing_failure(phi: UniPoly, order: int) -> str | None:
    """Why phi does not vanish to the given order at 0, or None if it does."""
    names = {0: "phi(0)", 1: "phi'(0)"}
    for j in range(order):
        if phi.coeff(j) != 0:
            name = names.get(j, f"phi^({j})(0)")
            return f"weight profile must satisfy {name} = 0, got {phi.coeff(j)}"
    return None


@functools.lru_cache(maxsize=4096)
def _cell_factors(alpha: Exponent) -> tuple[Fraction, Fraction]:
    """(C_1(alpha), C_2(alpha)) with C_s = B(alpha) * e_s(alpha_k + 1), in
    O(n) work; zero when an exponent is odd."""
    if any(a % 2 for a in alpha):
        return Fraction(0), Fraction(0)
    v = [a + 1 for a in alpha]
    e1, box = sum(v), Fraction(2 ** len(v), math.prod(v))
    return e1 * box, (e1 * e1 - sum(x * x for x in v)) // 2 * box


def _radial(
    a: int, r: Fraction, coeffs: tuple[Fraction, ...] | None, scale: Fraction
) -> Fraction:
    """scale * R_phi(a, r) for the profile phi with the given coefficients,
    or scale * r^a when there is no profile (the boundary).

    R_phi(a, r) = sum_b c_b a! b! r^e / e! (e = a + b + 1) is summed over
    integers on one common denominator L * top! * q^top (L the lcm of the
    coefficients' denominators, widened term by term, q the denominator of
    r, top = a + len(coeffs) the largest e), so it grows with its largest
    term, not with the product of every term's denominator; one Fraction is
    built at the end.
    """
    p, q = r.numerator, r.denominator
    if coeffs is None:
        num, den = p**a, q**a
    else:
        top = a + len(coeffs)
        num, lcm = 0, 1
        for b, c in enumerate(coeffs):
            if c:
                e = a + b + 1
                cd = c.denominator
                if lcm % cd:  # widen the common denominator
                    wider = math.lcm(lcm, cd)
                    num *= wider // lcm
                    lcm = wider
                # c_b b! p^e / (e! q^e) over the common denominator; a! is common
                num += (
                    c.numerator * (lcm // cd) * math.factorial(b)
                    * math.perm(top, top - e) * p**e * q ** (top - e)
                )
        num *= math.factorial(a)
        den = lcm * math.factorial(top) * q**top
    return Fraction(num * scale.numerator, den * scale.denominator)


class DegreeSums(dict):
    """A polynomial's degree sums {s: {a: S_s(a)}}, S_s(a) = sum_{|alpha|=a}
    c_alpha C_s(alpha), for s = 1 (cube cells, faces) and s = 2 (diagonal
    sheets): the part of every integral of the polynomial that depends on
    neither the radius nor the weight.  Each table is built on first use.

    The terms are grouped by (degree, coefficient denominator).  A group
    sums c.numerator * N in integers over the lcm of its cell factors'
    denominators Q (C_s = N/Q), widened term by term as _radial widens, and
    becomes one Fraction; a degree's groups are added as Fractions.  So
    terms with many coprime coefficient denominators are added pairwise with
    Fraction's small-gcd reduction, not over one denominator that grows
    with all of them.  Degrees keep their first-term order, and a degree
    whose terms cancel keeps its key with the value Fraction(0)."""

    def __init__(self, poly: Poly):
        super().__init__()
        self.poly = poly

    def __missing__(self, s: int) -> dict[int, Fraction]:
        # (degree, coefficient denominator) -> (integer sum, its denominator)
        groups: dict[tuple[int, int], tuple[int, int]] = {}
        for alpha, coeff in self.poly.terms.items():
            if cells := _cell_factors(alpha)[s - 1]:
                key = (sum(alpha), coeff.denominator)
                q = cells.denominator
                acc, den = groups.get(key, (0, q))
                if den % q:  # widen the group's denominator
                    wider = math.lcm(den, q)
                    acc *= wider // den
                    den = wider
                groups[key] = acc + coeff.numerator * cells.numerator * (den // q), den
        sums = self[s] = {}
        for (a, cd), (acc, den) in groups.items():
            term = Fraction(acc, cd * den)
            if a in sums:
                sums[a] += term
            else:
                sums[a] = term
        return sums


def integral(
    d: CubeDomain, region: Region, w: Weight | None = None, scale: RationalLike = 1
) -> Callable[[DegreeSums], Fraction | int]:
    """scale * sum_a S_s(a) * R_phi(a + n - s, r) over region, or
    * r^(a + n - 1) on the boundary (where w is ignored), as one linear
    functional of a polynomial's degree sums.

    The constant `scale` (a term's reciprocal mass, the factor 2 of a
    diagonal and the term's sign) is folded into the radial factor of each
    degree, which is computed once per degree for the life of the returned
    function; a residual is then the sum of its row's functionals.
    A parity-odd polynomial (each term has an odd exponent, so its degree
    sums are empty) gives the exact integer 0 with no Fraction arithmetic.
    Any other value is a Fraction.
    """
    s = 2 if region is Region.DIAGONAL else 1
    shift = d.n - s
    coeffs = None if region is Region.BOUNDARY else w.profile.coeffs
    scale = Fraction(scale)
    factors: dict[int, Fraction] = {}

    def value(p: DegreeSums) -> Fraction | int:
        if p.poly.dim != d.n:
            d.check_dim(p.poly)
        total = None  # the first product starts the sum; 0 + Fraction builds a Fraction(0)
        for a, sums in p[s].items():
            if a not in factors:
                factors[a] = _radial(a + shift, d.r, coeffs, scale)
            term = sums * factors[a]
            total = term if total is None else total + term
        return 0 if total is None else total

    return value


def integrate_cube(p: Poly, d: CubeDomain, w: Weight) -> Fraction:
    """Exact weighted integral of p over the solid cube."""
    return Fraction(integral(d, Region.CUBE, w)(DegreeSums(p)))


def integrate_boundary(p: Poly, d: CubeDomain) -> Fraction:
    """Exact integral of p over the cube's boundary (surface measure).

    Sums plain (n-1)-dimensional integrals over the 2n faces; edge and
    corner overlaps have zero surface measure.
    """
    return Fraction(integral(d, Region.BOUNDARY)(DegreeSums(p)))


def integrate_diagonal(p: Poly, d: CubeDomain, w: Weight) -> Fraction:
    """Exact weighted integral of p over the diagonal set, projected measure.

    Each pair i < j contributes four sheets parametrized by the tied value
    t in [0, r] and the free box [-t, t]^(n-2); three-way ties are shared
    sheet boundaries of zero measure.
    """
    return Fraction(integral(d, Region.DIAGONAL, w)(DegreeSums(p)))


def measure(d: CubeDomain, region: Region, k: int = 0) -> Fraction:
    """Weighted mass of a region under the power weight of exponent k.

    Cube and diagonal masses are the moments of the constant 1.  Boundary
    masses use the face-local weight convention described in the module
    docstring.  At k = 0 this is the ordinary surface area, and the
    restriction of the global weight to the boundary would be identically
    zero for k >= 1.  The 2n faces split into 4n(n-1) argmax cells, each
    parametrized and weighted like one of the 2n(n-1) diagonal sheets
    (t in [0, r], the box [-t, t]^(n-2), measure dt * prod dx_k, weight
    phi(r - t)), so the boundary mass is twice the diagonal mass.
    """
    if region is Region.BOUNDARY:
        return 2 * measure(d, Region.DIAGONAL, k)
    if region is Region.CUBE or region is Region.DIAGONAL:
        return Fraction(integral(d, region, Weight.power(k))(DegreeSums(Poly.const(d.n, 1))))
    raise ValueError(f"unknown region {region!r}")
