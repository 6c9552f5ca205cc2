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
of the degree sums.  Each radial factor sums only the powers of r that grow
with the degree and the profile, and takes the power r^(n - s + 1), which
grows with the dimension, last: Fraction builds a power with no gcd, so a
radius whose numerator and denominator are both large costs no gcd of two
numbers of that power's size.  A polynomial each of whose terms has an odd
exponent has empty degree sums, which `integral` maps to the exact integer
0 with no Fraction arithmetic; the public integrate_* functions and
`measure` return Fractions.  The integrals of one polynomial share its
degree sums: consecutive integrate_* calls on the same Poly object read
one memo, which keeps only the last polynomial alive.

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


class Weight:
    """A weight is its profile phi, a UniPoly evaluated at u = r - M(x), and
    every weighted function takes the profile itself.  This class only
    names the power profiles: `Weight.power(k)` is u^k / k!."""

    @staticmethod
    def power(k: int) -> UniPoly:
        if k < 0:
            raise ValueError(f"weight exponent must be >= 0, got {k}")
        return UniPoly.monomial(k, Fraction(1, math.factorial(k)))


class WeightConditionError(ValueError):
    """The weight profile violates a required vanishing condition at 0."""


def _vanishing_failure(phi: UniPoly, order: int) -> str | None:
    """Why phi does not vanish to the given order at 0, or None if it does."""
    j = min(phi.terms, default=order)  # the lowest power with a term
    if j < order:
        name = {0: "phi(0)", 1: "phi'(0)"}.get(j, f"phi^({j})(0)")
        return f"weight profile must satisfy {name} = 0, got {phi.terms[j]}"
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
    a: int, shift: int, r: Fraction, phi: UniPoly | None, unit: Fraction
) -> Fraction:
    """unit * R_phi(a + shift, r) / r^(shift + 1) for the profile phi, or
    unit * r^a when there is no profile (the boundary).

    With A = a + shift, R_phi(A, r) / r^(shift + 1) = sum_b c_b b! r^(a + b)
    A! / (A + b + 1)!.  Its powers of r grow with the degree a and the
    profile's b, not with the dimension, and are added in integers over one
    common denominator L * top! / A! * q^(a + k) (L the lcm of the
    coefficients' denominators, q the denominator of r, k = the profile's
    degree + 1, top = A + k), whose factorial part is a product of k
    factors; only phi's nonzero terms are walked.
    `integral` puts the power r^(shift + 1), which grows with the dimension,
    into `unit` with the functional's constant; Fraction's power builds it
    with no gcd.  The integer sum is multiplied into the unit and the
    product divided by the common denominator, and each step reduces only
    across its two operands.  So a radius whose numerator and denominator
    are both large never pays a gcd of two numbers of that power's size,
    and a sum that a reciprocal mass in the unit cancels is reduced against
    it, not normalised on its own first.  A unit of 1 builds the one
    Fraction of the sum.
    """
    if phi is None:
        return unit * r**a
    p, q = r.numerator, r.denominator
    k = phi.degree + 1
    top, num, lcm = a + shift + k, 0, 1
    for b, c in phi.terms.items():
        cd = c.denominator
        if lcm % cd:  # widen the common denominator
            wider = math.lcm(lcm, cd)
            num *= wider // lcm
            lcm = wider
        # c_b b! r^(a + b) A! / (A + b + 1)! over the common denominator
        num += (
            c.numerator * (lcm // cd) * math.factorial(b) * math.perm(top, k - 1 - b)
            * p ** (a + b) * q ** (k - b)
        )
    den = lcm * math.perm(top, k) * q ** (a + k)
    return Fraction(num, den) if unit == 1 else unit * num / den


class DegreeSums(dict):
    """A polynomial's degree sums {s: {a: S_s(a)}}, S_s(a) = sum_{|alpha|=a}
    c_alpha C_s(alpha), for s = 1 (cube cells, faces) and s = 2 (diagonal
    sheets): the part of every integral of the polynomial that depends on
    neither the radius nor the weight.  Each table is built on first use.

    The terms are grouped by (degree, coefficient denominator).  A group
    sums c.numerator * N in integers over the lcm of its cell factors'
    denominators Q (C_s = N/Q), widened term by term, and becomes one
    Fraction; a degree's groups are added as Fractions.  So
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
        sums = {}
        for (a, cd), (acc, den) in groups.items():
            term = Fraction(acc, cd * den)
            if a in sums:
                sums[a] += term
            else:
                sums[a] = term
        self[s] = sums  # stored whole, so a shared instance never shows a partial table
        return sums


# The degree sums of the last polynomial an integrate_* function saw.  It is
# matched by identity: Poly is unhashable (its terms are a dict) and an
# equality test would compare those dicts on every call.  The entry holds
# the polynomial, so its id cannot be reused while it is cached.
_last: DegreeSums | None = None


def _degree_sums(p: Poly) -> DegreeSums:
    """p's degree sums, shared by consecutive calls on the same object."""
    global _last
    sums = _last
    if sums is None or sums.poly is not p:
        sums = _last = DegreeSums(p)
    return sums


def integral(
    d: CubeDomain, region: Region, w: UniPoly | None = None, scale: RationalLike = 1
) -> Callable[[DegreeSums], Fraction | int]:
    """scale * sum_a S_s(a) * R_phi(a + n - s, r) over region for the
    profile phi = w, or * r^(a + n - 1) on the boundary (where w is
    ignored), as one linear functional of a polynomial's degree sums.

    The constant `scale` (a term's reciprocal mass, the factor 2 of a
    diagonal and the term's sign) and the power of r that grows with the
    dimension, r^(n - s + 1) (r^(n - 1) on the boundary), are multiplied
    once into a unit, and the unit into the radial factor of each degree,
    as _radial describes; a unit of 1 (scale 1 at r = 1) is neither built
    nor multiplied.  Each factor is computed once per degree for the life
    of the returned function; a residual is then the sum of its row's
    functionals.
    A parity-odd polynomial (each term has an odd exponent, so its degree
    sums are empty) gives the exact integer 0 with no Fraction arithmetic.
    Any other value is a Fraction.
    """
    s = 2 if region is Region.DIAGONAL else 1
    shift = d.n - s
    phi = None if region is Region.BOUNDARY else w
    unit = Fraction(scale)
    if d.r != 1:
        unit *= d.r ** (shift if phi is None else shift + 1)
    factors: dict[int, Fraction] = {}

    def value(p: DegreeSums) -> Fraction | int:
        if p.poly.dim != d.n:
            d.check_dim(p.poly)
        total = None  # the first product starts the sum; 0 + Fraction builds a Fraction(0)
        for a, sums in p[s].items():
            if a not in factors:
                factors[a] = _radial(a, shift, d.r, phi, unit)
            term = sums * factors[a]
            total = term if total is None else total + term
        return 0 if total is None else total

    return value


def integrate_cube(p: Poly, d: CubeDomain, w: UniPoly) -> Fraction:
    """Exact integral of p over the solid cube, weighted by the profile w."""
    return Fraction(integral(d, Region.CUBE, w)(_degree_sums(p)))


def integrate_boundary(p: Poly, d: CubeDomain) -> Fraction:
    """Exact integral of p over the cube's boundary (surface measure).

    Sums plain (n-1)-dimensional integrals over the 2n faces; edge and
    corner overlaps have zero surface measure.
    """
    return Fraction(integral(d, Region.BOUNDARY)(_degree_sums(p)))


def integrate_diagonal(p: Poly, d: CubeDomain, w: UniPoly) -> Fraction:
    """Exact integral of p over the diagonal set, projected measure,
    weighted by the profile w.

    Each pair i < j contributes four sheets parametrized by the tied value
    t in [0, r] and the free box [-t, t]^(n-2); three-way ties are shared
    sheet boundaries of zero measure.
    """
    return Fraction(integral(d, Region.DIAGONAL, w)(_degree_sums(p)))


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
