"""Exact weighted integration over the hypercube, its boundary, and the
diagonal set where two coordinates tie for the maximum absolute value.

Geometry.  Write M(x) = max_i |x_i| for x in the cube [-r, r]^n.  The cube
splits into 2n cells on which a fixed signed coordinate attains M; on such a
cell the substitution t = |x_i| leaves a box [-t, t]^(n-1) in the remaining
coordinates.  The diagonal sheets split the same way with two tied
coordinates, and the boundary faces are the cells' outer ends t = r.  So
every region reduces to one moment functional.  For a monomial x^alpha with
all exponents even (odd ones integrate to zero by symmetry), a profile phi
and

    C_s(alpha) = 2^s * sum_{|S|=s} prod_{k not in S} 2 / (alpha_k + 1),
    R_phi(a, r) = int_0^r t^a phi(r - t) dt,

the moments are

    cube      C_1(alpha) * R_phi(|alpha| + n - 1, r)
    diagonal  C_2(alpha) * R_phi(|alpha| + n - 2, r)
    boundary  C_1(alpha) * r^(|alpha| + n - 1)

and R_phi follows from expanding phi in powers of (r - t) and

    int_0^r t^a (r - t)^b dt = a! b! r^(a+b+1) / (a+b+1)!.

C_s and R_phi are memoized.  Tie sets are lower dimensional and carry no
mass.

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
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import DimensionMismatchError, Exponent, Poly, UniPoly, uni_to_text

RationalLike = Fraction | int | str

_CACHE_SIZE = 4096  # entries per moment-factor cache


@dataclass(frozen=True)
class CubeDomain:
    """The cube [-r, r]^n together with its boundary and diagonal set."""

    n: int
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if self.r <= 0:
            raise ValueError(f"radius must be positive, got {self.r}")


class Region(enum.Enum):
    CUBE = "cube"
    BOUNDARY = "boundary"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class Weight:
    """A radial weight profile evaluated at u = r - M(x).

    `power(k)` builds the profile u^k / k!; `from_profile` wraps an arbitrary
    polynomial profile.  Both run through the same integration path.
    """

    profile: UniPoly
    label: str

    @classmethod
    def power(cls, k: int) -> "Weight":
        if k < 0:
            raise ValueError(f"weight exponent must be >= 0, got {k}")
        return cls(UniPoly.monomial(k, Fraction(1, math.factorial(k))), str(k))

    @classmethod
    def from_profile(cls, phi: UniPoly) -> "Weight":
        return cls(phi, uni_to_text(phi))


def _beta_moment(a: int, b: int, r: Fraction) -> Fraction:
    """int_0^r t^a (r - t)^b dt, exactly."""
    return Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1)) * r ** (
        a + b + 1
    )


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cell_factor(alpha: Exponent, s: int) -> Fraction:
    """C_s(alpha): the box factors summed over every choice of s tied axes;
    zero when an exponent is odd."""
    if any(e % 2 for e in alpha):
        return Fraction(0)
    total = Fraction(0)
    for tied in itertools.combinations(range(len(alpha)), s):
        box = Fraction(1)
        for k, e in enumerate(alpha):
            if k not in tied:
                box *= Fraction(2, e + 1)
        total += box
    return 2**s * total


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _radial(a: int, r: Fraction, coeffs: tuple[Fraction, ...]) -> Fraction:
    """R_phi(a, r) for the profile phi with the given coefficients."""
    return sum((c * _beta_moment(a, b, r) for b, c in enumerate(coeffs) if c), Fraction(0))


def _moment(region: Region, alpha: Exponent, r: Fraction, coeffs: tuple[Fraction, ...]) -> Fraction:
    """Integral of x^alpha phi(r - M) over region; the dimension is len(alpha).

    The boundary moment is unweighted and ignores coeffs.
    """
    s = 2 if region is Region.DIAGONAL else 1
    cells = _cell_factor(alpha, s)
    if cells == 0:
        return cells
    a = sum(alpha) + len(alpha) - s
    if region is Region.BOUNDARY:
        return cells * r**a
    return cells * _radial(a, r, coeffs)


def _check_dim(p: Poly, d: CubeDomain) -> None:
    if p.dim != d.n:
        raise DimensionMismatchError(
            f"polynomial dimension {p.dim} does not match domain dimension {d.n}"
        )


def _integrate(p: Poly, d: CubeDomain, region: Region, coeffs: tuple[Fraction, ...]) -> Fraction:
    _check_dim(p, d)
    total = Fraction(0)
    for alpha, coeff in p.terms.items():
        total += coeff * _moment(region, alpha, d.r, coeffs)
    return total


def integrate_cube(p: Poly, d: CubeDomain, w: Weight) -> Fraction:
    """Exact weighted integral of p over the solid cube."""
    return _integrate(p, d, Region.CUBE, w.profile.coeffs)


def integrate_boundary(p: Poly, d: CubeDomain) -> Fraction:
    """Exact integral of p over the cube's boundary (surface measure).

    Sums plain (n-1)-dimensional integrals over the 2n faces; edge and
    corner overlaps have zero surface measure.
    """
    return _integrate(p, d, Region.BOUNDARY, ())


def integrate_diagonal(p: Poly, d: CubeDomain, w: Weight) -> Fraction:
    """Exact weighted integral of p over the diagonal set, projected measure.

    Each pair i < j contributes four sheets parametrized by the tied value
    t in [0, r] and the free box [-t, t]^(n-2); three-way ties are shared
    sheet boundaries of zero measure.
    """
    return _integrate(p, d, Region.DIAGONAL, w.profile.coeffs)


def measure(d: CubeDomain, region: Region, k: int = 0) -> Fraction:
    """Weighted mass of a region under the power weight of exponent k.

    Cube and diagonal masses are the moments of the constant 1.  Boundary
    masses use the face-local weight convention described in the module
    docstring: each face is the cube moment of 1 in dimension n - 1.  At
    k = 0 this is the ordinary surface area, and the restriction of the
    global weight to the boundary would be identically zero for k >= 1.
    """
    if k < 0:
        raise ValueError(f"weight exponent must be >= 0, got {k}")
    coeffs = Weight.power(k).profile.coeffs
    if region is Region.CUBE or region is Region.DIAGONAL:
        return _moment(region, (0,) * d.n, d.r, coeffs)
    if region is Region.BOUNDARY:
        return 2 * d.n * _moment(Region.CUBE, (0,) * (d.n - 1), d.r, coeffs)
    raise ValueError(f"unknown region {region!r}")
