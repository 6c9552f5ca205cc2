"""Bases of harmonic and polyharmonic polynomials by triangular recursion.

The m-fold Laplacian maps homogeneous degree-d polynomials linearly onto
degree d - 2m, so its kernel is computed degree by degree.  Write
g = sum_j x1^j g_j(x2..xn) and let Lap' be the Laplacian in x2..xn.  The
coefficient of x1^j in Lap^m g is
sum_{a<=m} C(m,a) (j+2a)!/j! Lap'^(m-a) g_(j+2a), so g is in the kernel iff

    g_(j+2m) = -j!/(j+2m)! * sum_{a<m} C(m,a) (j+2a)!/j! * Lap'^(m-a) g_(j+2a)

for every j >= 0.  The slices g_0 .. g_(2m-1) are free and determine the
rest.  For m = 1 this is the harmonic extension of Axler, Bourdon & Ramey,
*Harmonic Function Theory* (2nd ed., GTM 137, ch. 5); for m > 1 it is the
Almansi-type expansion of Aronszajn, Creese & Lipkin, *Polyharmonic
Functions* (1983).

The free monomials are those with x1-exponent <= 2m - 1, taken in
descending graded-lex order, and each basis element has coefficient 1 at
its own free monomial and 0 at every other free monomial.  In that order
the monomials with x1-exponent >= 2m come first and map triangularly (in
the x1-exponent) onto all of degree d - 2m, so they are the pivot columns
of the reduced row echelon form and the free monomials are its free
columns: the basis is the one exact elimination gives (pivot columns solved
for, free coordinate 1), with no matrix built.  Nothing is normalized, so
two runs emit byte-identical bases.

The recursion runs in Python integers: each slice and each of its
Laplacians is an integer term map over one positive denominator, and a
Fraction is built only once per term of the finished element.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .poly import (
    Exponent,
    Poly,
    Value,
    _laplacian_terms,
    grlex_key,
    iterated_laplacian,
)

# Exponent entries (n for each monomial of degree <= max_degree, times the
# polyharmonic order m) a basis request may span.  On a shared 2-core x86_64
# VM the basis costs about 0.1 ms a monomial and a verify run over it about
# 0.5 ms (1.5 ms with all four identities), and the m-fold recursion and a
# Pizzetti suite's m + 1 integrals per profile multiply that by about m:
# `basis --n 3 --deg 40 --m 3`, admitted without the factor m, took 8.4 s.
# As whole processes, the largest admitted request for each (n, m) with
# n <= 20 and m <= 4 took at most 3.1 s (`verify --n 3 --deg 32
# --identities pizzetti --m 2`; `--deg 27 --m 3` 2.5 s, and `verify --n 4
# --deg 19 --identities surface,volume` 1.2 s).  At n = 8 and m = 1 the
# limit is degree 6 (3003 monomials).  Counting n per monomial also bounds
# the exponent tuples of high-dimensional requests.
MAX_BASIS_EXPONENTS = 40_000


def _exponent_entries(n: int, max_degree: int) -> int:
    """n * sum_{d <= max_degree} C(n+d-1, d), or any larger number once that
    exceeds MAX_BASIS_EXPONENTS."""
    monomials = 1  # C(n + k, k): monomials of degree <= k
    for k in range(1, max_degree + 1):
        if n * monomials > MAX_BASIS_EXPONENTS:
            break
        monomials = monomials * (n + k) // k
    return n * monomials


class BasisRequest(Value):
    """Ask for all polynomials of degree <= max_degree annihilated by the
    m-fold Laplacian in dimension n (m = 1 means harmonic)."""

    __slots__ = ("n", "max_degree", "m")
    _defaults = {"m": 1}

    def validate(self) -> None:
        """Refuse a request with a nonpositive n or m, a negative degree, or
        more exponent entries than MAX_BASIS_EXPONENTS; nothing else bounds
        its dimension or degree."""
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {self.max_degree}")
        if self.m < 1:
            raise ValueError(f"polyharmonic order must be >= 1, got {self.m}")
        if self.m * _exponent_entries(self.n, self.max_degree) > MAX_BASIS_EXPONENTS:
            raise ValueError(
                f"basis request n={self.n}, degree <= {self.max_degree} spans more than "
                f"{MAX_BASIS_EXPONENTS} exponent entries (n for each monomial, times m = {self.m})"
            )


class BasisSet(Value):
    __slots__ = ("elements",)  # tuple[Poly, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def monomials_of_degree(n: int, d: int) -> list[Exponent]:
    """All exponent tuples of total degree d, descending graded-lex order."""
    out: list[Exponent] = []
    for axes in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in axes:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(key=grlex_key, reverse=True)
    return out


def _extend(free: Exponent, d: int, m: int) -> dict[Exponent, Fraction]:
    """Term map of the kernel element with coefficient 1 at the free monomial
    `free` and 0 at every other free monomial of degree d.

    Slices g_j (polynomials in x2..xn) are keyed by the power j of x1; only
    those with j = free[0] (mod 2) and j >= free[0] can be nonzero.  Each is
    held as integers G_j over a denominator D_j > 0, g_j = G_j / D_j, and so
    is its chain of Laplacians.  With L the lcm of the D_(j+2a) in a step,
    the recursion's coefficient -C(m,a) (j+2a)!/(j+2m)! is the integer
    -C(m,a) perm(j+2a, 2a) L/D_(j+2a) over L perm(j+2m, 2m), and the new
    slice is divided by the gcd of its coefficients and that denominator.
    """
    j0 = free[0]
    slices = {j0: ({free[1:]: 1}, 1)}  # j -> (G_j, D_j)
    chains: dict[int, list[dict[Exponent, int]]] = {}  # j -> [G_j, Lap' G_j, ...]

    def lap_power(j: int, k: int) -> dict[Exponent, int]:
        chain = chains.setdefault(j, [slices[j][0]])
        while len(chain) <= k:
            chain.append(_laplacian_terms(chain[-1]))
        return chain[k]

    for j in range(j0 % 2, d - 2 * m + 1, 2):
        present = [a for a in range(m) if j + 2 * a in slices]
        if not present:
            continue
        lcd = math.lcm(*(slices[j + 2 * a][1] for a in present))
        acc: dict[Exponent, int] = {}
        for a in present:
            c = -math.comb(m, a) * math.perm(j + 2 * a, 2 * a) * (lcd // slices[j + 2 * a][1])
            for beta, v in lap_power(j + 2 * a, m - a).items():
                acc[beta] = acc.get(beta, 0) + c * v
        acc = {beta: v for beta, v in acc.items() if v}
        if acc:
            denom = lcd * math.perm(j + 2 * m, 2 * m)
            g = math.gcd(denom, *acc.values())
            slices[j + 2 * m] = {beta: v // g for beta, v in acc.items()}, denom // g
    return {
        (j,) + beta: Fraction(c, denom)
        for j, (s, denom) in slices.items()
        for beta, c in s.items()
    }


def homogeneous_kernel(n: int, d: int, m: int = 1) -> BasisSet:
    """Basis of homogeneous degree-d polynomials annihilated by the m-fold
    Laplacian: one element per free monomial (x1-exponent <= 2m - 1), in
    descending graded-lex order."""
    if n < 1 or d < 0 or m < 1:
        raise ValueError(f"invalid kernel request n={n}, d={d}, m={m}")
    elements = tuple(
        Poly._from_clean(n, _extend(e, d, m))
        for e in monomials_of_degree(n, d)
        if e[0] < 2 * m
    )
    return BasisSet(elements)


def graded_basis(req: BasisRequest) -> BasisSet:
    """Concatenation of the homogeneous kernels for d = 0 .. max_degree."""
    req.validate()
    elements: list[Poly] = []
    for d in range(req.max_degree + 1):
        elements.extend(homogeneous_kernel(req.n, d, req.m).elements)
    return BasisSet(tuple(elements))


def is_polyharmonic(p: Poly, m: int) -> bool:
    """True iff the m-fold Laplacian of p vanishes identically."""
    if m < 1:
        raise ValueError(f"polyharmonic order must be >= 1, got {m}")
    return iterated_laplacian(p, m).is_zero
