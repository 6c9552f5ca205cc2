"""Bases of harmonic and polyharmonic polynomials in closed form.

The m-fold Laplacian maps homogeneous degree-d polynomials linearly onto
degree d - 2m, so its kernel is computed degree by degree.  Write
g = sum_j x1^j g_j(x2..xn) and let Lap' be the Laplacian in x2..xn.  The
coefficient of x1^j in Lap^m g is
sum_{a<=m} C(m,a) (j+2a)!/j! Lap'^(m-a) g_(j+2a), so g is in the kernel iff

    g_J = -sum_{a<m} C(m,a) (J-2m+2a)!/J! * Lap'^(m-a) g_(J-2m+2a)

for every J >= 2m.  The slices g_0 .. g_(2m-1) are free and determine the
rest.  Let the free slice g_j0 be the monomial x'^beta in x2..xn and the
other free slices 0.  Then by induction every slice is a scalar multiple of
one polynomial, g_J = c_J Lap'^((J-j0)/2) x'^beta, and the element is

    sum_J c_J x1^J Lap'^((J-j0)/2) x'^beta,

where c_j0 = 1, c_J = 0 for the other J < 2m, and
c_J = -sum_{a<m} C(m,a) (J-2m+2a)!/J! c_(J-2m+2a) for J >= 2m: the
recursion with Lap' dropped.  For m = 1 this is the harmonic extension of
Axler, Bourdon & Ramey, *Harmonic Function Theory* (2nd ed., GTM 137,
ch. 5); for m > 1 it is the Almansi expansion of Aronszajn, Creese &
Lipkin, *Polyharmonic Functions* (1983).

The free monomials are those with x1-exponent <= 2m - 1, taken in
descending graded-lex order, and each basis element has coefficient 1 at
its own free monomial and 0 at every other free monomial.  In that order
the monomials with x1-exponent >= 2m come first and map triangularly (in
the x1-exponent) onto all of degree d - 2m, so they are the pivot columns
of the reduced row echelon form and the free monomials are its free
columns: the basis is the one exact elimination gives (pivot columns solved
for, free coordinate 1), with no matrix built.  Nothing is normalized, so
two runs emit byte-identical bases.

The scalars c depend only on (j0, d, m) and are built once per degree for
each j0.  The chain x'^beta, Lap' x'^beta, ... depends only on beta: it is
held as integer term maps, built once per call, and shared by the 2m
elements (of 2m degrees) that start from beta.  Each term of an element is
one Fraction, c_J times an integer.
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
)

# Exponent entries (n for each monomial of degree <= max_degree, times the
# polyharmonic order m) a basis request may span.  On a shared 2-core x86_64
# VM the basis costs about 0.1 ms a monomial and a verify run over it about
# 0.5 ms (1.5 ms with all four identities), and the m-fold recursion and a
# Pizzetti suite's m + 1 integrals per profile multiply that by about m:
# `basis --n 3 --deg 40 --m 3`, admitted without the factor m, took 8.4 s.
# As whole processes, the largest admitted request for each (n, m) with
# n <= 20 and m <= 4 took at most 0.84 s (`verify --n 3 --deg 32
# --identities pizzetti --m 2`, 0.68-0.73 s in paired runs; `--deg 27 --m 3`
# 0.71-0.75 s, and `verify --n 4 --deg 19 --identities surface,volume`
# 0.44-0.49 s).  At n = 8 and m = 1 the limit is degree 6 (3003 monomials).
# Counting n per monomial also bounds the exponent tuples of
# high-dimensional requests.
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


def _scalars(j0: int, d: int, m: int) -> dict[int, Fraction]:
    """{J: c_J} for the free x1-exponent j0 and J <= d, by the module
    docstring's recursion; c_J is 0 for every J that is not a key."""
    c = {j0: Fraction(1)}
    for J in range(2 * m + j0 % 2, d + 1, 2):
        c[J] = -sum(
            c.get(J - 2 * m + 2 * a, 0) * Fraction(math.comb(m, a), math.perm(J, 2 * m - 2 * a))
            for a in range(m)
        )
    return c


def _elements(n: int, d: int, m: int, chains: dict[Exponent, list[dict[Exponent, int]]]):
    """The degree-d kernel elements, in descending graded-lex order of their
    free monomials x1^j0 x'^beta.  `chains` maps beta to its integer chain
    [x'^beta, Lap' x'^beta, ...], extended here as far as degree d reads it."""
    for j0 in range(min(2 * m - 1, d), -1, -1):
        c = _scalars(j0, d, m)
        for beta in monomials_of_degree(n - 1, d - j0):
            chain = chains.setdefault(beta, [{beta: 1}])
            while len(chain) <= (d - j0) // 2:
                chain.append(_laplacian_terms(chain[-1]))
            yield Poly._from_clean(n, {
                (J,) + gamma: Fraction(q.numerator * v, q.denominator)
                for J, q in c.items() if q
                for gamma, v in chain[(J - j0) // 2].items()
            })


def homogeneous_kernel(n: int, d: int, m: int = 1) -> BasisSet:
    """Basis of homogeneous degree-d polynomials annihilated by the m-fold
    Laplacian: one element per free monomial (x1-exponent <= 2m - 1), in
    descending graded-lex order.  Refused exactly when the graded basis of
    degree <= d is (BasisRequest.validate)."""
    BasisRequest(n, d, m).validate()
    return BasisSet(tuple(_elements(n, d, m, {})))


def graded_basis(req: BasisRequest) -> BasisSet:
    """Concatenation of the homogeneous kernels for d = 0 .. max_degree,
    built over one table of Laplacian chains."""
    req.validate()
    chains: dict[Exponent, list[dict[Exponent, int]]] = {}
    return BasisSet(
        tuple(p for d in range(req.max_degree + 1) for p in _elements(req.n, d, req.m, chains))
    )
