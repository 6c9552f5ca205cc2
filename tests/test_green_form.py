"""Each residual is a cube integral of a Laplacian of its input.

The paper derives its mean-value formulas from Green's identity on the
cube.  In the engine's closed forms that identity holds exactly for every
polynomial p, harmonic or not.  With Mc(k) the cube mass at power k, Mb
the boundary mass and u = r - M:

  residual_weighted_quadrature(p, d, phi)  ==  int_cube phi(u) Lap p
  residual_volume_mean(p, d, k) * Mc(k)    ==  int_cube u^(k+2)/(k+2)! Lap p
  residual_surface_mean(p, d) * Mb         ==  int_cube u Lap p
  Pizzetti functional of p at order m      ==  int_cube phi(u) Lap^m p

for profiles phi vanishing to order 2 (2m for Pizzetti) at 0; the
Pizzetti functional is its row before the polyharmonic check.  Every
residual therefore vanishes on each harmonic (m-polyharmonic) polynomial.
By linearity the monomial sweep below checks the equalities for every
polynomial of degree <= 10 at n = 2..5; neither test builds a basis, so
both stand beside the basis recursion.

For every degree, the quadrature equality on one even monomial x^alpha
with the profile u^j/j! reduces to an identity of the cell factors, which
sympy proves for symbolic exponents at n = 2..6 (the last test).  With
v_i = alpha_i + 1, E = sum v_i and B = prod 2/v_i,

  C_1(alpha)(E-1)(E-2) - 2 C_2(alpha)(E-2)
      = sum_i alpha_i(alpha_i-1) C_1(alpha - 2e_i)
      = B (E-2)(sum v_i^2 - E).

The radial factors close the proof.  The factor of u^j/j! is
R(A, j) = A! r^(A+j+1) / (A+j+1)!, which the engine's _radial matches at
the points of the radial test.  The quadrature row of x^alpha is
C_1(alpha) R(E-1, j-2) - 2 C_2(alpha) R(E-2, j-1), each term of
Lap x^alpha carries R(E-3, j), and sympy proves, for symbolic E and j,

  R(E-1, j-2) = (E-1)(E-2) R(E-3, j),    R(E-2, j-1) = (E-2) R(E-3, j).

So the quadrature equality is the cell-factor identity times R(E-3, j):
it holds for every even monomial (an odd one integrates to 0 on both
sides) and every power profile with j >= 2, so for every degree, and by
linearity for every profile that vanishes to order 2.  The Pizzetti row
of order m is the sum over s < m of the quadrature equality for the
profile phi^(2s) and Lap^(m-1-s) p, whose cube terms telescope to
int_cube phi^(2m) p - int_cube phi Lap^m p.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Callable

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import polys_st
import cubeharm.identities as identities
from cubeharm.identities import (
    residual_surface_mean,
    residual_volume_mean,
    residual_weighted_quadrature,
)
from cubeharm.integrate import (
    CubeDomain,
    Region,
    Weight,
    _cell_factors,
    _radial,
    integral,
    integrate_cube,
    measure,
)
from cubeharm.parser import parse_unipoly
from cubeharm.poly import Poly, iterated_laplacian, laplacian

RADII = (Fraction(1, 2), Fraction(1), Fraction(3))
KS = (0, 2)
QUADRATURE_PHI = parse_unipoly("t^2/2 - 3*t^3 + t^5/7")
# profile vanishing to order 2m at 0, for m = 1, 2, 3
PIZZETTI_PHIS = {m: parse_unipoly(f"t^{2 * m}/5 + 2*t^{2 * m + 3}") for m in (1, 2, 3)}


def green_mismatches(p: Poly, d: CubeDomain) -> list[str]:
    """The equalities of the module docstring that fail for p on d, through
    the public residual functions."""
    lap = laplacian(p)
    failed = []
    if residual_weighted_quadrature(p, d, QUADRATURE_PHI) != integrate_cube(
        lap, d, QUADRATURE_PHI
    ):
        failed.append("quadrature")
    for k in KS:
        mass = measure(d, Region.CUBE, k)
        if residual_volume_mean(p, d, k) * mass != integrate_cube(lap, d, Weight.power(k + 2)):
            failed.append(f"volume k={k}")
    if residual_surface_mean(p, d) * measure(d, Region.BOUNDARY) != integrate_cube(
        lap, d, Weight.power(1)
    ):
        failed.append("surface")
    for m, phi in PIZZETTI_PHIS.items():
        functional = identities._green(d, phi, m)(identities._laplacian_chain(p, m))
        if functional != integrate_cube(iterated_laplacian(p, m), d, phi):
            failed.append(f"pizzetti m={m}")
    return failed


def rows(d: CubeDomain) -> list[tuple[str, Fraction, Callable, int, Callable]]:
    """(name, mass, row, m, cube integral) for each equality, built once per
    cube: the row of an element's Laplacian chain (what the public residual
    function evaluates), times the mass, equals the cube integral of the
    chain's link m."""
    out = [
        ("quadrature", 1, identities._green(d, QUADRATURE_PHI, 1), 1, QUADRATURE_PHI),
        ("surface", measure(d, Region.BOUNDARY), identities._surface_row(d), 1, Weight.power(1)),
    ]
    for k in KS:
        row = identities._volume_row(d, k)
        out.append((f"volume k={k}", measure(d, Region.CUBE, k), row, 1, Weight.power(k + 2)))
    for m, phi in PIZZETTI_PHIS.items():
        out.append((f"pizzetti m={m}", 1, identities._green(d, phi, m), m, phi))
    return [(name, mass, row, m, integral(d, Region.CUBE, w)) for name, mass, row, m, w in out]


def test_every_monomial_of_degree_at_most_10():
    checked = 0
    for n in range(2, 6):
        exponents = [e for e in product(range(11), repeat=n) if sum(e) <= 10]
        for r in RADII:
            d = CubeDomain(n, r)
            checks = rows(d)
            volume = identities._volume_row(d, 0)
            for alpha in exponents:
                chain = identities._laplacian_chain(Poly.monomial(n, alpha), max(PIZZETTI_PHIS))
                for name, mass, row, m, cube in checks:
                    assert row(chain) * mass == cube(chain[m]), (name, n, r, alpha)
                    checked += 1
                # not 0 = 0: Lap x^alpha has positive coefficients, so the
                # residual is nonzero exactly for even non-harmonic monomials
                even = not any(e % 2 for e in alpha)
                assert (volume(chain) != 0) == (even and sum(alpha) >= 2)
    assert checked == 3 * (66 + 286 + 1001 + 3003) * 7


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=5),
    r=st.fractions(min_value=Fraction(1, 8), max_value=Fraction(4), max_denominator=8),
)
def test_random_non_harmonic_polynomials(data, n, r):
    p = data.draw(polys_st(n, max_degree=7, max_terms=5))
    assume(not laplacian(p).is_zero)
    assert green_mismatches(p, CubeDomain(n, r)) == []


def test_cell_factor_identity_for_symbolic_exponents():
    import sympy as sp

    def cells(v) -> tuple:
        """(C_1, C_2) = B * (e_1(v), e_2(v)), the engine's closed form."""
        box = sp.Mul(*(2 / vi for vi in v))
        return box * sp.Add(*v), box * sp.Add(*(a * b for a, b in combinations(v, 2)))

    for n in range(2, 7):
        v = sp.symbols(f"v1:{n + 1}", positive=True)
        c1, c2 = cells(v)
        e = sp.Add(*v)
        lhs = c1 * (e - 1) * (e - 2) - 2 * c2 * (e - 2)
        # alpha_i(alpha_i - 1) = (v_i - 1)(v_i - 2); alpha - 2e_i has v_i - 2
        rhs = sp.Add(
            *((vi - 1) * (vi - 2) * cells(v[:i] + (vi - 2,) + v[i + 1 :])[0] for i, vi in enumerate(v))
        )
        closed = sp.Mul(*(2 / vi for vi in v)) * (e - 2) * (sp.Add(*(vi**2 for vi in v)) - e)
        assert sp.cancel(lhs - closed) == 0, n
        assert sp.cancel(rhs - closed) == 0, n
        # the symbolic factors are the engine's at even exponents
        for alpha in [(0,) * n, (2,) + (0,) * (n - 1), tuple(range(0, 2 * n, 2)), (8, 4) + (2,) * (n - 2)]:
            values = dict(zip(v, (a + 1 for a in alpha)))
            assert (c1.subs(values), c2.subs(values)) == _cell_factors(alpha)


def test_radial_factor_identities_for_symbolic_degree():
    import sympy as sp

    e, j, r = sp.symbols("E j r", positive=True, integer=True)

    def radial(a, j):
        """R(A, j), the radial factor of u^j/j!."""
        return sp.factorial(a) * r ** (a + j + 1) / sp.factorial(a + j + 1)

    assert sp.gammasimp(radial(e - 1, j - 2) - (e - 1) * (e - 2) * radial(e - 3, j)) == 0
    assert sp.gammasimp(radial(e - 2, j - 1) - (e - 2) * radial(e - 3, j)) == 0
    # R is the engine's radial factor
    for a, shift, q, k in [(0, 1, Fraction(1), 0), (4, 2, Fraction(3, 2), 3), (6, 3, Fraction(2, 7), 5)]:
        value = _radial(a, shift, q, Weight.power(k), 1) * q ** (shift + 1)
        assert value == radial(a + shift, k).subs(r, sp.Rational(q.numerator, q.denominator))
