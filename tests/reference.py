"""Independent symbolic reference for the exact integration engine.

Everything here goes through sympy's univariate integrator on explicit cell
parametrizations, so no Beta-moment closed form or monomial bookkeeping is
shared with the engine under test.  Values come back as exact Fractions.

Run as a script to regenerate the frozen constants used in the test suite:

    python3 tests/reference.py
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import sympy as sp

from cubeharm.integrate import CubeDomain, Weight, integrate_diagonal
from cubeharm.poly import Poly, UniPoly, grlex_key, partial


def _to_sympy(p: Poly, xs) -> sp.Expr:
    total = sp.Integer(0)
    for exps, coeff in p.terms.items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for x, e in zip(xs, exps):
            term *= x**e
        total += term
    return total


def _profile_sympy(profile: UniPoly, u) -> sp.Expr:
    total = sp.Integer(0)
    for power, c in profile.terms.items():
        total += sp.Rational(c.numerator, c.denominator) * u**power
    return total


def _fraction(value) -> Fraction:
    value = sp.nsimplify(value)
    return Fraction(int(sp.numer(value)), int(sp.denom(value)))


def ref_cube(p: Poly, r: Fraction, profile: UniPoly) -> Fraction:
    """Weighted cube integral via per-cell iterated sympy integration."""
    n = p.dim
    xs = sp.symbols(f"x1:{n + 1}")
    t = sp.Symbol("t", nonnegative=True)
    rr = sp.Rational(r.numerator, r.denominator)
    expr = _to_sympy(p, xs)
    w = _profile_sympy(profile, rr - t)
    total = sp.Integer(0)
    for i in range(n):
        for sigma in (1, -1):
            cell = expr.subs(xs[i], sigma * t)
            for k in range(n):
                if k != i:
                    cell = sp.integrate(cell, (xs[k], -t, t))
            total += sp.integrate(cell * w, (t, 0, rr))
    return _fraction(total)


def ref_boundary(p: Poly, r: Fraction) -> Fraction:
    n = p.dim
    xs = sp.symbols(f"x1:{n + 1}")
    rr = sp.Rational(r.numerator, r.denominator)
    expr = _to_sympy(p, xs)
    total = sp.Integer(0)
    for i in range(n):
        for sigma in (1, -1):
            face = expr.subs(xs[i], sigma * rr)
            for k in range(n):
                if k != i:
                    face = sp.integrate(face, (xs[k], -rr, rr))
            total += face
    return _fraction(total)


def ref_diagonal(p: Poly, r: Fraction, profile: UniPoly) -> Fraction:
    """Projected-measure diagonal integral via per-sheet parametrization."""
    n = p.dim
    xs = sp.symbols(f"x1:{n + 1}")
    t = sp.Symbol("t", nonnegative=True)
    rr = sp.Rational(r.numerator, r.denominator)
    expr = _to_sympy(p, xs)
    w = _profile_sympy(profile, rr - t)
    total = sp.Integer(0)
    for i in range(n):
        for j in range(i + 1, n):
            for si, sj in itertools.product((1, -1), repeat=2):
                sheet = expr.subs({xs[i]: si * t, xs[j]: sj * t})
                for k in range(n):
                    if k not in (i, j):
                        sheet = sp.integrate(sheet, (xs[k], -t, t))
                total += sp.integrate(sheet * w, (t, 0, rr))
    return _fraction(total)


def cell_factor(alpha: tuple[int, ...], s: int) -> Fraction:
    """C_s(alpha) by its definition: 2^s times the box factors
    prod_{k not tied} 2 / (alpha_k + 1) summed over every choice of s tied
    axes; zero when an exponent is odd.  C(n, s) subsets of O(n) work each,
    the reference for the engine's closed form."""
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


def _square(p: Poly) -> Poly:
    """p * p, multiplied in integers over one common denominator."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    ints = [(e, c.numerator * (den // c.denominator)) for e, c in p.terms.items()]
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in ints:
        for eb, cb in ints:
            key = tuple(map(operator.add, ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return Poly(p.dim, {e: Fraction(v, den * den) for e, v in out.items()})


def vanishes_on_diagonal(p: Poly, d: CubeDomain) -> bool:
    """p^2 is continuous and nonnegative and every sheet has positive mass,
    so p vanishes on the diagonal set iff the diagonal integral of p^2 is
    zero.  The engine's former test, the reference for its substitution."""
    return integrate_diagonal(_square(p), d, Weight.power(0)) == 0


def gradient_vanishes_on_diagonal(p: Poly, d: CubeDomain) -> bool:
    return all(vanishes_on_diagonal(partial(p, axis), d) for axis in range(1, p.dim + 1))


def divide_exact(p: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Division by the graded-lex leading term of divisor, rebuilding the
    working polynomial at every step: the engine's former loop, the
    reference for its in-place dict one."""
    lead_e, lead_c = divisor.leading_term()
    quotient = Poly.zero(p.dim)
    remainder = Poly.zero(p.dim)
    work = p
    while not work.is_zero:
        exps, coeff = max(work.terms.items(), key=lambda kv: grlex_key(kv[0]))
        diff = tuple(a - b for a, b in zip(exps, lead_e))
        if all(e >= 0 for e in diff):
            term = Poly.monomial(p.dim, diff, coeff / lead_c)
            quotient = quotient + term
            work = work - term * divisor
        else:
            term = Poly.monomial(p.dim, exps, coeff)
            remainder = remainder + term
            work = work - term
    return quotient, remainder


def _omega(k: int) -> UniPoly:
    import math

    return UniPoly.monomial(k, Fraction(1, math.factorial(k)))


if __name__ == "__main__":
    from cubeharm.onesided import pair_square_product
    from cubeharm.parser import parse_poly

    def pp(text, n):
        return parse_poly(text, dim=n)

    print("V3 =", ref_cube(pair_square_product(3), Fraction(1), _omega(0)))
    f1 = pp("x1^2*x2^2", 2)
    h1 = pp("-1/4*x1^4 + 3/2*x1^2*x2^2 - 1/4*x2^4", 2)
    print("W(t^3/6, ex1) =", ref_cube(f1 - h1, Fraction(1), UniPoly.monomial(1)))
    print("diag(x1^2*x2^2, (3,1), k=2) =", ref_diagonal(pp("x1^2*x2^2", 3), Fraction(1), _omega(2)))
    print("cube(x1^2*x2^4, (3,1), k=2) =", ref_cube(pp("x1^2*x2^4", 3), Fraction(1), _omega(2)))
    print("boundary(x1^2*x2^4, (3,2)) =", ref_boundary(pp("x1^2*x2^4", 3), Fraction(2)))
    print("L1(example 2) =", ref_cube(pp("28*x1^6*x2^2-56*x1^4*x2^4+28*x1^2*x2^6", 2), Fraction(1), _omega(0)))
