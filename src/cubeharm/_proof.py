"""The certificate algebra of `onesided`: exact division, polynomial square
roots and the Sturm sign test.

  divide_exact         p = quotient * divisor + remainder, so remainder == 0
                       certifies that the divisor divides p
  poly_sqrt            the exact square root of a polynomial, or None
  uni_negative_point   a rational point where a univariate profile is
                       negative, or None when it is nonnegative on [lo, hi]

Only `onesided`, and so only the `approx` subcommand, imports this module;
it sits apart from `poly`, which every CLI process compiles from source.
Certifying code yet to come belongs here as well: an exact Bernstein
subdivision that proves one-sidedness where the grid only samples it, and
an independent checker that re-reads a certificate from its bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Exponent, Poly, UniPoly, _integer_terms, grlex_key


def _uni_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Long division over Q: a = quotient * b + remainder, b nonzero, on a
    dense working list of a's coefficients."""
    deg = b.degree
    rem = [a.terms.get(i, 0) for i in range(a.degree + 1)]
    quot = {}
    while len(rem) > deg:
        shift = len(rem) - 1 - deg
        c = quot[shift] = rem[-1] / b.terms[deg]
        for i, bc in b.terms.items():
            rem[shift + i] -= c * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return UniPoly(quot), UniPoly(dict(enumerate(rem)))


def uni_negative_point(g: UniPoly, lo: Fraction, hi: Fraction) -> Fraction | None:
    """A rational u in [lo, hi] with g(u) < 0, or None if g >= 0 on [lo, hi].

    Exact, with no sampling.  g keeps one sign between consecutive distinct
    real roots, which are the roots of its square-free part s.  The Sturm
    sequence of s counts them: V(a) - V(b) is the number of roots in (a, b].
    Bisection at points that are not roots of s splits (lo, hi] until every
    piece holds at most one root, and a piece with a root starts at a
    non-root.  Then every root-free stretch of [lo, hi] contains lo, hi or a
    split point, so testing those decides the sign.
    """
    if g.is_zero:
        return None
    common = g
    other = g.derivative()
    while not other.is_zero:
        common, other = other, _uni_divmod(common, other)[1]
    s = _uni_divmod(g, common)[0]
    sturm = [s, s.derivative()]
    while not sturm[-1].is_zero:
        rem = _uni_divmod(sturm[-2], sturm[-1])[1]
        sturm.append(UniPoly({i: -c for i, c in rem.terms.items()}))
    sturm.pop()

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (p(x) for p in sturm) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    points = [lo, hi]
    pieces = [(lo, hi)]
    while pieces:
        a, b = pieces.pop()
        roots = variations(a) - variations(b)
        if roots >= 2 or (roots == 1 and s(a) == 0):
            c = (a + b) / 2
            while s(c) == 0:
                c = (a + c) / 2
            points.append(c)
            pieces += [(a, c), (c, b)]
    return next((u for u in sorted(points) if g(u) < 0), None)


def divide_exact(p: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Single-divisor division: p = quotient * divisor + remainder.

    Uses the graded-lex leading term of the divisor; no monomial of the
    remainder is divisible by it.  remainder == 0 therefore certifies exact
    divisibility (and conversely, a multiple always reduces to remainder 0).

    Runs in integers: p is P / D and the divisor V / E over their least
    common denominators, and each step reduces the leading term w of the
    working map P in place by q = w / L, L the integer leading coefficient
    of V.  When L does not divide w, D and every working term are widened by
    |L| / gcd(w, L) first, as integrate._radial widens its denominator; for a
    monic integer divisor such as onesided.pair_square_product D never
    widens.  Each output term is one Fraction: q * E / D in the quotient,
    w / D in the remainder.
    """
    p._check_same_dim(divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_e = divisor.leading_term()[0]
    work, den = _integer_terms(p.terms)
    tail, vden = _integer_terms(divisor.terms)
    lead = tail.pop(lead_e)
    quotient: dict[Exponent, Fraction] = {}
    remainder: dict[Exponent, Fraction] = {}
    while work:
        exps = max(work, key=grlex_key)
        coeff = work.pop(exps)
        diff = tuple(a - b for a, b in zip(exps, lead_e))
        if min(diff) < 0:
            remainder[exps] = Fraction(coeff, den)
            continue
        if coeff % lead:  # widen the common denominator
            wider = abs(lead) // math.gcd(coeff, lead)
            den *= wider
            coeff *= wider
            work = {e: c * wider for e, c in work.items()}
        q = coeff // lead
        quotient[diff] = Fraction(q * vden, den)
        for e, c in tail.items():
            # q and c are nonzero, so only a present term can cancel
            key = tuple(a + b for a, b in zip(diff, e))
            if value := work.get(key, 0) - q * c:
                work[key] = value
            else:
                del work[key]
    return Poly._from_clean(p.dim, quotient), Poly._from_clean(p.dim, remainder)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root of a polynomial, or None when p is not a square.

    Recovers candidate terms of the root in descending graded-lex order and
    verifies root*root == p before returning, so a non-None result is a
    sound certificate.
    """
    if p.is_zero:
        return Poly.zero(p.dim)
    lead_e, lead_c = p.leading_term()
    if any(e % 2 for e in lead_e):
        return None
    root_c = _fraction_sqrt(lead_c)
    if root_c is None:
        return None
    root_e = tuple(e // 2 for e in lead_e)
    root = Poly.monomial(p.dim, root_e, root_c)
    guard = 2 * len(p.terms) + 4
    for _ in range(guard):
        residue = p - root * root
        if residue.is_zero:
            return root
        exps, coeff = residue.leading_term()
        diff = tuple(a - b for a, b in zip(exps, root_e))
        if any(d < 0 for d in diff):
            return None
        root = root + Poly.monomial(p.dim, diff, coeff / (2 * root_c))
    return None
