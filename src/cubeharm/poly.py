"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial in n variables is stored as a mapping from exponent tuples to
Fraction coefficients:

    x1^2 * x2  in dim 2  ->  {(2, 1): Fraction(1)}

Zero coefficients are never stored, so equality of the term maps is equality
of polynomials.  All arithmetic is exact; no floats enter this module.

Terms are ordered graded-lexicographically (total degree first, then
lexicographic with x1 strongest).  Serialization walks terms in descending
graded-lex order, which makes the text form canonical: equal polynomials
serialize to byte-identical strings.

Variables are addressed 1-based (axis 1 is x1), matching the surface syntax
used by the parser and the CLI.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]
RationalLike = Fraction | int | str

# Python reads and prints no integer of more than 4300 digits, so no input
# literal, radius or printed exact value may have more.
MAX_DIGITS = 4300


class DimensionMismatchError(ValueError):
    """Operands or arguments live in different ambient dimensions."""


_set = object.__setattr__  # sets a field past Value.__setattr__


class Value:
    """Base of the immutable value classes.  A subclass names its fields in
    __slots__, in positional order, and defaults in _defaults; one built on a
    hot path sets them in its own positional __init__ with _set, at half the
    cost of this one.  Values compare and hash by class and field tuple, print
    as Name(field=value, ...), refuse assignment and deletion, and pickle and
    copy by calling the class with their fields."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got {args} {kwargs}")
        for name in names:
            _set(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


def grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing graded-lexicographic order (ascending)."""
    return (sum(exps), exps)


def rational_to_text(q: Fraction) -> str:
    """Render a rational as "p/q" with the sign on the numerator, refused
    past MAX_DIGITS digits."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise ValueError(
            f"exact value has more than {MAX_DIGITS} digits in its numerator or denominator"
        )


class Poly(Value):
    """Immutable sparse polynomial over Fraction coefficients."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Exponent, RationalLike] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != dim:
                raise DimensionMismatchError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {dim}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        _set(self, "dim", dim)
        _set(self, "_terms", clean)

    @classmethod
    def _from_clean(cls, dim: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap a term map that is clean by construction: exponent tuples of
        length dim with no negative entry, nonzero Fraction coefficients.
        The map is taken as is, not checked or copied."""
        p = object.__new__(cls)
        _set(p, "dim", dim)
        _set(p, "_terms", terms)
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value: RationalLike) -> "Poly":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "Poly":
        """The polynomial x_axis (1-based axis index)."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        exps = [0] * dim
        exps[axis - 1] = 1
        return cls(dim, {tuple(exps): 1})

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], coeff: RationalLike = 1) -> "Poly":
        return cls(dim, {tuple(exps): coeff})

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max(map(sum, self._terms), default=0)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self._terms, key=grlex_key)
        return exps, self._terms[exps]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, False)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, True)

    def _plus(self, other: "Poly", sub: bool) -> "Poly":
        """self + other, or self - other when sub, on a new clean term map:
        a key only in other takes its (negated) coefficient, and a key whose
        sum cancels is dropped."""
        self._check_same_dim(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            if exps not in out:
                out[exps] = -coeff if sub else coeff
            elif value := out[exps] - coeff if sub else out[exps] + coeff:
                out[exps] = value
            else:
                del out[exps]
        return Poly._from_clean(self.dim, out)

    def __neg__(self) -> "Poly":
        return Poly._from_clean(self.dim, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_same_dim(other)
            out: dict[Exponent, Fraction] = {}
            for ea, ca in self._terms.items():
                for eb, cb in other._terms.items():
                    key = tuple(a + b for a, b in zip(ea, eb))
                    out[key] = out.get(key, 0) + ca * cb
            return Poly(self.dim, out)
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.dim, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, c: RationalLike) -> "Poly":
        c = Fraction(c)
        return Poly(self.dim, {e: c * v for e, v in self._terms.items()})

    __rmul__ = scale

    def _check_same_dim(self, other: "Poly") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __hash__(self):  # Value's hash of the fields fails on the term dict
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Poly({self.dim}, {poly_to_text(self)!r})"


def evaluate(p: Poly, point: Sequence[RationalLike]) -> Fraction:
    """Exact evaluation of p at a rational point."""
    if len(point) != p.dim:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, polynomial has dimension {p.dim}"
        )
    vals = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for v, e in zip(vals, exps):
            if e:
                term *= v**e
        total += term
    return total


def _integer_terms(terms: Mapping[Exponent, Fraction]) -> tuple[dict[Exponent, int], int]:
    """A term map as integers over its least common denominator D > 0:
    the integer map C with terms[e] == C[e] / D for every exponent e."""
    denom = math.lcm(*(c.denominator for c in terms.values()))
    return {exps: c.numerator * (denom // c.denominator) for exps, c in terms.items()}, denom


def partial(p: Poly, axis: int) -> Poly:
    """Exact partial derivative with respect to x_axis (1-based)."""
    if not 1 <= axis <= p.dim:
        raise ValueError(f"axis {axis} out of range for dimension {p.dim}")
    i = axis - 1
    out: dict[Exponent, Fraction] = {}
    for exps, coeff in p.terms.items():
        e = exps[i]
        if e == 0:
            continue
        new = list(exps)
        new[i] = e - 1
        key = tuple(new)
        out[key] = out.get(key, 0) + coeff * e
    return Poly(p.dim, out)


def _laplacian_terms(terms: Mapping[Exponent, int]) -> dict[Exponent, int]:
    """Laplacian of an integer term map {exponent: coefficient}, zero terms
    dropped.  It has integer coefficients, so a map over a common
    denominator keeps that denominator."""
    out: dict[Exponent, int] = {}
    for exps, coeff in terms.items():
        for i, e in enumerate(exps):
            if e > 1:
                key = exps[:i] + (e - 2,) + exps[i + 1 :]
                out[key] = out.get(key, 0) + coeff * (e * (e - 1))
    return {e: c for e, c in out.items() if c}


def laplacian(p: Poly) -> Poly:
    """Sum of second partials over all axes.

    Computed in integers over the least common denominator D of p's
    coefficients, with one Fraction(c, D) per term of the result, so a
    harmonic p builds no Fraction.  The zero polynomial is returned as is.
    """
    if not p.terms:
        return p
    ints, denom = _integer_terms(p.terms)
    lap = _laplacian_terms(ints)
    return Poly._from_clean(p.dim, {e: Fraction(c, denom) for e, c in lap.items()})


def iterated_laplacian(p: Poly, m: int) -> Poly:
    """m-fold Laplacian, m >= 1."""
    if m < 1:
        raise ValueError(f"iteration count must be >= 1, got {m}")
    for _ in range(m):
        p = laplacian(p)
    return p


# -- univariate profiles -----------------------------------------------------


class UniPoly(Value):
    """Univariate polynomial with Fraction coefficients, index = power.

    Used for radial weight profiles in the variable t.  Trailing zero
    coefficients are trimmed so representations are canonical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _set(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls([])

    @classmethod
    def monomial(cls, power: int, coeff: RationalLike = 1) -> "UniPoly":
        return cls([Fraction(0)] * power + [coeff])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> Fraction:
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else Fraction(0)

    def derivative(self, order: int = 1) -> "UniPoly":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order == 0:
            return self
        # coefficient of t^(i - order) picks up the falling factorial i!/(i-order)!
        return UniPoly(
            c and c * math.perm(i, order) for i, c in enumerate(self.coeffs) if i >= order
        )

    def __call__(self, value: RationalLike) -> Fraction:
        v = Fraction(value)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * v + c
        return total

    def __repr__(self) -> str:
        return f"UniPoly({uni_to_text(self)!r})"


def _uni_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Long division over Q: a = quotient * b + remainder, b nonzero."""
    rem = list(a.coeffs)
    quot = [0] * max(0, len(rem) - b.degree)
    while len(rem) > b.degree:
        shift = len(rem) - 1 - b.degree
        c = rem[-1] / b.coeffs[-1]
        quot[shift] = c
        for i, bc in enumerate(b.coeffs):
            rem[shift + i] -= c * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return UniPoly(quot), UniPoly(rem)


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
        sturm.append(UniPoly(-c for c in _uni_divmod(sturm[-2], sturm[-1])[1].coeffs))
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


# -- text forms ---------------------------------------------------------------


def _term_to_text(exps: Exponent, coeff: Fraction, var: str = "x") -> str:
    parts = [rational_to_text(coeff)]
    for i, e in enumerate(exps):
        if e:
            name = var if var == "t" else f"{var}{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _terms_to_text(terms: Iterable[tuple[Exponent, Fraction]], var: str = "x") -> str:
    """Nonzero terms, leading term first, joined by their signs; "0/1" when
    there are none."""
    pieces: list[str] = []
    for exps, coeff in terms:
        if pieces and coeff.numerator < 0:
            pieces.append("- " + _term_to_text(exps, -coeff, var))
        else:
            pieces.append(("+ " if pieces else "") + _term_to_text(exps, coeff, var))
    return " ".join(pieces) or "0/1"


def poly_to_text(p: Poly) -> str:
    """Canonical text form: descending graded-lex terms, coefficients as "p/q".

    The empty polynomial serializes as "0/1".  parse_poly inverts this
    byte-exactly.
    """
    return _terms_to_text(p.sorted_terms())


def uni_to_text(phi: UniPoly) -> str:
    """Canonical text form of a univariate profile in the variable t."""
    return _terms_to_text((((i,), c) for i, c in reversed(list(enumerate(phi.coeffs))) if c), "t")


# -- generic polynomial algorithms ---------------------------------------------


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
