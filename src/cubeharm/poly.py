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

Every CLI process compiles this module, so it holds only the arithmetic,
derivatives, evaluation and text forms that every subcommand uses.  The
certificate algebra of `onesided` (exact division, square roots and the
Sturm sign test) lives in `_proof`, which only `approx` loads.
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
    cost of this one.  Values compare by class and field tuple and hash by
    the field tuple, a dict field as the frozenset of its items; they print
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
        return hash(tuple(frozenset(f.items()) if type(f) is dict else f for f in self._fields()))

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
    """Immutable sparse polynomial over Fraction coefficients, stored as
    `terms`, a dict {exponent tuple: nonzero coefficient}."""

    __slots__ = ("dim", "terms")

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
        _set(self, "terms", clean)

    @classmethod
    def _from_clean(cls, dim: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap a term map that is clean by construction: exponent tuples of
        length dim with no negative entry, nonzero Fraction coefficients.
        The map is taken as is, not checked or copied."""
        p = object.__new__(cls)
        _set(p, "dim", dim)
        _set(p, "terms", terms)
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
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

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
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps not in out:
                out[exps] = -coeff if sub else coeff
            elif value := out[exps] - coeff if sub else out[exps] + coeff:
                out[exps] = value
            else:
                del out[exps]
        return Poly._from_clean(self.dim, out)

    def __neg__(self) -> "Poly":
        return Poly._from_clean(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_same_dim(other)
            out: dict[Exponent, Fraction] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
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
        return Poly(self.dim, {e: c * v for e, v in self.terms.items()})

    __rmul__ = scale

    def _check_same_dim(self, other: "Poly") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")

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
    """Univariate polynomial with Fraction coefficients, stored sparse as
    `terms`, a dict {power: nonzero coefficient}.

    Used for radial weight profiles in the variable t, which mostly have one
    term.  Built from a dense sequence (index = power) or from such a dict,
    whose powers must be nonnegative ints (a bool, float, Fraction or
    negative power is refused); zero coefficients are dropped either way, so
    representations are canonical.
    """

    __slots__ = ("terms",)

    def __init__(self, coeffs: Iterable[RationalLike] | dict[int, RationalLike]):
        if isinstance(coeffs, dict):
            for i in coeffs:
                if type(i) is not int or i < 0:
                    raise ValueError(f"power {i!r} is not a nonnegative integer")
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        terms = {i: f for i, c in items if (f := c if type(c) is Fraction else Fraction(c))}
        _set(self, "terms", terms)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls({})

    @classmethod
    def monomial(cls, power: int, coeff: RationalLike = 1) -> "UniPoly":
        return cls({power: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.terms or (-1,))  # max's default= keyword costs more

    def derivative(self, order: int = 1) -> "UniPoly":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        # coefficient of t^(i - order) picks up the falling factorial i!/(i-order)!
        return UniPoly(
            {i - order: c * math.perm(i, order) for i, c in self.terms.items() if i >= order}
        )

    def __call__(self, value: RationalLike) -> Fraction:
        v = Fraction(value)
        total = Fraction(0)
        for b in range(self.degree, -1, -1):  # Horner over every power
            total = total * v + self.terms.get(b, 0)
        return total

    def __repr__(self) -> str:
        return f"UniPoly({uni_to_text(self)!r})"


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
    return _terms_to_text((((i,), phi.terms[i]) for i in sorted(phi.terms, reverse=True)), "t")
