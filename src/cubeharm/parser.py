"""Parser for polynomial and weight-profile expressions.

Grammar (whitespace-insensitive):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | "+" factor | power
    power   := atom ("^" factor)?          (right-associative)
    atom    := INTEGER | VARIABLE | "(" expr ")"

Variables are x1, x2, ... for multivariate input and t for univariate
profiles.  Digits are the ASCII 0-9 only, at most MAX_DIGITS in a row.
"^" requires a constant non-negative integer exponent.  "/" requires a
constant nonzero right operand, which covers rational literals like 3/4;
dividing by a polynomial is rejected.  Decimal literals are rejected to
keep everything exact.

Errors raise ExprSyntaxError carrying the byte offset of the offending
token, so callers can produce pointed diagnostics without the process ever
dying on malformed input.

Work is bounded before it is done.  A power of a non-constant base is
refused when its degree exceeds max_degree, a constant power when its result
would exceed MAX_CONSTANT_BITS, and a product or power when the terms it
may expand to exceed MAX_EXPANDED_TERMS.  A sum collects its terms in one
table, so its cost grows with the length of the text, not its square, and
refuses a term that brings the lcm of its coefficients' denominators to
more than MAX_DIGITS digits before adding it: a sum of coprime
denominators that large costs a gcd of that size per addition.  So no
expression, parenthesized or whole, parses to a polynomial whose
coefficients have such an lcm.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import MAX_DIGITS, Poly, UniPoly, Value

# The smallest lcm of a sum's coefficient denominators that is refused.
_DENOMINATOR_LIMIT = 10**MAX_DIGITS


# Terms the products and powers of one expression may expand to, counted
# before multiplying: t1 * t2 for a product and C(t + e - 1, e) for the e-th
# power of a t-term base.  One term product costs about 11 us at n = 8,
# 18 us at n = 100 and 230 us at n = 2000 (the CLI's largest --n), so a
# 10,000-term product takes about 0.2 s at n = 8 and 3 s at n = 2000.  The
# largest admitted powers, (x1 + ... + x8)^8 with 6,435 terms and
# (x1 + ... + x140)^2 at n = 2000, take 0.4 s and 5 s.
MAX_EXPANDED_TERMS = 10_000

# Bits of the largest numerator or denominator a constant power may produce.
# Python prints no integer of more than 4300 digits (about 14,300 bits), so
# no report could show a larger coefficient.
MAX_CONSTANT_BITS = 14_000


class ExprSyntaxError(ValueError):
    """Malformed expression; .position is the byte offset in the source and
    .reason the message without it."""

    def __init__(self, message: str, position: int):
        super().__init__(f"invalid expression at offset {position}: {message}")
        self.position = position
        self.reason = message


_OPERATORS = "+-*/^()"


class _Token(Value):
    __slots__ = ("kind", "text", "position")  # kind: "int", "var", an operator or "end"


def _digits_end(text: str, i: int) -> int:
    """The end of the run of ASCII digits that starts at i, a literal or a
    variable index, which int() must read."""
    start = i
    while i < len(text) and "0" <= text[i] <= "9":
        i += 1
    if i - start > MAX_DIGITS:
        raise ExprSyntaxError(
            f"{i - start} digits in a row, above the limit of {MAX_DIGITS}", start
        )
    return i


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":
            start = i
            i = _digits_end(text, i)
            if i < n and text[i] == ".":
                raise ExprSyntaxError(
                    "decimal literals are not supported; use rationals like 3/4", i
                )
            tokens.append(_Token("int", text[start:i], start))
            continue
        if c.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i = _digits_end(text, i + 1)  # bounds the digits of x<index> too
            tokens.append(_Token("var", text[start:i], start))
            continue
        if c in _OPERATORS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser producing Poly values directly."""

    def __init__(self, tokens: list[_Token], dim: int, univariate: bool, max_degree: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.univariate = univariate
        self.max_degree = max_degree
        self.expanded = 0  # terms the products and powers so far may expand to

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text!r}", tok.position)
        return self.advance()

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.position)
        return value

    def expr(self) -> Poly:
        value, lcm = self.bounded_term(1)
        if self.peek().kind not in "+-":
            return value
        terms = dict(value.terms)
        while self.peek().kind in "+-":
            sign = 1 if self.advance().kind == "+" else -1
            term, lcm = self.bounded_term(lcm)
            for exps, coeff in term.terms.items():
                terms[exps] = terms.get(exps, 0) + sign * coeff
        return Poly(self.dim, terms)

    def bounded_term(self, lcm: int) -> tuple[Poly, int]:
        """The next term, and lcm widened by its coefficients' denominators;
        refused at the term's offset once that reaches _DENOMINATOR_LIMIT."""
        position = self.peek().position
        term = self.term()
        for coeff in term.terms.values():
            if lcm % coeff.denominator:
                lcm = math.lcm(lcm, coeff.denominator)
                if lcm >= _DENOMINATOR_LIMIT:
                    raise ExprSyntaxError(
                        f"the coefficients' denominators have a common multiple of more than "
                        f"{MAX_DIGITS} digits",
                        position,
                    )
        return term, lcm

    def term(self) -> Poly:
        value = self.factor()
        while self.peek().kind in "*/":
            op = self.advance()
            rhs = self.factor()
            if op.kind == "*":
                self.bound_terms(len(value.terms) * len(rhs.terms), "product", op)
                value = value * rhs
            else:
                c = _constant_value(rhs)
                if c is None:
                    raise ExprSyntaxError(
                        "division is only allowed by a nonzero constant", op.position
                    )
                if c == 0:
                    raise ExprSyntaxError("division by zero", op.position)
                value = value.scale(1 / c)
        return value

    def factor(self) -> Poly:
        if self.peek().kind in "+-":
            sign = self.advance().kind
            return -self.factor() if sign == "-" else self.factor()
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        op = self.advance()
        exponent = self.factor()  # right-associative, unary minus allowed for diagnostics
        c = _constant_value(exponent)
        if c is None:
            raise ExprSyntaxError("exponent must be a constant integer", op.position)
        if c.denominator != 1:
            raise ExprSyntaxError(f"exponent must be an integer, got {c}", op.position)
        if c < 0:
            raise ExprSyntaxError(f"negative exponent {c}", op.position)
        e = int(c)
        b = _constant_value(base)
        if b is not None:
            bits = e * math.log2(max(abs(b.numerator), b.denominator))
            if bits > MAX_CONSTANT_BITS:
                raise ExprSyntaxError(
                    f"constant power ({b})^{e} has about {bits:.0f} bits, "
                    f"above the limit of {MAX_CONSTANT_BITS}",
                    op.position,
                )
            return Poly.const(self.dim, b**e)
        degree = base.total_degree * e
        if degree > self.max_degree:
            raise ExprSyntaxError(
                f"degree {degree} exceeds the configured limit {self.max_degree}",
                op.position,
            )
        self.bound_terms(math.comb(len(base.terms) + e - 1, e), "power", op)
        return base**e

    def bound_terms(self, terms: int, what: str, op: _Token) -> None:
        self.expanded += terms
        if self.expanded > MAX_EXPANDED_TERMS:
            raise ExprSyntaxError(
                f"{what} of up to {terms} terms brings the expression to {self.expanded} "
                f"expanded terms, above the limit of {MAX_EXPANDED_TERMS}",
                op.position,
            )

    def atom(self) -> Poly:
        tok = self.advance()
        if tok.kind == "int":
            return Poly.const(self.dim, Fraction(int(tok.text)))
        if tok.kind == "var":
            return self.variable(tok)
        if tok.kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ExprSyntaxError(f"expected a value, found {tok.text!r}", tok.position)

    def variable(self, tok: _Token) -> Poly:
        name = tok.text
        if self.univariate:
            if name != "t":
                raise ExprSyntaxError(
                    f"only the variable t is allowed here, found {name!r}", tok.position
                )
            return Poly.variable(1, 1)
        if name == "t":
            raise ExprSyntaxError(
                "variable t is reserved for univariate profiles", tok.position
            )
        axis = _index(name)
        if axis is None:
            raise ExprSyntaxError(f"unknown variable {name!r}", tok.position)
        if axis < 1:
            raise ExprSyntaxError("variable indices start at x1", tok.position)
        if axis > self.dim:
            raise ExprSyntaxError(
                f"variable x{axis} exceeds dimension {self.dim}", tok.position
            )
        return Poly.variable(self.dim, axis)


def _constant_value(p: Poly) -> Fraction | None:
    if p.is_zero:
        return Fraction(0)
    if len(p.terms) == 1:
        exps, coeff = next(iter(p.terms.items()))
        if not any(exps):
            return coeff
    return None


def _index(name: str) -> int | None:
    """k for a variable named x<k>, k in ASCII digits; None for any other name."""
    digits = name[1:]
    return int(digits) if name[0] == "x" and digits.isascii() and digits.isdigit() else None


def _parse(text: str, dim: int, max_degree: int, univariate: bool = False) -> Poly:
    """The polynomial of text in dimension dim; its empty text is refused
    first and its degree checked against max_degree last."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = _tokenize(text)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    poly = _Parser(tokens, dim, univariate, max_degree).parse()
    if poly.total_degree > max_degree:
        raise ExprSyntaxError(
            f"degree {poly.total_degree} exceeds the configured limit {max_degree}",
            0,
        )
    return poly


def parse_poly(text: str, *, dim: int, max_degree: int = 16) -> Poly:
    """Parse a polynomial in the variables x1..x<dim> of degree <= max_degree."""
    return _parse(text, dim, max_degree)


def parse_unipoly(text: str, *, max_degree: int = 16) -> UniPoly:
    """Parse a univariate profile in the variable t of degree <= max_degree."""
    poly = _parse(text, 1, max_degree, univariate=True)
    return UniPoly({e: c for (e,), c in poly.terms.items()})
