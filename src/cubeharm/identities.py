"""Exact residuals for the mean-value and quadrature identities on the cube.

Each residual is the left side minus the right side of one identity,
computed exactly; an identity holds for an input precisely when its residual
is the rational zero.  Reports keep the raw residuals because nonzero values
are the interesting diagnostic for negative controls and regressions.

Identities (h harmonic, g annihilated by the m-fold Laplacian, M = max |x_i|):

  surface mean     mean of h over the boundary == mean of h over the diagonal set
  volume mean      weighted mean over the cube (power weight k)
                   == weighted mean over the diagonal set (power weight k+1)
  weighted         int_cube phi''(r-M) h  ==  2 int_diag phi'(r-M) h,
  quadrature       for profiles with phi(0) = phi'(0) = 0
  pizzetti         int_cube phi^(2m)(r-M) g
                   ==  2 sum_{s<m} int_diag phi^(2s+1)(r-M) Lap^(m-1-s) g,
                   for profiles vanishing to order 2m at 0

Preconditions are hard errors: the identities are simply false without them
and a silent pass would poison every report downstream.
"""

from __future__ import annotations

import enum
import io
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from .integrate import (
    CubeDomain,
    DegreeSums,
    Region,
    Weight,
    WeightConditionError,
    _vanishing_failure,
    integral,
    measure,
)
from .kernel import BasisSet
from .poly import Poly, UniPoly, Value, _set, laplacian, rational_to_text, uni_to_text


class NotPolyharmonicError(ValueError):
    """The input polynomial is not annihilated by the requested Laplacian power."""


class Identity(enum.Enum):
    SURFACE_MEAN = "surface_mean"
    VOLUME_MEAN = "volume_mean"
    WEIGHTED_QUADRATURE = "weighted_quadrature"
    PIZZETTI = "pizzetti"


# Every residual is one row: (functional, link) terms over an element's
# Laplacian chain [g, Lap g, ..., Lap^m g], summed.  Each functional is an
# `integral` with its mass, the factor 2 of a diagonal and its sign folded
# into its radial factors (computed once per degree), so a row divides
# nothing per element.  By the paper's Green identity three identities are
# one row, `_green`: the quadrature is Pizzetti at m = 1 without the
# polyharmonic check, and the volume mean at power k is the quadrature at
# u^(k+2)/(k+2)! over the cube mass; the surface mean is a boundary term
# and a diagonal term.  The regions and weights are unchanged when one
# coordinate changes sign, and the Laplacian keeps each term's parity in
# every axis, so a parity-odd element (no term even in every variable) has
# empty degree sums in every link: its row returns the exact integer 0
# after the dimension check and calls no functional.  A profile condition is
# decided once per row and raised from the residual, after the polyharmonic
# check and before the dimension check.


def _row(
    d: CubeDomain, terms: list[tuple[Callable, int]]
) -> Callable[[list[DegreeSums]], Fraction | int]:
    """The residual of one element's Laplacian chain: the sum of each
    term's functional of its link of the chain, or 0 for a parity-odd g."""
    (first, link), *rest = terms

    def residual(chain: list[DegreeSums]) -> Fraction | int:
        g = chain[0]
        if g.poly.dim != d.n:
            d.check_dim(g.poly)
        if not g[1]:
            return 0
        value = first(chain[link])
        for functional, j in rest:
            value += functional(chain[j])
        return value

    return residual


def _green(
    d: CubeDomain, phi: UniPoly, m: int, scale: Fraction | int = 1, check: bool = False
) -> Callable[[list[DegreeSums]], Fraction | int]:
    """The row of scale * (int_cube phi^(2m)(r-M) g - 2 sum_{s<m} int_diag
    phi^(2s+1)(r-M) Lap^(m-1-s) g); with check, a g whose Lap^m is not zero
    is refused before the profile condition."""
    if m < 1:
        raise ValueError(f"polyharmonic order must be >= 1, got {m}")
    # the diagonals with 2s + 1 > deg phi are identically 0 and are not built
    row = _row(
        d,
        [(integral(d, Region.CUBE, Weight(phi.derivative(2 * m)), scale), 0)]
        + [
            (integral(d, Region.DIAGONAL, Weight(phi.derivative(2 * s + 1)), -2 * scale), m - 1 - s)
            for s in range(min(m, (phi.degree + 1) // 2))
        ]
    )
    failure = _vanishing_failure(phi, 2 * m)
    if failure is None and not check:
        return row

    def residual(chain: list[DegreeSums]) -> Fraction | int:
        if check and not chain[m].poly.is_zero:
            raise NotPolyharmonicError(f"input is not {m}-polyharmonic: Laplacian^{m} != 0")
        if failure is not None:
            raise WeightConditionError(failure)
        return row(chain)

    return residual


def _surface_row(d: CubeDomain) -> Callable[[list[DegreeSums]], Fraction | int]:
    boundary = integral(d, Region.BOUNDARY, scale=1 / measure(d, Region.BOUNDARY))
    diagonal = integral(d, Region.DIAGONAL, Weight.power(0), -1 / measure(d, Region.DIAGONAL))
    return _row(d, [(boundary, 0), (diagonal, 0)])


def _volume_row(d: CubeDomain, k: int) -> Callable[[list[DegreeSums]], Fraction | int]:
    return _green(d, Weight.power(k + 2).profile, 1, 1 / measure(d, Region.CUBE, k))


def _laplacian_chain(g: Poly, m: int) -> list[DegreeSums]:
    """The degree sums of g, Lap g, ..., Lap^m g; once a link is zero, every
    later link is the same object."""
    chain = [DegreeSums(g)]
    for _ in range(m):
        last = chain[-1]
        lap = laplacian(last.poly)
        chain.append(last if last.poly.is_zero else DegreeSums(lap))
    return chain


def residual_surface_mean(h: Poly, d: CubeDomain) -> Fraction:
    """Boundary mean minus diagonal mean (both unweighted)."""
    return Fraction(_surface_row(d)([DegreeSums(h)]))


def residual_volume_mean(h: Poly, d: CubeDomain, k: int = 0) -> Fraction:
    """Weighted cube mean (power k) minus weighted diagonal mean (power k+1)."""
    return Fraction(_volume_row(d, k)([DegreeSums(h)]))


def residual_weighted_quadrature(h: Poly, d: CubeDomain, phi: UniPoly) -> Fraction:
    """int_cube phi''(r-M) h  -  2 int_diag phi'(r-M) h.

    Requires phi(0) = phi'(0) = 0, checked symbolically on the coefficients.
    """
    return Fraction(_green(d, phi, 1)([DegreeSums(h)]))


def residual_pizzetti(g: Poly, d: CubeDomain, m: int, phi: UniPoly) -> Fraction:
    """Pizzetti-type residual for an m-polyharmonic polynomial.

    int_cube phi^(2m)(r-M) g  -  2 sum_{s=0}^{m-1} int_diag phi^(2s+1)(r-M)
    applied to the (m-1-s)-fold Laplacian of g.  Requires the profile to
    vanish to order 2m at 0 and g to be m-polyharmonic; the two failures
    raise distinct errors, and the polyharmonic check comes first.
    """
    return Fraction(_green(d, phi, m, check=True)(_laplacian_chain(g, m)))


# -- suite runner --------------------------------------------------------------


def default_quadrature_profiles() -> tuple[UniPoly, ...]:
    """t^j / j! for j = 2..6."""
    return tuple(Weight.power(j).profile for j in range(2, 7))


def default_pizzetti_profiles(m: int) -> tuple[UniPoly, ...]:
    """t^(2m+j) / (2m+j)! for j = 0..2."""
    return tuple(
        UniPoly.monomial(2 * m + j, Fraction(1, math.factorial(2 * m + j)))
        for j in range(3)
    )


class SuiteConfig(Value):
    """Parameter grid for a verification run (phis None for the defaults)."""

    __slots__ = ("ks", "m", "phis")
    _defaults = {"ks": (0, 1, 2, 3), "m": 1, "phis": None}


class ReportEntry(Value):
    __slots__ = ("identity", "n", "r", "k_or_phi", "m", "element_label", "residual", "passed")

    # every field a str but n and m (int) and passed (bool)
    def __init__(self, identity, n, r, k_or_phi, m, element_label, residual, passed):
        _set(self, "identity", identity)
        _set(self, "n", n)
        _set(self, "r", r)
        _set(self, "k_or_phi", k_or_phi)
        _set(self, "m", m)
        _set(self, "element_label", element_label)
        _set(self, "residual", residual)
        _set(self, "passed", passed)


# json.dumps(..., sort_keys=True, indent=2) of one entry, keys in sorted order:
# the element label, the block of fields that every entry of one suite case
# with the same verdict shares, then the residual
_JSON_BLOCK = """,
      "identity": {},
      "k_or_phi": {},
      "m": {:d},
      "n": {:d},
      "pass": {},
      "r": {},
      "residual": """


class IdentityReport(Value):
    __slots__ = ("entries",)  # tuple[ReportEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> str:
        """The bytes of json.dumps(payload, sort_keys=True, indent=2) + "\\n",
        written from a fixed template."""
        quote = encode_basestring_ascii
        blocks: dict[tuple, str] = {}  # the constant block, formatted once per key
        parts = []
        for e in self.entries:
            key = (e.identity, e.k_or_phi, e.m, e.n, e.passed, e.r)
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = _JSON_BLOCK.format(
                    quote(e.identity),
                    quote(e.k_or_phi),
                    e.m,
                    e.n,
                    "true" if e.passed else "false",
                    quote(e.r),
                )
            parts.append(
                f'    {{\n      "element_label": {quote(e.element_label)}'
                f"{block}{quote(e.residual)}\n    }}"
            )
        entries = ",\n".join(parts)
        listing = f"[\n{entries}\n  ]" if self.entries else "[]"
        all_pass = "true" if self.all_pass else "false"
        return (
            f'{{\n  "all_pass": {all_pass},\n  "entries": {listing},\n'
            f'  "entry_count": {len(self.entries)}\n}}\n'
        )

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # the columns are the entry's fields, with "passed" written as "pass"
        writer.writerow([*ReportEntry.__slots__[:-1], "pass"])
        writer.writerows(
            [*e._fields()[:-1], "true" if e.passed else "false"] for e in self.entries
        )
        return buf.getvalue()


def _labelled_elements(
    basis: BasisSet | Sequence[tuple[str, Poly]],
) -> list[tuple[str, Poly]]:
    if isinstance(basis, BasisSet):
        out = []
        counters: dict[int, int] = {}
        for p in basis.elements:
            deg = p.total_degree
            counters[deg] = idx = counters.get(deg, -1) + 1
            out.append((f"deg{deg}[{idx}]", p))
        return out
    return list(basis)


def _parameters(
    identity: Identity, d: CubeDomain, config: SuiteConfig
) -> list[tuple[str, Callable[[], Callable]]]:
    """(k_or_phi label, factory of the row of one element's chain) for each
    parameter, in order."""
    if identity is Identity.SURFACE_MEAN:
        return [("", lambda: _surface_row(d))]
    if identity is Identity.VOLUME_MEAN:
        return [(str(k), lambda k=k: _volume_row(d, k)) for k in config.ks]
    if identity is Identity.WEIGHTED_QUADRATURE:
        phis = config.phis or default_quadrature_profiles()
        return [(uni_to_text(phi), lambda phi=phi: _green(d, phi, 1)) for phi in phis]
    if identity is Identity.PIZZETTI:
        phis = config.phis or default_pizzetti_profiles(config.m)
        return [
            (uni_to_text(phi), lambda phi=phi: _green(d, phi, config.m, check=True)) for phi in phis
        ]
    raise ValueError(f"unknown identity {identity!r}")


def run_suite(
    basis: BasisSet | Sequence[tuple[str, Poly]],
    d: CubeDomain,
    identities: Sequence[Identity],
    config: SuiteConfig = SuiteConfig(),
) -> IdentityReport:
    """Evaluate the selected residuals on every element; exact pass/fail.

    Elements may be a generated basis or explicit (label, polynomial)
    pairs.  Evaluation order, and therefore report order, is fixed:
    identities in the order given, then parameter, then element.
    """
    elements = _labelled_elements(basis)
    cases = [
        (identity, k_or_phi, build)
        for identity in identities
        for k_or_phi, build in _parameters(identity, d, config)
    ]
    # each element's Laplacian chain, shared by every row, with links past g
    # only for Pizzetti; the degree sums of each link are built on first use
    pizzetti = any(identity is Identity.PIZZETTI for identity, _, _ in cases)
    chains = [_laplacian_chain(p, config.m if pizzetti else 0) for _, p in elements]
    n, r = d.n, rational_to_text(d.r)
    entries = []
    for identity, k_or_phi, build in cases:
        name = identity.value
        m = config.m if identity is Identity.PIZZETTI else 1
        residual = None
        for (label, _), chain in zip(elements, chains):
            try:
                # built at the first element, so parameter errors carry its label
                residual = residual or build()
                value = residual(chain)
            except ValueError as exc:
                raise type(exc)(f"{name} on {label}: {exc}") from exc
            entries.append(
                ReportEntry(name, n, r, k_or_phi, m, label, rational_to_text(value), value == 0)
            )
    return IdentityReport(tuple(entries))
