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

import csv
import enum
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .integrate import CubeDomain, Region, Weight, integrate_boundary, integrate_cube, integrate_diagonal, measure
from .kernel import BasisRequest, BasisSet, graded_basis
from .poly import Poly, UniPoly, laplacian, rational_to_text, uni_to_text


class WeightConditionError(ValueError):
    """The weight profile violates a required vanishing condition at 0."""


class NotPolyharmonicError(ValueError):
    """The input polynomial is not annihilated by the requested Laplacian power."""


class Identity(enum.Enum):
    SURFACE_MEAN = "surface_mean"
    VOLUME_MEAN = "volume_mean"
    WEIGHTED_QUADRATURE = "weighted_quadrature"
    PIZZETTI = "pizzetti"


# Each factory below makes one parameter's weights and masses once and
# returns the residual of one element; the public residual_* functions and
# run_suite both go through them.


def _surface_mean(d: CubeDomain) -> Callable[[Poly], Fraction]:
    boundary_mass = measure(d, Region.BOUNDARY, 0)
    diagonal_mass = measure(d, Region.DIAGONAL, 0)
    weight = Weight.power(0)

    def residual(h: Poly) -> Fraction:
        boundary = integrate_boundary(h, d) / boundary_mass
        return boundary - integrate_diagonal(h, d, weight) / diagonal_mass

    return residual


def _volume_mean(d: CubeDomain, k: int) -> Callable[[Poly], Fraction]:
    cube_weight, diagonal_weight = Weight.power(k), Weight.power(k + 1)
    cube_mass = measure(d, Region.CUBE, k)
    diagonal_mass = measure(d, Region.DIAGONAL, k + 1)

    def residual(h: Poly) -> Fraction:
        cube = integrate_cube(h, d, cube_weight) / cube_mass
        return cube - integrate_diagonal(h, d, diagonal_weight) / diagonal_mass

    return residual


def _require_vanishing(phi: UniPoly, order: int) -> None:
    names = {0: "phi(0)", 1: "phi'(0)"}
    for j in range(order):
        if phi.coeff(j) != 0:
            name = names.get(j, f"phi^({j})(0)")
            raise WeightConditionError(
                f"weight profile must satisfy {name} = 0, got {phi.coeff(j)}"
            )


def _weighted_quadrature(d: CubeDomain, phi: UniPoly) -> Callable[[Poly], Fraction]:
    cube_weight = Weight.from_profile(phi.derivative(2))
    diagonal_weight = Weight.from_profile(phi.derivative(1))

    def residual(h: Poly) -> Fraction:
        _require_vanishing(phi, 2)
        cube = integrate_cube(h, d, cube_weight)
        return cube - 2 * integrate_diagonal(h, d, diagonal_weight)

    return residual


def _laplacian_chain(g: Poly, m: int) -> list[Poly]:
    """[g, Lap g, ..., Lap^m g]."""
    chain = [g]
    for _ in range(m):
        chain.append(laplacian(chain[-1]))
    return chain


def _pizzetti(d: CubeDomain, m: int, phi: UniPoly) -> Callable[[list[Poly]], Fraction]:
    """Residual of one element given as its Laplacian chain [g, ..., Lap^m g]."""
    if m < 1:
        raise ValueError(f"polyharmonic order must be >= 1, got {m}")
    cube_weight = Weight.from_profile(phi.derivative(2 * m))
    # diagonal_weights[s] carries phi^(2s+1) and applies to Lap^(m-1-s) g
    diagonal_weights = [Weight.from_profile(phi.derivative(2 * s + 1)) for s in range(m)]

    def residual(chain: list[Poly]) -> Fraction:
        if not chain[m].is_zero:
            raise NotPolyharmonicError(
                f"input is not {m}-polyharmonic: Laplacian^{m} != 0"
            )
        _require_vanishing(phi, 2 * m)
        cube = integrate_cube(chain[0], d, cube_weight)
        diag = Fraction(0)
        for s, weight in enumerate(diagonal_weights):
            diag += integrate_diagonal(chain[m - 1 - s], d, weight)
        return cube - 2 * diag

    return residual


def residual_surface_mean(h: Poly, d: CubeDomain) -> Fraction:
    """Boundary mean minus diagonal mean (both unweighted)."""
    return _surface_mean(d)(h)


def residual_volume_mean(h: Poly, d: CubeDomain, k: int = 0) -> Fraction:
    """Weighted cube mean (power k) minus weighted diagonal mean (power k+1)."""
    return _volume_mean(d, k)(h)


def residual_weighted_quadrature(h: Poly, d: CubeDomain, phi: UniPoly) -> Fraction:
    """int_cube phi''(r-M) h  -  2 int_diag phi'(r-M) h.

    Requires phi(0) = phi'(0) = 0, checked symbolically on the coefficients.
    """
    return _weighted_quadrature(d, phi)(h)


def residual_pizzetti(g: Poly, d: CubeDomain, m: int, phi: UniPoly) -> Fraction:
    """Pizzetti-type residual for an m-polyharmonic polynomial.

    int_cube phi^(2m)(r-M) g  -  2 sum_{s=0}^{m-1} int_diag phi^(2s+1)(r-M)
    applied to the (m-1-s)-fold Laplacian of g.  Requires the profile to
    vanish to order 2m at 0 and g to be m-polyharmonic; the two failures
    raise distinct errors, and the polyharmonic check comes first.
    """
    residual = _pizzetti(d, m, phi)
    return residual(_laplacian_chain(g, m))


# -- suite runner --------------------------------------------------------------


def default_quadrature_profiles() -> tuple[UniPoly, ...]:
    """t^j / j! for j = 2..6."""
    import math

    return tuple(
        UniPoly.monomial(j, Fraction(1, math.factorial(j))) for j in range(2, 7)
    )


def default_pizzetti_profiles(m: int) -> tuple[UniPoly, ...]:
    """t^(2m+j) / (2m+j)! for j = 0..2."""
    import math

    return tuple(
        UniPoly.monomial(2 * m + j, Fraction(1, math.factorial(2 * m + j)))
        for j in range(3)
    )


@dataclass(frozen=True)
class SuiteConfig:
    """Parameter grid for a verification run."""

    ks: tuple[int, ...] = (0, 1, 2, 3)
    m: int = 1
    phis: tuple[UniPoly, ...] | None = None


@dataclass(frozen=True)
class ReportEntry:
    identity: str
    n: int
    r: str
    k_or_phi: str
    m: int
    element_label: str
    residual: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "r": self.r,
            "k_or_phi": self.k_or_phi,
            "m": self.m,
            "element_label": self.element_label,
            "residual": self.residual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class IdentityReport:
    entries: tuple[ReportEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> str:
        payload = {
            "all_pass": self.all_pass,
            "entry_count": len(self.entries),
            "entries": [e.to_dict() for e in self.entries],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["identity", "n", "r", "k_or_phi", "m", "element_label", "residual", "pass"]
        )
        for e in self.entries:
            writer.writerow(
                [
                    e.identity,
                    e.n,
                    e.r,
                    e.k_or_phi,
                    e.m,
                    e.element_label,
                    e.residual,
                    "true" if e.passed else "false",
                ]
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
            idx = counters.get(deg, 0)
            counters[deg] = idx + 1
            out.append((f"deg{deg}[{idx}]", p))
        return out
    return list(basis)


def _parameters(
    identity: Identity, d: CubeDomain, config: SuiteConfig
) -> list[tuple[str, Callable[[], Callable]]]:
    """(k_or_phi label, factory of the residual of one element) for each
    parameter, in order.  Pizzetti residuals take an element's Laplacian
    chain, the others the element itself."""
    if identity is Identity.SURFACE_MEAN:
        return [("", lambda: _surface_mean(d))]
    if identity is Identity.VOLUME_MEAN:
        return [(str(k), lambda k=k: _volume_mean(d, k)) for k in config.ks]
    if identity is Identity.WEIGHTED_QUADRATURE:
        phis = config.phis or default_quadrature_profiles()
        return [(uni_to_text(phi), lambda phi=phi: _weighted_quadrature(d, phi)) for phi in phis]
    if identity is Identity.PIZZETTI:
        phis = config.phis or default_pizzetti_profiles(config.m)
        return [(uni_to_text(phi), lambda phi=phi: _pizzetti(d, config.m, phi)) for phi in phis]
    raise ValueError(f"unknown identity {identity!r}")


def run_suite(
    basis: BasisSet | BasisRequest | Sequence[tuple[str, Poly]],
    d: CubeDomain,
    identities: Sequence[Identity],
    config: SuiteConfig = SuiteConfig(),
) -> IdentityReport:
    """Evaluate the selected residuals on every element; exact pass/fail.

    Elements may be a generated basis, a request for one, or explicit
    (label, polynomial) pairs.  Evaluation order, and therefore report
    order, is fixed: identities in the order given, then parameter, then
    element.
    """
    if isinstance(basis, BasisRequest):
        basis = graded_basis(basis)
    elements = _labelled_elements(basis)
    polys = [p for _, p in elements]
    cases = [
        (identity, k_or_phi, build)
        for identity in identities
        for k_or_phi, build in _parameters(identity, d, config)
    ]
    # each element's Laplacian chain, shared by every Pizzetti profile
    chains = (
        [_laplacian_chain(p, config.m) for p in polys]
        if any(identity is Identity.PIZZETTI for identity, _, _ in cases)
        else None
    )
    r = rational_to_text(d.r)
    entries = []
    for identity, k_or_phi, build in cases:
        m = config.m if identity is Identity.PIZZETTI else 1
        inputs = chains if identity is Identity.PIZZETTI else polys
        residual = None
        for (label, _), x in zip(elements, inputs):
            try:
                # built at the first element, so parameter errors carry its label
                residual = residual or build()
                value = residual(x)
            except ValueError as exc:
                raise type(exc)(f"{identity.value} on {label}: {exc}") from exc
            entries.append(
                ReportEntry(
                    identity=identity.value,
                    n=d.n,
                    r=r,
                    k_or_phi=k_or_phi,
                    m=m,
                    element_label=label,
                    residual=rational_to_text(value),
                    passed=(value == 0),
                )
            )
    return IdentityReport(tuple(entries))
