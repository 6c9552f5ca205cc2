"""Acceptance checklist for the whole package.

Each criterion below runs at its stated tolerance (exact rational equality
unless noted) and prints one PASS/FAIL line; run with `pytest -v -s
tests/test_acceptance.py` to see the lines as they go by.

Two stated target values are inconsistent with the exact computation and
with the other criteria in this list; they are asserted as stated and marked
as strict expected failures rather than silently corrected:

  criterion 5   the stated error 8/75 for the degree-8 example does not
                match its own stated factorization 28*x1^2*x2^2*(x1^2-x2^2)^2,
                whose integral over the unit square is 128/75 exactly (the
                pair scaled by 1/16 would give 8/75); the companion test
                pins 128/75 with quadrature-oracle confirmation
  criterion 7   the stated negative-control residual -1/6 is inconsistent
                with the closed-form masses of criterion 6: the weighted
                diagonal mass forced by those closed forms (and by the
                residual vanishing on harmonic inputs, criterion 1) gives
                cube mean 1/3 minus diagonal mean 1/6 = +1/6; the companion
                test pins +1/6 with quadrature-oracle confirmation to 1e-10
"""

import math
from fractions import Fraction

import pytest

from conftest import pp, seeded_random_polys
from cubeharm.cli import main as cli_main
from cubeharm.identities import (
    default_pizzetti_profiles,
    residual_pizzetti,
    residual_surface_mean,
    residual_volume_mean,
    residual_weighted_quadrature,
)
from cubeharm.integrate import (
    CubeDomain,
    Region,
    Weight,
    integrate_boundary,
    integrate_cube,
    integrate_diagonal,
    measure,
)
from cubeharm.kernel import BasisRequest, graded_basis
from cubeharm.onesided import CERTIFIED, certify_best_approx
from cubeharm.oracle import (
    numeric_integrate_boundary,
    numeric_integrate_cube,
    numeric_integrate_cube_many,
    numeric_integrate_diagonal,
    numeric_integrate_diagonal_many,
)
from cubeharm.poly import UniPoly, laplacian

RADII = (Fraction(1, 2), Fraction(1), Fraction(3))
KS = (0, 1, 2, 3)


def record(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")


def test_criterion_1_mean_value_suite():
    """Surface and volume mean residuals are exactly zero on harmonic bases."""
    checked = 0
    for n, max_degree in ((2, 8), (3, 8), (4, 5)):
        basis = graded_basis(BasisRequest(n, max_degree, 1))
        for r in RADII:
            d = CubeDomain(n, r)
            for h in basis.elements:
                assert residual_surface_mean(h, d) == 0
                checked += 1
                for k in KS:
                    assert residual_volume_mean(h, d, k) == 0
                    checked += 1
    record(1, True, f"{checked} residuals, all exactly 0")


def test_criterion_2_pizzetti_suite():
    """Pizzetti residuals vanish exactly on m-polyharmonic bases, m <= 3."""
    checked = 0
    for m in (1, 2, 3):
        profiles = default_pizzetti_profiles(m)  # t^(2m+j)/(2m+j)!, j = 0,1,2
        for n in (2, 3):
            basis = graded_basis(BasisRequest(n, 8, m))
            for r in RADII:
                d = CubeDomain(n, r)
                for phi in profiles:
                    for g in basis.elements:
                        assert residual_pizzetti(g, d, m, phi) == 0
                        checked += 1
    record(2, True, f"{checked} residuals, all exactly 0")


def test_criterion_3_weighted_quadrature_suite():
    """Quadrature residuals vanish exactly on harmonic bases for t^j/j!."""
    checked = 0
    profiles = [UniPoly.monomial(j, Fraction(1, math.factorial(j))) for j in range(2, 7)]
    for n in (2, 3):
        basis = graded_basis(BasisRequest(n, 8, 1))
        for r in RADII:
            d = CubeDomain(n, r)
            for phi in profiles:
                for h in basis.elements:
                    assert residual_weighted_quadrature(h, d, phi) == 0
                    checked += 1
    record(3, True, f"{checked} residuals, all exactly 0")


def test_criterion_4_example1_certificate():
    """The quartic interpolant certificate reproduces the error 8/45."""
    f = pp("x1^2*x2^2")
    h = pp("-1/4*x1^4 + 3/2*x1^2*x2^2 - 1/4*x2^4")
    cert = certify_best_approx(f, h, CubeDomain(2, Fraction(1)))
    assert cert.harmonic_ok
    assert cert.vanishes_on_diagonal
    assert cert.gradient_vanishes_on_diagonal
    assert cert.onesided.kind == CERTIFIED
    assert cert.l1_error == Fraction(8, 45)
    record(4, True, "all hypotheses hold, error exactly 8/45")


def _example2_certificate():
    f = pp("x1^8 + 14*x1^4*x2^4 + x2^8")
    h = pp("x1^8 + x2^8 - 28*(x1^6*x2^2 + x1^2*x2^6) + 70*x1^4*x2^4")
    return certify_best_approx(f, h, CubeDomain(2, Fraction(1)))


def test_criterion_5_example2_certified_factorization():
    """Degree-8 example: hypotheses hold and the factorization is found."""
    cert = _example2_certificate()
    assert cert.harmonic_ok
    assert cert.vanishes_on_diagonal
    assert cert.gradient_vanishes_on_diagonal
    assert cert.onesided.kind == CERTIFIED
    assert cert.onesided.cofactor == pp("28*x1^2*x2^2")
    record(5, True, "certified via cofactor 28*x1^2*x2^2 (value check split out)")


@pytest.mark.xfail(
    strict=True,
    reason="stated target 8/75 contradicts the stated factorization, whose "
    "exact integral is 128/75 (see module docstring and companion test)",
)
def test_criterion_5_example2_stated_error_value():
    cert = _example2_certificate()
    record(5, cert.l1_error == Fraction(8, 75), f"stated 8/75, computed {cert.l1_error}")
    assert cert.l1_error == Fraction(8, 75)


def test_criterion_5_companion_recomputed_error_value():
    """The exact error is 128/75, confirmed by the quadrature oracle."""
    cert = _example2_certificate()
    assert cert.l1_error == Fraction(128, 75)
    numeric = numeric_integrate_cube(
        cert.f - cert.h, CubeDomain(2, Fraction(1)), Weight.power(0)
    )
    assert abs(numeric - 128 / 75) < 1e-10
    record(5, True, "companion: error exactly 128/75, oracle agrees to 1e-10")


def test_criterion_5_companion_from_green_form():
    """128/75 from f alone, with no h: a harmonic minorant interpolating f on
    the diagonal set has error int_cube (f - h) = int_cube (1-M)^2/2 Lap f,
    the quadrature residual of f at phi = t^2/2."""
    f = pp("x1^8 + 14*x1^4*x2^4 + x2^8")
    t2 = Weight.power(2)  # t^2/2
    error = residual_weighted_quadrature(f, CubeDomain(2, Fraction(1)), t2)
    assert error == Fraction(128, 75)
    record(5, True, "companion: the quadrature residual of f is 128/75, with no h")


def test_criterion_6_mass_closed_forms():
    """Region masses match the closed forms for n <= 6, k <= 4."""
    checked = 0
    for n in range(2, 7):
        for k in range(5):
            for r in RADII:
                d = CubeDomain(n, r)
                cube = Fraction(2**n * math.factorial(n), math.factorial(n + k)) * r ** (
                    n + k
                )
                boundary = Fraction(
                    2**n * math.factorial(n), math.factorial(n + k - 1)
                ) * r ** (n + k - 1)
                diagonal = Fraction(
                    2 ** (n - 1) * math.factorial(n), math.factorial(n + k - 1)
                ) * r ** (n + k - 1)
                assert measure(d, Region.CUBE, k) == cube
                assert measure(d, Region.BOUNDARY, k) == boundary
                assert measure(d, Region.DIAGONAL, k) == diagonal
                checked += 3
    record(6, True, f"{checked} masses, all exactly the closed forms")


@pytest.mark.xfail(
    strict=True,
    reason="stated target -1/6 is inconsistent with the closed-form masses "
    "(criterion 6) and the harmonic zero-residual suite (criterion 1); the "
    "computed residual is +1/6 (see module docstring and companion test)",
)
def test_criterion_7_negative_control_stated_value():
    residual = residual_volume_mean(pp("x1^2", 2), CubeDomain(2, Fraction(1)), 0)
    record(7, residual == Fraction(-1, 6), f"stated -1/6, computed {residual}")
    assert residual == Fraction(-1, 6)


def test_criterion_7_companion_recomputed_value():
    """The negative control is +1/6 exactly; the oracle confirms to 1e-10."""
    d = CubeDomain(2, Fraction(1))
    p = pp("x1^2", 2)
    residual = residual_volume_mean(p, d, 0)
    assert residual == Fraction(1, 6)
    numeric = numeric_integrate_cube(p, d, Weight.power(0)) / float(
        measure(d, Region.CUBE, 0)
    ) - numeric_integrate_diagonal(p, d, Weight.power(1)) / float(
        measure(d, Region.DIAGONAL, 1)
    )
    assert abs(numeric - 1 / 6) < 1e-10
    record(7, True, "companion: residual exactly +1/6, oracle agrees to 1e-10")


def test_criterion_7_companion_from_green_form():
    """+1/6 from the Green form of the volume residual, with no diagonal
    integral: int_cube (1-M)^2/2 Lap x1^2 over Mc(0) = (2/3) / 4."""
    d = CubeDomain(2, Fraction(1))
    residual = integrate_cube(laplacian(pp("x1^2", 2)), d, Weight.power(2)) / measure(
        d, Region.CUBE, 0
    )
    assert residual == Fraction(1, 6)
    record(7, True, "companion: the Green form gives +1/6")


def test_criterion_8_oracle_agreement():
    """Exact vs quadrature values agree to 1e-9 relative on 200 random
    polynomials, all regions, k in {0, 1, 2}."""
    polys = seeded_random_polys(20260809, 200, dims=(2, 3, 4), max_degree=6)
    weights = [Weight.power(k) for k in (0, 1, 2)]
    worst = 0.0
    for p in polys:
        d = CubeDomain(p.dim, Fraction(1))
        exact_cube = [integrate_cube(p, d, w) for w in weights]
        exact_diag = [integrate_diagonal(p, d, w) for w in weights]
        exact_bnd = integrate_boundary(p, d)
        num_cube = numeric_integrate_cube_many(p, d, weights)
        num_diag = numeric_integrate_diagonal_many(p, d, weights)
        num_bnd = numeric_integrate_boundary(p, d)
        pairs = list(zip(exact_cube, num_cube)) + list(zip(exact_diag, num_diag))
        pairs.append((exact_bnd, num_bnd))
        for exact, numeric in pairs:
            dev = abs(float(exact) - numeric) / max(1.0, abs(float(exact)))
            worst = max(worst, dev)
            assert dev <= 1e-9
    record(8, True, f"200 polynomials, worst relative deviation {worst:.3e}")


def test_criterion_9_determinism(tmp_path):
    """Two identical full suite runs write byte-identical JSON reports."""
    argv = [
        "verify", "--n", "2", "--r", "1", "--deg", "8", "--k", "0,1,2,3",
        "--identities", "surface,volume,quadrature",
    ]
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    assert identical
    record(9, identical, "two runs, byte-identical reports")
