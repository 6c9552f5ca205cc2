from fractions import Fraction

import numpy as np
import pytest

from conftest import pp, seeded_random_polys
from cubeharm._kernels import evaluate_terms
from cubeharm.integrate import (
    CubeDomain,
    Weight,
    integrate_boundary,
    integrate_cube,
    integrate_diagonal,
)
from cubeharm.oracle import (
    gauss_legendre,
    numeric_integrate_boundary,
    numeric_integrate_cube,
    numeric_integrate_cube_many,
    numeric_integrate_diagonal,
    numeric_integrate_diagonal_many,
    numeric_l1,
)
from cubeharm.poly import Poly

D21 = CubeDomain(2, Fraction(1))


def rel_dev(exact: Fraction, numeric: float) -> float:
    return abs(float(exact) - numeric) / max(1.0, abs(float(exact)))


class TestGaussLegendre:
    @pytest.mark.parametrize("npts", [2, 5, 24, 48])
    def test_matches_numpy(self, npts):
        nodes, weights = gauss_legendre(npts)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(npts)
        assert np.abs(nodes - ref_nodes).max() < 5e-15
        assert np.abs(weights - ref_weights).max() < 5e-15

    def test_weights_sum_to_interval_length(self):
        _, weights = gauss_legendre(24)
        assert abs(weights.sum() - 2.0) < 1e-14

    def test_polynomial_exactness(self):
        nodes, weights = gauss_legendre(6)
        # degree 11 is the highest a 6-point rule integrates exactly
        assert abs(float(np.dot(weights, nodes**10)) - 2 / 11) < 1e-15


class TestKernelBackends:
    def test_backends_agree(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-1, 1, size=(500, 3))
        exps = np.array([[2, 0, 1], [0, 4, 0], [1, 1, 1], [0, 0, 0]], dtype=np.int64)
        coeffs = np.array([0.5, -2.0, 3.25, 1.0])
        values = evaluate_terms(points, exps, coeffs)
        direct = (
            0.5 * points[:, 0] ** 2 * points[:, 2]
            - 2.0 * points[:, 1] ** 4
            + 3.25 * points[:, 0] * points[:, 1] * points[:, 2]
            + 1.0
        )
        assert np.abs(values - direct).max() < 1e-14


class TestNumericIntegrals:
    def test_cube_mass(self):
        value = numeric_integrate_cube(Poly.const(2, 1), D21, Weight.power(0))
        assert abs(value - 4.0) < 1e-12

    def test_cube_product_of_squares(self):
        value = numeric_integrate_cube(pp("x1^2*x2^2"), D21, Weight.power(0))
        assert abs(value - 4 / 9) < 1e-10

    def test_cube_example1_error(self, example1):
        f, h = example1
        value = numeric_integrate_cube(f - h, D21, Weight.power(0))
        assert abs(value - 8 / 45) < 1e-9

    def test_diagonal_mass(self):
        value = numeric_integrate_diagonal(Poly.const(2, 1), D21, Weight.power(0))
        assert abs(value - 4.0) < 1e-12

    def test_diagonal_square(self):
        value = numeric_integrate_diagonal(pp("x1^2", 2), D21, Weight.power(0))
        assert abs(value - 4 / 3) < 1e-10

    def test_diagonal_weighted_n3(self):
        d = CubeDomain(3, Fraction(1))
        value = numeric_integrate_diagonal(Poly.const(3, 1), d, Weight.power(1))
        assert abs(value - 4.0) < 1e-10

    def test_boundary_surface(self):
        assert abs(numeric_integrate_boundary(Poly.const(2, 1), D21) - 8.0) < 1e-12

    def test_many_matches_single(self):
        p = pp("x1^4*x2^2 - x2^6")
        weights = [Weight.power(k) for k in (0, 1, 2)]
        many = numeric_integrate_cube_many(p, D21, weights)
        singles = [numeric_integrate_cube(p, D21, w) for w in weights]
        assert many == singles
        many_d = numeric_integrate_diagonal_many(p, D21, weights)
        singles_d = [numeric_integrate_diagonal(p, D21, w) for w in weights]
        assert many_d == singles_d

    def test_profile_weight(self):
        # weight profile u + u^2 at u = 1 - max|x|; exact engine as reference
        from cubeharm.poly import UniPoly

        phi_weight = Weight.from_profile(UniPoly([0, 1, 1]))
        exact = integrate_cube(pp("x1^2*x2^2"), D21, phi_weight)
        numeric = numeric_integrate_cube(pp("x1^2*x2^2"), D21, phi_weight)
        assert rel_dev(exact, numeric) < 1e-12

    def test_determinism(self):
        p = pp("x1^6 - 2*x2^4")
        first = numeric_integrate_cube(p, D21, Weight.power(1))
        second = numeric_integrate_cube(p, D21, Weight.power(1))
        assert first == second


class TestNumericL1:
    def test_identical_functions(self, example1):
        f, _ = example1
        assert numeric_l1(f, f, D21) == 0.0

    def test_example1(self, example1):
        f, h = example1
        assert abs(numeric_l1(f, h, D21) - 8 / 45) < 1e-9

    def test_nonnegative_integrand(self, example1):
        f, _ = example1
        assert abs(numeric_l1(f, Poly.zero(2), D21) - 4 / 9) < 1e-10

    def test_sign_change_is_approximate(self):
        # |x1| kinks inside the argmax cells, so this is an estimate only
        value = numeric_l1(pp("x1", 2), Poly.zero(2), D21)
        assert abs(value - 2.0) < 1e-2
        assert abs(value - 2.0) > 1e-13


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", [101, 202])
    def test_random_agreement(self, seed):
        for p in seeded_random_polys(seed, 6, dims=(2, 3)):
            d = CubeDomain(p.dim, Fraction(1))
            assert rel_dev(integrate_boundary(p, d), numeric_integrate_boundary(p, d)) < 1e-9
            for k in (0, 1, 2):
                w = Weight.power(k)
                assert rel_dev(integrate_cube(p, d, w), numeric_integrate_cube(p, d, w)) < 1e-9
                assert (
                    rel_dev(integrate_diagonal(p, d, w), numeric_integrate_diagonal(p, d, w))
                    < 1e-9
                )

    def test_non_unit_radius(self):
        d = CubeDomain(2, Fraction(3, 2))
        p = pp("x1^4*x2^2 + x2^2")
        w = Weight.power(2)
        assert rel_dev(integrate_cube(p, d, w), numeric_integrate_cube(p, d, w)) < 1e-10
        assert rel_dev(integrate_diagonal(p, d, w), numeric_integrate_diagonal(p, d, w)) < 1e-10
