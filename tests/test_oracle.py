import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import cubeharm.oracle as oracle
from conftest import check_value_class, pp, seeded_random_polys
from cubeharm._kernels import evaluate_terms
from cubeharm.integrate import (
    CubeDomain,
    Weight,
    integrate_boundary,
    integrate_cube,
    integrate_diagonal,
)
from cubeharm.oracle import (
    MAX_POINTS_PER_AXIS,
    QuadratureSpec,
    gauss_legendre,
    numeric_integrate_boundary,
    numeric_integrate_cube,
    numeric_integrate_cube_many,
    numeric_integrate_diagonal,
    numeric_integrate_diagonal_many,
)
from cubeharm.poly import Poly, UniPoly, grlex_key

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
        assert abs(math.fsum(weights) - 2.0) < 1e-14

    def test_polynomial_exactness(self):
        nodes, weights = gauss_legendre(6)
        # degree 11 is the highest a 6-point rule integrates exactly
        assert abs(math.fsum(w * x**10 for x, w in zip(nodes, weights)) - 2 / 11) < 1e-15

    def test_python_floats_in_ascending_order(self):
        nodes, weights = gauss_legendre(24)
        assert all(type(v) is float for v in nodes + weights)
        assert list(nodes) == sorted(nodes)


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


# -- pointwise tensor reference ------------------------------------------------
# The oracle sums its rule by factorization.  These integrators evaluate the
# same rule node by node on the full cell grids, so the cell geometry (cell
# and sheet placement, signs, Jacobians, profile argument) is checked point
# by point.


def _poly_arrays(p):
    """Exponent rows and float coefficients of p, descending graded-lex."""
    terms = sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    if not terms:
        return np.zeros((0, p.dim), dtype=np.int64), np.zeros(0)
    exps = np.array([t[0] for t in terms], dtype=np.int64)
    coeffs = np.array([float(t[1]) for t in terms])
    return exps, coeffs


def _box_grid(naxes, npts):
    """Tensor grid on [-1, 1]^naxes: (q^naxes, naxes) nodes and the product
    weights."""
    nodes, weights = map(np.array, gauss_legendre(npts))
    if naxes == 0:
        return np.zeros((1, 0)), np.ones(1)
    grids = np.meshgrid(*([nodes] * naxes), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * naxes), indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.reshape(-1)
    return pts, w


def _tensor_cells(p, d, tied, jacobian, weight, q):
    n, r = d.n, float(d.r)
    exps, coeffs = _poly_arrays(p)
    nodes, t_weights = map(np.array, gauss_legendre(q))
    t = r * (nodes + 1.0) / 2.0
    wt = t_weights * r / 2.0
    box_pts, box_w = _box_grid(n - tied, q)
    nbox = box_pts.shape[0]
    if weight is None:  # a face: t = r only, no radial weight
        t, wt = np.array([r]), np.array([1.0])
    phi = [float(weight.profile(d.r - Fraction(x))) for x in t] if weight else None
    cells = []
    for axes in combinations(range(n), tied):
        free = [k for k in range(n) if k not in axes]
        for signs in product((1.0, -1.0), repeat=tied):
            pts = np.empty((len(t) * nbox, n))
            wvec = np.empty(len(t) * nbox)
            for ti in range(len(t)):
                block = slice(ti * nbox, (ti + 1) * nbox)
                for axis, sign in zip(axes, signs):
                    pts[block, axis] = sign * t[ti]
                for pos, k in enumerate(free):
                    pts[block, k] = t[ti] * box_pts[:, pos]
                wvec[block] = wt[ti] * t[ti] ** jacobian * box_w * (phi[ti] if phi else 1.0)
            cells.append(float(np.dot(evaluate_terms(pts, exps, coeffs), wvec)))
    return math.fsum(cells)


def tensor_cube(p, d, w, q=24):
    return _tensor_cells(p, d, 1, d.n - 1, w, q)


def tensor_diagonal(p, d, w, q=24):
    return _tensor_cells(p, d, 2, d.n - 2, w, q)


def tensor_boundary(p, d, q=24):
    return _tensor_cells(p, d, 1, d.n - 1, None, q)


REFERENCE_CASES = [
    ("x1^4*x2^2 - 3*x2^2 + 1/2", 2),
    ("x1^3*x2 + x1*x2^5 - 2*x1", 2),  # odd in every cell pair: cancels to 0
    ("x1^2*x2^2*x3^2 - x3^6 + x1*x2^2", 3),
    ("x1^5*x2^2*x3 + 7/3*x1^2*x3^4 - x2^3", 3),
]
REFERENCE_WEIGHTS = [Weight.power(k) for k in (0, 1, 2)] + [
    Weight.from_profile(UniPoly([0, Fraction(1, 2), 0, 3]))
]


def close(value, reference):
    return abs(value - reference) <= 1e-13 * max(1.0, abs(reference))


class TestTensorReference:
    @pytest.mark.parametrize("text,n", REFERENCE_CASES)
    def test_factorized_matches_pointwise(self, text, n):
        p = pp(text, n)
        d = CubeDomain(n, Fraction(3, 2))
        cube = numeric_integrate_cube_many(p, d, REFERENCE_WEIGHTS)
        diag = numeric_integrate_diagonal_many(p, d, REFERENCE_WEIGHTS)
        for w, c, g in zip(REFERENCE_WEIGHTS, cube, diag):
            assert close(c, tensor_cube(p, d, w))
            assert close(g, tensor_diagonal(p, d, w))
        assert close(numeric_integrate_boundary(p, d), tensor_boundary(p, d))

    def test_odd_case_cancels(self):
        p = pp(REFERENCE_CASES[1][0], 2)
        d = CubeDomain(2, Fraction(3, 2))
        for w in REFERENCE_WEIGHTS:
            assert abs(numeric_integrate_cube(p, d, w)) < 1e-13
            assert abs(numeric_integrate_diagonal(p, d, w)) < 1e-13
            assert abs(tensor_cube(p, d, w)) < 1e-13
        assert abs(numeric_integrate_boundary(p, d)) < 1e-13

    def test_reference_agrees_with_exact(self):
        # the reference itself is the rule it claims to be
        p = pp(REFERENCE_CASES[2][0], 3)
        d = CubeDomain(3, Fraction(3, 2))
        w = REFERENCE_WEIGHTS[-1]
        assert rel_dev(integrate_cube(p, d, w), tensor_cube(p, d, w)) < 1e-12
        assert rel_dev(integrate_diagonal(p, d, w), tensor_diagonal(p, d, w)) < 1e-12
        assert rel_dev(integrate_boundary(p, d), tensor_boundary(p, d)) < 1e-12


class TestFactorizedPath:
    def test_no_point_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pointwise path used")

        monkeypatch.setattr("cubeharm._kernels.evaluate_terms", refuse)
        p = pp("x1^4*x2^2*x3 - x3^2", 3)
        d = CubeDomain(3, Fraction(1))
        numeric_integrate_cube_many(p, d, [Weight.power(1)])
        numeric_integrate_diagonal_many(p, d, [Weight.power(1)])
        numeric_integrate_boundary(p, d)

    def test_imports_from_integrate(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "integrate"
            for alias in node.names
        }
        assert names == {"CubeDomain", "Weight"}

    def test_zero_polynomial(self):
        d = CubeDomain(3, Fraction(1))
        assert numeric_integrate_cube_many(Poly.zero(3), d, [Weight.power(0)]) == [0.0]
        assert numeric_integrate_boundary(Poly.zero(3), d) == 0.0


def _numpy_loaded_after(code: str) -> bool:
    src = str(Path(oracle.__file__).resolve().parents[1])
    code += "\nprint('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.splitlines()[-1] == "True"


def test_package_import_does_not_load_numpy():
    assert not _numpy_loaded_after("import sys, cubeharm, cubeharm.cli")


def test_crosscheck_does_not_load_numpy():
    code = (
        "import sys\n"
        "from cubeharm.cli import main\n"
        "assert main(['crosscheck', '--n', '3', '--count', '2', '--deg', '4']) == 0"
    )
    assert not _numpy_loaded_after(code)


class TestQuadratureSpec:
    def test_value_behaviour(self):
        check_value_class(
            QuadratureSpec(),
            QuadratureSpec(points_per_axis=24),
            QuadratureSpec(25),
            ("points_per_axis",),
            "QuadratureSpec(points_per_axis=24)",
        )


class TestBudgets:
    def test_points_per_axis_capped(self):
        QuadratureSpec(points_per_axis=MAX_POINTS_PER_AXIS)
        with pytest.raises(ValueError, match="points_per_axis"):
            QuadratureSpec(points_per_axis=MAX_POINTS_PER_AXIS + 1)
        with pytest.raises(ValueError, match="points_per_axis"):
            QuadratureSpec(points_per_axis=1)
        with pytest.raises(ValueError, match="points_per_axis must be in"):
            QuadratureSpec(1)
