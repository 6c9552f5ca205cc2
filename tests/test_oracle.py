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
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeharm.oracle as oracle
from conftest import check_value_class, polys_st, pp, seeded_random_polys
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
    numeric_integrate_cube_many,
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


def _per_node_newton(npts):
    """The rule as built before it was mirrored: every node by its own Newton
    iteration from the cosine guess, each stopped where the scalar loop
    stopped.  The iterations run for all nodes at once in numpy, whose
    float64 +, -, * and / round as Python's do."""
    x = np.array([math.cos(math.pi * (i + 0.75) / (npts + 0.5)) for i in range(npts)])

    def legendre(x):
        p_prev, p = np.ones_like(x), x
        for k in range(2, npts + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, npts * (x * p - p_prev) / (x * x - 1.0)

    active = np.arange(npts)
    for _ in range(100):
        pn, dpn = legendre(x[active])
        dx = -pn / dpn
        x[active] += dx
        active = active[np.abs(dx) >= 1e-15]
        if not active.size:
            break
    _, dpn = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    return tuple(map(float, x[order])), tuple(map(float, w[order]))


def _is_mirrored(nodes, weights):
    return nodes == tuple(-x for x in reversed(nodes)) and weights == weights[::-1]


class TestMirroredRule:
    def test_mirrored_at_every_size(self):
        for q in range(2, MAX_POINTS_PER_AXIS + 1):
            nodes, weights = gauss_legendre(q)
            half = q // 2
            assert bits(nodes[:half]) == bits(-x for x in reversed(nodes[q - half :]))
            assert bits(nodes[half : q - half]) == bits([0.0] * (q % 2))
            assert bits(weights) == bits(reversed(weights))
            assert not any(oracle._box_moments(q, 9)[1::2])

    def test_same_rule_where_per_node_newton_was_mirrored(self):
        mirrored = []
        for q in range(2, MAX_POINTS_PER_AXIS + 1):
            old = _per_node_newton(q)
            if _is_mirrored(*old):
                mirrored.append(q)
                assert [bits(column) for column in gauss_legendre(q)] == [bits(c) for c in old]
        assert len(mirrored) == 91
        assert {5, 24, 41} <= set(mirrored)
        assert not {12, 13, 101, 256} & set(mirrored)


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
        value = numeric_integrate_cube_many(Poly.const(2, 1), D21, [Weight.power(0)])[0]
        assert abs(value - 4.0) < 1e-12

    def test_cube_product_of_squares(self):
        value = numeric_integrate_cube_many(pp("x1^2*x2^2", 2), D21, [Weight.power(0)])[0]
        assert abs(value - 4 / 9) < 1e-10

    def test_cube_example1_error(self, example1):
        f, h = example1
        value = numeric_integrate_cube_many(f - h, D21, [Weight.power(0)])[0]
        assert abs(value - 8 / 45) < 1e-9

    def test_diagonal_mass(self):
        value = numeric_integrate_diagonal_many(Poly.const(2, 1), D21, [Weight.power(0)])[0]
        assert abs(value - 4.0) < 1e-12

    def test_diagonal_square(self):
        value = numeric_integrate_diagonal_many(pp("x1^2", 2), D21, [Weight.power(0)])[0]
        assert abs(value - 4 / 3) < 1e-10

    def test_diagonal_weighted_n3(self):
        d = CubeDomain(3, Fraction(1))
        value = numeric_integrate_diagonal_many(Poly.const(3, 1), d, [Weight.power(1)])[0]
        assert abs(value - 4.0) < 1e-10

    def test_boundary_surface(self):
        assert abs(numeric_integrate_boundary(Poly.const(2, 1), D21) - 8.0) < 1e-12

    def test_profile_weight(self):
        # weight profile u + u^2 at u = 1 - max|x|; exact engine as reference
        from cubeharm.poly import UniPoly

        phi_weight = UniPoly({1: 1, 2: 1})
        exact = integrate_cube(pp("x1^2*x2^2", 2), D21, phi_weight)
        numeric = numeric_integrate_cube_many(pp("x1^2*x2^2", 2), D21, [phi_weight])[0]
        assert rel_dev(exact, numeric) < 1e-12

    def test_determinism(self):
        p = pp("x1^6 - 2*x2^4", 2)
        first = numeric_integrate_cube_many(p, D21, [Weight.power(1)])[0]
        second = numeric_integrate_cube_many(p, D21, [Weight.power(1)])[0]
        assert first == second


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", [101, 202])
    def test_random_agreement(self, seed):
        for p in seeded_random_polys(seed, 6, dims=(2, 3)):
            d = CubeDomain(p.dim, Fraction(1))
            assert rel_dev(integrate_boundary(p, d), numeric_integrate_boundary(p, d)) < 1e-9
            for k in (0, 1, 2):
                w = Weight.power(k)
                cube = numeric_integrate_cube_many(p, d, [w])[0]
                diagonal = numeric_integrate_diagonal_many(p, d, [w])[0]
                assert rel_dev(integrate_cube(p, d, w), cube) < 1e-9
                assert rel_dev(integrate_diagonal(p, d, w), diagonal) < 1e-9

    def test_non_unit_radius(self):
        d = CubeDomain(2, Fraction(3, 2))
        p = pp("x1^4*x2^2 + x2^2", 2)
        w = Weight.power(2)
        cube = numeric_integrate_cube_many(p, d, [w])[0]
        diagonal = numeric_integrate_diagonal_many(p, d, [w])[0]
        assert rel_dev(integrate_cube(p, d, w), cube) < 1e-10
        assert rel_dev(integrate_diagonal(p, d, w), diagonal) < 1e-10


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
    phi = [float(weight(d.r - Fraction(x))) for x in t] if weight else None
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
REFERENCE_WEIGHTS = [Weight.power(k) for k in (0, 1, 2)] + [UniPoly({1: Fraction(1, 2), 3: 3})]


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
            assert abs(numeric_integrate_cube_many(p, d, [w])[0]) < 1e-13
            assert abs(numeric_integrate_diagonal_many(p, d, [w])[0]) < 1e-13
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
        assert names == {"CubeDomain"}

    def test_zero_polynomial(self):
        d = CubeDomain(3, Fraction(1))
        assert numeric_integrate_cube_many(Poly.zero(3), d, [Weight.power(0)]) == [0.0]
        assert numeric_integrate_boundary(Poly.zero(3), d) == 0.0


# -- sign-enumerating reference -------------------------------------------------
# The oracle sums only terms even on every axis, once per cell scaled by
# 2^fixed, and builds one power table for all the weights.  These are the
# unfolded forms: one radial table per profile, and every term summed once per
# sign pattern.  An odd free exponent's box moment is an exact zero on the
# mirrored rule, an odd fixed one's +v and -v cancel exactly, an even term's
# 2^fixed copies scale exactly, and fsum rounds the exact sum once, so both
# forms give the same floats bit for bit, at every rule size.


def _enumerated_box(npts, top):
    pairs = list(zip(*gauss_legendre(npts)))
    return [math.fsum(w * s**e for s, w in pairs) for e in range(top + 1)]


def _horner(coeffs, u):
    value = 0.0
    for c in reversed(coeffs):
        value = value * u + c
    return value


def _enumerated_radial_sums(profile, r, npts, jacobian, top):
    nodes, weights = gauss_legendre(npts)
    phi = [float(profile.terms.get(b, 0)) for b in range(profile.degree + 1)]
    t = [r * (x + 1.0) / 2.0 for x in nodes]
    wphi = [w * r / 2.0 * _horner(phi, r - x) for x, w in zip(t, weights)]
    return tuple(
        math.fsum(c * x ** (e + jacobian) for c, x in zip(wphi, t)) for e in range(top + 1)
    )


def _enumerated_cell_sums(p, fixed, box, radials):
    n = p.dim
    sums = [[] for _ in radials]
    for axes in combinations(range(n), fixed):
        free = [k for k in range(n) if k not in axes]
        parts = []
        for alpha, c in p.terms.items():
            value = float(c)
            for k in free:
                value *= box[alpha[k]]
            parts.append((sum(alpha), value, [alpha[k] for k in axes]))
        for signs in product((1, -1), repeat=fixed):
            signed = [(e, value * math.prod(map(pow, signs, tied))) for e, value, tied in parts]
            for table, out in zip(radials, sums):
                out.extend(value * table[e] for e, value in signed)
    return [math.fsum(s) for s in sums]


def enumerated(p, d, weights, q, fixed):
    r, top = float(d.r), p.total_degree
    radials = [_enumerated_radial_sums(w, r, q, d.n - fixed, top) for w in weights]
    return _enumerated_cell_sums(p, fixed, _enumerated_box(q, top), radials)


def enumerated_boundary(p, d, q):
    r, top = float(d.r), p.total_degree
    radial = [r ** (e + d.n - 1) for e in range(top + 1)]
    return _enumerated_cell_sums(p, 1, _enumerated_box(q, top), [radial])[0]


def bits(values):
    """Hex forms, so that 0.0 and -0.0 differ too."""
    return [v.hex() for v in values]


class TestSignFold:
    @given(
        st.data(),
        st.integers(2, 5),
        st.sampled_from([2, 5, 24, 101, 256]),
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_sign_enumeration(self, data, n, q, r):
        p = data.draw(polys_st(n, max_degree=8))
        d, spec = CubeDomain(n, r), QuadratureSpec(q)
        cube = numeric_integrate_cube_many(p, d, REFERENCE_WEIGHTS, spec)
        assert bits(cube) == bits(enumerated(p, d, REFERENCE_WEIGHTS, q, 1))
        diagonal = numeric_integrate_diagonal_many(p, d, REFERENCE_WEIGHTS, spec)
        assert bits(diagonal) == bits(enumerated(p, d, REFERENCE_WEIGHTS, q, 2))
        boundary = numeric_integrate_boundary(p, d, spec)
        assert bits([boundary]) == bits([enumerated_boundary(p, d, q)])


class TestSharedTables:
    @pytest.mark.parametrize(
        "q,jacobian,degrees",
        [(5, 1, [0, 2, 6]), (24, 2, [4, 8]), (101, 0, [3])],
        ids=["5-1-6", "24-2-8", "101-0-3"],  # q, jacobian, top degree
    )
    def test_radial_sums_share_the_powers(self, q, jacobian, degrees):
        profiles = REFERENCE_WEIGHTS
        shared = oracle._radial_sums(profiles, 1.5, q, jacobian, degrees)
        singles = [oracle._radial_sums([c], 1.5, q, jacobian, degrees)[0] for c in profiles]
        assert [sorted(t) for t in shared] == [degrees] * len(profiles)
        assert [bits(t.values()) for t in shared] == [bits(t.values()) for t in singles]
        top = degrees[-1]
        reference = [_enumerated_radial_sums(c, 1.5, q, jacobian, top) for c in profiles]
        expected = [[table[e] for e in degrees] for table in reference]
        assert [bits(t.values()) for t in shared] == [bits(t) for t in expected]

    def test_no_even_term_builds_no_radial_table(self):
        # every row t^(e + j) would leave the float range at this radius
        d = CubeDomain(3, Fraction(10) ** 200)
        assert numeric_integrate_cube_many(pp("x1^3*x2", 3), d, [Weight.power(0)]) == [0.0]

    def test_no_weights_builds_no_powers(self):
        # t^(e + j) would leave the float range at this radius
        d = CubeDomain(3, Fraction(10) ** 200)
        assert numeric_integrate_cube_many(pp("x1^4", 3), d, []) == []

    @pytest.mark.parametrize("r", [10**40, 10**45], ids=["product", "row"])
    def test_overflow_raises(self, r):
        # at 10^40 a product v * R[e] overflows to inf, at 10^45 a radial row
        p, weights = pp("9*x1^4*x2^2 + 1", 2), [Weight.power(0), Weight.power(2)]
        with pytest.raises(OverflowError):
            numeric_integrate_cube_many(p, CubeDomain(2, r), weights)

    def test_box_moments_cached_and_bounded(self):
        first = oracle._box_moments(24, 6)
        assert oracle._box_moments(24, 6) is first
        assert bits(first) == bits(_enumerated_box(24, 6))
        maxsize = oracle._box_moments.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 256


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
