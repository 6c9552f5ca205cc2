import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import check_round_trips, check_value_class, polys_st, pp
from cubeharm.integrate import (
    CubeDomain,
    DegreeSums,
    Region,
    Weight,
    _cell_factors,
    _radial,
    integral,
    integrate_boundary,
    integrate_cube,
    integrate_diagonal,
    measure,
)
from cubeharm.onesided import check_onesided, vanishes_on_diagonal
from cubeharm.oracle import (
    numeric_integrate_boundary,
    numeric_integrate_cube,
    numeric_integrate_cube_many,
    numeric_integrate_diagonal,
    numeric_integrate_diagonal_many,
)
from cubeharm.parser import parse_unipoly
from cubeharm.poly import DimensionMismatchError, Poly, UniPoly
from cubeharm.sampling import random_poly

D21 = CubeDomain(2, Fraction(1))
D31 = CubeDomain(3, Fraction(1))


def closed_form_mass(region: Region, n: int, r: Fraction, k: int) -> Fraction:
    """The three closed-form masses, written independently of the engine."""
    if region is Region.CUBE:
        return Fraction(2**n * math.factorial(n), math.factorial(n + k)) * r ** (n + k)
    scale = Fraction(2**n if region is Region.BOUNDARY else 2 ** (n - 1))
    return scale * Fraction(math.factorial(n), math.factorial(n + k - 1)) * r ** (
        n + k - 1
    )


class TestCubeDomain:
    def test_rejects_low_dimension(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match="dimension must be >= 2"):
                CubeDomain(n, Fraction(1))

    def test_rejects_nonpositive_radius(self):
        for r in (Fraction(0), "-1/2", -1):
            with pytest.raises(ValueError, match="radius must be positive"):
                CubeDomain(2, r)

    def test_radius_coerced_to_fraction(self):
        assert CubeDomain(2, "3/2").r == Fraction(3, 2)
        assert CubeDomain(2, "1/2").r == Fraction(1, 2)
        assert type(CubeDomain(2, 1).r) is Fraction

    def test_value_behaviour(self):
        check_value_class(
            CubeDomain(2, "1/2"),
            CubeDomain(n=2, r=Fraction(1, 2)),
            CubeDomain(3, "1/2"),
            ("n", "r"),
            "CubeDomain(n=2, r=Fraction(1, 2))",
        )
        assert CubeDomain(r=1, n=2) == CubeDomain(2, Fraction(1))

    def test_round_trips(self):
        check_round_trips(CubeDomain(3, "7/5"))

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: integrate_cube(p, D21, Weight.power(0)),
            lambda p: integrate_boundary(p, D21),
            lambda p: numeric_integrate_cube_many(p, D21, [Weight.power(0)]),
            lambda p: numeric_integrate_diagonal_many(p, D21, [Weight.power(0)]),
            lambda p: numeric_integrate_boundary(p, D21),
            lambda p: check_onesided(p, D21),
            lambda p: vanishes_on_diagonal(p, D21),
        ],
        ids=["cube", "boundary", "oracle-cube", "oracle-diagonal", "oracle-boundary",
             "check_onesided", "vanishes_on_diagonal"],
    )
    def test_one_dimension_refusal(self, call):
        with pytest.raises(DimensionMismatchError) as err:
            call(pp("x1^2", 3))
        assert str(err.value) == "polynomial dimension 3 does not match domain dimension 2"


class TestWeight:
    """A weight is its profile: Weight only names the power profiles, and
    every weighted function, exact and oracle, takes the profile itself."""

    def test_power_is_its_profile(self):
        for k in (0, 1, 2, 7):
            assert Weight.power(k) == UniPoly.monomial(k, Fraction(1, math.factorial(k)))
        assert Weight.power(2) == UniPoly([0, 0, Fraction(1, 2)])
        assert Weight.power(2) != UniPoly([0, 0, 1])
        with pytest.raises(ValueError, match="weight exponent must be >= 0, got -1"):
            Weight.power(-1)

    def test_no_weight_values(self):
        with pytest.raises(TypeError):
            Weight(UniPoly.monomial(2, Fraction(1, 2)))
        assert not hasattr(Weight, "from_profile")

    # each weighted function as a function of (p, d, profile)
    WEIGHTED = {
        "integrate_cube": integrate_cube,
        "integrate_diagonal": integrate_diagonal,
        "integral cube": lambda p, d, w: integral(d, Region.CUBE, w)(DegreeSums(p)),
        "integral diagonal": lambda p, d, w: integral(d, Region.DIAGONAL, w)(DegreeSums(p)),
        "numeric_integrate_cube": numeric_integrate_cube,
        "numeric_integrate_diagonal": numeric_integrate_diagonal,
        "numeric_integrate_cube_many": lambda p, d, w: numeric_integrate_cube_many(p, d, [w])[0],
        "numeric_integrate_diagonal_many": (
            lambda p, d, w: numeric_integrate_diagonal_many(p, d, [w])[0]
        ),
    }

    @pytest.mark.parametrize("name", WEIGHTED)
    def test_power_and_hand_built_profiles_agree(self, name):
        fn = self.WEIGHTED[name]
        p, d = pp("x1^4*x2^2 + 3*x1^2*x3^2 - 1/5", 3), CubeDomain(3, Fraction(3, 2))
        for k in (0, 1, 4):
            hand_built = UniPoly.monomial(k, Fraction(1, math.factorial(k)))
            assert fn(p, d, Weight.power(k)) == fn(p, d, hand_built)
        # a multi-term profile, hand-built or parsed, weighs as the sum of its
        # power parts: u^2/2 - 3 u^4/4!
        phi = UniPoly([0, 0, Fraction(1, 2), 0, Fraction(-1, 8)])
        assert parse_unipoly("t^2/2 - t^4/8") == phi
        value, parts = fn(p, d, phi), fn(p, d, Weight.power(2)) - 3 * fn(p, d, Weight.power(4))
        if isinstance(value, float):
            assert value == pytest.approx(parts, rel=1e-12)
        else:
            assert value == parts != 0


class TestCube:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_constant_matches_closed_form(self, n, k):
        d = CubeDomain(n, Fraction(2, 3))
        value = integrate_cube(Poly.const(n, 1), d, Weight.power(k))
        assert value == closed_form_mass(Region.CUBE, n, Fraction(2, 3), k)

    def test_product_of_squares(self):
        assert integrate_cube(pp("x1^2*x2^2"), D21, Weight.power(0)) == Fraction(4, 9)

    def test_example1_error_integral(self):
        p = pp("1/4*(x1^2 - x2^2)^2")
        assert integrate_cube(p, D21, Weight.power(0)) == Fraction(8, 45)

    def test_weighted_fixture(self):
        # frozen from tests/reference.py: cube(x1^2*x2^4, (3,1), k=2) = 4/825
        p = pp("x1^2*x2^4", 3)
        assert integrate_cube(p, D31, Weight.power(2)) == Fraction(4, 825)

    def test_odd_monomials_vanish(self):
        assert integrate_cube(pp("x1^3*x2^2"), D21, Weight.power(1)) == 0

    def test_zero_profile_integrates_to_zero(self):
        zero = UniPoly([0])
        assert integrate_cube(pp("x1^2 + 1", 2), D21, zero) == 0
        assert integrate_diagonal(pp("x1^2 + 1", 2), D21, zero) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            integrate_cube(pp("x1", 3), D21, Weight.power(0))


class TestBoundary:
    def test_surface_area(self):
        assert integrate_boundary(Poly.const(2, 1), D21) == 8

    def test_harmonic_quadratic_cancels(self):
        # faces x1 = +-1 give 2*(2 - 2/3), faces x2 = +-1 give the negative
        assert integrate_boundary(pp("x1^2 - x2^2"), D21) == 0

    def test_surface_area_n3_r2(self):
        assert integrate_boundary(Poly.const(3, 1), CubeDomain(3, Fraction(2))) == 96

    def test_fixture(self):
        # frozen from tests/reference.py: boundary(x1^2*x2^4, (3,2)) = 6144/5
        p = pp("x1^2*x2^4", 3)
        assert integrate_boundary(p, CubeDomain(3, Fraction(2))) == Fraction(6144, 5)


class TestDiagonal:
    def test_mass(self):
        assert integrate_diagonal(Poly.const(2, 1), D21, Weight.power(0)) == 4

    def test_square_moment(self):
        # four sheets, each int_0^1 t^2 dt
        assert integrate_diagonal(pp("x1^2", 2), D21, Weight.power(0)) == Fraction(4, 3)

    def test_weighted_mass_n3(self):
        assert integrate_diagonal(Poly.const(3, 1), D31, Weight.power(1)) == 4

    def test_weighted_fixture(self):
        # frozen from tests/reference.py: diag(x1^2*x2^2, (3,1), k=2) = 5/126
        p = pp("x1^2*x2^2", 3)
        assert integrate_diagonal(p, D31, Weight.power(2)) == Fraction(5, 126)

    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            CubeDomain(1, Fraction(1))


class TestMeasure:
    def test_unit_square(self):
        assert measure(D21, Region.CUBE, 0) == 4

    def test_diagonal_n3(self):
        assert measure(D31, Region.DIAGONAL, 0) == 12

    def test_weighted_square(self):
        assert measure(D21, Region.CUBE, 1) == Fraction(4, 3)

    @pytest.mark.parametrize("region", list(Region))
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1), Fraction(3)])
    def test_closed_forms(self, region, n, k, r):
        d = CubeDomain(n, r)
        assert measure(d, region, k) == closed_form_mass(region, n, r, k)

    def test_boundary_weight_is_face_local(self):
        # The global weight (r - max|x|)^k/k! is identically zero on the
        # boundary for k >= 1; the reported mass uses each face's in-face
        # maximum instead, which is what the closed form describes.
        assert measure(D21, Region.BOUNDARY, 1) == 4
        assert measure(D21, Region.BOUNDARY, 0) == integrate_boundary(
            Poly.const(2, 1), D21
        )

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            measure(D21, Region.CUBE, -1)


class TestProperties:
    @given(polys_st(2, max_degree=5), polys_st(2, max_degree=5))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, p, q):
        w = Weight.power(1)
        a, b = Fraction(3, 7), Fraction(-2, 5)
        combo = p.scale(a) + q.scale(b)
        assert integrate_cube(combo, D21, w) == a * integrate_cube(
            p, D21, w
        ) + b * integrate_cube(q, D21, w)
        assert integrate_diagonal(combo, D21, w) == a * integrate_diagonal(
            p, D21, w
        ) + b * integrate_diagonal(q, D21, w)
        assert integrate_boundary(combo, D21) == a * integrate_boundary(
            p, D21
        ) + b * integrate_boundary(q, D21)

    @given(polys_st(3, max_degree=4))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_under_permutation_and_sign_flip(self, p):
        # x_i -> flips[i] * x_perm[i], a signed permutation of coordinates
        perm = (2, 0, 1)
        flips = (-1, 1, -1)
        terms = {}
        for exps, coeff in p.terms.items():
            new_exps = tuple(exps[perm[i]] for i in range(3))
            sign = 1
            for axis in range(3):
                if flips[axis] < 0 and new_exps[axis] % 2:
                    sign = -sign
            terms[new_exps] = terms.get(new_exps, Fraction(0)) + sign * coeff
        transformed = Poly(3, terms)
        w = Weight.power(1)
        assert integrate_cube(p, D31, w) == integrate_cube(transformed, D31, w)
        assert integrate_diagonal(p, D31, w) == integrate_diagonal(transformed, D31, w)
        assert integrate_boundary(p, D31) == integrate_boundary(transformed, D31)

    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(3)])
    def test_homogeneous_scaling(self, r):
        p = pp("x1^2*x2^2 - 2*x2^4")  # homogeneous of degree 4
        d_unit, d_r = D21, CubeDomain(2, r)
        w = Weight.power(0)
        assert integrate_cube(p, d_r, w) == r ** (2 + 4) * integrate_cube(p, d_unit, w)
        assert integrate_boundary(p, d_r) == r ** (2 + 4 - 1) * integrate_boundary(
            p, d_unit
        )
        assert integrate_diagonal(p, d_r, w) == r ** (2 + 4 - 1) * integrate_diagonal(
            p, d_unit, w
        )


class TestSymbolicReference:
    """Exact agreement with the sympy-backed reference implementations."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_cube_matches_reference(self, seed):
        rng = random.Random(seed)
        p = random_poly(rng, 2, max_degree=5, max_terms=5)
        w = Weight.power(rng.randint(0, 2))
        assert integrate_cube(p, D21, w) == reference.ref_cube(p, D21.r, w)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_diagonal_matches_reference(self, seed):
        rng = random.Random(seed)
        p = random_poly(rng, 2, max_degree=5, max_terms=5)
        w = Weight.power(rng.randint(0, 2))
        assert integrate_diagonal(p, D21, w) == reference.ref_diagonal(
            p, D21.r, w
        )

    def test_boundary_matches_reference(self):
        rng = random.Random(31)
        p = random_poly(rng, 3, max_degree=4, max_terms=4)
        r = Fraction(3, 2)
        assert integrate_boundary(p, CubeDomain(3, r)) == reference.ref_boundary(p, r)

    def test_cube_matches_reference_n3(self):
        rng = random.Random(41)
        p = random_poly(rng, 3, max_degree=4, max_terms=4)
        w = Weight.power(1)
        assert integrate_cube(p, D31, w) == reference.ref_cube(p, D31.r, w)


class TestCellFactor:
    """The closed form C_s(alpha) = B(alpha) e_s(alpha_k + 1) against the
    subset sum of its definition, and at high n against formulas only."""

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_matches_subset_sum(self, alpha):
        alpha = tuple(alpha)
        assert _cell_factors(alpha) == (
            reference.cell_factor(alpha, 1),
            reference.cell_factor(alpha, 2),
        )

    def test_odd_exponent_vanishes(self):
        assert _cell_factors((2, 3, 0)) == (0, 0)
        assert _cell_factors((2, 0, 1, 4)) == (0, 0)

    def test_high_dimension_by_formula(self):
        n = 200
        assert _cell_factors((0,) * n) == (2**n * n, 2**n * math.comb(n, 2))

    def test_high_dimension_diagonal_integral(self):
        # alpha = (2, 0, ..., 0): tied pairs through axis 1 leave n - 2 free
        # zero exponents (2^(n-2) each), the other C(n-1, 2) pairs leave the
        # factor 2/3 as well, so C_2 = 2^n ((n-1) + C(n-1, 2)/3); with phi = 1,
        # R(n, 1) = 1/(n+1)
        n = 200
        p = Poly(n, {(2,) + (0,) * (n - 1): 1})
        expected = 2**n * (Fraction(n - 1) + Fraction(math.comb(n - 1, 2), 3)) / (n + 1)
        assert integrate_diagonal(p, CubeDomain(n, 1), Weight.power(0)) == expected


class TestDegreeSums:
    def test_groups_terms_by_total_degree(self):
        p = pp("x1^2 + 3*x2^2 + x1^3 + 2*x1^2*x2^2 - 5", 2)
        sums = DegreeSums(p)
        assert sums[1] == {
            0: -5 * reference.cell_factor((0, 0), 1),
            2: reference.cell_factor((2, 0), 1) + 3 * reference.cell_factor((0, 2), 1),
            4: 2 * reference.cell_factor((2, 2), 1),
        }
        assert sums[2] == {
            0: -5 * reference.cell_factor((0, 0), 2),
            2: reference.cell_factor((2, 0), 2) + 3 * reference.cell_factor((0, 2), 2),
            4: 2 * reference.cell_factor((2, 2), 2),
        }


ODD_POLYS = ("x1", "x1*x2", "x1^3*x2 - 2*x1*x2^5", "x2^3 + 1/3*x1^2*x2")


def reference_degree_sums(p: Poly, s: int) -> dict[int, Fraction]:
    """The Fraction loop the integer degree sums replaced: one Fraction
    product and one Fraction sum per term, degrees in first-term order."""
    sums = {}
    for alpha, coeff in p.terms.items():
        if cells := _cell_factors(alpha)[s - 1]:
            a = sum(alpha)
            sums[a] = sums[a] + coeff * cells if a in sums else coeff * cells
    return sums


def first_primes(count: int) -> list[int]:
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes):
            primes.append(k)
        k += 1
    return primes


class TestIntegerDegreeSums:
    """DegreeSums adds each (degree, coefficient denominator) group in
    integers over the lcm of its cell factors' denominators and then adds a
    degree's groups as Fractions; the result is the Fraction loop's, with
    the same keys in the same order and a Fraction for every value."""

    def check(self, p: Poly) -> None:
        sums = DegreeSums(p)
        for s in (1, 2):
            expected = reference_degree_sums(p, s)
            assert list(sums[s].items()) == list(expected.items())
            assert all(type(v) is Fraction for v in sums[s].values())

    @given(st.integers(2, 5).flatmap(lambda n: polys_st(n, max_degree=8, max_terms=12)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_loop(self, p):
        self.check(p)

    def test_cancelling_degree_keeps_its_key(self):
        sums = DegreeSums(pp("x1^2 - x2^2", 2))
        for s in (1, 2):
            assert sums[s] == {2: 0} and type(sums[s][2]) is Fraction

    @pytest.mark.parametrize(
        "text",
        [
            # degree 4 of n = 3: coefficient denominators 3, 5 and 1, each
            # group's cell denominators 5 then 9 (x1^4, x1^2*x2^2, ...)
            "1/3*x1^4 + 2/3*x1^2*x2^2 - 1/5*x2^4 + 4/5*x1^2*x3^2 + 1/3*x3^4"
            " + x2^2*x3^2 + 7*x1^2 - 1/3*x2^2",
            # degree 6: one coefficient denominator 2 over the cell
            # denominators 7, 5 and 3 of C_1, the group's lcm widened twice
            "1/2*x1^6 + 3/2*x1^4*x2^2 - 1/2*x1^2*x2^2*x3^2 + 5/7*x2^6 - 1/7*x3^6 + 1",
            # a degree whose groups cancel across denominators
            "1/3*x1^4 - 1/3*x2^4 + 1/5*x1^2*x3^2 - 1/5*x2^2*x3^2",
        ],
    )
    def test_mixed_coefficient_and_cell_denominators(self, text):
        self.check(pp(text, 3))

    def test_coprime_large_denominators(self):
        # 50 terms at n = 3 on distinct even exponents, coefficient i has the
        # denominator p_i^e of about 300 digits, p_i the i-th prime
        exps = [
            (2 * a, 2 * b, 2 * c)
            for a in range(6)
            for b in range(6 - a)
            for c in range(6 - a - b)
        ][:50]
        terms = {
            e: Fraction((-1) ** i * (i + 1), q ** math.ceil(300 / math.log10(q)))
            for i, (e, q) in enumerate(zip(exps, first_primes(50)))
        }
        self.check(Poly(3, terms))


class TestFoldedScale:
    """integral(..., scale=q) folds q into each degree's radial factor: its
    value is q times the unscaled integral, and a polynomial whose degree sums
    are empty gives the integer 0, while the public functions give Fractions."""

    @given(polys_st(3, max_degree=6), st.sampled_from(list(Region)), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_scale_multiplies_the_integral(self, p, region, k):
        d = CubeDomain(3, Fraction(3, 2))
        w = Weight.power(k)
        sums = DegreeSums(p)
        plain = integral(d, region, w)(sums)
        for q in (Fraction(2), Fraction(-7, 3), 1 / measure(d, Region.DIAGONAL, k)):
            assert integral(d, region, w, scale=q)(sums) == q * plain

    @pytest.mark.parametrize("text", ODD_POLYS)
    @pytest.mark.parametrize("region", list(Region))
    def test_empty_degree_sums_give_the_integer_zero(self, text, region):
        sums = DegreeSums(pp(text, 2))
        value = integral(D21, region, Weight.power(1), scale=Fraction(1, 3))(sums)
        assert value == 0 and type(value) is int
        assert sums[1] == {} and sums[2] == {}

    @pytest.mark.parametrize("text", ODD_POLYS + ("x1^2 - x2^2", "1", "x1^4 + x2"))
    def test_public_integrals_return_fractions(self, text):
        p = pp(text, 2)
        w = UniPoly([0, 0, Fraction(1, 2)])
        values = [
            integrate_cube(p, D21, w),
            integrate_diagonal(p, D21, w),
            integrate_boundary(p, D21),
        ]
        assert all(type(v) is Fraction for v in values)
        if text in ODD_POLYS:
            assert values == [0, 0, 0]

    @pytest.mark.parametrize("region", list(Region))
    @pytest.mark.parametrize("k", [0, 2])
    def test_measure_returns_fractions(self, region, k):
        assert type(measure(CubeDomain(3, Fraction(1, 2)), region, k)) is Fraction


class TestCommonDenominator:
    """A profile's terms are summed over one common denominator; a profile
    with two or more nonzero coefficients has the sum of its one-coefficient
    parts as its value."""

    PROFILES = {
        # t^2 (1 + t)^30, 31 nonzero coefficients; summing its one-coefficient
        # parts at r = 10^-240 is the slow sum that the common denominator avoids
        "binomial": UniPoly([0, 0] + [math.comb(30, j) for j in range(31)]),
        "three": parse_unipoly("t^2/2 - 3*t^3 + t^5/7"),
        "constant": parse_unipoly("1/3 + t/5 - 7/11*t^4"),
    }

    @pytest.mark.parametrize("r", [Fraction(1, 10**240), Fraction(3, 7)], ids=["1e-240", "3/7"])
    @pytest.mark.parametrize("name", PROFILES)
    def test_sum_of_one_coefficient_parts(self, name, r):
        phi = self.PROFILES[name]
        terms = phi.terms.items()
        parts = [UniPoly.monomial(b, c) for b, c in terms]
        assert len(parts) > 1
        unit = Fraction(-2, 3)
        # the degree a and the shift (n - 1 on the cube) of R_phi(a + shift, r)
        for a, shift in ((0, 0), (1, 0), (5, 0), (40, 0), (3, 37)):
            whole = _radial(a, shift, r, phi, unit)
            assert whole == sum(_radial(a, shift, r, part, unit) for part in parts)
            # R_phi(A, r) = sum_b c_b A! b! r^(A+b+1) / (A+b+1)!, A = a + shift,
            # without the factor r^(shift+1) that `integral` puts in the unit
            big = a + shift
            assert whole * r ** (shift + 1) == unit * sum(
                c * math.factorial(big) * math.factorial(b) * r ** (big + b + 1)
                / math.factorial(big + b + 1)
                for b, c in terms
            )
        d = CubeDomain(2, r)
        sums = DegreeSums(pp("x1^4 + 3*x1^2*x2^2 - 1/2", 2))
        for region in (Region.CUBE, Region.DIAGONAL):
            assert integral(d, region, phi)(sums) == sum(
                integral(d, region, part)(sums) for part in parts
            )


class TestSharedDegreeSums:
    """The integrate_* functions share one polynomial's degree sums across
    consecutive calls on the same object: the memo holds the last polynomial
    and is matched by identity, never by equality."""

    W = Weight.power(2)
    REGIONS = (Region.CUBE, Region.DIAGONAL, Region.BOUNDARY)  # the order of `values`

    def fresh(self, p: Poly, region: Region, d: CubeDomain = D31) -> Fraction:
        return Fraction(integral(d, region, self.W)(DegreeSums(p)))

    def values(self, p: Poly, d: CubeDomain = D31) -> list[Fraction]:
        return [
            integrate_cube(p, d, self.W),
            integrate_diagonal(p, d, self.W),
            integrate_boundary(p, d),
        ]

    def test_interleaved_polynomials_match_fresh_sums(self):
        p = pp("x1^4 - 3*x2^2*x3^2 + 1/7*x3^2", 3)
        q = pp("x1^2 - x2^2 + 5*x1^2*x2^2*x3^2", 3)
        twin = pp("x1^4 - 3*x2^2*x3^2 + 1/7*x3^2", 3)
        assert twin == p and twin is not p
        d = CubeDomain(3, Fraction(5, 3))
        for poly in (p, q, p, twin, q, twin, p):
            expected = [self.fresh(poly, region, d) for region in self.REGIONS]
            assert self.values(poly, d) == expected

    def count_tables(self, monkeypatch) -> list[tuple[Poly, int]]:
        built = []
        missing = DegreeSums.__missing__

        def counting(self, s):
            built.append((self.poly, s))
            return missing(self, s)

        monkeypatch.setattr(DegreeSums, "__missing__", counting)
        return built

    def test_seven_integrals_build_two_tables(self, monkeypatch):
        p = pp("x1^2*x2^2 + 2*x3^4 - 1/3", 3)
        built = self.count_tables(monkeypatch)
        weights = [Weight.power(k) for k in (0, 1, 2)]
        integrate_boundary(p, D31)
        for w in weights:
            integrate_cube(p, D31, w)
            integrate_diagonal(p, D31, w)
        assert built == [(p, 1), (p, 2)]

    def test_crosscheck_builds_two_tables_per_polynomial(self, monkeypatch, capsys):
        from cubeharm.cli import main

        built = self.count_tables(monkeypatch)
        assert main(["crosscheck", "--n", "3", "--count", "3", "--k", "0,1,2"]) == 0
        assert float(capsys.readouterr().out) < 1e-9
        # one s = 1 table, then one s = 2 table, of each of 3 polynomials
        assert [s for _, s in built] == [1, 2] * 3
        assert all(a is b for (a, _), (b, _) in zip(built[::2], built[1::2]))
        assert len({id(p) for p, _ in built}) == 3

    def test_dimension_mismatch_after_a_cached_call(self):
        p = pp("x1^2 + x2^2", 2)
        assert self.values(p, D21) == [self.fresh(p, r, D21) for r in self.REGIONS]
        for call in (
            lambda: integrate_cube(p, D31, self.W),
            lambda: integrate_diagonal(p, D31, self.W),
            lambda: integrate_boundary(p, D31),
        ):
            with pytest.raises(DimensionMismatchError):
                call()
