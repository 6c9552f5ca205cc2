import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from conftest import check_round_trips, check_value_class, polys_st, pp
from cubeharm.parser import parse_unipoly
from cubeharm.poly import (
    DimensionMismatchError,
    Poly,
    UniPoly,
    divide_exact,
    evaluate,
    iterated_laplacian,
    laplacian,
    partial,
    poly_sqrt,
    poly_to_text,
    rational_to_text,
    uni_negative_point,
    uni_to_text,
)

x1 = Poly.variable(2, 1)
x2 = Poly.variable(2, 2)


class TestArithmetic:
    def test_additive_inverse(self):
        assert (x1 + (-x1)).is_zero

    def test_monomial_product(self):
        assert x1**2 * x2**2 == Poly.monomial(2, (2, 2))

    def test_difference_of_squares(self):
        # (x1^2 - x2^2)(x1^2 + x2^2) = x1^4 - x2^4, expanded by hand
        left = (x1**2 - x2**2) * (x1**2 + x2**2)
        assert left == Poly(2, {(4, 0): 1, (0, 4): -1})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            x1 + Poly.variable(3, 1)

    def test_scale(self):
        assert x1.scale(Fraction(3, 4)) == Poly(2, {(1, 0): Fraction(3, 4)})
        assert x1.scale(0).is_zero


class TestRationalText:
    @pytest.mark.parametrize("q", [Fraction(10**4300 - 1), Fraction(1, 10**4300 - 1)])
    def test_4300_digits_printed(self, q):
        assert len(rational_to_text(q)) == 4302

    @pytest.mark.parametrize(
        "q", [Fraction(10**4300), Fraction(-(10**4300)), Fraction(1, 10**4300)]
    )
    def test_past_4300_digits_refused(self, q):
        with pytest.raises(ValueError) as exc:
            rational_to_text(q)
        assert str(exc.value) == (
            "exact value has more than 4300 digits in its numerator or denominator"
        )


def reference_text(terms, var: str = "x") -> str:
    """The text loop that signed each term by coeff < 0 and wrote abs(coeff)."""

    def term(exps, coeff):
        parts = [rational_to_text(coeff)]
        for i, e in enumerate(exps):
            if e:
                name = var if var == "t" else f"{var}{i + 1}"
                parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    pieces = []
    for exps, coeff in terms:
        if not pieces:
            pieces.append(term(exps, coeff))
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + term(exps, abs(coeff)))
    return " ".join(pieces) or "0/1"


class TestTextSigns:
    """poly_to_text and uni_to_text read each sign from the numerator; their
    bytes are the reference loop's, and the parser reads them back."""

    @given(st.integers(1, 4).flatmap(lambda n: polys_st(n, max_terms=8)))
    @settings(max_examples=100, deadline=None)
    def test_poly_text_matches_the_reference(self, p):
        text = poly_to_text(p)
        assert text == reference_text(p.sorted_terms())
        assert pp(text, p.dim) == p

    @pytest.mark.parametrize("signs", list(itertools.product((1, -1), repeat=4)))
    def test_negative_coefficient_in_every_position(self, signs):
        magnitudes = [Fraction(2, 3), Fraction(5), Fraction(1, 7), Fraction(4)]
        exps = [(3, 0), (1, 2), (0, 2), (0, 0)]
        p = Poly(2, {e: s * c for e, s, c in zip(exps, signs, magnitudes)})
        text = poly_to_text(p)
        assert text == reference_text(p.sorted_terms())
        assert pp(text, 2) == p
        coeffs = [s * c for s, c in zip(signs, magnitudes)]
        phi = UniPoly(coeffs[:1] + [0] + coeffs[1:])
        text = uni_to_text(phi)
        terms = [((i,), c) for i, c in sorted(phi.terms.items(), reverse=True)]
        assert text == reference_text(terms, "t")
        assert parse_unipoly(text) == phi

    def test_zero_polynomial(self):
        assert poly_to_text(Poly.zero(3)) == reference_text([]) == "0/1"
        assert pp(poly_to_text(Poly.zero(3)), 3).is_zero


class TestDerivatives:
    def test_power_rule(self):
        assert partial(x1**4, 1) == 4 * x1**3
        assert partial(x1**2 * x2**2, 2) == 2 * x1**2 * x2

    def test_constant(self):
        assert partial(Poly.const(2, 5), 1).is_zero

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            partial(x1, 3)
        with pytest.raises(ValueError):
            partial(x1, 0)

    def test_laplacian_product_monomial(self):
        assert laplacian(x1**2 * x2**2) == 2 * x2**2 + 2 * x1**2

    def test_laplacian_classical_harmonic(self):
        assert laplacian(x1**2 - x2**2).is_zero

    def test_laplacian_degree8_harmonic(self):
        h = pp("x1^8 + x2^8 - 28*(x1^6*x2^2 + x1^2*x2^6) + 70*x1^4*x2^4")
        assert laplacian(h).is_zero

    def test_iterated_laplacian_biharmonic(self):
        assert iterated_laplacian(x1**4 - 3 * x1**2 * x2**2, 2).is_zero

    def test_iterated_laplacian_quartic(self):
        # lap(x1^4) = 12 x1^2, lap again = 24
        assert iterated_laplacian(x1**4, 2) == Poly.const(2, 24)

    def test_iterated_laplacian_once(self):
        p = pp("3*x1^3*x2 - x2^4")
        assert iterated_laplacian(p, 1) == laplacian(p)

    def test_iterated_laplacian_rejects_zero_order(self):
        with pytest.raises(ValueError):
            iterated_laplacian(x1, 0)


def reference_laplacian(p: Poly) -> Poly:
    """The Laplacian term by term in Fraction arithmetic."""
    out: dict = {}
    for exps, coeff in p.terms.items():
        for i, e in enumerate(exps):
            if e > 1:
                key = exps[:i] + (e - 2,) + exps[i + 1 :]
                out[key] = out.get(key, Fraction(0)) + coeff * e * (e - 1)
    return Poly(p.dim, out)


class TestIntegerLaplacian:
    """laplacian runs in integers over one common denominator; it must equal
    the Fraction computation and keep Poly's clean term map."""

    @staticmethod
    def check(p: Poly) -> Poly:
        lap = laplacian(p)
        assert lap == reference_laplacian(p)
        assert all(type(c) is Fraction and c for c in lap.terms.values())
        return lap

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_reference(self, dim, data):
        self.check(data.draw(polys_st(dim, max_degree=6, max_terms=8)))

    def test_mixed_denominators(self):
        p = pp("x1^3/3 - 5/7*x1^2*x2^2 + x2^4/6 + 11/10*x1*x3^2 + x2/9", 3)
        lap = self.check(p)
        assert lap == pp("2*x1 - 10/7*x2^2 - 10/7*x1^2 + 2*x2^2 + 11/5*x1", 3)

    def test_zero_is_returned_as_is(self):
        zero = Poly.zero(3)
        assert self.check(zero) is zero

    def test_constant(self):
        assert self.check(Poly.const(2, Fraction(-7, 3))).is_zero

    def test_dimension_one(self):
        assert self.check(pp("x1^5/10 - 2/3*x1^2 + 4", 1)) == pp("2*x1^3 - 4/3", 1)

    def test_harmonic_image_is_zero(self):
        h = pp("-1/4*x1^4 + 3/2*x1^2*x2^2 - 1/4*x2^4", 2)
        assert self.check(h).is_zero


class TestEvaluate:
    def test_point(self):
        value = evaluate(x1**2 * x2**2, (Fraction(1, 2), Fraction(1, 2)))
        assert value == Fraction(1, 16)

    def test_zero_poly(self):
        assert evaluate(Poly.zero(2), (Fraction(5), Fraction(-7))) == 0

    def test_diagonal_antisymmetry(self):
        t = Fraction(3, 7)
        assert evaluate(x1**2 - x2**2, (t, t)) == 0

    def test_wrong_point_length(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(x1, (Fraction(1),))


class TestUniPoly:
    def test_second_derivative(self):
        quartic = UniPoly.monomial(4, Fraction(1, 24))
        assert quartic.derivative(2) == UniPoly.monomial(2, Fraction(1, 2))

    def test_derivative_past_degree(self):
        assert UniPoly.monomial(2).derivative(3).is_zero

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_factorial_telescoping(self, m):
        import math

        phi = UniPoly.monomial(2 * m, Fraction(1, math.factorial(2 * m)))
        assert phi.derivative(2 * m) == UniPoly([1])

    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])
        assert UniPoly([0, 0]).is_zero

    def test_derivative_of_sparse_profile(self):
        phi = UniPoly([7, 0, 0, 3, 0, Fraction(1, 2)])
        assert phi.derivative(2) == UniPoly([0, 18, 0, 10])
        assert phi.derivative(5) == UniPoly([60])

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ([], "0/1"),
            ([0], "0/1"),
            ([5], "5/1"),
            ([-3], "-3/1"),
            ([0, 1], "1/1*t"),
            ([0, 0, -1], "-1/1*t^2"),
            ([1, 0, 0, -2], "-2/1*t^3 + 1/1"),
            ([Fraction(-1, 2), 0, Fraction(3, 4), 0, -1], "-1/1*t^4 + 3/4*t^2 - 1/2"),
            ([0, Fraction(-7, 3), 0, Fraction(2, 5)], "2/5*t^3 - 7/3*t"),
        ],
    )
    def test_text_bytes(self, coeffs, text):
        assert uni_to_text(UniPoly(coeffs)) == text


class TestImmutable:
    def test_poly_and_unipoly_refuse_assignment_and_deletion(self):
        for value, name in ((x1, "dim"), (UniPoly([1, 2]), "terms")):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    @pytest.mark.parametrize(
        "value",
        [
            Poly.const(2, 1), Poly.zero(3), x1 * x2 - Fraction(1, 3) * x2**2, UniPoly([1, 0, -2]),
            UniPoly({0: 1, 2: -2}), UniPoly.monomial(999, Fraction(1, math.factorial(999))),
        ],
        ids=["const", "zero", "poly", "unipoly", "unipoly-dict", "unipoly-999"],
    )
    def test_pickle_and_copy_round_trip(self, value):
        check_round_trips(value)


class TestSparseProfile:
    """A profile keeps only its nonzero terms, {power: coefficient}."""

    def test_dense_and_dict_constructors_agree(self):
        dense = UniPoly([7, 0, 0, 3, 0, Fraction(1, 2)])
        sparse = UniPoly({5: Fraction(1, 2), 0: 7, 3: 3})
        assert dense == sparse and hash(dense) == hash(sparse)
        assert dense.terms == {0: 7, 3: 3, 5: Fraction(1, 2)}
        assert all(type(c) is Fraction for c in sparse.terms.values())
        assert uni_to_text(dense) == uni_to_text(sparse) == "1/2*t^5 + 3/1*t^3 + 7/1"

    @pytest.mark.parametrize("zero", [0, "0", Fraction(0)], ids=["int", "str", "fraction"])
    def test_zeros_dropped_in_both_forms(self, zero):
        assert UniPoly([zero, 2, zero, zero]).terms == {1: 2}
        assert UniPoly({0: zero, 1: 2, 3: zero}).terms == {1: 2}
        assert UniPoly([zero]).is_zero and UniPoly({4: zero}).is_zero
        assert UniPoly({4: zero}).degree == -1 and UniPoly({4: zero}) == UniPoly.zero()

    def test_power_profile_has_one_term(self):
        from cubeharm.integrate import Weight

        phi = Weight.power(999)
        assert phi.terms == {999: Fraction(1, math.factorial(999))}
        assert phi.derivative(2).terms == {997: Fraction(1, math.factorial(997))}
        assert (phi.degree, phi.coeff(998), phi.coeff(999)) == (999, 0, phi.terms[999])

    def test_parsed_profile_has_one_term(self):
        phi = parse_unipoly("t^999/3", max_degree=1000)
        assert phi.terms == {999: Fraction(1, 3)}
        assert phi == UniPoly.monomial(999, Fraction(1, 3))

    def test_profiles_built_either_way_hash_equal(self):
        built = [
            UniPoly([0, 0, Fraction(1, 2)]), UniPoly({2: Fraction(1, 2)}),
            UniPoly.monomial(2, Fraction(1, 2)), parse_unipoly("t^2/2"),
            UniPoly.monomial(4, Fraction(1, 24)).derivative(2),
        ]
        assert len(set(built)) == 1
        assert len({hash(phi) for phi in built}) == 1

    def test_poly_hash_is_the_frozenset_of_its_terms(self):
        p = x1 * x2 - Fraction(1, 3) * x2**2
        assert hash(p) == hash((2, frozenset(p.terms.items())))

    @pytest.mark.parametrize(
        "power", [-1, 1.5, True, Fraction(1, 2)], ids=["negative", "float", "bool", "fraction"]
    )
    def test_dict_power_that_is_not_a_nonnegative_int_refused(self, power):
        message = re.escape(f"power {power!r} is not a nonnegative integer")
        with pytest.raises(ValueError, match=f"^{message}$"):
            UniPoly({power: 1})
        with pytest.raises(ValueError):
            UniPoly({0: 1, power: 0})  # refused even with a zero coefficient

    def test_dense_form_still_builds(self):
        phi = UniPoly([Fraction(1, 2), 0, True, 1.5])
        assert phi.terms == {0: Fraction(1, 2), 2: 1, 3: Fraction(3, 2)}
        assert UniPoly({0: 1, 7: 2}).degree == 7


class TestUniNegativePoint:
    @pytest.mark.parametrize(
        "coeffs, lo, hi",
        [
            ([0, -1, 1], 0, 1),  # t^2 - t: roots at both ends, negative between
            ([0, 0, -1, 1], 0, 1),  # t^2 (t - 1): double root at 0, simple one at 1
            ([Fraction(6, 250000), Fraction(-1, 100), 1], 0, 1),  # dip on (1/250, 3/500)
            ([Fraction(1, 4) - Fraction(1, 10**6), -1, 1], 0, 1),  # dip around 1/2
            ([-1], 0, Fraction(1, 3)),
        ],
    )
    def test_finds_a_negative_point(self, coeffs, lo, hi):
        g = UniPoly(coeffs)
        u = uni_negative_point(g, Fraction(lo), Fraction(hi))
        assert u is not None
        assert lo <= u <= hi
        assert g(u) < 0

    @pytest.mark.parametrize(
        "coeffs, lo, hi",
        [
            ([], 0, 1),
            ([3], 0, 1),
            ([Fraction(1, 4), -1, 1], 0, 1),  # (t - 1/2)^2, double root inside
            ([0, 0, 1], 0, 1),  # t^2, double root at the left end
            ([1, -2, 1], 0, 1),  # (t - 1)^2, double root at the right end
            ([0, -1, 1], 1, 2),  # t^2 - t, simple root at the left end
        ],
    )
    def test_nonnegative_has_no_point(self, coeffs, lo, hi):
        assert uni_negative_point(UniPoly(coeffs), Fraction(lo), Fraction(hi)) is None


class TestAlgebraProperties:
    @given(polys_st(2), polys_st(2), polys_st(2))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, p, q, s):
        assert (p + q) + s == p + (q + s)
        assert p * (q + s) == p * q + p * s
        assert (p * q) * s == p * (q * s)
        assert p + Poly.zero(2) == p

    @given(polys_st(2, max_degree=4, max_terms=4), polys_st(2, max_degree=4, max_terms=4))
    @settings(max_examples=30, deadline=None)
    def test_laplacian_product_rule(self, p, q):
        cross = Poly.zero(2)
        for axis in (1, 2):
            cross = cross + partial(p, axis) * partial(q, axis)
        assert laplacian(p * q) == p * laplacian(q) + q * laplacian(p) + 2 * cross

    @given(polys_st(3))
    @settings(max_examples=30, deadline=None)
    def test_partials_commute(self, p):
        assert partial(partial(p, 1), 3) == partial(partial(p, 3), 1)

    @given(polys_st(2))
    @settings(max_examples=30, deadline=None)
    def test_canonical_serialization(self, p):
        assert poly_to_text(p + Poly.zero(2)) == poly_to_text(p)


class TestDivision:
    def test_exact_divisibility(self):
        divisor = (x1**2 - x2**2) ** 2
        product = pp("3/7*x1^2*x2^2 + 1") * divisor
        q, rem = divide_exact(product, divisor)
        assert rem.is_zero
        assert q == pp("3/7*x1^2*x2^2 + 1")

    def test_remainder_reconstruction(self):
        p = pp("x1^5 + x2^3 - 2*x1*x2")
        divisor = x1**2 - x2**2
        q, rem = divide_exact(p, divisor)
        assert q * divisor + rem == p

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_quotient_and_reduced_remainder(self, data):
        n = data.draw(st.integers(1, 3))
        divisor = data.draw(polys_st(n, max_degree=3, max_terms=3))
        assume(not divisor.is_zero)
        p = data.draw(polys_st(n, max_degree=3, max_terms=4)) * divisor
        p = p + data.draw(polys_st(n, max_degree=5, max_terms=4))
        q, rem = divide_exact(p, divisor)
        assert q * divisor + rem == p
        lead, _ = divisor.leading_term()
        assert not any(all(a >= b for a, b in zip(e, lead)) for e in rem.terms)
        # the same steps as reducing the leading term of a rebuilt Poly
        assert (q, rem) == reference.divide_exact(p, divisor)

    def test_pair_square_product_divisor(self):
        from cubeharm.onesided import pair_square_product

        divisor = pair_square_product(3)
        p = pp("x1^2*x3 - 3/5", 3) * divisor + pp("x1^11*x2 + 2*x3^13 - x1*x2*x3", 3)
        q, rem = divide_exact(p, divisor)
        assert q * divisor + rem == p
        assert (q, rem) == reference.divide_exact(p, divisor)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(x1, Poly.zero(2))


class TestIntegerDivision:
    """divide_exact reduces in integers over common denominators and widens
    its denominator when the divisor's integer leading coefficient does not
    divide the working lead; it must equal the Fraction reference, build
    clean term maps and leave its operands alone."""

    # leading coefficients 3/7, -2 and -1 (in graded-lex order x1^2 leads),
    # and a monic divisor whose rational tail gives it an integer lead of 12
    DIVISORS = {
        "lead-3/7": "3/7*x1^2 - x1*x2 + 2",
        "lead-minus-2": "-2*x1^2 + 3*x2^2 - x1",
        "lead-minus-1": "-x1^2 + x1*x2 - 3",
        "rational-tail": "x1^2 - 1/3*x1*x2 + 5/6*x2 - 1/4",
    }

    @staticmethod
    def check(p: Poly, divisor: Poly) -> tuple[Poly, Poly]:
        p_terms, d_terms = dict(p.terms), dict(divisor.terms)
        q, rem = divide_exact(p, divisor)
        assert (q, rem) == reference.divide_exact(p, divisor)
        assert q * divisor + rem == p
        for out in (q, rem):
            assert all(type(c) is Fraction and c for c in out.terms.values())
            assert out.terms is not p.terms and out.terms is not divisor.terms
        assert p.terms == p_terms and divisor.terms == d_terms
        return q, rem

    @pytest.mark.parametrize("name", DIVISORS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_fraction_reference(self, name, data):
        divisor = pp(self.DIVISORS[name], 2)
        factor = data.draw(polys_st(2, max_degree=3, max_terms=4))
        extra = data.draw(polys_st(2, max_degree=4, max_terms=4))
        q, rem = self.check(factor * divisor + extra, divisor)
        if extra.is_zero:
            assert q == factor and rem.is_zero

    @pytest.mark.parametrize("name", DIVISORS)
    def test_widening_cases(self, name):
        # a factor with coefficients 5/11, -7, 1/3 and 9, so most working
        # leads are no multiple of the divisor's integer lead, plus a remainder
        divisor = pp(self.DIVISORS[name], 2)
        factor = pp("5/11*x1^3 - 7*x2^2 + 1/3*x1*x2 + 9", 2)
        q, rem = self.check(factor * divisor + pp("x2^5 - 2/9*x2 + 1", 2), divisor)
        assert q == factor
        assert rem == pp("x2^5 - 2/9*x2 + 1", 2)

    def test_integer_leads(self):
        # the divisors' integer leading coefficients over their common
        # denominators: every one but -1 leaves some working leads undivided,
        # which widens the denominator; -1 only flips signs
        from cubeharm.poly import _integer_terms

        leads = {}
        for name, text in self.DIVISORS.items():
            divisor = pp(text, 2)
            ints, _ = _integer_terms(divisor.terms)
            leads[name] = ints[divisor.leading_term()[0]]
        assert leads == {"lead-3/7": 3, "lead-minus-2": -2, "lead-minus-1": -1, "rational-tail": 12}

    def test_pair_square_product_n4(self):
        from cubeharm.onesided import pair_square_product

        divisor = pair_square_product(4)
        factor = pp("3/5*x1^2*x4 - x2*x3 + 7/2", 4)
        extra = pp("x1^9*x2^7 - 1/6*x2^3*x4 + 2/3", 4)
        q, rem = self.check(factor * divisor + extra, divisor)
        assert q == factor and rem == extra

    def test_zero_dividend(self):
        q, rem = self.check(Poly.zero(2), pp(self.DIVISORS["lead-3/7"], 2))
        assert q.is_zero and rem.is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="^dimension mismatch: 2 vs 3$"):
            divide_exact(x1, Poly.variable(3, 1))


def reference_plus(p: Poly, q: Poly, sign: int) -> dict:
    """p + sign * q term by term in Fraction arithmetic, zeros dropped."""
    out: dict = {}
    for terms, s in ((p.terms, 1), (q.terms, sign)):
        for exps, coeff in terms.items():
            out[exps] = out.get(exps, Fraction(0)) + s * coeff
    return {e: c for e, c in out.items() if c}


class TestCleanSums:
    """+, - and unary - build their term maps directly: they must equal the
    Fraction computation, store no zero, hold only Fractions, and neither
    mutate nor share an operand's map."""

    @staticmethod
    def check(result: Poly, expected: dict, *operands: Poly) -> None:
        assert dict(result.terms) == expected
        assert all(type(c) is Fraction and c for c in result.terms.values())
        assert all(result.terms is not p.terms for p in operands)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_reference(self, dim, data):
        p = data.draw(polys_st(dim, max_degree=4, max_terms=6))
        q = data.draw(polys_st(dim, max_degree=4, max_terms=6))
        # cancel some of p's terms exactly, and share others with new values
        shared = data.draw(st.sets(st.sampled_from(sorted(p.terms)))) if p.terms else set()
        flips = data.draw(st.lists(st.booleans(), min_size=len(shared), max_size=len(shared)))
        terms = dict(q.terms)
        for exps, flip in zip(sorted(shared), flips):
            terms[exps] = -p.terms[exps] if flip else p.terms[exps]
        q = Poly(dim, terms)
        p_terms, q_terms = dict(p.terms), dict(q.terms)
        self.check(p + q, reference_plus(p, q, 1), p, q)
        self.check(p - q, reference_plus(p, q, -1), p, q)
        self.check(q - p, reference_plus(q, p, -1), p, q)
        self.check(-p, reference_plus(Poly.zero(dim), p, -1), p)
        self.check(p - p, {}, p)
        self.check(p + (-p), {}, p)
        self.check(p + Poly.zero(dim), p_terms, p)
        self.check(Poly.zero(dim) - q, reference_plus(Poly.zero(dim), q, -1), q)
        assert p.terms == p_terms and q.terms == q_terms

    def test_cancelling_keys_are_dropped(self):
        p = pp("x1^2 - 2/3*x1*x2 + x2 + 1", 2)
        q = pp("x1^2 + 1/3*x1*x2 - x2", 2)
        self.check(p - q, {(1, 1): Fraction(-1), (0, 1): Fraction(2), (0, 0): Fraction(1)}, p, q)
        self.check(p + q, {(2, 0): Fraction(2), (1, 1): Fraction(-1, 3), (0, 0): Fraction(1)}, p, q)

    def test_result_does_not_alias_an_operand(self):
        # a result with the operand's terms is still a map of its own
        p, zero = pp("x1 - 1/2", 2), Poly.zero(2)
        for result, operand in ((p + zero, p), (zero + p, p), (p - zero, p), (zero - zero, zero)):
            assert result == operand and result.terms is not operand.terms

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_dimension_mismatch(self, op):
        left, right = x1, Poly.variable(3, 1)
        with pytest.raises(DimensionMismatchError, match="^dimension mismatch: 2 vs 3$"):
            left + right if op == "add" else left - right


class TestPolySqrt:
    def test_perfect_square(self):
        base = pp("x1^2 - x2^2 + 1/3*x1")
        root = poly_sqrt(base * base)
        assert root is not None
        assert root * root == base * base

    def test_not_a_square(self):
        assert poly_sqrt(pp("x1")) is None
        assert poly_sqrt(pp("x1^2 + x2^2 + 1")) is None
        assert poly_sqrt(pp("-1*x1^2")) is None

    def test_zero(self):
        assert poly_sqrt(Poly.zero(2)) == Poly.zero(2)

    def test_rational_coefficient(self):
        root = poly_sqrt(pp("9/16*x1^2*x2^4"))
        assert root is not None
        assert root * root == pp("9/16*x1^2*x2^4")
