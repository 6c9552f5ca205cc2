import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

import cubeharm.parser as parser
from conftest import check_value_class, polys_st
from cubeharm.parser import ExprSyntaxError, parse_poly, parse_unipoly
from cubeharm.poly import MAX_DIGITS, Poly, UniPoly, poly_to_text


class TestParsePoly:
    def test_plain_product(self):
        assert parse_poly("x1^2*x2^2") == Poly.monomial(2, (2, 2))

    def test_zero(self):
        assert parse_poly("0").is_zero

    def test_quartic_harmonic(self):
        p = parse_poly("-1/4*x1^4 + 3/2*x1^2*x2^2 - 1/4*x2^4")
        assert p == Poly(
            2,
            {
                (4, 0): Fraction(-1, 4),
                (2, 2): Fraction(3, 2),
                (0, 4): Fraction(-1, 4),
            },
        )

    def test_whitespace_insensitive(self):
        assert parse_poly(" x1 ^ 2 * x2 ") == parse_poly("x1^2*x2")

    def test_unary_minus_and_power_precedence(self):
        # ^ binds tighter than * and unary minus
        assert parse_poly("-x1^2") == Poly.monomial(1, (2,), -1)
        assert parse_poly("3*x1^2") == Poly.monomial(1, (2,), 3)

    def test_parenthesized_power(self):
        assert parse_poly("(x1 + x2)^2") == parse_poly("x1^2 + 2*x1*x2 + x2^2")

    def test_division_by_constant(self):
        assert parse_poly("x1^4/4") == Poly.monomial(1, (4,), Fraction(1, 4))
        assert parse_poly("3/4") == Poly.const(1, Fraction(3, 4))

    def test_expected_dim_pads_dimension(self):
        p = parse_poly("x1^2", dim=3)
        assert p.dim == 3

    def test_expected_dim_violation(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("x3", dim=2)
        assert "x3" in str(err.value)

    def test_constant_defaults_to_dim_1(self):
        assert parse_poly("5").dim == 1

    def test_dim_below_one_refused(self):
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            parse_poly("5", dim=0)


class TestParseErrors:
    def test_position_reported(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("x1 + @")
        assert err.value.position == 5

    def test_juxtaposition_rejected(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("2x1")
        assert err.value.position == 1

    def test_decimal_rejected(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("1.5*x1")
        assert "rationals" in err.value.reason

    def test_negative_exponent(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("x1^-2")
        assert "negative exponent" in err.value.reason

    def test_fractional_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly("x1^(1/2)")

    def test_polynomial_divisor_rejected(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("x1/x2")
        assert "constant" in err.value.reason

    def test_division_by_zero(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("3/0")
        assert "zero" in err.value.reason

    def test_unknown_variable(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly("x1 + y")

    def test_zero_index_variable(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly("x0")

    def test_t_rejected_in_multivariate(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("x1 + t")
        assert "univariate" in err.value.reason

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly("   ")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly("(x1 + x2")

    @pytest.mark.parametrize(
        "text,position,reason",
        [
            ("x²", 0, "unknown variable 'x²'"),
            ("x1*²", 3, "unexpected character '²'"),
            ("x1*٣", 3, "unexpected character '٣'"),  # was read as 3*x1
        ],
    )
    def test_only_ascii_digits(self, text, position, reason):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(text)
        assert (err.value.position, err.value.reason) == (position, reason)

    def test_literal_digit_run_bounded(self):
        digits = "1" * parser.MAX_DIGITS
        assert parse_poly(f"x1 + {digits}") == parse_poly("x1") + Poly.const(1, int(digits))
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(f"x1 + {digits}1")
        assert err.value.position == 5
        assert err.value.reason == "4301 digits in a row, above the limit of 4300"

    def test_variable_index_digit_run_bounded(self):
        zeros = "0" * (parser.MAX_DIGITS - 1)
        assert parse_poly(f"x{zeros}1") == parse_poly("x1")
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(f"x1 * x0{zeros}1")
        assert err.value.position == 6
        assert err.value.reason == "4301 digits in a row, above the limit of 4300"

    def test_limits_enforced(self):
        # a dimension read off the text is at most MAX_INFERRED_DIM; a given
        # dim is not bounded by it
        assert parser.MAX_INFERRED_DIM == 8
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("x9")
        assert err.value.reason == "variable index 9 exceeds the configured limit 8"
        assert parse_poly("x9", dim=9).dim == 9
        assert parse_poly("x1", dim=5000).dim == 5000
        # the degree limit is max_degree, 16 unless the caller sets it
        with pytest.raises(ExprSyntaxError, match="degree 17 exceeds the configured limit 16"):
            parse_poly("x1^17")
        assert parse_poly("x1^17", max_degree=17).total_degree == 17
        with pytest.raises(ExprSyntaxError, match="degree 17 exceeds the configured limit 16"):
            parse_unipoly("t^17")
        assert parse_unipoly("t^17", max_degree=17).degree == 17
        with pytest.raises(TypeError):
            parse_poly("x1", 17)  # max_degree is keyword-only


def _sum(first: int, last: int) -> str:
    return "(" + "+".join(f"x{i}" for i in range(first, last + 1)) + ")"


class TestExpansionBounds:
    @pytest.fixture
    def no_expansion(self, monkeypatch):
        """Make any multiplication fail, so a refusal shows it came first."""

        def refuse(*args):
            raise AssertionError("expanded before the bound")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__pow__", refuse)

    def test_power_degree_refused_before_expanding(self, no_expansion):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("x1 + x1^1000000000")
        assert err.value.position == 7
        assert err.value.reason == "degree 1000000000 exceeds the configured limit 16"
        with pytest.raises(ExprSyntaxError, match="degree 9 exceeds the configured limit 8"):
            parse_poly("(x1 + x2)^9", max_degree=8)
        with pytest.raises(ExprSyntaxError, match="degree 1000000000 exceeds"):
            parse_unipoly("t^1000000000")

    def test_power_degree_checked_even_when_it_cancels(self):
        with pytest.raises(ExprSyntaxError, match="degree 20 exceeds"):
            parse_poly("x1^20 - x1^20")
        assert parse_poly("x1^20 - x1^20", max_degree=20).is_zero

    def test_constant_power_sized_by_its_result(self, no_expansion):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("3^1000000000*x1")
        assert err.value.position == 1
        assert err.value.reason.startswith("constant power (3)^1000000000 has about ")
        with pytest.raises(ExprSyntaxError, match=r"constant power \(1/2\)\^14001 "):
            parse_poly("(1/2)^14001")

    def test_constant_power_computed_directly(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("constant power by repeated multiplication")

        monkeypatch.setattr(Poly, "__pow__", refuse)
        assert parse_poly("2^14000") == Poly.const(1, 2**14000)
        assert parse_poly("(-1)^1000000001*x1") == parse_poly("-x1")
        assert parse_poly("1^1000000000 + 0^1000000000 + 0^0") == Poly.const(1, 2)

    def test_product_term_bound(self, no_expansion):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(f"{_sum(1, 101)}*{_sum(1, 100)}", dim=101)
        assert err.value.reason == (
            "product of up to 10100 terms brings the expression to 10100 expanded terms, "
            f"above the limit of {parser.MAX_EXPANDED_TERMS}"
        )

    def test_power_term_bound(self, no_expansion):
        # (x1 + ... + x8)^16 has 245,157 terms and took 35 s to expand
        with pytest.raises(ExprSyntaxError, match="power of up to 245157 terms"):
            parse_poly(f"{_sum(1, 8)}^16")
        with pytest.raises(ExprSyntaxError, match="power of up to 11440 terms"):
            parse_poly(f"{_sum(1, 8)}^9")

    def test_bounds_admit_up_to_the_limit(self, monkeypatch):
        monkeypatch.setattr(parser, "MAX_EXPANDED_TERMS", 12)
        assert len(parse_poly(f"{_sum(1, 3)}*{_sum(1, 4)}").terms) == 9  # 3 * 4 bounded
        assert len(parse_poly(f"{_sum(1, 3)}^2 + {_sum(4, 6)}^2").terms) == 12  # 2 * C(4, 2)
        with pytest.raises(ExprSyntaxError, match="product of up to 15 terms"):
            parse_poly(f"{_sum(1, 3)}*{_sum(1, 5)}")
        with pytest.raises(ExprSyntaxError, match="power of up to 15 terms"):
            parse_poly(f"{_sum(1, 5)}^2")

    def test_term_bound_is_per_expression(self, monkeypatch):
        monkeypatch.setattr(parser, "MAX_EXPANDED_TERMS", 12)
        square = f"{_sum(1, 2)}*{_sum(1, 2)}"
        assert parse_poly("+".join([square] * 3)) == parse_poly(f"3*{_sum(1, 2)}^2")
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly("+".join([square] * 4))
        assert err.value.position == 3 * len(square) + 3 + len(_sum(1, 2))
        assert "brings the expression to 16 expanded terms" in err.value.reason

    def test_sum_collects_terms_without_adding_polys(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sum built by Poly addition")

        monkeypatch.setattr(Poly, "__add__", refuse)
        monkeypatch.setattr(Poly, "__sub__", refuse)
        p = parse_poly("x1 - 2*x2 + 3 - x1 + x2^2 - 1/2", dim=2)
        assert p == Poly(2, {(0, 1): -2, (0, 0): Fraction(5, 2), (0, 2): 1})
        assert parse_poly(_sum(1, 300), dim=300).terms == {
            tuple(int(i == j) for j in range(300)): 1 for i in range(300)
        }


class TestDenominatorBound:
    """A sum refuses a term that brings the lcm of its coefficients'
    denominators past MAX_DIGITS digits, at the term's offset, before adding
    it; so does every expression, parenthesized or whole."""

    TEN = f"2^{MAX_DIGITS - 1}/5^{MAX_DIGITS - 1}"  # 1/TEN = 1/10^4299, 4300 digits

    def test_lcm_of_max_digits_parses(self):
        p = parse_poly(f"x1 + 1/{self.TEN} + 1/3")
        assert p.terms[(0,)] == Fraction(1, 10 ** (MAX_DIGITS - 1)) + Fraction(1, 3)
        assert len(str(3 * 10 ** (MAX_DIGITS - 1))) == MAX_DIGITS  # the lcm
        assert parse_poly(f"(1/{self.TEN})*x1 + 2/7*x1").terms == {
            (1,): Fraction(1, 10 ** (MAX_DIGITS - 1)) + Fraction(2, 7)
        }

    def test_lcm_past_max_digits_is_refused_at_the_term(self):
        text = f"x1 + 1/{self.TEN} - 1/11*x1"
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(text)
        assert err.value.position == text.index("1/11")
        assert err.value.reason == (
            f"the coefficients' denominators have a common multiple of more than "
            f"{MAX_DIGITS} digits"
        )

    def test_one_term_and_products_are_bounded_too(self):
        for text in (f"1/{self.TEN}/10*x1", f"(x1 + 1/7^3000)*(x1 + 1/11^3000)"):
            with pytest.raises(ExprSyntaxError, match="common multiple") as err:
                parse_poly(text)
            assert err.value.position == 0
        text = f"x1 + (1/{self.TEN} + 1/11)"
        with pytest.raises(ExprSyntaxError, match="common multiple") as err:
            parse_poly(text)
        assert err.value.position == text.index("1/11")
        with pytest.raises(ExprSyntaxError, match="common multiple"):
            parse_unipoly(f"t^2/{self.TEN} + t/13")

    def test_coprime_denominators_refused_before_any_sum(self, monkeypatch):
        # 250 coefficients k/p^e with p^e about 10^3500 on one monomial took
        # 11 s to add; the second term is refused before it is added
        def refuse(*args):
            raise AssertionError("a coefficient was added")

        primes = [p for p in range(2, 1600) if all(p % q for q in range(2, p))][:250]
        text = " + ".join(
            f"{i + 1}/{p ** round(3500 / math.log10(p))}*x1^2" for i, p in enumerate(primes)
        )
        monkeypatch.setattr(Fraction, "__add__", refuse)
        with pytest.raises(ExprSyntaxError, match="common multiple") as err:
            parse_poly(text)
        assert err.value.position == text.index(" + ") + 3


class TestParseUniPoly:
    def test_plain_square(self):
        assert parse_unipoly("t^2") == UniPoly([0, 0, 1])

    def test_scaled_square(self):
        assert parse_unipoly("1/2*t^2") == UniPoly([0, 0, Fraction(1, 2)])

    def test_two_terms(self):
        assert parse_unipoly("t^4 - 2*t^5") == UniPoly([0, 0, 0, 0, 1, -2])

    def test_x_rejected(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_unipoly("t + x1")
        assert "only the variable t" in err.value.reason


class TestRoundTrip:
    @given(polys_st(1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_dim1(self, p):
        assert parse_poly(poly_to_text(p), dim=1) == p

    def test_unipoly_round_trip(self):
        from cubeharm.poly import uni_to_text

        for text in ("t^4 - 2*t^5", "1/2*t^2", "0", "-t + 3/7*t^3"):
            phi = parse_unipoly(text)
            assert parse_unipoly(uni_to_text(phi)) == phi

    @given(polys_st(3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_dim3(self, p):
        assert parse_poly(poly_to_text(p), dim=3) == p

    @given(polys_st(3))
    @settings(max_examples=30, deadline=None)
    def test_serialization_is_stable(self, p):
        text = poly_to_text(p)
        assert poly_to_text(parse_poly(text, dim=3)) == text


class TestValueClasses:
    def test_token(self):
        check_value_class(
            parser._Token("int", "1", 0),
            parser._Token(kind="int", text="1", position=0),
            parser._Token("int", "1", 1),
            ("kind", "text", "position"),
            "_Token(kind='int', text='1', position=0)",
        )
