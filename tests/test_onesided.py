import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import check_round_trips, check_value_class, polys_st, pp
from cubeharm.identities import WeightConditionError, residual_weighted_quadrature
import cubeharm.onesided as onesided
from cubeharm.integrate import CubeDomain
from cubeharm.kernel import BasisRequest, graded_basis
from cubeharm.onesided import (
    CERTIFIED,
    FAILED,
    HEURISTIC,
    ApproxCertificate,
    OneSidedness,
    certify_best_approx,
    check_onesided,
    gradient_vanishes_on_diagonal,
    pair_square_product,
    vanishes_on_diagonal,
    weighted_l1_error,
)
from cubeharm.parser import parse_unipoly
from cubeharm.poly import DimensionMismatchError, Poly, UniPoly, evaluate, rational_to_text
from cubeharm.sampling import random_poly

D21 = CubeDomain(2, Fraction(1))
D31 = CubeDomain(3, Fraction(1))


class TestVanishesOnDiagonal:
    def test_difference_of_squares(self):
        assert vanishes_on_diagonal(pp("x1^2 - x2^2", 2), D21)

    def test_example1_error_function(self):
        assert vanishes_on_diagonal(pp("1/4*(x1^2 - x2^2)^2", 2), D21)

    def test_single_variable_does_not(self):
        assert not vanishes_on_diagonal(pp("x1", 2), D21)

    def test_scaling_invariance(self):
        p = pp("x1^2 - x2^2", 2)
        q = pp("x1^2", 2)
        for c in (Fraction(3), Fraction(-7, 5)):
            assert vanishes_on_diagonal(p.scale(c), D21) == vanishes_on_diagonal(p, D21)
            assert vanishes_on_diagonal(q.scale(c), D21) == vanishes_on_diagonal(q, D21)

    @given(polys_st(2, max_degree=4, max_terms=4), polys_st(2, max_degree=4, max_terms=4))
    @settings(max_examples=15, deadline=None)
    def test_closed_under_sums(self, a, b):
        factor = pp("x1^2 - x2^2", 2)
        p, q = a * factor, b * factor
        assert vanishes_on_diagonal(p, D21)
        assert vanishes_on_diagonal(q, D21)
        assert vanishes_on_diagonal(p + q, D21)

    def test_three_dimensional_pairs(self):
        # vanishing on every sheet requires every pairwise factor
        assert vanishes_on_diagonal(pair_square_product(3), D31)
        assert not vanishes_on_diagonal(pp("x1^2 - x2^2", 3), D31)


@st.composite
def diagonal_cases(draw):
    """A polynomial at n = 2-4 with a domain: a random one, or a random
    multiple of (x_i +- x_j)^e (e = 1, 2), of prod_{i<j} (x_i^2 - x_j^2), or
    of pair_square_product(n), perturbed half the time."""
    n = draw(st.integers(2, 4))
    x = [Poly.variable(n, k) for k in range(1, n + 1)]
    kind = draw(st.sampled_from(("plain", "pair", "pair_product", "pair_square_product")))
    factor = Poly.const(n, 1)
    if kind == "pair":
        i, j = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
        sign = draw(st.sampled_from((1, -1)))
        factor = (x[i] + x[j].scale(sign)) ** draw(st.integers(1, 2))
    elif kind == "pair_product":
        for i, j in itertools.combinations(range(n), 2):
            factor = factor * (x[i] * x[i] - x[j] * x[j])
    elif kind == "pair_square_product":
        factor = pair_square_product(n)
    # one cofactor term keeps the squared reference quick on the 201-term
    # product at n = 4
    big = kind == "pair_square_product" and n == 4
    p = draw(polys_st(n, max_degree=3, max_terms=1 if big else 4)) * factor
    if draw(st.booleans()):
        p = p + draw(polys_st(n, max_degree=2, max_terms=2))
    return p, CubeDomain(n, draw(st.sampled_from((Fraction(1), Fraction(3, 2)))))


class TestSubstitutionMatchesSquaredIntegral:
    @given(diagonal_cases())
    @settings(max_examples=40, deadline=None)
    def test_vanishing_and_gradient(self, case):
        p, d = case
        assert vanishes_on_diagonal(p, d) == reference.vanishes_on_diagonal(p, d)
        assert gradient_vanishes_on_diagonal(p, d) == reference.gradient_vanishes_on_diagonal(p, d)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_flag_combinations(self, n):
        d = CubeDomain(n, Fraction(1))
        x = [Poly.variable(n, k) for k in range(1, n + 1)]
        pairs = Poly.const(n, 1)
        for i, j in itertools.combinations(range(n), 2):
            pairs = pairs * (x[i] * x[i] - x[j] * x[j])
        cases = {
            (True, True): pair_square_product(n) * x[0],
            (True, False): pairs,
            (False, True): Poly.const(n, 5),
            (False, False): (x[0] - x[1]) ** 2,
        }
        for flags, p in cases.items():
            assert (vanishes_on_diagonal(p, d), gradient_vanishes_on_diagonal(p, d)) == flags
            assert reference.vanishes_on_diagonal(p, d) == flags[0]
            assert reference.gradient_vanishes_on_diagonal(p, d) == flags[1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vanishes_on_diagonal(pp("x1^2 - x2^2", 2), D31)


class TestGradientVanishes:
    def test_squared_factor(self):
        assert gradient_vanishes_on_diagonal(pp("1/4*(x1^2 - x2^2)^2", 2), D21)

    def test_plain_factor_does_not(self):
        assert not gradient_vanishes_on_diagonal(pp("x1^2 - x2^2", 2), D21)

    def test_zero(self):
        assert gradient_vanishes_on_diagonal(Poly.zero(2), D21)


class TestCheckOnesided:
    def test_example1_certified(self):
        result = check_onesided(pp("1/4*(x1^2 - x2^2)^2", 2), D21)
        assert result.kind == CERTIFIED
        assert result.cofactor == Poly.const(2, Fraction(1, 4))

    def test_example2_certified(self):
        diff = pp("28*x1^6*x2^2 - 56*x1^4*x2^4 + 28*x1^2*x2^6", 2)
        result = check_onesided(diff, D21)
        assert result.kind == CERTIFIED
        assert result.cofactor == pp("28*x1^2*x2^2", 2)

    def test_negative_somewhere(self):
        result = check_onesided(pp("x1", 2), D21)
        assert result.kind == FAILED
        assert result.negative_witness is not None
        assert evaluate(pp("x1", 2), result.negative_witness) < 0

    def test_zero_is_certified(self):
        assert check_onesided(Poly.zero(2), D21).kind == CERTIFIED

    def test_nonnegative_but_unfactorable_is_heuristic(self):
        result = check_onesided(pp("x1^2", 2), D21, grid_points_per_axis=11)
        assert result.kind == HEURISTIC
        assert result.grid_points_per_axis == 11
        assert result.grid_min == 0

    def test_grid_cap_shrinks_resolution(self, monkeypatch):
        monkeypatch.setattr(onesided, "MAX_GRID_POINTS", 100)
        result = check_onesided(pp("x1^2 + x2^2 + 1", 2), D21, grid_points_per_axis=41)
        assert result.kind == HEURISTIC
        assert result.grid_points_per_axis == 10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_shrunk_grid_is_the_largest_within_the_cap(self, n, monkeypatch):
        # asking for 10**9 points per axis shrinks in one step, not 10**9
        d = CubeDomain(n, Fraction(1))
        # float roots of exact powers can fall just below: (10**6)**(1/3) and
        # (5**6)**(1/6) do
        for cap in (2**n, 3**n - 1, 3**n, 5**n) + ((10**6,) if n <= 3 else ()):
            monkeypatch.setattr(onesided, "MAX_GRID_POINTS", cap)
            npts = check_onesided(Poly.const(n, 1), d, 10**9).grid_points_per_axis
            assert npts**n <= cap < (npts + 1) ** n

    def test_grid_below_two_points_per_axis_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid walked before the cap check")

        monkeypatch.setattr(onesided, "_lattice_walk", refuse)
        monkeypatch.setattr(onesided, "MAX_GRID_POINTS", 7)
        with pytest.raises(ValueError, match=r"2\^3 = 8 points, above the limit of 7"):
            check_onesided(pp("x1^2 + 1", 3), D31)

    @pytest.mark.parametrize("npts", [1, 0, -5])
    def test_fewer_than_two_points_per_axis_refused(self, npts, monkeypatch):
        # refused before the factor is built or divided, or the grid walked,
        # whatever verdict the polynomial would get
        def refuse(*args):
            raise AssertionError("built or walked before the grid check")

        for name in ("pair_square_product", "divide_exact", "_lattice_walk"):
            monkeypatch.setattr(onesided, name, refuse)
        message = rf"needs at least 2 points per axis, got {npts}$"
        for p in (Poly.zero(2), pair_square_product(2), pp("x1^2 + 1", 2), pp("x1", 2)):
            with pytest.raises(ValueError, match=message):
                check_onesided(p, D21, grid_points_per_axis=npts)
        with pytest.raises(ValueError, match=message):
            certify_best_approx(pp("x1^2*x2^2", 2), Poly.zero(2), D21, grid_points_per_axis=npts)

    def test_dimension_checked_before_the_grid(self):
        with pytest.raises(DimensionMismatchError):
            check_onesided(pp("x1^2 + 1", 3), D21, grid_points_per_axis=0)

    def test_two_points_per_axis_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(onesided, "MAX_GRID_POINTS", 8)
        result = check_onesided(pp("x1^2 + 1", 3), D31)
        assert result.kind == HEURISTIC
        assert result.grid_points_per_axis == 2

    def test_low_degree_term_skips_the_factor(self, monkeypatch):
        # a nonzero term of degree below 2n(n-1) = 84 rules out a multiple of
        # the product, so neither the product nor the division is needed
        def refuse(dim):
            raise AssertionError("pair_square_product built")

        monkeypatch.setattr(onesided, "pair_square_product", refuse)
        monkeypatch.setattr(onesided, "divide_exact", refuse)
        monkeypatch.setattr(onesided, "MAX_GRID_POINTS", 3**7)
        d7 = CubeDomain(7, Fraction(1))
        result = check_onesided(pp("x1^2 + 1", 7), d7)
        assert result.kind == HEURISTIC
        assert result.grid_points_per_axis == 3
        assert result.grid_min == 1
        assert check_onesided(Poly.zero(7), d7).kind == CERTIFIED

    def test_square_cofactor_certified(self):
        diff = pp("(x1 - x2)^2", 2) * pair_square_product(2)
        assert check_onesided(diff, D21).kind == CERTIFIED

    @pytest.mark.parametrize("seed", range(12))
    def test_certified_never_negative_on_grid(self, seed):
        # soundness fuzz: a certificate must never coexist with a negative sample
        rng = random.Random(seed)
        p = random_poly(rng, 2, max_degree=6, max_terms=6)
        result = check_onesided(p, D21, grid_points_per_axis=9)
        if result.kind == CERTIFIED:
            coords = [Fraction(i, 4) - 1 for i in range(9)]
            for a in coords:
                for b in coords:
                    assert evaluate(p, (a, b)) >= 0


def grid_coords(d: CubeDomain, npts: int) -> list[Fraction]:
    return [Fraction(2 * i, npts - 1) * d.r - d.r for i in range(npts)]


def brute_force_grid(p: Poly, d: CubeDomain, npts: int) -> dict:
    """Fraction walk over the grid in C order: the first negative value and
    its point, else the first minimum, as OneSidedness.to_dict() reports it."""
    best = None
    for point in itertools.product(grid_coords(d, npts), repeat=d.n):
        value = evaluate(p, point)
        if best is None or value < best:
            best, witness = value, point
        if best < 0:
            return {
                "status": FAILED,
                "grid_points_per_axis": npts,
                "grid_min": rational_to_text(best),
                "negative_witness": [rational_to_text(v) for v in witness],
            }
    return {
        "status": HEURISTIC,
        "grid_points_per_axis": npts,
        "grid_min": rational_to_text(best),
    }


def walk_case(seed: int) -> tuple[Poly, CubeDomain, int]:
    """A random polynomial shifted by its grid minimum, so the verdicts split
    between failed, heuristic with grid_min exactly 0, and heuristic above 0."""
    rng = random.Random(seed)
    n = 2 + seed % 3
    d = CubeDomain(n, rng.choice([Fraction(1), Fraction(3, 2), Fraction(1, 3)]))
    npts = rng.randint(2, 9 if n < 4 else 6)
    p = random_poly(rng, n, max_degree=6, max_terms=6)
    low = min(evaluate(p, x) for x in itertools.product(grid_coords(d, npts), repeat=n))
    shift = rng.choice([Fraction(-1, 7), Fraction(0), Fraction(1, 3)])
    return p + Poly.const(n, shift - low), d, npts


class TestLatticeWalk:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_fraction_walk(self, seed):
        p, d, npts = walk_case(seed)
        result = check_onesided(p, d, grid_points_per_axis=npts)
        assert result.to_dict() == brute_force_grid(p, d, npts)

    def test_cases_cover_every_verdict(self):
        grid_mins = {
            (ref["status"], Fraction(ref["grid_min"]) > 0)
            for ref in (brute_force_grid(*walk_case(seed)) for seed in range(30))
        }
        assert grid_mins == {(FAILED, False), (HEURISTIC, False), (HEURISTIC, True)}

    # cases where skipping a sub-box by its lower bound could go wrong: many
    # tied minima (the first in C order must win), even npts (no m = 0 on the
    # grid, so even monomials are bounded below by 1, not 0), odd exponents
    # on the last axis, negative coefficients on even terms, a constant, n = 4
    @pytest.mark.parametrize(
        "text,n,npts,r",
        [
            ("(x1^2 - 1/4)^2 + (x2^2 - 1/4)^2 + (x3^2 - 1/4)^2", 3, 5, Fraction(1)),
            ("x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2 + 1/3", 3, 5, Fraction(1)),
            ("x1^4 + x2^4 + x3^4 - x1^2 - x2^2 - x3^2 + 1", 3, 7, Fraction(3, 2)),
            ("x1^2 + x2^2", 2, 4, Fraction(1)),
            ("x1^2*x2^4 + x3^2 + 1/5", 3, 6, Fraction(1, 3)),
            ("(x1^2 - 1/9)^2 + x2^2*x3^2", 3, 4, Fraction(1)),
            ("x1^2 + 10*x2^2", 2, 5, Fraction(1)),
            ("x1^2 + 9*x2^2*x3^2 + 10*x3^4", 3, 5, Fraction(1, 3)),
            ("x1^2 + x2^3 + x2 + 2", 2, 9, Fraction(1)),
            ("x1^2*x2 + x3^5 + x3^3 + 3", 3, 5, Fraction(1)),
            ("2 - x1^2 - x2^4 + x1^2*x2^2", 2, 7, Fraction(1)),
            ("5 - x1^2*x2^2 - x3^4 + x1*x3", 3, 5, Fraction(1)),
            ("x1^2 - x2^2 - x3^2 + 1", 3, 5, Fraction(1)),
            ("5/7", 3, 4, Fraction(1)),
            ("x1^4 + x2^4 + x3^4 + x4^4 - x1*x2 + 1/2", 4, 5, Fraction(1)),
            ("(x1^2 - x2^2)^2 + (x3^2 - x4^2)^2 + 1/8", 4, 6, Fraction(3, 2)),
            ("x1^2 + x2^2 + x3^2 + x4^3 - 1/4", 4, 5, Fraction(1)),
        ],
        ids=[
            "symmetric-ties-at-zero", "symmetric-ties-above-zero", "quartic-ties",
            "even-npts-no-zero", "even-npts-ties", "even-npts-double-well",
            "odd-npts-zero-on-last-axis", "odd-npts-zero-on-inner-axes",
            "odd-last-axis", "odd-last-axis-n3", "negative-even-coefficients",
            "negative-even-and-odd", "saddle", "constant", "n4", "n4-even-npts-ties",
            "n4-odd-last-axis-negative",
        ],
    )
    def test_pruning_matches_fraction_walk(self, text, n, npts, r):
        p, d = pp(text, n), CubeDomain(n, r)
        assert check_onesided(p, d, grid_points_per_axis=npts).to_dict() == brute_force_grid(
            p, d, npts
        )

    def test_pruning_cases_have_ties(self):
        # the tie cases above hold more than one grid minimum, so the first
        # in C order is really pinned
        for text, n, npts in (
            ("(x1^2 - 1/4)^2 + (x2^2 - 1/4)^2 + (x3^2 - 1/4)^2", 3, 5),
            ("x1^2 + x2^2", 2, 4),
            ("5/7", 3, 4),
        ):
            p = pp(text, n)
            values = [evaluate(p, x) for x in itertools.product(grid_coords(D31, npts), repeat=n)]
            assert values.count(min(values)) > 1, text

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_fraction_walk_on_small_grids(self, data):
        n = data.draw(st.integers(2, 4))
        npts = data.draw(st.integers(2, 6 if n < 4 else 4))
        d = CubeDomain(n, data.draw(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(1, 3)))))
        p = data.draw(polys_st(n, max_degree=4, max_terms=5))
        kind = data.draw(st.sampled_from(("plain", "even", "shifted")))
        if kind == "even":
            p = Poly(n, {tuple(2 * e for e in exps): abs(c) for exps, c in p.terms.items()})
        elif kind == "shifted":
            # the grid minimum moved to exactly 0, which every later zero ties
            low = min(evaluate(p, x) for x in itertools.product(grid_coords(d, npts), repeat=n))
            p = p - Poly.const(n, low)
        best, at = onesided._lattice_walk(p, d.r, npts)
        walked = onesided.OneSidedness(
            kind=FAILED if best < 0 else HEURISTIC,
            grid_points_per_axis=npts,
            grid_min=best,
            negative_witness=at if best < 0 else None,
        )
        assert walked.to_dict() == brute_force_grid(p, d, npts)


HEURISTIC_REPR = (
    "OneSidedness(kind='heuristic', grid_points_per_axis=3, grid_min=Fraction(0, 1), "
    "negative_witness=None, cofactor=None)"
)


class TestValueClasses:
    def test_onesidedness(self):
        check_value_class(
            OneSidedness(HEURISTIC, 3, Fraction(0)),
            OneSidedness(kind=HEURISTIC, grid_points_per_axis=3, grid_min=Fraction(0)),
            OneSidedness(HEURISTIC, 5, Fraction(0)),
            ("kind", "grid_points_per_axis", "grid_min", "negative_witness", "cofactor"),
            HEURISTIC_REPR,
        )
        certified = OneSidedness(CERTIFIED, cofactor=Poly.const(2, 1))
        assert certified.grid_points_per_axis is certified.grid_min is None
        assert certified.negative_witness is None
        assert certified == OneSidedness(CERTIFIED, None, None, None, Poly.const(2, 1))

    def test_approx_certificate(self):
        onesided = OneSidedness(HEURISTIC, 3, Fraction(0))
        fields = (Poly.const(2, 1), Poly.zero(2), D21, True, False, False, onesided)
        check_value_class(
            ApproxCertificate(*fields, Fraction(4)),
            ApproxCertificate(
                f=Poly.const(2, 1),
                h=Poly.zero(2),
                domain=CubeDomain(2, 1),
                harmonic_ok=True,
                vanishes_on_diagonal=False,
                gradient_vanishes_on_diagonal=False,
                onesided=OneSidedness(HEURISTIC, 3, Fraction(0)),
                l1_error=Fraction(4),
            ),
            ApproxCertificate(*fields, None),
            (
                "f",
                "h",
                "domain",
                "harmonic_ok",
                "vanishes_on_diagonal",
                "gradient_vanishes_on_diagonal",
                "onesided",
                "l1_error",
            ),
            "ApproxCertificate(f=Poly(2, '1/1'), h=Poly(2, '0/1'), "
            "domain=CubeDomain(n=2, r=Fraction(1, 1)), harmonic_ok=True, "
            "vanishes_on_diagonal=False, gradient_vanishes_on_diagonal=False, "
            f"onesided={HEURISTIC_REPR}, l1_error=Fraction(4, 1))",
        )

    def test_round_trips(self, example1, example2):
        for f, h in (example1, example2):
            check_round_trips(certify_best_approx(f, h, D21))
        failed = certify_best_approx(pp("x1", 2), Poly.zero(2), D21, grid_points_per_axis=3)
        assert failed.onesided.kind == FAILED
        check_round_trips(failed)


class TestCertifyBestApprox:
    def test_example1(self, example1):
        f, h = example1
        cert = certify_best_approx(f, h, D21)
        assert cert.harmonic_ok
        assert cert.vanishes_on_diagonal
        assert cert.gradient_vanishes_on_diagonal
        assert cert.onesided.kind == CERTIFIED
        assert cert.optimality_certified
        assert cert.l1_error == Fraction(8, 45)

    def test_example2_flags_and_factorization(self, example2):
        f, h = example2
        cert = certify_best_approx(f, h, D21)
        assert cert.harmonic_ok
        assert cert.vanishes_on_diagonal
        assert cert.gradient_vanishes_on_diagonal
        assert cert.onesided.kind == CERTIFIED
        assert cert.onesided.cofactor == pp("28*x1^2*x2^2", 2)

    def test_example2_error_value(self, example2):
        # exact integral of 28 x1^2 x2^2 (x1^2 - x2^2)^2 over the unit square,
        # frozen from tests/reference.py and confirmed by the quadrature oracle
        f, h = example2
        cert = certify_best_approx(f, h, D21)
        assert cert.l1_error == Fraction(128, 75)

    def test_zero_approximant_to_pair_product(self):
        # cofactor 1, so the zero function is optimal; value frozen from
        # tests/reference.py
        f = pair_square_product(3)
        cert = certify_best_approx(f, Poly.zero(3), D31)
        assert cert.harmonic_ok
        assert cert.vanishes_on_diagonal
        assert cert.onesided.kind == CERTIFIED
        assert cert.l1_error == Fraction(4096, 165375)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_certified_flags_equal_computed_ones(self, n):
        d = CubeDomain(n, Fraction(3, 2))
        rng = random.Random(n)
        for cofactor in (pp("1", n), pp("2/3*x2^2", n), pp("(x1 - x2 + 1/2)^2", n)):
            h = random_poly(rng, n, max_degree=2, max_terms=3)
            f = h + cofactor * pair_square_product(n)
            cert = certify_best_approx(f, h, d, grid_points_per_axis=3)
            assert cert.onesided.kind == CERTIFIED
            assert cert.vanishes_on_diagonal == vanishes_on_diagonal(f - h, d)
            assert cert.gradient_vanishes_on_diagonal == gradient_vanishes_on_diagonal(f - h, d)

    def test_failed_onesidedness_has_no_error(self):
        cert = certify_best_approx(Poly.zero(2), pp("x1", 2), D21)
        assert cert.onesided.kind == FAILED
        assert cert.l1_error is None
        assert not cert.optimality_certified

    def test_non_harmonic_candidate_flagged(self):
        f = pp("x1^2*x2^2", 2) + pair_square_product(2)
        h = pp("x1^2*x2^2", 2)
        cert = certify_best_approx(f, h, D21)
        assert not cert.harmonic_ok
        assert not cert.optimality_certified

    def test_json_round_trip(self, example1):
        import json

        f, h = example1
        payload = json.loads(certify_best_approx(f, h, D21).to_json())
        assert payload["l1_error"] == "8/45"
        assert payload["onesided"]["status"] == "certified"
        assert payload["optimality_certified"] is True


class TestWeightedError:
    def test_square_profile_reduces_to_plain_error(self, example1):
        f, h = example1
        value = weighted_l1_error(f, h, D21, parse_unipoly("t^2/2"))
        assert value == Fraction(8, 45)

    def test_cubic_profile(self, example1):
        # frozen from tests/reference.py: weight (1 - max|x|) gives 8/315
        f, h = example1
        value = weighted_l1_error(f, h, D21, parse_unipoly("t^3/6"))
        assert value == Fraction(8, 315)
        assert value == reference.ref_cube(f - h, Fraction(1), parse_unipoly("t"))

    def test_equal_functions(self, example1):
        f, _ = example1
        assert weighted_l1_error(f, f, D21, parse_unipoly("t^2/2")) == 0

    def test_vanishing_conditions_enforced(self, example1):
        f, h = example1
        with pytest.raises(WeightConditionError):
            weighted_l1_error(f, h, D21, parse_unipoly("t"))

    def test_negative_slope_rejected(self, example1):
        f, h = example1
        with pytest.raises(WeightConditionError):
            weighted_l1_error(f, h, D21, parse_unipoly("t^2 - t^3"))

    def test_concave_dip_in_second_derivative_rejected(self, example1):
        # phi'' = t^2 - t/100 + 3/125000 < 0 on (1/250, 3/500), between any
        # two of 101 uniform samples of [0, 1]
        f, h = example1
        phi = parse_unipoly("t^4/12 - t^3/600 + 3/250000*t^2")
        with pytest.raises(WeightConditionError, match=r"phi'' is negative at u = ") as info:
            weighted_l1_error(f, h, D21, phi)
        u = Fraction(str(info.value).split("u = ")[1].split(":")[0])
        assert Fraction(1, 250) < u < Fraction(3, 500)
        assert phi.derivative(2)(u) < 0

    def test_wrong_side_rejected(self):
        with pytest.raises(ValueError):
            weighted_l1_error(Poly.zero(2), pp("x1", 2), D21, parse_unipoly("t^2/2"))

    def test_certificate_reuses_its_verdict(self, example1):
        f, h = example1
        cert = certify_best_approx(f, h, D21)
        for text in ("t^2/2", "t^3/6"):
            phi = parse_unipoly(text)
            assert cert.weighted_l1_error(phi) == weighted_l1_error(f, h, D21, phi)

    def test_certificate_checks_weight_before_verdict(self):
        cert = certify_best_approx(Poly.zero(2), pp("x1", 2), D21)
        assert cert.onesided.kind == FAILED
        with pytest.raises(WeightConditionError):
            cert.weighted_l1_error(parse_unipoly("t"))
        with pytest.raises(ValueError, match="f - h is negative"):
            cert.weighted_l1_error(parse_unipoly("t^2/2"))


@functools.lru_cache(maxsize=None)
def harmonic_elements(n: int) -> list[Poly]:
    basis = graded_basis(BasisRequest(n=n, max_degree=4))
    return [p for p in basis.elements if p.total_degree >= 2]


def benchmark_pair(rng: random.Random, n: int, certified: bool) -> tuple[Poly, Poly]:
    """(f, h) built as the onesided-certify workload builds them: h a scaled
    sum of three harmonic basis elements of degree 2..4, f = h + g with the
    certified gap c x_k^(2e) prod (x_i^2 - x_j^2)^2 or the heuristic gap
    c0 + b x_1 + sum_i c_i x_i^(2 a_i), |b| < c0, which is positive but has
    g(0) = c0 != 0."""
    h = Poly.zero(n)
    for element in rng.sample(harmonic_elements(n), 3):
        h = h + element.scale(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)))
    x = [Poly.variable(n, i) for i in range(1, n + 1)]
    if certified:
        k, e = rng.randrange(n), rng.randint(0, 1)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        return h + (x[k] ** (2 * e)).scale(c) * pair_square_product(n), h
    c0 = Fraction(rng.randint(2, 9), rng.randint(1, 2))
    g = Poly.const(n, c0) + x[0].scale(c0 * Fraction(rng.randint(-9, 9), 10))
    for i in range(n):
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        g = g + (x[i] ** (2 * rng.randint(1, 3))).scale(c)
    return h + g, h


def power_profile(p: int) -> UniPoly:
    return UniPoly.monomial(p, Fraction(1, math.factorial(p)))


class TestErrorIsQuadratureResidual:
    """For h harmonic and f - h vanishing on the diagonal set, the weighted
    quadrature identity gives int_cube (f - h) phi''(r - M) = Q_phi(f), the
    quadrature residual of f alone: Q_phi(h) = 0 and the diagonal term of
    f - h vanishes.  The error reads the cube table of f - h, the residual
    both tables of f."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_certified_error_is_the_residual_of_f(self, n, seed):
        d = CubeDomain(n, Fraction(1))
        f, h = benchmark_pair(random.Random(seed), n, certified=True)
        cert = certify_best_approx(f, h, d)
        assert cert.onesided.kind == CERTIFIED
        assert cert.l1_error == residual_weighted_quadrature(f, d, power_profile(2))
        for p in (2, 3, 4):
            phi = power_profile(p)
            assert weighted_l1_error(f, h, d, phi) == residual_weighted_quadrature(f, d, phi)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_heuristic_error_exceeds_the_residual(self, n):
        # g > 0 on the diagonal set adds 2 int_diag (r - M) g > 0
        d = CubeDomain(n, Fraction(1))
        f, h = benchmark_pair(random.Random(n), n, certified=False)
        cert = certify_best_approx(f, h, d, grid_points_per_axis=5)
        assert cert.onesided.kind == HEURISTIC
        assert cert.l1_error > residual_weighted_quadrature(f, d, power_profile(2))
