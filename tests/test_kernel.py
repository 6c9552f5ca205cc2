import math
import time
from fractions import Fraction

import pytest

from conftest import check_round_trips, check_value_class, pp
import cubeharm.kernel as kernel
from cubeharm.kernel import (
    BasisRequest,
    BasisSet,
    graded_basis,
    homogeneous_kernel,
    monomials_of_degree,
)
from cubeharm.poly import Poly, iterated_laplacian, laplacian, poly_to_text


def monomial_space_dim(n: int, d: int) -> int:
    return math.comb(n + d - 1, n - 1)


def rank_of(polys, n: int, d: int) -> int:
    """Exact rank of homogeneous degree-d polynomials in monomial coordinates."""
    cols = monomials_of_degree(n, d)
    index = {e: i for i, e in enumerate(cols)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(cols)
        for exps, coeff in p.terms.items():
            row[index[exps]] = coeff
        rows.append(row)
    rank = 0
    lead = 0
    while rows and lead < len(cols):
        for i in range(len(rows)):
            if rows[i][lead]:
                rows[0], rows[i] = rows[i], rows[0]
                break
        else:
            lead += 1
            continue
        pivot = rows[0]
        rows = [
            [a - (r[lead] / pivot[lead]) * b for a, b in zip(r, pivot)]
            for r in rows[1:]
        ]
        rank += 1
        lead += 1
    return rank


def _nullspace(matrix: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Nullspace basis vectors of an exact rational matrix.

    Reduced row echelon form with first-nonzero pivoting; one vector per
    free column, free coordinate 1, in ascending free-column order.  Rows
    are held sparsely, as {column: value}; the arithmetic is that of the
    dense elimination.
    """
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    nrows = len(rows)
    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        sel = next((i for i in range(row, nrows) if col in rows[i]), None)
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        inv = 1 / rows[row][col]
        pivot = rows[row] = {j: v * inv for j, v in rows[row].items()}
        for i in range(nrows):
            factor = rows[i].get(col)
            if i != row and factor:
                target = rows[i]
                for j, v in pivot.items():
                    value = target.get(j, 0) - factor * v
                    if value:
                        target[j] = value
                    else:
                        del target[j]
        pivot_cols.append(col)
        row += 1
    pivot_set = set(pivot_cols)
    vectors: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for rr, pc in enumerate(pivot_cols):
            v[pc] = -rows[rr].get(free, Fraction(0))
        vectors.append(v)
    return vectors


def eliminated_kernel(n: int, d: int, m: int) -> list[Poly]:
    """The kernel basis by exact elimination: the m-fold Laplacian as a
    matrix in monomial coordinates, columns in descending graded-lex order."""
    cols = monomials_of_degree(n, d)
    if d < 2 * m:
        return [Poly.monomial(n, e) for e in cols]
    target = monomials_of_degree(n, d - 2 * m)
    index = {e: i for i, e in enumerate(target)}
    matrix = [[Fraction(0)] * len(cols) for _ in target]
    for j, exps in enumerate(cols):
        for e, c in iterated_laplacian(Poly.monomial(n, exps), m).terms.items():
            matrix[index[e]][j] += c
    return [
        Poly(n, {cols[i]: c for i, c in enumerate(v) if c})
        for v in _nullspace(matrix, len(cols))
    ]


class TestRecursionMatchesElimination:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equal_polys(self, n, m):
        for d in range(9):
            assert list(homogeneous_kernel(n, d, m).elements) == eliminated_kernel(n, d, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_free_monomial_rule(self, n, m):
        for d in range(9):
            free = [e for e in monomials_of_degree(n, d) if e[0] <= 2 * m - 1]
            elements = homogeneous_kernel(n, d, m).elements
            assert len(elements) == len(free)
            for own, p in zip(free, elements):
                assert [p.terms.get(e, 0) for e in free] == [int(e == own) for e in free]


class TestHomogeneousKernel:
    def test_planar_cubics_span(self):
        basis = homogeneous_kernel(2, 3, 1)
        assert len(basis) == 2
        # the classical pair spans the same 2-dimensional space
        classical = [pp("x1^3 - 3*x1*x2^2"), pp("3*x1^2*x2 - x2^3")]
        for extra in classical:
            assert rank_of(list(basis.elements) + [extra], 2, 3) == 2

    def test_spatial_quadratics_count(self):
        assert len(homogeneous_kernel(3, 2, 1)) == 5

    def test_biharmonic_quartics_count(self):
        # the squared Laplacian has rank 1 on the 5-dimensional quartic space
        assert len(homogeneous_kernel(2, 4, 2)) == 4

    def test_low_degree_is_whole_space(self):
        basis = homogeneous_kernel(3, 1, 1)
        assert len(basis) == 3

    @pytest.mark.parametrize("d", range(1, 9))
    def test_planar_dimension_is_two(self, d):
        assert len(homogeneous_kernel(2, d, 1)) == 2

    @pytest.mark.parametrize("d", range(0, 7))
    def test_spatial_dimension_is_odd_count(self, d):
        expected = 1 if d == 0 else 2 * d + 1
        assert len(homogeneous_kernel(3, d, 1)) == expected

    @pytest.mark.parametrize("n,d,m", [(2, 6, 1), (3, 5, 1), (2, 7, 2), (3, 6, 3), (4, 5, 1)])
    def test_elements_annihilated_exactly(self, n, d, m):
        basis = homogeneous_kernel(n, d, m)
        for p in basis.elements:
            assert iterated_laplacian(p, m).is_zero

    @pytest.mark.parametrize("n,d,m", [(2, 5, 1), (3, 4, 1), (2, 6, 2), (3, 6, 2)])
    def test_rank_nullity(self, n, d, m):
        basis = homogeneous_kernel(n, d, m)
        image_degree = d - 2 * m
        if image_degree < 0:
            rank = 0
        else:
            images = [iterated_laplacian(Poly.monomial(n, e), m) for e in monomials_of_degree(n, d)]
            rank = rank_of(images, n, image_degree)
        assert rank + len(basis) == monomial_space_dim(n, d)

    def test_elements_linearly_independent(self):
        basis = homogeneous_kernel(3, 4, 1)
        assert rank_of(list(basis.elements), 3, 4) == len(basis)

    @pytest.mark.parametrize(
        "n,d,m", [(3, 400, 1), (20, 10, 1), (2, 40, 30), (0, 3, 1), (2, -1, 1), (2, 3, 0)]
    )
    def test_refused_exactly_as_the_graded_basis(self, monkeypatch, n, d, m):
        # one budget: a kernel is built only when the graded basis of its
        # degree would be, and is refused with the same line before any work
        with pytest.raises(ValueError) as graded:
            graded_basis(BasisRequest(n, d, m))

        def refuse(*args):
            raise AssertionError("kernel built before the budget check")

        monkeypatch.setattr(kernel, "_elements", refuse)
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            homogeneous_kernel(n, d, m)
        assert time.perf_counter() - start < 0.5
        assert str(refused.value) == str(graded.value)


class TestGradedBasis:
    def test_degree_one(self):
        basis = graded_basis(BasisRequest(2, 1, 1))
        texts = [poly_to_text(p) for p in basis.elements]
        assert texts == ["1/1", "1/1*x1", "1/1*x2"]

    def test_degree_two_count(self):
        assert len(graded_basis(BasisRequest(2, 2, 1))) == 5

    def test_spatial_count(self):
        # 1 + 3 + 5 + 7 + 9
        assert len(graded_basis(BasisRequest(3, 4, 1))) == 25

    def test_byte_identical_runs(self):
        req = BasisRequest(3, 6, 2)
        first = "\n".join(poly_to_text(p) for p in graded_basis(req).elements)
        second = "\n".join(poly_to_text(p) for p in graded_basis(req).elements)
        assert first == second

    def test_monomial_budget_counts_every_degree(self, monkeypatch):
        # m * n * C(n + d, n): 2 * 45 entries for n = 2, d <= 8, and 2 * 55 for d <= 9;
        # at m = 2, 2 * 2 * 21 for d <= 5 and 2 * 2 * 28 for d <= 6
        monkeypatch.setattr(kernel, "MAX_BASIS_EXPONENTS", 90)
        BasisRequest(2, 8, 1).validate()
        with pytest.raises(ValueError, match="spans more than 90 exponent entries"):
            BasisRequest(2, 9, 1).validate()
        BasisRequest(2, 5, 2).validate()
        with pytest.raises(ValueError, match=r"90 exponent entries \(.*, times m = 2\)"):
            BasisRequest(2, 6, 2).validate()

    def test_high_dimension_within_budget(self):
        basis = graded_basis(BasisRequest(5000, 0, 1))
        assert basis.elements == (Poly.const(5000, 1),)

    @pytest.mark.parametrize("n,d", [(8, 8), (2000, 1), (10**12, 0), (1, 10**12)])
    def test_request_over_budget_refused_before_any_element(self, monkeypatch, n, d):
        def refuse(*args):
            raise AssertionError("basis built before the budget check")

        monkeypatch.setattr(kernel, "homogeneous_kernel", refuse)
        monkeypatch.setattr(kernel, "_elements", refuse)
        with pytest.raises(ValueError, match="exponent entries"):
            graded_basis(BasisRequest(n, d, 1))

    def test_request_validation(self):
        for request in (BasisRequest(2, 3, 0), BasisRequest(0, 3, 1), BasisRequest(2, -1, 1)):
            with pytest.raises(ValueError):
                graded_basis(request)
        # the exponent budget is the one bound on the dimension and the degree:
        # 1 + 9 + 44 + 156 harmonic polynomials of degree <= 3 in dimension 9
        assert len(graded_basis(BasisRequest(9, 3, 1))) == 210
        assert len(graded_basis(BasisRequest(2, 17, 1))) == 35


class TestSharedChains:
    """graded_basis builds each element in the closed form
    sum_J c_J x1^J Lap'^((J-j0)/2) x'^beta over one table of chains."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_graded_basis_is_the_homogeneous_kernels(self, n, m):
        kernels = [p for d in range(9) for p in homogeneous_kernel(n, d, m).elements]
        graded = graded_basis(BasisRequest(n, 8, m)).elements
        assert [list(p.terms.items()) for p in graded] == [list(p.terms.items()) for p in kernels]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_harmonic_extension_reference(self, n):
        # m = 1: sum_k (-1)^k j0!/(j0+2k)! x1^(j0+2k) Lap'^k x'^beta, from Poly arithmetic
        x1 = Poly.variable(n, 1)
        for d in range(9):
            free = [e for e in monomials_of_degree(n, d) if e[0] < 2]
            for p, e in zip(homogeneous_kernel(n, d, 1).elements, free, strict=True):
                j0, chain = e[0], Poly.monomial(n, (0,) + e[1:])
                expected = Poly.zero(n)
                for k in range((d - j0) // 2 + 1):
                    scale = Fraction((-1) ** k * math.factorial(j0), math.factorial(j0 + 2 * k))
                    expected = expected + scale * x1 ** (j0 + 2 * k) * chain
                    chain = laplacian(chain)  # x1 is absent, so this is Lap'
                assert p == expected

    @pytest.mark.parametrize(
        "n,max_degree,m", [(3, 8, 1), (4, 6, 2), (5, 6, 1), (2, 9, 3), (1, 5, 1)]
    )
    def test_each_chain_is_built_once(self, monkeypatch, n, max_degree, m):
        # floor(b/2) Laplacians for each monomial x'^beta of degree b <= max_degree:
        # 110 at (3, 8, 1), where one recursion per element made 184
        calls = []
        build = kernel._laplacian_terms
        monkeypatch.setattr(
            kernel, "_laplacian_terms", lambda terms: calls.append(1) or build(terms)
        )
        graded_basis(BasisRequest(n, max_degree, m))
        bound = sum(d // 2 * len(monomials_of_degree(n - 1, d)) for d in range(max_degree + 1))
        assert len(calls) <= bound


class TestValueClasses:
    def test_basis_request(self):
        check_value_class(
            BasisRequest(2, 3),
            BasisRequest(n=2, max_degree=3, m=1),
            BasisRequest(2, 3, 2),
            ("n", "max_degree", "m"),
            "BasisRequest(n=2, max_degree=3, m=1)",
        )
        assert BasisRequest(2, 3).m == 1
        assert BasisRequest(m=2, max_degree=3, n=2) == BasisRequest(2, 3, 2)

    def test_basis_set(self):
        check_value_class(
            BasisSet((Poly.const(2, 1),)),
            BasisSet(elements=(Poly.const(2, 1),)),
            BasisSet((Poly.const(2, 2),)),
            ("elements",),
            "BasisSet(elements=(Poly(2, '1/1'),))",
        )
        basis = graded_basis(BasisRequest(2, 2))
        assert len(basis) == 5 and list(basis) == list(basis.elements)

    def test_round_trips(self):
        check_round_trips(graded_basis(BasisRequest(3, 3, 1)))


class TestIsPolyharmonic:
    def test_quartic_harmonic(self):
        assert iterated_laplacian(pp("-1/4*x1^4 + 3/2*x1^2*x2^2 - 1/4*x2^4"), 1).is_zero

    def test_square_is_not_harmonic(self):
        assert not iterated_laplacian(pp("x1^2", 2), 1).is_zero

    def test_biharmonic_quartic(self):
        assert iterated_laplacian(pp("x1^4 - 3*x1^2*x2^2"), 2).is_zero
