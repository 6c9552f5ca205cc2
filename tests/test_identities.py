import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    check_round_trips,
    check_value_class,
    exponents_st,
    fractions_st,
    polys_st,
    pp,
)
from cubeharm.identities import (
    Identity,
    IdentityReport,
    NotPolyharmonicError,
    ReportEntry,
    SuiteConfig,
    WeightConditionError,
    default_pizzetti_profiles,
    residual_pizzetti,
    residual_surface_mean,
    residual_volume_mean,
    residual_weighted_quadrature,
    run_suite,
)
import cubeharm.identities as identities
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
from cubeharm.parser import parse_unipoly
from cubeharm.poly import (
    DimensionMismatchError,
    Poly,
    UniPoly,
    laplacian,
    rational_to_text,
    uni_to_text,
)

D21 = CubeDomain(2, Fraction(1))
D31 = CubeDomain(3, Fraction(1))


class TestSurfaceMean:
    def test_constant(self):
        assert residual_surface_mean(Poly.const(2, 1), D21) == 0

    def test_harmonic_quadratic(self):
        assert residual_surface_mean(pp("x1^2 - x2^2"), D21) == 0

    def test_non_harmonic_square(self):
        # boundary mean 2/3, diagonal mean 1/3 (frozen via tests/reference.py)
        assert residual_surface_mean(pp("x1^2", 2), D21) == Fraction(1, 3)

    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(3)])
    def test_harmonic_basis_n3(self, r):
        d = CubeDomain(3, r)
        for h in graded_basis(BasisRequest(3, 5, 1)).elements:
            assert residual_surface_mean(h, d) == 0


class TestVolumeMean:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_constant(self, k):
        assert residual_volume_mean(Poly.const(2, 1), D21, k) == 0

    def test_non_harmonic_square(self):
        # cube mean 1/3 against diagonal mean 1/6; the diagonal mass under
        # the k=1 weight is 2, forced by the closed-form masses (and by the
        # residual being exactly zero on harmonic inputs)
        assert residual_volume_mean(pp("x1^2", 2), D21, 0) == Fraction(1, 6)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_harmonic_basis_n3(self, k):
        for h in graded_basis(BasisRequest(3, 6, 1)).elements:
            assert residual_volume_mean(h, D31, k) == 0


class TestWeightedQuadrature:
    def test_constant_with_square_profile(self):
        # cube side 4, diagonal side 2*(4 * 1/2)
        phi = parse_unipoly("t^2/2")
        assert residual_weighted_quadrature(Poly.const(2, 1), D21, phi) == 0

    @pytest.mark.parametrize("j", range(2, 7))
    def test_harmonic_basis(self, j):
        phi = UniPoly.monomial(j, Fraction(1, math.factorial(j)))
        for h in graded_basis(BasisRequest(2, 6, 1)).elements:
            assert residual_weighted_quadrature(h, D21, phi) == 0

    def test_non_harmonic_square(self):
        # 4/3 - 2 * (1/3), frozen via tests/reference.py
        phi = parse_unipoly("t^2/2")
        value = residual_weighted_quadrature(pp("x1^2", 2), D21, phi)
        assert value == Fraction(2, 3)

    def test_rejects_nonvanishing_value(self):
        with pytest.raises(WeightConditionError, match=r"phi\(0\)"):
            residual_weighted_quadrature(Poly.const(2, 1), D21, parse_unipoly("1 + t^2"))

    def test_rejects_nonvanishing_slope(self):
        with pytest.raises(WeightConditionError, match=r"phi'\(0\)"):
            residual_weighted_quadrature(Poly.const(2, 1), D21, parse_unipoly("t + t^2"))


class TestPizzetti:
    def test_order_one_reduces_to_quadrature(self):
        phi = parse_unipoly("t^3/6")
        for h in graded_basis(BasisRequest(2, 5, 1)).elements:
            assert residual_pizzetti(h, D21, 1, phi) == residual_weighted_quadrature(
                h, D21, phi
            )

    def test_biharmonic_quartic(self):
        g = pp("x1^4 - 3*x1^2*x2^2")
        assert residual_pizzetti(g, D21, 2, parse_unipoly("t^4/24")) == 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_polyharmonic_basis(self, m):
        for phi in default_pizzetti_profiles(m):
            for g in graded_basis(BasisRequest(2, 6, m)).elements:
                assert residual_pizzetti(g, D21, m, phi) == 0

    def test_rejects_non_polyharmonic(self):
        with pytest.raises(NotPolyharmonicError):
            residual_pizzetti(pp("x1^4", 2), D21, 2, parse_unipoly("t^4/24"))

    def test_rejects_low_vanishing_order(self):
        g = pp("x1^4 - 3*x1^2*x2^2")
        with pytest.raises(WeightConditionError, match=r"phi\^\(2\)"):
            residual_pizzetti(g, D21, 2, parse_unipoly("t^2/2"))

    def test_degenerate_biharmonic_is_accepted(self):
        # x1^2 is annihilated by the squared Laplacian, so m = 2 applies
        assert residual_pizzetti(pp("x1^2", 2), D21, 2, parse_unipoly("t^4/24")) == 0


class TestResidualStructure:
    @given(polys_st(2, max_degree=5), polys_st(2, max_degree=5))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, p, q):
        a, b = Fraction(2, 3), Fraction(-5, 7)
        combo = p.scale(a) + q.scale(b)
        assert residual_surface_mean(combo, D21) == a * residual_surface_mean(
            p, D21
        ) + b * residual_surface_mean(q, D21)
        assert residual_volume_mean(combo, D21, 1) == a * residual_volume_mean(
            p, D21, 1
        ) + b * residual_volume_mean(q, D21, 1)

    @given(polys_st(2, max_degree=6))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_quadrature_volume_linkage(self, k, p):
        # with phi = t^(k+2)/(k+2)! the quadrature residual equals the
        # volume-mean residual scaled by the (positive) weighted cube mass,
        # so the two agree in sign and vanish together
        phi = UniPoly.monomial(k + 2, Fraction(1, math.factorial(k + 2)))
        lhs = residual_weighted_quadrature(p, D21, phi)
        rhs = measure(D21, Region.CUBE, k) * residual_volume_mean(p, D21, k)
        assert lhs == rhs


ENTRY = ReportEntry("surface_mean", 2, "1/1", "", 1, "deg0[0]", "0/1", True)
ENTRY_REPR = (
    "ReportEntry(identity='surface_mean', n=2, r='1/1', k_or_phi='', m=1, "
    "element_label='deg0[0]', residual='0/1', passed=True)"
)


class TestValueClasses:
    def test_suite_config(self):
        phis = (UniPoly([0, 0, 1]),)
        check_value_class(
            SuiteConfig(),
            SuiteConfig((0, 1, 2, 3), 1, None),
            SuiteConfig(phis=phis),
            ("ks", "m", "phis"),
            "SuiteConfig(ks=(0, 1, 2, 3), m=1, phis=None)",
        )
        config = SuiteConfig(m=2)
        assert (config.ks, config.m, config.phis) == ((0, 1, 2, 3), 2, None)
        assert SuiteConfig(phis=phis, ks=(1,)) == SuiteConfig((1,), 1, (UniPoly([0, 0, 1]),))

    def test_report_entry(self):
        check_value_class(
            ENTRY,
            ReportEntry(
                identity="surface_mean",
                n=2,
                r="1/1",
                k_or_phi="",
                m=1,
                element_label="deg0[0]",
                residual="0/1",
                passed=True,
            ),
            ReportEntry("surface_mean", 2, "1/1", "", 1, "deg0[0]", "1/3", False),
            ("identity", "n", "r", "k_or_phi", "m", "element_label", "residual", "passed"),
            ENTRY_REPR,
        )

    def test_identity_report(self):
        check_value_class(
            IdentityReport((ENTRY,)),
            IdentityReport(entries=(ENTRY,)),
            IdentityReport(()),
            ("entries",),
            f"IdentityReport(entries=({ENTRY_REPR},))",
        )

    def test_round_trips(self):
        basis = graded_basis(BasisRequest(2, 2, 1))
        report = run_suite(basis, D21, [Identity.VOLUME_MEAN], SuiteConfig(ks=(1,)))
        check_round_trips(report)
        check_round_trips(SuiteConfig(phis=(UniPoly([0, 0, 1]),)))


class TestRunSuite:
    def test_all_pass_report(self):
        report = run_suite(
            graded_basis(BasisRequest(2, 8, 1)),
            D21,
            [Identity.SURFACE_MEAN, Identity.VOLUME_MEAN],
            SuiteConfig(ks=(0, 1, 2, 3)),
        )
        assert report.all_pass
        assert len(report.entries) == 17 * 5  # 17 basis elements, 1 + 4 checks

    def test_negative_control_records_residuals(self):
        report = run_suite(
            [("sq[0]", pp("x1^2", 2)), ("sq[1]", pp("x2^4", 2))],
            D21,
            [Identity.VOLUME_MEAN],
            SuiteConfig(ks=(0,)),
        )
        assert not report.all_pass
        # cube means 1/3 and 1/5 against diagonal means 1/6 and 1/15
        assert [e.residual for e in report.entries] == ["1/6", "2/15"]
        assert all(not e.passed for e in report.entries)

    def test_constant_basis(self):
        report = run_suite(
            graded_basis(BasisRequest(2, 0, 1)), D21, [Identity.SURFACE_MEAN], SuiteConfig()
        )
        assert report.all_pass
        assert len(report.entries) == 1
        assert report.entries[0].element_label == "deg0[0]"

    def test_json_shape_and_determinism(self):
        basis = graded_basis(BasisRequest(2, 3, 1))
        args = (basis, D21, [Identity.VOLUME_MEAN], SuiteConfig(ks=(0, 1)))
        first = run_suite(*args).to_json()
        second = run_suite(*args).to_json()
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"all_pass", "entry_count", "entries"}
        entry = payload["entries"][0]
        assert set(entry) == {
            "identity",
            "n",
            "r",
            "k_or_phi",
            "m",
            "element_label",
            "residual",
            "pass",
        }
        assert entry["r"] == "1/1"

    def test_csv_header(self):
        report = run_suite(
            graded_basis(BasisRequest(2, 1, 1)), D21, [Identity.SURFACE_MEAN], SuiteConfig()
        )
        lines = report.to_csv().splitlines()
        assert lines[0] == "identity,n,r,k_or_phi,m,element_label,residual,pass"
        assert len(lines) == 1 + 3

    def test_element_errors_carry_labels(self):
        with pytest.raises(NotPolyharmonicError, match="pizzetti on quartic"):
            run_suite(
                [("quartic", pp("x1^4", 2))],
                D21,
                [Identity.PIZZETTI],
                SuiteConfig(m=2),
            )


ALL_IDENTITIES = [
    Identity.SURFACE_MEAN,
    Identity.VOLUME_MEAN,
    Identity.WEIGHTED_QUADRATURE,
    Identity.PIZZETTI,
]


def expected_entries(elements, d, config):
    """(identity, k_or_phi, label, residual) in report order, from the public
    residual functions called one element at a time."""
    quadrature = config.phis or identities.default_quadrature_profiles()
    pizzetti = config.phis or default_pizzetti_profiles(config.m)
    out = []
    for label, p in elements:
        out.append(("surface_mean", "", label, residual_surface_mean(p, d)))
    for k in config.ks:
        for label, p in elements:
            out.append(("volume_mean", str(k), label, residual_volume_mean(p, d, k)))
    for phi in quadrature:
        for label, p in elements:
            value = residual_weighted_quadrature(p, d, phi)
            out.append(("weighted_quadrature", uni_to_text(phi), label, value))
    for phi in pizzetti:
        for label, p in elements:
            value = residual_pizzetti(p, d, config.m, phi)
            out.append(("pizzetti", uni_to_text(phi), label, value))
    return [(i, k, label, rational_to_text(v)) for i, k, label, v in out]


class TestSuiteMatchesResiduals:
    @pytest.mark.parametrize(
        "m,phis",
        [
            (1, None),
            (2, None),
            (3, None),
            (1, ("t^2/2 + t^3", "t^4/24 - 2*t^5")),
            (2, ("t^4/24 + t^5/7", "t^6")),
        ],
    )
    def test_element_by_element(self, m, phis):
        d = CubeDomain(2, Fraction(3, 2))
        basis = graded_basis(BasisRequest(2, 6, m))
        config = SuiteConfig(
            ks=(0, 2), m=m, phis=None if phis is None else tuple(map(parse_unipoly, phis))
        )
        report = run_suite(basis, d, ALL_IDENTITIES, config)
        got = [(e.identity, e.k_or_phi, e.element_label, e.residual) for e in report.entries]
        elements = identities._labelled_elements(basis)
        assert got == expected_entries(elements, d, config)
        if m > 1:  # the mean-value residuals of non-harmonic elements are nonzero
            assert not report.all_pass

    def test_laplacian_runs_m_times_per_element(self, monkeypatch):
        basis = graded_basis(BasisRequest(2, 6, 2))
        calls = []

        def counting(p):
            calls.append(p)
            return laplacian(p)

        monkeypatch.setattr(identities, "laplacian", counting)
        phis = tuple(parse_unipoly(f"t^{j}") for j in range(4, 10))
        report = run_suite(
            basis, D21, [Identity.PIZZETTI, Identity.PIZZETTI], SuiteConfig(m=2, phis=phis)
        )
        assert len(report.entries) == 2 * len(phis) * len(basis)
        assert len(calls) == 2 * len(basis)

    def test_pizzetti_builds_only_nonzero_diagonals(self, monkeypatch):
        calls = []
        build = identities.integral

        def counting(d, region, *args, **kwargs):
            calls.append(region)
            return build(d, region, *args, **kwargs)

        monkeypatch.setattr(identities, "integral", counting)
        # phi^(2s+1) vanishes once 2s + 1 > deg phi, so t^2 needs one
        # diagonal at any m and t^5 three; t^6/720 needs all m = 3
        for phi, m, diagonals in (("t^2", 1000, 1), ("t^5", 4, 3), ("t^6/720", 3, 3)):
            calls.clear()
            identities._green(D21, parse_unipoly(phi), m, check=True)
            assert calls == [Region.CUBE] + [Region.DIAGONAL] * diagonals
        calls.clear()
        identities._green(D21, UniPoly.zero(), 5, check=True)
        assert calls == [Region.CUBE]

    def test_zero_links_share_degree_sums(self, monkeypatch):
        built = []

        class Counting(identities.DegreeSums):
            def __init__(self, poly):
                built.append(poly)
                super().__init__(poly)

        monkeypatch.setattr(identities, "DegreeSums", Counting)
        chain = identities._laplacian_chain(pp("x1^3*x2", 2), 1000)
        assert len(chain) == 1001
        assert [p.total_degree for p in built] == [4, 2, 0]
        assert built[-1].is_zero and all(link is chain[2] for link in chain[2:])

    def test_residual_wrappers_share_degree_sums(self, monkeypatch):
        # the residual_* wrappers of one polynomial read the degree sums the
        # integrate_* functions share; the masses build their own
        built = []
        missing = identities.DegreeSums.__missing__

        def counting(sums, s):
            built.append((sums.poly, s))
            return missing(sums, s)

        monkeypatch.setattr(identities.DegreeSums, "__missing__", counting)
        h = pp("x1^4 - 6*x1^2*x2^2 + x2^4", 2)
        values = [residual_volume_mean(h, D21, k) for k in range(4)]
        values += [residual_surface_mean(h, D21)]
        values += [residual_weighted_quadrature(h, D21, parse_unipoly("t^3"))]
        values.append(integrate_cube(h, D21, Weight.power(0)))
        assert values[:-1] == [0] * 6
        assert [s for p, s in built if p is h] == [1, 2]

    def test_profile_condition_decided_once_per_parameter(self, monkeypatch):
        basis = graded_basis(BasisRequest(2, 6, 2))
        calls = []
        decide = identities._vanishing_failure

        def counting(phi, order):
            calls.append(order)
            return decide(phi, order)

        monkeypatch.setattr(identities, "_vanishing_failure", counting)
        phis = tuple(parse_unipoly(f"t^{j}") for j in range(4, 7))
        ids = [Identity.WEIGHTED_QUADRATURE, Identity.PIZZETTI]
        report = run_suite(basis, D21, ids, SuiteConfig(m=2, phis=phis))
        assert len(report.entries) == 2 * len(phis) * len(basis)
        assert calls == [2] * len(phis) + [4] * len(phis)

    def test_identities_may_be_an_iterator(self):
        args = (graded_basis(BasisRequest(2, 4, 2)), D21)
        config = SuiteConfig(m=2)
        ids = [Identity.VOLUME_MEAN, Identity.PIZZETTI]
        assert run_suite(*args, iter(ids), config) == run_suite(*args, ids, config)

    def test_not_polyharmonic_before_profile_condition(self):
        # x1^4 fails both the m = 2 condition and the profile condition
        with pytest.raises(NotPolyharmonicError, match="pizzetti on quartic: input is not 2"):
            run_suite(
                [("quartic", pp("x1^4", 2))],
                D21,
                [Identity.PIZZETTI],
                SuiteConfig(m=2, phis=(parse_unipoly("t^2/2"),)),
            )

    def test_profile_condition_carries_label(self):
        with pytest.raises(WeightConditionError, match=r"pizzetti on sq: .*phi\^\(2\)"):
            run_suite(
                [("sq", pp("x1^2", 2))],
                D21,
                [Identity.PIZZETTI],
                SuiteConfig(m=2, phis=(parse_unipoly("t^2/2"),)),
            )

    def test_parameter_errors_fire_only_at_an_element(self):
        config = SuiteConfig(ks=(-1,), m=0)
        ids = [Identity.VOLUME_MEAN, Identity.PIZZETTI]
        assert run_suite([], D21, ids, config).entries == ()
        with pytest.raises(ValueError, match="volume_mean on one: weight exponent"):
            run_suite([("one", Poly.const(2, 1))], D21, ids, config)
        with pytest.raises(ValueError, match="pizzetti on one: polyharmonic order"):
            run_suite([("one", Poly.const(2, 1))], D21, [Identity.PIZZETTI], config)


# Elements for the mean-value and quadrature identities: even, odd (empty
# degree sums) and mixed-parity inputs, and non-harmonic negative controls
# whose residuals are nonzero.
MEAN_ELEMENTS = (
    ("one", "1"),
    ("even", "x1^2 - x2^2"),
    ("odd", "x1"),
    ("odd-product", "x1*x2"),
    ("odd-quartic", "x1^3*x2 - x1*x2^3"),
    ("mixed", "x1^2 - x2^2 + 3*x1 - 1/2"),
    ("control-square", "x1^2"),
    ("control-quartic", "x2^4 - 2*x1^2*x2^2 + x1"),
    ("odd-nonharmonic", "x1^3 + x1*x2^2"),
    ("control-mixed", "x1^2 + x1*x2^3 + x2"),
)
# m-polyharmonic elements for Pizzetti, the same mix of parities
POLYHARMONIC_ELEMENTS = {
    1: (
        ("one", "1"),
        ("even", "x1^4 - 6*x1^2*x2^2 + x2^4"),
        ("odd", "x1^3 - 3*x1*x2^2"),
        ("odd-product", "x1*x2"),
        ("mixed", "x1^2 - x2^2 + 3*x1*x2 - x2 + 5"),
    ),
    2: (
        ("one", "1"),
        ("even", "x1^4 - 3*x1^2*x2^2"),
        ("odd", "x1^3*x2"),
        ("odd-cubic", "x1^3 + x2"),
        ("mixed", "x1^2 + x1^3*x2 - 2*x2 + 1/3"),
    ),
}


def division_form(identity, p, d, m, param):
    """One residual the way the identities read: integrals divided by their
    masses, and twice the diagonal integrals, from the public integrals."""
    if identity is Identity.SURFACE_MEAN:
        return integrate_boundary(p, d) / measure(d, Region.BOUNDARY, 0) - integrate_diagonal(
            p, d, Weight.power(0)
        ) / measure(d, Region.DIAGONAL, 0)
    if identity is Identity.VOLUME_MEAN:
        return integrate_cube(p, d, Weight.power(param)) / measure(
            d, Region.CUBE, param
        ) - integrate_diagonal(p, d, Weight.power(param + 1)) / measure(
            d, Region.DIAGONAL, param + 1
        )
    if identity is Identity.WEIGHTED_QUADRATURE:
        return integrate_cube(p, d, param.derivative(2)) - 2 * (
            integrate_diagonal(p, d, param.derivative(1))
        )
    chain = [p]
    for _ in range(m - 1):
        chain.append(laplacian(chain[-1]))
    diagonals = sum(
        integrate_diagonal(chain[m - 1 - s], d, param.derivative(2 * s + 1))
        for s in range(m)
    )
    return integrate_cube(p, d, param.derivative(2 * m)) - 2 * diagonals


def division_form_entries(elements, d, identities_, config):
    """The report entries run_suite must produce, in report order."""
    out = []
    for identity in identities_:
        if identity is Identity.SURFACE_MEAN:
            params = [("", None)]
        elif identity is Identity.VOLUME_MEAN:
            params = [(str(k), k) for k in config.ks]
        elif identity is Identity.WEIGHTED_QUADRATURE:
            phis = config.phis or identities.default_quadrature_profiles()
            params = [(uni_to_text(phi), phi) for phi in phis]
        else:
            phis = config.phis or default_pizzetti_profiles(config.m)
            params = [(uni_to_text(phi), phi) for phi in phis]
        m = config.m if identity is Identity.PIZZETTI else 1
        for text, param in params:
            for label, p in elements:
                value = division_form(identity, p, d, config.m, param)
                out.append(
                    ReportEntry(
                        identity=identity.value,
                        n=d.n,
                        r=rational_to_text(d.r),
                        k_or_phi=text,
                        m=m,
                        element_label=label,
                        residual=rational_to_text(value),
                        passed=value == 0,
                    )
                )
    return tuple(out)


class TestFoldedResiduals:
    """run_suite evaluates each residual as one linear functional with the
    masses and the diagonal factor 2 folded into the radial factors; the
    reports must equal the division form, and parity-odd elements must give
    exact zeros."""

    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1), Fraction(3)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    def test_suite_equals_division_form(self, n, m, r):
        d = CubeDomain(n, r)
        config = SuiteConfig(ks=(0, 1, 3), m=m)
        mean_ids = [Identity.SURFACE_MEAN, Identity.VOLUME_MEAN, Identity.WEIGHTED_QUADRATURE]
        cases = [
            (mean_ids, [(label, pp(text, n)) for label, text in MEAN_ELEMENTS]),
            (
                [Identity.PIZZETTI],
                [(label, pp(text, n)) for label, text in POLYHARMONIC_ELEMENTS[m]],
            ),
        ]
        for ids, elements in cases:
            report = run_suite(elements, d, ids, config)
            assert report.entries == division_form_entries(elements, d, ids, config)
        entries = run_suite(cases[0][1], d, mean_ids, config).entries
        # the negative controls fail every mean-value and quadrature identity
        for identity in mean_ids:
            failed = {
                e.element_label for e in entries if e.identity == identity.value and not e.passed
            }
            assert {"control-square", "control-quartic", "control-mixed"} <= failed
        # the odd elements have empty degree sums, so every residual is 0/1
        assert all(e.residual == "0/1" for e in entries if e.element_label.startswith("odd"))

    def test_explicit_profiles_equal_division_form(self):
        d = CubeDomain(2, Fraction(3, 2))
        phis = tuple(map(parse_unipoly, ("t^4/24 + t^5/7", "t^6 - t^4")))
        config = SuiteConfig(ks=(2,), m=2, phis=phis)
        elements = [(label, pp(text, 2)) for label, text in POLYHARMONIC_ELEMENTS[2]]
        report = run_suite(elements, d, ALL_IDENTITIES, config)
        assert report.entries == division_form_entries(elements, d, ALL_IDENTITIES, config)
        assert not report.all_pass  # the biharmonic elements fail the mean values

    @pytest.mark.parametrize("text", ["x1", "x1*x2^3", "x1^2*x2 - x2^3", "x1^2 + x2"])
    def test_public_residuals_return_fractions(self, text):
        p = pp(text, 2)
        phi = parse_unipoly("t^4/24")
        values = [
            residual_surface_mean(p, D21),
            residual_volume_mean(p, D21, 1),
            residual_weighted_quadrature(p, D21, phi),
            residual_pizzetti(p, D21, 2, phi),
        ]
        assert all(type(v) is Fraction for v in values)

    def test_odd_element_costs_no_fraction_work(self):
        # the rows return the integer 0 for empty degree sums
        sums = identities.DegreeSums(pp("x1^3*x2 - x1*x2^3", 2))
        phi = parse_unipoly("t^4/24")
        values = [
            identities._surface_row(D21)([sums]),
            identities._volume_row(D21, 2)([sums]),
            identities._green(D21, phi, 1)([sums]),
            identities._green(D21, phi, 1, check=True)(identities._laplacian_chain(sums.poly, 1)),
        ]
        assert all(type(v) is int and v == 0 for v in values)

    def test_odd_element_not_polyharmonic_before_profile_condition(self):
        # x1^3 has empty degree sums, is not harmonic, and t fails phi'(0) = 0
        with pytest.raises(NotPolyharmonicError, match="pizzetti on cubic: input is not 1"):
            run_suite(
                [("cubic", pp("x1^3", 2))],
                D21,
                [Identity.PIZZETTI],
                SuiteConfig(m=1, phis=(parse_unipoly("t"),)),
            )

    @pytest.mark.parametrize(
        "identity,config,match",
        [
            (Identity.PIZZETTI, SuiteConfig(m=1, phis=(parse_unipoly("t"),)), r"phi'\(0\)"),
            (
                Identity.WEIGHTED_QUADRATURE,
                SuiteConfig(phis=(parse_unipoly("1 + t^2"),)),
                r"phi\(0\)",
            ),
        ],
    )
    def test_odd_element_profile_condition_carries_label(self, identity, config, match):
        elements = [("odd", pp("x1*x2", 2)), ("one", Poly.const(2, 1))]
        with pytest.raises(WeightConditionError, match=f"{identity.value} on odd: .*{match}"):
            run_suite(elements, D21, [identity], config)

    def test_odd_first_element_carries_parameter_errors(self):
        elements = [("odd", pp("x1", 2)), ("one", Poly.const(2, 1))]
        with pytest.raises(ValueError, match="volume_mean on odd: weight exponent"):
            run_suite(elements, D21, [Identity.VOLUME_MEAN], SuiteConfig(ks=(-1,)))
        with pytest.raises(ValueError, match="pizzetti on odd: polyharmonic order"):
            run_suite(elements, D21, [Identity.PIZZETTI], SuiteConfig(m=0))


# parity-odd: every term has an odd exponent, so no term is even in every
# variable; a term even in every variable gets x1 once more
def _parity_odd(p: Poly) -> Poly:
    return Poly(
        p.dim,
        {a if any(e % 2 for e in a) else (a[0] + 1, *a[1:]): c for a, c in p.terms.items()},
    )


@st.composite
def parity_odd_cases_st(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=3))
    terms = draw(
        st.dictionaries(
            exponents_st(n, 2 * m + 1).map(tuple), fractions_st, min_size=1, max_size=6
        )
    )
    p = _parity_odd(Poly(n, terms))
    r = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)]))
    return n, m, p, r


class TestParityShortcut:
    """A row returns the integer 0 for an element with no term even in every
    variable, without calling a functional; the dimension check, the
    polyharmonic check and the profile condition still run first."""

    @given(parity_odd_cases_st())
    @settings(max_examples=60, deadline=None)
    def test_odd_elements_equal_division_form(self, case):
        n, m, p, r = case
        d = CubeDomain(n, r)
        config = SuiteConfig(ks=(0, 2), m=m)
        # the Laplacian keeps each term's parity, so every link is odd too
        chain = identities._laplacian_chain(p, m)
        assert all(not link[1] and not link[2] for link in chain)
        mean_ids = [Identity.SURFACE_MEAN, Identity.VOLUME_MEAN, Identity.WEIGHTED_QUADRATURE]
        elements = [("p", p)]
        report = run_suite(elements, d, mean_ids, config)
        assert report.entries == division_form_entries(elements, d, mean_ids, config)
        # the part of degree < 2m is m-polyharmonic; p itself may not be
        low = Poly(n, {a: c for a, c in p.terms.items() if sum(a) < 2 * m})
        elements = [("low", low)]
        report = run_suite(elements, d, [Identity.PIZZETTI], config)
        assert report.entries == division_form_entries(elements, d, [Identity.PIZZETTI], config)
        if chain[m].poly.is_zero:
            assert run_suite([("p", p)], d, ALL_IDENTITIES, config).all_pass
        else:
            with pytest.raises(NotPolyharmonicError, match=f"pizzetti on p: input is not {m}"):
                run_suite([("p", p)], d, [Identity.PIZZETTI], config)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_odd_element_not_polyharmonic_is_refused(self, m):
        g = pp(f"x1^{2 * m + 1}*x2", 3)
        with pytest.raises(NotPolyharmonicError, match=f"pizzetti on g: input is not {m}"):
            run_suite([("g", g)], CubeDomain(3, 1), [Identity.PIZZETTI], SuiteConfig(m=m))
        with pytest.raises(NotPolyharmonicError, match=f"input is not {m}"):
            residual_pizzetti(g, CubeDomain(3, 1), m, default_pizzetti_profiles(m)[0])

    def test_odd_element_calls_no_functional(self, monkeypatch):
        calls = []
        build = identities.integral

        def counting(d, region, *args, **kwargs):
            functional = build(d, region, *args, **kwargs)

            def value(sums):
                calls.append(region)
                return functional(sums)

            return value

        monkeypatch.setattr(identities, "integral", counting)
        config = SuiteConfig(ks=(0, 1), m=2)
        odd = [("odd", pp("x1^3*x2 - x1*x2^3", 2)), ("zero", Poly.zero(2))]
        report = run_suite(odd, D21, ALL_IDENTITIES, config)
        assert calls == [] and report.all_pass
        assert all(type(residual_surface_mean(p, D21)) is Fraction for _, p in odd)
        assert calls == []
        # an even element reads every functional of every row: two per
        # surface, volume and quadrature row, three per Pizzetti row at m = 2
        run_suite([("even", pp("x1^2 - x2^2", 2))], D21, ALL_IDENTITIES, config)
        assert len(calls) == 2 * (1 + len(config.ks) + 5) + 3 * 3

    @pytest.mark.parametrize("identity", ALL_IDENTITIES, ids=lambda i: i.value)
    def test_wrong_dimension_refused_before_the_shortcut(self, identity):
        x = Poly(3, {(1, 0, 0): 1})
        message = "polynomial dimension 3 does not match domain dimension 2"
        with pytest.raises(DimensionMismatchError, match=f"^{identity.value} on x: {message}$"):
            run_suite([("x", x)], CubeDomain(2, 1), [identity])

    @pytest.mark.parametrize(
        "residual",
        [
            lambda p, d: residual_surface_mean(p, d),
            lambda p, d: residual_volume_mean(p, d, 1),
            lambda p, d: residual_weighted_quadrature(p, d, parse_unipoly("t^2/2")),
            lambda p, d: residual_pizzetti(p, d, 2, parse_unipoly("t^4/24")),
        ],
        ids=["surface", "volume", "quadrature", "pizzetti"],
    )
    @pytest.mark.parametrize("text", ["x1", "x1*x2*x3", "0"])
    def test_public_residuals_refuse_wrong_dimension(self, residual, text):
        message = "^polynomial dimension 3 does not match domain dimension 2$"
        with pytest.raises(DimensionMismatchError, match=message):
            residual(pp(text, 3), CubeDomain(2, 1))

    def test_error_order_for_odd_element_of_wrong_dimension(self):
        # parameter errors at the first label, then the polyharmonic check,
        # then the profile condition, then the dimension
        d = CubeDomain(2, 1)
        harmonic, cubic = Poly(3, {(1, 0, 0): 1}), Poly(3, {(3, 0, 0): 1})
        bad_phi = (parse_unipoly("t"),)
        cases = [
            ([("x", harmonic)], Identity.VOLUME_MEAN, SuiteConfig(ks=(-1,)), ValueError,
             "volume_mean on x: weight exponent must be >= 0"),
            ([("x", cubic)], Identity.PIZZETTI, SuiteConfig(m=0), ValueError,
             "pizzetti on x: polyharmonic order must be >= 1"),
            ([("x", cubic)], Identity.PIZZETTI, SuiteConfig(phis=bad_phi), NotPolyharmonicError,
             "pizzetti on x: input is not 1-polyharmonic"),
            ([("x", harmonic)], Identity.PIZZETTI, SuiteConfig(phis=bad_phi), WeightConditionError,
             r"pizzetti on x: weight profile must satisfy phi'\(0\) = 0"),
            ([("x", cubic)], Identity.WEIGHTED_QUADRATURE, SuiteConfig(phis=bad_phi),
             WeightConditionError, r"weighted_quadrature on x: .*phi'\(0\) = 0"),
            ([("x", cubic)], Identity.PIZZETTI, SuiteConfig(m=2), DimensionMismatchError,
             "pizzetti on x: polynomial dimension 3"),
        ]
        for elements, identity, config, error, match in cases:
            with pytest.raises(error, match=match) as caught:
                run_suite(elements, d, [identity], config)
            assert type(caught.value) is error
        with pytest.raises(NotPolyharmonicError):
            residual_pizzetti(cubic, d, 1, bad_phi[0])
        with pytest.raises(WeightConditionError):
            residual_pizzetti(harmonic, d, 1, bad_phi[0])
        with pytest.raises(WeightConditionError):
            residual_weighted_quadrature(cubic, d, bad_phi[0])


def dumped(report: IdentityReport) -> str:
    """The report as json.dumps writes it, the reference for to_json."""
    payload = {
        "all_pass": report.all_pass,
        "entry_count": len(report.entries),
        "entries": [
            {
                "identity": e.identity,
                "n": e.n,
                "r": e.r,
                "k_or_phi": e.k_or_phi,
                "m": e.m,
                "element_label": e.element_label,
                "residual": e.residual,
                "pass": e.passed,
            }
            for e in report.entries
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# labels with quotes, backslashes, control and non-ASCII characters
labels_st = st.one_of(
    st.text(),
    st.sampled_from(['deg2[0]', 'a"b', "a\\b", "tab\there", "\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f"]),
)
FIELDS_ST = {
    "identity": st.one_of(st.sampled_from([i.value for i in Identity]), labels_st),
    "n": st.integers(min_value=2, max_value=10**6),
    "r": st.one_of(st.sampled_from(["1", "1/2", "3"]), labels_st),
    "k_or_phi": st.one_of(st.sampled_from(["", "0", "t^2/2", "1/24*t^4 + t^5/7"]), labels_st),
    "m": st.integers(min_value=0, max_value=10**6),
    "element_label": labels_st,
    "residual": st.one_of(
        st.sampled_from(["0", "-1/6", "2/15", "-12345678901234567890/7"]), labels_st
    ),
    "passed": st.booleans(),
}
entries_st = st.builds(ReportEntry, **FIELDS_ST)
# the fields that every entry of one suite case with one verdict shares
CONSTANT_FIELDS = ("identity", "k_or_phi", "m", "n", "passed", "r")


@st.composite
def near_twins_st(draw):
    """Entries that share every constant field but one, in any order, each
    with its own label and residual."""
    base = draw(entries_st)
    field = draw(st.sampled_from(CONSTANT_FIELDS))
    other = draw(FIELDS_ST[field].filter(lambda v: v != getattr(base, field)))
    entries = [base]
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        fields = dict(zip(ReportEntry.__slots__, base._fields()))
        fields["element_label"] = draw(labels_st)
        fields["residual"] = draw(FIELDS_ST["residual"])
        if i == 0 or draw(st.booleans()):
            fields[field] = other
        entries.append(ReportEntry(**fields))
    return draw(st.permutations(entries))


class TestJsonWriter:
    @given(st.lists(entries_st, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, entries):
        report = IdentityReport(tuple(entries))
        assert report.to_json() == dumped(report)

    @given(near_twins_st())
    @settings(max_examples=200, deadline=None)
    def test_entries_differing_in_one_constant_field(self, entries):
        report = IdentityReport(tuple(entries))
        assert report.to_json() == dumped(report)

    def test_empty_report(self):
        report = IdentityReport(())
        assert report.all_pass
        assert report.to_json() == dumped(report) == (
            '{\n  "all_pass": true,\n  "entries": [],\n  "entry_count": 0\n}\n'
        )

    @pytest.mark.parametrize("ids", [[Identity.VOLUME_MEAN], ALL_IDENTITIES])
    def test_suite_reports(self, ids):
        basis = graded_basis(BasisRequest(3, 4, 2))
        passing = run_suite(basis, CubeDomain(3, Fraction(3, 2)), ids, SuiteConfig(m=2))
        failing = run_suite(
            [("sq", pp("-x1^2", 2)), ("\u00e9\"\\", pp("x2^4 - x1", 2))],
            D21,
            [Identity.VOLUME_MEAN, Identity.WEIGHTED_QUADRATURE],
            SuiteConfig(ks=(0, 1)),
        )
        assert not failing.all_pass and any(e.residual.startswith("-") for e in failing.entries)
        for report in (passing, failing):
            assert report.to_json() == dumped(report)
