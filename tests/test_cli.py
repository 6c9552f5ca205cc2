import json
import math
import os
import stat
from fractions import Fraction

import pytest

from cubeharm.cli import main


K_1000 = ",".join(map(str, range(1000)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_harmonic_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--r", "1", "--deg", "8",
            "--k", "0,1,2,3", "--identities", "surface,volume",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert payload["entry_count"] == 17 * 5

    def test_negative_control_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--r", "1", "--poly", "x1^2",
            "--identities", "volume", "--k", "0",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["entries"][0]["residual"] == "1/6"
        assert payload["entries"][0]["pass"] is False

    def test_dimension_one_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "1", "--r", "1")
        assert code == 1
        assert "dimension" in err

    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--n", "2", "--identities", "surface,bogus"
        )
        assert code == 1
        assert "bogus" in err

    def test_pizzetti_suite(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--deg", "5", "--m", "2",
            "--identities", "pizzetti",
        )
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--deg", "2", "--identities", "surface",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("identity,n,r,")
        assert len(lines) == 1 + 5

    def test_custom_phi(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--deg", "4", "--identities", "quadrature",
            "--phi", "t^2/2", "--phi", "t^3/6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        labels = {e["k_or_phi"] for e in payload["entries"]}
        assert labels == {"1/2*t^2", "1/6*t^3"}

    def test_job_file_matches_flags(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "n": 2,
                    "r": "1/1",
                    "deg": 4,
                    "k": [0, 1],
                    "identities": ["surface", "volume"],
                }
            )
        )
        code_job, out_job, _ = run_cli(capsys, "verify", "--job", str(job))
        code_flags, out_flags, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--r", "1/1", "--deg", "4", "--k", "0,1",
            "--identities", "surface,volume",
        )
        assert code_job == code_flags == 0
        assert out_job == out_flags

    def test_job_file_poly_and_phi_fields(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "n": 2,
                    "poly": "x1^2",
                    "identities": ["quadrature"],
                    "phi": ["t^2/2"],
                }
            )
        )
        code, out, _ = run_cli(capsys, "verify", "--job", str(job))
        assert code == 2  # x1^2 is not harmonic
        entry = json.loads(out)["entries"][0]
        assert entry["element_label"] == "user[0]"
        assert entry["residual"] == "2/3"

    def test_job_file_unknown_field(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"n": 2, "bogus": 1}))
        code, _, err = run_cli(capsys, "verify", "--job", str(job))
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n": None}, "n"),
            ({"n": 2, "k": 5}, "k"),
            ({"n": 2, "identities": 3}, "identities"),
            ({"n": 2, "phi": 4}, "phi"),
            ({"n": 2, "poly": 7}, "poly"),
            ({"deg": 1.5}, "deg"),
            ({"m": True}, "m"),
            ({"n": 2, "k": [0, "1"]}, "k"),
            ({"n": 2, "format": "xml"}, "format"),
            ({"n": 2, "out": 5}, "out"),
        ],
    )
    def test_job_file_field_of_wrong_type(self, capsys, tmp_path, payload, field):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", "--job", str(job))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: job file field {field!r} must be")

    @pytest.mark.parametrize(
        "text, reason",
        [
            # valid JSON, refused for its length; /dev/zero is in test_hostile_inputs.py
            (" " * 1_000_000 + "{}", "more than 1000000 characters"),
            ("[" * 100_000, "maximum recursion depth exceeded while decoding a JSON array"),
        ],
        ids=["too-long", "deep-nesting"],
    )
    def test_job_file_read_with_a_bound(self, capsys, tmp_path, text, reason):
        job = tmp_path / "job.json"
        job.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--job", str(job))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read job file {str(job)!r}: {reason}")
        assert len(err.splitlines()) == 1

    def test_missing_dimension_without_job(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--deg", "2")
        assert code == 1
        assert "--n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--deg", "100000000", "--poly", "x1^100000000"],
            ["--deg", "101", "--poly", "x1"],
            ["--deg", "100000000", "--phi", "t^100000000"],
            ["--deg", "100000000", "--poly", "x1^2", "--phi", "t^100000000"],
        ],
        ids=["poly-huge", "poly-one-above", "phi-huge", "both"],
    )
    def test_expression_degree_refused_before_parsing(self, capsys, monkeypatch, argv):
        import cubeharm._cli_verify as verify
        import cubeharm.parser as parser

        def refuse(*args, **kwargs):
            raise AssertionError("parsed before the degree check")

        monkeypatch.setattr(parser, "parse_poly", refuse)
        monkeypatch.setattr(parser, "parse_unipoly", refuse)
        code, out, err = run_cli(capsys, "verify", "--n", "2", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(
            f"error: --deg {argv[1]} raises the degree limit of --poly and --phi to {argv[1]}, "
            f"above the limit of {verify.MAX_VERIFY_DEGREE}"
        )

    def test_job_file_expression_degree_refused_before_parsing(
        self, capsys, monkeypatch, tmp_path
    ):
        import cubeharm.parser as parser

        def refuse(*args, **kwargs):
            raise AssertionError("parsed before the degree check")

        monkeypatch.setattr(parser, "parse_poly", refuse)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"n": 2, "deg": 10**8, "poly": "x1^100000000"}))
        code, out, err = run_cli(capsys, "verify", "--job", str(job))
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert "above the limit of 100" in err

    def test_expression_at_the_degree_limit_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--deg", "100", "--poly", "x1^100",
            "--identities", "volume", "--k", "0",
        )
        assert code == 2  # x1^100 is not harmonic
        assert json.loads(out)["entry_count"] == 1

    def test_dimension_past_eight_runs(self, capsys):
        # no dimension limit but the exponent budget: 1 + 9 + 44 elements
        code, out, err = run_cli(capsys, "verify", "--n", "9", "--deg", "2", "--k", "0")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert payload["entry_count"] == 54 * 2

    def test_basis_degree_errors_unchanged(self, capsys):
        # verify refuses an oversized basis with the line `basis` prints
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--deg", "1000")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: basis request n=2, degree <= 1000 spans more than ")
        assert (code, out, err) == run_cli(capsys, "basis", "--n", "2", "--deg", "1000")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["--deg", "1", "--identities", "pizzetti", "--m", "500"],
                "--m 500 asks for a weight profile of degree 1002, above the limit of 1000",
            ),
            (
                ["--deg", "2", "--k", "100000"],
                "--k 100000 asks for a weight profile of degree 100001, above the limit of 1000",
            ),
            (
                ["--deg", "2", "--k", "0,1000"],
                "--k 1000 asks for a weight profile of degree 1001, above the limit of 1000",
            ),
            (["--deg", "1", "--k", "0," * 10**5 + "0"], "verify takes 600012 integrals, "),
            (
                ["--deg", "1", "--identities", "pizzetti", "--m", "1000000000", "--phi", "t^2"],
                "basis request n=2, degree <= 1 spans more than ",
            ),
            (
                ["--poly", "x1", "--identities", "pizzetti", "--m", "1000000000", "--phi", "t^2"],
                "verify takes 1000000001 integrals, ",
            ),
            (
                ["--deg", "8", "--identities", "quadrature", *["--phi", "t^2"] * 3000],
                "verify takes 270000 integrals, ",
            ),
            (
                ["--poly", "x1", "--identities", "volume", "--k", "1," * 10**5 + "1"],
                "verify takes 200002 integrals, ",
            ),
        ],
        ids=[
            "m", "k", "k-list-max", "k-count", "m-count", "poly-m-count", "phi-count",
            "poly-k-count",
        ],
    )
    def test_oversized_requests_refused_before_any_work(self, capsys, monkeypatch, argv, message):
        import cubeharm.identities as identities
        import cubeharm.kernel as kernel
        import cubeharm.parser as parser

        def refuse(*args, **kwargs):
            raise AssertionError("verify started before the budget check")

        for module, name in [
            (parser, "parse_poly"), (parser, "parse_unipoly"), (identities, "run_suite"),
            (kernel, "graded_basis"), (kernel, "homogeneous_kernel"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        code, out, err = run_cli(capsys, "verify", "--n", "2", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: " + message)

    @pytest.mark.parametrize(
        "argv, bits",
        [
            ("--n 2 --deg 8 --identities volume --r 1e30 --k " + K_1000, 612_600_000),
            ("--n 2 --deg 8 --identities volume --r 1e100 --k " + K_1000, 2_039_958_000),
            ("--n 8 --deg 6 --r 1e4299 --k " + ",".join(map(str, range(20))), 71_976_240),
        ],
        ids=["k1000-1e30", "k1000-1e100", "n8-k20-1e4299"],
    )
    def test_radial_factors_above_the_bit_budget_refused(self, capsys, monkeypatch, argv, bits):
        # each factor is far inside MAX_RADIUS_POWER_BITS, but together they
        # took 16 s, 66 s and 9 s
        import cubeharm.identities as identities
        import cubeharm.kernel as kernel

        def refuse(*args, **kwargs):
            raise AssertionError("verify started before the radial bit budget")

        monkeypatch.setattr(identities, "run_suite", refuse)
        monkeypatch.setattr(kernel, "graded_basis", refuse)
        assert run_cli(capsys, "verify", *argv.split()) == (
            1,
            "",
            f"error: verify builds radial factors with about {bits} bits of powers of r "
            "in all, above the limit of 50000000\n",
        )

    def test_benchmark_requests_far_below_the_bit_budget(self, capsys, monkeypatch):
        # the benchmark's verify items, with a thousandth of the budget
        import cubeharm._cli_verify as verify

        monkeypatch.setattr(verify, "MAX_VERIFY_RADIAL_BITS", verify.MAX_VERIFY_RADIAL_BITS // 1000)
        for argv in (
            ["--n", "2", "--deg", "6", "--r", "3"],
            ["--n", "3", "--deg", "4", "--identities", "pizzetti", "--format", "csv"],
        ):
            code, out, err = run_cli(capsys, "verify", *argv)
            assert (code, err) == (0, "")

    def test_requests_at_the_weight_limits_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--deg", "2", "--k", "999", "--identities", "volume"
        )
        assert code == 0 and json.loads(out)["all_pass"]
        # --k and --m are bounded only where an identity uses them
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--deg", "2", "--k", "100000", "--m", "600",
            "--identities", "surface",
        )
        assert code == 2 and json.loads(out)["entry_count"] == 6  # every quadratic


class TestBasis:
    def test_line_count(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "3", "--deg", "2", "--m", "1")
        assert code == 0
        assert len(out.splitlines()) == 9  # 1 + 3 + 5

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--n", "2", "--deg", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == ["1/1", "1/1*x1", "1/1*x2"]

    @pytest.mark.parametrize("n,deg", [(9, 2), (2, 40)])
    def test_library_basis_is_the_command_basis(self, capsys, n, deg):
        # graded_basis admits a request exactly when `basis` does, past the
        # dimension 8 and degree 16 of parsed expressions
        from cubeharm.kernel import BasisRequest, graded_basis
        from cubeharm.poly import poly_to_text

        code, out, err = run_cli(capsys, "basis", "--n", str(n), "--deg", str(deg))
        assert (code, err) == (0, "")
        lines = [poly_to_text(p) for p in graded_basis(BasisRequest(n, deg))]
        assert out.splitlines() == lines and len(lines) == {(9, 2): 54, (2, 40): 81}[n, deg]

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--n", "20", "--deg", "40"],
            ["basis", "--n", "2000", "--deg", "1"],
            ["verify", "--n", "8", "--deg", "8"],
            ["verify", "--n", "8", "--deg", "16", "--identities", "pizzetti", "--m", "3"],
            ["basis", "--n", "3", "--deg", "40", "--m", "3"],
        ],
    )
    def test_request_above_term_budget_refused(self, capsys, monkeypatch, argv):
        import cubeharm.kernel as kernel

        def refuse(*args):
            raise AssertionError("basis built before the budget check")

        monkeypatch.setattr(kernel, "homogeneous_kernel", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: basis request n={argv[2]}, degree <= {argv[4]} spans more than ")


class TestIntegrate:
    def test_diagonal_mass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--region", "diagonal", "--n", "2", "--r", "1",
            "--k", "0", "--poly", "1",
        )
        assert code == 0
        assert out == "4/1\n"

    def test_cube_with_profile(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--region", "cube", "--n", "2", "--r", "1",
            "--phi", "t", "--poly", "1/4*(x1^2-x2^2)^2",
        )
        assert code == 0
        assert out == "8/315\n"

    def test_weight_degree_refused_before_any_work(self, capsys, monkeypatch):
        import cubeharm.parser as parser

        def refuse(*args, **kwargs):
            raise AssertionError("integrated before the weight check")

        monkeypatch.setattr(parser, "parse_poly", refuse)
        code, out, err = run_cli(
            capsys, "integrate", "--n", "2", "--region", "cube", "--poly", "1", "--k", "20000"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: --k 20000 asks for a weight profile of degree 20000, above the limit of 1000\n"
        )

    def test_weight_at_the_degree_limit_prints(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--n", "2", "--region", "cube", "--poly", "1", "--k", "1000"
        )
        assert code == 0 and len(out) == 2576

    def test_boundary_rejects_weight(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integrate", "--region", "boundary", "--n", "2", "--k", "1", "--poly", "1",
        )
        assert code == 1
        assert "unweighted" in err

    def test_bad_expression_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integrate", "--region", "cube", "--n", "2", "--poly", "x1^^2",
        )
        assert code == 1
        assert "offset" in err

    def test_dimension_bound(self, capsys):
        from cubeharm._cli_common import MAX_DIM

        argv = ["integrate", "--region", "diagonal", "--poly", "x1^2", "--n"]
        code, out, _ = run_cli(capsys, *argv, str(MAX_DIM))
        assert code == 0
        assert out.endswith("\n") and "/" in out
        code, out, err = run_cli(capsys, *argv, str(MAX_DIM + 1))
        assert code == 1
        assert out == ""
        assert err == f"error: dimension must be <= {MAX_DIM}, got {MAX_DIM + 1}\n"

    def test_bad_radius_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integrate", "--region", "cube", "--n", "2", "--r", "zero", "--poly", "1",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "n,poly,reason",
        [
            ("2", "x1^1000000000", "at offset 2: degree 1000000000 exceeds"),
            ("2", "2^1000000000*x1", "at offset 1: constant power (2)^1000000000 has about"),
            # 245,157 terms, which took 35 s to expand and integrate
            ("8", "(" + "+".join(f"x{i}" for i in range(1, 9)) + ")^16", "at offset 25: power of"),
        ],
        ids=["degree", "constant", "terms"],
    )
    def test_expression_above_expansion_bounds_refused(self, capsys, monkeypatch, n, poly, reason):
        from cubeharm.poly import Poly

        def refuse(*args):
            raise AssertionError("expanded before the bound")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__pow__", refuse)
        code, out, err = run_cli(capsys, "integrate", "--region", "cube", "--n", n, "--poly", poly)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: invalid expression {reason}")

    @pytest.mark.parametrize(
        "poly,reason",
        [
            ("1" * 5000, "at offset 0: 5000 digits in a row, above the limit of 4300"),
            ("x" + "1" * 5000, "at offset 1: 5000 digits in a row, above the limit of 4300"),
            ("x1^" + "1" * 5000, "at offset 3: 5000 digits in a row, above the limit of 4300"),
        ],
        ids=["literal", "index", "exponent"],
    )
    def test_long_digit_run_refused_by_the_parser(self, capsys, poly, reason):
        code, out, err = run_cli(capsys, "integrate", "--region", "cube", "--n", "2", "--poly", poly)
        assert (code, out) == (1, "")
        assert err == f"error: invalid expression {reason}\n"


class TestApprox:
    def test_example1_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "approx", "--n", "2", "--r", "1",
            "--f", "x1^2*x2^2",
            "--h", "-1/4*x1^4+3/2*x1^2*x2^2-1/4*x2^4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["l1_error"] == "8/45"
        assert payload["harmonic_ok"] is True
        assert payload["onesided"]["status"] == "certified"

    def test_weighted_variant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "approx", "--n", "2", "--r", "1",
            "--f", "x1^2*x2^2",
            "--h", "-1/4*x1^4+3/2*x1^2*x2^2-1/4*x2^4",
            "--phi", "t^3/6",
        )
        assert code == 0
        assert json.loads(out)["weighted_l1_error"] == "8/315"

    def test_profile_with_negative_second_derivative_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys,
            "approx", "--n", "2", "--r", "1",
            "--f", "x1^2*x2^2",
            "--h", "-1/4*x1^4 + 3/2*x1^2*x2^2 - 1/4*x2^4",
            "--phi", "t^4/12 - t^3/600 + 3/250000*t^2",
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: phi'' is negative at u = ")

    def test_grid_above_the_point_cap_refused(self, capsys):
        # 2^20 points exceed MAX_GRID_POINTS even at 2 points per axis
        code, out, err = run_cli(capsys, "approx", "--n", "20", "--f", "x1^2+1", "--h", "0")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: the one-sided grid needs at least 2^20 = 1048576 points")

    @pytest.mark.parametrize("grid", ["1", "0", "-5"])
    @pytest.mark.parametrize("f", ["x1^2*x2^2", "x1^2 + 1"], ids=["certifiable", "heuristic"])
    def test_grid_below_two_refused(self, capsys, tmp_path, grid, f):
        # refused like grid --res 0, before a verdict of any kind is reached;
        # an --out file is not touched
        target = tmp_path / "cert.json"
        target.write_text("kept")
        code, out, err = run_cli(
            capsys, "approx", "--n", "2", "--f", f, "--h", "0", "--grid", grid,
            "--out", str(target),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: the one-sided grid needs at least 2 points per axis, got {grid}\n"
        assert target.read_text() == "kept"


    HEURISTIC_ARGS = (
        "approx", "--n", "3", "--r", "1",
        "--f", "x1^4 + x2^2 + x3^2 + 1", "--h", "x1^2 - x2^2",
    )

    def _count_walks(self, monkeypatch):
        import cubeharm.onesided as onesided

        grids = []
        walk = onesided.check_onesided

        def counted(diff, d, grid_points_per_axis=onesided.DEFAULT_GRID, **kwargs):
            grids.append(grid_points_per_axis)
            return walk(diff, d, grid_points_per_axis, **kwargs)

        monkeypatch.setattr(onesided, "check_onesided", counted)
        return grids

    def test_phi_walks_the_grid_once_at_grid(self, capsys, monkeypatch):
        grids = self._count_walks(monkeypatch)
        code, out, _ = run_cli(capsys, *self.HEURISTIC_ARGS, "--grid", "5", "--phi", "t^2/2")
        assert code == 0
        assert grids == [5]
        payload = json.loads(out)
        assert payload["onesided"]["grid_points_per_axis"] == 5
        assert payload["weighted_l1_error"] == payload["l1_error"]

    def test_phi_report_at_default_grid(self, capsys, monkeypatch):
        # the bytes the report had when weighted_l1_error walked its own grid
        from fractions import Fraction

        from cubeharm.integrate import CubeDomain
        from cubeharm.onesided import certify_best_approx, weighted_l1_error
        from cubeharm.parser import ExprSource, parse_poly, parse_unipoly
        from cubeharm.poly import rational_to_text

        f = parse_poly(ExprSource("x1^4 + x2^2 + x3^2 + 1", expected_dim=3))
        h = parse_poly(ExprSource("x1^2 - x2^2", expected_dim=3))
        d, phi = CubeDomain(3, Fraction(1)), parse_unipoly("t^3/6")
        expected = certify_best_approx(f, h, d).to_dict()
        expected["phi"] = "t^3/6"
        expected["weighted_l1_error"] = rational_to_text(weighted_l1_error(f, h, d, phi))
        grids = self._count_walks(monkeypatch)
        code, out, _ = run_cli(capsys, *self.HEURISTIC_ARGS, "--phi", "t^3/6")
        assert code == 0
        assert grids == [41]
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_phi_on_negative_gap_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "approx", "--n", "2", "--f", "x1^2 - 1/2", "--h", "0", "--phi", "t^2/2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: f - h is negative at ")


# a radius beyond the float range: 1 followed by 400 zeros
HUGE_R = "1" + "0" * 400


class TestFloatRange:
    """grid and crosscheck print floats, so a radius (or values) beyond the
    float range is an input error; approx and integrate stay exact."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["grid", "--n", "2", "--r", HUGE_R, "--f", "x1", "--res", "2"], "grid values at"),
            (["grid", "--n", "2", "--r", HUGE_R, "--f", "0", "--h", "0"], "grid values at"),
            (["grid", "--n", "2", "--r", "1e200", "--f", "x1^2", "--res", "3"], "grid values at"),
            (
                ["crosscheck", "--n", "2", "--r", HUGE_R, "--poly", "x1^2", "--k", "0"],
                "crosscheck values at",
            ),
            (["crosscheck", "--n", "2", "--r", "1e200", "--count", "2"], "crosscheck values at"),
            # two even oracle parts overflow to opposite infinities (the exact
            # value is 0): no "-inf + inf in fsum" leak
            (
                ["crosscheck", "--n", "2", "--poly", "10*x1^4 - 10*x2^4", "--r", "3e51",
                 "--k", "0"],
                "crosscheck values at",
            ),
            # a coefficient above the largest float that rounds to it is read
            # by the oracle without error, so it is not what overflows
            (
                ["crosscheck", "--n", "2", "--poly", f"{2**1024 - 2**970 - 1}*x1^2", "--k", "0"],
                "crosscheck values at radius 1 ",
            ),
        ],
        ids=["grid", "grid-zero", "grid-values", "crosscheck", "crosscheck-values",
             "crosscheck-opposite-inf", "crosscheck-coefficient-rounds-to-max"],
    )
    def test_refused_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: " + message)
        assert err.rstrip().endswith("leave the float range")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "3", "--r", "1e40", "--count", "2", "--seed", "1", "--k", "0"],
            ["--n", "4", "--r", "1e60", "--count", "2", "--seed", "7", "--deg", "2", "--k", "0"],
            ["--n", "2", "--poly", "x1^5*x2 + 1", "--r", "1e60", "--k", "0"],
        ],
        ids=["crosscheck-inf", "crosscheck-nan", "crosscheck-unread-rows"],
    )
    def test_large_radius_passes_with_odd_terms_dropped(self, capsys, argv):
        # the oracle's overflowing and inf * 0 products came only from terms
        # with an odd exponent, which it no longer sums; nor does it build the
        # radial rows t^(e + j) that only such terms would read
        code, out, _ = run_cli(capsys, "crosscheck", *argv)
        assert code == 0
        assert float(out) <= 1e-9

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_oracle_value_refused(self, capsys, monkeypatch, value):
        # a nan is not dropped by max(), nor an inf printed as a deviation
        import cubeharm.oracle as oracle

        monkeypatch.setattr(oracle, "numeric_integrate_boundary", lambda *args: value)
        code, out, err = run_cli(capsys, "crosscheck", "--n", "2", "--count", "2")
        assert (code, out) == (1, "")
        assert err == "error: crosscheck values at radius 1 leave the float range\n"

    @pytest.mark.parametrize(
        "poly,r,term",
        [
            ("1" * 4300 + "*x1^2", "1", "x1^2"),
            ("-" + "9" * 400 + "*x1^2*x2^4 + " + "9" * 400 + " + x1", "1", "x1^2*x2^4"),
            ("9" * 400 + " + x1", "1e-300", "1"),
        ],
        ids=["square", "first-even-term", "constant"],
    )
    def test_coefficient_beyond_the_float_range_named(self, capsys, poly, r, term):
        # the coefficient leaves the float range, not values at the radius
        code, out, err = run_cli(capsys, "crosscheck", "--n", "2", "--k", "0", "--poly", poly,
                                 "--r", r)
        assert (code, out) == (1, "")
        assert err == f"error: crosscheck coefficient of {term} leaves the float range\n"

    def test_odd_term_coefficient_beyond_the_float_range_passes(self, capsys):
        # the oracle never reads a term with an odd exponent, and its exact
        # integral is 0, so only a radius can put this run out of range
        poly = "9" * 400 + "*x1 + x1^2"
        code, out, _ = run_cli(capsys, "crosscheck", "--n", "2", "--k", "0", "--poly", poly)
        assert code == 0
        assert float(out) <= 1e-9
        code, out, err = run_cli(capsys, "crosscheck", "--n", "2", "--k", "0", "--poly", poly,
                                 "--r", "1e200")
        assert (code, out) == (1, "")
        assert err == "error: crosscheck values at radius 1e200 leave the float range\n"

    def test_grid_just_inside_the_float_range(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--n", "2", "--r", "1e150", "--f", "x1^2", "--res", "3")
        assert code == 0
        assert out == fraction_grid_csv("x1^2", "0", "1e150", 3)

    def test_grid_refusal_leaves_out_file_alone(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        target.write_text("old\n")
        code, _, _ = run_cli(
            capsys, "grid", "--n", "2", "--r", HUGE_R, "--f", "x1", "--out", str(target)
        )
        assert code == 1
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["approx", "--f", "x1^2", "--h", "0"], '"l1_error": "'),
            (["integrate", "--region", "cube", "--poly", "x1^2"], "/3\n"),
        ],
    )
    def test_exact_commands_keep_working(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, argv[0], "--n", "2", "--r", HUGE_R, *argv[1:])
        assert code == 0
        assert expected in out


class TestCrosscheck:
    def test_single_poly_within_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crosscheck", "--n", "2", "--poly", "x1^4*x2^2 - x2^6",
            "--k", "0,1", "--tol", "1e-9",
        )
        assert code == 0
        assert float(out) <= 1e-9

    def test_random_polys(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "crosscheck", "--n", "3", "--count", "3", "--seed", "7", "--tol", "1e-9",
        )
        assert code == 0

    def test_asymmetric_newton_size_folds_odd_terms(self, capsys):
        # per-node Newton nodes at 101 points were not exactly mirrored, so
        # odd box moments of about 1e-18, scaled by powers of r = 1e20, gave
        # a deviation of 3.7e34
        code, out, _ = run_cli(
            capsys,
            "crosscheck", "--n", "3", "--r", "1e20", "--deg", "6", "--k", "3", "--seed", "1",
            "--count", "2", "--points-per-axis", "101",
        )
        assert code == 0
        assert float(out) <= 1e-14

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--count", "0"], "--count must be >= 1, got 0"),
            (["--count", "-1"], "--count must be >= 1, got -1"),
            (["--deg", "-1"], "--deg must be >= 0, got -1"),
            (["--count", "100000000"], "crosscheck of 100000000 polynomials of degree up to 6 "),
            (["--deg", "1000000"], "crosscheck of 20 polynomials of degree up to 1000000 "),
            (["--deg", "100000", "--count", "1"], "crosscheck of 1 polynomials of degree up to 100000 "),
            (
                ["--n", "200", "--count", "1"],
                "crosscheck of 1 polynomials of degree up to 6 in dimension 200 ",
            ),
            (
                ["--k", ",".join(["0"] * 10000)],
                "crosscheck of 20 polynomials of degree up to 6 in dimension 2 with 10000 weight ",
            ),
            # --deg raises the parser's degree limit; refused before parsing
            (
                ["--deg", "100000000", "--poly", "x1^100000000"],
                "crosscheck of 1 polynomials of degree up to 100000000 ",
            ),
            (["--k", "0,1001"], "--k 1001 asks for a weight profile of degree 1001, above the limit"),
            (["--k", "1,-1"], "weight exponents must be >= 0"),
            (
                ["--k", ",".join(["1000"] * 100)],
                "crosscheck of 20 polynomials of degree up to 6 in dimension 2 with 100 weight ",
            ),
        ],
        ids=["count-0", "count-negative", "deg-negative", "count", "deg", "deg-one-poly", "n",
             "k-list", "poly-degree", "k-degree", "k-negative", "k-list-of-large-k"],
    )
    def test_oversized_requests_refused_before_any_work(self, capsys, monkeypatch, argv, message):
        import cubeharm.oracle as oracle
        import cubeharm.parser as parser
        import cubeharm.sampling as sampling

        def refuse(*args, **kwargs):
            raise AssertionError("crosscheck started before the budget check")

        monkeypatch.setattr(parser, "parse_poly", refuse)
        monkeypatch.setattr(sampling, "random_poly", refuse)
        monkeypatch.setattr(oracle, "QuadratureSpec", refuse)
        if "--n" not in argv:
            argv = ["--n", "2", *argv]
        code, out, err = run_cli(capsys, "crosscheck", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: " + message)

    @pytest.mark.parametrize("poly", [None, "x1^2"], ids=["random", "poly"])
    @pytest.mark.parametrize(
        "tol,shown", [("nan", "nan"), ("-1", "-1.0"), ("-1e-300", "-1e-300"), ("-inf", "-inf")],
        ids=["nan", "negative", "tiny-negative", "negative-infinity"],
    )
    def test_nan_or_negative_tolerance_refused_before_any_polynomial(
        self, capsys, monkeypatch, poly, tol, shown
    ):
        # no deviation exceeds a NaN and every one exceeds a negative
        # tolerance, so either would fix the exit code whatever the input
        import cubeharm.parser as parser
        import cubeharm.sampling as sampling

        def refuse(*args, **kwargs):
            raise AssertionError("polynomial drawn before --tol was checked")

        monkeypatch.setattr(parser, "parse_poly", refuse)
        monkeypatch.setattr(sampling, "random_poly", refuse)
        source = ["--poly", poly] if poly else ["--count", "2"]
        code, out, err = run_cli(capsys, "crosscheck", "--n", "2", *source, "--tol", tol)
        assert (code, out, err) == (1, "", f"error: --tol must be >= 0, got {shown}\n")

    def test_zero_and_infinite_tolerance_run(self, capsys):
        exact = ["crosscheck", "--n", "2", "--poly", "1", "--k", "0"]  # no deviation at all
        assert run_cli(capsys, *exact, "--tol", "0") == (0, "0\n", "")
        code, out, err = run_cli(capsys, "crosscheck", "--n", "2", "--count", "2", "--tol", "inf")
        assert (code, err) == (0, "") and float(out) < 1e-12

    def test_benchmark_request_far_below_the_budget(self, capsys):
        # the benchmark runs --count 2; a hundred times as many still runs
        code, out, _ = run_cli(
            capsys, "crosscheck", "--n", "3", "--count", "200", "--deg", "4", "--tol", "1e-9"
        )
        assert code == 0

    def test_one_oracle_call_per_polynomial_and_region(self, capsys, monkeypatch):
        import cubeharm.oracle as oracle

        calls = []

        def counted(name):
            real = getattr(oracle, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(oracle, name, wrapper)

        for name in ("numeric_integrate_cube", "numeric_integrate_diagonal",
                     "numeric_integrate_cube_many", "numeric_integrate_diagonal_many",
                     "numeric_integrate_boundary"):
            counted(name)
        code, _, _ = run_cli(
            capsys, "crosscheck", "--n", "3", "--count", "4", "--k", "0,1,2,3", "--tol", "1e-9"
        )
        assert code == 0
        assert sorted(calls) == sorted(
            ["numeric_integrate_boundary", "numeric_integrate_cube_many",
             "numeric_integrate_diagonal_many"] * 4
        )

    def test_points_per_axis_above_cap_refused(self, capsys):
        from cubeharm.oracle import MAX_POINTS_PER_AXIS

        code, out, err = run_cli(
            capsys, "crosscheck", "--n", "2", "--poly", "x1^2",
            "--points-per-axis", str(MAX_POINTS_PER_AXIS + 1),
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "points_per_axis" in err


DENSE16 = "+".join(f"x1^{i}*x2^{j}" for i in range(17) for j in range(17 - i))


def fraction_grid_csv(f: str, h: str, r: str, res: int) -> str:
    """`grid`'s CSV from exact Fraction evaluation at every point, the
    evaluation it used before the integer lattice."""
    from fractions import Fraction

    from cubeharm.parser import ExprSource, parse_poly
    from cubeharm.poly import evaluate

    fp, hp = (parse_poly(ExprSource(text, expected_dim=2)) for text in (f, h))
    rr = Fraction(r)
    coords = [Fraction(0)] if res == 1 else [Fraction(2 * i, res - 1) * rr - rr for i in range(res)]
    lines = ["x1,x2,f,h,f_minus_h"]
    for x1 in coords:
        for x2 in coords:
            fv, hv = evaluate(fp, (x1, x2)), evaluate(hp, (x1, x2))
            lines.append(",".join(format(float(v), ".17g") for v in (x1, x2, fv, hv, fv - hv)))
    return "\n".join(lines) + "\n"


class TestGrid:
    @pytest.mark.parametrize("res", [1, 2, 5, 8])
    @pytest.mark.parametrize("r", ["1", "3/2", "1/3"])
    @pytest.mark.parametrize(
        "f,h",
        [
            ("x1^2*x2^2", "-1/4*x1^4+3/2*x1^2*x2^2-1/4*x2^4"),
            ("-7/3*x1^5*x2 + 2/9*x1*x2^3 - 5/11", "x1^3 - 3*x1*x2^2 + 1/7*x2"),
            ("0", "x2^7/13 - 1"),
        ],
        ids=["example1", "odd", "zero-f"],
    )
    def test_lattice_matches_fraction_evaluation(self, capsys, f, h, r, res):
        code, out, _ = run_cli(
            capsys, "grid", "--n", "2", "--r", r, "--f", f, "--h", h, "--res", str(res)
        )
        assert code == 0
        assert out == fraction_grid_csv(f, h, r, res)

    def test_rows_are_streamed(self, monkeypatch):
        # every row is written on its own, and no copy of the CSV is held
        import io
        import sys
        import tracemalloc

        from cubeharm.cli import main

        class Sink(io.TextIOBase):
            def __init__(self):
                self.writes, self.size, self.largest = 0, 0, 0

            def write(self, text):
                self.writes += 1
                self.size += len(text)
                self.largest = max(self.largest, len(text))
                return len(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        res = 200
        tracemalloc.start()
        try:
            assert main(["grid", "--n", "2", "--f", "x1^3 - x2", "--res", str(res)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.writes == 1 + res * res
        assert sink.largest < 120
        assert sink.size > 3_000_000
        assert peak < sink.size // 10

    def test_out_is_atomic_when_a_row_fails(self, capsys, monkeypatch, tmp_path):
        import cubeharm._cli_grid as grid

        calls = []
        float17 = grid._float17

        def failing(x):
            calls.append(x)
            if len(calls) > 100:
                raise OSError("disk full")
            return float17(x)

        monkeypatch.setattr(grid, "_float17", failing)
        target = tmp_path / "grid.csv"
        target.write_text("old\n")
        code, _, err = run_cli(
            capsys, "grid", "--n", "2", "--f", "x1", "--res", "21", "--out", str(target)
        )
        assert code == 1
        assert err == "error: disk full\n"
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]

    def test_dense_degree16_at_default_resolution(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--n", "2", "--f", DENSE16)
        assert code == 0
        assert len(out.splitlines()) == 1 + 101 * 101

    def test_header_and_nonnegativity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "grid", "--n", "2", "--r", "1",
            "--f", "x1^2*x2^2",
            "--h", "-1/4*x1^4+3/2*x1^2*x2^2-1/4*x2^4",
            "--res", "21",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x1,x2,f,h,f_minus_h"
        assert len(lines) == 1 + 21 * 21
        diffs = [float(line.split(",")[4]) for line in lines[1:]]
        assert min(diffs) == 0.0  # attained on the diagonals
        assert all(v >= 0 for v in diffs)

    def test_degree8_example_zero_set_on_diagonals(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "grid", "--n", "2", "--r", "1",
            "--f", "x1^8+14*x1^4*x2^4+x2^8",
            "--h", "x1^8+x2^8-28*(x1^6*x2^2+x1^2*x2^6)+70*x1^4*x2^4",
            "--res", "11",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        diffs = [float(row[4]) for row in rows]
        assert min(diffs) == 0.0
        assert all(v >= 0 for v in diffs)
        # the zero set of 28 x1^2 x2^2 (x1^2 - x2^2)^2 is the diagonals plus
        # the coordinate axes; every diagonal sample must be a zero
        for row in rows:
            x1, x2, diff = float(row[0]), float(row[1]), float(row[4])
            if diff == 0.0:
                assert abs(x1) == abs(x2) or x1 == 0.0 or x2 == 0.0
            if abs(x1) == abs(x2):
                assert diff == 0.0

    def test_degenerate_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "grid", "--n", "2", "--f", "x1^2*x2^2", "--h", "0", "--res", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,0,0,0,0"

    def test_requires_dimension_two(self, capsys):
        code, _, err = run_cli(capsys, "grid", "--n", "3", "--f", "x1")
        assert code == 1

    def test_resolution_above_point_budget_refused(self, capsys, monkeypatch):
        import cubeharm._cli_grid as grid
        from cubeharm.onesided import MAX_GRID_POINTS

        def refuse(*args):
            raise AssertionError("grid built before the budget check")

        monkeypatch.setattr(grid, "lattice_terms", refuse)
        res = math.isqrt(MAX_GRID_POINTS) + 1
        code, out, err = run_cli(capsys, "grid", "--n", "2", "--f", "x1", "--res", str(res))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: grid resolution {res} gives ")


    @pytest.mark.parametrize(
        "f,h,res,per_point",
        [
            ("x1", "0", 731, 3),
            ("x1^2*x2^2 - x1^4", "x1^2 - x2^2 + x1*x2", 479, 7),
            # dense degree 16 one step above the default resolution
            (DENSE16, "0", 102, 155),
        ],
        ids=["linear", "example", "dense16"],
    )
    def test_resolution_above_term_budget_refused(self, capsys, monkeypatch, f, h, res, per_point):
        import cubeharm._cli_grid as grid

        def refuse(*args):
            raise AssertionError("grid built before the budget check")

        monkeypatch.setattr(grid, "lattice_terms", refuse)
        assert res * res * per_point > grid.MAX_GRID_TERM_EVALS
        code, out, err = run_cli(capsys, "grid", "--n", "2", "--f", f, "--h", h, "--res", str(res))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(
            f"error: grid resolution {res} gives {res * res} points of {per_point} term evaluations"
        )


class TestExactValueDigits:
    """An exact value that Python cannot print (more than 4300 digits in its
    numerator or denominator) ends in one line that states the bound."""

    @pytest.mark.parametrize(
        "argv",
        [
            "integrate --n 2 --region cube --poly 1 --r 1e4299",
            "integrate --n 2 --region cube --poly 1 --k 1000 --r 1e100",
            "approx --n 2 --f x1^2 --h 0 --r 1e4299",
            "verify --n 2 --poly x1^2 --identities surface --r 1e4299",
        ],
        ids=["integrate", "integrate-k", "approx", "verify"],
    )
    def test_refused_with_one_line(self, capsys, argv):
        assert run_cli(capsys, *argv.split()) == (
            1,
            "",
            "error: exact value has more than 4300 digits in its numerator or denominator\n",
        )


class TestRadiusBound:
    """A radius past Python's 4300-digit integer limit, or whose powers in
    an exact value pass _cli_common.MAX_RADIUS_POWER_BITS, is refused before any
    integral is taken."""

    @pytest.fixture(autouse=True)
    def no_integrals(self, monkeypatch):
        import cubeharm.identities as identities
        import cubeharm.integrate as integrate

        def refuse(*args, **kwargs):
            raise AssertionError("integral taken before the radius check")

        monkeypatch.setattr(integrate, "integral", refuse)
        monkeypatch.setattr(identities, "integral", refuse)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["integrate", "--n", "2", "--region", "cube", "--poly", "1", "--r", "1e10000000"],
                "radius has more than 4300 digits in its numerator or denominator",
            ),
            (
                ["approx", "--n", "2", "--f", "x1^2", "--h", "0", "--r", "1e3000000"],
                "radius has more than 4300 digits in its numerator or denominator",
            ),
            (
                ["integrate", "--n", "2000", "--region", "diagonal", "--poly", "x1^2",
                 "--r", "1e4200"],
                "r^2016 at this radius has about 28129248 bits, above the limit of 4000000",
            ),
            (
                ["verify", "--n", "2000", "--poly", "x1^2-x2^2", "--identities",
                 "surface,volume", "--k", "0", "--r", "1e4200"],
                "r^2032 at this radius has about 28352496 bits, above the limit of 4000000",
            ),
        ],
        ids=["integrate-digits", "approx-digits", "integrate-power", "verify-power"],
    )
    def test_slow_radii_refused_with_one_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "r", ["1e20000", "-1e-20000", "1e99999999999999999999", "12.5e13000"]
    )
    def test_large_exponent_refused_before_the_radius_is_built(self, capsys, monkeypatch, r):
        import cubeharm._cli_common as common

        def refuse(*args):
            raise AssertionError("Fraction built")

        monkeypatch.setattr(common, "Fraction", refuse)
        code, out, err = run_cli(
            capsys, "integrate", "--n", "2", "--region", "cube", "--poly", "1", "--r", r
        )
        assert (code, out) == (1, "")
        assert err == "error: radius has more than 4300 digits in its numerator or denominator\n"

    @pytest.mark.parametrize(
        "r, admitted",
        [
            ("9" * 4300, True),
            ("1/" + "9" * 4300, True),
            ("9" * 4300 + "e0", True),
            ("1e4299", True),
            ("1e-4299", True),
            ("5e-4300", True),  # 1/(2 * 10^4299): reduced, 4300 digits
            ("1e12900", False),  # built, then refused
            ("9" * 4300 + ".5", False),  # (2 * 10^4300 - 1)/2: each part is read
            ("1e4300", False),
            ("1e-4300", False),
        ],
        ids=["4300-nines", "over-4300-nines", "4300-nines-e0", "1e4299", "1e-4299", "5e-4300",
             "1e12900", "nines-and-a-half", "1e4300", "1e-4300"],
    )
    def test_digit_limit(self, r, admitted):
        from cubeharm._cli_common import UsageError, _parse_radius

        if admitted:
            assert _parse_radius(r) == Fraction(r)
        else:
            with pytest.raises(UsageError, match="more than 4300 digits"):
                _parse_radius(r)

    @pytest.mark.parametrize(
        "argv, degree",
        [
            ("integrate --n 3 --region cube --poly 1", 3 + 16),
            ("integrate --n 3 --region diagonal --poly 1 --k 7", 3 + 16 + 7),
            ("integrate --n 3 --region cube --poly 1 --phi t^5", 3 + 16 + 5),
            ("verify --n 3 --deg 0 --identities surface", 3 + 16 + 16),
            ("verify --n 3 --deg 20 --identities surface", 3 + 20 + 20),
            ("verify --n 3 --deg 0 --k 0,999", 3 + 16 + 1000),
            ("verify --n 3 --deg 0 --identities pizzetti --m 40", 3 + 16 + 82),
        ],
    )
    def test_power_bound_counts_dimension_degree_and_weight(
        self, capsys, monkeypatch, argv, degree
    ):
        # r = 3 has 2 bits, so r^degree counts 2 * degree of them
        import cubeharm._cli_common as common

        monkeypatch.setattr(common, "MAX_RADIUS_POWER_BITS", 2 * degree - 1)
        argv = [*argv.split(), "--r", "3"]
        assert run_cli(capsys, *argv) == (
            1,
            "",
            f"error: r^{degree} at this radius has about {2 * degree} bits, "
            f"above the limit of {2 * degree - 1}\n",
        )
        monkeypatch.setattr(common, "MAX_RADIUS_POWER_BITS", 2 * degree)
        with pytest.raises(AssertionError, match="integral taken"):
            main(argv)


class TestFlagValues:
    # every option takes a value and none is short, so a token with one
    # leading "-" right after a "--flag" is that flag's value
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["integrate", "--n", "2", "--region", "cube", "--poly", "1", "--r", "-1/2"],
                "radius must be positive, got -1/2",
            ),
            (
                ["integrate", "--n", "2", "--region", "cube", "--poly", "1", "--r", "-1"],
                "radius must be positive, got -1",
            ),
            (["verify", "--n", "2", "--k", "-1,2"], "weight exponents must be >= 0"),
            (
                ["integrate", "--n", "2", "--region", "cube", "--poly", "1", "--r", "-0.5"],
                "radius must be positive, got -1/2",
            ),
            (
                ["integrate", "--n", "2", "--region", "cube", "--poly", "1", "--k", "-1"],
                "weight exponent must be >= 0, got -1",
            ),
        ],
        ids=["fraction-radius", "integer-radius", "exponent-list", "decimal-radius", "exponent"],
    )
    def test_negative_value_reaches_the_command(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_leading_minus_expression(self, capsys):
        argv = ["grid", "--n", "2", "--f", "x1^2", "--res", "3"]
        joined = run_cli(capsys, *argv, "--h=-x2^2")
        assert joined[0] == 0
        assert run_cli(capsys, *argv, "--h", "-x2^2") == joined

    @pytest.mark.parametrize(
        "argv",
        [["integrate", "--n", "2", "-h"], ["integrate", "--n=2", "-h"], ["-h"]],
        ids=["after-value", "after-joined-flag", "alone"],
    )
    def test_short_help_after_a_value(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cubeharm")


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = [
            "verify", "--n", "2", "--deg", "6", "--k", "0,1",
            "--identities", "surface,volume,quadrature",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_file_is_created_atomically(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            ["verify", "--n", "2", "--deg", "1", "--identities", "surface",
             "--out", str(target)]
        )
        assert code == 0
        assert target.exists()
        assert json.loads(target.read_text())["all_pass"] is True
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".cubeharm-")]
        assert leftovers == []

    def test_non_regular_target_written_in_place(self, capsys, tmp_path):
        # a FIFO stands in for a device such as /dev/null, which must not be
        # replaced by a regular file
        argv = ["basis", "--n", "2", "--deg", "2"]
        _, expected, _ = run_cli(capsys, *argv)
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main([*argv, "--out", str(fifo)]) == 0
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert received.decode() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--n", "2", "--deg", "2", "--k", "0"], ["basis", "--n", "2", "--deg", "2"]],
        ids=["verify", "basis"],
    )
    def test_out_error_names_the_given_path(self, capsys, argv):
        # the OS reason and the user's path, not the random temp file's name
        code, out, err = run_cli(capsys, *argv, "--out", "/nonexistent/x")
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err == "error: [Errno 2] No such file or directory: '/nonexistent/x'\n"
        assert ".cubeharm-" not in err

    def test_replace_error_names_the_given_path(self, capsys, monkeypatch, tmp_path):
        # a name too long for the file system: the temp file is made beside it,
        # and moving it onto the name fails; two runs print the same line
        monkeypatch.chdir(tmp_path)
        name = "x" * 5000
        argv = ["verify", "--n", "2", "--deg", "2", "--k", "0", "--out", name]
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first
        code, out, err = first
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("error: [Errno ") and err.endswith(f": '{name}'\n")
        assert ".cubeharm-" not in err
        assert list(tmp_path.iterdir()) == []


class TestHelp:
    # sha256 of each --help text at COLUMNS=80, as the CLI printed it before
    # its handlers moved out of cli.py
    DIGESTS = {
        "": "c4397e681ac8982526413906fc584ab88e9843e07481cace896ebf7927d91b42",
        "verify": "7e9ba4bfd05a94bf9a8194feb8e774a995404ceb10e84d8320de8d5dc17ee9c4",
        "basis": "e6c82fe5007bdc4218c96aeab82f203ad8958e5faa0f31b4f20ad9adab7a3066",
        "integrate": "8a7c913b34d0d8cff7c780e4dab077efa3400e2553cb69ca499b04ccfdc093ee",
        "approx": "497f8b3c4ff3919c9e0702db8cfcf0c1a2263df48f62f37de9ea137c1607b60f",
        "crosscheck": "2a01192c51a0faee22f6c92fa57740cee84b47e5f00e9ca9148e86a5c76017ea",
        "grid": "463f9733c1309ec6b3241c9aa99230a5bb5cfe0252a483c14582702769f17403",
    }

    @pytest.mark.parametrize("command", list(DIGESTS), ids=lambda c: c or "cubeharm")
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        import hashlib

        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == self.DIGESTS[command]
