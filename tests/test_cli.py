import json
import math

import pytest

from cubeharm.cli import main


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
        import cubeharm.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("parsed before the degree check")

        monkeypatch.setattr(cli, "parse_poly", refuse)
        monkeypatch.setattr(cli, "parse_unipoly", refuse)
        code, out, err = run_cli(capsys, "verify", "--n", "2", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(
            f"error: --deg {argv[1]} raises the degree limit of --poly and --phi to {argv[1]}, "
            f"above the limit of {cli.MAX_VERIFY_DEGREE}"
        )

    def test_job_file_expression_degree_refused_before_parsing(
        self, capsys, monkeypatch, tmp_path
    ):
        import cubeharm.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("parsed before the degree check")

        monkeypatch.setattr(cli, "parse_poly", refuse)
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
        import cubeharm.cli as cli
        import cubeharm.identities as identities
        import cubeharm.kernel as kernel

        def refuse(*args, **kwargs):
            raise AssertionError("verify started before the budget check")

        for module, name in [
            (cli, "parse_poly"), (cli, "parse_unipoly"), (identities, "run_suite"),
            (kernel, "graded_basis"), (kernel, "homogeneous_kernel"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        code, out, err = run_cli(capsys, "verify", "--n", "2", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: " + message)

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
        import cubeharm.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("integrated before the weight check")

        monkeypatch.setattr(cli, "parse_poly", refuse)
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
        from cubeharm.cli import MAX_DIM

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
        ],
        ids=["grid", "grid-zero", "grid-values", "crosscheck", "crosscheck-values"],
    )
    def test_refused_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: " + message)
        assert err.rstrip().endswith("leave the float range")

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
        import cubeharm.cli as cli
        import cubeharm.oracle as oracle
        import cubeharm.sampling as sampling

        def refuse(*args, **kwargs):
            raise AssertionError("crosscheck started before the budget check")

        monkeypatch.setattr(cli, "parse_poly", refuse)
        monkeypatch.setattr(sampling, "random_poly", refuse)
        monkeypatch.setattr(oracle, "QuadratureSpec", refuse)
        if "--n" not in argv:
            argv = ["--n", "2", *argv]
        code, out, err = run_cli(capsys, "crosscheck", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: " + message)

    def test_benchmark_request_far_below_the_budget(self, capsys):
        # the benchmark runs --count 2; a hundred times as many still runs
        code, out, _ = run_cli(
            capsys, "crosscheck", "--n", "3", "--count", "200", "--deg", "4", "--tol", "1e-9"
        )
        assert code == 0

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
        import cubeharm.cli as cli

        calls = []
        float17 = cli._float17

        def failing(x):
            calls.append(x)
            if len(calls) > 100:
                raise OSError("disk full")
            return float17(x)

        monkeypatch.setattr(cli, "_float17", failing)
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
        import cubeharm.cli as cli
        from cubeharm.onesided import MAX_GRID_POINTS

        def refuse(*args):
            raise AssertionError("grid built before the budget check")

        monkeypatch.setattr(cli, "lattice_terms", refuse)
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
        import cubeharm.cli as cli

        def refuse(*args):
            raise AssertionError("grid built before the budget check")

        monkeypatch.setattr(cli, "lattice_terms", refuse)
        assert res * res * per_point > cli.MAX_GRID_TERM_EVALS
        code, out, err = run_cli(capsys, "grid", "--n", "2", "--f", f, "--h", h, "--res", str(res))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(
            f"error: grid resolution {res} gives {res * res} points of {per_point} term evaluations"
        )


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
