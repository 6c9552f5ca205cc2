"""Command-line front door.

Subcommands map one-to-one onto library capabilities:

  verify      run identity suites over generated bases or a given polynomial
  basis       emit harmonic / polyharmonic bases
  integrate   one exact integral, printed as "p/q"
  approx      one-sided approximation certificate as JSON
  crosscheck  exact engine vs quadrature oracle, prints max relative deviation
  grid        CSV samples of f, h, f-h for external plotting

Exit codes are a stable contract: 0 all good, 1 usage or input error,
2 verification failure (a nonzero residual, or a crosscheck above --tol).
Reports are written atomically (temp file + rename; a device or FIFO is
written in place) and are byte-identical for identical configurations.  All
rationals in output are "p/q" strings; the only floats are crosscheck
deviations and grid samples, printed with 17 significant digits.

Start-up dominates a CLI process, which may compile every module it
imports from source, so this module holds only the argument parser and the
dispatcher.  `main` imports the handler module of the one subcommand it
runs, `_cli_<command>`; the handlers share `_cli_common`, and each imports
the expression parser, `json`, `csv` and the layers past the polynomial one
only where it uses them.  The value classes are hand-written __slots__
classes, so no process imports `inspect` or execs generated class source at
start-up.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from ._cli_common import UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubeharm", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_required=True, radius=True):
        p.add_argument("--n", type=int, required=n_required, help="ambient dimension")
        if radius:
            p.add_argument("--r", default="1", help='cube radius as a rational "p/q"')
        p.add_argument("--out", help="write output to this path (atomic)")

    p = sub.add_parser("verify", help="run identity suites")
    common(p, n_required=False)
    p.add_argument("--job", help="JSON job file holding the whole configuration")
    p.add_argument("--deg", type=int, default=8, help="max basis degree")
    p.add_argument("--k", default="0,1,2,3", help="weight exponents, comma separated")
    p.add_argument("--m", type=int, default=1, help="polyharmonic order")
    p.add_argument(
        "--identities",
        default="surface,volume",
        help="comma separated: surface,volume,quadrature,pizzetti",
    )
    p.add_argument("--phi", action="append", help="weight profile in t (repeatable)")
    p.add_argument("--poly", help="verify this polynomial instead of a generated basis")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("basis", help="emit harmonic / polyharmonic bases")
    common(p, radius=False)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("integrate", help="one exact integral")
    common(p)
    p.add_argument("--region", choices=("cube", "boundary", "diagonal"), required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--phi", help="weight profile in t (overrides --k)")

    p = sub.add_parser("approx", help="one-sided approximation certificate")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--phi", help="also report the weighted error for this profile")
    p.add_argument("--grid", type=int, default=41, help="heuristic grid points per axis")

    p = sub.add_parser("crosscheck", help="exact engine vs quadrature oracle")
    common(p)
    p.add_argument("--poly", help="check this polynomial")
    p.add_argument("--count", type=int, default=20, help="random polynomials to check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deg", type=int, default=6)
    p.add_argument("--k", default="0,1,2")
    p.add_argument("--points-per-axis", type=int, default=24)
    p.add_argument("--tol", type=float, help="exit 2 when the deviation exceeds this")

    p = sub.add_parser("grid", help="CSV samples of f, h, f-h")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--h", default="0")
    p.add_argument("--res", type=int, default=101, help="points per axis")

    return parser


def _join_flag_values(argv: list[str]) -> list[str]:
    """Join "--f" "-1/4*x1^4" into "--f=-1/4*x1^4": every option takes a value
    and none is short, so a token with one leading "-" after a "--flag"
    without "=" is that flag's value, which argparse would take for an option."""
    out: list[str] = []
    for tok in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_flag_values(argv)
    try:
        args = parser.parse_args(argv)
        return importlib.import_module(f"cubeharm._cli_{args.command}").run(args)
    except (ValueError, OSError) as exc:
        # an expression error comes only from a loaded parser; `basis` loads none
        expr = sys.modules.get("cubeharm.parser")
        invalid = expr is not None and isinstance(exc, expr.ExprSyntaxError)
        print(f"error: {'invalid expression ' if invalid else ''}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
