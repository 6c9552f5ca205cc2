"""Hostile-input sweep: every subcommand and flag of the CLI, paired with
values at and past each bound and with malformed ones, must end with exit 0,
1 or 2, and an exit 1 with exactly one `error:` line and no traceback.

One child process runs `cli.main` in-process for every case.  It builds the
cases from `build_parser()`'s actions, so a new flag is swept without editing
this file.  A second sweep combines the flags that set or meet the degree
limit of a parsed expression, drawn by a derandomized hypothesis strategy.
The child caps its own address space and gives each case a deadline; the
parent's timeout kills the child, since no alarm can stop one huge big-int
operation.  A third sweep runs calls with two-sided radii, which must end
inside the same deadline, and a fourth one ordinary call of each subcommand
and output format.  Run as a script (`test_hostile_inputs.py flags`,
`combinations`, `radii` or `ordinary`), this file is that child.

The child also prints, for each case, a sha256 of its exit code (or the
exception it raised), stdout and stderr and of every file it wrote in the
working directory (an `--out`).
Each sweep compares them with `cli_digests.json`, keyed by case id, so a
refactor that moves any byte of any CLI output, message or exit code fails
here.  `python tests/test_hostile_inputs.py pin` rewrites that file.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

VALUES = [
    "0", "-1", "257", "1001", "2001", "3000", "1" + "0" * 400, "10^400", "1/0", "1e999999",
    "x" * 5000,
]
# the same values in a job file: JSON numbers where they are integers, the
# raw token 1e999999 (read as inf), and strings otherwise
JOB_VALUES = [
    *VALUES[:7], json.dumps("10^400"), json.dumps("1/0"), "1e999999", json.dumps("x" * 5000)
]
PATHS = ["/dev/full", "/nonexistent/x"]  # also given to --out and --job
# a small valid call of each subcommand, into which one flag at a time is set
BASE = {
    "verify": ["--n", "2", "--deg", "2", "--k", "0"],
    "basis": ["--n", "2", "--deg", "2"],
    "integrate": ["--n", "2", "--region", "cube", "--poly", "x1^2"],
    "approx": ["--n", "2", "--f", "x1^2*x2^2", "--h", "0"],
    "crosscheck": ["--n", "2", "--count", "2", "--deg", "2"],
    "grid": ["--n", "2", "--f", "x1", "--res", "5"],
}
BASE_JOB = '{"n": 2, "deg": 2, "k": [0]'
DEADLINE_S = 5.0
ADDRESS_SPACE = 1 << 29

# values of the flags combined by the second sweep: each side of every bound
# on --n, --deg, --m and --k, and expressions at and past the degree limit
# of 16 (or --deg), at the 100 that verify admits, and past the dimension
COMBINED = {
    "--n": ["1", "2", "3", "8", "9", "2000"],
    "--deg": ["-1", "0", "2", "6", "16", "17", "100", "101"],
    "--poly": [
        "x1^2-x2^2", "x1*x2", "x1^16", "x1^17", "(x1+x2)^100", "(1+x1)^100", "x1^101",
        "x9", "1/0", "t",
    ],
    "--phi": ["t^2/2", "t^17", "t^2*(1+t)^98", "t^101", "t-t^2", "x1"],
    "--m": ["0", "1", "3", "499", "500"],
    "--identities": [
        "surface", "volume", "quadrature", "pizzetti", "quadrature,pizzetti",
        "surface,volume,quadrature,pizzetti",
    ],
    "--k": ["-1", "0", "0,1,2,3", "999", "1000"],
}
COMBINATIONS = 300

# radii whose numerator and denominator are both large, in calls that build
# powers of r as large as the dimension: (argv, exit code)
TWO_SIDED = {
    "verify surface": (
        ["verify", "--n", "2000", "--poly", "x1^2-x2^2", "--identities", "surface", "--k", "0",
         "--r", f"{10**400 + 1}/{10**400 - 1}"],
        0,
    ),
    "integrate diagonal": (
        ["integrate", "--n", "2000", "--region", "diagonal", "--poly", "x1^2",
         "--r", f"{10**590 + 1}/{10**590 - 1}"],
        1,
    ),
}

# one ordinary call of each subcommand and output format, among them every
# path that takes a weight profile: (argv, exit code)
ORDINARY_JOB = {
    "n": 3, "r": "2", "deg": 4, "m": 2, "identities": ["pizzetti"], "format": "csv",
    "out": "job-report.csv",
}
ORDINARY = {
    "verify json": (
        ["verify", "--n", "2", "--deg", "4", "--identities", "surface,volume,quadrature,pizzetti"],
        0,
    ),
    "verify csv": (
        ["verify", "--n", "3", "--deg", "3", "--r", "3/2", "--k", "1,3", "--format", "csv",
         "--identities", "surface,volume,quadrature,pizzetti"],
        0,
    ),
    "verify poly phi": (
        ["verify", "--n", "2", "--poly", "x1^3-3*x1*x2^2", "--identities", "quadrature,pizzetti",
         "--phi", "t^2/2", "--phi", "t^3-t^2/5", "--r", "1/3", "--out", "verify.json"],
        0,
    ),
    "verify failing poly": (
        ["verify", "--n", "2", "--poly", "x1^4+x2^2", "--identities", "surface,volume,quadrature",
         "--k", "0,1"],
        2,
    ),
    "verify job": (["verify", "--job", "ordinary-job.json"], 0),
    "basis text": (["basis", "--n", "3", "--deg", "4"], 0),
    "basis json": (["basis", "--n", "2", "--deg", "5", "--m", "2", "--format", "json"], 0),
    "integrate cube": (
        ["integrate", "--n", "3", "--region", "cube", "--poly", "x1^2*x2^2+x3^4-1/7", "--k", "2",
         "--r", "3/2"],
        0,
    ),
    "integrate cube phi": (
        ["integrate", "--n", "2", "--region", "cube", "--poly", "x1^4*x2^2+x2^2",
         "--phi", "t^3/6-t^2+1/2"],
        0,
    ),
    "integrate diagonal phi": (
        ["integrate", "--n", "3", "--region", "diagonal", "--poly", "x1^2*x2^2+x3^4",
         "--phi", "t^2*(1+t)^3", "--r", "2/5", "--out", "value.txt"],
        0,
    ),
    "integrate boundary": (
        ["integrate", "--n", "4", "--region", "boundary", "--poly", "x1^2*x4^2+1", "--r", "5"],
        0,
    ),
    "approx": (
        ["approx", "--n", "2", "--f", "x1^2*x2^2",
         "--h", "-1/4*x1^4+3/2*x1^2*x2^2-1/4*x2^4"],
        0,
    ),
    "approx phi": (
        ["approx", "--n", "2", "--f", "x1^4+x2^4", "--h", "x1^4-6*x1^2*x2^2+x2^4", "--r", "2",
         "--phi", "t^2/2+t^3", "--grid", "11"],
        0,
    ),
    "crosscheck": (["crosscheck", "--n", "3", "--count", "4", "--seed", "3", "--deg", "4"], 0),
    "crosscheck poly": (
        ["crosscheck", "--n", "2", "--poly", "x1^4*x2^2+3*x2^2", "--k", "0,2", "--r", "3/2",
         "--points-per-axis", "12"],
        0,
    ),
    "grid": (
        ["grid", "--n", "2", "--f", "x1^2*x2", "--h", "x1/3", "--res", "7", "--r", "1/2",
         "--out", "grid.csv"],
        0,
    ),
}
DIGESTS = Path(__file__).with_name("cli_digests.json")


def _with_flag(base: list[str], flag: str, value: str) -> list[str]:
    out = []
    for name, v in zip(base[::2], base[1::2]):
        if name != flag:
            out += [name, v]
    return out + [flag, value]


def _cases():
    """(name, argv) of every case; job files are written to the working
    directory."""
    from cubeharm.cli import build_parser

    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        base = BASE.get(command, [])
        for action in sub._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag is None or flag == "--help":
                continue
            extra = PATHS if flag in ("--out", "--job") else []
            for i, value in enumerate(VALUES + extra):
                name = f"{command} {flag} #{i} {value[:16]}"
                yield name, [command, *_with_flag(base, flag, value)]
    from cubeharm._cli_verify import _JOB_FIELDS

    for field in _JOB_FIELDS:
        for i, value in enumerate(JOB_VALUES):
            for j, literal in enumerate((value, f"[{value}]")):
                path = f"job-{field}-{i}-{j}.json"
                Path(path).write_text(f'{BASE_JOB}, "{field}": {literal}}}')
                yield f"job {field} #{i}{'[]' * j}", ["verify", "--job", path]
    Path("nested.json").write_text("[" * 100_000)
    yield "job nested", ["verify", "--job", "nested.json"]
    yield "job /dev/zero", ["verify", "--job", "/dev/zero"]


def _combined_cases():
    """(name, argv) of `verify` and `crosscheck` calls that combine the
    flags of COMBINED, drawn once by a derandomized hypothesis run."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    def flags(required, optional):
        pick = {flag: st.sampled_from(COMBINED[flag]) for flag in (*required, *optional)}
        if "--phi" in optional:  # repeatable
            pick["--phi"] = st.lists(pick["--phi"], min_size=1, max_size=2)
        return st.fixed_dictionaries(
            {flag: pick[flag] for flag in required},
            optional={flag: pick[flag] for flag in optional},
        )

    def argv(command, base, drawn):
        out = [command, *base]
        for flag, value in drawn.items():
            for v in value if isinstance(value, list) else [value]:
                out += [flag, v]
        return tuple(out)

    verify = flags(("--n", "--deg"), ("--poly", "--phi", "--m", "--identities", "--k"))
    crosscheck = flags(("--deg",), ("--poly",))
    drawn = []

    @settings(
        derandomize=True, database=None, deadline=None, max_examples=COMBINATIONS,
        suppress_health_check=list(HealthCheck),
    )
    @given(
        st.one_of(
            verify.map(lambda d: argv("verify", [], d)),
            crosscheck.map(lambda d: argv("crosscheck", ["--n", "2", "--count", "2"], d)),
        )
    )
    def draw(case):
        drawn.append(case)

    draw()
    for case in dict.fromkeys(drawn):  # once each, in the order drawn
        yield " ".join(case), list(case)


def _ordinary_cases():
    Path("ordinary-job.json").write_text(json.dumps(ORDINARY_JOB))
    for name, (argv, _) in ORDINARY.items():
        yield name, argv


SWEEPS = {
    "flags": _cases,
    "combinations": _combined_cases,
    "radii": lambda: ((name, argv) for name, (argv, _) in TWO_SIDED.items()),
    "ordinary": _ordinary_cases,
}


class _Deadline(BaseException):
    """Raised by the alarm; no handler of the program catches it."""


def _alarm(signum, frame):
    raise _Deadline


def _child(sweep: str) -> None:
    from cubeharm.cli import main

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _alarm)
    count = 0
    for name, argv in SWEEPS[sweep]():
        before = set(os.listdir())
        out, err = io.StringIO(), io.StringIO()
        raised = None
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit, _Deadline) as exc:  # a traceback in a real process
            code, raised = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        digest = hashlib.sha256(json.dumps([code, raised, out.getvalue(), err.getvalue()]).encode())
        for path in sorted(set(os.listdir()) - before):  # what the case wrote, then removed
            data = Path(path).read_bytes()
            digest.update(json.dumps([path, len(data)]).encode() + data)
            os.unlink(path)
        lines = [line[:200] for line in err.getvalue().splitlines()]
        print(json.dumps({
            "case": name, "exit": code, "raised": raised, "stderr": lines,
            "digest": digest.hexdigest(),
        }))
        count += 1
    print(json.dumps({"done": count}))


def _failure(result: dict) -> str | None:
    """Why one case broke the contract, or None."""
    if result["raised"] is not None:
        return f"raised {result['raised']}"
    if result["exit"] not in (0, 1, 2):
        return f"exit {result['exit']!r}"
    lines = result["stderr"]
    if result["exit"] == 1 and (len(lines) != 1 or not lines[0].startswith("error: ")):
        return f"exit 1 with stderr {lines!r}"
    if result["exit"] != 1 and lines:
        return f"exit {result['exit']} with stderr {lines!r}"
    return None


def _sweep(tmp_path, sweep: str) -> list[dict]:
    """One result per case of a sweep, run in a fresh capped child."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), sweep],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    *results, done = map(json.loads, child.stdout.splitlines())
    assert done == {"done": len(results)}
    return results


def _digests(results: list[dict]) -> dict[str, str]:
    digests = {r["case"]: r["digest"] for r in results}
    assert len(digests) == len(results), "case ids must be unique"
    return digests


def _check_digests(sweep: str, results: list[dict]) -> None:
    """Every case's bytes are the pinned ones, and the cases are the pinned ones."""
    pinned = json.loads(DIGESTS.read_text())[sweep]
    digests = _digests(results)
    assert sorted(set(digests) ^ set(pinned)) == []
    assert sorted(case for case, digest in digests.items() if digest != pinned[case]) == []


def _pin() -> None:
    """Rewrite cli_digests.json from a fresh run of every sweep."""
    pinned = {}
    for sweep in SWEEPS:
        with tempfile.TemporaryDirectory() as tmp:
            pinned[sweep] = _digests(_sweep(tmp, sweep))
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def test_every_flag_refuses_hostile_values(tmp_path):
    results = _sweep(tmp_path, "flags")
    assert len(results) > 500
    failures = {r["case"]: why for r in results if (why := _failure(r))}
    assert failures == {}
    _check_digests("flags", results)


def test_flag_combinations_end_cleanly(tmp_path):
    results = _sweep(tmp_path, "combinations")
    assert len(results) > 100
    failures = {r["case"]: why for r in results if (why := _failure(r))}
    assert failures == {}
    _check_digests("combinations", results)


def test_two_sided_radii_end_in_time(tmp_path):
    # each radial factor takes its power of r last, so no Fraction normalises
    # by a gcd of two numbers of that power's size
    results = {r["case"]: r for r in _sweep(tmp_path, "radii")}
    assert {name: (r["exit"], _failure(r)) for name, r in results.items()} == {
        name: (code, None) for name, (_, code) in TWO_SIDED.items()
    }
    assert results["integrate diagonal"]["stderr"] == [
        "error: exact value has more than 4300 digits in its numerator or denominator"
    ]
    _check_digests("radii", list(results.values()))


def _huge_denominator_poly(monomials: list[str]) -> str:
    """250 terms (i + 1)/p_i^e * monomial_i, p_i the i-th prime and p_i^e
    about 10^3500, its digits written out."""
    primes = [p for p in range(2, 1600) if all(p % q for q in range(2, p))][:250]
    return " + ".join(
        f"{i + 1}/{p ** round(3500 / math.log10(p))}*{mono}"
        for i, (p, mono) in enumerate(zip(primes, monomials))
    )


def test_huge_coefficient_denominators_are_refused_in_time(tmp_path):
    # The distinct-monomial job ran 25 s before its 4300-digit error, and the
    # one-monomial poly spent 11 s in the parser; each sum's second term
    # brings the lcm of its denominators past 4300 digits and is refused.
    distinct = [
        "*".join(f"x{j + 1}^2" for j, e in enumerate(exps) if e) or "1"
        for exps in itertools.product((0, 2), repeat=8)
    ]
    paths = {"distinct monomials": tmp_path / "distinct.json", "one monomial": tmp_path / "one.json"}
    for monomials, path in zip((distinct, ["x1^2"] * 250), paths.values()):
        path.write_text(json.dumps({"n": 8, "poly": _huge_denominator_poly(monomials)}))
    assert 800_000 < paths["distinct monomials"].stat().st_size < 1_000_000
    code = "import sys; from cubeharm.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for name, path in paths.items():
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", code, "verify", "--job", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert (child.returncode, child.stdout) == (1, ""), name
        (line,) = child.stderr.splitlines()
        assert line.startswith("error: invalid expression at offset ") and line.endswith(
            "the coefficients' denominators have a common multiple of more than 4300 digits"
        ), name
        assert elapsed < 2.0, (name, elapsed)


def test_ordinary_calls_keep_their_bytes(tmp_path):
    results = _sweep(tmp_path, "ordinary")
    assert {r["case"]: (r["exit"], _failure(r)) for r in results} == {
        name: (code, None) for name, (_, code) in ORDINARY.items()
    }
    _check_digests("ordinary", results)


if __name__ == "__main__":
    _pin() if sys.argv[1] == "pin" else _child(sys.argv[1])
