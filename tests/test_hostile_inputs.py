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
inside the same deadline.  Run as a script (`test_hostile_inputs.py flags`,
`combinations` or `radii`), this file is that child.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
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


class _Deadline(BaseException):
    """Raised by the alarm; no handler of the program catches it."""


def _alarm(signum, frame):
    raise _Deadline


def _child(sweep: str) -> None:
    from cubeharm.cli import main

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _alarm)
    count = 0
    sweeps = {
        "flags": _cases,
        "combinations": _combined_cases,
        "radii": lambda: ((name, argv) for name, (argv, _) in TWO_SIDED.items()),
    }
    for name, argv in sweeps[sweep]():
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
        lines = [line[:200] for line in err.getvalue().splitlines()]
        print(json.dumps({"case": name, "exit": code, "raised": raised, "stderr": lines}))
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


def test_every_flag_refuses_hostile_values(tmp_path):
    results = _sweep(tmp_path, "flags")
    assert len(results) > 500
    failures = {r["case"]: why for r in results if (why := _failure(r))}
    assert failures == {}


def test_flag_combinations_end_cleanly(tmp_path):
    results = _sweep(tmp_path, "combinations")
    assert len(results) > 100
    failures = {r["case"]: why for r in results if (why := _failure(r))}
    assert failures == {}


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


if __name__ == "__main__":
    _child(sys.argv[1])
