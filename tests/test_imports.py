"""What each entry point imports: `import cubeharm` loads no submodule, a
CLI subcommand loads exactly its own handler and the layers it runs, none
loads `dataclasses` or `inspect`, and no module of the package but
`_kernels` imports numpy."""

import ast
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import cubeharm

SRC = str(Path(cubeharm.__file__).resolve().parents[1])
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

# Standard-library modules that no entry point may load: `import dataclasses`
# (which imports `inspect`) and the exec'd source of each decorated class
# cost every CLI process about 15-25 ms of start-up.
SLOW_STDLIB = {"dataclasses", "inspect"}
# Standard-library modules that only some subcommands use: `json` costs
# about 1.1 ms to import and `csv` about 0.3 ms.
CHECKED_STDLIB = SLOW_STDLIB | {"json", "csv"}


def _loaded_after(code: str) -> set[str]:
    """The cubeharm submodules, and the modules of CHECKED_STDLIB, that a
    fresh interpreter holds after running code."""
    code += (
        "\nimport sys"
        "\nprint(' '.join(m for m in sys.modules"
        f" if m.startswith('cubeharm.') or m in {sorted(CHECKED_STDLIB)}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return {name.removeprefix("cubeharm.") for name in out.stdout.splitlines()[-1].split()}


def _loaded_by_cli(*argv: str) -> set[str]:
    code = (
        "import contextlib, io\n"
        "from cubeharm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )
    return _loaded_after(code)


def test_package_import_loads_no_submodule():
    assert _loaded_after("import cubeharm") == set()


# what every subcommand loads: the dispatcher, the shared helpers and the
# polynomial layer
DISPATCH = {"cli", "_cli_common", "poly"}


def test_cli_import_loads_common_and_poly_only():
    # no handler, no expression parser, no json or csv
    assert _loaded_after("import cubeharm.cli") == DISPATCH


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (
            ["integrate", "--n", "2", "--region", "cube", "--poly", "x1^2"],
            {"_cli_integrate", "parser", "integrate"},
        ),
        (["basis", "--n", "2", "--deg", "3"], {"_cli_basis", "kernel"}),
        (
            ["basis", "--n", "2", "--deg", "3", "--format", "json"],
            {"_cli_basis", "kernel", "json"},
        ),
        (
            ["crosscheck", "--n", "3", "--count", "2", "--deg", "4"],
            {"_cli_crosscheck", "integrate", "oracle", "sampling"},
        ),
        (
            ["crosscheck", "--n", "3", "--poly", "x1^2", "--k", "0"],
            {"_cli_crosscheck", "parser", "integrate", "oracle"},
        ),
        (
            ["approx", "--n", "2", "--f", "x1^2 + 1", "--h", "0"],
            {"_cli_approx", "parser", "integrate", "onesided", "_proof", "lattice", "json"},
        ),
        (
            ["approx", "--n", "2", "--f", "x1^2 + 1", "--h", "0", "--phi", "t^2/2"],
            {"_cli_approx", "parser", "integrate", "onesided", "_proof", "lattice", "json"},
        ),
        (
            ["grid", "--n", "2", "--f", "x1^2*x2^2", "--h", "x1*x2", "--res", "5"],
            {"_cli_grid", "parser", "integrate", "lattice", "csv"},
        ),
        (
            ["verify", "--n", "2", "--deg", "3", "--k", "0,1"],
            {"_cli_verify", "identities", "integrate", "kernel", "json"},
        ),
        (
            ["verify", "--n", "2", "--deg", "3", "--k", "0,1", "--format", "csv"],
            {"_cli_verify", "identities", "integrate", "kernel", "json", "csv"},
        ),
        (
            ["verify", "--n", "2", "--poly", "x1*x2", "--k", "0"],
            {"_cli_verify", "parser", "identities", "integrate", "kernel", "json"},
        ),
    ],
    ids=[
        "integrate", "basis", "basis-json", "crosscheck", "crosscheck-poly", "approx", "approx-phi",
        "grid", "verify", "verify-csv", "verify-poly",
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, loaded):
    # exactly its own handler module and the layers it runs; `json` comes
    # with `identities` and `onesided`, which write JSON
    assert _loaded_by_cli(*argv) == DISPATCH | loaded


def test_benchmark_traces_every_name_it_reads():
    # perfbench/tracing.py wraps cubeharm's public functions by name and lists
    # a metric whose functions are gone as unmeasured, in a run that still
    # exits 0; so a public name that it traces cannot be removed or renamed
    # alone
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {PERFBENCH!r})\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "metrics, unmeasured = tracing.layer_metrics(tracer, 1)\n"
        "print(json.dumps([sorted(metrics), unmeasured]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    measured, unmeasured = json.loads(out.stdout.splitlines()[-1])
    assert unmeasured == []
    assert len(measured) == 23


def _significant_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(
            tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
            for tok in tokenize.tokenize(fh.readline)
        )


def test_every_module_is_below_the_token_step():
    # CPython's parser grows its token buffer past 4096 tokens, and a module
    # above that step costs each process that compiles it about 0.26 MB more
    # peak memory; every CLI process compiles the modules it imports
    counts = {
        path.name: _significant_tokens(path)
        for path in sorted(Path(SRC, "cubeharm").glob("*.py"))
    }
    assert "poly.py" in counts
    assert {name: n for name, n in counts.items() if n >= 4096} == {}


def _imported_modules(path: Path) -> set[str]:
    """Every module a source file of the package imports, anywhere in its
    code, with relative imports resolved to `cubeharm.`; `from m import x`
    counts both m and m.x, since x may be a submodule."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"cubeharm.{module}".rstrip(".")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_certificate_algebra_stays_out_of_poly():
    # every CLI process compiles `poly` from source, so the certificate
    # algebra that only `approx` runs lives in `_proof`, which imports
    # nothing of the package but `poly`, and `poly` keeps no copy or alias
    # of it; 3,000 significant tokens is about what `poly` holds without it
    from cubeharm import poly

    package = Path(SRC, "cubeharm")
    ours = {m for m in _imported_modules(package / "_proof.py") if m.split(".")[0] == "cubeharm"}
    assert "cubeharm.poly" in ours
    assert all(m.startswith("cubeharm.poly.") for m in ours - {"cubeharm.poly"}), ours
    moved = {"_uni_divmod", "uni_negative_point", "divide_exact", "_fraction_sqrt", "poly_sqrt"}
    assert moved & set(vars(poly)) == set()
    assert _significant_tokens(package / "poly.py") < 3000


def test_only_the_test_reference_imports_numpy():
    # numpy is no dependency of the package: `_kernels`, the tests' pointwise
    # reference, is the one module that imports it, and no module imports
    # `_kernels`
    def users(target: str) -> set[str]:
        return {
            path.name
            for path in Path(SRC, "cubeharm").glob("*.py")
            if any(
                name == target or name.startswith(target + ".")
                for name in _imported_modules(path)
            )
        }

    assert users("numpy") == {"_kernels.py"}
    assert users("cubeharm._kernels") == set()


def test_exports_are_the_submodule_objects():
    import importlib

    for name in cubeharm.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"cubeharm.{cubeharm._EXPORTS[name]}")
        assert getattr(cubeharm, name) is getattr(module, name), name
        assert name in vars(cubeharm)  # cached after the first access


def test_weight_condition_error_is_one_class():
    from cubeharm import WeightConditionError
    from cubeharm.identities import WeightConditionError as from_identities
    from cubeharm.integrate import WeightConditionError as from_integrate

    assert WeightConditionError is from_identities is from_integrate


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from cubeharm import *", namespace)
    assert set(cubeharm.__all__) <= set(namespace)
    assert namespace["parse_poly"] is cubeharm.parse_poly
    assert set(cubeharm.__all__) <= set(dir(cubeharm))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cubeharm.no_such_name
    with pytest.raises(ImportError):
        exec("from cubeharm import no_such_name", {})


def test_value_equality_is_defined_once():
    # Value compares and hashes every subclass by its class and fields (a
    # dict field as the frozenset of its items), so a subclass's own __eq__
    # or __hash__ is a second copy of that rule
    bases: dict[str, set[str]] = {}
    defines: dict[str, set[str]] = {}
    for path in Path(SRC, "cubeharm").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    b.id for b in node.bases if isinstance(b, ast.Name)
                )
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names = {item.name}
                    elif isinstance(item, ast.Assign):
                        names = {t.id for t in item.targets if isinstance(t, ast.Name)}
                    else:
                        continue
                    defines.setdefault(node.name, set()).update(names & {"__eq__", "__hash__"})

    def is_value(name: str) -> bool:
        return any(base == "Value" or is_value(base) for base in bases.get(name, ()))

    values = {name for name in bases if is_value(name)}
    assert {"Poly", "UniPoly", "OneSidedness", "CubeDomain"} <= values
    own = {name: sorted(defines[name]) for name in values if defines.get(name)}
    assert own == {}
