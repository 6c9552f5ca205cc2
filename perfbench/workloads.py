"""The four workloads: seeded inputs, the timed call for one item, and the
gates that check each output.

Inputs are drawn from `random.Random(seed)` before any timing starts.  Each
workload's items come in cycles: a cycle is a fixed multiset of item
classes whose concrete inputs the seed draws and whose order the seed
shuffles.  A timed run always ends on a whole cycle, so every run holds the
same mix of classes and the latency quantiles land on the same class each
time (see README.md for which class each quantile lands on and why).

cubeharm modules are imported by `load`, not at module import, so each
workload pays only for the modules it uses, and every call goes through the
module attribute so that tracing wrappers see it.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

DEFAULT_SEED = 20260809  # the seed of the oracle acceptance test
OUT_DIR = os.path.join("perfbench", "out")
ORACLE_TOL = 1e-9
ZERO = "0/1"


class Item:
    """One timed unit of work.  `key` names it in the pinned digests."""

    __slots__ = ("key", "kind", "args", "expect")

    def __init__(self, key: str, kind: str, args: tuple, expect: dict):
        self.key, self.kind, self.args, self.expect = key, kind, args, expect


def sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def harmonic_dim(n: int, degree: int, m: int) -> int:
    """Dimension of the polynomials of degree <= `degree` in n variables that
    the m-fold Laplacian annihilates (it maps degree d onto degree d - 2m)."""
    total = 0
    for d in range(degree + 1):
        total += math.comb(n + d - 1, d)
        if d >= 2 * m:
            total -= math.comb(n + d - 2 * m - 1, d - 2 * m)
    return total


def _balanced(rng: random.Random, values: tuple, count: int) -> list:
    """`count` values cycling through `values` from a seeded offset, so a
    class's items spread evenly over the values in every cycle."""
    start = rng.randrange(len(values))
    return [values[(start + i) % len(values)] for i in range(count)]


class Workload:
    name = ""
    # (class label, items per cycle)
    classes: tuple[tuple[str, int], ...] = ()
    warmup_class = ""  # class of the untimed item that ends set-up
    pool_cycles = 1  # cycles of inputs built before timing; a long run reuses them
    modules: tuple[str, ...] = ()
    in_subprocess = False  # items run the program in a child process
    reference = ("fractions",)  # loops that gauge the core's speed (reference.py)

    def __init__(self):
        self.tracer = None

    def load(self) -> None:
        for module in self.modules:
            setattr(self, module, importlib.import_module(f"cubeharm.{module}"))

    def pool(self, seed: int) -> tuple[Item, list[list[Item]]]:
        """The warm-up item and `pool_cycles` shuffled cycles of items."""
        rng = random.Random(seed)
        warmup = self.make_class(rng, self.warmup_class, [f"{seed}:warmup"])[0]
        cycles = []
        index = 0
        for _ in range(self.pool_cycles):
            cycle = []
            for label, count in self.classes:
                keys = [f"{seed}:{index + i}" for i in range(count)]
                cycle += self.make_class(rng, label, keys)
                index += count
            rng.shuffle(cycle)
            cycles.append(cycle)
        return warmup, cycles

    def warmup_item(self, seed: int) -> Item:
        """The same warm-up item `pool` starts with, without the cycles."""
        return self.make_class(random.Random(seed), self.warmup_class, [f"{seed}:warmup"])[0]

    def make_class(self, rng: random.Random, label: str, keys: list[str]) -> list[Item]:
        return [self.make(rng, label, key) for key in keys]

    def make(self, rng: random.Random, label: str, key: str) -> Item:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, output) -> tuple[list[str], dict]:
        """(problems found by the seed-independent gates, digests to pin)."""
        raise NotImplementedError


# -- oracle-crosscheck ------------------------------------------------------------


class OracleCrosscheck(Workload):
    """Exact engine vs Gauss-Legendre oracle on random polynomials.

    Polynomials come from `sampling.random_poly` (degree <= 6), as in the
    oracle acceptance test.  The oracle's cost is set mostly by how many
    exponents are >= 3 (numpy's general power is several times slower than
    its square), so every item is redrawn until it has exactly
    EXPONENT_PROFILE; that keeps the work of a class the same across seeds.
    """

    name = "oracle-crosscheck"
    reference = ("fractions", "numpy")
    # n4 is a fifth of the items, so p90 is the n4 class's median, not its tail
    classes = (("n2", 3), ("n3", 5), ("n4", 2))
    warmup_class = "n3"
    pool_cycles = 30
    modules = ("sampling", "integrate", "oracle", "poly")
    KS = (0, 1, 2)
    Q = 24
    EXPONENT_PROFILE = (1, 3)  # (exponents >= 3, exponents in 1..2)

    def load(self):
        super().load()
        self.spec = self.oracle.QuadratureSpec(points_per_axis=self.Q)

    @classmethod
    def _profile(cls, p) -> tuple[int, int]:
        exps = [e for ex in p.terms for e in ex if e]
        return sum(1 for e in exps if e >= 3), sum(1 for e in exps if e < 3)

    def make(self, rng, label, key):
        dim = int(label[1:])
        while True:
            p = self.sampling.random_poly(rng, dim, max_degree=6)
            if self._profile(p) == self.EXPONENT_PROFILE:
                return Item(key, label, (p,), {})

    def run(self, item):
        (p,) = item.args
        integrate, oracle = self.integrate, self.oracle
        d = integrate.CubeDomain(p.dim, Fraction(1))
        weights = [integrate.Weight.power(k) for k in self.KS]
        exact = [integrate.integrate_cube(p, d, w) for w in weights]
        exact += [integrate.integrate_diagonal(p, d, w) for w in weights]
        exact.append(integrate.integrate_boundary(p, d))
        numeric = oracle.numeric_integrate_cube_many(p, d, weights, self.spec)
        numeric += oracle.numeric_integrate_diagonal_many(p, d, weights, self.spec)
        numeric.append(oracle.numeric_integrate_boundary(p, d, self.spec))
        return exact, numeric

    def check(self, item, output):
        exact, numeric = output
        problems = []
        for value, approx in zip(exact, numeric):
            dev = abs(float(value) - approx) / max(1.0, abs(float(value)))
            if not dev <= ORACLE_TOL:
                problems.append(f"oracle deviation {dev:.3e} > {ORACLE_TOL}")
        if len(exact) != len(numeric):
            problems.append("oracle returned a different number of values")
        report = "".join(self.poly.rational_to_text(v) + "\n" for v in exact)
        return problems, {"report": sha(report)}


# -- verify-suite -----------------------------------------------------------------


class VerifySuite(Workload):
    """graded_basis -> run_suite -> to_json over a fixed mix of suite
    configurations.  The seed draws r for each item and the order."""

    name = "verify-suite"
    # label -> (n, max degree, m, identities)
    CONFIGS = {
        "n2d6m2-piz": (2, 6, 2, ("pizzetti",)),
        "n2d8-sv": (2, 8, 1, ("surface", "volume")),
        "n3d4-sv": (3, 4, 1, ("surface", "volume")),
        "n3d5m2-piz": (3, 5, 2, ("pizzetti",)),
        "n3d8-piz": (3, 8, 1, ("pizzetti",)),
        "n4d6m2-piz": (4, 6, 2, ("pizzetti",)),
        "n4d6-svq": (4, 6, 1, ("surface", "volume", "quadrature")),
    }
    classes = (
        ("n2d6m2-piz", 2),
        ("n2d8-sv", 2),
        ("n3d4-sv", 2),
        ("n3d5m2-piz", 2),
        ("n3d8-piz", 5),
        ("n4d6m2-piz", 4),
        ("n4d6-svq", 3),
    )
    warmup_class = "n2d8-sv"
    pool_cycles = 20
    modules = ("kernel", "identities", "integrate")
    RADII = ("1/2", "1", "3")
    KS = (0, 1, 2, 3)
    # report entries per basis element: one per k, per default profile, ...
    ENTRIES = {"surface": 1, "volume": len(KS), "quadrature": 5, "pizzetti": 3}

    def make_class(self, rng, label, keys):
        n, deg, m, ids = self.CONFIGS[label]
        # the report depends only on the configuration, so pins apply to every seed
        return [
            Item(f"{label}:r={r}", label, (n, deg, m, ids, r), {})
            for r in _balanced(rng, self.RADII, len(keys))
        ]

    def run(self, item):
        n, deg, m, ids, r = item.args
        kernel, identities = self.kernel, self.identities
        basis = kernel.graded_basis(kernel.BasisRequest(n=n, max_degree=deg, m=m))
        report = identities.run_suite(
            basis,
            self.integrate.CubeDomain(n, Fraction(r)),
            [getattr(identities.Identity, _IDENTITY_ENUM[i]) for i in ids],
            identities.SuiteConfig(ks=self.KS, m=m),
        )
        return report.to_json()

    def check(self, item, output):
        n, deg, m, ids, r = item.args
        payload = json.loads(output)
        problems = []
        expected = harmonic_dim(n, deg, m) * sum(self.ENTRIES[i] for i in ids)
        if payload["entry_count"] != expected or len(payload["entries"]) != expected:
            problems.append(f"{payload['entry_count']} entries, expected {expected}")
        nonzero = [e for e in payload["entries"] if e["residual"] != ZERO or not e["pass"]]
        if nonzero:
            problems.append(f"{len(nonzero)} nonzero residuals, first {nonzero[0]}")
        if payload["all_pass"] is not True:
            problems.append("all_pass is not true")
        return problems, {"report": sha(output)}


_IDENTITY_ENUM = {
    "surface": "SURFACE_MEAN",
    "volume": "VOLUME_MEAN",
    "quadrature": "WEIGHTED_QUADRATURE",
    "pizzetti": "PIZZETTI",
}


# -- onesided-certify -------------------------------------------------------------


class OnesidedCertify(Workload):
    """certify_best_approx and weighted_l1_error on requests of three kinds.

    h is a seeded combination of harmonic basis elements and f = h + g for a
    constructed gap g = f - h:
      certified  g = c * x_k^(2e) * prod_{i<j} (x_i^2 - x_j^2)^2, c > 0
      heuristic  g = c0 + sum_i c_i x_i^(2 a_i) + b x_1 with |b| < c0, so g > 0
                 but g(0) != 0 rules out the certified factorisation
      failed     g = x_1^2 - 2 + b x_n with |b| <= 2/5, negative at the first
                 grid point (-1, ..., -1), so the grid walk stops there
    """

    name = "onesided-certify"
    # label -> (call, expected kind, n, explicit grid or None for the default)
    CLASSES = {
        "fail-n2": ("certify", "failed", 2, None),
        "fail-n3": ("certify", "failed", 3, None),
        "fail-n4": ("certify", "failed", 4, None),
        "cert-n2": ("certify", "certified", 2, None),
        "wl1-cert-n2": ("wl1", "certified", 2, None),
        "wl1-cert-n3": ("wl1", "certified", 3, None),
        "cert-n3": ("certify", "certified", 3, None),
        "wl1-cert-n4": ("wl1", "certified", 4, None),
        "heur-n2-grid41": ("certify", "heuristic", 2, None),
        "heur-n4-grid7": ("certify", "heuristic", 4, 7),
        "heur-n3-grid21": ("certify", "heuristic", 3, 21),
    }
    classes = (
        ("fail-n2", 1),
        ("fail-n3", 1),
        ("fail-n4", 1),
        ("cert-n2", 2),
        ("wl1-cert-n2", 1),
        ("wl1-cert-n3", 2),
        ("cert-n3", 4),
        ("wl1-cert-n4", 2),
        ("heur-n2-grid41", 2),
        ("heur-n4-grid7", 1),
        ("heur-n3-grid21", 3),
    )
    warmup_class = "cert-n2"
    pool_cycles = 20
    modules = ("onesided", "integrate", "kernel", "poly")

    def load(self):
        super().load()
        self._bases = {}

    def _harmonic(self, rng, n):
        if n not in self._bases:
            basis = self.kernel.graded_basis(self.kernel.BasisRequest(n=n, max_degree=4))
            self._bases[n] = [p for p in basis.elements if p.total_degree >= 2]
        h = self.poly.Poly.zero(n)
        for element in rng.sample(self._bases[n], 3):
            h = h + element.scale(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)))
        return h

    def _gap(self, rng, kind, n):
        Poly = self.poly.Poly
        x = [Poly.variable(n, i) for i in range(1, n + 1)]
        if kind == "certified":
            pairs = Poly.const(n, 1)
            for i in range(n):
                for j in range(i + 1, n):
                    pairs = pairs * (x[i] * x[i] - x[j] * x[j]) ** 2
            k, e = rng.randrange(n), rng.randint(0, 1)
            return (x[k] ** (2 * e)).scale(Fraction(rng.randint(1, 9), rng.randint(1, 4))) * pairs
        if kind == "heuristic":
            c0 = Fraction(rng.randint(2, 9), rng.randint(1, 2))
            g = Poly.const(n, c0) + x[0].scale(c0 * Fraction(rng.randint(-9, 9), 10))
            for i in range(n):
                g = g + (x[i] ** (2 * rng.randint(1, 3))).scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            return g
        g = x[0] * x[0] - Poly.const(n, 2)
        return g + x[n - 1].scale(Fraction(rng.randint(-4, 4), 10))

    def make(self, rng, label, key):
        call, kind, n, extra = self.CLASSES[label]
        d = self.integrate.CubeDomain(n, Fraction(1))
        h = self._harmonic(rng, n)
        f = h + self._gap(rng, kind, n)
        if call == "wl1":
            power = rng.randint(2, 4)
            phi = self.poly.UniPoly.monomial(power, Fraction(1, math.factorial(power)))
            return Item(key, label, (call, f, h, d, phi), {"kind": kind})
        return Item(key, label, (call, f, h, d, extra), {"kind": kind, "grid": extra})

    def run(self, item):
        call, f, h, d, extra = item.args
        if call == "wl1":
            return self.poly.rational_to_text(self.onesided.weighted_l1_error(f, h, d, extra))
        if extra is None:
            return self.onesided.certify_best_approx(f, h, d).to_json()
        return self.onesided.certify_best_approx(f, h, d, grid_points_per_axis=extra).to_json()

    def check(self, item, output):
        problems = []
        if item.args[0] == "wl1":
            if not Fraction(output) > 0:
                problems.append(f"weighted L1 error {output} is not positive")
            return problems, {"report": sha(output)}
        cert = json.loads(output)
        status = cert["onesided"]["status"]
        expected = item.expect["kind"]
        if status != expected:
            problems.append(f"certificate kind {status}, expected {expected}")
        if expected == "certified" and cert["optimality_certified"] is not True:
            problems.append("certified request did not certify optimality")
        grid = item.expect["grid"]
        if expected == "heuristic" and grid is not None:
            if cert["onesided"]["grid_points_per_axis"] != grid:
                problems.append(f"grid {cert['onesided']['grid_points_per_axis']}, asked {grid}")
        if expected == "failed" and not cert["onesided"].get("negative_witness"):
            problems.append("failed certificate has no witness")
        return problems, {"report": sha(output)}


# -- cli-commands -----------------------------------------------------------------


class CliCommands(Workload):
    """One fresh `python -m cubeharm.cli` process per item, all six
    subcommands at small sizes, run one at a time."""

    name = "cli-commands"
    in_subprocess = True
    reference = ("spawn",)
    classes = (
        ("usage-error", 1),
        ("integrate-cube", 1),
        ("integrate-diagonal", 1),
        ("integrate-boundary", 1),
        ("basis-text", 1),
        ("basis-json-out", 1),
        ("verify-json", 1),
        ("verify-csv-out", 1),
        ("approx", 1),
        ("grid-out", 1),
        ("crosscheck", 2),
    )
    warmup_class = "integrate-cube"
    pool_cycles = 12
    modules = ("sampling", "integrate", "poly")
    USAGE_ERRORS = (
        ["verify", "--n", "1"],
        ["basis", "--n", "2"],
        ["integrate", "--n", "2", "--region", "cube", "--poly", "x1^^2"],
        ["verify", "--n", "2", "--identities", "bogus"],
        ["approx", "--n", "2", "--f", "x1", "--h", "0", "--r", "-1"],
    )

    def __init__(self):
        super().__init__()
        self.python = sys.executable
        self.env = os.environ.copy()
        self.spans_path = os.path.join(OUT_DIR, "cli-spans.json")

    def _out(self, name: str) -> str:
        return os.path.join(OUT_DIR, "cli", name)

    def make(self, rng, label, key):
        integrate, poly = self.integrate, self.poly
        expect: dict = {"exit": 0}
        out = None
        if label == "usage-error":
            argv = list(rng.choice(self.USAGE_ERRORS))
            expect = {"exit": 1}
        elif label.startswith("integrate-"):
            region = label.split("-", 1)[1]
            n = rng.choice((2, 3))
            p = self.sampling.random_poly(rng, n, max_degree=6, max_terms=6)
            d = integrate.CubeDomain(n, Fraction(1))
            argv = ["integrate", "--n", str(n), "--region", region, "--poly", poly.poly_to_text(p)]
            if region == "boundary":
                value = integrate.integrate_boundary(p, d)
            else:
                k = rng.randint(0, 2)
                argv += ["--k", str(k)]
                fn = integrate.integrate_cube if region == "cube" else integrate.integrate_diagonal
                value = fn(p, d, integrate.Weight.power(k))
            expect["stdout"] = poly.rational_to_text(value) + "\n"
        elif label == "basis-text":
            deg = rng.randint(3, 5)
            argv = ["basis", "--n", "3", "--deg", str(deg)]
            expect["lines"] = harmonic_dim(3, deg, 1)
        elif label == "basis-json-out":
            deg = rng.randint(4, 8)
            out = self._out("basis.json")
            argv = ["basis", "--n", "2", "--deg", str(deg), "--m", "2", "--format", "json", "--out", out]
            expect["lines"] = harmonic_dim(2, deg, 2)
        elif label == "verify-json":
            deg = rng.randint(4, 6)
            r = rng.choice(("1/2", "1", "3"))
            argv = ["verify", "--n", "2", "--deg", str(deg), "--r", r]
            expect["entries"] = harmonic_dim(2, deg, 1) * 5
        elif label == "verify-csv-out":
            out = self._out("verify.csv")
            argv = ["verify", "--n", "3", "--deg", "4", "--identities", "pizzetti",
                    "--format", "csv", "--out", out]
            expect["entries"] = harmonic_dim(3, 4, 1) * 3
        elif label == "approx":
            f, h = self._certified_pair(rng)
            argv = ["approx", "--n", "2", "--f", poly.poly_to_text(f), "--h", poly.poly_to_text(h)]
            if rng.random() < 0.5:
                argv += ["--phi", "t^2/2"]
            expect["kind"] = "certified"
        elif label == "grid-out":
            f, h = self._certified_pair(rng)
            res = rng.randint(5, 9)
            out = self._out("grid.csv")
            argv = ["grid", "--n", "2", "--f", poly.poly_to_text(f), "--h", poly.poly_to_text(h),
                    "--res", str(res), "--out", out]
            expect["rows"] = res * res
        elif label == "crosscheck":
            argv = ["crosscheck", "--n", "3", "--count", "2", "--deg", "4",
                    "--seed", str(rng.randrange(10**6)), "--tol", str(ORACLE_TOL)]
        else:
            raise ValueError(label)
        return Item(key, label, (argv, out), expect)

    def _certified_pair(self, rng):
        Poly = self.poly.Poly
        x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        h = (x1 * x1 - x2 * x2).scale(a) + (x1 * x2).scale(c)
        return h + ((x1 * x1 - x2 * x2) ** 2).scale(c), h

    def run(self, item):
        argv, out = item.args
        for stale in (out, self.spans_path):
            if stale and os.path.exists(stale):
                os.unlink(stale)
        if self.tracer is None:
            cmd = [self.python, "-m", "cubeharm.cli", *argv]
        else:
            cmd = [self.python, os.path.join("perfbench", "traced_cli.py"), self.spans_path, *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)
        written = None
        if out and os.path.exists(out):
            with open(out, "rb") as fh:
                written = fh.read()
        if self.tracer is not None and os.path.exists(self.spans_path):
            self.tracer.adopt(self.spans_path)
        return proc.returncode, proc.stdout, proc.stderr, written

    def check(self, item, output):
        code, stdout, stderr, written = output
        label, expect = item.kind, item.expect
        problems = []
        if code != expect["exit"]:
            problems.append(f"exit {code}, expected {expect['exit']}: {stderr[-300:]!r}")
            return problems, {"exit": code}
        text = (written if written is not None else stdout).decode()
        if label == "usage-error":
            if stdout or not stderr.startswith(b"error: ") or stderr.count(b"\n") != 1:
                problems.append(f"usage error printed {stderr!r}, not one error line")
        elif label.startswith("integrate-"):
            if text != expect["stdout"]:
                problems.append(f"printed {text!r}, library gives {expect['stdout']!r}")
        elif label.startswith("basis"):
            lines = json.loads(text) if label == "basis-json-out" else text.splitlines()
            if len(lines) != expect["lines"]:
                problems.append(f"{len(lines)} basis elements, expected {expect['lines']}")
        elif label == "verify-json":
            payload = json.loads(text)
            residuals = [e["residual"] for e in payload["entries"]]
            if len(residuals) != expect["entries"] or set(residuals) != {ZERO}:
                problems.append("verify report has missing or nonzero residuals")
        elif label == "verify-csv-out":
            rows = list(csv.DictReader(io.StringIO(text)))
            if len(rows) != expect["entries"] or {r["residual"] for r in rows} != {ZERO}:
                problems.append("verify CSV has missing or nonzero residuals")
        elif label == "approx":
            cert = json.loads(text)
            if cert["onesided"]["status"] != expect["kind"] or not cert["optimality_certified"]:
                problems.append(f"approx status {cert['onesided']['status']}")
        elif label == "grid-out":
            rows = text.splitlines()
            if rows[0] != "x1,x2,f,h,f_minus_h" or len(rows) != expect["rows"] + 1:
                problems.append(f"grid CSV has {len(rows)} lines")
        elif label == "crosscheck":
            if not re.fullmatch(r"\S+\n", text) or not float(text) <= ORACLE_TOL:
                problems.append(f"crosscheck deviation {text!r}")
        if (written is None) != (item.args[1] is None) or (written is not None and stdout):
            problems.append("--out file missing, unexpected, or echoed to stdout")
        digests = {"exit": code, "stdout": sha(stdout), "out": sha(written) if written else None}
        if label == "crosscheck":
            # a float deviation whose last digits legitimately follow the
            # oracle's summation order; gated by --tol and the check above
            digests["stdout"] = None
        return problems, digests


WORKLOADS = {
    w.name: w for w in (OracleCrosscheck, VerifySuite, OnesidedCertify, CliCommands)
}
