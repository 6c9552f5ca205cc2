"""cubeharm benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --pin      # re-pin output digests for the default seed

Run from the root of a checkout; the program is imported from its src/.
Prints every metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  Exits 1 when
any output misses its gate, 2 when there is no checkout to run.

--trace 0 reports the end-to-end metrics: set-up time from fresh
interpreters, then a timed closed loop with one client in a separate
process, every time scaled to the reference machine's quiet speed by
reference loops timed next to it on the same core (reference.py).
--trace 1 reports the per-layer metrics from spans around calls into each
module, plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import reference_s, scaled, slowdown  # noqa: E402
from workloads import DEFAULT_SEED, OUT_DIR, WORKLOADS  # noqa: E402

# Settings that switch cubeharm's code path; cleared for every child process.
CLEARED = ("CUBEHARM_THREADS", "CUBEHARM_DISABLE_NUMBA")
SETUP_PROBES = 7
SETUP_REFERENCE = ("spawn",)  # each probe is mostly interpreter start-up
MIN_ITEMS = 100  # so that at least 10 items lie beyond the 90th percentile
DEADLINE_S = 170  # the whole command must end within 180 s


class ChildError(Exception):
    pass


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], env: dict, timeout: float | None) -> dict:
    """Run worker.py to completion and return its last output line as JSON."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args], stdout=subprocess.PIPE, env=env
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"worker {args} did not finish within {timeout:.0f} s")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def pin(env: dict) -> int:
    digests = {}
    for name in WORKLOADS:
        print(f"pinning {name}", file=sys.stderr)
        digests[name] = run_worker(["--mode", "pin", "--workload", name], env, None)
    with open(os.path.join(HERE, "pinned.json"), "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def setup_times(name: str, seed: int, env: dict) -> tuple[list[float], int]:
    """Set-up time of SETUP_PROBES fresh interpreters, and how many failed.

    In-process workloads: the wall time of a process that imports the
    workload's modules and finishes one warm-up item.  cli-commands: the
    time of one CLI process, since every CLI item pays its own start-up.
    Scaled to the reference speed by spawn loops run here just before and
    after each probe, on every workload, since each probe is mostly
    interpreter start-up and imports.
    """
    times, refs, failed = [], [reference_s(SETUP_REFERENCE)], 0
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        probe = run_worker(["--mode", "probe", "--workload", name, "--seed", str(seed)], env, 60)
        wall = perf_counter() - start
        refs.append(reference_s(SETUP_REFERENCE))
        times.append(probe["item_s"] if WORKLOADS[name].in_subprocess else wall)
        if probe["problems"]:
            failed += 1
            print(f"setup probe failed: {probe['problems']}", file=sys.stderr)
    return scaled(times, refs, SETUP_REFERENCE), failed


def loop_counts(loop: dict) -> tuple[int, int]:
    return len(loop["times"]), loop["failed"]


def item_times(name: str, loop: dict) -> list[float]:
    """The item times the metrics use: wall times at the reference speed."""
    return scaled(loop["times"], loop["refs"], WORKLOADS[name].reference)


def items_per_s(name: str, loop: dict) -> float:
    """Throughput of the workload's fixed mix: items in one cycle over the
    cycle's time, taking each class's median item time in the run.  Medians
    keep a burst of load from the machine's other tenants, which slows a few
    items by half again, from moving the figure."""
    by_class: dict[str, list[float]] = {}
    for label, t in zip(loop["labels"], item_times(name, loop)):
        by_class.setdefault(label, []).append(t)
    classes = WORKLOADS[name].classes
    cycle_s = sum(count * statistics.median(by_class[label]) for label, count in classes)
    return sum(count for _, count in classes) / cycle_s


def describe(name: str, seed: int, loop: dict) -> str:
    per_cycle = sum(count for _, count in WORKLOADS[name].classes)
    wrapped = ", input pool reused" if loop["wrapped"] else ""
    loops = WORKLOADS[name].reference
    return (
        f"{name} seed {seed}: {len(loop['times'])} items in {loop['cycles']} whole cycles "
        f"of {per_cycle}, closed loop, 1 client{wrapped}; times at reference speed, "
        f"the {'+'.join(loops)} loops ran {slowdown(loop['refs'], loops):.2f}x slower than quiet"
    )


def end_to_end(name: str, seed: int, seconds: float, env: dict, started: float):
    probes, probe_failed = setup_times(name, seed, env)
    budget = DEADLINE_S - (perf_counter() - started)
    res = run_worker(
        ["--mode", "run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--min-items", str(MIN_ITEMS), "--trace", "0"],
        env,
        budget,
    )
    loop = res["loop"]
    times = item_times(name, loop)
    wall = loop["times"]
    items, failed = loop_counts(loop)
    attempted = SETUP_PROBES + 1 + items
    failed += probe_failed + bool(res["warmup_problems"])
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(1 for t in times if t > p90)
    wall_p90 = statistics.quantiles(wall, n=10)[8]
    metrics = {
        "items_per_s": (
            items_per_s(name, loop),
            "1/s",
            f"from class medians; wall: {items} items / {sum(wall):.3f} s busy",
        ),
        "item_p50_ms": (
            statistics.median(times) * 1e3,
            "ms",
            f"n={items}; wall: {statistics.median(wall) * 1e3:.1f} ms",
        ),
        "item_p90_ms": (
            p90 * 1e3,
            "ms",
            f"n={items}, {beyond} beyond; wall: {wall_p90 * 1e3:.1f} ms",
        ),
        "setup_s": (
            statistics.median(probes),
            "s",
            f"median of {SETUP_PROBES} fresh interpreters: "
            + " ".join(f"{t:.3f}" for t in probes),
        ),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB", "ru_maxrss of the process running items"),
        "failed_ratio": (failed / attempted, "ratio", f"{failed}/{attempted}"),
    }
    return describe(name, seed, loop), metrics, attempted, failed, loop["failures"], loop


def layered(name: str, seed: int, seconds: float, env: dict, started: float):
    budget = DEADLINE_S - (perf_counter() - started)
    res = run_worker(
        ["--mode", "run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"],
        env,
        budget,
    )
    untraced, traced = res["untraced"], res["traced"]
    u_items, u_failed = loop_counts(untraced)
    t_items, t_failed = loop_counts(traced)
    u_ips, t_ips = items_per_s(name, untraced), items_per_s(name, traced)
    metrics = {k: (v, unit, "per traced item" if "/item" in unit else "") for k, (v, unit) in res["layers"].items()}
    metrics["import.package_s"] = (res["import_s"], "s", "import of the workload's cubeharm modules")
    metrics["trace.items_per_s"] = (t_ips, "1/s", f"{t_items} traced items")
    metrics["trace.untraced_items_per_s"] = (u_ips, "1/s", f"{u_items} untraced items")
    metrics["trace.overhead_ratio"] = (u_ips / t_ips, "ratio", "untraced / traced items_per_s")
    attempted = 1 + u_items + t_items
    failed = u_failed + t_failed + bool(res["warmup_problems"])
    notes = [f"spans written to {res['spans_path']}"]
    if res["unmeasured"]:
        notes.append("not measured (public name missing): " + ", ".join(res["unmeasured"]))
    return (
        describe(name, seed, traced) + "; " + "; ".join(notes),
        metrics,
        attempted,
        failed,
        untraced["failures"] + traced["failures"],
        traced,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="re-pin output digests and exit")
    args = ap.parse_args()
    started = perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cubeharm", "__init__.py")):
        print(f"error: {root} holds no src/cubeharm to benchmark", file=sys.stderr)
        return 2
    env = child_env(root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    # One core for this process and every process it starts, so that the
    # reference loops gauge the core the items run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.pin:
        return pin(env)
    if args.workload is None:
        ap.error("--workload is required")

    try:
        environment = run_worker(["--mode", "env"], env, 60)
        environment["cleared"] = {k: os.environ.get(k) for k in CLEARED}
        environment["cpus"] = sorted(os.sched_getaffinity(0))
        measure = layered if args.trace else end_to_end
        summary, metrics, attempted, failed, failures, loop = measure(
            args.workload, args.seed, args.seconds, env, started
        )
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment, sort_keys=True))
    print(summary)
    for metric, (value, unit, note) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for failure in failures:
        print(f"  FAILED {failure}")
    reported = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items() if k != "failed_ratio"}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment, "summary": summary,
              "metrics": reported, "attempted": attempted, "failed": failed,
              "failures": failures, "item_s": loop["times"], "item_ref_s": loop["refs"],
              "item_class": loop["labels"]}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
