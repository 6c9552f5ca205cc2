"""Runs one workload in a fresh interpreter and prints one JSON line.

Modes:
  probe  import, build the warm-up item, run and check it, exit (set-up time)
  run    build all inputs, run the warm-up item, then a closed loop with one
         client for --seconds, ending on a whole cycle and after at least
         --min-items items, timing the workload's reference loops before
         and after every item; with --trace 1 the time is split between an
         untraced and a traced loop
  pin    run every item of the default seed's pool once and print its digests
  env    print the versions and settings that decide the code path

run.py starts this file with PYTHONPATH set to the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from reference import reference_s  # noqa: E402
from workloads import DEFAULT_SEED, OUT_DIR, WORKLOADS, Workload  # noqa: E402


def attempt(wl: Workload, item, pins: dict) -> tuple[float, list[str]]:
    """Run one item; return its duration and the gate problems (empty if it passed)."""
    start = perf_counter()
    try:
        output = wl.run(item)
    except Exception as exc:  # an item that raises counts as failed; the loop goes on
        return perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    duration = perf_counter() - start
    try:
        problems, digests = wl.check(item, output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems, digests = [f"unreadable output: {exc!r}"], {}
    pinned = pins.get(item.key)
    if pinned is not None:
        for field, digest in pinned.items():
            if digest is not None and digests.get(field) != digest:
                problems.append(f"{field} differs from the pinned digest")
    return duration, problems


def closed_loop(wl, cycles, pins, seconds: float, min_items: int) -> dict:
    times: list[float] = []
    labels: list[str] = []
    failures: list[str] = []
    reference_s(wl.reference)  # first use builds the loops' inputs
    begin = perf_counter()
    refs = [reference_s(wl.reference)]  # the reference loops before and after every item
    done_cycles = 0
    while True:
        for item in cycles[done_cycles % len(cycles)]:
            duration, problems = attempt(wl, item, pins)
            refs.append(reference_s(wl.reference))
            times.append(duration)
            labels.append(item.kind)
            if problems:
                failures.append(f"{item.key} ({item.kind}): {'; '.join(problems)}")
        done_cycles += 1
        if perf_counter() - begin >= seconds and len(times) >= min_items:
            break
    return {
        "times": times,
        "refs": refs,
        "labels": labels,
        "failed": len(failures),
        "failures": failures[:10],
        "cycles": done_cycles,
        "wrapped": done_cycles > len(cycles),
    }


def load_pins(name: str) -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
    with open(path) as fh:
        return json.load(fh)["workloads"].get(name, {})


def check_checkout(root: str) -> None:
    import cubeharm

    src = os.path.join(root, "src", "cubeharm")
    if os.path.dirname(os.path.abspath(cubeharm.__file__)) != src:
        raise SystemExit(f"cubeharm was imported from {cubeharm.__file__}, not {src}")


def env_info() -> dict:
    import importlib.util

    import numpy

    try:
        from cubeharm._kernels import active_backend
    except ImportError:  # a later refactor may fold the kernels into the oracle
        backend = None
    else:
        backend = active_backend()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": backend,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "run", "pin", "env"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-items", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if args.mode == "env":
        check_checkout(root)
        print(json.dumps(env_info()))
        return 0

    wl = WORKLOADS[args.workload]()
    started = perf_counter()
    wl.load()
    import_s = perf_counter() - started
    check_checkout(root)
    os.makedirs(os.path.join(OUT_DIR, "cli"), exist_ok=True)

    if args.mode == "probe":
        item_s, problems = attempt(wl, wl.warmup_item(args.seed), load_pins(wl.name))
        print(json.dumps({"item_s": item_s, "problems": problems}))
        return 0

    warmup, cycles = wl.pool(DEFAULT_SEED if args.mode == "pin" else args.seed)
    if args.mode == "pin":
        digests = {}
        for item in [warmup] + [item for cycle in cycles for item in cycle]:
            problems, digests[item.key] = wl.check(item, wl.run(item))
            if problems:
                raise SystemExit(f"{item.key}: {problems}")
        print(json.dumps(digests))
        return 0

    pins = load_pins(wl.name)
    _, warm_problems = attempt(wl, warmup, pins)
    result: dict = {"import_s": import_s, "warmup_problems": warm_problems}
    if not args.trace:
        result["loop"] = closed_loop(wl, cycles, pins, args.seconds, args.min_items)
        who = resource.RUSAGE_CHILDREN if wl.in_subprocess else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        print(json.dumps(result))
        return 0

    result["untraced"] = closed_loop(wl, cycles, pins, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    if wl.in_subprocess:
        wl.tracer = tracer  # each CLI process traces itself; spans are adopted
    else:
        tracing.install(tracer)
    traced = closed_loop(wl, cycles, pins, args.seconds / 2, 1)
    result["traced"] = traced
    metrics, unmeasured = tracing.layer_metrics(tracer, len(traced["times"]))
    result["layers"] = metrics
    result["unmeasured"] = unmeasured
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json")
    tracer.dump(spans_path)
    result["spans_path"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
