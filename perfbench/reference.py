"""Fixed loops that gauge how fast the core runs right now.

On a shared host one core's speed changes from second to second, as other
tenants load its sibling hyperthread; over a 20 s run it can differ by
half again from the run before.  The benchmark times a workload's
reference loops before and after every item and scales the item's wall
time by their quiet time over the mean of the two, which gives the item's
time at the quiet speed of the reference machine.  The loops are the
benchmark's own code and call no cubeharm, so a change to cubeharm moves
the scaled times and leaves the loops alone.

Contention slows kinds of work by different factors, so each workload
names the loops that do its kind of work:
  fractions  Fraction sums on growing integers in the interpreter, like the
             exact engine and the one-sided grid
  numpy      numpy's general power and products over array columns, like
             the oracle's term evaluation
  spawn      start and wait for a bare interpreter, like the start-up of a
             CLI process or a set-up probe
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# each loop's time on a quiet core of the reference machine (shared 2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6): the fastest of several
# hundred runs
QUIET_S = {"fractions": 0.95e-3, "numpy": 1.3e-3, "spawn": 10e-3}
_columns = None


def _fractions() -> None:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)


def _numpy() -> None:
    global _columns
    if _columns is None:
        import numpy

        _columns = numpy.linspace(-1.0, 1.0, 4 * 16384).reshape(-1, 4)
    values = _columns[:, 1] ** 3
    values *= _columns[:, 2] ** 2
    values += _columns[:, 0]


def _spawn() -> None:
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


LOOPS = {"fractions": _fractions, "numpy": _numpy, "spawn": _spawn}


def reference_s(loops: tuple[str, ...]) -> float:
    """Wall time of one run of each of the named loops, summed."""
    start = perf_counter()
    for name in loops:
        LOOPS[name]()
    return perf_counter() - start


def scaled(times: list[float], refs: list[float], loops: tuple[str, ...]) -> list[float]:
    """Each time at the reference speed; refs[i] and refs[i + 1] are the
    loops' times just before and just after times[i]."""
    quiet = 2 * sum(QUIET_S[name] for name in loops)
    return [t * quiet / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def slowdown(refs: list[float], loops: tuple[str, ...]) -> float:
    """How many times slower than quiet the loops ran, as a median."""
    return statistics.median(refs) / sum(QUIET_S[name] for name in loops)
