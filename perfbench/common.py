"""Helpers shared by the benchmark's scripts; imports nothing from sdcalc."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src", "sdcalc")


# The references' times, in ms, on the machine the benchmark was written on
# (2 vCPUs, Python 3.11.7) when its cores were not contended.
LOOP_NOMINAL_MS = 0.65
INTERP_NOMINAL_MS = 45.0


def reference_loop():
    """A fixed piece of pure-Python work, the reference for in-process items.

    The machine the benchmark was written on shares its cores with other
    tenants: for stretches of seconds to minutes the same code runs up to
    40 % slower.  Timed right before each item, this loop slows by the
    same factor as sdcalc does, so an item's time is scaled by
    LOOP_NOMINAL_MS / (the loop's time) to the uncontended speed.
    """
    x = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    s = 0
    for i in range(400):
        s += sum(tuple(a * i + b for a, b in zip(x, x[1:] + x[:1])))
    return s


def reference_loop_ms():
    start = perf_counter()
    reference_loop()
    return (perf_counter() - start) * 1000


def reference_interp_ms(env=None):
    """Wall time of one bare interpreter start, the reference for a child process.

    Process start slows less under contention than the loop does, and by
    the same factor as a `python -m sdcalc.cli` child (their ratio moved by
    3 % while the loop's time moved by 66 %), so CLI items and set-up times
    are scaled by INTERP_NOMINAL_MS / (this time).
    """
    return interpreter_ms("pass", 1, env or child_env())


def child_env(root=ROOT):
    """Environment for a child interpreter that imports sdcalc from src/.

    Bytecode writing is off, as in the roadmap's measurements, so every child
    compiles the package afresh and nothing is left behind in src/.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("SDCALC_COLOR", None)
    return env


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def interpreter_ms(code, runs, env):
    """Median wall time, in ms, of `python -c code` in a fresh interpreter."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times)


def src_lines():
    """(lines of src/sdcalc/*.py, lines of cli.py), the counts the roadmap tracks."""
    total = cli = 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                n = sum(1 for _ in fh)
            total += n
            if name == "cli.py":
                cli = n
    return total, cli


def environment(runs=5):
    """What a result depends on besides the code: interpreter, cores, bytecode, load."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        # the caller's setting; every child of the benchmark gets 1
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "interp_ms.p50": interpreter_ms("pass", runs, child_env()),
        "interp_runs": runs,
        "loadavg": os.getloadavg(),
    }
