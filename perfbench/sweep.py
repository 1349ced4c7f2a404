"""Scaling sweep of sdcalc's timed calls over circuit length c and genus g.

    python3 perfbench/sweep.py

Reported, not gated.  Genus-1 circuits of exactly c curves for c in
C_VALUES, and circuits of 8 curves at each genus in G_VALUES, are grown from
the standard pair by seeded random Hayano surgeries, blow-ups and
stabilizations, drawn from SEED.  Each (call, input) cell runs in its own
process, which is killed when it exceeds BUDGET_S seconds; the cell then
reads "timeout", and the same call is not tried on larger inputs.  The log-log slope of each call's
time against c and against g is fitted over the cells that finished and
reported as `sweep.<module>.<function>.slope_c` / `.slope_g`.  Results go
to perfbench/out/sweep.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

sys.dont_write_bytecode = True

from common import LOOP_NOMINAL_MS, OUT, ROOT, child_env, environment, reference_loop_ms  # noqa: E402

C_VALUES = (10, 30, 100, 300, 1000)
G_VALUES = (1, 2, 3, 5, 8)
G_LENGTH = 8
BUDGET_S = 10.0
SEED = 1
CALLS = ("cli.parse", "circuit.normalize", "circuit.validate", "circuit.switch",
         "subst.detect", "genus1.classify", "handles.linking_matrix",
         "handles.form_invariants", "handles.to_blf", "monodromy.mu_tilde_word",
         "monodromy.mu_tilde_matrix", "monodromy.surgered_action", "monodromy.verdict")
MIN_TIMED_S = 0.2


def grow(seed, genus, length):
    """A closed circuit of exactly `length` curves at `genus`, as a curve list."""
    from sdcalc import circuit, homology, subst
    from workloads import perturbed_dual

    rng = random.Random(seed * 1000 + genus)
    n = 2 * genus
    d = circuit.Circuit((tuple(int(t == 0) for t in range(n)),
                         tuple(int(t == 1) for t in range(n))), True)
    while d.length < length:
        pos = rng.randint(1, d.length)
        op = rng.choice(("hayano", "blowup", "stab")) if d.length + 2 <= length else "blowup"
        if op == "blowup":
            d = subst.apply_blowup(d, pos, rng.choice((1, -1)))
        elif op == "stab":
            d = subst.apply_stabilization(d, pos, rng.randint(-3, 3))
        else:
            cs = d.curves
            x = cs[pos - 1]
            succ = cs[pos] if pos < d.length else homology.scale(d.eps, cs[0])
            w = tuple(rng.randint(-1, 1) for _ in range(n))
            d = subst.hayano_surgery(d, pos, perturbed_dual(x, succ, w), rng.randint(-2, 2))
    return [list(v) for v in d.curves]


def run_cell(call, path):
    """Time one call on the circuit stored at path; prints the median ms, scaled
    to the uncontended speed like the workloads' in-process items."""
    from sdcalc import circuit, cli, genus1, handles, monodromy, subst

    with open(path, encoding="utf-8") as fh:
        curves = [tuple(v) for v in json.load(fh)]
    circ = circuit.normalize(curves, True)
    if call == "cli.parse":
        args = (cli.emit_sd(circuit.Diagram(circ)),)
    elif call == "circuit.normalize":
        args = (curves, True)
    elif call == "circuit.switch":
        args = (circ, 1)
    elif call == "handles.form_invariants":
        args = (handles.linking_matrix(circ),)
    else:
        args = (circ,)
    module, name = call.split(".")
    fn = getattr({"cli": cli, "circuit": circuit, "subst": subst, "genus1": genus1,
                  "handles": handles, "monodromy": monodromy}[module], name)
    ref = statistics.median(reference_loop_ms() for _ in range(5))
    times = []
    while sum(times) < MIN_TIMED_S and len(times) < 20:
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    print(json.dumps(statistics.median(times) * 1000 * LOOP_NOMINAL_MS / ref))


def slope(points):
    """Least-squares slope of log(ms) against log(x), or None below two points."""
    pts = [(math.log(x), math.log(ms)) for x, ms in points if isinstance(ms, float) and ms > 0]
    if len(pts) < 2:
        return None
    mx = statistics.mean(p[0] for p in pts)
    my = statistics.mean(p[1] for p in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def sweep(axis, values, inputs):
    """{call: [(value, ms or "timeout")]} over one axis."""
    env = child_env()
    cells = {}
    for call in CALLS:
        if call == "genus1.classify" and axis == "g":
            continue  # the classifier is genus 1 only
        row = cells[call] = []
        for v in values:
            if row and row[-1][1] == "timeout":
                row.append((v, "timeout"))
                continue
            cmd = [sys.executable, os.path.abspath(__file__), "--cell", call, inputs[v]]
            try:
                proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                      timeout=BUDGET_S, check=True)
                row.append((v, float(proc.stdout)))
            except subprocess.TimeoutExpired:
                row.append((v, "timeout"))
            print("%-28s %s=%-5d %s" % (call, axis, v, row[-1][1]), flush=True)
    return cells


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cell", nargs=2, metavar=("CALL", "INPUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.cell:
        run_cell(*args.cell)
        return 0

    indir = os.path.join(OUT, "sweep-inputs")
    os.makedirs(indir, exist_ok=True)
    inputs = {"c": {}, "g": {}}
    for axis, values in (("c", C_VALUES), ("g", G_VALUES)):
        for v in values:
            genus, length = (1, v) if axis == "c" else (v, G_LENGTH)
            path = os.path.join(indir, "%s%d.json" % (axis, v))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(grow(SEED, genus, length), fh)
            inputs[axis][v] = path
    report = {"env": environment(), "budget_s": BUDGET_S, "seed": SEED,
              "cells": {}, "slopes": {}}
    for axis, values in (("c", C_VALUES), ("g", G_VALUES)):
        cells = sweep(axis, values, inputs[axis])
        report["cells"][axis] = cells
        for call, row in cells.items():
            s = slope(row)
            report["slopes"]["sweep.%s.slope_%s" % (call, axis)] = s
    with open(os.path.join(OUT, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for name, s in sorted(report["slopes"].items()):
        print("%-48s %s" % (name, "n/a" if s is None else "%.2f" % s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
