"""One benchmark process: build a workload's inputs, then run its timed phases.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --t0 T
                                [--trace] [--min-items M] [--setup-only]

`run.py` starts this with src/ on PYTHONPATH and passes as T the wall-clock
time at which it started the process, so the set-up time printed here runs
from process start to the end of building the workload's inputs; the
workload's warm-up items, if it has any, run after it.  The last line
printed is one JSON object with the phase results.

A phase runs items one at a time, cycling over the workload's distinct
items, until S seconds have passed and at least M items were attempted.
With --trace the untraced phase is followed by a traced phase over the
same items; spans are written to perfbench/out when it ends and summarised
into per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from time import perf_counter

sys.dont_write_bytecode = True

from common import OUT, ROOT, SRC  # noqa: E402
import workloads  # noqa: E402
from workloads import CALLS, COUNTS, LAYERS, PEAKS, Trace  # noqa: E402


def build(name, seed, trace, tmpdir):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, trace, ROOT, tmpdir)
    return cls(seed, trace)


def phase(wl, trace, seconds, min_items=100):
    """Run items one at a time until `seconds` have passed and `min_items` were attempted.

    Before each item the workload's reference is timed (see common.py); the
    item's time scaled to the reference's uncontended speed is kept next to
    its raw time.
    """
    wl.trace = trace
    wl.reset()
    raw_ms = []
    scaled_ms = []
    ref = []
    failed = 0
    problems = []
    start = perf_counter()
    i = 0
    while i < min_items or perf_counter() - start < seconds:
        r = wl.reference()
        if trace.on:
            trace.open_item(i)
        t0 = perf_counter()
        try:
            out = wl.compute(i)
            bad = None
        except Exception as exc:  # an item that raises is a failed item
            bad = ["item %d raised %r" % (i, exc)]
        t1 = perf_counter()
        if trace.on:
            trace.close_item(t0, t1)
            if bad is None:
                try:
                    wl.extra_calls(out)  # spans of their own, outside the item's
                except Exception as exc:
                    bad = ["extra calls of item %d raised %r" % (i, exc)]
        if bad is None:
            c0 = perf_counter()
            try:
                bad = wl.check(out)
            except Exception as exc:  # so is one whose output breaks the check
                bad = ["check of item %d raised %r" % (i, exc)]
            if trace.on:
                trace.span("bench.check", c0, perf_counter())
        ms = (t1 - t0) * 1000
        raw_ms.append(ms)
        scaled_ms.append(ms * wl.ref_nominal_ms / r)
        ref.append(r)
        if bad:
            failed += 1
            problems.append(bad[0])
        i += 1
    elapsed = perf_counter() - start
    return {"attempted": i, "failed": failed, "raw_ms": raw_ms, "scaled_ms": scaled_ms,
            "ref_ms": ref, "pool_cycles": i / wl.size, "elapsed_s": elapsed,
            "items_per_s": 1000 * (i - failed) / sum(scaled_ms),
            "raw_items_per_s": 1000 * (i - failed) / sum(raw_ms),
            "wall_items_per_s": (i - failed) / elapsed, "problems": problems[:5]}


def warm_up(wl):
    """Run and check the workload's first `warm_items` items, untimed.

    It runs after set-up time is taken; a failed warm-up item fails the run.
    """
    wl.trace = Trace(False)
    for i in range(wl.warm_items):
        bad = wl.check(wl.compute(i))
        if bad:
            sys.exit("warm-up item %d failed: %s" % (i, bad[0]))


def layer_metrics(trace):
    """Calls, busy and self time per span name, module shares and counts."""
    calls = Counter()
    busy = Counter()
    covered = Counter()
    for name, start, end, parent, _item in trace.spans:
        calls[name] += 1
        busy[name] += end - start
        if parent is not None:
            covered[parent] += end - start
    item_self = sum(end - start - covered[k] for k, (name, start, end, _p, _i)
                    in enumerate(trace.spans) if name == "item")
    out = {}
    for name in CALLS:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".busy_ms"] = (busy[name] * 1000, "ms")
    items_s = busy["item"]
    for module, names in LAYERS.items():
        # set-up calls (circuit.generate) and the cli replay belong to no item
        in_items = sum(end - start for name, start, end, parent, _i in trace.spans
                       if name in names and parent is not None)
        out[module + ".share"] = (in_items / items_s if items_s else 0.0, "ratio")
    out["item.calls"] = (calls["item"], "count")
    out["item.busy_ms"] = (items_s * 1000, "ms")
    out["item.self_ms"] = (item_self * 1000, "ms")
    out["bench.check.busy_ms"] = (busy["bench.check"] * 1000, "ms")
    invoke = [end - start for name, start, end, _p, _i in trace.spans if name == "cli.invoke"]
    out["cli.invoke.p50_ms"] = (statistics.median(invoke) * 1000 if invoke else 0.0, "ms")
    for name in COUNTS + PEAKS:
        out[name] = (trace.counts[name], "bits" if name.endswith("bits") else "count")
    out["trace.spans"] = (len(trace.spans), "count")
    return out


def write_spans(trace, path):
    origin = min((s[1] for s in trace.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "item"],
                   "spans": [[n, round(s - origin, 7), round(e - origin, 7), p, i]
                             for n, s, e, p, i in trace.spans]}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--min-items", type=int, default=100)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import sdcalc
    if os.path.dirname(os.path.abspath(sdcalc.__file__)) != SRC:
        sys.exit("sdcalc was imported from %s, not from this checkout" % sdcalc.__file__)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmpdir:
        setup_trace = Trace(args.trace)
        wl = build(args.workload, args.seed, setup_trace, tmpdir)
        result = {"setup_s": time.time() - args.t0}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        warm_up(wl)
        result.update(phase(wl, Trace(False), args.seconds, args.min_items))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["maxrss_kb"] = resource.getrusage(who).ru_maxrss
        if args.trace:
            traced = phase(wl, setup_trace, args.seconds, args.min_items)
            layers = layer_metrics(setup_trace)
            layers["trace.overhead"] = (1 - traced["items_per_s"] / result["items_per_s"],
                                        "ratio")
            result["layers"] = layers
            result["traced"] = {k: traced[k] for k in ("attempted", "failed", "problems")}
            path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
            write_spans(setup_trace, path)
            result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
