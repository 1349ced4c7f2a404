"""The sdcalc benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from anywhere; it imports sdcalc from the src/ next to this
directory.  Each run starts fresh worker processes (perfbench/worker.py):
a few that only build the workload's inputs, to measure set-up time, and
one that builds them again and then runs the items, one at a time, for S
seconds.  A single client in a closed loop suits the two-core machine the
benchmark was written on.  Times are scaled to the uncontended speed of a
reference timed next to them (see common.py); the raw times are printed and
recorded too.

With --trace 0 the last line is the end-to-end metrics; with --trace 1 the
worker runs the same items a second time with tracing on, and the last line
is the per-layer metrics, including the tracing overhead.  Every run also
prints one summary row and writes its full result, with the environment
and the sample counts, to perfbench/out/.  Any failed item makes the exit
code 1.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

from common import (INTERP_NOMINAL_MS, OUT, ROOT, SRC, child_env, environment,  # noqa: E402
                    interpreter_ms, percentile, reference_interp_ms, src_lines)

WORKLOADS = ("corpus_g1", "long_g1", "edit_hg", "cli")
SETUP_RUNS = 5
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def start_worker(workload, seed, seconds, trace, min_items, setup_only):
    """Run one worker process and return its result, or raise RuntimeError."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if min_items is not None:
        cmd += ["--min-items", str(min_items)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    # two phases with tracing, plus set-up and slack for slow items
    timeout = 30 + seconds * (2 if trace else 1) * 2
    # its own process group, so that a hung worker goes together with its children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("%s worker did not finish within %d s" % (workload, timeout))
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited with %d" % (workload, proc.returncode))
    return json.loads(out.splitlines()[-1])


def timed_setup(workload, seed, seconds, trace, min_items, setup_only):
    """start_worker, with a bare interpreter start timed before it to scale its set-up."""
    ref = reference_interp_ms()
    res = start_worker(workload, seed, seconds, trace, min_items, setup_only)
    res["setup_ref_ms"] = ref
    return res


def measure(workload, seed, seconds, trace, min_items=None, setup_runs=SETUP_RUNS):
    """Set-up samples plus one measured worker; returns the full result record.

    Times are scaled to the uncontended speed of a reference (see
    common.py); the raw ones are kept in the record under "raw".
    """
    runs = [timed_setup(workload, seed, seconds, False, min_items, True)
            for _ in range(setup_runs - 1)]
    res = timed_setup(workload, seed, seconds, trace, min_items, False)
    runs.append(res)
    setups = [r["setup_s"] for r in runs]
    scaled_setups = [r["setup_s"] * INTERP_NOMINAL_MS / r["setup_ref_ms"] for r in runs]
    scaled, raw = res["scaled_ms"], res["raw_ms"]
    end_to_end = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "items_per_s": (res["items_per_s"], "1/s"),
        "item_ms.p50": (statistics.median(scaled), "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MB"),
    }
    n = len(scaled)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        # reported with its sample count, not gated: on long_g1 its spread
        # between seeds is twice that of the median
        "item_ms.p90": percentile(scaled, 90),
        "samples": {"setup_s": len(setups), "item_ms": n,
                    "item_ms.p90_above": n - math.ceil(0.9 * n),
                    "pool_cycles": res["pool_cycles"]},
        "raw": {"setup_s": statistics.median(setups), "items_per_s": res["raw_items_per_s"],
                "wall_items_per_s": res["wall_items_per_s"],
                "item_ms.p50": statistics.median(raw), "item_ms.p90": percentile(raw, 90),
                "ref_ms.p50": statistics.median(res["ref_ms"])},
        "setup_s_samples": setups, "elapsed_s": res["elapsed_s"],
        "problems": res["problems"], "end_to_end": end_to_end,
    }
    if trace:
        layers = dict(res["layers"])
        lines, cli_lines = src_lines()
        layers["src.lines"] = (lines, "lines")
        layers["src.cli_lines"] = (cli_lines, "lines")
        env = child_env()
        interp = interpreter_ms("pass", 7, env)
        layers["cli.interp_ms.p50"] = (interp, "ms")
        layers["cli.import_ms.p50"] = (interpreter_ms("import sdcalc.cli", 7, env) - interp, "ms")
        invoke = layers["cli.invoke.p50_ms"][0]
        start_up = layers["cli.interp_ms.p50"][0] + layers["cli.import_ms.p50"][0]
        layers["cli.startup_share"] = (start_up / invoke if invoke else 0.0, "ratio")
        record["per_layer"] = layers
        record["traced"] = res["traced"]
        record["trace_file"] = res["trace_file"]
        record["failed"] += res["traced"]["failed"]
        record["problems"] += res["traced"]["problems"]
    return record


def summary_row(r):
    e = r["end_to_end"]
    s = r["samples"]
    raw = r["raw"]
    row = ("%-9s seed=%d items=%d items_per_s=%.2f/s item_ms.p50=%.3fms (n=%d) "
           "item_ms.p90=%.3fms (n=%d, %d above) fail_ratio=%.4f (%d/%d) "
           "setup_s=%.4fs (n=%d) peak_rss_mb=%.1fMB | raw: items_per_s=%.2f/s "
           "item_ms.p50=%.3fms setup_s=%.4fs ref_ms.p50=%.3f"
           % (r["workload"], r["seed"], r["attempted"], e["items_per_s"][0],
              e["item_ms.p50"][0], s["item_ms"], r["item_ms.p90"], s["item_ms"],
              s["item_ms.p90_above"], r["fail_ratio"], r["failed"], r["attempted"],
              e["setup_s"][0], s["setup_s"], e["peak_rss_mb"][0], raw["items_per_s"],
              raw["item_ms.p50"], raw["setup_s"], raw["ref_ms.p50"]))
    if r["trace"]:
        p = r["per_layer"]
        shares = " ".join("%s=%.3f" % (k, v) for k, (v, _u) in sorted(p.items())
                          if k.endswith(".share") and v)
        row += " | traced: %s overhead=%.3f" % (shares, p["trace.overhead"][0])
    return row


def final_line(r):
    metrics = r["per_layer"] if r["trace"] else r["end_to_end"]
    return {"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print("perfbench: no sdcalc sources at %s" % SRC, file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            r = measure(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 2
        r["env"] = env
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(r, fh, indent=1, sort_keys=True)
        for problem in r["problems"]:
            print("FAILED %s: %s" % (name, problem), file=sys.stderr)
        print(summary_row(r))
        records.append(r)
    if len(records) == 1:
        print(json.dumps(final_line(records[0])))
    else:
        print(json.dumps({r["workload"]: final_line(r) for r in records}))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
