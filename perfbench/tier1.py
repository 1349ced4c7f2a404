"""Wall time of the Tier-1 test suite and its five slowest tests (informational).

    python3 perfbench/tier1.py

Runs the roadmap's Tier-1 command with pytest's --durations=5 and the cache
plugin off, prints the pass count, wall time and slowest tests, and writes
them with the environment to perfbench/out/tier1.json.  This is a report,
not a workload: it takes about 40 s and nothing gates on it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from time import perf_counter

sys.dont_write_bytecode = True

from common import OUT, ROOT, child_env, environment  # noqa: E402

DURATION = re.compile(r"^\s*([0-9.]+)s\s+(call|setup|teardown)\s+(\S+)")


def main():
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=5", "-p", "no:cacheprovider"]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    wall = perf_counter() - start
    lines = proc.stdout.splitlines()
    slowest = [{"s": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
               for m in map(DURATION.match, lines) if m]
    report = {"env": environment(), "command": cmd[1:], "exit_code": proc.returncode,
              "wall_s": wall, "summary": lines[-1] if lines else "", "slowest": slowest[:5]}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "tier1.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print("tier-1: %s (exit %d, wall %.1f s)" % (report["summary"], proc.returncode, wall))
    for t in report["slowest"]:
        print("  %7.2f s  %-8s %s" % (t["s"], t["phase"], t["test"]))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
