"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They run every workload at a tiny size, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import sweep  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Trace  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def workdir():
    """A temporary directory inside perfbench/out, so that tests write only there."""
    os.makedirs(run.OUT, exist_ok=True)
    path = tempfile.mkdtemp(dir=run.OUT, prefix="test-")
    yield path
    shutil.rmtree(path)


def tiny(name, seed=1, trace=False):
    return run.measure(name, seed, 0.2, trace, min_items=3, setup_runs=2)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_reports_every_metric(name):
    r = tiny(name, trace=True)
    assert r["failed"] == 0, r["problems"]
    assert set(r["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(r["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for value, _unit in list(r["end_to_end"].values()) + list(r["per_layer"].values()):
        assert isinstance(value, (int, float))
    assert {k: u for k, (_v, u) in r["end_to_end"].items()} == {
        k: units[k] for k in r["end_to_end"]}
    line = run.final_line(r)
    assert line["correct"] and set(line) == {"correct", "attempted", "failed", "metrics"}


def test_spec_names_the_workloads_run_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name, plant", [
    ("corpus_g1", ("expected_forms", lambda l, m, n: {(l + 2, 0, 0)})),
    ("edit_hg", ("is_symplectic", lambda m: False)),
    ("edit_hg", ("same_curve", lambda x, y: False)),
])
def test_wrong_reference_makes_items_fail(monkeypatch, name, plant):
    monkeypatch.setattr(workloads, *plant)
    wl = workloads.WORKLOADS[name](1, Trace(False))
    res = worker.phase(wl, Trace(False), 0, 6)
    assert res["failed"] > 0 and res["failed"] / res["attempted"] > 0


def test_cli_replay_runs_outside_the_items(workdir):
    trace = Trace(True)
    wl = workloads.Cli(1, Trace(False), ROOT, workdir)
    res = worker.phase(wl, trace, 0, 3)
    assert res["failed"] == 0, res["problems"]
    spans = trace.spans
    replays = [s for s in spans if s[0] in ("cli.parse", "cli.run")]
    assert replays and all(parent is None for _n, _s, _e, parent, _i in replays)
    for name, start, end, _parent, item in replays:
        span = next(s for s in spans if s[0] == "item" and s[4] == item)
        assert start >= span[2]
    assert all(spans[parent][0] == "item" for name, _s, _e, parent, _i in spans
               if name == "cli.invoke")


def test_a_failed_item_makes_the_run_fail(monkeypatch, capsys):
    r = tiny("corpus_g1")
    r.update(failed=1, problems=["planted"])
    monkeypatch.setattr(run, "measure", lambda *a, **k: r)
    monkeypatch.setattr(run, "OUT", os.path.join(PERFBENCH, "out"))
    assert run.main(["--workload", "corpus_g1", "--seed", "1", "--seconds", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_seed_changes_inputs_but_not_metric_names(workdir):
    a, b = workloads.CorpusG1(1, Trace(False)), workloads.CorpusG1(2, Trace(False))
    assert [e[2] for e in a.pool] != [e[2] for e in b.pool]
    assert workloads.EditHg(1, Trace(False)).sessions != workloads.EditHg(2, Trace(False)).sessions
    assert (workloads.CorpusG1(1, Trace(False)).pool == a.pool)
    os.mkdir(os.path.join(workdir, "x"))
    os.mkdir(os.path.join(workdir, "y"))
    x = workloads.Cli(1, Trace(False), ROOT, os.path.join(workdir, "x"))
    y = workloads.Cli(2, Trace(False), ROOT, os.path.join(workdir, "y"))
    assert [f[1] for f in x.files] != [f[1] for f in y.files]
    assert set(tiny("edit_hg", 1)["end_to_end"]) == set(tiny("edit_hg", 2)["end_to_end"])


def _snapshot(*dirs):
    out = {}
    for d in dirs:
        for base, _dirs, files in os.walk(os.path.join(ROOT, d)):
            for f in files:
                st = os.stat(os.path.join(base, f))
                out[os.path.join(base, f)] = (st.st_size, st.st_mtime_ns)
    return out


def test_a_run_leaves_src_and_fixtures_untouched():
    before = _snapshot("src", "tests/data")
    tiny("cli", trace=True)
    tiny("long_g1")
    assert _snapshot("src", "tests/data") == before
    assert not [f for f in os.listdir(run.OUT) if f.startswith("tmp-")]


def test_without_sources_the_run_fails_and_prints_no_result(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(PERFBENCH, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_slope_fits_log_log_and_skips_timeouts():
    assert sweep.slope([(10, 1.0), (100, 100.0), (1000, "timeout")]) == pytest.approx(2.0)
    assert sweep.slope([(10, 1.0), (100, "timeout")]) is None


def test_rotation_check_accepts_a_switch_and_rejects_a_shuffle():
    from sdcalc import circuit
    circ, _form = circuit.generate(3, 6)
    cs = circ.curves
    for k in (1, 2, -1, -3):
        assert workloads.rotation_problems(cs, circuit.switch(circ, k).curves, k) == []
    assert workloads.rotation_problems(cs, cs[1:] + cs[:1], 1)
