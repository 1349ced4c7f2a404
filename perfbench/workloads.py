"""The workloads of the sdcalc benchmark.

A workload builds its inputs from a seed when it is constructed, then runs
items one at a time: `compute(i)` makes the calls into sdcalc's public
functions for item i, and `check(out)` compares what they returned with a
reference that does not come from the layer that produced it -- the input
generator's bookkeeping, or a few lines of arithmetic re-derived here.
A workload has `size` distinct items; item i is item i % size, and
`reset()` puts a workload back where item 0 starts.  `reference()` times a
fixed piece of work of the same kind as an item, whose uncontended time is
`ref_nominal_ms` (see common.py).  With tracing on, `extra_calls(out)` runs
after the item's timer stopped, so what it adds is not part of the item.

Every call into sdcalc goes through `Trace.call`, which only records a span
when tracing is on.  With tracing off it is one extra Python call per
library call, which is what the end-to-end numbers are measured with.

The timed phase cycles through the distinct items (see worker.py).  sdcalc
keeps no caches, so a repeated input costs what a fresh one does.  Input
sizes are spread with a golden-ratio sequence, so every seed sees the same
mix of small and large inputs.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from time import perf_counter

from common import (INTERP_NOMINAL_MS, LOOP_NOMINAL_MS, child_env, reference_interp_ms,
                    reference_loop_ms)
from sdcalc import circuit, cli, genus1, handles, monodromy, subst

GOLDEN = 0.6180339887498949

# The timed calls of each layer, as `<module>.<function>`.  `cli.invoke` is
# one `python -m sdcalc.cli` child process, timed from the outside.
LAYERS = {
    "cli": ("cli.invoke", "cli.parse", "cli.run"),
    "circuit": ("circuit.generate", "circuit.normalize", "circuit.validate", "circuit.switch"),
    "subst": ("subst.detect", "subst.apply_blowup", "subst.apply_stabilization",
              "subst.hayano_surgery"),
    "genus1": ("genus1.classify",),
    "handles": ("handles.linking_matrix", "handles.form_invariants", "handles.to_blf"),
    "monodromy": ("monodromy.mu_tilde_word", "monodromy.mu_tilde_matrix",
                  "monodromy.surgered_action", "monodromy.verdict"),
}
CALLS = tuple(name for names in LAYERS.values() for name in names)

# Counts measured outside the timed calls; maxima are kept as maxima.
COUNTS = ("circuit.curves", "genus1.classify.contractions", "subst.detect.patterns")
PEAKS = ("circuit.max_c", "homology.max_bits", "handles.linking_matrix.max_bits")


class Trace:
    """Spans of one phase, kept in memory until the phase ends.

    A span is (name, start, end, parent, item): parent is the index of the
    enclosing span in `spans` or None, item the item number or None for
    set-up.  Counts are only gathered while tracing, like spans.
    """

    def __init__(self, on):
        self.on = on
        self.spans = []
        self.counts = Counter()
        self._parent = None
        self._item = None

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        start = perf_counter()
        out = fn(*args)
        self.spans.append((name, start, perf_counter(), self._parent, self._item))
        return out

    def span(self, name, start, end):
        """Record a span timed by the caller."""
        self.spans.append((name, start, end, self._parent, self._item))

    def open_item(self, i):
        """Reserve the span of item i; the calls made until `close_item` are its children."""
        self._item = i
        self.spans.append(None)
        self._parent = len(self.spans) - 1

    def close_item(self, start, end):
        self.spans[self._parent] = ("item", start, end, None, self._item)
        self._parent = None

    def add(self, name, n):
        self.counts[name] += n

    def peak(self, name, v):
        self.counts[name] = max(self.counts[name], v)


class Workload:
    """The defaults every workload shares; see the module docstring."""

    ref_nominal_ms = LOOP_NOMINAL_MS
    # items run and checked, untimed, after set-up and before the first phase
    warm_items = 0

    def reset(self):
        pass

    def reference(self):
        return reference_loop_ms()

    def extra_calls(self, out):
        pass


# ------------------------------------------------------------- references
# Re-derived here rather than taken from sdcalc, so that a check never
# trusts the layer it checks.

def pairing(x, y):
    return sum(x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2))


def neg(x):
    return tuple(-t for t in x)


def same_curve(x, y):
    return tuple(x) == tuple(y) or tuple(x) == neg(y)


def matvec(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def is_symplectic(m):
    """M^T J M = J, i.e. M preserves the pairing on every pair of basis vectors."""
    cols = list(zip(*m))
    n = len(cols)
    return all(pairing(cols[i], cols[j]) == pairing(_unit(i, n), _unit(j, n))
               for i in range(n) for j in range(i + 1, n))


def _unit(i, n):
    return tuple(int(t == i) for t in range(n))


def expected_forms(l, m, n):
    """The canonical forms, as (s2xs2, cp2, cp2bar), of a sum form with both closures.

    The spin closure adds an S2xS2, the non-spin one a CP2 # CP2bar; a sum
    with any projective summand is non-spin, and then every S2xS2 converts
    to a CP2 # CP2bar pair.
    """
    if m == 0 and n == 0:
        return {(l + 1, 0, 0), (0, l + 1, l + 1)}
    return {(0, m + l + 1, n + l + 1)}


def rotation_problems(before, after, k):
    """Problems with `after` as the k-fold switch of `before`, curves up to sign.

    A forward switch moves the last curve to the front, so after k > 0
    switches the untouched curves sit k places later; the k moved curves
    are transformed by the switch matrix, so only the others are compared.
    Needs 0 < |k| < len(before).
    """
    c = len(before)
    if len(after) != c:
        return ["switch changed the length %d -> %d" % (c, len(after))]
    pairs = zip(after[k:], before[:c - k]) if k >= 0 else zip(after[:c + k], before[-k:])
    if not all(same_curve(x, y) for x, y in pairs):
        return ["switch by %d is not a rotation" % k]
    return []


def switch_count(rng, c):
    """A switch count k with 0 < |k| <= 3 and |k| < c, so some curves stay unmoved."""
    top = min(3, c - 1)
    return rng.choice([k for k in range(-top, top + 1) if k])


def perturbed_dual(x, succ, w):
    """succ + (w - <x,w> succ): a class pairing to +1 with x, given <x,succ> = 1.

    The perturbation w - <x,w> succ is orthogonal to x, so a Hayano dual
    built this way spreads over every handle that w touches.
    """
    xw = pairing(x, w)
    return tuple(s + t - xw * s for s, t in zip(succ, w))


def bits(vectors):
    return max((abs(t).bit_length() for v in vectors for t in v), default=0)


def _golden_steps(i, lo, hi):
    return lo + int(((i * GOLDEN) % 1.0) * (hi - lo + 1))


# ---------------------------------------------------------------- genus 1

class GenusOnePipeline(Workload):
    """Generated genus-1 diagrams through the whole library, one diagram per item.

    Each pool entry is the generator's circuit, its sum form, the same
    curves with random sign flips (the raw input handed to sdcalc) and a
    small switch count.
    """

    def __init__(self, seed, trace, lo, hi, pool):
        rng = random.Random(seed)
        self.trace = trace
        self.size = pool
        self.pool = []
        for i in range(pool):
            circ, form = trace.call("circuit.generate", circuit.generate,
                                    rng.randrange(2 ** 31), _golden_steps(i, lo, hi))
            raw = [neg(v) if rng.random() < 0.5 else v for v in circ.curves]
            self.pool.append((circ.curves, form, raw, switch_count(rng, len(raw))))

    def compute(self, i):
        call = self.trace.call
        ref, form, raw, k = self.pool[i % self.size]
        circ = call("circuit.normalize", circuit.normalize, raw, True)
        out = dict(ref=ref, form=form, k=k, circ=circ)
        out["report"] = call("circuit.validate", circuit.validate, circ)
        out["cls"] = call("genus1.classify", genus1.classify, circ)
        out["lm"] = call("handles.linking_matrix", handles.linking_matrix, circ)
        out["inv"] = call("handles.form_invariants", handles.form_invariants, out["lm"])
        out["dets"] = call("subst.detect", subst.detect, circ)
        out["word"] = call("monodromy.mu_tilde_word", monodromy.mu_tilde_word, circ)
        out["lift"] = call("monodromy.mu_tilde_matrix", monodromy.mu_tilde_matrix, circ)
        out["act"] = call("monodromy.surgered_action", monodromy.surgered_action, circ)
        out["verdict"] = call("monodromy.verdict", monodromy.verdict, circ)
        out["blf"] = call("handles.to_blf", handles.to_blf, circ)
        out["switched"] = call("circuit.switch", circuit.switch, circ, k)
        return out

    def check(self, out):
        ref, form, circ = out["ref"], out["form"], out["circ"]
        cs = circ.curves
        c = len(ref)
        bad = []
        if not (cs == ref or cs == tuple(neg(v) for v in ref)):
            bad.append("normalize did not recover the generated circuit up to one sign")
        if not out["report"].ok:
            bad.append("validate rejected a generated circuit")
        got = {(f.s2xs2, f.cp2, f.cp2bar) for f in out["cls"].canonical_forms}
        if got != expected_forms(form.l, form.m, form.n):
            bad.append("classify forms %s, generator says %s" % (sorted(got), form))
        inv = out["inv"]
        # every generator move adds one curve and one to the rank (blow-up)
        # or two and two (stabilization); the start pair has rank 0
        if inv.rank != c - 2 or inv.signature != form.m - form.n:
            bad.append("rank/signature %d/%d, expected %d/%d"
                       % (inv.rank, inv.signature, c - 2, form.m - form.n))
        if any(not 1 <= d.position <= c for d in out["dets"]):
            bad.append("detect reported a position outside 1..%d" % c)
        if len(out["word"]) != c:
            bad.append("lift word has %d factors for %d curves" % (len(out["word"]), c))
        sign = (-1) ** c * pairing(cs[-1], cs[0])
        if matvec(out["lift"], cs[0]) != tuple(sign * t for t in cs[0]):
            bad.append("lift does not fix g1 up to (-1)^c eps")
        trivial = all(out["act"].matrix[i][j] == int(i == j)
                      for i in range(out["act"].quotient_rank)
                      for j in range(out["act"].quotient_rank))
        if trivial != (out["verdict"].kind == "HomologicallyTrivial"):
            bad.append("verdict %s disagrees with the surgered action" % out["verdict"].kind)
        blf = out["blf"]
        lam, rho = blf.lefschetz_cycles[0][0], blf.round_cycle[0]
        if len(blf.lefschetz_cycles) != c or tuple(a - b for a, b in zip(lam, rho)) != cs[1]:
            bad.append("broken-fibration data does not slide lambda_1 - rho to g_2")
        bad += rotation_problems(cs, out["switched"].curves, out["k"])
        if self.trace.on:
            t = self.trace
            t.add("circuit.curves", c)
            t.peak("circuit.max_c", c)
            t.peak("homology.max_bits", bits(cs))
            t.peak("handles.linking_matrix.max_bits", bits(out["lm"].entries))
            t.add("genus1.classify.contractions", len(out["cls"].reduction_trace))
            t.add("subst.detect.patterns", len(out["dets"]))
        return bad


class CorpusG1(GenusOnePipeline):
    """Many small diagrams (generator steps 0..30, c about 2..47).

    With 128 of them the median item moved by 6-9 % between seeds; 512
    draw the cost distribution closely enough for the median to hold.
    """

    def __init__(self, seed, trace):
        super().__init__(seed, trace, 0, 30, 512)


class LongG1(GenusOnePipeline):
    """Fewer, longer diagrams (generator steps 40..100, c about 60..150).

    The cost of one grows with c cubed, so the median item depends on
    which diagrams the seed drew; 72 of them keep that steady.
    """

    def __init__(self, seed, trace):
        super().__init__(seed, trace, 40, 100, 72)


# ------------------------------------------------------------ genus 5 edits

EDIT_GENUS = 5
EDITS_PER_SESSION = 40
SESSIONS = 32  # with 8, the median item moved by 6-10 % between seeds
# per session: 16 Hayano surgeries, 10 blow-ups, 8 stabilizations, 6 switches
EDIT_MIX = ("hayano",) * 16 + ("blowup",) * 10 + ("stab",) * 8 + ("switch",) * 6
GROWTH = {"hayano": 2, "blowup": 1, "stab": 2, "switch": 0}


class EditHg(Workload):
    """Editing sessions at genus 5, one edit plus its analysis per item.

    Each session starts from the standard pair (a1, b1) and runs 40 edits.
    Every fourth session is twisted, with the twist about a1 as its switch
    matrix; its edits never wrap the seam and it skips the monodromy calls,
    which need an untwisted diagram.  The edit plan is drawn at set-up:
    the circuit length after each edit is known in advance, so every
    position can be drawn then.
    """

    def __init__(self, seed, trace):
        rng = random.Random(seed)
        self.trace = trace
        n = 2 * EDIT_GENUS
        a1, b1 = _unit(0, n), _unit(1, n)
        twist = tuple(tuple(int(i == j) + int((i, j) == (0, 1)) for j in range(n))
                      for i in range(n))
        self.size = SESSIONS * EDITS_PER_SESSION
        self.sessions = []
        for s in range(SESSIONS):
            mu = twist if s % 4 == 3 else None
            start = circuit.Diagram(circuit.Circuit((a1, b1), True), mu)
            plan, c = [], 2
            ops = list(EDIT_MIX)
            rng.shuffle(ops)
            for op in ops:
                last = c - 1 if mu is not None else c
                if op == "switch":
                    param = switch_count(rng, c)
                elif op == "blowup":
                    param = rng.choice((1, -1))
                elif op == "stab":
                    param = rng.randint(-3, 3)
                else:
                    w = tuple(rng.randint(-1, 1) for _ in range(n))
                    param = (rng.randint(-2, 2), w)
                plan.append((op, rng.randint(1, last), param))
                c += GROWTH[op]
            self.sessions.append((start, plan))
        self.reset()

    def reset(self):
        self.diagram = None

    def compute(self, i):
        call = self.trace.call
        start, plan = self.sessions[(i // EDITS_PER_SESSION) % SESSIONS]
        if i % EDITS_PER_SESSION == 0:
            self.diagram = start
        d = self.diagram
        op, pos, param = plan[i % EDITS_PER_SESSION]
        before = d.circuit.curves
        if op == "hayano":
            k, w = param
            x = before[pos - 1]
            succ = before[pos] if pos < len(before) else tuple(
                d.circuit.eps * t for t in before[0])
            dual = perturbed_dual(x, succ, w)
            d = call("subst.hayano_surgery", subst.hayano_surgery, d, pos, dual, k)
        elif op == "blowup":
            d = call("subst.apply_blowup", subst.apply_blowup, d, pos, param)
        elif op == "stab":
            d = call("subst.apply_stabilization", subst.apply_stabilization, d, pos, param)
        else:
            d = call("circuit.switch", circuit.switch, d, param)
        self.diagram = d
        out = dict(op=op, pos=pos, param=param, before=before, d=d)
        out["report"] = call("circuit.validate", circuit.validate, d)
        out["dets"] = call("subst.detect", subst.detect, d)
        if d.switch_matrix is None:
            out["word"] = call("monodromy.mu_tilde_word", monodromy.mu_tilde_word, d)
            out["lift"] = call("monodromy.mu_tilde_matrix", monodromy.mu_tilde_matrix, d)
            out["act"] = call("monodromy.surgered_action", monodromy.surgered_action, d)
            out["verdict"] = call("monodromy.verdict", monodromy.verdict, d)
        return out

    def check(self, out):
        d, op, pos = out["d"], out["op"], out["pos"]
        cs = d.circuit.curves
        bad = []
        if not out["report"].ok:
            bad.append("validate rejected the diagram after %s at %d" % (op, pos))
        if op == "switch":
            bad += rotation_problems(out["before"], cs, out["param"])
        else:
            kind = {"hayano": "HayanoPattern", "blowup": "BlowUp", "stab": "Stabilization"}[op]
            # a stabilization at the seam puts (y, xi, y') at the front, so
            # its window starts at the old last curve, now the last one
            at = len(cs) if op == "stab" and pos == len(out["before"]) else pos
            if not any(x.kind == kind and x.position == at for x in out["dets"]):
                bad.append("detect missed the inserted %s at %d" % (kind, at))
        if "lift" in out:
            m = out["lift"]
            if not is_symplectic(m):
                bad.append("lift is not symplectic")
            if not same_curve(matvec(m, cs[0]), cs[0]):
                bad.append("lift does not fix g1 up to sign")
            if len(out["word"]) != len(cs):
                bad.append("lift word has %d factors for %d curves" % (len(out["word"]), len(cs)))
            if out["act"].quotient_rank != 2 * EDIT_GENUS - 2:
                bad.append("surgered action has rank %d" % out["act"].quotient_rank)
        if self.trace.on:
            t = self.trace
            t.add("circuit.curves", len(cs))
            t.peak("circuit.max_c", len(cs))
            t.peak("homology.max_bits", bits(cs))
            t.add("subst.detect.patterns", len(out["dets"]))
        return bad


# ---------------------------------------------------------------------- cli

CLI_FILES = 4
FIXTURES = "tests/data"


def _sd_text(curves):
    lines = ["genus %d" % (len(curves[0]) // 2)]
    lines += ["curve " + " ".join(str(t) for t in v) for v in curves]
    return "\n".join(lines + ["closed true"]) + "\n"


class Cli(Workload):
    """One `python -m sdcalc.cli` child process per item, one at a time.

    Set-up writes small generated diagrams into `tmpdir`; the fixtures in
    tests/data are only read.  The commands cycle through `CYCLE`, and the
    `classify -` item reads on stdin what the `generate` item before it
    printed.  With tracing on, `extra_calls` replays the same argv in this
    process through `cli.run`, and parses the item's input file with
    `cli.parse`, so the library's share of an invocation shows; that runs
    after the child has exited, outside the item's time.
    """

    ref_nominal_ms = INTERP_NOMINAL_MS
    # the first invocations after a pause run slower
    warm_items = 2
    CYCLE = ("validate", "info", "classify", "detect", "monodromy", "blf", "kirby",
             "switch", "generate", "classify -")

    def __init__(self, seed, trace, root, tmpdir):
        rng = random.Random(seed)
        self.trace = trace
        self.root = root
        self.env = child_env(root)
        self.size = len(self.CYCLE) * CLI_FILES
        self.files = []
        for i in range(CLI_FILES):
            circ, form = trace.call("circuit.generate", circuit.generate,
                                    rng.randrange(2 ** 31), _golden_steps(i, 2, 12))
            path = os.path.join(tmpdir, "g%02d.sd" % i)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_sd_text(circ.curves))
            self.files.append((path, circ.curves, form))
        self.fixtures = {name: os.path.join(root, FIXTURES, name)
                         for name in ("genus2.sd", "twisted.sd", "tri.json")}
        self.gen_args = [(rng.randrange(1000), rng.randint(2, 12)) for _ in range(CLI_FILES)]
        self.reset()

    def reset(self):
        self.last_generate = None

    def reference(self):
        return reference_interp_ms(self.env)

    def _command(self, i):
        """(argv, stdin bytes, input path or None, what to check) for item i."""
        name = self.CYCLE[i % len(self.CYCLE)]
        j = (i // len(self.CYCLE)) % CLI_FILES
        path, curves, form = self.files[j]
        fx = self.fixtures
        if name == "validate":
            target = fx["genus2.sd"] if j % 2 else path
            return ["validate", target], None, target, ("validate", 2 if j % 2 else 1)
        if name == "info":
            if j % 3 == 2:
                return ["info", fx["tri.json"]], None, fx["tri.json"], ("info", 3, None)
            return ["info", path], None, path, ("info", len(curves), form)
        if name == "classify":
            return ["classify", path], None, path, ("classify", form)
        if name == "detect":
            if j % 2:
                return ["detect", fx["twisted.sd"]], None, fx["twisted.sd"], ("detect_twisted",)
            return ["detect", path], None, path, ("detect", len(curves))
        if name == "monodromy":
            return ["monodromy", fx["genus2.sd"]], None, fx["genus2.sd"], ("monodromy",)
        if name == "blf":
            return ["blf", path], None, path, ("blf", curves)
        if name == "kirby":
            return ["kirby", path, "--section", "1"], None, path, ("kirby", len(curves))
        if name == "switch":
            return ["switch", path, "--k", "2"], None, path, ("switch", curves)
        if name == "generate":
            s, steps = self.gen_args[j]
            return ["generate", "--seed", str(s), "--steps", str(steps)], None, None, ("generate",)
        return ["classify", "-"], self.last_generate, None, ("classify_stdin",)

    def compute(self, i):
        argv, stdin, path, what = self._command(i)
        argv = argv + ["--format", "json"]
        t = self.trace
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sdcalc.cli"] + argv, input=stdin,
                              capture_output=True, env=self.env, cwd=self.root)
        end = perf_counter()
        if t.on:
            t.span("cli.invoke", start, end)
        if what[0] == "generate" and proc.returncode == 0:
            self.last_generate = proc.stdout
        return dict(argv=argv, stdin=stdin, path=path, what=what, code=proc.returncode,
                    stdout=proc.stdout)

    def extra_calls(self, out):
        t = self.trace
        if out["path"] is not None:
            with open(out["path"], "rb") as fh:
                out["parsed"] = t.call("cli.parse", cli.parse, fh.read())
        out["replay"] = t.call("cli.run", replay, out["argv"], out["stdin"])

    def check(self, out):
        if out["code"] != 0:
            return ["%s exited %d" % (" ".join(out["argv"]), out["code"])]
        try:
            rep = json.loads(out["stdout"])
        except ValueError:
            return ["%s printed no JSON" % " ".join(out["argv"])]
        if "replay" in out and out["replay"] != (0, out["stdout"]):
            return ["in-process replay of %s differs from the child" % " ".join(out["argv"])]
        what = out["what"]
        kind = what[0]
        ok = True
        if kind == "validate":
            ok = rep["ok"] is True and rep["exactness"] == ("Exact" if what[1] == 1
                                                            else "HomologicalOnly")
        elif kind == "info":
            inv = rep["form_invariants"]
            ok = rep["length"] == what[1] and (
                what[2] is None or (inv["rank"] == what[1] - 2
                                    and inv["signature"] == what[2].m - what[2].n))
        elif kind == "classify":
            f = what[1]
            ok = _forms(rep["forms"]) == expected_forms(f.l, f.m, f.n)
        elif kind == "detect":
            ok = all(1 <= x["position"] <= what[1] for x in rep["detections"])
        elif kind == "detect_twisted":
            # (1,0), (1,-1), (0,1) oriented is (1,0), (-1,1), (0,-1): the middle
            # curve is minus the sum of its neighbours, a blow-up at 1
            ok = [(x["kind"], x["position"]) for x in rep["detections"]] == [("BlowUp", 1)]
        elif kind == "monodromy":
            m = rep["matrix"]
            ok = rep["homological_only"] is True and is_symplectic(m) and same_curve(
                matvec(m, (1, 0, 0, 0)), (1, 0, 0, 0))
        elif kind == "blf":
            curves = what[1]
            ok = (len(rep["lefschetz_cycles"]) == len(curves)
                  and same_curve(rep["round_cycle"]["class"], curves[0]))
        elif kind == "kirby":
            ok = len(rep["fold_handles"]) == what[1] and rep["last_handle"]["framing"] == 1
        elif kind == "switch":
            ok = not rotation_problems(what[1], [tuple(v) for v in rep["curves"]], 2)
        elif kind == "generate":
            counts = rep["expected"]["counts"]
            ok = _forms(rep["expected"]["forms"]) == expected_forms(
                counts["l"], counts["m"], counts["n"]) and len(rep["curves"]) >= 2
        elif kind == "classify_stdin":
            ok = _forms(rep["forms"]) == _forms(json.loads(self.last_generate)["expected"]["forms"])
        if "parsed" in out:
            cs = out["parsed"].circuit.curves
            self.trace.add("circuit.curves", len(cs))
            self.trace.peak("circuit.max_c", len(cs))
            self.trace.peak("homology.max_bits", bits(cs))
        return [] if ok else ["%s: output fails its check" % " ".join(out["argv"])]


def _forms(forms):
    return {(f["s2xs2"], f["cp2"], f["cp2bar"]) for f in forms}


def replay(argv, stdin):
    """Run the CLI in this process on argv; returns (exit code, stdout bytes)."""
    saved = sys.stdin, sys.stdout
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin or b""))
    sys.stdout = io.StringIO()
    try:
        code = cli.run(list(argv))
        return code, sys.stdout.getvalue().encode()
    finally:
        sys.stdin, sys.stdout = saved


WORKLOADS = {"corpus_g1": CorpusG1, "long_g1": LongG1, "edit_hg": EditHg, "cli": Cli}
