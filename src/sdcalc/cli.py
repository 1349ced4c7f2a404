"""Command-line front end and the diagram file formats.

Two formats describe a diagram:

* ``.sd`` text -- one directive per line, ``#`` starts a comment::

      genus 1
      curve 1 0
      curve 1 -1
      curve 0 1
      closed true

  A twisted diagram adds 2g ``switchrow`` lines (the switch matrix).

* JSON -- the canonical interchange form::

      {"genus": 1, "curves": [[1, 0], [1, -1], [0, 1]], "closed": true}

  with an optional ``"switch"`` matrix.  Unknown keys are ignored, so
  reports that embed a diagram parse back unchanged.

Input format is sniffed (a leading ``{`` means JSON); ``--format``
selects the output format.  Commands that produce a diagram emit it
bare in the chosen format so commands compose through pipes.  Exit
codes: 0 success, 1 invalid input, 2 usage error (including asking for
an operation the input does not support).  JSON output is key-sorted
and newline-terminated, so identical invocations are byte-identical.

Reports for genus >= 2 input always carry the homological-only notice:
at that genus every result is a necessary condition, not a certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__
from .circuit import Diagram, double, generate, normalize, switch, validate
from .genus1 import classify, normalize_sum
from .handles import (
    emit_kirby,
    euler_characteristics,
    fiber_framing,
    form_invariants,
    linking_matrix,
    to_blf,
)
from .homology import is_symplectic
from .monodromy import mu_tilde_matrix, mu_tilde_word, surgered_action, verdict
from .subst import apply_blowup, apply_stabilization, detect, hayano_surgery

BANNER = ("homological shadow only: genus >= 2 results are necessary "
          "conditions, not certificates")


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = "line %d" % line + (", col %d" % col if col is not None else "") + ": "
        super().__init__(where + message)


# ---------------------------------------------------------------- parsing

def parse(text, format=None) -> Diagram:
    """Parse a diagram file (bytes or str), normalizing orientations.

    format is "json", "sd", or None to sniff.  Raises ParseError with a
    location for syntax problems and with the curve index for semantic
    ones.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if format is None:
        stripped = text.lstrip()
        format = "json" if stripped.startswith("{") else "sd"
    if format == "json":
        genus, curves, closed, rows = _parse_json(text)
    elif format == "sd":
        genus, curves, closed, rows = _parse_sd(text)
    else:
        raise ValueError("unknown format %r" % (format,))

    for i, v in enumerate(curves, start=1):
        if len(v) != 2 * genus:
            raise ParseError("curve %d: expected %d coefficients, got %d"
                             % (i, 2 * genus, len(v)))
    mu = None
    if rows is not None:
        if len(rows) != 2 * genus or any(len(r) != 2 * genus for r in rows):
            raise ParseError("switch matrix must be %dx%d" % (2 * genus, 2 * genus))
        mu = tuple(tuple(r) for r in rows)
        if not is_symplectic(mu):
            raise ParseError("switch matrix does not preserve the pairing")
        if not closed:
            raise ParseError("switch matrix needs a closed diagram")
    try:
        circ = normalize(curves, closed, mu)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return Diagram(circ, mu)


def _parse_sd(text):
    genus = None
    curves = []
    closed = None
    rows = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key == "genus":
            if len(args) != 1 or not _is_int(args[0]):
                raise ParseError("genus needs one integer", line=lineno)
            genus = int(args[0])
            if genus < 1:
                raise ParseError("genus must be >= 1", line=lineno)
        elif key == "curve":
            if not args or not all(_is_int(a) for a in args):
                raise ParseError("curve needs integer coefficients", line=lineno)
            curves.append(tuple(int(a) for a in args))
        elif key == "closed":
            if len(args) != 1 or args[0] not in ("true", "false"):
                raise ParseError("closed needs true or false", line=lineno)
            closed = args[0] == "true"
        elif key == "switchrow":
            if not args or not all(_is_int(a) for a in args):
                raise ParseError("switchrow needs integer entries", line=lineno)
            rows.append(tuple(int(a) for a in args))
        else:
            raise ParseError("unknown directive %r" % key, line=lineno,
                             col=raw_line.index(parts[0]) + 1)
    if genus is None:
        raise ParseError("missing genus line")
    if not curves:
        raise ParseError("no curves")
    return genus, curves, closed if closed is not None else False, rows or None


def _parse_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, col=exc.colno) from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    try:
        genus = data["genus"]
        curves = data["curves"]
        closed = data.get("closed", False)
    except KeyError as exc:
        raise ParseError("missing key %s" % exc) from exc
    if not _is_json_int(genus) or genus < 1:
        raise ParseError("genus must be a positive integer")
    if not isinstance(curves, list) or not curves:
        raise ParseError("curves must be a nonempty list")
    for i, v in enumerate(curves, start=1):
        if not isinstance(v, list) or not all(_is_json_int(t) for t in v):
            raise ParseError("curve %d: must be a list of integers" % i)
    if not isinstance(closed, bool):
        raise ParseError("closed must be a boolean")
    rows = data.get("switch")
    if rows is not None:
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(_is_json_int(t) for t in r) for r in rows
        ):
            raise ParseError("switch must be a matrix of integers")
    return genus, [tuple(v) for v in curves], closed, rows


def _is_json_int(t):
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(t, int) and not isinstance(t, bool)


def _is_int(s):
    return re.fullmatch(r"[+-]?\d+", s) is not None


# ---------------------------------------------------------------- emission

def diagram_dict(d: Diagram, **extra) -> dict:
    out = {
        "genus": d.circuit.genus,
        "curves": [list(v) for v in d.circuit.curves],
        "closed": d.circuit.closed,
    }
    if d.switch_matrix is not None:
        out["switch"] = [list(r) for r in d.switch_matrix]
    out.update(extra)
    return out


def emit_sd(d: Diagram, notes=()) -> str:
    lines = ["genus %d" % d.circuit.genus]
    for v in d.circuit.curves:
        lines.append("curve " + " ".join(str(t) for t in v))
    lines.append("closed %s" % ("true" if d.circuit.closed else "false"))
    if d.switch_matrix is not None:
        for r in d.switch_matrix:
            lines.append("switchrow " + " ".join(str(t) for t in r))
    for note in notes:
        lines.append("# %s" % note)
    return "\n".join(lines) + "\n"


def emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _color_enabled(stream):
    if os.environ.get("SDCALC_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _banner_lines(g):
    return ["note: " + BANNER] if g >= 2 else []


# ------------------------------------------------------------- subcommands

def _load(path, needs_closed=False, allow_twisted=True):
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParseError("cannot read %s: %s" % (path, exc.strerror)) from exc
    d = parse(data)
    if needs_closed and not d.circuit.closed:
        raise UsageError("this command needs a closed circuit")
    if not allow_twisted and d.switch_matrix is not None:
        raise UsageError("this command needs an untwisted diagram")
    return d


class UsageError(Exception):
    pass


def _cmd_validate(args):
    try:
        d = _load(args.file)
    except ParseError as exc:
        failures = [[_failure_index(exc.message), str(exc)]]
        report = {"command": "validate", "ok": False, "exactness": None,
                  "failures": failures, "homological_only": False}
        text = ["invalid: %s" % exc]
        return report, text, 1
    rep = validate(d)
    g = d.circuit.genus
    report = {
        "command": "validate",
        "ok": rep.ok,
        "exactness": rep.exactness,
        "failures": [[i, reason] for i, reason in rep.failures],
        "homological_only": g >= 2,
    }
    text = _banner_lines(g)
    text.append("ok (%s)" % rep.exactness if rep.ok else "invalid (%s)" % rep.exactness)
    for i, reason in rep.failures:
        text.append("  curve %d: %s" % (i, reason))
    return report, text, 0 if rep.ok else 1


def _failure_index(message):
    m = re.search(r"curves? (\d+)", message)
    return int(m.group(1)) if m else 0


def _cmd_info(args):
    d = _load(args.file)
    circ = d.circuit
    g = circ.genus
    lm = linking_matrix(circ)
    inv = form_invariants(lm)
    chi_z, chi_x = euler_characteristics(circ)
    report = {
        "command": "info",
        "genus": g,
        "length": circ.length,
        "closed": circ.closed,
        "twisted": d.switch_matrix is not None,
        "exactness": "Exact" if g == 1 else "HomologicalOnly",
        "homological_only": g >= 2,
        "framings": [fiber_framing(v) for v in circ.curves],
        "linking_matrix": [list(r) for r in lm.entries],
        "form_invariants": {
            "rank": inv.rank,
            "signature": inv.signature,
            "parity": inv.parity,
            # whether this equals the closed total space's signature is
            # only verified for genus 1
            "signature_conjectural": g >= 2,
        },
        "euler": {"disk_piece": chi_z, "total_space": chi_x},
    }
    text = _banner_lines(g)
    text.append("genus %d, length %d, %s, %s" % (
        g, circ.length, "closed" if circ.closed else "open", report["exactness"]))
    text.append("framings: %s" % (report["framings"],))
    text.append("linking matrix:")
    for r in lm.entries:
        text.append("  " + " ".join("%3d" % t for t in r))
    text.append("form: rank %d, signature %d, parity %s%s" % (
        inv.rank, inv.signature, inv.parity,
        " (signature conjectural at this genus)" if g >= 2 else ""))
    text.append("euler: disk piece %d, total space %s" % (chi_z, chi_x))
    return report, text, 0


def _cmd_classify(args):
    d = _load(args.file)
    try:
        cl = classify(d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    forms = sorted(cl.canonical_forms, key=lambda f: (f.s2xs2, f.cp2, f.cp2bar))
    report = {
        "command": "classify",
        "forms": [
            {"s2xs2": f.s2xs2, "cp2": f.cp2, "cp2bar": f.cp2bar, "pretty": f.pretty()}
            for f in forms
        ],
        "counts": {"l": cl.counts.l, "m": cl.counts.m, "n": cl.counts.n},
        "trace": [
            {
                "step": step,
                "kind": det.kind,
                "position": det.position,
                "exponent": det.exponent,
                "k": det.k,
                "summand": det.summand,
                "delta": {"l": delta.l, "m": delta.m, "n": delta.n},
            }
            for step, det, delta in cl.reduction_trace
        ],
        "homological_only": False,
    }
    text = ["canonical form%s:" % ("s" if len(forms) > 1 else "")]
    for f in forms:
        text.append("  " + f.pretty())
    if cl.reduction_trace:
        text.append("reduction:")
        for step, det, delta in cl.reduction_trace:
            param = det.exponent if det.kind == "BlowUp" else det.k
            text.append("  %2d. %s at %d (param %s) -> %s"
                        % (step, det.kind, det.position, param, det.summand))
    return report, text, 0


def _cmd_detect(args):
    d = _load(args.file, needs_closed=True)
    dets = detect(d)
    g = d.circuit.genus
    report = {
        "command": "detect",
        "homological_only": g >= 2,
        "detections": [
            {
                "kind": t.kind,
                "position": t.position,
                "exponent": t.exponent,
                "k": t.k,
                "dual": list(t.dual) if t.dual is not None else None,
                "summand": t.summand,
                "homological_only": t.homological_only,
            }
            for t in dets
        ],
    }
    text = _banner_lines(g)
    if not dets:
        text.append("no substitution patterns")
    for t in dets:
        if t.kind == "BlowUp":
            text.append("  BlowUp at %d: exponent %+d, summand %s"
                        % (t.position, t.exponent, t.summand))
        elif t.kind == "Stabilization":
            text.append("  Stabilization at %d: k = %d, summand %s"
                        % (t.position, t.k, t.summand))
        else:
            text.append("  HayanoPattern at %d: dual %s, k = 0"
                        % (t.position, list(t.dual)))
    return report, text, 0


def _cmd_substitute(args):
    d = _load(args.file, needs_closed=True)
    notes = []
    try:
        if args.op == "blowup":
            if args.exp is None:
                raise UsageError("blowup needs --exp")
            out = apply_blowup(d, args.pos, args.exp)
        elif args.op == "stab":
            if args.k is None:
                raise UsageError("stab needs --k")
            out = apply_stabilization(d, args.pos, args.k)
        else:
            if args.k is None or args.dual is None:
                raise UsageError("hayano needs --k and --dual")
            dual = _parse_vector(args.dual)
            out = hayano_surgery(d, args.pos, dual, args.k)
            notes.append("fiber-framed surgery on dual" if args.k % 2 == 0
                         else "opposite framing (odd twisting)")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return _diagram_output(out, notes)


def _parse_vector(s):
    parts = [p for p in re.split(r"[,\s]+", s.strip()) if p]
    if not parts or not all(_is_int(p) for p in parts):
        raise UsageError("expected a comma-separated integer vector, got %r" % s)
    return tuple(int(p) for p in parts)


def _cmd_switch(args):
    d = _load(args.file, needs_closed=True)
    try:
        out = switch(d, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return _diagram_output(out, [])


def _cmd_double(args):
    d = _load(args.file, allow_twisted=False)
    try:
        out = Diagram(double(d.circuit), None)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return _diagram_output(out, [])


def _cmd_monodromy(args):
    d = _load(args.file, needs_closed=True, allow_twisted=False)
    circ = d.circuit
    g = circ.genus
    word = mu_tilde_word(circ)
    mat = mu_tilde_matrix(circ)
    act = surgered_action(circ)
    ver = verdict(circ)
    report = {
        "command": "monodromy",
        "homological_only": g >= 2,
        "word": [{"axis": list(a), "exponent": e} for a, e in word],
        "matrix": [list(r) for r in mat],
        "surgered": {
            "base": list(act.base_class),
            "rank": act.quotient_rank,
            "basis": [list(b) for b in act.basis],
            "matrix": [list(r) for r in act.matrix],
        },
        "verdict": {
            "kind": ver.kind,
            "text": ver.text,
            "witness": list(ver.witness) if ver.witness is not None else None,
        },
    }
    text = _banner_lines(g)
    text.append("lift word (rightmost first): %s" % " ".join(str(list(a)) for a, _ in word))
    text.append("lift matrix:")
    for r in mat:
        text.append("  " + " ".join("%3d" % t for t in r))
    text.append("surgered action: rank %d" % act.quotient_rank)
    for r in act.matrix:
        text.append("  " + " ".join("%3d" % t for t in r))
    text.append("verdict: %s" % ver.text)
    return report, text, 0


def _cmd_blf(args):
    d = _load(args.file, needs_closed=True, allow_twisted=False)
    try:
        data = to_blf(d.circuit)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    g = d.circuit.genus
    report = {
        "command": "blf",
        "homological_only": g >= 2,
        "lefschetz_cycles": [{"class": list(v), "framing": f}
                             for v, f in data.lefschetz_cycles],
        "round_cycle": {"class": list(data.round_cycle[0]),
                        "framing": data.round_cycle[1]},
    }
    text = _banner_lines(g)
    text.append("round cycle: %s framing 0" % (list(data.round_cycle[0]),))
    for i, (v, f) in enumerate(data.lefschetz_cycles, start=1):
        text.append("  lefschetz %d: %s framing %d" % (i, list(v), f))
    return report, text, 0


def _cmd_kirby(args):
    d = _load(args.file, allow_twisted=False)
    try:
        kd = emit_kirby(d.circuit, args.section)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    g = d.circuit.genus
    report = {
        "command": "kirby",
        "homological_only": g >= 2,
        "genus": g,
        "one_handles": list(kd.one_handles),
        "fiber_handle": {"framing": kd.fiber_framing},
        "fold_handles": [{"class": list(v), "framing": f, "position": p}
                         for v, f, p in kd.fold_handles],
        "last_handle": None if kd.last_handle is None
        else {"framing": kd.last_handle, "attached": "meridian of fiber handle"},
        "linking_matrix": [list(r) for r in kd.linking.entries],
    }
    text = _banner_lines(g)
    text.append("1-handles (dotted): %s" % ", ".join(kd.one_handles))
    text.append("fiber handle: framing 0")
    for v, f, p in kd.fold_handles:
        text.append("  fold handle %d: %s framing %d" % (p, list(v), f))
    if kd.last_handle is not None:
        text.append("meridian handle: framing %d" % kd.last_handle)
    text.append("linking matrix:")
    for r in kd.linking.entries:
        text.append("  " + " ".join("%3d" % t for t in r))
    return report, text, 0


def _cmd_generate(args):
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    circ, form = generate(args.seed, args.steps)
    spin = normalize_sum(form.with_closure("Spin0"))
    nonspin = normalize_sum(form.with_closure("NonSpin1"))
    forms = sorted({spin, nonspin}, key=lambda f: (f.s2xs2, f.cp2, f.cp2bar))
    expected = {
        "counts": {"l": form.l, "m": form.m, "n": form.n},
        "forms": [{"s2xs2": f.s2xs2, "cp2": f.cp2, "cp2bar": f.cp2bar,
                   "pretty": f.pretty()} for f in forms],
    }
    d = Diagram(circ, None)
    notes = ["expected: " + " or ".join(f.pretty() for f in forms)]
    return _diagram_output(d, notes, expected=expected)


def _diagram_output(d: Diagram, notes, **extra):
    # diagram-producing commands emit a bare, re-parseable diagram
    report = diagram_dict(d, **extra)
    if notes:
        report["note"] = "; ".join(notes)
    text = emit_sd(d, notes).splitlines()
    return report, text, 0


# ------------------------------------------------------------------ driver

def _build_parser():
    p = argparse.ArgumentParser(
        prog="sdcalc",
        description="surface-diagram calculus on first homology",
    )
    p.add_argument("--version", action="version", version="sdcalc " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help, file_arg=True):
        sp = sub.add_parser(name, help=help)
        if file_arg:
            sp.add_argument("file", help="diagram file (.sd or JSON), or - for stdin")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", metavar="PATH", help="write the report to PATH")
        sp.set_defaults(func=fn)
        return sp

    add("validate", _cmd_validate, "check circuit and switch invariants")
    add("info", _cmd_info, "framings, linking matrix, invariants, euler numbers")
    add("classify", _cmd_classify, "canonical connected sums (genus 1, untwisted)")
    add("detect", _cmd_detect, "find substitution patterns")
    sp = add("substitute", _cmd_substitute, "apply a substitution")
    sp.add_argument("--op", choices=("blowup", "stab", "hayano"), required=True)
    sp.add_argument("--pos", type=int, required=True, help="1-based position")
    sp.add_argument("--exp", type=int, choices=(1, -1), help="blow-up exponent")
    sp.add_argument("--k", type=int, help="twist power for stab/hayano")
    sp.add_argument("--dual", help="dual class for hayano, e.g. '0,1'")
    sp = add("switch", _cmd_switch, "rotate the reference point")
    sp.add_argument("--k", type=int, default=1, help="number of switches (may be negative)")
    add("double", _cmd_double, "close off a circuit by doubling")
    add("monodromy", _cmd_monodromy, "lift word, matrix, surgered action, verdict")
    add("blf", _cmd_blf, "broken-fibration handle data")
    sp = add("kirby", _cmd_kirby, "handle-decomposition data")
    sp.add_argument("--section", type=int, help="self-intersection of a section (closed only)")
    sp = add("generate", _cmd_generate, "seeded random closed genus-1 circuit with known classification",
             file_arg=False)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--steps", type=int, required=True)
    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    err = sys.stderr
    paint = _color_enabled(err)

    def fail(code, msg):
        prefix = "\x1b[31merror:\x1b[0m" if paint else "error:"
        print(prefix, msg, file=err)
        return code

    try:
        report, text_lines, code = args.func(args)
    except ParseError as exc:
        return fail(1, str(exc))
    except UsageError as exc:
        return fail(2, str(exc))
    except RuntimeError as exc:
        return fail(1, str(exc))

    if args.format == "json":
        payload = emit_json(report)
    else:
        payload = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            return fail(2, "cannot write %s: %s" % (args.out, exc.strerror))
    else:
        out = sys.stdout
        if args.format == "text" and _color_enabled(out):
            payload = payload.replace("note: " + BANNER,
                                      "\x1b[33mnote: " + BANNER + "\x1b[0m")
        out.write(payload)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
