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
import functools
import json
import os
import re
import sys
from itertools import chain

from . import __version__
# start-up is most of a run: each subcommand imports the rest of what it runs itself
from .circuit import (CLIP, MAX_STEPS, Diagram, _check_switch, _clip, _clip_int, double, generate, normalize,
                      switch, validate)
from .homology import is_symplectic, word_matrix

BANNER = ("homological shadow only: genus >= 2 results are necessary "
          "conditions, not certificates")


class ParseError(Exception):
    """Invalid input; curve is the 1-based index of the offending curve,
    0 when the error is not about one curve."""

    def __init__(self, message, line=None, col=None, curve=0):
        self.message = message
        self.line = line
        self.col = col
        self.curve = curve
        where = ""
        if line is not None:
            where = "line %d" % line + (", col %d" % col if col is not None else "") + ": "
        super().__init__(where + message)


# ---------------------------------------------------------------- parsing

def parse(text) -> Diagram:
    """Parse a diagram file (bytes or str), normalizing orientations.

    The format is sniffed: JSON when the first non-blank character is
    ``{``, ``.sd`` text otherwise.  Raises ParseError with a location for
    syntax problems and with the curve index for semantic ones.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8: byte 0x%02x at offset %d"
                             % (exc.object[exc.start], exc.start)) from None
    read = _parse_json if text.lstrip().startswith("{") else _parse_sd
    genus, curves, closed, rows = read(text)

    for i, v in enumerate(curves, start=1):
        if len(v) != 2 * genus:
            raise ParseError("curve %d: expected %s coefficients, got %d"
                             % (i, _clip_int(2 * genus), len(v)), curve=i)
    mu = None if rows is None else tuple(tuple(r) for r in rows)
    try:
        _check_switch(mu, 2 * genus)
        if mu is not None and not is_symplectic(mu):
            raise ValueError("switch matrix does not preserve the pairing")
        if mu is not None and not closed:
            raise ValueError("switch matrix needs a closed diagram")
        circ = normalize(curves, closed, mu)
    except ValueError as exc:
        raise ParseError(str(exc), curve=getattr(exc, "curve", 0)) from exc
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
            if len(args) != 1:
                raise ParseError("genus needs one integer", line=lineno)
            (genus,) = _sd_ints(args, lineno, "genus needs one integer")
            if genus < 1:
                raise ParseError("genus must be >= 1", line=lineno)
        elif key == "curve":
            curves.append(_sd_ints(args, lineno, "curve needs integer coefficients"))
        elif key == "closed":
            if len(args) != 1 or args[0] not in ("true", "false"):
                raise ParseError("closed needs true or false", line=lineno)
            closed = args[0] == "true"
        elif key == "switchrow":
            rows.append(_sd_ints(args, lineno, "switchrow needs integer entries"))
        else:
            raise ParseError("unknown directive %r" % _clip(key), line=lineno,
                             col=raw_line.index(parts[0]) + 1)
    if genus is None:
        raise ParseError("missing genus line")
    if not curves:
        raise ParseError("no curves")
    return genus, curves, closed if closed is not None else False, rows or None


def _sd_ints(args, lineno, message):
    if not args or not all(_is_int(a) for a in args):
        raise ParseError(message, line=lineno)
    try:
        return tuple(int(a) for a in args)
    except ValueError:
        raise _too_long(line=lineno) from None


def _parse_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, col=exc.colno) from exc
    except ValueError:
        raise _too_long() from None
    try:  # parse reads JSON only when the text starts with "{", so data is a dict
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
            raise ParseError("curve %d: must be a list of integers" % i, curve=i)
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


_OVERLONG = "integer string conversion"  # in the ValueError of str() past the limit


def _too_long(**where):
    # int() refuses strings of more than sys.get_int_max_str_digits() digits
    return ParseError("integer longer than %d digits" % sys.get_int_max_str_digits(), **where)


# ---------------------------------------------------------------- emission

def diagram_dict(d: Diagram, **extra) -> dict:
    out = {"genus": d.circuit.genus, "curves": d.circuit.curves, "closed": d.circuit.closed}
    if d.switch_matrix is not None:
        out["switch"] = d.switch_matrix
    out.update(extra)
    return out


def emit_sd(d: Diagram, notes=()) -> str:
    lines = ["genus %d" % d.circuit.genus]
    lines += ["curve " + " ".join(map(str, v)) for v in d.circuit.curves]
    lines.append("closed %s" % ("true" if d.circuit.closed else "false"))
    lines += ["switchrow " + " ".join(map(str, r)) for r in d.switch_matrix or ()]
    lines += ["# %s" % note for note in notes]
    return "\n".join(lines) + "\n"


def emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _color_enabled(stream):
    if os.environ.get("SDCALC_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _matrix_lines(m):
    return ("  " + " ".join(["%3d"] * len(r)) % tuple(r) for r in m)


_ROWS = "\0rows\0"  # the text line and JSON value that info's and kirby's matrix rows replace


def _payload(report, text_lines, fmt):
    """The output, as an iterable of strings.  A LinkingMatrix under
    "linking_matrix" is written one row at a time, as json.dumps(indent=2)
    writes a top-level value.  What can fail runs before this returns."""
    lm = report.get("linking_matrix")
    if lm is None:
        return [emit_json(report) if fmt == "json" else "\n".join(text_lines) + "\n"]
    lm.check_printable()
    if fmt == "text":
        head, _, tail = ("\n".join(text_lines) + "\n").partition(_ROWS + "\n")
        return chain([head], map("{}\n".format, _matrix_lines(lm.rows())), [tail])
    head, _, tail = emit_json(dict(report, linking_matrix=_ROWS)).partition(json.dumps(_ROWS))
    rows = ("\n    [\n      " + ",\n      ".join(map(str, r)) + "\n    ]" for r in lm.rows())
    return chain([head + "[", next(rows)], map(",".__add__, rows), ["\n  ]" + tail])


def _counts(f):
    return {"l": f.l, "m": f.m, "n": f.n}


def _forms_report(forms, counts):
    """The canonical forms in report order, and their "forms" and "counts" entries."""
    forms = sorted(forms)  # CanonicalForm is a tuple (s2xs2, cp2, cp2bar)
    return forms, {"forms": [dict(f._asdict(), pretty=f.pretty()) for f in forms],
                   "counts": _counts(counts)}


def _framed(v, f):
    return {"class": v, "framing": f}


# ------------------------------------------------------------- subcommands
#
# A subcommand returns (report, text lines, exit code, homological).  The
# driver adds "command" and "homological_only" to the report, and the
# notice line to the text when homological is true; homological is None
# for the commands that emit a bare diagram.

def _load(path, needs_closed=False, allow_twisted=True):
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParseError("cannot read %s: %s" % (_clip(path), exc.strerror)) from exc
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
        report = {"ok": False, "exactness": None, "failures": [[exc.curve, str(exc)]]}
        return report, ["invalid: %s" % exc], 1, False
    rep = validate(d)
    text = ["%s (%s)" % ("ok" if rep.ok else "invalid", rep.exactness)]
    text += ["  curve %d: %s" % f for f in rep.failures]
    return rep._asdict(), text, 0 if rep.ok else 1, d.circuit.genus >= 2


def _cmd_info(args):
    from .handles import euler_characteristics, form_invariants, linking_matrix
    d = _load(args.file)
    circ = d.circuit
    g = circ.genus
    lm = linking_matrix(circ)
    inv = form_invariants(lm)
    chi_z, chi_x = euler_characteristics(circ)
    exactness = "Exact" if g == 1 else "HomologicalOnly"
    framings = list(lm.framings)
    report = {
        "genus": g,
        "length": circ.length,
        "closed": circ.closed,
        "twisted": d.switch_matrix is not None,
        "exactness": exactness,
        "framings": framings,
        "linking_matrix": lm,
        # whether this equals the closed total space's signature is
        # only verified for genus 1
        "form_invariants": dict(inv._asdict(), signature_conjectural=g >= 2),
        "euler": {"disk_piece": chi_z, "total_space": chi_x},
    }
    text = ["genus %d, length %d, %s, %s" % (
        g, circ.length, "closed" if circ.closed else "open", exactness)]
    text.append("framings: %s" % (framings,))
    text.append("linking matrix:")
    text.append(_ROWS)
    text.append("form: rank %d, signature %d, parity %s%s" % (
        inv.rank, inv.signature, inv.parity,
        " (signature conjectural at this genus)" if g >= 2 else ""))
    text.append("euler: disk piece %d, total space %s" % (chi_z, chi_x))
    return report, text, 0, g >= 2


def _cmd_classify(args):
    from .genus1 import classify
    cl = classify(_load(args.file))
    forms, report = _forms_report(cl.canonical_forms, cl.counts)
    report["trace"] = [
        {"step": step, "kind": det.kind, "position": det.position, "exponent": det.exponent,
         "k": det.k, "summand": det.summand, "delta": _counts(delta)}
        for step, det, delta in cl.reduction_trace
    ]
    text = ["canonical form%s:" % ("s" if len(forms) > 1 else "")]
    text += ["  " + f.pretty() for f in forms]
    if cl.reduction_trace:
        text.append("reduction:")
        for step, det, delta in cl.reduction_trace:
            param = det.exponent if det.kind == "BlowUp" else det.k
            text.append("  %2d. %s at %d (param %s) -> %s"
                        % (step, det.kind, det.position, param, det.summand))
    return report, text, 0, False  # classify only accepts genus 1


def _detection_line(t):
    if t.kind == "BlowUp":
        return "  BlowUp at %d: exponent %+d, summand %s" % (t.position, t.exponent, t.summand)
    if t.kind == "Stabilization":
        return "  Stabilization at %d: k = %d, summand %s" % (t.position, t.k, t.summand)
    return "  HayanoPattern at %d: dual %s, k = 0" % (t.position, list(t.dual))


def _cmd_detect(args):
    from .subst import detect
    d = _load(args.file, needs_closed=True)
    dets = detect(d)
    text = [_detection_line(t) for t in dets] or ["no substitution patterns"]
    return {"detections": [t._asdict() for t in dets]}, text, 0, d.circuit.genus >= 2


def _cmd_substitute(args):
    from .subst import apply_blowup, apply_stabilization, hayano_surgery
    d = _load(args.file, needs_closed=True)
    notes = []
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
        out = hayano_surgery(d, args.pos, _parse_vector(args.dual), args.k)
        notes.append("fiber-framed surgery on dual" if args.k % 2 == 0
                     else "opposite framing (odd twisting)")
    return _diagram_output(out, notes)


def _parse_vector(s):
    parts = [p for p in re.split(r"[,\s]+", s.strip()) if p]
    if not parts or not all(_is_int(p) for p in parts):
        raise UsageError("expected a comma-separated integer vector, got %r" % _clip(s))
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(_too_long().message) from None


def _cmd_switch(args):
    return _diagram_output(switch(_load(args.file, needs_closed=True), args.k), [])


def _cmd_double(args):
    d = _load(args.file, allow_twisted=False)
    return _diagram_output(Diagram(double(d.circuit), None), [])


def _cmd_monodromy(args):
    from .monodromy import _action_of, _verdict_of, mu_tilde_word
    circ = _load(args.file, needs_closed=True, allow_twisted=False).circuit
    word = mu_tilde_word(circ)  # computed once for all four results
    mat = word_matrix(word, circ.genus)
    act = _action_of(circ.curves[0], word)
    ver = _verdict_of(act)
    report = {
        "word": [{"axis": a, "exponent": e} for a, e in word],
        "matrix": mat,
        "surgered": {"base": act.base_class, "rank": act.quotient_rank,
                     "basis": act.basis, "matrix": act.matrix},
        "verdict": dict(ver._asdict(), text=ver.text),
    }
    text = ["lift word (rightmost first): %s" % " ".join(str(list(a)) for a, _ in word)]
    text.append("lift matrix:")
    text += _matrix_lines(mat)
    text.append("surgered action: rank %d" % act.quotient_rank)
    text += _matrix_lines(act.matrix)
    text.append("verdict: %s" % ver.text)
    return report, text, 0, circ.genus >= 2


def _cmd_blf(args):
    from .handles import to_blf
    circ = _load(args.file, needs_closed=True, allow_twisted=False).circuit
    data = to_blf(circ)
    report = {"lefschetz_cycles": [_framed(v, f) for v, f in data.lefschetz_cycles],
              "round_cycle": _framed(*data.round_cycle)}
    text = ["round cycle: %s framing 0" % (list(data.round_cycle[0]),)]
    for i, (v, f) in enumerate(data.lefschetz_cycles, start=1):
        text.append("  lefschetz %d: %s framing %d" % (i, list(v), f))
    return report, text, 0, circ.genus >= 2


def _cmd_kirby(args):
    from .handles import emit_kirby
    kd = emit_kirby(_load(args.file, allow_twisted=False).circuit, args.section)
    report = {
        "genus": kd.genus,
        "one_handles": kd.one_handles,
        "fiber_handle": {"framing": kd.fiber_framing},
        "fold_handles": [dict(_framed(v, f), position=p) for v, f, p in kd.fold_handles],
        "last_handle": None if kd.last_handle is None
        else {"framing": kd.last_handle, "attached": "meridian of fiber handle"},
        "linking_matrix": kd.linking,
    }
    text = ["1-handles (dotted): %s" % ", ".join(kd.one_handles), "fiber handle: framing 0"]
    for v, f, p in kd.fold_handles:
        text.append("  fold handle %d: %s framing %d" % (p, list(v), f))
    if kd.last_handle is not None:
        text.append("meridian handle: framing %d" % kd.last_handle)
    text.append("linking matrix:")
    text.append(_ROWS)
    return report, text, 0, kd.genus >= 2


def _cmd_generate(args):
    from .genus1 import normalize_sum
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    if args.steps > MAX_STEPS:
        raise UsageError("--steps must be at most %d" % MAX_STEPS)
    circ, form = generate(args.seed, args.steps)
    closures = {normalize_sum(form.with_closure(c)) for c in ("Spin0", "NonSpin1")}
    forms, expected = _forms_report(closures, form)
    notes = ["expected: " + " or ".join(f.pretty() for f in forms)]
    return _diagram_output(Diagram(circ, None), notes, expected=expected)


def _diagram_output(d: Diagram, notes, **extra):
    # diagram-producing commands emit a bare, re-parseable diagram
    report = diagram_dict(d, **extra)
    if notes:
        report["note"] = "; ".join(notes)
    return report, emit_sd(d, notes).splitlines(), 0, None


# ------------------------------------------------------------------ driver

# an argv value as an argparse error echoes it: quoted by %r, as the whole
# argument of an ambiguous option, or bare; compiled on use
_ECHO = r"""'((?:[^'\\]|\\.)*)'|"((?:[^"\\]|\\.)*)"|(?<=^ambiguous option: )((?s:.*))(?= could match )|(\S+)"""


def _clip_echo(m):
    s = m[m.lastindex]
    if m.lastindex > 2:
        return _clip(s)
    if len(s) > CLIP:  # a quoted repr is cut between its escapes, so it stays a prefix of the repr
        cut = 0
        for unit in re.finditer(r"\\(?:x..|u.{4}|U.{8}|N\{[^}]*\}|.)|[^\\]", s):
            if unit.end() > CLIP:
                break
            cut = unit.end()
        s = s[:cut] + "..."
    return m[0][0] + s + m[0][0]  # a quoted value keeps its quotes


class _Parser(argparse.ArgumentParser):
    """argparse whose errors raise UsageError, one line with each echoed
    argv value cut by _clip, taking the unrecognized arguments as one value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with - and a digit, so such an argument is a value: --dual -1,0
        self._negative_number_matcher = re.compile(r"-\d")

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % _clip(" ".join(extras)))
        return args

    def error(self, message):
        raise UsageError(re.sub(_ECHO, _clip_echo, message))


@functools.cache  # once per process; help text is formatted, and wrapped, on use
def _build_parser():
    p = _Parser(
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
    sp.add_argument("--exp", type=int, metavar="{1,-1}", help="blow-up exponent")
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
    err = sys.stderr
    paint = _color_enabled(err)

    def fail(code, msg):
        prefix = "\x1b[31merror:\x1b[0m" if paint else "error:"
        print(prefix, " ".join(msg.splitlines()), file=err)  # an argv value may hold newlines
        return code

    try:
        args = _build_parser().parse_args(argv)
        report, text_lines, code, homological = args.func(args)
        if homological is not None:  # a report rather than a bare diagram
            report.update(command=args.command, homological_only=homological)
            if homological:
                note = "note: " + BANNER
                if not args.out and _color_enabled(sys.stdout):
                    note = "\x1b[33m" + note + "\x1b[0m"
                text_lines = [note] + text_lines
        payload = _payload(report, text_lines, args.format)
    except SystemExit as exc:  # -h and --version print, then exit 0
        return exc.code
    except (ParseError, RuntimeError) as exc:
        return fail(1, str(exc))
    except UsageError as exc:  # its message may echo argv, so it is not read here
        return fail(2, str(exc))
    except ValueError as exc:  # the input does not fit the operation
        if _OVERLONG in str(exc):  # a result str() refuses to print; valid input
            return fail(1, "result has an integer longer than %d digits"
                        % sys.get_int_max_str_digits())
        return fail(2, str(exc))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(payload)
        except OSError as exc:
            return fail(2, "cannot write %s: %s" % (_clip(args.out), exc.strerror))
    else:
        sys.stdout.writelines(payload)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
