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
codes: 0 success, 1 invalid input or a closed output pipe, 2 usage
error (including asking for an operation the input does not support).
JSON output is key-sorted and newline-terminated, so byte-stable.

Reports for genus >= 2 input always carry the homological-only notice:
at that genus every result is a necessary condition, not a certificate.
"""

import argparse
import functools
import json
import os
import re
import sys
from itertools import chain

from . import __version__
# start-up is most of a run: each subcommand imports the rest of what it runs itself
from .circuit import (CLIP, MAX_STEPS, Diagram, _check_switch, _clip, _clip_int, _matrix_lines, double,
                      normalize, switch, validate)
from .homology import is_symplectic

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
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
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


def _payload(report, text_lines, fmt):
    """The output, as an iterable of strings.  A LinkingMatrix under
    "linking_matrix" is written one row at a time, as json.dumps(indent=2)
    writes a top-level value.  What can fail runs before this returns."""
    lm = report.get("linking_matrix")
    if lm is None:
        return [emit_json(report) if fmt == "json" else "\n".join(text_lines) + "\n"]
    from .handles import _ROWS  # the report that holds one was built there
    lm.check_printable()
    if fmt == "text":
        head, _, tail = ("\n".join(text_lines) + "\n").partition(_ROWS + "\n")
        return chain([head], map("{}\n".format, _matrix_lines(lm.rows())), [tail])
    head, _, tail = emit_json(dict(report, linking_matrix=_ROWS)).partition(json.dumps(_ROWS))
    rows = ("\n    [\n      " + ",\n      ".join(map(str, r)) + "\n    ]" for r in lm.rows())
    return chain([head + "[", next(rows)], map(",".__add__, rows), ["\n  ]" + tail])


# ------------------------------------------------------------- subcommands
#
# A subcommand returns (report, text lines, exit code, homological).  The
# driver adds "command" and "homological_only" to the report, and the
# notice line to the text when homological is true; homological is None
# for the commands that emit a bare diagram.  A report is built next to
# the call it reports on, in a module that never imports sdcalc.cli:
# `python -m` runs this file as __main__, and would compile it again.

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
    from .handles import _info_report
    return _info_report(_load(args.file))


def _cmd_classify(args):
    from .genus1 import _classify_report
    return _classify_report(_load(args.file))


def _cmd_detect(args):
    from .subst import _detect_report
    return _detect_report(_load(args.file, needs_closed=True))


def _cmd_substitute(args):
    from .subst import _substituted
    d = _load(args.file, needs_closed=True)
    needs = {"blowup": ("exp",), "stab": ("k",), "hayano": ("k", "dual")}[args.op]
    if None in [getattr(args, o) for o in needs]:
        raise UsageError("%s needs %s" % (args.op, " and ".join("--" + o for o in needs)))
    dual = _parse_vector(args.dual) if args.op == "hayano" else None
    return _diagram_output(*_substituted(d, args.op, args.pos, args.exp, args.k, dual))


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
    from .monodromy import _monodromy_report
    return _monodromy_report(_load(args.file, needs_closed=True, allow_twisted=False).circuit)


def _cmd_blf(args):
    from .handles import _blf_report
    return _blf_report(_load(args.file, needs_closed=True, allow_twisted=False).circuit)


def _cmd_kirby(args):
    from .handles import _kirby_report
    return _kirby_report(_load(args.file, allow_twisted=False).circuit, args.section)


def _cmd_generate(args):
    from .genus1 import _generated
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    if args.steps > MAX_STEPS:
        raise UsageError("--steps must be at most %d" % MAX_STEPS)
    d, notes, expected = _generated(args.seed, args.steps)
    return _diagram_output(d, notes, expected=expected)


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


# each subcommand: its dispatcher, its help, and the options it takes past
# FILE (all but generate take one), --format and --out
_COMMANDS = {
    "validate": (_cmd_validate, "check circuit and switch invariants", ()),
    "info": (_cmd_info, "framings, linking matrix, invariants, euler numbers", ()),
    "classify": (_cmd_classify, "canonical connected sums (genus 1, untwisted)", ()),
    "detect": (_cmd_detect, "find substitution patterns", ()),
    "substitute": (_cmd_substitute, "apply a substitution", (
        ("--op", {"choices": ("blowup", "stab", "hayano"), "required": True}),
        ("--pos", {"type": int, "required": True, "help": "1-based position"}),
        ("--exp", {"type": int, "metavar": "{1,-1}", "help": "blow-up exponent"}),
        ("--k", {"type": int, "help": "twist power for stab/hayano"}),
        ("--dual", {"help": "dual class for hayano, e.g. '0,1'"}))),
    "switch": (_cmd_switch, "rotate the reference point", (
        ("--k", {"type": int, "default": 1, "help": "number of switches (may be negative)"}),)),
    "double": (_cmd_double, "close off a circuit by doubling", ()),
    "monodromy": (_cmd_monodromy, "lift word, matrix, surgered action, verdict", ()),
    "blf": (_cmd_blf, "broken-fibration handle data", ()),
    "kirby": (_cmd_kirby, "handle-decomposition data", (
        ("--section", {"type": int, "help": "self-intersection of a section (closed only)"}),)),
    "generate": (_cmd_generate, "seeded random closed genus-1 circuit with known classification", (
        ("--seed", {"type": int, "required": True}), ("--steps", {"type": int, "required": True}))),
}


@functools.cache  # once per process and name; help text is formatted, and wrapped, on use
def _build_parser(only=None):
    """The parser with the subcommand `only`, which parses its argv as the full one
    does (tests/test_cli.py compares them), or with all of them when only is None."""
    p = _Parser(prog="sdcalc", description="surface-diagram calculus on first homology")
    p.add_argument("--version", action="version", version="sdcalc " + __version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if only is None else (only,):
        fn, help, options = _COMMANDS[name]
        sp = sub.add_parser(name, help=help)
        if name != "generate":
            sp.add_argument("file", help="diagram file (.sd or JSON), or - for stdin")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", metavar="PATH", help="write the report to PATH")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=fn)
    return p


def run(argv) -> int:
    err = sys.stderr
    paint = _color_enabled(err)

    def fail(code, msg):
        prefix = "\x1b[31merror:\x1b[0m" if paint else "error:"
        print(prefix, " ".join(msg.splitlines()), file=err)  # an argv value may hold newlines
        return code

    try:
        args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
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
        try:
            sys.stdout.writelines(payload)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone, as `| head` does
            return 1
    return code


def main():
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # what run left buffered goes to devnull, not to a failed flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
