"""Substitution patterns in circuits: blow-up, stabilization, Hayano surgery.

A blow-up inserts tau_y^e(x) between an adjacent pair (x, y); a
stabilization inserts (tau_y^k(x), y) after the pair; a Hayano
substitution replaces a single curve x by the triple (x, tau_x^k(d), x)
for a chosen dual d.  All three are read off one number per window: on
an oriented window (x, y, z), <x,y> = 1, so x + z = k y forces
k = <x, x + z> = <x,z>.  A blow-up is k = +-1 (exponent -k), a Hayano
pattern k = 0 (z = -x), and a stabilization (x, y, z, w) any k followed
by k = 0 at the next window (w = -y).  Windows are oriented by the sign
pass of `normalize`; on the torus every oriented window has x + z = k y,
so there `detect` checks no relation (see its docstring).

On a genus-1 surface a detected pattern is the geometric configuration;
for genus >= 2 a match is a homological candidate only and is flagged
as such.
"""

from collections import namedtuple
from operator import add, eq

from .circuit import _Chain, _Rec, _clip, _clip_int, _repack, _signed, _unpack, normalize
from .homology import canon_sign, matvec, pairing, twist_apply


class Detection(_Rec, namedtuple("Detection", "kind position exponent k dual summand "
                                 "homological_only", defaults=(None, None, None, None, False))):
    """A BlowUp, Stabilization or HayanoPattern at a 1-based cyclic position:
    the blow-up exponent +-1, the twist power k (0 for Hayano), the Hayano
    dual (the middle curve, canonical sign), the summand it contributes."""

    __slots__ = ()


# summand bookkeeping: a +1 blow-up inserts a -1-framed curve (CP2bar),
# a -1 blow-up a +1-framed one (CP2); stabilization parity picks the
# S2-bundle type
def _blowup_summand(e):
    return "CP2bar" if e == 1 else "CP2"


def _stab_summand(k):
    return "S2xS2" if k % 2 == 0 else "CP2+CP2bar"


def _check_pos(circ, mu, pos, seam_ok=False):
    c = circ.length
    if not circ.closed:
        raise ValueError("substitutions need a closed circuit")
    if not 1 <= pos <= c:
        raise ValueError("position %s out of range 1..%d" % (_clip_int(pos), c))
    if mu is not None and pos == c and not seam_ok:
        raise ValueError("seam substitution on a twisted diagram is not supported")


def apply_blowup(d, pos: int, e: int):
    """Insert the e-twist of curve pos about its successor between the two.

    Length grows by 1.  The inserted curve carries framing -e in the
    standard position, so e = +1 adds a CP2bar summand and e = -1 a CP2.
    """
    if e not in (1, -1):
        raise ValueError("blow-up exponent must be +1 or -1")
    circ, mu = _unpack(d)
    _check_pos(circ, mu, pos)
    cs = circ.curves  # y = g_1 past the seam: tau_y^e(x) is blind to y's sign eps
    raw = list(cs[:pos]) + [twist_apply(cs[pos % len(cs)], e, cs[pos - 1])] + list(cs[pos:])
    return _repack(d, normalize(raw, True, mu))


def apply_stabilization(d, pos: int, k: int):
    """Insert (tau_y^k(x), y) after the adjacent pair (x, y) at pos.

    Length grows by 2; the new pair contributes a hyperbolic block to
    the linking form, so the summand is S2xS2 for even k and
    CP2 # CP2bar for odd k.
    """
    circ, mu = _unpack(d)
    _check_pos(circ, mu, pos)
    cs = circ.curves
    i = pos % len(cs) + 1  # slot of y; past the seam y is g_1: (g_1, xi, g_1, g_2, ...)
    raw = list(cs[:i]) + [twist_apply(cs[i - 1], k, cs[pos - 1]), cs[i - 1]] + list(cs[i:])
    return _repack(d, normalize(raw, True, mu))


def hayano_surgery(d, pos: int, dual, k: int):
    """Replace curve pos by (g_pos, tau_{g_pos}^k(dual), g_pos).

    Models fiber-framed surgery on the dual curve for even k and the
    opposite framing for odd k.  The dual must pair to +-1 with the
    curve at pos.
    """
    circ, mu = _unpack(d)
    _check_pos(circ, mu, pos, seam_ok=True)
    x = circ.curves[pos - 1]
    dual = tuple(dual)
    if abs(pairing(x, dual)) != 1:
        raise ValueError("dual class %s does not pair to +-1 with curve %d"
                         % (_clip(repr(dual)), pos))
    mid = twist_apply(x, k, dual)
    raw = list(circ.curves[:pos]) + [mid, x] + list(circ.curves[pos:])
    return _repack(d, normalize(raw, True, mu))


def _norm_window(win):
    """Orient a window of curves so consecutive pairings are +1 (circuit._signed)."""
    out, p = _signed(win)
    if p is not None:
        raise ValueError("adjacent pairing %s in a window, need +-1" % _clip_int(p))
    return out


def _window_k(x, y, z):
    """k = <x,z> if x + z = k y, else None.

    On an oriented window (<x,y> = 1) any k with x + z = k y is <x,z>, so
    no other multiple can match.
    """
    k = pairing(x, z)
    return k if all(map(eq, map(add, x, z), map(k.__mul__, y))) else None


def detect(d):
    """All substitution patterns in a closed diagram, ascending position.

    Every oriented 3-window (x, y, z) gets one k, _window_k: <x,z> when
    x + z = k y, else None (never at genus 1, see below).  k = +-1 is a
    blow-up of exponent -k; k = 0 (z = -x) a Hayano pattern, reported
    with the minimal-|k| representative (k = 0, dual = the middle
    curve); a window with any k followed by a window with k = 0 (w = -y)
    is a stabilization with that k.  Overlapping patterns are all
    reported.  For a twisted diagram only seam-free windows are scanned.

    The curves are oriented once, as one chain, and every window is a slice
    of it: a circuit._Chain (normalize's mark) is that chain when twisted or
    when |eps| = 1, else the one sign pass circuit._signed orients it.  A
    window oriented on its own differs from that slice by at most an overall
    sign, which changes no match, exponent or canonical dual.  The chain also
    covers the pairings no window reads, as at c < 3; for a twisted diagram
    it stops at g_c, and the seam <mu g_c, g_1> is checked alone.

    At genus 1 no window's relation is checked, since none can fail:
    <x,y> = 1 makes (x, y) a basis, and z = s x + t y with <y,z> = 1
    gives s = -1, so x + z = t y with t = <x,z>, which is k.
    """
    circ, mu = _unpack(d)
    if not circ.closed:
        raise ValueError("detection needs a closed circuit")
    c = circ.length
    homological = circ.genus >= 2
    # n3 3-windows and n4 4-windows are scanned; a twisted one must not wrap
    n3 = 0 if c < 3 else c if mu is None else c - 2
    n4 = 0 if c < 4 else c if mu is None else c - 3
    ext = (circ.extended(3) if mu is None else circ.curves)[:max(n3 + 2, n4 + 3, c + 1)]
    marked = type(circ.curves) is _Chain and (mu is not None or abs(circ.eps) == 1)  # +1 on to eps g_1
    chain = ext if marked else _norm_window(ext)
    if mu is not None:  # the seam window (mu g_c, g_1)
        _norm_window([matvec(mu, circ.curves[-1]), circ.curves[0]])
    ks = ([_window_k(*chain[i:i + 3]) for i in range(len(chain) - 2)] if homological
          else [a * q - b * p for (a, b), (p, q) in zip(chain, chain[2:])])  # k = <x,z>
    out, new = [], tuple.__new__  # records by position, in Detection's field order
    for i in range(n3):
        k = ks[i]
        if k == 1 or k == -1:
            out.append(new(Detection, ("BlowUp", i + 1, -k, None, None, _blowup_summand(-k), homological)))
        elif k == 0:
            out.append(new(Detection, ("HayanoPattern", i + 1, None, 0, canon_sign(chain[i + 1]), None,
                                       homological)))
        if i < n4 and k is not None and ks[i + 1] == 0:
            out.append(new(Detection, ("Stabilization", i + 1, None, k, None, _stab_summand(k), homological)))
    return out


def _stale(det):
    return ValueError("stale detection: pattern %s no longer matches at position %d"
                      % (det.kind, det.position))


def contract(d, det: Detection):
    """Undo a detected substitution, returning (diagram, SumForm delta).

    The rule of genus1.classify, with width w = 1 for a blow-up and 2 for
    a stabilization: check the pattern on its window of w + 2 curves and
    remove the w curves after the window's first.  A window that wraps the
    seam is rotated to the front first, so the result is the input up to
    switching and signs.  A Hayano pattern is a surgery, not a connected
    sum, and has no sum-form delta.
    """
    from .genus1 import _DELTAS

    circ, mu = _unpack(d)
    cs, pos = circ.curves, det.position
    c = len(cs)
    if not circ.closed or not 1 <= pos <= c:
        raise _stale(det)
    if det.kind == "HayanoPattern":
        raise ValueError("a Hayano pattern is a surgery, not a connected sum; "
                         "no sum-form delta to contract")
    # want: the window's ks, (-e,) for a blow-up and (k, 0) for a stabilization; None,
    # which no ks equal, for e not +-1 or no k (a window that is no stabilization can be (None, 0))
    if det.kind == "BlowUp":
        w, e, summand = 1, det.exponent, _blowup_summand
        want = (-e,) if e in (1, -1) else None
    elif det.kind == "Stabilization":
        w, e, summand = 2, det.k, _stab_summand
        want = None if e is None else (e, 0)
    else:
        raise ValueError("unknown detection kind %r" % (det.kind,))
    wraps = pos + w + 1 > c
    if c < w + 2 or (mu is not None and wraps):
        raise _stale(det)  # seam windows are never detected on twisted input
    win = _norm_window(circ.extended(w + 1)[pos - 1:pos + w + 1])
    if tuple(_window_k(*win[j:j + 3]) for j in range(w)) != want:
        raise _stale(det)
    if wraps:
        cs, pos = normalize(cs[pos - 1:] + cs[:pos - 1], True).curves, 1
    return _repack(d, normalize(cs[:pos] + cs[pos + w:], True, mu)), _DELTAS[summand(e)]


# ---- the reports of `sdcalc detect` and `substitute` (see cli)
def _detection_line(t):
    if t.kind == "BlowUp":
        return "  BlowUp at %d: exponent %+d, summand %s" % (t.position, t.exponent, t.summand)
    if t.kind == "Stabilization":
        return "  Stabilization at %d: k = %d, summand %s" % (t.position, t.k, t.summand)
    return "  HayanoPattern at %d: dual %s, k = 0" % (t.position, list(t.dual))


def _detect_report(d):
    dets = detect(d)
    text = [_detection_line(t) for t in dets] or ["no substitution patterns"]
    return {"detections": [t._asdict() for t in dets]}, text, 0, d.circuit.genus >= 2


def _substituted(d, op, pos, exp, k, dual):
    """The diagram and notes of `sdcalc substitute`, whose options the CLI has checked."""
    if op == "blowup":
        return apply_blowup(d, pos, exp), []
    if op == "stab":
        return apply_stabilization(d, pos, k), []
    return hayano_surgery(d, pos, dual, k), ["fiber-framed surgery on dual" if k % 2 == 0
                                            else "opposite framing (odd twisting)"]
