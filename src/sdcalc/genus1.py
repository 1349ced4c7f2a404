"""Complete classification of the closed 4-manifolds presented by
closed genus-1 circuits.

On the torus, adjacent curves of a circuit form a basis, so every curve
satisfies g_i = k_i g_{i-1} - g_{i-2} for a unique integer k_i.  These
duality coefficients drive everything: the sigma recursion decides
closedness, coefficients with |k| <= 1 locate contractible blow-up and
stabilization patterns, and repeated contraction reduces any closed
circuit to length 2.  The final fiber can be capped off in exactly two
ways (a spin and a non-spin closure), so the result is one or two
connected sums of standard pieces.
"""

from collections import namedtuple

from .circuit import CLIP, Diagram, _Rec, _clip, _clip_int, _unpack, generate, validate
from .subst import Detection, _blowup_summand, _stab_summand, _window_k

_CLOSURES = ("Spin0", "NonSpin1", "Unclosed")


class SumForm(_Rec, namedtuple("SumForm", "l m n closure", defaults=(0, 0, 0, "Unclosed"))):
    """Connected-sum bookkeeping: l copies of S2xS2, m of CP2, n of CP2bar,
    plus which closure summand (if any) has been chosen."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.l < 0 or self.m < 0 or self.n < 0:
            raise ValueError("summand counts must be >= 0")
        if self.closure not in _CLOSURES:
            raise ValueError("closure must be one of %s" % (_CLOSURES,))
        return self

    def with_closure(self, closure: str) -> "SumForm":
        return SumForm(self.l, self.m, self.n, closure)

    def __add__(self, other: "SumForm") -> "SumForm":
        if self.closure != "Unclosed" and other.closure != "Unclosed":
            raise ValueError("cannot add two closed sum forms")
        closure = self.closure if other.closure == "Unclosed" else other.closure
        return SumForm(self.l + other.l, self.m + other.m, self.n + other.n, closure)


# the sum-form change of contracting a pattern, by its summand
_DELTAS = {"CP2": SumForm(m=1), "CP2bar": SumForm(n=1), "S2xS2": SumForm(l=1),
           "CP2+CP2bar": SumForm(m=1, n=1)}


# classify's rows (summand, delta, its l, m, n): a blow-down by e = -exponent, a stabilization by k % 2
_ROWS = {s: (s, d, d.l, d.m, d.n) for s, d in _DELTAS.items()}
_BLOWDOWNS = {e: _ROWS[_blowup_summand(-e)] for e in (1, -1)}
_STABS = (_ROWS[_stab_summand(0)], _ROWS[_stab_summand(1)])


class CanonicalForm(_Rec, namedtuple("CanonicalForm", "s2xs2 cp2 cp2bar", defaults=(0, 0, 0))):
    """Either t*(S2xS2) or m*CP2 # n*CP2bar, never a mixture."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        spin = self.s2xs2 > 0
        if spin and (self.cp2 or self.cp2bar):
            raise ValueError("canonical form mixes bundle and projective summands")
        if not spin and (self.cp2 < 1 or self.cp2bar < 1):
            raise ValueError("non-spin canonical form needs both CP2 counts >= 1")
        return self

    @property
    def signature(self) -> int:
        return self.cp2 - self.cp2bar

    def pretty(self) -> str:
        if self.s2xs2:
            return "%d*(S2xS2)" % self.s2xs2
        return "%d*CP2 # %d*CP2bar" % (self.cp2, self.cp2bar)


class Classification(_Rec, namedtuple("Classification", "canonical_forms reduction_trace counts")):
    """One or two CanonicalForms, the (step, Detection, SumForm delta) trace, the Unclosed total."""

    __slots__ = ()


def duality_coefficients(c) -> list:
    """The unique k_i with g_i = k_i g_{i-1} - g_{i-2}, for i = 3..c.

    Needs a normalized genus-1 circuit of length >= 3.  k_i = <g_{i-2}, g_i>
    since adjacent curves are a basis: the window rule of subst.detect.
    """
    circ = _unpack(c)[0]
    if circ.genus != 1:
        raise ValueError("duality coefficients need genus 1")
    if circ.length < 3:
        raise ValueError("duality coefficients need length >= 3")
    ks = [_window_k(*circ.curves[i - 3:i]) for i in range(3, circ.length + 1)]  # or None
    if None in ks:  # g_i + g_{i-2} = k_i g_{i-1} fails
        raise ValueError("curve %d does not satisfy the duality relation; "
                         "is the circuit normalized?" % (ks.index(None) + 3))
    return ks


def sigma_sequence(ks) -> list:
    """sigma_1 = 0, sigma_2 = 1, sigma_i = k_i sigma_{i-1} - sigma_{i-2}.

    A genus-1 circuit with these coefficients is closed exactly when the
    final value is +-1 (it equals <g_1, g_c>).
    """
    sig = [0, 1]
    for k in ks:
        sig.append(k * sig[-1] - sig[-2])
    return sig


def normalize_sum(f: SumForm) -> CanonicalForm:
    """Canonical connected sum for a closed sum form.

    All-spin input stays a sum of S2xS2's; any projective summand (or
    the odd closure) makes the total non-spin, and then every S2xS2 and
    the closure summand convert to CP2 # CP2bar pairs.  The conversion
    relation is the classical non-spin one, not specific to fibrations.
    """
    if f.closure == "Unclosed":
        raise ValueError("cannot normalize an unclosed sum form")
    if f.m == f.n == 0 and f.closure == "Spin0":  # a SumForm's counts are >= 0: either form is valid
        return tuple.__new__(CanonicalForm, (f.l + 1, 0, 0))
    return tuple.__new__(CanonicalForm, (0, f.m + f.l + 1, f.n + f.l + 1))


def classify(d) -> Classification:
    """Reduce a closed genus-1 circuit to length 2 and name the manifold.

    Prefers a blow-up (a cyclic coefficient +-1) to a stabilization (a
    zero); a closed circuit of length >= 3 always admits one, so anything
    else raises RuntimeError rather than guessing.  Both closures of the
    final two curves are normalized and deduplicated: one or two forms.

    After its checks no curve is read: the reduction blows down ks[j] =
    <x,y><y,z><x,z>, (x, y, z) = (g_j, g_{j+1}, g_{j+2}) cyclically.  No sign
    flip changes it, and with <x,y> = <y,z> = 1, x + z = ks[j] y (subst.detect).
    A blow-up at j, e = ks[j] = +-1, removes g_{j+1} = e (g_j + g_{j+2}):
    <g_j, g_{j+2}> = e and g_{j-1} = (ks[j-1] - e) g_j - e g_{j+2}, so
    (g_{j-1}, g_j, g_{j+2}) reads ks[j-1] - e, and (g_j, g_{j+2}, g_{j+3})
    likewise ks[j+1] - e.  A stabilization at j (ks[j+1] = 0, so g_{j+3} =
    -g_{j+1}) removes g_{j+2} and g_{j+3}: g_{j+4} = g_j - (ks[j] + ks[j+2])
    g_{j+1}, so (g_j, g_{j+1}, g_{j+4}) reads ks[j] + ks[j+2] and (g_{j+1},
    g_{j+4}, g_{j+5}) still ks[j+3].  A pattern that wraps the seam is
    rotated to the front first, as `contract` does, so the trace replays.

    ks[:g] is on `left` and ks[g:] reversed on `right`, a gap buffer that each
    contraction pops.  Neither holds a +-1 but at its top and in the unread
    right[:u], and ks[1:z] no 0: `_seek` reads each entry about once.
    """
    circ, mu = _unpack(d)
    if mu is not None:
        raise ValueError("classifier requires an untwisted diagram")
    if circ.genus != 1:
        raise ValueError("classifier requires genus 1")
    if not circ.closed:
        raise ValueError("classifier requires a closed circuit")
    cs = circ.curves  # validate only when a pairing <g_i, g_i+1> (the last one closing) fails
    prs = [a * q - b * p for (a, b), (p, q) in zip(cs, cs[1:] + cs[:1])]
    report = validate(circ) if prs[-1] not in (1, -1) or prs[:-1].count(1) < len(cs) - 1 else None
    if report and not report.ok:
        raise ValueError("invalid circuit: %s" % (report.failures[0],))
    left, right = [], [x * y * (a * s - b * r)
                       for x, y, (a, b), (r, s) in zip(prs, prs[1:] + prs[:1], cs, cs[2:] + cs[:2])][::-1]
    c = u = len(right)
    trace, z, l, m, n = [], 1, 0, 0, 0  # l, m, n count the summands
    while c > 2:  # right keeps >= 2 entries: its top is ks[g], its bottom ks[c - 1]
        w, g = 1, len(left)
        j = g - 1 if left and left[-1] in (1, -1) else g if right[-1] in (1, -1) else -1
        if j < 0:
            j = _seek(left, right, c - min(u, len(right)), (1, -1))
            u = max(c - 1 - j, 0)
        if j == c:  # no +-1: the first j with ks[j + 1] == 0, or c - 1 when only ks[0] is
            w, z = 2, _seek(left, right, z, (0,))
            j = z - 1
            if z == c and (left[0] if left else right[-1]):
                shown = " ".join(map(_clip_int, (left + right[::-1])[:CLIP]))
                raise RuntimeError("closed genus-1 circuit of length %d has no coefficient in {-1, 0, 1}"
                                   ", against reducibility; coefficients %s" % (c, _clip(shown)))
        if j + w + 2 > c:  # the pattern wraps the seam: an O(c) copy, a few per circuit
            seq = left + right[::-1]
            left, right, u, z = [], (seq[j:] + seq[:j])[::-1], 0, 1
        e = (left if j < len(left) else right).pop()
        if w == 1:
            right[-1] -= e
            if left:
                left[-1] -= e
            else:  # ks[j - 1] is ks[c - 1], the bottom of right: read it again
                right[0], u = right[0] - e, u or 1
            summand, delta, dl, dm, dn = _BLOWDOWNS[e]
            det = tuple.__new__(Detection, ("BlowUp", j + 1, -e, None, None, summand, False))
        else:
            right.pop()
            right[-1] += e
            summand, delta, dl, dm, dn = _STABS[e % 2]
            det = tuple.__new__(Detection, ("Stabilization", j + 1, None, e, None, summand, False))
        c, z, l, m, n = c - w, max(1, min(z, j + w - 2)), l + dl, m + dm, n + dn
        trace.append((len(trace) + 1, det, delta))

    total = tuple.__new__(SumForm, (l, m, n, "Unclosed"))  # l, m, n count summands: >= 0
    forms = frozenset(normalize_sum(tuple.__new__(SumForm, (l, m, n, c))) for c in ("Spin0", "NonSpin1"))
    return tuple.__new__(Classification, (forms, tuple(trace), total))


def _seek(left, right, lo, hit):
    """The first p >= lo with ks[p] in hit, ks = left + right[::-1], or len(ks).
    The gap moves to p by slices, unless p is one of the last two positions,
    which classify rotates to the front.  classify searches and moves only here."""
    g, n = len(left), len(right)
    for p in range(lo, g):
        if left[p] in hit:
            right.extend(left[:p - 1:-1])  # lo >= 1, so p >= 1
            del left[p:]
            return p
    for i in range(g + n - 1 - max(lo, g), -1, -1):
        if right[i] in hit:
            if i > 1:
                left.extend(right[:i:-1])
                del right[i + 1:]
            return g + n - 1 - i
    return g + n


# ---- the reports of `sdcalc classify` and `generate` (see cli)
def _counts(f):
    return {"l": f.l, "m": f.m, "n": f.n}


def _forms_report(forms, counts):
    """The canonical forms in report order, and their "forms" and "counts" entries."""
    forms = sorted(forms)  # CanonicalForm is a tuple (s2xs2, cp2, cp2bar)
    return forms, {"forms": [dict(f._asdict(), pretty=f.pretty()) for f in forms],
                   "counts": _counts(counts)}


def _classify_report(d):
    cl = classify(d)
    forms, report = _forms_report(cl.canonical_forms, cl.counts)
    report["trace"] = [
        {"step": step, "kind": det.kind, "position": det.position, "exponent": det.exponent,
         "k": det.k, "summand": det.summand, "delta": _counts(delta)}
        for step, det, delta in cl.reduction_trace
    ]
    text = ["canonical form%s:" % ("s" if len(forms) > 1 else "")] + ["  " + f.pretty() for f in forms]
    if cl.reduction_trace:
        text.append("reduction:")
    for step, det, _ in cl.reduction_trace:
        param = det.exponent if det.kind == "BlowUp" else det.k
        text.append("  %2d. %s at %d (param %s) -> %s" % (step, det.kind, det.position, param, det.summand))
    return report, text, 0, False  # classify only accepts genus 1


def _generated(seed, steps):
    """The diagram of `sdcalc generate`, its notes and its "expected" entry."""
    circ, form = generate(seed, steps)
    closures = {normalize_sum(form.with_closure(c)) for c in ("Spin0", "NonSpin1")}
    forms, expected = _forms_report(closures, form)
    return Diagram(circ, None), ["expected: " + " or ".join(f.pretty() for f in forms)], expected
