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

from .circuit import Diagram, _Rec, _unpack, generate, normalize, validate
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
    ks = []
    for i in range(3, circ.length + 1):
        ks.append(_window_k(*circ.curves[i - 3:i]))  # g_i + g_{i-2} = k_i g_{i-1}, or None
        if ks[-1] is None:
            raise ValueError("curve %d does not satisfy the duality relation; "
                             "is the circuit normalized?" % i)
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
    if f.m == 0 and f.n == 0:
        if f.closure == "Spin0":
            return CanonicalForm(s2xs2=f.l + 1)
        return CanonicalForm(cp2=f.l + 1, cp2bar=f.l + 1)
    return CanonicalForm(cp2=f.m + f.l + 1, cp2bar=f.n + f.l + 1)


def classify(d) -> Classification:
    """Reduce a closed genus-1 circuit to length 2 and name the manifold.

    Prefers blow-up contractions (some cyclic coefficient is +-1) and
    falls back to stabilizations (a zero coefficient); a closed circuit
    of length >= 3 always admits one of the two, so anything else raises
    RuntimeError rather than guessing.  Both closures of the final
    length-2 circuit are materialized and deduplicated, giving one or
    two canonical forms.

    The reduction runs in one pass over two lists: the curves and ks,
    ks[j] being the coefficient of the cyclic window (j, j+1, j+2).  A
    window's coefficient is <x,y><y,z><x,z> whatever the curves' signs,
    so nothing is renormalized.  A contraction removes w curves (1 for a
    blow-up, 2 for a stabilization) and changes only the two windows
    that span the gap, as blowing down a Hirzebruch-Jung string does.
    A pattern that wraps the seam is rotated to the front first, as
    `contract` does, so the trace replays through `contract`.  The windows
    before a gap keep their coefficients, so each search for the first +-1
    or 0 resumes at the last gap: linear in c behind a long untouched run.
    """
    circ, mu = _unpack(d)
    if mu is not None:
        raise ValueError("classifier requires an untwisted diagram")
    if circ.genus != 1:
        raise ValueError("classifier requires genus 1")
    if not circ.closed:
        raise ValueError("classifier requires a closed circuit")
    report = validate(circ)
    if not report.ok:
        raise ValueError("invalid circuit: %s" % (report.failures[0],))

    # At genus 1 a window (x, y, z) with <x,y> = <y,z> = 1 has <y, x+z> = 0,
    # so z = k y - x with k = <x,z>: validate has checked the duality relation.
    # The seam windows read eps g_1, which pairs +1 on both sides, and the
    # sign-free <x,y><y,z><x,z> is that k.
    curves = list(circ.curves)
    ks = [_unoriented_k(curves, i) for i in range(len(curves))]
    l = m = n = 0  # the summands, counted
    trace = []
    lo, z = 0, 1  # ks[:lo] holds no +-1, ks[1:z] no 0
    while len(curves) > 2:
        c = len(curves)
        j = _index(ks, -1, _index(ks, 1, c, lo), lo)
        if j < c:
            w = 1
            det = Detection(kind="BlowUp", position=j + 1, exponent=-ks[j],
                            summand=_blowup_summand(-ks[j]))
        else:
            w = 2
            z = _index(ks, 0, c, z)
            j = z - 1  # the first j with ks[j + 1] == 0
            if j == c - 1 and ks[0] != 0:
                raise RuntimeError(
                    "closed genus-1 circuit of length %d with no coefficient in "
                    "{-1, 0, 1}; this contradicts the reducibility guarantee: %r"
                    % (c, normalize(curves, True).curves)
                )
            det = Detection(kind="Stabilization", position=j + 1, k=ks[j],
                            summand=_stab_summand(ks[j]))
        if j + w + 2 > c:  # the pattern wraps the seam
            curves = curves[j:] + curves[:j]
            ks = ks[j:] + ks[:j]
            j = 0
        del curves[j + w:j + 2 * w], ks[j + w:j + 2 * w]
        for i in (j + w - 2, j + w - 1):
            ks[i] = _unoriented_k(curves, i)
        lo, z = max(0, j + w - 2), max(1, min(z, j + w - 2))  # after a rotation j = 0
        delta = _DELTAS[det.summand]
        l, m, n = l + delta.l, m + delta.m, n + delta.n
        trace.append((len(trace) + 1, det, delta))

    total = SumForm(l, m, n)
    forms = frozenset(normalize_sum(total.with_closure(c)) for c in ("Spin0", "NonSpin1"))
    return Classification(canonical_forms=forms, reduction_trace=tuple(trace), counts=total)


def _index(seq, v, hi, lo=0):
    """The first index of v in seq[lo:hi], or hi when there is none."""
    try:
        return seq.index(v, lo, hi)
    except ValueError:
        return hi


def _unoriented_k(cs, i):
    """Coefficient of the cyclic window of genus-1 curves cs starting at i,
    as <x,y><y,z><x,z>, which no sign flip of x, y or z changes."""
    n = len(cs)
    (a, b), (p, q), (r, s) = cs[i % n], cs[(i + 1) % n], cs[(i + 2) % n]
    return (a * q - b * p) * (p * s - q * r) * (a * s - b * r)


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
