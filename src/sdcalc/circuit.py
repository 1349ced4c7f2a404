"""Circuits of curves on a surface, as ordered primitive homology classes.

A circuit is a sequence (g_1, ..., g_c) of primitive classes in which
adjacent classes pair to +1; it is *closed* when additionally
|<g_c, g_1>| = 1.  The closing sign eps = <g_c, g_1> is kept explicit
and never normalized away.  A diagram is a circuit plus an optional
"switch" matrix carried at the homology level; absent means untwisted.
A twisted diagram closes through the switch matrix instead, so its
circuit may have |<mu g_c, g_1>| = 1 while the plain closing pairing
is not a unit; eps is only meaningful for untwisted circuits.

Curves are unoriented: every operation here treats a class and its
negative as the same curve, and `normalize` only adjusts signs.
"""

import random
from collections import namedtuple
from math import gcd
from operator import neg

from .homology import genus_of, matvec, pairing, scale, sp_inv, twist_apply


CLIP = 40  # longest piece of the input that an error message echoes
MAX_STEPS = 10**5  # most moves `sdcalc generate` makes, so its work stays bounded


def _clip(s):
    return s if len(s) <= CLIP else s[:CLIP] + "..."


def _clip_int(n):
    """_clip(str(n)) without converting all of a long n, which str()
    refuses past sys.get_int_max_str_digits() digits."""
    a = abs(n)
    if a >= 10 ** (CLIP + 1):
        # keep the leading CLIP + 1 or more digits; bits * log10(2) <= digits
        a //= 10 ** (int(a.bit_length() * 0.30102999566) - CLIP - 1)
        n = -a if n < 0 else a
    return _clip(str(n))


def _matrix_lines(m):
    """The text rows of an integer matrix, as the CLI's reports print them."""
    return ("  " + " ".join(["%3d"] * len(r)) % tuple(r) for r in m)


class _Rec(tuple):
    """Namedtuple record base: equal only to a record of its own type."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):  # so _replace runs a record's own checks
        return cls(*iterable)


class Circuit:
    """Immutable; iterating, len() and indexing run over the curves."""

    __slots__ = __match_args__ = ("curves", "closed")

    def __init__(self, curves: tuple, closed: bool):
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "closed", closed)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not Circuit:
            return NotImplemented
        return self.curves == other.curves and self.closed == other.closed

    def __hash__(self):
        return hash((self.curves, self.closed))

    def __repr__(self):
        return "Circuit(curves=%r, closed=%r)" % (self.curves, self.closed)

    @property
    def genus(self) -> int:
        if not self.curves:
            raise ValueError("empty circuit")
        return genus_of(self.curves[0])

    @property
    def length(self) -> int:
        return len(self.curves)

    @property
    def eps(self) -> int:
        """Closing sign <g_c, g_1> of a closed circuit."""
        if not self.curves:
            raise ValueError("empty circuit")
        if not self.closed:
            raise ValueError("open circuit has no closing sign")
        return pairing(self.curves[-1], self.curves[0])

    def extended(self, k: int) -> tuple:
        """The curves followed by eps g_1, ..., eps g_k.

        This is the seam rule: past g_c a closed untwisted circuit goes
        on with its first curves signed by eps, so entry j + c - 1
        (0-based) continues the circuit cyclically.  Twisted diagrams
        close through their switch matrix instead and never read these
        entries.
        eps = 1 reuses curves[:k] as they are; any other eps scales each.
        """
        e, cs = self.eps, self.curves
        return cs + (cs[:k] if e == 1 else tuple([scale(e, v) for v in cs[:k]]))

    def __iter__(self):
        return iter(self.curves)

    def __len__(self):
        return len(self.curves)

    def __getitem__(self, i):
        return self.curves[i]


class Diagram(_Rec, namedtuple("Diagram", "circuit switch_matrix", defaults=(None,))):
    """A circuit with an optional switch matrix (None = untwisted).  The curves' common length
    and the matrix's shape are checked where a diagram enters a call (see _unpack); only `cli.parse`
    checks that it is symplectic: `is_symplectic` would cost O(g^3) per call, about 45 pairings at genus 5."""

    __slots__ = ()


class ValidationReport(_Rec, namedtuple("ValidationReport", "ok exactness failures",
                                        defaults=((),))):
    """exactness "Exact" at genus 1, else "HomologicalOnly"; failures: none or one (curve, reason)."""

    __slots__ = ()


class CurveError(ValueError):
    """A malformed circuit; curve is the 1-based index of the first
    offending curve, 0 when no single curve is at fault."""

    def __init__(self, message, curve=0):
        super().__init__(message)
        self.curve = curve


def _check_switch(mu, n):
    if mu is not None and (len(mu) != n or any(len(row) != n for row in mu)):
        raise ValueError("switch matrix must be %dx%d" % (n, n))


def _unpack(d):
    """(circuit, switch matrix or None) of a Circuit or Diagram, reading the curves once; ValueError,
    in O(c + g), if the circuit is empty, the first curve's length is odd or zero, a switch matrix is
    not 2g x 2g or the curves do not share one length, in that order."""
    circ, mu = d if isinstance(d, Diagram) else (d, None)
    cs = circ.curves
    n = len(cs[0]) if cs else 0
    if n % 2 or not n:
        circ.genus  # raises "empty circuit" or genus_of's message
    if mu is not None:
        _check_switch(mu, n)
    _same_length(cs)
    return circ, mu


def _same_length(curves):
    if len(set(map(len, curves))) > 1:
        raise ValueError("genus mismatch: curves of different lengths")


def _repack(d, circ):
    """circ as the same kind as d, keeping d's switch matrix."""
    return Diagram(circ, d.switch_matrix) if isinstance(d, Diagram) else circ


def normalize(raw, closed: bool, switch_matrix=None) -> Circuit:
    """Fix the orientation convention on a raw class list.

    Keeps the first class's sign and flips each successor whose pairing
    with its predecessor is -1.  The underlying unoriented sequence is
    unchanged.  Raises CurveError (a ValueError naming the curve) if any
    adjacent pairing is not +-1, any entry is non-primitive, genera
    disagree, or a closed circuit's final pairing is not +-1.  A twisted
    diagram closes through its switch matrix: pass it so the closing
    check reads <mu g_c, g_1>; it must be 2g x 2g (see Diagram).
    """
    return Circuit(_orient(raw, closed, switch_matrix), closed)


def _orient(raw, closed, switch_matrix):
    """normalize's checks and sign pass: the re-signed curves as a tuple."""
    raw = [tuple(v) for v in raw]
    if not raw:
        raise CurveError("empty circuit")
    if closed and len(raw) < 2:
        raise CurveError("closed circuit needs at least 2 curves")
    n = 2 * genus_of(raw[0])
    _check_switch(switch_matrix, n)
    out, p = _signed(raw) if len(raw) > 1 and len(set(map(len, raw))) == 1 else (raw, 0)
    if p is not None:  # gcd(x) divides <x,y> = +-1, so only a failed pass needs the per-curve checks
        for i, v in enumerate(raw, start=1):
            if len(v) != n:
                raise CurveError("curve %d: genus mismatch" % i, i)
            if gcd(*v) != 1:
                raise CurveError("curve %d: not primitive" % i, i)
        out, p = _signed(raw)
    if p is not None:
        raise CurveError("curves %d,%d: adjacent pairing %s, need +-1"
                         % (len(out), len(out) + 1, _clip_int(p)), len(out))
    if closed:
        last = out[-1] if switch_matrix is None else matvec(switch_matrix, out[-1])
        e = pairing(last, out[0])
        if abs(e) != 1:
            raise CurveError("closing pairing %s, need +-1 for a closed circuit" % _clip_int(e))
    return tuple(out)


def _signed(vs):
    """The one sign pass: (curves, None), vs[0] and then each curve signed to pair +1 with the one
    before; or, at the first pair whose pairing p is not +-1, (the curves up to its first, p).  The
    curves share one length; at genus 1 p = a*y - b*x on scalars; a curve pairing +1 is kept as is."""
    out = [vs[0]]
    if len(vs[0]) == 2:
        a, b = vs[0]
        for v in vs[1:]:
            x, y = v
            p = a * y - b * x
            if p == -1:
                v = x, y = -x, -y
            elif p != 1:
                return out, p
            out.append(v)
            a, b = x, y
        return out, None
    for v in vs[1:]:
        p = pairing(out[-1], v)
        if p == -1:
            v = tuple(map(neg, v))
        elif p != 1:
            return out, p
        out.append(v)
    return out, None


def validate(d) -> ValidationReport:
    """Report the first failure that `normalize` raises on d (mu's shape included, not its
    symplecticity: see Diagram), or else the first adjacent pairing of -1, which it flips.

    The failure is (curve, reason): the CurveError's curve, 0 if none, and its message
    less the "curve i: " prefix.  Genus 1 reports exactness "Exact": on the torus the
    homological data determines the curves.  Higher genus reports "HomologicalOnly" --
    every check is then a necessary condition, not a certificate.
    """
    circ, mu = d if isinstance(d, Diagram) else (d, None)
    curves = circ.curves
    exactness = "Exact" if curves and len(curves[0]) == 2 else "HomologicalOnly"
    try:
        out = _orient(curves, circ.closed, mu)
    except ValueError as exc:
        curve = getattr(exc, "curve", 0)
        reason = str(exc).partition(": ")[2] if curve else str(exc)
        return ValidationReport(False, exactness, ((curve, reason),))
    if out != curves:  # the first curve that normalize flipped pairs -1 with the one before
        i = next((i for i, (u, v) in enumerate(zip(out, curves)) if u != tuple(v)), 0)
        if i:
            return ValidationReport(False, exactness, ((i, "adjacent pairing -1, need +1"),))
    return tuple.__new__(ValidationReport, (True, exactness, ()))


def switch(d, k: int = 1):
    """Rotate the reference point of a closed diagram k times.

    One forward switch maps (g_1, ..., g_c) to (mu g_c, g_1, ..., g_{c-1})
    and renormalizes signs; negative k applies the inverse.  The switch
    matrix itself is unchanged.  Accepts a Circuit or a Diagram and
    returns the same kind.

    A curve that crosses the seam takes one map: mu going forward, mu^-1 back, none
    when untwisted.  With |k| = q c + r + 1, 0 <= r < c, this takes one single switch
    (which checks and normalizes the input), rotates r more slots at once and turns q
    times by mu^(+-q) (see sdcalc._power): O(c + log|k|) matrix work, not O(|k| c).
    The closing sign e = <mu g_c, g_1> is the same after every switch, so r forward
    switches put e^(r-1) on the first curve, and q turns e^(q(c-1)) forward, e^q back.
    Twisted, the final `normalize` signs the rest; untwisted, no second `normalize`
    runs: the head of the rotation, up to the old seam, takes that sign, and the rest
    e times it.  Like sp_inv, this reads mu as symplectic; only its shape is checked.
    """
    circ, mu = _unpack(d)
    if not circ.closed:
        raise ValueError("switch needs a closed circuit")
    cur = list(circ.curves)
    if k:
        m = mu if mu is None or k > 0 else sp_inv(mu)  # the map a curve takes across the seam
        cross = list if m is None else (lambda vs: [matvec(m, v) for v in vs])
        def turn(cur, s):  # s slots in k's direction, 0 < s < c
            return cross(cur[-s:]) + cur[:-s] if k > 0 else cur[s:] + cross(cur[:s])
        q, r = divmod(abs(k) - 1, len(cur))  # |k| = q c + r + 1, 0 <= r < c
        cur = list(normalize(turn(cur, 1), True, mu).curves)
        e = pairing(cur[-1] if mu is None else matvec(mu, cur[-1]), cur[0])
        sign = e ** (q * (len(cur) - 1) + (r - 1 if r else 0) if k > 0 else q)
        cur = turn(cur, r) if r else cur
        if m is None:  # the rotation pairs +1 in turn, but e across the old seam after slot t (c if r = 0)
            t = r if k > 0 and r else len(cur) - r
            return _repack(d, Circuit(_signs(sign, cur[:t]) + _signs(sign * e, cur[t:]), True))
        if q:  # the one path that compiles the power rule
            from ._power import _turns
            t = _turns(m, q, cur)
            cur = [matvec(t, v) for v in cur]
        cur[0] = scale(sign, cur[0])
    return _repack(d, normalize(cur, True, mu))


def _signs(s, vs):  # the curves vs times s = +-1, as a tuple
    return tuple(vs) if s == 1 else tuple([scale(s, v) for v in vs])


def double(c: Circuit) -> Circuit:
    """The closed circuit (g_1, ..., g_l, g_{l-1}, ..., g_2) of length 2l-2."""
    circ = _unpack(c)[0]
    l = len(circ.curves)
    if l < 2:
        raise ValueError("double needs length >= 2")
    return normalize(circ.curves + circ.curves[-2:0:-1], True)


def generate(seed: int, steps: int):
    """Seeded random closed genus-1 circuit with exactly known sum form.

    Starts from the standard dual pair and applies `steps` moves, each a
    blow-up insertion with exponent +-1 or a stabilization insertion
    with k in [-3, 3], at a random interior pair.  Interior positions
    keep the bookkeeping exact: each move changes the linking form by
    the corresponding standard block, so the returned SumForm counts
    are not just expected values but theorems about the output.  A +1
    blow-up adds CP2bar (n), a -1 blow-up CP2 (m), an even stabilization
    S2xS2 (l), an odd one CP2 # CP2bar (m and n).

    The moves insert into a plain list and the signs are fixed by one
    `normalize` at the end, so a circuit of length c costs O(c) per
    move, not a renormalization of the whole circuit.  The list is the
    circuit up to per-curve signs: every move sits at an interior pair,
    so the first curve is never touched, and the inserted
    tau_y^k(x) = x + k<y,x>y changes sign only with x.  `normalize`,
    which keeps the first curve's sign, fixes the rest.

    Returns (circuit, SumForm) where the sum form has closure
    "Unclosed" (the closure summand is only chosen when classifying).
    """
    from .genus1 import SumForm

    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    cs = [(1, 0), (0, 1)]  # the standard dual pair
    l = m = n = 0
    for _ in range(steps):
        pos = rng.randint(1, len(cs) - 1)
        x, y = cs[pos - 1], cs[pos]
        if rng.random() < 0.5:
            e = rng.choice([1, -1])
            cs.insert(pos, twist_apply(y, e, x))
            m, n = m + (e == -1), n + (e == 1)
        else:
            k = rng.randint(-3, 3)
            cs[pos + 1:pos + 1] = [twist_apply(y, k, x), y]
            l, m, n = l + (k % 2 == 0), m + k % 2, n + k % 2
    return normalize(cs, True), SumForm(l, m, n, "Unclosed")
