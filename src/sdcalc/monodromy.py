"""The boundary monodromy of a closed circuit, on homology.

The lift is the product of twists about the curves tau_{g_i}(g_{i+1}), rightmost factor first,
with the closing step using the eps-signed first curve.  It fixes the first curve up to the sign
(-1)^c eps, hence descends to the rank-(2g-2) quotient of its perp lattice -- the homology of the
surgered surface.  Above genus 1 one pass over the curves, `_axes`, makes the lift's axes (it pairs
only the closing pair of normalize's circuit._Chain), and `_twists` their checks and l2 growth bound,
with no word in between; the quotient basis, or for `mu_tilde_matrix` the identity, is packed into
one vector of big ints that runs through each twist once (see _run).  The action's coordinate rows
are read off that vector once; `verdict` decodes nothing, reading the first moved class off the
lowest set bit.  The quotient basis and its coordinate rows come from two one-row reductions on
sparse rows (Euclid carrying its column moves and their inverse row moves), so no identity or
matrix product is formed.  At genus 1 the quotient has rank 0: only the checks run (g_1 and every
axis primitive), and `mu_tilde_matrix` folds each axis's twist into four ints.  A non-identity
quotient action obstructs trivial monodromy; the converse direction is not decided here, so
verdicts are worded as necessary conditions.
"""

from collections import namedtuple
from itertools import compress
from operator import add, mul, sub

from .circuit import Circuit, _Chain, _Rec, _matrix_lines, _unpack
from .homology import _require_axis, canon_sign, genus_of, ident, is_primitive, pairing, pairing_functional


class SurgeredAction(_Rec, namedtuple("SurgeredAction", "base_class quotient_rank matrix basis")):
    """The action (rank 2g - 2) on the images of the basis classes."""

    __slots__ = ()


class Verdict(_Rec, namedtuple("Verdict", "kind witness", defaults=(None,))):
    """HomologicallyTrivial, or ObstructedOnHomology with a moved basis class."""

    __slots__ = ()

    @property
    def text(self) -> str:
        # necessary condition only -- never claim actual triviality
        if self.kind == "HomologicallyTrivial":
            return "not obstructed on homology"
        return "obstructed on homology: moves %r" % (self.witness,)


def _require_untwisted_closed(c) -> Circuit:
    circ, mu = _unpack(c)
    if mu is not None:
        raise ValueError("monodromy lift is only defined for untwisted diagrams")
    if not circ.closed:
        raise ValueError("monodromy lift needs a closed circuit")
    return circ


def mu_tilde_word(c):
    """Twist word of the lifted monodromy, rightmost factor first.

    The i-th axis is the class of tau_{g_i}(g_{i+1}), i.e.
    g_{i+1} + <g_i, g_{i+1}> g_i, taken cyclically with the eps-signed
    closing curve and sign-canonicalized (axes are unoriented).  The
    curves share one length (see _unpack), so the first decides the genus;
    at genus 1 the axis (y0 + p x0, y1 + p x1), p = x0 y1 - x1 y0, is built
    and canonicalized on scalars, above it comes from _axes.
    """
    circ = _require_untwisted_closed(c)
    if len(circ.curves[0]) != 2:
        return tuple([(canon_sign(v), 1) for v, _ in _axes(circ)])
    word = []
    x0, x1 = circ.curves[0]
    for y0, y1 in circ.extended(1)[1:]:
        p = x0 * y1 - x1 * y0
        a, b = y0 + p * x0, y1 + p * x1
        word.append(((a, b) if a > 0 or not a and b >= 0 else (-a, -b), 1))
        x0, x1 = y0, y1
    return tuple(word)


def _axes(circ):
    """(y + p x, p) for consecutive curves x, y of circ.extended(1), p = <x,y>.  Inside a circuit._Chain
    p = 1, so there only the closing pair (g_c, eps g_1) is paired: p = eps^2, +1 only when |eps| = 1."""
    ext, inner = circ.extended(1), len(circ.curves) if type(circ.curves) is _Chain else 0
    axes = []
    for i, (x, y) in enumerate(zip(ext, ext[1:]), 1):
        p = 1 if i < inner else pairing(x, y)
        axes.append((tuple(map(add, y, x) if p == 1 else map(sub, y, x) if p == -1
                           else map(add, y, map(p.__mul__, x))), p))
    return axes


def _twists(axes):
    """The vectors v of the axes (v, p), as _run takes them, and the growth prod (1 + |v|_2^2) of
    its width; y + p x pairs p with x, so only p not +-1 calls for the check, naming the canonical axis."""
    growth = 1
    for v, p in axes:
        if p != 1 and p != -1:
            _require_axis(canon_sign(v))
        growth *= 1 + sum(map(mul, v, v))
    return [v for v, _ in axes], growth


def _width(bound):
    """The least multiple w of 8 with 2^(w-1) > bound: the slot width for entries |e| <= bound."""
    return bound.bit_length() + 8 & -8


def _pack(xs, w):
    """The classes xs as one vector X of big ints, X[i] = sum_j xs[j][i] 2^(j w)."""
    X = [0] * len(xs[0])
    for j, x in enumerate(xs):
        for i in compress(range(len(x)), x):
            X[i] += x[i] << j * w
    return X


def _run(axes, X):
    """Twist the packed classes X in place about each axis v, index 0 first: X += <v,X> v.  Exact: a
    twist is Z-linear, so on X = sum_j x_j 2^(j w) it gives sum_j y_j 2^(j w), y_j the image of x_j,
    and so does an integer row r read off X after.  No slot spills: <v,.> is v signed and permuted, so
    |I + v <v,.>|_2 <= 1 + |v|_2^2, |y|_inf <= |y|_2 <= prod (1 + |v|_2^2) |x|_1 and
    |r.y| <= |r|_1 |y|_inf; w = _width of that product times max |x_j|_1 (and max |r|_1) makes every
    slot |e| < 2^(w-1).  So with _decode's bias every base-2^w digit e + 2^(w-1) lies in [0, 2^w), and
    a nonzero sum_j e_j 2^(j w), all |e_j| <= 2^(w-1), has its lowest set bit in the first e_j != 0."""
    for v in axes:
        if c := pairing(v, X):
            for j in compress(range(len(v)), v):
                X[j] += c * v[j]
    return X


def _decode(Ps, w, m):
    """The m slots of each packed int of Ps, a tuple each, read in balanced base 2^w (see _run)."""
    nb, half, read = w >> 3, 1 << w - 1, int.from_bytes
    bias = read((bytes(nb - 1) + b"\x80") * m, "little")
    return [tuple([read(d[k:k + nb], "little") - half for k in range(0, nb * m, nb)])
            for d in [(P + bias).to_bytes(nb * m, "little") for P in Ps]]


def mu_tilde_matrix(c):
    """Matrix of the lifted monodromy; fixes g_1 up to (-1)^c eps.  No word is built: above genus 1
    the packed identity, slot j the basis vector e_j, runs through the twists once and decodes into
    the rows; at genus 1 each axis (a, b) = y + p x, p = <x,y>, twists the columns (m00, m10) and
    (m01, m11) at once, checked only when p is not +-1 (see _twists)."""
    circ = _require_untwisted_closed(c)
    n = len(circ.curves[0])
    if n != 2:
        vs, growth = _twists(_axes(circ))
        w = _width(growth)  # |e_i|_1 = 1
        return tuple(_decode(_run(vs, [1 << i * w for i in range(n)]), w, n))
    (x0, x1), m00, m01, m10, m11 = circ.curves[0], 1, 0, 0, 1
    for y0, y1 in circ.extended(1)[1:]:
        p = x0 * y1 - x1 * y0
        a, b = y0 + p * x0, y1 + p * x1
        if p != 1 and p != -1:
            _require_axis(canon_sign((a, b)))
        t, u = a * m10 - b * m00, a * m11 - b * m01
        m00, m10, m01, m11 = m00 + t * a, m10 + t * b, m01 + u * a, m11 + u * b
        x0, x1 = y0, y1
    return (m00, m01), (m10, m11)


def _row_reduce(r, U, Ui):
    """Euclid on one integer row r, carrying its column moves into U and
    their inverses into Ui; returns (d, U, Ui) with d >= 0 the gcd of r.

    Each round moves the entry of least absolute value (the first on a
    tie) to the front and reduces every other entry by its floor quotient,
    until the rest are zero; then a negative d is negated.  U and Ui hold len(r) sparse rows
    {index: value} each (a value may be 0), updated in place: their rows are replaced, never
    written into, so rows may be shared, and a move costs the entries of the rows it reads.
    From identities {i: 1}, r U = (d, 0, ..., 0), U unimodular as its columns, Ui = U^-1 as its
    rows; from rows A and B, the results are that U applied to A (row i is sum_k U[i][k] A[k])
    and that Ui applied to B (sum_k Ui[i][k] B[k])."""
    h = list(r)
    while any(h[1:]):
        p = min((abs(x), j) for j, x in enumerate(h) if x)[1]
        h[0], h[p] = h[p], h[0]
        U[0], U[p] = U[p], U[0]
        Ui[0], Ui[p] = Ui[p], Ui[0]
        d, acc = h[0], dict(Ui[0])
        for j in range(1, len(h)):
            q = h[j] // d
            if q:
                h[j] -= q * d
                U[j] = {**U[j], **{k: U[j].get(k, 0) - q * t for k, t in U[0].items()}}
                for k, t in Ui[j].items():
                    acc[k] = acc.get(k, 0) + q * t
        Ui[0] = acc
    if h[0] < 0:
        h[0] = -h[0]
        U[0] = {k: -x for k, x in U[0].items()}
        Ui[0] = {k: -x for k, x in Ui[0].items()}
    return h[0], U, Ui


def _quotient(a):
    """(qbasis, rows) for primitive a: qbasis is len(a) - 2 classes whose images are a basis of the
    lattice a^perp / <a>; rows[0] reads <a,.>, and rows[1:] map any x with <a,x> = 0 to its
    coefficients over qbasis (dropping the a-component), each row as (index, value) pairs, index
    ascending.  Deterministic: reducing <a,.> from two sparse identities gives a basis K = U[1:] of
    a^perp and coordinate rows Ki = Ui[1:] over it.  Reducing a's coordinate row, carrying Ki and K,
    completes a to a basis of a^perp, a first: the column moves V turn Ki into the coordinate rows
    V^T Ki, and their inverse row moves turn K into that basis."""
    n = 2 * genus_of(a)
    d, U, Ui = _row_reduce(pairing_functional(a), [{i: 1} for i in range(n)], [{i: 1} for i in range(n)])
    if d != 1:  # <a,.> is onto Z exactly when a is primitive
        raise ValueError("quotient base class must be primitive, got %r" % (a,))
    # a is primitive in the saturated lattice a^perp, so this gcd is 1 and the basis starts with a
    _, rows, KP = _row_reduce([sum([v * a[i] for i, v in row.items()]) for row in Ui[1:]], Ui[1:], U[1:])
    qb = []
    for k in KP[1:]:
        q = [0] * n
        for i, v in k.items():
            q[i] = v
        qb.append(tuple(q))
    # <a,.>, then every coordinate row but a's, their nonzero entries
    return qb, [[(j, v) for j, v in sorted(row.items()) if v] for row in [Ui[0], *rows[1:]]]


def _lifted_coords(c):
    """(a, qbasis, rows, w): a = g_1, qbasis from _quotient and the surgered action's rows packed,
    slot j (w bits) of row r the r-th coordinate of the lift's image of qbasis[j].  A nonzero <a,.>
    row names the first image outside a^perp.  At genus 1 only the checks run (g_1, then every axis)."""
    circ = _require_untwisted_closed(c)
    a = circ.curves[0]
    if len(a) == 2:
        if not is_primitive(a):
            raise ValueError("quotient base class must be primitive, got %r" % (a,))
        ext = circ.extended(1)
        for (x0, x1), (y0, y1) in zip(ext, ext[1:]):
            p = x0 * y1 - x1 * y0
            if p != 1 and p != -1:  # the axis y + p x pairs p with x
                _require_axis(canon_sign((y0 + p * x0, y1 + p * x1)))
        return a, (), (), 8  # rank 0: nothing is packed
    qb, rows = _quotient(a)
    vs, growth = _twists(_axes(circ))
    growth *= max([sum(map(abs, q)) for q in qb]) * max([sum([abs(v) for _, v in row]) for row in rows])
    w = _width(growth)
    X = _run(vs, _pack(qb, w))
    off, *rows = [sum([v * X[j] for j, v in row]) for row in rows]
    if off:
        x = tuple(r[((off & -off).bit_length() - 1) // w] for r in _decode(X, w, len(qb)))
        raise ValueError("class %r does not pair to zero with %r" % (x, a))
    return a, qb, rows, w


def surgered_action(c) -> SurgeredAction:
    """The lifted monodromy's action on the surgered surface's homology, a^perp / <a> with a = g_1:
    the lift applied to the deterministic basis of _quotient, each image in its coordinates."""
    a, qb, rows, w = _lifted_coords(c)
    matrix = tuple(_decode(rows, w, len(qb))) if qb else ()  # rank 0 at genus 1
    return tuple.__new__(SurgeredAction, (a, len(qb), matrix, tuple(qb)))


def verdict(c) -> Verdict:
    """Necessary-condition check for trivial monodromy: HomologicallyTrivial when the induced
    quotient action is the identity (read: "not obstructed on homology"), otherwise the first moved
    basis class as a witness.  Nothing is decoded: packed row r is the identity's when it is 2^(r w),
    and the first moved class is the lowest slot set in any difference (see _run)."""
    _, qb, rows, w = _lifted_coords(c)
    moved = [((d & -d).bit_length() - 1) // w for r, x in enumerate(rows) if (d := x - (1 << r * w))]
    kind = ("ObstructedOnHomology", qb[min(moved)]) if moved else ("HomologicallyTrivial", None)
    return tuple.__new__(Verdict, kind)


def _verdict_of(act) -> Verdict:  # the report's, read off the action it prints (verdict skips the decode)
    cols = zip(*act.matrix)
    moved = [b for b, col, e in zip(act.basis, cols, ident(act.quotient_rank)) if col != e]
    if not moved:
        return tuple.__new__(Verdict, ("HomologicallyTrivial", None))
    return tuple.__new__(Verdict, ("ObstructedOnHomology", moved[0]))


def _monodromy_report(circ):  # the report of `sdcalc monodromy` (see cli)
    word, mat, act = mu_tilde_word(circ), mu_tilde_matrix(circ), surgered_action(circ)
    ver = _verdict_of(act)
    report = {"word": [{"axis": a, "exponent": e} for a, e in word], "matrix": mat,
              "surgered": {"base": act.base_class, "rank": act.quotient_rank, "basis": act.basis,
                           "matrix": act.matrix},
              "verdict": dict(ver._asdict(), text=ver.text)}
    text = ["lift word (rightmost first): %s" % " ".join(str(list(a)) for a, _ in word), "lift matrix:",
            *_matrix_lines(mat), "surgered action: rank %d" % act.quotient_rank, *_matrix_lines(act.matrix),
            "verdict: %s" % ver.text]
    return report, text, 0, circ.genus >= 2
