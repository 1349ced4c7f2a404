"""Handle data for the 4-manifold a circuit presents over the disk: fiber framings,
linking numbers of the fold handles, the symmetric linking matrix with its
rank/signature/parity, Euler characteristics, Kirby-diagram data, and broken-fibration
handle data (Lefschetz cycles plus a round cycle).  Rank and signature come from a
Schur sweep over the curves, the only elimination, so form_invariants takes a
LinkingMatrix: O(c) at genus 1, where it keeps only the last pivot row, O(c g^2)
above, where it reads the suffix spanners of the a-coordinates.  Attachment angles
are pure index order: curve i is attached before curve j exactly when i < j.
"""

import sys
from collections import namedtuple
from functools import cached_property
from itertools import chain
from operator import add, mul

from .circuit import _Rec, _same_length, _unpack
from .homology import genus_of, twist_apply


class LinkingMatrix:
    """Symmetric c x c integer matrix of a circuit: framings on the diagonal, linking
    numbers off it.  It keeps the curves and their framings, a*b on two ints at genus 1
    in O(c) and fiber_framing above in O(c g); rows() computes each row from the closed
    form in O(c g), and entries, the tuple of all rows, is built on first access.
    Equality, hash and repr are those of the entries."""

    def __init__(self, curves):  # fiber_framing raises on a zero class at every genus
        _same_length(curves)
        self.curves = curves
        self.framings = tuple([a * b if a or b else fiber_framing((a, b)) for a, b in curves]
                              if curves and len(curves[0]) == 2 else map(fiber_framing, curves))

    @cached_property
    def entries(self) -> tuple:
        return tuple(self.rows())

    @property
    def size(self) -> int:
        return len(self.curves)

    def check_printable(self):
        """Raise str()'s own ValueError now if an entry has more digits than
        sys.get_int_max_str_digits(), so that a caller can fail before it
        prints anything.  Every entry is at most g max|coef|^2, so the
        rows are read only when that bound is too long."""
        limit = sys.get_int_max_str_digits()
        top = max(map(abs, chain.from_iterable(self.curves)), default=0)
        if limit and top and len(self.curves[0]) // 2 * top * top >= 10 ** limit:
            for r in self.rows():
                str(min(r)), str(max(r))

    def rows(self):
        """Iterator over the rows, each from the closed form; it builds no entries."""
        cs = self.curves
        cols = list(zip(*cs))  # cols[2t]: a_t-coordinates, cols[2t + 1]: b_t-coordinates
        for i, v in enumerate(cs):
            left = list(map(v[0].__mul__, cols[1][:i]))
            right = list(map(v[1].__mul__, cols[0][i + 1:]))
            for t in range(2, len(v), 2):
                left = [s + v[t] * x for s, x in zip(left, cols[t + 1])]
                right = [s + v[t + 1] * x for s, x in zip(right, cols[t][i + 1:])]
            yield tuple(left + [self.framings[i]] + right)

    def __eq__(self, other):
        return self.entries == other.entries if isinstance(other, LinkingMatrix) else NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "LinkingMatrix(entries=%r)" % (self.entries,)


class FormInvariants(_Rec, namedtuple("FormInvariants", "rank signature parity")):
    __slots__ = ()  # parity: "Even" or "Odd"


class KirbyData(_Rec, namedtuple("KirbyData", "genus one_handles fiber_framing fold_handles "
                                 "last_handle linking")):
    """2g dotted-circle labels, fiber framing 0, fold handles (class, framing,
    1-based position), the meridian handle's framing or None, linking matrix."""

    __slots__ = ()


class BlfData(_Rec, namedtuple("BlfData", "lefschetz_cycles round_cycle")):
    """Lefschetz cycles (class, framing -1) and the round cycle (class, framing 0)."""

    __slots__ = ()


def fiber_framing(v) -> int:
    """fr(v) = sum of n_{ai} * n_{bi}; sign-invariant in v."""
    if len(v) % 2:
        genus_of(v)  # raises
    if not any(v):
        raise ValueError("zero class has no framing")
    return sum(map(mul, v[::2], v[1::2]))


def linking(x, i, y, j) -> int:
    """Linking number of curve x at attachment slot i with y at slot j.

    Closed form: the b-coordinates of the curve attached first dotted
    with the a-coordinates of the other, sum_t n_{bt}(first) n_{at}(second).
    Symmetric under swapping (x,i) with (y,j).
    """
    if i == j:
        raise ValueError("linking needs distinct attachment slots")
    if len(x) != len(y):
        raise ValueError("genus mismatch: %d vs %d" % (len(x), len(y)))
    genus_of(x)
    return sum(map(mul, x[1::2], y[::2])) if i < j else sum(map(mul, y[1::2], x[::2]))


def linking_matrix(c) -> LinkingMatrix:
    """Symmetric matrix with framings on the diagonal, linking numbers off it.

    With A and B the c x g matrices of a- and b-coordinates of the
    curves, entry (i, j) is B_i . A_j for i < j and B_j . A_i below the
    diagonal, so the off-diagonal part has rank at most g.  The matrix
    keeps the curves and their framings, O(c g): form_invariants reads
    this structure, rows() yields one row at a time, and the c x c
    entries are built only when read.
    """
    return LinkingMatrix(_unpack(c)[0].curves)


def form_invariants(m: LinkingMatrix) -> FormInvariants:
    """Rank, signature and parity of a linking matrix.

    Rank and signature come from a Schur sweep over the curves, in O(c) from
    the last pivot row at genus 1 (_sweep_torus), O(c g^2) above (_sweep_invariants),
    parity from the framings, and no entry is built.  Parity is Even iff
    every diagonal entry is even.
    """
    rank, sig, _ = (_sweep_torus if m.curves and len(m.curves[0]) == 2 else _sweep_invariants)(m.curves)
    parity = "Even" if all(t % 2 == 0 for t in m.framings) else "Odd"
    return tuple.__new__(FormInvariants, (rank, sig, parity))


def _dot(x, y):
    return sum(map(mul, x, y))


def _sweep_invariants(curves):
    """(rank, signature, number of far pivots) of the linking matrix of curves.

    With a_i and b_i the a- and b-coordinates of curve i, the matrix is
    L_ij = b_min(i,j) . a_max(i,j).  The sweep pivots at the first row k
    left and keeps the Schur complement of the rows left in the shape
    S_il = b~_i . a_l (i <= l), b~_i = b_i - M a_i + c_i, with one
    symmetric g x g rational M and c_i = 0 until a far pivot passes row
    i.  That is O(g^2) per row, O(c g^2) in all, plus O(g) per row passed:

    * p = S_kk != 0: a 1x1 pivot p, then M += b~_k b~_k^T / p;
    * p = 0, s = S_kj != 0 for j = k+1, or else for the first j with
      S_kj != 0 (a far pivot): the 2x2 pivot P = [[0, s], [s, t]] has one
      positive and one negative eigenvalue, then M += W P^-1 W^T with
      W = [b~_k, b~_j]; each row i left between k and j takes
      c_i += b~_k (b~_j . a_i - b~_i . a_j) / s, and row j is skipped;
    * otherwise row k is zero: it adds nothing, drop it.

    Shape: a pivot block F moves S_il by -S_iF P^-1 S_Fl.  If F lies
    before i, S_iF = W^T a_i and M's update is that move.  If i lies
    between k and j, S_iF = (0, y) with y = b~_i . a_j, so b~_i moves by
    -b~_k y / s, and M's update by -b~_k x / s with x = b~_j . a_i; c_i
    takes the difference.

    Skipped rows: every move of b~_i is by b~_f with f < i, so
    b~_i = b_i - rho_i B_E with rho_i = L_iE L_EE^-1, the multipliers that
    clear row i in the eliminated columns E, zero at each e in E after i.
    For those e, b~_i . a_e = L_ie - rho_i L_Ee = 0.  So the first j with
    b~_k . a_j != 0 is a row left, and row k is zero past k+1 iff b~_k is
    orthogonal to the suffix spanners after k+1, which span all a_l there.

    Integrality: with d > 0 the absolute determinant of L_EE, the product
    of the |det P|, the block inverse gives M = B_E^T L_EE^-1 B_E, so
    num = d M is integral, and so are u_i = d b~_i (d rho_i is a row of an
    adjugate) and d c_i = u_i - (d b_i - num a_i).  Every division below
    is exact.
    """
    a = [v[0::2] for v in curves]
    b = [v[1::2] for v in curves]
    c = len(a)
    g = len(a[0]) if c else 0
    num = [[0] * g for _ in range(g)]
    d = 1
    rank = sig = 0
    spanners = suffix_spanners(a)  # the a_j with these j >= m span all a_j with j >= m
    span_g = range(g)
    done = set()  # rows that a far pivot took out of order
    fix = {}  # row i: (d' c_i, d') for the d' at which c_i last changed

    def correction(i):  # d c_i
        return [d * y // fix[i][1] for y in fix[i][0]]

    def reduced(i):  # u_i = d b~_i
        u = [d * bt - _dot(row, a[i]) for bt, row in zip(b[i], num)]
        return list(map(add, u, correction(i))) if i in fix else u

    k = 0
    while k < c:
        if k in done:
            k += 1
            continue
        u = reduced(k)
        p = _dot(u, a[k])  # d times the pivot
        if p:
            sp = 1 if p > 0 else -1
            rank += 1
            sig += sp
            num = [[sp * (p * num[x][y] + u[x] * u[y]) // d for y in span_g] for x in span_g]
            d = abs(p)
            k += 1
            continue
        j = k + 1
        s = _dot(u, a[j]) if j < c else 0
        if not s:
            if not any(_dot(u, a[i]) for i in spanners if i > j):
                k += 1
                continue
            j = next(i for i in range(k + 2, c) if _dot(u, a[i]))
            s = _dot(u, a[j])
        w = reduced(j)
        t = _dot(w, a[j])
        if j > k + 1:
            z = [_dot(row, a[j]) for row in num]  # num a_j
            for i in range(k + 1, j):
                if i in done:
                    continue
                e = correction(i) if i in fix else [0] * g
                # x = d (b~_j . a_i - b~_i . a_j), as u_i = d b_i - num a_i + d c_i
                x = _dot(w, a[i]) - d * _dot(b[i], a[j]) + _dot(a[i], z) - _dot(e, a[j])
                fix[i] = [s * (s * et + ut * x) // (d * d) for et, ut in zip(e, u)], s * s // d
            done.add(j)
        rank += 2
        num = [[(s * s * num[x][y] - t * u[x] * u[y] + s * (u[x] * w[y] + w[x] * u[y]))
                 // (d * d) for y in span_g] for x in span_g]
        d = s * s // d
        k += 2 if j == k + 1 else 1
    return rank, sig, len(done)


def _sweep_torus(curves):
    """_sweep_invariants at genus 1, from the last pivot row (x, y) alone.

    M is a scalar, and a pivot sets it to b/a of its last row: a 1x1 pivot on row e
    gives M + b~_e^2 / (b~_e a_e) = b_e / a_e, a 2x2 one on (k, j), s = b~_k a_j and
    t = b~_j a_j, gives M + (t b~_k^2 - 2 s b~_k b~_j) / -s^2 = b_j / a_j.  So
    M = y / x from (x, y) = (1, 0), and S_kk = p a_k / x with p = x b_k - y a_k:
    * a_k != 0: a 1x1 pivot of sign sign(p a_k x) if p != 0, else b~_k = 0 and
      the row is zero; either way (x, y) becomes g_k;
    * a_k = 0 != b_k: S_kl = b_k a_l, a 2x2 pivot with the first j > k with
      a_j != 0, far if j > k + 1, and (x, y) becomes g_j.  Each row i between has
      b~_i = b_i, which the fix moves by -b~_k b_i a_j / s = -b_i: it is zero.
      With no such j, row k and all after it are zero;
    * otherwise the row is zero.
    """
    x, y, rank, sig, far, rows = 1, 0, 0, 0, 0, iter(curves)
    for a, b in rows:
        if a:
            p = x * b - y * a
            if p:
                rank, sig = rank + 1, sig + (1 if p * a * x > 0 else -1)
            x, y = a, b
        elif b:  # read on to row j, which becomes (x, y)
            for gap, (x, y) in enumerate(rows):
                if x:
                    break
            else:
                break
            rank, far = rank + 2, far + (gap > 0)
    return rank, sig, far


def suffix_spanners(vectors):
    """Indices j, in decreasing order, of the vectors not in the span of
    the vectors after them.

    For every m, the vectors at the returned indices >= m span all the
    vectors at indices >= m.  At most len(vectors[0]) indices; the scan
    stops once that many are found.
    """
    echelon = []  # (pivot, row); each row is zero at the pivots before it
    out = []
    for j in range(len(vectors) - 1, -1, -1):
        v = vectors[j]
        for p, w in echelon:
            if v[p]:
                v = [w[p] * x - v[p] * y for x, y in zip(v, w)]
        if any(v):
            echelon.append((next(t for t, x in enumerate(v) if x), v))
            out.append(j)
            if len(out) == len(v):
                break
    return out


def euler_characteristics(c):
    """(chi of the disk piece, chi of the closed total space or None).

    chi(Z) = 2 - 2g + c always; chi(X) = 6 - 4g + c when the circuit is
    closed (so 2 + c in genus 1), else None.
    """
    circ = _unpack(c)[0]
    g, n = circ.genus, circ.length
    return 2 - 2 * g + n, (6 - 4 * g + n if circ.closed else None)


def emit_kirby(c, section_k=None) -> KirbyData:
    """Handle set: 2g dotted circles, a 0-framed fiber handle, one
    fold handle per curve framed by its fiber framing, and optionally a
    k-framed meridian of the fiber handle (closed circuits only)."""
    circ = _unpack(c)[0]
    if section_k is not None and not circ.closed:
        raise ValueError("meridian handle only applies to a closed circuit")
    g = circ.genus
    labels = tuple(s % i for i in range(1, g + 1) for s in ("a%d", "b%d"))
    lm = linking_matrix(circ)
    folds = tuple(zip(lm.curves, lm.framings, range(1, circ.length + 1)))
    return KirbyData(genus=g, one_handles=labels, fiber_framing=0, fold_handles=folds,
                     last_handle=section_k, linking=lm)


def to_blf(c) -> BlfData:
    """Broken-fibration handle data of a closed circuit.

    The i-th Lefschetz cycle is the image of the next curve under the
    twist about the current one (the closing step uses the eps-signed
    first curve), each framed -1 against the fiber; the round cycle is
    the first curve with framing 0.  Homologically the first Lefschetz
    cycle slides to the second curve: lambda_1 - rho = g_2.
    """
    circ, mu = _unpack(c)
    if mu is not None:
        raise ValueError("broken-fibration data needs an untwisted diagram")
    if not circ.closed:
        raise ValueError("broken-fibration data needs a closed circuit")
    ext = circ.extended(1)
    if circ.genus == 1:  # tau_x(y) = y + <x,y> x on two ints
        cycles = tuple(((p + k * a, q + k * b), -1)
                       for (a, b), (p, q) in zip(ext, ext[1:]) for k in [a * q - b * p])
    else:
        cycles = tuple((twist_apply(x, 1, nxt), -1) for x, nxt in zip(ext, ext[1:]))
    return tuple.__new__(BlfData, (cycles, (ext[0], 0)))


# ---- the reports of `sdcalc info`, `blf` and `kirby`, compiled by no other CLI run (see cli)
_ROWS = "\0rows\0"  # the text line and JSON value that info's and kirby's matrix rows replace


def _framed(v, f):
    return {"class": v, "framing": f}


def _info_report(d):
    circ = d.circuit
    g, c = circ.genus, circ.length
    lm = linking_matrix(circ)
    inv = form_invariants(lm)
    chi_z, chi_x = euler_characteristics(circ)
    exactness = "Exact" if g == 1 else "HomologicalOnly"
    framings = list(lm.framings)
    report = {"genus": g, "length": c, "closed": circ.closed, "twisted": d.switch_matrix is not None,
              "exactness": exactness, "framings": framings, "linking_matrix": lm,
              # whether this equals the closed total space's signature is only verified for genus 1
              "form_invariants": dict(inv._asdict(), signature_conjectural=g >= 2),
              "euler": {"disk_piece": chi_z, "total_space": chi_x}}
    text = ["genus %d, length %d, %s, %s" % (g, c, "closed" if circ.closed else "open", exactness),
            "framings: %s" % (framings,), "linking matrix:", _ROWS,
            "form: rank %d, signature %d, parity %s%s" % (
                *inv, " (signature conjectural at this genus)" if g >= 2 else ""),
            "euler: disk piece %d, total space %s" % (chi_z, chi_x)]
    return report, text, 0, g >= 2


def _blf_report(circ):
    data = to_blf(circ)
    report = {"lefschetz_cycles": [_framed(v, f) for v, f in data.lefschetz_cycles],
              "round_cycle": _framed(*data.round_cycle)}
    text = ["round cycle: %s framing 0" % (list(data.round_cycle[0]),)] + [
        "  lefschetz %d: %s framing %d" % (i, list(v), f) for i, (v, f) in enumerate(data.lefschetz_cycles, 1)]
    return report, text, 0, circ.genus >= 2


def _kirby_report(circ, section):
    kd = emit_kirby(circ, section)
    last = kd.last_handle
    meridian = None if last is None else {"framing": last, "attached": "meridian of fiber handle"}
    report = {"genus": kd.genus, "one_handles": kd.one_handles, "fiber_handle": {"framing": kd.fiber_framing},
              "fold_handles": [dict(_framed(v, f), position=p) for v, f, p in kd.fold_handles],
              "last_handle": meridian, "linking_matrix": kd.linking}
    text = ["1-handles (dotted): %s" % ", ".join(kd.one_handles), "fiber handle: framing 0"]
    text += ["  fold handle %d: %s framing %d" % (p, list(v), f) for v, f, p in kd.fold_handles]
    text += [] if last is None else ["meridian handle: framing %d" % last]
    return report, text + ["linking matrix:", _ROWS], 0, kd.genus >= 2
