"""Handle data for the 4-manifold a circuit presents over the disk.

The fiber framing of a curve, pairwise linking numbers of the fold
handles, the symmetric linking matrix with its rank/signature/parity,
Euler characteristic bookkeeping, Kirby-diagram data, and the
conversion to broken-fibration handle data (Lefschetz cycles plus a
round cycle).  Rank and signature come from a Schur sweep over the
curves, which needs the suffix spanners of the a-coordinates, with a
fraction-free (Bareiss) congruence as the fallback for any other
symmetric matrix and for a degenerate Schur block.

Attachment angles are pure index order: curve i is attached before
curve j exactly when i < j.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cached_property
from itertools import chain
from operator import mul

from .circuit import _Rec, _as_circuit
from .homology import twist_apply


class LinkingMatrix:
    """Symmetric c x c integer matrix: framings on the diagonal, linking
    numbers off it.

    LinkingMatrix(entries) holds the rows it is given.  linking_matrix(c)
    keeps the circuit's curves and their framings instead: rows() computes
    each row from the closed form in O(c g), and entries, the tuple of all
    rows, is built on first access.  Equality, hash and repr are those of
    the entries.
    """

    def __init__(self, entries=None, curves=None):
        if entries is None and curves is None:
            raise TypeError("LinkingMatrix needs entries or curves")
        if entries is not None:
            self.entries = entries  # an instance value hides the lazy property
        self.curves = curves
        self.framings = None if curves is None else tuple(map(fiber_framing, curves))

    @cached_property
    def entries(self) -> tuple:
        return tuple(self._closed_form_rows())

    @property
    def size(self) -> int:
        return len(self.entries if self.curves is None else self.curves)

    def rows(self):
        """Iterator over the rows; from the curves it builds no entries."""
        if self.curves is None or "entries" in vars(self):
            return iter(self.entries)
        return self._closed_form_rows()

    def check_printable(self):
        """Raise str()'s own ValueError now if an entry has more digits than
        sys.get_int_max_str_digits(), so that a caller can fail before it
        prints anything.  From the curves every entry is at most
        g max|coef|^2, so the rows are read only when that bound is too long."""
        limit = sys.get_int_max_str_digits()
        if not limit:
            return
        if self.curves is not None:
            top = max(map(abs, chain.from_iterable(self.curves)))
            if len(self.curves[0]) // 2 * top * top < 10 ** limit:
                return
        for r in self.rows():
            str(min(r)), str(max(r))

    def _closed_form_rows(self):
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
        if not isinstance(other, LinkingMatrix):
            return NotImplemented
        return self.entries == other.entries

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
    if all(t == 0 for t in v):
        raise ValueError("zero class has no framing")
    return sum(v[i] * v[i + 1] for i in range(0, len(v), 2))


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
    if i > j:
        x, y = y, x
    return sum(x[t + 1] * y[t] for t in range(0, len(x), 2))


def linking_matrix(c) -> LinkingMatrix:
    """Symmetric matrix with framings on the diagonal, linking numbers off it.

    With A and B the c x g matrices of a- and b-coordinates of the
    curves, entry (i, j) is B_i . A_j for i < j and B_j . A_i below the
    diagonal, so the off-diagonal part has rank at most g.  The matrix
    keeps the curves and their framings, O(c g): form_invariants reads
    this structure, rows() yields one row at a time, and the c x c
    entries are built only when read.
    """
    return LinkingMatrix(curves=_as_circuit(c).curves)


def form_invariants(m) -> FormInvariants:
    """Rank, signature and parity of a symmetric integer matrix.

    A LinkingMatrix that carries its curves goes through a Schur sweep
    in O(c g^2) (see _sweep_invariants) and takes its diagonal from the
    framings, without building the entries; any other matrix goes
    through exact fraction-free congruence diagonalization in O(c^3).
    Parity is Even iff every diagonal entry is even.
    """
    if isinstance(m, LinkingMatrix) and m.curves is not None:
        rank, sig = _sweep_invariants(m.curves)
        diagonal = m.framings
    else:
        entries = m.entries if isinstance(m, LinkingMatrix) else tuple(tuple(r) for r in m)
        rank, sig = symmetric_invariants(entries)
        diagonal = [entries[i][i] for i in range(len(entries))]
    parity = "Even" if all(t % 2 == 0 for t in diagonal) else "Odd"
    return FormInvariants(rank=rank, signature=sig, parity=parity)


def _dot(x, y):
    return sum(map(mul, x, y))


def _sweep_invariants(curves):
    """(rank, signature) of the linking matrix of curves.

    With a_i and b_i the a- and b-coordinates of curve i, the matrix is
    L_ij = b_min(i,j) . a_max(i,j).  Eliminating the rows in order keeps
    that shape: the Schur complement after the first k rows is
    b~_min . a_max  with  b~_i = b_i - M a_i  for one symmetric g x g
    rational M.  So each row costs O(g^2), O(c g^2) in all:

    * p = b~_k . a_k != 0: a 1x1 pivot p, then M += b~ b~^T / p;
    * p = 0, s = b~_k . a_{k+1} != 0: the 2x2 pivot P = [[0, s], [s, t]]
      has one positive and one negative eigenvalue, then M += W P^-1 W^T
      with W = [b~_k, b~_{k+1}];
    * the rest of row k is zero too: row k adds nothing, drop it;
    * otherwise the remaining Schur block goes to symmetric_invariants,
      which is cubic in the size of that block.

    M is kept fraction-free as num / d, with d > 0 the absolute
    determinant of the pivots taken so far.  d M is then an adjugate
    expression in integer matrices, so num is integral and every
    division below is exact; so is u_i = d b~_i.
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

    def reduced(i):
        return [d * bt - _dot(row, a[i]) for bt, row in zip(b[i], num)]

    k = 0
    while k < c:
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
        s = _dot(u, a[k + 1]) if k + 1 < c else 0
        if s:
            w = reduced(k + 1)
            t = _dot(w, a[k + 1])
            rank += 2
            num = [[(s * s * num[x][y] - t * u[x] * u[y] + s * (u[x] * w[y] + w[x] * u[y]))
                     // (d * d) for y in span_g] for x in span_g]
            d = s * s // d
            k += 2
            continue
        if not any(_dot(u, a[j]) for j in spanners if j > k + 1):
            k += 1
            continue
        # the block from row k on, scaled by d: u_min . a_max
        rest = [reduced(i) for i in range(k, c)]
        m = c - k
        block = [[_dot(rest[min(i, j)], a[k + max(i, j)]) for j in range(m)] for i in range(m)]
        r2, s2 = symmetric_invariants(block)
        return rank + r2, sig + s2
    return rank, sig


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


def symmetric_invariants(entries):
    """(rank, signature) of an integer symmetric matrix.

    Fraction-free two-sided elimination: each step performs the exact
    Bareiss update (p*B[i][j] - B[i][k]*B[k][j]) / p_prev; zero diagonals
    are resolved by symmetric permutation, or by a row+column addition
    when the whole remaining diagonal vanishes (a hyperbolic block,
    which contributes one positive and one negative pivot).  The true
    k-th pivot has the sign of d_k * d_{k-1}.  Every division is exact:
    both moves are congruences, so entries stay bordered minors (Sylvester).
    """
    n = len(entries)
    B = [list(row) for row in entries]
    D = 1
    rank = 0
    sig = 0
    act = 0
    while act < n:
        piv = next((j for j in range(act, n) if B[j][j] != 0), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(act, n) for j in range(i + 1, n) if B[i][j] != 0),
                None,
            )
            if off is None:
                break  # remaining block is zero
            i, j = off
            for t in range(act, n):
                B[i][t] += B[j][t]
            for t in range(act, n):
                B[t][i] += B[t][j]
            piv = i
        if piv != act:
            B[act], B[piv] = B[piv], B[act]
            for t in range(n):
                B[t][act], B[t][piv] = B[t][piv], B[t][act]
        p = B[act][act]
        rank += 1
        sig += 1 if (p > 0) == (D > 0) else -1
        Ba = B[act]
        for i in range(act + 1, n):
            Bi = B[i]
            bia = Bi[act]
            for j in range(act + 1, n):
                Bi[j] = (p * Bi[j] - bia * Ba[j]) // D
        D = p
        act += 1
    return rank, sig


def euler_characteristics(c, closed=None):
    """(chi of the disk piece, chi of the closed total space or None).

    chi(Z) = 2 - 2g + c always; chi(X) = 6 - 4g + c when the circuit is
    closed (so 2 + c in genus 1), else None.
    """
    circ = _as_circuit(c)
    if closed is None:
        closed = circ.closed
    g = circ.genus
    n = circ.length
    chi_z = 2 - 2 * g + n
    chi_x = 6 - 4 * g + n if closed else None
    return chi_z, chi_x


def emit_kirby(c, section_k=None) -> KirbyData:
    """Handle set: 2g dotted circles, a 0-framed fiber handle, one
    fold handle per curve framed by its fiber framing, and optionally a
    k-framed meridian of the fiber handle (closed circuits only)."""
    circ = _as_circuit(c)
    if section_k is not None and not circ.closed:
        raise ValueError("meridian handle only applies to a closed circuit")
    g = circ.genus
    labels = []
    for i in range(1, g + 1):
        labels.extend(["a%d" % i, "b%d" % i])
    lm = linking_matrix(circ)
    folds = tuple(zip(lm.curves, lm.framings, range(1, circ.length + 1)))
    return KirbyData(
        genus=g,
        one_handles=tuple(labels),
        fiber_framing=0,
        fold_handles=folds,
        last_handle=section_k,
        linking=lm,
    )


def to_blf(c) -> BlfData:
    """Broken-fibration handle data of a closed circuit.

    The i-th Lefschetz cycle is the image of the next curve under the
    twist about the current one (the closing step uses the eps-signed
    first curve), each framed -1 against the fiber; the round cycle is
    the first curve with framing 0.  Homologically the first Lefschetz
    cycle slides to the second curve: lambda_1 - rho = g_2.
    """
    circ = _as_circuit(c)
    if not circ.closed:
        raise ValueError("broken-fibration data needs a closed circuit")
    ext = circ.extended(1)
    cycles = tuple((twist_apply(x, 1, nxt), -1) for x, nxt in zip(ext, ext[1:]))
    return BlfData(lefschetz_cycles=cycles, round_cycle=(ext[0], 0))
