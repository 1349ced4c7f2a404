"""Random circuit builders shared across the test modules.

Curves meeting the next curve once are produced by solving the pairing
equation over the integers, so chains and closed circuits of any genus
can be sampled without rejection storms.  Also the reference
classifiers that genus1.classify is compared against, with the
three-curve duality check `_window_coefficients` they read and, for
`classify_by_rescan`, the list search `_index` and the curve-reading
window coefficient `_unoriented_k`, kept here so that the oracle runs
none of the code it checks; the
move-by-move reference for the seeded generator, the eager linking
matrix, the fraction-free (Bareiss) rank and signature that the Schur
sweep of handles.form_invariants is compared against, the genus-2
family whose sweep needs a far pivot, the matrix-based surgered action
and verdict, the window-by-window detector that subst.detect is
compared against, the two-branch `contract_by_kind` (with its
`rotate_to_front`) that subst.contract is compared against, both on
the per-kind window matchers `_window_blowup_exponent` and
`_window_stab_power` in place of subst's one window coefficient, and the
matrix-product forms of is_symplectic, sp_inv and delta_twist, built on
the pairing matrix `jmat`, that homology's closed forms are compared
against, and the seam-rule forms of apply_blowup and apply_stabilization,
which read x and y from `Circuit.extended(1)`, and the sign pass of
normalize and of subst's windows on the generic pairing
(`orient_by_pairing`, `norm_window_by_pairing`) that circuit._signed,
with its genus-1 branch on scalars, is compared against, with the
inputs `sign_pass_cases` that normalize and classify's own pairing
checks are compared on, and `curve_fault_cases`, per-curve faults a
sign pass stops short of or never reaches.  The general
column-echelon reduction `colreduce` backs `solve_int`, and
`quotient_basis_by_echelon`, built on two of its passes, is the
reference for `quotient_basis`, monodromy._quotient's basis with the
coordinate reader `coords` on its rows.  `recorded_widths` records the
slot widths of monodromy's packed lift so that tests can hold every
true entry below 2^(w-1).  `unmarked` rebuilds a circuit or diagram on
a plain tuple of its curves, without the mark (circuit._Chain) that
normalize leaves, so that every call can be run both ways.
"""

import operator
import random
from contextlib import contextmanager
from math import gcd
from operator import mul, sub
from unittest import mock

from sdcalc import monodromy
from sdcalc._power import matmul
from sdcalc.circuit import (Circuit, CurveError, Diagram, _check_switch, _clip_int, _repack, _unpack,
                            normalize)
from sdcalc.genus1 import Classification, SumForm, _DELTAS, normalize_sum
from sdcalc.handles import fiber_framing
from sdcalc.homology import (_require_axis, add, canon_sign, genus_of, ident, matvec, pairing,
                             pairing_functional, scale, transpose, twist_apply, twist_matrix)
from sdcalc.monodromy import SurgeredAction, Verdict, _quotient, _require_untwisted_closed
from sdcalc.subst import (
    Detection,
    _blowup_summand,
    _check_pos,
    _stab_summand,
    _stale,
    apply_blowup,
    apply_stabilization,
    contract,
)


def colreduce(rows):
    """Column-echelon reduction over Z.

    Returns (H, U, Uinv) with A*U = H, U unimodular, H in column
    echelon form with positive leading entries.  Rows of Uinv are the
    coordinates of the standard basis over U's columns.
    """
    m = len(rows)
    n = len(rows[0])
    H = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Ui = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop_add(src, dst, c):
        # col dst += c * col src; inverse tracked on Ui rows
        for t in range(m):
            H[t][dst] += c * H[t][src]
        for t in range(n):
            U[t][dst] += c * U[t][src]
        for t in range(n):
            Ui[src][t] -= c * Ui[dst][t]

    def colop_swap(i, j):
        for t in range(m):
            H[t][i], H[t][j] = H[t][j], H[t][i]
        for t in range(n):
            U[t][i], U[t][j] = U[t][j], U[t][i]
        Ui[i], Ui[j] = Ui[j], Ui[i]

    def colop_neg(i):
        for t in range(m):
            H[t][i] = -H[t][i]
        for t in range(n):
            U[t][i] = -U[t][i]
        for t in range(n):
            Ui[i][t] = -Ui[i][t]

    row = 0
    col = 0
    while row < m and col < n:
        while True:
            nz = [j for j in range(col, n) if H[row][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(H[row][j]))
            if jmin != col:
                colop_swap(col, jmin)
            done = all(H[row][j] % H[row][col] == 0 for j in nz)
            for j in range(col, n):
                if j != col and H[row][j] != 0:
                    colop_add(col, j, -(H[row][j] // H[row][col]))
            if done:
                break
        if H[row][col] != 0:
            if H[row][col] < 0:
                colop_neg(col)
            col += 1
        row += 1
    return H, U, Ui


def quotient_basis(a):
    """monodromy._quotient's basis with coordinates: (qbasis, coords), where
    coords maps any x with <a,x> = 0 to its coefficient vector over qbasis
    by the rows of _quotient, and names x when <a,x> != 0."""
    qb, rows = _quotient(a)

    def coords(x):
        if len(x) != len(a):
            raise ValueError("genus mismatch")
        w = [sum([v * x[j] for j, v in row]) for row in rows]
        if w[0]:
            raise ValueError("class %r does not pair to zero with %r" % (x, a))
        return tuple(w[1:])

    return qb, coords


@contextmanager
def recorded_widths():
    """Record every slot width that monodromy._width returns, so that a test can hold the packed
    lift's entries to 2^(w-1)."""
    seen, width = [], monodromy._width

    def record(bound):
        seen.append(width(bound))
        return seen[-1]

    with mock.patch.object(monodromy, "_width", record):
        yield seen


def quotient_basis_by_echelon(a):
    """Basis of the lattice a^perp / <a> for primitive a, with coordinates.

    Returns (qbasis, coords): qbasis is a list of len(a)-2 classes whose
    images form a basis of the quotient, and coords maps any x with
    <a,x> = 0 to its coefficient vector over that basis (discarding the
    a-component).  Deterministic: built from the echelon kernel of the
    pairing functional, then a unimodular completion putting a first.
    """
    n = len(a)
    H, U, Ui = colreduce([pairing_functional(a)])
    if H[0][0] != 1:
        # <a,.> is onto Z exactly when a is primitive
        raise ValueError("quotient base class must be primitive, got %r" % (a,))
    # write a in U-coordinates; it lies in the kernel part (columns 1..n-1)
    w = [sum(Ui[i][j] * a[j] for j in range(n)) for i in range(n)]
    assert w[0] == 0, "base class not in its own perp"
    m = n - 1
    # second reduction: w[1:] V = (1, 0, ..., 0), so P = V^T maps it to e_1
    h, V, Vinv = colreduce([w[1:]])
    assert h[0][0] == 1, "completion failed"

    # kernel lattice basis K = U[:, 1:]; quotient basis = columns 1.. of K P^-1
    # with P^-1 = Vinv^T (column 0 of K P^-1 is a itself)
    KP = [[sum(U[i][1 + t] * Vinv[j][t] for t in range(m)) for j in range(m)] for i in range(n)]
    first = tuple(KP[i][0] for i in range(n))
    assert first == tuple(a), "completion lost the base class"
    qbasis = [tuple(KP[i][j] for i in range(n)) for j in range(1, m)]

    def coords(x):
        if len(x) != n:
            raise ValueError("genus mismatch")
        w = [sum(Ui[i][j] * x[j] for j in range(n)) for i in range(n)]
        if w[0] != 0:
            raise ValueError("class %r does not pair to zero with %r" % (x, a))
        return tuple(sum(V[t][i] * w[1 + t] for t in range(m)) for i in range(1, m))

    return qbasis, coords


def solve_int(rows, b):
    """One integer solution of A x = b plus a kernel basis, or (None, None).

    Works by forward substitution on the column echelon form: with
    A U = H echelon, solve H y = b, then x = U y; the trailing columns
    of U span the kernel lattice.
    """
    m = len(rows)
    n = len(rows[0])
    H, U, _ = colreduce(rows)
    y = [0] * n
    used = 0
    for row in range(m):
        val = b[row] - sum(H[row][j] * y[j] for j in range(used))
        if used < n and H[row][used] != 0:
            if val % H[row][used] != 0:
                return None, None
            y[used] = val // H[row][used]
            used += 1
        elif val != 0:
            return None, None
    x = tuple(sum(U[i][j] * y[j] for j in range(n)) for i in range(n))
    kernel = [tuple(U[i][j] for i in range(n)) for j in range(used, n)]
    return x, kernel


def rand_primitive(rng, genus, lim=4):
    """A random primitive class of the given genus, entries in [-lim, lim]."""
    if genus < 1 or lim < 1:  # no entry or only zeros: no draw is primitive
        raise ValueError("rand_primitive needs genus >= 1 and lim >= 1, got %r, %r" % (genus, lim))
    while True:
        v = tuple(rng.randint(-lim, lim) for _ in range(2 * genus))
        if any(v) and gcd(*v) == 1:
            return v


def rand_next(rng, x, lim=3):
    """A random y with pairing(x, y) == +1 (such y is always primitive)."""
    y, kernel = solve_int([pairing_functional(x)], [1])
    assert y is not None, "pairing functional of a primitive class is onto"
    for k in kernel:
        y = add(y, scale(rng.randint(-lim, lim), k))
    return y


def rand_paired(rng, x, p, lim=3):
    """A random primitive y with pairing(x, y) == p, for a primitive x."""
    y0, kernel = solve_int([pairing_functional(x)], [p])
    for _ in range(1000):
        y = y0
        for k in kernel:
            y = add(y, scale(rng.randint(-lim, lim), k))
        if gcd(*y) == 1:
            return y
    raise AssertionError("no primitive class pairs %d with %r" % (p, x))


def result_or_error(f, *args):
    """f(*args), or the type, message and `curve` attribute (None if absent) of
    the ValueError it raised: what differential tests of error paths compare."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "curve", None)


def unmarked(d):
    """The same Circuit or Diagram, its curves rebuilt with tuple(curves): equal to d, but not
    a circuit._Chain, so every call on it pairs what it reads instead of trusting the mark."""
    circ, mu = d if isinstance(d, Diagram) else (d, None)
    plain = Circuit(tuple(circ.curves), circ.closed)
    return Diagram(plain, mu) if isinstance(d, Diagram) else plain


def rand_chain(rng, genus, length, lim=3):
    curves = [rand_primitive(rng, genus, lim)]
    while len(curves) < length:
        curves.append(rand_next(rng, curves[-1], lim))
    return normalize(curves, False)


def rand_closed(rng, genus, length, lim=3) -> Circuit:
    """A random closed circuit; the last curve solves both closure pairings."""
    assert length >= 2
    for _ in range(1000):
        chain = rand_chain(rng, genus, length - 1, lim)
        eps = rng.choice((1, -1))
        rows = [pairing_functional(chain[-1]), pairing_functional(chain[0])]
        last, kernel = solve_int(rows, [1, eps])
        if last is None:
            continue
        for k in kernel:
            last = add(last, scale(rng.randint(-lim, lim), k))
        if pairing(chain[-1], last) != 1 or abs(pairing(last, chain[0])) != 1:
            continue
        return normalize(list(chain.curves) + [last], True)
    raise AssertionError("could not close a circuit (genus %d, length %d)" % (genus, length))


def orient_by_pairing(raw, closed, switch_matrix):
    """Reference for circuit._orient (normalize's checks and sign pass): one
    generic `pairing` call per adjacent pair at every genus, and a
    `scale(-1, v)` for each curve it flips."""
    raw = [tuple(v) for v in raw]
    if not raw:
        raise CurveError("empty circuit")
    if closed and len(raw) < 2:
        raise CurveError("closed circuit needs at least 2 curves")
    n = 2 * genus_of(raw[0])
    _check_switch(switch_matrix, n)
    for i, v in enumerate(raw, start=1):
        if len(v) != n:
            raise CurveError("curve %d: genus mismatch" % i, i)
        if gcd(*v) != 1:
            raise CurveError("curve %d: not primitive" % i, i)
    out = [raw[0]]
    for i, v in enumerate(raw[1:], start=2):
        p = pairing(out[-1], v)
        if p == 1:
            out.append(v)
        elif p == -1:
            out.append(scale(-1, v))
        else:
            raise CurveError("curves %d,%d: adjacent pairing %s, need +-1"
                             % (i - 1, i, _clip_int(p)), i - 1)
    if closed:
        last = out[-1] if switch_matrix is None else matvec(switch_matrix, out[-1])
        e = pairing(last, out[0])
        if abs(e) != 1:
            raise CurveError("closing pairing %s, need +-1 for a closed circuit" % _clip_int(e))
    return tuple(out)


def sign_pass_cases(rng, genus):
    """(raw, closed, switch matrix) inputs for normalize at one genus: valid
    sign-flipped circuits, each failure of the sign pass (an adjacent pairing
    not +-1 at the first, a middle and the last pair, a closing pairing, a
    closing pairing through mu), and each of them with its curves as lists."""
    cases = []
    for _ in range(12):
        c = rng.randint(2, 9)
        raw = [scale(rng.choice((1, -1)), v) for v in rand_closed(rng, genus, c).curves]
        cases += [(raw, True, None), (raw, False, None)]
        for j in sorted({1, (c + 1) // 2, c - 1}):  # raw[j] breaks the pair (j, j + 1)
            bad = raw[:j] + [rand_paired(rng, raw[j - 1], rng.choice((0, 2, -3, 7)))] + raw[j + 1:]
            cases += [(bad, True, None), (bad, False, None)]
        if c > 2:  # at c = 2 the closing pairing is -<g_1, g_2> = -1
            for _ in range(100):
                last = rand_next(rng, raw[-2])
                if abs(pairing(last, raw[0])) != 1:
                    cases.append((raw[:-1] + [last], True, None))
                    break
        # the twist about g_1 keeps <mu g_c, g_1>; one about a random axis breaks it
        for axis in (raw[0], rand_primitive(rng, genus)):
            mu = twist_matrix(axis, rng.choice((-2, 3)))
            cases += [(raw, True, mu), (raw, False, mu)]
    return cases + [([list(v) for v in raw], closed, mu) for raw, closed, mu in cases]


def curve_fault_cases(rng, genus):
    """(raw, closed, switch matrix) inputs for normalize with a per-curve fault
    that a sign pass stops short of or never reaches: a non-primitive or zero
    curve before and after an adjacent pairing not +-1, a curve of another
    length after one, a lone non-primitive or zero curve in an open circuit,
    a lone valid one, and each of them with its curves as lists."""
    cases = []
    for _ in range(12):
        c = rng.randint(2, 9)
        raw = [scale(rng.choice((1, -1)), v) for v in rand_closed(rng, genus, c).curves]
        cases += [(raw[:1], False, None), ([scale(rng.choice((2, -5, 0)), raw[0])], False, None)]
        for j in sorted({1, (c + 1) // 2, c - 1}):  # raw[j] breaks the pair (j, j + 1)
            bad = raw[:j] + [rand_paired(rng, raw[j - 1], rng.choice((0, 2, -3, 7)))] + raw[j + 1:]
            before, after = rng.randrange(j), rng.randrange(j + 1, c + 1)
            for i, v in ((before, scale(rng.choice((2, -3, 0)), raw[rng.randrange(c)])),
                         (after, scale(rng.choice((2, -3, 0)), raw[rng.randrange(c)])),
                         (after, raw[rng.randrange(c)] + (1, 0))):
                cases.append((bad[:i] + [v] + bad[i:], rng.choice((True, False)), None))
    return cases + [([list(v) for v in raw], closed, mu) for raw, closed, mu in cases]


def norm_window_by_pairing(win):
    """Reference for subst._norm_window, on the same generic `pairing`."""
    out = [win[0]]
    for v in win[1:]:
        p = pairing(out[-1], v)
        if abs(p) != 1:
            raise ValueError("adjacent pairing %s in a window, need +-1" % _clip_int(p))
        out.append(v if p == 1 else scale(-1, v))
    return out


def linking_matrix_eager(c):
    """Reference for handles.linking_matrix: all c x c entries at once, the
    framings on the diagonal and b_i . a_j above it, row by row."""
    cs = c.curves
    n = len(cs)
    cols = list(zip(*cs))  # cols[2t]: a_t-coordinates, cols[2t + 1]: b_t-coordinates
    rows = []
    for i, v in enumerate(cs):
        left = [0] * i
        right = [0] * (n - i - 1)
        for t in range(0, len(v), 2):
            left = [s + v[t] * x for s, x in zip(left, cols[t + 1])]
            right = [s + v[t + 1] * x for s, x in zip(right, cols[t][i + 1:])]
        rows.append(tuple(left + [fiber_framing(v)] + right))
    return tuple(rows)


def symmetric_invariants(entries):
    """(rank, signature) of an integer symmetric matrix; the reference for
    the Schur sweep of handles.form_invariants, O(n^3).

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


FAR_PIVOT_START = ((3, -2, 2, 3), (-3, -1, -2, 2), (-1, 0, -2, 1), (5, -2, 1, 0))  # eps = -1


def far_pivot_family(c) -> Circuit:
    """The closed genus-2 circuit FAR_PIVOT_START after c - 4 blow-ups
    apply_blowup(d, d.length - 1, 1), built in O(c).  Row 0 of its linking
    matrix has a zero diagonal and L_01 = 0 but is not zero, so the Schur
    sweep takes a far pivot over almost every row.

    Each blow-up inserts tau_y(x) before the last curve y, x the curve
    before it; tau_y(x) is sign-invariant in y and changes sign only
    with x, so one normalize at the end gives apply_blowup's signs."""
    cs = list(FAR_PIVOT_START)
    while len(cs) < c:
        cs.insert(len(cs) - 1, twist_apply(cs[-1], 1, cs[-2]))
    return normalize(cs, True)


def linking_by_halves(x, i, y, j):
    """Reference linking number: half the signed pairing plus half its
    symmetric companion; the two halves always have equal parity."""
    sgn = 1 if i > j else -1
    bsym = sum(x[t] * y[t + 1] + y[t] * x[t + 1] for t in range(0, len(x), 2))
    num = sgn * pairing(x, y) + bsym
    assert num % 2 == 0, "parity mismatch in linking number"
    return num // 2


def _window_coefficients(cs) -> list:
    """k_i = <g_{i-2}, g_i> for every three consecutive entries of cs,
    checking g_i = k_i g_{i-1} - g_{i-2}."""
    ks = []
    for i, (x, y, z) in enumerate(zip(cs, cs[1:], cs[2:]), start=3):
        k = pairing(x, z)
        if z != tuple(map(sub, map(k.__mul__, y), x)):
            raise ValueError(
                "curve %d does not satisfy the duality relation; "
                "is the circuit normalized?" % (i,)
            )
        ks.append(k)
    return ks


def classify_by_contract(circ) -> Classification:
    """Reference classifier: recompute every cyclic coefficient and
    contract (rebuilding and renormalizing the circuit) on every step,
    O(c^2).  Same choice rule as genus1.classify; closed genus-1 input."""
    cur = circ
    total = SumForm()
    trace = []
    step = 0
    while cur.length > 2:
        c = cur.length
        ks = _window_coefficients(cur.extended(2))
        j = next((t for t in range(c) if abs(ks[t]) == 1), None)
        if j is not None:
            det = Detection(
                kind="BlowUp",
                position=j + 1,
                exponent=-ks[j],
                summand=_blowup_summand(-ks[j]),
            )
        else:
            j = next((t for t in range(c) if ks[(t + 1) % c] == 0), None)
            if j is None:
                raise RuntimeError(
                    "closed genus-1 circuit of length %d with no coefficient in "
                    "{-1, 0, 1}; this contradicts the reducibility guarantee: %r"
                    % (c, cur.curves)
                )
            det = Detection(
                kind="Stabilization",
                position=j + 1,
                k=ks[j],
                summand=_stab_summand(ks[j]),
            )
        cur, delta = contract(cur, det)
        total = total + delta
        step += 1
        trace.append((step, det, delta))

    forms = frozenset(
        {
            normalize_sum(total.with_closure("Spin0")),
            normalize_sum(total.with_closure("NonSpin1")),
        }
    )
    return Classification(
        canonical_forms=forms, reduction_trace=tuple(trace), counts=total
    )


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


def classify_by_rescan(circ) -> Classification:
    """Reference classifier: genus1.classify's one-pass loop as it was
    before its searches resumed from the last gap.  Every search for the
    first +-1 or 0 starts again at index 0, so a long run of coefficients
    that no contraction touches is rescanned on every step, O(c^2).
    Closed genus-1 input."""
    curves = list(circ.curves)
    ks = _window_coefficients(circ.extended(2))
    total = SumForm()
    trace = []
    while len(curves) > 2:
        c = len(curves)
        j = _index(ks, -1, _index(ks, 1, c))
        if j < c:
            w = 1
            det = Detection(kind="BlowUp", position=j + 1, exponent=-ks[j],
                            summand=_blowup_summand(-ks[j]))
        else:
            w = 2
            j = _index(ks, 0, c, 1) - 1  # the first j with ks[j + 1] == 0
            if j == c - 1 and ks[0] != 0:
                raise RuntimeError("no coefficient in {-1, 0, 1}")
            det = Detection(kind="Stabilization", position=j + 1, k=ks[j],
                            summand=_stab_summand(ks[j]))
        if j + w + 2 > c:  # the pattern wraps the seam
            curves = curves[j:] + curves[:j]
            ks = ks[j:] + ks[:j]
            j = 0
        del curves[j + w:j + 2 * w], ks[j + w:j + 2 * w]
        for i in (j + w - 2, j + w - 1):
            ks[i] = _unoriented_k(curves, i)
        delta = _DELTAS[det.summand]
        total = total + delta
        trace.append((len(trace) + 1, det, delta))
    forms = frozenset({normalize_sum(total.with_closure("Spin0")),
                       normalize_sum(total.with_closure("NonSpin1"))})
    return Classification(canonical_forms=forms, reduction_trace=tuple(trace), counts=total)


def k2_chain(c) -> Circuit:
    """The closed genus-1 circuit of c curves g_1 = (1,0), g_2 = (0,1),
    g_i = 2 g_{i-1} - g_{i-2}, closed by (-1,1): every coefficient but
    the last three is 2."""
    cs = [(1, 0), (0, 1)]
    while len(cs) < c - 1:
        cs.append(tuple(2 * y - x for x, y in zip(cs[-2], cs[-1])))
    return normalize(cs + [(-1, 1)], True)


def _oriented_window(win):
    out = [win[0]]
    for v in win[1:]:
        p = pairing(out[-1], v)
        if abs(p) != 1:  # what subst.detect raises, with or without -O
            raise ValueError("window from a valid circuit must chain with +-1")
        out.append(v if p == 1 else scale(-1, v))
    return out


def _window_blowup_exponent(x, y, z):
    s = add(x, z)
    if y != s and y != scale(-1, s):
        return None
    e = -pairing(x, z)
    assert abs(e) == 1
    return e


def _window_stab_power(x, y, z, w):
    if w != scale(-1, y):
        return None
    num = add(z, x)
    k = next((n // t for n, t in zip(num, y) if t), None)
    return k if k is not None and num == scale(k, y) else None


def detect_by_windows(d):
    """Reference for subst.detect: every 3- and 4-window of the extended
    circuit is oriented on its own, from its first curve, and matched
    against the patterns with fresh add/scale temporaries."""
    circ, mu = (d.circuit, d.switch_matrix) if isinstance(d, Diagram) else (d, None)
    if not circ.closed:
        raise ValueError("detection needs a closed circuit")
    c = circ.length
    homological = circ.genus >= 2
    last3 = c if mu is None else c - 2  # twisted: window must not wrap
    last4 = c if mu is None else c - 3
    ext = circ.extended(3)
    out = []
    for pos in range(1, c + 1):
        if c >= 3 and pos <= last3:
            x, y, z = _oriented_window(ext[pos - 1:pos + 2])
            e = _window_blowup_exponent(x, y, z)
            if e is not None:
                out.append(Detection(kind="BlowUp", position=pos, exponent=e,
                                     summand=_blowup_summand(e), homological_only=homological))
            if z == scale(-1, x):
                out.append(Detection(kind="HayanoPattern", position=pos, k=0,
                                     dual=canon_sign(y), homological_only=homological))
        if c >= 4 and pos <= last4:
            k = _window_stab_power(*_oriented_window(ext[pos - 1:pos + 3]))
            if k is not None:
                out.append(Detection(kind="Stabilization", position=pos, k=k,
                                     summand=_stab_summand(k), homological_only=homological))
    # the pairings no window reads: all of them when c < 3, and the
    # closing <mu g_c, g_1> of a twisted diagram
    if c < 3:
        _oriented_window(ext[:c + 1] if mu is None else circ.curves)
    if mu is not None and abs(pairing(matvec(mu, circ.curves[-1]), circ.curves[0])) != 1:
        raise ValueError("closing pairing of a twisted diagram must be +-1")
    return out


def generate_by_moves(seed, steps):
    """Reference for circuit.generate: the same random moves, each
    made by subst.apply_blowup / apply_stabilization, which renormalize
    the whole circuit after every move, O(c^2) in all.  Returns
    (circuit, sum_form, moves, states): moves a list of (kind, pos, param),
    states the circuits before and after each move."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    cur = Circuit(((1, 0), (0, 1)), closed=True)
    l = m = n = 0
    moves = []
    states = [cur]
    for _ in range(steps):
        c = cur.length
        pos = rng.randint(1, c - 1)
        if rng.random() < 0.5:
            e = rng.choice([1, -1])
            cur = apply_blowup(cur, pos, e)
            moves.append(("blowup", pos, e))
            if e == 1:
                n += 1
            else:
                m += 1
        else:
            k = rng.randint(-3, 3)
            cur = apply_stabilization(cur, pos, k)
            moves.append(("stab", pos, k))
            if k % 2 == 0:
                l += 1
            else:
                m += 1
                n += 1
        states.append(cur)
    return cur, SumForm(l=l, m=m, n=n, closure="Unclosed"), moves, states


def apply_blowup_by_extended(d, pos, e):
    """Reference for subst.apply_blowup: x and y read by the seam rule,
    so past the seam y is eps g_1."""
    if e not in (1, -1):
        raise ValueError("blow-up exponent must be +1 or -1")
    circ, mu = _unpack(d)
    _check_pos(circ, mu, pos)
    x, y = circ.extended(1)[pos - 1:pos + 1]
    raw = list(circ.curves[:pos]) + [twist_apply(y, e, x)] + list(circ.curves[pos:])
    return _repack(d, normalize(raw, True, mu))


def apply_stabilization_by_extended(d, pos, k):
    """Reference for subst.apply_stabilization: x and y read by the seam
    rule; past the seam the pair goes in after g_1: (g_1, xi, g_1, g_2, ...)."""
    circ, mu = _unpack(d)
    _check_pos(circ, mu, pos)
    cs = circ.curves
    x, y = circ.extended(1)[pos - 1:pos + 1]
    i = pos % len(cs) + 1
    raw = list(cs[:i]) + [twist_apply(y, k, x), cs[i - 1]] + list(cs[i:])
    return _repack(d, normalize(raw, True, mu))


def induced_action(a, m) -> SurgeredAction:
    """Action induced by a symplectic matrix on a^perp / <a>.

    Defined whenever m preserves the perp lattice of a and the line
    through a, e.g. for any matrix fixing a up to sign.  Same quotient
    basis as monodromy.surgered_action.
    """
    a = tuple(a)
    qb, coords = quotient_basis_by_echelon(a)
    matrix = transpose([coords(matvec(m, q)) for q in qb])
    return SurgeredAction(
        base_class=a, quotient_rank=len(qb), matrix=matrix, basis=tuple(qb)
    )


def surgered_action_by_matrix(c) -> SurgeredAction:
    """Reference for monodromy.surgered_action: the induced action of the
    whole 2g x 2g lift matrix, as matrix_by_word builds it."""
    return induced_action(c.curves[0], matrix_by_word(c))


def verdict_by_matrix(c) -> Verdict:
    """Reference for monodromy.verdict, on surgered_action_by_matrix."""
    act = surgered_action_by_matrix(c)
    cols = zip(*act.matrix)
    moved = [b for b, col, e in zip(act.basis, cols, ident(act.quotient_rank)) if col != e]
    if not moved:
        return Verdict(kind="HomologicallyTrivial")
    return Verdict(kind="ObstructedOnHomology", witness=moved[0])


def rotate_to_front(circ: Circuit, j: int) -> Circuit:
    """Untwisted rotation putting 0-based entry j first, in one pass.

    Same unoriented circuit as switch(circ, (c - j) % c), but linear
    time.
    """
    if not circ.closed:
        raise ValueError("rotation needs a closed circuit")
    cur = circ.curves
    return normalize(list(cur[j:]) + list(cur[:j]), True)


def contract_by_kind(d, det: Detection):
    """Reference for subst.contract: one branch per kind.  A blow-up drops
    the middle curve of its window, a stabilization the last two curves
    of its window; a window that wraps the seam is rotated to the front
    with rotate_to_front first."""
    circ, mu = _unpack(d)
    c = circ.length
    pos = det.position
    if not circ.closed or not 1 <= pos <= c:
        raise _stale(det)
    if det.kind == "HayanoPattern":
        raise ValueError("a Hayano pattern is a surgery, not a connected sum; "
                         "no sum-form delta to contract")
    if det.kind == "BlowUp":
        if c < 3 or (mu is not None and pos + 2 > c):
            raise _stale(det)  # seam windows are never detected on twisted input
        e = _window_blowup_exponent(*norm_window_by_pairing(circ.extended(2)[pos - 1:pos + 2]))
        if e is None or e != det.exponent:
            raise _stale(det)
        if pos + 2 <= c:
            raw = [v for i, v in enumerate(circ.curves) if i != pos]  # drop middle
            new = normalize(raw, True, mu)
        else:
            rc = rotate_to_front(circ, pos - 1)
            new = normalize([v for i, v in enumerate(rc.curves) if i != 1], True)
        return _repack(d, new), _DELTAS[_blowup_summand(det.exponent)]
    if det.kind == "Stabilization":
        if c < 4 or (mu is not None and pos + 3 > c):
            raise _stale(det)
        k = _window_stab_power(*norm_window_by_pairing(circ.extended(3)[pos - 1:pos + 3]))
        if k is None or k != det.k:
            raise _stale(det)
        if pos + 3 <= c:
            drop = {pos + 1, pos + 2}  # 0-based indices of (z, w)
            raw = [v for i, v in enumerate(circ.curves) if i not in drop]
            new = normalize(raw, True, mu)
        else:
            rc = rotate_to_front(circ, pos - 1)
            new = normalize([v for i, v in enumerate(rc.curves) if i not in (2, 3)], True)
        return _repack(d, new), _DELTAS[_stab_summand(det.k)]
    raise ValueError("unknown detection kind %r" % (det.kind,))


def jmat(g):
    """Block-diagonal pairing matrix J with blocks [[0,1],[-1,0]]."""
    n = 2 * g
    rows = []
    for i in range(n):
        row = [0] * n
        if i % 2 == 0:
            row[i + 1] = 1
        else:
            row[i - 1] = -1
        rows.append(tuple(row))
    return tuple(rows)


def is_symplectic_by_jmat(m) -> bool:
    """Reference for homology.is_symplectic: M^T J M = J as matrix products."""
    j = jmat(len(m) // 2)
    return matmul(matmul(transpose(m), j), m) == j


def sp_inv_by_jmat(m):
    """Reference for homology.sp_inv: -J M^T J as matrix products."""
    j = jmat(len(m) // 2)
    inv = matmul(matmul(j, transpose(m)), j)
    return tuple(tuple(-e for e in row) for row in inv)


def delta_twist_by_product(a, b):
    """Reference for homology.delta_twist: (T_a T_b)^3 as matrix products."""
    if abs(pairing(a, b)) != 1:
        raise ValueError("delta twist needs |<a,b>| = 1, got %d" % pairing(a, b))
    ab = matmul(twist_matrix(a, 1), twist_matrix(b, 1))
    return matmul(ab, matmul(ab, ab))


def word_images_generic(word, xs):
    """Images of the classes xs under a twist word, rightmost (index 0)
    first: the reference for homology.apply_word, one class at a time,
    and for monodromy's packed kernel (_pack, _run, _decode).  Every factor is
    checked first, then one pairing functional per factor at every genus."""
    xs = list(xs)
    n = 2 * genus_of(xs[0]) if xs else None
    for x in xs:
        if len(x) != n:
            raise ValueError("genus mismatch: %d vs %d" % (len(x), n))
    factors = []
    for axis, exp in word:
        if xs and len(axis) != n:
            raise ValueError("genus mismatch in word: axis %r on %r" % (axis, xs[0]))
        if exp == 0:
            raise ValueError("word exponents must be nonzero")
        genus_of(axis)
        _require_axis(axis)
        factors.append((axis, exp))
    if not xs:
        return []
    images = [list(x) for x in xs]
    for axis, exp in factors:
        f = pairing_functional(axis)
        for x in images:
            c = exp * sum(map(mul, f, x))
            if c:
                x[:] = [a + c * b for a, b in zip(x, axis)]
    return [tuple(x) for x in images]


def word_matrix(word, genus):
    """Matrix of a twist word, rightmost factor first: its columns are the
    images of the 2g basis vectors under word_images_generic, so it runs
    none of the code it checks.  The library reads no such matrix; the
    lift matrix is monodromy.mu_tilde_matrix."""
    return transpose(word_images_generic(word, ident(2 * genus)))


def matrix_by_word(c):
    """Reference for monodromy.mu_tilde_matrix: the generic lift word's images of
    the 2g basis vectors through the generic kernel, so it runs none of the lift
    code (_axes, _twists, mu_tilde_word, the genus-1 fold) nor its packed kernel."""
    return word_matrix(mu_tilde_word_generic(c), c.genus)


def mu_tilde_word_generic(c):
    """Reference for monodromy.mu_tilde_word: the 2g-vector loop at every
    genus, one pairing, sum and canon_sign per factor."""
    ext = _require_untwisted_closed(c).extended(1)
    word = []
    for x, nxt in zip(ext, ext[1:]):
        p = pairing(x, nxt)
        word.append((canon_sign(tuple(map(operator.add, nxt, map(p.__mul__, x)))), 1))
    return tuple(word)
