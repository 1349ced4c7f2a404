"""Integer linear algebra helpers: column reduction with tracked
unimodular transforms, lattice quotients, and fraction-free symmetric
congruence.

Everything is exact over Z.  These are internal tools; the public API
lives in the topical modules.
"""

from __future__ import annotations

from .homology import pairing_functional


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
    k-th pivot has the sign of d_k * d_{k-1}.
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
                q, r = divmod(p * Bi[j] - bia * Ba[j], D)
                assert r == 0, "inexact division in fraction-free congruence"
                Bi[j] = q
        D = p
        act += 1
    return rank, sig
