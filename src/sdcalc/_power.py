"""Integer matrix powers for the full turns of `circuit.switch`, which imports
this module only when a twisted diagram turns, so no other run compiles it."""

import sys
from itertools import chain
from math import comb

from .homology import ident

MAX_POWER_BITS = 2**14  # longest entry of a switch matrix power that `switch` forms (see _turns)


def matmul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(tuple(sum(ra[t] * cb[t] for t in range(n)) for cb in bt) for ra in a)


def mat_pow(m, q, max_bits=None):
    """m to the power q >= 0, by repeated squaring; None as soon as a
    power it forms has an entry longer than max_bits bits."""
    out = ident(len(m))
    while q:
        if q & 1:
            out = matmul(out, m)
        q >>= 1
        if q:
            m = matmul(m, m)
        if max_bits is not None and max(map(abs, chain(*out, *m))).bit_length() > max_bits:
            return None
    return out


def _turns(m, q, cur):
    """m^q for q full turns of the circuit cur, its size decided first.

    Every root of unity that can be an eigenvalue of m has an order that
    divides L = _period(g).  With q = d L + r and P = m^L, m^q = m^r P^d.
    If all eigenvalues of m are roots of unity (by Kronecker, if all lie on
    the unit circle), N = P - 1 is nilpotent and P^d = sum_{i<2g} C(d, i) N^i;
    that is seen, not assumed: the N^i are formed, at most 2g - 1 products,
    until one is zero or has a nonzero trace.  Otherwise P^d is formed by
    squaring.  At genus 1, m in SL(2, Z) then has an eigenvalue l with
    |l|^L > T - 1, T = |tr P|, and |l|^q < |tr m^q| <= 4 G max|out|, where
    G = max|x, y| for two adjacent curves x, y of cur, a basis, and out are
    the switched curves; so once (T - 1)^d >= 4 G 10^limit the result cannot
    print, and str()'s ValueError comes before any squaring.  Otherwise, at
    genus >= 2 or with the limit off (0), no power formed may pass MAX_POWER_BITS.
    """
    n = len(m)
    limit = n == 2 and sys.get_int_max_str_digits()
    cap = None if limit else MAX_POWER_BITS
    period = _period(n // 2)
    d, r = divmod(q, period)
    out, p = mat_pow(m, r, cap), (mat_pow(m, period, cap) if d else ident(n))  # P^0 = 1
    if d and out and p:
        nil = tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(p))
        x, i, total = nil, 1, ident(n)  # total: the sum of the C(d, k) N^k, k < i
        while any(map(any, x)) and i < n and not sum(x[k][k] for k in range(n)):
            c = comb(d, i)
            total = tuple(tuple(a + c * b for a, b in zip(u, v)) for u, v in zip(total, x))
            x, i = matmul(x, nil), i + 1
        if any(map(any, x)):  # N is not nilpotent
            top, t = max(map(abs, cur[0] + cur[1])), abs(p[0][0] + p[1][1])
            if limit and d * ((t - 1).bit_length() - 1) >= (4 * top * 10 ** limit).bit_length():
                raise ValueError("Exceeds the limit (%d digits) for integer string conversion" % limit)
            total = mat_pow(p, d, cap)
        out = total and matmul(out, total)
    if cap and not (out and p and max(map(abs, chain(*out))).bit_length() <= cap):
        raise ValueError("switch matrix power past %d bits" % MAX_POWER_BITS + " at genus >= 2" * (n > 2))
    return out


def _period(g):
    """The lcm of the n with phi(n) <= 2g: the product of the largest prime
    powers p^a with phi(p^a) = p^(a-1) (p - 1) <= 2g; 12, 120, 2520 at g = 1, 2, 3."""
    out = 1
    for p in range(2, 2 * g + 2):
        if all(p % f for f in range(2, p)):
            out *= p ** max(a for a in range(1, 2 * g + 1) if p ** (a - 1) * (p - 1) <= 2 * g)
    return out
