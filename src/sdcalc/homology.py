"""Exact arithmetic on H_1 of a closed oriented genus-g surface.

A class is a tuple of 2g integers, the coefficients
(n_{a1}, n_{b1}, ..., n_{ag}, n_{bg}) with respect to the standard
symplectic basis, so genus is implicit in the length.  The pairing is
fixed by <a_i, b_i> = +1 and all other basis pairings zero.

Matrices are tuples of row tuples acting on column vectors.  Twist
words are sequences of (axis, exponent) pairs composed rightmost-first:
word[0] acts first; apply_word runs one on a class (monodromy's lift
packs many into big ints).  Everything here is plain big-int
arithmetic -- no floats, no overflow.
"""

from math import gcd
from operator import add as _plus, mul

SpMatrix = tuple  # tuple of 2g row tuples


def genus_of(x) -> int:
    """Genus carried by a coefficient vector (half its length)."""
    if len(x) == 0 or len(x) % 2:
        raise ValueError("coefficient vector must have positive even length, got %d" % len(x))
    return len(x) // 2


def pairing(x, y) -> int:
    """Symplectic pairing <x,y> = sum of (n_{ai}(x) n_{bi}(y) - n_{bi}(x) n_{ai}(y)).

    One length check, then genus 1, the common case, in one expression;
    genus_of runs only to reject an empty or odd length."""
    n = len(x)
    if n != len(y):
        raise ValueError("genus mismatch: %d vs %d" % (n, len(y)))
    if n == 2:
        return x[0] * y[1] - x[1] * y[0]
    if n == 0 or n % 2:
        genus_of(x)
    return sum(map(mul, x[::2], y[1::2])) - sum(map(mul, x[1::2], y[::2]))


def pairing_functional(x):
    """Row vector of <x, .> so that pairing(x, y) = row . y."""
    r = []
    for i in range(0, len(x), 2):
        r.extend([-x[i + 1], x[i]])
    return r


def is_primitive(x) -> bool:
    """True iff gcd of the entries is 1 (zero vector gives False)."""
    return gcd(*x) == 1


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def scale(k, x):
    return tuple(map(k.__mul__, x))


def canon_sign(x):
    """Flip the sign so the first nonzero entry is positive.

    Twist axes are unoriented (tau_v = tau_{-v}), so this picks a
    deterministic representative.
    """
    for v in x:
        if v:
            return x if v > 0 else scale(-1, x)
    return x


def twist_apply(v, k, x):
    """Image of x under the k-th power of the twist about v: x + k<v,x>v."""
    return tuple(map(_plus, x, map((k * pairing(v, x)).__mul__, v)))


def _require_axis(v):
    if not is_primitive(v):
        raise ValueError("twist axis must be primitive, got %r" % (v,))


def ident(n) -> SpMatrix:
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def matvec(m, x):
    return tuple(sum(r[j] * x[j] for j in range(len(x))) for r in m)


def transpose(m):
    return tuple(zip(*m))


def is_symplectic(m) -> bool:
    """Check M^T J M = J: the columns pair as the basis vectors do, which for
    i < j (the pairing is alternating) is <e_i, e_j> = 1 at (a_t, b_t), else 0."""
    cols = transpose(m)
    return all(pairing(cols[i], cols[j]) == (j == i + 1 and i % 2 == 0)
               for i in range(len(cols)) for j in range(i + 1, len(cols)))


def sp_inv(m):
    """Inverse of a symplectic integer matrix, M^{-1} = -J M^T J, read off
    entry by entry: entry (i, j) is (-1)^(i+j) M[j^1][i^1]."""
    n = len(m)
    return tuple(tuple(m[j ^ 1][i ^ 1] * (-1) ** (i + j) for j in range(n)) for i in range(n))


def twist_matrix(v, k) -> SpMatrix:
    """Matrix of the k-th twist power about v: x -> x + k<v,x>v.

    Independent of the sign of v; twist_matrix(v, k) and
    twist_matrix(v, -k) are inverse.
    """
    _require_axis(v)
    return transpose([twist_apply(v, k, e) for e in ident(len(v))])


def apply_word(word, x):
    """Evaluate a twist word on a class, rightmost (index 0) first.  The word, any iterable, is read
    once, and every factor is checked (axis of x's genus, nonzero exponent, primitive) before any acts."""
    n, word = 2 * genus_of(x), list(word)
    for axis, exp in word:
        if len(axis) != n:
            raise ValueError("genus mismatch in word: axis %r on %r" % (axis, x))
        if exp == 0:
            raise ValueError("word exponents must be nonzero")
        _require_axis(axis)
    x = tuple(x)
    for axis, exp in word:
        x = twist_apply(axis, exp, x)
    return x


def delta_twist(a, b) -> SpMatrix:
    """(T_a T_b)^3 for a dual pair: -identity on span(a,b), identity on its
    complement, so x -> x - 2e(<x,b> a - <x,a> b) with e = <a,b> = +-1."""
    e = pairing(a, b)
    if abs(e) != 1:
        raise ValueError("delta twist needs |<a,b>| = 1, got %d" % e)
    return transpose([add(x, add(scale(-2 * e * pairing(x, b), a), scale(2 * e * pairing(x, a), b)))
                      for x in ident(len(a))])
