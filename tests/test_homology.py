import random
from contextlib import ExitStack
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from sdcalc.homology import (
    add,
    apply_word,
    canon_sign,
    delta_twist,
    genus_of,
    ident,
    is_primitive,
    is_symplectic,
    matvec,
    pairing,
    scale,
    sp_inv,
    transpose,
    twist_apply,
    twist_matrix,
)

from sdcalc import monodromy
from sdcalc._power import mat_pow, matmul
from sdcalc.circuit import Circuit, generate
from sdcalc.monodromy import mu_tilde_word
from sdcalc.subst import apply_blowup, hayano_surgery

from support import (delta_twist_by_product, is_symplectic_by_jmat, jmat, k2_chain, rand_chain, rand_closed,
                     rand_next, rand_primitive, sp_inv_by_jmat, word_images_generic, word_matrix)

A = (1, 0)
B = (0, 1)


def vecs(genus, lim=9):
    coord = st.integers(min_value=-lim, max_value=lim)
    return st.tuples(*([coord] * (2 * genus)))


def test_genus_of():
    assert genus_of((1, 0)) == 1
    assert genus_of((0, 0, 0, 0, 0, 0)) == 3
    with pytest.raises(ValueError):
        genus_of((1, 0, 0))


def test_pairing_basis():
    assert pairing(A, B) == 1
    assert pairing(B, A) == -1
    assert pairing((1, 0, 0, 0), (0, 0, 0, 1)) == 0
    assert pairing((0, 0, 1, 0), (0, 0, 0, 1)) == 1


def test_pairing_rejects_genus_mismatch():
    with pytest.raises(ValueError):
        pairing((1, 0), (1, 0, 0, 0))


@given(vecs(2), vecs(2))
def test_pairing_antisymmetric(x, y):
    assert pairing(x, y) == -pairing(y, x)
    assert pairing(x, x) == 0


@given(vecs(2), vecs(2), vecs(2), st.integers(-5, 5), st.integers(-5, 5))
def test_pairing_bilinear(x, y, z, s, t):
    left = pairing(add(scale(s, x), scale(t, y)), z)
    assert left == s * pairing(x, z) + t * pairing(y, z)


def pairing_by_loop(x, y):
    if len(x) != len(y):
        raise ValueError("genus mismatch: %d vs %d" % (len(x), len(y)))
    genus_of(x)
    s = 0
    for i in range(0, len(x), 2):
        s += x[i] * y[i + 1] - x[i + 1] * y[i]
    return s


def is_primitive_by_loop(x):
    g = 0
    for v in x:
        g = gcd(g, v)
    return g == 1


def test_pairing_and_is_primitive_match_plain_loops():
    rng = random.Random(41)
    for _ in range(2000):
        g = rng.choice((1, 1, 2, 3, 5, 8))
        lim = rng.choice((1, 3, 10 ** 6, 10 ** 40))
        x, y = ([rng.randint(-lim, lim) for _ in range(2 * g)] for _ in range(2))
        for u, v in ((x, y), (tuple(x), tuple(y)), (x, tuple(y))):
            assert pairing(u, v) == pairing_by_loop(u, v)
        assert is_primitive(x) == is_primitive(tuple(x)) == is_primitive_by_loop(x)
        # the gcd of a multiple is a multiple
        k = rng.choice((0, -1, 2, -6))
        assert is_primitive(scale(k, x)) == is_primitive_by_loop(scale(k, x))
    for x in ((), (0,), (0, 0), (1,), (-1, 0), (0, 0, 0, -1), (4, 6, 9, 0)):
        assert is_primitive(x) == is_primitive_by_loop(x)


@pytest.mark.parametrize("x, y, message", [
    ((), (), "coefficient vector must have positive even length, got 0"),
    ((1,), (0,), "coefficient vector must have positive even length, got 1"),
    ((1, 0, 0), (0, 1, 0), "coefficient vector must have positive even length, got 3"),
    ((1, 0), (1, 0, 0, 0), "genus mismatch: 2 vs 4"),
    ((1, 0, 0, 0), (1, 0), "genus mismatch: 4 vs 2"),
    ((1, 0), (1,), "genus mismatch: 2 vs 1"),
    ((), (1, 0), "genus mismatch: 0 vs 2"),
    ((1, 0, 0, 0, 2), (0, 1, 0, 0, 0), "coefficient vector must have positive even length, got 5"),
    ((0,) * 7, (1,) * 7, "coefficient vector must have positive even length, got 7"),
    ((1, 0, 0, 0), (0, 1, 0, 0, 0, 0), "genus mismatch: 4 vs 6"),
])
def test_pairing_errors_match_plain_loop(x, y, message):
    for f in (pairing, pairing_by_loop):
        with pytest.raises(ValueError) as err:
            f(x, y)
        assert str(err.value) == message


def test_is_primitive():
    assert is_primitive((2, 3))
    assert is_primitive((0, 0, 1, 0))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 0))


def test_canon_sign():
    assert canon_sign((0, -2, 1, 0)) == (0, 2, -1, 0)
    assert canon_sign((1, -1)) == (1, -1)
    assert canon_sign((0, 0)) == (0, 0)


def test_twist_formula():
    # (tau_v^k)(x) = x + k<v,x>v
    assert twist_apply(B, 1, A) == (1, -1)
    assert twist_apply(B, -1, A) == (1, 1)
    assert twist_apply(A, 3, B) == (3, 1)


@given(vecs(2, 4), st.integers(-4, 4), vecs(2))
def test_twist_sign_invariant_in_axis(v, k, x):
    if not is_primitive(v):
        v = (1, 0, 0, 0)
    assert twist_apply(v, k, x) == twist_apply(scale(-1, v), k, x)


@given(vecs(2, 4), st.integers(-4, 4), st.integers(-4, 4), vecs(2))
def test_twist_powers_compose(v, j, k, x):
    if not is_primitive(v):
        v = (0, 1, 0, 0)
    assert twist_apply(v, j, twist_apply(v, k, x)) == twist_apply(v, j + k, x)


@given(vecs(2, 4), st.integers(-4, 4), vecs(2), vecs(2))
def test_twist_preserves_pairing(v, k, x, y):
    if not is_primitive(v):
        v = (1, 0, 0, 0)
    assert pairing(twist_apply(v, k, x), twist_apply(v, k, y)) == pairing(x, y)


def test_twist_matrix_agrees_with_apply():
    rng = random.Random(5)
    for _ in range(50):
        g = rng.randint(1, 3)
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if not is_primitive(v):
            continue
        k = rng.randint(-3, 3)
        m = twist_matrix(v, k)
        for _ in range(5):
            x = tuple(rng.randint(-6, 6) for _ in range(2 * g))
            assert matvec(m, x) == twist_apply(v, k, x)


def test_twist_matrix_is_symplectic():
    assert is_symplectic(twist_matrix((1, 1), 2))
    assert is_symplectic(twist_matrix((2, 0, 1, 1), -1))
    assert not is_symplectic(((2, 0), (0, 1)))


def test_sp_inv():
    m = twist_matrix((1, 1), 2)
    assert matmul(m, sp_inv(m)) == ident(2)
    m = word_matrix([((1, 0, 1, 0), 2), ((0, 1, 0, 0), -1)], 2)
    assert matmul(sp_inv(m), m) == ident(4)


def test_mat_pow_matches_repeated_product():
    m = matmul(twist_matrix((1, 2, 0, 1), 1), twist_matrix((0, 1, 1, 0), -1))
    prod = ident(4)
    for q in range(10):
        assert mat_pow(m, q) == prod
        prod = matmul(prod, m)


def test_jmat_squares_to_minus_identity():
    for g in (1, 2, 3):
        j = jmat(g)
        assert matmul(j, j) == tuple(tuple(-e for e in row) for row in ident(2 * g))


def closed_form_outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the exception type and message are what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("g", [1, 2, 3, 5])
def test_closed_forms_match_jmat_products(g):
    # on random twist-word matrices, which are symplectic, and on the same
    # matrices with one entry perturbed, which are not
    rng = random.Random(70 + g)
    n = 2 * g
    for _ in range(120):
        word = [(rand_primitive(rng, g, 2), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(1, 6))]
        m = word_matrix(word, g)
        i, j = rng.randrange(n), rng.randrange(n)
        bad = tuple(tuple(x + (r == i and t == j) * rng.choice((-1, 1)) for t, x in enumerate(row))
                    for r, row in enumerate(m))
        assert is_symplectic(m) and is_symplectic_by_jmat(m)
        assert is_symplectic(bad) == is_symplectic_by_jmat(bad)
        assert sp_inv(m) == sp_inv_by_jmat(m) and matmul(m, sp_inv(m)) == ident(n)
        assert sp_inv(bad) == sp_inv_by_jmat(bad)
        # the images of (a_1, b_1) pair to +1, a random next curve to +1 and
        # its negative to -1; (x, x) pairs to 0, two columns of bad to anything
        cols, bad_cols = transpose(m), transpose(bad)
        x = rand_primitive(rng, g)
        y = rand_next(rng, x)
        for a, b in ((cols[0], cols[1]), (x, y), (y, x), (x, scale(-1, y)), (x, x),
                     (bad_cols[i], bad_cols[j])):
            assert (closed_form_outcome(delta_twist, a, b)
                    == closed_form_outcome(delta_twist_by_product, a, b)), (a, b)


@pytest.mark.parametrize("genus, lim", [(0, 4), (1, 0), (-1, 4)])
def test_random_classes_refuse_a_genus_or_bound_with_no_primitive_class(genus, lim):
    # each call would draw forever without the check
    for draw in (rand_primitive, rand_chain, rand_closed):
        args = (genus, lim) if draw is rand_primitive else (genus, 3, lim)
        with pytest.raises(ValueError, match="^rand_primitive needs genus >= 1 and lim >= 1"):
            draw(random.Random(0), *args)


def test_apply_word_order():
    # first list entry acts first (rightmost factor of the composition)
    word = [(B, 1), (A, 1)]
    assert apply_word(word, A) == (0, -1)
    assert apply_word(list(reversed(word)), A) == (1, -1)


def test_apply_word_validates():
    with pytest.raises(ValueError):
        apply_word([((2, 0), 1)], A)
    with pytest.raises(ValueError):
        apply_word([(B, 0)], A)


def test_word_matrix_matches_apply_word():
    rng = random.Random(11)
    for _ in range(30):
        g = rng.randint(1, 3)
        word = []
        for _ in range(rng.randint(1, 5)):
            v = tuple(rng.randint(-2, 2) for _ in range(2 * g))
            if not is_primitive(v):
                v = (1,) + (0,) * (2 * g - 1)
            word.append((v, rng.choice((-2, -1, 1, 2))))
        m = word_matrix(word, g)
        assert is_symplectic(m)
        x = tuple(rng.randint(-5, 5) for _ in range(2 * g))
        assert matvec(m, x) == apply_word(word, x)


def test_word_matrix_equals_dense_product():
    # the column-by-column word_matrix against the product of twist matrices
    rng = random.Random(12)
    for g in (1, 2, 3, 5):
        for _ in range(40):
            word = []
            for _ in range(rng.randint(0, 12)):
                v = tuple(rng.randint(-4, 4) for _ in range(2 * g))
                if is_primitive(v):
                    word.append((v, rng.choice((-3, -1, 1, 2))))
            dense = ident(2 * g)
            for axis, exp in word:
                dense = matmul(twist_matrix(axis, exp), dense)
            assert word_matrix(word, g) == dense
            assert word_matrix(iter(word), g) == dense


def _generic(word, x):
    """The image of one class under word_images_generic, the reference for apply_word."""
    return word_images_generic(word, [x])[0]


def test_word_images_match_twist_apply_loop():
    # apply_word on each class against the generic loop, the word as a list and as an iterator
    rng = random.Random(13)
    for g in (1, 2, 3, 5):
        for _ in range(40):
            word = []
            for _ in range(rng.randint(0, 12)):
                v = tuple(rng.randint(-4, 4) for _ in range(2 * g))
                if is_primitive(v):
                    word.append((v, rng.choice((-3, -1, 1, 2))))
            for x in [tuple(rng.randint(-9, 9) for _ in range(2 * g)) for _ in range(rng.randint(0, 4))]:
                want = _generic(word, x)
                assert apply_word(word, x) == want
                assert apply_word(iter(word), x) == want


def test_word_images_validates_whole_word():
    # every factor is checked before any acts, also one after a valid factor
    with pytest.raises(ValueError, match="nonzero"):
        apply_word([(A, 1), (B, 0)], A)
    with pytest.raises(ValueError, match="primitive"):
        apply_word(iter([(A, 1), ((2, 0), 1)]), A)
    with pytest.raises(ValueError, match="genus mismatch in word"):
        apply_word([(A, 1), ((1, 0, 0, 0), 1)], B)
    with pytest.raises(ValueError, match="genus mismatch in word"):
        apply_word([(A, 1)], (0, 1, 0, 0))
    with pytest.raises(ValueError, match="genus mismatch in word"):
        apply_word([((1, 0, 1), 1)], A)
    with pytest.raises(ValueError, match="even length"):
        apply_word([(A, 1)], (1, 0, 1))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_word_images_genus_one_branch_matches_the_generic_loop():
    # lift words of generator circuits, random closed circuits and the k = 2
    # chain, with other exponents; words read from iterators, classes as lists
    rng = random.Random(41)
    circuits = [generate(seed, rng.randint(0, 80))[0] for seed in range(40)]
    circuits += [rand_closed(rng, 1, rng.randint(2, 6)) for _ in range(60)]
    circuits.append(k2_chain(1001))
    for c in circuits:
        word = [(axis, rng.choice((-3, -2, -1, 1, 1, 2, 5))) for axis, _ in mu_tilde_word(c)]
        xs = [list(x) for x in ident(2)]
        xs += [[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(rng.randint(0, 3))]
        for x in xs:
            assert apply_word(iter(word), x) == _generic(word, x)


def _session_circuits(rng, g, steps):
    # a short editing session from the dual pair (a_1, b_1): blow-ups and
    # Hayano surgeries whose duals spread over a few handles, so the lift
    # axes stay sparse
    units = ident(2 * g)
    c = Circuit((units[0], units[1]), True)
    out = []
    for _ in range(steps):
        pos = rng.randint(1, c.length)
        if rng.random() < 0.5:
            c = apply_blowup(c, pos, rng.choice((1, -1)))
        else:
            x, succ = c.extended(1)[pos - 1:pos + 1]
            w = tuple(rng.randint(-1, 1) for _ in range(2 * g))
            dual = tuple(s + t - pairing(x, w) * s for s, t in zip(succ, w))
            c = hayano_surgery(c, pos, dual, rng.randint(-2, 2))
        out.append(c)
    return out


def _support_axes(rng, g):
    # primitive axes with 1, 2 and 2g nonzero entries
    n = 2 * g
    i, j = rng.sample(range(n), 2)
    one = tuple(rng.choice((1, -1)) * (t == i) for t in range(n))
    two = tuple(rng.choice((1, -1)) * (t == i) + rng.choice((2, -3, 7)) * (t == j) for t in range(n))
    while True:
        full = tuple(rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(n))
        if is_primitive(full):
            return [one, two, full]


def test_word_images_higher_genus_matches_the_generic_loop():
    # lift words of random closed circuits and of editing sessions, with
    # axes of every support size spliced in and exponents in
    # {-3, -2, -1, 1, 2, 5}; words read from iterators, the classes, given
    # as lists, left as they were, and each image a tuple
    rng = random.Random(47)
    exps = (-3, -2, -1, 1, 2, 5)
    for g in (2, 3, 5, 8):
        circuits = [rand_closed(rng, g, rng.randint(2, 7)) for _ in range(12)]
        circuits += _session_circuits(rng, g, 10)
        supports = set()
        for c in circuits:
            word = [(axis, rng.choice(exps)) for axis, _ in mu_tilde_word(c)]
            supports.update(sum(1 for t in axis if t) for axis, _ in word)
            for axis in _support_axes(rng, g):
                word.insert(rng.randint(0, len(word)), (axis, rng.choice(exps)))
            xs = [list(x) for x in ident(2 * g)]
            xs += [[rng.randint(-9, 9) for _ in range(2 * g)] for _ in range(rng.randint(0, 3))]
            given = [list(x) for x in xs]
            for x in xs:
                got = apply_word(iter(word), x)
                assert type(got) is tuple and got == _generic(word, x)
            assert xs == given
        assert {1, 2, 2 * g} <= supports  # also among the lift axes themselves


@st.composite
def big_words(draw):
    # a genus 1-4 word of up to six primitive axes, with entries up to 10^6 or small ones, and one
    # to five classes with entries up to 10^6
    n = 2 * draw(st.integers(1, 4))
    big, small = st.integers(-10 ** 6, 10 ** 6), st.integers(-3, 3)
    axis = st.one_of(st.tuples(*[big] * n), st.tuples(*[small] * n)).filter(is_primitive)
    return draw(st.lists(axis, max_size=6)), draw(st.lists(st.tuples(*[big] * n), min_size=1, max_size=5))


BIG = (10 ** 6 - 1, 999_983, -10 ** 6, 3, 17, -999_331)
BIG_AXES = [BIG[i:] + BIG[:i] for i in range(6)]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(big_words())
@example((BIG_AXES, [BIG, BIG[::-1], (1, 0, 0, 0, 0, 0)]))
@example(([], [(0, 0)]))  # every class zero: bound 0, w = 8
def test_packed_word_images_match_the_generic_loop(case):
    # monodromy's packed kernel (_pack, _run, _decode), whose words have exponent 1, against one dot
    # product per class and factor; w is the least multiple of 8 with 2^(w-1) above the
    # a-priori bound, and every true image entry is below 2^(w-1)
    axes, xs = case
    bound = max(sum(map(abs, x)) for x in xs)
    for v in axes:
        bound *= 1 + sum(t * t for t in v)
    w = monodromy._width(bound)
    target(float(w))
    want = word_images_generic([(v, 1) for v in axes], xs)
    assert monodromy._decode(monodromy._run(axes, monodromy._pack(xs, w)), w, len(xs)) == list(zip(*want))
    assert w == bound.bit_length() + 8 & -8 and bound < 2 ** (w - 1)
    assert all(abs(e) < 2 ** (w - 1) for y in want for e in y)
    if axes == BIG_AXES:  # six factors of about 42 bits of growth each
        assert w >= 256


BAD_FACTORS = [((1, 0), 0), ((2, 0), 1), ((0, 0), -1), ((1, 0, 0, 0), 1), ((1, 0, 1), 1),
               ((), 1), ((2, 4), 0), ((0, 0, 0), 0), ((2, 0, 0, 0), 1), ((1,), 2)]


@pytest.mark.parametrize("xs", [[(0, 0)], [A], [list(B), (3, 1)], [(0, 1, 0, 0)], [(1, 0, 0)],
                                [(1, 0), (1, 0, 0, 0)]])
def test_word_images_errors_match_the_generic_loop(xs):
    # zero exponent, non-primitive axis, zero axis, genus mismatch and odd
    # length, alone and in pairs, on each class: the first fault wins, with the same message
    good = [(A, 1), ((1, -1), 2)] if len(xs[0]) == 2 else [((1, 0, 1, 1), -1)]
    for i, bad in enumerate(BAD_FACTORS):
        for other in [None] + BAD_FACTORS[i:]:
            word = good + [bad] + ([other] if other else [])
            for x in xs:
                assert _outcome(apply_word, iter(word), x) == _outcome(_generic, word, x)


def test_apply_word_runs_none_of_the_packed_kernel():
    # apply_word twists its class factor by factor: with monodromy's packed kernel patched to
    # fail, it gives the same images and errors
    def ran(*args):
        raise AssertionError("apply_word ran the packed kernel")

    rng = random.Random(53)
    cases = [([(axis, rng.choice((-2, 1, 3))) for axis, _ in mu_tilde_word(rand_closed(rng, g, 4))],
              rand_primitive(rng, g)) for g in (1, 2, 3) for _ in range(5)]
    cases += [([(A, 1), bad], A) for bad in BAD_FACTORS] + [([], [3, -1]), ([(A, 2)], (1, 0, 0))]
    want = [_outcome(apply_word, word, x) for word, x in cases]
    assert want == [_outcome(_generic, word, x) for word, x in cases]
    with ExitStack() as stack:
        for name in ("_pack", "_run", "_decode", "_width"):
            stack.enter_context(mock.patch.object(monodromy, name, ran))
        assert [_outcome(apply_word, word, x) for word, x in cases] == want


def test_word_matrix_validates():
    with pytest.raises(ValueError, match="nonzero"):
        word_matrix([(A, 1), (B, 0)], 1)
    with pytest.raises(ValueError, match="primitive"):
        word_matrix([(A, 1), ((2, 0), 1)], 1)


def test_delta_twist_genus_one_is_minus_identity():
    assert delta_twist(A, B) == ((-1, 0), (0, -1))


def test_delta_twist_requires_unit_pairing():
    with pytest.raises(ValueError):
        delta_twist((1, 0, 0, 0), (0, 0, 1, 0))


def test_delta_twist_genus_two_block():
    d = delta_twist((1, 0, 0, 0), (0, 1, 0, 0))
    assert d == ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_braid_relation():
    # tau_a tau_b tau_a = tau_b tau_a tau_b when <a,b> = +-1
    a, b = (1, 2), (1, 1)
    assert pairing(a, b) == -1
    lhs = word_matrix([(a, 1), (b, 1), (a, 1)], 1)
    rhs = word_matrix([(b, 1), (a, 1), (b, 1)], 1)
    assert lhs == rhs


def test_commuting_twists():
    a, b = (1, 0, 0, 0), (0, 0, 1, 0)
    assert pairing(a, b) == 0
    assert word_matrix([(a, 1), (b, 1)], 2) == word_matrix([(b, 1), (a, 1)], 2)
