import random
import sys
import time
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sdcalc import homology, monodromy
from sdcalc.circuit import Circuit, Diagram, double, generate, normalize
from sdcalc.homology import (
    apply_word,
    canon_sign,
    delta_twist,
    ident,
    is_symplectic,
    matvec,
    pairing,
    pairing_functional,
    scale,
    transpose,
    twist_matrix,
)
from sdcalc.monodromy import (
    _row_reduce,
    mu_tilde_matrix,
    mu_tilde_word,
    surgered_action,
    verdict,
)

import support
from support import (
    colreduce,
    induced_action,
    k2_chain,
    matrix_by_word,
    mu_tilde_word_generic,
    quotient_basis,
    quotient_basis_by_echelon,
    rand_chain,
    result_or_error,
    rand_closed,
    rand_next,
    rand_primitive,
    recorded_widths,
    solve_int,
    surgered_action_by_matrix,
    verdict_by_matrix,
    word_images_generic,
    word_matrix,
)

TRI = normalize([(1, 0), (1, -1), (0, 1)], True)
AB = normalize([(1, 0), (0, 1)], True)

# genus-2 circuit whose surgered action is not the identity
WITNESS = normalize(
    [(-1, 1, -2, -2), (-7, 2, -2, 0), (-2, 1, -2, -2), (5, 0, 1, -2)], True
)


def test_word_axes_of_dual_pair():
    word = mu_tilde_word(AB)
    assert [a for a, _ in word] == [(1, 1), (1, -1)]
    assert all(e == 1 for _, e in word)


def test_word_axes_are_sign_canonical():
    rng = random.Random(50)
    for _ in range(40):
        c = rand_closed(rng, rng.randint(1, 3), rng.randint(2, 6))
        for a, _ in mu_tilde_word(c):
            assert a == canon_sign(a)


def test_matrix_is_symplectic_and_matches_word():
    rng = random.Random(51)
    for _ in range(40):
        c = rand_closed(rng, rng.randint(1, 3), rng.randint(2, 6))
        m = mu_tilde_matrix(c)
        assert is_symplectic(m)
        assert m == word_matrix(mu_tilde_word(c), c.genus)


def test_eigenvector_law():
    # mu-tilde(g1) = (-1)^c eps g1
    rng = random.Random(52)
    for _ in range(120):
        c = rand_closed(rng, rng.randint(1, 3), rng.randint(2, 7))
        m = mu_tilde_matrix(c)
        want = scale((-1) ** c.length * c.eps, c[0])
        assert matvec(m, c[0]) == want


def test_per_factor_law():
    # each factor sends its own curve to minus the next one
    rng = random.Random(53)
    for _ in range(60):
        c = rand_closed(rng, rng.randint(1, 3), rng.randint(2, 6))
        word = mu_tilde_word(c)
        seq = list(c.curves) + [scale(c.eps, c[0])]
        for i, (axis, e) in enumerate(word):
            out = apply_word([(axis, e)], seq[i])
            assert out == scale(-1, seq[i + 1])


def test_pair_factorization():
    # tau_{g1}^{-c} prod_i (tau_{g_i} tau_{g_{i+1}}) reproduces the lift
    rng = random.Random(54)
    for _ in range(40):
        c = rand_closed(rng, rng.randint(1, 3), rng.randint(2, 6))
        n = c.length
        seq = list(c.curves) + [scale(c.eps, c[0])]
        word = [t for i in range(n) for t in ((seq[i + 1], 1), (seq[i], 1))]
        word += [(c[0], -n)]
        assert word_matrix(word, c.genus) == mu_tilde_matrix(c)


def test_triple_factorization():
    # tau_{g1}^{-2c} prod_i (tau_i tau_{i+1} tau_i) also reproduces it
    rng = random.Random(55)
    for _ in range(40):
        c = rand_closed(rng, rng.randint(1, 3), rng.randint(2, 6))
        n = c.length
        seq = list(c.curves) + [scale(c.eps, c[0])]
        word = [t for i in range(n) for t in ((seq[i], 1), (seq[i + 1], 1), (seq[i], 1))]
        word += [(c[0], -2 * n)]
        assert word_matrix(word, c.genus) == mu_tilde_matrix(c)


def test_mu_tilde_word_genus_one_branch_matches_the_generic_loop():
    rng = random.Random(56)
    circuits = [generate(seed, rng.randint(0, 80))[0] for seed in range(60)]
    circuits += [rand_closed(rng, g, rng.randint(2, 7)) for g in (1, 1, 2, 3, 5) for _ in range(30)]
    circuits.append(k2_chain(1001))
    for c in circuits:
        word = mu_tilde_word_generic(c)
        assert mu_tilde_word(c) == word
        assert mu_tilde_matrix(c) == transpose(word_images_generic(word, ident(2 * c.genus)))


def test_mu_tilde_word_names_a_hand_built_genus_mismatch():
    mixed = Circuit(((1, 0), (0, 1, 0, 0), (0, 1)), True)
    with pytest.raises(ValueError) as want:
        mu_tilde_word_generic(mixed)
    with pytest.raises(ValueError, match="^%s$" % want.value):
        mu_tilde_word(mixed)


def test_mu_tilde_requires_untwisted_closed():
    with pytest.raises(ValueError):
        mu_tilde_word(normalize([(1, 0), (0, 1)], False))
    with pytest.raises(ValueError):
        mu_tilde_word(Diagram(AB, twist_matrix((1, 0), 1)))


def test_induced_action_shape():
    a = (1, 0, 0, 0)
    act = induced_action(a, ident(4))
    assert act.quotient_rank == 2
    assert act.matrix == ident(2)
    assert act.base_class == a
    assert len(act.basis) == 2
    for b in act.basis:
        assert pairing(a, b) == 0


def test_quotient_basis_completes_a_unimodular_basis():
    # a, the quotient basis and any d with <a, d> = 1 form a basis of Z^2g,
    # and coords reads off the coefficients over the quotient basis
    rng = random.Random(21)
    for g in (1, 2, 3, 5):
        for _ in range(60):
            a = rand_primitive(rng, g, rng.choice((2, 5, 30)))
            qb, coords = quotient_basis(a)
            assert len(qb) == 2 * g - 2
            assert all(pairing(a, q) == 0 for q in qb)
            d, _ = solve_int([pairing_functional(a)], [1])
            h, _, _ = colreduce([a, *qb, d])  # rows; full rank with unit pivots
            assert all(h[i][i] == 1 for i in range(2 * g))
            cs = [rng.randint(-4, 4) for _ in qb]
            x = tuple(sum(c * q[i] for c, q in zip(cs, qb)) + 3 * a[i] for i in range(2 * g))
            assert coords(x) == tuple(cs)
            with pytest.raises(ValueError, match="pair to zero"):
                coords(d)


def _as_lists(d, U, Ui):
    return d, [list(v) for v in U], [list(v) for v in Ui]


def _row_reduce_by_echelon(r):
    # d = H[0][0], U as its columns, Ui as its rows
    H, U, Ui = colreduce([r])
    return _as_lists(H[0][0], zip(*U), Ui)


ROWS = [
    [0],
    [0, 0, 0, 0],
    [-7],
    [0, 0, 5, 0],
    [0, -3, 0, 0, 0, 0],
    [6, -4, 9, 4],  # negative smallest entry, tied with a positive one after it
    [4, -4, 4, -4, 6],  # tied magnitudes
    [-4, 4, -6],
    [10 ** 30, 10 ** 30 + 1, -(10 ** 30) + 7, 3 * 10 ** 29],
    [-(10 ** 30) - 1, 2 * 10 ** 30 + 3],
]


def _sparse(rows):
    return [{k: v for k, v in enumerate(row) if v} for row in rows]


def _dense(rows, m):
    return [[row.get(k, 0) for k in range(m)] for row in rows]


def test_row_reduce_matches_column_echelon():
    # _row_reduce carries sparse rows {index: value}; they are read as dense lists here
    rng = random.Random(90)
    rows = list(ROWS)
    for _ in range(600):
        lim = rng.choice((1, 3, 20, 10 ** 6, 10 ** 30))
        rows.append([rng.choice((0, rng.randint(-lim, lim))) for _ in range(rng.randint(1, 16))])
    for r in rows:
        n = len(r)
        want = _row_reduce_by_echelon(r)
        # from two separately built identities, U and Ui = U^-1 themselves
        d, SU, SUi = _row_reduce(r, _sparse(ident(n)), _sparse(ident(n)))
        U, Ui = _dense(SU, n), _dense(SUi, n)
        assert (d, U, Ui) == want, r
        # the carry law: from rows A (read as columns) and B (read as rows),
        # the result is the identity run's U applied to A and its Ui applied to B
        m = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        B = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        SA, SB = _sparse(A), _sparse(B)
        outer_a, outer_b, before = list(SA), list(SB), [dict(row) for row in SA + SB]
        got = _row_reduce(r, outer_a, outer_b)
        assert (got[0], _dense(got[1], m), _dense(got[2], m)) == (
            d,
            [[sum(u[k] * A[k][t] for k in range(n)) for t in range(m)] for u in U],
            [[sum(v[k] * B[k][t] for k in range(n)) for t in range(m)] for v in Ui]), r
        # in place: the outer lists are updated, and the rows they held are replaced, never written into
        assert got[1] is outer_a and got[2] is outer_b, r
        assert SA + SB == before, r
        # no row shared between U and Ui: writing into U leaves Ui as it was
        for col in SU:
            col.clear()
        assert _dense(SUi, n) == want[2], r


@pytest.mark.parametrize("g", [1, 2, 3, 5, 8, 25, 50])
def test_quotient_basis_matches_echelon_oracle(g):
    # the oracle is dense, about 20 ms a class at g = 25 and 130 ms at g = 50
    rng = random.Random(40 + g)
    n = 2 * g
    for _ in range({25: 20, 50: 4}.get(g, 40)):
        a = rand_primitive(rng, g, rng.choice((1, 4, 50, 10 ** 6)))
        qb, coords = quotient_basis(a)
        qb_ref, coords_ref = quotient_basis_by_echelon(a)
        assert qb == qb_ref
        d, kernel = solve_int([pairing_functional(a)], [1])
        for _ in range(5):
            cs = [rng.randint(-9, 9) for _ in kernel]
            x = tuple(sum(c * k[i] for c, k in zip(cs, kernel)) for i in range(n))
            assert coords(x) == coords_ref(x)
        for x in (d, (0,) * (n + 2), (0,) * (n - 1)):
            with pytest.raises(ValueError) as got:
                coords(x)
            with pytest.raises(ValueError) as want:
                coords_ref(x)
            assert str(got.value) == str(want.value)
        k = rng.choice((2, -3, 6))
        for b in ((0,) * n, tuple(k * t for t in a)):
            with pytest.raises(ValueError) as got:
                quotient_basis(b)
            with pytest.raises(ValueError) as want:
                quotient_basis_by_echelon(b)
            assert str(got.value) == str(want.value)


# two classes whose reductions cancel entries of a sparse row to zero
CANCELLING = [(9, 11, -9, -37, 17, -47), (10, -31, 20, -18, -36, -15, -30, 46)]


@pytest.mark.parametrize("a", [rand_primitive(random.Random(300), 300, 3), *CANCELLING],
                         ids=["g300", "cancelling_g3", "cancelling_g4"])
def test_sparse_quotient_builds_no_identity(a):
    # the reductions start from sparse identities {i: 1}: with ident patched to raise, _quotient
    # still gives 2g - 2 classes in a^perp whose coordinate rows, nonzero entries in ascending
    # index, read each as its unit vector, and the same errors for a zero, non-primitive or
    # odd-length class; deterministic, at g = 300 and on the two cancelling classes
    g = len(a) // 2
    with mock.patch.object(monodromy, "ident", side_effect=AssertionError), \
            mock.patch.object(homology, "ident", side_effect=AssertionError):
        qb, rows = monodromy._quotient(a)
        errors = [result_or_error(monodromy._quotient, b)
                  for b in ((0,) * 2 * g, tuple(6 * t for t in a), a[:-1])]
    assert len(qb) == 2 * g - 2 == len(rows) - 1
    assert all(len(q) == 2 * g and pairing(a, q) == 0 for q in qb)
    cols = list(zip(*qb))  # cols[j]: the j-th entry of every class
    for r, row in enumerate(rows):
        assert [j for j, _ in row] == sorted({j for j, v in row if v}), r
        read = [0] * len(qb)
        for j, v in row:
            read = [x + v * y for x, y in zip(read, cols[j])]
        assert read == [int(r == s + 1) for s in range(len(qb))], r  # row 0 reads <a,.> = 0
    assert errors == [
        (ValueError, "quotient base class must be primitive, got %r" % ((0,) * 2 * g,), None),
        (ValueError, "quotient base class must be primitive, got %r" % (tuple(6 * t for t in a),), None),
        (ValueError, "coefficient vector must have positive even length, got %d" % (2 * g - 1), None)]


@pytest.mark.parametrize("a", [(), (1,), (1, 0, 0)])
def test_quotient_basis_needs_a_class_of_positive_even_length(a):
    with pytest.raises(ValueError, match="^coefficient vector must have positive even length, got %d$" % len(a)):
        quotient_basis(a)


def test_induced_action_rejects_imprimitive_base():
    with pytest.raises(ValueError):
        induced_action((2, 0, 0, 0), ident(4))


def test_kernel_law_twists_about_base():
    # tau_a^k acts as the identity on the surgered quotient
    rng = random.Random(56)
    for _ in range(60):
        g = rng.randint(2, 4)
        a = rand_primitive(rng, g)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        act = induced_action(a, twist_matrix(a, k))
        assert act.matrix == ident(2 * g - 2)


def test_kernel_law_delta_twist():
    # the full twist on a dual pair containing the base also dies
    rng = random.Random(57)
    for _ in range(60):
        g = rng.randint(2, 4)
        a = rand_primitive(rng, g)
        x = rand_next(rng, a)
        act = induced_action(a, delta_twist(a, x))
        assert act.matrix == ident(2 * g - 2)


def test_surgered_action_and_verdict_match_matrix_oracle():
    # basis images under the lift word against the induced action of the
    # whole lift matrix; whole objects compared, witnesses included
    rng = random.Random(60)
    circuits = [WITNESS]
    for g in (1, 2, 3, 5, 8):
        for length in range(2, 10):
            circuits += [rand_closed(rng, g, length) for _ in range(3)]
    circuits += [generate(seed, rng.randint(0, 40))[0] for seed in range(20)]
    circuits += [double(rand_chain(rng, rng.randint(1, 4), rng.randint(2, 8))) for _ in range(20)]
    kinds = set()
    for c in circuits:
        assert surgered_action(c) == surgered_action_by_matrix(c)
        v = verdict(c)
        assert v == verdict_by_matrix(c)
        kinds.add(v.kind)
    assert kinds == {"HomologicallyTrivial", "ObstructedOnHomology"}


def test_surgered_action_rejects_hand_built_circuits():
    # a hand-built, un-normalized genus-1 circuit: the quotient is empty,
    # but the word check still runs ...
    bad = Circuit(((1, 0), (0, 2)), True)
    # and a genus-2 one whose lift leaves a^perp, seen by the coordinates
    off = Circuit(((0, 1, 0, 1), (-1, 0, -1, 1), (0, 0, 1, -1)), True)
    with pytest.raises(ValueError, match="twist axis must be primitive"):
        mu_tilde_matrix(bad)
    for f in (surgered_action, verdict):
        with pytest.raises(ValueError, match="twist axis must be primitive"):
            f(bad)
        with pytest.raises(ValueError, match="does not pair to zero"):
            f(off)


def action_by_word(c):
    """The surgered action as the word path reads it: the quotient basis's
    images under the generic lift word, through the generic kernel."""
    a = c.curves[0]
    qb, coords = quotient_basis(a)
    images = word_images_generic(mu_tilde_word_generic(c), qb)
    return monodromy.SurgeredAction(a, len(qb), transpose([coords(y) for y in images]), tuple(qb))


def verdict_of(act):
    moved = [b for b, col, e in zip(act.basis, zip(*act.matrix), ident(act.quotient_rank)) if col != e]
    return monodromy.Verdict(*(("ObstructedOnHomology", moved[0]) if moved else ("HomologicallyTrivial",)))


def report(c):
    """The `sdcalc monodromy` payload, for comparison with report_by_word."""
    return monodromy._monodromy_report(c)[0]


def report_by_word(c):
    """The `sdcalc monodromy` payload from the word path: word, then the matrix
    (an imprimitive axis raises here), then the action."""
    word, mat, act = mu_tilde_word_generic(c), matrix_by_word(c), action_by_word(c)
    ver = verdict_of(act)
    return {"word": [{"axis": a, "exponent": e} for a, e in word], "matrix": mat,
            "surgered": {"base": act.base_class, "rank": act.quotient_rank, "basis": act.basis,
                         "matrix": act.matrix},
            "verdict": dict(ver._asdict(), text=ver.text)}


def lift_factor_cases():
    """Genus 2-6: normalized circuits, the same with scrambled signs, and hand-built
    closed circuits whose adjacent pairings need not be +-1."""
    rng = random.Random(64)
    circs = [WITNESS] + [rand_closed(rng, g, rng.randint(2, 8)) for g in range(2, 7) for _ in range(16)]
    circs += [Circuit(tuple(scale(rng.choice((1, -1)), v) for v in c), True) for c in circs]
    dense, sparse = range(-3, 4), (0, 0, 0, 0, 1, -1, 2)
    while len(circs) < 1000:  # sparse ones with a unit closing pairing, which the lift needs, may pass
        n, entries = 2 * rng.randint(2, 6), dense if len(circs) < 500 else sparse
        c = Circuit(tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(rng.randint(1, 7))), True)
        if entries is dense or c.eps in (1, -1):
            circs.append(c)
    return circs


LIFT_ERRORS = ("twist axis must be primitive", "quotient base class must be primitive", "does not pair to zero")


def test_lift_factors_match_the_word_path():
    # word, matrix, action, verdict and report against the generic lift word run
    # through the generic kernel: equal results, or errors of one type and message
    errors, passed_off_units = set(), 0
    for c in lift_factor_cases():
        got = [result_or_error(f, c) for f in (mu_tilde_matrix, surgered_action, verdict, report,
                                               mu_tilde_word)]
        want = [result_or_error(f, c) for f in (matrix_by_word, action_by_word,
                                                lambda c: verdict_of(action_by_word(c)), report_by_word,
                                                mu_tilde_word_generic)]
        assert got == want, c
        errors.update(next(k for k in LIFT_ERRORS if k in r[1]) if isinstance(r, tuple) and r[0] is ValueError
                      else None for r in got)
        ext = c.extended(1)
        passed_off_units += isinstance(got[1], monodromy.SurgeredAction) and \
            any(pairing(x, y) not in (1, -1) for x, y in zip(ext, ext[1:]))
    assert errors == {None, *LIFT_ERRORS}
    assert passed_off_units


def test_surgered_action_genus_one_is_empty():
    act = surgered_action(TRI)
    assert act.quotient_rank == 0
    assert act.matrix == ()


def test_genus_one_checks_the_base_class_before_the_axes():
    # g_1 = (2, 0) and the lift axis (4, -4) are both imprimitive: the surgered
    # action checks g_1 first, as quotient_basis does, and the lift matrix only has axes
    bad = Circuit(((2, 0), (0, 1)), True)
    assert [a for a, _ in mu_tilde_word(bad)][-1] == (4, -4)
    for f in (surgered_action, verdict):
        with pytest.raises(ValueError, match=r"^quotient base class must be primitive, got \(2, 0\)$"):
            f(bad)
    with pytest.raises(ValueError, match=r"^twist axis must be primitive, got \(4, -4\)$"):
        mu_tilde_matrix(bad)


def torus_action_by_matrix(c):
    """surgered_action_by_matrix with g_1 checked first, as monodromy._quotient does."""
    quotient_basis_by_echelon(c.curves[0])
    return surgered_action_by_matrix(c)


def torus_verdict_by_matrix(c):
    quotient_basis_by_echelon(c.curves[0])
    return verdict_by_matrix(c)


def torus_fold_cases():
    """Genus-1 circuits: 72 generator circuits of mean length 100, steps 0-60,
    the same with scrambled signs, and hand-built ones whose adjacent pairings
    need not be +-1, with imprimitive curves and axes among them."""
    rng = random.Random(61)
    circs = [generate(s, 40 + s % 61)[0] for s in range(72)] + [generate(s, s)[0] for s in range(61)]
    circs += [Circuit(tuple(scale(rng.choice((1, -1)), v) for v in c), True) for c in circs]
    for _ in range(300):
        curves = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        circs.append(Circuit(tuple(curves), True))
    return circs


def test_torus_lift_matrix_and_checks_match_the_word_oracles():
    # the folded 2x2 matrix against the generic word's; the checks against the
    # matrix oracles; the report against the word path's; errors compared by type and message
    errors = set()
    for c in torus_fold_cases():
        got = [result_or_error(f, c) for f in (mu_tilde_matrix, surgered_action, verdict, report)]
        assert got == [result_or_error(f, c) for f in (matrix_by_word, torus_action_by_matrix,
                                                       torus_verdict_by_matrix, report_by_word)], c
        errors.update(r[1].partition(", got")[0] if isinstance(r, tuple) and r[0] is ValueError else None
                      for r in got)
    assert errors == {None, "twist axis must be primitive", "quotient base class must be primitive"}


# the lift code that the oracles check, with the packed kernel (width, packer, run and decoder)
# that it runs
LIFT_CODE = ("mu_tilde_word", "mu_tilde_matrix", "surgered_action", "verdict", "_axes", "_twists",
             "_lifted_coords", "_width", "_pack", "_run", "_decode")


def test_lift_oracles_run_none_of_the_lift_code():
    # every oracle of the lift, its matrix, action, verdict and report, and word_matrix on the
    # lift's word with other exponents, still runs with the lift code patched to fail wherever
    # it is bound, so none of them shares it
    def ran(*args):
        raise AssertionError("an oracle ran the lift code")

    def word_matrix_at_minus_two(c):
        return word_matrix([(v, -2) for v, _ in mu_tilde_word_generic(c)], c.genus)

    oracles = (matrix_by_word, surgered_action_by_matrix, verdict_by_matrix, torus_action_by_matrix,
               torus_verdict_by_matrix, action_by_word, report_by_word, mu_tilde_word_generic,
               word_matrix_at_minus_two)
    circs = torus_fold_cases()[::7] + lift_factor_cases()[::10]
    assert {c.genus for c in circs} >= {1, 2}
    want = [[result_or_error(f, c) for f in oracles] for c in circs]
    with ExitStack() as stack:
        for module in (monodromy, homology, support, sys.modules[__name__]):
            for name in LIFT_CODE:
                if name in vars(module):
                    stack.enter_context(mock.patch.object(module, name, ran))
        assert [[result_or_error(f, c) for f in oracles] for c in circs] == want


def test_torus_errors_name_the_canonical_axis_and_check_g1_first():
    # <x,y> = -2: the axis y - 2x = (-2, -2) is named by its canonical sign
    bad = Circuit(((1, 0), (0, -2), (1, 1)), True)
    for f in (mu_tilde_matrix, surgered_action, verdict):
        with pytest.raises(ValueError, match=r"^twist axis must be primitive, got \(2, 2\)$"):
            f(bad)
    both = Circuit(((3, 0), (0, -2)), True)
    for f in (surgered_action, verdict):
        with pytest.raises(ValueError, match=r"^quotient base class must be primitive, got \(3, 0\)$"):
            f(both)


@st.composite
def packed_lift_cases(draw):
    """Genus 2-6: random closed circuits with c < 2g or c >= 2g, and unvalidated closed circuits,
    dense or sparse, whose adjacent pairings need not be +-1."""
    g = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("c < 2g", "c >= 2g", "dense", "sparse")))
    if kind == "c < 2g":
        return rand_closed(random.Random(draw(st.integers(0, 10 ** 9))), g, draw(st.integers(2, 2 * g - 1)))
    if kind == "c >= 2g":
        return rand_closed(random.Random(draw(st.integers(0, 10 ** 9))), g, draw(st.integers(2 * g, 2 * g + 4)))
    entry = st.integers(-3, 3) if kind == "dense" else st.sampled_from((0, 0, 0, 0, 1, -1, 2))
    return Circuit(tuple(draw(st.lists(st.tuples(*[entry] * (2 * g)), min_size=1, max_size=7))), True)


def _bound(f, c):
    """The a-priori bound on a call's packed slots: the growth prod (1 + |v|_2^2) over the lift axes,
    and for the action and verdict max |q|_1 over the quotient basis and max |r|_1 over its rows."""
    bound = 1
    for v, _ in mu_tilde_word_generic(c):
        bound *= 1 + sum(t * t for t in v)
    if f is mu_tilde_matrix:
        return bound
    qb, rows = monodromy._quotient(c.curves[0])
    return bound * max(sum(map(abs, q)) for q in qb) * max(sum(abs(v) for _, v in row) for row in rows)


def _l1_linf_width(c):
    """The lift matrix's width under the rule the l2 bound replaced, prod (1 + |v|_1 |v|_inf)."""
    bound = 1
    for v, _ in mu_tilde_word_generic(c):
        bound *= 1 + sum(map(abs, v)) * max(map(abs, v))
    return bound.bit_length() + 8 & -8


def _true_entries(f, c, got):
    """The entries a call's packed slots hold, read from the oracles: the lift matrix's, or for the
    action and verdict the lift's images of the quotient basis and their coordinates."""
    if f is mu_tilde_matrix:
        return [e for row in got for e in row]
    lift, act = matrix_by_word(c), surgered_action_by_matrix(c)
    return [e for q in act.basis for e in matvec(lift, q)] + [e for row in act.matrix for e in row]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(packed_lift_cases())
def test_packed_lift_matches_the_matrix_oracles(c):
    # matrix, action and verdict on the packed kernel against the whole lift matrix from the
    # generic word: equal results, or errors of one type and message ("does not pair to zero"
    # among them); a packed run's w is the least multiple of 8 with 2^(w-1) above the a-priori
    # bound, the lift matrix's never wider than under the l1-linf rule, and on every result each
    # true entry of a slot is below 2^(w-1)
    for f, oracle in ((mu_tilde_matrix, matrix_by_word), (surgered_action, torus_action_by_matrix),
                      (verdict, torus_verdict_by_matrix)):
        with recorded_widths() as widths:
            got = result_or_error(f, c)
        assert got == result_or_error(oracle, c), f
        if widths:  # the call reached its one packed run
            (w,), bound = widths, _bound(f, c)
            assert w == bound.bit_length() + 8 & -8 and bound < 2 ** (w - 1), f
            assert f is not mu_tilde_matrix or w <= _l1_linf_width(c)
        if not (isinstance(got, tuple) and got[0] is ValueError):
            assert all(abs(e) < 2 ** (w - 1) for e in _true_entries(f, c, got)), f


def _padded(c, g, at):
    """c carried by handles at, at + 1, ... of a genus-g surface, zero on the others."""
    before, after = (0,) * (2 * at), (0,) * (2 * g - 2 * at - len(c.curves[0]))
    return normalize([before + x + after for x in c.curves], True)


def test_verdict_witness_at_large_genus_matches_the_matrix_oracle():
    # six curves at g = 60, carried by handles past the first ones, so no early quotient basis
    # class moves and the witness is a late slot; the action's rows first move at different
    # slots, so the witness is the least of them.  A doubled chain is never obstructed.
    rng = random.Random(34)
    g = rng.randint(3, 6)
    base = rand_closed(rng, g, 6, rng.choice((1, 2)))
    for at in (40, 60 - g):
        c = _padded(base, 60, at)
        v, act = verdict(c), torus_action_by_matrix(c)
        assert v == verdict_of(act)
        firsts = {next(j for j, e in enumerate(row) if e != (j == r)) for r, row in enumerate(act.matrix)
                  if row != ident(act.quotient_rank)[r]}
        assert len(firsts) > 1
        assert act.basis.index(v.witness) == min(firsts) >= 70
    d = double(rand_chain(random.Random(60), 60, 4))
    assert d.length == 6
    assert verdict(d) == verdict_by_matrix(d) == monodromy.Verdict("HomologicallyTrivial")


@pytest.mark.parametrize("circ, calls", [(TRI, 0), (AB, 0), (WITNESS, 1)])
def test_genus_one_skips_the_quotient_machinery(circ, calls):
    # patched in monodromy's namespace, the packed kernel's only home, so every run of it is counted
    for f in (surgered_action, verdict, mu_tilde_matrix):
        with mock.patch.object(monodromy, "_quotient", wraps=monodromy._quotient) as qb, \
                mock.patch.object(monodromy, "mu_tilde_word", wraps=monodromy.mu_tilde_word) as word, \
                mock.patch.object(monodromy, "_axes", wraps=monodromy._axes) as axes, \
                mock.patch.object(monodromy, "_run", wraps=monodromy._run) as runs:
            f(circ)
        # no word at any genus; above genus 1 one axis pass and one kernel run
        assert word.call_count == 0, f
        assert axes.call_count == runs.call_count == calls, f
        assert qb.call_count == (0 if f is mu_tilde_matrix else calls), f


def test_lift_factors_skip_canon_sign_when_every_pairing_is_a_unit():
    # every adjacent pairing of a normalized circuit is +-1, so no axis is checked or
    # canonicalized; only the word canonicalizes
    rng = random.Random(63)
    for c in [WITNESS] + [rand_closed(rng, g, rng.randint(2, 7)) for g in (2, 3, 5) for _ in range(4)]:
        for f in (mu_tilde_matrix, surgered_action, verdict):
            with mock.patch.object(monodromy, "canon_sign", wraps=canon_sign) as canon:
                f(c)
            assert canon.call_count == 0, (f, c)


@pytest.mark.parametrize("circ", [TRI, WITNESS])
def test_surgered_action_and_verdict_unpack_once(circ):
    for f in (surgered_action, verdict, mu_tilde_matrix):
        with mock.patch.object(monodromy, "_unpack", wraps=monodromy._unpack) as unpack:
            f(circ)
        assert unpack.call_count == 1, f


def test_doubles_are_never_obstructed():
    rng = random.Random(58)
    from support import rand_chain

    for _ in range(40):
        ch = rand_chain(rng, rng.randint(1, 3), rng.randint(2, 6))
        v = verdict(double(ch))
        assert v.kind == "HomologicallyTrivial"
        assert v.witness is None
        assert v.text == "not obstructed on homology"


def test_obstructed_witness_circuit():
    assert WITNESS.eps == -1
    act = surgered_action(WITNESS)
    assert act.quotient_rank == 2
    assert act.matrix == ((-25, 11), (84, -37))
    v = verdict(WITNESS)
    assert v.kind == "ObstructedOnHomology"
    assert v.witness == (2, 0, 1, 0)
    assert v.text == "obstructed on homology: moves (2, 0, 1, 0)"


def test_verdict_never_says_trivial_for_genus_two():
    # wording stays on the homological level
    for c in (WITNESS, double(TRI)):
        v = verdict(c)
        assert "trivial" not in v.text


def test_surgered_action_conjugation_consistency():
    # the quotient matrix composes: action of m1*m2 = action(m1)*action(m2)
    # whenever both matrices fix the base class up to sign
    from sdcalc._power import matmul

    rng = random.Random(59)
    for _ in range(40):
        g = rng.randint(2, 3)
        a = rand_primitive(rng, g)
        m1 = twist_matrix(a, rng.randint(1, 3))
        x = rand_next(rng, a)
        m2 = delta_twist(a, x)
        lhs = induced_action(a, matmul(m1, m2)).matrix
        rhs = matmul(induced_action(a, m1).matrix, induced_action(a, m2).matrix)
        assert lhs == rhs


def test_surgered_action_at_genus_200_is_bounded():
    # six curves at g = 200 hold 2400 integers; the action is (2g - 2)^2 of
    # them, so the work is O(g^2) per curve, not the O(g^3) of dense products
    circ = rand_closed(random.Random(200), 200, 6)
    start = time.perf_counter()
    act = surgered_action(circ)
    v = verdict(circ)
    assert time.perf_counter() - start < 4.0
    assert act.quotient_rank == 398
    assert v.kind in ("HomologicallyTrivial", "ObstructedOnHomology")
