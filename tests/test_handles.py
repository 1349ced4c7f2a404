import random
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdcalc.handles
from sdcalc.circuit import Circuit, Diagram, generate, normalize, switch
from sdcalc.handles import (
    BlfData,
    KirbyData,
    LinkingMatrix,
    _sweep_invariants,
    _sweep_torus,
    emit_kirby,
    euler_characteristics,
    fiber_framing,
    form_invariants,
    linking,
    linking_matrix,
    suffix_spanners,
    to_blf,
)
from sdcalc.homology import add, pairing, scale, twist_apply
from sdcalc.subst import apply_blowup, apply_stabilization

from support import (far_pivot_family, generate_by_moves, linking_by_halves, linking_matrix_eager,
                     rand_chain, rand_closed, result_or_error, symmetric_invariants)

TRI = normalize([(1, 0), (1, -1), (0, 1)], True)
AB = normalize([(1, 0), (0, 1)], True)


def test_odd_length_classes_are_one_value_error():
    msg = "^coefficient vector must have positive even length, got 3$"
    with pytest.raises(ValueError, match=msg):
        fiber_framing((1, 2, 3))
    with pytest.raises(ValueError, match=msg):
        linking((1, 2, 3), 1, (1, 2, 3), 2)
    assert linking((1, 2), 1, (3, 4), 2) == 6 and fiber_framing([0, 0, 2, 3]) == 6


def test_fiber_framing():
    assert [fiber_framing(v) for v in TRI] == [0, -1, 0]
    assert fiber_framing((2, 3)) == 6
    assert fiber_framing((1, 2, 3, 4)) == 14
    with pytest.raises(ValueError):
        fiber_framing((0, 0))


def test_linking_is_integer_and_antisymmetric_in_order():
    rng = random.Random(2)
    for _ in range(200):
        g = rng.randint(1, 3)
        x = tuple(rng.randint(-5, 5) for _ in range(2 * g))
        y = tuple(rng.randint(-5, 5) for _ in range(2 * g))
        v = linking(x, 1, y, 2)
        assert isinstance(v, int)
        assert v == linking(y, 2, x, 1)  # symmetric as a matrix entry


def test_linking_matches_half_pairing_formula():
    rng = random.Random(3)
    for _ in range(300):
        g = rng.randint(1, 4)
        x = tuple(rng.randint(-5, 5) for _ in range(2 * g))
        y = tuple(rng.randint(-5, 5) for _ in range(2 * g))
        i, j = rng.sample(range(1, 9), 2)
        assert linking(x, i, y, j) == linking_by_halves(x, i, y, j)


def test_linking_matrix_matches_half_pairing_formula():
    rng = random.Random(4)
    circuits = [rand_closed(rng, rng.randint(1, 3), rng.randint(2, 7)) for _ in range(40)]
    circuits += generate_by_moves(4, 12)[3]
    for c in circuits:
        cs = c.curves
        expect = tuple(
            tuple(fiber_framing(x) if i == j else linking_by_halves(x, i, y, j)
                  for j, y in enumerate(cs))
            for i, x in enumerate(cs)
        )
        assert linking_matrix(c).entries == expect


LAZY_CASES = [rand_closed(random.Random(50 + g), g, n) for g in (1, 2, 3, 5) for n in (2, 3, 6, 11)]
LAZY_CASES += generate_by_moves(5, 60)[3]  # steps 0 to 60


def test_lazy_linking_matrix_matches_eager_oracles():
    for c in LAZY_CASES:
        cs = c.curves
        eager = linking_matrix_eager(c)
        by_halves = tuple(
            tuple(fiber_framing(x) if i == j else linking_by_halves(x, i, y, j)
                  for j, y in enumerate(cs))
            for i, x in enumerate(cs)
        )
        m = linking_matrix(c)
        assert tuple(m.rows()) == eager == by_halves
        assert "entries" not in vars(m)  # rows() streams without keeping them
        assert m.entries == eager and tuple(m.rows()) == eager
        inv = form_invariants(m)
        assert (inv.rank, inv.signature) == symmetric_invariants(eager)


def test_form_invariants_leave_the_entries_unbuilt():
    c = generate(3, 80)[0]
    assert c.length >= 100
    m = linking_matrix(c)
    kd = emit_kirby(c)
    inv = form_invariants(m)
    assert m.size == c.length and form_invariants(kd.linking) == inv
    assert "entries" not in vars(m) and "entries" not in vars(kd.linking)
    assert m.entries == linking_matrix_eager(c)
    assert "entries" in vars(m)


def test_check_printable_reads_rows_only_past_the_bound(monkeypatch):
    big = 10 ** 4300  # one digit more than str() prints by default
    LinkingMatrix(((1, big - 1), (0, 1))).check_printable()  # framing big - 1
    with pytest.raises(ValueError, match="integer string conversion"):
        LinkingMatrix(((1, 0), (-1, big))).check_printable()  # framing -big
    n = int("7" * 2200)  # bound 2 n^2 is too long, every entry fits
    m = linking_matrix(normalize([(1, 0, 0, n), (1, 1, 0, 0), (0, 1, 7, 0)], False))
    rows, read = m.rows, []
    monkeypatch.setattr(m, "rows", lambda: read.append(1) or rows())
    m.check_printable()
    assert read == [1]
    with pytest.raises(ValueError, match="integer string conversion"):
        linking_matrix(normalize([(1, 0, 0, n), (1, 1, 0, 0), (0, 1, n, 0)], False)).check_printable()
    small = linking_matrix(generate(3, 80)[0])
    monkeypatch.setattr(small, "rows", None)  # not called below the bound
    small.check_printable()


def test_linking_matrix_needs_curves():
    with pytest.raises(TypeError):
        LinkingMatrix()
    with pytest.raises(TypeError):
        LinkingMatrix(entries=((0,),))


# without a length check the first two read rank 0, and rank 2 parity Odd, through zip's
# truncation, and the third failed to unpack its second curve
MIXED_LENGTHS = [[(1, 0, 0, 1), (1, 0)], [(0, 1, 0, 0), (1, 0, 0, 0, 1, 1)], [(1, 0), (1, 0, 0, 1)]]


@pytest.mark.parametrize("curves", MIXED_LENGTHS)
def test_linking_matrix_needs_curves_of_one_length(curves):
    with pytest.raises(ValueError, match="^genus mismatch: curves of different lengths$"):
        LinkingMatrix(curves)


def test_linking_requires_distinct_positions():
    with pytest.raises(ValueError):
        linking((1, 0), 1, (0, 1), 1)
    with pytest.raises(ValueError):
        linking((1, 0), 1, (0, 1, 0, 0), 2)


def test_linking_matrix_carries_curves_outside_equality():
    m = linking_matrix(TRI)
    assert m.curves == TRI.curves
    other = LinkingMatrix(((-1, 0), (1, -1), (0, 1)))  # TRI with g_1 flipped, same entries
    assert other.curves != m.curves
    assert m == other and hash(m) == hash(other) and repr(m) == repr(other)
    with pytest.raises(ValueError, match="zero class"):
        linking_matrix(Circuit(((1, 0), (0, 0)), False))


def test_linking_matrix_of_triangle():
    m = linking_matrix(TRI)
    assert m.entries == ((0, 0, 0), (0, -1, 0), (0, 0, 0))
    assert m.size == 3


def test_linking_matrix_diagonal_is_framing():
    c = rand_closed(random.Random(8), 2, 6)
    m = linking_matrix(c)
    for i, v in enumerate(c.curves):
        assert m.entries[i][i] == fiber_framing(v)


def _inv(m):
    r = form_invariants(m)
    return r.rank, r.signature, r.parity


def test_form_invariants_examples():
    assert _inv(linking_matrix(TRI)) == (1, -1, "Odd")
    for curves, entries, inv in [
        (((0, 1), (1, -5)), ((0, 1), (1, -5)), (2, 0, "Odd")),
        (((1, 0), (1, 0)), ((0, 0), (0, 0)), (0, 0, "Even")),
        (((1, 2, 0, 0), (0, 0, 1, 2)), ((2, 0), (0, 2)), (2, 2, "Even")),
        ((), (), (0, 0, "Even")),
    ]:
        m = LinkingMatrix(curves)
        m.check_printable()  # with no curves too
        assert m.entries == entries and _inv(m) == inv


def _reference_invariants(rows):
    # rational symmetric congruence diagonalization, the slow way
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    rank = sig = 0
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][i] != 0), None)
        if p is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if a[i][j] != 0), None)
            if off is None:
                break
            i, j = off
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            p = i
        if p != k:
            a[k], a[p] = a[p], a[k]
            for t in range(n):
                a[t][k], a[t][p] = a[t][p], a[t][k]
        d = a[k][k]
        rank += 1
        sig += 1 if d > 0 else -1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / d
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return rank, sig


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_form_invariants_match_rational_reference(seed, n):
    # the Bareiss oracle on any symmetric matrix, and the sweep on the
    # linking matrix of any curve list
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-6, 6)
    if rng.random() < 0.4:  # force zero diagonals to hit the hyperbolic path
        for i in range(n):
            rows[i][i] = 0
    assert symmetric_invariants(rows) == _reference_invariants(rows)
    g = rng.randint(1, 3)
    curves = [tuple(rng.randint(-3, 3) for _ in range(2 * g)) for _ in range(n)]
    curves = [v for v in curves if any(v)]
    m = LinkingMatrix(curves)
    inv = form_invariants(m)
    assert (inv.rank, inv.signature) == _reference_invariants(m.entries)
    assert inv.parity == ("Even" if all(m.entries[i][i] % 2 == 0 for i in range(len(curves)))
                          else "Odd")


def _sweep_and_bareiss(curves):
    """(rank, signature) of the sweep, its entries and its far pivots,
    once the sweep agrees with form_invariants and the Bareiss oracle."""
    lm = linking_matrix(Circuit(tuple(curves), False))
    rank, sig, far = _sweep_invariants(lm.curves)
    inv = form_invariants(lm)
    assert (inv.rank, inv.signature) == (rank, sig) == symmetric_invariants(lm.entries)
    return (rank, sig), lm.entries, far


@st.composite
def sparse_curves(draw):
    g = draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 2, -2))
    curve = st.tuples(*[entry] * (2 * g)).filter(any)
    return draw(st.lists(curve, min_size=1, max_size=8))


@settings(max_examples=400, deadline=None)
@given(sparse_curves())
def test_sweep_matches_bareiss_and_rational_reference(curves):
    inv, entries, _ = _sweep_and_bareiss(curves)
    assert inv == _reference_invariants(entries)


# an adjacent-slide chain gets (6, 0) here: a slide leaves a diagonal
# correction that the next slide moves off the diagonal
SLIDE_COUNTER_EXAMPLE = ((0, 0, 0, 2), (-1, 2, 0, 0), (0, 0, 0, 2), (0, -1, 0, 1),
                         (-1, 0, 2, 0), (0, 0, 1, 0))

# (name, curves, rank, signature, number of far pivots); the first row
# of each of the first five examples takes the named path, the last
# three read a correction c_i that a far pivot left
SWEEP_PATHS = [
    ("1x1 pivot", [(1, 1), (1, 0), (2, 1)], 3, 1, 0),
    ("2x2 pivot", [(0, 1), (1, 0)], 2, 0, 0),
    ("zero row", [(1, 0), (1, 1)], 1, 1, 0),
    ("far pivot", [(0, 1), (0, 1), (1, 0)], 2, 0, 1),
    ("far pivot after pivots", [(1, 1), (0, 1), (0, 1), (1, 0)], 3, 1, 1),
    ("slide counter-example", SLIDE_COUNTER_EXAMPLE, 5, -1, 2),
    ("2x2 pivot on a corrected row", [(0, 0, 0, -1), (0, 1, 0, 1), (1, -1, 0, 0), (1, 0, -1, 0)],
     4, 0, 1),
    ("far pivot over a corrected row", [(0, 1, 0, 0), (0, 1, 0, 1), (0, 0, 0, 1), (1, 1, 0, -1),
                                        (0, 1, 0, 0), (-1, 0, -1, -1)], 4, 0, 2),
]


@pytest.mark.parametrize("name,curves,rank,sig,far", SWEEP_PATHS, ids=[p[0] for p in SWEEP_PATHS])
def test_sweep_paths(name, curves, rank, sig, far):
    inv, entries, taken = _sweep_and_bareiss(curves)
    assert inv == (rank, sig) == _reference_invariants(entries)
    assert taken == far


@st.composite
def circuits(draw):
    """The curves of a random closed or open circuit at genus 1, 2, 3 or 5."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    genus = draw(st.sampled_from((1, 2, 3, 5)))
    length = draw(st.integers(2, 12))
    make = rand_closed if draw(st.booleans()) else rand_chain
    return make(rng, genus, length).curves


@settings(max_examples=300, deadline=None)
@given(circuits())
@example(SLIDE_COUNTER_EXAMPLE)
@example(far_pivot_family(54).curves)
def test_sweep_matches_bareiss_on_random_circuits(curves):
    _sweep_and_bareiss(curves)


def test_far_pivot_family():
    for c in (5, 6, 54):
        assert _sweep_and_bareiss(far_pivot_family(c).curves)[::2] == ((c, 2 - c), 1)


def test_far_pivot_family_is_linear():
    # Bareiss on all c rows took 8 s at c = 404 and minutes at c = 2004
    lm = linking_matrix(far_pivot_family(2004))
    start = time.perf_counter()
    inv = form_invariants(lm)
    elapsed = time.perf_counter() - start
    assert (inv.rank, inv.signature) == (2004, -2002)
    assert elapsed < 2.0, elapsed


def _torus_sweep(curves):
    """_sweep_torus's (rank, signature, far pivots), once it equals _sweep_invariants'
    and the Bareiss oracle's on the entries L_ij = b_min(i,j) a_max(i,j), which a zero
    class in an unvalidated list does not stop."""
    got = _sweep_torus(curves)
    n = len(curves)
    entries = [[curves[min(i, j)][1] * curves[max(i, j)][0] for j in range(n)] for i in range(n)]
    assert got == _sweep_invariants(curves) and got[:2] == symmetric_invariants(entries), curves
    return got


def test_torus_sweep_matches_the_generic_sweep_on_generator_circuits():
    long_g1 = [generate(s, 40 + s % 61) for s in range(72)]  # c about 60 to 150
    for circ, form in long_g1 + [generate(100 + steps, steps) for steps in range(61)]:
        rank, sig, _ = _torus_sweep(circ.curves)
        assert rank == circ.length - 2  # each generator move adds its curves to the rank
        assert sig == form.m - form.n  # and its summand's signature
    for seed in range(3):  # c about 4500: the c x c Bareiss oracle is too slow here
        circ, form = generate(seed, 3000)
        got = _sweep_torus(circ.curves)
        assert got == _sweep_invariants(circ.curves) and got[:2] == (circ.length - 2, form.m - form.n)


TORUS_PATHS = [p for p in SWEEP_PATHS if len(p[1][0]) == 2]


@pytest.mark.parametrize("name,curves,rank,sig,far", TORUS_PATHS, ids=[p[0] for p in TORUS_PATHS])
def test_torus_sweep_paths(name, curves, rank, sig, far):
    assert _torus_sweep(curves) == (rank, sig, far)


@st.composite
def torus_lists(draw):
    """Genus-1 curve lists, zero classes included, whose a-entries are often 0: far pivots."""
    curve = st.tuples(st.sampled_from((0, 0, 1, -1, 2)), st.integers(-3, 3))
    return draw(st.lists(curve, min_size=1, max_size=12))


def test_torus_sweep_matches_the_generic_sweep_on_sparse_lists():
    far = []

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(torus_lists())
    def check(curves):
        far.append(_torus_sweep(curves)[2])

    check()
    assert any(far)  # some example took a far pivot


def test_genus_1_framings_are_fiber_framings():
    rng = random.Random(12)
    lists = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 9))]
             for _ in range(300)]
    lists += [[list(v) for v in vs] for vs in lists[:50]] + [[(0, 0), (1, 0)], [(1, 0), (0, 0)]]
    zero = 0
    for curves in lists:
        want = result_or_error(lambda: tuple(map(fiber_framing, curves)))
        assert result_or_error(lambda: LinkingMatrix(curves).framings) == want, curves
        zero += want == (ValueError, "zero class has no framing", None)
    assert 2 < zero < len(lists) - 100
    with pytest.raises(ValueError, match="^zero class has no framing$"):
        linking_matrix(Circuit(((0, 0), (1, 0)), False))


def test_genus_1_form_invariants_skip_the_generic_kernels(monkeypatch):
    """At genus 1 form_invariants(linking_matrix(.)) calls neither the generic sweep,
    nor suffix_spanners, nor fiber_framing; at genus 2 it calls all three."""
    calls = dict.fromkeys(("_sweep_invariants", "suffix_spanners", "fiber_framing"), 0)
    for name in calls:
        def counted(*args, name=name, real=getattr(sdcalc.handles, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(sdcalc.handles, name, counted)
    circ = generate(3, 80)[0]
    assert circ.length >= 100
    assert form_invariants(linking_matrix(circ)).rank == circ.length - 2
    assert calls == dict.fromkeys(calls, 0)
    inv = form_invariants(linking_matrix(far_pivot_family(20)))
    assert (inv.rank, inv.signature) == (20, -18) and all(calls.values()), calls


def test_suffix_spanners_span_every_suffix():
    def rank(vs):
        return symmetric_invariants([[sum(map(mul, x, y)) for y in vs] for x in vs])[0]

    rng = random.Random(6)
    for _ in range(300):
        g = rng.randint(1, 4)
        vs = [tuple(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(g))
              for _ in range(rng.randint(1, 8))]
        idx = suffix_spanners(vs)
        assert len(idx) <= g and idx == sorted(idx, reverse=True)
        for m in range(len(vs)):
            assert rank([vs[j] for j in idx if j >= m]) == rank(vs[m:])


def test_sweep_matches_bareiss_on_generated_histories():
    for seed in range(8):
        for state in generate_by_moves(seed, 30)[3]:
            _sweep_and_bareiss(state.curves)


def test_interior_blowup_adds_rank_one_block():
    rng = random.Random(31)
    for _ in range(60):
        c = rand_closed(rng, rng.randint(1, 2), rng.randint(2, 6))
        before = form_invariants(linking_matrix(c))
        pos = rng.randint(1, c.length - 1)
        e = rng.choice((1, -1))
        after = form_invariants(linking_matrix(apply_blowup(c, pos, e)))
        assert after.rank == before.rank + 1
        assert after.signature == before.signature - e


def test_interior_stabilization_adds_hyperbolic_block():
    rng = random.Random(32)
    for _ in range(60):
        c = rand_closed(rng, rng.randint(1, 2), rng.randint(2, 6))
        before = form_invariants(linking_matrix(c))
        pos = rng.randint(1, c.length - 1)
        k = rng.randint(-3, 3)
        after = form_invariants(linking_matrix(apply_stabilization(c, pos, k)))
        assert after.rank == before.rank + 2
        assert after.signature == before.signature


def test_parity_is_switch_invariant():
    rng = random.Random(33)
    for _ in range(60):
        c = rand_closed(rng, rng.randint(1, 2), rng.randint(2, 6))
        p0 = form_invariants(linking_matrix(c)).parity
        assert form_invariants(linking_matrix(switch(c))).parity == p0


def test_signature_is_not_switch_invariant():
    # the signature genuinely depends on the reference point: switching
    # this circuit moves it from 0 to -2, so no test here may assume
    # switch-invariance of anything but the parity
    c = normalize([(-1, 1), (-2, 1)], True)
    assert form_invariants(linking_matrix(c)).signature == 0
    assert form_invariants(linking_matrix(switch(c))).signature == -2


def test_euler_characteristics():
    assert euler_characteristics(TRI) == (3, 5)
    assert euler_characteristics(AB) == (2, 4)
    open_chain = normalize([(1, 0), (0, 1)], False)
    assert euler_characteristics(open_chain) == (2, None)
    g2 = rand_closed(random.Random(1), 2, 2)
    assert euler_characteristics(g2) == (0, 0)


def test_emit_kirby_triangle():
    kd = emit_kirby(TRI)
    assert isinstance(kd, KirbyData)
    assert kd.genus == 1
    assert kd.one_handles == ("a1", "b1")
    assert kd.fiber_framing == 0
    assert [f for _, f, _ in kd.fold_handles] == [0, -1, 0]
    assert [p for _, _, p in kd.fold_handles] == [1, 2, 3]
    assert kd.last_handle is None
    assert kd.linking.entries == linking_matrix(TRI).entries


def test_emit_kirby_genus_two_labels():
    c = rand_closed(random.Random(4), 2, 3)
    kd = emit_kirby(c)
    assert kd.one_handles == ("a1", "b1", "a2", "b2")


def test_emit_kirby_section():
    kd = emit_kirby(TRI, section_k=-2)
    assert kd.last_handle == -2
    with pytest.raises(ValueError):
        emit_kirby(normalize([(1, 0), (0, 1)], False), section_k=-2)


def test_to_blf_two_curves():
    data = to_blf(AB)
    assert data.round_cycle == ((1, 0), 0)
    assert data.lefschetz_cycles[0] == ((1, 1), -1)
    assert all(f == -1 for _, f in data.lefschetz_cycles)
    # the first vanishing cycle and the round cycle differ by gamma_2
    lam, rho = data.lefschetz_cycles[0][0], data.round_cycle[0]
    assert add(lam, scale(-1, rho)) == AB[1]


def test_to_blf_cycle_count_and_closing():
    data = to_blf(TRI)
    assert len(data.lefschetz_cycles) == 3
    # closing cycle twists the eps-signed first curve about the last
    e = TRI.eps
    expect = add(scale(e, TRI[0]), scale(pairing(TRI[-1], scale(e, TRI[0])), TRI[-1]))
    assert data.lefschetz_cycles[-1][0] == expect


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_to_blf_matches_the_generic_twist(genus):
    # genus 1 computes tau_x(y) on two ints; every genus must agree with twist_apply
    rng = random.Random(60 + genus)
    circs = [rand_closed(rng, genus, rng.randint(2, 12), lim=5) for _ in range(60)]
    if genus == 1:
        circs += [generate(seed, steps)[0] for seed, steps in [(1, 0), (2, 40), (3, 300)]]
    for c in circs:
        ext = c.extended(1)
        want = tuple((twist_apply(x, 1, y), -1) for x, y in zip(ext, ext[1:]))
        assert to_blf(c) == BlfData(lefschetz_cycles=want, round_cycle=(ext[0], 0))


def test_to_blf_requires_closed():
    with pytest.raises(ValueError):
        to_blf(normalize([(1, 0), (0, 1)], False))


def test_to_blf_refuses_a_switch_matrix():
    # the seam would be signed by the untwisted eps = <g_3, g_1> = -2
    mu = ((1, 0), (1, 1))
    d = Diagram(normalize([(1, 0), (0, 1), (-1, 2)], True, mu), mu)
    with pytest.raises(ValueError, match="^broken-fibration data needs an untwisted diagram$"):
        to_blf(d)
