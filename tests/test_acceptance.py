"""Acceptance gate: one test per release criterion, tolerances pinned.

Run with -v to get a single pass/fail line per criterion.  The shared
corpus (1000 seeded histories, up to 30 steps each) is built once per
module.
"""

import random
import time

import pytest

from sdcalc.circuit import double, generate, normalize
from sdcalc.genus1 import classify, normalize_sum, sigma_sequence
from sdcalc.handles import emit_kirby, euler_characteristics, form_invariants, linking_matrix
from sdcalc.homology import (
    add,
    delta_twist,
    ident,
    is_symplectic,
    matvec,
    pairing,
    pairing_functional,
    scale,
    twist_apply,
    twist_matrix,
)
from sdcalc.monodromy import mu_tilde_matrix, surgered_action, verdict
from sdcalc.subst import apply_blowup, apply_stabilization, detect, hayano_surgery

from support import (generate_by_moves, induced_action, rand_chain, rand_closed, rand_next,
                     rand_primitive, solve_int, word_matrix)

CORPUS_SIZE = 1000
MAX_STEPS = 30


@pytest.fixture(scope="module")
def corpus():
    out = []
    for seed in range(CORPUS_SIZE):
        steps = seed % (MAX_STEPS + 1)
        out.append((seed,) + generate_by_moves(seed, steps))
    return out


def expected_forms(form):
    return frozenset({normalize_sum(form.with_closure("Spin0")),
                      normalize_sum(form.with_closure("NonSpin1"))})


def test_criterion_01_reference_example_and_speed():
    # (a, tau_b(a), b) classifies as CP2 # 2*CP2bar with a -1-framed
    # middle fold handle and chi(X) = 5, in under a millisecond
    a, b = (1, 0), (0, 1)
    best = float("inf")
    for _ in range(50):
        t0 = time.perf_counter()
        circ = normalize([a, twist_apply(b, 1, a), b], True)
        cl = classify(circ)
        kd = emit_kirby(circ)
        _, chi_x = euler_characteristics(circ)
        best = min(best, time.perf_counter() - t0)
    assert {f.pretty() for f in cl.canonical_forms} == {"1*CP2 # 2*CP2bar"}
    assert [f for _, f, _ in kd.fold_handles] == [0, -1, 0]
    assert kd.fold_handles[1][1] == -1
    assert chi_x == 5
    assert best < 1e-3, "reference pipeline took %.2fms" % (best * 1e3)


def test_criterion_02_generator_classifier_agreement():
    # 1000 seeded histories of up to 30 steps classify back to exactly
    # the sum forms the generator accounted for, in under 10 seconds
    t0 = time.perf_counter()
    for seed in range(CORPUS_SIZE):
        circ, form = generate(seed, seed % (MAX_STEPS + 1))
        cl = classify(circ)
        assert cl.canonical_forms == expected_forms(form), "seed %d" % seed
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, "corpus run took %.2fs" % elapsed


def test_criterion_03_sigma_recursion_tracks_closure():
    # 10^4 recursion-built genus-1 circuits, length <= 12, coefficients
    # bounded by 50: sigma_i = <g_1, g_i> at every index, so the closure
    # test |sigma_c| = 1 agrees with the pairing test; under 5 seconds
    rng = random.Random(303)
    t0 = time.perf_counter()
    built = 0
    while built < 10_000:
        g1 = rand_primitive(rng, 1, lim=3)
        g2 = rand_next(rng, g1, lim=2)
        curves = [g1, g2]
        ks = []
        for _ in range(rng.randint(1, 10)):
            k = rng.randint(-3, 3)
            nxt = add(scale(k, curves[-1]), scale(-1, curves[-2]))
            if any(abs(t) > 50 for t in nxt):
                break
            curves.append(nxt)
            ks.append(k)
        if len(curves) < 3:
            continue
        sig = sigma_sequence(ks)
        for i, v in enumerate(curves):
            assert sig[i] == pairing(curves[0], v)
        closes = abs(pairing(curves[-1], curves[0])) == 1
        assert (abs(sig[-1]) == 1) == closes
        built += 1
    elapsed = time.perf_counter() - t0
    assert built == 10_000
    assert elapsed < 5.0, "recursion sweep took %.2fs" % elapsed


def test_criterion_04_detection_coverage_and_classifier_totality(corpus):
    # every generated circuit of length >= 3 carries a detectable
    # pattern, and the classifier finishes without internal failure
    for seed, circ, _form, _moves, _states in corpus:
        if len(circ) >= 3:
            assert detect(circ), "no detection on seed %d" % seed
        try:
            classify(circ)
        except RuntimeError as exc:  # pragma: no cover - must not happen
            pytest.fail("internal classifier failure on seed %d: %s" % (seed, exc))


def test_criterion_05_eigenvector_law():
    # mu-tilde(g1) = (-1)^c eps g1 on 1000 closed circuits of genus <= 3
    rng = random.Random(305)
    for _ in range(1000):
        c = rand_closed(rng, rng.randint(1, 3), rng.randint(2, 7))
        m = mu_tilde_matrix(c)
        assert matvec(m, c[0]) == scale((-1) ** c.length * c.eps, c[0])


def test_criterion_06_kernel_laws():
    # twists about the base and full twists on dual pairs containing it
    # act as the identity on the surgered quotient; 1000 pairs, genus <= 4
    rng = random.Random(306)
    for _ in range(1000):
        g = rng.randint(2, 4)
        a = rand_primitive(rng, g)
        x = rand_next(rng, a)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        eye = ident(2 * g - 2)
        assert induced_action(a, twist_matrix(a, k)).matrix == eye
        assert induced_action(a, delta_twist(a, x)).matrix == eye


def test_criterion_07_doubles_are_homologically_trivial():
    # verdict(double(chain)) is HomologicallyTrivial on 500 random
    # chains of genus <= 3 and length <= 8
    rng = random.Random(307)
    for _ in range(500):
        ch = rand_chain(rng, rng.randint(1, 3), rng.randint(2, 8))
        v = verdict(double(ch))
        assert v.kind == "HomologicallyTrivial", ch.curves


def test_criterion_08_linking_form_bookkeeping(corpus):
    # along every generated history: a blow-up adds one to the rank and
    # moves the signature by the standard framing -e of the inserted
    # handle; a stabilization adds a hyperbolic block (rank +2, signature
    # unchanged); chi(X) = 2 + c at every state; and the final signature
    # equals m - n (zero for all-spin histories)
    for seed, _circ, form, moves, states in corpus:
        invs = [form_invariants(linking_matrix(s)) for s in states]
        for (kind, _pos, param), before, after in zip(moves, invs, invs[1:]):
            if kind == "blowup":
                assert after.rank == before.rank + 1, "seed %d" % seed
                assert after.signature == before.signature - param, "seed %d" % seed
            else:
                assert after.rank == before.rank + 2, "seed %d" % seed
                assert after.signature == before.signature, "seed %d" % seed
        for s in states:
            assert euler_characteristics(s)[1] == 2 + len(s), "seed %d" % seed
        assert invs[-1].signature == form.m - form.n, "seed %d" % seed
        if form.m == form.n == 0:
            assert invs[-1].signature == 0


def test_criterion_09_symplectic_identities():
    # 1000 samples each: words preserve the pairing matrix, the braid
    # relation holds on dual pairs, (tau_a tau_b)^6 = 1 in genus 1, and
    # the full twist acts as -1 on the pair and +1 on its complement
    rng = random.Random(309)
    for _ in range(1000):
        g = rng.randint(1, 3)
        word = []
        for _ in range(rng.randint(1, 5)):
            v = rand_primitive(rng, g, lim=2)
            word.append((v, rng.choice((-2, -1, 1, 2))))
        assert is_symplectic(word_matrix(word, g))

    for _ in range(1000):
        g = rng.randint(1, 2)
        a = rand_primitive(rng, g, lim=3)
        b = rand_next(rng, a)
        lhs = word_matrix([(a, 1), (b, 1), (a, 1)], g)
        rhs = word_matrix([(b, 1), (a, 1), (b, 1)], g)
        assert lhs == rhs

    for _ in range(1000):
        a = rand_primitive(rng, 1, lim=4)
        b = rand_next(rng, a)
        m = word_matrix([(a, 1), (b, 1)] * 6, 1)
        assert m == ident(2)

    for _ in range(1000):
        g = rng.randint(2, 3)
        a = rand_primitive(rng, g, lim=2)
        x = rand_next(rng, a)
        dm = delta_twist(a, x)
        assert matvec(dm, a) == scale(-1, a)
        assert matvec(dm, x) == scale(-1, x)
        _sol, kernel = solve_int([pairing_functional(a), pairing_functional(x)],
                                 [0, 0])
        assert kernel, "complement of a dual pair is nontrivial in genus >= 2"
        for y in kernel:
            assert matvec(dm, y) == y


def test_criterion_10_surgered_action_is_substitution_invariant():
    # 500 cases of genus <= 3: substitutions at positions away from the
    # closing pair do not change the surgered action
    rng = random.Random(310)
    for _ in range(500):
        g = rng.randint(1, 3)
        c = rand_closed(rng, g, rng.randint(4, 7))
        base = surgered_action(c).matrix
        n = c.length
        p = rng.randint(2, n - 1)
        e = rng.choice((1, -1))
        assert surgered_action(apply_blowup(c, p, e)).matrix == base
        p = rng.randint(2, n - 1)
        assert surgered_action(apply_stabilization(c, p, rng.randint(-2, 2))).matrix == base
        p = rng.randint(2, n - 1)
        dual = rand_next(rng, c[p - 1])
        assert surgered_action(hayano_surgery(c, p, dual, rng.randint(-1, 1))).matrix == base
