import random
from itertools import chain
from pathlib import Path

import pytest

import sdcalc._power
from sdcalc._power import MAX_POWER_BITS, _period, _turns, mat_pow, matmul
from sdcalc.circuit import (
    Circuit,
    CurveError,
    Diagram,
    _clip,
    _clip_int,
    double,
    generate,
    normalize,
    switch,
    validate,
)
from sdcalc.cli import parse
from sdcalc.homology import (add, canon_sign, ident, is_symplectic, matvec, pairing, scale,
                             sp_inv, twist_matrix)

from support import (curve_fault_cases, generate_by_moves, orient_by_pairing, rand_closed, rand_primitive,
                     result_or_error, rotate_to_front, sign_pass_cases, word_matrix)

DATA = Path(__file__).parent / "data"
TRI = normalize([(1, 0), (1, -1), (0, 1)], True)
AB = normalize([(1, 0), (0, 1)], True)


def test_normalize_fixes_signs():
    assert TRI.curves == ((1, 0), (-1, 1), (0, -1))
    assert all(pairing(TRI[i], TRI[i + 1]) == 1 for i in range(2))


def test_normalize_keeps_first_curve():
    raw = [(-1, 2), (1, -1), (0, 1)]
    c = normalize(raw, False)
    assert c[0] == (-1, 2)


def test_normalize_errors():
    with pytest.raises(ValueError, match="curve 1: not primitive"):
        normalize([(2, 0), (0, 1)], True)
    with pytest.raises(ValueError, match="curves 1,2"):
        normalize([(1, 0), (1, 0)], True)
    with pytest.raises(ValueError, match="curves 1,2"):
        normalize([(1, 0), (1, 2)], False)
    # closing pairing must be a unit for closed circuits
    with pytest.raises(ValueError, match="closing"):
        normalize([(1, 0), (1, 1), (1, 2)], True)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_sign_pass_matches_the_pairing_oracle(genus):
    """normalize against the generic sign loop: the re-signed curves, or the
    error's type, message and curve."""
    kinds, faults = set(), set()
    for raw, closed, mu in (sign_pass_cases(random.Random(70 + genus), genus)
                            + curve_fault_cases(random.Random(80 + genus), genus)):
        got = result_or_error(lambda: normalize(raw, closed, mu).curves)
        want = result_or_error(orient_by_pairing, raw, closed, mu)
        assert got == want, (raw, closed, mu)
        if isinstance(want, tuple) and want[0] is CurveError:
            at = {1: "first", len(raw) - 1: "last"}.get(want[2], "middle")
            kinds.add((want[1].split()[0], at if want[2] else None, mu is not None))
            # a per-curve fault at the first pair that is not +-1, past it, or on a lone curve
            bad = [i for i in range(1, len(raw))
                   if len(raw[i - 1]) != len(raw[i]) or abs(pairing(raw[i - 1], raw[i])) != 1]
            where = "past" if bad and want[2] > bad[0] + 1 else "at" if bad else "lone"
            faults.add((want[1].partition(": ")[2], where))
    assert {("curves", "first", False), ("curves", "middle", False), ("curves", "last", False),
            ("closing", None, False), ("closing", None, True)} <= kinds
    assert {("not primitive", "at"), ("not primitive", "past"), ("not primitive", "lone"),
            ("genus mismatch", "past")} <= faults


@pytest.mark.parametrize("raw,closed,curve", [
    ([(1, 0), (0, 1), (2, 2)], False, 3),
    ([(1, 0), (0, 1), (0, 1)], False, 2),
    ([(1, 0), (0, 1, 0, 0)], False, 2),
    ([(1, 0), (1, 1), (1, 2)], True, 0),
    ([(1, 0)], True, 0),
    ([(1, 0), (0, 1, 0)], False, 2),
])
def test_normalize_errors_carry_the_curve(raw, closed, curve):
    with pytest.raises(CurveError) as ei:
        normalize(raw, closed)
    assert ei.value.curve == curve


def test_clip_int_is_clip_of_str():
    rng = random.Random(17)
    for digits in list(range(1, 50)) + [rng.randint(50, 4300) for _ in range(200)]:
        n = rng.randint(10 ** (digits - 1), 10 ** digits - 1) * rng.choice((1, -1))
        assert _clip_int(n) == _clip(str(n))
    # past the digits str() converts
    assert _clip_int(-(10 ** 9000)) == "-" + "1" + "0" * 38 + "..."


def test_extended_continues_past_the_seam():
    assert TRI.extended(0) == TRI.curves
    assert TRI.extended(2) == TRI.curves + TRI.curves[:2]  # eps = +1
    assert AB.extended(2) == ((1, 0), (0, 1), (-1, 0), (0, -1))  # eps = -1
    rng = random.Random(4)
    for g in (1, 2, 3):
        c = rand_closed(rng, g, 5)
        ext = c.extended(3)
        assert all(pairing(ext[j], ext[j + 1]) == 1 for j in range(len(ext) - 1))
    with pytest.raises(ValueError):
        normalize([(1, 0), (0, 1)], False).extended(1)


def test_extended_reuses_or_scales_the_first_curves_by_any_eps():
    # eps = 1 reuses curves[:k]; any other closing pairing, as a hand-built circuit may
    # have, scales them: both against the rule for every k from 0 to c
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        g, c = rng.randint(1, 3), rng.randint(1, 6)
        circ = Circuit(tuple(tuple(rng.randint(-2, 2) for _ in range(2 * g)) for _ in range(c)), True)
        e = circ.eps
        seen.add(e)
        for k in range(c + 1):
            assert circ.extended(k) == circ.curves + tuple(scale(e, v) for v in circ.curves[:k]), (circ, k)
    assert seen >= {1, -1, 0, 2}


def test_eps_exposed():
    assert TRI.eps == 1
    assert AB.eps == -1
    with pytest.raises(ValueError):
        _ = normalize([(1, 0), (0, 1)], False).eps
    with pytest.raises(ValueError):
        normalize([(1, 0)], True)  # a closed circuit needs two curves


def test_circuit_is_sequence_like():
    assert len(TRI) == 3
    assert TRI[1] == (-1, 1)
    assert list(TRI) == [(1, 0), (-1, 1), (0, -1)]
    assert TRI.genus == 1 and TRI.length == 3 and TRI.closed


def test_validate_good_diagram():
    rep = validate(Diagram(TRI, None))
    assert rep.ok and rep.exactness == "Exact" and rep.failures == ()


def test_validate_reports_genus_two_as_homological():
    c = rand_closed(random.Random(3), 2, 4)
    rep = validate(Diagram(c, None))
    assert rep.ok and rep.exactness == "HomologicalOnly"


def test_validate_collects_failures_without_raising():
    bad = Circuit(curves=((1, 0), (1, 0)), closed=True)
    rep = validate(Diagram(bad, None))
    assert not rep.ok
    assert rep.failures[0][0] == 1
    assert "pairing" in rep.failures[0][1]


def test_switch_matrix_of_the_wrong_size_is_one_error():
    two = Circuit(((1, 0, 0, 0), (0, 1, 0, 0)), True)
    rep = validate(Diagram(two, ((1, 1), (0, 1))))  # the closing pairing is skipped
    assert not rep.ok and rep.failures == ((0, "switch matrix must be 4x4"),)
    for d, k, size in ((Diagram(two, ((1, 1), (0, 1))), 1, 4), (Diagram(AB, ident(4)), 5, 2),
                       (Diagram(AB, ((1, 0), (0, 1, 0))), -3, 2)):
        with pytest.raises(ValueError, match="^switch matrix must be %dx%d$" % (size, size)):
            switch(d, k)


def test_validate_twisted_closure():
    # closure of a twisted diagram goes through mu, not the raw pairing
    mu = twist_matrix((1, 0), 1)
    assert validate(Diagram(TRI, mu)).ok
    bad = twist_matrix((1, 1), 3)
    assert abs(pairing(matvec(bad, TRI[-1]), TRI[0])) != 1
    rep = validate(Diagram(TRI, bad))
    assert not rep.ok
    assert any("closing" in reason for _, reason in rep.failures)


def test_switch_rotates_and_renormalizes():
    out = switch(TRI)
    assert out.curves == ((0, -1), (1, 0), (-1, 1))


def test_switch_inverse_roundtrip():
    # roundtrip recovers the circuit up to a global sign (curves are
    # unoriented; the representative's sign depends on eps)
    rng = random.Random(7)
    for g in (1, 2):
        c = rand_closed(rng, g, 5)
        back = switch(switch(c, 1), -1)
        for u, v in zip(back.curves, c.curves):
            assert canon_sign(u) == canon_sign(v)
        assert switch(c, 0).curves == c.curves


def test_full_switch_cycle_is_identity_up_to_sign():
    rng = random.Random(9)
    for _ in range(20):
        c = rand_closed(rng, rng.randint(1, 2), rng.randint(2, 6))
        back = switch(c, c.length)
        assert len(back) == len(c)
        for u, v in zip(back.curves, c.curves):
            assert canon_sign(u) == canon_sign(v)


def test_switch_twisted_diagram():
    mu = twist_matrix((1, 0), 1)
    d = Diagram(TRI, mu)
    out = switch(d)
    assert isinstance(out, Diagram)
    assert out.switch_matrix == mu
    assert out.circuit.curves == ((-1, -1), (1, 0), (-1, 1))
    # the rotated circuit closes through mu even though its raw closing
    # pairing is not a unit
    assert pairing(out.circuit.curves[-1], out.circuit.curves[0]) == 2
    assert validate(out).ok


def test_switch_twisted_backward_uses_inverse():
    mu = twist_matrix((1, 0), 1)
    d = Diagram(TRI, mu)
    back = switch(switch(d, 1), -1)
    assert back.circuit.curves == TRI.curves


def test_switch_twisted_full_cycle_applies_mu_once():
    mu = twist_matrix((1, 0), 1)
    d = Diagram(TRI, mu)
    out = switch(d, len(TRI))
    expect = normalize([matvec(mu, v) for v in TRI], True, mu)
    for u, v in zip(out.circuit.curves, expect.curves):
        assert canon_sign(u) == canon_sign(v)


def _switch_by_steps(d, k):
    # reference: one switch at a time, O(|k| c)
    mu = d.switch_matrix
    cur = list(d.circuit.curves)
    for _ in range(abs(k)):
        if k > 0:
            cur = [cur[-1] if mu is None else matvec(mu, cur[-1])] + cur[:-1]
        else:
            cur = cur[1:] + [cur[0] if mu is None else matvec(sp_inv(mu), cur[0])]
        cur = list(normalize(cur, True, mu).curves)
    return Diagram(normalize(cur, True, mu), mu)


def test_switch_matches_step_loop():
    rng = random.Random(11)
    diagrams = [parse((DATA / name).read_bytes())
                for name in ("two.sd", "blowup3.sd", "twisted.sd", "genus2.sd")]
    diagrams += [Diagram(TRI, twist_matrix((0, 1), -2)),
                 # not normalized: the first single switch normalizes it
                 Diagram(Circuit(((1, 0), (-1, 1), (0, 1)), True))]
    for _ in range(12):
        diagrams.append(Diagram(rand_closed(rng, rng.randint(1, 3), rng.randint(2, 6))))
    for d in diagrams:
        c = d.circuit.length
        for k in range(-3 * c, 3 * c + 1):
            assert switch(d, k) == _switch_by_steps(d, k), (d, k)
    # untwisted, sign-scrambled: the rotation is signed without a second normalize.
    # 2c single switches are the identity on a normalized circuit, so a long k
    # steps by the k' = +-(1 + (|k| - 1) mod 2c) of its direction
    for genus in (1, 2):
        for _ in range(10):
            circ = rand_closed(rng, genus, rng.randint(2, 7))
            d = Diagram(Circuit(tuple(scale(rng.choice((1, -1)), v) for v in circ), True))
            c = circ.length
            for k in [*range(1, c + 2), 3 * c + 2, 10 ** 30]:
                for s in (1, -1):
                    want = _switch_by_steps(d, s * (1 + (k - 1) % (2 * c)))
                    assert switch(d, s * k) == want, (d, s * k)
                    assert switch(d.circuit, s * k) == want.circuit, (d, s * k)


def test_untwisted_switch_raises_the_first_single_switchs_error():
    # the single switch that checks the input is the only check: for every k != 0
    # an invalid circuit raises what the step loop's first switch raises
    rng = random.Random(12)
    bad = [Circuit(((1, 0), (2, 1), (0, 1)), True), Circuit(((1, 0), (0, 1), (1, 1), (2, 0)), True),
           Circuit(((1, 0), (1, 1), (0, 1), (-1, 1), (1, 0)), True)]
    for genus in (1, 2):
        for raw, closed, mu in sign_pass_cases(rng, genus):
            if closed and mu is None and not isinstance(result_or_error(normalize, raw, True), Circuit):
                bad.append(Circuit(tuple(raw), True))
    assert len(bad) > 20
    for d in bad:
        c = d.length
        for k in [*range(1, c + 2), 3 * c + 2, 10 ** 30]:
            for s in (1, -1):
                got = result_or_error(switch, d, s * k)
                assert got == result_or_error(_switch_by_steps, Diagram(d), s), (d, s * k)
                assert got[0] is CurveError, got


def test_switch_closed_form_matches_step_loop_on_random_twisted_diagrams():
    rng = random.Random(23)
    for _ in range(30):
        circ = rand_closed(rng, rng.choice((1, 2, 3)), rng.randint(2, 7))
        # a twist about g_1 keeps <mu g_c, g_1> = <g_c, g_1>; the sign flips
        # leave the first single switch to normalize
        mu = twist_matrix(circ.curves[0], rng.choice((-2, -1, 1, 3)))
        raw = Circuit(tuple(scale(rng.choice((1, -1)), v) for v in circ), True)
        for d in (Diagram(circ, mu), Diagram(raw, mu), Diagram(raw)):
            c = circ.length
            for k in range(-2 * c - 1, 2 * c + 2):
                assert switch(d, k) == _switch_by_steps(d, k), (d, k)


SL2 = [((a, b), (c, (1 + b * c) // a)) for a in range(-3, 4) for b in range(-3, 4)
       for c in range(-3, 4) if a and (1 + b * c) % a == 0]


def test_turns_at_genus_1_equal_the_power():
    # q = 12 d + r: the binomial sum for |tr| <= 2, squaring m^12 above
    assert {abs(m[0][0] + m[1][1]) for m in SL2} >= {0, 1, 2, 3}
    for m in SL2:
        for q in range(44):  # past 3 L + 7 = 43
            assert _turns(m, q, [(1, 0), (0, 1)]) == mat_pow(m, q), (m, q)


def test_turns_at_genus_1_never_reach_the_cap():
    # the printability bound decides, as it did before any power was capped
    b = 10**1500
    with pytest.raises(ValueError, match=r"^Exceeds the limit \(4300 digits\) for integer string conversion$"):
        _turns(((1, b), (1, b + 1)), 13, [(1, 0), (0, 1)])


def test_turns_reject_only_results_that_cannot_print(monkeypatch):
    limit = 640  # the smallest digit limit str() accepts
    monkeypatch.setattr(sdcalc._power.sys, "get_int_max_str_digits", lambda: limit)
    rng = random.Random(29)
    hyperbolic = [m for m in SL2 if abs(m[0][0] + m[1][1]) > 2]
    rejected = 0
    for _ in range(300):
        m = rng.choice(hyperbolic)
        cur = rand_closed(rng, 1, rng.randint(2, 5)).curves
        q = rng.randint(1, 2500)
        try:
            _turns(m, q, cur)
        except ValueError as exc:
            assert "integer string conversion" in str(exc)
            rejected += 1
            p = mat_pow(m, q)
            assert max(abs(x) for v in cur for x in matvec(p, v)) >= 10 ** limit, (m, q, cur)
    assert 0 < rejected < 300


def test_turns_cap_genus_1_when_the_digit_limit_is_off(monkeypatch):
    # with no limit there is no printability bound, and squaring had no end
    monkeypatch.setattr(sdcalc._power.sys, "get_int_max_str_digits", lambda: 0)
    cat, cur = ((2, 1), (1, 1)), [(1, 0), (0, 1)]  # cat^q has 1.39 q bits
    with pytest.raises(ValueError, match=r"^switch matrix power past %d bits$" % MAX_POWER_BITS):
        _turns(cat, 10**5, cur)
    assert _turns(cat, 11000, cur) == mat_pow(cat, 11000)  # 15 270 bits, under the cap


def _block_sum(*blocks):
    """The genus-1 blocks on (a_1, b_1), (a_2, b_2), ... in turn."""
    n = 2 * len(blocks)
    return tuple(tuple(blocks[i // 2][i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(n))
                 for i in range(n))


def _neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def _jordan_lift(g):
    """a_i -> a_i + a_{i-1}, with the inverse transpose on the b_i: unipotent,
    and (m - 1)^(g - 1) != 0."""
    m = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        m[2 * i][2 * i] = 1
        if i:
            m[2 * i - 2][2 * i] = 1
        for j in range(i + 1):
            m[2 * i + 1][2 * j + 1] = (-1) ** (i - j)
    return tuple(map(tuple, m))


def _e10(g):
    """Twists about a chain of 2g - 1 curves and one more curve meeting the
    third: the Coxeter element of A4, E6 and E8 (finite order) at g = 2, 3
    and 4, and of E10 at g = 5, whose spectral radius is Lehmer's number."""
    n = 2 * g
    e = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    curves = [e[0], e[1]] + [c for t in range(1, g) for c in (add(e[2 * t], scale(-1, e[2 * t - 2])),
                                                               e[2 * t + 1])][:2 * g - 3]
    y = tuple(0 if i < 3 or i % 2 == 0 and i < n - 2 else -1 for i in range(n))
    assert [pairing(y, c) for c in curves] == [0, 0, 1] + [0] * (2 * g - 4)
    return word_matrix([(c, 1) for c in curves + [y]], g)


def test_turns_at_genus_2_and_up_equal_the_power():
    # q = d L + r: the binomial sum when m^L is unipotent, squaring m^L otherwise
    assert [_period(g) for g in range(1, 6)] == [12, 120, 2520, 5040, 55440]
    rng = random.Random(31)
    J = ((0, 1), (-1, 0))
    for g in (2, 3, 5):
        n = 2 * g
        one = [((1, 0), (0, 1))] * (g - 2)
        a1, b1, a2, b2 = (tuple(int(i == k) for i in range(n)) for k in range(4))
        cur = [a1, b1]
        p = word_matrix([(rand_primitive(rng, g, 2), rng.choice((-1, 1))) for _ in range(3)], g)
        ms = [ident(n), twist_matrix(cur[0], 1), twist_matrix(cur[0], -3), _jordan_lift(g),
              matmul(matmul(p, _jordan_lift(g)), sp_inv(p)), p,
              _block_sum(((2, 1), (1, 1)), ((1, 1), (-1, 0)), *one)]
        period = _period(g)
        far = [period - 1, period, period + 1, 3 * period + 7]  # d = 0, 1, 1, 3
        cases = [(m, [] if m is p else far) for m in ms] + [(_neg(m), []) for m in ms] + [
            (_block_sum(J, ((1, 0), (0, 1)), *one), far),  # J + 1, of order 4
            (word_matrix([(a1, 1), (b1, 1), (add(b1, scale(-1, b2)), 1), (a2, 1)], g), far),  # of order 10
            (_block_sum(J, ((1, 2), (0, 1)), *one), far),  # J + a twist: quasi-unipotent and mixed
            (_e10(g), far)]  # of finite order at g = 2, 3; at g = 5 not quasi-unipotent
        for m, qs in cases:
            assert is_symplectic(m)
            ref = ident(n)  # m^q for q = 0..40 as a running product, all far below the cap
            for q in range(41):
                assert max(map(abs, chain(*ref))).bit_length() < MAX_POWER_BITS // 8, (m, q)
                assert _turns(m, q, cur) == ref, (m, q)
                ref = matmul(ref, m)
            for q in qs:
                ref = mat_pow(m, q, MAX_POWER_BITS)
                if ref is None or max(map(abs, chain(*ref))).bit_length() > MAX_POWER_BITS:
                    with pytest.raises(ValueError, match="power past"):
                        _turns(m, q, cur)
                else:
                    assert _turns(m, q, cur) == ref, (m, q)


def test_turns_of_a_unipotent_matrix_need_no_squaring():
    # by squaring, a genus-5 twist to a 4000-bit power took seconds
    v = rand_primitive(random.Random(32), 5)
    cur = [(1,) + (0,) * 9, (0, 1) + (0,) * 8]
    q = 2**4000 - 1
    assert _turns(twist_matrix(v, 1), q, cur) == twist_matrix(v, q)
    assert _turns(twist_matrix(v, -1), q, cur) == twist_matrix(v, -q)
    assert _turns(_neg(ident(10)), q, cur) == _neg(ident(10))
    m = _jordan_lift(5)  # m^q has entries C(q, 4) at most
    assert _turns(m, 2**3000, cur) == matmul(_turns(m, 2**3000 - 1, cur), m)
    with pytest.raises(ValueError, match="power past %d bits" % MAX_POWER_BITS):
        _turns(m, 2**4200, cur)


def test_switch_caps_the_powers_at_genus_2():
    curves = [(1, 0, 0, 0), (0, 1, 0, 0)]
    d = Diagram(normalize(curves, True), ident(4))  # finite order: the powers stay small
    assert switch(d, 10**30 + 1) == switch(d, 1)
    cat = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))  # cat^q has 1.39 q bits
    d = Diagram(normalize(curves, True, cat), cat)
    assert switch(d, 2 * 8000 + 1).circuit.curves[0][0].bit_length() > 11000
    with pytest.raises(ValueError, match="power past %d bits" % MAX_POWER_BITS):
        switch(d, 2 * 40000 + 1)


def test_switch_requires_closed():
    with pytest.raises(ValueError):
        switch(normalize([(1, 0), (0, 1)], False))


def test_rotate_to_front():
    r = rotate_to_front(TRI, 1)
    assert r.curves[0] == (-1, 1)
    assert r.closed and len(r) == 3
    assert rotate_to_front(TRI, 0).curves == TRI.curves


def test_double_of_two_curve_circuit_is_itself():
    assert double(AB).curves == AB.curves
    assert double(AB).closed


def test_double_of_triangle():
    d = double(TRI)
    assert d.curves == ((1, 0), (-1, 1), (0, -1), (1, -1))
    assert d.closed and len(d) == 2 * 3 - 2


def test_double_closes_open_chains():
    rng = random.Random(21)
    from support import rand_chain

    for g in (1, 2, 3):
        ch = rand_chain(rng, g, 5)
        d = double(ch)
        assert d.closed and len(d) == 2 * 5 - 2
        rep = validate(Diagram(d, None))
        assert rep.ok, rep.failures


def test_generate_deterministic():
    c1, f1 = generate(42, 10)
    c2, f2 = generate(42, 10)
    assert c1.curves == c2.curves
    assert f1 == f2
    c3, _ = generate(43, 10)
    assert c3.curves != c1.curves


def test_generate_zero_steps():
    c, form = generate(0, 0)
    assert c.curves == ((1, 0), (0, 1))
    assert (form.l, form.m, form.n) == (0, 0, 0)
    assert form.closure == "Unclosed"


def test_generate_matches_move_oracle():
    # one list normalized at the end against apply_blowup /
    # apply_stabilization after every move: circuit and form
    rng = random.Random(49)
    for steps in [0, 1, 2, 200] + [rng.randint(0, 60) for _ in range(28)]:
        seed = rng.randrange(2**32)
        assert generate(seed, steps) == generate_by_moves(seed, steps)[:2]
    for fn in (generate, generate_by_moves):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            fn(1, -1)


def test_generate_counts_match_moves():
    form, moves = generate(99, 20)[1], generate_by_moves(99, 20)[2]
    l = sum(1 for k, _, p in moves if k == "stab" and p % 2 == 0)
    m = sum(1 for k, _, p in moves if (k == "blowup" and p == -1) or (k == "stab" and p % 2 == 1))
    n = sum(1 for k, _, p in moves if (k == "blowup" and p == 1) or (k == "stab" and p % 2 == 1))
    assert (form.l, form.m, form.n) == (l, m, n)


def test_generate_lengths():
    circ, moves = generate(3, 8)[0], generate_by_moves(3, 8)[2]
    # each blow-up adds one curve, each stabilization two
    expect = 2 + sum(1 if k == "blowup" else 2 for k, _, _ in moves)
    assert len(circ) == expect
