import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sdcalc
import sdcalc.circuit
import sdcalc.subst
from sdcalc.circuit import Circuit, Diagram, generate, normalize, switch, validate
from sdcalc.cli import parse
from sdcalc.handles import form_invariants, linking_matrix
from sdcalc.homology import add, canon_sign, ident, pairing, scale, twist_apply, twist_matrix
from sdcalc.subst import (
    Detection,
    _norm_window,
    apply_blowup,
    apply_stabilization,
    contract,
    detect,
    hayano_surgery,
)

from support import (apply_blowup_by_extended, apply_stabilization_by_extended, contract_by_kind,
                     detect_by_windows, k2_chain, norm_window_by_pairing, rand_chain, rand_closed,
                     rand_next, rand_paired, rand_primitive, result_or_error, rotate_to_front, word_matrix)

DATA = Path(__file__).resolve().parent / "data"

TRI = normalize([(1, 0), (1, -1), (0, 1)], True)
AB = normalize([(1, 0), (0, 1)], True)
ST = apply_stabilization(AB, 1, 0)


def cyclic_eq(c1, c2):
    """Same closed circuit up to rotation and per-curve signs."""
    if len(c1) != len(c2):
        return False
    a = [canon_sign(v) for v in c1.curves]
    for r in range(len(c2)):
        b = [canon_sign(v) for v in rotate_to_front(c2, r).curves]
        if a == b:
            return True
    return False


def test_apply_blowup_between_dual_pair_gives_triangle():
    assert apply_blowup(AB, 1, 1).curves == TRI.curves


def test_apply_blowup_grows_by_one_everywhere():
    rng = random.Random(12)
    for _ in range(40):
        c = rand_closed(rng, rng.randint(1, 2), rng.randint(2, 5))
        pos = rng.randint(1, c.length)
        out = apply_blowup(c, pos, rng.choice((1, -1)))
        assert len(out) == len(c) + 1 and out.closed


def test_apply_blowup_validates():
    with pytest.raises(ValueError):
        apply_blowup(AB, 1, 2)
    with pytest.raises(ValueError):
        apply_blowup(AB, 3, 1)
    with pytest.raises(ValueError):
        apply_blowup(normalize([(1, 0), (0, 1)], False), 1, 1)


def test_insertions_match_the_seam_rule_at_every_position():
    # eps = +-1, and sign flips that leave a circuit unnormalized; a twisted
    # diagram has no seam substitution (test_twisted_seam_substitution_unsupported)
    rng = random.Random(43)
    seen = set()
    for _ in range(60):
        circ = rand_closed(rng, rng.randint(1, 3), rng.randint(2, 6))
        raw = Circuit(tuple(scale(rng.choice((1, -1)), v) for v in circ), True)
        mu = twist_matrix(circ.curves[0], rng.choice((-2, -1, 1, 3)))  # keeps <mu g_c, g_1>
        seen.add((raw.eps, raw != circ))
        c = circ.length
        for d, last in ((circ, c), (raw, c), (Diagram(raw), c), (Diagram(circ, mu), c - 1),
                        (Diagram(raw, mu), c - 1)):
            for pos in range(1, last + 1):
                for e in (1, -1):
                    assert apply_blowup(d, pos, e) == apply_blowup_by_extended(d, pos, e), (d, pos)
                for k in range(-3, 4):
                    assert (apply_stabilization(d, pos, k)
                            == apply_stabilization_by_extended(d, pos, k)), (d, pos, k)
    assert {(-1, True), (-1, False), (1, True)} <= seen


def test_apply_stabilization_examples():
    assert ST.curves == ((1, 0), (0, 1), (-1, 0), (0, -1))
    assert hayano_surgery(AB, 1, (0, 1), 0).curves == ST.curves


def test_apply_stabilization_seam_wraps():
    out = apply_stabilization(TRI, 3, 1)
    assert len(out) == 5 and out.closed
    # the inserted pair sits across the seam as (g1, xi, g1')
    assert canon_sign(out[0]) == canon_sign(TRI[0])


def test_hayano_requires_unit_pairing_dual():
    with pytest.raises(ValueError):
        hayano_surgery(AB, 1, (1, 0), 2)  # dual parallel to the curve


def test_detect_triangle_blowups_everywhere():
    dets = detect(TRI)
    blow = [t for t in dets if t.kind == "BlowUp"]
    assert [t.position for t in blow] == [1, 2, 3]
    assert all(t.exponent == 1 and t.summand == "CP2bar" for t in blow)
    assert not any(t.kind == "Stabilization" for t in dets)
    assert not any(t.kind == "HayanoPattern" for t in dets)


def test_detect_stabilization():
    dets = detect(ST)
    stab = [t for t in dets if t.kind == "Stabilization"]
    assert any(t.position == 1 and t.k == 0 and t.summand == "S2xS2" for t in stab)


def test_detect_hayano():
    out = hayano_surgery(TRI, 2, (1, 0), 0)
    dets = [t for t in detect(out) if t.kind == "HayanoPattern"]
    assert dets and all(t.k == 0 for t in dets)
    assert any(t.position == 2 for t in dets)
    for t in dets:
        assert t.dual == canon_sign(t.dual)


def test_detect_too_short():
    assert detect(AB) == []


def test_detect_positions_ascending():
    rng = random.Random(13)
    for _ in range(30):
        c = rand_closed(rng, 1, rng.randint(3, 7))
        dets = detect(c)
        assert [t.position for t in dets] == sorted(t.position for t in dets)


def test_detect_flags_higher_genus_as_homological():
    rng = random.Random(14)
    for _ in range(20):
        c = rand_closed(rng, 2, 4)
        out = apply_blowup(c, 1, 1)
        dets = detect(out)
        assert dets, "inserted pattern must be found"
        assert all(t.homological_only for t in dets)
    assert all(not t.homological_only for t in detect(TRI))


def test_blowup_roundtrip_all_positions():
    rng = random.Random(15)
    for _ in range(60):
        c = rand_closed(rng, rng.randint(1, 2), rng.randint(2, 6))
        pos = rng.randint(1, c.length)
        e = rng.choice((1, -1))
        out = apply_blowup(c, pos, e)
        hits = [t for t in detect(out) if t.kind == "BlowUp" and t.position == pos
                and t.exponent == e]
        assert hits, (c.curves, pos, e)
        back, delta = contract(out, hits[0])
        assert cyclic_eq(back, c)
        assert (delta.m, delta.n) == ((1, 0) if e == -1 else (0, 1))
        assert delta.l == 0


def test_stab_roundtrip():
    rng = random.Random(16)
    for _ in range(60):
        c = rand_closed(rng, rng.randint(1, 2), rng.randint(2, 6))
        pos = rng.randint(1, c.length)
        k = rng.randint(-3, 3)
        out = apply_stabilization(c, pos, k)
        want_pos = pos if pos < c.length else len(out)
        hits = [t for t in detect(out) if t.kind == "Stabilization"
                and t.position == want_pos and t.k == k]
        assert hits, (c.curves, pos, k)
        back, delta = contract(out, hits[0])
        assert cyclic_eq(back, c)
        if k % 2 == 0:
            assert (delta.l, delta.m, delta.n) == (1, 0, 0)
        else:
            assert (delta.l, delta.m, delta.n) == (0, 1, 1)


def test_contract_stale_detection_raises():
    det = Detection(kind="BlowUp", position=1, exponent=-1, summand="CP2")
    with pytest.raises(ValueError, match="stale"):
        contract(TRI, det)  # the real pattern at 1 has exponent +1
    det2 = Detection(kind="BlowUp", position=9, exponent=1, summand="CP2bar")
    with pytest.raises(ValueError, match="stale"):
        contract(TRI, det2)


def test_contract_hayano_refuses():
    out = hayano_surgery(TRI, 2, (1, 0), 0)
    det = next(t for t in detect(out) if t.kind == "HayanoPattern")
    with pytest.raises(ValueError, match="surgery"):
        contract(out, det)


def test_twisted_interior_substitutions_keep_matrix():
    mu = twist_matrix((1, 0), 1)
    d = Diagram(TRI, mu)
    out = apply_blowup(d, 1, 1)
    assert isinstance(out, Diagram)
    assert out.switch_matrix == mu
    assert out.circuit.length == 4
    out2 = apply_stabilization(d, 2, 1)
    assert out2.switch_matrix == mu and out2.circuit.length == 5


def test_twisted_seam_substitution_unsupported():
    mu = twist_matrix((1, 0), 1)
    d = Diagram(TRI, mu)
    with pytest.raises(ValueError, match="seam"):
        apply_blowup(d, 3, 1)
    with pytest.raises(ValueError, match="seam"):
        apply_stabilization(d, 3, 0)


def test_twisted_hayano_at_seam_allowed():
    mu = twist_matrix((1, 0), 1)
    d = Diagram(TRI, mu)
    out = hayano_surgery(d, 3, (1, 0), 0)
    assert out.circuit.length == 5
    assert out.switch_matrix == mu


def test_twisted_detect_skips_wrapping_windows():
    mu = twist_matrix((1, 0), 1)
    plain = apply_blowup(TRI, 3, 1)  # pattern wraps the seam
    wrapped_positions = {t.position for t in detect(plain) if t.position >= 3}
    assert wrapped_positions, "untwisted detection does see the seam pattern"
    d = Diagram(plain, mu)
    ok = {t.position for t in detect(d)}
    assert all(p + 2 <= d.circuit.length for p in ok)


def test_contract_then_delta_matches_twist_identity():
    # inserted curve between (x, y) is tau_y^e(x) and the recovered
    # window agrees with the twist formula
    for e in (1, -1):
        out = apply_blowup(AB, 1, e)
        mid = out[1]
        assert mid in (twist_apply(AB[1], e, AB[0]),
                       tuple(-t for t in twist_apply(AB[1], e, AB[0])))
        det = next(t for t in detect(out) if t.kind == "BlowUp" and t.position == 1)
        assert det.exponent == e == -pairing(out[0], out[2])


# ------------------------------------------- detect against the window oracle

def outcome(f, d):
    """f(d), or the type of the exception it raised."""
    try:
        return f(d)
    except Exception as exc:  # the exception type is what is compared
        return type(exc)


def flipped(rng, circ):
    """The same closed circuit, built by hand with random curve signs."""
    return Circuit(tuple(scale(rng.choice((1, -1)), v) for v in circ.curves), True)


def substituted(rng, circ, moves):
    """circ after random blow-ups, stabilizations and Hayano surgeries,
    so that the oracle has patterns to find at any genus."""
    for _ in range(moves):
        pos = rng.randint(1, circ.length)
        op = rng.choice(("blowup", "stab", "hayano"))
        if op == "blowup":
            circ = apply_blowup(circ, pos, rng.choice((1, -1)))
        elif op == "stab":
            circ = apply_stabilization(circ, pos, rng.randint(-3, 3))
        else:
            dual = rand_next(rng, circ.curves[pos - 1])
            circ = hayano_surgery(circ, pos, dual, rng.randint(-2, 2))
    return circ


def test_detect_matches_window_oracle_on_generated_circuits():
    rng = random.Random(5)
    for seed in range(80):
        circ, _ = generate(seed, seed % 41)
        for d in (circ, flipped(rng, circ)):
            assert detect(d) == detect_by_windows(d), (seed, d)


@pytest.mark.parametrize("genus", [1, 2, 3, 5])
def test_detect_matches_window_oracle_on_random_circuits(genus):
    rng = random.Random(100 + genus)
    for _ in range(30):
        circ = rand_closed(rng, genus, rng.randint(2, 7))
        circ = substituted(rng, circ, rng.randint(0, 4))
        for d in (circ, flipped(rng, circ)):
            found = detect(d)
            assert found == detect_by_windows(d), d
            assert all(t.homological_only == (genus >= 2) for t in found)


def test_detect_matches_window_oracle_on_twisted_diagrams():
    rng = random.Random(17)
    plain = apply_blowup(TRI, 3, 1)
    diagrams = [parse((DATA / "twisted.sd").read_bytes()),
                Diagram(plain, twist_matrix((1, 0), 1)),
                Diagram(ST, twist_matrix((1, 0), -2))]
    for _ in range(40):
        genus = rng.choice((1, 1, 2, 3))
        circ = substituted(rng, rand_closed(rng, genus, rng.randint(2, 6)), rng.randint(0, 3))
        # a twist about g_1 keeps <mu g_c, g_1> = <g_c, g_1>
        mu = twist_matrix(circ.curves[0], rng.choice((-2, -1, 1, 3)))
        diagrams += [Diagram(circ, mu), Diagram(flipped(rng, circ), mu)]
    for d in diagrams:
        assert detect(d) == detect_by_windows(d), d


@pytest.mark.parametrize("genus", [1, 2, 5])
def test_detect_records_equal_keyword_built_ones(genus):
    # detect builds its records by position: each must be the Detection the
    # oracle builds by keywords, field by field, untwisted and twisted
    rng = random.Random(130 + genus)
    if genus == 1:
        circs = [generate(seed, 20 + seed)[0] for seed in range(30)]
    else:
        circs = [substituted(rng, rand_closed(rng, genus, rng.randint(2, 7)), rng.randint(1, 4))
                 for _ in range(30)]
    kinds = set()
    for circ in circs:
        mu = twist_matrix(circ.curves[0], rng.choice((-2, -1, 1, 3)))
        for d in (circ, flipped(rng, circ), Diagram(circ, mu), Diagram(flipped(rng, circ), mu)):
            got, want = detect(d), detect_by_windows(d)
            assert got == want, d
            for x, y in zip(got, want):
                assert type(x) is Detection and x._asdict() == y._asdict(), (d, x)
                kinds.add(x.kind)
    assert kinds == {"BlowUp", "Stabilization", "HayanoPattern"}


def test_detect_at_genus_1_matches_window_oracle():
    """The genus-1 windows, read without the relation check, against the
    oracle that checks every window: generator circuits, sign-flipped
    circuits built by hand, c = 2, 3, 4, and twisted diagrams, including
    switch matrices that break the seam (compared by the error's type)."""
    rng = random.Random(24)
    diagrams = []
    for seed in range(40):
        circ, _ = generate(seed, seed % 23)
        diagrams += [circ, flipped(rng, circ)]
    for c in (2, 3, 4):
        for _ in range(15):
            circ = rand_closed(rng, 1, c)
            diagrams += [circ, flipped(rng, circ), substituted(rng, circ, 1)]
    for _ in range(40):
        circ = substituted(rng, rand_closed(rng, 1, rng.randint(2, 6)), rng.randint(0, 3))
        word = [((1, 0), rng.choice((-2, -1, 1, 2))), ((0, 1), rng.choice((-2, -1, 1, 2)))]
        for mu in (twist_matrix(circ.curves[0], rng.choice((-2, 1, 3))), word_matrix(word, 1)):
            diagrams += [Diagram(circ, mu), Diagram(flipped(rng, circ), mu)]
    raised = 0
    for d in diagrams:
        got, want = outcome(detect, d), outcome(detect_by_windows, d)
        assert got == want, d
        raised += isinstance(want, type)
    assert 0 < raised < len(diagrams) // 4


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_window_sign_pass_matches_the_pairing_oracle(genus):
    """_norm_window against the generic sign loop: the re-signed window, or
    the error's type and message, with a bad pair first, in the middle or
    last, and with the curves given as lists."""
    rng = random.Random(90 + genus)
    for _ in range(30):
        chain = rand_chain(rng, genus, rng.randint(1, 6)).curves
        win = [scale(rng.choice((1, -1)), v) for v in chain]
        cases = [win]
        for j in sorted({1, len(win) // 2, len(win) - 1} - {0}):
            cases.append(win[:j] + [rand_paired(rng, win[j - 1], rng.choice((0, 2, -5)))] + win[j + 1:])
        for w in cases + [[list(v) for v in w] for w in cases]:
            got, want = result_or_error(_norm_window, w), result_or_error(norm_window_by_pairing, w)
            assert got == want, w


def test_genus_1_windows_and_signs_skip_the_generic_kernels(monkeypatch):
    """At genus 1 detect checks no window relation and normalize pairs only the
    closing pair by the generic pairing; at genus 2 both are still called."""
    circ, genus2 = k2_chain(100), rand_closed(random.Random(2), 2, 6)
    raw = [scale(-1, v) if i % 3 else v for i, v in enumerate(circ.curves)]
    calls = {"_window_k": 0, "pairing": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(sdcalc.subst, "_window_k")
    counted(sdcalc.circuit, "pairing")
    assert normalize(raw, True) == circ
    assert calls["pairing"] <= 1
    assert [t.kind for t in detect(circ)] == ["BlowUp"] * 2
    assert calls["_window_k"] == 0
    normalize(genus2.curves, True)
    detect(genus2)
    assert calls["pairing"] > 5 and calls["_window_k"] > 0


def contract_outcome(f, d, det):
    """repr of f(d, det), or the type and message of what it raised."""
    try:
        return repr(f(d, det))
    except Exception as exc:  # the exception type and message are what is compared
        return type(exc), str(exc)


def assert_contract_matches_oracle(d, dets):
    for det in dets:
        got, want = contract_outcome(contract, d, det), contract_outcome(contract_by_kind, d, det)
        assert got == want, (d, det, got, want)


def edited(det, c):
    """det made stale in every way: unknown kind, positions out of range or
    elsewhere, wrong exponent or k."""
    out = [det._replace(kind=kind) for kind in ("BlowUp", "Stabilization", "HayanoPattern", "Cusp")]
    out += [det._replace(position=p) for p in (0, -1, c, c + 1, det.position % c + 1)]
    out += [det._replace(exponent=-det.exponent)] if det.exponent is not None else []
    out += [det._replace(k=det.k + dk) for dk in (-1, 1)] if det.k is not None else []
    return out


def test_contract_matches_oracle_on_generator_detections():
    # every detection, seam windows included, on the normalized circuit and
    # on the same curves with random signs; then every detection edited
    rng = random.Random(23)
    for seed in range(60):
        circ, _ = generate(seed, rng.randint(0, 40))
        c = circ.length
        dets = detect(circ)
        for d in (circ, flipped(rng, circ), rotate_to_front(circ, rng.randrange(c))):
            assert_contract_matches_oracle(d, dets + detect(d))
        assert_contract_matches_oracle(circ, [e for det in dets for e in edited(det, c)])


def test_contract_matches_oracle_at_genus_2_3_5():
    rng = random.Random(24)
    for _ in range(60):
        genus = rng.choice((2, 3, 5))
        circ = substituted(rng, rand_closed(rng, genus, rng.randint(2, 6)), rng.randint(1, 4))
        dets = detect(circ)
        for d in (circ, flipped(rng, circ)):
            assert_contract_matches_oracle(d, dets)
        assert_contract_matches_oracle(circ, [e for det in dets for e in edited(det, circ.length)])


def test_contract_matches_oracle_on_corrupted_circuits():
    # a curve away from the window replaced by one that breaks normalize:
    # not primitive, of another genus, or pairing its neighbour to 0
    rng = random.Random(25)
    for seed in range(40):
        circ, _ = generate(seed, rng.randint(3, 20))
        c = circ.length
        for det in detect(circ):
            w = 1 if det.kind == "BlowUp" else 2
            window = {(det.position - 1 + t) % c for t in range(w + 2)}
            away = [i for i in range(c) if i not in window]
            if not away:
                continue
            i = rng.choice(away)
            for bad in ((2, 0), (1, 0, 0, 0), circ.curves[i - 1]):
                cs = list(circ.curves)
                cs[i] = bad
                assert_contract_matches_oracle(Circuit(tuple(cs), True), [det])
    assert_contract_matches_oracle(Circuit(((1, 0), (1, 0), (0, 1)), True),
                                   [Detection("BlowUp", 1, exponent=1)])
    assert_contract_matches_oracle(normalize([(1, 0), (0, 1)], False),
                                   [Detection("BlowUp", 1, exponent=1)])


def test_contract_matches_oracle_on_twisted_diagrams():
    rng = random.Random(26)
    diagrams = [parse((DATA / "twisted.sd").read_bytes()),
                Diagram(apply_blowup(TRI, 2, 1), twist_matrix((1, 0), 1)),
                Diagram(ST, twist_matrix((1, 0), -2))]
    for _ in range(40):
        genus = rng.choice((1, 1, 2, 3))
        circ = substituted(rng, rand_closed(rng, genus, rng.randint(2, 6)), rng.randint(1, 3))
        mu = twist_matrix(circ.curves[0], rng.choice((-2, -1, 1, 3)))  # keeps the closing pairing
        diagrams += [Diagram(circ, mu), Diagram(flipped(rng, circ), mu)]
    for d in diagrams:
        c = d.circuit.length
        dets = detect(d) + detect(d.circuit)  # the untwisted scan adds the seam windows
        assert_contract_matches_oracle(d, dets + [e for det in dets for e in edited(det, c)])


def hand_built(c):
    """Every blow-up and stabilization a caller could build at positions
    1..c, most of them stale: exponents that are not +-1, and no k."""
    return [Detection("BlowUp", pos, exponent=e) for pos in range(1, c + 1)
            for e in (None, 0, 1, -1, 2, -2)] + [
        Detection("Stabilization", pos, k=k) for pos in range(1, c + 1)
        for k in (None, *range(-3, 4))]


def test_contract_matches_oracle_on_hand_built_detections():
    rng = random.Random(27)
    circuits = [generate(seed, rng.randint(0, 12))[0] for seed in range(20)]
    for genus in (2, 3, 5):
        circuits += [rand_closed(rng, genus, rng.randint(2, 6)) for _ in range(3)]
        circuits += [substituted(rng, rand_closed(rng, genus, rng.randint(2, 5)), rng.randint(1, 3))
                     for _ in range(3)]
    matched = set()
    for circ in circuits:
        dets = hand_built(circ.length)
        assert_contract_matches_oracle(circ, dets)
        matched |= {(det.kind, circ.genus >= 2) for det in dets
                    if isinstance(contract_outcome(contract, circ, det), str)}
    assert len(matched) == 4  # both kinds contract at genus 1 and above


def test_zero_at_the_next_window_alone_is_no_stabilization():
    # (x, y, z, w) with w = -y but x + z = a_2, no multiple of y: the window
    # (y, z, w) is a Hayano pattern, and ks = (None, 0) at (x, y, z, w) is no
    # stabilization, whatever k a detection names, None included
    a1, b1, a2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
    circ = normalize([a1, b1, add(scale(-1, a1), a2), scale(-1, b1)], True)
    assert pairing(circ[0], circ[2]) == 0 and circ[3] == scale(-1, circ[1])
    dets = detect(circ)
    assert dets == detect_by_windows(circ)
    assert [(t.kind, t.position) for t in dets] == [("HayanoPattern", 2), ("HayanoPattern", 4)]
    for det in [t for t in hand_built(4) if t.kind == "Stabilization"]:
        with pytest.raises(ValueError, match="stale"):
            contract(circ, det)
    assert_contract_matches_oracle(circ, hand_built(4))


DETECT_BAD = [
    (((1, 0), (1, 0), (0, 1)), True),  # adjacent pairing 0
    (((1, 0), (0, 1), (-1, 2)), True),  # closing pairing -2: the seam windows break
    (((1, 0), (0, 1), (-1, 2), (2, 3)), True),  # adjacent pairing 7 at the end
    (((1, 0), (0, 1), (1, 0, 0, 0)), True),  # genus mismatch
    (((1, 0, 0), (0, 1, 0), (1, 1, 1)), True),  # odd length
    (((1, 0), (1, 0)), True),  # too short for any window
    (((1, 0), (0, 1), (-1, 0)), False),  # open
]


@pytest.mark.parametrize("curves, closed", DETECT_BAD)
def test_detect_raises_what_the_window_oracle_raises(curves, closed):
    circ = Circuit(curves, closed)
    for d in (circ, Diagram(circ, twist_matrix((1, 0), 1)) if len(curves[0]) == 2 else circ):
        got, want = outcome(detect, d), outcome(detect_by_windows, d)
        assert got == want, (d, got, want)


# the public calls that read a circuit, each of which raises "empty circuit" on none
EMPTY_CALLS = ("detect", "classify", "switch", "to_blf", "emit_kirby", "euler_characteristics",
               "duality_coefficients", "linking_matrix", "mu_tilde_word", "mu_tilde_matrix",
               "surgered_action", "verdict")


@pytest.mark.parametrize("closed", [False, True])
def test_empty_circuit_is_one_value_error(closed):
    for name in EMPTY_CALLS:
        with pytest.raises(ValueError, match="^empty circuit$"):
            getattr(sdcalc, name)(Circuit((), closed))
    for read in (lambda c: c.genus, lambda c: c.eps, lambda c: c.extended(1)):
        with pytest.raises(ValueError, match="^empty circuit$"):
            read(Circuit((), closed))
    rep = validate(Circuit((), closed))
    assert not rep.ok and rep.failures[0] == (0, "empty circuit")


# hand-built input that every public circuit reader rejects where it unpacks it, with the message:
# an empty circuit, an odd or zero first length, a switch matrix not 2g x 2g and curves of mixed
# lengths, checked in that order, so of two faults the first raises
SHAPE_FAULTS = {
    "Circuit((), True)": "empty circuit",
    "Circuit(((1, 0, 0), (0, 1, 0)), True)": "coefficient vector must have positive even length, got 3",
    "Circuit(((), (1, 0)), True)": "coefficient vector must have positive even length, got 0",
    "Diagram(AB, ident(4))": "switch matrix must be 2x2",
    "Circuit(((1, 0), (0, 1, 0, 0)), True)": "genus mismatch: curves of different lengths",
    "Diagram(Circuit((), True), ident(2))": "empty circuit",
    "Diagram(Circuit(((1, 0, 0), (0, 1, 0)), True), ident(2))":
        "coefficient vector must have positive even length, got 3",
    "Diagram(Circuit(((1, 0), (0, 1, 0, 0)), True), ident(4))": "switch matrix must be 2x2",
}
READERS = ["sdcalc.%s(%%s)" % name for name in EMPTY_CALLS] + [
    "sdcalc.double(%s)", "sdcalc.contract(%s, Detection('BlowUp', 1, exponent=1))", "sdcalc.apply_blowup(%s, 1, 1)",
    "sdcalc.apply_stabilization(%s, 1, 0)", "sdcalc.hayano_surgery(%s, 1, (0, 1), 0)"]

# the bad-input calls of this module as source, so that a python -O
# interpreter, which strips assert statements, can make them too
BAD_CALLS = ["detect(Circuit(%r, %r))" % case for case in DETECT_BAD] + [
    "detect(Diagram(Circuit(%r, True), twist_matrix((1, 0), 1)))" % (curves,)
    for curves, closed in DETECT_BAD if closed and len(curves[0]) == 2
] + [
    "contract(Circuit(((1, 0), (1, 0), (0, 1)), True), Detection('BlowUp', 1, exponent=1))",
    "apply_blowup(AB, 1, 2)",
    "apply_blowup(AB, 3, 1)",
    "apply_blowup(normalize([(1, 0), (0, 1)], False), 1, 1)",
    "hayano_surgery(AB, 1, (1, 0), 2)",
    "contract(TRI, Detection(kind='BlowUp', position=1, exponent=-1, summand='CP2'))",
    "contract(TRI, Detection(kind='BlowUp', position=9, exponent=1, summand='CP2bar'))",
    "contract(hayano_surgery(TRI, 2, (1, 0), 0), Detection('HayanoPattern', 2, k=0))",
    "apply_blowup(Diagram(TRI, twist_matrix((1, 0), 1)), 3, 1)",
    "apply_stabilization(Diagram(TRI, twist_matrix((1, 0), 1)), 3, 0)",
    # a switch matrix of the wrong size, and curves of different lengths
    "switch(Diagram(Circuit(((1, 0, 0, 0), (0, 1, 0, 0)), True), ((1, 1), (0, 1))))",
    "detect(Diagram(Circuit(((1, 0, 0, 0), (0, 1, 0, 0)), True), ((1, 1), (0, 1))))",
    "reported(validate(Diagram(Circuit(((1, 0, 0, 0), (0, 1, 0, 0)), True), ((1, 1), (0, 1)))))",
    "switch(Diagram(AB, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))), 5)",
    "linking_matrix(Circuit(((1, 0), (0, 1, 0, 0)), False)).entries",
    "form_invariants(linking_matrix(Circuit(((-3, 5), (0, 2, -3, 1)), False)))",
    # an odd curve length, and curves of different lengths under a 2x2 switch matrix
    "linking_matrix(Circuit(((1, 0, 0),), False))",
    "switch(Diagram(Circuit(((1, 0), (0, 1), (1, 0, 0, 0)), True), ((1, 1), (0, 1))))",
] + [read % fault for read in READERS for fault in SHAPE_FAULTS] + [
    "reported(validate(Circuit((), False)))",
    # a switch matrix that does not fit, and odd curves under one that does
    "normalize([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)], True, ((1,),))",
    "switch(Diagram(Circuit(((1, 0, 0), (0, 1, 0)), True), ident(3)), -1)",
    "reported(validate(Circuit(((1, 0, 0),), False)))",
    # a twisted diagram where the untwisted seam is not closed, and a middle curve of another length
    "sdcalc.to_blf(Diagram(normalize([(1, 0), (0, 1), (-1, 2)], True, ((1, 0), (1, 1))), ((1, 0), (1, 1))))",
    "sdcalc.duality_coefficients(Circuit(((1, 0), (0, 1, 0, 0), (-1, 0)), False))",
    # curves of different lengths with no switch matrix
    "sdcalc.euler_characteristics(Circuit(((1, 0), (1, 0, 0, 0)), False))",
    "sdcalc.mu_tilde_word(Circuit(((1, 0), (0, 1), (1, 0, 0, 0)), True))",
    # too short for double and for duality coefficients, and not a circuit for classify
    "sdcalc.double(Circuit(((1, 0),), False))",
    "sdcalc.duality_coefficients(AB)",
    "sdcalc.classify(Circuit(((1, 0), (1, 0)), True))",
    # g_1 and the lift axis (4, -4) imprimitive: the genus-1 surgered action checks g_1 first
    "sdcalc.surgered_action(Circuit(((2, 0), (0, 1)), True))",
    "sdcalc.verdict(Circuit(((2, 0), (0, 1)), True))",
    # a base class whose length is not positive and even
    "sdcalc.monodromy._quotient(())",
    "sdcalc.monodromy._quotient((1,))",
    "sdcalc.monodromy._quotient((1, 0, 0))",
]


def test_every_reader_checks_the_shape_first_in_one_order():
    for read in READERS:
        for fault, message in SHAPE_FAULTS.items():
            with pytest.raises(ValueError) as exc:
                eval(read % fault, globals())
            assert str(exc.value) == message, read % fault


def reported(report):
    """Raise a failure that validate reports, so that it counts as raised."""
    if not report.ok:
        raise ValueError(report.failures)


RAISED = """\
import json, sys
sys.path.insert(0, {tests!r})
import test_subst
print(json.dumps(test_subst.raised(test_subst.BAD_CALLS)))
"""


def raised(calls):
    """The name of the exception each call raises, or None if it returns."""
    out = []
    for src in calls:
        try:
            eval(src, globals())
            out.append(None)
        except Exception as exc:
            out.append(type(exc).__name__)
    return out


def test_bad_input_raises_the_same_under_python_O():
    here = raised(BAD_CALLS)
    # detect also checks the pairings no window reads: c < 3 and a twisted closing
    assert here == ["ValueError"] * len(BAD_CALLS), dict(zip(BAD_CALLS, here))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", RAISED.format(tests=str(DATA.parent))],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == here


# ---------------------------------------------------- the library boundary

def _normalize(d, *_):
    circ, mu = d if isinstance(d, Diagram) else (d, None)
    return normalize(circ.curves, circ.closed, mu)


# every public call that reads a circuit, on a hand-built diagram d, a
# position p, an integer k and a dual class x
BOUNDARY_CALLS = {
    "normalize": _normalize,
    "validate": lambda d, p, k, x: sdcalc.validate(d),
    "switch": lambda d, p, k, x: sdcalc.switch(d, k),
    "double": lambda d, p, k, x: sdcalc.double(d),
    "classify": lambda d, p, k, x: sdcalc.classify(d),
    "duality_coefficients": lambda d, p, k, x: sdcalc.duality_coefficients(d),
    "linking_matrix": lambda d, p, k, x: sdcalc.linking_matrix(d).entries,
    "form_invariants": lambda d, p, k, x: sdcalc.form_invariants(sdcalc.linking_matrix(d)),
    "euler_characteristics": lambda d, p, k, x: sdcalc.euler_characteristics(d),
    "emit_kirby": lambda d, p, k, x: sdcalc.emit_kirby(d, p),
    "to_blf": lambda d, p, k, x: sdcalc.to_blf(d),
    "mu_tilde_word": lambda d, p, k, x: sdcalc.mu_tilde_word(d),
    "mu_tilde_matrix": lambda d, p, k, x: sdcalc.mu_tilde_matrix(d),
    "surgered_action": lambda d, p, k, x: sdcalc.surgered_action(d),
    "verdict": lambda d, p, k, x: sdcalc.verdict(d),
    "detect": lambda d, p, k, x: [sdcalc.contract(d, det) for det in sdcalc.detect(d)],
    "contract": lambda d, p, k, x: sdcalc.contract(d, Detection("Stabilization", p, k=k)),
    "apply_blowup": lambda d, p, k, x: sdcalc.apply_blowup(d, p, k),
    "apply_stabilization": lambda d, p, k, x: sdcalc.apply_stabilization(d, p, k),
    "hayano_surgery": lambda d, p, k, x: sdcalc.hayano_surgery(d, p, x, k),
}

FAULTS = ("empty", "drop", "odd", "longer", "shorter", "zero", "multiple", "flip", "repeat",
          "random")


def _break(rng, curves, fault):
    """curves with one fault of hand-built input at a random curve."""
    if fault == "empty" or not curves:
        return []
    i = rng.randrange(len(curves))
    v = curves[i]
    new = {"odd": v + (1,), "longer": v + (0, 1), "shorter": v[:-2] or (1,),
           "zero": (0,) * len(v), "multiple": scale(rng.choice((0, 2, 3)), v),
           "flip": scale(-1, v), "repeat": curves[i - 1],
           "random": tuple(rng.randint(-3, 3) for _ in v)}.get(fault)
    return curves[:i] + curves[i + 1:] if new is None else curves[:i] + [new] + curves[i + 1:]


def _switch_matrix(rng, kind, n):
    """A switch matrix for curves of length n: symplectic, the wrong size,
    ragged, or not symplectic."""
    if kind == "twist":
        return twist_matrix(rand_primitive(rng, max(1, n // 2), 2), rng.choice((-1, 1, 2)))
    if kind == "size":
        return ident(rng.choice([m for m in (1, 2, 4, 6) if m != n])) if n != 1 else ident(2)
    if kind == "ragged":
        return ident(n)[:-1] + ((1,) * (n + 1),)
    return tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))


def boundary_case(seed):
    """(d, p, k, x): a Circuit or Diagram built by hand, valid or broken in up
    to two ways, with a position, an integer and a dual class to call with."""
    rng = random.Random(seed)
    genus, length, closed = rng.randint(1, 3), rng.randint(2, 7), rng.random() < 0.5
    curves = list((rand_closed if closed else rand_chain)(rng, genus, length, 2).curves)
    for fault in rng.choices(FAULTS, k=rng.choice((0, 1, 1, 2))):
        curves = _break(rng, curves, fault)
    circ = Circuit(tuple(curves), closed)
    kind = rng.choice((None, None, "twist", "size", "ragged", "random"))
    d = circ if kind is None and rng.random() < 0.5 else Diagram(
        circ, kind and _switch_matrix(rng, kind, len(curves[0]) if curves else 2 * genus))
    x = tuple(rng.randint(-2, 2) for _ in range(2 * genus))
    return d, rng.randint(-1, length + 2), rng.randint(-3, 3), x


def test_boundary_calls_are_the_public_circuit_readers():
    assert set(EMPTY_CALLS) < set(BOUNDARY_CALLS) <= set(sdcalc.__all__)


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1).map(boundary_case))
def test_public_calls_give_a_result_or_a_one_line_value_error(case):
    # validate reports a fault instead of raising it; only classify documents a RuntimeError.
    # Curves that do not share one even length get no result from any call.
    circ = case[0].circuit if isinstance(case[0], Diagram) else case[0]
    lengths = set(map(len, circ.curves))
    one_even_length = len(lengths) == 1 and not lengths.pop() % 2
    for name, call in BOUNDARY_CALLS.items():
        try:
            out = call(*case)
        except ValueError as exc:
            msg = str(exc)
            assert name != "validate" and "\n" not in msg and len(msg) <= 300, (name, case, msg)
        except RuntimeError:
            assert name == "classify", (name, case)
        else:
            assert one_even_length or (name == "validate" and not out.ok), (name, case, out)
