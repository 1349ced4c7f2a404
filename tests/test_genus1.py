import random
from types import SimpleNamespace

import pytest

from sdcalc import genus1
from sdcalc.circuit import Circuit, Diagram, generate, normalize, validate
from sdcalc.genus1 import (
    CanonicalForm,
    SumForm,
    classify,
    duality_coefficients,
    normalize_sum,
    sigma_sequence,
)
from sdcalc.homology import add, pairing, scale, twist_matrix

from support import (classify_by_contract, classify_by_rescan, k2_chain, rand_chain, rand_closed,
                     result_or_error, rotate_to_front, sign_pass_cases)

TRI = normalize([(1, 0), (1, -1), (0, 1)], True)
AB = normalize([(1, 0), (0, 1)], True)


def expected_forms(form):
    """Both closure readings of a generator sum form, deduplicated."""
    return {normalize_sum(form.with_closure("Spin0")),
            normalize_sum(form.with_closure("NonSpin1"))}


def test_duality_coefficients_examples():
    assert duality_coefficients(TRI) == [-1]
    st = normalize([(1, 0), (0, 1), (-1, 0), (0, -1)], True)
    assert duality_coefficients(st) == [0, 0]


def test_duality_relation_holds():
    rng = random.Random(41)
    for _ in range(50):
        ch = rand_chain(rng, 1, rng.randint(3, 9))
        ks = duality_coefficients(ch)
        for i in range(2, len(ch)):
            k = ks[i - 2]
            assert ch[i] == add(scale(k, ch[i - 1]), scale(-1, ch[i - 2]))
            assert k == pairing(ch[i - 2], ch[i])


def coefficients_by_loop(cs):
    ks = []
    for i in range(2, len(cs)):
        k = pairing(cs[i - 2], cs[i])
        if cs[i] != add(scale(k, cs[i - 1]), scale(-1, cs[i - 2])):
            raise ValueError(
                "curve %d does not satisfy the duality relation; "
                "is the circuit normalized?" % (i + 1,)
            )
        ks.append(k)
    return ks


def test_duality_check_matches_plain_loop_on_unnormalized_chains():
    rng = random.Random(43)
    raised = 0
    for _ in range(300):
        ch = rand_chain(rng, 1, rng.randint(3, 9), lim=rng.choice((1, 2, 3)))
        curves = [scale(rng.choice((1, 1, -1)), v) for v in ch.curves]
        try:
            want = coefficients_by_loop(curves)
        except ValueError as exc:
            raised += 1
            with pytest.raises(ValueError) as err:
                duality_coefficients(Circuit(tuple(curves), False))
            assert str(err.value) == str(exc)
        else:
            assert duality_coefficients(Circuit(tuple(curves), False)) == want
    assert 100 < raised < 300


def test_duality_needs_genus_one():
    with pytest.raises(ValueError):
        duality_coefficients(rand_chain(random.Random(0), 2, 4))
    # a middle curve of another length, not a broken duality relation
    with pytest.raises(ValueError, match="^genus mismatch: curves of different lengths$"):
        duality_coefficients(Circuit(((1, 0), (0, 1, 0, 0), (-1, 0)), False))
    with pytest.raises(ValueError, match="^duality coefficients need genus 1$"):
        duality_coefficients(Circuit(((1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 0, 0)), False))


def test_sigma_sequence():
    assert sigma_sequence([-1]) == [0, 1, -1]
    assert sigma_sequence([2, 2]) == [0, 1, 2, 3]
    assert sigma_sequence([]) == [0, 1]


def test_sigma_tracks_first_pairing():
    # sigma_i = <g_1, g_i>, so closure is readable off the recursion
    rng = random.Random(42)
    for _ in range(100):
        ch = rand_chain(rng, 1, rng.randint(3, 10))
        sig = sigma_sequence(duality_coefficients(ch))
        for i, v in enumerate(ch):
            assert sig[i] == pairing(ch[0], v)


def test_normalize_sum():
    assert normalize_sum(SumForm(2, 0, 0, "Spin0")) == CanonicalForm(3, 0, 0)
    assert normalize_sum(SumForm(2, 0, 0, "NonSpin1")) == CanonicalForm(0, 3, 3)
    assert normalize_sum(SumForm(1, 2, 0, "Spin0")) == CanonicalForm(0, 4, 2)
    assert normalize_sum(SumForm(0, 0, 1, "NonSpin1")) == CanonicalForm(0, 1, 2)
    with pytest.raises(ValueError):
        normalize_sum(SumForm(0, 0, 0, "Unclosed"))


def test_canonical_form_pretty_and_signature():
    assert CanonicalForm(3, 0, 0).pretty() == "3*(S2xS2)"
    assert CanonicalForm(0, 1, 2).pretty() == "1*CP2 # 2*CP2bar"
    assert CanonicalForm(0, 1, 2).signature == -1
    assert CanonicalForm(2, 0, 0).signature == 0


def test_classify_triangle():
    cl = classify(TRI)
    assert {f.pretty() for f in cl.canonical_forms} == {"1*CP2 # 2*CP2bar"}
    assert (cl.counts.l, cl.counts.m, cl.counts.n) == (0, 0, 1)
    steps = [s for s, _, _ in cl.reduction_trace]
    assert steps == [1]


def test_classify_two_curves_keeps_both_closures():
    cl = classify(AB)
    assert {f.pretty() for f in cl.canonical_forms} == {"1*(S2xS2)", "1*CP2 # 1*CP2bar"}
    assert cl.reduction_trace == ()


def test_classify_rejections():
    with pytest.raises(ValueError, match="genus 1"):
        classify(normalize([(1, 0, 0, 0), (0, 1, 0, 0)], True))
    with pytest.raises(ValueError, match="closed"):
        classify(normalize([(1, 0), (0, 1)], False))
    with pytest.raises(ValueError, match="untwisted"):
        classify(Diagram(AB, twist_matrix((1, 0), 1)))


def classify_behind_validate(circ):
    """classify behind validate's whole sign pass, the check it ran on every call before
    it read the adjacent pairings itself: the reference for its error paths."""
    report = validate(circ)
    if not report.ok:
        raise ValueError("invalid circuit: %s" % (report.failures[0],))
    return classify(circ)


def test_classify_checks_pairings_as_validate_does(monkeypatch):
    """On each failure of the sign pass classify raises validate's error, byte for byte;
    on a normalized circuit it classifies without calling validate."""
    calls = []
    monkeypatch.setattr(genus1, "validate", lambda d: calls.append(d) or validate(d))
    kinds = set()
    # closing pairings 0 and -2, a closed c = 1, and a valid c = 2
    by_hand = [([(1, 0), (0, 1), (-1, 0)], True, None), ([(1, 0), (0, 1), (-1, 2)], True, None),
               ([(1, 0)], True, None), ([(1, 0), (2, 1)], True, None)]
    for raw, closed, mu in sign_pass_cases(random.Random(72), 1) + by_hand:
        if not closed or mu is not None:  # classify refuses both before any pairing
            continue
        circ = Circuit(tuple(raw), True)
        want = result_or_error(classify_behind_validate, circ)
        assert result_or_error(classify, circ) == want, raw
        if want[0] is ValueError:
            curve, reason = validate(circ).failures[0]
            where = {0: None, 1: "first", len(raw) - 1: "last"}.get(curve, "middle")
            words = reason.replace(",", "").split()  # adjacent or closing, "pairing", its value
            kinds.add((words[0], abs(int(words[2])) if curve else None, where))
        fixed = result_or_error(normalize, raw, True)
        if isinstance(fixed, Circuit):
            del calls[:]
            assert classify(fixed) == classify_behind_validate(fixed) and not calls
    assert {("adjacent", p, at) for p in (0, 2, 3, 7) for at in ("first", "middle", "last")} \
        | {("adjacent", 1, "first"), ("closing", None, None)} <= kinds, sorted(kinds)


def test_classify_accepts_diagram_wrapper():
    cl = classify(Diagram(TRI, None))
    assert {f.pretty() for f in cl.canonical_forms} == {"1*CP2 # 2*CP2bar"}


def test_classify_matches_generator_forms():
    rng = random.Random(43)
    for _ in range(40):
        circ, form = generate(rng.randrange(2**32), rng.randint(0, 12))
        cl = classify(circ)
        assert cl.canonical_forms == frozenset(expected_forms(form))


def test_classify_euler_bookkeeping():
    # chi of the closed total space: 2 + c = 4 + 2l + m + n
    rng = random.Random(44)
    for _ in range(40):
        circ, _ = generate(rng.randrange(2**32), rng.randint(0, 10))
        cl = classify(circ)
        assert 2 + len(circ) == 4 + 2 * cl.counts.l + cl.counts.m + cl.counts.n


def test_classify_counts_relate_to_generator_counts():
    # reduction order may differ from construction order, but m - n and
    # the total curve bookkeeping are order-independent
    rng = random.Random(45)
    for _ in range(40):
        circ, form = generate(rng.randrange(2**32), rng.randint(0, 12))
        cl = classify(circ)
        assert cl.counts.m - cl.counts.n == form.m - form.n
        assert 2 * cl.counts.l + cl.counts.m + cl.counts.n == 2 * form.l + form.m + form.n


def test_classify_is_rotation_invariant():
    rng = random.Random(46)
    for _ in range(25):
        circ, _ = generate(rng.randrange(2**32), rng.randint(1, 8))
        r = rng.randrange(len(circ))
        rotated = rotate_to_front(circ, r)
        assert classify(circ).canonical_forms == classify(rotated).canonical_forms


def test_classify_trace_is_replayable():
    from sdcalc.subst import contract

    circ, _ = generate(7, 9)
    cl = classify(circ)
    cur = circ
    total = SumForm(0, 0, 0, "Unclosed")
    for _step, det, delta in cl.reduction_trace:
        cur, got = contract(cur, det)
        assert (got.l, got.m, got.n) == (delta.l, delta.m, delta.n)
        total = total + delta
    assert len(cur) == 2
    assert (total.l, total.m, total.n) == (cl.counts.l, cl.counts.m, cl.counts.n)


def test_classify_matches_contract_oracle():
    # the one-pass classifier against the contract-and-renormalize loop:
    # whole Classification, so every trace position and seam rotation
    rng = random.Random(48)
    for steps in [0, 1, 2, 150] + [rng.randint(0, 150) for _ in range(12)]:
        circ, _ = generate(rng.randrange(2**32), steps)
        for x in (circ, rotate_to_front(circ, rng.randrange(len(circ)))):
            assert classify(x) == classify_by_contract(x)
    for _ in range(200):
        x = rand_closed(rng, 1, rng.randint(2, 9), lim=6)
        assert classify(x) == classify_by_contract(x)


@pytest.mark.parametrize("c", list(range(3, 13)) + [31, 51, 301, 1001])
def test_classify_on_k2_chain_matches_both_oracles(c):
    # a long run of coefficient 2 that the searches skip after each gap;
    # the rotations move the run across the seam, every one of them up to c = 31
    circ = k2_chain(c)
    for r in range(c) if c <= 31 else (0, 1, c // 3, c // 2, c - 2, c - 1):
        x = rotate_to_front(circ, r)
        got = classify(x)
        assert got == classify_by_rescan(x), r
        if c < 1001 or r in (0, c // 2):  # the contract loop takes over a second at c = 1001
            assert got == classify_by_contract(x), r
        assert got.counts == SumForm(m=c - 2)  # c - 2 blow-ups of exponent -1, each a CP2


def from_coefficients(ks):
    """The closed genus-1 circuit whose cyclic windows have coefficients ks:
    g_1 = (1, 0), g_2 = (0, 1), g_{i+2} = k_i g_{i+1} - g_i."""
    cs = [(1, 0), (0, 1)]
    for k in ks[:-2]:
        cs.append(tuple(k * y - x for x, y in zip(cs[-2], cs[-1])))
    circ = normalize(cs, True)
    assert [pairing(x, y) * pairing(y, z) * pairing(x, z)
            for x, y, z in zip(cs, cs[1:] + cs[:1], cs[2:] + cs[:2])] == list(ks)
    return circ


# coefficients and the first contraction (kind, j from 0): a blow-up at
# j >= c - 2 and a stabilization at j >= c - 3 wrap the seam and are rotated
# to the front, a blow-up at c - 3 is the last that is not; and the c = 3
# and c = 4 ends
SEAM_CASES = {
    "blowup_c5_j3": ((-2, 0, 3, 1, 1), "BlowUp", 3),
    "blowup_c6_j4": ((-2, 0, 3, 0, -1, 0), "BlowUp", 4),
    "blowup_c6_j5": ((0, -2, 0, 3, 0, -1), "BlowUp", 5),
    "blowup_c7_j5": ((-2, 0, 0, 0, 3, 1, 1), "BlowUp", 5),
    "blowup_c7_j6": ((-2, 0, 3, -2, 0, 3, 1), "BlowUp", 6),
    "blowup_c4_j1": ((0, -1, 0, 1), "BlowUp", 1),
    "stab_c4_j1": ((0, -2, 0, 2), "Stabilization", 1),
    "stab_c4_j0": ((0, 0, 0, 0), "Stabilization", 0),
    "blowup_c3_plus": ((1, 1, 1), "BlowUp", 0),
    "blowup_c3_minus": ((-1, -1, -1), "BlowUp", 0),
}


@pytest.mark.parametrize("ks, kind, j", SEAM_CASES.values(), ids=SEAM_CASES)
def test_classify_at_the_seam_matches_both_oracles(ks, kind, j):
    circ = from_coefficients(ks)
    det = classify(circ).reduction_trace[0][1]
    assert (det.kind, det.position - 1) == (kind, j)
    for r in range(len(ks)):  # every rotation moves the seam through the pattern
        x = rotate_to_front(circ, r)
        assert classify(x) == classify_by_rescan(x) == classify_by_contract(x), r


def test_classify_on_generator_circuits_matches_both_oracles():
    # whole Classifications: _Rec equality also compares the record types
    for steps in range(61):
        circ, _ = generate(1000 + steps, steps)
        assert classify(circ) == classify_by_rescan(circ) == classify_by_contract(circ), steps
    circ, _ = generate(5, 3000)  # c = 4500: the contract loop needs over 50 s
    assert classify(circ) == classify_by_rescan(circ)


WORK_CASES = {"k2_chain_3001": lambda: k2_chain(3001),
              "generate_1_3000": lambda: generate(1, 3000)[0],
              "generate_2_9000": lambda: generate(2, 9000)[0]}


@pytest.mark.parametrize("make", WORK_CASES.values(), ids=WORK_CASES)
def test_classify_reads_and_moves_at_most_4c_entries(monkeypatch, make):
    # every search and gap move of classify is one _seek call: count the
    # entries it reads (lo up to the hit, or to the end) and the entries it moves
    seek, work = genus1._seek, []

    def counted(left, right, lo, hit):
        g, c = len(left), len(left) + len(right)
        p = seek(left, right, lo, hit)
        work.append(max(0, min(p + 1, c) - lo) + abs(len(left) - g))
        return p

    monkeypatch.setattr(genus1, "_seek", counted)
    circ = make()
    classify(circ)
    assert work and sum(work) <= 4 * len(circ)


def test_classify_without_a_contraction_is_one_bounded_line(monkeypatch):
    # an all-2 chain marked closed without closing: every window reads 2 but
    # the two across the seam, which read (c - 1)(c - 2), so nothing contracts
    cs = [(1, 0), (0, 1)]
    while len(cs) < 3000:
        cs.append(tuple(2 * y - x for x, y in zip(cs[-2], cs[-1])))
    monkeypatch.setattr(genus1, "validate", lambda d: SimpleNamespace(ok=True, failures=()))
    with pytest.raises(RuntimeError) as exc:
        classify(Circuit(tuple(cs), True))
    msg = str(exc.value)
    assert "\n" not in msg and len(msg) <= 200, msg
    assert "length 3000" in msg and "2 2 2" in msg


def test_classify_long_circuit():
    # c = 4504: the contract loop needs over 50 s here, one pass well under 1 s
    circ, form = generate(1, 3000)
    assert len(circ) == 4504
    assert classify(circ).canonical_forms == frozenset(expected_forms(form))


def test_sum_form_validation_and_add():
    with pytest.raises(ValueError):
        SumForm(-1, 0, 0, "Spin0")
    with pytest.raises(ValueError):
        SumForm(0, 0, 0, "Maybe")
    a = SumForm(1, 2, 0, "Unclosed")
    b = SumForm(0, 1, 1, "Spin0")
    s = a + b
    assert (s.l, s.m, s.n) == (1, 3, 1)
    assert s.closure == "Spin0"


def test_closed_genus1_circuits_always_classify():
    rng = random.Random(47)
    for _ in range(60):
        c = rand_closed(rng, 1, rng.randint(2, 9), lim=6)
        cl = classify(c)
        assert cl.canonical_forms
        for f in cl.canonical_forms:
            assert f.s2xs2 >= 0 and f.cp2 >= 0 and f.cp2bar >= 0
