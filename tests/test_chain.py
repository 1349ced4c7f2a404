"""normalize's mark on the curves it signed, circuit._Chain.

A marked circuit skips the sign pass wherever it is read (`_orient`, `detect`,
`monodromy._axes`), so every public call that reads curves is run here on a
marked circuit or diagram and on `support.unmarked` of it, which holds the same
curves as a plain tuple: results must be equal, and errors equal in type,
message and `CurveError.curve`.
"""

import copy
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sdcalc import circuit, monodromy, subst
from sdcalc.circuit import Circuit, Diagram, _Chain, generate, normalize, switch, validate
from sdcalc.cli import diagram_dict, emit_json, emit_sd
from sdcalc.genus1 import classify
from sdcalc.homology import matvec, pairing, twist_matrix
from sdcalc.monodromy import _axes, mu_tilde_matrix, mu_tilde_word, surgered_action, verdict
from sdcalc.subst import Detection, apply_blowup, apply_stabilization, contract, detect, hayano_surgery

from support import rand_chain, rand_closed, rand_primitive, result_or_error, unmarked

LIFT = (mu_tilde_word, mu_tilde_matrix, surgered_action, verdict)


def _unit(i, n):
    return tuple(int(j == i) for j in range(n))


def _dual(rng, curves, pos):
    """A class pairing +1 with curve pos when the circuit is oriented there: its successor
    plus a random class orthogonal to the curve (as perfbench's edit sessions draw it)."""
    x, succ = curves[pos - 1], curves[pos % len(curves)]
    w = tuple(rng.randint(-1, 1) for _ in x)
    xw = pairing(x, w)
    return tuple(s + t - xw * s for s, t in zip(succ, w))


def edit_session(rng, edits, twisted):
    """A genus-5 diagram after `edits` random edits from (a1, b1); a twisted one carries the
    twist about a1 as its switch matrix and never edits across the seam."""
    a1, b1 = _unit(0, 10), _unit(1, 10)
    mu = twist_matrix(a1, 1) if twisted else None
    d = Diagram(normalize([a1, b1], True, mu), mu)
    for _ in range(edits):
        cs = d.circuit.curves
        pos = rng.randint(1, len(cs) - 1 if twisted else len(cs))
        op = rng.choice(("blowup", "stab", "hayano", "switch"))
        if op == "blowup":
            d = apply_blowup(d, pos, rng.choice((1, -1)))
        elif op == "stab":
            d = apply_stabilization(d, pos, rng.randint(-3, 3))
        elif op == "hayano" and pos < len(cs):
            d = hayano_surgery(d, pos, _dual(rng, cs, pos), rng.randint(-2, 2))
        else:
            d = switch(d, rng.choice((1, -1, 2, -2, 3)))
    return d


def _eps_minus_one(rng):
    g = rng.randint(1, 5)
    while True:
        circ = rand_closed(rng, g, rng.randint(2, 8))
        if circ.eps == -1:
            return circ


def _twisted(rng):
    # the twist about g_1 keeps <mu g_c, g_1> = <g_c, g_1>, so the diagram closes
    circ = rand_closed(rng, rng.randint(1, 4), rng.randint(2, 8))
    mu = twist_matrix(circ.curves[0], rng.choice((1, -1, 2)))
    return Diagram(normalize(circ.curves, True, mu), mu)


def _foreign_mu(rng):
    # a closed circuit marked by normalize, under a switch matrix it does not close through
    g = rng.randint(1, 4)
    circ = rand_closed(rng, g, rng.randint(2, 8))
    for _ in range(20):
        mu = twist_matrix(rand_primitive(rng, g, 2), rng.choice((1, -1, 2, 3)))
        if abs(pairing(matvec(mu, circ.curves[-1]), circ.curves[0])) != 1:
            break
    return Diagram(circ, mu)


FAMILIES = {
    "generator": lambda rng: generate(rng.randrange(10**6), rng.randint(0, 25))[0],
    "rand_closed": lambda rng: rand_closed(rng, rng.randint(2, 6), rng.randint(2, 9)),
    "edit_session": lambda rng: edit_session(rng, rng.randint(0, 12), False),
    "twisted_session": lambda rng: edit_session(rng, rng.randint(0, 12), True),
    "twisted": _twisted,
    "short": lambda rng: rand_closed(rng, rng.randint(1, 5), rng.choice((2, 3))),
    "eps_minus_one": _eps_minus_one,
    # a marked open chain closed by hand: its closing pairing is anything
    "bad_closing": lambda rng: Circuit(rand_chain(rng, rng.randint(1, 5), rng.randint(2, 8)).curves, True),
    "foreign_mu": _foreign_mu,
}


def calls(d, rng):
    """Every public call that reads the curves of d, its arguments drawn from rng."""
    circ, mu = (d.circuit, d.switch_matrix) if isinstance(d, Diagram) else (d, None)
    cs, c = circ.curves, len(circ.curves)
    pos, k = rng.randint(1, c), rng.randint(-3, 3)
    found = result_or_error(detect, unmarked(d))
    dets = (found if isinstance(found, list) else []) + [
        Detection("BlowUp", pos, rng.choice((1, -1))), Detection("Stabilization", pos, None, k)]
    out = {
        "validate": result_or_error(validate, d),
        "normalize": result_or_error(normalize, cs, circ.closed, mu),
        "detect": result_or_error(detect, d),
        "contract": [result_or_error(contract, d, t) for t in dets],
        "classify": result_or_error(classify, d),
        "switch": [result_or_error(switch, d, j) for j in (0, 1, -1, c + 1, -2 * c - 1)],
        "blowup": result_or_error(apply_blowup, d, pos, rng.choice((1, -1))),
        "stab": result_or_error(apply_stabilization, d, pos, k),
        "hayano": result_or_error(hayano_surgery, d, pos, _dual(rng, cs, pos), k),
    }
    out.update((f.__name__, result_or_error(f, d)) for f in LIFT)
    return out


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1))
def test_every_call_reads_a_marked_circuit_as_its_plain_curves(family, seed):
    d = FAMILIES[family](random.Random(seed))
    circ = d.circuit if isinstance(d, Diagram) else d
    assert type(circ.curves) is _Chain  # normalize marked what it signed
    plain = unmarked(d)
    assert plain == d and type((plain.circuit if isinstance(d, Diagram) else plain).curves) is tuple
    assert calls(d, random.Random(seed)) == calls(plain, random.Random(seed))


def _refuse(vs):
    raise AssertionError("the sign pass ran on %d curves" % len(vs))


def test_a_marked_diagram_skips_the_sign_pass():
    d = edit_session(random.Random(37), 16, False)
    assert type(d.circuit.curves) is _Chain and d.circuit.genus == 5 and d.circuit.length > 8
    reads = (validate, detect, *LIFT)
    want = [f(d) for f in reads]
    with mock.patch.object(circuit, "_signed", _refuse), mock.patch.object(subst, "_signed", _refuse):
        assert [f(d) for f in reads] == want
        for f in (validate, detect):  # the patch bites: plain curves go through the sign pass
            with pytest.raises(AssertionError, match="the sign pass ran"):
                f(unmarked(d))


def test_axes_pair_only_the_closing_pair_of_a_marked_circuit():
    real, seen = monodromy.pairing, []

    def counted(x, y):
        seen.append((x, y))
        return real(x, y)

    rng = random.Random(11)
    chain = rand_chain(rng, 3, 9).curves
    for circ in (rand_closed(rng, 3, 9), Circuit(chain, True)):
        cs = circ.curves
        with mock.patch.object(monodromy, "pairing", counted):
            del seen[:]
            axes = _axes(circ)
            assert seen == [(cs[-1], circ.extended(1)[-1])]
            del seen[:]
            assert _axes(unmarked(circ)) == axes and len(seen) == len(cs)
        # the closing p is eps^2, not 1, when a marked chain is closed by hand
        assert axes[-1][1] == circ.eps ** 2
    assert type(cs) is _Chain
    assert type(cs[1:]) is tuple and type(cs[:]) is tuple and type(cs + cs) is tuple


def test_normalize_keeps_checking_what_the_mark_does_not_say():
    circ = rand_chain(random.Random(3), 2, 5)
    marked = circ.curves
    assert normalize(marked, False).curves is marked  # no copy, no sign pass
    lone = normalize(marked[:1], False).curves
    assert type(lone) is _Chain
    for args in [(lone, True), (marked, True), (marked, True, twist_matrix(marked[0], 1)[:3])]:
        want = result_or_error(normalize, tuple(args[0]), *args[1:])
        assert isinstance(want, tuple) and result_or_error(normalize, *args) == want


ROUND_TRIP = [
    normalize([(1, 0), (1, -1), (0, 1)], True),
    rand_closed(random.Random(7), 3, 6),
    edit_session(random.Random(8), 10, False),
    edit_session(random.Random(9), 10, True),
]


@pytest.mark.parametrize("d", ROUND_TRIP, ids=["tri", "rand_closed", "session", "twisted_session"])
def test_a_marked_circuit_round_trips_as_its_plain_curves(d):
    plain = unmarked(d)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(d, protocol))
        assert back == pickle.loads(pickle.dumps(plain, protocol)) == d
        assert repr(back) == repr(d)
    assert copy.deepcopy(d) == copy.deepcopy(plain) == d
    assert repr(d) == repr(plain)
    diagram = d if isinstance(d, Diagram) else Diagram(d)
    assert emit_json(diagram_dict(diagram)) == emit_json(diagram_dict(unmarked(diagram)))
    assert emit_sd(diagram) == emit_sd(unmarked(diagram))
