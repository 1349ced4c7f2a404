"""What callers see of the twelve result records.

Eleven are namedtuple records on one base; `Circuit` is a slotted class
whose iteration, len() and indexing run over its curves.  Each is
immutable, equal only to a value of its own type, hashable, keeps its
field defaults and prints the same `Name(field=value, ...)` repr as
the frozen dataclasses they replaced.
"""

from collections import namedtuple
from itertools import product

import pytest

from sdcalc.circuit import Circuit, Diagram, ValidationReport, _Rec, generate, normalize, validate
from sdcalc.genus1 import CanonicalForm, Classification, SumForm, classify, normalize_sum
from sdcalc.handles import (BlfData, FormInvariants, KirbyData, emit_kirby, form_invariants,
                            linking_matrix, to_blf)
from sdcalc.monodromy import SurgeredAction, Verdict, surgered_action, verdict
from sdcalc.subst import Detection

from support import k2_chain

TRI = normalize([(1, 0), (1, -1), (0, 1)], True)
G2 = normalize([(1, 0, 0, 0), (0, 1, 0, 0)], True)

# one instance of each record, and the repr the dataclass version printed
CASES = [
    (TRI, "Circuit(curves=((1, 0), (-1, 1), (0, -1)), closed=True)"),
    (Diagram(TRI),
     "Diagram(circuit=Circuit(curves=((1, 0), (-1, 1), (0, -1)), closed=True), "
     "switch_matrix=None)"),
    (ValidationReport(False, "Exact", ((1, "not primitive"),)),
     "ValidationReport(ok=False, exactness='Exact', failures=((1, 'not primitive'),))"),
    (Detection("BlowUp", 1, exponent=1, summand="CP2bar"),
     "Detection(kind='BlowUp', position=1, exponent=1, k=None, dual=None, "
     "summand='CP2bar', homological_only=False)"),
    (SumForm(1, 2, 0), "SumForm(l=1, m=2, n=0, closure='Unclosed')"),
    (CanonicalForm(0, 2, 1), "CanonicalForm(s2xs2=0, cp2=2, cp2bar=1)"),
    (classify(TRI),
     "Classification(canonical_forms=frozenset({CanonicalForm(s2xs2=0, cp2=1, cp2bar=2)}), "
     "reduction_trace=((1, Detection(kind='BlowUp', position=1, exponent=1, k=None, "
     "dual=None, summand='CP2bar', homological_only=False), SumForm(l=0, m=0, n=1, "
     "closure='Unclosed')),), counts=SumForm(l=0, m=0, n=1, closure='Unclosed'))"),
    (surgered_action(G2),
     "SurgeredAction(base_class=(1, 0, 0, 0), quotient_rank=2, matrix=((1, 0), (0, 1)), "
     "basis=((0, 0, 1, 0), (0, 0, 0, 1)))"),
    (Verdict("ObstructedOnHomology", (0, 1, 0, 0)),
     "Verdict(kind='ObstructedOnHomology', witness=(0, 1, 0, 0))"),
    (form_invariants(linking_matrix(TRI)), "FormInvariants(rank=1, signature=-1, parity='Odd')"),
    (emit_kirby(TRI, 1),
     "KirbyData(genus=1, one_handles=('a1', 'b1'), fiber_framing=0, fold_handles=(((1, 0), "
     "0, 1), ((-1, 1), -1, 2), ((0, -1), 0, 3)), last_handle=1, "
     "linking=LinkingMatrix(entries=((0, 0, 0), (0, -1, 0), (0, 0, 0))))"),
    (to_blf(TRI),
     "BlfData(lefschetz_cycles=(((0, 1), -1), ((-1, 0), -1), ((1, -1), -1)), "
     "round_cycle=((1, 0), 0))"),
]
RECORDS = [r for r, _ in CASES]
IDS = [type(r).__name__ for r in RECORDS]
TUPLES = RECORDS[1:]  # all but Circuit


def fields(r):
    return ("curves", "closed") if isinstance(r, Circuit) else r._fields


def values(r):
    return (r.curves, r.closed) if isinstance(r, Circuit) else tuple(r)


def test_one_case_per_record():
    assert [type(r) for r in RECORDS] == [
        Circuit, Diagram, ValidationReport, Detection, SumForm, CanonicalForm, Classification,
        SurgeredAction, Verdict, FormInvariants, KirbyData, BlfData]


@pytest.mark.parametrize("rec, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(rec, text):
    assert repr(rec) == text


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_added(rec):
    for name in fields(rec):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_equal_records_hash_equally(rec):
    twin = type(rec)(*values(rec))
    assert twin is not rec
    assert twin == rec and not twin != rec
    assert hash(twin) == hash(rec)


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_a_record_equals_no_other_type_with_the_same_values(rec):
    vals = values(rec)
    Other = type("Other", (_Rec, namedtuple("Other", fields(rec))), {"__slots__": ()})
    for other in (vals, list(vals), Other(*vals)):
        assert rec != other and other != rec
        assert not rec == other and not other == rec


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_positional_match_binds_the_fields_in_order(rec):
    cls = type(rec)
    match rec:
        case cls(first, second):
            assert (first, second) == values(rec)[:2]
        case _:
            pytest.fail("no match")


def test_records_of_the_same_arity_differ():
    assert FormInvariants(0, 2, 1) != CanonicalForm(0, 2, 1)
    assert Verdict("x", None) != Diagram("x", None) != BlfData("x", None)
    assert len({FormInvariants(0, 2, 1), CanonicalForm(0, 2, 1), (0, 2, 1)}) == 3


@pytest.mark.parametrize("rec", TUPLES, ids=IDS[1:])
def test_tuple_records_are_tuples_with_asdict(rec):
    assert isinstance(rec, tuple) and tuple(rec) == values(rec)
    assert rec._asdict() == dict(zip(rec._fields, rec))
    assert rec._replace() == rec


def test_defaults():
    assert Diagram(TRI) == Diagram(TRI, None)
    assert ValidationReport(True, "Exact").failures == ()
    assert Detection("BlowUp", 1)[2:] == (None, None, None, None, False)
    assert SumForm() == SumForm(0, 0, 0, "Unclosed")
    assert CanonicalForm(2) == CanonicalForm(2, 0, 0)
    assert Verdict("HomologicallyTrivial").witness is None
    with pytest.raises(TypeError):
        FormInvariants(1, 1)  # no defaults
    with pytest.raises(TypeError):
        Circuit(TRI.curves)


@pytest.mark.parametrize("make, message", [
    (lambda: SumForm(-1), "summand counts must be >= 0"),
    (lambda: SumForm(l=-1), "summand counts must be >= 0"),
    (lambda: SumForm(0, 0, 0, "x"), r"closure must be one of \('Spin0', 'NonSpin1', 'Unclosed'\)"),
    (lambda: SumForm(closure="x"), r"closure must be one of \('Spin0', 'NonSpin1', 'Unclosed'\)"),
    (lambda: SumForm()._replace(m=-1), "summand counts must be >= 0"),
    (lambda: CanonicalForm(1, 1, 0), "canonical form mixes bundle and projective summands"),
    (lambda: CanonicalForm(s2xs2=1, cp2=1), "canonical form mixes bundle and projective summands"),
    (lambda: CanonicalForm(0, 1), "non-spin canonical form needs both CP2 counts >= 1"),
    (lambda: CanonicalForm(cp2bar=1), "non-spin canonical form needs both CP2 counts >= 1"),
    (lambda: CanonicalForm(2)._replace(cp2=1), "canonical form mixes"),
    (lambda: SumForm(closure="Spin0") + SumForm(closure="NonSpin1"), "cannot add two closed sum forms"),
    (lambda: SumForm().with_closure("x"), r"closure must be one of \('Spin0', 'NonSpin1', 'Unclosed'\)"),
])
def test_checked_records_keep_their_messages(make, message):
    with pytest.raises(ValueError, match="^" + message):
        make()


# genus-2 circuits whose verdicts are of both kinds
G2_OBSTRUCTED = normalize([(-1, 1, -2, -2), (-7, 2, -2, 0), (-2, 1, -2, -2), (5, 0, 1, -2)], True)


def built_by_position(c):
    """(record type, record) for each record the library builds past its checks, on c."""
    act = surgered_action(c)
    out = [(ValidationReport, validate(c)), (FormInvariants, form_invariants(linking_matrix(c))),
           (BlfData, to_blf(c)), (SurgeredAction, act), (Verdict, verdict(c))]
    if len(c.curves[0]) == 2:
        cl = classify(c)
        out += [(Classification, cl), (SumForm, cl.counts)]
        out += [(CanonicalForm, f) for f in cl.canonical_forms]
        out += [(Detection, det) for _, det, _ in cl.reduction_trace]
    return out


def test_records_built_by_position_are_what_their_checked_constructors_build():
    circs = [generate(s, s)[0] for s in range(61)] + [k2_chain(c) for c in range(3, 40)]
    assert {verdict(c).kind for c in (G2, G2_OBSTRUCTED)} == {"HomologicallyTrivial", "ObstructedOnHomology"}
    for c in circs + [G2, G2_OBSTRUCTED]:
        for kind, x in built_by_position(c):
            assert type(x) is kind and x == kind(**x._asdict()), (c, x)
    for l, m, n, closure in product(range(3), range(3), range(3), ("Spin0", "NonSpin1")):
        f = normalize_sum(SumForm(l, m, n, closure))
        assert type(f) is CanonicalForm and f == CanonicalForm(**f._asdict())
