"""The boundary monodromy of a closed circuit, on homology.

The lift is the product of twists about the curves tau_{g_i}(g_{i+1}),
rightmost factor first, with the closing step using the eps-signed
first curve.  It fixes the first curve up to the sign (-1)^c eps, hence
descends to the rank-(2g-2) quotient of its perp lattice -- the
homology of the surgered surface.  That action is read from the
images of the quotient basis classes under the lift word; the 2g x 2g
lift matrix is only built for `mu_tilde_matrix`.  A non-identity
quotient action obstructs trivial monodromy; the converse direction is
not decided here, so verdicts are worded as necessary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._intlinalg import quotient_basis
from .circuit import Circuit, _unpack
from .homology import canon_sign, ident, pairing, transpose, word_images, word_matrix


@dataclass(frozen=True)
class SurgeredAction:
    base_class: tuple
    quotient_rank: int  # 2g - 2
    matrix: tuple  # action on the quotient basis
    basis: tuple  # classes whose images form the quotient basis


@dataclass(frozen=True)
class Verdict:
    kind: str  # "HomologicallyTrivial" | "ObstructedOnHomology"
    witness: Optional[tuple] = None  # a basis class moved by the action

    @property
    def text(self) -> str:
        # necessary condition only -- never claim actual triviality
        if self.kind == "HomologicallyTrivial":
            return "not obstructed on homology"
        return "obstructed on homology: moves %r" % (self.witness,)


def _require_untwisted_closed(c) -> Circuit:
    circ, mu = _unpack(c)
    if mu is not None:
        raise ValueError("monodromy lift is only defined for untwisted diagrams")
    if not circ.closed:
        raise ValueError("monodromy lift needs a closed circuit")
    return circ


def mu_tilde_word(c):
    """Twist word of the lifted monodromy, rightmost factor first.

    The i-th axis is the class of tau_{g_i}(g_{i+1}), i.e.
    g_{i+1} + <g_i, g_{i+1}> g_i, taken cyclically with the eps-signed
    closing curve and sign-canonicalized (axes are unoriented).
    """
    ext = _require_untwisted_closed(c).extended(1)
    word = []
    for x, nxt in zip(ext, ext[1:]):
        p = pairing(x, nxt)
        word.append((canon_sign(tuple(b + p * a for a, b in zip(x, nxt))), 1))
    return tuple(word)


def mu_tilde_matrix(c):
    """Matrix of the lifted monodromy; fixes g_1 up to (-1)^c eps."""
    circ = _require_untwisted_closed(c)
    return word_matrix(mu_tilde_word(circ), circ.genus)


def surgered_action(c) -> SurgeredAction:
    """The lifted monodromy's action on the surgered surface's homology,
    a^perp / <a> with a = g_1: the lift word applied to the deterministic
    echelon/completion quotient basis, each image read in its coordinates.
    """
    circ = _require_untwisted_closed(c)
    return _action_of(circ.curves[0], mu_tilde_word(circ))


def _action_of(a, word) -> SurgeredAction:
    qb, coords = quotient_basis(a)
    matrix = transpose([coords(y) for y in word_images(word, qb)])
    return SurgeredAction(base_class=a, quotient_rank=len(qb), matrix=matrix, basis=tuple(qb))


def verdict(c) -> Verdict:
    """Necessary-condition check for trivial monodromy.

    HomologicallyTrivial when the induced quotient action is the
    identity (read: "not obstructed on homology"); otherwise the first
    moved basis class is returned as a witness.
    """
    return _verdict_of(surgered_action(c))


def _verdict_of(act) -> Verdict:
    cols = zip(*act.matrix)
    moved = [b for b, col, e in zip(act.basis, cols, ident(act.quotient_rank)) if col != e]
    if not moved:
        return Verdict(kind="HomologicallyTrivial")
    return Verdict(kind="ObstructedOnHomology", witness=moved[0])
