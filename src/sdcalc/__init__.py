"""sdcalc: surface-diagram calculus on first homology.

Circuits of dual curves on a closed oriented surface, the handle and
linking data of the 4-manifolds they present, substitution patterns
(blow-ups, stabilizations, Hayano surgeries), the complete genus-1
classifier, and the homological shadow of the boundary monodromy.

Quick start::

    >>> from sdcalc import circuit, genus1
    >>> d = circuit.normalize([(1, 0), (1, -1), (0, 1)], closed=True)
    >>> sorted(f.pretty() for f in genus1.classify(d).canonical_forms)
    ['1*CP2 # 2*CP2bar']

Everything is exact integer arithmetic; genus-1 answers are theorems,
higher-genus answers are necessary conditions and are flagged as such.
"""

import importlib

# Each public name and the submodule that defines it; a submodule names itself.
_HOME = {name: home for home, names in (
    ("circuit", "Circuit Diagram ValidationReport double generate normalize switch validate"),
    ("genus1", "Classification SumForm classify duality_coefficients normalize_sum sigma_sequence"),
    ("handles", "BlfData FormInvariants KirbyData LinkingMatrix emit_kirby euler_characteristics"
                " fiber_framing form_invariants linking linking_matrix to_blf"),
    ("homology", "apply_word delta_twist is_primitive pairing twist_matrix"),
    ("monodromy", "SurgeredAction Verdict mu_tilde_matrix mu_tilde_word surgered_action verdict"),
    ("subst", "Detection apply_blowup apply_stabilization contract detect hayano_surgery"),
) for name in (home, *names.split())}
__all__ = sorted(_HOME)


def __getattr__(name):
    # PEP 562: import the home module on first access, so `import sdcalc` loads none
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + home, __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
