"""Proof search for quantified problems over pluggable constraint backends.

The kernel explores a one-sided sequent calculus whose leaves close
through a theory-specific consistency test.  Instead of guessing
instantiations, quantifier rules introduce meta-variables and the
backends answer with constraints on them: producing mode gathers and
meets constraints bottom-up, refining mode threads one constraint
through the whole derivation.  A proof is accepted when the final
constraint admits the empty instantiation; it can then be audited and
replayed as a fully ground proof.

Backends: `fol` (syntactic unification), `enum` (bounded ground
enumeration), `lra` (linear rational arithmetic via variable
elimination).
"""

from .fol import SubstConstraint, SubstTheory, mgu, subst_meet
from .frontend import (
    ParseError,
    Problem,
    RunReport,
    make_theory,
    parse_problem,
    print_problem,
    render_formula,
    render_term,
    run,
    tree_to_json,
)
from .ground import GroundConstraint, GroundEnumTheory
from .kernel import (
    IllFormed,
    ProofTree,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    check_proof,
    fold,
    prove,
    reconstruct_ground,
)
from .lra import LinAtom, LraTheory, PolyConstraint, fm_eliminate, lra_sat, make_poly
from .terms import (
    And,
    ArithAtom,
    BoundVar,
    Domain,
    DomainError,
    EigenVar,
    Exists,
    Forall,
    FunApp,
    Instantiation,
    LinTerm,
    Literal,
    MetaVar,
    Or,
    PredAtom,
    RatConst,
    Signature,
    SortError,
    enumerate_ground_terms,
    literals_of,
    substitute,
)
from .theory import (
    ConstraintStream,
    PreconditionError,
    ResourceLimit,
    Theory,
    TheoryError,
    WitnessUnsupported,
)

__version__ = "0.1.0"

# The conformance harness checks backends against the axioms; proving does
# not use it, so it loads on first access to one of these names (PEP 562).
_HARNESS_NAMES = ("ConformanceResult", "mutants", "run_conformance")


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "And", "ArithAtom", "BoundVar", "ConformanceResult",
    "ConstraintStream", "Domain", "DomainError", "EigenVar", "Exists",
    "Forall", "FunApp", "GroundConstraint", "GroundEnumTheory", "IllFormed",
    "Instantiation", "LinAtom", "LinTerm", "Literal", "LraTheory",
    "MetaVar", "Or", "ParseError", "PolyConstraint", "PreconditionError",
    "PredAtom", "Problem", "ProofTree", "RatConst", "ResourceLimit",
    "RunReport", "SearchConfig", "SearchOutcome", "SearchStats",
    "Signature", "SortError", "SubstConstraint", "SubstTheory", "Theory",
    "TheoryError", "WitnessUnsupported", "check_proof",
    "enumerate_ground_terms", "fm_eliminate", "fold", "literals_of",
    "lra_sat", "make_poly", "make_theory", "mgu", "mutants", "parse_problem",
    "print_problem", "prove", "reconstruct_ground",
    "render_formula", "render_term", "run", "run_conformance", "subst_meet",
    "substitute", "tree_to_json",
]
