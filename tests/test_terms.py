"""Core syntax: terms, literals, formulas, domains, instantiations."""

import copy
import dataclasses
import gc
import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqmod import fol, frontend, ground, kernel, lra, terms
from seqmod.fol import SubstConstraint, mgu
from seqmod.frontend import Problem
from seqmod.ground import GroundConstraint
from seqmod.kernel import ProofTree, SearchConfig, SearchOutcome
from seqmod.lra import LinAtom, PolyConstraint, atom_from_terms, make_poly
from seqmod.terms import (
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
    SORT_RAT,
    SORT_TERM,
    enumerate_ground_terms,
    ground_candidates,
    hash_once,
    lin_combine,
    lin_of,
    literals_of,
    subst_term,
    substitute,
    term_eigens,
    term_metas,
    term_vars,
)

E = lambda n: EigenVar(n, SORT_TERM)
M = lambda n: MetaVar(n, SORT_TERM)


def atom(name, *args):
    return Literal(True, PredAtom(name, tuple(args)))


# ---------------------------------------------------------------------------
# terms


def test_term_sorts():
    assert E("x").sort == SORT_TERM
    assert MetaVar("X", SORT_RAT).sort == SORT_RAT
    assert RatConst(Fraction(3, 2)).sort == SORT_RAT
    assert FunApp("f", (E("x"),)).sort == SORT_TERM


def test_funapp_rejects_rational_argument():
    with pytest.raises(SortError):
        FunApp("f", (RatConst(Fraction(1)),))


def test_lin_combine_folds_constants():
    t = lin_combine((Fraction(2), RatConst(Fraction(3))),
                    (Fraction(1), RatConst(Fraction(-6))))
    assert t == RatConst(Fraction(0))


def test_lin_combine_collects_coefficients():
    x = MetaVar("X", SORT_RAT)
    t = lin_combine((Fraction(2), x), (Fraction(3), x))
    coeffs, const = lin_of(t)
    assert coeffs == {x: Fraction(5)}
    assert const == 0


def test_lin_term_drops_zero_coefficients():
    x = MetaVar("X", SORT_RAT)
    t = lin_combine((Fraction(1), x), (Fraction(-1), x))
    assert t == RatConst(Fraction(0))
    assert not isinstance(t, LinTerm)


def test_subst_term_replaces_metas():
    f = FunApp("f", (M("X"),))
    assert subst_term(f, {M("X"): E("a")}) == FunApp("f", (E("a"),))


def test_term_vars_split():
    t = FunApp("f", (E("x"), M("Y")))
    assert term_vars(t) == frozenset({E("x"), M("Y")})
    assert term_eigens(t) == frozenset({E("x")})


# ---------------------------------------------------------------------------
# literals and formulas


def test_neg_is_involutive():
    # A literal's complement is the same atom with the other sign.
    l = Literal(True, PredAtom("p", (E("x"),)))
    flipped = Literal(False, l.atom)
    assert Literal(not flipped.positive, flipped.atom) == l
    assert flipped != l and str(flipped) == "~" + str(l)


def test_literals_of_deduplicates_in_order():
    p = atom("p")
    q = atom("q")
    ctx = (p, q, p, And(p, q), q)
    assert literals_of(ctx) == (p, q)


def test_substitute_hits_only_the_named_binder():
    # forall x. p(x) /\ exists x. q(x): the inner x is a different binder
    body = And(Literal(True, PredAtom("p", (BoundVar("x", SORT_TERM),))),
               Exists("x", SORT_TERM,
                      Literal(True, PredAtom("q", (BoundVar("x", SORT_TERM),)))))
    out = substitute(body, "x", E("e"))
    assert out.left == Literal(True, PredAtom("p", (E("e"),)))
    assert out.right == body.right


def test_substitute_reaches_under_other_binders():
    body = Forall("y", SORT_TERM,
                  Literal(True, PredAtom("q", (BoundVar("x", SORT_TERM),
                                     BoundVar("y", SORT_TERM)))))
    out = substitute(body, "x", E("e"))
    assert out == Forall("y", SORT_TERM,
                         Literal(True, PredAtom("q", (E("e"), BoundVar("y", SORT_TERM)))))


# ---------------------------------------------------------------------------
# domains


def test_domain_orders_declarations():
    d = Domain().add_eigen(E("a")).add_meta(M("X")).add_eigen(E("b")).add_meta(M("Y"))
    assert d.eigens == (E("a"), E("b"))
    assert d.metas == (M("X"), M("Y"))
    assert d.authorised(M("X")) == frozenset({E("a")})
    assert d.authorised(M("Y")) == frozenset({E("a"), E("b")})


def test_domain_rejects_duplicate_names():
    d = Domain().add_meta(M("X"))
    with pytest.raises(DomainError):
        d.add_meta(M("X"))
    with pytest.raises(DomainError):
        d.add_eigen(EigenVar("X", SORT_TERM))


def test_last_meta_skips_trailing_eigens():
    d = Domain().add_meta(M("X")).add_eigen(E("a")).add_meta(M("Y")).add_eigen(E("b"))
    assert d.last_meta() == M("Y")
    d2 = d.drop_meta(M("Y"))
    assert d2.metas == (M("X"),)
    assert d2.eigens == (E("a"), E("b"))


def test_last_meta_of_meta_free_domain_is_none():
    assert Domain.initial((E("a"),)).last_meta() is None


def test_metas_key_ignores_trailing_eigens():
    d = Domain().add_eigen(E("a")).add_meta(M("X"))
    assert d.metas_key == d.add_eigen(E("b")).metas_key
    assert d.metas_key != Domain().add_meta(M("X")).metas_key


@given(st.lists(st.sampled_from("em"), max_size=8))
def test_metas_key_tracks_authorised_sets(kinds):
    d = Domain()
    n = 0
    for k in kinds:
        n += 1
        if k == "e":
            d = d.add_eigen(E("e%d" % n))
        else:
            d = d.add_meta(M("M%d" % n))
    # appending eigens never changes the key; appending a meta always does
    assert d.add_eigen(E("tail")).metas_key == d.metas_key
    assert d.add_meta(M("Tail")).metas_key != d.metas_key


def _scan_lookups(decls, probes):
    """The Domain lookups computed by a plain scan of decls."""

    def authorised(meta):
        out = []
        for v in decls:
            if v == meta:
                return frozenset(out)
            if isinstance(v, EigenVar):
                out.append(v)
        return DomainError

    metas = tuple(v for v in decls if isinstance(v, MetaVar))
    order = {v.name: i for i, v in enumerate(decls)}
    return {
        "metas": metas,
        "eigens": tuple(v for v in decls if isinstance(v, EigenVar)),
        "metas_key": tuple((m.name, authorised(m)) for m in metas),
        "authorised": [authorised(p) for p in probes if isinstance(p, MetaVar)],
        "position": [decls.index(p) if p in decls else None for p in probes],
        "order": tuple(sorted(((p, p) for p in probes),
                              key=lambda mt: order.get(mt[0].name, len(order)))),
    }


def _cached_lookups(d, probes):
    def authorised(meta):
        try:
            return d.authorised(meta)
        except DomainError:
            return DomainError

    return {
        "metas": d.metas,
        "eigens": d.eigens,
        "metas_key": d.metas_key,
        "authorised": [authorised(p) for p in probes if isinstance(p, MetaVar)],
        "position": [d.position(p) for p in probes],
        "order": d.in_declaration_order((p, p) for p in probes),
    }


_KINDS = st.sampled_from((EigenVar, MetaVar))
_SORTS = st.sampled_from((SORT_TERM, SORT_RAT))


@given(st.lists(st.tuples(_KINDS, _SORTS), max_size=7),
       st.lists(st.tuples(st.sampled_from((EigenVar, MetaVar, "drop")), _SORTS), max_size=5),
       st.data())
def test_cached_domain_lookups_equal_a_scan_of_decls(initial, steps, data):
    def check(d):
        # Probes: every declaration, the same names under the other kind
        # and sort, and a name never declared.
        probes = list(d.decls) + [MetaVar("unused", SORT_TERM)]
        probes += [MetaVar(v.name, SORT_RAT if v.sort == SORT_TERM else SORT_TERM)
                   for v in d.decls]
        probes += [MetaVar(v.name, v.sort) for v in d.eigens]
        probes = data.draw(st.permutations(probes))
        expected = _scan_lookups(d.decls, probes)
        assert _cached_lookups(d, probes) == expected
        assert _cached_lookups(d, probes) == expected  # served from the cache

    def declare(d, kind, sort):
        v = kind("v%d" % len(names), sort)
        names.append(v.name)
        return d.add_eigen(v) if kind is EigenVar else d.add_meta(v)

    names = []
    d = Domain()
    for kind, sort in initial:
        d = declare(d, kind, sort)
    check(d)
    # Each derived domain starts from one whose lookups are cached.
    for op, sort in steps:
        if op == "drop":
            if not d.metas:
                continue
            d = d.drop_meta(data.draw(st.sampled_from(d.metas)))
        else:
            d = declare(d, op, sort)
        check(d)


# ---------------------------------------------------------------------------
# instantiations


def test_instantiation_must_cover_all_metas_in_order():
    d = Domain().add_meta(M("X")).add_meta(M("Y"))
    a = FunApp("a", ())
    with pytest.raises(DomainError):
        Instantiation(d, ((M("X"), a),))
    with pytest.raises(DomainError):
        Instantiation(d, ((M("Y"), a), (M("X"), a)))
    rho = Instantiation(d, ((M("X"), a), (M("Y"), FunApp("f", (a,)))))
    assert rho.get(M("Y")) == FunApp("f", (a,))


def test_instantiation_rejects_unauthorised_eigen():
    d = Domain().add_meta(M("X")).add_eigen(E("late"))
    with pytest.raises(DomainError):
        Instantiation(d, ((M("X"), E("late")),))


def test_instantiation_accepts_authorised_eigen():
    d = Domain().add_eigen(E("early")).add_meta(M("X"))
    rho = Instantiation(d, ((M("X"), E("early")),))
    assert rho.get(M("X")) == E("early")


def test_instantiation_rejects_non_ground_image():
    d = Domain().add_meta(M("X")).add_meta(M("Y"))
    a = FunApp("a", ())
    with pytest.raises(DomainError):
        Instantiation(d, ((M("X"), M("Y")), (M("Y"), a)))


def test_instantiation_checks_sorts():
    d = Domain().add_meta(MetaVar("X", SORT_RAT))
    with pytest.raises(SortError):
        Instantiation(d, ((MetaVar("X", SORT_RAT), FunApp("a", ())),))


# ---------------------------------------------------------------------------
# ground term enumeration


SIG = Signature(preds=(("p", (SORT_TERM,)),), funs=(("f", 1),), consts=("a",))


def term_depth(t):
    """Function-application nesting depth; variables and constants are 0."""
    return 1 + max(map(term_depth, t.args)) if isinstance(t, FunApp) and t.args else 0


def test_enumeration_starts_with_eigens_then_constants():
    d = Domain().add_eigen(E("e")).add_meta(M("X"))
    terms = enumerate_ground_terms(SIG, d, M("X"), 1)
    assert terms[0] == E("e")
    assert terms[1] == FunApp("a", ())
    assert FunApp("f", (E("e"),)) in terms
    assert FunApp("f", (FunApp("a", ()),)) in terms


def test_enumeration_excludes_unauthorised_eigens():
    d = Domain().add_meta(M("X")).add_eigen(E("late"))
    terms = enumerate_ground_terms(SIG, d, M("X"), 2)
    assert all(E("late") not in term_vars(t) for t in terms)


def test_enumeration_depth_prefix_property():
    d = Domain().add_eigen(E("e")).add_meta(M("X"))
    shallow = enumerate_ground_terms(SIG, d, M("X"), 1)
    deep = enumerate_ground_terms(SIG, d, M("X"), 3)
    assert deep[: len(shallow)] == shallow
    assert max(term_depth(t) for t in deep) == 3


def test_enumeration_rational_uses_samples():
    d = Domain().add_meta(MetaVar("X", SORT_RAT))
    terms = enumerate_ground_terms(SIG, d, MetaVar("X", SORT_RAT), 2)
    assert terms[0] == RatConst(Fraction(0))
    assert all(isinstance(t, RatConst) for t in terms)


@given(st.integers(0, 3))
def test_enumeration_terms_are_ground_and_within_depth(depth):
    d = Domain().add_eigen(E("e")).add_meta(M("X"))
    for t in enumerate_ground_terms(SIG, d, M("X"), depth):
        assert term_depth(t) <= depth
        assert not any(isinstance(v, MetaVar) for v in term_vars(t))


def _product_enumeration(sig, domain, meta, depth):
    """The enumeration as first written: each level takes the product over
    every shallower term and keeps the applications of that depth."""
    ordered = [e for e in domain.eigens if e in domain.authorised(meta)]
    if meta.sort == SORT_RAT:
        return [RatConst(q) for q in terms.DEFAULT_RATIONAL_SAMPLES] + [
            e for e in ordered if e.sort == SORT_RAT]
    levels = [[e for e in ordered if e.sort == SORT_TERM] + [FunApp(c, ()) for c in sig.consts]]
    for _ in range(depth):
        prev = [t for level in levels for t in level]
        levels.append([FunApp(name, args) for name, arity in sig.funs if arity
                       for args in itertools.product(prev, repeat=arity)
                       if term_depth(FunApp(name, args)) == len(levels)])
    return [t for level in levels for t in level]


@st.composite
def _enumeration_cases(draw):
    arities = draw(st.lists(st.integers(0, 3), max_size=2))
    sig = Signature(funs=tuple(("f%d" % i, n) for i, n in enumerate(arities)),
                    consts=tuple("c%d" % i for i in range(draw(st.integers(0, 2)))))
    eigens = [EigenVar("e%d" % i, draw(st.sampled_from((SORT_TERM, SORT_RAT))))
              for i in range(draw(st.integers(0, 2)))]
    meta = MetaVar("X", draw(st.sampled_from((SORT_TERM, SORT_RAT))))
    seen = draw(st.integers(0, len(eigens)))  # how many eigenvariables precede the meta
    d = Domain()
    for e in eigens[:seen]:
        d = d.add_eigen(e)
    d = d.add_meta(meta)
    for e in eigens[seen:]:
        d = d.add_eigen(e)
    return sig, d, meta, draw(st.integers(0, 3))


@settings(max_examples=80, deadline=None)
@given(_enumeration_cases())
def test_enumeration_matches_the_product_reference(case):
    sig, d, meta, depth = case
    made = list(itertools.islice(ground_candidates(sig, d, meta, depth), 3001))
    assume(len(made) <= 3000)  # the reference is slow; test_ground tests the cap
    expected = _product_enumeration(sig, d, meta, depth)
    assert enumerate_ground_terms(sig, d, meta, depth) == tuple(expected)
    assert made == [(t, term_depth(t)) for t in expected]


# ---------------------------------------------------------------------------
# signatures


def test_signature_lookup():
    preds, funs = dict(SIG.preds), dict(SIG.funs)
    assert preds["p"] == (SORT_TERM,)
    assert "missing" not in preds
    assert funs["f"] == 1
    assert "p" not in funs


# ---------------------------------------------------------------------------
# cached hashes

# Every value that is hashed on a search or audit path is interned or a
# `hash_once` class.  Neither kind is frozen: a frozen dataclass's
# `__init__` costs about twice as much.
INTERNED = (BoundVar, EigenVar, MetaVar, FunApp)
HASHED = (RatConst, LinTerm, PredAtom, ArithAtom, Literal, And, Or, Forall,
          Exists, Domain, LinAtom, PolyConstraint, SubstConstraint,
          GroundConstraint)
# Built once per run, so they keep the runtime guard of `frozen=True`.
COLD = (SearchConfig, SearchOutcome, Problem, Signature, Instantiation)


@hash_once
@dataclasses.dataclass
class _Decorated:
    x: int


def test_every_hashed_value_caches_its_hash_and_is_not_frozen():
    classes = {
        cls
        for mod in (terms, lra, fol, ground, kernel, frontend)
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == mod.__name__
        and dataclasses.is_dataclass(cls)
    }
    hashed = {cls for cls in classes
              if getattr(cls.__hash__, "__code__", None) is _Decorated.__hash__.__code__}
    assert hashed == set(HASHED)
    # The caches are instance attributes, and the intern table holds weak
    # references, so no hashed or interned class has slots.
    for cls in HASHED + INTERNED:
        assert not cls.__dataclass_params__.frozen, cls
        assert "__slots__" not in vars(cls), cls
    assert {cls for cls in classes if cls.__dataclass_params__.frozen} == set(COLD)
    assert set(INTERNED) <= classes


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
def test_interned_classes_compare_and_hash_by_identity(cls):
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__


def test_sequents_and_proof_nodes_have_slots():
    node = ProofTree("leaf", (), Domain(), None, None)
    assert "__slots__" in vars(ProofTree) and not hasattr(node, "__dict__")
    assert not ProofTree.__dataclass_params__.frozen


_NAMES = st.sampled_from("xyz")
_Q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_VAR_CLASSES = st.sampled_from((BoundVar, EigenVar, MetaVar))
_tvars = st.builds(lambda k, n: k(n, SORT_TERM), _VAR_CLASSES, _NAMES)
_rvars = st.builds(lambda k, n: k(n.upper(), SORT_RAT), _VAR_CLASSES, _NAMES)
_tterms = st.recursive(
    _tvars | st.builds(FunApp, st.sampled_from("ab")),
    lambda sub: st.builds(FunApp, st.sampled_from("fg"),
                          st.lists(sub, min_size=1, max_size=2).map(tuple)),
    max_leaves=5)
_rterms = st.builds(
    lambda k, ws: lin_combine((Fraction(1), RatConst(k)), *ws),
    _Q, st.lists(st.tuples(_Q, _rvars), max_size=3))
_lin_terms = st.builds(
    lambda k, c1, c2, v1, v2: lin_combine((Fraction(1), RatConst(k)), (c1, v1), (c2, v2)),
    _Q, _Q.filter(bool), _Q.filter(bool), _rvars, _rvars).filter(
        lambda t: isinstance(t, LinTerm))
_preds = st.builds(PredAtom, st.sampled_from("pq"),
                   st.lists(_tterms | _rterms, max_size=2).map(tuple))
_ariths = st.builds(ArithAtom, st.sampled_from(("<=", "<", "=")), _rterms, _rterms)
_atoms = _preds | _ariths
_literals = st.builds(Literal, st.booleans(), _atoms)
_formulas = st.recursive(
    _literals,
    lambda sub: (st.builds(And, sub, sub) | st.builds(Or, sub, sub)
                 | st.builds(Forall, _NAMES, st.sampled_from((SORT_TERM, SORT_RAT)), sub)
                 | st.builds(Exists, _NAMES, st.sampled_from((SORT_TERM, SORT_RAT)), sub)),
    max_leaves=3)


@st.composite
def _domains(draw):
    d = Domain()
    for i, (kind, sort) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from((EigenVar, MetaVar)),
                      st.sampled_from((SORT_TERM, SORT_RAT))), max_size=5))):
        v = kind("v%d" % i, sort)
        d = d.add_eigen(v) if kind is EigenVar else d.add_meta(v)
    return d


# Constraints over one fixed domain, built the way the backends build them.
_D = Domain((EigenVar("e0"), MetaVar("X0"), EigenVar("e1"), MetaVar("X1"),
             MetaVar("X2"), EigenVar("q", SORT_RAT), MetaVar("R", SORT_RAT)))
_d_terms = st.recursive(
    st.sampled_from(_D.decls[:5]) | st.builds(FunApp, st.sampled_from("ab")),
    lambda sub: st.builds(FunApp, st.sampled_from("fg"),
                          st.lists(sub, min_size=1, max_size=2).map(tuple)),
    max_leaves=4)
_d_rterms = st.builds(
    lambda k, ws: lin_combine((Fraction(1), RatConst(k)), *ws),
    _Q, st.lists(st.tuples(_Q, st.sampled_from(_D.decls[5:])), max_size=2))
_lin_atoms = st.builds(atom_from_terms, st.sampled_from(("<=", "<", "=")),
                       _d_rterms, _d_rterms)
_sig = Signature(funs=(("f", 1), ("g", 2)), consts=("a", "b"))


@st.composite
def _ground_constraints(draw):
    metas = draw(st.lists(st.sampled_from(_D.metas), unique=True))
    entries = [(m, draw(st.sampled_from(enumerate_ground_terms(_sig, _D, m, 1))))
               for m in metas]
    return GroundConstraint(_D, _D.in_declaration_order(entries))


_INTERNED_VALUES = {
    BoundVar: st.builds(BoundVar, _NAMES, st.sampled_from((SORT_TERM, SORT_RAT))),
    EigenVar: st.builds(EigenVar, _NAMES, st.sampled_from((SORT_TERM, SORT_RAT))),
    MetaVar: st.builds(MetaVar, _NAMES, st.sampled_from((SORT_TERM, SORT_RAT))),
    FunApp: st.builds(FunApp, st.sampled_from("fg"),
                      st.lists(_tterms, max_size=2).map(tuple)),
}
_VALUES = {
    RatConst: st.builds(RatConst, _Q),
    LinTerm: _lin_terms,
    PredAtom: _preds,
    ArithAtom: _ariths,
    Literal: _literals,
    And: st.builds(And, _formulas, _formulas),
    Or: st.builds(Or, _formulas, _formulas),
    Forall: st.builds(Forall, _NAMES, st.sampled_from((SORT_TERM, SORT_RAT)), _formulas),
    Exists: st.builds(Exists, _NAMES, st.sampled_from((SORT_TERM, SORT_RAT)), _formulas),
    Domain: _domains(),
    LinAtom: _lin_atoms,
    PolyConstraint: st.builds(
        make_poly, st.just(_D),
        st.lists(st.lists(_lin_atoms, max_size=3), max_size=3)),
    SubstConstraint: st.builds(
        mgu, st.lists(st.tuples(_d_terms, _d_terms), max_size=3), st.just(_D)),
    GroundConstraint: _ground_constraints(),
}


def _rebuild(v):
    """An equal copy of v that shares no `hash_once` object with it.

    Its variables and applications are v's own: they are interned.
    """
    if dataclasses.is_dataclass(v):
        return type(v)(**{f.name: _rebuild(getattr(v, f.name))
                          for f in dataclasses.fields(v)})
    if isinstance(v, (tuple, frozenset)):
        return type(v)(_rebuild(x) for x in v)
    if isinstance(v, Fraction):
        return Fraction(v.numerator, v.denominator)
    return v


def _field_names(x):
    return [f.name for f in dataclasses.fields(x)]


@pytest.mark.parametrize("cls", HASHED, ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cached_hash_is_the_hash_of_the_fields(cls, data):
    x = data.draw(_VALUES[cls])
    assert type(x) is cls
    fields_hash = hash(tuple(getattr(x, name) for name in _field_names(x)))
    assert hash(x) == fields_hash
    assert hash(x) == fields_hash  # served from the cache

    # An equal value built separately hashes equal, before and after
    # either side has cached its hash.
    y = _rebuild(x)
    assert y == x and y is not x
    assert "_hash" not in vars(y)
    text = repr(y)
    assert hash(y) == hash(x)
    assert vars(y)["_hash"] == fields_hash

    # The cache takes no part in equality, repr, fields or replace.
    z = _rebuild(x)
    assert y == z and z == y and x == z
    assert repr(y) == text == repr(z)
    assert _field_names(y) == _field_names(z) == _field_names(cls)
    assert "_hash" not in _field_names(cls)
    r = dataclasses.replace(y)
    assert r == y and "_hash" not in vars(r) and hash(r) == fields_hash


# ---------------------------------------------------------------------------
# interning


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equal_fields_give_the_same_object(cls, data):
    x = data.draw(_INTERNED_VALUES[cls])
    assert type(x) is cls
    values = {name: getattr(x, name) for name in _field_names(x)}
    assert cls(*values.values()) is x
    assert cls(**values) is x
    assert _rebuild(x) is x  # fresh argument tuples too
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert dataclasses.replace(x) is x
    assert hash(x) == hash(cls(**values))


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
def test_the_default_sort_and_arguments_are_interned_too(cls):
    if cls is FunApp:
        assert FunApp("a") is FunApp("a", ()) is FunApp(symbol="a", args=())
        assert FunApp("a") is not FunApp("f", (FunApp("a"),))
    else:
        assert cls("x") is cls("x", SORT_TERM) is cls(name="x", sort=SORT_TERM)
        assert cls("x") is not cls("x", SORT_RAT)
        assert cls("x") is not cls("y")
        assert all(cls("x") is not other("x") for other in INTERNED[:3] if other is not cls)


def test_an_ill_sorted_application_is_refused_every_time():
    for arg in (RatConst(Fraction(1, 2)), EigenVar("q", SORT_RAT)):
        for _ in range(2):
            with pytest.raises(SortError, match="not term-sorted"):
                FunApp("f", (arg,))
        assert (FunApp, "f", (arg,)) not in terms._interned


def test_the_intern_table_drops_dead_terms():
    gc.collect()
    before = len(terms._interned)
    for i in range(10_000):
        FunApp("dropped%d" % i)
    gc.collect()
    # The newest entries are swept every `_YOUNG` insertions, so fewer
    # than that separate the two sizes, not 10,000.
    assert len(terms._interned) < before + terms._YOUNG


def _variables(t):
    """The variable occurrences of t, by a walk that reads no cache."""
    if isinstance(t, FunApp):
        return [v for x in t.args for v in _variables(x)]
    if isinstance(t, LinTerm):
        return [v for v, _ in t.coeffs]
    return [] if isinstance(t, RatConst) else [t]


@settings(max_examples=100, deadline=None)
@given(_tterms | _rterms | _lin_terms, st.booleans())
def test_cached_metas_and_eigens_equal_a_scan_of_the_term(t, args_first):
    if args_first and isinstance(t, FunApp):
        for x in t.args:  # the arguments cache their sets before t does
            term_metas(x), term_eigens(x)
    metas = frozenset(v for v in _variables(t) if isinstance(v, MetaVar))
    eigens = frozenset(v for v in _variables(t) if isinstance(v, EigenVar))
    for _ in range(2):  # computed, then served from the cache
        assert term_metas(t) == metas
        assert term_eigens(t) == eigens
    if isinstance(t, FunApp):
        assert vars(t)["_metas"] == metas and vars(t)["_eigens"] == eigens


# ---------------------------------------------------------------------------
# module lifetime


_REIMPORT = """
import gc, importlib, sys
for _ in range(15):
    for name in [m for m in sys.modules if m == "seqmod" or m.startswith("seqmod.")]:
        del sys.modules[name]
    importlib.import_module("seqmod")
gc.collect()
print(sum(isinstance(o, dict) and o.get("__name__") == "seqmod.terms" for o in gc.get_objects()))
"""


# Each term built by the proof below is a key of the old module's intern
# table; neither may keep that module alive once seqmod is re-imported.
_REIMPORT_WEAKREF = """
import gc, importlib, sys, weakref
frontend = importlib.import_module("seqmod.frontend")
kernel = importlib.import_module("seqmod.kernel")
problem = frontend.parse_problem(open(sys.argv[1]).read(), "fol_drinker")
assert frontend.run(problem, "fol", kernel.SearchConfig(), check=True).outcome == "proved"
old = weakref.ref(sys.modules["seqmod.terms"])
assert old()._interned
del frontend, kernel, problem
for name in [m for m in sys.modules if m == "seqmod" or m.startswith("seqmod.")]:
    del sys.modules[name]
importlib.import_module("seqmod")
gc.collect()
print(old() is None)
"""


def _run_with_src(script, *args):
    src = str(Path(terms.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True).stdout


def test_a_reimport_frees_the_old_terms_module_and_its_intern_table():
    drinker = Path(terms.__file__).resolve().parent / "problems" / "fol_drinker.prob"
    assert _run_with_src(_REIMPORT_WEAKREF, str(drinker)) == "True\n"


def test_a_reimported_package_frees_the_old_terms_module():
    # `typing` caches a `Union[...]` alias with strong references, so a
    # module-level one kept every earlier copy of the module alive (15
    # here).  Run in a subprocess: re-importing in this process would
    # give the tests after it a second set of classes.
    assert _run_with_src(_REIMPORT) == "1\n"
