"""Core syntax: terms, literals, formulas, domains, instantiations."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    Lit,
    Literal,
    MetaVar,
    PredAtom,
    RatConst,
    Signature,
    SortError,
    SORT_RAT,
    SORT_TERM,
    enumerate_ground_terms,
    lin_combine,
    lin_of,
    literals_of,
    neg,
    pos,
    subst_term,
    substitute,
    term_depth,
    term_eigens,
    term_sort,
    term_vars,
)

E = lambda n: EigenVar(n, SORT_TERM)
M = lambda n: MetaVar(n, SORT_TERM)


def atom(name, *args):
    return Lit(pos(PredAtom(name, tuple(args))))


# ---------------------------------------------------------------------------
# terms


def test_term_sorts():
    assert term_sort(E("x")) == SORT_TERM
    assert term_sort(MetaVar("X", SORT_RAT)) == SORT_RAT
    assert term_sort(RatConst(Fraction(3, 2))) == SORT_RAT
    assert term_sort(FunApp("f", (E("x"),))) == SORT_TERM


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


def test_term_depth():
    a = FunApp("a", ())
    assert term_depth(a) == 0
    assert term_depth(FunApp("f", (a,))) == 1
    assert term_depth(FunApp("g", (FunApp("f", (a,)), a))) == 2


def test_term_vars_split():
    t = FunApp("f", (E("x"), M("Y")))
    assert term_vars(t) == frozenset({E("x"), M("Y")})
    assert term_eigens(t) == frozenset({E("x")})


# ---------------------------------------------------------------------------
# literals and formulas


def test_neg_is_involutive():
    l = pos(PredAtom("p", (E("x"),)))
    assert neg(neg(l)) == l
    assert neg(l).positive is False


def test_literals_of_deduplicates_in_order():
    p = atom("p")
    q = atom("q")
    ctx = (p, q, p, And(p, q), q)
    assert literals_of(ctx) == (p.lit, q.lit)


def test_substitute_hits_only_the_named_binder():
    # forall x. p(x) /\ exists x. q(x): the inner x is a different binder
    body = And(Lit(pos(PredAtom("p", (BoundVar("x", SORT_TERM),)))),
               Exists("x", SORT_TERM,
                      Lit(pos(PredAtom("q", (BoundVar("x", SORT_TERM),))))))
    out = substitute(body, "x", E("e"))
    assert out.left == Lit(pos(PredAtom("p", (E("e"),))))
    assert out.right == body.right


def test_substitute_reaches_under_other_binders():
    body = Forall("y", SORT_TERM,
                  Lit(pos(PredAtom("q", (BoundVar("x", SORT_TERM),
                                         BoundVar("y", SORT_TERM))))))
    out = substitute(body, "x", E("e"))
    assert out == Forall("y", SORT_TERM,
                         Lit(pos(PredAtom("q", (E("e"),
                                                BoundVar("y", SORT_TERM))))))


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
    assert d.metas_key() == d.add_eigen(E("b")).metas_key()
    assert d.metas_key() != Domain().add_meta(M("X")).metas_key()


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
    assert d.add_eigen(E("tail")).metas_key() == d.metas_key()
    assert d.add_meta(M("Tail")).metas_key() != d.metas_key()


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
        "metas_key": d.metas_key(),
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


# ---------------------------------------------------------------------------
# signatures


def test_signature_lookup():
    assert SIG.pred_sorts("p") == (SORT_TERM,)
    assert SIG.pred_sorts("missing") is None
    assert SIG.fun_arity("f") == 1
    assert SIG.fun_arity("p") is None
