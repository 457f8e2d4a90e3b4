"""Syntactic backend: idempotent substitutions as constraints."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqmod.fol import SubstConstraint, SubstTheory, mgu, subst_meet
from seqmod.terms import (
    Domain,
    EigenVar,
    FunApp,
    Instantiation,
    Literal,
    MetaVar,
    PredAtom,
    RatConst,
    SORT_RAT,
    SORT_TERM,
    mk_lin,
    pos,
    subst_term,
    term_metas,
)
from seqmod.theory import DomainMismatch, WitnessUnsupported

E = lambda n: EigenVar(n, SORT_TERM)
M = lambda n: MetaVar(n, SORT_TERM)
a = FunApp("a", ())
b = FunApp("b", ())
f = lambda t: FunApp("f", (t,))
g = lambda s, t: FunApp("g", (s, t))
rat = lambda q: RatConst(Fraction(q))


def dom(*decls):
    d = Domain()
    for v in decls:
        d = d.add_eigen(v) if isinstance(v, EigenVar) else d.add_meta(v)
    return d


# ---------------------------------------------------------------------------
# unification


def test_mgu_known_solution():
    # p(X, f(a)) against p(f(Y), f(Y)): X -> f(a), Y -> a
    d = dom(M("X"), M("Y"))
    sigma = mgu([(M("X"), f(M("Y"))), (f(a), f(M("Y")))], d)
    assert not sigma.is_bot
    assert sigma.get(M("X")) == f(a)
    assert sigma.get(M("Y")) == a


def test_mgu_occurs_check():
    d = dom(M("X"))
    assert mgu([(M("X"), f(M("X")))], d).is_bot


def test_mgu_symbol_clash():
    d = dom(M("X"))
    assert mgu([(f(M("X")), g(a, a))], d).is_bot
    assert mgu([(a, b)], d).is_bot


def test_mgu_identity_pair_is_top():
    d = dom(M("X"))
    sigma = mgu([(M("X"), M("X"))], d)
    assert sigma.entries == ()


def test_mgu_rejects_unauthorised_eigen():
    # X is declared before e, so X may not mention e
    d = dom(M("X"), E("e"))
    assert mgu([(M("X"), E("e"))], d).is_bot


def test_mgu_accepts_authorised_eigen():
    d = dom(E("e"), M("X"))
    sigma = mgu([(M("X"), E("e"))], d)
    assert sigma.get(M("X")) == E("e")


def test_mgu_dependency_direction():
    # Y sees e but X does not; Y = X must bind Y, the meta with the
    # larger authorised set, toward X
    d = dom(M("X"), E("e"), M("Y"))
    sigma = mgu([(M("X"), M("Y"))], d)
    assert sigma.get(M("Y")) == M("X")
    assert sigma.get(M("X")) == M("X")


def test_mgu_result_is_idempotent():
    d = dom(M("X"), M("Y"), M("Z"))
    sigma = mgu([(M("X"), f(M("Y"))), (M("Y"), f(M("Z")))], d)
    assert not sigma.is_bot
    m = sigma.mapping()
    for _, image in sigma.entries:
        assert subst_term(image, m) == image


@given(st.integers(0, 2), st.integers(0, 2))
def test_mgu_solves_equal_depth_chains(i, j):
    # f^i(X) = f^j(a) has a solution iff i <= j
    d = dom(M("X"))
    lhs = M("X")
    for _ in range(i):
        lhs = f(lhs)
    rhs = a
    for _ in range(j):
        rhs = f(rhs)
    sigma = mgu([(lhs, rhs)], d)
    assert sigma.is_bot == (i > j)
    if i <= j:
        assert subst_term(lhs, sigma.mapping()) == rhs


def test_mgu_solves_a_rational_term_for_its_only_meta_variable():
    c = EigenVar("c", SORT_RAT)
    X, Y = MetaVar("X", SORT_RAT), MetaVar("Y", SORT_RAT)
    d = dom(c, X, Y)
    # 2X + c = 1 gives X -> 1/2 - c/2
    sigma = mgu([(mk_lin({X: Fraction(2), c: Fraction(1)}, Fraction(0)), rat(1))], d)
    assert sigma.get(X) == mk_lin({c: Fraction(-1, 2)}, Fraction(1, 2))
    assert mgu([(mk_lin({X: Fraction(3)}, Fraction(0)), rat(3))], d).get(X) == rat(1)
    # two meta-variables, or a false equation, clash
    assert mgu([(mk_lin({X: Fraction(1), Y: Fraction(1)}, Fraction(0)), rat(1))], d).is_bot
    assert mgu([(rat(1), rat(2))], d).is_bot


def test_compatibility_solves_an_erased_rational_meta_variable():
    Y, Z, X = (MetaVar(n, SORT_RAT) for n in "YZX")
    d = dom(Y, Z, X)
    sigma = mgu([(Y, mk_lin({X: Fraction(2)}, Fraction(1))), (Z, X)], d)
    proj = TH.project(sigma, X)  # Y -> 2X + 1, Z -> X, with X erased
    low = proj.domain
    # rho(Y) = 5 forces X = 2, which rho(Z) must then equal
    assert TH.compatible(Instantiation(low, ((Y, rat(5)), (Z, rat(2)))), proj)
    assert not TH.compatible(Instantiation(low, ((Y, rat(5)), (Z, rat(3)))), proj)


# ---------------------------------------------------------------------------
# lattice operations


def test_meet_merges_independent_bindings():
    d = dom(M("X"), M("Y"))
    sa = mgu([(M("X"), a)], d)
    sb = mgu([(M("Y"), b)], d)
    m = subst_meet(sa, sb)
    assert m.get(M("X")) == a
    assert m.get(M("Y")) == b


def test_meet_detects_clash():
    d = dom(M("X"))
    assert subst_meet(mgu([(M("X"), a)], d), mgu([(M("X"), b)], d)).is_bot


def test_meet_unifies_shared_bindings():
    d = dom(M("X"), M("Y"))
    sa = mgu([(M("X"), f(M("Y")))], d)
    sb = mgu([(M("X"), f(a))], d)
    m = subst_meet(sa, sb)
    assert m.get(M("Y")) == a


def test_meet_requires_same_meta_family():
    da = dom(M("X"))
    db = dom(M("Y"))
    with pytest.raises(DomainMismatch):
        subst_meet(SubstTheory().top(da), SubstTheory().top(db))


def test_meet_tolerates_trailing_eigens():
    d = dom(M("X"))
    sa = SubstTheory().top(d)
    sb = SubstTheory().top(d.add_eigen(E("tail")))
    m = subst_meet(sa, sb)
    assert not m.is_bot


# ---------------------------------------------------------------------------
# the theory interface


TH = SubstTheory(ground_base=(a,))


def test_project_erases_the_last_meta():
    d = dom(M("X"), M("Y"))
    sigma = mgu([(M("X"), a), (M("Y"), b)], d)
    out = TH.project(sigma, M("Y"))
    assert out.domain.metas == (M("X"),)
    assert out.get(M("X")) == a


def test_project_keeps_dangling_references():
    # X -> f(Y) survives projecting Y; compatibility then asks for some
    # ground Y making the pattern match
    d = dom(M("X"), M("Y"))
    sigma = mgu([(M("X"), f(M("Y")))], d)
    out = TH.project(sigma, M("Y"))
    rho_good = Instantiation(out.domain, ((M("X"), f(b)),))
    rho_bad = Instantiation(out.domain, ((M("X"), a),))
    assert TH.compatible(rho_good, out)
    assert not TH.compatible(rho_bad, out)


def test_lift_is_inverse_restriction():
    d = dom(M("X"))
    sigma = mgu([(M("X"), a)], d)
    up = TH.lift(sigma, M("Y"))
    assert up.domain.metas == (M("X"), M("Y"))
    assert up.get(M("X")) == a
    assert up.get(M("Y")) == M("Y")


def test_compatible_requires_matching_instances():
    d = dom(M("X"))
    sigma = mgu([(M("X"), f(M("X")))], d)
    assert sigma.is_bot
    assert not TH.compatible(Instantiation(d, ((M("X"), a),)), sigma)
    sig2 = mgu([(M("X"), f(a))], d)
    assert TH.compatible(Instantiation(d, ((M("X"), f(a)),)), sig2)
    assert not TH.compatible(Instantiation(d, ((M("X"), a),)), sig2)


def test_satisfiable_is_non_absurdity():
    d = dom(M("X"))
    assert TH.satisfiable(TH.top(d))
    assert not TH.satisfiable(mgu([(a, b)], d))


def test_witness_reads_the_binding():
    d = dom(M("X"), M("Y"))
    sigma = mgu([(M("Y"), f(M("X")))], d)
    rho = Instantiation(dom(M("X")), ((M("X"), a),))
    assert TH.witness(sigma, rho) == f(a)


def test_witness_falls_back_to_ground_base():
    d = dom(M("X"))
    rho = Instantiation(Domain(), ())
    assert TH.witness(TH.top(d), rho) == a


def test_witness_without_any_ground_term_is_unsupported():
    bare = SubstTheory()
    d = dom(M("X"))
    with pytest.raises(WitnessUnsupported):
        bare.witness(bare.top(d), Instantiation(Domain(), ()))


def test_witness_respects_authorisation():
    d = dom(E("e"), M("X"))
    rho = Instantiation(Domain.initial((E("e"),)), ())
    sigma = mgu([(M("X"), E("e"))], d)
    assert TH.witness(sigma, rho) == E("e")


# ---------------------------------------------------------------------------
# closing streams


def lit(name, *args):
    return pos(PredAtom(name, tuple(args)))


def neg_lit(name, *args):
    return Literal(False, PredAtom(name, tuple(args)))


def test_consistency_yields_each_complementary_pair():
    d = dom(M("X"), M("Y"))
    lits = (lit("p", M("X")), neg_lit("p", a), neg_lit("p", M("Y")))
    stream = TH.consistency(lits, d)
    got = []
    while True:
        step = stream.pull(TH.top(d))
        if step is None:
            break
        used, sigma = step
        got.append((used, sigma))
    assert len(got) == 2
    for used, sigma in got:
        assert len(used) == 2
        assert not sigma.is_bot


def test_consistency_skips_candidates_clashing_with_input():
    d = dom(M("X"))
    lits = (lit("p", M("X")), neg_lit("p", a))
    stream = TH.consistency(lits, d)
    blocked = mgu([(M("X"), b)], d)
    assert stream.pull(blocked) is None


def test_consistency_refines_the_input():
    d = dom(M("X"), M("Y"))
    lits = (lit("p", M("X")), neg_lit("p", a))
    stream = TH.consistency(lits, d)
    current = mgu([(M("Y"), b)], d)
    used, out = stream.pull(current)
    assert out.get(M("X")) == a
    assert out.get(M("Y")) == b


def test_consistency_cursor_does_not_replay():
    d = dom(M("X"), M("Y"))
    lits = (lit("p", M("X")), neg_lit("p", a), neg_lit("p", M("Y")))
    stream = TH.consistency(lits, d)
    first = stream.pull(TH.top(d))
    second = stream.pull(TH.top(d))
    assert first is not None and second is not None
    assert first[0] != second[0]
    assert stream.pull(TH.top(d)) is None


def test_ground_valid_is_complementary_pair():
    assert TH.ground_valid((lit("p", a), neg_lit("p", a)))
    assert not TH.ground_valid((lit("p", a), neg_lit("p", b)))
    assert not TH.ground_valid((lit("p", a), lit("q", a)))


# ---------------------------------------------------------------------------
# rendering and shrinking


def test_render_mentions_bindings():
    d = dom(M("X"))
    text = TH.render(mgu([(M("X"), a)], d))
    assert "X" in text and "a" in text
    assert TH.render(mgu([(a, b)], d)) == "BOT"
    assert TH.render(TH.top(d)) == "TOP"


def test_shrink_drops_entries():
    d = dom(M("X"), M("Y"))
    sigma = mgu([(M("X"), a), (M("Y"), b)], d)
    smaller = list(TH.shrink(sigma))
    assert all(len(s.entries) < len(sigma.entries) for s in smaller)
    assert all(not s.is_bot for s in smaller)
