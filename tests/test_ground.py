"""Enumeration backend: partial ground maps and fair candidate streams."""

import pytest

from seqmod.ground import (
    GroundConstraint,
    GroundEnumTheory,
    ground_meet,
)
from seqmod.terms import (
    Domain,
    EigenVar,
    FunApp,
    Instantiation,
    Literal,
    MetaVar,
    PredAtom,
    Signature,
    SORT_TERM,
    pos,
    term_depth,
)
from seqmod.theory import PreconditionError, ResourceLimit, complementary_pair

E = lambda n: EigenVar(n, SORT_TERM)
M = lambda n: MetaVar(n, SORT_TERM)
a = FunApp("a", ())
b = FunApp("b", ())
f = lambda t: FunApp("f", (t,))

SIG = Signature(preds=(("p", (SORT_TERM,)), ("q", (SORT_TERM, SORT_TERM))),
                funs=(("f", 1),), consts=("a", "b"))
TH = GroundEnumTheory(SIG, ceiling=2)


def dom(*decls):
    d = Domain()
    for v in decls:
        d = d.add_eigen(v) if isinstance(v, EigenVar) else d.add_meta(v)
    return d


def lit(name, *args):
    return pos(PredAtom(name, tuple(args)))


def nlit(name, *args):
    return Literal(False, PredAtom(name, tuple(args)))


# ---------------------------------------------------------------------------
# the constraint representation


def test_entries_follow_declaration_order():
    d = dom(M("X"), M("Y"))
    GroundConstraint(d, ((M("X"), a), (M("Y"), b)))
    with pytest.raises(PreconditionError):
        GroundConstraint(d, ((M("Y"), b), (M("X"), a)))
    with pytest.raises(PreconditionError):
        GroundConstraint(d, ((M("X"), a), (M("X"), b)))
    with pytest.raises(PreconditionError):
        GroundConstraint(d, ((M("Z"), a),))  # not declared in d


def test_images_must_be_ground_and_authorised():
    d = dom(M("X"), M("Y"))
    with pytest.raises(PreconditionError):
        GroundConstraint(d, ((M("X"), M("Y")),))
    d2 = dom(M("X"), E("late"))
    with pytest.raises(PreconditionError):
        GroundConstraint(d2, ((M("X"), E("late")),))


def test_meet_unions_agreeing_maps():
    d = dom(M("X"), M("Y"))
    ga = GroundConstraint(d, ((M("X"), a),))
    gb = GroundConstraint(d, ((M("Y"), b),))
    m = ground_meet(ga, gb)
    assert m.entries == ((M("X"), a), (M("Y"), b))


def test_meet_refuses_disagreement():
    d = dom(M("X"))
    ga = GroundConstraint(d, ((M("X"), a),))
    gb = GroundConstraint(d, ((M("X"), b),))
    assert ground_meet(ga, gb) is None


def test_project_drops_only_the_last_meta():
    d = dom(M("X"), M("Y"))
    sigma = GroundConstraint(d, ((M("X"), a), (M("Y"), b)))
    out = TH.project(sigma, M("Y"))
    assert out.entries == ((M("X"), a),)
    with pytest.raises(PreconditionError):
        TH.project(sigma, M("X"))


def test_lift_extends_the_domain_without_binding():
    d = dom(M("X"))
    sigma = GroundConstraint(d, ((M("X"), a),))
    up = TH.lift(sigma, M("Y"))
    assert up.domain.metas == (M("X"), M("Y"))
    assert up.get(M("Y")) is None


def test_compatible_checks_recorded_entries_only():
    d = dom(M("X"), M("Y"))
    sigma = GroundConstraint(d, ((M("X"), a),))
    assert TH.compatible(Instantiation(d, ((M("X"), a), (M("Y"), b))), sigma)
    assert not TH.compatible(Instantiation(d, ((M("X"), b), (M("Y"), b))), sigma)


# ---------------------------------------------------------------------------
# the closing stream


def pull_all(stream, start):
    out = []
    while True:
        step = stream.pull(start)
        if step is None:
            return out
        out.append(step)


def test_stream_finds_the_closing_grounding():
    d = dom(M("X"))
    lits = (lit("p", M("X")), nlit("p", a))
    results = pull_all(TH.consistency(lits, d), TH.top(d))
    assert any(sigma.get(M("X")) == a for _, sigma in results)
    for used, _ in results:
        assert used <= set(lits)


def test_stream_is_fair_depth_first_then_lex():
    # candidates for X: a, b, f(a), f(b), f(f(a)), ...; p(X) vs ~p(f(a))
    # closes only at f(a), which must be found after the depth-0 terms
    d = dom(M("X"))
    lits = (lit("p", M("X")), nlit("p", f(a)))
    results = pull_all(TH.consistency(lits, d), TH.top(d))
    assert [sigma.get(M("X")) for _, sigma in results] == [f(a)]


def test_stream_only_grounds_metas_in_the_literals():
    d = dom(M("X"), M("Y"))
    lits = (lit("p", M("X")), nlit("p", a))
    results = pull_all(TH.consistency(lits, d), TH.top(d))
    assert all(sigma.get(M("Y")) is None for _, sigma in results)


def test_stream_respects_the_input_constraint():
    d = dom(M("X"))
    lits = (lit("p", M("X")), nlit("p", a), nlit("p", b))
    stream = TH.consistency(lits, d)
    pinned = GroundConstraint(d, ((M("X"), b),))
    results = pull_all(stream, pinned)
    assert [sigma.get(M("X")) for _, sigma in results] == [b]


def test_stream_orders_candidates_by_depth():
    d = dom(M("X"))
    lits = (lit("p", M("X")), nlit("p", a), nlit("p", f(b)))
    results = pull_all(TH.consistency(lits, d), TH.top(d))
    images = [sigma.get(M("X")) for _, sigma in results]
    assert images == sorted(images, key=term_depth)
    assert set(images) == {a, f(b)}


def test_stream_used_literals_form_the_closing_pair():
    d = dom(M("X"))
    lits = (lit("q", M("X"), a), lit("p", M("X")), nlit("p", b))
    results = pull_all(TH.consistency(lits, d), TH.top(d))
    (used, sigma), = results
    assert used == {lit("p", M("X")), nlit("p", b)}
    assert sigma.get(M("X")) == b


def test_stream_depth_ceiling_exhausts_honestly():
    shallow = GroundEnumTheory(SIG, ceiling=0)
    d = dom(M("X"))
    lits = (lit("p", M("X")), nlit("p", f(a)))
    assert pull_all(shallow.consistency(lits, d), shallow.top(d)) == []


def test_assignment_space_guard():
    wide = Signature(preds=(("q", (SORT_TERM,) * 4),), funs=(("f", 1), ("g", 1)),
                     consts=("a", "b", "c"))
    th = GroundEnumTheory(wide, ceiling=3)
    metas = [M("X%d" % i) for i in range(4)]
    d = Domain()
    for m in metas:
        d = d.add_meta(m)
    lits = (lit("q", *metas), nlit("q", *([a] * 4)))
    with pytest.raises(ResourceLimit):
        th.consistency(lits, d)


# ---------------------------------------------------------------------------
# witnesses and ground validity


def test_witness_prefers_the_recorded_image():
    d = dom(M("X"))
    sigma = GroundConstraint(d, ((M("X"), f(b)),))
    rho = Instantiation(Domain(), ())
    assert TH.witness(sigma, rho) == f(b)


def test_witness_defaults_to_first_enumerated_term():
    d = dom(E("e"), M("X"))
    rho = Instantiation(Domain.initial((E("e"),)), ())
    assert TH.witness(TH.top(d), rho) == E("e")


def test_ground_valid_needs_a_complementary_pair():
    assert TH.ground_valid((lit("p", a), nlit("p", a)))
    assert not TH.ground_valid((lit("p", a), nlit("p", b)))
    assert set(complementary_pair((lit("p", a), nlit("p", a), lit("q", a, b)))) == \
        {lit("p", a), nlit("p", a)}


def test_shrink_removes_one_entry_at_a_time():
    d = dom(M("X"), M("Y"))
    sigma = GroundConstraint(d, ((M("X"), a), (M("Y"), b)))
    outs = list(TH.shrink(sigma))
    assert {s.entries for s in outs} == {((M("Y"), b),), ((M("X"), a),)}
