"""Enumeration backend: partial ground maps and fair candidate streams."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from seqmod.fol import SubstTheory
from seqmod.ground import (
    _MAX_ASSIGNMENTS,
    GroundConstraint,
    GroundEnumTheory,
    _walk,
    _within_cap,
)
from seqmod.lra import LraTheory
from seqmod.terms import (
    ArithAtom,
    Domain,
    EigenVar,
    FunApp,
    Instantiation,
    Literal,
    MetaVar,
    PredAtom,
    RatConst,
    Signature,
    SORT_RAT,
    SORT_TERM,
    enumerate_ground_terms,
    ground_candidates,
    literal_vars,
    subst_literal,
)
from seqmod.theory import (
    ConstraintStream,
    DomainMismatch,
    PreconditionError,
    ResourceLimit,
    WitnessUnsupported,
    complementary_pair,
    meet_domain,
)

E = lambda n: EigenVar(n, SORT_TERM)
M = lambda n: MetaVar(n, SORT_TERM)
a = FunApp("a", ())
b = FunApp("b", ())
f = lambda t: FunApp("f", (t,))

SIG = Signature(preds=(("p", (SORT_TERM,)), ("q", (SORT_TERM, SORT_TERM))),
                funs=(("f", 1),), consts=("a", "b"))
TH = GroundEnumTheory(SIG, ceiling=2)


def term_depth(t):
    """Function-application nesting depth; variables and constants are 0."""
    return 1 + max(map(term_depth, t.args)) if isinstance(t, FunApp) and t.args else 0


def dom(*decls):
    d = Domain()
    for v in decls:
        d = d.add_eigen(v) if isinstance(v, EigenVar) else d.add_meta(v)
    return d


def lit(name, *args):
    return Literal(True, PredAtom(name, tuple(args)))


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
    m = TH.meet(ga, gb)
    assert m.entries == ((M("X"), a), (M("Y"), b))


def test_meet_refuses_disagreement():
    d = dom(M("X"))
    ga = GroundConstraint(d, ((M("X"), a),))
    gb = GroundConstraint(d, ((M("X"), b),))
    assert TH.meet(ga, gb) is None


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


def test_empty_candidate_list_exhausts_before_the_space_guard():
    # No constant and no eigenvariable before X0, so X0 has no candidate
    # and the stream is empty, though X1..X4 have 45^4 groundings.
    sig = Signature(preds=(("q", (SORT_TERM,) * 5),), funs=(("f", 1), ("g", 1)))
    th = GroundEnumTheory(sig, ceiling=3)
    metas = [M("X%d" % i) for i in range(5)]
    d = dom(metas[0], E("e0"), E("e1"), E("e2"), *metas[1:])
    assert enumerate_ground_terms(sig, d, metas[0], 3) == ()
    assert len(enumerate_ground_terms(sig, d, metas[1], 3)) ** 4 > _MAX_ASSIGNMENTS
    lits = (lit("q", *metas), nlit("q", *metas))
    assert pull_all(th.consistency(lits, d), th.top(d)) == []


# One ternary function: over two constants or eigenvariables it gives 2,
# 8 and 992 terms at depths 0-2, and about 10^9 at depth 3.
_TERNARY = Signature(preds=(("p", (SORT_TERM,)), ("q", (SORT_TERM, SORT_TERM))),
                     funs=(("h", 3),), consts=("a", "b"))


def _count_candidates_made(monkeypatch):
    """A list of every candidate the enumeration makes from now on."""
    made = []

    def counted(*args):
        for cand in ground_candidates(*args):
            made.append(cand)
            yield cand

    monkeypatch.setattr("seqmod.ground.ground_candidates", counted)
    return made


def test_an_over_cap_candidate_list_stops_one_past_the_cap(monkeypatch):
    monkeypatch.setattr("seqmod.ground._MAX_ASSIGNMENTS", 1000)
    made = _count_candidates_made(monkeypatch)
    th = GroundEnumTheory(_TERNARY, ceiling=3)
    d = dom(M("X"))
    lits = (lit("p", M("X")), nlit("p", a))
    for _ in range(2):  # nothing is stored, so the second call makes the list again
        with pytest.raises(ResourceLimit, match="exceeds 1000"):
            th.consistency(lits, d)
        assert len(made) == 1001
        assert th._memo == {} and th._leaves == {}
        made.clear()


def test_an_empty_candidate_list_wins_over_an_over_cap_one(monkeypatch):
    # X0 sees no constant and no eigenvariable, so it has no candidate and
    # the stream is empty, although X1's list alone is over the cap.
    monkeypatch.setattr("seqmod.ground._MAX_ASSIGNMENTS", 1000)
    made = _count_candidates_made(monkeypatch)
    sig = Signature(preds=_TERNARY.preds, funs=_TERNARY.funs)
    th = GroundEnumTheory(sig, ceiling=3)
    d = dom(M("X0"), E("e0"), E("e1"), M("X1"))
    lits = (lit("q", M("X0"), M("X1")), nlit("q", M("X0"), M("X1")))
    assert pull_all(th.consistency(lits, d), th.top(d)) == []
    assert len(made) == 1001
    assert list(th._memo) == [(SORT_TERM, ())]


# ---------------------------------------------------------------------------
# the lazy stream against the eager reference
#
# The reference below is the eager stream the backend used before it
# became lazy: it sorts the whole product of the candidate lists,
# substitutes every leaf literal for each grounding, and merges each
# closing grounding with the input, dropping it on disagreement.  The
# two must give the same groundings in the same order, and the same
# pulls for any input.


def _eager_fair_assignments(cand_lists):
    total = 1
    for c in cand_lists:
        total *= max(len(c), 1)
        if total > _MAX_ASSIGNMENTS:
            raise ResourceLimit("ground assignment space exceeds %d" % _MAX_ASSIGNMENTS)
    if any(not c for c in cand_lists):
        return iter(())
    indexed = [list(enumerate(c)) for c in cand_lists]
    tuples = list(itertools.product(*indexed))
    tuples.sort(key=lambda choice: (sum(term_depth(t) for _, t in choice),
                                    tuple(i for i, _ in choice)))
    return (tuple(t for _, t in choice) for choice in tuples)


def _eager_merge(domain, a, b_entries):
    amap = dict(a.entries)
    for m, t in b_entries:
        if m in amap and amap[m] != t:
            return None
        amap[m] = t
    return GroundConstraint(domain, domain.in_declaration_order(amap.items()))


def _eager_consistency(theory, lits, domain):
    lits = tuple(lits)
    metas = [m for m in domain.metas
             if any(m in literal_vars(l) for l in lits)]
    cand_lists = [enumerate_ground_terms(theory.sig, domain, m, theory.ceiling) for m in metas]
    assignments = _eager_fair_assignments(cand_lists)

    def outputs(current):
        for images in assignments:
            g = tuple(zip(metas, images))
            mapping = {m: t for m, t in g}
            ground_lits = tuple(subst_literal(l, mapping) for l in lits)
            pair = complementary_pair(ground_lits)
            if pair is None:
                continue
            out = _eager_merge(current.domain, current, g)
            if out is not None:
                yield frozenset(l for l, gl in zip(lits, ground_lits) if gl in pair), out

    return ConstraintStream(outputs)


g2 = lambda s, t: FunApp("g", (s, t))
_POOL = (a, b, E("e0"), f(a), f(b), g2(a, b), f(f(a)), g2(f(b), a))

# Depth-sorted lists, as enumerate_ground_terms gives them; within one
# depth the order is the drawn one.
_cand_lists = st.lists(
    st.lists(st.sampled_from(_POOL), unique=True, max_size=5).map(
        lambda ts: sorted(ts, key=term_depth)),
    max_size=4)


@settings(max_examples=200, deadline=None)
@given(_cand_lists)
@example([[a, b], [b, a], [f(a), f(b)]])
@example([[a], [], [b]])
@example([])
def test_fair_order_is_the_sorted_product(cand_lists):
    # The unpinned walk: every candidate allowed at every position.
    options = [[(j, t, term_depth(t)) for j, t in enumerate(c)] for c in cand_lists]
    walked = _walk(options) if _within_cap(cand_lists) else ()
    assert list(walked) == list(_eager_fair_assignments(cand_lists))


_XS = tuple(M("X%d" % i) for i in range(4))
_R = MetaVar("R", SORT_RAT)
_STREAM_SIG = Signature(preds=(("p", (SORT_TERM,)), ("q", (SORT_TERM, SORT_TERM)),
                               ("r", (SORT_TERM,))),
                        funs=(("f", 1),), consts=("a", "b"))
_STREAM_TH = GroundEnumTheory(_STREAM_SIG, ceiling=1)

_args = st.sampled_from(_XS + (a, b, f(a)) + tuple(f(m) for m in _XS))
_atoms = st.one_of(
    st.builds(lambda t: PredAtom("p", (t,)), _args),
    st.builds(lambda s, t: PredAtom("q", (s, t)), _args, _args),
    st.builds(lambda t: PredAtom("r", (t,)), _args),
    st.builds(lambda op, t: ArithAtom(op, _R, t), st.sampled_from(("<=", "=")),
              st.sampled_from((_R, RatConst(0), RatConst(1)))),
)
# Drawn from a small pool, so literals repeat, share metas, and a
# predicate often occurs with one polarity only.
_leaf_lits = st.lists(st.builds(Literal, st.booleans(), _atoms), min_size=1, max_size=6)
_stream_domains = st.permutations(_XS + (_R, E("e0"))).map(lambda decls: dom(*decls))


@settings(max_examples=150, deadline=None)
@given(_stream_domains, _leaf_lits)
# p is dead, so only the q pair closes; X0 is shared between them.
@example(dom(*_XS), [lit("p", _XS[0]), lit("q", _XS[0], _XS[1]), nlit("q", a, f(_XS[0]))])
# A repeated literal closes against both copies of its complement.
@example(dom(*_XS), [lit("p", _XS[0]), nlit("p", _XS[1]), nlit("p", _XS[1]), lit("r", _XS[2])])
def test_stream_agrees_with_the_eager_reference(d, lits):
    top = _STREAM_TH.top(d)
    lazy = pull_all(_STREAM_TH.consistency(lits, d), top)
    assert lazy == pull_all(_eager_consistency(_STREAM_TH, lits, d), top)


# Images the stream can draw, and f(f(a)), which it never draws at
# ceiling 1; e0 is left out, since it is unauthorised for some metas.
_images = st.sampled_from((a, b, f(a), f(b), f(f(a))))


@st.composite
def _inputs(draw, count):
    """`count` GroundConstraints at one drawn domain, each fixing some of
    its term-sorted metas."""
    d = draw(_stream_domains)
    metas = [m for m in d.metas if m.sort == SORT_TERM]
    out = []
    for _ in range(count):
        fixed = draw(st.lists(st.sampled_from(metas), unique=True, max_size=len(metas)))
        out.append(GroundConstraint(d, d.in_declaration_order((m, draw(_images)) for m in fixed)))
    return tuple(out)


def _in_turn(make, inputs):
    """Pulls of one stream per input, `make()` building each, taken in
    turn until every stream is exhausted."""
    live = [(make(), current) for current in inputs]
    out = []
    while live:
        steps = [(stream, current, stream.pull(current)) for stream, current in live]
        out += [step for _, _, step in steps]
        live = [(stream, current) for stream, current, step in steps if step is not None]
    return out


@settings(max_examples=150, deadline=None)
@given(_inputs(1), _leaf_lits)
# X0 is fixed to b: the groundings X0 = a and X0 = f(a) are skipped.
@example((GroundConstraint(dom(*_XS), ((_XS[0], b),)),),
         [lit("p", _XS[0]), nlit("p", a), nlit("p", b), nlit("p", f(a))])
# X1 is fixed to an image the stream never draws: nothing closes.
@example((GroundConstraint(dom(*_XS), ((_XS[1], f(f(a))),)),),
         [lit("q", _XS[0], _XS[1]), nlit("q", a, _XS[1])])
def test_stream_agrees_with_the_eager_reference_on_any_input(inputs, lits):
    (current,) = inputs
    d = current.domain
    lazy = pull_all(_STREAM_TH.consistency(lits, d), current)
    assert lazy == pull_all(_eager_consistency(_STREAM_TH, lits, d), current)


@settings(max_examples=150, deadline=None)
@given(_inputs(2), _leaf_lits)
# The first input fixes X0 to a, the second to b; each stream skips the
# groundings its own input rules out.
@example((GroundConstraint(dom(*_XS), ((_XS[0], a),)),
          GroundConstraint(dom(*_XS), ((_XS[0], b),))),
         [lit("p", _XS[0]), nlit("p", a), nlit("p", b), nlit("p", f(a))])
def test_stream_pulled_with_two_inputs_in_turn_agrees(inputs, lits):
    d = inputs[0].domain
    lazy = _in_turn(lambda: _STREAM_TH.consistency(lits, d), inputs)
    assert lazy == _in_turn(lambda: _eager_consistency(_STREAM_TH, lits, d), inputs)


_D4 = dom(*_XS)


@settings(max_examples=150, deadline=None)
@given(_inputs(3), _leaf_lits)
# The third input pins X1 to f(f(a)), which no candidate list holds at
# ceiling 1: nothing agrees with it.
@example((_STREAM_TH.top(_D4),
          GroundConstraint(_D4, ((_XS[0], b),)),
          GroundConstraint(_D4, ((_XS[1], f(f(a))),))),
         [lit("q", _XS[0], _XS[1]), nlit("q", a, _XS[1]), nlit("q", b, _XS[1])])
# A pinned stream and an unpinned one over the same leaf, pulled in turn.
@example((GroundConstraint(_D4, ((_XS[0], b),)),
          _STREAM_TH.top(_D4),
          GroundConstraint(_D4, ((_XS[0], a),))),
         [lit("q", _XS[0], _XS[1]), nlit("q", a, a), nlit("q", b, a), nlit("q", a, f(a)),
          nlit("q", b, f(b)), nlit("q", f(a), b)])
# Two streams with the same pins, and one with other pins.
@example((GroundConstraint(_D4, ((_XS[0], a), (_XS[2], b))),
          GroundConstraint(_D4, ((_XS[0], a), (_XS[2], b))),
          GroundConstraint(_D4, ((_XS[2], f(a)),))),
         [lit("q", _XS[0], _XS[1]), nlit("q", a, _XS[1]), lit("p", _XS[2]), nlit("p", b),
          nlit("p", f(a))])
def test_stream_pulled_with_three_inputs_in_turn_agrees(inputs, lits):
    d = inputs[0].domain
    assert (_in_turn(lambda: _STREAM_TH.consistency(lits, d), inputs)
            == _in_turn(lambda: _eager_consistency(_STREAM_TH, lits, d), inputs))
    # The theory's memo is shared by every domain drawn so far.
    for m in d.metas:
        terms = enumerate_ground_terms(_STREAM_SIG, d, m, _STREAM_TH.ceiling)
        assert _STREAM_TH._candidates(d, m) == (
            tuple((i, t, term_depth(t)) for i, t in enumerate(terms)),
            {t: i for i, t in enumerate(terms)})


def test_a_fully_pinned_pull_examines_at_most_one_grounding(monkeypatch):
    # Four metas with 4 candidates each at ceiling 3: a, f(a), f(f(a)),
    # f(f(f(a))).  Every grounding closes the leaf.  An input that fixes
    # all four metas agrees with one grounding, wherever it sits among
    # the 256, so a stream grounds the literals and looks for a
    # complementary pair at most once.
    sig = Signature(preds=(("q", (SORT_TERM,) * 4),), funs=(("f", 1),), consts=("a",))
    th = GroundEnumTheory(sig, ceiling=3)
    terms = enumerate_ground_terms(sig, _D4, _XS[0], 3)
    assert len(terms) ** 4 == 256
    lits = (lit("q", *_XS), nlit("q", *_XS))
    grounded = []
    real_pair = complementary_pair
    monkeypatch.setattr("seqmod.ground.complementary_pair",
                        lambda ls: grounded.append(ls) or real_pair(ls))
    for images in [(terms[3],) * 4, (terms[0], terms[3], terms[1], terms[2]), (terms[2],) * 4]:
        current = GroundConstraint(_D4, tuple(zip(_XS, images)))
        stream = th.consistency(lits, _D4)
        used, out = stream.pull(current)
        assert out == current and len(grounded) <= 1
        assert stream.pull(current) is None
        assert len(grounded) <= 1
        grounded.clear()


@settings(max_examples=150, deadline=None)
@given(_inputs(2), _leaf_lits, st.booleans())
# The input fixes X2, which the grounding follows in declaration order.
@example((GroundConstraint(_D4, ((_XS[2], b),)), _STREAM_TH.top(_D4)),
         [lit("q", _XS[0], _XS[2]), nlit("q", a, b)], False)
def test_trusted_results_pass_the_constructor_checks(inputs, lits, longer):
    # meet, project, lift and the stream's outputs skip the constructor's
    # checks; each result must be one the checked constructor accepts.
    left, right = inputs
    d = left.domain
    if longer:
        right = GroundConstraint(d.add_eigen(E("e9")), right.entries)
    meta = d.last_meta()
    outs = [_STREAM_TH.meet(left, right)]
    for sigma in (left, right):
        lifted = _STREAM_TH.lift(sigma, M("Y"))
        outs += [_STREAM_TH.project(sigma, meta), lifted, _STREAM_TH.project(lifted, M("Y"))]
    pulled = _in_turn(lambda: _STREAM_TH.consistency(lits, d), inputs)
    outs += [out for _, out in filter(None, pulled)]
    for out in filter(None, outs):
        assert out == GroundConstraint(out.domain, out.entries)


def test_a_pull_refuses_an_input_of_another_family():
    # A stream's outputs are built unchecked, so it refuses an input
    # whose domain gives a meta other authorised eigenvariables, and
    # takes one at an equal domain, or one with an eigenvariable appended.
    X0, X1, e0 = _XS[0], _XS[1], E("e0")
    late = dom(X0, e0, X1)
    lits = (lit("p", X0), nlit("p", a), nlit("p", b))
    with pytest.raises(DomainMismatch):
        TH.consistency(lits, late).pull(TH.top(dom(X1, e0, X0)))
    _, out = TH.consistency(lits, late).pull(TH.top(dom(X0, e0, X1)))
    assert out == GroundConstraint(late, ((X0, a),))
    longer = late.add_eigen(E("e9"))
    stream = TH.consistency(lits, late)
    assert [out for _, out in pull_all(stream, TH.top(longer))] == [
        GroundConstraint(longer, ((X0, a),)), GroundConstraint(longer, ((X0, b),))]


_WIDE = Signature(preds=(("p", (SORT_TERM,)), ("q", (SORT_TERM,) * 2), ("s", (SORT_TERM,) * 4)),
                  funs=(("f", 1), ("g", 1)), consts=("a", "b", "c"))


def test_memos_are_exact(monkeypatch):
    # One instance serves a cycle of leaves twice over; each stream must
    # pull exactly as a stream of a fresh instance does.  X1 may see e0
    # at `late`, not at `early`, and the two domains order q(X0, X1)'s
    # metas differently.  `over` has 45^4 groundings, over the cap.
    X0, X1, e0 = _XS[0], _XS[1], E("e0")
    late, early = dom(X0, e0, X1), dom(X1, e0, X0)
    leaf = (lit("q", X0, X1), nlit("q", a, e0), nlit("q", f(a), X0), lit("p", X1), nlit("p", e0))
    over = (lit("s", *_XS), nlit("s", a, a, a, a))
    cycle = [(leaf, late), (over, _D4), (leaf, early)]
    shared = GroundEnumTheory(_WIDE, ceiling=3)

    def pulls(theory, lits, d):
        inputs = (theory.top(d), GroundConstraint(d, ((X0, f(a)),)))
        try:
            return _in_turn(lambda: theory.consistency(lits, d), inputs)
        except ResourceLimit:
            return ResourceLimit

    # Spies: a set-up checks the cap once, and a ground instance is built
    # by one substitution.
    calls = []
    monkeypatch.setattr("seqmod.ground.subst_literal",
                        lambda l, mapping: calls.append("subst") or subst_literal(l, mapping))
    within_cap = _within_cap
    monkeypatch.setattr("seqmod.ground._within_cap",
                        lambda cands: calls.append("cap") or within_cap(cands))
    first = [pulls(shared, lits, d) for lits, d in cycle]
    assert calls.count("cap") == 3 and "subst" in calls
    assert first == [pulls(GroundEnumTheory(_WIDE, ceiling=3), lits, d) for lits, d in cycle]
    assert first[1] is ResourceLimit and first[0] != first[2]
    # The second round finds both set-ups and every ground instance in
    # the memos; only the over-cap set-up, never stored, runs again.
    calls.clear()
    assert [pulls(shared, lits, d) for lits, d in cycle] == first
    assert calls == ["cap"]
    assert set(shared._leaves) == {(leaf, late), (leaf, early)}


@settings(max_examples=200, deadline=None)
@given(_inputs(2), st.booleans())
@example((GroundConstraint(dom(*_XS), ((_XS[0], a), (_XS[2], b))),
          GroundConstraint(dom(*_XS), ((_XS[0], a), (_XS[1], f(a))))), False)
def test_meet_agrees_with_the_eager_merge(operands, longer):
    # With `longer`, the second operand lives at a domain with one more
    # eigenvariable, where the meet lives too.
    left, right = operands
    if longer:
        right = GroundConstraint(right.domain.add_eigen(E("e9")), right.entries)
    expected = _eager_merge(meet_domain(left, right), left, right.entries)
    assert TH.meet(left, right) == expected


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


_WITNESS_SIGS = (
    Signature(funs=(("f", 1), ("g", 2)), consts=("a", "b")),
    Signature(funs=(("f", 1),), consts=("b",)),
    Signature(funs=(("f", 1), ("g", 2))),
    Signature(),
)
_RE = EigenVar("r", SORT_RAT)


@pytest.mark.parametrize("decls", [
    (M("X"),),
    (E("e0"), M("X")),
    (E("e0"), E("e1"), M("X")),
    (M("X"), E("e0")),
    (_RE, M("X")),
    (_RE, E("e0"), M("X"), E("e1")),
    (_R,),
    (_RE, E("e0"), _R),
    (_R, _RE),
])
def test_witness_default_agrees_with_the_first_enumerated_term(decls):
    # Every backend's witness under `top` is its default witness.
    # Reference: the first term enumerate_ground_terms gives the meta at
    # enum's ceiling (the first term is the same at every ceiling); no
    # term at all means no witness.
    d = dom(*decls)
    meta = d.last_meta()
    rho = Instantiation.empty(d.drop_meta(meta))
    for sig in _WITNESS_SIGS:
        backends = [GroundEnumTheory(sig, ceiling=c) for c in range(4)]
        for theory in backends + [SubstTheory(sig), LraTheory(sig)]:
            terms = enumerate_ground_terms(sig, d, meta, getattr(theory, "ceiling", 0))
            if terms:
                assert theory.witness(theory.top(d), rho) == terms[0], (sig, theory.name)
            else:
                with pytest.raises(WitnessUnsupported):
                    theory.witness(theory.top(d), rho)


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
