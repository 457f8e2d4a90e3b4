"""Shared theory contract: streams, domain compatibility, re-indexing."""

import itertools

import pytest
from hypothesis import given, strategies as st

from seqmod.fol import SubstTheory, mgu
from seqmod.terms import (
    Domain,
    EigenVar,
    FunApp,
    Literal,
    MetaVar,
    PredAtom,
    SORT_TERM,
)
from seqmod.theory import (
    ConstraintStream,
    DomainMismatch,
    PreconditionError,
    ResourceLimit,
    TheoryError,
    WitnessUnsupported,
    check_metas_compatible,
    complementary_pair,
    dual_pred_pairs,
    rehouse,
)

E = lambda n: EigenVar(n, SORT_TERM)
M = lambda n: MetaVar(n, SORT_TERM)
a = FunApp("a", ())


def dom(*decls):
    d = Domain()
    for v in decls:
        d = d.add_eigen(v) if isinstance(v, EigenVar) else d.add_meta(v)
    return d


def test_error_hierarchy():
    for exc in (DomainMismatch, PreconditionError, WitnessUnsupported, ResourceLimit):
        assert issubclass(exc, TheoryError)


# ---------------------------------------------------------------------------
# domain compatibility and re-indexing


def test_same_meta_family_tolerates_eigen_tails():
    d1 = dom(E("e"), M("X"))
    d2 = d1.add_eigen(E("tail"))
    check_metas_compatible(d1, d2)


def test_different_metas_are_incompatible():
    with pytest.raises(DomainMismatch):
        check_metas_compatible(dom(M("X")), dom(M("Y")))


def test_different_authorisations_are_incompatible():
    # X before the eigen in one domain, after it in the other
    d1 = dom(M("X"), E("e"))
    d2 = dom(E("e"), M("X"))
    with pytest.raises(DomainMismatch):
        check_metas_compatible(d1, d2)


def test_rehouse_moves_a_constraint_across_eigen_extension():
    th = SubstTheory()
    d = dom(E("e"), M("X"))
    sigma = mgu([(M("X"), E("e"))], d)
    d2 = d.add_eigen(E("fresh"))
    moved = rehouse(sigma, d2)
    assert moved.domain == d2
    assert moved.entries == sigma.entries


def test_rehouse_is_identity_on_the_same_domain():
    th = SubstTheory()
    d = dom(M("X"))
    sigma = th.top(d)
    assert rehouse(sigma, d) is sigma


def test_rehouse_refuses_changed_meta_family():
    th = SubstTheory()
    d = dom(M("X"))
    with pytest.raises(DomainMismatch):
        rehouse(th.top(d), dom(M("X"), M("Y")))


# ---------------------------------------------------------------------------
# literal pairing helpers


def lit(name, *args):
    return Literal(True, PredAtom(name, tuple(args)))


def nlit(name, *args):
    return Literal(False, PredAtom(name, tuple(args)))


def test_complementary_pair_is_syntactic():
    assert complementary_pair((lit("p", a), nlit("p", a))) is not None
    assert complementary_pair((lit("p", a), nlit("q", a))) is None
    assert complementary_pair((lit("p", a), lit("p", a))) is None


_literal_lists = st.lists(
    st.builds(lambda positive, name, args: Literal(positive, PredAtom(name, args)),
              st.booleans(), st.sampled_from("pq"),
              st.lists(st.sampled_from((a, M("X"), E("e"))), max_size=1).map(tuple)),
    max_size=6)


@given(_literal_lists)
def test_complementary_pair_is_the_first_pair_of_a_scan(lits):
    found = [(l, l2) for l, l2 in itertools.combinations(lits, 2)
             if l.atom == l2.atom and l.positive != l2.positive]
    expected = None
    if found:
        l, l2 = found[0]
        expected = (l, l2) if l.positive else (l2, l)
    assert complementary_pair(lits) == expected
    assert complementary_pair(iter(lits)) == expected


def test_dual_pred_pairs_matches_name_arity_and_sign():
    lits = (lit("p", M("X")), nlit("p", a), nlit("p", M("Y")), lit("q", a))
    pairs = list(dual_pred_pairs(lits))
    assert len(pairs) == 2
    for l, l2 in pairs:
        assert l.positive != l2.positive
        assert l.atom.name == l2.atom.name


def test_dual_pred_pairs_is_deterministic():
    lits = (lit("p", M("X")), nlit("p", a), nlit("p", M("Y")))
    assert list(dual_pred_pairs(lits)) == list(dual_pred_pairs(lits))


# ---------------------------------------------------------------------------
# the candidate stream


def test_candidate_stream_advances_a_persistent_cursor():
    # Each pull resumes the generator the first pull started.
    started = []

    def outputs(current):
        started.append(current)
        for x in (1, 2, 3):
            yield frozenset(), x + current

    s = ConstraintStream(outputs)
    assert started == []
    assert s.pull(10) == (frozenset(), 11)
    assert s.pull(10) == (frozenset(), 12)
    assert s.pull(10) == (frozenset(), 13)
    assert s.pull(10) is None
    assert s.pull(10) is None
    assert started == [10]


def test_candidate_stream_ends_at_a_raising_pull():
    # The pull that reaches the error raises it; the stream is then over.
    def outputs(current):
        yield frozenset(), current
        raise PreconditionError("unsupported literal")

    s = ConstraintStream(outputs)
    assert s.pull(0) == (frozenset(), 0)
    with pytest.raises(PreconditionError):
        s.pull(0)
    assert s.pull(0) is None


def test_candidate_stream_serves_one_input():
    # A later pull may pass the first input or an equal one, never
    # another: a stream's outputs are those of its first input.
    def outputs(current):
        for x in range(3):
            yield frozenset(), (x, current)

    d = dom(M("X"))
    first = mgu([(M("X"), a)], d)
    s = ConstraintStream(outputs)
    assert s.pull(first) == (frozenset(), (0, first))
    equal = mgu([(M("X"), a)], d)
    assert equal is not first and equal == first
    assert s.pull(equal) == (frozenset(), (1, first))
    with pytest.raises(PreconditionError):
        s.pull(mgu([], d))
    assert s.pull(first) == (frozenset(), (2, first))
    assert s.pull(first) is None


def test_candidate_stream_reports_used_literals():
    used = frozenset({lit("p", a)})
    s = ConstraintStream(lambda current: iter([(used, 7)]))
    got_used, got = s.pull(0)
    assert got_used == used and got == 7
