"""Linear rational arithmetic backend: atoms, elimination, witnesses."""

import dataclasses
import hashlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqmod.frontend import parse_problem, run
from seqmod import lra
from seqmod.kernel import SearchConfig, prove
from seqmod.lra import (
    LinAtom,
    LraTheory,
    PolyConstraint,
    atom_from_terms,
    eliminate_var_system,
    lin_atom_of_literal,
    make_atom,
    make_poly,
    normalize_system,
)
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
    SORT_RAT,
    SORT_TERM,
    lin_combine,
    mk_lin,
)
from seqmod.theory import PreconditionError, ResourceLimit

Q = Fraction
R = lambda v: RatConst(Q(v))
M = lambda n: MetaVar(n, SORT_RAT)
E = lambda n: EigenVar(n, SORT_RAT)

TH = LraTheory()


def dom(*decls):
    d = Domain()
    for v in decls:
        d = d.add_eigen(v) if isinstance(v, EigenVar) else d.add_meta(v)
    return d


def point(d, *vals):
    return Instantiation(d, tuple((m, R(v)) for m, v in zip(d.metas, vals)))


def band(d, var, lo, hi):
    """lo <= var <= hi as a one-disjunct constraint."""
    return make_poly(d, [(make_atom("<=", {var: Q(-1)}, Q(lo)),
                          make_atom("<=", {var: Q(1)}, -Q(hi)))])


# ---------------------------------------------------------------------------
# atoms and systems


def test_make_atom_drops_zero_coefficients():
    atom = make_atom("<=", {M("X"): Q(0), M("Y"): Q(2)}, Q(1))
    assert atom.coeffs == ((M("Y"), Q(2)),)


def test_make_atom_normalises_equality_sign():
    a1 = make_atom("=", {M("X"): Q(-2)}, Q(4))
    a2 = make_atom("=", {M("X"): Q(2)}, Q(-4))
    assert a1 == a2


def test_atom_from_terms_moves_everything_left():
    # 3 <= X + 1 becomes -X + 2 <= 0
    atom = atom_from_terms("<=", R(3), lin_combine((Q(1), M("X")), (Q(1), R(1))))
    assert atom.op == "<="
    assert atom.coeffs == ((M("X"), Q(-1)),)
    assert atom.const == Q(2)


def test_lin_atom_of_literal_flips_negations():
    # not (X <= 1) is 1 < X
    lit = Literal(False, ArithAtom("<=", M("X"), R(1)))
    atom = lin_atom_of_literal(lit)
    assert atom.op == "<"
    assert atom.coeffs == ((M("X"), Q(-1)),)
    assert atom.const == Q(1)


def test_normalize_system_prunes_trivial_atoms():
    sat = make_atom("<=", {}, Q(-1))        # -1 <= 0, always true
    assert normalize_system([sat]) == frozenset()
    unsat = make_atom("<", {}, Q(0))        # 0 < 0
    assert normalize_system([unsat]) is None


def test_normalize_system_keeps_real_atoms():
    atom = make_atom("<=", {M("X"): Q(1)}, Q(0))
    assert normalize_system([atom]) == frozenset({atom})


# ---------------------------------------------------------------------------
# elimination


def test_eliminate_var_combines_opposite_bounds():
    # 1 <= X and X <= 0: eliminating X exposes the contradiction
    s = frozenset({make_atom("<=", {M("X"): Q(-1)}, Q(1)),
                   make_atom("<=", {M("X"): Q(1)}, Q(0))})
    assert eliminate_var_system(s, M("X")) is None


def test_eliminate_var_keeps_transitive_consequences():
    # Y <= X and X <= Z gives Y <= Z
    s = frozenset({make_atom("<=", {M("Y"): Q(1), M("X"): Q(-1)}, Q(0)),
                   make_atom("<=", {M("X"): Q(1), M("Z"): Q(-1)}, Q(0))})
    out = eliminate_var_system(s, M("X"))
    assert out == frozenset({make_atom("<=", {M("Y"): Q(1), M("Z"): Q(-1)}, Q(0))})


def test_eliminate_var_equality_substitutes():
    # X = 3 and X <= Y gives 3 <= Y
    s = frozenset({make_atom("=", {M("X"): Q(1)}, Q(-3)),
                   make_atom("<=", {M("X"): Q(1), M("Y"): Q(-1)}, Q(0))})
    out = eliminate_var_system(s, M("X"))
    assert out == frozenset({make_atom("<=", {M("Y"): Q(-1)}, Q(3))})


def test_eliminate_var_drops_a_coefficient_that_cancels():
    # -Y <= X and X <= Z - Y gives 0 <= Z: Y's coefficients cancel exactly
    X, Y, Z = M("X"), M("Y"), M("Z")
    s = frozenset({make_atom("<=", {X: Q(-1), Y: Q(-1)}, Q(0)),
                   make_atom("<=", {X: Q(1), Y: Q(1), Z: Q(-1)}, Q(0))})
    out = eliminate_var_system(s, X)
    assert out == _fraction_eliminate(s, X) == frozenset({make_atom("<=", {Z: Q(-1)}, Q(0))})
    assert [v for v, _ in next(iter(out)).coeffs] == [Z]


def test_eliminate_var_decides_a_constant_pair():
    # X/3 - 1/6 <= 0 and 1 - 3X/2 < 0, i.e. 2/3 < X <= 1/2: no variable is
    # left, and the constant is a contradiction
    s = frozenset({make_atom("<=", {M("X"): Q(1, 3)}, Q(-1, 6)),
                   make_atom("<", {M("X"): Q(-3, 2)}, Q(1))})
    assert eliminate_var_system(s, M("X")) is None
    assert _fraction_eliminate(s, M("X")) is None


def is_true(sigma):
    """Some disjunct of the constraint is the empty system."""
    return any(not s for s in sigma.disjuncts)


def test_fm_eliminate_feasible_band_becomes_true():
    d = dom(M("X"))
    sigma = band(d, M("X"), 15, Q(46, 3))
    out = TH.project(sigma, M("X"))
    assert is_true(out)


def test_fm_eliminate_empty_band_becomes_false():
    d = dom(M("X"))
    sigma = band(d, M("X"), 2, 1)
    assert TH.project(sigma, M("X")).is_false


def test_fm_eliminate_distributes_over_disjuncts():
    d = dom(M("X"))
    sigma = make_poly(d, [(make_atom("<", {}, Q(0)),),          # unsat disjunct
                          (make_atom("<=", {M("X"): Q(1)}, Q(0)),)])
    out = TH.project(sigma, M("X"))
    assert is_true(out)


def test_strict_bounds_meeting_at_a_point_are_unsat():
    d = dom(M("X"))
    sigma = make_poly(d, [(make_atom("<", {M("X"): Q(-1)}, Q(1)),
                           make_atom("<", {M("X"): Q(1)}, Q(-1)))])
    assert not TH.satisfiable(sigma)
    assert TH.project(sigma, M("X")).is_false


def test_lra_sat_basic():
    d = dom(M("X"))
    assert TH.satisfiable(TH.top(d))
    assert TH.satisfiable(band(d, M("X"), 0, 0))
    assert not TH.satisfiable(band(d, M("X"), 1, 0))


# ---------------------------------------------------------------------------
# the theory interface


def test_project_is_elimination_plus_domain_shrink():
    d = dom(M("X"), M("Y"))
    # X <= Y <= X + 1
    sigma = make_poly(d, [(make_atom("<=", {M("X"): Q(1), M("Y"): Q(-1)}, Q(0)),
                           make_atom("<=", {M("Y"): Q(1), M("X"): Q(-1)}, Q(-1)))])
    out = TH.project(sigma, M("Y"))
    assert out.domain.metas == (M("X"),)
    assert is_true(out)
    with pytest.raises(PreconditionError):
        TH.project(sigma, M("X"))


def test_meet_is_conjunction_with_a_sat_gate():
    d = dom(M("X"))
    a = band(d, M("X"), 0, 10)
    b = band(d, M("X"), 5, 20)
    m = TH.meet(a, b)
    assert m is not None
    assert TH.compatible(point(d, 7), m)
    assert not TH.compatible(point(d, 3), m)
    assert TH.meet(band(d, M("X"), 0, 1), band(d, M("X"), 2, 3)) is None


def test_compatible_evaluates_under_the_instantiation():
    d = dom(M("X"))
    sigma = band(d, M("X"), 15, Q(46, 3))
    assert TH.compatible(point(d, 15), sigma)
    assert TH.compatible(point(d, Q(46, 3)), sigma)
    assert not TH.compatible(point(d, 16), sigma)


def test_compatible_uses_the_eigen_valuation():
    ex = E("e")
    d = Domain().add_eigen(ex).add_meta(M("X"))
    # X <= e with e valued at 0
    sigma = make_poly(d, [(make_atom("<=", {M("X"): Q(1), ex: Q(-1)}, Q(0)),)])
    assert TH.compatible(point(d, -1), sigma)
    assert not TH.compatible(point(d, 1), sigma)


@pytest.mark.parametrize("op, lhs, rhs, value, holds", [
    ("<", R(0), M("X"), 0, False),
    ("<", R(0), M("X"), Q(1, 2), True),
    ("<=", M("X"), R(0), 0, True),
    ("=", lin_combine((Q(3), M("X")), (Q(-1), R(1))), R(0), Q(1, 3), True),
], ids=["lt-at-0", "lt-at-half", "le-at-0", "eq-at-third"])
def test_compatible_at_the_boundary(op, lhs, rhs, value, holds):
    d = dom(M("X"))
    sigma = make_poly(d, [(atom_from_terms(op, lhs, rhs),)])
    assert TH.compatible(point(d, value), sigma) is holds


def test_witness_midpoint_of_a_band():
    d = dom(M("X"))
    sigma = band(d, M("X"), 15, Q(46, 3))
    rho = Instantiation(Domain(), ())
    assert TH.witness(sigma, rho) == R(Q(91, 6))


def test_witness_point_and_half_bounded_cases():
    d = dom(M("X"))
    rho = Instantiation(Domain(), ())
    assert TH.witness(band(d, M("X"), 3, 3), rho) == R(3)
    only_lo = make_poly(d, [(make_atom("<=", {M("X"): Q(-1)}, Q(5)),)])
    assert TH.witness(only_lo, rho) == R(6)
    only_hi = make_poly(d, [(make_atom("<", {M("X"): Q(1)}, Q(-5)),)])
    assert TH.witness(only_hi, rho) == R(4)
    assert TH.witness(TH.top(d), rho) == R(0)


def test_witness_skips_infeasible_disjuncts():
    d = dom(M("X"))
    sigma = make_poly(d, [(make_atom("<=", {M("X"): Q(1)}, Q(0)),
                           make_atom("<=", {M("X"): Q(-1)}, Q(1))),   # 1 <= X <= 0
                          (make_atom("=", {M("X"): Q(2)}, Q(-5)),)])  # 2X = 5
    rho = Instantiation(Domain(), ())
    assert TH.witness(sigma, rho) == R(Q(5, 2))


@pytest.mark.parametrize("text, witnesses", [
    ("(declare-pred p 1) (goal (exists (x) (or (p x) (not (p x)))))", [["X1", "c0"]]),
    ("(declare-pred p 1) (goal (forall (y) (exists (x) (or (p x) (not (p x))))))",
     [["X1", "y1"]]),
    ("(declare-pred p 1) (declare-const k)"
     " (goal (exists ((r rat)) (exists (x) (and (> r 0) (or (p x) (not (p x)))))))",
     [["R1", "1"], ["X1", "k"]]),
], ids=["constant", "eigenvariable", "next-to-a-rational"])
@pytest.mark.parametrize("calculus", ["di", "sdi"])
def test_term_sorted_witness_is_an_authorised_eigenvariable_or_a_constant(
        text, witnesses, calculus):
    # The backend never constrains a meta-variable of the uninterpreted
    # sort; its witness is the one fol would pick, never a rational.
    report = run(parse_problem(text), "lra", SearchConfig(calculus=calculus), check=True)
    assert report.outcome == "proved"
    assert report.witnesses == witnesses
    assert report.check["proof"] and report.check["reconstruction"]


EXISTS_BETWEEN = (Path(__file__).resolve().parents[1] / "src" / "seqmod" / "problems"
                  / "lra_exists_between.prob").read_text()


@pytest.mark.parametrize("calculus", ["di", "sdi"])
def test_the_search_decides_satisfiability_through_satisfiable(calculus):
    # `meet` and the leaf stream call the public `satisfiable`, so a
    # wrapper on one instance counts every decision, each nested in the
    # operation that made it.  Only di meets constraints in this proof.
    prob = parse_problem(EXISTS_BETWEEN)
    theory = LraTheory(prob.signature)
    where, calls = [], []
    satisfiable, meet, consistency = theory.satisfiable, theory.meet, theory.consistency

    def within(name, fn):
        def wrapped(*args):
            where.append(name)
            try:
                return fn(*args)
            finally:
                where.pop()
        return wrapped

    def counted_consistency(lits, domain):
        stream = consistency(lits, domain)
        stream.pull = within("pull", stream.pull)
        return stream

    def counted_satisfiable(sigma):
        calls.append(where[-1] if where else None)
        return satisfiable(sigma)

    theory.satisfiable = counted_satisfiable
    theory.meet = within("meet", meet)
    theory.consistency = counted_consistency
    assert prove(prob.goals, Domain(), theory, SearchConfig(calculus=calculus)).status == "proved"
    assert None not in calls
    assert "pull" in calls
    assert ("meet" in calls) == (calculus == "di")


def test_witness_tie_between_bounds_is_strict_when_any_tied_bound_is():
    d = dom(M("X"))
    rho = Instantiation(Domain(), ())
    one_le_x = make_atom("<=", {M("X"): Q(-1)}, Q(1))
    one_lt_x = make_atom("<", {M("X"): Q(-1)}, Q(1))
    # 1 <= X, 1 < X, X <= 2
    sigma = make_poly(d, [(one_le_x, one_lt_x, make_atom("<=", {M("X"): Q(1)}, Q(-2)))])
    assert TH.witness(sigma, rho) == R(Q(3, 2))
    # (1 <= X, 1 < X, X <= 1) | 2X = 5: the first disjunct is empty only
    # because the tied lower bound 1 < X is strict.
    sigma = make_poly(d, [(one_le_x, one_lt_x, make_atom("<=", {M("X"): Q(1)}, Q(-1))),
                          (make_atom("=", {M("X"): Q(2)}, Q(-5)),)])
    assert TH.witness(sigma, rho) == R(Q(5, 2))


def test_witness_solves_relative_to_earlier_metas():
    d = dom(M("X"), M("Y"))
    # X <= Y <= X + 1 with X already fixed at 10
    sigma = make_poly(d, [(make_atom("<=", {M("X"): Q(1), M("Y"): Q(-1)}, Q(0)),
                           make_atom("<=", {M("Y"): Q(1), M("X"): Q(-1)}, Q(-1)))])
    rho = point(dom(M("X")), 10)
    w = TH.witness(sigma, rho)
    assert w == R(Q(21, 2))


# ---------------------------------------------------------------------------
# closing streams and ground validity


def lit_le(lhs, rhs):
    return Literal(True, ArithAtom("<=", lhs, rhs))


def test_consistency_offers_dual_pairs_and_arith_literals():
    p = lambda *args: PredAtom("p", tuple(args))
    d = dom(M("X"), M("Y"))
    lits = (Literal(True, p(M("X"))), Literal(False, p(M("Y"))), lit_le(M("X"), R(1)))
    stream = TH.consistency(lits, d)
    seen = []
    while True:
        step = stream.pull(TH.top(d))
        if step is None:
            break
        seen.append(step)
    assert len(seen) == 2
    pair_used, pair_sigma = seen[0]
    assert len(pair_used) == 2
    assert TH.compatible(point(d, 7, 7), pair_sigma)
    assert not TH.compatible(point(d, 7, 8), pair_sigma)
    arith_used, arith_sigma = seen[1]
    assert len(arith_used) == 1
    assert TH.compatible(point(d, 0, 99), arith_sigma)


def test_consistency_requires_agreeing_uninterpreted_positions():
    q = lambda t, r: PredAtom("q", (t, r))
    a = FunApp("a", ())
    b = FunApp("b", ())
    d = dom(M("X"))
    lits = (Literal(True, q(a, M("X"))), Literal(False, q(b, R(0))))
    stream = TH.consistency(lits, d)
    assert stream.pull(TH.top(d)) is None


def test_consistency_solves_rational_positions():
    q = lambda t, r: PredAtom("q", (t, r))
    a = FunApp("a", ())
    d = dom(M("X"))
    lits = (Literal(True, q(a, M("X"))), Literal(False, q(a, R(4))))
    used, sigma = TH.consistency(lits, d).pull(TH.top(d))
    assert TH.compatible(point(d, 4), sigma)
    assert not TH.compatible(point(d, 5), sigma)


def test_consistency_gates_on_input_satisfiability():
    d = dom(M("X"))
    lits = (lit_le(R(5), M("X")),)
    stream = TH.consistency(lits, d)
    assert stream.pull(band(d, M("X"), 0, 1)) is None


def test_consistency_builds_each_candidate_when_a_pull_reaches_it():
    # The first pull closes on the dual pair, so the negated equality
    # after it is never turned into an atom; the pull that reaches it
    # raises.
    p = PredAtom("p", ())
    d = dom(M("X"))
    ne = Literal(False, ArithAtom("=", M("X"), R(1)))
    stream = TH.consistency((Literal(True, p), Literal(False, p), ne), d)
    used, _ = stream.pull(TH.top(d))
    assert used == frozenset((Literal(True, p), Literal(False, p)))
    with pytest.raises(PreconditionError):
        stream.pull(TH.top(d))


def test_ground_valid_under_the_valuation():
    e = E("e")
    assert TH.ground_valid((lit_le(e, R(0)),))          # 0 <= 0
    assert not TH.ground_valid((Literal(True, ArithAtom("<", e, RatConst(Q(0)))),))
    p = PredAtom("p", (e,))
    assert TH.ground_valid((Literal(True, p), Literal(False, p)))
    # rational arguments are evaluated before comparing predicate atoms
    pa = PredAtom("r", (lin_combine((Q(2), RatConst(Q(1)))),))
    pb = PredAtom("r", (RatConst(Q(2)),))
    assert TH.ground_valid((Literal(True, pa), Literal(False, pb)))


def test_negated_equality_is_true_unless_equal():
    e = E("e")
    ne = Literal(False, ArithAtom("=", e, RatConst(Q(1))))
    assert TH.ground_valid((ne,))                        # 0 != 1
    ne0 = Literal(False, ArithAtom("=", e, RatConst(Q(0))))
    assert not TH.ground_valid((ne0,))


# ---------------------------------------------------------------------------
# properties


small = st.integers(-4, 4)
rational = st.fractions(-4, 4, max_denominator=6)


def sys_strategy(vars_, coeff=small):
    atom = st.builds(
        lambda cs, c, op: make_atom(op, dict(zip(vars_, map(Q, cs))), Q(c)),
        st.lists(coeff, min_size=len(vars_), max_size=len(vars_)),
        coeff,
        st.sampled_from(["<=", "<", "="]),
    )
    return st.lists(atom, min_size=1, max_size=4)


def _fraction_eliminate(atoms, var):
    """eliminate_var_system on `Fraction` operators: the reference the
    integer elimination must match atom for atom."""
    keep, lowers, uppers = lra._split(atoms, var)
    out = set(keep)
    for lo_c, lo_k, lo_s in lowers:
        for hi_c, hi_k, hi_s in uppers:
            coeffs = dict(lo_c)
            for v, c in hi_c:
                coeffs[v] = coeffs.get(v, Q(0)) - c
            atom = make_atom("<" if (lo_s or hi_s) else "<=", coeffs, lo_k - hi_k)
            t = lra._const_truth(atom)
            if t is False:
                return None
            if t is None:
                out.add(atom)
    return normalize_system(out)


MIXED = [M("X"), E("e"), M("Y")]


@settings(max_examples=100, deadline=None)
@given(st.one_of(sys_strategy(MIXED), sys_strategy(MIXED, rational)), st.permutations(MIXED))
def test_integer_elimination_is_fraction_elimination(atoms, order):
    s = ref = frozenset(atoms)
    for var in order:
        s, ref = eliminate_var_system(s, var), _fraction_eliminate(ref, var)
        assert (s is None) == (ref is None)
        if s is None:
            return
        assert s == ref
        rendered = {a: str(a) for a in ref}
        for a in s:
            assert str(a) == rendered[a]
            assert type(a.const) is Fraction
            assert all(type(c) is Fraction for _, c in a.coeffs)


@settings(max_examples=100, deadline=None)
@given(sys_strategy(MIXED, rational),
       st.lists(st.one_of(st.just(Q(0)), rational), min_size=3, max_size=3))
def test_sign_evaluation_is_fraction_evaluation(atoms, values):
    env = dict(zip(MIXED, values))
    for a in atoms:
        assert lra._eval_atom(a, env) == lra._holds(a.op, lra._value(a.coeffs, a.const, env))


@settings(max_examples=60, deadline=None)
@given(sys_strategy([M("X"), M("Y")]))
def test_elimination_preserves_satisfiability(atoms):
    d = dom(M("X"), M("Y"))
    sigma = make_poly(d, [atoms])
    # TH lives across every example, so a stale memo entry shows against
    # a fresh instance.
    expected = LraTheory().satisfiable(sigma)
    assert TH.satisfiable(sigma) == expected
    assert TH.satisfiable(TH.project(sigma, M("Y"))) == expected
    assert LraTheory().satisfiable(TH.project(sigma, M("Y"))) == expected


@settings(max_examples=60, deadline=None)
@given(sys_strategy([M("X"), M("Y")]))
def test_witness_extends_projections(atoms):
    d = dom(M("X"), M("Y"))
    sigma = make_poly(d, [atoms])
    if not TH.satisfiable(sigma):
        return
    projected = TH.project(sigma, M("Y"))
    rho0 = Instantiation(Domain(), ())
    x = TH.witness(projected, rho0)
    rho1 = rho0.extend(dom(M("X")), M("X"), x)
    y = TH.witness(sigma, rho1)
    rho2 = rho1.extend(d, M("Y"), y)
    assert TH.compatible(rho2, sigma)


@settings(max_examples=60, deadline=None)
@given(sys_strategy([M("X")]), st.lists(small, min_size=3, max_size=3))
def test_sat_agrees_with_grid_when_grid_finds_a_point(atoms, probes):
    d = dom(M("X"))
    sigma = make_poly(d, [atoms])
    hit = any(TH.compatible(point(d, v), sigma)
              for v in itertools.chain(probes, (Q(1, 2), Q(-1, 2))))
    if hit:
        assert TH.satisfiable(sigma)
        assert LraTheory().satisfiable(sigma)


# ---------------------------------------------------------------------------
# values computed once per instance


XY = [M("X"), M("Y")]

lit_strategy = st.one_of(
    st.builds(lambda positive, op, v, c: Literal(positive, ArithAtom(op, v, R(c))),
              st.booleans(), st.sampled_from(["<=", "<", "="]), st.sampled_from(XY), small),
    st.builds(lambda positive, t: Literal(positive, PredAtom("p", (t,))),
              st.booleans(), st.sampled_from(XY + [R(1)])),
)


def _outcome(call):
    """What a call gives: its value, or the type of what it raised."""
    try:
        return "value", call()
    except (PreconditionError, ResourceLimit) as exc:
        return "raised", type(exc)


def _apply(th, op, a, b, lits):
    d = dom(*XY)
    if op == "project":
        return _outcome(lambda: th.project(make_poly(d, [a, b]), M("Y")))
    if op == "meet":
        return _outcome(lambda: th.meet(make_poly(d, [a]), make_poly(d, [b])))
    if op == "satisfiable":
        return _outcome(lambda: th.satisfiable(make_poly(d, [a, b])))
    stream = th.consistency(lits, d)
    return [_outcome(lambda: stream.pull(make_poly(d, [a]))) for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["project", "meet", "satisfiable", "pull"]),
                          sys_strategy(XY), sys_strategy(XY),
                          st.lists(lit_strategy, max_size=4).map(tuple)),
                min_size=1, max_size=8))
def test_a_reused_theory_answers_like_a_fresh_one(ops):
    shared = LraTheory()
    for op, a, b, lits in ops:
        assert _apply(shared, op, a, b, lits) == _apply(LraTheory(), op, a, b, lits)


@settings(max_examples=60, deadline=None)
@given(sys_strategy(XY), sys_strategy(XY))
def test_memoised_elimination_is_the_direct_chain(a, b):
    d = dom(*XY)
    sigma = make_poly(d, [a, b])
    direct = make_poly(d, [eliminate_var_system(s, M("Y")) for s in sigma.disjuncts])
    # TH lives across every example, so a stale memo entry shows here.
    assert TH.project(sigma, M("Y")).disjuncts == direct.disjuncts
    assert LraTheory().project(sigma, M("Y")).disjuncts == direct.disjuncts

    def direct_sat(s):
        for v in (M("Y"), M("X")):  # the order `satisfiable` eliminates in
            s = eliminate_var_system(s, v)
            if s is None:
                return False
        return True

    expected = any(direct_sat(s) for s in sigma.disjuncts)
    assert TH.satisfiable(sigma) == expected
    th = LraTheory()
    assert th.satisfiable(sigma) == expected
    assert th.satisfiable(sigma) == expected


def test_a_negated_equality_raises_at_every_pull_that_reaches_it():
    th = LraTheory()
    p = PredAtom("p", ())
    d = dom(M("X"))
    ne = Literal(False, ArithAtom("=", M("X"), R(1)))
    for _ in range(2):  # two streams of one instance
        stream = th.consistency((Literal(True, p), Literal(False, p), ne), d)
        assert stream.pull(th.top(d))[0] == frozenset((Literal(True, p), Literal(False, p)))
        with pytest.raises(PreconditionError):
            stream.pull(th.top(d))
        with pytest.raises(PreconditionError):
            th.consistency((ne,), d).pull(th.top(d))


def test_a_size_cap_raises_on_every_call_that_exceeds_it(monkeypatch):
    monkeypatch.setattr(lra, "MAX_ATOMS", 1)
    d = dom(*XY)
    X, Y = XY
    # X <= Y, 0 <= Y, Y <= 1 and Y <= X + 2: eliminating Y leaves X <= 1
    # and -2 <= X, one atom more than the cap.
    sigma = PolyConstraint(d, (frozenset((
        make_atom("<=", {X: Q(1), Y: Q(-1)}, Q(0)),
        make_atom("<=", {Y: Q(-1)}, Q(0)),
        make_atom("<=", {Y: Q(1)}, Q(-1)),
        make_atom("<=", {Y: Q(1), X: Q(-1)}, Q(-2)),
    )),))
    th = LraTheory()
    for _ in range(2):
        with pytest.raises(ResourceLimit):
            th.project(sigma, Y)
        with pytest.raises(ResourceLimit):
            th.satisfiable(sigma)
        with pytest.raises(ResourceLimit):
            LraTheory().project(sigma, Y)


def _strict_chain(n):
    # 0 < x0 < x1 < ... < x(n-1) < 1, atoms in natural order
    atoms = (["(< 0 x0)"] + ["(< x%d x%d)" % (i, i + 1) for i in range(n - 1)]
             + ["(< x%d 1)" % (n - 1)])
    binders = " ".join("(x%d rat)" % i for i in range(n))
    return "(goal (exists (%s) (and %s)))\n" % (binders, " ".join(atoms))


# sha256 of each report's `to_json()`, recorded before elimination and
# atom evaluation moved to integer numerators.
STRICT_CHAIN_DIGESTS = {
    (2, "di"): "37860a643460f30ee6eacfd63b586a1bcd203c0792d82cd18930e9f7ff74ee8a",
    (2, "sdi"): "4aebc76777a46d1889c408a2d0660a14351faa919d147328e6f92bccfe43c46a",
    (3, "di"): "071f13531d761b7f0918e3f1909fa311251488fecf05c5f4f01f25d3fe757a44",
    (3, "sdi"): "c60428514afae22a10d79cd23096dcd480566b62873f3ff9296fa3f434a8734f",
    (4, "di"): "eab0e2b8b69fd2121e2a6d8371e11cc0be260ba29f25061b9cc377d0800362c5",
    (4, "sdi"): "8f72fff754272a0976d1b16dc5743a6ea986aa3fed8c275547501096114d2af3",
    (5, "di"): "3f325b0bd7b5457ad12a3b888d80e98ec6da8174874c74bfc2671f2d4fe18730",
    (5, "sdi"): "514e8e0a2385bb55262ed4ef1aab73f158b9978f780dc93a388778df05851749",
    (6, "di"): "1df105a11b49f75f08faa34411c9bcbfa775187bd0ea74a487cd74caabbfb91d",
    (6, "sdi"): "b6cdf277f4276068e75d23f92a0dc88207cfe359e59423c8be6c31ad53b93cbc",
    (7, "di"): "7ffb9db1c516ee4f510dd8c13a53d82ac9b9ff7938faa05a35c6eb602de12fdc",
    (7, "sdi"): "9870cefa606bb0a64968168f5cd8ac608eff589b1ba084a4364ae15dbdb708e2",
}


@pytest.mark.parametrize("n, calculus", sorted(STRICT_CHAIN_DIGESTS),
                         ids=["%d-%s" % key for key in sorted(STRICT_CHAIN_DIGESTS)])
def test_strict_chain_is_pinned(n, calculus):
    prob = parse_problem(_strict_chain(n), name="strict_chain_n%d" % n)
    report = run(prob, "lra", SearchConfig(calculus=calculus), check=True)
    assert report.outcome == "proved"
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == STRICT_CHAIN_DIGESTS[n, calculus]


def test_an_atom_renders_its_text_once():
    a = make_atom("<=", {M("X"): Q(2), E("e"): Q(-1)}, Q(3, 2))
    b = make_atom("<=", {E("e"): Q(-1), M("X"): Q(2)}, Q(3, 2))
    text = "%s %s 0" % (mk_lin(dict(a.coeffs), a.const), a.op)
    assert "_text" not in vars(a)
    assert str(a) == text
    assert vars(a)["_text"] == text
    assert str(a) == text
    assert "_text" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert [f.name for f in dataclasses.fields(LinAtom)] == ["op", "coeffs", "const"]
