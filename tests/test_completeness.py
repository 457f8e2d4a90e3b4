"""Completeness on goals that are valid by construction.

A body psi(x) is an NNF formula over the atoms p(x), p(f(x)), q and s.
It is kept only when psi(a) is a propositional tautology in p(a),
p(f(a)), q and s.  Renaming those atoms back shows that psi(x) is a
tautology for every x, so both (exists (x) psi) and (forall (x) psi)
are valid, and each must be proved in di and sdi, under `fol` and
`enum`, with both `--check` audits ok.
"""

import functools
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqmod.frontend import parse_problem, run
from seqmod.kernel import SearchConfig

SIGNATURE = "(declare-pred p 1)\n(declare-pred q 0)\n(declare-pred s 0)\n" \
            "(declare-fun f 1)\n(declare-const a)\n"
ATOMS = ("(p x)", "(p (f x))", "q", "s")

# A leaf is (atom index, sign); an inner node is (connective, left, right).
# A body is a disjunction of two to five small parts, so that about two
# bodies in five are tautologies.
_parts = st.recursive(
    st.tuples(st.integers(0, len(ATOMS) - 1), st.booleans()),
    lambda kids: st.tuples(st.sampled_from(("and", "or")), kids, kids),
    max_leaves=3)
_bodies = st.lists(_parts, min_size=2, max_size=5).map(
    lambda parts: functools.reduce(lambda left, right: ("or", left, right), parts))


def _render(body) -> str:
    if isinstance(body[0], int):
        atom, positive = body
        return ATOMS[atom] if positive else "(not %s)" % ATOMS[atom]
    op, left, right = body
    return "(%s %s %s)" % (op, _render(left), _render(right))


def _value(body, assignment) -> bool:
    if isinstance(body[0], int):
        atom, positive = body
        return assignment[atom] == positive
    op, left, right = body
    combine = all if op == "and" else any
    return combine((_value(left, assignment), _value(right, assignment)))


def _tautology(body) -> bool:
    return all(_value(body, bits)
               for bits in itertools.product((False, True), repeat=len(ATOMS)))


@pytest.mark.parametrize("quantifier", ["exists", "forall"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_bodies)
def test_valid_goals_are_proved_and_pass_both_audits(quantifier, body):
    assume(_tautology(body))
    text = SIGNATURE + "(goal (%s (x) %s))\n" % (quantifier, _render(body))
    problem = parse_problem(text)
    for theory, calculus in itertools.product(("fol", "enum"), ("di", "sdi")):
        report = run(problem, theory, SearchConfig(calculus=calculus), check=True)
        audits = report.check and (report.check["proof"], report.check["reconstruction"])
        assert (report.outcome, audits) == ("proved", (True, True)), \
            (text, theory, calculus, report.check)
