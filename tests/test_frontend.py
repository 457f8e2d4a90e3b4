"""Problem format, normal form construction, CLI behaviour."""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqmod import frontend, kernel
from seqmod.cli import main
from seqmod.fol import SubstTheory
from seqmod.frontend import (
    ParseError,
    Problem,
    parse_problem,
    print_problem,
    render_formula,
    render_term,
    run,
)
from seqmod.kernel import IllFormed, SearchConfig
from seqmod.theory import ConstraintStream, check_metas_compatible
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
    Literal,
    MetaVar,
    Or,
    PredAtom,
    RatConst,
    SORT_RAT,
    SORT_TERM,
    Signature,
    lin_combine,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "src" / "seqmod" / "problems"


# ---------------------------------------------------------------------------
# parsing


def test_parse_signature_and_goal():
    prob = parse_problem("""
        (declare-pred p 2)
        (declare-pred bound (rat rat))
        (declare-fun f 1)
        (declare-const a)
        (goal (p a a))
    """)
    preds = dict(prob.signature.preds)
    assert preds["p"] == (SORT_TERM, SORT_TERM)
    assert preds["bound"] == (SORT_RAT, SORT_RAT)
    assert dict(prob.signature.funs)["f"] == 1
    assert "a" in prob.signature.consts
    assert len(prob.goals) == 1


def test_parse_implication_becomes_nnf():
    prob = parse_problem("(declare-pred p 0)\n(goal (=> (p) (p)))")
    goal = prob.goals[0]
    assert isinstance(goal, Or)
    assert isinstance(goal.left, Literal) and not goal.left.positive
    assert isinstance(goal.right, Literal) and goal.right.positive


def test_parse_pushes_negation_to_literals():
    prob = parse_problem("""
        (declare-pred p 1)
        (goal (not (exists (x) (p x))))
    """)
    goal = prob.goals[0]
    assert isinstance(goal, Forall)
    assert isinstance(goal.body, Literal) and not goal.body.positive


def test_negated_comparisons_flip():
    prob = parse_problem("""
        (goal (and (not (<= 1 2)) (and (not (< 1 2)) (not (= 1 2)))))
    """)
    flipped_le = prob.goals[0].left
    assert flipped_le.positive
    assert flipped_le.atom.op == "<"
    rest = prob.goals[0].right
    assert rest.left.atom.op == "<="
    # a negated equality splits into two strict comparisons
    assert isinstance(rest.right, Or)


def test_greater_than_is_stored_swapped():
    prob = parse_problem("(goal (exists ((x rat)) (> x 3)))")
    atom = prob.goals[0].body.atom
    assert atom.op == "<"
    assert atom.lhs == RatConst(Fraction(3))


def test_nary_connectives_fold():
    prob = parse_problem("""
        (declare-pred p 0)
        (declare-pred q 0)
        (declare-pred r 0)
        (goal (and (p) (q) (r)))
    """)
    goal = prob.goals[0]
    assert isinstance(goal, And) and isinstance(goal.right, And)


def test_binder_sorts_inferred_from_use():
    prob = parse_problem("""
        (declare-pred p 1)
        (goal (exists (x y) (and (p x) (< y 1))))
    """)
    ex = prob.goals[0]
    assert ex.sort == SORT_TERM
    assert ex.body.sort == SORT_RAT


def test_binder_sort_conflict_is_an_error():
    with pytest.raises(ParseError):
        parse_problem("""
            (declare-pred p 1)
            (goal (exists (x) (and (p x) (< x 1))))
        """)


def test_rational_literals():
    prob = parse_problem("(goal (<= 2/3 1))")
    atom = prob.goals[0].atom
    assert atom.lhs == RatConst(Fraction(2, 3))


def test_linear_terms_parse():
    prob = parse_problem("(goal (exists ((x rat)) (<= (+ (* 3 x) (- 1)) (* 2 x))))")
    assert isinstance(prob.goals[0], Exists)


def test_constant_injected_when_term_sort_is_needed():
    prob = parse_problem("(declare-pred p 1)\n(goal (exists (x) (p x)))")
    assert prob.signature.consts != ()
    with_const = parse_problem(
        "(declare-pred p 1)\n(declare-const a)\n(goal (exists (x) (p x)))")
    assert with_const.signature.consts == ("a",)


def _kept(text, fragment, expected):
    """A row from before the exact triples, under its old test id."""
    return pytest.param(text, expected, id="%s-%s" % (text, fragment))


# A numeral whose length plus the size of its exponent passes 4300 (the
# default int-string digit limit of Python 3.10.7 and later) is read as a
# symbol on every Python version.
_LONG = "9" * 5000


def _long(text, expected, id):
    return pytest.param(text % _LONG, expected, id=id)


# One input per error site, with the exact (message, line, column).
@pytest.mark.parametrize("text,expected", [
    _kept("(goal (p))", "unknown", ("unknown predicate 'p'", 1, 7)),
    _kept("(declare-pred p 1)\n(goal (p))", "argument", ("p takes 1 arguments, got 0", 2, 7)),
    _kept("(declare-pred and 1)\n(goal (and))", "invalid name", ("invalid name 'and'", 1, 15)),
    _kept("(declare-pred p 0)\n(declare-pred p 0)\n(goal (p))", "already",
          ("p is already declared", 2, 15)),
    _kept("(declare-pred p 0)", "goal", ("no goal", 1, 1)),
    _kept("(declare-pred p 0)\n(goal (p)", "unclosed", ("unclosed parenthesis", 2, 1)),
    _kept("(declare-pred p 0)\n(goal (p)))", "unmatched",
          ("unmatched closing parenthesis", 2, 11)),
    ("(goal (forall (x) (< x x)))", None),          # rat-sorted forall is fine
    # declarations
    ("p", ("expected a declaration or a goal", 1, 1)),
    ("(assert p)", ("unknown form 'assert'", 1, 1)),
    ("(goal)", ("usage: (goal formula)", 1, 1)),
    ("(declare-pred p)", ("usage: (declare-pred name arity-or-sorts)", 1, 1)),
    ("(declare-pred p 1/2)", ("arity must be a natural number", 1, 17)),
    ("(declare-pred p -1)", ("arity must be a natural number", 1, 17)),
    ("(declare-pred p (term int))", ("sorts are term and rat", 1, 17)),
    ("(declare-fun f)", ("usage: (declare-fun name arity)", 1, 1)),
    ("(declare-fun f 0)", ("arity must be a positive integer", 1, 16)),
    ("(declare-fun f 2.5)", ("arity must be a positive integer", 1, 16)),
    ("(declare-const)", ("usage: (declare-const name)", 1, 1)),
    ("(declare-const a b)", ("usage: (declare-const name)", 1, 1)),
    ("(declare-const 12)", ("invalid name '12'", 1, 16)),
    # binders
    ("(goal (forall (x y) (< x y) p))", ("forall takes a binder list and a body", 1, 7)),
    ("(goal (forall ((x int)) (< x 0)))", ("unknown sort 'int'", 1, 19)),
    ("(goal (forall ((x rat 1)) (< x 0)))", ("expected a variable or (variable sort)", 1, 16)),
    ("(goal (forall () (< 0 1)))", ("empty binder list", 1, 15)),
    ("(goal (exists (not) (< not 0)))", ("invalid variable name 'not'", 1, 16)),
    ("(goal (exists ((1/2 rat)) (< 0 1)))", ("a number cannot be a variable name", 1, 17)),
    ("(goal (forall (5) (< 0 1)))", ("a number cannot be a variable name", 1, 16)),
    # connectives and atoms
    ("(goal (and (< 0 1)))", ("and needs at least two operands", 1, 7)),
    ("(goal (not (< 0 1) (< 1 0)))", ("not takes one operand", 1, 7)),
    ("(goal (=> (< 0 1)))", ("=> takes two operands", 1, 7)),
    ("(goal (forall (x) x))", ("variable x used as a formula", 1, 19)),
    ("(goal q)", ("unknown proposition 'q'", 1, 7)),
    ("(goal ((p) x))", ("expected a formula", 1, 7)),
    ("(goal (<= 1))", ("<= takes two operands", 1, 7)),
    # terms
    ("(declare-pred p 1)\n(goal (p 1))", ("number in a term-sorted position", 2, 10)),
    ("(declare-const a)\n(goal (< a 1))", ("constant a is term-sorted", 2, 10)),
    ("(goal (< b 1))", ("unknown symbol 'b'", 1, 10)),
    ("(declare-pred p 1)\n(goal (p (+ 1 2)))", ("arithmetic in a term-sorted position", 2, 10)),
    ("(goal (< (+) 1))", ("+ needs operands", 1, 10)),
    ("(goal (< (- 1 2 3) 0))", ("- takes one or two operands", 1, 10)),
    ("(goal (< (* 2) 0))", ("* takes a rational literal and a term", 1, 10)),
    ("(goal (exists (x y) (< (* x y) 0)))", ("* needs a rational literal operand", 1, 24)),
    ("(declare-fun f 1)\n(goal (< (f 1) 0))",
     ("function application in a rational position", 2, 10)),
    ("(declare-fun f 1)\n(declare-pred p 1)\n(declare-const a)\n(goal (p (f a a)))",
     ("f takes 1 arguments, got 2", 4, 10)),
    ("(goal (< (g 1) 0))", ("cannot parse term", 1, 10)),
    # numerals too long for Fraction
    _long("(goal (< 0 %s))", ("unknown symbol %r" % _LONG, 1, 12), "long-integer"),
    _long("(goal (< 0 0.%s))", ("unknown symbol %r" % ("0." + _LONG), 1, 12), "long-decimal"),
    _long("(declare-pred p %s)", ("arity must be a natural number", 1, 17), "long-pred-arity"),
    _long("(declare-fun f %s)", ("arity must be a positive integer", 1, 16), "long-fun-arity"),
    # a numeral past the bound on length plus exponent size is a symbol
    ("(goal (< 0 1e10000000))", ("unknown symbol '1e10000000'", 1, 12)),
    # a bare-symbol binder gets the checks of the list form
    ("(goal (forall 5 (< 5 1)))", ("a number cannot be a variable name", 1, 15)),
    ("(declare-pred p 1)\n(goal (forall and (p and)))", ("invalid variable name 'and'", 2, 15)),
    ("(declare-pred p 1)\n(goal (forall (and) (p and)))",
     ("invalid variable name 'and'", 2, 16)),
    # a second goal is not joined to the first
    ("(declare-pred p 0)\n(goal p)\n(goal (not p))", ("a problem has one goal", 3, 1)),
])
def test_parse_errors(text, expected):
    if expected is None:
        parse_problem(text)
        return
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.msg, exc.value.line, exc.value.col) == expected
    assert str(exc.value) == "%d:%d: %s" % (expected[1], expected[2], expected[0])


# The numeral grammar: an optional sign, then digits with an optional "."
# fraction or "/" denominator, then (not after a denominator) an optional
# exponent; ASCII only, no underscores.  A token that does not match is
# a symbol.
@pytest.mark.parametrize("text,value", [
    ("0", Fraction(0)),
    ("42", Fraction(42)),
    ("-7", Fraction(-7)),
    ("+3", Fraction(3)),
    ("007", Fraction(7)),
    ("2/3", Fraction(2, 3)),
    ("-2/4", Fraction(-1, 2)),
    ("1/01", Fraction(1)),
    ("1.5", Fraction(3, 2)),
    ("5.", Fraction(5)),
    (".5", Fraction(1, 2)),
    ("-.5", Fraction(-1, 2)),
    ("1e3", Fraction(1000)),
    ("1E3", Fraction(1000)),
    ("1.5e-1", Fraction(3, 20)),
    ("5.e2", Fraction(500)),
    (".5E+1", Fraction(5)),
    ("1/0", None),        # no rational: a symbol
    ("0/00", None),
    ("1/-2", None),
    ("1/2e3", None),
    ("1/2.5", None),
    ("1_000", None),      # Fraction reads 1000 from Python 3.11 on
    ("1e1_0", None),
    ("\u0661\u0662", None),  # Arabic-Indic digits: Fraction reads 12
    ("\x0c1", None),      # Fraction strips other whitespace
    ("1.2.3", None),
    ("1e", None),
    ("e3", None),
    (".", None),
    ("-", None),
    ("+", None),
    ("0x10", None),
    ("inf", None),
    ("nan", None),
    ("p0", None),
    pytest.param(_LONG, None, id="long-numeral"),
    # the bound on length plus exponent size, from both sides
    pytest.param("9" * 4300, Fraction(10 ** 4300 - 1), id="4300-digits"),
    pytest.param("9" * 4301, None, id="4301-digits"),
    ("1e4294", Fraction(10 ** 4294)),
    ("1e4295", None),
    ("-1e-4292", Fraction(-1, 10 ** 4292)),
    ("-1e-4293", None),
    ("1e10000000", None),
])
def test_numeral_grammar(text, value):
    assert frontend._rational(text) == value


@pytest.mark.parametrize("text", [
    "7" * 1000,               # Fraction raises past the lowered limit
    "1e" + "0" * 999 + "1",   # so does int() on the exponent
])
def test_numeral_past_a_lowered_digit_limit_is_a_symbol(text):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert frontend._rational(text) is None
    finally:
        sys.set_int_max_str_digits(before)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_problem("(declare-pred p 0)\n(goal (q))")
    assert exc.value.line == 2


# ---------------------------------------------------------------------------
# the reader against a character-by-character reference


def _reference_tokens(text):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line, col
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield text[start:i], line, start_col
    yield None, line, col


def _reference_read(text):
    stack = []
    top = []
    for tok, line, col in _reference_tokens(text):
        if tok is None:
            if stack:
                _, l0, c0 = stack[-1]
                raise ParseError("unclosed parenthesis", l0, c0)
            return tuple(top)
        if tok == "(":
            stack.append(([], line, col))
        elif tok == ")":
            if not stack:
                raise ParseError("unmatched closing parenthesis", line, col)
            items, l0, c0 = stack.pop()
            (stack[-1][0] if stack else top).append(frontend.SNode(tuple(items), l0, c0))
        else:
            (stack[-1][0] if stack else top).append(frontend.SNode(tok, line, col))
    return tuple(top)


def _read_outcome(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return (exc.msg, exc.line, exc.col)


READER_PIECES = ["(", ")", ";", "\n", "\r", "\t", " ", "a", "bc", "x!1", "2/3", "-1.5", "é"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(READER_PIECES), max_size=40).map("".join))
def test_reader_matches_reference(text):
    # SNode equality compares values, lines and columns of every node.
    assert _read_outcome(frontend.read_sexprs, text) == _read_outcome(_reference_read, text)


# ---------------------------------------------------------------------------
# binder sort inference


def _p(*args):
    return Literal(True, PredAtom("p", args))


def _lt(a, b):
    return Literal(True, ArithAtom("<", a, b))


X0_TERM = BoundVar("x!0", SORT_TERM)
X0_RAT = BoundVar("x!0", SORT_RAT)
P1 = ("p", (SORT_TERM,))


@pytest.mark.parametrize("text,expected", [
    # an unannotated variable at a term position
    ("(declare-pred p 1)\n(goal (forall (x) (p x)))",
     (Signature((P1,), (), ("c0",)), Forall("x!0", SORT_TERM, _p(X0_TERM)))),
    # an unannotated variable at a rational position
    ("(goal (exists (x) (< x 1)))",
     (Signature(), Exists("x!0", SORT_RAT, _lt(X0_RAT, RatConst(Fraction(1)))))),
    # rat from the operand of *
    ("(goal (forall (x) (<= (* 2 x) 1)))",
     (Signature(), Forall("x!0", SORT_RAT, Literal(True, ArithAtom(
         "<=", lin_combine((Fraction(2), X0_RAT)), RatConst(Fraction(1))))))),
    # rat from a declared argument sort
    ("(declare-pred r (rat))\n(goal (exists (x) (r x)))",
     (Signature((("r", (SORT_RAT,)),)),
      Exists("x!0", SORT_RAT, Literal(True, PredAtom("r", (X0_RAT,)))))),
    # an inner binder of the same name at the other sort
    ("(declare-pred p 1)\n(goal (forall (x) (and (p x) (exists (x) (< x 0)))))",
     (Signature((P1,), (), ("c0",)), Forall("x!0", SORT_TERM, And(
         _p(X0_TERM),
         Exists("x!1", SORT_RAT, _lt(BoundVar("x!1", SORT_RAT), RatConst(Fraction(0)))))))),
    # an unused binder is term-sorted, and a term-sorted binder needs a
    # closed term of its sort: the constant c0
    ("(declare-pred q 0)\n(goal (forall (x) q))",
     (Signature((("q", ()),), (), ("c0",)),
      Forall("x!0", SORT_TERM, Literal(True, PredAtom("q", ()))))),
    # an annotated binder used at the other sort: the error is at the use
    ("(declare-pred p 1)\n(goal (forall ((x rat)) (p x)))",
     ("variable x has sort rat, expected term", 2, 28)),
    # an unannotated binder used at both sorts: the error is at the binder
    ("(declare-pred p 1)\n(goal (exists (x) (and (p x) (< x 1))))",
     ("variable x is used at both sorts", 2, 16)),
    # uses inside an inner scope count for the outer binder
    ("(declare-pred p 1)\n(goal (forall (x) (and (p x) (exists (y) (< x y)))))",
     ("variable x is used at both sorts", 2, 16)),
])
def test_binder_sort_inference(text, expected):
    if isinstance(expected[0], str):
        with pytest.raises(ParseError) as exc:
            parse_problem(text)
        assert (exc.value.msg, exc.value.line, exc.value.col) == expected
    else:
        sig, goal = expected
        assert parse_problem(text) == Problem("<input>", sig, (goal,))


# Valid goals that bind a term-sorted variable but declare no constant:
# the witness of that variable needs a closed term, so the parser adds c0.
UNUSED_BINDER = ("(declare-pred p 0) (declare-pred q 0)"
               " (goal (=> (forall (x) q) (=> (not q) (not p))))")
UNUSED_BINDER_BESIDE_RAT = "(goal (exists (y) (exists ((x rat)) (and (<= 0 x) (<= x 1)))))"


@pytest.mark.parametrize("calculus", ["di", "sdi"])
@pytest.mark.parametrize("text, theory", [(UNUSED_BINDER, "fol"), (UNUSED_BINDER, "enum"),
                                          (UNUSED_BINDER_BESIDE_RAT, "lra")],
                         ids=["unused-fol", "unused-enum", "beside-rat-lra"])
def test_a_term_binder_gets_the_default_constant(text, theory, calculus):
    prob = parse_problem(text)
    assert prob.signature.consts == ("c0",)
    report = run(prob, theory, SearchConfig(calculus=calculus), check=True)
    assert report.outcome == "proved"
    assert report.check == {"proof": True, "reconstruction": True, "diagnostics": []}


# ---------------------------------------------------------------------------
# printing round trip


def corpus_texts():
    manifest = json.loads((PROBLEMS / "corpus.json").read_text())
    return [(e["name"], (PROBLEMS / e["file"]).read_text()) for e in manifest]


# Internal names end in !n.  Printing must cut only that suffix, or x!a
# prints as x and the inner x captures it.
BANG_NAMES = ("bang_names",
              "(declare-pred p 1)\n(goal (forall (x!a) (exists (x) (or (p x!a) (not (p x))))))")


def test_print_parse_round_trip_over_the_corpus():
    for name, text in corpus_texts() + [BANG_NAMES]:
        prob = parse_problem(text, name=name)
        printed = print_problem(prob)
        again = parse_problem(printed, name=name)
        assert again.signature == prob.signature, name
        assert again.goals == prob.goals, name
        # canonical output is a fixed point
        assert print_problem(again) == printed, name


def test_render_formula_only_accepts_nnf():
    prob = parse_problem("(declare-pred p 0)\n(goal (p))")
    assert render_formula(prob.goals[0]) == "p"
    # the printer has no spelling for a negated comparison
    stray = Literal(False, ArithAtom("<=", RatConst(Fraction(0)), RatConst(Fraction(1))))
    with pytest.raises(ValueError):
        render_formula(stray)


def test_a_proof_renders_each_formula_once(monkeypatch):
    # Sibling sequents share their formulas, and a node's new formulas
    # are parts of its parent's principal: the formula table holds each
    # distinct formula object once, however many contexts hold it, and
    # each literal is rendered once.
    names = ["p%d" % i for i in range(101)]
    prob = parse_problem("".join("(declare-pred %s 0)\n" % p for p in names)
                         + "(goal (or %s (not p0)))\n" % " ".join(names))
    tree = kernel.prove(prob.goals, Domain.initial(()), SubstTheory(), SearchConfig("di")).tree
    calls = Counter()
    real = frontend._render_literal
    monkeypatch.setattr(frontend, "_render_literal",
                        lambda f: calls.update([id(f)]) or real(f))
    proof = frontend.tree_to_json(tree)
    assert len(proof["formulas"]) == 203  # 102 literals and 101 disjunctions
    assert len(calls) == 102 and max(calls.values()) == 1
    assert len(proof["nodes"]) == len(list(tree.walk()))


def test_render_term_forms():
    assert render_term(RatConst(Fraction(5, 3))) == "5/3"
    assert render_term(FunApp("f", (FunApp("a", ()),))) == "(f a)"


# ---------------------------------------------------------------------------
# normal form preserves classical truth


names = ("p", "q", "r")


def formula_strategy():
    leaf = st.sampled_from([("atom", n) for n in names])
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(st.just("not"), kids),
            st.tuples(st.just("and"), kids, kids),
            st.tuples(st.just("or"), kids, kids),
            st.tuples(st.just("=>"), kids, kids),
        ),
        max_leaves=12,
    )


def to_sexpr(node):
    tag = node[0]
    if tag == "atom":
        return "(%s)" % node[1]
    if tag == "not":
        return "(not %s)" % to_sexpr(node[1])
    return "(%s %s %s)" % (tag, to_sexpr(node[1]), to_sexpr(node[2]))


def eval_source(node, model):
    tag = node[0]
    if tag == "atom":
        return model[node[1]]
    if tag == "not":
        return not eval_source(node[1], model)
    if tag == "and":
        return eval_source(node[1], model) and eval_source(node[2], model)
    if tag == "or":
        return eval_source(node[1], model) or eval_source(node[2], model)
    return (not eval_source(node[1], model)) or eval_source(node[2], model)


def eval_nnf(f, model):
    if isinstance(f, Literal):
        value = model[f.atom.name]
        return value if f.positive else not value
    if isinstance(f, And):
        return eval_nnf(f.left, model) and eval_nnf(f.right, model)
    if isinstance(f, Or):
        return eval_nnf(f.left, model) or eval_nnf(f.right, model)
    raise AssertionError("quantifier in a propositional formula")


@settings(max_examples=120, deadline=None)
@given(formula_strategy(), st.tuples(*[st.booleans()] * len(names)))
def test_nnf_preserves_truth(node, values):
    model = dict(zip(names, values))
    decls = "".join("(declare-pred %s 0)\n" % n for n in names)
    prob = parse_problem(decls + "(goal %s)" % to_sexpr(node))
    assert eval_nnf(prob.goals[0], model) == eval_source(node, model)


# ---------------------------------------------------------------------------
# run reports and the CLI


def test_run_report_json_is_deterministic():
    text = (PROBLEMS / "fol_drinker.prob").read_text()
    prob = parse_problem(text, name="fol_drinker")
    r1 = run(prob, theory_name="fol", cfg=SearchConfig(), check=True)
    r2 = run(prob, theory_name="fol", cfg=SearchConfig(), check=True)
    assert r1.to_json() == r2.to_json()
    data = json.loads(r1.to_json())
    assert data["outcome"] == "proved"
    assert data["check"] == {"proof": True, "reconstruction": True, "diagnostics": []}
    assert data["proof"]["nodes"][0]["rule"] == "exists"


def test_run_report_records_witnesses():
    text = (PROBLEMS / "fol_drinker.prob").read_text()
    prob = parse_problem(text, name="fol_drinker")
    rep = run(prob, theory_name="fol", cfg=SearchConfig(), check=True)
    assert rep.witnesses is not None and len(rep.witnesses) == 2


def cli(*argv):
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_prove_exit_codes():
    code, out, _ = cli("prove", str(PROBLEMS / "fol_drinker.prob"), "--check")
    assert code == 0
    assert "PROVED" in out
    code, out, _ = cli("prove", str(PROBLEMS / "fol_atom_unprovable.prob"))
    assert code == 1
    assert "EXHAUSTED" in out
    code, out, _ = cli("prove", str(PROBLEMS / "fol_drinker.prob"), "--nodes", "5")
    assert code == 3
    assert "node budget exhausted" in out


@pytest.mark.parametrize("nodes, rounds", [("5", 2), ("0", 1)])
def test_deepening_stops_in_the_round_that_spends_the_node_budget(nodes, rounds):
    # The drinker needs a second round; 5 nodes run out inside it and 0
    # inside the first.  No later round starts once the budget is spent.
    code, out, _ = cli("prove", str(PROBLEMS / "fol_drinker.prob"), "--nodes", nodes,
                       "--output", "json")
    assert code == 3
    stats = json.loads(out)["stats"]
    assert (stats["nodes"], stats["rounds"]) == (int(nodes), rounds)


def test_cli_rejects_bad_input(tmp_path):
    code, _, err = cli("prove", str(PROBLEMS / "nonexistent.prob"))
    assert code == 2
    bad = PROBLEMS.parent.parent.parent / "tests"  # a directory, not a file
    code, _, err = cli("prove", str(bad))
    assert code == 2
    not_utf8 = tmp_path / "not_utf8.prob"
    not_utf8.write_bytes(b"\xff")
    deep = tmp_path / "deep.prob"
    deep.write_text("(declare-pred p 0)\n(goal (or p %sp%s))\n" % ("(not " * 991, ")" * 991))
    wide = []
    for n in (1000, 5000):
        # Parsed flat, but nested once the search walks the disjunction.
        names = ["p%d" % i for i in range(n)]
        wide.append(tmp_path / ("or%d.prob" % n))
        wide[-1].write_text("".join("(declare-pred %s 0)\n" % p for p in names)
                            + "(goal (or %s))\n" % " ".join(names))
    for path in (not_utf8, *wide, deep):
        code, out, err = cli("prove", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if path != not_utf8:
            assert err == "error: input nested too deeply\n"


def test_cli_accepts_a_byte_order_mark(tmp_path):
    # Some editors start a UTF-8 file with U+FEFF; the reader drops it.
    source = PROBLEMS / "fol_drinker.prob"
    marked = tmp_path / "fol_drinker.prob"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    reports = []
    for path in (source, marked):
        code, out, err = cli("prove", str(path), "--check", "--output", "json")
        assert (code, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("calculus", ["di", "sdi"])
def test_cli_deep_proof_is_never_reported_exhausted(tmp_path, calculus):
    # A proof 500 conjunctions deep, about 1,000 nodes from root to leaf:
    # it must not read as exit 1 ("exhausted").  The report lists the
    # nodes flat, so json.loads reads it at the default recursion limit.
    names = ["p%d" % i for i in range(500)]
    path = tmp_path / "deep_and.prob"
    path.write_text("".join("(declare-pred %s 0)\n" % p for p in names)
                    + "(goal (and %s))\n" % " ".join("(or %s (not %s))" % (p, p) for p in names))
    proc = subprocess.run(
        [sys.executable, "-m", "seqmod.cli", "prove", str(path),
         "--calculus", calculus, "--output", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outcome"] == "proved"


@pytest.mark.parametrize("argv", [
    ("conformance", "fol", "--cases", "-3"),
    ("prove", str(PROBLEMS / "prop_peirce.prob"), "--nodes", "-1"),
    ("prove", str(PROBLEMS / "prop_peirce.prob"), "--depth", "-2"),
])
def test_cli_rejects_negative_counts(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_cli_rejects_zero_conformance_cases(capsys):
    # Zero cases per law would check nothing and still report ok.
    with pytest.raises(SystemExit) as exc:
        main(["conformance", "fol", "--cases", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "expected a positive integer, got 0" in err


@pytest.mark.parametrize("exc, code", [
    (IllFormed("free bound variable"), 2),
    (DomainError("meta-variable ?X1 not declared"), 4),
    (RuntimeError("two\nlines"), 4),
])
def test_cli_exit_code_for_errors_during_search(monkeypatch, exc, code):
    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr(frontend, "run", crash)
    got, out, err = cli("prove", str(PROBLEMS / "prop_peirce.prob"))
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: " if code == 4 else "error: ")


@pytest.mark.parametrize("theory", ["fol", "enum"])
def test_cli_domain_mismatch_names_the_authorised_sets(monkeypatch, theory):
    # The two domains declare the same metas, and differ only in what
    # ?X03 may see.  The message must show that difference, or it reads
    # as a false alarm.
    x12, x03 = EigenVar("x12", SORT_TERM), MetaVar("X03", SORT_TERM)
    sees = Domain().add_eigen(x12).add_meta(x03)
    blind = Domain().add_meta(x03).add_eigen(x12)

    def mismatch(problem, theory_name, *args, **kwargs):
        assert theory_name == theory
        check_metas_compatible(sees, blind)

    monkeypatch.setattr(frontend, "run", mismatch)
    code, out, err = cli("prove", str(PROBLEMS / "fol_drinker.prob"),
                         "--theory", theory, "--calculus", "sdi")
    assert code == 4 and out == ""
    prefix = "internal error: DomainMismatch: domains disagree on meta-variables: "
    assert err.startswith(prefix)
    left, right = err[len(prefix):].strip().split(" vs ")
    assert left != right
    assert "?X03 sees {x12}" in left + right


class _NonGroundWitness(SubstTheory):
    def witness_payload(self, sigma, meta, rho):
        return MetaVar("Z9")


class _NonGroundLeaf(SubstTheory):
    def consistency(self, lits, domain):
        stream = super().consistency(lits, domain)
        extra = Literal(True, PredAtom("p", (MetaVar("Q9"),)))

        def outputs(current):
            while (res := stream.pull(current)) is not None:
                yield res[0] | {extra}, res[1]

        return ConstraintStream(outputs)


@pytest.mark.parametrize("broken, diagnostic", [
    (_NonGroundWitness, "witness failed at ?X2: instantiation image ?Z9 is not ground"),
    (_NonGroundLeaf, "leaf literal p(?Q9) is not ground"),
], ids=["witness", "leaf"])
def test_check_reports_a_broken_backend_as_a_failed_audit(monkeypatch, broken, diagnostic):
    # A backend that breaks its contract fails the --check audit: not a
    # crash (exit 4), and not bad input (exit 2).
    monkeypatch.setattr(frontend, "make_theory", lambda name, sig, depth=3: broken(sig))
    code, out, err = cli("prove", str(PROBLEMS / "fol_drinker.prob"), "--check")
    assert code == 0
    assert "reconstruction: FAILED" in out
    assert "    " + diagnostic + "\n" in out
    assert err == "warning: proof audit failed\n"


def test_cli_json_output_is_stable(tmp_path):
    target = PROBLEMS / "lra_interval_pair.prob"
    argv = ("prove", str(target), "--theory", "lra", "--calculus", "di",
            "--check", "--output", "json")
    code1, out1, _ = cli(*argv)
    code2, out2, _ = cli(*argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["constraint"] == "TRUE"


def test_cli_conformance_smoke():
    code, out, _ = cli("conformance", "fol", "--cases", "40")
    assert code == 0
    assert "AX_proj" in out


@pytest.mark.parametrize("argv", [
    ("prove", str(PROBLEMS / "fol_drinker.prob"), "--output", "json"),
    ("conformance", "fol", "--cases", "5", "--output", "json"),
], ids=["prove", "conformance"])
def test_cli_closed_stdout_keeps_the_exit_code(argv):
    # stdout is a pipe whose read end is already closed, as when the
    # output goes to `head -c 10`: the first write fails with EPIPE.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "seqmod.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


_IMPORT_FOOTPRINT = r"""
import json, sys
before = set(sys.modules)
unwanted = {"hashlib", "_hashlib", "seqmod.harness"}
import seqmod
after_import = sorted(unwanted & (set(sys.modules) - before))
from seqmod import cli
code = cli.main(["prove", sys.argv[1]])
after_prove = sorted(unwanted & (set(sys.modules) - before))
try:
    seqmod.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
harness_names = [getattr(seqmod, n).__module__
                 for n in ("run_conformance", "mutants", "ConformanceResult")]
star = {}
exec("from seqmod import *", star)
print(json.dumps({"after_import": after_import, "after_prove": after_prove, "exit": code,
                  "unknown": unknown, "harness_names": harness_names,
                  "star_missing": sorted(set(seqmod.__all__) - set(star)),
                  "harness_loaded": "seqmod.harness" in sys.modules}))
"""


def test_a_prove_run_loads_neither_hashlib_nor_the_harness():
    # hashlib loads OpenSSL (3.6 MB) and only --order random uses it; the
    # conformance harness is for checking backends.  Both load on first
    # use, and the package still exposes the harness's names.
    src = str(Path(frontend.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", _IMPORT_FOOTPRINT, str(PROBLEMS / "fol_drinker.prob")]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["after_import"] == [] and got["after_prove"] == []
    assert got["exit"] == 0
    assert got["unknown"] == "module 'seqmod' has no attribute 'no_such_name'"
    assert got["harness_names"] == ["seqmod.harness"] * 3
    assert got["star_missing"] == []
    assert got["harness_loaded"]


def test_cli_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "seqmod.cli", "prove",
         str(PROBLEMS / "prop_peirce.prob")],
        capture_output=True, text=True)
    assert proc.returncode == 0
