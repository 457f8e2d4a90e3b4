"""Problem format, normal form construction, CLI behaviour."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqmod import frontend
from seqmod.cli import main
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
from seqmod.terms import (
    And,
    ArithAtom,
    BoundVar,
    DomainError,
    Exists,
    Forall,
    FunApp,
    Lit,
    Literal,
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
    assert prob.signature.pred_sorts("p") == (SORT_TERM, SORT_TERM)
    assert prob.signature.pred_sorts("bound") == (SORT_RAT, SORT_RAT)
    assert prob.signature.fun_arity("f") == 1
    assert "a" in prob.signature.consts
    assert len(prob.goals) == 1


def test_parse_implication_becomes_nnf():
    prob = parse_problem("(declare-pred p 0)\n(goal (=> (p) (p)))")
    goal = prob.goals[0]
    assert isinstance(goal, Or)
    assert isinstance(goal.left, Lit) and not goal.left.lit.positive
    assert isinstance(goal.right, Lit) and goal.right.lit.positive


def test_parse_pushes_negation_to_literals():
    prob = parse_problem("""
        (declare-pred p 1)
        (goal (not (exists (x) (p x))))
    """)
    goal = prob.goals[0]
    assert isinstance(goal, Forall)
    assert isinstance(goal.body, Lit) and not goal.body.lit.positive


def test_negated_comparisons_flip():
    prob = parse_problem("""
        (goal (and (not (<= 1 2)) (and (not (< 1 2)) (not (= 1 2)))))
    """)
    flipped_le = prob.goals[0].left
    assert flipped_le.lit.positive
    assert flipped_le.lit.atom.op == "<"
    rest = prob.goals[0].right
    assert rest.left.lit.atom.op == "<="
    # a negated equality splits into two strict comparisons
    assert isinstance(rest.right, Or)


def test_greater_than_is_stored_swapped():
    prob = parse_problem("(goal (exists ((x rat)) (> x 3)))")
    atom = prob.goals[0].body.lit.atom
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
    atom = prob.goals[0].lit.atom
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


@pytest.mark.parametrize("text,fragment", [
    ("(goal (p))", "unknown"),
    ("(declare-pred p 1)\n(goal (p))", "argument"),
    ("(declare-pred and 1)\n(goal (and))", "invalid name"),
    ("(declare-pred p 0)\n(declare-pred p 0)\n(goal (p))", "already"),
    ("(declare-pred p 0)", "goal"),
    ("(declare-pred p 0)\n(goal (p)", "unclosed"),
    ("(declare-pred p 0)\n(goal (p)))", "unmatched"),
    ("(goal (forall (x) (< x x)))", None),          # rat-sorted forall is fine
])
def test_parse_errors(text, fragment):
    if fragment is None:
        parse_problem(text)
        return
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert fragment.lower() in str(exc.value).lower()


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
    return Lit(Literal(True, PredAtom("p", args)))


def _lt(a, b):
    return Lit(Literal(True, ArithAtom("<", a, b)))


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
     (Signature(), Forall("x!0", SORT_RAT, Lit(Literal(True, ArithAtom(
         "<=", lin_combine((Fraction(2), X0_RAT)), RatConst(Fraction(1)))))))),
    # rat from a declared argument sort
    ("(declare-pred r (rat))\n(goal (exists (x) (r x)))",
     (Signature((("r", (SORT_RAT,)),)),
      Exists("x!0", SORT_RAT, Lit(Literal(True, PredAtom("r", (X0_RAT,))))))),
    # an inner binder of the same name at the other sort
    ("(declare-pred p 1)\n(goal (forall (x) (and (p x) (exists (x) (< x 0)))))",
     (Signature((P1,), (), ("c0",)), Forall("x!0", SORT_TERM, And(
         _p(X0_TERM),
         Exists("x!1", SORT_RAT, _lt(BoundVar("x!1", SORT_RAT), RatConst(Fraction(0)))))))),
    # an unused binder is term-sorted
    ("(declare-pred q 0)\n(goal (forall (x) q))",
     (Signature((("q", ()),)), Forall("x!0", SORT_TERM, Lit(Literal(True, PredAtom("q", ())))))),
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
    stray = Lit(Literal(False, ArithAtom("<=", RatConst(Fraction(0)), RatConst(Fraction(1)))))
    with pytest.raises(ValueError):
        render_formula(stray)


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
    if isinstance(f, Lit):
        value = model[f.lit.atom.name]
        return value if f.lit.positive else not value
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
    assert data["proof"]["rule"] == "exists"


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


@pytest.mark.parametrize("calculus", ["di", "sdi"])
def test_cli_deep_proof_is_never_reported_exhausted(tmp_path, calculus):
    # A proof 500 conjunctions deep: the JSON report nests about 1,000
    # levels, which json.dumps(indent=2) cannot encode at the default
    # recursion limit, and it must not read as exit 1 ("exhausted").  The report repeats each node's context, so this
    # goal keeps it at about 23 MB; the disjunction (or p0 ... p900 (not
    # p0)) proves too, but its report is about 1 GB.
    names = ["p%d" % i for i in range(500)]
    path = tmp_path / "deep_and.prob"
    path.write_text("".join("(declare-pred %s 0)\n" % p for p in names)
                    + "(goal (and %s))\n" % " ".join("(or %s (not %s))" % (p, p) for p in names))
    proc = subprocess.run(
        [sys.executable, "-m", "seqmod.cli", "prove", str(path),
         "--calculus", calculus, "--output", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # json.loads would recurse per level too; the top-level keys are the
    # lines indented by two spaces.
    assert '\n  "outcome": "proved",\n' in proc.stdout


def test_json_text_is_json_dumps_at_any_depth():
    values = [1.5, float("nan"), float("inf"), -float("inf"), -0.0, 10 ** 30, True, False,
              None, "\u00e9\n\"", [], {}, (), (1, "a"), {"b": [], "a": {"c": ()}}]
    deep = {"values": values}
    for i in range(3000):
        deep = {"z": i, "inner": deep} if i % 2 else [i, deep, []]
    limit = sys.getrecursionlimit()
    text = frontend.json_text(deep)
    sys.setrecursionlimit(limit + 10000)  # the standard encoder recurses per level
    try:
        assert text == json.dumps(deep, indent=2, sort_keys=True)
    finally:
        sys.setrecursionlimit(limit)
    cycle = [1]
    cycle.append({"back": cycle})
    with pytest.raises(ValueError):
        frontend.json_text(cycle)
    with pytest.raises(TypeError):
        frontend.json_text({"a": Fraction(1, 2)})


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
