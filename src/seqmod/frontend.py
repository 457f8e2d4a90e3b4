"""Problem files, normal form construction, and run orchestration.

A problem is a sequence of s-expressions, declarations and exactly one
goal:

    (declare-pred p 2)              ; both arguments term-sorted
    (declare-pred bound (rat rat))  ; explicit argument sorts
    (declare-fun f 1)
    (declare-const a)
    (goal (forall (x) (exists (y) (or (not (p x y)) (p x y)))))

Formulas use and / or / not / => / forall / exists and atoms.  Binders
take a symbol, a list of symbols, or a list of (name sort) pairs; an
unannotated binder gets its sort from use (arithmetic positions force
rat, uninterpreted positions force term, conflicts are errors, the
default is term).  Terms are variables, constants, (f t ...), rational
literals, and linear arithmetic built from (+ ...), (- ...) and (* q t).
(>= a b) and (> a b) are accepted and stored swapped.  A rational literal
is an optional sign, then ASCII digits with an optional "." fraction or
"/" denominator, then, unless after a denominator, an optional exponent:
3, -2/3, 1.5, 5., .5, 1e1.  A token with an underscore or a zero
denominator is a symbol, and so is a numeral whose length plus the
absolute value of its exponent exceeds 4300.

Goals are normalised on construction: negation is pushed to the atoms,
a negated inequality flips into its complement, and a negated equality
becomes a disjunction of strict inequalities.
"""

from __future__ import annotations

import functools
import json
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from typing import Optional, Union

from . import kernel
from .fol import SubstTheory
from .ground import GroundEnumTheory
from .kernel import ProofTree, SearchConfig
from .lra import LraTheory
from .terms import (
    And,
    ArithAtom,
    BoundVar,
    Context,
    Domain,
    EigenVar,
    Exists,
    Forall,
    Formula,
    FunApp,
    Instantiation,
    LinTerm,
    Literal,
    MetaVar,
    Or,
    PredAtom,
    RatConst,
    Signature,
    SORT_RAT,
    SORT_TERM,
    Term,
    lin_combine,
)
from .theory import Theory

RESERVED = {
    "and", "or", "not", "=>", "forall", "exists",
    "<=", "<", "=", ">=", ">", "+", "-", "*",
    "term", "rat",
    "declare-pred", "declare-fun", "declare-const", "goal",
}


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__("%d:%d: %s" % (line, col, msg))
        self.msg = msg
        self.line = line
        self.col = col


@dataclass(slots=True)  # not frozen: the reader builds one per token
class SNode:
    """One s-expression with its source position."""

    value: Union[str, tuple["SNode", ...]]
    line: int
    col: int

    def err(self, msg: str) -> ParseError:
        return ParseError(msg, self.line, self.col)


# Blanks, then a symbol, a parenthesis or a comment's ";": matches tile a line.
_TOKEN = re.compile(r"([ \t\r]*)([^ \t\r();]+|[()]|;)")


def read_sexprs(text: str) -> tuple[SNode, ...]:
    """The s-expressions of `text`; lines end at "\n" only, columns count from 1."""
    stack: list[tuple[list[SNode], int, int]] = []  # enclosing lists, open positions
    items: list[SNode] = []
    for line, row in enumerate(text.split("\n"), 1):
        col = 1
        for blanks, tok in _TOKEN.findall(row):
            col += len(blanks)
            if tok == "(":
                stack.append((items, line, col))
                items = []
                col += 1
            elif tok == ")":
                if not stack:
                    raise ParseError("unmatched closing parenthesis", line, col)
                outer, l0, c0 = stack.pop()
                outer.append(SNode(tuple(items), l0, c0))
                items = outer
                col += 1
            elif tok == ";":
                break
            else:
                items.append(SNode(tok, line, col))
                col += len(tok)
    if stack:
        raise ParseError("unclosed parenthesis", *stack[-1][1:])
    return tuple(items)


# The numeral grammar of the module docstring, on every Python version.
_NUMERAL = re.compile(
    r"[-+]?(?:[0-9]+/0*[1-9][0-9]*|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE]([-+]?[0-9]+))?)")
# Python's default limit on the digits of an integer read from a string.
_MAX_DIGITS = 4300


@functools.lru_cache(maxsize=1024)  # problems repeat numerals: each `0` arity parses once
def _rational(text: str) -> Optional[Fraction]:
    """The number `text` names, else None.

    A numeral's length plus the size of its exponent bounds the digits
    of its value; past _MAX_DIGITS it is a symbol, so no numeral costs
    more than a 4300-digit integer to read.
    """
    match = _NUMERAL.fullmatch(text)
    if match is None or len(text) > _MAX_DIGITS:
        return None
    exponent = match[1]
    try:  # a lowered int_max_str_digits limit makes a symbol too
        if exponent is not None and len(text) + abs(int(exponent)) > _MAX_DIGITS:
            return None
        return Fraction(text)
    except ValueError:
        return None


def _head(node: SNode) -> Optional[str]:
    """The leading symbol of a list node, else None."""
    v = node.value
    return v[0].value if type(v) is tuple and v and type(v[0].value) is str else None


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True)
class Problem:
    name: str
    signature: Signature
    goals: Context


# A binder's entry: (internal name, explicit sort or None, sorts its uses need).
_Env = dict[str, tuple[str, Optional[str], set[str]]]


class _GoalBuilder:
    """Builds the normal form of one goal s-expression in one pass.

    A use of an unannotated variable records the sort of its position.
    Once its binder's body is built, the variable is rat if some use
    needs rat and term otherwise; uses at both sorts are an error at the
    binder.  An annotated variable used at the other sort is an error at
    the use.
    """

    def __init__(self, sig: Signature) -> None:
        self.preds = dict(sig.preds)
        self.funs = dict(sig.funs)
        self.consts = frozenset(sig.consts)
        self.counter = 0
        self.binds_term = False  # whether some binder is term-sorted

    def binder_specs(self, node: SNode) -> list[tuple[SNode, Optional[str]]]:
        out: list[tuple[SNode, Optional[str]]] = []
        for item in (node,) if type(node.value) is str else node.value:
            if type(item.value) is str:
                out.append((item, None))
            elif (len(item.value) == 2 and type(item.value[0].value) is str
                  and type(item.value[1].value) is str):
                name_node, sort_node = item.value
                if sort_node.value not in (SORT_TERM, SORT_RAT):
                    raise sort_node.err("unknown sort %r" % (sort_node.value,))
                out.append((name_node, sort_node.value))
            else:
                raise item.err("expected a variable or (variable sort)")
        if not out:
            raise node.err("empty binder list")
        for name_node, _ in out:
            name = name_node.value
            if name in RESERVED:
                raise name_node.err("invalid variable name %r" % (name,))
            if _rational(name) is not None:
                raise name_node.err("a number cannot be a variable name")
        return out

    def build(self, node: SNode, positive: bool, env: _Env) -> Formula:
        name = node.value
        if type(name) is str:  # a proposition
            if self.preds.get(name) == ():
                return Literal(positive, PredAtom(name, ()))
            if name in env:
                raise node.err("variable %s used as a formula" % (name,))
            raise node.err("unknown proposition %r" % (name,))
        head = _head(node)
        if head in ("and", "or"):
            subs = node.value[1:]
            if len(subs) < 2:
                raise node.err("%s needs at least two operands" % head)
            conj = (head == "and") == positive
            parts = [self.build(sub, positive, env) for sub in subs]
            out = parts[-1]
            for p in reversed(parts[:-1]):
                out = And(p, out) if conj else Or(p, out)
            return out
        if head == "not":
            if len(node.value) != 2:
                raise node.err("not takes one operand")
            return self.build(node.value[1], not positive, env)
        if head == "=>":
            if len(node.value) != 3:
                raise node.err("=> takes two operands")
            a = self.build(node.value[1], not positive, env)
            b = self.build(node.value[2], positive, env)
            return Or(a, b) if positive else And(a, b)
        if head in ("forall", "exists"):
            if len(node.value) != 3:
                raise node.err("%s takes a binder list and a body" % head)
            inner = dict(env)
            bound = []
            for name_node, explicit in self.binder_specs(node.value[1]):
                entry = ("%s!%d" % (name_node.value, self.counter), explicit, set())
                self.counter += 1
                inner[name_node.value] = entry
                bound.append((name_node, entry))
            body = self.build(node.value[2], positive, inner)
            resolved: list[tuple[str, str]] = []
            for name_node, (internal, explicit, uses) in bound:
                if len(uses) == 2:
                    raise name_node.err(
                        "variable %s is used at both sorts" % (name_node.value,))
                sort = explicit or (SORT_RAT if SORT_RAT in uses else SORT_TERM)
                self.binds_term |= sort == SORT_TERM
                resolved.append((internal, sort))
            universal = (head == "forall") == positive
            cls = Forall if universal else Exists
            for internal, sort in reversed(resolved):
                body = cls(internal, sort, body)
            return body
        return self.atom(node, positive, env)

    def atom(self, node: SNode, positive: bool, env: _Env) -> Formula:
        head = _head(node)
        if head is None:
            raise node.err("expected a formula")
        if head in ("<=", "<", "=", ">=", ">"):
            if len(node.value) != 3:
                raise node.err("%s takes two operands" % head)
            a = self.term(node.value[1], SORT_RAT, env)
            b = self.term(node.value[2], SORT_RAT, env)
            if head == ">=":
                head, a, b = "<=", b, a
            elif head == ">":
                head, a, b = "<", b, a
            if positive:
                return Literal(True, ArithAtom(head, a, b))
            if head == "<=":
                return Literal(True, ArithAtom("<", b, a))
            if head == "<":
                return Literal(True, ArithAtom("<=", b, a))
            return Or(Literal(True, ArithAtom("<", a, b)),
                      Literal(True, ArithAtom("<", b, a)))
        sorts = self.preds.get(head)
        if sorts is None:
            raise node.err("unknown predicate %r" % (head,))
        args = node.value[1:]
        if len(args) != len(sorts):
            raise node.err("%s takes %d arguments, got %d" % (head, len(sorts), len(args)))
        terms = tuple(self.term(a, s, env) for a, s in zip(args, sorts))
        return Literal(positive, PredAtom(head, terms))

    def term(self, node: SNode, expected: str, env: _Env) -> Term:
        name = node.value
        if type(name) is str:
            if name in env:
                internal, explicit, uses = env[name]
                if explicit is None:
                    uses.add(expected)
                elif explicit != expected:
                    raise node.err("variable %s has sort %s, expected %s"
                                   % (name, explicit, expected))
                return BoundVar(internal, expected)
            q = _rational(name)
            if q is not None:
                if expected != SORT_RAT:
                    raise node.err("number in a term-sorted position")
                return RatConst(q)
            if name in self.consts:
                if expected != SORT_TERM:
                    raise node.err("constant %s is term-sorted" % (name,))
                return FunApp(name, ())
            raise node.err("unknown symbol %r" % (name,))
        head = _head(node)
        if head in ("+", "-", "*") and expected != SORT_RAT:
            raise node.err("arithmetic in a term-sorted position")
        if head == "+":
            parts = [self.term(sub, SORT_RAT, env) for sub in node.value[1:]]
            if not parts:
                raise node.err("+ needs operands")
            return lin_combine(*((Fraction(1), p) for p in parts))
        if head == "-":
            parts = [self.term(sub, SORT_RAT, env) for sub in node.value[1:]]
            if len(parts) == 1:
                return lin_combine((Fraction(-1), parts[0]))
            if len(parts) == 2:
                return lin_combine((Fraction(1), parts[0]), (Fraction(-1), parts[1]))
            raise node.err("- takes one or two operands")
        if head == "*":
            if len(node.value) != 3:
                raise node.err("* takes a rational literal and a term")
            first, second = node.value[1], node.value[2]
            q = _rational(first.value) if type(first.value) is str else None
            operand = second
            if q is None:
                q = _rational(second.value) if type(second.value) is str else None
                operand = first
            if q is None:
                raise node.err("* needs a rational literal operand")
            return lin_combine((q, self.term(operand, SORT_RAT, env)))
        arity = self.funs.get(head)
        if arity is not None:
            if expected != SORT_TERM:
                raise node.err("function application in a rational position")
            args = node.value[1:]
            if len(args) != arity:
                raise node.err("%s takes %d arguments, got %d" % (head, arity, len(args)))
            return FunApp(head, tuple(self.term(a, SORT_TERM, env) for a in args))
        raise node.err("cannot parse term")


def parse_problem(text: str, name: str = "<input>") -> Problem:
    preds: list[tuple[str, tuple[str, ...]]] = []
    funs: list[tuple[str, int]] = []
    consts: list[str] = []
    goal_nodes: list[SNode] = []
    declared: set[str] = set()

    def declare(node: SNode) -> None:
        symbol = node.value
        if symbol in RESERVED or _rational(symbol) is not None:
            raise node.err("invalid name %r" % (symbol,))
        if symbol in declared:
            raise node.err("%s is already declared" % (symbol,))
        declared.add(symbol)

    for form in read_sexprs(text):
        head = _head(form)
        if head is None:
            raise form.err("expected a declaration or a goal")
        rest = form.value[1:]
        if head == "declare-pred":
            if len(rest) != 2 or type(rest[0].value) is not str:
                raise form.err("usage: (declare-pred name arity-or-sorts)")
            declare(rest[0])
            if type(rest[1].value) is str:
                arity = _rational(rest[1].value)
                if arity is None or arity.denominator != 1 or arity < 0:
                    raise rest[1].err("arity must be a natural number")
                sorts = (SORT_TERM,) * int(arity)
            else:
                sorts = tuple(s.value for s in rest[1].value if s.value in (SORT_TERM, SORT_RAT))
                if len(sorts) != len(rest[1].value):
                    raise rest[1].err("sorts are term and rat")
            preds.append((rest[0].value, sorts))
        elif head == "declare-fun":
            if len(rest) != 2 or type(rest[0].value) is not str or type(rest[1].value) is not str:
                raise form.err("usage: (declare-fun name arity)")
            declare(rest[0])
            arity = _rational(rest[1].value)
            if arity is None or arity.denominator != 1 or arity < 1:
                raise rest[1].err("arity must be a positive integer")
            funs.append((rest[0].value, int(arity)))
        elif head == "declare-const":
            if len(rest) != 1 or type(rest[0].value) is not str:
                raise form.err("usage: (declare-const name)")
            declare(rest[0])
            consts.append(rest[0].value)
        elif head == "goal":
            if len(rest) != 1:
                raise form.err("usage: (goal formula)")
            if goal_nodes:
                raise form.err("a problem has one goal")
            goal_nodes.append(rest[0])
        else:
            raise form.err("unknown form %r" % (head,))
    if not goal_nodes:
        raise ParseError("no goal", 1, 1)

    sig = Signature(tuple(preds), tuple(funs), tuple(consts))
    builder = _GoalBuilder(sig)
    goals = tuple(builder.build(g, True, {}) for g in goal_nodes)
    if not consts and (funs or builder.binds_term
                       or any(SORT_TERM in sorts for _, sorts in preds)):
        # A closed term of the uninterpreted sort: the first cN not declared.
        sig = Signature(sig.preds, sig.funs,
                        (next(c for c in map("c%d".__mod__, count()) if c not in declared),))
    return Problem(name, sig, goals)


# ---------------------------------------------------------------------------
# Rendering


def render_term(t: Term) -> str:
    if isinstance(t, RatConst):
        return str(t.value)
    if isinstance(t, BoundVar):
        return t.name.rsplit("!", 1)[0]
    if isinstance(t, (EigenVar, MetaVar)):
        return t.name
    if isinstance(t, FunApp):
        if not t.args:
            return t.symbol
        return "(%s %s)" % (t.symbol, " ".join(render_term(a) for a in t.args))
    if isinstance(t, LinTerm):
        parts = []
        for v, c in t.coeffs:
            parts.append(render_term(v) if c == 1 else "(* %s %s)" % (c, render_term(v)))
        if t.const != 0 or not parts:
            parts.append(str(t.const))
        if len(parts) == 1:
            return parts[0]
        return "(+ %s)" % " ".join(parts)
    raise TypeError(t)


def render_formula(f: Formula) -> str:
    cls = type(f)
    if cls is Literal:
        return _render_literal(f)
    if cls is And or cls is Or:
        return "(%s %s %s)" % ("and" if cls is And else "or",
                               render_formula(f.left), render_formula(f.right))
    if cls is Forall or cls is Exists:
        return "(%s ((%s %s)) %s)" % ("forall" if cls is Forall else "exists",
                                      f.var.rsplit("!", 1)[0], f.sort, render_formula(f.body))
    raise TypeError(f)


def _render_literal(f: Literal) -> str:
    atom = f.atom
    if isinstance(atom, ArithAtom):
        if not f.positive:
            raise ValueError("negated arithmetic literal in normal form output")
        return "(%s %s %s)" % (atom.op, render_term(atom.lhs), render_term(atom.rhs))
    text = atom.name if not atom.args else "(%s %s)" % (
        atom.name, " ".join(render_term(a) for a in atom.args))
    return text if f.positive else "(not %s)" % text


def print_problem(problem: Problem) -> str:
    lines = []
    for name, sorts in problem.signature.preds:
        lines.append("(declare-pred %s (%s))" % (name, " ".join(sorts)))
    for name, arity in problem.signature.funs:
        lines.append("(declare-fun %s %d)" % (name, arity))
    for name in problem.signature.consts:
        lines.append("(declare-const %s)" % name)
    for goal in problem.goals:
        lines.append("(goal %s)" % render_formula(goal))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Proof serialization


def tree_to_json(tree: ProofTree) -> dict:
    """The proof as a flat report, `{"formulas": [...], "nodes": [...]}`.

    `formulas` holds each formula object of the proof once, after its
    parts: a literal is its text, a connective `["and", l, r]` or `["or",
    l, r]`, a quantifier `["forall", var, sort, body]` or `["exists",
    var, sort, body]`, where l, r and body are table indices.  `nodes`
    lists the nodes in preorder, node 0 the root.  A node's context is
    its `added` formulas followed by its parent's context without the
    parent's principal, and its domain is its parent's followed by its
    `declared` [kind, name, sort] triples; the root's are all its own.
    That is how the search builds every premise.  Every backend's
    constraints print with `str`.
    """
    formulas: list = []
    positions: dict[int, int] = {}  # id(formula) -> its index in `formulas`
    texts: dict[int, str] = {}  # id(constraint) -> str: siblings share them
    nodes: list[dict] = []
    parents: dict[int, tuple] = {}  # id(child) -> (parent's dict, context kept, decls kept)
    for node in tree.walk():
        parent, kept, known = parents.pop(id(node), (None, 0, 0))
        if parent is not None:
            parent["children"].append(len(nodes))
        context, decls = node.context, node.domain.decls
        output = texts.get(id(node.output))
        if output is None:
            output = texts[id(node.output)] = str(node.output)
        record = {
            "rule": node.rule,
            "added": [_formula_index(f, positions, formulas)
                      for f in context[:len(context) - kept]],
            "declared": [["meta" if isinstance(v, MetaVar) else "eigen", v.name, v.sort]
                         for v in decls[known:]],
            "output": output,
        }
        if node.input is not None:
            text = texts.get(id(node.input))
            if text is None:
                text = texts[id(node.input)] = str(node.input)
            record["input"] = text
        if node.rule == "leaf":
            record["used"] = sorted(str(l) for l in node.used)
            record["stream_index"] = node.stream_index
        else:
            record["principal"] = node.principal
            record["children"] = []
            for c in node.children:
                parents[id(c)] = (record, len(context) - 1, len(decls))
        if node.rule == "exists":
            record["meta"] = node.meta.name
        if node.rule == "forall":
            record["eigen"] = node.eigen.name
        if node.rule == "and":
            record["order_bit"] = node.order_bit
        nodes.append(record)
    return {"formulas": formulas, "nodes": nodes}


def _formula_index(f: Formula, positions: dict[int, int], formulas: list) -> int:
    """The index of `f` in a proof's formula table, entering it, after
    its parts, if it is not there yet; `positions` maps id() to index."""
    index = positions.get(id(f))
    if index is not None:
        return index
    cls = type(f)
    if cls is Literal:
        entry = _render_literal(f)
    elif cls is And or cls is Or:
        entry = ["and" if cls is And else "or", _formula_index(f.left, positions, formulas),
                 _formula_index(f.right, positions, formulas)]
    elif cls is Forall or cls is Exists:
        entry = ["forall" if cls is Forall else "exists", f.var.rsplit("!", 1)[0], f.sort,
                 _formula_index(f.body, positions, formulas)]
    else:
        raise TypeError(f)
    index = positions[id(f)] = len(formulas)
    formulas.append(entry)
    return index


# ---------------------------------------------------------------------------
# Orchestration


def make_theory(name: str, sig: Signature, depth: int = 3) -> Theory:
    """The backend called `name` over a signature; `depth` is enum's term ceiling."""
    if name == "fol":
        return SubstTheory(sig)
    if name == "enum":
        return GroundEnumTheory(sig, ceiling=depth)
    if name == "lra":
        return LraTheory(sig)
    raise ValueError("unknown theory %r" % (name,))


@dataclass
class RunReport:
    problem: str
    config: dict
    outcome: str
    detail: str = ""
    constraint: Optional[str] = None
    proof: Optional[dict] = None
    witnesses: Optional[list[list[str]]] = None
    check: Optional[dict] = None
    stats: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def canonical(self) -> dict:
        out = {
            "problem": self.problem,
            "config": self.config,
            "outcome": self.outcome,
            "constraint": self.constraint,
            "proof": self.proof,
            "stats": self.stats,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        if self.check is not None:
            out["check"] = self.check
        return out

    def to_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)

    def to_text(self) -> str:
        lines = ["%s: %s" % (self.problem, self.outcome.upper())]
        if self.detail:
            lines.append("  %s" % self.detail)
        if self.constraint is not None:
            lines.append("  constraint: %s" % self.constraint)
        if self.witnesses:
            for name, term in self.witnesses:
                lines.append("  witness %s := %s" % (name, term))
        if self.check is not None:
            lines.append("  proof check: %s" % ("ok" if self.check["proof"] else "FAILED"))
            lines.append("  reconstruction: %s"
                         % ("ok" if self.check["reconstruction"] else "FAILED"))
            for d in self.check.get("diagnostics", []):
                lines.append("    %s" % d)
        s = self.stats
        lines.append("  nodes=%s pulls=%s backtracks=%s rounds=%s"
                     % (s.get("nodes"), s.get("pulls"), s.get("backtracks"),
                        s.get("rounds")))
        lines.append("  wall: %.1f ms" % self.wall_ms)
        return "\n".join(lines)


def run(problem: Problem, theory_name: str = "fol",
        cfg: SearchConfig = SearchConfig(), depth: int = 3,
        check: bool = False) -> RunReport:
    theory = make_theory(theory_name, problem.signature, depth)
    # Both dataclasses hold scalars only: `vars` gives what `asdict` deep-copies.
    config = {**vars(cfg), "theory": theory_name, "depth": depth}
    start = time.perf_counter()
    outcome = kernel.prove(problem.goals, Domain.initial(()), theory, cfg)
    report = RunReport(problem=problem.name, config=config, outcome=outcome.status,
                       detail=outcome.detail, stats=dict(vars(outcome.stats)))
    if outcome.status == "proved":
        report.constraint = str(outcome.constraint)
        report.proof = tree_to_json(outcome.tree)
        if check:
            ok_proof, diags = kernel.check_proof(outcome.tree, theory)
            rho = Instantiation.empty(Domain.initial(()))
            witnesses: list[tuple[MetaVar, Term]] = []
            ok_ground, diags2 = kernel.reconstruct_ground(
                outcome.tree, rho, theory, witnesses)
            report.witnesses = [[m.name, render_term(t)] for m, t in witnesses]
            report.check = {
                "proof": ok_proof,
                "reconstruction": ok_ground,
                "diagnostics": diags + diags2,
            }
    report.wall_ms = (time.perf_counter() - start) * 1000.0
    return report
