"""Search kernel for one-sided sequents with constraint backends.

Two calculi share one engine.  In producing mode (di) the branches are
independent: each leaf closure produces a constraint, conjunction nodes
meet their children's outputs, and existential nodes project the
introduced meta-variable.  In refining mode (sdi) a constraint is
threaded through the tree: each node receives an input, the first
conjunct's output becomes the second conjunct's input, and leaves refine
the input they are given.  Constraints flow from the leaves back to the
root, where, over a meta-free domain, the empty instantiation must be
compatible with the final constraint for the run to count as proved.

Rule application order is fixed: disjunctions first, then universals,
then under-budget existential expansions, then conjunctions, and leaf
closure last.  Premises are prepended to the remaining context, so the
most recently produced formulas are examined first.  Existential
expansion keeps the quantified formula in context with a per-occurrence
budget, raised by iterative deepening (1, 2, 4, ... up to the cap).
Backtracking is chronological: the most recent choice point (a leaf
stream or a sibling alternative) is retried first.  The only subproof
whose alternatives are consumed more than once is a conjunction's second
premise, re-entered for each alternative of the first; the conjunction
node keeps those alternatives, per input, while it runs (counted as
`memo_hits`).  So one output can reach the same ancestor many times;
two more memos, each living only while its generator runs, compute
each value once: an existential node keeps its child's projected
output per child output, and each deepening round keeps the root
gate's verdict per root output.  Nothing else is cached.  A search that
spends its node budget ends with status "resource".

Only outputs flow from a node to its parent, so each node runs in one
generator frame and yields (record, output), a plain tuple (rule,
entries, domain, input, output, child records, then the fields
`_RECORD_FIELDS` names); `prove` builds ProofTrees only for the
accepted record.  Backtracks: alternatives after a child's first, leaf
pulls after the first, failed meets and root outputs the gate rejects.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .terms import (
    And,
    BoundVar,
    Context,
    Domain,
    EigenVar,
    Exists,
    Forall,
    Formula,
    Instantiation,
    Lit,
    Literal,
    MetaVar,
    Or,
    formula_vars,
    literal_vars,
    literals_of,
    substitute,
)
from .theory import PreconditionError, ResourceLimit, Theory, rehouse

log = logging.getLogger("seqmod.kernel")


class IllFormed(ValueError):
    """The goal context is not well formed over the starting domain."""


@dataclass(frozen=True)
class Sequent:
    domain: Domain
    context: Context
    input: Optional[object] = None  # None in producing mode


@dataclass(frozen=True)
class ProofTree:
    """One derivation node; children follow the formula order of the rule."""

    rule: str  # "or" | "and" | "exists" | "forall" | "leaf"
    sequent: Sequent
    output: object
    children: tuple["ProofTree", ...] = ()
    principal: int = -1
    meta: Optional[MetaVar] = None
    eigen: Optional[EigenVar] = None
    order_bit: int = 0
    used: frozenset[Literal] = frozenset()
    stream_index: int = -1

    def walk(self) -> Iterator["ProofTree"]:
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass(frozen=True)
class SearchConfig:
    calculus: str = "sdi"  # "di" | "sdi"
    order: str = "left"  # first conjunct explored: "left" | "right" | "random"
    seed: int = 0
    max_exists: int = 4
    pulls: int = 32
    nodes: int = 10000


@dataclass
class SearchStats:
    nodes: int = 0
    pulls: int = 0
    backtracks: int = 0
    rounds: int = 0
    memo_hits: int = 0  # replays of a second conjunct's alternatives


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "proved" | "exhausted" | "resource"
    tree: Optional[ProofTree]
    constraint: Optional[object]
    stats: SearchStats
    detail: str = ""


Entry = tuple[Formula, int]


def _well_formed(context: Context, domain: Domain) -> None:
    declared = set(domain.decls)
    for f in context:
        for v in formula_vars(f):
            if isinstance(v, BoundVar):
                raise IllFormed("free bound variable %s in %s" % (v.name, f))
            if v not in declared:
                raise IllFormed("undeclared variable %s in %s" % (v, f))


class _Search:
    def __init__(self, theory: Theory, cfg: SearchConfig) -> None:
        self.theory = theory
        self.cfg = cfg
        self.sdi = cfg.calculus == "sdi"
        self.stats = SearchStats()
        self.used_names: set[str] = set()
        self.counters: dict[str, int] = {}
        self.exists_blocked = False
        self.nodes_exhausted = False

    # -- fresh names ---------------------------------------------------------

    def fresh_meta(self, base: str, sort: str) -> MetaVar:
        return MetaVar(self._fresh(base.split("!")[0].upper() or "X"), sort)

    def fresh_eigen(self, base: str, sort: str) -> EigenVar:
        return EigenVar(self._fresh(base.split("!")[0] or "c"), sort)

    def _fresh(self, base: str) -> str:
        n = self.counters.get(base, 0)
        while True:
            n += 1
            name = "%s%d" % (base, n)
            if name not in self.used_names:
                self.counters[base] = n
                self.used_names.add(name)
                return name

    # -- rule selection --------------------------------------------------

    @staticmethod
    def _select(entries: tuple[Entry, ...], budget: int) -> tuple[str, int, bool]:
        """The rule to apply, its principal index, and whether the leaf
        rule is chosen while an existential (out of budget) is in context.

        One pass over the entries; each rule takes its first candidate.
        """
        # A never-instantiated existential fires before conjunctions so
        # that every disjunct contributes its meta-variables early, but a
        # contraction copy waits until the branch has split; re-expanding
        # it first would spend the whole budget before the branch's
        # universals declare the eigenvariables the new instance needs.
        forall = fresh = conj = contraction = -1
        exists_left = False
        for i, (f, k) in enumerate(entries):
            if isinstance(f, Lit):
                continue
            if isinstance(f, Or):
                return "or", i, False
            if isinstance(f, Forall):
                if forall < 0:
                    forall = i
            elif isinstance(f, Exists):
                exists_left = True
                if k == 0:
                    if fresh < 0 and budget > 0:
                        fresh = i
                elif contraction < 0 and k < budget:
                    contraction = i
            elif conj < 0:  # a conjunction
                conj = i
        if forall >= 0:
            return "forall", forall, False
        if fresh >= 0:
            return "exists", fresh, False
        if conj >= 0:
            return "and", conj, False
        if contraction >= 0:
            return "exists", contraction, False
        return "leaf", -1, exists_left

    def _order_bit(self, path: tuple[str, ...]) -> int:
        if self.cfg.order == "left":
            return 0
        if self.cfg.order == "right":
            return 1
        digest = hashlib.blake2b(
            ("%d|%s" % (self.cfg.seed, "/".join(path))).encode(), digest_size=2
        ).digest()
        return digest[0] & 1

    # -- the engine --------------------------------------------------------

    def solve(self, entries, domain, current, path, budget) -> Iterator:
        if self.stats.nodes >= self.cfg.nodes:
            self.nodes_exhausted = True
            return
        self.stats.nodes += 1
        kind, idx, blocked = self._select(entries, budget)
        log.debug("rule %s at %s (domain %d decls)", kind, idx, len(domain.decls))
        rest = entries[:idx] + entries[idx + 1:] if idx >= 0 else entries

        if kind == "or":
            f = entries[idx][0]
            child = ((f.left, 0), (f.right, 0)) + rest
            alts = self.solve(child, domain, current, path + ("o",), budget)
            for i, (t, out) in enumerate(alts):
                self.stats.backtracks += i > 0
                yield ("or", entries, domain, current, out, (t,), idx), out
            return

        if kind == "forall":
            f = entries[idx][0]
            eigen = self.fresh_eigen(f.var, f.sort)
            child = ((substitute(f.body, f.var, eigen), 0),) + rest
            d2 = domain.add_eigen(eigen)
            # The threaded input must see the new eigenvariable, or later
            # lifts would compute authorised sets that are too small.
            child_in = rehouse(current, d2) if self.sdi else None
            alts = self.solve(child, d2, child_in, path + ("f",), budget)
            for i, (t, out) in enumerate(alts):
                self.stats.backtracks += i > 0
                yield ("forall", entries, domain, current, out, (t,), idx, eigen), out
            return

        if kind == "exists":
            f, count = entries[idx]
            meta = self.fresh_meta(f.var, f.sort)
            d2 = domain.add_meta(meta)
            child = ((substitute(f.body, f.var, meta), 0), (f, count + 1)) + rest
            child_in = self.theory.lift(current, meta) if self.sdi else None
            # Projections, per child output: in sdi an `and` below passes
            # the same output up once for each alternative of its first
            # conjunct.
            projected: dict = {}
            alts = self.solve(child, d2, child_in, path + ("e",), budget)
            for i, (t, child_out) in enumerate(alts):
                self.stats.backtracks += i > 0
                out = projected.get(child_out)
                if out is None:
                    out = projected[child_out] = self.theory.project(child_out, meta)
                yield ("exists", entries, domain, current, out, (t,), idx, meta), out
            return

        if kind == "and":
            f = entries[idx][0]
            bit = self._order_bit(path)
            parts = (f.left, f.right)
            first_ctx = ((parts[bit], 0),) + rest
            second_ctx = ((parts[1 - bit], 0),) + rest
            first_path = path + ("a%d" % bit,)
            second_path = path + ("a%d" % (1 - bit),)
            # Second-conjunct alternatives, per input (None in di): each pass
            # iterates a copy of a never-advanced tee, sharing its buffer.
            replays: dict = {}
            alts = self.solve(first_ctx, domain, current, first_path, budget)
            for i, (t1, o1) in enumerate(alts):
                self.stats.backtracks += i > 0
                second_in = o1 if self.sdi else None
                replay = replays.get(second_in)
                if replay is None:
                    second = self.solve(second_ctx, domain, second_in, second_path, budget)
                    replay = replays[second_in] = itertools.tee(second, 1)[0]
                else:
                    self.stats.memo_hits += 1
                for j, (t2, o2) in enumerate(copy.copy(replay)):
                    self.stats.backtracks += j > 0
                    out = o2 if self.sdi else self.theory.meet(o1, o2)
                    if out is None:
                        self.stats.backtracks += 1
                        continue
                    children = (t1, t2) if bit == 0 else (t2, t1)
                    yield ("and", entries, domain, current, out, children, idx, bit), out
            return

        # Leaf attempt.
        if blocked:
            self.exists_blocked = True
        lits = literals_of(tuple(f for f, _ in entries))
        stream = self.theory.consistency(lits, domain)
        inp = current if self.sdi else self.theory.top(domain)
        for k in range(self.cfg.pulls):
            self.stats.backtracks += k > 0
            res = stream.pull(inp)
            self.stats.pulls += 1
            if res is None:
                return
            used, out = res
            yield ("leaf", entries, domain, current, out, (), used, k), out


# The ProofTree fields after `children` that each rule's record ends with.
_RECORD_FIELDS = {"or": ("principal",), "forall": ("principal", "eigen"),
                  "exists": ("principal", "meta"), "and": ("principal", "order_bit"),
                  "leaf": ("used", "stream_index")}


def _materialise(record) -> ProofTree:
    """The ProofTree of a record, built bottom-up without recursion."""
    order = [record]
    for rec in order:  # breadth first: every record after its parent
        order.extend(rec[5])
    built: dict = {}
    for rec in reversed(order):
        rule, entries, domain, current, out, kids, *fields = rec
        seq = Sequent(domain, tuple(f for f, _ in entries), current)
        kids = tuple([built[id(c)] for c in kids])
        built[id(rec)] = ProofTree(rule, seq, out, kids, **dict(zip(_RECORD_FIELDS[rule], fields)))
    return built[id(record)]


def _deepening_budgets(cap: int) -> list[int]:
    if cap <= 0:
        return [0]
    out = []
    b = 1
    while b < cap:
        out.append(b)
        b *= 2
    out.append(cap)
    return out


def prove(context: Context, domain: Domain, theory: Theory,
          cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Search for a derivation of the context over the starting domain."""
    _well_formed(context, domain)
    search = _Search(theory, cfg)
    for v in domain.decls:
        search.used_names.add(v.name)
    entries = tuple((f, 0) for f in context)
    root_input = theory.top(domain) if cfg.calculus == "sdi" else None
    gate = not domain.metas  # the empty-instantiation gate applies at a meta-free root
    rho_empty = Instantiation.empty(domain) if gate else None
    try:
        for b in _deepening_budgets(cfg.max_exists):
            search.stats.rounds += 1
            search.exists_blocked = False
            verdicts: dict = {}  # the gate's verdict, per root output
            for record, out in search.solve(entries, domain, root_input, (), b):
                if gate:
                    ok = verdicts.get(out)
                    if ok is None:
                        ok = verdicts[out] = theory.compatible(rho_empty, out)
                    if not ok:
                        search.stats.backtracks += 1
                        continue
                log.info("proved in round %d (%d nodes)", search.stats.rounds, search.stats.nodes)
                return SearchOutcome("proved", _materialise(record), out, search.stats)
            if not search.exists_blocked and not search.nodes_exhausted:
                # Deeper expansion budgets cannot change anything.
                break
    except ResourceLimit as exc:
        return SearchOutcome("resource", None, None, search.stats, str(exc))
    if search.nodes_exhausted:
        return SearchOutcome("resource", None, None, search.stats, "node budget exhausted")
    return SearchOutcome("exhausted", None, None, search.stats, "alternatives exhausted")


# ---------------------------------------------------------------------------
# Independent audit of a finished derivation


def _expect(cond: bool, diags: list[str], msg: str) -> bool:
    if not cond:
        diags.append(msg)
    return cond


def check_proof(tree: ProofTree, theory: Theory) -> tuple[bool, list[str]]:
    """Recompute every rule application of a derivation.

    Checks context bookkeeping (as multisets), domain growth, constraint
    threading, and replays each leaf's stream to its recorded index.
    Returns (ok, diagnostics).
    """
    diags: list[str] = []
    _check_node(tree, theory, diags)
    return not diags, diags


def _check_node(node: ProofTree, theory: Theory, diags: list[str]) -> None:
    seq = node.sequent
    ctx = Counter(seq.context)
    sdi = seq.input is not None

    if node.rule == "leaf":
        _expect(not node.children, diags, "leaf with children")
        lits = literals_of(seq.context)
        stream = theory.consistency(lits, seq.domain)
        inp = seq.input if sdi else theory.top(seq.domain)
        got = None
        for k in range(node.stream_index + 1):
            got = stream.pull(inp)
            if got is None:
                _expect(False, diags, "leaf stream exhausted before index %d" % node.stream_index)
                return
        _expect(got == (node.used, node.output), diags,
                "leaf replay mismatch at index %d" % node.stream_index)
        _expect(node.used <= set(lits), diags, "leaf used literals outside the context")
        return

    if not _expect(0 <= node.principal < len(seq.context), diags, "principal index out of range"):
        return
    principal = seq.context[node.principal]
    removed = ctx - Counter([principal])

    def child_ctx_ok(child: ProofTree, added: list[Formula]) -> bool:
        return Counter(child.sequent.context) == removed + Counter(added)

    if node.rule == "or":
        if not _expect(isinstance(principal, Or), diags, "or rule on non-disjunction"):
            return
        (child,) = node.children
        _expect(child.sequent.domain == seq.domain, diags, "or child changed the domain")
        _expect(child_ctx_ok(child, [principal.left, principal.right]), diags,
                "or child context mismatch")
        if sdi:
            _expect(child.sequent.input == seq.input, diags, "or input not passed through")
        _expect(node.output == child.output, diags, "or output not passed through")

    elif node.rule == "forall":
        if not _expect(isinstance(principal, Forall), diags, "forall rule on non-universal"):
            return
        (child,) = node.children
        eigen = node.eigen
        if not _expect(eigen is not None and eigen.sort == principal.sort, diags,
                       "forall eigenvariable missing or ill-sorted"):
            return
        _expect(child.sequent.domain == seq.domain.add_eigen(eigen), diags,
                "forall child domain mismatch")
        _expect(child_ctx_ok(child, [substitute(principal.body, principal.var, eigen)]),
                diags, "forall child context mismatch")
        if sdi:
            _expect(child.sequent.input == rehouse(seq.input, child.sequent.domain),
                    diags, "forall input not passed through")
        _expect(node.output == child.output, diags, "forall output not passed through")

    elif node.rule == "exists":
        if not _expect(isinstance(principal, Exists), diags, "exists rule on non-existential"):
            return
        (child,) = node.children
        meta = node.meta
        if not _expect(meta is not None and meta.sort == principal.sort, diags,
                       "exists meta-variable missing or ill-sorted"):
            return
        _expect(child.sequent.domain == seq.domain.add_meta(meta), diags,
                "exists child domain mismatch")
        _expect(child_ctx_ok(child, [substitute(principal.body, principal.var, meta), principal]),
                diags, "exists child must keep the existential in context")
        if sdi:
            _expect(child.sequent.input == theory.lift(seq.input, meta), diags,
                    "exists input not lifted")
        _expect(node.output == theory.project(child.output, meta), diags,
                "exists output is not the projected child output")

    elif node.rule == "and":
        if not _expect(isinstance(principal, And), diags, "and rule on non-conjunction"):
            return
        if not _expect(len(node.children) == 2, diags, "and node needs two children"):
            return
        left, right = node.children
        _expect(child_ctx_ok(left, [principal.left]), diags, "left conjunct context mismatch")
        _expect(child_ctx_ok(right, [principal.right]), diags, "right conjunct context mismatch")
        for c in node.children:
            _expect(c.sequent.domain == seq.domain, diags, "and child changed the domain")
        first = node.children[node.order_bit]
        second = node.children[1 - node.order_bit]
        if sdi:
            _expect(first.sequent.input == seq.input, diags,
                    "first conjunct input mismatch")
            _expect(second.sequent.input == first.output, diags,
                    "second conjunct must consume the first conjunct's output")
            _expect(node.output == second.output, diags, "and output mismatch")
        else:
            met = theory.meet(left.output, right.output)
            _expect(met is not None and met == node.output, diags,
                    "and output is not the meet of its children")

    else:
        _expect(False, diags, "unknown rule %r" % (node.rule,))
        return

    for c in node.children:
        _check_node(c, theory, diags)


# ---------------------------------------------------------------------------
# Ground reconstruction


def check_lk1_leaf(lits, gvp: Callable[[tuple[Literal, ...]], bool]) -> bool:
    """Ground-leaf validity; errors on non-ground input."""
    lits = tuple(lits)
    for l in lits:
        if any(isinstance(v, (MetaVar, BoundVar)) for v in literal_vars(l)):
            raise IllFormed("leaf literal %s is not ground" % (l,))
    return gvp(lits)


def fold(sigma, theory: Theory) -> Instantiation:
    """Canonical instantiation of a satisfiable constraint.

    Projects the constraint level by level down to the meta-free domain,
    then extends the empty instantiation with one witness per
    meta-variable, innermost projection first.
    """
    if not theory.satisfiable(sigma):
        raise PreconditionError("fold needs a satisfiable constraint")
    levels = []
    cur = sigma
    for decl in reversed(sigma.domain.decls):
        if isinstance(decl, MetaVar):
            levels.append((decl, cur))
            cur = theory.project(cur, decl)
    rho = Instantiation.empty(cur.domain)
    for meta, level_sigma in reversed(levels):
        t = theory.witness(level_sigma, rho)
        rho = rho.extend(level_sigma.domain, meta, t)
    return rho


def reconstruct_ground(tree: ProofTree, rho: Instantiation, theory: Theory,
                       witnesses: Optional[list] = None) -> tuple[bool, list[str]]:
    """Instantiate a derivation and audit it as a ground proof.

    Walks the tree extending rho with a witness at every existential
    node; each leaf's used literals, once instantiated, must pass the
    backend's ground validity predicate.  When a list is passed as
    `witnesses` the chosen (meta, term) pairs are appended to it.
    pre: rho is compatible with the root output.
    """
    diags: list[str] = []
    if not theory.compatible(rho, tree.output):
        return False, ["instantiation incompatible with the final constraint"]
    _reconstruct(tree, rho, theory, diags, witnesses)
    return not diags, diags


def _reconstruct(node: ProofTree, rho: Instantiation, theory: Theory,
                 diags: list[str], witnesses: Optional[list]) -> None:
    if node.rule == "leaf":
        ground = tuple(rho.apply_literal(l) for l in sorted(node.used, key=str))
        if not check_lk1_leaf(ground, theory.ground_valid):
            diags.append("leaf %s not valid under %s" % ([str(g) for g in ground], rho))
        return
    if node.rule == "exists":
        (child,) = node.children
        try:
            t = theory.witness(child.output, rho)
        except Exception as exc:  # surfaced as an audit failure, not a crash
            diags.append("witness failed at %s: %s" % (node.meta, exc))
            return
        if witnesses is not None:
            witnesses.append((node.meta, t))
        rho2 = rho.extend(child.output.domain, node.meta, t)
        if not theory.compatible(rho2, child.output):
            diags.append("extended instantiation incompatible below %s" % (node.meta,))
            return
        _reconstruct(child, rho2, theory, diags, witnesses)
        return
    for child in node.children:
        if not theory.compatible(rho, child.output):
            diags.append("instantiation incompatible with a %s child" % (node.rule,))
            continue
        _reconstruct(child, rho, theory, diags, witnesses)
