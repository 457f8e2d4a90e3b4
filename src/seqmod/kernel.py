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

Rule application order is fixed: early closure first (below), then
disjunctions, then universals,
then under-budget existential expansions, then conjunctions, and leaf
closure last.  Premises are prepended to the remaining context, so the
most recently produced formulas are examined first.  Existential
expansion keeps the quantified formula in context with a per-occurrence
budget, raised by iterative deepening (1, 2, 4, ... up to the cap).
Backtracking is chronological: the most recent choice point (a leaf
stream or a sibling alternative) is retried first.  Each node yields
each distinct output once.  A parent reads only its child's output (to
meet, project, thread or gate it), never the derivation, so a repeated
output could only make the ancestors redo work; the outputs reaching
the root, and so the verdicts, do not change.  Leaves, existentials and
conjunctions keep a seen-set; `or` and `forall` pass outputs through.
A di conjunction's second premise does not read the first's output: it
is solved once and replayed for each alternative of the first (counted
as `memo_hits`).  Nothing else is cached.  A search that spends its
node budget ends with status "resource".

Early closure (as in tableau provers; Hähnle, Handbook of Automated
Reasoning, 2001).  Before a node whose literals hold a syntactically
complementary pair applies any other rule, it pulls its own leaf stream,
the one a leaf there would pull and `check_proof` replays.  If a pull
returns the node's input (sdi) or `top` (di), the node yields that one
leaf record and nothing else.  This loses no proof: every output a node
can give refines its input (sdi) or `top` (di), so the committed output
is the greatest any alternative gives, and meet, projection, threading
and the root gate are monotone under the backend axioms, so whatever an
ancestor does with a smaller output it does with this one.  Otherwise
the rule applies as it would have.  A failed attempt costs at most
`pulls` pulls, counted in `pulls` but not in `backtracks`.  Contexts
only grow in literals along a branch, so a pair can only appear where a
rule adds a literal: each node receives the sign of each atom among its
branch's literals while no atom has both (None once one does), and only
the added literals are checked against it.

Only outputs flow from a node to its parent, so each node runs in one
generator frame and yields (record, output), a plain tuple that lists
ProofTree's fields in order, up to the last field its rule sets (the
entries for the context, child records for the children); `prove`
builds ProofTrees only for the accepted record.  Backtracks:
alternatives after a child's first, leaf pulls after the first, failed
meets and root outputs the gate rejects.
"""

from __future__ import annotations

import copy
import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional

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


@dataclass(slots=True)  # not frozen: built at every node, never mutated
class ProofTree:
    """A sequent and the rule that derives it; children follow the rule's formula order."""

    rule: str  # "or" | "and" | "exists" | "forall" | "leaf"
    context: Context
    domain: Domain
    input: Optional[object]  # None in producing mode
    output: object
    children: tuple["ProofTree", ...] = ()
    principal: int = -1
    meta: Optional[MetaVar] = None
    eigen: Optional[EigenVar] = None
    order_bit: int = 0
    used: frozenset[Literal] = frozenset()
    stream_index: int = -1

    def walk(self) -> Iterator["ProofTree"]:
        """Every node in preorder, from an explicit stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class SearchConfig:
    calculus: str = "sdi"  # "di" | "sdi"
    order: str = "left"  # first conjunct explored: "left" | "right" | "random"
    seed: int = 0
    max_exists: int = 4
    pulls: int = 32
    nodes: int = 10000

    def __post_init__(self) -> None:
        if self.calculus not in ("di", "sdi"):
            raise ValueError("unknown calculus %r: expected di or sdi" % (self.calculus,))
        if self.order not in ("left", "right", "random"):
            raise ValueError("unknown order %r: expected left, right or random" % (self.order,))
        for name in ("max_exists", "pulls", "nodes"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative, got %r" % (name, getattr(self, name)))


@dataclass
class SearchStats:
    nodes: int = 0
    pulls: int = 0
    backtracks: int = 0
    rounds: int = 0
    memo_hits: int = 0  # di replays of a second conjunct's alternatives


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "proved" | "exhausted" | "resource"
    tree: Optional[ProofTree]
    constraint: Optional[object]
    stats: SearchStats
    detail: str = ""


Entry = tuple[Formula, int]
_formula = itemgetter(0)  # an entry's formula


def _branch_signs(signs: Optional[dict], added) -> Optional[dict]:
    """The sign of each atom among a branch's literals, `signs`, with the
    literals among the formulas `added`; None once an atom has both
    signs, and below that.  A dict passed on is never changed."""
    if signs is None:
        return None
    grown = None
    for f in added:
        if type(f) is Literal:
            atom, positive = f.atom, f.positive
            if (grown or signs).get(atom, positive) != positive:
                return None
            if grown is None:
                grown = dict(signs)
            grown[atom] = positive
    return signs if grown is None else grown


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
        self.budget = 0  # the existential budget of the deepening round; prove sets it
        self.debug = log.isEnabledFor(logging.DEBUG)  # read once: solve logs per node

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
            if type(f) is Literal:
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
        import hashlib  # here: it loads OpenSSL (3.6 MB), which only this order needs
        digest = hashlib.blake2b(
            ("%d|%s" % (self.cfg.seed, "/".join(path))).encode(), digest_size=2
        ).digest()
        return digest[0] & 1

    # -- the engine --------------------------------------------------------

    def _leaf_stream(self, entries, domain, current):
        """The leaf stream of a node and the constraint its pulls take."""
        lits = literals_of(map(_formula, entries))
        inp = current if self.sdi else self.theory.top(domain)
        return self.theory.consistency(lits, domain), inp

    def _close_early(self, entries, domain, current):
        """The record of a leaf closure whose output is the node's input
        (sdi) or top (di), or None when the first `pulls` pulls give none.
        A backend's size cap raises here as it would in a leaf."""
        stream, inp = self._leaf_stream(entries, domain, current)
        for k in range(self.cfg.pulls):
            res = stream.pull(inp)
            self.stats.pulls += 1
            if res is None:
                return None
            used, out = res
            if out == inp:
                return ("leaf", entries, domain, current, out, (), -1, None, None, 0, used, k)
        return None

    def solve(self, entries, domain, current, path, signs) -> Iterator:
        """Each distinct (record, output) of the node; `signs` maps each atom
        among the branch's literals to its sign, None once one has both."""
        if self.stats.nodes >= self.cfg.nodes:
            self.nodes_exhausted = True
            return
        self.stats.nodes += 1
        kind, idx, blocked = self._select(entries, self.budget)
        if self.debug:
            log.debug("rule %s at %s (domain %d decls)", kind, idx, len(domain.decls))
        if signs is None and kind != "leaf":
            record = self._close_early(entries, domain, current)
            if record is not None:
                yield record, record[4]
                return

        if kind == "leaf":
            if blocked:
                self.exists_blocked = True
            stream, inp = self._leaf_stream(entries, domain, current)
            seen = None  # made at the second output: distinct used sets give equal outputs
            for k in range(self.cfg.pulls):
                self.stats.backtracks += k > 0
                res = stream.pull(inp)
                self.stats.pulls += 1
                if res is None:
                    return
                used, out = res
                if k:
                    seen = seen or {first}
                    if out in seen:
                        continue
                    seen.add(out)
                else:
                    first = out
                yield ("leaf", entries, domain, current, out, (), -1, None, None, 0, used, k), out
            return

        f = entries[idx][0]
        rest = entries[:idx] + entries[idx + 1:]
        if kind == "and":
            bit = self._order_bit(path)
            parts = (f.left, f.right)
            first_ctx = ((parts[bit], 0),) + rest
            second_ctx = ((parts[1 - bit], 0),) + rest
            first_path = path + ("a%d" % bit,)
            second_path = path + ("a%d" % (1 - bit),)
            second_signs = _branch_signs(signs, (parts[1 - bit],))
            replay = None if self.sdi else itertools.tee(
                self.solve(second_ctx, domain, None, second_path, second_signs), 1)[0]
            seen = set()  # meets, or second-conjunct outputs for two o1, collide
            alts = self.solve(first_ctx, domain, current, first_path,
                              _branch_signs(signs, (parts[bit],)))
            for i, (t1, o1) in enumerate(alts):
                self.stats.backtracks += i > 0
                if self.sdi:
                    second = self.solve(second_ctx, domain, o1, second_path, second_signs)
                else:  # di: each o1 replays a copy of one never-advanced tee
                    second = copy.copy(replay)
                    self.stats.memo_hits += i > 0
                for j, (t2, o2) in enumerate(second):
                    self.stats.backtracks += j > 0
                    out = o2 if self.sdi else self.theory.meet(o1, o2)
                    if out is None:
                        self.stats.backtracks += 1
                    elif out not in seen:
                        seen.add(out)
                        children = (t1, t2) if bit == 0 else (t2, t1)
                        yield ("and", entries, domain, current, out, children,
                               idx, None, None, bit), out
            return

        # The one-premise rules build their premise; one loop applies it.
        meta = eigen = None
        if kind == "or":
            added = (f.left, f.right)
            child = ((f.left, 0), (f.right, 0)) + rest
            d2, child_in = domain, current
        elif kind == "forall":
            eigen = self.fresh_eigen(f.var, f.sort)
            added = (substitute(f.body, f.var, eigen),)
            child = ((added[0], 0),) + rest
            d2 = domain.add_eigen(eigen)
            # The threaded input must see the new eigenvariable, or later
            # lifts would compute authorised sets that are too small.
            child_in = rehouse(current, d2) if self.sdi else None
        else:  # exists
            meta = self.fresh_meta(f.var, f.sort)
            d2 = domain.add_meta(meta)
            added = (substitute(f.body, f.var, meta),)
            child = ((added[0], 0), (f, entries[idx][1] + 1)) + rest
            child_in = self.theory.lift(current, meta) if self.sdi else None
        seen = set()  # projection merges outputs; or and forall pass them up
        # The path step is the rule's initial: "o", "f" or "e".
        alts = self.solve(child, d2, child_in, path + (kind[0],), _branch_signs(signs, added))
        for i, (t, out) in enumerate(alts):
            self.stats.backtracks += i > 0
            if meta is not None:
                out = self.theory.project(out, meta)
                if out in seen:
                    continue
                seen.add(out)
            yield (kind, entries, domain, current, out, (t,), idx, meta, eigen), out


def _materialise(record) -> ProofTree:
    """The ProofTree of a record, built bottom-up without recursion."""
    order = [record]
    for rec in order:  # breadth first: every record after its parent
        order.extend(rec[5])
    built: dict = {}
    for rec in reversed(order):
        built[id(rec)] = ProofTree(rec[0], tuple([f for f, _ in rec[1]]), *rec[2:5],
                                   tuple([built[id(c)] for c in rec[5]]), *rec[6:])
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
    signs = _branch_signs({}, context)
    root_input = theory.top(domain) if cfg.calculus == "sdi" else None
    gate = not domain.metas  # the empty-instantiation gate applies at a meta-free root
    rho_empty = Instantiation.empty(domain) if gate else None
    try:
        for b in _deepening_budgets(cfg.max_exists):
            search.stats.rounds += 1
            search.exists_blocked = False
            search.budget = b
            for record, out in search.solve(entries, domain, root_input, (), signs):
                if gate and not theory.compatible(rho_empty, out):
                    search.stats.backtracks += 1
                    continue
                log.info("proved in round %d (%d nodes)", search.stats.rounds, search.stats.nodes)
                return SearchOutcome("proved", _materialise(record), out, search.stats)
            if search.nodes_exhausted or not search.exists_blocked:
                # The node budget is spent, or deeper expansion budgets
                # cannot change anything.
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


# Per rule: its principal's connective, the connective's name, the number of premises.
_RULES = {"leaf": (None, "", 0), "or": (Or, "disjunction", 1), "and": (And, "conjunction", 2),
          "forall": (Forall, "universal", 1), "exists": (Exists, "existential", 1)}


def check_proof(tree: ProofTree, theory: Theory) -> tuple[bool, list[str]]:
    """Recompute every rule application of a derivation: context bookkeeping
    (as multisets), domain growth with the freshness of each new variable,
    constraint threading and outputs, and each leaf's stream replayed to its
    recorded index.  Returns (ok, diagnostics), never raising on a bad tree.

    One loop checks the nodes children first, in reverse preorder, so a
    subtree's diagnostics precede its root's.  The order lets the audit
    take proofs of any depth: a formula's first hash recurses, then is
    cached (`terms.hash_once`), and a child's context holds the parts of
    its parent's principal, so no node's context recurses deeply to count.
    """
    diags: list[str] = []
    for node in reversed(list(tree.walk())):
        if not _expect(node.rule in _RULES, diags, "unknown rule %r" % (node.rule,)):
            continue
        connective, kind, arity = _RULES[node.rule]
        if not _expect(len(node.children) == arity, diags, "%s node has %d children, not %d"
                       % (node.rule, len(node.children), arity)):
            continue
        if node.rule == "leaf":
            lits = literals_of(node.context)
            stream = theory.consistency(lits, node.domain)
            inp = node.input if node.input is not None else theory.top(node.domain)
            got = None
            for _ in range(node.stream_index + 1):
                got = stream.pull(inp)
                if got is None:
                    diags.append("leaf stream exhausted before index %d" % node.stream_index)
                    break
            else:
                _expect(got == (node.used, node.output), diags,
                        "leaf replay mismatch at index %d" % node.stream_index)
                _expect(node.used <= set(lits), diags, "leaf used literals outside the context")
            continue
        ctx = node.context
        if not _expect(0 <= node.principal < len(ctx), diags, "principal index out of range"):
            continue
        principal = ctx[node.principal]
        if not _expect(isinstance(principal, connective), diags,
                       "%s rule on non-%s" % (node.rule, kind)):
            continue
        try:
            premises, out = _premises(node, principal, theory)
        except ValueError as exc:  # DomainError among them
            diags.append("%s rule: %s" % (node.rule, exc))
            continue
        rest = ctx[:node.principal] + ctx[node.principal + 1:]
        for (name, domain, added, current), child in zip(premises, node.children):
            _expect(child.domain == domain, diags, name + " domain mismatch")
            # The search builds each premise's context as added + rest, so
            # comparing tuples settles almost every node; any other order
            # is still compared as a multiset.
            got, expected = child.context, added + rest
            _expect(got == expected or Counter(got) == Counter(expected), diags,
                    name + " context mismatch")
            _expect(child.input == current, diags, name + " input mismatch")
        _expect(out is not None and node.output == out, diags, node.rule + " output mismatch")
    return not diags, diags


def _premises(node: ProofTree, principal: Formula, theory: Theory) -> tuple[list, object]:
    """Each premise of a rule application, as (name, domain, added formulas,
    input; None in di), and the rule's output.  Raises ValueError for a bad
    order bit, or a new variable missing, ill-sorted or not fresh.
    """
    kids = node.children
    sdi = node.input is not None
    out = kids[0].output  # the or and forall rules pass their child's output up
    if node.rule == "or":
        return [("or child", node.domain, (principal.left, principal.right), node.input)], out
    if node.rule == "and":
        bit = node.order_bit
        if bit not in (0, 1):
            raise ValueError("order bit %r is not 0 or 1" % (bit,))
        inputs = [None, None]
        if sdi:  # the first conjunct explored feeds its output to the second
            inputs[bit], inputs[1 - bit] = node.input, kids[bit].output
        out = kids[1 - bit].output if sdi else theory.meet(kids[0].output, kids[1].output)
        return [("left conjunct", node.domain, (principal.left,), inputs[0]),
                ("right conjunct", node.domain, (principal.right,), inputs[1])], out
    v = node.eigen if node.rule == "forall" else node.meta
    if v is None or v.sort != principal.sort:
        raise ValueError("variable missing or ill-sorted")
    body = substitute(principal.body, principal.var, v)
    if node.rule == "forall":
        domain = node.domain.add_eigen(v)
        current = rehouse(node.input, domain) if sdi else None
        return [("forall child", domain, (body,), current)], out
    domain = node.domain.add_meta(v)
    current = theory.lift(node.input, v) if sdi else None
    return [("exists child", domain, (body, principal), current)], theory.project(out, v)


# ---------------------------------------------------------------------------
# Ground reconstruction


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

    Walks the tree in preorder, from an explicit stack, extending rho
    with a witness at every existential node; each leaf's used literals,
    once instantiated, must pass the backend's ground validity
    predicate.  When a list is passed as `witnesses` the chosen (meta,
    term) pairs are appended to it.  Returns (ok, diagnostics), never
    raising on a misbehaving backend.  A rho incompatible with the root
    output fails at once, with one diagnostic that says so.
    """
    diags: list[str] = []
    if not theory.compatible(rho, tree.output):
        return False, ["instantiation incompatible with the final constraint"]
    stack = [(tree, rho, None)]  # (node, its rho, the rule of a parent sharing rho)
    while stack:
        node, rho, parent = stack.pop()
        if parent is not None and not theory.compatible(rho, node.output):
            diags.append("instantiation incompatible with a %s child" % (parent,))
        elif node.rule == "leaf":
            ground = tuple(rho.apply_literal(l) for l in sorted(node.used, key=str))
            loose = [g for g in ground if any(isinstance(v, (MetaVar, BoundVar))
                                              for v in literal_vars(g))]
            if loose:
                diags.append("leaf literal %s is not ground" % (loose[0],))
            elif not theory.ground_valid(ground):
                diags.append("leaf %s not valid under %s" % ([str(g) for g in ground], rho))
        elif node.rule == "exists":
            if len(node.children) != 1:  # the diagnostic check_proof gives
                diags.append("exists node has %d children, not 1" % len(node.children))
                continue
            (child,) = node.children
            try:
                t = theory.witness(child.output, rho)
                rho2 = rho.extend(child.output.domain, node.meta, t)
            except Exception as exc:  # surfaced as an audit failure, not a crash
                diags.append("witness failed at %s: %s" % (node.meta, exc))
                continue
            if witnesses is not None:
                witnesses.append((node.meta, t))
            if not theory.compatible(rho2, child.output):
                diags.append("extended instantiation incompatible below %s" % (node.meta,))
                continue
            stack.append((child, rho2, None))
        else:
            stack.extend((c, rho, node.rule) for c in reversed(node.children))
    return not diags, diags
