"""Two-sorted first-order syntax: terms, literals, formulas, domains.

Terms come in an uninterpreted sort and a rational sort.  Rational terms
admit exact linear combinations over `fractions.Fraction`.  Three kinds of
variables coexist: bound variables (placeholders under a quantifier),
eigenvariables (rigid: introduced by universal quantifiers), and
meta-variables (flexible: introduced by existential quantifiers, to be
solved by a theory backend).  A constant is a nullary `FunApp`.

Formulas are in negation normal form, and a literal is a formula:

    Formula ::= Literal | And(Formula, Formula) | Or(Formula, Formula)
              | Forall(var, sort, Formula) | Exists(var, sort, Formula)
    Literal ::= Literal(positive, PredAtom | ArithAtom)

A Domain records the declaration order of eigenvariables and
meta-variables; each meta-variable may only be instantiated with ground
terms built from the eigenvariables declared before it.

All of these values are immutable by contract: no code changes a field
after construction.  They are plain, not frozen, dataclasses: a frozen
dataclass's `__init__` sets each field through a call to `object`'s
attribute setter, which about doubles the cost of building one.  A test
checks, over the proofs of the corpus, that every value still hashes
as its fields do.  Each value caches its hash on first use
(`hash_once`), a FunApp also its variable set (`term_vars`) and its
meta-variables and eigenvariables (`term_metas`, `term_eigens`), and a
Domain its lookups.  The caches are plain attributes, not fields, and
hold per-process values, such as string hashes; nothing in seqmod
pickles these objects.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

SORT_TERM = "term"
SORT_RAT = "rat"

ZERO = Fraction(0)
ONE = Fraction(1)

# Rational constants available to bounded ground-term enumeration.  The
# order is significant: the first entry is the default witness value.
DEFAULT_RATIONAL_SAMPLES: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(-2),
    Fraction(15),
    Fraction(23),
    Fraction(46, 3),
)


class SortError(ValueError):
    """A term or atom was built with inconsistent sorts."""


def hash_once(cls):
    """Class decorator: an immutable dataclass whose instances hash once.

    A plain `@dataclass` with equality is unhashable, and a frozen one's
    generated `__hash__` hashes the tuple of the fields on every call,
    and so the whole tree below a node.  This `__hash__` computes the
    same value, `hash` of the tuple of the fields, on first use and
    stores it on the instance as `_hash`; set and dict iteration order
    are therefore unchanged.  `_hash` is not a field, so equality,
    `repr`, `dataclasses.fields` and `dataclasses.replace` ignore it.
    Apply it above a plain `@dataclass` without slots, whose fields are
    never assigned after construction (a frozen one works too, at the
    cost of its slower `__init__`).
    """
    names = [f.name for f in fields(cls)]
    get = operator.attrgetter(*names)
    single = len(names) == 1

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((get(self),) if single else get(self))
        return h

    cls.__hash__ = __hash__
    cls._hash = None  # read when the instance has no cached hash yet
    return cls


# ---------------------------------------------------------------------------
# Terms


@hash_once
@dataclass
class BoundVar:
    """Occurrence of a quantified variable inside its binder's body."""

    name: str
    sort: str = SORT_TERM

    def __str__(self) -> str:
        return self.name


@hash_once
@dataclass
class EigenVar:
    """Rigid variable: a problem constant or a universally bound witness."""

    name: str
    sort: str = SORT_TERM

    def __str__(self) -> str:
        return self.name


@hash_once
@dataclass
class MetaVar:
    """Flexible variable awaiting instantiation by a theory backend."""

    name: str
    sort: str = SORT_TERM

    def __str__(self) -> str:
        return "?" + self.name


@hash_once
@dataclass
class RatConst:
    """Exact rational constant."""

    value: Fraction

    @property
    def sort(self) -> str:
        return SORT_RAT

    def __str__(self) -> str:
        return str(self.value)


@hash_once
@dataclass
class FunApp:
    """Application of an uninterpreted function symbol.

    `term_vars`, `term_metas` and `term_eigens` cache their sets on the
    instance.
    """

    symbol: str
    args: tuple["Term", ...] = ()

    def __post_init__(self) -> None:
        for a in self.args:
            if a.sort != SORT_TERM:
                raise SortError("argument %s of %s is not term-sorted" % (a, self.symbol))

    @property
    def sort(self) -> str:
        return SORT_TERM

    def __str__(self) -> str:
        if not self.args:
            return self.symbol
        return "%s(%s)" % (self.symbol, ", ".join(map(str, self.args)))


@hash_once
@dataclass
class LinTerm:
    """Canonical linear combination over rational-sorted variables.

    coeffs holds (variable, coefficient) pairs: coefficients nonzero,
    variables distinct and sorted by var_key.  The constructors below
    collapse degenerate combinations, so a LinTerm value always has at
    least one variable term and is never a bare variable.
    """

    coeffs: tuple[tuple["Term", Fraction], ...]
    const: Fraction = ZERO

    @property
    def sort(self) -> str:
        return SORT_RAT

    def __str__(self) -> str:
        parts = []
        for var, c in self.coeffs:
            if c == 1:
                parts.append(str(var))
            else:
                parts.append("%s*%s" % (c, var))
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


Term = BoundVar | EigenVar | MetaVar | RatConst | FunApp | LinTerm

_VAR_KINDS = {BoundVar: 0, EigenVar: 1, MetaVar: 2}


def is_var(t: Term) -> bool:
    return type(t) in _VAR_KINDS


def var_key(v: Term) -> tuple[int, str]:
    """Total deterministic order on variables of all three kinds."""
    return (_VAR_KINDS[type(v)], v.name)


def as_fraction(c) -> Fraction:
    """c as a Fraction; a Fraction is returned as it is, not copied."""
    return c if type(c) is Fraction else Fraction(c)


def mk_lin(coeffs: Mapping[Term, Fraction], const: Fraction) -> Term:
    """Build a canonical rational term from a coefficient map.

    Returns a RatConst when no variable survives and the bare variable
    when the combination is exactly 1*v + 0.
    """
    items = []
    for v, c in coeffs.items():
        if v.sort != SORT_RAT:
            raise SortError("linear combination over non-rational term %s" % (v,))
        if c != 0:
            items.append((v, as_fraction(c)))
    items.sort(key=lambda vc: var_key(vc[0]))
    const = as_fraction(const)
    if not items:
        return RatConst(const)
    if len(items) == 1 and items[0][1] == 1 and const == 0:
        return items[0][0]
    return LinTerm(tuple(items), const)


def lin_of(t: Term) -> tuple[dict[Term, Fraction], Fraction]:
    """Decompose a rational-sorted term into (coefficient map, constant)."""
    if isinstance(t, RatConst):
        return {}, t.value
    if isinstance(t, LinTerm):
        return dict(t.coeffs), t.const
    if is_var(t):
        if t.sort != SORT_RAT:
            raise SortError("expected rational term, got %s" % (t,))
        return {t: ONE}, ZERO
    raise SortError("expected rational term, got %s" % (t,))


def lin_combine(*weighted: tuple[Fraction, Term]) -> Term:
    """Exact weighted sum of rational terms."""
    coeffs: dict[Term, Fraction] = {}
    const = ZERO
    for w, t in weighted:
        cs, k = lin_of(t)
        const += w * k
        for v, c in cs.items():
            coeffs[v] = coeffs.get(v, ZERO) + w * c
    return mk_lin(coeffs, const)


def term_vars(t: Term) -> frozenset[Term]:
    """All variables (bound, eigen, meta) occurring in a term."""
    if isinstance(t, FunApp):
        # Computed at most once per application, on first use, and kept
        # for this process only, like the cached hash.  A plain instance
        # attribute, not a cached_property: most applications compute it
        # once and are dropped, and before Python 3.12 each
        # cached_property computation takes a lock.
        out = t.__dict__.get("_vars")
        if out is None:
            out = t._vars = frozenset().union(*[term_vars(a) for a in t.args])
        return out
    if is_var(t):
        return frozenset([t])
    if isinstance(t, RatConst):
        return frozenset()
    if isinstance(t, LinTerm):
        return frozenset(v for v, _ in t.coeffs)
    raise TypeError(t)


def _vars_of_kind(t: Term, kind: type, key: str) -> frozenset:
    """The variables of t of one kind; cached on a FunApp beside `_vars`."""
    if type(t) is not FunApp:
        return frozenset([v for v in term_vars(t) if type(v) is kind])
    out = t.__dict__.get(key)
    if out is None:
        out = frozenset([v for v in term_vars(t) if type(v) is kind])
        setattr(t, key, out)
    return out


def term_metas(t: Term) -> frozenset[MetaVar]:
    return _vars_of_kind(t, MetaVar, "_metas")


def term_eigens(t: Term) -> frozenset[EigenVar]:
    return _vars_of_kind(t, EigenVar, "_eigens")


def subst_term(t: Term, mapping: Mapping[Term, Term]) -> Term:
    """Simultaneous replacement of variables by terms.

    Images substituted into a linear combination must themselves be
    rational-sorted; the result is renormalised.
    """
    if is_var(t):
        return mapping.get(t, t)
    if isinstance(t, RatConst):
        return t
    if isinstance(t, FunApp):
        return FunApp(t.symbol, tuple(subst_term(a, mapping) for a in t.args))
    if isinstance(t, LinTerm):
        parts: list[tuple[Fraction, Term]] = [(Fraction(1), RatConst(t.const))]
        for v, c in t.coeffs:
            parts.append((c, subst_term(v, mapping)))
        return lin_combine(*parts)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Literals


ARITH_OPS = ("<=", "<", "=")


@hash_once
@dataclass
class PredAtom:
    """Uninterpreted predicate application."""

    name: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ", ".join(map(str, self.args)))


@hash_once
@dataclass
class ArithAtom:
    """Comparison of two rational-sorted terms; op is one of <=, <, =."""

    op: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise ValueError("unknown arithmetic operator %r" % (self.op,))

    def __str__(self) -> str:
        return "%s %s %s" % (self.lhs, self.op, self.rhs)


Atom = PredAtom | ArithAtom


@hash_once
@dataclass
class Literal:
    """Signed atom."""

    positive: bool
    atom: Atom

    def __str__(self) -> str:
        return str(self.atom) if self.positive else "~" + str(self.atom)


def literal_vars(lit: Literal) -> frozenset[Term]:
    atom = lit.atom
    if isinstance(atom, PredAtom):
        out: frozenset[Term] = frozenset()
        for a in atom.args:
            out |= term_vars(a)
        return out
    return term_vars(atom.lhs) | term_vars(atom.rhs)


def subst_literal(lit: Literal, mapping: Mapping[Term, Term]) -> Literal:
    atom = lit.atom
    if isinstance(atom, PredAtom):
        new: Atom = PredAtom(atom.name, tuple(subst_term(a, mapping) for a in atom.args))
    else:
        new = ArithAtom(atom.op, subst_term(atom.lhs, mapping), subst_term(atom.rhs, mapping))
    return Literal(lit.positive, new)


# ---------------------------------------------------------------------------
# Formulas in negation normal form


@hash_once
@dataclass
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return "(%s /\\ %s)" % (self.left, self.right)


@hash_once
@dataclass
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return "(%s \\/ %s)" % (self.left, self.right)


@hash_once
@dataclass
class Forall:
    var: str
    sort: str
    body: "Formula"

    def __str__(self) -> str:
        return "forall %s. %s" % (self.var, self.body)


@hash_once
@dataclass
class Exists:
    var: str
    sort: str
    body: "Formula"

    def __str__(self) -> str:
        return "exists %s. %s" % (self.var, self.body)


Formula = Literal | And | Or | Forall | Exists

# A context is an ordered multiset of formulas; order is the search
# traversal order, multiset equality is the sequent-level identity.
Context = tuple[Formula, ...]


def substitute(formula: Formula, bound: str, replacement: Term) -> Formula:
    """Replace free occurrences of the bound variable named `bound`.

    Binder names are globally fresh after parsing, so capture cannot
    occur; an inner binder reusing the name still shadows correctly.
    """
    if isinstance(formula, Literal):
        mapping = {
            v: replacement
            for v in literal_vars(formula)
            if isinstance(v, BoundVar) and v.name == bound
        }
        return subst_literal(formula, mapping) if mapping else formula
    if isinstance(formula, And):
        return And(substitute(formula.left, bound, replacement),
                   substitute(formula.right, bound, replacement))
    if isinstance(formula, Or):
        return Or(substitute(formula.left, bound, replacement),
                  substitute(formula.right, bound, replacement))
    if isinstance(formula, (Forall, Exists)):
        if formula.var == bound:
            return formula
        cls = type(formula)
        return cls(formula.var, formula.sort, substitute(formula.body, bound, replacement))
    raise TypeError(formula)


def formula_vars(formula: Formula) -> frozenset[Term]:
    if isinstance(formula, Literal):
        return literal_vars(formula)
    if isinstance(formula, (And, Or)):
        return formula_vars(formula.left) | formula_vars(formula.right)
    if isinstance(formula, (Forall, Exists)):
        return frozenset(
            v for v in formula_vars(formula.body)
            if not (isinstance(v, BoundVar) and v.name == formula.var)
        )
    raise TypeError(formula)


def literals_of(context: Iterable[Formula]) -> tuple[Literal, ...]:
    """Literal members of a context, deduplicated, in first-occurrence order."""
    return tuple(dict.fromkeys([f for f in context if type(f) is Literal]))


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Signature:
    """Problem vocabulary.

    preds maps a predicate name to its argument sorts, funs maps an
    uninterpreted function symbol to its arity (arguments and result are
    term-sorted), consts lists the declared uninterpreted constants.
    """

    preds: tuple[tuple[str, tuple[str, ...]], ...] = ()
    funs: tuple[tuple[str, int], ...] = ()
    consts: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Domains


class DomainError(ValueError):
    """A domain was extended or queried inconsistently."""


@hash_once
@dataclass
class Domain:
    """Ordered declarations of eigenvariables and meta-variables.

    decls interleaves both kinds in declaration order; a meta-variable's
    authorised eigenvariables are exactly those declared before it.
    The lookups (declaration positions, authorised sets, metas, eigens,
    metas_key) are computed once per domain, on first use, and cached.
    """

    decls: tuple[EigenVar | MetaVar, ...] = ()

    @staticmethod
    def initial(eigens: Sequence[EigenVar]) -> "Domain":
        d = Domain()
        for e in eigens:
            d = d.add_eigen(e)
        return d

    def _check_fresh(self, name: str) -> None:
        if any(v.name == name for v in self.decls):
            raise DomainError("name %r already declared" % (name,))

    def add_eigen(self, v: EigenVar) -> "Domain":
        self._check_fresh(v.name)
        return Domain(self.decls + (v,))

    def add_meta(self, v: MetaVar) -> "Domain":
        self._check_fresh(v.name)
        return Domain(self.decls + (v,))

    @cached_property
    def eigens(self) -> tuple[EigenVar, ...]:
        return tuple(v for v in self.decls if isinstance(v, EigenVar))

    @cached_property
    def metas(self) -> tuple[MetaVar, ...]:
        return tuple(v for v in self.decls if isinstance(v, MetaVar))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.decls)}

    @cached_property
    def _authorised(self) -> dict[MetaVar, frozenset[EigenVar]]:
        out: dict[MetaVar, frozenset[EigenVar]] = {}
        seen: frozenset[EigenVar] = frozenset()
        for v in self.decls:
            if isinstance(v, EigenVar):
                seen = seen | {v}
            elif isinstance(v, MetaVar):
                out[v] = seen
        return out

    def authorised(self, meta: MetaVar) -> frozenset[EigenVar]:
        try:
            return self._authorised[meta]
        except KeyError:
            raise DomainError("meta-variable %s not declared" % (meta,)) from None

    def position(self, v: EigenVar | MetaVar) -> Optional[int]:
        """Index of v in decls, or None when v is not declared."""
        i = self._positions.get(v.name)
        return i if i is not None and self.decls[i] == v else None

    def last_meta(self) -> Optional[MetaVar]:
        for v in reversed(self.decls):
            if isinstance(v, MetaVar):
                return v
        return None

    def drop_meta(self, meta: MetaVar) -> "Domain":
        """Domain with one meta-variable declaration removed.

        Only meaningful for the last-declared meta (projection); eigens
        declared after it are kept.
        """
        if meta not in self.decls:
            raise DomainError("meta-variable %s not declared" % (meta,))
        return Domain(tuple(v for v in self.decls if v != meta))

    @cached_property
    def metas_key(self) -> tuple[tuple[str, frozenset[EigenVar]], ...]:
        """Identity of the constraint family this domain indexes.

        Appending eigenvariables does not change the family, so only the
        metas and their authorised sets matter.
        """
        return tuple((m.name, self.authorised(m)) for m in self.metas)

    def in_declaration_order(self, entries) -> tuple[tuple[MetaVar, Term], ...]:
        """(meta, image) pairs sorted by declaration position; undeclared
        metas go last."""
        order = self._positions
        return tuple(sorted(entries, key=lambda mt: order.get(mt[0].name, len(order))))


# ---------------------------------------------------------------------------
# Instantiations


@dataclass(frozen=True)
class Instantiation:
    """Total assignment of ground terms to a domain's meta-variables.

    Every image must be ground (no bound or meta-variables), match the
    meta's sort, and draw its eigenvariables from the authorised set.
    """

    domain: Domain
    entries: tuple[tuple[MetaVar, Term], ...] = ()

    def __post_init__(self) -> None:
        assigned = [m for m, _ in self.entries]
        if assigned != list(self.domain.metas):
            raise DomainError("instantiation does not cover the domain's metas in order")
        for m, t in self.entries:
            if t.sort != m.sort:
                raise SortError("instantiation of %s has sort %s" % (m, t.sort))
            vs = term_vars(t)
            if any(isinstance(v, (MetaVar, BoundVar)) for v in vs):
                raise DomainError("instantiation image %s is not ground" % (t,))
            if not term_eigens(t) <= self.domain.authorised(m):
                raise DomainError("instantiation image %s uses unauthorised eigenvariables" % (t,))

    @staticmethod
    def empty(domain: Domain) -> "Instantiation":
        if domain.metas:
            raise DomainError("empty instantiation needs a meta-free domain")
        return Instantiation(domain, ())

    def get(self, meta: MetaVar) -> Term:
        for m, t in self.entries:
            if m == meta:
                return t
        raise KeyError(meta)

    def mapping(self) -> dict[Term, Term]:
        return {m: t for m, t in self.entries}

    def extend(self, domain: Domain, meta: MetaVar, image: Term) -> "Instantiation":
        """The instantiation (self, meta -> image) over `domain` = old + meta."""
        return Instantiation(domain, self.entries + ((meta, image),))

    def apply_literal(self, lit: Literal) -> Literal:
        return subst_literal(lit, self.mapping())

    def __str__(self) -> str:
        return "{%s}" % ", ".join("%s -> %s" % (m, t) for m, t in self.entries)


# ---------------------------------------------------------------------------
# Bounded ground-term enumeration


def ground_candidates(sig: Signature, domain: Domain, meta: MetaVar,
                      depth: int) -> Iterator[tuple[Term, int]]:
    """Ground candidate terms for one meta-variable, smallest first, each
    with its function-application nesting depth.

    Uninterpreted sort: authorised eigenvariables in declaration order at
    depth 0, then function applications level by level up to `depth`,
    each one level deeper than its deepest argument.
    Rational sort: DEFAULT_RATIONAL_SAMPLES followed by authorised
    rational eigenvariables (depth 0; depth does not grow this set).
    Deterministic, and a prefix of any deeper enumeration.
    """
    auth = domain.authorised(meta)
    base = [e for e in domain.eigens if e in auth and e.sort == meta.sort]
    if meta.sort == SORT_RAT:
        yield from ((t, 0) for t in [RatConst(s) for s in DEFAULT_RATIONAL_SAMPLES] + base)
        return
    shallower = [(t, 0) for t in base + [FunApp(c, ()) for c in sig.consts]]
    yield from shallower
    for level in range(1, depth + 1):
        nxt = []
        for fname, arity in sig.funs:
            if arity == 0:
                continue
            for args in itertools.product(shallower, repeat=arity):
                if max(d for _, d in args) == level - 1:
                    cand = (FunApp(fname, tuple([t for t, _ in args])), level)
                    nxt.append(cand)
                    yield cand
        shallower.extend(nxt)


def enumerate_ground_terms(sig: Signature, domain: Domain, meta: MetaVar,
                           depth: int) -> tuple[Term, ...]:
    """The terms of `ground_candidates`, in its order."""
    return tuple([t for t, _ in ground_candidates(sig, domain, meta, depth)])
