"""Syntactic-unification backend.

Constraints are either the absurd constraint or an idempotent
substitution on the domain's meta-variables.  Every binding X -> t is
kept admissible: X does not occur in t, the eigenvariables of t are
authorised for X, and every meta-variable of t has an authorised set
included in X's (authorised sets along one domain form a chain, so
variable-variable pairs always orient).  The meet of two substitutions
is their most general unifier.

Unification keeps its bindings triangular: an image may mention
meta-variables bound after it, and binding a variable rewrites no other
image.  Unification looks only at the top of each side through the
bindings; a new image is resolved once, so the checks above see it as
an idempotent substitution would, and `mgu` resolves each image once
more when it builds the constraint, which therefore stays idempotent.
Two closed terms (no variables at all) unify iff they are equal.
Variables and applications are interned (see `terms`), so two
applications that are both closed are decided by identity, not by
descending into their arguments.

A leaf closure or a meet extends a constraint that is already solved,
so `_extend` takes it as a seed: its entries are the starting substitution
and only the new pairs are unified.  Re-solving an idempotent
admissible substitution from scratch rebuilds it binding for binding,
also after `lift` and `rehouse`, whose appended declarations change no
authorised set of an existing meta-variable; so the seeded result is
the one a from-scratch `mgu` of the seed's entries followed by the new
pairs gives.  A seed is used only when it is closed: every meta-variable
it mentions is declared.  Otherwise it is re-solved from scratch with
the new pairs, so that an image mentioning a projected meta-variable
raises the same DomainError as before.  A constraint that unification
builds is closed by construction (see `_extend`), and is marked so when
it is built.  The leaf stream and the meet work on `_extend`, which
gives None where `mgu` gives the absurd constraint, so no absurd
constraint is built for a failed candidate.

Projection erases the entry of the projected meta-variable; remaining
images may still mention it, in which case compatibility solves for the
erased variable by one-way matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .terms import (
    BoundVar,
    Domain,
    FunApp,
    Instantiation,
    LinTerm,
    Literal,
    MetaVar,
    RatConst,
    SORT_RAT,
    Term,
    hash_once,
    lin_combine,
    lin_of,
    mk_lin,
    subst_term,
    term_eigens,
    term_metas,
    term_vars,
)
from .theory import (
    ConstraintStream,
    PreconditionError,
    Theory,
    check_metas_compatible,
    dual_pred_pairs,
    meet_domain,
)


@hash_once
@dataclass
class SubstConstraint:
    """Idempotent substitution, or the absurd constraint when entries is None.

    Entries are sorted by the key's declaration position in the domain.
    """

    domain: Domain
    entries: Optional[tuple[tuple[MetaVar, Term], ...]] = ()

    @property
    def is_bot(self) -> bool:
        return self.entries is None

    def get(self, meta: MetaVar) -> Term:
        """Image of a meta-variable; unmapped variables stand for themselves."""
        return self.mapping().get(meta, meta)

    @property
    def closed(self) -> bool:
        """Every meta-variable of the entries is declared in the domain.

        Only projection breaks this: the remaining images may still
        mention the erased meta-variable.  Computed once per constraint.
        """
        out = self.__dict__.get("_closed")
        if out is None:
            position = self.domain.position
            out = self._closed = self.entries is not None and all(
                position(y) is not None
                for m, t in self.entries for y in (m, *term_metas(t)))
        return out

    def mapping(self) -> dict[Term, Term]:
        """The entries as a dict, built once per constraint; not to be mutated."""
        if self.entries is None:
            raise PreconditionError("the absurd constraint maps nothing")
        out = self.__dict__.get("_mapping")
        if out is None:
            out = self._mapping = dict(self.entries)
        return out

    def __str__(self) -> str:
        if self.entries is None:
            return "BOT"
        if not self.entries:
            return "TOP"
        return "{%s}" % ", ".join("%s -> %s" % (m, t) for m, t in self.entries)


def _bot(domain: Domain) -> SubstConstraint:
    return SubstConstraint(domain, None)


def _admissible(domain: Domain, meta: MetaVar, image: Term) -> bool:
    # Occurs check plus the dependency discipline described above.
    metas = term_metas(image)
    if meta in metas:
        return False
    auth = domain.authorised(meta)
    if not term_eigens(image) <= auth:
        return False
    # Every lookup comes before any comparison, so an undeclared meta
    # raises DomainError whatever the iteration order of `metas`.
    auths = [domain.authorised(y) for y in metas]
    return all(a <= auth for a in auths)


class _Clash(Exception):
    """Internal: unification failed."""


def _walk(t: Term, subst: dict[MetaVar, Term]) -> Term:
    """Follow bindings from the top of t until an unbound meta or a non-meta."""
    while type(t) is MetaVar:
        image = subst.get(t)
        if image is None:
            return t
        t = image
    return t


def _resolve(t: Term, subst: dict[MetaVar, Term]) -> Term:
    """t with every bound meta-variable replaced, through chains of bindings."""
    kind = type(t)
    if kind is MetaVar:
        image = subst.get(t)
        return t if image is None else _resolve(image, subst)
    if kind is FunApp:
        if subst.keys().isdisjoint(term_vars(t)):
            return t
        return FunApp(t.symbol, tuple([_resolve(x, subst) for x in t.args]))
    if kind is LinTerm:
        return subst_term(t, {v: _resolve(v, subst) for v, _ in t.coeffs})
    return t


def _unify(domain: Domain, subst: dict[MetaVar, Term], a: Term, b: Term) -> None:
    # Every test is on `type(...) is`: no term class has a subclass.
    a = _walk(a, subst)
    b = _walk(b, subst)
    if type(a) is LinTerm or type(b) is LinTerm:
        # Renormalising can collapse a combination to a variable or a
        # constant, so linear terms are compared fully resolved.
        a = _resolve(a, subst)
        b = _resolve(b, subst)
    # Variables and applications are interned, so equal ones are one
    # object; equal rational terms are left to `_unify_rational`.
    if a is b:
        return
    kind_a, kind_b = type(a), type(b)
    if kind_a is FunApp and kind_b is FunApp:
        # Two closed applications unify iff they are the same object,
        # and these are not.
        if (a.symbol != b.symbol or len(a.args) != len(b.args)
                or not (term_vars(a) or term_vars(b))):
            raise _Clash
        for x, y in zip(a.args, b.args):
            _unify(domain, subst, x, y)
        return
    if kind_a is BoundVar or kind_b is BoundVar:
        raise PreconditionError("bound variable escaped into unification")
    if kind_a is MetaVar:
        # Between two metas, bind toward the smaller authorised set;
        # sets form a chain.
        if kind_b is MetaVar and not domain.authorised(b) <= domain.authorised(a):
            _bind(domain, subst, b, a)
        else:
            _bind(domain, subst, a, b)
        return
    if kind_b is MetaVar:
        _bind(domain, subst, b, a)
        return
    if a.sort == SORT_RAT and b.sort == SORT_RAT:
        _unify_rational(domain, subst, a, b)
        return
    raise _Clash


def _unify_rational(domain: Domain, subst: dict[MetaVar, Term], a: Term, b: Term) -> None:
    # Syntactic treatment with one linear special case: when the
    # difference a - b has exactly one meta-variable, solve for it.
    diff = lin_combine((Fraction(1), a), (Fraction(-1), b))
    if diff == RatConst(Fraction(0)):
        return
    solved = _solve_linear(diff)
    if solved is None:
        raise _Clash
    _bind(domain, subst, *solved)


def _solve_linear(t: Term) -> Optional[tuple[MetaVar, Term]]:
    """(X, -rest/c) for t = c*X + rest with X its only meta-variable, else None."""
    coeffs, const = lin_of(t)
    metas = [v for v in coeffs if isinstance(v, MetaVar)]
    if len(metas) != 1 or any(isinstance(v, BoundVar) for v in coeffs):
        return None
    (x,) = metas
    c = coeffs.pop(x)
    return x, mk_lin({v: -k / c for v, k in coeffs.items()}, -const / c)


def _bind(domain: Domain, subst: dict[MetaVar, Term], meta: MetaVar, image: Term) -> None:
    # The checks see the image resolved, as they would in an idempotent
    # substitution; the images bound earlier are left as they are.
    image = _resolve(image, subst)
    if image.sort != meta.sort:
        raise _Clash
    if not _admissible(domain, meta, image):
        raise _Clash
    subst[meta] = image


def _extend(pairs: Iterable[tuple[Term, Term]], domain: Domain,
            seed: Optional[SubstConstraint] = None) -> Optional[SubstConstraint]:
    """`mgu`, with None in place of the absurd constraint.

    A closed seed's bindings start the substitution as a copy of its
    cached `mapping`, so a candidate that clashes at once costs one
    `dict.copy`, not a rehash of every entry.  A seed without entries
    (every propositional leaf's) starts from an empty dict and caches
    no mapping.

    A constraint this builds is closed, so its `closed` cache is set
    here, before the constraint is returned, instead of being recomputed
    when it next seeds a pull.  The seed is only read: like every
    constraint it is never mutated once built, since its cached hash
    and mapping assume fixed fields.  Each
    binding comes from a closed seed or from `_bind`.  A closed seed's
    keys and image metas are declared in its domain, and the seed is of
    `domain`'s family (the leaf stream passes the seed's own domain, and
    `meet` checks the family through `meet_domain`), which declares the
    same meta-variables.  A binding made
    by `_bind` passed `_admissible`, which looks up in `domain` the
    authorised set of its key and of every meta-variable of its image,
    and raises DomainError for one that is undeclared.  Resolving an
    image only puts such images in place of meta-variables.
    """
    reuse = seed is not None and seed.closed
    subst: dict[MetaVar, Term] = seed.mapping().copy() if reuse and seed.entries else {}
    if seed is not None and not reuse:
        pairs = [*seed.entries, *pairs]
    try:
        for a, b in pairs:
            _unify(domain, subst, a, b)
    except _Clash:
        return None
    if reuse and seed.domain is domain and len(subst) == len(seed.entries):
        return seed
    out = SubstConstraint(domain, domain.in_declaration_order(
        (m, _resolve(t, subst)) for m, t in subst.items()))
    out._closed = True
    return out


def mgu(pairs: Iterable[tuple[Term, Term]], domain: Domain) -> SubstConstraint:
    """Most general unifier of the pairs as a constraint; absurd on failure."""
    out = _extend(pairs, domain)
    return _bot(domain) if out is None else out


class _Mismatch(Exception):
    """Internal: one-way matching failed."""


def _match(pattern: Term, target: Term, bindings: dict[MetaVar, Term]) -> None:
    """Solve pattern = target for the pattern's meta-variables; target is ground.

    Every binding is ground, so only the top of the pattern and linear
    terms need them substituted.
    """
    if isinstance(pattern, MetaVar):
        pattern = bindings.get(pattern, pattern)
    elif isinstance(pattern, LinTerm):
        pattern = subst_term(pattern, bindings)
    if pattern == target:
        return
    if isinstance(pattern, MetaVar):
        if target.sort != pattern.sort:
            raise _Mismatch
        bindings[pattern] = target
        return
    if isinstance(pattern, FunApp) and isinstance(target, FunApp):
        if pattern.symbol != target.symbol or len(pattern.args) != len(target.args):
            raise _Mismatch
        for p, t in zip(pattern.args, target.args):
            _match(p, t, bindings)
        return
    if isinstance(pattern, LinTerm) and target.sort == SORT_RAT:
        solved = _solve_linear(lin_combine((Fraction(1), pattern), (Fraction(-1), target)))
        if solved is None:
            raise _Mismatch
        x, image = solved
        bindings[x] = image
        return
    raise _Mismatch


class SubstTheory(Theory):
    """Unification backend over the empty theory."""

    name = "fol"

    # -- constraint algebra ------------------------------------------------

    def top(self, domain: Domain) -> SubstConstraint:
        return SubstConstraint(domain, ())

    def project_payload(self, sigma: SubstConstraint, meta: MetaVar,
                        domain: Domain) -> SubstConstraint:
        if sigma.is_bot:
            return _bot(domain)
        return SubstConstraint(domain, tuple((m, t) for m, t in sigma.entries if m != meta))

    def meet(self, a: SubstConstraint, b: SubstConstraint) -> Optional[SubstConstraint]:
        domain = meet_domain(a, b)
        return None if a.is_bot or b.is_bot else _extend(b.entries, domain, a)

    def consistency(self, lits: tuple[Literal, ...], domain: Domain) -> ConstraintStream:
        def outputs(current: SubstConstraint):
            if current.is_bot:
                return
            for l, l2 in dual_pred_pairs(lits):
                out = _extend(zip(l.atom.args, l2.atom.args), current.domain, current)
                if out is not None:
                    yield frozenset((l, l2)), out

        return ConstraintStream(outputs)

    # -- semantics ----------------------------------------------------------

    def satisfiable(self, sigma: SubstConstraint) -> bool:
        return not sigma.is_bot

    def compatible(self, rho: Instantiation, sigma: SubstConstraint) -> bool:
        if sigma.is_bot:
            return False
        check_metas_compatible(rho.domain, sigma.domain)
        try:
            self._match_all(rho, sigma)
        except _Mismatch:
            return False
        return True

    def _match_all(self, rho: Instantiation, sigma: SubstConstraint) -> dict[MetaVar, Term]:
        """Bindings for metas erased by projection making rho an instance."""
        rmap = rho.mapping()
        bindings: dict[MetaVar, Term] = {}
        for m in rho.domain.metas:
            pattern = subst_term(sigma.get(m), rmap)
            _match(pattern, rmap[m], bindings)
        return bindings

    def witness_payload(self, sigma: SubstConstraint, meta: MetaVar,
                        rho: Instantiation) -> Term:
        # rho covers every meta but `meta`, on which sigma and its
        # projection agree, so matching against sigma is matching
        # against the projection.
        bindings = self._match_all(rho, sigma)
        pattern = subst_term(subst_term(sigma.get(meta), rho.mapping()), bindings)
        # Every meta-variable left in the image has `meta`'s sort.
        fill = {v: self.first_ground(sigma.domain, meta) for v in term_metas(pattern)}
        return subst_term(pattern, fill)

    def shrink(self, sigma: SubstConstraint) -> Iterator[SubstConstraint]:
        if sigma.is_bot or not sigma.entries:
            return
        for i in range(len(sigma.entries)):
            yield SubstConstraint(sigma.domain, sigma.entries[:i] + sigma.entries[i + 1:])
