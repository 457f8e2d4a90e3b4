"""Backend contract: constraint families indexed by domains.

A backend supplies, for every domain d, a family of constraint values
together with the operations the search kernel composes:

    top(d)              the unconstrained element
    project(sigma, X)   existential projection of the last meta-variable
    lift(sigma, X)      re-indexing into the extended domain d + X
    meet(a, b)          greatest lower bound, or None when unsatisfiable
    consistency(lits,d) lazy stream of ways to close a leaf

plus test-facing semantics: `compatible` decides whether a ground
instantiation satisfies a constraint and `witness` extends a compatible
instantiation to the last meta-variable.  Proof search itself only calls
compatible at the root gate and witness during reconstruction.

Every constraint is a dataclass with a `domain` field that is never
mutated after construction.  Most of the domain bookkeeping lives
here: `lift` re-tags the domain, `project` and `witness` check their
preconditions before calling the backend's `project_payload` and
`witness_payload`, and `meet_domain` checks the family of two meet
operands and picks the result's domain.  Each backend's `compatible`
calls `check_metas_compatible` itself.  The `fol` and `lra` leaf
streams build their outputs at the input's domain and never read their
`domain` argument; `enum`'s checks the input's family against it.
A backend is built from the problem's `Signature`, kept as `sig`, and
implements `top`, `meet`, `consistency`, `satisfiable`, `compatible`
and the two payload hooks; `ground_valid` (default: a complementary
pair) and `shrink` are optional.  `first_ground(domain, meta)`, the
first term `ground_candidates` gives a meta-variable, is the default
witness a payload hook falls back on.  Constraints are shown with
`str`.

Every backend's leaf stream is one `ConstraintStream` over a backend
generator `outputs(current)`, which yields the leaf's closures under
one input constraint.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from typing import Iterator, Optional

from .terms import (
    Domain,
    Instantiation,
    Literal,
    MetaVar,
    PredAtom,
    Signature,
    Term,
    ground_candidates,
)


class TheoryError(Exception):
    """Base class for backend errors."""


class DomainMismatch(TheoryError):
    """Operands tagged with incompatible domains."""


class PreconditionError(TheoryError):
    """An operation was called outside its stated precondition."""


class WitnessUnsupported(TheoryError):
    """No witness term is expressible for this constraint."""


class ResourceLimit(TheoryError):
    """A size cap was exceeded; the result is unknown, not refuted."""


class ConstraintStream:
    """The lazy stream of ways to close one leaf under one input.

    `outputs(current)` is a backend generator of pairs (used literal
    subset, output constraint).  The first pull fixes the input and
    starts the generator; each pull returns its next pair, or None once
    it is exhausted.  A pull that raises ends the stream.  A later pull
    with an input not equal to the first raises PreconditionError.
    Pulling is the only effectful operation; a stream has a single
    consumer.
    """

    def __init__(self, outputs) -> None:
        self._outputs = outputs
        self._input: object = None
        self._gen: Optional[Iterator] = None

    def pull(self, current: object) -> Optional[tuple[frozenset[Literal], object]]:
        if self._gen is None:
            self._input = current
            self._gen = self._outputs(current)
        elif current is not self._input and current != self._input:
            raise PreconditionError("a leaf stream serves one input")
        return next(self._gen, None)


def check_metas_compatible(a_domain: Domain, b_domain: Domain) -> None:
    """Constraints interact only within one constraint family.

    Appending eigenvariables never changes the family, so two domains
    are compatible when their meta declarations agree.  The message
    shows each side's metas with the eigenvariables they may see.
    """
    if a_domain.metas_key != b_domain.metas_key:
        raise DomainMismatch(
            "domains disagree on meta-variables: %s vs %s"
            % (_family(a_domain), _family(b_domain))
        )


def _family(domain: Domain) -> str:
    """`(?X sees {e0}, ?Y sees {})`: each meta and its authorised
    eigenvariables, in declaration order."""
    return "(%s)" % ", ".join(
        "%s sees {%s}" % (m, ", ".join(str(e) for e in domain.eigens
                                       if e in domain.authorised(m)))
        for m in domain.metas)


def meet_domain(a, b) -> Domain:
    """Domain of the meet of two constraints of one family.

    Operands may differ in trailing eigenvariables; the meet lives at
    the longer domain.
    """
    if a.domain is b.domain:
        return a.domain
    check_metas_compatible(a.domain, b.domain)
    return a.domain if len(a.domain.decls) >= len(b.domain.decls) else b.domain


def rehouse(sigma, domain: Domain):
    """Re-index a constraint at a domain extended with eigenvariables.

    The payload is untouched; only the domain tag changes.  Used when a
    constraint crosses a universal rule, whose fresh eigenvariable must
    become visible to later domain arithmetic (lifts, authorised sets).
    """
    if sigma.domain == domain:
        return sigma
    check_metas_compatible(sigma.domain, domain)
    return dataclasses.replace(sigma, domain=domain)


def complementary_pair(lits) -> Optional[tuple[Literal, Literal]]:
    """First pair of syntactically complementary literals, context order."""
    lits = tuple(lits)
    for i, l in enumerate(lits):
        for l2 in lits[i + 1:]:
            if l.positive != l2.positive and l.atom == l2.atom:
                return (l, l2) if l.positive else (l2, l)
    return None


def dual_pred_pairs(lits) -> Iterator[tuple[Literal, Literal]]:
    """Opposite-polarity same-predicate literal pairs, context order.

    Ordered by the first literal's position, then the second's.  Both
    members are uninterpreted atoms of equal arity.
    """
    lits = tuple(lits)
    for i, l in enumerate(lits):
        if not isinstance(l.atom, PredAtom):
            continue
        for l2 in lits[i + 1:]:
            if not isinstance(l2.atom, PredAtom):
                continue
            if (
                l.atom.name == l2.atom.name
                and len(l.atom.args) == len(l2.atom.args)
                and l.positive != l2.positive
            ):
                yield (l, l2)


class Theory(ABC):
    """Abstract backend; see the module docstring for the operation set."""

    name: str = "abstract"

    def __init__(self, sig: Signature = Signature()) -> None:
        self.sig = sig

    @abstractmethod
    def top(self, domain: Domain):
        raise NotImplementedError

    def project(self, sigma, meta: MetaVar):
        if sigma.domain.last_meta() != meta:
            raise PreconditionError("projection must target the last meta-variable")
        return self.project_payload(sigma, meta, sigma.domain.drop_meta(meta))

    @abstractmethod
    def project_payload(self, sigma, meta: MetaVar, domain: Domain):
        """sigma with `meta` eliminated, at `domain` (sigma's minus meta)."""
        raise NotImplementedError

    def lift(self, sigma, meta: MetaVar):
        return dataclasses.replace(sigma, domain=sigma.domain.add_meta(meta))

    @abstractmethod
    def meet(self, a, b):
        raise NotImplementedError

    @abstractmethod
    def consistency(self, lits: tuple[Literal, ...], domain: Domain) -> ConstraintStream:
        raise NotImplementedError

    @abstractmethod
    def satisfiable(self, sigma) -> bool:
        """The pruning predicate P in its native (non-oracle) form."""
        raise NotImplementedError

    @abstractmethod
    def compatible(self, rho: Instantiation, sigma) -> bool:
        raise NotImplementedError

    def witness(self, sigma, rho: Instantiation) -> Term:
        """Image for the last meta of sigma's domain extending rho.

        pre: rho is compatible with project(sigma, last meta).
        """
        meta = sigma.domain.last_meta()
        if meta is None:
            raise PreconditionError("witness needs at least one meta-variable")
        if not self.compatible(rho, self.project(sigma, meta)):
            raise PreconditionError("instantiation incompatible with the projection")
        return self.witness_payload(sigma, meta, rho)

    @abstractmethod
    def witness_payload(self, sigma, meta: MetaVar, rho: Instantiation) -> Term:
        """witness once its precondition holds; `meta` is the last meta."""
        raise NotImplementedError

    def first_ground(self, domain: Domain, meta: MetaVar) -> Term:
        """The default witness of `meta`: the first term `ground_candidates`
        gives it, the first default rational sample, or the first authorised
        eigenvariable of the uninterpreted sort, else the first constant."""
        for term, _ in ground_candidates(self.sig, domain, meta, 0):
            return term
        raise WitnessUnsupported("no authorised ground term of the uninterpreted sort")

    def ground_valid(self, lits: tuple[Literal, ...]) -> bool:
        """Ground-leaf validity used by proof reconstruction: a
        syntactically complementary pair."""
        return complementary_pair(lits) is not None

    def shrink(self, sigma) -> Iterator[object]:
        """Strictly smaller constraints for counterexample shrinking."""
        return iter(())
