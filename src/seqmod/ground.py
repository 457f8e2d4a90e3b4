"""Ground-enumeration backend.

Constraints are partial maps from meta-variables to ground terms.  The
leaf stream enumerates total groundings of the meta-variables occurring
in the leaf's literals, fairly (breadth-first on total term depth, then
lexicographically on candidate indices), keeps the groundings whose
instantiated literal set contains a complementary pair, and merges each
survivor with the input constraint.  A depth ceiling bounds the
candidate terms; beyond it the stream is exhausted, never wrong.

Groundings are produced lazily, one total depth at a time, so a leaf
that closes early never builds the whole product.  They are the
candidates of the shared `ConstraintStream`, and its combine step is the
input filter: it compares a grounding with the images the pull's input
already fixes for the stream's meta-variables and skips it, before
grounding any literal, when they disagree.  The merge would reject
exactly those groundings, and a skipped grounding is consumed either
way, so the stream's outputs are the same for any sequence of inputs.
Only literals whose predicate occurs with both polarities can close a
leaf; each of them is instantiated once per grounding of its own
meta-variables, for the life of the stream.  This backend doubles as a
cross-check oracle for the unification backend on problems both can
express, so it stays a plain enumeration: no unification, and the fair
order and its cap are those of the whole product; the input filter only
skips groundings the merge would drop.

The witness of a meta-variable the constraint leaves unassigned is
`theory.first_ground` over the signature's constants: the first default
rational sample, or the first authorised term-sorted eigenvariable, else
the first constant.  That is the first candidate the leaf stream tries
for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .terms import (
    BoundVar,
    Domain,
    FunApp,
    Instantiation,
    Literal,
    MetaVar,
    PredAtom,
    Signature,
    Term,
    enumerate_ground_terms,
    hash_once,
    literal_vars,
    subst_literal,
    term_depth,
    term_eigens,
    term_sort,
    term_vars,
)
from .theory import (
    ConstraintStream,
    PreconditionError,
    ResourceLimit,
    Theory,
    check_metas_compatible,
    complementary_pair,
    first_ground,
    meet_domain,
)

_MAX_ASSIGNMENTS = 500_000


@hash_once
@dataclass(frozen=True)
class GroundConstraint:
    """Partial map from meta-variables to ground terms, declaration order."""

    domain: Domain
    entries: tuple[tuple[MetaVar, Term], ...] = ()

    def __post_init__(self) -> None:
        positions = [self.domain.position(m) if isinstance(m, MetaVar) else None
                     for m, _ in self.entries]
        for (m, _), i in zip(self.entries, positions):
            if i is None:
                raise PreconditionError("%s is not declared in the domain" % (m,))
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            raise PreconditionError("entries must follow declaration order without repeats")
        for m, t in self.entries:
            if term_sort(t) != m.sort:
                raise PreconditionError("image sort mismatch for %s" % (m,))
            if any(isinstance(v, (MetaVar, BoundVar)) for v in term_vars(t)):
                raise PreconditionError("image %s is not ground" % (t,))
            if not term_eigens(t) <= self.domain.authorised(m):
                raise PreconditionError("image %s uses unauthorised eigenvariables" % (t,))

    def mapping(self) -> dict[MetaVar, Term]:
        """The entries as a dict, built once per constraint; not to be mutated."""
        out = self.__dict__.get("_mapping")
        if out is None:
            out = dict(self.entries)
            object.__setattr__(self, "_mapping", out)
        return out

    def get(self, meta: MetaVar) -> Optional[Term]:
        return self.mapping().get(meta)

    def __str__(self) -> str:
        if not self.entries:
            return "TRUE"
        return "{%s}" % ", ".join("%s -> %s" % (m, t) for m, t in self.entries)


def _merge(domain: Domain, a: GroundConstraint, b_entries) -> Optional[GroundConstraint]:
    """a extended by b_entries, whose metas are distinct, at domain; None
    when a maps one of them to another image."""
    amap = a.mapping()
    added: dict[MetaVar, Term] = {}
    for m, t in b_entries:
        old = amap.get(m)
        if old is None:
            added[m] = t
        elif old != t:
            return None
    return GroundConstraint(domain, domain.in_declaration_order({**amap, **added}.items()))


def ground_meet(a: GroundConstraint, b: GroundConstraint) -> Optional[GroundConstraint]:
    """Union of two partial maps; None on disagreement."""
    domain = meet_domain(a, b)
    return _merge(domain, a, b.entries)


def _fair_assignments(cand_lists: Sequence[Sequence[Term]]) -> Iterator[tuple[Term, ...]]:
    """Term tuples, one candidate per list, ordered by total term depth,
    then lexicographically on candidate indices.

    Produced level by level, one total depth at a time, with each
    candidate's depth computed once.  An empty list gives an empty
    stream; otherwise the size cap is checked on the call, not on the
    first draw.
    """
    if any(not c for c in cand_lists):
        return iter(())
    total = 1
    for c in cand_lists:
        total *= len(c)
        if total > _MAX_ASSIGNMENTS:
            raise ResourceLimit("ground assignment space exceeds %d" % _MAX_ASSIGNMENTS)
    depths = [[term_depth(t) for t in c] for c in cand_lists]
    # lo[i], hi[i]: least and greatest total depth of positions i onwards.
    lo = [0] * (len(depths) + 1)
    hi = [0] * (len(depths) + 1)
    for i in range(len(depths) - 1, -1, -1):
        lo[i] = lo[i + 1] + min(depths[i])
        hi[i] = hi[i + 1] + max(depths[i])

    def level(i: int, rest: int, prefix: tuple[Term, ...]) -> Iterator[tuple[Term, ...]]:
        # Tuples extending `prefix` whose depths from position i sum to `rest`.
        if i == len(depths):
            yield prefix
            return
        for t, d in zip(cand_lists[i], depths[i]):
            if lo[i + 1] <= rest - d <= hi[i + 1]:
                yield from level(i + 1, rest - d, prefix + (t,))

    return itertools.chain.from_iterable(level(0, total_depth, ())
                                         for total_depth in range(lo[0], hi[0] + 1))


def _pred_key(atom) -> object:
    """The predicate of an atom: name and arity, or the arithmetic op."""
    if isinstance(atom, PredAtom):
        return (atom.name, len(atom.args))
    return atom.op


class GroundEnumTheory(Theory):
    """Enumeration backend; see the module docstring."""

    name = "enum"

    def __init__(self, sig: Signature = Signature(), ceiling: int = 3) -> None:
        self.sig = sig
        self.ceiling = ceiling

    # -- constraint algebra ------------------------------------------------

    def top(self, domain: Domain) -> GroundConstraint:
        return GroundConstraint(domain, ())

    def project_payload(self, sigma: GroundConstraint, meta: MetaVar,
                        domain: Domain) -> GroundConstraint:
        return GroundConstraint(domain, tuple((m, t) for m, t in sigma.entries if m != meta))

    def meet(self, a: GroundConstraint, b: GroundConstraint) -> Optional[GroundConstraint]:
        return ground_meet(a, b)

    def consistency(self, lits: tuple[Literal, ...], domain: Domain) -> ConstraintStream:
        lits = tuple(lits)
        metas = [m for m in domain.metas
                 if any(m in literal_vars(l) for l in lits)]
        cand_lists = [enumerate_ground_terms(self.sig, domain, m, self.ceiling) for m in metas]
        assignments = _fair_assignments(cand_lists)
        # Only a literal whose predicate occurs with both polarities can
        # be, or equal, a member of a complementary pair.
        polarities: dict = {}
        for l in lits:
            polarities.setdefault(_pred_key(l.atom), set()).add(l.positive)
        live = tuple(l for l in lits if len(polarities[_pred_key(l.atom)]) == 2)
        # Each live literal's metas, as positions in `metas`.
        positions = tuple(tuple(i for i, m in enumerate(metas) if m in vs)
                          for vs in map(literal_vars, live))
        instances: dict = {}  # (literal index, images of its metas) -> ground literal

        def ground(k: int, images: tuple[Term, ...]) -> Literal:
            own = tuple(images[i] for i in positions[k])
            gl = instances.get((k, own))
            if gl is None:
                mapping = {metas[i]: t for i, t in zip(positions[k], own)}
                gl = instances[(k, own)] = subst_literal(live[k], mapping)
            return gl

        def combine(images: tuple[Term, ...], current: GroundConstraint):
            # A grounding that disagrees with an image the input fixes is
            # skipped before any literal is grounded; the merge would
            # reject it, so every merge below succeeds.
            fixed = current.mapping()
            for m, t in zip(metas, images):
                f = fixed.get(m)
                if f is not None and f != t:
                    return None
            ground_lits = tuple(ground(k, images) for k in range(len(live)))
            pair = complementary_pair(ground_lits)
            if pair is None:
                return None
            # Map the closing ground literals back to their sources.
            used = frozenset(l for l, gl in zip(live, ground_lits) if gl in pair)
            return used, _merge(current.domain, current, zip(metas, images))

        return ConstraintStream(assignments if live else (), combine)

    # -- semantics ----------------------------------------------------------

    def satisfiable(self, sigma: GroundConstraint) -> bool:
        # Any admissible partial map extends to a total instantiation.
        return True

    def compatible(self, rho: Instantiation, sigma: GroundConstraint) -> bool:
        check_metas_compatible(rho.domain, sigma.domain)
        return all(rho.get(m) == t for m, t in sigma.entries)

    def witness_payload(self, sigma: GroundConstraint, meta: MetaVar,
                        rho: Instantiation) -> Term:
        assigned = sigma.get(meta)
        if assigned is not None:
            return assigned
        return first_ground(meta.sort, sigma.domain.authorised(meta), sigma.domain,
                            tuple(FunApp(c, ()) for c in self.sig.consts))

    def ground_valid(self, lits: tuple[Literal, ...]) -> bool:
        return complementary_pair(lits) is not None

    def shrink(self, sigma: GroundConstraint) -> Iterator[GroundConstraint]:
        for i in range(len(sigma.entries)):
            yield GroundConstraint(sigma.domain, sigma.entries[:i] + sigma.entries[i + 1:])
