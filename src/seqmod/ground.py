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
candidates of the shared `ConstraintStream`, walked by a positional
cursor over the fair order.  Each pull reads the images its input
fixes for the stream's meta-variables; each becomes a pin, the one
candidate index allowed at that position, and the pull walks only the
groundings that agree with the pins, from the cursor onwards.  After a
pull the cursor sits just after the returned grounding, or at the end
when none is left.  A grounding the cursor passes over is consumed,
whether it was tried or jumped over for disagreeing with the input: the
merge with the input would reject it anyway.  So the stream's outputs
are those of a scan of the whole order that skips disagreeing
groundings, for any sequence of inputs.  An image no candidate list
holds leaves nothing that agrees, and the cursor moves to the end.  A
pull whose pins equal the previous pull's resumes the previous walk; di
pulls always take `top`, so they walk the order once.  Only literals
whose predicate occurs with both polarities can close a leaf; each of
them is instantiated once per grounding of its own meta-variables, for
the life of the stream.  The candidate lists, their depths and their
term-to-index maps are memoised on the theory instance, keyed by the
meta-variable's sort and its authorised eigenvariables in declaration
order, which is all `enumerate_ground_terms` reads besides the
signature and ceiling.  This backend doubles as a cross-check oracle for
the unification backend on problems both can express, so it stays a
plain enumeration: no unification, and the fair order and its cap are
those of the whole product; the pins only jump over groundings the
merge would drop.

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
_END = object()  # the cursor of an exhausted leaf stream


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


def _within_cap(cand_lists: Sequence[Sequence]) -> bool:
    """Whether the product of the lists has a member: False when one is
    empty; ResourceLimit when it has more than `_MAX_ASSIGNMENTS`."""
    if any(not c for c in cand_lists):
        return False
    total = 1
    for c in cand_lists:
        total *= len(c)
        if total > _MAX_ASSIGNMENTS:
            raise ResourceLimit("ground assignment space exceeds %d" % _MAX_ASSIGNMENTS)
    return True


def _walk(options: Sequence[Sequence[tuple[int, Term, int]]],
          after: Optional[tuple[int, tuple[int, ...]]]) -> Iterator[tuple[Term, ...]]:
    """The term tuples of the fair order (total term depth, then candidate
    indices) that take one of `options[i]` at each position i, from just
    after `after` onwards.

    `options[i]` holds (candidate index, term, depth) triples in index
    order, none of them empty: a whole candidate list, or the one
    candidate a pin allows.  `after` is the (total depth, indices) of a
    tuple, or None for the start of the order.  Produced level by level,
    one total depth at a time, with each level's depth bounds taken over
    the allowed candidates only.
    """
    n = len(options)
    # lo[i], hi[i]: least and greatest total depth of positions i onwards.
    lo = [0] * (n + 1)
    hi = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        lo[i] = lo[i + 1] + min(d for _, _, d in options[i])
        hi[i] = hi[i + 1] + max(d for _, _, d in options[i])

    def level(i: int, rest: int, prefix: tuple[Term, ...]) -> Iterator[tuple[Term, ...]]:
        # Tuples extending `prefix` whose depths from position i sum to `rest`.
        if i == n:
            yield prefix
            return
        lo1, hi1 = lo[i + 1], hi[i + 1]
        for _, t, d in options[i]:
            if lo1 <= rest - d <= hi1:
                yield from level(i + 1, rest - d, prefix + (t,))

    def resume(i: int, rest: int, prefix: tuple[Term, ...]) -> Iterator[tuple[Term, ...]]:
        # As `level`, for a prefix at after's first i indices: only the
        # tuples lexicographically after after's own.
        if i == n:
            return
        lo1, hi1 = lo[i + 1], hi[i + 1]
        k = after_indices[i]
        for j, t, d in options[i]:
            if j >= k and lo1 <= rest - d <= hi1:
                yield from (resume if j == k else level)(i + 1, rest - d, prefix + (t,))

    first = lo[0]
    head: Iterator[tuple[Term, ...]] = iter(())
    if after is not None:
        after_total, after_indices = after
        head = resume(0, after_total, ())
        first = max(first, after_total + 1)
    return itertools.chain(head, itertools.chain.from_iterable(
        level(0, total_depth, ()) for total_depth in range(first, hi[0] + 1)))


def _indexed(terms: Sequence[Term]) -> tuple[tuple[int, Term, int], ...]:
    """(index, term, depth) for each candidate term."""
    return tuple((j, t, term_depth(t)) for j, t in enumerate(terms))


def _fair_assignments(cand_lists: Sequence[Sequence[Term]]) -> Iterator[tuple[Term, ...]]:
    """Term tuples, one candidate per list, ordered by total term depth,
    then lexicographically on candidate indices: the unpinned walk.

    An empty list gives an empty stream; otherwise the size cap is
    checked on the call, not on the first draw.
    """
    if not _within_cap(cand_lists):
        return iter(())
    return _walk([_indexed(c) for c in cand_lists], None)


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
        self._memo: dict = {}  # see `_candidates`

    def _candidates(self, domain: Domain, meta: MetaVar):
        """`meta`'s candidates as (index, term, depth) triples, and each
        term's index.

        `enumerate_ground_terms` depends only on the meta's sort and its
        authorised eigenvariables in declaration order, which are the
        domain's first ones, so that pair is the memo key.
        """
        key = (meta.sort, domain.eigens[:len(domain.authorised(meta))])
        out = self._memo.get(key)
        if out is None:
            terms = enumerate_ground_terms(self.sig, domain, meta, self.ceiling)
            out = self._memo[key] = (_indexed(terms), {t: j for j, t in enumerate(terms)})
        return out

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
        metas = tuple(m for m in domain.metas
                      if any(m in literal_vars(l) for l in lits))
        memo = [self._candidates(domain, m) for m in metas]
        cands = [c for c, _ in memo]
        indexes = [ix for _, ix in memo]
        nonempty = _within_cap(cands)
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

        # The cursor: the walk of the groundings that agree with `pinned`
        # (the images the walk's input fixes), and the last grounding a
        # pull returned, or _END once a walk is exhausted.
        pinned: Optional[tuple] = None
        walk: Iterator[tuple[Term, ...]] = iter(())
        last: object = None if nonempty and live else _END

        def to_end() -> Iterator[tuple[Term, ...]]:
            nonlocal last
            last = _END
            yield from ()

        def source(current: GroundConstraint) -> Iterator[tuple[Term, ...]]:
            nonlocal pinned, walk
            fixed = current.mapping()
            images = tuple(map(fixed.get, metas))
            if images == pinned:
                return walk
            pinned = images
            pins = tuple(None if t is None else ix.get(t) for ix, t in zip(indexes, images))
            if last is _END or any(i is None and t is not None for i, t in zip(pins, images)):
                # At the end already, or an image no candidate list holds,
                # so that nothing agrees.
                walk = to_end()
                return walk
            after = None
            if last is not None:
                done = tuple(ix[t] for ix, t in zip(indexes, last))
                after = (sum(c[j][2] for c, j in zip(cands, done)), done)
            options = [c if p is None else (c[p],) for c, p in zip(cands, pins)]
            walk = itertools.chain(_walk(options, after), to_end())
            return walk

        def combine(images: tuple[Term, ...], current: GroundConstraint):
            # The walk gives only groundings that agree with the images
            # the input fixes; this test keeps every merge below sound.
            nonlocal last
            fixed = current.mapping()
            for m, t in zip(metas, images):
                f = fixed.get(m)
                if f is not None and f != t:
                    return None
            ground_lits = tuple(ground(k, images) for k in range(len(live)))
            pair = complementary_pair(ground_lits)
            if pair is None:
                return None
            last = images
            # Map the closing ground literals back to their sources.
            used = frozenset(l for l, gl in zip(live, ground_lits) if gl in pair)
            return used, _merge(current.domain, current, zip(metas, images))

        return ConstraintStream(source, combine)

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
