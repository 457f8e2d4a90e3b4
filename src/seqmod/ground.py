"""Ground-enumeration backend.

Constraints are partial maps from meta-variables to ground terms.  The
leaf stream enumerates total groundings of the meta-variables occurring
in the leaf's literals, fairly (breadth-first on total term depth, then
lexicographically on candidate indices), keeps the groundings whose
instantiated literal set contains a complementary pair, and merges each
survivor with the input constraint.  A depth ceiling bounds the
candidate terms; beyond it the stream is exhausted, never wrong.

Groundings are produced lazily, one total depth at a time, so a leaf
that closes early never builds the whole product.  The stream pins each
meta-variable its input fixes to that image's candidate and walks only
the groundings that agree with the pins: the merge with the input would
drop the others.  An image no candidate list holds leaves nothing that
agrees.  Only literals whose predicate occurs with both polarities can
close a leaf.  This backend doubles as a cross-check oracle for the
unification backend on problems both can express, so it stays a plain
enumeration: no unification, and the fair order and its cap are those
of the whole product.

Each piece of a leaf stream's work is done once per theory instance,
that is once per run, in three memos on the instance:

- the candidate lists, with the depths the enumeration gives them, and
  their term-to-index maps, keyed by the meta-variable's sort and its
  authorised eigenvariables in declaration order, which is all
  `ground_candidates` reads besides the signature and ceiling.  A list
  stops one past `_MAX_ASSIGNMENTS`, over the cap, and is never stored;
- a stream's static parts (its meta-variables, their candidate lists
  and index maps, the live literals and the positions of their
  meta-variables), keyed by the leaf's literals and domain.  A stream
  over more groundings than `_MAX_ASSIGNMENTS` is never stored, so its
  `ResourceLimit` is raised by every call;
- the ground instances of each live literal, keyed by the literal and
  its meta-variables, then by their images.

Only the public `GroundConstraint(...)` constructor checks its
arguments.  The constraints this backend's own operations return (meet,
project, lift, and a stream's outputs) are built by `_trusted`, which
skips the checks, because the constraint family of a domain is closed
under those operations.  A stream's first pull checks that its input is
of the stream's family, as `meet_domain` does for a meet's operands;
see `_trusted` for the argument.

The witness of a meta-variable the constraint leaves unassigned is
`Theory.first_ground`, the first term of `ground_candidates`: the first
candidate the leaf stream tries for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .terms import (
    BoundVar,
    Domain,
    Instantiation,
    Literal,
    MetaVar,
    PredAtom,
    Signature,
    Term,
    ground_candidates,
    hash_once,
    literal_vars,
    subst_literal,
    term_eigens,
    term_vars,
)
from .theory import (
    ConstraintStream,
    PreconditionError,
    ResourceLimit,
    Theory,
    check_metas_compatible,
    complementary_pair,
    meet_domain,
)

_MAX_ASSIGNMENTS = 500_000


@hash_once
@dataclass
class GroundConstraint:
    """Partial map from meta-variables to ground terms, declaration order.

    The constructor checks that every meta-variable is declared in the
    domain, that the entries follow declaration order without repeats,
    and that each image is ground, of its meta-variable's sort and built
    from eigenvariables that meta-variable is authorised to see.  Input
    from outside the backend (tests, the conformance harness, `top`,
    `shrink`) goes through it.  The backend's own operations build their
    results with `_trusted` instead, which skips these checks.
    """

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
            if t.sort != m.sort:
                raise PreconditionError("image sort mismatch for %s" % (m,))
            if any(isinstance(v, (MetaVar, BoundVar)) for v in term_vars(t)):
                raise PreconditionError("image %s is not ground" % (t,))
            if not term_eigens(t) <= self.domain.authorised(m):
                raise PreconditionError("image %s uses unauthorised eigenvariables" % (t,))

    @cached_property
    def mapping(self) -> dict[MetaVar, Term]:
        """The entries as a dict, built once per constraint; not to be mutated."""
        return dict(self.entries)

    def get(self, meta: MetaVar) -> Optional[Term]:
        return self.mapping.get(meta)

    def __str__(self) -> str:
        if not self.entries:
            return "TRUE"
        return "{%s}" % ", ".join("%s -> %s" % (m, t) for m, t in self.entries)


def _trusted(domain: Domain, entries: tuple[tuple[MetaVar, Term], ...]) -> GroundConstraint:
    """The GroundConstraint (domain, entries), built without the
    constructor's checks.

    Every caller's result is valid by construction:

    - `_merge` (meet, and a stream's outputs): the operands are of one
      constraint family, checked by `meet_domain` for a meet and by
      `check_metas_compatible` for a stream's input, so the domains
      declare the same meta-variables with the same authorised sets.
      Each entry comes from a valid constraint of that family, or is a
      grounding from that domain's candidate lists, whose terms are
      ground, of the meta-variable's sort and authorised.  One family
      declares its metas in one order, so either operand's entries are
      in order at the result's domain, and `in_declaration_order`
      restores the order of their union.
    - `project_payload` drops the entry of the last meta-variable, whose
      declaration is the one the result's domain drops.
    - `lift` appends one meta-variable to the domain; the entries and
      their metas' authorised sets are unchanged.
    """
    out = object.__new__(GroundConstraint)
    out.domain = domain
    out.entries = entries
    return out


def _merge(domain: Domain, a: GroundConstraint, b_entries) -> Optional[GroundConstraint]:
    """a extended by b_entries, distinct metas in declaration order, at
    domain; None when a maps one of them to another image."""
    amap = a.mapping
    added: dict[MetaVar, Term] = {}
    for m, t in b_entries:
        old = amap.get(m)
        if old is None:
            added[m] = t
        elif old is not t and old != t:
            return None
    if not added:
        return a if a.domain is domain else _trusted(domain, a.entries)
    if not amap:
        return _trusted(domain, tuple(added.items()))
    return _trusted(domain, domain.in_declaration_order({**amap, **added}.items()))


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


def _walk(options: Sequence[Sequence[tuple[int, Term, int]]]) -> Iterator[tuple[Term, ...]]:
    """The term tuples of the fair order (total term depth, then candidate
    indices) that take one of `options[i]` at each position i.

    `options[i]` holds (candidate index, term, depth) triples in index
    order, none of them empty: a whole candidate list, or the one
    candidate a pin allows.  Produced level by level, one total depth at
    a time, with each level's depth bounds taken over the allowed
    candidates only.
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

    return itertools.chain.from_iterable(
        level(0, total_depth, ()) for total_depth in range(lo[0], hi[0] + 1))


def _pred_key(atom) -> object:
    """The predicate of an atom: name and arity, or the arithmetic op."""
    if isinstance(atom, PredAtom):
        return (atom.name, len(atom.args))
    return atom.op


class GroundEnumTheory(Theory):
    """Enumeration backend; see the module docstring."""

    name = "enum"

    def __init__(self, sig: Signature = Signature(), ceiling: int = 3) -> None:
        super().__init__(sig)
        self.ceiling = ceiling
        self._memo: dict = {}  # see `_candidates`
        self._leaves: dict = {}  # see `_leaf`
        self._instances: dict = {}  # (literal, its metas) -> {images: ground literal}

    def _candidates(self, domain: Domain, meta: MetaVar):
        """`meta`'s candidates as (index, term, depth) triples, and each
        term's index.

        `ground_candidates` depends only on the meta's sort and its
        authorised eigenvariables in declaration order, which are the
        domain's first ones, so that pair is the memo key.
        """
        key = (meta.sort, domain.eigens[:len(domain.authorised(meta))])
        out = self._memo.get(key)
        if out is None:
            made = ground_candidates(self.sig, domain, meta, self.ceiling)
            made = itertools.islice(made, _MAX_ASSIGNMENTS + 1)  # one past the cap at most
            cands = tuple([(j, t, d) for j, (t, d) in enumerate(made)])
            out = (cands, {t: j for j, t, _ in cands})
            if len(cands) <= _MAX_ASSIGNMENTS:  # `_within_cap` rejects a longer one
                self._memo[key] = out
        return out

    def _leaf(self, lits: tuple[Literal, ...], domain: Domain):
        """The static parts of the leaf stream over `lits` at `domain`,
        memoised on that pair: the metas the literals mention, their
        candidate lists and index maps, whether the product has a member,
        the live literals, each live literal's metas as positions in the
        metas, and each live literal's table of ground instances.  An
        over-cap product raises `ResourceLimit` before anything is stored.
        """
        key = (lits, domain)
        out = self._leaves.get(key)
        if out is not None:
            return out
        metas = tuple(m for m in domain.metas
                      if any(m in literal_vars(l) for l in lits))
        memo = [self._candidates(domain, m) for m in metas]
        cands = tuple(c for c, _ in memo)
        indexes = tuple(ix for _, ix in memo)
        nonempty = _within_cap(cands)
        # Only a literal whose predicate occurs with both polarities can
        # be, or equal, a member of a complementary pair.
        polarities: dict = {}
        for l in lits:
            polarities.setdefault(_pred_key(l.atom), set()).add(l.positive)
        live = tuple(l for l in lits if len(polarities[_pred_key(l.atom)]) == 2)
        positions = tuple(tuple(i for i, m in enumerate(metas) if m in vs)
                          for vs in map(literal_vars, live))
        # Keyed by the metas too: two domains may order a literal's metas
        # differently, or declare different ones of them.
        tables = tuple(self._instances.setdefault((l, tuple(metas[i] for i in ps)), {})
                       for l, ps in zip(live, positions))
        out = self._leaves[key] = (metas, cands, indexes, nonempty, live, positions, tables)
        return out

    # -- constraint algebra ------------------------------------------------

    def top(self, domain: Domain) -> GroundConstraint:
        return GroundConstraint(domain, ())

    def project_payload(self, sigma: GroundConstraint, meta: MetaVar,
                        domain: Domain) -> GroundConstraint:
        # `meta` is the last meta, so its entry, if any, is the last one.
        entries = sigma.entries
        if entries and entries[-1][0] == meta:
            entries = entries[:-1]
        return _trusted(domain, entries)

    def lift(self, sigma: GroundConstraint, meta: MetaVar) -> GroundConstraint:
        return _trusted(sigma.domain.add_meta(meta), sigma.entries)

    def meet(self, a: GroundConstraint, b: GroundConstraint) -> Optional[GroundConstraint]:
        return _merge(meet_domain(a, b), a, b.entries)

    def consistency(self, lits: tuple[Literal, ...], domain: Domain) -> ConstraintStream:
        metas, cands, indexes, nonempty, live, positions, tables = self._leaf(tuple(lits), domain)

        def ground(images: tuple[Term, ...]) -> tuple[Literal, ...]:
            out = []
            for l, ps, table in zip(live, positions, tables):
                own = tuple([images[i] for i in ps])
                gl = table.get(own)
                if gl is None:
                    gl = table[own] = subst_literal(l, {metas[i]: t for i, t in zip(ps, own)})
                out.append(gl)
            return tuple(out)

        def outputs(current: GroundConstraint):
            if current.domain is not domain:
                # The outputs are built unchecked (see `_trusted`).
                check_metas_compatible(current.domain, domain)
            if not (nonempty and live):
                return
            fixed = current.mapping
            options = []
            for m, c, ix in zip(metas, cands, indexes):
                t = fixed.get(m)
                if t is None:
                    options.append(c)
                elif t in ix:
                    options.append((c[ix[t]],))
                else:
                    return  # an image no candidate list holds: nothing agrees
            for images in _walk(options):
                ground_lits = ground(images)
                pair = complementary_pair(ground_lits)
                if pair is None:
                    continue
                # The walk gives only groundings that agree with the
                # input; the guard keeps every output sound regardless.
                out = _merge(current.domain, current, zip(metas, images))
                if out is not None:
                    # Map the closing ground literals back to their sources.
                    yield frozenset(l for l, gl in zip(live, ground_lits) if gl in pair), out

        return ConstraintStream(outputs)

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
        return self.first_ground(sigma.domain, meta)

    def shrink(self, sigma: GroundConstraint) -> Iterator[GroundConstraint]:
        for i in range(len(sigma.entries)):
            yield GroundConstraint(sigma.domain, sigma.entries[:i] + sigma.entries[i + 1:])
