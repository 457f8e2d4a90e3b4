"""Linear rational arithmetic backend.

Constraints are disjunctions of systems of linear atoms over exact
rationals; one atom is a canonical expression `sum c_i * v_i + k OP 0`
with OP among <=, <, =.  Conjunction distributes over the disjuncts,
projection is Fourier-Motzkin elimination per disjunct (equalities are
expanded into a pair of bounds only while eliminating; they are stored
as equalities), and satisfiability eliminates every variable.
Elimination and atom evaluation compute on the integer numerators and
denominators of the coefficients, not with `Fraction` operators; every
coefficient they store is still the canonical `Fraction`, so memo keys
and rendering are what rational arithmetic would give.

The leaf stream proposes lazily, in context order, equality systems
from opposite-polarity predicate pairs, then single arithmetic
literals, and conjoins each with the input.  Compatibility and leaf
validity evaluate every eigenvariable at the module constant
EIGEN_VALUE (0), since witness terms are rational constants, not
symbolic expressions.  A meta-variable of the uninterpreted sort is
never constrained here; its witness is the default one, the first
authorised eigenvariable of that sort, else the first constant.

An `LraTheory` computes each of these values once, in dicts it creates
in `__init__`: the leaf candidate of each literal and dual predicate
pair, the elimination of each variable from each system, and the
satisfiability of each system.  They are keyed by value (systems are
frozensets of atoms that hash once), hold only returned values (a
negated equality or a size cap raises again on every call that reaches
it) and live as long as the instance, which is one run: nothing is
carried from one run to the next.  The `--check` audit shares
the search's instance, and so its tables, without taking on any of the
search's assumptions: each entry is the output of a pure function of its
key, so the audit gets exactly what computing the value again would
give.  Each atom also renders its text once, on first use, in a
`cached_property`.  `meet` and the leaf stream decide satisfiability by
calling `satisfiable`, so a wrapper on it sees every decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional

from .terms import (
    ArithAtom,
    Domain,
    EigenVar,
    Instantiation,
    Literal,
    MetaVar,
    PredAtom,
    RatConst,
    SORT_RAT,
    Signature,
    Term,
    as_fraction,
    hash_once,
    lin_of,
    mk_lin,
    var_key,
)
from .theory import (
    ConstraintStream,
    PreconditionError,
    ResourceLimit,
    Theory,
    check_metas_compatible,
    complementary_pair,
    dual_pred_pairs,
    meet_domain,
)

MAX_DISJUNCTS = 512
MAX_ATOMS = 1024
EIGEN_VALUE = Fraction(0)  # the value every eigenvariable takes when evaluated


@hash_once
@dataclass
class LinAtom:
    """Canonical linear atom: coeffs . vars + const OP 0.

    Coefficients are nonzero and sorted by variable; equalities are
    sign-normalised so the leading coefficient is positive.
    """

    op: str
    coeffs: tuple[tuple[Term, Fraction], ...]
    const: Fraction

    @cached_property
    def _text(self) -> str:
        return "%s %s 0" % (mk_lin(dict(self.coeffs), self.const), self.op)

    def __str__(self) -> str:
        return self._text


def make_atom(op: str, coeffs: Mapping[Term, Fraction], const: Fraction) -> LinAtom:
    items = sorted(((v, as_fraction(c)) for v, c in coeffs.items() if c != 0),
                   key=lambda vc: var_key(vc[0]))
    const = as_fraction(const)
    if op == "=" and items and items[0][1] < 0:
        items = [(v, -c) for v, c in items]
        const = -const
    return LinAtom(op, tuple(items), const)


def atom_from_terms(op: str, lhs: Term, rhs: Term) -> LinAtom:
    """lhs OP rhs as a canonical atom (difference moved to one side)."""
    coeffs, const = lin_of(lhs)  # a new dict, so it may be updated
    rcoeffs, rconst = lin_of(rhs)
    for v, c in rcoeffs.items():
        coeffs[v] = coeffs[v] - c if v in coeffs else -c
    return make_atom(op, coeffs, const - rconst)


def lin_atom_of_literal(lit: Literal) -> LinAtom:
    """Asserted form of an arithmetic literal.

    Negations of inequalities flip into the complementary bound; a
    negated equality has no single-atom form and must have been split
    into a disjunction before reaching the backend.
    """
    atom = lit.atom
    if not isinstance(atom, ArithAtom):
        raise PreconditionError("expected an arithmetic literal, got %s" % (lit,))
    if lit.positive:
        return atom_from_terms(atom.op, atom.lhs, atom.rhs)
    if atom.op == "<=":
        return atom_from_terms("<", atom.rhs, atom.lhs)
    if atom.op == "<":
        return atom_from_terms("<=", atom.rhs, atom.lhs)
    raise PreconditionError("negated equality reached the backend unsplit: %s" % (lit,))


def _holds(op: str, total: Fraction) -> bool:
    """Truth of `total OP 0`."""
    if op == "<=":
        return total <= 0
    if op == "<":
        return total < 0
    return total == 0


def _const_truth(atom: LinAtom) -> Optional[bool]:
    """Truth value of a variable-free atom, None when variables remain."""
    return None if atom.coeffs else _holds(atom.op, atom.const)


def normalize_system(atoms: Iterable[LinAtom]) -> Optional[frozenset[LinAtom]]:
    """Drop trivially true atoms; None when a trivially false atom appears."""
    out = set()
    for a in atoms:
        t = _const_truth(a)
        if t is True:
            continue
        if t is False:
            return None
        out.add(a)
    return frozenset(out)


System = frozenset[LinAtom]


@hash_once
@dataclass
class PolyConstraint:
    """Disjunction of conjunctive systems; no disjuncts means FALSE."""

    domain: Domain
    disjuncts: tuple[System, ...] = (frozenset(),)

    @property
    def is_false(self) -> bool:
        return not self.disjuncts

    def __str__(self) -> str:
        if self.is_false:
            return "FALSE"
        rendered = []
        for s in self.disjuncts:
            if not s:
                rendered.append("TRUE")
            else:
                rendered.append(" & ".join(sorted(str(a) for a in s)))
        if len(rendered) == 1:
            return rendered[0]
        return " | ".join("(%s)" % r for r in rendered)


def make_poly(domain: Domain, systems: Iterable[Optional[Iterable[LinAtom]]]) -> PolyConstraint:
    disjuncts: list[System] = []
    seen = set()
    for s in systems:
        if s is None:
            continue
        ns = normalize_system(s)
        if ns is None:
            continue
        if len(ns) > MAX_ATOMS:
            raise ResourceLimit("system exceeds %d atoms" % MAX_ATOMS)
        if ns not in seen:
            seen.add(ns)
            disjuncts.append(ns)
        if len(disjuncts) > MAX_DISJUNCTS:
            raise ResourceLimit("constraint exceeds %d disjuncts" % MAX_DISJUNCTS)
    return PolyConstraint(domain, tuple(disjuncts))


# A bound on a variable X: (coeffs, const, strict) for the expression
# `coeffs . vars + const`, which is below X (a lower bound) or above it
# (an upper bound), strictly when `strict`.
Bound = tuple[tuple[tuple[Term, Fraction], ...], Fraction, bool]


def _split(atoms: Iterable[LinAtom], var: Term) -> tuple[list[LinAtom], list[Bound], list[Bound]]:
    """The atoms without `var`, and the lower and upper bounds the others
    put on `var`; an equality is both a lower and an upper bound."""
    keep: list[LinAtom] = []
    lowers: list[Bound] = []
    uppers: list[Bound] = []
    for atom in atoms:
        for v, c in atom.coeffs:
            if v == var:
                break
        else:
            keep.append(atom)
            continue
        # c*X + rest + k OP 0  <=>  X OP' -(rest + k)/c, flipping on c < 0.
        bound = (tuple((v, -cc / c) for v, cc in atom.coeffs if v != var),
                 -atom.const / c, atom.op == "<")
        if atom.op == "=" or c < 0:
            lowers.append(bound)
        if atom.op == "=" or c > 0:
            uppers.append(bound)
    return keep, lowers, uppers


def _integer_row(atom: LinAtom, c: Fraction) -> tuple[list[tuple[Term, int]], int, int, bool]:
    """`atom` times the lcm of its denominators: its integer coefficients,
    its integer constant, what its coefficient `c` becomes, and whether
    it is strict."""
    const = atom.const
    scale = lcm(const.denominator, *(cc.denominator for _, cc in atom.coeffs))
    return ([(v, cc.numerator * (scale // cc.denominator)) for v, cc in atom.coeffs],
            const.numerator * (scale // const.denominator),
            c.numerator * (scale // c.denominator), atom.op == "<")


def eliminate_var_system(atoms: System, var: Term) -> Optional[System]:
    """Existentially eliminate one variable from a conjunctive system.

    A lower row `a*X + r + k OP 0` and an upper row `b*X + r' + k' OP' 0`
    combine into `-(r + k)/a + (r' + k')/b OP'' 0`: the lower bound they
    put on X lies below the upper one.  Each row is first scaled to
    integers, which leaves that sum unchanged, so each coefficient is one
    `Fraction` of an integer numerator over the scaled `a*b`.  X's own
    coefficient cancels to 0 and is dropped with every other 0.  Each
    atom is the one `make_atom` would give.

    Returns None when the elimination exposes a contradiction.
    """
    keep: list[LinAtom] = []
    lowers: list[tuple[LinAtom, Fraction]] = []
    uppers: list[tuple[LinAtom, Fraction]] = []
    for atom in atoms:
        for v, c in atom.coeffs:
            if v == var:
                break
        else:
            keep.append(atom)
            continue
        # An equality is both a lower and an upper bound.
        if atom.op == "=" or c.numerator < 0:
            lowers.append((atom, c))
        if atom.op == "=" or c.numerator > 0:
            uppers.append((atom, c))
    out = set(keep)
    if lowers and uppers:
        his = [_integer_row(atom, c) for atom, c in uppers]
        for atom, c in lowers:
            lo, lo_k, a, lo_strict = _integer_row(atom, c)
            for hi, hi_k, b, hi_strict in his:
                num = {v: -n * b for v, n in lo}
                for v, n in hi:
                    num[v] = num.get(v, 0) + n * a
                den = a * b
                k = hi_k * a - lo_k * b
                op = "<" if (lo_strict or hi_strict) else "<="
                coeffs = tuple((v, Fraction(num[v], den))
                               for v in sorted(num, key=var_key) if num[v])
                if coeffs:
                    out.add(LinAtom(op, coeffs, Fraction(k, den)))
                elif not _holds(op, k if den > 0 else -k):
                    return None
    if len(out) > MAX_ATOMS:
        raise ResourceLimit("elimination exceeds %d atoms" % MAX_ATOMS)
    return normalize_system(out)


# An `LraTheory`'s memo tables map a (system, variable) pair to its elimination
# and a system to its satisfiability.  They only ever hold values the
# functions they stand for return; an exception is never stored.  Their
# types are written out in annotations, not as module-level aliases: an
# alias built with `Optional` stays in typing's cache, and keeps this
# module alive after a re-import.

_MISSING = object()


def _system_vars(s: System) -> set[Term]:
    out: set[Term] = set()
    for a in s:
        out |= {v for v, _ in a.coeffs}
    return out


# A leaf closure: the literals it uses and the system that closes on them.
Candidate = tuple[frozenset[Literal], System]


def _leaf_candidate(used: tuple[Literal, ...]) -> Optional[Candidate]:
    """The closure on one arithmetic literal, or on a dual predicate pair
    by equating its rational arguments; None when the pair's uninterpreted
    arguments differ, which this backend does not solve."""
    if len(used) == 1:
        return frozenset(used), frozenset((lin_atom_of_literal(used[0]),))
    l, l2 = used
    eqs: list[LinAtom] = []
    for t, u in zip(l.atom.args, l2.atom.args):
        if t.sort == SORT_RAT and u.sort == SORT_RAT:
            eqs.append(atom_from_terms("=", t, u))
        elif t != u:
            return None
    return frozenset(used), frozenset(eqs)


def _conjoin(a: PolyConstraint, b: PolyConstraint) -> PolyConstraint:
    return make_poly(meet_domain(a, b), (sa | sb for sa in a.disjuncts for sb in b.disjuncts))


def _value(coeffs: Iterable[tuple[Term, Fraction]], const: Fraction,
           assignment: Mapping[Term, Fraction]) -> Fraction:
    total = const
    for v, c in coeffs:
        total += c * assignment[v]
    return total


def _eval_term(t: Term) -> Fraction:
    """Value of a ground rational term, every eigenvariable at EIGEN_VALUE."""
    coeffs, const = lin_of(t)
    return _value(coeffs.items(), const,
                  {v: EIGEN_VALUE for v in coeffs if isinstance(v, EigenVar)})


def _eval_atom(atom: LinAtom, assignment: Mapping[Term, Fraction]) -> bool:
    """The truth of `atom` at `assignment`: the sign of the integer
    numerator of its value over a positive common denominator."""
    num, den = atom.const.numerator, atom.const.denominator
    for v, c in atom.coeffs:
        x = assignment[v]
        if x:
            q = c.denominator * x.denominator
            num = num * q + c.numerator * x.numerator * den
            den *= q
    return _holds(atom.op, num)


def _tightest(bounds: list[tuple[Fraction, bool]], pick) -> tuple[Optional[Fraction], bool]:
    """The tightest of evaluated (value, strict) bounds, `pick` being max for
    lower bounds and min for upper ones; a tie is strict when any tied bound is."""
    if not bounds:
        return None, False
    best = pick(v for v, _ in bounds)
    return best, any(st for v, st in bounds if v == best)


class LraTheory(Theory):
    """Fourier-Motzkin backend; see the module docstring."""

    name = "lra"

    def __init__(self, sig: Signature = Signature()) -> None:
        super().__init__(sig)
        # Values computed once for the life of this instance; see the
        # module docstring.
        self._candidates: dict[tuple[Literal, ...], Optional[Candidate]] = {}
        self._eliminated: dict[tuple[System, Term], Optional[System]] = {}
        self._decided: dict[System, bool] = {}

    def _eliminate(self, s: System, var: Term) -> Optional[System]:
        """eliminate_var_system(s, var), computed once per instance."""
        key = (s, var)
        out = self._eliminated.get(key, _MISSING)
        if out is _MISSING:
            out = self._eliminated[key] = eliminate_var_system(s, var)
        return out

    def _system_sat(self, s: System) -> bool:
        for v in sorted(_system_vars(s), key=var_key, reverse=True):
            ns = self._eliminate(s, v)
            if ns is None:
                return False
            if not ns:
                return True
            s = ns
        return normalize_system(s) is not None

    # -- constraint algebra ------------------------------------------------

    def top(self, domain: Domain) -> PolyConstraint:
        return PolyConstraint(domain, (frozenset(),))

    def project_payload(self, sigma: PolyConstraint, meta: MetaVar,
                        domain: Domain) -> PolyConstraint:
        return make_poly(domain, (self._eliminate(s, meta) for s in sigma.disjuncts))

    def meet(self, a: PolyConstraint, b: PolyConstraint) -> Optional[PolyConstraint]:
        out = _conjoin(a, b)
        return out if self.satisfiable(out) else None

    def consistency(self, lits: tuple[Literal, ...], domain: Domain) -> ConstraintStream:
        """Stream of leaf closures, each candidate built when a pull
        reaches it: equality systems of dual predicate pairs first, then
        single arithmetic literals.  A negated equality raises
        PreconditionError by the pull that reaches it at the latest."""
        lits = tuple(lits)
        memo = self._candidates

        def outputs(current: PolyConstraint):
            arith = [(l,) for l in lits if isinstance(l.atom, ArithAtom)]
            for key in chain(dual_pred_pairs(lits), arith):
                cand = memo.get(key, _MISSING)
                if cand is _MISSING:
                    cand = memo[key] = _leaf_candidate(key)
                if cand is None:
                    continue
                used, system = cand
                out = _conjoin(current, PolyConstraint(current.domain, (system,)))
                if self.satisfiable(out):
                    yield used, out

        return ConstraintStream(outputs)

    # -- semantics ----------------------------------------------------------

    def satisfiable(self, sigma: PolyConstraint) -> bool:
        """Native satisfiability: some rational assignment to every variable
        (meta and eigen alike) satisfies some disjunct.  Decides each
        system once."""
        for s in sigma.disjuncts:
            out = self._decided.get(s)
            if out is None:
                out = self._decided[s] = self._system_sat(s)
            if out:
                return True
        return False

    def _assignment(self, rho: Instantiation, vars_needed: Iterable[Term]) -> dict[Term, Fraction]:
        out: dict[Term, Fraction] = {}
        rmap = rho.mapping
        for v in vars_needed:
            if v in rmap:
                # Images are ground rational terms, possibly mentioning
                # eigenvariables; evaluate them at EIGEN_VALUE.
                out[v] = _eval_term(rmap[v])
            elif isinstance(v, EigenVar):
                out[v] = EIGEN_VALUE
            else:
                raise PreconditionError("variable %s not covered by the instantiation" % (v,))
        return out

    def compatible(self, rho: Instantiation, sigma: PolyConstraint) -> bool:
        check_metas_compatible(rho.domain, sigma.domain)
        for s in sigma.disjuncts:
            assignment = self._assignment(rho, _system_vars(s))
            if all(_eval_atom(a, assignment) for a in s):
                return True
        return False

    def witness_payload(self, sigma: PolyConstraint, meta: MetaVar,
                        rho: Instantiation) -> Term:
        if meta.sort != SORT_RAT:
            return self.first_ground(sigma.domain, meta)
        for s in sigma.disjuncts:
            value = self._witness_in_system(s, meta, rho)
            if value is not None:
                return RatConst(value)
        raise PreconditionError("no feasible disjunct despite a compatible projection")

    def _witness_in_system(self, s: System, meta: MetaVar,
                           rho: Instantiation) -> Optional[Fraction]:
        assignment = self._assignment(rho, _system_vars(s) - {meta})
        keep, lowers, uppers = _split(s, meta)
        if not all(_eval_atom(a, assignment) for a in keep):
            return None
        lo, lo_strict = _tightest([(_value(c, k, assignment), st) for c, k, st in lowers], max)
        hi, hi_strict = _tightest([(_value(c, k, assignment), st) for c, k, st in uppers], min)
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and (lo_strict or hi_strict)):
                return None
            if lo == hi:
                return lo
            return (lo + hi) / 2
        if lo is not None:
            return lo + 1
        if hi is not None:
            return hi - 1
        return Fraction(0)

    def ground_valid(self, lits: tuple[Literal, ...]) -> bool:
        """Some arithmetic literal true with eigenvariables at EIGEN_VALUE,
        or a complementary uninterpreted pair after evaluating rational
        arguments the same way."""
        pred: list[Literal] = []
        for l in lits:
            if isinstance(l.atom, ArithAtom):
                diff = _eval_term(l.atom.lhs) - _eval_term(l.atom.rhs)
                if _holds(l.atom.op, diff) == l.positive:
                    return True
            else:
                args = tuple(
                    RatConst(_eval_term(t)) if t.sort == SORT_RAT else t
                    for t in l.atom.args
                )
                pred.append(Literal(l.positive, PredAtom(l.atom.name, args)))
        return complementary_pair(pred) is not None

    def shrink(self, sigma: PolyConstraint) -> Iterator[PolyConstraint]:
        for i in range(len(sigma.disjuncts)):
            rest = sigma.disjuncts[:i] + sigma.disjuncts[i + 1:]
            if rest:
                yield PolyConstraint(sigma.domain, rest)
            atoms = sorted(sigma.disjuncts[i], key=str)
            for j in range(len(atoms)):
                smaller = frozenset(atoms[:j] + atoms[j + 1:])
                yield PolyConstraint(sigma.domain,
                                     sigma.disjuncts[:i] + (smaller,) + sigma.disjuncts[i + 1:])
