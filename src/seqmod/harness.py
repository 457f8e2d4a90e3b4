"""Conformance harness for constraint backends.

Each backend is exercised against the laws its operations must satisfy
for proof search to be sound.  The checks run over a small fixed bench:
a mixed domain of eigenvariables and meta-variables, a family of
literal sets, a pool of constraints built through the backend's own
operations (plus a few written directly), and an exhaustively
enumerated universe of bounded instantiations.  Where a law
quantifies over "some extension" the harness uses an exact oracle per
backend rather than scanning the bounded universe, so every reported
failure is a genuine violation; checks that are only bounded report
caveats instead of failures.

Laws:
    AX_proj   projection keeps exactly the instantiations with an extension
    AX_wit    a witness extends any instantiation compatible with the projection
    AX_meet   the meet is the intersection of compatible sets
    AX_lift   lifting is inverse restriction
    AX_pg     leaf outputs refine the leaf input
    P1        projection preserves and reflects satisfiability
    P2        claimed satisfiability agrees with the compatible sets
    A1        leaf streams on ground literals agree with ground validity
    A2        leaf outputs justify their used literals
    D1        algebra operations do the right domain bookkeeping
    D2        leaf outputs live at the leaf's domain
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import fol as fol_mod
from . import lra as lra_mod
from .fol import SubstConstraint, SubstTheory, mgu
from .frontend import json_text, make_theory
from .ground import GroundConstraint, GroundEnumTheory
from .lra import (
    LraTheory,
    PolyConstraint,
    atom_from_terms,
    make_atom,
    make_poly,
)
from .terms import (
    ArithAtom,
    Domain,
    EigenVar,
    FunApp,
    Instantiation,
    Literal,
    MetaVar,
    PredAtom,
    RatConst,
    SORT_RAT,
    SORT_TERM,
    Signature,
    Term,
    enumerate_ground_terms,
    literal_vars,
    subst_literal,
    subst_term,
)
from .theory import Theory, WitnessUnsupported, first_ground, meet_domain

UNIVERSE_DEPTH = 1
MAX_POOL = 24
MAX_RECORDED = 5


@dataclass
class LawReport:
    law: str
    cases: int = 0
    failures: list = field(default_factory=list)
    failure_count: int = 0
    caveats: int = 0
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def fail(self, msg: str) -> None:
        self.failure_count += 1
        if len(self.failures) < MAX_RECORDED:
            self.failures.append(msg)

    def as_dict(self) -> dict:
        return {
            "law": self.law,
            "ok": self.ok,
            "cases": self.cases,
            "failures": self.failure_count,
            "examples": list(self.failures),
            "caveats": self.caveats,
            "skipped": self.skipped,
        }


@dataclass
class ConformanceResult:
    theory: str
    ok: bool
    laws: list

    def as_dict(self) -> dict:
        return {
            "theory": self.theory,
            "ok": self.ok,
            "laws": [l.as_dict() for l in self.laws],
        }


def report_json(result: ConformanceResult) -> str:
    return json_text(result.as_dict())


def report_text(result: ConformanceResult) -> str:
    lines = ["conformance %s: %s" % (result.theory, "ok" if result.ok else "FAILED")]
    for law in result.laws:
        status = "ok" if law.ok else "FAILED"
        extra = ""
        if law.caveats:
            extra += " caveats=%d" % law.caveats
        if law.skipped:
            extra += " skipped=%d" % law.skipped
        lines.append("  %-8s %-6s cases=%-5d failures=%d%s"
                     % (law.law, status, law.cases, law.failure_count, extra))
        for ex in law.failures:
            lines.append("    %s" % ex)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Benches


@dataclass
class Bench:
    kind: str
    sig: Signature
    levels: list  # base, +meta, +eigen, +meta
    litsets: dict  # Domain -> list of literal tuples
    synthetic: Callable[[Domain], list]

    @property
    def lo_hi(self) -> list:
        """(domain, domain + one meta) pairs that projection and lifting connect."""
        return [(self.levels[0], self.levels[1]), (self.levels[2], self.levels[3])]

    def universe(self, domain: Domain) -> list:
        cap_each = 8
        lists = [enumerate_ground_terms(self.sig, domain, m, UNIVERSE_DEPTH)[:cap_each]
                 for m in domain.metas]
        return [Instantiation(domain, tuple(zip(domain.metas, images)))
                for images in itertools.product(*lists)]


def _lit(positive: bool, name: str, *args: Term) -> Literal:
    return Literal(positive, PredAtom(name, tuple(args)))


def _arith(positive: bool, op: str, lhs: Term, rhs: Term) -> Literal:
    return Literal(positive, ArithAtom(op, lhs, rhs))


def _ladder(sort: str) -> tuple:
    """e1, e2, M1, M2 of `sort` and the domains base, +M1, +e2, +M2."""
    e1, e2 = EigenVar("e1", sort), EigenVar("e2", sort)
    m1, m2 = MetaVar("M1", sort), MetaVar("M2", sort)
    d0 = Domain.initial((e1,))
    d1 = d0.add_meta(m1)
    d2 = d1.add_eigen(e2)
    return e1, e2, m1, m2, (d0, d1, d2, d2.add_meta(m2))


def make_bench(kind: str) -> Bench:
    if kind in ("fol", "enum"):
        sig = Signature(
            preds=(("p", (SORT_TERM,)), ("q", (SORT_TERM, SORT_TERM))),
            funs=(("f", 1),),
            consts=("a", "b"),
        )
        e1, e2, m1, m2, (d0, d1, d2, d3) = _ladder(SORT_TERM)
        a = FunApp("a", ())
        b = FunApp("b", ())
        f = lambda t: FunApp("f", (t,))
        litsets = {
            d1: [
                (_lit(True, "p", m1), _lit(False, "p", e1)),
                (_lit(True, "p", m1), _lit(False, "p", f(a))),
                (_lit(True, "p", a), _lit(False, "p", b)),
            ],
            d3: [
                (_lit(True, "p", m2), _lit(False, "p", f(m1))),
                (_lit(True, "p", m2), _lit(False, "p", e2)),
                (_lit(True, "q", m1, m2), _lit(False, "q", a, f(e1))),
                (_lit(True, "p", m1), _lit(False, "p", m2)),
                (_lit(True, "p", f(m2)), _lit(False, "p", m1)),
            ],
        }

        def synthetic(domain: Domain) -> list:
            if kind == "fol":
                out = [mgu([(m1, f(e1))], domain) if m1 in domain.metas else None,
                       mgu([(m1, a)], domain) if m1 in domain.metas else None]
                if m2 in domain.metas:
                    out.append(mgu([(m2, f(m1))], domain))
                    out.append(mgu([(m2, e2)], domain))
                    out.append(mgu([(m1, a), (m2, b)], domain))
                out.append(fol_mod._bot(domain))
                return [s for s in out if s is not None]
            out = []
            if m1 in domain.metas:
                out.append(GroundConstraint(domain, ((m1, a),)))
                out.append(GroundConstraint(domain, ((m1, f(b)),)))
            if m2 in domain.metas:
                out.append(GroundConstraint(domain, ((m1, a), (m2, f(a)))))
                out.append(GroundConstraint(domain, ((m2, e2),)))
            return out

        return Bench(kind, sig, [d0, d1, d2, d3], litsets, synthetic)

    if kind == "lra":
        sig = Signature(preds=(("r", (SORT_RAT,)),))
        e1, e2, m1, m2, (d0, d1, d2, d3) = _ladder(SORT_RAT)
        q = lambda x: RatConst(Fraction(x))
        litsets = {
            d1: [
                (_arith(True, "<=", m1, q(0)),),
                (_lit(True, "r", m1), _lit(False, "r", q("1/2"))),
                (_arith(True, "<=", q(15), m1), _arith(True, "<=", m1, q("46/3"))),
            ],
            d3: [
                (_arith(True, "<=", q(15), m2), _arith(True, "<=", m2, q("46/3"))),
                (_lit(True, "r", m1), _lit(False, "r", m2)),
                (_arith(True, "<=", m1, m2), _arith(False, "<=", m1, q(5))),
                (_arith(True, "=", m2, m1),),
                (_lit(True, "r", m2), _lit(False, "r", e2)),
            ],
        }

        def synthetic(domain: Domain) -> list:
            def le(lo, hi):
                return atom_from_terms("<=", lo, hi)

            out = []
            if m1 in domain.metas:
                out.append(make_poly(domain, [frozenset((le(q(15), m1), le(m1, q("46/3"))))]))
                out.append(make_poly(domain, [frozenset((le(m1, q(0)),)),
                                              frozenset((le(q(1), m1),))]))
                out.append(make_poly(domain, [frozenset((le(q(1), m1), le(m1, q(0))))]))
            if m2 in domain.metas:
                out.append(make_poly(domain, [frozenset((atom_from_terms("=", m2, m1),))]))
                out.append(make_poly(domain, [frozenset((le(m1, m2),))]))
                out.append(make_poly(domain, [frozenset((le(q(1), m2), le(m2, q(0))))]))
                out.append(make_poly(domain, [frozenset((le(e1, m2),))]))
            return out

        return Bench(kind, sig, [d0, d1, d2, d3], litsets, synthetic)

    raise ValueError("unknown bench %r" % (kind,))


# ---------------------------------------------------------------------------
# Exact extension oracles (independent of the projection under test)


def _fol_extension_exists(sigma: SubstConstraint, rho: Instantiation) -> bool:
    if sigma.is_bot:
        return False
    meta = sigma.domain.last_meta()
    rmap = rho.mapping()
    bindings: dict = {}
    try:
        for m in rho.domain.metas:
            fol_mod._match(subst_term(sigma.get(m), rmap), rmap[m], bindings)
        if meta in bindings and sigma.get(meta) != meta:
            # The extension is pinned twice; the two must agree.
            pat = subst_term(subst_term(sigma.get(meta), rmap), bindings)
            fol_mod._match(pat, bindings[meta], bindings)
    except fol_mod._Mismatch:
        return False
    return True


def _enum_extension_exists(sigma: GroundConstraint, rho: Instantiation) -> bool:
    meta = sigma.domain.last_meta()
    return all(rho.get(m) == t for m, t in sigma.entries if m != meta)


def _lra_extension_exists(sigma: PolyConstraint, rho: Instantiation) -> bool:
    pins = []
    for m, t in rho.entries:
        pins.append(make_atom("=", {m: Fraction(1)}, -lra_mod._eval_term(t)))
    for s in sigma.disjuncts:
        for v in lra_mod._system_vars(s):
            if isinstance(v, EigenVar):
                pins.append(make_atom("=", {v: Fraction(1)}, -lra_mod.EIGEN_VALUE))
    pinned = make_poly(sigma.domain, [frozenset(pins)])
    return LraTheory().satisfiable(lra_mod._conjoin(sigma, pinned))


_EXTENSION_EXISTS = {"fol": _fol_extension_exists, "enum": _enum_extension_exists,
                     "lra": _lra_extension_exists}


# ---------------------------------------------------------------------------
# The probe


class _Probe:
    def __init__(self, bench: Bench, theory: Theory, cases: int, seed: int) -> None:
        self.bench = bench
        self.theory = theory
        self.cases = cases
        self.seed = seed
        self.extension_exists = _EXTENSION_EXISTS[bench.kind]
        self.universes = {d: bench.universe(d) for d in bench.levels}
        self.compat_cache: dict = {}
        self.pulled: dict = {}  # (domain, literals, input) -> `_pulls`
        self.pools = self._build_pools()
        self.leaf_outputs = self._leaf_outputs()

    # -- construction ------------------------------------------------------

    def _build_pools(self) -> dict:
        pools: dict = {d: [] for d in self.bench.levels}

        def add(domain, sigma) -> None:
            if sigma is None:
                return
            pool = pools[domain]
            if sigma not in pool and len(pool) < MAX_POOL:
                pool.append(sigma)

        th = self.theory
        for d in self.bench.levels:
            add(d, self._guard(lambda: th.top(d)))
            for sigma in self._guard(lambda: self.bench.synthetic(d)) or []:
                add(d, sigma)
            for lits in self.bench.litsets.get(d, []):
                for res in self._pulls(d, lits, self._guard(lambda: th.top(d)))[:3]:
                    add(d, res and res[1])  # None: the stream could not be built
        # Meets of neighbours enrich each level.
        for d in self.bench.levels:
            pool = list(pools[d])
            for s1, s2 in zip(pool, pool[1:]):
                add(d, self._guard(lambda: th.meet(s1, s2)))
        # Projections and lifts move constraints between meta levels.
        for lo, hi in self.bench.lo_hi:
            target = hi.metas[-1]
            for sigma in list(pools[hi]):
                add(lo, self._guard(lambda: th.project(sigma, target)))
            for sigma in list(pools[lo]):
                add(hi, self._guard(lambda: th.lift(sigma, target)))
        return pools

    def _pulls(self, d, lits, inp) -> list:
        """Up to 4 pulls of the leaf stream of `lits` at `d` under `inp`, or
        [None] when the stream cannot be built; made once per probe."""
        key = (d, lits, inp)
        if key not in self.pulled:
            stream = self._guard(lambda: self.theory.consistency(lits, d))
            pulls = (self._guard(lambda: stream.pull(inp)) for _ in range(4))
            self.pulled[key] = [None] if stream is None else list(itertools.takewhile(bool, pulls))
        return self.pulled[key]

    @staticmethod
    def _guard(thunk):
        try:
            return thunk()
        except Exception:
            return None

    # -- helpers ------------------------------------------------------------

    def compat(self, sigma) -> frozenset:
        got = self.compat_cache.get(sigma)
        if got is not None:
            return got
        universe = self.universes[sigma.domain]
        out = frozenset(
            i for i, rho in enumerate(universe)
            if self._guard(lambda: self.theory.compatible(rho, sigma))
        )
        self.compat_cache[sigma] = out
        return out

    def _sample(self, law: str, items: list) -> list:
        if len(items) <= self.cases:
            return items
        rng = random.Random("%d:%s" % (self.seed, law))
        return rng.sample(items, self.cases)

    def _proj_pairs(self) -> list:
        """(sigma, target meta, landing domain) for projectable pool members."""
        out = []
        for lo, hi in self.bench.lo_hi:
            for sigma in self.pools[hi]:
                out.append((sigma, hi.metas[-1], lo))
        return out

    def _proj_combos(self) -> list:
        """(sigma, target meta, instantiation at the landing domain)."""
        return [(sigma, meta, rho) for sigma, meta, lo in self._proj_pairs()
                for rho in self.universes[lo]]

    def _shrink(self, sigma, still_fails) -> object:
        for _ in range(20):
            for cand in self._guard(lambda: list(self.theory.shrink(sigma))) or []:
                if self._guard(lambda: still_fails(cand)):
                    sigma = cand
                    break
            else:
                return sigma
        return sigma

    def _render(self, sigma) -> str:
        try:
            return str(sigma)
        except Exception:
            return repr(sigma)

    # -- the laws ------------------------------------------------------------

    def ax_proj(self, rep: LawReport) -> None:
        for sigma, meta, rho in self._sample(rep.law, self._proj_combos()):
            rep.cases += 1
            try:
                projected = self.theory.project(sigma, meta)
                left = self.theory.compatible(rho, projected)
            except Exception as exc:
                rep.fail("project raised %s on %s" % (exc, self._render(sigma)))
                continue
            right = self.extension_exists(sigma, rho)
            if left != right:
                def still(s2, m=meta, r=rho):
                    return (self.theory.compatible(r, self.theory.project(s2, m))
                            != self.extension_exists(s2, r))
                small = self._shrink(sigma, still)
                rep.fail("projection of %s wrong at %s (claims %s, extension %s)"
                         % (self._render(small), rho, left, right))

    def ax_wit(self, rep: LawReport) -> None:
        for sigma, meta, rho in self._sample(rep.law, self._proj_combos()):
            try:
                projected = self.theory.project(sigma, meta)
                if not self.theory.compatible(rho, projected):
                    continue
            except Exception:
                continue  # AX_proj owns projection failures
            rep.cases += 1
            try:
                t = self.theory.witness(sigma, rho)
            except WitnessUnsupported:
                rep.skipped += 1
                continue
            except Exception as exc:
                rep.fail("witness raised %s on %s under %s"
                         % (exc, self._render(sigma), rho))
                continue
            try:
                extended = rho.extend(sigma.domain, meta, t)
            except Exception as exc:
                rep.fail("witness %s for %s is not a valid image: %s" % (t, meta, exc))
                continue
            if not self._guard(lambda: self.theory.compatible(extended, sigma)):
                rep.fail("witness %s does not put %s inside %s"
                         % (t, rho, self._render(sigma)))

    def ax_meet(self, rep: LawReport) -> None:
        combos = []
        for d in self.bench.levels:
            pool = self.pools[d]
            combos.extend((s1, s2) for s1 in pool for s2 in pool)
        for s1, s2 in self._sample(rep.law, combos):
            rep.cases += 1
            try:
                met = self.theory.meet(s1, s2)
            except Exception as exc:
                rep.fail("meet raised %s" % (exc,))
                continue
            want = self.compat(s1) & self.compat(s2)
            if met is None:
                if want:
                    rep.fail("meet of %s and %s rejected despite common instantiations"
                             % (self._render(s1), self._render(s2)))
                continue
            got = self.compat(met)
            if got != want:
                def still(c2, other=s2):
                    m2 = self.theory.meet(c2, other)
                    w2 = self.compat(c2) & self.compat(other)
                    return (m2 is None and bool(w2)) or (
                        m2 is not None and self.compat(m2) != w2)
                small = self._shrink(s1, still)
                rep.fail("meet of %s and %s has the wrong compatible set"
                         % (self._render(small), self._render(s2)))

    def ax_lift(self, rep: LawReport) -> None:
        combos = []
        for lo, hi in self.bench.lo_hi:
            for sigma in self.pools[lo]:
                for rho2 in self.universes[hi]:
                    combos.append((sigma, hi.metas[-1], rho2))
        for sigma, meta, rho2 in self._sample(rep.law, combos):
            rep.cases += 1
            try:
                lifted = self.theory.lift(sigma, meta)
                left = self.theory.compatible(rho2, lifted)
            except Exception as exc:
                rep.fail("lift raised %s" % (exc,))
                continue
            restricted = Instantiation(sigma.domain, rho2.entries[:-1])
            right = self._guard(lambda: self.theory.compatible(restricted, sigma))
            if left != bool(right):
                rep.fail("lift of %s disagrees with restriction at %s"
                         % (self._render(sigma), rho2))

    def _leaf_outputs(self) -> list:
        """(domain, literals, input, pulled) for each of a leaf stream's
        `_pulls`; pulled is None once for a stream that could not be
        built.  Built once per probe: AX_pg, A2 and D2 all read it."""
        out = []
        for d, litsets in self.bench.litsets.items():
            inputs = [self.theory.top(d)] + self.pools[d][:2]
            for lits in litsets:
                for inp in inputs:
                    out.extend((d, lits, inp, res) for res in self._pulls(d, lits, inp))
        return out

    def ax_pg(self, rep: LawReport) -> None:
        for d, lits, inp, res in self.leaf_outputs:
            if res is None:
                rep.fail("consistency stream construction failed")
                continue
            _, out = res
            rep.cases += 1
            if not self.compat(out) <= self.compat(inp):
                rep.fail("leaf output %s does not refine its input %s"
                         % (self._render(out), self._render(inp)))

    def a2(self, rep: LawReport) -> None:
        for d, lits, inp, res in self.leaf_outputs:
            if res is None:
                continue
            used, out = res
            rep.cases += 1
            if not used <= set(lits):
                rep.fail("used literals %s are not from the leaf" % (sorted(map(str, used)),))
                continue
            ground_used = self._prepare_ground(used)
            for i in self.compat(out):
                rho = self.universes[d][i]
                inst = tuple(rho.apply_literal(l) for l in ground_used)
                if not self._guard(lambda: self.theory.ground_valid(inst)):
                    rep.fail("output %s admits %s but the used literals are not valid"
                             % (self._render(out), rho))
                    break

    def _prepare_ground(self, lits: Iterable[Literal]) -> list:
        lits = sorted(lits, key=str)
        if self.bench.kind != "lra":
            return lits
        # Eigenvariables denote fixed rationals here; evaluate them away
        # so validity and the stream see the same ground atoms.
        val = RatConst(lra_mod.EIGEN_VALUE)
        out = []
        for l in lits:
            mapping = {v: val for v in literal_vars(l) if isinstance(v, EigenVar)}
            out.append(subst_literal(l, mapping))
        return out

    def p1(self, rep: LawReport) -> None:
        for sigma, meta, _ in self._proj_pairs():
            rep.cases += 1
            try:
                projected = self.theory.project(sigma, meta)
                before = self.theory.satisfiable(sigma)
                after = self.theory.satisfiable(projected)
            except Exception as exc:
                rep.fail("%s raised %s" % (rep.law, exc))
                continue
            if before != after:
                rep.fail("projection of %s changes satisfiability (%s to %s)"
                         % (self._render(sigma), before, after))

    def p2(self, rep: LawReport) -> None:
        for d in self.bench.levels:
            for sigma in self.pools[d]:
                rep.cases += 1
                sat = self._guard(lambda: self.theory.satisfiable(sigma))
                nonempty = bool(self.compat(sigma))
                if nonempty and not sat:
                    rep.fail("%s has compatible instantiations but claims unsatisfiable"
                             % (self._render(sigma),))
                elif sat and not nonempty:
                    rep.caveats += 1  # the bounded universe may just miss it
        for d in self.bench.levels:
            pool = self.pools[d]
            for s1, s2 in zip(pool, pool[1:]):
                rep.cases += 1
                met = self._guard(lambda: self.theory.meet(s1, s2))
                if met is not None and not self._guard(
                        lambda: self.theory.satisfiable(met)):
                    rep.fail("meet of %s and %s is unsatisfiable but was not rejected"
                             % (self._render(s1), self._render(s2)))

    def a1(self, rep: LawReport) -> None:
        combos = []
        for d, litsets in self.bench.litsets.items():
            for lits in litsets:
                for rho in self.universes[d]:
                    combos.append((d, lits, rho))
        for d, lits, rho in self._sample(rep.law, combos):
            rep.cases += 1
            glits = tuple(rho.apply_literal(l) for l in lits)
            glits = tuple(self._prepare_ground(glits))
            ground_domain = Domain.initial(d.eigens if self.bench.kind != "lra" else ())
            try:
                valid = self.theory.ground_valid(glits)
                stream = self.theory.consistency(glits, ground_domain)
                yielded = stream.pull(self.theory.top(ground_domain)) is not None
            except Exception as exc:
                rep.fail("%s raised %s on %s" % (rep.law, exc, [str(l) for l in glits]))
                continue
            if valid != yielded:
                rep.fail("ground leaf %s: validity %s but the stream %s"
                         % ([str(l) for l in glits], valid,
                            "yields" if yielded else "is silent"))

    def d1(self, rep: LawReport) -> None:
        for sigma, meta, lo in self._proj_pairs():
            rep.cases += 1
            projected = self._guard(lambda: self.theory.project(sigma, meta))
            if projected is None or projected.domain != lo:
                rep.fail("projection domain bookkeeping wrong for %s" % (self._render(sigma),))
        for lo, hi in self.bench.lo_hi:
            for sigma in self.pools[lo]:
                rep.cases += 1
                lifted = self._guard(lambda: self.theory.lift(sigma, hi.metas[-1]))
                if lifted is None or lifted.domain != hi:
                    rep.fail("lift domain bookkeeping wrong for %s" % (self._render(sigma),))
        for d in self.bench.levels:
            rep.cases += 1
            top = self._guard(lambda: self.theory.top(d))
            if top is None or top.domain != d:
                rep.fail("top at the wrong domain")
            pool = self.pools[d]
            for s1, s2 in zip(pool, pool[1:]):
                rep.cases += 1
                met = self._guard(lambda: self.theory.meet(s1, s2))
                if met is not None and met.domain != d:
                    rep.fail("meet moved its operands to another domain")

    def d2(self, rep: LawReport) -> None:
        for d, lits, inp, res in self.leaf_outputs:
            if res is None:
                continue
            rep.cases += 1
            if res[1].domain != d:
                rep.fail("leaf output lives at the wrong domain")


# Law name -> the check that fills in its report, in report order.
LAWS = {
    "AX_proj": _Probe.ax_proj,
    "AX_wit": _Probe.ax_wit,
    "AX_meet": _Probe.ax_meet,
    "AX_lift": _Probe.ax_lift,
    "AX_pg": _Probe.ax_pg,
    "P1": _Probe.p1,
    "P2": _Probe.p2,
    "A1": _Probe.a1,
    "A2": _Probe.a2,
    "D1": _Probe.d1,
    "D2": _Probe.d2,
}


def run_conformance(kind: str, cases: int = 200, seed: int = 0,
                    theory: Optional[Theory] = None,
                    label: Optional[str] = None) -> ConformanceResult:
    if cases < 1:
        raise ValueError("cases must be a positive integer, got %r" % (cases,))
    bench = make_bench(kind)
    theory = theory or make_theory(kind, bench.sig, depth=2)
    probe = _Probe(bench, theory, cases, seed)
    laws = [LawReport(name) for name in LAWS]
    for rep, check in zip(laws, LAWS.values()):
        check(probe, rep)
    return ConformanceResult(label or kind, all(l.ok for l in laws), laws)


# ---------------------------------------------------------------------------
# Mutants: deliberately broken backends the harness must reject


class _FolProjDropsWrongEntry(SubstTheory):
    def project_payload(self, sigma, meta, domain):
        if not sigma.is_bot:
            sigma = replace(sigma, entries=sigma.entries[1:])
        return super().project_payload(sigma, meta, domain)


class _FolMeetIgnoresClash(SubstTheory):
    def meet(self, a, b):
        out = super().meet(a, b)
        return a if out is None else out


class _FolLiftBindsExtra(SubstTheory):
    def lift(self, sigma, meta):
        lifted = super().lift(sigma, meta)
        if lifted.is_bot:
            return lifted
        image = first_ground(meta.sort, lifted.domain.authorised(meta), lifted.domain,
                             self.ground_base)
        return replace(lifted, entries=lifted.entries + ((meta, image),))


class _LraProjDropsVarAtoms(LraTheory):
    def project_payload(self, sigma, meta, domain):
        return make_poly(domain, [lra_mod._split(s, meta)[0] for s in sigma.disjuncts])


class _EnumMeetPrefersFirst(GroundEnumTheory):
    def meet(self, a, b):
        out = super().meet(a, b)
        if out is not None:
            return out
        d = meet_domain(a, b)
        merged = {**dict(b.entries), **dict(a.entries)}
        return GroundConstraint(d, tuple((m, merged[m]) for m in d.metas if m in merged))


class _LraWitnessAlwaysZero(LraTheory):
    def witness_payload(self, sigma, meta, rho):
        return RatConst(0)


def mutants() -> dict:
    """name -> (bench kind, factory, laws expected to flag it)."""
    sig = make_bench("fol").sig
    fol_base = tuple(FunApp(c, ()) for c in sig.consts)
    return {
        "fol-proj-drops-wrong-entry": (
            "fol", lambda: _FolProjDropsWrongEntry(ground_base=fol_base),
            frozenset(("AX_proj",))),
        "fol-meet-ignores-clash": (
            "fol", lambda: _FolMeetIgnoresClash(ground_base=fol_base),
            frozenset(("AX_meet",))),
        "fol-lift-binds-extra": (
            "fol", lambda: _FolLiftBindsExtra(ground_base=fol_base),
            frozenset(("AX_lift",))),
        "lra-proj-drops-var-atoms": (
            "lra", lambda: _LraProjDropsVarAtoms(),
            frozenset(("AX_proj", "P1"))),
        "enum-meet-prefers-first": (
            "enum", lambda: _EnumMeetPrefersFirst(sig, ceiling=2),
            frozenset(("AX_meet",))),
        "lra-witness-always-zero": (
            "lra", lambda: _LraWitnessAlwaysZero(),
            frozenset(("AX_wit",))),
    }
