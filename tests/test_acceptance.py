"""Acceptance suite: one test per release criterion.

Each test prints a single verdict line; run with `pytest -s` to see
them alongside the usual pass/fail report.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from seqmod.frontend import make_theory, parse_problem, run
from seqmod.harness import LAWS, mutants, run_conformance
from seqmod.kernel import (
    SearchConfig,
    check_proof,
    fold,
    prove,
    reconstruct_ground,
)
from seqmod.lra import LinAtom, LraTheory, lra_sat, make_atom, make_poly
from seqmod.terms import SORT_RAT, Domain, Instantiation, MetaVar, RatConst
from seqmod.theory import PreconditionError, WitnessUnsupported

PROBLEMS = Path(__file__).resolve().parents[1] / "src" / "seqmod" / "problems"
CORPUS = json.loads((PROBLEMS / "corpus.json").read_text())


def load(name: str):
    entry = next(e for e in CORPUS if e["name"] == name)
    return parse_problem((PROBLEMS / entry["file"]).read_text(), entry["name"])


def verdict(label: str) -> None:
    print("ACCEPTANCE %s: PASS" % label)


def point(domain: Domain, vals) -> Instantiation:
    return Instantiation(domain, tuple(
        (m, RatConst(Fraction(v))) for m, v in zip(domain.metas, vals)))


def test_c1_producing_run_on_interval_pair():
    prob = load("lra_interval_pair")

    # same code path the CLI takes
    report = run(prob, "lra", SearchConfig(calculus="di", order="left"))
    assert report.outcome == "proved"
    assert report.constraint == "TRUE"
    assert report.wall_ms < 1000.0

    # structural audit of the same deterministic search
    theory = make_theory("lra", prob.signature)
    out = prove(prob.goals, Domain.initial(()), theory,
                SearchConfig(calculus="di", order="left"))
    assert out.status == "proved"
    leaves = [n for n in out.tree.walk() if n.rule == "leaf"]
    assert len(leaves) == 9
    joint = leaves[0].output.domain
    assert len(joint.metas) == 4 and not joint.eigens

    # the meet of all leaf outputs is the constraint before projection
    acc = leaves[0].output
    for leaf in leaves[1:]:
        assert leaf.output.domain == joint
        acc2 = theory.meet(acc, leaf.output)
        assert acc2 is not None
        acc = acc2
    assert theory.satisfiable(acc)
    assert theory.compatible(point(joint, (15, 23, 15, 23)), acc)

    # only one integer point in the search box solves it
    hits = [(vx, vy) for vx in range(41) for vy in range(61)
            if theory.compatible(point(joint, (vx, vy, vx, vy)), acc)]
    assert hits == [(15, 23)]
    verdict("C1 producing calculus reproduces the interval-pair run")


def test_c2_refining_chain_left_order():
    prob = load("lra_interval_pair")
    theory = make_theory("lra", prob.signature)
    out = prove(prob.goals, Domain.initial(()), theory,
                SearchConfig(calculus="sdi", order="left"))
    assert out.status == "proved"
    ok, diags = check_proof(out.tree, theory)
    assert ok, diags

    chain = []

    def explore(node):
        if node.rule == "leaf":
            chain.append(node.output)
            return
        kids = list(node.children)
        if node.rule == "and" and node.order_bit == 1:
            kids.reverse()
        for child in kids:
            explore(child)

    explore(out.tree)
    assert len(chain) == 9
    joint = chain[0].domain
    mx, my, mx2, my2 = joint.metas

    one = Fraction(1)
    pair = [make_atom("=", {mx: one, mx2: -one}, Fraction(0)),
            make_atom("=", {my: one, my2: -one}, Fraction(0))]
    band1 = [make_atom("<=", {mx: Fraction(3), my: Fraction(-2)}, Fraction(0)),
             make_atom("<=", {my: Fraction(2), mx: Fraction(-3)}, Fraction(-1))]
    band2 = [make_atom("<=", {mx2: Fraction(-2), my2: Fraction(-3)}, Fraction(99)),
             make_atom("<=", {mx2: Fraction(2), my2: Fraction(3)}, Fraction(-101))]
    stages = [make_poly(joint, [pair]),
              make_poly(joint, [pair + band1]),
              make_poly(joint, [pair + band1 + band2])]

    # diagonal probes satisfy the matching equalities, so they separate
    # the arithmetic stages; random 4-tuples separate the matching itself
    rng = random.Random(7)
    grid = (0, 1, 5, 10, 14, 15, 16, 20, 23, 30, Fraction(46, 3),
            Fraction(29, 2))
    probes = {(gx, gy, gx, gy) for gx in grid for gy in grid}
    probes |= {(0, 0, 1, 0), (15, 23, 15, 24), (1, 0, 0, 0)}
    while len(probes) < 200:
        probes.add(tuple(Fraction(rng.randint(-4, 50), rng.choice((1, 2, 3)))
                         for _ in range(4)))
    rhos = [point(joint, p) for p in sorted(probes)]

    def equiv(a, b):
        return all(theory.compatible(r, a) == theory.compatible(r, b)
                   for r in rhos)

    # the refinement chain passes through every staged conjunction, in order
    idx = 0
    hits = []
    for want in stages:
        while idx < len(chain) and not equiv(chain[idx], want):
            idx += 1
        assert idx < len(chain), "stage %d missing" % len(hits)
        hits.append(idx)
        idx += 1
    assert hits[0] == 0
    assert equiv(chain[-1], stages[-1])
    verdict("C2 refining calculus threads the staged chain (milestones at %s)"
            % hits)


def test_c3_conformance_default_bounds_and_mutants():
    for kind in ("fol", "enum", "lra"):
        start = time.perf_counter()
        res = run_conformance(kind, cases=200, seed=0)
        elapsed = time.perf_counter() - start
        assert res.ok, [l.law for l in res.laws if not l.ok]
        assert elapsed < 60.0, (kind, elapsed)
        assert [l.law for l in res.laws] == list(LAWS)

    flagged = {}
    for name, (kind, factory, expected) in sorted(mutants().items()):
        res = run_conformance(kind, cases=200, seed=0, theory=factory(),
                              label=name)
        failed = {l.law for l in res.laws if not l.ok}
        assert failed, name
        assert expected <= failed, (name, expected, failed)
        flagged[name] = sorted(failed)
    assert len(flagged) == 6
    verdict("C3 conformance green on all backends, all 6 mutants flagged")


def test_c4_every_proved_run_reconstructs():
    assert len(CORPUS) >= 25
    failures = []
    proved_runs = 0
    skipped_witness = 0
    for entry in CORPUS:
        prob = load(entry["name"])
        jobs = [("di", entry["theory"]), ("sdi", entry["theory"])]
        if entry["pure_fol"]:
            jobs.append(("sdi", "enum"))
        for calculus, theory_name in jobs:
            theory = make_theory(theory_name, prob.signature, depth=3)
            out = prove(prob.goals, Domain.initial(()), theory,
                        SearchConfig(calculus=calculus, order="left"))
            if out.status != "proved":
                continue
            proved_runs += 1
            tag = (entry["name"], calculus, theory_name)
            ok, diags = check_proof(out.tree, theory)
            if not ok:
                failures.append(tag + ("check_proof", diags))
                continue
            try:
                rho = fold(out.constraint, theory)
            except WitnessUnsupported:
                skipped_witness += 1
                continue
            ok2, diags2 = reconstruct_ground(out.tree, rho, theory)
            if not ok2:
                failures.append(tag + ("reconstruct", diags2))
    assert failures == []
    assert proved_runs >= 50
    verdict("C4 reconstruction audit: %d proved runs, 0 failures, "
            "%d witness-unsupported skips" % (proved_runs, skipped_witness))


CONFIGS = (("di", "left", 0), ("sdi", "left", 0), ("sdi", "right", 0),
           ("sdi", "random", 0), ("sdi", "random", 1), ("sdi", "random", 2))


def test_c5_statuses_agree_across_strategies():
    verdicts = {}
    for calculus, order, seed in CONFIGS:
        cfg = SearchConfig(calculus=calculus, order=order, seed=seed)
        got = {}
        for entry in CORPUS:
            prob = load(entry["name"])
            theory = make_theory(entry["theory"], prob.signature, depth=3)
            got[entry["name"]] = prove(prob.goals, Domain.initial(()),
                                       theory, cfg).status
        verdicts[(calculus, order, seed)] = got
    base = verdicts[("di", "left", 0)]
    for key, got in verdicts.items():
        assert got == base, key
    proved = sorted(n for n, s in base.items() if s == "proved")
    stuck = sorted(n for n, s in base.items() if s != "proved")
    for entry in CORPUS:
        assert base[entry["name"]] == entry["expect"]
    print("  budget-exhausted under every strategy: %s" % ", ".join(stuck))
    verdict("C5 proved set identical across %d strategies (%d proved)"
            % (len(CONFIGS), len(proved)))


def test_c6_backends_agree_on_shared_fragment():
    fol_proved, enum_proved = set(), set()
    for entry in CORPUS:
        if not entry["pure_fol"]:
            continue
        prob = load(entry["name"])
        for theory_name, bucket in (("fol", fol_proved),
                                    ("enum", enum_proved)):
            theory = make_theory(theory_name, prob.signature, depth=3)
            out = prove(prob.goals, Domain.initial(()), theory,
                        SearchConfig())
            if out.status == "proved":
                bucket.add(entry["name"])
    assert fol_proved == enum_proved
    assert len(fol_proved) >= 15
    verdict("C6 unification and enumeration backends prove the same "
            "%d shared-fragment problems" % len(fol_proved))


def _holds(atom: LinAtom, env) -> bool:
    total = atom.const + sum(c * env[v] for v, c in atom.coeffs)
    if atom.op == "<=":
        return total <= 0
    if atom.op == "<":
        return total < 0
    return total == 0


def test_c7_elimination_round_trip_and_flat_oracle():
    rng = random.Random(2026)
    theory = LraTheory()

    # part 1: eliminate every variable, then rebuild a point by witnessing
    metas = [MetaVar("m%d" % i, SORT_RAT) for i in range(3)]
    sat_seen = unsat_seen = 0
    for _ in range(1000):
        nvars = rng.randint(1, 3)
        vs = metas[:nvars]
        dom = Domain.initial(())
        for m in vs:
            dom = dom.add_meta(m)
        atoms = []
        for _ in range(rng.randint(0, 4)):
            coeffs = {v: Fraction(rng.randint(-3, 3)) for v in vs}
            coeffs = {v: c for v, c in coeffs.items() if c}
            if not coeffs:
                continue
            atoms.append(make_atom(rng.choice(("<=", "<", "=")), coeffs,
                                   Fraction(rng.randint(-8, 8))))
        sigma = make_poly(dom, [atoms])
        if lra_sat(sigma):
            sat_seen += 1
            rho = fold(sigma, theory)
            env = {m: t.value for m, t in rho.entries}
            assert all(_holds(a, env) for a in atoms), (atoms, env)
        else:
            unsat_seen += 1
            with pytest.raises(PreconditionError):
                fold(sigma, theory)
    assert sat_seen >= 300 and unsat_seen >= 50

    # part 2: closed 2-variable systems against a vertex-candidate oracle
    vx, vy = MetaVar("qx", SORT_RAT), MetaVar("qy", SORT_RAT)
    dom2 = Domain.initial(()).add_meta(vx).add_meta(vy)
    box = Fraction(1000)

    def brute_sat(atoms) -> bool:
        lines = [(dict(a.coeffs).get(vx, Fraction(0)),
                  dict(a.coeffs).get(vy, Fraction(0)), a.const)
                 for a in atoms]
        lines += [(Fraction(1), Fraction(0), -box),
                  (Fraction(1), Fraction(0), box),
                  (Fraction(0), Fraction(1), -box),
                  (Fraction(0), Fraction(1), box)]
        cands = [(sx * box, sy * box) for sx in (-1, 1) for sy in (-1, 1)]
        cands += [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                  (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1))]
        for i, (a1, b1, c1) in enumerate(lines):
            for a2, b2, c2 in lines[i + 1:]:
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue
                cands.append(((b1 * c2 - b2 * c1) / det,
                              (a2 * c1 - a1 * c2) / det))
        return any(all(_holds(a, {vx: px, vy: py}) for a in atoms)
                   for px, py in cands)

    mismatches = 0
    for _ in range(500):
        atoms = []
        for _ in range(rng.randint(1, 5)):
            ca, cb = rng.randint(-4, 4), rng.randint(-4, 4)
            if ca == 0 and cb == 0:
                ca = 1
            atoms.append(make_atom(rng.choice(("<=", "<=", "=")),
                                   {vx: Fraction(ca), vy: Fraction(cb)},
                                   Fraction(rng.randint(-10, 10))))
        if lra_sat(make_poly(dom2, [atoms])) != brute_sat(atoms):
            mismatches += 1
    assert mismatches == 0
    verdict("C7 round trip on %d satisfiable systems; flat oracle agreed "
            "on 500/500" % sat_seen)
