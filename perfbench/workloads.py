"""Benchmark workloads: problem texts, run settings and expected verdicts.

Every expected verdict comes from `corpus.json` or holds by construction
(the generated families are valid or invalid by their shape).  None is
taken from a seqmod run.  The seed fixes the order of hypotheses and
conjuncts inside generated goals; the runner draws the instance order of
each pass from a generator seeded by the same seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PROVED = frozenset({"proved"})
NOT_PROVED = frozenset({"exhausted", "resource"})


@dataclass(frozen=True)
class Instance:
    """One `seqmod prove` invocation and the verdicts that count as correct."""

    id: str
    text: str
    theory: str
    calculus: str
    expect: frozenset
    check: bool = False
    output: str = "text"
    nodes: int = 10000


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def corpus(problems: Path, rng: random.Random) -> list[Instance]:
    """The 28 corpus problems with their declared theory, plus the pure
    first-order ones under `enum`, each in both calculi, with --check and
    JSON output."""
    out = []
    for entry in json.loads((problems / "corpus.json").read_text()):
        text = (problems / entry["file"]).read_text()
        expect = frozenset({entry["expect"]})
        theories = [entry["theory"]] + (["enum"] if entry["pure_fol"] else [])
        for theory in theories:
            for calculus in ("di", "sdi"):
                out.append(Instance("%s/%s/%s" % (entry["name"], theory, calculus), text,
                                    theory, calculus, expect, check=True, output="json"))
    return out


def _implication_chain(n: int, pad: int, rng: random.Random) -> str:
    decls = "".join("(declare-pred p%d 0)\n" % i for i in range(n + 1))
    decls += "".join("(declare-pred q%d 0)\n" % i for i in range(pad))
    hyps = (["p0"] + ["(=> p%d p%d)" % (i, i + 1) for i in range(n)]
            + ["q%d" % i for i in range(pad)])
    return decls + "(goal (=> (and %s) p%d))\n" % (" ".join(_shuffled(hyps, rng)), n)


# One chain length: lengths double the work per step, so a ladder of them
# puts the median on the boundary between two size classes, where it
# jumps from run to run.  Unused hypotheses q0..q(pad-1) instead add one
# literal to every sequent, which raises the cost by 1.0x to 1.7x over
# the pads below.  Costs spread that evenly keep the median steady when
# the machine's speed changes by a third (measured on a 2-vCPU VM: every
# instance slows by about 1.38x at once, for seconds at a time), which a
# single cost class does not.
PROP_CHAIN_N = 9
PROP_CHAIN_PADS = range(0, 16, 2)


def prop_chain(problems: Path, rng: random.Random) -> list[Instance]:
    """p0, p0->p1, ..., p(n-1)->pn, q0, ... |- pn under fol: valid by
    construction."""
    out = []
    for pad in PROP_CHAIN_PADS:
        text = _implication_chain(PROP_CHAIN_N, pad, rng)
        for calculus in ("di", "sdi"):
            out.append(Instance("chain_n%d_pad%d/fol/%s" % (PROP_CHAIN_N, pad, calculus),
                                text, "fol", calculus, PROVED))
    return out


def _function_chain(n: int, rng: random.Random) -> str:
    target = "a"
    for _ in range(n):
        target = "(f %s)" % target
    hyps = _shuffled(["(p a)", "(forall (x) (=> (p x) (p (f x))))"], rng)
    return ("(declare-pred p 1)\n(declare-fun f 1)\n(declare-const a)\n"
            "(goal (=> (and %s) (p %s)))\n" % (" ".join(hyps), target))


def backtrack(problems: Path, rng: random.Random) -> list[Instance]:
    """p(a), forall x. p(x) -> p(f x) |- p(f^n a): valid by construction."""
    out = []
    for theory, sizes in (("fol", range(2, 9)), ("enum", range(2, 5))):
        for n in sizes:
            text = _function_chain(n, rng)
            for calculus in ("di", "sdi"):
                out.append(Instance("fn_chain_n%d/%s/%s" % (n, theory, calculus),
                                    text, theory, calculus, PROVED))
    return out


def _strict_chain(n: int, rng: random.Random) -> str:
    atoms = (["(< 0 x0)"] + ["(< x%d x%d)" % (i, i + 1) for i in range(n - 1)]
             + ["(< x%d 1)" % (n - 1)])
    binders = " ".join("(x%d rat)" % i for i in range(n))
    return "(goal (exists (%s) (and %s)))\n" % (binders, " ".join(_shuffled(atoms, rng)))


# Invalid goals.  The runaway one never closes; its node cap bounds the
# work per calculus.  The other two are the universally quantified
# rational goals that an unsound backend proves.
RUNAWAY = "(goal (forall (x) (exists (y) (and (> y x) (< y 0)))))\n"
RUNAWAY_NODES = {"di": 30, "sdi": 120}
UNSOUND_GOALS = {
    "forall_nonneg": "(goal (forall (x) (>= x 0)))\n",
    "least_rational": "(goal (exists ((y rat)) (forall ((x rat)) (<= y x))))\n",
}


def lra_search(problems: Path, rng: random.Random) -> list[Instance]:
    """lra goals with --check: strict chains and the interval pair
    (valid), the capped runaway and the two unsound-backend goals
    (invalid)."""
    out = []
    pair = (problems / "lra_interval_pair.prob").read_text()
    for calculus in ("di", "sdi"):
        for n in range(2, 8):
            out.append(Instance("strict_chain_n%d/lra/%s" % (n, calculus),
                                _strict_chain(n, rng), "lra", calculus, PROVED, check=True))
        out.append(Instance("lra_interval_pair/lra/%s" % calculus, pair, "lra", calculus,
                            PROVED, check=True))
        out.append(Instance("runaway/lra/%s" % calculus, RUNAWAY, "lra", calculus,
                            NOT_PROVED, check=True, nodes=RUNAWAY_NODES[calculus]))
        for name, text in UNSOUND_GOALS.items():
            out.append(Instance("%s/lra/%s" % (name, calculus), text, "lra", calculus,
                                NOT_PROVED, check=True))
    return out


WORKLOADS = {
    "corpus": corpus,
    "prop_chain": prop_chain,
    "backtrack": backtrack,
    "lra_search": lra_search,
}

# Tail percentile per workload.  Of 75, 80, 85, 90, 95, 99, 99.5 and 99.9
# it is the highest that leaves at least ten correct verdicts beyond it in
# a 25-second run of the seed code with five passes (runs make six or
# more) and whose nearest rank never falls on a boundary between
# instances.  Each pass runs every instance once, so with c correct
# instances a pass a percentile p with p*c/100 whole ranks the slowest
# verdict of one instance, and the value jumps between two instances from
# run to run (p80 of backtrack's 15 did).  It is fixed here, not chosen
# per run, so that a faster program is not judged on a higher percentile.
TAIL_PERCENTILE = {
    "corpus": 99.5,
    "prop_chain": 90.0,
    "backtrack": 85.0,
    "lra_search": 95.0,
}


def build(workload: str, problems: Path, seed: int) -> list[Instance]:
    return WORKLOADS[workload](problems, random.Random(seed))
