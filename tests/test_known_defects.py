"""Every known wrong verdict, as a strict xfail.

`known_defects.json` lists each run whose verdict is wrong today, with
the outcomes that would be correct and the ROADMAP item that fixes it.
Each run goes through `frontend.run(..., check=True)` like a corpus run.
`xfail_strict` is set in pyproject.toml, so a fix that makes a run pass
shows up as an XPASS failure: the fix moves its goal into
`src/seqmod/problems/corpus.json` and deletes the entry here.
"""

import json
import re
from pathlib import Path

import pytest

from seqmod.frontend import parse_problem, run
from seqmod.kernel import SearchConfig

ROOT = Path(__file__).resolve().parents[1]
DEFECTS = json.loads((Path(__file__).resolve().parent / "known_defects.json").read_text())
GOALS = DEFECTS["goals"]


def _params():
    for entry in DEFECTS["defects"]:
        yield pytest.param(entry, id=entry["instance"], marks=pytest.mark.xfail(
            reason="ROADMAP item %d" % entry["item"]))


@pytest.mark.parametrize("entry", _params())
def test_verdict_is_correct(entry):
    name, theory, calculus = entry["instance"].split("/")
    report = run(parse_problem(GOALS[name], name), theory,
                 SearchConfig(calculus=calculus), check=True)
    assert report.outcome in entry["expect"]
    if report.outcome == "proved":
        assert report.check["proof"] and report.check["reconstruction"]
    if "witness" in entry:
        meta, eigen = entry["witness"]
        assert any(m == meta and re.search(r"\b%s\b" % eigen, t)
                   for m, t in report.witnesses), report.witnesses


def test_every_entry_names_a_goal_that_parses():
    # A typo would otherwise hide behind its own xfail marker.
    for name, text in GOALS.items():
        assert parse_problem(text, name).goals, name
    for entry in DEFECTS["defects"]:
        name, theory, calculus = entry["instance"].split("/")
        assert name in GOALS and theory in ("fol", "enum", "lra")
        assert calculus in ("di", "sdi") and entry["expect"]


def test_every_benchmark_known_failure_is_listed():
    known = json.loads((ROOT / "perfbench" / "known_failures.json").read_text())
    listed = {entry["instance"] for entry in DEFECTS["defects"]}
    assert {f["instance"] for f in known["failures"]} <= listed
