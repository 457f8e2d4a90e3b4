"""Corpus proof JSON must stay byte-identical across refactors.

`corpus_golden.json` holds one sha256 per (problem, theory, calculus) of
`RunReport.to_json()` with `check=True`: the 28 corpus problems under
their declared theory in both calculi, plus the pure first-order ones
under `enum`.  A refactor that changes any proof, constraint rendering,
witness or search statistic changes a hash.

Regenerate (only when a change is meant to alter corpus output, and say
why in CHANGES.md):

    PYTHONPATH=src python3 tests/test_corpus_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from seqmod.frontend import parse_problem, run
from seqmod.kernel import SearchConfig

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "src" / "seqmod" / "problems"
GOLDEN = Path(__file__).resolve().parent / "corpus_golden.json"


def corpus_runs():
    """(key, problem, theory, calculus) for every golden run, in corpus order."""
    for entry in json.loads((PROBLEMS / "corpus.json").read_text()):
        problem = parse_problem((PROBLEMS / entry["file"]).read_text(), entry["name"])
        theories = [entry["theory"]] + (["enum"] if entry["pure_fol"] else [])
        for theory in theories:
            for calculus in ("di", "sdi"):
                key = "%s/%s/%s" % (entry["name"], theory, calculus)
                yield key, problem, theory, calculus


def report_hashes(check_writer: bool = False) -> dict:
    """The golden hash of each run; with `check_writer`, also assert that
    `frontend.json_text` writes each report as the standard encoder does."""
    out = {}
    for key, problem, theory, calculus in corpus_runs():
        report = run(problem, theory, SearchConfig(calculus=calculus), check=True)
        text = report.to_json()
        if check_writer:
            assert text == json.dumps(report.canonical(), indent=2, sort_keys=True), key
        out[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def test_corpus_proof_json_is_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    got = report_hashes(check_writer=True)
    assert len(golden) == 100
    assert sorted(got) == sorted(golden)
    changed = sorted(k for k in golden if got[k] != golden[k])
    assert not changed, "proof JSON changed for %s" % changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_corpus_golden.py --write")
    GOLDEN.write_text(json.dumps(report_hashes(), indent=1, sort_keys=True) + "\n")
