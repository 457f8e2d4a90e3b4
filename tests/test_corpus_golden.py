"""Corpus proof JSON must stay byte-identical across refactors.

Each run is `frontend.run` with `check=True`: the 28 corpus problems
under their declared theory in both calculi, plus the pure first-order
ones under `enum`.  `corpus_golden_v2.json` holds one sha256 per
(problem, theory, calculus) of `RunReport.to_json()`, the flat report.
`corpus_golden.json` holds one of the same report with its proof
expanded into the nested form it had before (`report_v1.v1_json`), so
the flat report is shown to keep everything the nested one held.  A
refactor that changes any proof, constraint rendering, witness or
search statistic changes a hash.

Regenerate (only when a change is meant to alter corpus output, and say
why in CHANGES.md):

    PYTHONPATH=src python3 tests/test_corpus_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from report_v1 import v1_json
from seqmod.frontend import parse_problem, run
from seqmod.kernel import SearchConfig
from seqmod.terms import EigenVar, FunApp

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "src" / "seqmod" / "problems"
GOLDEN = Path(__file__).resolve().parent / "corpus_golden.json"
GOLDEN_V2 = Path(__file__).resolve().parent / "corpus_golden_v2.json"


def corpus_runs():
    """(key, problem, theory, calculus) for every golden run, in corpus order."""
    for entry in json.loads((PROBLEMS / "corpus.json").read_text()):
        problem = parse_problem((PROBLEMS / entry["file"]).read_text(), entry["name"])
        theories = [entry["theory"]] + (["enum"] if entry["pure_fol"] else [])
        for theory in theories:
            for calculus in ("di", "sdi"):
                key = "%s/%s/%s" % (entry["name"], theory, calculus)
                yield key, problem, theory, calculus


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_hashes() -> tuple[dict, dict]:
    """The golden hashes of each run: of the nested view, and of the flat
    report itself.  The flat report must read back as `canonical()`."""
    nested, flat = {}, {}
    for key, problem, theory, calculus in corpus_runs():
        report = run(problem, theory, SearchConfig(calculus=calculus), check=True)
        text = report.to_json()
        assert json.loads(text) == report.canonical(), key
        nested[key], flat[key] = _sha256(v1_json(report)), _sha256(text)
    return nested, flat


def test_corpus_proof_json_is_byte_identical():
    got = dict(zip((GOLDEN, GOLDEN_V2), report_hashes()))
    for path, hashes in got.items():
        golden = json.loads(path.read_text())
        assert len(golden) == 100
        assert sorted(hashes) == sorted(golden)
        changed = sorted(k for k in golden if hashes[k] != golden[k])
        assert not changed, "%s: proof JSON changed for %s" % (path.name, changed)


def _reports():
    return {key: run(problem, theory, SearchConfig(calculus=calculus), check=True).to_json()
            for key, problem, theory, calculus in corpus_runs()}


def test_corpus_reports_do_not_depend_on_term_addresses():
    # Variables and applications are interned and hash by address, which
    # no hash seed fixes.  A second run, after unrelated terms have taken
    # and freed memory and left some of it held, lays the terms out at
    # other addresses; no set or dict order may reach a report.
    first = _reports()
    unrelated = [FunApp("u%d" % i, (EigenVar("v%d" % (i % 50)),)) for i in range(3000)]
    del unrelated[::2]
    second = _reports()
    assert len(first) == 100
    assert [k for k in first if first[k] != second[k]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_corpus_golden.py --write")
    for path, hashes in zip((GOLDEN, GOLDEN_V2), report_hashes()):
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
