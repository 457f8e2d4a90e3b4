"""Conformance harness: green backends, red mutants.

`conformance_golden.json` holds one sha256 of `report_json` per run at
`cases=200, seed=0`: the `fol`, `enum` and `lra` backends and the six
mutants.  `conformance_text_golden.json` holds the sha256 of
`report_text` for the same nine runs, which pins the wording of a FAILED
law and its examples.  A refactor that changes any conformance report
changes a hash.

Regenerate (only when a change is meant to alter a report, and say why
in CHANGES.md):

    PYTHONPATH=src python3 tests/test_harness.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from seqmod import harness
from seqmod.harness import (
    LAWS,
    mutants,
    report_json,
    report_text,
    run_conformance,
)

HERE = Path(__file__).resolve().parent
GOLDENS = {report_json: HERE / "conformance_golden.json",
           report_text: HERE / "conformance_text_golden.json"}


@pytest.mark.parametrize("kind", ["fol", "enum", "lra"])
def test_backends_pass_all_laws(kind):
    res = run_conformance(kind, cases=80, seed=0)
    assert res.ok
    assert [law.law for law in res.laws] == list(LAWS)
    for law in res.laws:
        assert law.failure_count == 0, (law.law, law.failures)
        assert law.cases > 0, law.law


def test_conformance_is_deterministic():
    a = run_conformance("fol", cases=60, seed=1)
    b = run_conformance("fol", cases=60, seed=1)
    assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())


def test_seed_changes_sampling_not_verdict():
    for seed in (0, 1, 2):
        assert run_conformance("lra", cases=60, seed=seed).ok


def test_all_mutants_are_caught():
    for name, (kind, factory, expected) in mutants().items():
        res = run_conformance(kind, cases=120, seed=0, theory=factory(), label=name)
        assert not res.ok, name
        failed = {law.law for law in res.laws if not law.ok}
        assert expected <= failed, (name, expected, failed)


def test_mutant_failures_carry_counterexamples():
    name = "fol-meet-ignores-clash"
    kind, factory, expected = mutants()[name]
    res = run_conformance(kind, cases=120, seed=0, theory=factory(), label=name)
    law = next(l for l in res.laws if l.law == "AX_meet")
    assert not law.ok
    assert law.failures
    assert all(isinstance(f, str) and f for f in law.failures)


def test_report_serialisations():
    res = run_conformance("enum", cases=40, seed=0)
    payload = json.loads(report_json(res))
    assert payload["theory"].startswith("enum")
    assert payload["ok"] is True
    assert set(payload["laws"][0]) >= {"law", "cases", "failures"}
    text = report_text(res)
    for law in LAWS:
        assert law in text


def test_failure_count_survives_recording_cap():
    # far more than MAX_RECORDED failures: count must reflect all of them
    name = "enum-meet-prefers-first"
    kind, factory, _ = mutants()[name]
    res = run_conformance(kind, cases=200, seed=0, theory=factory(), label=name)
    law = next(l for l in res.laws if l.law == "AX_meet")
    assert law.failure_count >= len(law.failures)
    assert len(law.failures) <= 5


def test_docstring_lists_exactly_the_laws():
    doc = harness.__doc__.split("Laws:\n", 1)[1]
    block = doc.split("\n\n", 1)[0]
    assert [line.split()[0] for line in block.splitlines()] == list(LAWS)


def conformance_results() -> dict:
    runs = {kind: (kind, None) for kind in ("fol", "enum", "lra")}
    runs.update((name, (kind, factory())) for name, (kind, factory, _) in mutants().items())
    return {label: run_conformance(kind, cases=200, seed=0, theory=theory, label=label)
            for label, (kind, theory) in runs.items()}


def conformance_hashes(write, results) -> dict:
    return {label: hashlib.sha256(write(res).encode("utf-8")).hexdigest()
            for label, res in results.items()}


@pytest.fixture(scope="module")
def results():
    return conformance_results()


def check_golden(write, results) -> None:
    golden = json.loads(GOLDENS[write].read_text())
    got = conformance_hashes(write, results)
    assert len(golden) == 9
    assert sorted(got) == sorted(golden)
    changed = sorted(k for k in golden if got[k] != golden[k])
    assert not changed, "conformance %s changed for %s" % (write.__name__, changed)


def test_conformance_reports_are_byte_identical(results):
    check_golden(report_json, results)


def test_conformance_text_reports_are_byte_identical(results):
    check_golden(report_text, results)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_harness.py --write")
    results = conformance_results()
    for write, path in GOLDENS.items():
        hashes = conformance_hashes(write, results)
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
