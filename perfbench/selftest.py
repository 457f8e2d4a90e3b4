"""Self-tests for the benchmark.

    python3 perfbench/selftest.py

Checks that a short run of every workload, traced and untraced, prints
exactly the metrics `BENCHMARK.json` declares with their units; that the
oracle counts an injected wrong verdict, an injected exception and an
injected audit failure as failures; that the tracer restores what it
patched; and that the benchmark exits non-zero without a result when the
seqmod sources are absent.  Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import oracle
import run
import workloads
from tracer import Tracer

ROOT = run.HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILED: list[str] = []


def check(cond: bool, label: str) -> None:
    print("%s %s" % ("ok  " if cond else "FAIL", label))
    if not cond:
        FAILED.append(label)


def invoke(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def short_runs() -> None:
    declared = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for workload in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            proc = invoke(ROOT, workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                check(False, "%s exits 0: %s" % (label, proc.stderr.strip()[-300:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s prints correct, attempted, failed and metrics" % label)
            check(result["correct"], "%s has no unexpected failure" % label)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[trace]}
            check(got == want, "%s prints every declared metric with its unit" % label)
            for name, unit in sorted(got.items()):
                print("     %-28s %-6s %s" % (name, unit, result["metrics"][name]["value"]))


def oracle_counts_injected_failures() -> None:
    sys.path.insert(0, str(run.SRC))
    _, instances = run.setup("corpus", 1)
    frontend = sys.modules["seqmod.frontend"]
    kernel = sys.modules["seqmod.kernel"]
    config_cls = kernel.SearchConfig
    inst = next(i for i in instances if i.id == "fol_drinker/fol/sdi")

    v = run.prove(frontend, config_cls, inst)
    check(v.failure is None, "a correct verdict passes the oracle")

    wrong = dataclasses.replace(inst, expect=workloads.NOT_PROVED)
    v = run.prove(frontend, config_cls, wrong)
    check(v.failure == "outcome proved", "an injected wrong verdict is a failure")

    original_run = frontend.run

    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    frontend.run = crash
    try:
        verdicts = run.run_pass(frontend, config_cls, [inst, inst], [0, 1])
    finally:
        frontend.run = original_run
    check([v.failure for v in verdicts] == ["raised RuntimeError"] * 2
          and all(v.seconds > 0 for v in verdicts),
          "an injected exception is a failure that still spends wall time")

    original_check = kernel.check_proof
    kernel.check_proof = lambda tree, theory: (False, ["injected"])
    try:
        v = run.prove(frontend, config_cls, inst)
    finally:
        kernel.check_proof = original_check
    check(v.failure == "audit failed", "an injected audit failure is a failure")

    known = oracle.load_known()
    check(oracle.unexpected({"fn_chain_n4/fol/di": "raised DomainError"}, known) == {},
          "a known failure is not unexpected")
    check(oracle.unexpected({inst.id: "outcome proved"}, known) == {inst.id: "outcome proved"},
          "an injected failure is unexpected")


def tracer_restores_and_covers() -> None:
    tracer = Tracer()
    _, instances = run.setup("lra_search", 1)
    frontend = sys.modules["seqmod.frontend"]
    kernel = sys.modules["seqmod.kernel"]
    lra = sys.modules["seqmod.lra"]
    before = (frontend.run, frontend.parse_problem, frontend.tree_to_json,
              frontend.make_theory, kernel.prove, lra.eliminate_var_system,
              frontend.RunReport.to_json)
    order = [i for i, inst in enumerate(instances) if inst.id.startswith("strict_chain")]
    with tracer.installed(frontend, kernel, lra):
        verdicts = run.run_pass(frontend, kernel.SearchConfig, instances, order, tracer)
    after = (frontend.run, frontend.parse_problem, frontend.tree_to_json,
             frontend.make_theory, kernel.prove, lra.eliminate_var_system,
             frontend.RunReport.to_json)
    check(before == after, "the tracer restores every patched attribute")
    wall = sum(v.seconds for v in verdicts)
    check(0.9 <= tracer.root_s / wall <= 1.0, "traced layers cover the verdict wall time")
    check(tracer.calls.get("frontend.render") == 2 * len(order),
          "a recursive render counts once per call from outside")
    check(tracer.calls.get("lra.fm", 0) > 0 and tracer.calls.get("lra.pull", 0) > 0,
          "backend operations, stream pulls and elimination are traced")


def bare_directory_fails() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    proc = invoke(bare, "corpus", 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the seqmod sources the run exits non-zero and prints no result")


def main() -> int:
    short_runs()
    oracle_counts_injected_failures()
    tracer_restores_and_covers()
    bare_directory_fails()
    print("%d check(s) failed" % len(FAILED) if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
