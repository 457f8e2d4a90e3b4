"""Time-to-verdict benchmark for `seqmod prove`.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Runs `seqmod prove` in-process the way the command line does
(`frontend.parse_problem`, `frontend.run`, then `RunReport.to_json` or
`to_text`), one instance at a time in a closed loop: the next instance
starts when the previous verdict is rendered.  Passes over the whole
workload repeat, each in a new seeded order, until `--seconds` have gone
by; the pass in progress is finished.  Each verdict is judged by the
oracle in `oracle.py`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics, taken from
the spans `tracer.py` records around seqmod's layers.  The last line of
standard output is one JSON object; the lines before it say which tail
percentile was used, which verdicts failed and whether the per-instance
search fingerprint changed against `baseline/<workload>.json`.  Details
of every run are written to `out/`.

Every reported time (`setup_s`, `verdicts_per_s`, `verdict_ms.*` and
`trace.overhead`) is scaled to one reference host speed by the probe in
`speed.py`, which runs between verdicts; the unscaled figures are
printed before the result line and kept in `out/`.  The per-layer times
are not scaled.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import oracle
import workloads
from speed import REFERENCE_S, Speedometer
from tracer import ALL_OPS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBLEMS = SRC / "seqmod" / "problems"
OUT = HERE / "out"
BASELINE = HERE / "baseline"
DEFAULT_SEED = 1
SETUP_REPEATS = 15
BACKENDS = ("fol", "enum", "lra")
STAT_KEYS = ("nodes", "pulls", "backtracks", "rounds", "memo_hits")
FINGERPRINT_KEYS = ("nodes", "pulls", "backtracks", "memo_hits")


@dataclass
class Verdict:
    index: int
    start: float
    seconds: float
    failure: Optional[str]
    outcome: str
    stats: dict
    scaled: float = 0.0  # `seconds` at the reference host speed


def setup(workload: str, seed: int):
    """Import seqmod afresh and build the workload's instances.

    Returns (seconds, instances).  Removing seqmod from `sys.modules`
    first makes every repeat execute the package's modules again.
    """
    for name in [m for m in sys.modules if m == "seqmod" or m.startswith("seqmod.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("seqmod")
    instances = workloads.build(workload, PROBLEMS, seed)
    return time.perf_counter() - start, instances


def prove(frontend, config_cls, inst) -> Verdict:
    """One verdict, timed from parse to the rendered report string."""
    cfg = config_cls(calculus=inst.calculus, nodes=inst.nodes)
    report = error = None
    start = time.perf_counter()
    try:
        problem = frontend.parse_problem(inst.text, inst.id.split("/")[0])
        report = frontend.run(problem, inst.theory, cfg, check=inst.check)
        if inst.output == "json":
            report.to_json()
        else:
            report.to_text()
    except Exception as exc:  # a crash is a failed verdict, not a failed run
        error = exc
    seconds = time.perf_counter() - start
    failure = oracle.judge(inst, report, error)
    if error is not None:
        return Verdict(-1, start, seconds, failure, "raised %s" % type(error).__name__, {})
    return Verdict(-1, start, seconds, failure, report.outcome, report.stats)


def run_pass(frontend, config_cls, instances, order, tracer=None,
             speed: Optional[Speedometer] = None) -> list[Verdict]:
    out = []
    for i in order:
        gc.collect()  # garbage of the previous verdict is not this one's cost
        if speed is not None:
            speed.maybe_sample()
        if tracer is not None:
            tracer.instance = i
        v = prove(frontend, config_cls, instances[i])
        v.index = i
        out.append(v)
    return out


def measure(frontend, config_cls, instances, rng, seconds, speed, tracer=None):
    """Run whole passes until `seconds` have gone by.

    Without a tracer every pass is untraced.  With one, passes alternate
    untraced and traced, ending on a traced pass; the spans of the first
    traced pass are kept.  Sets each verdict's scaled time from the probe
    samples of `speed`.  Returns (untraced passes, traced passes).
    """
    plain: list[list[Verdict]] = []
    traced: list[list[Verdict]] = []
    start = time.perf_counter()
    while True:
        order = rng.sample(range(len(instances)), len(instances))
        if tracer is not None and len(traced) < len(plain):
            tracer.keep_spans = not traced
            with tracer.installed(frontend, sys.modules["seqmod.kernel"],
                                  sys.modules["seqmod.lra"]):
                traced.append(run_pass(frontend, config_cls, instances, order, tracer,
                                       speed))
            tracer.keep_spans = False
        else:
            plain.append(run_pass(frontend, config_cls, instances, order, speed=speed))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(traced) == len(plain)):
            break
    speed.sample()  # the last verdicts need samples after them
    for v in (v for p in plain + traced for v in p):
        v.scaled = v.seconds * speed.factor(v.start)
    return plain, traced


def nearest_rank(count: int, pct: float) -> int:
    """1-based rank of the pct-th percentile among `count` sorted values."""
    return max(1, math.ceil(count * pct / 100.0))


def throughput(passes, scaled=True) -> float:
    verdicts = [v for p in passes for v in p]
    correct = sum(1 for v in verdicts if v.failure is None)
    return correct / sum(v.scaled if scaled else v.seconds for v in verdicts)


def end_to_end(workload, passes, setup_s) -> tuple[dict, list[str]]:
    verdicts = [v for p in passes for v in p]
    ok_ms = sorted(v.scaled * 1000.0 for v in verdicts if v.failure is None)
    pct = workloads.TAIL_PERCENTILE[workload]
    rank = nearest_rank(len(ok_ms), pct)
    beyond = len(ok_ms) - rank if ok_ms else 0
    notes = ["tail: p%g of %d correct verdicts, %d beyond it%s"
             % (pct, len(ok_ms), beyond, "" if beyond >= 10 else " (fewer than 10)")]
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (throughput(passes), "1/s"),
        "verdict_ms.p50": (statistics.median(ok_ms) if ok_ms else 0.0, "ms"),
        "verdict_ms.tail": (ok_ms[rank - 1] if ok_ms else 0.0, "ms"),
        "correct_share": (len(ok_ms) / len(verdicts), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, notes


def per_layer(plain, traced, tracer: Tracer) -> dict:
    n = len(traced)
    verdicts = [v for p in traced for v in p]

    def ms(name, table):
        return table.get(name, 0.0) * 1000.0 / n

    def ratio(num, den):
        return num / den if den else 0.0

    stats = {k: sum(v.stats.get(k, 0) for v in verdicts) / n for k in STAT_KEYS}
    m = {
        "frontend.parse.ms": (ms("frontend.parse", tracer.total_s), "ms"),
        "frontend.parse.calls": (tracer.calls.get("frontend.parse", 0) / n, "count"),
        "frontend.render.ms": (ms("frontend.render", tracer.total_s), "ms"),
        "frontend.run.self_ms": (ms("frontend.run", tracer.self_s), "ms"),
        "kernel.prove.self_ms": (ms("kernel.prove", tracer.self_s), "ms"),
        "kernel.check.ms": (ms("kernel.check", tracer.total_s), "ms"),
        "kernel.reconstruct.ms": (ms("kernel.reconstruct", tracer.total_s), "ms"),
    }
    for k in STAT_KEYS:
        m["kernel.%s" % k] = (stats[k], "count")
    m["kernel.memo_hit_ratio"] = (
        ratio(stats["memo_hits"], stats["nodes"] + stats["memo_hits"]), "ratio")
    for b in BACKENDS:
        for op in ALL_OPS:
            name = "%s.%s" % (b, op)
            m[name + ".calls"] = (tracer.calls.get(name, 0) / n, "count")
            m[name + ".ms"] = (ms(name, tracer.total_s), "ms")
        pulls, meets = "%s.pull" % b, "%s.meet" % b
        m[pulls + ".yield_ratio"] = (
            ratio(tracer.non_none.get(pulls, 0), tracer.calls.get(pulls, 0)), "ratio")
        m[meets + ".ok_ratio"] = (
            ratio(tracer.non_none.get(meets, 0), tracer.calls.get(meets, 0)), "ratio")
    m["lra.fm.calls"] = (tracer.calls.get("lra.fm", 0) / n, "count")
    m["lra.fm.ms"] = (ms("lra.fm", tracer.total_s), "ms")
    m["trace.coverage"] = (tracer.root_s / sum(v.seconds for v in verdicts), "ratio")
    m["trace.overhead"] = (1.0 - throughput(traced) / throughput(plain), "share")
    return m


def fingerprints(instances, first_pass) -> dict:
    """Instance id -> [outcome, nodes, pulls, backtracks, memo_hits]."""
    return {instances[v.index].id: [v.outcome] + [v.stats.get(k) for k in FINGERPRINT_KEYS]
            for v in sorted(first_pass, key=lambda v: v.index)}


def compare_fingerprints(workload: str, current: dict) -> str:
    path = BASELINE / ("%s.json" % workload)
    if not path.exists():
        return "fingerprint: no baseline at %s" % path.relative_to(HERE.parent)
    base = json.loads(path.read_text())["fingerprints"]
    changed = sorted(i for i in current if base.get(i) != current[i])
    missing = sorted(set(base) - set(current))
    line = "fingerprint: %d of %d instances changed against %s" % (
        len(changed), len(current), path.relative_to(HERE.parent))
    for i in changed:
        line += "\n  changed %s: %s -> %s" % (i, base.get(i), current[i])
    for i in missing:
        line += "\n  missing %s" % i
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqmod" / "__init__.py").is_file():
        print("error: no seqmod sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    speed = Speedometer()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the modules of the previous set-up are garbage in cycles
        speed.sample()
        start = time.perf_counter()
        seconds, instances = setup(args.workload, args.seed)
        setups.append((start, seconds))
    speed.sample()
    setup_s = statistics.median(s * speed.factor(t) for t, s in setups)
    frontend = sys.modules["seqmod.frontend"]
    config_cls = sys.modules["seqmod.kernel"].SearchConfig
    # Instance generation consumed the seeded generator's first draws;
    # pass orders continue from a generator of their own.
    rng = random.Random("order-%d" % args.seed)
    gc.collect()
    gc.freeze()

    tracer = Tracer() if args.trace else None
    plain, traced = measure(frontend, config_cls, instances, rng, args.seconds, speed, tracer)
    if args.trace:
        metrics, notes = per_layer(plain, traced, tracer), []
    else:
        metrics, notes = end_to_end(args.workload, plain, setup_s)
    verdicts = [v for p in plain + traced for v in p]
    failed_verdicts = [v for v in verdicts if v.failure is not None]
    failures = {instances[v.index].id: v.failure for v in failed_verdicts}
    surprises = oracle.unexpected(failures, oracle.load_known())
    attempted, failed = len(verdicts), len(failed_verdicts)
    current = fingerprints(instances, plain[0])
    raw_ok_ms = sorted(v.seconds * 1000.0 for p in plain for v in p if v.failure is None)
    unscaled = {
        "setup_s": statistics.median(s for _, s in setups),
        "verdicts_per_s": throughput(plain, scaled=False),
        "verdict_ms.p50": statistics.median(raw_ok_ms) if raw_ok_ms else 0.0,
    }
    notes.append("speed: probe median %.4f ms over %d samples, scaled to %.4f ms; unscaled %s"
                 % (statistics.median(speed.probe_s) * 1000.0, len(speed.probe_s),
                    REFERENCE_S * 1000.0,
                    ", ".join("%s %.4g" % kv for kv in unscaled.items())))

    notes.append("passes: %d untraced, %d traced, of %d instances; failed_share %.4f (%d of %d)"
                 % (len(plain), len(traced), len(instances), failed / attempted, failed,
                    attempted))
    for i, reason in sorted(failures.items()):
        notes.append("  failed %s: %s%s" % (i, reason, " (UNEXPECTED)" if i in surprises else ""))
    notes.append(compare_fingerprints(args.workload, current))

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "setup_s": [s for _, s in setups], "unscaled": unscaled,
        "probe_s": speed.probe_s, "notes": notes, "failures": failures,
        "fingerprints": current,
        "passes": [[sum(v.seconds for v in p), sum(v.failure is None for v in p), len(p)]
                   for p in plain + traced],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if args.trace:
        detail["instances"] = [inst.id for inst in instances]
        detail["span_fields"] = ["name", "start", "end", "parent", "instance"]
        detail["spans"] = tracer.spans
    out_file = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_file.write_text(json.dumps(detail))

    for line in notes:
        print(line)
    print(json.dumps({
        "correct": not surprises,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
