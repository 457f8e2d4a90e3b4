"""Outside-in span tracer for seqmod.

The tracer wraps module attributes and methods of seqmod from outside:
nothing under `src/` knows it exists.  `frontend.run` reaches
`kernel.prove`, `kernel.check_proof`, `kernel.reconstruct_ground`,
`frontend.make_theory` and `frontend.tree_to_json` through module
globals, and `lra` reaches `eliminate_var_system` the same way, so
replacing those attributes puts a span around every call.  The theory
instance that `make_theory` returns gets its operations wrapped, and so
does the `pull` of every stream its `consistency` returns.

A call made while a span of the same name is open (the recursion of
`tree_to_json`, for example) runs unwrapped inside the outer span, so
each layer is counted once.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Theory operations that get a span; `pull` is wrapped on each stream.
THEORY_OPS = ("consistency", "meet", "project", "lift", "satisfiable",
              "compatible", "witness", "ground_valid")
ALL_OPS = THEORY_OPS + ("pull",)


class Tracer:
    """Records spans and per-name totals while installed.

    Per name it keeps the call count, the inclusive time, the self time
    (inclusive time minus the time of its child spans) and the number of
    calls that returned something other than None.  `root_s` sums the
    spans that had no parent, which equals the sum of all self times.
    Spans (name, start, end, parent index, instance) are kept in memory
    while `keep_spans` is set.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.non_none: dict[str, int] = {}
        self.root_s = 0.0
        self.spans: list = []
        self.keep_spans = False
        self.instance = -1
        self._stack: list[list] = []  # open spans: [child seconds, span index]
        self._open: set[str] = set()

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        opened = self._open

        def traced(*args, **kwargs):
            if name in opened:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            index = -1
            if self.keep_spans:
                index = len(self.spans)
                self.spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            opened.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened.discard(name)
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[0]
                if index >= 0:
                    self.spans[index] = (name, start, end, parent, self.instance)
            if result is not None:
                self.non_none[name] = self.non_none.get(name, 0) + 1
            return result

        return traced

    def instrument_theory(self, theory):
        """Wrap the operations of one theory instance, and each stream's pull."""
        backend = theory.name
        for op in THEORY_OPS:
            setattr(theory, op, self.wrap("%s.%s" % (backend, op), getattr(theory, op)))
        consistency = theory.consistency
        pull_name = "%s.pull" % backend

        def consistency_with_pull(lits, domain):
            stream = consistency(lits, domain)
            stream.pull = self.wrap(pull_name, stream.pull)
            return stream

        theory.consistency = consistency_with_pull
        return theory

    @contextmanager
    def installed(self, frontend, kernel, lra):
        """Patch seqmod's entry points for the duration of the block."""
        report = frontend.RunReport
        make_theory = frontend.make_theory
        patches = [
            (frontend, "parse_problem", "frontend.parse"),
            (frontend, "run", "frontend.run"),
            (frontend, "tree_to_json", "frontend.render"),
            (report, "to_json", "frontend.render"),
            (report, "to_text", "frontend.render"),
            (kernel, "prove", "kernel.prove"),
            (kernel, "check_proof", "kernel.check"),
            (kernel, "reconstruct_ground", "kernel.reconstruct"),
            (lra, "eliminate_var_system", "lra.fm"),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        saved.append((frontend, "make_theory", make_theory))
        try:
            for owner, attr, name in patches:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            frontend.make_theory = lambda *a, **k: self.instrument_theory(make_theory(*a, **k))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
