"""Outside-in layer timing: spans recorded around calls into the program.

Nothing here reaches inside ``repro``.  A :class:`Tracer` wraps bound
methods or module functions of the program's public objects, so every
call through the wrapper opens a span (name, start, end, parent span,
run id).  Spans are kept in flat arrays in memory and written out once,
at the end, as Chrome ``trace_event`` JSON.  Self time is derived from
the spans alone: a span's duration minus the durations of its children.

The tracer is single-threaded by design: the benchmark only traces calls
made on its own thread.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

clock = time.perf_counter

#: Children of one run written to the Chrome trace.  A traced simulator
#: cell opens a few hundred thousand leaf spans; all of them feed the self
#: times, but the file keeps only the first ones of each run so it stays
#: small enough for a trace viewer.
CHROME_CHILDREN_PER_RUN = 2000


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("I")
        self._stack = [-1]
        self.run_id = 0
        #: Span names whose wrapped callable did not exist on the target.
        self.absent: set[str] = set()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_run(self) -> int:
        """Start a new run id: spans of one cell/sweep/request share it."""
        self.run_id += 1
        return self.run_id

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._id(name)
        names, starts, ends = self.name_id, self.start, self.end
        parents, runs, stack = self.parent, self.run, self._stack
        tracer = self

        def timed(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return timed

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` once inside a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, module, attr: str, name: str):
        """Wrap ``module.attr`` in place; returns an undo callable.

        A missing attribute is recorded in :attr:`absent` and left alone.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.add(name)
            return lambda: None
        setattr(module, attr, self.wrap(name, original))
        return lambda: setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.start)
        start, end = self.start, self.end
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        return child

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``{span name: (summed self seconds, call count)}``."""
        child = self._child_time()
        total = [0.0] * len(self.names)
        count = [0] * len(self.names)
        start, end = self.start, self.end
        for i, nid in enumerate(self.name_id):
            total[nid] += end[i] - start[i] - child[i]
            count[nid] += 1
        return {n: (total[k], count[k]) for k, n in enumerate(self.names)}

    def run_self_times(self) -> dict[int, float]:
        """Per run id: the summed self time of every span of the run."""
        child = self._child_time()
        out: dict[int, float] = {}
        start, end = self.start, self.end
        for i, run in enumerate(self.run):
            out[run] = out.get(run, 0.0) + end[i] - start[i] - child[i]
        return out

    def write_chrome(self, path: Path, metadata: dict) -> tuple[int, int]:
        """Write the spans as Chrome ``trace_event`` JSON.

        Every root span is written, plus the first
        :data:`CHROME_CHILDREN_PER_RUN` child spans of each run.  Returns
        (spans written, spans recorded).
        """
        t0 = self.start[0] if len(self.start) else 0.0
        per_run: dict[int, int] = {}
        events = []
        for i in range(len(self.start)):
            run = self.run[i]
            if self.parent[i] >= 0:
                seen = per_run.get(run, 0)
                if seen >= CHROME_CHILDREN_PER_RUN:
                    continue
                per_run[run] = seen + 1
            events.append({
                "name": self.names[self.name_id[i]],
                "ph": "X",
                "ts": round((self.start[i] - t0) * 1e6, 3),
                "dur": round((self.end[i] - self.start[i]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": self.parent[i], "run": run},
            })
        meta = dict(metadata, spans_recorded=len(self.start),
                    spans_written=len(events))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": meta}))
        return len(events), len(self.start)


class Timed:
    """Forwarding proxy whose named methods are timed by a tracer.

    ``methods`` maps a method name of ``target`` to the span name its
    calls are recorded under; every other attribute is read through to
    ``target`` unchanged.  A method the target lacks is reported absent.
    """

    def __init__(self, target, tracer: Tracer, methods: dict[str, str]):
        self._target = target
        for method, span in methods.items():
            fn = getattr(target, method, None)
            if fn is None:
                tracer.absent.add(span)
                continue
            setattr(self, method, tracer.wrap(span, fn))

    def __getattr__(self, name):
        if name == "_target":
            raise AttributeError(name)
        return getattr(self._target, name)
