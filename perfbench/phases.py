"""The three measured phases: simulator cells, a cold Fig 6a sweep, and a
closed-loop client against the sweep server.

Each phase has an untraced form, which gives the end-to-end numbers, and
a traced form, which replays the same work with every layer call wrapped
by :mod:`spans` and returns per-layer numbers.  Outputs are checked after
timing; every check that fails is a failed operation in :class:`Ops`.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro.exec as E
from repro.bebop import BlockDVTAGEConfig, RecoveryPolicy
from repro.branch import TAGEBranchPredictor
from repro.eval import experiments
from repro.eval import runner as R
from repro.pipeline import BASELINE_6_60, PipelineModel, baseline_vp_6_60, eole_4_60
from repro.pipeline.caches import MemoryHierarchy
from repro.pipeline.vp import InstructionVPAdapter
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.workloads import build_workload, generate_trace
from repro.workloads.suite import all_workload_names

from spans import Timed, Tracer, clock

try:  # the batched path may be folded away; its layer then reads absent
    import repro.batch as batch_api
except ImportError:
    batch_api = None

#: Simulator configurations, in the order a round runs them.
CONFIGS = ("baseline", "dvtage", "bebop")


class Ops:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(message)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def attempt(self, label: str, fn, *args):
        """Count one operation; an exception is a failure, returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark must outlive a bad cell
            self.fail(f"{label}: {exc!r}")
            return None


def as_dict(stats) -> dict:
    return dataclasses.asdict(stats)


class frozen_heap:
    """Keep the objects alive now out of the garbage collector for the
    ``with`` body.  A cell run by ``run_job`` in a worker, or a client,
    holds none of the benchmark's traces and results; a full collection
    that scans them would land in whichever cell or request triggers it.
    """

    def __enter__(self):
        gc.freeze()

    def __exit__(self, *exc):
        gc.unfreeze()


# ---------------------------------------------------------------------------
# Simulated counts: exact, and required to repeat run after run.
# ---------------------------------------------------------------------------

def sim_counts(cells: list[tuple[str, object]]) -> dict[str, float]:
    """Summed model statistics of ``(config, stats)`` cells.

    ``config`` is ``"bebop"`` for block-based cells; only those feed the
    ``bebop.*`` counts.
    """
    total = {k: 0 for k in ("branch.mispredicts", "branch.btb_misses",
                            "bebop.vp_predicted", "bebop.vp_used",
                            "bebop.vp_used_correct", "bebop.vp_squashes",
                            "caches.l1d_misses", "caches.l2_misses",
                            "pipeline.cycles")}
    for config, s in cells:
        total["branch.mispredicts"] += s.branch_mispredicts
        total["branch.btb_misses"] += s.btb_misses
        total["caches.l1d_misses"] += s.l1d_misses
        total["caches.l2_misses"] += s.l2_misses
        total["pipeline.cycles"] += s.cycles
        if config == "bebop":
            total["bebop.vp_predicted"] += s.vp_predicted
            total["bebop.vp_used"] += s.vp_used
            total["bebop.vp_used_correct"] += s.vp_used_correct
            total["bebop.vp_squashes"] += s.vp_squashes
    used, predicted = total["bebop.vp_used"], total["bebop.vp_predicted"]
    total["bebop.use_ratio"] = used / predicted if predicted else 0.0
    total["bebop.accuracy"] = (
        total["bebop.vp_used_correct"] / used if used else 0.0)
    return total


# ---------------------------------------------------------------------------
# Simulator cells (sim_core).
# ---------------------------------------------------------------------------

#: Traces per workload name, each from its own seed: a run's simulator
#: metrics then average over several inputs of each kernel (the BeBoP
#: engine's work per µ-op follows the values in the trace) and over more,
#: shorter cells, each timed between its own speed samples.
TRACE_COPIES = 2


def make_traces(names, uops: int, seed: int, tracer: Tracer | None = None):
    """Seeded traces of the suite's kernels: per workload name, a list of
    TRACE_COPIES traces with seeds derived from ``seed``."""
    gen = generate_trace if tracer is None else tracer.wrap(
        "workloads.synth", generate_trace)
    traces = {}
    for name in names:
        kernel = build_workload(name)
        traces[name] = [gen(kernel.program, uops, name=name,
                            seed=seed * TRACE_COPIES + k,
                            init_mem=kernel.init_mem)
                        for k in range(TRACE_COPIES)]
    return traces


def run_cell(config: str, trace, warmup: int):
    """One cell through the public runners, as ``run_job`` would."""
    if config == "baseline":
        return R.run_baseline(trace, warmup)
    if config == "dvtage":
        return R.run_instr_vp(trace, R.make_instr_predictor("d-vtage"), warmup)
    return R.run_bebop_eole(trace, R.make_bebop_engine(), warmup)


def _vp_methods(layer: str) -> dict[str, str]:
    return {
        "fetch_group": f"{layer}.fetch_group",
        "result_uop": f"{layer}.result",
        "commit_uop": f"{layer}.commit",
        "finish_group": f"{layer}.commit",
        "vp_squash": f"{layer}.squash",
        "branch_squash": f"{layer}.squash",
    }


def run_cell_traced(config: str, trace, warmup: int, tracer: Tracer):
    """``run_cell`` with every layer the pipeline calls wrapped in spans.

    The model is built exactly as the public runners build it, except
    that the branch predictor, memory hierarchy and VP adapter handed to
    ``PipelineModel`` are timing proxies, and the BTB and folded-history
    set are swapped for proxies on the built instance.
    """
    if config == "baseline":
        core, vp = BASELINE_6_60, None
    elif config == "dvtage":
        core = baseline_vp_6_60()
        vp = Timed(InstructionVPAdapter(R.make_instr_predictor("d-vtage")),
                   tracer, _vp_methods("predictors"))
    else:
        core = eole_4_60()
        vp = Timed(R.make_bebop_engine(), tracer, _vp_methods("bebop"))
    branch = Timed(TAGEBranchPredictor(), tracer,
                   {"predict": "branch.predict", "train": "branch.train"})
    memory = Timed(MemoryHierarchy(), tracer, {
        "load_latency": "caches", "store_latency": "caches",
        "ifetch_latency": "caches"})
    model = PipelineModel(core, vp, branch, memory)
    swaps = {"btb": {"lookup": "branch.btb", "install": "branch.btb"},
             "hists": {"state": "history", "push_outcome": "history",
                       "push_path": "history"}}
    for attr, methods in swaps.items():
        if hasattr(model, attr):
            setattr(model, attr, Timed(getattr(model, attr), tracer, methods))
        else:
            tracer.absent.update(methods.values())
    return tracer.call("pipeline.run", model.run, trace, warmup_uops=warmup)


class SimTally:
    """Simulator cells run so far: µ-ops walked and host seconds per
    configuration, and the stats of every cell."""

    def __init__(self) -> None:
        self.uops = dict.fromkeys(CONFIGS, 0)
        #: Per configuration: (host seconds, span) of each cell.
        self.timed: dict[str, list] = {c: [] for c in CONFIGS}
        self.cells: dict[tuple[str, str], object] = {}

    def run(self, traces: dict, warmup: int, ops: Ops, meter=None) -> None:
        """Every configuration on every trace, alternating cell by cell,
        with the host's speed sampled around each cell by ``meter``."""
        with frozen_heap():
            for name, trace in _each(traces):
                for config in CONFIGS:
                    cell = (ops.attempt, f"{name}/{config}", run_cell,
                            config, trace, warmup)
                    if meter is not None:
                        stats, secs, span = meter.segment(*cell)
                    else:
                        t0 = clock()
                        stats = cell[0](*cell[1:])
                        secs, span = clock() - t0, None
                    if stats is None:  # a failed cell walks no µ-ops
                        continue
                    self.timed[config].append((secs, span))
                    self.uops[config] += len(trace.uops)
                    self.cells[(name, config)] = stats

    @property
    def secs(self) -> dict[str, float]:
        return {c: sum(s for s, _ in t) for c, t in self.timed.items()}

    def uops_per_s(self, config: str, scale=lambda span: 1.0) -> float:
        """µ-ops per host second, each cell's seconds multiplied by
        ``scale(span)``."""
        secs = sum(s * scale(span) for s, span in self.timed[config])
        return self.uops[config] / secs if secs else 0.0

    def counts(self) -> dict[str, float]:
        return sim_counts([(c, s) for (_, c), s in self.cells.items()])


def _each(traces: dict):
    """(label, trace) of every trace in a ``make_traces`` result."""
    for name, copies in traces.items():
        for k, trace in enumerate(copies):
            yield f"{name}#{k}", trace


def sim_traced(traces: dict, warmup: int, tracer: Tracer, ops: Ops):
    """``SimTally.run`` with every cell traced.

    Returns the stats per cell and, per run id, the cell's wall time
    taken outside the tracer, model construction included.
    """
    out, walls = {}, {}
    with frozen_heap():
        for name, trace in _each(traces):
            for config in CONFIGS:
                run = tracer.new_run()
                t0 = clock()
                stats = ops.attempt(f"traced {name}/{config}",
                                    run_cell_traced, config, trace, warmup,
                                    tracer)
                if stats is not None:
                    walls[run] = clock() - t0
                    out[(name, config)] = stats
    return out, walls


def golden_check(golden_path: Path, ops: Ops) -> int:
    """Recompute the golden cells sim_core shares, at the golden length.

    The cells run as ``JobSpec`` s through a two-process scheduler; each
    is one operation.  Returns how many cells were compared (0 when the
    golden file is gone).
    """
    if not golden_path.is_file():
        return 0
    golden = json.loads(golden_path.read_text())
    uops, warmup = golden["uops"], golden["warmup"]
    builders = {
        "baseline": lambda w: E.baseline_job(w, uops, warmup),
        "dvtage": lambda w: E.instr_vp_job(w, "d-vtage", uops, warmup),
        "eole-bebop": lambda w: E.bebop_job(w, uops=uops, warmup=warmup),
    }
    keys = [key for key in sorted(golden["runs"])
            if key.split("/")[0] in ("gcc", "swim")
            and key.split("/")[1] in builders]
    specs = [builders[key.split("/")[1]](key.split("/")[0]) for key in keys]
    ops.attempted += len(keys)
    try:
        results = E.Scheduler(jobs=2).run(specs)
    except Exception as exc:  # a crashing cell fails the check, not the run
        ops.fail(f"golden cells: {exc!r}", len(keys))
        return len(keys)
    for key, stats in zip(keys, results):
        if as_dict(stats) != golden["runs"][key]:
            ops.fail(f"golden {key}: stats differ")
    return len(keys)


# ---------------------------------------------------------------------------
# Cold Fig 6a sweep (fig6a_sweep).
# ---------------------------------------------------------------------------

class Sweep:
    """One cold sweep: a fresh result cache and a configured scheduler."""

    def __init__(self, work: Path, names, uops: int, warmup: int) -> None:
        self.names, self.uops, self.warmup = tuple(names), uops, warmup
        self.dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=work))
        self.cache = E.ResultCache(root=self.dir)
        params = inspect.signature(E.configure).parameters
        kwargs = {"jobs": 2, "cache": self.cache}
        if "batch" in params:
            kwargs["batch"] = True
        self.backend = None
        if "backend" in params and hasattr(E, "LocalPoolBackend"):
            self.backend = kwargs["backend"] = E.LocalPoolBackend()
        self.kwargs = kwargs
        self.synth_uops = 0
        self.batch_cells = 0
        self.cache_hits = 0

    def run(self, tracer: Tracer | None = None):
        """Regenerate the figure cold; returns (seconds, result)."""
        undo = []
        if tracer is not None:
            self._wrap(tracer, undo)
        scheduler = E.configure(**self.kwargs)
        if tracer is not None:
            scheduler.run = tracer.wrap("exec.scheduler", scheduler.run)
        R.clear_trace_cache()
        spec = R.RunSpec(uops=self.uops, warmup=self.warmup,
                         workloads=self.names)
        hits = self.cache.hits
        try:
            t0 = clock()
            if tracer is None:
                result = experiments.fig6a(spec)
            else:
                tracer.new_run()
                result = tracer.call("sweep.fig6a", self._traced_body,
                                     tracer, spec)
            seconds = clock() - t0
            self.cache_hits = self.cache.hits - hits
        finally:
            E.reset()
            for fn in undo:
                fn()
        return seconds, result

    def measure(self, ops: Ops, tracer: Tracer | None = None):
        """``run``, with a sweep that raises charged as every cell of the
        grid failed; returns (seconds, result), or None when it raised."""
        try:
            return self.run(tracer)
        except Exception as exc:  # the benchmark must outlive a bad sweep
            cells = sum(1 + len(c) for _, c in self.specs().values())
            ops.attempted += cells
            ops.fail(f"fig6a sweep: {exc!r}", cells)
            return None

    def _traced_body(self, tracer: Tracer, spec):
        # Trace synthesis is timed ahead of the sweep, through the same
        # get_trace the sweep's cells call; the sweep then finds them warm.
        get = tracer.wrap("workloads.synth", R.get_trace)
        self.synth_uops = sum(len(get(n, self.uops).uops) for n in self.names)
        return experiments.fig6a(spec)

    def _wrap(self, tracer: Tracer, undo: list) -> None:
        # Instance attributes shadow the class methods until undone.
        self.cache.get = tracer.wrap("exec.cache_get", self.cache.get)
        self.cache.put = tracer.wrap("exec.cache_put", self.cache.put)
        undo.append(lambda: vars(self.cache).pop("get"))
        undo.append(lambda: vars(self.cache).pop("put"))
        if self.backend is not None:
            self.backend.execute = tracer.wrap("exec.pool",
                                               self.backend.execute)
        else:
            tracer.absent.add("exec.pool")
        original = getattr(batch_api, "run_batched_group", None)
        if original is None:
            tracer.absent.add("batch.group")
            return
        timed = tracer.wrap("batch.group", original)

        def counted(specs, *args, **kwargs):
            self.batch_cells += len(specs)
            return timed(specs, *args, **kwargs)

        batch_api.run_batched_group = counted
        undo.append(lambda: setattr(batch_api, "run_batched_group",
                                    original))

    def specs(self) -> dict[str, tuple]:
        """Per workload: (reference spec, [(row label, BeBoP spec)])."""
        out = {}
        for name in self.names:
            ref = E.instr_vp_job(name, "d-vtage", self.uops, self.warmup,
                                 eole=True)
            cells = []
            for npred, base, tagged in experiments.FIG6A_GEOMETRIES:
                config = BlockDVTAGEConfig(npred=npred, base_entries=base,
                                           tagged_entries=tagged)
                cells.append(E.bebop_job(name, config, None,
                                         RecoveryPolicy.DNRDNR, self.uops,
                                         self.warmup))
            out[name] = (ref, cells)
        return out

    def cells(self) -> list[tuple[str, object]]:
        """Every cell of the sweep as stored in its cache: (config, stats)."""
        out = []
        for ref, cells in self.specs().values():
            for config, spec in [("dvtage", ref)] + [("bebop", c)
                                                    for c in cells]:
                stats = self.cache.get(spec)
                if stats is not None:
                    out.append((config, stats))
        return out

    def check(self, result, rng: random.Random, ops: Ops) -> None:
        """Rows against the cached cells; one cell per workload recomputed.

        Every cell of the grid is one operation, failed when it is not
        cached, when its row disagrees with it, or when it is the cell
        picked for recomputation and serial ``run_job`` disagrees.
        """
        rows = list(result.values()) if result is not None else []
        grid = self.specs()
        picks = [rng.choice([ref] + cells) for ref, cells in grid.values()]
        recomputed = {}
        for spec in picks:
            try:
                recomputed[spec] = as_dict(E.run_job(spec))
            except Exception:  # a crashing recomputation fails its cell
                recomputed[spec] = None
        for name, (ref, cells) in grid.items():
            ref_stats = self.cache.get(ref)
            for i, spec in enumerate([ref] + cells):
                ops.attempted += 1
                got = self.cache.get(spec)
                ok = got is not None and ref_stats is not None
                if ok and i:
                    ok = (i <= len(rows)
                          and rows[i - 1][name] == got.ipc / ref_stats.ipc)
                if ok and spec in recomputed:
                    ok = as_dict(got) == recomputed[spec]
                ops.check(ok, f"sweep {spec.label()}: cell, row or "
                              "serial recomputation disagree")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Sweep server under a closed-loop client (serve_mix).
# ---------------------------------------------------------------------------

#: One request in every this many asks for a cold cell.
MISS_EVERY = 20
#: Prefilled cells the hits are drawn from.
HIT_POOL_CELLS = 16


def hit_pool() -> list:
    """Small baseline cells, one per suite workload, prefilled in setup."""
    names = all_workload_names()[:HIT_POOL_CELLS]
    return [E.baseline_job(n, uops=1000, warmup=250) for n in names]


class Traffic:
    """The seeded request stream: which cell, and whether it is cold.

    Cold cells are tiny, distinct baseline cells, so each one is
    scheduled, simulated and written to the cache exactly once.
    """

    def __init__(self, seed, pool: list) -> None:
        self.rng = random.Random(f"serve/{seed}")
        self.pool = pool
        self.names = all_workload_names()
        self.cold = 0
        self.block: list[bool] = []

    def cold_spec(self, k: int):
        n = len(self.names)
        return E.baseline_job(self.names[k % n], uops=300 + k // n,
                              warmup=100)

    def next(self):
        # Each block of MISS_EVERY requests holds exactly one cold cell, at
        # a seeded place: the seed moves the order, never the mix.
        if not self.block:
            self.block = [True] * (MISS_EVERY - 1) + [False]
            self.rng.shuffle(self.block)
        if not self.block.pop():
            self.cold += 1
            return self.cold_spec(self.cold - 1), False
        return self.pool[self.rng.randrange(len(self.pool))], True


class Server:
    """``python -m repro.serve --jobs 1`` on a prefilled temp cache."""

    URL = re.compile(r"listening on (http://[^\s]+)")

    def __init__(self, work: Path, src: Path) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=work))
        self.cache_dir = self.dir / "cache"
        self.log = self.dir / "server.log"
        self.src = src
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def prefill(self, pool: list) -> dict:
        """Compute the hit cells locally and store them; stats by spec."""
        R.clear_trace_cache()
        cache = E.ResultCache(root=self.cache_dir)
        out = {}
        for spec in pool:
            out[spec] = E.run_job(spec)
            cache.put(spec, out[spec])
        R.clear_trace_cache()
        return out

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.src),
                   REPRO_BEBOP_CACHE=str(self.cache_dir))
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--jobs", "1",
                 "--port", "0", "--cache-dir", str(self.cache_dir)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=self.dir, preexec_fn=_server_child)
        t_end = clock() + timeout
        while clock() < t_end:
            match = self.URL.search(self.log.read_text())
            if match:
                self.url = match.group(1)
                with ServeClient(self.url, timeout=30) as client:
                    if client.health().get("ok"):
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"sweep server did not start: "
                           f"{self.log.read_text()[-2000:]}")

    def stop(self) -> None:
        """Interrupt, then kill if needed; always reaps the process."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        shutil.rmtree(self.dir, ignore_errors=True)


def _server_child() -> None:
    """In the child: have Linux SIGTERM it when the benchmark dies, so a
    SIGKILLed benchmark leaves no server behind; and put it on the core
    the client is pinned to while it sends requests (see ``pinned``)."""
    try:
        import ctypes
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGTERM)
    except (OSError, AttributeError):
        pass
    _pin(SERVE_CPU)


def _pin(cpus) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no affinity here: run unpinned
        pass


#: The one core that the server and the client share while requests are
#: timed, and that simulator cells run on.  Apart, each request waits
#: twice for the other's core to wake from idle, a wait set by the host's
#: other tenants rather than by the program: hit latencies then swung 2x
#: within seconds and followed no measure of the host's speed.  On one
#: core a request is the program's work and two context switches, and
#: the speed samples around a cell or a chunk of requests are taken on
#: the core it ran on.
try:
    ALL_CPUS = os.sched_getaffinity(0)
except AttributeError:
    ALL_CPUS = set()
SERVE_CPU = {min(ALL_CPUS)} if ALL_CPUS else set()


class pinned:
    """Pin the calling thread to SERVE_CPU for the ``with`` body."""

    def __enter__(self):
        _pin(SERVE_CPU)

    def __exit__(self, *exc):
        _pin(ALL_CPUS)


def serve_timed(client: ServeClient, traffic: Traffic, ops: Ops,
                seconds: float | None = None, count: int | None = None,
                tracer: Tracer | None = None):
    """Closed loop: the next request leaves when the previous answered.

    Runs for ``seconds`` or for ``count`` requests.  Returns
    (elapsed seconds, hit latencies ms, miss latencies ms, outcomes).
    """
    submit = client.submit_with_source
    if tracer is not None:
        submit = tracer.wrap("serve.request", submit)
    hits, misses, outcomes = [], [], []
    with frozen_heap():
        t_start = clock()
        n = 0
        while (n < count) if count is not None else (
                clock() - t_start < seconds):
            n += 1
            spec, hit = traffic.next()
            if tracer is not None:
                tracer.new_run()
            t0 = clock()
            answer = ops.attempt(f"request {spec.label()}", submit, spec)
            ms = (clock() - t0) * 1000.0
            if answer is None:
                continue
            (hits if hit else misses).append(ms)
            outcomes.append((spec, hit) + tuple(answer))
        elapsed = clock() - t_start
    return elapsed, hits, misses, outcomes


def serve_check(outcomes: list, expected_hits: dict, ops: Ops) -> None:
    """Each payload against a local ``run_job`` of the same spec."""
    cold = list({spec for spec, hit, *_ in outcomes if not hit})
    local = dict(zip(cold, E.Scheduler(jobs=2).run(cold))) if cold else {}
    for spec, hit, stats, source in outcomes:
        want = expected_hits[spec] if hit else local[spec]
        ops.check(as_dict(stats) == as_dict(want)
                  and source == ("cache" if hit else "computed"),
                  f"{spec.label()}: payload from {source!r} differs from "
                  "run_job or came from the wrong place")


def histogram_p50(before: dict, after: dict, name: str) -> float:
    """Median of an obs histogram over a window, from its 2**k buckets.

    Interpolated linearly inside the bucket that holds the median; bucket
    0 spans [min, 1].
    """
    prefix = f"{name}/bucket/le_2^"
    buckets = {}
    for key, value in after.items():
        if key.startswith(prefix):
            buckets[int(key[len(prefix):])] = value - before.get(key, 0)
    total = sum(buckets.values())
    if total <= 0:
        return 0.0
    acc, half = 0, total / 2
    for b in sorted(buckets):
        n = buckets[b]
        if n and acc + n >= half:
            hi = 1.0 if b == 0 else float(2 ** b)
            lo = min(after.get(f"{name}/min", 0.0), hi) if b == 0 else hi / 2
            return lo + (hi - lo) * (half - acc) / n
        acc += n
    return 0.0


def server_window(before: dict, after: dict) -> dict[str, float]:
    """Per-layer serve/exec numbers from two ``/v1/metrics`` documents."""
    sb, sa = before["serve"], after["serve"]
    cb, ca = sb["cache"], sa["cache"]
    mb, ma = before.get("metrics", {}), after.get("metrics", {})
    hits = sa["hits"] - sb["hits"]
    misses = sa["misses"] - sb["misses"]
    return {
        "serve.hits": hits,
        "serve.misses": misses,
        "serve.dedup": sa["dedup"] - sb["dedup"],
        "serve.errors": (sa["errors_4xx"] + sa["errors_5xx"]
                         - sb["errors_4xx"] - sb["errors_5xx"]),
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.request_ms_p50": histogram_p50(mb, ma, "serve/request_ms"),
        "exec.cache_gets": (ca["hits"] + ca["misses"]
                            - cb["hits"] - cb["misses"]),
        "exec.cache_hits": ca["hits"] - cb["hits"],
        "exec.cache_puts": ca["stores"] - cb["stores"],
        "exec.pool_s": (ma.get("exec/job/seconds", 0.0)
                        - mb.get("exec/job/seconds", 0.0)),
    }


def patch_protocol(tracer: Tracer) -> list:
    """Time the client's wire codec (module functions the client calls)."""
    return [tracer.patch(protocol, "encode_submit", "serve.encode"),
            tracer.patch(protocol, "decode_result", "serve.decode")]
