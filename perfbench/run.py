"""The repository benchmark: three workloads, checked outputs, every metric.

    python3 perfbench/run.py --workload sim_core --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` replays the workload's main
phase with every layer call wrapped in a span and prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every untraced run reports every end-to-end metric.  The named workload
decides which phase runs at full size; the other two phases run as short
fixed-size probes.  Times are reported at the reference host speed of
``host.Meter``, sampled all through the run.  See ``perfbench/README.md``
for the workloads, the metrics and which layer metric should move which
end-to-end metric.

Everything the benchmark writes goes under ``perfbench/out/`` (ignored
by git): temp result caches, the server's cache, the Chrome trace of
traced runs, ``runs.jsonl`` and the simulated-count record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sim_core", "fig6a_sweep", "serve_mix")

#: sim_core: kernels, length and warmup of every cell (each kernel has
#: ``phases.TRACE_COPIES`` seeded traces).
SIM = (("gcc", "swim", "mcf"), 15_000, 5_000)
#: The simulator probe run by the other two workloads.
SIM_PROBE = (("gcc", "swim", "mcf"), 4_000, 1_000)
#: fig6a_sweep: the figure's workloads, length and warmup; one sweep per
#: slice.
SWEEP = (("gcc", "swim"), 12_000, 4_000)
#: The sweep probe run by the other two workloads, PROBE_SWEEPS per slice.
#: A sweep's time grows with its length, so several short sweeps cost what
#: one long one does, and their mean spreads less: the host's speed
#: drifts within a sweep, and each sweep has its own samples.
SWEEP_PROBE = (("gcc", "swim"), 3_000, 750)
PROBE_SWEEPS = 2
#: Requests of the serve probe, and of each pass of a traced serve_mix.
SERVE_REQUESTS = 2400
#: A timed burst of requests is cut into chunks of this many requests
#: (probe) or seconds (full size), with a host speed sample after each.
SERVE_CHUNK = 200
SERVE_CHUNK_S = 0.5
#: An untraced run is cut into this many slices, each running a share of
#: every phase (sweeps, one kernel's simulator cells, a serve burst), so
#: every metric samples the host across the whole run rather than in one
#: stretch of it: the host's speed swings by up to 2x within seconds.
SLICES = len(SIM[0])
#: Per-layer metrics whose name is not "<span name>_s" / "<span name>_calls".
SPAN_METRICS = {
    "history_s": "history.s", "history_calls": "history.calls",
    "caches_s": "caches.s", "caches_calls": "caches.calls",
    "pipeline.run_s": "pipeline.self_s",
    "batch.group_calls": "batch.groups",
    "exec.cache_get_calls": "exec.cache_gets",
    "exec.cache_put_calls": "exec.cache_puts",
    "exec.scheduler_s": "exec.scheduler_self_s",
}
#: Share of a traced cell's wall time, taken outside the tracer, that its
#: layer self times may miss: model construction and the wrapper calls
#: around the root span, a few milliseconds per cell (0.2-0.5% of a
#: 15K-µop cell); a 50 ms gap in an 8K-µop cell already misses 8% or more.
BALANCE_SHARE = 0.01
#: Untimed requests before any timed serve pass, and before each burst.
SERVE_WARMUP = 50
SERVE_BURST_WARMUP = 20
#: The full-size phase's set-up, and the import of the program (in a
#: fresh interpreter), are repeated this often; their medians are
#: reported.  Probes are set up once and not counted.
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def code_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources: counts are
    compared per version of both, as the benchmark sets the cell sizes."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: dict, ops) -> None:
    """Simulated counts must repeat exactly, run after run, for one seed
    and one version of the code."""
    record = OUT / "counts.json"
    key = f"{workload}|{seed}|{code_fingerprint()}"
    known = json.loads(record.read_text()) if record.is_file() else {}
    if key in known:
        ops.check(known[key] == counts,
                  f"simulated counts differ from an earlier run: {key}")
        return
    known[key] = counts
    tmp = record.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, record)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak of any child waited on."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def import_seconds(meter) -> list:
    """Import time of the program and every layer the phases drive, in
    fresh interpreters: (seconds, span) of each, spans for ``meter``."""
    code = ("import time; t0 = time.perf_counter(); import phases; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    timed = []
    for _ in range(SETUP_REPEATS):
        done, _, span = meter.beside(
            subprocess.run, [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120)
        timed.append((float(done.stdout.split()[-1]), span))
    return timed


def timed_repeats(step, meter, repeats: int = SETUP_REPEATS):
    """Run a set-up ``step`` several times: ([(seconds, span)], results)."""
    timed, results = [], []
    for _ in range(repeats):
        out, seconds, span = meter.segment(step)
        results.append(out)
        timed.append((seconds, span))
    return timed, results


class Bench:
    """One benchmark run: set-up, phases, checks and the result line."""

    def __init__(self, args, work: Path) -> None:
        import phases as P

        self.P = P
        self.meter = host.Meter()
        self.args = args
        self.work = work
        self.ops = P.Ops()
        self.rng = random.Random(f"checks/{args.seed}")
        self.metrics: dict[str, float] = {}
        self.server = None
        self.phases: list[str] = []
        self._mark = time.perf_counter()

    def mark(self, phase: str) -> None:
        """Note the wall time spent since the previous mark."""
        now = time.perf_counter()
        self.phases.append(f"{phase} {now - self._mark:.1f}s")
        self._mark = now

    # -- set-up ------------------------------------------------------------

    # Each returns [(seconds, span)] of its repetitions.

    def setup_sim(self, spec, repeats: int, tracer=None):
        names, uops, _ = spec
        timed, traces = timed_repeats(
            lambda: self.P.make_traces(names, uops, self.args.seed, tracer),
            self.meter, repeats)
        self.traces = traces[-1]
        return timed

    def setup_sweep(self, spec, repeats: int):
        timed, sweeps = timed_repeats(
            lambda: self.P.Sweep(self.work, *spec), self.meter, repeats)
        for sweep in sweeps[:-1]:
            sweep.close()
        self.sweep = sweeps[-1]
        return timed

    def setup_serve(self, repeats: int):
        P = self.P
        pool = P.hit_pool()

        def start():
            if self.server is not None:
                self.server.stop()
            self.server = P.Server(self.work, SRC)
            self.expected = self.server.prefill(pool)
            self.server.start()

        timed, _ = timed_repeats(start, self.meter, repeats)
        self.traffic = P.Traffic(self.args.seed, pool)
        self.client = P.ServeClient(self.server.url, timeout=120)
        # Untimed warm-up: connection, server code paths, first miss.
        _, _, _, outcomes = P.serve_timed(self.client, self.traffic,
                                          self.ops, count=SERVE_WARMUP)
        self.warm_outcomes = outcomes
        return timed

    def close(self) -> None:
        if getattr(self, "client", None) is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- untraced: every end-to-end metric --------------------------------

    def untraced(self) -> None:
        P, args, ops, meter = self.P, self.args, self.ops, self.meter
        primary = args.workload
        sim_spec = SIM if primary == "sim_core" else SIM_PROBE
        sweep_spec = SWEEP if primary == "fig6a_sweep" else SWEEP_PROBE

        reps = {w: SETUP_REPEATS if w == primary else 1 for w in WORKLOADS}
        setup = {"sim_core": self.setup_sim(sim_spec, reps["sim_core"]),
                 "fig6a_sweep": self.setup_sweep(sweep_spec,
                                                 reps["fig6a_sweep"]),
                 "serve_mix": self.setup_serve(reps["serve_mix"])}
        imports = import_seconds(meter)
        self.mark("setup")

        per_slice = 1 if primary == "fig6a_sweep" else PROBE_SWEEPS
        # (seconds, span) of each sweep; (elapsed, hits, misses, span) of
        # each chunk of requests.
        tally, sweeps, chunks = P.SimTally(), [], []
        outcomes = list(self.warm_outcomes)
        # Within a slice the sweep runs first, so its worker pool has been
        # gone for a whole simulator trace before requests are timed.
        for name in sim_spec[0]:
            for _ in range(per_slice):
                sweep = self.sweep or P.Sweep(self.work, *sweep_spec)
                self.sweep = None
                measured, _, span = meter.beside(sweep.measure, ops)
                if measured is not None:
                    sweeps.append((measured[0], span))
                    sweep.check(measured[1], self.rng, ops)
                if primary == "fig6a_sweep":
                    self.counts = P.sim_counts(sweep.cells())
                sweep.close()
                self.mark("sweep+check")
            with P.pinned():
                tally.run({name: self.traces[name]}, sim_spec[2], ops, meter)
            self.mark(f"sim:{name}")
            if primary == "serve_mix":
                n = max(1, round(args.seconds / SLICES / SERVE_CHUNK_S))
                burst = {"seconds": args.seconds / SLICES / n}
            else:
                n = SERVE_REQUESTS // SLICES // SERVE_CHUNK
                burst = {"count": SERVE_CHUNK}
            with P.pinned():
                # Untimed: the other phases have evicted the server's
                # state from the host's caches, so the first requests run
                # cold.
                *_, out = P.serve_timed(self.client, self.traffic, ops,
                                        count=SERVE_BURST_WARMUP)
                outcomes += out
                for _ in range(n):
                    (elapsed, h, mi, out), _, span = meter.segment(
                        P.serve_timed, self.client, self.traffic, ops,
                        **burst)
                    chunks.append((elapsed, h, mi, span))
                    outcomes += out
            self.mark("serve")
        self.traces = None

        # Reported: times at the reference speed.  Printed beside them:
        # the raw host times.  A phase whose every operation failed reads
        # 0, and the run is then reported as not correct.
        def metrics(scale) -> dict:
            out = {"setup_s": (
                statistics.median(s * scale(span) for s, span in imports)
                + statistics.median(s * scale(span)
                                    for s, span in setup[primary]))}
            for config in P.CONFIGS:
                out[f"{config}_uops_per_s"] = tally.uops_per_s(config, scale)
            # The mean: a run has few sweeps, and the mean of a few
            # spreads less than their median.
            out["sweep_s"] = statistics.mean(
                [s * scale(span) for s, span in sweeps] or [0.0])
            # The chunks' median: one stall of the host, or of the client's
            # collector, in one chunk moves its rate, not the median.
            out["requests_per_s"] = statistics.median(
                (len(h) + len(mi)) / (e * scale(span))
                for e, h, mi, span in chunks)
            for key, i in (("hit_p50_ms", 1), ("miss_p50_ms", 2)):
                out[key] = statistics.median(
                    [ms * scale(c[3]) for c in chunks for ms in c[i]]
                    or [0.0])
            return out

        raw = metrics(lambda span: 1.0)
        self.metrics.update(metrics(meter.factor))
        m = self.metrics
        if primary == "sim_core":
            self.counts = tally.counts()
        elif primary == "serve_mix":
            self.counts = P.sim_counts(
                [("baseline", s) for s in self.expected.values()])
        hits = sum(len(c[1]) for c in chunks)
        requests = sum(len(c[1]) + len(c[2]) for c in chunks)
        print(f"perfbench serve: {hits} hits, {requests - hits} misses in "
              f"{sum(c[0] for c in chunks):.2f}s")
        print(f"perfbench speed: median sample {meter.median_ms():.2f} ms "
              f"of {len(meter.samples)} (reference {host.REF_SAMPLE_MS} ms)")
        print("perfbench raw host times: " + json.dumps(raw))

        self.close()
        P.serve_check(outcomes, self.expected, ops)
        self.mark("serve check")
        if primary == "sim_core":
            self.golden()
            self.mark("golden")
        m["peak_rss_mb"] = peak_rss_mb()
        print("perfbench phases: " + ", ".join(self.phases))

    def golden(self) -> None:
        n = self.P.golden_check(ROOT / "tests" / "data" / "golden_stats.json",
                                self.ops)
        print(f"perfbench golden: {n} cells compared" if n else
              "perfbench golden: tests/data/golden_stats.json absent, "
              "not compared")

    # -- traced: every per-layer metric ------------------------------------

    def traced(self) -> None:
        from spans import Tracer

        tracer = self.tracer = Tracer()
        getattr(self, f"traced_{self.args.workload}")(tracer)
        for name, (secs, calls) in tracer.self_times().items():
            for key, value in ((f"{name}_s", secs), (f"{name}_calls", calls)):
                self.metrics[SPAN_METRICS.get(key, key)] = value

    def _overhead(self, untraced_s: float, traced_s: float) -> None:
        """Traced over untraced wall time of the same work, both taken
        outside the tracer."""
        if untraced_s > 0:
            self.metrics["trace.overhead_ratio"] = traced_s / untraced_s

    def traced_sim_core(self, tracer) -> None:
        P, ops = self.P, self.ops
        warmup = SIM[2]
        self.setup_sim(SIM, 1, tracer)
        self.metrics["workloads.synth_uops"] = sum(
            len(t.uops) for copies in self.traces.values() for t in copies)
        tally = P.SimTally()
        tally.run(self.traces, warmup, ops)
        untraced = tally.cells
        traced, walls = P.sim_traced(self.traces, warmup, tracer, ops)
        self._overhead(sum(tally.secs.values()), sum(walls.values()))
        for key, stats in traced.items():
            ops.check(key in untraced and P.as_dict(stats)
                      == P.as_dict(untraced[key]),
                      f"traced {key}: differs from its untraced twin")
        # Each cell's layer self times must add up to the cell's wall time
        # taken outside the tracer: a gap is work no span covers.
        selfs = tracer.run_self_times()
        for run, wall in walls.items():
            covered = selfs.get(run, 0.0)
            ops.check(abs(wall - covered) <= BALANCE_SHARE * wall,
                      f"traced cell {run}: layer self times {covered:.4f}s "
                      f"vs cell wall time {wall:.4f}s")
        self.counts = tally.counts()
        self.golden()

    def traced_fig6a_sweep(self, tracer) -> None:
        P, ops = self.P, self.ops
        untraced = P.Sweep(self.work, *SWEEP)
        first = untraced.measure(ops)
        if first is not None:
            untraced.check(first[1], self.rng, ops)
        traced = P.Sweep(self.work, *SWEEP)
        second = traced.measure(ops, tracer)
        if first is not None and second is not None:
            self._overhead(first[0], second[0])
            ops.check(dict(second[1].items()) == dict(first[1].items()),
                      "traced sweep rows differ from the untraced sweep")
            twins = zip(untraced.cells(), traced.cells())
            for (_, a), (_, b) in twins:
                ops.check(P.as_dict(a) == P.as_dict(b),
                          f"traced sweep cell {a.workload}/{a.config} "
                          "differs")
        self.counts = P.sim_counts(untraced.cells())
        self.metrics["workloads.synth_uops"] = traced.synth_uops
        self.metrics["batch.cells"] = traced.batch_cells
        self.metrics["exec.cache_hits"] = traced.cache_hits
        untraced.close()
        traced.close()

    def traced_serve_mix(self, tracer) -> None:
        P, ops = self.P, self.ops
        self.setup_serve(repeats=1)
        with P.pinned():
            _, hits, misses, first = P.serve_timed(
                self.client, self.traffic, ops, count=SERVE_REQUESTS)
        untraced_ms = sum(hits) + sum(misses)
        before = self.client.metrics()
        retries = self.client.retried
        undo = P.patch_protocol(tracer)
        try:
            with P.pinned():
                _, hits, misses, second = P.serve_timed(
                    self.client, self.traffic, ops, count=SERVE_REQUESTS,
                    tracer=tracer)
        finally:
            for fn in undo:
                fn()
        after = self.client.metrics()
        self._overhead(untraced_ms, sum(hits) + sum(misses))
        window = P.server_window(before, after)
        self.metrics.update(window)
        self.metrics["serve.client_retries"] = self.client.retried - retries
        self.metrics["serve.wire_ms_p50"] = (
            statistics.median(hits) - window["serve.request_ms_p50"])
        self.counts = P.sim_counts(
            [("baseline", s) for s in self.expected.values()])
        self.close()
        P.serve_check(self.warm_outcomes + first + second, self.expected, ops)

    # -- result ------------------------------------------------------------

    def result(self, declared: dict) -> dict:
        """The result line: every declared metric, with its unit."""
        check_counts(self.args.workload, self.args.seed, self.counts, self.ops)
        if self.args.trace:
            self.metrics.update(self.counts)
        values = {}
        for entry in declared:
            value = self.metrics.get(entry["name"], 0)
            values[entry["name"]] = {"value": value, "unit": entry["unit"]}
        ops = self.ops
        return {"correct": ops.failed == 0 and ops.attempted > 0,
                "attempted": ops.attempted, "failed": ops.failed,
                "metrics": values}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))

    import repro
    import phases  # noqa: F401  (imports every layer the phases drive)
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    for stale in (OUT / "work").glob("run-*"):
        if not _alive(int(stale.name[4:])):   # left by a killed run
            shutil.rmtree(stale, ignore_errors=True)
    # Nothing may land in the user's cache: point every default here.
    work = OUT / "work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_BEBOP_CACHE"] = str(work / "default-cache")
    os.environ.pop("REPRO_CACHE_DIR", None)

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host.host_metadata(), "calib_ms": host.calibrate(),
            "code": code_fingerprint()}
    print("perfbench host: " + json.dumps(meta))

    bench = Bench(args, work)
    try:
        if args.trace:
            bench.traced()
            bench.metrics["host.calib_ms"] = meta["calib_ms"]
        else:
            bench.untraced()
        result = bench.result(declared)
        if args.trace:
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            written, recorded = bench.tracer.write_chrome(path, meta)
            print(f"perfbench trace: {written} of {recorded} spans written "
                  f"to {path.relative_to(ROOT)}")
            absent = sorted(bench.tracer.absent)
            if absent:
                print("perfbench absent layers: " + ", ".join(absent))
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    for note in bench.ops.notes:
        print(f"perfbench failed: {note}")
    with open(OUT / "runs.jsonl", "a") as log:
        log.write(json.dumps(dict(meta, result=result)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
