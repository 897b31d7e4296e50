"""The lease-based coordinator: work queue, expiry reaper, HTTP service.

:class:`LeaseQueue` is the whole distributed-correctness story in one
pure, single-threaded state machine: jobs move ``queued → leased → done``
(or ``failed`` once the retry budget is spent), a lease is held only as
long as its heartbeats keep arriving, and every transition is counted.
Time is an injectable ``clock`` callable, so lease expiry, backoff gating
and worker liveness are unit-testable by advancing a fake clock instead of
sleeping.

:class:`DistCoordinator` wraps the queue in the same hand-rolled
asyncio HTTP/1.1 shell :mod:`repro.serve.server` uses (stdlib only).  All
queue state is touched exclusively from the event loop — workers and the
driver interact over the ``/v1/dist/*`` routes, never by sharing memory —
which is what makes the coordinator equally correct embedded in the
driver process (:class:`CoordinatorThread`) or standing alone on another
host (``python -m repro.dist coordinator``).

Chaos verdicts are drawn **here**, at lease-grant time, from the
coordinator's own :class:`repro.chaos.FaultPlan`: the fault a job absorbs
is a pure function of ``(seed, digest, per-job ordinal)`` no matter which
worker steals the job or how often it is re-leased, and the plan's
``exec/fault/*`` accounting (including recoveries via ``note_outcome``)
lives in one place.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Callable, Sequence

import repro.obs as obs
from repro.common.rng import deterministic_backoff
from repro.exec.jobs import JobSpec
from repro.serve import protocol

#: HTTP reason phrases for the statuses the coordinator emits.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
}

#: Job states.
QUEUED, LEASED, DONE, FAILED = "queued", "leased", "done", "failed"


class _Job:
    """One cell's place in the queue (internal to :class:`LeaseQueue`)."""

    __slots__ = ("spec", "digest", "attempts", "not_before", "state",
                 "worker", "last_worker", "lease_expires", "error")

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.digest = spec.digest()
        self.attempts = 0          # leases charged against the retry budget
        self.not_before = 0.0      # backoff gate for the next lease
        self.state = QUEUED
        self.worker: str | None = None
        self.last_worker: str | None = None
        self.lease_expires = 0.0
        self.error: str | None = None


class LeaseQueue:
    """Pull-model work queue with heartbeat leases and bounded retry.

    Semantics:

    * :meth:`lease` hands out the oldest queued job whose backoff gate has
      passed; the job is **stolen**, not assigned — any worker may take it,
      and a job re-leased to a different worker than last time counts as a
      steal.
    * :meth:`heartbeat` extends a held lease by ``lease_seconds``; a lease
      whose holder stops heartbeating is expired by :meth:`reap`, charged
      one attempt, and re-queued behind
      :func:`~repro.common.rng.deterministic_backoff` — until the job has
      burned ``retries`` re-queues, after which it is terminally failed.
    * :meth:`complete` is **idempotent**: results are pure functions of
      their spec, so the first completion wins and any later one (a worker
      whose lease had already been stolen) is accepted as a no-op and
      counted ``stale_completions``.

    Every transition is mirrored into plain-int :attr:`counters` (always
    on) and ``dist/*`` obs counters (when the obs layer is enabled),
    including per-worker ``jobs`` / ``steals`` / ``lease_expired``.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        lease_seconds: float = 30.0,
        retries: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        worker_ttl: float | None = None,
        chaos=None,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.clock = clock
        self.lease_seconds = lease_seconds
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.worker_ttl = (worker_ttl if worker_ttl is not None
                           else 2.0 * lease_seconds)
        self.chaos = chaos
        self._jobs: dict[str, _Job] = {}
        self._order: list[str] = []            # submission order
        self._workers: dict[str, float] = {}   # worker id -> last seen
        self._fresh_results: list[dict] = []   # result docs not yet collected
        self._fresh_failures: list[dict] = []
        self.counters: dict[str, int] = {}
        self.worker_counters: dict[str, dict[str, int]] = {}

    # -- accounting --------------------------------------------------------

    def _count(self, name: str, worker: str | None = None) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        obs.counter(f"dist/{name}").inc()
        if worker is not None:
            per = self.worker_counters.setdefault(worker, {})
            per[name] = per.get(name, 0) + 1
            obs.counter(f"dist/worker/{worker}/{name}").inc()

    def touch_worker(self, worker: str) -> None:
        self._workers[worker] = self.clock()

    def live_workers(self) -> int:
        now = self.clock()
        return sum(1 for seen in self._workers.values()
                   if now - seen <= self.worker_ttl)

    # -- driver side -------------------------------------------------------

    def submit(self, specs: Sequence[JobSpec]) -> int:
        """Enqueue cells; digests already known are skipped.  Returns the
        number actually accepted."""
        accepted = 0
        for spec in specs:
            digest = spec.digest()
            if digest in self._jobs:
                continue
            self._jobs[digest] = _Job(spec)
            self._order.append(digest)
            accepted += 1
            self._count("jobs")
        return accepted

    def collect(self) -> tuple[list[dict], list[dict], int, int]:
        """Drain fresh outcomes: ``(result docs, failure docs, outstanding,
        live workers)``.  Each outcome is delivered exactly once."""
        results, self._fresh_results = self._fresh_results, []
        failures, self._fresh_failures = self._fresh_failures, []
        outstanding = sum(1 for job in self._jobs.values()
                          if job.state in (QUEUED, LEASED))
        return results, failures, outstanding, self.live_workers()

    def cancel(self) -> list[str]:
        """Terminally drop every unfinished job (driver gave up on the
        distributed path).  Returns the cancelled digests; cancelled jobs
        are *not* reported through :meth:`collect` — the canceller already
        knows."""
        cancelled = []
        for job in self._jobs.values():
            if job.state in (QUEUED, LEASED):
                job.state = FAILED
                job.error = "cancelled"
                cancelled.append(job.digest)
                self._count("cancelled")
        return cancelled

    # -- worker side -------------------------------------------------------

    def lease(self, worker: str) -> dict | None:
        """Grant the oldest ready job to ``worker``; ``None`` when idle.

        The chaos verdicts (job fault + cache-corruption mode) are drawn
        here and shipped inside the grant, so injection is independent of
        which worker asks.
        """
        self.touch_worker(worker)
        now = self.clock()
        for digest in self._order:
            job = self._jobs[digest]
            if job.state != QUEUED or job.not_before > now:
                continue
            job.state = LEASED
            job.worker = worker
            job.lease_expires = now + self.lease_seconds
            if job.last_worker is not None and job.last_worker != worker:
                self._count("steals", worker)
            self._count("leases", worker)
            fault = corrupt = None
            if self.chaos is not None:
                fault = self.chaos.job_fault(digest)
                corrupt = self.chaos.corrupt_verdict(digest)
            return protocol.encode_lease_grant(
                job.spec, job.attempts, self.lease_seconds,
                fault=fault, corrupt=corrupt,
            )
        return None

    def heartbeat(self, worker: str, digest: str) -> bool:
        """Extend a held lease; ``False`` when the lease is no longer
        this worker's (expired and stolen, or the job finished)."""
        self.touch_worker(worker)
        job = self._jobs.get(digest)
        if job is None or job.state != LEASED or job.worker != worker:
            return False
        job.lease_expires = self.clock() + self.lease_seconds
        return True

    def complete(self, worker: str, digest: str, result_doc: dict) -> str:
        """Record a verified completion; returns ``"ok"`` or ``"stale"``."""
        self.touch_worker(worker)
        job = self._jobs.get(digest)
        if job is None or job.state in (DONE, FAILED):
            self._count("stale_completions", worker)
            return "stale"
        # Accept even when the lease moved on: the result is deterministic,
        # and first-completion-wins is exactly the idempotence we want.
        job.state = DONE
        job.worker = None
        self._fresh_results.append(result_doc)
        self._count("completions", worker)
        if self.chaos is not None:
            self.chaos.note_outcome(digest)
        return "ok"

    def fail(self, worker: str, digest: str, error: str) -> None:
        """A worker reports a job raised; charge the attempt and re-queue."""
        self.touch_worker(worker)
        job = self._jobs.get(digest)
        if job is None or job.state in (DONE, FAILED):
            self._count("stale_completions", worker)
            return
        self._requeue(job, error)

    # -- expiry ------------------------------------------------------------

    def reap(self) -> int:
        """Expire leases whose heartbeats stopped; returns how many."""
        now = self.clock()
        expired = 0
        for job in self._jobs.values():
            if job.state == LEASED and job.lease_expires < now:
                self._count("lease_expired", job.worker)
                self._requeue(job, f"lease expired on {job.worker}")
                expired += 1
        for worker, seen in list(self._workers.items()):
            if now - seen > self.worker_ttl:
                del self._workers[worker]
        return expired

    def _requeue(self, job: _Job, error: str) -> None:
        job.attempts += 1
        job.last_worker, job.worker = job.worker, None
        if job.attempts > self.retries:
            job.state = FAILED
            job.error = error
            self._fresh_failures.append(
                {"digest": job.digest, "error": error}
            )
            self._count("failures")
            return
        job.state = QUEUED
        job.not_before = self.clock() + deterministic_backoff(
            job.digest, job.attempts, self.backoff_base, self.backoff_cap
        )
        self._count("requeues")

    # -- reporting ---------------------------------------------------------

    def leased(self) -> list[dict]:
        """The currently held leases (for status and leak checks)."""
        now = self.clock()
        return [
            {"digest": job.digest, "worker": job.worker,
             "expires_in": round(job.lease_expires - now, 3),
             "attempts": job.attempts}
            for job in self._jobs.values() if job.state == LEASED
        ]

    def status(self) -> dict:
        states: dict[str, int] = {QUEUED: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for job in self._jobs.values():
            states[job.state] += 1
        return {
            "v": protocol.PROTOCOL_VERSION,
            "jobs": states,
            "leases": self.leased(),
            "live_workers": self.live_workers(),
            "counters": dict(self.counters),
            "workers": {w: dict(c) for w, c in self.worker_counters.items()},
        }


class DistCoordinator:
    """The :class:`LeaseQueue` as an asyncio HTTP service.

    All queue mutation happens on the event loop; the only concurrency in
    the process is asyncio's own.  A background reaper expires leases
    every quarter lease period even when no request traffic arrives.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = 30.0,
        retries: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        worker_ttl: float | None = None,
        chaos=None,
    ) -> None:
        self.queue = LeaseQueue(
            lease_seconds=lease_seconds, retries=retries,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
            worker_ttl=worker_ttl, chaos=chaos,
        )
        self.host = host
        self.port = port
        self.draining = False
        self._server: asyncio.base_events.Server | None = None
        self._reaper: asyncio.Task | None = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, backlog=1024
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = asyncio.get_running_loop().create_task(
            self._reap_forever()
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        self._closing = True
        self.draining = True
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Close idle keep-alive connections at the transport so their
        # handlers see EOF and exit the read loop instead of being
        # cancelled by the closing event loop.
        for writer in list(self._connections.values()):
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)

    async def _reap_forever(self) -> None:
        period = max(0.05, self.queue.lease_seconds / 4.0)
        while True:
            await asyncio.sleep(period)
            self.queue.reap()

    # -- HTTP plumbing (same shape as repro.serve.server) ------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader)
                except protocol.ProtocolError as exc:
                    # A malformed head leaves the stream unframed:
                    # answer, then close.
                    await self._send_json(writer, exc.status,
                                          protocol.encode_error(exc.status,
                                                                str(exc)))
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep = headers.get("connection", "").lower() != "close"
                await self._dispatch(method, path, body, writer)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        finally:
            self._connections.pop(task, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await protocol.read_head_line(reader)
        if not line:
            return None
        method, path = protocol.parse_request_line(line)
        headers: dict[str, str] = {}
        while True:
            raw = await protocol.read_head_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            if len(headers) < 100:
                headers[key.strip().lower()] = value.strip()
        length = protocol.parse_content_length(headers)
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _dispatch(self, method: str, path: str, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        path, _, _query = path.partition("?")
        queue = self.queue
        try:
            queue.reap()  # lazy expiry: every request is a clock tick
            if path == protocol.ROUTE_DIST_SUBMIT:
                self._need(method, "POST")
                specs = protocol.decode_sweep(protocol.parse_json(body))
                accepted = queue.submit(specs)
                await self._send_json(writer, 200, {
                    "v": protocol.PROTOCOL_VERSION, "accepted": accepted,
                })
            elif path == protocol.ROUTE_DIST_LEASE:
                self._need(method, "POST")
                worker = protocol.decode_worker_doc(
                    protocol.parse_json(body), "lease"
                )
                grant = None if self.draining else queue.lease(worker)
                if grant is None:
                    grant = protocol.encode_lease_idle(drain=self.draining)
                await self._send_json(writer, 200, grant)
            elif path == protocol.ROUTE_DIST_HEARTBEAT:
                self._need(method, "POST")
                worker, digest = protocol.decode_heartbeat(
                    protocol.parse_json(body)
                )
                held = queue.heartbeat(worker, digest)
                await self._send_json(writer, 200, {
                    "v": protocol.PROTOCOL_VERSION, "held": held,
                })
            elif path == protocol.ROUTE_DIST_COMPLETE:
                self._need(method, "POST")
                worker, spec, _stats, result_doc, metrics = (
                    protocol.decode_complete(protocol.parse_json(body))
                )
                outcome = queue.complete(worker, spec.digest(), result_doc)
                if metrics and obs.enabled():
                    obs.registry().merge(metrics)
                await self._send_json(writer, 200, {
                    "v": protocol.PROTOCOL_VERSION, "outcome": outcome,
                })
            elif path == protocol.ROUTE_DIST_FAIL:
                self._need(method, "POST")
                worker, digest, error = protocol.decode_fail(
                    protocol.parse_json(body)
                )
                queue.fail(worker, digest, error)
                await self._send_json(writer, 200, {
                    "v": protocol.PROTOCOL_VERSION, "outcome": "ok",
                })
            elif path == protocol.ROUTE_DIST_COLLECT:
                self._need(method, "POST")
                results, failed, outstanding, live = queue.collect()
                await self._send_json(
                    writer, 200,
                    protocol.encode_collect_response(
                        results, failed, outstanding, live
                    ),
                )
            elif path == protocol.ROUTE_DIST_CANCEL:
                self._need(method, "POST")
                cancelled = queue.cancel()
                await self._send_json(writer, 200, {
                    "v": protocol.PROTOCOL_VERSION, "cancelled": cancelled,
                })
            elif path == protocol.ROUTE_DIST_STATUS:
                self._need(method, "GET")
                await self._send_json(writer, 200, queue.status())
            else:
                raise protocol.ProtocolError(f"no such route: {path}",
                                             status=404)
        except protocol.ProtocolError as exc:
            await self._send_json(writer, exc.status,
                                  protocol.encode_error(exc.status, str(exc)))
        except Exception as exc:
            await self._send_json(
                writer, 500,
                protocol.encode_error(500, f"{type(exc).__name__}: {exc}"),
            )

    def _need(self, method: str, expected: str) -> None:
        if method != expected:
            raise protocol.ProtocolError(
                f"method {method} not allowed (use {expected})", status=405
            )

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()


class CoordinatorThread:
    """A :class:`DistCoordinator` on a background thread (driver, tests).

    Usage::

        with CoordinatorThread(lease_seconds=5, chaos=plan) as coord:
            backend = DistBackend(coord.url)
            ...

    Entry guarantees the port is bound; exit tears down the loop (and
    flips the coordinator into drain mode, so polling workers exit).
    """

    def __init__(self, **kwargs) -> None:
        self.coordinator = DistCoordinator(**kwargs)
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._main, name="dist-coordinator", daemon=True
        )
        self._error: BaseException | None = None

    @property
    def url(self) -> str:
        return self.coordinator.url

    @property
    def queue(self) -> LeaseQueue:
        return self.coordinator.queue

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.coordinator.start()
        self._ready.set()
        await self._stop.wait()
        await self.coordinator.stop()

    def start(self) -> "CoordinatorThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("coordinator failed to start") from self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout=30)

    def __enter__(self) -> "CoordinatorThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
